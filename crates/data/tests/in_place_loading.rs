//! In-place batch assembly: [`Dataset::decode_into`] writes exactly the
//! bytes [`Dataset::decode`] produces, for every synthetic dataset, and a
//! [`DataLoader`] batch — assembled row by row in one buffer per field,
//! on the heap or in slots leased from a bound [`SlotPool`] — is
//! byte-identical to decoding each sample and stacking the results.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ts_data::{
    Batch, ConcatDataset, DataLoader, DataLoaderConfig, Dataset, DecodedSample, FieldLayout,
    Pipeline, RandomCrop, RawSample, SubsetDataset, SyntheticAudioDataset, SyntheticCaptionDataset,
    SyntheticImageDataset, SyntheticTextDataset,
};
use ts_device::DeviceId;
use ts_shm::ShmArena;
use ts_tensor::{stack0, DType, SlotPool, Tensor};

fn temp_arena(nslots: usize, slot_size: usize) -> Arc<ShmArena> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "ts-data-in-place-{}-{}.arena",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    ShmArena::create(path, nslots, slot_size).unwrap()
}

/// Decodes `index` both ways and checks the bytes and label agree, and
/// that a layout the sample does not fit is refused without a write.
fn assert_decode_into_matches(ds: &dyn Dataset, index: usize) {
    let raw = ds.get(index).unwrap();
    let decoded = ds.decode(&raw).unwrap();
    let layout: Vec<FieldLayout> = decoded.fields.iter().map(FieldLayout::of).collect();
    // Poisoned rows: every byte must be overwritten.
    let mut rows: Vec<Vec<u8>> = layout.iter().map(|l| vec![0xA5; l.row_bytes()]).collect();
    let mut out: Vec<&mut [u8]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
    let label = ds.decode_into(&raw, &layout, &mut out).unwrap();
    assert_eq!(label, decoded.label, "{} sample {index}: label", ds.name());
    for (f, (t, row)) in decoded.fields.iter().zip(&rows).enumerate() {
        assert_eq!(
            &t.gather_bytes(),
            row,
            "{} sample {index}: field {f}",
            ds.name()
        );
    }
    // Layouts of field 0 the sample is not a row of: one element short,
    // the same bytes under another shape, and the same shape under
    // another dtype of the same width.
    let l0 = &layout[0];
    let numel: usize = l0.shape.iter().product();
    let mut wrong = vec![
        FieldLayout {
            shape: vec![numel - 1],
            ..l0.clone()
        },
        FieldLayout {
            shape: [&[1], &l0.shape[..]].concat(),
            ..l0.clone()
        },
    ];
    if l0.dtype == DType::U8 {
        wrong.push(FieldLayout {
            dtype: DType::Bool,
            ..l0.clone()
        });
    }
    for w in wrong {
        let mut bad = layout.clone();
        bad[0] = w;
        let mut rows: Vec<Vec<u8>> = bad.iter().map(|l| vec![0xA5; l.row_bytes()]).collect();
        let mut out: Vec<&mut [u8]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
        let refused = ds.decode_into(&raw, &bad, &mut out);
        assert!(refused.is_err(), "{} accepted {:?}", ds.name(), bad[0]);
        assert!(
            rows.iter().flatten().all(|&b| b == 0xA5),
            "{} wrote a row it refused",
            ds.name()
        );
    }
}

proptest! {
    #[test]
    fn decode_into_matches_decode_for_every_synthetic_dataset(
        seed in 0u64..1_000_000,
        index in 0usize..16,
        side in 1usize..24,
        len in 1usize..600,
    ) {
        let image = SyntheticImageDataset::new(16, side, side + 3, seed).with_encoded_len(len);
        assert_decode_into_matches(&image, index);
        assert_decode_into_matches(&SyntheticAudioDataset::new(16, len, seed), index);
        assert_decode_into_matches(&SyntheticCaptionDataset::new(16, seed), index);
        assert_decode_into_matches(&SyntheticTextDataset::new(16, 4 + len, seed), index);
        // The combinators forward to their parts' in-place decode.
        let image: Arc<dyn Dataset> = Arc::new(image);
        let text: Arc<dyn Dataset> = Arc::new(SyntheticTextDataset::new(8, 4 + len, seed));
        assert_decode_into_matches(&ConcatDataset::new(vec![text, image.clone()]), 8 + index);
        let subset = SubsetDataset::new(image, (0..16).rev().collect()).unwrap();
        assert_decode_into_matches(&subset, index);
    }
}

/// Fields (then labels) of a batch, each stacked from per-sample decodes
/// — the assembly the loader used before batches were built in place.
fn stacked_reference(ds: &dyn Dataset, pipeline: &Pipeline, epoch: u64, b: &Batch) -> Vec<Tensor> {
    let decoded: Vec<DecodedSample> = b
        .sample_indices
        .iter()
        .map(|&si| {
            let mut d = ds.decode(&ds.get(si).unwrap()).unwrap();
            if !pipeline.is_empty() {
                d.fields[0] = pipeline.apply(&d.fields[0], epoch, si).unwrap();
            }
            d
        })
        .collect();
    let mut fields: Vec<Tensor> = (0..decoded[0].fields.len())
        .map(|f| {
            let rows: Vec<Tensor> = decoded.iter().map(|d| d.fields[f].clone()).collect();
            stack0(&rows).unwrap()
        })
        .collect();
    let labels: Vec<i64> = decoded.iter().map(|d| d.label).collect();
    fields.push(Tensor::from_i64(&labels, &[labels.len()], DeviceId::Cpu).unwrap());
    fields
}

#[test]
fn batches_match_per_sample_decode_and_stack() {
    let image = SyntheticImageDataset::new(24, 16, 16, 3).with_encoded_len(96);
    let caption = SyntheticCaptionDataset::new(24, 5);
    let datasets: [Arc<dyn Dataset>; 2] = [Arc::new(image), Arc::new(caption)];
    for ds in datasets {
        for workers in [0usize, 2] {
            for crop in [false, true] {
                for leased in [false, true] {
                    let mut pipeline = Pipeline::new(9);
                    if crop {
                        pipeline = pipeline.with(RandomCrop { out_h: 8, out_w: 8 });
                    }
                    let pipeline = Arc::new(pipeline);
                    let cfg = DataLoaderConfig {
                        batch_size: 4,
                        num_workers: workers,
                        shuffle: true,
                        seed: 11,
                        ..Default::default()
                    };
                    let loader = DataLoader::with_pipeline(ds.clone(), pipeline.clone(), cfg);
                    let arena = temp_arena(64, 1 << 20);
                    let pool = SlotPool::new(arena.clone(), 64);
                    let tag = format!(
                        "{} workers={workers} crop={crop} leased={leased}",
                        ds.name()
                    );
                    for epoch in 0..2 {
                        let batches: Vec<Batch> = {
                            let _bound = leased.then(|| pool.bind_to_thread());
                            loader.epoch(epoch).collect()
                        };
                        assert_eq!(batches.len(), 6, "{tag}");
                        for b in &batches {
                            let got = b.fields.iter().chain(std::iter::once(&b.labels));
                            let want = stacked_reference(ds.as_ref(), &pipeline, epoch, b);
                            assert_eq!(b.fields.len() + 1, want.len(), "{tag}");
                            for (g, w) in got.zip(&want) {
                                assert_eq!(g.shape(), w.shape(), "{tag}");
                                assert_eq!(g.dtype(), w.dtype(), "{tag}");
                                assert_eq!(g.gather_bytes(), w.gather_bytes(), "{tag}");
                                assert_eq!(g.storage().is_shared_memory(), leased, "{tag}");
                            }
                        }
                    }
                    // Nothing adopted the leases: every slot went back to
                    // the pool, and the arena drains empty.
                    pool.drain();
                    assert_eq!(arena.slots_in_use(), 0, "{tag}");
                }
            }
        }
    }
}

/// A dataset of eight 4-byte `U8 [4]` samples, decoded through the
/// default `decode_into`, except that sample 5 decodes to `odd(bytes)`.
struct Ragged {
    odd: fn(Vec<u8>) -> Tensor,
}

impl Dataset for Ragged {
    fn len(&self) -> usize {
        8
    }
    fn get(&self, index: usize) -> ts_data::Result<RawSample> {
        Ok(RawSample {
            index,
            bytes: bytes::Bytes::from(vec![index as u8; 4]),
            label: index as i64,
        })
    }
    fn encoded_sample_bytes(&self) -> usize {
        4
    }
    fn decode(&self, raw: &RawSample) -> ts_data::Result<DecodedSample> {
        let bytes = raw.bytes.to_vec();
        let field = if raw.index == 5 {
            (self.odd)(bytes)
        } else {
            Tensor::from_u8(bytes, &[4], DeviceId::Cpu)?
        };
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![field],
            label: raw.label,
        })
    }
}

/// Loads `ds` in batches of 4 and checks that batch 0 is whole while
/// batch 1 — samples 4..8 — fails, as stacking its samples does.
fn assert_second_batch_fails(ds: Arc<dyn Dataset>, tag: &str) {
    let rows: Vec<Tensor> = (4..8)
        .map(|i| ds.decode(&ds.get(i).unwrap()).unwrap().fields[0].clone())
        .collect();
    assert!(stack0(&rows).is_err(), "{tag}: stack0 accepted batch 1");
    let reference: Vec<Tensor> = (0..4)
        .map(|i| ds.decode(&ds.get(i).unwrap()).unwrap().fields[0].clone())
        .collect();
    let loader = DataLoader::new(
        ds,
        DataLoaderConfig {
            batch_size: 4,
            shuffle: false,
            ..Default::default()
        },
    );
    let mut it = loader.epoch(0);
    let first = it.next().unwrap();
    let want = stack0(&reference).unwrap();
    assert_eq!(first.fields[0].shape(), want.shape(), "{tag}");
    assert_eq!(first.fields[0].gather_bytes(), want.gather_bytes(), "{tag}");
    let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| it.next()));
    assert!(failed.is_err(), "{tag}: ragged batch must fail");
}

#[test]
fn ragged_samples_fail_their_batch_like_stack0() {
    let short = Ragged {
        odd: |b| Tensor::from_u8(b[..3].to_vec(), &[3], DeviceId::Cpu).unwrap(),
    };
    assert_second_batch_fails(Arc::new(short), "one byte short");
    // Same byte size as the other rows, so only a shape or dtype check
    // can tell.
    let reshaped = Ragged {
        odd: |b| Tensor::from_u8(b, &[2, 2], DeviceId::Cpu).unwrap(),
    };
    assert_second_batch_fails(Arc::new(reshaped), "same bytes, other shape");
    let retyped = Ragged {
        odd: |b| Tensor::from_bytes(b, DType::Bool, &[4], DeviceId::Cpu).unwrap(),
    };
    assert_second_batch_fails(Arc::new(retyped), "same bytes, other dtype");
    // Two image datasets of transposed geometry: equal byte sizes, and
    // decoded in place through the concatenation.
    let tall: Arc<dyn Dataset> = Arc::new(SyntheticImageDataset::new(6, 24, 16, 1));
    let wide: Arc<dyn Dataset> = Arc::new(SyntheticImageDataset::new(2, 16, 24, 2));
    let mixed = ConcatDataset::new(vec![tall, wide]);
    assert_second_batch_fails(Arc::new(mixed), "concat of 24x16 and 16x24 images");
}
