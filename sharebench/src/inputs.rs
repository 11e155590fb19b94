//! Workloads and the inputs the benchmark generates from its seed.
//!
//! The program under test receives only what is built here: a dataset
//! seeded from `--seed`, a loader configuration whose shuffle seed also
//! derives from it, and (for the fan-out workloads) one epoch of batches
//! pre-built from that loader. The reference the consumers are checked
//! against is built here too, outside every timed window.

use std::sync::Arc;
use ts_data::SyntheticImageDataset;
use ts_data::{Batch, DataLoader, DataLoaderConfig, Dataset, Sampler, ShuffleSampler};

/// Samples per batch.
pub const BATCH: usize = 32;
/// Decoded image geometry: `U8 [3, 64, 64]`.
pub const IMAGE_SHAPE: [usize; 3] = [3, 64, 64];
/// Bytes of one decoded image.
pub const SAMPLE_BYTES: usize = 3 * 64 * 64;
/// Encoded bytes per sample the decoder absorbs.
const ENCODED_LEN: usize = 4096;
/// Payload bytes of one batch: images plus `i64` labels.
pub const BATCH_PAYLOAD_BYTES: usize = BATCH * (SAMPLE_BYTES + 8);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A decoding `DataLoader` shared over `ipc://` with a shm arena.
    DecodeIpc,
    /// Pre-built batches shared over `ipc://` with a shm arena.
    FanoutShmIpc,
    /// Pre-built batches streamed over `tcp://` loopback.
    FanoutStreamTcp,
}

impl Workload {
    /// Parses a workload name as `--workload` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "decode-ipc" => Some(Workload::DecodeIpc),
            "fanout-shm-ipc" => Some(Workload::FanoutShmIpc),
            "fanout-stream-tcp" => Some(Workload::FanoutStreamTcp),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeIpc => "decode-ipc",
            Workload::FanoutShmIpc => "fanout-shm-ipc",
            Workload::FanoutStreamTcp => "fanout-stream-tcp",
        }
    }

    /// Samples in the dataset (one epoch).
    pub fn dataset_len(self) -> usize {
        match self {
            Workload::DecodeIpc => 8192,
            Workload::FanoutShmIpc | Workload::FanoutStreamTcp => 4096,
        }
    }

    /// Epochs in one timed trial, sized so that a trial lasts about
    /// 0.75 s on a two-core x86-64 host: many short trials let the
    /// median ride out bursts of host contention.
    pub fn trial_epochs(self) -> u64 {
        match self {
            Workload::DecodeIpc => 3,
            Workload::FanoutShmIpc => 32,
            Workload::FanoutStreamTcp => 6,
        }
    }
}

/// SplitMix64 step, used to derive independent seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit digest of a byte string: word-at-a-time multiply-rotate with a
/// SplitMix64 finish. Any changed, dropped or reordered byte changes it.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = K ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunk of 8"));
        h = (h.rotate_left(23) ^ w).wrapping_mul(K);
    }
    for &b in words.remainder() {
        h = (h.rotate_left(23) ^ b as u64).wrapping_mul(K);
    }
    mix(h, 0)
}

/// What every consumer must receive: for each `(epoch, index)`, which
/// samples the batch holds, and each sample's label and image digest.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Batches per epoch.
    pub batches_per_epoch: u64,
    /// Bytes of one sample's image.
    pub sample_bytes: usize,
    /// Sample ids of each batch, per epoch (`order[epoch][index]`); a
    /// single entry serves every epoch (pre-built batches repeat).
    pub order: Vec<Vec<Vec<u32>>>,
    /// Label of each sample.
    pub labels: Vec<i64>,
    /// Image digest of each sample.
    pub digests: Vec<u64>,
}

impl Reference {
    /// Sample ids of batch `(epoch, index)`, if the reference covers it.
    pub fn batch(&self, epoch: u64, index: u64) -> Option<&[u32]> {
        let per_epoch = if self.order.len() == 1 {
            &self.order[0]
        } else {
            self.order.get(epoch as usize)?
        };
        per_epoch.get(index as usize).map(Vec::as_slice)
    }
}

/// Everything one run feeds the program, plus its reference.
pub struct Inputs {
    /// The workload these inputs are for.
    pub workload: Workload,
    /// The dataset (decode workload) or the source of the pre-built
    /// batches (fan-out workloads).
    pub dataset: Arc<SyntheticImageDataset>,
    /// Loader configuration of the shared producer.
    pub loader_cfg: DataLoaderConfig,
    /// One epoch of pre-built batches (fan-out workloads only).
    pub prebuilt: Option<Vec<Batch>>,
    /// What consumers must receive.
    pub reference: Reference,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`, covering trials of
    /// up to `epochs` epochs.
    pub fn build(workload: Workload, seed: u64, epochs: u64) -> Inputs {
        Self::build_sized(workload, seed, epochs, workload.dataset_len())
    }

    /// [`Inputs::build`] over a dataset of `len` samples.
    pub fn build_sized(workload: Workload, seed: u64, epochs: u64, len: usize) -> Inputs {
        let dataset = Arc::new(
            SyntheticImageDataset::new(len, IMAGE_SHAPE[1], IMAGE_SHAPE[2], mix(seed, 1))
                .with_encoded_len(ENCODED_LEN),
        );
        let loader_cfg = DataLoaderConfig {
            batch_size: BATCH,
            num_workers: 2,
            prefetch_factor: 2,
            drop_last: true,
            shuffle: true,
            seed: mix(seed, 2),
        };
        let (labels, digests) = sample_reference(dataset.as_ref());
        let sampler = ShuffleSampler {
            seed: loader_cfg.seed,
        };
        let batches_of = |epoch: u64| -> Vec<Vec<u32>> {
            sampler
                .epoch_indices(epoch, len)
                .chunks_exact(BATCH)
                .map(|c| c.iter().map(|&i| i as u32).collect())
                .collect()
        };
        let (order, prebuilt) = match workload {
            Workload::DecodeIpc => ((0..epochs).map(batches_of).collect(), None),
            Workload::FanoutShmIpc | Workload::FanoutStreamTcp => {
                let loader = DataLoader::new(dataset.clone(), loader_cfg.clone());
                let batches: Vec<Batch> = loader.epoch(0).collect();
                (vec![batches_of(0)], Some(batches))
            }
        };
        Inputs {
            workload,
            dataset,
            loader_cfg,
            prebuilt,
            reference: Reference {
                batches_per_epoch: (len / BATCH) as u64,
                sample_bytes: SAMPLE_BYTES,
                order,
                labels,
                digests,
            },
        }
    }

    /// A loader over the dataset with the shared producer's configuration
    /// but `workers` worker threads.
    pub fn loader(&self, workers: usize) -> DataLoader {
        DataLoader::new(
            self.dataset.clone(),
            DataLoaderConfig {
                num_workers: workers,
                ..self.loader_cfg.clone()
            },
        )
    }
}

/// Decodes every sample once, directly through the dataset, and keeps its
/// label and image digest.
fn sample_reference(dataset: &SyntheticImageDataset) -> (Vec<i64>, Vec<u64>) {
    (0..dataset.len())
        .map(|i| {
            let raw = dataset.get(i).expect("synthetic sample");
            let decoded = dataset.decode(&raw).expect("synthetic decode");
            let bytes = decoded.fields[0].bytes().expect("contiguous image");
            (raw.label, digest(bytes))
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_batch_bytes(inputs: &Inputs) -> Vec<u8> {
        let loader = inputs.loader(0);
        let batch = loader.epoch(0).next().expect("one batch");
        batch.fields[0].bytes().expect("contiguous").to_vec()
    }

    #[test]
    fn two_seeds_give_the_same_shape_with_different_bytes() {
        for workload in [Workload::DecodeIpc, Workload::FanoutShmIpc] {
            let a = Inputs::build_sized(workload, 11, 2, 256);
            let b = Inputs::build_sized(workload, 12, 2, 256);
            assert_eq!(a.reference.batches_per_epoch, b.reference.batches_per_epoch);
            assert_eq!(a.reference.order.len(), b.reference.order.len());
            assert_eq!(
                a.prebuilt.as_ref().map(Vec::len),
                b.prebuilt.as_ref().map(Vec::len)
            );
            let (ba, bb) = (first_batch_bytes(&a), first_batch_bytes(&b));
            assert_eq!(ba.len(), bb.len());
            assert_ne!(ba, bb, "different seeds must give different bytes");
            assert_ne!(a.reference.digests, b.reference.digests);
            assert_ne!(
                a.reference.order, b.reference.order,
                "shuffle follows the seed"
            );
        }
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let a = Inputs::build_sized(Workload::FanoutShmIpc, 5, 1, 256);
        let b = Inputs::build_sized(Workload::FanoutShmIpc, 5, 1, 256);
        assert_eq!(a.reference.digests, b.reference.digests);
        assert_eq!(a.reference.order, b.reference.order);
        assert_eq!(first_batch_bytes(&a), first_batch_bytes(&b));
    }

    #[test]
    fn reference_matches_what_the_loader_builds() {
        let inputs = Inputs::build_sized(Workload::DecodeIpc, 3, 2, 256);
        let loader = inputs.loader(0);
        for epoch in 0..2 {
            for batch in loader.epoch(epoch) {
                let ids = inputs
                    .reference
                    .batch(epoch, batch.index as u64)
                    .expect("covered");
                let ids: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
                assert_eq!(ids, batch.sample_indices);
                let images = batch.fields[0].bytes().expect("contiguous");
                for (k, &id) in ids.iter().enumerate() {
                    let image = &images[k * SAMPLE_BYTES..(k + 1) * SAMPLE_BYTES];
                    assert_eq!(digest(image), inputs.reference.digests[id]);
                }
            }
        }
    }

    #[test]
    fn digest_sees_single_byte_changes() {
        let mut bytes = vec![7u8; 1001];
        let d = digest(&bytes);
        bytes[1000] ^= 1;
        assert_ne!(digest(&bytes), d);
        bytes[1000] ^= 1;
        bytes[3] ^= 0x80;
        assert_ne!(digest(&bytes), d);
    }
}
