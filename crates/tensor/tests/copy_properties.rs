//! Property tests of single-copy collation: [`Tensor::copy_bytes_into`]
//! writes exactly what [`Tensor::gather_bytes`] returns for contiguous,
//! narrowed and strided (transposed) views, and every collate —
//! [`stack0`], [`cat0`], [`collate::cat0_pooled`], [`cat0_leased`] — lays
//! out the same bytes as a plain element-by-element gather of its inputs,
//! concatenated.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ts_device::DeviceId;
use ts_shm::ShmArena;
use ts_tensor::{cat0, cat0_leased, collate, stack0, DType, MemoryPool, SlotPool, Tensor};

/// The reference: walks every element of the view in row-major order and
/// copies it on its own.
fn naive_gather(t: &Tensor) -> Vec<u8> {
    let esize = t.dtype().size_bytes();
    let src = t.storage().bytes();
    let mut out = Vec::with_capacity(t.view_bytes());
    let mut idx = vec![0usize; t.ndim()];
    for _ in 0..t.numel() {
        let elem: usize = t.offset()
            + idx
                .iter()
                .zip(t.strides())
                .map(|(&i, &s)| i * s)
                .sum::<usize>();
        out.extend_from_slice(&src[elem * esize..(elem + 1) * esize]);
        for d in (0..t.ndim()).rev() {
            idx[d] += 1;
            if idx[d] < t.shape()[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

fn dtype_of(code: u8) -> DType {
    [DType::U8, DType::F32, DType::I64][code as usize % 3]
}

/// A dense tensor of `shape` with distinct bytes.
fn dense(shape: &[usize], dtype: DType, seed: u64) -> Tensor {
    let n = shape.iter().product::<usize>() * dtype.size_bytes();
    let data = (0..n)
        .map(|i| (seed.wrapping_mul(131).wrapping_add(i as u64 * 7) % 251) as u8)
        .collect();
    Tensor::from_bytes(data, dtype, shape, DeviceId::Cpu).unwrap()
}

/// A view of exactly `shape` built one of three ways, picked by `kind`:
/// dense; narrowed along the last dimension out of a wider tensor
/// (strided once there are two dimensions); or the transpose of the
/// first and last dimensions of a tensor of the swapped shape.
fn view_with_shape(shape: &[usize], dtype: DType, kind: u8, seed: u64) -> Tensor {
    let last = shape.len() - 1;
    match kind % 3 {
        0 => dense(shape, dtype, seed),
        1 => {
            let mut wide = shape.to_vec();
            wide[last] += 2;
            dense(&wide, dtype, seed)
                .narrow(last, 1, shape[last])
                .unwrap()
        }
        _ => {
            let mut swapped = shape.to_vec();
            swapped.swap(0, last);
            let base = dense(&swapped, dtype, seed);
            let mut strides = base.strides().to_vec();
            strides.swap(0, last);
            Tensor::from_parts(base.storage().clone(), dtype, shape.to_vec(), strides, 0).unwrap()
        }
    }
}

fn temp_arena(slot_size: usize) -> Arc<ShmArena> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "ts-tensor-copy-prop-{}-{}.arena",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    ShmArena::create(path, 2, slot_size).unwrap()
}

proptest! {
    #[test]
    fn copy_bytes_into_matches_gather(
        shape in prop::collection::vec(1usize..5, 1..5),
        dtype in 0u8..3,
        kind in 0u8..3,
        seed in any::<u64>(),
    ) {
        let view = view_with_shape(&shape, dtype_of(dtype), kind, seed);
        prop_assert_eq!(view.shape(), shape.as_slice());
        let mut dst = vec![0xAAu8; view.view_bytes()];
        view.copy_bytes_into(&mut dst).unwrap();
        prop_assert_eq!(&dst, &view.gather_bytes());
        prop_assert_eq!(&dst, &naive_gather(&view));
        // A destination of the wrong size is refused, not overrun.
        let mut short = vec![0u8; view.view_bytes() - 1];
        prop_assert!(view.copy_bytes_into(&mut short).is_err());
    }

    #[test]
    fn collates_lay_out_the_same_bytes_as_a_plain_gather(
        inner in prop::collection::vec(1usize..4, 1..3),
        rows in prop::collection::vec(1usize..4, 1..5),
        kinds in prop::collection::vec(0u8..3, 4..5),
        dtype in 0u8..3,
        seed in any::<u64>(),
    ) {
        let dtype = dtype_of(dtype);
        // cat0 parts: differing row counts, each dense or strided.
        let parts: Vec<Tensor> = rows
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let mut shape = vec![r];
                shape.extend_from_slice(&inner);
                view_with_shape(&shape, dtype, kinds[i % kinds.len()], seed.wrapping_add(i as u64))
            })
            .collect();
        let expected: Vec<u8> = parts.iter().flat_map(naive_gather).collect();
        let total = expected.len();

        let c = cat0(&parts).unwrap();
        prop_assert_eq!(c.shape()[0], rows.iter().sum::<usize>());
        prop_assert_eq!(c.gather_bytes(), expected.clone());

        let pool = MemoryPool::new(total + 3, 1);
        let pooled = collate::cat0_pooled(&parts, &pool, DeviceId::Cpu).unwrap();
        prop_assert_eq!(pooled.shape(), c.shape());
        prop_assert_eq!(pooled.gather_bytes(), expected.clone());

        let slots = SlotPool::new(temp_arena(total), 1);
        let (leased, lease) = cat0_leased(&parts, &slots, DeviceId::Cpu).unwrap();
        prop_assert_eq!(leased.shape(), c.shape());
        prop_assert_eq!(leased.gather_bytes(), expected.clone());
        prop_assert_eq!(&slots.arena().attach(lease.handle()).unwrap()[..], &expected[..]);

        // stack0 over equally shaped samples, each dense or strided.
        let samples: Vec<Tensor> = (0..rows.len())
            .map(|i| view_with_shape(&inner, dtype, kinds[i % kinds.len()], seed ^ i as u64))
            .collect();
        let stacked = stack0(&samples).unwrap();
        prop_assert_eq!(stacked.shape()[0], samples.len());
        let expected: Vec<u8> = samples.iter().flat_map(naive_gather).collect();
        prop_assert_eq!(stacked.gather_bytes(), expected);
    }
}
