//! Collation: building batches (and producer batches) from samples.
//!
//! The producer "collates the data it receives from the data loader into
//! producer batch sizes" (§3.2.6, step 1 in Figure 5). [`stack0`] stacks
//! equally shaped samples into a batch with a new leading dimension;
//! [`cat0`] concatenates batches along the existing leading dimension —
//! that is how several loader batches fuse into one contiguous producer
//! batch slab (optionally in a pooled buffer via [`cat0_pooled`]).

use crate::pool::{MemoryPool, SlotLease, SlotPool};
use crate::shape::contiguous_strides;
use crate::storage::{fresh_storage_id, Storage};
use crate::{DType, Result, Tensor, TensorError};
use std::sync::Arc;
use ts_device::DeviceId;

fn check_same_meta(tensors: &[Tensor], same_all_dims: bool) -> Result<()> {
    let first = &tensors[0];
    for t in &tensors[1..] {
        if t.dtype() != first.dtype() {
            return Err(TensorError::DType {
                expected: first.dtype(),
                got: t.dtype(),
            });
        }
        let (a, b) = if same_all_dims {
            (t.shape(), first.shape())
        } else {
            (&t.shape()[1..], &first.shape()[1..])
        };
        if a != b {
            return Err(TensorError::Shape(format!(
                "collate shape mismatch: {:?} vs {:?}",
                t.shape(),
                first.shape()
            )));
        }
        if t.device() != first.device() {
            return Err(TensorError::Device(format!(
                "collate device mismatch: {} vs {}",
                t.device(),
                first.device()
            )));
        }
    }
    Ok(())
}

/// Writes every tensor's bytes back to back into `dst`, which is sized to
/// their total: each byte is written once, with no temporary.
fn write_each_into(tensors: &[Tensor], dst: &mut [u8]) -> Result<()> {
    let mut cursor = 0;
    for t in tensors {
        let n = t.view_bytes();
        t.copy_bytes_into(&mut dst[cursor..cursor + n])?;
        cursor += n;
    }
    Ok(())
}

/// Every tensor's bytes back to back in a fresh vector, each written once:
/// a contiguous view is appended with one `memcpy`; a strided one gets its
/// range zeroed (while cache-hot) and then gathered into it.
fn concat_bytes(tensors: &[Tensor]) -> Result<Vec<u8>> {
    let mut data = Vec::with_capacity(tensors.iter().map(|t| t.view_bytes()).sum());
    for t in tensors {
        if let Ok(bytes) = t.bytes() {
            data.extend_from_slice(bytes);
            continue;
        }
        let start = data.len();
        data.resize(start + t.view_bytes(), 0);
        t.copy_bytes_into(&mut data[start..])?;
    }
    Ok(data)
}

/// Stacks equally shaped tensors into a new leading dimension.
pub fn stack0(tensors: &[Tensor]) -> Result<Tensor> {
    if tensors.is_empty() {
        return Err(TensorError::Shape("stack0 of zero tensors".to_string()));
    }
    check_same_meta(tensors, true)?;
    let first = &tensors[0];
    let mut shape = Vec::with_capacity(first.ndim() + 1);
    shape.push(tensors.len());
    shape.extend_from_slice(first.shape());
    Tensor::from_bytes(
        concat_bytes(tensors)?,
        first.dtype(),
        &shape,
        first.device(),
    )
}

/// Concatenates tensors along dimension 0.
pub fn cat0(tensors: &[Tensor]) -> Result<Tensor> {
    if tensors.is_empty() {
        return Err(TensorError::Shape("cat0 of zero tensors".to_string()));
    }
    check_same_meta(tensors, false)?;
    let first = &tensors[0];
    let rows: usize = tensors.iter().map(|t| t.shape()[0]).sum();
    let mut shape = first.shape().to_vec();
    shape[0] = rows;
    Tensor::from_bytes(
        concat_bytes(tensors)?,
        first.dtype(),
        &shape,
        first.device(),
    )
}

/// [`cat0`] into a buffer checked out from `pool`; the slab returns to the
/// pool when the last view over it drops. The pool's buffer length must be
/// at least the concatenated byte size (excess bytes stay unused).
pub fn cat0_pooled(tensors: &[Tensor], pool: &MemoryPool, device: DeviceId) -> Result<Tensor> {
    if tensors.is_empty() {
        return Err(TensorError::Shape(
            "cat0_pooled of zero tensors".to_string(),
        ));
    }
    check_same_meta(tensors, false)?;
    let first = &tensors[0];
    let rows: usize = tensors.iter().map(|t| t.shape()[0]).sum();
    let mut shape = first.shape().to_vec();
    shape[0] = rows;
    let total_bytes: usize = tensors.iter().map(|t| t.view_bytes()).sum();
    if pool.buf_len() < total_bytes {
        return Err(TensorError::Shape(format!(
            "pool slab of {} B too small for producer batch of {} B",
            pool.buf_len(),
            total_bytes
        )));
    }
    let mut buf = pool.checkout();
    write_each_into(tensors, &mut buf[..total_bytes])?;
    let storage = Arc::new(Storage::new_pooled(buf, device, pool.return_handle()));
    Tensor::from_parts(
        storage,
        first.dtype(),
        shape.clone(),
        contiguous_strides(&shape),
        0,
    )
}

/// [`cat0`] directly into a leased shared-memory slot from `pool`: the
/// concatenated bytes are written exactly once, into the arena slot that
/// consumers will map, so the later publish moves no payload bytes — the
/// collation *is* the placement.
///
/// The returned tensor's storage is a zero-copy view of the leased slot
/// (under a fresh storage id), and the returned [`SlotLease`] still holds
/// the lease's producer reference: at publish time,
/// [`SlotLease::into_handle`] it into
/// [`crate::SharedRegistry::register_placed`] so the slot recycles through
/// `pool` when the registration releases. An item that never reaches the
/// publish stage (shutdown, epoch abort) simply drops the lease, returning
/// the slot to `pool`. Fails with [`TensorError::Arena`] when no slot can
/// be leased (arena full, or every recyclable slot still pinned by
/// readers) — callers fall back to the copying collate path.
pub fn cat0_leased(
    tensors: &[Tensor],
    pool: &SlotPool,
    device: DeviceId,
) -> Result<(Tensor, SlotLease)> {
    if tensors.is_empty() {
        return Err(TensorError::Shape(
            "cat0_leased of zero tensors".to_string(),
        ));
    }
    check_same_meta(tensors, false)?;
    let first = &tensors[0];
    let rows: usize = tensors.iter().map(|t| t.shape()[0]).sum();
    let mut shape = first.shape().to_vec();
    shape[0] = rows;
    let total_bytes: usize = tensors.iter().map(|t| t.view_bytes()).sum();
    let mut lease = pool
        .lease(total_bytes)
        .map_err(|e| TensorError::Arena(e.to_string()))?;
    write_each_into(tensors, &mut lease.bytes_mut()[..total_bytes])?;
    // The tensor's storage pins the slot with its own read reference; the
    // producer reference stays with the lease we hand back.
    let view = pool
        .arena()
        .attach(lease.handle())
        .map_err(|e| TensorError::Arena(e.to_string()))?;
    let storage = Arc::new(Storage::from_shm_view(fresh_storage_id(), view, device));
    let tensor = Tensor::from_parts(
        storage,
        first.dtype(),
        shape.clone(),
        contiguous_strides(&shape),
        0,
    )?;
    Ok((tensor, lease))
}

/// The destination of one batch tensor assembled in place, row by row —
/// how the data loader writes each decoded byte once, straight into the
/// buffer consumers read: a slot leased from a [`SlotPool`] when one is
/// given and can serve `len` bytes, a heap buffer otherwise.
#[derive(Debug)]
pub enum BatchBuffer {
    /// Process-private heap bytes.
    Heap(Vec<u8>),
    /// A leased arena slot; the finished tensor's storage carries the
    /// lease until a publisher adopts it ([`Storage::take_lease`]).
    Leased(SlotLease),
}

impl BatchBuffer {
    /// `len` bytes leased from `pool`, or — with no pool, or when the
    /// lease fails (arena exhausted, tensor larger than a slot) — a
    /// zeroed heap buffer.
    pub fn alloc(pool: Option<&SlotPool>, len: usize) -> Self {
        match pool.map(|p| p.lease(len)) {
            Some(Ok(lease)) => BatchBuffer::Leased(lease),
            _ => BatchBuffer::Heap(vec![0u8; len]),
        }
    }

    /// The writable bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        match self {
            BatchBuffer::Heap(v) => v,
            BatchBuffer::Leased(lease) => lease.bytes_mut(),
        }
    }

    /// Freezes the written buffer into a contiguous tensor of `shape`.
    pub fn into_tensor(self, dtype: DType, shape: &[usize], device: DeviceId) -> Result<Tensor> {
        let storage = match self {
            BatchBuffer::Heap(v) => Storage::new(v, device),
            BatchBuffer::Leased(lease) => {
                Storage::from_lease(lease, device).map_err(|e| TensorError::Arena(e.to_string()))?
            }
        };
        Tensor::from_parts(
            Arc::new(storage),
            dtype,
            shape.to_vec(),
            contiguous_strides(shape),
            0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[u8], shape: &[usize]) -> Tensor {
        Tensor::from_u8(vals.to_vec(), shape, DeviceId::Cpu).unwrap()
    }

    #[test]
    fn stack_adds_leading_dim() {
        let s = stack0(&[t(&[1, 2], &[2]), t(&[3, 4], &[2]), t(&[5, 6], &[2])]).unwrap();
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.to_vec_u8().unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn cat_extends_leading_dim() {
        let c = cat0(&[t(&[1, 2, 3, 4], &[2, 2]), t(&[5, 6], &[1, 2])]).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.to_vec_u8().unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn mismatched_inner_dims_rejected() {
        assert!(cat0(&[t(&[1, 2], &[1, 2]), t(&[1, 2, 3], &[1, 3])]).is_err());
        assert!(stack0(&[t(&[1, 2], &[2]), t(&[1, 2, 3], &[3])]).is_err());
    }

    #[test]
    fn mismatched_dtype_rejected() {
        let a = t(&[1, 2], &[2]);
        let b = Tensor::from_f32(&[1.0, 2.0], &[2], DeviceId::Cpu).unwrap();
        assert!(matches!(
            stack0(&[a, b]).unwrap_err(),
            TensorError::DType { .. }
        ));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(stack0(&[]).is_err());
        assert!(cat0(&[]).is_err());
    }

    #[test]
    fn pooled_cat_reuses_slab() {
        let pool = MemoryPool::new(16, 2);
        let parts = [t(&[1, 2, 3, 4], &[2, 2]), t(&[5, 6, 7, 8], &[2, 2])];
        {
            let producer_batch = cat0_pooled(&parts, &pool, DeviceId::Gpu(0)).unwrap();
            assert_eq!(producer_batch.shape(), &[4, 2]);
            assert_eq!(producer_batch.device(), DeviceId::Gpu(0));
            assert_eq!(
                producer_batch.to_vec_u8().unwrap(),
                vec![1, 2, 3, 4, 5, 6, 7, 8]
            );
            // slices keep the slab alive
            let slice = producer_batch.narrow(0, 1, 2).unwrap();
            drop(producer_batch);
            assert_eq!(slice.to_vec_u8().unwrap(), vec![3, 4, 5, 6]);
        }
        // slab returned once all views dropped
        assert_eq!(pool.free_count(), 1);
        let (_, misses, returned) = pool.stats();
        assert_eq!((misses, returned), (1, 1));
    }

    #[test]
    fn leased_cat_collates_into_the_arena_slot() {
        let path =
            std::env::temp_dir().join(format!("ts-collate-lease-{}.arena", std::process::id()));
        let arena = ts_shm::ShmArena::create(path, 4, 64).unwrap();
        let pool = SlotPool::new(arena.clone(), 2);
        let parts = [t(&[1, 2, 3, 4], &[2, 2]), t(&[5, 6, 7, 8], &[2, 2])];
        let (batch, lease) = cat0_leased(&parts, &pool, DeviceId::Cpu).unwrap();
        let handle = lease.into_handle();
        assert_eq!(batch.shape(), &[4, 2]);
        assert!(
            batch.storage().is_shared_memory(),
            "tensor IS the slot view"
        );
        assert_eq!(batch.to_vec_u8().unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // The slot holds the same bytes — no second placement needed.
        assert_eq!(
            &arena.attach(handle).unwrap()[..],
            &[1, 2, 3, 4, 5, 6, 7, 8]
        );
        drop(batch);
        pool.reclaim(handle);
        // Steady state: the next collation recycles the same slot.
        let (again, lease2) = cat0_leased(&parts, &pool, DeviceId::Cpu).unwrap();
        assert_eq!(again.to_vec_u8().unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        drop(again);
        pool.reclaim(lease2.into_handle());
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn dropped_lease_from_leased_cat_returns_to_its_pool() {
        let path = std::env::temp_dir().join(format!(
            "ts-collate-lease-drop-{}.arena",
            std::process::id()
        ));
        let arena = ts_shm::ShmArena::create(path, 4, 64).unwrap();
        let pool = SlotPool::new(arena.clone(), 2);
        let parts = [t(&[1, 2, 3, 4], &[2, 2])];
        let (batch, lease) = cat0_leased(&parts, &pool, DeviceId::Cpu).unwrap();
        // An item abandoned before publish: dropping tensor + lease hands
        // the slot back to the pool, whose next lease recycles it.
        drop(batch);
        drop(lease);
        assert_eq!(pool.free_count(), 1);
        let (again, lease) = cat0_leased(&parts, &pool, DeviceId::Cpu).unwrap();
        assert_eq!(pool.stats().hits, 1);
        drop((again, lease));
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn leased_batch_buffer_carries_its_lease_until_taken() {
        let path =
            std::env::temp_dir().join(format!("ts-collate-batchbuf-{}.arena", std::process::id()));
        let arena = ts_shm::ShmArena::create(path, 4, 64).unwrap();
        let pool = SlotPool::new(arena.clone(), 4);
        let mut buf = BatchBuffer::alloc(Some(&pool), 4);
        assert!(matches!(buf, BatchBuffer::Leased(_)));
        buf.bytes_mut().copy_from_slice(&[1, 2, 3, 4]);
        let t = buf.into_tensor(DType::U8, &[2, 2], DeviceId::Cpu).unwrap();
        assert!(t.storage().is_shared_memory());
        assert_eq!(t.to_vec_u8().unwrap(), vec![1, 2, 3, 4]);
        let other = SlotPool::new(arena.clone(), 4);
        assert!(t.storage().take_lease(&other).is_none(), "foreign pool");
        let lease = t.storage().take_lease(&pool).expect("own pool");
        assert!(t.storage().take_lease(&pool).is_none(), "taken once");
        let handle = lease.into_handle();
        assert_eq!(&arena.attach(handle).unwrap()[..], &[1, 2, 3, 4]);
        drop(t);
        pool.reclaim(handle);
        // Unadopted: the storage's drop returns the slot to the pool.
        let mut buf = BatchBuffer::alloc(Some(&pool), 4);
        buf.bytes_mut().fill(9);
        drop(buf.into_tensor(DType::U8, &[4], DeviceId::Cpu).unwrap());
        assert_eq!(pool.free_count(), 1);
        assert_eq!(pool.stats().misses, 1, "every lease after the first hit");
        // Too large for a slot: the heap serves it.
        assert!(matches!(
            BatchBuffer::alloc(Some(&pool), 65),
            BatchBuffer::Heap(_)
        ));
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn pooled_cat_checks_slab_size() {
        let pool = MemoryPool::new(4, 2);
        let parts = [t(&[1, 2, 3, 4], &[2, 2]), t(&[5, 6, 7, 8], &[2, 2])];
        assert!(cat0_pooled(&parts, &pool, DeviceId::Cpu).is_err());
    }
}
