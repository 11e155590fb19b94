//! Dataset and sample abstractions.

use crate::Result;
use bytes::Bytes;
use ts_device::DeviceId;
use ts_tensor::{DType, Tensor, TensorError};

/// An undecoded sample as it comes off storage: encoded bytes plus label.
#[derive(Debug, Clone)]
pub struct RawSample {
    /// Position in the dataset.
    pub index: usize,
    /// Encoded payload (what would sit in the file on disk).
    pub bytes: Bytes,
    /// Supervised label (class id / token count / caption id).
    pub label: i64,
}

/// A decoded sample: one or more tensor fields plus the label.
///
/// Field conventions per modality:
/// * image: `fields[0]` = `U8 [3, H, W]`
/// * audio: `fields[0]` = `F32 [samples]`
/// * caption pair: `fields[0]` = image, `fields[1]` = `I64 [tokens]`
/// * text: `fields[0]` = `I64 [tokens]` (fixed length, padded)
#[derive(Debug, Clone)]
pub struct DecodedSample {
    /// Position in the dataset.
    pub index: usize,
    /// Tensor fields.
    pub fields: Vec<Tensor>,
    /// Supervised label.
    pub label: i64,
}

/// A map-style dataset: random access to raw samples.
///
/// Implementations must be cheap to `get` relative to decoding; the decode
/// cost belongs to the pipeline so that `num_workers` scales it, as in
/// PyTorch.
pub trait Dataset: Send + Sync {
    /// Number of samples.
    fn len(&self) -> usize;

    /// True when the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches the raw (encoded) sample at `index`.
    fn get(&self, index: usize) -> Result<RawSample>;

    /// Bytes a single encoded sample occupies on storage (used by the
    /// simulator's disk model and by I/O accounting).
    fn encoded_sample_bytes(&self) -> usize;

    /// Decodes a raw sample into tensor fields. This is where the real CPU
    /// work happens.
    fn decode(&self, raw: &RawSample) -> Result<DecodedSample>;

    /// Decodes a raw sample straight into caller-owned memory and returns
    /// its label. The data loader calls this to write each sample into its
    /// row of the batch buffers (arena slots, under a producer), so each
    /// decoded byte is written once.
    ///
    /// `layout` is the batch's layout — one [`FieldLayout`] per tensor
    /// field, taken from the batch's first sample — and `out` holds one
    /// slice per field, `out[i]` being `layout[i].row_bytes()` long. An
    /// implementation first checks that the sample is a row of `layout`:
    /// the same field count and, per field, the same dtype, shape and
    /// device ([`check_row`]). When it is not, it fails with that error
    /// and writes nothing — that is how a ragged sample fails its batch,
    /// with the errors `stack0` reports for it. Otherwise it writes every
    /// byte of every slice with the field's dense, row-major bytes —
    /// exactly what [`Dataset::decode`] followed by
    /// [`Tensor::copy_bytes_into`] writes — and returns the label
    /// [`Dataset::decode`] would report.
    ///
    /// The default decodes, checks the tensors against `layout` and then
    /// copies each field in: correct for any dataset, at one extra write
    /// per byte. Override it to decode in place, as the synthetic datasets
    /// do; a dataset that wraps another forwards it, as the combinators do.
    fn decode_into(
        &self,
        raw: &RawSample,
        layout: &[FieldLayout],
        out: &mut [&mut [u8]],
    ) -> Result<i64> {
        let decoded = self.decode(raw)?;
        check_row(layout, out, decoded.fields.iter().map(FieldLayout::meta))?;
        for (t, dst) in decoded.fields.iter().zip(out.iter_mut()) {
            t.copy_bytes_into(dst)?;
        }
        Ok(decoded.label)
    }

    /// Short human-readable name.
    fn name(&self) -> &str {
        "dataset"
    }
}

/// What every row of one batch field holds: one sample's dtype, shape and
/// device. A batch field of `B` samples is a `[B, shape..]` tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    /// Element type.
    pub dtype: DType,
    /// Shape of one sample's field.
    pub shape: Vec<usize>,
    /// Device the field lives on.
    pub device: DeviceId,
}

impl FieldLayout {
    /// The layout of which `t` is a row.
    pub fn of(t: &Tensor) -> Self {
        Self {
            dtype: t.dtype(),
            shape: t.shape().to_vec(),
            device: t.device(),
        }
    }

    /// Bytes one row occupies.
    pub fn row_bytes(&self) -> usize {
        self.shape.iter().product::<usize>() * self.dtype.size_bytes()
    }

    /// `t`'s `(dtype, shape, device)`, the item [`check_row`] takes.
    pub fn meta(t: &Tensor) -> (DType, &[usize], DeviceId) {
        (t.dtype(), t.shape(), t.device())
    }

    /// Fails, with `collate::stack0`'s error, when a field of this dtype,
    /// shape and device cannot be a row of this layout.
    fn check(&self, dtype: DType, shape: &[usize], device: DeviceId) -> Result<()> {
        if dtype != self.dtype {
            return Err(TensorError::DType {
                expected: self.dtype,
                got: dtype,
            }
            .into());
        }
        if shape != self.shape.as_slice() {
            return Err(TensorError::Shape(format!(
                "collate shape mismatch: {shape:?} vs {:?}",
                self.shape
            ))
            .into());
        }
        if device != self.device {
            return Err(TensorError::Device(format!(
                "collate device mismatch: {device} vs {}",
                self.device
            ))
            .into());
        }
        Ok(())
    }
}

/// Checks that a sample whose fields have the given `(dtype, shape,
/// device)` is a row of `layout`, and that `out` holds one slice of the
/// row's size per field — the checks every [`Dataset::decode_into`] makes
/// before writing. The error names the first mismatch.
pub fn check_row<'a>(
    layout: &[FieldLayout],
    out: &[&mut [u8]],
    fields: impl ExactSizeIterator<Item = (DType, &'a [usize], DeviceId)>,
) -> Result<()> {
    if fields.len() != layout.len() {
        return Err(TensorError::Shape(format!(
            "collate field count mismatch: {} vs {}",
            fields.len(),
            layout.len()
        ))
        .into());
    }
    for (l, (dtype, shape, device)) in layout.iter().zip(fields) {
        l.check(dtype, shape, device)?;
    }
    let sized = out.len() == layout.len()
        && layout
            .iter()
            .zip(out)
            .all(|(l, o)| o.len() == l.row_bytes());
    if !sized {
        return Err(TensorError::Shape(format!(
            "row buffers of {:?} B do not fit the layout {layout:?}",
            out.iter().map(|o| o.len()).collect::<Vec<_>>()
        ))
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TinyDataset;

    impl Dataset for TinyDataset {
        fn len(&self) -> usize {
            3
        }
        fn get(&self, index: usize) -> Result<RawSample> {
            if index >= 3 {
                return Err(crate::DataError::IndexOutOfRange { index, len: 3 });
            }
            Ok(RawSample {
                index,
                bytes: Bytes::from(vec![index as u8; 4]),
                label: index as i64,
            })
        }
        fn encoded_sample_bytes(&self) -> usize {
            4
        }
        fn decode(&self, raw: &RawSample) -> Result<DecodedSample> {
            let t = Tensor::from_u8(raw.bytes.to_vec(), &[4], DeviceId::Cpu)?;
            Ok(DecodedSample {
                index: raw.index,
                fields: vec![t],
                label: raw.label,
            })
        }
    }

    #[test]
    fn trait_object_usable() {
        let ds: Box<dyn Dataset> = Box::new(TinyDataset);
        assert_eq!(ds.len(), 3);
        assert!(!ds.is_empty());
        let raw = ds.get(1).unwrap();
        let dec = ds.decode(&raw).unwrap();
        assert_eq!(dec.fields[0].to_vec_u8().unwrap(), vec![1, 1, 1, 1]);
        assert!(ds.get(5).is_err());
    }
}
