//! Per-consumer delivery checking and failure accounting.
//!
//! A consumer must see every `(epoch, index)` of its trial exactly once,
//! in order, with the right bytes, and then stop on `StopReason::End`.
//! Every deviation counts as one failed delivery against the expected
//! `epochs × batches_per_epoch`.

use crate::inputs::{digest, Reference};

/// How much of each payload is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Labels plus the first sample's image: fixed cost per batch, used
    /// inside timed windows.
    Probe,
    /// Labels plus every image byte: used in the untimed check pass.
    Full,
}

/// Checks one consumer's stream against the reference.
pub struct Checker<'a> {
    reference: &'a Reference,
    depth: Depth,
    epochs: u64,
    /// The next `(epoch, index)` expected.
    next: (u64, u64),
    delivered: u64,
    failed: u64,
    errored: bool,
    notes: Vec<String>,
}

impl<'a> Checker<'a> {
    /// A checker expecting `epochs` whole epochs.
    pub fn new(reference: &'a Reference, depth: Depth, epochs: u64) -> Self {
        Self {
            reference,
            depth,
            epochs,
            next: (0, 0),
            delivered: 0,
            failed: 0,
            errored: false,
            notes: Vec::new(),
        }
    }

    /// Deliveries this consumer should make.
    pub fn expected(&self) -> u64 {
        self.epochs * self.reference.batches_per_epoch
    }

    /// The position of key `k` in the expected stream.
    fn ordinal(&self, (epoch, index): (u64, u64)) -> u64 {
        epoch * self.reference.batches_per_epoch + index
    }

    /// True once the final expected batch has been seen.
    pub fn complete(&self) -> bool {
        self.ordinal(self.next) >= self.expected()
    }

    fn fail(&mut self, count: u64, note: String) {
        self.failed += count;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Records one delivered batch: its key, its label tensor's bytes and
    /// its image tensor's bytes.
    pub fn observe(&mut self, key: (u64, u64), labels: &[u8], images: &[u8]) {
        self.delivered += 1;
        let bpe = self.reference.batches_per_epoch;
        if key.1 >= bpe || key.0 >= self.epochs {
            self.fail(1, format!("batch {key:?} is outside the trial"));
            return;
        }
        let (got, want) = (self.ordinal(key), self.ordinal(self.next));
        if got < want {
            self.fail(1, format!("batch {key:?} duplicated or out of order"));
            return;
        }
        if got > want {
            self.fail(
                got - want,
                format!("batches {:?}..{key:?} missing", self.next),
            );
        }
        self.next = if key.1 + 1 == bpe {
            (key.0 + 1, 0)
        } else {
            (key.0, key.1 + 1)
        };
        if !self.content_ok(key, labels, images) {
            self.fail(1, format!("batch {key:?} has the wrong bytes"));
        }
    }

    fn content_ok(&self, key: (u64, u64), labels: &[u8], images: &[u8]) -> bool {
        let Some(ids) = self.reference.batch(key.0, key.1) else {
            return false;
        };
        let sb = self.reference.sample_bytes;
        if labels.len() != ids.len() * 8 || images.len() != ids.len() * sb {
            return false;
        }
        let labels_ok = ids
            .iter()
            .zip(labels.chunks_exact(8))
            .all(|(&id, l)| l == self.reference.labels[id as usize].to_le_bytes());
        let checked = match self.depth {
            Depth::Probe => 1,
            Depth::Full => ids.len(),
        };
        labels_ok
            && ids[..checked].iter().enumerate().all(|(k, &id)| {
                digest(&images[k * sb..(k + 1) * sb]) == self.reference.digests[id as usize]
            })
    }

    /// Records an `Err` item from the consumer.
    pub fn error(&mut self, what: String) {
        self.errored = true;
        self.fail(1, format!("consumer error: {what}"));
    }

    /// Closes the stream: every batch not yet seen is missing, and a stop
    /// other than a clean end is a failure, counted once with the `Err`
    /// item that reports it.
    pub fn finish(mut self, ended_cleanly: bool) -> Verdict {
        let missing = self.expected().saturating_sub(self.ordinal(self.next));
        if missing > 0 {
            self.fail(
                missing,
                format!("{missing} batches from {:?} on never arrived", self.next),
            );
        }
        if !ended_cleanly && !self.errored {
            self.fail(1, "stream did not stop on StopReason::End".into());
        }
        Verdict {
            expected: self.expected(),
            delivered: self.delivered,
            failed: self.failed,
            notes: self.notes,
        }
    }
}

/// The outcome of one consumer's stream.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Deliveries the consumer should have made.
    pub expected: u64,
    /// Batches it received.
    pub delivered: u64,
    /// Failed deliveries.
    pub failed: u64,
    /// The first few failures, described.
    pub notes: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four samples of two bytes each, two batches of two per epoch.
    fn reference() -> Reference {
        Reference {
            batches_per_epoch: 2,
            sample_bytes: 2,
            order: vec![vec![vec![0, 1], vec![2, 3]], vec![vec![3, 1], vec![0, 2]]],
            labels: vec![10, 11, 12, 13],
            digests: (0..4u8).map(|i| digest(&[i, i])).collect(),
        }
    }

    fn payload(r: &Reference, key: (u64, u64)) -> (Vec<u8>, Vec<u8>) {
        let ids = r.batch(key.0, key.1).expect("covered");
        let labels = ids
            .iter()
            .flat_map(|&i| r.labels[i as usize].to_le_bytes())
            .collect();
        let images = ids.iter().flat_map(|&i| [i as u8, i as u8]).collect();
        (labels, images)
    }

    fn run(r: &Reference, keys: &[(u64, u64)], depth: Depth) -> Verdict {
        let mut c = Checker::new(r, depth, 2);
        for &k in keys {
            let (l, i) = payload(r, k);
            c.observe(k, &l, &i);
        }
        c.finish(true)
    }

    #[test]
    fn a_clean_stream_passes() {
        let r = reference();
        let v = run(&r, &[(0, 0), (0, 1), (1, 0), (1, 1)], Depth::Full);
        assert_eq!(
            (v.expected, v.delivered, v.failed),
            (4, 4, 0),
            "{:?}",
            v.notes
        );
    }

    #[test]
    fn a_dropped_and_a_duplicated_batch_are_both_caught() {
        let r = reference();
        // (0, 1) dropped, (1, 0) delivered twice.
        let v = run(&r, &[(0, 0), (1, 0), (1, 0), (1, 1)], Depth::Probe);
        assert_eq!(v.failed, 2, "{:?}", v.notes);
        assert!(v.notes.iter().any(|n| n.contains("missing")));
        assert!(v.notes.iter().any(|n| n.contains("duplicated")));
    }

    #[test]
    fn wrong_bytes_are_caught_at_the_depth_that_covers_them() {
        let r = reference();
        let mut probe = Checker::new(&r, Depth::Probe, 1);
        let mut full = Checker::new(&r, Depth::Full, 1);
        for k in [(0, 0), (0, 1)] {
            let (l, mut i) = payload(&r, k);
            if k == (0, 1) {
                *i.last_mut().expect("bytes") ^= 1; // second sample corrupted
            }
            probe.observe(k, &l, &i);
            full.observe(k, &l, &i);
        }
        assert_eq!(
            probe.finish(true).failed,
            0,
            "probe covers the first sample only"
        );
        assert_eq!(full.finish(true).failed, 1);

        let mut c = Checker::new(&r, Depth::Probe, 1);
        let (mut l, i) = payload(&r, (0, 0));
        l[0] ^= 1;
        c.observe((0, 0), &l, &i);
        let (l, i) = payload(&r, (0, 1));
        c.observe((0, 1), &l, &i);
        assert_eq!(c.finish(true).failed, 1, "labels are always compared");
    }

    #[test]
    fn a_short_stream_or_unclean_stop_fails() {
        let r = reference();
        let mut c = Checker::new(&r, Depth::Probe, 2);
        let (l, i) = payload(&r, (0, 0));
        c.observe((0, 0), &l, &i);
        c.error("timed out waiting for batch from producer".into());
        let v = c.finish(false);
        assert_eq!(v.failed, 3 + 1, "3 missing plus the error: {:?}", v.notes);

        let mut c = Checker::new(&r, Depth::Probe, 1);
        for k in [(0, 0), (0, 1)] {
            let (l, i) = payload(&r, k);
            c.observe(k, &l, &i);
        }
        assert_eq!(
            c.finish(false).failed,
            1,
            "a silent unclean stop still fails"
        );
    }
}
