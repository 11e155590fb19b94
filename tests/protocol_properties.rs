//! Property-based tests of the protocol invariants and substrate algebra.

use proptest::prelude::*;
use tensorsocket::protocol::buffer::BatchWindow;
use tensorsocket::protocol::flex::{covers_producer_batch, plan_flex};
use tensorsocket::protocol::messages::{
    AnnounceContent, BatchAnnounce, CtrlMsg, DataMsg, FlexBatchPayload, JoinDecision, PayloadMode,
    ReplayFrom,
};
use ts_baselines::DependentSampler;
use ts_device::DeviceId;
use ts_tensor::{DType, SharedRegistry, Tensor, TensorPayload};

// ---------------------------------------------------------------------------
// flexible batch planning (§3.2.6)
// ---------------------------------------------------------------------------

proptest! {
    /// Every plan covers the producer batch exactly, delivers batches of
    /// exactly the requested size, and repeats fewer than `b` samples.
    #[test]
    fn flex_plan_invariants(p in 1usize..512, b_raw in 1usize..512, offset in 0usize..1024) {
        let b = b_raw.min(p);
        let plan = plan_flex(p, b, offset).unwrap();
        prop_assert!(covers_producer_batch(&plan));
        prop_assert!(plan.batches.iter().all(|pb| pb.len() == b));
        prop_assert!(plan.repeated() < b);
        prop_assert_eq!(plan.batches.len(), p.div_ceil(b));
        // segments stay in range
        for pb in &plan.batches {
            for s in &pb.segments {
                prop_assert!(s.start + s.len <= p);
                prop_assert!(s.len > 0);
            }
        }
    }

    /// The lockstep rate invariant: every consumer finishes one producer
    /// batch per round regardless of its batch size.
    #[test]
    fn flex_all_consumers_same_rate(p in 1usize..256, sizes in prop::collection::vec(1usize..256, 1..6)) {
        for b in sizes {
            let b = b.min(p);
            let plan = plan_flex(p, b, 0).unwrap();
            prop_assert_eq!(plan.delivered(), plan.batches.len() * b);
            prop_assert!(plan.delivered() >= p);
        }
    }
}

// ---------------------------------------------------------------------------
// publish window (§3.2.5)
// ---------------------------------------------------------------------------

proptest! {
    /// Under arbitrary interleavings of publishes and per-consumer acks,
    /// no consumer ever holds more than N outstanding batches and drift
    /// stays within N.
    #[test]
    fn window_bounds_drift(
        n in 1usize..5,
        consumers in 1usize..5,
        script in prop::collection::vec((0usize..5usize, prop::bool::ANY), 1..200)
    ) {
        let mut w = BatchWindow::new(n);
        for c in 0..consumers {
            w.add_consumer(c as u64, 0);
        }
        let mut acked = vec![0u64; consumers];
        for (pick, do_publish) in script {
            if do_publish && w.can_publish() {
                w.published();
            } else {
                let c = pick % consumers;
                if acked[c] < w.next_seq() {
                    w.on_ack(c as u64, acked[c]);
                    acked[c] += 1;
                }
            }
            prop_assert!(w.outstanding() <= n as u64);
            prop_assert!(w.drift() <= n as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// wire codec
// ---------------------------------------------------------------------------

fn arb_payload() -> impl Strategy<Value = TensorPayload> {
    (
        any::<u64>(),
        0u8..4,
        prop::collection::vec(1usize..64, 1..4),
        any::<u16>(),
    )
        .prop_map(|(storage_id, gpu, shape, offset)| {
            let strides = ts_tensor::contiguous_strides(&shape);
            TensorPayload {
                storage_id,
                device: if gpu == 0 {
                    DeviceId::Cpu
                } else {
                    DeviceId::Gpu(gpu)
                },
                dtype: DType::U8,
                shape,
                strides,
                offset: offset as usize,
                // exercise both in-process and cross-process payloads
                shm: if storage_id % 2 == 0 {
                    Some(ts_shm::ShmHandle {
                        slot: gpu as u32,
                        generation: storage_id as u32 | 1,
                        len: offset as u64,
                    })
                } else {
                    None
                },
            }
        })
}

proptest! {
    #[test]
    fn ctrl_messages_roundtrip(id in any::<u64>(), bs in any::<u32>(), seq in any::<u64>(), tag in 0u8..5, stream in any::<bool>()) {
        let msg = match tag {
            0 => CtrlMsg::Join {
                consumer_id: id,
                batch_size: bs,
                mode: if stream { PayloadMode::Stream } else { PayloadMode::Shm },
            },
            1 => CtrlMsg::Ready { consumer_id: id },
            2 => CtrlMsg::Ack { consumer_id: id, seq },
            3 => CtrlMsg::Heartbeat { consumer_id: id },
            _ => CtrlMsg::Leave { consumer_id: id },
        };
        prop_assert_eq!(CtrlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn batch_announces_roundtrip(
        seq in any::<u64>(),
        epoch in any::<u64>(),
        idx in any::<u64>(),
        last in any::<bool>(),
        fields in prop::collection::vec(arb_payload(), 1..4),
        labels in arb_payload(),
        flex in any::<bool>(),
    ) {
        let content = if flex {
            AnnounceContent::Flex {
                batches: vec![FlexBatchPayload {
                    fields: fields.iter().map(|f| vec![f.clone()]).collect(),
                    labels: vec![labels.clone()],
                }],
            }
        } else {
            AnnounceContent::Shared { fields, labels }
        };
        let msg = DataMsg::Batch(BatchAnnounce { seq, epoch, index_in_epoch: idx, last_in_epoch: last, content });
        prop_assert_eq!(DataMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn join_replies_roundtrip(id in any::<u64>(), a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(), tag in 0u8..3, reason in ".{0,40}") {
        let decision = match tag {
            0 => JoinDecision::AdmitReplay { epoch: a, replay_from: b, num_batches: c, start_seq: d },
            1 => JoinDecision::WaitEpoch { epoch: a },
            _ => JoinDecision::Reject { reason },
        };
        let msg = DataMsg::JoinReply { consumer_id: id, decision };
        prop_assert_eq!(DataMsg::decode(&msg.encode()).unwrap(), msg);
    }

    /// Every field of every control message is required, whatever the
    /// values: a frame round-trips, and no strict prefix of it decodes.
    #[test]
    fn ctrl_frames_reject_every_strict_prefix(
        id in any::<u64>(),
        a in any::<u32>(),
        b in any::<u32>(),
        seq in any::<u64>(),
        tag in 0u8..9,
        group in ".{0,24}",
    ) {
        let msg = match tag {
            0 => CtrlMsg::Join {
                consumer_id: id,
                batch_size: a,
                mode: if b % 2 == 0 { PayloadMode::Stream } else { PayloadMode::Shm },
            },
            1 => CtrlMsg::Ready { consumer_id: id },
            2 => CtrlMsg::Ack { consumer_id: id, seq },
            3 => CtrlMsg::Heartbeat { consumer_id: id },
            4 => CtrlMsg::Leave { consumer_id: id },
            5 => CtrlMsg::Hello { token: id, version: a, caps: b },
            6 => CtrlMsg::StatsRequest { token: id, version: a, seq: seq as u32 },
            7 => CtrlMsg::TraceRequest { token: id, version: a, seq: seq as u32, max: b },
            _ => CtrlMsg::Replay {
                consumer_id: id,
                group,
                from: match b % 3 {
                    0 => ReplayFrom::Cursor,
                    1 => ReplayFrom::Oldest,
                    _ => ReplayFrom::Seq(seq),
                },
            },
        };
        let wire = msg.encode();
        prop_assert_eq!(CtrlMsg::decode(&wire).unwrap(), msg);
        for len in 0..wire.len() {
            prop_assert!(CtrlMsg::decode(&wire[..len]).is_err(), "{}-byte prefix decoded", len);
        }
    }

    /// Arbitrary byte soup never panics the decoders.
    #[test]
    fn decoders_tolerate_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = CtrlMsg::decode(&bytes);
        let _ = DataMsg::decode(&bytes);
        let _ = TensorPayload::decode(&bytes);
    }
}

// ---------------------------------------------------------------------------
// tensor payload round trips
// ---------------------------------------------------------------------------

proptest! {
    /// pack → registry → unpack reproduces any narrow view bit-exactly.
    #[test]
    fn payload_pack_unpack_views(
        rows in 1usize..32,
        cols in 1usize..32,
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let t = Tensor::rand_u8(&[rows, cols], DeviceId::Gpu(0), 99);
        let start = ((rows - 1) as f64 * start_frac) as usize;
        let len = 1 + ((rows - start - 1) as f64 * len_frac) as usize;
        let view = t.narrow(0, start, len).unwrap();
        let reg = SharedRegistry::new();
        reg.register(t.storage());
        let payload = TensorPayload::pack(&view);
        let decoded = TensorPayload::decode(&payload.encode()).unwrap();
        let rebuilt = decoded.unpack(&reg).unwrap();
        prop_assert!(rebuilt.data_eq(&view));
        prop_assert_eq!(rebuilt.storage_id(), t.storage_id());
    }
}

// ---------------------------------------------------------------------------
// dependent sampling (Joader)
// ---------------------------------------------------------------------------

proptest! {
    /// For aligned jobs the sampler loads each sample exactly once and
    /// delivers it to every job; per-job visit sets are exact permutations.
    #[test]
    fn dependent_sampler_exactness(len in 1usize..64, jobs in 1usize..5, seed in any::<u64>()) {
        let mut s = DependentSampler::new(len, seed);
        let ids: Vec<u64> = (0..jobs).map(|_| s.add_job()).collect();
        let mut per_job: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        while let Some(d) = s.next() {
            for j in &d.jobs {
                per_job.entry(*j).or_default().push(d.sample);
            }
        }
        prop_assert_eq!(s.loads(), len as u64);
        for id in ids {
            let mut visited = per_job.remove(&id).unwrap_or_default();
            visited.sort_unstable();
            prop_assert_eq!(visited, (0..len).collect::<Vec<_>>());
        }
        prop_assert!((s.sharing_factor() - jobs as f64).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// heartbeat monitor
// ---------------------------------------------------------------------------

proptest! {
    /// A consumer expires exactly once, only after silence longer than the
    /// timeout, and never while it keeps beating.
    #[test]
    fn heartbeat_expiry_is_correct_and_single(
        timeout in 1u64..1000,
        beats in prop::collection::vec((0u64..8, 0u64..10_000), 1..100)
    ) {
        use tensorsocket::HeartbeatMonitor;
        let mut hb = HeartbeatMonitor::new(timeout);
        let mut beats = beats;
        beats.sort_by_key(|&(_, t)| t);
        let mut last_seen: std::collections::HashMap<u64, u64> = Default::default();
        let mut expired: std::collections::HashSet<u64> = Default::default();
        let mut now = 0;
        for (id, t) in beats {
            now = t;
            // expiries the monitor reports at `now`
            for dead in hb.expire(now) {
                let silent_for = now - last_seen[&dead];
                prop_assert!(silent_for > timeout, "expired after only {silent_for}");
                prop_assert!(expired.insert(dead), "double expiry of {dead}");
            }
            if !expired.contains(&id) {
                hb.beat(id, now);
                last_seen.insert(id, now);
            }
        }
        // everyone still tracked is fresh within the timeout at `now`
        for (&id, &seen) in &last_seen {
            if !expired.contains(&id) && now.saturating_sub(seen) <= timeout {
                prop_assert!(hb.is_alive(id, now));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// rubberband policy
// ---------------------------------------------------------------------------

proptest! {
    /// Admission is monotone: if a join at progress p is deferred, any
    /// later join is deferred too; the pinned prefix always covers every
    /// admitted join.
    #[test]
    fn rubberband_admission_monotone(cutoff in 0.0f64..1.0, batches in 1u64..10_000) {
        use tensorsocket::protocol::rubberband::{JoinOutcome, RubberbandPolicy};
        let p = RubberbandPolicy { cutoff };
        let pinned = p.pinned_batches(batches);
        prop_assert!(pinned <= batches.max(1));
        let mut seen_wait = false;
        for published in 0..=batches.min(200) {
            match p.decide(published, batches) {
                JoinOutcome::AdmitReplay { replay_from } => {
                    prop_assert!(!seen_wait, "admit after wait at {published}");
                    prop_assert_eq!(replay_from, 0);
                    // everything the joiner must replay is pinned
                    prop_assert!(published <= pinned || published == 0);
                }
                JoinOutcome::WaitNextEpoch => {
                    seen_wait = true;
                }
            }
        }
    }

    /// The exact window boundary: a join arriving when `published ==
    /// pinned_batches` is the *last* one admitted — one batch later is
    /// deferred to the next epoch.
    #[test]
    fn rubberband_boundary_is_inclusive(cutoff in 0.0001f64..1.0, batches in 1u64..10_000) {
        use tensorsocket::protocol::rubberband::{JoinOutcome, RubberbandPolicy};
        let p = RubberbandPolicy { cutoff };
        let pinned = p.pinned_batches(batches);
        prop_assert!(pinned >= 1, "positive cutoff pins at least one batch");
        prop_assert_eq!(
            p.decide(pinned, batches),
            JoinOutcome::AdmitReplay { replay_from: 0 },
            "join at the boundary (published == pinned == {}) must be admitted", pinned
        );
        if pinned < batches {
            prop_assert_eq!(
                p.decide(pinned + 1, batches),
                JoinOutcome::WaitNextEpoch,
                "one past the boundary must wait"
            );
        }
    }

    /// Cutoffs at or above 1.0 keep the join window open for the whole
    /// epoch: every mid-epoch join is admitted with a full replay, and the
    /// pin set covers the entire epoch.
    #[test]
    fn rubberband_cutoff_at_least_one_admits_all_epoch(
        cutoff in 1.0f64..4.0,
        batches in 1u64..10_000,
        published_frac in 0.0f64..1.0,
    ) {
        use tensorsocket::protocol::rubberband::{JoinOutcome, RubberbandPolicy};
        let p = RubberbandPolicy { cutoff };
        prop_assert!(p.pinned_batches(batches) >= batches, "whole epoch stays pinned");
        let published = ((batches as f64) * published_frac) as u64;
        prop_assert_eq!(
            p.decide(published, batches),
            JoinOutcome::AdmitReplay { replay_from: 0 },
            "cutoff {} must admit a join at {}/{} batches", cutoff, published, batches
        );
        // ...including one arriving exactly at the last published batch.
        prop_assert_eq!(
            p.decide(batches, batches),
            JoinOutcome::AdmitReplay { replay_from: 0 }
        );
    }
}

// ---------------------------------------------------------------------------
// ack tracker release-exactly-once
// ---------------------------------------------------------------------------

proptest! {
    /// Every batch is released exactly once, regardless of the ack/detach
    /// interleaving, and only after every surviving consumer acked it.
    #[test]
    fn ack_tracker_releases_exactly_once(
        consumers in 1usize..5,
        batches in 1u64..20,
        script in prop::collection::vec((0usize..5usize, 0u64..20u64, prop::bool::ANY), 0..300)
    ) {
        use tensorsocket::AckTracker;
        let mut t = AckTracker::new();
        for seq in 0..batches {
            t.published(seq, (0..consumers as u64).collect::<Vec<_>>());
        }
        let mut released: std::collections::HashSet<u64> = Default::default();
        let mut detached: std::collections::HashSet<u64> = Default::default();
        for (c, seq, detach) in script {
            let c = (c % consumers) as u64;
            if detach && !detached.contains(&c) {
                detached.insert(c);
                for seq in t.remove_consumer(c) {
                    prop_assert!(released.insert(seq), "double release of {seq}");
                }
            } else if !detached.contains(&c) {
                let seq = seq % batches;
                if t.on_ack(c, seq) {
                    prop_assert!(released.insert(seq), "double release of {seq}");
                }
            }
        }
        // finish everything: detach all remaining consumers
        for c in 0..consumers as u64 {
            if !detached.contains(&c) {
                for seq in t.remove_consumer(c) {
                    prop_assert!(released.insert(seq), "double release of {seq}");
                }
            }
        }
        prop_assert_eq!(released.len() as u64, batches, "all batches released");
        prop_assert!(t.is_empty());
    }
}

// ---------------------------------------------------------------------------
// shard partitioning (multi-producer sharding)
// ---------------------------------------------------------------------------

proptest! {
    /// For shard counts {1, 2, 3, 5}: the union of the shards' partitions
    /// is exactly the unsharded epoch permutation — no duplicates, no
    /// drops — including uneven `len % shards != 0` tails, and every
    /// shard's slice is balanced to within one sample.
    #[test]
    fn shard_partitions_are_a_permutation(len in 1usize..200, seed in any::<u64>(), epoch in 0u64..5) {
        use std::sync::Arc;
        use ts_data::{Sampler, ShardedSampler, ShuffleSampler};
        let inner: Arc<dyn Sampler> = Arc::new(ShuffleSampler { seed });
        let full = inner.epoch_indices(epoch, len);
        for count in [1usize, 2, 3, 5] {
            let mut union: Vec<usize> = Vec::new();
            for shard in 0..count {
                let s = ShardedSampler { inner: inner.clone(), shard, count };
                let part = s.epoch_indices(epoch, len);
                prop_assert!(
                    part.len() >= len / count && part.len() <= len / count + 1,
                    "unbalanced shard {shard}/{count}: {} of {len}", part.len()
                );
                union.extend(part);
            }
            // Concatenation reproduces the full permutation exactly: the
            // shards are disjoint AND complete.
            prop_assert_eq!(&union, &full, "count {}", count);
        }
    }

    /// Sharding commutes with determinism: the same (seed, epoch, shard)
    /// always yields the same slice, and shard 0 of 1 IS the permutation.
    #[test]
    fn shard_slices_are_deterministic(len in 1usize..100, seed in any::<u64>()) {
        use std::sync::Arc;
        use ts_data::{Sampler, ShardedSampler, ShuffleSampler};
        let inner: Arc<dyn Sampler> = Arc::new(ShuffleSampler { seed });
        let one = ShardedSampler { inner: inner.clone(), shard: 0, count: 1 };
        prop_assert_eq!(one.epoch_indices(2, len), inner.epoch_indices(2, len));
        let s = ShardedSampler { inner: inner.clone(), shard: 1, count: 3 };
        prop_assert_eq!(s.epoch_indices(4, len), s.epoch_indices(4, len));
    }
}

// ---------------------------------------------------------------------------
// the (epoch, shard, seq) interleave
// ---------------------------------------------------------------------------

proptest! {
    /// Driving a ShardInterleave over shards with arbitrary (uneven)
    /// per-epoch batch counts delivers every announcement exactly once,
    /// in exactly the (epoch, index, shard) sort order — the contract
    /// that makes a sharded group's merged stream bit-stable.
    #[test]
    fn shard_interleave_is_the_sorted_order(
        counts in prop::collection::vec(1u64..6, 1..5),
        epochs in 1u64..4,
    ) {
        use tensorsocket::ShardInterleave;
        let mut il = ShardInterleave::new(vec![(0, 0); counts.len()]);
        let mut delivered: Vec<(u64, u64, usize)> = Vec::new();
        while let Some(s) = il.next_shard() {
            let (epoch, index) = il.cursor(s).unwrap();
            if epoch == epochs {
                il.end_shard(s);
                continue;
            }
            delivered.push((epoch, index, s));
            il.advance(s, index + 1 == counts[s]);
        }
        prop_assert!(il.all_ended());
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&delivered, &sorted, "delivery must be the (epoch, index, shard) sort");
        prop_assert_eq!(delivered.len() as u64, epochs * counts.iter().sum::<u64>());
        // exactly once: sorted order has no duplicates
        let mut dedup = sorted.clone();
        dedup.dedup();
        prop_assert_eq!(sorted.len(), dedup.len());
    }

    /// Mid-epoch starts (a rubberband joiner's per-shard replay_from
    /// positions) still produce the sorted order over what remains.
    #[test]
    fn shard_interleave_mid_epoch_starts(
        starts in prop::collection::vec(0u64..4, 1..5),
        count in 4u64..8,
    ) {
        use tensorsocket::ShardInterleave;
        let cursors: Vec<(u64, u64)> = starts.iter().map(|&i| (0u64, i)).collect();
        let mut il = ShardInterleave::new(cursors);
        let mut delivered: Vec<(u64, u64, usize)> = Vec::new();
        while let Some(s) = il.next_shard() {
            let (epoch, index) = il.cursor(s).unwrap();
            if epoch == 1 {
                il.end_shard(s);
                continue;
            }
            delivered.push((epoch, index, s));
            il.advance(s, index + 1 == count);
        }
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&delivered, &sorted);
        let expected: u64 = starts.iter().map(|&i| count - i).sum();
        prop_assert_eq!(delivered.len() as u64, expected);
    }
}

// ---------------------------------------------------------------------------
// coordinated rubberband admission (epoch coordinator)
// ---------------------------------------------------------------------------

proptest! {
    /// Group join decisions are consistent: every shard asking about the
    /// same consumer gets the same answer, an admission keeps every
    /// shard's pin window open until that shard applies it (even if the
    /// shard races past its own pin limit), and the epoch barrier does
    /// not open while an admission is unapplied.
    #[test]
    fn coordinator_admissions_are_consistent_and_pin_preserving(
        shards in 2usize..5,
        pin_limit in 1u64..6,
        progress in prop::collection::vec(0u64..8, 2..5),
    ) {
        use std::time::Duration;
        use tensorsocket::{EpochCoordinator, GroupJoin};
        let shards = shards.min(progress.len());
        let c = EpochCoordinator::new(shards, Duration::from_secs(5));
        let gen = (0..shards)
            .map(|s| c.arrive(s as u32, 0, pin_limit))
            .collect::<Vec<_>>()[0];
        prop_assert!(c.reached(gen));
        for (s, &p) in progress.iter().take(shards).enumerate() {
            c.note_published(s as u32, p);
        }
        let all_within = progress.iter().take(shards).all(|&p| p <= pin_limit);
        let first = c.decide_join(42, false).0;
        // Consistency: every further query (any shard) returns the memo.
        for _ in 0..shards {
            prop_assert_eq!(c.decide_join(42, false).0, first);
        }
        match first {
            GroupJoin::AdmitReplay => {
                prop_assert!(all_within, "admitted although a shard passed its pin window");
                // Every shard must keep pinning until it applies the
                // admission — even one that races past its own limit now.
                c.note_published(0, pin_limit + 3);
                prop_assert!(c.pin_window_open(0), "unapplied admission must keep pins");
                // The next barrier stays shut until everyone applied.
                let gen2 = (0..shards)
                    .map(|s| c.arrive(s as u32, 1, pin_limit))
                    .collect::<Vec<_>>()[0];
                prop_assert!(!c.reached(gen2), "barrier must wait for unapplied admissions");
                for s in 0..shards {
                    c.applied(s as u32, 42);
                }
                prop_assert!(c.reached(gen2), "barrier opens once applied everywhere");
            }
            GroupJoin::WaitNextEpoch => {
                prop_assert!(!all_within, "deferred although every shard was within its window");
            }
            GroupJoin::AdmitAtCurrent => prop_assert!(false, "no no-consumer hint was given"),
        }
    }

    /// Once any shard arrives at the next epoch's barrier, new joins are
    /// deferred — pins survive the boundary for *previously decided*
    /// admissions only, so no shard ever admits into an epoch another
    /// shard has already finished.
    #[test]
    fn coordinator_defers_joins_across_the_boundary(
        shards in 2usize..5,
        pin_limit in 1u64..6,
    ) {
        use std::time::Duration;
        use tensorsocket::{EpochCoordinator, GroupJoin};
        let c = EpochCoordinator::new(shards, Duration::from_secs(5));
        let gen = (0..shards)
            .map(|s| c.arrive(s as u32, 0, pin_limit))
            .collect::<Vec<_>>()[0];
        prop_assert!(c.reached(gen));
        for s in 0..shards {
            c.note_published(s as u32, 1);
        }
        // Shard 0 finishes the epoch and arrives for the next one.
        let _ = c.arrive(0, 1, pin_limit);
        prop_assert_eq!(c.decide_join(7, false).0, GroupJoin::WaitNextEpoch);
        // Memo holds for everyone else too.
        prop_assert_eq!(c.decide_join(7, true).0, GroupJoin::WaitNextEpoch);
    }
}

// ---------------------------------------------------------------------------
// dependent sampler with staggered joins
// ---------------------------------------------------------------------------

proptest! {
    /// With a job joining mid-epoch, every job still visits every sample
    /// exactly once, and total loads never exceed the naive per-job sum.
    #[test]
    fn dependent_sampler_staggered_join(len in 2usize..48, head_start in 0usize..48, seed in any::<u64>()) {
        let head_start = head_start.min(len);
        let mut s = DependentSampler::new(len, seed);
        let a = s.add_job();
        for _ in 0..head_start {
            s.next();
        }
        let b = s.add_job();
        let mut visits: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        while let Some(d) = s.next() {
            for j in d.jobs {
                visits.entry(j).or_default().push(d.sample);
            }
        }
        // job a already visited head_start samples before we tracked
        let a_remaining = visits.remove(&a).unwrap_or_default();
        prop_assert_eq!(a_remaining.len(), len - head_start);
        let mut b_all = visits.remove(&b).unwrap_or_default();
        b_all.sort_unstable();
        b_all.dedup();
        prop_assert_eq!(b_all.len(), len, "job b visits everything exactly once");
        // sharing saves loads: loads <= 2*len - shared overlap
        prop_assert!(s.loads() <= (2 * len) as u64);
        prop_assert!(s.loads() >= len as u64);
    }
}
