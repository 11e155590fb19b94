//! Wire messages and their binary codec.
//!
//! Two channels, as in the paper (§3.2.3):
//!
//! * **data** (PUB → SUB): [`DataMsg`] — epoch markers, batch announcements
//!   carrying [`ts_tensor::TensorPayload`]s (pointers, not data), join
//!   replies and detach notices;
//! * **control** (PUSH → PULL): [`CtrlMsg`] — joins, readiness, acks,
//!   heartbeats and leaves from consumers.
//!
//! The codec is a hand-rolled little-endian format: fixed header tag byte,
//! length-prefixed repeated sections. No serde — messages are small and the
//! layout is part of the reproduction (payload size must not scale with
//! batch size).

use crate::{Result, TsError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ts_tensor::TensorPayload;

/// Topic names used on the data socket.
pub mod topics {
    /// Shared batch announcements (default mode).
    pub const BATCH: &[u8] = b"batch";
    /// Broadcast control notices (epoch start, end, detach).
    pub const CTRL: &[u8] = b"ctrl";
    /// Coalesced publish-cursor announcements ([`super::DataMsg::Cursor`]):
    /// latest-wins *state*, re-broadcast at a bounded cadence rather than
    /// per event. A consumer that subscribes sees where each shard's
    /// stream currently stands; it is never guaranteed to see (and after
    /// a stall will provably *not* see) the intermediate cursors.
    pub const CURSOR: &[u8] = b"cur";

    /// Per-consumer topic (join replies, replays, flexible-mode batches).
    pub fn consumer(id: u64) -> Vec<u8> {
        format!("cons/{id}").into_bytes()
    }

    /// Per-handshake topic ([`super::DataMsg::Welcome`] replies to a
    /// [`super::CtrlMsg::Hello`], keyed by the caller's one-shot token).
    pub fn hello(token: u64) -> Vec<u8> {
        format!("hs/{token}").into_bytes()
    }

    /// Per-scrape topic ([`super::DataMsg::Stats`] replies to a
    /// [`super::CtrlMsg::StatsRequest`], keyed by the caller's one-shot
    /// token — same stateless pattern as the attach handshake).
    pub fn stats(token: u64) -> Vec<u8> {
        format!("st/{token}").into_bytes()
    }

    /// Per-scrape topic ([`super::DataMsg::Trace`] replies to a
    /// [`super::CtrlMsg::TraceRequest`], keyed by the caller's one-shot
    /// token — the flight-recorder sibling of [`stats`]).
    pub fn trace(token: u64) -> Vec<u8> {
        format!("tr/{token}").into_bytes()
    }
}

/// Version of the HELLO/WELCOME attach handshake. Every peer speaks
/// exactly this version: a consumer sends it in [`CtrlMsg::Hello`], the
/// producer answers with its own in [`WelcomeInfo::version`], and the
/// *consumer* refuses any mismatch with a typed
/// [`crate::HandshakeError::Version`] — never a silent misparse. Every
/// field of every handshake message is required; a frame cut short
/// anywhere is a wire error.
pub const HANDSHAKE_VERSION: u32 = 3;

/// `Hello` capability bits: what the consumer can do, declared before it
/// knows anything about the producer. Unknown bits are ignored and
/// counted (`producer.hello_unknown_caps`), never an error — the
/// consumer gets what the WELCOME grants.
pub mod caps {
    /// The consumer can map a shared-memory arena on this host.
    pub const SHM: u32 = 1 << 0;
    /// The consumer can receive length-prefixed streamed payload bytes
    /// over the data socket (the remote-host path).
    pub const STREAM: u32 = 1 << 1;
    /// Every capability bit this build understands.
    pub const KNOWN: u32 = SHM | STREAM;
}

/// How batch payload bytes reach one consumer — negotiated **per
/// consumer** at attach time, not fixed at build time.
/// A consumer that proves it can open the advertised arena gets
/// pointer-passing; one that cannot (a remote host) gets its batches
/// streamed as length-prefixed bytes on its private topic, behind the
/// same [`DataMsg::Batch`] contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PayloadMode {
    /// Shm pointer-passing: a tiny announce carrying arena placements.
    #[default]
    Shm,
    /// Length-prefixed byte streaming over the data socket.
    Stream,
}

impl PayloadMode {
    /// The one-byte encoding used in the `Join`.
    pub fn wire_code(self) -> u8 {
        match self {
            PayloadMode::Shm => 0,
            PayloadMode::Stream => 1,
        }
    }

    /// Decodes a payload-mode byte (unknown codes map to `None`).
    pub fn from_wire_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(PayloadMode::Shm),
            1 => Some(PayloadMode::Stream),
            _ => None,
        }
    }

    /// The [`caps`] bit (and WELCOME grant bit) for this mode.
    pub fn cap_bit(self) -> u32 {
        match self {
            PayloadMode::Shm => caps::SHM,
            PayloadMode::Stream => caps::STREAM,
        }
    }
}

/// Version of the stats-scrape exchange ([`CtrlMsg::StatsRequest`] /
/// [`DataMsg::Stats`]). The scraper sends its version and the producer
/// echoes its own in [`StatsPayload::version`]; like the attach
/// handshake, the *client* refuses a mismatch
/// ([`crate::scrape_stats`] fails with [`TsError::Wire`]). Both sides
/// carry a
/// per-attempt stamp: the scraper stamps every (re-)send of a request,
/// the producer echoes it, and the scraper drops replies whose stamp is
/// not the one currently in flight — a duplicate answer to a resent
/// round cannot masquerade as the *next* round's snapshot. Every field,
/// the trailing uptime / snapshot stamp / watchdog verdict included, is
/// required.
pub const STATS_VERSION: u32 = 3;

/// Version of the flight-recorder scrape exchange
/// ([`CtrlMsg::TraceRequest`] / [`DataMsg::Trace`]). Same
/// client-refuses contract as [`STATS_VERSION`].
pub const TRACE_VERSION: u32 = 1;

/// The shared-memory arena advertisement inside a [`WelcomeInfo`]: the
/// backing file path plus slot geometry, so a consumer process maps the
/// producer's arena with zero out-of-band configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaAd {
    /// Path of the arena's backing file on the shared host.
    pub path: String,
    /// Number of slots.
    pub nslots: u64,
    /// Capacity of each slot in bytes.
    pub slot_size: u64,
}

/// The durable batch log advertisement inside a [`WelcomeInfo`]: the
/// producer keeps an on-disk log of published batches and can serve
/// [`CtrlMsg::Replay`] requests over the retained sequence range. The
/// range is a snapshot taken when the WELCOME was built — retention and
/// appends move it — so consumers treat it as a hint; the authoritative
/// replay start arrives in [`DataMsg::LogInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogAd {
    /// Oldest retained global sequence number at WELCOME time.
    pub retained_min: u64,
    /// Newest retained global sequence number at WELCOME time.
    pub retained_max: u64,
}

/// Where a [`CtrlMsg::Replay`] wants its log-backed stream to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayFrom {
    /// The group's persisted cursor — the batch after the last one any
    /// member of the group acknowledged; the oldest retained record when
    /// the group has no cursor yet. This is the crash-restart resume
    /// point.
    #[default]
    Cursor,
    /// The oldest retained record, regardless of any cursor.
    Oldest,
    /// An explicit global sequence number (clamped to the retained
    /// range by the producer).
    Seq(u64),
}

/// Everything a consumer learns from the attach handshake: the producer
/// answers a [`CtrlMsg::Hello`] with this self-description, and the
/// consumer derives all remaining configuration from it — shard count
/// (and with the base endpoint, every shard's data/ctrl endpoint via
/// `ts_socket::EndpointMap`), the arena placement, and the batch schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WelcomeInfo {
    /// The producer's handshake version ([`HANDSHAKE_VERSION`]).
    pub version: u32,
    /// Shard pipelines in the topology (1 for a plain producer).
    pub shards: u32,
    /// Loader batch size (samples per announcement in default mode).
    pub batch_size: u32,
    /// Producer batch size under flexible sizing; 0 in default mode.
    pub flex_producer_batch: u32,
    /// Device staging mode (0 off / 1 serial / 2 overlapped);
    /// informational.
    pub staging: u8,
    /// The shared-memory arena, when one backs the payload path.
    pub arena: Option<ArenaAd>,
    /// Sparse `(shard, base URI)` endpoint overrides: shards whose base
    /// endpoint is *not* derived from the base URI by scheme rules — e.g.
    /// a shard pipeline on another host.
    pub endpoint_overrides: Vec<(u32, String)>,
    /// Bitmask ([`caps`] bits) of payload modes the producer can serve
    /// this consumer.
    pub payload_modes: u32,
    /// The durable batch log, when the producer keeps one. `None` from
    /// producers running without a (healthy) log. A logging producer that has not retained anything
    /// yet advertises the *inverted* range `retained_min > retained_max`
    /// (canonically `{1, 0}`) — "log enabled, nothing stored" — so group
    /// consumers still send [`CtrlMsg::Replay`] and register their
    /// cursors from the very first batch.
    pub log: Option<LogAd>,
}

/// Messages consumers push to the producer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Request to join with the desired consumer batch size.
    Join {
        /// Self-assigned consumer id (random u64).
        consumer_id: u64,
        /// Desired batch size (only meaningful under flexible sizing).
        batch_size: u32,
        /// The payload mode this consumer selected after the handshake.
        mode: PayloadMode,
    },
    /// The consumer subscribed to the batch topic and is ready to receive.
    Ready {
        /// Consumer id.
        consumer_id: u64,
    },
    /// The consumer finished batch `seq` (global sequence number).
    Ack {
        /// Consumer id.
        consumer_id: u64,
        /// Global batch sequence number.
        seq: u64,
    },
    /// Liveness signal.
    Heartbeat {
        /// Consumer id.
        consumer_id: u64,
    },
    /// Clean departure.
    Leave {
        /// Consumer id.
        consumer_id: u64,
    },
    /// Attach handshake: "describe yourself". Sent to the *base* control
    /// endpoint before anything else; the producer answers with a
    /// [`DataMsg::Welcome`] on the [`topics::hello`] topic of `token`.
    /// Stateless on the producer side — a consumer that missed the reply
    /// (subscription still propagating on remote transports) simply
    /// retries with the same token.
    Hello {
        /// One-shot reply-routing token chosen by the caller (not a
        /// consumer id; the real join happens afterwards).
        token: u64,
        /// The caller's [`HANDSHAKE_VERSION`].
        version: u32,
        /// Capability bitfield ([`caps`]).
        caps: u32,
    },
    /// Observability scrape: "report your metrics". Stateless like
    /// [`CtrlMsg::Hello`] — answered with a [`DataMsg::Stats`] on the
    /// [`topics::stats`] topic of `token` from every producer wait loop;
    /// a scraper that missed the reply retries with the same token.
    StatsRequest {
        /// One-shot reply-routing token chosen by the scraper.
        token: u64,
        /// The scraper's [`STATS_VERSION`].
        version: u32,
        /// Per-attempt stamp: incremented on every resend of the same
        /// token, echoed in [`DataMsg::Stats::seq`] so stale duplicate
        /// replies are identifiable.
        seq: u32,
    },
    /// Flight-recorder scrape: "report your last completed batch
    /// timelines". Stateless like [`CtrlMsg::StatsRequest`] — answered
    /// with a [`DataMsg::Trace`] on the [`topics::trace`] topic of
    /// `token` from every producer wait loop.
    TraceRequest {
        /// One-shot reply-routing token chosen by the scraper.
        token: u64,
        /// The scraper's [`TRACE_VERSION`].
        version: u32,
        /// Per-attempt stamp, echoed in [`DataMsg::Trace::seq`] exactly
        /// like the stats exchange's.
        seq: u32,
        /// Most completed records the scraper wants (the producer may
        /// cap it further).
        max: u32,
    },
    /// Ask for a log-backed replay stream (tag 8). Sent
    /// after the Join/Ready exchange by a consumer whose WELCOME carried
    /// a [`LogAd`]. The producer registers `group`, resolves the actual
    /// start (cursor/oldest/explicit, clamped to the retained range and
    /// to the consumer's live-stream start), answers with a
    /// [`DataMsg::LogInfo`] on the consumer's private topic, then streams
    /// the log range as ordinary streamed-payload batch announcements.
    /// Stateless against duplicates: a re-sent `Replay` for a consumer
    /// whose stream is already running or done only re-sends the
    /// `LogInfo`.
    Replay {
        /// Consumer id (already joined).
        consumer_id: u64,
        /// Named consumer group whose persisted cursor scopes the replay
        /// and advances with this consumer's acks.
        group: String,
        /// Requested start position.
        from: ReplayFrom,
    },
    /// A control frame whose tag this build does not know. Produced only
    /// by [`CtrlMsg::decode`] for forward compatibility: a producer
    /// receiving a message from a newer peer logs-and-ignores it instead
    /// of failing with a wire error. (Truncated frames are still
    /// rejected.)
    Unknown {
        /// The unrecognized tag byte.
        tag: u8,
    },
}

/// The producer's decision on a join request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinDecision {
    /// Admitted into the running epoch; batches `replay_from..` of `epoch`
    /// will be (re)sent on the consumer's private topic (rubberbanding).
    AdmitReplay {
        /// Epoch being joined.
        epoch: u64,
        /// First epoch-batch index that will be replayed.
        replay_from: u64,
        /// Batches in this epoch.
        num_batches: u64,
        /// Global sequence number of the epoch's first batch; the consumer
        /// starts expecting this and deduplicates replays against live
        /// announcements with it.
        start_seq: u64,
    },
    /// Admission deferred to the start of `epoch`.
    WaitEpoch {
        /// Epoch at which the consumer will be admitted.
        epoch: u64,
    },
    /// Join rejected (e.g. batch-size mismatch in default mode).
    Reject {
        /// Human-readable reason.
        reason: String,
    },
}

/// One consumer batch under flexible sizing: per-field segment payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlexBatchPayload {
    /// For each tensor field, the segments composing this batch.
    pub fields: Vec<Vec<TensorPayload>>,
    /// Label segments.
    pub labels: Vec<TensorPayload>,
}

/// One tensor shipped as raw bytes (streamed payload mode): dtype,
/// shape, and the dense row-major bytes — everything a remote consumer
/// needs to rebuild the tensor without mapping the arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamedTensor {
    /// Element type.
    pub dtype: ts_tensor::DType,
    /// Dense row-major shape.
    pub shape: Vec<u64>,
    /// The tensor's bytes, length-prefixed on the wire.
    pub bytes: Bytes,
}

impl StreamedTensor {
    /// Captures `tensor` as dense row-major bytes for streaming.
    pub fn from_tensor(tensor: &ts_tensor::Tensor) -> Self {
        Self {
            dtype: tensor.dtype(),
            shape: tensor.shape().iter().map(|&d| d as u64).collect(),
            bytes: Bytes::from(tensor.gather_bytes()),
        }
    }

    /// Rebuilds the tensor on `device` (host memory; the consumer stages
    /// it onward exactly like an arena-unpacked tensor).
    pub fn to_tensor(&self, device: ts_device::DeviceId) -> Result<ts_tensor::Tensor> {
        let shape: Vec<usize> = self.shape.iter().map(|&d| d as usize).collect();
        ts_tensor::Tensor::from_bytes(self.bytes.to_vec(), self.dtype, &shape, device)
            .map_err(|e| TsError::Wire(format!("streamed tensor: {e}")))
    }
}

/// What a batch announcement carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnounceContent {
    /// Default mode: every consumer trains on the same tensors.
    Shared {
        /// Collated tensor fields.
        fields: Vec<TensorPayload>,
        /// Labels.
        labels: TensorPayload,
    },
    /// Flexible mode: this consumer's carved batches for one producer batch.
    Flex {
        /// The consumer batches, in visit order.
        batches: Vec<FlexBatchPayload>,
    },
    /// Streamed mode: the batch's bytes themselves, length-prefixed,
    /// for consumers that cannot map the arena (remote hosts). Sent on
    /// the consumer's private topic; rides the same [`DataMsg::Batch`]
    /// contract as the other kinds, so a future RDMA/ucx bulk transport
    /// can replace the byte transport without a handshake bump.
    Streamed {
        /// Collated tensor fields, as raw bytes.
        fields: Vec<StreamedTensor>,
        /// Labels, as raw bytes.
        labels: StreamedTensor,
    },
}

/// A batch announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAnnounce {
    /// Global (cross-epoch) sequence number; acks reference this.
    pub seq: u64,
    /// Epoch the batch belongs to.
    pub epoch: u64,
    /// Batch index within the epoch.
    pub index_in_epoch: u64,
    /// True for the epoch's final batch.
    pub last_in_epoch: bool,
    /// Payload content.
    pub content: AnnounceContent,
}

/// Messages the producer publishes on the data socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataMsg {
    /// A new epoch begins.
    EpochStart {
        /// Epoch number.
        epoch: u64,
        /// Batches the epoch will publish.
        num_batches: u64,
    },
    /// A batch announcement.
    Batch(BatchAnnounce),
    /// Reply to a join request (sent on the consumer's private topic).
    JoinReply {
        /// The consumer being answered.
        consumer_id: u64,
        /// The decision.
        decision: JoinDecision,
    },
    /// The producer detached a consumer (missed heartbeats).
    Detached {
        /// The detached consumer.
        consumer_id: u64,
    },
    /// All epochs complete; the producer is shutting down.
    End,
    /// Reply to a [`CtrlMsg::Hello`], published on the hello token's
    /// topic: the producer's self-description, from which a consumer
    /// derives every attach parameter (see [`WelcomeInfo`]).
    Welcome {
        /// The hello token being answered.
        token: u64,
        /// The topology self-description.
        info: WelcomeInfo,
    },
    /// Reply to a [`CtrlMsg::StatsRequest`], published on the stats
    /// token's topic: a wire-encoded snapshot of the producer's metrics
    /// registry, histogram buckets included.
    Stats {
        /// The stats token being answered.
        token: u64,
        /// Echo of the request's per-attempt stamp
        /// ([`CtrlMsg::StatsRequest::seq`]). The scraper only accepts the
        /// stamp it currently has in flight, so a duplicate answer to a resent round cannot be
        /// mistaken for a fresh snapshot.
        seq: u32,
        /// The metrics snapshot.
        payload: StatsPayload,
    },
    /// Coalesced publish-cursor announcement on [`topics::CURSOR`]:
    /// where shard `shard`'s stream currently stands. This is *state*,
    /// not an event — the producer collapses per-publish updates through
    /// a latest-wins cell ([`ts_socket::coalesce`]) and broadcasts at a
    /// bounded cadence, so a consumer waking from a stall reads one
    /// current cursor instead of a backlog. Consumers must not infer
    /// batch delivery from it; it only bounds how far behind they are.
    Cursor {
        /// The announcing shard.
        shard: u32,
        /// Epoch the cursor is in.
        epoch: u64,
        /// Global sequence number of the latest announcement published.
        seq: u64,
        /// Batch index within the epoch of that announcement.
        index_in_epoch: u64,
    },
    /// Reply to a [`CtrlMsg::TraceRequest`], published on the trace
    /// token's topic: the flight recorder's most recently completed
    /// batch records.
    Trace {
        /// The trace token being answered.
        token: u64,
        /// Echo of the request's per-attempt stamp (same duplicate
        /// protection as [`DataMsg::Stats::seq`]).
        seq: u32,
        /// The trace records.
        payload: TracePayload,
    },
    /// Reply to a [`CtrlMsg::Replay`] (tag 9), published
    /// on the consumer's private topic: the producer's binding decision
    /// on where the log-backed stream starts and where it hands over to
    /// the live stream. `start_seq` is the first replayed sequence
    /// number; `live_seq` is the consumer's live-stream start recorded
    /// at admission — the replay covers `start_seq..live_seq` and the
    /// live subscription covers `live_seq..`, so the spliced stream is
    /// gapless and duplicate-free by construction. When
    /// `start_seq == live_seq` there is nothing to replay (fresh group
    /// at the stream head).
    LogInfo {
        /// The consumer being answered.
        consumer_id: u64,
        /// First sequence number the log replay will send.
        start_seq: u64,
        /// Epoch of `start_seq` (cutover cursor for the interleave).
        start_epoch: u64,
        /// Index-in-epoch of `start_seq`.
        start_index: u64,
        /// First sequence number the *live* stream will deliver; the
        /// replay stops just before it.
        live_seq: u64,
        /// Oldest retained sequence number at reply time.
        retained_min: u64,
        /// Newest retained sequence number at reply time.
        retained_max: u64,
    },
    /// A data frame whose tag this build does not know. Produced only by
    /// [`DataMsg::decode`] for forward compatibility: a consumer
    /// receiving a frame from a newer producer logs-and-ignores it
    /// (counted as `consumer.data_unknown`) instead of wedging the
    /// stream. (Truncated frames are still rejected.)
    Unknown {
        /// The unrecognized tag byte.
        tag: u8,
    },
}

/// A wire-portable snapshot of a [`ts_metrics::Registry`]: every counter,
/// gauge and histogram, each list deterministically sorted by name.
///
/// Gauges travel as raw `f64` bit patterns (`gauge_bits`) so the message
/// stays byte-exact and `Eq`; [`StatsPayload::gauges`] decodes them back.
/// Histograms ship their sparse bucket lists, so the scraper can compute
/// any quantile (or merge shards) without the producer pre-aggregating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsPayload {
    /// The producer's [`STATS_VERSION`].
    pub version: u32,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values as `f64::to_bits`, sorted by name.
    pub gauge_bits: Vec<(String, u64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<(String, ts_metrics::HistogramSnapshot)>,
    /// Producer wall-clock uptime in nanoseconds at snapshot time. Lets `ts-top` show "up 4m12s" and
    /// distinguishes a freshly restarted producer from a long-lived one.
    pub uptime_ns: u64,
    /// Monotonic snapshot timestamp in nanoseconds, on the producer's
    /// flight-recorder clock. Two
    /// snapshots' counter deltas divided by their `snapshot_ns` delta
    /// give exact rates regardless of scrape jitter.
    pub snapshot_ns: u64,
    /// The stall watchdog's last verdict (empty when no stall has been
    /// detected).
    pub verdict: String,
}

impl StatsPayload {
    /// Captures `metrics` into a wire-portable payload stamped with this
    /// build's [`STATS_VERSION`].
    pub fn from_registry(metrics: &ts_metrics::Registry) -> Self {
        let snap = metrics.snapshot();
        Self {
            version: STATS_VERSION,
            counters: snap.counters,
            gauge_bits: snap
                .gauges
                .into_iter()
                .map(|(k, v)| (k, v.to_bits()))
                .collect(),
            histograms: snap.histograms,
            // Uptime, stamp and verdict are runtime state, not registry
            // state: the producer's reply path fills them in before
            // encoding.
            uptime_ns: 0,
            snapshot_ns: 0,
            verdict: String::new(),
        }
    }

    /// Gauge values decoded back to `f64`, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.gauge_bits
            .iter()
            .map(|(k, bits)| (k.clone(), f64::from_bits(*bits)))
            .collect()
    }

    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram snapshot by exact name.
    pub fn histogram(&self, name: &str) -> Option<&ts_metrics::HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }
}

/// A wire-portable batch of flight-recorder records — the reply to a
/// [`CtrlMsg::TraceRequest`]: the most recently completed per-batch span
/// timelines, newest first, plus the producer's recorder clock so a
/// scraper can place them relative to "now".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TracePayload {
    /// The producer's [`TRACE_VERSION`].
    pub version: u32,
    /// The producer's flight-recorder clock ([`ts_metrics::TraceRing::now_ns`])
    /// at reply time; every span offset in `records` is on this clock.
    pub now_ns: u64,
    /// Completed batch records, newest first.
    pub records: Vec<ts_metrics::TraceRecordSnap>,
}

// ---------------------------------------------------------------------------
// codec helpers
// ---------------------------------------------------------------------------

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>> {
    if buf.len() < 4 {
        return Err(TsError::Wire("truncated length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.len() < len {
        return Err(TsError::Wire("truncated bytes".into()));
    }
    let out = buf[..len].to_vec();
    buf.advance(len);
    Ok(out)
}

fn put_payload(buf: &mut BytesMut, p: &TensorPayload) {
    put_bytes(buf, &p.encode());
}

fn get_payload(buf: &mut &[u8]) -> Result<TensorPayload> {
    let raw = get_bytes(buf)?;
    TensorPayload::decode(&raw).map_err(|e| TsError::Wire(format!("payload: {e}")))
}

fn put_payload_vec(buf: &mut BytesMut, v: &[TensorPayload]) {
    buf.put_u32_le(v.len() as u32);
    for p in v {
        put_payload(buf, p);
    }
}

fn get_payload_vec(buf: &mut &[u8]) -> Result<Vec<TensorPayload>> {
    if buf.len() < 4 {
        return Err(TsError::Wire("truncated vec length".into()));
    }
    let n = buf.get_u32_le() as usize;
    if n > 1 << 20 {
        return Err(TsError::Wire("implausible vec length".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_payload(buf)?);
    }
    Ok(out)
}

fn need(buf: &[u8], n: usize) -> Result<()> {
    if buf.len() < n {
        return Err(TsError::Wire(format!("need {n} bytes, have {}", buf.len())));
    }
    Ok(())
}

fn put_streamed(buf: &mut BytesMut, t: &StreamedTensor) {
    buf.put_u8(t.dtype.tag());
    buf.put_u32_le(t.shape.len() as u32);
    for &d in &t.shape {
        buf.put_u64_le(d);
    }
    put_bytes(buf, &t.bytes);
}

fn get_streamed(buf: &mut &[u8]) -> Result<StreamedTensor> {
    need(buf, 5)?;
    let dtype = ts_tensor::DType::from_tag(buf.get_u8())
        .ok_or_else(|| TsError::Wire("bad streamed dtype tag".into()))?;
    let ndim = buf.get_u32_le() as usize;
    if ndim > 64 {
        return Err(TsError::Wire("implausible streamed rank".into()));
    }
    need(buf, ndim * 8)?;
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        shape.push(buf.get_u64_le());
    }
    let bytes = Bytes::from(get_bytes(buf)?);
    Ok(StreamedTensor {
        dtype,
        shape,
        bytes,
    })
}

// ---------------------------------------------------------------------------
// CtrlMsg codec
// ---------------------------------------------------------------------------

impl CtrlMsg {
    /// The consumer id carried by any control message (the one-shot reply
    /// token, for a [`CtrlMsg::Hello`] — not a real consumer id).
    pub fn consumer_id(&self) -> u64 {
        match self {
            CtrlMsg::Join { consumer_id, .. }
            | CtrlMsg::Ready { consumer_id }
            | CtrlMsg::Ack { consumer_id, .. }
            | CtrlMsg::Heartbeat { consumer_id }
            | CtrlMsg::Leave { consumer_id }
            | CtrlMsg::Replay { consumer_id, .. } => *consumer_id,
            CtrlMsg::Hello { token, .. }
            | CtrlMsg::StatsRequest { token, .. }
            | CtrlMsg::TraceRequest { token, .. } => *token,
            CtrlMsg::Unknown { .. } => 0,
        }
    }

    /// Encodes to a single frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(24);
        match self {
            CtrlMsg::Join {
                consumer_id,
                batch_size,
                mode,
            } => {
                buf.put_u8(0);
                buf.put_u64_le(*consumer_id);
                buf.put_u32_le(*batch_size);
                buf.put_u8(mode.wire_code());
            }
            CtrlMsg::Ready { consumer_id } => {
                buf.put_u8(1);
                buf.put_u64_le(*consumer_id);
            }
            CtrlMsg::Ack { consumer_id, seq } => {
                buf.put_u8(2);
                buf.put_u64_le(*consumer_id);
                buf.put_u64_le(*seq);
            }
            CtrlMsg::Heartbeat { consumer_id } => {
                buf.put_u8(3);
                buf.put_u64_le(*consumer_id);
            }
            CtrlMsg::Leave { consumer_id } => {
                buf.put_u8(4);
                buf.put_u64_le(*consumer_id);
            }
            CtrlMsg::Hello {
                token,
                version,
                caps,
            } => {
                buf.put_u8(5);
                buf.put_u64_le(*token);
                buf.put_u32_le(*version);
                buf.put_u32_le(*caps);
            }
            CtrlMsg::StatsRequest {
                token,
                version,
                seq,
            } => {
                buf.put_u8(6);
                buf.put_u64_le(*token);
                buf.put_u32_le(*version);
                buf.put_u32_le(*seq);
            }
            CtrlMsg::TraceRequest {
                token,
                version,
                seq,
                max,
            } => {
                buf.put_u8(7);
                buf.put_u64_le(*token);
                buf.put_u32_le(*version);
                buf.put_u32_le(*seq);
                buf.put_u32_le(*max);
            }
            CtrlMsg::Replay {
                consumer_id,
                group,
                from,
            } => {
                buf.put_u8(8);
                buf.put_u64_le(*consumer_id);
                put_bytes(&mut buf, group.as_bytes());
                match from {
                    ReplayFrom::Cursor => buf.put_u8(0),
                    ReplayFrom::Oldest => buf.put_u8(1),
                    ReplayFrom::Seq(seq) => {
                        buf.put_u8(2);
                        buf.put_u64_le(*seq);
                    }
                }
            }
            CtrlMsg::Unknown { tag } => {
                // Only decode produces this variant; re-encoding keeps the
                // minimal well-formed shape (tag + zeroed u64).
                buf.put_u8(*tag);
                buf.put_u64_le(0);
            }
        }
        buf.freeze()
    }

    /// Decodes a frame.
    pub fn decode(mut buf: &[u8]) -> Result<Self> {
        need(buf, 9)?;
        let tag = buf.get_u8();
        let consumer_id = buf.get_u64_le();
        Ok(match tag {
            0 => {
                need(buf, 5)?;
                let batch_size = buf.get_u32_le();
                let code = buf.get_u8();
                let mode = PayloadMode::from_wire_code(code)
                    .ok_or_else(|| TsError::Wire(format!("bad payload mode {code}")))?;
                CtrlMsg::Join {
                    consumer_id,
                    batch_size,
                    mode,
                }
            }
            1 => CtrlMsg::Ready { consumer_id },
            2 => {
                need(buf, 8)?;
                CtrlMsg::Ack {
                    consumer_id,
                    seq: buf.get_u64_le(),
                }
            }
            3 => CtrlMsg::Heartbeat { consumer_id },
            4 => CtrlMsg::Leave { consumer_id },
            5 => {
                need(buf, 8)?;
                CtrlMsg::Hello {
                    token: consumer_id,
                    version: buf.get_u32_le(),
                    caps: buf.get_u32_le(),
                }
            }
            6 => {
                need(buf, 8)?;
                CtrlMsg::StatsRequest {
                    token: consumer_id,
                    version: buf.get_u32_le(),
                    seq: buf.get_u32_le(),
                }
            }
            7 => {
                need(buf, 12)?;
                CtrlMsg::TraceRequest {
                    token: consumer_id,
                    version: buf.get_u32_le(),
                    seq: buf.get_u32_le(),
                    max: buf.get_u32_le(),
                }
            }
            8 => {
                let group = String::from_utf8_lossy(&get_bytes(&mut buf)?).into_owned();
                need(buf, 1)?;
                let from = match buf.get_u8() {
                    0 => ReplayFrom::Cursor,
                    1 => ReplayFrom::Oldest,
                    2 => {
                        need(buf, 8)?;
                        ReplayFrom::Seq(buf.get_u64_le())
                    }
                    t => return Err(TsError::Wire(format!("bad replay-from tag {t}"))),
                };
                CtrlMsg::Replay {
                    consumer_id,
                    group,
                    from,
                }
            }
            // Forward compatibility: a well-formed frame (tag + at least
            // the u64 id every ctrl message starts with) whose tag we do
            // not know is surfaced as `Unknown`, never a hard error —
            // older producers must survive newer clients. Truncated
            // frames were already rejected by the `need(buf, 9)` above.
            t => CtrlMsg::Unknown { tag: t },
        })
    }
}

// ---------------------------------------------------------------------------
// DataMsg codec
// ---------------------------------------------------------------------------

impl DataMsg {
    /// Encodes to a single frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        match self {
            DataMsg::EpochStart { epoch, num_batches } => {
                buf.put_u8(0);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(*num_batches);
            }
            DataMsg::Batch(b) => {
                buf.put_u8(1);
                buf.put_u64_le(b.seq);
                buf.put_u64_le(b.epoch);
                buf.put_u64_le(b.index_in_epoch);
                buf.put_u8(b.last_in_epoch as u8);
                match &b.content {
                    AnnounceContent::Shared { fields, labels } => {
                        buf.put_u8(0);
                        put_payload_vec(&mut buf, fields);
                        put_payload(&mut buf, labels);
                    }
                    AnnounceContent::Flex { batches } => {
                        buf.put_u8(1);
                        buf.put_u32_le(batches.len() as u32);
                        for fb in batches {
                            buf.put_u32_le(fb.fields.len() as u32);
                            for segs in &fb.fields {
                                put_payload_vec(&mut buf, segs);
                            }
                            put_payload_vec(&mut buf, &fb.labels);
                        }
                    }
                    AnnounceContent::Streamed { fields, labels } => {
                        buf.put_u8(2);
                        buf.put_u32_le(fields.len() as u32);
                        for t in fields {
                            put_streamed(&mut buf, t);
                        }
                        put_streamed(&mut buf, labels);
                    }
                }
            }
            DataMsg::JoinReply {
                consumer_id,
                decision,
            } => {
                buf.put_u8(2);
                buf.put_u64_le(*consumer_id);
                match decision {
                    JoinDecision::AdmitReplay {
                        epoch,
                        replay_from,
                        num_batches,
                        start_seq,
                    } => {
                        buf.put_u8(0);
                        buf.put_u64_le(*epoch);
                        buf.put_u64_le(*replay_from);
                        buf.put_u64_le(*num_batches);
                        buf.put_u64_le(*start_seq);
                    }
                    JoinDecision::WaitEpoch { epoch } => {
                        buf.put_u8(1);
                        buf.put_u64_le(*epoch);
                    }
                    JoinDecision::Reject { reason } => {
                        buf.put_u8(2);
                        put_bytes(&mut buf, reason.as_bytes());
                    }
                }
            }
            DataMsg::Detached { consumer_id } => {
                buf.put_u8(3);
                buf.put_u64_le(*consumer_id);
            }
            DataMsg::End => {
                buf.put_u8(4);
            }
            DataMsg::Welcome { token, info } => {
                buf.put_u8(5);
                buf.put_u64_le(*token);
                buf.put_u32_le(info.version);
                buf.put_u32_le(info.shards);
                buf.put_u32_le(info.batch_size);
                buf.put_u32_le(info.flex_producer_batch);
                buf.put_u8(info.staging);
                match &info.arena {
                    None => buf.put_u8(0),
                    Some(ad) => {
                        buf.put_u8(1);
                        put_bytes(&mut buf, ad.path.as_bytes());
                        buf.put_u64_le(ad.nslots);
                        buf.put_u64_le(ad.slot_size);
                    }
                }
                buf.put_u32_le(info.endpoint_overrides.len() as u32);
                for (shard, uri) in &info.endpoint_overrides {
                    buf.put_u32_le(*shard);
                    put_bytes(&mut buf, uri.as_bytes());
                }
                buf.put_u32_le(info.payload_modes);
                match &info.log {
                    None => buf.put_u8(0),
                    Some(ad) => {
                        buf.put_u8(1);
                        buf.put_u64_le(ad.retained_min);
                        buf.put_u64_le(ad.retained_max);
                    }
                }
            }
            DataMsg::Stats {
                token,
                seq,
                payload,
            } => {
                buf.put_u8(6);
                buf.put_u64_le(*token);
                buf.put_u32_le(payload.version);
                buf.put_u32_le(*seq);
                buf.put_u32_le(payload.counters.len() as u32);
                for (name, v) in &payload.counters {
                    put_bytes(&mut buf, name.as_bytes());
                    buf.put_u64_le(*v);
                }
                buf.put_u32_le(payload.gauge_bits.len() as u32);
                for (name, bits) in &payload.gauge_bits {
                    put_bytes(&mut buf, name.as_bytes());
                    buf.put_u64_le(*bits);
                }
                buf.put_u32_le(payload.histograms.len() as u32);
                for (name, h) in &payload.histograms {
                    put_bytes(&mut buf, name.as_bytes());
                    buf.put_u64_le(h.count);
                    buf.put_u64_le(h.sum);
                    buf.put_u64_le(h.max);
                    buf.put_u32_le(h.buckets.len() as u32);
                    for &(idx, c) in &h.buckets {
                        buf.put_u32_le(idx);
                        buf.put_u64_le(c);
                    }
                }
                buf.put_u64_le(payload.uptime_ns);
                buf.put_u64_le(payload.snapshot_ns);
                put_bytes(&mut buf, payload.verdict.as_bytes());
            }
            DataMsg::Cursor {
                shard,
                epoch,
                seq,
                index_in_epoch,
            } => {
                buf.put_u8(7);
                buf.put_u32_le(*shard);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(*seq);
                buf.put_u64_le(*index_in_epoch);
            }
            DataMsg::Trace {
                token,
                seq,
                payload,
            } => {
                buf.put_u8(8);
                buf.put_u64_le(*token);
                buf.put_u32_le(payload.version);
                buf.put_u32_le(*seq);
                buf.put_u64_le(payload.now_ns);
                buf.put_u32_le(payload.records.len() as u32);
                for r in &payload.records {
                    buf.put_u64_le(r.epoch);
                    buf.put_u32_le(r.shard);
                    buf.put_u64_le(r.seq);
                    buf.put_u8(r.complete as u8);
                    buf.put_u8(r.spans.len() as u8);
                    for &(kind, start, end) in &r.spans {
                        buf.put_u8(kind);
                        buf.put_u64_le(start);
                        buf.put_u64_le(end);
                    }
                }
            }
            DataMsg::LogInfo {
                consumer_id,
                start_seq,
                start_epoch,
                start_index,
                live_seq,
                retained_min,
                retained_max,
            } => {
                buf.put_u8(9);
                buf.put_u64_le(*consumer_id);
                buf.put_u64_le(*start_seq);
                buf.put_u64_le(*start_epoch);
                buf.put_u64_le(*start_index);
                buf.put_u64_le(*live_seq);
                buf.put_u64_le(*retained_min);
                buf.put_u64_le(*retained_max);
            }
            DataMsg::Unknown { tag } => {
                // Only decode produces this variant; re-encoding keeps the
                // minimal well-formed shape (tag + zeroed u64).
                buf.put_u8(*tag);
                buf.put_u64_le(0);
            }
        }
        buf.freeze()
    }

    /// Decodes a frame.
    pub fn decode(mut buf: &[u8]) -> Result<Self> {
        need(buf, 1)?;
        let tag = buf.get_u8();
        Ok(match tag {
            0 => {
                need(buf, 16)?;
                DataMsg::EpochStart {
                    epoch: buf.get_u64_le(),
                    num_batches: buf.get_u64_le(),
                }
            }
            1 => {
                need(buf, 26)?;
                let seq = buf.get_u64_le();
                let epoch = buf.get_u64_le();
                let index_in_epoch = buf.get_u64_le();
                let last_in_epoch = buf.get_u8() != 0;
                let kind = buf.get_u8();
                let content = match kind {
                    0 => {
                        let fields = get_payload_vec(&mut buf)?;
                        let labels = get_payload(&mut buf)?;
                        AnnounceContent::Shared { fields, labels }
                    }
                    1 => {
                        need(buf, 4)?;
                        let n = buf.get_u32_le() as usize;
                        if n > 1 << 20 {
                            return Err(TsError::Wire("implausible flex batch count".into()));
                        }
                        let mut batches = Vec::with_capacity(n);
                        for _ in 0..n {
                            need(buf, 4)?;
                            let nf = buf.get_u32_le() as usize;
                            if nf > 1 << 16 {
                                return Err(TsError::Wire("implausible field count".into()));
                            }
                            let mut fields = Vec::with_capacity(nf);
                            for _ in 0..nf {
                                fields.push(get_payload_vec(&mut buf)?);
                            }
                            let labels = get_payload_vec(&mut buf)?;
                            batches.push(FlexBatchPayload { fields, labels });
                        }
                        AnnounceContent::Flex { batches }
                    }
                    2 => {
                        need(buf, 4)?;
                        let nf = buf.get_u32_le() as usize;
                        if nf > 1 << 16 {
                            return Err(TsError::Wire("implausible streamed field count".into()));
                        }
                        let mut fields = Vec::with_capacity(nf);
                        for _ in 0..nf {
                            fields.push(get_streamed(&mut buf)?);
                        }
                        let labels = get_streamed(&mut buf)?;
                        AnnounceContent::Streamed { fields, labels }
                    }
                    k => return Err(TsError::Wire(format!("bad content kind {k}"))),
                };
                DataMsg::Batch(BatchAnnounce {
                    seq,
                    epoch,
                    index_in_epoch,
                    last_in_epoch,
                    content,
                })
            }
            2 => {
                need(buf, 9)?;
                let consumer_id = buf.get_u64_le();
                let dtag = buf.get_u8();
                let decision = match dtag {
                    0 => {
                        need(buf, 32)?;
                        JoinDecision::AdmitReplay {
                            epoch: buf.get_u64_le(),
                            replay_from: buf.get_u64_le(),
                            num_batches: buf.get_u64_le(),
                            start_seq: buf.get_u64_le(),
                        }
                    }
                    1 => {
                        need(buf, 8)?;
                        JoinDecision::WaitEpoch {
                            epoch: buf.get_u64_le(),
                        }
                    }
                    2 => JoinDecision::Reject {
                        reason: String::from_utf8_lossy(&get_bytes(&mut buf)?).into_owned(),
                    },
                    t => return Err(TsError::Wire(format!("bad decision tag {t}"))),
                };
                DataMsg::JoinReply {
                    consumer_id,
                    decision,
                }
            }
            3 => {
                need(buf, 8)?;
                DataMsg::Detached {
                    consumer_id: buf.get_u64_le(),
                }
            }
            4 => DataMsg::End,
            5 => {
                // Fixed prefix: token (8) + four u32s (16) + staging (1)
                // + arena flag (1).
                need(buf, 26)?;
                let token = buf.get_u64_le();
                let version = buf.get_u32_le();
                let shards = buf.get_u32_le();
                let batch_size = buf.get_u32_le();
                let flex_producer_batch = buf.get_u32_le();
                let staging = buf.get_u8();
                let arena = match buf.get_u8() {
                    0 => None,
                    1 => {
                        let path = String::from_utf8_lossy(&get_bytes(&mut buf)?).into_owned();
                        need(buf, 16)?;
                        Some(ArenaAd {
                            path,
                            nslots: buf.get_u64_le(),
                            slot_size: buf.get_u64_le(),
                        })
                    }
                    f => return Err(TsError::Wire(format!("bad arena flag {f}"))),
                };
                need(buf, 4)?;
                let n = buf.get_u32_le() as usize;
                if n > 1 << 16 {
                    return Err(TsError::Wire("implausible override count".into()));
                }
                let mut endpoint_overrides = Vec::with_capacity(n);
                for _ in 0..n {
                    need(buf, 4)?;
                    let shard = buf.get_u32_le();
                    let uri = String::from_utf8_lossy(&get_bytes(&mut buf)?).into_owned();
                    endpoint_overrides.push((shard, uri));
                }
                need(buf, 5)?;
                let payload_modes = buf.get_u32_le();
                let log = match buf.get_u8() {
                    0 => None,
                    1 => {
                        need(buf, 16)?;
                        Some(LogAd {
                            retained_min: buf.get_u64_le(),
                            retained_max: buf.get_u64_le(),
                        })
                    }
                    f => return Err(TsError::Wire(format!("bad log flag {f}"))),
                };
                DataMsg::Welcome {
                    token,
                    info: WelcomeInfo {
                        version,
                        shards,
                        batch_size,
                        flex_producer_batch,
                        staging,
                        arena,
                        endpoint_overrides,
                        payload_modes,
                        log,
                    },
                }
            }
            6 => {
                // Fixed prefix: token (8) + version (4) + seq (4).
                need(buf, 16)?;
                let token = buf.get_u64_le();
                let version = buf.get_u32_le();
                let seq = buf.get_u32_le();
                let get_len = |buf: &mut &[u8]| -> Result<usize> {
                    need(buf, 4)?;
                    let n = buf.get_u32_le() as usize;
                    if n > 1 << 20 {
                        return Err(TsError::Wire("implausible stats section length".into()));
                    }
                    Ok(n)
                };
                let get_name = |buf: &mut &[u8]| -> Result<String> {
                    Ok(String::from_utf8_lossy(&get_bytes(buf)?).into_owned())
                };
                let n = get_len(&mut buf)?;
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_name(&mut buf)?;
                    need(buf, 8)?;
                    counters.push((name, buf.get_u64_le()));
                }
                let n = get_len(&mut buf)?;
                let mut gauge_bits = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_name(&mut buf)?;
                    need(buf, 8)?;
                    gauge_bits.push((name, buf.get_u64_le()));
                }
                let n = get_len(&mut buf)?;
                let mut histograms = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_name(&mut buf)?;
                    need(buf, 24)?;
                    let count = buf.get_u64_le();
                    let sum = buf.get_u64_le();
                    let max = buf.get_u64_le();
                    let nb = get_len(&mut buf)?;
                    let mut buckets = Vec::with_capacity(nb);
                    for _ in 0..nb {
                        need(buf, 12)?;
                        let idx = buf.get_u32_le();
                        buckets.push((idx, buf.get_u64_le()));
                    }
                    histograms.push((
                        name,
                        ts_metrics::HistogramSnapshot {
                            count,
                            sum,
                            max,
                            buckets,
                        },
                    ));
                }
                need(buf, 16)?;
                let uptime_ns = buf.get_u64_le();
                let snapshot_ns = buf.get_u64_le();
                let verdict = String::from_utf8_lossy(&get_bytes(&mut buf)?).into_owned();
                DataMsg::Stats {
                    token,
                    seq,
                    payload: StatsPayload {
                        version,
                        counters,
                        gauge_bits,
                        histograms,
                        uptime_ns,
                        snapshot_ns,
                        verdict,
                    },
                }
            }
            7 => {
                need(buf, 28)?;
                DataMsg::Cursor {
                    shard: buf.get_u32_le(),
                    epoch: buf.get_u64_le(),
                    seq: buf.get_u64_le(),
                    index_in_epoch: buf.get_u64_le(),
                }
            }
            8 => {
                // Fixed prefix: token (8) + version (4) + seq (4) +
                // now_ns (8) + record count (4).
                need(buf, 28)?;
                let token = buf.get_u64_le();
                let version = buf.get_u32_le();
                let seq = buf.get_u32_le();
                let now_ns = buf.get_u64_le();
                let n = buf.get_u32_le() as usize;
                if n > 1 << 16 {
                    return Err(TsError::Wire("implausible trace record count".into()));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    need(buf, 22)?;
                    let epoch = buf.get_u64_le();
                    let shard = buf.get_u32_le();
                    let rec_seq = buf.get_u64_le();
                    let complete = buf.get_u8() != 0;
                    let nspans = buf.get_u8() as usize;
                    if nspans > 64 {
                        return Err(TsError::Wire("implausible trace span count".into()));
                    }
                    need(buf, nspans * 17)?;
                    let mut spans = Vec::with_capacity(nspans);
                    for _ in 0..nspans {
                        let kind = buf.get_u8();
                        let start = buf.get_u64_le();
                        spans.push((kind, start, buf.get_u64_le()));
                    }
                    records.push(ts_metrics::TraceRecordSnap {
                        epoch,
                        shard,
                        seq: rec_seq,
                        complete,
                        spans,
                    });
                }
                DataMsg::Trace {
                    token,
                    seq,
                    payload: TracePayload {
                        version,
                        now_ns,
                        records,
                    },
                }
            }
            9 => {
                need(buf, 56)?;
                DataMsg::LogInfo {
                    consumer_id: buf.get_u64_le(),
                    start_seq: buf.get_u64_le(),
                    start_epoch: buf.get_u64_le(),
                    start_index: buf.get_u64_le(),
                    live_seq: buf.get_u64_le(),
                    retained_min: buf.get_u64_le(),
                    retained_max: buf.get_u64_le(),
                }
            }
            // Forward compatibility: a well-formed frame (tag + at least
            // 8 more bytes, the minimum any real data message carries)
            // whose tag we do not know is surfaced as `Unknown`, never a
            // hard error — an older consumer must survive a newer
            // producer adding topics. Truncated frames are still rejected.
            t => {
                need(buf, 8)?;
                DataMsg::Unknown { tag: t }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_device::DeviceId;
    use ts_tensor::{DType, Tensor};

    fn payload(shape: &[usize]) -> TensorPayload {
        TensorPayload::pack(&Tensor::zeros(shape, DType::U8, DeviceId::Gpu(0)))
    }

    #[test]
    fn ctrl_round_trips() {
        let msgs = [
            CtrlMsg::Join {
                consumer_id: 7,
                batch_size: 128,
                mode: PayloadMode::Shm,
            },
            CtrlMsg::Join {
                consumer_id: 7,
                batch_size: 128,
                mode: PayloadMode::Stream,
            },
            CtrlMsg::Ready { consumer_id: 7 },
            CtrlMsg::Ack {
                consumer_id: 7,
                seq: 42,
            },
            CtrlMsg::Heartbeat { consumer_id: 7 },
            CtrlMsg::Leave { consumer_id: 7 },
            CtrlMsg::Hello {
                token: 7,
                version: HANDSHAKE_VERSION,
                caps: caps::KNOWN,
            },
            CtrlMsg::StatsRequest {
                token: 7,
                version: STATS_VERSION,
                seq: 3,
            },
            CtrlMsg::TraceRequest {
                token: 7,
                version: TRACE_VERSION,
                seq: 5,
                max: 64,
            },
            CtrlMsg::Replay {
                consumer_id: 7,
                group: "hp-trial-3".to_string(),
                from: ReplayFrom::Cursor,
            },
            CtrlMsg::Replay {
                consumer_id: 7,
                group: String::new(),
                from: ReplayFrom::Oldest,
            },
            CtrlMsg::Replay {
                consumer_id: 7,
                group: "trial/юникод".to_string(),
                from: ReplayFrom::Seq(123_456),
            },
        ];
        for m in msgs {
            assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
            assert_eq!(m.consumer_id(), 7);
        }
    }

    #[test]
    fn replay_rejects_truncation_and_bad_from_tags() {
        let m = CtrlMsg::Replay {
            consumer_id: 9,
            group: "grp".to_string(),
            from: ReplayFrom::Seq(77),
        };
        let good = m.encode();
        for cut in 1..good.len() {
            assert!(
                CtrlMsg::decode(&good[..good.len() - cut]).is_err(),
                "replay truncated by {cut} must be rejected"
            );
        }
        // An unknown replay-from tag is rejected, not misread.
        let mut bad = good[..good.len() - 9].to_vec();
        bad.push(9);
        assert!(CtrlMsg::decode(&bad).is_err());
    }

    #[test]
    fn unknown_ctrl_tags_decode_as_unknown_not_error() {
        // Forward compatibility: any well-formed frame with a tag from
        // the future decodes as `Unknown` so an older producer can
        // log-and-ignore it instead of failing.
        for tag in [9u8, 99, 250, 255] {
            let mut frame = vec![tag];
            frame.extend_from_slice(&1234u64.to_le_bytes());
            frame.extend_from_slice(&[0xAB; 7]); // trailing future payload
            let m = CtrlMsg::decode(&frame).unwrap();
            assert_eq!(m, CtrlMsg::Unknown { tag });
            assert_eq!(m.consumer_id(), 0);
            // Re-encoding keeps a decodable well-formed shape.
            assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m);
        }
        // Truncated unknown-tag frames are still rejected.
        assert!(CtrlMsg::decode(&[99, 0, 0, 0]).is_err());
    }

    #[test]
    fn welcome_round_trips_with_and_without_arena() {
        let bare = DataMsg::Welcome {
            token: 99,
            info: WelcomeInfo {
                version: HANDSHAKE_VERSION,
                shards: 1,
                batch_size: 32,
                flex_producer_batch: 0,
                staging: 2,
                arena: None,
                endpoint_overrides: Vec::new(),
                payload_modes: caps::SHM | caps::STREAM,
                log: None,
            },
        };
        let with_arena = DataMsg::Welcome {
            token: 1,
            info: WelcomeInfo {
                version: HANDSHAKE_VERSION,
                shards: 4,
                batch_size: 128,
                flex_producer_batch: 256,
                staging: 0,
                arena: Some(ArenaAd {
                    path: "/dev/shm/ts.arena".into(),
                    nslots: 64,
                    slot_size: 1 << 20,
                }),
                endpoint_overrides: vec![
                    (1, "tcp://10.0.0.2:9000".to_string()),
                    (3, "tcp://10.0.0.3:9000".to_string()),
                ],
                payload_modes: caps::SHM,
                log: Some(LogAd {
                    retained_min: 128,
                    retained_max: 511,
                }),
            },
        };
        // A welcome truncated at ANY byte is rejected with a wire error,
        // never misparsed and never a panic — both shapes, every length.
        for m in [bare, with_arena] {
            let good = m.encode();
            assert_eq!(DataMsg::decode(&good).unwrap(), m, "{m:?}");
            for cut in 1..good.len() {
                assert!(
                    DataMsg::decode(&good[..good.len() - cut]).is_err(),
                    "{m:?} truncated by {cut} must be rejected"
                );
            }
        }
    }

    #[test]
    fn log_info_round_trips_and_rejects_any_truncation() {
        let m = DataMsg::LogInfo {
            consumer_id: 7,
            start_seq: 100,
            start_epoch: 2,
            start_index: 10,
            live_seq: 145,
            retained_min: 64,
            retained_max: 144,
        };
        let good = m.encode();
        assert_eq!(DataMsg::decode(&good).unwrap(), m);
        for cut in 1..good.len() {
            assert!(
                DataMsg::decode(&good[..good.len() - cut]).is_err(),
                "log info truncated by {cut} must be rejected"
            );
        }
    }

    #[test]
    fn streamed_announce_round_trips_and_rebuilds_the_tensor() {
        let batch = Tensor::rand_u8(&[4, 3, 8, 8], DeviceId::Cpu, 11);
        let labels = Tensor::zeros(&[4], DType::I64, DeviceId::Cpu);
        let m = DataMsg::Batch(BatchAnnounce {
            seq: 7,
            epoch: 1,
            index_in_epoch: 7,
            last_in_epoch: false,
            content: AnnounceContent::Streamed {
                fields: vec![StreamedTensor::from_tensor(&batch)],
                labels: StreamedTensor::from_tensor(&labels),
            },
        });
        let wire = m.encode();
        let decoded = DataMsg::decode(&wire).unwrap();
        assert_eq!(decoded, m);
        // The rebuilt tensor is byte-identical to the source.
        let DataMsg::Batch(BatchAnnounce {
            content: AnnounceContent::Streamed { fields, .. },
            ..
        }) = decoded
        else {
            panic!("wrong shape");
        };
        let rebuilt = fields[0].to_tensor(DeviceId::Cpu).unwrap();
        assert_eq!(rebuilt.shape(), batch.shape());
        assert!(rebuilt.data_eq(&batch));
        // Truncation at ANY byte is rejected.
        for cut in 1..wire.len() {
            assert!(DataMsg::decode(&wire[..wire.len() - cut]).is_err());
        }
        // Unlike the shm announce, the streamed frame scales with the
        // batch — that is the negotiated trade for crossing hosts.
        assert!(wire.len() > batch.view_bytes());
    }

    #[test]
    fn data_msgs_round_trip() {
        let msgs = [
            DataMsg::EpochStart {
                epoch: 3,
                num_batches: 1000,
            },
            DataMsg::Batch(BatchAnnounce {
                seq: 99,
                epoch: 3,
                index_in_epoch: 9,
                last_in_epoch: true,
                content: AnnounceContent::Shared {
                    fields: vec![payload(&[128, 3, 224, 224]), payload(&[128, 77])],
                    labels: payload(&[128]),
                },
            }),
            DataMsg::JoinReply {
                consumer_id: 5,
                decision: JoinDecision::AdmitReplay {
                    epoch: 0,
                    replay_from: 0,
                    num_batches: 100,
                    start_seq: 300,
                },
            },
            DataMsg::JoinReply {
                consumer_id: 5,
                decision: JoinDecision::WaitEpoch { epoch: 1 },
            },
            DataMsg::JoinReply {
                consumer_id: 5,
                decision: JoinDecision::Reject {
                    reason: "batch size mismatch".to_string(),
                },
            },
            DataMsg::Detached { consumer_id: 5 },
            DataMsg::End,
        ];
        for m in msgs {
            assert_eq!(DataMsg::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn flex_announce_round_trips() {
        let m = DataMsg::Batch(BatchAnnounce {
            seq: 1,
            epoch: 0,
            index_in_epoch: 1,
            last_in_epoch: false,
            content: AnnounceContent::Flex {
                batches: vec![
                    FlexBatchPayload {
                        fields: vec![vec![payload(&[7, 3, 8, 8])], vec![payload(&[7, 77])]],
                        labels: vec![payload(&[7])],
                    },
                    FlexBatchPayload {
                        fields: vec![
                            vec![payload(&[2, 3, 8, 8]), payload(&[5, 3, 8, 8])],
                            vec![payload(&[2, 77]), payload(&[5, 77])],
                        ],
                        labels: vec![payload(&[2]), payload(&[5])],
                    },
                ],
            },
        });
        assert_eq!(DataMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn announce_size_is_independent_of_batch_size() {
        let small = DataMsg::Batch(BatchAnnounce {
            seq: 0,
            epoch: 0,
            index_in_epoch: 0,
            last_in_epoch: false,
            content: AnnounceContent::Shared {
                fields: vec![payload(&[2, 3, 8, 8])],
                labels: payload(&[2]),
            },
        });
        let huge = DataMsg::Batch(BatchAnnounce {
            seq: 0,
            epoch: 0,
            index_in_epoch: 0,
            last_in_epoch: false,
            content: AnnounceContent::Shared {
                fields: vec![payload(&[512, 3, 224, 224])],
                labels: payload(&[512]),
            },
        });
        assert_eq!(small.encode().len(), huge.encode().len());
        assert!(huge.encode().len() < 256);
    }

    #[test]
    fn truncated_and_garbage_frames_rejected() {
        assert!(CtrlMsg::decode(&[]).is_err());
        assert!(CtrlMsg::decode(&[0, 1, 2]).is_err());
        // A well-formed frame with an unknown tag is NOT an error on
        // either channel (see the two `unknown_*` tests) — but truncated
        // frames always are, whatever the tag.
        assert!(DataMsg::decode(&[]).is_err());
        assert!(DataMsg::decode(&[77]).is_err());
        assert!(DataMsg::decode(&[99, 0, 0, 0]).is_err());
        let good = DataMsg::EpochStart {
            epoch: 0,
            num_batches: 1,
        }
        .encode();
        assert!(DataMsg::decode(&good[..good.len() - 1]).is_err());

        // Every field is required: no strict prefix of any control
        // message, of a fully populated WELCOME or of a Stats reply
        // decodes as some shorter message.
        let ctrl = [
            CtrlMsg::Join {
                consumer_id: 7,
                batch_size: 128,
                mode: PayloadMode::Stream,
            },
            CtrlMsg::Ready { consumer_id: 7 },
            CtrlMsg::Ack {
                consumer_id: 7,
                seq: 42,
            },
            CtrlMsg::Heartbeat { consumer_id: 7 },
            CtrlMsg::Leave { consumer_id: 7 },
            CtrlMsg::Hello {
                token: 7,
                version: HANDSHAKE_VERSION,
                caps: caps::KNOWN,
            },
            CtrlMsg::StatsRequest {
                token: 7,
                version: STATS_VERSION,
                seq: 3,
            },
            CtrlMsg::TraceRequest {
                token: 7,
                version: TRACE_VERSION,
                seq: 5,
                max: 64,
            },
            CtrlMsg::Replay {
                consumer_id: 7,
                group: "grp".to_string(),
                from: ReplayFrom::Cursor,
            },
            CtrlMsg::Replay {
                consumer_id: 7,
                group: "grp".to_string(),
                from: ReplayFrom::Seq(77),
            },
            CtrlMsg::Unknown { tag: 99 },
        ];
        for m in ctrl {
            let wire = m.encode();
            for len in 0..wire.len() {
                assert!(
                    CtrlMsg::decode(&wire[..len]).is_err(),
                    "{m:?}: {len}-byte prefix of {} must be rejected",
                    wire.len()
                );
            }
        }
        let welcome = DataMsg::Welcome {
            token: 1,
            info: WelcomeInfo {
                version: HANDSHAKE_VERSION,
                shards: 2,
                batch_size: 32,
                flex_producer_batch: 0,
                staging: 2,
                arena: Some(ArenaAd {
                    path: "/dev/shm/ts.arena".into(),
                    nslots: 64,
                    slot_size: 1 << 20,
                }),
                endpoint_overrides: vec![(1, "tcp://10.0.0.2:9000".to_string())],
                payload_modes: caps::KNOWN,
                log: Some(LogAd {
                    retained_min: 1,
                    retained_max: 0,
                }),
            },
        };
        let stats = DataMsg::Stats {
            token: 9,
            seq: 11,
            payload: StatsPayload {
                version: STATS_VERSION,
                counters: vec![("producer.batches".to_string(), 3)],
                gauge_bits: vec![("stage.pin_depth".to_string(), 1.5f64.to_bits())],
                histograms: vec![(
                    "consumer.wait_ns".to_string(),
                    ts_metrics::HistogramSnapshot {
                        count: 1,
                        sum: 42,
                        max: 42,
                        buckets: vec![(5, 1)],
                    },
                )],
                uptime_ns: 1,
                snapshot_ns: 2,
                verdict: "loader-bound".to_string(),
            },
        };
        for m in [welcome, stats] {
            let wire = m.encode();
            assert_eq!(DataMsg::decode(&wire).unwrap(), m);
            for len in 0..wire.len() {
                assert!(
                    DataMsg::decode(&wire[..len]).is_err(),
                    "{m:?}: {len}-byte prefix of {} must be rejected",
                    wire.len()
                );
            }
        }

        // An unknown payload-mode byte in a Join is rejected, not misread.
        let mut join = CtrlMsg::Join {
            consumer_id: 9,
            batch_size: 128,
            mode: PayloadMode::Shm,
        }
        .encode()
        .to_vec();
        *join.last_mut().unwrap() = 9;
        assert!(CtrlMsg::decode(&join).is_err());
    }

    #[test]
    fn unknown_data_tags_decode_as_unknown_not_error() {
        // Forward compatibility on the data path, the mirror of the ctrl
        // side: a newer producer adding topics must not wedge a consumer.
        for tag in [99u8, 250, 255] {
            let mut frame = vec![tag];
            frame.extend_from_slice(&1234u64.to_le_bytes());
            frame.extend_from_slice(&[0xAB; 5]); // trailing future payload
            let m = DataMsg::decode(&frame).unwrap();
            assert_eq!(m, DataMsg::Unknown { tag });
            // Re-encoding keeps a decodable well-formed shape.
            assert_eq!(DataMsg::decode(&m.encode()).unwrap(), m);
        }
        // Truncated unknown-tag frames are still rejected.
        assert!(DataMsg::decode(&[99, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn topics_are_prefix_disjoint() {
        assert!(!topics::consumer(1).starts_with(topics::BATCH));
        assert!(!topics::BATCH.starts_with(b"cons"));
        assert_eq!(topics::consumer(42), b"cons/42".to_vec());
        assert_eq!(topics::hello(42), b"hs/42".to_vec());
        assert!(!topics::hello(1).starts_with(topics::BATCH));
        assert!(!topics::hello(1).starts_with(topics::CTRL));
        assert!(!topics::hello(1).starts_with(b"cons"));
        assert_eq!(topics::stats(42), b"st/42".to_vec());
        assert!(!topics::stats(1).starts_with(topics::BATCH));
        assert!(!topics::stats(1).starts_with(topics::CTRL));
        assert!(!topics::stats(1).starts_with(b"cons"));
        assert!(!topics::stats(1).starts_with(b"hs"));
        assert!(!topics::hello(1).starts_with(b"st"));
        // The cursor topic must not capture (or be captured by) anything.
        assert!(!topics::CURSOR.starts_with(topics::BATCH));
        assert!(!topics::CURSOR.starts_with(topics::CTRL));
        assert!(!topics::consumer(1).starts_with(topics::CURSOR));
        assert!(!topics::CTRL.starts_with(topics::CURSOR));
        assert!(!topics::hello(1).starts_with(topics::CURSOR));
        assert!(!topics::stats(1).starts_with(topics::CURSOR));
        // The trace topic is its own prefix island too.
        assert_eq!(topics::trace(42), b"tr/42".to_vec());
        assert!(!topics::trace(1).starts_with(topics::BATCH));
        assert!(!topics::trace(1).starts_with(topics::CTRL));
        assert!(!topics::trace(1).starts_with(topics::CURSOR));
        assert!(!topics::trace(1).starts_with(b"cons"));
        assert!(!topics::trace(1).starts_with(b"hs"));
        assert!(!topics::trace(1).starts_with(b"st"));
        assert!(!topics::stats(1).starts_with(b"tr"));
        assert!(!topics::hello(1).starts_with(b"tr"));
    }

    #[test]
    fn stats_round_trips_and_rejects_any_truncation() {
        use ts_metrics::Registry;

        let empty = DataMsg::Stats {
            token: 3,
            seq: 0,
            payload: StatsPayload {
                version: STATS_VERSION,
                counters: vec![],
                gauge_bits: vec![],
                histograms: vec![],
                uptime_ns: 0,
                snapshot_ns: 0,
                verdict: String::new(),
            },
        };

        // A populated payload captured from a real registry, including
        // negative/fractional gauges and multi-bucket histograms.
        let r = Registry::new();
        r.counter("producer.batches").add(128);
        r.counter("consumer.acks").add(127);
        r.gauge("staging.s0.copy_queue_depth").set(2.5);
        r.gauge("stage.pin_depth").set(-1.0);
        for v in [100u64, 5_000, 5_100, 2_000_000, u64::MAX / 2] {
            r.histogram("stage.s0.feeder_fetch_ns").record(v);
        }
        r.histogram("consumer.wait_ns").record(42);
        let mut payload = StatsPayload::from_registry(&r);
        // Exercise the uptime / stamp / verdict tail with every field
        // populated.
        payload.uptime_ns = 90_000_000_000;
        payload.snapshot_ns = 1_234_567;
        payload.verdict = "consumer-straggler consumer=3".to_string();
        let full = DataMsg::Stats {
            token: u64::MAX,
            seq: u32::MAX,
            payload,
        };

        for m in [empty, full] {
            let good = m.encode();
            assert_eq!(DataMsg::decode(&good).unwrap(), m, "{m:?}");
            // Truncation at ANY byte is a wire error, never a misparse.
            for cut in 1..good.len() {
                assert!(
                    DataMsg::decode(&good[..good.len() - cut]).is_err(),
                    "{m:?} truncated by {cut} must be rejected"
                );
            }
        }
    }

    #[test]
    fn trace_round_trips_and_rejects_any_truncation() {
        let empty = DataMsg::Trace {
            token: 5,
            seq: 1,
            payload: TracePayload {
                version: TRACE_VERSION,
                now_ns: 0,
                records: vec![],
            },
        };
        let full = DataMsg::Trace {
            token: u64::MAX,
            seq: u32::MAX,
            payload: TracePayload {
                version: TRACE_VERSION,
                now_ns: 123_456_789,
                records: vec![
                    ts_metrics::TraceRecordSnap {
                        epoch: 2,
                        shard: 1,
                        seq: 40,
                        complete: true,
                        spans: vec![(0, 100, 200), (3, 250, 300), (5, 300, 900)],
                    },
                    ts_metrics::TraceRecordSnap {
                        epoch: 2,
                        shard: 0,
                        seq: 41,
                        complete: false,
                        spans: vec![],
                    },
                ],
            },
        };
        for m in [empty, full] {
            let good = m.encode();
            assert_eq!(DataMsg::decode(&good).unwrap(), m, "{m:?}");
            for cut in 1..good.len() {
                assert!(
                    DataMsg::decode(&good[..good.len() - cut]).is_err(),
                    "{m:?} truncated by {cut} must be rejected"
                );
            }
        }
    }

    #[test]
    fn cursor_round_trips_and_rejects_any_truncation() {
        let m = DataMsg::Cursor {
            shard: 3,
            epoch: 7,
            seq: 1_000_001,
            index_in_epoch: 41,
        };
        let good = m.encode();
        assert_eq!(DataMsg::decode(&good).unwrap(), m);
        for cut in 1..good.len() {
            assert!(
                DataMsg::decode(&good[..good.len() - cut]).is_err(),
                "cursor truncated by {cut} must be rejected"
            );
        }
    }

    #[test]
    fn stats_payload_accessors_decode_gauges_and_lookups() {
        use ts_metrics::Registry;

        let r = Registry::new();
        r.counter("producer.batches").add(7);
        r.gauge("stage.pin_depth").set(1.5);
        r.histogram("consumer.wait_ns").record(1000);
        let p = StatsPayload::from_registry(&r);
        assert_eq!(p.version, STATS_VERSION);
        assert_eq!(p.counter("producer.batches"), Some(7));
        assert_eq!(p.counter("missing"), None);
        assert_eq!(p.gauges(), vec![("stage.pin_depth".to_string(), 1.5)]);
        assert_eq!(p.histogram("consumer.wait_ns").unwrap().count, 1);
        assert!(p.histogram("missing").is_none());
        // Sections are deterministically name-sorted (registry contract).
        assert!(p.counters.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
