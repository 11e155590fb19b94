//! PUB/SUB over `ipc://`/`tcp://` streams.
//!
//! The publisher accepts connections; each connected subscriber gets an
//! [`Outbox`] (inline sends, plus a bounded fallback queue drained by a
//! writer thread) and a reader thread that processes `SUB`/`UNSUB`
//! control messages. Prefix filtering happens publisher-side, so only
//! matching topics cross the wire. Subscribes are acknowledged (`SUBACK`)
//! so a subscriber can order a subscription strictly before its next
//! control-plane message. The subscriber reads its connection on the
//! calling thread.

use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::pubsub::SendPolicy;
use crate::transport::{
    poll, AnyListener, AnyStream, EndpointAddr, Offer, Outbox, CONNECT_RETRY_FOR, POLL_EVERY,
};
use crate::wire::{self, FrameBuf};
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a blocking subscribe waits for its `SUBACK`.
const SUBSCRIBE_ACK_TIMEOUT: Duration = Duration::from_secs(10);

struct Peer {
    id: u64,
    alive: AtomicBool,
    prefixes: Mutex<Vec<Vec<u8>>>,
    outbox: Outbox,
    stream: AnyStream,
}

impl Peer {
    fn matches(&self, topic: &[u8]) -> bool {
        self.prefixes
            .lock()
            .expect("peer prefixes")
            .iter()
            .any(|p| topic.starts_with(p.as_slice()))
    }

    fn retire(&self) {
        self.alive.store(false, Ordering::SeqCst);
        self.stream.shutdown();
    }
}

struct PubShared {
    stop: AtomicBool,
    hwm: usize,
    peers: Mutex<Vec<Arc<Peer>>>,
    next_id: AtomicU64,
}

/// The stream-transport publishing side.
pub(crate) struct StreamPub {
    shared: Arc<PubShared>,
    policy: SendPolicy,
    endpoint: String,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl StreamPub {
    pub(crate) fn bind(
        addr: &EndpointAddr,
        endpoint: &str,
        policy: SendPolicy,
        hwm: usize,
    ) -> Result<StreamPub, SendError> {
        let listener = AnyListener::bind(addr)?;
        let endpoint = listener
            .local_endpoint()
            .unwrap_or_else(|| endpoint.to_string());
        let shared = Arc::new(PubShared {
            stop: AtomicBool::new(false),
            hwm,
            peers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("ts-pub-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| SendError::Io(format!("spawn accept: {e}")))?;
        Ok(StreamPub {
            shared,
            policy,
            endpoint,
            accept_thread: Some(accept_thread),
        })
    }

    pub(crate) fn endpoint(&self) -> &str {
        &self.endpoint
    }

    pub(crate) fn subscriber_count(&self) -> usize {
        self.shared
            .peers
            .lock()
            .expect("peers")
            .iter()
            .filter(|p| p.alive.load(Ordering::SeqCst))
            .count()
    }

    pub(crate) fn send(&self, topic: &[u8], msg: Multipart) -> Result<usize, SendError> {
        let peers: Vec<Arc<Peer>> = self.shared.peers.lock().expect("peers").clone();
        // Encoded once, on first match, and shared by every peer.
        let mut encoded: Option<Arc<Vec<u8>>> = None;
        let mut delivered = 0usize;
        let mut dead = Vec::new();
        for peer in &peers {
            if !peer.alive.load(Ordering::SeqCst) {
                dead.push(peer.id);
                continue;
            }
            if !peer.matches(topic) {
                continue;
            }
            let bytes =
                encoded.get_or_insert_with(|| Arc::new(wire::encode_topic_data(topic, &msg)));
            match peer.outbox.offer(bytes, self.policy == SendPolicy::Block) {
                Offer::Taken => delivered += 1,
                Offer::Full => {}
                Offer::Dead => dead.push(peer.id),
            }
        }
        if !dead.is_empty() {
            let mut peers = self.shared.peers.lock().expect("peers");
            peers.retain(|p| {
                if dead.contains(&p.id) {
                    p.retire();
                    false
                } else {
                    true
                }
            });
        }
        Ok(delivered)
    }
}

impl Drop for StreamPub {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Linger: let each peer's writer flush what is already queued (a
        // just-published `End`, say) before tearing the connection down —
        // the broker transport equally delivers queued messages to
        // subscribers after the publisher drops.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let unflushed = {
                let peers = self.shared.peers.lock().expect("peers");
                peers
                    .iter()
                    .any(|p| p.alive.load(Ordering::SeqCst) && p.outbox.has_backlog())
            };
            if !unflushed || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for peer in self.shared.peers.lock().expect("peers").drain(..) {
            peer.retire();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: AnyListener, shared: Arc<PubShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(Some(stream)) => {
                if let Err(e) = add_peer(&shared, stream) {
                    // Peer setup failed (fd exhaustion, ...): drop the
                    // connection, keep accepting.
                    let _ = e;
                }
            }
            Ok(None) => std::thread::sleep(POLL_EVERY),
            Err(_) => break,
        }
    }
}

fn add_peer(shared: &Arc<PubShared>, stream: AnyStream) -> std::io::Result<()> {
    let write_half = stream.try_clone()?;
    let read_half = stream.try_clone()?;
    let (outbox, writer) = Outbox::new(shared.hwm);
    let peer = Arc::new(Peer {
        id: shared.next_id.fetch_add(1, Ordering::SeqCst),
        alive: AtomicBool::new(true),
        prefixes: Mutex::new(Vec::new()),
        outbox,
        stream,
    });
    shared.peers.lock().expect("peers").push(peer.clone());

    // Exits once the peer (and with it the outbox's queue) is dropped.
    std::thread::Builder::new()
        .name("ts-pub-writer".into())
        .spawn(move || writer.run(write_half))?;

    let reader_shared = shared.clone();
    std::thread::Builder::new()
        .name("ts-pub-reader".into())
        .spawn(move || peer_reader(read_half, peer, reader_shared))?;
    Ok(())
}

fn peer_reader(read_half: AnyStream, peer: Arc<Peer>, shared: Arc<PubShared>) {
    let mut reader = BufReader::new(read_half);
    while peer.alive.load(Ordering::SeqCst) && !shared.stop.load(Ordering::SeqCst) {
        let msg = match wire::read_message(&mut reader) {
            Ok(m) => m,
            Err(_) => break,
        };
        match msg.kind {
            wire::KIND_SUB if msg.frames.len() == 2 && msg.frames[1].len() == 8 => {
                peer.prefixes
                    .lock()
                    .expect("peer prefixes")
                    .push(msg.frames[0].to_vec());
                // Ack once the prefix is visible to `send`.
                let ack = wire::encode_message(wire::KIND_SUBACK, &[&msg.frames[1]]);
                if peer.outbox.offer(&Arc::new(ack), true) == Offer::Dead {
                    break;
                }
            }
            wire::KIND_UNSUB if msg.frames.len() == 1 => {
                let mut prefixes = peer.prefixes.lock().expect("peer prefixes");
                if let Some(pos) = prefixes.iter().position(|p| p[..] == msg.frames[0][..]) {
                    prefixes.remove(pos);
                }
            }
            _ => {} // unknown control: ignore, stay compatible forward
        }
    }
    peer.retire();
    shared
        .peers
        .lock()
        .expect("peers")
        .retain(|p| p.id != peer.id);
}

// ---------------------------------------------------------------------------
// subscriber side
// ---------------------------------------------------------------------------

struct SubState {
    /// Write half once connected.
    writer: Option<AnyStream>,
    /// The read half, from the connector until the first receive takes it.
    handover: Option<AnyStream>,
    /// Locally recorded prefixes (flushed on connect).
    prefixes: Vec<Vec<u8>>,
    /// Highest `SUBACK` request id seen.
    acked: u64,
    /// Highest request id of the connector's connect-time prefix flush;
    /// a subscribe that recorded its prefix pre-connection waits for this
    /// instead of re-sending (re-sending would register a duplicate).
    flushed_req: u64,
    /// True once the connection is gone (or was never made).
    failed: bool,
}

/// The receive side, driven by whichever thread is receiving.
struct SubReader {
    stream: Option<AnyStream>,
    buf: FrameBuf,
    /// Decoded data messages not yet returned.
    ready: VecDeque<(Bytes, Multipart)>,
    closed: bool,
}

struct SubShared {
    stop: AtomicBool,
    state: Mutex<SubState>,
    cond: Condvar,
    next_req: AtomicU64,
    /// Lock order: `reader` before `state`.
    reader: Mutex<SubReader>,
    /// `reader.ready.len()`, readable while another thread receives.
    ready_len: AtomicUsize,
}

/// The stream-transport subscribing side.
pub(crate) struct StreamSub {
    shared: Arc<SubShared>,
    endpoint: String,
}

impl StreamSub {
    pub(crate) fn connect(addr: EndpointAddr, endpoint: &str) -> StreamSub {
        let shared = Arc::new(SubShared {
            stop: AtomicBool::new(false),
            state: Mutex::new(SubState {
                writer: None,
                handover: None,
                prefixes: Vec::new(),
                acked: 0,
                flushed_req: 0,
                failed: false,
            }),
            cond: Condvar::new(),
            next_req: AtomicU64::new(1),
            reader: Mutex::new(SubReader {
                stream: None,
                buf: FrameBuf::new(),
                ready: VecDeque::new(),
                closed: false,
            }),
            ready_len: AtomicUsize::new(0),
        });
        let conn_shared = shared.clone();
        std::thread::Builder::new()
            .name("ts-sub-conn".into())
            .spawn(move || sub_connect(addr, conn_shared))
            .expect("spawn subscriber connector");
        StreamSub {
            shared,
            endpoint: endpoint.to_string(),
        }
    }

    pub(crate) fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Registers a prefix. Blocks (bounded) until the publisher has
    /// acknowledged it, so anything sent on another connection *after*
    /// this returns cannot race ahead of the subscription. Data messages
    /// read while waiting for the acknowledgement stay queued for
    /// `recv`.
    pub(crate) fn subscribe(&self, prefix: &[u8]) {
        let deadline = Instant::now() + SUBSCRIBE_ACK_TIMEOUT;
        let mut state = self.shared.state.lock().expect("sub state");
        state.prefixes.push(prefix.to_vec());
        // Whether the connector will register this prefix for us in its
        // connect-time flush (it flushes everything recorded while the
        // connection did not exist yet).
        let flushed_by_connector = state.writer.is_none();
        // Wait for the connection (the connector flushes recorded
        // prefixes itself on connect, which covers us if we time out
        // here).
        while state.writer.is_none() && !state.failed {
            let now = Instant::now();
            if now >= deadline || self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(state, deadline - now)
                .expect("sub state");
            state = guard;
        }
        if state.failed {
            return;
        }
        let req = if flushed_by_connector {
            // The connector already sent our prefix; just await its ack.
            state.flushed_req
        } else {
            let req = self.shared.next_req.fetch_add(1, Ordering::SeqCst);
            let writer = state.writer.as_mut().expect("connected");
            if wire::write_message(writer, wire::KIND_SUB, &[prefix, &req.to_le_bytes()]).is_err() {
                return;
            }
            req
        };
        drop(state);
        // Nobody reads the connection but a receiving thread: read it
        // here unless another thread already is (it records the ack).
        loop {
            {
                let state = self.shared.state.lock().expect("sub state");
                if state.acked >= req || state.failed {
                    return;
                }
            }
            let now = Instant::now();
            if now >= deadline || self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let wait = (deadline - now).min(Duration::from_millis(10));
            match self.shared.reader.try_lock() {
                Ok(mut reader) => self.pump(&mut reader, wait),
                Err(_) => {
                    let state = self.shared.state.lock().expect("sub state");
                    if state.acked < req && !state.failed {
                        let _ = self.shared.cond.wait_timeout(state, wait);
                    }
                }
            }
        }
    }

    pub(crate) fn unsubscribe(&self, prefix: &[u8]) {
        let mut state = self.shared.state.lock().expect("sub state");
        if let Some(pos) = state.prefixes.iter().position(|p| p == prefix) {
            state.prefixes.remove(pos);
        }
        if let Some(writer) = state.writer.as_mut() {
            let _ = wire::write_message(writer, wire::KIND_UNSUB, &[prefix]);
        }
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<(Bytes, Multipart), RecvError> {
        let deadline = Instant::now() + timeout;
        let mut reader = self.shared.reader.lock().expect("sub reader");
        loop {
            if let Some(m) = reader.ready.pop_front() {
                self.shared.ready_len.fetch_sub(1, Ordering::SeqCst);
                return Ok(m);
            }
            if reader.closed {
                return Err(RecvError::Closed);
            }
            let now = Instant::now();
            // A zero timeout still takes one non-blocking look.
            if now >= deadline && !timeout.is_zero() {
                return Err(RecvError::Timeout);
            }
            self.pump(&mut reader, deadline.saturating_duration_since(now));
            if timeout.is_zero() && reader.ready.is_empty() && !reader.closed {
                return Err(RecvError::Timeout);
            }
        }
    }

    pub(crate) fn try_recv(&self) -> Result<Option<(Bytes, Multipart)>, RecvError> {
        match self.recv_timeout(Duration::ZERO) {
            Ok(m) => Ok(Some(m)),
            Err(RecvError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Decoded messages waiting for `recv` (not kernel-buffered bytes).
    pub(crate) fn queued(&self) -> usize {
        self.shared.ready_len.load(Ordering::SeqCst)
    }

    /// Waits up to `wait` for the connection to have bytes, reads what it
    /// has and decodes every whole message: data into `ready`, `SUBACK`s
    /// into the shared state.
    fn pump(&self, reader: &mut SubReader, wait: Duration) {
        if reader.stream.is_none() {
            let mut state = self.shared.state.lock().expect("sub state");
            if state.handover.is_none() && !state.failed {
                state = self
                    .shared
                    .cond
                    .wait_timeout(state, wait)
                    .expect("sub state")
                    .0;
            }
            reader.stream = state.handover.take();
            if reader.stream.is_none() {
                reader.closed = state.failed;
                return;
            }
        }
        let SubReader {
            stream, buf, ready, ..
        } = reader;
        let stream = stream.as_mut().expect("connected");
        let mut fds = [stream.poll_fd()];
        let mut healthy = match poll(&mut fds, wait) {
            Ok(0) => return,
            Ok(_) => stream.read_into(buf),
            Err(_) => false,
        };
        let mut acked = None;
        loop {
            match buf.next_message() {
                Ok(Some(msg)) => match msg.kind {
                    wire::KIND_DATA => {
                        if let Some(m) = msg.into_topic_and_payload() {
                            ready.push_back(m);
                            self.shared.ready_len.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    wire::KIND_SUBACK if msg.frames.len() == 1 && msg.frames[0].len() == 8 => {
                        let req =
                            u64::from_le_bytes(msg.frames[0][..].try_into().expect("8 bytes"));
                        acked = acked.max(Some(req));
                    }
                    _ => {}
                },
                Ok(None) => break,
                Err(_) => {
                    healthy = false;
                    break;
                }
            }
        }
        if acked.is_none() && healthy {
            return;
        }
        let mut state = self.shared.state.lock().expect("sub state");
        if let Some(req) = acked {
            state.acked = state.acked.max(req);
        }
        if !healthy {
            // Connection gone: future subscribe calls must not wait
            // forever, and `recv` reports `Closed` once `ready` drains.
            reader.closed = true;
            state.failed = true;
            if let Some(writer) = state.writer.take() {
                writer.shutdown();
            }
        }
        self.shared.cond.notify_all();
    }
}

impl Drop for StreamSub {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let mut state = self.shared.state.lock().expect("sub state");
        if let Some(writer) = state.writer.take() {
            writer.shutdown();
        }
        self.shared.cond.notify_all();
    }
}

/// Connects, flushes the prefixes recorded so far, hands the connection
/// to the receive path and exits.
fn sub_connect(addr: EndpointAddr, shared: Arc<SubShared>) {
    let give_up = {
        let shared = shared.clone();
        move || shared.stop.load(Ordering::SeqCst)
    };
    let connected = AnyStream::connect_retry(&addr, CONNECT_RETRY_FOR, give_up)
        .and_then(|s| Ok((s.try_clone()?, s)));
    let mut state = shared.state.lock().expect("sub state");
    match connected {
        Ok((read_half, mut writer)) => {
            let mut last_req = 0;
            for prefix in &state.prefixes {
                let req = shared.next_req.fetch_add(1, Ordering::SeqCst);
                let _ =
                    wire::write_message(&mut writer, wire::KIND_SUB, &[prefix, &req.to_le_bytes()]);
                last_req = req;
            }
            state.flushed_req = last_req;
            state.writer = Some(writer);
            state.handover = Some(read_half);
        }
        // Never connected: receivers observe `Closed`.
        Err(_) => state.failed = true,
    }
    shared.cond.notify_all();
}
