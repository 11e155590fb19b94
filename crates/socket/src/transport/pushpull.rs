//! PUSH/PULL over `ipc://`/`tcp://` streams.
//!
//! The puller binds and accepts many pushers (fan-in). It has no threads:
//! `recv_timeout`/`try_recv` poll the listener together with every
//! connection, accept inline, and decode whatever the connections have.
//! Each pusher sends through an [`Outbox`]: inline while nothing is
//! queued, otherwise through a bounded queue drained by its writer thread,
//! so `send` applies HWM backpressure and `try_send` reports `Full`
//! exactly like the broker path. A pusher that connects before the puller
//! binds simply queues — its writer thread retries the connect in the
//! background.

use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::transport::{
    poll, AnyListener, AnyStream, EndpointAddr, Offer, Outbox, PollFd, CONNECT_RETRY_FOR,
};
use crate::wire::{self, FrameBuf};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct PullConn {
    stream: AnyStream,
    buf: FrameBuf,
}

/// The receive side, driven by whichever thread is receiving.
struct PullState {
    /// `None` once accepting failed; no new pushers after that.
    listener: Option<AnyListener>,
    conns: Vec<PullConn>,
    /// Decoded messages not yet returned.
    ready: VecDeque<Multipart>,
    fds: Vec<PollFd>,
}

/// The stream-transport receiving side.
pub(crate) struct StreamPull {
    state: Mutex<PullState>,
    /// `state.ready.len()`, readable while another thread receives.
    ready_len: AtomicUsize,
    endpoint: String,
}

impl StreamPull {
    pub(crate) fn bind(addr: &EndpointAddr, endpoint: &str) -> Result<StreamPull, SendError> {
        let listener = AnyListener::bind(addr)?;
        let endpoint = listener
            .local_endpoint()
            .unwrap_or_else(|| endpoint.to_string());
        Ok(StreamPull {
            state: Mutex::new(PullState {
                listener: Some(listener),
                conns: Vec::new(),
                ready: VecDeque::new(),
                fds: Vec::new(),
            }),
            ready_len: AtomicUsize::new(0),
            endpoint,
        })
    }

    pub(crate) fn endpoint(&self) -> &str {
        &self.endpoint
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Multipart, RecvError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("pull state");
        loop {
            if let Some(m) = state.ready.pop_front() {
                self.ready_len.fetch_sub(1, Ordering::SeqCst);
                return Ok(m);
            }
            if state.listener.is_none() && state.conns.is_empty() {
                return Err(RecvError::Closed);
            }
            let now = Instant::now();
            // A zero timeout still takes one non-blocking look.
            if now >= deadline && !timeout.is_zero() {
                return Err(RecvError::Timeout);
            }
            self.pump(&mut state, deadline.saturating_duration_since(now));
            if timeout.is_zero() && state.ready.is_empty() {
                return Err(RecvError::Timeout);
            }
        }
    }

    pub(crate) fn try_recv(&self) -> Result<Option<Multipart>, RecvError> {
        match self.recv_timeout(Duration::ZERO) {
            Ok(m) => Ok(Some(m)),
            Err(RecvError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Decoded messages waiting for `recv` (not kernel-buffered bytes).
    pub(crate) fn queued(&self) -> usize {
        self.ready_len.load(Ordering::SeqCst)
    }

    /// One `poll` over the listener and every connection (waiting up to
    /// `wait`): accepts pending pushers, reads every ready connection and
    /// decodes its whole messages into `ready`. Connections that ended or
    /// sent malformed framing are dropped.
    fn pump(&self, state: &mut PullState, wait: Duration) {
        let PullState {
            listener,
            conns,
            ready,
            fds,
        } = state;
        fds.clear();
        fds.extend(listener.iter().map(AnyListener::poll_fd));
        fds.extend(conns.iter().map(|c| c.stream.poll_fd()));
        if !matches!(poll(fds, wait), Ok(n) if n > 0) {
            return;
        }
        let (listener_fd, conn_fds) = fds.split_at(listener.is_some() as usize);
        let mut fd = conn_fds.iter();
        conns.retain_mut(|conn| {
            !fd.next().is_some_and(PollFd::ready) || read_conn(conn, ready, &self.ready_len)
        });
        if listener_fd.first().is_some_and(PollFd::ready) {
            // Accept everything pending; new connections are read on the
            // next pass.
            loop {
                match listener.as_ref().map(AnyListener::accept) {
                    Some(Ok(Some(stream))) => conns.push(PullConn {
                        stream,
                        buf: FrameBuf::new(),
                    }),
                    Some(Ok(None)) | None => break,
                    Some(Err(_)) => {
                        *listener = None;
                        break;
                    }
                }
            }
        }
    }
}

/// Reads one ready connection and decodes its whole messages; false when
/// the connection is finished.
fn read_conn(
    conn: &mut PullConn,
    ready: &mut VecDeque<Multipart>,
    ready_len: &AtomicUsize,
) -> bool {
    if !conn.stream.read_into(&mut conn.buf) {
        return false;
    }
    loop {
        match conn.buf.next_message() {
            Ok(Some(msg)) => {
                if let Some(payload) = msg.into_payload() {
                    ready.push_back(payload);
                    ready_len.fetch_add(1, Ordering::SeqCst);
                }
            }
            Ok(None) => return true,
            Err(_) => return false,
        }
    }
}

// ---------------------------------------------------------------------------
// push side
// ---------------------------------------------------------------------------

/// The stream-transport sending side.
pub(crate) struct StreamPush {
    outbox: Outbox,
    stop: Arc<AtomicBool>,
}

impl StreamPush {
    pub(crate) fn connect(addr: EndpointAddr, hwm: usize) -> StreamPush {
        let (outbox, writer) = Outbox::new(hwm);
        let stop = Arc::new(AtomicBool::new(false));
        let give_up = stop.clone();
        std::thread::Builder::new()
            .name("ts-push-writer".into())
            .spawn(move || {
                // On failure the writer half drops: senders observe
                // `Disconnected`.
                if let Ok(conn) = AnyStream::connect_retry(&addr, CONNECT_RETRY_FOR, || {
                    give_up.load(Ordering::SeqCst)
                }) {
                    writer.run(conn);
                }
            })
            .expect("spawn push writer");
        StreamPush { outbox, stop }
    }

    pub(crate) fn send(&self, msg: Multipart) -> Result<(), SendError> {
        self.offer(msg, true)
    }

    pub(crate) fn try_send(&self, msg: Multipart) -> Result<(), SendError> {
        self.offer(msg, false)
    }

    fn offer(&self, msg: Multipart, block: bool) -> Result<(), SendError> {
        match self.outbox.offer(&Arc::new(wire::encode_data(&msg)), block) {
            Offer::Taken => Ok(()),
            Offer::Full => Err(SendError::Full),
            Offer::Dead => Err(SendError::Disconnected),
        }
    }
}

impl Drop for StreamPush {
    fn drop(&mut self) {
        // Abort a pending connect; a live writer drains the queue (the
        // outbox closing wakes it) and then exits.
        self.stop.store(true, Ordering::SeqCst);
    }
}
