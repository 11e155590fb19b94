//! Cross-process transports: `ipc://` (Unix domain sockets) and `tcp://`.
//!
//! The in-process broker ([`crate::endpoint`]) keeps its crossbeam-queue
//! fast path for `inproc://` endpoints; this module provides the same
//! socket semantics across OS processes. The per-message path runs on the
//! caller's thread:
//!
//! * **Receiving** (`SubSocket`, `PullSocket`): `recv_timeout`/`try_recv`
//!   `poll(2)` the connection(s) and read them directly into a resumable
//!   [`crate::wire::FrameBuf`]; a `PullSocket` polls its listener along
//!   with every connection and accepts inline. Unread messages wait in the
//!   kernel socket buffer, which bounds the receive side, and in the
//!   socket's small queue of already-decoded messages.
//! * **Sending** (`PubSocket`, `PushSocket`): each message is encoded once
//!   and, while a peer has nothing queued, handed to the kernel inline with
//!   one non-blocking `send`. Only what does not fit — the rest of a
//!   partial write, a message meeting a full kernel buffer, anything a
//!   not-yet-connected pusher sends, and bulk payloads above
//!   `INLINE_MAX_BYTES` — goes to that peer's bounded fallback queue (the
//!   socket's high-water mark), drained by the peer's writer thread. Later
//!   messages queue behind it, so per-peer order holds, and the
//!   publisher's [`crate::SendPolicy`] applies when that queue is full.
//!
//! The remaining threads handle the slow, rare work: accepting subscribers
//! and reading their `SUB`/`UNSUB` requests (`ts-pub-accept`,
//! `ts-pub-reader`), connecting (`ts-sub-conn`, which exits once
//! connected), and draining fallback queues (`ts-pub-writer`,
//! `ts-push-writer`). Either way:
//!
//! * prefix subscriptions are evaluated publisher-side (no payload bytes
//!   move for non-matching topics);
//! * peer disconnects surface as [`crate::RecvError::Closed`] after the
//!   decoded messages drain, exactly like the broker.
//!
//! Bind/connect order does not matter: connectors retry in the background
//! until the listener appears (ZeroMQ semantics).

pub(crate) mod pubsub;
pub(crate) mod pushpull;
mod sys;

use crate::error::SendError;
use crate::wire::FrameBuf;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub(crate) use sys::{poll, PollFd};

/// How long background connectors keep retrying before giving up.
pub(crate) const CONNECT_RETRY_FOR: Duration = Duration::from_secs(30);
/// Poll interval of accept loops and connect retries.
pub(crate) const POLL_EVERY: Duration = Duration::from_millis(2);

/// A parsed endpoint URI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointAddr {
    /// `inproc://name` — the in-process broker (the full URI is the key).
    Inproc(String),
    /// `ipc:///path/to.sock` — a Unix domain socket.
    Ipc(PathBuf),
    /// `tcp://host:port`.
    Tcp(String),
}

impl EndpointAddr {
    /// Parses an endpoint URI. Names with an unknown or missing scheme
    /// resolve to the in-process broker, preserving the pre-transport
    /// behaviour where any string named a broker endpoint.
    pub fn parse(name: &str) -> Result<EndpointAddr, SendError> {
        if let Some(path) = name.strip_prefix("ipc://") {
            if path.is_empty() {
                return Err(SendError::InvalidEndpoint(name.to_string()));
            }
            return Ok(EndpointAddr::Ipc(PathBuf::from(path)));
        }
        if let Some(hostport) = name.strip_prefix("tcp://") {
            let Some((host, port)) = hostport.rsplit_once(':') else {
                return Err(SendError::InvalidEndpoint(name.to_string()));
            };
            if host.is_empty() || port.parse::<u16>().is_err() {
                return Err(SendError::InvalidEndpoint(name.to_string()));
            }
            return Ok(EndpointAddr::Tcp(hostport.to_string()));
        }
        Ok(EndpointAddr::Inproc(name.to_string()))
    }

    /// True for the in-process broker.
    pub fn is_inproc(&self) -> bool {
        matches!(self, EndpointAddr::Inproc(_))
    }
}

/// A connected stream of either family.
#[derive(Debug)]
pub(crate) enum AnyStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl AnyStream {
    pub(crate) fn try_clone(&self) -> io::Result<AnyStream> {
        Ok(match self {
            AnyStream::Tcp(s) => AnyStream::Tcp(s.try_clone()?),
            AnyStream::Unix(s) => AnyStream::Unix(s.try_clone()?),
        })
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            AnyStream::Tcp(s) => s.as_raw_fd(),
            AnyStream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Interest in this stream's readability, for [`poll`].
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::readable(self.raw_fd())
    }

    /// One read into `buf` after `poll` reported the stream ready; false
    /// once the stream has ended or failed.
    pub(crate) fn read_into(&mut self, buf: &mut FrameBuf) -> bool {
        match buf.read_from(self) {
            Ok(n) => n > 0,
            Err(e) => matches!(
                e.kind(),
                io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
            ),
        }
    }

    /// Shuts down both directions, unblocking any reader thread.
    pub(crate) fn shutdown(&self) {
        match self {
            AnyStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            AnyStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn connect_once(addr: &EndpointAddr) -> io::Result<AnyStream> {
        match addr {
            EndpointAddr::Tcp(hostport) => {
                let s = TcpStream::connect(hostport)?;
                s.set_nodelay(true).ok();
                Ok(AnyStream::Tcp(s))
            }
            EndpointAddr::Ipc(path) => Ok(AnyStream::Unix(UnixStream::connect(path)?)),
            EndpointAddr::Inproc(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "inproc endpoints use the broker",
            )),
        }
    }

    /// Connects with ZeroMQ-style patience: retries until the listener
    /// appears, the deadline passes, or `give_up` returns true.
    pub(crate) fn connect_retry(
        addr: &EndpointAddr,
        timeout: Duration,
        give_up: impl Fn() -> bool,
    ) -> io::Result<AnyStream> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect_once(addr) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    if give_up() {
                        return Err(io::Error::new(io::ErrorKind::Interrupted, "socket dropped"));
                    }
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(POLL_EVERY);
                }
            }
        }
    }
}

impl io::Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

/// Largest message an [`Outbox`] sends on the caller's thread. Control
/// messages and shm announces (a few hundred bytes) stay far below it.
/// Bulk payloads (streamed batches) go through the writer thread even
/// when nothing is queued: one publisher serving N peers would otherwise
/// copy N payloads into the kernel serially on its own thread, where the
/// writer threads copy them in parallel. Measured on 2 vCPUs with 393 KiB
/// streamed batches to 2 `tcp://` peers: inline, 1.5 ms of CPU per batch
/// and 26k samples/s per peer; through the writer threads, 0.7 ms and
/// 72k.
const INLINE_MAX_BYTES: usize = 64 << 10;

/// An encoded message, or the unsent rest of one, awaiting a writer
/// thread.
struct Chunk {
    bytes: Arc<Vec<u8>>,
    from: usize,
}

/// What became of a message offered to an [`Outbox`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    /// Accepted: in the kernel, or queued for the writer thread.
    Taken,
    /// Not blocking and the fallback queue is at its high-water mark.
    Full,
    /// The connection is gone.
    Dead,
}

/// State an [`Outbox`] shares with its writer thread.
struct OutboxShared {
    /// The connection, once there is one (a pusher connects late).
    conn: OnceLock<AnyStream>,
    /// Chunks handed to the writer and not yet fully written. While it is
    /// non-zero only the writer touches the connection, which keeps the
    /// byte stream in order.
    backlog: AtomicUsize,
}

/// One peer's outgoing side: inline non-blocking sends while nothing is
/// queued, and a bounded fallback queue drained by a writer thread for
/// whatever does not fit.
pub(crate) struct Outbox {
    shared: Arc<OutboxShared>,
    /// Serialises the inline-or-queue decision (and the inline send).
    order: Mutex<()>,
    tx: Sender<Chunk>,
}

impl Outbox {
    /// An outbox with a `hwm`-deep fallback queue, plus the writer half to
    /// run with [`OutboxWriter::run`] on a thread of its own.
    pub(crate) fn new(hwm: usize) -> (Outbox, OutboxWriter) {
        let (tx, rx) = channel::bounded(hwm.max(1));
        let shared = Arc::new(OutboxShared {
            conn: OnceLock::new(),
            backlog: AtomicUsize::new(0),
        });
        let writer = OutboxWriter {
            shared: shared.clone(),
            rx,
        };
        let outbox = Outbox {
            shared,
            order: Mutex::new(()),
            tx,
        };
        (outbox, writer)
    }

    /// Offers one encoded message: sent inline when it is small and
    /// nothing is queued, else queued for the writer thread. `block`
    /// waits for room in a full fallback queue instead of reporting
    /// [`Offer::Full`].
    pub(crate) fn offer(&self, bytes: &Arc<Vec<u8>>, block: bool) -> Offer {
        let _order = self.order.lock().expect("outbox order");
        let mut from = 0;
        if bytes.len() <= INLINE_MAX_BYTES && self.shared.backlog.load(Ordering::SeqCst) == 0 {
            if let Some(conn) = self.shared.conn.get() {
                match sys::send_nonblocking(conn.raw_fd(), bytes) {
                    Ok(n) if n == bytes.len() => return Offer::Taken,
                    // The rest goes first; the queue is empty, so it fits.
                    Ok(n) => from = n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => return Offer::Dead,
                }
            }
        }
        let chunk = Chunk {
            bytes: bytes.clone(),
            from,
        };
        self.shared.backlog.fetch_add(1, Ordering::SeqCst);
        let queued = if block || from > 0 {
            self.tx.send(chunk).map_err(|_| Offer::Dead)
        } else {
            self.tx.try_send(chunk).map_err(|e| match e {
                TrySendError::Full(_) => Offer::Full,
                TrySendError::Disconnected(_) => Offer::Dead,
            })
        };
        match queued {
            Ok(()) => Offer::Taken,
            Err(offer) => {
                self.shared.backlog.fetch_sub(1, Ordering::SeqCst);
                offer
            }
        }
    }

    /// True while queued bytes have not reached the kernel yet.
    pub(crate) fn has_backlog(&self) -> bool {
        self.shared.backlog.load(Ordering::SeqCst) > 0
    }
}

/// The writer-thread half of an [`Outbox`].
pub(crate) struct OutboxWriter {
    shared: Arc<OutboxShared>,
    rx: Receiver<Chunk>,
}

impl OutboxWriter {
    /// Publishes the connection to the inline path, then writes queued
    /// chunks until the [`Outbox`] is dropped or the connection fails.
    /// Blocking writes here are what carry a slow peer's backpressure.
    pub(crate) fn run(self, mut conn: AnyStream) {
        if let Ok(inline) = conn.try_clone() {
            let _ = self.shared.conn.set(inline);
        }
        while let Ok(chunk) = self.rx.recv() {
            if conn.write_all(&chunk.bytes[chunk.from..]).is_err() {
                break;
            }
            self.shared.backlog.fetch_sub(1, Ordering::SeqCst);
        }
        conn.shutdown();
    }
}

/// A bound listener of either family. Non-blocking so accept loops can
/// observe a stop flag.
pub(crate) enum AnyListener {
    Tcp(TcpListener),
    /// Keeps the socket path so drop can unlink it.
    Unix(UnixListener, PathBuf),
}

impl AnyListener {
    pub(crate) fn bind(addr: &EndpointAddr) -> Result<AnyListener, SendError> {
        match addr {
            EndpointAddr::Tcp(hostport) => {
                let l = TcpListener::bind(hostport)
                    .map_err(|e| bind_error(&format!("tcp://{hostport}"), e))?;
                l.set_nonblocking(true)
                    .map_err(|e| SendError::Io(e.to_string()))?;
                Ok(AnyListener::Tcp(l))
            }
            EndpointAddr::Ipc(path) => {
                // A leftover socket file from a dead process would make
                // bind fail forever; only an active listener should.
                if UnixStream::connect(path).is_err() {
                    let _ = std::fs::remove_file(path);
                }
                let l = UnixListener::bind(path)
                    .map_err(|e| bind_error(&format!("ipc://{}", path.display()), e))?;
                l.set_nonblocking(true)
                    .map_err(|e| SendError::Io(e.to_string()))?;
                Ok(AnyListener::Unix(l, path.clone()))
            }
            EndpointAddr::Inproc(name) => Err(SendError::InvalidEndpoint(name.clone())),
        }
    }

    /// Interest in a pending connection, for [`poll`].
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::readable(match self {
            AnyListener::Tcp(l) => l.as_raw_fd(),
            AnyListener::Unix(l, _) => l.as_raw_fd(),
        })
    }

    /// One accept attempt; `Ok(None)` when no connection is pending.
    pub(crate) fn accept(&self) -> io::Result<Option<AnyStream>> {
        match self {
            AnyListener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true).ok();
                    s.set_nonblocking(false)?;
                    Ok(Some(AnyStream::Tcp(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            AnyListener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(AnyStream::Unix(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }

    /// The concrete local address (resolves `tcp://host:0` to the real
    /// port).
    pub(crate) fn local_endpoint(&self) -> Option<String> {
        match self {
            AnyListener::Tcp(l) => l.local_addr().ok().map(|a| format!("tcp://{a}")),
            AnyListener::Unix(_, path) => Some(format!("ipc://{}", path.display())),
        }
    }
}

impl Drop for AnyListener {
    fn drop(&mut self) {
        if let AnyListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn bind_error(endpoint: &str, e: io::Error) -> SendError {
    if e.kind() == io::ErrorKind::AddrInUse {
        SendError::AddrInUse(endpoint.to_string())
    } else {
        SendError::Io(format!("bind {endpoint}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_schemes() {
        assert_eq!(
            EndpointAddr::parse("inproc://x").unwrap(),
            EndpointAddr::Inproc("inproc://x".into())
        );
        assert_eq!(
            EndpointAddr::parse("ipc:///tmp/a.sock").unwrap(),
            EndpointAddr::Ipc(PathBuf::from("/tmp/a.sock"))
        );
        assert_eq!(
            EndpointAddr::parse("tcp://127.0.0.1:5555").unwrap(),
            EndpointAddr::Tcp("127.0.0.1:5555".into())
        );
        // bare names stay broker keys (back-compat)
        assert!(EndpointAddr::parse("just-a-name").unwrap().is_inproc());
        // malformed remote URIs are rejected
        assert!(EndpointAddr::parse("tcp://nohostport").is_err());
        assert!(EndpointAddr::parse("tcp://host:notaport").is_err());
        assert!(EndpointAddr::parse("ipc://").is_err());
    }

    #[test]
    fn stale_ipc_socket_file_is_reclaimed() {
        let path = std::env::temp_dir().join(format!("ts-sock-stale-{}.sock", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let addr = EndpointAddr::Ipc(path.clone());
        let l = AnyListener::bind(&addr).unwrap();
        drop(l);
        assert!(!path.exists(), "listener drop unlinks the socket file");
    }
}
