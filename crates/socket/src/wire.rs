//! Length-prefixed multipart wire framing for `ipc://` and `tcp://`
//! endpoints.
//!
//! Every message on a stream is
//!
//! ```text
//! [kind: u8] [nframes: u32le] ( [len: u32le] [bytes...] )*
//! ```
//!
//! Frame boundaries are preserved exactly — a [`crate::Multipart`] arrives
//! with the same frame count it was sent with, like ZeroMQ multipart
//! messages. The `kind` byte multiplexes data and subscription control on
//! one connection:
//!
//! * [`KIND_DATA`] — a payload message. On PUB/SUB connections frame 0 is
//!   the topic; on PUSH/PULL connections all frames are payload.
//! * [`KIND_SUB`] / [`KIND_UNSUB`] — subscriber → publisher prefix
//!   (un)registration. `SUB` carries `[prefix, req_id: u64le]` and is
//!   acknowledged.
//! * [`KIND_SUBACK`] — publisher → subscriber: `[req_id: u64le]`, sent
//!   once the prefix is registered. `SubSocket::subscribe` blocks on this
//!   so a subsequent control-plane message (e.g. TensorSocket's `Ready`)
//!   can never overtake the subscription it depends on.

use crate::frame::Multipart;
use bytes::Bytes;
use std::io::{self, Read, Write};

/// Payload message.
pub const KIND_DATA: u8 = 0;
/// Subscribe request (prefix + request id).
pub const KIND_SUB: u8 = 1;
/// Unsubscribe request (prefix).
pub const KIND_UNSUB: u8 = 2;
/// Subscribe acknowledgement (request id).
pub const KIND_SUBACK: u8 = 3;

/// Upper bound on a single frame; protects a reader from a corrupt or
/// hostile length prefix. Payloads ride in shared memory, so real frames
/// are tiny metadata — 256 MiB is beyond generous.
pub const MAX_FRAME_BYTES: u32 = 256 << 20;

/// Upper bound on frames per message.
pub const MAX_FRAMES: u32 = 4096;

/// A message as read off a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMessage {
    /// Message kind ([`KIND_DATA`], [`KIND_SUB`], ...).
    pub kind: u8,
    /// The frames, boundaries preserved.
    pub frames: Vec<Bytes>,
}

impl WireMessage {
    /// Interprets a PUB/SUB data message as `(topic, payload frames)`.
    pub fn into_topic_and_payload(self) -> Option<(Bytes, Multipart)> {
        if self.kind != KIND_DATA || self.frames.is_empty() {
            return None;
        }
        let mut frames = self.frames;
        let topic = frames.remove(0);
        Some((topic, Multipart::from_frames(frames)))
    }

    /// Interprets a PUSH/PULL data message as payload frames.
    pub fn into_payload(self) -> Option<Multipart> {
        if self.kind != KIND_DATA {
            return None;
        }
        Some(Multipart::from_frames(self.frames))
    }
}

/// Serializes one message into a single buffer, so one `send` carries it
/// whole and concurrent writers on a shared stream cannot interleave
/// frames.
pub fn encode_message(kind: u8, frames: &[&[u8]]) -> Vec<u8> {
    encode_frames(kind, frames.iter().copied())
}

/// Encodes a PUB/SUB data message: topic frame + payload frames.
pub fn encode_topic_data(topic: &[u8], msg: &Multipart) -> Vec<u8> {
    encode_frames(
        KIND_DATA,
        std::iter::once(topic).chain(msg.frames().iter().map(|b| &b[..])),
    )
}

/// Encodes a PUSH/PULL data message: payload frames only.
pub fn encode_data(msg: &Multipart) -> Vec<u8> {
    encode_frames(KIND_DATA, msg.frames().iter().map(|b| &b[..]))
}

fn encode_frames<'a>(kind: u8, frames: impl Iterator<Item = &'a [u8]> + Clone) -> Vec<u8> {
    let (count, payload) = frames
        .clone()
        .fold((0usize, 0usize), |(n, len), f| (n + 1, len + 4 + f.len()));
    let mut out = Vec::with_capacity(5 + payload);
    out.push(kind);
    out.extend_from_slice(&(count as u32).to_le_bytes());
    for f in frames {
        out.extend_from_slice(&(f.len() as u32).to_le_bytes());
        out.extend_from_slice(f);
    }
    out
}

/// Writes one message to `w` (flushes).
pub fn write_message(w: &mut impl Write, kind: u8, frames: &[&[u8]]) -> io::Result<()> {
    w.write_all(&encode_message(kind, frames))?;
    w.flush()
}

fn read_exact_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads one message from `r`. `Err(UnexpectedEof)` on a cleanly closed
/// peer (between messages) and `Err(InvalidData)` on malformed framing.
pub fn read_message(r: &mut impl Read) -> io::Result<WireMessage> {
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let nframes = read_exact_u32(r)?;
    if nframes > MAX_FRAMES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame count {nframes} exceeds limit"),
        ));
    }
    let mut frames = Vec::with_capacity(nframes as usize);
    for _ in 0..nframes {
        let len = read_exact_u32(r)?;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit"),
            ));
        }
        let mut buf = vec![0u8; len as usize];
        r.read_exact(&mut buf)?;
        frames.push(Bytes::from(buf));
    }
    Ok(WireMessage {
        kind: kind[0],
        frames,
    })
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Smallest read [`FrameBuf::read_from`] offers the kernel.
const READ_CHUNK: usize = 8 << 10;

/// A resumable decoder for the framing above: bytes go in as they arrive,
/// in chunks of any size, and whole messages come out.
///
/// This is what lets a receiver read its socket on its own thread with a
/// bounded wait: a read that stops mid-frame keeps the partial bytes here,
/// and the next call completes the message. Length prefixes are checked
/// against [`MAX_FRAMES`]/[`MAX_FRAME_BYTES`] as soon as they are
/// buffered, before any space is reserved for what they announce.
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// Received bytes; `buf[head..tail]` is not yet decoded.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// Total bytes the message at `head` needs, once its header says so.
    want: usize,
}

impl FrameBuf {
    /// An empty decoder.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.tail - self.head
    }

    /// Appends received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.tail..self.tail + bytes.len()].copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// One `read` from `r` into the buffer, sized to finish the message in
    /// progress when its length is known. `Ok(0)` means end of stream.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let room = self.want.saturating_sub(self.pending()).max(READ_CHUNK);
        self.reserve(room);
        let n = r.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// Makes room for `extra` bytes past `tail`, compacting first.
    fn reserve(&mut self, extra: usize) {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        if self.buf.len() - self.tail >= extra {
            return;
        }
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() - self.tail < extra {
            self.buf.resize(self.tail + extra, 0);
        }
    }

    /// Decodes the next whole message. `Ok(None)` means more bytes are
    /// needed; `Err(InvalidData)` means the stream is malformed and should
    /// be dropped.
    pub fn next_message(&mut self) -> io::Result<Option<WireMessage>> {
        let data = &self.buf[self.head..self.tail];
        let spans = match scan(data)? {
            Scan::Complete(spans) => spans,
            Scan::Need(want) => {
                self.want = want;
                return Ok(None);
            }
        };
        let frames = spans
            .iter()
            .map(|&(at, len)| Bytes::copy_from_slice(&data[at..at + len]))
            .collect();
        let msg = WireMessage {
            kind: data[0],
            frames,
        };
        self.head += spans.last().map_or(5, |&(at, len)| at + len);
        self.want = 0;
        Ok(Some(msg))
    }
}

enum Scan {
    /// `(offset, len)` of every frame of the message at the start.
    Complete(Vec<(usize, usize)>),
    /// Incomplete: at least this many bytes are needed.
    Need(usize),
}

/// Locates the frames of the message at the start of `data`, validating
/// each length prefix as soon as it is present.
fn scan(data: &[u8]) -> io::Result<Scan> {
    let u32_at = |at: usize| -> Option<u32> {
        let b = data.get(at..at + 4)?;
        Some(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    };
    let Some(nframes) = u32_at(1) else {
        return Ok(Scan::Need(5));
    };
    if nframes > MAX_FRAMES {
        return Err(invalid(format!("frame count {nframes} exceeds limit")));
    }
    let mut spans = Vec::with_capacity(nframes.min(16) as usize);
    let mut at = 5usize;
    for _ in 0..nframes {
        let Some(len) = u32_at(at) else {
            return Ok(Scan::Need(at + 4));
        };
        if len > MAX_FRAME_BYTES {
            return Err(invalid(format!("frame of {len} bytes exceeds limit")));
        }
        spans.push((at + 4, len as usize));
        at += 4 + len as usize;
    }
    if data.len() < at {
        return Ok(Scan::Need(at));
    }
    Ok(Scan::Complete(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_frame_boundaries() {
        let msg = Multipart::from_frames(vec![
            Bytes::from_static(b"alpha"),
            Bytes::new(),
            Bytes::from_static(b"c"),
        ]);
        let buf = encode_topic_data(b"topic/1", &msg);
        let mut cursor: &[u8] = &buf;
        let wire = read_message(&mut cursor).unwrap();
        assert_eq!(wire.kind, KIND_DATA);
        let (topic, got) = wire.into_topic_and_payload().unwrap();
        assert_eq!(&topic[..], b"topic/1");
        assert_eq!(got.len(), 3);
        assert_eq!(&got.frames()[0][..], b"alpha");
        assert!(got.frames()[1].is_empty());
        assert_eq!(&got.frames()[2][..], b"c");
        assert!(cursor.is_empty());
    }

    #[test]
    fn back_to_back_messages() {
        let mut buf = Vec::new();
        write_message(&mut buf, KIND_SUB, &[b"prefix", &7u64.to_le_bytes()]).unwrap();
        buf.extend(encode_data(&Multipart::single(Bytes::from_static(b"x"))));
        let mut cursor: &[u8] = &buf;
        let first = read_message(&mut cursor).unwrap();
        assert_eq!(first.kind, KIND_SUB);
        assert_eq!(&first.frames[0][..], b"prefix");
        let second = read_message(&mut cursor).unwrap();
        assert_eq!(second.into_payload().unwrap().byte_len(), 1);
    }

    #[test]
    fn truncation_is_eof() {
        let mut buf = encode_data(&Multipart::single(Bytes::from_static(b"hello")));
        buf.truncate(buf.len() - 2);
        let mut cursor: &[u8] = &buf;
        assert_eq!(
            read_message(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_frames_rejected() {
        let mut buf = vec![KIND_DATA];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let mut cursor: &[u8] = &buf;
        assert_eq!(
            read_message(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
