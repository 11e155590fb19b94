//! Property tests of the resumable wire decoder, [`wire::FrameBuf`]:
//!
//! * random multipart messages, fed in chunks split at arbitrary byte
//!   offsets, decode exactly as the blocking [`wire::read_message`] reads
//!   them;
//! * random garbage yields `InvalidData` or "need more", never a panic;
//! * a length prefix above [`wire::MAX_FRAMES`]/[`wire::MAX_FRAME_BYTES`]
//!   is refused as soon as the prefix itself is buffered, before the
//!   bytes it announces.
//!
//! Cases come from a small seeded generator, so every run checks the same
//! cases and a failure names its seed.

use std::io;
use ts_socket::wire::{self, FrameBuf, WireMessage};

const CASES: u64 = 256;

/// SplitMix64: a tiny deterministic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn for_each_case(test: &str, mut body: impl FnMut(&mut Rng)) {
    for case in 0..CASES {
        let seed = case.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ test.len() as u64;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&mut Rng(seed));
        }));
        if let Err(payload) = result {
            eprintln!("case {case} of `{test}` failed (seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// A random message: kind, frame count and frame sizes all vary, with
/// empty frames and frames larger than one read chunk included.
fn random_message(rng: &mut Rng) -> (u8, Vec<Vec<u8>>) {
    let kind = rng.below(4) as u8;
    let nframes = rng.below(6);
    let frames = (0..nframes)
        .map(|_| {
            let len = match rng.below(8) {
                0 => 0,
                1 => 70_000 + rng.below(30_000),
                _ => rng.below(300),
            };
            rng.bytes(len)
        })
        .collect();
    (kind, frames)
}

/// Feeds `stream` to a fresh decoder in chunks cut at random offsets,
/// collecting every message it yields.
fn decode_chunked(rng: &mut Rng, stream: &[u8]) -> io::Result<Vec<WireMessage>> {
    let mut buf = FrameBuf::new();
    let mut out = Vec::new();
    let mut at = 0;
    while at < stream.len() {
        let step = match rng.below(4) {
            0 => 1,
            1 => rng.below(16) + 1,
            _ => rng.below(stream.len() - at) + 1,
        };
        let end = (at + step).min(stream.len());
        buf.extend(&stream[at..end]);
        at = end;
        while let Some(msg) = buf.next_message()? {
            out.push(msg);
        }
    }
    Ok(out)
}

#[test]
fn chunked_decoding_matches_read_message() {
    for_each_case("chunked_decoding_matches_read_message", |rng| {
        let count = rng.below(5) + 1;
        let mut stream = Vec::new();
        for _ in 0..count {
            let (kind, frames) = random_message(rng);
            let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
            stream.extend(wire::encode_message(kind, &refs));
        }
        let mut cursor: &[u8] = &stream;
        let expected: Vec<WireMessage> = (0..count)
            .map(|_| wire::read_message(&mut cursor).unwrap())
            .collect();
        let got = decode_chunked(rng, &stream).unwrap();
        assert_eq!(got, expected);
    });
}

#[test]
fn read_from_resumes_across_short_reads() {
    /// A reader that hands out at most `max` bytes per call.
    struct Trickle<'a> {
        data: &'a [u8],
        max: usize,
    }
    impl io::Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.max.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }
    for_each_case("read_from_resumes_across_short_reads", |rng| {
        let (kind, frames) = random_message(rng);
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let encoded = wire::encode_message(kind, &refs);
        let mut src = Trickle {
            data: &encoded,
            max: rng.below(100_000) + 1,
        };
        let mut buf = FrameBuf::new();
        let msg = loop {
            if let Some(msg) = buf.next_message().unwrap() {
                break msg;
            }
            assert!(buf.read_from(&mut src).unwrap() > 0, "ended mid-message");
        };
        assert_eq!(msg.kind, kind);
        let got: Vec<&[u8]> = msg.frames.iter().map(|f| &f[..]).collect();
        assert_eq!(got, refs);
        assert_eq!(buf.pending(), 0);
    });
}

#[test]
fn garbage_is_invalid_or_incomplete_never_a_panic() {
    for_each_case("garbage_is_invalid_or_incomplete_never_a_panic", |rng| {
        let len = rng.below(64);
        let mut garbage = rng.bytes(len);
        // Keep some length prefixes small enough to be plausible.
        if garbage.len() >= 5 && rng.below(2) == 0 {
            garbage[1..5].copy_from_slice(&(rng.below(4) as u32).to_le_bytes());
        }
        let mut buf = FrameBuf::new();
        buf.extend(&garbage);
        loop {
            match buf.next_message() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    break;
                }
            }
        }
    });
}

#[test]
fn oversized_prefixes_are_refused_before_their_bytes_arrive() {
    // Frame count: refused with only the 5-byte header buffered.
    let mut buf = FrameBuf::new();
    buf.extend(&[wire::KIND_DATA]);
    buf.extend(&(wire::MAX_FRAMES + 1).to_le_bytes());
    assert_eq!(
        buf.next_message().unwrap_err().kind(),
        io::ErrorKind::InvalidData
    );

    // Frame length: refused with only its 4-byte prefix buffered.
    let mut buf = FrameBuf::new();
    buf.extend(&[wire::KIND_DATA]);
    buf.extend(&2u32.to_le_bytes());
    buf.extend(&3u32.to_le_bytes());
    buf.extend(b"abc");
    buf.extend(&(wire::MAX_FRAME_BYTES + 1).to_le_bytes());
    assert_eq!(buf.pending(), 16);
    assert_eq!(
        buf.next_message().unwrap_err().kind(),
        io::ErrorKind::InvalidData
    );

    // At the limits themselves the decoder just waits for more.
    let mut buf = FrameBuf::new();
    buf.extend(&[wire::KIND_DATA]);
    buf.extend(&wire::MAX_FRAMES.to_le_bytes());
    buf.extend(&wire::MAX_FRAME_BYTES.to_le_bytes());
    assert!(buf.next_message().unwrap().is_none());
}
