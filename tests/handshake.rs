//! Attach-handshake failure modes, under both `ipc://` and `tcp://`:
//! every mismatch must surface **promptly** as its typed
//! [`HandshakeError`] — never as a hang, and never as a consumer silently
//! training on the wrong topology.
//!
//! * **version skew** — a producer whose WELCOME carries another
//!   handshake version, newer or older, is refused with
//!   [`HandshakeError::Version`] carrying both versions (and a producer
//!   answers every HELLO in its own version);
//! * **`shards` override mismatch** — a consumer that insists on a shard
//!   count the producer does not advertise gets
//!   [`HandshakeError::Topology`];
//! * **unopenable arena** — the producer advertises a shared-memory
//!   arena whose backing file the consumer cannot map (stale path,
//!   different host). A consumer pinned to shm payloads gets
//!   [`HandshakeError::ArenaMissing`]; an unpinned consumer negotiates
//!   down to streamed payloads and still attaches (the remote-host
//!   shape);
//! * **ungranted payload mode** — a consumer forcing streamed payloads
//!   from a flexible-batch producer (which only grants shm) gets
//!   [`HandshakeError::Mode`] with the producer's grant mask.
//!
//! Each case is timeout-guarded: the error must arrive well inside the
//! guard, proving the failure path is a fast typed reply, not a timeout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensorsocket::protocol::messages::topics;
use tensorsocket::{
    caps, Consumer, CtrlMsg, DataMsg, HandshakeError, PayloadMode, Producer, ProducerConfig,
    TsContext, TsError, WelcomeInfo, HANDSHAKE_VERSION,
};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
use ts_socket::{EndpointMap, Multipart, PubSocket, PullSocket, PushSocket, SubSocket};

const GUARD: Duration = Duration::from_secs(20);

fn loader(shards: usize) -> Vec<DataLoader> {
    DataLoader::sharded(
        Arc::new(SyntheticImageDataset::new(64, 8, 8, 3).with_encoded_len(256)),
        DataLoaderConfig {
            batch_size: 4,
            num_workers: 0,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
        shards,
    )
}

fn producer_cfg(endpoint: &str) -> ProducerConfig {
    ProducerConfig {
        endpoint: endpoint.to_string(),
        epochs: 1,
        heartbeat_timeout: Duration::from_secs(2),
        first_consumer_timeout: Some(Duration::from_secs(30)),
        ..Default::default()
    }
}

/// One `(scheme-tag, endpoint)` per transport under test. `port_slot`
/// spaces tcp tests apart (each sharded topology claims several
/// consecutive ports).
fn endpoints(tag: &str, port_slot: u16) -> Vec<(&'static str, String)> {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    vec![
        (
            "ipc",
            format!(
                "ipc://{}",
                tmp.join(format!("ts-hs-{tag}-{pid}.sock")).display()
            ),
        ),
        (
            "tcp",
            format!("tcp://127.0.0.1:{}", 43_800 + port_slot * 16),
        ),
    ]
}

/// Runs `connect` under the hang guard, returning the typed error and
/// how long it took to surface.
fn expect_error(connect: impl FnOnce() -> tensorsocket::Result<Consumer>) -> (TsError, Duration) {
    let started = Instant::now();
    let err = connect().expect_err("handshake must fail");
    let elapsed = started.elapsed();
    assert!(
        elapsed < GUARD,
        "typed error took {elapsed:?}; the failure path must not degenerate into a timeout"
    );
    (err, elapsed)
}

/// Serves a fake producer on `ep` that answers every HELLO with a
/// WELCOME carrying handshake version `theirs`, connects a real consumer
/// and asserts the typed version refusal.
fn assert_version_refused(scheme: &str, ep: &str, theirs: u32) {
    let ctx = TsContext::host_only();
    let map = EndpointMap::new(ep, 1);
    let publisher = PubSocket::bind(&ctx.sockets, &map.data(0)).expect("bind fake data");
    let ctrl = PullSocket::bind(&ctx.sockets, &map.ctrl(0)).expect("bind fake ctrl");
    let stop = Arc::new(AtomicBool::new(false));
    let fake = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let Ok(msg) = ctrl.recv_timeout(Duration::from_millis(50)) else {
                    continue;
                };
                let Ok(CtrlMsg::Hello { token, .. }) = CtrlMsg::decode(&msg.frames()[0]) else {
                    continue;
                };
                let welcome = DataMsg::Welcome {
                    token,
                    info: WelcomeInfo {
                        version: theirs,
                        shards: 1,
                        batch_size: 4,
                        flex_producer_batch: 0,
                        staging: 0,
                        arena: None,
                        endpoint_overrides: Vec::new(),
                        payload_modes: caps::KNOWN,
                        log: None,
                    },
                };
                let _ = publisher.send(&topics::hello(token), Multipart::single(welcome.encode()));
            }
        })
    };
    let (err, _) = expect_error(|| Consumer::builder().handshake_timeout(GUARD).connect(ep));
    assert_eq!(
        err,
        TsError::Handshake(HandshakeError::Version {
            ours: HANDSHAKE_VERSION,
            theirs,
        }),
        "{scheme}: wrong error"
    );
    stop.store(true, Ordering::Relaxed);
    fake.join().expect("fake producer");
}

#[test]
fn version_skew_yields_typed_error_promptly() {
    // A producer from a newer build answers in its own version.
    for (scheme, ep) in endpoints("ver", 0) {
        assert_version_refused(scheme, &ep, HANDSHAKE_VERSION + 1);
    }
}

#[test]
fn older_producer_version_yields_typed_error_promptly() {
    // The rolling-upgrade direction: a producer still running the
    // previous build is refused too. There is one wire dialect, so no
    // downgrade is negotiated.
    for (scheme, ep) in endpoints("old", 6) {
        assert_version_refused(scheme, &ep, HANDSHAKE_VERSION - 1);
    }
}

#[test]
fn producer_answers_any_hello_version_in_its_own() {
    // The producer side of the single-version contract: a HELLO from a
    // peer of another version gets a WELCOME stamped with the producer's
    // own version (the peer refuses it), and answering never registers
    // the peer as a consumer — a real consumer afterwards streams the
    // whole epoch (through the arena: its context is not the producer's).
    for (scheme, ep) in endpoints("answer", 7) {
        let arena_path = std::env::temp_dir().join(format!(
            "ts-hs-answer-{scheme}-{}.arena",
            std::process::id()
        ));
        let producer = Producer::builder()
            .config(producer_cfg(&ep))
            .arena(&arena_path)
            .spawn(loader(1).remove(0))
            .expect("spawn producer");
        let ctx = TsContext::host_only();
        let map = EndpointMap::new(ep.as_str(), 1);
        let push = PushSocket::connect(&ctx.sockets, &map.ctrl(0));
        let sub = SubSocket::connect(&ctx.sockets, &map.data(0));
        for (token, version) in [
            (11u64, 0u32),
            (12, HANDSHAKE_VERSION - 1),
            (13, HANDSHAKE_VERSION + 1),
        ] {
            sub.subscribe(&topics::hello(token));
            let hello = CtrlMsg::Hello {
                token,
                version,
                caps: caps::KNOWN,
            }
            .encode();
            let deadline = Instant::now() + GUARD;
            let info = loop {
                assert!(
                    Instant::now() < deadline,
                    "{scheme}: no WELCOME for a v{version} HELLO"
                );
                let _ = push.send(Multipart::single(hello.clone()));
                let Ok((_, msg)) = sub.recv_timeout(Duration::from_millis(50)) else {
                    continue;
                };
                match DataMsg::decode(&msg.frames()[0]) {
                    Ok(DataMsg::Welcome { token: t, info }) if t == token => break info,
                    _ => continue,
                }
            };
            assert_eq!(
                info.version, HANDSHAKE_VERSION,
                "{scheme}: a v{version} HELLO is answered in the producer's own version"
            );
        }
        let mut consumer = Consumer::builder()
            .handshake_timeout(GUARD)
            .recv_timeout(Duration::from_secs(10))
            .heartbeat_interval(Duration::from_millis(50))
            .connect(&ep)
            .expect("consumer attaches after foreign HELLOs");
        let mut batches = 0;
        for b in consumer.by_ref() {
            b.expect("clean stream");
            batches += 1;
        }
        assert_eq!(batches, 16, "{scheme}: full epoch");
        producer.join().expect("producer join");
    }
}

#[test]
fn shards_override_mismatch_yields_typed_error_promptly() {
    for (scheme, ep) in endpoints("topo", 1) {
        let producer = Producer::builder()
            .config(producer_cfg(&ep))
            .spawn_sharded(loader(2))
            .expect("spawn sharded producer");
        let (err, _) = expect_error(|| {
            Consumer::builder()
                .shards(5)
                .handshake_timeout(GUARD)
                .connect(&ep)
        });
        assert_eq!(
            err,
            TsError::Handshake(HandshakeError::Topology {
                requested: 5,
                advertised: 2,
            }),
            "{scheme}: wrong error"
        );
        producer.abort();
        producer.join().expect("producer join");
    }
}

#[test]
fn unopenable_arena_yields_typed_error_promptly() {
    for (scheme, ep) in endpoints("arena", 2) {
        let arena_path =
            std::env::temp_dir().join(format!("ts-hs-arena-{scheme}-{}.arena", std::process::id()));
        let producer = Producer::builder()
            .config(producer_cfg(&ep))
            .arena(&arena_path)
            .spawn(loader(1).remove(0))
            .expect("spawn producer with arena");
        // The producer keeps its mapping; the *path* disappears, so a
        // late-coming consumer cannot open what the WELCOME advertises —
        // the cross-host / stale-path failure shape. Pinning the payload
        // mode disables the negotiated fall-back to streaming, so the
        // typed error must surface.
        std::fs::remove_file(&arena_path).expect("unlink arena file");
        let (err, _) = expect_error(|| {
            Consumer::builder()
                .payload_mode(PayloadMode::Shm)
                .handshake_timeout(GUARD)
                .connect(&ep)
        });
        match err {
            TsError::Handshake(HandshakeError::ArenaMissing { path, reason }) => {
                assert_eq!(path, arena_path.display().to_string(), "{scheme}");
                assert!(!reason.is_empty(), "{scheme}: reason must say why");
            }
            other => panic!("{scheme}: expected ArenaMissing, got {other:?}"),
        }
        producer.abort();
        producer.join().expect("producer join");
    }
}

#[test]
fn unopenable_arena_falls_back_to_streamed_payloads() {
    // The same stale-path shape as above, but the consumer leaves the
    // payload mode unpinned: the handshake grants streaming, so the
    // attach succeeds in streamed mode and the epoch still delivers.
    for (scheme, ep) in endpoints("fallback", 4) {
        let arena_path = std::env::temp_dir().join(format!(
            "ts-hs-fallback-{scheme}-{}.arena",
            std::process::id()
        ));
        let producer = Producer::builder()
            .config(producer_cfg(&ep))
            .arena(&arena_path)
            .spawn(loader(1).remove(0))
            .expect("spawn producer with arena");
        std::fs::remove_file(&arena_path).expect("unlink arena file");
        let mut consumer = Consumer::builder()
            .handshake_timeout(GUARD)
            .recv_timeout(Duration::from_secs(10))
            .heartbeat_interval(Duration::from_millis(50))
            .connect(&ep)
            .expect("unpinned consumer negotiates streaming");
        assert_eq!(
            consumer.payload_mode(),
            PayloadMode::Stream,
            "{scheme}: fall-back must land in streamed mode"
        );
        let mut batches = 0;
        for b in consumer.by_ref() {
            b.expect("clean streamed batch");
            batches += 1;
        }
        assert_eq!(batches, 16, "{scheme}: full epoch in streamed mode");
        producer.join().expect("producer join");
    }
}

#[test]
fn forced_streaming_from_flex_producer_yields_mode_error() {
    // Flexible producers re-slice shm tensors per consumer and therefore
    // grant only shm payloads; a consumer *forcing* streamed payloads
    // must get the typed grant-mask error instead of a hang.
    for (scheme, ep) in endpoints("mode", 5) {
        let mut cfg = producer_cfg(&ep);
        cfg.flexible = Some(tensorsocket::FlexibleConfig::new(8));
        let producer = Producer::builder()
            .config(cfg)
            .spawn(loader(1).remove(0))
            .expect("spawn flexible producer");
        let (err, _) = expect_error(|| {
            Consumer::builder()
                .payload_mode(PayloadMode::Stream)
                .batch_size(4)
                .handshake_timeout(GUARD)
                .connect(&ep)
        });
        match err {
            TsError::Handshake(HandshakeError::Mode { requested, granted }) => {
                assert_eq!(requested, PayloadMode::Stream, "{scheme}");
                assert_eq!(granted, tensorsocket::caps::SHM, "{scheme}");
            }
            other => panic!("{scheme}: expected Mode error, got {other:?}"),
        }
        producer.abort();
        producer.join().expect("producer join");
    }
}

#[test]
fn matched_override_still_attaches_everywhere() {
    // The positive control for the failure cases above: the explicit
    // override that *matches* the advertisement attaches and streams.
    // The consumer's context is separate from the producer's, so payload
    // bytes must travel through an (auto-sized, handshake-advertised)
    // arena.
    for (scheme, ep) in endpoints("ok", 3) {
        let arena_path =
            std::env::temp_dir().join(format!("ts-hs-ok-{scheme}-{}.arena", std::process::id()));
        let producer = Producer::builder()
            .config(producer_cfg(&ep))
            .arena(&arena_path)
            .spawn_sharded(loader(2))
            .expect("spawn sharded producer");
        let mut consumer = Consumer::builder()
            .shards(2)
            .handshake_timeout(GUARD)
            .recv_timeout(Duration::from_secs(10))
            .heartbeat_interval(Duration::from_millis(50))
            .connect(&ep)
            .expect("matched override attaches");
        assert_eq!(consumer.num_shards(), 2, "{scheme}");
        let mut batches = 0;
        for b in consumer.by_ref() {
            b.expect("clean stream");
            batches += 1;
        }
        assert_eq!(batches, 16, "{scheme}: full epoch over both shards");
        producer.join().expect("producer join");
    }
}
