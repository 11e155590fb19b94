//! One trial: spawn a producer, attach two consumer threads, stream whole
//! epochs through them in a closed loop, check every delivery, and time
//! and meter the window from "all consumers attached" to "last batch".

use crate::check::{Checker, Depth, Verdict};
use crate::cpu::{process_cpu_ns, Family, TaskMeter, ThreadSample, CONSUMER_THREAD_PREFIX};
use crate::inputs::{Inputs, Workload, BATCH, IMAGE_SHAPE};
use crate::trace::{TracedSource, Tracer};
use std::collections::HashMap;
use std::net::{Ipv4Addr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tensorsocket::runtime::consumer::StopReason;
use tensorsocket::runtime::producer::VecSource;
use tensorsocket::{
    scrape_stats, Consumer, EpochSource, PayloadMode, Producer, ProducerBuilder, ProducerStats,
    TsContext,
};

/// Collocated trainers per trial.
pub const CONSUMERS: usize = 2;
/// How long a consumer waits for a batch before the stream counts as
/// wedged: far above any healthy step, far below the runtime's 30 s.
const RECV_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the producer waits for its first consumer, and a consumer for
/// the producer's WELCOME.
const ATTACH_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll period of the per-thread CPU meter in traced trials.
const METER_POLL: Duration = Duration::from_millis(10);

/// What one trial runs.
pub struct TrialSpec<'a> {
    /// The run's inputs.
    pub inputs: &'a Inputs,
    /// Epochs the producer publishes.
    pub epochs: u64,
    /// How much of each payload the consumers compare.
    pub depth: Depth,
    /// Records spans and meters threads when set.
    pub tracer: Option<Arc<Tracer>>,
    /// Directory for the socket and arena files.
    pub run_dir: &'a Path,
    /// Trial number within the run (keeps file names and spans apart).
    pub index: u32,
}

/// Per-thread CPU of a traced trial's window.
pub struct Metered {
    /// Microseconds of CPU per named family ([`Family::Other`] excluded).
    pub families: HashMap<Family, f64>,
    /// Process CPU over the same window, in nanoseconds.
    pub process_ns: u64,
    /// Wall time of the same window.
    pub wall_s: f64,
    /// The thread snapshots at the window's edges.
    pub edges: Vec<Vec<ThreadSample>>,
}

/// What one trial measured.
pub struct TrialResult {
    /// `Producer::builder()…spawn` alone.
    pub spawn_s: f64,
    /// From the start of spawn to every consumer connected.
    pub setup_s: f64,
    /// Each consumer's `connect` time.
    pub connect_s: Vec<f64>,
    /// Samples per consumer per second over the window.
    pub samples_per_s: f64,
    /// Process CPU over the window, in nanoseconds.
    pub cpu_ns: u64,
    /// Distinct batches published.
    pub batches: u64,
    /// Time each `Consumer::next` that returned a batch blocked, pooled
    /// over consumers, in nanoseconds.
    pub waits_ns: Vec<u64>,
    /// End of `data.next` to `Consumer::next` returning the same batch, in
    /// microseconds (traced trials only).
    pub deliver_us: Vec<f64>,
    /// One verdict per consumer.
    pub verdicts: Vec<Verdict>,
    /// The producer's own counters, when it joined cleanly.
    pub stats: Option<ProducerStats>,
    /// Bytes of the producer's shm arena.
    pub arena_bytes: u64,
    /// `stage.stream_tx_bytes` and `stage.publish_copy_bytes` per batch,
    /// from one mid-trial scrape (traced trials only).
    pub scraped: Option<(f64, f64)>,
    /// Per-thread CPU (traced trials only).
    pub metered: Option<Metered>,
    /// The process's peak resident set during the trial, in MiB.
    pub peak_rss_mib: f64,
}

impl TrialResult {
    /// Failed deliveries over all consumers.
    pub fn failed(&self) -> u64 {
        self.verdicts.iter().map(|v| v.failed).sum()
    }

    /// Expected deliveries over all consumers.
    pub fn expected(&self) -> u64 {
        self.verdicts.iter().map(|v| v.expected).sum()
    }
}

/// What a consumer thread hands back.
struct ConsumerRun {
    connect_s: f64,
    verdict: Verdict,
    waits_ns: Vec<u64>,
    deliver_us: Vec<f64>,
    samples: u64,
    /// When the last expected batch arrived, and the process CPU then.
    finished: (Instant, u64),
}

/// An endpoint no other trial uses.
fn endpoint(workload: Workload, run_dir: &Path, index: u32) -> String {
    match workload {
        Workload::DecodeIpc | Workload::FanoutShmIpc => format!(
            "ipc://{}/ts-{}-{index}.sock",
            run_dir.display(),
            std::process::id()
        ),
        // The control channel binds the data port + 1.
        Workload::FanoutStreamTcp => {
            for _ in 0..64 {
                let data = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback");
                let port = data.local_addr().expect("bound address").port();
                if port < u16::MAX && TcpListener::bind((Ipv4Addr::LOCALHOST, port + 1)).is_ok() {
                    return format!("tcp://127.0.0.1:{port}");
                }
            }
            panic!("no free pair of loopback ports");
        }
    }
}

fn spawn_source<S: EpochSource>(
    builder: ProducerBuilder,
    source: S,
    tracer: Option<Arc<Tracer>>,
) -> tensorsocket::Result<Producer> {
    match tracer {
        Some(tracer) => builder.spawn(TracedSource::new(source, tracer)),
        None => builder.spawn(source),
    }
}

/// Runs one trial.
pub fn run_trial(spec: &TrialSpec<'_>) -> TrialResult {
    let inputs = spec.inputs;
    let workload = inputs.workload;
    let endpoint = endpoint(workload, spec.run_dir, spec.index);
    let arena = spec
        .run_dir
        .join(format!("arena-{}-{}", std::process::id(), spec.index));
    let mode = match workload {
        Workload::FanoutStreamTcp => PayloadMode::Stream,
        Workload::DecodeIpc | Workload::FanoutShmIpc => PayloadMode::Shm,
    };
    if let Some(tracer) = &spec.tracer {
        tracer.begin_trial(spec.index);
    }
    reset_peak_rss();

    let ctx = TsContext::host_only();
    let builder = Producer::builder()
        .context(&ctx)
        .endpoint(endpoint.as_str())
        .epochs(spec.epochs)
        .first_consumer_timeout(Some(ATTACH_TIMEOUT));
    // Streamed consumers need no arena: the producer serves their bytes
    // from its own memory.
    let builder = match mode {
        PayloadMode::Shm => builder.arena(&arena),
        PayloadMode::Stream => builder,
    };
    let t_spawn = Instant::now();
    let producer = match workload {
        Workload::DecodeIpc => spawn_source(builder, inputs.loader(2), spec.tracer.clone()),
        Workload::FanoutShmIpc | Workload::FanoutStreamTcp => {
            let batches = inputs
                .prebuilt
                .clone()
                .expect("fan-out inputs are pre-built");
            let source = VecSource::new(batches).expect("uniform pre-built batches");
            spawn_source(builder, source, spec.tracer.clone())
        }
    }
    .unwrap_or_else(|e| panic!("spawn producer on {endpoint}: {e}"));
    let t_spawned = Instant::now();
    if let Some(tracer) = &spec.tracer {
        tracer.record("producer.spawn", 0, t_spawn, t_spawned, None);
    }
    let arena_bytes = producer
        .arena()
        .map_or(0, |a| (a.nslots() * a.slot_size()) as u64);

    let attached = Barrier::new(CONSUMERS + 1);
    let done = AtomicUsize::new(0);
    let progress = AtomicU64::new(0);
    let mut window_start = (t_spawned, 0u64);
    let mut setup_end = t_spawned;
    let mut metered = None;
    let mut scraped = None;

    let mut runs: Vec<ConsumerRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONSUMERS)
            .map(|i| {
                let (endpoint, attached, done, progress) = (&endpoint, &attached, &done, &progress);
                let tracer = spec.tracer.clone();
                std::thread::Builder::new()
                    .name(format!("{CONSUMER_THREAD_PREFIX}{i}"))
                    .spawn_scoped(s, move || {
                        consume(spec, endpoint, mode, attached, done, progress, tracer)
                    })
                    .expect("spawn consumer thread")
            })
            .collect();
        attached.wait();
        setup_end = Instant::now();
        window_start = (setup_end, process_cpu_ns());
        if spec.tracer.is_some() {
            let mut meter = TaskMeter::begin();
            let half = spec.epochs * inputs.reference.batches_per_epoch * CONSUMERS as u64 / 2;
            while done.load(Ordering::Acquire) < CONSUMERS
                && !handles.iter().all(|h| h.is_finished())
            {
                std::thread::sleep(METER_POLL);
                meter.poll();
                if scraped.is_none() && progress.load(Ordering::Relaxed) >= half {
                    scraped = Some(scrape(&endpoint));
                }
            }
            let families = meter.end();
            metered = Some(Metered {
                families,
                process_ns: process_cpu_ns() - window_start.1,
                wall_s: window_start.0.elapsed().as_secs_f64(),
                edges: std::mem::take(&mut meter.edges),
            });
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("consumer thread panicked"))
            .collect()
    });

    let failed = runs.iter().any(|r| r.verdict.failed > 0);
    if failed {
        // A consumer gave up: do not wait for the producer to finish the
        // epochs it can no longer deliver.
        producer.abort();
    }
    let t_join = Instant::now();
    let stats = producer.join().ok();
    if let Some(tracer) = &spec.tracer {
        tracer.record("producer.join", 0, t_join, Instant::now(), None);
    }

    let (end, end_cpu) = runs
        .iter()
        .map(|r| r.finished)
        .max_by_key(|f| f.0)
        .expect("at least one consumer");
    let window_s = end.duration_since(window_start.0).as_secs_f64().max(1e-9);
    let samples = runs.iter().map(|r| r.samples).sum::<u64>() as f64 / CONSUMERS as f64;
    let batches = stats
        .as_ref()
        .map_or(spec.epochs * inputs.reference.batches_per_epoch, |s| {
            s.batches_published
        });
    TrialResult {
        spawn_s: t_spawned.duration_since(t_spawn).as_secs_f64(),
        setup_s: setup_end.duration_since(t_spawn).as_secs_f64(),
        connect_s: runs.iter().map(|r| r.connect_s).collect(),
        samples_per_s: samples / window_s,
        cpu_ns: end_cpu.saturating_sub(window_start.1),
        batches,
        waits_ns: runs
            .iter_mut()
            .flat_map(|r| std::mem::take(&mut r.waits_ns))
            .collect(),
        deliver_us: runs
            .iter_mut()
            .flat_map(|r| std::mem::take(&mut r.deliver_us))
            .collect(),
        verdicts: runs.into_iter().map(|r| r.verdict).collect(),
        stats,
        arena_bytes,
        scraped,
        metered,
        peak_rss_mib: peak_rss_mib(),
    }
}

/// Lowers the process's peak-RSS mark (`VmHWM`) to its current RSS, so
/// that each trial reports its own peak. Without this kernel interface
/// the mark just keeps the run's peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One stats scrape: stream and copy bytes per published batch, both from
/// the same snapshot.
fn scrape(endpoint: &str) -> (f64, f64) {
    let Ok(stats) = scrape_stats(&TsContext::host_only(), endpoint, Duration::from_secs(2)) else {
        return (f64::NAN, f64::NAN);
    };
    let counter = |name: &str| {
        stats
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let batches = counter("producer.batches").max(1.0);
    (
        counter("stage.stream_tx_bytes") / batches,
        counter("stage.publish_copy_bytes") / batches,
    )
}

/// A trainer: attach, then pull batches in a closed loop, each only after
/// the previous one has been checked and released.
fn consume(
    spec: &TrialSpec<'_>,
    endpoint: &str,
    mode: PayloadMode,
    attached: &Barrier,
    done: &AtomicUsize,
    progress: &AtomicU64,
    tracer: Option<Arc<Tracer>>,
) -> ConsumerRun {
    let reference = &spec.inputs.reference;
    let mut checker = Checker::new(reference, spec.depth, spec.epochs);
    let t0 = Instant::now();
    let connected = Consumer::builder()
        .payload_mode(mode)
        .recv_timeout(RECV_TIMEOUT)
        .handshake_timeout(ATTACH_TIMEOUT)
        .connect(endpoint);
    let t1 = Instant::now();
    if let Some(tracer) = &tracer {
        tracer.record("consumer.connect", 0, t0, t1, None);
    }
    attached.wait();

    let mut waits_ns = Vec::with_capacity(checker.expected() as usize);
    let mut deliver_us = Vec::new();
    let mut spans = Vec::new();
    let mut samples = 0u64;
    let mut finished = None;
    let mut consumer = match connected {
        Ok(c) => c,
        Err(e) => {
            checker.error(format!("connect: {e}"));
            done.fetch_add(1, Ordering::Release);
            return ConsumerRun {
                connect_s: t1.duration_since(t0).as_secs_f64(),
                verdict: checker.finish(false),
                waits_ns,
                deliver_us,
                samples,
                finished: (Instant::now(), process_cpu_ns()),
            };
        }
    };
    let image_shape = [BATCH, IMAGE_SHAPE[0], IMAGE_SHAPE[1], IMAGE_SHAPE[2]];
    loop {
        let start = Instant::now();
        let item = consumer.next();
        let got = Instant::now();
        let batch = match item {
            None => break,
            Some(Err(e)) => {
                checker.error(e.to_string());
                continue;
            }
            Some(Ok(batch)) => batch,
        };
        waits_ns.push(got.duration_since(start).as_nanos() as u64);
        let key = (batch.epoch, batch.index_in_epoch);
        samples += batch.batch_size() as u64;
        let images = batch.fields.first().filter(|t| t.shape() == image_shape);
        match (batch.labels.bytes(), images.map(|t| t.bytes())) {
            (Ok(labels), Some(Ok(images))) => checker.observe(key, labels, images),
            _ => checker.observe(key, &[], &[]),
        }
        progress.fetch_add(1, Ordering::Relaxed);
        if let Some(tracer) = &tracer {
            let (parent, produced) = tracer.produced(key).unwrap_or((0, got));
            deliver_us.push(got.duration_since(produced).as_secs_f64() * 1e6);
            let next = tracer.span("consumer.next", parent, start, got, Some(key));
            let dropped = Instant::now();
            drop(batch);
            spans.push(tracer.span("consumer.drop", next.id, dropped, Instant::now(), Some(key)));
            spans.push(next);
        } else {
            drop(batch);
        }
        if finished.is_none() && checker.complete() {
            finished = Some((Instant::now(), process_cpu_ns()));
            done.fetch_add(1, Ordering::Release);
        }
    }
    let finished = finished.unwrap_or_else(|| {
        done.fetch_add(1, Ordering::Release);
        (Instant::now(), process_cpu_ns())
    });
    let ended_cleanly = consumer.stop_reason() == Some(StopReason::End);
    drop(consumer);
    if let Some(tracer) = &tracer {
        tracer.extend(spans);
    }
    ConsumerRun {
        connect_s: t1.duration_since(t0).as_secs_f64(),
        verdict: checker.finish(ended_cleanly),
        waits_ns,
        deliver_us,
        samples,
        finished,
    }
}
