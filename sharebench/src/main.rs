//! The TensorSocket sharing benchmark.
//!
//! ```text
//! cargo run --release --manifest-path sharebench/Cargo.toml -- \
//!     --workload decode-ipc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload: a producer and two consumer threads,
//! each holding its own connection, in a closed loop. It prints every
//! metric with its unit and, as the last line of standard output, one
//! JSON object. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics and writes the spans and thread
//! snapshots to `.sharebench_run/spans-<workload>.json`. The exit code is
//! non-zero when any consumer received a wrong, missing or duplicated
//! batch. See `README.md` in this directory for the metrics and workloads.

mod check;
mod cpu;
mod inputs;
mod trace;
mod trial;

use check::Depth;
use cpu::Family;
use inputs::{Inputs, Workload, BATCH_PAYLOAD_BYTES};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use trial::{run_trial, TrialResult, TrialSpec, CONSUMERS};

/// Where sockets, arenas and the spans file go, relative to the working
/// directory.
const RUN_DIR: &str = ".sharebench_run";
/// Epochs of the untimed full-payload check trial.
const CHECK_EPOCHS: u64 = 2;
/// At most this many spans go to the spans file (about 20 MB); the
/// per-layer metrics use them all.
const SPAN_FILE_LIMIT: usize = 200_000;
/// Traced trials run this many times the timed trials' epochs.
const TRACED_EPOCH_FACTOR: u64 = 4;
/// A run still going this long after its `--seconds` is wedged: it exits
/// without a result.
const RUN_GRACE: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sharebench --workload <decode-ipc|fanout-shm-ipc|fanout-stream-tcp> \
         --seed <n> --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

impl Args {
    fn parse() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
        };
        let workload = value("--workload").and_then(Workload::parse);
        let seed = value("--seed").and_then(|s| s.parse().ok());
        let seconds = value("--seconds").and_then(|s| s.parse::<f64>().ok());
        let trace = match value("--trace").unwrap_or("0") {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        };
        match (workload, seed, seconds, trace) {
            (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0.0 => Args {
                workload,
                seed,
                seconds,
                trace,
            },
            _ => usage(),
        }
    }
}

/// Nearest-rank percentile of an unsorted sample set (`q` in `[0, 1]`).
fn percentile<T: Copy + PartialOrd>(values: &mut [T], q: f64) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Samples per second per trainer when each of the two trainers iterates
/// a private one-worker `DataLoader` over one epoch of the workload's
/// dataset: the no-sharing baseline, run right after each timed trial so
/// that both see the same machine.
fn private_rate(inputs: &Inputs) -> f64 {
    let rates: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONSUMERS)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("sb-private-{i}"))
                    .spawn_scoped(s, || {
                        let loader = inputs.loader(1);
                        let t0 = Instant::now();
                        let mut samples = 0usize;
                        for batch in loader.epoch(0) {
                            samples += batch.batch_size();
                            std::hint::black_box(&batch);
                        }
                        samples as f64 / t0.elapsed().as_secs_f64()
                    })
                    .expect("spawn private loader thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("private loader thread"))
            .collect()
    });
    rates.iter().sum::<f64>() / rates.len() as f64
}

/// A series of like trials.
struct Series<'a> {
    inputs: &'a Inputs,
    run_dir: &'a Path,
    /// Epochs per trial.
    epochs: u64,
    /// Traces every trial when set.
    tracer: Option<Arc<Tracer>>,
    /// Follows every trial with a private-loader baseline round.
    private: bool,
}

impl Series<'_> {
    /// Runs trials until `budget` is spent (at least `min` of them),
    /// numbering them from `first_index`. Returns the trials and the
    /// baseline rates.
    fn run(&self, budget: Duration, min: usize, first_index: u32) -> (Vec<TrialResult>, Vec<f64>) {
        let started = Instant::now();
        let (mut trials, mut rates) = (Vec::new(), Vec::new());
        while trials.len() < min || started.elapsed() < budget {
            trials.push(run_trial(&TrialSpec {
                inputs: self.inputs,
                epochs: self.epochs,
                depth: Depth::Probe,
                tracer: self.tracer.clone(),
                run_dir: self.run_dir,
                index: first_index + trials.len() as u32,
            }));
            if self.private {
                rates.push(private_rate(self.inputs));
            }
        }
        (trials, rates)
    }
}

/// A metric as printed and as reported.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Writes the traced run's spans and thread snapshots as one JSON file.
fn write_trace(path: &Path, args: &Args, tracer: &Tracer, traced: &[TrialResult]) {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"spans\":[",
        args.workload.name(),
        args.seed
    );
    let spans = tracer.spans();
    for (i, s) in spans.iter().take(SPAN_FILE_LIMIT).enumerate() {
        let key = s
            .key
            .map_or("null".to_string(), |(e, b)| format!("[{e},{b}]"));
        let _ = write!(
            out,
            "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"key\":{key},\"trial\":{}}}",
            if i == 0 { "" } else { "," },
            s.id,
            s.parent,
            s.name,
            s.start_us,
            s.end_us,
            s.trial
        );
    }
    let _ = write!(
        out,
        "],\"spans_omitted\":{},\"threads\":[",
        spans.len().saturating_sub(SPAN_FILE_LIMIT)
    );
    let mut first = true;
    for (trial, m) in traced.iter().filter_map(|t| t.metered.as_ref()).enumerate() {
        for (edge, snapshot) in ["start", "end"].iter().zip(&m.edges) {
            for t in snapshot {
                let _ = write!(
                    out,
                    "{}{{\"trial\":{trial},\"edge\":\"{edge}\",\"tid\":{},\"comm\":{:?},\"family\":\"{:?}\",\"ticks\":{}}}",
                    if first { "" } else { "," },
                    t.tid,
                    t.comm,
                    Family::classify(&t.comm),
                    t.ticks
                );
                first = false;
            }
        }
    }
    out.push_str("]}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// Host CPU ticks `(steal, total)` from the first line of `/proc/stat`.
/// Steal is time the hypervisor gave this machine's CPUs to someone else;
/// it is printed with the results so that a disturbed run can be told
/// apart from a slow program.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn main() {
    let args = Args::parse();
    let host_start = host_ticks();
    let limit = Duration::from_secs_f64(args.seconds) + RUN_GRACE;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("sharebench: run exceeded {limit:?}; giving up without a result");
        std::process::exit(3);
    });
    let run_dir = Path::new(RUN_DIR);
    std::fs::create_dir_all(run_dir).expect("create the run directory");
    let workload = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);

    let inputs = Inputs::build(
        workload,
        args.seed,
        (TRACED_EPOCH_FACTOR * workload.trial_epochs()).max(CHECK_EPOCHS),
    );
    // Untimed: warms every layer up and compares every payload byte.
    let checked = run_trial(&TrialSpec {
        inputs: &inputs,
        epochs: CHECK_EPOCHS,
        depth: Depth::Full,
        tracer: None,
        run_dir,
        index: 0,
    });

    let series = Series {
        inputs: &inputs,
        run_dir,
        epochs: workload.trial_epochs(),
        tracer: None,
        private: !args.trace,
    };
    let (timed, traced, tracer, private) = if args.trace {
        // Longer windows keep the clock-tick rounding of per-thread CPU
        // small; the untraced trials match them for the overhead ratio.
        let series = Series {
            epochs: TRACED_EPOCH_FACTOR * series.epochs,
            ..series
        };
        let (plain, _) = series.run(budget.mul_f64(0.4), 2, 1);
        let tracer = Tracer::new();
        let traced_series = Series {
            tracer: Some(tracer.clone()),
            ..series
        };
        let (traced, _) = traced_series.run(budget.mul_f64(0.6), 2, 1 + plain.len() as u32);
        (plain, traced, Some(tracer), Vec::new())
    } else {
        let (timed, private) = series.run(budget, 3, 1);
        (timed, Vec::new(), None, private)
    };

    for (kind, trials) in [("timed", &timed), ("traced", &traced)] {
        for t in trials.iter() {
            eprintln!(
                "{kind} trial: {:.1} samples/s, {:.1} us cpu/batch, setup {:.4} s, {} batches",
                t.samples_per_s,
                t.cpu_ns as f64 / 1e3 / t.batches as f64,
                t.setup_s,
                t.batches
            );
        }
    }
    let all: Vec<&TrialResult> = std::iter::once(&checked)
        .chain(&timed)
        .chain(&traced)
        .collect();
    let attempted: u64 = all.iter().map(|t| t.expected()).sum();
    let failed: u64 = all.iter().map(|t| t.failed()).sum();
    let delivered: u64 = all
        .iter()
        .flat_map(|t| &t.verdicts)
        .map(|v| v.delivered)
        .sum();
    for (t, v) in all
        .iter()
        .flat_map(|t| t.verdicts.iter().map(move |v| (t, v)))
    {
        for note in &v.notes {
            eprintln!(
                "delivery failure (trial with {} batches): {note}",
                t.batches
            );
        }
    }

    let samples_per_s = median(timed.iter().map(|t| t.samples_per_s).collect());
    let mut lines = Vec::new();
    let metrics: Vec<Metric> = match &tracer {
        None => {
            let n: usize = timed.iter().map(|t| t.waits_ns.len()).sum();
            lines.push(format!(
                "step waits: {n} samples over {} trials, per-trial percentiles pooled over \
                 {CONSUMERS} consumers, median over trials; p99 {:.1} us (reported by --trace 1)",
                timed.len(),
                step_wait_us(&timed, 0.99)
            ));
            lines.push(format!(
                "private one-worker loader baseline: {:.1} samples/s per trainer (median of {})",
                median(private.clone()),
                private.len()
            ));
            let speedups = timed.iter().zip(&private).map(|(t, p)| t.samples_per_s / p);
            vec![
                metric("samples_per_s", samples_per_s, "samples/s"),
                metric(
                    "cpu_us_per_batch",
                    median(
                        timed
                            .iter()
                            .map(|t| t.cpu_ns as f64 / 1e3 / t.batches as f64)
                            .collect(),
                    ),
                    "us",
                ),
                metric("step_wait_us.p50", step_wait_us(&timed, 0.50), "us"),
                metric(
                    "setup_s",
                    median(timed.iter().map(|t| t.setup_s).collect()),
                    "s",
                ),
                metric(
                    "peak_rss_mib",
                    median(timed.iter().map(|t| t.peak_rss_mib).collect()),
                    "MiB",
                ),
                metric("sharing_speedup", median(speedups.collect()), "x"),
            ]
        }
        Some(tracer) => {
            write_trace(
                &Path::new(RUN_DIR).join(format!("spans-{}.json", workload.name())),
                &args,
                tracer,
                &traced,
            );
            per_layer(&traced, &timed, tracer, &mut lines)
        }
    };

    let host_end = host_ticks();
    lines.push(format!(
        "host steal during the run: {:.1}% of CPU time",
        100.0 * host_end.0.saturating_sub(host_start.0) as f64
            / host_end.1.saturating_sub(host_start.1).max(1) as f64
    ));
    let correct = failed == 0;
    println!(
        "sharebench {} seed {} trace {}: {} timed + {} traced trials, closed loop, {CONSUMERS} consumers",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        timed.len(),
        traced.len()
    );
    for m in &metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<36} {:>14.6} ({failed} of {attempted} expected deliveries failed; {delivered} received)",
        "delivery_failed_ratio",
        failed as f64 / attempted.max(1) as f64
    );
    for l in &lines {
        println!("  {l}");
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut unmeasured = Vec::new();
    for (i, m) in metrics.iter().enumerate() {
        // A value that could not be measured (say, a scrape that timed
        // out) is reported as null and fails the run.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            unmeasured.push(m.name);
            "null".to_string()
        };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !unmeasured.is_empty() {
        eprintln!("sharebench: could not measure {unmeasured:?}");
    }
    if !correct || !unmeasured.is_empty() {
        std::process::exit(1);
    }
}

/// Quantile `q` of the time a trainer blocks in `Consumer::next`, in
/// microseconds: per trial, pooled over its consumers, then the median over
/// trials, so that one disturbed trial cannot move the tail.
fn step_wait_us(trials: &[TrialResult], q: f64) -> f64 {
    median(
        trials
            .iter()
            .map(|t| percentile(&mut t.waits_ns.clone(), q).unwrap_or(0) as f64 / 1e3)
            .collect(),
    )
}

/// The per-layer metrics of a traced run, whose untraced trials are
/// `plain`.
fn per_layer(
    traced: &[TrialResult],
    plain: &[TrialResult],
    tracer: &Tracer,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let mut data_next: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "data.next" && s.key.is_some())
        .map(|s| s.us())
        .collect();
    let data_batches = data_next.len() as f64;
    let mut deliver: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.deliver_us.iter().copied())
        .collect();
    let metered: Vec<_> = traced.iter().filter_map(|t| t.metered.as_ref()).collect();
    let batches: f64 = traced.iter().map(|t| t.batches as f64).sum();
    let process_us: f64 = metered.iter().map(|m| m.process_ns as f64 / 1e3).sum();
    let wall_s: f64 = metered.iter().map(|m| m.wall_s).sum();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let family_us = |f: Family| -> f64 {
        metered
            .iter()
            .map(|m| m.families.get(&f).copied().unwrap_or(0.0))
            .sum()
    };
    let named: f64 = Family::ALL
        .iter()
        .filter(|&&f| f != Family::Other)
        .map(|&f| family_us(f))
        .sum();
    let stat = |f: fn(&tensorsocket::ProducerStats) -> u64| -> f64 {
        traced
            .iter()
            .filter_map(|t| t.stats.as_ref())
            .map(|s| f(s) as f64)
            .sum()
    };
    let scraped = traced.iter().find_map(|t| t.scraped);
    let traced_samples_per_s = median(traced.iter().map(|t| t.samples_per_s).collect());
    lines.push(format!(
        "traced cpu_us_per_batch {:.2} over {} windows ({:.0} batches, {nproc} cpus); \
         data.next {} samples, deliver {} samples",
        process_us / batches,
        metered.len(),
        batches,
        data_next.len(),
        deliver.len()
    ));
    lines.push(format!(
        "computed payload bytes per batch: {BATCH_PAYLOAD_BYTES}"
    ));
    let mut out = vec![
        metric(
            "data.next_us.p50",
            percentile(&mut data_next, 0.50).unwrap_or(f64::NAN),
            "us",
        ),
        metric(
            "data.next_us.p99",
            percentile(&mut data_next, 0.99).unwrap_or(f64::NAN),
            "us",
        ),
        metric("data.batches", data_batches, "count"),
        metric(
            "producer.spawn_s",
            median(traced.iter().map(|t| t.spawn_s).collect()),
            "s",
        ),
        // End to end, but too sensitive to host CPU steal to gate: taken
        // from the run's untraced trials.
        metric("step_wait_us.p99", step_wait_us(plain, 0.99), "us"),
        metric(
            "deliver_us.p50",
            percentile(&mut deliver, 0.50).unwrap_or(f64::NAN),
            "us",
        ),
        metric(
            "deliver_us.p99",
            percentile(&mut deliver, 0.99).unwrap_or(f64::NAN),
            "us",
        ),
        metric(
            "producer.batches_published",
            stat(|s| s.batches_published),
            "count",
        ),
        metric(
            "producer.consumers_detached",
            stat(|s| s.consumers_detached),
            "count",
        ),
        metric(
            "producer.joins_rejected",
            stat(|s| s.joins_rejected),
            "count",
        ),
        metric(
            "consumer.connect_s",
            median(
                traced
                    .iter()
                    .flat_map(|t| t.connect_s.iter().copied())
                    .collect(),
            ),
            "s",
        ),
        metric(
            "wire.bytes_per_batch",
            scraped.map_or(f64::NAN, |s| s.0),
            "B",
        ),
        metric(
            "wire.payload_bytes_per_batch",
            BATCH_PAYLOAD_BYTES as f64,
            "B",
        ),
        metric(
            "arena.bytes",
            traced.first().map_or(0, |t| t.arena_bytes) as f64,
            "B",
        ),
        metric(
            "stage.publish_copy_bytes_per_batch",
            scraped.map_or(f64::NAN, |s| s.1),
            "B",
        ),
        metric(
            "cpu.busy_share",
            process_us / 1e6 / (wall_s * nproc),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            traced_samples_per_s / median(plain.iter().map(|t| t.samples_per_s).collect()),
            "ratio",
        ),
    ];
    for f in Family::ALL {
        let us = match f {
            Family::Other => process_us - named,
            _ => family_us(f),
        };
        out.push(metric(f.metric(), us / batches, "us"));
    }
    out
}
