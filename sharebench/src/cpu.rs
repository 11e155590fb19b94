//! CPU metering without a libc crate.
//!
//! Process CPU comes from `CLOCK_PROCESS_CPUTIME_ID` through a hand-written
//! `clock_gettime` binding (the same approach `ts-shm` takes for `mmap`).
//! Per-thread CPU comes from `/proc/self/task/<tid>/{comm,stat}`; threads
//! are grouped into families by the name the runtime gives them.

use std::collections::HashMap;
use std::fs;

mod sys {
    use std::os::raw::{c_int, c_long};

    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    pub const SC_CLK_TCK: c_int = 2;

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: c_long,
    }

    extern "C" {
        pub fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
    }
}

/// CPU time consumed by every thread of this process, living or exited, in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and the clock id is a constant Linux defines.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Clock ticks per second, the unit of the `utime`/`stime` fields.
fn clock_ticks_per_sec() -> u64 {
    // SAFETY: `sysconf` only reads its integer argument.
    let hz = unsafe { sys::sysconf(sys::SC_CLK_TCK) };
    if hz > 0 {
        hz as u64
    } else {
        100
    }
}

/// The thread families the per-layer CPU split reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// `tensorsocket-feeder` and the loader workers it spawns (unnamed
    /// threads inherit their creator's name).
    Feeder,
    /// `tensorsocket-producer[-s<N>]`: publish, registry, acks, cursor,
    /// watchdog.
    Producer,
    /// The benchmark's own consumer (trainer) threads.
    Consumer,
    /// `ts-heartbeat-<id>`.
    Heartbeat,
    /// `ts-pub-*`, `ts-sub-*`, `ts-pull-*`, `ts-push-*` socket threads.
    Transport,
    /// Everything else, including the benchmark's main thread.
    Other,
}

/// Name prefix of the benchmark's consumer threads.
pub const CONSUMER_THREAD_PREFIX: &str = "sb-consumer-";

/// Linux keeps at most this many bytes of a thread name (`TASK_COMM_LEN`
/// minus the terminating NUL).
const COMM_LEN: usize = 15;

impl Family {
    /// Classifies a thread by its (possibly truncated) kernel name. Every
    /// prefix is at most 15 bytes, so a name that was cut to fit still
    /// matches.
    pub fn classify(comm: &str) -> Family {
        const PREFIXES: &[(&str, Family)] = &[
            ("tensorsocket-fe", Family::Feeder),
            ("tensorsocket-pr", Family::Producer),
            (CONSUMER_THREAD_PREFIX, Family::Consumer),
            ("ts-heartbeat-", Family::Heartbeat),
            ("ts-pub-", Family::Transport),
            ("ts-sub-", Family::Transport),
            ("ts-pull-", Family::Transport),
            ("ts-push-", Family::Transport),
        ];
        PREFIXES
            .iter()
            .find(|(prefix, _)| {
                debug_assert!(prefix.len() <= COMM_LEN);
                comm.starts_with(prefix)
            })
            .map_or(Family::Other, |&(_, family)| family)
    }

    /// Every family, in report order.
    pub const ALL: [Family; 6] = [
        Family::Feeder,
        Family::Producer,
        Family::Consumer,
        Family::Heartbeat,
        Family::Transport,
        Family::Other,
    ];

    /// Metric name of this family's CPU per batch.
    pub fn metric(self) -> &'static str {
        match self {
            Family::Feeder => "cpu.feeder_us_per_batch",
            Family::Producer => "cpu.producer_us_per_batch",
            Family::Consumer => "cpu.consumer_us_per_batch",
            Family::Heartbeat => "cpu.heartbeat_us_per_batch",
            Family::Transport => "cpu.transport_us_per_batch",
            Family::Other => "cpu.other_us_per_batch",
        }
    }
}

/// One thread as `/proc/self/task` showed it.
#[derive(Debug, Clone)]
pub struct ThreadSample {
    /// Kernel thread id.
    pub tid: u32,
    /// Thread name (at most 15 bytes).
    pub comm: String,
    /// `utime + stime`, in clock ticks.
    pub ticks: u64,
}

/// Extracts `utime + stime` from a `/proc/.../stat` line. The name field
/// sits in parentheses and may itself hold spaces or `)`, so fields are
/// counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Reads every live thread of this process. Threads that exit while the
/// directory is walked are skipped.
pub fn snapshot_threads() -> Vec<ThreadSample> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("stat")),
        ) else {
            continue;
        };
        if let Some(ticks) = parse_stat_ticks(&stat) {
            out.push(ThreadSample {
                tid,
                comm: comm.trim_end_matches('\n').to_string(),
                ticks,
            });
        }
    }
    out
}

/// Per-family CPU over a window, from `/proc/self/task` snapshots taken at
/// its edges and polled in between.
///
/// A thread that exits takes its counters with it, and the data loader
/// starts and ends its workers every epoch, so the window is polled: a
/// thread is charged up to its last sighting. What an exiting thread
/// spent after that, the process clock still sees; it lands in
/// [`Family::Other`] as the remainder.
pub struct TaskMeter {
    hz: u64,
    /// Ticks each thread alive at the window's start had already spent.
    base: HashMap<u32, u64>,
    /// Latest sighting of each thread: name and ticks.
    last: HashMap<u32, (String, u64)>,
    /// The snapshots taken at the window's two edges.
    pub edges: Vec<Vec<ThreadSample>>,
}

impl TaskMeter {
    /// Opens the window.
    pub fn begin() -> Self {
        let first = snapshot_threads();
        let base = first.iter().map(|t| (t.tid, t.ticks)).collect();
        let last = first
            .iter()
            .map(|t| (t.tid, (t.comm.clone(), t.ticks)))
            .collect();
        Self {
            hz: clock_ticks_per_sec(),
            base,
            last,
            edges: vec![first],
        }
    }

    /// Records the threads alive now.
    pub fn poll(&mut self) {
        let now = snapshot_threads();
        self.absorb(&now);
    }

    fn absorb(&mut self, now: &[ThreadSample]) {
        for t in now {
            self.last.insert(t.tid, (t.comm.clone(), t.ticks));
        }
    }

    /// Closes the window and returns the CPU each family spent in it, in
    /// microseconds. [`Family::Other`] is not filled in: it is the process
    /// total minus the named families, which the caller computes.
    pub fn end(&mut self) -> HashMap<Family, f64> {
        let last = snapshot_threads();
        self.absorb(&last);
        self.edges.push(last);
        let mut out: HashMap<Family, f64> = HashMap::new();
        for (tid, (comm, ticks)) in &self.last {
            let spent = ticks.saturating_sub(self.base.get(tid).copied().unwrap_or(0));
            let us = spent as f64 * 1e6 / self.hz as f64;
            *out.entry(Family::classify(comm)).or_default() += us;
        }
        out.remove(&Family::Other);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the kernel keeps of a thread name.
    fn truncated(name: &str) -> &str {
        &name[..name.len().min(COMM_LEN)]
    }

    #[test]
    fn runtime_thread_names_classify_after_truncation() {
        let cases = [
            ("tensorsocket-feeder", Family::Feeder),
            ("tensorsocket-producer", Family::Producer),
            ("tensorsocket-producer-s3", Family::Producer),
            ("sb-consumer-1", Family::Consumer),
            ("ts-heartbeat-18446744073709551615", Family::Heartbeat),
            ("ts-pub-accept", Family::Transport),
            ("ts-pub-writer", Family::Transport),
            ("ts-sub-conn", Family::Transport),
            ("ts-pull-reader", Family::Transport),
            ("ts-push-writer", Family::Transport),
            ("tensorsocket-staging", Family::Other),
            ("ts-log-spiller-s0", Family::Other),
            ("sharebench", Family::Other),
        ];
        for (name, family) in cases {
            assert_eq!(Family::classify(truncated(name)), family, "{name}");
        }
    }

    #[test]
    fn similar_names_do_not_collide() {
        assert_eq!(Family::classify("tensorsocket-st"), Family::Other);
        assert_eq!(Family::classify("ts-publisher"), Family::Other);
        assert_eq!(Family::classify("tensorsocket"), Family::Other);
        assert_eq!(Family::classify(""), Family::Other);
    }

    #[test]
    fn stat_parsing_skips_names_with_spaces_and_parens() {
        let stat = "4242 (odd ) name) S 1 2 3 4 5 6 7 8 9 10 70 30 0 0 20 0 1 0";
        assert_eq!(parse_stat_ticks(stat), Some(100));
        assert_eq!(parse_stat_ticks("4242 (short) S 1 2"), None);
    }

    #[test]
    fn meter_charges_a_busy_thread_to_its_family() {
        std::thread::Builder::new()
            .name(format!("{CONSUMER_THREAD_PREFIX}test"))
            .spawn(|| {
                let mut meter = TaskMeter::begin();
                let cpu0 = process_cpu_ns();
                let mut x = 0u64;
                // Spin for 100 ms of CPU: ten clock ticks at the usual 100 Hz.
                while process_cpu_ns() - cpu0 < 100_000_000 {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                    }
                }
                let families = meter.end();
                let consumer_us = families.get(&Family::Consumer).copied().unwrap_or(0.0);
                assert!(consumer_us > 0.0, "{families:?}");
                assert!(!families.contains_key(&Family::Other));
                assert_eq!(meter.edges.len(), 2);
            })
            .expect("spawn test thread")
            .join()
            .expect("test thread");
    }
}
