//! Exact latency samples, result records and host diagnostics.

use std::time::{Duration, Instant};

use lsm_tree::TreeStats;

use crate::Layers;

/// One kind of operation in a timed phase: how many completed in each
/// window, and the exact latencies in nanoseconds of the first `cap` of
/// them. Percentiles are read from the sorted samples (nearest rank),
/// never from a bucketed histogram.
///
/// The sample buffer is allocated and written in full when the series is
/// made, so the benchmark's own memory is the same however many
/// operations a run completes, and `peak_rss_mb` does not grow with the
/// program's speed.
#[derive(Debug)]
pub struct Series {
    per_window: Vec<u64>,
    samples: Vec<u32>,
    cap: usize,
}

impl Series {
    pub fn new(cap: usize) -> Self {
        let mut samples = vec![u32::MAX; cap];
        std::hint::black_box(&mut samples);
        samples.clear();
        Series { per_window: Vec::new(), samples, cap }
    }

    pub fn push(&mut self, window: usize, lat: Duration) {
        if self.per_window.len() <= window {
            self.per_window.resize(window + 1, 0);
        }
        self.per_window[window] += 1;
        if self.samples.len() < self.cap {
            self.samples.push(lat.as_nanos().min(u128::from(u32::MAX)) as u32);
        }
    }

    /// Operations counted, sampled or not.
    pub fn len(&self) -> usize {
        self.per_window.iter().sum::<u64>() as usize
    }

    /// Bytes held for samples.
    pub fn sample_bytes(&self) -> usize {
        self.cap * std::mem::size_of::<u32>()
    }

    /// The samples, sorted.
    pub fn all(&self) -> Sorted {
        Sorted::of(&[self])
    }

    fn count(&self, window: usize) -> usize {
        self.per_window.get(window).map_or(0, |&n| n as usize)
    }
}

/// The window clock of a timed phase: `seconds / WINDOWS` per window.
///
/// On a shared host, interference from other tenants slows memory-bound
/// work by 10-25 % for seconds at a time and never speeds it up.
/// Throughput is therefore read per window and the run reports the window
/// at the fast quartile (`FAST_QUARTILE`): the speed of the undisturbed
/// stretches of the run, which a slow stretch moves only if it covers more
/// than three quarters of the windows.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    len_ns: u64,
}

/// Windows per timed phase.
const WINDOWS: u64 = 20;

/// Where among its windows a run reads throughput: the upper quartile.
const FAST_QUARTILE: f64 = 0.75;

impl Windows {
    pub fn new(seconds: f64) -> Self {
        Windows { len_ns: ((seconds * 1e9) as u64 / WINDOWS).max(1) }
    }

    /// Window of an operation that ended `at` into the phase.
    pub fn of(&self, at: Duration) -> usize {
        (at.as_nanos() as u64 / self.len_ns) as usize
    }

    /// Whole windows inside a phase that lasted `wall`.
    pub fn full(&self, wall: Duration) -> usize {
        ((wall.as_nanos() as u64 / self.len_ns) as usize).max(1)
    }

    /// Operations completed per second in each whole window, read at the
    /// fast quartile (the upper quartile of the windows).
    pub fn ops_per_s(&self, series: &[&Series], wall: Duration) -> f64 {
        let per: Vec<f64> = (0..self.full(wall))
            .map(|w| series.iter().map(|s| s.count(w)).sum::<usize>() as f64)
            .map(|n| n * 1e9 / self.len_ns as f64)
            .collect();
        quantile(per, FAST_QUARTILE)
    }
}

/// Sorted nanosecond samples.
pub struct Sorted(pub Vec<u32>);

impl Sorted {
    /// The samples of several series, pooled and sorted.
    pub fn of(series: &[&Series]) -> Sorted {
        let mut v: Vec<u32> = series.iter().flat_map(|s| s.samples.iter().copied()).collect();
        v.sort_unstable();
        Sorted(v)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile in microseconds (0 when empty).
    pub fn pct_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        f64::from(self.0[rank - 1]) / 1e3
    }

    pub fn sum_ns(&self) -> u64 {
        self.0.iter().map(|&x| u64::from(x)).sum()
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile, printed next to it.
    pub samples: Option<usize>,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed self-checks; any entry makes the run incorrect.
    pub broken: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Printed for the reader only; not part of the result object.
    pub info: Vec<Metric>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name: name.into(), value, unit, samples: None });
    }

    pub fn info_pct(&mut self, name: &str, s: &Sorted, q: f64) {
        let m =
            Metric { name: name.into(), value: s.pct_us(q), unit: "us", samples: Some(s.len()) };
        self.info.push(m);
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric { name: name.into(), value, unit, samples: None });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name: name.into(), value, unit, samples: None });
    }

    /// Print the host diagnostics of a timed phase (see [`HostClock`]).
    pub fn host_info(&mut self, (steal, runq): (f64, f64)) {
        self.info("env.steal_share", steal, "ratio");
        self.info("env.runqueue_wait_share", runq, "ratio");
    }

    /// Record a self-check; a false `ok` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.broken.push(what.into());
        }
    }
}

/// Merge work between two `TreeStats` readings.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MergeWork {
    pub written: u64,
    pub read: u64,
    pub preserved: u64,
    /// Blocks written into paper levels L1, L2, L3.
    pub level_written: [u64; 3],
}

impl MergeWork {
    pub fn between(before: &TreeStats, after: &TreeStats) -> Self {
        MergeWork {
            written: after.total_blocks_written() - before.total_blocks_written(),
            read: after.total_blocks_read() - before.total_blocks_read(),
            preserved: after.total_blocks_preserved() - before.total_blocks_preserved(),
            level_written: [1, 2, 3]
                .map(|l| after.level(l).blocks_written - before.level(l).blocks_written),
        }
    }

    /// The `merge.*_per_mb` layer metrics, per MiB ingested.
    pub fn report(&self, l: &mut Layers, mb: f64) {
        l.set("merge.blocks_read_per_mb", self.read as f64 / mb);
        l.set("merge.blocks_preserved_per_mb", self.preserved as f64 / mb);
        for (i, w) in self.level_written.iter().enumerate() {
            l.set(&format!("merge.L{}_blocks_written_per_mb", i + 1), *w as f64 / mb);
        }
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q` quantile of a small set of readings, interpolating between
/// neighbours (0 when empty).
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a small set of timings.
pub fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

fn proc_status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Host-side readings taken around the timed phase: steal time from
/// `/proc/stat` and this thread's run-queue wait from
/// `/proc/thread-self/schedstat`. Reported, never gated on.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    at: Instant,
    steal_ticks: u64,
    total_ticks: u64,
    runq_wait_ns: u64,
}

impl HostClock {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let cpu: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        let sched = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let runq_wait_ns =
            sched.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0);
        HostClock {
            at: Instant::now(),
            steal_ticks: cpu.get(7).copied().unwrap_or(0),
            total_ticks: cpu.iter().sum(),
            runq_wait_ns,
        }
    }

    /// (steal share of all CPU time, this thread's run-queue wait share of
    /// wall time) since `earlier`.
    pub fn since(&self, earlier: &HostClock) -> (f64, f64) {
        let steal = ratio(
            (self.steal_ticks - earlier.steal_ticks) as f64,
            (self.total_ticks - earlier.total_ticks) as f64,
        );
        let wall = self.at.duration_since(earlier.at).as_nanos() as f64;
        let runq = ratio(self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns) as f64, wall);
        (steal, runq)
    }
}
