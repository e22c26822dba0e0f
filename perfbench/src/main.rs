//! The repository benchmark: one closed-loop workload per invocation.
//!
//! ```text
//! perfbench --workload <steady_write|read_skewed|durable_mixed> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! workload twice, untraced and then traced, each for half of `--seconds`,
//! and prints the per-layer metrics. Human-readable lines come first; the
//! last line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. See `README.md` for the workloads and metrics.

mod durable;
mod measure;
mod probe;
mod skewed;
mod steady;

use std::process::ExitCode;

use measure::{ratio, Outcome};
use probe::DeviceSnap;

pub const MIB: f64 = 1024.0 * 1024.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Build a workload's starting state `SETUPS` times, dropping each build
/// before the next; returns the last build and the median build time.
pub fn repeated_setup<R>(mut build: impl FnMut() -> R) -> (R, f64) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = std::time::Instant::now();
        last = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS is positive"), measure::median(secs))
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every per-layer metric with its unit. A traced run of any workload
/// reports all of them; a layer the workload does not exercise reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("device.write_blocks_per_mb", "blocks/MiB"),
    ("device.read_blocks_per_mb", "blocks/MiB"),
    ("device.write_busy_share", "ratio"),
    ("device.read_busy_share", "ratio"),
    ("device.blocks_per_write_call", "blocks"),
    ("device.blocks_per_read_call", "blocks"),
    ("file.syscalls_per_block", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_op", "count"),
    ("lookup.block_reads_per_get", "count"),
    ("bloom.skips_per_get", "count"),
    ("get.miss_share", "ratio"),
    ("get.hit_path_p50_us", "us"),
    ("get.miss_path_p50_us", "us"),
    ("scan.us_per_record", "us"),
    ("put.fg_p50_us", "us"),
    ("merge.put_share", "ratio"),
    ("merge.busy_share", "ratio"),
    ("merge.cpu_share", "ratio"),
    ("merge.blocks_read_per_mb", "blocks/MiB"),
    ("merge.blocks_preserved_per_mb", "blocks/MiB"),
    ("merge.L1_blocks_written_per_mb", "blocks/MiB"),
    ("merge.L2_blocks_written_per_mb", "blocks/MiB"),
    ("merge.L3_blocks_written_per_mb", "blocks/MiB"),
    ("policy.us_per_choice", "us"),
    ("policy.choices_per_mb", "1/MiB"),
    ("wal.puts_per_fsync", "ratio"),
    ("wal.append_us_per_put", "us"),
    ("wal.group_commit_wait_us_per_put", "us"),
    ("shard.lock_wait_us_per_put", "us"),
    ("scheduler.backpressure_wait_us_per_put", "us"),
    ("scheduler.queue_delay_p50_us", "us"),
    ("scheduler.merge_busy_share", "ratio"),
    ("recovery.records_per_s", "1/s"),
    ("recovery.wal_bytes", "bytes"),
    ("trace.overhead", "ratio"),
    ("attrib.unexplained_share", "ratio"),
    ("env.steal_share", "ratio"),
    ("env.runqueue_wait_share", "ratio"),
];

/// Per-layer values of one traced run, defaulting to 0.
#[derive(Default)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = LAYERS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        self.0.insert(key, value);
    }

    /// The `device.*` metrics: blocks per MiB ingested and per call from
    /// `counts`, busy shares from `timed`, the traced pass's device
    /// counters over its wall time `wall_ns`.
    pub fn device(&mut self, counts: &DeviceSnap, mb: f64, timed: &DeviceSnap, wall_ns: f64) {
        let (reads, writes) = (counts.read_blocks as f64, counts.write_blocks as f64);
        self.set("device.write_blocks_per_mb", writes / mb);
        self.set("device.read_blocks_per_mb", reads / mb);
        self.set("device.write_busy_share", timed.write_ns as f64 / wall_ns);
        self.set("device.read_busy_share", timed.read_ns as f64 / wall_ns);
        self.set("device.blocks_per_write_call", ratio(writes, counts.write_calls as f64));
        self.set("device.blocks_per_read_call", ratio(reads, counts.read_calls as f64));
    }

    /// `trace.overhead` from the bare and traced passes' operation rates,
    /// `attrib.unexplained_share` from the client root-span time over the
    /// clients' wall time, and the bare pass's host diagnostics.
    pub fn bench(&mut self, rates: (f64, f64), attributed_ns: f64, wall_ns: f64, host: (f64, f64)) {
        self.set("trace.overhead", rates.0 / rates.1 - 1.0);
        self.set("attrib.unexplained_share", 1.0 - attributed_ns / wall_ns);
        self.set("env.steal_share", host.0);
        self.set("env.runqueue_wait_share", host.1);
    }

    pub fn into_outcome(self, out: &mut Outcome) {
        for (name, unit) in LAYERS {
            out.layer(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn print_outcome(args: &Args, out: &mut Outcome) {
    let metrics = if args.trace { &out.per_layer } else { &out.end_to_end };
    for m in metrics.iter().chain(&out.info) {
        match m.samples {
            Some(n) => println!("{:<40} {:>16.4} {:<10} n={n}", m.name, m.value, m.unit),
            None => println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    for m in metrics {
        if !m.value.is_finite() {
            out.broken.push(format!("{} is not finite", m.name));
        }
    }
    for b in &out.broken {
        println!("CHECK FAILED: {b}");
    }
    println!("attempted {} failed {}", out.attempted, out.failed);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("{}: {{\"value\": {v:?}, \"unit\": {}}}", json_str(&m.name), json_str(m.unit))
        })
        .collect();
    let correct = out.broken.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "steady_write" => steady::run(&args),
        "read_skewed" => skewed::run(&args),
        "durable_mixed" => durable::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    print_outcome(&args, &mut out);
    ExitCode::SUCCESS
}
