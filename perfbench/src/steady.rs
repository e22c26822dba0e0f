//! `steady_write`: the paper's §V steady state on a bare tree.
//!
//! One client applies a Normal(σ = 0.5 %, ω = 10⁴) 50/50 insert/delete mix
//! to an `LsmTree` on a `MemDevice` with inline merges, ChooseBest and
//! block preservation. Set-up fills the tree with inserts until it has
//! three on-device levels, then runs the mix until a whole second-to-last
//! level's worth of records has reached the bottom.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_tree::{LsmConfig, LsmTree, PolicySpec, Request, RequestSource, TreeOptions};
use observe::trace::{SpanKind, Tracer};
use observe::SinkHandle;
use sim_ssd::MemDevice;
use workloads::{payload_for, InsertRatio, Normal};

use crate::measure::{peak_rss_mb, ratio, HostClock, MergeWork, Outcome, Series, Windows};
use crate::probe::{
    cache_since, DeviceCounters, DeviceSnap, NanoClock, PolicyCounters, SpanFold, TimedDevice,
    TimedPolicy,
};
use crate::{repeated_setup, Args, MIB};

const PAYLOAD: usize = 100;
/// L0 capacity in blocks. About 2.8 % of writes then carry a merge
/// (`merge.put_share`), far above the 0.1 % that puts p99.9 inside the
/// merge-carrying population.
const K0_BLOCKS: usize = 16;
const CACHE_BLOCKS: usize = 64;
/// Records inserted before the mix starts (≈ 11 MiB of user data).
const FILL_KEYS: usize = 100_000;
const DEVICE_BLOCKS: u64 = 16_384;
const DOMAIN: u64 = 1 << 32;
/// Requests generated per untimed tape chunk.
const CHUNK: usize = 8192;
/// Requests after which the exact counts (blocks written, space, cache,
/// merge shares) are read, so that they repeat to the last digit for a
/// seed however fast the host runs. Every run applies at least this many.
const EXACT_OPS: usize = 200_000;
/// Deleted keys remembered for the absent-key check after the run.
const DELETED_KEPT: usize = 20_000;

fn config() -> LsmConfig {
    LsmConfig { k0_blocks: K0_BLOCKS, cache_blocks: CACHE_BLOCKS, ..LsmConfig::default() }
}

struct Rig {
    tree: LsmTree,
    gen: Normal,
    live: HashSet<u64>,
    deleted: VecDeque<u64>,
    dev: Arc<DeviceCounters>,
    policy: Arc<PolicyCounters>,
}

impl Rig {
    /// Generate one request and fold it into the model.
    fn next(&mut self) -> Request {
        let req = self.gen.next_request();
        match &req {
            Request::Put(k, _) => {
                self.live.insert(*k);
            }
            Request::Delete(k) => {
                self.live.remove(k);
                if self.deleted.len() == DELETED_KEPT {
                    self.deleted.pop_front();
                }
                self.deleted.push_back(*k);
            }
        }
        req
    }
}

fn setup(seed: u64, timed: bool) -> Rig {
    let cfg = config();
    let dev = Arc::new(DeviceCounters::default());
    let policy = Arc::new(PolicyCounters::default());
    let device = TimedDevice::wrap(
        Arc::new(MemDevice::with_block_size(DEVICE_BLOCKS, cfg.block_size)),
        dev.clone(),
        timed,
    );
    let opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).preserve_blocks(true).build();
    let mut tree = LsmTree::new(cfg, opts, device).expect("build steady_write tree");
    tree.set_policy(TimedPolicy::wrap(PolicySpec::ChooseBest.build(), policy.clone(), timed));
    let gen = Normal::new(seed, DOMAIN, PAYLOAD, InsertRatio::INSERT_ONLY, 0.005, 10_000);
    let mut rig = Rig { tree, gen, live: HashSet::new(), deleted: VecDeque::new(), dev, policy };
    while rig.tree.height() < 4 || rig.live.len() < FILL_KEYS {
        let req = rig.next();
        rig.tree.apply(req).expect("fill");
    }
    // §V-A steady-state criterion: one second-to-last level's worth of
    // records merged into the bottom level.
    rig.gen.set_ratio(InsertRatio::HALF);
    let bottom = rig.tree.height() - 1;
    let cfg = rig.tree.config().clone();
    let needed = (cfg.level_capacity_blocks(bottom - 1) * cfg.block_capacity()) as u64;
    let start = rig.tree.stats().level(bottom).records_in;
    while rig.tree.stats().level(bottom).records_in < start + needed {
        let req = rig.next();
        rig.tree.apply(req).expect("reach steady state");
    }
    rig
}

/// Counts taken at a fixed request index, so they repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Exact {
    merge: MergeWork,
    merge_puts: u64,
    space_amp: f64,
    cache: sim_ssd::cache::CacheStats,
    dev: DeviceSnap,
    choices: u64,
}

struct Phase {
    exact: Exact,
    windows: Windows,
    /// Every write; samples kept for the first `EXACT_OPS`.
    writes: Series,
    /// The first `EXACT_OPS` writes, split by whether they carried a merge.
    merge_writes: Series,
    fg_writes: Series,
    wall: Duration,
    failed: u64,
    host: (f64, f64),
    dev: DeviceSnap,
    /// Peak resident set size at the exact-count index, in MiB.
    peak_rss_mb: f64,
    /// Policy choices made and time spent choosing over the whole phase.
    choices: u64,
    policy_ns: u64,
}

fn timed_phase(rig: &mut Rig, seconds: f64) -> Phase {
    let k = EXACT_OPS;
    let windows = Windows::new(seconds);
    let stats0 = rig.tree.stats().clone();
    let cache0 = rig.tree.store().cache_stats();
    let dev0 = rig.dev.snap();
    let (choices0, policy_ns0) = rig.policy.snap();
    let live0 = rig.live.len() as i64;
    let mut live_delta = 0i64;
    let mut exact = None;
    let mut rss = 0.0;
    let mut writes = Series::new(k);
    let mut merge_writes = Series::new(k);
    let mut fg_writes = Series::new(k);
    let mut failed = 0;
    let mut wall = Duration::ZERO;
    let mut ops = 0usize;
    let host0 = HostClock::now();
    while wall.as_secs_f64() < seconds || ops < k {
        let tape: Vec<Request> = (0..CHUNK).map(|_| rig.next()).collect();
        let t_chunk = Instant::now();
        for req in tape {
            let delta = if matches!(req, Request::Put(..)) { 1 } else { -1 };
            let w0 = rig.tree.stats().total_blocks_written();
            let t0 = Instant::now();
            let res = rig.tree.apply(req);
            let d = t0.elapsed();
            failed += u64::from(res.is_err());
            let w = windows.of(wall + t0.duration_since(t_chunk) + d);
            writes.push(w, d);
            if ops < k {
                if rig.tree.stats().total_blocks_written() > w0 {
                    merge_writes.push(w, d);
                } else {
                    fg_writes.push(w, d);
                }
            }
            live_delta += delta;
            ops += 1;
            if ops == k {
                let s = rig.tree.stats();
                let live_bytes = (live0 + live_delta) as f64 * (8 + PAYLOAD) as f64;
                let device_bytes =
                    rig.tree.store().live_blocks() as f64 * rig.tree.config().block_size as f64;
                let cache = rig.tree.store().cache_stats();
                exact = Some(Exact {
                    merge: MergeWork::between(&stats0, s),
                    merge_puts: merge_writes.len() as u64,
                    space_amp: device_bytes / live_bytes,
                    cache: cache_since(cache, cache0),
                    dev: (rig.dev.snap() - dev0).counts(),
                    choices: rig.policy.snap().0 - choices0,
                });
                rss = peak_rss_mb();
            }
        }
        wall += t_chunk.elapsed();
    }
    let host = HostClock::now().since(&host0);
    let (choices, policy_ns) = rig.policy.snap();
    Phase {
        exact: exact.expect("exact prefix reached"),
        windows,
        writes,
        merge_writes,
        fg_writes,
        wall,
        failed,
        host,
        dev: rig.dev.snap() - dev0,
        peak_rss_mb: rss,
        choices: choices - choices0,
        policy_ns: policy_ns - policy_ns0,
    }
}

/// Read back every live key and the most recent deleted ones.
fn verify(rig: &Rig, out: &mut Outcome) {
    let mut checked = 0u64;
    let mut wrong = 0u64;
    for &k in &rig.live {
        checked += 1;
        match rig.tree.get(k) {
            Ok(Some(v)) if v.as_ref() == payload_for(k, PAYLOAD).as_ref() => {}
            _ => wrong += 1,
        }
    }
    for &k in rig.deleted.iter().filter(|k| !rig.live.contains(k)) {
        checked += 1;
        if !matches!(rig.tree.get(k), Ok(None)) {
            wrong += 1;
        }
    }
    out.attempted += checked;
    out.failed += wrong;
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mb = EXACT_OPS as f64 * config().record_size() as f64 / MIB;
    if !args.trace {
        let mut fingerprints = Vec::new();
        let (mut rig, setup_s) = repeated_setup(|| {
            let r = setup(args.seed, false);
            fingerprints.push((r.tree.stats().clone(), r.tree.store().live_blocks()));
            r
        });
        out.check(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "steady_write set-up is not deterministic",
        );
        let p = timed_phase(&mut rig, args.seconds);
        verify(&rig, &mut out);
        out.attempted += p.writes.len() as u64;
        out.failed += p.failed;
        out.e2e("setup_s", setup_s, "s");
        out.e2e("ops_per_s", p.windows.ops_per_s(&[&p.writes], p.wall), "1/s");
        out.e2e("blocks_written_per_mb", p.exact.merge.written as f64 / mb, "blocks/MiB");
        out.e2e("space_amp", p.exact.space_amp, "ratio");
        out.e2e("peak_rss_mb", p.peak_rss_mb, "MiB");
        let tape = CHUNK * (std::mem::size_of::<Request>() + PAYLOAD + 16);
        out.info("bench_tape_mb", tape as f64 / MIB, "MiB");
        let samples = [&p.writes, &p.merge_writes, &p.fg_writes].map(Series::sample_bytes);
        out.info("bench_samples_mb", samples.iter().sum::<usize>() as f64 / MIB, "MiB");
        let writes = p.writes.all();
        out.info_pct("put_p50_us", &writes, 0.50);
        out.info_pct("put_p99_us", &writes, 0.99);
        out.info_pct("put_p999_us", &writes, 0.999);
        check_tail(&mut out, &p);
        out.host_info(p.host);
        return out;
    }

    // Traced run: an untraced pass, then the same seed again under the
    // span fold; exact counts must agree between the two.
    let mut plain = setup(args.seed, false);
    let a = timed_phase(&mut plain, args.seconds / 2.0);
    verify(&plain, &mut out);
    drop(plain);
    let fold = Arc::new(SpanFold::default());
    let mut traced = setup(args.seed, true);
    let tracer = Tracer::with_clock(NanoClock::new()).trace_to(fold.clone());
    traced.tree.set_sink(SinkHandle::of(tracer));
    fold.set_on(true);
    let b = timed_phase(&mut traced, args.seconds / 2.0);
    fold.set_on(false);
    verify(&traced, &mut out);
    let f = fold.take();
    out.check(a.exact == b.exact, "traced and untraced steady_write counts differ");
    out.attempted += (a.writes.len() + b.writes.len()) as u64;
    out.failed += a.failed + b.failed;
    check_tail(&mut out, &a);

    let e = &a.exact;
    let ops = EXACT_OPS as f64;
    let wall_b = b.wall.as_nanos() as f64;
    let cascade = f.ns(SpanKind::Cascade) as f64;
    let rates = (
        a.writes.len() as f64 / a.wall.as_secs_f64(),
        b.writes.len() as f64 / b.wall.as_secs_f64(),
    );
    let mut l = crate::Layers::default();
    l.device(&e.dev, mb, &b.dev, wall_b);
    l.set("cache.hit_ratio", e.cache.hit_rate());
    l.set("cache.evictions_per_op", e.cache.evictions as f64 / ops);
    l.set("put.fg_p50_us", a.fg_writes.all().pct_us(0.5));
    l.set("merge.put_share", e.merge_puts as f64 / ops);
    l.set("merge.busy_share", cascade / wall_b);
    l.set(
        "merge.cpu_share",
        ratio(cascade - (f.cascade_dev_ns + f.cascade_policy_ns) as f64, cascade),
    );
    e.merge.report(&mut l, mb);
    l.set("policy.us_per_choice", ratio(b.policy_ns as f64 / 1e3, b.choices as f64));
    l.set("policy.choices_per_mb", e.choices as f64 / mb);
    l.bench(rates, f.root(SpanKind::Put) as f64, wall_b, a.host);
    l.into_outcome(&mut out);
    out
}

/// p99.9 of the first `EXACT_OPS` writes must sit inside their
/// merge-carrying population: most writes at or above it carried a merge.
fn check_tail(out: &mut Outcome, p: &Phase) {
    let v = (p.writes.all().pct_us(0.999) * 1e3) as u32;
    let merge = p.merge_writes.all().0.iter().filter(|&&x| x >= v).count();
    let fg = p.fg_writes.all().0.iter().filter(|&&x| x >= v).count();
    out.info("put_p999_merge_share", ratio(merge as f64, (merge + fg) as f64), "ratio");
    out.check(merge > fg, format!("put p99.9 is not merge-bound ({merge} merge vs {fg} plain)"));
}
