//! `read_skewed`: Zipf(0.99) reads over data much larger than the cache.
//!
//! A 2-shard `ShardedLsmTree` with inline merges and 10-bit Bloom filters
//! is bulk-loaded with `KEYS` even keys (≈ 27 MiB of user data against a
//! 1 MiB block cache). One client then runs 80 % point gets (a tenth of
//! them on absent odd keys), 10 % 16-record scans and 10 % overwrites.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lsm_tree::{LsmConfig, PolicySpec, Request, ShardedLsmTree, TreeOptions};
use observe::trace::{SpanKind, Tracer};
use observe::SinkHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_ssd::cache::CacheStats;
use sim_ssd::{BlockDevice, MemDevice};
use workloads::{payload_for, InsertRatio, Zipf};

use crate::measure::{peak_rss_mb, ratio, HostClock, MergeWork, Outcome, Series, Windows};
use crate::probe::{
    cache_since, shard_cache_stats, shard_live_blocks, thread_dev_blocks, DeviceCounters,
    DeviceSnap, NanoClock, SpanFold, TimedDevice,
};
use crate::{repeated_setup, Args, Layers, MIB};

const PAYLOAD: usize = 100;
const SHARDS: usize = 2;
/// Present keys are `2 * i` for `i < KEYS`; odd keys are always absent.
const KEYS: u64 = 1 << 18;
const CACHE_BLOCKS: usize = 256;
const DEVICE_BLOCKS_PER_SHARD: u64 = 16_384;
const SCAN_KEYS: u64 = 16;
const CHUNK: usize = 8192;
/// Requests after which the exact counts are read.
pub const EXACT_OPS: usize = 400_000;
/// Latency samples kept per kind of operation.
const SAMPLES: usize = 1 << 18;

fn config() -> LsmConfig {
    LsmConfig {
        k0_blocks: 16,
        cache_blocks: CACHE_BLOCKS,
        bloom_bits_per_key: 10,
        ..LsmConfig::default()
    }
}

/// Payload of `key` after `version` overwrites; version 0 is the
/// plain `payload_for(key)` the bulk load writes.
fn value(key: u64, version: u32) -> Bytes {
    payload_for(key | (u64::from(version) << 32), PAYLOAD)
}

enum Op {
    Get(u64, Option<Bytes>),
    Scan(u64, u64, Vec<(u64, Bytes)>),
    Put(u64, Bytes),
}

struct Rig {
    tree: ShardedLsmTree,
    zipf: Zipf,
    rng: StdRng,
    versions: Vec<u32>,
    dev: Arc<DeviceCounters>,
}

impl Rig {
    /// Zipf rank → present-key index, scattered so hot keys do not share
    /// blocks (odd-multiplier permutation of the power-of-two domain).
    fn hot_index(&mut self) -> u64 {
        self.zipf.sample_rank().wrapping_mul(0x9E37_79B9_7F4A_7C15) & (KEYS - 1)
    }

    /// Generate one request with its expected result.
    fn next(&mut self) -> Op {
        let i = self.hot_index();
        let pick = self.rng.gen_range(0..100u32);
        if pick < 8 {
            Op::Get(2 * i + 1, None)
        } else if pick < 80 {
            Op::Get(2 * i, Some(value(2 * i, self.versions[i as usize])))
        } else if pick < 90 {
            let hi_i = (i + SCAN_KEYS - 1).min(KEYS - 1);
            let expect = (i..=hi_i).map(|j| (2 * j, value(2 * j, self.versions[j as usize])));
            Op::Scan(2 * i, 2 * hi_i + 1, expect.collect())
        } else {
            self.versions[i as usize] += 1;
            Op::Put(2 * i, value(2 * i, self.versions[i as usize]))
        }
    }
}

fn setup(seed: u64, timed: bool, sink: SinkHandle) -> Rig {
    let dev = Arc::new(DeviceCounters::default());
    let devices: Vec<Arc<dyn BlockDevice>> = (0..SHARDS)
        .map(|_| {
            let mem = Arc::new(MemDevice::with_block_size(DEVICE_BLOCKS_PER_SHARD, 4096));
            TimedDevice::wrap(mem, dev.clone(), timed)
        })
        .collect();
    let opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).sink(sink).build();
    let tree = ShardedLsmTree::with_devices(config(), opts, devices).expect("build read_skewed");
    for i in 0..KEYS {
        tree.put(2 * i, value(2 * i, 0)).expect("bulk load");
    }
    Rig {
        tree,
        zipf: Zipf::new(seed, KEYS, PAYLOAD, InsertRatio(0.0), 0.99),
        rng: StdRng::seed_from_u64(seed ^ 0x5EED),
        versions: vec![0; KEYS as usize],
        dev,
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Exact {
    merge: MergeWork,
    puts: u64,
    merge_puts: u64,
    gets: u64,
    miss_gets: u64,
    lookups: u64,
    lookup_block_reads: u64,
    bloom_skips: u64,
    space_amp: f64,
    cache: CacheStats,
    dev: DeviceSnap,
}

struct Phase {
    exact: Option<Exact>,
    windows: Windows,
    gets: Series,
    hit_gets: Series,
    miss_gets: Series,
    scans: Series,
    scan_records: u64,
    puts: Series,
    fg_puts: Series,
    merge_puts: u64,
    wall: Duration,
    failed: u64,
    host: (f64, f64),
    dev: DeviceSnap,
    /// Peak resident set size at the exact-count index, in MiB.
    peak_rss_mb: f64,
}

impl Phase {
    fn ops(&self) -> usize {
        self.gets.len() + self.scans.len() + self.puts.len()
    }
}

fn timed_phase(rig: &mut Rig, seconds: f64) -> Phase {
    let stats0 = rig.tree.stats();
    let cache0 = shard_cache_stats(&rig.tree);
    let dev0 = rig.dev.snap();
    let mut p = Phase {
        exact: None,
        windows: Windows::new(seconds),
        gets: Series::new(SAMPLES),
        hit_gets: Series::new(SAMPLES),
        miss_gets: Series::new(SAMPLES),
        scans: Series::new(SAMPLES),
        scan_records: 0,
        puts: Series::new(SAMPLES),
        fg_puts: Series::new(SAMPLES),
        merge_puts: 0,
        wall: Duration::ZERO,
        failed: 0,
        host: (0.0, 0.0),
        dev: DeviceSnap::default(),
        peak_rss_mb: 0.0,
    };
    let host0 = HostClock::now();
    while p.wall.as_secs_f64() < seconds || p.ops() < EXACT_OPS {
        let tape: Vec<Op> = (0..CHUNK).map(|_| rig.next()).collect();
        let t_chunk = Instant::now();
        for op in tape {
            let (r0, w0) = thread_dev_blocks();
            match op {
                Op::Get(key, expect) => {
                    let t0 = Instant::now();
                    let got = rig.tree.get(key);
                    let d = t0.elapsed();
                    let w = p.windows.of(p.wall + t0.duration_since(t_chunk) + d);
                    let ok = matches!((&got, &expect), (Ok(g), e) if g.as_deref() == e.as_deref());
                    p.failed += u64::from(!ok);
                    p.gets.push(w, d);
                    if thread_dev_blocks().0 > r0 {
                        p.miss_gets.push(w, d);
                    } else {
                        p.hit_gets.push(w, d);
                    }
                }
                Op::Scan(lo, hi, expect) => {
                    let t0 = Instant::now();
                    let got = rig.tree.scan_collect(lo, hi);
                    let d = t0.elapsed();
                    p.scans.push(p.windows.of(p.wall + t0.duration_since(t_chunk) + d), d);
                    let ok = matches!(&got, Ok(g) if *g == expect);
                    p.failed += u64::from(!ok);
                    p.scan_records += got.map_or(0, |g| g.len() as u64);
                }
                Op::Put(key, payload) => {
                    let t0 = Instant::now();
                    let res = rig.tree.apply(Request::Put(key, payload));
                    let d = t0.elapsed();
                    let w = p.windows.of(p.wall + t0.duration_since(t_chunk) + d);
                    p.failed += u64::from(res.is_err());
                    p.puts.push(w, d);
                    if thread_dev_blocks().1 > w0 {
                        p.merge_puts += 1;
                    } else {
                        p.fg_puts.push(w, d);
                    }
                }
            }
            if p.ops() == EXACT_OPS {
                let s = rig.tree.stats();
                let cache = shard_cache_stats(&rig.tree);
                let device_bytes = shard_live_blocks(&rig.tree) as f64 * 4096.0;
                p.exact = Some(Exact {
                    merge: MergeWork::between(&stats0, &s),
                    puts: p.puts.len() as u64,
                    merge_puts: p.merge_puts,
                    gets: p.gets.len() as u64,
                    miss_gets: p.miss_gets.len() as u64,
                    lookups: s.lookups() - stats0.lookups(),
                    lookup_block_reads: s.lookup_block_reads() - stats0.lookup_block_reads(),
                    bloom_skips: s.bloom_skips() - stats0.bloom_skips(),
                    space_amp: device_bytes / (KEYS as f64 * (8 + PAYLOAD) as f64),
                    cache: cache_since(cache, cache0),
                    dev: (rig.dev.snap() - dev0).counts(),
                });
                p.peak_rss_mb = peak_rss_mb();
            }
        }
        p.wall += t_chunk.elapsed();
    }
    p.host = HostClock::now().since(&host0);
    p.dev = rig.dev.snap() - dev0;
    p
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let record = config().record_size() as f64;
    if !args.trace {
        let mut fingerprints = Vec::new();
        let (mut rig, setup_s) = repeated_setup(|| {
            let r = setup(args.seed, false, SinkHandle::none());
            fingerprints.push((r.tree.stats(), shard_live_blocks(&r.tree)));
            r
        });
        out.check(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "read_skewed set-up is not deterministic",
        );
        let p = timed_phase(&mut rig, args.seconds);
        let e = p.exact.clone().expect("exact prefix reached");
        out.attempted += p.ops() as u64;
        out.failed += p.failed;
        let ingested = e.puts as f64 * record / MIB;
        out.e2e("setup_s", setup_s, "s");
        out.e2e("ops_per_s", p.windows.ops_per_s(&[&p.gets, &p.scans, &p.puts], p.wall), "1/s");
        out.e2e("blocks_written_per_mb", e.merge.written as f64 / ingested, "blocks/MiB");
        out.e2e("space_amp", e.space_amp, "ratio");
        out.e2e("peak_rss_mb", p.peak_rss_mb, "MiB");
        out.info("bench_tape_mb", (CHUNK * std::mem::size_of::<Op>()) as f64 / MIB, "MiB");
        let series = [&p.gets, &p.hit_gets, &p.miss_gets, &p.scans, &p.puts, &p.fg_puts];
        let samples: usize = series.iter().map(|s| s.sample_bytes()).sum();
        out.info("bench_samples_mb", samples as f64 / MIB, "MiB");
        let (puts, gets, scans) = (p.puts.all(), p.gets.all(), p.scans.all());
        out.info_pct("put_p50_us", &puts, 0.50);
        out.info_pct("put_p99_us", &puts, 0.99);
        out.info_pct("get_p50_us", &gets, 0.50);
        out.info_pct("get_p99_us", &gets, 0.99);
        out.info_pct("scan_p50_us", &scans, 0.50);
        out.info_pct("scan_p99_us", &scans, 0.99);
        out.host_info(p.host);
        return out;
    }

    let mut plain = setup(args.seed, false, SinkHandle::none());
    let a = timed_phase(&mut plain, args.seconds / 2.0);
    drop(plain);
    let fold = Arc::new(SpanFold::default());
    let tracer = Tracer::with_clock(NanoClock::new()).trace_to(fold.clone());
    let mut traced = setup(args.seed, true, SinkHandle::of(tracer));
    fold.set_on(true);
    let b = timed_phase(&mut traced, args.seconds / 2.0);
    fold.set_on(false);
    let f = fold.take();
    let e = a.exact.clone().expect("exact prefix reached");
    out.check(a.exact == b.exact, "traced and untraced read_skewed counts differ");
    out.attempted += (a.ops() + b.ops()) as u64;
    out.failed += a.failed + b.failed;

    let ops = EXACT_OPS as f64;
    let mb = e.puts as f64 * record / MIB;
    let wall_b = b.wall.as_nanos() as f64;
    let rates = (a.ops() as f64 / a.wall.as_secs_f64(), b.ops() as f64 / b.wall.as_secs_f64());
    let client_ns = f.root(SpanKind::Put) + f.root(SpanKind::Lookup) + f.root(SpanKind::Scan);
    let mut l = Layers::default();
    l.device(&e.dev, mb, &b.dev, wall_b);
    l.set("cache.hit_ratio", e.cache.hit_rate());
    l.set("cache.evictions_per_op", e.cache.evictions as f64 / ops);
    l.set("lookup.block_reads_per_get", ratio(e.lookup_block_reads as f64, e.lookups as f64));
    l.set("bloom.skips_per_get", ratio(e.bloom_skips as f64, e.lookups as f64));
    l.set("get.miss_share", ratio(e.miss_gets as f64, e.gets as f64));
    l.set("get.hit_path_p50_us", a.hit_gets.all().pct_us(0.5));
    l.set("get.miss_path_p50_us", a.miss_gets.all().pct_us(0.5));
    l.set("scan.us_per_record", ratio(a.scans.all().sum_ns() as f64 / 1e3, a.scan_records as f64));
    l.set("put.fg_p50_us", a.fg_puts.all().pct_us(0.5));
    l.set("merge.put_share", ratio(e.merge_puts as f64, e.puts as f64));
    let cascade = f.ns(SpanKind::Cascade) as f64;
    l.set("merge.busy_share", cascade / wall_b);
    l.set("merge.cpu_share", ratio(cascade - f.cascade_dev_ns as f64, cascade));
    e.merge.report(&mut l, mb);
    l.bench(rates, client_ns as f64, wall_b, a.host);
    l.into_outcome(&mut out);
    out
}
