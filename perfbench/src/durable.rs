//! `durable_mixed`: group-committed writes on real files, then recovery.
//!
//! A 2-shard `ShardedLsmTree`, each shard on a `FileDevice` with its own
//! WAL, `CommitMode::Group` and one background merge worker. Set-up loads
//! `KEYS` records (≈ 21 MiB of user data; the 32 MiB block cache holds
//! them). Two clients then each run 50 % overwrites and 50 % gets over
//! their own (already acknowledged) keys: `PREFIX_OPS` requests each, a
//! pause in which the tree is drained and the exact counts are read, then
//! requests until the phase's time is up. Afterwards the tree is dropped,
//! each WAL is cut to its synced length, and `recover_with_wal` rebuilds
//! the tree; every acknowledged write must be readable from it.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use lsm_tree::{
    BackgroundPolicy, CommitMode, LsmConfig, PolicySpec, Request, Scheduler, ShardedLsmTree,
    TreeOptions, TreeStats, WriteBatch,
};
use observe::trace::{SpanKind, Tracer};
use observe::SinkHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_ssd::cache::CacheStats;
use sim_ssd::{BlockDevice, FileDevice};
use workloads::payload_for;

use crate::measure::{peak_rss_mb, ratio, HostClock, MergeWork, Outcome, Series, Sorted, Windows};
use crate::probe::{
    cache_since, shard_cache_stats, shard_live_blocks, thread_dev_blocks, DeviceCounters,
    DeviceSnap, NanoClock, SpanFold, TimedDevice,
};
use crate::{repeated_setup, Args, Layers, MIB};

const PAYLOAD: usize = 100;
const SHARDS: usize = 2;
const CLIENTS: u64 = 2;
/// Keys `0..KEYS`; client `c` owns the keys congruent to `c` mod 2.
const KEYS: u64 = 200_000;
const CACHE_BLOCKS: usize = 8192;
const DEVICE_BLOCKS_PER_SHARD: u64 = 16_384;
const LOAD_BATCH: u64 = 2000;
const CHUNK: usize = 4096;
/// Requests per client before the exact counts are read.
const PREFIX_OPS: usize = 24 * CHUNK;
/// Latency samples kept per client and kind of operation.
const SAMPLES: usize = 1 << 17;

fn config() -> LsmConfig {
    LsmConfig { k0_blocks: 16, cache_blocks: CACHE_BLOCKS, ..LsmConfig::default() }
}

fn options(sink: SinkHandle) -> TreeOptions {
    TreeOptions::builder()
        .policy(PolicySpec::ChooseBest)
        .scheduler(Scheduler::Background(BackgroundPolicy { workers: 1, max_imm_memtables: 4 }))
        .group_commit(CommitMode::Group)
        .sink(sink)
        .build()
}

fn value(key: u64, version: u32) -> Bytes {
    payload_for(key | (u64::from(version) << 32), PAYLOAD)
}

/// A scratch directory under the working directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

struct Rig {
    tree: ShardedLsmTree,
    files: Vec<Arc<FileDevice>>,
    dev: Arc<DeviceCounters>,
    dir: ScratchDir,
}

impl Rig {
    fn syscalls(&self) -> u64 {
        self.files.iter().map(|f| f.syscalls()).map(|s| s.preads + s.pwrites).sum()
    }
}

fn setup(timed: bool, sink: SinkHandle) -> Rig {
    let dir = ScratchDir::new("durable_mixed");
    let dev = Arc::new(DeviceCounters::default());
    let files: Vec<Arc<FileDevice>> = (0..SHARDS)
        .map(|i| {
            let path = dir.0.join(format!("shard-{i}.dev"));
            let f = FileDevice::create_with_block_size(path, DEVICE_BLOCKS_PER_SHARD, 4096);
            Arc::new(f.expect("create device file"))
        })
        .collect();
    let devices: Vec<Arc<dyn BlockDevice>> =
        files.iter().map(|f| TimedDevice::wrap(f.clone(), dev.clone(), timed)).collect();
    let tree = ShardedLsmTree::with_backend(config(), options(sink), devices, Some(&dir.0), None)
        .expect("build durable_mixed");
    for lo in (0..KEYS).step_by(LOAD_BATCH as usize) {
        let mut batch = WriteBatch::with_capacity(LOAD_BATCH as usize);
        for k in lo..(lo + LOAD_BATCH).min(KEYS) {
            batch.put(k, value(k, 0));
        }
        tree.write_batch(batch).expect("load");
    }
    tree.flush().expect("drain load");
    Rig { tree, files, dev, dir }
}

/// One client's closed loop over its own keys.
struct Client {
    c: u64,
    rng: StdRng,
    windows: Windows,
    puts: Series,
    gets: Series,
    miss_gets: u64,
    failed: u64,
    host: (f64, f64),
    /// Time spent applying requests; tape generation is left out.
    wall: Duration,
    /// Version of each owned key (index `key / 2`) after the last ack.
    versions: Vec<u32>,
}

impl Client {
    fn new(c: u64, seed: u64, seconds: f64) -> Client {
        Client {
            c,
            rng: StdRng::seed_from_u64(seed ^ (0xC11E_0000 + c)),
            windows: Windows::new(seconds),
            puts: Series::new(SAMPLES),
            gets: Series::new(SAMPLES),
            miss_gets: 0,
            failed: 0,
            host: (0.0, 0.0),
            wall: Duration::ZERO,
            versions: vec![0; (KEYS / CLIENTS) as usize],
        }
    }

    fn ops(&self) -> usize {
        self.puts.len() + self.gets.len()
    }

    /// Apply tape chunks while `more` holds.
    fn run(&mut self, tree: &ShardedLsmTree, more: impl Fn(&Client) -> bool) {
        while more(self) {
            let tape: Vec<(u64, Option<Bytes>, Bytes)> = (0..CHUNK)
                .map(|_| {
                    let i = self.rng.gen_range(0..KEYS / CLIENTS);
                    let key = i * CLIENTS + self.c;
                    let version = &mut self.versions[i as usize];
                    if self.rng.gen_bool(0.5) {
                        *version += 1;
                        (key, Some(value(key, *version)), Bytes::new())
                    } else {
                        (key, None, value(key, *version))
                    }
                })
                .collect();
            let t_chunk = Instant::now();
            for (key, put, expect) in tape {
                let t0 = Instant::now();
                if let Some(payload) = put {
                    let res = tree.apply(Request::Put(key, payload));
                    let d = t0.elapsed();
                    self.puts.push(self.windows.of(self.wall + t0.duration_since(t_chunk) + d), d);
                    self.failed += u64::from(res.is_err());
                } else {
                    let r0 = thread_dev_blocks().0;
                    let got = tree.get(key);
                    let d = t0.elapsed();
                    self.gets.push(self.windows.of(self.wall + t0.duration_since(t_chunk) + d), d);
                    self.miss_gets += u64::from(thread_dev_blocks().0 > r0);
                    let ok = matches!(&got, Ok(Some(v)) if *v == expect);
                    self.failed += u64::from(!ok);
                }
            }
            self.wall += t_chunk.elapsed();
        }
    }
}

/// A client's timed phase: `PREFIX_OPS` requests, a pause at `pause`
/// while the prefix is read, then requests until `seconds` have passed.
fn client(tree: &ShardedLsmTree, c: u64, seed: u64, seconds: f64, pause: &Barrier) -> Client {
    let mut me = Client::new(c, seed, seconds);
    let host0 = HostClock::now();
    me.run(tree, |me| me.ops() < PREFIX_OPS);
    pause.wait();
    pause.wait();
    me.run(tree, |me| me.wall.as_secs_f64() < seconds);
    me.host = HostClock::now().since(&host0);
    me
}

/// Counts after every client's first `PREFIX_OPS` requests and a drain:
/// the same work on every run, however fast the host is.
struct Prefix {
    merge: MergeWork,
    ingested_mb: f64,
    space_amp: f64,
    /// Peak resident set size so far (set-up and the prefix), in MiB.
    peak_rss_mb: f64,
}

impl Prefix {
    fn read(tree: &ShardedLsmTree, stats0: &TreeStats) -> Prefix {
        tree.flush().expect("drain after the prefix");
        let stats = tree.stats();
        let puts = stats.total_requests() - stats0.total_requests();
        let live_blocks = shard_live_blocks(tree);
        Prefix {
            merge: MergeWork::between(stats0, &stats),
            ingested_mb: puts as f64 * config().record_size() as f64 / MIB,
            space_amp: live_blocks as f64 * 4096.0 / (KEYS as f64 * (8 + PAYLOAD) as f64),
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

struct Phase {
    windows: Windows,
    /// Per client.
    puts: Vec<Series>,
    gets: Vec<Series>,
    miss_gets: u64,
    /// Mean over the clients of the time each spent applying requests.
    wall: Duration,
    failed: u64,
    attempted: u64,
    host: (f64, f64),
    fsyncs: u64,
    cache: CacheStats,
    lookups: u64,
    lookup_block_reads: u64,
    dev: DeviceSnap,
    syscalls: u64,
    prefix: Prefix,
    recovery_s: f64,
    recovered_records: u64,
    wal_bytes: u64,
    /// Peak resident set size up to the end of recovery, in MiB.
    peak_rss_after_recovery_mb: f64,
}

impl Phase {
    fn put_count(&self) -> usize {
        self.puts.iter().map(Series::len).sum()
    }

    fn get_count(&self) -> usize {
        self.gets.iter().map(Series::len).sum()
    }

    fn series(&self) -> Vec<&Series> {
        self.puts.iter().chain(&self.gets).collect()
    }
}

fn timed_phase(rig: Rig, seed: u64, seconds: f64) -> Phase {
    let stats0 = rig.tree.stats();
    let cache0 = shard_cache_stats(&rig.tree);
    let dev0 = rig.dev.snap();
    let sys0 = rig.syscalls();
    let fsyncs0 = rig.tree.wal_fsyncs();
    let pause = Barrier::new(CLIENTS as usize + 1);
    let (clients, prefix): (Vec<Client>, Prefix) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (tree, pause) = (&rig.tree, &pause);
                s.spawn(move || client(tree, c, seed, seconds, pause))
            })
            .collect();
        pause.wait();
        let prefix = Prefix::read(&rig.tree, &stats0);
        pause.wait();
        let clients = handles.into_iter().map(|h| h.join().expect("client thread panicked"));
        (clients.collect(), prefix)
    });
    let fsyncs = rig.tree.wal_fsyncs() - fsyncs0;
    rig.tree.flush().expect("drain after timing");
    let stats = rig.tree.stats();
    let cache = shard_cache_stats(&rig.tree);
    let dev = rig.dev.snap() - dev0;
    let syscalls = rig.syscalls() - sys0;
    let n = clients.len() as f64;

    let mut p = Phase {
        windows: Windows::new(seconds),
        puts: Vec::new(),
        gets: Vec::new(),
        miss_gets: 0,
        wall: clients.iter().map(|c| c.wall).sum::<Duration>().div_f64(n),
        failed: 0,
        attempted: 0,
        host: (0.0, 0.0),
        fsyncs,
        cache: cache_since(cache, cache0),
        lookups: stats.lookups() - stats0.lookups(),
        lookup_block_reads: stats.lookup_block_reads() - stats0.lookup_block_reads(),
        dev,
        syscalls,
        prefix,
        recovery_s: 0.0,
        recovered_records: 0,
        wal_bytes: 0,
        peak_rss_after_recovery_mb: 0.0,
    };

    // Crash-style restart: keep only the synced WAL prefix, replay it.
    let synced = rig.tree.wal_synced_lens();
    let Rig { tree, files, dir, .. } = rig;
    drop(tree);
    drop(files);
    for (i, len) in synced.iter().enumerate() {
        let f = std::fs::OpenOptions::new().write(true).open(wal_path(&dir.0, i));
        f.and_then(|f| f.set_len(*len)).expect("truncate WAL to its synced length");
    }
    p.wal_bytes = synced.iter().sum();
    let t0 = Instant::now();
    let recovered = ShardedLsmTree::recover_with_wal(
        config(),
        options(SinkHandle::none()),
        SHARDS,
        DEVICE_BLOCKS_PER_SHARD,
        &dir.0,
    )
    .expect("recover from WAL");
    p.recovery_s = t0.elapsed().as_secs_f64();
    p.recovered_records = recovered.stats().total_requests();

    for (c, cl) in clients.iter().enumerate() {
        for (i, &v) in cl.versions.iter().enumerate() {
            let key = i as u64 * CLIENTS + c as u64;
            let ok = matches!(recovered.get(key), Ok(Some(got)) if got == value(key, v));
            p.failed += u64::from(!ok);
        }
        p.attempted += cl.versions.len() as u64;
    }
    p.peak_rss_after_recovery_mb = peak_rss_mb();
    drop(recovered);
    drop(dir);
    for cl in clients {
        p.attempted += (cl.puts.len() + cl.gets.len()) as u64;
        p.failed += cl.failed;
        p.miss_gets += cl.miss_gets;
        p.host = (p.host.0 + cl.host.0 / n, p.host.1 + cl.host.1 / n);
        p.puts.push(cl.puts);
        p.gets.push(cl.gets);
    }
    p
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let record = config().record_size() as f64;
    if !args.trace {
        let (rig, setup_s) = repeated_setup(|| setup(false, SinkHandle::none()));
        let p = timed_phase(rig, args.seed, args.seconds);
        out.attempted += p.attempted;
        out.failed += p.failed;
        let e = &p.prefix;
        out.e2e("setup_s", setup_s, "s");
        out.e2e("ops_per_s", p.windows.ops_per_s(&p.series(), p.wall), "1/s");
        out.e2e("blocks_written_per_mb", e.merge.written as f64 / e.ingested_mb, "blocks/MiB");
        out.e2e("space_amp", e.space_amp, "ratio");
        out.e2e("peak_rss_mb", e.peak_rss_mb, "MiB");
        let tape = CLIENTS as usize
            * CHUNK
            * (std::mem::size_of::<(u64, Option<Bytes>, Bytes)>() + PAYLOAD + 16);
        out.info("bench_tape_mb", tape as f64 / MIB, "MiB");
        let samples: usize = p.series().iter().map(|s| s.sample_bytes()).sum();
        out.info("bench_samples_mb", samples as f64 / MIB, "MiB");
        let puts = Sorted::of(&p.puts.iter().collect::<Vec<_>>());
        out.info_pct("put_p50_us", &puts, 0.50);
        out.info_pct("put_p99_us", &puts, 0.99);
        out.info_pct("get_p50_us", &Sorted::of(&p.gets.iter().collect::<Vec<_>>()), 0.50);
        out.info("recovery_s", p.recovery_s, "s");
        out.info("recovered_records", p.recovered_records as f64, "count");
        out.info("peak_rss_after_recovery_mb", p.peak_rss_after_recovery_mb, "MiB");
        out.host_info(p.host);
        return out;
    }

    let a = timed_phase(setup(false, SinkHandle::none()), args.seed, args.seconds / 2.0);
    let fold = Arc::new(SpanFold::default());
    let tracer = Tracer::with_clock(NanoClock::new()).trace_to(fold.clone());
    let rig = setup(true, SinkHandle::of(tracer));
    fold.set_on(true);
    let b = timed_phase(rig, args.seed, args.seconds / 2.0);
    fold.set_on(false);
    let f = fold.take();
    out.attempted += a.attempted + b.attempted;
    out.failed += a.failed + b.failed;

    let puts = a.put_count() as f64;
    let gets = a.get_count() as f64;
    let mb = puts * record / MIB;
    let wall_b = b.wall.as_nanos() as f64;
    let b_puts = b.put_count() as f64;
    let per_put = |kind: SpanKind| f.ns(kind) as f64 / 1e3 / b_puts;
    let rates = (
        (puts + gets) / a.wall.as_secs_f64(),
        (b_puts + b.get_count() as f64) / b.wall.as_secs_f64(),
    );
    let client_ns = (f.root(SpanKind::Put) + f.root(SpanKind::Lookup)) as f64;
    let blocks = (a.dev.read_blocks + a.dev.write_blocks) as f64;
    let mut qd = f.queue_delay_ns.clone();
    qd.sort_unstable();
    let mut l = Layers::default();
    l.device(&a.dev, mb, &b.dev, wall_b);
    l.set("file.syscalls_per_block", ratio(a.syscalls as f64, blocks));
    l.set("cache.hit_ratio", a.cache.hit_rate());
    l.set("cache.evictions_per_op", a.cache.evictions as f64 / (puts + gets));
    l.set("lookup.block_reads_per_get", ratio(a.lookup_block_reads as f64, a.lookups as f64));
    l.set("get.miss_share", ratio(a.miss_gets as f64, gets));
    l.set("put.fg_p50_us", Sorted::of(&a.puts.iter().collect::<Vec<_>>()).pct_us(0.5));
    let cascade = f.ns(SpanKind::Cascade) as f64;
    l.set("merge.busy_share", cascade / wall_b);
    l.set("merge.cpu_share", ratio(cascade - f.cascade_dev_ns as f64, cascade));
    a.prefix.merge.report(&mut l, a.prefix.ingested_mb);
    l.set("wal.puts_per_fsync", ratio(puts, a.fsyncs as f64));
    l.set("wal.append_us_per_put", per_put(SpanKind::WalAppend));
    l.set("wal.group_commit_wait_us_per_put", per_put(SpanKind::GroupCommitWait));
    l.set("shard.lock_wait_us_per_put", per_put(SpanKind::LockWait));
    l.set("scheduler.backpressure_wait_us_per_put", per_put(SpanKind::BackpressureWait));
    l.set(
        "scheduler.queue_delay_p50_us",
        qd.get(qd.len().saturating_sub(1) / 2).map_or(0.0, |&ns| ns as f64 / 1e3),
    );
    l.set("scheduler.merge_busy_share", f.root(SpanKind::Cascade) as f64 / wall_b);
    l.set("recovery.records_per_s", a.recovered_records as f64 / a.recovery_s);
    l.set("recovery.wal_bytes", a.wal_bytes as f64);
    l.bench(rates, client_ns, wall_b * CLIENTS as f64, a.host);
    l.into_outcome(&mut out);
    out
}
