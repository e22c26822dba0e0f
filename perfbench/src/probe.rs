//! Bench-owned probes around the program's public seams: a `BlockDevice`
//! wrapper, a `MergePolicy` wrapper, and a trace sink that folds the spans
//! the program already emits. Nothing here reaches inside the program.
//!
//! Block and call counts are always kept (relaxed atomics plus per-thread
//! cells, a few nanoseconds per device call). Time is read only when a
//! probe is built with `timed = true`, which only the traced run does.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use lsm_tree::policy::MergeCtx;
use lsm_tree::{MergeChoice, MergePolicy, ShardedLsmTree};
use observe::trace::{Clock, SpanKind, TraceEvent, TraceEventKind, TraceSink};
use observe::{Event, SinkHandle};
use sim_ssd::cache::CacheStats;
use sim_ssd::{BlockDevice, BlockId, IoSnapshot};

thread_local! {
    /// Blocks this thread read / wrote through any [`TimedDevice`].
    static DEV_READS: Cell<u64> = const { Cell::new(0) };
    static DEV_WRITES: Cell<u64> = const { Cell::new(0) };
    /// Nanoseconds this thread spent inside timed device and policy calls.
    static DEV_NS: Cell<u64> = const { Cell::new(0) };
    static POLICY_NS: Cell<u64> = const { Cell::new(0) };
}

/// Device blocks (reads, writes) issued by the calling thread so far.
pub fn thread_dev_blocks() -> (u64, u64) {
    (DEV_READS.with(Cell::get), DEV_WRITES.with(Cell::get))
}

fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    cell.with(|c| c.set(c.get() + by));
}

/// Block-cache counters summed over the shards of `tree`.
pub fn shard_cache_stats(tree: &ShardedLsmTree) -> CacheStats {
    let mut c = CacheStats::default();
    for s in 0..tree.shard_count() {
        let x = tree.with_shard_read(s, |t| t.store().cache_stats());
        c.hits += x.hits;
        c.misses += x.misses;
        c.evictions += x.evictions;
    }
    c
}

/// Live device blocks summed over the shards of `tree`.
pub fn shard_live_blocks(tree: &ShardedLsmTree) -> u64 {
    (0..tree.shard_count()).map(|s| tree.with_shard_read(s, |t| t.store().live_blocks())).sum()
}

/// Cache counters counted between two readings.
pub fn cache_since(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
    }
}

/// Device counters summed over every [`TimedDevice`] of one tree.
#[derive(Debug, Default)]
pub struct DeviceCounters {
    pub read_blocks: AtomicU64,
    pub write_blocks: AtomicU64,
    pub read_calls: AtomicU64,
    pub write_calls: AtomicU64,
    pub read_ns: AtomicU64,
    pub write_ns: AtomicU64,
}

/// Plain copy of [`DeviceCounters`], subtractable.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DeviceSnap {
    pub read_blocks: u64,
    pub write_blocks: u64,
    pub read_calls: u64,
    pub write_calls: u64,
    pub read_ns: u64,
    pub write_ns: u64,
}

impl DeviceCounters {
    pub fn snap(&self) -> DeviceSnap {
        DeviceSnap {
            read_blocks: self.read_blocks.load(Relaxed),
            write_blocks: self.write_blocks.load(Relaxed),
            read_calls: self.read_calls.load(Relaxed),
            write_calls: self.write_calls.load(Relaxed),
            read_ns: self.read_ns.load(Relaxed),
            write_ns: self.write_ns.load(Relaxed),
        }
    }
}

impl DeviceSnap {
    /// The block and call counts only, which repeat exactly for a seed;
    /// the times are cleared.
    pub fn counts(self) -> DeviceSnap {
        DeviceSnap { read_ns: 0, write_ns: 0, ..self }
    }
}

impl std::ops::Sub for DeviceSnap {
    type Output = DeviceSnap;
    fn sub(self, o: DeviceSnap) -> DeviceSnap {
        DeviceSnap {
            read_blocks: self.read_blocks - o.read_blocks,
            write_blocks: self.write_blocks - o.write_blocks,
            read_calls: self.read_calls - o.read_calls,
            write_calls: self.write_calls - o.write_calls,
            read_ns: self.read_ns - o.read_ns,
            write_ns: self.write_ns - o.write_ns,
        }
    }
}

/// Forwards every call to `inner`, counting blocks and calls; when
/// `timed`, also charges the call's wall time to the device counters and
/// to the calling thread.
pub struct TimedDevice {
    inner: Arc<dyn BlockDevice>,
    counters: Arc<DeviceCounters>,
    timed: bool,
}

impl TimedDevice {
    pub fn wrap(
        inner: Arc<dyn BlockDevice>,
        counters: Arc<DeviceCounters>,
        timed: bool,
    ) -> Arc<dyn BlockDevice> {
        Arc::new(TimedDevice { inner, counters, timed })
    }

    fn time<T>(&self, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
        if !self.timed {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_nanos() as u64;
        ns.fetch_add(dt, Relaxed);
        bump(&DEV_NS, dt);
        out
    }

    fn note_reads(&self, blocks: u64) {
        self.counters.read_blocks.fetch_add(blocks, Relaxed);
        self.counters.read_calls.fetch_add(1, Relaxed);
        bump(&DEV_READS, blocks);
    }

    fn note_writes(&self, blocks: u64) {
        self.counters.write_blocks.fetch_add(blocks, Relaxed);
        self.counters.write_calls.fetch_add(1, Relaxed);
        bump(&DEV_WRITES, blocks);
    }
}

impl BlockDevice for TimedDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read(&self, id: BlockId) -> sim_ssd::Result<Bytes> {
        self.note_reads(1);
        self.time(&self.counters.read_ns, || self.inner.read(id))
    }

    fn write(&self, id: BlockId, frame: &[u8]) -> sim_ssd::Result<()> {
        self.note_writes(1);
        self.time(&self.counters.write_ns, || self.inner.write(id, frame))
    }

    fn trim(&self, id: BlockId) -> sim_ssd::Result<()> {
        self.inner.trim(id)
    }

    fn sync(&self) -> sim_ssd::Result<()> {
        self.time(&self.counters.write_ns, || self.inner.sync())
    }

    fn read_many(&self, ids: &[BlockId]) -> Vec<sim_ssd::Result<Bytes>> {
        self.note_reads(ids.len() as u64);
        self.time(&self.counters.read_ns, || self.inner.read_many(ids))
    }

    fn write_many(&self, batch: &[(BlockId, Bytes)]) -> Vec<sim_ssd::Result<()>> {
        self.note_writes(batch.len() as u64);
        self.time(&self.counters.write_ns, || self.inner.write_many(batch))
    }

    fn io_snapshot(&self) -> IoSnapshot {
        self.inner.io_snapshot()
    }

    fn set_sink(&self, sink: SinkHandle) {
        self.inner.set_sink(sink);
    }
}

/// Merge-policy choices made and (when timed) the time they took.
#[derive(Debug, Default)]
pub struct PolicyCounters {
    pub choices: AtomicU64,
    pub ns: AtomicU64,
}

impl PolicyCounters {
    /// (choices, nanoseconds) so far.
    pub fn snap(&self) -> (u64, u64) {
        (self.choices.load(Relaxed), self.ns.load(Relaxed))
    }
}

/// Forwards `choose` to the tree's own policy, counting and timing it.
pub struct TimedPolicy {
    inner: Box<dyn MergePolicy>,
    counters: Arc<PolicyCounters>,
    timed: bool,
}

impl TimedPolicy {
    pub fn wrap(
        inner: Box<dyn MergePolicy>,
        counters: Arc<PolicyCounters>,
        timed: bool,
    ) -> Box<dyn MergePolicy> {
        Box::new(TimedPolicy { inner, counters, timed })
    }
}

impl MergePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(&mut self, ctx: &MergeCtx<'_>) -> MergeChoice {
        self.counters.choices.fetch_add(1, Relaxed);
        if !self.timed {
            return self.inner.choose(ctx);
        }
        let t0 = Instant::now();
        let out = self.inner.choose(ctx);
        let dt = t0.elapsed().as_nanos() as u64;
        self.counters.ns.fetch_add(dt, Relaxed);
        bump(&POLICY_NS, dt);
        out
    }
}

/// Trace clock reading nanoseconds. The tracer calls its clock's reading
/// `at_us`; [`SpanFold`] is the only consumer and treats it as ns.
pub struct NanoClock(Instant);

impl NanoClock {
    pub fn new() -> Arc<NanoClock> {
        Arc::new(NanoClock(Instant::now()))
    }
}

impl Clock for NanoClock {
    fn now_us(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One open span on a thread.
struct Open {
    id: u64,
    kind: SpanKind,
    shard: Option<usize>,
    start: u64,
    dev_ns0: u64,
    policy_ns0: u64,
    root: bool,
}

thread_local! {
    static OPEN: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

/// Span totals folded from the trace, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Folded {
    /// Total duration per span kind (by name).
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Root-span durations by kind (spans opened with nothing enclosing
    /// them on their thread): the time the trace attributes to a layer.
    pub root_ns: BTreeMap<&'static str, u64>,
    /// Device and policy time spent inside cascade spans.
    pub cascade_dev_ns: u64,
    pub cascade_policy_ns: u64,
    /// Per background job: time from the oldest memtable sealed since the
    /// shard's previous job (`FlushEnqueued`) to this job's `JobStart`.
    pub queue_delay_ns: Vec<u64>,
}

impl Folded {
    pub fn ns(&self, kind: SpanKind) -> u64 {
        self.total_ns.get(kind.name()).copied().unwrap_or(0)
    }

    pub fn root(&self, kind: SpanKind) -> u64 {
        self.root_ns.get(kind.name()).copied().unwrap_or(0)
    }
}

#[derive(Default)]
struct FoldState {
    folded: Folded,
    /// Oldest `FlushEnqueued` per shard not yet served by a job.
    pending: BTreeMap<Option<usize>, u64>,
}

/// Folds the tracer's span stream into per-kind totals. `on` gates the
/// fold so set-up work traced before the timed phase is not counted.
#[derive(Default)]
pub struct SpanFold {
    on: std::sync::atomic::AtomicBool,
    state: Mutex<FoldState>,
}

impl SpanFold {
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Relaxed);
    }

    pub fn take(&self) -> Folded {
        let mut s = self.state.lock().expect("span fold lock poisoned");
        std::mem::take(&mut s.folded)
    }
}

impl TraceSink for SpanFold {
    fn accept(&self, ev: &TraceEvent) {
        let at = ev.at_us;
        match ev.kind {
            TraceEventKind::Begin { id, op, .. } => OPEN.with(|o| {
                let mut o = o.borrow_mut();
                let root = o.is_empty();
                o.push(Open {
                    id: id.as_u64(),
                    kind: op.kind,
                    shard: op.shard,
                    start: at,
                    dev_ns0: DEV_NS.with(Cell::get),
                    policy_ns0: POLICY_NS.with(Cell::get),
                    root,
                });
            }),
            TraceEventKind::End { id, .. } => {
                let Some(span) = OPEN.with(|o| {
                    let mut o = o.borrow_mut();
                    let pos = o.iter().rposition(|s| s.id == id.as_u64())?;
                    Some(o.remove(pos))
                }) else {
                    return;
                };
                if !self.on.load(Relaxed) {
                    return;
                }
                let dur = at.saturating_sub(span.start);
                let mut s = self.state.lock().expect("span fold lock poisoned");
                let f = &mut s.folded;
                *f.total_ns.entry(span.kind.name()).or_default() += dur;
                if span.root {
                    *f.root_ns.entry(span.kind.name()).or_default() += dur;
                }
                if span.kind == SpanKind::Cascade {
                    f.cascade_dev_ns += DEV_NS.with(Cell::get) - span.dev_ns0;
                    f.cascade_policy_ns += POLICY_NS.with(Cell::get) - span.policy_ns0;
                }
            }
            TraceEventKind::Emit(Event::FlushEnqueued { .. }) => {
                let shard = OPEN.with(|o| o.borrow().iter().rev().find_map(|s| s.shard));
                let mut s = self.state.lock().expect("span fold lock poisoned");
                s.pending.entry(shard).or_insert(at);
            }
            TraceEventKind::Emit(Event::JobStart { shard, .. }) => {
                // A job runs its shard to quiescence, so it serves every
                // memtable sealed so far; the oldest one waited longest.
                let mut s = self.state.lock().expect("span fold lock poisoned");
                let oldest = s.pending.remove(&Some(shard));
                if let (Some(t), true) = (oldest, self.on.load(Relaxed)) {
                    s.folded.queue_delay_ns.push(at.saturating_sub(t));
                }
            }
            TraceEventKind::Emit(_) => {}
        }
    }
}
