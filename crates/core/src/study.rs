//! The experiment engine: immutable study context, a concurrent
//! run-cache, and batch APIs that fan independent timing runs out across
//! worker threads.
//!
//! ## Architecture
//!
//! Timing runs are temperature-independent and mutually independent, so
//! the engine splits into three pieces:
//!
//! * [`StudyCtx`] — the immutable inputs of a study (configuration plus
//!   the priced cache geometry). Shared by reference across threads.
//! * [`RunCache`] — a concurrent memo table of [`RawRun`]s keyed by
//!   [`RunKey`] behind one mutex, held only to probe or update the table.
//!   Duplicate in-flight keys are coalesced: the second requester blocks
//!   on the first run rather than re-simulating.
//! * [`Study`] — the facade binding a context, a cache, and a worker
//!   count. Single-run calls ([`Study::compare`]) behave exactly as
//!   before; batch calls ([`Study::compare_many`]) enumerate every
//!   needed timing run up front, deduplicate against the cache, execute
//!   the misses on `std::thread::scope` workers, then price serially in
//!   request order — so parallel results are byte-identical to the
//!   sequential path.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

// Under `model-check` the sync primitives come from the interleave
// checker; they delegate to std outside a checker run, so the swap is
// behaviorally inert (the default build does not compile it at all).
#[cfg(feature = "model-check")]
use interleave::sync::{atomic::AtomicU64, Condvar, Mutex};
#[cfg(not(feature = "model-check"))]
use std::sync::{atomic::AtomicU64, Condvar, Mutex};

use cachesim::{CacheStats, DecayPolicy};
use hotleakage::ModelError;
use leakctl::{Technique, TechniqueKind};
use runstore::{RecordId, RunStore, StoreCounters};
use serde::{Deserialize, Serialize};
use specgen::Benchmark;
use uarch::{CoreConfig, CoreStats};
use units::Cycles;

use crate::config::StudyConfig;
use crate::pricing::{self, CacheArrays};

/// The most intervals one [`Study::interval_sweep`] may name: one for
/// each power of two that fits in a `u64`, against the paper's 7-point
/// menu. Each distinct interval is a full simulation, so without a bound
/// one request line could ask for thousands.
pub const MAX_SWEEP_INTERVALS: usize = 64;

/// The most observation windows one closed-loop adaptive run may take.
/// Each window ends in an interval restart, which resets every L1D
/// line's decay counter and rebuilds the decay due lists: about 7 µs a
/// window on a 2-vCPU VM (gated-V_ss runs of 20 k instructions in 1,000
/// windows against 10), so the cap bounds that cost at ~7 ms a run. The
/// in-repo callers take at most 12.
pub const MAX_ADAPTIVE_WINDOWS: u64 = 1024;

/// Errors from running experiments.
#[derive(Debug)]
#[non_exhaustive]
pub enum StudyError {
    /// The leakage model rejected an operating point.
    Model(ModelError),
    /// A cache configuration was invalid.
    Cache(cachesim::ConfigError),
    /// A best-interval search was asked to choose from zero intervals.
    EmptyIntervalList,
    /// A closed-loop adaptive run was asked to observe zero-instruction
    /// windows, so it could never advance.
    EmptyAdaptiveWindow,
    /// An interval sweep named this many intervals, more than
    /// [`MAX_SWEEP_INTERVALS`]; it is refused before any run.
    TooManyIntervals(usize),
    /// A closed-loop adaptive run would take this many windows, more than
    /// [`MAX_ADAPTIVE_WINDOWS`]; it is refused before the core is built.
    TooManyWindows(u64),
    /// A post-run accounting audit found violated conservation laws (the
    /// formatted [`cachesim::audit::AuditReport`], or a pricing sanity
    /// failure).
    AuditFailed(String),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Model(e) => write!(f, "leakage model error: {e}"),
            StudyError::Cache(e) => write!(f, "cache config error: {e}"),
            StudyError::EmptyIntervalList => {
                write!(f, "best-interval search needs a non-empty interval list")
            }
            StudyError::EmptyAdaptiveWindow => {
                write!(f, "adaptive run needs a window of at least one instruction")
            }
            StudyError::TooManyIntervals(count) => write!(
                f,
                "interval sweep names {count} intervals, more than the limit of \
                 {MAX_SWEEP_INTERVALS}"
            ),
            StudyError::TooManyWindows(count) => write!(
                f,
                "adaptive run needs {count} windows, more than the limit of \
                 {MAX_ADAPTIVE_WINDOWS}"
            ),
            StudyError::AuditFailed(report) => {
                write!(f, "accounting audit failed: {report}")
            }
        }
    }
}

impl Error for StudyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StudyError::Model(e) => Some(e),
            StudyError::Cache(e) => Some(e),
            StudyError::EmptyIntervalList
            | StudyError::EmptyAdaptiveWindow
            | StudyError::TooManyIntervals(_)
            | StudyError::TooManyWindows(_) => None,
            StudyError::AuditFailed(_) => None,
        }
    }
}

impl From<ModelError> for StudyError {
    fn from(e: ModelError) -> Self {
        StudyError::Model(e)
    }
}

impl From<cachesim::ConfigError> for StudyError {
    fn from(e: cachesim::ConfigError) -> Self {
        StudyError::Cache(e)
    }
}

/// The temperature-independent record of one timing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawRun {
    /// Total run length.
    pub cycles: Cycles,
    /// Core-side counters.
    pub core: CoreStats,
    /// L1D counters and mode-cycle integrals.
    pub l1d: CacheStats,
}

/// One benchmark × technique comparison at one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The technique compared against the no-control baseline.
    pub technique: TechniqueKind,
    /// Decay interval used, cycles.
    pub interval: u64,
    /// L2 hit latency, cycles.
    pub l2_latency: u32,
    /// Pricing temperature, °C.
    pub temperature_c: f64,
    /// Net leakage savings, percent of baseline L1D leakage energy.
    pub net_savings_pct: f64,
    /// Execution-time increase, percent.
    pub perf_loss_pct: f64,
    /// Fraction of line-cycles spent in standby, percent.
    pub turnoff_pct: f64,
    /// Decay-induced misses in the technique run.
    pub induced_misses: u64,
    /// Slow hits (state-preserving wake-ups) in the technique run.
    pub slow_hits: u64,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// Technique-run IPC.
    pub tech_ipc: f64,
}

/// Cache key identifying one timing run: every knob that changes what
/// the simulator executes (temperature is *not* part of the key — it
/// only affects pricing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// L2 hit latency, cycles.
    pub l2_latency: u32,
    /// The technique kind.
    pub technique: TechniqueKind,
    /// Decay interval, cycles.
    pub interval: u64,
    /// Whether tags decay with the data.
    pub tags_decay: bool,
    /// The deactivation policy.
    pub policy: DecayPolicy,
}

impl RunKey {
    /// The key for running `benchmark` under `technique` at `l2_latency`.
    ///
    /// Baseline (`TechniqueKind::None`) keys are normalised to canonical
    /// field values so every way of writing "no control" shares one cache
    /// entry.
    pub fn of(benchmark: Benchmark, technique: &Technique, l2_latency: u32) -> Self {
        if technique.kind == TechniqueKind::None {
            let none = Technique::none();
            RunKey {
                benchmark,
                l2_latency,
                technique: TechniqueKind::None,
                interval: none.interval_cycles,
                tags_decay: none.tags_decay,
                policy: none.policy,
            }
        } else {
            RunKey {
                benchmark,
                l2_latency,
                technique: technique.kind,
                interval: technique.interval_cycles,
                tags_decay: technique.tags_decay,
                policy: technique.policy,
            }
        }
    }
}

/// The immutable inputs of a study: configuration plus priced geometry.
/// Cheap to share by reference across worker threads.
#[derive(Debug, Clone, Copy)]
pub struct StudyCtx {
    cfg: StudyConfig,
    arrays: CacheArrays,
}

impl StudyCtx {
    /// A context with the given configuration and the Table 2 L1D
    /// geometry.
    pub fn new(cfg: StudyConfig) -> Self {
        StudyCtx {
            cfg,
            arrays: CacheArrays::table2_l1d(),
        }
    }

    /// The study configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// The priced cache geometry.
    pub fn arrays(&self) -> &CacheArrays {
        &self.arrays
    }

    /// Executes one timing run (no caching).
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] if the hierarchy cannot be built.
    pub fn execute(
        &self,
        benchmark: Benchmark,
        technique: &Technique,
        l2_latency: u32,
    ) -> Result<RawRun, StudyError> {
        execute(benchmark, technique, &self.cfg, l2_latency)
    }

    /// Prices a cached baseline/technique pair at `temperature_c`,
    /// producing the paper's comparison row.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] on invalid operating points or geometry.
    pub fn price_pair(
        &self,
        base: &RawRun,
        tech: &RawRun,
        technique: &Technique,
        l2_latency: u32,
        benchmark: Benchmark,
        temperature_c: f64,
    ) -> Result<RunResult, StudyError> {
        let env = self.cfg.environment(temperature_c)?;
        let p_base = pricing::price(base, &Technique::none(), &env, &self.arrays)?;
        let p_tech = pricing::price(tech, technique, &env, &self.arrays)?;
        for (name, p) in [("baseline", &p_base), ("technique", &p_tech)] {
            pricing::check_priced(p)
                .map_err(|e| StudyError::AuditFailed(format!("priced {name} run: {e}")))?;
        }
        Ok(RunResult {
            benchmark,
            technique: technique.kind,
            interval: technique.interval_cycles,
            l2_latency,
            temperature_c,
            net_savings_pct: pricing::net_savings(&p_base, &p_tech) * 100.0,
            perf_loss_pct: pricing::perf_loss_pct(base.cycles, tech.cycles),
            turnoff_pct: tech.l1d.mode_cycles.turnoff_ratio() * 100.0,
            induced_misses: tech.l1d.induced_misses,
            slow_hits: tech.l1d.slow_hits,
            base_ipc: base.core.ipc().get(),
            tech_ipc: tech.core.ipc().get(),
        })
    }
}

/// A memo-table entry: a finished run, or a marker other threads wait on.
/// The `Ready` run is boxed so a table full of memos does not pay the
/// 280-byte `RawRun` footprint per pending marker too.
// With the seeded race the Pending variant is matched but never built.
#[cfg_attr(mutant = "coalesce-race-bug", allow(dead_code))]
enum Slot {
    Ready(Box<RawRun>),
    Pending(Arc<InFlight>),
}

#[derive(Default)]
struct InFlight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl InFlight {
    fn finish(&self) {
        // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
        *self.done.lock().expect("in-flight lock") = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
        let mut done = self.done.lock().expect("in-flight lock");
        while !*done {
            // lint: allow(unwrap): a poisoned condvar means a worker panicked; propagate
            done = self.cv.wait(done).expect("in-flight wait");
        }
    }
}

/// Removes the pending marker and wakes waiters if the executing closure
/// panics, so no thread blocks forever on a run that will never finish.
struct PendingGuard<'a> {
    cache: &'a RunCache,
    key: RunKey,
    inflight: Arc<InFlight>,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
            let mut memo = self.cache.memo.lock().expect("run cache lock");
            memo.remove(&self.key);
            drop(memo);
            self.inflight.finish();
        }
    }
}

/// A point-in-time snapshot of [`RunCache`] traffic, as counted by
/// [`RunCache::get_or_run`] (plain [`RunCache::get`] probes are not
/// counted — they are pre-scans, not run requests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunCacheCounters {
    /// Requests answered from a memoized run without waiting.
    pub hits: u64,
    /// Requests that executed the run themselves.
    pub misses: u64,
    /// Requests that blocked on another thread's in-flight run and then
    /// read its result — the duplicate work the cache deduplicated.
    pub coalesced: u64,
    /// Misses that actually ran the simulator — i.e. were satisfied by
    /// no tier (memory, disk, fleet). A node serving entirely from
    /// recalls reports `executions == 0` however its misses were filled.
    pub executions: u64,
}

/// The fleet tier under the disk tier: anything that can recall the
/// payload bytes for a content address from somewhere else — in
/// practice `fleet::FleetTier` asking peer `studyd` nodes. The trait
/// keeps this crate network-free; it deals only in verified bytes.
pub trait RemoteTier: Send + Sync {
    /// The payload bytes stored fleet-wide under `id`, or `None` on a
    /// fleet-wide miss. Implementations must verify what they return
    /// (checksum plus byte-for-byte key equality, exactly like the disk
    /// tier's read-back) so a damaged or poisoned remote record reads
    /// as a miss here, never as a payload.
    fn recall(&self, id: RecordId, key: &[u8]) -> Option<Vec<u8>>;
}

/// The recall tiers under the in-memory cache: an optional local
/// [`RunStore`], then an optional fleet, both scoped to the config hash
/// of the study that attached them.
#[derive(Default)]
struct Recall {
    config_hash: u64,
    store: Option<Arc<RunStore>>,
    fleet: Option<Arc<dyn RemoteTier>>,
}

impl Recall {
    /// Fills a memory miss of `key`: a verified disk recall, else a
    /// verified fleet recall, else `compute`. A fleet hit or a fresh run
    /// is appended to the store, so the next restart (or a peer
    /// recalling from us) is served from disk. The key bytes and
    /// record id are encoded once, here, for all three steps.
    fn fill(
        &self,
        key: &RunKey,
        compute: impl FnOnce() -> Result<RawRun, StudyError>,
    ) -> Result<RawRun, StudyError> {
        if self.store.is_none() && self.fleet.is_none() {
            return compute();
        }
        let key_bytes = crate::storebytes::encode_key(key);
        let id = RecordId::of(&key_bytes, self.config_hash);
        if let Some(store) = &self.store {
            if let Some(payload) = store.recall(id, &key_bytes) {
                // A payload that passed the store's checksum but does
                // not decode (codec skew) is invalidated and treated as
                // a miss — damaged bytes never reach the pricing.
                match crate::storebytes::decode_run(&payload) {
                    Some(run) => return Ok(run),
                    None => store.invalidate(id),
                }
            }
        }
        // The fleet verified the raw record; a payload that then fails
        // our codec (version skew between peers) is simply a miss.
        let result = self
            .fleet
            .as_ref()
            .and_then(|fleet| fleet.recall(id, &key_bytes))
            .and_then(|payload| crate::storebytes::decode_run(&payload))
            .map_or_else(compute, Ok);
        if let (Some(store), Ok(run)) = (&self.store, &result) {
            store.append(id, key_bytes, crate::storebytes::encode_run(run));
        }
        result
    }
}

/// A concurrent memo table of timing runs behind one mutex, which is
/// held only to probe or update the table, never while a run executes.
/// In-flight keys are coalesced: a thread requesting a run another
/// thread is already executing blocks until that run lands, then reads
/// it from the cache.
///
/// Optionally backed by recall tiers attached through [`Study`] (memory
/// → disk → fleet → compute): memory misses consult a persistent
/// [`RunStore`], then a [`RemoteTier`], before simulating, and fresh
/// results are appended to the store, so a later process (or a
/// restarted server) recalls them instead of recomputing.
pub struct RunCache {
    memo: Mutex<HashMap<RunKey, Slot>>,
    recall: Recall,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    executions: AtomicU64,
}

impl fmt::Debug for RunCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunCache")
            .field("len", &self.len())
            .finish()
    }
}

impl RunCache {
    /// An empty cache.
    pub fn new() -> Self {
        RunCache {
            memo: Mutex::new(HashMap::new()),
            recall: Recall::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            executions: AtomicU64::new(0),
        }
    }

    /// Disk-tier traffic counters, if a store is attached.
    pub fn store_counters(&self) -> Option<StoreCounters> {
        self.recall.store.as_ref().map(|store| store.counters())
    }

    /// Flushes the attached store (no-op without one): its durability
    /// point. Call before expecting another process to see the records.
    pub fn flush_store(&self) {
        if let Some(store) = &self.recall.store {
            store.flush();
        }
    }

    /// Snapshot of the hit/miss/coalesce counters. The three values are
    /// read independently (not under one lock), so a snapshot taken while
    /// runs are in flight is approximate; it is exact once the cache is
    /// quiescent.
    pub fn counters(&self) -> RunCacheCounters {
        RunCacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            executions: self.executions.load(Ordering::Relaxed),
        }
    }

    /// Number of finished runs currently memoized.
    pub fn len(&self) -> usize {
        self.memo
            .lock()
            // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
            .expect("run cache lock")
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// Whether no runs are memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The memoized run for `key`, if finished.
    pub fn get(&self, key: &RunKey) -> Option<RawRun> {
        // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
        match self.memo.lock().expect("run cache lock").get(key) {
            Some(Slot::Ready(run)) => Some(**run),
            _ => None,
        }
    }

    /// Returns the memoized run for `key`, executing `run` to fill it on
    /// a miss. Concurrent calls with the same key execute `run` once; the
    /// others block until the result lands. If `run` errors the entry is
    /// cleared (errors are not memoized) and the error is returned.
    ///
    /// # Errors
    ///
    /// Propagates the error from `run`.
    pub fn get_or_run(
        &self,
        key: RunKey,
        run: impl FnOnce() -> Result<RawRun, StudyError>,
    ) -> Result<RawRun, StudyError> {
        let mut waited = false;
        loop {
            // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
            #[cfg_attr(mutant = "coalesce-race-bug", allow(unused_mut))]
            let mut memo = self.memo.lock().expect("run cache lock");
            match memo.get(&key) {
                Some(Slot::Ready(r)) => {
                    // A request that waited on another thread's run was
                    // deduplicated work; a first-probe hit is a plain memo
                    // recall.
                    let counter = if waited { &self.coalesced } else { &self.hits };
                    counter.fetch_add(1, Ordering::Relaxed);
                    return Ok(**r);
                }
                Some(Slot::Pending(inflight)) => {
                    let inflight = Arc::clone(inflight);
                    drop(memo);
                    inflight.wait();
                    waited = true;
                    // Either Ready now, or removed because the runner
                    // failed — loop to read or become the new runner.
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let inflight = Arc::new(InFlight::default());
                    // Publishing the Pending slot before releasing the
                    // table is what makes concurrent same-key requests
                    // coalesce; the seeded race below omits it so every
                    // contender computes (caught by the interleave
                    // checker's coalescing model in CI).
                    #[cfg(not(mutant = "coalesce-race-bug"))]
                    memo.insert(key, Slot::Pending(Arc::clone(&inflight)));
                    drop(memo);
                    let mut guard = PendingGuard {
                        cache: self,
                        key,
                        inflight: Arc::clone(&inflight),
                        armed: true,
                    };
                    // Only a miss in every recall tier actually runs the
                    // simulator.
                    let result = self.recall.fill(&key, || {
                        self.executions.fetch_add(1, Ordering::Relaxed);
                        run()
                    });
                    guard.armed = false;
                    drop(guard);
                    // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
                    let mut memo = self.memo.lock().expect("run cache lock");
                    match &result {
                        Ok(r) => {
                            memo.insert(key, Slot::Ready(Box::new(*r)));
                        }
                        Err(_) => {
                            memo.remove(&key);
                        }
                    }
                    drop(memo);
                    inflight.finish();
                    return result;
                }
            }
        }
    }
}

impl Default for RunCache {
    fn default() -> Self {
        Self::new()
    }
}

/// One priced comparison request for [`Study::compare_many`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareRequest {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The technique compared against the no-control baseline.
    pub technique: Technique,
    /// L2 hit latency, cycles.
    pub l2_latency: u32,
    /// Pricing temperature, °C.
    pub temperature_c: f64,
}

/// One timing run the batch engine must ensure is cached.
struct RunSpec {
    key: RunKey,
    benchmark: Benchmark,
    technique: Technique,
    l2_latency: u32,
}

/// The worker count a fresh [`Study`] uses: the `LEAKAGE_THREADS`
/// environment variable if set and positive, else
/// `std::thread::available_parallelism()`.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("LEAKAGE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The experiment runner: an immutable [`StudyCtx`], a concurrent
/// [`RunCache`], and a worker count. Timing runs are cached, so
/// re-pricing at another temperature or comparing many intervals against
/// one baseline is cheap; batch calls execute cache misses in parallel.
#[derive(Debug)]
pub struct Study {
    ctx: StudyCtx,
    cache: RunCache,
    threads: usize,
}

impl Study {
    /// A study with the given configuration and [`default_threads`]
    /// workers.
    pub fn new(cfg: StudyConfig) -> Self {
        Self::with_threads(cfg, default_threads())
    }

    /// A study with an explicit worker count (minimum 1).
    pub fn with_threads(cfg: StudyConfig, threads: usize) -> Self {
        Study {
            ctx: StudyCtx::new(cfg),
            cache: RunCache::new(),
            threads: threads.max(1),
        }
    }

    /// The study configuration.
    pub fn config(&self) -> &StudyConfig {
        self.ctx.config()
    }

    /// The immutable study context.
    pub fn ctx(&self) -> &StudyCtx {
        &self.ctx
    }

    /// The run cache.
    pub fn cache(&self) -> &RunCache {
        &self.cache
    }

    /// Attaches a persistent [`RunStore`] as the tier below the memory
    /// cache (memory → disk → compute). Records are scoped to this
    /// study's configuration via [`crate::storebytes::config_hash`], so
    /// a store shared across studies can never serve a run computed
    /// under different simulator knobs.
    pub fn attach_store(&mut self, store: Arc<RunStore>) {
        self.recall_tiers().store = Some(store);
    }

    /// Attaches a fleet tier below the disk tier (memory → disk → fleet
    /// → compute), scoped to this study's configuration like
    /// [`Study::attach_store`] — a peer under different simulator knobs
    /// can never answer our recalls.
    pub fn attach_fleet(&mut self, remote: Arc<dyn RemoteTier>) {
        self.recall_tiers().fleet = Some(remote);
    }

    /// The cache's recall tiers, scoped to this study's configuration.
    fn recall_tiers(&mut self) -> &mut Recall {
        let tiers = &mut self.cache.recall;
        tiers.config_hash = crate::storebytes::config_hash(self.ctx.config());
        tiers
    }

    /// Disk-tier traffic counters, if a store is attached.
    pub fn store_counters(&self) -> Option<StoreCounters> {
        self.cache.store_counters()
    }

    /// Flushes the attached store (no-op without one): its durability
    /// point. Call before another process is expected to reuse the
    /// store's directory.
    pub fn flush_store(&self) {
        self.cache.flush_store();
    }

    /// The worker count batch calls use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes (or recalls) one timing run of `benchmark` under
    /// `technique` with the given L2 latency.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] if the hierarchy cannot be built.
    pub fn raw_run(
        &self,
        benchmark: Benchmark,
        technique: &Technique,
        l2_latency: u32,
    ) -> Result<RawRun, StudyError> {
        let key = RunKey::of(benchmark, technique, l2_latency);
        let raw = self
            .cache
            .get_or_run(key, || self.ctx.execute(benchmark, technique, l2_latency))?;
        // Fresh runs were audited inside execute(); re-checking recalled
        // runs here keeps the laws enforced across the cache boundary too
        // (a corrupted or stale memo can't silently feed the pricing).
        audit_raw_run(&raw, technique.decay_config().is_some())?;
        Ok(raw)
    }

    /// Executes (or recalls) the no-control baseline run.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] if the hierarchy cannot be built.
    pub fn baseline(&self, benchmark: Benchmark, l2_latency: u32) -> Result<RawRun, StudyError> {
        self.raw_run(benchmark, &Technique::none(), l2_latency)
    }

    /// Runs the full baseline-vs-technique comparison and prices it at
    /// `temperature_c`.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] on invalid operating points or geometry.
    pub fn compare(
        &self,
        benchmark: Benchmark,
        technique: Technique,
        l2_latency: u32,
        temperature_c: f64,
    ) -> Result<RunResult, StudyError> {
        let base = self.baseline(benchmark, l2_latency)?;
        let tech = self.raw_run(benchmark, &technique, l2_latency)?;
        self.ctx.price_pair(
            &base,
            &tech,
            &technique,
            l2_latency,
            benchmark,
            temperature_c,
        )
    }

    /// Runs many comparisons: enumerates every timing run the requests
    /// need, deduplicates against the cache, executes the misses across
    /// [`Study::threads`] workers, then prices serially in request order.
    /// Results are byte-identical to calling [`Study::compare`] per
    /// request, in the same order.
    ///
    /// # Errors
    ///
    /// Returns the first [`StudyError`] any run or pricing produced.
    pub fn compare_many(&self, requests: &[CompareRequest]) -> Result<Vec<RunResult>, StudyError> {
        let mut specs: Vec<RunSpec> = Vec::with_capacity(requests.len() * 2);
        let mut seen = std::collections::HashSet::new();
        for r in requests {
            let none = Technique::none();
            for technique in [none, r.technique] {
                let key = RunKey::of(r.benchmark, &technique, r.l2_latency);
                if seen.insert(key) && self.cache.get(&key).is_none() {
                    specs.push(RunSpec {
                        key,
                        benchmark: r.benchmark,
                        technique,
                        l2_latency: r.l2_latency,
                    });
                }
            }
        }
        self.run_batch(&specs)?;
        requests
            .iter()
            .map(|r| self.compare(r.benchmark, r.technique, r.l2_latency, r.temperature_c))
            .collect()
    }

    /// Executes every spec into the cache, fanning out across workers via
    /// [`crate::parallel::map_ordered`] (the workspace's single
    /// thread-spawning primitive); the results are discarded here and
    /// recalled from the cache by the pricing pass.
    fn run_batch(&self, specs: &[RunSpec]) -> Result<(), StudyError> {
        crate::parallel::map_ordered(self.threads, specs, |spec| {
            self.cache
                .get_or_run(spec.key, || {
                    self.ctx
                        .execute(spec.benchmark, &spec.technique, spec.l2_latency)
                })
                .map(|_| ())
        })
        .map(|_| ())
    }

    /// Sweeps decay intervals for one benchmark/technique; returns one
    /// [`RunResult`] per interval (ordered as given). The timing runs
    /// execute in parallel across [`Study::threads`] workers.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::TooManyIntervals`], before any run, if
    /// `intervals` names more than [`MAX_SWEEP_INTERVALS`]; otherwise
    /// [`StudyError`] on invalid operating points or geometry.
    pub fn interval_sweep(
        &self,
        benchmark: Benchmark,
        kind: TechniqueKind,
        l2_latency: u32,
        temperature_c: f64,
        intervals: &[u64],
    ) -> Result<Vec<RunResult>, StudyError> {
        if intervals.len() > MAX_SWEEP_INTERVALS {
            return Err(StudyError::TooManyIntervals(intervals.len()));
        }
        let requests: Vec<CompareRequest> = intervals
            .iter()
            .map(|&interval| CompareRequest {
                benchmark,
                technique: technique_of(kind, interval),
                l2_latency,
                temperature_c,
            })
            .collect();
        self.compare_many(&requests)
    }

    /// Finds the best (max net savings) interval for one benchmark and
    /// technique over `intervals`; returns its result.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::EmptyIntervalList`] if `intervals` is empty,
    /// or any error from the underlying sweep.
    pub fn best_interval(
        &self,
        benchmark: Benchmark,
        kind: TechniqueKind,
        l2_latency: u32,
        temperature_c: f64,
        intervals: &[u64],
    ) -> Result<RunResult, StudyError> {
        let sweep = self.interval_sweep(benchmark, kind, l2_latency, temperature_c, intervals)?;
        best_of(sweep)
    }
}

/// Selects the max-net-savings result (ties broken toward the longer
/// interval, matching the sequential engine's ordering).
pub(crate) fn best_of(sweep: Vec<RunResult>) -> Result<RunResult, StudyError> {
    sweep
        .into_iter()
        .max_by(|a, b| {
            a.net_savings_pct
                .partial_cmp(&b.net_savings_pct)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.interval.cmp(&b.interval))
        })
        .ok_or(StudyError::EmptyIntervalList)
}

/// Builds the technique with the study's default settling/tag parameters.
pub fn technique_of(kind: TechniqueKind, interval: u64) -> Technique {
    match kind {
        TechniqueKind::None => Technique::none(),
        TechniqueKind::GatedVss => Technique::gated_vss(interval),
        TechniqueKind::Drowsy => Technique::drowsy(interval),
        TechniqueKind::Rbb => Technique::rbb(interval),
    }
}

/// Executes one timing run (no caching) on the Table 2 core.
///
/// # Errors
///
/// Returns [`StudyError`] if the hierarchy cannot be built or the run
/// fails its conservation audit.
pub fn execute(
    benchmark: Benchmark,
    technique: &Technique,
    cfg: &StudyConfig,
    l2_latency: u32,
) -> Result<RawRun, StudyError> {
    crate::ablation::execute_with_core(benchmark, technique, cfg, l2_latency, CoreConfig::table2())
}

/// Audits a (possibly cache-recalled) [`RawRun`] against the per-cache
/// conservation laws: since [`uarch::Core::finish`] finalizes the
/// hierarchy at the final commit cycle, the L1D integrals must satisfy
/// `mode_cycles.total() == num_lines × cycles` exactly, on top of access
/// conservation and transition pairing.
///
/// # Errors
///
/// Returns [`StudyError::AuditFailed`] listing every violated law.
pub fn audit_raw_run(raw: &RawRun, has_decay: bool) -> Result<(), StudyError> {
    let num_lines = cachesim::CacheConfig::l1_64k_2way().num_lines() as u64;
    let mut report = cachesim::audit::AuditReport::new();
    report.absorb(
        "l1d",
        cachesim::audit::check_cache_stats(&raw.l1d, num_lines, Some(raw.cycles.get()), has_decay),
    );
    report
        .into_result()
        .map_err(|report| StudyError::AuditFailed(report.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> StudyConfig {
        StudyConfig {
            insts: 60_000,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn baseline_runs_and_caches() {
        let study = Study::new(quick_cfg());
        let a = study.baseline(Benchmark::Gzip, 11).unwrap();
        let b = study.baseline(Benchmark::Gzip, 11).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.core.committed, 60_000);
        assert!(a.cycles > Cycles::ZERO);
        assert!(
            a.core.ipc().get() > 0.2 && a.core.ipc().get() < 4.0,
            "ipc={}",
            a.core.ipc()
        );
        assert_eq!(study.cache().len(), 1, "both calls share one cache entry");
    }

    #[test]
    fn technique_run_decays_lines() {
        let study = Study::new(quick_cfg());
        let r = study
            .raw_run(Benchmark::Gzip, &Technique::gated_vss(2048), 11)
            .unwrap();
        assert!(
            r.l1d.mode_cycles.standby > units::Cycles::ZERO,
            "gated run must put lines in standby"
        );
        assert!(r.l1d.sleeps > 0);
    }

    #[test]
    fn compare_produces_sane_result() {
        let study = Study::new(quick_cfg());
        let r = study
            .compare(Benchmark::Gzip, Technique::drowsy(4096), 11, 110.0)
            .unwrap();
        assert!(
            r.net_savings_pct > 0.0 && r.net_savings_pct < 100.0,
            "savings={}",
            r.net_savings_pct
        );
        assert!(
            r.perf_loss_pct >= 0.0 && r.perf_loss_pct < 25.0,
            "loss={}",
            r.perf_loss_pct
        );
        assert!(r.turnoff_pct > 0.0 && r.turnoff_pct <= 100.0);
    }

    #[test]
    fn drowsy_run_has_slow_hits_not_induced_misses() {
        let study = Study::new(quick_cfg());
        let r = study
            .compare(Benchmark::Gzip, Technique::drowsy(1024), 11, 110.0)
            .unwrap();
        assert!(r.slow_hits > 0);
        assert_eq!(r.induced_misses, 0);
    }

    #[test]
    fn gated_run_has_induced_misses_not_slow_hits() {
        let study = Study::new(quick_cfg());
        let r = study
            .compare(Benchmark::Gzip, Technique::gated_vss(1024), 11, 110.0)
            .unwrap();
        assert!(r.induced_misses > 0);
        assert_eq!(r.slow_hits, 0);
    }

    #[test]
    fn best_interval_is_from_the_menu() {
        let study = Study::new(StudyConfig {
            insts: 40_000,
            ..StudyConfig::default()
        });
        let intervals = [1024u64, 8192];
        let best = study
            .best_interval(
                Benchmark::Perl,
                TechniqueKind::GatedVss,
                11,
                110.0,
                &intervals,
            )
            .unwrap();
        assert!(intervals.contains(&best.interval));
    }

    #[test]
    fn best_interval_of_empty_menu_is_an_error() {
        let study = Study::new(quick_cfg());
        let err = study
            .best_interval(Benchmark::Perl, TechniqueKind::GatedVss, 11, 110.0, &[])
            .unwrap_err();
        assert!(matches!(err, StudyError::EmptyIntervalList), "got {err}");
    }

    #[test]
    fn determinism_across_studies() {
        let r1 = Study::new(quick_cfg())
            .compare(Benchmark::Vpr, Technique::gated_vss(4096), 11, 110.0)
            .unwrap();
        let r2 = Study::new(quick_cfg())
            .compare(Benchmark::Vpr, Technique::gated_vss(4096), 11, 110.0)
            .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn run_keys_never_collide_across_technique_knobs() {
        // Two techniques differing only in tags_decay, or only in policy,
        // must occupy distinct cache entries.
        let a = Technique::gated_vss(4096);
        let b = Technique {
            tags_decay: false,
            ..a
        };
        let c = Technique {
            policy: DecayPolicy::Simple,
            ..a
        };
        let ka = RunKey::of(Benchmark::Gzip, &a, 11);
        let kb = RunKey::of(Benchmark::Gzip, &b, 11);
        let kc = RunKey::of(Benchmark::Gzip, &c, 11);
        assert_ne!(ka, kb);
        assert_ne!(ka, kc);
        assert_ne!(kb, kc);
    }

    #[test]
    fn baseline_keys_normalise() {
        let odd_none = Technique {
            interval_cycles: 4096,
            ..Technique::none()
        };
        assert_eq!(
            RunKey::of(Benchmark::Gzip, &Technique::none(), 11),
            RunKey::of(Benchmark::Gzip, &odd_none, 11),
        );
    }

    #[test]
    fn compare_many_matches_sequential_compare() {
        let par = Study::with_threads(quick_cfg(), 4);
        let seq = Study::with_threads(quick_cfg(), 1);
        let requests: Vec<CompareRequest> = [1024u64, 2048, 4096]
            .iter()
            .flat_map(|&interval| [Technique::drowsy(interval), Technique::gated_vss(interval)])
            .map(|technique| CompareRequest {
                benchmark: Benchmark::Gzip,
                technique,
                l2_latency: 11,
                temperature_c: 110.0,
            })
            .collect();
        let batch = par.compare_many(&requests).unwrap();
        let one_by_one: Vec<RunResult> = requests
            .iter()
            .map(|r| {
                seq.compare(r.benchmark, r.technique, r.l2_latency, r.temperature_c)
                    .unwrap()
            })
            .collect();
        assert_eq!(batch, one_by_one);
    }

    #[test]
    fn cache_coalesces_duplicate_inflight_keys() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = RunCache::new();
        let executions = AtomicUsize::new(0);
        let key = RunKey::of(Benchmark::Gzip, &Technique::gated_vss(512), 11);
        let cfg = quick_cfg();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    cache
                        .get_or_run(key, || {
                            executions.fetch_add(1, Ordering::Relaxed);
                            execute(Benchmark::Gzip, &Technique::gated_vss(512), &cfg, 11)
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(
            executions.load(Ordering::Relaxed),
            1,
            "duplicate keys must coalesce"
        );
        assert_eq!(cache.len(), 1);
    }
}
