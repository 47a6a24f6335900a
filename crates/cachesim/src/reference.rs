//! The retained naive full-sweep cache model: the executable specification
//! the wheel-based [`crate::Cache`] is differentially tested against.
//!
//! This is the pre-wheel implementation, kept byte-for-byte in behavior:
//! array-of-structs line storage, and a per-wrap `sweep` that walks every
//! line at every quarter-interval global-counter wrap. It is O(lines) per
//! wrap — exactly the cost the timing wheel removes — which makes it slow
//! but obviously correct, and that is its job: the
//! `wheel_equivalence` suite drives [`ReferenceCache`] and [`crate::Cache`]
//! in lockstep over random traces (including mid-run
//! [`ReferenceCache::set_decay_interval`] switches) and requires bitwise
//! identical [`AccessResult`]s and [`CacheStats`].
//!
//! The seeded-mutation `cfg` blocks (`seeded-accounting-bug`,
//! `pre-fix-stale-counter`) are retained verbatim so that building with
//! those features mutates *both* models identically — equivalence holds
//! under every mutation feature except `wheel-bug`, which only exists in
//! the wheel build and is exactly what the differential suite must catch.
//!
//! Do not optimize this file. Its value is being dumb.

use serde::{Deserialize, Serialize};
use units::Cycles;

use crate::cache::{AccessKind, AccessResult, LineDataView, LineView, MissKind};
use crate::config::{CacheConfig, ConfigError};
use crate::decay::{
    DecayConfig, DecayPolicy, GlobalCounter, LineMode, StandbyBehavior, LOCAL_COUNTER_MAX,
    MIN_DECAY_INTERVAL_CYCLES,
};
use crate::stats::CacheStats;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum LineData {
    Empty,
    Valid { dirty: bool },
    Ghost,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Line {
    tag: u64,
    data: LineData,
    mode: LineMode,
    mode_since: u64,
    local_counter: u8,
    lru_stamp: u64,
}

impl Line {
    fn new() -> Self {
        Line {
            tag: 0,
            data: LineData::Empty,
            mode: LineMode::Active,
            mode_since: 0,
            local_counter: 0,
            lru_stamp: 0,
        }
    }
}

/// The naive full-sweep cache model (see the module docs). Public API is a
/// subset of [`crate::Cache`]'s, with identical observable semantics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReferenceCache {
    cfg: CacheConfig,
    decay: Option<DecayConfig>,
    lines: Vec<Line>,
    global: GlobalCounter,
    stats: CacheStats,
    stamp: u64,
    clock: u64,
    ticks_seen: u64,
    finalized_at: Option<u64>,
}

impl ReferenceCache {
    /// Creates a reference cache; pass `decay` to enable leakage control.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry is invalid.
    pub fn new(cfg: CacheConfig, decay: Option<DecayConfig>) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let period = decay.map(|d| d.quarter_interval()).unwrap_or(u64::MAX);
        Ok(ReferenceCache {
            cfg,
            decay,
            lines: vec![Line::new(); cfg.num_lines()],
            global: GlobalCounter::new(period),
            stats: CacheStats::default(),
            stamp: 0,
            clock: 0,
            ticks_seen: 0,
            finalized_at: None,
        })
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The decay configuration, if leakage control is enabled.
    pub fn decay_config(&self) -> Option<&DecayConfig> {
        self.decay.as_ref()
    }

    /// Statistics accumulated so far (mode-cycle integrals current up to
    /// the last [`ReferenceCache::snapshot`]/[`ReferenceCache::finalize`]).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn account(line: &mut Line, stats: &mut CacheStats, now: u64) {
        let mut since = line.mode_since;
        if since >= now {
            return;
        }
        loop {
            match line.mode {
                LineMode::Active => {
                    stats.mode_cycles.active += Cycles::new(now - since);
                    break;
                }
                LineMode::Standby => {
                    stats.mode_cycles.standby += Cycles::new(now - since);
                    break;
                }
                LineMode::GoingToSleep { until } => {
                    if now <= until {
                        stats.mode_cycles.transitioning += Cycles::new(now - since);
                        break;
                    }
                    stats.mode_cycles.transitioning += Cycles::new(until - since);
                    line.mode = LineMode::Standby;
                    since = until;
                }
                LineMode::Waking { until } => {
                    if now <= until {
                        stats.mode_cycles.transitioning += Cycles::new(now - since);
                        break;
                    }
                    stats.mode_cycles.transitioning += Cycles::new(until - since);
                    line.mode = LineMode::Active;
                    since = until;
                }
            }
        }
        line.mode_since = now;
    }

    /// Advances the decay machinery by one cycle (equivalent to
    /// `advance_to(now)` for drivers that walk time cycle by cycle).
    pub fn tick(&mut self, now: u64) {
        self.advance_to(now.max(self.clock.saturating_add(1)));
    }

    /// Processes every global-counter wrap in `(current clock, now]` at its
    /// exact cycle — by sweeping all lines — then sets the clock to `now`.
    pub fn advance_to(&mut self, now: u64) {
        if self.decay.is_none() || now <= self.clock {
            return;
        }
        self.finalized_at = None;
        let period = self.global.period();
        let elapsed = now - self.clock;
        let already = self.ticks_seen % period;
        // First wrap happens after (period - already) further ticks.
        let mut next_wrap_in = period - already;
        let mut processed = 0u64;
        while processed + next_wrap_in <= elapsed {
            processed += next_wrap_in;
            let wrap_at = self.clock + processed;
            self.stats.global_counter_wraps += 1;
            self.global.wraps += 1;
            self.sweep(wrap_at);
            next_wrap_in = period;
        }
        self.ticks_seen += elapsed;
        self.clock = now;
    }

    /// The cache's internal clock (latest cycle seen).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Quarter-interval sweeps since the counter (re)started, modulo 4.
    pub fn wrap_phase(&self) -> u64 {
        self.global.wraps % 4
    }

    /// Changes the decay interval at runtime; see
    /// [`crate::Cache::set_decay_interval`] for the semantics this
    /// reference pins down.
    pub fn set_decay_interval(&mut self, interval_cycles: u64) {
        if let Some(decay) = self.decay.as_mut() {
            decay.interval_cycles = interval_cycles.max(MIN_DECAY_INTERVAL_CYCLES);
            let period = decay.quarter_interval();
            self.global = GlobalCounter::new(period);
            self.ticks_seen = 0;
            for line in &mut self.lines {
                line.local_counter = 0;
            }
        }
    }

    /// The quarter-interval sweep: increment local counters, deactivate
    /// saturated (or, for the `simple` policy on full intervals, all) lines.
    fn sweep(&mut self, now: u64) {
        // lint: allow(unwrap): sweep is only scheduled when decay is configured
        let decay = self.decay.expect("sweep only runs with decay enabled");
        let full_interval = self.global.wraps.is_multiple_of(4);
        for i in 0..self.lines.len() {
            let line = &mut self.lines[i];
            Self::account(line, &mut self.stats, now);
            let should_sleep = match decay.policy {
                DecayPolicy::NoAccess => {
                    line.local_counter = (line.local_counter + 1).min(LOCAL_COUNTER_MAX);
                    self.stats.local_counter_ticks += 1;
                    line.local_counter >= LOCAL_COUNTER_MAX
                }
                DecayPolicy::Simple => full_interval,
            };
            if should_sleep && matches!(line.mode, LineMode::Active) {
                Self::deactivate(line, &mut self.stats, &decay, now);
            }
        }
    }

    fn deactivate(line: &mut Line, stats: &mut CacheStats, decay: &DecayConfig, now: u64) {
        if decay.behavior == StandbyBehavior::Losing {
            if let LineData::Valid { dirty } = line.data {
                if dirty {
                    stats.decay_writebacks += 1;
                }
                line.data = LineData::Ghost;
            }
        }
        line.mode = LineMode::GoingToSleep {
            until: now + decay.sleep_settle_cycles as u64,
        };
        line.mode_since = now;
        stats.sleeps += 1;
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.cfg.assoc;
        base..base + self.cfg.assoc
    }

    /// Performs one access at absolute cycle `now`; see
    /// [`crate::Cache::access`].
    pub fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> AccessResult {
        self.advance_to(now);
        self.finalized_at = None;
        let now = now.max(self.clock);
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let (tag, set) = self.cfg.split(addr);
        let range = self.set_range(set);

        // Resolve modes of the whole set up to `now` first.
        for i in range.clone() {
            let line = &mut self.lines[i];
            Self::account(line, &mut self.stats, now);
        }

        // Look for a matching way (live data or ghost).
        let mut hit_way: Option<usize> = None;
        let mut ghost_way: Option<usize> = None;
        for i in range.clone() {
            let line = &self.lines[i];
            match line.data {
                LineData::Valid { .. } if line.tag == tag => hit_way = Some(i),
                LineData::Ghost if line.tag == tag => ghost_way = Some(i),
                _ => {}
            }
        }

        if let Some(i) = hit_way {
            return self.hit(i, kind, now, stamp);
        }

        // Miss path.
        let decay = self.decay;
        let mut extra = 0u32;
        let mut tag_probes = 0u32;
        if let Some(d) = decay {
            if d.tags_decay && d.behavior == StandbyBehavior::Preserving {
                let standby_ways = range
                    .clone()
                    .filter(|&i| !self.lines[i].mode.is_fully_active())
                    .count() as u32;
                if standby_ways > 0 {
                    extra += d.wake_settle_cycles;
                    tag_probes += standby_ways;
                    self.stats.wake_stall_cycles += Cycles::new(u64::from(d.wake_settle_cycles));
                    self.stats.tag_probes += standby_ways as u64;
                }
            }
        }

        let miss_kind = if ghost_way.is_some() {
            MissKind::Induced
        } else {
            MissKind::True
        };
        let victim = ghost_way.unwrap_or_else(|| self.choose_victim(set));
        let line = &mut self.lines[victim];

        let mut writeback = false;
        let mut cold = false;
        match line.data {
            LineData::Valid { dirty } => writeback = dirty,
            LineData::Empty => cold = true,
            LineData::Ghost => {}
        }

        let now = now.max(line.mode_since);
        let woke = matches!(line.mode, LineMode::Standby | LineMode::GoingToSleep { .. });
        line.tag = tag;
        line.data = LineData::Valid {
            dirty: kind == AccessKind::Write,
        };
        line.mode = LineMode::Active;
        line.mode_since = now;
        line.local_counter = 0;
        line.lru_stamp = stamp;
        if woke {
            self.stats.wakes += 1;
        }
        if writeback {
            self.stats.writebacks += 1;
        }
        let miss = match miss_kind {
            MissKind::Induced => {
                self.stats.induced_misses += 1;
                MissKind::Induced
            }
            _ => {
                self.stats.true_misses += 1;
                if cold {
                    MissKind::Cold
                } else {
                    MissKind::True
                }
            }
        };
        AccessResult {
            hit: false,
            extra_latency: extra,
            miss: Some(miss),
            writeback,
            tag_probes,
            woke_line: woke,
        }
    }

    fn hit(&mut self, i: usize, kind: AccessKind, now: u64, stamp: u64) -> AccessResult {
        let decay = self.decay;
        let line = &mut self.lines[i];
        let now = now.max(line.mode_since);
        let (extra, woke, probed_tag) = match line.mode {
            LineMode::Active => (0u32, false, false),
            LineMode::Waking { until } => ((until - now) as u32, false, false),
            LineMode::Standby | LineMode::GoingToSleep { .. } => {
                // lint: allow(unwrap): a Standby line can only exist when decay is configured
                let d = decay.expect("standby line implies decay enabled");
                if d.tags_decay {
                    (d.wake_settle_cycles, true, true)
                } else {
                    (d.wake_settle_cycles.saturating_sub(1).max(1), true, false)
                }
            }
        };
        if woke || matches!(line.mode, LineMode::Waking { .. }) {
            line.mode = LineMode::Waking {
                until: now + extra as u64,
            };
            line.mode_since = now;
        }
        if kind == AccessKind::Write {
            line.data = LineData::Valid { dirty: true };
        }
        line.local_counter = 0;
        line.lru_stamp = stamp;
        if woke {
            self.stats.wakes += 1;
            self.stats.slow_hits += 1;
        } else {
            self.stats.hits += 1;
        }
        if probed_tag {
            self.stats.tag_probes += 1;
        }
        self.stats.wake_stall_cycles += Cycles::new(u64::from(extra));
        AccessResult {
            hit: true,
            extra_latency: extra,
            miss: None,
            writeback: false,
            tag_probes: probed_tag as u32,
            woke_line: woke,
        }
    }

    fn choose_victim(&self, set: usize) -> usize {
        let range = self.set_range(set);
        let mut best = range.start;
        let mut best_key = (2u8, u64::MAX);
        for i in range {
            let line = &self.lines[i];
            let class = match line.data {
                LineData::Empty => 0u8,
                LineData::Ghost => 1,
                LineData::Valid { .. } => 2,
            };
            let key = (class, line.lru_stamp);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Non-mutating lookup: whether `addr` currently hits live data.
    pub fn probe(&self, addr: u64) -> bool {
        let (tag, set) = self.cfg.split(addr);
        self.set_range(set).any(|i| {
            let line = &self.lines[i];
            line.tag == tag && matches!(line.data, LineData::Valid { .. })
        })
    }

    /// Read-only view of line `index`'s internal state (way-major order).
    pub fn line_view(&self, index: usize) -> LineView {
        let line = &self.lines[index];
        LineView {
            tag: line.tag,
            data: match line.data {
                LineData::Empty => LineDataView::Empty,
                LineData::Valid { dirty: false } => LineDataView::Clean,
                LineData::Valid { dirty: true } => LineDataView::Dirty,
                LineData::Ghost => LineDataView::Ghost,
            },
            mode: line.mode,
            mode_since: line.mode_since,
            local_counter: line.local_counter,
            lru_stamp: line.lru_stamp,
        }
    }

    /// Number of lines whose mode would be `Standby` at `now`.
    pub fn standby_line_count(&self, now: u64) -> usize {
        self.lines
            .iter()
            .filter(|l| match l.mode {
                LineMode::Standby => true,
                LineMode::GoingToSleep { until } => now >= until,
                _ => false,
            })
            .count()
    }

    /// Brings the mode-cycle integrals up to `now` for every line.
    pub fn snapshot(&mut self, now: u64) {
        for i in 0..self.lines.len() {
            let line = &mut self.lines[i];
            Self::account(line, &mut self.stats, now);
        }
    }

    /// [`ReferenceCache::snapshot`] at end of run, recording the cycle so
    /// conservation laws become checkable.
    pub fn finalize(&mut self, now: u64) {
        let now = now.max(self.clock);
        self.snapshot(now);
        self.finalized_at = Some(now);
    }

    /// The cycle the cache was last finalized at, if still current.
    pub fn finalized_at(&self) -> Option<u64> {
        self.finalized_at
    }
}
