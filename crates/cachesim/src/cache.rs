//! A set-associative, write-back, write-allocate cache with optional
//! per-line decay (leakage-control) machinery.
//!
//! ## Data-oriented hot path
//!
//! Line state lives in a struct-of-arrays slab ([`LineSlab`]): parallel,
//! contiguous arrays (way-major, so each set is a contiguous stripe) for
//! tags, data-state bytes, packed dirty bits, power modes, and decay
//! bookkeeping. All of it is allocated once at construction; the steady
//! state allocates nothing.
//!
//! Decay deadlines are not found by sweeping lines. A hierarchical timing
//! wheel ([`crate::wheel::TimingWheel`]) schedules exactly the events that
//! can change a line's state on their own:
//!
//! - the quarter-interval wrap at which a line's two-bit counter would
//!   saturate (`noaccess` policy) — one event per live line, rescheduled in
//!   O(1) when an access resets the counter;
//! - the recurring full-interval flush (`simple` policy) — one event total;
//! - `GoingToSleep`/`Waking { until }` settle expiries — one per line in
//!   transition.
//!
//! [`Cache::advance_to`] ticks the wheel from one due event to the next
//! instead of iterating lines, so a time jump across an idle stretch costs
//! O(events due), not O(lines × wraps).
//!
//! The per-line two-bit counters themselves are not stored incrementally:
//! a line records the global wrap count at its last counter reset
//! (`reset_sweep`) plus a base value, and the counter is *derived* as
//! `min(base + wraps_since_reset, 3)` whenever observed. That makes the
//! per-wrap "increment every local counter" of the hierarchical counter
//! scheme a bulk O(1) accounting step rather than a per-line write.
//!
//! ## Timing and accounting model
//!
//! The driver calls [`Cache::tick`] once per cycle (O(1) when no event is
//! due) and [`Cache::access`] per reference. Line power modes are resolved
//! lazily: each line records when its current mode began, and the elapsed
//! line-cycles are attributed to the right [`ModeCycles`] bucket whenever
//! the line is next touched (access, due event, or finalization). The
//! integrals are exact — nothing is sampled — and settlement is additive
//! over mode segments, so event-driven settlement order produces bitwise
//! the same [`CacheStats`] as a per-wrap full sweep.
//!
//! [`ModeCycles`]: crate::stats::ModeCycles
//!
//! ## Induced-miss classification
//!
//! When a non-state-preserving line is deactivated its data is lost but the
//! model remembers the *ghost* tag. A later miss that matches a ghost is an
//! **induced miss** — the reference would have hit had decay not discarded
//! the line (paper §2.1). A ghost displaced by replacement would have been
//! evicted anyway, so its later miss is a **true miss**. This is the same
//! definition hardware proposals use (they, too, cannot run a shadow cache).

use serde::{Deserialize, Serialize};
use units::Cycles;

use crate::config::{CacheConfig, ConfigError};
use crate::decay::{
    DecayConfig, DecayPolicy, GlobalCounter, LineMode, StandbyBehavior, LOCAL_COUNTER_MAX,
    MIN_DECAY_INTERVAL_CYCLES,
};
use crate::stats::CacheStats;
use crate::wheel::TimingWheel;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Load / instruction fetch.
    Read,
    /// Store.
    Write,
}

/// Classification of a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MissKind {
    /// First touch of the line (never resident).
    Cold,
    /// Would have missed regardless of leakage control.
    True,
    /// Caused purely by decay discarding live data (non-state-preserving
    /// techniques only).
    Induced,
}

/// What one access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessResult {
    /// Whether the reference hit (slow hits count as hits).
    pub hit: bool,
    /// Extra cycles beyond the configured hit latency (wake-ups, tag
    /// wake-ups). For misses this stalls the L2 access start.
    pub extra_latency: u32,
    /// Miss classification (`None` on hits).
    pub miss: Option<MissKind>,
    /// A dirty victim was written back to the next level.
    pub writeback: bool,
    /// Tag-only probes performed (wake-and-check of decayed tags).
    pub tag_probes: u32,
    /// A standby line was woken by this access (for transition energy).
    pub woke_line: bool,
}

/// Data state of one line as seen through [`Cache::line_view`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LineDataView {
    /// Never filled (or invalidated).
    Empty,
    /// Valid and clean.
    Clean,
    /// Valid and dirty (must be written back before data is discarded).
    Dirty,
    /// Tag remembered but data lost to decay (non-state-preserving).
    Ghost,
}

/// Read-only snapshot of one line's internal state ([`Cache::line_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LineView {
    /// The resident (or ghost) tag.
    pub tag: u64,
    /// Data state.
    pub data: LineDataView,
    /// Raw power mode (transitions may have completed in wall-clock terms;
    /// resolve with [`LineView::resolved_mode`]).
    pub mode: LineMode,
    /// Cycle the current mode began.
    pub mode_since: u64,
    /// The per-line two-bit decay counter.
    pub local_counter: u8,
    /// Monotone recency stamp (larger = more recently used).
    pub lru_stamp: u64,
}

impl LineView {
    /// The mode the line is effectively in at cycle `now`, collapsing
    /// transitions whose settle deadline has passed.
    pub fn resolved_mode(&self, now: u64) -> LineMode {
        match self.mode {
            LineMode::GoingToSleep { until } if now > until => LineMode::Standby,
            LineMode::Waking { until } if now > until => LineMode::Active,
            m => m,
        }
    }
}

/// Data-state byte: never filled (or invalidated).
const STATE_EMPTY: u8 = 0;
/// Data-state byte: holds valid data (dirtiness lives in the packed bitmap).
const STATE_VALID: u8 = 1;
/// Data-state byte: tag remembered but data lost to decay.
const STATE_GHOST: u8 = 2;

/// Struct-of-arrays line storage: one entry per line in way-major order
/// (line `set * assoc + way`), so a set's ways are contiguous in every
/// array. Allocated once at construction; never grows.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LineSlab {
    /// Resident (or ghost) tag.
    tag: Vec<u64>,
    /// Data state (`STATE_EMPTY` / `STATE_VALID` / `STATE_GHOST`).
    state: Vec<u8>,
    /// Packed dirty bits, one per line (meaningful only for valid lines).
    dirty: Vec<u64>,
    /// Raw power mode (resolved lazily; see module docs).
    mode: Vec<LineMode>,
    /// Cycle the current mode began (mode-cycle integrals are settled up
    /// to here).
    mode_since: Vec<u64>,
    /// Two-bit counter value at the last reset (non-zero only when a
    /// regime change materializes stale progress; see
    /// [`Cache::set_decay_interval`]).
    base_count: Vec<u8>,
    /// Global wrap count at the line's last counter reset; the current
    /// counter is derived as `min(base + wraps - reset_sweep, 3)`.
    reset_sweep: Vec<u64>,
    /// Monotone recency stamp (larger = more recently used).
    lru_stamp: Vec<u64>,
}

impl LineSlab {
    fn new(n: usize) -> Self {
        LineSlab {
            tag: vec![0; n],
            state: vec![STATE_EMPTY; n],
            dirty: vec![0; n.div_ceil(64)],
            mode: vec![LineMode::Active; n],
            mode_since: vec![0; n],
            base_count: vec![0; n],
            reset_sweep: vec![0; n],
            lru_stamp: vec![0; n],
        }
    }

    fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i / 64] >> (i % 64) & 1 == 1
    }

    fn set_dirty(&mut self, i: usize, dirty: bool) {
        if dirty {
            self.dirty[i / 64] |= 1u64 << (i % 64);
        } else {
            self.dirty[i / 64] &= !(1u64 << (i % 64));
        }
    }
}

/// A single cache level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    cfg: CacheConfig,
    decay: Option<DecayConfig>,
    slab: LineSlab,
    global: GlobalCounter,
    stats: CacheStats,
    stamp: u64,
    clock: u64,
    /// Cycle the current counter regime began (construction or the last
    /// [`Cache::set_decay_interval`]); wrap `k` of the regime falls at
    /// `regime_start + k * period`.
    regime_start: u64,
    /// Event schedule; `Some` iff decay is enabled. Event ids: line `i`'s
    /// decay deadline is `i` and the `Simple` flush is `num_lines`.
    /// Transition (`GoingToSleep`/`Waking`) expiries are deliberately not
    /// scheduled: settlement is additive and every raw-mode read happens
    /// after a settle, so expired transitions collapse lazily with
    /// identical observables — an expiry event would only burn wheel
    /// traffic on every sleep and wake.
    wheel: Option<TimingWheel>,
    /// The cycle the mode-cycle integrals were last brought fully up to
    /// date at ([`Cache::finalize`]); cleared by any later activity.
    finalized_at: Option<u64>,
}

impl Cache {
    /// Creates a cache; pass `decay` to enable leakage control on it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry is invalid.
    pub fn new(cfg: CacheConfig, decay: Option<DecayConfig>) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let period = decay.map(|d| d.quarter_interval()).unwrap_or(u64::MAX);
        let n = cfg.num_lines();
        let mut cache = Cache {
            cfg,
            decay,
            slab: LineSlab::new(n),
            global: GlobalCounter::new(period),
            stats: CacheStats::default(),
            stamp: 0,
            clock: 0,
            regime_start: 0,
            wheel: decay.map(|_| TimingWheel::new(n + 1)),
            finalized_at: None,
        };
        cache.rebuild_schedule();
        Ok(cache)
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The decay configuration, if leakage control is enabled.
    pub fn decay_config(&self) -> Option<&DecayConfig> {
        self.decay.as_ref()
    }

    /// Statistics accumulated so far. Mode-cycle integrals are only current
    /// up to the last [`Cache::snapshot`]/[`Cache::finalize`] call.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Event id of line `i`'s decay deadline.
    fn decay_event_id(i: usize) -> u32 {
        i as u32
    }

    /// Event id of the `Simple` policy's recurring full-interval flush.
    fn flush_event_id(&self) -> u32 {
        self.cfg.num_lines() as u32
    }

    /// Absolute cycle of regime wrap number `wrap`.
    fn wrap_cycle(&self, wrap: u64) -> u64 {
        self.regime_start
            .saturating_add(wrap.saturating_mul(self.global.period()))
    }

    /// Line `i`'s two-bit counter as of the current clock, derived from its
    /// last reset point (see the module docs).
    fn local_counter(&self, i: usize) -> u8 {
        match self.decay.map(|d| d.policy) {
            Some(DecayPolicy::NoAccess) => {
                let ticks = self.global.wraps.saturating_sub(self.slab.reset_sweep[i]);
                (u64::from(self.slab.base_count[i]) + ticks).min(u64::from(LOCAL_COUNTER_MAX)) as u8
            }
            _ => self.slab.base_count[i],
        }
    }

    /// The wrap cycle at which line `i`'s counter saturates and the line
    /// decays (given no further access). A line whose base is already
    /// saturated decays at the next wrap.
    fn decay_deadline(&self, i: usize) -> u64 {
        let remaining = u64::from(LOCAL_COUNTER_MAX.saturating_sub(self.slab.base_count[i])).max(1);
        self.wrap_cycle(self.slab.reset_sweep[i].saturating_add(remaining))
    }

    /// (Re)schedules line `i`'s decay deadline from its current counter
    /// state. O(1).
    fn reschedule_decay(&mut self, i: usize) {
        let deadline = self.decay_deadline(i);
        if let Some(wheel) = self.wheel.as_mut() {
            wheel.schedule(Self::decay_event_id(i), deadline);
        }
    }

    /// Line `i`'s mode at `now` with expired transitions collapsed
    /// (read-only counterpart of settlement).
    fn resolved_mode_at(&self, i: usize, now: u64) -> LineMode {
        match self.slab.mode[i] {
            LineMode::GoingToSleep { until } if now > until => LineMode::Standby,
            LineMode::Waking { until } if now > until => LineMode::Active,
            m => m,
        }
    }

    /// Attributes elapsed line-cycles up to `now` and resolves any
    /// completed transition. Settlement is additive over mode segments, so
    /// calling this at every event or only at the end yields the same
    /// integrals.
    fn settle(mode: &mut LineMode, mode_since: &mut u64, stats: &mut CacheStats, now: u64) {
        let mut since = *mode_since;
        if since >= now {
            return;
        }
        loop {
            match *mode {
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
                    *mode = LineMode::Standby;
                    since = until;
                }
                LineMode::Waking { until } => {
                    if now <= until {
                        stats.mode_cycles.transitioning += Cycles::new(now - since);
                        break;
                    }
                    stats.mode_cycles.transitioning += Cycles::new(until - since);
                    *mode = LineMode::Active;
                    since = until;
                }
            }
        }
        *mode_since = now;
    }

    /// [`Cache::settle`] for line `i` of the slab.
    fn settle_line(&mut self, i: usize, now: u64) {
        Self::settle(
            &mut self.slab.mode[i],
            &mut self.slab.mode_since[i],
            &mut self.stats,
            now,
        );
    }

    /// Advances the decay machinery by one cycle. O(1) unless a scheduled
    /// event (a line's decay deadline or the `Simple` flush) falls due this
    /// cycle — only due events are touched; lines are never swept.
    /// Equivalent to `advance_to(now)` for drivers that walk time cycle by
    /// cycle.
    pub fn tick(&mut self, now: u64) {
        self.advance_to(now.max(self.clock.saturating_add(1)));
    }

    /// Processes every scheduled decay event in `(current clock, now]` at
    /// its exact cycle — the timing wheel jumps from one due event to the
    /// next rather than iterating lines — then sets the clock to `now`.
    /// Lets time-jumping drivers (the one-pass out-of-order model) keep
    /// decay semantics identical to a per-cycle tick loop. Calls with `now`
    /// in the past are no-ops.
    #[inline]
    pub fn advance_to(&mut self, now: u64) {
        if self.decay.is_none() || now <= self.clock {
            return;
        }
        self.advance_to_slow(now);
    }

    /// Out-of-line body of [`Cache::advance_to`]; split so the early-out
    /// above inlines into every access instead of paying a call into this
    /// (large) function just to return.
    fn advance_to_slow(&mut self, now: u64) {
        self.finalized_at = None;
        // Quiet advances (the common case on the access path) skip the pop
        // loop outright: `next_due_bound` proves nothing fires by `now`.
        // The wheel's internal clock then lags ours, which is harmless —
        // deadlines are absolute, and every schedule is in our future.
        let events_due = self
            .wheel
            .as_ref()
            .is_some_and(|wheel| wheel.next_due_bound() <= now);
        if events_due {
            if let Some(mut wheel) = self.wheel.take() {
                while let Some((t, id)) = wheel.pop_next(now) {
                    self.dispatch(&mut wheel, id, t);
                }
                self.wheel = Some(wheel);
            }
        }
        // Bulk counter accounting: each wrap increments every line's
        // two-bit counter under `noaccess` (the counters themselves are
        // derived on demand, so only the totals are touched here). The
        // next-wrap comparison keeps the u64 division off the common
        // wrap-free advance.
        if now >= self.wrap_cycle(self.global.wraps.saturating_add(1)) {
            let wraps_now = (now - self.regime_start) / self.global.period();
            let newly = wraps_now.saturating_sub(self.global.wraps);
            self.global.wraps = wraps_now;
            self.stats.global_counter_wraps += newly;
            if matches!(self.decay.map(|d| d.policy), Some(DecayPolicy::NoAccess)) {
                self.stats.local_counter_ticks += newly * self.cfg.num_lines() as u64;
            }
        }
        self.clock = now;
    }

    /// Routes one due wheel event to its handler.
    fn dispatch(&mut self, wheel: &mut TimingWheel, id: u32, t: u64) {
        let idx = id as usize;
        if idx < self.cfg.num_lines() {
            self.on_decay_deadline(wheel, idx, t);
        } else {
            self.on_flush(wheel, t);
        }
    }

    /// Line `i`'s two-bit counter saturated at wrap cycle `t`: deactivate
    /// it if it is (by then) fully active.
    fn on_decay_deadline(&mut self, wheel: &mut TimingWheel, i: usize, t: u64) {
        self.settle_line(i, t);
        match self.slab.mode[i] {
            LineMode::Active => self.deactivate(i, t),
            LineMode::Waking { .. } => {
                // Saturated but mid-wake: retry at the next wrap, exactly
                // as a per-wrap sweep would (a saturated counter keeps
                // asking until the line is deactivatable or touched).
                let retry = t.saturating_add(self.global.period());
                wheel.schedule(Self::decay_event_id(i), retry);
            }
            _ => {}
        }
    }

    /// The `Simple` policy's full-interval flush at wrap cycle `t`:
    /// deactivate every fully active line, then schedule the next flush one
    /// interval later.
    fn on_flush(&mut self, wheel: &mut TimingWheel, t: u64) {
        for i in 0..self.cfg.num_lines() {
            self.settle_line(i, t);
            if matches!(self.slab.mode[i], LineMode::Active) {
                self.deactivate(i, t);
            }
        }
        let next = t.saturating_add(self.global.period().saturating_mul(4));
        wheel.schedule(self.flush_event_id(), next);
    }

    /// Puts line `i` into standby, handling dirty data per the technique.
    /// The settle expiry is not scheduled anywhere: lazy settlement
    /// resolves it at the line's next touch (or `finalize`).
    fn deactivate(&mut self, i: usize, now: u64) {
        // lint: allow(unwrap): deactivation is only scheduled when decay is configured
        let decay = self.decay.expect("deactivation requires decay enabled");
        if decay.behavior == StandbyBehavior::Losing && self.slab.state[i] == STATE_VALID {
            if self.slab.is_dirty(i) {
                self.stats.decay_writebacks += 1;
            }
            self.slab.state[i] = STATE_GHOST;
            self.slab.set_dirty(i, false);
        }
        let until = now + u64::from(decay.sleep_settle_cycles);
        self.slab.mode[i] = LineMode::GoingToSleep { until };
        self.slab.mode_since[i] = now;
        self.stats.sleeps += 1;
    }

    /// The cache's internal clock (latest cycle seen).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Phase of the hierarchical counter within the full decay interval:
    /// how many quarter-interval wraps have fired since the counter was
    /// (re)started, modulo 4. The `Simple` policy's full-interval flush
    /// fires when this wraps to 0.
    ///
    /// Distinct from `stats().global_counter_wraps % 4`: the stats counter
    /// accumulates across [`Cache::set_decay_interval`] restarts (it prices
    /// counter energy), while this phase restarts with the interval — after
    /// a mid-run switch only this accessor tracks the flush schedule.
    pub fn wrap_phase(&self) -> u64 {
        self.global.wraps % 4
    }

    /// Changes the decay interval at runtime (adaptive decay schemes:
    /// Kaxiras-style interval selection, adaptive mode control, feedback
    /// control). Takes effect from the next global-counter wrap; intervals
    /// are clamped to [`MIN_DECAY_INTERVAL_CYCLES`]. No-op on a cache
    /// without decay.
    ///
    /// Every line's idle history restarts with the new interval: the
    /// per-line two-bit counters are reset along with the global counter,
    /// and every live line's decay deadline is rescheduled against the new
    /// wrap grid. Leaving them stale would let a line carry saturation
    /// progress earned under a short interval into a longer one, decaying
    /// it after a fraction of the interval the controller just asked for.
    pub fn set_decay_interval(&mut self, interval_cycles: u64) {
        if self.decay.is_none() {
            return;
        }
        // `pre-fix-stale-counter` (CI mutation smoke only) carries each
        // line's saturation progress into the new regime so the model
        // checker can demonstrate the original bug; the fixed behavior
        // restarts every counter.
        #[cfg(mutant = "pre-fix-stale-counter")]
        for i in 0..self.cfg.num_lines() {
            let stale = self.local_counter(i);
            self.slab.base_count[i] = stale;
        }
        #[cfg(not(mutant = "pre-fix-stale-counter"))]
        for base in &mut self.slab.base_count {
            *base = 0;
        }
        for reset in &mut self.slab.reset_sweep {
            *reset = 0;
        }
        if let Some(decay) = self.decay.as_mut() {
            decay.interval_cycles = interval_cycles.max(MIN_DECAY_INTERVAL_CYCLES);
            self.global = GlobalCounter::new(decay.quarter_interval());
        }
        self.regime_start = self.clock;
        self.rebuild_schedule();
    }

    /// Rebuilds the wheel's decay/flush schedule from scratch for the
    /// current regime (construction and interval switches; steady-state
    /// maintenance is all O(1) incremental).
    fn rebuild_schedule(&mut self) {
        let Some(decay) = self.decay else {
            return;
        };
        match decay.policy {
            DecayPolicy::NoAccess => {
                for i in 0..self.cfg.num_lines() {
                    let live = matches!(
                        self.resolved_mode_at(i, self.clock),
                        LineMode::Active | LineMode::Waking { .. }
                    );
                    if live {
                        self.reschedule_decay(i);
                    } else if let Some(wheel) = self.wheel.as_mut() {
                        wheel.cancel(Self::decay_event_id(i));
                    }
                }
            }
            DecayPolicy::Simple => {
                let next_flush = self.wrap_cycle(4);
                let id = self.flush_event_id();
                if let Some(wheel) = self.wheel.as_mut() {
                    wheel.schedule(id, next_flush);
                }
            }
        }
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.cfg.assoc;
        base..base + self.cfg.assoc
    }

    /// Performs one access at absolute cycle `now`.
    ///
    /// Accesses may arrive slightly out of time order (an out-of-order core
    /// issues younger loads before older ones complete); the cache clamps
    /// such timestamps to its internal clock so the decay accounting stays
    /// monotonic.
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

        // No whole-set settlement here: settlement is additive, so only
        // the line whose mode actually changes (the hit way or the refill
        // victim) needs settling, and read-only mode queries resolve
        // expired transitions without touching the integrals.

        // Look for a matching way (live data or ghost). Zipped slice
        // iteration keeps the scan free of per-element bounds checks.
        let mut hit_way: Option<usize> = None;
        let mut ghost_way: Option<usize> = None;
        let tags = &self.slab.tag[range.clone()];
        let states = &self.slab.state[range.clone()];
        for (off, (&t, &st)) in tags.iter().zip(states).enumerate() {
            if t == tag {
                match st {
                    STATE_VALID => hit_way = Some(range.start + off),
                    STATE_GHOST => ghost_way = Some(range.start + off),
                    _ => {}
                }
            }
        }

        if let Some(i) = hit_way {
            if self.decay.is_none() {
                return self.plain_hit(i, kind, stamp);
            }
            return self.hit(i, kind, now, stamp);
        }

        // Miss path.
        let decay = self.decay;
        let mut extra = 0u32;
        let mut tag_probes = 0u32;
        if let Some(d) = decay {
            // State-preserving standby lines hold live data behind decayed
            // tags: the tags must be woken and checked before the miss is
            // known, costing the wake settle time (paper §2.3/§5.1).
            // Non-state-preserving standby ways are knowably empty and are
            // skipped — gated-V_ss is *faster* on true misses.
            if d.tags_decay && d.behavior == StandbyBehavior::Preserving {
                let standby_ways = range
                    .clone()
                    .filter(|&i| !self.resolved_mode_at(i, now).is_fully_active())
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

        let mut writeback = false;
        let mut cold = false;
        match self.slab.state[victim] {
            STATE_VALID => writeback = self.slab.is_dirty(victim),
            STATE_EMPTY => cold = true,
            _ => {}
        }

        // Refill: the wake (3 cycles) overlaps the next-level fetch, so no
        // extra latency is charged beyond the stalls above. Out-of-order
        // timestamps must not move `mode_since` backwards past cycles that
        // were already attributed (the integral would double-count them).
        // A `Waking` victim was already charged its wake transition by the
        // access that started it waking; counting it again here would break
        // the sleeps >= wakes pairing and overcharge transition energy.
        // The refill overwrites the victim's `mode_since` below: bring its
        // integral current first (and collapse any expired transition), or
        // the elapsed segment would be dropped from the mode-cycle totals.
        self.settle_line(victim, now);
        let now = now.max(self.slab.mode_since[victim]);
        let woke = matches!(
            self.slab.mode[victim],
            LineMode::Standby | LineMode::GoingToSleep { .. }
        );
        self.slab.tag[victim] = tag;
        self.slab.state[victim] = STATE_VALID;
        self.slab.set_dirty(victim, kind == AccessKind::Write);
        self.slab.mode[victim] = LineMode::Active;
        self.slab.mode_since[victim] = now;
        self.slab.base_count[victim] = 0;
        self.slab.reset_sweep[victim] = self.global.wraps;
        self.slab.lru_stamp[victim] = stamp;
        // O(1) schedule maintenance: the refilled line's idle clock
        // restarts from this touch.
        if matches!(decay.map(|d| d.policy), Some(DecayPolicy::NoAccess)) {
            self.reschedule_decay(victim);
        }
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

    /// Handles a hit on a cache without leakage control: modes never leave
    /// `Active`, counters are never consulted, and there is no wheel — a
    /// hit is just LRU and dirty-bit maintenance.
    #[inline]
    fn plain_hit(&mut self, i: usize, kind: AccessKind, stamp: u64) -> AccessResult {
        if kind == AccessKind::Write {
            self.slab.set_dirty(i, true);
        }
        self.slab.lru_stamp[i] = stamp;
        // Mirror the decayed path's seeded accounting bug (CI mutation
        // smoke): the hit count is dropped under that mutant.
        #[cfg(not(mutant = "seeded-accounting-bug"))]
        {
            self.stats.hits += 1;
        }
        AccessResult {
            hit: true,
            extra_latency: 0,
            miss: None,
            writeback: false,
            tag_probes: 0,
            woke_line: false,
        }
    }

    /// Handles a hit on way `i`, including slow hits on standby lines.
    fn hit(&mut self, i: usize, kind: AccessKind, now: u64, stamp: u64) -> AccessResult {
        let decay = self.decay;
        // Settle just the hit way: only this line's mode can change here,
        // and settlement is additive so skipping untouched lines loses
        // nothing.
        self.settle_line(i, now);
        // See the refill path: never rewind past already-accounted cycles.
        let now = now.max(self.slab.mode_since[i]);
        let mode = self.slab.mode[i];
        let (extra, woke, probed_tag) = match mode {
            // Fast hit: nothing to wake, nothing to wait for.
            LineMode::Active => (0u32, false, false),
            // Delayed hit: another access arrived while the line was still
            // waking; it waits out the remainder (an ordinary hit, but the
            // wait is a wake stall all the same).
            LineMode::Waking { until } => ((until - now) as u32, false, false),
            // Slow hit (state-preserving only — losing lines are ghosts and
            // never reach here). With decayed tags the tags must be woken
            // before they can even be checked (≥ wake settle); with live
            // tags only the data array wakes (1–2 cycles).
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
        if woke || matches!(mode, LineMode::Waking { .. }) {
            let until = now + u64::from(extra);
            self.slab.mode[i] = LineMode::Waking { until };
            self.slab.mode_since[i] = now;
        }
        if kind == AccessKind::Write {
            self.slab.set_dirty(i, true);
        }
        // A line that was already live and already touched during the
        // current wrap derives the same deadline it has scheduled now
        // (schedule coherence: live line, counter 0), so rescheduling would
        // cancel-and-relink the identical entry. Skipping that churn keeps
        // repeated hot-line hits off the wheel entirely. A woken line is
        // excluded: sleeping lines carry no decay event, so the wake must
        // schedule one regardless of its counter state.
        let fresh =
            !woke && self.slab.base_count[i] == 0 && self.slab.reset_sweep[i] == self.global.wraps;
        self.slab.base_count[i] = 0;
        self.slab.reset_sweep[i] = self.global.wraps;
        self.slab.lru_stamp[i] = stamp;
        if !fresh && matches!(decay.map(|d| d.policy), Some(DecayPolicy::NoAccess)) {
            // `wheel-bug` (CI mutation smoke only): drop the reschedule
            // when a deadline is already pending, so a touched line still
            // decays at its stale deadline. The differential suite and the
            // schedule-coherence audit both exist to catch exactly this.
            #[cfg(mutant = "wheel-bug")]
            let keep_stale = self
                .wheel
                .as_ref()
                .is_some_and(|w| w.is_scheduled(Self::decay_event_id(i)));
            #[cfg(not(mutant = "wheel-bug"))]
            let keep_stale = false;
            if !keep_stale {
                self.reschedule_decay(i);
            }
        }
        if woke {
            self.stats.wakes += 1;
            self.stats.slow_hits += 1;
        } else {
            // A deliberately seeded accounting bug for CI's mutation smoke
            // check: dropping the hit count changes no timing result, so
            // only the conservation audit can catch it.
            #[cfg(not(mutant = "seeded-accounting-bug"))]
            {
                self.stats.hits += 1;
            }
        }
        if probed_tag {
            self.stats.tag_probes += 1;
        }
        // Both slow-hit settles and waking-line remainders stall the access;
        // charge them all (delayed-hit waits used to be silently dropped).
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

    /// Victim priority: empty ways, then ghosts (data already lost), then
    /// true LRU.
    fn choose_victim(&self, set: usize) -> usize {
        let range = self.set_range(set);
        let mut best = range.start;
        let mut best_key = (2u8, u64::MAX);
        for i in range {
            let class = match self.slab.state[i] {
                STATE_EMPTY => 0u8,
                STATE_GHOST => 1,
                _ => 2,
            };
            let key = (class, self.slab.lru_stamp[i]);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Non-mutating lookup: returns whether `addr` currently hits live data.
    pub fn probe(&self, addr: u64) -> bool {
        let (tag, set) = self.cfg.split(addr);
        self.set_range(set)
            .any(|i| self.slab.tag[i] == tag && self.slab.state[i] == STATE_VALID)
    }

    /// Read-only view of line `index`'s internal state (way-major order:
    /// line `set * assoc + way`), for the model checker and white-box
    /// tests. Panics if `index` is out of range.
    pub fn line_view(&self, index: usize) -> LineView {
        LineView {
            tag: self.slab.tag[index],
            data: match self.slab.state[index] {
                STATE_VALID => {
                    if self.slab.is_dirty(index) {
                        LineDataView::Dirty
                    } else {
                        LineDataView::Clean
                    }
                }
                STATE_GHOST => LineDataView::Ghost,
                _ => LineDataView::Empty,
            },
            mode: self.slab.mode[index],
            mode_since: self.slab.mode_since[index],
            local_counter: self.local_counter(index),
            lru_stamp: self.slab.lru_stamp[index],
        }
    }

    /// Current number of lines whose mode would be `Standby` at `now`
    /// (resolves transitions read-only; intended for tests and probes, not
    /// the hot path).
    pub fn standby_line_count(&self, now: u64) -> usize {
        (0..self.cfg.num_lines())
            .filter(|&i| match self.slab.mode[i] {
                LineMode::Standby => true,
                LineMode::GoingToSleep { until } => now >= until,
                _ => false,
            })
            .count()
    }

    /// Checks that the wheel's schedule agrees with the slab's derived
    /// deadlines: every live line under `noaccess` has its decay event at
    /// exactly the wrap its counter saturates, and the `Simple` flush sits
    /// on the next full-interval wrap. (Transition expiries are resolved
    /// lazily and carry no events — see the `wheel` field.) This is the
    /// audit-side net for dropped or stale reschedules (the `wheel-bug`
    /// mutation smoke).
    ///
    /// # Errors
    ///
    /// Returns a description of the first drift found.
    pub fn schedule_coherence(&self) -> Result<(), String> {
        let (Some(decay), Some(wheel)) = (self.decay.as_ref(), self.wheel.as_ref()) else {
            return Ok(());
        };
        let period = self.global.period();
        match decay.policy {
            DecayPolicy::NoAccess => {
                for i in 0..self.cfg.num_lines() {
                    let live = matches!(
                        self.resolved_mode_at(i, self.clock),
                        LineMode::Active | LineMode::Waking { .. }
                    );
                    match (live, wheel.deadline_of(Self::decay_event_id(i))) {
                        (true, None) => {
                            return Err(format!("live line {i} has no decay deadline"));
                        }
                        (true, Some(d)) if self.local_counter(i) < LOCAL_COUNTER_MAX => {
                            let expect = self.decay_deadline(i);
                            if d != expect {
                                return Err(format!(
                                    "line {i} decay deadline {d} != derived deadline {expect}"
                                ));
                            }
                        }
                        (true, Some(d)) => {
                            // Saturated mid-wake lines retry wrap by wrap;
                            // any future wrap-aligned deadline is coherent.
                            let aligned = d == u64::MAX
                                || (d > self.clock
                                    && d.saturating_sub(self.regime_start).is_multiple_of(period));
                            if !aligned {
                                return Err(format!(
                                    "saturated line {i} retry deadline {d} is off the wrap grid \
                                     (clock {}, regime start {}, period {period})",
                                    self.clock, self.regime_start
                                ));
                            }
                        }
                        (false, Some(d)) => {
                            return Err(format!(
                                "sleeping line {i} still holds a decay deadline at {d}"
                            ));
                        }
                        (false, None) => {}
                    }
                }
            }
            DecayPolicy::Simple => {
                let expect = self.wrap_cycle(4 * (self.global.wraps / 4 + 1));
                match wheel.deadline_of(self.flush_event_id()) {
                    Some(d) if d == expect => {}
                    Some(d) => {
                        return Err(format!("flush deadline {d} != next full interval {expect}"));
                    }
                    None => return Err("no flush event scheduled".to_string()),
                }
            }
        }
        Ok(())
    }

    /// Brings the mode-cycle integrals up to `now` for every line. Call at
    /// simulation end (or before re-pricing leakage mid-run).
    pub fn snapshot(&mut self, now: u64) {
        for i in 0..self.cfg.num_lines() {
            self.settle_line(i, now);
        }
    }

    /// [`Cache::snapshot`] at end of run: additionally records the
    /// finalization cycle so the line-cycle conservation law
    /// (`mode_cycles.total() == num_lines × cycle`) becomes checkable.
    pub fn finalize(&mut self, now: u64) {
        let now = now.max(self.clock);
        self.snapshot(now);
        self.finalized_at = Some(now);
    }

    /// The cycle the cache was last finalized at, if no access or time
    /// advance has happened since.
    pub fn finalized_at(&self) -> Option<u64> {
        self.finalized_at
    }

    /// Audits this cache's statistics against every per-cache conservation
    /// law (see [`crate::audit`]), plus the wheel/slab schedule-coherence
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns the [`audit::AuditReport`](crate::audit::AuditReport) listing
    /// every violated law.
    #[cfg(feature = "audit")]
    pub fn audit(&self) -> Result<(), crate::audit::AuditReport> {
        let mut report = crate::audit::AuditReport::new();
        report.absorb(
            "cache",
            crate::audit::check_cache_stats(
                &self.stats,
                self.cfg.num_lines() as u64,
                self.finalized_at,
                self.decay.is_some(),
            ),
        );
        if let Err(detail) = self.schedule_coherence() {
            report.absorb(
                "cache",
                vec![crate::audit::AuditViolation::DecayScheduleDrift { detail }],
            );
        }
        report.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gated_cfg(interval: u64) -> DecayConfig {
        DecayConfig {
            interval_cycles: interval,
            policy: DecayPolicy::NoAccess,
            tags_decay: true,
            behavior: StandbyBehavior::Losing,
            sleep_settle_cycles: 30,
            wake_settle_cycles: 3,
        }
    }

    fn drowsy_cfg(interval: u64) -> DecayConfig {
        DecayConfig {
            interval_cycles: interval,
            policy: DecayPolicy::NoAccess,
            tags_decay: true,
            behavior: StandbyBehavior::Preserving,
            sleep_settle_cycles: 3,
            wake_settle_cycles: 3,
        }
    }

    fn run_idle(cache: &mut Cache, from: u64, cycles: u64) -> u64 {
        for t in from..from + cycles {
            cache.tick(t);
        }
        from + cycles
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), None).unwrap();
        let r = c.access(0x1000, AccessKind::Read, 0);
        assert!(!r.hit);
        assert_eq!(r.miss, Some(MissKind::Cold));
        let r = c.access(0x1000, AccessKind::Read, 1);
        assert!(r.hit);
        assert_eq!(r.extra_latency, 0);
    }

    #[test]
    fn lru_eviction_in_2way_set() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), None).unwrap();
        let stride = (c.config().num_sets() * c.config().line_bytes) as u64;
        c.access(0x0, AccessKind::Read, 0);
        c.access(stride, AccessKind::Read, 1);
        c.access(0x0, AccessKind::Read, 2); // touch way 0 again
        let r = c.access(2 * stride, AccessKind::Read, 3); // evicts `stride`
        assert!(!r.hit);
        assert!(c.probe(0x0), "recently used line survives");
        assert!(!c.probe(stride), "LRU line evicted");
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), None).unwrap();
        let stride = (c.config().num_sets() * c.config().line_bytes) as u64;
        c.access(0x0, AccessKind::Write, 0);
        c.access(stride, AccessKind::Read, 1);
        let r = c.access(2 * stride, AccessKind::Read, 2);
        assert!(r.writeback, "dirty LRU victim must be written back");
    }

    #[test]
    fn idle_line_decays_after_full_interval() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(1024))).unwrap();
        c.access(0x1000, AccessKind::Read, 0);
        let now = run_idle(&mut c, 0, 1024 + 40);
        assert!(c.standby_line_count(now) > 0, "idle lines must decay");
        assert!(!c.probe(0x1000), "gated line loses its data");
    }

    #[test]
    fn gated_reaccess_is_induced_miss() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(1024))).unwrap();
        c.access(0x1000, AccessKind::Read, 0);
        let now = run_idle(&mut c, 0, 2048);
        let r = c.access(0x1000, AccessKind::Read, now);
        assert!(!r.hit);
        assert_eq!(r.miss, Some(MissKind::Induced));
        assert_eq!(c.stats().induced_misses, 1);
    }

    #[test]
    fn drowsy_reaccess_is_slow_hit() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(drowsy_cfg(1024))).unwrap();
        c.access(0x1000, AccessKind::Read, 0);
        let now = run_idle(&mut c, 0, 2048);
        let r = c.access(0x1000, AccessKind::Read, now);
        assert!(r.hit, "drowsy preserves data");
        assert_eq!(r.extra_latency, 3, "drowsy tags cost the full wake settle");
        assert_eq!(c.stats().slow_hits, 1);
        assert_eq!(c.stats().induced_misses, 0);
    }

    #[test]
    fn drowsy_without_tag_decay_is_faster() {
        let mut cfg = drowsy_cfg(1024);
        cfg.tags_decay = false;
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(cfg)).unwrap();
        c.access(0x1000, AccessKind::Read, 0);
        let now = run_idle(&mut c, 0, 2048);
        let r = c.access(0x1000, AccessKind::Read, now);
        assert!(r.hit);
        assert_eq!(r.extra_latency, 2, "data-only wake is 1-2 cycles");
    }

    #[test]
    fn drowsy_true_miss_pays_tag_wake_but_gated_does_not() {
        // Both caches hold a decayed line in the target set; a miss to a
        // *different* tag must wake drowsy tags but can skip gated ways.
        let stride = (CacheConfig::l1_64k_2way().num_sets() * 64) as u64;
        let mut drowsy = Cache::new(CacheConfig::l1_64k_2way(), Some(drowsy_cfg(1024))).unwrap();
        drowsy.access(0x0, AccessKind::Read, 0);
        let now = run_idle(&mut drowsy, 0, 2048);
        let r = drowsy.access(stride, AccessKind::Read, now);
        assert!(!r.hit);
        assert_eq!(r.extra_latency, 3, "drowsy wakes tags on a true miss");
        assert!(r.tag_probes > 0);

        let mut gated = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(1024))).unwrap();
        gated.access(0x0, AccessKind::Read, 0);
        let now = run_idle(&mut gated, 0, 2048);
        let r = gated.access(stride, AccessKind::Read, now);
        assert!(!r.hit);
        assert_eq!(r.extra_latency, 0, "gated skips standby ways entirely");
        assert_eq!(r.tag_probes, 0);
    }

    #[test]
    fn dirty_gated_line_writes_back_on_decay() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(1024))).unwrap();
        c.access(0x1000, AccessKind::Write, 0);
        run_idle(&mut c, 0, 2048);
        assert_eq!(c.stats().decay_writebacks, 1);
    }

    #[test]
    fn drowsy_dirty_line_never_decay_writes_back() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(drowsy_cfg(1024))).unwrap();
        c.access(0x1000, AccessKind::Write, 0);
        run_idle(&mut c, 0, 4096);
        assert_eq!(c.stats().decay_writebacks, 0);
    }

    #[test]
    fn accessed_lines_do_not_decay() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(1024))).unwrap();
        let mut now = 0u64;
        for _ in 0..16 {
            c.access(0x1000, AccessKind::Read, now);
            now = run_idle(&mut c, now, 200); // re-touch well within interval
        }
        assert!(c.probe(0x1000), "frequently touched line must stay live");
        assert_eq!(c.stats().induced_misses, 0);
    }

    #[test]
    fn simple_policy_flushes_everything() {
        let mut cfg = drowsy_cfg(1024);
        cfg.policy = DecayPolicy::Simple;
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(cfg)).unwrap();
        let mut now = 0;
        // Touch the line every 300 cycles — under `noaccess` it would stay
        // awake, but `simple` flushes all lines every full interval.
        let mut saw_slow_hit = false;
        for _ in 0..8 {
            let r = c.access(0x2000, AccessKind::Read, now);
            saw_slow_hit |= r.hit && r.extra_latency > 0;
            now = run_idle(&mut c, now, 300);
        }
        assert!(
            saw_slow_hit,
            "simple policy must put even hot lines to sleep"
        );
    }

    #[test]
    fn mode_cycles_conserve_total() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(512))).unwrap();
        c.access(0x0, AccessKind::Read, 0);
        c.access(0x40, AccessKind::Read, 1);
        let now = run_idle(&mut c, 0, 5000);
        c.finalize(now);
        // tick(t) processes cycle t by advancing the clock to t+1, so the
        // clock may sit past the caller's `now`; the conservation law is
        // stated against the cycle finalize actually integrated to.
        let at = c.finalized_at().expect("just finalized");
        assert!(at >= now);
        let mc = c.stats().mode_cycles;
        let expect = Cycles::new(c.config().num_lines() as u64 * at);
        assert_eq!(
            mc.total(),
            expect,
            "every line-cycle lands in exactly one bucket"
        );
        assert!(mc.standby > Cycles::ZERO);
    }

    #[test]
    fn turnoff_ratio_high_when_idle() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(512))).unwrap();
        let now = run_idle(&mut c, 0, 20_000);
        c.finalize(now);
        assert!(
            c.stats().mode_cycles.turnoff_ratio() > 0.9,
            "an untouched cache should be almost fully deactivated, got {}",
            c.stats().mode_cycles.turnoff_ratio()
        );
    }

    #[test]
    fn counter_activity_is_counted() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(1024))).unwrap();
        run_idle(&mut c, 0, 1024);
        assert_eq!(c.stats().global_counter_wraps, 4);
        assert_eq!(
            c.stats().local_counter_ticks,
            4 * c.config().num_lines() as u64
        );
    }

    #[test]
    fn ghost_displaced_by_replacement_is_true_miss() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(512))).unwrap();
        let stride = (c.config().num_sets() * c.config().line_bytes) as u64;
        c.access(0x0, AccessKind::Read, 0);
        let now = run_idle(&mut c, 0, 1200); // 0x0 decays to ghost
                                             // Two new tags fill both ways (ghost way is preferred victim).
        c.access(stride, AccessKind::Read, now);
        c.access(2 * stride, AccessKind::Read, now + 1);
        let r = c.access(0x0, AccessKind::Read, now + 2);
        assert_eq!(
            r.miss,
            Some(MissKind::True),
            "displaced ghost would have been evicted anyway"
        );
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), None).unwrap();
        let stride = (c.config().num_sets() * c.config().line_bytes) as u64;
        c.access(0x0, AccessKind::Read, 0);
        c.access(0x0, AccessKind::Write, 1);
        c.access(stride, AccessKind::Read, 2);
        let r = c.access(2 * stride, AccessKind::Read, 3);
        assert!(r.writeback, "write-hit line must be dirty at eviction");
    }

    #[test]
    fn waking_line_hit_counts_wake_stall() {
        // Regression: a hit on a line that is still waking waits out the
        // remainder — that wait must land in `wake_stall_cycles` (it used
        // to be silently dropped, undercounting drowsy's stalls).
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(drowsy_cfg(1024))).unwrap();
        c.access(0x1000, AccessKind::Read, 0);
        let now = run_idle(&mut c, 0, 2048);
        let r1 = c.access(0x1000, AccessKind::Read, now); // slow hit, stall 3
        assert_eq!(r1.extra_latency, 3);
        let r2 = c.access(0x1000, AccessKind::Read, now + 1); // waking, stall 2
        assert!(r2.hit);
        assert_eq!(r2.extra_latency, 2);
        assert!(!r2.woke_line, "the slow hit already charged the wake");
        assert_eq!(
            c.stats().wake_stall_cycles,
            Cycles::new(5),
            "both the settle and the waking remainder are stalls"
        );
        assert_eq!(c.stats().slow_hits, 1);
        assert_eq!(c.stats().hits, 1, "the delayed hit is still a hit");
    }

    #[test]
    fn waking_victim_refill_does_not_double_count_wakes() {
        // Regression: both ways of a set are slow-hit (now Waking); a miss
        // that evicts the older Waking way must not charge a second wake
        // for a line already waking — that would break sleeps >= wakes.
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(drowsy_cfg(1024))).unwrap();
        let stride = (c.config().num_sets() * c.config().line_bytes) as u64;
        c.access(0x0, AccessKind::Read, 0);
        c.access(stride, AccessKind::Read, 1);
        let now = run_idle(&mut c, 0, 2048); // both lines decay to standby
        assert!(c.access(0x0, AccessKind::Read, now).woke_line);
        assert!(c.access(stride, AccessKind::Read, now + 1).woke_line);
        let sleeps = c.stats().sleeps;
        assert_eq!(c.stats().wakes, 2);
        // Miss in the same set while both ways are still waking: the LRU
        // victim (0x0) is mid-wake.
        let r = c.access(2 * stride, AccessKind::Read, now + 2);
        assert!(!r.hit);
        assert!(!r.woke_line, "a waking victim was already charged");
        assert_eq!(c.stats().wakes, 2, "no third wake for two sleeps");
        assert!(c.stats().wakes <= sleeps);
    }

    #[test]
    fn interval_increase_resets_local_counters() {
        // Regression: lengthening the decay interval must restart every
        // line's idle history. Stale two-bit counters let a line decay
        // after a single quarter of the *new* interval.
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(1024))).unwrap();
        c.access(0x1000, AccessKind::Read, 0);
        // Two quarter-wraps (256, 512): local counter reaches 2 of 3.
        let now = run_idle(&mut c, 0, 600);
        c.set_decay_interval(1_000_000); // quarter interval: 250_000
                                         // One quarter of the new interval passes — far less than the full
                                         // new interval, so the line must still be alive.
        let now = run_idle(&mut c, now, 250_100);
        assert!(
            c.probe(0x1000),
            "line must survive one quarter of the new interval"
        );
        assert_eq!(c.stats().induced_misses, 0);
        // And after the full new interval it decays as usual.
        let now = run_idle(&mut c, now, 800_000);
        assert!(c.standby_line_count(now) > 0);
        assert!(!c.probe(0x1000), "full new interval still decays");
    }

    #[test]
    fn tiny_interval_clamps_to_documented_floor() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(gated_cfg(1024))).unwrap();
        c.set_decay_interval(1);
        assert_eq!(
            c.decay_config().unwrap().interval_cycles,
            crate::decay::MIN_DECAY_INTERVAL_CYCLES
        );
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_passes_on_real_workloads() {
        // The audit net itself: any dropped or double-counted event in the
        // access/decay machinery fails this test (this is what CI's seeded
        // mutation smoke check relies on).
        for cfg in [gated_cfg(512), drowsy_cfg(512)] {
            let mut c = Cache::new(CacheConfig::l1_64k_2way(), Some(cfg)).unwrap();
            let mut now = 0u64;
            for i in 0u64..400 {
                c.access(((i * 193) % 40_000) & !63, AccessKind::Read, now);
                if i % 3 == 0 {
                    c.access(((i * 67) % 20_000) & !63, AccessKind::Write, now + 1);
                }
                now = run_idle(&mut c, now, 40 + (i % 300));
            }
            c.finalize(now);
            c.audit().expect("accounting must conserve");
        }
    }

    #[test]
    fn no_decay_cache_never_sleeps() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), None).unwrap();
        c.access(0x0, AccessKind::Read, 0);
        let now = run_idle(&mut c, 0, 100_000);
        assert_eq!(c.standby_line_count(now), 0);
        assert_eq!(c.stats().sleeps, 0);
    }
}
