//! A set-associative, write-back, write-allocate cache with optional
//! per-line decay (leakage-control) machinery.
//!
//! ## Data-oriented hot path
//!
//! Every cache keeps its lines in a struct-of-arrays slab ([`LineSlab`]):
//! parallel, contiguous arrays (way-major, so each set is a contiguous
//! stripe) of tags, data-state bytes, packed dirty bits and LRU stamps.
//! Only a cache with decay also has a [`DecayState`]: its
//! [`DecayConfig`], per-line power modes and counter bookkeeping in arrays
//! of the same layout, the global counter and the due lists. A cache
//! without decay (the study's L1I and L2, and the baseline L1D) holds none
//! of it. All of it is allocated once at construction; the steady state
//! allocates nothing.
//!
//! Decay deadlines are not found by sweeping lines. A line decays only at
//! a wrap of the global counter, so under the `noaccess` policy each live
//! line sits on one of four due lists (`due::DueLists`), the one
//! of the wrap its two-bit counter saturates at. An access that resets
//! the counter moves the line in O(1). Every pending wrap is 1–3 wraps
//! ahead of the wrap count, so four lists indexed by `wrap % 4` never
//! alias. The `simple` policy's flush is no list entry: it falls on every
//! fourth wrap of the counter regime. `GoingToSleep`/`Waking { until }`
//! settle expiries are not scheduled at all (see [`DecayState`]).
//!
//! [`Cache::advance_to`] drains the lists wrap by wrap, each at its exact
//! cycle, and stops once they are empty, so a time jump across an idle
//! stretch costs O(lines due), not O(lines × wraps).
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
//! The driver moves time with [`Cache::advance_to`] (O(1) when no wrap
//! falls in the step) and calls [`Cache::access`] per reference. Line
//! power modes are resolved
//! lazily: each line records when its current mode began, and the elapsed
//! line-cycles are attributed to the right [`ModeCycles`] bucket whenever
//! the line is next touched (access, decay wrap, or finalization). The
//! integrals are exact — nothing is sampled — and settlement is additive
//! over mode segments, so event-driven settlement order produces bitwise
//! the same [`CacheStats`] as a per-wrap full sweep.
//!
//! A cache without decay never changes a line's mode: every line is
//! `Active` from cycle 0. Its whole integral at a close at cycle `t` is
//! therefore `lines × t`, which [`Cache::snapshot`] and [`Cache::finalize`]
//! set in O(1) without visiting a line. Both close at the later of the
//! cycle asked for and the cache's clock, the latest cycle it has seen.
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
use crate::due::DueLists;
use crate::stats::CacheStats;

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
///
/// A line of a cache without decay has no power state of its own: it
/// reads as `Active` since cycle 0, with its two-bit counter at 0.
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

/// The way index of no way.
const NO_WAY: usize = usize::MAX;

/// Struct-of-arrays storage of what every cache keeps per line: one entry
/// per line in way-major order (line `set * assoc + way`), so a set's ways
/// are contiguous in every array. Allocated once at construction; never
/// grows.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LineSlab {
    /// Resident (or ghost) tag.
    tag: Vec<u64>,
    /// Data state (`STATE_EMPTY` / `STATE_VALID` / `STATE_GHOST`).
    state: Vec<u8>,
    /// Packed dirty bits, one per line (meaningful only for valid lines).
    dirty: Vec<u64>,
    /// Monotone recency stamp (larger = more recently used).
    lru_stamp: Vec<u64>,
}

impl LineSlab {
    fn new(n: usize) -> Self {
        LineSlab {
            tag: vec![0; n],
            state: vec![STATE_EMPTY; n],
            dirty: vec![0; n.div_ceil(64)],
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

/// Everything a cache has only under decay: the configuration, the
/// per-line power state (arrays in [`LineSlab`]'s layout), the counter
/// and the due lists.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DecayState {
    cfg: DecayConfig,
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
    global: GlobalCounter,
    /// Cycle the current counter regime began (construction or the last
    /// [`Cache::set_decay_interval`]); wrap `k` of the regime falls at
    /// `regime_start + k * period`.
    regime_start: u64,
    /// Under `noaccess`, every live line by the regime wrap it decays at;
    /// empty under `simple`. Transition (`GoingToSleep`/`Waking`) expiries
    /// are deliberately not scheduled: settlement is additive and every
    /// raw-mode read happens after a settle, so expired transitions
    /// collapse lazily with identical observables — an expiry entry would
    /// only add list traffic to every sleep and wake.
    due: DueLists,
}

/// Attributes elapsed line-cycles up to `now` and resolves any completed
/// transition. Settlement is additive over mode segments, so calling this
/// at every event or only at the end yields the same integrals.
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

impl DecayState {
    /// The decay state of `lines` lines, all `Active` since cycle 0 with
    /// fresh counters and their first deadlines scheduled.
    fn new(cfg: DecayConfig, lines: usize) -> Self {
        let mut state = DecayState {
            cfg,
            mode: vec![LineMode::Active; lines],
            mode_since: vec![0; lines],
            base_count: vec![0; lines],
            reset_sweep: vec![0; lines],
            global: GlobalCounter::new(cfg.quarter_interval()),
            regime_start: 0,
            due: DueLists::new(lines),
        };
        state.rebuild_schedule(0);
        state
    }

    fn lines(&self) -> usize {
        self.mode.len()
    }

    /// Absolute cycle of regime wrap number `wrap`.
    fn wrap_cycle(&self, wrap: u64) -> u64 {
        self.regime_start
            .saturating_add(wrap.saturating_mul(self.global.period()))
    }

    /// Line `i`'s two-bit counter as of the current clock, derived from its
    /// last reset point (see the module docs).
    fn local_counter(&self, i: usize) -> u8 {
        match self.cfg.policy {
            DecayPolicy::NoAccess => {
                let ticks = self.global.wraps.saturating_sub(self.reset_sweep[i]);
                (u64::from(self.base_count[i]) + ticks).min(u64::from(LOCAL_COUNTER_MAX)) as u8
            }
            DecayPolicy::Simple => self.base_count[i],
        }
    }

    /// The regime wrap at which line `i`'s counter saturates and the line
    /// decays (given no further access). A line whose base is already
    /// saturated decays at the next wrap.
    fn decay_wrap(&self, i: usize) -> u64 {
        let remaining = u64::from(LOCAL_COUNTER_MAX.saturating_sub(self.base_count[i])).max(1);
        self.reset_sweep[i].saturating_add(remaining)
    }

    /// (Re)schedules line `i`'s decay from its current counter state.
    /// O(1).
    fn reschedule_decay(&mut self, i: usize) {
        let wrap = self.decay_wrap(i);
        self.due.link(i, wrap);
    }

    /// Line `i`'s mode at `now` with expired transitions collapsed
    /// (read-only counterpart of settlement).
    fn resolved_mode_at(&self, i: usize, now: u64) -> LineMode {
        match self.mode[i] {
            LineMode::GoingToSleep { until } if now > until => LineMode::Standby,
            LineMode::Waking { until } if now > until => LineMode::Active,
            m => m,
        }
    }

    /// [`settle`] for line `i`.
    fn settle_line(&mut self, stats: &mut CacheStats, i: usize, now: u64) {
        settle(&mut self.mode[i], &mut self.mode_since[i], stats, now);
    }

    /// Processes every decay due at a wrap in `(clock, now]` at the wrap's
    /// exact cycle, then books the global-counter wraps up to `now`.
    fn advance(&mut self, slab: &mut LineSlab, stats: &mut CacheStats, now: u64) {
        // Most advances cross no wrap: the next-wrap comparison keeps the
        // u64 division off them.
        if now < self.wrap_cycle(self.global.wraps.saturating_add(1)) {
            return;
        }
        let last = (now - self.regime_start) / self.global.period();
        let newly = last - self.global.wraps;
        match self.cfg.policy {
            DecayPolicy::NoAccess => {
                // Wrap by wrap while any line is due; past that the jump
                // costs nothing. Each wrap increments every line's two-bit
                // counter, but the counters are derived on demand, so only
                // the total is booked.
                let mut wrap = self.global.wraps;
                while wrap < last && !self.due.is_empty() {
                    wrap += 1;
                    let t = self.wrap_cycle(wrap);
                    while let Some(i) = self.due.pop(wrap) {
                        self.on_decay_wrap(slab, stats, i, wrap, t);
                    }
                }
                stats.local_counter_ticks += newly * self.lines() as u64;
            }
            DecayPolicy::Simple => {
                // The flush falls on every fourth wrap of the regime.
                for n in self.global.wraps / 4 + 1..=last / 4 {
                    let t = self.wrap_cycle(4 * n);
                    self.flush(slab, stats, t);
                }
            }
        }
        self.global.wraps = last;
        stats.global_counter_wraps += newly;
    }

    /// Line `i`'s two-bit counter saturated at `wrap`, at cycle `t`:
    /// deactivate it if it is (by then) fully active.
    fn on_decay_wrap(
        &mut self,
        slab: &mut LineSlab,
        stats: &mut CacheStats,
        i: usize,
        wrap: u64,
        t: u64,
    ) {
        self.settle_line(stats, i, t);
        match self.mode[i] {
            LineMode::Active => self.deactivate(slab, stats, i, t),
            // Saturated but mid-wake: retry at the next wrap, exactly as a
            // per-wrap sweep would (a saturated counter keeps asking until
            // the line is deactivatable or touched).
            LineMode::Waking { .. } => self.due.link(i, wrap + 1),
            _ => {}
        }
    }

    /// The `Simple` policy's full-interval flush at wrap cycle `t`:
    /// deactivate every fully active line.
    fn flush(&mut self, slab: &mut LineSlab, stats: &mut CacheStats, t: u64) {
        for i in 0..self.lines() {
            self.settle_line(stats, i, t);
            if matches!(self.mode[i], LineMode::Active) {
                self.deactivate(slab, stats, i, t);
            }
        }
    }

    /// Puts line `i` into standby, handling dirty data per the technique.
    /// The settle expiry is not scheduled anywhere: lazy settlement
    /// resolves it at the line's next touch (or `finalize`).
    fn deactivate(&mut self, slab: &mut LineSlab, stats: &mut CacheStats, i: usize, now: u64) {
        if self.cfg.behavior == StandbyBehavior::Losing && slab.state[i] == STATE_VALID {
            if slab.is_dirty(i) {
                stats.decay_writebacks += 1;
            }
            slab.state[i] = STATE_GHOST;
            slab.set_dirty(i, false);
        }
        let until = now + u64::from(self.cfg.sleep_settle_cycles);
        self.mode[i] = LineMode::GoingToSleep { until };
        self.mode_since[i] = now;
        stats.sleeps += 1;
    }

    /// Starts a new counter regime at `clock` with the interval clamped to
    /// [`MIN_DECAY_INTERVAL_CYCLES`] (see [`Cache::set_decay_interval`]).
    fn restart(&mut self, interval_cycles: u64, clock: u64) {
        // `pre-fix-stale-counter` (CI mutation smoke only) carries each
        // line's saturation progress into the new regime so the model
        // checker can demonstrate the original bug; the fixed behavior
        // restarts every counter.
        #[cfg(mutant = "pre-fix-stale-counter")]
        for i in 0..self.lines() {
            let stale = self.local_counter(i);
            self.base_count[i] = stale;
        }
        #[cfg(not(mutant = "pre-fix-stale-counter"))]
        for base in &mut self.base_count {
            *base = 0;
        }
        for reset in &mut self.reset_sweep {
            *reset = 0;
        }
        self.cfg.interval_cycles = interval_cycles.max(MIN_DECAY_INTERVAL_CYCLES);
        self.global = GlobalCounter::new(self.cfg.quarter_interval());
        self.regime_start = clock;
        self.rebuild_schedule(clock);
    }

    /// Rebuilds the due lists from scratch for the current regime
    /// (construction and interval switches; steady-state maintenance is
    /// all O(1) incremental). The `simple` policy lists no line.
    fn rebuild_schedule(&mut self, clock: u64) {
        if self.cfg.policy == DecayPolicy::NoAccess {
            for i in 0..self.lines() {
                let live = matches!(
                    self.resolved_mode_at(i, clock),
                    LineMode::Active | LineMode::Waking { .. }
                );
                if live {
                    self.reschedule_decay(i);
                } else {
                    self.due.unlink(i);
                }
            }
        }
    }

    /// Restarts line `i`'s power state for a refill at `now` and returns
    /// whether the refill wakes a sleeping line.
    fn refill(&mut self, stats: &mut CacheStats, i: usize, now: u64) -> bool {
        // The refill overwrites the victim's `mode_since` below: bring its
        // integral current first (and collapse any expired transition), or
        // the elapsed segment would be dropped from the mode-cycle totals.
        // Out-of-order timestamps must not move `mode_since` backwards
        // past cycles that were already attributed (the integral would
        // double-count them). A `Waking` victim was already charged its
        // wake transition by the access that started it waking; counting
        // it again here would break the sleeps >= wakes pairing and
        // overcharge transition energy.
        self.settle_line(stats, i, now);
        let now = now.max(self.mode_since[i]);
        let woke = matches!(
            self.mode[i],
            LineMode::Standby | LineMode::GoingToSleep { .. }
        );
        self.mode[i] = LineMode::Active;
        self.mode_since[i] = now;
        self.base_count[i] = 0;
        self.reset_sweep[i] = self.global.wraps;
        // O(1) schedule maintenance: the refilled line's idle clock
        // restarts from this touch.
        if self.cfg.policy == DecayPolicy::NoAccess {
            self.reschedule_decay(i);
        }
        woke
    }

    /// Handles a hit on way `i`, including slow hits on standby lines.
    fn hit(
        &mut self,
        slab: &mut LineSlab,
        stats: &mut CacheStats,
        i: usize,
        kind: AccessKind,
        now: u64,
        stamp: u64,
    ) -> AccessResult {
        // Settle just the hit way: only this line's mode can change here,
        // and settlement is additive so skipping untouched lines loses
        // nothing.
        self.settle_line(stats, i, now);
        // See `refill`: never rewind past already-accounted cycles.
        let now = now.max(self.mode_since[i]);
        let mode = self.mode[i];
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
                if self.cfg.tags_decay {
                    (self.cfg.wake_settle_cycles, true, true)
                } else {
                    (
                        self.cfg.wake_settle_cycles.saturating_sub(1).max(1),
                        true,
                        false,
                    )
                }
            }
        };
        if woke || matches!(mode, LineMode::Waking { .. }) {
            let until = now + u64::from(extra);
            self.mode[i] = LineMode::Waking { until };
            self.mode_since[i] = now;
        }
        if kind == AccessKind::Write {
            slab.set_dirty(i, true);
        }
        // A line that was already live and already touched during the
        // current wrap derives the same decay wrap it is listed at now
        // (schedule coherence: live line, counter 0), so rescheduling would
        // unlink and relink the identical entry. Skipping that churn keeps
        // repeated hot-line hits off the due lists entirely. A woken line
        // is excluded: sleeping lines are on no list, so the wake must
        // list it regardless of its counter state.
        let fresh = !woke && self.base_count[i] == 0 && self.reset_sweep[i] == self.global.wraps;
        self.base_count[i] = 0;
        self.reset_sweep[i] = self.global.wraps;
        slab.lru_stamp[i] = stamp;
        if !fresh && self.cfg.policy == DecayPolicy::NoAccess {
            // `wheel-bug` (CI mutation smoke only; named for the timing
            // wheel the due lists replaced): drop the reschedule when the
            // line is already listed, so a touched line still decays at
            // its stale wrap. The differential suite and the
            // schedule-coherence audit both exist to catch exactly this.
            #[cfg(mutant = "wheel-bug")]
            let keep_stale = self.due.wrap_of(i).is_some();
            #[cfg(not(mutant = "wheel-bug"))]
            let keep_stale = false;
            if !keep_stale {
                self.reschedule_decay(i);
            }
        }
        if woke {
            stats.wakes += 1;
            stats.slow_hits += 1;
        } else {
            // A deliberately seeded accounting bug for CI's mutation smoke
            // check: dropping the hit count changes no timing result, so
            // only the conservation audit can catch it.
            #[cfg(not(mutant = "seeded-accounting-bug"))]
            {
                stats.hits += 1;
            }
        }
        if probed_tag {
            stats.tag_probes += 1;
        }
        // Both slow-hit settles and waking-line remainders stall the access;
        // charge them all (delayed-hit waits used to be silently dropped).
        stats.wake_stall_cycles += Cycles::new(u64::from(extra));
        AccessResult {
            hit: true,
            extra_latency: extra,
            miss: None,
            writeback: false,
            tag_probes: probed_tag as u32,
            woke_line: woke,
        }
    }

    /// See [`Cache::schedule_coherence`]; `clock` is the cache's clock.
    fn schedule_coherence(&self, clock: u64) -> Result<(), String> {
        // Each list holds exactly the lines whose wrap maps to it. The
        // walk stops past `lines` members, so a looped list cannot hang it.
        let mut listed = 0;
        for list in 0..4 {
            for i in self.due.members(list).take(self.lines() + 1) {
                match self.due.wrap_of(i) {
                    Some(wrap) if wrap % 4 == list as u64 => listed += 1,
                    wrap => {
                        return Err(format!("line {i} is on due list {list} at wrap {wrap:?}"));
                    }
                }
            }
        }
        let due = (0..self.lines())
            .filter(|&i| self.due.wrap_of(i).is_some())
            .count();
        if listed != due {
            return Err(format!(
                "{due} lines have a decay wrap but the due lists hold {listed}"
            ));
        }
        if self.cfg.policy == DecayPolicy::Simple {
            return if due == 0 {
                Ok(())
            } else {
                Err(format!("the simple policy lists {due} lines"))
            };
        }
        for i in 0..self.lines() {
            let live = matches!(
                self.resolved_mode_at(i, clock),
                LineMode::Active | LineMode::Waking { .. }
            );
            match (live, self.due.wrap_of(i)) {
                (true, None) => return Err(format!("live line {i} has no decay wrap")),
                (true, Some(wrap)) => {
                    // A saturated line still waking at its wrap retries at
                    // the next one.
                    let expect = if self.local_counter(i) < LOCAL_COUNTER_MAX {
                        self.decay_wrap(i)
                    } else {
                        self.global.wraps + 1
                    };
                    if wrap != expect {
                        return Err(format!(
                            "line {i} decays at wrap {wrap}, not at its derived wrap {expect}"
                        ));
                    }
                }
                (false, Some(wrap)) => {
                    return Err(format!("sleeping line {i} still decays at wrap {wrap}"));
                }
                (false, None) => {}
            }
        }
        Ok(())
    }
}

/// A single cache level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    cfg: CacheConfig,
    /// `cfg`'s address split as shifts and a mask, so an access never
    /// divides by the set count.
    offset_shift: u32,
    set_shift: u32,
    set_mask: u64,
    /// `cfg.num_lines()`, without its division.
    lines: usize,
    slab: LineSlab,
    decay: Option<DecayState>,
    stats: CacheStats,
    stamp: u64,
    clock: u64,
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
        let n = cfg.num_lines();
        let sets = cfg.num_sets();
        Ok(Cache {
            cfg,
            offset_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            lines: n,
            slab: LineSlab::new(n),
            decay: decay.map(|d| DecayState::new(d, n)),
            stats: CacheStats::default(),
            stamp: 0,
            clock: 0,
            finalized_at: None,
        })
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The decay configuration, if leakage control is enabled.
    pub fn decay_config(&self) -> Option<&DecayConfig> {
        self.decay.as_ref().map(|d| &d.cfg)
    }

    /// Statistics accumulated so far. Mode-cycle integrals are only current
    /// up to the last [`Cache::snapshot`]/[`Cache::finalize`] call.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Processes every decay due at a global-counter wrap in `(current
    /// clock, now]` at the wrap's exact cycle — only listed lines and, under
    /// `simple`, the flush wraps are visited, never every line at every
    /// wrap — then sets the clock to `now`. One jump and a step per cycle
    /// give identical decay semantics, so a time-jumping driver (the
    /// one-pass out-of-order model) loses nothing. Calls with `now` in the
    /// past are no-ops. A cache without decay only moves its clock.
    #[inline]
    pub fn advance_to(&mut self, now: u64) {
        if now <= self.clock {
            return;
        }
        self.finalized_at = None;
        if let Some(decay) = self.decay.as_mut() {
            decay.advance(&mut self.slab, &mut self.stats, now);
        }
        self.clock = now;
    }

    /// The cache's internal clock (latest cycle seen).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Phase of the hierarchical counter within the full decay interval:
    /// how many quarter-interval wraps have fired since the counter was
    /// (re)started, modulo 4. The `Simple` policy's full-interval flush
    /// fires when this wraps to 0. Always 0 without decay.
    ///
    /// Distinct from `stats().global_counter_wraps % 4`: the stats counter
    /// accumulates across [`Cache::set_decay_interval`] restarts (it prices
    /// counter energy), while this phase restarts with the interval — after
    /// a mid-run switch only this accessor tracks the flush schedule.
    pub fn wrap_phase(&self) -> u64 {
        self.decay.as_ref().map_or(0, |d| d.global.wraps % 4)
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
        if let Some(decay) = self.decay.as_mut() {
            decay.restart(interval_cycles, self.clock);
        }
    }

    /// Splits an address into `(tag, set_index)`, as
    /// [`CacheConfig::split`] does.
    fn split(&self, addr: u64) -> (u64, usize) {
        let line_addr = addr >> self.offset_shift;
        (
            line_addr >> self.set_shift,
            (line_addr & self.set_mask) as usize,
        )
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
        let (tag, set) = self.split(addr);
        let range = self.set_range(set);

        // No whole-set settlement here: settlement is additive, so only
        // the line whose mode actually changes (the hit way or the refill
        // victim) needs settling, and read-only mode queries resolve
        // expired transitions without touching the integrals.

        // Look for a matching way (live data or ghost). Zipped slice
        // iteration keeps the scan free of per-element bounds checks, and
        // selects keep it free of branches on which way matches, which
        // the address stream makes unpredictable.
        let mut hit_way = NO_WAY;
        let mut ghost_way = NO_WAY;
        let tags = &self.slab.tag[range.clone()];
        let states = &self.slab.state[range.clone()];
        for (way, (&t, &st)) in range.clone().zip(tags.iter().zip(states)) {
            let matched = t == tag;
            hit_way = if matched & (st == STATE_VALID) {
                way
            } else {
                hit_way
            };
            ghost_way = if matched & (st == STATE_GHOST) {
                way
            } else {
                ghost_way
            };
        }
        let ghost_way = (ghost_way != NO_WAY).then_some(ghost_way);

        if hit_way != NO_WAY {
            return match self.decay.as_mut() {
                Some(d) => d.hit(&mut self.slab, &mut self.stats, hit_way, kind, now, stamp),
                None => self.plain_hit(hit_way, kind, stamp),
            };
        }

        // Miss path.
        let mut extra = 0u32;
        let mut tag_probes = 0u32;
        if let Some(d) = &self.decay {
            // State-preserving standby lines hold live data behind decayed
            // tags: the tags must be woken and checked before the miss is
            // known, costing the wake settle time (paper §2.3/§5.1).
            // Non-state-preserving standby ways are knowably empty and are
            // skipped — gated-V_ss is *faster* on true misses.
            if d.cfg.tags_decay && d.cfg.behavior == StandbyBehavior::Preserving {
                let standby_ways = range
                    .clone()
                    .filter(|&i| !d.resolved_mode_at(i, now).is_fully_active())
                    .count() as u32;
                if standby_ways > 0 {
                    extra += d.cfg.wake_settle_cycles;
                    tag_probes += standby_ways;
                    self.stats.wake_stall_cycles +=
                        Cycles::new(u64::from(d.cfg.wake_settle_cycles));
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
        // extra latency is charged beyond the stalls above. A line without
        // decay stays `Active`, so its refill settles nothing.
        let woke = match self.decay.as_mut() {
            Some(d) => d.refill(&mut self.stats, victim, now),
            None => false,
        };
        self.slab.tag[victim] = tag;
        self.slab.state[victim] = STATE_VALID;
        self.slab.set_dirty(victim, kind == AccessKind::Write);
        self.slab.lru_stamp[victim] = stamp;
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
    /// `Active`, counters are never consulted, and there are no due lists —
    /// a hit is just LRU and dirty-bit maintenance.
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
        let (tag, set) = self.split(addr);
        self.set_range(set)
            .any(|i| self.slab.tag[i] == tag && self.slab.state[i] == STATE_VALID)
    }

    /// Read-only view of line `index`'s internal state (way-major order:
    /// line `set * assoc + way`), for the model checker and white-box
    /// tests. A line of a cache without decay reads as `Active` since
    /// cycle 0 with counter 0. Panics if `index` is out of range.
    pub fn line_view(&self, index: usize) -> LineView {
        let (mode, mode_since, local_counter) = match &self.decay {
            Some(d) => (d.mode[index], d.mode_since[index], d.local_counter(index)),
            None => (LineMode::Active, 0, 0),
        };
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
            mode,
            mode_since,
            local_counter,
            lru_stamp: self.slab.lru_stamp[index],
        }
    }

    /// Current number of lines whose mode would be `Standby` at `now`
    /// (resolves transitions read-only; intended for tests and probes, not
    /// the hot path).
    pub fn standby_line_count(&self, now: u64) -> usize {
        self.decay.as_ref().map_or(0, |d| {
            d.mode
                .iter()
                .filter(|mode| match **mode {
                    LineMode::Standby => true,
                    LineMode::GoingToSleep { until } => now >= until,
                    _ => false,
                })
                .count()
        })
    }

    /// Checks that the due lists agree with the decay state's derived
    /// deadlines: each list holds exactly the lines whose wrap maps to it;
    /// under `noaccess` every live line is listed at exactly the wrap its
    /// counter saturates at (a saturated line still waking at the next
    /// wrap) and no sleeping line is listed; under `simple`, whose flush
    /// falls on every fourth wrap, no line is listed. (Transition expiries
    /// are resolved lazily and never listed — see `DecayState::due`.)
    /// This is the audit-side net for dropped or stale reschedules (the
    /// `wheel-bug` mutation smoke). A cache without decay has no schedule
    /// and always passes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first drift found.
    pub fn schedule_coherence(&self) -> Result<(), String> {
        match &self.decay {
            Some(d) => d.schedule_coherence(self.clock),
            None => Ok(()),
        }
    }

    /// Brings the mode-cycle integrals up to the later of `now` and the
    /// cache's clock (the latest cycle it has seen) for every line. Call
    /// at simulation end (or before re-pricing leakage mid-run).
    ///
    /// A cache without decay does this in O(1): its lines are `Active`
    /// from cycle 0, so its integral is `lines × t` for the latest cycle
    /// `t` it has been closed at.
    pub fn snapshot(&mut self, now: u64) {
        self.close(now);
    }

    /// [`Cache::snapshot`] at end of run: additionally records the
    /// finalization cycle so the line-cycle conservation law
    /// (`mode_cycles.total() == num_lines × cycle`) becomes checkable.
    pub fn finalize(&mut self, now: u64) {
        self.finalized_at = Some(self.close(now));
    }

    /// The body of [`Cache::snapshot`]; returns the cycle it closed at.
    fn close(&mut self, now: u64) -> u64 {
        let at = now.max(self.clock);
        match self.decay.as_mut() {
            Some(d) => {
                for i in 0..self.lines {
                    d.settle_line(&mut self.stats, i, at);
                }
            }
            None => {
                // `undecayed-close-bug` (CI mutation smoke only): close at
                // the cycle asked for, ignoring accesses after it.
                #[cfg(mutant = "undecayed-close-bug")]
                let at = now;
                let total = Cycles::new(self.lines as u64 * at);
                let active = &mut self.stats.mode_cycles.active;
                *active = (*active).max(total);
            }
        }
        at
    }

    /// The cycle the cache was last finalized at, if no access or time
    /// advance has happened since.
    pub fn finalized_at(&self) -> Option<u64> {
        self.finalized_at
    }

    /// Audits this cache's statistics against every per-cache conservation
    /// law (see [`crate::audit`]), plus the due-list schedule-coherence
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns the [`audit::AuditReport`](crate::audit::AuditReport) listing
    /// every violated law.
    pub fn audit(&self) -> Result<(), crate::audit::AuditReport> {
        let mut report = crate::audit::AuditReport::new();
        report.absorb(
            "cache",
            crate::audit::check_cache_stats(
                &self.stats,
                self.lines as u64,
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

    /// Steps the clock one cycle at a time from `from` to `from + cycles`.
    fn run_idle(cache: &mut Cache, from: u64, cycles: u64) -> u64 {
        for t in from..from + cycles {
            cache.advance_to(t + 1);
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
        // The conservation law is stated against the cycle finalize
        // actually integrated to.
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

    #[test]
    fn undecayed_close_covers_an_access_after_the_cycle_asked_for() {
        // Regression: a cache without decay never moved its clock, so a
        // finalize below its last access closed every line at the cycle
        // asked for except the refilled one, and the line-cycle audit
        // failed. The close must cover every access the cache has seen.
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), None).unwrap();
        c.access(0x1000, AccessKind::Read, 100);
        c.finalize(50);
        c.audit().expect("the close covers the access at cycle 100");
        assert_eq!(c.clock(), 100);
        assert_eq!(c.finalized_at(), Some(100));
    }

    #[test]
    fn undecayed_lines_are_active_from_cycle_zero() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way(), None).unwrap();
        c.access(0x1000, AccessKind::Write, 70);
        c.snapshot(200);
        let lines = c.config().num_lines() as u64;
        assert_eq!(c.stats().mode_cycles.active, Cycles::new(lines * 200));
        assert_eq!(c.stats().mode_cycles.total(), Cycles::new(lines * 200));
        // A close below an earlier one takes nothing back.
        c.finalize(150);
        assert_eq!(c.stats().mode_cycles.total(), Cycles::new(lines * 200));
        // 0x1000 is set 64, so way 0 of that set is line 128.
        let v = c.line_view(128);
        assert_eq!(v.data, LineDataView::Dirty);
        assert_eq!(
            (v.mode, v.mode_since, v.local_counter),
            (LineMode::Active, 0, 0)
        );
    }
}
