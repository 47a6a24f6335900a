//! Exhaustive model checking of the per-line leakage-mode state machine.
//!
//! The decay machinery in [`crate::cache`] is a concurrent product of small
//! per-line state machines (Active / GoingToSleep / Standby / Waking × a
//! two-bit idle counter × data state) driven by the hierarchical counter's
//! quarter-interval wraps. Its unit tests probe *chosen* scenarios; this
//! module instead
//! enumerates **every reachable state** of a small cache under a complete
//! event alphabet and asserts the structural invariants on each transition:
//!
//! 1. **Dirty data is never lost silently** — under non-state-preserving
//!    standby, every `Dirty → Ghost` step writes back (and is counted), and
//!    no deactivated line still claims valid data.
//! 2. **`wakes ≤ sleeps`** — a line cannot be woken more often than it was
//!    put to sleep.
//! 3. **Mode-cycle partition closure** — at any instant, finalizing the
//!    cache accounts every line-cycle to exactly one bucket
//!    (`total == num_lines × cycle`).
//! 4. **No transition leaves the two-bit counter stale** — in particular,
//!    [`crate::Cache::set_decay_interval`] must restart every line's idle
//!    history (the historical stale-counter bug, reproducible here by
//!    building with `--cfg mutant="pre-fix-stale-counter"`).
//! 5. **Behavior separation** — preserving standby never induces a miss;
//!    losing standby never produces a slow hit.
//! 6. **Schedule coherence** — after every transition the timing wheel's
//!    pending events agree with the line slab's derived deadlines
//!    ([`crate::Cache::schedule_coherence`]): no live line is missing its
//!    decay event, none sits at a stale cycle, and every unexpired
//!    transition has its expiry scheduled.
//! 7. **Cross-set independence** (multi-set geometries) — a set's decay
//!    and replacement behavior is a function of that set's own state and
//!    the global clock only. Each explored node carries one *shadow*
//!    single-set cache per set, fed exactly the accesses that index into
//!    it; after every event the main cache's per-set canonical projection
//!    must equal its shadow's, and every access must return a bitwise
//!    identical [`crate::AccessResult`] on both. This is what licenses
//!    the leakage harness to reason about probe timings set-by-set.
//!
//! The exploration is a breadth-first search over *canonical* states, so a
//! reported violation comes with a **minimal event trace** from the reset
//! state. Timing is normalized — every event either happens at the current
//! cycle or advances time by exactly one quarter interval (which exceeds
//! every settle time) — so the reachable space is finite and small
//! (hundreds of states per configuration).
//!
//! The canonical key quotients two symmetries so multi-set spaces stay
//! small: absolute LRU stamps collapse to per-set ranks, and resident tags
//! collapse to a per-set relabeling by first appearance in way order
//! (empty lines' tags are erased entirely). Tag relabeling is sound
//! because the event alphabet is closed under tag permutations within a
//! set's residue class, every invariant is tag-permutation-invariant, and
//! the frontier stores *concrete* caches — the quotient only prunes
//! duplicate exploration, so counterexample traces stay literally
//! replayable. Way-order symmetry is deliberately **not** quotiented: LRU
//! stamps can tie after decay, and merging tied orders would be unsound.
//!
//! [`explore_with_switches`] additionally puts mid-run decay-interval
//! *switching* in the alphabet (the adaptive controllers' move, over the
//! small [`SWITCH_INTERVALS`] ladder), so every invariant is also checked
//! across interval changes from every reachable state — not just the
//! chosen scenarios the proptest/oracle suites drive. [`explore_sets`]
//! generalizes both to multi-set geometries; [`check_all_two_set`] is the
//! 2-set analogue of [`check_all`].

use std::collections::HashMap;
use std::fmt;

use crate::cache::{Cache, LineDataView, LineView};
use crate::config::CacheConfig;
use crate::decay::{DecayConfig, DecayPolicy, LineMode, StandbyBehavior, LOCAL_COUNTER_MAX};
use crate::AccessKind;

/// Decay interval used by the checker: the quarter interval (64) exceeds
/// the longest settle time in Table 1 (30 cycles for gated sleep), so one
/// `IdleQuarter` event always completes every pending transition.
pub const CHECK_INTERVAL_CYCLES: u64 = 256;

/// Cap on explored states per configuration; the reachable spaces are a few
/// hundred states, so hitting this means the abstraction broke, not that
/// the machine grew.
pub const MAX_STATES: usize = 100_000;

/// The decay intervals a switching exploration toggles between, cycles.
/// Every quarter (64, 128, 256) exceeds the longest Table-1 settle time
/// (30 cycles), preserving the timing normalization: one [`Event::IdleQuarter`]
/// under *any* alphabet interval still completes every pending transition.
pub const SWITCH_INTERVALS: [u64; 3] = [CHECK_INTERVAL_CYCLES, 512, 1024];

/// One step of the event alphabet the checker drives the cache with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Advance time by one quarter interval (one global-counter wrap; all
    /// pending transitions settle).
    IdleQuarter,
    /// Read tag `0..num_tags` at the current cycle.
    Read(u8),
    /// Write tag `0..num_tags` at the current cycle.
    Write(u8),
    /// Switch the decay interval to the given cycle count mid-run (the
    /// adaptive-controller move; restarts the idle clock).
    SwitchInterval(u64),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::IdleQuarter => write!(f, "idle-quarter"),
            Event::Read(t) => write!(f, "read {}", char::from(b'A' + t)),
            Event::Write(t) => write!(f, "write {}", char::from(b'A' + t)),
            Event::SwitchInterval(cycles) => write!(f, "switch-interval {cycles}"),
        }
    }
}

/// A violated invariant with the shortest event trace that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Which invariant failed, with the offending values.
    pub violation: String,
    /// Minimal event sequence from the reset state to the violation.
    pub trace: Vec<Event>,
    /// The configuration under which it was found.
    pub config: DecayConfig,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariant violated under {:?}/{:?} (interval {}): {}",
            self.config.policy, self.config.behavior, self.config.interval_cycles, self.violation
        )?;
        writeln!(f, "minimal trace ({} events):", self.trace.len())?;
        for (i, e) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:>3}. {e}")?;
        }
        Ok(())
    }
}

/// Summary of one exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Distinct canonical states reached.
    pub states: usize,
    /// Transitions taken (states × events, minus duplicates pruned late).
    pub transitions: usize,
    /// Ways per set in the cache explored.
    pub assoc: usize,
    /// Sets in the cache explored.
    pub sets: usize,
}

/// Canonical abstraction of one reachable cache state. Absolute cycle
/// numbers, stats, raw LRU stamps, and concrete tag values are erased
/// (stamps become per-set ranks, tags a per-set relabeling); what remains
/// determines all future behavior of the machine under the normalized
/// event alphabet, up to tag permutation within each set's residue class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    /// Per line, set-major: (mode kind, settle cycles still pending at
    /// the current clock, two-bit counter, data state, relabeled tag,
    /// LRU rank within the set).
    lines: Vec<(u8, u64, u8, u8, u8, u8)>,
    /// Global-counter wrap phase within the full interval (drives the
    /// `simple` policy's full-interval flush). Taken from
    /// [`Cache::wrap_phase`], which restarts on an interval switch — the
    /// cumulative stats counter would alias states whose flush schedules
    /// differ after a mid-run switch.
    wrap_phase: u64,
    /// The decay interval currently in force, cycles. Fixed-interval
    /// explorations carry a constant here; switching explorations need it
    /// because the pending-settle residues (absolute cycles) interact with
    /// the quarter length an [`Event::IdleQuarter`] advances by.
    interval: u64,
}

fn data_code(d: LineDataView) -> u8 {
    match d {
        LineDataView::Empty => 0,
        LineDataView::Clean => 1,
        LineDataView::Dirty => 2,
        LineDataView::Ghost => 3,
    }
}

fn mode_code(mode: LineMode, now: u64) -> (u8, u64) {
    match mode {
        LineMode::Active => (0, 0),
        LineMode::GoingToSleep { until } if now > until => (2, 0),
        LineMode::GoingToSleep { until } => (1, until - now),
        LineMode::Standby => (2, 0),
        LineMode::Waking { until } if now > until => (0, 0),
        LineMode::Waking { until } => (3, until - now),
    }
}

/// Canonical projection of one set: per way, (mode kind, pending settle,
/// two-bit counter, data state, relabeled tag, LRU rank within the set).
///
/// Tags are relabeled densely by first appearance in way order; empty
/// lines' tags are erased to a sentinel (an empty line's stale tag can
/// never match an access, so it cannot influence future behavior). LRU
/// ranks are computed within the set, so the projection of set `s` of a
/// multi-set cache is directly comparable to the projection of a
/// single-set shadow cache fed the same per-set access stream.
fn set_projection(cache: &Cache, set: usize) -> Vec<(u8, u64, u8, u8, u8, u8)> {
    let now = cache.clock();
    let assoc = cache.config().assoc;
    let base = set * assoc;
    let views: Vec<LineView> = (base..base + assoc).map(|i| cache.line_view(i)).collect();
    // LRU rank: position of each way's stamp in the set's sorted order.
    let mut stamps: Vec<u64> = views.iter().map(|v| v.lru_stamp).collect();
    stamps.sort_unstable();
    let mut tag_ids: Vec<u64> = Vec::new();
    views
        .iter()
        .map(|v| {
            let (mode, pending) = mode_code(v.mode, now);
            let rank = stamps.iter().position(|&s| s == v.lru_stamp).unwrap_or(0) as u8;
            let tag_code = if v.data == LineDataView::Empty {
                u8::MAX
            } else {
                let id = tag_ids.iter().position(|&t| t == v.tag).unwrap_or_else(|| {
                    tag_ids.push(v.tag);
                    tag_ids.len() - 1
                });
                id as u8
            };
            (
                mode,
                pending,
                v.local_counter,
                data_code(v.data),
                tag_code,
                rank,
            )
        })
        .collect()
}

fn canonical_key(cache: &Cache) -> Key {
    let num_sets = cache.config().num_sets();
    let lines = (0..num_sets)
        .flat_map(|s| set_projection(cache, s))
        .collect();
    Key {
        lines,
        wrap_phase: cache.wrap_phase(),
        interval: current_interval(cache),
    }
}

/// The decay interval currently configured (0 when decay is disabled —
/// unreachable in this checker, which always configures decay).
fn current_interval(cache: &Cache) -> u64 {
    cache.decay_config().map(|d| d.interval_cycles).unwrap_or(0)
}

/// Observable deltas an event is allowed to produce, captured before/after.
#[derive(Debug, Clone)]
struct Observation {
    views_before: Vec<LineView>,
    decay_writebacks_before: u64,
}

fn observe(cache: &Cache) -> Observation {
    let n = cache.config().num_lines();
    Observation {
        views_before: (0..n).map(|i| cache.line_view(i)).collect(),
        decay_writebacks_before: cache.stats().decay_writebacks,
    }
}

/// One explored node: the cache under test plus (for multi-set
/// geometries) one isolated single-set shadow per set, fed exactly the
/// accesses that index into that set. Shadows are the oracle for the
/// cross-set-independence invariant; for single-set exploration the
/// shadow vector is empty and the machine degenerates to a bare cache.
#[derive(Clone)]
struct Machine {
    main: Cache,
    shadows: Vec<Cache>,
}

impl Machine {
    fn new(decay: DecayConfig, num_sets: usize, assoc: usize) -> Machine {
        let cfg = CacheConfig {
            size_bytes: 64 * assoc * num_sets,
            assoc,
            line_bytes: 64,
            hit_latency: 1,
        };
        // lint: allow(unwrap): checker geometry is a fixed valid constant
        let main = Cache::new(cfg, Some(decay)).expect("checker geometry is valid");
        let shadows = if num_sets > 1 {
            let shadow_cfg = CacheConfig {
                size_bytes: 64 * assoc,
                assoc,
                line_bytes: 64,
                hit_latency: 1,
            };
            (0..num_sets)
                // lint: allow(unwrap): checker geometry is a fixed valid constant
                .map(|_| Cache::new(shadow_cfg, Some(decay)).expect("checker geometry is valid"))
                .collect()
        } else {
            Vec::new()
        };
        Machine { main, shadows }
    }

    /// Applies `event` under the normalized timing, mirroring accesses
    /// into the owning set's shadow. Returns a violation description if
    /// the shadow's [`crate::AccessResult`] diverges from the main
    /// cache's — the direct form of cross-set interference.
    fn apply(&mut self, event: Event) -> Option<String> {
        let quarter = self
            .main
            .decay_config()
            .map(|d| d.quarter_interval())
            .unwrap_or(1);
        match event {
            Event::IdleQuarter => {
                let now = self.main.clock() + quarter;
                self.main.advance_to(now);
                for shadow in &mut self.shadows {
                    shadow.advance_to(now);
                }
            }
            Event::Read(t) | Event::Write(t) => {
                let kind = match event {
                    Event::Read(_) => AccessKind::Read,
                    _ => AccessKind::Write,
                };
                let now = self.main.clock();
                // Tag t indexes set t % num_sets of the main cache and
                // maps to tag t of that set's single-set shadow — the
                // same byte address works for both geometries.
                let addr = u64::from(t) * self.main.config().line_bytes as u64;
                let res = self.main.access(addr, kind, now);
                if !self.shadows.is_empty() {
                    let set = usize::from(t) % self.shadows.len();
                    let shadow_res = self.shadows[set].access(addr, kind, now);
                    if shadow_res != res {
                        return Some(format!(
                            "cross-set interference: {event} returned {res:?} on the \
                             {}-set cache but {shadow_res:?} on set {set}'s isolated shadow",
                            self.shadows.len()
                        ));
                    }
                }
            }
            Event::SwitchInterval(cycles) => {
                self.main.set_decay_interval(cycles);
                for shadow in &mut self.shadows {
                    shadow.set_decay_interval(cycles);
                }
            }
        }
        None
    }

    /// (7) Cross-set independence, state form: every set's canonical
    /// projection must match its isolated shadow's.
    fn independence_violation(&self) -> Option<String> {
        for (set, shadow) in self.shadows.iter().enumerate() {
            if shadow.wrap_phase() != self.main.wrap_phase() {
                return Some(format!(
                    "cross-set interference: shadow {set} wrap phase {} diverged from the \
                     main cache's {}",
                    shadow.wrap_phase(),
                    self.main.wrap_phase()
                ));
            }
            let main_proj = set_projection(&self.main, set);
            let shadow_proj = set_projection(shadow, 0);
            if main_proj != shadow_proj {
                return Some(format!(
                    "cross-set interference: set {set} reached {main_proj:?} but its \
                     isolated shadow (same per-set access stream) reached {shadow_proj:?}"
                ));
            }
        }
        None
    }
}

/// Checks every invariant on the post-state of one transition. Returns a
/// description of the first violation found.
fn check_invariants(cache: &Cache, obs: &Observation, decay: &DecayConfig) -> Option<String> {
    let stats = cache.stats();
    let now = cache.clock();
    let n = cache.config().num_lines();
    let views: Vec<LineView> = (0..n).map(|i| cache.line_view(i)).collect();

    // (2) Structural wake/sleep pairing.
    if stats.wakes > stats.sleeps {
        return Some(format!(
            "wakes ({}) exceeded sleeps ({}): a line was woken that was never put to sleep",
            stats.wakes, stats.sleeps
        ));
    }

    // (1) Non-state-preserving standby must not retain valid data, and
    // every dirty line it ghosts must be written back.
    if decay.behavior == StandbyBehavior::Losing {
        for (i, v) in views.iter().enumerate() {
            let off = !matches!(
                v.resolved_mode(now),
                LineMode::Active | LineMode::Waking { .. }
            );
            if off && matches!(v.data, LineDataView::Clean | LineDataView::Dirty) {
                return Some(format!(
                    "line {i} deactivated ({:?}) while still claiming valid data ({:?}): \
                     Active→Off without discarding/writing back",
                    v.resolved_mode(now),
                    v.data
                ));
            }
        }
        let dirty_ghosted = obs
            .views_before
            .iter()
            .zip(&views)
            .filter(|(b, a)| {
                b.data == LineDataView::Dirty && a.data == LineDataView::Ghost && b.tag == a.tag
            })
            .count() as u64;
        let wb_delta = stats.decay_writebacks - obs.decay_writebacks_before;
        if wb_delta != dirty_ghosted {
            return Some(format!(
                "{dirty_ghosted} dirty line(s) were ghosted but {wb_delta} decay writeback(s) \
                 were recorded: dirty data lost without writeback"
            ));
        }
    } else {
        // (5) Preserving standby can never induce a miss or ghost a line.
        if stats.induced_misses != 0 {
            return Some(format!(
                "state-preserving standby recorded {} induced miss(es)",
                stats.induced_misses
            ));
        }
        if let Some(i) = views.iter().position(|v| v.data == LineDataView::Ghost) {
            return Some(format!("line {i} became a ghost under preserving standby"));
        }
    }
    if decay.behavior == StandbyBehavior::Losing && stats.slow_hits != 0 {
        return Some(format!(
            "non-state-preserving standby recorded {} slow hit(s)",
            stats.slow_hits
        ));
    }

    // (4a) The two-bit counter stays in range and is reset by any access
    // that refilled or touched the line this cycle (hit/refill paths zero
    // it; wraps may since have advanced it, but never beyond saturation).
    for (i, v) in views.iter().enumerate() {
        if v.local_counter > LOCAL_COUNTER_MAX {
            return Some(format!(
                "line {i} two-bit counter out of range: {}",
                v.local_counter
            ));
        }
    }

    // (6) Schedule coherence: the wheel's pending events must match the
    // slab's derived deadlines from every reachable state (this is the
    // check that catches the `wheel-bug` dropped-reschedule mutation).
    if let Err(drift) = cache.schedule_coherence() {
        return Some(format!("decay schedule drift: {drift}"));
    }

    // (4b) Interval-change probe: from *any* reachable state, changing the
    // decay interval must restart every line's idle history. This is the
    // historical stale-counter bug; the `pre-fix-stale-counter` mutant reverts
    // the fix and this probe finds it with a minimal trace. The probe
    // quadruples the interval *currently in force* (which a switching
    // exploration may have moved off `decay.interval_cycles`), so it is
    // always a genuine change.
    let mut probe = cache.clone();
    probe.set_decay_interval(4 * current_interval(cache).max(1));
    for i in 0..n {
        let c = probe.line_view(i).local_counter;
        if c != 0 {
            return Some(format!(
                "set_decay_interval left line {i}'s two-bit counter stale at {c}: idle \
                 history must restart with the new interval"
            ));
        }
    }

    // (3) Mode-cycle partition closure: finalizing at any instant accounts
    // every line-cycle exactly once.
    let mut probe = cache.clone();
    probe.finalize(now);
    // lint: allow(unwrap): finalize was called on the probe two lines up
    let at = probe.finalized_at().expect("just finalized");
    let total = probe.stats().mode_cycles.total();
    let expected = units::Cycles::new(n as u64 * at);
    if total != expected {
        return Some(format!(
            "mode-cycle partition leak: buckets sum to {total} but {n} lines × {at} cycles \
             = {expected}"
        ));
    }
    None
}

/// Exhaustively explores one decay configuration on a single-set cache with
/// `assoc` ways and `num_tags` distinct tags in the event alphabet.
///
/// # Errors
///
/// Returns the minimal [`Counterexample`] if any invariant is violated.
///
/// # Panics
///
/// Panics if the state space exceeds [`MAX_STATES`] (an abstraction bug in
/// the checker itself, not a property of the machine).
pub fn explore(decay: DecayConfig, assoc: usize, num_tags: u8) -> Result<Report, Counterexample> {
    explore_with_switches(decay, assoc, num_tags, &[])
}

/// [`explore`] with mid-run decay-interval switching in the alphabet: at
/// any reachable state the checker may retune the interval to any entry of
/// `switch_intervals` (the adaptive-controller move), then keep driving
/// reads/writes/idle quarters. Closes the gap where switching correctness
/// had only chosen-scenario (proptest/oracle) coverage.
///
/// # Errors
///
/// Returns the minimal [`Counterexample`] if any invariant is violated.
///
/// # Panics
///
/// Panics if the state space exceeds [`MAX_STATES`] (an abstraction bug in
/// the checker itself, not a property of the machine).
pub fn explore_with_switches(
    decay: DecayConfig,
    assoc: usize,
    num_tags: u8,
    switch_intervals: &[u64],
) -> Result<Report, Counterexample> {
    explore_sets(decay, 1, assoc, num_tags, switch_intervals)
}

/// The multi-set generalization of [`explore_with_switches`]: explores a
/// `num_sets`-set, `assoc`-way cache. Alphabet tag `t` indexes set
/// `t % num_sets` (so tags spread round-robin over the sets, exactly like
/// consecutive line addresses). For `num_sets > 1` every node carries one
/// isolated single-set shadow per set and the cross-set-independence
/// invariant (7) is checked on every transition.
///
/// # Errors
///
/// Returns the minimal [`Counterexample`] if any invariant is violated.
///
/// # Panics
///
/// Panics if the state space exceeds [`MAX_STATES`] (an abstraction bug in
/// the checker itself, not a property of the machine).
pub fn explore_sets(
    decay: DecayConfig,
    num_sets: usize,
    assoc: usize,
    num_tags: u8,
    switch_intervals: &[u64],
) -> Result<Report, Counterexample> {
    let machine = Machine::new(decay, num_sets, assoc);

    let mut events = vec![Event::IdleQuarter];
    for t in 0..num_tags {
        events.push(Event::Read(t));
        events.push(Event::Write(t));
    }
    for &cycles in switch_intervals {
        events.push(Event::SwitchInterval(cycles));
    }

    // BFS. `nodes` stores the parent links for trace reconstruction; the
    // frontier carries the concrete machines (main cache + shadows).
    let mut nodes: Vec<(usize, Option<Event>)> = vec![(0, None)];
    let mut visited: HashMap<Key, usize> = HashMap::new();
    visited.insert(canonical_key(&machine.main), 0);
    let mut frontier: Vec<(usize, Machine)> = vec![(0, machine)];
    let mut transitions = 0usize;

    let trace_to = |nodes: &Vec<(usize, Option<Event>)>, mut idx: usize| -> Vec<Event> {
        let mut trace = Vec::new();
        while let (parent, Some(e)) = nodes[idx] {
            trace.push(e);
            idx = parent;
        }
        trace.reverse();
        trace
    };

    while let Some((node_idx, machine)) = frontier.pop() {
        for &event in &events {
            transitions += 1;
            let obs = observe(&machine.main);
            let mut next = machine.clone();
            let violation = next
                .apply(event)
                .or_else(|| next.independence_violation())
                .or_else(|| check_invariants(&next.main, &obs, &decay));
            if let Some(violation) = violation {
                let mut trace = trace_to(&nodes, node_idx);
                trace.push(event);
                return Err(Counterexample {
                    violation,
                    trace,
                    config: decay,
                });
            }
            if let std::collections::hash_map::Entry::Vacant(slot) =
                visited.entry(canonical_key(&next.main))
            {
                let idx = nodes.len();
                nodes.push((node_idx, Some(event)));
                slot.insert(idx);
                assert!(
                    nodes.len() <= MAX_STATES,
                    "state space exceeded {MAX_STATES}: checker abstraction is broken"
                );
                frontier.push((idx, next));
            }
        }
    }

    Ok(Report {
        states: nodes.len(),
        transitions,
        assoc,
        sets: num_sets,
    })
}

/// The four studied decay configurations (both policies × both standby
/// behaviors) with the paper's Table 1 settle times.
pub fn studied_configs() -> [DecayConfig; 4] {
    let base = |policy, behavior, sleep| DecayConfig {
        interval_cycles: CHECK_INTERVAL_CYCLES,
        policy,
        tags_decay: true,
        behavior,
        sleep_settle_cycles: sleep,
        wake_settle_cycles: 3,
    };
    [
        base(DecayPolicy::NoAccess, StandbyBehavior::Losing, 30),
        base(DecayPolicy::NoAccess, StandbyBehavior::Preserving, 3),
        base(DecayPolicy::Simple, StandbyBehavior::Losing, 30),
        base(DecayPolicy::Simple, StandbyBehavior::Preserving, 3),
    ]
}

/// Runs the exhaustive exploration for every studied configuration on both
/// a direct-mapped single line and a 2-way set (three tags, so replacement
/// pressure on valid lines is reachable).
///
/// # Errors
///
/// Returns the first minimal [`Counterexample`] found.
pub fn check_all() -> Result<Vec<Report>, Counterexample> {
    let mut reports = Vec::new();
    for decay in studied_configs() {
        reports.push(explore(decay, 1, 2)?);
        reports.push(explore(decay, 2, 3)?);
    }
    Ok(reports)
}

/// Runs the switching exploration ([`SWITCH_INTERVALS`] alphabet) for every
/// studied configuration on both geometries of [`check_all`]. The state
/// space is the fixed-interval one times the reachable (interval,
/// wrap-phase, counter-residue) cross products a mid-run switch creates.
///
/// # Errors
///
/// Returns the first minimal [`Counterexample`] found.
pub fn check_all_switching() -> Result<Vec<Report>, Counterexample> {
    let mut reports = Vec::new();
    for decay in studied_configs() {
        reports.push(explore_with_switches(decay, 1, 2, &SWITCH_INTERVALS)?);
        reports.push(explore_with_switches(decay, 2, 3, &SWITCH_INTERVALS)?);
    }
    Ok(reports)
}

/// Ceiling on the per-exploration state count of [`check_all_two_set`].
/// The per-set tag-relabeling quotient is what keeps the 2-set product
/// space this side of [`MAX_STATES`] (the worst geometry, drowsy at
/// 2×2-way, measures ~12k states); a breach means the canonical key
/// regressed (started distinguishing renamed tags again), not that the
/// machine legitimately grew.
pub const TWO_SET_STATE_CEILING: usize = 16_000;

/// Runs the exhaustive exploration for every studied configuration on two
/// 2-set geometries: direct-mapped with four tags (two per set, so both
/// sets see eviction pressure) and 2-way with three tags (two in set 0,
/// one in set 1 — full decay, LRU, and ghost dynamics per way; assoc-2
/// *eviction* pressure is the single-set suite's job, since richer
/// same-set alphabets blow the 2-set product space past [`MAX_STATES`]).
/// Invariant (7), cross-set independence, is live on every transition of
/// both.
///
/// # Errors
///
/// Returns the first minimal [`Counterexample`] found.
pub fn check_all_two_set() -> Result<Vec<Report>, Counterexample> {
    let mut reports = Vec::new();
    for decay in studied_configs() {
        reports.push(explore_sets(decay, 2, 1, 4, &[])?);
        reports.push(explore_sets(decay, 2, 2, 3, &[])?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(mutant = "pre-fix-stale-counter"))]
    #[test]
    fn exploration_is_finite_and_nontrivial() {
        let decay = studied_configs()[0];
        let report = explore(decay, 1, 2).expect("invariants hold");
        assert!(
            report.states > 20,
            "a 1-line losing cache has dozens of reachable states, got {}",
            report.states
        );
        assert!(report.transitions >= report.states);
    }

    #[cfg(not(mutant = "pre-fix-stale-counter"))]
    #[test]
    fn all_studied_configurations_satisfy_the_invariants() {
        match check_all() {
            Ok(reports) => {
                assert_eq!(reports.len(), 8);
                for r in &reports {
                    assert!(r.states > 10, "degenerate exploration: {r:?}");
                }
            }
            Err(ce) => panic!("model checker found a violation:\n{ce}"),
        }
    }

    #[cfg(not(mutant = "pre-fix-stale-counter"))]
    #[test]
    fn switching_explorations_satisfy_the_invariants() {
        match check_all_switching() {
            Ok(reports) => {
                assert_eq!(reports.len(), 8);
                for r in &reports {
                    assert!(r.states > 10, "degenerate exploration: {r:?}");
                }
            }
            Err(ce) => panic!("switching model checker found a violation:\n{ce}"),
        }
    }

    #[cfg(not(mutant = "pre-fix-stale-counter"))]
    #[test]
    fn switching_reaches_strictly_more_states() {
        // The switch alphabet must genuinely enlarge the reachable space
        // (otherwise the new events collapsed into aliases and the
        // exploration proves nothing new).
        let decay = studied_configs()[2]; // Simple policy: flush phase matters
        let fixed = explore(decay, 1, 2).expect("invariants hold");
        let switching =
            explore_with_switches(decay, 1, 2, &SWITCH_INTERVALS).expect("invariants hold");
        assert!(
            switching.states > fixed.states,
            "switching must reach more states: {} vs {}",
            switching.states,
            fixed.states
        );
    }

    #[cfg(not(mutant = "pre-fix-stale-counter"))]
    #[test]
    fn wrap_phase_restarts_on_switch_but_stats_accumulate() {
        // The canonical key must follow Cache::wrap_phase (the flush
        // schedule), not the cumulative stats counter: after a mid-run
        // switch the two diverge and only the former predicts the Simple
        // policy's full-interval flush.
        let decay = studied_configs()[2];
        let cfg = CacheConfig {
            size_bytes: 64,
            assoc: 1,
            line_bytes: 64,
            hit_latency: 1,
        };
        let mut cache = Cache::new(cfg, Some(decay)).expect("checker geometry is valid");
        let quarter = decay.quarter_interval();
        cache.advance_to(3 * quarter); // three wraps: phase 3
        assert_eq!(cache.wrap_phase(), 3);
        assert_eq!(cache.stats().global_counter_wraps % 4, 3);
        cache.set_decay_interval(2 * decay.interval_cycles);
        assert_eq!(cache.wrap_phase(), 0, "switch restarts the flush phase");
        assert_eq!(
            cache.stats().global_counter_wraps,
            3,
            "priced counter energy keeps accumulating across switches"
        );
    }

    #[cfg(not(mutant = "pre-fix-stale-counter"))]
    #[test]
    fn two_set_explorations_satisfy_the_invariants_under_the_state_ceiling() {
        match check_all_two_set() {
            Ok(reports) => {
                assert_eq!(reports.len(), 8);
                for r in &reports {
                    assert_eq!(r.sets, 2);
                    assert!(r.states > 10, "degenerate exploration: {r:?}");
                    // The explicit bound behind the per-set
                    // tag-relabeling quotient: if the canonical key
                    // regresses to distinguishing renamed tags, the
                    // product space blows past this long before
                    // MAX_STATES aborts the BFS.
                    assert!(
                        r.states <= TWO_SET_STATE_CEILING,
                        "canonical key stopped quotienting: {} states (ceiling {})",
                        r.states,
                        TWO_SET_STATE_CEILING
                    );
                }
            }
            Err(ce) => panic!("2-set model checker found a violation:\n{ce}"),
        }
    }

    #[cfg(not(mutant = "pre-fix-stale-counter"))]
    #[test]
    fn two_set_switching_exploration_is_green() {
        // Interval switching across a 2-set geometry: the stalest
        // interaction between the global counter restart and per-set
        // shadows. One configuration suffices (the full ladder is the
        // single-set suite's job); Simple/Losing has the richest flush
        // schedule.
        let decay = studied_configs()[2];
        let report = explore_sets(decay, 2, 1, 4, &SWITCH_INTERVALS).expect("invariants hold");
        assert_eq!(report.sets, 2);
        assert!(report.states > 10, "degenerate exploration: {report:?}");
    }

    #[cfg(not(mutant = "pre-fix-stale-counter"))]
    #[test]
    fn two_set_canonical_key_quotients_tag_renaming() {
        // Two caches whose resident tags differ only by a renaming
        // within the same set-residue class must collapse to one
        // canonical state.
        let decay = studied_configs()[0];
        let cfg = CacheConfig {
            size_bytes: 2 * 64,
            assoc: 1,
            line_bytes: 64,
            hit_latency: 1,
        };
        let mut a = Cache::new(cfg, Some(decay)).expect("checker geometry is valid");
        let mut b = Cache::new(cfg, Some(decay)).expect("checker geometry is valid");
        // Tags 0 and 2 both land in set 0 of a 2-set cache.
        a.access(0, AccessKind::Read, 0);
        b.access(2 * 64, AccessKind::Read, 0);
        assert_eq!(canonical_key(&a), canonical_key(&b));
        // But a *write* is not a renaming of a read: data states differ.
        let mut c = Cache::new(cfg, Some(decay)).expect("checker geometry is valid");
        c.access(2 * 64, AccessKind::Write, 0);
        assert_ne!(canonical_key(&a), canonical_key(&c));
    }

    /// With the stale-counter fix reverted, the checker must rediscover the
    /// historical bug — and because the interval-change probe runs on every
    /// state, the minimal trace is just the shortest path to a non-zero
    /// two-bit counter.
    #[cfg(mutant = "pre-fix-stale-counter")]
    #[test]
    fn checker_rediscovers_the_stale_counter_bug() {
        let ce = check_all().expect_err("reverted fix must be caught");
        assert!(
            ce.violation.contains("stale"),
            "wrong violation reported: {ce}"
        );
        assert!(
            !ce.trace.is_empty() && ce.trace.len() <= 4,
            "counterexample should be minimal, got {} events:\n{ce}",
            ce.trace.len()
        );
        println!("{ce}");
        // The switching exploration drives set_decay_interval as a plain
        // alphabet event, so it must rediscover the same bug.
        let ce = check_all_switching().expect_err("reverted fix must be caught while switching");
        assert!(
            ce.violation.contains("stale"),
            "wrong violation reported: {ce}"
        );
    }

    /// The 2-set geometry must rediscover the stale-counter bug too: the
    /// interval-change probe runs per line, so a second set gives the bug
    /// strictly more places to hide — none of which the relabeled
    /// canonical key may prune away.
    #[cfg(mutant = "pre-fix-stale-counter")]
    #[test]
    fn two_set_checker_rediscovers_the_stale_counter_bug() {
        let ce = check_all_two_set().expect_err("reverted fix must be caught at 2 sets");
        assert!(
            ce.violation.contains("stale"),
            "wrong violation reported: {ce}"
        );
        assert!(
            !ce.trace.is_empty() && ce.trace.len() <= 4,
            "counterexample should be minimal, got {} events:\n{ce}",
            ce.trace.len()
        );
    }

    #[test]
    fn counterexample_display_is_readable() {
        let ce = Counterexample {
            violation: "example".into(),
            trace: vec![Event::Read(0), Event::IdleQuarter, Event::Write(1)],
            config: studied_configs()[0],
        };
        let s = ce.to_string();
        assert!(s.contains("read A"));
        assert!(s.contains("idle-quarter"));
        assert!(s.contains("write B"));
    }
}
