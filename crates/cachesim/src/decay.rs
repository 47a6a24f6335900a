//! Decay machinery: per-line modes, hierarchical counters, and policies.
//!
//! Both techniques in the study deactivate idle lines using the counter
//! scheme of Kaxiras et al. (cache decay): a single **global counter**
//! counts from zero to one quarter of the decay interval and wraps; on each
//! wrap every line's **two-bit counter** increments; a line whose two-bit
//! counter saturates has been idle for the full interval and is deactivated.
//! Any access to a line resets its two-bit counter. This is the `noaccess`
//! policy of the drowsy paper; the `simple` policy instead flushes *all*
//! lines to standby every interval regardless of history.
//!
//! That per-wrap increment is the *hardware model*; the simulator realizes
//! it event-driven. [`crate::Cache`] derives each two-bit counter from the
//! wrap count on demand and schedules every line's saturation cycle on a
//! timing wheel ([`crate::TimingWheel`]), so no code here — or anywhere on
//! the hot path — walks all lines at a wrap. The retained
//! [`crate::ReferenceCache`] keeps the literal sweep as the executable
//! specification.

use serde::{Deserialize, Serialize};
use units::{Cycles, PerCycle};

/// What happens to a line's contents in standby mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StandbyBehavior {
    /// State-preserving standby (drowsy, RBB): data survives and an access
    /// is a *slow hit* costing a wake-up, never an L2 fetch.
    Preserving,
    /// Non-state-preserving standby (gated-V_ss): data is lost; an access to
    /// a line whose data decayed is an *induced miss* requiring an L2 fetch,
    /// and a dirty line must be written back before deactivation.
    Losing,
}

/// When lines are put into standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecayPolicy {
    /// Deactivate a line once it has been idle for the full decay interval
    /// (per-line two-bit counters; the drowsy paper's `noaccess`).
    NoAccess,
    /// Deactivate *every* line each time the full interval elapses
    /// (the drowsy paper's `simple` policy — no per-line history).
    Simple,
}

/// Full decay configuration for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DecayConfig {
    /// The decay interval in cycles (the drowsy paper's *update window*).
    pub interval_cycles: u64,
    /// Deactivation policy.
    pub policy: DecayPolicy,
    /// Whether tags decay along with data (paper §2.3 and §5.3: both
    /// techniques decay the tags by default — *drowsy tags*).
    pub tags_decay: bool,
    /// What standby does to the data.
    pub behavior: StandbyBehavior,
    /// Settling time into low-leakage mode (Table 1: 3 cycles for drowsy,
    /// 30 for gated-V_ss). The line keeps leaking at the active rate while
    /// settling.
    pub sleep_settle_cycles: u32,
    /// Settling time back to full power (Table 1: 3 cycles for both).
    pub wake_settle_cycles: u32,
}

impl DecayConfig {
    /// The decay interval as a typed cycle count.
    pub fn interval(&self) -> Cycles {
        Cycles::new(self.interval_cycles)
    }

    /// Decay sweeps per cycle: the global counter fires four times per
    /// interval, so the sweep rate is `4 / interval`.
    pub fn sweep_rate(&self) -> PerCycle {
        PerCycle::rate(4, self.interval())
    }

    /// Quarter of the decay interval — the global counter's period.
    pub fn quarter_interval(&self) -> u64 {
        // A deliberately seeded knee mutation for CI's fidelity smoke
        // check: giving the global counter the FULL interval as its wrap
        // period makes every line decay after 4x the nominal idle time.
        // Timing stays self-consistent (the conservation audit cannot see
        // it), but every figure's numbers shift and the per-benchmark best
        // intervals move by two powers of two — exactly what the
        // prediction-vs-simulation oracle and the golden-data suite exist
        // to catch. Never enable outside that check.
        #[cfg(mutant = "seeded-knee-bug")]
        {
            self.interval_cycles.max(1)
        }
        #[cfg(not(mutant = "seeded-knee-bug"))]
        {
            (self.interval_cycles / 4).max(1)
        }
    }
}

/// Power mode of one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LineMode {
    /// Fully powered; normal access latency; full leakage.
    Active,
    /// Transitioning into standby; still leaking at the active rate until
    /// `until` (absolute cycle).
    GoingToSleep {
        /// Cycle at which the low-leakage mode is reached.
        until: u64,
    },
    /// In low-leakage standby.
    Standby,
    /// Transitioning back to full power; accessible at `until`.
    Waking {
        /// Cycle at which the line is fully awake.
        until: u64,
    },
}

impl LineMode {
    /// Whether the line is saving leakage in this mode.
    pub fn is_saving(&self) -> bool {
        matches!(self, LineMode::Standby)
    }

    /// Whether the line's data can be read at normal latency.
    pub fn is_fully_active(&self) -> bool {
        matches!(self, LineMode::Active)
    }
}

/// The hierarchical counter state shared by a cache's lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalCounter {
    period: u64,
    value: u64,
    /// Count of global-counter wraps (each wrap triggers a local-counter
    /// sweep; used for counter-energy accounting).
    pub wraps: u64,
}

impl GlobalCounter {
    /// A counter with the given wrap period (quarter interval).
    pub fn new(period: u64) -> Self {
        GlobalCounter {
            period: period.max(1),
            value: 0,
            wraps: 0,
        }
    }

    /// Advances one cycle; returns `true` on wrap (local counters must then
    /// be swept).
    pub fn tick(&mut self) -> bool {
        self.value += 1;
        if self.value >= self.period {
            self.value = 0;
            self.wraps += 1;
            true
        } else {
            false
        }
    }

    /// The wrap period.
    pub fn period(&self) -> u64 {
        self.period
    }
}

/// Maximum value of the per-line two-bit counter; reaching it means the line
/// has been idle for the full decay interval.
pub const LOCAL_COUNTER_MAX: u8 = 3;

/// Shortest decay interval the machinery accepts. The hierarchical counter
/// scheme needs at least one cycle per quarter-interval wrap, so intervals
/// below four cycles would alias several wraps onto one cycle;
/// [`crate::Cache::set_decay_interval`] clamps to this floor.
///
/// The timing wheel that realizes decay deadlines ticks at single-cycle
/// granularity, so it imposes no floor of its own: this constant bounds the
/// *counter arithmetic* (a wrap period of at least one cycle), not the
/// scheduler. All wheel deadlines land on exact cycles regardless of the
/// interval chosen.
pub const MIN_DECAY_INTERVAL_CYCLES: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_counter_wraps_at_period() {
        let mut c = GlobalCounter::new(4);
        assert!(!c.tick());
        assert!(!c.tick());
        assert!(!c.tick());
        assert!(c.tick());
        assert_eq!(c.wraps, 1);
    }

    #[test]
    fn quarter_interval_floors_at_one() {
        let cfg = DecayConfig {
            interval_cycles: 2,
            policy: DecayPolicy::NoAccess,
            tags_decay: true,
            behavior: StandbyBehavior::Losing,
            sleep_settle_cycles: 30,
            wake_settle_cycles: 3,
        };
        assert_eq!(cfg.quarter_interval(), 1);
    }

    #[test]
    fn four_wraps_equal_one_interval() {
        let cfg = DecayConfig {
            interval_cycles: 4096,
            policy: DecayPolicy::NoAccess,
            tags_decay: true,
            behavior: StandbyBehavior::Preserving,
            sleep_settle_cycles: 3,
            wake_settle_cycles: 3,
        };
        let mut c = GlobalCounter::new(cfg.quarter_interval());
        let mut wraps = 0;
        for _ in 0..cfg.interval_cycles {
            if c.tick() {
                wraps += 1;
            }
        }
        assert_eq!(
            wraps, 4,
            "a line idle for the whole interval sees 4 local increments"
        );
    }

    #[test]
    fn standby_is_the_only_saving_mode() {
        assert!(LineMode::Standby.is_saving());
        assert!(!LineMode::Active.is_saving());
        assert!(!LineMode::GoingToSleep { until: 5 }.is_saving());
        assert!(!LineMode::Waking { until: 5 }.is_saving());
    }
}
