//! Per-cache statistics, including the mode-cycle integrals the leakage
//! accounting consumes.
//!
//! The counters obey conservation laws the energy comparison depends on —
//! every access lands in exactly one of `hits`/`slow_hits`/`misses()`,
//! the [`ModeCycles`] buckets partition every line-cycle after
//! [`crate::Cache::finalize`], and `wakes` never exceeds `sleeps`. These
//! laws are enforced after every simulation; see the `audit` module for
//! the full list.

use serde::{Deserialize, Serialize};
use units::{Cycles, PerCycle};

/// Cycle-weighted occupancy of each line mode, settled lazily per line as
/// events touch it and brought fully current by [`crate::Cache::finalize`].
/// `standby` cycles are the gross leakage-saving opportunity;
/// `active + transitioning` leak at the full rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeCycles {
    /// Line-cycles spent fully active.
    pub active: Cycles,
    /// Line-cycles spent in low-leakage standby.
    pub standby: Cycles,
    /// Line-cycles spent settling (either direction) — leaking at the
    /// active rate but unavailable for normal access.
    pub transitioning: Cycles,
}

impl ModeCycles {
    /// Total line-cycles observed.
    pub fn total(&self) -> Cycles {
        self.active + self.standby + self.transitioning
    }

    /// The *turnoff ratio*: fraction of line-cycles spent saving leakage
    /// (paper §2.3 — savings are proportional to this).
    pub fn turnoff_ratio(&self) -> f64 {
        self.standby.ratio_of(self.total())
    }
}

/// Event counts for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Hits on fully-active lines.
    pub hits: u64,
    /// Hits on standby/waking lines (state-preserving techniques only) —
    /// the drowsy paper's *slow hits*.
    pub slow_hits: u64,
    /// Misses whose data was discarded by decay (would have hit without it).
    pub induced_misses: u64,
    /// Misses that would have occurred regardless of decay.
    pub true_misses: u64,
    /// Dirty evictions (writebacks to the next level) from replacement.
    pub writebacks: u64,
    /// Dirty writebacks forced by deactivating a dirty line under a
    /// non-state-preserving technique.
    pub decay_writebacks: u64,
    /// Lines put into standby.
    pub sleeps: u64,
    /// Lines woken from standby.
    pub wakes: u64,
    /// Extra cycles added to accesses by wake-ups and tag wake-ups.
    pub wake_stall_cycles: Cycles,
    /// Tag-only probes (waking/checking decayed tags).
    pub tag_probes: u64,
    /// Local (two-bit) counter increments performed.
    pub local_counter_ticks: u64,
    /// Global counter wraps.
    pub global_counter_wraps: u64,
    /// Mode-cycle integrals.
    pub mode_cycles: ModeCycles,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total misses of any kind.
    pub fn misses(&self) -> u64 {
        self.induced_misses + self.true_misses
    }

    /// Miss ratio over all accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            // lint: allow(lossy-cast): event counts are exact in f64
            {
                self.misses() as f64 / self.accesses() as f64
            }
        }
    }

    /// Rate of decay-induced misses per simulated cycle — the
    /// dimensionally honest way to compare interference across runs of
    /// different lengths.
    pub fn induced_miss_rate(&self, span: Cycles) -> PerCycle {
        PerCycle::rate(self.induced_misses, span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turnoff_ratio_bounds() {
        let mc = ModeCycles {
            active: Cycles::new(25),
            standby: Cycles::new(75),
            transitioning: Cycles::ZERO,
        };
        assert!((mc.turnoff_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(ModeCycles::default().turnoff_ratio(), 0.0);
    }

    #[test]
    fn miss_ratio_counts_both_kinds() {
        let s = CacheStats {
            reads: 80,
            writes: 20,
            induced_misses: 5,
            true_misses: 5,
            ..CacheStats::default()
        };
        assert!((s.miss_ratio() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn zero_access_miss_ratio_is_zero() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn induced_miss_rate_is_per_cycle() {
        let s = CacheStats {
            induced_misses: 8,
            ..CacheStats::default()
        };
        let r = s.induced_miss_rate(Cycles::new(1000));
        assert!((r.get() - 0.008).abs() < 1e-15);
        assert_eq!(s.induced_miss_rate(Cycles::ZERO), PerCycle::ZERO);
    }
}
