//! Conservation audits over the cache accounting.
//!
//! The energy comparison the study makes (gated-V_ss vs. drowsy, §2.3)
//! rests on the simulator's bookkeeping being *exact*: every access must
//! land in exactly one outcome bucket, every line-cycle in exactly one
//! mode bucket, and every decay-forced writeback must be charged as L2
//! traffic. This module states those conservation laws as checkable
//! invariants and reports every violation it finds.
//!
//! The checks are cheap — O(1) over a finished [`CacheStats`] — and run
//! after every simulation, in every build.
//!
//! ## Enforced invariants
//!
//! 1. **Access conservation** — `reads + writes == hits + slow_hits +
//!    induced_misses + true_misses`: no reference may vanish from, or be
//!    double-counted in, the outcome buckets.
//! 2. **Line-cycle conservation** — after [`crate::Cache::finalize`],
//!    `mode_cycles.total() == num_lines × finalized_cycle`: the
//!    active/standby/transitioning integrals partition every line-cycle.
//! 3. **Transition pairing** — `sleeps ≥ wakes`: a line can only be
//!    woken out of a standby it was first put into, so wake (transition
//!    energy) events can never outnumber sleep events.
//! 4. **Writeback drainage** — every `decay_writebacks` event must have
//!    been handed to the energy accounting as a charged L2 access
//!    (checked at the [`crate::Hierarchy`] level).
//! 5. **No phantom decay** — a cache without decay machinery must report
//!    zero sleeps, wakes, slow hits, induced misses, decay writebacks,
//!    tag probes, and counter activity.
//! 6. **Schedule coherence** — the decay due lists must agree with the
//!    decay state's derived deadlines: every live line is listed at the
//!    wrap its counter saturates, each list holds exactly the lines whose
//!    wrap maps to it, and the `Simple` policy lists none (checked
//!    structurally by [`crate::Cache::schedule_coherence`], reported here
//!    as [`AuditViolation::DecayScheduleDrift`]).

use std::error::Error;
use std::fmt;

use units::Cycles;

use crate::stats::CacheStats;

/// One violated conservation law, with the numbers that broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditViolation {
    /// `reads + writes != hits + slow_hits + induced + true misses`.
    AccessCount {
        /// Total accesses (`reads + writes`).
        accesses: u64,
        /// Fast (and delayed-waking) hits.
        hits: u64,
        /// Slow hits on standby lines.
        slow_hits: u64,
        /// Misses of both kinds.
        misses: u64,
    },
    /// The mode-cycle integrals do not partition the run's line-cycles.
    ModeCycleTotal {
        /// Sum of the active/standby/transitioning buckets.
        total: Cycles,
        /// `num_lines × finalized_at`.
        expected: Cycles,
        /// Lines in the cache.
        num_lines: u64,
        /// The cycle the cache was finalized at.
        finalized_at: u64,
    },
    /// More wake transitions were charged than sleeps performed.
    WakesExceedSleeps {
        /// Lines put into standby.
        sleeps: u64,
        /// Wake transitions charged.
        wakes: u64,
    },
    /// Decay-forced writebacks were performed but never charged as L2
    /// accesses.
    UndrainedDecayWritebacks {
        /// Writebacks the decay machinery performed.
        performed: u64,
        /// Writebacks drained into the energy accounting.
        drained: u64,
    },
    /// A cache without decay machinery reported decay activity.
    PhantomDecayActivity {
        /// Sleeps + wakes + slow hits + induced misses + decay
        /// writebacks + tag probes + counter events observed.
        events: u64,
    },
    /// The decay due lists disagree with the decay state's derived
    /// deadlines (a decay reschedule was dropped or a stale entry kept).
    DecayScheduleDrift {
        /// Description of the first drift found.
        detail: String,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::AccessCount {
                accesses,
                hits,
                slow_hits,
                misses,
            } => write!(
                f,
                "access conservation: {accesses} accesses != {hits} hits + \
                 {slow_hits} slow hits + {misses} misses"
            ),
            AuditViolation::ModeCycleTotal {
                total,
                expected,
                num_lines,
                finalized_at,
            } => write!(
                f,
                "line-cycle conservation: mode-cycle total {total} != \
                 {num_lines} lines x cycle {finalized_at} = {expected}"
            ),
            AuditViolation::WakesExceedSleeps { sleeps, wakes } => write!(
                f,
                "transition pairing: {wakes} wakes charged against only {sleeps} sleeps"
            ),
            AuditViolation::UndrainedDecayWritebacks { performed, drained } => write!(
                f,
                "writeback drainage: {performed} decay writebacks performed, \
                 only {drained} charged as L2 accesses"
            ),
            AuditViolation::PhantomDecayActivity { events } => write!(
                f,
                "phantom decay: {events} decay events on a cache without decay machinery"
            ),
            AuditViolation::DecayScheduleDrift { detail } => {
                write!(f, "decay schedule drift: {detail}")
            }
        }
    }
}

/// Every violation found in one audit pass, with the cache (or hierarchy
/// level) each was found in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// `(context, violation)` pairs; context names the audited structure
    /// (e.g. `"l1d"`).
    pub violations: Vec<(String, AuditViolation)>,
}

impl AuditReport {
    /// A report with no violations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the audit passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Appends `violations` under `context`.
    pub fn absorb(&mut self, context: &str, violations: Vec<AuditViolation>) {
        self.violations
            .extend(violations.into_iter().map(|v| (context.to_string(), v)));
    }

    /// `Ok(())` if clean, `Err(self)` otherwise.
    pub fn into_result(self) -> Result<(), AuditReport> {
        if self.is_clean() {
            Ok(())
        } else {
            Err(self)
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} accounting violation(s):", self.violations.len())?;
        for (context, v) in &self.violations {
            write!(f, " [{context}] {v};")?;
        }
        Ok(())
    }
}

impl Error for AuditReport {}

/// Checks every per-cache conservation law on `stats`.
///
/// `finalized_at` is the cycle the cache's mode-cycle integrals were
/// brought up to by [`crate::Cache::finalize`] (pass `None` for a cache
/// that was never finalized — the line-cycle check is skipped, since the
/// integrals are only current up to each line's last touch). `has_decay`
/// selects between the decay invariants and the phantom-activity check.
pub fn check_cache_stats(
    stats: &CacheStats,
    num_lines: u64,
    finalized_at: Option<u64>,
    has_decay: bool,
) -> Vec<AuditViolation> {
    let mut violations = Vec::new();

    let accesses = stats.accesses();
    let accounted = stats.hits + stats.slow_hits + stats.misses();
    if accesses != accounted {
        violations.push(AuditViolation::AccessCount {
            accesses,
            hits: stats.hits,
            slow_hits: stats.slow_hits,
            misses: stats.misses(),
        });
    }

    if let Some(at) = finalized_at {
        let total = stats.mode_cycles.total();
        let expected = Cycles::new(num_lines * at);
        if total != expected {
            violations.push(AuditViolation::ModeCycleTotal {
                total,
                expected,
                num_lines,
                finalized_at: at,
            });
        }
    }

    if stats.wakes > stats.sleeps {
        violations.push(AuditViolation::WakesExceedSleeps {
            sleeps: stats.sleeps,
            wakes: stats.wakes,
        });
    }

    if !has_decay {
        let events = stats.sleeps
            + stats.wakes
            + stats.slow_hits
            + stats.induced_misses
            + stats.decay_writebacks
            + stats.tag_probes
            + stats.local_counter_ticks
            + stats.global_counter_wraps;
        if events != 0 {
            violations.push(AuditViolation::PhantomDecayActivity { events });
        }
    }

    violations
}

/// Checks the hierarchy-level writeback-drainage law: every decay-forced
/// writeback must have been charged to the energy accounting.
pub fn check_writeback_drainage(performed: u64, drained: u64) -> Vec<AuditViolation> {
    if performed != drained {
        vec![AuditViolation::UndrainedDecayWritebacks { performed, drained }]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModeCycles;

    fn consistent_stats() -> CacheStats {
        CacheStats {
            reads: 80,
            writes: 20,
            hits: 70,
            slow_hits: 10,
            induced_misses: 5,
            true_misses: 15,
            sleeps: 40,
            wakes: 30,
            mode_cycles: ModeCycles {
                active: Cycles::new(600),
                standby: Cycles::new(300),
                transitioning: Cycles::new(124),
            },
            ..CacheStats::default()
        }
    }

    #[test]
    fn clean_stats_pass_every_check() {
        let s = consistent_stats();
        assert!(check_cache_stats(&s, 1024, Some(1), true).is_empty());
    }

    #[test]
    fn lost_hit_trips_access_conservation() {
        let mut s = consistent_stats();
        s.hits -= 1; // one access vanished from the outcome buckets
        let v = check_cache_stats(&s, 1024, None, true);
        assert!(
            matches!(v.as_slice(), [AuditViolation::AccessCount { .. }]),
            "got {v:?}"
        );
    }

    #[test]
    fn lost_line_cycles_trip_mode_conservation() {
        let mut s = consistent_stats();
        s.mode_cycles.standby -= Cycles::new(7); // 7 line-cycles leaked out of the integral
        let v = check_cache_stats(&s, 1024, Some(1), true);
        assert!(
            matches!(v.as_slice(), [AuditViolation::ModeCycleTotal { .. }]),
            "got {v:?}"
        );
        // Unfinalized stats are exempt: the integrals are lazily resolved.
        assert!(check_cache_stats(&s, 1024, None, true).is_empty());
    }

    #[test]
    fn double_counted_wake_trips_transition_pairing() {
        let mut s = consistent_stats();
        s.wakes = s.sleeps + 1;
        let v = check_cache_stats(&s, 1024, None, true);
        assert!(
            matches!(v.as_slice(), [AuditViolation::WakesExceedSleeps { .. }]),
            "got {v:?}"
        );
    }

    #[test]
    fn undrained_writebacks_are_flagged() {
        let v = check_writeback_drainage(3, 1);
        assert!(
            matches!(
                v.as_slice(),
                [AuditViolation::UndrainedDecayWritebacks {
                    performed: 3,
                    drained: 1,
                }]
            ),
            "got {v:?}"
        );
        assert!(check_writeback_drainage(3, 3).is_empty());
    }

    #[test]
    fn decay_events_without_decay_are_flagged() {
        let mut s = consistent_stats();
        s.mode_cycles = ModeCycles::default();
        let v = check_cache_stats(&s, 1024, None, false);
        assert!(
            matches!(v.as_slice(), [AuditViolation::PhantomDecayActivity { .. }]),
            "got {v:?}"
        );
    }

    #[test]
    fn multiple_violations_all_reported() {
        let mut s = consistent_stats();
        s.hits -= 1;
        s.wakes = s.sleeps + 5;
        let v = check_cache_stats(&s, 1024, None, true);
        assert_eq!(v.len(), 2, "got {v:?}");
    }

    #[test]
    fn schedule_drift_formats_its_detail() {
        let v = AuditViolation::DecayScheduleDrift {
            detail: "line 7 decay deadline 128 != derived deadline 192".to_string(),
        };
        let msg = v.to_string();
        assert!(msg.contains("decay schedule drift"), "{msg}");
        assert!(msg.contains("line 7"), "{msg}");
    }

    #[test]
    fn report_formats_every_violation() {
        let mut report = AuditReport::new();
        report.absorb(
            "l1d",
            vec![AuditViolation::WakesExceedSleeps {
                sleeps: 1,
                wakes: 2,
            }],
        );
        report.absorb("hierarchy", check_writeback_drainage(1, 0));
        assert!(!report.is_clean());
        let msg = report.to_string();
        assert!(msg.contains("[l1d]"), "{msg}");
        assert!(msg.contains("[hierarchy]"), "{msg}");
        assert!(msg.contains("2 accounting violation"), "{msg}");
        assert!(report.into_result().is_err());
    }
}
