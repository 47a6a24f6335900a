//! Property tests for the audit layer itself: the pricing sanity laws
//! (non-negative, finite, monotone-in-runtime energies) over random
//! operating points, and proof that corrupted runs actually trip
//! [`simcore::StudyError::AuditFailed`] rather than flowing silently into
//! the figures.

use cachesim::{CacheStats, ModeCycles};
use hotleakage::{Environment, TechNode};
use leakctl::Technique;
use proptest::prelude::*;
use simcore::pricing::{self, CacheArrays, Priced};
use simcore::study::audit_raw_run;
use simcore::{RawRun, StudyError};
use uarch::CoreStats;

fn arb_env() -> impl Strategy<Value = Environment> {
    let node = prop_oneof![
        Just(TechNode::N180),
        Just(TechNode::N130),
        Just(TechNode::N100),
        Just(TechNode::N70),
    ];
    (node, 0.3f64..1.3, 280.0f64..440.0)
        .prop_filter_map("valid operating point", |(node, vdd, t)| {
            Environment::new(node, vdd, t).ok()
        })
}

/// A hand-built run satisfying every conservation law: 100 accesses split
/// into hit/miss buckets, every line-cycle active.
fn consistent_raw(cycles: u64) -> RawRun {
    let lines = CacheArrays::table2_l1d().lines() as u64;
    RawRun {
        cycles: units::Cycles::new(cycles),
        core: CoreStats {
            cycles: units::Cycles::new(cycles),
            committed: cycles,
            loads: 80,
            stores: 20,
            ..CoreStats::default()
        },
        l1d: CacheStats {
            reads: 80,
            writes: 20,
            hits: 90,
            true_misses: 10,
            mode_cycles: ModeCycles {
                active: units::Cycles::new(lines * cycles),
                standby: units::Cycles::ZERO,
                transitioning: units::Cycles::ZERO,
            },
            ..CacheStats::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn priced_energy_is_monotone_in_cycles(
        env in arb_env(),
        cycles in 1_000u64..2_000_000,
        extra in 1u64..2_000_000,
    ) {
        // Same event counts, longer runtime: total energy must rise (the
        // clock keeps toggling and every structure keeps leaking).
        let arrays = CacheArrays::table2_l1d();
        let short = pricing::price(&consistent_raw(cycles), &Technique::none(), &env, &arrays)
            .expect("pricing");
        let long = pricing::price(
            &consistent_raw(cycles + extra),
            &Technique::none(),
            &env,
            &arrays,
        )
        .expect("pricing");
        prop_assert!(
            long.leakage_j + long.dynamic_j > short.leakage_j + short.dynamic_j,
            "energy must grow with runtime: {long:?} vs {short:?}"
        );
        prop_assert!(long.leakage_j >= short.leakage_j);
        prop_assert!(long.seconds > short.seconds);
    }

    #[test]
    fn priced_real_runs_pass_the_sanity_check(
        env in arb_env(),
        cycles in 1_000u64..2_000_000,
        interval in 256u64..16_384,
    ) {
        let arrays = CacheArrays::table2_l1d();
        for technique in [Technique::none(), Technique::gated_vss(interval), Technique::drowsy(interval)] {
            let p = pricing::price(&consistent_raw(cycles), &technique, &env, &arrays)
                .expect("pricing");
            prop_assert!(pricing::check_priced(&p).is_ok(), "{p:?}");
        }
    }
}

#[test]
fn consistent_raw_passes_the_run_audit() {
    audit_raw_run(&consistent_raw(50_000), false).expect("conserving run is clean");
}

#[test]
fn lost_hit_in_a_cached_run_is_an_audit_failure() {
    let mut raw = consistent_raw(50_000);
    raw.l1d.hits -= 1;
    let err = audit_raw_run(&raw, false).unwrap_err();
    assert!(
        matches!(&err, StudyError::AuditFailed(msg) if msg.contains("access conservation")),
        "got {err}"
    );
}

#[test]
fn leaked_line_cycles_in_a_cached_run_are_an_audit_failure() {
    let mut raw = consistent_raw(50_000);
    raw.l1d.mode_cycles.active -= units::Cycles::new(13);
    let err = audit_raw_run(&raw, true).unwrap_err();
    assert!(
        matches!(&err, StudyError::AuditFailed(msg) if msg.contains("line-cycle conservation")),
        "got {err}"
    );
}

#[test]
fn negative_or_non_finite_priced_energies_are_rejected() {
    let good = Priced {
        leakage_j: units::Joules::new(1e-6),
        dynamic_j: units::Joules::new(2e-6),
        seconds: units::Seconds::new(1e-3),
    };
    assert!(pricing::check_priced(&good).is_ok());
    for bad in [
        Priced {
            leakage_j: units::Joules::new(-1e-9),
            ..good
        },
        Priced {
            dynamic_j: units::Joules::new(f64::NAN),
            ..good
        },
        Priced {
            seconds: units::Seconds::new(f64::INFINITY),
            ..good
        },
    ] {
        assert!(pricing::check_priced(&bad).is_err(), "{bad:?}");
    }
}
