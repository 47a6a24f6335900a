//! The harness's self-test: short-interval decay must be clearly
//! distinguishable from the baseline on the gap-conflict trace, and the
//! baseline must be blind.
//!
//! CI runs this target twice: normally (must pass) and with
//! `--cfg mutant="seeded-leakage-blind-bug"` (must FAIL — the mutation
//! collapses probe-latency quantization into a single symbol, so a
//! harness that still "detects leakage" under it would be reporting
//! noise).

use leakage::{measure, HarnessSpec, PolicyKind, Scenario, TABLE3_INTERVALS};

fn spec() -> HarnessSpec {
    HarnessSpec {
        trials_per_secret: 12,
        ..HarnessSpec::default()
    }
}

#[test]
fn decay_at_short_interval_is_distinguishable_from_baseline() {
    leakage::self_test(&spec()).expect("harness self-test");
}

#[test]
fn the_full_metric_stack_sees_the_decay_channel() {
    // Beyond the min-entropy gate in self_test(): the partition count,
    // t-score, and permutation p must all point the same way, so the
    // blind-bug mutation cannot hide in any single metric.
    let decay = measure(
        PolicyKind::Decay,
        TABLE3_INTERVALS[0],
        Scenario::ALL[0],
        &spec(),
    );
    assert!(decay.partitions >= 2, "got {} partitions", decay.partitions);
    assert!(decay.welch_t > 10.0, "got t = {}", decay.welch_t);
    assert!(decay.p_value < 0.05, "got p = {}", decay.p_value);
}
