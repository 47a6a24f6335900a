//! The fidelity tier: prediction-vs-simulation knee oracle + golden data.
//!
//! Two guards (see `simcore::fidelity`):
//!
//! * the analytic knee predictor must land within one power of two of the
//!   simulated best decay interval for every benchmark, both techniques,
//!   at every studied L2 latency;
//! * the whole figure pipeline must match the checked-in JSON goldens
//!   under per-metric relative tolerances.
//!
//! The default tests run a reduced-instruction fast tier; the `#[ignore]`d
//! ones repeat both checks at the full paper length. Regenerate goldens
//! with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test fidelity
//! UPDATE_GOLDENS=1 cargo test --test fidelity -- --ignored   # full tier
//! ```
//!
//! Under `--cfg mutant="seeded-knee-bug"` (the CI mutation smoke) both guards
//! must FAIL — that build plants a decay-machinery bug the harness exists
//! to catch.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use simcore::fidelity::{self, Tolerances, ORACLE_L2_LATENCIES};
use simcore::{Study, StudyConfig};

/// Reduced run length for the default (fast) tier: long enough that every
/// benchmark's resident set develops its reuse pattern, short enough that
/// the 660-run sweep stays in tens of seconds.
const FAST_INSTS: u64 = 40_000;

/// The paper-length tier (matches `tests/paper_shape.rs`).
const FULL_INSTS: u64 = 250_000;

fn fast_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::new(StudyConfig::with_insts(FAST_INSTS)))
}

fn full_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::new(StudyConfig::with_insts(FULL_INSTS)))
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn updating_goldens() -> bool {
    std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1")
}

fn assert_oracle_agrees(study: &Study) {
    let report =
        fidelity::knee_oracle(study, &ORACLE_L2_LATENCIES, 110.0).expect("oracle pipeline runs");
    assert_eq!(
        report.rows.len(),
        11 * 2 * ORACLE_L2_LATENCIES.len(),
        "one row per benchmark x technique x L2 latency"
    );
    assert!(
        report.mismatches().is_empty(),
        "{}",
        report.render_mismatches()
    );
}

fn assert_goldens_match(study: &Study, file: &str) {
    let set = fidelity::collect_goldens(study, 110.0).expect("figure pipeline runs");
    let fresh = serde_json::to_string_pretty(&set).expect("snapshot serializes");
    let path = goldens_dir().join(file);
    if updating_goldens() {
        fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        fs::write(&path, fresh + "\n").expect("write golden");
        return;
    }
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\nregenerate with UPDATE_GOLDENS=1 cargo test --test fidelity",
            path.display()
        )
    });
    let expected = serde_json::from_str(&text).expect("checked-in golden parses");
    let actual = serde_json::from_str(&fresh).expect("fresh snapshot parses");
    let diffs = fidelity::diff_values(&expected, &actual, &Tolerances::default());
    assert!(
        diffs.is_empty(),
        "figure pipeline drifted from {}\n{}",
        path.display(),
        fidelity::render_diffs(&diffs)
    );
}

#[test]
fn knee_oracle_within_one_power_of_two() {
    assert_oracle_agrees(fast_study());
}

#[test]
fn figures_match_fast_goldens() {
    assert_goldens_match(fast_study(), "fidelity_fast.json");
}

#[test]
fn goldens_regenerate_deterministically() {
    // Two snapshots from independent studies must be byte-identical —
    // the property that makes UPDATE_GOLDENS runs reproducible.
    let a = fidelity::collect_goldens(fast_study(), 110.0).expect("first snapshot");
    let other = Study::new(StudyConfig::with_insts(FAST_INSTS));
    let b = fidelity::collect_goldens(&other, 110.0).expect("second snapshot");
    assert_eq!(
        serde_json::to_string_pretty(&a).expect("serializes"),
        serde_json::to_string_pretty(&b).expect("serializes"),
        "golden snapshots must not depend on cache state or thread timing"
    );
}

#[test]
#[ignore = "full paper-length tier (minutes); run with --ignored"]
fn knee_oracle_full_tier() {
    assert_oracle_agrees(full_study());
}

#[test]
#[ignore = "full paper-length tier (minutes); run with --ignored"]
fn figures_match_full_goldens() {
    assert_goldens_match(full_study(), "fidelity_full.json");
}
