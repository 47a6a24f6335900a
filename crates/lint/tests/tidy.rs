//! The tidy lint as a test: the real workspace must scan clean, and the
//! seeded fixture tree must trip every rule family (proving the scanner
//! actually detects what it claims to).

use std::collections::HashSet;
use std::path::Path;

use lint::{scan_root, Rule};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_is_tidy() {
    let violations = scan_root(workspace_root()).expect("scan workspace");
    assert!(
        violations.is_empty(),
        "tidy violations in the workspace:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_fixtures_trip_every_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/seeded");
    let violations = scan_root(&root).expect("scan fixtures");
    let fired: HashSet<Rule> = violations.iter().map(|v| v.rule).collect();
    for rule in [
        Rule::RawF64PublicSig,
        Rule::LossyCast,
        Rule::UnwrapOutsideTests,
        Rule::LockOrder,
        Rule::TypedConstant,
        Rule::ServerBoundary,
        Rule::FsBoundary,
        Rule::NoAllocInSweep,
        Rule::NoSleepWhileLocked,
        Rule::NoWallclock,
    ] {
        assert!(
            fired.contains(&rule),
            "seeded fixture did not trip {rule}; fired: {fired:?}"
        );
    }
}

#[test]
fn violations_name_file_line_and_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/seeded");
    let violations = scan_root(&root).expect("scan fixtures");
    let lock = violations
        .iter()
        .find(|v| v.rule == Rule::LockOrder)
        .expect("lock-order violation");
    assert!(lock.file.ends_with("crates/core/src/study.rs"));
    let rendered = lock.to_string();
    assert!(rendered.contains("[lock-order]"), "{rendered}");
    assert!(rendered.contains("study.rs:"), "{rendered}");
}
