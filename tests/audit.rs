//! End-to-end audit enforcement: every simulation path — direct
//! execution, the memoizing `RunCache`, the parallel batch engine, and
//! the closed-loop adaptive runs — runs under the conservation laws of
//! `cachesim::audit`, and the cached and fresh paths stay bitwise
//! identical.

use leakctl::{Technique, TechniqueKind};
use simcore::adaptive::{run_adaptive, Controller};
use simcore::study::{self, CompareRequest};
use simcore::{RunResult, Study, StudyConfig};
use specgen::Benchmark;

fn quick_cfg() -> StudyConfig {
    StudyConfig {
        insts: 60_000,
        ..StudyConfig::default()
    }
}

#[test]
fn every_technique_run_passes_the_post_run_audit() {
    // raw_run only returns Ok if the in-execute hierarchy audit and the
    // post-cache RawRun audit both came back clean.
    let study = Study::new(quick_cfg());
    for technique in [
        Technique::none(),
        Technique::gated_vss(2048),
        Technique::drowsy(1024),
        Technique::rbb(4096),
    ] {
        let raw = study
            .raw_run(Benchmark::Gzip, &technique, 11)
            .unwrap_or_else(|e| panic!("{:?} failed the audit: {e}", technique.kind));
        assert!(raw.l1d.wakes <= raw.l1d.sleeps);
    }
}

#[test]
fn cached_and_fresh_runs_are_bitwise_identical() {
    let study = Study::new(quick_cfg());
    let tech = Technique::gated_vss(1024);
    let first = study.raw_run(Benchmark::Vpr, &tech, 11).expect("fresh run");
    let recalled = study
        .raw_run(Benchmark::Vpr, &tech, 11)
        .expect("cached run (re-audited on recall)");
    let direct = study::execute(Benchmark::Vpr, &tech, &quick_cfg(), 11).expect("direct run");
    assert_eq!(first, recalled, "cache must hand back the identical run");
    assert_eq!(first, direct, "memoized and direct execution must agree");
}

#[test]
fn parallel_batch_path_matches_sequential_comparison() {
    let par = Study::with_threads(quick_cfg(), 4);
    let requests: Vec<CompareRequest> = [512u64, 2048]
        .iter()
        .flat_map(|&i| [Technique::gated_vss(i), Technique::drowsy(i)])
        .map(|technique| CompareRequest {
            benchmark: Benchmark::Gzip,
            technique,
            l2_latency: 11,
            temperature_c: 110.0,
        })
        .collect();
    let batch = par.compare_many(&requests).expect("batch path");
    let seq = Study::with_threads(quick_cfg(), 1);
    let one_by_one: Vec<RunResult> = requests
        .iter()
        .map(|r| {
            seq.compare(r.benchmark, r.technique, r.l2_latency, r.temperature_c)
                .expect("sequential path")
        })
        .collect();
    assert_eq!(batch, one_by_one);
}

#[test]
fn adaptive_interval_switching_passes_the_audit() {
    // Interval switches between windows exercise the counter-reset path;
    // the audit that ends every run, adaptive runs included, must still
    // come back clean.
    let run = run_adaptive(
        Benchmark::Gzip,
        TechniqueKind::GatedVss,
        Controller::AdaptiveModeControl,
        &quick_cfg(),
        11,
        10_000,
    )
    .expect("adaptive run passes the audit");
    assert!(run.interval_trace.len() > 1);
    assert!(run.raw.l1d.wakes <= run.raw.l1d.sleeps);
}
