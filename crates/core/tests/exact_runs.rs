//! Pins the exact outcome of the timing model: one 64-bit hash over
//! every field of a grid of [`RawRun`]s, that is all of `CoreStats` and
//! the L1D `CacheStats`.
//!
//! The fidelity goldens read some counters (`rf_reads`, `tag_probes`,
//! `l1i_accesses`, `int_ops`) only through energy totals, so a change to
//! the core or the caches could move one of them unseen. This hash sees
//! every counter of every run: the 11 benchmarks under the baseline,
//! drowsy and gated-V_ss at the default intervals, at L2 = 5 and 17, plus
//! one closed-loop adaptive run (ten windows of one run, the controller
//! retuning the L1D between them) and one ablation run with 16 MSHRs.
//! The value was computed on the scan-calendar, `VecDeque`-window core;
//! any rewrite of the hot path must reproduce it bit for bit.

use cachesim::{Hierarchy, HierarchyConfig};
use leakctl::TechniqueKind;
use simcore::ablation::execute_with_core;
use simcore::adaptive::{run_adaptive, Controller};
use simcore::storebytes::encode_run;
use simcore::study::{execute, technique_of};
use simcore::{RawRun, StudyConfig, DEFAULT_DROWSY_INTERVAL, DEFAULT_GATED_INTERVAL};
use specgen::Benchmark;
use uarch::{Core, CoreConfig};

/// The FNV-1a hash of the grid's canonical run bytes, in grid order.
const PINNED: u64 = 0xfff1_e590_b5c8_d236;

fn cfg() -> StudyConfig {
    StudyConfig {
        insts: 20_000,
        ..StudyConfig::default()
    }
}

/// The baseline, drowsy and gated-V_ss at the default intervals.
const TECHNIQUES: [(TechniqueKind, u64); 3] = [
    (TechniqueKind::None, 0),
    (TechniqueKind::Drowsy, DEFAULT_DROWSY_INTERVAL),
    (TechniqueKind::GatedVss, DEFAULT_GATED_INTERVAL),
];

/// Every run of the grid, labelled, in a fixed order.
fn grid() -> Vec<(String, RawRun)> {
    let cfg = cfg();
    let mut runs = Vec::new();
    for l2 in [5, 17] {
        for b in Benchmark::ALL {
            for (kind, interval) in TECHNIQUES {
                let run = execute(b, &technique_of(kind, interval), &cfg, l2)
                    .expect("the Table 2 hierarchy builds");
                runs.push((format!("{b} {} L2={l2}", kind.name()), run));
            }
        }
    }
    let adaptive = run_adaptive(
        Benchmark::Gcc,
        TechniqueKind::GatedVss,
        Controller::AdaptiveModeControl,
        &cfg,
        11,
        2_000,
    )
    .expect("the adaptive run completes");
    runs.push(("gcc adaptive".into(), adaptive.raw));
    let wide = CoreConfig {
        mshrs: 16,
        ..CoreConfig::table2()
    };
    let gated = technique_of(TechniqueKind::GatedVss, DEFAULT_GATED_INTERVAL);
    let ablation = execute_with_core(Benchmark::Mcf, &gated, &cfg, 11, wide)
        .expect("the ablation run completes");
    runs.push(("mcf 16 MSHRs".into(), ablation));
    runs
}

#[test]
fn every_counter_of_the_run_grid_is_pinned() {
    let runs = grid();
    let bytes: Vec<u8> = runs.iter().flat_map(|(_, run)| encode_run(run)).collect();
    let hash = runstore::fnv1a64(&bytes);
    if hash != PINNED {
        for (label, run) in &runs {
            eprintln!("{label}: {run:?}");
        }
    }
    assert_eq!(
        hash, PINNED,
        "a timing-model counter moved: hash {hash:#018x}, pinned {PINNED:#018x}"
    );
}

#[test]
fn a_run_advanced_in_two_parts_equals_one_run() {
    let cfg = cfg();
    // Off any round number, so the split falls mid-way through whatever
    // the window, the calendars and the decay counters are doing.
    let first = 7_777;
    for b in Benchmark::ALL {
        for (kind, interval) in TECHNIQUES {
            let technique = technique_of(kind, interval);
            let core = || {
                let cfg = HierarchyConfig::table2(11, technique.decay_config());
                Core::new(
                    CoreConfig::table2(),
                    Hierarchy::new(cfg).expect("the Table 2 hierarchy builds"),
                )
            };
            let trace = || specgen::replay_trace(b, cfg.seed, cfg.insts);
            let mut whole = core();
            let want = whole.run(&mut trace(), cfg.insts);
            let mut split = core();
            let mut stream = trace();
            split.advance(&mut stream, first);
            split.advance(&mut stream, cfg.insts - first);
            let got = split.finish();
            let label = format!("{b} {}", kind.name());
            assert_eq!(got, want, "{label}: core counters");
            assert_eq!(
                split.hierarchy().l1d().stats(),
                whole.hierarchy().l1d().stats(),
                "{label}: L1D counters"
            );
        }
    }
}
