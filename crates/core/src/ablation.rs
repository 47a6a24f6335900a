//! Ablations of the design choices DESIGN.md calls out: tag decay (§5.3),
//! the `simple` vs `noaccess` policy (§2.3), and the machine's latency
//! tolerance (MSHRs / branch prediction — §5.1's hiding mechanism).

use cachesim::{DecayPolicy, Hierarchy, HierarchyConfig};
use leakctl::{Technique, TechniqueKind};
use serde::{Deserialize, Serialize};
use specgen::Benchmark;
use uarch::{Core, CoreConfig};

use crate::config::StudyConfig;
use crate::parallel;
use crate::pricing::{self, CacheArrays};
use crate::study::{default_threads, technique_of, CompareRequest, RawRun, Study, StudyError};

/// One ablation row: a configuration label with the two study metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Configuration description.
    pub label: String,
    /// Average net savings over the 11 benchmarks, percent.
    pub net_savings_pct: f64,
    /// Average performance loss, percent.
    pub perf_loss_pct: f64,
}

/// Runs every labelled configuration over all 11 benchmarks as one
/// parallel batch, then averages each configuration's row serially (so
/// the floating-point accumulation order matches the sequential engine).
fn averaged_rows(
    study: &Study,
    configs: &[(String, Technique)],
    l2: u32,
    temp: f64,
) -> Result<Vec<AblationRow>, StudyError> {
    let requests: Vec<CompareRequest> = configs
        .iter()
        .flat_map(|(_, technique)| {
            Benchmark::ALL
                .into_iter()
                .map(move |benchmark| CompareRequest {
                    benchmark,
                    technique: *technique,
                    l2_latency: l2,
                    temperature_c: temp,
                })
        })
        .collect();
    let results = study.compare_many(&requests)?;
    Ok(configs
        .iter()
        .zip(results.chunks_exact(Benchmark::ALL.len()))
        .map(|((label, _), runs)| {
            let mut sav = 0.0;
            let mut loss = 0.0;
            for r in runs {
                sav += r.net_savings_pct / 11.0;
                loss += r.perf_loss_pct / 11.0;
            }
            AblationRow {
                label: label.clone(),
                net_savings_pct: sav,
                perf_loss_pct: loss,
            }
        })
        .collect())
}

/// §5.3: decayed vs live tags for both techniques.
///
/// # Errors
///
/// Returns [`StudyError`] if any run fails.
pub fn tag_decay(study: &Study, l2: u32, temp: f64) -> Result<Vec<AblationRow>, StudyError> {
    let mut configs = Vec::new();
    for kind in TechniqueKind::STUDIED {
        for tags_decay in [true, false] {
            let technique = Technique {
                tags_decay,
                ..technique_of(kind, 4096)
            };
            let label = format!(
                "{} / {} tags",
                kind.name(),
                if tags_decay { "decayed" } else { "live" }
            );
            configs.push((label, technique));
        }
    }
    averaged_rows(study, &configs, l2, temp)
}

/// §2.3: the `noaccess` counter policy vs the history-free `simple` policy.
///
/// # Errors
///
/// Returns [`StudyError`] if any run fails.
pub fn decay_policy(study: &Study, l2: u32, temp: f64) -> Result<Vec<AblationRow>, StudyError> {
    let mut configs = Vec::new();
    for kind in TechniqueKind::STUDIED {
        for policy in [DecayPolicy::NoAccess, DecayPolicy::Simple] {
            let technique = Technique {
                policy,
                ..technique_of(kind, 4096)
            };
            let label = format!(
                "{} / {}",
                kind.name(),
                match policy {
                    DecayPolicy::NoAccess => "noaccess",
                    DecayPolicy::Simple => "simple",
                }
            );
            configs.push((label, technique));
        }
    }
    averaged_rows(study, &configs, l2, temp)
}

/// Executes one timing run (no caching) on `core_cfg` in one window and
/// audits it: [`crate::study::execute`] passes the Table 2 core, the MSHR
/// and predictor ablations their variants.
///
/// # Errors
///
/// Returns [`StudyError`] if the hierarchy cannot be built or the run
/// fails its conservation audit.
pub fn execute_with_core(
    benchmark: Benchmark,
    technique: &Technique,
    cfg: &StudyConfig,
    l2_latency: u32,
    core_cfg: CoreConfig,
) -> Result<RawRun, StudyError> {
    execute_in_windows(
        benchmark,
        technique,
        cfg,
        l2_latency,
        core_cfg,
        cfg.insts,
        |_| {},
    )
}

/// The one execution body of every timing run: builds the hierarchy, the
/// core and the trace, advances the run `window_insts` instructions at a
/// time, calling `between` on the open run after each window (the
/// closed-loop controllers of [`crate::adaptive`] observe and retune
/// there), then finishes the run once and audits it.
///
/// # Panics
///
/// Panics if `window_insts` is 0 while `cfg.insts` is not: such a run
/// could never advance.
///
/// # Errors
///
/// Returns [`StudyError`] if the hierarchy cannot be built or the run
/// fails its conservation audit.
pub(crate) fn execute_in_windows(
    benchmark: Benchmark,
    technique: &Technique,
    cfg: &StudyConfig,
    l2_latency: u32,
    core_cfg: CoreConfig,
    window_insts: u64,
    mut between: impl FnMut(&mut Core),
) -> Result<RawRun, StudyError> {
    assert!(
        window_insts > 0 || cfg.insts == 0,
        "a run in 0-instruction windows never advances"
    );
    let hierarchy = Hierarchy::new(HierarchyConfig::table2(
        l2_latency,
        technique.decay_config(),
    ))?;
    let mut core = Core::new(core_cfg, hierarchy);
    // Replay the memoized stream: every technique/interval point of one
    // benchmark consumes the identical trace, so generate it once.
    let mut trace = specgen::replay_trace(benchmark, cfg.seed, cfg.insts);
    let mut done = 0;
    while done < cfg.insts {
        let window = window_insts.min(cfg.insts - done);
        core.advance(&mut trace, window);
        done += window;
        between(&mut core);
    }
    let stats = core.finish();
    core.audit()
        .map_err(|report| StudyError::AuditFailed(report.to_string()))?;
    Ok(RawRun {
        cycles: stats.cycles,
        core: stats,
        l1d: *core.hierarchy().l1d().stats(),
    })
}

/// §5.1 reason 4 ablation: gated-V_ss's induced-miss tolerance vs the
/// machine's memory-level parallelism. Returns
/// `(mshrs, gated perf-loss %)` rows for one benchmark.
///
/// # Errors
///
/// Returns [`StudyError`] if any run fails.
pub fn mshr_sensitivity(
    benchmark: Benchmark,
    cfg: &StudyConfig,
    l2_latency: u32,
    mshr_counts: &[usize],
) -> Result<Vec<(usize, f64)>, StudyError> {
    let technique = Technique::gated_vss(4096);
    parallel::map_ordered(default_threads(), mshr_counts, |&mshrs| {
        let core_cfg = CoreConfig {
            mshrs,
            ..CoreConfig::table2()
        };
        let base = execute_with_core(benchmark, &Technique::none(), cfg, l2_latency, core_cfg)?;
        let tech = execute_with_core(benchmark, &technique, cfg, l2_latency, core_cfg)?;
        Ok((mshrs, pricing::perf_loss_pct(base.cycles, tech.cycles)))
    })
}

/// Net-savings comparison with perfect branch prediction (isolating the
/// memory system): returns `(real-bpred row, perfect-bpred row)` for the
/// given technique, averaged over a benchmark subset.
///
/// # Errors
///
/// Returns [`StudyError`] if any run fails.
pub fn bpred_sensitivity(
    kind: TechniqueKind,
    cfg: &StudyConfig,
    l2_latency: u32,
    temp: f64,
    benchmarks: &[Benchmark],
) -> Result<(AblationRow, AblationRow), StudyError> {
    let technique = technique_of(kind, 4096);
    let arrays = CacheArrays::table2_l1d();
    let env = cfg.environment(temp)?;
    let mut rows = Vec::new();
    for perfect in [false, true] {
        let core_cfg = CoreConfig {
            perfect_bpred: perfect,
            ..CoreConfig::table2()
        };
        // Simulate all benchmarks in parallel, then accumulate serially
        // in benchmark order so the averages match the sequential code.
        let pairs = parallel::map_ordered(default_threads(), benchmarks, |&b| {
            let base = execute_with_core(b, &Technique::none(), cfg, l2_latency, core_cfg)?;
            let tech = execute_with_core(b, &technique, cfg, l2_latency, core_cfg)?;
            Ok::<_, StudyError>((base, tech))
        })?;
        let mut sav = 0.0;
        let mut loss = 0.0;
        for (base, tech) in &pairs {
            let p_base = pricing::price(base, &Technique::none(), &env, &arrays)?;
            let p_tech = pricing::price(tech, &technique, &env, &arrays)?;
            sav += pricing::net_savings(&p_base, &p_tech) * 100.0 / benchmarks.len() as f64;
            loss += pricing::perf_loss_pct(base.cycles, tech.cycles) / benchmarks.len() as f64;
        }
        rows.push(AblationRow {
            label: format!(
                "{} / {} bpred",
                kind.name(),
                if perfect { "perfect" } else { "real" }
            ),
            net_savings_pct: sav,
            perf_loss_pct: loss,
        });
    }
    // lint: allow(unwrap): exactly two rows were pushed above
    let perfect = rows.pop().expect("two rows pushed");
    // lint: allow(unwrap): exactly two rows were pushed above
    let real = rows.pop().expect("two rows pushed");
    Ok((real, perfect))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StudyConfig {
        StudyConfig {
            insts: 60_000,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn tag_decay_rows_cover_all_configs() {
        let study = Study::new(cfg());
        let rows = tag_decay(&study, 11, 110.0).expect("runs");
        assert_eq!(rows.len(), 4);
        let drowsy_decayed = &rows[0];
        let drowsy_live = &rows[1];
        assert!(
            drowsy_live.perf_loss_pct < drowsy_decayed.perf_loss_pct,
            "live tags must remove drowsy's wake penalty: {rows:?}"
        );
    }

    #[test]
    fn simple_policy_trades_performance_for_turnoff() {
        let study = Study::new(cfg());
        let rows = decay_policy(&study, 11, 110.0).expect("runs");
        assert_eq!(rows.len(), 4);
        let (noaccess, simple) = (&rows[0], &rows[1]);
        assert!(
            simple.perf_loss_pct > noaccess.perf_loss_pct,
            "simple must cost performance: {rows:?}"
        );
    }

    #[test]
    fn fewer_mshrs_hurt_gated() {
        let rows = mshr_sensitivity(Benchmark::Gzip, &cfg(), 11, &[1, 8]).expect("runs");
        assert_eq!(rows.len(), 2);
        assert!(
            rows[0].1 > rows[1].1,
            "one MSHR must hide induced misses worse than eight: {rows:?}"
        );
    }

    #[test]
    fn bpred_sensitivity_runs() {
        let (real, perfect) = bpred_sensitivity(
            TechniqueKind::GatedVss,
            &cfg(),
            11,
            110.0,
            &[Benchmark::Twolf],
        )
        .expect("runs");
        assert!(real.net_savings_pct.is_finite());
        assert!(perfect.net_savings_pct.is_finite());
    }
}
