//! Closed-loop adaptive decay runs (paper §5.4).
//!
//! Figures 12/13 use an *oracle*: the best fixed interval per benchmark,
//! found by sweeping. The paper notes three runtime mechanisms that could
//! find such intervals adaptively; this module actually runs two of them —
//! [`leakctl::AdaptiveModeControl`] and [`leakctl::FeedbackController`] —
//! closed-loop: the benchmark executes in windows, each window's induced
//! misses are observed, and the controller retunes the decay interval
//! between windows.

use leakctl::{IntervalObservation, Technique, TechniqueKind};
use serde::{Deserialize, Serialize};
use specgen::Benchmark;
use uarch::CoreConfig;

use crate::ablation::execute_in_windows;
use crate::config::StudyConfig;
use crate::parallel;
use crate::study::{default_threads, technique_of, RawRun, StudyError, MAX_ADAPTIVE_WINDOWS};

/// Which runtime controller drives the interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Controller {
    /// Zhou et al. adaptive mode control (double/halve on a miss-ratio
    /// band).
    AdaptiveModeControl,
    /// Velusamy et al. formal (integral) feedback control to a setpoint.
    Feedback {
        /// Target induced-miss ratio.
        setpoint: f64,
    },
}

/// Result of one adaptive closed-loop run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveRun {
    /// The raw run (for pricing against a baseline).
    pub raw: RawRun,
    /// Interval in force after each observation window.
    pub interval_trace: Vec<u64>,
    /// The final interval.
    pub final_interval: u64,
}

/// Runs `benchmark` under `kind` with the chosen runtime `controller`,
/// observing every `window_insts` instructions.
///
/// Both hardware proposals keep the tags awake to detect induced misses, so
/// the technique is configured with live tags (`tags_decay = false`),
/// matching the paper's note that these schemes "require the tags to stay
/// awake".
///
/// # Errors
///
/// Returns [`StudyError::EmptyAdaptiveWindow`] if `window_insts` is 0,
/// [`StudyError::TooManyWindows`] if the run would take more than
/// [`MAX_ADAPTIVE_WINDOWS`] windows, or another [`StudyError`] if the
/// hierarchy cannot be built or the run fails its conservation audit.
pub fn run_adaptive(
    benchmark: Benchmark,
    kind: TechniqueKind,
    controller: Controller,
    cfg: &StudyConfig,
    l2_latency: u32,
    window_insts: u64,
) -> Result<AdaptiveRun, StudyError> {
    if window_insts == 0 {
        return Err(StudyError::EmptyAdaptiveWindow);
    }
    let windows = cfg.insts.div_ceil(window_insts);
    if windows > MAX_ADAPTIVE_WINDOWS {
        return Err(StudyError::TooManyWindows(windows));
    }
    let initial = 4096;
    let technique = Technique {
        tags_decay: false,
        ..technique_of(kind, initial)
    };
    let mut amc = leakctl::AdaptiveModeControl::new(initial, 1024, 65536);
    let mut fc = match controller {
        Controller::Feedback { setpoint } => Some(leakctl::FeedbackController::new(
            initial, 1024, 65536, setpoint,
        )),
        Controller::AdaptiveModeControl => None,
    };

    let mut interval_trace = Vec::new();
    let mut prev_induced = 0u64;
    let mut prev_misses = 0u64;
    let mut prev_accesses = 0u64;
    let raw = execute_in_windows(
        benchmark,
        &technique,
        cfg,
        l2_latency,
        CoreConfig::table2(),
        window_insts,
        |core| {
            // The new interval restarts the decay counters at the L1D's
            // clock, so first bring the L1D's decay up to the last commit.
            let now = core.now();
            core.hierarchy_mut().advance_to(now);
            let s = core.hierarchy().l1d().stats();
            let obs = IntervalObservation {
                induced_misses: s.induced_misses - prev_induced,
                total_misses: (s.induced_misses + s.true_misses) - prev_misses,
                accesses: (s.reads + s.writes) - prev_accesses,
            };
            prev_induced = s.induced_misses;
            prev_misses = s.induced_misses + s.true_misses;
            prev_accesses = s.reads + s.writes;
            let next = match &mut fc {
                Some(fc) => fc.observe(&obs),
                None => amc.observe(&obs),
            };
            core.hierarchy_mut().set_l1d_decay_interval(next);
            interval_trace.push(next);
        },
    )?;
    let final_interval = interval_trace.last().copied().unwrap_or(initial);
    Ok(AdaptiveRun {
        raw,
        interval_trace,
        final_interval,
    })
}

/// One closed-loop run request for [`run_adaptive_many`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveRequest {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The technique kind.
    pub kind: TechniqueKind,
    /// The runtime controller.
    pub controller: Controller,
    /// Observation window, instructions.
    pub window_insts: u64,
}

/// Runs many independent closed-loop experiments across
/// [`default_threads`] workers, returning results in request order.
/// Each run is a fully isolated core + hierarchy + controller, so
/// results are identical to calling [`run_adaptive`] per request.
///
/// # Errors
///
/// Returns the first [`StudyError`] any run produced.
pub fn run_adaptive_many(
    requests: &[AdaptiveRequest],
    cfg: &StudyConfig,
    l2_latency: u32,
) -> Result<Vec<AdaptiveRun>, StudyError> {
    parallel::map_ordered(default_threads(), requests, |r| {
        run_adaptive(
            r.benchmark,
            r.kind,
            r.controller,
            cfg,
            l2_latency,
            r.window_insts,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StudyConfig {
        StudyConfig {
            insts: 120_000,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn batch_matches_individual_runs() {
        let requests = [
            AdaptiveRequest {
                benchmark: Benchmark::Gzip,
                kind: TechniqueKind::GatedVss,
                controller: Controller::AdaptiveModeControl,
                window_insts: 10_000,
            },
            AdaptiveRequest {
                benchmark: Benchmark::Gcc,
                kind: TechniqueKind::GatedVss,
                controller: Controller::Feedback { setpoint: 0.02 },
                window_insts: 10_000,
            },
        ];
        let batch = run_adaptive_many(&requests, &cfg(), 11).expect("batch runs");
        assert_eq!(batch.len(), 2);
        for (req, got) in requests.iter().zip(&batch) {
            let solo = run_adaptive(
                req.benchmark,
                req.kind,
                req.controller,
                &cfg(),
                11,
                req.window_insts,
            )
            .expect("solo run");
            assert_eq!(*got, solo, "parallel batch must equal the sequential run");
        }
    }

    #[test]
    fn amc_run_completes_and_adapts() {
        let run = run_adaptive(
            Benchmark::Gzip,
            TechniqueKind::GatedVss,
            Controller::AdaptiveModeControl,
            &cfg(),
            11,
            10_000,
        )
        .expect("run succeeds");
        assert_eq!(run.raw.core.committed, 120_000);
        assert_eq!(run.interval_trace.len(), 12);
        assert!(run.final_interval >= 1024 && run.final_interval <= 65536);
    }

    #[test]
    fn feedback_run_converges_within_bounds() {
        let run = run_adaptive(
            Benchmark::Gcc,
            TechniqueKind::GatedVss,
            Controller::Feedback { setpoint: 0.02 },
            &cfg(),
            11,
            10_000,
        )
        .expect("run succeeds");
        assert!(run.final_interval >= 1024 && run.final_interval <= 65536);
        // The controller must actually move (gcc at 4096 is not exactly at
        // the setpoint).
        assert!(run.interval_trace.iter().any(|&i| i != 4096));
    }

    #[test]
    fn zero_instruction_window_is_rejected() {
        let err = run_adaptive(
            Benchmark::Gzip,
            TechniqueKind::GatedVss,
            Controller::AdaptiveModeControl,
            &cfg(),
            11,
            0,
        )
        .expect_err("a window of 0 instructions can never advance");
        assert!(matches!(err, StudyError::EmptyAdaptiveWindow), "got {err}");
    }

    #[test]
    fn window_count_is_capped() {
        let run = |insts| {
            let cfg = StudyConfig {
                insts,
                ..StudyConfig::default()
            };
            let amc = Controller::AdaptiveModeControl;
            run_adaptive(Benchmark::Gzip, TechniqueKind::Drowsy, amc, &cfg, 11, 1)
        };
        let at_cap = run(MAX_ADAPTIVE_WINDOWS).expect("the cap itself is allowed");
        assert_eq!(at_cap.interval_trace.len() as u64, MAX_ADAPTIVE_WINDOWS);
        let err = run(MAX_ADAPTIVE_WINDOWS + 1).expect_err("one window past the cap");
        assert!(matches!(err, StudyError::TooManyWindows(1025)), "got {err}");
    }

    #[test]
    fn heavy_induced_misses_push_interval_up() {
        // gzip's resident set decays profitably at 4k but produces induced
        // misses; a tight feedback setpoint should lengthen the interval.
        let run = run_adaptive(
            Benchmark::Gzip,
            TechniqueKind::GatedVss,
            Controller::Feedback { setpoint: 0.001 },
            &cfg(),
            11,
            10_000,
        )
        .expect("run succeeds");
        assert!(
            run.final_interval > 4096,
            "tight setpoint must lengthen the interval, got {}",
            run.final_interval
        );
    }
}
