//! # simcore
//!
//! The full-system study: binds the out-of-order core ([`uarch`]), the
//! decaying cache hierarchy ([`cachesim`]), the workload generators
//! ([`specgen`]), the technique physics ([`leakctl`]), Wattch-style dynamic
//! energy ([`wattch`]) and the HotLeakage model ([`hotleakage`]) into the
//! experiment pipeline that regenerates every figure and table of
//! *"Comparison of State-Preserving vs. Non-State-Preserving Leakage
//! Control in Caches"*.
//!
//! ## The net-savings metric (paper §2.3 / §5.1)
//!
//! Each experiment runs a benchmark twice over the identical instruction
//! stream: once with no leakage control (the baseline) and once with a
//! technique active. Both runs are *priced* at an operating point
//! (technology node, V_dd, temperature), yielding leakage and dynamic
//! energies. The headline number is
//!
//! ```text
//! net savings = [E_leak(base) − E_leak(tech) − (E_dyn(tech) − E_dyn(base))]
//!               / E_leak(base)
//! ```
//!
//! which charges the technique for every extra joule of dynamic energy it
//! causes — extra L2 accesses from induced misses and decay writebacks,
//! tag wake-ups, decay-counter activity, line transitions, and the longer
//! runtime — exactly the cost inventory of §2.3. Because pricing is
//! separated from timing, one timing run can be re-priced at several
//! temperatures (Figures 7 vs 8) without re-simulating.
//!
//! ## Quick start
//!
//! ```no_run
//! use simcore::{Study, StudyConfig};
//! use specgen::Benchmark;
//! use leakctl::Technique;
//!
//! let study = Study::new(StudyConfig::default());
//! let r = study.compare(Benchmark::Gzip, Technique::drowsy(4096), 11, 110.0)?;
//! println!("gzip drowsy: {:.1}% net savings, {:.2}% slowdown",
//!          r.net_savings_pct, r.perf_loss_pct);
//! # Ok::<(), simcore::StudyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adaptive;
pub mod analysis;
pub mod config;
pub mod fidelity;
pub mod figures;
pub mod parallel;
pub mod pricing;
pub mod report;
pub mod service;
pub mod storebytes;
pub mod study;
pub mod thermal_loop;

pub use config::{StudyConfig, DEFAULT_DROWSY_INTERVAL, DEFAULT_GATED_INTERVAL, SWEEP_INTERVALS};
pub use figures::{FigureSeries, LeakageEnergyFigure, LeakageEnergyPoint, Table3};
pub use pricing::{CacheArrays, Priced};
pub use runstore::{RecordId, RunStore, StoreCounters};
pub use service::{FigureMetric, RequestKind, StudyRequest, StudyResponse};
pub use study::{
    default_threads, CompareRequest, RawRun, RemoteTier, RunCache, RunCacheCounters, RunKey,
    RunResult, Study, StudyCtx, StudyError, MAX_ADAPTIVE_WINDOWS, MAX_SWEEP_INTERVALS,
};
