//! Tier-ladder benchmark process: runs one workload once, in one of
//! three modes, and prints one JSON line (see `report.rs`).
//!
//! ```text
//! tierbench --workload figures_cold|serve_hot|serve_cold --seed N
//!           --seconds S --mode setup|run|trace --out-dir DIR
//! ```
//!
//! `setup` stops before the timed window (it measures set-up only),
//! `run` measures the end-to-end metrics with tracing off, and `trace`
//! reports the per-layer metrics and writes its spans to `DIR`.
//! `run.py` drives these processes and prints the benchmark's result.

mod figures;
mod measure;
mod report;
mod serve;

use std::path::PathBuf;

use serde::Value;

use crate::measure::SplitMix;
use crate::report::Report;

/// Pricing temperature of every request (the paper's 110 °C).
pub const TEMPERATURE_C: f64 = 110.0;

/// What one process measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set-up only.
    Setup,
    /// The untraced timed window.
    Run,
    /// The traced window plus per-layer replays.
    Trace,
}

/// The workload generator seed for `seed`'s instruction streams.
pub fn trace_seed(seed: u64) -> u64 {
    SplitMix::new(seed, 1).next_u64()
}

/// Compact JSON text of a value tree.
pub fn json(v: &Value) -> String {
    struct Raw<'a>(&'a Value);
    impl serde::Serialize for Raw<'_> {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Raw(v)).unwrap_or_default()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        mode: Mode::Run,
        out_dir: PathBuf::from("tierbench-out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--mode" => {
                args.mode = match value.as_str() {
                    "setup" => Mode::Setup,
                    "run" => Mode::Run,
                    "trace" => Mode::Trace,
                    other => return Err(format!("unknown mode {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tierbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.info("seed", Value::UInt(args.seed));
    report.info("host_parallelism", Value::UInt(host as u64));
    report.info("workload", Value::Str(args.workload.clone()));
    let dir = args
        .out_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("tierbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    match args.workload.as_str() {
        "figures_cold" => figures::run(args.mode, args.seed, args.seconds, &mut report),
        "serve_hot" => serve::run(
            serve::Tier::Hot,
            args.mode,
            args.seed,
            args.seconds,
            &dir,
            &mut report,
        ),
        "serve_cold" => serve::run(
            serve::Tier::Cold,
            args.mode,
            args.seed,
            args.seconds,
            &dir,
            &mut report,
        ),
        other => {
            eprintln!("tierbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if args.mode == Mode::Run {
        let ok = report.attempted.saturating_sub(report.failed);
        let frac = ok as f64 / report.attempted.max(1) as f64;
        report.metric("ok_frac", frac, "ratio");
    }
    if let Some(spans) = report.spans.take() {
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = spans.write(&path) {
            eprintln!("tierbench: writing {}: {e}", path.display());
        }
    }
    println!("{}", report.to_line());
    if args.mode != Mode::Setup && !report.correct() {
        std::process::exit(1);
    }
}
