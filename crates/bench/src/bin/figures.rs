//! Regenerates every table and figure of the paper, plus the repo's
//! extension analyses.
//!
//! ```text
//! figures [--insts N] [--json FILE] [SELECTOR ...]
//!
//! SELECTOR: table1|table2|table3|fig1|fig2|nand_kdesign|fig3..fig13|
//!           calibrate|cal|ablations|reuse|thermal|all
//! ```
//!
//! With no selector, prints everything (`all`); `fig2` and `nand_kdesign`
//! name the same figure, as do `calibrate` and `cal`. Several selectors
//! print their sections in the order `all` does, from one study, so
//! figures that share runs simulate them once. `--json FILE`
//! additionally dumps every per-run result as JSON for downstream
//! plotting. Any other argument is an error. Every parallel fan-out takes
//! its worker count from the `LEAKAGE_THREADS` environment variable,
//! else all hardware threads; the output is identical at any count.

use hotleakage::validation::{self, SweepKind};
use hotleakage::{Environment, TechNode};
use simcore::{figures, report, Study, StudyConfig};

/// Every selector the command line accepts, space-separated.
const SELECTORS: &str = "all table1 table2 table3 fig1 fig2 nand_kdesign fig3 fig4 fig5 fig6 \
    fig7 fig8 fig9 fig10 fig11 fig12 fig13 calibrate cal ablations reuse thermal";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut insts: u64 = 300_000;
    let mut selected: Vec<&str> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--insts" => {
                insts = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--insts needs a number"));
            }
            "--json" => {
                json_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--json needs a path"))
                        .to_string(),
                );
            }
            selector if SELECTORS.split_whitespace().any(|s| s == selector) => {
                selected.push(selector);
            }
            other => die(&format!(
                "unknown argument {other:?}; selectors are: {SELECTORS}"
            )),
        }
    }
    let study = Study::new(StudyConfig::with_insts(insts));
    let all = selected.is_empty() || selected.contains(&"all");
    let want = |names: &[&str]| all || names.iter().any(|n| selected.contains(n));
    let mut json_figures: Vec<simcore::FigureSeries> = Vec::new();

    if want(&["table1"]) {
        println!("{}", report::render_table1());
    }
    if want(&["table2"]) {
        println!("{}", report::render_table2());
    }
    if want(&["fig1"]) {
        print_fig1();
    }
    if want(&["fig2", "nand_kdesign"]) {
        print_fig2();
    }
    if want(&["calibrate", "cal"]) {
        print_calibration(&study);
    }
    for (name, l2, temp, kind) in [
        ("fig3", 5u32, 110.0, 's'),
        ("fig4", 5, 110.0, 'p'),
        ("fig5", 8, 110.0, 's'),
        ("fig6", 8, 110.0, 'p'),
        ("fig7", 11, 85.0, 's'),
        ("fig8", 11, 110.0, 's'),
        ("fig9", 11, 110.0, 'p'),
        ("fig10", 17, 110.0, 's'),
        ("fig11", 17, 110.0, 'p'),
    ] {
        if want(&[name]) {
            let fig = if kind == 's' {
                figures::savings_figure(&study, name, l2, temp)
            } else {
                figures::perf_figure(&study, name, l2, temp)
            }
            .unwrap_or_else(|e| die(&format!("{name}: {e}")));
            println!("=== {name} ===\n{}", report::render_figure(&fig));
            json_figures.push(fig);
        }
    }
    if want(&["fig12", "fig13", "table3"]) {
        let (fig12, fig13, table3) = figures::best_interval_figures(&study, 11, 85.0)
            .unwrap_or_else(|e| die(&format!("fig12/13: {e}")));
        if want(&["fig12"]) {
            println!("=== fig12 ===\n{}", report::render_figure(&fig12));
        }
        if want(&["fig13"]) {
            println!("=== fig13 ===\n{}", report::render_figure(&fig13));
        }
        if want(&["table3"]) {
            println!("=== table3 ===\n{}", report::render_table3(&table3));
        }
        json_figures.push(fig12);
        json_figures.push(fig13);
    }
    if want(&["ablations"]) {
        print_ablations(&study);
    }
    if want(&["reuse"]) {
        print_reuse(&study);
    }
    if want(&["thermal"]) {
        print_thermal(&study);
    }
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&json_figures)
            .unwrap_or_else(|e| die(&format!("serialising results: {e}")));
        // lint: allow(fs-boundary): bench artifact emission — a one-shot JSON report, not run persistence
        std::fs::write(&path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("wrote {} figure series to {path}", json_figures.len());
    }
}

/// Extension: the §5.3 / §2.3 / latency-tolerance ablations.
fn print_ablations(study: &Study) {
    println!("=== ablations (averages over 11 benchmarks, 110C, L2=11) ===");
    println!(
        "{:<28} {:>14} {:>14}",
        "configuration", "net savings %", "perf loss %"
    );
    let rows = simcore::ablation::tag_decay(study, 11, 110.0)
        .and_then(|mut r| {
            r.extend(simcore::ablation::decay_policy(study, 11, 110.0)?);
            Ok(r)
        })
        .unwrap_or_else(|e| die(&format!("ablations: {e}")));
    for row in rows {
        println!(
            "{:<28} {:>14.2} {:>14.2}",
            row.label, row.net_savings_pct, row.perf_loss_pct
        );
    }
    let mshr = simcore::ablation::mshr_sensitivity(
        specgen::Benchmark::Gzip,
        study.config(),
        11,
        &[1, 2, 4, 8, 16],
    )
    .unwrap_or_else(|e| die(&format!("mshr ablation: {e}")));
    println!("\ngzip gated-vss perf loss vs outstanding-miss capacity:");
    for (mshrs, loss) in mshr {
        println!("  {mshrs:>2} MSHRs: {loss:>6.2}%");
    }
    println!();
}

/// Extension: per-benchmark reuse-interval profiles (the Table 3 driver).
fn print_reuse(study: &Study) {
    println!("=== reuse-interval profiles (analytic Table 3 driver) ===");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "benchmark", "lines", "<=1k", "<=4k", "<=16k", "<=64k", "99% interval"
    );
    for b in specgen::Benchmark::ALL {
        let p = simcore::analysis::profile_workload(b, study.config().insts, study.config().seed);
        println!(
            "{:<10} {:>8} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>12}",
            b.name(),
            p.lines_touched,
            p.reuse_cdf[0] * 100.0,
            p.reuse_cdf[1] * 100.0,
            p.reuse_cdf[2] * 100.0,
            p.reuse_cdf[3] * 100.0,
            report::fmt_interval(units::Cycles::new(p.interval_99)),
        );
    }
    println!();
}

/// Extension: closed-loop thermal steady states.
fn print_thermal(study: &Study) {
    use hotleakage::thermal::ThermalParams;
    use leakctl::Technique;
    println!("=== thermal co-simulation (extension; cache-scale package) ===");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "benchmark", "baseline C", "drowsy C", "gated C"
    );
    let params = ThermalParams {
        r_th: 18.0,
        c_th: 20.0,
        t_ambient: units::Kelvin::new(318.15),
    };
    for b in [
        specgen::Benchmark::Gzip,
        specgen::Benchmark::Mcf,
        specgen::Benchmark::Perl,
    ] {
        let fmt = |o: simcore::thermal_loop::ThermalOutcome| -> String {
            o.temperature_c
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "runaway".into())
        };
        let (base, drowsy) =
            simcore::thermal_loop::compare_thermal(study, b, Technique::drowsy(4096), 11, params)
                .unwrap_or_else(|e| die(&format!("thermal: {e}")));
        let (_, gated) = simcore::thermal_loop::compare_thermal(
            study,
            b,
            Technique::gated_vss(4096),
            11,
            params,
        )
        .unwrap_or_else(|e| die(&format!("thermal: {e}")));
        println!(
            "{:<10} {:>12} {:>12} {:>12}",
            b.name(),
            fmt(base),
            fmt(drowsy),
            fmt(gated)
        );
    }
    println!();
}

fn print_fig1() {
    let env = Environment::nominal(TechNode::N70);
    for (panel, kind, label) in [
        ("fig1a", SweepKind::AspectRatio, "W/L"),
        ("fig1b", SweepKind::SupplyVoltage, "Vdd (V)"),
        ("fig1c", SweepKind::Temperature, "T (K)"),
        ("fig1d", SweepKind::ThresholdVoltage, "Vth (V)"),
    ] {
        println!("=== {panel}: unit NMOS leakage, model vs circuit reference ===");
        println!("{label:>10} {:>14} {:>14}", "model (A)", "reference (A)");
        for p in validation::sweep(&env, kind, 9) {
            println!("{:>10.3} {:>14.4e} {:>14.4e}", p.x, p.model, p.reference);
        }
        println!();
    }
}

/// Fig. 2 / Eqs. 5–8: the two-input NAND k_design worked example.
fn print_fig2() {
    use hotleakage::kdesign::{self, GateTopology};
    let env = Environment::nominal(TechNode::N70);
    let gate = GateTopology::nand(2);
    println!("=== fig2: two-input NAND k_design derivation (Eqs. 5-8) ===");
    println!("input combos: (0,0) (0,1) (1,0) turn the pull-down off;");
    println!("              (1,1) turns the pull-up off. N = 4.");
    for combo in 0..4u32 {
        let inputs = [(combo & 1) == 1, (combo & 2) == 2];
        let i_n = gate
            .pull_down
            .leakage(&env, hotleakage::DeviceType::Nmos, &inputs);
        let i_p = gate
            .pull_up
            .leakage(&env, hotleakage::DeviceType::Pmos, &inputs);
        println!(
            "  X={} Y={}: I_n = {:>10.3e} A   I_p = {:>10.3e} A",
            inputs[0] as u8, inputs[1] as u8, i_n, i_p
        );
    }
    let k = kdesign::derive(&env, &gate);
    println!(
        "  => k_n = {:.4}, k_p = {:.4} (70 nm nominal point)\n",
        k.kn, k.kp
    );
}

/// Per-benchmark baseline characteristics (not a paper figure; used to
/// check the workload generators land in SPECint-plausible ranges).
fn print_calibration(study: &Study) {
    println!("=== calibration: baseline characteristics (L2=11) ===");
    println!(
        "{:<10} {:>6} {:>9} {:>10} {:>12}",
        "benchmark", "IPC", "L1D MPKI", "miss%", "bpred-miss%"
    );
    for b in specgen::Benchmark::ALL {
        let r = study
            .baseline(b, 11)
            .unwrap_or_else(|e| die(&format!("{b}: {e}")));
        let accesses = (r.core.loads + r.core.stores) as f64;
        let miss_pct = 100.0 * r.core.l1d_misses as f64 / accesses.max(1.0);
        let mpki = 1000.0 * r.core.l1d_misses as f64 / r.core.committed as f64;
        let bp = 100.0 * r.core.mispredicts as f64 / r.core.branches.max(1) as f64;
        println!(
            "{:<10} {:>6.2} {:>9.1} {:>9.1}% {:>11.1}%",
            b.name(),
            r.core.ipc().get(),
            mpki,
            miss_pct,
            bp
        );
    }
    println!();
}

fn die(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(1);
}
