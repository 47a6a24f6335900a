//! `figures_cold`: the paper's fig3/fig4 pair at the paper length,
//! computed from an empty run cache by one engine thread.

use std::hint::black_box;
use std::time::Instant;

use cachesim::{AccessKind, Hierarchy, HierarchyConfig};
use leakctl::Technique;
use serde::Serialize;
use simcore::{
    FigureMetric, RunKey, RunResult, Study, StudyConfig, StudyRequest, StudyResponse,
    DEFAULT_DROWSY_INTERVAL, DEFAULT_GATED_INTERVAL,
};
use specgen::Benchmark;
use uarch::trace::{TraceSource, VecTrace};
use uarch::{Core, CoreConfig, MicroOp, OpClass};

use crate::measure::{cpu_seconds, fnv64, median, p99, peak_rss_mb, SpanLog, SplitMix};
use crate::report::Report;
use crate::{json, Mode, TEMPERATURE_C};

/// The paper's instruction count per run.
pub const INSTS: u64 = 250_000;
/// The fast-L2 point of Figures 3 and 4.
pub const L2_LATENCY: u32 = 5;

/// The study at the paper length on the repository's canonical trace
/// seed (the one every fidelity golden uses). The simulated work depends
/// on the instruction streams by up to 5× — gzip's fetch-calendar scan
/// appears on some streams and not on others — so the streams stay
/// fixed, and the workload seed orders the two figure requests instead.
fn config() -> StudyConfig {
    StudyConfig {
        insts: INSTS,
        ..StudyConfig::default()
    }
}

/// The fig3/fig4 pair, in the order `seed` deals them.
fn requests(seed: u64) -> Vec<StudyRequest> {
    let mut reqs: Vec<StudyRequest> = [FigureMetric::Savings, FigureMetric::PerfLoss]
        .map(|metric| StudyRequest::Figure {
            metric,
            l2_latency: L2_LATENCY,
            temperature_c: TEMPERATURE_C,
        })
        .into();
    SplitMix::new(seed, 2).shuffle(&mut reqs);
    reqs
}

/// The three techniques behind every benchmark's figure entries:
/// baseline, then the two default-interval techniques in figure order.
fn techniques() -> [Technique; 3] {
    [
        Technique::none(),
        Technique::drowsy(DEFAULT_DROWSY_INTERVAL),
        Technique::gated_vss(DEFAULT_GATED_INTERVAL),
    ]
}

/// Fills the process-wide trace arena for every benchmark, one
/// `specgen.gen` span each.
fn fill_arena(cfg: &StudyConfig, log: &mut SpanLog) {
    for b in Benchmark::ALL {
        log.time("specgen.gen", None, b as u64, || {
            black_box(specgen::replay_trace(b, cfg.seed, cfg.insts))
        });
    }
}

/// Digest of the per-run results behind both figures, comparable across
/// the untraced and traced processes.
fn results_digest(results: &[Vec<RunResult>]) -> String {
    let text: String = results.iter().map(|r| json(&r.to_value())).collect();
    format!("{:016x}", fnv64(text.as_bytes()))
}

pub fn run(mode: Mode, seed: u64, seconds: f64, report: &mut Report) {
    let started = Instant::now();
    let mut log = SpanLog::new();
    let cfg = config();
    fill_arena(&cfg, &mut log);
    let setup_s = started.elapsed().as_secs_f64();
    report.metric("setup_s", setup_s, "s");
    match mode {
        Mode::Setup => {}
        Mode::Run => untraced(&cfg, &requests(seed), seconds, report),
        Mode::Trace => traced(&cfg, &requests(seed), log, report),
    }
}

/// The untraced window: a fresh one-thread `Study` serves both figures.
/// Repeated (each time from an empty run cache; the trace arena is
/// already full) until `seconds` have passed, at least twice: the first
/// repetition's replies are the sequential reference the others must
/// equal bitwise.
fn untraced(cfg: &StudyConfig, reqs: &[StudyRequest], seconds: f64, report: &mut Report) {
    let begin = Instant::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    let mut digest = String::new();
    let mut executed_insts = 0;
    while walls.len() < 2 || begin.elapsed().as_secs_f64() < seconds {
        let study = Study::with_threads(*cfg, 1);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let mut replies = Vec::with_capacity(reqs.len());
        let mut latencies_ms = Vec::with_capacity(reqs.len());
        for req in reqs {
            let t = Instant::now();
            replies.push(study.serve(req));
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        walls.push(start.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - cpu0);
        // Two requests per repetition: p50 is their midpoint and the
        // tail is the cold figure; both are taken per repetition and
        // reported as medians over repetitions.
        p50s.push(median(&mut latencies_ms));
        p99s.push(p99(&mut latencies_ms));

        let counters = study.cache().counters();
        executed_insts = counters.executions * cfg.insts;
        report.require(counters.executions == 33, || {
            format!(
                "figures_cold: {} executions, expected 33",
                counters.executions
            )
        });
        let mut results = Vec::new();
        let texts: Vec<String> = replies
            .iter()
            .map(|r| match r {
                Ok(resp) => {
                    if let StudyResponse::Figure(series) = resp {
                        results.push(series.results.clone());
                    }
                    json(&resp.to_value())
                }
                Err(e) => format!("error: {e}"),
            })
            .collect();
        digest = results_digest(&results);
        match &reference {
            None => reference = Some(texts),
            Some(want) => {
                for (got, want) in texts.iter().zip(want) {
                    report.attempted += 1;
                    if got != want || got.starts_with("error") {
                        report.failed += 1;
                    }
                }
            }
        }
    }
    report.info(
        "window_samples_s",
        serde::Value::Array(walls.iter().map(|&w| serde::Value::Float(w)).collect()),
    );
    let wall = median(&mut walls);
    report.metric("wall_s", wall, "s");
    report.metric("cpu_s", median(&mut cpus), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric(
        "sim_minsts_per_s",
        executed_insts as f64 / wall / 1e6,
        "Minst/s",
    );
    report.metric("latency_p50_ms", median(&mut p50s), "ms");
    report.metric("latency_p99_ms", median(&mut p99s), "ms");
    report.metric("throughput_rps", reqs.len() as f64 / wall, "1/s");
    report.info("repetitions", serde::Value::UInt(p50s.len() as u64));
    report.info("results_digest", serde::Value::Str(digest));
    report.info("window_s", serde::Value::Float(wall));
}

/// The traced window: the same 33 runs and 44 pricings issued one level
/// below `Study::serve` (`StudyCtx::execute` through the study's own
/// `RunCache`, then `StudyCtx::price_pair`), each call a span; then,
/// outside the window, one run per benchmark split by replay.
fn traced(cfg: &StudyConfig, reqs: &[StudyRequest], mut log: SpanLog, report: &mut Report) {
    let study = Study::with_threads(*cfg, 1);
    let ctx = *study.ctx();
    let start = Instant::now();
    let window = log.record("window", start, start, None, 0);
    let mut runs = Vec::new();
    for (i, b) in Benchmark::ALL.into_iter().enumerate() {
        let mut raws = Vec::new();
        for (j, tech) in techniques().iter().enumerate() {
            let key = RunKey::of(b, tech, L2_LATENCY);
            let request = (i * 3 + j) as u64;
            let (raw, _) = log.time("sim.execute", Some(window), request, || {
                study
                    .cache()
                    .get_or_run(key, || ctx.execute(b, tech, L2_LATENCY))
            });
            raws.push(raw);
        }
        runs.push((b, raws));
    }
    let counters = study.cache().counters();
    let mut figures: Vec<Vec<RunResult>> = Vec::new();
    let mut pricing_failed = false;
    for _ in reqs {
        let mut results = Vec::new();
        for (i, (b, raws)) in runs.iter().enumerate() {
            let (Ok(base), Ok(drowsy), Ok(gated)) = (&raws[0], &raws[1], &raws[2]) else {
                pricing_failed = true;
                continue;
            };
            for (tech, raw) in techniques()[1..].iter().zip([drowsy, gated]) {
                let (priced, _) = log.time("price.pair", Some(window), i as u64, || {
                    ctx.price_pair(base, raw, tech, L2_LATENCY, *b, TEMPERATURE_C)
                });
                match priced {
                    Ok(r) => results.push(r),
                    Err(_) => pricing_failed = true,
                }
            }
        }
        figures.push(results);
    }
    let window_s = start.elapsed().as_secs_f64();
    log.set_end(window, Instant::now());

    // Correctness: the study's own Study::serve, now answering from the
    // memory tier the traced executions filled, must price identically.
    report.require(!pricing_failed, || {
        "figures_cold: a traced run or pricing failed".into()
    });
    for (req, mine) in reqs.iter().zip(&figures) {
        report.attempted += 1;
        let same = match study.serve(req) {
            Ok(StudyResponse::Figure(series)) => {
                json(&series.results.to_value()) == json(&mine.to_value())
            }
            _ => false,
        };
        if !same {
            report.failed += 1;
        }
    }
    report.require(
        counters.executions == 33 && counters.hits == 0 && counters.coalesced == 0,
        || format!("figures_cold traced: cache counters {counters:?}, expected 33/0/0"),
    );
    report.info(
        "results_digest",
        serde::Value::Str(results_digest(&figures)),
    );
    report.info("window_s", serde::Value::Float(window_s));

    // Per-layer split of one (baseline) run per benchmark, by replay.
    let split = split_by_replay(cfg, &mut log);

    let ms = |s: f64| s * 1e3;
    report.metric("specgen.gen_ms", ms(log.total("specgen.gen")), "ms");
    report.metric(
        "specgen.replay_ns_per_op",
        log.total("specgen.drain") * 1e9 / (split.ops as f64),
        "ns",
    );
    report.metric("sim.execute_ms", ms(log.total("sim.execute")), "ms");
    for (i, b) in Benchmark::ALL.into_iter().enumerate() {
        let secs: f64 = log
            .named("sim.execute")
            .filter(|s| s.request / 3 == i as u64)
            .map(|s| s.seconds())
            .sum();
        report.metric(format!("sim.execute_ms.{}", b.name()), ms(secs), "ms");
    }
    report.metric(
        "uarch.ns_per_inst",
        (log.total("uarch.core_run") - log.total("cachesim.replay")) * 1e9 / split.ops as f64,
        "ns",
    );
    report.metric(
        "cachesim.ns_per_access",
        log.total("cachesim.replay") * 1e9 / split.accesses as f64,
        "ns",
    );
    report.metric(
        "cachesim.ns_per_access.decay",
        log.total("cachesim.replay_decay") * 1e9 / split.accesses as f64,
        "ns",
    );
    let mut price_us: Vec<f64> = log
        .durations("price.pair")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let pairs = price_us.len();
    report.metric("price.us_per_pair", median(&mut price_us), "us");
    report.metric("price.pairs", pairs as f64, "count");
    report.metric("cache.executions", counters.executions as f64, "count");
    report.metric("cache.hits", counters.hits as f64, "count");
    report.metric("cache.coalesced", counters.coalesced as f64, "count");
    let explained = log.total("sim.execute") + log.total("price.pair");
    report.metric("trace.coverage_frac", explained / window_s, "ratio");
    report.info(
        "split_core_s",
        serde::Value::Float(log.total("uarch.core_run")),
    );
    report.info(
        "split_hierarchy_s",
        serde::Value::Float(log.total("cachesim.replay")),
    );
    report.info("spans", serde::Value::UInt(log.len() as u64));
    report.spans = Some(log);
}

/// Totals of the replay split.
struct Split {
    /// Instructions replayed per stage (all benchmarks).
    ops: u64,
    /// Hierarchy calls per hierarchy replay (all benchmarks).
    accesses: u64,
}

/// Splits one baseline run per benchmark into its layers by replay:
/// the trace drained alone (`specgen`), `Core::run` over the
/// pre-generated ops (core plus hierarchy), and the run's address
/// stream through `Hierarchy` alone at a CPI-scaled clock, with decay
/// off and on. `uarch` self time is the core run minus the hierarchy
/// replay.
fn split_by_replay(cfg: &StudyConfig, log: &mut SpanLog) -> Split {
    let mut split = Split {
        ops: 0,
        accesses: 0,
    };
    for b in Benchmark::ALL {
        let id = b as u64;
        let (ops, _) = log.time("specgen.drain", None, id, || {
            let mut trace = specgen::replay_trace(b, cfg.seed, cfg.insts);
            // Exactly `insts` reads: one more would run past the
            // buffered stream into live generation.
            (0..cfg.insts)
                .map_while(|_| trace.next_op())
                .collect::<Vec<MicroOp>>()
        });
        let hierarchy = || {
            Hierarchy::new(HierarchyConfig::table2(L2_LATENCY, None)).expect("table 2 hierarchy")
        };
        let mut core = Core::new(CoreConfig::table2(), hierarchy());
        let mut trace = VecTrace::new(ops.clone());
        let (stats, _) = log.time("uarch.core_run", None, id, || {
            core.run(&mut trace, cfg.insts)
        });
        let cpi = stats.cycles.get() as f64 / ops.len().max(1) as f64;
        let decay = Technique::drowsy(DEFAULT_DROWSY_INTERVAL).decay_config();
        let (accesses, _) = log.time("cachesim.replay", None, id, || {
            replay_hierarchy(hierarchy(), &ops, cpi)
        });
        log.time("cachesim.replay_decay", None, id, || {
            let h = Hierarchy::new(HierarchyConfig::table2(L2_LATENCY, decay))
                .expect("table 2 hierarchy with decay");
            replay_hierarchy(h, &ops, cpi)
        });
        split.ops += ops.len() as u64;
        split.accesses += accesses;
    }
    split
}

/// Drives `h` with the address stream of `ops` — a fetch per new code
/// line, a data access per load and store — at a clock advancing `cpi`
/// cycles per instruction; returns the number of hierarchy calls.
fn replay_hierarchy(mut h: Hierarchy, ops: &[MicroOp], cpi: f64) -> u64 {
    let mut calls = 0u64;
    let mut last_line = u64::MAX;
    let mut now = 0u64;
    for (i, op) in ops.iter().enumerate() {
        now = (i as f64 * cpi) as u64;
        let line = op.pc & !63;
        if line != last_line {
            black_box(h.inst_fetch(line, now));
            last_line = line;
            calls += 1;
        }
        match op.class {
            OpClass::Load => {
                black_box(h.data_access(op.mem_addr, AccessKind::Read, now));
                calls += 1;
            }
            OpClass::Store => {
                black_box(h.data_access(op.mem_addr, AccessKind::Write, now));
                calls += 1;
            }
            _ => {}
        }
    }
    black_box(h.finalize(now + 1));
    calls
}
