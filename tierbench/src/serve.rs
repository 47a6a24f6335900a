//! `serve_hot` and `serve_cold`: two closed-loop TCP clients replay
//! seeded campaigns of the whole request universe against a one-worker
//! `studyd` server.

use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use leakctl::{Technique, TechniqueKind};
use serde::Value;
use simcore::storebytes::{config_hash, decode_run, encode_key, encode_run};
use simcore::study::technique_of;
use simcore::{
    FigureMetric, RecordId, RemoteTier, RunKey, RunStore, Study, StudyConfig, StudyRequest,
    StudyResponse, DEFAULT_DROWSY_INTERVAL, DEFAULT_GATED_INTERVAL, SWEEP_INTERVALS,
};
use specgen::Benchmark;
use studyd::protocol::{ok_line, parse_line, parse_reply, study_line};
use studyd::{Server, ServerConfig, StatsReport, TcpClient, WireReply};

use crate::measure::{cpu_seconds, median, p99, peak_rss_mb, SpanLog, SplitMix};
use crate::report::Report;
use crate::{json, trace_seed, Mode, TEMPERATURE_C};

/// Instructions per run: reply cost does not depend on run length.
pub const INSTS: u64 = 20_000;
/// The two L2 latencies of the grid.
const LATENCIES: [u32; 2] = [5, 17];
/// The two techniques of the grid.
const KINDS: [TechniqueKind; 2] = [TechniqueKind::Drowsy, TechniqueKind::GatedVss];
/// Closed-loop clients (and connections).
const CLIENTS: usize = 2;
/// Latency samples reserved per window second (above any throughput
/// seen on the development host).
const SAMPLES_PER_SECOND: f64 = 4096.0;
/// Rounds of each per-call replay in the traced run.
const REPLAY_ROUNDS: usize = 4;

/// Which rung of the recall ladder serves the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Every run already in the server's memory tier.
    Hot,
    /// A fresh node per campaign: empty memory, half the runs on local
    /// disk, the other half recalled from a warm peer.
    Cold,
}

fn config(seed: u64) -> StudyConfig {
    StudyConfig {
        insts: INSTS,
        seed: trace_seed(seed),
        ..StudyConfig::default()
    }
}

/// The request universe in canonical order: every interval sweep, every
/// default-interval figure, and every single-point comparison of the
/// grid (benchmarks × techniques × L2 latencies × the 7-interval menu).
fn universe() -> Vec<StudyRequest> {
    let mut reqs = Vec::new();
    for b in Benchmark::ALL {
        for technique in KINDS {
            for l2_latency in LATENCIES {
                reqs.push(StudyRequest::IntervalSweep {
                    benchmark: b,
                    technique,
                    intervals: SWEEP_INTERVALS.to_vec(),
                    l2_latency,
                    temperature_c: TEMPERATURE_C,
                });
            }
        }
    }
    for metric in [FigureMetric::Savings, FigureMetric::PerfLoss] {
        for l2_latency in LATENCIES {
            reqs.push(StudyRequest::Figure {
                metric,
                l2_latency,
                temperature_c: TEMPERATURE_C,
            });
        }
    }
    for b in Benchmark::ALL {
        for technique in KINDS {
            for l2_latency in LATENCIES {
                for interval in SWEEP_INTERVALS {
                    reqs.push(StudyRequest::Compare {
                        benchmark: b,
                        technique,
                        interval,
                        l2_latency,
                        temperature_c: TEMPERATURE_C,
                    });
                }
            }
        }
    }
    reqs
}

/// Every run behind the universe, canonical order: per benchmark and
/// latency, the baseline then both techniques over the interval menu.
fn runs() -> Vec<(Benchmark, Technique, u32)> {
    let mut out = Vec::new();
    for b in Benchmark::ALL {
        for l2 in LATENCIES {
            out.push((b, Technique::none(), l2));
            for kind in KINDS {
                for interval in SWEEP_INTERVALS {
                    out.push((b, technique_of(kind, interval), l2));
                }
            }
        }
    }
    out
}

/// The priced (baseline, technique) pairs one campaign's replies cover.
fn pairs(reqs: &[StudyRequest]) -> Vec<(Benchmark, Technique, u32)> {
    let mut out = Vec::new();
    for req in reqs {
        match req {
            StudyRequest::Compare {
                benchmark,
                technique,
                interval,
                l2_latency,
                ..
            } => out.push((*benchmark, technique_of(*technique, *interval), *l2_latency)),
            StudyRequest::IntervalSweep {
                benchmark,
                technique,
                intervals,
                l2_latency,
                ..
            } => out.extend(
                intervals
                    .iter()
                    .map(|&i| (*benchmark, technique_of(*technique, i), *l2_latency)),
            ),
            StudyRequest::Figure { l2_latency, .. } => {
                for b in Benchmark::ALL {
                    out.push((b, Technique::drowsy(DEFAULT_DROWSY_INTERVAL), *l2_latency));
                    out.push((b, Technique::gated_vss(DEFAULT_GATED_INTERVAL), *l2_latency));
                }
            }
            StudyRequest::Adaptive { .. } => {}
        }
    }
    out
}

/// A request outside the universe whose two runs the peer also holds:
/// serving it on a fresh node opens the node's peer link during setup.
fn link_warmup() -> StudyRequest {
    StudyRequest::Compare {
        benchmark: Benchmark::Gcc,
        technique: TechniqueKind::Drowsy,
        interval: 1024,
        l2_latency: 11,
        temperature_c: TEMPERATURE_C,
    }
}

/// The reply payload as a client sees it: rendered to the wire, parsed
/// back, and re-serialized. Bitwise equality with this text is the gate.
fn wire_text(response: &StudyResponse) -> String {
    match parse_reply(&ok_line(0, response)) {
        Ok((_, WireReply::Ok(v))) => json(&v),
        _ => String::from("unparseable reference"),
    }
}

/// One request's outcome as a client saw it.
struct Outcome {
    request: usize,
    start: Instant,
    latency_s: f64,
    /// The `ok` payload, or why there was none.
    reply: Result<Value, String>,
}

/// Sends `order`'s requests one at a time, each only after the
/// previous reply. A `busy` reply is a failed request, not a retry.
fn drive(client: &mut TcpClient, reqs: &[StudyRequest], order: &[usize]) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(order.len());
    let mut dead = false;
    for &request in order {
        if dead {
            out.push(Outcome {
                request,
                start: Instant::now(),
                latency_s: 0.0,
                reply: Err("connection lost".into()),
            });
            continue;
        }
        let start = Instant::now();
        let reply = client
            .send_study(&reqs[request])
            .and_then(|id| Ok((id, client.read_reply()?)));
        let latency_s = start.elapsed().as_secs_f64();
        let reply = match reply {
            Ok((id, (got, WireReply::Ok(v)))) if id == got => Ok(v),
            Ok((_, (_, other))) => Err(format!("unexpected reply {other:?}")),
            Err(e) => {
                dead = true;
                Err(e.to_string())
            }
        };
        out.push(Outcome {
            request,
            start,
            latency_s,
            reply,
        });
    }
    out
}

/// One campaign: the seeded order dealt alternately to the clients,
/// which run concurrently in closed loop. Returns every outcome and the
/// campaign's wall time.
fn campaign(
    clients: &mut [TcpClient],
    reqs: &[StudyRequest],
    order: &[usize],
) -> (Vec<Outcome>, f64) {
    let shares: Vec<Vec<usize>> = (0..clients.len())
        .map(|c| {
            order
                .iter()
                .skip(c)
                .step_by(clients.len())
                .copied()
                .collect()
        })
        .collect();
    let start = Instant::now();
    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&shares)
            .map(|(client, share)| s.spawn(move || drive(client, reqs, share)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (outcomes, start.elapsed().as_secs_f64())
}

/// Opens the campaign's client connections and completes one `stats`
/// round trip on each, so the server's accept loop (which polls with a
/// sleep) has picked every connection up before any window starts.
fn connect(addr: &str) -> io::Result<Vec<TcpClient>> {
    let mut clients = (0..CLIENTS)
        .map(|_| TcpClient::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    for c in &mut clients {
        c.stats_value()?;
    }
    Ok(clients)
}

fn server_config(store: Option<&Path>, peers: Vec<String>) -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: 2 * CLIENTS,
        store_path: store.map(|p| p.to_string_lossy().into_owned()),
        peers,
        ..ServerConfig::default()
    }
}

/// Everything the campaigns share, built once per process.
struct Bench {
    cfg: StudyConfig,
    reqs: Vec<StudyRequest>,
    /// Wire-normalised reference reply per request.
    reference: Vec<String>,
    /// The sequential reference study (its cache holds every run).
    study: Study,
    /// Hot: the server whose memory tier holds every run. Cold: the
    /// warm peer.
    server: Server,
    /// Cold only: a store directory holding the fixed half of the runs.
    half_store: Option<PathBuf>,
}

fn build(tier: Tier, cfg: StudyConfig, dir: &Path) -> io::Result<Bench> {
    let reqs = universe();
    // The sequential reference: one engine thread, the same seed.
    let study = Study::with_threads(cfg, 1);
    let mut reference = Vec::with_capacity(reqs.len());
    for req in &reqs {
        let resp = study.serve(req).map_err(io::Error::other)?;
        reference.push(wire_text(&resp));
    }
    let (server, half_store) = match tier {
        Tier::Hot => {
            let server = Server::start(cfg, &server_config(None, Vec::new()))?;
            for req in &reqs {
                server.study().serve(req).map_err(io::Error::other)?;
            }
            (server, None)
        }
        Tier::Cold => {
            let peer_dir = dir.join("peer");
            let server = Server::start(cfg, &server_config(Some(&peer_dir), Vec::new()))?;
            for req in reqs.iter().chain([&link_warmup()]) {
                server.study().serve(req).map_err(io::Error::other)?;
            }
            server.study().flush_store();
            let half = dir.join("half");
            let store = RunStore::open(&half)?;
            let hash = config_hash(&cfg);
            for (b, tech, l2) in runs().into_iter().step_by(2) {
                let key = RunKey::of(b, &tech, l2);
                let raw = study
                    .cache()
                    .get(&key)
                    .ok_or_else(|| io::Error::other("run missing"))?;
                let key_bytes = encode_key(&key);
                store.append(RecordId::of(&key_bytes, hash), key_bytes, encode_run(&raw));
            }
            store.flush();
            drop(store);
            (server, Some(half))
        }
    };
    Ok(Bench {
        cfg,
        reqs,
        reference,
        study,
        server,
        half_store,
    })
}

/// A fresh cold node: a copy of the half store, the warm peer as its
/// only fleet peer, its peer link warmed, and its clients connected.
struct Node {
    server: Server,
    clients: Vec<TcpClient>,
    dir: PathBuf,
    /// Seconds the peer-link warm-up request took.
    link_s: f64,
}

fn start_node(bench: &Bench, dir: PathBuf) -> io::Result<Node> {
    let half = bench
        .half_store
        .as_ref()
        .expect("cold bench has a half store");
    std::fs::create_dir_all(&dir)?;
    for entry in std::fs::read_dir(half)? {
        let entry = entry?;
        std::fs::copy(entry.path(), dir.join(entry.file_name()))?;
    }
    let peers = vec![bench.server.local_addr().to_string()];
    let server = Server::start(bench.cfg, &server_config(Some(&dir), peers))?;
    let start = Instant::now();
    server
        .study()
        .serve(&link_warmup())
        .map_err(io::Error::other)?;
    let link_s = start.elapsed().as_secs_f64();
    let clients = connect(&server.local_addr().to_string())?;
    Ok(Node {
        server,
        clients,
        dir,
        link_s,
    })
}

/// In-window counter deltas of one campaign.
#[derive(Debug, Default, Clone, Copy)]
struct Deltas {
    executions: u64,
    hits: u64,
    coalesced: u64,
    completed: u64,
    failed: u64,
    rejected_busy: u64,
    service_s: f64,
    store_hits: u64,
    store_appends: u64,
    verify_failures: u64,
    fleet_hits: u64,
    fleet_rejected: u64,
    fleet_peer_errors: u64,
}

impl Deltas {
    fn between(a: &StatsReport, b: &StatsReport) -> Deltas {
        let service = |r: &StatsReport| -> f64 {
            r.kinds.iter().map(|k| k.latency.total_seconds.get()).sum()
        };
        let store = |r: &StatsReport| {
            r.store
                .map_or((0, 0, 0), |s| (s.hits, s.appends, s.verify_failures))
        };
        let fleet = |r: &StatsReport| {
            r.fleet
                .map_or((0, 0, 0), |f| (f.hits, f.rejected, f.peer_errors))
        };
        let (sa, sb, fa, fb) = (store(a), store(b), fleet(a), fleet(b));
        Deltas {
            executions: b.cache.executions - a.cache.executions,
            hits: b.cache.hits - a.cache.hits,
            coalesced: b.cache.coalesced - a.cache.coalesced,
            completed: b.completed - a.completed,
            failed: b.failed - a.failed,
            rejected_busy: b.rejected_busy - a.rejected_busy,
            service_s: service(b) - service(a),
            store_hits: sb.0 - sa.0,
            store_appends: sb.1 - sa.1,
            verify_failures: sb.2 - sa.2,
            fleet_hits: fb.0 - fa.0,
            fleet_rejected: fb.1 - fa.1,
            fleet_peer_errors: fb.2 - fa.2,
        }
    }

    fn add(&mut self, d: &Deltas) {
        self.executions += d.executions;
        self.hits += d.hits;
        self.coalesced += d.coalesced;
        self.completed += d.completed;
        self.failed += d.failed;
        self.rejected_busy += d.rejected_busy;
        self.service_s += d.service_s;
        self.store_hits += d.store_hits;
        self.store_appends += d.store_appends;
        self.verify_failures += d.verify_failures;
        self.fleet_hits += d.fleet_hits;
        self.fleet_rejected += d.fleet_rejected;
        self.fleet_peer_errors += d.fleet_peer_errors;
    }
}

/// What the window measured, summed over campaigns.
#[derive(Default)]
struct Window {
    campaigns: u64,
    wall_s: f64,
    cpu_s: f64,
    deltas: Deltas,
    /// Per request: (universe index, send instant, latency seconds).
    samples: Vec<(usize, Instant, f64)>,
    flush_ms: Vec<f64>,
    node_setup_s: Vec<f64>,
    link_ms: Vec<f64>,
}

pub fn run(tier: Tier, mode: Mode, seed: u64, seconds: f64, dir: &Path, report: &mut Report) {
    let started = Instant::now();
    let cfg = config(seed);
    let mut log = SpanLog::new();
    if mode == Mode::Trace {
        for b in Benchmark::ALL {
            log.time("specgen.gen", None, b as u64, || {
                black_box(specgen::replay_trace(b, cfg.seed, cfg.insts))
            });
        }
    }
    // Hot: the one server's clients. Cold: the first node.
    let setup = build(tier, cfg, dir).and_then(|bench| {
        let (hot, node) = match tier {
            Tier::Hot => (connect(&bench.server.local_addr().to_string())?, None),
            Tier::Cold => (Vec::new(), Some(start_node(&bench, dir.join("node-0"))?)),
        };
        Ok((bench, hot, node))
    });
    let (bench, mut hot, mut node) = match setup {
        Ok(s) => s,
        Err(e) => {
            report.violations.push(format!("setup failed: {e}"));
            return;
        }
    };
    report.metric("setup_s", started.elapsed().as_secs_f64(), "s");
    if mode != Mode::Setup {
        let mut w = window(&bench, &mut hot, &mut node, seed, seconds, dir, report);
        if mode == Mode::Trace {
            for &(request, start, latency_s) in &w.samples {
                let end = start + Duration::from_secs_f64(latency_s);
                log.record("client.request", start, end, None, request as u64);
            }
        }
        summarize(tier, mode, &bench, &mut w, &mut log, report);
    }
    if let Some(n) = node {
        stop_node(n);
    }
    drop(hot);
    bench.server.shutdown();
    if mode == Mode::Trace {
        report.spans = Some(log);
    }
}

/// Runs whole campaigns until their summed wall time reaches `seconds`.
/// Cold: each campaign on a fresh node, started (and stopped) outside
/// the window; the campaign ends when its write-behind spills are
/// durable.
fn window(
    bench: &Bench,
    hot: &mut [TcpClient],
    node: &mut Option<Node>,
    seed: u64,
    seconds: f64,
    dir: &Path,
    report: &mut Report,
) -> Window {
    let cold = bench.half_store.is_some();
    let mut w = Window::default();
    // Reserved up front, so RSS grows with the requests served instead of
    // jumping at each reallocation.
    w.samples.reserve((seconds * SAMPLES_PER_SECOND) as usize);
    while w.campaigns == 0 || w.wall_s < seconds {
        if cold && node.is_none() {
            let t = Instant::now();
            match start_node(bench, dir.join(format!("node-{}", w.campaigns))) {
                Ok(n) => *node = Some(n),
                Err(e) => {
                    report.violations.push(format!("node start failed: {e}"));
                    break;
                }
            }
            w.node_setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut order: Vec<usize> = (0..bench.reqs.len()).collect();
        SplitMix::new(seed, 100 + w.campaigns).shuffle(&mut order);
        let (server, clients) = match node.as_mut() {
            Some(n) => {
                w.link_ms.push(n.link_s * 1e3);
                (&n.server, &mut n.clients[..])
            }
            None => (&bench.server, &mut *hot),
        };
        let before = server.stats_report();
        let cpu0 = cpu_seconds();
        let (outcomes, mut wall) = campaign(clients, &bench.reqs, &order);
        if cold {
            let t = Instant::now();
            server.study().flush_store();
            let flush = t.elapsed().as_secs_f64();
            wall += flush;
            w.flush_ms.push(flush * 1e3);
        }
        w.cpu_s += cpu_seconds() - cpu0;
        w.wall_s += wall;
        w.campaigns += 1;
        w.deltas
            .add(&Deltas::between(&before, &server.stats_report()));
        for o in outcomes {
            report.attempted += 1;
            if !matches!(&o.reply, Ok(v) if json(v) == bench.reference[o.request]) {
                report.failed += 1;
            }
            w.samples.push((o.request, o.start, o.latency_s));
        }
        if let Some(n) = node.take_if(|_| cold) {
            stop_node(n);
        }
    }
    w
}

/// Checks the window's tier counts and reports the end-to-end metrics
/// (untraced) or the per-layer ones (traced).
fn summarize(
    tier: Tier,
    mode: Mode,
    bench: &Bench,
    w: &mut Window,
    log: &mut SpanLog,
    report: &mut Report,
) {
    let d = w.deltas;
    report.require(d.executions == 0, || {
        format!("{} executions inside the window", d.executions)
    });
    report.require(d.fleet_rejected == 0, || {
        format!("{} fleet records rejected", d.fleet_rejected)
    });
    report.require(d.verify_failures == 0, || {
        format!("{} store verify failures", d.verify_failures)
    });
    report.require(d.failed == 0 && d.rejected_busy == 0, || {
        format!(
            "server failed {} and refused {} requests",
            d.failed, d.rejected_busy
        )
    });
    if tier == Tier::Cold {
        let half = (runs().len() / 2) as u64 * w.campaigns;
        report.require(d.store_hits == half && d.fleet_hits == half, || {
            format!(
                "cold tiers: {} disk and {} fleet hits over {} campaigns, expected {half} each",
                d.store_hits, d.fleet_hits, w.campaigns
            )
        });
    }
    let mut latencies_ms: Vec<f64> = w.samples.iter().map(|s| s.2 * 1e3).collect();
    let requests = latencies_ms.len() as f64;
    let mean_latency_ms = latencies_ms.iter().sum::<f64>() / requests;
    let throughput = requests / w.wall_s;
    report.info("campaigns", Value::UInt(w.campaigns));
    report.info("requests", Value::UInt(latencies_ms.len() as u64));
    report.info("window_s", Value::Float(w.wall_s));
    report.info("throughput_rps", Value::Float(throughput));
    if !w.node_setup_s.is_empty() {
        report.info(
            "node_setup_s_median",
            Value::Float(median(&mut w.node_setup_s)),
        );
    }
    if mode == Mode::Trace {
        traced_layers(tier, bench, w, mean_latency_ms, log, report);
        return;
    }
    let distinct_runs = runs().len() as f64 * w.campaigns as f64;
    report.metric("wall_s", w.wall_s, "s");
    report.metric("cpu_s", w.cpu_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric(
        "sim_minsts_per_s",
        distinct_runs * INSTS as f64 / w.wall_s / 1e6,
        "Minst/s",
    );
    report.metric("latency_p50_ms", median(&mut latencies_ms), "ms");
    report.metric("latency_p99_ms", p99(&mut latencies_ms), "ms");
    report.metric("throughput_rps", throughput, "1/s");
}

fn stop_node(n: Node) {
    drop(n.clients);
    n.server.shutdown();
    let _ = std::fs::remove_dir_all(&n.dir);
}

/// Per-layer metrics of the traced run: counts and the service/wait
/// split from the window's `stats` deltas, per-call times from replaying
/// the window's distinct requests through each layer's public calls.
fn traced_layers(
    tier: Tier,
    bench: &Bench,
    w: &mut Window,
    mean_latency_ms: f64,
    log: &mut SpanLog,
    report: &mut Report,
) {
    let per_campaign = |n: u64| n as f64 / w.campaigns as f64;
    let d = w.deltas;
    let service_ms = d.service_s * 1e3 / d.completed.max(1) as f64;
    report.metric("studyd.service_ms", service_ms, "ms");
    report.metric("studyd.wait_ms", mean_latency_ms - service_ms, "ms");
    report.metric("studyd.rejected_busy", d.rejected_busy as f64, "count");
    report.metric("studyd.failed", d.failed as f64, "count");
    report.metric("cache.executions", per_campaign(d.executions), "count");
    report.metric("cache.hits", per_campaign(d.hits), "count");
    report.metric("cache.coalesced", per_campaign(d.coalesced), "count");
    report.metric("runstore.hits", per_campaign(d.store_hits), "count");
    report.metric("runstore.appends", per_campaign(d.store_appends), "count");
    report.metric(
        "runstore.verify_failures",
        d.verify_failures as f64,
        "count",
    );
    report.metric("fleet.hits", per_campaign(d.fleet_hits), "count");
    report.metric("fleet.rejected", d.fleet_rejected as f64, "count");
    report.metric("fleet.peer_errors", d.fleet_peer_errors as f64, "count");
    report.metric("specgen.gen_ms", log.total("specgen.gen") * 1e3, "ms");

    // Transport alone: `stats` is answered inline, never queued.
    if let Ok(mut c) = TcpClient::connect(&bench.server.local_addr().to_string()) {
        for i in 0..200 {
            log.time("studyd.stats_rtt", None, i, || {
                black_box(c.stats_value().is_ok())
            });
        }
    }
    let rtt_us = median_us(log, "studyd.stats_rtt");
    report.metric("studyd.rtt_us", rtt_us, "us");

    // Protocol parse and render of the campaign's distinct lines.
    let lines: Vec<String> = (bench.reqs.iter().enumerate())
        .map(|(i, r)| study_line(i as u64, r))
        .collect();
    let responses: Vec<StudyResponse> = (bench.reqs.iter())
        .filter_map(|r| bench.study.serve(r).ok())
        .collect();
    for _ in 0..REPLAY_ROUNDS {
        for (i, line) in lines.iter().enumerate() {
            log.time("studyd.parse", None, i as u64, || {
                black_box(parse_line(line)).is_ok()
            });
        }
        for (i, resp) in responses.iter().enumerate() {
            log.time("studyd.render", None, i as u64, || {
                black_box(ok_line(i as u64, resp))
            });
        }
    }
    let parse_us = median_us(log, "studyd.parse");
    let render_us = median_us(log, "studyd.render");
    report.metric("studyd.parse_us", parse_us, "us");
    report.metric("studyd.render_us", render_us, "us");

    // Pricing of every pair the campaign's replies cover.
    let ctx = *bench.study.ctx();
    let raw = |b: Benchmark, t: &Technique, l2: u32| bench.study.cache().get(&RunKey::of(b, t, l2));
    let campaign_pairs = pairs(&bench.reqs);
    for (i, (b, tech, l2)) in campaign_pairs.iter().enumerate() {
        let (Some(base), Some(run)) = (raw(*b, &Technique::none(), *l2), raw(*b, tech, *l2)) else {
            report
                .violations
                .push("a priced run is missing from the reference".into());
            continue;
        };
        log.time("price.pair", None, i as u64, || {
            black_box(ctx.price_pair(&base, &run, tech, *l2, *b, TEMPERATURE_C)).is_ok()
        });
    }
    let price_us = median_us(log, "price.pair");
    report.metric("price.us_per_pair", price_us, "us");
    report.metric("price.pairs", campaign_pairs.len() as f64, "count");

    // Codec: decoding every run the campaign touches.
    let hash = config_hash(&bench.cfg);
    let records: Vec<Record> = (runs().into_iter())
        .filter_map(|(b, t, l2)| {
            let key = encode_key(&RunKey::of(b, &t, l2));
            let payload = encode_run(&raw(b, &t, l2)?);
            Some(Record {
                id: RecordId::of(&key, hash),
                key,
                payload,
            })
        })
        .collect();
    for _ in 0..REPLAY_ROUNDS {
        for (i, r) in records.iter().enumerate() {
            log.time("codec.decode", None, i as u64, || {
                black_box(decode_run(&r.payload)).is_some()
            });
        }
    }
    let decode_us = median_us(log, "codec.decode");
    report.metric("codec.decode_us", decode_us, "us");

    // Layer self times per campaign, against the campaign's wall time.
    let mut explained_ms = campaign_pairs.len() as f64 * price_us / 1e3
        + bench.reqs.len() as f64 * (parse_us + render_us) / 1e3;
    let flush_ms = median(&mut w.flush_ms);
    report.metric("runstore.flush_ms", flush_ms, "ms");
    report.metric("fleet.connect_ms", median(&mut w.link_ms), "ms");
    if tier == Tier::Cold {
        let cold = cold_layers(bench, &records, log);
        report.metric("runstore.open_ms", cold.open_ms, "ms");
        report.metric("runstore.recall_us", cold.recall_us, "us");
        report.metric("fleet.recall_us", cold.fleet_us, "us");
        report.metric("fleet.recall_p99_us", cold.fleet_p99_us, "us");
        let half = (records.len() / 2) as f64;
        explained_ms += half * (cold.recall_us + cold.fleet_us) / 1e3
            + records.len() as f64 * decode_us / 1e3
            + flush_ms;
    }
    let campaign_ms = w.wall_s * 1e3 / w.campaigns as f64;
    report.metric("trace.coverage_frac", explained_ms / campaign_ms, "ratio");
    let pricing_ms = campaign_pairs.len() as f64 * price_us / 1e3;
    let service_per_campaign_ms = d.service_s * 1e3 / w.campaigns as f64;
    report.info(
        "price_share_of_service",
        Value::Float(pricing_ms / service_per_campaign_ms),
    );
}

/// One stored run: its content address, key bytes and payload bytes.
struct Record {
    id: RecordId,
    key: Vec<u8>,
    payload: Vec<u8>,
}

/// The median duration of every span named `name`, in microseconds.
fn median_us(log: &SpanLog, name: &str) -> f64 {
    let mut us: Vec<f64> = log.durations(name).iter().map(|s| s * 1e6).collect();
    median(&mut us)
}

/// Per-call times of the cold tiers.
struct ColdLayers {
    open_ms: f64,
    recall_us: f64,
    fleet_us: f64,
    fleet_p99_us: f64,
}

/// Cold-tier per-call replays: `RunStore::open` and `recall` on the half
/// store, and `FleetTier::recall` of every run against the warm peer.
fn cold_layers(bench: &Bench, records: &[Record], log: &mut SpanLog) -> ColdLayers {
    let half = bench
        .half_store
        .as_ref()
        .expect("cold bench has a half store");
    for i in 0..REPLAY_ROUNDS {
        let (store, _) = log.time("runstore.open", None, i as u64, || RunStore::open(half));
        let Ok(store) = store else { continue };
        // The half store holds every other run of the canonical order.
        for (j, r) in records.iter().enumerate().step_by(2) {
            log.time("runstore.recall", None, j as u64, || {
                black_box(store.recall(r.id, &r.key)).is_some()
            });
        }
    }
    let tier = fleet::FleetTier::new([bench.server.local_addr().to_string()]);
    // The first recall opens the link: setup, not a sample.
    let _ = tier.recall(records[0].id, &records[0].key);
    for _ in 0..REPLAY_ROUNDS {
        for (j, r) in records.iter().enumerate() {
            log.time("fleet.recall", None, j as u64, || {
                black_box(tier.recall(r.id, &r.key)).is_some()
            });
        }
    }
    let mut fleet_us: Vec<f64> = log
        .durations("fleet.recall")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    ColdLayers {
        open_ms: median_us(log, "runstore.open") / 1e3,
        recall_us: median_us(log, "runstore.recall"),
        fleet_us: median(&mut fleet_us),
        fleet_p99_us: p99(&mut fleet_us),
    }
}
