//! Two-node fleet tests: a cold node peered to a warm node serves
//! repeated sweeps off the fleet with **zero simulator executions** and
//! bitwise-equal responses, and the `recall` request kind rides the
//! server's envelope grammar — a miss before the peer computes, a
//! verified hit after.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use fleet::PeerClient;
use leakctl::Technique;
use simcore::storebytes::{config_hash, encode_key, encode_run};
use simcore::{FigureMetric, RecordId, RunKey, StudyConfig, StudyRequest};
use specgen::Benchmark;
use studyd::{Server, ServerConfig, TcpClient};

fn test_study_config() -> StudyConfig {
    StudyConfig {
        insts: 20_000,
        ..StudyConfig::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("studyd-fleet-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fleet_server(dir: &Path, peers: Vec<String>) -> Server {
    Server::start(
        test_study_config(),
        &ServerConfig {
            workers: 2,
            queue_capacity: 16,
            store_path: Some(dir.to_string_lossy().into_owned()),
            peers,
            ..ServerConfig::default()
        },
    )
    .expect("fleet server binds")
}

/// The figure sweep both nodes serve: every point of fig3 at two
/// latencies — enough distinct runs that a zero-execution repeat is
/// meaningful.
fn figure_sweep() -> Vec<StudyRequest> {
    [5, 11]
        .into_iter()
        .map(|l2_latency| StudyRequest::Figure {
            metric: FigureMetric::Savings,
            l2_latency,
            temperature_c: 110.0,
        })
        .collect()
}

#[test]
fn warm_peer_serves_cold_node_with_zero_executions() {
    let warm_dir = scratch("warm-peer-a");
    let cold_dir = scratch("warm-peer-b");

    // Warm node: compute the sweep once, then keep serving as a peer.
    let warm = fleet_server(&warm_dir, Vec::new());
    let warm_addr = warm.local_addr().to_string();
    let mut client = TcpClient::connect(&warm_addr).expect("connects warm");
    let reference: Vec<_> = figure_sweep()
        .iter()
        .map(|request| client.request_value(request).expect("warm sweep serves"))
        .collect();
    assert!(
        warm.stats_report().cache.executions > 0,
        "the warm node computed the sweep"
    );
    // Make the spills durable so fleet recalls can read them off disk.
    warm.study().flush_store();

    // Cold node: empty store, the warm node as its only peer. Every
    // run behind the repeated sweep must arrive over the fleet wire —
    // zero simulator executions — and reproduce the responses bitwise.
    let cold = fleet_server(&cold_dir, vec![warm_addr]);
    let mut client = TcpClient::connect(&cold.local_addr().to_string()).expect("connects cold");
    let served: Vec<_> = figure_sweep()
        .iter()
        .map(|request| client.request_value(request).expect("cold sweep serves"))
        .collect();
    assert_eq!(
        served, reference,
        "fleet recalls must reproduce the warm node's responses bitwise"
    );

    let report = cold.shutdown();
    assert_eq!(
        report.cache.executions, 0,
        "the whole sweep came off the fleet: {report:?}"
    );
    let fleet_report = report.fleet.expect("fleet tier attached");
    assert!(fleet_report.hits > 0, "{fleet_report:?}");
    assert_eq!(fleet_report.rejected, 0, "{fleet_report:?}");
    assert_eq!(fleet_report.peers, 1, "{fleet_report:?}");
    // Fleet hits spill into the local store: a restart of the cold node
    // would now serve from its own disk.
    let store_report = report.store.expect("store tier attached");
    assert!(store_report.appends > 0, "{store_report:?}");

    warm.shutdown();
    for dir in [&warm_dir, &cold_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A raw TCP conversation with a server: one request line out, one
/// reply line back.
struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn open(server: &Server) -> RawConn {
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout configures");
        RawConn {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn ask(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("writes");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reads");
        reply
    }
}

#[test]
fn fleet_requests_without_a_store_are_refused_inline() {
    let server = Server::start(
        test_study_config(),
        &ServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServerConfig::default()
        },
    )
    .expect("storeless server binds");
    let peer = PeerClient::new(server.local_addr().to_string());
    let err = peer
        .recall(RecordId::of(b"any-key", 1), b"any-key")
        .expect_err("refused");
    assert!(err.to_string().contains("no run store"), "{err}");
    // The raw wire line gets the same refusal, under its own id.
    let reply =
        RawConn::open(&server).ask(r#"{"id": 2, "recall": {"key": "00", "config_hash": 1}}"#);
    assert!(reply.contains("\"id\":2"), "{reply}");
    assert!(reply.contains("no run store"), "{reply}");
    server.shutdown();
}

#[test]
fn fleet_recall_misses_then_hits_after_the_peer_computes() {
    let dir = scratch("recall-lifecycle");
    let server = fleet_server(&dir, Vec::new());
    let peer = PeerClient::new(server.local_addr().to_string());
    // A run every figure computes: gzip's no-control baseline.
    let run_key = RunKey::of(Benchmark::Gzip, &Technique::none(), 5);
    let key = encode_key(&run_key);
    let id = RecordId::of(&key, config_hash(&test_study_config()));

    // Nothing computed yet: a recall is an honest peer-side miss.
    let miss = peer.recall(id, &key).expect("recall round-trips");
    assert_eq!(miss, None);

    // After the peer serves (and flushes) a request, the run is
    // recallable over the wire and verifies locally to the very payload
    // the peer computed.
    let mut client = TcpClient::connect(&server.local_addr().to_string()).expect("connects");
    client
        .request_value(&figure_sweep()[0])
        .expect("peer computes");
    server.study().flush_store();
    let computed = server
        .study()
        .cache()
        .get(&run_key)
        .expect("the figure computed gzip's baseline");
    let record = peer
        .recall(id, &key)
        .expect("recall round-trips")
        .expect("the peer serves the computed run");
    assert_eq!(
        runstore::verify_record(&record, id, &key),
        Some(encode_run(&computed))
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raw-wire smoke: the `recall` kind rides the same envelope grammar as
/// `study`/`stats`, and conflicting kinds are answered with errors,
/// connection kept open.
#[test]
fn fleet_wire_lines_share_the_envelope_grammar() {
    let dir = scratch("wire-smoke");
    let server = fleet_server(&dir, Vec::new());
    let mut conn = RawConn::open(&server);
    let recall = r#""recall": {"key": "00", "config_hash": 1}"#;

    // A conflicting request (stats + recall) is refused.
    let reply = conn.ask(&format!(r#"{{"id": 1, "stats": true, {recall}}}"#));
    assert!(reply.contains("\"err\""), "{reply}");

    // A recall on the same connection still answers: a peer-side miss.
    let reply = conn.ask(&format!(r#"{{"id": 2, {recall}}}"#));
    assert!(reply.contains("\"id\":2"), "{reply}");
    assert!(reply.contains("\"record\":null"), "{reply}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
