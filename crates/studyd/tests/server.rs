//! End-to-end tests of the study server, all over TCP: protocol
//! robustness (malformed JSON, oversized lines, newline-free streams,
//! half-closed sockets), queue backpressure, cancellation, graceful
//! drain, and the headline concurrency property — N clients issuing
//! overlapping requests coalesce their timing runs and receive responses
//! bitwise-identical to direct sequential [`Study`](simcore::Study)
//! execution.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use leakctl::TechniqueKind;
use serde::Serialize;
use simcore::adaptive::Controller;
use simcore::{Study, StudyConfig, StudyRequest};
use specgen::Benchmark;
use studyd::{Server, ServerConfig, StatsReport, TcpClient, WireReply, RETRY_AFTER_MS};

/// A deadline long enough for any test-sized request on a loaded 1-CPU
/// host, short enough that a lost response fails the suite instead of
/// hanging it.
const WAIT: Duration = Duration::from_secs(30);

fn test_study_config() -> StudyConfig {
    StudyConfig {
        insts: 20_000,
        ..StudyConfig::default()
    }
}

fn start_server(workers: usize, queue_capacity: usize) -> Server {
    Server::start(
        test_study_config(),
        &ServerConfig {
            workers,
            queue_capacity,
            ..ServerConfig::default()
        },
    )
    .expect("server binds an ephemeral port")
}

fn connect(server: &Server) -> TcpClient {
    TcpClient::connect(&server.local_addr().to_string()).expect("connects")
}

/// Polls the server's stats until `done` holds; fails after [`WAIT`].
fn wait_until(server: &Server, what: &str, done: impl Fn(&StatsReport) -> bool) {
    let deadline = Instant::now() + WAIT;
    loop {
        let report = server.stats_report();
        if done(&report) {
            return;
        }
        assert!(Instant::now() < deadline, "no {what}: {report:?}");
        thread::sleep(Duration::from_millis(2));
    }
}

fn compare_request(interval: u64) -> StudyRequest {
    StudyRequest::Compare {
        benchmark: Benchmark::Gzip,
        technique: TechniqueKind::Drowsy,
        interval,
        l2_latency: 11,
        temperature_c: 110.0,
    }
}

/// An interval sweep whose points all miss the cache: enough work to
/// keep a worker busy while other tests poke the queue.
fn heavy_request() -> StudyRequest {
    StudyRequest::IntervalSweep {
        benchmark: Benchmark::Mcf,
        technique: TechniqueKind::GatedVss,
        intervals: (0..16).map(|i| 1024 + 64 * i).collect(),
        l2_latency: 9,
        temperature_c: 85.0,
    }
}

#[test]
fn every_response_is_delivered() {
    // The CI negative smoke runs exactly this test with the seeded
    // `dropped-response-bug` mutant and requires it to FAIL: the
    // server's first served job silently loses its response, so the
    // connection closes one reply short.
    let server = start_server(2, 8);
    let mut client = connect(&server);
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            client
                .send_study(&compare_request(1024 + 512 * i))
                .expect("sends")
        })
        .collect();
    client.shutdown_write().expect("half-close");
    wait_until(&server, "3 accepted jobs", |r| r.accepted == 3);
    let report = server.shutdown();
    assert_eq!(report.completed, 3, "{report:?}");
    assert_eq!(report.queue_depth, 0);

    // Two workers answer in completion order; each reply names its id.
    let mut answered: Vec<u64> = ids
        .iter()
        .map(|_| {
            let (id, reply) = client.read_reply().expect("every job answers");
            assert!(matches!(reply, WireReply::Ok(_)), "{reply:?}");
            id
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, ids);
}

#[test]
fn tcp_response_matches_direct_study_execution() {
    let server = start_server(2, 8);
    let addr = server.local_addr().to_string();
    let request = compare_request(2048);

    let mut client = TcpClient::connect(&addr).expect("connects");
    let served = client.request_value(&request).expect("serves");

    let direct = Study::new(test_study_config())
        .serve(&request)
        .expect("direct execution")
        .to_value();
    assert_eq!(served, direct, "wire payload == direct StudyResponse");

    let report = server.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn malformed_lines_get_errors_and_the_connection_survives() {
    let server = start_server(1, 8);
    let mut client = connect(&server);

    // A nesting bomb just under the line cap: deep enough to overflow a
    // recursive parser's stack, which would abort the whole server.
    let bomb = "[".repeat(60_000);
    for bad in [
        "this is not json",
        "[1, 2, 3]",
        r#"{"id": 1}"#,
        r#"{"id": 2, "study": {"Frobnicate": {}}}"#,
        r#"{"id": 3, "study": {"Compare": {"benchmark": "NoSuchBench"}}}"#,
        &bomb,
    ] {
        client.send_raw_line(bad).expect("sends");
        let (id, reply) = client.read_reply().expect("server answers malformed input");
        assert_eq!(id, 0, "untrusted ids are echoed as 0: {bad}");
        assert!(matches!(reply, WireReply::Err(_)), "{bad}: {reply:?}");
    }

    // The connection is still usable for a real request afterwards.
    let value = client
        .request_value(&compare_request(1024))
        .expect("still serves");
    assert!(matches!(value, serde::Value::Object(_)));

    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 6, "{report:?}");
    assert_eq!(report.completed, 1);
}

#[test]
fn zero_instruction_adaptive_window_fails_and_the_connection_survives() {
    // A window of 0 instructions would never advance the closed loop; the
    // engine must refuse it instead of holding a worker forever.
    let server = start_server(1, 8);
    let mut client = connect(&server);

    let id = client
        .send_study(&StudyRequest::Adaptive {
            benchmark: Benchmark::Gzip,
            technique: TechniqueKind::GatedVss,
            controller: Controller::AdaptiveModeControl,
            window_insts: 0,
            l2_latency: 11,
        })
        .expect("sends");
    let (got_id, reply) = client.read_reply().expect("server answers");
    assert_eq!(got_id, id, "the error carries the request's id");
    match reply {
        WireReply::Err(msg) => assert!(msg.contains("window"), "{msg}"),
        other => panic!("expected err, got {other:?}"),
    }

    let value = client
        .request_value(&compare_request(1024))
        .expect("still serves");
    assert!(matches!(value, serde::Value::Object(_)));

    let report = server.shutdown();
    assert_eq!(report.failed, 1, "{report:?}");
    assert_eq!(report.completed, 1);
}

#[test]
fn oversized_lines_are_rejected_and_the_connection_closes() {
    let server = start_server(1, 8);
    let mut client = connect(&server);

    let huge = format!("{{\"id\": 1, \"pad\": \"{}\"}}", "x".repeat(70 * 1024));
    client.send_raw_line(&huge).expect("sends");
    let (id, reply) = client.read_reply().expect("server answers before closing");
    assert_eq!(id, 0);
    match reply {
        WireReply::Err(msg) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("expected err, got {other:?}"),
    }
    // Framing is unrecoverable: the server closes the connection.
    assert!(client.read_reply().is_err());

    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 1);
    assert_eq!(report.completed, 0);
}

#[test]
fn newline_free_stream_is_cut_off_at_the_line_cap() {
    // A client streaming bytes with no LF must be cut off once the line
    // passes MAX_LINE_BYTES, not buffered until the stream stops.
    let server = start_server(1, 2);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .set_write_timeout(Some(WAIT))
        .expect("timeout configures");
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent < 64 << 20 && stream.write_all(&chunk).is_ok() {
        sent += chunk.len();
    }
    assert!(
        sent < 16 << 20,
        "the server kept reading: {} MiB",
        sent >> 20
    );
    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 1, "{report:?}");
}

#[test]
fn half_closed_sockets_still_get_their_responses() {
    let server = start_server(2, 8);
    let mut client = connect(&server);

    let id = client.send_study(&compare_request(8192)).expect("sends");
    client.shutdown_write().expect("half-close");

    let (got_id, reply) = client
        .read_reply()
        .expect("response crosses the half-open socket");
    assert_eq!(got_id, id);
    assert!(matches!(reply, WireReply::Ok(_)), "{reply:?}");

    let report = server.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.cancelled, 0, "clean EOF must not cancel: {report:?}");
}

#[test]
fn concurrent_identical_clients_coalesce_and_match_sequential() {
    const CLIENTS: usize = 4;
    let server = start_server(CLIENTS, 16);
    let addr = server.local_addr().to_string();
    let request = compare_request(2048);

    // Raw sockets with the same correlation id, so equal responses are
    // byte-for-byte equal response *lines*.
    let line = studyd::protocol::study_line(1, &request);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let line = line.clone();
            thread::spawn(move || {
                let mut stream = TcpStream::connect(&addr).expect("connects");
                stream
                    .set_read_timeout(Some(WAIT))
                    .expect("timeout configures");
                stream.write_all(line.as_bytes()).expect("sends");
                let mut reader = BufReader::new(stream);
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("reads");
                reply
            })
        })
        .collect();
    let replies: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    assert!(replies.iter().all(|r| r == &replies[0]), "{replies:?}");

    let (_, parsed) = studyd::protocol::parse_reply(replies[0].trim()).expect("parses");
    let direct = Study::new(test_study_config())
        .serve(&request)
        .expect("direct execution")
        .to_value();
    match parsed {
        WireReply::Ok(value) => assert_eq!(value, direct),
        other => panic!("expected ok, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.completed, CLIENTS as u64);
    assert!(
        report.cache.hits + report.cache.coalesced > 0,
        "identical concurrent requests must share timing runs: {report:?}"
    );
}

#[test]
fn full_queue_answers_busy_and_recovers() {
    let server = start_server(1, 1);
    // Occupy the single worker, so the one queue slot stays taken.
    let mut heavy = connect(&server);
    let heavy_id = heavy.send_study(&heavy_request()).expect("sends");
    wait_until(&server, "heavy job in flight", |r| r.in_flight == 1);

    let mut client = connect(&server);
    let queued = client.send_study(&compare_request(1024)).expect("sends");
    wait_until(&server, "queued job", |r| r.accepted == 2);
    let refused = client.send_study(&compare_request(3072)).expect("sends");
    let (id, reply) = client.read_reply().expect("busy is answered inline");
    assert_eq!(id, refused, "busy carries the refused request's id");
    assert_eq!(
        reply,
        WireReply::Busy {
            retry_after_ms: RETRY_AFTER_MS,
            queue_depth: 1
        }
    );

    // Backpressure is advisory, not fatal: retrying eventually lands.
    let retried = connect(&server)
        .request_value(&compare_request(512))
        .expect("retry lands");
    assert!(matches!(retried, serde::Value::Object(_)));
    for (conn, id) in [(&mut client, queued), (&mut heavy, heavy_id)] {
        let (got_id, reply) = conn.read_reply().expect("accepted jobs answer");
        assert_eq!(got_id, id);
        assert!(matches!(reply, WireReply::Ok(_)), "{reply:?}");
    }

    let report = server.shutdown();
    assert!(report.rejected_busy >= 1, "{report:?}");
    assert_eq!(report.queue_depth, 0);
}

#[test]
fn cancelled_jobs_are_skipped_not_served() {
    let server = start_server(1, 8);
    let mut heavy = connect(&server);
    let heavy_id = heavy.send_study(&heavy_request()).expect("sends");
    wait_until(&server, "heavy job in flight", |r| r.in_flight == 1);

    // A second connection queues a job behind the heavy one, then dies.
    // Closing a socket that holds unread bytes (the inline stats reply)
    // sends RST instead of FIN, so the server's read fails: a dead
    // connection, not a clean EOF, and its queued job is cancelled.
    let mut doomed = TcpStream::connect(server.local_addr()).expect("connects");
    doomed
        .set_read_timeout(Some(WAIT))
        .expect("timeout configures");
    let lines = studyd::protocol::stats_request_line(1)
        + &studyd::protocol::study_line(2, &compare_request(3072));
    doomed.write_all(lines.as_bytes()).expect("sends");
    wait_until(&server, "doomed job queued", |r| r.accepted == 2);
    doomed.peek(&mut [0u8; 1]).expect("the stats reply arrives");
    drop(doomed);

    let (id, reply) = heavy.read_reply().expect("heavy job finishes");
    assert_eq!(id, heavy_id);
    assert!(matches!(reply, WireReply::Ok(_)), "{reply:?}");
    let report = server.shutdown();
    assert_eq!(report.cancelled, 1, "{report:?}");
    assert_eq!(report.completed, 1, "{report:?}");
    assert_counters_partition_accepted(&report);
}

#[test]
fn a_reply_to_a_reset_connection_counts_once_as_undelivered() {
    let server = start_server(1, 8);
    // The connection resets (see above) while its own job is in service,
    // so the worker serves it and then fails to write the reply.
    let mut doomed = TcpStream::connect(server.local_addr()).expect("connects");
    doomed
        .set_read_timeout(Some(WAIT))
        .expect("timeout configures");
    let lines = studyd::protocol::stats_request_line(1)
        + &studyd::protocol::study_line(2, &heavy_request());
    doomed.write_all(lines.as_bytes()).expect("sends");
    wait_until(&server, "doomed job in service", |r| r.in_flight == 1);
    doomed.peek(&mut [0u8; 1]).expect("the stats reply arrives");
    drop(doomed);

    let report = server.shutdown();
    assert_eq!(report.undelivered, 1, "{report:?}");
    assert_eq!(report.completed, 0, "{report:?}");
    assert_counters_partition_accepted(&report);
}

/// Every accepted job ends in exactly one outcome counter.
fn assert_counters_partition_accepted(report: &StatsReport) {
    assert_eq!(
        report.completed + report.failed + report.cancelled + report.undelivered,
        report.accepted,
        "{report:?}"
    );
}

#[test]
fn shutdown_drains_every_accepted_job() {
    let server = start_server(1, 8);
    let mut client = connect(&server);
    let ids: Vec<u64> = (0..4)
        .map(|i| {
            client
                .send_study(&compare_request(1024 * (i + 1)))
                .expect("sends")
        })
        .collect();
    wait_until(&server, "4 accepted jobs", |r| r.accepted == 4);

    let report = server.shutdown();
    assert_eq!(report.completed, 4, "drain serves everything: {report:?}");
    // One worker answers in queue order.
    for id in ids {
        let (got_id, reply) = client
            .read_reply()
            .expect("response delivered during drain");
        assert_eq!(got_id, id);
        assert!(matches!(reply, WireReply::Ok(_)), "{reply:?}");
    }
}

#[test]
fn stats_are_served_inline_and_carry_cache_counters() {
    let server = start_server(2, 8);
    let addr = server.local_addr().to_string();

    let mut client = TcpClient::connect(&addr).expect("connects");
    client
        .request_value(&compare_request(2048))
        .expect("serves");
    client
        .request_value(&compare_request(2048))
        .expect("serves again");

    let stats = client.stats_value().expect("stats");
    let fields = match &stats {
        serde::Value::Object(fields) => fields,
        other => panic!("stats must be an object: {other:?}"),
    };
    let get = |name: &str| {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing {name}: {stats:?}"))
    };
    assert_eq!(get("completed"), serde::Value::UInt(2));
    assert_eq!(get("queue_depth"), serde::Value::UInt(0));
    match get("cache") {
        serde::Value::Object(cache) => {
            let hits = cache
                .iter()
                .find(|(k, _)| k == "hits")
                .map(|(_, v)| v.clone());
            assert_eq!(hits, Some(serde::Value::UInt(2)), "{cache:?}");
        }
        other => panic!("cache must be an object: {other:?}"),
    }
    match get("kinds") {
        serde::Value::Array(kinds) => assert_eq!(kinds.len(), 4),
        other => panic!("kinds must be an array: {other:?}"),
    }

    // The typed in-process report agrees.
    let report = server.stats_report();
    assert_eq!(report.completed, 2);
    assert_eq!(report.kinds[0].kind, "compare");
    assert!(report.kinds[0].latency.count == 2);
    assert!(report.kinds[0].latency.total_seconds.get() > 0.0);
    server.shutdown();
}

#[test]
fn warm_store_restart_serves_repeats_with_zero_executions() {
    let dir = std::env::temp_dir().join(format!("studyd-warm-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 8,
        store_path: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let request = compare_request(2048);

    let cold_server = Server::start(test_study_config(), &config).expect("cold server starts");
    let mut client = TcpClient::connect(&cold_server.local_addr().to_string()).expect("connects");
    let cold = client.request_value(&request).expect("cold serve");
    let direct = Study::new(test_study_config())
        .serve(&request)
        .expect("direct execution")
        .to_value();
    assert_eq!(cold, direct, "store-backed reply != store-less study");
    let cold_report = cold_server.shutdown();
    let cold_store = cold_report.store.expect("store tier attached");
    assert!(cold_store.appends > 0, "cold runs persist: {cold_store:?}");
    assert_eq!(cold_store.hits, 0, "{cold_store:?}");

    // A fresh process image: new server, same directory. Every timing
    // run behind the repeated request must come off disk — with a store
    // attached each *computed* run appends, so appends == 0 proves zero
    // simulator executions.
    let warm_server = Server::start(test_study_config(), &config).expect("warm server starts");
    let mut client = TcpClient::connect(&warm_server.local_addr().to_string()).expect("connects");
    let warm = client.request_value(&request).expect("warm serve");
    assert_eq!(warm, cold, "restart must reproduce the response bitwise");
    let warm_report = warm_server.shutdown();
    let warm_store = warm_report.store.expect("store tier attached");
    assert_eq!(
        warm_store.appends, 0,
        "warm store must serve repeats without executing: {warm_store:?}"
    );
    assert!(warm_store.hits > 0, "{warm_store:?}");
    assert_eq!(warm_store.verify_failures, 0, "{warm_store:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_with_no_data_times_out_instead_of_hanging() {
    let server = start_server(1, 2);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout configures");
    let mut byte = [0u8; 1];
    // The server never volunteers bytes; an idle connection just waits.
    assert!(stream.read(&mut byte).is_err());
    server.shutdown();
}
