//! End-to-end tests of the study server: protocol robustness (malformed
//! JSON, oversized lines, half-closed sockets), queue backpressure,
//! cancellation, graceful drain, and the headline concurrency property —
//! N clients issuing overlapping requests coalesce their timing runs and
//! receive responses bitwise-identical to direct sequential
//! [`Study`](simcore::Study) execution.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use leakctl::TechniqueKind;
use serde::Serialize;
use simcore::adaptive::Controller;
use simcore::{Study, StudyConfig, StudyRequest};
use specgen::Benchmark;
use studyd::{Server, ServerConfig, SubmitError, TcpClient, WaitError, WireReply};

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
    // server's first served job silently loses its response, which shows
    // up here as a wait timeout.
    let server = start_server(2, 8);
    let client = server.client();
    let pendings: Vec<_> = (0..3)
        .map(|i| {
            client
                .submit(compare_request(1024 + 512 * i))
                .expect("queue has room")
        })
        .collect();
    for pending in &pendings {
        pending.wait(WAIT).expect("every job answers");
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 3, "{report:?}");
    assert_eq!(report.queue_depth, 0);
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
fn in_process_client_matches_tcp() {
    let server = start_server(2, 8);
    let addr = server.local_addr().to_string();
    let request = compare_request(4096);

    let in_process = server
        .client()
        .request(&request, WAIT)
        .expect("in-process serve")
        .to_value();
    let mut tcp = TcpClient::connect(&addr).expect("connects");
    let over_wire = tcp.request_value(&request).expect("tcp serve");
    assert_eq!(in_process, over_wire);

    // The identical request recalled everything from the shared cache.
    let report = server.shutdown();
    assert!(report.cache.hits > 0, "{report:?}");
}

#[test]
fn malformed_lines_get_errors_and_the_connection_survives() {
    let server = start_server(1, 8);
    let mut client = TcpClient::connect(&server.local_addr().to_string()).expect("connects");

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
    let mut client = TcpClient::connect(&server.local_addr().to_string()).expect("connects");

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
    let mut client = TcpClient::connect(&server.local_addr().to_string()).expect("connects");

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
fn half_closed_sockets_still_get_their_responses() {
    let server = start_server(2, 8);
    let mut client = TcpClient::connect(&server.local_addr().to_string()).expect("connects");

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
    let client = server.client();

    // Occupy the single worker long enough to fill the one queue slot.
    let heavy = client.submit(heavy_request()).expect("queue has room");
    let mut queued = Vec::new();
    let mut busy = None;
    for i in 0..50 {
        match client.submit(compare_request(1024 + 2048 * i)) {
            Ok(pending) => queued.push(pending),
            Err(SubmitError::Busy { queue_depth }) => {
                busy = Some(queue_depth);
                break;
            }
            Err(SubmitError::ShuttingDown) => panic!("server is running"),
        }
    }
    let depth = busy.expect("a capacity-1 queue behind a busy worker must refuse");
    assert_eq!(depth, 1);

    // Backpressure is advisory, not fatal: retrying eventually lands.
    let retried = client
        .request(&compare_request(512), WAIT)
        .expect("retry lands");
    assert!(matches!(retried, simcore::StudyResponse::Compare(_)));
    heavy.wait(WAIT).expect("heavy job finishes");

    let report = server.shutdown();
    assert!(report.rejected_busy >= 1, "{report:?}");
    assert_eq!(report.queue_depth, 0);
}

#[test]
fn cancelled_jobs_are_skipped_not_served() {
    let server = start_server(1, 8);
    let client = server.client();

    let heavy = client.submit(heavy_request()).expect("queue has room");
    let doomed = client
        .submit(compare_request(3072))
        .expect("queue has room");
    doomed.cancel();

    heavy.wait(WAIT).expect("heavy job finishes");
    let report = server.shutdown();
    assert!(report.cancelled >= 1, "{report:?}");
    assert!(
        doomed.wait(Duration::from_millis(10)).is_err(),
        "a cancelled job never answers"
    );
}

#[test]
fn shutdown_drains_every_accepted_job() {
    let server = start_server(1, 8);
    let client = server.client();
    let pendings: Vec<_> = (0..4)
        .map(|i| {
            client
                .submit(compare_request(1024 * (i + 1)))
                .expect("queue has room")
        })
        .collect();

    let report = server.shutdown();
    assert_eq!(report.completed, 4, "drain serves everything: {report:?}");
    for pending in &pendings {
        pending
            .wait(Duration::from_millis(100))
            .expect("response delivered during drain");
    }

    // After shutdown the queue refuses new work.
    assert!(matches!(
        client.submit(compare_request(999)),
        Err(SubmitError::ShuttingDown)
    ));
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
fn busy_retry_never_sleeps_past_the_deadline() {
    let server = start_server(1, 1);
    let client = server.client();

    // Occupy the worker and fill the single queue slot so the short
    // request below meets sustained backpressure.
    let heavy = client.submit(heavy_request()).expect("queue has room");
    let filler = loop {
        match client.submit(heavy_request()) {
            Ok(pending) => break pending,
            Err(SubmitError::Busy { .. }) => thread::sleep(Duration::from_millis(1)),
            Err(SubmitError::ShuttingDown) => panic!("server is running"),
        }
    };

    // Regression: the busy-retry loop used to sleep a full
    // RETRY_AFTER_MS (50 ms) regardless of how little budget remained,
    // so a 5 ms deadline returned ~50 ms late. The sleep is now clamped
    // to the remaining budget.
    let timeout = Duration::from_millis(5);
    let start = Instant::now();
    let result = client.request(&compare_request(512), timeout);
    let elapsed = start.elapsed();
    assert_eq!(result, Err(WaitError::TimedOut));
    assert!(
        elapsed < Duration::from_millis(40),
        "request slept past its {timeout:?} deadline: {elapsed:?}"
    );

    heavy.wait(WAIT).expect("heavy job finishes");
    filler.wait(WAIT).expect("filler finishes");
    server.shutdown();
}

#[test]
fn pipelined_sweep_matches_sequential_and_resolves_every_id() {
    // One worker and a 2-slot queue: a pipelined batch of 8 overflows
    // the queue, so the client's busy-retry/resend-under-fresh-id path
    // is exercised, not just the happy path.
    let server = start_server(1, 2);
    let addr = server.local_addr().to_string();
    let requests: Vec<StudyRequest> = (0..8).map(|i| compare_request(1024 + 512 * i)).collect();

    let mut pipelined_client = TcpClient::connect(&addr).expect("connects");
    let pipelined = pipelined_client
        .request_pipelined(&requests)
        .expect("every id resolves");
    assert_eq!(pipelined.len(), requests.len());

    let mut sequential_client = TcpClient::connect(&addr).expect("connects");
    for (request, from_pipeline) in requests.iter().zip(&pipelined) {
        let sequential = sequential_client.request_value(request).expect("serves");
        assert_eq!(&sequential, from_pipeline, "order or payload mismatch");
    }

    let report = server.shutdown();
    assert_eq!(report.completed, 2 * requests.len() as u64, "{report:?}");
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
