//! Poisoned-peer tests: a peer that ships damaged, substituted, or
//! mislabeled records must only ever cause a fleet-level miss (and
//! fall-through to the next peer or to compute) — never a wrong answer.
//!
//! These double as the CI negative smoke: with `--features
//! fleet-poison-bug` (remote recalls skip read-back verification) they
//! MUST fail, proving the verification path is load-bearing and the
//! tests would catch its removal. Mirrors runstore's
//! `store-corruption-bug` smoke.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use fleet::wire;
use fleet::{FleetRequest, FleetTier};
use runstore::{encode_record, RecordId};
use simcore::RemoteTier;

/// How a mock peer answers recall requests.
#[derive(Clone, Copy)]
enum Behavior {
    /// Serve the record faithfully.
    Honest,
    /// Serve the record with one payload byte flipped (checksum breaks).
    FlipPayloadByte,
    /// Serve a perfectly valid record — for a different key.
    WrongRecord,
    /// Claim a miss.
    Miss,
    /// Serve the honest record padded to 64 KiB, so its hex `record`
    /// line is twice the one-record reply cap.
    Oversized,
    /// Answer with a nesting bomb: 60,000 `[` on one line, under the
    /// reply cap but deep enough to overflow a recursive parser.
    Nested,
}

/// A single-threaded mock fleet peer speaking the wire protocol over
/// raw TCP, serving `behavior` for every recall of `(key, payload)`.
/// Returns its address; the listener thread exits when the test's
/// clients disconnect.
fn mock_peer(behavior: Behavior, key: Vec<u8>, payload: Vec<u8>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock peer");
    let addr = listener.local_addr().expect("mock addr").to_string();
    thread::spawn(move || {
        // One connection per test client is all the tests need.
        while let Ok((stream, _)) = listener.accept() {
            let key = key.clone();
            let payload = payload.clone();
            thread::spawn(move || serve_conn(&stream, behavior, &key, &payload));
        }
    });
    addr
}

fn serve_conn(stream: &TcpStream, behavior: Behavior, key: &[u8], payload: &[u8]) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream.try_clone().expect("clone");
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let (id, request) = match wire::parse_request_line(line.trim()) {
            Ok(parsed) => parsed,
            Err(e) => {
                let _ = writer.write_all(wire::err_line(0, &e).as_bytes());
                continue;
            }
        };
        let FleetRequest::Recall {
            key: asked,
            config_hash,
        } = request;
        let record_id = RecordId::of(&asked, config_hash);
        let record = match behavior {
            Behavior::Honest => Some(encode_record(record_id, key, payload)),
            Behavior::FlipPayloadByte => {
                let mut bytes = encode_record(record_id, key, payload);
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
                Some(bytes)
            }
            Behavior::WrongRecord => {
                // A checksum-intact record that answers a different
                // question: substitution, not damage.
                let other = b"other-key".to_vec();
                Some(encode_record(
                    RecordId::of(&other, config_hash),
                    &other,
                    b"someone else's timings",
                ))
            }
            Behavior::Oversized => {
                let mut bytes = encode_record(record_id, key, payload);
                bytes.resize(64 * 1024, 0);
                Some(bytes)
            }
            Behavior::Miss | Behavior::Nested => None,
        };
        let reply = match behavior {
            Behavior::Nested => format!("{}\n", "[".repeat(60_000)),
            _ => wire::record_line(id, record.as_deref()),
        };
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
        let _ = writer.flush();
    }
}

fn canonical() -> (Vec<u8>, Vec<u8>, RecordId) {
    let key = b"benchmark=gcc/interval=4096".to_vec();
    let payload = b"the one true timing result".to_vec();
    let id = RecordId::of(&key, 0xfeed);
    (key, payload, id)
}

#[test]
fn honest_peer_serves_a_verified_recall() {
    let (key, payload, id) = canonical();
    let tier = FleetTier::new([mock_peer(Behavior::Honest, key.clone(), payload.clone())]);
    assert_eq!(tier.recall(id, &key), Some(payload));
    let c = tier.counters();
    assert_eq!((c.hits, c.misses, c.rejected, c.peer_errors), (1, 0, 0, 0));
}

#[test]
fn poisoned_record_becomes_a_miss_never_a_wrong_answer() {
    let (key, payload, id) = canonical();
    let tier = FleetTier::new([mock_peer(
        Behavior::FlipPayloadByte,
        key.clone(),
        payload.clone(),
    )]);
    // The flipped byte breaks the FNV-1a checksum: read-back
    // verification must reject the record and report a fleet miss.
    // (Under `fleet-poison-bug` the tampered payload comes back as a
    // hit — this assertion is the negative smoke's tripwire.)
    assert_eq!(tier.recall(id, &key), None);
    let c = tier.counters();
    assert_eq!((c.hits, c.misses, c.rejected), (0, 1, 1));
}

#[test]
fn substituted_record_is_rejected_by_id_and_key_comparison() {
    let (key, payload, id) = canonical();
    let tier = FleetTier::new([mock_peer(
        Behavior::WrongRecord,
        key.clone(),
        payload.clone(),
    )]);
    // The shipped record is checksum-intact but answers a different
    // key: only the id + full-key comparison catches the substitution.
    assert_eq!(tier.recall(id, &key), None);
    let c = tier.counters();
    assert_eq!((c.hits, c.misses, c.rejected), (0, 1, 1));
}

#[test]
fn fleet_falls_through_a_poisoned_peer_to_an_honest_one() {
    let (key, payload, id) = canonical();
    let tier = FleetTier::new([
        mock_peer(Behavior::FlipPayloadByte, key.clone(), payload.clone()),
        mock_peer(Behavior::Honest, key.clone(), payload.clone()),
    ]);
    // Peer order is poisoned-first: the verified answer must still be
    // the honest one, with the poisoned attempt counted as rejected.
    assert_eq!(tier.recall(id, &key), Some(payload));
    let c = tier.counters();
    assert_eq!((c.hits, c.rejected, c.peers), (1, 1, 2));
}

#[test]
fn whole_fleet_miss_reports_a_miss() {
    let (key, payload, id) = canonical();
    let tier = FleetTier::new([
        mock_peer(Behavior::Miss, key.clone(), payload.clone()),
        mock_peer(Behavior::Miss, key.clone(), payload),
    ]);
    assert_eq!(tier.recall(id, &key), None);
    let c = tier.counters();
    assert_eq!((c.hits, c.misses, c.rejected, c.peer_errors), (0, 1, 0, 0));
}

#[test]
fn unreachable_peer_counts_an_error_and_falls_through() {
    let (key, payload, id) = canonical();
    // Bind-then-drop guarantees a dead address: connection refused.
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let tier = FleetTier::new([
        dead,
        mock_peer(Behavior::Honest, key.clone(), payload.clone()),
    ]);
    assert_eq!(tier.recall(id, &key), Some(payload));
    let c = tier.counters();
    assert_eq!((c.hits, c.peer_errors), (1, 1));
}

#[test]
fn oversized_reply_is_a_peer_error_and_falls_through() {
    let (key, payload, id) = canonical();
    let tier = FleetTier::new([
        mock_peer(Behavior::Oversized, key.clone(), payload.clone()),
        mock_peer(Behavior::Honest, key.clone(), payload.clone()),
    ]);
    // The reply line exceeds the one-record cap: the client stops
    // reading at the cap and drops the connection, so the padded record
    // is never parsed, let alone verified.
    assert_eq!(tier.recall(id, &key), Some(payload));
    let c = tier.counters();
    assert_eq!((c.hits, c.rejected, c.peer_errors), (1, 0, 1));
}

#[test]
fn nesting_bomb_reply_is_a_peer_error_and_falls_through() {
    let (key, payload, id) = canonical();
    let tier = FleetTier::new([
        mock_peer(Behavior::Nested, key.clone(), payload.clone()),
        mock_peer(Behavior::Honest, key.clone(), payload.clone()),
    ]);
    // The parser's depth limit turns the bomb into a framing error
    // instead of a stack overflow that would abort the whole process.
    assert_eq!(tier.recall(id, &key), Some(payload));
    let c = tier.counters();
    assert_eq!((c.hits, c.rejected, c.peer_errors), (1, 0, 1));
}
