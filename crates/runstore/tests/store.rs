//! Byte-level durability tests for the run store: round-trips, restart
//! reuse, torn-tail recovery, and flip-one-byte corruption detection.
//!
//! The corruption tests double as the CI negative smoke: with
//! `--cfg mutant="store-corruption-bug"` (recall skips read-back
//! verification) they MUST fail, proving the verification path is load-
//! bearing and the tests would catch its removal.

use std::fs;
use std::path::PathBuf;

use runstore::{RecordId, RunStore, RECORD_HEADER_BYTES, SEGMENT_MAGIC};

/// A fresh scratch directory under the system temp dir, unique per test
/// and per process (no tempdir crate in the workspace).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("runstore-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag ^ (i as u8)).collect()
}

/// The single segment file a test produced (fails if there are several).
fn only_segment(dir: &PathBuf) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "runs"))
        .collect();
    assert_eq!(segs.len(), 1, "expected exactly one segment in {dir:?}");
    segs.pop().expect("one segment")
}

#[test]
fn append_flush_recall_round_trips() {
    let dir = scratch("round-trip");
    let store = RunStore::open(&dir).expect("open");
    let key = b"benchmark=gcc/interval=4096".to_vec();
    let id = RecordId::of(&key, 0xc0ff_ee00);
    let body = payload(0x5a, 280);

    assert_eq!(store.recall(id, &key), None, "empty store misses");
    store.append(id, key.clone(), body.clone());
    store.flush();
    assert_eq!(store.recall(id, &key), Some(body.clone()));

    let c = store.counters();
    assert_eq!((c.hits, c.misses, c.appends), (1, 1, 1));
    assert_eq!(c.verify_failures, 0);
    assert_eq!(c.records, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restart_reuses_the_warm_store() {
    let dir = scratch("restart");
    let keys: Vec<Vec<u8>> = (0..16u8).map(|i| vec![b'k', i]).collect();
    {
        let store = RunStore::open(&dir).expect("open cold");
        for (i, key) in keys.iter().enumerate() {
            let id = RecordId::of(key, 7);
            store.append(id, key.clone(), payload(i as u8, 64 + i));
        }
        store.flush();
    } // dropped: flusher joined, records durable

    let warm = RunStore::open(&dir).expect("open warm");
    assert_eq!(warm.len(), keys.len());
    for (i, key) in keys.iter().enumerate() {
        let id = RecordId::of(key, 7);
        assert_eq!(
            warm.recall(id, key),
            Some(payload(i as u8, 64 + i)),
            "record {i} must survive restart bitwise-intact"
        );
    }
    let c = warm.counters();
    assert_eq!(c.hits, keys.len() as u64);
    assert_eq!(c.appends, 0, "warm recalls must not rewrite anything");
    assert_eq!(c.torn_records, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dropping_the_store_flushes_queued_appends() {
    let dir = scratch("drop-flush");
    let key = b"queued".to_vec();
    let id = RecordId::of(&key, 1);
    {
        let store = RunStore::open(&dir).expect("open");
        store.append(id, key.clone(), payload(9, 100));
        // No explicit flush: Drop must drain the queue before joining.
    }
    let store = RunStore::open(&dir).expect("reopen");
    assert_eq!(store.recall(id, &key), Some(payload(9, 100)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_skipped_and_earlier_records_survive() {
    let dir = scratch("torn-tail");
    let keys: Vec<Vec<u8>> = (0..3u8).map(|i| vec![b't', i]).collect();
    {
        let store = RunStore::open(&dir).expect("open");
        for (i, key) in keys.iter().enumerate() {
            store.append(RecordId::of(key, 3), key.clone(), payload(i as u8, 50));
        }
        store.flush();
    }
    // Crash mid-append: cut the last record short.
    let seg = only_segment(&dir);
    let len = fs::metadata(&seg).expect("segment metadata").len();
    let file = fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("open segment for truncation");
    file.set_len(len - 7).expect("truncate tail");
    drop(file);

    let store = RunStore::open(&dir).expect("open torn");
    let c = store.counters();
    assert_eq!(c.torn_records, 1, "the cut record is counted as torn");
    assert_eq!(store.len(), 2, "records before the tear stay indexed");
    for (i, key) in keys.iter().take(2).enumerate() {
        assert_eq!(
            store.recall(RecordId::of(key, 3), key),
            Some(payload(i as u8, 50))
        );
    }
    // The torn record reads as a miss and can be re-appended cleanly.
    let last = &keys[2];
    let last_id = RecordId::of(last, 3);
    assert_eq!(store.recall(last_id, last), None);
    store.append(last_id, last.clone(), payload(2, 50));
    store.flush();
    assert_eq!(store.recall(last_id, last), Some(payload(2, 50)));
    let _ = fs::remove_dir_all(&dir);
}

/// Flipping one payload byte must be caught by the read-back checksum:
/// the recall reads as a miss (never the damaged bytes), the entry is
/// invalidated, and a recompute-and-re-append serves the true payload
/// again. This is the test the `store-corruption-bug` feature must fail.
#[test]
fn flipped_payload_byte_is_detected_and_recomputed() {
    let dir = scratch("flip-byte");
    let key = b"corruptible-key".to_vec();
    let id = RecordId::of(&key, 11);
    let body = payload(0xa5, 280);
    {
        let store = RunStore::open(&dir).expect("open");
        store.append(id, key.clone(), body.clone());
        store.flush();
    }
    // Re-open on the intact file (the record is indexed), then flip one
    // byte in the middle of the stored payload — bit rot *after* open,
    // which only the per-recall read-back verification can catch. File
    // layout: segment magic, record header, key bytes, payload.
    let store = RunStore::open(&dir).expect("open damaged");
    let seg = only_segment(&dir);
    let mut bytes = fs::read(&seg).expect("read segment");
    let payload_at = SEGMENT_MAGIC.len() + RECORD_HEADER_BYTES + key.len() + body.len() / 2;
    bytes[payload_at] ^= 0x01;
    fs::write(&seg, &bytes).expect("write damaged segment");
    assert_eq!(
        store.recall(id, &key),
        None,
        "a damaged record must read as a miss, never as data"
    );
    let c = store.counters();
    assert_eq!(c.verify_failures, 1, "the damage is counted");
    assert_eq!(c.misses, 1);
    assert_eq!(c.hits, 0);

    // The caller's fall-through: recompute and re-append, after which the
    // recall serves the true payload, bitwise-equal to the original.
    store.append(id, key.clone(), body.clone());
    store.flush();
    assert_eq!(store.recall(id, &key), Some(body));
    let _ = fs::remove_dir_all(&dir);
}

/// Same contract for damage inside the *key* bytes: read-back compares
/// the full stored key against the caller's, so the flip reads as a miss.
#[test]
fn flipped_key_byte_is_detected() {
    let dir = scratch("flip-key");
    let key = b"key-under-test".to_vec();
    let id = RecordId::of(&key, 13);
    {
        let store = RunStore::open(&dir).expect("open");
        store.append(id, key.clone(), payload(1, 40));
        store.flush();
    }
    let store = RunStore::open(&dir).expect("open damaged");
    let seg = only_segment(&dir);
    let mut bytes = fs::read(&seg).expect("read segment");
    let key_at = SEGMENT_MAGIC.len() + RECORD_HEADER_BYTES + key.len() / 2;
    bytes[key_at] ^= 0x80;
    fs::write(&seg, &bytes).expect("write damaged segment");

    assert_eq!(store.recall(id, &key), None);
    assert_eq!(store.counters().verify_failures, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn invalidate_turns_an_entry_into_a_miss() {
    let dir = scratch("invalidate");
    let store = RunStore::open(&dir).expect("open");
    let key = b"decodes-badly".to_vec();
    let id = RecordId::of(&key, 17);
    store.append(id, key.clone(), payload(3, 30));
    store.flush();
    assert!(store.recall(id, &key).is_some());
    // The caller decoded the payload and rejected it: drop the entry.
    store.invalidate(id);
    assert_eq!(store.recall(id, &key), None);
    let c = store.counters();
    assert_eq!(c.verify_failures, 1);
    assert_eq!(c.records, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Two store handles on one directory (modelling two processes) each
/// append to their own segment; a fresh open sees the union.
#[test]
fn concurrent_openers_write_private_segments() {
    let dir = scratch("two-writers");
    let a = RunStore::open(&dir).expect("open a");
    let b = RunStore::open(&dir).expect("open b");
    let ka = b"from-a".to_vec();
    let kb = b"from-b".to_vec();
    a.append(RecordId::of(&ka, 1), ka.clone(), payload(0xaa, 20));
    b.append(RecordId::of(&kb, 1), kb.clone(), payload(0xbb, 20));
    a.flush();
    b.flush();
    drop(a);
    drop(b);

    let merged = RunStore::open(&dir).expect("open merged");
    assert_eq!(merged.len(), 2);
    assert_eq!(
        merged.recall(RecordId::of(&ka, 1), &ka),
        Some(payload(0xaa, 20))
    );
    assert_eq!(
        merged.recall(RecordId::of(&kb, 1), &kb),
        Some(payload(0xbb, 20))
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A foreign or half-created file in the store directory is ignored, not
/// a crash, and does not pollute the index.
#[test]
fn foreign_files_in_the_store_dir_are_ignored() {
    let dir = scratch("foreign");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join("seg-garbage.runs"), b"not a segment at all").expect("plant garbage");
    fs::write(dir.join("notes.txt"), b"unrelated").expect("plant bystander");
    let store = RunStore::open(&dir).expect("open");
    assert_eq!(store.len(), 0);
    let key = b"still-works".to_vec();
    let id = RecordId::of(&key, 2);
    store.append(id, key.clone(), payload(7, 25));
    store.flush();
    assert_eq!(store.recall(id, &key), Some(payload(7, 25)));
    let _ = fs::remove_dir_all(&dir);
}
