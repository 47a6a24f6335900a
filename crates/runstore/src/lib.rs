//! Persistent content-addressed store of timing-run records.
//!
//! One warm store serves a fleet of cheap clients: separate figure jobs,
//! `studyd` restarts, and concurrent server processes all reuse each
//! other's simulation results instead of recomputing them. The store is
//! deliberately generic — it maps a *content address* (a stable 64-bit
//! key hash plus a simulator-config hash, with the full canonical key
//! bytes stored alongside for collision safety) to an opaque payload —
//! so this crate depends on nothing and the engine crate owns the codec.
//!
//! ## Durability model
//!
//! * **Append-only segments.** Records are only ever appended, each
//!   framed by a fixed header carrying its lengths and an FNV-1a
//!   checksum over the whole record. Nothing is rewritten in place, so a
//!   crash can only damage the *tail* of the segment being written.
//! * **Per-process segments.** Every opener appends to its own fresh
//!   segment file (named with the process id), never to a scanned one,
//!   so concurrent processes sharing a store directory cannot interleave
//!   writes inside one file.
//! * **Scan-rebuilt index.** [`RunStore::open`] scans every segment and
//!   rebuilds the in-memory index; a torn or corrupt record ends the
//!   scan of that segment (the tail is ignored, counted in
//!   [`StoreCounters::torn_records`]) without poisoning earlier records.
//! * **Read-back verification.** Every [`RunStore::recall`] re-reads the
//!   record from disk and verifies magic, version, lengths, checksum,
//!   and the full key bytes. Any mismatch is treated as a miss — the
//!   entry is dropped from the index and the caller recomputes — so a
//!   damaged record is *never* returned. (The `store-corruption-bug`
//!   mutant seeds the obvious bug — skipping verification — for the CI
//!   negative smoke; the corruption and poisoned-peer tests must fail
//!   under it.)
//! * **Synchronous appends.** [`RunStore::append`] writes the framed
//!   record to the process-private segment on the caller's thread, under
//!   one segment mutex, and publishes the index entry only once the
//!   write has succeeded, so a racing recall sees a clean miss or the
//!   whole record. The record is in the segment file when `append`
//!   returns; [`RunStore::flush`] has nothing left to wait for.
//! * **No reclamation.** Invalidated and duplicate records stay on disk
//!   as dead bytes; nothing rewrites or deletes a segment, so a store
//!   directory only grows. Deleting it is always safe — every record
//!   can be recomputed.
//! * **Fleet recall.** [`RunStore::export_record`] hands a peer the raw
//!   encoded bytes of one record, unverified. The *requesting* side runs
//!   the same [`verify_record`] a local recall runs before trusting a
//!   byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"RUNSEG01";

/// Magic opening every record header (`"RREC"` little-endian).
pub const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"RREC");

/// On-disk format version; bump on any layout or codec change so stale
/// stores read as empty instead of as garbage.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed record-header size, bytes: magic, version, key hash, config
/// hash, key length, payload length, checksum.
pub const RECORD_HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 4 + 4 + 8;

/// Sanity bound on one canonical key, bytes. Anything larger is framing
/// damage, not a key.
pub const MAX_KEY_BYTES: u32 = 4 * 1024;

/// Sanity bound on one payload, bytes.
pub const MAX_PAYLOAD_BYTES: u32 = 16 * 1024 * 1024;

/// Rotate to a fresh segment once the current one exceeds this many
/// bytes, keeping open-time scans cheap per file.
pub const SEGMENT_ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// 64-bit FNV-1a over `bytes` — the store's stable hash. Unlike
/// `DefaultHasher`, its output is pinned by this crate, so hashes written
/// today are valid addresses tomorrow.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The content address of one record: a stable hash of the canonical key
/// bytes plus a hash of the simulator configuration that produced the
/// payload. Two records agree only if both hashes do — and the recall
/// path still compares the full key bytes, so even a double hash
/// collision cannot alias two different runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Stable hash of the canonical key bytes ([`fnv1a64`]).
    pub key_hash: u64,
    /// Hash of the simulator configuration (the caller's contract: any
    /// config change that alters simulation output changes this hash).
    pub config_hash: u64,
}

impl RecordId {
    /// The id addressing `key` under `config_hash`.
    pub fn of(key: &[u8], config_hash: u64) -> Self {
        RecordId {
            key_hash: fnv1a64(key),
            config_hash,
        }
    }
}

/// A point-in-time snapshot of store traffic. Counters are relaxed
/// atomics: approximate while appends are in flight, exact once the
/// store is quiescent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Recalls answered with a verified payload.
    pub hits: u64,
    /// Recalls that found no (valid) record.
    pub misses: u64,
    /// Recalls whose read-back verification failed (checksum, framing,
    /// or key mismatch) — each one was turned into a miss.
    pub verify_failures: u64,
    /// Records accepted for appending (each one written unless the
    /// filesystem refused it).
    pub appends: u64,
    /// Torn or corrupt tail records skipped while scanning on open.
    pub torn_records: u64,
    /// Records currently addressable through the index.
    pub records: u64,
    /// Segment files known (scanned plus created).
    pub segments: u64,
}

/// Where one record lives on disk.
#[derive(Debug, Clone)]
struct Loc {
    path: Arc<PathBuf>,
    offset: u64,
    len: u32,
}

/// A poisoned store mutex means a peer thread panicked; the guarded
/// state (the index map, the open segment) is never left torn, so keep
/// going.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The persistent run store. See the crate docs for the format and the
/// durability model.
pub struct RunStore {
    dir: PathBuf,
    index: Mutex<HashMap<RecordId, Loc>>,
    /// This process's open segment, created on the first append. Every
    /// write happens under this mutex.
    segment: Mutex<Option<OpenSegment>>,
    hits: AtomicU64,
    misses: AtomicU64,
    verify_failures: AtomicU64,
    appends: AtomicU64,
    torn_records: AtomicU64,
    segments: AtomicU64,
}

impl fmt::Debug for RunStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunStore")
            .field("dir", &self.dir)
            .field("records", &self.len())
            .finish()
    }
}

impl RunStore {
    /// Opens (creating if needed) the store rooted at `dir`: scans every
    /// segment and rebuilds the index.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] if the directory cannot be created or read.
    /// Individual damaged segments are not errors — their readable prefix
    /// is indexed and the torn tail is counted and skipped.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<RunStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut index = HashMap::new();
        let mut torn = 0u64;
        let mut segments = 0u64;
        // Lexicographic order is creation order (zero-padded stamps),
        // so later segments override earlier ones in the index.
        for path in list_segments(&dir)? {
            segments += 1;
            torn += scan_segment(&path, &mut index)?;
        }
        Ok(RunStore {
            dir,
            index: Mutex::new(index),
            segment: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            torn_records: AtomicU64::new(torn),
            segments: AtomicU64::new(segments),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of records currently addressable through the index.
    pub fn len(&self) -> usize {
        lock(&self.index).len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            torn_records: self.torn_records.load(Ordering::Relaxed),
            records: self.len() as u64,
            segments: self.segments.load(Ordering::Relaxed),
        }
    }

    /// Recalls the payload stored under `id`, read back from disk and
    /// verified (framing, checksum, and byte-for-byte key equality
    /// against `key`). Any damage or mismatch drops the index entry,
    /// counts a verify failure, and reads as a miss — the caller
    /// recomputes and re-appends; a damaged payload is never returned.
    pub fn recall(&self, id: RecordId, key: &[u8]) -> Option<Vec<u8>> {
        let loc = match lock(&self.index).get(&id) {
            Some(loc) => loc.clone(),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let bytes = read_record_bytes(&loc).ok();
        match bytes.and_then(|b| verify_record(&b, id, key)) {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                self.invalidate(id);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Drops `id` from the index and counts a verify failure. Exposed so
    /// callers that decode payloads can treat a payload that fails *their*
    /// decoding as damaged too (the payload is opaque to the store).
    pub fn invalidate(&self, id: RecordId) {
        let removed = lock(&self.index).remove(&id).is_some();
        if removed {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends one record to this process's segment and returns once it
    /// is written. The index entry is published only after the write
    /// succeeds, so until then a recall of `id` misses. Oversized keys
    /// or payloads, and records the filesystem refuses, are silently
    /// dropped — the store is a cache, and the caller's compute path
    /// remains correct without it.
    pub fn append(&self, id: RecordId, key: Vec<u8>, payload: Vec<u8>) {
        if key.len() > MAX_KEY_BYTES as usize || payload.len() > MAX_PAYLOAD_BYTES as usize {
            return;
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        let bytes = encode_record(id, &key, &payload);
        let mut segment = lock(&self.segment);
        if let Some(loc) = self.write_record(&mut segment, &bytes) {
            lock(&self.index).insert(id, loc);
        }
    }

    /// Does nothing: every append is in its segment file when
    /// [`RunStore::append`] returns. Callers still call it before handing
    /// the directory to another process, because this is the one place
    /// where a crash-consistent store would `sync_data` the segment.
    pub fn flush(&self) {}

    /// Reads the raw encoded bytes (header, key, payload) of the record
    /// stored under `id`, for serving a fleet recall. The bytes are
    /// shipped as-is — the *requesting* side runs the checksum and key
    /// verification, so a locally damaged record is rejected remotely
    /// exactly as it would be locally. Returns `None` on a miss or any
    /// read failure.
    pub fn export_record(&self, id: RecordId) -> Option<Vec<u8>> {
        let loc = lock(&self.index).get(&id)?.clone();
        read_record_bytes(&loc).ok()
    }

    /// Writes one encoded record, rotating or creating the
    /// process-private segment as needed. Returns the record's location,
    /// or `None` if the filesystem refused (the store is a cache; a
    /// failed write is not fatal).
    fn write_record(&self, segment: &mut Option<OpenSegment>, bytes: &[u8]) -> Option<Loc> {
        if segment
            .as_ref()
            .is_some_and(|s| s.len >= SEGMENT_ROTATE_BYTES)
        {
            *segment = None;
        }
        if segment.is_none() {
            *segment = create_segment(&self.dir).ok();
            if segment.is_some() {
                self.segments.fetch_add(1, Ordering::Relaxed);
            }
        }
        let seg = segment.as_mut()?;
        let offset = seg.len;
        if seg
            .file
            .write_all(bytes)
            .and_then(|()| seg.file.flush())
            .is_err()
        {
            // The segment is now suspect; drop it so the next write starts
            // fresh rather than appending after a partial record.
            *segment = None;
            return None;
        }
        seg.len += bytes.len() as u64;
        Some(Loc {
            path: Arc::clone(&seg.path),
            offset,
            len: bytes.len() as u32,
        })
    }
}

struct OpenSegment {
    file: fs::File,
    path: Arc<PathBuf>,
    len: u64,
}

/// Creates a fresh process-private segment file (never appends to a
/// scanned one, so concurrent store processes cannot interleave).
fn create_segment(dir: &Path) -> io::Result<OpenSegment> {
    let pid = std::process::id();
    for attempt in 0u32.. {
        let name = format!("seg-{:016x}-{pid:08x}.runs", segment_stamp(attempt));
        let path = dir.join(name);
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                file.write_all(SEGMENT_MAGIC)?;
                file.flush()?;
                return Ok(OpenSegment {
                    file,
                    path: Arc::new(path),
                    len: SEGMENT_MAGIC.len() as u64,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists && attempt < 1024 => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("the retry loop above always returns")
}

/// Monotonic-enough segment stamp: wall-clock microseconds since the
/// epoch, perturbed by the attempt counter on name collisions. Ordering
/// only affects which duplicate record wins the index scan, never
/// correctness (duplicates of one key hold identical payloads).
fn segment_stamp(attempt: u32) -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
        .wrapping_add(u64::from(attempt))
}

/// Every segment file under `dir`, sorted lexicographically — which is
/// creation-stamp order, the order the open-time scan relies on.
fn list_segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut names: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == "runs")
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("seg-"))
        })
        .collect();
    names.sort();
    Ok(names)
}

/// Reads the raw bytes of one located record.
fn read_record_bytes(loc: &Loc) -> Result<Vec<u8>, &'static str> {
    let mut file = fs::File::open(loc.path.as_path()).map_err(|_| "segment unreadable")?;
    file.seek(SeekFrom::Start(loc.offset))
        .map_err(|_| "seek failed")?;
    let mut buf = vec![0u8; loc.len as usize];
    file.read_exact(&mut buf).map_err(|_| "short read")?;
    Ok(buf)
}

/// Serializes one record: fixed header, key bytes, payload bytes.
pub fn encode_record(id: RecordId, key: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + key.len() + payload.len());
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&id.key_hash.to_le_bytes());
    out.extend_from_slice(&id.config_hash.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_checksum(id, key, payload).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(payload);
    out
}

/// The checksum stored in (and verified against) a record header:
/// FNV-1a over the id, the lengths, and both variable sections.
pub fn record_checksum(id: RecordId, key: &[u8], payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(24 + key.len() + payload.len());
    buf.extend_from_slice(&id.key_hash.to_le_bytes());
    buf.extend_from_slice(&id.config_hash.to_le_bytes());
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(payload);
    fnv1a64(&buf)
}

/// A record parsed (and checksum-verified) out of a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ParsedRecord {
    /// The record's content address.
    id: RecordId,
    /// The canonical key bytes.
    key: Vec<u8>,
    /// The payload bytes.
    payload: Vec<u8>,
    /// Total encoded length, bytes.
    len: usize,
}

/// Parses the record starting at `buf[offset..]`, verifying framing and
/// checksum.
///
/// # Errors
///
/// Returns a static description of the first problem (truncation, bad
/// magic or version, insane lengths, checksum mismatch) — the scan and
/// recall paths treat them all identically, as "not a valid record".
fn parse_record(buf: &[u8], offset: usize) -> Result<ParsedRecord, &'static str> {
    let rec = buf.get(offset..).ok_or("offset past end")?;
    if rec.len() < RECORD_HEADER_BYTES {
        return Err("truncated header");
    }
    let u32_at = |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().unwrap_or([0; 4]));
    let u64_at = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().unwrap_or([0; 8]));
    if u32_at(0) != RECORD_MAGIC {
        return Err("bad record magic");
    }
    if u32_at(4) != FORMAT_VERSION {
        return Err("unknown format version");
    }
    let id = RecordId {
        key_hash: u64_at(8),
        config_hash: u64_at(16),
    };
    let key_len = u32_at(24);
    let payload_len = u32_at(28);
    if key_len > MAX_KEY_BYTES || payload_len > MAX_PAYLOAD_BYTES {
        return Err("insane record lengths");
    }
    let checksum = u64_at(32);
    let total = RECORD_HEADER_BYTES + key_len as usize + payload_len as usize;
    if rec.len() < total {
        return Err("truncated record body");
    }
    let key = &rec[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + key_len as usize];
    let payload = &rec[RECORD_HEADER_BYTES + key_len as usize..total];
    if record_checksum(id, key, payload) != checksum {
        return Err("checksum mismatch");
    }
    Ok(ParsedRecord {
        id,
        key: key.to_vec(),
        payload: payload.to_vec(),
        len: total,
    })
}

/// Scans one segment into `index`; returns how many torn/corrupt tail
/// records were skipped (0 or 1 — the scan stops at the first).
fn scan_segment(path: &Path, index: &mut HashMap<RecordId, Loc>) -> io::Result<u64> {
    let buf = fs::read(path)?;
    if buf.len() < SEGMENT_MAGIC.len() || &buf[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        // Not (yet) a segment of ours: an empty or foreign file. Skip it
        // entirely but count it if it has content claiming otherwise.
        return Ok(u64::from(!buf.is_empty()));
    }
    let shared_path = Arc::new(path.to_path_buf());
    let mut offset = SEGMENT_MAGIC.len();
    let mut torn = 0u64;
    while offset < buf.len() {
        match parse_record(&buf, offset) {
            Ok(record) => {
                index.insert(
                    record.id,
                    Loc {
                        path: Arc::clone(&shared_path),
                        offset: offset as u64,
                        len: record.len as u32,
                    },
                );
                offset += record.len;
            }
            Err(_) => {
                // A torn tail (crash mid-append) or bit rot: everything
                // before this offset is intact and indexed; ignore the
                // rest of the file.
                torn = 1;
                break;
            }
        }
    }
    Ok(torn)
}

/// Verifies one raw encoded record against the expected id and key
/// bytes: parse (framing + FNV-1a checksum), then compare the id and the
/// full key bytes, and require `bytes` to be exactly one record. Both
/// recall paths run it — [`RunStore::recall`] on the bytes it re-reads
/// from disk, the fleet tier on the bytes a peer ships. Returns the
/// payload on success, `None` — a miss — on any damage or mismatch.
pub fn verify_record(bytes: &[u8], id: RecordId, key: &[u8]) -> Option<Vec<u8>> {
    #[cfg(mutant = "store-corruption-bug")]
    {
        // Seeded bug for the CI negative smoke: trust the bytes blindly
        // and slice the payload out without verifying anything. The
        // corruption and poisoned-peer tests must turn this into a failure.
        let _ = (id, key);
        if bytes.len() >= RECORD_HEADER_BYTES {
            let key_len = u32::from_le_bytes(bytes[24..28].try_into().unwrap_or([0; 4])) as usize;
            let start = RECORD_HEADER_BYTES + key_len;
            if start <= bytes.len() {
                return Some(bytes[start..].to_vec());
            }
        }
        None
    }
    #[cfg(not(mutant = "store-corruption-bug"))]
    {
        let record = parse_record(bytes, 0).ok()?;
        (record.id == id && record.key == key && record.len == bytes.len())
            .then_some(record.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn record_round_trips_through_encode_parse() {
        let id = RecordId::of(b"key-bytes", 7);
        let bytes = encode_record(id, b"key-bytes", b"payload!");
        let parsed = parse_record(&bytes, 0).expect("parses");
        assert_eq!(parsed.id, id);
        assert_eq!(parsed.key, b"key-bytes");
        assert_eq!(parsed.payload, b"payload!");
        assert_eq!(parsed.len, bytes.len());
    }

    #[test]
    fn parse_rejects_truncation_and_damage() {
        let id = RecordId::of(b"k", 1);
        let bytes = encode_record(id, b"k", b"0123456789");
        for cut in [0, 10, RECORD_HEADER_BYTES, bytes.len() - 1] {
            assert!(parse_record(&bytes[..cut], 0).is_err(), "cut={cut}");
        }
        for flip in [0, 9, 33, RECORD_HEADER_BYTES, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x40;
            assert!(parse_record(&bad, 0).is_err(), "flip={flip}");
        }
    }

    #[test]
    fn verify_accepts_intact_and_rejects_tampered() {
        let key = b"canonical-key";
        let id = RecordId::of(key, 42);
        let bytes = encode_record(id, key, b"payload");
        assert_eq!(
            verify_record(&bytes, id, key).as_deref(),
            Some(&b"payload"[..])
        );
        // Wrong id or key: a poisoned peer answering for the wrong run.
        assert!(verify_record(&bytes, RecordId::of(key, 43), key).is_none());
        assert!(verify_record(&bytes, id, b"other-key").is_none());
        // Any flipped byte: checksum damage.
        for flip in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x01;
            assert!(verify_record(&bad, id, key).is_none(), "flip={flip}");
        }
        // Trailing garbage: not exactly one record.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(verify_record(&padded, id, key).is_none());
    }
}
