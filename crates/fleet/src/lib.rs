//! Store-aware `studyd` fleet tier: verified remote recall.
//!
//! A fleet node holds a static peer list. On a `RunCache` miss that also
//! misses its local disk tier, it asks each peer in turn for the record
//! — over the same line-delimited JSON-over-TCP framing `studyd` already
//! speaks — and only runs the simulator when the whole fleet misses
//! (memory → disk → fleet → compute). Peers ship the *raw encoded
//! record* (header, key bytes, payload), and the requesting side runs
//! the exact read-back verification the disk tier runs: FNV-1a checksum
//! plus byte-for-byte key equality ([`verify_remote_record`]). A
//! poisoned or damaged peer record therefore becomes a miss, never a
//! wrong answer. (The `fleet-poison-bug` feature seeds the obvious bug —
//! trusting the peer blindly — for the CI negative smoke, mirroring
//! runstore's `store-corruption-bug`.) This crate never touches the
//! filesystem: the serving peer reads records through `runstore`, which
//! owns all disk access.
//!
//! Module map: [`wire`] is the request/response line codec (shared by
//! this crate's client and the `studyd` server), [`client`] the blocking
//! per-peer TCP client, [`tier`] the [`simcore::RemoteTier`]
//! implementation with its counters, and [`hex`] the byte encoding used
//! on the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod hex;
pub mod tier;
pub mod wire;

pub use client::PeerClient;
pub use tier::{FleetCounters, FleetTier};
pub use wire::{FleetReply, FleetRequest};

use runstore::RecordId;

/// Hard cap on one reply line read from a peer, bytes — the same bound
/// as `studyd::MAX_LINE_BYTES` on request lines. The only reply a peer
/// sends is one hex-encoded record: a timing run's key and payload come
/// to a few hundred bytes, so its `record` line is under 1 KiB. Anything
/// longer is framing damage or abuse, and reads as a peer error.
pub const MAX_REPLY_BYTES: usize = 64 * 1024;

/// Per-call socket timeout on peer connections. A hung or dead peer
/// costs one recall at most this much and then reads as a miss — the
/// study falls back to computing, never wedges.
pub const IO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Verifies one raw record shipped by a peer, exactly as the disk
/// tier's read-back does: parse (framing + FNV-1a checksum), then
/// compare the id and the full key bytes, and require the buffer to be
/// exactly one record. Returns the payload on success, `None` — a miss
/// — on any damage or mismatch.
pub fn verify_remote_record(bytes: &[u8], id: RecordId, key: &[u8]) -> Option<Vec<u8>> {
    #[cfg(feature = "fleet-poison-bug")]
    {
        // Seeded bug for the CI negative smoke: trust the peer blindly
        // and slice the payload out without verifying anything. The
        // poisoned-peer tests must turn this into a failure.
        let _ = (id, key);
        if bytes.len() >= runstore::RECORD_HEADER_BYTES {
            let key_len = u32::from_le_bytes(bytes[24..28].try_into().unwrap_or([0; 4])) as usize;
            let start = runstore::RECORD_HEADER_BYTES + key_len;
            if start <= bytes.len() {
                return Some(bytes[start..].to_vec());
            }
        }
        None
    }
    #[cfg(not(feature = "fleet-poison-bug"))]
    {
        let record = runstore::parse_record(bytes, 0).ok()?;
        (record.id == id && record.key == key && record.len == bytes.len())
            .then_some(record.payload)
    }
}

#[cfg(all(test, not(feature = "fleet-poison-bug")))]
mod tests {
    use super::*;
    use runstore::encode_record;

    #[test]
    fn verify_accepts_intact_and_rejects_tampered() {
        let key = b"canonical-key";
        let id = RecordId::of(key, 42);
        let bytes = encode_record(id, key, b"payload");
        assert_eq!(
            verify_remote_record(&bytes, id, key).as_deref(),
            Some(&b"payload"[..])
        );
        // Wrong id or key: a poisoned peer answering for the wrong run.
        assert!(verify_remote_record(&bytes, RecordId::of(key, 43), key).is_none());
        assert!(verify_remote_record(&bytes, id, b"other-key").is_none());
        // Any flipped byte: checksum damage.
        for flip in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x01;
            assert!(verify_remote_record(&bad, id, key).is_none(), "flip={flip}");
        }
        // Trailing garbage: not exactly one record.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(verify_remote_record(&padded, id, key).is_none());
    }
}
