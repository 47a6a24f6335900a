//! The fleet recall tier.
//!
//! [`FleetTier`] implements [`simcore::RemoteTier`]: on a local
//! memory+disk miss the study asks each peer in list order and takes
//! the first record that survives [`runstore::verify_record`] — a
//! record a peer poisons (or damages) is rejected and the next peer is
//! tried, so the fleet can only ever turn a recompute into a verified
//! reuse, never into a wrong answer.

use std::sync::atomic::{AtomicU64, Ordering};

use runstore::{verify_record, RecordId};
use simcore::RemoteTier;

use crate::client::PeerClient;

/// A point-in-time snapshot of fleet-tier traffic. Counters are relaxed
/// atomics: approximate while recalls are in flight, exact once the
/// tier is quiescent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// Recalls answered by some peer with a verified record.
    pub hits: u64,
    /// Recalls no peer could answer (the caller computed).
    pub misses: u64,
    /// Peer records rejected by read-back verification (checksum, id,
    /// or key mismatch) — each one was a poisoned or damaged answer
    /// turned into a miss.
    pub rejected: u64,
    /// Peer conversations that failed outright (connect, I/O, framing,
    /// refusal). One recall can count several — one per failing peer.
    pub peer_errors: u64,
    /// Peers configured.
    pub peers: u64,
}

/// The fleet tier: a static peer list plus traffic counters.
#[derive(Debug)]
pub struct FleetTier {
    peers: Vec<PeerClient>,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    peer_errors: AtomicU64,
}

impl FleetTier {
    /// A tier asking the given peers (`host:port` each), in order.
    pub fn new(peers: impl IntoIterator<Item = impl Into<String>>) -> FleetTier {
        FleetTier {
            peers: peers.into_iter().map(PeerClient::new).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            peer_errors: AtomicU64::new(0),
        }
    }

    /// How many peers are configured.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> FleetCounters {
        FleetCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            peer_errors: self.peer_errors.load(Ordering::Relaxed),
            peers: self.peers.len() as u64,
        }
    }
}

impl RemoteTier for FleetTier {
    /// Asks each peer in order; returns the first payload that survives
    /// the full read-back verification. A peer answer that fails
    /// verification counts as `rejected` and the next peer is tried; a
    /// peer that errors counts as `peer_errors`. `None` — with `misses`
    /// bumped — only when the whole fleet has no acceptable record.
    fn recall(&self, id: RecordId, key: &[u8]) -> Option<Vec<u8>> {
        for peer in &self.peers {
            match peer.recall(id, key) {
                Ok(Some(bytes)) => match verify_record(&bytes, id, key) {
                    Some(payload) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Some(payload);
                    }
                    None => {
                        self.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                },
                Ok(None) => {}
                Err(_) => {
                    self.peer_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }
}
