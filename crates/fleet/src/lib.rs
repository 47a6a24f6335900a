//! Store-aware `studyd` fleet tier: verified remote recall.
//!
//! A fleet node holds a static peer list. On a `RunCache` miss that also
//! misses its local disk tier, it asks each peer in turn for the record
//! — over the same line-delimited JSON-over-TCP framing `studyd` already
//! speaks — and only runs the simulator when the whole fleet misses
//! (memory → disk → fleet → compute). Peers ship the *raw encoded
//! record* (header, key bytes, payload), and the requesting side runs
//! the very read-back verification the disk tier runs:
//! [`runstore::verify_record`] checks the FNV-1a checksum and the id and
//! key bytes. A poisoned or damaged peer record therefore becomes a miss,
//! never a wrong answer, and the `store-corruption-bug` mutant that
//! skips the check breaks both tiers at once. This crate never touches
//! the filesystem: the serving peer reads records through `runstore`,
//! which owns all disk access.
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
