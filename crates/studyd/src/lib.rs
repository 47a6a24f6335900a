//! `studyd` — the study server.
//!
//! A dependency-free (std-only, plus the workspace shims) daemon that
//! accepts study requests — `compare`, `interval_sweep`, `adaptive`,
//! `figure` — over a line-delimited JSON-over-TCP protocol and executes
//! them against one shared [`simcore::Study`]. Because every request
//! funnels into the same [`simcore::RunCache`], concurrent clients asking
//! overlapping questions coalesce their timing runs instead of
//! duplicating them, and identical requests always produce
//! bitwise-identical responses.
//!
//! ## Architecture
//!
//! ```text
//! TCP clients ──> bounded JobQueue ──> ┌── worker ──┐
//!   (1 thread     (backpressure:       ├── worker ──┼─> Study::serve
//!    per conn)     busy + retry)       └── worker ──┘       │
//!                                                    shared RunCache
//!                                                    (hit/coalesce)
//! ```
//!
//! * [`protocol`] — the wire grammar: one JSON document per LF-terminated
//!   line, parsed into [`simcore::StudyRequest`] via its own serialization
//!   shape; oversized and malformed lines are rejected without panicking,
//!   and a line is cut off at [`MAX_LINE_BYTES`] while it is being read.
//! * [`queue`] — a bounded Condvar job queue. Full queue ⇒ the client
//!   gets a `busy` response naming a retry delay, never silent loss.
//! * [`server`] — the accept loop, one reader thread per connection, and
//!   the worker pool (driven through [`simcore::parallel::map_ordered`],
//!   the workspace's one thread-fanout primitive). Shutdown drains every
//!   queued job before returning.
//! * [`client`] — the blocking [`TcpClient`] used by tests and
//!   `tierbench`; it resends a `busy`-rejected request after the
//!   server's `retry_after_ms`.
//! * [`stats`] — observability: queue depth, in-flight jobs, run-cache
//!   hit/miss/coalesce counters, disk-store tier counters (when a
//!   persistent store is attached), and per-request-kind latency
//!   histograms with [`units::Seconds`] totals, served inline as a
//!   `stats` request.
//!
//! With [`ServerConfig::store_path`] set, the server's study attaches a
//! persistent [`simcore::RunStore`] tier below its in-memory cache:
//! timing runs survive restarts, and a warm store serves repeat sweeps
//! with zero simulator executions.
//!
//! With [`ServerConfig::peers`] set as well, the node joins a store-aware
//! *fleet*: the same wire protocol grows a `recall` request kind (codec
//! in [`fleet::wire`], served inline from the run store), and a recall
//! missing both memory and disk asks each peer in order before
//! computing — memory → disk → fleet → compute. Remote records pass the
//! identical FNV-1a read-back verification as local ones, so a poisoned
//! peer can only cause a recompute, never a wrong answer.
//!
//! Every run the server executes is conservation-checked by the engine's
//! audit layer before it is priced, exactly as in direct
//! [`simcore::Study`] use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;

pub use client::TcpClient;
pub use protocol::{Envelope, WireReply, WireRequest, MAX_LINE_BYTES, RETRY_AFTER_MS};
pub use queue::{JobQueue, PushError};
pub use server::{Server, ServerConfig};
pub use stats::{
    HistogramSnapshot, KindStats, LatencyHistogram, ServerStats, StatsReport, StoreReport,
};
