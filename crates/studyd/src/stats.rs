//! Server observability: lock-free counters, per-request-kind latency
//! histograms, and the [`StatsReport`] snapshot a `stats` request
//! returns.
//!
//! All counters are relaxed atomics — the report is a monitoring
//! snapshot, approximate while requests are in flight and exact once the
//! server is quiescent (same contract as
//! [`simcore::RunCacheCounters`]). Latencies are measured around
//! [`simcore::Study::serve`] only (queue wait excluded) and bucketed by
//! power-of-two **nanoseconds**; totals are reported in typed
//! [`units::Seconds`]. Earlier revisions bucketed by microseconds, which
//! aliased every warm-cache service (figure recalls finish in a few
//! hundred nanoseconds) into bucket 0 and made the per-kind histograms
//! useless exactly where the cache works; nanosecond buckets keep the
//! sub-microsecond population resolved. Note these are *wall-clock*
//! service times — simulated probe timings are `units::Cycles` and belong
//! in the linear [`units::CycleHistogram`], not here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::Serialize;
use simcore::{RequestKind, RunCacheCounters, StoreCounters};
use units::Seconds;

/// Number of power-of-two-nanosecond latency buckets. Bucket `i` counts
/// service times in `[2^(i-1), 2^i)` ns (bucket 0: `< 1` ns); the last
/// bucket absorbs everything from 2^34 ns ≈ 17 s up. The first ten
/// buckets resolve the sub-microsecond range that the old microsecond
/// scheme collapsed into a single bin.
pub const HISTOGRAM_BUCKETS: usize = 36;

/// One log2-nanosecond latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

// Derived `Default` stops at 32-element arrays; spell it out.
impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let bucket = match ns {
            0 => 0,
            _ => ((64 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1),
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A plain-data snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            // Exact below 2^53 ns ≈ 104 days of accumulated latency —
            // beyond any single server process this repo runs.
            total_seconds: Seconds::new(self.total_ns.load(Ordering::Relaxed) as f64 / 1e9),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A [`LatencyHistogram`] snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed service times.
    pub total_seconds: Seconds,
    /// Per-bucket counts, [`HISTOGRAM_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

/// The server's live counters. One instance per [`crate::Server`],
/// shared by every connection and worker thread.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Study requests accepted onto the queue.
    pub accepted: AtomicU64,
    /// Study requests refused with a `busy` response.
    pub rejected_busy: AtomicU64,
    /// Request lines that failed to parse (malformed or oversized).
    pub protocol_errors: AtomicU64,
    /// Jobs served whose response line went out.
    pub completed: AtomicU64,
    /// Jobs whose [`simcore::Study::serve`] returned an error, and whose
    /// error line went out.
    pub failed: AtomicU64,
    /// Jobs skipped before service because their client cancelled or
    /// disconnected.
    pub cancelled: AtomicU64,
    /// Jobs served whose response line could not be written. Each
    /// accepted job ends in exactly one of `completed`, `failed`,
    /// `cancelled` and `undelivered`.
    pub undelivered: AtomicU64,
    /// Jobs currently inside [`simcore::Study::serve`].
    pub in_flight: AtomicU64,
    latency: [LatencyHistogram; RequestKind::ALL.len()],
}

impl ServerStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Records one service latency under the request's kind.
    pub fn record_latency(&self, kind: RequestKind, elapsed: Duration) {
        self.latency[kind.index()].record(elapsed);
    }

    /// Snapshots everything into a serializable report. `queue_depth`,
    /// `cache`, `store`, and `fleet` come from the queue, the run-cache,
    /// the optional disk tier, and the optional fleet tier, which the
    /// stats object deliberately does not own (`store`/`fleet` are
    /// `None` when the corresponding tier is not attached).
    pub fn report(
        &self,
        queue_depth: usize,
        cache: RunCacheCounters,
        store: Option<StoreCounters>,
        fleet: Option<fleet::FleetCounters>,
    ) -> StatsReport {
        StatsReport {
            queue_depth: queue_depth as u64,
            in_flight: self.in_flight.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            undelivered: self.undelivered.load(Ordering::Relaxed),
            cache,
            store: store.map(StoreReport::from),
            fleet,
            kinds: RequestKind::ALL
                .iter()
                .map(|kind| KindStats {
                    kind: kind.name().to_string(),
                    latency: self.latency[kind.index()].snapshot(),
                })
                .collect(),
        }
    }
}

/// Per-request-kind latency summary inside a [`StatsReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KindStats {
    /// [`RequestKind::name`].
    pub kind: String,
    /// Service-time histogram for this kind.
    pub latency: HistogramSnapshot,
}

/// The snapshot a `stats` request returns.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatsReport {
    /// Jobs queued but not yet popped.
    pub queue_depth: u64,
    /// Jobs currently being served.
    pub in_flight: u64,
    /// Study requests accepted onto the queue, ever.
    pub accepted: u64,
    /// Study requests refused with `busy`, ever.
    pub rejected_busy: u64,
    /// Unparseable request lines, ever.
    pub protocol_errors: u64,
    /// Jobs served whose response line went out, ever.
    pub completed: u64,
    /// Jobs that failed inside the engine and whose error line went out,
    /// ever.
    pub failed: u64,
    /// Jobs skipped before service as cancelled, ever.
    pub cancelled: u64,
    /// Jobs served whose response line could not be written, ever. Once
    /// the server has shut down, `completed + failed + cancelled +
    /// undelivered == accepted`.
    pub undelivered: u64,
    /// Run-cache hit/miss/coalesce counters (shared across requests).
    pub cache: RunCacheCounters,
    /// Disk-store tier counters; `None` when the server runs without a
    /// persistent store.
    pub store: Option<StoreReport>,
    /// Fleet-tier counters; `None` when no peers are configured.
    pub fleet: Option<fleet::FleetCounters>,
    /// Per-kind latency summaries, in [`RequestKind::ALL`] order.
    pub kinds: Vec<KindStats>,
}

/// Disk-store tier counters inside a [`StatsReport`] — the serializable
/// mirror of [`simcore::StoreCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StoreReport {
    /// Recalls served from disk after read-back verification.
    pub hits: u64,
    /// Recalls that found no valid record (computed instead).
    pub misses: u64,
    /// Recalls whose read-back verification failed (turned into misses).
    pub verify_failures: u64,
    /// Fresh runs queued for write-behind persistence.
    pub appends: u64,
    /// Torn tail records skipped while scanning segments on open.
    pub torn_records: u64,
    /// Records currently addressable in the store index.
    pub records: u64,
    /// Segment files known to the store.
    pub segments: u64,
}

impl From<StoreCounters> for StoreReport {
    fn from(c: StoreCounters) -> Self {
        let StoreCounters {
            hits,
            misses,
            verify_failures,
            appends,
            torn_records,
            records,
            segments,
        } = c;
        StoreReport {
            hits,
            misses,
            verify_failures,
            appends,
            torn_records,
            records,
            segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2_nanoseconds() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(0)); // bucket 0
        h.record(Duration::from_nanos(1)); // [1, 2) -> bucket 1
        h.record(Duration::from_nanos(3)); // [2, 4) -> bucket 2
        h.record(Duration::from_micros(1)); // [512, 1024) ns -> bucket 10
        h.record(Duration::from_secs(3600)); // saturates into the last
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert!(snap.total_seconds.get() > 3600.0);
    }

    #[test]
    fn sub_microsecond_latencies_no_longer_alias() {
        // Regression: the old microsecond bucketing put both of these in
        // bucket 0. Distinct power-of-two-ns classes must stay apart.
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100)); // [64, 128) -> bucket 7
        h.record(Duration::from_nanos(800)); // [512, 1024) -> bucket 10
        let snap = h.snapshot();
        assert_eq!(snap.buckets[7], 1);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.buckets[0], 0);
        assert_eq!(snap.count, 2);
    }

    #[test]
    fn report_carries_every_kind_in_order() {
        let stats = ServerStats::new();
        stats.record_latency(RequestKind::Figure, Duration::from_millis(5));
        let report = stats.report(3, RunCacheCounters::default(), None, None);
        assert_eq!(report.queue_depth, 3);
        assert_eq!(
            report
                .kinds
                .iter()
                .map(|k| k.kind.as_str())
                .collect::<Vec<_>>(),
            vec!["compare", "interval_sweep", "adaptive", "figure"]
        );
        assert_eq!(report.kinds[3].latency.count, 1);
        assert_eq!(report.kinds[0].latency.count, 0);
        // The report is plain data: it serializes through the shim.
        let text = serde_json::to_string(&report).expect("serializes");
        assert!(text.contains("\"queue_depth\":3"), "{text}");
        assert!(text.contains("\"store\":null"), "{text}");
    }

    #[test]
    fn report_carries_store_counters_when_a_store_is_attached() {
        let stats = ServerStats::new();
        let store = StoreCounters {
            hits: 2,
            appends: 1,
            verify_failures: 0,
            ..StoreCounters::default()
        };
        let report = stats.report(0, RunCacheCounters::default(), Some(store), None);
        let snap = report.store.expect("store report present");
        assert_eq!((snap.hits, snap.appends, snap.verify_failures), (2, 1, 0));
        let text = serde_json::to_string(&report).expect("serializes");
        assert!(text.contains("\"verify_failures\":0"), "{text}");
    }

    #[test]
    fn report_carries_fleet_counters_when_peers_are_configured() {
        let stats = ServerStats::new();
        let fleet_counters = fleet::FleetCounters {
            hits: 4,
            misses: 1,
            rejected: 2,
            peer_errors: 0,
            peers: 3,
        };
        let report = stats.report(0, RunCacheCounters::default(), None, Some(fleet_counters));
        let snap = report.fleet.expect("fleet report present");
        assert_eq!(
            (snap.hits, snap.misses, snap.rejected, snap.peers),
            (4, 1, 2, 3)
        );
        let text = serde_json::to_string(&report).expect("serializes");
        assert!(text.contains("\"rejected\":2"), "{text}");

        // Without peers the field stays null, exactly like `store`.
        let report = stats.report(0, RunCacheCounters::default(), None, None);
        let text = serde_json::to_string(&report).expect("serializes");
        assert!(text.contains("\"fleet\":null"), "{text}");
    }
}
