//! Deterministic interleaving checks over the concurrency core.
//!
//! These tests run small **closed models** of the two concurrent
//! subsystems — the coalescing `RunCache` and the `studyd` bounded
//! `JobQueue` — under `interleave::Checker`, which explores *every*
//! distinct thread schedule (up to the preemption bound, with sleep-set
//! pruning of commuting interleavings) instead of the one schedule a
//! normal test happens to observe. The dev-dependency graph builds
//! `simcore`/`studyd` with the `model-check` feature, swapping their
//! `std::sync` primitives for interleave's instrumented ones; outside a
//! checker run those delegate straight to std, so every other test in
//! this suite behaves identically.
//!
//! With `--cfg mutant="coalesce-race-bug"` (CI negative smoke) the Pending
//! slot is never published and `coalescing_never_double_computes` must
//! FAIL, printing the minimal replayable schedule trace that exhibits the
//! double-compute.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cachesim::CacheStats;
use interleave::{thread, Checker};
use leakctl::Technique;
use simcore::{RawRun, RunCache, RunKey, StudyError};
use specgen::Benchmark;
use studyd::JobQueue;
use uarch::CoreStats;
use units::Cycles;

fn dummy_run(cycles: u64) -> RawRun {
    RawRun {
        cycles: Cycles::new(cycles),
        core: CoreStats::default(),
        l1d: CacheStats::default(),
    }
}

fn key(l2_latency: u32) -> RunKey {
    RunKey::of(Benchmark::Gcc, &Technique::none(), l2_latency)
}

/// Prints the exploration summary (visible with `--nocapture`; quoted in
/// EXPERIMENTS.md) and enforces exhaustiveness plus a coverage floor.
fn expect_coverage(name: &str, report: &interleave::Report, floor: usize) {
    eprintln!(
        "interleave model {name}: {} schedules ({} pruned, max depth {})",
        report.schedules, report.pruned, report.max_depth_seen
    );
    assert!(report.complete, "{name} model must be fully explored");
    assert!(
        report.schedules >= floor,
        "{name}: expected substantive schedule coverage, got {report:?}"
    );
}

// ---------------------------------------------------------------------------
// RunCache coalescing
// ---------------------------------------------------------------------------

/// Three concurrent requests for the same key: exactly one executes the
/// run, the others are served the same result (a hit if they probed
/// after the fill, coalesced if they waited on the in-flight marker).
/// This is the model the seeded `coalesce-race-bug` must break in CI.
#[test]
fn coalescing_never_double_computes() {
    let report = Checker::new("runcache-coalesce").check(|| {
        let cache = Arc::new(RunCache::new());
        let executions = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let executions = Arc::clone(&executions);
                thread::spawn(move || {
                    cache
                        .get_or_run(key(10), || {
                            executions.fetch_add(1, Ordering::SeqCst);
                            Ok(dummy_run(42))
                        })
                        .map(|r| r.cycles)
                })
            })
            .collect();
        let mut results = Vec::new();
        for worker in workers {
            results.push(worker.join().expect("model worker"));
        }
        assert_eq!(
            executions.load(Ordering::SeqCst),
            1,
            "a coalesced fill must execute exactly once"
        );
        for r in results {
            assert_eq!(
                r.expect("fill succeeds"),
                Cycles::new(42),
                "every contender sees the one fill"
            );
        }
        let counters = cache.counters();
        assert_eq!(counters.misses, 1, "one contender is the runner");
        assert_eq!(
            counters.hits + counters.coalesced,
            2,
            "the other contenders are served the fill"
        );
        assert_eq!(cache.len(), 1);
    });
    expect_coverage("runcache-coalesce", &report, 1000);
}

/// A failed run is not memoized and does not strand waiters: whichever
/// contender executes first gets the error, the other becomes the new
/// runner and fills the cache.
#[test]
fn coalescing_failed_fill_releases_waiters() {
    let report = Checker::new("runcache-error").check(|| {
        let cache = Arc::new(RunCache::new());
        let executions = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let executions = Arc::clone(&executions);
                thread::spawn(move || {
                    cache.get_or_run(key(10), || {
                        // First execution fails; the retry (by whichever
                        // thread re-probes) succeeds.
                        if executions.fetch_add(1, Ordering::SeqCst) == 0 {
                            Err(StudyError::EmptyIntervalList)
                        } else {
                            Ok(dummy_run(7))
                        }
                    })
                })
            })
            .collect();
        let outcomes: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("model worker"))
            .collect();
        let errors = outcomes.iter().filter(|o| o.is_err()).count();
        let oks = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(
            (errors, oks),
            (1, 1),
            "exactly one contender sees the error, the other the retry fill"
        );
        assert_eq!(executions.load(Ordering::SeqCst), 2);
        assert_eq!(cache.len(), 1, "the error must not be memoized");
        assert_eq!(cache.get(&key(10)).map(|r| r.cycles), Some(Cycles::new(7)));
    });
    expect_coverage("runcache-error", &report, 40);
}

/// Distinct keys never contend for a fill: both compute, neither waits,
/// and both land.
#[test]
fn coalescing_distinct_keys_are_independent_fills() {
    let report = Checker::new("runcache-distinct").check(|| {
        let cache = Arc::new(RunCache::new());
        let workers: Vec<_> = [10u32, 20u32]
            .into_iter()
            .map(|latency| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    cache.get_or_run(key(latency), || Ok(dummy_run(u64::from(latency))))
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("model worker").expect("fill succeeds");
        }
        let counters = cache.counters();
        assert_eq!(counters.misses, 2, "each key fills itself");
        assert_eq!(counters.coalesced, 0, "distinct keys never coalesce");
        assert_eq!(cache.len(), 2);
    });
    expect_coverage("runcache-distinct", &report, 40);
}

// ---------------------------------------------------------------------------
// studyd JobQueue
// ---------------------------------------------------------------------------

/// Two producers, one blocking consumer: every pushed job is popped
/// exactly once and the consumer's condvar waits never lose a wakeup
/// (a lost notify would surface as a deadlock counterexample).
#[test]
fn job_queue_loses_no_jobs_and_no_wakeups() {
    let report = Checker::new("jobqueue-produce-consume").check(|| {
        let queue = Arc::new(JobQueue::new(2));
        let producers: Vec<_> = [1u32, 2u32]
            .into_iter()
            .map(|job| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || queue.try_push(job).expect("capacity covers both pushes"))
            })
            .collect();
        let mut seen = Vec::new();
        for _ in 0..2 {
            seen.push(queue.pop().expect("queue is open and will be fed"));
        }
        for producer in producers {
            producer.join().expect("producer");
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![1, 2],
            "each accepted job is delivered exactly once"
        );
        assert_eq!(queue.depth(), 0);
    });
    expect_coverage("jobqueue-produce-consume", &report, 50);
}

/// Close racing a push: the push is either accepted (and then delivered
/// during the drain) or refused as Closed — never silently dropped. After
/// the drain, pop keeps returning None: no replies after drain, and
/// drain-on-shutdown terminates in every schedule (a hang would be a
/// deadlock/livelock counterexample).
#[test]
fn job_queue_shutdown_drains_accepted_jobs_exactly() {
    let report = Checker::new("jobqueue-shutdown").check(|| {
        let queue = Arc::new(JobQueue::new(1));
        let accepted = Arc::new(AtomicUsize::new(0));
        let producer = {
            let queue = Arc::clone(&queue);
            let accepted = Arc::clone(&accepted);
            thread::spawn(move || {
                if queue.try_push(7u32).is_ok() {
                    accepted.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        queue.close();
        let mut drained = 0usize;
        while let Some(job) = queue.pop() {
            assert_eq!(job, 7);
            drained += 1;
        }
        producer.join().expect("producer");
        assert_eq!(
            drained,
            accepted.load(Ordering::SeqCst),
            "accepted jobs are delivered, refused jobs are not"
        );
        assert!(queue.pop().is_none(), "no replies after the drain");
        assert!(queue.is_closed());
    });
    expect_coverage("jobqueue-shutdown", &report, 5);
}
