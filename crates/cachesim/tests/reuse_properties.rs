//! Property tests on the reuse-interval profiler — for any access stream,
//! the distribution invariants the pricing model relies on must hold — and
//! on adaptive interval switching: a decaying cache driven through an
//! arbitrary interleaving of accesses and `set_decay_interval` calls (the
//! trace an adaptive controller produces) must keep its accounting laws
//! and the reset-on-switch idle-history guarantee.

use proptest::prelude::*;

use cachesim::reuse::{ReuseProfiler, BUCKETS};
use cachesim::{
    AccessKind, Cache, CacheConfig, DecayConfig, DecayPolicy, StandbyBehavior,
    MIN_DECAY_INTERVAL_CYCLES,
};

/// An arbitrary access stream: line-ish addresses plus non-decreasing
/// timestamps (gaps up to ~1 M cycles exercise most buckets).
fn arb_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..4096, 0u64..1_000_000), 1..400).prop_map(|pairs| {
        let mut now = 0u64;
        pairs
            .into_iter()
            .map(|(line, gap)| {
                now += gap;
                (line * 64, now)
            })
            .collect()
    })
}

fn profile(stream: &[(u64, u64)]) -> ReuseProfiler {
    let mut p = ReuseProfiler::new();
    for &(addr, now) in stream {
        p.record(addr, now);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_access_is_a_first_touch_or_a_reuse(stream in arb_stream()) {
        let p = profile(&stream);
        prop_assert_eq!(
            p.reuses() + p.lines_touched() as u64,
            stream.len() as u64,
            "accesses partition into first touches and reuses"
        );
    }

    #[test]
    fn histogram_counts_every_reuse_exactly_once(stream in arb_stream()) {
        let p = profile(&stream);
        let total: u64 = p.histogram().iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total, p.reuses());
    }

    #[test]
    fn cdf_is_monotone_normalized_and_complements_disturbed(
        stream in arb_stream(),
        query in 1u64..1_000_000,
    ) {
        let p = profile(&stream);
        let mut prev = 0.0;
        for shift in 0..BUCKETS {
            let f = p.fraction_reused_within(1 << shift);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev, "CDF must not decrease");
            prev = f;
        }
        if p.reuses() > 0 {
            prop_assert!((prev - 1.0).abs() < 1e-12, "CDF reaches 1 at the top bucket");
        } else {
            prop_assert_eq!(prev, 0.0);
        }
        let d = p.disturbed_fraction(query);
        prop_assert!((d - (1.0 - p.fraction_reused_within(query))).abs() < 1e-12);
    }

    #[test]
    fn interval_keeping_delivers_its_promise(stream in arb_stream(), keep in 0.0f64..1.0) {
        let p = profile(&stream);
        let d = p.interval_keeping(keep);
        prop_assert!(d.is_power_of_two());
        // Either the promise is met, or no power-of-two interval can meet
        // it and the maximum is returned.
        if p.fraction_reused_within(d) < keep {
            prop_assert_eq!(d, 1u64 << (BUCKETS - 1));
        }
        // And it is the *smallest* such interval.
        if d > 1 && p.fraction_reused_within(d) >= keep {
            prop_assert!(p.fraction_reused_within(d / 2) < keep);
        }
    }

    #[test]
    fn timestamps_only_shift_reuse_counts_not_partition(stream in arb_stream(), offset in 0u64..1_000_000) {
        // Shifting all timestamps by a constant preserves gaps, so the
        // whole distribution is translation-invariant.
        let p = profile(&stream);
        let shifted: Vec<(u64, u64)> =
            stream.iter().map(|&(a, t)| (a, t + offset)).collect();
        let q = profile(&shifted);
        prop_assert_eq!(p.reuses(), q.reuses());
        prop_assert_eq!(p.histogram(), q.histogram());
    }
}

/// One step of an adaptive-controller trace: an access after some idle
/// gap, or a runtime decay-interval change.
#[derive(Debug, Clone, Copy)]
enum TraceEvent {
    Access { line: u64, gap: u64 },
    Switch { interval: u64 },
}

/// Interleaved accesses and interval switches, the shape a controller's
/// decisions take once they reach the cache (gaps up to ~16k cycles cross
/// several quarter-interval sweeps of the short intervals).
fn arb_adaptive_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    // A selector in 0..9 keeps switches to roughly one event in nine, so
    // traces stay access-dominated like real controller decisions.
    let event = (0u8..9, 0u64..256, 0u64..16_384, 0u64..65_536).prop_map(
        |(selector, line, gap, interval)| {
            if selector == 0 {
                TraceEvent::Switch { interval }
            } else {
                TraceEvent::Access { line, gap }
            }
        },
    );
    proptest::collection::vec(event, 1..200)
}

fn decay_cfg(behavior: StandbyBehavior, interval: u64) -> DecayConfig {
    DecayConfig {
        interval_cycles: interval,
        policy: DecayPolicy::NoAccess,
        tags_decay: true,
        behavior,
        sleep_settle_cycles: if behavior == StandbyBehavior::Losing {
            30
        } else {
            3
        },
        wake_settle_cycles: 3,
    }
}

/// Replays a trace, switching intervals where the trace says to, and
/// returns the cache finalized at the end time.
fn replay(behavior: StandbyBehavior, trace: &[TraceEvent]) -> (Cache, u64) {
    let mut cache = Cache::new(CacheConfig::l1_64k_2way(), Some(decay_cfg(behavior, 1024)))
        .expect("valid geometry");
    let mut now = 0u64;
    for &event in trace {
        match event {
            TraceEvent::Access { line, gap } => {
                now += gap;
                cache.advance_to(now);
                cache.access(line * 64, AccessKind::Read, now);
            }
            TraceEvent::Switch { interval } => {
                cache.set_decay_interval(interval);
            }
        }
    }
    cache.finalize(now);
    (cache, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accounting_laws_survive_interval_switching(
        trace in arb_adaptive_trace(),
        losing in proptest::bool::ANY,
    ) {
        // Whatever schedule of interval changes a controller issues, the
        // access partition, the sleep/wake pairing and the conservation
        // audit must all still hold at the end of the run.
        let behavior = if losing { StandbyBehavior::Losing } else { StandbyBehavior::Preserving };
        let (cache, _now) = replay(behavior, &trace);
        let stats = cache.stats();
        let accesses = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Access { .. }))
            .count() as u64;
        prop_assert_eq!(stats.accesses(), accesses);
        prop_assert_eq!(stats.hits + stats.slow_hits + stats.misses(), accesses);
        prop_assert!(stats.wakes <= stats.sleeps, "every wake pairs with a sleep");
        let floor = cache
            .decay_config()
            .expect("decay stays configured")
            .interval_cycles;
        prop_assert!(floor >= MIN_DECAY_INTERVAL_CYCLES, "switches clamp to the floor");
        if let Err(report) = cache.audit() {
            prop_assert!(false, "conservation audit failed: {report}");
        }
    }

    #[test]
    fn a_switch_restarts_the_idle_clock(
        trace in arb_adaptive_trace(),
        new_interval in prop_oneof![Just(4096u64), Just(8192), Just(16384)],
        idle_fraction in 0.05f64..0.45,
        losing in proptest::bool::ANY,
    ) {
        // The reset-on-switch guarantee, over arbitrary prior history: a
        // line touched at the moment of a switch must survive any idle
        // span shorter than half the new interval, because its two-bit
        // counter restarts and can have seen at most two of the three
        // quarter-interval sweeps it needs to decay.
        let behavior = if losing { StandbyBehavior::Losing } else { StandbyBehavior::Preserving };
        let (mut cache, now) = replay(behavior, &trace);
        let addr = 0x7_0000;
        cache.access(addr, AccessKind::Read, now);
        cache.set_decay_interval(new_interval);
        let idle = (new_interval as f64 * idle_fraction) as u64;
        cache.advance_to(now + idle);
        prop_assert!(
            cache.probe(addr),
            "line decayed {idle} cycles after a switch to interval {new_interval}"
        );
    }

    #[test]
    fn switching_to_a_long_interval_freezes_decay(
        trace in arb_adaptive_trace(),
        tail_gaps in proptest::collection::vec(0u64..16_384, 1..40),
        losing in proptest::bool::ANY,
    ) {
        // An adaptive controller backing off to a very long interval must
        // actually stop decay: with the quarter-interval sweep period far
        // beyond the remaining run, no line may be put to sleep after the
        // switch, whatever happened before it.
        let behavior = if losing { StandbyBehavior::Losing } else { StandbyBehavior::Preserving };
        let (mut cache, mut now) = replay(behavior, &trace);
        cache.set_decay_interval(1 << 40);
        let sleeps_at_switch = cache.stats().sleeps;
        for (i, gap) in tail_gaps.iter().enumerate() {
            now += gap;
            cache.advance_to(now);
            cache.access((i as u64 % 256) * 64, AccessKind::Read, now);
        }
        cache.finalize(now);
        prop_assert_eq!(
            cache.stats().sleeps,
            sleeps_at_switch,
            "no sweep can fire before the first quarter of the long interval"
        );
    }
}
