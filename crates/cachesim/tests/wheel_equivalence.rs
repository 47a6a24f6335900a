//! Differential oracle for the data-oriented hot path: the due-list
//! [`Cache`] must be bitwise-indistinguishable from the retained naive
//! full-sweep [`ReferenceCache`] — same [`AccessResult`] for every access,
//! same finalized [`CacheStats`] (including the `ModeCycles` integrals),
//! same resolved line views, probes, and standby census — across random
//! traces, both standby behaviors, both decay policies, tag decay on/off,
//! intervals down to [`MIN_DECAY_INTERVAL_CYCLES`], adaptive interval
//! switches mid-run, and the Table-2 2 MB L2.
//!
//! Unlike the `oracle` suite (which drives one implementation two ways and
//! so shares the due lists with what it checks), this suite compares two
//! *independent* implementations; a scheduling bug in the lists shows up
//! here as a divergence even when both drivers agree with each other. The
//! `wheel-bug` seeded mutation (named for the timing wheel the lists
//! replaced) exists to prove exactly that: under
//! `--cfg mutant="wheel-bug"` the two deterministic tests that name it
//! must fail.
//!
//! A cache without decay has no due lists, but it closes its mode integral
//! in O(1) instead of settling every line; the last proptest holds that
//! close to the reference's per-line accounting after every step.

use cachesim::{
    AccessKind, Cache, CacheConfig, CacheStats, DecayConfig, DecayPolicy, LineMode, ReferenceCache,
    StandbyBehavior, MIN_DECAY_INTERVAL_CYCLES,
};
use proptest::prelude::*;

/// One step of a generated trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Wait `gap` cycles, then access `addr`.
    Access { addr: u64, write: bool, gap: u64 },
    /// Wait `gap` cycles, then switch the decay interval (adaptive decay).
    SetInterval { interval: u64, gap: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // About one op in nine is an adaptive interval switch; the rest are
    // accesses. Gaps reach several quarter intervals so decay deadlines,
    // wrap-aligned retries, and transition expiries all actually fire.
    (
        0u8..9,
        0u64..1u64 << 17,
        proptest::bool::ANY,
        0u64..2500,
        MIN_DECAY_INTERVAL_CYCLES..2048,
    )
        .prop_map(|(sel, addr, write, gap, interval)| {
            if sel == 0 {
                Op::SetInterval { interval, gap }
            } else {
                Op::Access {
                    addr: addr & !63,
                    write,
                    gap,
                }
            }
        })
}

fn decay_cfg(losing: bool, simple: bool, tags_decay: bool, interval: u64) -> DecayConfig {
    DecayConfig {
        interval_cycles: interval,
        policy: if simple {
            DecayPolicy::Simple
        } else {
            DecayPolicy::NoAccess
        },
        tags_decay,
        behavior: if losing {
            StandbyBehavior::Losing
        } else {
            StandbyBehavior::Preserving
        },
        sleep_settle_cycles: if losing { 30 } else { 3 },
        wake_settle_cycles: 3,
    }
}

/// Compares every observable the two implementations share at clock `now`.
/// Raw `mode`/`mode_since` are deliberately excluded: the two settle a
/// line's integral at different moments (the reference every line at
/// every wrap, the cache only the lines it touches), so only the
/// *resolved* mode is a shared observable.
fn assert_views_agree(wheel: &Cache, naive: &ReferenceCache, now: u64) {
    assert_eq!(wheel.clock(), naive.clock(), "clocks diverged");
    assert_eq!(
        wheel.wrap_phase(),
        naive.wrap_phase(),
        "wrap phase diverged"
    );
    assert_eq!(
        wheel.standby_line_count(now),
        naive.standby_line_count(now),
        "standby census diverged at cycle {now}"
    );
    for i in 0..wheel.config().num_lines() {
        let w = wheel.line_view(i);
        let n = naive.line_view(i);
        assert_eq!(w.tag, n.tag, "line {i} tag diverged at cycle {now}");
        assert_eq!(w.data, n.data, "line {i} data diverged at cycle {now}");
        assert_eq!(
            w.local_counter, n.local_counter,
            "line {i} counter diverged at cycle {now}"
        );
        assert_eq!(
            w.lru_stamp, n.lru_stamp,
            "line {i} recency diverged at cycle {now}"
        );
        assert_eq!(
            w.resolved_mode(now),
            n.resolved_mode(now),
            "line {i} resolved mode diverged at cycle {now}"
        );
    }
}

/// Runs `ops` through the wheel cache and the naive reference in lockstep,
/// checking each access outcome and the periodic white-box views, and
/// returns both finalized stats.
fn run_both(decay: DecayConfig, ops: &[Op]) -> (CacheStats, CacheStats) {
    let cfg = CacheConfig::l1_64k_2way();
    let mut wheel = Cache::new(cfg, Some(decay)).expect("valid");
    let mut naive = ReferenceCache::new(cfg, Some(decay)).expect("valid");
    let mut now = 0u64;
    for (k, op) in ops.iter().enumerate() {
        match *op {
            Op::Access { addr, write, gap } => {
                now += gap;
                wheel.advance_to(now);
                naive.advance_to(now);
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                assert_eq!(
                    wheel.probe(addr),
                    naive.probe(addr),
                    "probe diverged at cycle {now} addr {addr:#x}"
                );
                let rw = wheel.access(addr, kind, now);
                let rn = naive.access(addr, kind, now);
                assert_eq!(rw, rn, "outcome diverged at cycle {now} addr {addr:#x}");
            }
            Op::SetInterval { interval, gap } => {
                now += gap;
                wheel.advance_to(now);
                naive.advance_to(now);
                wheel.set_decay_interval(interval);
                naive.set_decay_interval(interval);
            }
        }
        // Full line-by-line comparison every few ops (it is O(lines), so
        // not after every access), plus always after interval switches.
        if k % 7 == 0 || matches!(op, Op::SetInterval { .. }) {
            assert_views_agree(&wheel, &naive, now);
        }
    }
    // Let any trailing decay play out identically, then settle integrals.
    let end = now + 8192;
    wheel.advance_to(end);
    naive.advance_to(end);
    assert_views_agree(&wheel, &naive, end);
    wheel.finalize(end);
    naive.finalize(end);
    assert_eq!(wheel.finalized_at(), naive.finalized_at());
    wheel
        .audit()
        .expect("wheel cache conserves and stays coherent");
    (*wheel.stats(), *naive.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn wheel_and_reference_agree_bitwise(
        ops in proptest::collection::vec(arb_op(), 1..60),
        losing in proptest::bool::ANY,
        simple in proptest::bool::ANY,
        tags_decay in proptest::bool::ANY,
        interval in MIN_DECAY_INTERVAL_CYCLES..2048,
    ) {
        let decay = decay_cfg(losing, simple, tags_decay, interval);
        let (wheel, naive) = run_both(decay, &ops);
        prop_assert_eq!(wheel, naive, "stats diverged under {:?}", decay);
    }
}

#[test]
fn wheel_matches_reference_across_an_adaptive_interval_ladder() {
    // A deterministic worst case for the reschedule machinery: walk the
    // interval up and down mid-run with live, dirty, and waking lines in
    // flight, so every regime change rebuilds populated due lists.
    let mut ops = Vec::new();
    for (i, interval) in [512u64, 2048, 16, 4096, 128, 1024].iter().enumerate() {
        for j in 0..24u64 {
            ops.push(Op::Access {
                addr: ((i as u64 * 7 + j * 193) % (1 << 15)) & !63,
                write: j % 3 == 0,
                gap: 37 + j * 11,
            });
        }
        ops.push(Op::SetInterval {
            interval: *interval,
            gap: 301,
        });
    }
    for losing in [false, true] {
        for simple in [false, true] {
            let decay = decay_cfg(losing, simple, true, 256);
            let (wheel, naive) = run_both(decay, &ops);
            assert_eq!(wheel, naive, "stats diverged under {decay:?}");
            assert!(naive.sleeps > 0, "ladder must actually exercise decay");
        }
    }
}

/// The seeded `wheel-bug` scenario: touch a line, idle past a wrap, touch
/// it again. A correct hot path reschedules the decay deadline on the
/// second touch; the mutation keeps the stale deadline, so the line decays
/// a wrap early and the touched-line access below turns from a fast hit
/// into a slow one. Under `--cfg mutant="wheel-bug"` this test MUST fail.
#[test]
fn touched_line_keeps_its_fresh_decay_deadline() {
    // interval 256 -> wrap period 64. First touch at 0 schedules decay at
    // wrap 3 (cycle 192); the touch at cycle 100 (one wrap in) must move it
    // to cycle 256.
    let decay = decay_cfg(false, false, true, 256);
    let cfg = CacheConfig::l1_64k_2way();
    let mut wheel = Cache::new(cfg, Some(decay)).expect("valid");
    let mut naive = ReferenceCache::new(cfg, Some(decay)).expect("valid");
    let addr = 0x4000u64;
    let r0w = wheel.access(addr, AccessKind::Read, 0);
    let r0n = naive.access(addr, AccessKind::Read, 0);
    assert_eq!(r0w, r0n);
    wheel.advance_to(100);
    naive.advance_to(100);
    let r1w = wheel.access(addr, AccessKind::Read, 100);
    let r1n = naive.access(addr, AccessKind::Read, 100);
    assert_eq!(r1w, r1n);
    assert!(r1w.hit && r1w.extra_latency == 0, "warm fast hit");
    // Past the stale deadline (192) but before the fresh one (256): the
    // line must still be active.
    wheel.advance_to(230);
    naive.advance_to(230);
    let r2w = wheel.access(addr, AccessKind::Read, 230);
    let r2n = naive.access(addr, AccessKind::Read, 230);
    assert_eq!(
        r2w, r2n,
        "a stale decay deadline put the touched line to sleep early"
    );
    assert!(r2w.hit && r2w.extra_latency == 0, "line decayed early");
    wheel.finalize(300);
    naive.finalize(300);
    assert_eq!(wheel.stats(), naive.stats());
}

/// Same scenario, caught by the conservation-and-coherence audit instead
/// of the differential oracle: immediately after the second touch the
/// line's listed wrap must agree with the counter-derived one, and the
/// schedule-coherence check in [`Cache::audit`] flags the stale entry
/// while it is still pending. Under `--cfg mutant="wheel-bug"` this test
/// MUST fail (with a `DecayScheduleDrift` violation).
#[test]
fn audit_flags_a_stale_decay_schedule() {
    let decay = decay_cfg(false, false, true, 256);
    let mut cache = Cache::new(CacheConfig::l1_64k_2way(), Some(decay)).expect("valid");
    let addr = 0x4000u64;
    cache.access(addr, AccessKind::Read, 0);
    cache.advance_to(100);
    cache.access(addr, AccessKind::Read, 100);
    // Audit while the (stale, under the mutation) deadline is still in the
    // future; after it fires the post-decay state is coherent again, so
    // the window between touch and stale deadline is where the drift shows.
    cache.finalize(110);
    cache
        .audit()
        .expect("fresh deadline after a touch keeps the schedule coherent");
}

/// At the 4-cycle floor a wrap falls every cycle, so a line woken by a
/// slow hit is still waking (3 cycles) when its counter saturates three
/// wraps later, and its decay must retry at the next wrap. Only intervals
/// of 4–7 cycles reach that branch: the proptests rarely draw them, and
/// the model checker idles in 64-cycle quarters.
#[test]
fn waking_line_retries_its_decay_at_the_next_wrap() {
    let decay = decay_cfg(false, false, true, MIN_DECAY_INTERVAL_CYCLES);
    let cfg = CacheConfig::l1_64k_2way();
    let mut cache = Cache::new(cfg, Some(decay)).expect("valid");
    let mut naive = ReferenceCache::new(cfg, Some(decay)).expect("valid");
    let addr = 0x4000u64;
    // Touched at 0, every line saturates at wrap 3 and sleeps. The slow
    // hit at 10 wakes the line until 13, its next saturation wrap, so it
    // retries and sleeps at 14. 0x4000 is set 256, whose way 0 is line 512.
    for now in 0..=30u64 {
        cache.advance_to(now);
        naive.advance_to(now);
        if now == 0 || now == 10 {
            let r = cache.access(addr, AccessKind::Read, now);
            assert_eq!(r, naive.access(addr, AccessKind::Read, now), "cycle {now}");
            assert_eq!(r.woke_line, now == 10, "cycle {now}");
        }
        assert_views_agree(&cache, &naive, now);
        cache
            .schedule_coherence()
            .unwrap_or_else(|drift| panic!("cycle {now}: {drift}"));
        let mode = cache.line_view(512).resolved_mode(now);
        match now {
            13 => assert_eq!(mode, LineMode::Waking { until: 13 }, "saturated mid-wake"),
            14 => assert_eq!(mode, LineMode::GoingToSleep { until: 17 }, "the retry"),
            _ => {}
        }
    }
    cache.finalize(30);
    naive.finalize(30);
    assert_eq!(cache.stats(), naive.stats());
    assert_eq!(cache.stats().sleeps, cfg.num_lines() as u64 + 1);
    assert_eq!(cache.stats().slow_hits, 1);
}

/// The Table-2 2 MB L2 (32,768 lines) under gated-V_ss decay at an
/// 8,192-cycle interval: the line count where a per-wrap sweep costs
/// most. The stream is a strided walk with periodic reuse, its gaps long
/// enough for idle sets to decay between visits.
#[test]
fn table2_l2_matches_reference() {
    let l2 = CacheConfig::l2_2m_2way(11);
    let decay = decay_cfg(true, false, true, 8192);
    let mut cache = Cache::new(l2, Some(decay)).expect("valid");
    let mut naive = ReferenceCache::new(l2, Some(decay)).expect("valid");
    let lines = l2.num_lines() as u64;
    let mut now = 0u64;
    let mut lcg = 0x243f_6a88_85a3_08d3u64;
    for k in 0..100_000u64 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // About 1 access in 4 revisits a recent line (hits and wakes),
        // the rest stride through the array (misses and evictions).
        let line = if lcg & 3 == 0 {
            (k / 7) % lines
        } else {
            (k * 97) % lines
        };
        now += 11 + (lcg >> 32) % 190;
        let kind = if lcg & 7 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let r = cache.access(line * 64, kind, now);
        assert_eq!(r, naive.access(line * 64, kind, now), "access {k}");
    }
    cache.finalize(now);
    naive.finalize(now);
    assert_eq!(cache.stats(), naive.stats());
    assert!(naive.stats().sleeps > 0, "decay must fire");
    cache.audit().expect("the L2 conserves and stays coherent");
}

/// One step of a generated trace for a cache without decay. Each step
/// moves the cycle by `step`, which may be negative: an out-of-order core
/// issues younger accesses before older ones, and a close may be asked
/// for below the latest access.
#[derive(Debug, Clone, Copy)]
enum PlainOp {
    Access { addr: u64, write: bool, step: i64 },
    Snapshot { step: i64 },
    Finalize { step: i64 },
}

fn arb_plain_op() -> impl Strategy<Value = PlainOp> {
    (0u8..10, 0u64..1u64 << 14, proptest::bool::ANY, -300i64..600).prop_map(
        |(sel, addr, write, step)| match sel {
            0 => PlainOp::Snapshot { step },
            1 => PlainOp::Finalize { step },
            _ => PlainOp::Access {
                addr: addr & !63,
                write,
                step,
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under the `undecayed-close-bug` mutant this test MUST fail: a close
    /// below the latest access then covers too few line-cycles.
    #[test]
    fn undecayed_cache_matches_reference_at_every_step(
        ops in proptest::collection::vec(arb_plain_op(), 1..120),
        assoc_log in 0u32..3,
    ) {
        // 64 lines over a 256-line address range: hits, misses and dirty
        // evictions all happen.
        let cfg = CacheConfig {
            size_bytes: 4096,
            assoc: 1 << assoc_log,
            line_bytes: 64,
            hit_latency: 2,
        };
        let mut fast = Cache::new(cfg, None).expect("valid");
        let mut naive = ReferenceCache::new(cfg, None).expect("valid");
        let mut now = 0u64;
        let mut latest = 0u64;
        for op in ops {
            match op {
                PlainOp::Access { addr, write, step } => {
                    now = now.saturating_add_signed(step);
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    let rf = fast.access(addr, kind, now);
                    let rn = naive.access(addr, kind, now);
                    prop_assert_eq!(rf, rn, "outcome diverged at cycle {} addr {:#x}", now, addr);
                }
                PlainOp::Snapshot { step } => {
                    now = now.saturating_add_signed(step);
                    fast.snapshot(now);
                    naive.snapshot(now);
                }
                PlainOp::Finalize { step } => {
                    now = now.saturating_add_signed(step);
                    fast.finalize(now);
                    naive.finalize(now);
                }
            }
            latest = latest.max(now);
            prop_assert_eq!(fast.clock(), naive.clock(), "clocks diverged at cycle {}", now);
            prop_assert_eq!(fast.finalized_at(), naive.finalized_at());
            prop_assert_eq!(fast.stats(), naive.stats(), "stats diverged at cycle {}", now);
        }
        // Closed at or past every cycle used, both pass the line-cycle law.
        fast.finalize(latest);
        naive.finalize(latest);
        prop_assert_eq!(fast.stats(), naive.stats());
        prop_assert_eq!(fast.finalized_at(), Some(latest));
        fast.audit().expect("the O(1) close conserves line-cycles");
    }
}
