//! Differential oracle: the time-jumping `advance_to` fast path must be
//! bitwise-indistinguishable from a deliberately naive driver that steps
//! the clock one cycle at a time — same `CacheStats` (including the
//! `ModeCycles` integrals), same hit/miss/latency outcome for every
//! access — across random traces, both standby behaviors, both decay
//! policies, tag decay on/off, intervals down to
//! `MIN_DECAY_INTERVAL_CYCLES`, and adaptive interval switches mid-run.
//!
//! This is the regression net for every later fast-path optimization: any
//! divergence in when a counter wraps, a line decays, or a mode integral
//! is attributed shows up here as a stats mismatch.

use cachesim::{
    AccessKind, Cache, CacheConfig, CacheStats, DecayConfig, DecayPolicy, StandbyBehavior,
    MIN_DECAY_INTERVAL_CYCLES,
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
    // accesses.
    (
        0u8..9,
        0u64..1u64 << 17,
        proptest::bool::ANY,
        0u64..700,
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

/// Runs `ops` through a cache stepped one cycle at a time and one that
/// jumps with `advance_to` in lockstep, checking each access outcome, and
/// returns both finalized stats.
fn run_both(decay: DecayConfig, ops: &[Op]) -> (CacheStats, CacheStats) {
    let cfg = CacheConfig::l1_64k_2way();
    let mut naive = Cache::new(cfg, Some(decay)).expect("valid");
    let mut fast = Cache::new(cfg, Some(decay)).expect("valid");
    let mut now = 0u64;
    for op in ops {
        match *op {
            Op::Access { addr, write, gap } => {
                let next = now + gap;
                for t in now..next {
                    naive.advance_to(t + 1);
                }
                fast.advance_to(next);
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let rn = naive.access(addr, kind, next);
                let rf = fast.access(addr, kind, next);
                assert_eq!(rn, rf, "outcome diverged at cycle {next} addr {addr:#x}");
                now = next;
            }
            Op::SetInterval { interval, gap } => {
                let next = now + gap;
                for t in now..next {
                    naive.advance_to(t + 1);
                }
                fast.advance_to(next);
                naive.set_decay_interval(interval);
                fast.set_decay_interval(interval);
                now = next;
            }
        }
    }
    // Let any trailing decay play out identically, then settle integrals.
    let end = now + 4096;
    for t in now..end {
        naive.advance_to(t + 1);
    }
    fast.advance_to(end);
    naive.finalize(end);
    fast.finalize(end);
    assert_eq!(naive.finalized_at(), fast.finalized_at());
    naive.audit().expect("naive driver conserves");
    fast.audit().expect("fast path conserves");
    (*naive.stats(), *fast.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tick_and_advance_to_agree_bitwise(
        ops in proptest::collection::vec(arb_op(), 1..60),
        losing in proptest::bool::ANY,
        simple in proptest::bool::ANY,
        tags_decay in proptest::bool::ANY,
        interval in MIN_DECAY_INTERVAL_CYCLES..2048,
    ) {
        let decay = decay_cfg(losing, simple, tags_decay, interval);
        let (naive, fast) = run_both(decay, &ops);
        prop_assert_eq!(naive, fast, "stats diverged under {:?}", decay);
    }
}

#[test]
fn oracle_holds_across_an_adaptive_interval_ladder() {
    // A deterministic worst case for the interval-switch machinery: walk
    // the interval up and down mid-run with live, dirty lines in flight.
    let mut ops = Vec::new();
    for (i, interval) in [512u64, 2048, 64, 4096, 128, 1024].iter().enumerate() {
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
        let decay = decay_cfg(losing, false, true, 256);
        let (naive, fast) = run_both(decay, &ops);
        assert_eq!(naive, fast, "stats diverged under {decay:?}");
        assert!(naive.sleeps > 0, "ladder must actually exercise decay");
    }
}
