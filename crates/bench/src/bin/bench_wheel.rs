//! Measures the decay caches' data-oriented hot path (struct-of-arrays
//! line slabs plus the hierarchical decay timing wheel) and writes
//! `BENCH_wheel.json`: a decay-enabled 2 MB L2 at the Table-2 geometry
//! (32,768 lines) on a synthetic trace, run through both the wheel
//! [`Cache`] and the retained naive [`ReferenceCache`] — the line count
//! where per-wrap full sweeps hurt most, and the ratio the slab+wheel
//! rework exists to win. End-to-end figure timing is `tierbench`'s
//! `figures_cold` workload.
//!
//! ```text
//! bench_wheel [--repeats R] [--out FILE]
//! ```
//!
//! Each measurement is repeated `repeats` times and the fastest repeat is
//! reported (the standard minimum-of-k noise filter).

use std::time::Instant;

use cachesim::{
    AccessKind, Cache, CacheConfig, DecayConfig, DecayPolicy, ReferenceCache, StandbyBehavior,
};
use serde::Serialize;
use units::Seconds;

#[derive(Serialize)]
struct L2DecayPoint {
    /// Cache geometry exercised.
    lines: usize,
    /// Decay interval driven (cycles).
    interval_cycles: u64,
    /// Synthetic accesses replayed.
    accesses: u64,
    /// Final cycle of the replay.
    final_cycle: u64,
    /// Lines put to sleep across the run (proves decay actually fired).
    sleeps: u64,
    /// Fastest repeat, wheel build.
    wheel_best_seconds: Seconds,
    /// Fastest repeat, retained naive reference.
    reference_best_seconds: Seconds,
    /// reference / wheel (>1 means the wheel wins).
    wheel_speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    workload: String,
    repeats: usize,
    l2_decay: L2DecayPoint,
}

/// Table-2 L2 decay setup: gated-V_ss-style (losing) decay over the 2 MB
/// array. The interval sits in the paper's sweep menu midrange.
fn l2_decay_cfg(interval: u64) -> DecayConfig {
    DecayConfig {
        interval_cycles: interval,
        policy: DecayPolicy::NoAccess,
        tags_decay: true,
        behavior: StandbyBehavior::Losing,
        sleep_settle_cycles: 30,
        wake_settle_cycles: 3,
    }
}

/// Replays a deterministic miss-heavy stream over `accesses` L2 lookups:
/// a strided walk with periodic reuse, gaps long enough for idle sets to
/// reach their decay deadlines between visits.
fn replay_l2<C, A, F>(cache: &mut C, accesses: u64, access: A, finalize: F) -> u64
where
    A: Fn(&mut C, u64, AccessKind, u64),
    F: Fn(&mut C, u64),
{
    let mut now = 0u64;
    let mut lcg = 0x243f_6a88_85a3_08d3u64;
    for k in 0..accesses {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // ~1/4 of accesses revisit a recent line (hits and wakes), the
        // rest stride through the 2 MB array (misses and evictions).
        let line = if lcg & 3 == 0 {
            (k / 7) % 32_768
        } else {
            (k * 97) % 32_768
        };
        now += 11 + (lcg >> 32) % 190;
        let kind = if lcg & 7 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        access(cache, line * 64, kind, now);
    }
    finalize(cache, now);
    now
}

fn min_seconds(times: &[Seconds]) -> Seconds {
    times.iter().cloned().fold(
        Seconds::new(f64::INFINITY),
        |a, b| if b < a { b } else { a },
    )
}

fn main() {
    let mut repeats: usize = 3;
    let mut out = String::from("BENCH_wheel.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--repeats" => {
                repeats = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--repeats needs a number"))
            }
            "--out" => {
                out = it
                    .next()
                    .unwrap_or_else(|| die("--out needs a path"))
                    .to_string()
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    let l2 = CacheConfig::l2_2m_2way(11);
    let interval = 8192u64;
    let accesses = 400_000u64;
    let mut wheel_times = Vec::with_capacity(repeats);
    let mut reference_times = Vec::with_capacity(repeats);
    let mut sleeps = 0u64;
    let mut final_cycle = 0u64;
    let mut wheel_stats = None;
    for _ in 0..repeats {
        let mut cache = Cache::new(l2, Some(l2_decay_cfg(interval)))
            .unwrap_or_else(|e| die(&format!("L2 geometry: {e}")));
        let start = Instant::now();
        let end = replay_l2(
            &mut cache,
            accesses,
            |c, addr, kind, now| {
                c.access(addr, kind, now);
            },
            |c, now| c.finalize(now),
        );
        wheel_times.push(Seconds::new(start.elapsed().as_secs_f64()));
        sleeps = cache.stats().sleeps;
        final_cycle = end;
        wheel_stats = Some(*cache.stats());
    }
    for _ in 0..repeats {
        let mut cache = ReferenceCache::new(l2, Some(l2_decay_cfg(interval)))
            .unwrap_or_else(|e| die(&format!("L2 geometry: {e}")));
        let start = Instant::now();
        replay_l2(
            &mut cache,
            accesses,
            |c, addr, kind, now| {
                c.access(addr, kind, now);
            },
            |c, now| c.finalize(now),
        );
        reference_times.push(Seconds::new(start.elapsed().as_secs_f64()));
        // The two implementations must agree bitwise even while being
        // timed — a benchmark on diverging simulators measures nothing.
        if Some(*cache.stats()) != wheel_stats {
            die("wheel and reference stats diverged during the benchmark");
        }
    }
    let wheel_best = min_seconds(&wheel_times);
    let reference_best = min_seconds(&reference_times);
    eprintln!(
        "2MB L2 decay ({} lines): wheel best {:.3}s, reference best {:.3}s ({:.2}x)",
        l2.num_lines(),
        wheel_best.get(),
        reference_best.get(),
        reference_best.get() / wheel_best.get()
    );

    let report = BenchReport {
        workload: "Table-2 2MB L2 decay replay".into(),
        repeats,
        l2_decay: L2DecayPoint {
            lines: l2.num_lines(),
            interval_cycles: interval,
            accesses,
            final_cycle,
            sleeps,
            wheel_best_seconds: wheel_best,
            reference_best_seconds: reference_best,
            wheel_speedup: reference_best.get() / wheel_best.get(),
        },
    };
    let json =
        serde_json::to_string_pretty(&report).unwrap_or_else(|e| die(&format!("serialise: {e}")));
    // lint: allow(fs-boundary): bench artifact emission — a one-shot JSON report, not run persistence
    std::fs::write(&out, json).unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
    eprintln!("wrote {out}");
}

fn die(msg: &str) -> ! {
    eprintln!("bench_wheel: {msg}");
    std::process::exit(1);
}
