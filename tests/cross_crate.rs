//! Cross-crate integration tests: determinism, time-advance equivalence,
//! pricing consistency, and the leakage model's cross-module coherence.

use cachesim::{AccessKind, Cache, CacheConfig, DecayConfig, DecayPolicy, StandbyBehavior};
use hotleakage::{Environment, TechNode};
use leakctl::Technique;
use simcore::pricing::{self, CacheArrays};
use simcore::study::execute;
use simcore::{Study, StudyConfig};
use specgen::{Benchmark, SpecTrace};
use uarch::core::table2_core;
use uarch::TraceSource;

fn gated(interval: u64) -> DecayConfig {
    DecayConfig {
        interval_cycles: interval,
        policy: DecayPolicy::NoAccess,
        tags_decay: true,
        behavior: StandbyBehavior::Losing,
        sleep_settle_cycles: 30,
        wake_settle_cycles: 3,
    }
}

#[test]
fn advance_to_equals_per_cycle_ticking() {
    // The batch time-advance used by the one-pass core must produce exactly
    // the same decay behaviour as ticking every cycle.
    let mut ticked = Cache::new(CacheConfig::l1_64k_2way(), Some(gated(512))).expect("valid");
    let mut jumped = Cache::new(CacheConfig::l1_64k_2way(), Some(gated(512))).expect("valid");
    let accesses: Vec<(u64, u64)> = (0..200).map(|i| (i * 64 % 16384, i * 37 + 11)).collect();
    let mut now = 0;
    for &(addr, at) in &accesses {
        for t in now..at {
            ticked.advance_to(t + 1);
        }
        now = at;
        ticked.access(addr, AccessKind::Read, at);
        jumped.advance_to(at);
        jumped.access(addr, AccessKind::Read, at);
    }
    ticked.finalize(now);
    jumped.finalize(now);
    assert_eq!(ticked.stats().sleeps, jumped.stats().sleeps);
    assert_eq!(ticked.stats().induced_misses, jumped.stats().induced_misses);
    assert_eq!(ticked.stats().mode_cycles, jumped.stats().mode_cycles);
}

#[test]
fn full_stack_is_deterministic() {
    let cfg = StudyConfig {
        insts: 40_000,
        ..StudyConfig::default()
    };
    let a = execute(Benchmark::Twolf, &Technique::gated_vss(2048), &cfg, 11).expect("runs");
    let b = execute(Benchmark::Twolf, &Technique::gated_vss(2048), &cfg, 11).expect("runs");
    assert_eq!(a, b, "same seed, same everything");
    let c = execute(
        Benchmark::Twolf,
        &Technique::gated_vss(2048),
        &StudyConfig { seed: 999, ..cfg },
        11,
    )
    .expect("runs");
    assert_ne!(a.cycles, c.cycles, "different seed, different timing");
}

#[test]
fn mode_cycles_conserve_under_real_workloads() {
    // Every line-cycle of every run lands in exactly one accounting bucket.
    let cfg = StudyConfig {
        insts: 50_000,
        ..StudyConfig::default()
    };
    for technique in [Technique::drowsy(1024), Technique::gated_vss(1024)] {
        let raw = execute(Benchmark::Gcc, &technique, &cfg, 11).expect("runs");
        let lines = CacheConfig::l1_64k_2way().num_lines() as u64;
        assert_eq!(
            raw.l1d.mode_cycles.total(),
            units::Cycles::new(lines * raw.cycles.get()),
            "{technique:?}: line-cycles must be conserved"
        );
    }
}

#[test]
fn repricing_is_consistent_across_temperatures() {
    // One timing run priced at two temperatures: leakage joules differ,
    // cycle counts and event counts do not.
    let cfg = StudyConfig {
        insts: 40_000,
        ..StudyConfig::default()
    };
    let raw = execute(Benchmark::Perl, &Technique::drowsy(4096), &cfg, 11).expect("runs");
    let arrays = CacheArrays::table2_l1d();
    let cool = cfg.environment(85.0).expect("valid");
    let hot = cfg.environment(110.0).expect("valid");
    let technique = Technique::drowsy(4096);
    let p_cool = pricing::price(&raw, &technique, &cool, &arrays).expect("prices");
    let p_hot = pricing::price(&raw, &technique, &hot, &arrays).expect("prices");
    assert!(p_hot.leakage_j > p_cool.leakage_j * 1.3);
    assert_eq!(p_hot.seconds, p_cool.seconds);
}

#[test]
fn study_cache_reuses_baselines() {
    let study = Study::new(StudyConfig {
        insts: 30_000,
        ..StudyConfig::default()
    });
    let t0 = std::time::Instant::now();
    study
        .compare(Benchmark::Vpr, Technique::drowsy(4096), 11, 110.0)
        .expect("runs");
    let first = t0.elapsed();
    let t1 = std::time::Instant::now();
    study
        .compare(Benchmark::Vpr, Technique::drowsy(4096), 11, 85.0)
        .expect("runs");
    let second = t1.elapsed();
    assert!(
        second < first / 2,
        "re-pricing a cached pair must be much cheaper: {first:?} vs {second:?}"
    );
}

#[test]
fn variation_pricing_raises_savings_magnitude() {
    // With inter-die variation the baseline leaks more, so the *absolute*
    // joules saved grow; the net percentage stays in a sane band.
    let plain = Study::new(StudyConfig {
        insts: 30_000,
        ..StudyConfig::default()
    });
    let varied = Study::new(StudyConfig {
        insts: 30_000,
        variation: true,
        ..StudyConfig::default()
    });
    let p = plain
        .compare(Benchmark::Gzip, Technique::gated_vss(4096), 11, 110.0)
        .expect("runs");
    let v = varied
        .compare(Benchmark::Gzip, Technique::gated_vss(4096), 11, 110.0)
        .expect("runs");
    assert!(v.net_savings_pct > 0.0 && v.net_savings_pct < 100.0);
    // Variation raises leakage relative to fixed dynamic costs, so the
    // technique's net percentage cannot drop.
    assert!(v.net_savings_pct >= p.net_savings_pct - 0.5);
}

#[test]
fn core_over_real_trace_hits_plausible_ipc() {
    for (b, lo, hi) in [
        (Benchmark::Perl, 0.8, 2.5),
        (Benchmark::Mcf, 0.03, 0.6),
        (Benchmark::Gzip, 0.7, 2.2),
    ] {
        let mut core = table2_core(11, None).expect("valid");
        let mut trace = SpecTrace::new(b, 5);
        let stats = core.run(&mut trace, 60_000);
        let ipc = stats.ipc().get();
        assert!(ipc > lo && ipc < hi, "{b}: ipc {ipc} outside [{lo}, {hi}]");
    }
}

#[test]
fn leakage_energy_scale_is_coherent_across_crates() {
    // The leakage the pricing assigns to the baseline must equal the
    // structure model's power times the run's duration.
    let cfg = StudyConfig {
        insts: 30_000,
        ..StudyConfig::default()
    };
    let raw = execute(Benchmark::Gap, &Technique::none(), &cfg, 11).expect("runs");
    let arrays = CacheArrays::table2_l1d();
    let env = Environment::new(TechNode::N70, 0.9, 383.15).expect("valid");
    let priced = pricing::price(&raw, &Technique::none(), &env, &arrays).expect("prices");
    let expected_w = arrays.data.leakage_power(&env) + arrays.tags.leakage_power(&env);
    let actual_w = priced.leakage_j / priced.seconds;
    assert!(
        (actual_w - expected_w).get().abs() / expected_w.get() < 1e-9,
        "baseline leakage {actual_w} W must equal the array model {expected_w} W"
    );
}

#[test]
fn trace_generators_feed_core_without_region_aliasing() {
    // No two address regions may map to the same cache set+tag pair in a
    // way that creates accidental sharing: run a trace and check the cache
    // never reports more distinct tags than the generator produced lines.
    let mut trace = SpecTrace::new(Benchmark::Twolf, 3);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..50_000 {
        let op = trace.next_op().expect("endless");
        if op.class.is_mem() {
            seen.insert(op.mem_addr & !63);
        }
    }
    assert!(seen.len() > 100, "twolf must touch a real footprint");
}
