//! Attacker observer models: replay a victim trace against a cache and
//! collect the per-probe latency vector an attacker would time.
//!
//! The runner is generic over [`ProbeTarget`] so the exact same trial
//! code drives both the production [`Cache`] and the intentionally-slow
//! [`ReferenceCache`]; the `leakage-oracle` differential suite compares
//! the two latency vectors bitwise. All timing is simulated
//! [`Cycles`] — wall-clock time never enters the harness (enforced by
//! the `no-wallclock` lint rule).

use cachesim::{AccessKind, AccessResult, Cache, ReferenceCache};
use units::Cycles;

use crate::trace::{addr_of, TimedAccess, ASSOC, HIT_LATENCY_CYCLES, MEM_LATENCY_CYCLES, NUM_SETS};

/// First attacker tag; chosen clear of every victim tag so prime lines
/// never alias victim lines.
pub const ATTACKER_TAG_BASE: u64 = 0x40;
/// Cycles between consecutive prime accesses.
const PRIME_STRIDE: u64 = 2;

/// The cache-model surface a trial needs. Implemented by the
/// production [`Cache`] and by [`ReferenceCache`] so trials replay
/// identically on both.
pub trait ProbeTarget {
    /// One access at absolute cycle `now`.
    fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> AccessResult;
    /// Advance the model clock (decay transitions fire).
    fn advance_to(&mut self, now: u64);
    /// Re-target the decay interval (the adaptive policy's lever).
    fn set_decay_interval(&mut self, interval_cycles: u64);
}

impl ProbeTarget for Cache {
    fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> AccessResult {
        Cache::access(self, addr, kind, now)
    }
    fn advance_to(&mut self, now: u64) {
        Cache::advance_to(self, now);
    }
    fn set_decay_interval(&mut self, interval_cycles: u64) {
        Cache::set_decay_interval(self, interval_cycles);
    }
}

impl ProbeTarget for ReferenceCache {
    fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> AccessResult {
        ReferenceCache::access(self, addr, kind, now)
    }
    fn advance_to(&mut self, now: u64) {
        ReferenceCache::advance_to(self, now);
    }
    fn set_decay_interval(&mut self, interval_cycles: u64) {
        ReferenceCache::set_decay_interval(self, interval_cycles);
    }
}

/// Which attacker model observes the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// Times the victim's own accesses (the "time" step of
    /// evict+time); the leakage-control policy plays the evict step.
    EvictTime,
    /// Primes every set with attacker lines before the victim runs,
    /// then probes them at a fixed secret-independent cycle and times
    /// each probe.
    PrimeProbe,
}

impl Observer {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Observer::EvictTime => "evict_time",
            Observer::PrimeProbe => "prime_probe",
        }
    }
}

/// A mid-trial decay-interval change (the adaptive policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSwitch {
    /// Absolute cycle of the switch (secret-independent).
    pub at_cycle: u64,
    /// The new interval.
    pub interval_cycles: u64,
}

/// End-to-end latency of one access under the harness's flat memory
/// model: base hit latency, plus wake-up stalls, plus the next-level
/// penalty on a miss.
pub fn access_latency(res: &AccessResult) -> Cycles {
    let mut cycles = HIT_LATENCY_CYCLES + u64::from(res.extra_latency);
    if res.miss.is_some() {
        cycles += MEM_LATENCY_CYCLES;
    }
    Cycles::new(cycles)
}

/// The addresses a prime+probe attacker owns, covering every way of
/// every set.
pub fn attacker_addrs() -> Vec<u64> {
    let mut addrs = Vec::with_capacity(NUM_SETS * ASSOC);
    for set in 0..NUM_SETS as u64 {
        for way in 0..ASSOC as u64 {
            addrs.push(addr_of(set, ATTACKER_TAG_BASE + way));
        }
    }
    addrs
}

/// Replays one trial: (optional prime) → victim trace → (optional
/// probe), returning the raw per-probe latency vector the attacker
/// times. `probe_at` is the fixed probe cycle for [`Observer::PrimeProbe`]
/// (ignored by evict+time); `switch` injects the adaptive policy's
/// interval change at its (secret-independent) cycle.
pub fn run_trial<T: ProbeTarget>(
    target: &mut T,
    trace: &[TimedAccess],
    observer: Observer,
    probe_at: u64,
    switch: Option<IntervalSwitch>,
) -> Vec<Cycles> {
    let mut observations = Vec::new();
    let mut pending_switch = switch;

    if observer == Observer::PrimeProbe {
        let mut now = 0;
        for addr in attacker_addrs() {
            target.access(addr, AccessKind::Read, now);
            now += PRIME_STRIDE;
        }
    }

    for acc in trace {
        if let Some(sw) = pending_switch {
            if sw.at_cycle <= acc.at {
                target.advance_to(sw.at_cycle);
                target.set_decay_interval(sw.interval_cycles);
                pending_switch = None;
            }
        }
        target.advance_to(acc.at);
        let res = target.access(acc.addr, acc.kind, acc.at);
        if observer == Observer::EvictTime {
            observations.push(access_latency(&res));
        }
    }

    if observer == Observer::PrimeProbe {
        if let Some(sw) = pending_switch {
            if sw.at_cycle <= probe_at {
                target.advance_to(sw.at_cycle);
                target.set_decay_interval(sw.interval_cycles);
            }
        }
        target.advance_to(probe_at);
        for (now, addr) in (probe_at..).zip(attacker_addrs()) {
            let res = target.access(addr, AccessKind::Read, now);
            observations.push(access_latency(&res));
        }
    }

    observations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{victim_trace, TraceKind, LINE_BYTES};
    use cachesim::CacheConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn plain_cache() -> Cache {
        let cfg = CacheConfig {
            size_bytes: NUM_SETS * ASSOC * LINE_BYTES,
            assoc: ASSOC,
            line_bytes: LINE_BYTES,
            hit_latency: HIT_LATENCY_CYCLES as u32,
        };
        Cache::new(cfg, None).expect("harness geometry is valid")
    }

    #[test]
    fn attacker_tags_do_not_alias_victim_tags() {
        for addr in attacker_addrs() {
            let tag = (addr / LINE_BYTES as u64) >> crate::trace::SET_BITS;
            assert!(tag >= ATTACKER_TAG_BASE);
        }
    }

    #[test]
    fn evict_time_observes_one_latency_per_victim_access() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let trace = victim_trace(TraceKind::GapConflict, false, &mut rng);
        let mut cache = plain_cache();
        let obs = run_trial(&mut cache, &trace, Observer::EvictTime, 0, None);
        assert_eq!(obs.len(), trace.len());
        // Cold miss then (baseline) a plain hit.
        assert_eq!(obs[0], Cycles::new(HIT_LATENCY_CYCLES + MEM_LATENCY_CYCLES));
        assert_eq!(obs[1], Cycles::new(HIT_LATENCY_CYCLES));
    }

    #[test]
    fn prime_probe_sees_the_victim_set_on_a_plain_cache() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let trace = victim_trace(TraceKind::SetSelect, true, &mut rng);
        let mut cache = plain_cache();
        let probe_at = TraceKind::SetSelect.probe_at();
        let obs = run_trial(&mut cache, &trace, Observer::PrimeProbe, probe_at, None);
        assert_eq!(obs.len(), NUM_SETS * ASSOC);
        let slow = Cycles::new(HIT_LATENCY_CYCLES + MEM_LATENCY_CYCLES);
        let misses: Vec<usize> = obs
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == slow)
            .map(|(i, _)| i)
            .collect();
        // Every miss sits in the victim's set (set 3; attacker addrs
        // are laid out set-major, two per set). There are two of them:
        // the probe of the evicted line self-evicts its set sibling —
        // the classic assoc-way probe cascade — which only amplifies
        // the signal.
        assert_eq!(misses.len(), 2);
        assert!(misses.iter().all(|i| i / ASSOC == 3));
    }
}
