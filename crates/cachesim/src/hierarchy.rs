//! The L1I / L1D → unified L2 → memory hierarchy of the study.
//!
//! Leakage control is applied to the **L1 data cache** only, matching the
//! paper's scope (§2: "the choice of state-preserving versus
//! non-state-preserving architectural leakage-control techniques in the L1
//! data cache"). The L1I and L2 run undecayed.
//!
//! Writebacks (replacement or decay-forced) are assumed buffered: they cost
//! an L2 access's energy but do not stall the requesting load.

use serde::{Deserialize, Serialize};

use crate::cache::{AccessKind, Cache, MissKind};
use crate::config::{CacheConfig, ConfigError};
use crate::decay::DecayConfig;

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Main-memory access latency, cycles (Table 2: 100).
    pub mem_latency: u32,
    /// Leakage control on the L1D (the study's variable), if any.
    pub l1d_decay: Option<DecayConfig>,
}

impl HierarchyConfig {
    /// The paper's Table 2 hierarchy with the given L2 latency and L1D
    /// leakage control.
    pub fn table2(l2_latency: u32, l1d_decay: Option<DecayConfig>) -> Self {
        HierarchyConfig {
            l1i: CacheConfig::l1i_64k_2way(),
            l1d: CacheConfig::l1_64k_2way(),
            l2: CacheConfig::l2_2m_2way(l2_latency),
            mem_latency: 100,
            l1d_decay,
        }
    }
}

/// What one data access cost and touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataAccessOutcome {
    /// Total latency until the data is available, cycles.
    pub latency: u32,
    /// L2 accesses performed (refill + buffered writeback).
    pub l2_accesses: u32,
    /// Main-memory accesses performed.
    pub mem_accesses: u32,
    /// Tag-only probes in the L1D (decayed-tag wake-and-check).
    pub tag_probes: u32,
    /// An L1D line was woken from standby.
    pub woke_line: bool,
    /// The access missed in the L1D.
    pub l1_miss: bool,
    /// The L1D miss was induced by decay.
    pub induced: bool,
}

/// The simulated memory hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    mem_latency: u32,
    /// Decay writebacks already forwarded to the energy accounting.
    decay_writebacks_seen: u64,
}

impl Hierarchy {
    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any level's geometry is invalid, or if
    /// the slowest access (L1 hit, L1D wake settle, L2 hit and memory)
    /// takes more than `u32::MAX` cycles: accesses add their latencies
    /// in `u32`.
    pub fn new(cfg: HierarchyConfig) -> Result<Self, ConfigError> {
        let wake = cfg.l1d_decay.map_or(0, |d| u64::from(d.wake_settle_cycles));
        let l1 = u64::from(cfg.l1i.hit_latency).max(u64::from(cfg.l1d.hit_latency) + wake);
        let worst = l1 + u64::from(cfg.l2.hit_latency) + u64::from(cfg.mem_latency);
        if worst > u64::from(u32::MAX) {
            return Err(ConfigError::LatencyOverflow(worst));
        }
        Ok(Hierarchy {
            l1i: Cache::new(cfg.l1i, None)?,
            l1d: Cache::new(cfg.l1d, cfg.l1d_decay)?,
            l2: Cache::new(cfg.l2, None)?,
            mem_latency: cfg.mem_latency,
            decay_writebacks_seen: 0,
        })
    }

    /// The L1 data cache (stats, decay state).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Batch-advances the decay machinery to `now` (see
    /// [`Cache::advance_to`]).
    pub fn advance_to(&mut self, now: u64) {
        self.l1d.advance_to(now);
    }

    /// Changes the L1D decay interval at runtime (adaptive decay).
    pub fn set_l1d_decay_interval(&mut self, interval_cycles: u64) {
        self.l1d.set_decay_interval(interval_cycles);
    }

    /// An instruction fetch of the line at `addr`; returns its latency and
    /// counts L2/memory traffic internally.
    pub fn inst_fetch(&mut self, addr: u64, now: u64) -> (u32, u32, u32) {
        let r1 = self.l1i.access(addr, AccessKind::Read, now);
        let mut latency = self.l1i.config().hit_latency + r1.extra_latency;
        let mut l2_accesses = 0;
        let mut mem_accesses = 0;
        if !r1.hit {
            let (lat, l2a, mema) = self.fetch_from_l2(addr, now, r1.writeback);
            latency += lat;
            l2_accesses += l2a;
            mem_accesses += mema;
        }
        (latency, l2_accesses, mem_accesses)
    }

    /// A data access (load or store) at `addr`.
    pub fn data_access(&mut self, addr: u64, kind: AccessKind, now: u64) -> DataAccessOutcome {
        let r1 = self.l1d.access(addr, kind, now);
        let mut out = DataAccessOutcome {
            latency: self.l1d.config().hit_latency + r1.extra_latency,
            tag_probes: r1.tag_probes,
            woke_line: r1.woke_line,
            l1_miss: !r1.hit,
            induced: r1.miss == Some(MissKind::Induced),
            ..DataAccessOutcome::default()
        };
        if !r1.hit {
            let (lat, l2a, mema) = self.fetch_from_l2(addr, now, r1.writeback);
            out.latency += lat;
            out.l2_accesses += l2a;
            out.mem_accesses += mema;
        }
        // Decay-forced writebacks happen inside decay-deadline events;
        // drain the count here so callers can charge their L2 energy.
        let total = self.l1d.stats().decay_writebacks;
        if total > self.decay_writebacks_seen {
            out.l2_accesses += (total - self.decay_writebacks_seen) as u32;
            self.decay_writebacks_seen = total;
        }
        out
    }

    /// Refills a missing L1 line from L2/memory. Returns
    /// `(latency, l2_accesses, mem_accesses)`. `l1_writeback` charges a
    /// buffered L2 write for the evicted dirty victim.
    fn fetch_from_l2(&mut self, addr: u64, now: u64, l1_writeback: bool) -> (u32, u32, u32) {
        let mut l2_accesses = 1u32;
        let mut mem_accesses = 0u32;
        let r2 = self.l2.access(addr, AccessKind::Read, now);
        let mut latency = self.l2.config().hit_latency;
        if !r2.hit {
            latency += self.mem_latency;
            mem_accesses += 1;
            if r2.writeback {
                mem_accesses += 1; // buffered L2 → memory writeback
            }
        }
        if l1_writeback {
            l2_accesses += 1; // buffered L1 → L2 writeback (no stall)
        }
        (latency, l2_accesses, mem_accesses)
    }

    /// Brings all mode-cycle integrals up to `now` and drains any
    /// decay-forced writebacks still pending after the last data access.
    /// The undecayed L1I and L2 close in O(1) (see [`Cache::snapshot`]).
    ///
    /// Returns the number of writebacks drained here; callers must charge
    /// each one as an L2 access, exactly as [`Hierarchy::data_access`] does
    /// for writebacks that happen mid-run. Without this drain, a dirty line
    /// decaying after the program's final reference would leak its
    /// writeback energy out of the gated-V_ss accounting.
    pub fn finalize(&mut self, now: u64) -> u64 {
        self.l1d.advance_to(now);
        self.l1d.finalize(now);
        self.l1i.finalize(now);
        self.l2.finalize(now);
        let total = self.l1d.stats().decay_writebacks;
        let drained = total - self.decay_writebacks_seen;
        self.decay_writebacks_seen = total;
        drained
    }

    /// Decay-forced writebacks already forwarded to the energy accounting
    /// (via [`Hierarchy::data_access`] or [`Hierarchy::finalize`]).
    pub fn decay_writebacks_drained(&self) -> u64 {
        self.decay_writebacks_seen
    }

    /// Audits every conservation law over the whole hierarchy: the
    /// per-cache laws of [`crate::audit::check_cache_stats`] on all three
    /// levels, plus writeback drainage at this level.
    ///
    /// # Errors
    ///
    /// Returns the full [`crate::audit::AuditReport`] if any law is
    /// violated.
    pub fn audit(&self) -> Result<(), crate::audit::AuditReport> {
        let mut report = crate::audit::AuditReport::new();
        for (name, cache) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            report.absorb(
                name,
                crate::audit::check_cache_stats(
                    cache.stats(),
                    cache.config().num_lines() as u64,
                    cache.finalized_at(),
                    cache.decay_config().is_some(),
                ),
            );
            if let Err(detail) = cache.schedule_coherence() {
                report.absorb(
                    name,
                    vec![crate::audit::AuditViolation::DecayScheduleDrift { detail }],
                );
            }
        }
        report.absorb(
            "hierarchy",
            crate::audit::check_writeback_drainage(
                self.l1d.stats().decay_writebacks,
                self.decay_writebacks_seen,
            ),
        );
        report.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::{DecayPolicy, StandbyBehavior};

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
    fn latency_sums_must_fit_in_u32() {
        // L1D hit 2 + wake settle 3 + L2 + memory 100.
        let largest = u32::MAX - 2 - 3 - 100;
        let mut h = Hierarchy::new(HierarchyConfig::table2(largest, Some(gated(512))))
            .expect("the slowest access takes exactly u32::MAX cycles");
        let out = h.data_access(0x1000, AccessKind::Read, 0);
        assert_eq!(out.latency, 2 + largest + 100);
        assert_eq!(
            Hierarchy::new(HierarchyConfig::table2(largest + 1, Some(gated(512)))).err(),
            Some(ConfigError::LatencyOverflow(u64::from(u32::MAX) + 1))
        );
        // Without decay there is no wake settle to pay.
        assert!(Hierarchy::new(HierarchyConfig::table2(largest + 3, None)).is_ok());
        assert!(Hierarchy::new(HierarchyConfig::table2(largest + 4, None)).is_err());
    }

    #[test]
    fn l1_hit_is_cheap() {
        let mut h = Hierarchy::new(HierarchyConfig::table2(11, None)).unwrap();
        h.data_access(0x1000, AccessKind::Read, 0);
        let out = h.data_access(0x1000, AccessKind::Read, 1);
        assert_eq!(out.latency, 2);
        assert!(!out.l1_miss);
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut h = Hierarchy::new(HierarchyConfig::table2(11, None)).unwrap();
        let out = h.data_access(0x1000, AccessKind::Read, 0);
        assert!(out.l1_miss);
        assert_eq!(out.latency, 2 + 11 + 100);
        assert_eq!(out.mem_accesses, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = Hierarchy::new(HierarchyConfig::table2(5, None)).unwrap();
        let stride = (CacheConfig::l1_64k_2way().num_sets() * 64) as u64;
        h.data_access(0x0, AccessKind::Read, 0); // now in L1+L2
        h.data_access(stride, AccessKind::Read, 1);
        h.data_access(2 * stride, AccessKind::Read, 2); // evicts 0x0 from L1
        let out = h.data_access(0x0, AccessKind::Read, 3);
        assert!(out.l1_miss);
        assert_eq!(out.latency, 2 + 5, "L2 hit costs L1 + L2 latency only");
        assert_eq!(out.mem_accesses, 0);
    }

    #[test]
    fn induced_miss_pays_l2_latency() {
        let mut h = Hierarchy::new(HierarchyConfig::table2(11, Some(gated(512)))).unwrap();
        h.data_access(0x1000, AccessKind::Read, 0);
        for t in 0..1200u64 {
            h.advance_to(t + 1);
        }
        let out = h.data_access(0x1000, AccessKind::Read, 1200);
        assert!(out.induced);
        assert_eq!(out.latency, 2 + 11, "induced miss is an L2 hit");
    }

    #[test]
    fn decay_writebacks_charged_as_l2_accesses() {
        let mut h = Hierarchy::new(HierarchyConfig::table2(11, Some(gated(512)))).unwrap();
        h.data_access(0x1000, AccessKind::Write, 0);
        for t in 0..1200u64 {
            h.advance_to(t + 1);
        }
        let out = h.data_access(0x9999_0000, AccessKind::Read, 1200);
        assert!(
            out.l2_accesses >= 2,
            "refill plus the decay writeback, got {}",
            out.l2_accesses
        );
    }

    #[test]
    fn finalize_drains_trailing_decay_writebacks() {
        // Regression: a dirty line that decays *after* the program's last
        // data access used to leave its writeback uncharged — data_access
        // was the only drain point. finalize must hand over the remainder.
        let mut h = Hierarchy::new(HierarchyConfig::table2(11, Some(gated(512)))).unwrap();
        h.data_access(0x1000, AccessKind::Write, 0);
        let drained = h.finalize(2000); // decay event + writeback happen here
        assert_eq!(h.l1d().stats().decay_writebacks, 1);
        assert_eq!(drained, 1, "the trailing writeback must be handed over");
        assert_eq!(h.decay_writebacks_drained(), 1);
        assert_eq!(h.finalize(2000), 0, "finalize is idempotent");
        h.audit().expect("drained hierarchy passes the audit");
    }

    #[test]
    fn undrained_hierarchy_fails_audit() {
        // Ticking past the decay point without a draining call leaves the
        // writeback uncharged; the audit must see it.
        let mut h = Hierarchy::new(HierarchyConfig::table2(11, Some(gated(512)))).unwrap();
        h.data_access(0x1000, AccessKind::Write, 0);
        for t in 0..1200u64 {
            h.advance_to(t + 1);
        }
        let report = h.audit().unwrap_err();
        assert!(
            report.to_string().contains("writeback drainage"),
            "{report}"
        );
    }

    #[test]
    fn instruction_fetches_hit_after_warmup() {
        let mut h = Hierarchy::new(HierarchyConfig::table2(11, None)).unwrap();
        let (lat1, _, _) = h.inst_fetch(0x4000, 0);
        assert!(lat1 > 1);
        let (lat2, _, _) = h.inst_fetch(0x4000, 1);
        assert_eq!(lat2, 1, "I-cache hits are single-cycle");
    }
}
