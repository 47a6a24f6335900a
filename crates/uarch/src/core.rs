//! The one-pass out-of-order timing engine.

use std::collections::VecDeque;

use cachesim::{AccessKind, Hierarchy, HierarchyConfig};
use serde::{Deserialize, Serialize};

use crate::bpred::{BranchPredictor, PredictorConfig};
use crate::insn::{MicroOp, OpClass, NUM_REGS};
use crate::resources::{FuComplement, InOrderSlots, SlotCalendar};
use crate::stats::CoreStats;
use crate::trace::TraceSource;

/// Core sizing and penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instruction-window (RUU) entries.
    pub ruu_size: usize,
    /// Load/store-queue entries.
    pub lsq_size: usize,
    /// Fetch/dispatch/issue/commit width.
    pub width: u8,
    /// Extra fetch-redirect cycles after a resolved misprediction.
    pub mispredict_penalty: u32,
    /// Branch-predictor sizing.
    pub predictor: PredictorConfig,
    /// Treat every control-flow prediction as correct (ablation: isolates
    /// memory-system effects from control effects).
    pub perfect_bpred: bool,
    /// Maximum concurrently outstanding L1D misses (miss-status holding
    /// registers). Limits how many induced/true misses the out-of-order
    /// window can overlap — the structural bound on §5.1's latency-hiding
    /// argument.
    pub mshrs: usize,
}

impl CoreConfig {
    /// The paper's Table 2 core: 80-RUU, 40-LSQ, 4-wide, hybrid predictor,
    /// 8 outstanding misses (21264-class MAF).
    pub fn table2() -> Self {
        CoreConfig {
            ruu_size: 80,
            lsq_size: 40,
            width: 4,
            mispredict_penalty: 3,
            predictor: PredictorConfig::table2(),
            perfect_bpred: false,
            mshrs: 8,
        }
    }
}

/// The processor model: a core configuration bound to a memory hierarchy.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    bpred: BranchPredictor,
    fu: FuComplement,
    /// Fetch and commit starts never decrease (`fetch_ready` only grows;
    /// commit is in order), so they book on [`InOrderSlots`].
    fetch_slots: InOrderSlots,
    dispatch_slots: SlotCalendar,
    issue_slots: SlotCalendar,
    commit_slots: InOrderSlots,
    /// Miss-status holding registers: each outstanding L1D miss occupies
    /// one for the duration of its fill.
    mshrs: crate::resources::UnitPool,
    hierarchy: Hierarchy,
    /// Completion time of the youngest writer of each architectural
    /// register.
    reg_ready: [u64; NUM_REGS],
    /// Commit times of in-flight window entries (oldest first).
    ruu: VecDeque<u64>,
    /// Commit times of in-flight memory ops.
    lsq: VecDeque<u64>,
    /// Earliest cycle the fetch unit may fetch the next instruction
    /// (pushed forward by I-cache misses and mispredict redirects).
    fetch_ready: u64,
    /// Line address of the last fetched instruction (for I-cache access
    /// batching: one access per line).
    last_fetch_line: u64,
    /// Commit time of the most recently processed instruction (in-order
    /// commit floor).
    last_commit: u64,
    stats: CoreStats,
}

impl Core {
    /// Builds a core over the given hierarchy.
    pub fn new(cfg: CoreConfig, hierarchy: Hierarchy) -> Self {
        Core {
            cfg,
            bpred: BranchPredictor::new(cfg.predictor),
            fu: FuComplement::table2(),
            fetch_slots: InOrderSlots::new(cfg.width),
            dispatch_slots: SlotCalendar::new(cfg.width),
            issue_slots: SlotCalendar::new(cfg.width),
            commit_slots: InOrderSlots::new(cfg.width),
            mshrs: crate::resources::UnitPool::new(cfg.mshrs.max(1)),
            hierarchy,
            reg_ready: [0; NUM_REGS],
            ruu: VecDeque::with_capacity(cfg.ruu_size),
            lsq: VecDeque::with_capacity(cfg.lsq_size),
            fetch_ready: 0,
            last_fetch_line: u64::MAX,
            last_commit: 0,
            stats: CoreStats::default(),
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The memory hierarchy (for cache statistics and decay state).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Mutable access to the hierarchy (adaptive decay schemes change the
    /// decay interval between run segments).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hierarchy
    }

    /// The current cycle (commit time of the most recent instruction).
    pub fn now(&self) -> u64 {
        self.last_commit
    }

    /// Consumes the core, returning the hierarchy (after a run, for
    /// leakage accounting).
    pub fn into_hierarchy(self) -> Hierarchy {
        self.hierarchy
    }

    /// Runs up to `max_insts` instructions from `trace`; returns the
    /// statistics. The run ends early if the trace ends.
    pub fn run<T: TraceSource>(&mut self, trace: &mut T, max_insts: u64) -> CoreStats {
        for _ in 0..max_insts {
            let Some(op) = trace.next_op() else { break };
            self.step(&op);
        }
        // Close out: bring decay/leakage integrals up to the final cycle.
        // finalize also drains decay writebacks still pending after the
        // last data access; charge them as L2 traffic like any other.
        self.stats.cycles = units::Cycles::new(self.last_commit);
        let drained = self.hierarchy.finalize(self.last_commit);
        self.stats.l2_accesses += drained;
        self.stats
    }

    /// Audits the hierarchy's accounting after a run (see
    /// [`cachesim::audit`]).
    ///
    /// # Errors
    ///
    /// Returns the full audit report if any conservation law is violated.
    pub fn audit(&self) -> Result<(), cachesim::audit::AuditReport> {
        self.hierarchy.audit()
    }

    /// Processes a single instruction through the pipeline timing model.
    fn step(&mut self, op: &MicroOp) {
        let line_mask = !63u64;

        // ---- Fetch ----
        let mut fetch_at = self.fetch_slots.book(self.fetch_ready);
        let line = op.pc & line_mask;
        if line != self.last_fetch_line {
            let (lat, l2a, mema) = self.hierarchy.inst_fetch(line, fetch_at);
            self.stats.l1i_accesses += 1;
            self.stats.l2_accesses += l2a as u64;
            self.stats.mem_accesses += mema as u64;
            if lat > 1 {
                // Miss: the whole front-end stalls until the line arrives.
                fetch_at += (lat - 1) as u64;
                self.fetch_ready = self.fetch_ready.max(fetch_at);
            }
            self.last_fetch_line = line;
        }

        // ---- Dispatch (rename + window allocation) ----
        let mut earliest_dispatch = fetch_at + 1;
        if self.ruu.len() == self.cfg.ruu_size {
            // Oldest window entry must commit to free a slot.
            // lint: allow(unwrap): a full RUU is by definition non-empty
            let frees_at = self.ruu.pop_front().expect("ruu full implies non-empty");
            earliest_dispatch = earliest_dispatch.max(frees_at);
        }
        if op.class.is_mem() && self.lsq.len() == self.cfg.lsq_size {
            // lint: allow(unwrap): a full LSQ is by definition non-empty
            let frees_at = self.lsq.pop_front().expect("lsq full implies non-empty");
            earliest_dispatch = earliest_dispatch.max(frees_at);
        }
        let dispatch_at = self.dispatch_slots.book(earliest_dispatch);

        // ---- Issue (operands + FU + issue bandwidth) ----
        let mut operands_ready = dispatch_at + 1;
        for src in [op.src1, op.src2].into_iter().flatten() {
            operands_ready = operands_ready.max(self.reg_ready[src as usize % NUM_REGS]);
            self.stats.rf_reads += 1;
        }
        let fu_start = self.fu.book(op.class, operands_ready);
        let issue_at = self.issue_slots.book(fu_start);

        // ---- Execute / memory ----
        let complete_at = match op.class {
            OpClass::Load => {
                self.stats.loads += 1;
                let out = self
                    .hierarchy
                    .data_access(op.mem_addr, AccessKind::Read, issue_at);
                self.note_data_outcome(&out);
                if out.l1_miss {
                    // The fill occupies an MSHR; with all MSHRs busy the
                    // miss waits for one, capping miss-level parallelism.
                    let start = self.mshrs.book(issue_at, out.latency as u64);
                    start + out.latency as u64
                } else {
                    issue_at + out.latency as u64
                }
            }
            OpClass::Store => {
                self.stats.stores += 1;
                // Address generation only; the write retires from the store
                // buffer after commit (performed below).
                issue_at + 1
            }
            class => {
                match class {
                    OpClass::FpAlu | OpClass::FpMult | OpClass::FpDiv => self.stats.fp_ops += 1,
                    c if !c.is_control() => self.stats.int_ops += 1,
                    _ => {} // control ops are counted via `branches`
                }
                issue_at + class.latency() as u64
            }
        };

        // ---- Control resolution ----
        if op.class.is_control() {
            self.stats.branches += 1;
            let pred = self.bpred.predict_and_update(op);
            if !pred.correct && !self.cfg.perfect_bpred {
                self.stats.mispredicts += 1;
                // Fetch restarts down the correct path once the branch
                // resolves, plus the redirect penalty.
                self.fetch_ready = self
                    .fetch_ready
                    .max(complete_at + self.cfg.mispredict_penalty as u64);
                // The redirect refetches the target's line.
                self.last_fetch_line = u64::MAX;
            }
        }

        // ---- Commit (in order, width-limited) ----
        let commit_at = self
            .commit_slots
            .book(self.last_commit.max(complete_at + 1));
        self.last_commit = commit_at;

        if op.class == OpClass::Store {
            // The store retires its data into the D-cache at commit.
            let out = self
                .hierarchy
                .data_access(op.mem_addr, AccessKind::Write, commit_at);
            self.note_data_outcome(&out);
        }

        // ---- Bookkeeping ----
        if let Some(d) = op.dest {
            self.reg_ready[d as usize % NUM_REGS] = complete_at;
            self.stats.rf_writes += 1;
        }
        self.ruu.push_back(commit_at);
        if op.class.is_mem() {
            self.lsq.push_back(commit_at);
        }
        self.stats.committed += 1;
    }

    fn note_data_outcome(&mut self, out: &cachesim::DataAccessOutcome) {
        self.stats.l2_accesses += out.l2_accesses as u64;
        self.stats.mem_accesses += out.mem_accesses as u64;
        self.stats.tag_probes += out.tag_probes as u64;
        if out.l1_miss {
            self.stats.l1d_misses += 1;
        }
        if out.induced {
            self.stats.induced_misses += 1;
        }
        if out.woke_line {
            self.stats.line_wakes += 1;
        }
    }
}

/// Convenience: build the Table 2 core over a Table 2 hierarchy.
///
/// # Errors
///
/// Returns a [`cachesim::ConfigError`] if the hierarchy configuration is
/// invalid.
pub fn table2_core(
    l2_latency: u32,
    l1d_decay: Option<cachesim::DecayConfig>,
) -> Result<Core, cachesim::ConfigError> {
    let hierarchy = Hierarchy::new(HierarchyConfig::table2(l2_latency, l1d_decay))?;
    Ok(Core::new(CoreConfig::table2(), hierarchy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::MicroOp;
    use crate::trace::VecTrace;

    fn independent_alu_trace(n: usize) -> VecTrace {
        // Round-robin destinations with no read-after-write chains.
        let ops = (0..n)
            .map(|i| MicroOp::alu(0x1000 + (i as u64 % 16) * 4, (i % 8) as u8, None, None))
            .collect();
        VecTrace::new(ops)
    }

    fn dependent_alu_trace(n: usize) -> VecTrace {
        // Every op reads the previous op's result: a serial chain.
        let ops = (0..n)
            .map(|i| MicroOp::alu(0x1000 + (i as u64 % 16) * 4, 1, Some(1), None))
            .collect();
        VecTrace::new(ops)
    }

    #[test]
    fn independent_ops_reach_high_ipc() {
        let mut core = table2_core(11, None).unwrap();
        let stats = core.run(&mut independent_alu_trace(20_000), 20_000);
        assert!(
            stats.ipc().get() > 3.0,
            "4 ALUs + 4-wide should near width on independent ops, ipc={}",
            stats.ipc()
        );
    }

    #[test]
    fn dependent_chain_is_serial() {
        let mut core = table2_core(11, None).unwrap();
        let stats = core.run(&mut dependent_alu_trace(20_000), 20_000);
        assert!(
            stats.ipc().get() < 1.2,
            "serial chain cannot exceed 1 IPC, ipc={}",
            stats.ipc()
        );
    }

    #[test]
    fn cache_misses_slow_execution() {
        // Serial pointer-chase: each load's address "depends" on the prior
        // load (modelled by register dependence), touching a new line each
        // time — every access misses.
        let chase: Vec<MicroOp> = (0..5000)
            .map(|i| MicroOp {
                src1: Some(1),
                ..MicroOp::load(0x1000, 1, 0x10_0000 + i * 4096)
            })
            .collect();
        let mut fast = table2_core(5, None).unwrap();
        let f = fast.run(&mut VecTrace::new(chase.clone()), 5000);
        let mut slow = table2_core(17, None).unwrap();
        let s = slow.run(&mut VecTrace::new(chase), 5000);
        assert!(
            s.cycles > f.cycles,
            "L2 latency must matter on a serial miss chain: {} vs {}",
            s.cycles,
            f.cycles
        );
    }

    #[test]
    fn independent_misses_are_overlapped() {
        // Independent loads to distinct lines: the window should hide much
        // of the L2 latency, keeping cycles far below loads × latency.
        let loads: Vec<MicroOp> = (0..4000)
            .map(|i| MicroOp::load(0x1000 + (i % 16) * 4, (i % 8) as u8, 0x10_0000 + i * 65536))
            .collect();
        let mut core = table2_core(11, None).unwrap();
        let stats = core.run(&mut VecTrace::new(loads.clone()), 4000);
        let serial_cycles = 4000u64 * (2 + 11 + 100);
        // 8 MSHRs bound the memory-level parallelism: cycles land near
        // misses x latency / 8 — far below serial, far above unbounded.
        assert!(
            stats.cycles.get() < serial_cycles / 6,
            "OoO must overlap independent misses: {} vs serial {}",
            stats.cycles,
            serial_cycles
        );
        assert!(
            stats.cycles.get() > serial_cycles / 16,
            "the MSHR cap must bound the overlap: {}",
            stats.cycles
        );
        // Doubling the MSHRs should cut the runtime nearly in half.
        let hierarchy =
            cachesim::Hierarchy::new(cachesim::HierarchyConfig::table2(11, None)).unwrap();
        let mut wide = Core::new(
            CoreConfig {
                mshrs: 16,
                ..CoreConfig::table2()
            },
            hierarchy,
        );
        let wide_stats = wide.run(&mut VecTrace::new(loads), 4000);
        assert!(
            wide_stats.cycles.get() < stats.cycles.get() * 3 / 4,
            "more MSHRs, more overlap: {} vs {}",
            wide_stats.cycles,
            stats.cycles
        );
    }

    #[test]
    fn perfect_bpred_removes_mispredict_stalls() {
        let mk = || -> Vec<MicroOp> {
            let mut x = 7u64;
            (0..10_000)
                .map(|i| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    MicroOp::branch(0x1000 + (i % 256) * 4, (x >> 33) & 1 == 1, 0x8000)
                })
                .collect()
        };
        let hierarchy =
            cachesim::Hierarchy::new(cachesim::HierarchyConfig::table2(11, None)).unwrap();
        let mut perfect = Core::new(
            CoreConfig {
                perfect_bpred: true,
                ..CoreConfig::table2()
            },
            hierarchy,
        );
        let p = perfect.run(&mut VecTrace::new(mk()), 10_000);
        let mut real = table2_core(11, None).unwrap();
        let r = real.run(&mut VecTrace::new(mk()), 10_000);
        assert!(
            p.cycles < r.cycles,
            "perfect prediction must be faster: {} vs {}",
            p.cycles,
            r.cycles
        );
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let mk = |n: usize, random: bool| -> Vec<MicroOp> {
            let mut x = 99u64;
            (0..n)
                .map(|i| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let taken = if random { (x >> 33) & 1 == 1 } else { true };
                    MicroOp::branch(0x1000 + (i as u64 % 256) * 4, taken, 0x8000)
                })
                .collect()
        };
        let mut predictable = table2_core(11, None).unwrap();
        let p = predictable.run(&mut VecTrace::new(mk(10_000, false)), 10_000);
        let mut random = table2_core(11, None).unwrap();
        let r = random.run(&mut VecTrace::new(mk(10_000, true)), 10_000);
        assert!(r.mispredicts > 5 * p.mispredicts.max(1));
        assert!(r.cycles > p.cycles, "mispredicts must cost time");
    }

    #[test]
    fn window_limits_runahead() {
        // One extremely long-latency op (div chain) followed by unlimited
        // independent work: the window caps how far execution runs ahead,
        // so cycles are bounded below by the serial divides.
        let mut ops = vec![];
        for _ in 0..50 {
            ops.push(MicroOp {
                class: OpClass::IntDiv,
                ..MicroOp::alu(0x1000, 1, Some(1), None)
            });
        }
        for i in 0..1000usize {
            ops.push(MicroOp::alu(0x2000, 2 + (i % 4) as u8, None, None));
        }
        let mut core = table2_core(11, None).unwrap();
        let stats = core.run(&mut VecTrace::new(ops), 2000);
        assert!(
            stats.cycles.get() >= 50 * 20,
            "serial divides bound the runtime"
        );
    }

    #[test]
    fn trailing_decay_writeback_is_charged() {
        // Regression: a dirty L1D line decaying after the program's last
        // memory reference (here: during a long non-memory tail) must
        // still have its forced writeback charged as an L2 access.
        let decay = cachesim::DecayConfig {
            interval_cycles: 512,
            policy: cachesim::DecayPolicy::NoAccess,
            tags_decay: true,
            behavior: cachesim::StandbyBehavior::Losing,
            sleep_settle_cycles: 30,
            wake_settle_cycles: 3,
        };
        let mut ops = vec![MicroOp::store(0x1000, 1, 0x5000)];
        for _ in 0..400 {
            ops.push(MicroOp {
                class: OpClass::IntDiv,
                ..MicroOp::alu(0x1008, 1, Some(1), None)
            });
        }
        let mut core = table2_core(11, Some(decay)).unwrap();
        let n = ops.len() as u64;
        let stats = core.run(&mut VecTrace::new(ops), n);
        let h = core.hierarchy();
        assert!(
            h.l1d().stats().decay_writebacks >= 1,
            "the dirty line must decay during the divide tail"
        );
        assert_eq!(
            h.decay_writebacks_drained(),
            h.l1d().stats().decay_writebacks,
            "every forced writeback must reach the energy accounting"
        );
        assert!(
            stats.l2_accesses >= h.l1d().stats().decay_writebacks,
            "drained writebacks are charged as L2 traffic"
        );
        core.audit().expect("post-run accounting conserves");
    }

    #[test]
    fn stats_count_mix() {
        let ops = vec![
            MicroOp::load(0x1000, 1, 0x5000),
            MicroOp::store(0x1004, 1, 0x5000),
            MicroOp::branch(0x1008, true, 0x1000),
            MicroOp::alu(0x100c, 2, Some(1), None),
        ];
        let mut core = table2_core(11, None).unwrap();
        let stats = core.run(&mut VecTrace::new(ops), 4);
        assert_eq!(stats.committed, 4);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.branches, 1);
        assert_eq!(stats.int_ops, 1);
        assert!(stats.cycles > units::Cycles::ZERO);
    }
}
