//! The one-pass out-of-order timing engine.

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
    /// register, then the [`NO_SRC`] and [`NO_DEST`] slots.
    reg_ready: [u64; NUM_REGS + 2],
    /// Commit times of in-flight window entries.
    ruu: Window,
    /// Commit times of in-flight memory ops.
    lsq: Window,
    /// Earliest cycle the fetch unit may fetch the next instruction
    /// (pushed forward by I-cache misses and mispredict redirects).
    fetch_ready: u64,
    /// Line address of the last fetched instruction (for I-cache access
    /// batching: one access per line).
    last_fetch_line: u64,
    /// Commit time of the most recently processed instruction (in-order
    /// commit floor).
    last_commit: u64,
    /// Ops of each class processed since [`Core::advance`] last folded
    /// them into `stats`, by [`OpClass`] discriminant.
    class_counts: [u64; OpClass::ALL.len()],
    stats: CoreStats,
}

/// The `reg_ready` slot an absent source reads: it stays 0, which delays
/// nothing.
const NO_SRC: usize = NUM_REGS;
/// The `reg_ready` slot an absent destination writes: nothing reads it.
const NO_DEST: usize = NUM_REGS + 1;

/// The `reg_ready` slot of `reg`, or `absent` for no register.
fn reg_slot(reg: Option<u8>, absent: usize) -> usize {
    reg.map_or(absent, |r| usize::from(r) % NUM_REGS)
}

/// The commit times of a window's (RUU or LSQ) last `capacity` entries in
/// a fixed ring: a new entry takes the slot of the oldest, so a full
/// window's retire-then-insert is one read and one write of one slot.
#[derive(Debug)]
struct Window {
    /// `capacity` entries in ring order, then a slot that only skipped
    /// insertions write.
    commits: Vec<u64>,
    /// The slot the next entry takes.
    next: usize,
}

impl Window {
    fn new(capacity: usize, what: &str) -> Self {
        assert!(capacity > 0, "the {what} needs at least one entry");
        Window {
            commits: vec![0; capacity + 1],
            next: 0,
        }
    }

    /// When the slot a new entry takes frees: the oldest entry's commit
    /// time once the window is full, and 0, which bounds nothing, before.
    fn frees_at(&self) -> u64 {
        self.commits[self.next]
    }

    /// Inserts an entry committing at `commit_at` if `taken`; otherwise
    /// leaves the window as it was.
    fn insert_if(&mut self, taken: bool, commit_at: u64) {
        let capacity = self.commits.len() - 1;
        self.commits[if taken { self.next } else { capacity }] = commit_at;
        let next = self.next + usize::from(taken);
        self.next = if next == capacity { 0 } else { next };
    }
}

impl Core {
    /// Builds a core over the given hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ruu_size` or `cfg.lsq_size` is zero: such a window
    /// could hold no instruction.
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
            reg_ready: [0; NUM_REGS + 2],
            ruu: Window::new(cfg.ruu_size, "RUU"),
            lsq: Window::new(cfg.lsq_size, "LSQ"),
            fetch_ready: 0,
            last_fetch_line: u64::MAX,
            last_commit: 0,
            class_counts: [0; OpClass::ALL.len()],
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

    /// Runs up to `max_insts` instructions from `trace`, then ends the run
    /// ([`Core::advance`], then [`Core::finish`]); returns the statistics.
    /// The run ends early if the trace ends.
    pub fn run<T: TraceSource>(&mut self, trace: &mut T, max_insts: u64) -> CoreStats {
        self.advance(trace, max_insts);
        self.finish()
    }

    /// Steps up to `max_insts` instructions from `trace` (fewer if the
    /// trace ends) and folds their class counts into the statistics. The
    /// run stays open: a later `advance` continues it from the next op,
    /// and the hierarchy is not closed until [`Core::finish`].
    pub fn advance<T: TraceSource>(&mut self, trace: &mut T, max_insts: u64) {
        for _ in 0..max_insts {
            let Some(op) = &trace.next_op() else { break };
            self.step(op);
        }
        self.fold_class_counts();
    }

    /// Ends the run at the last commit: sets `cycles`, brings every
    /// level's decay and leakage integrals up to that cycle, and charges
    /// the decay writebacks still pending after the last data access as
    /// L2 traffic like any other. Returns the statistics.
    pub fn finish(&mut self) -> CoreStats {
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

    /// Adds the per-class op counts to `stats` and clears them.
    fn fold_class_counts(&mut self) {
        use OpClass::*;
        #[cfg(not(mutant = "split-fold-bug"))]
        let n = std::mem::take(&mut self.class_counts);
        // `split-fold-bug` (CI mutation smoke only): copy the counts and
        // keep them, so each later fold of one run re-adds every earlier
        // window's ops.
        #[cfg(mutant = "split-fold-bug")]
        let n = self.class_counts;
        let sum = |classes: &[OpClass]| classes.iter().map(|&c| n[c as usize]).sum::<u64>();
        self.stats.loads += n[Load as usize];
        self.stats.stores += n[Store as usize];
        self.stats.int_ops += sum(&[IntAlu, IntMult, IntDiv]);
        self.stats.fp_ops += sum(&[FpAlu, FpMult, FpDiv]);
        self.stats.branches += sum(&[Branch, Call, Return]);
        self.stats.committed += n.iter().sum::<u64>();
    }

    /// Processes a single instruction through the pipeline timing model.
    ///
    /// The op stream is pseudo-random, so a branch on its class or on
    /// whether it names a register mispredicts often. Only the steps
    /// with side effects branch (the cache accesses of loads and stores,
    /// the predictor for control ops); the rest pick with selects,
    /// per-class counters and the `reg_ready` slots of absent registers.
    fn step(&mut self, op: &MicroOp) {
        let line_mask = !63u64;
        self.class_counts[op.class as usize] += 1;
        let is_mem = op.class.is_mem();

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
        // With the RUU full, the oldest entry must commit to free a slot;
        // a memory op needs an LSQ slot too.
        let lsq_frees_at = if is_mem { self.lsq.frees_at() } else { 0 };
        let earliest_dispatch = (fetch_at + 1).max(self.ruu.frees_at()).max(lsq_frees_at);
        let dispatch_at = self.dispatch_slots.book(earliest_dispatch);

        // ---- Issue (operands + FU + issue bandwidth) ----
        let operands_ready = (dispatch_at + 1)
            .max(self.reg_ready[reg_slot(op.src1, NO_SRC)])
            .max(self.reg_ready[reg_slot(op.src2, NO_SRC)]);
        self.stats.rf_reads += u64::from(op.src1.is_some()) + u64::from(op.src2.is_some());
        let fu_start = self.fu.book(op.class, operands_ready);
        let issue_at = self.issue_slots.book(fu_start);

        // ---- Execute / memory ----
        let complete_at = if op.class == OpClass::Load {
            let out = self
                .hierarchy
                .data_access(op.mem_addr, AccessKind::Read, issue_at);
            self.note_data_outcome(&out);
            let latency = u64::from(out.latency);
            if out.l1_miss {
                // The fill occupies an MSHR; with all MSHRs busy the
                // miss waits for one, capping miss-level parallelism.
                self.mshrs.book(issue_at, latency) + latency
            } else {
                issue_at + latency
            }
        } else {
            // A store only generates its address here; its write retires
            // from the store buffer after commit (performed below).
            issue_at + u64::from(op.class.latency())
        };

        // ---- Control resolution ----
        if op.class.is_control() {
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
        self.reg_ready[reg_slot(op.dest, NO_DEST)] = complete_at;
        self.stats.rf_writes += u64::from(op.dest.is_some());
        self.ruu.insert_if(true, commit_at);
        self.lsq.insert_if(is_mem, commit_at);
    }

    fn note_data_outcome(&mut self, out: &cachesim::DataAccessOutcome) {
        self.stats.l2_accesses += out.l2_accesses as u64;
        self.stats.mem_accesses += out.mem_accesses as u64;
        self.stats.tag_probes += out.tag_probes as u64;
        self.stats.l1d_misses += u64::from(out.l1_miss);
        self.stats.induced_misses += u64::from(out.induced);
        self.stats.line_wakes += u64::from(out.woke_line);
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
    #[should_panic(expected = "the RUU needs at least one entry")]
    fn zero_entry_ruu_panics() {
        let hierarchy =
            cachesim::Hierarchy::new(cachesim::HierarchyConfig::table2(11, None)).unwrap();
        Core::new(
            CoreConfig {
                ruu_size: 0,
                ..CoreConfig::table2()
            },
            hierarchy,
        );
    }

    #[test]
    #[should_panic(expected = "the LSQ needs at least one entry")]
    fn zero_entry_lsq_panics() {
        let hierarchy =
            cachesim::Hierarchy::new(cachesim::HierarchyConfig::table2(11, None)).unwrap();
        Core::new(
            CoreConfig {
                lsq_size: 0,
                ..CoreConfig::table2()
            },
            hierarchy,
        );
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
