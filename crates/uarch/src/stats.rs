//! Aggregate statistics of one core run.

use serde::{Deserialize, Serialize};
use units::{Cycles, Ipc};

/// Counters accumulated by [`crate::Core::advance`]; [`crate::Core::finish`]
/// sets `cycles` and charges the last drained writebacks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions committed.
    pub committed: u64,
    /// Total execution cycles (commit time of the last instruction).
    pub cycles: Cycles,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Control-flow instructions executed.
    pub branches: u64,
    /// Mispredicted control-flow instructions.
    pub mispredicts: u64,
    /// Integer ALU/mult/div operations.
    pub int_ops: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
    /// Register-file read-port uses.
    pub rf_reads: u64,
    /// Register-file write-port uses.
    pub rf_writes: u64,
    /// I-cache line fetches performed.
    pub l1i_accesses: u64,
    /// L2 accesses from either L1 (refills + writebacks).
    pub l2_accesses: u64,
    /// Main-memory accesses.
    pub mem_accesses: u64,
    /// L1D misses (true + induced).
    pub l1d_misses: u64,
    /// L1D induced misses (decay-caused).
    pub induced_misses: u64,
    /// L1D tag-only probes (decayed-tag wake checks).
    pub tag_probes: u64,
    /// L1D lines woken from standby by accesses.
    pub line_wakes: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> Ipc {
        Ipc::of(self.committed, self.cycles)
    }

    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(CoreStats::default().ipc(), Ipc::ZERO);
    }

    #[test]
    fn ipc_computes() {
        let s = CoreStats {
            committed: 300,
            cycles: Cycles::new(100),
            ..CoreStats::default()
        };
        assert!((s.ipc().get() - 3.0).abs() < 1e-12);
    }
}
