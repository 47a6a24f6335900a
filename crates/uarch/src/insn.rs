//! The micro-operation format consumed by the timing model.

use serde::{Deserialize, Serialize};

/// Number of architectural registers the model tracks (32 integer + 32 FP).
pub const NUM_REGS: usize = 64;

/// Operation classes, each mapped to a functional-unit pool and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Integer ALU operation (1 cycle, 4 units).
    IntAlu,
    /// Integer multiply (3 cycles, pipelined, shared unit).
    IntMult,
    /// Integer divide (20 cycles, unpipelined, shared unit).
    IntDiv,
    /// FP add/sub/convert (2 cycles, 2 units).
    FpAlu,
    /// FP multiply (4 cycles, pipelined, shared unit).
    FpMult,
    /// FP divide (24 cycles, unpipelined, shared unit).
    FpDiv,
    /// Memory load (cache latency, 2 ports).
    Load,
    /// Memory store (address generation at issue; data written at commit).
    Store,
    /// Conditional branch (1 cycle to resolve once operands ready).
    Branch,
    /// Call (unconditional, pushes the return-address stack).
    Call,
    /// Return (pops the return-address stack).
    Return,
}

impl OpClass {
    /// Every class, in declaration order, so `ALL[c as usize] == c`.
    pub const ALL: [OpClass; 11] = [
        OpClass::IntAlu,
        OpClass::IntMult,
        OpClass::IntDiv,
        OpClass::FpAlu,
        OpClass::FpMult,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Call,
        OpClass::Return,
    ];

    /// Whether the op references memory.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the op redirects control flow.
    pub fn is_control(self) -> bool {
        matches!(self, OpClass::Branch | OpClass::Call | OpClass::Return)
    }

    /// Execution latency in cycles, excluding memory time.
    pub const fn latency(self) -> u32 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMult => 3,
            OpClass::IntDiv => 20,
            OpClass::FpAlu => 2,
            OpClass::FpMult => 4,
            OpClass::FpDiv => 24,
            OpClass::Load => 0, // cache supplies the latency
            OpClass::Store => 1,
            OpClass::Branch | OpClass::Call | OpClass::Return => 1,
        }
    }

    /// Whether the op holds its functional unit for its whole latency
    /// (unpipelined units).
    pub const fn unpipelined(self) -> bool {
        matches!(self, OpClass::IntDiv | OpClass::FpDiv)
    }
}

/// One instruction of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicroOp {
    /// Program counter (byte address).
    pub pc: u64,
    /// Operation class.
    pub class: OpClass,
    /// Destination register, if any.
    pub dest: Option<u8>,
    /// First source register, if any.
    pub src1: Option<u8>,
    /// Second source register, if any.
    pub src2: Option<u8>,
    /// Effective address (valid when `class.is_mem()`).
    pub mem_addr: u64,
    /// Actual branch outcome (valid when `class.is_control()`).
    pub taken: bool,
    /// Actual branch target (valid when `class.is_control()` and taken).
    pub target: u64,
}

impl MicroOp {
    /// A register-to-register ALU op, for building synthetic snippets.
    pub fn alu(pc: u64, dest: u8, src1: Option<u8>, src2: Option<u8>) -> Self {
        MicroOp {
            pc,
            class: OpClass::IntAlu,
            dest: Some(dest),
            src1,
            src2,
            mem_addr: 0,
            taken: false,
            target: 0,
        }
    }

    /// A load into `dest` from `addr`.
    pub fn load(pc: u64, dest: u8, addr: u64) -> Self {
        MicroOp {
            pc,
            class: OpClass::Load,
            dest: Some(dest),
            src1: None,
            src2: None,
            mem_addr: addr,
            taken: false,
            target: 0,
        }
    }

    /// A store of `src` to `addr`.
    pub fn store(pc: u64, src: u8, addr: u64) -> Self {
        MicroOp {
            pc,
            class: OpClass::Store,
            dest: None,
            src1: Some(src),
            src2: None,
            mem_addr: addr,
            taken: false,
            target: 0,
        }
    }

    /// A conditional branch with the given outcome.
    pub fn branch(pc: u64, taken: bool, target: u64) -> Self {
        MicroOp {
            pc,
            class: OpClass::Branch,
            dest: None,
            src1: None,
            src2: None,
            mem_addr: 0,
            taken,
            target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_properties() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(OpClass::Branch.is_control());
        assert!(OpClass::Call.is_control());
        assert!(!OpClass::Load.is_control());
        assert!(OpClass::IntDiv.unpipelined());
        assert!(!OpClass::IntMult.unpipelined());
    }

    #[test]
    fn all_is_in_discriminant_order() {
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class:?}");
        }
    }

    #[test]
    fn latencies_ordered_sensibly() {
        assert!(OpClass::IntDiv.latency() > OpClass::IntMult.latency());
        assert!(OpClass::IntMult.latency() > OpClass::IntAlu.latency());
        assert!(OpClass::FpDiv.latency() > OpClass::FpMult.latency());
    }

    #[test]
    fn constructors_fill_fields() {
        let op = MicroOp::load(0x100, 5, 0xdead);
        assert_eq!(op.class, OpClass::Load);
        assert_eq!(op.dest, Some(5));
        assert_eq!(op.mem_addr, 0xdead);
        let b = MicroOp::branch(0x104, true, 0x200);
        assert!(b.taken);
        assert_eq!(b.target, 0x200);
    }
}
