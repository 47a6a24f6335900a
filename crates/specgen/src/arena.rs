//! Process-wide memoization of generated instruction streams.
//!
//! A [`SpecTrace`] is a pure function of `(benchmark, seed)`, and a study
//! replays the identical stream once per technique/interval point: the
//! baseline, drowsy and gated runs of one benchmark each regenerate the
//! same instructions from scratch. Generation costs 90–100 ns per
//! instruction on a 2-vCPU VM, more than the ~70 ns the core and its
//! caches take to simulate one, so the engines replay each stream from
//! a shared in-memory buffer instead: generate once per
//! `(benchmark, seed)`, replay from a flat array of packed ops
//! everywhere else.
//!
//! Each buffered op is one `u64`, a quarter of a [`MicroOp`]:
//!
//! | bits | field |
//! |---|---|
//! | 0–31 | payload: `mem_addr` of a load or store, `target` of a control op, else 0 |
//! | 32–35 | class |
//! | 36–42, 43–49, 50–56 | `dest`, `src1`, `src2`: 0 is `None`, `r + 1` is `Some(r)` |
//! | 57 | `taken` |
//! | 58, 59, 60 | is-memory, is-control, redirect (control and taken) |
//!
//! The flags let the decode pick the payload's field and the next pc
//! without branching on the class. No pc is stored: op k + 1 sits at op
//! k's `target` if op k redirects, else at op k's pc + 4 — the
//! generator's own rule — and the buffer keeps op 0's pc. An op that
//! does not round-trip (a payload of 2^32 or more, a register of 127 or
//! more, a pc off the rule) ends the buffered prefix for good, and
//! readers get it and everything after it live. So exactness never
//! depends on the address map; no calibrated profile produces such an op.
//!
//! [`replay_trace`] is bit-identical to driving a fresh [`SpecTrace`]:
//! the buffer decodes to exactly the generator's output, and a reader
//! that runs past it (a caller under-declared `insts`, or the stream is
//! longer than `MAX_MEMO_OPS`) clones the generator as it stood after
//! the prefix and keeps streaming.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use uarch::insn::{MicroOp, OpClass};
use uarch::trace::TraceSource;

use crate::{Benchmark, SpecTrace};

/// Longest stream the arena buffers, in ops (8 B each: 2 M ops = 16 MB
/// per stream). Longer requests are generated but not buffered further;
/// the reader streams live past the cap, so results never change — only
/// the sharing does.
const MAX_MEMO_OPS: u64 = 2_000_000;

const PAYLOAD: u64 = 0xFFFF_FFFF;
const CLASS_SHIFT: u32 = 32;
const DEST_SHIFT: u32 = 36;
const SRC1_SHIFT: u32 = 43;
const SRC2_SHIFT: u32 = 50;
const REG_MASK: u64 = 0x7F;
const TAKEN_BIT: u32 = 57;
const MEM_BIT: u32 = 58;
const CONTROL_BIT: u32 = 59;
const REDIRECT_BIT: u32 = 60;

/// [`OpClass`] by discriminant, padded to the 4-bit field so the decode
/// indexes it without a bounds check. [`pack`] never writes a padding
/// index: it only keeps words that decode back to their op.
const CLASSES: [OpClass; 16] = {
    use OpClass::*;
    [
        IntAlu, IntMult, IntDiv, FpAlu, FpMult, FpDiv, Load, Store, Branch, Call, Return, IntAlu,
        IntAlu, IntAlu, IntAlu, IntAlu,
    ]
};

/// Packs `op`, or `None` if it does not round-trip: a payload of 2^32 or
/// more, a register of 127 or more, or a field its class does not carry.
fn pack(op: &MicroOp) -> Option<u64> {
    let mem = op.class.is_mem();
    let control = op.class.is_control();
    let payload = if mem {
        op.mem_addr
    } else if control {
        op.target
    } else {
        0
    };
    let reg = |r: Option<u8>| match r {
        None => Some(0),
        Some(r) => Some(u64::from(r) + 1).filter(|&bits| bits <= REG_MASK),
    };
    let word = u64::from(u32::try_from(payload).ok()?)
        | (op.class as u64) << CLASS_SHIFT
        | reg(op.dest)? << DEST_SHIFT
        | reg(op.src1)? << SRC1_SHIFT
        | reg(op.src2)? << SRC2_SHIFT
        | u64::from(op.taken) << TAKEN_BIT
        | u64::from(mem) << MEM_BIT
        | u64::from(control) << CONTROL_BIT
        | u64::from(control && op.taken) << REDIRECT_BIT;
    (unpack(word, op.pc) == *op).then_some(word)
}

/// The op `word` packs, placed at `pc`.
#[inline]
fn unpack(word: u64, pc: u64) -> MicroOp {
    let payload = word & PAYLOAD;
    // All ones when the flag is set, so the payload goes to its field
    // without a branch.
    let mask = |bit: u32| 0u64.wrapping_sub(word >> bit & 1);
    let reg = |shift: u32| ((word >> shift & REG_MASK) as u8).checked_sub(1);
    MicroOp {
        pc,
        class: CLASSES[(word >> CLASS_SHIFT & 0xF) as usize],
        dest: reg(DEST_SHIFT),
        src1: reg(SRC1_SHIFT),
        src2: reg(SRC2_SHIFT),
        mem_addr: payload & mask(MEM_BIT),
        taken: word >> TAKEN_BIT & 1 == 1,
        target: payload & mask(CONTROL_BIT),
    }
}

/// The pc of the op after the packed `word` at `pc`.
#[inline]
fn next_pc(word: u64, pc: u64) -> u64 {
    #[cfg(not(mutant = "arena-pc-bug"))]
    let redirect = word >> REDIRECT_BIT & 1 == 1;
    // Seeded bug for the CI negative smoke: the decode steps every pc by
    // 4, so the ops after a taken branch, a call or a return replay at
    // the wrong pc.
    #[cfg(mutant = "arena-pc-bug")]
    let redirect = false;
    if redirect {
        word & PAYLOAD
    } else {
        pc + 4
    }
}

/// The pc of the op after `op`, by the generator's own rule
/// (`SpecTrace::next_op`): a taken control op jumps to its target. It
/// reads the op's fields, not the packed flags, so a wrong decode in
/// [`next_pc`] cannot also pass the check that admits ops to a prefix.
fn successor_pc(op: &MicroOp) -> u64 {
    if op.class.is_control() && op.taken {
        op.target
    } else {
        op.pc + 4
    }
}

/// One stream's buffered prefix and the generator just past it.
#[derive(Debug)]
struct Prefix {
    /// Op 0's pc; every later op's pc follows from the op before it.
    first_pc: u64,
    /// The pc the op after the prefix must carry to be packed.
    end_pc: u64,
    ops: Vec<u64>,
    /// The generator as it stood after the prefix: the checkpoint a
    /// reader past the prefix clones.
    rest: SpecTrace,
    /// The op that ended the prefix because it does not pack. The
    /// generator has already produced it, so readers get it first. A
    /// prefix that has one is final.
    misfit: Option<MicroOp>,
}

impl Prefix {
    fn new(gen: SpecTrace) -> Self {
        Prefix {
            first_pc: 0,
            end_pc: 0,
            ops: Vec::new(),
            rest: gen,
            misfit: None,
        }
    }

    /// Appends `op` if it packs and sits at the pc the prefix implies.
    fn push(&mut self, op: &MicroOp) -> bool {
        if self.ops.is_empty() {
            self.first_pc = op.pc;
            self.end_pc = op.pc;
        }
        match pack(op) {
            Some(word) if op.pc == self.end_pc => {
                self.ops.push(word);
                self.end_pc = successor_pc(op);
                true
            }
            _ => false,
        }
    }

    /// This prefix continued from its checkpoint to `want` ops, or to the
    /// first op that does not pack.
    fn grown(&self, want: usize) -> Prefix {
        let mut ops = Vec::with_capacity(want);
        ops.extend_from_slice(&self.ops);
        let mut grown = Prefix {
            first_pc: self.first_pc,
            end_pc: self.end_pc,
            ops,
            rest: self.rest.clone(),
            misfit: None,
        };
        while grown.ops.len() < want {
            // lint: allow(unwrap): SpecTrace::next_op never returns None
            let op = grown.rest.next_op().expect("SpecTrace is endless");
            if !grown.push(&op) {
                grown.misfit = Some(op);
                grown.ops.shrink_to_fit();
                break;
            }
        }
        grown
    }
}

/// One stream's slot. The lock serialises growth of the *same* stream
/// (the second requester waits and then shares, rather than
/// regenerating) while distinct streams generate in parallel.
struct Slot {
    prefix: Mutex<Arc<Prefix>>,
}

impl Slot {
    fn new(gen: SpecTrace) -> Self {
        Slot {
            prefix: Mutex::new(Arc::new(Prefix::new(gen))),
        }
    }

    /// The prefix, grown first if it is shorter than `want` ops and not
    /// final.
    fn prefix(&self, want: usize) -> Arc<Prefix> {
        let mut prefix = self
            .prefix
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if prefix.ops.len() < want && prefix.misfit.is_none() {
            *prefix = Arc::new(prefix.grown(want));
        }
        Arc::clone(&prefix)
    }
}

type ArenaMap = HashMap<(Benchmark, u64), Arc<Slot>>;

static ARENA: OnceLock<Mutex<ArenaMap>> = OnceLock::new();

fn slot(benchmark: Benchmark, seed: u64) -> Arc<Slot> {
    let arena = ARENA.get_or_init(Default::default);
    let mut map = arena
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(
        map.entry((benchmark, seed))
            .or_insert_with(|| Arc::new(Slot::new(SpecTrace::new(benchmark, seed)))),
    )
}

/// A shared replay of the deterministic `(benchmark, seed)` stream,
/// ready to serve at least `insts` instructions from memory.
///
/// # Panics
///
/// Panics if the benchmark's profile fails validation, like
/// [`SpecTrace::new`].
pub fn replay_trace(benchmark: Benchmark, seed: u64, insts: u64) -> ReplayTrace {
    let want = insts.min(MAX_MEMO_OPS) as usize;
    ReplayTrace::new(slot(benchmark, seed).prefix(want))
}

/// A [`TraceSource`] replaying a buffered stream, falling back to live
/// generation past the buffered prefix. Bit-identical to a fresh
/// [`SpecTrace`] over any number of reads.
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    prefix: Arc<Prefix>,
    cursor: usize,
    /// The pc of the op at `cursor`.
    pc: u64,
    /// Live continuation, cloned from the checkpoint on the first read
    /// past the prefix.
    tail: Option<Box<SpecTrace>>,
}

impl ReplayTrace {
    fn new(prefix: Arc<Prefix>) -> Self {
        ReplayTrace {
            pc: prefix.first_pc,
            prefix,
            cursor: 0,
            tail: None,
        }
    }

    fn next_live(&mut self) -> Option<MicroOp> {
        if let Some(gen) = &mut self.tail {
            return gen.next_op();
        }
        let mut gen = Box::new(self.prefix.rest.clone());
        let op = self.prefix.misfit.or_else(|| gen.next_op());
        self.tail = Some(gen);
        op
    }
}

impl TraceSource for ReplayTrace {
    #[inline]
    fn next_op(&mut self) -> Option<MicroOp> {
        if let Some(&word) = self.prefix.ops.get(self.cursor) {
            self.cursor += 1;
            let op = unpack(word, self.pc);
            self.pc = next_pc(word, self.pc);
            return Some(op);
        }
        self.next_live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_live_generation() {
        // 2 000 buffered ops, then 3 000 read live past them.
        for b in Benchmark::ALL {
            let mut live = SpecTrace::new(b, 77);
            let mut replay = replay_trace(b, 77, 2_000);
            for i in 0..5_000 {
                assert_eq!(live.next_op(), replay.next_op(), "{b}, op {i}");
            }
        }
    }

    #[test]
    fn readers_past_the_buffer_clone_the_checkpoint() {
        let mut live = SpecTrace::new(Benchmark::Mcf, 5);
        // Deliberately under-declare: both readers must stream past 100,
        // in turns, each from its own copy of the checkpoint.
        let mut a = replay_trace(Benchmark::Mcf, 5, 100);
        let mut b = replay_trace(Benchmark::Mcf, 5, 100);
        for i in 0..3_000 {
            let want = live.next_op();
            assert_eq!(a.next_op(), want, "reader a, op {i}");
            assert_eq!(b.next_op(), want, "reader b, op {i}");
        }
    }

    #[test]
    fn second_replay_shares_the_buffer() {
        let a = replay_trace(Benchmark::Gzip, 9, 1_000);
        let b = replay_trace(Benchmark::Gzip, 9, 600);
        assert!(
            Arc::ptr_eq(&a.prefix, &b.prefix),
            "same stream, same buffer"
        );
    }

    #[test]
    fn longer_request_regrows_the_buffer() {
        let short = replay_trace(Benchmark::Vortex, 3, 200);
        let long = replay_trace(Benchmark::Vortex, 3, 2_000);
        assert!(long.prefix.ops.len() >= 2_000);
        // The regrown buffer still starts with the identical prefix.
        assert_eq!(&long.prefix.ops[..200], &short.prefix.ops[..]);
    }

    fn decoded(prefix: Prefix) -> Vec<MicroOp> {
        let n = prefix.ops.len();
        let mut reader = ReplayTrace::new(Arc::new(prefix));
        (0..n).map_while(|_| reader.next_op()).collect()
    }

    fn empty_prefix() -> Prefix {
        Prefix::new(SpecTrace::new(Benchmark::Gcc, 1))
    }

    #[test]
    fn every_class_round_trips_with_its_pc() {
        let ops = [
            MicroOp::alu(0x1000, 0, None, Some(126)),
            MicroOp {
                src1: Some(30),
                ..MicroOp::load(0x1004, 126, 0xFFFF_FFF8)
            },
            MicroOp::store(0x1008, 7, 0x7F00_0040),
            MicroOp::branch(0x100c, false, 0x2000),
            MicroOp::branch(0x1010, true, 0x2000),
            MicroOp {
                class: OpClass::Call,
                taken: true,
                target: 0x80_0000,
                ..MicroOp::branch(0x2000, true, 0)
            },
            MicroOp {
                class: OpClass::IntDiv,
                ..MicroOp::alu(0x80_0000, 3, Some(1), Some(2))
            },
            MicroOp {
                class: OpClass::Return,
                taken: true,
                target: 0x2004,
                ..MicroOp::branch(0x80_0004, true, 0)
            },
            MicroOp {
                class: OpClass::FpMult,
                ..MicroOp::alu(0x2004, 40, Some(41), None)
            },
        ];
        let mut prefix = empty_prefix();
        for op in &ops {
            assert!(prefix.push(op), "{op:?} must pack");
        }
        assert_eq!(decoded(prefix), ops);
    }

    #[test]
    fn ops_that_do_not_round_trip_end_the_prefix() {
        let first = MicroOp::alu(0x1000, 1, None, None);
        let misfits = [
            ("a payload of 2^32", MicroOp::load(0x1004, 1, 1 << 32)),
            ("register 127", MicroOp::alu(0x1004, 127, None, None)),
            ("a pc off the rule", MicroOp::alu(0x1010, 1, None, None)),
            ("a target on an ALU op", {
                let mut op = MicroOp::branch(0x1004, false, 0x2000);
                op.class = OpClass::IntAlu;
                op
            }),
        ];
        for (what, misfit) in misfits {
            let mut prefix = empty_prefix();
            assert!(prefix.push(&first));
            assert!(!prefix.push(&misfit), "{what} must not pack");
            assert_eq!(decoded(prefix), [first], "{what}");
        }
    }

    #[test]
    fn a_prefix_cut_short_is_final_and_readers_continue_from_the_misfit() {
        // Chase lines past 2^32: the first such load cannot pack.
        let mut profile = Benchmark::Mcf.profile();
        profile.chase_lines = 1 << 28;
        let slot = Slot::new(SpecTrace::with_profile(profile, 3));
        let prefix = slot.prefix(5_000);
        let misfit = prefix
            .misfit
            .expect("a chase load past 2^32 ends the prefix");
        assert!(misfit.mem_addr >> 32 != 0, "{misfit:?}");
        assert!(prefix.ops.len() < 5_000);
        assert!(
            Arc::ptr_eq(&prefix, &slot.prefix(6_000)),
            "a final prefix is not regrown"
        );
        let mut live = SpecTrace::with_profile(profile, 3);
        let mut replay = ReplayTrace::new(prefix);
        for i in 0..8_000 {
            assert_eq!(live.next_op(), replay.next_op(), "op {i}");
        }
    }
}
