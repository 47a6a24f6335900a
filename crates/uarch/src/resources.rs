//! Structural resources: per-cycle slot budgets and functional-unit
//! calendars.
//!
//! The one-pass timing model needs to answer "when is the next cycle ≥ t
//! with a free X?" for fetch/dispatch/issue/commit slots and for each
//! functional-unit pool. A slot booking returns the first cycle at or
//! after its start with a free slot. [`SlotCalendar`] finds it by
//! scanning forward over a ring of the last `RING` cycles; dispatch and
//! issue book there, because their starts move both ways. Their starts
//! stay near the calendar's frontier, so the scan is short: across the
//! 11 benchmarks at L2 = 5 and 17 with every technique, at 250 k and
//! 2 M instructions, dispatch takes at most 1.013 steps per booking and
//! issue 1.35.
//!
//! Fetch and commit starts never decrease: `fetch_ready` only grows, and
//! a commit starts no earlier than the last commit. For such starts
//! every booking lands at or after the previous one, and every cycle
//! from the start up to the last booked cycle is full, because the scan
//! passed it and counts only grow. So the first free cycle is the start
//! itself if it lies past the last booked cycle, else the last booked
//! cycle if it has a free slot, else the cycle after it.
//! [`InOrderSlots`] returns exactly that from two registers. The fetch
//! calendar needs it most: while the branch predictor is right,
//! `fetch_ready` stays put, and a scan from that one start would walk
//! every full cycle again. [`UnitPool`] answers the question for FU
//! pools by tracking each unit's next-free cycle.

use serde::{Deserialize, Serialize};

use crate::insn::OpClass;

/// Tracks how many of `width` per-cycle slots are used in a rolling window
/// of recent cycles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotCalendar {
    width: u8,
    /// used[i] = slots consumed in cycle `base + i` (ring indexed by cycle).
    used: Vec<u8>,
    base: u64,
}

/// Ring capacity. A booking `RING` or more cycles past `base` slides the
/// window forward and forgets the oldest cycles; a later booking below
/// `base` starts at `base`. Dispatch and issue bookings start near their
/// calendar's frontier, because the 80-entry window bounds how far apart
/// in-flight instructions are.
const RING: usize = 8192;

impl SlotCalendar {
    /// A calendar allowing `width` events per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u8) -> Self {
        assert!(width > 0, "slot width must be positive");
        SlotCalendar {
            width,
            used: vec![0; RING],
            base: 0,
        }
    }

    fn slide_to(&mut self, cycle: u64) {
        if cycle < self.base + RING as u64 {
            return;
        }
        let new_base = cycle + 1 - RING as u64;
        if new_base >= self.base + RING as u64 {
            // Everything is stale.
            self.used.iter_mut().for_each(|u| *u = 0);
        } else {
            for c in self.base..new_base {
                let idx = (c % RING as u64) as usize;
                self.used[idx] = 0;
            }
        }
        self.base = new_base;
    }

    /// Books one slot at the earliest cycle ≥ `earliest`, returning it.
    pub fn book(&mut self, earliest: u64) -> u64 {
        let mut cycle = earliest.max(self.base);
        loop {
            self.slide_to(cycle);
            let idx = (cycle % RING as u64) as usize;
            if self.used[idx] < self.width {
                self.used[idx] += 1;
                return cycle;
            }
            cycle += 1;
        }
    }
}

/// A slot calendar for starts that never decrease. For those it returns
/// what [`SlotCalendar`] returns (see the module doc for why).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InOrderSlots {
    width: u8,
    /// The last booked cycle.
    cycle: u64,
    /// Slots booked in `cycle`.
    used: u8,
}

impl InOrderSlots {
    /// A calendar allowing `width` events per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u8) -> Self {
        assert!(width > 0, "slot width must be positive");
        InOrderSlots {
            width,
            cycle: 0,
            used: 0,
        }
    }

    /// Books one slot at the earliest cycle ≥ `earliest`, returning it.
    /// `earliest` must be at least the previous booking's `earliest`.
    pub fn book(&mut self, earliest: u64) -> u64 {
        #[cfg(not(mutant = "in-order-slots-bug"))]
        let full = self.used == self.width;
        // Seeded bug for the CI negative smoke: a cycle takes one booking
        // past its width.
        #[cfg(mutant = "in-order-slots-bug")]
        let full = self.used > self.width;
        if earliest > self.cycle {
            self.cycle = earliest;
            self.used = 0;
        } else if full {
            self.cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.cycle
    }
}

/// A pool of identical functional units.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitPool {
    next_free: Vec<u64>,
}

impl UnitPool {
    /// A pool of `n` units, all free at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "unit pool must have at least one unit");
        UnitPool {
            next_free: vec![0; n],
        }
    }

    /// Books the earliest-available unit at or after `earliest` for
    /// `occupy` cycles; returns the start cycle.
    pub fn book(&mut self, earliest: u64, occupy: u64) -> u64 {
        let (idx, &free_at) = self
            .next_free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            // lint: allow(unwrap): the pool is sized > 0 at construction
            .expect("pool is non-empty");
        let start = earliest.max(free_at);
        self.next_free[idx] = start + occupy.max(1);
        start
    }
}

/// The Table 2 functional-unit complement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuComplement {
    int_alu: UnitPool,
    int_mult: UnitPool,
    fp_alu: UnitPool,
    fp_mult: UnitPool,
    mem_port: UnitPool,
}

impl FuComplement {
    /// 4 IntALU, 1 IntMult/Div, 2 FPALU, 1 FPMult/Div, 2 memory ports.
    pub fn table2() -> Self {
        FuComplement {
            int_alu: UnitPool::new(4),
            int_mult: UnitPool::new(1),
            fp_alu: UnitPool::new(2),
            fp_mult: UnitPool::new(1),
            mem_port: UnitPool::new(2),
        }
    }

    /// Books a unit for `class` at or after `earliest`; returns the cycle
    /// execution starts. Pipelined units are occupied one cycle; dividers
    /// hold their unit for the full latency.
    pub fn book(&mut self, class: OpClass, earliest: u64) -> u64 {
        let occupy = if class.unpipelined() {
            class.latency() as u64
        } else {
            1
        };
        match class {
            OpClass::IntAlu | OpClass::Branch | OpClass::Call | OpClass::Return => {
                self.int_alu.book(earliest, 1)
            }
            OpClass::IntMult | OpClass::IntDiv => self.int_mult.book(earliest, occupy),
            OpClass::FpAlu => self.fp_alu.book(earliest, 1),
            OpClass::FpMult | OpClass::FpDiv => self.fp_mult.book(earliest, occupy),
            OpClass::Load | OpClass::Store => self.mem_port.book(earliest, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// How one run of bookings moves the start, which never decreases.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Stays put: the frozen `fetch_ready` of a well-predicted run.
        Stay,
        /// Steps up to 64 cycles forward.
        Small(u64),
        /// Jumps one to four rings forward.
        Jump(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        let ring = RING as u64;
        prop_oneof![
            Just(Step::Stay),
            (1u64..65).prop_map(Step::Small),
            (ring..4 * ring + 1).prop_map(Step::Jump),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn in_order_slots_match_the_calendar(
            width in 1u8..5,
            start0 in 0u64..4 * RING as u64,
            runs in proptest::collection::vec((step(), 1usize..65), 1..64),
        ) {
            let mut slots = InOrderSlots::new(width);
            let mut calendar = SlotCalendar::new(width);
            let mut start = start0;
            for (n, &(step, count)) in runs.iter().enumerate() {
                match step {
                    Step::Stay => {}
                    Step::Small(d) | Step::Jump(d) => start += d,
                }
                for i in 0..count {
                    prop_assert_eq!(
                        slots.book(start),
                        calendar.book(start),
                        "run {} ({:?} to {}), booking {}, width {}",
                        n, step, start, i, width
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_start_fills_cycles_in_order_past_the_ring() {
        for width in 1u8..5 {
            let mut slots = InOrderSlots::new(width);
            let start = 100;
            for i in 0..3 * RING as u64 * u64::from(width) {
                assert_eq!(
                    slots.book(start),
                    start + i / u64::from(width),
                    "booking {i}, width {width}"
                );
            }
        }
    }

    #[test]
    fn calendar_respects_width() {
        let mut cal = SlotCalendar::new(2);
        assert_eq!(cal.book(10), 10);
        assert_eq!(cal.book(10), 10);
        assert_eq!(cal.book(10), 11, "third booking in a 2-wide cycle spills");
    }

    #[test]
    fn calendar_slides_forward() {
        let mut cal = SlotCalendar::new(1);
        assert_eq!(cal.book(5), 5);
        assert_eq!(cal.book(5 + 2 * RING as u64), 5 + 2 * RING as u64);
        assert_eq!(cal.book(5 + 2 * RING as u64), 6 + 2 * RING as u64);
    }

    #[test]
    fn pool_serialises_contention() {
        let mut pool = UnitPool::new(1);
        assert_eq!(pool.book(0, 1), 0);
        assert_eq!(pool.book(0, 1), 1);
        assert_eq!(pool.book(0, 1), 2);
    }

    #[test]
    fn pool_parallelism() {
        let mut pool = UnitPool::new(2);
        assert_eq!(pool.book(0, 1), 0);
        assert_eq!(pool.book(0, 1), 0);
        assert_eq!(pool.book(0, 1), 1);
    }

    #[test]
    fn divider_blocks_multiplier_pool() {
        let mut fu = FuComplement::table2();
        let start = fu.book(OpClass::IntDiv, 0);
        assert_eq!(start, 0);
        let next = fu.book(OpClass::IntMult, 0);
        assert_eq!(next, 20, "unpipelined divide occupies the shared unit");
    }

    #[test]
    fn four_alus_issue_in_parallel() {
        let mut fu = FuComplement::table2();
        for _ in 0..4 {
            assert_eq!(fu.book(OpClass::IntAlu, 7), 7);
        }
        assert_eq!(fu.book(OpClass::IntAlu, 7), 8);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_unit_pool_panics() {
        UnitPool::new(0);
    }
}
