//! Structural resources: per-cycle slot budgets and functional-unit
//! calendars.
//!
//! The one-pass timing model needs to answer "when is the next cycle ≥ t
//! with a free X?" for fetch/dispatch/issue/commit slots and for each
//! functional-unit pool. [`SlotCalendar`] answers it for width-limited
//! per-cycle budgets over a ring of the last `RING` cycles;
//! [`UnitPool`] answers it for FU pools by tracking each unit's next-free
//! cycle.
//!
//! A booking returns the first cycle at or after its start with a free
//! slot. Scanning for it costs one step per full cycle, and the fetch
//! calendar meets long runs of them: while the branch predictor is right,
//! `fetch_ready` stays put and every fetch books at that one start, so
//! the n-th booking would walk n / width full cycles. The calendar
//! therefore remembers the range `[full_lo, full_hi)` of full cycles the
//! last booking found, and a booking starting inside it resumes at
//! `full_hi`. The invariant: every cycle of the range at or above `base`
//! holds `width` bookings. It holds because a cycle's count only grows
//! until a slide drops the cycle below `base`, and no booking starts
//! below `base`. So the resumed booking returns exactly the cycle the
//! scan would. When starts stay put or move forward, as `fetch_ready`
//! does, no full cycle is walked twice, so a booking costs amortised
//! O(1). The tests keep the scan as `ScanCalendar`, the oracle the hinted
//! calendar must match.

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
    /// The full cycles `[full_lo, full_hi)` the last booking found (see the
    /// module doc for why they stay full).
    full_lo: u64,
    full_hi: u64,
}

/// Ring capacity. A booking `RING` or more cycles past `base` slides the
/// window forward and forgets the oldest cycles; a later booking below
/// `base` starts at `base`. Dispatch, issue and commit bookings start near
/// their calendar's frontier, because the 80-entry window bounds how far
/// apart in-flight instructions are. The fetch calendar is not held back
/// by the window: with `fetch_ready` frozen, its frontier runs up to a
/// full ring ahead of it, over cycles that are all full.
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
            full_lo: 0,
            full_hi: 0,
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
        let start = earliest.max(self.base);
        let resumed = (self.full_lo..self.full_hi).contains(&start);
        let mut cycle = if resumed { self.full_hi } else { start };
        loop {
            self.slide_to(cycle);
            let idx = (cycle % RING as u64) as usize;
            if self.used[idx] < self.width {
                self.used[idx] += 1;
                // Every cycle before `cycle` back to `lo` is full; `cycle`
                // joins them once this booking fills it.
                let lo = if resumed { self.full_lo } else { start };
                #[cfg(not(mutant = "calendar-hint-bug"))]
                let hi = cycle + u64::from(self.used[idx] == self.width);
                #[cfg(mutant = "calendar-hint-bug")]
                let hi = cycle + 1;
                if hi > lo {
                    self.full_lo = lo;
                    self.full_hi = hi;
                }
                return cycle;
            }
            cycle += 1;
        }
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

    /// The calendar without the full-range hint: every booking scans
    /// forward from its start. The oracle [`SlotCalendar`] must match.
    struct ScanCalendar {
        width: u8,
        used: Vec<u8>,
        base: u64,
    }

    impl ScanCalendar {
        fn new(width: u8) -> Self {
            ScanCalendar {
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
                self.used.iter_mut().for_each(|u| *u = 0);
            } else {
                for c in self.base..new_base {
                    let idx = (c % RING as u64) as usize;
                    self.used[idx] = 0;
                }
            }
            self.base = new_base;
        }

        fn book(&mut self, earliest: u64) -> u64 {
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

    /// How one run of bookings picks its start relative to an anchor that
    /// only moves forward.
    #[derive(Debug, Clone, Copy)]
    enum Start {
        /// At the anchor: the frozen `fetch_ready` of a well-predicted run.
        Frozen,
        /// Up to 64 cycles above the anchor.
        Jitter(u64),
        /// The anchor steps a few cycles forward first.
        Forward(u64),
        /// The anchor jumps one to four rings forward first.
        Jump(u64),
        /// Up to two rings below the anchor.
        Below(u64),
    }

    fn start() -> impl Strategy<Value = Start> {
        let ring = RING as u64;
        prop_oneof![
            Just(Start::Frozen),
            (0u64..65).prop_map(Start::Jitter),
            (1u64..65).prop_map(Start::Forward),
            // Half the jumps land within 512 cycles of a ring, so the
            // slide keeps part of the last full range above `base`.
            prop_oneof![ring..ring + 512, ring..4 * ring + 1].prop_map(Start::Jump),
            (1..2 * ring + 1).prop_map(Start::Below),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn hinted_calendar_matches_the_scan(
            width in 1u8..5,
            anchor0 in 0u64..4 * RING as u64,
            runs in proptest::collection::vec((start(), 1usize..65), 1..64),
        ) {
            let mut hinted = SlotCalendar::new(width);
            let mut scan = ScanCalendar::new(width);
            let mut anchor = anchor0;
            for (n, &(kind, count)) in runs.iter().enumerate() {
                let at = match kind {
                    Start::Frozen => anchor,
                    Start::Jitter(d) => anchor + d,
                    Start::Forward(d) | Start::Jump(d) => {
                        anchor += d;
                        anchor
                    }
                    Start::Below(d) => anchor.saturating_sub(d),
                };
                for i in 0..count {
                    prop_assert_eq!(
                        hinted.book(at),
                        scan.book(at),
                        "run {} ({:?} at {}), booking {}, width {}",
                        n, kind, at, i, width
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_start_fills_cycles_in_order_past_the_ring() {
        for width in 1u8..5 {
            let mut cal = SlotCalendar::new(width);
            let start = 100;
            for i in 0..3 * RING as u64 * u64::from(width) {
                assert_eq!(
                    cal.book(start),
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
