//! Structural resources: per-cycle slot budgets and functional-unit
//! calendars.
//!
//! The one-pass timing model needs to answer "when is the next cycle ≥ t
//! with a free X?" for fetch/dispatch/issue/commit slots and for each
//! functional-unit pool. A slot booking returns the first cycle at or
//! after its start with a free slot. [`SlotCalendar`] finds it by
//! probing forward through a ring of `RING` counts; dispatch and issue
//! book there, because their starts move both ways. Each count carries
//! the cycle it counts, so a count left from an earlier lap of the ring
//! reads as empty: the ring is never cleared or slid, and a probe is one
//! load and one compare. Only cycles within `RING` of the highest booked
//! one are live; a later booking below them starts at the oldest. Their
//! starts stay near the calendar's frontier, so the probe is short:
//! across the 11 benchmarks at L2 = 5 and 17 with every technique, at
//! 250 k and 2 M instructions, dispatch takes at most 1.013 steps per
//! booking and issue 1.35.
//!
//! Fetch and commit starts never decrease: `fetch_ready` only grows, and
//! a commit starts no earlier than the last commit. For such starts
//! every booking lands at or after the previous one, and every cycle
//! from the start up to the last booked cycle is full, because the probe
//! passed it and counts only grow. So the first free cycle is the start
//! itself if it lies past the last booked cycle, else the last booked
//! cycle if it has a free slot, else the cycle after it.
//! [`InOrderSlots`] returns exactly that from two registers. The fetch
//! calendar needs it most: while the branch predictor is right,
//! `fetch_ready` stays put, and a probe from that one start would walk
//! every full cycle again.
//!
//! [`UnitPool`] and [`FuComplement`] answer the question for FU pools by
//! tracking each unit's next-free cycle and booking the first unit that
//! frees earliest. The pick runs on selects, not branches: which unit
//! frees first is as unpredictable as the op stream.

use serde::{Deserialize, Serialize};

use crate::insn::OpClass;

/// Ring capacity. Only the `RING` cycles up to the highest booked one
/// are live: a booking `RING` or more cycles past the oldest live cycle
/// retires the oldest ones, and a later booking below the live cycles
/// starts at the oldest. Dispatch and issue bookings start near their
/// calendar's frontier, because the 80-entry window bounds how far apart
/// in-flight instructions are.
const RING: usize = 8192;

/// The low bits of a [`SlotCalendar`] entry that hold its count.
const COUNT_MASK: u64 = 0xFF;

// An entry's count replaces its cycle's low 8 bits, which the entry's
// index in the ring already fixes.
const _: () = assert!(RING.is_multiple_of(COUNT_MASK as usize + 1));

/// Tracks how many of `width` per-cycle slots are used in a rolling window
/// of recent cycles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotCalendar {
    width: u8,
    /// Entry `c % RING` counts the bookings of cycle `c`: it holds `c`
    /// with its low 8 bits replaced by the count. An entry whose other
    /// bits differ from a cycle's was written on another lap of the ring,
    /// and that cycle has no bookings yet.
    slots: Vec<u64>,
    /// The oldest live cycle: the highest booked cycle + 1 − `RING`, or 0.
    base: u64,
}

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
            slots: vec![0; RING],
            base: 0,
        }
    }

    /// Books one slot at the earliest cycle ≥ `earliest`, returning it.
    pub fn book(&mut self, earliest: u64) -> u64 {
        let width = u64::from(self.width);
        let mut cycle = earliest.max(self.base);
        loop {
            let slot = &mut self.slots[(cycle % RING as u64) as usize];
            #[cfg(not(mutant = "slot-tag-bug"))]
            let used = if *slot ^ cycle <= COUNT_MASK {
                *slot & COUNT_MASK
            } else {
                0
            };
            // Seeded bug for the CI negative smoke: the count is read
            // without its cycle, so bookings from a lap earlier leak in.
            #[cfg(mutant = "slot-tag-bug")]
            let used = *slot & COUNT_MASK;
            if used < width {
                *slot = (cycle & !COUNT_MASK) | (used + 1);
                break;
            }
            cycle += 1;
        }
        if cycle >= self.base + RING as u64 {
            self.base = cycle + 1 - RING as u64;
        }
        cycle
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
        let past = earliest > self.cycle;
        self.cycle = if past {
            earliest
        } else {
            self.cycle + u64::from(full)
        };
        self.used = if past | full { 1 } else { self.used + 1 };
        self.cycle
    }
}

/// The first unit with the smallest next-free cycle, as
/// `Iterator::min_by_key` picks it, and that cycle.
fn first_free(next_free: &[u64]) -> (usize, u64) {
    let mut best = (0, next_free[0]);
    for (i, &t) in next_free.iter().enumerate().skip(1) {
        let earlier = t < best.1;
        best = (if earlier { i } else { best.0 }, best.1.min(t));
    }
    best
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
        let (idx, free_at) = first_free(&self.next_free);
        let start = earliest.max(free_at);
        self.next_free[idx] = start + occupy.max(1);
        start
    }
}

/// Units in the largest Table 2 pool.
const POOL_UNITS: usize = 4;

/// Indices of the Table 2 pools in [`FuComplement`], and their sizes.
const INT_ALU: usize = 0;
const INT_MULT: usize = 1;
const FP_ALU: usize = 2;
const FP_MULT: usize = 3;
const MEM_PORT: usize = 4;
const TABLE2_UNITS: [usize; 5] = [4, 1, 2, 1, 2];

/// Where a class books: its pool, and how long it holds the unit.
/// Pipelined units are held one cycle; dividers hold theirs for the full
/// latency.
#[derive(Debug, Clone, Copy)]
struct Route {
    pool: usize,
    occupy: u64,
}

/// [`Route`] by [`OpClass`] discriminant.
const ROUTES: [Route; OpClass::ALL.len()] = {
    let mut routes = [Route { pool: 0, occupy: 1 }; OpClass::ALL.len()];
    let mut i = 0;
    while i < routes.len() {
        let class = OpClass::ALL[i];
        routes[i] = Route {
            pool: match class {
                OpClass::IntAlu | OpClass::Branch | OpClass::Call | OpClass::Return => INT_ALU,
                OpClass::IntMult | OpClass::IntDiv => INT_MULT,
                OpClass::FpAlu => FP_ALU,
                OpClass::FpMult | OpClass::FpDiv => FP_MULT,
                OpClass::Load | OpClass::Store => MEM_PORT,
            },
            occupy: if class.unpipelined() {
                class.latency() as u64
            } else {
                1
            },
        };
        i += 1;
    }
    routes
};

/// The Table 2 functional-unit complement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuComplement {
    /// Next-free cycle of every unit, pool by pool; a pool's units past
    /// its size sit at `u64::MAX`, so the pick never lands on them.
    pools: [[u64; POOL_UNITS]; TABLE2_UNITS.len()],
}

impl FuComplement {
    /// 4 IntALU, 1 IntMult/Div, 2 FPALU, 1 FPMult/Div, 2 memory ports.
    pub fn table2() -> Self {
        let mut pools = [[u64::MAX; POOL_UNITS]; TABLE2_UNITS.len()];
        for (units, n) in pools.iter_mut().zip(TABLE2_UNITS) {
            units[..n].fill(0);
        }
        FuComplement { pools }
    }

    /// Books a unit for `class` at or after `earliest`; returns the cycle
    /// execution starts. Pipelined units are occupied one cycle; dividers
    /// hold their unit for the full latency.
    pub fn book(&mut self, class: OpClass, earliest: u64) -> u64 {
        let Route { pool, occupy } = ROUTES[class as usize];
        let units = &mut self.pools[pool];
        let (idx, free_at) = first_free(units);
        let start = earliest.max(free_at);
        units[idx] = start + occupy;
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The slot calendar as a forward scan over a sliding ring of counts:
    /// the obviously correct spec the tagged [`SlotCalendar`] and
    /// [`InOrderSlots`] must match booking for booking.
    struct ScanCalendar {
        width: u8,
        /// used[i] = slots consumed in cycle `base + i` (ring indexed by
        /// cycle).
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

    /// The unit pick the pools must reproduce: the first unit with the
    /// smallest next-free cycle, as `Iterator::min_by_key` returns it.
    fn min_by_key_book(next_free: &mut [u64], earliest: u64, occupy: u64) -> u64 {
        let (idx, &free_at) = next_free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("pool is non-empty");
        let start = earliest.max(free_at);
        next_free[idx] = start + occupy.max(1);
        start
    }

    /// The Table 2 complement routed class by class, each pool a plain
    /// list of next-free cycles booked through [`min_by_key_book`].
    struct ReferenceFu {
        int_alu: Vec<u64>,
        int_mult: Vec<u64>,
        fp_alu: Vec<u64>,
        fp_mult: Vec<u64>,
        mem_port: Vec<u64>,
    }

    impl ReferenceFu {
        fn table2() -> Self {
            ReferenceFu {
                int_alu: vec![0; 4],
                int_mult: vec![0; 1],
                fp_alu: vec![0; 2],
                fp_mult: vec![0; 1],
                mem_port: vec![0; 2],
            }
        }

        fn book(&mut self, class: OpClass, earliest: u64) -> u64 {
            let occupy = if class.unpipelined() {
                u64::from(class.latency())
            } else {
                1
            };
            let pool = match class {
                OpClass::IntAlu | OpClass::Branch | OpClass::Call | OpClass::Return => {
                    &mut self.int_alu
                }
                OpClass::IntMult | OpClass::IntDiv => &mut self.int_mult,
                OpClass::FpAlu => &mut self.fp_alu,
                OpClass::FpMult | OpClass::FpDiv => &mut self.fp_mult,
                OpClass::Load | OpClass::Store => &mut self.mem_port,
            };
            min_by_key_book(pool, earliest, occupy)
        }
    }

    /// How one run of bookings moves the start.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Stays put: the frozen `fetch_ready` of a well-predicted run.
        Stay,
        /// Steps up to 64 cycles forward.
        Small(u64),
        /// Jumps one to four rings forward, landing within 64 cycles of
        /// a whole number of laps, so it revisits entries booked laps
        /// earlier.
        Jump(u64),
        /// Steps back: up to 64 cycles (an issue start below the last
        /// one), or more than a ring, below the calendar's base.
        Back(u64),
    }

    impl Step {
        fn apply(self, start: u64) -> u64 {
            match self {
                Step::Stay => start,
                Step::Small(d) | Step::Jump(d) => start + d,
                Step::Back(d) => start.saturating_sub(d),
            }
        }
    }

    fn jump() -> impl Strategy<Value = Step> {
        let ring = RING as u64;
        (1u64..5, 0u64..64).prop_map(move |(laps, d)| Step::Jump(laps * ring + d))
    }

    /// Starts that never decrease, as fetch and commit see them.
    fn forward_step() -> impl Strategy<Value = Step> {
        prop_oneof![Just(Step::Stay), (1u64..65).prop_map(Step::Small), jump()]
    }

    /// Starts that move both ways, as dispatch and issue see them.
    fn any_step() -> impl Strategy<Value = Step> {
        let ring = RING as u64;
        prop_oneof![
            Just(Step::Stay),
            (1u64..65).prop_map(Step::Small),
            jump(),
            (1u64..65).prop_map(Step::Back),
            (ring..ring + 65).prop_map(Step::Back),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn in_order_slots_match_the_calendar(
            width in 1u8..5,
            start0 in 0u64..4 * RING as u64,
            runs in proptest::collection::vec((forward_step(), 1usize..65), 1..64),
        ) {
            let mut slots = InOrderSlots::new(width);
            let mut scan = ScanCalendar::new(width);
            let mut start = start0;
            for (n, &(step, count)) in runs.iter().enumerate() {
                start = step.apply(start);
                for i in 0..count {
                    prop_assert_eq!(
                        slots.book(start),
                        scan.book(start),
                        "run {} ({:?} to {}), booking {}, width {}",
                        n, step, start, i, width
                    );
                }
            }
        }

        #[test]
        fn tagged_calendar_matches_the_scan(
            width in 1u8..5,
            start0 in 0u64..4 * RING as u64,
            runs in proptest::collection::vec((any_step(), 1usize..65), 1..64),
        ) {
            let mut calendar = SlotCalendar::new(width);
            let mut scan = ScanCalendar::new(width);
            let mut start = start0;
            for (n, &(step, count)) in runs.iter().enumerate() {
                start = step.apply(start);
                for i in 0..count {
                    prop_assert_eq!(
                        calendar.book(start),
                        scan.book(start),
                        "run {} ({:?} to {}), booking {}, width {}",
                        n, step, start, i, width
                    );
                }
            }
        }

        #[test]
        fn unit_pool_picks_the_first_earliest_unit(
            units in 1usize..17,
            bookings in proptest::collection::vec((0u64..48, 0u64..25), 1..200),
        ) {
            let mut pool = UnitPool::new(units);
            let mut reference = vec![0u64; units];
            for (i, &(earliest, occupy)) in bookings.iter().enumerate() {
                prop_assert_eq!(
                    pool.book(earliest, occupy),
                    min_by_key_book(&mut reference, earliest, occupy),
                    "booking {} ({} units, earliest {}, occupy {})",
                    i, units, earliest, occupy
                );
            }
        }

        #[test]
        fn fu_complement_picks_the_first_earliest_unit(
            bookings in proptest::collection::vec((0usize..OpClass::ALL.len(), 0u64..48), 1..200),
        ) {
            let mut fu = FuComplement::table2();
            let mut reference = ReferenceFu::table2();
            for (i, &(class, earliest)) in bookings.iter().enumerate() {
                let class = OpClass::ALL[class];
                prop_assert_eq!(
                    fu.book(class, earliest),
                    reference.book(class, earliest),
                    "booking {} ({:?} at {})",
                    i, class, earliest
                );
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
        assert_eq!(cal.book(5), 7 + RING as u64, "a start below the window");
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
