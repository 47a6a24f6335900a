//! Zero-cost dimensional newtypes for the leakage study.
//!
//! Every quantity the energy comparison depends on — cycle counts, joules,
//! watts, volts, kelvin — gets a `#[repr(transparent)]` wrapper that only
//! implements the *physically meaningful* operations:
//!
//! - [`Watts`] `*` [`Seconds`] → [`Joules`] (and commuted)
//! - [`Joules`] `/` [`Seconds`] → [`Watts`], [`Joules`] `/` [`Watts`] → [`Seconds`]
//! - [`Cycles`] → [`Seconds`] only via the named conversion
//!   [`Cycles::seconds_at`] (a clock frequency is required — there is *no*
//!   `Joules / Cycles` and no implicit `cycles as f64`)
//! - [`Volts`] `*` [`Volts`] → [`VoltsSquared`], [`Farads`] `*`
//!   [`VoltsSquared`] → [`Joules`] (the CACTI `C·V²` decomposition)
//! - [`PerCycle`] `*` [`Cycles`] → dimensionless event count
//!
//! Same-dimension division yields a dimensionless `f64` ratio, so
//! percentages and normalized comparisons stay ordinary floats. Anything
//! else — adding joules to cycles, multiplying watts by watts — is a
//! *compile error*, which is the point: the class of unit-mixing bugs that
//! PR 2's runtime conservation audit can only catch statistically now fails
//! `cargo build`. The `unit-bug` feature gates a deliberate violation that
//! CI builds to prove the wall holds.
//!
//! All wrappers are `Copy`, `#[repr(transparent)]`, and fully inlined:
//! the generated code is identical to raw `u64`/`f64` arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Implements the self-shaped ring ops shared by the `f64`-backed
/// quantities: addition/subtraction within the dimension, scaling by a
/// dimensionless factor, and same-dimension division to a ratio.
macro_rules! f64_quantity {
    ($t:ident, $unit:literal) => {
        impl $t {
            /// The zero quantity.
            pub const ZERO: $t = $t(0.0);

            /// Wraps a raw value expressed in the quantity's SI unit.
            #[inline]
            pub const fn new(v: f64) -> Self {
                $t(v)
            }

            /// The raw value in the quantity's SI unit. This is the *only*
            /// way out of the dimension — keep it at formatting and FFI
            /// boundaries.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Whether the value is finite (audit checks).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// The larger of two quantities (NaN-propagating like `f64::max`).
            #[inline]
            pub fn max(self, other: Self) -> Self {
                $t(self.0.max(other.0))
            }
        }

        impl Add for $t {
            type Output = $t;
            #[inline]
            fn add(self, rhs: $t) -> $t {
                $t(self.0 + rhs.0)
            }
        }

        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, rhs: $t) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $t {
            type Output = $t;
            #[inline]
            fn sub(self, rhs: $t) -> $t {
                $t(self.0 - rhs.0)
            }
        }

        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, rhs: $t) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $t {
            type Output = $t;
            #[inline]
            fn neg(self) -> $t {
                $t(-self.0)
            }
        }

        impl Mul<f64> for $t {
            type Output = $t;
            #[inline]
            fn mul(self, rhs: f64) -> $t {
                $t(self.0 * rhs)
            }
        }

        impl Mul<$t> for f64 {
            type Output = $t;
            #[inline]
            fn mul(self, rhs: $t) -> $t {
                $t(self * rhs.0)
            }
        }

        impl Div<f64> for $t {
            type Output = $t;
            #[inline]
            fn div(self, rhs: f64) -> $t {
                $t(self.0 / rhs)
            }
        }

        /// Same-dimension division: a dimensionless ratio.
        impl Div<$t> for $t {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $t) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $t {
            fn sum<I: Iterator<Item = $t>>(iter: I) -> $t {
                $t(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

/// A count of clock cycles (or line-cycles, when integrating per-line
/// occupancy over time).
///
/// Backed by `u64` like every cycle counter in the simulator. Cycles can
/// be added, subtracted, compared, and summed, but they carry no wall-time
/// or energy meaning on their own: converting to [`Seconds`] requires a
/// clock via [`Cycles::seconds_at`], and there is deliberately no
/// `Joules / Cycles` — energy-per-cycle ratios must route through a
/// frequency so the units stay honest.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[repr(transparent)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Wraps a raw cycle count.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Named conversion to wall time at a given clock: `cycles / f`.
    ///
    /// This is the *only* path from the cycle domain into the SI domain,
    /// which is what makes `Watts * cycles.seconds_at(clock)` → [`Joules`]
    /// well-typed while `Joules / Cycles` stays a compile error.
    #[inline]
    pub fn seconds_at(self, clock: Hertz) -> Seconds {
        // u64 → f64 is exact for every cycle count this simulator can
        // reach (< 2^53); documented lossy conversion.
        #[allow(clippy::cast_precision_loss)]
        Seconds(self.0 as f64 / clock.0)
    }

    /// Dimensionless ratio of two cycle counts (for percentages such as
    /// turnoff ratio and performance loss). Returns 0 when `denom` is zero.
    #[inline]
    pub fn ratio_of(self, denom: Cycles) -> f64 {
        if denom.0 == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.0 as f64 / denom.0 as f64
            }
        }
    }

    /// Saturating subtraction, mirroring `u64::saturating_sub`.
    #[inline]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|v| v.0).sum())
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// Wall-clock time in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Seconds(f64);
f64_quantity!(Seconds, "s");

/// Clock frequency in hertz.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Hertz(f64);
f64_quantity!(Hertz, "Hz");

/// Energy in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Joules(f64);
f64_quantity!(Joules, "J");

/// Power in watts.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Watts(f64);
f64_quantity!(Watts, "W");

/// Electric potential in volts.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Volts(f64);
f64_quantity!(Volts, "V");

/// Squared potential in volts² — the `V²` half of CACTI's `C·V²`.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[repr(transparent)]
pub struct VoltsSquared(f64);
f64_quantity!(VoltsSquared, "V^2");

/// Capacitance in farads — the `C` half of CACTI's `C·V²`.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Farads(f64);
f64_quantity!(Farads, "F");

/// Absolute temperature in kelvin.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Kelvin(f64);

impl Kelvin {
    /// Wraps an absolute temperature in kelvin.
    #[inline]
    pub const fn new(v: f64) -> Self {
        Kelvin(v)
    }

    /// Converts from degrees Celsius.
    #[inline]
    pub const fn from_celsius(c: f64) -> Self {
        Kelvin(c + 273.15)
    }

    /// The raw value in kelvin.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The temperature in degrees Celsius.
    #[inline]
    pub const fn celsius(self) -> f64 {
        self.0 - 273.15
    }

    /// Whether the value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

/// Temperature deltas are dimensionally kelvin too, but letting
/// `Kelvin - Kelvin` produce a bare `f64` delta keeps the RC thermal
/// model readable without a separate delta type.
impl Sub for Kelvin {
    type Output = f64;
    #[inline]
    fn sub(self, rhs: Kelvin) -> f64 {
        self.0 - rhs.0
    }
}

/// Offsetting a temperature by a delta in kelvin.
impl Add<f64> for Kelvin {
    type Output = Kelvin;
    #[inline]
    fn add(self, rhs: f64) -> Kelvin {
        Kelvin(self.0 + rhs)
    }
}

impl fmt::Display for Kelvin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} K", self.0)
    }
}

/// Instructions per cycle — the throughput ratio the paper's performance
/// comparisons are stated in. Dimensionally `instructions / cycle`, kept
/// distinct from [`PerCycle`] (generic event rates) so a decay-sweep rate
/// can never be compared against pipeline throughput by accident.
///
/// Construction goes through [`Ipc::of`] so the zero-cycle convention
/// (empty run → 0.0 IPC) lives in exactly one place.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Ipc(f64);

impl Ipc {
    /// Zero throughput (the convention for a run that retired nothing).
    pub const ZERO: Ipc = Ipc(0.0);

    /// Throughput of `committed` instructions over `cycles`. Returns
    /// [`Ipc::ZERO`] when `cycles` is zero.
    #[inline]
    pub fn of(committed: u64, cycles: Cycles) -> Ipc {
        if cycles.0 == 0 {
            Ipc::ZERO
        } else {
            // Exact for any instruction/cycle count this simulator can
            // reach (< 2^53); documented lossy conversion.
            #[allow(clippy::cast_precision_loss)]
            Ipc(committed as f64 / cycles.0 as f64)
        }
    }

    /// The raw dimensionless ratio.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Whether the value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl fmt::Display for Ipc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} inst/cycle", self.0)
    }
}

/// An event rate per clock cycle (dimension 1/cycle) — e.g. decay sweeps
/// per cycle or induced misses per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
#[repr(transparent)]
pub struct PerCycle(f64);
f64_quantity!(PerCycle, "/cycle");

// ---- Cross-dimension operations (the physically meaningful set) ----

/// `P · t = E`.
impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// `t · P = E`.
impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// `E / t = P`.
impl Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

/// `E / P = t` (break-even horizons).
impl Div<Watts> for Joules {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

/// `E · f = P` (energy per event × event rate).
impl Mul<Hertz> for Joules {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Hertz) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

/// `f · E = P`.
impl Mul<Joules> for Hertz {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Joules) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

/// `t · f` = a dimensionless cycle count (real-valued; round explicitly
/// if an integral [`Cycles`] is needed).
impl Mul<Hertz> for Seconds {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Hertz) -> f64 {
        self.0 * rhs.0
    }
}

/// `f · t` = a dimensionless cycle count.
impl Mul<Seconds> for Hertz {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Seconds) -> f64 {
        self.0 * rhs.0
    }
}

/// `V · V = V²`.
impl Mul<Volts> for Volts {
    type Output = VoltsSquared;
    #[inline]
    fn mul(self, rhs: Volts) -> VoltsSquared {
        VoltsSquared(self.0 * rhs.0)
    }
}

impl Volts {
    /// `V²` of this potential.
    #[inline]
    pub fn squared(self) -> VoltsSquared {
        VoltsSquared(self.0 * self.0)
    }
}

/// `C · V² = E` (CACTI dynamic energy).
impl Mul<VoltsSquared> for Farads {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: VoltsSquared) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// `V² · C = E`.
impl Mul<Farads> for VoltsSquared {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Farads) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// Rate × duration = expected event count (dimensionless).
impl Mul<Cycles> for PerCycle {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Cycles) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.0 * rhs.0 as f64
        }
    }
}

impl PerCycle {
    /// The rate of `events` occurring uniformly over `span` cycles.
    /// Returns zero for an empty span.
    #[inline]
    pub fn rate(events: u64, span: Cycles) -> PerCycle {
        if span.0 == 0 {
            PerCycle(0.0)
        } else {
            #[allow(clippy::cast_precision_loss)]
            PerCycle(events as f64 / span.0 as f64)
        }
    }
}

/// A linear fixed-width histogram over [`Cycles`].
///
/// The study server's wall-clock service histograms bucket by powers of
/// two, which is the right shape for latencies spanning six decades but
/// far too coarse for *simulated* probe timings: the leakage harness
/// distinguishes a 1-cycle hit from a 4-cycle drowsy wake-up, and a
/// log-scaled bucket would alias exactly the observations the
/// distinguishability metrics exist to separate. This histogram keeps
/// every bucket `bucket_width` cycles wide — bucket `i` counts values in
/// `[i·w, (i+1)·w)` — so equal-width timing classes stay distinct, and
/// anything past the last boundary saturates into the final bucket (and
/// is tallied separately in [`CycleHistogram::saturated`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleHistogram {
    /// Width of every bucket, cycles.
    bucket_width: Cycles,
    /// Per-bucket counts; the last bucket also absorbs saturated values.
    buckets: Vec<u64>,
    /// Observations recorded.
    count: u64,
    /// Sum of all recorded values (saturating).
    total: Cycles,
    /// Observations past the last bucket's natural range.
    saturated: u64,
}

impl CycleHistogram {
    /// An empty histogram of `num_buckets` buckets, each `bucket_width`
    /// cycles wide.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `num_buckets` is zero — a
    /// zero-width or bucketless histogram cannot classify anything.
    pub fn new(bucket_width: Cycles, num_buckets: usize) -> Self {
        assert!(bucket_width.0 > 0, "bucket width must be positive");
        assert!(num_buckets > 0, "histogram needs at least one bucket");
        CycleHistogram {
            bucket_width,
            buckets: vec![0; num_buckets],
            count: 0,
            total: Cycles::ZERO,
            saturated: 0,
        }
    }

    /// Records one observation. Values past the last bucket's natural
    /// range land in the last bucket and bump
    /// [`CycleHistogram::saturated`].
    pub fn record(&mut self, value: Cycles) {
        let idx = value.0 / self.bucket_width.0;
        let last = (self.buckets.len() - 1) as u64;
        if idx > last {
            self.saturated += 1;
            self.buckets[last as usize] += 1;
        } else {
            self.buckets[idx as usize] += 1;
        }
        self.count += 1;
        self.total = Cycles(self.total.0.saturating_add(value.0));
    }

    /// Width of every bucket.
    pub fn bucket_width(&self) -> Cycles {
        self.bucket_width
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Per-bucket counts, [`CycleHistogram::num_buckets`] long.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Half-open value range `[lo, hi)` of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_bounds(&self, i: usize) -> (Cycles, Cycles) {
        assert!(i < self.buckets.len(), "bucket {i} out of range");
        let lo = self.bucket_width.0 * i as u64;
        (Cycles(lo), Cycles(lo + self.bucket_width.0))
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating at `u64::MAX`).
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Observations that overflowed the last bucket's natural range.
    pub fn saturated(&self) -> u64 {
        self.saturated
    }
}

/// Deliberate dimensional violation, compiled only under the `unit-bug`
/// mutant. CI runs `cargo build -p units` with
/// `RUSTFLAGS='--cfg mutant="unit-bug"'` and asserts that the build FAILS
/// with E0308 — proving that adding [`Joules`] to [`Cycles`] is rejected
/// by the type system, not merely by convention.
#[cfg(mutant = "unit-bug")]
pub fn seeded_unit_bug() -> Joules {
    Joules::new(1.0e-9) + Cycles::new(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(2.0) * Seconds::new(3.0);
        assert_eq!(e, Joules::new(6.0));
        assert_eq!(Seconds::new(3.0) * Watts::new(2.0), e);
    }

    #[test]
    fn energy_over_time_is_power() {
        assert_eq!(Joules::new(6.0) / Seconds::new(3.0), Watts::new(2.0));
    }

    #[test]
    fn energy_over_power_is_time() {
        assert_eq!(Joules::new(6.0) / Watts::new(2.0), Seconds::new(3.0));
    }

    #[test]
    fn cycles_reach_seconds_only_through_a_clock() {
        let s = Cycles::new(5_600_000_000).seconds_at(Hertz::new(5.6e9));
        assert!((s.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cv2_is_energy() {
        let e = Farads::new(1.0e-15) * Volts::new(2.0).squared();
        assert_eq!(e, Joules::new(4.0e-15));
        assert_eq!(Volts::new(2.0) * Volts::new(2.0), VoltsSquared::new(4.0));
    }

    #[test]
    fn same_dimension_division_is_a_ratio() {
        assert_eq!(Joules::new(1.0) / Joules::new(4.0), 0.25);
        assert_eq!(Watts::new(3.0) / Watts::new(1.5), 2.0);
        assert_eq!(Cycles::new(75).ratio_of(Cycles::new(100)), 0.75);
        assert_eq!(Cycles::new(75).ratio_of(Cycles::ZERO), 0.0);
    }

    #[test]
    fn cycle_arithmetic_matches_u64() {
        let mut c = Cycles::new(10);
        c += Cycles::new(5);
        c -= Cycles::new(3);
        assert_eq!(c, Cycles::new(12));
        assert_eq!(c * 4, Cycles::new(48));
        assert_eq!(Cycles::new(3).saturating_sub(Cycles::new(7)), Cycles::ZERO);
        let total: Cycles = [Cycles::new(1), Cycles::new(2)].into_iter().sum();
        assert_eq!(total, Cycles::new(3));
    }

    #[test]
    fn kelvin_celsius_round_trip() {
        let t = Kelvin::from_celsius(110.0);
        assert!((t.get() - 383.15).abs() < 1e-12);
        assert!((t.celsius() - 110.0).abs() < 1e-12);
        assert!((Kelvin::new(384.15) - t - 1.0).abs() < 1e-12);
        assert_eq!(t + 1.0, Kelvin::new(384.15));
    }

    #[test]
    fn ipc_is_committed_over_cycles() {
        let ipc = Ipc::of(300, Cycles::new(100));
        assert_eq!(ipc.get(), 3.0);
        assert_eq!(Ipc::of(300, Cycles::ZERO), Ipc::ZERO);
        assert!(ipc > Ipc::of(100, Cycles::new(100)));
        assert!(ipc.is_finite());
        assert_eq!(ipc.to_string(), "3 inst/cycle");
    }

    #[test]
    fn per_cycle_rate_times_span_recovers_count() {
        let r = PerCycle::rate(4, Cycles::new(1024));
        assert!((r * Cycles::new(1024) - 4.0).abs() < 1e-12);
        assert_eq!(PerCycle::rate(4, Cycles::ZERO), PerCycle::ZERO);
    }

    #[test]
    fn scaling_and_accumulation() {
        let mut e = Joules::ZERO;
        e += 3.0 * Joules::new(1.0e-9);
        e += Joules::new(1.0e-9) * 2.0;
        assert_eq!(e, Joules::new(5.0e-9));
        assert_eq!(-e + e, Joules::ZERO);
        assert_eq!(e / 5.0, Joules::new(1.0e-9));
        let s: Joules = [e, e].into_iter().sum();
        assert_eq!(s, e * 2.0);
        assert!(e.is_finite());
        assert_eq!(e.max(Joules::ZERO), e);
    }

    #[test]
    fn display_carries_units() {
        assert_eq!(Joules::new(1.5).to_string(), "1.5 J");
        assert_eq!(Cycles::new(7).to_string(), "7 cycles");
        assert_eq!(Kelvin::new(300.0).to_string(), "300 K");
    }

    #[test]
    fn cycle_histogram_bucket_boundaries_are_off_by_one_free_at_powers_of_two() {
        // Regression guard for the classic boundary slip: with width 2^k,
        // a value of exactly m·2^k opens bucket m — it must never land in
        // bucket m−1 (inclusive-upper bug) nor m+1 (log2-rounding bug).
        for k in [1u64, 3, 6] {
            let w = 1u64 << k;
            let mut h = CycleHistogram::new(Cycles::new(w), 8);
            for m in 0..8u64 {
                h.record(Cycles::new(m * w)); // lower boundary of bucket m
                if m > 0 {
                    h.record(Cycles::new(m * w - 1)); // top of bucket m−1
                }
            }
            for m in 0..8usize {
                // Each bucket saw its own lower bound plus the top value
                // of its range — except the last, whose top (8·w − 1) was
                // never recorded.
                let expected = if m == 7 { 1 } else { 2 };
                assert_eq!(h.buckets()[m], expected, "width {w}, bucket {m}");
                let (lo, hi) = h.bucket_bounds(m);
                assert_eq!(lo.get(), m as u64 * w);
                assert_eq!(hi.get(), (m as u64 + 1) * w);
            }
            assert_eq!(h.saturated(), 0, "no in-range value may saturate");
        }
    }

    #[test]
    fn cycle_histogram_saturates_into_the_last_bucket() {
        let mut h = CycleHistogram::new(Cycles::new(4), 4); // covers [0, 16)
        h.record(Cycles::new(15)); // top of the last natural bucket
        h.record(Cycles::new(16)); // first value past the range
        h.record(Cycles::new(u64::MAX)); // way past; total must not wrap
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets(), &[0, 0, 0, 3]);
        assert_eq!(h.saturated(), 2, "15 is in range; 16 and MAX overflow");
        assert_eq!(h.total(), Cycles::new(u64::MAX), "total saturates");
    }

    #[test]
    fn cycle_histogram_serializes_and_counts_single_cycle_classes() {
        // Width 1 keeps each probe-timing class its own bucket — the
        // resolution the leakage harness needs (hit=1 vs drowsy wake=4).
        let mut h = CycleHistogram::new(Cycles::new(1), 8);
        h.record(Cycles::new(1));
        h.record(Cycles::new(1));
        h.record(Cycles::new(4));
        assert_eq!(h.buckets(), &[0, 2, 0, 0, 1, 0, 0, 0]);
        assert_eq!(h.total(), Cycles::new(6));
        let text = serde_json::to_string(&h).expect("serializes");
        assert!(text.contains("\"buckets\""), "{text}");
    }
}
