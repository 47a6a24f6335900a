//! Adaptive decay-interval schemes (paper §5.4).
//!
//! The paper shows gated-V_ss benefits enormously from per-benchmark decay
//! intervals and names three mechanisms for finding them at runtime:
//!
//! 1. Kaxiras-style selection among candidate intervals (realised offline
//!    as the *oracle* sweep in `simcore`);
//! 2. **adaptive mode control** (Zhou et al.): periodically compare the
//!    observed "sleep miss" rate against a target band and nudge the
//!    interval up or down — implemented by [`AdaptiveModeControl`];
//! 3. the **formal feedback controller** of Velusamy et al.: an integral
//!    controller steering the induced-miss ratio to a setpoint —
//!    implemented by [`FeedbackController`]. Both hardware schemes keep the
//!    tags awake to detect induced misses; the simulator exposes the same
//!    observation.

use serde::{Deserialize, Serialize};

/// One observation window's worth of decay behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalObservation {
    /// Misses caused by decay (matches on ghost/asleep lines) in the window.
    pub induced_misses: u64,
    /// All L1D misses in the window.
    pub total_misses: u64,
    /// All L1D accesses in the window.
    pub accesses: u64,
}

impl IntervalObservation {
    /// Induced misses as a fraction of all misses (the "sleep miss ratio").
    pub fn induced_ratio(&self) -> f64 {
        if self.total_misses == 0 {
            0.0
        } else {
            self.induced_misses as f64 / self.total_misses as f64
        }
    }
}

/// Zhou et al.'s adaptive mode control: keep the sleep-miss ratio inside a
/// band by doubling/halving the decay interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveModeControl {
    interval: u64,
    min_interval: u64,
    max_interval: u64,
    /// Lower edge of the acceptable induced-miss-ratio band.
    pub low_watermark: f64,
    /// Upper edge of the acceptable induced-miss-ratio band.
    pub high_watermark: f64,
}

impl AdaptiveModeControl {
    /// A controller starting at `initial` cycles, clamped to
    /// `[min_interval, max_interval]`, with the published ±band around a
    /// 1 % sleep-miss target.
    pub fn new(initial: u64, min_interval: u64, max_interval: u64) -> Self {
        AdaptiveModeControl {
            interval: initial.clamp(min_interval, max_interval),
            min_interval,
            max_interval,
            low_watermark: 0.005,
            high_watermark: 0.02,
        }
    }

    /// The interval currently in force.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Consumes one window's observation; returns the (possibly changed)
    /// interval to apply next.
    pub fn observe(&mut self, obs: &IntervalObservation) -> u64 {
        let ratio = obs.induced_ratio();
        if ratio > self.high_watermark {
            self.interval = (self.interval * 2).min(self.max_interval);
        } else if ratio < self.low_watermark {
            self.interval = (self.interval / 2).max(self.min_interval);
        }
        self.interval
    }
}

/// The Velusamy et al. formal (integral) feedback controller: drive the
/// induced-miss ratio to a setpoint by integrating the error into the decay
/// interval. Requires only a small state machine in hardware; the tags stay
/// awake to observe induced misses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeedbackController {
    interval: f64,
    min_interval: u64,
    max_interval: u64,
    /// Target induced-miss ratio.
    pub setpoint: f64,
    /// Integral gain (cycles of interval per unit of ratio error).
    pub gain: f64,
}

impl FeedbackController {
    /// A controller targeting `setpoint` induced-miss ratio.
    pub fn new(initial: u64, min_interval: u64, max_interval: u64, setpoint: f64) -> Self {
        FeedbackController {
            interval: initial.clamp(min_interval, max_interval) as f64,
            min_interval,
            max_interval,
            setpoint,
            // Multiplicative integral action: near the fixpoint the loop's
            // contraction factor is 1 − gain·setpoint, so gain·setpoint in
            // (0, 1) is stable and ~0.2 converges in a few tens of windows.
            gain: 20.0,
        }
    }

    /// The interval currently in force.
    pub fn interval(&self) -> u64 {
        self.interval as u64
    }

    /// Integrates one observation; returns the interval to apply next.
    pub fn observe(&mut self, obs: &IntervalObservation) -> u64 {
        let error = obs.induced_ratio() - self.setpoint;
        // Multiplicative integral action keeps the controller stable across
        // the decades-wide interval range.
        self.interval *= (self.gain * error).exp();
        self.interval = self
            .interval
            .clamp(self.min_interval as f64, self.max_interval as f64);
        self.interval as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(induced: u64, total: u64) -> IntervalObservation {
        IntervalObservation {
            induced_misses: induced,
            total_misses: total,
            accesses: total * 20,
        }
    }

    #[test]
    fn amc_backs_off_on_induced_misses() {
        let mut amc = AdaptiveModeControl::new(4096, 512, 65536);
        let i = amc.observe(&obs(50, 100));
        assert_eq!(i, 8192, "half the misses induced: double the interval");
    }

    #[test]
    fn amc_tightens_when_quiet() {
        let mut amc = AdaptiveModeControl::new(4096, 512, 65536);
        let i = amc.observe(&obs(0, 100));
        assert_eq!(i, 2048);
    }

    #[test]
    fn amc_respects_bounds() {
        let mut amc = AdaptiveModeControl::new(512, 512, 65536);
        for _ in 0..10 {
            amc.observe(&obs(0, 100));
        }
        assert_eq!(amc.interval(), 512);
        for _ in 0..20 {
            amc.observe(&obs(100, 100));
        }
        assert_eq!(amc.interval(), 65536);
    }

    #[test]
    fn amc_holds_inside_band() {
        let mut amc = AdaptiveModeControl::new(4096, 512, 65536);
        let i = amc.observe(&obs(1, 100)); // 1%: inside [0.5%, 2%]
        assert_eq!(i, 4096);
    }

    #[test]
    fn feedback_converges_toward_setpoint() {
        // Synthetic plant: induced ratio falls as the interval grows.
        let plant = |interval: u64| -> IntervalObservation {
            let ratio = (4096.0 / interval as f64).min(1.0) * 0.04;
            obs((ratio * 1000.0) as u64, 1000)
        };
        let mut fc = FeedbackController::new(1024, 256, 131072, 0.01);
        for _ in 0..50 {
            let o = plant(fc.interval());
            fc.observe(&o);
        }
        let final_ratio = plant(fc.interval()).induced_ratio();
        assert!(
            (final_ratio - 0.01).abs() < 0.006,
            "controller should settle near the setpoint, ratio={final_ratio} interval={}",
            fc.interval()
        );
    }

    #[test]
    fn feedback_respects_bounds() {
        let mut fc = FeedbackController::new(1024, 256, 8192, 0.01);
        for _ in 0..100 {
            fc.observe(&obs(500, 1000));
        }
        assert_eq!(fc.interval(), 8192);
        for _ in 0..100 {
            fc.observe(&obs(0, 1000));
        }
        assert_eq!(fc.interval(), 256);
    }

    #[test]
    fn induced_ratio_handles_zero() {
        assert_eq!(obs(0, 0).induced_ratio(), 0.0);
    }
}
