//! Distinguishability metrics over quantized probe-latency
//! observations.
//!
//! Observations are vectors of quantized latency symbols over the
//! canonical probe-timing alphabet ([`quantize`]). For a uniform
//! one-bit secret the metrics are:
//!
//! * **observation-partition count** — distinct observation vectors the
//!   attacker can tell apart (the size of the induced partition of
//!   traces, Cañones/Köpf/Reineke's counting measure);
//! * **min-entropy leakage** — `log2 Σ_o max_s p̂(o|s)` in bits, the
//!   multiplicative increase in the attacker's one-guess success
//!   probability; for a one-bit secret it lies in `[0, 1]`;
//! * **Welch-t distinguishability** — a t-statistic on per-trial mean
//!   symbols, with an epsilon-regularized denominator so a
//!   deterministic simulator (zero within-class variance) yields a
//!   large finite score instead of an infinity that JSON cannot carry;
//! * **seeded-permutation p-value** — the label-permutation null for
//!   that t-statistic, exactly reproducible from its seed.

use std::collections::BTreeMap;

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use units::Cycles;

/// Variance floor for the Welch-t denominator (keeps the score finite
/// when a deterministic simulator produces zero within-class variance).
const WELCH_EPS: f64 = 1e-9;

/// Quantizes one probe latency into the canonical observation alphabet.
///
/// The honest map is the identity clamped to `u16` — the simulator's
/// latencies are exact cycle counts, so no binning is needed. The
/// `seeded-leakage-blind-bug` CI mutation collapses the alphabet to a
/// single symbol; every metric must then read zero and the harness
/// self-test must fail.
#[cfg(not(mutant = "seeded-leakage-blind-bug"))]
pub fn quantize(latency: Cycles) -> u16 {
    latency.get().min(u64::from(u16::MAX)) as u16
}

/// Quantizes one probe latency into the canonical observation alphabet.
///
/// Seeded-bug variant: aliases every latency into one class.
#[cfg(mutant = "seeded-leakage-blind-bug")]
pub fn quantize(latency: Cycles) -> u16 {
    let _ = latency;
    0
}

/// Quantizes a whole latency vector.
pub fn quantize_all(latencies: &[Cycles]) -> Vec<u16> {
    latencies.iter().map(|&l| quantize(l)).collect()
}

/// The observations gathered for both values of a one-bit secret.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservationSet {
    /// `by_secret[s]` holds one quantized observation vector per trial
    /// run with `secret == (s == 1)`.
    pub by_secret: [Vec<Vec<u16>>; 2],
}

impl ObservationSet {
    /// An empty set.
    pub fn new() -> Self {
        ObservationSet::default()
    }

    /// Records one trial's observation vector.
    pub fn push(&mut self, secret: bool, observation: Vec<u16>) {
        self.by_secret[usize::from(secret)].push(observation);
    }

    /// Trials recorded per secret value.
    pub fn trials(&self) -> [usize; 2] {
        [self.by_secret[0].len(), self.by_secret[1].len()]
    }

    /// Number of distinct observation vectors across both secrets — the
    /// size of the partition the attacker's view induces on traces.
    pub fn partition_count(&self) -> usize {
        let mut distinct: BTreeMap<&[u16], ()> = BTreeMap::new();
        for class in &self.by_secret {
            for obs in class {
                distinct.insert(obs.as_slice(), ());
            }
        }
        distinct.len()
    }

    /// Min-entropy leakage in bits for a uniform one-bit secret:
    /// `log2 Σ_o max(p̂(o|0), p̂(o|1))`, estimated from the empirical
    /// conditionals. Zero when either class is empty. Clamped at zero
    /// so floating-point rounding can never report negative leakage.
    pub fn min_entropy_leakage_bits(&self) -> f64 {
        let [n0, n1] = self.trials();
        if n0 == 0 || n1 == 0 {
            return 0.0;
        }
        let mut counts: BTreeMap<&[u16], [u64; 2]> = BTreeMap::new();
        for (s, class) in self.by_secret.iter().enumerate() {
            for obs in class {
                counts.entry(obs.as_slice()).or_insert([0, 0])[s] += 1;
            }
        }
        let sum: f64 = counts
            .values()
            .map(|c| f64::max(c[0] as f64 / n0 as f64, c[1] as f64 / n1 as f64))
            .sum();
        sum.log2().max(0.0)
    }

    /// Per-trial mean symbol values, per secret class (the scalar the
    /// t-statistic and permutation test operate on). An empty
    /// observation vector contributes 0.
    pub fn trial_means(&self) -> [Vec<f64>; 2] {
        let mean = |obs: &Vec<u16>| {
            if obs.is_empty() {
                0.0
            } else {
                obs.iter().map(|&x| f64::from(x)).sum::<f64>() / obs.len() as f64
            }
        };
        [
            self.by_secret[0].iter().map(mean).collect(),
            self.by_secret[1].iter().map(mean).collect(),
        ]
    }

    /// Welch-t distinguishability score between the two secret classes'
    /// per-trial means (absolute value; epsilon-regularized, see module
    /// docs). Zero when either class has no trials.
    pub fn welch_t(&self) -> f64 {
        let [a, b] = self.trial_means();
        welch_t_stat(&a, &b)
    }

    /// Seeded-permutation p-value for [`ObservationSet::welch_t`] under
    /// the label-permutation null, with the add-one estimator
    /// `p = (1 + #{|t_π| ≥ |t_obs|}) / (1 + rounds)`. Identical seeds
    /// give bitwise-identical p-values.
    pub fn permutation_p(&self, seed: u64, rounds: u32) -> f64 {
        let [a, b] = self.trial_means();
        let n0 = a.len();
        if n0 == 0 || b.is_empty() || rounds == 0 {
            return 1.0;
        }
        let t_obs = welch_t_stat(&a, &b);
        let mut pool: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut hits: u64 = 0;
        for _ in 0..rounds {
            // Fisher–Yates with the seeded stream.
            for i in (1..pool.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                pool.swap(i, j);
            }
            let t = welch_t_stat(&pool[..n0], &pool[n0..]);
            if t >= t_obs - 1e-12 {
                hits += 1;
            }
        }
        (1.0 + hits as f64) / (1.0 + f64::from(rounds))
    }
}

/// Absolute Welch t-statistic between two samples with an epsilon
/// variance floor (see module docs). Zero if either sample is empty.
pub fn welch_t_stat(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let var = |xs: &[f64], m: f64| {
        if xs.len() < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
        }
    };
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (var(a, ma), var(b, mb));
    let denom = (va / a.len() as f64 + vb / b.len() as f64 + WELCH_EPS).sqrt();
    ((ma - mb) / denom).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(class0: &[&[u16]], class1: &[&[u16]]) -> ObservationSet {
        let mut s = ObservationSet::new();
        for o in class0 {
            s.push(false, o.to_vec());
        }
        for o in class1 {
            s.push(true, o.to_vec());
        }
        s
    }

    #[test]
    fn identical_classes_leak_nothing() {
        let s = set_of(&[&[1, 2], &[1, 2]], &[&[1, 2], &[1, 2]]);
        assert!(s.min_entropy_leakage_bits().abs() < 1e-9);
        assert_eq!(s.partition_count(), 1);
        assert!(s.welch_t() < 1e-9);
    }

    #[test]
    fn disjoint_classes_leak_one_full_bit() {
        let s = set_of(&[&[1], &[1]], &[&[101], &[101]]);
        assert!((s.min_entropy_leakage_bits() - 1.0).abs() < 1e-9);
        assert_eq!(s.partition_count(), 2);
        assert!(s.welch_t() > 1_000.0);
        let p = s.permutation_p(42, 200);
        assert!(p < 0.5, "disjoint classes should look non-null, p = {p}");
    }

    #[test]
    fn empty_class_reports_zero_leakage_and_unit_p() {
        let s = set_of(&[&[1]], &[]);
        assert_eq!(s.min_entropy_leakage_bits(), 0.0);
        assert_eq!(s.welch_t(), 0.0);
        assert_eq!(s.permutation_p(1, 100), 1.0);
    }

    #[test]
    fn permutation_p_is_a_function_of_the_seed() {
        let s = set_of(&[&[1], &[2], &[1]], &[&[5], &[6], &[5]]);
        let p1 = s.permutation_p(1234, 500);
        let p2 = s.permutation_p(1234, 500);
        let p3 = s.permutation_p(4321, 500);
        assert_eq!(p1, p2);
        // A different seed permutes differently; the estimate may move
        // but stays a valid probability.
        assert!(p3 > 0.0 && p3 <= 1.0);
    }
}
