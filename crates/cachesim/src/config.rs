//! Cache geometry and latency configuration.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Errors from invalid cache configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A size parameter was zero or not a power of two where required.
    BadGeometry(String),
    /// The slowest access's latency, in cycles, does not fit the `u32`
    /// the hierarchy adds latencies in.
    LatencyOverflow(u64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadGeometry(what) => write!(f, "bad cache geometry: {what}"),
            ConfigError::LatencyOverflow(worst) => write!(
                f,
                "the slowest access takes {worst} cycles, more than {}",
                u32::MAX
            ),
        }
    }
}

impl Error for ConfigError {}

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: usize,
    /// Associativity (power of two).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The study's L1 configuration: 64 KB, 2-way, 64 B lines, 2-cycle hits
    /// (paper Table 2, D-cache; the I-cache uses 1-cycle hits).
    pub fn l1_64k_2way() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 2,
        }
    }

    /// The study's L1 I-cache: like the D-cache but with 1-cycle hits.
    pub fn l1i_64k_2way() -> Self {
        CacheConfig {
            hit_latency: 1,
            ..Self::l1_64k_2way()
        }
    }

    /// The study's unified L2: 2 MB, 2-way, 64 B lines. The paper sweeps the
    /// latency over {5, 8, 11, 17}; Table 2's default is 11.
    pub fn l2_2m_2way(latency: u32) -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            assoc: 2,
            line_bytes: 64,
            hit_latency: latency,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadGeometry`] when any dimension is zero, not
    /// a power of two, or inconsistent (fewer than one set).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let pow2 = |v: usize| v != 0 && v & (v - 1) == 0;
        if !pow2(self.size_bytes) {
            return Err(ConfigError::BadGeometry(format!(
                "size {} must be a nonzero power of two",
                self.size_bytes
            )));
        }
        if !pow2(self.assoc) {
            return Err(ConfigError::BadGeometry(format!(
                "associativity {} must be a nonzero power of two",
                self.assoc
            )));
        }
        if !pow2(self.line_bytes) {
            return Err(ConfigError::BadGeometry(format!(
                "line size {} must be a nonzero power of two",
                self.line_bytes
            )));
        }
        if self.num_sets() == 0 {
            return Err(ConfigError::BadGeometry(
                "size / (assoc * line) must be at least one set".into(),
            ));
        }
        Ok(())
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// Line size in bits.
    pub fn line_bits(&self) -> usize {
        self.line_bytes * 8
    }

    /// Tag width in bits for a 38-bit physical address, plus valid + dirty
    /// status (used for tag-array leakage geometry).
    pub fn tag_bits(&self) -> usize {
        let index_bits = self.num_sets().trailing_zeros() as usize;
        let offset_bits = self.line_bytes.trailing_zeros() as usize;
        38usize.saturating_sub(index_bits + offset_bits) + 2
    }

    /// Splits an address into `(tag, set_index)`.
    pub fn split(&self, addr: u64) -> (u64, usize) {
        let offset_bits = self.line_bytes.trailing_zeros();
        let index_mask = (self.num_sets() - 1) as u64;
        let line_addr = addr >> offset_bits;
        (
            (line_addr >> self.num_sets().trailing_zeros()),
            (line_addr & index_mask) as usize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_l1_has_512_sets() {
        let cfg = CacheConfig::l1_64k_2way();
        cfg.validate().unwrap();
        assert_eq!(cfg.num_sets(), 512);
        assert_eq!(cfg.num_lines(), 1024);
        assert_eq!(cfg.line_bits(), 512);
    }

    #[test]
    fn l2_has_16k_sets() {
        let cfg = CacheConfig::l2_2m_2way(11);
        cfg.validate().unwrap();
        assert_eq!(cfg.num_sets(), 16 * 1024);
        assert_eq!(cfg.hit_latency, 11);
    }

    #[test]
    fn split_roundtrips_set_index() {
        let cfg = CacheConfig::l1_64k_2way();
        let (tag_a, set_a) = cfg.split(0x0001_2340);
        let (tag_b, set_b) = cfg.split(0x0001_2340 + 63);
        assert_eq!((tag_a, set_a), (tag_b, set_b), "same line maps identically");
        let (_, set_c) = cfg.split(0x0001_2340 + 64);
        assert_eq!(set_c, (set_a + 1) % cfg.num_sets(), "next line, next set");
    }

    #[test]
    fn distinct_tags_differ() {
        let cfg = CacheConfig::l1_64k_2way();
        // Same set, different tag: addresses 64 KB/2 = 32 KB apart per way.
        let stride = (cfg.num_sets() * cfg.line_bytes) as u64;
        let (t0, s0) = cfg.split(0x8000);
        let (t1, s1) = cfg.split(0x8000 + stride);
        assert_eq!(s0, s1);
        assert_ne!(t0, t1);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let bad = CacheConfig {
            size_bytes: 3000,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 1,
        };
        assert!(bad.validate().is_err());
        let bad = CacheConfig {
            size_bytes: 65536,
            assoc: 3,
            line_bytes: 64,
            hit_latency: 1,
        };
        assert!(bad.validate().is_err());
        let bad = CacheConfig {
            size_bytes: 65536,
            assoc: 2,
            line_bytes: 0,
            hit_latency: 1,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn tag_bits_reasonable() {
        let cfg = CacheConfig::l1_64k_2way();
        // 38 − 9 index − 6 offset + 2 status = 25
        assert_eq!(cfg.tag_bits(), 25);
    }
}
