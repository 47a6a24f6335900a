//! # hotleakage
//!
//! A from-scratch Rust reimplementation of **HotLeakage**, the
//! architectural-level model of subthreshold and gate leakage introduced by
//! Zhang et al. (UVA CS-2003-05) and used by Parikh et al. in *"Comparison of
//! State-Preserving vs. Non-State-Preserving Leakage Control in Caches"*
//! (WDDD 2003 / DATE 2004).
//!
//! The model follows the Butts–Sohi abstraction
//!
//! ```text
//! P_static = V_dd · N_cells · I_cell                      (paper Eq. 4)
//! I_cell   = n_n · k_n · I_n  +  n_p · k_p · I_p          (paper Eq. 3)
//! ```
//!
//! but computes the per-transistor *unit leakage* `I_n`/`I_p` **dynamically**
//! from the BSIM3 v3.2 subthreshold equation (paper Eq. 2), so that
//! temperature, supply voltage, and threshold voltage can change at runtime
//! (DVS, thermal drift, drowsy retention voltages) and leakage is recomputed
//! on the fly. It adds gate (direct-tunnelling) leakage, a GIDL limit flag
//! for reverse body bias, and inter-die parameter variation.
//!
//! ## Quick example
//!
//! ```
//! use hotleakage::{Environment, TechNode, structure::SramArray};
//!
//! // A 64 KB, 2-way, 64 B-line L1 data array at 70 nm, 0.9 V, 110 °C.
//! let env = Environment::new(TechNode::N70, 0.9, 383.15)?;
//! let array = SramArray::cache_data_array(1024, 512);
//! let watts = array.leakage_power(&env);
//! assert!(watts > units::Watts::ZERO);
//! # Ok::<(), hotleakage::ModelError>(())
//! ```
//!
//! ## Modules
//!
//! * [`technology`] — per-node (180/130/100/70 nm) BSIM3 parameter tables.
//! * [`bsim3`] — the unit-leakage equation (paper Eq. 2) and its inputs.
//! * [`gate_leakage`] — direct-tunnelling gate leakage (40 nA/µm target at
//!   70 nm / 1.2 nm t_ox / 0.9 V / 300 K) and the GIDL limit for RBB.
//! * [`kdesign`] — the double-`k_design` (k_n, k_p) circuit-topology factors
//!   derived by enumerating gate input states (paper Eqs. 5–8, Fig. 2).
//! * [`cell`] — leakage of individual cells (SRAM 6T, NAND, NOR, inverter,
//!   sense amplifier) via paper Eq. 3.
//! * [`variation`] — inter-die parameter variation (Gaussian sampling of
//!   L, t_ox, V_dd, V_th; paper §3.3).
//! * [`structure`] — leakage of whole microarchitectural structures (cache
//!   data/tag arrays, edge logic, register files).
//! * [`validation`] — "circuit-simulation" reference curves used to
//!   regenerate Fig. 1a–d of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bsim3;
pub mod butts_sohi;
pub mod cell;
pub mod consts;
pub mod error;
pub mod gate_leakage;
pub mod kdesign;
pub mod structure;
pub mod technology;
pub mod thermal;
pub mod validation;
pub mod variation;

pub use bsim3::{unit_leakage, TransistorState};
pub use cell::{Cell, CellKind};
pub use error::ModelError;
pub use technology::{DeviceParams, DeviceType, TechNode, TechParams};
pub use variation::{VariationConfig, VariationSpec};

use serde::{Deserialize, Serialize};

/// The operating point at which leakage is evaluated.
///
/// An `Environment` bundles a technology node with the *current* supply
/// voltage and temperature. Leakage-control techniques that scale `V_dd`
/// (drowsy caches, DVS) or studies that track temperature simply construct a
/// new `Environment` — all downstream leakage queries are pure functions of
/// it, which is exactly the "recalculate leakage currents dynamically"
/// ability the paper calls out.
///
/// ```
/// use hotleakage::{Environment, TechNode};
///
/// let nominal = Environment::new(TechNode::N70, 0.9, 383.15)?;
/// let drowsy = nominal.with_vdd(nominal.node().vth_n() * 1.5)?;
/// assert!(drowsy.vdd() < nominal.vdd());
/// # Ok::<(), hotleakage::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    node: TechNode,
    vdd: f64,
    temperature_k: f64,
    /// Optional mean leakage multiplier from inter-die parameter variation
    /// (1.0 when variation is not modelled).
    variation_factor: f64,
}

impl Environment {
    /// Creates an operating point for `node` at supply `vdd` (volts) and
    /// `temperature_k` (kelvin).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidVdd`] if `vdd` is not a positive, finite
    /// voltage below 2× the node's default supply, and
    /// [`ModelError::InvalidTemperature`] if `temperature_k` is outside
    /// 200 K – 500 K (the range the curve fits are valid over).
    pub fn new(node: TechNode, vdd: f64, temperature_k: f64) -> Result<Self, ModelError> {
        if !(vdd.is_finite() && vdd > 0.0 && vdd <= 2.0 * node.params().vdd0) {
            return Err(ModelError::InvalidVdd(vdd));
        }
        if !(temperature_k.is_finite() && (200.0..=500.0).contains(&temperature_k)) {
            return Err(ModelError::InvalidTemperature(temperature_k));
        }
        Ok(Self {
            node,
            vdd,
            temperature_k,
            variation_factor: 1.0,
        })
    }

    /// Operating point at the node's default supply voltage and 300 K.
    pub fn nominal(node: TechNode) -> Self {
        Self {
            node,
            vdd: node.params().vdd0,
            temperature_k: 300.0,
            variation_factor: 1.0,
        }
    }

    /// Returns a copy of this environment at a different supply voltage.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Environment::new`].
    pub fn with_vdd(&self, vdd: f64) -> Result<Self, ModelError> {
        let mut env = Self::new(self.node, vdd, self.temperature_k)?;
        env.variation_factor = self.variation_factor;
        Ok(env)
    }

    /// Returns a copy of this environment at a different temperature.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Environment::new`].
    pub fn with_temperature(&self, temperature_k: f64) -> Result<Self, ModelError> {
        let mut env = Self::new(self.node, self.vdd, temperature_k)?;
        env.variation_factor = self.variation_factor;
        Ok(env)
    }

    /// Returns a copy with the inter-die variation factor produced by
    /// [`variation::mean_leakage_factor`] applied multiplicatively to all
    /// leakage queries.
    pub fn with_variation_factor(&self, factor: f64) -> Self {
        let mut env = *self;
        env.variation_factor = factor.max(0.0);
        env
    }

    /// The technology node of this operating point.
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// The technology parameter table of this operating point.
    pub fn tech(&self) -> &'static TechParams {
        self.node.params()
    }

    /// Current supply voltage in volts.
    pub fn vdd_volts(&self) -> units::Volts {
        units::Volts::new(self.vdd)
    }

    /// Supply voltage, volts (raw, for the BSIM3 fit internals).
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Current temperature in kelvin.
    pub fn temperature_k(&self) -> f64 {
        self.temperature_k
    }

    /// Junction temperature as a typed quantity.
    pub fn temperature(&self) -> units::Kelvin {
        units::Kelvin::new(self.temperature_k)
    }

    /// Current temperature in degrees Celsius.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_k - 273.15
    }

    /// The inter-die variation leakage multiplier (1.0 when unmodelled).
    pub fn variation_factor(&self) -> f64 {
        self.variation_factor
    }

    /// Thermal voltage `kT/q` at this temperature, in volts.
    pub fn thermal_voltage(&self) -> f64 {
        consts::BOLTZMANN * self.temperature_k / consts::ELECTRON_CHARGE
    }

    /// Unit (W/L = 1) subthreshold leakage of an NMOS device at this
    /// operating point, in amperes.
    pub fn unit_leakage_n(&self) -> f64 {
        self.variation_factor * bsim3::unit_leakage(&TransistorState::at(self, DeviceType::Nmos))
    }

    /// Unit (W/L = 1) subthreshold leakage of a PMOS device at this
    /// operating point, in amperes.
    pub fn unit_leakage_p(&self) -> f64 {
        self.variation_factor * bsim3::unit_leakage(&TransistorState::at(self, DeviceType::Pmos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_environment_matches_node_defaults() {
        let env = Environment::nominal(TechNode::N70);
        assert_eq!(env.vdd(), 1.0);
        assert_eq!(env.temperature_k(), 300.0);
        assert_eq!(env.node(), TechNode::N70);
    }

    #[test]
    fn rejects_nonsensical_vdd() {
        assert!(Environment::new(TechNode::N70, -1.0, 300.0).is_err());
        assert!(Environment::new(TechNode::N70, 0.0, 300.0).is_err());
        assert!(Environment::new(TechNode::N70, f64::NAN, 300.0).is_err());
        assert!(Environment::new(TechNode::N70, 5.0, 300.0).is_err());
    }

    #[test]
    fn rejects_nonsensical_temperature() {
        assert!(Environment::new(TechNode::N70, 0.9, 100.0).is_err());
        assert!(Environment::new(TechNode::N70, 0.9, 700.0).is_err());
        assert!(Environment::new(TechNode::N70, 0.9, f64::INFINITY).is_err());
    }

    #[test]
    fn thermal_voltage_at_room_temperature() {
        let env = Environment::new(TechNode::N70, 0.9, 300.0).unwrap();
        let vt = env.thermal_voltage();
        assert!(
            (vt - 0.02585).abs() < 1e-4,
            "kT/q at 300 K should be ~25.85 mV, got {vt}"
        );
    }

    #[test]
    fn leakage_increases_with_temperature() {
        let cold = Environment::new(TechNode::N70, 0.9, 300.0).unwrap();
        let hot = Environment::new(TechNode::N70, 0.9, 383.15).unwrap();
        assert!(hot.unit_leakage_n() > 2.0 * cold.unit_leakage_n());
        assert!(hot.unit_leakage_p() > 2.0 * cold.unit_leakage_p());
    }

    #[test]
    fn leakage_decreases_with_vdd_via_dibl() {
        let full = Environment::new(TechNode::N70, 1.0, 300.0).unwrap();
        let drowsy = Environment::new(TechNode::N70, 0.3, 300.0).unwrap();
        let ratio = drowsy.unit_leakage_n() / full.unit_leakage_n();
        assert!(
            ratio < 0.25,
            "DIBL should cut subthreshold leakage sharply at retention voltage; ratio={ratio}"
        );
    }

    #[test]
    fn variation_factor_scales_leakage() {
        let env = Environment::nominal(TechNode::N70);
        let varied = env.with_variation_factor(1.3);
        let r = varied.unit_leakage_n() / env.unit_leakage_n();
        assert!((r - 1.3).abs() < 1e-12);
    }

    #[test]
    fn environments_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Environment>();
    }
}
