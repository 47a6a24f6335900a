//! # leakctl
//!
//! The cache leakage-control techniques of the study, expressed as physics
//! on top of [`hotleakage`] plus mechanism parameters for [`cachesim`]:
//!
//! * **Gated-V_ss** (Powell et al.; Kaxiras et al. cache decay) — a
//!   high-V_t footer disconnects a line from ground. Standby leakage drops
//!   to the footer's off-current (the technique "almost entirely eliminates
//!   leakage"), but the data is lost: reactivation costs an L2 fetch, and a
//!   dirty line must be written back before deactivation.
//! * **Drowsy** (Flautner et al.) — the line's supply switches to a
//!   retention voltage of about 1.5 V_t. DIBL and the collapsed gate
//!   tunnelling cut leakage dramatically (but not to zero) and the data
//!   survives: reactivation is a 1–2 cycle *slow hit* (≥ 3 cycles when the
//!   tags are drowsy too).
//! * **RBB / ABB-MTCMOS** (Nii et al.) — reverse body bias raises V_t in
//!   standby. Implemented for completeness; at 70 nm GIDL erodes its
//!   savings (paper §2/§3.2), which [`hotleakage::gate_leakage::rbb_effective_reduction`]
//!   models — this is the quantitative form of the paper's reason for not
//!   studying it.
//!
//! [`adaptive`] implements two of the three adaptive decay-interval
//! schemes the paper cites (§5.4): Zhou-style adaptive mode control and
//! the Velusamy et al. formal feedback controller. The third, per-benchmark
//! oracle selection, is `simcore`'s best-interval sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod economics;
pub mod technique;

pub use adaptive::{AdaptiveModeControl, FeedbackController, IntervalObservation};
pub use economics::{round_trip, RoundTrip};
pub use technique::{Technique, TechniqueKind, TechniquePhysics, COUNTER_CELLS_PER_LINE};
