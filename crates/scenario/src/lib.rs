//! Channel-resilience scenario evaluation for the DeepCSI serving
//! stack.
//!
//! Radio fingerprints ride on hardware impairments, but the observable
//! — beamforming-feedback CSI — also carries the propagation channel.
//! When the channel at serve time differs from the channel at train
//! time (another position, a re-drawn room, mobility, interference,
//! weeks of hardware drift), classifier confidence and verdict quality
//! degrade. This crate measures that degradation *end-to-end through
//! the serve engine*, and measures how much two mitigations recover:
//!
//! * **training-time channel augmentation** — re-draw the channel every
//!   epoch (the DeepCRF recipe), via
//!   [`deepcsi_core::run_experiment_with_provider`];
//! * **per-position calibration** — let the adaptive-threshold policy
//!   re-profile a stream after a confidence regime change
//!   ([`deepcsi_serve::DecisionPolicyConfig::per_position`]).
//!
//! # Vocabulary
//!
//! * [`SegmentSpec`] — one contiguous stretch of serve conditions
//!   (room draw, position, mobility, SNR, phase noise, drift day).
//! * [`Scenario`] — a named sequence of segments; multi-segment
//!   scenarios change conditions *mid-stream*.
//! * [`ScenarioMatrix`] — the declarative grid
//!   `scenarios × decision policies × mitigation arms`, with
//!   [`ScenarioMatrix::run`] doing generation, training, engine
//!   driving, and scoring.
//! * [`MatrixReport`] — per-scenario top-1 accuracies plus per-cell
//!   genuine-accept / impostor-reject / reports-to-verdict.
//!
//! # Example
//!
//! ```no_run
//! use deepcsi_scenario::ScenarioMatrix;
//!
//! let report = ScenarioMatrix::tiny().run();
//! println!(
//!     "unmitigated floor {:?}, mitigated floor {:?}",
//!     report.accuracy_floor(false),
//!     report.accuracy_floor(true),
//! );
//! assert!(report.mitigation_never_worse());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
mod scenarios;
mod segment;

pub use matrix::{
    input_spec, stream_mac, CellResult, MatrixConfig, MatrixReport, Mitigations, ScenarioAccuracy,
    ScenarioMatrix,
};
pub use scenarios::{standard_scenarios, tiny_scenarios, Scenario};
pub use segment::{samples, SegmentSpec};
