//! Synthetic D1/D2 dataset generation and the paper's train/test splits.
//!
//! The paper evaluates on two captured datasets (§IV-A):
//!
//! * **D1 (static)** — 10 Compex modules × 9 beamformee position pairs ×
//!   2 beamformees, AP fixed at position A. 90 traces per beamformee.
//! * **D2 (mobility)** — 10 modules × (4 static + 7 mobility) traces, AP
//!   manually carried along A-B-C-D-B-A with a person nearby. Beamformee 1
//!   runs N = N_SS = 1, beamformee 2 runs N = N_SS = 2.
//!
//! This crate regenerates both datasets synthetically end-to-end through
//! the real pipeline: ray-traced CFR → hardware impairments → SVD →
//! Givens angles → quantization → (optionally) a VHT frame encode/parse
//! round-trip through `deepcsi-frame` — exactly what a monitor captures.
//!
//! It also implements the **S1–S6 split definitions of Tables I and II**
//! ([`D1Set`], [`D2Set`]) and the DNN input assembly of §III-C
//! ([`InputSpec`]: I/Q stacking into `Nch × Nrow × Ncol` tensors with
//! stream/antenna/sub-band selection).
//!
//! # Example
//!
//! ```no_run
//! use deepcsi_data::{generate_d1, GenConfig, d1_split, D1Set, InputSpec};
//!
//! let mut cfg = GenConfig::default();
//! cfg.snapshots_per_trace = 20; // tiny demo dataset
//! let ds = generate_d1(&cfg);
//! let split = d1_split(&ds, D1Set::S1, &[1], &InputSpec::default());
//! assert_eq!(split.train.x.len(), split.train.y.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod d1;
mod d2;
mod generator;
mod input;
mod splits;
mod trace;

pub use d1::generate_d1;
pub use d2::generate_d2;
pub use generator::{generate_trace, GenConfig, TraceSpec};
pub use input::{clean_phase_offsets, InputSpec, LabeledSamples};
pub use splits::{
    d1_cross_beamformee, d1_split, d1_split_positions, d2_split, D1Set, D2Set, Split,
};
pub use trace::{Dataset, Trace, TraceKind};
