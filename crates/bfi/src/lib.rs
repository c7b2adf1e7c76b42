//! The IEEE 802.11ac/ax compressed beamforming-feedback pipeline (§III-B
//! of the DeepCSI paper).
//!
//! During VHT channel sounding the beamformee estimates the per-subcarrier
//! CFR `H_k`, extracts the beamforming matrix `V_k` (the leading right
//! singular vectors of `H_kᵀ`, Eq. (3)), converts it to Givens angles
//! (Algorithm 1), quantizes them (Eq. (8)) and sends them in clear text.
//! The observer — DeepCSI — reverses the last two steps to obtain `Ṽ_k`
//! (Eq. (7)).
//!
//! The crate exposes each stage separately so tests and benchmarks can
//! exercise them in isolation:
//!
//! * [`beamforming_matrix`] — `H_k` → `V_k` (Eq. (3)).
//! * [`decompose`] — `V_k` → ([`GivensAngles`], `D̃`) (Algorithm 1).
//! * [`quantize`] / [`dequantize`] — Eq. (8) (in [`quant`]).
//! * [`v_from_angles`] — angles → `Ṽ_k` (Eq. (7)): the generic,
//!   heap-allocating reference. The beamformee side and the generator use
//!   it, and it is the oracle the tests hold [`v_tilde`] to.
//! * [`v_tilde`] — quantized angles → `Ṽ_k` (Eq. (7)): the observer's
//!   evaluator. It is bit-identical to
//!   `v_from_angles(&dequantize(q, cb), m, n_ss)`, but applies each
//!   Givens rotation in place to the two columns it touches instead of
//!   multiplying dense matrices. It runs on the stack with table-driven
//!   cos/sin, so serving makes no heap allocation and no transcendental
//!   call per subcarrier.
//! * [`BeamformingFeedback`] — the full per-sounding feedback across all
//!   sounded subcarriers, as captured by a monitor, with the angles stored
//!   flat (one `Vec` for φ and one for ψ).
//!
//! # Example: the full beamformee→observer loop for one subcarrier
//!
//! ```
//! use deepcsi_linalg::{C64, CMatrix};
//! use deepcsi_phy::Codebook;
//! use deepcsi_bfi::{beamforming_matrix, decompose, quantize, dequantize, v_from_angles};
//!
//! // A 3×2 channel (M = 3 TX antennas, N = 2 RX antennas).
//! let h = CMatrix::from_rows(&[
//!     vec![C64::new(0.8, 0.1), C64::new(-0.2, 0.5)],
//!     vec![C64::new(0.1, -0.9), C64::new(0.4, 0.3)],
//!     vec![C64::new(-0.5, 0.2), C64::new(0.6, -0.1)],
//! ]);
//! let v = beamforming_matrix(&h, 2);          // beamformee: V_k
//! let dec = decompose(&v);                    // beamformee: angles
//! let q = quantize(&dec.angles, Codebook::MU_HIGH);
//! let angles = dequantize(&q, Codebook::MU_HIGH);
//! let v_tilde = v_from_angles(&angles, 3, 2); // observer: Ṽ_k
//! assert!(v_tilde.is_unitary(1e-9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Largest number of beamformer antennas M the standard allows.
const MAX_M: usize = 8;

mod feedback;
mod givens;
pub mod quant;
mod vmatrix;
mod vtilde;

pub use feedback::{BeamformingFeedback, VSeries};
pub use givens::{decompose, v_from_angles, GivensAngles, GivensDecomposition};
pub use quant::{dequantize, quantize, QuantizedAngles};
pub use vmatrix::beamforming_matrix;
pub use vtilde::{v_tilde, VTilde};
