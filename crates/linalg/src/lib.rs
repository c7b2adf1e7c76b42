//! Complex linear-algebra substrate for the DeepCSI reproduction.
//!
//! The beamforming-feedback pipeline of IEEE 802.11ac/ax works on small,
//! dense, complex-valued matrices: the per-subcarrier channel frequency
//! response `H_k` (M×N), its singular value decomposition, and the Givens
//! factors of the beamforming matrix `V_k`. This crate provides exactly the
//! primitives that pipeline needs, with no external dependencies:
//!
//! * [`C64`] — a `f64` complex number with the full arithmetic surface.
//! * [`CMatrix`] — a dense row-major complex matrix.
//! * [`herm_eig`] — Hermitian eigendecomposition via the complex Jacobi
//!   method (exact to machine precision for the small matrices used here),
//!   up to 8×8. Its body [`herm_eig_array`] runs on stack arrays, as does
//!   [`right_singular_vectors_array`], the per-tone path of the
//!   beamformee's feedback.
//! * [`svd`] — full complex singular value decomposition built on
//!   [`herm_eig`], returning `A = U Σ V†` with singular values sorted in
//!   descending order.
//!
//! # Example
//!
//! ```
//! use deepcsi_linalg::{C64, CMatrix, svd};
//!
//! let a = CMatrix::from_rows(&[
//!     vec![C64::new(1.0, 0.5), C64::new(0.0, -1.0)],
//!     vec![C64::new(2.0, 0.0), C64::new(1.0, 1.0)],
//!     vec![C64::new(0.5, 0.5), C64::new(0.0, 0.0)],
//! ]);
//! let d = svd(&a);
//! let again = d.reconstruct();
//! assert!(a.sub(&again).fro_norm() < 1e-10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod eig;
mod matrix;
mod svd;

pub use complex::C64;
pub use eig::{herm_eig, herm_eig_array, HermEig};
pub use matrix::CMatrix;
pub use svd::{right_singular_vectors, right_singular_vectors_array, svd, Svd};
