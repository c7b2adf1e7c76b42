//! The observer's Eq. (7) evaluator on quantized angles, without the heap.
//!
//! [`v_tilde`] returns exactly the bits of
//! `v_from_angles(&dequantize(q, cb), m, n_ss)`, but does not repeat its
//! operations. The generic path multiplies dense M×M matrices. Here each
//! factor `D_{k,i} Π_ℓ G_{k,ℓ,i}ᵀ` starts as `D_{k,i}`, and every `Gᵀ`
//! rotates only its two columns, with real cos/sin. `acc · factor` computes
//! only the columns the factor changes, and the last step only those that
//! `· I_{M×N_SS}` keeps. The first step's `I · factor` and the final
//! `· I_{M×N_SS}` become copies.
//!
//! Why the bits still match: every generic entry is `+0.0 + Σ_k a_k·b_k`,
//! summed in k-order. All inputs are finite: table and inline cos/sin
//! values, for any index in or out of range. Say two values are
//! *alike* when they are equal or both zero, of either sign.
//!
//! * `+`, `−` and `·` map alike operands to alike results.
//! * The terms the generic path skips, or multiplies by an exact 0 of an
//!   identity or rotation matrix, are zeros. Adding a zero to a sum gives
//!   a value alike to the sum.
//! * `x · C64::real(c)` and `x.scale(c)` are alike, and so are
//!   `x · C64::real(−s) + y · C64::real(c)` and
//!   `y.scale(c) − x.scale(s)`.
//!
//! So every value here is alike to its generic twin. A sum that starts at
//! `+0.0` is never −0, so the generic outputs hold no −0. The final
//! `+0.0 + x` maps a −0 to +0 here too, and alike values without −0 are
//! bit-identical. That guard is needed: an out-of-range ψ index with
//! cos ψ < 0 and sin ψ < 0 makes the rotations produce a −0 where the
//! generic path has +0 (`tests/vtilde_oracle.rs` fails without it). In
//! range, cos ψ and sin ψ are positive and no −0 arises.
//!
//! The cos/sin values come from a table per standard codebook, built once
//! and indexed by the quantized angle. The table holds exactly
//! `C64::cis(dequantize_phi(q))` and `dequantize_psi(q).{cos, sin}()`.
//! Custom codebooks and out-of-range indices (which only hand-built
//! feedback can carry) evaluate the same expressions inline.

use crate::quant::{dequantize_phi, dequantize_psi};
use crate::{GivensAngles, MAX_M};
use deepcsi_linalg::{CMatrix, C64};
use deepcsi_phy::Codebook;
use std::ops::Index;
use std::slice::Iter;
use std::sync::OnceLock;

/// `Ṽ_k` of one subcarrier: an M×N_SS matrix held inline (no heap), as
/// returned by [`v_tilde`]. Index it with `(row, col)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VTilde {
    m: usize,
    n_ss: usize,
    v: [[C64; MAX_M]; MAX_M],
}

impl VTilde {
    /// Number of rows M (beamformer antennas).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of columns N_SS (spatial streams).
    pub fn n_ss(&self) -> usize {
        self.n_ss
    }

    /// Copies the matrix into a heap [`CMatrix`] of shape M×N_SS.
    pub fn to_cmatrix(&self) -> CMatrix {
        CMatrix::from_fn(self.m, self.n_ss, |r, c| self.v[r][c])
    }
}

impl Index<(usize, usize)> for VTilde {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        debug_assert!(r < self.m && c < self.n_ss, "index out of bounds");
        &self.v[r][c]
    }
}

/// cos/sin of every level of one codebook.
struct Trig {
    /// `C64::cis(dequantize_phi(q))` for every φ index `q`.
    phi: Vec<C64>,
    /// `(cos ψ, sin ψ)` with `ψ = dequantize_psi(q)` for every ψ index `q`.
    psi: Vec<(f64, f64)>,
}

impl Trig {
    fn new(cb: Codebook) -> Self {
        Trig {
            phi: (0..cb.phi_levels())
                .map(|q| C64::cis(dequantize_phi(q as u16, cb)))
                .collect(),
            psi: (0..cb.psi_levels())
                .map(|q| {
                    let psi = dequantize_psi(q as u16, cb);
                    (psi.cos(), psi.sin())
                })
                .collect(),
        }
    }

    /// The table of a standard codebook, `None` for a custom one.
    fn standard(cb: Codebook) -> Option<&'static Trig> {
        const STANDARD: [Codebook; 4] = [
            Codebook::SU_LOW,
            Codebook::SU_HIGH,
            Codebook::MU_LOW,
            Codebook::MU_HIGH,
        ];
        static TABLES: OnceLock<[Trig; 4]> = OnceLock::new();
        let i = STANDARD.iter().position(|&s| s == cb)?;
        Some(&TABLES.get_or_init(|| STANDARD.map(Trig::new))[i])
    }
}

/// Where [`eval`] reads its cos/sin values from.
#[derive(Clone, Copy)]
struct Angles<'a> {
    cb: Codebook,
    trig: Option<&'a Trig>,
}

impl Angles<'_> {
    #[inline]
    fn cis_phi(self, q: u16) -> C64 {
        match self.trig.and_then(|t| t.phi.get(q as usize)) {
            Some(&z) => z,
            None => C64::cis(dequantize_phi(q, self.cb)),
        }
    }

    #[inline]
    fn cos_sin_psi(self, q: u16) -> (f64, f64) {
        match self.trig.and_then(|t| t.psi.get(q as usize)) {
            Some(&cs) => cs,
            None => {
                let psi = dequantize_psi(q, self.cb);
                (psi.cos(), psi.sin())
            }
        }
    }
}

/// `D_{k,i} Π_{ℓ=i+1}^{M} G_{k,ℓ,i}ᵀ` (Eqs. (4)–(5)), built as `D_{k,i}`
/// rotated in place. Rows and columns left of i−1 (0-based) belong to the
/// identity. They are left zero, because [`eval`] never reads them.
#[inline]
fn factor<const M: usize>(
    i: usize,
    phi: &mut Iter<'_, u16>,
    psi: &mut Iter<'_, u16>,
    angles: Angles<'_>,
) -> [[C64; M]; M] {
    let p = i - 1;
    // D_{k,i}: e^{jφ_{ℓ,i}} on rows i..M−1 (1-based), 1 on row M.
    let mut prod = [[C64::ZERO; M]; M];
    for (r, &q) in (p..M - 1).zip(phi) {
        prod[r][r] = angles.cis_phi(q);
    }
    prod[M - 1][M - 1] = C64::ONE;
    // `· G_{k,ℓ,i}ᵀ` mixes columns i−1 and ℓ−1 (0-based). Both are still
    // zero below row ℓ−1, so only rows i−1..=ℓ−1 change.
    for (t, &q) in (i..M).zip(psi) {
        let (c, s) = angles.cos_sin_psi(q);
        for row in &mut prod[p..=t] {
            let (x, y) = (row[p], row[t]);
            row[p] = x.scale(c) + y.scale(s);
            row[t] = y.scale(c) - x.scale(s);
        }
    }
    prod
}

/// Eq. (7) for a fixed `M ≥ 2`, written into the first `n_ss` columns of
/// `out`.
fn eval<const M: usize>(
    out: &mut [[C64; MAX_M]; MAX_M],
    q_phi: &[u16],
    q_psi: &[u16],
    n_ss: usize,
    angles: Angles<'_>,
) {
    let imax = n_ss.min(M - 1);
    let mut phi = q_phi.iter();
    let mut psi = q_psi.iter();
    // `I · prod` of the first step is `prod`.
    let mut acc = factor::<M>(1, &mut phi, &mut psi, angles);
    for i in 2..=imax {
        let p = i - 1;
        let prod = factor::<M>(i, &mut phi, &mut psi, angles);
        // `acc · prod`: columns left of i−1 of `prod` are the identity's,
        // so those of `acc` carry over. The last step only needs the
        // columns that `· I_{M×N_SS}` keeps.
        let cols = if i == imax { n_ss } else { M };
        for row in &mut acc {
            let a = *row;
            for (col, o) in row.iter_mut().enumerate().take(cols).skip(p) {
                let mut sum = C64::ZERO;
                for (x, prod_row) in a[p..].iter().zip(&prod[p..]) {
                    sum += *x * prod_row[col];
                }
                *o = sum;
            }
        }
    }
    // `· I_{M×N_SS}`, with `+0.0 +` mapping a −0 part to +0 (module doc).
    for (dst, src) in out.iter_mut().zip(&acc) {
        for (d, &x) in dst[..n_ss].iter_mut().zip(src) {
            *d = C64::ZERO + x;
        }
    }
}

/// Eq. (7) on one subcarrier's quantized angles: the observer's `Ṽ_k`,
/// bit-identical to `v_from_angles(&dequantize(q, cb), m, n_ss)` and
/// computed without touching the heap.
///
/// `q_phi`/`q_psi` are in [`QuantizedAngles`](crate::QuantizedAngles)
/// order (as [`BeamformingFeedback::angles_at`](crate::BeamformingFeedback::angles_at)
/// returns them).
///
/// # Panics
///
/// Panics unless `1 ≤ n_ss ≤ m ≤ 8`, or if the angle counts do not
/// match `m`/`n_ss`.
///
/// # Example
///
/// ```
/// use deepcsi_bfi::{dequantize, v_from_angles, v_tilde, QuantizedAngles};
/// use deepcsi_phy::Codebook;
///
/// let cb = Codebook::MU_HIGH;
/// let q = QuantizedAngles { m: 3, n_ss: 2, q_phi: vec![1, 200, 511], q_psi: vec![0, 64, 127] };
/// let fast = v_tilde(&q.q_phi, &q.q_psi, 3, 2, cb);
/// let oracle = v_from_angles(&dequantize(&q, cb), 3, 2);
/// assert_eq!(fast.to_cmatrix(), oracle);
/// ```
pub fn v_tilde(q_phi: &[u16], q_psi: &[u16], m: usize, n_ss: usize, cb: Codebook) -> VTilde {
    assert!(
        (1..=MAX_M).contains(&m) && (1..=m).contains(&n_ss),
        "need 1 ≤ N_SS ≤ M ≤ {MAX_M}, got M={m}, N_SS={n_ss}"
    );
    let want = GivensAngles::expected_count(m, n_ss);
    assert_eq!(q_phi.len(), want, "φ count mismatch");
    assert_eq!(q_psi.len(), want, "ψ count mismatch");
    let angles = Angles {
        cb,
        trig: Trig::standard(cb),
    };
    let mut out = VTilde {
        m,
        n_ss,
        v: [[C64::ZERO; MAX_M]; MAX_M],
    };
    let v = &mut out.v;
    match m {
        // Eq. (7) has no factors: Ṽ = I_{1×1}.
        1 => v[0][0] = C64::ONE,
        2 => eval::<2>(v, q_phi, q_psi, n_ss, angles),
        3 => eval::<3>(v, q_phi, q_psi, n_ss, angles),
        4 => eval::<4>(v, q_phi, q_psi, n_ss, angles),
        5 => eval::<5>(v, q_phi, q_psi, n_ss, angles),
        6 => eval::<6>(v, q_phi, q_psi, n_ss, angles),
        7 => eval::<7>(v, q_phi, q_psi, n_ss, angles),
        8 => eval::<8>(v, q_phi, q_psi, n_ss, angles),
        _ => unreachable!("M was checked above"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_hold_the_generic_values() {
        for cb in [
            Codebook::SU_LOW,
            Codebook::SU_HIGH,
            Codebook::MU_LOW,
            Codebook::MU_HIGH,
        ] {
            let t = Trig::standard(cb).expect("standard codebook");
            assert_eq!(t.phi.len(), cb.phi_levels() as usize);
            assert_eq!(t.psi.len(), cb.psi_levels() as usize);
            for (q, z) in t.phi.iter().enumerate() {
                assert_eq!(*z, C64::cis(dequantize_phi(q as u16, cb)));
            }
            for (q, cs) in t.psi.iter().enumerate() {
                let psi = dequantize_psi(q as u16, cb);
                assert_eq!(*cs, (psi.cos(), psi.sin()));
            }
        }
        assert!(Trig::standard(Codebook::new(12, 10)).is_none());
    }

    #[test]
    #[should_panic(expected = "need 1 ≤ N_SS ≤ M")]
    fn more_streams_than_antennas_panics() {
        let _ = v_tilde(&[], &[], 2, 3, Codebook::MU_HIGH);
    }

    #[test]
    #[should_panic(expected = "ψ count mismatch")]
    fn short_psi_panics() {
        let _ = v_tilde(&[1, 2, 3], &[1], 3, 2, Codebook::MU_HIGH);
    }
}
