//! The observer's Eq. (7) evaluator on quantized angles, without the heap.
//!
//! [`v_tilde`] performs exactly the operation sequence of
//! `v_from_angles(&dequantize(q, cb), m, n_ss)`: the same `D_{k,i}` and
//! `G_{k,ℓ,i}ᵀ` factors, the same left-to-right products with the same
//! loop order, and the same skip of zero left-hand entries. It runs on
//! fixed `[[C64; M]; M]` arrays, so its result is bit-identical to the
//! generic path by construction.
//!
//! The cos/sin values come from a table per standard codebook, built once
//! and indexed by the quantized angle. The table holds exactly
//! `C64::cis(dequantize_phi(q))` and `dequantize_psi(q).{cos, sin}()`.
//! Custom codebooks and out-of-range indices (which only hand-built
//! feedback can carry) evaluate the same expressions inline.

use crate::quant::{dequantize_phi, dequantize_psi};
use crate::GivensAngles;
use deepcsi_linalg::{CMatrix, C64};
use deepcsi_phy::Codebook;
use std::ops::Index;
use std::sync::OnceLock;

/// Largest number of beamformer antennas M the standard allows.
const MAX_M: usize = 8;

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

fn identity<const M: usize>() -> [[C64; M]; M] {
    let mut a = [[C64::ZERO; M]; M];
    for (i, row) in a.iter_mut().enumerate() {
        row[i] = C64::ONE;
    }
    a
}

/// `CMatrix::matmul` on arrays, computing only the first `cols` columns.
#[inline]
fn matmul<const M: usize>(a: &[[C64; M]; M], b: &[[C64; M]; M], cols: usize) -> [[C64; M]; M] {
    let mut out = [[C64::ZERO; M]; M];
    for (out_row, a_row) in out.iter_mut().zip(a) {
        for (&x, b_row) in a_row.iter().zip(b) {
            if x == C64::ZERO {
                continue;
            }
            for (o, &y) in out_row[..cols].iter_mut().zip(&b_row[..cols]) {
                *o += x * y;
            }
        }
    }
    out
}

/// Eq. (7) for a fixed M, step for step as `v_from_angles` performs it.
fn eval<const M: usize>(
    q_phi: &[u16],
    q_psi: &[u16],
    n_ss: usize,
    angles: Angles<'_>,
) -> [[C64; M]; M] {
    let mut acc = identity::<M>();
    let mut phi = q_phi.iter();
    let mut psi = q_psi.iter();
    for i in 1..=n_ss.min(M - 1) {
        // D_{k,i} (Eq. (4)): e^{jφ_{ℓ,i}} on rows i..M−1 (1-based).
        let mut prod = identity::<M>();
        for (r, &q) in (i - 1..M - 1).zip(&mut phi) {
            prod[r][r] = angles.cis_phi(q);
        }
        for (l, &q) in (i + 1..=M).zip(&mut psi) {
            // G_{k,ℓ,i}ᵀ (Eq. (5), transposed).
            let (c, s) = angles.cos_sin_psi(q);
            let mut g_t = identity::<M>();
            g_t[i - 1][i - 1] = C64::real(c);
            g_t[l - 1][i - 1] = C64::real(s);
            g_t[i - 1][l - 1] = C64::real(-s);
            g_t[l - 1][l - 1] = C64::real(c);
            prod = matmul(&prod, &g_t, M);
        }
        acc = matmul(&acc, &prod, M);
    }
    // · I_{M×N_SS}
    let mut eye = [[C64::ZERO; M]; M];
    for (k, row) in eye.iter_mut().enumerate().take(n_ss) {
        row[k] = C64::ONE;
    }
    matmul(&acc, &eye, n_ss)
}

fn eval_into<const M: usize>(
    out: &mut [[C64; MAX_M]; MAX_M],
    q_phi: &[u16],
    q_psi: &[u16],
    n_ss: usize,
    angles: Angles<'_>,
) {
    let v = eval::<M>(q_phi, q_psi, n_ss, angles);
    for (dst, src) in out.iter_mut().zip(&v) {
        dst[..M].copy_from_slice(src);
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
        1 => eval_into::<1>(v, q_phi, q_psi, n_ss, angles),
        2 => eval_into::<2>(v, q_phi, q_psi, n_ss, angles),
        3 => eval_into::<3>(v, q_phi, q_psi, n_ss, angles),
        4 => eval_into::<4>(v, q_phi, q_psi, n_ss, angles),
        5 => eval_into::<5>(v, q_phi, q_psi, n_ss, angles),
        6 => eval_into::<6>(v, q_phi, q_psi, n_ss, angles),
        7 => eval_into::<7>(v, q_phi, q_psi, n_ss, angles),
        8 => eval_into::<8>(v, q_phi, q_psi, n_ss, angles),
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
