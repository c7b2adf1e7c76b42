//! Algorithm 1: Givens-rotation decomposition of `V_k` and its inverse
//! (Eq. (7)).
//!
//! Algorithm 1 has one implementation, [`decompose_array`]: stack arrays,
//! const-generic over the antenna count M ≤ 8 (the standard's maximum).
//! [`BeamformingFeedback::from_cfr`](crate::BeamformingFeedback::from_cfr)
//! calls it for every tone, and [`decompose`] is its copy-in/copy-out
//! wrapper for a [`CMatrix`].
//!
//! Its bits are those of the dense heap code it replaced, which kept every
//! matrix in a `CMatrix` and multiplied with [`CMatrix::matmul`]. The body
//! repeats those floating-point operations in the same order and does not
//! exploit the structure of the factors: `D̃†`, `D_i†` and `G` are built
//! as dense M×M matrices, with the `(0, −0)` that `hermitian()` makes of a
//! zero, and every product is the same zero-skipping (r, k, c) loop
//! starting from `C64::ZERO`. A product by a structured rotation would
//! drop or re-sign zero terms and, on NaN, ±0 or overflowing inputs,
//! change bits. `tests/dense_reference.rs` keeps the heap code and holds
//! the two equal by `to_bits` (a NaN matches any NaN, because Rust leaves
//! the sign and payload of a NaN result unspecified).

use crate::MAX_M;
use deepcsi_linalg::{CMatrix, C64};

/// The (φ, ψ) angles of one subcarrier's compressed feedback.
///
/// Angles are stored in the order Algorithm 1 (and the standard's angle
/// table) produces them: for each column `i = 1..=min(N_SS, M−1)` the φ
/// block `φ_{i,i} … φ_{M−1,i}` and the ψ block `ψ_{i+1,i} … ψ_{M,i}`.
/// For the paper's M=3, N_SS=2 feedback: `phi = [φ11, φ21, φ22]`,
/// `psi = [ψ21, ψ31, ψ32]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GivensAngles {
    /// Number of beamformer antennas M (rows of Ṽ).
    pub m: usize,
    /// Number of spatial streams N_SS (columns of Ṽ).
    pub n_ss: usize,
    /// φ angles in `[0, 2π)`, i-major order.
    pub phi: Vec<f64>,
    /// ψ angles in `[0, π/2]`, i-major order.
    pub psi: Vec<f64>,
}

impl GivensAngles {
    /// Number of φ (equivalently ψ) angles implied by the dimensions.
    pub fn expected_count(m: usize, n_ss: usize) -> usize {
        let imax = n_ss.min(m.saturating_sub(1));
        (1..=imax).map(|i| m - i).sum()
    }

    /// Validates the angle-vector lengths against `m`/`n_ss`.
    pub fn is_consistent(&self) -> bool {
        let want = Self::expected_count(self.m, self.n_ss);
        self.phi.len() == want && self.psi.len() == want
    }
}

/// Output of Algorithm 1: the angles plus the `D̃_k` diagonal that was
/// factored out (Eq. (6): `V_k = Ṽ_k D̃_k`).
#[derive(Debug, Clone)]
pub struct GivensDecomposition {
    /// The feedback angles.
    pub angles: GivensAngles,
    /// Diagonal of `D̃_k` (unit-modulus phases of the last row of `V_k`).
    pub d_tilde: Vec<C64>,
}

/// Builds the `D_{k,i}` matrix of Eq. (4) from the φ block of column `i`
/// (1-based): `diag(I_{i−1}, e^{jφ_{i,i}}, …, e^{jφ_{M−1,i}}, 1)`.
fn d_matrix(m: usize, i: usize, phis: &[f64]) -> CMatrix {
    let mut d = CMatrix::identity(m);
    for (off, &phi) in phis.iter().enumerate() {
        let row = i - 1 + off; // 0-based diagonal position of φ_{i+off, i}
        d[(row, row)] = C64::cis(phi);
    }
    d
}

/// Builds the `G_{k,ℓ,i}` rotation of Eq. (5) (1-based `ℓ`, `i`): identity
/// except `[i,i] = cos ψ`, `[i,ℓ] = sin ψ`, `[ℓ,i] = −sin ψ`,
/// `[ℓ,ℓ] = cos ψ`.
fn g_matrix(m: usize, l: usize, i: usize, psi: f64) -> CMatrix {
    let mut g = CMatrix::identity(m);
    let (c, s) = (psi.cos(), psi.sin());
    g[(i - 1, i - 1)] = C64::real(c);
    g[(i - 1, l - 1)] = C64::real(s);
    g[(l - 1, i - 1)] = C64::real(-s);
    g[(l - 1, l - 1)] = C64::real(c);
    g
}

/// Wraps an angle into `[0, 2π)`.
fn wrap_2pi(a: f64) -> f64 {
    let t = a.rem_euclid(2.0 * std::f64::consts::PI);
    if t >= 2.0 * std::f64::consts::PI {
        0.0
    } else {
        t
    }
}

/// Algorithm 1 of the paper: decomposes the beamforming matrix `V_k`
/// (M×N_SS, orthonormal columns) into Givens angles and the residual
/// diagonal `D̃_k`.
///
/// The decomposition is exact: [`v_from_angles`] applied to the returned
/// (unquantized) angles rebuilds `Ṽ_k` with `V_k = Ṽ_k D̃_k` to machine
/// precision, and the last row of `Ṽ_k` is real and non-negative by
/// construction. The work runs in the stack-array body the beamformee's
/// per-tone feedback uses; this copies `v` in and the result out.
///
/// # Panics
///
/// Panics if `v` has more columns than rows, or unless it has 1 to 8
/// rows.
pub fn decompose(v: &CMatrix) -> GivensDecomposition {
    let (m, n_ss) = v.shape();
    assert!(n_ss <= m, "V must be tall: {m}x{n_ss}");
    assert!(
        (1..=MAX_M).contains(&m),
        "decompose needs 1 ≤ M ≤ {MAX_M} rows, got {m}"
    );
    match m {
        1 => copied::<1>(v),
        2 => copied::<2>(v),
        3 => copied::<3>(v),
        4 => copied::<4>(v),
        5 => copied::<5>(v),
        6 => copied::<6>(v),
        7 => copied::<7>(v),
        8 => copied::<8>(v),
        _ => unreachable!("M was checked above"),
    }
}

/// [`decompose`] for a fixed `M`.
fn copied<const M: usize>(v: &CMatrix) -> GivensDecomposition {
    let n_ss = v.cols();
    let a: [[C64; M]; M] = std::array::from_fn(|r| {
        std::array::from_fn(|c| if c < n_ss { v[(r, c)] } else { C64::ZERO })
    });
    let dec = decompose_array(&a, n_ss);
    GivensDecomposition {
        angles: GivensAngles {
            m: M,
            n_ss,
            phi: dec.phi().to_vec(),
            psi: dec.psi().to_vec(),
        },
        d_tilde: dec.d_tilde[..n_ss].to_vec(),
    }
}

/// Most (φ, ψ) angles one subcarrier carries: M = 8 with N_SS ≥ 7.
const MAX_ANGLES: usize = 28;

/// Algorithm 1's output for one subcarrier, held on the stack.
pub(crate) struct Decomposed<const M: usize> {
    phi: [f64; MAX_ANGLES],
    psi: [f64; MAX_ANGLES],
    count: usize,
    /// Diagonal of `D̃_k`; entries from N_SS on are unused.
    pub(crate) d_tilde: [C64; M],
}

impl<const M: usize> Decomposed<M> {
    /// The φ angles, in [`GivensAngles`] order.
    pub(crate) fn phi(&self) -> &[f64] {
        &self.phi[..self.count]
    }

    /// The ψ angles, in [`GivensAngles`] order.
    pub(crate) fn psi(&self) -> &[f64] {
        &self.psi[..self.count]
    }
}

/// `a · b` as [`CMatrix::matmul`] computes it, for an `a` with `inner`
/// columns and a `b` with `cols` columns: each output entry starts at
/// zero and adds `a[r][k]·b[k][c]` for k in order, skipping every k whose
/// `a[r][k]` is zero (of either sign). Entries from column `cols` on stay
/// zero.
fn matmul<const M: usize>(
    a: &[[C64; M]; M],
    b: &[[C64; M]; M],
    inner: usize,
    cols: usize,
) -> [[C64; M]; M] {
    let mut out = [[C64::ZERO; M]; M];
    for (out_r, a_r) in out.iter_mut().zip(a) {
        for (&x, b_k) in a_r[..inner].iter().zip(b) {
            if x == C64::ZERO {
                continue;
            }
            for (o, &y) in out_r[..cols].iter_mut().zip(b_k) {
                *o += x * y;
            }
        }
    }
    out
}

/// The conjugate transpose of a square matrix, as [`CMatrix::hermitian`]
/// computes it: a zero becomes `(0, −0)`.
fn hermitian<const M: usize>(a: &[[C64; M]; M]) -> [[C64; M]; M] {
    std::array::from_fn(|r| std::array::from_fn(|c| a[c][r].conj()))
}

/// The M×M identity.
fn identity<const M: usize>() -> [[C64; M]; M] {
    std::array::from_fn(|r| std::array::from_fn(|c| if r == c { C64::ONE } else { C64::ZERO }))
}

/// Algorithm 1 on the first `n_ss` columns of `v`: the body behind
/// [`decompose`] and the beamformee's per-tone feedback.
///
/// It is bit-identical to the dense heap algorithm it replaced (see the
/// module docs): `D̃†`, each `D_i†` and each `G` are built as dense
/// matrices, zeros included, and applied by [`matmul`].
pub(crate) fn decompose_array<const M: usize>(v: &[[C64; M]; M], n_ss: usize) -> Decomposed<M> {
    let mut out = Decomposed {
        phi: [0.0; MAX_ANGLES],
        psi: [0.0; MAX_ANGLES],
        count: 0,
        d_tilde: [C64::ZERO; M],
    };

    // D̃ = diag(e^{j∠[V]_{M,c}}); factoring it out makes the last row of
    // Ω real non-negative.
    for (d, &z) in out.d_tilde[..n_ss].iter_mut().zip(&v[M - 1]) {
        *d = C64::cis(z.arg());
    }
    let mut d_tilde_diag = [[C64::ZERO; M]; M];
    for (r, row) in d_tilde_diag.iter_mut().enumerate().take(n_ss) {
        row[r] = out.d_tilde[r];
    }
    let mut omega = matmul(v, &hermitian(&d_tilde_diag), n_ss, n_ss);

    let imax = n_ss.min(M - 1);
    let mut n_phi = 0;
    let mut n_psi = 0;
    for i in 1..=imax {
        let p = i - 1;
        // φ block: phases of column i, rows i..M−1 (1-based), gathered
        // into D_{k,i} (Eq. (4)).
        let mut d_i = identity::<M>();
        for row in p..M - 1 {
            let phi = wrap_2pi(omega[row][p].arg());
            d_i[row][row] = C64::cis(phi);
            out.phi[n_phi] = phi;
            n_phi += 1;
        }
        omega = matmul(&hermitian(&d_i), &omega, M, n_ss);

        // ψ block: plane rotations G_{k,ℓ,i} (Eq. (5)) zeroing rows
        // i+1..M of column i.
        for t in i..M {
            let a = omega[p][p].re; // real after D† rotation
            let b = omega[t][p].re; // real after D† rotation
            let denom = (a * a + b * b).sqrt();
            let psi = if denom < 1e-300 {
                0.0
            } else {
                (a / denom).clamp(-1.0, 1.0).acos()
            };
            let (c, s) = (psi.cos(), psi.sin());
            let mut g = identity::<M>();
            g[p][p] = C64::real(c);
            g[p][t] = C64::real(s);
            g[t][p] = C64::real(-s);
            g[t][t] = C64::real(c);
            omega = matmul(&g, &omega, M, n_ss);
            out.psi[n_psi] = psi;
            n_psi += 1;
        }
    }
    out.count = n_phi;
    out
}

/// Eq. (7): rebuilds `Ṽ_k` from the feedback angles:
///
/// ```text
/// Ṽ_k = Π_{i=1}^{min(N_SS, M−1)} ( D_{k,i} Π_{ℓ=i+1}^{M} G_{k,ℓ,i}ᵀ ) I_{M×N_SS}
/// ```
///
/// This is the computation the DeepCSI observer performs on sniffed
/// (dequantized) angles. It is the generic reference: the observer's
/// serving path runs [`v_tilde`](crate::v_tilde), which computes the same
/// bits with in-place rotations on the stack and is tested bit-for-bit
/// against it.
///
/// # Panics
///
/// Panics if the angle-vector lengths do not match `m`/`n_ss`.
pub fn v_from_angles(angles: &GivensAngles, m: usize, n_ss: usize) -> CMatrix {
    let want = GivensAngles::expected_count(m, n_ss);
    assert_eq!(angles.phi.len(), want, "φ count mismatch");
    assert_eq!(angles.psi.len(), want, "ψ count mismatch");

    let imax = n_ss.min(m - 1);
    let mut acc = CMatrix::identity(m);
    let mut phi_pos = 0usize;
    let mut psi_pos = 0usize;
    for i in 1..=imax {
        let nphi = m - i;
        let phis = &angles.phi[phi_pos..phi_pos + nphi];
        phi_pos += nphi;
        let mut prod = d_matrix(m, i, phis);
        for l in (i + 1)..=m {
            let g_t = g_matrix(m, l, i, angles.psi[psi_pos]).transpose();
            psi_pos += 1;
            prod = prod.matmul(&g_t);
        }
        acc = acc.matmul(&prod);
    }
    acc.matmul(&CMatrix::eye_rect(m, n_ss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beamforming_matrix;

    fn sample_v() -> CMatrix {
        let h = CMatrix::from_rows(&[
            vec![C64::new(0.8, 0.1), C64::new(-0.2, 0.5)],
            vec![C64::new(0.1, -0.9), C64::new(0.4, 0.3)],
            vec![C64::new(-0.5, 0.2), C64::new(0.6, -0.1)],
        ]);
        beamforming_matrix(&h, 2)
    }

    #[test]
    fn angle_counts_for_3x2() {
        assert_eq!(GivensAngles::expected_count(3, 2), 3);
        assert_eq!(GivensAngles::expected_count(3, 1), 2);
        assert_eq!(GivensAngles::expected_count(4, 2), 5);
        assert_eq!(GivensAngles::expected_count(2, 1), 1);
    }

    #[test]
    fn decompose_produces_valid_ranges() {
        let dec = decompose(&sample_v());
        assert!(dec.angles.is_consistent());
        for &p in &dec.angles.phi {
            assert!((0.0..2.0 * std::f64::consts::PI).contains(&p), "φ={p}");
        }
        for &p in &dec.angles.psi {
            assert!(
                (0.0..=std::f64::consts::FRAC_PI_2 + 1e-12).contains(&p),
                "ψ={p}"
            );
        }
    }

    #[test]
    fn roundtrip_reconstructs_v() {
        // Eq. (6): V = Ṽ D̃ must hold exactly for unquantized angles.
        let v = sample_v();
        let dec = decompose(&v);
        let v_tilde = v_from_angles(&dec.angles, 3, 2);
        let d = CMatrix::diag(&dec.d_tilde);
        let rebuilt = v_tilde.matmul(&d);
        assert!(
            v.max_abs_diff(&rebuilt) < 1e-10,
            "‖V − ṼD̃‖∞ = {}",
            v.max_abs_diff(&rebuilt)
        );
    }

    #[test]
    fn last_row_real_non_negative() {
        let dec = decompose(&sample_v());
        let v_tilde = v_from_angles(&dec.angles, 3, 2);
        for c in 0..2 {
            let z = v_tilde[(2, c)];
            assert!(z.im.abs() < 1e-10, "imag part {}", z.im);
            assert!(z.re > -1e-10, "real part {}", z.re);
        }
    }

    #[test]
    fn v_tilde_columns_orthonormal() {
        let dec = decompose(&sample_v());
        let v_tilde = v_from_angles(&dec.angles, 3, 2);
        assert!(v_tilde.is_unitary(1e-10));
    }

    #[test]
    fn single_stream_decomposition() {
        let h = CMatrix::from_rows(&[
            vec![C64::new(1.0, 0.3)],
            vec![C64::new(-0.4, 0.6)],
            vec![C64::new(0.2, -0.7)],
        ]);
        // Normalise to a unit column.
        let v = h.scale(C64::real(1.0 / h.fro_norm()));
        let dec = decompose(&v);
        assert_eq!(dec.angles.phi.len(), 2);
        assert_eq!(dec.angles.psi.len(), 2);
        let vt = v_from_angles(&dec.angles, 3, 1);
        let rebuilt = vt.matmul(&CMatrix::diag(&dec.d_tilde));
        assert!(v.max_abs_diff(&rebuilt) < 1e-10);
    }

    #[test]
    fn identity_input_gives_zero_psi() {
        // V = I_{3×2} is already in canonical form: all ψ = 0, φ = 0.
        let v = CMatrix::eye_rect(3, 2);
        let dec = decompose(&v);
        for &p in &dec.angles.psi {
            assert!(p.abs() < 1e-12);
        }
        for &p in &dec.angles.phi {
            assert!(p.abs() < 1e-12 || (p - 2.0 * std::f64::consts::PI).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_zero_column_is_handled() {
        // A zero column has undefined phases; the decomposition must not
        // produce NaN.
        let mut v = CMatrix::eye_rect(3, 2);
        v[(0, 1)] = C64::ZERO;
        v[(1, 1)] = C64::ZERO;
        v[(2, 1)] = C64::ZERO;
        let dec = decompose(&v);
        assert!(dec.angles.phi.iter().all(|p| p.is_finite()));
        assert!(dec.angles.psi.iter().all(|p| p.is_finite()));
        let vt = v_from_angles(&dec.angles, 3, 2);
        assert!(vt.is_finite());
    }

    #[test]
    #[should_panic(expected = "φ count mismatch")]
    fn mismatched_angle_lengths_panic() {
        let a = GivensAngles {
            m: 3,
            n_ss: 2,
            phi: vec![0.0],
            psi: vec![0.0, 0.0, 0.0],
        };
        let _ = v_from_angles(&a, 3, 2);
    }
}
