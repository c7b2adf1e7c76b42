//! Algorithm 1: Givens-rotation decomposition of `V_k` and its inverse
//! (Eq. (7)).

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
/// construction.
///
/// # Panics
///
/// Panics if `v` has more columns than rows.
pub fn decompose(v: &CMatrix) -> GivensDecomposition {
    let (m, n_ss) = v.shape();
    assert!(n_ss <= m, "V must be tall: {m}x{n_ss}");

    // D̃ = diag(e^{j∠[V]_{M,c}}); factoring it out makes the last row of
    // Ω real non-negative.
    let d_tilde: Vec<C64> = (0..n_ss).map(|c| C64::cis(v[(m - 1, c)].arg())).collect();
    let d_tilde_h = CMatrix::diag(&d_tilde).hermitian();
    let mut omega = v.matmul(&d_tilde_h);

    let imax = n_ss.min(m - 1);
    let mut phi = Vec::with_capacity(GivensAngles::expected_count(m, n_ss));
    let mut psi = Vec::with_capacity(phi.capacity());

    for i in 1..=imax {
        // φ block: phases of column i, rows i..M−1 (1-based).
        let phis: Vec<f64> = (i..m)
            .map(|l| wrap_2pi(omega[(l - 1, i - 1)].arg()))
            .collect();
        let d_i = d_matrix(m, i, &phis);
        omega = d_i.hermitian().matmul(&omega);
        phi.extend_from_slice(&phis);

        // ψ block: plane rotations zeroing rows i+1..M of column i.
        for l in (i + 1)..=m {
            let a = omega[(i - 1, i - 1)].re; // real after D† rotation
            let b = omega[(l - 1, i - 1)].re; // real after D† rotation
            let denom = (a * a + b * b).sqrt();
            let p = if denom < 1e-300 {
                0.0
            } else {
                (a / denom).clamp(-1.0, 1.0).acos()
            };
            let g = g_matrix(m, l, i, p);
            omega = g.matmul(&omega);
            psi.push(p);
        }
    }

    GivensDecomposition {
        angles: GivensAngles { m, n_ss, phi, psi },
        d_tilde,
    }
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
