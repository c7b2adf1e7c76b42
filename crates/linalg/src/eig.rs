//! Hermitian eigendecomposition via the complex Jacobi method.
//!
//! One implementation, [`herm_eig_array`], runs on stack arrays,
//! const-generic over the order `N ≤ 8` (the standard's largest antenna
//! count). [`herm_eig`] is a copy-in/copy-out wrapper that dispatches on
//! the order of a [`CMatrix`]. The beamformee computes this decomposition
//! for every tone of every sounding, so the body makes no heap
//! allocation. Its bits are those of the dense `CMatrix` Jacobi it
//! replaced, because it repeats that code's floating-point operations in
//! the same order (see [`herm_eig_array`]); `deepcsi-bfi`'s
//! `tests/dense_reference.rs` keeps that code and holds the two equal by
//! `to_bits`.

use crate::{CMatrix, C64};

/// Result of a Hermitian eigendecomposition `A = V Λ V†`.
///
/// Eigenvalues are real (Hermitian input) and sorted in **descending**
/// order; `vectors` holds the matching eigenvectors as columns and is
/// unitary to machine precision.
#[derive(Debug, Clone)]
pub struct HermEig {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Unitary matrix whose column `i` is the eigenvector of `values[i]`.
    pub vectors: CMatrix,
}

impl HermEig {
    /// Rebuilds `V Λ V†`; mainly useful for testing.
    pub fn reconstruct(&self) -> CMatrix {
        let lambda = CMatrix::diag(
            &self
                .values
                .iter()
                .map(|&v| C64::real(v))
                .collect::<Vec<_>>(),
        );
        self.vectors
            .matmul(&lambda)
            .matmul(&self.vectors.hermitian())
    }
}

/// Maximum number of Jacobi sweeps before giving up. For the ≤8×8 matrices
/// in this codebase convergence takes 3–6 sweeps.
const MAX_SWEEPS: usize = 64;

/// Largest matrix order [`herm_eig`] accepts: the standard's 8 antennas.
pub(crate) const MAX_EIG_N: usize = 8;

/// Computes the eigendecomposition of a Hermitian matrix by cyclic complex
/// Jacobi rotations.
///
/// The input is symmetrised as `(A + A†)/2` first, so small asymmetries from
/// accumulated floating-point error are tolerated. The work runs in
/// [`herm_eig_array`]; this copies `a` in and the result out.
///
/// # Panics
///
/// Panics if `a` is not square or larger than 8×8.
///
/// # Example
///
/// ```
/// use deepcsi_linalg::{C64, CMatrix, herm_eig};
///
/// let a = CMatrix::from_rows(&[
///     vec![C64::new(2.0, 0.0), C64::new(0.0, 1.0)],
///     vec![C64::new(0.0, -1.0), C64::new(2.0, 0.0)],
/// ]);
/// let e = herm_eig(&a);
/// assert!((e.values[0] - 3.0).abs() < 1e-10);
/// assert!((e.values[1] - 1.0).abs() < 1e-10);
/// ```
pub fn herm_eig(a: &CMatrix) -> HermEig {
    assert_eq!(a.rows(), a.cols(), "herm_eig requires a square matrix");
    let n = a.rows();
    assert!(
        n <= MAX_EIG_N,
        "herm_eig handles matrices up to {MAX_EIG_N}×{MAX_EIG_N}, got {n}×{n}"
    );
    match n {
        0 => HermEig {
            values: Vec::new(),
            vectors: CMatrix::zeros(0, 0),
        },
        1 => copied::<1>(a),
        2 => copied::<2>(a),
        3 => copied::<3>(a),
        4 => copied::<4>(a),
        5 => copied::<5>(a),
        6 => copied::<6>(a),
        7 => copied::<7>(a),
        8 => copied::<8>(a),
        _ => unreachable!("n was checked above"),
    }
}

/// [`herm_eig`] for a fixed order `N`.
fn copied<const N: usize>(a: &CMatrix) -> HermEig {
    let a: [[C64; N]; N] = std::array::from_fn(|r| std::array::from_fn(|c| a[(r, c)]));
    let (values, vectors) = herm_eig_array(&a);
    HermEig {
        values: values.to_vec(),
        vectors: CMatrix::from_fn(N, N, |r, c| vectors[r][c]),
    }
}

/// The Jacobi eigendecomposition of a Hermitian `N×N` matrix held on the
/// stack: eigenvalues descending, and the matching eigenvectors as the
/// columns of a unitary matrix.
///
/// This is the one implementation behind [`herm_eig`] and
/// [`right_singular_vectors`](crate::right_singular_vectors); the
/// beamformee's per-tone feedback calls it directly. It performs the
/// floating-point operations of the dense heap algorithm it replaced, in
/// the same order: the symmetrisation, the row-major `sum` of the
/// Frobenius norm, every rotation, and a stable `sort_by` of the
/// eigenpairs on the same comparator (here over indices). So its results
/// are bit-identical to that algorithm's on every input, ±0 included. A
/// NaN result is NaN in both, but Rust leaves the sign and payload of a
/// NaN unspecified, so those bits may differ.
pub fn herm_eig_array<const N: usize>(a: &[[C64; N]; N]) -> ([f64; N], [[C64; N]; N]) {
    // Symmetrise to guard against tiny Hermitian violations.
    let mut m: [[C64; N]; N] =
        std::array::from_fn(|r| std::array::from_fn(|c| (a[r][c] + a[c][r].conj()).scale(0.5)));
    let mut v: [[C64; N]; N] =
        std::array::from_fn(|r| std::array::from_fn(|c| if r == c { C64::ONE } else { C64::ZERO }));

    let fro = m.iter().flatten().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    let tol = 1e-14 * fro.max(1.0);

    for _ in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for (p, row) in m.iter().enumerate() {
            for z in &row[p + 1..] {
                off = off.max(z.abs());
            }
        }
        if off < tol {
            break;
        }
        for p in 0..N {
            for q in (p + 1)..N {
                let apq = m[p][q];
                let r = apq.abs();
                if r < tol {
                    continue;
                }
                // Factor out the phase so the 2×2 sub-problem is real
                // symmetric, then apply a classical Jacobi rotation.
                let phi = apq.arg();
                let app = m[p][p].re;
                let aqq = m[q][q].re;
                // Zeroing the (p,q) entry requires tan(2θ) = 2r/(app−aqq);
                // atan2 keeps the angle well-defined when app ≈ aqq.
                let theta = 0.5 * (2.0 * r).atan2(app - aqq);
                let (s, c) = theta.sin_cos();
                // Unitary rotation G: columns p,q mix with phase `phi`.
                //   G[p,p]=c            G[p,q]=-s·e^{jφ}
                //   G[q,p]=s·e^{-jφ}    G[q,q]=c
                let eip = C64::cis(phi);
                let eim = eip.conj();
                let gpp = C64::real(c);
                let gpq = -C64::real(s) * eip;
                let gqp = C64::real(s) * eim;
                let gqq = C64::real(c);

                // m ← G† m G applied in place on rows/cols p and q.
                for row in m.iter_mut() {
                    let (mkp, mkq) = (row[p], row[q]);
                    row[p] = mkp * gpp + mkq * gqp;
                    row[q] = mkp * gpq + mkq * gqq;
                }
                let (above, below) = m.split_at_mut(q);
                for (mp, mq) in above[p].iter_mut().zip(below[0].iter_mut()) {
                    let (mpk, mqk) = (*mp, *mq);
                    *mp = gpp.conj() * mpk + gqp.conj() * mqk;
                    *mq = gpq.conj() * mpk + gqq.conj() * mqk;
                }
                for row in v.iter_mut() {
                    let (vkp, vkq) = (row[p], row[q]);
                    row[p] = vkp * gpp + vkq * gqp;
                    row[q] = vkp * gpq + vkq * gqq;
                }
            }
        }
    }

    // Sort the eigenpairs by descending eigenvalue.
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    order.sort_by(|&i, &j| {
        m[j][j]
            .re
            .partial_cmp(&m[i][i].re)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let values = order.map(|i| m[i][i].re);
    let vectors = std::array::from_fn(|r| std::array::from_fn(|c| v[r][order[c]]));
    (values, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = CMatrix::diag(&[C64::real(3.0), C64::real(1.0), C64::real(2.0)]);
        let e = herm_eig(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
        assert!(e.vectors.is_unitary(1e-10));
    }

    #[test]
    fn known_2x2_hermitian() {
        // [[2, i], [-i, 2]] has eigenvalues 3 and 1.
        let a = CMatrix::from_rows(&[vec![C64::real(2.0), C64::I], vec![-C64::I, C64::real(2.0)]]);
        let e = herm_eig(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        assert!(a.sub(&e.reconstruct()).fro_norm() < 1e-10);
    }

    #[test]
    fn reconstruction_3x3() {
        // Build a Hermitian matrix from B†B.
        let b = CMatrix::from_rows(&[
            vec![C64::new(1.0, 0.4), C64::new(-0.2, 0.0), C64::new(0.0, 1.0)],
            vec![C64::new(0.5, -1.0), C64::new(2.0, 0.3), C64::new(0.7, 0.0)],
        ]);
        let a = b.hermitian().matmul(&b);
        let e = herm_eig(&a);
        assert!(a.sub(&e.reconstruct()).fro_norm() < 1e-9);
        assert!(e.vectors.is_unitary(1e-9));
        // PSD: eigenvalues non-negative.
        assert!(e.values.iter().all(|&v| v > -1e-10));
        // Descending order.
        assert!(e.values.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn eigenvector_equation_holds() {
        let a = CMatrix::from_rows(&[
            vec![C64::real(4.0), C64::new(1.0, 2.0)],
            vec![C64::new(1.0, -2.0), C64::real(-1.0)],
        ]);
        let e = herm_eig(&a);
        for i in 0..2 {
            let x = CMatrix::from_fn(2, 1, |r, _| e.vectors[(r, i)]);
            let ax = a.matmul(&x);
            let lx = x.scale(C64::real(e.values[i]));
            assert!(ax.sub(&lx).fro_norm() < 1e-9, "eigenpair {i} fails");
        }
    }

    #[test]
    #[should_panic(expected = "herm_eig handles matrices up to 8×8, got 9×9")]
    fn orders_above_eight_panic() {
        let _ = herm_eig(&CMatrix::zeros(9, 9));
    }

    #[test]
    fn zero_matrix() {
        let a = CMatrix::zeros(3, 3);
        let e = herm_eig(&a);
        assert!(e.values.iter().all(|&v| v.abs() < 1e-14));
        assert!(e.vectors.is_unitary(1e-12));
    }
}
