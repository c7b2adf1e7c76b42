//! Complex singular value decomposition.

use crate::eig::{herm_eig_array, MAX_EIG_N};
use crate::{herm_eig, CMatrix, C64};

/// Result of a singular value decomposition `A = U Σ V†`.
///
/// `u` is n×n, `v` is m×m (both unitary) and `s` holds the
/// `min(n, m)` singular values in **descending** order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (n×n unitary).
    pub u: CMatrix,
    /// Singular values, descending, all non-negative.
    pub s: Vec<f64>,
    /// Right singular vectors (m×m unitary). `A = U Σ V†`.
    pub v: CMatrix,
}

impl Svd {
    /// Rebuilds `U Σ V†`; mainly useful for testing.
    pub fn reconstruct(&self) -> CMatrix {
        let n = self.u.rows();
        let m = self.v.rows();
        let mut sigma = CMatrix::zeros(n, m);
        for (i, &sv) in self.s.iter().enumerate() {
            sigma[(i, i)] = C64::real(sv);
        }
        self.u.matmul(&sigma).matmul(&self.v.hermitian())
    }
}

/// Relative tolerance used to decide numerical rank.
const RANK_TOL: f64 = 1e-12;

/// Computes the full SVD of a complex matrix.
///
/// The decomposition is built on the Hermitian eigendecomposition of the
/// smaller Gram matrix (`A†A` or `AA†`), which is exact to machine precision
/// for the small matrices the beamforming pipeline uses. Columns of `U`
/// (resp. `V`) beyond the numerical rank are completed to a unitary basis by
/// modified Gram–Schmidt, so the factors are always full and unitary.
///
/// # Example
///
/// ```
/// use deepcsi_linalg::{C64, CMatrix, svd};
///
/// let a = CMatrix::from_rows(&[
///     vec![C64::new(0.0, 2.0), C64::ZERO],
///     vec![C64::ZERO, C64::new(1.0, 0.0)],
/// ]);
/// let d = svd(&a);
/// assert!((d.s[0] - 2.0).abs() < 1e-12);
/// assert!((d.s[1] - 1.0).abs() < 1e-12);
/// ```
pub fn svd(a: &CMatrix) -> Svd {
    let (n, m) = a.shape();
    let k = n.min(m);

    if m <= n {
        // Eigendecompose A†A (m×m) → V, then derive U.
        let gram = a.hermitian().matmul(a);
        let eig = herm_eig(&gram);
        let v = eig.vectors;
        let s: Vec<f64> = eig
            .values
            .iter()
            .take(k)
            .map(|&l| l.max(0.0).sqrt())
            .collect();
        let u = left_from_right(a, &v, &s);
        Svd { u, s, v }
    } else {
        // Eigendecompose AA† (n×n) → U, then derive V.
        let gram = a.matmul(&a.hermitian());
        let eig = herm_eig(&gram);
        let u = eig.vectors;
        let s: Vec<f64> = eig
            .values
            .iter()
            .take(k)
            .map(|&l| l.max(0.0).sqrt())
            .collect();
        // V columns: v_i = A† u_i / σ_i.
        let v = left_from_right(&a.hermitian(), &u, &s);
        Svd { u, s, v }
    }
}

/// Returns only the full m×m matrix of right singular vectors of `A`
/// (columns ordered by descending singular value).
///
/// This is the `Z_k` of the paper's Eq. (3): the beamforming matrix `V_k`
/// is its first `N_SS` columns. Cheaper than [`svd`] because the left
/// factor is never formed. The work runs in
/// [`right_singular_vectors_array`]; this copies `a` in and the result
/// out.
///
/// # Panics
///
/// Panics if `a` has more than 8 columns.
pub fn right_singular_vectors(a: &CMatrix) -> CMatrix {
    let m = a.cols();
    assert!(
        m <= MAX_EIG_N,
        "right_singular_vectors handles up to {MAX_EIG_N} columns, got {m}"
    );
    match m {
        0 => CMatrix::zeros(0, 0),
        1 => copied::<1>(a),
        2 => copied::<2>(a),
        3 => copied::<3>(a),
        4 => copied::<4>(a),
        5 => copied::<5>(a),
        6 => copied::<6>(a),
        7 => copied::<7>(a),
        8 => copied::<8>(a),
        _ => unreachable!("the column count was checked above"),
    }
}

/// [`right_singular_vectors`] for a fixed column count `M`.
fn copied<const M: usize>(a: &CMatrix) -> CMatrix {
    let rows: Vec<[C64; M]> = (0..a.rows())
        .map(|r| std::array::from_fn(|c| a[(r, c)]))
        .collect();
    let z = right_singular_vectors_array(&rows);
    CMatrix::from_fn(M, M, |r, c| z[r][c])
}

/// The right singular vectors of the matrix whose rows are `rows`, on the
/// stack: the eigenvectors of the Gram matrix `A†A`, by
/// [`herm_eig_array`].
///
/// `A†A` is formed as `a.hermitian().matmul(&a)` forms it: the entry
/// `(r, c)` starts at zero and adds `conj(A[k][r])·A[k][c]` for k in
/// order, skipping the k whose `conj(A[k][r])` is zero. So the result
/// has the bits of that dense product followed by the heap Jacobi this
/// crate used before [`herm_eig_array`].
pub fn right_singular_vectors_array<const M: usize>(rows: &[[C64; M]]) -> [[C64; M]; M] {
    let mut gram = [[C64::ZERO; M]; M];
    for (r, out) in gram.iter_mut().enumerate() {
        for a_k in rows {
            let a = a_k[r].conj();
            if a == C64::ZERO {
                continue;
            }
            for (o, &b) in out.iter_mut().zip(a_k) {
                *o += a * b;
            }
        }
    }
    herm_eig_array(&gram).1
}

/// Builds the left factor from `A`, its right singular vectors and the
/// singular values: `u_i = A v_i / σ_i` for σ_i above the rank tolerance,
/// completing the basis with modified Gram–Schmidt for the rest.
fn left_from_right(a: &CMatrix, v: &CMatrix, s: &[f64]) -> CMatrix {
    let n = a.rows();
    let smax = s.first().copied().unwrap_or(0.0).max(1.0);
    let mut cols: Vec<Vec<C64>> = Vec::with_capacity(n);
    for (i, &sv) in s.iter().enumerate() {
        if sv > RANK_TOL * smax {
            let vi = CMatrix::from_fn(v.rows(), 1, |r, _| v[(r, i)]);
            let ui = a.matmul(&vi);
            cols.push((0..n).map(|r| ui[(r, 0)] / sv).collect());
        }
    }
    complete_basis(&mut cols, n);
    CMatrix::from_fn(n, n, |r, c| cols[c][r])
}

/// Extends a set of orthonormal columns in C^n to a full unitary basis via
/// modified Gram–Schmidt over the standard basis vectors.
fn complete_basis(cols: &mut Vec<Vec<C64>>, n: usize) {
    let mut e = 0usize;
    while cols.len() < n {
        assert!(e < n, "basis completion exhausted candidates");
        // Candidate: standard basis vector e_e.
        let mut cand = vec![C64::ZERO; n];
        cand[e] = C64::ONE;
        e += 1;
        // Orthogonalise against the existing columns (twice for stability).
        for _ in 0..2 {
            for col in cols.iter() {
                let proj: C64 = col
                    .iter()
                    .zip(cand.iter())
                    .map(|(&u, &x)| u.conj() * x)
                    .sum();
                for (ci, ui) in cand.iter_mut().zip(col.iter()) {
                    *ci -= proj * *ui;
                }
            }
        }
        let norm = cand.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm > 1e-8 {
            for z in cand.iter_mut() {
                *z = *z / norm;
            }
            cols.push(cand);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> C64 {
        C64::new(re, im)
    }

    #[test]
    fn diagonal_real_matrix() {
        let a = CMatrix::from_rows(&[vec![c(3.0, 0.0), C64::ZERO], vec![C64::ZERO, c(-2.0, 0.0)]]);
        let d = svd(&a);
        assert!((d.s[0] - 3.0).abs() < 1e-12);
        assert!((d.s[1] - 2.0).abs() < 1e-12);
        assert!(a.sub(&d.reconstruct()).fro_norm() < 1e-10);
    }

    #[test]
    fn wide_matrix_2x3() {
        // The shape of Hᵀ in the paper's sounding (N=2 rows, M=3 cols).
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 0.2), c(0.0, -1.0), c(0.5, 0.5)],
            vec![c(-0.3, 0.8), c(2.0, 0.0), c(0.1, -0.4)],
        ]);
        let d = svd(&a);
        assert_eq!(d.u.shape(), (2, 2));
        assert_eq!(d.v.shape(), (3, 3));
        assert_eq!(d.s.len(), 2);
        assert!(d.u.is_unitary(1e-9), "U not unitary");
        assert!(d.v.is_unitary(1e-9), "V not unitary");
        assert!(a.sub(&d.reconstruct()).fro_norm() < 1e-9);
        assert!(d.s[0] >= d.s[1] && d.s[1] >= 0.0);
    }

    #[test]
    fn tall_matrix_4x2() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 0.0), c(0.0, 1.0)],
            vec![c(0.0, -1.0), c(1.0, 0.0)],
            vec![c(0.5, 0.5), c(-0.5, 0.5)],
            vec![c(0.2, 0.0), c(0.0, 0.2)],
        ]);
        let d = svd(&a);
        assert_eq!(d.u.shape(), (4, 4));
        assert_eq!(d.v.shape(), (2, 2));
        assert!(d.u.is_unitary(1e-9));
        assert!(d.v.is_unitary(1e-9));
        assert!(a.sub(&d.reconstruct()).fro_norm() < 1e-9);
    }

    #[test]
    fn rank_deficient_matrix() {
        // Second row is a multiple of the first → rank 1.
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 1.0), c(2.0, 0.0), c(0.0, -1.0)],
            vec![c(2.0, 2.0), c(4.0, 0.0), c(0.0, -2.0)],
        ]);
        let d = svd(&a);
        assert!(d.s[1].abs() < 1e-9, "second singular value should vanish");
        assert!(d.u.is_unitary(1e-8));
        assert!(d.v.is_unitary(1e-8));
        assert!(a.sub(&d.reconstruct()).fro_norm() < 1e-8);
    }

    #[test]
    fn zero_matrix_gives_identity_factors() {
        let a = CMatrix::zeros(3, 2);
        let d = svd(&a);
        assert!(d.s.iter().all(|&sv| sv.abs() < 1e-12));
        assert!(d.u.is_unitary(1e-10));
        assert!(d.v.is_unitary(1e-10));
    }

    #[test]
    fn right_singular_vectors_match_full_svd_subspace() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 0.2), c(0.0, -1.0), c(0.5, 0.5)],
            vec![c(-0.3, 0.8), c(2.0, 0.0), c(0.1, -0.4)],
        ]);
        let z = right_singular_vectors(&a);
        assert!(z.is_unitary(1e-9));
        // Each column must be a right singular vector: ‖A z_i‖ = σ_i.
        let d = svd(&a);
        for i in 0..2 {
            let zi = CMatrix::from_fn(3, 1, |r, _| z[(r, i)]);
            let azi = a.matmul(&zi);
            assert!((azi.fro_norm() - d.s[i]).abs() < 1e-8, "column {i}");
        }
    }

    #[test]
    fn singular_values_invariant_under_left_phase() {
        // Multiplying A by a unit phase leaves the singular values unchanged.
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 0.5), c(0.3, -0.7)],
            vec![c(0.0, 1.2), c(-0.8, 0.1)],
        ]);
        let b = a.scale(C64::cis(1.234));
        let da = svd(&a);
        let db = svd(&b);
        for (x, y) in da.s.iter().zip(db.s.iter()) {
            assert!((x - y).abs() < 1e-10);
        }
    }
}
