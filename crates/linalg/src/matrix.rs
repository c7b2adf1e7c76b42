//! Dense complex matrices.

use crate::C64;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major complex matrix.
///
/// The beamforming pipeline works on small matrices (the per-subcarrier CFR
/// is M×N with M, N ≤ 4) so the representation favours simplicity and
/// cache-friendly row-major traversal over blocking.
///
/// # Example
///
/// ```
/// use deepcsi_linalg::{C64, CMatrix};
///
/// let eye = CMatrix::identity(3);
/// let a = CMatrix::from_fn(3, 3, |r, c| C64::new((r + c) as f64, 0.0));
/// assert_eq!(a.matmul(&eye), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the n×n identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates an `rows×cols` matrix with ones on the main diagonal and
    /// zeros elsewhere (the `I_{c×d}` of the paper's notation).
    pub fn eye_rect(rows: usize, cols: usize) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows.min(cols) {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[C64]) -> Self {
        let n = entries.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn<F: FnMut(usize, usize) -> C64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        CMatrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<C64>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        let data = rows.iter().flatten().copied().collect();
        CMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns a view of the backing row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Transpose (without conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Hermitian (conjugate) transpose `A†`.
    pub fn hermitian(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == C64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }

    /// Element-wise difference `self − rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }

    /// Multiplies every element by a complex scalar.
    pub fn scale(&self, s: C64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Returns column `c` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<C64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[C64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the sub-matrix made of the first `n` columns.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.cols()`.
    pub fn first_cols(&self, n: usize) -> CMatrix {
        assert!(n <= self.cols, "first_cols beyond column count");
        CMatrix::from_fn(self.rows, n, |r, c| self[(r, c)])
    }

    /// Maximum element-wise modulus of `self − rhs`; useful in tests.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, rhs: &CMatrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Checks `A†A ≈ I` within tolerance `tol` (columns orthonormal).
    pub fn is_unitary(&self, tol: f64) -> bool {
        let g = self.hermitian().matmul(self);
        g.max_abs_diff(&CMatrix::identity(self.cols)) < tol
    }

    /// Returns `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> C64 {
        C64::new(re, im)
    }

    #[test]
    fn identity_is_neutral() {
        let a = CMatrix::from_fn(3, 3, |r, col| c(r as f64 + 1.0, col as f64 - 1.0));
        let eye = CMatrix::identity(3);
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    fn transpose_and_hermitian() {
        let a = CMatrix::from_rows(&[vec![c(1.0, 2.0), c(3.0, -1.0)]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (2, 1));
        assert_eq!(t[(0, 0)], c(1.0, 2.0));
        let h = a.hermitian();
        assert_eq!(h[(0, 0)], c(1.0, -2.0));
        assert_eq!(h[(1, 0)], c(3.0, 1.0));
    }

    #[test]
    fn matmul_small_known() {
        let a = CMatrix::from_rows(&[vec![c(1.0, 0.0), c(0.0, 1.0)]]);
        let b = CMatrix::from_rows(&[vec![c(2.0, 0.0)], vec![c(0.0, -2.0)]]);
        let p = a.matmul(&b);
        // 1·2 + i·(−2i) = 2 + 2 = 4
        assert_eq!(p.shape(), (1, 1));
        assert!((p[(0, 0)] - c(4.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn fro_norm_matches_manual() {
        let a = CMatrix::from_rows(&[vec![c(3.0, 0.0), c(0.0, 4.0)]]);
        assert!((a.fro_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eye_rect_shape() {
        let m = CMatrix::eye_rect(3, 2);
        assert_eq!(m[(0, 0)], C64::ONE);
        assert_eq!(m[(1, 1)], C64::ONE);
        assert_eq!(m[(2, 0)], C64::ZERO);
        assert_eq!(m[(2, 1)], C64::ZERO);
    }

    #[test]
    fn diag_builds_square() {
        let d = CMatrix::diag(&[c(1.0, 0.0), c(0.0, 2.0)]);
        assert_eq!(d[(0, 0)], c(1.0, 0.0));
        assert_eq!(d[(1, 1)], c(0.0, 2.0));
        assert_eq!(d[(0, 1)], C64::ZERO);
    }

    #[test]
    fn unitary_check() {
        // A 2×2 rotation is unitary.
        let th: f64 = 0.3;
        let u = CMatrix::from_rows(&[
            vec![c(th.cos(), 0.0), c(-th.sin(), 0.0)],
            vec![c(th.sin(), 0.0), c(th.cos(), 0.0)],
        ]);
        assert!(u.is_unitary(1e-12));
        let not_u = CMatrix::from_rows(&[vec![c(2.0, 0.0)]]);
        assert!(!not_u.is_unitary(1e-12));
    }

    #[test]
    fn first_cols_extracts_prefix() {
        let a = CMatrix::from_fn(2, 3, |r, col| c((r * 3 + col) as f64, 0.0));
        let p = a.first_cols(2);
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p[(1, 1)], c(4.0, 0.0));
    }

    #[test]
    fn row_and_col_access() {
        let a = CMatrix::from_fn(2, 2, |r, col| c(r as f64, col as f64));
        assert_eq!(a.row(1), &[c(1.0, 0.0), c(1.0, 1.0)]);
        assert_eq!(a.col(0), vec![c(0.0, 0.0), c(1.0, 0.0)]);
    }

    #[test]
    fn scale_and_sub() {
        let a = CMatrix::identity(2);
        let b = a.scale(c(0.0, 1.0));
        assert_eq!(b[(0, 0)], C64::I);
        let z = b.sub(&b);
        assert_eq!(z.fro_norm(), 0.0);
    }
}
