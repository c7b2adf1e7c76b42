//! Dense row-major f32 tensors.

use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// Rank 1–3 is what the DeepCSI classifier needs: feature maps are
/// `(channels, height, width)`, dense activations are `(features,)`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics on an empty shape or zero-sized dimension.
    pub fn zeros(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "tensor needs at least one dimension");
        assert!(shape.iter().all(|&d| d > 0), "zero-sized dimension");
        let len = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Wraps a data vector with a shape.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the shape's volume.
    pub fn from_vec(data: Vec<f32>, shape: Vec<usize>) -> Self {
        let want: usize = shape.iter().product();
        assert_eq!(data.len(), want, "data length vs shape mismatch");
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor has no elements (impossible by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access for rank-3 tensors `(c, h, w)`.
    ///
    /// # Panics
    ///
    /// Debug-panics when out of bounds or the rank is not 3.
    #[inline]
    pub fn at3(&self, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 3);
        self.data[(c * self.shape[1] + h) * self.shape[2] + w]
    }

    /// Mutable rank-3 element access.
    #[inline]
    pub fn at3_mut(&mut self, c: usize, h: usize, w: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 3);
        &mut self.data[(c * self.shape[1] + h) * self.shape[2] + w]
    }

    /// Reshapes in place (volume must be preserved).
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different volume.
    pub fn reshape(mut self, shape: Vec<usize>) -> Tensor {
        let want: usize = shape.iter().product();
        assert_eq!(self.data.len(), want, "reshape changes volume");
        self.shape = shape;
        self
    }

    /// Index of the maximum element (ties resolve to the first).
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}[", self.shape)?;
        for (i, v) in self.data.iter().take(8).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rank3_indexing_is_row_major() {
        let mut t = Tensor::zeros(vec![2, 2, 3]);
        *t.at3_mut(1, 0, 2) = 5.0;
        assert_eq!(t.at3(1, 0, 2), 5.0);
        // (1·2 + 0)·3 + 2 = 8
        assert_eq!(t.as_slice()[8], 5.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), vec![2, 3]);
        let r = t.clone().reshape(vec![6]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape(), &[6]);
    }

    #[test]
    #[should_panic(expected = "reshape changes volume")]
    fn bad_reshape_panics() {
        let _ = Tensor::zeros(vec![4]).reshape(vec![5]);
    }

    #[test]
    fn argmax_first_tie() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.0], vec![4]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn finiteness_check() {
        let mut t = Tensor::zeros(vec![2]);
        assert!(t.is_finite());
        t.as_mut_slice()[0] = f32::NAN;
        assert!(!t.is_finite());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_volume() {
        let _ = Tensor::from_vec(vec![0.0; 5], vec![2, 3]);
    }

    #[test]
    fn debug_is_nonempty_and_truncated() {
        let t = Tensor::zeros(vec![100]);
        let s = format!("{t:?}");
        assert!(s.contains("…"));
        assert!(!s.is_empty());
    }
}
