//! A batch of samples in the batch-innermost ("planes") layout: the one
//! activation type of the crate. An [`crate::InferCtx`] holds its
//! current and spare activation as `Planes`, and a training pass
//! ([`crate::Network::forward_batch`], [`crate::Network::backward_batch`])
//! hands them from layer to layer.

use crate::frozen::resize_buf;
use crate::tensor::Tensor;

/// `b` samples of one per-sample shape, interleaved batch-innermost:
/// element `e` of sample (lane) `s` is `data[e * b + s]`.
///
/// Every kernel, serving and training alike, runs on this layout. A
/// rank-3 sample `[c][h][w]` becomes `[c][h][w·b]`: each input row is
/// one flat (width × sample) axis.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Planes {
    pub(crate) data: Vec<f32>,
    pub(crate) shape: Vec<usize>,
    pub(crate) b: usize,
}

impl Planes {
    /// `b` zero-filled samples of `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    pub fn zeros(shape: &[usize], b: usize) -> Self {
        assert!(b > 0, "empty batch");
        Planes {
            data: vec![0.0; shape.iter().product::<usize>() * b],
            shape: shape.to_vec(),
            b,
        }
    }

    /// Interleaves the samples `xs`, in order, into lanes `0..`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or the samples disagree in shape.
    pub fn from_samples<'a>(xs: impl ExactSizeIterator<Item = &'a Tensor>) -> Self {
        let mut planes = Planes::default();
        planes.load(xs);
        planes
    }

    /// Overwrites the batch with the samples `xs`, in order, reusing the
    /// buffer's capacity.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or the samples disagree in shape.
    pub(crate) fn load<'a>(&mut self, xs: impl ExactSizeIterator<Item = &'a Tensor>) {
        let b = xs.len();
        let mut xs = xs.peekable();
        let first: &Tensor = xs.peek().expect("empty batch");
        self.resize(first.shape(), b);
        for (s, x) in xs.enumerate() {
            self.set_sample(s, x);
        }
    }

    /// Relabels the batch as `b` samples of `shape`, growing the buffer
    /// to fit but never shrinking its capacity. The contents are stale:
    /// the caller overwrites every element.
    pub(crate) fn resize(&mut self, shape: &[usize], b: usize) {
        resize_buf(&mut self.data, shape.iter().product::<usize>() * b);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.b = b;
    }

    /// Per-sample shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Samples (lanes) in the batch.
    pub fn batch_size(&self) -> usize {
        self.b
    }

    /// Elements per sample.
    pub fn elems(&self) -> usize {
        self.shape.iter().product()
    }

    /// The interleaved data (`[element][sample]`).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The interleaved data, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Copies lane `s` out as a tensor of the per-sample shape.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a lane of the batch.
    pub fn sample(&self, s: usize) -> Tensor {
        assert!(s < self.b, "lane {s} of a batch of {}", self.b);
        let data = self.data[s..].iter().step_by(self.b).copied().collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    /// Overwrites lane `s` with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a lane of the batch or `x`'s shape is not
    /// the per-sample shape.
    pub fn set_sample(&mut self, s: usize, x: &Tensor) {
        assert!(s < self.b, "lane {s} of a batch of {}", self.b);
        assert_eq!(x.shape(), self.shape, "batch samples must share a shape");
        for (d, &v) in self.data[s..].iter_mut().step_by(self.b).zip(x.as_slice()) {
            *d = v;
        }
    }

    /// Relabels the per-sample shape in place; in this layout a reshape
    /// moves no data.
    ///
    /// # Panics
    ///
    /// Panics if the new shape changes the per-sample volume.
    pub(crate) fn set_shape(&mut self, shape: &[usize]) {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.elems(),
            "reshape changes volume"
        );
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Relabels the per-sample shape; in this layout a reshape moves no
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if the new shape changes the per-sample volume.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        self.set_shape(shape);
        self
    }

    /// The rank-3 per-sample shape `[c, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics, naming `what`, if the samples are not rank 3.
    pub(crate) fn dims3(&self, what: &str) -> (usize, usize, usize) {
        match *self.shape.as_slice() {
            [c, h, w] => (c, h, w),
            _ => panic!("{what} input must be rank 3"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_through_the_lanes() {
        let xs: Vec<Tensor> = (0..3)
            .map(|s| Tensor::from_vec((0..6).map(|e| (e * 10 + s) as f32).collect(), vec![2, 3]))
            .collect();
        let planes = Planes::from_samples(xs.iter());
        assert_eq!(planes.batch_size(), 3);
        assert_eq!(planes.elems(), 6);
        // Element-major, sample-minor.
        assert_eq!(&planes.as_slice()[..6], &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        for (s, x) in xs.iter().enumerate() {
            assert_eq!(&planes.sample(s), x);
        }
        let flat = planes.reshape(&[6]);
        assert_eq!(flat.sample(2).shape(), &[6]);
    }

    #[test]
    #[should_panic(expected = "share a shape")]
    fn mixed_shapes_panic() {
        let xs = [Tensor::zeros(vec![2]), Tensor::zeros(vec![3])];
        let _ = Planes::from_samples(xs.iter());
    }
}
