//! Sequential network container.

use crate::frozen::FrozenModel;
use crate::layer::{Layer, ParamView};
use crate::planes::Planes;
use crate::quant::{QuantError, QuantSpec};
use crate::tensor::Tensor;

/// A sequential stack of layers.
///
/// Cloning a `Network` deep-copies every layer (weights, optimizer-visible
/// gradients and RNG state) — this is what the data-parallel trainer uses
/// to hand each worker thread its own replica.
#[derive(Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            layers: self.layers.clone(),
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network[")?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{}", l.name())?;
        }
        write!(f, "]")
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the forward pass. `train` enables stochastic layers and caches
    /// the activations needed by [`Network::backward`].
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in self.layers.iter_mut() {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    /// [`Network::forward`] over a batch, one sample per lane: every
    /// layer's [`Layer::forward_batch`], bit-identical per lane to
    /// `forward` on that sample.
    pub fn forward_batch(&mut self, x: Planes, train: bool) -> Planes {
        let mut cur = x;
        for layer in self.layers.iter_mut() {
            cur = layer.forward_batch(cur, train);
        }
        cur
    }

    /// [`Network::backward`] over the batch of the last
    /// [`Network::forward_batch`]: leaves every gradient accumulator as
    /// `b` per-sample `backward` calls in lane order would, and returns
    /// ∂loss/∂input per lane.
    pub fn backward_batch(&mut self, grad: Planes) -> Planes {
        let mut cur = grad;
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward_batch(cur);
        }
        cur
    }

    /// Snapshots the network into an immutable, `Send + Sync`
    /// [`FrozenModel`] for serving.
    ///
    /// The frozen model's outputs are bit-equal to
    /// [`Network::forward`]`(x, false)`; weights are copied once, so
    /// later training steps on this network do not affect the snapshot.
    /// Share it as `Arc<FrozenModel>` across worker threads, each with
    /// its own [`crate::InferCtx`].
    ///
    /// # Panics
    ///
    /// Panics, naming the weight tensor and value index as
    /// [`Network::load_weights`] does, if a weight is NaN or ±∞ (say,
    /// after training diverged): the frozen conv kernels match `forward`
    /// bit for bit only on finite weights.
    pub fn freeze(&self) -> FrozenModel {
        let weights = self.layers.iter().flat_map(|l| l.weights());
        for (i, w) in weights.enumerate() {
            if let Some(e) = non_finite(i, w) {
                panic!("cannot freeze a network with a non-finite weight: {e}");
            }
        }
        FrozenModel::from_ops(self.layers.iter().map(|l| l.freeze()).collect())
    }

    /// Snapshots the network into a post-training-quantized **int8**
    /// [`FrozenModel`]: conv/dense run integer kernels
    /// (`i8 × i8 → i32`, requantized at layer exit), activations and the
    /// attention block stay f32 behind dequantize/quantize hops, and the
    /// whole chain serves behind the same [`crate::InferOp`] seam as the
    /// f32 snapshot — including the bit-exact [`crate::InferPool`] lane
    /// split.
    ///
    /// `spec` comes from [`QuantSpec::calibrate`] run on this network's
    /// f32 [`Network::freeze`] snapshot with a representative sample
    /// batch. Outputs are *approximately* equal to `forward(x, false)` —
    /// quantization trades a bounded per-layer rounding error (see
    /// `crate::quant`) for integer arithmetic; it is the one deliberate
    /// exception to the frozen path's bit-equality contract, which is
    /// why it lives behind an explicit opt-in instead of a flag on
    /// [`Network::freeze`].
    ///
    /// # Errors
    ///
    /// [`QuantError::BoundaryCount`] when `spec` was calibrated against
    /// a different architecture, [`QuantError::Shape`] when the
    /// assembled chain fails shape validation against the calibration
    /// input shape.
    pub fn freeze_int8(&self, spec: &QuantSpec) -> Result<FrozenModel, QuantError> {
        crate::quant::assemble(&self.layers, spec)
    }

    /// Back-propagates an output gradient, accumulating parameter
    /// gradients in every layer; returns ∂loss/∂input.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut cur = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// Clears all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for layer in self.layers.iter_mut() {
            layer.zero_grads();
        }
    }

    /// Mutable parameter views across all layers, in a stable order.
    pub fn params(&mut self) -> Vec<ParamView<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Total number of trainable scalars (the paper quotes 489,301 for
    /// its architecture; ours counts 489,305 — a bias-bookkeeping detail).
    pub fn num_params(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.num_params()).sum()
    }

    /// Adds `other`'s accumulated gradients into this network's
    /// accumulators (gradient reduction across data-parallel workers).
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn add_grads_from(&mut self, other: &mut Network) {
        let mut mine = self.params();
        let theirs = other.params();
        assert_eq!(mine.len(), theirs.len(), "architecture mismatch");
        for (m, t) in mine.iter_mut().zip(theirs.iter()) {
            assert_eq!(m.g.len(), t.g.len(), "parameter shape mismatch");
            for (gm, gt) in m.g.iter_mut().zip(t.g.iter()) {
                *gm += gt;
            }
        }
    }

    /// Scales all accumulated gradients (e.g. by `1/batch_size`).
    pub fn scale_grads(&mut self, s: f32) {
        for p in self.params() {
            for g in p.g.iter_mut() {
                *g *= s;
            }
        }
    }

    /// Snapshots all weights (for serialisation; architecture is rebuilt
    /// from configuration).
    pub fn save_weights(&mut self) -> Vec<Vec<f32>> {
        self.params().iter().map(|p| p.w.to_vec()).collect()
    }

    /// Restores weights saved by [`Network::save_weights`].
    ///
    /// # Errors
    ///
    /// A description of the first problem, with no weight changed, when
    /// the tensor count or a tensor's length does not match this
    /// architecture, or a value is NaN or ±∞ (the frozen conv kernels'
    /// bit-exactness assumes finite weights; [`Network::freeze`] refuses
    /// them too).
    pub fn load_weights(&mut self, weights: &[Vec<f32>]) -> Result<(), String> {
        let mut params = self.params();
        if params.len() != weights.len() {
            return Err(format!(
                "weight tensor count mismatch: the architecture has {}, the weights {}",
                params.len(),
                weights.len()
            ));
        }
        for (i, (p, w)) in params.iter().zip(weights).enumerate() {
            if p.w.len() != w.len() {
                return Err(format!(
                    "weight tensor {i} has {} values, the architecture needs {}",
                    w.len(),
                    p.w.len()
                ));
            }
            if let Some(e) = non_finite(i, w) {
                return Err(e);
            }
        }
        for (p, w) in params.iter_mut().zip(weights) {
            p.w.copy_from_slice(w);
        }
        Ok(())
    }
}

/// Names the first NaN or ±∞ in weight tensor `i`, if any.
fn non_finite(i: usize, w: &[f32]) -> Option<String> {
    let j = w.iter().position(|v| !v.is_finite())?;
    Some(format!("weight tensor {i}, value {j} is {}", w[j]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Selu, SpatialAttention};
    use crate::loss::softmax_cross_entropy;

    fn tiny_net() -> Network {
        let mut net = Network::new();
        net.push(Dense::new(3, 5, 1));
        net.push(Selu::new());
        net.push(Dense::new(5, 2, 2));
        net
    }

    #[test]
    fn forward_shape() {
        let mut net = tiny_net();
        let y = net.forward(&Tensor::zeros(vec![3]), false);
        assert_eq!(y.shape(), &[2]);
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = tiny_net();
        let mut b = a.clone();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![3]);
        // Same weights → same outputs.
        assert_eq!(
            a.forward(&x, false).as_slice(),
            b.forward(&x, false).as_slice()
        );
        // Mutating the clone's weights leaves the original untouched.
        b.params()[0].w[0] += 1.0;
        assert_ne!(
            a.forward(&x, false).as_slice(),
            b.forward(&x, false).as_slice()
        );
    }

    #[test]
    fn grad_reduction_sums() {
        let mut a = tiny_net();
        let mut b = a.clone();
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5], vec![3]);
        for net in [&mut a, &mut b] {
            net.zero_grads();
            let y = net.forward(&x, true);
            let (_, g) = softmax_cross_entropy(&y, 0);
            net.backward(&g);
        }
        let b_g0 = b.params()[0].g[0];
        let a_g0_before = a.params()[0].g[0];
        a.add_grads_from(&mut b);
        let a_g0_after = a.params()[0].g[0];
        assert!((a_g0_after - (a_g0_before + b_g0)).abs() < 1e-7);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut a = tiny_net();
        let x = Tensor::from_vec(vec![0.1, 0.2, 0.3], vec![3]);
        let before = a.forward(&x, false);
        let weights = a.save_weights();
        let mut b = tiny_net();
        // b has different init (different seeds) until loaded.
        b.load_weights(&weights).unwrap();
        let after = b.forward(&x, false);
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn load_weights_refuses_a_mismatch_or_a_non_finite_value() {
        let mut net = tiny_net();
        let good = net.save_weights();
        let mut short = good.clone();
        short.pop();
        let mut truncated = good.clone();
        truncated[2].pop();
        let mut inf = good.clone();
        inf[1][0] = f32::NEG_INFINITY;
        for bad in [short, truncated, inf] {
            assert!(net.load_weights(&bad).is_err());
            assert_eq!(net.save_weights(), good, "a refused load changes nothing");
        }
    }

    #[test]
    #[should_panic(expected = "weight tensor 2, value 3 is NaN")]
    fn freeze_refuses_a_non_finite_weight() {
        let mut net = tiny_net();
        net.params()[2].w[3] = f32::NAN;
        net.freeze();
    }

    #[test]
    fn weights_mirror_params() {
        let mut net = tiny_net();
        net.push(Conv2d::new(1, 2, (1, 3), 3));
        net.push(SpatialAttention::new(3, 4));
        let weights: Vec<Vec<f32>> = net
            .layers
            .iter()
            .flat_map(|l| l.weights())
            .map(<[f32]>::to_vec)
            .collect();
        assert_eq!(weights, net.save_weights());
    }

    #[test]
    fn scale_grads_scales() {
        let mut net = tiny_net();
        net.zero_grads();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![3]);
        let y = net.forward(&x, true);
        let (_, g) = softmax_cross_entropy(&y, 1);
        net.backward(&g);
        let before = net.params()[0].g[0];
        net.scale_grads(0.5);
        assert!((net.params()[0].g[0] - before * 0.5).abs() < 1e-9);
    }

    #[test]
    fn debug_shows_layer_chain() {
        let net = tiny_net();
        let s = format!("{net:?}");
        assert!(s.contains("dense"));
        assert!(s.contains("selu"));
    }
}
