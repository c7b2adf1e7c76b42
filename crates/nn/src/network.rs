//! Sequential network container and its per-worker training state.

use crate::frozen::FrozenModel;
use crate::layer::{Layer, LayerCtx};
use crate::planes::Planes;
use crate::quant::{QuantError, QuantSpec};

/// A sequential stack of layers: the weights, and the dropout streams
/// they are trained with.
///
/// Training and serving both take `&self`; every worker brings its own
/// state ([`TrainCtx`] from [`Network::train_ctx`], or the
/// [`crate::InferCtx`] of a frozen snapshot). Cloning deep-copies every
/// layer.
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

/// One worker's training state for a [`Network`]: per layer, the
/// activations kept for backward, the gradient accumulators (each
/// summed from `+0.0`) and a copy of the dropout stream.
///
/// Made by [`Network::train_ctx`]; the batched passes of any number of
/// workers borrow the one network, each with its own ctx.
pub struct TrainCtx {
    layers: Vec<LayerCtx>,
}

impl TrainCtx {
    /// The gradient accumulators, one per weight tensor in
    /// [`Network::weights`] order.
    pub fn grads(&self) -> Vec<&[f32]> {
        self.layers
            .iter()
            .flat_map(|l| &l.grads)
            .map(Vec::as_slice)
            .collect()
    }

    fn grads_mut(&mut self) -> Vec<&mut [f32]> {
        self.layers
            .iter_mut()
            .flat_map(|l| &mut l.grads)
            .map(Vec::as_mut_slice)
            .collect()
    }

    /// Adds `other`'s accumulators into these, element by element (the
    /// reduction of gradient shards).
    ///
    /// # Panics
    ///
    /// Panics if the two ctxs belong to different architectures.
    pub fn add_grads(&mut self, other: &TrainCtx) {
        let theirs = other.grads();
        let mine = self.grads_mut();
        assert_eq!(mine.len(), theirs.len(), "architecture mismatch");
        for (m, t) in mine.into_iter().zip(theirs) {
            assert_eq!(m.len(), t.len(), "parameter shape mismatch");
            for (gm, gt) in m.iter_mut().zip(t) {
                *gm += gt;
            }
        }
    }

    /// Scales every accumulated gradient (e.g. by `1/batch_size`).
    pub(crate) fn scale_grads(&mut self, s: f32) {
        for g in self.grads_mut().into_iter().flatten() {
            *g *= s;
        }
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

    /// A fresh training state for one worker: zeroed gradient
    /// accumulators and a copy of every dropout stream as it stands.
    pub fn train_ctx(&self) -> TrainCtx {
        TrainCtx {
            layers: self.layers.iter().map(|l| l.train_ctx()).collect(),
        }
    }

    /// Runs every layer's [`Layer::forward_batch`] over a batch, one
    /// sample per lane, keeping in `ctx` what the backward pass needs.
    /// Each lane is bit-identical to the per-sample reference
    /// (`deepcsi-nn-ref`) running `forward` on that sample.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was made by a different architecture.
    pub fn forward_batch(&self, x: Planes, train: bool, ctx: &mut TrainCtx) -> Planes {
        assert_eq!(ctx.layers.len(), self.layers.len(), "architecture mismatch");
        let mut cur = x;
        for (layer, lctx) in self.layers.iter().zip(&mut ctx.layers) {
            cur = layer.forward_batch(cur, train, lctx);
        }
        cur
    }

    /// Back-propagates over the batch of the last
    /// [`Network::forward_batch`] on `ctx`: leaves every accumulator as
    /// `b` per-sample reference `backward` calls in lane order would,
    /// and returns ∂loss/∂input per lane.
    pub fn backward_batch(&self, grad: Planes, ctx: &mut TrainCtx) -> Planes {
        let mut cur = grad;
        for (layer, lctx) in self.layers.iter().zip(&mut ctx.layers).rev() {
            cur = layer.backward_batch(cur, lctx);
        }
        cur
    }

    /// Continues every dropout stream from where `ctx`'s passes left it.
    pub(crate) fn resume_rng(&mut self, ctx: &TrainCtx) {
        for (layer, lctx) in self.layers.iter_mut().zip(&ctx.layers) {
            layer.resume_rng(lctx);
        }
    }

    /// Snapshots the network into an immutable, `Send + Sync`
    /// [`FrozenModel`] for serving.
    ///
    /// The frozen model's outputs are bit-equal to the per-sample
    /// reference's `forward(x, false)`; weights are copied once, so
    /// later training steps on this network do not affect the snapshot.
    /// Share it as `Arc<FrozenModel>` across worker threads, each with
    /// its own [`crate::InferCtx`].
    ///
    /// # Panics
    ///
    /// Panics, naming the weight tensor and value index as
    /// [`Network::load_weights`] does, if a weight is NaN or ±∞ (say,
    /// after training diverged): the frozen conv kernels match the
    /// reference bit for bit only on finite weights.
    pub fn freeze(&self) -> FrozenModel {
        for (i, w) in self.weights().into_iter().enumerate() {
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
    /// f32 snapshot, bit-identical at any batch size and under any
    /// [`crate::plan_split`] partition.
    ///
    /// `spec` comes from [`QuantSpec::calibrate`] run on this network's
    /// f32 [`Network::freeze`] snapshot with a representative sample
    /// batch. Outputs are *approximately* equal to the f32 snapshot's —
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

    /// The parameter tensors across all layers, in a stable order.
    pub fn weights(&self) -> Vec<&[f32]> {
        self.layers.iter().flat_map(|l| l.weights()).collect()
    }

    /// Mutable views of [`Network::weights`], in the same order.
    pub fn weights_mut(&mut self) -> Vec<&mut [f32]> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.weights_mut())
            .collect()
    }

    /// Total number of trainable scalars (the paper quotes 489,301 for
    /// its architecture; ours counts 489,305 — a bias-bookkeeping detail).
    pub fn num_params(&self) -> usize {
        self.weights().iter().map(|w| w.len()).sum()
    }

    /// Snapshots all weights (for serialisation; architecture is rebuilt
    /// from configuration).
    pub fn save_weights(&self) -> Vec<Vec<f32>> {
        self.weights().into_iter().map(<[f32]>::to_vec).collect()
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
        let mut params = self.weights_mut();
        if params.len() != weights.len() {
            return Err(format!(
                "weight tensor count mismatch: the architecture has {}, the weights {}",
                params.len(),
                weights.len()
            ));
        }
        for (i, (p, w)) in params.iter().zip(weights).enumerate() {
            if p.len() != w.len() {
                return Err(format!(
                    "weight tensor {i} has {} values, the architecture needs {}",
                    w.len(),
                    p.len()
                ));
            }
            if let Some(e) = non_finite(i, w) {
                return Err(e);
            }
        }
        for (p, w) in params.iter_mut().zip(weights) {
            p.copy_from_slice(w);
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
    use crate::tensor::Tensor;
    use crate::testkit::batch_pass;

    fn tiny_net() -> Network {
        let mut net = Network::new();
        net.push(Dense::new(3, 5, 1));
        net.push(Selu::new());
        net.push(Dense::new(5, 2, 2));
        net
    }

    fn infer(net: &Network, x: &Tensor) -> Tensor {
        let frozen = net.freeze();
        frozen.infer(x, &mut frozen.ctx())
    }

    /// One training pass on `x` with the cross-entropy gradient for
    /// `target`; the ctx holding its parameter gradients.
    fn grads_for(net: &Network, x: &Tensor, target: usize) -> TrainCtx {
        let g = softmax_cross_entropy(&infer(net, x), target).1;
        batch_pass(net, std::slice::from_ref(x), &[g], true).2
    }

    #[test]
    fn forward_shape() {
        let net = tiny_net();
        assert_eq!(infer(&net, &Tensor::zeros(vec![3])).shape(), &[2]);
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn clone_is_independent() {
        let a = tiny_net();
        let mut b = a.clone();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![3]);
        // Same weights → same outputs.
        assert_eq!(infer(&a, &x), infer(&b, &x));
        // Mutating the clone's weights leaves the original untouched.
        b.weights_mut()[0][0] += 1.0;
        assert_ne!(infer(&a, &x), infer(&b, &x));
    }

    #[test]
    fn grad_reduction_sums() {
        let net = tiny_net();
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5], vec![3]);
        let mut a = grads_for(&net, &x, 0);
        let b = grads_for(&net, &x, 1);
        let (a0, b0) = (a.grads()[0][0], b.grads()[0][0]);
        a.add_grads(&b);
        assert_eq!(a.grads()[0][0], a0 + b0);
    }

    #[test]
    fn save_load_roundtrip() {
        let a = tiny_net();
        let x = Tensor::from_vec(vec![0.1, 0.2, 0.3], vec![3]);
        let mut b = Network::new();
        b.push(Dense::new(3, 5, 7));
        b.push(Selu::new());
        b.push(Dense::new(5, 2, 8));
        // b has a different init until loaded.
        assert_ne!(infer(&a, &x), infer(&b, &x));
        b.load_weights(&a.save_weights()).unwrap();
        assert_eq!(infer(&a, &x), infer(&b, &x));
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
        net.weights_mut()[2][3] = f32::NAN;
        net.freeze();
    }

    #[test]
    fn weights_mut_mirrors_weights_and_the_ctx_grads() {
        let mut net = tiny_net();
        net.push(Conv2d::new(1, 2, (1, 3), 3));
        net.push(SpatialAttention::new(3, 4));
        let weights = net.save_weights();
        let lens: Vec<usize> = weights.iter().map(Vec::len).collect();
        let ctx = net.train_ctx();
        assert_eq!(
            ctx.grads().iter().map(|g| g.len()).collect::<Vec<_>>(),
            lens
        );
        let mirrored: Vec<Vec<f32>> = net.weights_mut().iter().map(|w| w.to_vec()).collect();
        assert_eq!(mirrored, weights);
    }

    #[test]
    fn scale_grads_scales() {
        let net = tiny_net();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![3]);
        let mut ctx = grads_for(&net, &x, 1);
        let before = ctx.grads()[0][0];
        ctx.scale_grads(0.5);
        assert_eq!(ctx.grads()[0][0], before * 0.5);
    }

    #[test]
    fn debug_shows_layer_chain() {
        let net = tiny_net();
        let s = format!("{net:?}");
        assert!(s.contains("dense"));
        assert!(s.contains("selu"));
    }
}
