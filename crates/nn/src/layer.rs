//! The layer abstraction.
//!
//! A [`Layer`] holds its weights (and, for dropout, its seeded stream)
//! and nothing else. What a pass needs beyond that lives with the
//! worker running it, so one `&Network` serves any number of threads:
//!
//! * inference: [`Layer::freeze`] snapshots the layer into an immutable
//!   [`crate::InferOp`], run with the scratch of a per-worker
//!   [`crate::InferCtx`];
//! * training: [`Layer::forward_batch`] runs that same op on the batch,
//!   and [`Layer::backward_batch`] takes the batch the forward saw, the
//!   output gradient and a per-worker [`LayerCtx`] holding the gradient
//!   accumulators and the dropout stream.
//!
//! Both run on [`Planes`], the batch-innermost layout, in which each
//! lane is one sample. Every lane repeats its sample's scalar operations
//! in the order of the naive per-sample reference (the `deepcsi-nn-ref`
//! crate), so a batched pass is bit-identical to one reference
//! `forward`/`backward` per sample.

use crate::frozen::{InferCtx, InferOp};
use crate::planes::Planes;
use crate::quant::Int8Freeze;
use rand::rngs::StdRng;

/// One layer's training state on one worker, made by
/// [`Layer::train_ctx`].
#[derive(Default)]
pub struct LayerCtx {
    /// One accumulator per [`Layer::weights`] tensor, from `+0.0`.
    pub(crate) grads: Vec<Vec<f32>>,
    /// Dropout's stream, copied from the layer.
    pub(crate) rng: Option<StdRng>,
    /// Dropout's keep flags of the last pass; empty when it dropped
    /// nothing.
    pub(crate) mask: Vec<bool>,
}

impl LayerCtx {
    /// A ctx with a zeroed accumulator for each of `weights`.
    pub(crate) fn zeroed(weights: &[&[f32]]) -> Self {
        LayerCtx {
            grads: weights.iter().map(|w| vec![0.0; w.len()]).collect(),
            ..LayerCtx::default()
        }
    }

    /// The weight and bias accumulators of a conv or dense layer.
    pub(crate) fn weight_bias_grads(&mut self) -> (&mut [f32], &mut [f32]) {
        match self.grads.as_mut_slice() {
            [gw, gb] => (gw, gb),
            _ => unreachable!("a weight and a bias accumulator"),
        }
    }
}

/// A differentiable layer (the training-side trait).
///
/// Its forward is its frozen [`crate::InferOp`]: [`Layer::forward_batch`]
/// runs [`Layer::freeze`]'s op on the batch, so training and serving
/// compute one function. `backward_batch` receives the batch that
/// forward saw, recomputes from it whatever intermediate it needs with
/// the forward's kernels, adds the parameter gradients into the ctx's
/// accumulators and returns the gradient with respect to the input.
///
/// # The batched contract
///
/// Lane `s` of a [`Planes`] batch is sample `s`. A batched pair must
/// leave everything bit-identical to the per-sample reference running
/// `forward` then `backward` on the samples one at a time, in lane
/// order:
///
/// * each output and input-gradient element of lane `s` is computed
///   with the reference's terms in its order (conv input gradients add
///   their `(o, dh, dw)` contributions in that order, say, and pooling
///   keeps the first maximum by strict `>`);
/// * each parameter gradient takes one contribution per lane, formed as
///   the reference forms it (a conv weight's sum over the output
///   positions, a dense weight's `g·x`), and adds them into the
///   accumulator in lane order `s = 0..b`;
/// * stochastic layers draw sample-major from the ctx's stream, as `b`
///   successive reference `forward` calls would.
pub trait Layer: Send + Sync {
    /// Human-readable layer name.
    fn name(&self) -> &'static str;

    /// A fresh training state for one worker: a zeroed accumulator per
    /// [`Layer::weights`] tensor and a copy of the layer's dropout
    /// stream, if it has one.
    fn train_ctx(&self) -> LayerCtx {
        LayerCtx::zeroed(&self.weights())
    }

    /// Runs the layer over a batch, one sample per lane: the frozen op
    /// of [`Layer::freeze`] on an [`InferCtx`] whose current plane is
    /// `x` itself. `train` enables stochastic behaviour, so only
    /// dropout overrides this.
    fn forward_batch(&self, x: Planes, train: bool, ctx: &mut LayerCtx) -> Planes {
        let _ = (train, ctx);
        InferCtx::run(self.freeze().as_ref(), x)
    }

    /// Back-propagates `grad` (∂loss/∂output) over the batch `x` that
    /// the last [`Layer::forward_batch`] on `ctx` saw, adding each
    /// parameter's per-lane contributions in lane order; returns
    /// ∂loss/∂input.
    fn backward_batch(&self, x: &Planes, grad: Planes, ctx: &mut LayerCtx) -> Planes;

    /// Snapshots the layer's inference behaviour into an immutable
    /// `Send + Sync` op.
    ///
    /// The op must be element-wise **bit-equal** to the reference's
    /// `forward` with `train = false` — same accumulation order, same
    /// rounding. It equals [`Layer::forward_batch`] outside training by
    /// construction, since that runs this op. Parameters are copied
    /// once; later training steps on this layer do not affect
    /// already-frozen ops.
    fn freeze(&self) -> Box<dyn InferOp>;

    /// Serve-only: snapshots the layer into an int8 inference op for a
    /// quantized pipeline, given the calibrated activation scales at its
    /// input and output boundaries.
    ///
    /// Returns `None` (the default) when the layer has no integer
    /// kernel — [`crate::Network::freeze_int8`] then keeps the layer's
    /// f32 op and hops domains around it. Training semantics are
    /// untouched: like [`Layer::freeze`], this only *reads* the layer.
    fn freeze_int8(&self, in_scale: f32, out_scale: f32) -> Option<Int8Freeze> {
        let _ = (in_scale, out_scale);
        None
    }

    /// The trainable parameter tensors, in a stable order (none by
    /// default).
    fn weights(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    /// Mutable views of [`Layer::weights`], in the same order.
    fn weights_mut(&mut self) -> Vec<&mut [f32]> {
        Vec::new()
    }

    /// Continues the layer's dropout stream from where `ctx` left it
    /// (nothing to do for a layer without one).
    fn resume_rng(&mut self, ctx: &LayerCtx) {
        let _ = ctx;
    }

    /// Clones the layer into a box.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
