//! The layer abstraction.
//!
//! Training and inference are deliberately **separate traits**: [`Layer`]
//! is the training-side surface (`forward` caches activations, `backward`
//! consumes them, dropout draws from an RNG — all `&mut self`), while
//! inference lives on [`crate::InferOp`], produced by [`Layer::freeze`],
//! which takes `&self` and keeps every scratch buffer in the caller's
//! [`crate::InferCtx`]. That split is what lets a frozen model be
//! `Send + Sync` and shared across serving workers without cloning
//! weights.
//!
//! Training runs batched: [`Layer::forward_batch`] and
//! [`Layer::backward_batch`] take [`Planes`], the frozen model's
//! batch-innermost layout, in which each lane is one sample. Every lane
//! repeats its sample's scalar operations in the per-sample order, so a
//! batched pass is bit-identical to one `forward`/`backward` pair per
//! sample, which stay on the trait as the test oracle.

use crate::frozen::InferOp;
use crate::planes::Planes;
use crate::quant::Int8Freeze;
use crate::tensor::Tensor;

/// A mutable view over one parameter tensor and its gradient accumulator.
///
/// Layers expose their parameters through this so optimizers can update
/// them without knowing layer internals. Views are returned in a stable
/// order, which is what lets [`crate::Adam`] keep per-parameter moments
/// aligned across steps.
pub struct ParamView<'a> {
    /// The parameter values.
    pub w: &'a mut [f32],
    /// The accumulated gradient (same length as `w`).
    pub g: &'a mut [f32],
}

/// A differentiable layer (the training-side trait).
///
/// `forward` caches whatever it needs; `backward` consumes that cache,
/// accumulates parameter gradients internally and returns the gradient
/// with respect to the input. One `forward` must precede each `backward`;
/// likewise one `forward_batch` each `backward_batch`.
/// Inference is *not* on this trait: [`Layer::freeze`] snapshots the
/// layer into an immutable [`crate::InferOp`] instead.
///
/// # The batched contract
///
/// Lane `s` of a [`Planes`] batch is sample `s`. The batched pair must
/// leave everything bit-identical to running `forward` then `backward`
/// on the samples one at a time, in lane order:
///
/// * each output and input-gradient element of lane `s` is computed
///   with the per-sample pass's terms in its order (conv input
///   gradients add their `(o, dh, dw)` contributions in that order, say,
///   and pooling keeps the first maximum by strict `>`);
/// * each parameter gradient takes one contribution per lane, formed as
///   the per-sample pass forms it (a conv weight's sum over the output
///   positions, a dense weight's `g·x`), and adds them into the
///   accumulator in lane order `s = 0..b`;
/// * stochastic layers draw sample-major from their RNG, as `b`
///   successive `forward` calls would.
pub trait Layer: Send {
    /// Human-readable layer name.
    fn name(&self) -> &'static str;

    /// Computes the layer output. `train` enables stochastic behaviour
    /// (dropout). The per-sample oracle of [`Layer::forward_batch`].
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Back-propagates `grad` (∂loss/∂output), returning ∂loss/∂input and
    /// **adding** parameter gradients to the internal accumulators. The
    /// per-sample oracle of [`Layer::backward_batch`].
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// [`Layer::forward`] over a batch, one sample per lane (see the
    /// trait docs for the bit-identity contract).
    fn forward_batch(&mut self, x: Planes, train: bool) -> Planes;

    /// [`Layer::backward`] over the batch of the last
    /// [`Layer::forward_batch`], adding each parameter's per-lane
    /// contributions in lane order.
    fn backward_batch(&mut self, grad: Planes) -> Planes;

    /// Snapshots the layer's inference behaviour into an immutable
    /// `Send + Sync` op.
    ///
    /// The op must be element-wise **bit-equal** to [`Layer::forward`]
    /// with `train = false` — same accumulation order, same rounding —
    /// so frozen serving and training-time evaluation can never
    /// disagree. Parameters are copied once; later training steps on
    /// this layer do not affect already-frozen ops.
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

    /// Mutable views of (parameters, gradients), in a stable order.
    fn params(&mut self) -> Vec<ParamView<'_>>;

    /// Read-only views of the parameters [`Layer::params`] yields, in
    /// the same order.
    fn weights(&self) -> Vec<&[f32]>;

    /// Clears the gradient accumulators.
    fn zero_grads(&mut self) {
        for p in self.params() {
            p.g.fill(0.0);
        }
    }

    /// Number of trainable scalars.
    fn num_params(&mut self) -> usize {
        self.params().iter().map(|p| p.w.len()).sum()
    }

    /// Clones the layer into a box (for data-parallel worker replicas).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
