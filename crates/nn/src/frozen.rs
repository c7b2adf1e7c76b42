//! Frozen inference: immutable models behind `Send + Sync` ops, with all
//! mutable scratch in a per-worker [`InferCtx`].
//!
//! Training runs these same ops (each layer's forward is its frozen op)
//! but keeps more per-worker state — each layer's input for backward,
//! gradient accumulators, dropout streams — in a [`crate::TrainCtx`],
//! and optimizers mutate weights. Serving needs none of that, and
//! [`crate::Network::freeze`] leaves it all behind:
//!
//! * [`FrozenModel`] — a snapshot of the weights behind [`InferOp`]s that
//!   take `&self`. It is `Send + Sync`, so one `Arc<FrozenModel>` serves
//!   any number of worker threads.
//! * [`InferCtx`] — one worker's scratch: the ping-pong activation
//!   [`Planes`] and op-private workspaces. Buffers grow to a high-water
//!   mark on the first batches and are reused afterwards, so the
//!   steady-state hot path performs no allocation beyond the output
//!   tensors handed back to the caller.
//!
//! Activations live in the batch-innermost ("planes") layout:
//! `data[e * b + s]` — element-major, sample-minor — so every per-weight
//! inner loop walks a contiguous run of `b` floats and autovectorizes to
//! whatever SIMD width the build host offers (`-C target-cpu=native` is
//! set workspace-wide, with `-slp-max-reg-size=512` so that the conv and
//! dense tiles' [`LANES`]-wide accumulator arrays take one 512-bit
//! register each on AVX-512). One weight fetch serves the whole batch.
//!
//! No kernel pads a batch, so a batch costs in proportion to its
//! samples and every plane (element-wise ops, pooling, the int8 domain)
//! stays at exactly `b` lanes. Conv vectorizes along the flattened
//! (width × sample) axis of each input row, whatever `b` is, reading the
//! plane in place and only the windows at the row ends from zero-haloed
//! copies in the [`InferCtx`] workspace. Dense splits `b = 16q + r`: the `q` whole
//! [`LANES`]-wide blocks run a register tile across the batch lanes, in
//! place at stride `b`, and the `r` leftover samples run a per-sample
//! kernel across 16 output rows.
//!
//! Because each sample only ever reads its own lanes, outputs are
//! **bit-equal** to the per-sample reference's `forward(x, false)` for
//! any batch size *and* any partition of the batch — which is what makes
//! [`crate::InferPool`]'s lane split verdict-neutral by construction
//! (property-tested in `tests/proptests.rs`).

use crate::planes::Planes;
use crate::tensor::Tensor;
use deepcsi_obs::Profiler;
use std::fmt;

/// Grows `buf` to exactly `len` elements, never shrinking its capacity —
/// the steady-state path is a truncate/extend inside existing capacity,
/// not an allocation.
pub(crate) fn resize_buf<T: Default + Clone>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    } else {
        buf.truncate(len);
    }
}

/// Transposes the `r × c` row-major matrix `src` into the `c × r`
/// row-major `dst`, in 32×32 tiles so both sides stay within a few open
/// cache lines (the quantize/dequantize layout hops between the f32
/// batch-innermost planes and the sample-major quantized planes).
pub(crate) fn transpose_i16(src: &[i16], dst: &mut [i16], r: usize, c: usize) {
    const T: usize = 32;
    for r0 in (0..r).step_by(T) {
        for c0 in (0..c).step_by(T) {
            for i in r0..(r0 + T).min(r) {
                for j in c0..(c0 + T).min(c) {
                    dst[j * r + i] = src[i * c + j];
                }
            }
        }
    }
}

/// An op chain whose per-sample shapes do not connect: op `op_index`
/// cannot accept the shape the previous op produces.
///
/// Returned by [`FrozenModel::validate`] / [`FrozenModel::from_ops_checked`]
/// so a mis-assembled pipeline (most likely a hand-built one via
/// [`FrozenModel::from_ops`], or an int8 chain quantized against the
/// wrong calibration) fails at freeze time with a precise diagnosis,
/// instead of panicking inside a serving worker at first inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// Index of the offending op in the chain.
    pub op_index: usize,
    /// The offending op's name.
    pub op_name: String,
    /// The per-sample shape arriving at the op.
    pub in_shape: Vec<usize>,
    /// Why the op rejected it.
    pub reason: String,
}

impl fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op {} ({}) cannot accept per-sample shape {:?}: {}",
            self.op_index, self.op_name, self.in_shape, self.reason
        )
    }
}

impl std::error::Error for ShapeMismatch {}

/// One frozen layer: an immutable, thread-shareable inference op.
///
/// Implementations own a snapshot of whatever parameters they need and
/// keep **all** mutable state in the [`InferCtx`] — that is the whole
/// contract that makes a [`FrozenModel`] `Sync`. `apply` transforms the
/// context's current activation plane in place (element-wise ops,
/// reshapes) or through [`InferCtx::produce`] (shape-changing ops).
///
/// Every op must reproduce the per-sample reference's `forward(x,
/// false)` arithmetic term-for-term — same accumulation order, same
/// rounding. An f32 op is also its layer's training forward
/// ([`crate::Layer::forward_batch`] runs it).
pub trait InferOp: Send + Sync {
    /// Human-readable op name (matches the source layer's).
    fn name(&self) -> &'static str;

    /// Transforms the context's current activation plane.
    fn apply(&self, ctx: &mut InferCtx);

    /// The per-sample shape this op would produce for `in_shape`, or an
    /// explanation when the op cannot accept it.
    ///
    /// This is the static half of the op contract:
    /// [`FrozenModel::validate`] chains it across the whole pipeline so
    /// a mis-assembled model fails at freeze time rather than at first
    /// inference. The default is shape-preserving (element-wise ops);
    /// shape-changing or rank-picky ops override it.
    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        Ok(in_shape.to_vec())
    }
}

/// One worker's inference scratch: activation planes and op workspaces.
///
/// Create one per worker thread with [`FrozenModel::ctx`] and reuse it
/// across calls — the buffers keep their high-water-mark capacity, so
/// after warm-up [`FrozenModel::infer_batch`] allocates nothing but the
/// returned output tensors.
#[derive(Debug, Default)]
pub struct InferCtx {
    /// Current activation plane. In the int8 domain only its shape and
    /// batch size are live; the values are in `qcur`.
    pub(crate) cur: Planes,
    /// The other half of the ping-pong pair ([`InferCtx::produce`]'s
    /// output plane, swapped into `cur` afterwards).
    nxt: Planes,
    /// Op-private workspaces (the attention block's pooled maps and
    /// logits live here).
    pub(crate) scratch0: Vec<f32>,
    pub(crate) scratch1: Vec<f32>,
    /// The conv workspace: the zero-haloed input window of the edge
    /// tile being run (a tile at either end of a row).
    pub(crate) conv_window: Vec<f32>,
    /// Quantized activation plane (int8-grid values `[-127, 127]`,
    /// i16-materialized for the integer dot-product kernels; empty for
    /// f32 models). **Sample-major** layout — `data[s * elems + e]` —
    /// the transpose of `cur`, so each sample's elements are contiguous
    /// (see `crate::quant::ops`).
    pub(crate) qcur: Vec<i16>,
    /// The quantized half of the ping-pong pair (see
    /// [`InferCtx::produce_q`]).
    qnxt: Vec<i16>,
    /// Int8 op workspace (the quantized conv's im2col patches live
    /// here).
    pub(crate) qscratch: Vec<i16>,
    /// `true` while the live activation is the quantized plane `qcur`
    /// (scale in `qscale`) rather than the f32 plane `cur`.
    pub(crate) int8: bool,
    /// Activation scale of `qcur` when `int8` is set: real value ≈
    /// `qcur[i] as f32 * qscale`.
    pub(crate) qscale: f32,
    /// Optional per-op profiler. When attached,
    /// [`FrozenModel::infer_batch`] wraps every op with a timestamp pair
    /// and records wall time + activation bytes into it; when absent the
    /// hot path pays a single `Option` branch per batch.
    profiler: Option<Profiler>,
}

impl InferCtx {
    /// Creates an empty context (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `op` over the batch `x` on a fresh context whose current
    /// plane is `x` itself, moved in and back out rather than copied:
    /// a training pass runs each layer's frozen op this way.
    pub(crate) fn run(op: &dyn InferOp, x: Planes) -> Planes {
        let mut ctx = InferCtx {
            cur: x,
            ..InferCtx::default()
        };
        op.apply(&mut ctx);
        ctx.cur
    }

    /// Interleaves `xs` into the current plane.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or the samples disagree in shape.
    pub(crate) fn load(&mut self, xs: &[Tensor]) {
        self.int8 = false;
        self.cur.load(xs.iter());
    }

    /// Per-sample shape of the current plane.
    pub fn shape(&self) -> &[usize] {
        self.cur.shape()
    }

    /// Samples interleaved in the current plane.
    pub fn batch_size(&self) -> usize {
        self.cur.batch_size()
    }

    /// Elements per sample.
    pub fn elems(&self) -> usize {
        self.cur.elems()
    }

    /// The current plane (`[element][sample]` interleaved).
    pub fn data(&self) -> &[f32] {
        self.cur.as_slice()
    }

    /// Applies an element-wise map to the current plane in place
    /// (activations).
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.cur.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// Reinterprets the per-sample shape without touching the data — in
    /// the batch-innermost layout a flatten/reshape is a pure relabel.
    ///
    /// # Panics
    ///
    /// Panics if the new shape changes the per-sample volume.
    pub fn set_shape(&mut self, shape: &[usize]) {
        self.cur.set_shape(shape);
    }

    /// Runs a shape-changing op: hands `f` the current plane and a
    /// correctly sized output plane (stale contents: `f` must overwrite
    /// every element), then swaps the output in as the new current
    /// plane.
    ///
    /// `f` receives `(input, output, in_shape, batch)`.
    pub fn produce(
        &mut self,
        out_shape: &[usize],
        f: impl FnOnce(&[f32], &mut [f32], &[usize], usize),
    ) {
        let b = self.cur.b;
        self.nxt.resize(out_shape, b);
        f(&self.cur.data, &mut self.nxt.data, &self.cur.shape, b);
        std::mem::swap(&mut self.cur, &mut self.nxt);
    }

    /// `true` while the live activation is the int8 plane.
    pub fn is_int8(&self) -> bool {
        self.int8
    }

    /// Attaches a per-op profiler: every subsequent
    /// [`FrozenModel::infer_batch`] through this context records each
    /// op's wall time and activation bytes into it. Profiling is
    /// observation-only — outputs stay bit-equal to the unprofiled call.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = Some(profiler);
    }

    /// Detaches and returns the profiler (e.g. to aggregate a worker's
    /// table at shutdown), leaving the context unprofiled.
    pub fn take_profiler(&mut self) -> Option<Profiler> {
        self.profiler.take()
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Bytes occupied by the live activation plane (f32 plane at 4
    /// bytes/element, the i16-materialized int8 plane at 2).
    fn plane_bytes(&self) -> u64 {
        let per = if self.int8 { 2 } else { 4 };
        (self.elems() * self.batch_size() * per) as u64
    }

    /// Quantizes the f32 plane into the quantized plane at `scale`
    /// (round-to-nearest, clamped to the symmetric int8 grid
    /// `[-127, 127]`), transposing from batch-innermost to the
    /// sample-major layout the integer kernels want, and enters the
    /// int8 domain.
    ///
    /// # Panics
    ///
    /// Panics if the context is already in the int8 domain.
    pub(crate) fn quantize_in_place(&mut self, scale: f32) {
        assert!(!self.int8, "quantize op applied to an int8 plane");
        resize_buf(&mut self.qnxt, self.cur.data.len());
        resize_buf(&mut self.qcur, self.cur.data.len());
        let inv = 1.0 / scale;
        // Two passes: a sequential (auto-vectorized) quantize pass, then
        // a pure-move i16 transpose — keeping the float math out of the
        // scattered-access loop.
        for (q, &x) in self.qnxt.iter_mut().zip(&self.cur.data) {
            *q = (x * inv).round().clamp(-127.0, 127.0) as i16;
        }
        let (elems, b) = (self.elems(), self.batch_size());
        transpose_i16(&self.qnxt, &mut self.qcur, elems, b);
        self.int8 = true;
        self.qscale = scale;
    }

    /// Reconstructs the batch-innermost f32 plane from the sample-major
    /// quantized plane (`x = q · scale`) and leaves the int8 domain.
    ///
    /// # Panics
    ///
    /// Panics if the context is not in the int8 domain.
    pub(crate) fn dequantize_in_place(&mut self) {
        assert!(self.int8, "dequantize op applied to an f32 plane");
        resize_buf(&mut self.cur.data, self.qcur.len());
        resize_buf(&mut self.qnxt, self.qcur.len());
        let scale = self.qscale;
        // Mirror of `quantize_in_place`: move-only i16 transpose first,
        // then a sequential (auto-vectorized) dequantize pass.
        let (elems, b) = (self.elems(), self.batch_size());
        transpose_i16(&self.qcur, &mut self.qnxt, b, elems);
        for (x, &q) in self.cur.data.iter_mut().zip(&self.qnxt) {
            *x = f32::from(q) * scale;
        }
        self.int8 = false;
    }

    /// The int8 analogue of [`InferCtx::produce`]: runs a shape-changing
    /// op over the quantized ping-pong pair (sample-major planes, never
    /// lane-padded). `out_scale` becomes the new plane's activation
    /// scale. Output planes are handed over with stale contents (every
    /// int8 kernel fully writes its output).
    ///
    /// # Panics
    ///
    /// Panics if the context is not in the int8 domain.
    pub(crate) fn produce_q(
        &mut self,
        out_shape: &[usize],
        out_scale: f32,
        f: impl FnOnce(&[i16], &mut [i16], &[usize], usize),
    ) {
        assert!(self.int8, "int8 op applied to an f32 plane");
        let b = self.cur.b;
        resize_buf(&mut self.qnxt, out_shape.iter().product::<usize>() * b);
        f(&self.qcur, &mut self.qnxt, &self.cur.shape, b);
        std::mem::swap(&mut self.qcur, &mut self.qnxt);
        self.qscale = out_scale;
        // The f32 values are stale in this domain; only the label moves.
        self.cur.shape.clear();
        self.cur.shape.extend_from_slice(out_shape);
    }
}

/// SIMD width of the batched conv/dense kernels: one full AVX-512
/// vector of `f32`, which the SLP vectorizer keeps in one zmm register
/// under the workspace's `-slp-max-reg-size=512` (narrower ISAs, or a
/// build without the flag, use two or four registers). Dense runs
/// whole blocks of it on the lane tile and the `b % LANES` leftover
/// samples of a batch on the per-sample tail kernel; conv's flat tiles
/// are three vectors of it wide.
pub(crate) const LANES: usize = 16;

/// Minimum samples routed to each lane of a [`crate::InferPool`]: one
/// full SIMD lane block (the 16-wide granularity of the dense lane
/// tile). Chunks are also *aligned* to this, so every split chunk
/// except the batch's ragged tail is all full lane blocks, and only the
/// last chunk runs the dense tail kernel. A batch of `n`
/// samples therefore engages at most `max(1, n / 16)` lanes.
pub const PAR_MIN_CHUNK: usize = LANES;

/// An immutable inference snapshot of a [`crate::Network`].
///
/// Produced by [`crate::Network::freeze`]; holds only parameters behind
/// [`InferOp`]s, so it is `Send + Sync` and one `Arc<FrozenModel>` can be
/// shared by any number of serving workers — no per-worker weight clone.
/// All scratch lives in the per-worker [`InferCtx`].
///
/// ```
/// use deepcsi_nn::{Dense, Network, Selu, Tensor};
///
/// let mut net = Network::new();
/// net.push(Dense::new(4, 8, 1));
/// net.push(Selu::new());
/// net.push(Dense::new(8, 2, 2));
/// let frozen = net.freeze();
/// let mut ctx = frozen.ctx();
/// let x = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4], vec![4]);
/// // &self + &mut ctx: one model serves every worker.
/// let y = frozen.infer(&x, &mut ctx);
/// assert_eq!(y.shape(), &[2]);
/// ```
pub struct FrozenModel {
    pub(crate) ops: Vec<Box<dyn InferOp>>,
}

impl std::fmt::Debug for FrozenModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrozenModel[")?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{}", op.name())?;
        }
        write!(f, "]")
    }
}

impl FrozenModel {
    /// Wraps a pre-built op sequence (used by [`crate::Network::freeze`];
    /// also the seam for hand-assembled frozen pipelines).
    ///
    /// Performs no validation — when the expected input shape is known,
    /// prefer [`FrozenModel::from_ops_checked`], which proves the op
    /// shapes chain before the model can reach a serving worker.
    pub fn from_ops(ops: Vec<Box<dyn InferOp>>) -> Self {
        FrozenModel { ops }
    }

    /// Like [`FrozenModel::from_ops`], but first proves that the op
    /// chain accepts per-sample inputs of `input_shape` — each op's
    /// [`InferOp::out_shape`] must accept what the previous op produces.
    ///
    /// # Errors
    ///
    /// [`ShapeMismatch`] naming the first op that cannot accept its
    /// incoming shape, so a mis-assembled pipeline (hand-built, or an
    /// int8 chain quantized against the wrong calibration) fails at
    /// freeze time instead of at first inference.
    pub fn from_ops_checked(
        ops: Vec<Box<dyn InferOp>>,
        input_shape: &[usize],
    ) -> Result<Self, ShapeMismatch> {
        let model = FrozenModel { ops };
        model.validate(input_shape)?;
        Ok(model)
    }

    /// Statically chains every op's [`InferOp::out_shape`] from
    /// `input_shape`, returning the model's per-sample output shape.
    ///
    /// # Errors
    ///
    /// [`ShapeMismatch`] for the first op that rejects its incoming
    /// shape.
    pub fn validate(&self, input_shape: &[usize]) -> Result<Vec<usize>, ShapeMismatch> {
        let mut shape = input_shape.to_vec();
        for (op_index, op) in self.ops.iter().enumerate() {
            shape = op.out_shape(&shape).map_err(|reason| ShapeMismatch {
                op_index,
                op_name: op.name().to_string(),
                in_shape: shape.clone(),
                reason,
            })?;
        }
        Ok(shape)
    }

    /// A fresh scratch context for one worker thread.
    pub fn ctx(&self) -> InferCtx {
        InferCtx::new()
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the model has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Single-sample inference, bit-equal to the per-sample reference's
    /// `forward(x, false)`.
    pub fn infer(&self, x: &Tensor, ctx: &mut InferCtx) -> Tensor {
        self.infer_batch(std::slice::from_ref(x), ctx)
            .pop()
            .expect("one output per input")
    }

    /// Micro-batched inference: one pass of every weight matrix serves
    /// the whole batch, SIMD across the batch lanes.
    ///
    /// Outputs are element-wise **bit-equal** to running the per-sample
    /// reference's `forward` with `train = false` on each sample,
    /// for any batch size: nothing pads a batch, conv runs along the
    /// flat (width × sample) axis, and dense runs the whole 16-lane
    /// blocks and the leftover samples on separate kernels (see the
    /// module docs), so the cost follows the sample count. After `ctx`
    /// has seen its largest batch, the call allocates nothing but the
    /// returned tensors.
    pub fn infer_batch(&self, xs: &[Tensor], ctx: &mut InferCtx) -> Vec<Tensor> {
        if xs.is_empty() {
            return Vec::new();
        }
        ctx.load(xs);
        // The profiler is moved out for the loop so the ops can borrow
        // the context mutably; observation only — both paths run the
        // identical op sequence. It goes back even when an op panics,
        // so a caller that catches the panic keeps its profiler.
        if let Some(mut prof) = ctx.profiler.take() {
            prof.batch_begin();
            let samples = ctx.batch_size() as u64;
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for (i, op) in self.ops.iter().enumerate() {
                    let in_bytes = ctx.plane_bytes();
                    let t0 = std::time::Instant::now();
                    op.apply(ctx);
                    prof.record_op(i, op.name(), t0, in_bytes + ctx.plane_bytes(), samples);
                }
            }));
            ctx.profiler = Some(prof);
            if let Err(panic) = run {
                std::panic::resume_unwind(panic);
            }
        } else {
            for op in &self.ops {
                op.apply(ctx);
            }
        }
        assert!(
            !ctx.int8,
            "pipeline left its activation in the int8 domain (missing trailing dequantize op)"
        );
        (0..ctx.batch_size()).map(|s| ctx.cur.sample(s)).collect()
    }
}

/// The `(threads, chunk_len)` partition [`crate::InferPool`] splits a
/// batch by.
///
/// * Floor division picks the thread count: a lane below one full
///   [`PAR_MIN_CHUNK`] block of work costs more to hand off than it
///   saves, so usable parallelism is `max(1, batch / PAR_MIN_CHUNK)`
///   regardless of how many lanes exist.
/// * Chunks are lane-block *aligned*: every chunk except the last is a
///   multiple of the SIMD width, so the batch's `batch % 16` leftover
///   samples all land in the last chunk and only its lane runs the
///   dense tail kernel. Rounding the chunk up can only *reduce* the
///   chunk count, so zipping chunks against lanes never drops samples —
///   and since `chunk_len ≥ 1` no chunk is ever empty.
pub fn plan_split(batch: usize, lanes: usize) -> (usize, usize) {
    let threads = lanes.min((batch / PAR_MIN_CHUNK).max(1));
    if threads == 1 {
        return (1, batch.max(1));
    }
    (
        threads,
        batch.div_ceil(threads).next_multiple_of(PAR_MIN_CHUNK),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::layers::Dense;
    use crate::network::Network;
    use crate::testkit::{network, reference, PanicOnPoison};
    use deepcsi_nn_ref::Spec;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn frozen_model_is_send_sync() {
        assert_send_sync::<FrozenModel>();
        assert_send_sync::<std::sync::Arc<FrozenModel>>();
    }

    const TINY: [Spec; 3] = [
        Spec::Dense {
            in_dim: 3,
            out_dim: 5,
            seed: 1,
        },
        Spec::Selu,
        Spec::Dense {
            in_dim: 5,
            out_dim: 2,
            seed: 2,
        },
    ];

    fn tiny_frozen() -> (Network, FrozenModel) {
        let net = network(&TINY);
        let frozen = net.freeze();
        (net, frozen)
    }

    #[test]
    fn infer_matches_the_reference_bitwise() {
        let (net, frozen) = tiny_frozen();
        let mut ctx = frozen.ctx();
        let x = Tensor::from_vec(vec![0.3, -1.2, 0.7], vec![3]);
        assert_eq!(
            frozen.infer(&x, &mut ctx).as_slice(),
            reference(&net, &TINY, &[3]).forward(x.as_slice(), false)
        );
    }

    #[test]
    fn ctx_buffers_reach_steady_state() {
        let (_, frozen) = tiny_frozen();
        let mut ctx = frozen.ctx();
        let xs: Vec<Tensor> = (0..8)
            .map(|s| Tensor::from_vec(vec![s as f32, 1.0, -1.0], vec![3]))
            .collect();
        let _ = frozen.infer_batch(&xs, &mut ctx);
        let caps = (ctx.cur.data.capacity(), ctx.nxt.data.capacity());
        // Same-size and smaller batches must not grow the buffers.
        let _ = frozen.infer_batch(&xs, &mut ctx);
        let _ = frozen.infer_batch(&xs[..3], &mut ctx);
        assert_eq!(caps, (ctx.cur.data.capacity(), ctx.nxt.data.capacity()));

        // Ragged batches: once warm, no batch at or below the warm-up
        // size grows either plane or the conv workspace. This
        // chain exchanges the planes an odd number of times per call
        // (conv, pool and dense each swap), so it takes two warm-up
        // calls for each plane to have held every activation.
        let specs = [
            Spec::Conv2d {
                in_ch: 2,
                out_ch: 8,
                kernel: (1, 3),
                seed: 3,
            },
            Spec::Selu,
            Spec::MaxPool2d { kernel: (1, 2) },
            Spec::Flatten,
            Spec::Dense {
                in_dim: 8 * 5,
                out_dim: 4,
                seed: 4,
            },
        ];
        let net = network(&specs);
        let mut oracle = reference(&net, &specs, &[2, 1, 10]);
        let frozen = net.freeze();
        let xs: Vec<Tensor> = (0..17)
            .map(|s| {
                Tensor::from_vec(
                    (0..20).map(|e| (e * s) as f32 * 0.01).collect(),
                    vec![2, 1, 10],
                )
            })
            .collect();
        let mut ctx = frozen.ctx();
        for b in [17, 17, 15] {
            let _ = frozen.infer_batch(&xs[..b], &mut ctx);
        }
        let caps = |ctx: &InferCtx| {
            (
                ctx.cur.data.capacity(),
                ctx.nxt.data.capacity(),
                ctx.conv_window.capacity(),
            )
        };
        let warm = caps(&ctx);
        for b in [17, 3, 15, 16, 1] {
            let got = frozen.infer_batch(&xs[..b], &mut ctx);
            assert_eq!(warm, caps(&ctx), "b={b}");
            for (x, g) in xs.iter().zip(&got) {
                assert_eq!(oracle.forward(x.as_slice(), false), g.as_slice(), "b={b}");
            }
        }
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let (_, frozen) = tiny_frozen();
        let mut ctx = frozen.ctx();
        assert!(frozen.infer_batch(&[], &mut ctx).is_empty());
    }

    #[test]
    fn profiled_inference_is_bit_identical_and_fills_the_table() {
        let (_, frozen) = tiny_frozen();
        let xs: Vec<Tensor> = (0..6)
            .map(|s| Tensor::from_vec(vec![s as f32 * 0.4, -0.9, 1.1], vec![3]))
            .collect();
        let mut plain = frozen.ctx();
        let want = frozen.infer_batch(&xs, &mut plain);

        let mut ctx = frozen.ctx();
        ctx.set_profiler(Profiler::new());
        for _ in 0..3 {
            let got = frozen.infer_batch(&xs, &mut ctx);
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.as_slice(), g.as_slice());
            }
        }
        let prof = ctx.take_profiler().expect("profiler still attached");
        assert!(ctx.profiler().is_none());
        let ops = prof.ops();
        assert_eq!(ops.len(), frozen.len());
        assert_eq!(
            ops.iter().map(|o| o.name).collect::<Vec<_>>(),
            vec!["dense", "selu", "dense"]
        );
        for o in ops {
            assert_eq!(o.calls, 3);
            assert_eq!(o.samples, 18);
            assert!(o.bytes > 0, "activation traffic recorded");
        }
    }

    #[test]
    fn a_caught_op_panic_leaves_the_profiler_attached() {
        let trap = FrozenModel::from_ops(vec![Box::new(PanicOnPoison)]);
        let good: Vec<Tensor> = (0..4)
            .map(|s| Tensor::from_vec(vec![s as f32, 1.0, -1.0], vec![3]))
            .collect();
        let mut ctx = trap.ctx();
        ctx.set_profiler(Profiler::new());
        trap.infer_batch(&good, &mut ctx);

        let poisoned = vec![Tensor::from_vec(vec![1000.0, 0.0, 0.0], vec![3])];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trap.infer_batch(&poisoned, &mut ctx)
        }));
        assert!(caught.is_err(), "the poisoned batch panics");

        let ops = ctx.profiler().expect("profiler still attached").ops();
        assert_eq!((ops[0].calls, ops[0].samples), (1, 4), "first batch kept");
        trap.infer_batch(&good, &mut ctx);
        let ops = ctx.profiler().expect("profiler still attached").ops();
        assert_eq!((ops[0].calls, ops[0].samples), (2, 8), "still counting");
    }

    #[test]
    fn debug_lists_op_chain() {
        let (_, frozen) = tiny_frozen();
        let s = format!("{frozen:?}");
        assert!(s.contains("dense"), "{s}");
        assert!(s.contains("selu"), "{s}");
    }

    #[test]
    fn validate_chains_shapes_through_the_model() {
        let (_, frozen) = tiny_frozen();
        assert_eq!(frozen.validate(&[3]).unwrap(), vec![2]);
        // Rank-1 input of the wrong width is caught at the first op.
        let err = frozen.validate(&[4]).unwrap_err();
        assert_eq!(err.op_index, 0);
        assert_eq!(err.op_name, "dense");
        assert_eq!(err.in_shape, vec![4]);
    }

    #[test]
    fn from_ops_checked_accepts_a_well_formed_chain() {
        let ops = vec![Dense::new(3, 5, 1).freeze(), Dense::new(5, 2, 2).freeze()];
        let model = FrozenModel::from_ops_checked(ops, &[3]).unwrap();
        assert_eq!(model.len(), 2);
        let mut ctx = model.ctx();
        let y = model.infer(&Tensor::zeros(vec![3]), &mut ctx);
        assert_eq!(y.shape(), &[2]);
    }

    #[test]
    fn from_ops_checked_rejects_a_broken_chain_at_freeze_time() {
        // 3 → 5, then an op expecting 4 inputs: the mis-assembly is
        // diagnosed here, not at first inference.
        let ops = vec![Dense::new(3, 5, 1).freeze(), Dense::new(4, 2, 2).freeze()];
        let err = FrozenModel::from_ops_checked(ops, &[3]).unwrap_err();
        assert_eq!(err.op_index, 1);
        assert_eq!(err.op_name, "dense");
        assert_eq!(err.in_shape, vec![5]);
        assert!(err.to_string().contains("dense"), "{err}");
        // The unchecked constructor still accepts it (compatibility),
        // but validate() reports the same diagnosis.
        let ops = vec![Dense::new(3, 5, 1).freeze(), Dense::new(4, 2, 2).freeze()];
        let model = FrozenModel::from_ops(ops);
        assert!(model.validate(&[3]).is_err());
    }
}
