//! The int8 op set: domain conversions, integer conv/dense kernels and
//! the int8 max-pool.
//!
//! All ops drive the same [`InferCtx`] as the f32 pipeline, using its
//! quantized ping-pong planes (`qcur`/`qnxt`). Layout and element type
//! are chosen for the x86 integer dot-product units:
//!
//! * **Sample-major layout** (`[sample][element]`, the transpose of the
//!   f32 planes): every conv/dense output becomes a *contiguous* dot
//!   product over one sample's elements, the shape LLVM reliably
//!   compiles to `vpmaddwd`/`vpdpwssd` reductions (32 multiplies + 16
//!   adds, or a fully fused multiply-accumulate, per instruction).
//!   The batch-innermost broadcast form the f32 kernels use would pin
//!   integer math on the 2-µop `vpmulld` instead — measurably slower
//!   than f32 FMA.
//! * **`i16`-materialized int8 values**: activations and weights are
//!   quantized to the symmetric int8 grid `[-127, 127]` but stored as
//!   `i16`, because the dot-product units consume 16-bit operands (the
//!   i8→i16 widening is done once at quantize/freeze time, not per
//!   multiply). Products are exact in the `i16 × i16 → i32` accumulate;
//!   the plane still costs half the f32 footprint.
//!
//! Conv/dense requantize once at layer exit:
//!
//! ```text
//! q_out = clamp(round(acc · m[o] + bias[o]/s_out)),   m[o] = s_in · s_w[o] / s_out
//! ```
//!
//! with the input, per-channel weight and output scales folded into one
//! f32 multiplier per output channel — the only float arithmetic in a
//! quantized layer. The convolution runs as per-sample im2col (patches
//! staged into the context's `qscratch`, zero-padding materialized as
//! literal zeros, which contribute exactly nothing to the integer
//! accumulate) followed by the same register-blocked dot kernel as
//! dense.
//!
//! Every computation is per-sample, which keeps the quantized pipeline
//! bit-exact under any [`crate::InferPool`] lane
//! split — `infer_threads` can never change an int8 verdict, exactly as
//! for f32.

use crate::frozen::{InferCtx, InferOp};

/// k-chunk width of the dot kernels: 128 i16 elements (four cache
/// lines). One x chunk is reused across all [`OB`] weight rows, and the
/// constant chunk width lets LLVM compile each chunk reduction to
/// integer dot-product instructions (`vpmaddwd`/`vpdpwssd`) — measured
/// the fastest of the 64/128/256 widths on an AVX-512 host.
const CHUNK: usize = 128;

/// Output rows computed per block: 8 weight rows share every x-chunk
/// load and stay L1-resident across the samples of a batch.
const OB: usize = 8;

/// `ROWS` dot products of the pre-sliced weight rows against one sample
/// row `xr` (all slices the same length). The constant row count and
/// chunk width let the compiler fully unroll the block; pre-slicing the
/// rows (rather than indexing a flat `[out][len]` matrix with a runtime
/// `len`) is what lets it fold the addressing and keep the reduction in
/// dot-product instructions.
#[inline(always)]
fn dot_rows<const ROWS: usize>(rows: &[&[i16]; ROWS], xr: &[i16]) -> [i32; ROWS] {
    let len = xr.len();
    let mut acc = [0i32; ROWS];
    let chunks = len / CHUNK;
    for kc in 0..chunks {
        let base = kc * CHUNK;
        let xc: &[i16; CHUNK] = xr[base..base + CHUNK].try_into().expect("full chunk");
        for (j, aj) in acc.iter_mut().enumerate() {
            let wr: &[i16; CHUNK] = rows[j][base..base + CHUNK].try_into().expect("full chunk");
            let mut t = 0i32;
            for l in 0..CHUNK {
                t += i32::from(wr[l]) * i32::from(xc[l]);
            }
            *aj += t;
        }
    }
    let tail = chunks * CHUNK;
    if tail < len {
        for (j, aj) in acc.iter_mut().enumerate() {
            let mut t = 0i32;
            for (&p, &q) in rows[j][tail..len].iter().zip(&xr[tail..]) {
                t += i32::from(p) * i32::from(q);
            }
            *aj += t;
        }
    }
    acc
}

/// Folds an `i32` accumulator back onto the int8 grid:
/// `clamp(round(acc · m + bq))` with round-to-nearest and the symmetric
/// `[-127, 127]` range. One f32 multiply-add per output element — the
/// only float arithmetic in a quantized layer.
#[inline(always)]
fn requant(acc: i32, m: f32, bq: f32) -> i16 {
    (acc as f32).mul_add(m, bq).round().clamp(-127.0, 127.0) as i16
}

/// Entry into the int8 domain: quantizes the f32 plane at a fixed,
/// calibration-derived scale (transposing to the sample-major layout
/// the integer kernels want).
pub(crate) struct Quantize {
    pub(crate) scale: f32,
}

impl InferOp for Quantize {
    fn name(&self) -> &'static str {
        "quantize"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        ctx.quantize_in_place(self.scale);
    }
}

/// Exit from the int8 domain: reconstructs the batch-innermost f32
/// plane from the sample-major quantized plane (`x = q · s`).
pub(crate) struct Dequantize;

impl InferOp for Dequantize {
    fn name(&self) -> &'static str {
        "dequantize"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        ctx.dequantize_in_place();
    }
}

/// The int8 dense layer: int8-grid weights (i16-materialized),
/// per-output-channel requantize multipliers, bias folded into the
/// requantize step.
pub(crate) struct Int8Dense {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    /// Quantized weights on the int8 grid, `[out][in]`, widened once at
    /// freeze time.
    pub(crate) weight: Vec<i16>,
    /// Per-output requantize multiplier `s_in · s_w[o] / s_out`.
    pub(crate) m: Vec<f32>,
    /// Per-output bias in output-scale units (`bias[o] / s_out`).
    pub(crate) bq: Vec<f32>,
    /// Activation scale of this layer's output plane.
    pub(crate) out_scale: f32,
}

impl InferOp for Int8Dense {
    fn name(&self) -> &'static str {
        "int8_dense"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        assert_eq!(ctx.elems(), self.in_dim, "dense input length mismatch");
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        ctx.produce_q(&[out_dim], self.out_scale, |xs, os, _, b| {
            // Output-row blocks outer: the 8 weight rows stay hot in L1
            // across every sample of the batch.
            let mut o0 = 0;
            while o0 + OB <= out_dim {
                let rows: [&[i16]; OB] =
                    std::array::from_fn(|j| &self.weight[(o0 + j) * in_dim..(o0 + j + 1) * in_dim]);
                for s in 0..b {
                    let acc = dot_rows(&rows, &xs[s * in_dim..(s + 1) * in_dim]);
                    for (j, &a) in acc.iter().enumerate() {
                        os[s * out_dim + o0 + j] = requant(a, self.m[o0 + j], self.bq[o0 + j]);
                    }
                }
                o0 += OB;
            }
            while o0 < out_dim {
                let rows: [&[i16]; 1] = [&self.weight[o0 * in_dim..(o0 + 1) * in_dim]];
                for s in 0..b {
                    let acc = dot_rows(&rows, &xs[s * in_dim..(s + 1) * in_dim]);
                    os[s * out_dim + o0] = requant(acc[0], self.m[o0], self.bq[o0]);
                }
                o0 += 1;
            }
        });
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        dense_out_shape(self.in_dim, self.out_dim, in_shape)
    }
}

/// The int8 convolution: im2col + the dense dot kernel, stride-1 "same"
/// zero padding mirroring `Conv2d`.
pub(crate) struct Int8Conv2d {
    pub(crate) in_ch: usize,
    pub(crate) out_ch: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    /// Quantized weights on the int8 grid, `[out][in][kh][kw]`, widened
    /// once at freeze time. Each row is exactly one im2col patch long.
    pub(crate) weight: Vec<i16>,
    /// Per-output requantize multiplier `s_in · s_w[o] / s_out`.
    pub(crate) m: Vec<f32>,
    /// Per-output bias in output-scale units.
    pub(crate) bq: Vec<f32>,
    /// Activation scale of this layer's output plane.
    pub(crate) out_scale: f32,
}

impl Int8Conv2d {
    /// Stages one sample's im2col patch matrix into `patches`
    /// (`[h·w][c·kh·kw]`, padding taps as literal zeros). Dispatches to
    /// a kernel-width-monomorphized body for the paper's widths, so the
    /// interior copies compile to fixed-size moves instead of `memcpy`
    /// calls — staging must stay a small fraction of the dot-product
    /// work.
    /// Kernel widths the monomorphized im2col dispatch covers.
    /// `Conv2d::freeze_int8` keeps wider kernels on the f32 op, so an
    /// unsupported width can never reach `apply` — the pipeline still
    /// assembles, it just leaves that layer unquantized.
    pub(crate) fn supports_width(kw: usize) -> bool {
        matches!(kw, 1 | 3 | 5 | 7 | 9 | 11)
    }

    fn im2col(&self, xs: &[i16], patches: &mut [i16], c: usize, h: usize, w: usize) {
        match self.kw {
            1 => self.im2col_kw::<1>(xs, patches, c, h, w),
            3 => self.im2col_kw::<3>(xs, patches, c, h, w),
            5 => self.im2col_kw::<5>(xs, patches, c, h, w),
            7 => self.im2col_kw::<7>(xs, patches, c, h, w),
            9 => self.im2col_kw::<9>(xs, patches, c, h, w),
            11 => self.im2col_kw::<11>(xs, patches, c, h, w),
            other => panic!("unsupported int8 conv kernel width {other}"),
        }
    }

    fn im2col_kw<const KW: usize>(
        &self,
        xs: &[i16],
        patches: &mut [i16],
        c: usize,
        h: usize,
        w: usize,
    ) {
        debug_assert_eq!(self.kw, KW);
        let kh = self.kh;
        let (ph, pw) = (kh / 2, KW / 2);
        let patch_len = c * kh * KW;
        for oh in 0..h {
            for ow in 0..w {
                // Valid kernel columns: iw = ow + dw − pw ∈ [0, w).
                let lo = pw.saturating_sub(ow);
                let hi = (w + pw - ow).min(KW);
                let interior = lo == 0 && hi == KW;
                let row = &mut patches[(oh * w + ow) * patch_len..][..patch_len];
                for i in 0..c {
                    for dh in 0..kh {
                        let ih = oh + dh;
                        let dst = &mut row[(i * kh + dh) * KW..][..KW];
                        if ih < ph || ih - ph >= h {
                            dst.fill(0);
                            continue;
                        }
                        let src = &xs[(i * h + ih - ph) * w..][..w];
                        if interior {
                            // Fixed-size copy — no memcpy call.
                            let win: &[i16; KW] =
                                src[ow - pw..ow - pw + KW].try_into().expect("window");
                            dst.copy_from_slice(win);
                        } else {
                            dst[..lo].fill(0);
                            dst[lo..hi].copy_from_slice(&src[ow + lo - pw..ow + hi - pw]);
                            dst[hi..].fill(0);
                        }
                    }
                }
            }
        }
    }
}

impl InferOp for Int8Conv2d {
    fn name(&self) -> &'static str {
        "int8_conv2d"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        let [c, h, w]: [usize; 3] = ctx.shape().try_into().expect("conv input must be rank 3");
        assert_eq!(c, self.in_ch, "input channel mismatch");
        let hw = h * w;
        let patch_len = c * self.kh * self.kw;
        let out_ch = self.out_ch;
        // Borrow the im2col scratch out of the ctx before produce_q
        // borrows the planes.
        let mut patches = std::mem::take(&mut ctx.qscratch);
        crate::frozen::resize_buf(&mut patches, hw * patch_len);
        ctx.produce_q(&[out_ch, h, w], self.out_scale, |xs, os, _, b| {
            for s in 0..b {
                self.im2col(&xs[s * c * hw..(s + 1) * c * hw], &mut patches, c, h, w);
                let out = &mut os[s * out_ch * hw..(s + 1) * out_ch * hw];
                // Output-channel blocks outer: 8 weight rows stay hot in
                // L1 while the patch matrix streams by once per block.
                let mut o0 = 0;
                while o0 + OB <= out_ch {
                    let rows: [&[i16]; OB] = std::array::from_fn(|j| {
                        &self.weight[(o0 + j) * patch_len..(o0 + j + 1) * patch_len]
                    });
                    for p in 0..hw {
                        let acc = dot_rows(&rows, &patches[p * patch_len..(p + 1) * patch_len]);
                        for (j, &a) in acc.iter().enumerate() {
                            out[(o0 + j) * hw + p] = requant(a, self.m[o0 + j], self.bq[o0 + j]);
                        }
                    }
                    o0 += OB;
                }
                while o0 < out_ch {
                    let rows: [&[i16]; 1] = [&self.weight[o0 * patch_len..(o0 + 1) * patch_len]];
                    for p in 0..hw {
                        let acc = dot_rows(&rows, &patches[p * patch_len..(p + 1) * patch_len]);
                        out[o0 * hw + p] = requant(acc[0], self.m[o0], self.bq[o0]);
                    }
                    o0 += 1;
                }
            }
        });
        ctx.qscratch = patches;
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        conv_out_shape(self.in_ch, self.out_ch, in_shape)
    }
}

/// The int8 max-pool: max over the quantized plane directly. Max is
/// monotone, so pooling commutes with (de)quantization exactly — the
/// plane's scale passes through unchanged and the op introduces no
/// quantization error of its own.
pub(crate) struct Int8MaxPool {
    pub(crate) kh: usize,
    pub(crate) kw: usize,
}

impl InferOp for Int8MaxPool {
    fn name(&self) -> &'static str {
        "int8_maxpool2d"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        let [c, h, w]: [usize; 3] = ctx.shape().try_into().expect("pool input must be rank 3");
        let oh = h / self.kh;
        let ow = w / self.kw;
        assert!(oh > 0 && ow > 0, "input smaller than pooling kernel");
        let (kh, kw) = (self.kh, self.kw);
        let scale = ctx.qscale;
        ctx.produce_q(&[c, oh, ow], scale, |xs, os, _, b| {
            let (in_elems, out_elems) = (c * h * w, c * oh * ow);
            for s in 0..b {
                let xr = &xs[s * in_elems..(s + 1) * in_elems];
                let out = &mut os[s * out_elems..(s + 1) * out_elems];
                for ci in 0..c {
                    for hi in 0..oh {
                        for wi in 0..ow {
                            let mut best = xr[(ci * h + hi * kh) * w + wi * kw];
                            for dh in 0..kh {
                                for dw in 0..kw {
                                    let v = xr[(ci * h + hi * kh + dh) * w + wi * kw + dw];
                                    if v > best {
                                        best = v;
                                    }
                                }
                            }
                            out[(ci * oh + hi) * ow + wi] = best;
                        }
                    }
                }
            }
        });
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        pool_out_shape(in_shape, self.kh, self.kw)
    }
}

/// Shared dense shape rule (used by the f32 and int8 dense ops): any
/// rank is accepted as long as the per-sample volume matches.
pub(crate) fn dense_out_shape(
    in_dim: usize,
    out_dim: usize,
    in_shape: &[usize],
) -> Result<Vec<usize>, String> {
    let elems: usize = in_shape.iter().product();
    if elems != in_dim {
        return Err(format!(
            "dense expects {in_dim} input elements, shape has {elems}"
        ));
    }
    Ok(vec![out_dim])
}

/// Shared convolution shape rule (used by the f32 and int8 conv ops):
/// rank 3 with a matching channel count; "same" padding preserves h×w.
pub(crate) fn conv_out_shape(
    in_ch: usize,
    out_ch: usize,
    in_shape: &[usize],
) -> Result<Vec<usize>, String> {
    let [c, h, w]: [usize; 3] = in_shape
        .try_into()
        .map_err(|_| format!("conv needs a rank-3 input, got rank {}", in_shape.len()))?;
    if c != in_ch {
        return Err(format!("conv expects {in_ch} input channels, got {c}"));
    }
    Ok(vec![out_ch, h, w])
}

/// Shared max-pool shape rule (used by the f32 and int8 pool ops).
pub(crate) fn pool_out_shape(
    in_shape: &[usize],
    kh: usize,
    kw: usize,
) -> Result<Vec<usize>, String> {
    let [c, h, w]: [usize; 3] = in_shape
        .try_into()
        .map_err(|_| format!("pool needs a rank-3 input, got rank {}", in_shape.len()))?;
    let (oh, ow) = (h / kh, w / kw);
    if oh == 0 || ow == 0 {
        return Err(format!(
            "input {h}×{w} smaller than pooling kernel {kh}×{kw}"
        ));
    }
    Ok(vec![c, oh, ow])
}
