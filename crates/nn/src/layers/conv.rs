//! 2-D convolution with "same" zero padding.
//!
//! The frozen op runs along the flattened (width × sample) axis. In the
//! batch-innermost planes an input row `(i, ih)` of a batch of `b`
//! samples already is that axis, `iw·b + s`, and output `(ow, s)` reads
//! tap `dw` at a plain shift of `dw·b` from the row padded with `pw·b`
//! zeros on each side. So one tile kernel computes [`TILE_CH`] channels
//! × 48 consecutive flat outputs with no border case and no batch-size
//! case, and a batch costs in proportion to its samples. Interior tiles
//! read the input plane in place. The few tiles at each end of a row,
//! whose taps reach past it, run one at a time on a zero-haloed copy of
//! their window across all input rows, and no narrower tile exists: the
//! last tile of a row stores only the outputs that exist.
//!
//! Why the halo is exact: the per-sample reference (`deepcsi-nn-ref`)
//! computes each output as `+0.0 + Σ w·x`, summed over the in-bounds
//! taps in `(i, dh, dw)` order, with the bias added last. The flat
//! kernel sums in the same order and skips the same `dh` rows. It
//! differs only in the `dw` taps that fall off the edge: they add
//! `w·(+0)`, which is ±0 for every finite `w`.
//!
//! * The sum starts at `+0.0` and is never −0: in round-to-nearest an
//!   exact-zero sum of two operands is +0 unless both are −0.
//! * Adding ±0 to a sum that is not −0 returns the sum, bit for bit.
//!
//! So every output is bit-identical to the reference's, whichever copy
//! a tile reads. The inputs may be anything: a halo tap never reads an
//! input value. The weights must be finite, since `∞·0` is NaN: the
//! reference asserts it on entry, [`crate::Network::load_weights`]
//! refuses a non-finite weight and [`crate::Network::freeze`] panics on
//! one, so a network whose training diverged to a NaN or ±∞ weight is
//! never frozen.

use crate::frozen::{resize_buf, InferCtx, InferOp, LANES};
use crate::init::lecun_normal;
use crate::layer::{Layer, LayerCtx};
use crate::planes::Planes;
use crate::quant::ops::{conv_out_shape, Int8Conv2d};
use crate::quant::{quantize_layer, Int8Freeze};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A stride-1 2-D convolution with "same" zero padding.
///
/// Input/output feature maps are `(channels, height, width)`. The paper's
/// classifier uses kernels of shape `(1, 7)`, `(1, 5)` and `(1, 3)` — the
/// spectral dimension runs along `width` — but the implementation is
/// general.
#[derive(Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    kh: usize,
    kw: usize,
    weight: Vec<f32>, // [out][in][kh][kw]
    bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution with LeCun-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the kernel dims are even ("same"
    /// padding requires odd kernels).
    pub fn new(in_ch: usize, out_ch: usize, (kh, kw): (usize, usize), seed: u64) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && kh > 0 && kw > 0, "zero dims");
        assert!(kh % 2 == 1 && kw % 2 == 1, "same padding needs odd kernels");
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC04F);
        let fan_in = in_ch * kh * kw;
        let n = out_ch * fan_in;
        Conv2d {
            in_ch,
            out_ch,
            kh,
            kw,
            weight: lecun_normal(&mut rng, fan_in, n),
            bias: vec![0.0; out_ch],
        }
    }

    #[inline]
    fn widx(&self, o: usize, i: usize, dh: usize, dw: usize) -> usize {
        ((o * self.in_ch + i) * self.kh + dh) * self.kw + dw
    }

    /// Snapshots the weights into the immutable batched-inference op
    /// (also embedded by the frozen attention block).
    pub(crate) fn frozen(&self) -> FrozenConv2d {
        FrozenConv2d::new(
            (self.in_ch, self.out_ch),
            (self.kh, self.kw),
            |o, i, dh, dw| self.weight[self.widx(o, i, dh, dw)],
            self.bias.clone(),
        )
    }

    /// The input-gradient convolution: `∂x` is a "same" convolution of
    /// `∂y` whose output channel `i` reads input channel `o` through
    /// `W[o][i]`, taken with every tap's offset negated. Negating the
    /// offsets is mirroring both spatial axes, so run on mirrored
    /// planes, this op computes a mirrored `∂x` with the unflipped
    /// kernel, each element's terms in the reference's `(o, dh, dw)`
    /// order.
    /// It is exact as the forward is (module docs): the halo taps add
    /// ±0, and the zero bias adds `+0.0` to a sum that is never −0.
    fn input_grad_op(&self) -> FrozenConv2d {
        FrozenConv2d::new(
            (self.out_ch, self.in_ch),
            (self.kh, self.kw),
            |i, o, dh, dw| self.weight[self.widx(o, i, dh, dw)],
            vec![0.0; self.in_ch],
        )
    }

    /// Adds every lane's bias and weight gradients for the input `x`
    /// and output gradient `grad` into `ctx`, in lane order.
    fn add_batch_param_grads(&self, x: &Planes, grad: &Planes, ctx: &mut LayerCtx) {
        let (gw, gb) = ctx.weight_bias_grads();
        let (c, h, w) = x.dims3("conv");
        let b = x.batch_size();
        let g = FlatGeom {
            c,
            h,
            b,
            len: w * b,
        };
        let (xs, gs) = (x.as_slice(), grad.as_slice());
        let mut s0 = 0;
        while s0 < b {
            // The trainer's passes are 16 or 8 lanes wide; a ragged
            // remainder goes one lane at a time.
            s0 += match b - s0 {
                16.. => self.add_lane_grads::<16>(xs, gs, g, s0, gw, gb),
                8.. => self.add_lane_grads::<8>(xs, gs, g, s0, gw, gb),
                _ => self.add_lane_grads::<1>(xs, gs, g, s0, gw, gb),
            };
        }
    }

    /// Adds lanes `s0..s0 + L`'s bias and weight gradients, each lane's
    /// formed as the reference forms a sample's (a sum from `+0.0` over
    /// the output positions in `(oh, ow)` order), into the accumulators
    /// `grad_w` and `grad_b` in lane order.
    /// Returns `L`, the lanes done.
    fn add_lane_grads<const L: usize>(
        &self,
        xs: &[f32],
        gs: &[f32],
        g: FlatGeom,
        s0: usize,
        grad_w: &mut [f32],
        grad_b: &mut [f32],
    ) -> usize {
        let hw = g.h * g.len / g.b;
        for o in 0..self.out_ch {
            let mut acc = [0.0f32; L];
            for p in 0..hw {
                let gv: &[f32; L] = gs[(o * hw + p) * g.b + s0..][..L]
                    .try_into()
                    .expect("lane block");
                for (a, &v) in acc.iter_mut().zip(gv) {
                    *a += v;
                }
            }
            for a in acc {
                grad_b[o] += a;
            }
        }
        let mut o0 = 0;
        while o0 < self.out_ch {
            let ob = if o0 + TILE_CH <= self.out_ch {
                TILE_CH
            } else {
                1
            };
            let mut i0 = 0;
            while i0 < g.c {
                let ib = if i0 + GRAD_IB <= g.c { GRAD_IB } else { 1 };
                let at = (o0, i0, s0);
                match (ob, ib) {
                    (TILE_CH, GRAD_IB) => {
                        self.weight_grad_tile::<L, TILE_CH, GRAD_IB>(xs, gs, g, at, grad_w)
                    }
                    (TILE_CH, _) => self.weight_grad_tile::<L, TILE_CH, 1>(xs, gs, g, at, grad_w),
                    (_, GRAD_IB) => self.weight_grad_tile::<L, 1, GRAD_IB>(xs, gs, g, at, grad_w),
                    _ => self.weight_grad_tile::<L, 1, 1>(xs, gs, g, at, grad_w),
                }
                i0 += ib;
            }
            o0 += ob;
        }
        L
    }

    /// Weight gradients from input channels `i0..i0 + IB` to output
    /// channels `o0..o0 + OB`, lanes `s0..s0 + L`: per tap `(dh, dw)`,
    /// the per-sample scan over the in-bounds output positions in
    /// `(oh, ow)` order, lane-parallel (see [`grad_span`]), whose sums
    /// then add into `grad_w` lane by lane.
    fn weight_grad_tile<const L: usize, const OB: usize, const IB: usize>(
        &self,
        xs: &[f32],
        gs: &[f32],
        g: FlatGeom,
        (o0, i0, s0): (usize, usize, usize),
        grad_w: &mut [f32],
    ) {
        let (ph, pw) = (self.kh / 2, self.kw / 2);
        let (b, len) = (g.b, g.len);
        let w = len / b;
        for dh in 0..self.kh {
            for dw in 0..self.kw {
                let ow_lo = pw.saturating_sub(dw);
                let ow_hi = (w + pw).saturating_sub(dw).min(w);
                let mut acc = [[[0.0f32; L]; IB]; OB];
                for oh in 0..g.h {
                    let ih = oh + dh;
                    // No in-bounds term: a row tap or, on a row narrower
                    // than the kernel, a column tap past both ends.
                    if ih < ph || ih - ph >= g.h || ow_lo >= ow_hi {
                        continue;
                    }
                    let grows = std::array::from_fn(|j| {
                        &gs[((o0 + j) * g.h + oh) * len..][..len][ow_lo * b + s0..]
                    });
                    let xrows = std::array::from_fn(|q| {
                        &xs[((i0 + q) * g.h + ih - ph) * len..][..len][(ow_lo + dw - pw) * b + s0..]
                    });
                    grad_span(grows, xrows, ow_hi - ow_lo, b, &mut acc);
                }
                for (j, a) in acc.iter().enumerate() {
                    for (q, a) in a.iter().enumerate() {
                        let wi = self.widx(o0 + j, i0 + q, dh, dw);
                        for &v in a {
                            grad_w[wi] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Input channels per weight-gradient register tile: with [`TILE_CH`]
/// output channels, eight 16-lane accumulators share each input load.
const GRAD_IB: usize = 2;

/// Adds `g·x` lane-wise over `n` consecutive output positions (flat
/// stride `b`) into `acc[j][q]`, pairing gradient row `grows[j]` with
/// input row `xrows[q]`; each slice starts at the span's first lane
/// block. Out of line, like [`FrozenConv2d::flat_tile`], so the
/// accumulators stay in registers across the span.
#[inline(never)]
fn grad_span<const L: usize, const OB: usize, const IB: usize>(
    grows: [&[f32]; OB],
    xrows: [&[f32]; IB],
    n: usize,
    b: usize,
    acc: &mut [[[f32; L]; IB]; OB],
) {
    let mut a = *acc;
    for k in 0..n {
        let xv: [&[f32; L]; IB] =
            std::array::from_fn(|q| xrows[q][k * b..][..L].try_into().expect("lane block"));
        for (aj, grow) in a.iter_mut().zip(grows) {
            let gv: &[f32; L] = grow[k * b..][..L].try_into().expect("lane block");
            for (aq, xv) in aj.iter_mut().zip(xv) {
                for ((av, &gl), &xl) in aq.iter_mut().zip(gv).zip(xv) {
                    *av += gl * xl;
                }
            }
        }
    }
    *acc = a;
}

/// Mirrors both spatial axes of `b`-lane planes in place: position `p`
/// of each channel's `hw` positions trades places with `hw − 1 − p`,
/// each moving its `b` lanes as they are.
fn mirror_positions(data: &mut [f32], hw: usize, b: usize) {
    for block in data.chunks_exact_mut(hw * b) {
        for p in 0..hw / 2 {
            let (head, tail) = block.split_at_mut((hw - 1 - p) * b);
            head[p * b..][..b].swap_with_slice(&mut tail[..b]);
        }
    }
}

/// Output channels per register tile: one broadcast weight per channel
/// and per tap, packed contiguously at freeze time.
///
/// The tile shape is measured, not derived. With `-C target-cpu=native`
/// on an AVX-512 host LLVM still prefers 256-bit vectors, so a 16-wide
/// vector is two ymm registers and 4 × 3 holds 24 accumulators of the
/// 32. 8 × 2 needs all 32 and spills, and 8 × 1, 2 × 4 and 4 × 4 fall
/// off a vectorizer cliff at roughly a tenth of the speed.
const TILE_CH: usize = 4;
/// [`LANES`]-wide vectors of consecutive flat outputs per register tile
/// (see [`TILE_CH`]).
const TILE_VECS: usize = 3;

/// The frozen convolution: weights only, batched kernels over the
/// interleaved planes of an [`InferCtx`].
pub(crate) struct FrozenConv2d {
    in_ch: usize,
    out_ch: usize,
    kh: usize,
    kw: usize,
    /// `[out/4][in][kh][kw][4]`, the last channel block zero-padded.
    weight: Vec<f32>,
    bias: Vec<f32>,
}

impl FrozenConv2d {
    /// Packs the kernel whose tap `(dh, dw)` from input channel `i` to
    /// output channel `o` is `weight(o, i, dh, dw)`.
    fn new(
        (in_ch, out_ch): (usize, usize),
        (kh, kw): (usize, usize),
        weight: impl Fn(usize, usize, usize, usize) -> f32,
        bias: Vec<f32>,
    ) -> Self {
        let mut frozen = FrozenConv2d {
            in_ch,
            out_ch,
            kh,
            kw,
            weight: vec![0.0; out_ch.div_ceil(TILE_CH) * TILE_CH * in_ch * kh * kw],
            bias,
        };
        for o in 0..out_ch {
            for i in 0..in_ch {
                for dh in 0..kh {
                    for dw in 0..kw {
                        let packed = frozen.widx(o, i, dh, dw);
                        frozen.weight[packed] = weight(o, i, dh, dw);
                    }
                }
            }
        }
        frozen
    }

    /// Output channel count (the frozen attention block sizes its
    /// logits plane from this).
    pub(crate) fn out_ch(&self) -> usize {
        self.out_ch
    }

    #[inline]
    fn widx(&self, o: usize, i: usize, dh: usize, dw: usize) -> usize {
        ((((o / TILE_CH) * self.in_ch + i) * self.kh + dh) * self.kw + dw) * TILE_CH + o % TILE_CH
    }

    /// Runs the batched convolution from `xs` (shape `(c, h, w)`, `b`
    /// interleaved lanes) into `os`, overwriting every element: runs
    /// [`FrozenConv2d::flat_tile`] over every 48-wide span of every
    /// output row, the interior tiles reading `xs` in place and each
    /// edge tile a zero-haloed copy of its window in the workspace
    /// `window` (see the module docs).
    pub(crate) fn run(
        &self,
        xs: &[f32],
        os: &mut [f32],
        (c, h, w): (usize, usize, usize),
        b: usize,
        window: &mut Vec<f32>,
    ) {
        assert_eq!(c, self.in_ch, "input channel mismatch");
        let len = w * b;
        let pad = self.kw / 2 * b;
        // Tile t computes flat outputs from t·48 and reads flat inputs
        // t·48 − pad .. t·48 + 48 + pad: inside the row for the tiles
        // lo..hi, partly outside it for the edge tiles before and after.
        let tiles = len.div_ceil(FLAT_TILE);
        let lo = pad.div_ceil(FLAT_TILE).min(tiles);
        let hi = (len.saturating_sub(pad) / FLAT_TILE).max(lo);
        let g = FlatGeom { c, h, b, len };
        for o0 in (0..self.out_ch).step_by(TILE_CH) {
            for oh in 0..h {
                for t in lo..hi {
                    let x = TileRows {
                        data: xs,
                        stride: len,
                        base: t * FLAT_TILE - pad,
                    };
                    self.tile(x, os, g, o0, oh, t * FLAT_TILE);
                }
            }
        }
        // One edge tile at a time keeps the workspace small: holding every
        // edge window at once measured several MiB more peak RSS on the
        // paper model than the windows themselves take.
        let win = FLAT_TILE + 2 * pad;
        resize_buf(window, c * h * win);
        for t in (0..lo).chain(hi..tiles) {
            let skip = pad.saturating_sub(t * FLAT_TILE);
            let first = (t * FLAT_TILE).saturating_sub(pad);
            let n = len.saturating_sub(first).min(win - skip);
            for (dst, row) in window.chunks_exact_mut(win).zip(xs.chunks_exact(len)) {
                let (zeros, rest) = dst.split_at_mut(skip);
                let (inside, after) = rest.split_at_mut(n);
                zeros.fill(0.0);
                inside.copy_from_slice(&row[first..first + n]);
                after.fill(0.0);
            }
            let x = TileRows {
                data: window,
                stride: win,
                base: 0,
            };
            for o0 in (0..self.out_ch).step_by(TILE_CH) {
                for oh in 0..h {
                    self.tile(x, os, g, o0, oh, t * FLAT_TILE);
                }
            }
        }
    }

    /// One [`FrozenConv2d::flat_tile`] over the channel block from `o0`:
    /// a full [`TILE_CH`] block, or the channels left over after the
    /// last one, one at a time.
    fn tile(&self, x: TileRows, os: &mut [f32], g: FlatGeom, o0: usize, oh: usize, g0: usize) {
        if o0 + TILE_CH <= self.out_ch {
            self.flat_tile::<TILE_CH>(x, os, g, o0, oh, g0);
        } else {
            for o in o0..self.out_ch {
                self.flat_tile::<1>(x, os, g, o, oh, g0);
            }
        }
    }

    /// Flat-axis tile: `OB` output channels × [`FLAT_TILE`] consecutive
    /// flat outputs `g0..g0 + 48` of output row `oh`, every accumulator
    /// in a vector register, stored straight into `os` (the last tile of
    /// a row stores only the outputs that exist). Tap `dw` of flat
    /// output `g0 + k` is input `k + dw·b` of its window in `x`, so the
    /// scan has no border case.
    /// Term order per output is the reference's: `(i, dh, dw)`
    /// ascending with the out-of-bounds `dh` rows skipped, bias last.
    ///
    /// Measured codegen: the tile stores its own results, since returning
    /// the accumulators by value spills them on every tap, and it stays
    /// out of line, since inlined into `run` LLVM keeps them in
    /// memory and stores all 24 vectors on every tap.
    #[inline(never)]
    fn flat_tile<const OB: usize>(
        &self,
        x: TileRows,
        os: &mut [f32],
        g: FlatGeom,
        o0: usize,
        oh: usize,
        g0: usize,
    ) {
        debug_assert!(o0 % TILE_CH + OB <= TILE_CH, "OB channels span one block");
        let (kw, ph) = (self.kw, self.kh / 2);
        let (dh_lo, dh_hi) = (ph.saturating_sub(oh), (g.h + ph - oh).min(self.kh));
        let mut acc = [[[0.0f32; LANES]; TILE_VECS]; OB];
        for i in 0..g.c {
            for dh in dh_lo..dh_hi {
                let ih = oh + dh - ph;
                // The input window and packed weight row of this (i, dh),
                // sliced once so the dw loop runs without bounds checks.
                let xbase = (i * g.h + ih) * x.stride + x.base;
                let xwin = &x.data[xbase..xbase + (kw - 1) * g.b + FLAT_TILE];
                let wbase = self.widx(o0, i, dh, 0);
                let wrow = &self.weight[wbase..wbase + (kw - 1) * TILE_CH + OB];
                for dw in 0..kw {
                    let wv: &[f32; OB] = wrow[dw * TILE_CH..][..OB]
                        .try_into()
                        .expect("packed channel block");
                    let x = &xwin[dw * g.b..][..FLAT_TILE];
                    let xv: [[f32; LANES]; TILE_VECS] = std::array::from_fn(|v| {
                        x[v * LANES..][..LANES].try_into().expect("full vector")
                    });
                    for (a, &wv) in acc.iter_mut().zip(wv) {
                        for (av, xv) in a.iter_mut().zip(&xv) {
                            for (av, &x) in av.iter_mut().zip(xv) {
                                *av += wv * x;
                            }
                        }
                    }
                }
            }
        }
        let n = (g.len - g0).min(FLAT_TILE);
        for (j, a) in acc.iter().enumerate() {
            let bias = self.bias[o0 + j];
            let mut out = [0.0f32; FLAT_TILE];
            for (ov, &av) in out.iter_mut().zip(a.as_flattened()) {
                *ov = av + bias;
            }
            let ob = ((o0 + j) * g.h + oh) * g.len + g0;
            os[ob..ob + n].copy_from_slice(&out[..n]);
        }
    }
}

/// Flat outputs per [`FrozenConv2d::flat_tile`]: [`TILE_VECS`] vectors
/// of [`LANES`].
const FLAT_TILE: usize = TILE_VECS * LANES;

/// The flat-axis geometry of one [`FrozenConv2d::run`] call: input
/// channels and rows, batch size `b` and the row length `w·b`.
#[derive(Clone, Copy)]
struct FlatGeom {
    c: usize,
    h: usize,
    b: usize,
    len: usize,
}

/// Where one [`FrozenConv2d::flat_tile`] reads its inputs: the window of
/// input row `r` starts at `data[r·stride + base]`.
#[derive(Clone, Copy)]
struct TileRows<'a> {
    data: &'a [f32],
    stride: usize,
    base: usize,
}

impl InferOp for FrozenConv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        let [c, h, w]: [usize; 3] = ctx.shape().try_into().expect("conv input must be rank 3");
        let mut window = std::mem::take(&mut ctx.conv_window);
        ctx.produce(&[self.out_ch, h, w], |xs, os, _, b| {
            self.run(xs, os, (c, h, w), b, &mut window);
        });
        ctx.conv_window = window;
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        conv_out_shape(self.in_ch, self.out_ch, in_shape)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn backward_batch(&self, x: &Planes, grad: Planes, ctx: &mut LayerCtx) -> Planes {
        self.add_batch_param_grads(x, &grad, ctx);
        let (c, h, w) = x.dims3("conv");
        let b = grad.batch_size();
        let mut mirrored = grad;
        mirror_positions(mirrored.as_mut_slice(), h * w, b);
        let mut gx = Planes::zeros(&[c, h, w], b);
        self.input_grad_op().run(
            mirrored.as_slice(),
            gx.as_mut_slice(),
            (self.out_ch, h, w),
            b,
            &mut Vec::new(),
        );
        mirror_positions(gx.as_mut_slice(), h * w, b);
        gx
    }

    fn freeze(&self) -> Box<dyn InferOp> {
        Box::new(self.frozen())
    }

    fn freeze_int8(&self, in_scale: f32, out_scale: f32) -> Option<Int8Freeze> {
        // Widths outside the monomorphized im2col dispatch stay on the
        // f32 op: the pipeline still assembles, this layer just rides
        // between dequantize/quantize hops instead of panicking at
        // first inference inside a serving worker.
        if !Int8Conv2d::supports_width(self.kw) {
            return None;
        }
        let parts = quantize_layer(&self.weight, &self.bias, self.out_ch, in_scale, out_scale);
        Some(Int8Freeze::Requantized(Box::new(Int8Conv2d {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            kh: self.kh,
            kw: self.kw,
            weight: parts.weight,
            m: parts.m,
            bq: parts.bq,
            out_scale,
        })))
    }

    fn weights(&self) -> Vec<&[f32]> {
        vec![&self.weight, &self.bias]
    }

    fn weights_mut(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use crate::testkit::{self, reference};
    use deepcsi_nn_ref::Spec;

    fn conv_net(conv: Conv2d) -> crate::Network {
        let mut net = crate::Network::new();
        net.push(conv);
        net
    }

    fn infer(net: &crate::Network, x: &Tensor) -> Tensor {
        let frozen = net.freeze();
        frozen.infer(x, &mut frozen.ctx())
    }

    #[test]
    fn output_shape_is_same_padded() {
        let net = conv_net(Conv2d::new(2, 4, (1, 7), 1));
        let y = infer(&net, &Tensor::zeros(vec![2, 1, 20]));
        assert_eq!(y.shape(), &[4, 1, 20]);
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, (1, 3), 1);
        // Kernel [0, 1, 0], bias 0 → identity.
        conv.weight.copy_from_slice(&[0.0, 1.0, 0.0]);
        conv.bias[0] = 0.0;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![1, 1, 4]);
        assert_eq!(infer(&conv_net(conv), &x).as_slice(), x.as_slice());
    }

    #[test]
    fn known_convolution_value() {
        let mut conv = Conv2d::new(1, 1, (1, 3), 1);
        conv.weight.copy_from_slice(&[1.0, 1.0, 1.0]);
        conv.bias[0] = 0.5;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![1, 1, 3]);
        // Same padding: [0+1+2, 1+2+3, 2+3+0] + 0.5.
        assert_eq!(infer(&conv_net(conv), &x).as_slice(), &[3.5, 6.5, 5.5]);
    }

    #[test]
    fn param_count_matches_formula() {
        let net = conv_net(Conv2d::new(128, 128, (1, 7), 0));
        assert_eq!(net.num_params(), 128 * 128 * 7 + 128);
    }

    #[test]
    fn frozen_matches_reference_across_batch_sizes() {
        // One leftover-channel tile only (3 channels, no full tile); then
        // a 2-D kernel with two full channel tiles plus a leftover
        // channel, whose tile rows clip at the top and bottom; then a
        // 1-wide kernel on rows of whole tiles, so no tile is an edge
        // tile. The batch sizes put the 48-wide tiles across row ends.
        for (in_ch, out_ch, kernel, (h, w)) in [
            (2, 3, (1, 5), (1, 6)),
            (2, 9, (3, 5), (3, 14)),
            (2, 5, (1, 1), (1, 48)),
        ] {
            let specs = [Spec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                seed: 11,
            }];
            let net = testkit::network(&specs);
            let mut oracle = reference(&net, &specs, &[in_ch, h, w]);
            let model = net.freeze();
            for b in [1usize, 7, 16, 19, 33] {
                let xs: Vec<Tensor> = (0..b)
                    .map(|s| {
                        Tensor::from_vec(
                            (0..in_ch * h * w)
                                .map(|e| ((e * 5 + s * 3) % 9) as f32 * 0.25 - 1.0)
                                .collect(),
                            vec![in_ch, h, w],
                        )
                    })
                    .collect();
                let mut ctx = model.ctx();
                let got = model.infer_batch(&xs, &mut ctx);
                for (x, g) in xs.iter().zip(&got) {
                    assert_eq!(oracle.forward(x.as_slice(), false), g.as_slice(), "b={b}");
                }
            }
        }
    }

    #[test]
    fn gradient_check_small() {
        // Centered finite differences on every parameter and input of a
        // tiny conv, one sample and then three.
        let mut net = conv_net(Conv2d::new(2, 2, (1, 3), 3));
        let xs: Vec<Tensor> = (0..3)
            .map(|s| {
                Tensor::from_vec(
                    (0..12).map(|i| ((i + 5 * s) as f32 * 0.3).sin()).collect(),
                    vec![2, 1, 6],
                )
            })
            .collect();
        for b in [1, 3] {
            testkit::gradient_check(&mut net, &xs[..b], 1e-3, 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "odd kernels")]
    fn even_kernel_panics() {
        let _ = Conv2d::new(1, 1, (1, 2), 0);
    }
}
