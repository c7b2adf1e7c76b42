//! 2-D convolution with "same" zero padding.

use crate::frozen::{InferCtx, InferOp, LANES};
use crate::init::lecun_normal;
use crate::layer::{Layer, ParamView};
use crate::quant::ops::{conv_out_shape, Int8Conv2d};
use crate::quant::{quantize_layer, Int8Freeze};
use crate::tensor::Tensor;
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
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    cache_x: Option<Tensor>,
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
            grad_w: vec![0.0; n],
            grad_b: vec![0.0; out_ch],
            cache_x: None,
        }
    }

    #[inline]
    fn widx(&self, o: usize, i: usize, dh: usize, dw: usize) -> usize {
        ((o * self.in_ch + i) * self.kh + dh) * self.kw + dw
    }

    /// Snapshots the weights into the immutable batched-inference op
    /// (also embedded by the frozen attention block), packed into the
    /// tile kernel's `[out/4][in][kh][kw][4]` layout.
    pub(crate) fn frozen(&self) -> FrozenConv2d {
        let mut frozen = FrozenConv2d {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            kh: self.kh,
            kw: self.kw,
            weight: vec![
                0.0;
                self.out_ch.div_ceil(TILE_CH) * TILE_CH * self.in_ch * self.kh * self.kw
            ],
            bias: self.bias.clone(),
        };
        for o in 0..self.out_ch {
            for i in 0..self.in_ch {
                for dh in 0..self.kh {
                    for dw in 0..self.kw {
                        let packed = frozen.widx(o, i, dh, dw);
                        frozen.weight[packed] = self.weight[self.widx(o, i, dh, dw)];
                    }
                }
            }
        }
        frozen
    }
}

/// Output channels per register tile: one broadcast weight per channel
/// and per tap, packed contiguously at freeze time.
///
/// The tile shape is measured, not derived. With `-C target-cpu=native`
/// on an AVX-512 host LLVM still prefers 256-bit vectors, so a 16-lane
/// row is two ymm registers and 4 × 3 holds 24 accumulators of the 32.
/// 8 × 2 needs all 32 and spills, and 8 × 1, 2 × 4 and 4 × 4 fall off a
/// vectorizer cliff at roughly a tenth of the speed.
const TILE_CH: usize = 4;
/// Adjacent interior columns per register tile (see [`TILE_CH`]).
const TILE_COLS: usize = 3;

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
    /// Output channel count (the frozen attention block sizes its
    /// logits plane from this).
    pub(crate) fn out_ch(&self) -> usize {
        self.out_ch
    }

    #[inline]
    fn widx(&self, o: usize, i: usize, dh: usize, dw: usize) -> usize {
        ((((o / TILE_CH) * self.in_ch + i) * self.kh + dh) * self.kw + dw) * TILE_CH + o % TILE_CH
    }

    /// Per-column kernel for one output position and one full
    /// `LANES`-wide lane block: `OB` output channels (within one packed
    /// block) share every input-lane load, and the accumulators stay in
    /// vector registers across the whole receptive-field scan. Runs the
    /// border columns, where taps fall off the edge, and the channels
    /// left over after the last full tile. Term order per output element
    /// matches `Conv2d::forward` — `(i, dh, dw)` ascending with
    /// out-of-bounds taps skipped, bias last — so results stay bit-equal.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn conv_col<const OB: usize>(
        &self,
        xs: &[f32],
        os: &mut [f32],
        (c, h, w): (usize, usize, usize),
        b: usize,
        o0: usize,
        s0: usize,
        (oh, ow): (usize, usize),
    ) {
        debug_assert!(o0 % TILE_CH + OB <= TILE_CH, "OB channels span one block");
        let (ph, pw) = (self.kh / 2, self.kw / 2);
        // Valid kernel rows: ih = oh + dh − ph ∈ [0, h).
        let (dh_lo, dh_hi) = (ph.saturating_sub(oh), (h + ph - oh).min(self.kh));
        // Valid kernel cols: iw = ow + dw − pw ∈ [0, w).
        let (dw_lo, dw_hi) = (pw.saturating_sub(ow), (w + pw - ow).min(self.kw));
        let mut acc = [[0.0f32; LANES]; OB];
        for i in 0..c {
            for dh in dh_lo..dh_hi {
                let ih = oh + dh - ph;
                for dw in dw_lo..dw_hi {
                    let iw = ow + dw - pw;
                    let base = ((i * h + ih) * w + iw) * b + s0;
                    let xrow: &[f32; LANES] =
                        xs[base..base + LANES].try_into().expect("full lane block");
                    let wv = &self.weight[self.widx(o0, i, dh, dw)..][..OB];
                    for (a, &wv) in acc.iter_mut().zip(wv) {
                        for (av, &xv) in a.iter_mut().zip(xrow) {
                            *av += wv * xv;
                        }
                    }
                }
            }
        }
        for (j, a) in acc.iter().enumerate() {
            let bias = self.bias[o0 + j];
            let ob = (((o0 + j) * h + oh) * w + ow) * b + s0;
            for (ov, &av) in os[ob..ob + LANES].iter_mut().zip(a) {
                *ov = av + bias;
            }
        }
    }

    /// Interior tile: `TILE_CH` output channels × `COLS` adjacent
    /// columns × one lane block, every accumulator in a vector register.
    /// Every tap of an interior column is in bounds, so the `dw` scan is
    /// unconditional, each weight load is one contiguous packed row, and
    /// adjacent columns share the input loads of overlapping taps. Term
    /// order per output is the per-column kernel's: `(i, dh, dw)`
    /// ascending, bias last.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn conv_tile<const COLS: usize>(
        &self,
        xs: &[f32],
        os: &mut [f32],
        (c, h, w): (usize, usize, usize),
        b: usize,
        o0: usize,
        s0: usize,
        (oh, ow): (usize, usize),
    ) {
        let (kw, ph, pw) = (self.kw, self.kh / 2, self.kw / 2);
        let (dh_lo, dh_hi) = (ph.saturating_sub(oh), (h + ph - oh).min(self.kh));
        let mut acc = [[[0.0f32; LANES]; COLS]; TILE_CH];
        for i in 0..c {
            for dh in dh_lo..dh_hi {
                let ih = oh + dh - ph;
                // The input window (kw + COLS − 1 taps) and the packed
                // weight row of this (i, dh), sliced once so the dw loop
                // runs without bounds checks.
                let xbase = ((i * h + ih) * w + ow - pw) * b + s0;
                let xwin = &xs[xbase..xbase + (kw + COLS - 2) * b + LANES];
                let wbase = self.widx(o0, i, dh, 0);
                let wrow = &self.weight[wbase..wbase + kw * TILE_CH];
                for dw in 0..kw {
                    let wv: &[f32; TILE_CH] = wrow[dw * TILE_CH..][..TILE_CH]
                        .try_into()
                        .expect("packed channel block");
                    let xv: [[f32; LANES]; COLS] = std::array::from_fn(|col| {
                        xwin[(dw + col) * b..][..LANES]
                            .try_into()
                            .expect("full lane block")
                    });
                    for (a, &wv) in acc.iter_mut().zip(wv) {
                        for (ac, xc) in a.iter_mut().zip(&xv) {
                            for (av, &x) in ac.iter_mut().zip(xc) {
                                *av += wv * x;
                            }
                        }
                    }
                }
            }
        }
        for (j, a) in acc.iter().enumerate() {
            let bias = self.bias[o0 + j];
            for (col, ac) in a.iter().enumerate() {
                let ob = (((o0 + j) * h + oh) * w + ow + col) * b + s0;
                for (ov, &av) in os[ob..ob + LANES].iter_mut().zip(ac) {
                    *ov = av + bias;
                }
            }
        }
    }

    /// Runs the batched convolution from `xs` (shape `(c, h, w)`, `b`
    /// interleaved lanes, a multiple of `LANES`) into `os`, overwriting
    /// every element.
    pub(crate) fn run(
        &self,
        xs: &[f32],
        os: &mut [f32],
        (c, h, w): (usize, usize, usize),
        b: usize,
    ) {
        assert_eq!(c, self.in_ch, "input channel mismatch");
        assert_eq!(b % LANES, 0, "conv runs whole lane blocks");
        let dims = (c, h, w);
        let pw = self.kw / 2;
        // Interior columns: every tap of ow ∈ [lo, hi) is in bounds.
        let lo = pw.min(w);
        let hi = w.saturating_sub(pw).max(lo);
        let full = self.out_ch - self.out_ch % TILE_CH;
        for s0 in (0..b).step_by(LANES) {
            for o0 in (0..full).step_by(TILE_CH) {
                for oh in 0..h {
                    for ow in (0..lo).chain(hi..w) {
                        self.conv_col::<TILE_CH>(xs, os, dims, b, o0, s0, (oh, ow));
                    }
                    let mut ow = lo;
                    while ow + TILE_COLS <= hi {
                        self.conv_tile::<TILE_COLS>(xs, os, dims, b, o0, s0, (oh, ow));
                        ow += TILE_COLS;
                    }
                    for ow in ow..hi {
                        self.conv_tile::<1>(xs, os, dims, b, o0, s0, (oh, ow));
                    }
                }
            }
            for o0 in full..self.out_ch {
                for oh in 0..h {
                    for ow in 0..w {
                        self.conv_col::<1>(xs, os, dims, b, o0, s0, (oh, ow));
                    }
                }
            }
        }
    }
}

impl InferOp for FrozenConv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        let [c, h, w]: [usize; 3] = ctx.shape().try_into().expect("conv input must be rank 3");
        ctx.produce_lane_blocks(&[self.out_ch, h, w], |xs, os, bp| {
            self.run(xs, os, (c, h, w), bp);
        });
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        conv_out_shape(self.in_ch, self.out_ch, in_shape)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let [c, h, w]: [usize; 3] = x.shape().try_into().expect("conv input must be rank 3");
        assert_eq!(c, self.in_ch, "input channel mismatch");
        let (ph, pw) = (self.kh / 2, self.kw / 2);
        let mut out = Tensor::zeros(vec![self.out_ch, h, w]);
        let xs = x.as_slice();
        {
            let os = out.as_mut_slice();
            for o in 0..self.out_ch {
                let out_base = o * h * w;
                for i in 0..c {
                    let in_base = i * h * w;
                    for dh in 0..self.kh {
                        for dw in 0..self.kw {
                            let wv = self.weight[self.widx(o, i, dh, dw)];
                            // Output row oh reads input row oh+dh−ph.
                            for oh in 0..h {
                                let ih = oh + dh;
                                if ih < ph || ih - ph >= h {
                                    continue;
                                }
                                let ih = ih - ph;
                                let orow = out_base + oh * w;
                                let irow = in_base + ih * w;
                                // Valid ow range for iw = ow+dw−pw ∈ [0,w).
                                let ow_lo = pw.saturating_sub(dw);
                                let ow_hi = (w + pw).saturating_sub(dw).min(w);
                                for ow in ow_lo..ow_hi {
                                    os[orow + ow] += wv * xs[irow + ow + dw - pw];
                                }
                            }
                        }
                    }
                }
                for oh in 0..h {
                    for ow in 0..w {
                        os[out_base + oh * w + ow] += self.bias[o];
                    }
                }
            }
        }
        self.cache_x = Some(x.clone());
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("backward without forward");
        let [c, h, w]: [usize; 3] = x.shape().try_into().expect("rank 3");
        let (ph, pw) = (self.kh / 2, self.kw / 2);
        let gs = grad.as_slice();
        let xs = x.as_slice();
        let mut gx = Tensor::zeros(vec![c, h, w]);
        let gxs = gx.as_mut_slice();

        for o in 0..self.out_ch {
            let out_base = o * h * w;
            // Bias gradient: sum of output grads.
            let mut gb = 0.0f32;
            for v in &gs[out_base..out_base + h * w] {
                gb += v;
            }
            self.grad_b[o] += gb;

            for i in 0..c {
                let in_base = i * h * w;
                for dh in 0..self.kh {
                    for dw in 0..self.kw {
                        let wi = self.widx(o, i, dh, dw);
                        let wv = self.weight[wi];
                        let mut gw = 0.0f32;
                        for oh in 0..h {
                            let ih = oh + dh;
                            if ih < ph || ih - ph >= h {
                                continue;
                            }
                            let ih = ih - ph;
                            let orow = out_base + oh * w;
                            let irow = in_base + ih * w;
                            let ow_lo = pw.saturating_sub(dw);
                            let ow_hi = (w + pw).saturating_sub(dw).min(w);
                            for ow in ow_lo..ow_hi {
                                let g = gs[orow + ow];
                                gw += g * xs[irow + ow + dw - pw];
                                gxs[irow + ow + dw - pw] += g * wv;
                            }
                        }
                        self.grad_w[wi] += gw;
                    }
                }
            }
        }
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

    fn params(&mut self) -> Vec<ParamView<'_>> {
        vec![
            ParamView {
                w: &mut self.weight,
                g: &mut self.grad_w,
            },
            ParamView {
                w: &mut self.bias,
                g: &mut self.grad_b,
            },
        ]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_is_same_padded() {
        let mut conv = Conv2d::new(2, 4, (1, 7), 1);
        let x = Tensor::zeros(vec![2, 1, 20]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[4, 1, 20]);
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, (1, 3), 1);
        // Kernel [0, 1, 0], bias 0 → identity.
        conv.weight.copy_from_slice(&[0.0, 1.0, 0.0]);
        conv.bias[0] = 0.0;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![1, 1, 4]);
        let y = conv.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_convolution_value() {
        let mut conv = Conv2d::new(1, 1, (1, 3), 1);
        conv.weight.copy_from_slice(&[1.0, 1.0, 1.0]);
        conv.bias[0] = 0.5;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![1, 1, 3]);
        let y = conv.forward(&x, false);
        // Same padding: [0+1+2, 1+2+3, 2+3+0] + 0.5.
        assert_eq!(y.as_slice(), &[3.5, 6.5, 5.5]);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut conv = Conv2d::new(128, 128, (1, 7), 0);
        assert_eq!(conv.num_params(), 128 * 128 * 7 + 128);
    }

    #[test]
    fn frozen_matches_forward_across_batch_sizes() {
        // Per-column kernel only (3 channels, no full tile); then a 2-D
        // kernel with two full channel tiles plus a leftover channel,
        // whose tile rows clip at the top and bottom and whose 10
        // interior columns are three 3-column tiles plus a remainder.
        for (in_ch, out_ch, k, (h, w)) in [(2, 3, (1, 5), (1, 6)), (2, 9, (3, 5), (3, 14))] {
            let mut conv = Conv2d::new(in_ch, out_ch, k, 11);
            let model = crate::FrozenModel::from_ops(vec![conv.freeze()]);
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
                    assert_eq!(conv.forward(x, false).as_slice(), g.as_slice(), "b={b}");
                }
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // wi indexes weight and grad in lockstep
    fn gradient_check_small() {
        // Centered finite differences on every parameter and input of a
        // tiny conv.
        let mut conv = Conv2d::new(2, 2, (1, 3), 3);
        let x = Tensor::from_vec(
            (0..12).map(|i| (i as f32 * 0.3).sin()).collect(),
            vec![2, 1, 6],
        );
        // Loss = sum of outputs → upstream grad of ones.
        let y = conv.forward(&x, true);
        let ones = Tensor::from_vec(vec![1.0; y.len()], y.shape().to_vec());
        conv.zero_grads();
        let _ = conv.forward(&x, true);
        let gx = conv.backward(&ones);

        let eps = 1e-3f32;
        // Input gradient check.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp: f32 = conv.forward(&xp, false).as_slice().iter().sum();
            let fm: f32 = conv.forward(&xm, false).as_slice().iter().sum();
            let want = (fp - fm) / (2.0 * eps);
            let got = gx.as_slice()[i];
            assert!(
                (want - got).abs() < 1e-2,
                "input grad {i}: fd {want} vs bp {got}"
            );
        }
        // Weight gradient check.
        let gw = conv.grad_w.clone();
        for wi in 0..conv.weight.len() {
            let orig = conv.weight[wi];
            conv.weight[wi] = orig + eps;
            let fp: f32 = conv.forward(&x, false).as_slice().iter().sum();
            conv.weight[wi] = orig - eps;
            let fm: f32 = conv.forward(&x, false).as_slice().iter().sum();
            conv.weight[wi] = orig;
            let want = (fp - fm) / (2.0 * eps);
            assert!(
                (want - gw[wi]).abs() < 1e-2,
                "weight grad {wi}: fd {want} vs bp {}",
                gw[wi]
            );
        }
    }

    #[test]
    #[should_panic(expected = "odd kernels")]
    fn even_kernel_panics() {
        let _ = Conv2d::new(1, 1, (1, 2), 0);
    }
}
