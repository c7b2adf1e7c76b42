//! Fully-connected layer.

use crate::frozen::{InferCtx, InferOp, LANES};
use crate::init::lecun_normal;
use crate::layer::{Layer, ParamView};
use crate::planes::Planes;
use crate::quant::ops::{dense_out_shape, Int8Dense};
use crate::quant::{quantize_layer, Int8Freeze};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully-connected layer `y = W x + b` over rank-1 inputs.
#[derive(Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    weight: Vec<f32>, // [out][in]
    bias: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    cache_x: Option<Tensor>,
    batch_x: Option<Planes>,
}

impl Dense {
    /// Creates a dense layer with LeCun-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "zero dims");
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xDE45E);
        Dense {
            in_dim,
            out_dim,
            weight: lecun_normal(&mut rng, in_dim, in_dim * out_dim),
            bias: vec![0.0; out_dim],
            grad_w: vec![0.0; in_dim * out_dim],
            grad_b: vec![0.0; out_dim],
            cache_x: None,
            batch_x: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Computes `OB` output rows × `LANES` batch lanes of `y = W x + b` with
/// all accumulators in registers: the constant trip counts let the
/// compiler fully unroll and vectorize the j/s loops, so each k step is
/// one lane load plus `OB` broadcast-FMAs, their weights adjacent in the
/// packed `Wᵀ` row. The `OB` rows lie in one packed block.
#[inline(always)]
fn lane_kernel<const OB: usize>(
    dense: &FrozenDense,
    xs: &[f32],
    os: &mut [f32],
    b: usize,
    o0: usize,
    s0: usize,
) {
    let (in_dim, off) = (dense.in_dim, o0 % LANES);
    debug_assert!(off + OB <= LANES, "OB rows span one block");
    let wblock = &dense.weight[o0 / LANES * in_dim * LANES..][..in_dim * LANES];
    let mut acc = [[0.0f32; LANES]; OB];
    for (j, a) in acc.iter_mut().enumerate() {
        *a = [dense.bias[o0 + j]; LANES];
    }
    for (k, wrow) in wblock.chunks_exact(LANES).enumerate() {
        let base = k * b + s0;
        let xrow: &[f32; LANES] = xs[base..base + LANES].try_into().expect("full lane block");
        let wv: &[f32; OB] = wrow[off..off + OB].try_into().expect("packed row block");
        for (a, &wv) in acc.iter_mut().zip(wv) {
            for (av, &xv) in a.iter_mut().zip(xrow) {
                *av += wv * xv;
            }
        }
    }
    for (j, a) in acc.iter().enumerate() {
        let ob = (o0 + j) * b + s0;
        os[ob..ob + LANES].copy_from_slice(a);
    }
}

/// Computes all outputs of `y = W x + b` for the one sample `s`, one
/// block of [`LANES`] output rows at a time: each k step is one packed
/// `Wᵀ` row load and one broadcast input, read in place at stride `b`.
/// Each output starts from its bias and adds the inputs in ascending k,
/// as `Dense::forward` does; the zero-padded rows of the last block are
/// computed and dropped.
fn tail_kernel(dense: &FrozenDense, xs: &[f32], os: &mut [f32], b: usize, s: usize) {
    let blocks = dense.weight.chunks_exact(dense.in_dim * LANES);
    for (o0, wblock) in (0..dense.out_dim).step_by(LANES).zip(blocks) {
        let rows = (dense.out_dim - o0).min(LANES);
        let mut acc = [0.0f32; LANES];
        acc[..rows].copy_from_slice(&dense.bias[o0..o0 + rows]);
        for (wrow, xk) in wblock.chunks_exact(LANES).zip(xs[s..].iter().step_by(b)) {
            for (av, &wv) in acc.iter_mut().zip(wrow) {
                *av += wv * xk;
            }
        }
        for (j, &av) in acc[..rows].iter().enumerate() {
            os[(o0 + j) * b + s] = av;
        }
    }
}

/// The frozen dense layer: weights only, register-blocked batched
/// kernels over the interleaved planes of an [`InferCtx`].
struct FrozenDense {
    in_dim: usize,
    out_dim: usize,
    /// `Wᵀ` packed `[out/16][in][16]`, the last block zero-padded.
    weight: Vec<f32>,
    bias: Vec<f32>,
}

impl FrozenDense {
    /// Packs the `out_dim × in_dim` matrix whose row `o`, column `k` is
    /// `weight(o, k)`.
    fn new(
        in_dim: usize,
        out_dim: usize,
        weight: impl Fn(usize, usize) -> f32,
        bias: &[f32],
    ) -> Self {
        let mut packed = vec![0.0; out_dim.div_ceil(LANES) * LANES * in_dim];
        for o in 0..out_dim {
            for k in 0..in_dim {
                packed[((o / LANES) * in_dim + k) * LANES + o % LANES] = weight(o, k);
            }
        }
        FrozenDense {
            in_dim,
            out_dim,
            weight: packed,
            bias: bias.to_vec(),
        }
    }

    /// One weight-matrix pass serves each whole lane block. The hot path
    /// is a register-blocked micro-kernel (see [`lane_kernel`]):
    /// LANES-wide accumulators stay in vector registers across the whole
    /// k loop and OB output rows share each input-lane load. The
    /// `b % LANES` leftover samples run [`tail_kernel`] instead.
    /// Accumulation order per output matches `Dense::forward` — bias,
    /// then inputs in ascending order — so results stay bit-equal.
    ///
    /// The split is measured: run over whole blocks too, the tail kernel
    /// loads a weight row per FMA where the lane tile loads one input
    /// row per eight, and the op takes 2.3–2.7× as long at b = 16 and
    /// b = 32 in both the demo and the paper model (AVX-512 host,
    /// alternated in one process).
    fn run(&self, xs: &[f32], os: &mut [f32], b: usize) {
        let r = b % LANES;
        for s0 in (0..b - r).step_by(LANES) {
            let mut o0 = 0;
            while o0 + 8 <= self.out_dim {
                lane_kernel::<8>(self, xs, os, b, o0, s0);
                o0 += 8;
            }
            while o0 < self.out_dim {
                lane_kernel::<1>(self, xs, os, b, o0, s0);
                o0 += 1;
            }
        }
        for s in b - r..b {
            tail_kernel(self, xs, os, b, s);
        }
    }
}

impl InferOp for FrozenDense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        assert_eq!(ctx.elems(), self.in_dim, "dense input length mismatch");
        ctx.produce(&[self.out_dim], |xs, os, _, b| self.run(xs, os, b));
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        dense_out_shape(self.in_dim, self.out_dim, in_shape)
    }
}

impl Dense {
    fn frozen(&self) -> FrozenDense {
        FrozenDense::new(
            self.in_dim,
            self.out_dim,
            |o, k| self.weight[o * self.in_dim + k],
            &self.bias,
        )
    }
}

/// Adds the `b` lanes' outer products into `grad_w` (`out × in`, row
/// major), lane by lane: `grad_w[o][i] += g[o][s]·x[i][s]` for
/// `s = 0..b`, the order `b` successive `backward` calls add them in.
///
/// Each register tile holds four rows × [`LANES`] columns of `grad_w`
/// across the whole lane loop, so a weight is loaded and stored once
/// per batch; the inputs are first transposed sample-major so each lane
/// reads a contiguous input row.
fn add_outer_products(
    grad_w: &mut [f32],
    gs: &[f32],
    xs: &[f32],
    (out_dim, in_dim): (usize, usize),
    b: usize,
) {
    const ROWS: usize = 4;
    let mut xt = vec![0.0f32; b * in_dim];
    for (i, lanes) in xs.chunks_exact(b).enumerate() {
        for (s, &v) in lanes.iter().enumerate() {
            xt[s * in_dim + i] = v;
        }
    }
    let whole = in_dim - in_dim % LANES;
    let mut o0 = 0;
    while o0 < out_dim {
        let rows = (out_dim - o0).min(ROWS);
        for i0 in (0..whole).step_by(LANES) {
            let mut acc = [[0.0f32; LANES]; ROWS];
            for (j, a) in acc[..rows].iter_mut().enumerate() {
                a.copy_from_slice(&grad_w[(o0 + j) * in_dim + i0..][..LANES]);
            }
            for s in 0..b {
                let xv: &[f32; LANES] = xt[s * in_dim + i0..][..LANES]
                    .try_into()
                    .expect("full lane block");
                for (j, a) in acc[..rows].iter_mut().enumerate() {
                    let g = gs[(o0 + j) * b + s];
                    for (av, &x) in a.iter_mut().zip(xv) {
                        *av += g * x;
                    }
                }
            }
            for (j, a) in acc[..rows].iter().enumerate() {
                grad_w[(o0 + j) * in_dim + i0..][..LANES].copy_from_slice(a);
            }
        }
        for o in o0..o0 + rows {
            for i in whole..in_dim {
                for s in 0..b {
                    grad_w[o * in_dim + i] += gs[o * b + s] * xt[s * in_dim + i];
                }
            }
        }
        o0 += rows;
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    #[allow(clippy::needless_range_loop)] // o indexes weight rows and outputs in lockstep
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.len(), self.in_dim, "dense input length mismatch");
        let xs = x.as_slice();
        let mut out = Tensor::zeros(vec![self.out_dim]);
        let os = out.as_mut_slice();
        for o in 0..self.out_dim {
            let row = &self.weight[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.bias[o];
            for (wv, xv) in row.iter().zip(xs.iter()) {
                acc += wv * xv;
            }
            os[o] = acc;
        }
        self.cache_x = Some(x.clone());
        out
    }

    #[allow(clippy::needless_range_loop)] // o indexes weight rows and grads in lockstep
    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("backward without forward");
        let xs = x.as_slice();
        let gs = grad.as_slice();
        let mut gx = Tensor::zeros(vec![self.in_dim]);
        let gxs = gx.as_mut_slice();
        for o in 0..self.out_dim {
            let g = gs[o];
            self.grad_b[o] += g;
            let row = &self.weight[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut self.grad_w[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                grow[i] += g * xs[i];
                gxs[i] += g * row[i];
            }
        }
        gx
    }

    fn forward_batch(&mut self, x: Planes, _train: bool) -> Planes {
        assert_eq!(x.elems(), self.in_dim, "dense input length mismatch");
        let mut out = Planes::zeros(&[self.out_dim], x.batch_size());
        self.frozen()
            .run(x.as_slice(), out.as_mut_slice(), x.batch_size());
        self.batch_x = Some(x);
        out
    }

    /// The input gradient is the frozen forward of `Wᵀ` with a zero
    /// bias: each lane's `∂x_i` starts from `+0.0` and adds `g_o·W[o][i]`
    /// in ascending `o`, as `backward` does (its `W[o][i]·g_o` products
    /// are the same floats). Each weight then adds its lanes' `g_o·x_i`
    /// in lane order (see `add_outer_products`).
    fn backward_batch(&mut self, grad: Planes) -> Planes {
        let x = self.batch_x.take().expect("backward without forward");
        let b = x.batch_size();
        let (xs, gs) = (x.as_slice(), grad.as_slice());
        for (gb, g) in self.grad_b.iter_mut().zip(gs.chunks_exact(b)) {
            for &v in g {
                *gb += v;
            }
        }
        add_outer_products(&mut self.grad_w, gs, xs, (self.out_dim, self.in_dim), b);
        let transposed = FrozenDense::new(
            self.out_dim,
            self.in_dim,
            |i, o| self.weight[o * self.in_dim + i],
            &vec![0.0; self.in_dim],
        );
        let mut gx = Planes::zeros(&[self.in_dim], b);
        transposed.run(gs, gx.as_mut_slice(), b);
        gx
    }

    fn freeze(&self) -> Box<dyn InferOp> {
        Box::new(self.frozen())
    }

    fn freeze_int8(&self, in_scale: f32, out_scale: f32) -> Option<Int8Freeze> {
        let parts = quantize_layer(&self.weight, &self.bias, self.out_dim, in_scale, out_scale);
        Some(Int8Freeze::Requantized(Box::new(Int8Dense {
            in_dim: self.in_dim,
            out_dim: self.out_dim,
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

    fn weights(&self) -> Vec<&[f32]> {
        vec![&self.weight, &self.bias]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_affine_map() {
        let mut d = Dense::new(2, 2, 0);
        d.weight.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        d.bias.copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], vec![2]);
        let y = d.forward(&x, false);
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn param_count() {
        let mut d = Dense::new(896, 128, 0);
        assert_eq!(d.num_params(), 896 * 128 + 128);
    }

    #[test]
    fn frozen_matches_forward_across_batch_sizes() {
        let mut d = Dense::new(10, 7, 3);
        let model = crate::FrozenModel::from_ops(vec![d.freeze()]);
        for b in [1usize, 15, 16, 17, 48] {
            let xs: Vec<Tensor> = (0..b)
                .map(|s| {
                    Tensor::from_vec(
                        (0..10)
                            .map(|e| ((e * 7 + s) % 11) as f32 * 0.2 - 1.0)
                            .collect(),
                        vec![10],
                    )
                })
                .collect();
            let mut ctx = model.ctx();
            let got = model.infer_batch(&xs, &mut ctx);
            for (x, g) in xs.iter().zip(&got) {
                assert_eq!(d.forward(x, false).as_slice(), g.as_slice(), "b={b}");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // wi indexes weight and grad in lockstep
    fn gradient_check() {
        let mut d = Dense::new(3, 2, 1);
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.1], vec![3]);
        let y = d.forward(&x, true);
        let ones = Tensor::from_vec(vec![1.0; 2], y.shape().to_vec());
        d.zero_grads();
        let _ = d.forward(&x, true);
        let gx = d.backward(&ones);

        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp: f32 = d.forward(&xp, false).as_slice().iter().sum();
            let fm: f32 = d.forward(&xm, false).as_slice().iter().sum();
            let want = (fp - fm) / (2.0 * eps);
            assert!((want - gx.as_slice()[i]).abs() < 1e-2);
        }
        let gw = d.grad_w.clone();
        for wi in 0..d.weight.len() {
            let orig = d.weight[wi];
            d.weight[wi] = orig + eps;
            let fp: f32 = d.forward(&x, false).as_slice().iter().sum();
            d.weight[wi] = orig - eps;
            let fm: f32 = d.forward(&x, false).as_slice().iter().sum();
            d.weight[wi] = orig;
            let want = (fp - fm) / (2.0 * eps);
            assert!((want - gw[wi]).abs() < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_input_length_panics() {
        let mut d = Dense::new(3, 2, 1);
        let _ = d.forward(&Tensor::zeros(vec![4]), false);
    }
}
