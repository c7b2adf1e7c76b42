//! Fully-connected layer.

use crate::frozen::{InferCtx, InferOp, LANES};
use crate::init::lecun_normal;
use crate::layer::{Layer, LayerCtx};
use crate::planes::Planes;
use crate::quant::ops::{dense_out_shape, Int8Dense};
use crate::quant::{quantize_layer, Int8Freeze};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully-connected layer `y = W x + b` over rank-1 inputs.
#[derive(Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    weight: Vec<f32>, // [out][in]
    bias: Vec<f32>,
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
/// as the per-sample reference does; the zero-padded rows of the last
/// block are computed and dropped.
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
    /// Accumulation order per output matches the per-sample reference —
    /// bias, then inputs in ascending order — so results stay bit-equal.
    ///
    /// The split is measured: run over whole blocks too, the tail kernel
    /// loads a weight row per FMA where the lane tile loads one input
    /// row per eight, and the op took 2.3–2.7× as long at b = 16 and
    /// b = 32 in both the demo and the paper model (AVX-512 host with
    /// 256-bit vectors, alternated in one process). Under the
    /// workspace's `-slp-max-reg-size=512` each lane-tile accumulator is
    /// one zmm register, so the 8-row tile holds 8 of the 32. Re-measured
    /// there on the paper model's dense stack at b = 16 and 32, 8 rows
    /// beat 4 in 11 of 12 alternations (about 7 % faster), and 16 rows
    /// fell off a vectorizer cliff at a tenth of the speed.
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

/// Adds the `b` lanes' outer products into `grad_w` (`out × in`, row
/// major), lane by lane: `grad_w[o][i] += g[o][s]·x[i][s]` for
/// `s = 0..b`, the order `b` successive per-sample reference `backward`
/// calls add them in.
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

    /// The input gradient is the frozen forward of `Wᵀ` with a zero
    /// bias: each lane's `∂x_i` starts from `+0.0` and adds `g_o·W[o][i]`
    /// in ascending `o`, as the reference does (its `g_o·W[o][i]`
    /// products are the same floats). Each weight then adds its lanes'
    /// `g_o·x_i` in lane order (see `add_outer_products`).
    fn backward_batch(&self, x: &Planes, grad: Planes, ctx: &mut LayerCtx) -> Planes {
        let (grad_w, grad_b) = ctx.weight_bias_grads();
        let b = x.batch_size();
        let (xs, gs) = (x.as_slice(), grad.as_slice());
        for (gb, g) in grad_b.iter_mut().zip(gs.chunks_exact(b)) {
            for &v in g {
                *gb += v;
            }
        }
        add_outer_products(grad_w, gs, xs, (self.out_dim, self.in_dim), b);
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
        Box::new(FrozenDense::new(
            self.in_dim,
            self.out_dim,
            |o, k| self.weight[o * self.in_dim + k],
            &self.bias,
        ))
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

    fn dense_net(d: Dense) -> crate::Network {
        let mut net = crate::Network::new();
        net.push(d);
        net
    }

    #[test]
    fn known_affine_map() {
        let mut d = Dense::new(2, 2, 0);
        d.weight.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        d.bias.copy_from_slice(&[0.5, -0.5]);
        let frozen = dense_net(d).freeze();
        let x = Tensor::from_vec(vec![1.0, 1.0], vec![2]);
        assert_eq!(frozen.infer(&x, &mut frozen.ctx()).as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn param_count() {
        assert_eq!(
            dense_net(Dense::new(896, 128, 0)).num_params(),
            896 * 128 + 128
        );
    }

    #[test]
    fn frozen_matches_reference_across_batch_sizes() {
        let specs = [Spec::Dense {
            in_dim: 10,
            out_dim: 7,
            seed: 3,
        }];
        let net = testkit::network(&specs);
        let mut oracle = reference(&net, &specs, &[10]);
        let model = net.freeze();
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
                assert_eq!(oracle.forward(x.as_slice(), false), g.as_slice(), "b={b}");
            }
        }
    }

    #[test]
    fn gradient_check() {
        let mut net = dense_net(Dense::new(3, 2, 1));
        let xs: Vec<Tensor> = [[0.3, -0.7, 1.1], [-0.2, 0.9, 0.4], [1.3, 0.1, -0.6]]
            .iter()
            .map(|x| Tensor::from_vec(x.to_vec(), vec![3]))
            .collect();
        for b in [1, 3] {
            testkit::gradient_check(&mut net, &xs[..b], 1e-3, 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_input_length_panics() {
        let net = dense_net(Dense::new(3, 2, 1));
        let _ = net.forward_batch(Planes::zeros(&[4], 1), false, &mut net.train_ctx());
    }
}
