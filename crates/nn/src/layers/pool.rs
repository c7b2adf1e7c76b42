//! Max pooling.

use crate::frozen::{InferCtx, InferOp};
use crate::layer::{Layer, LayerCtx};
use crate::planes::Planes;
use crate::quant::ops::{pool_out_shape, Int8MaxPool};
use crate::quant::Int8Freeze;

/// Max pooling with stride equal to the kernel (non-overlapping windows)
/// and floor truncation of ragged edges — matching the framework defaults
/// the paper's `(1, 2)` pools rely on (234 → 117 → 58 → 29 → 14 → 7).
#[derive(Clone)]
pub struct MaxPool2d {
    kh: usize,
    kw: usize,
}

impl MaxPool2d {
    /// Creates a pool with the given kernel.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized kernel.
    pub fn new((kh, kw): (usize, usize)) -> Self {
        assert!(kh > 0 && kw > 0, "zero-sized pooling kernel");
        MaxPool2d { kh, kw }
    }
}

/// The pooled `(rows, cols)` of an `(h, w)` input: floor truncation.
///
/// # Panics
///
/// Panics if the input is smaller than the kernel.
fn pooled_dims((h, w): (usize, usize), (kh, kw): (usize, usize)) -> (usize, usize) {
    let (oh, ow) = (h / kh, w / kw);
    assert!(oh > 0 && ow > 0, "input smaller than pooling kernel");
    (oh, ow)
}

/// Pools the `b`-lane planes `xs` (shape `(c, h, w)`) into `os`,
/// overwriting every element: the frozen op's kernel.
///
/// Row-wise along the flat (width × sample) axis: an input row splits
/// into `kw·b`-wide windows, and tap `(dh, dw)` of window `wi` is lanes
/// `dw·b..(dw + 1)·b` of window `wi` of input row `hi·kh + dh`. Taps run
/// in the reference's scan order, k = dh·kw + dw. The first pass seeds each
/// output row with the larger of taps 0 and 1 (tap 0 twice for a 1×1
/// kernel), and every later tap folds in as a select over the whole
/// row. No pass copies, so no element costs a `memcpy` call.
fn pool_rows(
    xs: &[f32],
    os: &mut [f32],
    (c, h, w): (usize, usize, usize),
    b: usize,
    (kh, kw): (usize, usize),
) {
    let (oh, ow) = pooled_dims((h, w), (kh, kw));
    debug_assert_eq!(os.len(), c * oh * ow * b);
    let win = kw * b;
    for (orow_idx, orow) in os.chunks_exact_mut(ow * b).enumerate() {
        let (ci, hi) = (orow_idx / oh, orow_idx % oh);
        // Tap k: its input row's windows and its lane offset.
        let tap = |k: usize| {
            let base = (ci * h + hi * kh + k / kw) * w * b;
            (&xs[base..base + ow * win], k % kw * b)
        };
        let ((r0, d0), (r1, d1)) = (tap(0), tap(1.min(kh * kw - 1)));
        for ((o, w0), w1) in orow
            .chunks_exact_mut(b)
            .zip(r0.chunks_exact(win))
            .zip(r1.chunks_exact(win))
        {
            for ((ov, &a), &x) in o.iter_mut().zip(&w0[d0..]).zip(&w1[d1..]) {
                // Strict `>` keeps the first maximum, like the reference.
                *ov = if x > a { x } else { a };
            }
        }
        for k in 2..kh * kw {
            let (rk, dk) = tap(k);
            for (o, wk) in orow.chunks_exact_mut(b).zip(rk.chunks_exact(win)) {
                for (ov, &x) in o.iter_mut().zip(&wk[dk..]) {
                    *ov = if x > *ov { x } else { *ov };
                }
            }
        }
    }
}

/// The frozen pool: kernel dims only (no parameters, no cache).
struct FrozenMaxPool2d {
    kh: usize,
    kw: usize,
}

impl InferOp for FrozenMaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        let [c, h, w]: [usize; 3] = ctx.shape().try_into().expect("pool input must be rank 3");
        let (oh, ow) = pooled_dims((h, w), (self.kh, self.kw));
        ctx.produce(&[c, oh, ow], |xs, os, _, b| {
            pool_rows(xs, os, (c, h, w), b, (self.kh, self.kw));
        });
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        pool_out_shape(in_shape, self.kh, self.kw)
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    /// Routes each lane's output gradient to the first maximum of its
    /// window, found by the reference's strict-`>` scan over the taps,
    /// all lanes at once. Windows do not overlap, so each routed input
    /// gradient is `+0.0 + g`, as the reference adds it to a zeroed
    /// tensor.
    fn backward_batch(&self, x: &Planes, grad: Planes, _ctx: &mut LayerCtx) -> Planes {
        let (c, h, w) = x.dims3("pool");
        let b = x.batch_size();
        let (kh, kw) = (self.kh, self.kw);
        let (oh, ow) = pooled_dims((h, w), (kh, kw));
        let (xs, gs) = (x.as_slice(), grad.as_slice());
        let mut gx = Planes::zeros(x.shape(), b);
        let gxs = gx.as_mut_slice();
        let (mut best, mut arg) = (vec![0.0f32; b], vec![0usize; b]);
        for ci in 0..c {
            for hi in 0..oh {
                for wi in 0..ow {
                    // Flat start of tap k's lanes.
                    let tap = |k: usize| ((ci * h + hi * kh + k / kw) * w + wi * kw + k % kw) * b;
                    best.copy_from_slice(&xs[tap(0)..][..b]);
                    arg.fill(0);
                    for k in 1..kh * kw {
                        let xk = &xs[tap(k)..][..b];
                        for ((bv, a), &v) in best.iter_mut().zip(&mut arg).zip(xk) {
                            if v > *bv {
                                *bv = v;
                                *a = k;
                            }
                        }
                    }
                    let g = &gs[((ci * oh + hi) * ow + wi) * b..][..b];
                    for k in 0..kh * kw {
                        let gk = &mut gxs[tap(k)..][..b];
                        for ((gv, &a), &g) in gk.iter_mut().zip(&arg).zip(g) {
                            if a == k {
                                *gv += g;
                            }
                        }
                    }
                }
            }
        }
        gx
    }

    fn freeze(&self) -> Box<dyn InferOp> {
        Box::new(FrozenMaxPool2d {
            kh: self.kh,
            kw: self.kw,
        })
    }

    fn freeze_int8(&self, _in_scale: f32, _out_scale: f32) -> Option<Int8Freeze> {
        // Max is monotone, so pooling the int8 plane directly is exact:
        // the scale passes through untouched and no quantization error
        // is introduced — an int8 conv → pool → conv block never leaves
        // the integer domain.
        Some(Int8Freeze::ScalePreserving(Box::new(Int8MaxPool {
            kh: self.kh,
            kw: self.kw,
        })))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use crate::testkit::{self, bits, reference};
    use deepcsi_nn_ref::Spec;

    /// The pool's frozen output for one sample.
    fn pool(k: (usize, usize), x: &Tensor) -> Tensor {
        let frozen = crate::FrozenModel::from_ops(vec![MaxPool2d::new(k).freeze()]);
        frozen.infer(x, &mut frozen.ctx())
    }

    #[test]
    fn pools_maximum_with_floor_truncation() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0, 9.0], vec![1, 1, 5]);
        let y = pool((1, 2), &x);
        // Width 5 → 2 (last element dropped).
        assert_eq!(y.shape(), &[1, 1, 2]);
        assert_eq!(y.as_slice(), &[5.0, 3.0]);
    }

    #[test]
    fn paper_width_sequence() {
        // 234 pooled by (1,2) five times: 117, 58, 29, 14, 7.
        let mut w = 234usize;
        let mut seq = Vec::new();
        for _ in 0..5 {
            w = pool((1, 2), &Tensor::zeros(vec![1, 1, w])).shape()[2];
            seq.push(w);
        }
        assert_eq!(seq, vec![117, 58, 29, 14, 7]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut net = crate::Network::new();
        net.push(MaxPool2d::new((1, 2)));
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], vec![1, 1, 4]);
        let g = Tensor::from_vec(vec![10.0, 20.0], vec![1, 1, 2]);
        let (_, gx, _) = testkit::batch_pass(&net, &[x], &[g], true);
        assert_eq!(gx[0].as_slice(), &[0.0, 10.0, 20.0, 0.0]);
    }

    #[test]
    fn multichannel_pooling() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0], vec![2, 1, 4]);
        assert_eq!(pool((1, 2), &x).as_slice(), &[2.0, 4.0, 8.0, 6.0]);
    }

    #[test]
    fn frozen_matches_reference() {
        // A 1×3 window with a ragged edge, a 2×2 window that folds taps
        // from a second row and truncates both dims, and a 1×1 window.
        for (kernel, (h, w)) in [((1, 3), (1, 7)), ((2, 2), (3, 5)), ((1, 1), (1, 3))] {
            let specs = [Spec::MaxPool2d { kernel }];
            let net = testkit::network(&specs);
            let mut oracle = reference(&net, &specs, &[2, h, w]);
            let model = net.freeze();
            let xs: Vec<Tensor> = (0..5)
                .map(|s| {
                    Tensor::from_vec(
                        (0..2 * h * w)
                            .map(|e| ((e * 3 + s * 5) % 13) as f32 - 6.0)
                            .collect(),
                        vec![2, h, w],
                    )
                })
                .collect();
            let mut ctx = model.ctx();
            let got = model.infer_batch(&xs, &mut ctx);
            for (x, g) in xs.iter().zip(&got) {
                assert_eq!(
                    oracle.forward(x.as_slice(), false),
                    g.as_slice(),
                    "{kernel:?}"
                );
            }
        }
    }

    #[test]
    fn frozen_keeps_the_first_of_tied_signed_zeros() {
        // +0 and −0 compare equal, so only the strict `>` of both paths
        // decides which sign survives a tie: the first tap's.
        let specs = [Spec::MaxPool2d { kernel: (1, 2) }];
        let net = testkit::network(&specs);
        let x = Tensor::from_vec(vec![0.0, -0.0, -0.0, 0.0], vec![1, 1, 4]);
        let got = bits(pool((1, 2), &x).as_slice());
        let want = bits(&reference(&net, &specs, &[1, 1, 4]).forward(x.as_slice(), false));
        assert_eq!(got, want);
        assert_eq!(got, vec![0.0f32.to_bits(), (-0.0f32).to_bits()]);
    }

    #[test]
    fn no_trainable_params() {
        assert!(MaxPool2d::new((1, 2)).weights().is_empty());
    }
}
