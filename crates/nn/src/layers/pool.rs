//! Max pooling.

use crate::frozen::{InferCtx, InferOp};
use crate::layer::{Layer, ParamView};
use crate::quant::ops::{pool_out_shape, Int8MaxPool};
use crate::quant::Int8Freeze;
use crate::tensor::Tensor;

/// Max pooling with stride equal to the kernel (non-overlapping windows)
/// and floor truncation of ragged edges — matching the framework defaults
/// the paper's `(1, 2)` pools rely on (234 → 117 → 58 → 29 → 14 → 7).
#[derive(Clone)]
pub struct MaxPool2d {
    kh: usize,
    kw: usize,
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a pool with the given kernel.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized kernel.
    pub fn new((kh, kw): (usize, usize)) -> Self {
        assert!(kh > 0 && kw > 0, "zero-sized pooling kernel");
        MaxPool2d {
            kh,
            kw,
            argmax: Vec::new(),
            in_shape: Vec::new(),
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
        let oh = h / self.kh;
        let ow = w / self.kw;
        assert!(oh > 0 && ow > 0, "input smaller than pooling kernel");
        let (kh, kw) = (self.kh, self.kw);
        // Row-wise along the flat (width × sample) axis: an input row
        // splits into `kw·b`-wide windows, and tap `(dh, dw)` of window
        // `wi` is lanes `dw·b..(dw + 1)·b` of window `wi` of input row
        // `hi·kh + dh`. Taps run in `forward`'s scan order, k = dh·kw + dw.
        // The first pass seeds each output row with the larger of taps 0
        // and 1 (tap 0 twice for a 1×1 kernel), and every later tap folds
        // in as a select over the whole row. No pass copies, so no
        // element costs a `memcpy` call.
        ctx.produce(&[c, oh, ow], |xs, os, _, b| {
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
                        // Strict `>` keeps the first maximum, like
                        // `forward`.
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

    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let [c, h, w]: [usize; 3] = x.shape().try_into().expect("pool input must be rank 3");
        let oh = h / self.kh;
        let ow = w / self.kw;
        assert!(oh > 0 && ow > 0, "input smaller than pooling kernel");
        let mut out = Tensor::zeros(vec![c, oh, ow]);
        self.argmax = vec![0; c * oh * ow];
        self.in_shape = x.shape().to_vec();
        let xs = x.as_slice();
        let os = out.as_mut_slice();
        for ci in 0..c {
            for hi in 0..oh {
                for wi in 0..ow {
                    let mut best_idx = (ci * h + hi * self.kh) * w + wi * self.kw;
                    let mut best = xs[best_idx];
                    for dh in 0..self.kh {
                        for dw in 0..self.kw {
                            let idx = (ci * h + hi * self.kh + dh) * w + wi * self.kw + dw;
                            if xs[idx] > best {
                                best = xs[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = (ci * oh + hi) * ow + wi;
                    os[o] = best;
                    self.argmax[o] = best_idx;
                }
            }
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward without forward");
        let mut gx = Tensor::zeros(self.in_shape.clone());
        let gxs = gx.as_mut_slice();
        for (o, &src) in self.argmax.iter().enumerate() {
            gxs[src] += grad.as_slice()[o];
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

    fn params(&mut self) -> Vec<ParamView<'_>> {
        Vec::new()
    }

    fn weights(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_maximum_with_floor_truncation() {
        let mut pool = MaxPool2d::new((1, 2));
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0, 9.0], vec![1, 1, 5]);
        let y = pool.forward(&x, false);
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
            let mut pool = MaxPool2d::new((1, 2));
            let x = Tensor::zeros(vec![1, 1, w]);
            w = pool.forward(&x, false).shape()[2];
            seq.push(w);
        }
        assert_eq!(seq, vec![117, 58, 29, 14, 7]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new((1, 2));
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], vec![1, 1, 4]);
        let y = pool.forward(&x, false);
        let g = Tensor::from_vec(vec![10.0, 20.0], y.shape().to_vec());
        let gx = pool.backward(&g);
        assert_eq!(gx.as_slice(), &[0.0, 10.0, 20.0, 0.0]);
    }

    #[test]
    fn multichannel_pooling() {
        let mut pool = MaxPool2d::new((1, 2));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0], vec![2, 1, 4]);
        let y = pool.forward(&x, false);
        assert_eq!(y.as_slice(), &[2.0, 4.0, 8.0, 6.0]);
    }

    #[test]
    fn frozen_matches_forward() {
        // A 1×3 window with a ragged edge, a 2×2 window that folds taps
        // from a second row and truncates both dims, and a 1×1 window.
        for (k, (h, w)) in [((1, 3), (1, 7)), ((2, 2), (3, 5)), ((1, 1), (1, 3))] {
            let mut pool = MaxPool2d::new(k);
            let model = crate::FrozenModel::from_ops(vec![pool.freeze()]);
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
                assert_eq!(pool.forward(x, false).as_slice(), g.as_slice(), "{k:?}");
            }
        }
    }

    #[test]
    fn frozen_keeps_the_first_of_tied_signed_zeros() {
        // +0 and −0 compare equal, so only the strict `>` of both paths
        // decides which sign survives a tie: the first tap's.
        let mut pool = MaxPool2d::new((1, 2));
        let model = crate::FrozenModel::from_ops(vec![pool.freeze()]);
        let x = Tensor::from_vec(vec![0.0, -0.0, -0.0, 0.0], vec![1, 1, 4]);
        let mut ctx = model.ctx();
        let got: Vec<u32> = model
            .infer(&x, &mut ctx)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let want: Vec<u32> = pool
            .forward(&x, false)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, want);
        assert_eq!(got, vec![0.0f32.to_bits(), (-0.0f32).to_bits()]);
    }

    #[test]
    fn no_trainable_params() {
        let mut pool = MaxPool2d::new((1, 2));
        assert_eq!(pool.num_params(), 0);
    }
}
