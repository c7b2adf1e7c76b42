//! The spatial-attention block of the DeepCSI classifier.

use crate::frozen::{resize_buf, InferCtx, InferOp};
use crate::layer::{Layer, LayerCtx};
use crate::layers::activation::sigmoid_val;
use crate::layers::conv::{Conv2d, FrozenConv2d};
use crate::planes::Planes;

/// CBAM-style spatial attention with a residual skip (Fig. 4, §III-C):
///
/// 1. max- and mean-pool the input feature maps over the channel
///    dimension,
/// 2. concatenate the two maps and pass them through a small convolution
///    with sigmoid activation, producing per-position weights,
/// 3. multiply the input by the weights, and
/// 4. add the input back (skip connection).
///
/// "Thanks to the attention block, the algorithm learns where the most
/// relevant information is located within the feature maps."
///
/// The block's gradient accumulators are its convolution's.
#[derive(Clone)]
pub struct SpatialAttention {
    conv: Conv2d,
}

impl SpatialAttention {
    /// Creates the block; `kernel_w` is the width of the attention
    /// convolution's `(1, kernel_w)` kernel.
    pub fn new(kernel_w: usize, seed: u64) -> Self {
        SpatialAttention {
            conv: Conv2d::new(2, 1, (1, kernel_w), seed ^ 0xA77E),
        }
    }
}

/// Channel-wise max and mean maps of the `b`-lane planes `xs` (`c`
/// channels of `hw` positions) into `ps` (`[max | mean][hw]`, lanes
/// innermost), overwriting every element. The channel scan order
/// matches the reference: strict `>` keeps the first maximum, and the
/// mean sums the channels in ascending order from `+0.0` and divides.
fn channel_pool(xs: &[f32], ps: &mut [f32], (c, hw, b): (usize, usize, usize)) {
    ps.fill(0.0);
    for p in 0..hw {
        let max_base = p * b;
        let mean_base = (hw + p) * b;
        ps[max_base..max_base + b].copy_from_slice(&xs[p * b..(p + 1) * b]);
        for ci in 0..c {
            let ibase = (ci * hw + p) * b;
            for s in 0..b {
                let v = xs[ibase + s];
                if v > ps[max_base + s] {
                    ps[max_base + s] = v;
                }
                ps[mean_base + s] += v;
            }
        }
        for s in 0..b {
            // The reference divides the plain sum; multiply-by-inverse
            // would round differently, so divide here too.
            ps[mean_base + s] /= c as f32;
        }
    }
}

/// The frozen attention block: an embedded frozen convolution plus the
/// (stateless) pooling/sigmoid/residual arithmetic. The pooled maps and
/// attention logits live in the [`InferCtx`] scratch planes at the
/// batch's own stride `b`; the residual multiply runs in place on the
/// activation plane, so the whole block moves no data beyond its two
/// small scratch buffers (and the embedded conv's tail workspace).
struct FrozenSpatialAttention {
    conv: FrozenConv2d,
}

impl InferOp for FrozenSpatialAttention {
    fn name(&self) -> &'static str {
        "spatial_attention"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        let [c, h, w]: [usize; 3] = ctx
            .shape()
            .try_into()
            .expect("attention input must be rank 3");
        let b = ctx.batch_size();
        let hw = h * w;
        resize_buf(&mut ctx.scratch0, 2 * hw * b);
        channel_pool(&ctx.cur.data, &mut ctx.scratch0, (c, hw, b));
        // Attention logits into scratch1 (the conv overwrites every
        // element), then the sigmoid in place.
        resize_buf(&mut ctx.scratch1, self.conv.out_ch() * hw * b);
        self.conv.run(
            &ctx.scratch0,
            &mut ctx.scratch1,
            (2, h, w),
            b,
            &mut ctx.conv_window,
        );
        for v in ctx.scratch1.iter_mut() {
            *v = sigmoid_val(*v);
        }
        // Y = X⊙A + X, the attention map broadcast over channels — in
        // place on the activation plane.
        let (os, avs) = (&mut ctx.cur.data, &ctx.scratch1);
        for ci in 0..c {
            for p in 0..hw {
                let obase = (ci * hw + p) * b;
                let abase = p * b;
                for s in 0..b {
                    let v = os[obase + s];
                    os[obase + s] = v * avs[abase + s] + v;
                }
            }
        }
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        if in_shape.len() != 3 {
            return Err(format!(
                "attention needs a rank-3 input, got rank {}",
                in_shape.len()
            ));
        }
        Ok(in_shape.to_vec())
    }
}

impl Layer for SpatialAttention {
    fn name(&self) -> &'static str {
        "spatial_attention"
    }

    /// The reference's `backward` per lane. The pooled maps, the logits
    /// and the attention map are recomputed from `x` with the frozen
    /// op's kernels; the max branch's gradient goes to the first maximal
    /// channel, found again by the strict-`>` scan.
    fn backward_batch(&self, x: &Planes, grad: Planes, ctx: &mut LayerCtx) -> Planes {
        let (c, h, w) = x.dims3("attention");
        let (b, plane) = (x.batch_size(), h * w * x.batch_size());
        let mut pooled = Planes::zeros(&[2, h, w], b);
        channel_pool(x.as_slice(), pooled.as_mut_slice(), (c, h * w, b));
        let logits = self.conv.forward_batch(pooled.clone(), false, ctx);
        let (xs, gs) = (x.as_slice(), grad.as_slice());

        // Through Y = X⊙A + X: ∂/∂X = grad·(A + 1), ∂/∂A = Σ_c grad·X,
        // then through A = σ(logits).
        let mut gx = Planes::zeros(x.shape(), b);
        let mut g_logits = Planes::zeros(&[1, h, w], b);
        let gxs = gx.as_mut_slice();
        for (e, gl) in g_logits.as_mut_slice().iter_mut().enumerate() {
            let av = sigmoid_val(logits.as_slice()[e]);
            let mut gsum = 0.0f32;
            for ci in 0..c {
                let g = gs[ci * plane + e];
                gsum += g * xs[ci * plane + e];
                gxs[ci * plane + e] = g * (av + 1.0);
            }
            *gl = gsum * (av * (1.0 - av));
        }
        let g_pooled = self.conv.backward_batch(&pooled, g_logits, ctx);

        // Through the max/mean channel pooling back into X.
        let gps = g_pooled.as_slice();
        for e in 0..plane {
            let gmax = gps[e];
            let gmean = gps[plane + e] / c as f32;
            let mut best_c = 0;
            for ci in 0..c {
                if xs[ci * plane + e] > xs[best_c * plane + e] {
                    best_c = ci;
                }
            }
            gxs[best_c * plane + e] += gmax;
            for ci in 0..c {
                gxs[ci * plane + e] += gmean;
            }
        }
        gx
    }

    fn freeze(&self) -> Box<dyn InferOp> {
        Box::new(FrozenSpatialAttention {
            conv: self.conv.frozen(),
        })
    }

    fn weights(&self) -> Vec<&[f32]> {
        self.conv.weights()
    }

    fn weights_mut(&mut self) -> Vec<&mut [f32]> {
        self.conv.weights_mut()
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
    use crate::Network;
    use deepcsi_nn_ref::Spec;

    fn attention_net(att: SpatialAttention) -> Network {
        let mut net = Network::new();
        net.push(att);
        net
    }

    fn infer(net: &Network, x: &Tensor) -> Tensor {
        let frozen = net.freeze();
        frozen.infer(x, &mut frozen.ctx())
    }

    #[test]
    fn output_shape_matches_input() {
        let net = attention_net(SpatialAttention::new(7, 1));
        let y = infer(&net, &Tensor::zeros(vec![8, 1, 20]));
        assert_eq!(y.shape(), &[8, 1, 20]);
    }

    #[test]
    fn param_count_is_conv_only() {
        // 2 input maps × kernel 7 × 1 output + 1 bias = 15.
        assert_eq!(attention_net(SpatialAttention::new(7, 1)).num_params(), 15);
    }

    #[test]
    fn output_stays_between_x_and_2x_for_positive_input() {
        // A ∈ (0,1) → Y = X(1+A) ∈ (X, 2X) element-wise for X > 0.
        let net = attention_net(SpatialAttention::new(3, 2));
        let x = Tensor::from_vec((1..=24).map(|v| v as f32 * 0.1).collect(), vec![4, 1, 6]);
        let y = infer(&net, &x);
        for (xv, yv) in x.as_slice().iter().zip(y.as_slice()) {
            assert!(*yv > *xv && *yv < 2.0 * *xv, "x={xv} y={yv}");
        }
    }

    #[test]
    fn frozen_matches_reference_across_batch_sizes() {
        let specs = [Spec::SpatialAttention {
            kernel_w: 3,
            seed: 5,
        }];
        let net = testkit::network(&specs);
        let mut oracle = reference(&net, &specs, &[3, 1, 6]);
        let model = net.freeze();
        for b in [1usize, 3, 16, 21] {
            let xs: Vec<Tensor> = (0..b)
                .map(|s| {
                    Tensor::from_vec(
                        (0..3 * 6)
                            .map(|e| ((e * 7 + s * 11) % 13) as f32 * 0.3 - 1.8)
                            .collect(),
                        vec![3, 1, 6],
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
    fn gradient_check_end_to_end() {
        let mut net = attention_net(SpatialAttention::new(3, 3));
        let xs: Vec<Tensor> = (0..3)
            .map(|s| {
                Tensor::from_vec(
                    (0..18)
                        .map(|i| (((i + 4 * s) * 7 % 11) as f32 - 5.0) * 0.2)
                        .collect(),
                    vec![3, 1, 6],
                )
            })
            .collect();
        for b in [1, 3] {
            testkit::gradient_check(&mut net, &xs[..b], 1e-2, 0.05);
        }
    }

    #[test]
    fn attention_weight_gradient_check() {
        let mut net = attention_net(SpatialAttention::new(3, 4));
        let xs: Vec<Tensor> = (0..3)
            .map(|s| {
                Tensor::from_vec(
                    (0..12).map(|i| ((i + 3 * s) as f32 * 0.37).cos()).collect(),
                    vec![2, 1, 6],
                )
            })
            .collect();
        for b in [1, 3] {
            testkit::gradient_check(&mut net, &xs[..b], 1e-2, 0.05);
        }
    }
}
