//! Test helpers: one description builds both the network under test and
//! the per-sample reference it is held to.

use crate::fastmath::poly_exp;
use crate::layers::{
    AlphaDropout, Conv2d, Dense, Flatten, MaxPool2d, Selu, Sigmoid, SpatialAttention,
};
use crate::network::{Network, TrainCtx};
use crate::planes::Planes;
use crate::tensor::Tensor;
use deepcsi_nn_ref::{Net, Spec};

/// The network `specs` describes.
pub(crate) fn network(specs: &[Spec]) -> Network {
    let mut net = Network::new();
    for &spec in specs {
        match spec {
            Spec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                seed,
            } => net.push(Conv2d::new(in_ch, out_ch, kernel, seed)),
            Spec::Dense {
                in_dim,
                out_dim,
                seed,
            } => net.push(Dense::new(in_dim, out_dim, seed)),
            Spec::MaxPool2d { kernel } => net.push(MaxPool2d::new(kernel)),
            Spec::Selu => net.push(Selu::new()),
            Spec::Sigmoid => net.push(Sigmoid::new()),
            Spec::AlphaDropout { rate, seed } => net.push(AlphaDropout::new(rate, seed)),
            Spec::SpatialAttention { kernel_w, seed } => {
                net.push(SpatialAttention::new(kernel_w, seed))
            }
            Spec::Flatten => net.push(Flatten::new()),
        }
    }
    net
}

/// The reference for `net`, built from `specs` for samples of
/// `in_shape`, with `net`'s weights.
pub(crate) fn reference(net: &Network, specs: &[Spec], in_shape: &[usize]) -> Net {
    Net::new(specs, in_shape, &net.save_weights(), poly_exp)
}

/// One batched forward and backward pass of `net` over `xs` with the
/// output gradient `grads` (one tensor per sample): the outputs, the
/// input gradients and the ctx holding the parameter gradients.
pub(crate) fn batch_pass(
    net: &Network,
    xs: &[Tensor],
    grads: &[Tensor],
    train: bool,
) -> (Vec<Tensor>, Vec<Tensor>, TrainCtx) {
    let mut ctx = net.train_ctx();
    let out = net.forward_batch(Planes::from_samples(xs.iter()), train, &mut ctx);
    let gx = net.backward_batch(Planes::from_samples(grads.iter()), &mut ctx);
    let lanes = |p: &Planes| (0..xs.len()).map(|s| p.sample(s)).collect();
    (lanes(&out), lanes(&gx), ctx)
}

/// Finite-difference check of ∂(Σ outputs)/∂inputs and ∂/∂weights
/// through the batched passes, over the batch `xs` (centred
/// differences of step `eps` on the frozen outputs, within `tol`).
pub(crate) fn gradient_check(net: &mut Network, xs: &[Tensor], eps: f32, tol: f32) {
    let total = |net: &Network, xs: &[Tensor]| -> f32 {
        let frozen = net.freeze();
        let outs = frozen.infer_batch(xs, &mut frozen.ctx());
        outs.iter().flat_map(|o| o.as_slice()).sum()
    };
    let ones: Vec<Tensor> = {
        let frozen = net.freeze();
        let outs = frozen.infer_batch(xs, &mut frozen.ctx());
        outs.iter()
            .map(|o| Tensor::from_vec(vec![1.0; o.len()], o.shape().to_vec()))
            .collect()
    };
    let (_, gx, ctx) = batch_pass(net, xs, &ones, false);
    for (s, gs) in gx.iter().enumerate() {
        for i in 0..xs[s].len() {
            let mut xp = xs.to_vec();
            xp[s].as_mut_slice()[i] += eps;
            let mut xm = xs.to_vec();
            xm[s].as_mut_slice()[i] -= eps;
            let want = (total(net, &xp) - total(net, &xm)) / (2.0 * eps);
            let got = gs.as_slice()[i];
            assert!(
                (want - got).abs() < tol,
                "sample {s}, input grad {i}: fd {want} vs bp {got}"
            );
        }
    }
    let grads: Vec<Vec<f32>> = ctx.grads().iter().map(|g| g.to_vec()).collect();
    for (t, g) in grads.iter().enumerate() {
        for (j, &got) in g.iter().enumerate() {
            let orig = net.weights()[t][j];
            net.weights_mut()[t][j] = orig + eps;
            let fp = total(net, xs);
            net.weights_mut()[t][j] = orig - eps;
            let fm = total(net, xs);
            net.weights_mut()[t][j] = orig;
            let want = (fp - fm) / (2.0 * eps);
            assert!(
                (want - got).abs() < tol,
                "weight tensor {t}, value {j}: fd {want} vs bp {got}"
            );
        }
    }
}

/// The `to_bits` of every value.
pub(crate) fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}
