//! Alpha dropout for self-normalising networks.

use crate::frozen::{InferCtx, InferOp};
use crate::layer::{Layer, LayerCtx};
use crate::layers::activation::{SELU_ALPHA, SELU_LAMBDA};
use crate::planes::Planes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frozen alpha dropout: the identity — not even a copy. The frozen op
/// carries no RNG, which is exactly why a [`crate::FrozenModel`] can be
/// `Sync` while the training layer cannot.
struct FrozenAlphaDropout;

impl InferOp for FrozenAlphaDropout {
    fn name(&self) -> &'static str {
        "alpha_dropout"
    }

    fn apply(&self, _ctx: &mut InferCtx) {}
}

/// Alpha dropout (Klambauer et al. §3): instead of zeroing units it sets
/// them to the SELU saturation value `α' = −λα` and applies an affine
/// correction so the layer keeps zero mean and unit variance — which is
/// what lets SELU networks use dropout at all. Identity at inference.
///
/// The layer holds the stream's state; each worker's [`LayerCtx`]
/// draws from a copy of it.
#[derive(Clone)]
pub struct AlphaDropout {
    rate: f32,
    rng: StdRng,
}

impl AlphaDropout {
    /// Creates a dropout layer dropping each unit with probability
    /// `rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate < 1`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must be in [0, 1)");
        AlphaDropout {
            rate,
            rng: StdRng::seed_from_u64(seed ^ 0xD409),
        }
    }

    fn affine(&self) -> (f32, f32, f32) {
        let alpha_p = -SELU_LAMBDA * SELU_ALPHA;
        let q = 1.0 - self.rate; // keep probability
        let a = (q + alpha_p * alpha_p * q * self.rate).powf(-0.5);
        let b = -a * alpha_p * self.rate;
        (alpha_p, a, b)
    }
}

impl Layer for AlphaDropout {
    fn name(&self) -> &'static str {
        "alpha_dropout"
    }

    fn train_ctx(&self) -> LayerCtx {
        LayerCtx {
            rng: Some(self.rng.clone()),
            ..LayerCtx::default()
        }
    }

    fn forward_batch(&self, mut x: Planes, train: bool, ctx: &mut LayerCtx) -> Planes {
        ctx.mask.clear();
        if !train || self.rate == 0.0 {
            return x;
        }
        let (alpha_p, a, b) = self.affine();
        let rng = ctx.rng.as_mut().expect("dropout ctx carries its stream");
        // Sample-major draws, as one reference `forward` per lane makes
        // them.
        let (elems, lanes) = (x.elems(), x.batch_size());
        ctx.mask.resize(elems * lanes, false);
        for s in 0..lanes {
            for e in 0..elems {
                ctx.mask[e * lanes + s] = rng.gen::<f32>() >= self.rate;
            }
        }
        for (v, &keep) in x.as_mut_slice().iter_mut().zip(&ctx.mask) {
            let pre = if keep { *v } else { alpha_p };
            *v = a * pre + b;
        }
        x
    }

    /// Kept units scale by `a`, dropped ones get no gradient.
    fn backward_batch(&self, _x: &Planes, mut grad: Planes, ctx: &mut LayerCtx) -> Planes {
        if ctx.mask.is_empty() {
            return grad;
        }
        let (_, a, _) = self.affine();
        for (g, &keep) in grad.as_mut_slice().iter_mut().zip(&ctx.mask) {
            *g = if keep { *g * a } else { 0.0 };
        }
        grad
    }

    fn freeze(&self) -> Box<dyn InferOp> {
        // Identity at inference, as `forward_batch` is with `train = false`.
        Box::new(FrozenAlphaDropout)
    }

    fn freeze_int8(&self, _in_scale: f32, _out_scale: f32) -> Option<crate::quant::Int8Freeze> {
        // The frozen identity is domain-agnostic: an int8 chain passes
        // straight through without a float round trip.
        Some(crate::quant::Int8Freeze::ScalePreserving(Box::new(
            FrozenAlphaDropout,
        )))
    }

    fn resume_rng(&mut self, ctx: &LayerCtx) {
        if let Some(rng) = &ctx.rng {
            self.rng = rng.clone();
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use crate::testkit::batch_pass;
    use crate::Network;

    fn dropout_net(rate: f32, seed: u64) -> Network {
        let mut net = Network::new();
        net.push(AlphaDropout::new(rate, seed));
        net
    }

    #[test]
    fn identity_at_inference() {
        let net = dropout_net(0.5, 1);
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], vec![3]);
        let (y, g, _) = batch_pass(
            &net,
            std::slice::from_ref(&x),
            std::slice::from_ref(&x),
            false,
        );
        assert_eq!(y[0].as_slice(), x.as_slice());
        // Backward is identity too.
        assert_eq!(g[0].as_slice(), x.as_slice());
    }

    #[test]
    fn training_perturbs_and_masks() {
        let x = Tensor::from_vec(vec![1.0; 64], vec![64]);
        let xs = [x];
        let (y, _, _) = batch_pass(&dropout_net(0.5, 1), &xs, &xs, true);
        // Some units get the saturation treatment.
        let distinct: std::collections::HashSet<u32> =
            y[0].as_slice().iter().map(|v| v.to_bits()).collect();
        assert!(distinct.len() >= 2, "no units were dropped");
    }

    #[test]
    fn preserves_moments_approximately() {
        // On standard-normal input, alpha dropout keeps mean ≈ 0, var ≈ 1.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40_000;
        let data: Vec<f32> = (0..n)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
            })
            .collect();
        let x = Tensor::from_vec(data, vec![n]);
        let xs = [x];
        let (y, _, _) = batch_pass(&dropout_net(0.2, 7), &xs, &xs, true);
        let mean: f32 = y[0].as_slice().iter().sum::<f32>() / n as f32;
        let var: f32 = y[0]
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn backward_zeroes_dropped_units() {
        let x = Tensor::from_vec(vec![1.0; 32], vec![32]);
        let xs = [x];
        let (_, g, _) = batch_pass(&dropout_net(0.5, 5), &xs, &xs, true);
        let zeros = g[0].as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 0, "no gradient was masked");
        assert!(zeros < 32, "all gradient was masked");
    }

    #[test]
    fn workers_draw_from_the_network_stream_and_resume_moves_it() {
        let mut net = dropout_net(0.5, 9);
        let x = Tensor::from_vec(vec![1.0; 16], vec![16]);
        let pass = |net: &Network| {
            batch_pass(
                net,
                std::slice::from_ref(&x),
                std::slice::from_ref(&x),
                true,
            )
        };
        let (a, _, ctx) = pass(&net);
        let (b, _, _) = pass(&net);
        assert_eq!(a, b, "two ctxs start from the same stream state");
        net.resume_rng(&ctx);
        let (c, _, _) = pass(&net);
        assert_ne!(a, c, "the resumed stream draws new masks");
    }

    #[test]
    fn rate_zero_is_identity_even_in_training() {
        let x = Tensor::from_vec(vec![0.5, -0.5], vec![2]);
        let (y, _, _) = batch_pass(
            &dropout_net(0.0, 1),
            std::slice::from_ref(&x),
            std::slice::from_ref(&x),
            true,
        );
        assert_eq!(y[0].as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn rate_one_panics() {
        let _ = AlphaDropout::new(1.0, 0);
    }
}
