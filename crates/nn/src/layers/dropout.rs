//! Alpha dropout for self-normalising networks.

use crate::frozen::{InferCtx, InferOp};
use crate::layer::{Layer, ParamView};
use crate::layers::activation::{SELU_ALPHA, SELU_LAMBDA};
use crate::planes::Planes;
use crate::tensor::Tensor;
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
#[derive(Clone)]
pub struct AlphaDropout {
    rate: f32,
    rng: StdRng,
    /// Keep flags of the last forward pass, in its data's layout (one
    /// sample, or interleaved lanes after `forward_batch`); empty when
    /// it dropped nothing.
    mask: Vec<bool>,
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
            mask: Vec::new(),
        }
    }

    fn affine(&self) -> (f32, f32, f32) {
        let alpha_p = -SELU_LAMBDA * SELU_ALPHA;
        let q = 1.0 - self.rate; // keep probability
        let a = (q + alpha_p * alpha_p * q * self.rate).powf(-0.5);
        let b = -a * alpha_p * self.rate;
        (alpha_p, a, b)
    }

    /// Back-propagates through the last forward pass's mask in place:
    /// kept units scale by `a`, dropped ones get no gradient.
    fn mask_grad(&self, grad: &mut [f32]) {
        if self.mask.is_empty() {
            return;
        }
        let (_, a, _) = self.affine();
        for (g, &keep) in grad.iter_mut().zip(&self.mask) {
            *g = if keep { *g * a } else { 0.0 };
        }
    }
}

impl Layer for AlphaDropout {
    fn name(&self) -> &'static str {
        "alpha_dropout"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.rate == 0.0 {
            self.mask.clear();
            return x.clone();
        }
        let (alpha_p, a, b) = self.affine();
        self.mask = (0..x.len())
            .map(|_| self.rng.gen::<f32>() >= self.rate)
            .collect();
        let mut out = x.clone();
        for (v, &keep) in out.as_mut_slice().iter_mut().zip(&self.mask) {
            let pre = if keep { *v } else { alpha_p };
            *v = a * pre + b;
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut gx = grad.clone();
        self.mask_grad(gx.as_mut_slice());
        gx
    }

    fn forward_batch(&mut self, mut x: Planes, train: bool) -> Planes {
        if !train || self.rate == 0.0 {
            self.mask.clear();
            return x;
        }
        let (alpha_p, a, b) = self.affine();
        // Sample-major draws, as one `forward` per lane would make them.
        let (elems, lanes) = (x.elems(), x.batch_size());
        self.mask = vec![false; elems * lanes];
        for s in 0..lanes {
            for e in 0..elems {
                self.mask[e * lanes + s] = self.rng.gen::<f32>() >= self.rate;
            }
        }
        for (v, &keep) in x.as_mut_slice().iter_mut().zip(&self.mask) {
            let pre = if keep { *v } else { alpha_p };
            *v = a * pre + b;
        }
        x
    }

    fn backward_batch(&mut self, mut grad: Planes) -> Planes {
        self.mask_grad(grad.as_mut_slice());
        grad
    }

    fn freeze(&self) -> Box<dyn InferOp> {
        // Identity at inference, like `forward` with `train = false`.
        Box::new(FrozenAlphaDropout)
    }

    fn freeze_int8(&self, _in_scale: f32, _out_scale: f32) -> Option<crate::quant::Int8Freeze> {
        // The frozen identity is domain-agnostic: an int8 chain passes
        // straight through without a float round trip.
        Some(crate::quant::Int8Freeze::ScalePreserving(Box::new(
            FrozenAlphaDropout,
        )))
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
    fn identity_at_inference() {
        let mut d = AlphaDropout::new(0.5, 1);
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], vec![3]);
        let y = d.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
        // Backward is identity too.
        let g = d.backward(&x);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn training_perturbs_and_masks() {
        let mut d = AlphaDropout::new(0.5, 1);
        let x = Tensor::from_vec(vec![1.0; 64], vec![64]);
        let y = d.forward(&x, true);
        // Some units get the saturation treatment.
        let distinct: std::collections::HashSet<u32> =
            y.as_slice().iter().map(|v| v.to_bits()).collect();
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
        let mut d = AlphaDropout::new(0.2, 7);
        let y = d.forward(&Tensor::from_vec(data, vec![n]), true);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / n as f32;
        let var: f32 = y
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
        let mut d = AlphaDropout::new(0.5, 5);
        let x = Tensor::from_vec(vec![1.0; 32], vec![32]);
        let _ = d.forward(&x, true);
        let g = d.backward(&Tensor::from_vec(vec![1.0; 32], vec![32]));
        let zeros = g.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 0, "no gradient was masked");
        assert!(zeros < 32, "all gradient was masked");
    }

    #[test]
    fn rate_zero_is_identity_even_in_training() {
        let mut d = AlphaDropout::new(0.0, 1);
        let x = Tensor::from_vec(vec![0.5, -0.5], vec![2]);
        assert_eq!(d.forward(&x, true).as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn rate_one_panics() {
        let _ = AlphaDropout::new(1.0, 0);
    }
}
