//! Element-wise activations: SELU and sigmoid.

use crate::fastmath::poly_exp;
use crate::frozen::{InferCtx, InferOp};
use crate::layer::{Layer, LayerCtx};
use crate::planes::Planes;

/// SELU constants from Klambauer et al., "Self-Normalizing Neural
/// Networks" (the paper's activation of choice).
pub(crate) const SELU_LAMBDA: f32 = 1.050_701;
pub(crate) const SELU_ALPHA: f32 = 1.673_263_2;

/// The scalar SELU map of the frozen op. Uses [`poly_exp`], the
/// polynomial `exp` the reference is built with too.
#[inline(always)]
pub(crate) fn selu_val(x: f32) -> f32 {
    // Both halves are computed and a select picks one: with the
    // branch-free `poly_exp` the whole map if-converts, so activation
    // loops vectorize instead of branching per element. Results are
    // identical to the branching form.
    let neg = SELU_LAMBDA * SELU_ALPHA * (poly_exp(x) - 1.0);
    let pos = SELU_LAMBDA * x;
    if x > 0.0 {
        pos
    } else {
        neg
    }
}

/// ∂selu/∂x at `x`.
#[inline(always)]
fn selu_deriv(x: f32) -> f32 {
    if x > 0.0 {
        SELU_LAMBDA
    } else {
        SELU_LAMBDA * SELU_ALPHA * poly_exp(x)
    }
}

/// The scalar logistic sigmoid of the frozen ops and of their backward
/// passes (same [`poly_exp`] everywhere).
#[inline(always)]
pub(crate) fn sigmoid_val(x: f32) -> f32 {
    1.0 / (1.0 + poly_exp(-x))
}

/// The SELU activation `λ·(x if x > 0 else α(eˣ − 1))`.
#[derive(Clone, Default)]
pub struct Selu;

impl Selu {
    /// Creates the activation.
    pub fn new() -> Self {
        Self
    }
}

/// Frozen SELU: stateless element-wise map.
struct FrozenSelu;

impl InferOp for FrozenSelu {
    fn name(&self) -> &'static str {
        "selu"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        ctx.map_in_place(selu_val);
    }
}

impl Layer for Selu {
    fn name(&self) -> &'static str {
        "selu"
    }

    fn backward_batch(&self, x: &Planes, mut grad: Planes, _ctx: &mut LayerCtx) -> Planes {
        for (g, &xv) in grad.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *g *= selu_deriv(xv);
        }
        grad
    }

    fn freeze(&self) -> Box<dyn InferOp> {
        Box::new(FrozenSelu)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// The logistic sigmoid `1/(1+e^{−x})` (used inside the attention block).
#[derive(Clone, Default)]
pub struct Sigmoid;

impl Sigmoid {
    /// Creates the activation.
    pub fn new() -> Self {
        Self
    }
}

/// Frozen sigmoid: stateless element-wise map.
struct FrozenSigmoid;

impl InferOp for FrozenSigmoid {
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        ctx.map_in_place(sigmoid_val);
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    /// Recomputes `σ(x)` with the forward's scalar sigmoid.
    fn backward_batch(&self, x: &Planes, mut grad: Planes, _ctx: &mut LayerCtx) -> Planes {
        for (g, &xv) in grad.as_mut_slice().iter_mut().zip(x.as_slice()) {
            let y = sigmoid_val(xv);
            *g *= y * (1.0 - y);
        }
        grad
    }

    fn freeze(&self) -> Box<dyn InferOp> {
        Box::new(FrozenSigmoid)
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

    fn one(layer: impl Layer + 'static) -> Network {
        let mut net = Network::new();
        net.push(layer);
        net
    }

    fn infer(net: &Network, x: &Tensor) -> Tensor {
        let frozen = net.freeze();
        frozen.infer(x, &mut frozen.ctx())
    }

    #[test]
    fn selu_known_values() {
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], vec![3]);
        let y = infer(&one(Selu::new()), &x);
        assert!((y.as_slice()[0] - SELU_LAMBDA).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 0.0);
        let want = SELU_LAMBDA * SELU_ALPHA * ((-1.0f32).exp() - 1.0);
        assert!((y.as_slice()[2] - want).abs() < 1e-6);
    }

    #[test]
    fn selu_is_self_normalizing_on_gaussian_input() {
        // Feeding N(0,1) data through SELU keeps mean ≈ 0 and var ≈ 1 —
        // the fixed-point property the initialisation relies on.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 50_000;
        let data: Vec<f32> = (0..n)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
            })
            .collect();
        let y = infer(&one(Selu::new()), &Tensor::from_vec(data, vec![n]));
        let mean: f32 = y.as_slice().iter().sum::<f32>() / n as f32;
        let var: f32 = y
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn selu_gradient_check() {
        let xs: Vec<Tensor> = [
            [0.5, -0.5, 2.0, -2.0],
            [1.5, -0.1, 0.2, -3.0],
            [-1.0, 0.7, -0.3, 0.9],
        ]
        .iter()
        .map(|x| Tensor::from_vec(x.to_vec(), vec![4]))
        .collect();
        for b in [1, 3] {
            testkit::gradient_check(&mut one(Selu::new()), &xs[..b], 1e-3, 1e-2);
        }
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let x = Tensor::from_vec(vec![-3.0, 0.0, 3.0], vec![3]);
        let y = infer(&one(Sigmoid::new()), &x);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!((y.as_slice()[0] + y.as_slice()[2] - 1.0).abs() < 1e-6);
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn sigmoid_gradient_check() {
        let xs: Vec<Tensor> = [[0.3, -1.2, 2.2], [-0.4, 0.8, -2.5], [1.1, 0.0, -0.7]]
            .iter()
            .map(|x| Tensor::from_vec(x.to_vec(), vec![3]))
            .collect();
        for b in [1, 3] {
            testkit::gradient_check(&mut one(Sigmoid::new()), &xs[..b], 1e-3, 1e-2);
        }
    }

    #[test]
    fn frozen_activations_match_reference() {
        let specs = [Spec::Selu, Spec::Sigmoid];
        let net = testkit::network(&specs);
        let mut oracle = reference(&net, &specs, &[5]);
        let x = Tensor::from_vec(vec![-4.0, -0.7, 0.0, 0.3, 5.0], vec![5]);
        assert_eq!(
            oracle.forward(x.as_slice(), false),
            infer(&net, &x).as_slice()
        );
    }
}
