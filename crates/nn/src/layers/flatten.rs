//! Flattening between the convolutional and dense stages.

use crate::frozen::{InferCtx, InferOp};
use crate::layer::{Layer, LayerCtx};
use crate::planes::Planes;
use crate::quant::Int8Freeze;

/// Flattens any input to rank 1, restoring the shape on backward.
#[derive(Clone, Default)]
pub struct Flatten;

impl Flatten {
    /// Creates the layer.
    pub fn new() -> Self {
        Self
    }
}

/// Frozen flatten: in the batch-innermost plane layout a reshape never
/// moves data, so this is a pure shape relabel — zero copies.
struct FrozenFlatten;

impl InferOp for FrozenFlatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn apply(&self, ctx: &mut InferCtx) {
        let elems = ctx.elems();
        ctx.set_shape(&[elems]);
    }

    fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>, String> {
        Ok(vec![in_shape.iter().product()])
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn backward_batch(&self, x: &Planes, grad: Planes, _ctx: &mut LayerCtx) -> Planes {
        grad.reshape(x.shape())
    }

    fn freeze(&self) -> Box<dyn InferOp> {
        Box::new(FrozenFlatten)
    }

    fn freeze_int8(&self, _in_scale: f32, _out_scale: f32) -> Option<Int8Freeze> {
        // A reshape is a pure relabel in either domain — the int8 plane
        // and its scale pass through untouched.
        Some(Int8Freeze::ScalePreserving(Box::new(FrozenFlatten)))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn flattens_and_restores() {
        let mut net = crate::Network::new();
        net.push(Flatten::new());
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), vec![2, 2, 3]);
        let g = Tensor::from_vec((0..12).map(|v| v as f32).collect(), vec![12]);
        let (y, gx, _) = crate::testkit::batch_pass(&net, std::slice::from_ref(&x), &[g], true);
        assert_eq!(y[0].shape(), &[12]);
        assert_eq!(gx[0].shape(), &[2, 2, 3]);
        assert_eq!(gx[0].as_slice(), x.as_slice());
    }

    #[test]
    fn frozen_flatten_is_a_relabel() {
        let f = Flatten::new();
        let model = crate::FrozenModel::from_ops(vec![f.freeze()]);
        let xs = vec![Tensor::from_vec((0..6).map(|v| v as f32).collect(), vec![2, 1, 3]); 2];
        let mut ctx = model.ctx();
        let got = model.infer_batch(&xs, &mut ctx);
        assert_eq!(got[0].shape(), &[6]);
        assert_eq!(got[0].as_slice(), xs[0].as_slice());
    }
}
