//! From-scratch deep-learning substrate for the DeepCSI classifier.
//!
//! The paper's DNN (Fig. 4) is a stack of `N_conv` convolutional layers
//! with SELU activations and max-pooling, a CBAM-style spatial-attention
//! block with a skip connection, and `N_dense` dense layers with
//! alpha-dropout, trained with cross-entropy. No Rust deep-learning crate
//! was available offline, so this crate implements the required subset
//! from first principles:
//!
//! * [`Tensor`] — a dense row-major f32 tensor (rank ≤ 3 used here).
//! * Layers — [`Conv2d`], [`MaxPool2d`], [`Dense`], [`Selu`],
//!   [`AlphaDropout`], [`SpatialAttention`], [`Flatten`] — each with an
//!   exact hand-derived batched backward pass (validated against finite
//!   differences, and bit for bit against the naive per-sample
//!   reference of the `deepcsi-nn-ref` crate, in the test suite).
//! * [`Network`] / [`TrainCtx`] — a sequential container of weights,
//!   and one training worker's state: data-parallel gradient shards
//!   borrow the network, each with its own ctx.
//! * [`FrozenModel`] / [`InferCtx`] — the train/serve split:
//!   [`Network::freeze`] snapshots the weights into an immutable
//!   `Send + Sync` model (one `Arc` shared by every serving worker, no
//!   per-worker clone) while all scratch lives in a per-worker context;
//!   `infer`/`infer_batch` are bit-equal to the reference's
//!   `forward(train = false)`.
//! * [`InferPool`] — one batch split across scoped threads by
//!   [`plan_split`], bit-equal to a single context for any lane count.
//!   Serving does not use it (each engine worker runs one context);
//!   the lane-scaling benchmark row does.
//! * [`quant`] — the int8 serving backend: [`QuantSpec::calibrate`] +
//!   [`Network::freeze_int8`] re-freeze conv/dense onto integer
//!   dot-product kernels behind the same [`InferOp`] seam (top-1
//!   agreement ≥ 99%, same split bit-exactness).
//! * [`softmax_cross_entropy`] — fused loss/gradient.
//! * [`Adam`] — the optimizer.
//! * [`Trainer`] — seeded mini-batch training with crossbeam-based
//!   multi-threaded gradient computation.
//! * [`ConfusionMatrix`] — the evaluation artifact every figure of the
//!   paper reports.
//!
//! # Example: learning XOR
//!
//! ```
//! use deepcsi_nn::{Dense, Network, Selu, Tensor, Trainer, TrainConfig};
//!
//! let mut net = Network::new();
//! net.push(Dense::new(2, 8, 1));
//! net.push(Selu::new());
//! net.push(Dense::new(8, 2, 2));
//! let xs: Vec<Tensor> = [[0.,0.],[0.,1.],[1.,0.],[1.,1.]]
//!     .iter().map(|p| Tensor::from_vec(vec![p[0], p[1]], vec![2])).collect();
//! let ys = vec![0usize, 1, 1, 0];
//! let mut trainer = Trainer::new(TrainConfig {
//!     epochs: 200, batch_size: 4, learning_rate: 0.02, seed: 7,
//!     ..TrainConfig::default()
//! });
//! trainer.fit(&mut net, &xs, &ys, &[], &[]);
//! let (acc, _) = deepcsi_nn::evaluate(&net, &xs, &ys);
//! assert!(acc > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fastmath;
mod frozen;
mod init;
mod layer;
pub mod layers;
mod loss;
mod metrics;
mod network;
mod optim;
mod planes;
mod pool;
pub mod quant;
mod tensor;
#[cfg(test)]
mod testkit;
mod train;

pub use fastmath::poly_exp;
pub use frozen::{plan_split, FrozenModel, InferCtx, InferOp, ShapeMismatch, PAR_MIN_CHUNK};
pub use layer::{Layer, LayerCtx};
pub use layers::{
    AlphaDropout, Conv2d, Dense, Flatten, MaxPool2d, Selu, Sigmoid, SpatialAttention,
};
pub use loss::softmax_cross_entropy;
pub use metrics::ConfusionMatrix;
pub use network::{Network, TrainCtx};
pub use optim::Adam;
pub use planes::Planes;
pub use pool::InferPool;
pub use quant::{ActRange, Int8Freeze, QuantError, QuantSpec};
pub use tensor::Tensor;
pub use train::{evaluate, TrainConfig, TrainReport, Trainer};
