//! The DeepCSI system: radio fingerprinting of MU-MIMO Wi-Fi beamformers
//! from compressed beamforming feedback.
//!
//! This crate ties the substrates together into the system of Fig. 1/3:
//!
//! * [`ModelConfig`] — the Fig. 4 CNN (conv + SELU + max-pool stacks, a
//!   spatial-attention block with skip connection, dense layers with
//!   alpha-dropout), with the paper's exact hyper-parameters
//!   (489 k trainable parameters) and a fast laptop-scale profile.
//! * [`Authenticator`] — the deployed observer: sniffed frame bytes →
//!   parsed angles → reconstructed Ṽ → tensor → module identity, with
//!   save/load for trained models ("the trained learning algorithm can be
//!   run … on low-cost Wi-Fi devices").
//! * [`FrozenAuthenticator`] — [`Authenticator::freeze`]'s immutable,
//!   `Send + Sync` serving snapshot: one `Arc` shared by every engine
//!   worker, bit-equal predictions, all scratch in per-worker
//!   [`deepcsi_nn::InferCtx`]s.
//! * [`run_experiment`] — the training/evaluation harness all figure
//!   binaries use (train on a [`deepcsi_data::Split`], report accuracy
//!   and the confusion matrix).
//! * [`demo`] — the one deterministic demo training recipe every
//!   serving binary, example and serving test rebuilds bit-for-bit.
//! * [`baseline`] — the Fig. 16 comparison: classify from
//!   offset-cleaned Ṽ (the \[36\] sanitizer), which deletes part of the
//!   hardware fingerprint.
//!
//! # Example: train and deploy on a tiny synthetic dataset
//!
//! ```no_run
//! use deepcsi_core::{run_experiment, Authenticator, ExperimentConfig, ModelConfig};
//! use deepcsi_data::{generate_d1, d1_split, D1Set, GenConfig, InputSpec};
//! use deepcsi_nn::TrainConfig;
//!
//! let mut gen = GenConfig::default();
//! gen.num_modules = 4;
//! gen.snapshots_per_trace = 30;
//! let ds = generate_d1(&gen);
//! let spec = InputSpec::fast();
//! let split = d1_split(&ds, D1Set::S1, &[1], &spec);
//! let cfg = ExperimentConfig {
//!     model: ModelConfig::fast(4, 0),
//!     train: TrainConfig::default(),
//! };
//! let result = run_experiment(&cfg, &split);
//! println!("accuracy {:.1}%", result.accuracy * 100.0);
//! let auth = Authenticator::new(result.network, spec);
//! # let _ = auth;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod demo;
mod experiment;
mod model;
mod pipeline;

pub use experiment::{
    run_experiment, run_experiment_with_provider, ExperimentConfig, ExperimentResult,
};
pub use model::ModelConfig;
pub use pipeline::{AuthError, Authenticator, FrozenAuthenticator, Precision};
