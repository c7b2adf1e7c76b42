//! The training/evaluation harness behind every figure.

use crate::model::ModelConfig;
use deepcsi_data::{LabeledSamples, Split};
use deepcsi_nn::{evaluate, ConfusionMatrix, Network, TrainConfig, TrainReport, Trainer};

/// Everything needed to run one training/evaluation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Classifier architecture.
    pub model: ModelConfig,
    /// Training hyper-parameters.
    pub train: TrainConfig,
}

impl ExperimentConfig {
    /// A fast-profile config suitable for the figure sweeps.
    pub fn fast(num_classes: usize, seed: u64) -> Self {
        ExperimentConfig {
            model: ModelConfig::fast(num_classes, seed),
            train: TrainConfig {
                epochs: 8,
                batch_size: 64,
                learning_rate: 1.5e-3,
                seed,
                ..TrainConfig::default()
            },
        }
    }
}

/// The outcome of one experiment.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Test-set accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Test-set confusion matrix (the paper's figures).
    pub confusion: ConfusionMatrix,
    /// Per-epoch training diagnostics.
    pub report: TrainReport,
    /// The trained network, ready for deployment in an
    /// [`crate::Authenticator`].
    pub network: Network,
}

/// Trains the classifier on `split.train`/`split.val` and evaluates on
/// `split.test`.
///
/// # Panics
///
/// Panics if the split's training or test set is empty.
pub fn run_experiment(cfg: &ExperimentConfig, split: &Split) -> ExperimentResult {
    run_experiment_with_provider(cfg, split, &mut |_| None)
}

/// Like [`run_experiment`], but asks `provider` for an alternate training
/// set before each epoch — the channel-augmentation seam. Returning `None`
/// keeps `split.train` for that epoch; returning `Some(samples)` trains
/// that epoch on freshly generated data (e.g. the same devices under a
/// re-drawn propagation channel, the DeepCRF recipe). Validation and test
/// sets are never substituted.
///
/// # Panics
///
/// Panics if the split's training or test set is empty, or if a provided
/// epoch set is empty.
pub fn run_experiment_with_provider(
    cfg: &ExperimentConfig,
    split: &Split,
    provider: &mut dyn FnMut(usize) -> Option<LabeledSamples>,
) -> ExperimentResult {
    assert!(!split.train.is_empty(), "empty training set");
    assert!(!split.test.is_empty(), "empty test set");
    let mut net = cfg.model.build_for(&split.train.x[0]);
    let mut trainer = Trainer::new(cfg.train);
    let report = trainer.fit_with_provider(
        &mut net,
        &split.train.x,
        &split.train.y,
        &mut |epoch| provider(epoch).map(|s| (s.x, s.y)),
        &split.val.x,
        &split.val.y,
    );
    let (accuracy, confusion) = evaluate(&net, &split.test.x, &split.test.y);
    ExperimentResult {
        accuracy,
        confusion,
        report,
        network: net,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcsi_data::LabeledSamples;
    use deepcsi_nn::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A synthetic "two-device" dataset: class-dependent mean pattern +
    /// noise, shaped like a small feedback tensor.
    fn toy_split(n_per_class: usize) -> Split {
        let mut rng = StdRng::seed_from_u64(5);
        let mut make = |class: usize| {
            let mut data = Vec::with_capacity(2 * 32);
            for ch in 0..2 {
                for w in 0..32 {
                    let base = if class == 0 {
                        ((w + ch) as f32 * 0.4).sin() * 0.5
                    } else {
                        ((w * 2 + ch) as f32 * 0.3).cos() * 0.5
                    };
                    data.push(base + rng.gen_range(-0.1..0.1));
                }
            }
            Tensor::from_vec(data, vec![2, 1, 32])
        };
        let mut split = Split::default();
        for i in 0..n_per_class {
            for class in 0..2 {
                let t = make(class);
                if i % 5 == 4 {
                    split.test.push(t, class);
                } else if i % 5 == 3 {
                    split.val.push(t, class);
                } else {
                    split.train.push(t, class);
                }
            }
        }
        split
    }

    #[test]
    fn learns_separable_toy_classes() {
        let split = toy_split(30);
        let cfg = ExperimentConfig {
            model: ModelConfig {
                conv_filters: vec![8, 8],
                conv_kernels: vec![5, 3],
                attention_kernel: 5,
                dense_units: vec![16],
                dropout_rates: vec![0.1],
                num_classes: 2,
                seed: 1,
            },
            train: deepcsi_nn::TrainConfig {
                epochs: 10,
                batch_size: 16,
                learning_rate: 2e-3,
                seed: 1,
                ..deepcsi_nn::TrainConfig::default()
            },
        };
        let result = run_experiment(&cfg, &split);
        assert!(
            result.accuracy > 0.9,
            "toy accuracy only {:.2}",
            result.accuracy
        );
        assert_eq!(result.confusion.num_classes(), 2);
        assert_eq!(result.report.epoch_losses.len(), 10);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_split_panics() {
        let cfg = ExperimentConfig::fast(2, 0);
        let _ = run_experiment(&cfg, &Split::default());
    }

    #[test]
    fn fast_config_has_expected_shape() {
        let cfg = ExperimentConfig::fast(10, 3);
        assert_eq!(cfg.model.num_classes, 10);
        assert!(cfg.train.epochs > 0);
        let _ = LabeledSamples::default();
    }
}
