//! Shared harness for the per-figure regeneration binaries.
//!
//! Every `figNN_*` binary in `src/bin/` regenerates one table/figure of
//! the paper (listed in `crates/bench/README.md`). They share:
//!
//! * [`FigureScale`] — the experiment scale knobs (dataset size, model
//!   profile, epochs), with a laptop-friendly default and a `--paper`
//!   flag for full-scale runs.
//! * The flag tables ([`SCALE_FLAGS`], [`PAPER_FLAGS`], [`TINY_FLAGS`]):
//!   every binary parses its command line through one of them with
//!   [`Flags`], so an unknown flag exits 2 before any work, and
//!   `run_all` forwards each child only the flags the child declares.
//! * Each binary generates D1/D2 itself (`deepcsi_data::generate_d1`/
//!   `generate_d2`) and keeps nothing on disk, so every run measures the
//!   simulator as it is built.
//! * Reporting helpers that print the same rows/series the paper reports
//!   and machine-readable `RESULT` lines, which `run_all` collects into
//!   `bench_results/summary.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use deepcsi_core::{ExperimentConfig, ModelConfig};
use deepcsi_data::{GenConfig, InputSpec};
use deepcsi_nn::{ConfusionMatrix, TrainConfig};
use deepcsi_obs::{Arg, Flag, Flags};

/// Runs at the paper's scale instead of the laptop default.
pub const PAPER: Flag = ("--paper", Arg::Switch, "run at the paper's scale");
/// Shrinks the run to a smoke test.
pub const TINY: Flag = ("--tiny", Arg::Switch, "shrink everything for a smoke test");
/// The flags of a binary that runs at a [`FigureScale`].
pub const SCALE_FLAGS: &[Flag] = &[PAPER, TINY];
/// The flags of a figure binary with a paper scale but no smoke scale.
pub const PAPER_FLAGS: &[Flag] = &[PAPER];
/// The flags of a bench binary.
pub const TINY_FLAGS: &[Flag] = &[TINY];

/// Experiment scale used by a figure binary.
#[derive(Debug, Clone)]
pub struct FigureScale {
    /// Dataset generation configuration.
    pub gen: GenConfig,
    /// Input view (stride etc.).
    pub spec: InputSpec,
    /// Epochs for each training.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Use the paper's full 128-filter architecture instead of the fast
    /// profile.
    pub paper_model: bool,
}

impl Default for FigureScale {
    fn default() -> Self {
        FigureScale {
            gen: GenConfig {
                snapshots_per_trace: 100,
                ..GenConfig::default()
            },
            spec: InputSpec::fast(),
            epochs: 8,
            learning_rate: 1.5e-3,
            paper_model: false,
        }
    }
}

impl FigureScale {
    /// Parses the command line against [`SCALE_FLAGS`]: `--paper`
    /// switches to the full paper-scale model and full-resolution
    /// inputs, `--tiny` then shrinks everything for smoke tests.
    pub fn from_args() -> Self {
        let flags = Flags::from_env(SCALE_FLAGS);
        let mut scale = FigureScale::default();
        if flags.has("--paper") {
            scale.spec = InputSpec::paper_default();
            scale.paper_model = true;
            scale.gen.snapshots_per_trace = 200;
            scale.epochs = 12;
        }
        if flags.has("--tiny") {
            scale.gen.num_modules = 4;
            scale.gen.snapshots_per_trace = 30;
            scale.epochs = 4;
        }
        scale
    }

    /// The experiment configuration for one training run with a given
    /// seed.
    pub fn experiment(&self, seed: u64) -> ExperimentConfig {
        let classes = self.gen.num_modules as usize;
        ExperimentConfig {
            model: if self.paper_model {
                ModelConfig::paper(classes, seed)
            } else {
                ModelConfig::fast(classes, seed)
            },
            train: TrainConfig {
                epochs: self.epochs,
                batch_size: 64,
                learning_rate: self.learning_rate,
                seed,
                ..TrainConfig::default()
            },
        }
    }
}

/// Prints a confusion matrix under a title (the paper's figure panels).
pub fn print_confusion(title: &str, cm: &ConfusionMatrix) {
    println!("\n--- {title} ---");
    println!("{cm}");
}

/// Prints the machine-readable summary line `run_all` collects:
/// `RESULT <figure> <key> <value>`.
pub fn result_line(figure: &str, key: &str, value: f64) {
    println!("RESULT {figure} {key} {value:.4}");
}

/// Formats an accuracy as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Trains on a split, prints the accuracy (and optionally the confusion
/// matrix), emits the machine-readable `RESULT` line, and returns the
/// accuracy.
pub fn run_labeled(
    scale: &FigureScale,
    split: &deepcsi_data::Split,
    figure: &str,
    label: &str,
    show_confusion: bool,
) -> f64 {
    let t = std::time::Instant::now();
    let result = deepcsi_core::run_experiment(&scale.experiment(0xF16), split);
    println!(
        "{label:<40} acc {:>8}  (train {:>6}, test {:>6}, {:.1?})",
        pct(result.accuracy),
        split.train.len(),
        split.test.len(),
        t.elapsed()
    );
    if show_confusion {
        print_confusion(label, &result.confusion);
    }
    result_line(figure, label, result.accuracy);
    result.accuracy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_fast_profile() {
        let s = FigureScale::default();
        assert!(!s.paper_model);
        assert_eq!(s.spec.stride, 2);
        let exp = s.experiment(1);
        assert_eq!(exp.model.num_classes, 10);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9802), "98.02%");
    }
}
