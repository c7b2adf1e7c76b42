//! Shared harness for the per-figure regeneration binaries.
//!
//! Every `figNN_*` binary in `src/bin/` regenerates one table/figure of
//! the paper (listed in `crates/bench/README.md`). They share:
//!
//! * [`FigureScale`] — the experiment scale knobs (dataset size, model
//!   profile, epochs), with a laptop-friendly default and a `--paper`
//!   flag for full-scale runs.
//! * [`d1_cached`] / [`d2_cached`] — dataset generation with on-disk
//!   caching, so the sweep binaries do not regenerate the world.
//! * Reporting helpers that print the same rows/series the paper reports
//!   and machine-readable `RESULT` lines, which `run_all` collects into
//!   `bench_results/summary.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve_bench;

use deepcsi_core::{ExperimentConfig, ModelConfig};
use deepcsi_data::{generate_d1, generate_d2, Dataset, GenConfig, InputSpec};
use deepcsi_nn::{ConfusionMatrix, TrainConfig};
use std::path::PathBuf;

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
    /// Parses command-line arguments: `--paper` switches to the full
    /// paper-scale model and full-resolution inputs, `--tiny` shrinks
    /// everything for smoke tests.
    pub fn from_args() -> Self {
        let mut scale = FigureScale::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--paper" => {
                    scale.spec = InputSpec::paper_default();
                    scale.paper_model = true;
                    scale.gen.snapshots_per_trace = 200;
                    scale.epochs = 12;
                }
                "--tiny" => {
                    scale.gen.num_modules = 4;
                    scale.gen.snapshots_per_trace = 30;
                    scale.epochs = 4;
                }
                other => eprintln!("ignoring unknown argument {other:?}"),
            }
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

fn cache_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("deepcsi-dataset-cache");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Names a cached dataset. The leading layout tag changes whenever the
/// serialized `Dataset` layout does (`v2`: flat `q_phi`/`q_psi` angle
/// vectors in `BeamformingFeedback`), so a file written by an older
/// build is regenerated instead of being decoded as the new layout.
fn gen_key(cfg: &GenConfig) -> String {
    format!(
        "v2-e{}s{}m{}f{}p{:.3}",
        cfg.env_id,
        cfg.snapshots_per_trace,
        cfg.num_modules,
        cfg.via_frames as u8,
        cfg.profile.fingerprint_strength,
    )
}

/// Generates (or loads from cache) dataset D1 for a configuration.
pub fn d1_cached(cfg: &GenConfig) -> Dataset {
    let path = cache_dir().join(format!("d1-{}.bin", gen_key(cfg)));
    if let Ok(ds) = deepcsi_data::load_dataset(&path) {
        return ds;
    }
    let ds = generate_d1(cfg);
    deepcsi_data::save_dataset(&path, &ds).ok();
    ds
}

/// Generates (or loads from cache) dataset D2 for a configuration.
pub fn d2_cached(cfg: &GenConfig) -> Dataset {
    let path = cache_dir().join(format!("d2-{}.bin", gen_key(cfg)));
    if let Ok(ds) = deepcsi_data::load_dataset(&path) {
        return ds;
    }
    let ds = generate_d2(cfg);
    deepcsi_data::save_dataset(&path, &ds).ok();
    ds
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
    fn gen_key_distinguishes_configs() {
        let a = GenConfig::default();
        let mut b = GenConfig::default();
        b.snapshots_per_trace += 1;
        assert_ne!(gen_key(&a), gen_key(&b));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9802), "98.02%");
    }
}
