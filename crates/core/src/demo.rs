//! The one demo training recipe: synthetic D1, stride-4 input, the S1
//! split on positions 1–2, [`ModelConfig::demo`], batch 64, learning
//! rate 2e-3, seed 5.
//!
//! `deepcsi-served`, the cluster nodes, the examples and the serving
//! tests all train through [`train`], so every process rebuilds the
//! same weights bit-for-bit. The cluster tier rests on that: a sharded
//! cluster's merged verdicts are byte-identical to a single-process
//! engine over the same replay, with no weights shipped.

use crate::{run_experiment, Authenticator, ExperimentConfig, ModelConfig};
use deepcsi_data::{d1_split, generate_d1, D1Set, Dataset, GenConfig, InputSpec};
use deepcsi_nn::TrainConfig;

/// Knobs for the demo recipe. Every process in a cluster must use
/// identical values — they parameterize the deterministic recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemoConfig {
    /// Transmitting AP modules (= classifier classes).
    pub modules: u32,
    /// Beamforming snapshots per trace.
    pub snapshots: usize,
    /// Training epochs.
    pub epochs: usize,
}

impl Default for DemoConfig {
    fn default() -> Self {
        DemoConfig {
            modules: 2,
            snapshots: 16,
            epochs: 2,
        }
    }
}

/// Generates the synthetic D1 dataset for `cfg` (deterministic).
pub fn demo_dataset(cfg: &DemoConfig) -> Dataset {
    generate_d1(&GenConfig {
        num_modules: cfg.modules,
        snapshots_per_trace: cfg.snapshots,
        ..GenConfig::default()
    })
}

/// The demo input: every 4th subcarrier, which keeps the tensors narrow.
pub fn input_spec() -> InputSpec {
    InputSpec {
        stride: 4,
        ..InputSpec::default()
    }
}

/// Trains the demo classifier on `ds` for `epochs` epochs, returning
/// the authenticator (architecture and input shape recorded, so it can
/// be saved and the engine pins its input shape) and its S1 test
/// accuracy in `[0, 1]`.
pub fn train(ds: &Dataset, epochs: usize) -> (Authenticator, f64) {
    let spec = input_spec();
    let split = d1_split(ds, D1Set::S1, &[1, 2], &spec);
    let model = ModelConfig::demo(ds.modules().len());
    let exp = ExperimentConfig {
        model: model.clone(),
        train: TrainConfig {
            epochs,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 5,
            ..TrainConfig::default()
        },
    };
    let result = run_experiment(&exp, &split);
    let probe = spec.tensor(&ds.traces[0].snapshots[0]);
    let shape: [usize; 3] = probe.shape().try_into().expect("rank-3 input");
    let auth =
        Authenticator::with_config(result.network, spec, model, (shape[0], shape[1], shape[2]));
    (auth, result.accuracy)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a 64 over the `to_bits()` of the frozen f32 logits for every
    /// snapshot of a small dataset. The constant was taken from the
    /// recipe before it moved here; a change to it means the training
    /// arithmetic (or the data generator) drifted, and every verdict pin
    /// downstream will move with it.
    #[test]
    fn recipe_logits_match_the_golden_hash() {
        let cfg = DemoConfig {
            modules: 2,
            snapshots: 10,
            epochs: 1,
        };
        let ds = demo_dataset(&cfg);
        let frozen = train(&ds, cfg.epochs).0.freeze();
        let mut ctx = frozen.ctx();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut reports = 0;
        for fb in ds.traces.iter().flat_map(|t| &t.snapshots) {
            let logits = frozen.model().infer(&frozen.tensorize(fb), &mut ctx);
            for byte in logits
                .as_slice()
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
            {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            reports += 1;
        }
        assert_eq!(reports, 360);
        assert_eq!(
            hash, 0x635a_8bf8_cb5e_b0c3,
            "demo recipe drifted: {hash:#018x}"
        );
    }
}
