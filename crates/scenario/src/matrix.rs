//! The declarative scenario matrix and its engine-driven scorer.
//!
//! [`ScenarioMatrix::run`] composes the grid
//! `scenarios × decision policies × mitigation arms`:
//!
//! 1. **Train** one model per augmentation arm on the canonical
//!    training condition — the augmented arm re-draws the channel every
//!    epoch (the DeepCRF recipe) through
//!    [`deepcsi_core::run_experiment_with_provider`].
//! 2. **Score top-1 accuracy** per scenario × augmentation arm with
//!    [`deepcsi_nn::evaluate`] over every serve segment's snapshots
//!    (policy-independent: raw classifier resilience).
//! 3. **Drive the serve engine** per cell: each scenario's segments are
//!    replayed back-to-back into one [`deepcsi_serve::Engine`] under the
//!    cell's [`PolicyKind`] (with per-position calibration when the arm
//!    enables it), and the shutdown report is scored for
//!    genuine-accept rate, impostor-reject rate, and reports-to-verdict.
//!
//! Every stream is registered: beamformee 1 of module `m` as the
//! genuine device `m`, beamformee 2 of module `m` as an impostor
//! claiming `(m + 1) % N` — so accept/reject rates are measured against
//! ground truth, not just verdict counts.

use crate::scenarios::{standard_scenarios, tiny_scenarios, Scenario};
use crate::segment::{samples, SegmentSpec};
use deepcsi_core::{
    run_experiment, run_experiment_with_provider, Authenticator, ExperimentConfig, ModelConfig,
};
use deepcsi_data::{InputSpec, LabeledSamples, Split};
use deepcsi_frame::MacAddr;
use deepcsi_impair::DeviceId;
use deepcsi_nn::{evaluate, Network, TrainConfig};
use deepcsi_serve::{
    Backpressure, DecisionPolicyConfig, DeviceRegistry, Engine, EngineConfig, PolicyKind,
    ReplaySource, Verdict,
};
use std::collections::HashMap;

/// The two mitigations under test, each independently toggleable so the
/// matrix measures their effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mitigations {
    /// Training-time channel augmentation: re-draw the channel (room,
    /// position, SNR, drift) every epoch.
    pub augmentation: bool,
    /// Per-position calibration for the adaptive-threshold policy
    /// ([`deepcsi_serve::DecisionPolicyConfig::per_position`]).
    pub per_position: bool,
}

impl Mitigations {
    /// Both mitigations off (the baseline arm).
    pub fn off() -> Self {
        Mitigations {
            augmentation: false,
            per_position: false,
        }
    }

    /// Both mitigations on.
    pub fn on() -> Self {
        Mitigations {
            augmentation: true,
            per_position: true,
        }
    }

    /// Stable label used in bench JSON keys.
    pub fn label(&self) -> &'static str {
        match (self.augmentation, self.per_position) {
            (false, false) => "unmitigated",
            (true, true) => "mitigated",
            (true, false) => "augmented_only",
            (false, true) => "calibrated_only",
        }
    }
}

/// Scale knobs shared by every cell of a matrix run.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// AP modules to fingerprint (each contributes one genuine and one
    /// impostor stream).
    pub num_modules: u32,
    /// Soundings per trace in the training capture (and per augmented
    /// epoch re-draw).
    pub train_snapshots: usize,
    /// Soundings per trace in each serve segment.
    pub serve_snapshots: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Training seed (generation is deterministic per segment already).
    pub seed: u64,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            num_modules: 3,
            train_snapshots: 20,
            serve_snapshots: 20,
            epochs: 8,
            seed: 7,
        }
    }
}

/// Scenario-level classifier resilience (policy-independent).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioAccuracy {
    /// Scenario name.
    pub scenario: &'static str,
    /// Whether the scoring model was trained with channel augmentation.
    pub augmentation: bool,
    /// Top-1 accuracy over every serve segment's snapshots.
    pub top1: f64,
}

/// One cell of the matrix: scenario × policy × mitigation arm, scored
/// through the serve engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Scenario name.
    pub scenario: &'static str,
    /// Decision policy driven through the engine.
    pub policy: PolicyKind,
    /// Mitigation arm.
    pub mitigations: Mitigations,
    /// Fraction of genuine streams whose final verdict is `Accept`.
    pub genuine_accept_rate: f64,
    /// Fraction of impostor streams *not* accepted (rejected or still
    /// unknown — the security-relevant "never falsely accepted" rate).
    pub impostor_reject_rate: f64,
    /// Median classified reports a stream needed before its verdict
    /// first left `Unknown` (`None` if no stream decided).
    pub reports_to_verdict_p50: Option<u64>,
}

/// Everything a matrix run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    /// Per scenario × augmentation-arm top-1 accuracy.
    pub accuracies: Vec<ScenarioAccuracy>,
    /// Per scenario × policy × arm engine-scored cells.
    pub cells: Vec<CellResult>,
}

impl MatrixReport {
    /// The cross-scenario accuracy floor (minimum top-1 over all
    /// scenarios) for one augmentation arm.
    pub fn accuracy_floor(&self, augmentation: bool) -> Option<f64> {
        self.accuracies
            .iter()
            .filter(|a| a.augmentation == augmentation)
            .map(|a| a.top1)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            })
    }

    /// `true` when every augmented cell's accuracy is at least the
    /// unmitigated cross-scenario floor — the "mitigation never made a
    /// cell worse than the unmitigated worst case" invariant the bench
    /// pins. Vacuously `true` when either arm is absent.
    pub fn mitigation_never_worse(&self) -> bool {
        let Some(floor) = self.accuracy_floor(false) else {
            return true;
        };
        self.accuracies
            .iter()
            .filter(|a| a.augmentation)
            .all(|a| a.top1 >= floor)
    }
}

/// The declarative evaluation grid: which scenarios to replay, which
/// decision policies to drive, and which mitigation arms to compare.
pub struct ScenarioMatrix {
    /// Scenario axes (rows).
    pub scenarios: Vec<Scenario>,
    /// Decision policies driven through the engine (columns).
    pub policies: Vec<PolicyKind>,
    /// Mitigation arms compared per cell.
    pub arms: Vec<Mitigations>,
    /// Shared scale knobs.
    pub cfg: MatrixConfig,
}

impl ScenarioMatrix {
    /// The full suite: six scenario axes × all three policies ×
    /// unmitigated vs. mitigated.
    pub fn standard(cfg: MatrixConfig) -> Self {
        ScenarioMatrix {
            scenarios: standard_scenarios(),
            policies: vec![
                PolicyKind::FixedMajority,
                PolicyKind::ConfidenceWeighted,
                PolicyKind::AdaptiveThreshold,
            ],
            arms: vec![Mitigations::off(), Mitigations::on()],
            cfg,
        }
    }

    /// The CI smoke grid: 2 scenarios × 2 policies × both arms, at
    /// small generation/training scale.
    pub fn tiny() -> Self {
        ScenarioMatrix {
            scenarios: tiny_scenarios(),
            policies: vec![PolicyKind::FixedMajority, PolicyKind::AdaptiveThreshold],
            arms: vec![Mitigations::off(), Mitigations::on()],
            cfg: MatrixConfig {
                num_modules: 2,
                train_snapshots: 10,
                serve_snapshots: 12,
                epochs: 4,
                seed: 7,
            },
        }
    }

    /// Runs the whole grid and returns the scored report.
    pub fn run(&self) -> MatrixReport {
        let spec = input_spec();
        let base = samples(
            &SegmentSpec::train().dataset(self.cfg.num_modules, self.cfg.train_snapshots),
            &spec,
        );
        let split = holdout_split(&base);

        // One model per augmentation arm, shared across every scenario
        // and policy so cells differ only in the axis under test.
        let mut nets: HashMap<bool, Network> = HashMap::new();
        for arm in &self.arms {
            if nets.contains_key(&arm.augmentation) {
                continue;
            }
            let exp = ExperimentConfig {
                model: ModelConfig::demo(self.cfg.num_modules as usize),
                train: TrainConfig {
                    epochs: self.cfg.epochs,
                    batch_size: 32,
                    learning_rate: 2e-3,
                    seed: self.cfg.seed,
                    ..TrainConfig::default()
                },
            };
            let result = if arm.augmentation {
                let mut provider =
                    |epoch: usize| Some(augmented_epoch(epoch, &self.cfg, &spec, &split.train));
                run_experiment_with_provider(&exp, &split, &mut provider)
            } else {
                run_experiment(&exp, &split)
            };
            nets.insert(arm.augmentation, result.network);
        }

        let registry = self.registry();
        let roles = self.roles();

        let mut accuracies = Vec::new();
        let mut cells = Vec::new();
        for scenario in &self.scenarios {
            let segments: Vec<_> = scenario
                .segments
                .iter()
                .map(|s| s.dataset(self.cfg.num_modules, self.cfg.serve_snapshots))
                .collect();

            let mut eval = LabeledSamples::default();
            for ds in &segments {
                eval.extend(samples(ds, &spec));
            }
            let mut scored_arms: Vec<bool> = nets.keys().copied().collect();
            scored_arms.sort_unstable();
            for augmentation in scored_arms {
                let (top1, _) = evaluate(&nets[&augmentation], &eval.x, &eval.y);
                accuracies.push(ScenarioAccuracy {
                    scenario: scenario.name,
                    augmentation,
                    top1,
                });
            }

            for &policy in &self.policies {
                for arm in &self.arms {
                    let engine = Engine::start_frozen(
                        EngineConfig {
                            workers: 2,
                            backpressure: Backpressure::Block,
                            decision: DecisionPolicyConfig {
                                kind: policy,
                                per_position: arm.per_position,
                                ..DecisionPolicyConfig::default()
                            },
                            ..EngineConfig::default()
                        },
                        Authenticator::new(nets[&arm.augmentation].clone(), input_spec()).freeze(),
                        registry.clone(),
                    );
                    for ds in &segments {
                        let replay = ReplaySource::from_dataset(ds);
                        for frame in replay.frames() {
                            engine.ingest_frame(frame);
                        }
                    }
                    let report = engine.shutdown();

                    let mut genuine_accepts = 0usize;
                    let mut impostor_rejects = 0usize;
                    for d in &report.decisions {
                        match roles.get(&d.source).copied() {
                            Some(1) if d.verdict == Verdict::Accept => genuine_accepts += 1,
                            Some(2) if d.verdict != Verdict::Accept => impostor_rejects += 1,
                            _ => {}
                        }
                    }
                    let n = self.cfg.num_modules as f64;
                    cells.push(CellResult {
                        scenario: scenario.name,
                        policy,
                        mitigations: *arm,
                        genuine_accept_rate: genuine_accepts as f64 / n,
                        impostor_reject_rate: impostor_rejects as f64 / n,
                        reports_to_verdict_p50: report.stats.reports_to_verdict_p50,
                    });
                }
            }
        }
        MatrixReport { accuracies, cells }
    }

    /// The registry every cell serves against: genuine streams under
    /// their true module, impostor streams claiming the next module.
    fn registry(&self) -> DeviceRegistry {
        let mut registry = DeviceRegistry::new();
        for m in 0..self.cfg.num_modules {
            registry.register(stream_mac(DeviceId(m), 1), DeviceId(m));
            registry.register(
                stream_mac(DeviceId(m), 2),
                DeviceId((m + 1) % self.cfg.num_modules),
            );
        }
        registry
    }

    /// Source address → beamformee role (1 = genuine, 2 = impostor).
    fn roles(&self) -> HashMap<MacAddr, u8> {
        let mut roles = HashMap::new();
        for m in 0..self.cfg.num_modules {
            roles.insert(stream_mac(DeviceId(m), 1), 1);
            roles.insert(stream_mac(DeviceId(m), 2), 2);
        }
        roles
    }
}

/// The source MAC [`ReplaySource`] synthesizes for a (module,
/// beamformee) stream — must stay in sync with the replay encoder
/// (pinned by a test against [`ReplaySource::registry`]).
pub fn stream_mac(module: DeviceId, beamformee: u8) -> MacAddr {
    MacAddr::station(u64::from(module.0) << 8 | u64::from(beamformee))
}

/// The DNN input assembly every matrix model uses (stride-4 sub-band
/// selection, as the serving benches).
pub fn input_spec() -> InputSpec {
    InputSpec {
        stride: 4,
        ..InputSpec::default()
    }
}

/// Deterministic 80/20 holdout: every 5th sample validates (and doubles
/// as the held-out test set).
fn holdout_split(all: &LabeledSamples) -> Split {
    let mut train = LabeledSamples::default();
    let mut val = LabeledSamples::default();
    for (i, (x, y)) in all.x.iter().zip(&all.y).enumerate() {
        if i % 5 == 4 {
            val.push(x.clone(), *y);
        } else {
            train.push(x.clone(), *y);
        }
    }
    Split {
        train,
        val: val.clone(),
        test: val,
    }
}

/// One epoch of the DeepCRF-style augmentation: the base training set
/// plus a fresh capture under an epoch-dependent channel re-draw
/// (room, position, mobility, SNR, phase noise, and drift all cycle).
fn augmented_epoch(
    epoch: usize,
    cfg: &MatrixConfig,
    spec: &InputSpec,
    base: &LabeledSamples,
) -> LabeledSamples {
    // One re-draw per epoch, cycling a small set of rooms at moderate
    // SNRs, with drift offsets folded in. Deliberately *not* a harsh
    // sweep: what buys channel invariance here is room diversity, and
    // flooding a small epoch budget with low-SNR captures trades too
    // much clean-condition accuracy for it.
    const ENVS: [u64; 4] = [0, 7, 3, 5];
    const SNRS: [f64; 3] = [25.0, 15.0, 10.0];
    let seg = SegmentSpec {
        env_id: ENVS[epoch % ENVS.len()],
        mobility: epoch % 4 == 3,
        snr_db: Some(SNRS[epoch % SNRS.len()]),
        drift_day: (epoch as u32 % 3) * 15,
        drift_scale: if epoch.is_multiple_of(3) { 0.0 } else { 0.3 },
        ..SegmentSpec::train()
    };
    let mut out = base.clone();
    out.extend(samples(
        &seg.dataset(cfg.num_modules, cfg.train_snapshots),
        spec,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_macs_match_the_replay_encoder() {
        let ds = SegmentSpec::train().dataset(2, 1);
        let replay_registry = ReplaySource::registry(&ds);
        for t in &ds.traces {
            assert_eq!(
                replay_registry.expected(stream_mac(t.module, t.beamformee)),
                Some(t.module),
                "stream_mac diverged from the replay encoder for {}/{}",
                t.module,
                t.beamformee
            );
        }
    }

    #[test]
    fn arm_labels_are_distinct() {
        let labels: std::collections::HashSet<_> = [
            Mitigations::off(),
            Mitigations::on(),
            Mitigations {
                augmentation: true,
                per_position: false,
            },
            Mitigations {
                augmentation: false,
                per_position: true,
            },
        ]
        .iter()
        .map(|m| m.label())
        .collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn augmented_epochs_redraw_the_channel() {
        let cfg = MatrixConfig {
            num_modules: 2,
            train_snapshots: 2,
            ..MatrixConfig::default()
        };
        let spec = input_spec();
        let base = LabeledSamples::default();
        let a = augmented_epoch(0, &cfg, &spec, &base);
        let b = augmented_epoch(1, &cfg, &spec, &base);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b, "consecutive epochs must see different channels");
        // And re-running the same epoch is deterministic.
        assert_eq!(a, augmented_epoch(0, &cfg, &spec, &base));
    }

    #[test]
    fn floor_and_never_worse_logic() {
        let report = MatrixReport {
            accuracies: vec![
                ScenarioAccuracy {
                    scenario: "a",
                    augmentation: false,
                    top1: 0.4,
                },
                ScenarioAccuracy {
                    scenario: "b",
                    augmentation: false,
                    top1: 0.9,
                },
                ScenarioAccuracy {
                    scenario: "a",
                    augmentation: true,
                    top1: 0.8,
                },
                ScenarioAccuracy {
                    scenario: "b",
                    augmentation: true,
                    top1: 0.95,
                },
            ],
            cells: Vec::new(),
        };
        assert_eq!(report.accuracy_floor(false), Some(0.4));
        assert_eq!(report.accuracy_floor(true), Some(0.8));
        assert!(report.mitigation_never_worse());
    }

    // An end-to-end micro run: one scenario, one policy, one arm.
    // Scenario-matrix breadth is exercised by `scenario_bench --tiny`
    // in CI; this pins the plumbing (train → engine → scored cells).
    #[test]
    fn micro_matrix_runs_end_to_end() {
        let matrix = ScenarioMatrix {
            scenarios: vec![crate::tiny_scenarios().remove(0)], // cross_position
            policies: vec![PolicyKind::FixedMajority],
            arms: vec![Mitigations::off()],
            cfg: MatrixConfig {
                num_modules: 2,
                train_snapshots: 8,
                serve_snapshots: 8,
                epochs: 2,
                seed: 7,
            },
        };
        let report = matrix.run();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.accuracies.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.scenario, "cross_position");
        assert!((0.0..=1.0).contains(&cell.genuine_accept_rate));
        assert!((0.0..=1.0).contains(&cell.impostor_reject_rate));
        let acc = &report.accuracies[0];
        assert!((0.0..=1.0).contains(&acc.top1));
        assert_eq!(report.accuracy_floor(true), None);
        assert!(report.mitigation_never_worse());
    }
}
