//! Integration tests spanning the whole workspace: channel → impairments
//! → feedback → frames → tensors → classifier.

use deepcsi::bfi::VSeries;
use deepcsi::core::{run_experiment, Authenticator, ExperimentConfig, ModelConfig};
use deepcsi::data::{d1_split, generate_trace, D1Set, GenConfig, InputSpec, TraceKind, TraceSpec};
use deepcsi::frame::{BeamformingReportFrame, MacAddr, Monitor};
use deepcsi::impair::DeviceId;
use deepcsi::nn::TrainConfig;
use deepcsi::phy::{MimoConfig, SubcarrierLayout};

fn tiny_gen(modules: u32, snapshots: usize) -> GenConfig {
    GenConfig {
        num_modules: modules,
        snapshots_per_trace: snapshots,
        ..GenConfig::default()
    }
}

fn spec_for_test() -> InputSpec {
    InputSpec {
        stride: 4, // narrow inputs keep the test fast
        ..InputSpec::default()
    }
}

/// The headline claim, end to end: hardware imperfections percolate into
/// the (quantized, frame-round-tripped) beamforming feedback strongly
/// enough that a small CNN identifies the transmitter.
#[test]
fn end_to_end_fingerprinting_works() {
    let mut gen = tiny_gen(3, 40);
    gen.via_frames = true; // exercise the codec inside the data path
    let ds = deepcsi::data::generate_d1(&gen);
    let split = d1_split(&ds, D1Set::S1, &[1], &spec_for_test());
    let cfg = ExperimentConfig {
        model: ModelConfig {
            conv_filters: vec![16, 16],
            conv_kernels: vec![7, 5],
            attention_kernel: 7,
            dense_units: vec![32],
            dropout_rates: vec![0.1],
            num_classes: 3,
            seed: 5,
        },
        train: TrainConfig {
            epochs: 6,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 5,
            ..TrainConfig::default()
        },
    };
    let result = run_experiment(&cfg, &split);
    assert!(
        result.accuracy > 0.85,
        "end-to-end S1 accuracy only {:.2}%",
        result.accuracy * 100.0
    );
}

/// Different devices must be distinguishable in Ṽ space *before* any
/// learning: after averaging out per-packet noise, the distance between
/// two devices' mean Ṽ exceeds the drift between disjoint time windows
/// of the same device.
#[test]
fn fingerprint_percolates_into_v_tilde() {
    let gen = tiny_gen(2, 480);
    let spec = |module| TraceSpec {
        module: DeviceId(module),
        beamformee: 1,
        n_rx: 2,
        rx_position: 3,
        kind: TraceKind::D1Static { position: 3 },
    };
    let t0 = generate_trace(&gen, &spec(0));
    let t1 = generate_trace(&gen, &spec(1));
    // Element-wise time average of the reconstructed Ṽ series.
    let mean_series = |snaps: &[deepcsi::bfi::BeamformingFeedback]| -> Vec<Vec<f64>> {
        let series: Vec<VSeries> = snaps.iter().map(|fb| fb.reconstruct()).collect();
        let n_sc = series[0].len();
        let mut acc = vec![vec![0.0f64; 12]; n_sc]; // 3×2 complex = 12 reals
        for s in &series {
            for (k, vk) in s.v.iter().enumerate() {
                for m in 0..3 {
                    for c in 0..2 {
                        acc[k][(m * 2 + c) * 2] += vk[(m, c)].re;
                        acc[k][(m * 2 + c) * 2 + 1] += vk[(m, c)].im;
                    }
                }
            }
        }
        let n = series.len() as f64;
        for row in acc.iter_mut() {
            for v in row.iter_mut() {
                *v /= n;
            }
        }
        acc
    };
    let dist = |a: &[Vec<f64>], b: &[Vec<f64>]| -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| {
                x.iter()
                    .zip(y.iter())
                    .map(|(p, q)| (p - q) * (p - q))
                    .sum::<f64>()
                    .sqrt()
            })
            .sum::<f64>()
    };
    let half = t0.snapshots.len() / 2;
    let within = dist(
        &mean_series(&t0.snapshots[..half]),
        &mean_series(&t0.snapshots[half..]),
    );
    let between = dist(&mean_series(&t0.snapshots), &mean_series(&t1.snapshots));
    assert!(
        between > 1.5 * within,
        "between-device distance {between:.4} not > within-device {within:.4}"
    );
}

/// The monitor workflow of §III-C: capture frames from two beamformees,
/// group by source address, feed one group to the authenticator.
#[test]
fn monitor_capture_to_classification() {
    let gen = tiny_gen(2, 10);
    let mut monitor = Monitor::new();
    for bf in [1u8, 2u8] {
        let trace = generate_trace(
            &gen,
            &TraceSpec {
                module: DeviceId(0),
                beamformee: bf,
                n_rx: 2,
                rx_position: 2,
                kind: TraceKind::D1Static { position: 2 },
            },
        );
        for (seq, fb) in trace.snapshots.iter().enumerate() {
            let bytes = BeamformingReportFrame::new(
                MacAddr::station(1000),
                MacAddr::station(bf as u64),
                MacAddr::station(1000),
                seq as u16,
                fb.clone(),
            )
            .encode();
            monitor.observe(&bytes).expect("valid frame");
        }
    }
    assert_eq!(monitor.sources().len(), 2);
    let from_bf1: Vec<_> = monitor.reports_from(MacAddr::station(1)).collect();
    assert_eq!(from_bf1.len(), 10);

    // An untrained model still runs the full classify path.
    let spec = spec_for_test();
    let probe = spec.tensor(&from_bf1[0].feedback);
    let shape: [usize; 3] = probe.shape().try_into().expect("rank 3");
    let model = ModelConfig::fast(2, 0);
    let auth = Authenticator::new(model.build((shape[0], shape[1], shape[2])), spec).freeze();
    let mut ctx = auth.ctx();
    for r in from_bf1 {
        let id = auth.classify_feedback(&r.feedback, &mut ctx);
        assert!(id < 2);
    }
}

/// Dataset generation must be bit-reproducible across runs and differ
/// across environments (the paper's two rooms).
#[test]
fn dataset_determinism_and_environment_separation() {
    let gen = tiny_gen(1, 3);
    let a = deepcsi::data::generate_d1(&gen);
    let b = deepcsi::data::generate_d1(&gen);
    assert_eq!(a, b, "same config must reproduce identical datasets");
    let other_env = GenConfig {
        env_id: 1,
        ..gen.clone()
    };
    let c = deepcsi::data::generate_d1(&other_env);
    assert_ne!(a, c, "different rooms must yield different captures");
}

/// Feedback captured through the standard frame format must carry exactly
/// the same information as the direct path.
#[test]
fn frame_roundtrip_is_transparent_to_the_classifier() {
    let direct_cfg = tiny_gen(1, 4);
    let mut framed_cfg = tiny_gen(1, 4);
    framed_cfg.via_frames = true;
    let spec = TraceSpec {
        module: DeviceId(0),
        beamformee: 1,
        n_rx: 2,
        rx_position: 1,
        kind: TraceKind::D1Static { position: 1 },
    };
    let direct = generate_trace(&direct_cfg, &spec);
    let framed = generate_trace(&framed_cfg, &spec);
    let ispec = spec_for_test();
    for (a, b) in direct.snapshots.iter().zip(framed.snapshots.iter()) {
        let ta = ispec.tensor(a);
        let tb = ispec.tensor(b);
        assert_eq!(ta.as_slice(), tb.as_slice());
    }
}

/// The paper's PHY dimensioning invariants hold through the stack.
#[test]
fn phy_dimensions_flow_through() {
    let layout = SubcarrierLayout::vht80();
    assert_eq!(layout.len(), 234);
    let mimo = MimoConfig::paper_default();
    assert_eq!(mimo.num_angle_pairs(), 6);
    let gen = tiny_gen(1, 1);
    let trace = generate_trace(
        &gen,
        &TraceSpec {
            module: DeviceId(0),
            beamformee: 2,
            n_rx: 2,
            rx_position: 9,
            kind: TraceKind::D1Static { position: 9 },
        },
    );
    let fb = &trace.snapshots[0];
    assert_eq!(fb.len(), 234);
    assert_eq!(fb.angles_at(0).0.len(), 3);
    assert_eq!(fb.angles_at(0).1.len(), 3);
    // Tensor shape: 5 I/Q channels × 1 stream × 234 tones.
    let t = InputSpec::default().tensor(fb);
    assert_eq!(t.shape(), &[5, 1, 234]);
}
