//! Criterion micro-benchmarks for every stage the figures depend on.
//!
//! Mapping to the paper's evaluation:
//! * `channel`   — CFR synthesis feeding every figure's dataset.
//! * `bfi`       — Eq. (3) SVD, Algorithm 1, Eq. (7)/(8) quantization:
//!   the beamformee computation behind Figs. 8–17 and the Fig. 13
//!   quantization study.
//! * `frame`     — the monitor's encode/parse path (all captures).
//! * `input`     — Ṽ reconstruction + tensor assembly, incl. the Fig. 16
//!   offset-cleaning baseline.
//! * `classifier`— forward/backward of the fast and paper CNN profiles
//!   (training cost of Figs. 7–12, 15–17).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use deepcsi_bfi::{
    beamforming_matrix, decompose, dequantize, quantize, v_from_angles, BeamformingFeedback,
};
use deepcsi_channel::{AntennaArray, ChannelModel, Environment};
use deepcsi_core::ModelConfig;
use deepcsi_data::{clean_phase_offsets, InputSpec};
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_impair::{apply_impairments, DeviceId, ImpairmentProfile, LinkState, RadioFingerprint};
use deepcsi_linalg::CMatrix;
use deepcsi_nn::{softmax_cross_entropy, Tensor};
use deepcsi_phy::{Codebook, MimoConfig, SubcarrierLayout};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_cfr() -> (Vec<CMatrix>, Vec<i32>) {
    let env = Environment::fig6(0);
    let layout = SubcarrierLayout::vht80();
    let tones = layout.indices().to_vec();
    let model = ChannelModel::new(&env, layout);
    let tx = AntennaArray::new(env.ap_home(), 0.0, env.half_wavelength(), 3);
    let rx = AntennaArray::new(env.beamformee1_position(3), 0.0, env.half_wavelength(), 2);
    let mut rng = StdRng::seed_from_u64(1);
    (model.cfr(&tx, &rx, &mut rng), tones)
}

fn sample_feedback() -> BeamformingFeedback {
    let (cfr, tones) = sample_cfr();
    BeamformingFeedback::from_cfr(&cfr, &tones, MimoConfig::paper_default(), Codebook::MU_HIGH)
}

fn bench_channel(c: &mut Criterion) {
    let env = Environment::fig6(0);
    let layout = SubcarrierLayout::vht80();
    let model = ChannelModel::new(&env, layout);
    let tx = AntennaArray::new(env.ap_home(), 0.0, env.half_wavelength(), 3);
    let rx = AntennaArray::new(env.beamformee1_position(3), 0.0, env.half_wavelength(), 2);
    let mut g = c.benchmark_group("channel");
    g.sample_size(30);
    g.bench_function("cfr_snapshot_234_tones_3x2", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| model.cfr(&tx, &rx, &mut rng))
    });
    let profile = ImpairmentProfile::default();
    let tx_fp = RadioFingerprint::generate(DeviceId(0), 3, &profile);
    let rx_fp = RadioFingerprint::generate_rx(1, 2, &profile);
    let (cfr, tones) = sample_cfr();
    g.bench_function("apply_impairments_234_tones", |b| {
        let mut link = LinkState::new(&tx_fp, 1);
        b.iter(|| apply_impairments(&cfr, &tones, &tx_fp, &rx_fp, &profile, &mut link))
    });
    g.finish();
}

fn bench_bfi(c: &mut Criterion) {
    let (cfr, tones) = sample_cfr();
    let mimo = MimoConfig::paper_default();
    let mut g = c.benchmark_group("bfi");
    g.sample_size(30);
    g.bench_function("svd_v_extraction_3x2", |b| {
        b.iter(|| beamforming_matrix(&cfr[117], 2))
    });
    let v = beamforming_matrix(&cfr[117], 2);
    g.bench_function("givens_decompose_3x2", |b| b.iter(|| decompose(&v)));
    let dec = decompose(&v);
    g.bench_function("quantize_dequantize_one_tone", |b| {
        b.iter(|| dequantize(&quantize(&dec.angles, Codebook::MU_HIGH), Codebook::MU_HIGH))
    });
    g.bench_function("v_from_angles_3x2", |b| {
        b.iter(|| v_from_angles(&dec.angles, 3, 2))
    });
    g.bench_function("full_feedback_234_tones", |b| {
        b.iter(|| BeamformingFeedback::from_cfr(&cfr, &tones, mimo, Codebook::MU_HIGH))
    });
    let fb = sample_feedback();
    g.bench_function("reconstruct_v_series_234_tones", |b| {
        b.iter(|| fb.reconstruct())
    });
    g.finish();
}

fn bench_frame(c: &mut Criterion) {
    let fb = sample_feedback();
    let frame = BeamformingReportFrame::new(
        MacAddr::station(0),
        MacAddr::station(1),
        MacAddr::station(0),
        7,
        fb,
    );
    let bytes = frame.encode();
    let mut g = c.benchmark_group("frame");
    g.sample_size(50);
    g.bench_function("encode_234_tones", |b| b.iter(|| frame.encode()));
    g.bench_function("parse_234_tones", |b| {
        b.iter(|| BeamformingReportFrame::parse(&bytes).expect("parse"))
    });
    g.finish();
}

fn bench_input(c: &mut Criterion) {
    let fb = sample_feedback();
    let spec = InputSpec::paper_default();
    let fast = InputSpec::fast();
    let mut g = c.benchmark_group("input");
    g.sample_size(30);
    g.bench_function("tensor_assembly_full", |b| b.iter(|| spec.tensor(&fb)));
    g.bench_function("tensor_assembly_fast", |b| b.iter(|| fast.tensor(&fb)));
    g.bench_function("offset_cleaning_234_tones", |b| {
        b.iter_batched(
            || fb.reconstruct(),
            |mut series| clean_phase_offsets(&mut series),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_classifier(c: &mut Criterion) {
    let mut g = c.benchmark_group("classifier");
    g.sample_size(20);

    let fast = ModelConfig::fast(10, 1).build((5, 1, 117));
    let x_fast = Tensor::zeros(vec![5, 1, 117]);
    g.bench_function("forward_fast_profile", |b| {
        let mut net = fast.clone();
        b.iter(|| net.forward(&x_fast, false))
    });
    g.bench_function("train_step_fast_profile", |b| {
        let mut net = fast.clone();
        b.iter(|| {
            net.zero_grads();
            let y = net.forward(&x_fast, true);
            let (_, grad) = softmax_cross_entropy(&y, 3);
            net.backward(&grad);
        })
    });

    let paper = ModelConfig::paper(10, 1).build((5, 1, 234));
    let x_paper = Tensor::zeros(vec![5, 1, 234]);
    g.bench_function("forward_paper_profile_489k_params", |b| {
        let mut net = paper.clone();
        b.iter(|| net.forward(&x_paper, false))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_channel, bench_bfi, bench_frame, bench_input, bench_classifier
}
criterion_main!(benches);
