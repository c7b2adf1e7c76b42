//! Accuracy-parity pins for the int8 inference pipeline.
//!
//! The quantized path deliberately trades bit-equality for integer
//! arithmetic, so these tests pin what the trade is allowed to cost:
//!
//! * top-1 agreement with the f32 model ≥ 99% on trained networks over
//!   ragged batches 1..41 (aggregated across a property sweep of
//!   training seeds, batch sizes and eval draws),
//! * int8 outputs **bit-identical** across `infer_threads` ∈ {1, 2, 4}
//!   — quantization must not break the lane-split invariance the
//!   serving engine relies on,
//! * the requantize error of a layer exit bounded by half the
//!   activation scale (pinned exactly via an identity dense layer),
//! * mis-assembled pipelines failing at freeze time with
//!   [`deepcsi_nn::ShapeMismatch`], not at first inference.

use deepcsi_nn::{
    Conv2d, Dense, Flatten, InferPool, MaxPool2d, Network, QuantError, QuantSpec, Selu, Tensor,
    TrainConfig, Trainer,
};
use proptest::prelude::*;
use proptest::run_property;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const CLASSES: usize = 3;
const IN_SHAPE: [usize; 3] = [2, 1, 12];
const IN_LEN: usize = 24;

/// Class prototypes: well-separated deterministic patterns.
fn prototype(class: usize) -> Vec<f32> {
    (0..IN_LEN)
        .map(|e| ((e * (class + 2) * 13 + class * 7) % 11) as f32 * 0.2 - 1.0)
        .collect()
}

/// A sample of `class`: prototype plus bounded noise.
fn sample_of(class: usize, rng: &mut StdRng) -> Tensor {
    let x: Vec<f32> = prototype(class)
        .iter()
        .map(|&p| p + rng.gen_range(-0.15f32..0.15))
        .collect();
    Tensor::from_vec(x, IN_SHAPE.to_vec())
}

/// Trains a small conv+dense classifier on the prototype blobs — a
/// "trained-ish" network with genuine decision margins, so top-1
/// agreement is a meaningful statistic rather than coin flips on
/// near-tied random logits.
fn trained_network(seed: u64) -> (Network, Vec<Tensor>) {
    let mut net = Network::new();
    net.push(Conv2d::new(2, 4, (1, 3), seed));
    net.push(Selu::new());
    net.push(MaxPool2d::new((1, 2)));
    net.push(Flatten::new());
    net.push(Dense::new(4 * 6, CLASSES, seed + 1));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A1);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for class in 0..CLASSES {
        for _ in 0..20 {
            xs.push(sample_of(class, &mut rng));
            ys.push(class);
        }
    }
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 30,
        batch_size: 12,
        learning_rate: 0.01,
        seed,
        ..TrainConfig::default()
    });
    trainer.fit(&mut net, &xs, &ys, &[], &[]);
    (net, xs)
}

/// The tentpole parity property: across training seeds, ragged batch
/// sizes 1..41 and fresh eval draws, the int8 model agrees with the f32
/// model's top-1 on ≥ 99% of samples in aggregate — and its outputs are
/// bit-identical whichever of {1, 2, 4} inference contexts split the
/// batch.
#[test]
fn int8_top1_agreement_is_at_least_99_percent() {
    // Trained models are cached per seed; the property then sweeps
    // (seed, batch size, eval draw) combinations.
    let mut cache: HashMap<u64, (Network, Vec<Tensor>, deepcsi_nn::FrozenModel)> = HashMap::new();
    let mut agree = 0u64;
    let mut total = 0u64;
    run_property(
        &ProptestConfig::with_cases(24),
        concat!(module_path!(), "::int8_top1_agreement"),
        |rng| {
            let seed = rng.gen_range(0u64..4);
            let n = rng.gen_range(1usize..41);
            let (net, calib, int8) = cache.entry(seed).or_insert_with(|| {
                let (net, calib) = trained_network(seed);
                let spec = QuantSpec::calibrate(&net.freeze(), &calib).expect("calibrate");
                let int8 = net.freeze_int8(&spec).expect("freeze_int8");
                (net, calib, int8)
            });
            let _ = calib;
            let frozen = net.freeze();
            let xs: Vec<Tensor> = (0..n)
                .map(|_| sample_of(rng.gen_range(0..CLASSES), rng))
                .collect();

            let mut ctx = frozen.ctx();
            let want = frozen.infer_batch(&xs, &mut ctx);
            let mut qctx = int8.ctx();
            let got = int8.infer_batch(&xs, &mut qctx);
            prop_assert_eq!(got.len(), want.len());
            for (w, g) in want.iter().zip(&got) {
                prop_assert_eq!(w.shape(), g.shape());
                prop_assert!(g.is_finite(), "int8 logits must stay finite");
                total += 1;
                if w.argmax() == g.argmax() {
                    agree += 1;
                }
            }
            // Lane-split invariance: the quantized model must stay
            // bit-identical under any lane split, like the f32 one.
            for lanes in [2usize, 4] {
                let par = InferPool::new(lanes).infer_batch(int8, &xs);
                for (a, b) in got.iter().zip(&par) {
                    prop_assert!(
                        a.as_slice() == b.as_slice(),
                        "int8 outputs diverged at {lanes} lanes (batch {})",
                        n
                    );
                }
            }
            Ok(())
        },
    );
    let rate = agree as f64 / total as f64;
    assert!(
        rate >= 0.99,
        "int8 top-1 agreement {rate:.4} < 0.99 ({agree}/{total})"
    );
}

/// Deterministic per-layer error bound: through an identity dense layer
/// the int8 pipeline computes exactly `s · round(x / s)` (the weights
/// quantize losslessly onto ±127), so the end-to-end error **is** the
/// requantize error at the layer exit — and must stay within half the
/// activation scale.
#[test]
fn requant_error_is_bounded_by_half_the_scale() {
    let dim = 8usize;
    let mut net = Network::new();
    let mut ident = Dense::new(dim, dim, 1);
    for (i, w) in deepcsi_nn::Layer::weights_mut(&mut ident)
        .into_iter()
        .enumerate()
    {
        w.fill(0.0);
        if i == 0 {
            for d in 0..dim {
                w[d * dim + d] = 1.0;
            }
        }
    }
    net.push(ident);

    let mut rng = StdRng::seed_from_u64(9);
    let sample: Vec<Tensor> = (0..64)
        .map(|_| {
            Tensor::from_vec(
                (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
                vec![dim],
            )
        })
        .collect();
    let spec = QuantSpec::calibrate(&net.freeze(), &sample).unwrap();
    let int8 = net.freeze_int8(&spec).unwrap();
    // Input and output boundaries see the same values → same scale.
    let scale = spec.act_scale(1);
    let mut ctx = int8.ctx();
    let mut worst = 0.0f32;
    for x in &sample {
        let y = int8.infer(x, &mut ctx);
        for (&xv, &yv) in x.as_slice().iter().zip(y.as_slice()) {
            worst = worst.max((xv - yv).abs());
        }
    }
    // Exact-arithmetic bound is scale/2; allow a few float ulps.
    let bound = scale / 2.0 * (1.0 + 1e-5);
    assert!(
        worst <= bound,
        "requant error {worst} exceeds scale/2 = {bound} (scale {scale})"
    );
    // The bound is tight-ish: the grid really is this coarse.
    assert!(worst >= scale * 0.25, "suspiciously small error {worst}");
}

/// A conv → pool → conv chain (no activation between) stays entirely in
/// the int8 domain: one quantize on entry, one dequantize at the end,
/// max-pool running on `i8` directly.
#[test]
fn integer_chain_crosses_pool_and_flatten_without_float_round_trips() {
    let mut net = Network::new();
    net.push(Conv2d::new(2, 4, (1, 3), 3));
    net.push(MaxPool2d::new((1, 2)));
    net.push(Conv2d::new(4, 3, (1, 3), 4));
    net.push(Flatten::new());
    net.push(Dense::new(3 * 6, 2, 5));
    let mut rng = StdRng::seed_from_u64(11);
    let sample: Vec<Tensor> = (0..32)
        .map(|_| {
            Tensor::from_vec(
                (0..IN_LEN).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                IN_SHAPE.to_vec(),
            )
        })
        .collect();
    let spec = QuantSpec::calibrate(&net.freeze(), &sample).unwrap();
    let int8 = net.freeze_int8(&spec).unwrap();
    let chain = format!("{int8:?}");
    assert_eq!(
        chain,
        "FrozenModel[quantize → int8_conv2d → int8_maxpool2d → int8_conv2d → flatten → \
         int8_dense → dequantize]",
        "unexpected op chain: {chain}"
    );
    // And it still computes something close to the f32 model.
    let frozen = net.freeze();
    let (mut ctx, mut qctx) = (frozen.ctx(), int8.ctx());
    for x in &sample {
        let w = frozen.infer(x, &mut ctx);
        let g = int8.infer(x, &mut qctx);
        assert!(g.is_finite());
        for (&wv, &gv) in w.as_slice().iter().zip(g.as_slice()) {
            assert!((wv - gv).abs() < 0.5, "int8 {gv} far from f32 {wv}");
        }
    }
}

/// A conv whose kernel width has no monomorphized int8 im2col stays on
/// its f32 op: the pipeline assembles (no panic at freeze time *or*
/// first inference) with that layer riding between the domain hops.
#[test]
fn unsupported_conv_width_falls_back_to_f32() {
    let mut net = Network::new();
    net.push(Conv2d::new(2, 3, (1, 13), 7)); // no int8 kernel for kw=13
    net.push(Flatten::new());
    net.push(Dense::new(3 * 12, 2, 8));
    let mut rng = StdRng::seed_from_u64(21);
    let sample: Vec<Tensor> = (0..16)
        .map(|_| {
            Tensor::from_vec(
                (0..IN_LEN).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                IN_SHAPE.to_vec(),
            )
        })
        .collect();
    let spec = QuantSpec::calibrate(&net.freeze(), &sample).unwrap();
    let int8 = net.freeze_int8(&spec).unwrap();
    let chain = format!("{int8:?}");
    assert!(
        chain.contains("conv2d") && !chain.contains("int8_conv2d"),
        "{chain}"
    );
    assert!(chain.contains("int8_dense"), "{chain}");
    // And it runs: the wide conv is served by the f32 kernel.
    let y = int8.infer(&sample[0], &mut int8.ctx());
    assert!(y.is_finite());
    assert_eq!(y.shape(), &[2]);
}

/// A spec calibrated against one architecture cannot quantize another:
/// the mis-assembly is reported at freeze time as a `ShapeMismatch`,
/// never as a panic inside a serving worker.
#[test]
fn wrong_calibration_fails_at_freeze_time() {
    let mut a = Network::new();
    a.push(Dense::new(4, 6, 1));
    a.push(Selu::new());
    a.push(Dense::new(6, 3, 2));
    let sample: Vec<Tensor> = (0..8)
        .map(|s| Tensor::from_vec(vec![0.1 * s as f32; 4], vec![4]))
        .collect();
    let spec = QuantSpec::calibrate(&a.freeze(), &sample).unwrap();

    // Same layer count, different input width.
    let mut b = Network::new();
    b.push(Dense::new(5, 6, 1));
    b.push(Selu::new());
    b.push(Dense::new(6, 3, 2));
    match b.freeze_int8(&spec).unwrap_err() {
        QuantError::Shape(err) => {
            assert_eq!(err.op_name, "int8_dense");
            assert_eq!(err.in_shape, vec![4]);
        }
        other => panic!("expected a shape mismatch, got {other:?}"),
    }
}
