//! Batched training against the per-sample reference, bit for bit.
//!
//! The trainer runs each gradient shard as
//! `Network::forward_batch`/`backward_batch` passes, one sample per
//! lane, on a `TrainCtx` of its own. The naive per-sample reference of
//! `deepcsi-nn-ref`, built from the same description with the same
//! weights, is its oracle: for every b in 1..=40 the batched pass must
//! give the same summed loss, the same outputs and input gradients per
//! lane, and the same accumulated gradient in every parameter, compared
//! by `to_bits`. One sequential reference run over all 40 samples
//! serves every b: after sample `b − 1` its accumulators and its
//! dropout stream stand where a b-lane batch must leave them. Every net
//! draws dropout masks in training mode. The inputs are the ±0,
//! subnormal and ±1e30 mix of `batch_identity.rs`, and for the net that
//! max-pools raw input, windows whose maximum is a `+0`/`−0` tie.
//!
//! Then whole training runs: `Trainer::fit` for three epochs with a
//! ragged last batch against a replica of its loop on the reference
//! (seeded shuffle, two contiguous gradient shards for batches of four
//! or more, Adam), compared weight for weight.

mod common;

use common::{
    bits, model_specs, network, odd_specs, raw_pool_specs, reference, samples, signed_zero_samples,
};
use deepcsi_core::ModelConfig;
use deepcsi_nn::{softmax_cross_entropy, Adam, Network, Planes, Tensor, TrainConfig, Trainer};
use deepcsi_nn_ref::{Net, Spec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn grad_bits(grads: Vec<&[f32]>) -> Vec<u32> {
    bits(&grads.concat())
}

fn labels(n: usize, classes: usize) -> Vec<usize> {
    (0..n).map(|s| (s * 7 + 3) % classes).collect()
}

/// One reference `forward`/`backward` pair on `x` with the
/// cross-entropy gradient for `y`: the output, the input gradient and
/// the loss.
fn reference_step(
    net: &mut Net,
    x: &Tensor,
    y: usize,
    classes: usize,
) -> (Vec<f32>, Vec<f32>, f32) {
    let out = net.forward(x.as_slice(), true);
    let (l, g) = softmax_cross_entropy(&Tensor::from_vec(out.clone(), vec![classes]), y);
    (out, net.backward(g.as_slice()), l)
}

fn assert_batched_passes_match_per_sample(
    name: &str,
    net: Network,
    specs: &[Spec],
    shape: (usize, usize, usize),
    classes: usize,
    xs: &[Tensor],
) {
    let ys = labels(xs.len(), classes);

    // The oracle: per-sample pairs in order, snapshotting after each.
    let mut oracle = reference(&net, specs, shape);
    let mut loss = 0.0f32;
    let mut want = Vec::new();
    for (x, &y) in xs.iter().zip(&ys) {
        let (out, gx, l) = reference_step(&mut oracle, x, y, classes);
        loss += l;
        want.push((
            bits(&out),
            bits(&gx),
            loss.to_bits(),
            grad_bits(oracle.grads()),
        ));
    }

    for b in 1..=xs.len() {
        let mut ctx = net.train_ctx();
        let out = net.forward_batch(Planes::from_samples(xs[..b].iter()), true, &mut ctx);
        let mut grad = Planes::zeros(out.shape(), b);
        let mut loss = 0.0f32;
        for (s, &y) in ys[..b].iter().enumerate() {
            let (l, g) = softmax_cross_entropy(&out.sample(s), y);
            grad.set_sample(s, &g);
            loss += l;
        }
        let gx = net.backward_batch(grad, &mut ctx);
        let (_, _, want_loss, want_grads) = &want[b - 1];
        assert_eq!(loss.to_bits(), *want_loss, "{name}: batch {b}, summed loss");
        for (s, (want_out, want_gx, _, _)) in want[..b].iter().enumerate() {
            assert_eq!(
                &bits(out.sample(s).as_slice()),
                want_out,
                "{name}: batch {b}, output {s}"
            );
            assert_eq!(
                &bits(gx.sample(s).as_slice()),
                want_gx,
                "{name}: batch {b}, input grad {s}"
            );
        }
        assert!(
            grad_bits(ctx.grads()) == *want_grads,
            "{name}: batch {b}, parameter gradients"
        );
    }
}

fn assert_model_trains_bit_identically(name: &str, cfg: ModelConfig, shape: (usize, usize, usize)) {
    let specs = model_specs(&cfg, shape);
    let (net, xs) = (cfg.build(shape), samples(shape));
    assert_batched_passes_match_per_sample(name, net, &specs, shape, cfg.num_classes, &xs);
}

#[test]
fn demo_model_trains_bit_identically_at_every_batch_size() {
    assert_model_trains_bit_identically("demo", ModelConfig::demo(4), (5, 1, 59));
}

#[test]
fn paper_model_trains_bit_identically_at_every_batch_size() {
    assert_model_trains_bit_identically("paper", ModelConfig::paper(4, 7), (5, 1, 52));
}

#[test]
fn fast_model_trains_bit_identically_at_every_batch_size() {
    assert_model_trains_bit_identically("fast", ModelConfig::fast(4, 3), (5, 1, 117));
}

#[test]
fn odd_shaped_net_trains_bit_identically_at_every_batch_size() {
    let (specs, shape) = (odd_specs(), (3, 1, 24));
    let xs = samples(shape);
    assert_batched_passes_match_per_sample("odd", network(&specs), &specs, shape, 5, &xs);
}

#[test]
fn raw_input_pool_trains_bit_identically_at_every_batch_size() {
    let (specs, shape) = (raw_pool_specs(), (2, 1, 12));
    let xs = signed_zero_samples(shape);
    assert_batched_passes_match_per_sample("raw pool", network(&specs), &specs, shape, 8, &xs);
}

/// `Trainer::fit`'s loop on the per-sample reference: the same seeded
/// shuffle, batches of four or more cut into two contiguous shards,
/// each summed in a zeroed copy and added in order (batches under four
/// run on the net itself), the same NaN guard, mean and Adam step.
fn fit_per_sample(
    oracle: &mut Net,
    xs: &[Tensor],
    ys: &[usize],
    cfg: &TrainConfig,
    classes: usize,
) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7124_1AA0);
    let mut order: Vec<usize> = (0..xs.len()).collect();
    let mut opt = Adam::new(cfg.learning_rate);
    let pass = |net: &mut Net, shard: &[usize]| {
        let mut loss = 0.0f32;
        for &i in shard {
            loss += reference_step(net, &xs[i], ys[i], classes).2;
        }
        loss
    };
    let mut losses = Vec::new();
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let (mut loss_sum, mut seen) = (0.0f64, 0usize);
        for batch in order.chunks(cfg.batch_size) {
            oracle.zero_grads();
            let loss = if batch.len() < 4 {
                pass(oracle, batch)
            } else {
                let mut total = 0.0f32;
                for shard in batch.chunks(batch.len().div_ceil(2)) {
                    let mut worker = oracle.clone();
                    worker.zero_grads();
                    total += pass(&mut worker, shard);
                    oracle.add_grads(&worker);
                }
                total
            };
            if !loss.is_finite() {
                continue;
            }
            let scale = 1.0 / batch.len() as f32;
            let (weights, grads): (Vec<_>, Vec<_>) = oracle
                .params()
                .into_iter()
                .map(|(w, g)| {
                    for v in g.iter_mut() {
                        *v *= scale;
                    }
                    (w, &*g)
                })
                .unzip();
            opt.step(weights, grads);
            loss_sum += loss as f64;
            seen += batch.len();
        }
        losses.push((loss_sum / seen.max(1) as f64) as f32);
    }
    losses
}

fn assert_fit_matches_per_sample(
    name: &str,
    base: Network,
    specs: &[Spec],
    shape: (usize, usize, usize),
    classes: usize,
) {
    // 38 samples in batches of 36: two shards of 18, each run as a
    // 16-lane pass and a 2-lane one, then a ragged last batch of 2 that
    // runs as one shard and moves the network's dropout streams on.
    let xs: Vec<Tensor> = samples(shape).into_iter().take(38).collect();
    let ys = labels(xs.len(), classes);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 36,
        learning_rate: 2e-3,
        seed: 9,
        ..TrainConfig::default()
    };
    let mut want = reference(&base, specs, shape);
    let want_losses = fit_per_sample(&mut want, &xs, &ys, &cfg, classes);
    let mut got = base.clone();
    let report = Trainer::new(cfg).fit(&mut got, &xs, &ys, &[], &[]);
    let loss_bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        loss_bits(&report.epoch_losses),
        loss_bits(&want_losses),
        "{name}: epoch losses"
    );
    assert!(
        grad_bits(got.weights()) == grad_bits(want.weights()),
        "{name}: trained weights"
    );
    assert!(
        grad_bits(got.weights()) != grad_bits(base.weights()),
        "{name}: training moved no weight"
    );
}

#[test]
fn demo_model_fit_matches_per_sample_training() {
    let (cfg, shape) = (ModelConfig::demo(4), (5, 1, 59));
    assert_fit_matches_per_sample(
        "demo",
        cfg.build(shape),
        &model_specs(&cfg, shape),
        shape,
        4,
    );
}

#[test]
fn odd_shaped_net_fit_matches_per_sample_training() {
    let specs = odd_specs();
    assert_fit_matches_per_sample("odd", network(&specs), &specs, (3, 1, 24), 5);
}
