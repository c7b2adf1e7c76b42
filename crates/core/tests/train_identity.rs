//! Batched training against per-sample training, bit for bit.
//!
//! The trainer runs each gradient shard as one
//! `Network::forward_batch`/`backward_batch` pass, one sample per lane.
//! The per-sample `forward`/`backward` pairs are its oracle: for every
//! b in 1..=40 the batched pass must give the same summed loss, the same
//! outputs and input gradients per lane, and the same accumulated
//! gradient in every parameter, compared by `to_bits`. One sequential
//! per-sample run over all 40 samples serves every b: after sample
//! `b − 1` its accumulators and its dropout RNG stand where a b-lane
//! batch must leave them. Every net draws dropout masks in training
//! mode. The inputs are the ±0, subnormal and ±1e30 mix of
//! `batch_identity.rs`.
//!
//! Then whole training runs: `Trainer::fit` for three epochs with a
//! ragged last batch against a per-sample replica of its loop (seeded
//! shuffle, two contiguous gradient shards for batches of four or more,
//! Adam), compared weight for weight.

mod common;

use common::{bits, odd_net, samples};
use deepcsi_core::ModelConfig;
use deepcsi_nn::{
    softmax_cross_entropy, Adam, Network, Optimizer, Planes, Tensor, TrainConfig, Trainer,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn grad_bits(net: &mut Network) -> Vec<u32> {
    net.params()
        .iter()
        .flat_map(|p| p.g.iter().map(|v| v.to_bits()))
        .collect()
}

fn labels(n: usize, classes: usize) -> Vec<usize> {
    (0..n).map(|s| (s * 7 + 3) % classes).collect()
}

fn assert_batched_passes_match_per_sample(
    name: &str,
    base: Network,
    shape: (usize, usize, usize),
    classes: usize,
) {
    let xs = samples(shape);
    let ys = labels(xs.len(), classes);

    // The oracle: per-sample pairs in order, snapshotting after each.
    let mut net = base.clone();
    net.zero_grads();
    let mut loss = 0.0f32;
    let mut want = Vec::new();
    for (x, &y) in xs.iter().zip(&ys) {
        let out = net.forward(x, true);
        let (l, g) = softmax_cross_entropy(&out, y);
        let gx = net.backward(&g);
        loss += l;
        want.push((bits(&out), bits(&gx), loss.to_bits(), grad_bits(&mut net)));
    }

    for b in 1..=xs.len() {
        let mut net = base.clone();
        net.zero_grads();
        let out = net.forward_batch(Planes::from_samples(xs[..b].iter()), true);
        let mut grad = Planes::zeros(out.shape(), b);
        let mut loss = 0.0f32;
        for (s, &y) in ys[..b].iter().enumerate() {
            let (l, g) = softmax_cross_entropy(&out.sample(s), y);
            grad.set_sample(s, &g);
            loss += l;
        }
        let gx = net.backward_batch(grad);
        let (_, _, want_loss, want_grads) = &want[b - 1];
        assert_eq!(loss.to_bits(), *want_loss, "{name}: batch {b}, summed loss");
        for (s, (want_out, want_gx, _, _)) in want[..b].iter().enumerate() {
            assert_eq!(
                &bits(&out.sample(s)),
                want_out,
                "{name}: batch {b}, output {s}"
            );
            assert_eq!(
                &bits(&gx.sample(s)),
                want_gx,
                "{name}: batch {b}, input grad {s}"
            );
        }
        assert!(
            grad_bits(&mut net) == *want_grads,
            "{name}: batch {b}, parameter gradients"
        );
    }
}

#[test]
fn demo_model_trains_bit_identically_at_every_batch_size() {
    assert_batched_passes_match_per_sample(
        "demo",
        ModelConfig::demo(4).build((5, 1, 59)),
        (5, 1, 59),
        4,
    );
}

#[test]
fn paper_model_trains_bit_identically_at_every_batch_size() {
    assert_batched_passes_match_per_sample(
        "paper",
        ModelConfig::paper(4, 7).build((5, 1, 52)),
        (5, 1, 52),
        4,
    );
}

#[test]
fn fast_model_trains_bit_identically_at_every_batch_size() {
    assert_batched_passes_match_per_sample(
        "fast",
        ModelConfig::fast(4, 3).build((5, 1, 117)),
        (5, 1, 117),
        4,
    );
}

#[test]
fn odd_shaped_net_trains_bit_identically_at_every_batch_size() {
    assert_batched_passes_match_per_sample("odd", odd_net(), (3, 1, 24), 5);
}

/// `Trainer::fit`'s loop with one `forward`/`backward` pair per sample:
/// the same seeded shuffle, batches of four or more cut into two
/// contiguous shards, each summed in a zeroed clone and added in order,
/// the same NaN guard, mean and Adam step.
fn fit_per_sample(net: &mut Network, xs: &[Tensor], ys: &[usize], cfg: &TrainConfig) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7124_1AA0);
    let mut order: Vec<usize> = (0..xs.len()).collect();
    let mut opt = Adam::new(cfg.learning_rate);
    let pass = |net: &mut Network, shard: &[usize]| {
        let mut loss = 0.0f32;
        for &i in shard {
            let out = net.forward(&xs[i], true);
            let (l, g) = softmax_cross_entropy(&out, ys[i]);
            net.backward(&g);
            loss += l;
        }
        loss
    };
    let mut losses = Vec::new();
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let (mut loss_sum, mut seen) = (0.0f64, 0usize);
        for batch in order.chunks(cfg.batch_size) {
            net.zero_grads();
            let loss = if batch.len() < 4 {
                pass(net, batch)
            } else {
                let mut workers: Vec<Network> = (0..2).map(|_| net.clone()).collect();
                let mut total = 0.0f32;
                for (worker, shard) in workers
                    .iter_mut()
                    .zip(batch.chunks(batch.len().div_ceil(2)))
                {
                    worker.zero_grads();
                    let l = pass(worker, shard);
                    net.add_grads_from(worker);
                    total += l;
                }
                total
            };
            if !loss.is_finite() {
                continue;
            }
            net.scale_grads(1.0 / batch.len() as f32);
            opt.step(net);
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
    shape: (usize, usize, usize),
    classes: usize,
) {
    // 38 samples in batches of 36: two shards of 18, each run as a
    // 16-lane pass and a 2-lane one, then a ragged last batch of 2 that
    // runs as one shard on the net itself.
    let xs: Vec<Tensor> = samples(shape).into_iter().take(38).collect();
    let ys = labels(xs.len(), classes);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 36,
        learning_rate: 2e-3,
        seed: 9,
        ..TrainConfig::default()
    };
    let mut want = base.clone();
    let want_losses = fit_per_sample(&mut want, &xs, &ys, &cfg);
    let mut got = base.clone();
    let report = Trainer::new(cfg).fit(&mut got, &xs, &ys, &[], &[]);
    let loss_bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        loss_bits(&report.epoch_losses),
        loss_bits(&want_losses),
        "{name}: epoch losses"
    );
    let weight_bits = |net: &mut Network| -> Vec<u32> {
        net.save_weights()
            .iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect()
    };
    assert!(
        weight_bits(&mut got) == weight_bits(&mut want),
        "{name}: trained weights"
    );
    let mut base = base;
    assert!(
        weight_bits(&mut got) != weight_bits(&mut base),
        "{name}: training moved no weight"
    );
}

#[test]
fn demo_model_fit_matches_per_sample_training() {
    assert_fit_matches_per_sample(
        "demo",
        ModelConfig::demo(4).build((5, 1, 59)),
        (5, 1, 59),
        4,
    );
}

#[test]
fn odd_shaped_net_fit_matches_per_sample_training() {
    assert_fit_matches_per_sample("odd", odd_net(), (3, 1, 24), 5);
}
