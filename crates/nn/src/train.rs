//! Mini-batch training with data-parallel gradient computation.
//!
//! The gradient reduction order is a function of the batch alone: every
//! mini-batch of at least four samples is cut into [`GRAD_SHARDS`]
//! contiguous chunks, each run on its own thread, whose gradients are
//! summed in chunk order however many cores the host has, so one seed
//! trains bit-identical weights on every machine.
//!
//! Every chunk thread borrows the one `&Network` and brings its own
//! [`TrainCtx`]: each layer's input kept for backward, gradient
//! accumulators summed from `+0.0` and a copy of each dropout stream as
//! the network holds it. A chunk runs as batched passes of up to 16
//! samples over the batch-innermost planes the frozen model serves from
//! ([`Network::forward_batch`], then the backward pass), one sample per
//! lane: every forward is the layer's frozen op, and backward is
//! lane-parallel. A lane repeats its sample's scalar
//! operations in the per-sample order, and each parameter adds its
//! lanes' contributions in sample order, so a chunk's gradient is
//! bit-identical to the naive per-sample reference (`deepcsi-nn-ref`)
//! run sample by sample (`tests/train_identity.rs` in `deepcsi-core`
//! holds it to that). Batches under four run as one chunk, and only
//! they hand the advanced dropout streams back to the network; on
//! larger batches every chunk redraws the masks the network's streams
//! begin with.

use crate::loss::softmax_cross_entropy;
use crate::metrics::ConfusionMatrix;
use crate::network::{Network, TrainCtx};
use crate::optim::Adam;
use crate::planes::Planes;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// RNG seed (shuffling; layer RNGs are seeded at construction).
    pub seed: u64,
    /// Print one line per epoch to stderr.
    pub verbose: bool,
    /// Clip the global gradient ℓ2 norm to this value (0 disables).
    pub grad_clip: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 64,
            learning_rate: 1e-3,
            seed: 0,
            verbose: false,
            grad_clip: 0.0,
        }
    }
}

/// How many contiguous chunks a mini-batch's gradient is reduced over.
/// Fixed, not taken from the host: the f32 sum order decides the trained
/// weights.
const GRAD_SHARDS: usize = 2;

/// A sensible worker count for this machine (capped at 12): how many
/// threads evaluation shards across.
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 12)
}

/// Per-epoch training diagnostics returned by [`Trainer::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation accuracy per epoch (empty when no validation set).
    pub val_accuracies: Vec<f64>,
}

impl TrainReport {
    /// The last epoch's validation accuracy, if a validation set was used.
    pub fn final_val_accuracy(&self) -> Option<f64> {
        self.val_accuracies.last().copied()
    }
}

/// Seeded mini-batch trainer with optional data-parallel gradients.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on `(x, y)`; evaluates on `(val_x, val_y)` after each
    /// epoch when non-empty.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` lengths differ or the training set is empty.
    pub fn fit(
        &mut self,
        net: &mut Network,
        x: &[Tensor],
        y: &[usize],
        val_x: &[Tensor],
        val_y: &[usize],
    ) -> TrainReport {
        self.fit_with_provider(net, x, y, &mut |_| None, val_x, val_y)
    }

    /// Like [`Trainer::fit`], but asks `provider` for an alternate
    /// training set before each epoch — the channel-augmentation seam
    /// (the DeepCRF recipe: re-draw the propagation channel per epoch so
    /// the classifier cannot over-fit one channel realisation).
    ///
    /// `provider(epoch)` returning `None` trains that epoch on the base
    /// `(x, y)`; returning `Some((ax, ay))` substitutes the provided set
    /// for that epoch only. With a provider that always returns `None`
    /// this is bit-identical to [`Trainer::fit`].
    ///
    /// # Panics
    ///
    /// Panics if any epoch's set is empty or has mismatched lengths.
    pub fn fit_with_provider(
        &mut self,
        net: &mut Network,
        x: &[Tensor],
        y: &[usize],
        provider: &mut dyn FnMut(usize) -> Option<(Vec<Tensor>, Vec<usize>)>,
        val_x: &[Tensor],
        val_y: &[usize],
    ) -> TrainReport {
        assert_eq!(x.len(), y.len(), "one label per sample");
        assert!(!x.is_empty(), "empty training set");
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x7124_1AA0);
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut opt = Adam::new(self.config.learning_rate);
        let mut report = TrainReport {
            epoch_losses: Vec::with_capacity(self.config.epochs),
            val_accuracies: Vec::new(),
        };

        for epoch in 0..self.config.epochs {
            let epoch_set = provider(epoch);
            let (ex, ey): (&[Tensor], &[usize]) = match &epoch_set {
                Some((ax, ay)) => {
                    assert_eq!(ax.len(), ay.len(), "one label per sample");
                    assert!(!ax.is_empty(), "empty augmented epoch set");
                    (ax.as_slice(), ay.as_slice())
                }
                None => (x, y),
            };
            if order.len() != ex.len() {
                order = (0..ex.len()).collect();
            }
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f64;
            let mut seen = 0usize;
            for batch in order.chunks(self.config.batch_size.max(1)) {
                let (mut grads, batch_loss) = grad_batch(net, ex, ey, batch);
                if !batch_loss.is_finite() {
                    // NaN guard: skip the update, keep training.
                    continue;
                }
                grads.scale_grads(1.0 / batch.len() as f32);
                if self.config.grad_clip > 0.0 {
                    clip_global_norm(&mut grads, self.config.grad_clip);
                }
                opt.step(net.weights_mut(), grads.grads());
                loss_sum += batch_loss as f64;
                seen += batch.len();
            }
            let mean_loss = (loss_sum / seen.max(1) as f64) as f32;
            report.epoch_losses.push(mean_loss);
            if !val_x.is_empty() {
                let (acc, _) = evaluate(net, val_x, val_y);
                report.val_accuracies.push(acc);
                if self.config.verbose {
                    eprintln!(
                        "epoch {:>3}: loss {:.4}  val acc {:.2}%",
                        epoch + 1,
                        mean_loss,
                        acc * 100.0
                    );
                }
            } else if self.config.verbose {
                eprintln!("epoch {:>3}: loss {:.4}", epoch + 1, mean_loss);
            }
        }
        report
    }
}

/// Samples per batched pass. A chunk runs in passes of up to one
/// 16-lane block, so the layer inputs kept for backward stay at one
/// block's worth whatever the batch size; passes go in sample order,
/// which keeps the gradient sums and the dropout draws in that order.
const PASS_LANES: usize = 16;

/// Accumulates into `ctx` the gradient of the samples `shard` in
/// batched passes, one sample per lane ([`Network::forward_batch`],
/// then [`Network::backward_batch`]); returns the loss summed in sample
/// order.
fn grad_shard(
    net: &Network,
    ctx: &mut TrainCtx,
    x: &[Tensor],
    y: &[usize],
    shard: &[usize],
) -> f32 {
    let mut loss = 0.0f32;
    for pass in shard.chunks(PASS_LANES) {
        let xs = Planes::from_samples(pass.iter().map(|&i| &x[i]));
        let out = net.forward_batch(xs, true, ctx);
        let mut grad = Planes::zeros(out.shape(), pass.len());
        for (s, &i) in pass.iter().enumerate() {
            let (l, g) = softmax_cross_entropy(&out.sample(s), y[i]);
            grad.set_sample(s, &g);
            loss += l;
        }
        net.backward_batch(grad, ctx);
    }
    loss
}

/// One batch's gradient and summed loss.
///
/// Batches of four or more samples are cut into [`GRAD_SHARDS`] chunks
/// of `div_ceil(len, GRAD_SHARDS)`, each summed in its own [`TrainCtx`]
/// on a scoped thread that borrows `net`; the chunks' gradients and
/// losses are then added in chunk order. Each chunk's sums start from
/// `+0.0` and are never −0, so starting the reduction from the first
/// chunk's sum is bit for bit the same as adding it to zero. Smaller
/// batches run as one chunk, whose advanced dropout streams then become
/// the network's.
fn grad_batch(net: &mut Network, x: &[Tensor], y: &[usize], batch: &[usize]) -> (TrainCtx, f32) {
    if batch.len() < 4 {
        let mut ctx = net.train_ctx();
        let loss = grad_shard(net, &mut ctx, x, y, batch);
        net.resume_rng(&ctx);
        return (ctx, loss);
    }
    let net = &*net;
    let chunks: Vec<(TrainCtx, f32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = batch
            .chunks(batch.len().div_ceil(GRAD_SHARDS))
            .map(|shard| {
                scope.spawn(move || {
                    let mut ctx = net.train_ctx();
                    let loss = grad_shard(net, &mut ctx, x, y, shard);
                    (ctx, loss)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut chunks = chunks.into_iter();
    let (mut total, mut total_loss) = chunks.next().expect("a non-empty batch");
    for (ctx, loss) in chunks {
        total.add_grads(&ctx);
        total_loss += loss;
    }
    (total, total_loss)
}

/// Clips the global gradient ℓ2 norm.
fn clip_global_norm(grads: &mut TrainCtx, max_norm: f32) {
    let norm_sq: f32 = grads
        .grads()
        .iter()
        .map(|g| g.iter().map(|g| g * g).sum::<f32>())
        .sum();
    let norm = norm_sq.sqrt();
    if norm > max_norm {
        grads.scale_grads(max_norm / norm);
    }
}

/// Evaluates a network over a labelled set, returning overall accuracy and
/// the confusion matrix.
///
/// Freezes the network **once** and shares the one weight snapshot
/// across every evaluation thread (`FrozenModel` is `Sync`); each thread
/// owns only a scratch [`crate::InferCtx`].
///
/// # Panics
///
/// Panics if `x` and `y` lengths differ, the set is empty, or a label is
/// out of range of the network's output dimension.
pub fn evaluate(net: &Network, x: &[Tensor], y: &[usize]) -> (f64, ConfusionMatrix) {
    assert_eq!(x.len(), y.len(), "one label per sample");
    assert!(!x.is_empty(), "empty evaluation set");
    let frozen = net.freeze();
    let mut ctx = frozen.ctx();
    let n_classes = frozen.infer(&x[0], &mut ctx).len();
    let mut cm = ConfusionMatrix::new(n_classes);
    // Micro-batched inference: one weight pass per batch instead of one
    // per sample (same SIMD path the serving engine uses).
    const EVAL_BATCH: usize = 32;
    let threads = available_threads();
    if threads <= 1 || x.len() < 2 * EVAL_BATCH {
        for (chunk, ys) in x.chunks(EVAL_BATCH).zip(y.chunks(EVAL_BATCH)) {
            for (out, &yi) in frozen.infer_batch(chunk, &mut ctx).iter().zip(ys) {
                cm.add(yi, out.argmax());
            }
        }
    } else {
        let shard_size = x.len().div_ceil(threads).max(EVAL_BATCH);
        let shared = &frozen;
        let preds: Vec<Vec<(usize, usize)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = x
                .chunks(shard_size)
                .zip(y.chunks(shard_size))
                .map(|(xs, ys)| {
                    scope.spawn(move || {
                        let mut ctx = shared.ctx();
                        xs.chunks(EVAL_BATCH)
                            .zip(ys.chunks(EVAL_BATCH))
                            .flat_map(|(xc, yc)| {
                                shared
                                    .infer_batch(xc, &mut ctx)
                                    .into_iter()
                                    .zip(yc)
                                    .map(|(out, &yi)| (yi, out.argmax()))
                                    .collect::<Vec<_>>()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("eval worker panicked"))
                .collect()
        });
        for shard in preds {
            for (actual, pred) in shard {
                cm.add(actual, pred);
            }
        }
    }
    (cm.accuracy(), cm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, bits, reference};
    use deepcsi_nn_ref::{Net, Spec};

    /// Two well-separated Gaussian blobs.
    fn blobs(n: usize, seed: u64) -> (Vec<Tensor>, Vec<usize>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let cx = if class == 0 { -1.0 } else { 1.0 };
            xs.push(Tensor::from_vec(
                vec![
                    cx + rng.gen_range(-0.3..0.3),
                    -cx + rng.gen_range(-0.3..0.3),
                ],
                vec![2],
            ));
            ys.push(class);
        }
        (xs, ys)
    }

    /// The per-sample reference of [`grad_shard`]: one
    /// `forward`/`backward` pair per sample, in order.
    fn grad_per_sample(net: &mut Net, x: &[Tensor], y: &[usize], batch: &[usize]) -> f32 {
        let mut loss = 0.0f32;
        for &i in batch {
            let out = Tensor::from_vec(net.forward(x[i].as_slice(), true), vec![2]);
            let (l, g) = softmax_cross_entropy(&out, y[i]);
            net.backward(g.as_slice());
            loss += l;
        }
        loss
    }

    const BLOB_NET: [Spec; 3] = [
        Spec::Dense {
            in_dim: 2,
            out_dim: 16,
            seed: 1,
        },
        Spec::Selu,
        Spec::Dense {
            in_dim: 16,
            out_dim: 2,
            seed: 2,
        },
    ];

    fn blob_net() -> Network {
        testkit::network(&BLOB_NET)
    }

    #[test]
    fn learns_blobs() {
        let (xs, ys) = blobs(64, 1);
        let mut net = blob_net();
        let mut t = Trainer::new(TrainConfig {
            epochs: 20,
            batch_size: 16,
            learning_rate: 0.01,
            seed: 3,
            ..TrainConfig::default()
        });
        let report = t.fit(&mut net, &xs, &ys, &xs, &ys);
        assert_eq!(report.epoch_losses.len(), 20);
        assert!(report.final_val_accuracy().unwrap() > 0.95);
        // Loss decreased overall.
        assert!(report.epoch_losses.last().unwrap() < &report.epoch_losses[0]);
    }

    #[test]
    fn batch_gradients_match_an_explicit_two_chunk_reduction() {
        // The reduction order is fixed by the batch alone: two contiguous
        // halves, each summed from zero, added in order. Nothing about the
        // host can move a single bit.
        let (xs, ys) = blobs(70, 5);
        let flat = |grads: Vec<&[f32]>, loss: f32| -> (u32, Vec<u32>) {
            (loss.to_bits(), bits(&grads.concat()))
        };
        for len in 4..=70 {
            let batch: Vec<usize> = (0..len).rev().collect();
            let mut net = blob_net();
            let (grads, loss) = grad_batch(&mut net, &xs, &ys, &batch);
            let got = flat(grads.grads(), loss);

            let mut oracle = reference(&net, &BLOB_NET, &[2]);
            let mut ref_loss = 0.0f32;
            for half in batch.chunks(len.div_ceil(2)) {
                let mut part = oracle.clone();
                part.zero_grads();
                ref_loss += grad_per_sample(&mut part, &xs, &ys, half);
                oracle.add_grads(&part);
            }
            assert!(got == flat(oracle.grads(), ref_loss), "batch of {len}");
        }
    }

    #[test]
    fn augmented_training_is_bit_identical_across_runs() {
        let (xs, ys) = blobs(30, 7);
        let run = || {
            let mut net = blob_net();
            Trainer::new(TrainConfig {
                epochs: 4,
                batch_size: 13, // ragged last batch
                learning_rate: 0.01,
                seed: 42,
                ..TrainConfig::default()
            })
            .fit_with_provider(
                &mut net,
                &xs,
                &ys,
                &mut |epoch| (epoch % 2 == 1).then(|| blobs(27, 100 + epoch as u64)),
                &[],
                &[],
            );
            net.save_weights()
        };
        let bits =
            |w: Vec<Vec<f32>>| -> Vec<u32> { w.iter().flatten().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(run()), bits(run()));
    }

    #[test]
    fn evaluate_builds_confusion_matrix() {
        let (xs, ys) = blobs(40, 2);
        let net = blob_net();
        let (acc, cm) = evaluate(&net, &xs, &ys);
        assert_eq!(cm.total(), 40);
        assert!((0.0..=1.0).contains(&acc));
        assert!((cm.accuracy() - acc).abs() < 1e-12);
    }

    #[test]
    fn evaluate_matches_the_per_sample_reference() {
        let (xs, ys) = blobs(8, 3);
        let net = blob_net();
        let (_, cm) = evaluate(&net, &xs, &ys);
        let mut oracle = reference(&net, &BLOB_NET, &[2]);
        let mut cm2 = ConfusionMatrix::new(2);
        for (x, &y) in xs.iter().zip(ys.iter()) {
            let out = Tensor::from_vec(oracle.forward(x.as_slice(), false), vec![2]);
            cm2.add(y, out.argmax());
        }
        assert_eq!(cm, cm2);
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (xs, ys) = blobs(32, 7);
        let run = || {
            let mut net = blob_net();
            let mut t = Trainer::new(TrainConfig {
                epochs: 3,
                batch_size: 8,
                learning_rate: 0.01,
                seed: 42,
                ..TrainConfig::default()
            });
            t.fit(&mut net, &xs, &ys, &[], &[]).epoch_losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn none_provider_is_bit_identical_to_fit() {
        let (xs, ys) = blobs(32, 7);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            learning_rate: 0.01,
            seed: 42,
            ..TrainConfig::default()
        };
        let mut net_a = blob_net();
        let plain = Trainer::new(cfg).fit(&mut net_a, &xs, &ys, &[], &[]);
        let mut net_b = blob_net();
        let via_provider =
            Trainer::new(cfg).fit_with_provider(&mut net_b, &xs, &ys, &mut |_| None, &[], &[]);
        assert_eq!(plain.epoch_losses, via_provider.epoch_losses);
        assert_eq!(net_a.save_weights(), net_b.save_weights());
    }

    #[test]
    fn provider_substitutes_per_epoch_sets() {
        let (xs, ys) = blobs(32, 7);
        let mut epochs_asked = Vec::new();
        let mut net = blob_net();
        let report = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 8,
            learning_rate: 0.01,
            seed: 42,
            ..TrainConfig::default()
        })
        .fit_with_provider(
            &mut net,
            &xs,
            &ys,
            &mut |epoch| {
                epochs_asked.push(epoch);
                // Odd epochs train on a re-drawn (different-seed) set.
                if epoch % 2 == 1 {
                    Some(blobs(32, 100 + epoch as u64))
                } else {
                    None
                }
            },
            &xs,
            &ys,
        );
        assert_eq!(epochs_asked, vec![0, 1, 2, 3]);
        assert_eq!(report.epoch_losses.len(), 4);
        // Augmented data is drawn from the same distribution, so the
        // classifier still learns the task.
        assert!(report.final_val_accuracy().unwrap() > 0.9);
    }

    #[test]
    fn grad_clip_limits_update_magnitude() {
        let (xs, ys) = blobs(16, 11);
        let mut net = blob_net();
        let mut t = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 16,
            learning_rate: 0.01,
            seed: 1,
            grad_clip: 1e-6, // absurdly tight: training barely moves
            ..TrainConfig::default()
        });
        let w_before = net.save_weights();
        t.fit(&mut net, &xs, &ys, &[], &[]);
        let w_after = net.save_weights();
        // Adam normalises step size, but the clipped gradient keeps the
        // moments tiny relative to unclipped training.
        let delta: f32 = w_before
            .iter()
            .flatten()
            .zip(w_after.iter().flatten())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(delta.is_finite());
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let mut net = blob_net();
        let mut t = Trainer::new(TrainConfig::default());
        let _ = t.fit(&mut net, &[], &[], &[], &[]);
    }
}
