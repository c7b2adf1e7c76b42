//! Property-based and 2-D-path tests for the deep-learning substrate.

use deepcsi_nn::{
    poly_exp, softmax_cross_entropy, AlphaDropout, Conv2d, Dense, Flatten, InferPool, Layer,
    MaxPool2d, Network, Planes, Selu, Sigmoid, SpatialAttention, Tensor, TrainCtx, PAR_MIN_CHUNK,
};
use deepcsi_nn_ref::{Net, Spec};
use deepcsi_obs::Profiler;
use proptest::prelude::*;

fn tensor(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    proptest::collection::vec(-2.0f32..2.0, len)
        .prop_map(move |data| Tensor::from_vec(data, shape.clone()))
}

/// The network `specs` describes.
fn network(specs: &[Spec]) -> Network {
    let mut net = Network::new();
    for &spec in specs {
        match spec {
            Spec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                seed,
            } => net.push(Conv2d::new(in_ch, out_ch, kernel, seed)),
            Spec::Dense {
                in_dim,
                out_dim,
                seed,
            } => net.push(Dense::new(in_dim, out_dim, seed)),
            Spec::MaxPool2d { kernel } => net.push(MaxPool2d::new(kernel)),
            Spec::Selu => net.push(Selu::new()),
            Spec::Sigmoid => net.push(Sigmoid::new()),
            Spec::AlphaDropout { rate, seed } => net.push(AlphaDropout::new(rate, seed)),
            Spec::SpatialAttention { kernel_w, seed } => {
                net.push(SpatialAttention::new(kernel_w, seed))
            }
            Spec::Flatten => net.push(Flatten::new()),
        }
    }
    net
}

fn one(layer: impl Layer + 'static) -> Network {
    let mut net = Network::new();
    net.push(layer);
    net
}

fn infer(net: &Network, x: &Tensor) -> Tensor {
    let frozen = net.freeze();
    frozen.infer(x, &mut frozen.ctx())
}

/// One batched pass of `net` over `xs` with output gradients `grads`:
/// the outputs and input gradients, lane by lane.
fn batch_pass(
    net: &Network,
    ctx: &mut TrainCtx,
    xs: &[Tensor],
    grads: impl Fn(usize, &Tensor) -> Tensor,
    train: bool,
) -> (Vec<Tensor>, Vec<Tensor>) {
    let out = net.forward_batch(Planes::from_samples(xs.iter()), train, ctx);
    let outs: Vec<Tensor> = (0..xs.len()).map(|s| out.sample(s)).collect();
    let gs: Vec<Tensor> = outs.iter().enumerate().map(|(s, o)| grads(s, o)).collect();
    let gx = net.backward_batch(Planes::from_samples(gs.iter()), ctx);
    (outs, (0..xs.len()).map(|s| gx.sample(s)).collect())
}

/// Finite-difference gradient check of ∂(Σ output)/∂input through the
/// batched backward pass.
fn input_grad_check(net: &Network, x: &Tensor, tol: f32) {
    let ones = |_: usize, y: &Tensor| Tensor::from_vec(vec![1.0; y.len()], y.shape().to_vec());
    let (_, gx) = batch_pass(
        net,
        &mut net.train_ctx(),
        std::slice::from_ref(x),
        ones,
        true,
    );
    let eps = 1e-2f32;
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= eps;
        let fp: f32 = infer(net, &xp).as_slice().iter().sum();
        let fm: f32 = infer(net, &xm).as_slice().iter().sum();
        let want = (fp - fm) / (2.0 * eps);
        let got = gx[0].as_slice()[i];
        assert!((want - got).abs() < tol, "grad[{i}]: fd {want} vs bp {got}");
    }
}

#[test]
fn conv2d_true_2d_kernel_forward_known_value() {
    // 3×3 kernel of ones on a 3×3 input of ones: center output = 9,
    // corners = 4 (same padding).
    let mut conv = Conv2d::new(1, 1, (3, 3), 0);
    for w in conv.weights_mut() {
        if w.len() == 9 {
            w.fill(1.0);
        } else {
            w.fill(0.0);
        }
    }
    let x = Tensor::from_vec(vec![1.0; 9], vec![1, 3, 3]);
    let y = infer(&one(conv), &x);
    assert_eq!(y.at3(0, 1, 1), 9.0);
    assert_eq!(y.at3(0, 0, 0), 4.0);
    assert_eq!(y.at3(0, 0, 1), 6.0);
}

#[test]
fn conv2d_2d_kernel_gradient_check() {
    let x = Tensor::from_vec(
        (0..2 * 4 * 5)
            .map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.2)
            .collect(),
        vec![2, 4, 5],
    );
    input_grad_check(&one(Conv2d::new(2, 2, (3, 3), 5)), &x, 0.05);
}

#[test]
fn maxpool_2d_kernel() {
    let net = one(MaxPool2d::new((2, 2)));
    let x = Tensor::from_vec(
        vec![
            1.0, 2.0, 3.0, 4.0, // row 0
            5.0, 6.0, 7.0, 8.0, // row 1
        ],
        vec![1, 2, 4],
    );
    let g = Tensor::from_vec(vec![1.0, 2.0], vec![1, 1, 2]);
    let (y, gx) = batch_pass(&net, &mut net.train_ctx(), &[x], |_, _| g.clone(), true);
    assert_eq!(y[0].shape(), &[1, 1, 2]);
    assert_eq!(y[0].as_slice(), &[6.0, 8.0]);
    // Backward routes to the winners.
    assert_eq!(gx[0].at3(0, 1, 1), 1.0);
    assert_eq!(gx[0].at3(0, 1, 3), 2.0);
}

#[test]
fn attention_two_row_input_gradient_check() {
    let x = Tensor::from_vec(
        (0..3 * 2 * 5)
            .map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.15)
            .collect(),
        vec![3, 2, 5],
    );
    input_grad_check(&one(SpatialAttention::new(3, 9)), &x, 0.05);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn network_forward_is_deterministic_in_eval_mode(x in tensor(vec![2, 1, 16])) {
        let mut net = Network::new();
        net.push(Conv2d::new(2, 4, (1, 5), 1));
        net.push(Selu::new());
        net.push(MaxPool2d::new((1, 2)));
        net.push(SpatialAttention::new(3, 2));
        net.push(Flatten::new());
        net.push(Dense::new(32, 3, 3));
        let a = infer(&net, &x);
        let b = infer(&net, &x);
        prop_assert_eq!(a.as_slice(), b.as_slice());
        prop_assert!(a.is_finite());
    }

    #[test]
    fn selu_preserves_sign_of_positive_inputs(x in tensor(vec![8])) {
        let y = infer(&one(Selu::new()), &x);
        for (xi, yi) in x.as_slice().iter().zip(y.as_slice()) {
            if *xi > 0.0 {
                prop_assert!(*yi > 0.0);
            } else {
                prop_assert!(*yi <= 0.0);
            }
        }
    }

    #[test]
    fn sigmoid_outputs_are_probabilities(x in tensor(vec![12])) {
        let y = infer(&one(Sigmoid::new()), &x);
        prop_assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero(x in tensor(vec![10]), target in 0usize..10) {
        let (loss, grad) = softmax_cross_entropy(&x, target);
        prop_assert!(loss >= 0.0);
        let s: f32 = grad.as_slice().iter().sum();
        prop_assert!(s.abs() < 1e-4);
    }

    #[test]
    fn dropout_eval_mode_is_identity(x in tensor(vec![20]), rate in 0.0f32..0.9) {
        let net = one(AlphaDropout::new(rate, 3));
        let (y, _) = batch_pass(&net, &mut net.train_ctx(), std::slice::from_ref(&x), |_, y| y.clone(), false);
        prop_assert_eq!(y[0].as_slice(), x.as_slice());
    }

    #[test]
    fn pooling_never_increases_max(x in tensor(vec![2, 1, 12])) {
        let y = infer(&one(MaxPool2d::new((1, 3))), &x);
        let xmax = x.as_slice().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let ymax = y.as_slice().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(ymax <= xmax + 1e-7);
    }

    /// Gradient shards reduce in shard order, bit for bit: two ctxs over
    /// the contiguous halves of a batch, the second's gradient added
    /// into the first's, against the per-sample reference summing each
    /// half in a zeroed copy and adding the copies to zero in order.
    /// Both shards draw dropout from the network's stream as it stands.
    #[test]
    fn shard_ctx_sums_match_the_reference_in_shard_order(
        xs in proptest::collection::vec(tensor(vec![4]), 2..24),
        split in 1usize..23,
    ) {
        let specs = [
            Spec::Dense { in_dim: 4, out_dim: 6, seed: 11 },
            Spec::Selu,
            Spec::AlphaDropout { rate: 0.3, seed: 12 },
            Spec::Dense { in_dim: 6, out_dim: 3, seed: 13 },
        ];
        let net = network(&specs);
        let target = |s: usize| (s * 5 + 1) % 3;
        let halves = xs.split_at(split.min(xs.len() - 1));
        let mut reference = Net::new(&specs, &[4], &net.save_weights(), poly_exp);
        let mut shards = Vec::new();
        for (first, half) in [(0, halves.0), (halves.0.len(), halves.1)] {
            let mut ctx = net.train_ctx();
            let ce = |s: usize, y: &Tensor| softmax_cross_entropy(y, target(first + s)).1;
            batch_pass(&net, &mut ctx, half, ce, true);
            shards.push(ctx);

            let mut part = reference.clone();
            part.zero_grads();
            for (s, x) in half.iter().enumerate() {
                let y = Tensor::from_vec(part.forward(x.as_slice(), true), vec![3]);
                part.backward(softmax_cross_entropy(&y, target(first + s)).1.as_slice());
            }
            reference.add_grads(&part);
        }
        let second = shards.pop().unwrap();
        let mut total = shards.pop().unwrap();
        total.add_grads(&second);
        let bits = |g: Vec<&[f32]>| g.concat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert!(bits(total.grads()) == bits(reference.grads()), "shard sums differ");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole contract of the train/serve split:
    /// `FrozenModel::infer_batch` must be **bit-exact** against the
    /// per-sample reference's `forward(x, false)` over ragged batch
    /// sizes, AND the `InferPool` lane split (1, 2 or 4 lanes) must
    /// never change a single bit — a serving verdict can never depend on
    /// `infer_threads`.
    ///
    /// The convs reach every frozen conv path: the flat-axis tile over
    /// zero-haloed rows, for full channel blocks and for leftover
    /// channels (6 = 4 + 2, and the attention block's 1), with tiles
    /// that straddle sample, column and row ends. The dense layers run
    /// the lane kernel on whole 16-lane blocks and the per-sample tail
    /// kernel on the `b % 16` leftover samples.
    /// `deepcsi-core`'s `tests/batch_identity.rs` walks every batch size
    /// 1..=40.
    #[test]
    fn frozen_infer_batch_is_bit_exact_across_batches_and_threads(
        // Up to 69 samples: enough full 16-wide lane blocks that 4
        // lanes genuinely split (threads = max(1, n/16)), while the
        // small sizes cover the inline single-lane path and ragged tails.
        xs in proptest::collection::vec(tensor(vec![3, 1, 24]), 1..70),
    ) {
        let specs = [
            Spec::Conv2d { in_ch: 3, out_ch: 6, kernel: (1, 5), seed: 41 },
            Spec::Selu,
            Spec::MaxPool2d { kernel: (1, 2) },
            Spec::Conv2d { in_ch: 6, out_ch: 4, kernel: (1, 3), seed: 42 },
            Spec::Selu,
            Spec::Conv2d { in_ch: 4, out_ch: 8, kernel: (1, 5), seed: 47 },
            Spec::Selu,
            Spec::SpatialAttention { kernel_w: 3, seed: 43 },
            Spec::Flatten,
            Spec::Dense { in_dim: 8 * 12, out_dim: 10, seed: 44 },
            Spec::Selu,
            Spec::AlphaDropout { rate: 0.4, seed: 45 }, // identity when frozen
            Spec::Dense { in_dim: 10, out_dim: 5, seed: 46 },
        ];
        let net = network(&specs);
        let frozen = net.freeze();

        let mut reference = Net::new(&specs, &[3, 1, 24], &net.save_weights(), poly_exp);
        let want: Vec<Vec<f32>> = xs.iter().map(|x| reference.forward(x.as_slice(), false)).collect();
        for threads in [1usize, 2, 4] {
            let got = InferPool::new(threads).infer_batch(&frozen, &xs);
            prop_assert_eq!(got.len(), want.len());
            for (w, g) in want.iter().zip(&got) {
                prop_assert_eq!(g.shape(), &[5]);
                // Bit-exact: no tolerance.
                prop_assert!(
                    w.as_slice() == g.as_slice(),
                    "frozen inference diverged from forward (batch {}, threads {threads})",
                    xs.len()
                );
            }
        }
        // Reusing a warm context must not change results either.
        let mut ctx = frozen.ctx();
        let first = frozen.infer_batch(&xs, &mut ctx);
        let second = frozen.infer_batch(&xs, &mut ctx);
        for (a, b) in first.iter().zip(&second) {
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    /// Degenerate splits — more lanes than the batch has lane blocks, a
    /// batch of 1, lane counts that do not divide the batch — must
    /// never produce an empty partition (every sample classified
    /// exactly once), must stay bit-exact against the single-context
    /// path, and the per-lane profilers must account each sample
    /// exactly once (no double counting from a skewed split).
    #[test]
    fn degenerate_splits_never_drop_samples_or_skew_profilers(
        xs in proptest::collection::vec(tensor(vec![6]), 1..40),
        lanes in 1usize..9,
    ) {
        let mut net = Network::new();
        net.push(Dense::new(6, 4, 71));
        net.push(Selu::new());
        net.push(Dense::new(4, 3, 72));
        let frozen = net.freeze();
        let batch = xs.len();

        let mut one = frozen.ctx();
        let want = frozen.infer_batch(&xs, &mut one);

        // Every lane armed with a profiler.
        let mut pool = InferPool::new(lanes);
        pool.set_profilers((0..lanes).map(|_| Profiler::new()).collect());
        let got = pool.infer_batch(&frozen, &xs);
        prop_assert_eq!(got.len(), batch, "no partition may come up empty or dropped");
        for (w, g) in want.iter().zip(&got) {
            prop_assert!(w.as_slice() == g.as_slice(), "pool split diverged");
        }
        prop_assert!(pool.last_engaged() >= 1 && pool.last_engaged() <= lanes);
        prop_assert!(
            pool.last_engaged() <= batch.div_ceil(PAR_MIN_CHUNK).max(1),
            "a lane below one full lane block of work was engaged"
        );
        let table = pool.profile_table();
        prop_assert_eq!(table.len(), 3, "one merged row per op");
        for stat in &table {
            prop_assert_eq!(
                stat.samples,
                batch as u64,
                "pool op {} accounted {} samples for batch {}",
                &stat.name, stat.samples, batch
            );
        }
    }

    /// The polynomial `exp` both the forward and frozen paths share must
    /// stay within a small ULP budget of `f32::exp` everywhere in the
    /// normal-result range.
    #[test]
    fn poly_exp_stays_within_ulp_budget(x in -87.0f32..88.0) {
        let got = poly_exp(x);
        let want = x.exp();
        prop_assert!(got.is_finite() && got > 0.0);
        let ulp = (i64::from(got.to_bits()) - i64::from(want.to_bits())).unsigned_abs();
        prop_assert!(ulp <= 8, "poly_exp({x}) = {got} vs {want}: {ulp} ULP");
    }
}
