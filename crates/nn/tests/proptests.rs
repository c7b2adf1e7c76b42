//! Property-based and 2-D-path tests for the deep-learning substrate.

use deepcsi_nn::{
    poly_exp, softmax_cross_entropy, AlphaDropout, Conv2d, Dense, Flatten, InferPool, Layer,
    MaxPool2d, Network, Selu, Sigmoid, SpatialAttention, Tensor, PAR_MIN_CHUNK,
};
use deepcsi_obs::Profiler;
use proptest::prelude::*;

fn tensor(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    proptest::collection::vec(-2.0f32..2.0, len)
        .prop_map(move |data| Tensor::from_vec(data, shape.clone()))
}

/// Finite-difference gradient check of ∂(Σ output)/∂input for any layer.
fn input_grad_check<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) {
    let y = layer.forward(x, true);
    let ones = Tensor::from_vec(vec![1.0; y.len()], y.shape().to_vec());
    layer.zero_grads();
    let _ = layer.forward(x, true);
    let gx = layer.backward(&ones);
    let eps = 1e-2f32;
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= eps;
        let fp: f32 = layer.forward(&xp, false).as_slice().iter().sum();
        let fm: f32 = layer.forward(&xm, false).as_slice().iter().sum();
        let want = (fp - fm) / (2.0 * eps);
        let got = gx.as_slice()[i];
        assert!((want - got).abs() < tol, "grad[{i}]: fd {want} vs bp {got}");
    }
}

#[test]
fn conv2d_true_2d_kernel_forward_known_value() {
    // 3×3 kernel of ones on a 3×3 input of ones: center output = 9,
    // corners = 4 (same padding).
    let mut conv = Conv2d::new(1, 1, (3, 3), 0);
    for p in conv.params() {
        if p.w.len() == 9 {
            p.w.fill(1.0);
        } else {
            p.w.fill(0.0);
        }
    }
    let x = Tensor::from_vec(vec![1.0; 9], vec![1, 3, 3]);
    let y = conv.forward(&x, false);
    assert_eq!(y.at3(0, 1, 1), 9.0);
    assert_eq!(y.at3(0, 0, 0), 4.0);
    assert_eq!(y.at3(0, 0, 1), 6.0);
}

#[test]
fn conv2d_2d_kernel_gradient_check() {
    let mut conv = Conv2d::new(2, 2, (3, 3), 5);
    let x = Tensor::from_vec(
        (0..2 * 4 * 5)
            .map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.2)
            .collect(),
        vec![2, 4, 5],
    );
    input_grad_check(&mut conv, &x, 0.05);
}

#[test]
fn maxpool_2d_kernel() {
    let mut pool = MaxPool2d::new((2, 2));
    let x = Tensor::from_vec(
        vec![
            1.0, 2.0, 3.0, 4.0, // row 0
            5.0, 6.0, 7.0, 8.0, // row 1
        ],
        vec![1, 2, 4],
    );
    let y = pool.forward(&x, false);
    assert_eq!(y.shape(), &[1, 1, 2]);
    assert_eq!(y.as_slice(), &[6.0, 8.0]);
    // Backward routes to the winners.
    let g = pool.backward(&Tensor::from_vec(vec![1.0, 2.0], vec![1, 1, 2]));
    assert_eq!(g.at3(0, 1, 1), 1.0);
    assert_eq!(g.at3(0, 1, 3), 2.0);
}

#[test]
fn attention_two_row_input_gradient_check() {
    let mut att = SpatialAttention::new(3, 9);
    let x = Tensor::from_vec(
        (0..3 * 2 * 5)
            .map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.15)
            .collect(),
        vec![3, 2, 5],
    );
    input_grad_check(&mut att, &x, 0.05);
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
        let a = net.forward(&x, false);
        let b = net.forward(&x, false);
        prop_assert_eq!(a.as_slice(), b.as_slice());
        prop_assert!(a.is_finite());
    }

    #[test]
    fn selu_preserves_sign_of_positive_inputs(x in tensor(vec![8])) {
        let mut s = Selu::new();
        let y = s.forward(&x, false);
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
        let mut s = Sigmoid::new();
        let y = s.forward(&x, false);
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
        let mut d = AlphaDropout::new(rate, 3);
        let y = d.forward(&x, false);
        prop_assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn pooling_never_increases_max(x in tensor(vec![2, 1, 12])) {
        let mut pool = MaxPool2d::new((1, 3));
        let y = pool.forward(&x, false);
        let xmax = x.as_slice().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let ymax = y.as_slice().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(ymax <= xmax + 1e-7);
    }

    #[test]
    fn grad_reduction_is_linear(x in tensor(vec![4]), target in 0usize..2) {
        // grads(a) + grads(b) == add_grads_from result.
        let mut base = Network::new();
        base.push(Dense::new(4, 2, 11));
        let mut n1 = base.clone();
        let mut n2 = base.clone();
        n1.zero_grads();
        n2.zero_grads();
        let y1 = n1.forward(&x, true);
        let (_, g1) = softmax_cross_entropy(&y1, target);
        n1.backward(&g1);
        let y2 = n2.forward(&x, true);
        let (_, g2) = softmax_cross_entropy(&y2, target);
        n2.backward(&g2);
        let solo: Vec<f32> = n1.params().iter().flat_map(|p| p.g.to_vec()).collect();
        n1.add_grads_from(&mut n2);
        let merged: Vec<f32> = n1.params().iter().flat_map(|p| p.g.to_vec()).collect();
        for (s, m) in solo.iter().zip(merged.iter()) {
            prop_assert!((m - 2.0 * s).abs() < 1e-5, "merge not additive");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole contract of the train/serve split:
    /// `FrozenModel::infer_batch` must be **bit-exact** against
    /// `Network::forward(x, false)` over ragged batch sizes, AND the
    /// `InferPool` lane split (1, 2 or 4 lanes) must never change a
    /// single bit — a serving verdict can never depend on
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
        let mut net = Network::new();
        net.push(Conv2d::new(3, 6, (1, 5), 41));
        net.push(Selu::new());
        net.push(MaxPool2d::new((1, 2)));
        net.push(Conv2d::new(6, 4, (1, 3), 42));
        net.push(Selu::new());
        net.push(Conv2d::new(4, 8, (1, 5), 47));
        net.push(Selu::new());
        net.push(SpatialAttention::new(3, 43));
        net.push(Flatten::new());
        net.push(Dense::new(8 * 12, 10, 44));
        net.push(Selu::new());
        net.push(AlphaDropout::new(0.4, 45)); // identity when frozen
        net.push(Dense::new(10, 5, 46));
        let frozen = net.freeze();

        let want: Vec<Tensor> = xs.iter().map(|x| net.forward(x, false)).collect();
        for threads in [1usize, 2, 4] {
            let got = InferPool::new(threads).infer_batch(&frozen, &xs);
            prop_assert_eq!(got.len(), want.len());
            for (w, g) in want.iter().zip(&got) {
                prop_assert_eq!(w.shape(), g.shape());
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
