//! Property tests for the decision-window and policy invariants the
//! docs promise:
//!
//! * [`WindowedDecision::vote_fraction`] is in `(0, 1]` — the winner
//!   holds at least one vote and never more than the window.
//! * [`DecisionWindow::decision`] is `None` if and only if no report was
//!   ever pushed.
//! * Ties resolve to the smallest winning module id, independent of
//!   arrival order.
//! * [`LatencyHistogram`] quantiles stay within ±12.5% of the exact
//!   order statistic (log-linear buckets, 4 sub-buckets per octave),
//!   and its export accounts for every observation.

use deepcsi_serve::{
    DecisionPolicyConfig, DecisionWindow, LatencyHistogram, PolicyKind, VerdictPolicy,
    WindowConfig, WindowedDecision,
};
use proptest::prelude::*;
use std::time::Duration;

fn window_config() -> impl Strategy<Value = WindowConfig> {
    (1usize..40, 0.01f64..1.0).prop_map(|(len, ema_alpha)| WindowConfig { len, ema_alpha })
}

/// Arbitrary report streams: (module, confidence) pairs.
fn reports() -> impl Strategy<Value = Vec<(usize, f64)>> {
    proptest::collection::vec((0usize..8, 0.0f64..1.0), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vote_fraction_is_in_unit_interval((cfg, stream) in (window_config(), reports())) {
        let mut w = DecisionWindow::new(cfg);
        for &(module, confidence) in &stream {
            w.push(module, confidence);
            let d = w.decision().expect("Some after every push");
            prop_assert!(
                d.vote_fraction > 0.0 && d.vote_fraction <= 1.0,
                "vote_fraction {} escaped (0, 1]",
                d.vote_fraction
            );
            prop_assert!(d.confidence_ema >= 0.0 && d.confidence_ema <= 1.0);
        }
    }

    #[test]
    fn decision_is_none_iff_no_push((cfg, stream) in (window_config(), reports())) {
        let mut w = DecisionWindow::new(cfg);
        // The contract: None before the first push…
        prop_assert!(w.decision().is_none());
        prop_assert!(w.is_empty());
        // …and Some ever after, regardless of what was pushed.
        for &(module, confidence) in &stream {
            w.push(module, confidence);
            prop_assert!(w.decision().is_some());
        }
    }

    #[test]
    fn observations_count_every_push((cfg, stream) in (window_config(), reports())) {
        let mut w = DecisionWindow::new(cfg);
        for (n, &(module, confidence)) in stream.iter().enumerate() {
            w.push(module, confidence);
            prop_assert_eq!(w.decision().expect("pushed").observations, n as u64 + 1);
            prop_assert!(w.len() <= cfg.len);
        }
    }

    #[test]
    fn ties_resolve_to_smallest_winner_regardless_of_order(
        mut stream in proptest::collection::vec(0usize..5, 1..20),
        rot in 0usize..20,
    ) {
        // Fill a window larger than the stream so arrival order cannot
        // change the surviving vote multiset — only the tie-break may
        // depend on order, and it must not.
        let cfg = WindowConfig { len: 32, ema_alpha: 0.5 };
        let push_all = |votes: &[usize]| {
            let mut w = DecisionWindow::new(cfg);
            for &m in votes {
                w.push(m, 0.5);
            }
            w.decision().expect("non-empty stream").module
        };
        let baseline = push_all(&stream);
        let rot = rot % stream.len();
        stream.rotate_left(rot);
        prop_assert_eq!(push_all(&stream), baseline);
    }

    #[test]
    fn weighted_posterior_is_in_unit_interval(stream in reports()) {
        // The ConfidenceWeighted policy documents the same (0, 1] range
        // for its posterior-mass vote_fraction.
        let policy = DecisionPolicyConfig {
            kind: PolicyKind::ConfidenceWeighted,
            ..DecisionPolicyConfig::default()
        }
        .build(WindowConfig::default(), VerdictPolicy::default());
        let mut s = policy.new_state();
        prop_assert!(s.decision().is_none());
        for &(module, confidence) in &stream {
            s.push(module, confidence);
            let d: WindowedDecision = s.decision().expect("Some after every push");
            prop_assert!(
                d.vote_fraction > 0.0 && d.vote_fraction <= 1.0,
                "posterior {} escaped (0, 1]",
                d.vote_fraction
            );
        }
    }
}

/// Observation streams spanning the histogram's whole dynamic range:
/// exact sub-4ns buckets, microsecond-scale, and values deep into the
/// high octaves, freely mixed.
fn observations() -> impl Strategy<Value = Vec<u64>> {
    // A 10-bit mantissa shifted across 50 octaves: zeros, exact sub-4ns
    // values, and everything up to ~10³ seconds, all in one stream.
    let any_magnitude = (0u32..50, 0u64..1024).prop_map(|(e, m)| m << e);
    proptest::collection::vec(any_magnitude, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn log_linear_quantile_tracks_the_exact_order_statistic(
        (ns, q) in (observations(), 0.01f64..1.0)
    ) {
        // The docs promise: `quantile(q)` lands in the bucket holding
        // the ceil(n·q)-th smallest observation, resolved to its
        // midpoint — within ±12.5% of that order statistic (exact below
        // 4ns, where buckets are 1ns wide).
        let h = LatencyHistogram::default();
        for &n in &ns {
            h.record(Duration::from_nanos(n));
        }
        // `record` clamps to ≥ 1ns (an observation always happened);
        // mirror that in the reference order statistics.
        let mut sorted: Vec<u64> = ns.iter().map(|&n| n.max(1)).collect();
        sorted.sort_unstable();
        let target = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[target - 1];
        let est = h.quantile(q).expect("non-empty").as_nanos() as u64;
        if exact < 4 {
            prop_assert_eq!(est, exact, "sub-4ns buckets are exact");
        } else {
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            prop_assert!(
                err <= 0.125,
                "quantile {est} is {:.1}% from order statistic {exact}",
                err * 100.0
            );
        }
    }

    #[test]
    fn histogram_export_accounts_every_observation(ns in observations()) {
        let h = LatencyHistogram::default();
        let mut total_ns = 0u128;
        for &n in &ns {
            h.record(Duration::from_nanos(n));
            total_ns += n.max(1) as u128;
        }
        let snap = h.export();
        // Cumulative buckets are monotone, and the last one owns the
        // whole population.
        for pair in snap.buckets.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].1, "cumulative counts regressed");
            prop_assert!(pair[0].0 < pair[1].0, "bucket bounds not increasing");
        }
        prop_assert_eq!(snap.count, ns.len() as u64);
        prop_assert_eq!(snap.buckets.last().expect("non-empty").1, ns.len() as u64);
        // The exported sum (seconds) matches the recorded nanoseconds.
        let expect_s = total_ns as f64 * 1e-9;
        prop_assert!(
            (snap.sum - expect_s).abs() <= expect_s * 1e-9 + 1e-12,
            "sum {} != {}",
            snap.sum,
            expect_s
        );
    }
}
