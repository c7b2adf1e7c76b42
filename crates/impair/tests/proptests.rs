//! Property-based tests for the impairment layer.
//!
//! Three families of properties:
//! * determinism — fingerprints and their drifted variants are pure
//!   functions of (seed, parameters);
//! * totality — `ChainResponse::response` stays finite/non-NaN over
//!   arbitrary `(k, k_span)` in range, including the `k_span = 0` guard;
//! * identity — `ideal()` chains are an exact multiplicative identity on
//!   CSI tensors, and ideal radios leave a CFR snapshot unchanged up to
//!   the per-tone common Eq. (9) phase (which cancels in the Givens
//!   canonical form downstream).

use deepcsi_impair::{
    apply_impairments, ChainResponse, ChainResponses, DeviceId, ImpairmentProfile, LinkState,
    RadioFingerprint,
};
use deepcsi_linalg::{CMatrix, C64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A profile whose generation scales are drawn from realistic ranges.
fn profile_strategy() -> impl Strategy<Value = ImpairmentProfile> {
    (
        0.0f64..2.0,
        0.0f64..3e-9,
        0.0f64..1.5,
        0.0f64..0.5,
        0.0f64..0.1,
    )
        .prop_map(|(gain, delay, phase, amp, ripple)| ImpairmentProfile {
            gain_std_db: gain,
            delay_std_s: delay,
            phase_std_rad: phase,
            amp_ripple_db: amp,
            phase_ripple_rad: ripple,
            ..ImpairmentProfile::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chain_generation_is_deterministic_per_seed(
        seed in any::<u64>(),
        gain in 0.0f64..3.0,
        delay in 0.0f64..5e-9,
        phase in 0.0f64..3.0,
        amp in 0.0f64..1.0,
        ripple in 0.0f64..0.2,
    ) {
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let a = ChainResponse::generate(&mut r1, gain, delay, phase, amp, ripple);
        let b = ChainResponse::generate(&mut r2, gain, delay, phase, amp, ripple);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fingerprints_are_deterministic_per_device(
        device in any::<u32>(),
        chains in 1usize..4,
        profile in profile_strategy(),
    ) {
        let a = RadioFingerprint::generate(DeviceId(device), chains, &profile);
        let b = RadioFingerprint::generate(DeviceId(device), chains, &profile);
        prop_assert_eq!(&a, &b);
        // Drift is equally deterministic: same (day, scale) → same radio.
        prop_assert_eq!(a.drifted(5, 0.3), b.drifted(5, 0.3));
    }

    #[test]
    fn response_is_finite_over_arbitrary_tones(
        seed in any::<u64>(),
        gain in 0.0f64..3.0,
        delay in 0.0f64..5e-9,
        phase in 0.0f64..3.0,
        amp in 0.0f64..1.0,
        ripple in 0.0f64..0.2,
        k in -512i32..=512,
        k_span in 0i32..=512,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = ChainResponse::generate(&mut rng, gain, delay, phase, amp, ripple);
        let r = c.response(k, k_span);
        prop_assert!(r.re.is_finite() && r.im.is_finite(), "T({k}) = {r:?}");
        prop_assert!(r.abs() > 0.0, "response must never vanish");
    }

    #[test]
    fn ideal_chain_is_an_exact_identity_on_csi(
        k in -512i32..=512,
        k_span in 0i32..=512,
        re in -10.0f64..10.0,
        im in -10.0f64..10.0,
    ) {
        let r = ChainResponse::ideal().response(k, k_span);
        // Exactly (1, 0): multiplying any CSI value by it is bit-exact.
        prop_assert_eq!(r, C64::ONE);
        let v = C64::new(re, im);
        let w = v * r;
        prop_assert!(w.re == v.re && w.im == v.im, "{v:?} changed to {w:?}");
    }

    #[test]
    fn ideal_radios_are_identity_up_to_common_phase(
        seed in any::<u64>(),
        mags in proptest::collection::vec(0.2f64..1.0, 6 * 6),
        args in proptest::collection::vec(-3.1f64..3.1, 6 * 6),
    ) {
        // Ideal fingerprints at infinite SNR change a CFR snapshot only by
        // the per-tone common Eq. (9) phase (PPO/PDD are receiver-side
        // nuisances drawn per packet); that phase is common to every
        // matrix entry, so the CSI tensor is preserved up to a unit
        // scalar per tone — exactly the term the Givens form cancels.
        let tones: Vec<i32> = (-3..=3).filter(|&k| k != 0).collect();
        let cfr: Vec<CMatrix> = (0..tones.len())
            .map(|t| {
                CMatrix::from_fn(3, 2, |mi, ni| {
                    let i = t * 6 + mi * 2 + ni;
                    C64::from_polar(mags[i], args[i])
                })
            })
            .collect();
        let profile = ImpairmentProfile {
            snr_db: f64::INFINITY,
            snr_jitter_db: 0.0,
            phase_noise_std_rad: 0.0,
            ..ImpairmentProfile::default()
        };
        let tx = RadioFingerprint::ideal(3);
        let rx = RadioFingerprint::ideal(2);
        let mut link = LinkState::new(&tx, seed);
        let chains = ChainResponses::new(&tones, &tx, &rx);
        let out = apply_impairments(&cfr, &chains, &profile, &mut link);
        for (a, b) in cfr.iter().zip(out.iter()) {
            let c = b[(0, 0)] / a[(0, 0)];
            prop_assert!((c.abs() - 1.0).abs() < 1e-12, "|c| = {}", c.abs());
            for mi in 0..3 {
                for ni in 0..2 {
                    let want = a[(mi, ni)] * c;
                    prop_assert!(
                        (b[(mi, ni)] - want).abs() < 1e-12,
                        "entry ({mi},{ni}) moved off the common phase"
                    );
                }
            }
        }
    }

    #[test]
    fn drift_preserves_the_gross_fingerprint(
        device in 0u32..64,
        day in 1u32..32,
        scale in 0.01f64..0.5,
    ) {
        let profile = ImpairmentProfile::default();
        let fp = RadioFingerprint::generate(DeviceId(device), 3, &profile);
        let aged = fp.drifted(day, scale);
        prop_assert_ne!(&aged, &fp, "drift must move the fingerprint");
        for i in 0..3 {
            for k in [-122, -61, 1, 61, 122] {
                let a = fp.chain(i).response(k, 122);
                let b = aged.chain(i).response(k, 122);
                prop_assert!(a.re.is_finite() && a.im.is_finite());
                prop_assert!((a - b).abs() < 1.0, "drift destroyed chain {i} at tone {k}");
            }
        }
    }
}
