//! Property-based tests for the beamforming-feedback pipeline.

use deepcsi_bfi::{
    beamforming_matrix, decompose, dequantize, quant, quantize, v_from_angles, v_tilde,
    GivensAngles, QuantizedAngles,
};
use deepcsi_linalg::{CMatrix, C64};
use deepcsi_phy::Codebook;
use proptest::prelude::*;
use std::f64::consts::{FRAC_PI_2, PI};

fn c64() -> impl Strategy<Value = C64> {
    (-2.0f64..2.0, -2.0f64..2.0).prop_map(|(re, im)| C64::new(re, im))
}

/// Random M×N CFR matrix with a minimum Frobenius norm so the SVD is
/// well-conditioned.
fn cfr(m: usize, n: usize) -> impl Strategy<Value = CMatrix> {
    proptest::collection::vec(c64(), m * n)
        .prop_map(move |data| CMatrix::from_fn(m, n, |r, c| data[r * n + c]))
        .prop_filter("CFR must be non-degenerate", |h| h.fro_norm() > 0.1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn beamforming_matrix_is_orthonormal(h in cfr(3, 2)) {
        let v = beamforming_matrix(&h, 2);
        prop_assert!(v.is_unitary(1e-8));
    }

    #[test]
    fn givens_roundtrip_3x2(h in cfr(3, 2)) {
        // decompose → reconstruct must satisfy V = Ṽ D̃ exactly.
        let v = beamforming_matrix(&h, 2);
        let dec = decompose(&v);
        let vt = v_from_angles(&dec.angles, 3, 2);
        let rebuilt = vt.matmul(&CMatrix::diag(&dec.d_tilde));
        prop_assert!(v.max_abs_diff(&rebuilt) < 1e-8);
        // Canonical form: last row real non-negative.
        for c in 0..2 {
            prop_assert!(vt[(2, c)].im.abs() < 1e-9);
            prop_assert!(vt[(2, c)].re > -1e-9);
        }
    }

    #[test]
    fn givens_roundtrip_4x2(h in cfr(4, 2)) {
        let v = beamforming_matrix(&h, 2);
        let dec = decompose(&v);
        let vt = v_from_angles(&dec.angles, 4, 2);
        let rebuilt = vt.matmul(&CMatrix::diag(&dec.d_tilde));
        prop_assert!(v.max_abs_diff(&rebuilt) < 1e-8);
    }

    #[test]
    fn givens_roundtrip_2x1(h in cfr(2, 1)) {
        let v = beamforming_matrix(&h, 1);
        let dec = decompose(&v);
        let vt = v_from_angles(&dec.angles, 2, 1);
        let rebuilt = vt.matmul(&CMatrix::diag(&dec.d_tilde));
        prop_assert!(v.max_abs_diff(&rebuilt) < 1e-8);
    }

    #[test]
    fn v_tilde_invariant_to_per_column_phase(h in cfr(3, 2), t0 in 0.0..(2.0 * PI), t1 in 0.0..(2.0 * PI)) {
        // Ṽ is a canonical form: multiplying V's columns by unit phases
        // must not change it. This is why per-packet common phase offsets
        // (CFO/PPO) cancel in the feedback.
        let v = beamforming_matrix(&h, 2);
        let phased = v.matmul(&CMatrix::diag(&[C64::cis(t0), C64::cis(t1)]));
        let a = decompose(&v);
        let b = decompose(&phased);
        let va = v_from_angles(&a.angles, 3, 2);
        let vb = v_from_angles(&b.angles, 3, 2);
        prop_assert!(va.max_abs_diff(&vb) < 1e-8);
    }

    #[test]
    fn quantize_phi_indices_in_range(a in -10.0f64..10.0) {
        for cb in [Codebook::SU_LOW, Codebook::SU_HIGH, Codebook::MU_LOW, Codebook::MU_HIGH] {
            let q = quant::quantize_phi(a, cb);
            prop_assert!((q as u32) < cb.phi_levels());
        }
    }

    #[test]
    fn quantize_psi_indices_in_range(a in -1.0f64..3.0) {
        for cb in [Codebook::SU_LOW, Codebook::SU_HIGH, Codebook::MU_LOW, Codebook::MU_HIGH] {
            let q = quant::quantize_psi(a, cb);
            prop_assert!((q as u32) < cb.psi_levels());
        }
    }

    #[test]
    fn quantization_error_within_half_step(a in 0.0..(2.0 * PI), b in 0.0..FRAC_PI_2) {
        let cb = Codebook::MU_HIGH;
        let phi_back = quant::dequantize_phi(quant::quantize_phi(a, cb), cb);
        let d = (a - phi_back).rem_euclid(2.0 * PI);
        let d = d.min(2.0 * PI - d);
        prop_assert!(d <= PI / cb.phi_levels() as f64 + 1e-9);

        let psi_back = quant::dequantize_psi(quant::quantize_psi(b, cb), cb);
        // Interior points are within half a step; the boundary cells add
        // up to a quarter step of clamping bias.
        prop_assert!((b - psi_back).abs() <= PI / (2.0 * cb.psi_levels() as f64) + 1e-9);
    }

    #[test]
    fn quantized_reconstruction_is_near_exact(h in cfr(3, 2)) {
        let v = beamforming_matrix(&h, 2);
        let dec = decompose(&v);
        let q = quantize(&dec.angles, Codebook::MU_HIGH);
        let back = dequantize(&q, Codebook::MU_HIGH);
        let vt_exact = v_from_angles(&dec.angles, 3, 2);
        let vt_quant = v_from_angles(&back, 3, 2);
        // Fine MU codebook keeps the matrix close in Frobenius norm.
        prop_assert!(vt_exact.sub(&vt_quant).fro_norm() < 0.1);
        // Both remain unitary (rotations preserve orthonormality exactly).
        prop_assert!(vt_quant.is_unitary(1e-8));
    }

    #[test]
    fn dequantized_angles_are_valid_ranges(qphi in 0u16..512, qpsi in 0u16..128) {
        let cb = Codebook::MU_HIGH;
        let phi = quant::dequantize_phi(qphi, cb);
        let psi = quant::dequantize_psi(qpsi, cb);
        prop_assert!((0.0..2.0 * PI).contains(&phi));
        prop_assert!((0.0..=FRAC_PI_2).contains(&psi));
    }
}

#[test]
fn angle_count_consistency_across_dims() {
    for (m, n_ss) in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)] {
        let count = GivensAngles::expected_count(m, n_ss);
        let angles = GivensAngles {
            m,
            n_ss,
            phi: vec![0.3; count],
            psi: vec![0.4; count],
        };
        assert!(angles.is_consistent());
        let vt = v_from_angles(&angles, m, n_ss);
        assert_eq!(vt.shape(), (m, n_ss));
        assert!(vt.is_unitary(1e-9));
    }
}

/// The four standard codebooks plus a custom one (no trig table).
const CODEBOOKS: [Codebook; 5] = [
    Codebook::SU_LOW,
    Codebook::SU_HIGH,
    Codebook::MU_LOW,
    Codebook::MU_HIGH,
    Codebook {
        b_phi: 12,
        b_psi: 10,
    },
];

/// A quantization index for a codebook with `levels` levels: 0, the top
/// level, an out-of-range value or a random in-range one, picked by
/// `draw`.
fn index(draw: u64, levels: u32) -> u16 {
    let x = (draw >> 2) as u32;
    match draw % 4 {
        0 => 0,
        1 => (levels - 1) as u16,
        2 => (levels + x % (65_536 - levels)) as u16,
        _ => (x % levels) as u16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn v_tilde_is_bit_identical_to_the_generic_path(seed in any::<u64>()) {
        let mut state = seed | 1;
        let mut draw = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        for cb in CODEBOOKS {
            for m in 1..=8usize {
                for n_ss in 1..=m {
                    let count = GivensAngles::expected_count(m, n_ss);
                    let q = QuantizedAngles {
                        m,
                        n_ss,
                        q_phi: (0..count).map(|_| index(draw(), cb.phi_levels())).collect(),
                        q_psi: (0..count).map(|_| index(draw(), cb.psi_levels())).collect(),
                    };
                    let fast = v_tilde(&q.q_phi, &q.q_psi, m, n_ss, cb);
                    let oracle = v_from_angles(&dequantize(&q, cb), m, n_ss);
                    prop_assert_eq!((fast.m(), fast.n_ss()), oracle.shape());
                    for r in 0..m {
                        for c in 0..n_ss {
                            let (a, b) = (fast[(r, c)], oracle[(r, c)]);
                            prop_assert!(
                                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                                "M={} N_SS={} {} entry ({}, {}): {:?} vs {:?}", m, n_ss, cb, r, c, a, b
                            );
                        }
                    }
                }
            }
        }
    }
}
