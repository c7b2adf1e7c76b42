//! Property-based tests for dataset generation and input assembly.

use deepcsi_bfi::{dequantize, v_from_angles, BeamformingFeedback, QuantizedAngles, VSeries};
use deepcsi_data::{clean_phase_offsets, InputSpec};
use deepcsi_linalg::{CMatrix, C64};
use deepcsi_phy::{Codebook, MimoConfig};
use proptest::prelude::*;

const CODEBOOKS: [Codebook; 4] = [
    Codebook::SU_LOW,
    Codebook::SU_HIGH,
    Codebook::MU_LOW,
    Codebook::MU_HIGH,
];

fn feedback(n_sc: usize, seed: u64) -> BeamformingFeedback {
    feedback_with(n_sc, seed, Codebook::MU_HIGH)
}

fn feedback_with(n_sc: usize, seed: u64, cb: Codebook) -> BeamformingFeedback {
    // Spectrally smooth CFR (slow variation across tones), like a real
    // multipath channel — phase unwrapping across tones is well-defined.
    let mimo = MimoConfig::paper_default();
    let cfr: Vec<CMatrix> = (0..n_sc)
        .map(|j| {
            CMatrix::from_fn(3, 2, |r, c| {
                let x = j as f64 * 0.06 + seed as f64 * 0.13 + r as f64 * 1.3 + c as f64 * 2.1;
                C64::new(1.0 + 0.4 * x.sin(), 0.4 * (x * 1.7).cos())
            })
        })
        .collect();
    let sc: Vec<i32> = (0..n_sc as i32).collect();
    BeamformingFeedback::from_cfr(&cfr, &sc, mimo, cb)
}

/// The generic reference reconstruction: every subcarrier through
/// `v_from_angles(&dequantize(..))` on the heap.
fn oracle(fb: &BeamformingFeedback) -> VSeries {
    let (m, n_ss) = (fb.mimo.m_tx(), fb.mimo.n_ss());
    let v = (0..fb.len())
        .map(|j| {
            let (q_phi, q_psi) = fb.angles_at(j);
            let q = QuantizedAngles {
                m,
                n_ss,
                q_phi: q_phi.to_vec(),
                q_psi: q_psi.to_vec(),
            };
            v_from_angles(&dequantize(&q, fb.codebook), m, n_ss)
        })
        .collect();
    VSeries {
        subcarriers: fb.subcarriers.clone(),
        v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tensor_shape_matches_spec(n_sc in 8usize..64, stride in 1usize..4, seed in 0u64..100) {
        let fb = feedback(n_sc, seed);
        let spec = InputSpec { stride, ..InputSpec::default() };
        let t = spec.tensor(&fb);
        prop_assert_eq!(t.shape()[0], 5);
        prop_assert_eq!(t.shape()[1], 1);
        prop_assert_eq!(t.shape()[2], n_sc.div_ceil(stride));
        prop_assert!(t.is_finite());
    }

    #[test]
    fn tensor_values_bounded_by_unitarity(n_sc in 4usize..32, seed in 0u64..100) {
        let fb = feedback(n_sc, seed);
        let t = InputSpec::default().tensor(&fb);
        prop_assert!(t.as_slice().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn cleaning_is_contractive(n_sc in 8usize..48, seed in 0u64..100) {
        // Exact idempotency does not hold (phase unwrapping can resolve
        // differently after the first pass near ±π), but re-cleaning must
        // change the series far less than the first cleaning did.
        let fb = feedback(n_sc, seed);
        let raw = fb.reconstruct();
        let mut once = raw.clone();
        clean_phase_offsets(&mut once);
        let mut twice = once.clone();
        clean_phase_offsets(&mut twice);
        let delta = |a: &deepcsi_bfi::VSeries, b: &deepcsi_bfi::VSeries| -> f64 {
            a.v.iter().zip(b.v.iter()).map(|(x, y)| x.sub(y).fro_norm()).sum()
        };
        let first = delta(&raw, &once);
        let second = delta(&once, &twice);
        prop_assert!(
            second <= 0.5 * first + 1e-9,
            "second pass ({second}) not much smaller than first ({first})"
        );
    }

    #[test]
    fn cleaning_preserves_magnitudes(n_sc in 8usize..48, seed in 0u64..100) {
        let fb = feedback(n_sc, seed);
        let raw = fb.reconstruct();
        let mut cleaned = raw.clone();
        clean_phase_offsets(&mut cleaned);
        for (a, b) in raw.v.iter().zip(cleaned.v.iter()) {
            for m in 0..3 {
                for s in 0..2 {
                    prop_assert!((a[(m, s)].abs() - b[(m, s)].abs()).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn tensor_is_bit_identical_to_the_generic_oracle(
        n_sc in 8usize..64,
        seed in 0u64..100,
        stride in 1usize..5,
        cb in 0usize..4,
    ) {
        let fb = feedback_with(n_sc, seed, CODEBOOKS[cb]);
        let series = oracle(&fb);
        let mut cleaned = series.clone();
        clean_phase_offsets(&mut cleaned);
        let specs = [
            InputSpec::default(),
            InputSpec::fast(),
            InputSpec::paper_default(),
            InputSpec { stride, ..InputSpec::default() },
            InputSpec {
                subcarrier_positions: Some((2..n_sc - 3).collect()),
                stride,
                ..InputSpec::default()
            },
            InputSpec { streams: vec![1], stride, ..InputSpec::default() },
            InputSpec {
                streams: vec![0, 1],
                antennas: vec![2, 0, 1],
                stride,
                ..InputSpec::default()
            },
            InputSpec { offset_cleaning: true, stride, ..InputSpec::default() },
        ];
        for spec in &specs {
            let got = spec.tensor(&fb);
            let reference = if spec.offset_cleaning { &cleaned } else { &series };
            let want = spec.tensor_from_series(reference, 3, 2);
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert!(
                got.as_slice().iter().zip(want.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{:?} differs from the oracle", spec
            );
        }
    }

    #[test]
    fn subband_then_stride_compose(n_sc in 24usize..64, seed in 0u64..50) {
        let fb = feedback(n_sc, seed);
        let positions: Vec<usize> = (4..n_sc - 4).collect();
        let spec = InputSpec {
            subcarrier_positions: Some(positions.clone()),
            stride: 2,
            ..InputSpec::default()
        };
        let t = spec.tensor(&fb);
        prop_assert_eq!(t.shape()[2], positions.len().div_ceil(2));
    }
}
