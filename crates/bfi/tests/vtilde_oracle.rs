//! Exhaustive check of the observer's Eq. (7) evaluator at M = 2.
//!
//! For every standard codebook, [`v_tilde`] must equal
//! `v_from_angles(&dequantize(..))` bit for bit on every in-range
//! (φ, ψ) index pair, for N_SS = 1 and N_SS = 2, and on a strided grid of
//! out-of-range indices. Out of range, ψ leaves `[0, π/2]`, so cos ψ and
//! sin ψ take every sign. The grid covers all four sign combinations.
//! With both negative, the structured evaluator produces a −0 that the
//! oracle does not, and only its `+0.0` canonicalisation hides it.

use deepcsi_bfi::{dequantize, quant, v_from_angles, v_tilde, QuantizedAngles};
use deepcsi_phy::Codebook;

const STANDARD: [Codebook; 4] = [
    Codebook::SU_LOW,
    Codebook::SU_HIGH,
    Codebook::MU_LOW,
    Codebook::MU_HIGH,
];

/// Asserts `v_tilde == v_from_angles(&dequantize(..))` by `to_bits` for a
/// single (φ, ψ) index pair at M = 2.
fn check(cb: Codebook, n_ss: usize, q_phi: u16, q_psi: u16) {
    let q = QuantizedAngles {
        m: 2,
        n_ss,
        q_phi: vec![q_phi],
        q_psi: vec![q_psi],
    };
    let fast = v_tilde(&q.q_phi, &q.q_psi, 2, n_ss, cb);
    let oracle = v_from_angles(&dequantize(&q, cb), 2, n_ss);
    for r in 0..2 {
        for c in 0..n_ss {
            let (a, b) = (fast[(r, c)], oracle[(r, c)]);
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{cb} N_SS={n_ss} q=({q_phi}, {q_psi}) entry ({r}, {c}): {a:?} vs {b:?}"
            );
        }
    }
}

#[test]
fn every_in_range_index_matches_the_oracle() {
    for cb in STANDARD {
        for n_ss in 1..=2 {
            for q_phi in 0..cb.phi_levels() as u16 {
                for q_psi in 0..cb.psi_levels() as u16 {
                    check(cb, n_ss, q_phi, q_psi);
                }
            }
        }
    }
}

#[test]
fn strided_out_of_range_indices_match_the_oracle() {
    for cb in STANDARD {
        let phis: Vec<u16> = (cb.phi_levels()..=u16::MAX as u32)
            .step_by(331)
            .map(|q| q as u16)
            .collect();
        let psis: Vec<u16> = (cb.psi_levels()..=u16::MAX as u32)
            .step_by(257)
            .map(|q| q as u16)
            .collect();
        // Every sign combination of (cos ψ, sin ψ) is exercised.
        let mut quadrants = [false; 4];
        for &q in &psis {
            let psi = quant::dequantize_psi(q, cb);
            quadrants[usize::from(psi.cos() < 0.0) * 2 + usize::from(psi.sin() < 0.0)] = true;
        }
        assert_eq!(quadrants, [true; 4], "{cb}: ψ grid misses a sign quadrant");
        for n_ss in 1..=2 {
            for &q_phi in &phis {
                for &q_psi in &psis {
                    check(cb, n_ss, q_phi, q_psi);
                }
            }
        }
    }
}
