//! Angle quantization per Eq. (8) of the paper (IEEE 802.11ac §8.4.1.48).
//!
//! The beamformee maps each φ angle to `bφ` bits and each ψ angle to
//! `bψ = bφ − 2` bits; the beamformer (and any observer) recovers the
//! angle centers via
//!
//! ```text
//! φ = π (1/2^{bφ}   + qφ / 2^{bφ−1}),   qφ ∈ {0, …, 2^{bφ}−1}
//! ψ = π (1/2^{bψ+2} + qψ / 2^{bψ+1}),   qψ ∈ {0, …, 2^{bψ}−1}
//! ```

use crate::GivensAngles;
use deepcsi_phy::Codebook;
use std::f64::consts::PI;

/// Quantized feedback angles for one subcarrier (what actually travels in
/// the VHT Compressed Beamforming frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedAngles {
    /// Number of beamformer antennas M.
    pub m: usize,
    /// Number of spatial streams N_SS.
    pub n_ss: usize,
    /// Quantization indices for the φ angles (i-major order).
    pub q_phi: Vec<u16>,
    /// Quantization indices for the ψ angles (i-major order).
    pub q_psi: Vec<u16>,
}

/// Quantizes one φ angle.
///
/// The angle is wrapped into `[0, 2π)` first; values in the wrap-around
/// half-step above the last center map to index 0 as on real hardware.
pub fn quantize_phi(phi: f64, cb: Codebook) -> u16 {
    let levels = 1i64 << cb.b_phi;
    let wrapped = phi.rem_euclid(2.0 * PI);
    // Invert Eq. (8): q = φ·2^{bφ−1}/π − 1/2, rounded to nearest center.
    let q = (wrapped * (levels as f64 / 2.0) / PI - 0.5).round() as i64;
    (q.rem_euclid(levels)) as u16
}

/// Quantizes one ψ angle (clamped into the codebook's `[0, π/2]` range).
pub fn quantize_psi(psi: f64, cb: Codebook) -> u16 {
    let levels = 1i64 << cb.b_psi;
    let clamped = psi.clamp(0.0, PI / 2.0);
    let q = (clamped * (2.0 * levels as f64) / PI - 0.5).round() as i64;
    q.clamp(0, levels - 1) as u16
}

/// Recovers a φ angle center from its index (Eq. (8)).
pub fn dequantize_phi(q: u16, cb: Codebook) -> f64 {
    let levels = (1u32 << cb.b_phi) as f64;
    PI * (1.0 / levels + q as f64 / (levels / 2.0))
}

/// Recovers a ψ angle center from its index (Eq. (8)).
pub fn dequantize_psi(q: u16, cb: Codebook) -> f64 {
    let levels = (1u32 << cb.b_psi) as f64;
    PI * (1.0 / (4.0 * levels) + q as f64 / (2.0 * levels))
}

/// Quantizes a full angle set (beamformee side).
pub fn quantize(angles: &GivensAngles, cb: Codebook) -> QuantizedAngles {
    QuantizedAngles {
        m: angles.m,
        n_ss: angles.n_ss,
        q_phi: angles.phi.iter().map(|&a| quantize_phi(a, cb)).collect(),
        q_psi: angles.psi.iter().map(|&a| quantize_psi(a, cb)).collect(),
    }
}

/// Dequantizes a full angle set (beamformer / observer side).
pub fn dequantize(q: &QuantizedAngles, cb: Codebook) -> GivensAngles {
    GivensAngles {
        m: q.m,
        n_ss: q.n_ss,
        phi: q.q_phi.iter().map(|&i| dequantize_phi(i, cb)).collect(),
        psi: q.q_psi.iter().map(|&i| dequantize_psi(i, cb)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CB: Codebook = Codebook::MU_HIGH;

    #[test]
    fn phi_error_bounded_by_half_step() {
        let step = 2.0 * PI / CB.phi_levels() as f64;
        let mut a = 0.0;
        while a < 2.0 * PI {
            let q = quantize_phi(a, CB);
            let back = dequantize_phi(q, CB);
            // Distance on the circle.
            let d = (a - back).rem_euclid(2.0 * PI);
            let d = d.min(2.0 * PI - d);
            assert!(d <= step / 2.0 + 1e-12, "φ={a} err={d}");
            a += 0.0137;
        }
    }

    #[test]
    fn psi_error_bounded_by_half_step() {
        let step = PI / (2.0 * CB.psi_levels() as f64);
        let mut a = 0.0;
        while a <= PI / 2.0 {
            let q = quantize_psi(a, CB);
            let back = dequantize_psi(q, CB);
            assert!((a - back).abs() <= step / 2.0 + 1e-12, "ψ={a}");
            a += 0.0071;
        }
    }

    #[test]
    fn centers_are_fixed_points() {
        for q in [0u16, 1, 100, 511] {
            let a = dequantize_phi(q, CB);
            assert_eq!(quantize_phi(a, CB), q, "φ center q={q}");
        }
        for q in [0u16, 1, 64, 127] {
            let a = dequantize_psi(q, CB);
            assert_eq!(quantize_psi(a, CB), q, "ψ center q={q}");
        }
    }

    #[test]
    fn phi_wraps_near_two_pi() {
        // Centers sit at half-step offsets, so just below 2π the nearest
        // center is the last one; negative angles wrap the same way.
        let eps = 1e-6;
        let top = (CB.phi_levels() - 1) as u16;
        assert_eq!(quantize_phi(2.0 * PI - eps, CB), top);
        assert_eq!(quantize_phi(-eps, CB), top);
        // Far beyond the wrap the index stays in range.
        let q = quantize_phi(5.0 * PI, CB);
        assert!((q as u32) < CB.phi_levels());
        // And the circular quantization error stays within half a step.
        let back = dequantize_phi(quantize_phi(2.0 * PI - eps, CB), CB);
        let d = (2.0 * PI - eps - back).rem_euclid(2.0 * PI);
        let d = d.min(2.0 * PI - d);
        assert!(d <= PI / CB.phi_levels() as f64 + 1e-12);
    }

    #[test]
    fn psi_clamps_out_of_range() {
        assert_eq!(quantize_psi(-0.5, CB), 0);
        assert_eq!(
            quantize_psi(PI, CB),
            (CB.psi_levels() - 1) as u16,
            "above range clamps to top"
        );
    }

    #[test]
    fn coarse_codebook_is_coarser() {
        // The same angle quantized with MU_LOW loses more precision.
        let a = 1.2345;
        let fine =
            (a - dequantize_phi(quantize_phi(a, Codebook::MU_HIGH), Codebook::MU_HIGH)).abs();
        let coarse =
            (a - dequantize_phi(quantize_phi(a, Codebook::MU_LOW), Codebook::MU_LOW)).abs();
        assert!(coarse >= fine);
    }

    #[test]
    fn monotone_within_range() {
        // Quantization preserves order away from the wrap boundary.
        let q1 = quantize_phi(0.5, CB);
        let q2 = quantize_phi(1.5, CB);
        let q3 = quantize_phi(3.0, CB);
        assert!(q1 < q2 && q2 < q3);
    }

    #[test]
    fn full_angle_set_roundtrip() {
        let angles = GivensAngles {
            m: 3,
            n_ss: 2,
            phi: vec![0.1, 3.0, 6.0],
            psi: vec![0.2, 0.7, 1.4],
        };
        let q = quantize(&angles, CB);
        assert_eq!(q.q_phi.len(), 3);
        assert_eq!(q.q_psi.len(), 3);
        let back = dequantize(&q, CB);
        for (a, b) in angles.phi.iter().zip(back.phi.iter()) {
            assert!((a - b).abs() < 0.01, "φ {a} vs {b}");
        }
        for (a, b) in angles.psi.iter().zip(back.psi.iter()) {
            assert!((a - b).abs() < 0.02, "ψ {a} vs {b}");
        }
    }
}
