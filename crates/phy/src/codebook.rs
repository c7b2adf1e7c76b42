//! Angle-quantization codebooks of the VHT compressed feedback.

use std::fmt;

/// A (bψ, bφ) angle-quantization codebook (§III-B of the paper,
/// IEEE 802.11ac Table 8-53c "Codebook Information").
///
/// φ angles are quantized with `b_phi` bits over `[0, 2π)` and ψ angles
/// with `b_psi = b_phi − 2` bits over `[0, π/2]`, following Eq. (8):
///
/// ```text
/// φ = π (1/2^{bφ}   + qφ / 2^{bφ−1})
/// ψ = π (1/2^{bψ+2} + qψ / 2^{bψ+1})
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Codebook {
    /// Bits for each φ angle.
    pub b_phi: u8,
    /// Bits for each ψ angle.
    pub b_psi: u8,
}

impl Codebook {
    /// SU feedback, Codebook Information = 0: (bψ=2, bφ=4).
    pub const SU_LOW: Codebook = Codebook { b_phi: 4, b_psi: 2 };
    /// SU feedback, Codebook Information = 1: (bψ=4, bφ=6).
    pub const SU_HIGH: Codebook = Codebook { b_phi: 6, b_psi: 4 };
    /// MU feedback, Codebook Information = 0: (bψ=5, bφ=7) — the coarser
    /// setting of Fig. 13a.
    pub const MU_LOW: Codebook = Codebook { b_phi: 7, b_psi: 5 };
    /// MU feedback, Codebook Information = 1: (bψ=7, bφ=9) — the paper's
    /// AP setting (§IV) and Fig. 13b.
    pub const MU_HIGH: Codebook = Codebook { b_phi: 9, b_psi: 7 };

    /// Builds a custom codebook.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ b_psi < b_phi ≤ 16` (quantized angle indices are
    /// stored in `u16`).
    pub fn new(b_phi: u8, b_psi: u8) -> Self {
        assert!(
            b_psi >= 2 && b_psi < b_phi && b_phi <= 16,
            "codebook bits must satisfy 2 ≤ bψ < bφ ≤ 16"
        );
        Codebook { b_phi, b_psi }
    }

    /// The MU codebook for a Codebook Information bit value.
    pub fn mu_from_bit(bit: u8) -> Codebook {
        if bit == 0 {
            Codebook::MU_LOW
        } else {
            Codebook::MU_HIGH
        }
    }

    /// The SU codebook for a Codebook Information bit value.
    pub fn su_from_bit(bit: u8) -> Codebook {
        if bit == 0 {
            Codebook::SU_LOW
        } else {
            Codebook::SU_HIGH
        }
    }

    /// The Codebook Information bit this codebook corresponds to, if it is
    /// one of the four standard codebooks (`(is_mu, bit)`).
    pub fn to_standard_bit(self) -> Option<(bool, u8)> {
        match self {
            Codebook::SU_LOW => Some((false, 0)),
            Codebook::SU_HIGH => Some((false, 1)),
            Codebook::MU_LOW => Some((true, 0)),
            Codebook::MU_HIGH => Some((true, 1)),
            _ => None,
        }
    }

    /// Number of quantization levels for φ.
    pub fn phi_levels(self) -> u32 {
        1u32 << self.b_phi
    }

    /// Number of quantization levels for ψ.
    pub fn psi_levels(self) -> u32 {
        1u32 << self.b_psi
    }

    /// Bits used by one subcarrier's feedback given the number of angle
    /// pairs (φ and ψ come in equal numbers for every (M, N_SS)).
    pub fn bits_per_subcarrier(self, num_angle_pairs: usize) -> usize {
        let per_pair = (self.b_phi + self.b_psi) as usize;
        num_angle_pairs / 2 * per_pair
    }
}

impl Default for Codebook {
    fn default() -> Self {
        Codebook::MU_HIGH
    }
}

impl fmt::Display for Codebook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(bψ={}, bφ={})", self.b_psi, self.b_phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_codebooks_have_bpsi_two_less() {
        for cb in [
            Codebook::SU_LOW,
            Codebook::SU_HIGH,
            Codebook::MU_LOW,
            Codebook::MU_HIGH,
        ] {
            assert_eq!(cb.b_psi + 2, cb.b_phi);
        }
    }

    #[test]
    fn paper_setting_is_mu_high() {
        // §IV: "bφ = 9 and bψ = 7".
        let cb = Codebook::MU_HIGH;
        assert_eq!(cb.b_phi, 9);
        assert_eq!(cb.b_psi, 7);
        assert_eq!(cb.phi_levels(), 512);
        assert_eq!(cb.psi_levels(), 128);
    }

    #[test]
    fn bit_mapping_roundtrip() {
        assert_eq!(Codebook::mu_from_bit(0), Codebook::MU_LOW);
        assert_eq!(Codebook::mu_from_bit(1), Codebook::MU_HIGH);
        assert_eq!(Codebook::su_from_bit(0), Codebook::SU_LOW);
        assert_eq!(Codebook::su_from_bit(1), Codebook::SU_HIGH);
        assert_eq!(Codebook::MU_HIGH.to_standard_bit(), Some((true, 1)));
        assert_eq!(Codebook::new(10, 3).to_standard_bit(), None);
    }

    #[test]
    fn bits_per_subcarrier_3x2() {
        // 3 φ + 3 ψ angles at (9,7) → 3·(9+7) = 48 bits.
        assert_eq!(Codebook::MU_HIGH.bits_per_subcarrier(6), 48);
        // Coarse MU codebook: 3·(7+5) = 36 bits.
        assert_eq!(Codebook::MU_LOW.bits_per_subcarrier(6), 36);
    }

    #[test]
    #[should_panic(expected = "codebook bits")]
    fn invalid_custom_codebook_panics() {
        let _ = Codebook::new(4, 6);
    }
}
