//! The 3-byte VHT MIMO Control field (IEEE 802.11ac §8.4.1.48).

use crate::bits::{BitReader, BitWriter};
use deepcsi_phy::{Band, Codebook};

/// Feedback Type bit: single-user or multi-user feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeedbackType {
    /// SU feedback (Feedback Type = 0).
    Su,
    /// MU feedback (Feedback Type = 1) — the DeepCSI setting.
    Mu,
}

/// The VHT MIMO Control field. Bit layout (LSB-first):
///
/// | bits  | field                       |
/// |-------|-----------------------------|
/// | 0–2   | Nc Index (`Nc − 1`)         |
/// | 3–5   | Nr Index (`Nr − 1`)         |
/// | 6–7   | Channel Width               |
/// | 8–9   | Grouping (Ng exponent)      |
/// | 10    | Codebook Information        |
/// | 11    | Feedback Type               |
/// | 12–14 | Remaining Feedback Segments |
/// | 15    | First Feedback Segment      |
/// | 16–17 | Reserved                    |
/// | 18–23 | Sounding Dialog Token       |
///
/// The paper reads exactly these bits from Wireshark captures to learn
/// (Nc, Nr, bandwidth, bφ/bψ) before reconstructing Ṽ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VhtMimoControl {
    /// Number of columns Nc of the fed-back matrix (= N_SS), 1..=8.
    pub nc: u8,
    /// Number of rows Nr (= M TX antennas), 1..=8.
    pub nr: u8,
    /// Sounded channel width.
    pub band: Band,
    /// Subcarrier grouping Ng ∈ {1, 2, 4}, encoded as 0, 1, 2.
    pub grouping: u8,
    /// Codebook Information bit.
    pub codebook_bit: u8,
    /// SU/MU feedback type.
    pub feedback_type: FeedbackType,
    /// Remaining feedback segments (0 when unsegmented).
    pub remaining_segments: u8,
    /// First feedback segment flag.
    pub first_segment: bool,
    /// Sounding dialog token copied from the NDP Announcement.
    pub token: u8,
}

impl VhtMimoControl {
    /// Control field for one of this repo's simulated feedbacks.
    pub fn for_feedback(nr: u8, nc: u8, band: Band, codebook: Codebook, token: u8) -> Self {
        let (is_mu, bit) = codebook
            .to_standard_bit()
            .expect("codebook must be one of the four standard codebooks");
        VhtMimoControl {
            nc,
            nr,
            band,
            grouping: 0,
            codebook_bit: bit,
            feedback_type: if is_mu {
                FeedbackType::Mu
            } else {
                FeedbackType::Su
            },
            remaining_segments: 0,
            first_segment: true,
            token,
        }
    }

    /// The quantization codebook implied by the feedback type and
    /// codebook bit.
    pub fn codebook(&self) -> Codebook {
        match self.feedback_type {
            FeedbackType::Su => Codebook::su_from_bit(self.codebook_bit),
            FeedbackType::Mu => Codebook::mu_from_bit(self.codebook_bit),
        }
    }

    /// Subcarrier grouping factor Ng.
    pub fn ng(&self) -> u8 {
        1 << self.grouping
    }

    /// Serialises to the 3-byte wire format.
    pub fn to_bytes(&self) -> [u8; 3] {
        let mut w = BitWriter::new();
        w.put((self.nc - 1) as u32, 3);
        w.put((self.nr - 1) as u32, 3);
        w.put(self.band.vht_width_field() as u32, 2);
        w.put(self.grouping as u32, 2);
        w.put(self.codebook_bit as u32, 1);
        w.put(
            match self.feedback_type {
                FeedbackType::Su => 0,
                FeedbackType::Mu => 1,
            },
            1,
        );
        w.put(self.remaining_segments as u32, 3);
        w.put(self.first_segment as u32, 1);
        w.put(0, 2); // reserved
        w.put(self.token as u32, 6);
        let v = w.finish();
        [v[0], v[1], v[2]]
    }

    /// Parses the 3-byte wire format.
    ///
    /// Returns `None` when the channel-width code is invalid (it cannot
    /// be: all four 2-bit values map to a width — kept for future-proofing
    /// against reserved widths).
    pub fn from_bytes(bytes: [u8; 3]) -> Option<Self> {
        let mut r = BitReader::new(&bytes);
        let nc = r.get(3)? as u8 + 1;
        let nr = r.get(3)? as u8 + 1;
        let band = Band::from_vht_width_field(r.get(2)? as u8)?;
        let grouping = r.get(2)? as u8;
        let codebook_bit = r.get(1)? as u8;
        let feedback_type = if r.get(1)? == 0 {
            FeedbackType::Su
        } else {
            FeedbackType::Mu
        };
        let remaining_segments = r.get(3)? as u8;
        let first_segment = r.get(1)? == 1;
        let _reserved = r.get(2)?;
        let token = r.get(6)? as u8;
        Some(VhtMimoControl {
            nc,
            nr,
            band,
            grouping,
            codebook_bit,
            feedback_type,
            remaining_segments,
            first_segment,
            token,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VhtMimoControl {
        VhtMimoControl::for_feedback(3, 2, Band::Mhz80, Codebook::MU_HIGH, 0x2A)
    }

    #[test]
    fn roundtrip_preserves_all_fields() {
        let c = sample();
        let parsed = VhtMimoControl::from_bytes(c.to_bytes()).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn paper_setting_wire_bits() {
        let c = sample();
        let b = c.to_bytes();
        // Byte 0: Nc−1=1 (bits 0–2), Nr−1=2 (bits 3–5), width=2 (bits 6–7).
        assert_eq!(b[0] & 0b111, 1);
        assert_eq!((b[0] >> 3) & 0b111, 2);
        assert_eq!(b[0] >> 6, 2);
        // Byte 1: grouping=0, codebook=1 (bit 10), fb type MU=1 (bit 11),
        // first segment (bit 15).
        assert_eq!(b[1] & 0b11, 0);
        assert_eq!((b[1] >> 2) & 1, 1);
        assert_eq!((b[1] >> 3) & 1, 1);
        assert_eq!(b[1] >> 7, 1);
        // Byte 2: token in bits 18–23.
        assert_eq!(b[2] >> 2, 0x2A);
    }

    #[test]
    fn codebook_mapping() {
        let c = sample();
        assert_eq!(c.codebook(), Codebook::MU_HIGH);
        let su = VhtMimoControl::for_feedback(2, 1, Band::Mhz20, Codebook::SU_LOW, 0);
        assert_eq!(su.codebook(), Codebook::SU_LOW);
        assert_eq!(su.feedback_type, FeedbackType::Su);
    }

    #[test]
    fn grouping_factor() {
        let mut c = sample();
        assert_eq!(c.ng(), 1);
        c.grouping = 2;
        assert_eq!(c.ng(), 4);
    }

    #[test]
    fn all_dimension_combinations_roundtrip() {
        for nr in 1..=8u8 {
            for nc in 1..=nr {
                for band in [Band::Mhz20, Band::Mhz40, Band::Mhz80, Band::Mhz160] {
                    let c = VhtMimoControl {
                        nc,
                        nr,
                        band,
                        grouping: 1,
                        codebook_bit: 0,
                        feedback_type: FeedbackType::Su,
                        remaining_segments: 3,
                        first_segment: false,
                        token: 63,
                    };
                    assert_eq!(VhtMimoControl::from_bytes(c.to_bytes()), Some(c));
                }
            }
        }
    }
}
