//! The VHT Compressed Beamforming **Action No Ack** frame.

use crate::mac::MacAddr;
use crate::mimo_ctrl::VhtMimoControl;
use crate::mu_exclusive::{mu_exclusive_len, pack_mu_exclusive, unpack_mu_exclusive};
use crate::report::{pack_report, unpack_report};
use deepcsi_bfi::{BeamformingFeedback, GivensAngles};
use deepcsi_phy::{MimoConfig, SubcarrierLayout};
use std::fmt;

/// 802.11 management / Action No Ack frame control (version 0, type 00,
/// subtype 1110).
const FC_ACTION_NO_ACK: u8 = 0xE0;
/// Category code for VHT action frames.
const CATEGORY_VHT: u8 = 21;
/// VHT action id for Compressed Beamforming.
const ACTION_COMPRESSED_BF: u8 = 0;
/// MAC header length: FC(2) + Dur(2) + 3 addresses(18) + Seq(2).
const HEADER_LEN: usize = 24;

/// Errors returned by [`BeamformingReportFrame::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than the fixed header + control fields.
    TooShort,
    /// Frame Control is not Action / Action No Ack.
    NotAnActionFrame,
    /// Category is not VHT or the action is not Compressed Beamforming.
    NotABeamformingReport,
    /// The MIMO control field failed to decode.
    BadMimoControl,
    /// Subcarrier grouping other than Ng = 1 is not supported.
    UnsupportedGrouping(u8),
    /// The angle payload does not contain a whole number of subcarriers.
    LengthMismatch {
        /// Payload bits available for angles.
        available_bits: usize,
        /// Bits required per subcarrier.
        bits_per_subcarrier: usize,
    },
    /// The MIMO dimensions in the control field are invalid.
    BadDimensions,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "frame too short"),
            FrameError::NotAnActionFrame => write!(f, "not an action frame"),
            FrameError::NotABeamformingReport => {
                write!(f, "not a VHT compressed beamforming report")
            }
            FrameError::BadMimoControl => write!(f, "undecodable VHT MIMO control field"),
            FrameError::UnsupportedGrouping(g) => {
                write!(f, "unsupported subcarrier grouping exponent {g}")
            }
            FrameError::LengthMismatch {
                available_bits,
                bits_per_subcarrier,
            } => write!(
                f,
                "angle payload of {available_bits} bits is not a multiple of {bits_per_subcarrier}"
            ),
            FrameError::BadDimensions => write!(f, "invalid Nr/Nc combination"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A complete, parseable VHT Compressed Beamforming report frame.
///
/// Encoding produces the on-air byte layout (MAC header, category/action,
/// VHT MIMO Control, SNR bytes, LSB-first angle bitstream); parsing
/// recovers every field, deriving the subcarrier indices from the
/// bandwidth exactly like a real observer must.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamformingReportFrame {
    destination: MacAddr,
    source: MacAddr,
    bssid: MacAddr,
    sequence: u16,
    asnr: Vec<i8>,
    feedback: BeamformingFeedback,
    mu_exclusive: Option<Vec<Vec<i8>>>,
}

impl BeamformingReportFrame {
    /// Wraps a feedback into a frame.
    pub fn new(
        destination: MacAddr,
        source: MacAddr,
        bssid: MacAddr,
        sequence: u16,
        feedback: BeamformingFeedback,
    ) -> Self {
        let asnr = vec![24i8 * 4; feedback.mimo.n_ss()]; // 24 dB default
        BeamformingReportFrame {
            destination,
            source,
            bssid,
            sequence,
            asnr,
            feedback,
            mu_exclusive: None,
        }
    }

    /// Appends an MU Exclusive Beamforming Report (per-tone delta SNRs,
    /// one row per subcarrier with one 4-bit value per stream).
    ///
    /// # Panics
    ///
    /// Panics if the row count differs from the feedback's subcarrier
    /// count.
    pub fn with_mu_exclusive(mut self, delta_snr: Vec<Vec<i8>>) -> Self {
        assert_eq!(
            delta_snr.len(),
            self.feedback.len(),
            "one delta-SNR row per subcarrier"
        );
        self.mu_exclusive = Some(delta_snr);
        self
    }

    /// The MU Exclusive report's delta SNRs, when present.
    pub fn mu_exclusive(&self) -> Option<&[Vec<i8>]> {
        self.mu_exclusive.as_deref()
    }

    /// Transmitting beamformee address (Addr2).
    pub fn source(&self) -> MacAddr {
        self.source
    }

    /// Destination beamformer address (Addr1).
    pub fn destination(&self) -> MacAddr {
        self.destination
    }

    /// Sequence number.
    pub fn sequence(&self) -> u16 {
        self.sequence
    }

    /// The carried feedback.
    pub fn feedback(&self) -> &BeamformingFeedback {
        &self.feedback
    }

    /// Consumes the frame, returning the feedback.
    pub fn into_feedback(self) -> BeamformingFeedback {
        self.feedback
    }

    /// Per-stream average SNR \[quarter dB\].
    pub fn average_snr(&self) -> &[i8] {
        &self.asnr
    }

    /// Serialises to the on-air byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mimo = self.feedback.mimo;
        let ctrl = VhtMimoControl::for_feedback(
            mimo.m_tx() as u8,
            mimo.n_ss() as u8,
            self.feedback_band(),
            self.feedback.codebook,
            (self.sequence & 0x3F) as u8,
        );
        let mut out = Vec::with_capacity(HEADER_LEN + 5);
        out.push(FC_ACTION_NO_ACK);
        out.push(0);
        out.extend_from_slice(&[0, 0]); // duration
        out.extend_from_slice(&self.destination.octets());
        out.extend_from_slice(&self.source.octets());
        out.extend_from_slice(&self.bssid.octets());
        out.extend_from_slice(&(self.sequence << 4).to_le_bytes());
        out.push(CATEGORY_VHT);
        out.push(ACTION_COMPRESSED_BF);
        out.extend_from_slice(&ctrl.to_bytes());
        out.extend_from_slice(&pack_report(&self.feedback, &self.asnr));
        if let Some(delta) = &self.mu_exclusive {
            out.extend_from_slice(&pack_mu_exclusive(delta));
        }
        out
    }

    /// Parses an on-air frame.
    ///
    /// The number of subcarriers is recovered from the payload length and
    /// cross-checked for an exact fit; when it matches the band's native
    /// sounding layout the true tone indices are restored, otherwise the
    /// indices are consecutive from zero (partial/segmented captures).
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] variant describing where decoding failed.
    pub fn parse(bytes: &[u8]) -> Result<Self, FrameError> {
        if bytes.len() < HEADER_LEN + 5 {
            return Err(FrameError::TooShort);
        }
        if bytes[0] != FC_ACTION_NO_ACK && bytes[0] != 0xD0 {
            return Err(FrameError::NotAnActionFrame);
        }
        let destination = MacAddr::new(bytes[4..10].try_into().expect("slice length"));
        let source = MacAddr::new(bytes[10..16].try_into().expect("slice length"));
        let bssid = MacAddr::new(bytes[16..22].try_into().expect("slice length"));
        let sequence = u16::from_le_bytes([bytes[22], bytes[23]]) >> 4;
        if bytes[24] != CATEGORY_VHT || bytes[25] != ACTION_COMPRESSED_BF {
            return Err(FrameError::NotABeamformingReport);
        }
        let ctrl = VhtMimoControl::from_bytes([bytes[26], bytes[27], bytes[28]])
            .ok_or(FrameError::BadMimoControl)?;
        if ctrl.grouping != 0 {
            return Err(FrameError::UnsupportedGrouping(ctrl.grouping));
        }
        let m = ctrl.nr as usize;
        let n_ss = ctrl.nc as usize;
        let mimo = MimoConfig::new(m, n_ss.max(1), n_ss).map_err(|_| FrameError::BadDimensions)?;
        let cb = ctrl.codebook();

        let payload = &bytes[29..];
        let bits_per_sc = GivensAngles::expected_count(m, n_ss) * (cb.b_phi + cb.b_psi) as usize;
        if bits_per_sc == 0 {
            return Err(FrameError::BadDimensions);
        }
        let available_bits = (payload.len() * 8)
            .checked_sub(n_ss * 8)
            .ok_or(FrameError::TooShort)?;
        // First try: angles only (zero-padding of the final byte allows
        // < 8 slack bits).
        let mut num_sc = available_bits / bits_per_sc;
        let mut has_exclusive = false;
        if num_sc == 0 || available_bits - num_sc * bits_per_sc >= 8 {
            // Second try: a byte-aligned MU Exclusive report follows the
            // angle segment; solve for the tone count that fits exactly.
            num_sc = 0;
            for n in 1..=4096usize {
                let angle_bytes = (n_ss * 8 + n * bits_per_sc).div_ceil(8);
                let total = angle_bytes + mu_exclusive_len(n_ss, n);
                if total == payload.len() {
                    num_sc = n;
                    has_exclusive = true;
                    break;
                }
                if total > payload.len() {
                    break;
                }
            }
            if num_sc == 0 {
                return Err(FrameError::LengthMismatch {
                    available_bits,
                    bits_per_subcarrier: bits_per_sc,
                });
            }
        }
        let (asnr, q_phi, q_psi) =
            unpack_report(payload, m, n_ss, num_sc, cb).ok_or(FrameError::TooShort)?;
        let mu_exclusive = if has_exclusive {
            let angle_bytes = (n_ss * 8 + num_sc * bits_per_sc).div_ceil(8);
            unpack_mu_exclusive(&payload[angle_bytes..], n_ss, num_sc)
        } else {
            None
        };

        let native = SubcarrierLayout::for_band(ctrl.band);
        let subcarriers: Vec<i32> = if native.len() == num_sc {
            native.indices().to_vec()
        } else {
            (0..num_sc as i32).collect()
        };

        Ok(BeamformingReportFrame {
            destination,
            source,
            bssid,
            sequence,
            asnr,
            feedback: BeamformingFeedback {
                mimo,
                codebook: cb,
                subcarriers,
                q_phi,
                q_psi,
            },
            mu_exclusive,
        })
    }

    /// Infers the channel width to advertise from the subcarrier count.
    fn feedback_band(&self) -> deepcsi_phy::Band {
        match self.feedback.subcarriers.len() {
            0..=52 => deepcsi_phy::Band::Mhz20,
            53..=110 => deepcsi_phy::Band::Mhz40,
            _ => deepcsi_phy::Band::Mhz80,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcsi_bfi::QuantizedAngles;
    use deepcsi_phy::Codebook;

    fn feedback(n_sc: usize) -> BeamformingFeedback {
        let mimo = MimoConfig::new(3, 2, 2).unwrap();
        BeamformingFeedback::from_angles(
            mimo,
            Codebook::MU_HIGH,
            (0..n_sc as i32).collect(),
            &(0..n_sc)
                .map(|j| QuantizedAngles {
                    m: 3,
                    n_ss: 2,
                    q_phi: vec![
                        (j % 512) as u16,
                        ((j + 1) % 512) as u16,
                        ((j + 2) % 512) as u16,
                    ],
                    q_psi: vec![
                        (j % 128) as u16,
                        ((j + 1) % 128) as u16,
                        ((j + 2) % 128) as u16,
                    ],
                })
                .collect::<Vec<_>>(),
        )
    }

    fn frame(n_sc: usize) -> BeamformingReportFrame {
        BeamformingReportFrame::new(
            MacAddr::station(0),
            MacAddr::station(1),
            MacAddr::station(0),
            77,
            feedback(n_sc),
        )
    }

    #[test]
    fn encode_parse_roundtrip() {
        let f = frame(16);
        let bytes = f.encode();
        let parsed = BeamformingReportFrame::parse(&bytes).unwrap();
        assert_eq!(parsed.source(), f.source());
        assert_eq!(parsed.destination(), f.destination());
        assert_eq!(parsed.sequence(), 77);
        assert_eq!(parsed.feedback().q_phi, f.feedback().q_phi);
        assert_eq!(parsed.feedback().q_psi, f.feedback().q_psi);
        assert_eq!(parsed.feedback().codebook, Codebook::MU_HIGH);
        assert_eq!(parsed.average_snr(), f.average_snr());
    }

    #[test]
    fn full_80mhz_feedback_recovers_tone_indices() {
        let native = SubcarrierLayout::vht80();
        let mut fb = feedback(234);
        fb.subcarriers = native.indices().to_vec();
        let f = BeamformingReportFrame::new(
            MacAddr::station(0),
            MacAddr::station(1),
            MacAddr::station(0),
            1,
            fb,
        );
        let parsed = BeamformingReportFrame::parse(&f.encode()).unwrap();
        assert_eq!(parsed.feedback().subcarriers, native.indices());
    }

    #[test]
    fn frame_size_matches_expected() {
        // 234 tones, 3×2, (9,7): 24 header + 2 + 3 ctrl + 2 SNR + 1404.
        let f = frame(234);
        assert_eq!(f.encode().len(), 24 + 2 + 3 + 2 + 234 * 48 / 8);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            BeamformingReportFrame::parse(&[0u8; 4]),
            Err(FrameError::TooShort)
        );
        let mut bytes = frame(4).encode();
        bytes[0] = 0x80; // beacon
        assert_eq!(
            BeamformingReportFrame::parse(&bytes),
            Err(FrameError::NotAnActionFrame)
        );
        let mut bytes = frame(4).encode();
        bytes[24] = 4; // category: public action
        assert_eq!(
            BeamformingReportFrame::parse(&bytes),
            Err(FrameError::NotABeamformingReport)
        );
    }

    /// Every prefix that ends inside the header, the control field or the
    /// SNR bytes is refused — a payload shorter than its Nc SNR bytes
    /// used to underflow the angle-bit count.
    #[test]
    fn every_short_prefix_is_refused_without_panicking() {
        for n_ss in [1usize, 2] {
            let mimo = MimoConfig::new(3, n_ss, n_ss).unwrap();
            let count = GivensAngles::expected_count(3, n_ss);
            let q = QuantizedAngles {
                m: 3,
                n_ss,
                q_phi: vec![7; count],
                q_psi: vec![9; count],
            };
            let fb = BeamformingFeedback::from_angles(
                mimo,
                Codebook::MU_HIGH,
                (0..4).collect(),
                &vec![q; 4],
            );
            let bytes = BeamformingReportFrame::new(
                MacAddr::station(0),
                MacAddr::station(1),
                MacAddr::station(0),
                3,
                fb,
            )
            .encode();
            for len in 0..=31 {
                assert!(
                    BeamformingReportFrame::parse(&bytes[..len]).is_err(),
                    "Nc={n_ss}: a {len}-byte prefix parsed"
                );
            }
            assert_eq!(
                BeamformingReportFrame::parse(&bytes[..HEADER_LEN + 5 + n_ss - 1]),
                Err(FrameError::TooShort)
            );
        }
    }

    #[test]
    fn truncated_payload_is_rejected_or_shorter() {
        let f = frame(16);
        let mut bytes = f.encode();
        // Chop half the angle payload: parser must either report fewer
        // subcarriers or a length error — never panic.
        bytes.truncate(bytes.len() - 40);
        match BeamformingReportFrame::parse(&bytes) {
            Ok(p) => assert!(p.feedback().len() < 16),
            Err(e) => assert!(matches!(e, FrameError::LengthMismatch { .. })),
        }
    }

    #[test]
    fn mu_exclusive_roundtrip_through_frame() {
        let f = frame(16).with_mu_exclusive(
            (0..16)
                .map(|t| vec![(t % 16) as i8 - 8, 7 - (t % 16) as i8])
                .collect(),
        );
        let bytes = f.encode();
        let parsed = BeamformingReportFrame::parse(&bytes).unwrap();
        assert_eq!(parsed.feedback().q_phi, f.feedback().q_phi);
        assert_eq!(parsed.feedback().q_psi, f.feedback().q_psi);
        let delta = parsed.mu_exclusive().expect("exclusive report present");
        assert_eq!(delta, f.mu_exclusive().unwrap());
        // Plain frames still parse without one.
        let plain = BeamformingReportFrame::parse(&frame(16).encode()).unwrap();
        assert!(plain.mu_exclusive().is_none());
    }

    #[test]
    fn errors_display() {
        let e = FrameError::UnsupportedGrouping(2);
        assert!(e.to_string().contains("grouping"));
        let e = FrameError::LengthMismatch {
            available_bits: 10,
            bits_per_subcarrier: 48,
        };
        assert!(e.to_string().contains("48"));
    }
}
