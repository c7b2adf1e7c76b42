//! IEEE 802.11ac VHT Compressed Beamforming frame codec.
//!
//! DeepCSI's observer is any Wi-Fi device in monitor mode: it captures the
//! VHT Compressed Beamforming **Action No Ack** frames the beamformees
//! send in clear text, reads the VHT MIMO Control field (Nr, Nc, channel
//! width, codebook) and unpacks the quantized (φ, ψ) angles. This crate
//! implements that frame format byte- and bit-exactly in both directions:
//!
//! * [`VhtMimoControl`] — the 3-byte control field (§8.4.1.48 of the
//!   standard).
//! * [`pack_report`] / [`unpack_report`] — the angle bitstream with the
//!   standard's per-subcarrier angle ordering (φ blocks then ψ blocks per
//!   column) and per-stream average-SNR prefix, read and written a 64-bit
//!   word at a time ([`BitReader`] / [`BitWriter`]) straight from and
//!   into the feedback's flat angle vectors.
//! * [`BeamformingReportFrame`] — the full MAC frame: header, category,
//!   action, control field, report; [`BeamformingReportFrame::encode`]
//!   and [`BeamformingReportFrame::parse`].
//! * [`Monitor`] — a promiscuous capture point that filters beamforming
//!   reports by source address, mirroring the Wireshark workflow of §IV.
//! * [`ByteWriter`] / [`ByteReader`] / [`Envelope`] / [`crc32`] — the
//!   little-endian byte codec every persisted and wire format above the
//!   802.11 frame shares (engine snapshots, model files, cluster frames).
//!
//! # Example
//!
//! ```
//! use deepcsi_frame::{BeamformingReportFrame, MacAddr, Monitor};
//! use deepcsi_bfi::{BeamformingFeedback, QuantizedAngles};
//! use deepcsi_phy::{Codebook, MimoConfig};
//!
//! let mimo = MimoConfig::new(3, 2, 2).unwrap();
//! let feedback = BeamformingFeedback::from_angles(
//!     mimo,
//!     Codebook::MU_HIGH,
//!     vec![-2, 2],
//!     &[
//!         QuantizedAngles { m: 3, n_ss: 2, q_phi: vec![1, 2, 3], q_psi: vec![4, 5, 6] },
//!         QuantizedAngles { m: 3, n_ss: 2, q_phi: vec![7, 8, 9], q_psi: vec![10, 11, 12] },
//!     ],
//! );
//! let frame = BeamformingReportFrame::new(
//!     MacAddr::BROADCAST,
//!     MacAddr::new([2, 0, 0, 0, 0, 7]),
//!     MacAddr::BROADCAST,
//!     5,
//!     feedback,
//! );
//! let bytes = frame.encode();
//! let parsed = BeamformingReportFrame::parse(&bytes).unwrap();
//! assert_eq!(parsed.feedback().q_phi, frame.feedback().q_phi);
//! assert_eq!(parsed.feedback().q_psi, frame.feedback().q_psi);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod bits;
mod byte_codec;
mod capture;
mod mac;
mod mimo_ctrl;
mod mu_exclusive;
mod report;

pub use action::{BeamformingReportFrame, FrameError};
pub use bits::{BitReader, BitWriter};
pub use byte_codec::{crc32, ByteReader, ByteWriter, DecodeError, Envelope};
pub use capture::{CapturedReport, Monitor};
pub use mac::MacAddr;
pub use mimo_ctrl::{FeedbackType, VhtMimoControl};
pub use mu_exclusive::{
    mu_exclusive_len, pack_mu_exclusive, unpack_mu_exclusive, DELTA_SNR_MAX, DELTA_SNR_MIN,
};
pub use report::{pack_report, report_len, unpack_report};
