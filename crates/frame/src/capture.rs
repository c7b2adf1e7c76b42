//! Monitor-mode capture of beamforming reports (the Wireshark role).

use crate::action::{BeamformingReportFrame, FrameError};
use crate::mac::MacAddr;
use deepcsi_bfi::BeamformingFeedback;

/// One successfully captured beamforming report.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedReport {
    /// Beamformee that sent the feedback (frame Addr2).
    pub source: MacAddr,
    /// Beamformer the feedback is destined to (frame Addr1).
    pub destination: MacAddr,
    /// Frame sequence number.
    pub sequence: u16,
    /// The decoded feedback.
    pub feedback: BeamformingFeedback,
}

/// A passive monitor that decodes every VHT Compressed Beamforming frame
/// it is handed, keeping per-source statistics.
///
/// This mirrors §III-C: "the angles can be easily collected by any Wi-Fi
/// compliant device by setting the Wi-Fi interface in monitor mode …
/// DeepCSI does not require the monitor device to be authenticated with
/// the target AP." Feedback grouping by beamformee is "a filter on the
/// packets source address" (§IV-A).
#[derive(Debug, Default)]
pub struct Monitor {
    reports: Vec<CapturedReport>,
    decode_errors: usize,
}

impl Monitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one captured frame; undecodable frames are counted, not
    /// stored.
    pub fn observe(&mut self, bytes: &[u8]) -> Result<&CapturedReport, FrameError> {
        match BeamformingReportFrame::parse(bytes) {
            Ok(frame) => {
                self.reports.push(CapturedReport {
                    source: frame.source(),
                    destination: frame.destination(),
                    sequence: frame.sequence(),
                    feedback: frame.into_feedback(),
                });
                Ok(self.reports.last().expect("just pushed"))
            }
            Err(e) => {
                self.decode_errors += 1;
                Err(e)
            }
        }
    }

    /// All captured reports, in arrival order.
    pub fn reports(&self) -> &[CapturedReport] {
        &self.reports
    }

    /// Reports filtered by beamformee source address — the paper's
    /// per-beamformee trace grouping.
    pub fn reports_from(&self, source: MacAddr) -> impl Iterator<Item = &CapturedReport> {
        self.reports.iter().filter(move |r| r.source == source)
    }

    /// Distinct beamformee addresses seen so far.
    pub fn sources(&self) -> Vec<MacAddr> {
        let mut out: Vec<MacAddr> = self.reports.iter().map(|r| r.source).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Number of frames that failed to decode.
    pub fn decode_errors(&self) -> usize {
        self.decode_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcsi_bfi::QuantizedAngles;
    use deepcsi_phy::{Codebook, MimoConfig};

    fn frame_from(src: u64, seq: u16) -> Vec<u8> {
        let mimo = MimoConfig::new(3, 2, 2).unwrap();
        let fb = BeamformingFeedback::from_angles(
            mimo,
            Codebook::MU_HIGH,
            vec![0, 1],
            &vec![
                QuantizedAngles {
                    m: 3,
                    n_ss: 2,
                    q_phi: vec![seq, 2, 3],
                    q_psi: vec![4, 5, 6],
                };
                2
            ],
        );
        BeamformingReportFrame::new(
            MacAddr::station(0),
            MacAddr::station(src),
            MacAddr::station(0),
            seq,
            fb,
        )
        .encode()
    }

    #[test]
    fn captures_and_filters_by_source() {
        let mut mon = Monitor::new();
        mon.observe(&frame_from(1, 10)).unwrap();
        mon.observe(&frame_from(2, 11)).unwrap();
        mon.observe(&frame_from(1, 12)).unwrap();
        assert_eq!(mon.reports().len(), 3);
        let from1: Vec<_> = mon.reports_from(MacAddr::station(1)).collect();
        assert_eq!(from1.len(), 2);
        assert_eq!(from1[0].sequence, 10);
        assert_eq!(from1[1].sequence, 12);
        assert_eq!(mon.sources().len(), 2);
    }

    #[test]
    fn garbage_counts_as_decode_error() {
        let mut mon = Monitor::new();
        assert!(mon.observe(&[1, 2, 3]).is_err());
        assert_eq!(mon.decode_errors(), 1);
        assert!(mon.reports().is_empty());
    }

    #[test]
    fn feedback_payload_is_preserved() {
        let mut mon = Monitor::new();
        mon.observe(&frame_from(5, 42)).unwrap();
        let r = &mon.reports()[0];
        assert_eq!(r.feedback.angles_at(0).0[0], 42);
        assert_eq!(r.feedback.mimo.m_tx(), 3);
    }
}
