//! The VHT Compressed Beamforming Report: angle bitstream packing.

use crate::bits::{BitReader, BitWriter};
use deepcsi_bfi::{BeamformingFeedback, GivensAngles};
use deepcsi_phy::Codebook;
use std::ops::Range;

/// The per-column blocks of one subcarrier's angle set: for column
/// `i = 1..=min(Nc, Nr−1)` the range of its `Nr − i` φ (and as many ψ)
/// angles within the set.
fn column_blocks(m: usize, n_ss: usize) -> impl Iterator<Item = Range<usize>> {
    (1..=n_ss.min(m.saturating_sub(1))).scan(0, move |start, i| {
        let block = *start..*start + (m - i);
        *start = block.end;
        Some(block)
    })
}

/// Packs the report body: per-stream average SNR bytes followed by the
/// per-subcarrier angle bitstream.
///
/// Within each subcarrier the standard orders the angles per column:
/// for `i = 1..=min(Nc, Nr−1)` first the φ block `φ_{i,i} … φ_{Nr−1,i}`
/// then the ψ block `ψ_{i+1,i} … ψ_{Nr,i}` (Table 8-53g ordering, e.g.
/// `φ11 φ21 ψ21 ψ31 φ22 ψ32` for Nr=3, Nc=2).
///
/// `asnr` carries one signed quarter-dB-per-step average-SNR byte per
/// stream.
///
/// # Panics
///
/// Panics if the feedback is not
/// [consistent](BeamformingFeedback::is_consistent), or `asnr.len()`
/// differs from Nc.
pub fn pack_report(fb: &BeamformingFeedback, asnr: &[i8]) -> Vec<u8> {
    let (m, n_ss, cb) = (fb.mimo.m_tx(), fb.mimo.n_ss(), fb.codebook);
    assert_eq!(asnr.len(), n_ss, "one average-SNR byte per stream");
    assert!(
        fb.is_consistent(),
        "angle vectors must hold one angle set per subcarrier"
    );
    let mut w = BitWriter::with_capacity(report_len(m, n_ss, fb.len(), cb));
    for &snr in asnr {
        w.put(snr as u8 as u32, 8);
    }
    for j in 0..fb.len() {
        let (q_phi, q_psi) = fb.angles_at(j);
        for block in column_blocks(m, n_ss) {
            for &q in &q_phi[block.clone()] {
                w.put(q as u32, cb.b_phi);
            }
            for &q in &q_psi[block] {
                w.put(q as u32, cb.b_psi);
            }
        }
    }
    w.finish()
}

/// Unpacks a report body produced by [`pack_report`].
///
/// Returns the per-stream average SNR bytes and the φ and ψ indices of
/// every subcarrier, laid out flat as in [`BeamformingFeedback`], or
/// `None` when the buffer is too short for the declared dimensions.
pub fn unpack_report(
    data: &[u8],
    m: usize,
    n_ss: usize,
    num_subcarriers: usize,
    cb: Codebook,
) -> Option<(Vec<i8>, Vec<u16>, Vec<u16>)> {
    let mut r = BitReader::new(data);
    let asnr: Vec<i8> = (0..n_ss)
        .map(|_| r.get(8).map(|v| v as u8 as i8))
        .collect::<Option<_>>()?;
    let total = num_subcarriers.checked_mul(GivensAngles::expected_count(m, n_ss))?;
    let bits = total.checked_mul((cb.b_phi + cb.b_psi) as usize)?;
    if r.remaining_bits() < bits {
        return None;
    }
    let mut q_phi = Vec::with_capacity(total);
    let mut q_psi = Vec::with_capacity(total);
    for _ in 0..num_subcarriers {
        for block in column_blocks(m, n_ss) {
            for _ in block.clone() {
                q_phi.push(r.get(cb.b_phi)? as u16);
            }
            for _ in block {
                q_psi.push(r.get(cb.b_psi)? as u16);
            }
        }
    }
    Some((asnr, q_phi, q_psi))
}

/// Size in bytes of a packed report for the given dimensions.
pub fn report_len(m: usize, n_ss: usize, num_subcarriers: usize, cb: Codebook) -> usize {
    let pairs = GivensAngles::expected_count(m, n_ss);
    let bits = n_ss * 8 + num_subcarriers * pairs * (cb.b_phi + cb.b_psi) as usize;
    bits.div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcsi_bfi::QuantizedAngles;
    use deepcsi_phy::MimoConfig;

    fn sample_angles(n: usize) -> Vec<QuantizedAngles> {
        (0..n)
            .map(|j| QuantizedAngles {
                m: 3,
                n_ss: 2,
                q_phi: vec![
                    (j * 3) as u16 % 512,
                    (j * 5 + 1) as u16 % 512,
                    (j * 7 + 2) as u16 % 512,
                ],
                q_psi: vec![
                    (j * 2) as u16 % 128,
                    (j * 3 + 1) as u16 % 128,
                    (j * 4 + 2) as u16 % 128,
                ],
            })
            .collect()
    }

    fn feedback(angles: &[QuantizedAngles], cb: Codebook) -> BeamformingFeedback {
        let (m, n_ss) = (angles[0].m, angles[0].n_ss);
        BeamformingFeedback::from_angles(
            MimoConfig::new(m, n_ss, n_ss).unwrap(),
            cb,
            (0..angles.len() as i32).collect(),
            angles,
        )
    }

    #[test]
    fn roundtrip_mu_high() {
        let fb = feedback(&sample_angles(16), Codebook::MU_HIGH);
        let asnr = vec![22, 17];
        let bytes = pack_report(&fb, &asnr);
        let (snr2, q_phi, q_psi) =
            unpack_report(&bytes, 3, 2, 16, Codebook::MU_HIGH).expect("unpack failed");
        assert_eq!(snr2, asnr);
        assert_eq!((q_phi, q_psi), (fb.q_phi, fb.q_psi));
    }

    #[test]
    fn roundtrip_all_codebooks() {
        for cb in [
            Codebook::SU_LOW,
            Codebook::SU_HIGH,
            Codebook::MU_LOW,
            Codebook::MU_HIGH,
        ] {
            let angles: Vec<QuantizedAngles> = sample_angles(5)
                .into_iter()
                .map(|mut a| {
                    // Clamp indices into the narrower codebooks' range.
                    for q in a.q_phi.iter_mut() {
                        *q %= cb.phi_levels() as u16;
                    }
                    for q in a.q_psi.iter_mut() {
                        *q %= cb.psi_levels() as u16;
                    }
                    a
                })
                .collect();
            let fb = feedback(&angles, cb);
            let bytes = pack_report(&fb, &[0, -8]);
            let (_, q_phi, q_psi) = unpack_report(&bytes, 3, 2, 5, cb).unwrap();
            assert_eq!((q_phi, q_psi), (fb.q_phi, fb.q_psi), "codebook {cb}");
        }
    }

    #[test]
    fn packed_length_matches_report_len() {
        let fb = feedback(&sample_angles(234), Codebook::MU_HIGH);
        let bytes = pack_report(&fb, &[10, 10]);
        assert_eq!(bytes.len(), report_len(3, 2, 234, Codebook::MU_HIGH));
        // 2 SNR bytes + 234 · 3·(9+7) bits = 2 + 1404 bytes.
        assert_eq!(bytes.len(), 2 + 234 * 48 / 8);
    }

    #[test]
    fn truncated_buffer_fails_cleanly() {
        let fb = feedback(&sample_angles(8), Codebook::MU_HIGH);
        let mut bytes = pack_report(&fb, &[0, 0]);
        bytes.truncate(bytes.len() - 1);
        assert!(unpack_report(&bytes, 3, 2, 8, Codebook::MU_HIGH).is_none());
    }

    #[test]
    fn absurd_subcarrier_count_fails_before_allocating() {
        let fb = feedback(&sample_angles(2), Codebook::MU_HIGH);
        let bytes = pack_report(&fb, &[0, 0]);
        assert!(unpack_report(&bytes, 3, 2, usize::MAX / 2, Codebook::MU_HIGH).is_none());
        assert!(unpack_report(&bytes, 3, 2, 1 << 40, Codebook::MU_HIGH).is_none());
    }

    #[test]
    fn negative_snr_survives() {
        let fb = feedback(&sample_angles(1), Codebook::MU_HIGH);
        let bytes = pack_report(&fb, &[-16, 5]);
        let (snr, _, _) = unpack_report(&bytes, 3, 2, 1, Codebook::MU_HIGH).unwrap();
        assert_eq!(snr, vec![-16, 5]);
    }

    #[test]
    #[should_panic(expected = "one average-SNR byte per stream")]
    fn wrong_snr_count_panics() {
        let fb = feedback(&sample_angles(1), Codebook::MU_HIGH);
        let _ = pack_report(&fb, &[0]);
    }

    #[test]
    #[should_panic(expected = "one angle set per subcarrier")]
    fn inconsistent_feedback_panics() {
        let mut fb = feedback(&sample_angles(2), Codebook::MU_HIGH);
        fb.q_phi.pop();
        let _ = pack_report(&fb, &[0, 0]);
    }

    #[test]
    fn single_stream_ordering() {
        // Nr=3, Nc=1: angles are φ11 φ21 ψ21 ψ31.
        let qa = QuantizedAngles {
            m: 3,
            n_ss: 1,
            q_phi: vec![5, 6],
            q_psi: vec![7, 8],
        };
        let bytes = pack_report(&feedback(&[qa], Codebook::MU_HIGH), &[0]);
        let mut r = BitReader::new(&bytes);
        let _snr = r.get(8).unwrap();
        assert_eq!(r.get(9), Some(5));
        assert_eq!(r.get(9), Some(6));
        assert_eq!(r.get(7), Some(7));
        assert_eq!(r.get(7), Some(8));
    }
}
