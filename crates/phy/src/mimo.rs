//! MIMO dimensioning: TX/RX antennas and spatial streams.

use std::fmt;

/// Error returned when a MIMO configuration violates the standard's
/// dimensioning rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidMimoConfig(String);

impl fmt::Display for InvalidMimoConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MIMO configuration: {}", self.0)
    }
}

impl std::error::Error for InvalidMimoConfig {}

/// Antenna/stream dimensioning of one beamformer→beamformee link.
///
/// * `m_tx` — number of transmit antennas at the beamformer (paper: M = 3).
/// * `n_rx` — number of receive antennas at the beamformee (N ∈ {1, 2}).
/// * `n_ss` — number of spatial streams fed back (N_SS ≤ N, §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MimoConfig {
    m_tx: usize,
    n_rx: usize,
    n_ss: usize,
}

impl MimoConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidMimoConfig`] unless
    /// `1 ≤ n_ss ≤ n_rx ≤ 8` and `n_ss ≤ m_tx ≤ 8`.
    pub fn new(m_tx: usize, n_rx: usize, n_ss: usize) -> Result<Self, InvalidMimoConfig> {
        if m_tx == 0 || m_tx > 8 {
            return Err(InvalidMimoConfig(format!("m_tx={m_tx} outside 1..=8")));
        }
        if n_rx == 0 || n_rx > 8 {
            return Err(InvalidMimoConfig(format!("n_rx={n_rx} outside 1..=8")));
        }
        if n_ss == 0 || n_ss > n_rx {
            return Err(InvalidMimoConfig(format!(
                "n_ss={n_ss} must satisfy 1 ≤ n_ss ≤ n_rx={n_rx}"
            )));
        }
        if n_ss > m_tx {
            return Err(InvalidMimoConfig(format!(
                "n_ss={n_ss} cannot exceed m_tx={m_tx}"
            )));
        }
        Ok(MimoConfig { m_tx, n_rx, n_ss })
    }

    /// The paper's main configuration: M = 3 TX antennas, N = 2 RX
    /// antennas, N_SS = 2 spatial streams per beamformee.
    pub fn paper_default() -> Self {
        MimoConfig {
            m_tx: 3,
            n_rx: 2,
            n_ss: 2,
        }
    }

    /// Number of transmit antennas M.
    pub fn m_tx(&self) -> usize {
        self.m_tx
    }

    /// Number of receive antennas N.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// Number of spatial streams N_SS.
    pub fn n_ss(&self) -> usize {
        self.n_ss
    }

    /// Number of (φ, ψ) angles of one subcarrier's feedback: Algorithm 1
    /// produces, for `i = 1..min(N_SS, M−1)`, the φ angles `φ_{i..M−1,i}`
    /// and the ψ angles `ψ_{i+1..M,i}`.
    ///
    /// For the paper's 3×2 feedback this is 6 angles (φ11 φ21 ψ21 ψ31 φ22
    /// ψ32); the same count as the standard's Table 8-53g row "Nr=3, Nc=2".
    pub fn num_angle_pairs(&self) -> usize {
        let m = self.m_tx;
        let imax = self.n_ss.min(m - 1);
        let mut count = 0;
        for i in 1..=imax {
            count += m - i; // φ_{i..M−1,i}
            count += m - i; // ψ_{i+1..M,i}
        }
        count
    }

    /// Number of φ angles per subcarrier.
    pub fn num_phi(&self) -> usize {
        self.num_angle_pairs() / 2
    }

    /// Number of ψ angles per subcarrier.
    pub fn num_psi(&self) -> usize {
        self.num_angle_pairs() / 2
    }

    /// Number of real-valued input channels a classifier sees when stacking
    /// I/Q of the Ṽ rows (the paper's `Nch < 2M`): every TX antenna row
    /// contributes I and Q except the last, which is real by construction.
    pub fn num_iq_channels(&self) -> usize {
        2 * self.m_tx - 1
    }
}

impl Default for MimoConfig {
    fn default() -> Self {
        MimoConfig::paper_default()
    }
}

impl fmt::Display for MimoConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} ({} ss)", self.m_tx, self.n_rx, self.n_ss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_dimensions() {
        let c = MimoConfig::paper_default();
        assert_eq!(c.m_tx(), 3);
        assert_eq!(c.n_rx(), 2);
        assert_eq!(c.n_ss(), 2);
        assert_eq!(c.num_iq_channels(), 5);
    }

    #[test]
    fn angle_counts_match_standard_table() {
        // (M, NSS) → angle count per the 802.11 Givens ordering.
        let cases = [
            (2, 1, 2),  // φ11 ψ21
            (3, 1, 4),  // φ11 φ21 ψ21 ψ31
            (3, 2, 6),  // + φ22 ψ32
            (4, 1, 6),  // φ11 φ21 φ31 ψ21 ψ31 ψ41
            (4, 2, 10), // + φ22 φ32 ψ32 ψ42
        ];
        for (m, nss, want) in cases {
            let c = MimoConfig::new(m, nss.max(1), nss).unwrap();
            assert_eq!(c.num_angle_pairs(), want, "M={m} NSS={nss}");
        }
    }

    #[test]
    fn phi_psi_split_evenly() {
        let c = MimoConfig::new(3, 2, 2).unwrap();
        assert_eq!(c.num_phi(), 3);
        assert_eq!(c.num_psi(), 3);
    }

    #[test]
    fn rejects_zero_and_oversize() {
        assert!(MimoConfig::new(0, 2, 1).is_err());
        assert!(MimoConfig::new(3, 0, 1).is_err());
        assert!(MimoConfig::new(3, 2, 0).is_err());
        assert!(MimoConfig::new(9, 2, 1).is_err());
        assert!(MimoConfig::new(3, 9, 1).is_err());
    }

    #[test]
    fn rejects_nss_above_nrx_or_mtx() {
        assert!(MimoConfig::new(3, 2, 3).is_err()); // nss > n_rx
        assert!(MimoConfig::new(1, 2, 2).is_err()); // nss > m_tx
    }

    #[test]
    fn error_displays() {
        let e = MimoConfig::new(0, 1, 1).unwrap_err();
        assert!(format!("{e}").contains("m_tx"));
    }
}
