//! Per-sounding feedback containers spanning all sounded subcarriers.
//!
//! [`BeamformingFeedback::from_cfr`] is the beamformee's per-tone
//! computation, run for every tone of every generated sounding. It calls
//! the stack-array bodies directly, with the antenna count M ≤ 8 as a
//! const generic chosen once per sounding: the Gram matrix and Jacobi of
//! [`right_singular_vectors_array`] for `V_k`, then Algorithm 1's
//! `decompose_array`, then Eq. (8). No heap matrix is built per tone.
//!
//! The angles are bit-identical to those of the dense `CMatrix` pipeline
//! ([`beamforming_matrix`] → [`decompose`] → [`quantize`](crate::quantize))
//! that the bodies replaced, because they repeat its floating-point
//! operations in order (see the `givens` module and
//! [`herm_eig_array`](deepcsi_linalg::herm_eig_array)).
//! `tests/dense_reference.rs` keeps that pipeline and pins the equality on
//! every valid shape and on degenerate CFRs.

use crate::givens::decompose_array;
use crate::quant::{quantize_phi, quantize_psi};
use crate::{
    beamforming_matrix, decompose, v_from_angles, v_tilde, GivensAngles, QuantizedAngles, MAX_M,
};
use deepcsi_linalg::{right_singular_vectors_array, CMatrix, C64};
use deepcsi_phy::{Codebook, MimoConfig};

/// The compressed beamforming feedback of one sounding event: quantized
/// (φ, ψ) angles for every sounded subcarrier.
///
/// This is exactly the payload a monitor extracts from a captured VHT
/// Compressed Beamforming frame (minus the MAC framing, which lives in
/// `deepcsi-frame`).
///
/// The angles are stored flat, subcarrier-major: subcarrier `j` owns the
/// `GivensAngles::expected_count(M, N_SS)` entries starting at
/// `j × count` of both `q_phi` and `q_psi`, in [`QuantizedAngles`]
/// order. [`BeamformingFeedback::angles_at`] slices them out.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamformingFeedback {
    /// MIMO dimensioning of the link.
    pub mimo: MimoConfig,
    /// Quantization codebook used by the beamformee.
    pub codebook: Codebook,
    /// Sounded subcarrier indices (ascending).
    pub subcarriers: Vec<i32>,
    /// Quantized φ indices of every subcarrier, subcarrier-major.
    pub q_phi: Vec<u16>,
    /// Quantized ψ indices of every subcarrier, laid out like `q_phi`.
    pub q_psi: Vec<u16>,
}

impl BeamformingFeedback {
    /// Beamformee-side computation (steps 1–3 of Fig. 3): per-subcarrier
    /// `H_k → V_k → angles → quantized angles`.
    ///
    /// `cfr[j]` must be the M×N CFR of subcarrier `subcarriers[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `cfr` and `subcarriers` lengths differ, or if any CFR
    /// sub-matrix disagrees with `mimo`.
    pub fn from_cfr(
        cfr: &[CMatrix],
        subcarriers: &[i32],
        mimo: MimoConfig,
        codebook: Codebook,
    ) -> Self {
        assert_eq!(
            cfr.len(),
            subcarriers.len(),
            "one CFR matrix per subcarrier required"
        );
        let (q_phi, q_psi) = match mimo.m_tx() {
            1 => quantized_angles::<1>(cfr, mimo, codebook),
            2 => quantized_angles::<2>(cfr, mimo, codebook),
            3 => quantized_angles::<3>(cfr, mimo, codebook),
            4 => quantized_angles::<4>(cfr, mimo, codebook),
            5 => quantized_angles::<5>(cfr, mimo, codebook),
            6 => quantized_angles::<6>(cfr, mimo, codebook),
            7 => quantized_angles::<7>(cfr, mimo, codebook),
            8 => quantized_angles::<8>(cfr, mimo, codebook),
            m => unreachable!("MimoConfig bounds M to 1..=8, got {m}"),
        };
        BeamformingFeedback {
            mimo,
            codebook,
            subcarriers: subcarriers.to_vec(),
            q_phi,
            q_psi,
        }
    }

    /// Builds a feedback from per-subcarrier angle sets (`angles[j]` for
    /// `subcarriers[j]`), e.g. a hand-crafted one for a test.
    ///
    /// # Panics
    ///
    /// Panics if `angles` and `subcarriers` lengths differ, or if any
    /// angle set's dimensions or angle counts disagree with `mimo`.
    pub fn from_angles(
        mimo: MimoConfig,
        codebook: Codebook,
        subcarriers: Vec<i32>,
        angles: &[QuantizedAngles],
    ) -> Self {
        assert_eq!(
            angles.len(),
            subcarriers.len(),
            "one angle set per subcarrier required"
        );
        let count = GivensAngles::expected_count(mimo.m_tx(), mimo.n_ss());
        let mut q_phi = Vec::with_capacity(angles.len() * count);
        let mut q_psi = Vec::with_capacity(angles.len() * count);
        for q in angles {
            assert_eq!(
                (q.m, q.n_ss),
                (mimo.m_tx(), mimo.n_ss()),
                "angle set dimensions disagree with {mimo}"
            );
            assert!(
                q.q_phi.len() == count && q.q_psi.len() == count,
                "angle set must hold {count} φ and {count} ψ angles"
            );
            q_phi.extend_from_slice(&q.q_phi);
            q_psi.extend_from_slice(&q.q_psi);
        }
        BeamformingFeedback {
            mimo,
            codebook,
            subcarriers,
            q_phi,
            q_psi,
        }
    }

    /// Number of φ (equivalently ψ) angles per subcarrier.
    fn angles_per_subcarrier(&self) -> usize {
        GivensAngles::expected_count(self.mimo.m_tx(), self.mimo.n_ss())
    }

    /// The `(φ, ψ)` indices of the `j`-th subcarrier, in
    /// [`QuantizedAngles`] order.
    ///
    /// # Panics
    ///
    /// Panics if the flat vectors hold no angle set `j`.
    pub fn angles_at(&self, j: usize) -> (&[u16], &[u16]) {
        let count = self.angles_per_subcarrier();
        let span = j * count..(j + 1) * count;
        (&self.q_phi[span.clone()], &self.q_psi[span])
    }

    /// `true` when the flat angle vectors hold exactly one angle set per
    /// subcarrier. Feedback from [`BeamformingFeedback::from_cfr`],
    /// [`BeamformingFeedback::from_angles`] or a parsed frame always is;
    /// a hand-edited or deserialized one need not be.
    pub fn is_consistent(&self) -> bool {
        let want = self.len() * self.angles_per_subcarrier();
        self.q_phi.len() == want && self.q_psi.len() == want
    }

    /// Observer-side reconstruction (step 4 of Fig. 3): rebuilds `Ṽ_k`
    /// for every subcarrier from its quantized angles via Eq. (7), with
    /// [`v_tilde`].
    ///
    /// # Panics
    ///
    /// Panics if the feedback is not [consistent](Self::is_consistent).
    pub fn reconstruct(&self) -> VSeries {
        let (m, n_ss) = (self.mimo.m_tx(), self.mimo.n_ss());
        let v = (0..self.len())
            .map(|j| {
                let (q_phi, q_psi) = self.angles_at(j);
                v_tilde(q_phi, q_psi, m, n_ss, self.codebook).to_cmatrix()
            })
            .collect();
        VSeries {
            subcarriers: self.subcarriers.clone(),
            v,
        }
    }

    /// Number of sounded subcarriers in this feedback.
    pub fn len(&self) -> usize {
        self.subcarriers.len()
    }

    /// Returns `true` when the feedback carries no subcarriers.
    pub fn is_empty(&self) -> bool {
        self.subcarriers.is_empty()
    }
}

/// The flat `(q_phi, q_psi)` of [`BeamformingFeedback::from_cfr`] for a
/// fixed M: every tone of `cfr` (M×N each) through the stack-array bodies
/// of Eq. (3) and Algorithm 1, then Eq. (8).
fn quantized_angles<const M: usize>(
    cfr: &[CMatrix],
    mimo: MimoConfig,
    cb: Codebook,
) -> (Vec<u16>, Vec<u16>) {
    let (n, n_ss) = (mimo.n_rx(), mimo.n_ss());
    let count = GivensAngles::expected_count(M, n_ss);
    let mut q_phi = Vec::with_capacity(cfr.len() * count);
    let mut q_psi = Vec::with_capacity(cfr.len() * count);
    let mut h_t = [[C64::ZERO; M]; MAX_M];
    for h_k in cfr {
        assert_eq!(h_k.shape(), (M, n), "CFR shape must be M×N");
        // H_kᵀ (N×M), whose right singular vectors give V_k.
        for (k, row) in h_t[..n].iter_mut().enumerate() {
            for (c, x) in row.iter_mut().enumerate() {
                *x = h_k[(c, k)];
            }
        }
        let v = right_singular_vectors_array(&h_t[..n]);
        let dec = decompose_array(&v, n_ss);
        q_phi.extend(dec.phi().iter().map(|&a| quantize_phi(a, cb)));
        q_psi.extend(dec.psi().iter().map(|&a| quantize_psi(a, cb)));
    }
    (q_phi, q_psi)
}

/// The beamforming matrix Ṽ stacked over subcarriers: the paper's
/// `K × M × N_SS` tensor, stored as one M×N_SS matrix per subcarrier.
#[derive(Debug, Clone, PartialEq)]
pub struct VSeries {
    /// Sounded subcarrier indices (ascending).
    pub subcarriers: Vec<i32>,
    /// `v[j]` is the M×N_SS beamforming matrix of subcarrier
    /// `subcarriers[j]`.
    pub v: Vec<CMatrix>,
}

impl VSeries {
    /// Computes the **unquantized** Ṽ series straight from the CFR — the
    /// reference used to measure quantization error (Fig. 13).
    pub fn exact_from_cfr(cfr: &[CMatrix], subcarriers: &[i32], mimo: MimoConfig) -> Self {
        assert_eq!(cfr.len(), subcarriers.len());
        let v = cfr
            .iter()
            .map(|h_k| {
                let vk = beamforming_matrix(h_k, mimo.n_ss());
                let dec = decompose(&vk);
                v_from_angles(&dec.angles, mimo.m_tx(), mimo.n_ss())
            })
            .collect();
        VSeries {
            subcarriers: subcarriers.to_vec(),
            v,
        }
    }

    /// Number of subcarriers.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Returns `true` when the series is empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// The per-subcarrier series of one Ṽ element `[Ṽ]_{row,col}`
    /// (0-based), e.g. for the Fig. 14 time-evolution plots.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty or the element is out of range.
    pub fn element_series(&self, row: usize, col: usize) -> Vec<C64> {
        assert!(!self.v.is_empty(), "empty series");
        self.v.iter().map(|m| m[(row, col)]).collect()
    }

    /// Mean element-wise reconstruction error vs. a reference series:
    /// `mean_j |[Ṽ]_{row,col}(j) − [Ṽref]_{row,col}(j)|`.
    ///
    /// # Panics
    ///
    /// Panics if the two series have different lengths.
    pub fn element_error(&self, reference: &VSeries, row: usize, col: usize) -> f64 {
        assert_eq!(self.len(), reference.len(), "series length mismatch");
        let n = self.len().max(1);
        self.v
            .iter()
            .zip(reference.v.iter())
            .map(|(a, b)| (a[(row, col)] - b[(row, col)]).abs())
            .sum::<f64>()
            / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize;

    fn random_cfr(seed: u64, n_sc: usize, m: usize, n: usize) -> Vec<CMatrix> {
        // Small deterministic pseudo-random CFR series (xorshift).
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n_sc)
            .map(|_| CMatrix::from_fn(m, n, |_, _| C64::new(next(), next())))
            .collect()
    }

    #[test]
    fn from_cfr_builds_one_angle_set_per_subcarrier() {
        let mimo = MimoConfig::paper_default();
        let sc: Vec<i32> = (0..8).collect();
        let cfr = random_cfr(7, 8, 3, 2);
        let fb = BeamformingFeedback::from_cfr(&cfr, &sc, mimo, Codebook::MU_HIGH);
        assert_eq!(fb.len(), 8);
        assert!(!fb.is_empty());
        assert!(fb.is_consistent());
        assert_eq!(fb.q_phi.len(), 8 * 3);
        for j in 0..8 {
            let (q_phi, q_psi) = fb.angles_at(j);
            assert_eq!(q_phi.len(), 3);
            assert_eq!(q_psi.len(), 3);
        }
    }

    #[test]
    fn flat_storage_keeps_per_subcarrier_order() {
        let mimo = MimoConfig::paper_default();
        let cfr = random_cfr(11, 5, 3, 2);
        let sc: Vec<i32> = (0..5).collect();
        let sets: Vec<QuantizedAngles> = cfr
            .iter()
            .map(|h| {
                quantize(
                    &decompose(&beamforming_matrix(h, 2)).angles,
                    Codebook::MU_LOW,
                )
            })
            .collect();
        let fb = BeamformingFeedback::from_cfr(&cfr, &sc, mimo, Codebook::MU_LOW);
        assert_eq!(
            fb,
            BeamformingFeedback::from_angles(mimo, Codebook::MU_LOW, sc, &sets)
        );
        for (j, q) in sets.iter().enumerate() {
            assert_eq!(fb.angles_at(j), (&q.q_phi[..], &q.q_psi[..]));
        }
    }

    #[test]
    #[should_panic(expected = "angle set dimensions disagree")]
    fn from_angles_rejects_foreign_dimensions() {
        let q = QuantizedAngles {
            m: 2,
            n_ss: 1,
            q_phi: vec![0],
            q_psi: vec![0],
        };
        let _ = BeamformingFeedback::from_angles(
            MimoConfig::paper_default(),
            Codebook::MU_HIGH,
            vec![0],
            &[q],
        );
    }

    #[test]
    fn reconstruction_close_to_exact() {
        let mimo = MimoConfig::paper_default();
        let sc: Vec<i32> = (0..16).collect();
        let cfr = random_cfr(42, 16, 3, 2);
        let fb = BeamformingFeedback::from_cfr(&cfr, &sc, mimo, Codebook::MU_HIGH);
        let quantized = fb.reconstruct();
        let exact = VSeries::exact_from_cfr(&cfr, &sc, mimo);
        // At (bψ=7, bφ=9) quantization the element error is small (Fig. 13b
        // shows it concentrated below 1e-2).
        for row in 0..3 {
            for col in 0..2 {
                let e = quantized.element_error(&exact, row, col);
                assert!(e < 0.05, "element ({row},{col}) error {e}");
            }
        }
    }

    #[test]
    fn stream1_reconstruction_error_exceeds_stream0() {
        // The recursive structure of Algorithm 1 propagates quantization
        // error into higher-order columns (Fig. 13): averaged over the
        // matrix rows, column 1 must reconstruct worse than column 0.
        let mimo = MimoConfig::paper_default();
        let sc: Vec<i32> = (0..64).collect();
        let cfr = random_cfr(1234, 64, 3, 2);
        let fb = BeamformingFeedback::from_cfr(&cfr, &sc, mimo, Codebook::MU_LOW);
        let quantized = fb.reconstruct();
        let exact = VSeries::exact_from_cfr(&cfr, &sc, mimo);
        let err_col0: f64 = (0..3).map(|r| quantized.element_error(&exact, r, 0)).sum();
        let err_col1: f64 = (0..3).map(|r| quantized.element_error(&exact, r, 1)).sum();
        assert!(
            err_col1 > err_col0,
            "stream-1 error {err_col1} ≤ stream-0 error {err_col0}"
        );
    }

    #[test]
    fn element_series_extracts_the_right_entry() {
        let mimo = MimoConfig::paper_default();
        let sc: Vec<i32> = (0..4).collect();
        let cfr = random_cfr(5, 4, 3, 2);
        let series = VSeries::exact_from_cfr(&cfr, &sc, mimo);
        let e = series.element_series(2, 0);
        assert_eq!(e.len(), 4);
        for (j, z) in e.iter().enumerate() {
            assert_eq!(*z, series.v[j][(2, 0)]);
        }
    }

    #[test]
    #[should_panic(expected = "one CFR matrix per subcarrier")]
    fn mismatched_lengths_panic() {
        let mimo = MimoConfig::paper_default();
        let cfr = random_cfr(5, 4, 3, 2);
        let _ = BeamformingFeedback::from_cfr(&cfr, &[0, 1], mimo, Codebook::MU_HIGH);
    }

    #[test]
    fn empty_feedback_reports_empty() {
        let fb = BeamformingFeedback::from_angles(
            MimoConfig::paper_default(),
            Codebook::MU_HIGH,
            vec![],
            &[],
        );
        assert!(fb.is_empty());
        assert!(fb.reconstruct().is_empty());
    }
}
