//! Scientific invariants the reproduction relies on — checked end to end
//! at small scale so regressions in any substrate surface here.

use deepcsi::bfi::{beamforming_matrix, decompose, v_from_angles, BeamformingFeedback, VSeries};
use deepcsi::channel::{AntennaArray, ChannelModel, Environment};
use deepcsi::data::clean_phase_offsets;
use deepcsi::impair::{
    apply_impairments, DeviceId, ImpairmentProfile, LinkState, RadioFingerprint,
};
use deepcsi::linalg::{CMatrix, C64};
use deepcsi::phy::{Codebook, MimoConfig, SubcarrierLayout};
use rand::SeedableRng;

fn small_cfr() -> (Vec<CMatrix>, Vec<i32>) {
    let env = Environment::fig6(0);
    let layout = SubcarrierLayout::vht20();
    let tones = layout.indices().to_vec();
    let model = ChannelModel::new(&env, layout);
    let tx = AntennaArray::new(env.ap_home(), 0.0, env.half_wavelength(), 3);
    let rx = AntennaArray::new(env.beamformee1_position(2), 0.0, env.half_wavelength(), 2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    (model.cfr(&tx, &rx, &mut rng), tones)
}

/// §II-A: Ṽ must be invariant to phases that are *common across TX
/// antennas* (CFO/PPO/SFO-like terms) — the reason the feedback is a
/// robust fingerprint carrier.
#[test]
fn v_tilde_cancels_common_phase_offsets() {
    let (cfr, _) = small_cfr();
    let h = &cfr[10];
    let v_ref = {
        let v = beamforming_matrix(h, 2);
        let d = decompose(&v);
        v_from_angles(&d.angles, 3, 2)
    };
    // Multiply the whole CFR matrix by an arbitrary unit phase.
    let rotated = h.scale(C64::cis(1.234));
    let v_rot = {
        let v = beamforming_matrix(&rotated, 2);
        let d = decompose(&v);
        v_from_angles(&d.angles, 3, 2)
    };
    assert!(
        v_ref.max_abs_diff(&v_rot) < 1e-9,
        "common phase leaked into Ṽ: {}",
        v_ref.max_abs_diff(&v_rot)
    );
}

/// Paper §I: per-TX-chain phases DO percolate into Ṽ — remove
/// them and Ṽ changes. This is the fingerprint mechanism itself.
#[test]
fn v_tilde_exposes_per_chain_phases() {
    let (cfr, _) = small_cfr();
    let h = &cfr[10];
    let canonical = |m: &CMatrix| {
        let v = beamforming_matrix(m, 2);
        let d = decompose(&v);
        v_from_angles(&d.angles, 3, 2)
    };
    let v_ref = canonical(h);
    // Apply a chain-dependent phase (like a chain-delay mismatch would).
    let t = CMatrix::diag(&[C64::cis(0.3), C64::cis(-0.2), C64::cis(0.7)]);
    let v_imp = canonical(&t.matmul(h));
    assert!(
        v_ref.max_abs_diff(&v_imp) > 1e-3,
        "per-chain phases failed to percolate into Ṽ"
    );
}

/// Fig. 13's mechanism: with the coarse MU codebook the stream-2 column
/// reconstructs worse than stream-1, averaged over a real channel.
#[test]
fn quantization_error_grows_with_stream_order() {
    let (cfr, tones) = small_cfr();
    let mimo = MimoConfig::paper_default();
    let exact = VSeries::exact_from_cfr(&cfr, &tones, mimo);
    let quant = BeamformingFeedback::from_cfr(&cfr, &tones, mimo, Codebook::MU_LOW).reconstruct();
    let col_err = |c: usize| -> f64 {
        (0..3)
            .map(|m| quant.element_error(&exact, m, c))
            .sum::<f64>()
            / 3.0
    };
    assert!(
        col_err(1) > col_err(0),
        "stream-2 error {} not above stream-1 {}",
        col_err(1),
        col_err(0)
    );
}

/// The finer standard codebook must reconstruct Ṽ strictly better.
#[test]
fn finer_codebook_reduces_reconstruction_error() {
    let (cfr, tones) = small_cfr();
    let mimo = MimoConfig::paper_default();
    let exact = VSeries::exact_from_cfr(&cfr, &tones, mimo);
    let err = |cb: Codebook| -> f64 {
        let q = BeamformingFeedback::from_cfr(&cfr, &tones, mimo, cb).reconstruct();
        (0..3)
            .flat_map(|m| (0..2).map(move |s| (m, s)))
            .map(|(m, s)| q.element_error(&exact, m, s))
            .sum()
    };
    let coarse = err(Codebook::MU_LOW);
    let fine = err(Codebook::MU_HIGH);
    assert!(
        fine < coarse / 2.0,
        "(9,7) error {fine} not well below (7,5) error {coarse}"
    );
}

/// Fig. 16's mechanism: offset cleaning must measurably shrink the
/// between-device distance in Ṽ space (it removes fingerprint).
#[test]
fn cleaning_reduces_device_separation() {
    let (cfr, tones) = small_cfr();
    let profile = ImpairmentProfile::default();
    let rx = RadioFingerprint::generate_rx(1, 2, &profile);
    let mimo = MimoConfig::paper_default();
    let series_for = |module: u32, clean: bool| -> VSeries {
        let tx = RadioFingerprint::generate(DeviceId(module), 3, &profile);
        // Noise-free so the comparison isolates the fingerprint terms.
        let quiet = ImpairmentProfile {
            snr_db: 200.0,
            phase_noise_std_rad: 0.0,
            ..profile
        };
        let mut link = LinkState::new(&tx, 5);
        let impaired = apply_impairments(&cfr, &tones, &tx, &rx, &quiet, &mut link);
        let fb = BeamformingFeedback::from_cfr(&impaired, &tones, mimo, Codebook::MU_HIGH);
        let mut s = fb.reconstruct();
        if clean {
            clean_phase_offsets(&mut s);
        }
        s
    };
    let dist = |a: &VSeries, b: &VSeries| -> f64 {
        a.v.iter()
            .zip(b.v.iter())
            .map(|(x, y)| x.sub(y).fro_norm())
            .sum::<f64>()
    };
    let raw = dist(&series_for(0, false), &series_for(1, false));
    let cleaned = dist(&series_for(0, true), &series_for(1, true));
    assert!(
        cleaned < raw,
        "cleaning did not reduce device separation: raw {raw}, cleaned {cleaned}"
    );
}

/// Beam-pattern diversity: Ṽ must change measurably between beamformee
/// positions (what makes S2/S3 hard and training diversity valuable).
#[test]
fn v_tilde_depends_on_beamformee_position() {
    let env = Environment::fig6(0);
    let layout = SubcarrierLayout::vht20();
    let tones = layout.indices().to_vec();
    let model = ChannelModel::new(&env, layout.clone());
    let tx = AntennaArray::new(env.ap_home(), 0.0, env.half_wavelength(), 3);
    let mimo = MimoConfig::paper_default();
    let series_at = |pos: usize| -> VSeries {
        let rx = AntennaArray::new(env.beamformee1_position(pos), 0.0, env.half_wavelength(), 2);
        let cfr = model.cfr_with_scatterers(&tx, &rx, &env.scatterers);
        VSeries::exact_from_cfr(&cfr, &tones, mimo)
    };
    let a = series_at(1);
    let b = series_at(9);
    let d: f64 =
        a.v.iter()
            .zip(b.v.iter())
            .map(|(x, y)| x.sub(y).fro_norm())
            .sum::<f64>()
            / a.len() as f64;
    assert!(d > 0.05, "position change barely moved Ṽ: {d}");
}
