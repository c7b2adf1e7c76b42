//! Anatomy of a compressed beamforming feedback: walks one sounding
//! through every stage of §III — CFR → V → Givens angles → quantization →
//! frame bytes → parse → Ṽ — printing what each stage produces.
//!
//! A good first read to understand what the classifier actually sees.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example feedback_anatomy
//! ```

use deepcsi::bfi::{beamforming_matrix, decompose, quantize, v_from_angles, BeamformingFeedback};
use deepcsi::channel::{AntennaArray, ChannelModel, Environment};
use deepcsi::frame::{BeamformingReportFrame, MacAddr};
use deepcsi::impair::{
    apply_impairments, ChainResponses, DeviceId, ImpairmentProfile, LinkState, RadioFingerprint,
};
use deepcsi::phy::{Codebook, MimoConfig, SubcarrierLayout};
use rand::SeedableRng;

fn main() {
    // --- the link -------------------------------------------------------
    let env = Environment::fig6(0);
    let layout = SubcarrierLayout::vht80();
    let tones = layout.indices().to_vec();
    println!(
        "channel {}: K = {} sounded sub-channels",
        env.channel,
        layout.len()
    );

    let model = ChannelModel::new(&env, layout);
    let tx = AntennaArray::new(env.ap_home(), 0.0, env.half_wavelength(), 3);
    let rx = AntennaArray::new(env.beamformee1_position(1), 0.0, env.half_wavelength(), 2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // --- 1. the beamformee estimates Ĥ from the NDP ----------------------
    let profile = ImpairmentProfile::default();
    let tx_fp = RadioFingerprint::generate(DeviceId(0), 3, &profile);
    let rx_fp = RadioFingerprint::generate_rx(1, 2, &profile);
    let mut link = LinkState::new(&tx_fp, 1);
    let ideal = model.cfr(&tx, &rx, &mut rng);
    let chains = ChainResponses::new(&tones, &tx_fp, &rx_fp);
    let cfr = apply_impairments(&ideal, &chains, &profile, &mut link);
    let k_mid = 117; // a mid-band tone
    println!(
        "\nstep 1 — estimated CFR at tone {} (M×N = 3×2):",
        tones[k_mid]
    );
    println!("{:?}", cfr[k_mid]);

    // --- 2. V_k via SVD (Eq. (3)) ----------------------------------------
    let v = beamforming_matrix(&cfr[k_mid], 2);
    println!("step 2 — beamforming matrix V_k (first 2 right singular vectors):");
    println!("{v:?}");

    // --- 3. Algorithm 1: Givens angles -----------------------------------
    let dec = decompose(&v);
    println!("step 3 — feedback angles (φ in [0,2π), ψ in [0,π/2]):");
    println!(
        "  φ = {:?}",
        dec.angles
            .phi
            .iter()
            .map(|a| format!("{a:.4}"))
            .collect::<Vec<_>>()
    );
    println!(
        "  ψ = {:?}",
        dec.angles
            .psi
            .iter()
            .map(|a| format!("{a:.4}"))
            .collect::<Vec<_>>()
    );

    // --- 4. quantization (Eq. (8)) ----------------------------------------
    let cb = Codebook::MU_HIGH;
    let q = quantize(&dec.angles, cb);
    println!(
        "step 4 — quantized with {cb}: qφ = {:?}, qψ = {:?}",
        q.q_phi, q.q_psi
    );

    // --- 5. the frame on the air ------------------------------------------
    let mimo = MimoConfig::paper_default();
    let fb = BeamformingFeedback::from_cfr(&cfr, &tones, mimo, cb);
    let frame = BeamformingReportFrame::new(
        MacAddr::station(99),
        MacAddr::station(1),
        MacAddr::station(99),
        42,
        fb,
    );
    let bytes = frame.encode();
    println!(
        "step 5 — VHT Compressed Beamforming frame: {} bytes ({} tones × {} angle bits + headers)",
        bytes.len(),
        tones.len(),
        cb.bits_per_subcarrier(mimo.num_angle_pairs()),
    );
    println!("  first 32 bytes: {:02x?}", &bytes[..32]);

    // --- 6. the observer parses and rebuilds Ṽ (Eq. (7)) ------------------
    let parsed = BeamformingReportFrame::parse(&bytes).expect("parse own frame");
    println!(
        "step 6 — parsed: source {}, {} sub-channels, codebook {}",
        parsed.source(),
        parsed.feedback().len(),
        parsed.feedback().codebook,
    );
    let series = parsed.feedback().reconstruct();
    println!("  reconstructed Ṽ at tone {}:", tones[k_mid]);
    println!("{:?}", series.v[k_mid]);
    let exact = v_from_angles(&dec.angles, 3, 2);
    println!(
        "  ‖Ṽ_quantized − Ṽ_exact‖∞ = {:.2e} (the Fig. 13 quantization error)",
        exact.max_abs_diff(&series.v[k_mid])
    );
}
