//! The trace-generation engine shared by the D1 and D2 generators.

use crate::trace::{Trace, TraceKind};
use deepcsi_bfi::BeamformingFeedback;
use deepcsi_channel::{
    AntennaArray, ChannelModel, ChannelSounder, Environment, MobilityPath, PersonMotion,
    SounderConfig,
};
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_impair::{
    apply_impairments, ChainResponses, DeviceId, ImpairmentProfile, LinkState, RadioFingerprint,
};
use deepcsi_phy::{Codebook, MimoConfig, SubcarrierLayout};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the synthetic data-collection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Environment (room) id; the paper uses two rooms with the same
    /// layout.
    pub env_id: u64,
    /// Soundings recorded per trace (the 2-minute traces of the paper are
    /// sub-sampled to keep synthetic datasets laptop-sized).
    pub snapshots_per_trace: usize,
    /// Hardware-impairment magnitudes.
    pub profile: ImpairmentProfile,
    /// Feedback quantization codebook (the paper's AP uses bφ=9, bψ=7).
    pub codebook: Codebook,
    /// Route every feedback through a VHT frame encode→capture→parse
    /// round-trip, exercising the `deepcsi-frame` codec as a real monitor
    /// would.
    pub via_frames: bool,
    /// Number of AP modules to fingerprint (the paper has 10).
    pub num_modules: u32,
    /// Days since the fingerprint was profiled: ages every AP module's
    /// hardware fingerprint through [`RadioFingerprint::drifted`]
    /// (temperature/aging offsets re-sampled per day). `0` with
    /// [`GenConfig::drift_scale`] `0.0` is a bit-exact identity, so
    /// existing datasets are unchanged.
    pub drift_day: u32,
    /// Magnitude of the per-day drift (`0.0` = none; `1.0` = the full
    /// calibrated drift model).
    pub drift_scale: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            env_id: 0,
            snapshots_per_trace: 120,
            profile: ImpairmentProfile::default(),
            codebook: Codebook::MU_HIGH,
            via_frames: false,
            num_modules: 10,
            drift_day: 0,
            drift_scale: 0.0,
        }
    }
}

/// Full specification of one trace to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// AP module under test.
    pub module: DeviceId,
    /// Beamformee id (1 or 2).
    pub beamformee: u8,
    /// Beamformee antenna/stream count (N = N_SS): 2 for D1; per §IV-A,
    /// 1 for beamformee 1 and 2 for beamformee 2 in D2.
    pub n_rx: usize,
    /// Beamformee position index 1..=9 (Fig. 6).
    pub rx_position: usize,
    /// Trace kind (also selects static vs. mobility generation).
    pub kind: TraceKind,
}

/// Stable per-trace seed derived from the trace coordinates.
fn trace_seed(cfg: &GenConfig, spec: &TraceSpec) -> u64 {
    let kind_tag: u64 = match spec.kind {
        TraceKind::D1Static { position } => 0x1000 + position as u64,
        TraceKind::D2Fixed { group, idx } => 0x2000 + group as u64 * 16 + idx as u64,
        TraceKind::D2Mobility { group, idx } => 0x3000 + group as u64 * 16 + idx as u64,
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        cfg.env_id,
        spec.module.0 as u64,
        spec.beamformee as u64,
        spec.n_rx as u64,
        spec.rx_position as u64,
        kind_tag,
    ] {
        h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Generates one trace end-to-end through the full pipeline:
/// channel → impairments → V → angles → quantization → (frames) →
/// captured feedback.
pub fn generate_trace(cfg: &GenConfig, spec: &TraceSpec) -> Trace {
    let env = Environment::fig6(cfg.env_id);
    let layout = SubcarrierLayout::vht80();
    let tones = layout.indices().to_vec();
    let model = ChannelModel::new(&env, layout);
    let seed = trace_seed(cfg, spec);

    let m_tx = 3; // the paper's AP sounds with M = 3 antennas
    let mimo = MimoConfig::new(m_tx, spec.n_rx, spec.n_rx).expect("valid MIMO dims");
    let tx_fp = RadioFingerprint::generate(spec.module, m_tx, &cfg.profile)
        .drifted(cfg.drift_day, cfg.drift_scale);
    let rx_fp = RadioFingerprint::generate_rx(spec.beamformee as u64, spec.n_rx, &cfg.profile);

    let spacing = env.half_wavelength();
    let tx_array = AntennaArray::new(env.ap_home(), 0.0, spacing, m_tx);
    let rx_pos = if spec.beamformee == 1 {
        env.beamformee1_position(spec.rx_position)
    } else {
        env.beamformee2_position(spec.rx_position)
    };
    let rx_array = AntennaArray::new(rx_pos, 0.0, spacing, spec.n_rx);

    let sounder_cfg = SounderConfig {
        interval_s: 0.6,
        snapshots: cfg.snapshots_per_trace,
    };
    let mut sounder = ChannelSounder::new(model, tx_array, rx_array, sounder_cfg, seed);
    if let TraceKind::D2Mobility { .. } = spec.kind {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B11E);
        let path = MobilityPath::abcdba(&env, &mut rng);
        let person = PersonMotion::new(&mut rng);
        sounder = sounder.with_mobility(path, person);
    }

    let mut link = LinkState::new(&tx_fp, seed ^ 0x71ACE).with_pa_flips(cfg.profile.pa_flip_prob);
    // The chain responses depend only on the radios and the tone.
    let chains = ChainResponses::new(&tones, &tx_fp, &rx_fp);
    let mut timestamps = Vec::with_capacity(cfg.snapshots_per_trace);
    let mut snapshots = Vec::with_capacity(cfg.snapshots_per_trace);
    let mut seq: u16 = 0;
    for (t, cfr) in sounder {
        let impaired = apply_impairments(&cfr, &chains, &cfg.profile, &mut link);
        let fb = BeamformingFeedback::from_cfr(&impaired, &tones, mimo, cfg.codebook);
        let fb = if cfg.via_frames {
            // Encode → sniff → parse: the observer's actual data path.
            let frame = BeamformingReportFrame::new(
                MacAddr::station(1000 + spec.module.0 as u64),
                MacAddr::station(spec.beamformee as u64),
                MacAddr::station(1000 + spec.module.0 as u64),
                seq,
                fb,
            );
            seq = seq.wrapping_add(1);
            BeamformingReportFrame::parse(&frame.encode())
                .expect("self-encoded frame must parse")
                .into_feedback()
        } else {
            fb
        };
        timestamps.push(t);
        snapshots.push(fb);
    }

    Trace {
        module: spec.module,
        beamformee: spec.beamformee,
        env_id: cfg.env_id,
        kind: spec.kind,
        timestamps,
        snapshots,
    }
}

/// Generates a batch of traces in parallel across worker threads.
pub(crate) fn generate_traces(cfg: &GenConfig, specs: &[TraceSpec]) -> Vec<Trace> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16);
    if threads <= 1 || specs.len() < 2 {
        return specs.iter().map(|s| generate_trace(cfg, s)).collect();
    }
    let chunk = specs.len().div_ceil(threads);
    let nested: Vec<Vec<Trace>> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .chunks(chunk)
            .map(|shard| {
                scope.spawn(move || shard.iter().map(|s| generate_trace(cfg, s)).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generation worker panicked"))
            .collect()
    });
    nested.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> GenConfig {
        GenConfig {
            snapshots_per_trace: 4,
            ..GenConfig::default()
        }
    }

    fn spec() -> TraceSpec {
        TraceSpec {
            module: DeviceId(0),
            beamformee: 1,
            n_rx: 2,
            rx_position: 3,
            kind: TraceKind::D1Static { position: 3 },
        }
    }

    #[test]
    fn trace_has_requested_snapshots() {
        let t = generate_trace(&tiny_cfg(), &spec());
        assert_eq!(t.len(), 4);
        assert_eq!(t.timestamps.len(), 4);
        for fb in &t.snapshots {
            assert_eq!(fb.len(), 234);
            assert_eq!(fb.mimo.m_tx(), 3);
            assert_eq!(fb.mimo.n_ss(), 2);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_trace(&tiny_cfg(), &spec());
        let b = generate_trace(&tiny_cfg(), &spec());
        assert_eq!(a, b);
    }

    #[test]
    fn frames_roundtrip_is_lossless() {
        let mut cfg = tiny_cfg();
        let direct = generate_trace(&cfg, &spec());
        cfg.via_frames = true;
        let via = generate_trace(&cfg, &spec());
        // The frame codec must be transparent: identical angles.
        for (a, b) in direct.snapshots.iter().zip(via.snapshots.iter()) {
            assert_eq!((&a.q_phi, &a.q_psi), (&b.q_phi, &b.q_psi));
        }
    }

    #[test]
    fn different_modules_differ() {
        let a = generate_trace(&tiny_cfg(), &spec());
        let mut s2 = spec();
        s2.module = DeviceId(5);
        let b = generate_trace(&tiny_cfg(), &s2);
        assert_ne!(
            (&a.snapshots[0].q_phi, &a.snapshots[0].q_psi),
            (&b.snapshots[0].q_phi, &b.snapshots[0].q_psi)
        );
    }

    #[test]
    fn mobility_trace_spans_the_path() {
        let mut s = spec();
        s.kind = TraceKind::D2Mobility { group: 1, idx: 0 };
        let cfg = GenConfig {
            snapshots_per_trace: 6,
            ..GenConfig::default()
        };
        let t = generate_trace(&cfg, &s);
        assert_eq!(t.len(), 6);
        // Timestamps spread over the ≈19 s traversal rather than the
        // static 0.6 s interval.
        assert!(t.timestamps.last().unwrap() > &10.0);
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let cfg = tiny_cfg();
        let specs = vec![
            spec(),
            TraceSpec {
                module: DeviceId(1),
                ..spec()
            },
            TraceSpec {
                module: DeviceId(2),
                ..spec()
            },
        ];
        let par = generate_traces(&cfg, &specs);
        let ser: Vec<Trace> = specs.iter().map(|s| generate_trace(&cfg, s)).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn zero_drift_is_an_identity() {
        let base = generate_trace(&tiny_cfg(), &spec());
        let cfg = GenConfig {
            drift_day: 0,
            drift_scale: 0.0,
            ..tiny_cfg()
        };
        assert_eq!(base, generate_trace(&cfg, &spec()));
    }

    #[test]
    fn drifted_days_change_the_capture_but_not_its_shape() {
        let base = generate_trace(&tiny_cfg(), &spec());
        let cfg = GenConfig {
            drift_day: 30,
            drift_scale: 0.3,
            ..tiny_cfg()
        };
        let aged = generate_trace(&cfg, &spec());
        assert_eq!(aged.len(), base.len());
        assert_ne!(
            (&aged.snapshots[0].q_phi, &aged.snapshots[0].q_psi),
            (&base.snapshots[0].q_phi, &base.snapshots[0].q_psi),
            "a month of drift must perturb the captured angles"
        );
    }

    #[test]
    fn single_stream_beamformee() {
        let s = TraceSpec {
            n_rx: 1,
            kind: TraceKind::D2Fixed { group: 1, idx: 0 },
            ..spec()
        };
        let t = generate_trace(&tiny_cfg(), &s);
        assert_eq!(t.snapshots[0].mimo.n_ss(), 1);
        assert_eq!(t.snapshots[0].angles_at(0).0.len(), 2); // φ11 φ21
    }
}
