//! Per-packet phase offsets (the paper's Eq. (9)) and per-link state.

use crate::fingerprint::RadioFingerprint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The phase-offset terms of one captured packet, per Eq. (9):
///
/// ```text
/// θ_offs,k,m,n = θ_CFO − 2πk(τ_SFO + τ_PDD)/T + θ_PPO + θ_PA,m
/// ```
///
/// `θ_PA` is the per-TX-chain phase ambiguity (multiples of π); the other
/// terms are common across antennas for a given tone and therefore cancel
/// in the Givens canonical form of `Ṽ` — they matter for CSI-domain
/// baselines, not for DeepCSI, which is exactly the paper's point.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketOffsets {
    /// Residual carrier-frequency-offset phase \[rad\].
    pub theta_cfo: f64,
    /// Sampling-frequency-offset delay \[s\].
    pub tau_sfo: f64,
    /// Packet-detection delay \[s\].
    pub tau_pdd: f64,
    /// Phase-locked-loop offset \[rad\].
    pub theta_ppo: f64,
    /// Per-TX-chain phase ambiguity, each 0 or π \[rad\].
    pub theta_pa: Vec<f64>,
    /// Per-TX-chain small phase noise of this packet \[rad\].
    pub phase_noise: Vec<f64>,
    /// This packet's estimation SNR \[dB\].
    pub snr_db: f64,
}

/// Per-link, per-trace state: the RNG stream that produces per-packet
/// nuisance values and the device's oscillator anchors.
///
/// Create one `LinkState` per captured trace; call
/// [`LinkState::next_packet`] once per sounding.
#[derive(Debug)]
pub struct LinkState {
    rng: StdRng,
    pa: Vec<f64>,
    cfo_anchor_hz: f64,
    sfo_anchor_s_per_s: f64,
    packet_count: u64,
}

/// Carrier frequency used to convert ppm to Hz; the exact value only
/// scales the (cancelling) common CFO term.
const FC_HZ: f64 = 5.21e9;

impl LinkState {
    /// Initialises the state for one trace of transmissions from the
    /// device with fingerprint `tx`.
    ///
    /// By default `θ_PA = 0` for every chain: a DL MU-MIMO beamformer
    /// keeps its TX chains phase-coherent through self-calibration
    /// (otherwise its steering matrices would be useless), so the PLL
    /// π-ambiguity of Eq. (9) is resolved on the chains that matter here.
    /// Use [`LinkState::with_pa_flips`] to model an uncalibrated radio.
    pub fn new(tx: &RadioFingerprint, trace_seed: u64) -> Self {
        LinkState {
            rng: StdRng::seed_from_u64(0x0FF5_E750_u64 ^ trace_seed),
            pa: vec![0.0; tx.num_chains()],
            cfo_anchor_hz: tx.cfo_ppm() * 1e-6 * FC_HZ,
            sfo_anchor_s_per_s: tx.sfo_ppm() * 1e-6,
            packet_count: 0,
        }
    }

    /// Draws a per-trace π-ambiguity pattern: each chain independently
    /// flips with probability `prob` (an ablation knob; Eq. (9)'s
    /// `θ_PA`).
    pub fn with_pa_flips(mut self, prob: f64) -> Self {
        let pa = (0..self.pa.len())
            .map(|_| {
                if prob > 0.0 && self.rng.gen_bool(prob.clamp(0.0, 1.0)) {
                    std::f64::consts::PI
                } else {
                    0.0
                }
            })
            .collect();
        self.pa = pa;
        self
    }

    /// The per-trace PA pattern in effect.
    pub fn pa(&self) -> &[f64] {
        &self.pa
    }

    /// Number of packets drawn so far.
    pub fn packet_count(&self) -> u64 {
        self.packet_count
    }

    /// Draws the offsets of the next packet given the link's nominal SNR.
    pub fn next_packet(
        &mut self,
        snr_db: f64,
        snr_jitter_db: f64,
        phase_noise_std: f64,
    ) -> PacketOffsets {
        self.packet_count += 1;
        let n_chains = self.pa.len();
        let pa = self.pa.clone();
        // Residual CFO phase after receiver correction: the correction
        // leaves a fraction of a cycle, uniformly distributed.
        let theta_cfo = self
            .rng
            .gen_range(-std::f64::consts::PI..std::f64::consts::PI)
            * (self.cfo_anchor_hz.abs() / (self.cfo_anchor_hz.abs() + 1e4)).min(1.0);
        // SFO accumulates over the symbol; PDD is a few sample periods.
        let tau_sfo = self.sfo_anchor_s_per_s * 4e-6 * (1.0 + 0.1 * self.gaussian());
        let tau_pdd = 12.5e-9 * self.rng.gen_range(0.0..4.0);
        let theta_ppo = self
            .rng
            .gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let phase_noise = (0..n_chains)
            .map(|_| self.gaussian() * phase_noise_std)
            .collect();
        PacketOffsets {
            theta_cfo,
            tau_sfo,
            tau_pdd,
            theta_ppo,
            theta_pa: pa,
            phase_noise,
            snr_db: snr_db + self.gaussian() * snr_jitter_db,
        }
    }

    /// Gaussian sample (Box–Muller).
    pub(crate) fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{DeviceId, ImpairmentProfile, RadioFingerprint};

    fn tx() -> RadioFingerprint {
        RadioFingerprint::generate(DeviceId(0), 3, &ImpairmentProfile::default())
    }

    #[test]
    fn pa_defaults_to_calibrated_chains() {
        let mut link = LinkState::new(&tx(), 1);
        for _ in 0..5 {
            let o = link.next_packet(28.0, 1.0, 0.02);
            assert!(o.theta_pa.iter().all(|&p| p == 0.0));
        }
        assert_eq!(link.packet_count(), 5);
    }

    #[test]
    fn pa_flips_are_stable_within_a_trace_and_zero_or_pi() {
        let mut link = LinkState::new(&tx(), 3).with_pa_flips(0.5);
        let first = link.next_packet(28.0, 1.0, 0.02).theta_pa;
        for pa in &first {
            assert!(*pa == 0.0 || (*pa - std::f64::consts::PI).abs() < 1e-15);
        }
        let second = link.next_packet(28.0, 1.0, 0.02).theta_pa;
        assert_eq!(first, second);
    }

    #[test]
    fn pa_flip_patterns_vary_across_traces() {
        let patterns: std::collections::HashSet<Vec<u8>> = (0..20)
            .map(|trace| {
                LinkState::new(&tx(), trace)
                    .with_pa_flips(0.5)
                    .pa()
                    .iter()
                    .map(|&p| (p > 1.0) as u8)
                    .collect()
            })
            .collect();
        assert!(patterns.len() > 1);
    }

    #[test]
    fn per_packet_values_vary() {
        let mut link = LinkState::new(&tx(), 5);
        let a = link.next_packet(28.0, 1.0, 0.02);
        let b = link.next_packet(28.0, 1.0, 0.02);
        assert_ne!(a.theta_ppo, b.theta_ppo);
        assert_ne!(a.tau_pdd, b.tau_pdd);
        assert_ne!(a.snr_db, b.snr_db);
    }

    #[test]
    fn offsets_are_physically_plausible() {
        let mut link = LinkState::new(&tx(), 5);
        for _ in 0..100 {
            let o = link.next_packet(28.0, 1.5, 0.02);
            assert!(o.tau_pdd >= 0.0 && o.tau_pdd < 51e-9, "PDD {}", o.tau_pdd);
            assert!(o.tau_sfo.abs() < 1e-9, "SFO delay {}", o.tau_sfo);
            assert!(o.theta_ppo.abs() <= std::f64::consts::PI);
            assert!((o.snr_db - 28.0).abs() < 10.0);
            assert_eq!(o.phase_noise.len(), 3);
        }
    }

    #[test]
    fn deterministic_per_trace_seed() {
        let mut a = LinkState::new(&tx(), 9);
        let mut b = LinkState::new(&tx(), 9);
        assert_eq!(a.next_packet(28.0, 1.0, 0.0), b.next_packet(28.0, 1.0, 0.0));
    }
}
