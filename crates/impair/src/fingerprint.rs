//! Whole-device fingerprints and their magnitude profile.

use crate::chain::ChainResponse;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of one of the interchangeable Wi-Fi modules (the paper's 10
/// Compex WLE1216v5-23 boards). Deterministically seeds the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "module{}", self.0)
    }
}

/// Magnitude scales of the impairment model — the calibration knobs the
/// `calibrate` bench binary sweeps. Defaults reflect typical consumer
/// Wi-Fi front-ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairmentProfile {
    /// Scales every device-distinguishing magnitude at once (1.0 =
    /// calibrated default). Used in ablations.
    pub fingerprint_strength: f64,
    /// Std-dev of per-chain flat gain mismatch \[dB\].
    pub gain_std_db: f64,
    /// Std-dev of per-chain group-delay mismatch \[s\].
    pub delay_std_s: f64,
    /// Std-dev of per-chain phase intercept \[rad\].
    pub phase_std_rad: f64,
    /// Peak per-chain amplitude ripple \[dB\].
    pub amp_ripple_db: f64,
    /// Peak per-chain phase ripple \[rad\].
    pub phase_ripple_rad: f64,
    /// Std-dev of I/Q amplitude imbalance (linear, ≈ dB/8.7).
    pub iq_gain_std: f64,
    /// Std-dev of I/Q phase skew \[rad\].
    pub iq_phase_std: f64,
    /// Device oscillator offset std \[ppm\] (CFO/SFO source).
    pub osc_ppm_std: f64,
    /// Mean CFR-estimation SNR at the beamformee \[dB\].
    pub snr_db: f64,
    /// Per-packet SNR jitter \[dB\].
    pub snr_jitter_db: f64,
    /// Per-packet, per-chain phase-noise std \[rad\].
    pub phase_noise_std_rad: f64,
    /// Probability that a TX chain's PLL π-ambiguity flips per trace
    /// (Eq. (9)'s θ_PA). Defaults to 0: a MU-MIMO beamformer self-
    /// calibrates its chains. Ablation knob for uncalibrated radios.
    pub pa_flip_prob: f64,
}

impl Default for ImpairmentProfile {
    fn default() -> Self {
        ImpairmentProfile {
            fingerprint_strength: 1.0,
            gain_std_db: 0.15,
            delay_std_s: 0.8e-9,
            phase_std_rad: 0.8,
            amp_ripple_db: 0.1,
            phase_ripple_rad: 0.03,
            iq_gain_std: 0.015,
            iq_phase_std: 0.02,
            osc_ppm_std: 4.0,
            snr_db: 20.0,
            snr_jitter_db: 1.5,
            phase_noise_std_rad: 0.02,
            pa_flip_prob: 0.0,
        }
    }
}

impl ImpairmentProfile {
    /// Returns a copy with all device-distinguishing magnitudes scaled by
    /// `strength` (SNR and per-packet nuisances unchanged).
    pub fn scaled(&self, strength: f64) -> Self {
        ImpairmentProfile {
            fingerprint_strength: strength,
            ..*self
        }
    }

    fn effective(&self) -> (f64, f64, f64, f64, f64, f64, f64) {
        let s = self.fingerprint_strength;
        (
            self.gain_std_db * s,
            self.delay_std_s * s,
            self.phase_std_rad * s,
            self.amp_ripple_db * s,
            self.phase_ripple_rad * s,
            self.iq_gain_std * s,
            self.iq_phase_std * s,
        )
    }
}

/// The stable hardware signature of one radio: per-chain frequency
/// responses, per-chain I/Q imbalance and the oscillator offset.
///
/// Used for both beamformers (TX chains, [`RadioFingerprint::generate`])
/// and beamformees (RX chains, [`RadioFingerprint::generate_rx`]); the
/// seeds are domain-separated so "module 3" the transmitter and
/// "station 3" the receiver are unrelated devices.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioFingerprint {
    chains: Vec<ChainResponse>,
    /// Complex image-leakage coefficient β per chain: the I/Q-imbalanced
    /// signal is `α·x + β·conj(x_mirror)`.
    iq_beta: Vec<(f64, f64)>,
    cfo_ppm: f64,
    sfo_ppm: f64,
}

impl RadioFingerprint {
    /// Generates the transmitter fingerprint of `device` with `num_chains`
    /// RF chains.
    pub fn generate(device: DeviceId, num_chains: usize, profile: &ImpairmentProfile) -> Self {
        let seed = 0xDEE9_C510_0000_0000u64 ^ (device.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::generate_seeded(seed, num_chains, profile)
    }

    /// Generates a receiver (beamformee) fingerprint from a station seed.
    pub fn generate_rx(station_seed: u64, num_chains: usize, profile: &ImpairmentProfile) -> Self {
        let seed = 0xBEA4_F0EE_0000_0000u64 ^ station_seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Self::generate_seeded(seed, num_chains, profile)
    }

    /// An ideal radio (no impairments) — useful as a control in tests and
    /// ablations.
    pub fn ideal(num_chains: usize) -> Self {
        RadioFingerprint {
            chains: (0..num_chains).map(|_| ChainResponse::ideal()).collect(),
            iq_beta: vec![(0.0, 0.0); num_chains],
            cfo_ppm: 0.0,
            sfo_ppm: 0.0,
        }
    }

    fn generate_seeded(seed: u64, num_chains: usize, profile: &ImpairmentProfile) -> Self {
        assert!(num_chains > 0, "a radio needs at least one chain");
        let mut rng = StdRng::seed_from_u64(seed);
        let (gain, delay, phase, amp_r, phase_r, iq_g, iq_p) = profile.effective();
        let chains = (0..num_chains)
            .map(|_| ChainResponse::generate(&mut rng, gain, delay, phase, amp_r, phase_r))
            .collect();
        let iq_beta = (0..num_chains)
            .map(|_| {
                // β ≈ (g − jθ)/2 for gain imbalance g and phase skew θ.
                let g: f64 = rng.gen_range(-1.0..1.0) * iq_g;
                let th: f64 = rng.gen_range(-1.0..1.0) * iq_p;
                (g / 2.0, -th / 2.0)
            })
            .collect();
        let ppm = profile.osc_ppm_std;
        RadioFingerprint {
            chains,
            iq_beta,
            cfo_ppm: rng.gen_range(-1.0..1.0) * ppm,
            sfo_ppm: rng.gen_range(-1.0..1.0) * ppm,
        }
    }

    /// A multi-day re-sample of this fingerprint: every chain picks up
    /// small temperature/aging offsets ([`ChainResponse::drifted`]) and
    /// the oscillator wanders a fraction of a ppm. Deterministic per
    /// `(fingerprint, day)`: day 0 with `scale` 0 is the identity
    /// re-seed, and the same day always produces the same aged radio —
    /// so a "day 3" serve set can be regenerated exactly.
    pub fn drifted(&self, day: u32, scale: f64) -> Self {
        if day == 0 && scale == 0.0 {
            return self.clone();
        }
        // Seed from the device's own stable randomness (its first
        // chain's parameters) plus the day, so distinct devices drift
        // independently and the same device re-drifts identically.
        let mut h = 0xD21F_7A6E_0000_0000u64 ^ (day as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= self.cfo_ppm.to_bits().wrapping_mul(0x100_0000_01B3);
        h ^= self.sfo_ppm.to_bits().rotate_left(17);
        let mut rng = StdRng::seed_from_u64(h);
        let chains = self
            .chains
            .iter()
            .map(|c| c.drifted(&mut rng, scale))
            .collect();
        let iq_beta = self
            .iq_beta
            .iter()
            .map(|&(re, im)| {
                (
                    re + rng.gen_range(-1.0..1.0) * scale * 0.002,
                    im + rng.gen_range(-1.0..1.0) * scale * 0.002,
                )
            })
            .collect();
        RadioFingerprint {
            chains,
            iq_beta,
            cfo_ppm: self.cfo_ppm + rng.gen_range(-1.0..1.0) * scale * 0.5,
            sfo_ppm: self.sfo_ppm + rng.gen_range(-1.0..1.0) * scale * 0.5,
        }
    }

    /// Number of RF chains.
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// The response of chain `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn chain(&self, i: usize) -> &ChainResponse {
        &self.chains[i]
    }

    /// The I/Q image-leakage coefficient β of chain `i` as a (re, im)
    /// pair.
    pub fn iq_beta(&self, i: usize) -> (f64, f64) {
        self.iq_beta[i]
    }

    /// Device carrier-frequency offset \[ppm\].
    pub fn cfo_ppm(&self) -> f64 {
        self.cfo_ppm
    }

    /// Device sampling-frequency offset \[ppm\].
    pub fn sfo_ppm(&self) -> f64 {
        self.sfo_ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_device_same_fingerprint() {
        let p = ImpairmentProfile::default();
        let a = RadioFingerprint::generate(DeviceId(3), 3, &p);
        let b = RadioFingerprint::generate(DeviceId(3), 3, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn different_devices_differ() {
        let p = ImpairmentProfile::default();
        let a = RadioFingerprint::generate(DeviceId(3), 3, &p);
        let b = RadioFingerprint::generate(DeviceId(4), 3, &p);
        assert_ne!(a, b);
    }

    #[test]
    fn tx_and_rx_seed_domains_are_separated() {
        let p = ImpairmentProfile::default();
        let tx = RadioFingerprint::generate(DeviceId(3), 2, &p);
        let rx = RadioFingerprint::generate_rx(3, 2, &p);
        assert_ne!(tx, rx);
    }

    #[test]
    fn ideal_radio_has_unity_chains() {
        let r = RadioFingerprint::ideal(3);
        assert_eq!(r.num_chains(), 3);
        for i in 0..3 {
            let resp = r.chain(i).response(17, 122);
            assert!((resp.re - 1.0).abs() < 1e-12 && resp.im.abs() < 1e-12);
            assert_eq!(r.iq_beta(i), (0.0, 0.0));
        }
        assert_eq!(r.cfo_ppm(), 0.0);
    }

    #[test]
    fn strength_zero_kills_chain_diversity() {
        let p = ImpairmentProfile::default().scaled(0.0);
        let fp = RadioFingerprint::generate(DeviceId(1), 3, &p);
        for i in 0..3 {
            let resp = fp.chain(i).response(50, 122);
            assert!((resp.abs() - 1.0).abs() < 1e-12);
            assert!(resp.arg().abs() < 1e-12);
        }
    }

    #[test]
    fn all_ten_modules_are_pairwise_distinct() {
        let p = ImpairmentProfile::default();
        let fps: Vec<_> = (0..10)
            .map(|i| RadioFingerprint::generate(DeviceId(i), 3, &p))
            .collect();
        for i in 0..10 {
            for j in (i + 1)..10 {
                assert_ne!(fps[i], fps[j], "modules {i} and {j} collide");
            }
        }
    }

    #[test]
    fn cfo_within_profile_bound() {
        let p = ImpairmentProfile::default();
        for i in 0..10 {
            let fp = RadioFingerprint::generate(DeviceId(i), 3, &p);
            assert!(fp.cfo_ppm().abs() <= p.osc_ppm_std);
            assert!(fp.sfo_ppm().abs() <= p.osc_ppm_std);
        }
    }

    #[test]
    fn drift_is_deterministic_per_day_and_distinct_across_days() {
        let p = ImpairmentProfile::default();
        let fp = RadioFingerprint::generate(DeviceId(2), 3, &p);
        assert_eq!(fp.drifted(3, 0.2), fp.drifted(3, 0.2));
        assert_ne!(fp.drifted(3, 0.2), fp.drifted(4, 0.2));
        // Day 0 at zero scale is the factory-fresh radio.
        assert_eq!(fp.drifted(0, 0.0), fp);
    }

    #[test]
    fn drift_perturbs_but_preserves_the_gross_fingerprint() {
        let p = ImpairmentProfile::default();
        let fp = RadioFingerprint::generate(DeviceId(5), 3, &p);
        let aged = fp.drifted(1, 0.1);
        assert_ne!(aged, fp);
        assert_eq!(aged.num_chains(), fp.num_chains());
        for i in 0..3 {
            for k in [-122i32, 0, 60, 122] {
                let a = fp.chain(i).response(k, 122);
                let b = aged.chain(i).response(k, 122);
                // A thermal cycle nudges the response, it does not
                // replace the device.
                assert!((a - b).abs() < 0.25, "chain {i} tone {k} moved too far");
            }
        }
        assert!((aged.cfo_ppm() - fp.cfo_ppm()).abs() <= 0.5 * 0.1 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one chain")]
    fn zero_chains_panics() {
        let _ = RadioFingerprint::generate(DeviceId(0), 0, &ImpairmentProfile::default());
    }
}
