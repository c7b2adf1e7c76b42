//! Frequency response of one RF chain (one antenna's analog path).

use deepcsi_linalg::C64;
use deepcsi_phy::SUBCARRIER_SPACING_HZ;
use rand::Rng;

/// Number of ripple harmonics across the sounded band. Analog filters have
/// smooth, low-order responses; three harmonics capture the in-band
/// magnitude/phase ripple of a Wi-Fi front-end.
const NUM_HARMONICS: usize = 3;

/// The complex frequency response `T_m(k)` (or `R_n(k)`) of a single RF
/// chain, relative to the ideal flat response.
///
/// Components, all stable per device:
/// * a flat gain mismatch \[dB\],
/// * a group-delay mismatch \[s\] → phase slope across subcarriers,
/// * a phase intercept \[rad\],
/// * low-order Fourier amplitude/phase ripple (filter imperfections).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainResponse {
    gain_db: f64,
    delay_s: f64,
    phase_offset: f64,
    amp_ripple: Vec<(f64, f64)>,
    phase_ripple: Vec<(f64, f64)>,
}

impl ChainResponse {
    /// Draws a chain response with the given magnitude scales.
    ///
    /// * `gain_std_db` — std-dev of the flat gain mismatch.
    /// * `delay_std_s` — std-dev of the group-delay mismatch.
    /// * `phase_std` — std-dev of the phase intercept \[rad\].
    /// * `amp_ripple_db` / `phase_ripple_rad` — peak scale of the ripple.
    pub fn generate<R: Rng>(
        rng: &mut R,
        gain_std_db: f64,
        delay_std_s: f64,
        phase_std: f64,
        amp_ripple_db: f64,
        phase_ripple_rad: f64,
    ) -> Self {
        let mut pair = |scale: f64| {
            (
                rng.gen_range(-1.0..1.0) * scale,
                rng.gen_range(-1.0..1.0) * scale,
            )
        };
        let amp_ripple = (0..NUM_HARMONICS)
            .map(|h| pair(amp_ripple_db / (h + 1) as f64))
            .collect();
        let phase_ripple = (0..NUM_HARMONICS)
            .map(|h| pair(phase_ripple_rad / (h + 1) as f64))
            .collect();
        ChainResponse {
            gain_db: rng.gen_range(-1.0..1.0) * gain_std_db,
            delay_s: rng.gen_range(-1.0..1.0) * delay_std_s,
            phase_offset: rng.gen_range(-1.0..1.0) * phase_std,
            amp_ripple,
            phase_ripple,
        }
    }

    /// An ideal (identity) chain.
    pub fn ideal() -> Self {
        ChainResponse {
            gain_db: 0.0,
            delay_s: 0.0,
            phase_offset: 0.0,
            amp_ripple: vec![(0.0, 0.0); NUM_HARMONICS],
            phase_ripple: vec![(0.0, 0.0); NUM_HARMONICS],
        }
    }

    /// Complex response at subcarrier `k`, with `k_span` the one-sided
    /// tone span of the band (e.g. 122 for 80 MHz) used to normalise the
    /// ripple period.
    pub fn response(&self, k: i32, k_span: i32) -> C64 {
        let x = k as f64 / k_span.max(1) as f64; // in [−1, 1]
        let mut amp_db = self.gain_db;
        let mut phase = self.phase_offset
            - std::f64::consts::TAU * k as f64 * SUBCARRIER_SPACING_HZ * self.delay_s;
        for (h, ((ac, as_), (pc, ps))) in self
            .amp_ripple
            .iter()
            .zip(self.phase_ripple.iter())
            .enumerate()
        {
            let w = std::f64::consts::PI * (h + 1) as f64 * x;
            amp_db += ac * w.cos() + as_ * w.sin();
            phase += pc * w.cos() + ps * w.sin();
        }
        C64::from_polar(10f64.powf(amp_db / 20.0), phase)
    }

    /// Re-samples small temperature/aging offsets on top of this
    /// response: the multi-day drift of an analog front-end. `scale`
    /// sets the drift magnitude as a fraction of typical factory
    /// spreads — `0.1` is a day-to-day thermal cycle, `0.5` months of
    /// aging. The chain's gross character (its fingerprint) survives;
    /// the fine detail a classifier may have over-fitted does not.
    pub fn drifted<R: Rng>(&self, rng: &mut R, scale: f64) -> Self {
        let gain_db = self.gain_db + rng.gen_range(-1.0..1.0) * scale * 0.05;
        let delay_s = self.delay_s + rng.gen_range(-1.0..1.0) * scale * 0.05e-9;
        let phase_offset = self.phase_offset + rng.gen_range(-1.0..1.0) * scale * 0.1;
        let mut jitter =
            |base: f64| base + rng.gen_range(-1.0..1.0) * scale * base.abs().max(1e-12);
        let amp_ripple = self
            .amp_ripple
            .iter()
            .map(|&(c, s)| (jitter(c), jitter(s)))
            .collect();
        let phase_ripple = self
            .phase_ripple
            .iter()
            .map(|&(c, s)| (jitter(c), jitter(s)))
            .collect();
        ChainResponse {
            gain_db,
            delay_s,
            phase_offset,
            amp_ripple,
            phase_ripple,
        }
    }

    /// The group-delay mismatch of this chain \[s\].
    pub fn delay_s(&self) -> f64 {
        self.delay_s
    }

    /// The flat gain mismatch of this chain \[dB\].
    pub fn gain_db(&self) -> f64 {
        self.gain_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> ChainResponse {
        let mut rng = StdRng::seed_from_u64(1);
        ChainResponse::generate(&mut rng, 0.5, 0.5e-9, 0.8, 0.3, 0.05)
    }

    #[test]
    fn ideal_chain_is_unity() {
        let c = ChainResponse::ideal();
        for k in [-122, -50, 2, 122] {
            let r = c.response(k, 122);
            assert!((r - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn response_is_smooth_across_band() {
        let c = sample();
        let mut prev = c.response(-122, 122);
        for k in -121..=122 {
            let cur = c.response(k, 122);
            assert!((cur - prev).abs() < 0.15, "response jumped at tone {k}");
            prev = cur;
        }
    }

    #[test]
    fn magnitude_stays_near_unity() {
        let c = sample();
        for k in -122..=122 {
            let m = c.response(k, 122).abs();
            assert!((0.7..1.4).contains(&m), "|T({k})| = {m}");
        }
    }

    #[test]
    fn delay_produces_linear_phase_slope() {
        let mut rng = StdRng::seed_from_u64(2);
        // Pure delay chain: no ripple, no offset.
        let mut c = ChainResponse::generate(&mut rng, 0.0, 0.0, 0.0, 0.0, 0.0);
        c.delay_s = 1e-9;
        let p1 = c.response(10, 122).arg();
        let p2 = c.response(11, 122).arg();
        let slope = p2 - p1;
        let want = -std::f64::consts::TAU * SUBCARRIER_SPACING_HZ * 1e-9;
        assert!((slope - want).abs() < 1e-9, "slope {slope} vs {want}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = ChainResponse::generate(&mut r1, 0.5, 1e-9, 0.8, 0.3, 0.05);
        let b = ChainResponse::generate(&mut r2, 0.5, 1e-9, 0.8, 0.3, 0.05);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(8);
        let a = ChainResponse::generate(&mut r1, 0.5, 1e-9, 0.8, 0.3, 0.05);
        let b = ChainResponse::generate(&mut r2, 0.5, 1e-9, 0.8, 0.3, 0.05);
        assert_ne!(a, b);
    }
}
