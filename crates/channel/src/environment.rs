//! The Fig. 6 experimental environment: room, device placements and
//! environment-specific scatterers.

use crate::geometry::{Point2, Room};
use deepcsi_phy::WifiChannel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A point scatterer contributing one additional multipath component per
/// antenna pair (furniture, walls' irregularities, metallic objects…).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scatterer {
    /// Nominal position of the scatterer.
    pub pos: Point2,
    /// Amplitude gain of the scattered path relative to free space (the
    /// product of the bistatic cross-section and absorption, < 1).
    pub gain: f64,
    /// Static extra phase of the scattering interaction \[rad\].
    pub phase: f64,
}

/// One indoor environment in the Fig. 6 configuration.
///
/// The paper collects data in two different rooms reproducing the same
/// layout; [`Environment::fig6`] takes an environment id that seeds the
/// scatterer placement and wall properties, so `fig6(0)` and `fig6(1)`
/// are "the same configuration, different room".
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// The room with its reflective walls.
    pub room: Room,
    /// Environment-specific point scatterers.
    pub scatterers: Vec<Scatterer>,
    /// The Wi-Fi channel in use (channel 42 in the paper).
    pub channel: WifiChannel,
    /// Standard deviation of per-snapshot scatterer position jitter \[m\],
    /// modelling residual motion in an otherwise static room.
    pub scatter_jitter_std: f64,
}

impl Environment {
    /// Number of scatterers placed in each environment.
    pub const NUM_SCATTERERS: usize = 8;

    /// Builds the Fig. 6 environment for environment id `env_id`.
    ///
    /// Coordinates: the AP's home position A is the origin; the
    /// beamformees sit on the line `y = 3.0` (the "3 m" of Fig. 6) at
    /// `x = ∓0.75` (their starting separation of 1.5 m).
    pub fn fig6(env_id: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(0x00F1_6000 ^ env_id.wrapping_mul(0x9E37_79B9));
        let room = Room::new(
            -2.6,
            2.6,
            -1.0,
            4.0,
            // Slightly different wall materials per environment.
            0.22 + 0.06 * rng.gen::<f64>(),
        );
        let scatterers = (0..Self::NUM_SCATTERERS)
            .map(|_| Scatterer {
                pos: Point2::new(
                    rng.gen_range(room.x_min + 0.2..room.x_max - 0.2),
                    rng.gen_range(room.y_min + 0.2..room.y_max - 0.2),
                ),
                gain: rng.gen_range(0.08..0.25),
                phase: rng.gen_range(0.0..std::f64::consts::TAU),
            })
            .collect();
        Environment {
            room,
            scatterers,
            channel: WifiChannel::CH42,
            scatter_jitter_std: 0.004,
        }
    }

    /// AP home position (yellow star A of Fig. 6).
    pub fn ap_home(&self) -> Point2 {
        Point2::new(0.0, 0.0)
    }

    /// Mobility waypoint B: 80 cm from A toward the beamformees.
    pub fn waypoint_b(&self) -> Point2 {
        Point2::new(0.0, 0.8)
    }

    /// Mobility waypoint C: 80 cm to the left of B.
    pub fn waypoint_c(&self) -> Point2 {
        Point2::new(-0.8, 0.8)
    }

    /// Mobility waypoint D: 160 cm to the right of C (80 cm right of B).
    pub fn waypoint_d(&self) -> Point2 {
        Point2::new(0.8, 0.8)
    }

    /// Position of beamformee 1 for position index `idx ∈ 1..=9`: starts
    /// in front of the AP and moves 10 cm further to the **left** per
    /// index (red stars of Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside `1..=9`.
    pub fn beamformee1_position(&self, idx: usize) -> Point2 {
        assert!((1..=9).contains(&idx), "position index must be 1..=9");
        Point2::new(-0.75 - 0.1 * (idx as f64 - 1.0), 3.0)
    }

    /// Position of beamformee 2 for position index `idx ∈ 1..=9`: starts
    /// in front of the AP and moves 10 cm further to the **right** per
    /// index (blue stars of Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside `1..=9`.
    pub fn beamformee2_position(&self, idx: usize) -> Point2 {
        assert!((1..=9).contains(&idx), "position index must be 1..=9");
        Point2::new(0.75 + 0.1 * (idx as f64 - 1.0), 3.0)
    }

    /// Half of the carrier wavelength \[m\] — the antenna element spacing
    /// used by all devices in the testbed.
    pub fn half_wavelength(&self) -> f64 {
        self.channel.wavelength() / 2.0
    }

    /// Returns the scatterers with per-snapshot position jitter applied.
    pub fn jittered_scatterers<R: Rng>(&self, rng: &mut R) -> Vec<Scatterer> {
        self.scatterers
            .iter()
            .map(|s| {
                let dx = gaussian(rng) * self.scatter_jitter_std;
                let dy = gaussian(rng) * self.scatter_jitter_std;
                Scatterer {
                    pos: Point2::new(s.pos.x + dx, s.pos.y + dy),
                    ..*s
                }
            })
            .collect()
    }
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
pub(crate) fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_is_deterministic_per_env_id() {
        let a = Environment::fig6(0);
        let b = Environment::fig6(0);
        let c = Environment::fig6(1);
        assert_eq!(a, b);
        assert_ne!(a.scatterers, c.scatterers, "different rooms must differ");
    }

    #[test]
    fn geometry_matches_fig6() {
        let env = Environment::fig6(0);
        // Beamformees are 3 m in front of the AP.
        assert!((env.beamformee1_position(1).y - 3.0).abs() < 1e-12);
        // Starting separation of the two beamformees is 1.5 m.
        let sep = env
            .beamformee1_position(1)
            .distance(&env.beamformee2_position(1));
        assert!((sep - 1.5).abs() < 1e-12);
        // Each index moves 10 cm outward.
        let step = env.beamformee1_position(2).x - env.beamformee1_position(1).x;
        assert!((step + 0.1).abs() < 1e-12);
        // Waypoints match the A-B-C-D path distances of §IV-A.
        assert!((env.ap_home().distance(&env.waypoint_b()) - 0.8).abs() < 1e-12);
        assert!((env.waypoint_b().distance(&env.waypoint_c()) - 0.8).abs() < 1e-12);
        assert!((env.waypoint_c().distance(&env.waypoint_d()) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn all_placements_inside_room() {
        let env = Environment::fig6(3);
        for idx in 1..=9 {
            assert!(env.room.contains(&env.beamformee1_position(idx)));
            assert!(env.room.contains(&env.beamformee2_position(idx)));
        }
        for s in &env.scatterers {
            assert!(env.room.contains(&s.pos));
        }
        for p in [
            env.ap_home(),
            env.waypoint_b(),
            env.waypoint_c(),
            env.waypoint_d(),
        ] {
            assert!(env.room.contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "position index")]
    fn position_index_zero_panics() {
        let _ = Environment::fig6(0).beamformee1_position(0);
    }

    #[test]
    fn jittered_scatterers_stay_close() {
        let env = Environment::fig6(0);
        let mut rng = StdRng::seed_from_u64(9);
        let jittered = env.jittered_scatterers(&mut rng);
        assert_eq!(jittered.len(), env.scatterers.len());
        for (a, b) in env.scatterers.iter().zip(jittered.iter()) {
            assert!(a.pos.distance(&b.pos) < 0.1, "jitter too large");
            assert_eq!(a.gain, b.gain);
        }
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(77);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn half_wavelength_near_29mm() {
        let env = Environment::fig6(0);
        assert!((env.half_wavelength() - 0.02877).abs() < 1e-4);
    }
}
