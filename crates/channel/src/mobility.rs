//! AP mobility (the A-B-C-D-B-A path of Fig. 6) and the person moving it.

use crate::environment::{gaussian, Environment, Scatterer};
use crate::geometry::Point2;
use rand::Rng;

/// A piecewise-linear waypoint path walked at constant nominal speed, with
/// low-frequency "manual carry" wobble superimposed.
///
/// §IV-A: the AP is *manually* moved along A-B-C-D-B-A, so consecutive
/// traces follow only approximately the same trajectory. The wobble is a
/// sum of slow sinusoids whose amplitudes/phases are drawn per trace,
/// reproducing that trace-to-trace variability.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityPath {
    waypoints: Vec<Point2>,
    speed_mps: f64,
    wobble_amp: f64,
    wobble: Vec<(f64, f64, f64, f64)>, // (freq_hz, phase_x, phase_y, amp_scale)
}

impl MobilityPath {
    /// The paper's A-B-C-D-B-A trajectory: 80 cm forward, 80 cm left,
    /// 160 cm right (through B), back to B, back to A.
    ///
    /// `rng` draws this trace's manual wobble; walking speed defaults to
    /// a slow hand-carry (0.25 m/s), giving a ≈19 s traversal.
    pub fn abcdba<R: Rng>(env: &Environment, rng: &mut R) -> Self {
        Self::from_waypoints(
            vec![
                env.ap_home(),
                env.waypoint_b(),
                env.waypoint_c(),
                env.waypoint_d(),
                env.waypoint_b(),
                env.ap_home(),
            ],
            0.25,
            0.03,
            rng,
        )
    }

    /// Builds a path from explicit waypoints.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two waypoints or a non-positive speed.
    pub fn from_waypoints<R: Rng>(
        waypoints: Vec<Point2>,
        speed_mps: f64,
        wobble_amp: f64,
        rng: &mut R,
    ) -> Self {
        assert!(waypoints.len() >= 2, "a path needs at least two waypoints");
        assert!(speed_mps > 0.0, "speed must be positive");
        let wobble = (0..3)
            .map(|i| {
                (
                    0.15 * (i as f64 + 1.0) + 0.05 * rng.gen::<f64>(),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                    0.5 + rng.gen::<f64>(),
                )
            })
            .collect();
        MobilityPath {
            waypoints,
            speed_mps,
            wobble_amp,
            wobble,
        }
    }

    /// Total nominal path length \[m\].
    pub fn total_length(&self) -> f64 {
        self.waypoints
            .windows(2)
            .map(|w| w[0].distance(&w[1]))
            .sum()
    }

    /// Nominal traversal duration \[s\].
    pub fn duration(&self) -> f64 {
        self.total_length() / self.speed_mps
    }

    /// Nominal (wobble-free) position after walking for `t` seconds;
    /// clamps to the endpoints outside `[0, duration]`.
    pub fn nominal_position(&self, t: f64) -> Point2 {
        let mut remaining = (t.max(0.0) * self.speed_mps).min(self.total_length());
        for w in self.waypoints.windows(2) {
            let seg = w[0].distance(&w[1]);
            if remaining <= seg {
                let frac = if seg > 0.0 { remaining / seg } else { 0.0 };
                return w[0].lerp(&w[1], frac);
            }
            remaining -= seg;
        }
        *self.waypoints.last().expect("non-empty waypoints")
    }

    /// Position including the manual-carry wobble.
    pub fn position_at(&self, t: f64) -> Point2 {
        let nominal = self.nominal_position(t);
        let mut dx = 0.0;
        let mut dy = 0.0;
        for &(f, px, py, a) in &self.wobble {
            let w = std::f64::consts::TAU * f * t;
            dx += a * (w + px).sin();
            dy += a * (w + py).sin();
        }
        let norm = self.wobble.len() as f64;
        Point2::new(
            nominal.x + self.wobble_amp * dx / norm,
            nominal.y + self.wobble_amp * dy / norm,
        )
    }

    /// Fraction of the path walked at time `t`, in `[0, 1]`.
    pub fn progress(&self, t: f64) -> f64 {
        ((t * self.speed_mps) / self.total_length()).clamp(0.0, 1.0)
    }
}

/// The person carrying the AP during the D2 mobility traces (§IV-B: "a
/// person is always present in the proximity of the AP").
///
/// Modelled as a strong scatterer orbiting the AP position with slow,
/// seeded pseudo-random motion.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonMotion {
    orbit_radius: f64,
    gain: f64,
    freq_hz: f64,
    phase: f64,
    breathing_freq_hz: f64,
}

impl PersonMotion {
    /// Creates a person model with per-trace randomised motion parameters.
    pub fn new<R: Rng>(rng: &mut R) -> Self {
        PersonMotion {
            orbit_radius: 0.35 + 0.1 * rng.gen::<f64>(),
            gain: 0.10 + 0.05 * rng.gen::<f64>(),
            freq_hz: 0.05 + 0.05 * rng.gen::<f64>(),
            phase: rng.gen_range(0.0..std::f64::consts::TAU),
            breathing_freq_hz: 0.25 + 0.05 * rng.gen::<f64>(),
        }
    }

    /// The scatterer this person contributes at time `t`, given the AP
    /// position `anchor`. Small Gaussian positional noise from `rng`
    /// models limb motion.
    pub fn scatterer_at<R: Rng>(&self, t: f64, anchor: Point2, rng: &mut R) -> Scatterer {
        let ang = std::f64::consts::TAU * self.freq_hz * t + self.phase;
        let breath = 0.02 * (std::f64::consts::TAU * self.breathing_freq_hz * t).sin();
        let r = self.orbit_radius + breath;
        Scatterer {
            pos: Point2::new(
                anchor.x + r * ang.cos() + 0.01 * gaussian(rng),
                anchor.y + r * ang.sin() + 0.01 * gaussian(rng),
            ),
            gain: self.gain,
            phase: ang,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path() -> MobilityPath {
        let env = Environment::fig6(0);
        let mut rng = StdRng::seed_from_u64(5);
        MobilityPath::abcdba(&env, &mut rng)
    }

    #[test]
    fn abcdba_total_length() {
        // A→B (0.8) + B→C (0.8) + C→D (1.6) + D→B (0.8) + B→A (0.8) = 4.8 m.
        assert!((path().total_length() - 4.8).abs() < 1e-12);
    }

    #[test]
    fn starts_and_ends_at_home() {
        let p = path();
        let start = p.nominal_position(0.0);
        let end = p.nominal_position(p.duration() + 10.0);
        assert!(start.distance(&Point2::new(0.0, 0.0)) < 1e-12);
        assert!(end.distance(&Point2::new(0.0, 0.0)) < 1e-12);
    }

    #[test]
    fn passes_through_waypoints_in_order() {
        let p = path();
        let env = Environment::fig6(0);
        // At t = 0.8 m / 0.25 m/s = 3.2 s the AP is at B.
        assert!(p.nominal_position(3.2).distance(&env.waypoint_b()) < 1e-9);
        // At 1.6 m → C.
        assert!(p.nominal_position(6.4).distance(&env.waypoint_c()) < 1e-9);
        // At 3.2 m → D (passing through B at 2.4 m).
        assert!(p.nominal_position(12.8).distance(&env.waypoint_d()) < 1e-9);
        assert!(p.nominal_position(9.6).distance(&env.waypoint_b()) < 1e-9);
    }

    #[test]
    fn wobble_keeps_position_near_nominal() {
        let p = path();
        for i in 0..50 {
            let t = i as f64 * 0.4;
            let d = p.position_at(t).distance(&p.nominal_position(t));
            assert!(d < 0.1, "wobble {d} m too large at t={t}");
        }
    }

    #[test]
    fn different_traces_have_different_wobble() {
        let env = Environment::fig6(0);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let p1 = MobilityPath::abcdba(&env, &mut r1);
        let p2 = MobilityPath::abcdba(&env, &mut r2);
        let t = 5.0;
        assert!(p1.position_at(t).distance(&p2.position_at(t)) > 1e-6);
    }

    #[test]
    fn progress_is_monotone_and_clamped() {
        let p = path();
        assert_eq!(p.progress(-1.0), 0.0);
        assert_eq!(p.progress(1e9), 1.0);
        let mut prev = 0.0;
        for i in 0..20 {
            let g = p.progress(i as f64);
            assert!(g >= prev);
            prev = g;
        }
    }

    #[test]
    fn person_orbits_the_anchor() {
        let mut rng = StdRng::seed_from_u64(11);
        let person = PersonMotion::new(&mut rng);
        let anchor = Point2::new(1.0, 1.0);
        for i in 0..20 {
            let s = person.scatterer_at(i as f64, anchor, &mut rng);
            let d = s.pos.distance(&anchor);
            assert!(d > 0.2 && d < 0.7, "person at distance {d}");
            assert!(s.gain > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least two waypoints")]
    fn single_waypoint_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = MobilityPath::from_waypoints(vec![Point2::new(0.0, 0.0)], 1.0, 0.0, &mut rng);
    }
}
