//! Image-method path tracing between two antenna elements.

use crate::environment::Scatterer;
use crate::geometry::{Point2, Room};

/// One propagation path between a TX and an RX antenna element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// Total travelled distance \[m\].
    pub length: f64,
    /// Interaction amplitude gain (wall reflection loss, scattering
    /// cross-section); free-space spreading is applied separately by the
    /// channel model.
    pub gain: f64,
    /// Extra phase from the interaction \[rad\] (π per wall bounce,
    /// scatterer-specific otherwise).
    pub extra_phase: f64,
}

/// Traces the multipath components between a TX and an RX element:
/// the line-of-sight ray, the four first-order wall reflections (image
/// method) and one bounce off every scatterer.
///
/// The result length is therefore `5 + scatterers.len()` — the paper's
/// `P` in Eq. (2).
pub fn trace_paths(tx: Point2, rx: Point2, room: &Room, scatterers: &[Scatterer]) -> Vec<Path> {
    let mut paths = Vec::with_capacity(5 + scatterers.len());

    // Line of sight.
    paths.push(Path {
        length: tx.distance(&rx).max(1e-6),
        gain: 1.0,
        extra_phase: 0.0,
    });

    // First-order wall reflections: reflect the TX across each wall; the
    // image-to-RX distance equals the length of the bounced ray.
    for image in room.wall_images(&tx) {
        paths.push(Path {
            length: image.distance(&rx).max(1e-6),
            gain: room.reflection_coeff,
            extra_phase: std::f64::consts::PI,
        });
    }

    // Single-bounce scatterer paths.
    for s in scatterers {
        let d1 = tx.distance(&s.pos).max(1e-6);
        let d2 = s.pos.distance(&rx).max(1e-6);
        paths.push(Path {
            length: d1 + d2,
            gain: s.gain,
            extra_phase: s.phase,
        });
    }

    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room() -> Room {
        Room::new(-2.6, 2.6, -1.0, 4.0, 0.4)
    }

    #[test]
    fn path_count_is_los_plus_walls_plus_scatterers() {
        let scatterers = vec![
            Scatterer {
                pos: Point2::new(1.0, 1.0),
                gain: 0.1,
                phase: 0.3,
            };
            3
        ];
        let paths = trace_paths(
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 3.0),
            &room(),
            &scatterers,
        );
        assert_eq!(paths.len(), 5 + 3);
    }

    #[test]
    fn los_is_shortest_path() {
        let paths = trace_paths(Point2::new(0.0, 0.0), Point2::new(-0.75, 3.0), &room(), &[]);
        let los = paths[0].length;
        for p in &paths[1..] {
            assert!(p.length > los, "reflection shorter than LoS");
        }
    }

    #[test]
    fn reflection_length_matches_manual_computation() {
        // TX at origin, RX straight ahead; bounce off the left wall at
        // x = −2.6 has image TX' = (−5.2, 0) → length = |TX' − RX|.
        let tx = Point2::new(0.0, 0.0);
        let rx = Point2::new(0.0, 3.0);
        let paths = trace_paths(tx, rx, &room(), &[]);
        let expect = Point2::new(-5.2, 0.0).distance(&rx);
        assert!((paths[1].length - expect).abs() < 1e-12);
    }

    #[test]
    fn scatterer_path_is_sum_of_legs() {
        let s = Scatterer {
            pos: Point2::new(1.0, 1.5),
            gain: 0.2,
            phase: 1.0,
        };
        let tx = Point2::new(0.0, 0.0);
        let rx = Point2::new(0.0, 3.0);
        let paths = trace_paths(tx, rx, &room(), &[s]);
        let want = tx.distance(&s.pos) + s.pos.distance(&rx);
        let got = paths.last().unwrap();
        assert!((got.length - want).abs() < 1e-12);
        assert_eq!(got.gain, 0.2);
        assert_eq!(got.extra_phase, 1.0);
    }

    #[test]
    fn coincident_endpoints_do_not_produce_zero_length() {
        let p = Point2::new(0.5, 0.5);
        let paths = trace_paths(p, p, &room(), &[]);
        assert!(paths.iter().all(|p| p.length > 0.0));
    }

    #[test]
    fn wall_bounce_gain_uses_reflection_coeff() {
        let paths = trace_paths(Point2::new(0.0, 0.0), Point2::new(1.0, 2.0), &room(), &[]);
        for p in &paths[1..5] {
            assert_eq!(p.gain, 0.4);
            assert_eq!(p.extra_phase, std::f64::consts::PI);
        }
    }
}
