//! The built-in channel-resilience scenario axes.
//!
//! Each axis perturbs exactly one serve-time condition away from the
//! training condition ([`SegmentSpec::train`]): position, room draw,
//! mobility, SNR, interference bursts, or multi-day hardware drift.
//! Multi-segment scenarios replay their segments back-to-back into one
//! engine, so the condition changes *mid-stream* — the regime that
//! breaks calibration learned on the head of the stream.

use crate::segment::SegmentSpec;

/// A named serve-time condition sequence.
///
/// Declarative data: it only describes segments; the
/// [`ScenarioMatrix`](crate::ScenarioMatrix) owns generation, training,
/// engine driving, and scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable snake_case identifier (used in bench JSON keys).
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// The serve stream, as back-to-back condition segments.
    pub segments: Vec<SegmentSpec>,
}

/// Train at position 1, serve at position 5 (same room draw): the
/// cross-position generalization gap of Table I's S2/S3 splits.
fn cross_position() -> Scenario {
    Scenario {
        name: "cross_position",
        description: "train at position 1, serve at position 5 in the same room draw",
        segments: vec![SegmentSpec::at(0, 5)],
    }
}

/// The channel is re-drawn mid-stream: the first half of the stream is
/// the training channel, the second half a fresh room draw.
fn channel_redraw() -> Scenario {
    Scenario {
        name: "channel_redraw",
        description: "mid-stream room re-draw: training channel, then a fresh draw",
        segments: vec![SegmentSpec::at(0, 1), SegmentSpec::at(7, 1)],
    }
}

/// The full six-axis suite.
pub fn standard_scenarios() -> Vec<Scenario> {
    // Clean segments alternate with interference bursts (6 dB SNR +
    // heavy phase noise), as under a co-channel interferer duty cycle.
    let burst = SegmentSpec {
        snr_db: Some(6.0),
        phase_noise_std_rad: Some(0.3),
        ..SegmentSpec::train()
    };
    vec![
        cross_position(),
        channel_redraw(),
        // The AP is carried along the A-B-C-D-B-A path (dataset D2's
        // mobility regime) while serving.
        Scenario {
            name: "mobility",
            description: "AP carried along A-B-C-D-B-A while serving",
            segments: vec![SegmentSpec {
                mobility: true,
                ..SegmentSpec::train()
            }],
        },
        // SNR degrades across the stream: 25 dB → 15 dB → 8 dB segments.
        Scenario {
            name: "snr_sweep",
            description: "SNR sweeps 25 -> 15 -> 8 dB across the stream",
            segments: [25.0, 15.0, 8.0]
                .into_iter()
                .map(|snr| SegmentSpec {
                    snr_db: Some(snr),
                    ..SegmentSpec::train()
                })
                .collect(),
        },
        Scenario {
            name: "interference",
            description: "clean segments alternating with 6 dB + heavy-phase-noise bursts",
            segments: vec![
                SegmentSpec::train(),
                burst.clone(),
                SegmentSpec::train(),
                burst,
            ],
        },
        // The same stream observed on day 0, day 10, and day 30 of
        // hardware drift (temperature/aging offsets re-sampled per day).
        Scenario {
            name: "drift",
            description: "fingerprints aged 0, 10, and 30 days across the stream",
            segments: [0u32, 10, 30]
                .into_iter()
                .map(|day| SegmentSpec {
                    drift_day: day,
                    drift_scale: if day == 0 { 0.0 } else { 0.3 },
                    ..SegmentSpec::train()
                })
                .collect(),
        },
    ]
}

/// The 2-scenario CI smoke subset (one static gap, one mid-stream
/// change).
pub fn tiny_scenarios() -> Vec<Scenario> {
    vec![cross_position(), channel_redraw()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segments(name: &str) -> Vec<SegmentSpec> {
        standard_scenarios()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no scenario {name}"))
            .segments
    }

    #[test]
    fn every_standard_scenario_is_well_formed() {
        let suite = standard_scenarios();
        assert_eq!(suite.len(), 6);
        let mut names = std::collections::HashSet::new();
        for s in &suite {
            assert!(!s.segments.is_empty(), "{} has no segments", s.name);
            assert!(!s.description.is_empty());
            assert!(names.insert(s.name), "duplicate scenario {}", s.name);
            for seg in &s.segments {
                assert!((1..=9).contains(&seg.rx_position));
            }
        }
    }

    #[test]
    fn redraw_actually_changes_the_room_mid_stream() {
        let segs = segments("channel_redraw");
        assert_eq!(segs.len(), 2);
        assert_ne!(segs[0].env_id, segs[1].env_id);
    }

    #[test]
    fn snr_sweep_is_monotone_decreasing() {
        let snrs: Vec<f64> = segments("snr_sweep")
            .iter()
            .map(|s| s.snr_db.expect("sweep pins SNR"))
            .collect();
        assert!(snrs.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn drift_days_increase_and_start_unaged() {
        let days: Vec<u32> = segments("drift").iter().map(|s| s.drift_day).collect();
        assert_eq!(days[0], 0);
        assert!(days.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn interference_alternates_clean_and_burst() {
        let segs = segments("interference");
        assert_eq!(segs.len(), 4);
        assert!(segs[0].snr_db.is_none() && segs[2].snr_db.is_none());
        assert!(segs[1].snr_db.is_some() && segs[3].snr_db.is_some());
    }
}
