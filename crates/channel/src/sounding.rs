//! Time series of channel-sounding snapshots.

use crate::environment::Scatterer;
use crate::geometry::AntennaArray;
use crate::mobility::{MobilityPath, PersonMotion};
use crate::model::ChannelModel;
use deepcsi_linalg::CMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Timing of a sounding trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SounderConfig {
    /// Seconds between consecutive NDP soundings. Under the paper's UDP
    /// downlink traffic the AP re-sounds every few tens of milliseconds;
    /// traces are sub-sampled to keep synthetic datasets laptop-sized.
    pub interval_s: f64,
    /// Number of soundings in the trace.
    pub snapshots: usize,
}

impl Default for SounderConfig {
    fn default() -> Self {
        SounderConfig {
            interval_s: 0.6,
            snapshots: 200,
        }
    }
}

/// Produces the sequence of per-sounding CFR snapshots for one
/// (beamformer, beamformee) link — the substrate every D1/D2 trace is
/// generated from.
///
/// The TX array either stays at its template position (static traces) or
/// follows a [`MobilityPath`] with an attached [`PersonMotion`] (the D2
/// traces, where a person carries the AP).
#[derive(Debug)]
pub struct ChannelSounder {
    model: ChannelModel,
    tx_template: AntennaArray,
    rx: AntennaArray,
    mobility: Option<(MobilityPath, PersonMotion)>,
    config: SounderConfig,
    rng: StdRng,
    step: usize,
}

impl ChannelSounder {
    /// Creates a static-TX sounder.
    pub fn new(
        model: ChannelModel,
        tx: AntennaArray,
        rx: AntennaArray,
        config: SounderConfig,
        seed: u64,
    ) -> Self {
        ChannelSounder {
            model,
            tx_template: tx,
            rx,
            mobility: None,
            config,
            rng: StdRng::seed_from_u64(seed),
            step: 0,
        }
    }

    /// Attaches a mobility path (and the person carrying the device);
    /// the sounding interval is stretched so the trace covers the whole
    /// path traversal.
    pub fn with_mobility(mut self, path: MobilityPath, person: PersonMotion) -> Self {
        self.config.interval_s = path.duration() / self.config.snapshots.max(1) as f64;
        self.mobility = Some((path, person));
        self
    }

    /// Time of snapshot `i` \[s\].
    pub fn time_of(&self, i: usize) -> f64 {
        i as f64 * self.config.interval_s
    }

    /// Number of snapshots this sounder will produce.
    pub fn len(&self) -> usize {
        self.config.snapshots
    }

    /// Returns `true` when the sounder produces no snapshots.
    pub fn is_empty(&self) -> bool {
        self.config.snapshots == 0
    }
}

impl Iterator for ChannelSounder {
    /// `(timestamp, per-subcarrier CFR)` of one sounding.
    type Item = (f64, Vec<CMatrix>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.step >= self.config.snapshots {
            return None;
        }
        let t = self.time_of(self.step);
        self.step += 1;

        let snapshot = match &self.mobility {
            None => self.model.cfr(&self.tx_template, &self.rx, &mut self.rng),
            Some((path, person)) => {
                let pos = path.position_at(t);
                let tx = self.tx_template.at(pos);
                let extra: Vec<Scatterer> = vec![person.scatterer_at(t, pos, &mut self.rng)];
                self.model
                    .cfr_with_extra(&tx, &self.rx, &extra, &mut self.rng)
            }
        };
        Some((t, snapshot))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.config.snapshots - self.step;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ChannelSounder {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Environment;
    use deepcsi_phy::SubcarrierLayout;
    use rand::Rng;

    fn sounder(snapshots: usize) -> ChannelSounder {
        let env = Environment::fig6(0);
        let tx = AntennaArray::new(env.ap_home(), 0.0, env.half_wavelength(), 3);
        let rx = AntennaArray::new(env.beamformee1_position(3), 0.0, env.half_wavelength(), 2);
        let model = ChannelModel::new(&env, SubcarrierLayout::vht20());
        ChannelSounder::new(
            model,
            tx,
            rx,
            SounderConfig {
                interval_s: 0.5,
                snapshots,
            },
            42,
        )
    }

    #[test]
    fn produces_exactly_n_snapshots() {
        let s = sounder(7);
        assert_eq!(s.len(), 7);
        let items: Vec<_> = s.collect();
        assert_eq!(items.len(), 7);
        // Timestamps advance by the configured interval.
        assert!((items[1].0 - items[0].0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn static_snapshots_vary_slightly_over_time() {
        // Scatterer jitter makes consecutive snapshots similar but not
        // identical — the temporal texture Fig. 14 visualises.
        let items: Vec<_> = sounder(2).collect();
        let (_, a) = &items[0];
        let (_, b) = &items[1];
        let diff: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| x.sub(y).fro_norm())
            .sum();
        let norm: f64 = a.iter().map(|x| x.fro_norm()).sum();
        let rel = diff / norm;
        assert!(rel > 0.0, "snapshots identical");
        assert!(rel < 0.5, "static channel varies too much: {rel}");
    }

    #[test]
    fn mobility_spreads_snapshots_over_the_path() {
        let env = Environment::fig6(0);
        let tx = AntennaArray::new(env.ap_home(), 0.0, env.half_wavelength(), 3);
        let rx = AntennaArray::new(env.beamformee1_position(3), 0.0, env.half_wavelength(), 2);
        let model = ChannelModel::new(&env, SubcarrierLayout::vht20());
        let mut rng = StdRng::seed_from_u64(7);
        let path = MobilityPath::abcdba(&env, &mut rng);
        let person = PersonMotion::new(&mut rng);
        let duration = path.duration();
        let s = ChannelSounder::new(
            model,
            tx,
            rx,
            SounderConfig {
                interval_s: 1.0,
                snapshots: 10,
            },
            1,
        )
        .with_mobility(path, person);
        let items: Vec<_> = s.collect();
        assert_eq!(items.len(), 10);
        // Last snapshot lands near the end of the traversal.
        let t_last = items.last().unwrap().0;
        assert!(t_last <= duration + 1e-9);
        assert!(t_last / duration > 0.8);
        // Mobility makes the channel change much more than static jitter.
        let (_, first) = &items[0];
        let (_, mid) = &items[5];
        let diff: f64 = first
            .iter()
            .zip(mid.iter())
            .map(|(x, y)| x.sub(y).fro_norm())
            .sum();
        let norm: f64 = first.iter().map(|x| x.fro_norm()).sum();
        assert!(diff / norm > 0.2, "mobility channel barely changed");
    }

    #[test]
    fn seeded_sounders_reproduce() {
        let a: Vec<_> = sounder(3).collect();
        let b: Vec<_> = sounder(3).collect();
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            for (hx, hy) in x.iter().zip(y.iter()) {
                assert!(hx.max_abs_diff(hy) < 1e-15);
            }
        }
    }

    #[test]
    fn size_hint_tracks_progress() {
        let mut s = sounder(5);
        assert_eq!(s.size_hint(), (5, Some(5)));
        let _ = s.next();
        assert_eq!(s.size_hint(), (4, Some(4)));
        // rng consumption should not affect the count.
        let _ = s.rng.gen::<f64>();
        assert_eq!(s.size_hint(), (4, Some(4)));
    }
}
