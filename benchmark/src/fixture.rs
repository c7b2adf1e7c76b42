//! Seeded inputs: the D1 dataset, the two models, the report frames,
//! the radiotap capture image, the arrival schedule and the MAC plan.
//!
//! The dataset, the demo training recipe and the enrolment are fixed;
//! `--seed` moves only what the system must not depend on (arrival
//! gaps, noise frames, which MAC carries which session), so verdicts
//! stay comparable across seeds.

use deepcsi_capture::{PcapWriter, PcapngWriter, RadiotapBuilder, LINKTYPE_RADIOTAP};
use deepcsi_cluster::demo::{demo_dataset, demo_frames, demo_model, DemoConfig};
use deepcsi_core::{Authenticator, ModelConfig};
use deepcsi_data::{Dataset, InputSpec};
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_serve::{DeviceRegistry, ReplaySource};
use std::time::{Duration, Instant};

/// The D1 recipe every workload shares: 4 modules × 40 snapshots per
/// trace = 72 traces, 8 streams, 2 880 reports; demo model, 2 epochs.
pub const DEMO: DemoConfig = DemoConfig {
    modules: 4,
    snapshots: 40,
    epochs: 2,
};
/// Non-beamforming MPDUs interleaved before each report in the capture.
pub const NOISE_PER_REPORT: usize = 4;
/// Weight seed of the untrained paper-profile model. Fixed, not taken
/// from `--seed`: the verdicts of an untrained model depend on its
/// weights, and the verdict metrics must repeat exactly across seeds.
pub const PAPER_WEIGHT_SEED: u64 = 7;
/// The two impostor streams (indices into the MAC-sorted streams).
/// Fixed for the same reason: an untrained model's verdicts depend on
/// who is enrolled as what.
pub const IMPOSTOR_STREAMS: [usize; 2] = [1, 6];

/// SplitMix64: small, seedable, and independent of the repo's own
/// `rand` stand-in, so the inputs do not move when that crate does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The fixed part of every workload's input, with what it cost to make.
pub struct Fixture {
    pub dataset: Dataset,
    /// `(source MAC, MPDU)` in arrival order (traces interleaved).
    pub frames: Vec<(MacAddr, Vec<u8>)>,
    pub generate_d1_s: f64,
}

impl Fixture {
    pub fn build() -> Fixture {
        let t = Instant::now();
        let dataset = demo_dataset(&DEMO);
        let generate_d1_s = t.elapsed().as_secs_f64();
        let frames = demo_frames(&dataset);
        Fixture {
            dataset,
            frames,
            generate_d1_s,
        }
    }

    /// The trained demo classifier (stride-4 input, seed 5).
    pub fn demo_auth(&self) -> Authenticator {
        demo_model(&DEMO, &self.dataset)
    }

    /// The paper architecture at the full 5×1×234 input, untrained.
    pub fn paper_auth(&self) -> Authenticator {
        let spec = InputSpec::default();
        let probe = spec.tensor(&self.dataset.traces[0].snapshots[0]);
        let shape: [usize; 3] = probe.shape().try_into().expect("rank-3 input");
        let model = ModelConfig::paper(self.dataset.modules().len(), PAPER_WEIGHT_SEED);
        Authenticator::with_config(
            model.build_for(&probe),
            spec,
            model,
            (shape[0], shape[1], shape[2]),
        )
    }

    /// The eight D1 streams with [`IMPOSTOR_STREAMS`] enrolled under the
    /// next module. Returns the registry and the impostor MACs.
    pub fn registry(&self) -> (DeviceRegistry, Vec<MacAddr>) {
        let mut registry = ReplaySource::registry(&self.dataset);
        let modules = self.dataset.modules();
        let mut streams: Vec<_> = registry.iter().collect();
        streams.sort();
        let impostors: Vec<MacAddr> = IMPOSTOR_STREAMS
            .iter()
            .map(|&i| {
                let (mac, module) = streams[i];
                let at = modules.iter().position(|m| *m == module).expect("enrolled");
                registry.register(mac, modules[(at + 1) % modules.len()]);
                mac
            })
            .collect();
        (registry, impostors)
    }

    /// The frames of each D1 stream in arrival order, streams sorted by
    /// MAC.
    pub fn streams(&self) -> Vec<Vec<&[u8]>> {
        let mut macs: Vec<MacAddr> = self.frames.iter().map(|(m, _)| *m).collect();
        macs.sort();
        macs.dedup();
        macs.iter()
            .map(|mac| {
                self.frames
                    .iter()
                    .filter(|(m, _)| m == mac)
                    .map(|(_, f)| f.as_slice())
                    .collect()
            })
            .collect()
    }
}

/// One seeded MPDU the capture pre-filter must skip: a data frame
/// (frame control 0x08) of 40–1500 bytes.
fn noise_mpdu(rng: &mut Rng) -> Vec<u8> {
    let len = 40 + rng.below(1461);
    let mut f: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
    f[0] = 0x08;
    f
}

fn radiotap(k: usize) -> Vec<u8> {
    RadiotapBuilder::new()
        .flags(0)
        .channel(5180, 0x0140)
        .antenna_signal(-40 - (k % 20) as i8)
        .build()
}

/// Which container [`capture_image`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Container {
    Pcap,
    Pcapng,
}

/// The replay capture: every report frame preceded by
/// [`NOISE_PER_REPORT`] seeded noise MPDUs, radiotap link layer,
/// 1 ms apart.
pub fn capture_image(
    frames: &[(MacAddr, Vec<u8>)],
    rng: &mut Rng,
    container: Container,
) -> Vec<u8> {
    enum W {
        Pcap(PcapWriter<Vec<u8>>),
        Pcapng(PcapngWriter<Vec<u8>>),
    }
    let mut w = match container {
        Container::Pcap => W::Pcap(PcapWriter::new(Vec::new(), LINKTYPE_RADIOTAP).expect("header")),
        Container::Pcapng => {
            W::Pcapng(PcapngWriter::new(Vec::new(), LINKTYPE_RADIOTAP).expect("header"))
        }
    };
    let mut n = 0u64;
    let mut put = |mpdu: &[u8], k: usize| {
        let mut pkt = radiotap(k);
        pkt.extend_from_slice(mpdu);
        let ts = n * 1_000_000;
        n += 1;
        match &mut w {
            W::Pcap(w) => w.write_packet(ts, &pkt),
            W::Pcapng(w) => w.write_packet(ts, &pkt),
        }
        .expect("write to memory");
    };
    for (k, (_, mpdu)) in frames.iter().enumerate() {
        for _ in 0..NOISE_PER_REPORT {
            put(&noise_mpdu(rng), k);
        }
        put(mpdu, k);
    }
    match w {
        W::Pcap(w) => w.finish(),
        W::Pcapng(w) => w.finish(),
    }
    .expect("finish in memory")
}

/// Due times of an open-loop step: `n` arrivals with exponential gaps,
/// scaled so the step lasts exactly `duration` — every run of a step
/// offers exactly its nominal rate.
pub fn arrival_schedule(rng: &mut Rng, n: usize, duration: Duration) -> Vec<Duration> {
    let gaps: Vec<f64> = (0..n).map(|_| -rng.unit().ln()).collect();
    let total: f64 = gaps.iter().sum();
    let scale = duration.as_secs_f64() / total;
    let mut at = 0.0;
    gaps.iter()
        .map(|g| {
            let due = Duration::from_secs_f64(at * scale);
            at += g;
            due
        })
        .collect()
}

/// Re-addresses a report frame: writes `mac` over the source address.
/// The offset comes from the encoder itself (two encodings that differ
/// only in their source), not from a hard-coded 802.11 layout.
#[derive(Debug, Clone, Copy)]
pub struct Readdress {
    offset: usize,
}

impl Readdress {
    pub fn probe(frame: &[u8]) -> Readdress {
        let parsed = BeamformingReportFrame::parse(frame).expect("valid report frame");
        let with = |src: [u8; 6]| {
            BeamformingReportFrame::new(
                parsed.destination(),
                MacAddr::new(src),
                parsed.destination(),
                parsed.sequence(),
                parsed.feedback().clone(),
            )
            .encode()
        };
        let (a, b) = (with([0x00; 6]), with([0xFF; 6]));
        let offset = a
            .iter()
            .zip(&b)
            .position(|(x, y)| x != y)
            .expect("source bytes");
        assert!(
            a.iter().zip(&b).filter(|(x, y)| x != y).count() == 6,
            "the source address is six contiguous bytes"
        );
        Readdress { offset }
    }

    pub fn apply(&self, frame: &mut [u8], mac: MacAddr) {
        frame[self.offset..self.offset + 6].copy_from_slice(&mac.octets());
    }
}

/// `wire_churn`'s population: `sources` MACs, each one session of
/// [`SESSION`] consecutive reports of one D1 stream. The session
/// content of source `i` is fixed; the seed only decides which MAC
/// carries it, i.e. how sessions hash across nodes and shards.
#[derive(Debug, Clone)]
pub struct MacPlan {
    pub sessions: Vec<Session>,
}

/// Reports per session.
pub const SESSION: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    pub mac: MacAddr,
    /// Index into [`Fixture::streams`].
    pub stream: usize,
    /// First report of the session within the stream.
    pub offset: usize,
    /// Enrolled under the wrong module.
    pub impostor: bool,
}

impl MacPlan {
    pub fn build(rng: &mut Rng, sources: usize, streams: usize, stream_len: usize) -> MacPlan {
        let ids = rng.permutation(sources);
        let sessions = (0..sources)
            .map(|i| Session {
                mac: MacAddr::station(0x0100_0000 + ids[i] as u64),
                stream: i % streams,
                offset: (i / streams * SESSION) % (stream_len - SESSION + 1),
                impostor: (i / streams) % 8 == 7,
            })
            .collect();
        MacPlan { sessions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule_and_mac_plan() {
        let schedule = |seed| arrival_schedule(&mut Rng::new(seed), 500, Duration::from_secs(2));
        assert_eq!(schedule(3), schedule(3));
        assert_ne!(schedule(3), schedule(4));
        let s = schedule(3);
        assert_eq!(s[0], Duration::ZERO);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.last().unwrap() < Duration::from_secs(2));

        let plan = |seed| MacPlan::build(&mut Rng::new(seed), 256, 8, 360).sessions;
        assert_eq!(plan(9), plan(9));
        let (a, b) = (plan(9), plan(10));
        assert_ne!(a, b);
        // The seed moves MACs only: session content is the same.
        let content = |p: &[Session]| -> Vec<_> {
            p.iter().map(|s| (s.stream, s.offset, s.impostor)).collect()
        };
        assert_eq!(content(&a), content(&b));
        let mut macs: Vec<_> = a.iter().map(|s| s.mac).collect();
        macs.sort();
        macs.dedup();
        assert_eq!(macs.len(), 256);
        assert_eq!(a.iter().filter(|s| s.impostor).count(), 32);
    }

    #[test]
    fn noise_frames_are_not_beamforming_candidates() {
        let mut rng = Rng::new(1);
        for _ in 0..64 {
            let f = noise_mpdu(&mut rng);
            assert!((40..=1500).contains(&f.len()));
            assert!(!deepcsi_capture::is_beamforming_candidate(&f));
        }
    }
}
