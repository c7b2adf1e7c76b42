//! The demo pipeline as the cluster tier streams it.
//!
//! The recipe itself — dataset, training, [`DemoConfig`] — lives in
//! [`deepcsi_core::demo`] and is re-exported here; this module adds
//! [`demo_frames`], the replay a [`crate::ClusterClient`] sends. Every
//! node process rebuilds the identical model from the same
//! `DemoConfig`, so a sharded cluster's merged verdicts are
//! byte-identical to a single-process engine over the same replay.

pub use deepcsi_core::demo::{demo_dataset, DemoConfig};
use deepcsi_core::Authenticator;
use deepcsi_data::Dataset;
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_serve::ReplaySource;

/// Trains the demo classifier on `ds` for `cfg.epochs` epochs
/// ([`deepcsi_core::demo::train`] without the accuracy).
pub fn demo_model(cfg: &DemoConfig, ds: &Dataset) -> Authenticator {
    deepcsi_core::demo::train(ds, cfg.epochs).0
}

/// The dataset's replay as `(source MAC, raw MPDU)` pairs, in arrival
/// order — what a [`crate::ClusterClient`] streams.
pub fn demo_frames(ds: &Dataset) -> Vec<(MacAddr, Vec<u8>)> {
    let replay = ReplaySource::from_dataset(ds);
    replay
        .frames()
        .map(|bytes| {
            let mac = BeamformingReportFrame::parse(bytes)
                .expect("replay frames are valid")
                .source();
            (mac, bytes.to_vec())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_carry_their_trace_macs() {
        let cfg = DemoConfig::default();
        let ds = demo_dataset(&cfg);
        let frames = demo_frames(&ds);
        assert_eq!(frames.len(), ds.num_snapshots());
        let expected = ReplaySource::source_mac(&ds.traces[0]);
        assert!(frames.iter().any(|(mac, _)| *mac == expected));
    }
}
