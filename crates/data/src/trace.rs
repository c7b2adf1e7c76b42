//! Trace and dataset containers.

use deepcsi_bfi::BeamformingFeedback;
use deepcsi_impair::DeviceId;

/// What kind of measurement a trace is (mirrors §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// D1: AP fixed at A, beamformees at position index 1..=9.
    D1Static {
        /// Beamformee position index (1..=9, Fig. 6 stars).
        position: usize,
    },
    /// D2: AP fixed at A ("fix1"/"fix2" groups of Table II).
    D2Fixed {
        /// Group id: 1 = fix1, 2 = fix2.
        group: u8,
        /// Trace index within the group.
        idx: u8,
    },
    /// D2: AP carried along A-B-C-D-B-A ("mob1"/"mob2" groups).
    D2Mobility {
        /// Group id: 1 = mob1, 2 = mob2.
        group: u8,
        /// Trace index within the group.
        idx: u8,
    },
}

/// One captured trace: the time series of beamforming feedbacks one
/// beamformee produced for one AP module in one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The AP's Wi-Fi module (the classification label).
    pub module: DeviceId,
    /// Which beamformee produced the feedback (1 or 2).
    pub beamformee: u8,
    /// The environment (room) id the trace was collected in.
    pub env_id: u64,
    /// Measurement kind.
    pub kind: TraceKind,
    /// Sounding timestamps \[s\].
    pub timestamps: Vec<f64>,
    /// The captured (quantized) feedback per sounding.
    pub snapshots: Vec<BeamformingFeedback>,
}

impl Trace {
    /// Number of soundings in the trace.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` when the trace holds no soundings.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
}

/// A set of traces (D1, D2, or any filtered view).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// The traces.
    pub traces: Vec<Trace>,
}

impl Dataset {
    /// Sorted list of distinct module ids present.
    pub fn modules(&self) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = self.traces.iter().map(|t| t.module).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Traces matching a predicate.
    pub fn filter<'a, F: Fn(&Trace) -> bool + 'a>(
        &'a self,
        f: F,
    ) -> impl Iterator<Item = &'a Trace> {
        self.traces.iter().filter(move |t| f(t))
    }

    /// Total number of feedback snapshots across all traces.
    pub fn num_snapshots(&self) -> usize {
        self.traces.iter().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_trace(module: u32, bf: u8, pos: usize) -> Trace {
        Trace {
            module: DeviceId(module),
            beamformee: bf,
            env_id: 0,
            kind: TraceKind::D1Static { position: pos },
            timestamps: vec![],
            snapshots: vec![],
        }
    }

    #[test]
    fn modules_are_deduped_and_sorted() {
        let ds = Dataset {
            traces: vec![
                dummy_trace(3, 1, 1),
                dummy_trace(1, 1, 1),
                dummy_trace(3, 2, 2),
            ],
        };
        assert_eq!(ds.modules(), vec![DeviceId(1), DeviceId(3)]);
    }

    #[test]
    fn filter_selects_by_predicate() {
        let ds = Dataset {
            traces: vec![
                dummy_trace(0, 1, 1),
                dummy_trace(0, 2, 1),
                dummy_trace(0, 1, 2),
            ],
        };
        let bf1: Vec<_> = ds.filter(|t| t.beamformee == 1).collect();
        assert_eq!(bf1.len(), 2);
    }

    #[test]
    fn empty_trace_reports_empty() {
        let t = dummy_trace(0, 1, 1);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
