//! Per-device sliding-window decision smoothing.
//!
//! One classified report is noisy; DeepCSI-style deployments decide from
//! many (§IV-A groups feedback per beamformee). A [`DecisionWindow`]
//! keeps the last `len` per-report predictions and produces a majority
//! vote plus an exponentially-smoothed confidence, so a device's verdict
//! reflects the stream, not the latest packet.
//!
//! The window is the evidence store behind the default
//! [`FixedMajority`](crate::PolicyKind::FixedMajority) policy and the
//! [`AdaptiveThreshold`](crate::PolicyKind::AdaptiveThreshold) majority
//! track; the [`ConfidenceWeighted`](crate::PolicyKind::ConfidenceWeighted)
//! policy replaces it with a weighted variant.

use std::collections::VecDeque;

/// Sliding-window configuration.
///
/// ```
/// use deepcsi_serve::WindowConfig;
///
/// let cfg = WindowConfig::default();
/// assert_eq!(cfg.len, 25);
/// assert!(cfg.ema_alpha > 0.0 && cfg.ema_alpha <= 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Number of most-recent reports that vote.
    pub len: usize,
    /// EMA coefficient for the confidence track (weight of the newest
    /// observation, in `(0, 1]`). An alpha of exactly `1.0` disables
    /// smoothing: the EMA is always the latest report's confidence.
    pub ema_alpha: f64,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            len: 25,
            ema_alpha: 0.2,
        }
    }
}

/// The smoothed state of one device's report stream.
///
/// ```
/// use deepcsi_serve::{DecisionWindow, WindowConfig};
///
/// let mut w = DecisionWindow::new(WindowConfig { len: 3, ema_alpha: 0.5 });
/// assert!(w.decision().is_none()); // no reports yet
/// for module in [7, 7, 2] {
///     w.push(module, 0.9);
/// }
/// let d = w.decision().unwrap();
/// assert_eq!(d.module, 7);
/// assert!((d.vote_fraction - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(d.observations, 3);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionWindow {
    cfg: WindowConfig,
    votes: VecDeque<usize>,
    counts: Vec<u32>,
    ema: Option<f64>,
    observations: u64,
}

/// A windowed identity decision for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedDecision {
    /// Majority module id over the window (ties resolve to the smaller
    /// id, deterministically).
    pub module: usize,
    /// The winning module's share of the window, in `(0, 1]`.
    ///
    /// Under a counted majority ([`DecisionWindow`]) this is the
    /// fraction of window votes agreeing with `module`; the
    /// [`ConfidenceWeighted`](crate::PolicyKind::ConfidenceWeighted) policy reports
    /// its share of the window's confidence *mass* here instead. Either
    /// way the range is `(0, 1]` — a decision only exists once at least
    /// one report voted, and the winner holds at least that vote —
    /// which `serve/tests/proptests.rs` pins as a property.
    pub vote_fraction: f64,
    /// Exponential moving average of per-report classifier confidence.
    pub confidence_ema: f64,
    /// Total reports ever observed for this device.
    pub observations: u64,
}

impl DecisionWindow {
    /// Creates an empty window.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length window or an alpha outside `(0, 1]`.
    pub fn new(cfg: WindowConfig) -> Self {
        assert!(cfg.len > 0, "window length must be positive");
        assert!(
            cfg.ema_alpha > 0.0 && cfg.ema_alpha <= 1.0,
            "ema_alpha must be in (0, 1]"
        );
        DecisionWindow {
            cfg,
            votes: VecDeque::with_capacity(cfg.len),
            counts: Vec::new(),
            ema: None,
            observations: 0,
        }
    }

    /// Feeds one classified report (predicted module + classifier
    /// confidence in `[0, 1]`).
    pub fn push(&mut self, module: usize, confidence: f64) {
        if module >= self.counts.len() {
            self.counts.resize(module + 1, 0);
        }
        if self.votes.len() == self.cfg.len {
            let expired = self.votes.pop_front().expect("window non-empty");
            self.counts[expired] -= 1;
        }
        self.votes.push_back(module);
        self.counts[module] += 1;
        self.ema = Some(match self.ema {
            None => confidence,
            Some(prev) => prev + self.cfg.ema_alpha * (confidence - prev),
        });
        self.observations += 1;
    }

    /// The current decision.
    ///
    /// Contract: returns `None` if and only if no report has ever been
    /// pushed; from the first [`push`](DecisionWindow::push) onward a
    /// decision is always available (and its `vote_fraction` is in
    /// `(0, 1]`).
    ///
    /// ```
    /// use deepcsi_serve::{DecisionWindow, WindowConfig};
    ///
    /// let mut w = DecisionWindow::new(WindowConfig::default());
    /// assert!(w.decision().is_none()); // None before the first push…
    /// w.push(0, 0.5);
    /// assert!(w.decision().is_some()); // …Some ever after
    /// ```
    pub fn decision(&self) -> Option<WindowedDecision> {
        if self.votes.is_empty() {
            return None;
        }
        let (module, &count) = self
            .counts
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .expect("counts non-empty");
        Some(WindowedDecision {
            module,
            vote_fraction: f64::from(count) / self.votes.len() as f64,
            confidence_ema: self.ema.expect("set with first vote"),
            observations: self.observations,
        })
    }

    /// Number of votes currently in the window.
    pub fn len(&self) -> usize {
        self.votes.len()
    }

    /// `true` before the first report.
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }

    /// A plain-data image of the live evidence, for policy-state
    /// snapshot/restore ([`DecisionWindow::restore`]).
    pub fn snapshot(&self) -> WindowSnapshot {
        WindowSnapshot {
            votes: self.votes.iter().copied().collect(),
            ema: self.ema,
            observations: self.observations,
        }
    }

    /// Rebuilds a window from a snapshot under `cfg`, or `None` for an
    /// image no live window produces: votes without a confidence EMA (or
    /// an EMA without votes), fewer observations than votes, a count the
    /// next push would overflow, or a module id above 4095. Vote counts
    /// are indexed by module id, so that cap keeps an id read from a file
    /// from sizing an allocation.
    ///
    /// Restoring under the *same* configuration the snapshot was taken
    /// with is bit-exact: counts are integers rebuilt from the stored
    /// votes and the EMA is copied verbatim, so
    /// [`decision`](DecisionWindow::decision) answers identically before
    /// and after a round-trip. A shorter window drops the oldest votes
    /// (exactly as if they had expired).
    ///
    /// ```
    /// use deepcsi_serve::{DecisionWindow, WindowConfig};
    ///
    /// let cfg = WindowConfig { len: 3, ema_alpha: 0.5 };
    /// let mut w = DecisionWindow::new(cfg);
    /// for module in [7, 7, 2] {
    ///     w.push(module, 0.9);
    /// }
    /// let restored = DecisionWindow::restore(cfg, &w.snapshot()).unwrap();
    /// assert_eq!(restored.decision(), w.decision());
    ///
    /// // Shrinking keeps the newest votes: [7, 2] is a 1–1 tie → module 2.
    /// let shorter = WindowConfig { len: 2, ..cfg };
    /// let restored = DecisionWindow::restore(shorter, &w.snapshot()).unwrap();
    /// assert_eq!(restored.decision().unwrap().module, 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, like
    /// [`new`](DecisionWindow::new).
    pub fn restore(cfg: WindowConfig, snap: &WindowSnapshot) -> Option<DecisionWindow> {
        let mut w = DecisionWindow::new(cfg);
        let live = snap.ema.is_some() != snap.votes.is_empty()
            && (snap.votes.len() as u64) <= snap.observations
            && snap.observations < u64::MAX
            && snap.votes.iter().all(|&m| m <= MAX_RESTORED_MODULE);
        if !live {
            return None;
        }
        let skip = snap.votes.len().saturating_sub(cfg.len);
        for &module in snap.votes.iter().skip(skip) {
            if module >= w.counts.len() {
                w.counts.resize(module + 1, 0);
            }
            w.votes.push_back(module);
            w.counts[module] += 1;
        }
        w.ema = snap.ema;
        w.observations = snap.observations;
        Some(w)
    }
}

/// The largest module id [`DecisionWindow::restore`] accepts: at most
/// 16 KiB of vote counts per restored device, far above the class count
/// of any classifier this engine serves.
const MAX_RESTORED_MODULE: usize = 4095;

/// Plain-data image of a [`DecisionWindow`] (see
/// [`DecisionWindow::snapshot`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowSnapshot {
    /// Live votes, oldest first.
    pub votes: Vec<usize>,
    /// The confidence EMA (`None` before the first vote).
    pub ema: Option<f64>,
    /// Total reports ever observed.
    pub observations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(len: usize) -> DecisionWindow {
        DecisionWindow::new(WindowConfig {
            len,
            ema_alpha: 0.5,
        })
    }

    #[test]
    fn empty_window_has_no_decision() {
        assert!(window(4).decision().is_none());
    }

    #[test]
    fn majority_vote_wins() {
        let mut w = window(5);
        for m in [1, 1, 2, 1, 2] {
            w.push(m, 0.9);
        }
        let d = w.decision().unwrap();
        assert_eq!(d.module, 1);
        assert!((d.vote_fraction - 0.6).abs() < 1e-9);
        assert_eq!(d.observations, 5);
    }

    #[test]
    fn old_votes_expire() {
        let mut w = window(3);
        for m in [7, 7, 7, 2, 2, 2] {
            w.push(m, 0.5);
        }
        assert_eq!(w.decision().unwrap().module, 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w.decision().unwrap().observations, 6);
    }

    #[test]
    fn ties_resolve_to_smaller_module() {
        let mut w = window(4);
        for m in [3, 0, 3, 0] {
            w.push(m, 0.5);
        }
        assert_eq!(w.decision().unwrap().module, 0);
    }

    #[test]
    fn exact_fifty_fifty_ties_are_order_independent() {
        // Every interleaving of a perfectly split window must decide the
        // same way: the smaller module id, deterministically.
        let orders: [[usize; 4]; 6] = [
            [2, 2, 5, 5],
            [2, 5, 2, 5],
            [2, 5, 5, 2],
            [5, 2, 2, 5],
            [5, 2, 5, 2],
            [5, 5, 2, 2],
        ];
        for order in orders {
            let mut w = window(4);
            for m in order {
                w.push(m, 0.7);
            }
            let d = w.decision().unwrap();
            assert_eq!(d.module, 2, "order {order:?} broke tie determinism");
            assert!((d.vote_fraction - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn ema_tracks_confidence() {
        let mut w = window(8);
        w.push(0, 1.0);
        assert!((w.decision().unwrap().confidence_ema - 1.0).abs() < 1e-9);
        w.push(0, 0.0);
        // α = 0.5 → 1.0 + 0.5(0 − 1) = 0.5.
        assert!((w.decision().unwrap().confidence_ema - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ema_alpha_one_is_the_latest_confidence() {
        let mut w = DecisionWindow::new(WindowConfig {
            len: 4,
            ema_alpha: 1.0,
        });
        for c in [0.9, 0.1, 0.6, 0.33] {
            w.push(0, c);
            let ema = w.decision().unwrap().confidence_ema;
            assert!(
                (ema - c).abs() < 1e-12,
                "alpha=1.0 must track the newest confidence exactly (got {ema}, want {c})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn zero_length_window_panics() {
        let _ = window(0);
    }
}
