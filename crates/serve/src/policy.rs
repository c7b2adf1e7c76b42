//! Decision policies: how per-report classifications become per-device
//! verdicts.
//!
//! DeepCSI's Fig. 15 stream-1-only study shows per-stream report quality
//! varies widely, so one fixed smoothing window is the wrong shape for
//! every device at once: clean streams wait longer than they need to,
//! and noisy impostors get the same benefit of the doubt as stable
//! registrants. [`DecisionPolicyConfig::build`] turns a [`PolicyKind`]
//! and its knobs into a [`DecisionPolicy`]; the engine instantiates one
//! [`PolicyState`] per device stream and feeds it `(module, confidence)`
//! pairs; the state answers with a [`WindowedDecision`] and a
//! [`Verdict`] whenever asked.
//!
//! Three policies ship, one [`PolicyKind`] arm, one private state type
//! and one [`PolicySnapshot`] variant each:
//!
//! * [`PolicyKind::FixedMajority`] — the classic fixed-length majority
//!   window. This is the default and is *verdict-identical* to the
//!   pre-policy engine: same window, same [`VerdictPolicy`] gates, same
//!   tie-breaks.
//! * [`PolicyKind::ConfidenceWeighted`] — votes are weighted by
//!   per-report classifier confidence and the policy early-exits the
//!   moment one module holds [`DecisionPolicyConfig::posterior_mass`] of
//!   the window's confidence. Clean streams decide in a handful of
//!   reports instead of a full `min_observations` wait.
//! * [`PolicyKind::AdaptiveThreshold`] — per-device accept thresholds
//!   learned online from each device's own confidence distribution
//!   during a calibration warm-up. A stream whose confidence later falls
//!   below its own learned floor is flagged even when the majority
//!   module still matches — the impersonation case a pure majority vote
//!   cannot see. Thresholds only ratchet *tighter* online (upward drift
//!   re-calibrates; downward drift is treated as suspicion, never as a
//!   reason to loosen) — unless per-position calibration
//!   ([`DecisionPolicyConfig::per_position`]) is enabled, which
//!   re-profiles a stream whose confidence steps down (a device that
//!   *moved*) instead of flagging it forever.
//!
//! ```
//! use deepcsi_serve::{DecisionPolicyConfig, Verdict, VerdictPolicy, WindowConfig};
//!
//! let policy = DecisionPolicyConfig::default().build(WindowConfig::default(), VerdictPolicy::default());
//! let mut device = policy.new_state();
//! for _ in 0..12 {
//!     device.push(3, 0.9); // module 3, 90 % classifier confidence
//! }
//! assert_eq!(device.verdict(Some(3)), Verdict::Accept);
//! assert_eq!(device.verdict(Some(7)), Verdict::Reject);
//! assert_eq!(device.verdict(None), Verdict::Unknown); // unregistered
//! ```

use crate::registry::{Verdict, VerdictPolicy};
use crate::window::{DecisionWindow, WindowConfig, WindowSnapshot, WindowedDecision};
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// Which decision policy an engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Fixed-length majority window (the pre-policy engine behavior).
    #[default]
    FixedMajority,
    /// Confidence-weighted votes with posterior-mass early exit.
    ConfidenceWeighted,
    /// Per-device thresholds learned from the stream's own confidence.
    AdaptiveThreshold,
}

impl PolicyKind {
    /// Stable short name (`fixed` / `confidence` / `adaptive`), used in
    /// telemetry and audit events.
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyKind::FixedMajority => "fixed",
            PolicyKind::ConfidenceWeighted => "confidence",
            PolicyKind::AdaptiveThreshold => "adaptive",
        }
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fixed" | "fixed-majority" => Ok(PolicyKind::FixedMajority),
            "confidence" | "confidence-weighted" => Ok(PolicyKind::ConfidenceWeighted),
            "adaptive" | "adaptive-threshold" => Ok(PolicyKind::AdaptiveThreshold),
            other => Err(format!(
                "unknown policy {other:?} (expected fixed | confidence | adaptive)"
            )),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which policy to build, plus the knobs an operator can set.
///
/// The engine combines this with its [`WindowConfig`] and
/// [`VerdictPolicy`] (the smoothing and evidence gates every policy
/// shares) in [`DecisionPolicyConfig::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionPolicyConfig {
    /// Which policy to build.
    pub kind: PolicyKind,
    /// [`PolicyKind::ConfidenceWeighted`]: posterior mass one module must
    /// hold for a verdict, in `(0.5, 1]`.
    pub posterior_mass: f64,
    /// [`PolicyKind::AdaptiveThreshold`]: calibration warm-up length in
    /// reports.
    pub warmup: u64,
    /// [`PolicyKind::AdaptiveThreshold`]: per-position calibration. When
    /// set, the state treats its calibrated profile as describing *one
    /// serving position*:
    ///
    /// * downward drift beyond `mean − 4σ` re-enters calibration instead
    ///   of rejecting forever — the stream goes [`Verdict::Unknown`] while
    ///   a fresh profile is learned at the new operating point, and the
    ///   threshold is *replaced* (not ratcheted) when it completes;
    /// * the calibration also learns a position-local vote-fraction
    ///   gate, `vote_mean − 3σ_vote`, clamped to
    ///   `[0.505, min_vote_fraction]` — a position with honestly noisier
    ///   majorities still reaches verdicts, while a mismatching majority
    ///   (vote share for the *wrong* module) still rejects.
    ///
    /// Trade-off: a confidence collapse is no longer permanent evidence
    /// of impersonation — an impostor who matches the expected module at
    /// a stable (if lower) confidence can be accepted after the
    /// re-calibration window. Enable it for mobile/multi-position
    /// deployments; keep it off when devices are stationary.
    pub per_position: bool,
}

impl Default for DecisionPolicyConfig {
    fn default() -> Self {
        DecisionPolicyConfig {
            kind: PolicyKind::default(),
            posterior_mass: 0.9,
            warmup: 20,
            per_position: false,
        }
    }
}

/// ConfidenceWeighted: minimum total confidence weight before any
/// verdict (the early-exit floor — roughly "this many fully confident
/// reports").
const MIN_WEIGHT: f64 = 3.0;

/// AdaptiveThreshold: the accept threshold is `mean − MARGIN_SIGMAS · σ`
/// of the calibrated confidence (and the per-position vote gate is
/// `vote_mean − MARGIN_SIGMAS · σ_vote`).
const MARGIN_SIGMAS: f64 = 3.0;

/// AdaptiveThreshold: floor on a calibrated σ, so a perfectly stable
/// stream still tolerates tiny confidence jitter.
const MIN_SIGMA: f64 = 0.02;

/// AdaptiveThreshold: drift beyond `mean ± DRIFT_SIGMAS · σ` leaves the
/// calibrated band (upward always re-calibrates; downward only in
/// per-position mode).
const DRIFT_SIGMAS: f64 = 4.0;

impl DecisionPolicyConfig {
    /// Validates the configured policy and binds it to the engine's
    /// shared window and verdict gates.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (zero-length window, alpha outside
    /// `(0, 1]`, and for the policy being built a posterior mass outside
    /// `(0.5, 1]` or a zero warm-up), so a bad configuration fails on the
    /// caller thread instead of inside a worker.
    pub fn build(&self, window: WindowConfig, gates: VerdictPolicy) -> DecisionPolicy {
        drop(DecisionWindow::new(window));
        match self.kind {
            PolicyKind::FixedMajority => {}
            PolicyKind::ConfidenceWeighted => assert!(
                self.posterior_mass > 0.5 && self.posterior_mass <= 1.0,
                "posterior_mass must be in (0.5, 1], got {}",
                self.posterior_mass
            ),
            PolicyKind::AdaptiveThreshold => assert!(self.warmup > 0, "warmup must be positive"),
        }
        DecisionPolicy {
            cfg: *self,
            window,
            gates,
        }
    }
}

/// A validated policy: a factory for per-device [`PolicyState`]s.
///
/// The engine holds one policy and creates one state per device stream
/// (states never migrate between shards, so they need [`Send`] but not
/// [`Sync`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionPolicy {
    cfg: DecisionPolicyConfig,
    window: WindowConfig,
    gates: VerdictPolicy,
}

impl DecisionPolicy {
    /// Which policy this is.
    pub fn kind(&self) -> PolicyKind {
        self.cfg.kind
    }

    /// The policy's telemetry and audit label, [`PolicyKind::as_str`].
    pub fn name(&self) -> &'static str {
        self.cfg.kind.as_str()
    }

    /// Fresh evidence state for one device stream.
    pub fn new_state(&self) -> Box<dyn PolicyState> {
        match self.cfg.kind {
            PolicyKind::FixedMajority => Box::new(FixedMajorityState {
                window: DecisionWindow::new(self.window),
                gates: self.gates,
            }),
            PolicyKind::ConfidenceWeighted => Box::new(ConfidenceWeightedState {
                policy: *self,
                votes: VecDeque::with_capacity(self.window.len),
                weights: Vec::new(),
                ema: None,
                observations: 0,
            }),
            PolicyKind::AdaptiveThreshold => Box::new(AdaptiveThresholdState {
                policy: *self,
                window: DecisionWindow::new(self.window),
                calib: Welford::default(),
                vote_calib: Welford::default(),
                profile: None,
                threshold: None,
                vote_gate: None,
            }),
        }
    }

    /// Rebuilds a state from a [`PolicySnapshot`] under *this* policy's
    /// configuration.
    ///
    /// Returns `None` when the snapshot was taken under a different
    /// [`PolicyKind`] — restoring, say, adaptive floors into a
    /// fixed-majority engine would silently discard the learned gates —
    /// or when the image is one no live state could have produced (a
    /// vote for a module its weights do not cover, votes without a
    /// confidence EMA, non-finite weights, an out-of-range module id, see
    /// [`DecisionWindow::restore`]). A snapshot is untrusted input: a
    /// refused image never reaches a worker.
    ///
    /// Restoring under the same configuration the snapshot was taken
    /// with is *bit-exact*: the restored state answers
    /// [`decision`](PolicyState::decision) and
    /// [`verdict`](PolicyState::verdict) identically to the original at
    /// every step of any continued stream.
    pub fn restore_state(&self, snap: &PolicySnapshot) -> Option<Box<dyn PolicyState>> {
        Some(match (self.cfg.kind, snap) {
            (PolicyKind::FixedMajority, PolicySnapshot::Fixed { window }) => {
                Box::new(FixedMajorityState {
                    window: DecisionWindow::restore(self.window, window)?,
                    gates: self.gates,
                })
            }
            (
                PolicyKind::ConfidenceWeighted,
                PolicySnapshot::Confidence {
                    votes,
                    weights,
                    ema,
                    observations,
                },
            ) => {
                let live = ema.is_some() != votes.is_empty()
                    && (votes.len() as u64) <= *observations
                    && *observations < u64::MAX
                    && weights.iter().all(|w| w.is_finite() && *w >= 0.0)
                    && votes
                        .iter()
                        .all(|&(m, w)| m < weights.len() && w.is_finite() && w > 0.0);
                if !live {
                    return None;
                }
                let mut state = ConfidenceWeightedState {
                    policy: *self,
                    votes: votes.iter().copied().collect(),
                    weights: weights.clone(),
                    ema: *ema,
                    observations: *observations,
                };
                // A shorter restoring window drops the oldest votes
                // exactly as push() would have expired them (push only
                // evicts at len == window.len, so an over-full deque must
                // be trimmed here).
                while state.votes.len() > self.window.len {
                    let (expired, w) = state.votes.pop_front().expect("non-empty");
                    state.weights[expired] = (state.weights[expired] - w).max(0.0);
                }
                Box::new(state)
            }
            (
                PolicyKind::AdaptiveThreshold,
                PolicySnapshot::Adaptive {
                    window,
                    calib,
                    vote_calib,
                    profile,
                    threshold,
                    vote_gate,
                },
            ) => {
                // The two accumulators are filled and reset together.
                if calib.count != vote_calib.count {
                    return None;
                }
                Box::new(AdaptiveThresholdState {
                    policy: *self,
                    window: DecisionWindow::restore(self.window, window)?,
                    calib: *calib,
                    vote_calib: *vote_calib,
                    profile: *profile,
                    threshold: *threshold,
                    vote_gate: *vote_gate,
                })
            }
            _ => return None,
        })
    }
}

/// The accumulated evidence of one device stream under one policy.
pub trait PolicyState: Send + fmt::Debug {
    /// Feeds one classified report: predicted module and classifier
    /// confidence in `[0, 1]`.
    fn push(&mut self, module: usize, confidence: f64);

    /// The current smoothed decision; `None` before the first report
    /// (mirroring [`DecisionWindow::decision`]).
    fn decision(&self) -> Option<WindowedDecision>;

    /// The verdict given the registry's expected module for this stream
    /// (`None` when the source is unregistered, which is always
    /// [`Verdict::Unknown`]).
    fn verdict(&self, expected: Option<usize>) -> Verdict;

    /// A plain-data image of this state, restorable via
    /// [`DecisionPolicy::restore_state`].
    fn save(&self) -> PolicySnapshot;
}

/// Welford's online mean/variance accumulator — plain data, so it is
/// also its own snapshot image (part of [`PolicySnapshot::Adaptive`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    /// Samples accumulated.
    pub count: u64,
    /// Running mean.
    pub mean: f64,
    /// Sum of squared deviations (Welford's `M2`).
    pub m2: f64,
}

impl Welford {
    fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    fn sigma(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }
}

/// A policy-agnostic image of one device stream's evidence, produced by
/// [`PolicyState::save`] and consumed by
/// [`DecisionPolicy::restore_state`].
///
/// Snapshots carry *state*, not configuration: window length, gates,
/// margins, and warm-up come from the restoring policy. Restoring under
/// the same configuration is bit-exact; restoring under a different one
/// applies the new configuration to the saved evidence (e.g. a shorter
/// window drops the oldest votes).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySnapshot {
    /// [`PolicyKind::FixedMajority`] evidence: the decision window.
    Fixed {
        /// The smoothing window.
        window: WindowSnapshot,
    },
    /// [`PolicyKind::ConfidenceWeighted`] evidence.
    Confidence {
        /// Live `(module, clamped weight)` votes, oldest first.
        votes: Vec<(usize, f64)>,
        /// Summed weight per module — stored verbatim rather than
        /// recomputed so restore is bit-exact (a rebuilt sum can differ
        /// from the incrementally maintained one in the last ulp).
        weights: Vec<f64>,
        /// The confidence EMA.
        ema: Option<f64>,
        /// Total reports observed.
        observations: u64,
    },
    /// [`PolicyKind::AdaptiveThreshold`] evidence: window plus learned
    /// calibration.
    Adaptive {
        /// The smoothing window.
        window: WindowSnapshot,
        /// In-progress confidence calibration.
        calib: Welford,
        /// In-progress vote-fraction calibration.
        vote_calib: Welford,
        /// Last completed calibration `(mean, sigma)`.
        profile: Option<(f64, f64)>,
        /// The learned accept floor.
        threshold: Option<f64>,
        /// The learned position-local vote gate.
        vote_gate: Option<f64>,
    },
}

impl PolicySnapshot {
    /// Which policy this snapshot was taken under.
    pub fn kind(&self) -> PolicyKind {
        match self {
            PolicySnapshot::Fixed { .. } => PolicyKind::FixedMajority,
            PolicySnapshot::Confidence { .. } => PolicyKind::ConfidenceWeighted,
            PolicySnapshot::Adaptive { .. } => PolicyKind::AdaptiveThreshold,
        }
    }
}

// ---------------------------------------------------------------------------
// FixedMajority: a DecisionWindow gated by the VerdictPolicy.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FixedMajorityState {
    window: DecisionWindow,
    gates: VerdictPolicy,
}

impl PolicyState for FixedMajorityState {
    fn push(&mut self, module: usize, confidence: f64) {
        self.window.push(module, confidence);
    }

    fn decision(&self) -> Option<WindowedDecision> {
        self.window.decision()
    }

    fn verdict(&self, expected: Option<usize>) -> Verdict {
        let Some(expected) = expected else {
            return Verdict::Unknown;
        };
        match self.window.decision() {
            Some(d) => Verdict::from_decision(self.gates, expected, &d),
            None => Verdict::Unknown,
        }
    }

    fn save(&self) -> PolicySnapshot {
        PolicySnapshot::Fixed {
            window: self.window.snapshot(),
        }
    }
}

// ---------------------------------------------------------------------------
// ConfidenceWeighted
// ---------------------------------------------------------------------------

/// A zero-confidence report still occupies a window slot; this floor
/// keeps the weighted argmax well-defined without letting such a report
/// meaningfully sway the posterior.
const MIN_VOTE_WEIGHT: f64 = 1e-9;

/// Each report votes with weight equal to its classifier confidence; the
/// stream decides as soon as one module holds at least `posterior_mass`
/// of the total weight **and** the total weight clears [`MIN_WEIGHT`] —
/// so a clean stream of ~0.9-confidence reports reaches a verdict in
/// about `MIN_WEIGHT / 0.9` reports instead of waiting out a fixed
/// `min_observations` count. Noisy streams accumulate split weight and
/// simply keep waiting, exactly like an unstable majority.
#[derive(Debug, Clone)]
struct ConfidenceWeightedState {
    policy: DecisionPolicy,
    votes: VecDeque<(usize, f64)>,
    /// Summed confidence weight per module over the live window.
    weights: Vec<f64>,
    ema: Option<f64>,
    observations: u64,
}

impl ConfidenceWeightedState {
    /// `(leading module, its posterior mass, total weight)` over the
    /// window; `None` before the first report. Ties resolve to the
    /// smaller module id, like [`DecisionWindow`].
    fn posterior(&self) -> Option<(usize, f64, f64)> {
        if self.votes.is_empty() {
            return None;
        }
        let (module, &weight) = self
            .weights
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.partial_cmp(b).expect("finite").then(ib.cmp(ia)))
            .expect("weights non-empty");
        let total: f64 = self.weights.iter().sum();
        Some((module, weight / total, total))
    }
}

impl PolicyState for ConfidenceWeightedState {
    fn push(&mut self, module: usize, confidence: f64) {
        let weight = confidence.max(MIN_VOTE_WEIGHT);
        if module >= self.weights.len() {
            self.weights.resize(module + 1, 0.0);
        }
        if self.votes.len() == self.policy.window.len {
            let (expired, w) = self.votes.pop_front().expect("window non-empty");
            // Clamp at zero: summed floats can drift a hair negative.
            self.weights[expired] = (self.weights[expired] - w).max(0.0);
        }
        self.votes.push_back((module, weight));
        self.weights[module] += weight;
        self.ema = Some(match self.ema {
            None => confidence,
            Some(prev) => prev + self.policy.window.ema_alpha * (confidence - prev),
        });
        self.observations += 1;
    }

    fn decision(&self) -> Option<WindowedDecision> {
        let (module, mass, _) = self.posterior()?;
        Some(WindowedDecision {
            module,
            // The weighted analogue of the vote fraction: the leading
            // module's share of the window's confidence mass, in (0, 1].
            vote_fraction: mass,
            confidence_ema: self.ema.expect("set with first vote"),
            observations: self.observations,
        })
    }

    fn verdict(&self, expected: Option<usize>) -> Verdict {
        let Some(expected) = expected else {
            return Verdict::Unknown;
        };
        let Some((module, mass, total)) = self.posterior() else {
            return Verdict::Unknown;
        };
        if total < MIN_WEIGHT {
            return Verdict::Unknown;
        }
        // Two ways to a verdict:
        //  * the early exit — one module concentrates `posterior_mass`
        //    of the window's confidence, no matter how young the stream;
        //  * the fallback — the stream has served the same observation
        //    count the fixed policy demands and clears its (weighted)
        //    majority floor, so a stream the fixed window would decide
        //    is never left hanging just because its posterior is spread.
        let early = mass >= self.policy.cfg.posterior_mass;
        let fallback = self.observations >= self.policy.gates.min_observations
            && mass >= self.policy.gates.min_vote_fraction;
        if !early && !fallback {
            return Verdict::Unknown;
        }
        if module == expected {
            Verdict::Accept
        } else {
            Verdict::Reject
        }
    }

    fn save(&self) -> PolicySnapshot {
        PolicySnapshot::Confidence {
            votes: self.votes.iter().copied().collect(),
            weights: self.weights.clone(),
            ema: self.ema,
            observations: self.observations,
        }
    }
}

// ---------------------------------------------------------------------------
// AdaptiveThreshold
// ---------------------------------------------------------------------------

/// Hard floor of the learned per-position vote gate: a strict majority.
/// However noisy a position's calibration window was, the leading module
/// must still out-vote all others combined before any verdict.
const MIN_ADAPTIVE_VOTE_GATE: f64 = 0.505;

/// The first `warmup` reports calibrate a per-device profile of the
/// *smoothed* confidence track (mean and σ of the EMA, via Welford's
/// method); after that the stream must keep its confidence EMA above
/// `mean − MARGIN_SIGMAS · σ` to stay accepted. A majority-matching
/// stream whose confidence collapses — the low-quality impersonation a
/// fixed majority vote happily accepts — is flagged as
/// [`Verdict::Reject`].
///
/// Drift handling is deliberately asymmetric: confidence drifting
/// *above* the calibrated band re-enters calibration (the channel got
/// cleaner; the threshold may ratchet up), while confidence drifting
/// *below* is exactly the anomaly the policy exists to flag, so it
/// never loosens the threshold — unless per-position mode says the
/// device moved. Otherwise loosening requires re-registering the
/// device, which resets the state.
#[derive(Debug, Clone)]
struct AdaptiveThresholdState {
    policy: DecisionPolicy,
    window: DecisionWindow,
    /// The in-progress calibration (initial warm-up or a drift
    /// re-calibration).
    calib: Welford,
    /// Vote-fraction statistics collected alongside `calib`
    /// (per-position mode only).
    vote_calib: Welford,
    /// The last completed calibration: `(mean, sigma)`.
    profile: Option<(f64, f64)>,
    /// The learned accept floor; only ever ratchets upward, unless
    /// per-position mode re-calibrates after a position change.
    threshold: Option<f64>,
    /// The learned position-local vote-fraction gate (per-position mode
    /// only); `None` falls back to the configured `min_vote_fraction`.
    vote_gate: Option<f64>,
}

impl AdaptiveThresholdState {
    /// `true` while a (re-)calibration warm-up is collecting reports.
    fn calibrating(&self) -> bool {
        self.calib.count < self.policy.cfg.warmup
    }

    fn finish_calibration(&mut self) {
        let sigma = self.calib.sigma().max(MIN_SIGMA);
        let mean = self.calib.mean;
        let candidate = (mean - MARGIN_SIGMAS * sigma).max(0.0);
        if self.policy.cfg.per_position {
            // The profile describes *this* position: replace, don't
            // ratchet, so a stream that moved somewhere noisier can
            // settle at its new operating point.
            self.threshold = Some(candidate);
            let vote_sigma = self.vote_calib.sigma().max(MIN_SIGMA);
            let vote_floor = self.vote_calib.mean - MARGIN_SIGMAS * vote_sigma;
            self.vote_gate = Some(
                vote_floor.clamp(
                    MIN_ADAPTIVE_VOTE_GATE,
                    // Never *looser* than a strict majority, never *tighter*
                    // than the operator's configured gate.
                    self.policy
                        .gates
                        .min_vote_fraction
                        .max(MIN_ADAPTIVE_VOTE_GATE),
                ),
            );
        } else {
            // Ratchet: re-calibration may tighten the floor, never
            // loosen it.
            self.threshold = Some(match self.threshold {
                None => candidate,
                Some(old) => old.max(candidate),
            });
        }
        self.profile = Some((mean, sigma));
    }

    /// The majority gates this state currently answers to: the
    /// configured [`VerdictPolicy`], with the vote-fraction floor
    /// replaced by the learned position-local gate when one exists.
    fn effective_gates(&self) -> VerdictPolicy {
        let mut gates = self.policy.gates;
        if let Some(gate) = self.vote_gate {
            gates.min_vote_fraction = gate;
        }
        gates
    }
}

impl PolicyState for AdaptiveThresholdState {
    fn push(&mut self, module: usize, confidence: f64) {
        self.window.push(module, confidence);
        // Calibrate on the *smoothed* confidence track — the same EMA
        // the verdict later compares against the threshold, so the
        // learned band has the statistics of the quantity it gates
        // (per-report confidence is far noisier than its EMA).
        let (ema, vote) = match self.window.decision() {
            Some(d) => (d.confidence_ema, d.vote_fraction),
            None => (confidence, 1.0),
        };
        if self.calibrating() {
            self.calib.add(ema);
            self.vote_calib.add(vote);
            if !self.calibrating() {
                self.finish_calibration();
            }
            return;
        }
        // Calibrated: watch for drift out of the calibrated band. A
        // cleaner channel re-calibrates (and can only tighten the
        // floor). Downward drift is the anomaly the verdict below flags
        // — except in per-position mode, where it means "the device
        // moved": the whole profile is discarded and the stream answers
        // Unknown until a fresh position profile is learned.
        if let Some((mean, sigma)) = self.profile {
            if ema > mean + DRIFT_SIGMAS * sigma {
                self.calib = Welford::default();
                self.vote_calib = Welford::default();
                self.calib.add(ema);
                self.vote_calib.add(vote);
            } else if self.policy.cfg.per_position && ema < mean - DRIFT_SIGMAS * sigma {
                // The stream moved. The window's evidence is as stale as
                // the profile: while it drains, its vote fraction decays
                // only gradually from the old position's values, and a
                // gate calibrated against that transient overshoots the
                // new position's steady state. Restart the window along
                // with the calibration so both the threshold and the
                // vote gate are learned from post-move statistics only
                // (the `min_observations` gate keeps verdicts Unknown
                // while the fresh window refills).
                self.window = DecisionWindow::new(self.policy.window);
                self.window.push(module, confidence);
                self.calib = Welford::default();
                self.vote_calib = Welford::default();
                self.profile = None;
                self.threshold = None;
                self.vote_gate = None;
                let (ema, vote) = match self.window.decision() {
                    Some(d) => (d.confidence_ema, d.vote_fraction),
                    None => (confidence, 1.0),
                };
                self.calib.add(ema);
                self.vote_calib.add(vote);
            }
        }
    }

    fn decision(&self) -> Option<WindowedDecision> {
        self.window.decision()
    }

    fn verdict(&self, expected: Option<usize>) -> Verdict {
        let Some(expected) = expected else {
            return Verdict::Unknown;
        };
        let Some(d) = self.window.decision() else {
            return Verdict::Unknown;
        };
        // The shared majority gates come first: a confidently
        // mismatching majority is an impersonation regardless of
        // calibration progress, and thin evidence stays Unknown. In
        // per-position mode the vote gate is the learned position-local
        // one (never looser than a strict majority).
        let base = Verdict::from_decision(self.effective_gates(), expected, &d);
        if base != Verdict::Accept {
            return base;
        }
        let Some(threshold) = self.threshold else {
            // Matching majority, still calibrating: no verdict yet.
            return Verdict::Unknown;
        };
        if d.confidence_ema >= threshold {
            Verdict::Accept
        } else {
            // The right module at the wrong confidence: flagged.
            Verdict::Reject
        }
    }

    fn save(&self) -> PolicySnapshot {
        PolicySnapshot::Adaptive {
            window: self.window.snapshot(),
            calib: self.calib,
            vote_calib: self.vote_calib,
            profile: self.profile,
            threshold: self.threshold,
            vote_gate: self.vote_gate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> WindowConfig {
        WindowConfig {
            len: 25,
            ema_alpha: 0.2,
        }
    }

    fn gates() -> VerdictPolicy {
        VerdictPolicy {
            min_observations: 10,
            min_vote_fraction: 0.6,
        }
    }

    const KINDS: [PolicyKind; 3] = [
        PolicyKind::FixedMajority,
        PolicyKind::ConfidenceWeighted,
        PolicyKind::AdaptiveThreshold,
    ];

    fn policy(kind: PolicyKind) -> DecisionPolicy {
        DecisionPolicyConfig {
            kind,
            ..DecisionPolicyConfig::default()
        }
        .build(window(), gates())
    }

    fn adaptive(warmup: u64, per_position: bool) -> DecisionPolicy {
        DecisionPolicyConfig {
            kind: PolicyKind::AdaptiveThreshold,
            warmup,
            per_position,
            ..DecisionPolicyConfig::default()
        }
        .build(window(), gates())
    }

    fn confidence(posterior_mass: f64) -> DecisionPolicy {
        DecisionPolicyConfig {
            kind: PolicyKind::ConfidenceWeighted,
            posterior_mass,
            ..DecisionPolicyConfig::default()
        }
        .build(window(), gates())
    }

    /// The learned `(threshold, vote_gate)` of an adaptive state, read
    /// through its plain-data image.
    fn learned(s: &dyn PolicyState) -> (Option<f64>, Option<f64>) {
        match s.save() {
            PolicySnapshot::Adaptive {
                threshold,
                vote_gate,
                ..
            } => (threshold, vote_gate),
            other => panic!("not an adaptive state: {other:?}"),
        }
    }

    #[test]
    fn policy_kind_parses_and_displays() {
        for (s, k) in [
            ("fixed", PolicyKind::FixedMajority),
            ("confidence", PolicyKind::ConfidenceWeighted),
            ("adaptive", PolicyKind::AdaptiveThreshold),
        ] {
            assert_eq!(s.parse::<PolicyKind>().unwrap(), k);
            assert_eq!(k.to_string(), s);
            assert_eq!(k.as_str(), s);
        }
        assert!("bogus".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn config_builds_every_kind() {
        for kind in KINDS {
            let policy = policy(kind);
            assert_eq!(policy.kind(), kind);
            assert_eq!(policy.name(), kind.to_string());
            let mut s = policy.new_state();
            assert!(s.decision().is_none(), "{kind}: fresh state has decided");
            assert_eq!(s.verdict(Some(0)), Verdict::Unknown);
            assert_eq!(s.save().kind(), kind);
            s.push(0, 0.9);
            assert!(s.decision().is_some(), "{kind}: one push yields a decision");
        }
    }

    #[test]
    fn unregistered_is_unknown_under_every_policy() {
        for kind in KINDS {
            let mut s = policy(kind).new_state();
            for _ in 0..50 {
                s.push(1, 0.95);
            }
            assert_eq!(s.verdict(None), Verdict::Unknown, "{kind}");
        }
    }

    #[test]
    fn fixed_majority_replicates_legacy_verdicts() {
        // Pseudo-random (module, confidence) streams: the policy state's
        // verdict must equal a bare window judged by the shared gates at
        // every step.
        let policy = policy(PolicyKind::FixedMajority);
        for seed in 0..7u64 {
            let mut s = policy.new_state();
            let mut legacy = DecisionWindow::new(window());
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..60 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let module = (x >> 33) as usize % 4;
                let confidence = ((x >> 11) % 1000) as f64 / 1000.0;
                s.push(module, confidence);
                legacy.push(module, confidence);
                let want = legacy
                    .decision()
                    .map_or(Verdict::Unknown, |d| Verdict::from_decision(gates(), 2, &d));
                assert_eq!(s.verdict(Some(2)), want);
                assert_eq!(s.decision(), legacy.decision());
            }
        }
    }

    #[test]
    fn confidence_weighted_early_exits_on_clean_streams() {
        let mut s = confidence(0.9).new_state();
        let mut decided_at = None;
        for n in 1..=20u64 {
            s.push(3, 0.92);
            if decided_at.is_none() && s.verdict(Some(3)) != Verdict::Unknown {
                decided_at = Some(n);
            }
        }
        let decided_at = decided_at.expect("clean stream must decide");
        assert!(
            decided_at <= gates().min_observations / 2,
            "decided at {decided_at}, not an early exit"
        );
        assert_eq!(s.verdict(Some(3)), Verdict::Accept);
        assert_eq!(s.verdict(Some(1)), Verdict::Reject);
    }

    #[test]
    fn confidence_weighted_waits_on_split_streams() {
        let mut s = confidence(0.9).new_state();
        for k in 0..40 {
            s.push(k % 2, 0.9); // perfectly split posterior
        }
        assert_eq!(s.verdict(Some(0)), Verdict::Unknown);
    }

    #[test]
    fn confidence_weighted_discounts_low_confidence_votes() {
        let mut s = confidence(0.8).new_state();
        // Three guesses at module 1 with almost no confidence, one
        // confident report for module 0: weight, not count, wins.
        for _ in 0..3 {
            s.push(1, 0.05);
        }
        s.push(0, 0.95);
        let d = s.decision().unwrap();
        assert_eq!(d.module, 0);
        assert!(d.vote_fraction > 0.8, "posterior {}", d.vote_fraction);
    }

    #[test]
    fn confidence_weighted_survives_zero_confidence() {
        let mut s = confidence(0.9).new_state();
        for _ in 0..30 {
            s.push(0, 0.0);
        }
        let d = s.decision().unwrap();
        assert_eq!(d.module, 0);
        assert!(d.vote_fraction > 0.0 && d.vote_fraction <= 1.0);
        // Total weight never clears MIN_WEIGHT → no verdict.
        assert_eq!(s.verdict(Some(0)), Verdict::Unknown);
    }

    #[test]
    fn adaptive_flags_confidence_collapse_on_matching_module() {
        let mut s = adaptive(10, false).new_state();
        for _ in 0..15 {
            s.push(0, 0.95);
        }
        assert_eq!(s.verdict(Some(0)), Verdict::Accept);
        // Same module, collapsed confidence: a fixed majority would keep
        // accepting; the adaptive floor flags it.
        for _ in 0..25 {
            s.push(0, 0.55);
        }
        assert_eq!(s.verdict(Some(0)), Verdict::Reject);
    }

    #[test]
    fn adaptive_rejects_mismatching_majority_even_during_warmup() {
        let policy = adaptive(100, false); // warm-up far beyond the pushes below
        let mut s = policy.new_state();
        for _ in 0..20 {
            s.push(5, 0.9);
        }
        assert_eq!(s.verdict(Some(0)), Verdict::Reject);
        // …while a *matching* majority mid-warm-up stays Unknown.
        let mut s = policy.new_state();
        for _ in 0..20 {
            s.push(0, 0.9);
        }
        assert_eq!(s.verdict(Some(0)), Verdict::Unknown);
    }

    #[test]
    fn adaptive_threshold_only_ratchets_tighter() {
        let mut s = adaptive(10, false).new_state();
        for _ in 0..10 {
            s.push(0, 0.7);
        }
        let first = learned(s.as_ref()).0.expect("calibrated");
        // The channel gets much cleaner: upward drift re-calibrates…
        for _ in 0..60 {
            s.push(0, 0.97);
        }
        let second = learned(s.as_ref()).0.expect("still calibrated");
        assert!(
            second > first,
            "upward drift should tighten the floor ({first} → {second})"
        );
        // …but a later confidence collapse can never loosen it back.
        for _ in 0..60 {
            s.push(0, 0.5);
        }
        assert!(learned(s.as_ref()).0.unwrap() >= second);
        assert_eq!(s.verdict(Some(0)), Verdict::Reject);
    }

    #[test]
    fn reregistration_reuses_stream_evidence_against_the_new_identity() {
        // The registry owns the MAC → module mapping; policy state only
        // knows the stream. Re-registering a source to a new module must
        // immediately re-evaluate the same evidence against the new
        // expectation — here flipping Accept to Reject without any new
        // reports.
        let mut s = policy(PolicyKind::FixedMajority).new_state();
        for _ in 0..15 {
            s.push(4, 0.9);
        }
        assert_eq!(s.verdict(Some(4)), Verdict::Accept);
        assert_eq!(s.verdict(Some(6)), Verdict::Reject);
        // The evidence itself is unchanged.
        assert_eq!(s.decision().unwrap().observations, 15);
    }

    #[test]
    fn per_position_recovers_after_a_position_change() {
        let run = |per_position: bool| {
            let mut s = adaptive(10, per_position).new_state();
            // Position A: clean, high-confidence stream.
            for _ in 0..15 {
                s.push(0, 0.95);
            }
            assert_eq!(s.verdict(Some(0)), Verdict::Accept);
            // The device moves: same true identity, markedly lower but
            // stable confidence at position B.
            for _ in 0..120 {
                s.push(0, 0.62);
            }
            s.verdict(Some(0))
        };
        // The ratchet-only policy flags the move as a collapse forever…
        assert_eq!(run(false), Verdict::Reject);
        // …while per-position calibration re-profiles and recovers.
        assert_eq!(run(true), Verdict::Accept);
    }

    #[test]
    fn per_position_stays_unknown_while_reprofiling() {
        let mut s = adaptive(20, true).new_state();
        for _ in 0..25 {
            s.push(0, 0.95);
        }
        assert_eq!(s.verdict(Some(0)), Verdict::Accept);
        // Confidence steps down; push until the drift detector trips
        // (profile discarded), then the stream must answer Unknown —
        // never a stale Accept — while the new profile is learned.
        let mut saw_unknown = false;
        for _ in 0..30 {
            s.push(0, 0.6);
            match s.verdict(Some(0)) {
                Verdict::Unknown => {
                    saw_unknown = true;
                    break;
                }
                // Before the detector trips the old floor still rejects.
                Verdict::Reject | Verdict::Accept => {}
            }
        }
        assert!(saw_unknown, "re-profiling never went through Unknown");
    }

    #[test]
    fn per_position_vote_gate_never_drops_below_strict_majority() {
        let mut s = adaptive(10, true).new_state();
        // A noisy calibration window: votes split 60/40, so the unclamped
        // gate (vote mean − 3σ ≈ 0.28) falls below a strict majority.
        for k in 0..10 {
            s.push(usize::from(k % 5 >= 3), 0.9);
        }
        let gate = learned(s.as_ref()).1.expect("calibrated");
        assert_eq!(
            gate, MIN_ADAPTIVE_VOTE_GATE,
            "vote gate {gate} escaped its clamp"
        );
        // A wrong-module majority still rejects under the learned gate.
        for _ in 0..30 {
            s.push(3, 0.9);
        }
        assert_eq!(s.verdict(Some(0)), Verdict::Reject);
    }

    #[test]
    #[should_panic(expected = "posterior_mass")]
    fn posterior_mass_below_majority_panics() {
        let _ = confidence(0.4);
    }

    #[test]
    #[should_panic(expected = "warmup")]
    fn zero_warmup_panics() {
        let _ = adaptive(0, false);
    }
}
