//! The device registry: which module identity each beamformee stream is
//! expected to present, and the accept/reject/unknown policy.

use crate::window::WindowedDecision;
use deepcsi_frame::MacAddr;
use deepcsi_impair::DeviceId;
use std::collections::HashMap;

/// Expected module identity per registered source address.
///
/// ```
/// use deepcsi_frame::MacAddr;
/// use deepcsi_impair::DeviceId;
/// use deepcsi_serve::DeviceRegistry;
///
/// let mut reg = DeviceRegistry::new();
/// reg.register(MacAddr::station(1), DeviceId(3));
/// assert_eq!(reg.expected(MacAddr::station(1)), Some(DeviceId(3)));
/// assert_eq!(reg.expected(MacAddr::station(2)), None);
///
/// // Re-registering overwrites: the stream keeps its evidence, but the
/// // policy now evaluates it against the new identity.
/// reg.register(MacAddr::station(1), DeviceId(7));
/// assert_eq!(reg.expected(MacAddr::station(1)), Some(DeviceId(7)));
/// assert_eq!(reg.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceRegistry {
    expected: HashMap<MacAddr, DeviceId>,
}

impl DeviceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or overwrites) the expected module for a source
    /// address.
    pub fn register(&mut self, mac: MacAddr, module: DeviceId) {
        self.expected.insert(mac, module);
    }

    /// The expected module for a source, if registered.
    pub fn expected(&self, mac: MacAddr) -> Option<DeviceId> {
        self.expected.get(&mac).copied()
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.expected.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.expected.is_empty()
    }

    /// Iterates over `(source, expected module)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MacAddr, DeviceId)> + '_ {
        self.expected.iter().map(|(m, d)| (*m, *d))
    }
}

/// The evidence gates every decision policy shares: how much windowed
/// evidence authentication needs before issuing anything but
/// [`Verdict::Unknown`].
///
/// Under the default [`FixedMajority`](crate::PolicyKind::FixedMajority)
/// policy these are the *only* gates;
/// [`ConfidenceWeighted`](crate::PolicyKind::ConfidenceWeighted) keeps
/// `min_vote_fraction` as a posterior floor and adds a confidence-weight
/// early exit, and [`AdaptiveThreshold`](crate::PolicyKind::AdaptiveThreshold)
/// layers a learned per-device confidence floor on top.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictPolicy {
    /// Minimum reports observed before any verdict is issued.
    pub min_observations: u64,
    /// Minimum majority fraction for an [`Verdict::Accept`] (and for a
    /// confident [`Verdict::Reject`] of a mismatching majority).
    pub min_vote_fraction: f64,
}

impl Default for VerdictPolicy {
    fn default() -> Self {
        VerdictPolicy {
            min_observations: 10,
            min_vote_fraction: 0.6,
        }
    }
}

/// The authentication outcome for one device stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The stream's windowed identity matches the registration.
    Accept,
    /// The stream confidently presents a different identity — a likely
    /// impersonation.
    Reject,
    /// Not enough evidence, an unregistered source, or an unstable
    /// majority.
    Unknown,
}

impl Verdict {
    /// The lowercase wire name (`"accept"` / `"reject"` / `"unknown"`)
    /// used by the audit trail and the observability endpoints.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Accept => "accept",
            Verdict::Reject => "reject",
            Verdict::Unknown => "unknown",
        }
    }

    /// Applies `policy` to a windowed decision judged against the
    /// stream's expected module: thin evidence or an unstable majority is
    /// [`Verdict::Unknown`], otherwise the majority module decides.
    ///
    /// ```
    /// use deepcsi_serve::{Verdict, VerdictPolicy, WindowedDecision};
    ///
    /// let d = WindowedDecision { module: 3, vote_fraction: 0.8, confidence_ema: 0.9, observations: 50 };
    /// assert_eq!(Verdict::from_decision(VerdictPolicy::default(), 3, &d), Verdict::Accept);
    /// assert_eq!(Verdict::from_decision(VerdictPolicy::default(), 5, &d), Verdict::Reject);
    /// ```
    pub fn from_decision(policy: VerdictPolicy, expected: usize, d: &WindowedDecision) -> Verdict {
        if d.observations < policy.min_observations || d.vote_fraction < policy.min_vote_fraction {
            return Verdict::Unknown;
        }
        if d.module == expected {
            Verdict::Accept
        } else {
            Verdict::Reject
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(module: usize, vote_fraction: f64, observations: u64) -> WindowedDecision {
        WindowedDecision {
            module,
            vote_fraction,
            confidence_ema: 0.9,
            observations,
        }
    }

    #[test]
    fn matching_majority_accepts() {
        let v = Verdict::from_decision(VerdictPolicy::default(), 3, &decision(3, 0.8, 50));
        assert_eq!(v, Verdict::Accept);
    }

    #[test]
    fn mismatching_majority_rejects() {
        let v = Verdict::from_decision(VerdictPolicy::default(), 3, &decision(5, 0.9, 50));
        assert_eq!(v, Verdict::Reject);
    }

    #[test]
    fn thin_evidence_is_unknown() {
        let policy = VerdictPolicy::default();
        // Too few observations.
        assert_eq!(
            Verdict::from_decision(policy, 3, &decision(3, 0.9, 2)),
            Verdict::Unknown
        );
        // Unstable majority.
        assert_eq!(
            Verdict::from_decision(policy, 3, &decision(3, 0.4, 50)),
            Verdict::Unknown
        );
    }
}
