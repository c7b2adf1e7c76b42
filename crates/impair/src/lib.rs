//! Per-device RF hardware-impairment models — the source of the radio
//! fingerprint.
//!
//! The paper's key intuition (§I) is that imperfections in the
//! transmitter's radio circuitry *percolate onto the beamforming feedback
//! matrix*. This crate models those imperfections physically. With
//! per-TX-chain responses `T = diag(T_m(k))` and per-RX-chain responses
//! `R = diag(R_n(k))`, the CFR the beamformee estimates is
//!
//! ```text
//! Ĥ_k = T(k) · H_k · R(k) · e^{jθ_offs,k} + noise,
//! θ_offs,k = θ_CFO − 2πk(τ_SFO + τ_PDD)/T + θ_PPO + θ_PA     (Eq. (9))
//! ```
//!
//! Because `Ĥ_kᵀ = R H_kᵀ T`, the right-singular-vector matrix fed back to
//! the beamformer becomes `T† Z` — the *relative inter-chain response* of
//! the transmitter is imprinted on `Ṽ`. Terms common to all TX chains
//! (CFO, PPO, SFO/PDD at a given tone) cancel in the Givens canonical
//! form; chain-dependent terms (group-delay mismatch, phase intercepts,
//! filter ripple, gain mismatch, I/Q imbalance, the per-chain π phase
//! ambiguity) survive. That asymmetry is exactly what DeepCSI exploits and
//! what the offset-cleaning baseline of Fig. 16 partially destroys.
//!
//! Every fingerprint is generated deterministically from a [`DeviceId`],
//! so "Compex module 3" is the same physical device across datasets —
//! mirroring the paper's module swaps on a fixed SBC/antenna platform.
//!
//! # Example
//!
//! ```
//! use deepcsi_impair::{
//!     apply_impairments, ChainResponses, DeviceId, ImpairmentProfile, LinkState, RadioFingerprint,
//! };
//! use deepcsi_linalg::{C64, CMatrix};
//!
//! let profile = ImpairmentProfile::default();
//! let tx = RadioFingerprint::generate(DeviceId(3), 3, &profile);
//! let rx = RadioFingerprint::generate_rx(7, 2, &profile);
//! let tones: Vec<i32> = (-4..=4).filter(|&k| k != 0).collect();
//! let cfr: Vec<CMatrix> = tones.iter()
//!     .map(|_| CMatrix::from_fn(3, 2, |m, n| C64::new(1.0 + m as f64, n as f64)))
//!     .collect();
//! let mut link = LinkState::new(&tx, 99);
//! // The chain responses depend only on the radios and the tones: one
//! // evaluation serves every snapshot of a trace.
//! let chains = ChainResponses::new(&tones, &tx, &rx);
//! let impaired = apply_impairments(&cfr, &chains, &profile, &mut link);
//! assert_eq!(impaired.len(), cfr.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod chain;
mod fingerprint;
mod offsets;

pub use apply::{apply_impairments, ChainResponses};
pub use chain::ChainResponse;
pub use fingerprint::{DeviceId, ImpairmentProfile, RadioFingerprint};
pub use offsets::{LinkState, PacketOffsets};
