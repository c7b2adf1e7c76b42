//! Application of hardware impairments to an ideal CFR snapshot.

use crate::fingerprint::{ImpairmentProfile, RadioFingerprint};
use crate::offsets::LinkState;
use deepcsi_linalg::{CMatrix, C64};
use deepcsi_phy::SYMBOL_PERIOD_S;

/// Sign of the LTF pilot product `x(−k)·x(k)` at tone `k`. The real VHT-LTF
/// sequence is a fixed ±1 pattern; a deterministic hash reproduces its
/// pseudo-random sign structure without carrying the full table.
fn ltf_mirror_sign(k: i32) -> f64 {
    let mut h = (k.unsigned_abs() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    if h & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// The per-tone chain responses of one TX/RX fingerprint pair: stage 1
/// and 2a of [`apply_impairments`], which depend only on the two
/// fingerprints and the tone. A trace builds them once with
/// [`ChainResponses::new`] and passes them to every snapshot.
#[derive(Debug, Clone)]
pub struct ChainResponses {
    tones: Vec<i32>,
    m: usize,
    n: usize,
    /// `T_m(k)·(1 + β_m·s_k)` per tone, `m` per tone.
    tx: Vec<C64>,
    /// `R_n(k)` per tone, `n` per tone.
    rx: Vec<C64>,
    /// The RX chains' I/Q imbalance `β_n` (stage 2b).
    rx_beta: Vec<(f64, f64)>,
}

impl ChainResponses {
    /// Evaluates the TX responses (I/Q imbalance folded in) and the RX
    /// responses at every tone of `tones`.
    pub fn new(tones: &[i32], tx: &RadioFingerprint, rx: &RadioFingerprint) -> Self {
        let (m, n) = (tx.num_chains(), rx.num_chains());
        let k_span = tones.iter().map(|k| k.abs()).max().unwrap_or(1);
        let mut chains = ChainResponses {
            tones: tones.to_vec(),
            m,
            n,
            tx: Vec::with_capacity(tones.len() * m),
            rx: Vec::with_capacity(tones.len() * n),
            rx_beta: (0..n).map(|ni| rx.iq_beta(ni)).collect(),
        };
        for &k in tones {
            let s = ltf_mirror_sign(k);
            for mi in 0..m {
                let (bre, bim) = tx.iq_beta(mi);
                // TX I/Q imbalance folds into an effective per-tone gain
                // (the image of an LTF tone lands back on a known ±1
                // symbol): T·(1 + β·s).
                let iq = C64::new(1.0 + bre * s, bim * s);
                chains.tx.push(tx.chain(mi).response(k, k_span) * iq);
            }
            for ni in 0..n {
                chains.rx.push(rx.chain(ni).response(k, k_span));
            }
        }
        chains
    }
}

/// Transforms an ideal CFR snapshot into what the beamformee actually
/// estimates from the NDP, applying in order:
///
/// 1. **TX chain responses** `T_m(k)` (with I/Q-imbalance gain ripple) —
///    the beamformer fingerprint that percolates into `Ṽ`.
/// 2. **RX chain responses** `R_n(k)` and RX I/Q image leakage — the
///    beamformee's own signature (the reason cross-beamformee transfer
///    fails in Fig. 11).
/// 3. **Eq. (9) phase offsets** (CFO/SFO/PDD/PPO common terms and the
///    per-chain PA ambiguity + phase noise).
/// 4. **Estimation noise** at the packet's SNR.
///
/// `chains` holds the stage 1 and 2a responses at the snapshot's tones.
/// The tones must be symmetric enough that a mirror tone `−k` is present
/// for the I/Q image term; where it is missing the image term is skipped.
///
/// # Panics
///
/// Panics if dimensions disagree (one CFR matrix per tone of `chains`,
/// chain counts vs. matrix shape).
pub fn apply_impairments(
    cfr: &[CMatrix],
    chains: &ChainResponses,
    profile: &ImpairmentProfile,
    link: &mut LinkState,
) -> Vec<CMatrix> {
    let tones = &chains.tones;
    assert_eq!(cfr.len(), tones.len(), "one CFR matrix per tone");
    if cfr.is_empty() {
        return Vec::new();
    }
    let (m, n) = cfr[0].shape();
    assert_eq!(chains.m, m, "TX fingerprint chain count must be M");
    assert_eq!(chains.n, n, "RX fingerprint chain count must be N");

    let packet = link.next_packet(
        profile.snr_db,
        profile.snr_jitter_db,
        profile.phase_noise_std_rad,
    );

    // Mirror-tone lookup for the I/Q image term.
    let pos_of = |k: i32| tones.binary_search(&k).ok();

    // Stage 1+2a: per-chain responses, tone-major in one buffer (stage 2b
    // reads the mirror tone's).
    let mn = m * n;
    let mut g = Vec::with_capacity(cfr.len() * mn);
    for (h_k, (t_resp, r_resp)) in cfr
        .iter()
        .zip(chains.tx.chunks_exact(m).zip(chains.rx.chunks_exact(n)))
    {
        for (mi, &t) in t_resp.iter().enumerate() {
            for (ni, &r) in r_resp.iter().enumerate() {
                g.push(t * h_k[(mi, ni)] * r);
            }
        }
    }

    // The per-chain PA ambiguity and phase noise of stage 3 depend only on
    // the packet.
    let row_phasors: Vec<C64> = (0..m)
        .map(|mi| C64::cis(packet.theta_pa[mi] + packet.phase_noise[mi]))
        .collect();

    // Stage 2b: RX I/Q image leakage mixes in conj(G(−k)); then stage 3,
    // the Eq. (9) offsets.
    let tau = packet.tau_sfo + packet.tau_pdd;
    let mut out: Vec<CMatrix> = g
        .chunks_exact(mn)
        .zip(tones.iter())
        .map(|(g_k, &k)| {
            let s = ltf_mirror_sign(k);
            let mirror = pos_of(-k).map(|mp| &g[mp * mn..(mp + 1) * mn]);
            let common = C64::cis(
                packet.theta_cfo - std::f64::consts::TAU * k as f64 * tau / SYMBOL_PERIOD_S
                    + packet.theta_ppo,
            );
            CMatrix::from_fn(m, n, |mi, ni| {
                let i = mi * n + ni;
                let v = match mirror {
                    Some(mirror) => {
                        let (bre, bim) = chains.rx_beta[ni];
                        let beta = C64::new(bre, bim) * s;
                        g_k[i] + beta * mirror[i].conj()
                    }
                    None => g_k[i],
                };
                v * (common * row_phasors[mi])
            })
        })
        .collect();

    // Stage 4: estimation noise at the packet SNR, scaled to the
    // snapshot's rms amplitude.
    let energy: f64 = out.iter().map(|h_k| h_k.fro_norm().powi(2)).sum();
    let rms = (energy / (out.len() * m * n) as f64).sqrt();
    let sigma = rms * 10f64.powf(-packet.snr_db / 20.0);
    let per_component = sigma / std::f64::consts::SQRT_2;
    for h_k in out.iter_mut() {
        for mi in 0..m {
            for ni in 0..n {
                let noise = C64::new(
                    link.gaussian() * per_component,
                    link.gaussian() * per_component,
                );
                let v = h_k[(mi, ni)];
                h_k[(mi, ni)] = v + noise;
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::DeviceId;

    fn tones() -> Vec<i32> {
        (-16..=16).filter(|&k| k != 0).collect()
    }

    fn flat_cfr(m: usize, n: usize, count: usize) -> Vec<CMatrix> {
        (0..count)
            .map(|_| {
                CMatrix::from_fn(m, n, |mi, ni| {
                    C64::new(1.0 + mi as f64 * 0.1, ni as f64 * 0.1)
                })
            })
            .collect()
    }

    fn profile_noiseless() -> ImpairmentProfile {
        ImpairmentProfile {
            snr_db: 200.0,
            snr_jitter_db: 0.0,
            phase_noise_std_rad: 0.0,
            ..ImpairmentProfile::default()
        }
    }

    #[test]
    fn shape_is_preserved() {
        let p = ImpairmentProfile::default();
        let tx = RadioFingerprint::generate(DeviceId(0), 3, &p);
        let rx = RadioFingerprint::generate_rx(1, 2, &p);
        let t = tones();
        let cfr = flat_cfr(3, 2, t.len());
        let mut link = LinkState::new(&tx, 0);
        let out = apply_impairments(&cfr, &ChainResponses::new(&t, &tx, &rx), &p, &mut link);
        assert_eq!(out.len(), cfr.len());
        for h in &out {
            assert_eq!(h.shape(), (3, 2));
            assert!(h.is_finite());
        }
    }

    #[test]
    fn ideal_radios_and_infinite_snr_preserve_subspace() {
        // With ideal radios the only change is the (k-common) Eq. (9)
        // scalar phases, which leave per-tone singular values untouched.
        let p = profile_noiseless();
        let tx = RadioFingerprint::ideal(3);
        let rx = RadioFingerprint::ideal(2);
        let t = tones();
        let cfr = flat_cfr(3, 2, t.len());
        let mut link = LinkState::new(&tx, 0);
        let out = apply_impairments(&cfr, &ChainResponses::new(&t, &tx, &rx), &p, &mut link);
        for (a, b) in cfr.iter().zip(out.iter()) {
            // PA ambiguity may flip row signs; compare magnitudes.
            for mi in 0..3 {
                for ni in 0..2 {
                    assert!(
                        (a[(mi, ni)].abs() - b[(mi, ni)].abs()).abs() < 1e-9,
                        "magnitude changed"
                    );
                }
            }
        }
    }

    #[test]
    fn different_devices_produce_different_estimates() {
        let p = profile_noiseless();
        let rx = RadioFingerprint::generate_rx(1, 2, &p);
        let t = tones();
        let cfr = flat_cfr(3, 2, t.len());
        let tx_a = RadioFingerprint::generate(DeviceId(0), 3, &p);
        let tx_b = RadioFingerprint::generate(DeviceId(1), 3, &p);
        let mut la = LinkState::new(&tx_a, 0);
        let mut lb = LinkState::new(&tx_b, 0);
        let a = apply_impairments(&cfr, &ChainResponses::new(&t, &tx_a, &rx), &p, &mut la);
        let b = apply_impairments(&cfr, &ChainResponses::new(&t, &tx_b, &rx), &p, &mut lb);
        let diff: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| x.sub(y).fro_norm())
            .sum();
        assert!(diff > 0.1, "device fingerprints indistinguishable");
    }

    #[test]
    fn noise_scales_with_snr() {
        let t = tones();
        let cfr = flat_cfr(3, 2, t.len());
        let tx = RadioFingerprint::ideal(3);
        let rx = RadioFingerprint::ideal(2);
        let measure = |snr: f64| {
            let p = ImpairmentProfile {
                snr_db: snr,
                snr_jitter_db: 0.0,
                phase_noise_std_rad: 0.0,
                ..ImpairmentProfile::default()
            };
            // Two different noise realisations of the same packet stream
            // differ by ~2× the noise floor.
            let mut l1 = LinkState::new(&tx, 1);
            let mut l2 = LinkState::new(&tx, 2);
            let a = apply_impairments(&cfr, &ChainResponses::new(&t, &tx, &rx), &p, &mut l1);
            let b = apply_impairments(&cfr, &ChainResponses::new(&t, &tx, &rx), &p, &mut l2);
            // Strip the differing packet phases by comparing magnitudes.
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| {
                    (0..3)
                        .map(|mi| {
                            (0..2)
                                .map(|ni| (x[(mi, ni)].abs() - y[(mi, ni)].abs()).abs())
                                .sum::<f64>()
                        })
                        .sum::<f64>()
                })
                .sum::<f64>()
        };
        let noisy = measure(10.0);
        let clean = measure(40.0);
        assert!(
            noisy > 10.0 * clean,
            "SNR had no effect: noisy={noisy} clean={clean}"
        );
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let p = ImpairmentProfile::default();
        let tx = RadioFingerprint::ideal(3);
        let rx = RadioFingerprint::ideal(2);
        let mut link = LinkState::new(&tx, 0);
        let out = apply_impairments(&[], &ChainResponses::new(&[], &tx, &rx), &p, &mut link);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "TX fingerprint chain count")]
    fn wrong_chain_count_panics() {
        let p = ImpairmentProfile::default();
        let tx = RadioFingerprint::ideal(2); // should be 3
        let rx = RadioFingerprint::ideal(2);
        let t = tones();
        let cfr = flat_cfr(3, 2, t.len());
        let mut link = LinkState::new(&tx, 0);
        let _ = apply_impairments(&cfr, &ChainResponses::new(&t, &tx, &rx), &p, &mut link);
    }

    #[test]
    fn ltf_mirror_sign_is_symmetric_and_pm_one() {
        for k in 1..200 {
            let s = ltf_mirror_sign(k);
            assert!(s == 1.0 || s == -1.0);
            assert_eq!(s, ltf_mirror_sign(-k), "s(k) must equal s(−k)");
        }
        // Both signs occur (the pattern is not degenerate).
        let signs: std::collections::HashSet<i8> =
            (1..100).map(|k| ltf_mirror_sign(k) as i8).collect();
        assert_eq!(signs.len(), 2);
    }
}
