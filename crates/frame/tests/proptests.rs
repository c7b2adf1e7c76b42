//! Property-based tests: the frame codec must round-trip arbitrary angle
//! payloads bit-exactly and never panic on arbitrary input bytes.

use deepcsi_bfi::{BeamformingFeedback, GivensAngles, QuantizedAngles};
use deepcsi_frame::{mu_exclusive_len, report_len, BeamformingReportFrame, MacAddr};
use deepcsi_phy::{Codebook, MimoConfig, SubcarrierLayout};
use proptest::prelude::*;

const CODEBOOKS: [Codebook; 4] = [
    Codebook::SU_LOW,
    Codebook::SU_HIGH,
    Codebook::MU_LOW,
    Codebook::MU_HIGH,
];

/// MAC header + category/action + VHT MIMO Control.
const FIXED_LEN: usize = 24 + 2 + 3;

/// Every `(Nr, Nc)` with `Nr ≤ 4` whose feedback carries angles.
fn shapes() -> impl Iterator<Item = (usize, usize)> {
    (2..=4usize).flat_map(|m| (1..=m).map(move |n_ss| (m, n_ss)))
}

fn quantized_angles(m: usize, n_ss: usize, cb: Codebook) -> impl Strategy<Value = QuantizedAngles> {
    let count = GivensAngles::expected_count(m, n_ss);
    (
        proptest::collection::vec(0u16..cb.phi_levels() as u16, count),
        proptest::collection::vec(0u16..cb.psi_levels() as u16, count),
    )
        .prop_map(move |(q_phi, q_psi)| QuantizedAngles {
            m,
            n_ss,
            q_phi,
            q_psi,
        })
}

fn feedback(cb: Codebook) -> impl Strategy<Value = BeamformingFeedback> {
    (1usize..40).prop_flat_map(move |n_sc| {
        proptest::collection::vec(quantized_angles(3, 2, cb), n_sc).prop_map(move |angles| {
            BeamformingFeedback::from_angles(
                MimoConfig::new(3, 2, 2).expect("valid"),
                cb,
                (0..n_sc as i32).collect(),
                &angles,
            )
        })
    })
}

/// A deterministic 64-bit LCG, for tests that walk every shape per case.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// `n_sc` random in-range angle sets of one shape.
fn angle_sets(
    m: usize,
    n_ss: usize,
    cb: Codebook,
    n_sc: usize,
    rng: &mut Lcg,
) -> Vec<QuantizedAngles> {
    let count = GivensAngles::expected_count(m, n_ss);
    (0..n_sc)
        .map(|_| QuantizedAngles {
            m,
            n_ss,
            q_phi: (0..count)
                .map(|_| (rng.next() % cb.phi_levels() as u64) as u16)
                .collect(),
            q_psi: (0..count)
                .map(|_| (rng.next() % cb.psi_levels() as u64) as u16)
                .collect(),
        })
        .collect()
}

/// A frame of the given shape with random angles, optionally carrying an
/// MU Exclusive report.
fn random_frame(
    m: usize,
    n_ss: usize,
    cb: Codebook,
    n_sc: usize,
    exclusive: bool,
    rng: &mut Lcg,
) -> BeamformingReportFrame {
    let fb = BeamformingFeedback::from_angles(
        MimoConfig::new(m, n_ss, n_ss).expect("valid"),
        cb,
        (0..n_sc as i32).collect(),
        &angle_sets(m, n_ss, cb, n_sc, rng),
    );
    let seq = (rng.next() % 4096) as u16;
    let frame = BeamformingReportFrame::new(
        MacAddr::station(0),
        MacAddr::station(rng.next() % 1000),
        MacAddr::station(0),
        seq,
        fb,
    );
    if exclusive {
        let rows = (0..n_sc)
            .map(|_| (0..n_ss).map(|_| (rng.next() % 16) as i8 - 8).collect())
            .collect();
        frame.with_mu_exclusive(rows)
    } else {
        frame
    }
}

/// The tone count the parser reads from a report payload of `payload`
/// bytes when it takes the payload as angles only. The length alone
/// decides: the plain reading wins whenever it leaves a whole number of
/// tones plus fewer than 8 slack bits. That makes two cases ambiguous — a
/// report with under 8 bits per tone (2×Nc at `SU_LOW`), whose padding
/// can hold one more tone, and a report followed by an MU Exclusive
/// report that happens to fit — and both read as more tones than were
/// sent.
fn plain_tones(m: usize, n_ss: usize, cb: Codebook, payload: usize) -> Option<usize> {
    let bits_per_sc = GivensAngles::expected_count(m, n_ss) * (cb.b_phi + cb.b_psi) as usize;
    let available = payload * 8 - n_ss * 8;
    let tones = available / bits_per_sc;
    (tones > 0 && available % bits_per_sc < 8).then_some(tones)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_arbitrary_feedback(fb in feedback(Codebook::MU_HIGH), seq in 0u16..4096, src in 0u64..1000) {
        let frame = BeamformingReportFrame::new(
            MacAddr::station(0),
            MacAddr::station(src),
            MacAddr::station(0),
            seq,
            fb.clone(),
        );
        let parsed = BeamformingReportFrame::parse(&frame.encode()).expect("parse");
        prop_assert_eq!(parsed.sequence(), seq);
        prop_assert_eq!(parsed.source(), MacAddr::station(src));
        prop_assert_eq!(&parsed.feedback().q_phi, &fb.q_phi);
        prop_assert_eq!(&parsed.feedback().q_psi, &fb.q_psi);
        prop_assert_eq!(parsed.feedback().codebook, fb.codebook);
    }

    #[test]
    fn roundtrip_coarse_codebook(fb in feedback(Codebook::MU_LOW)) {
        let frame = BeamformingReportFrame::new(
            MacAddr::station(0),
            MacAddr::station(9),
            MacAddr::station(0),
            1,
            fb.clone(),
        );
        let parsed = BeamformingReportFrame::parse(&frame.encode()).expect("parse");
        prop_assert_eq!(&parsed.feedback().q_phi, &fb.q_phi);
        prop_assert_eq!(&parsed.feedback().q_psi, &fb.q_psi);
    }

    #[test]
    fn parser_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = BeamformingReportFrame::parse(&bytes);
    }

    #[test]
    fn parser_never_panics_on_corrupted_valid_frame(
        fb in feedback(Codebook::MU_HIGH),
        flip in 0usize..2048,
        bit in 0u8..8,
    ) {
        let frame = BeamformingReportFrame::new(
            MacAddr::station(0),
            MacAddr::station(1),
            MacAddr::station(0),
            7,
            fb,
        );
        let mut bytes = frame.encode();
        let idx = flip % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = BeamformingReportFrame::parse(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every `(Nr, Nc)` with `Nr ≤ 4`, under all four codebooks, with and
    /// without an MU Exclusive report: the encoded length is the one
    /// `report_len` predicts, and parsing recovers the frame. Where the
    /// length is ambiguous (see [`plain_tones`]) it recovers the
    /// documented plain reading instead.
    #[test]
    fn roundtrip_every_shape_and_codebook(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        for (m, n_ss) in shapes() {
            for cb in CODEBOOKS {
                for exclusive in [false, true] {
                    let n_sc = 1 + (rng.next() % 39) as usize;
                    let frame = random_frame(m, n_ss, cb, n_sc, exclusive, &mut rng);
                    let bytes = frame.encode();
                    let exclusive_len = if exclusive { mu_exclusive_len(n_ss, n_sc) } else { 0 };
                    prop_assert_eq!(
                        bytes.len(),
                        FIXED_LEN + report_len(m, n_ss, n_sc, cb) + exclusive_len
                    );
                    let parsed = BeamformingReportFrame::parse(&bytes).expect("parse");
                    prop_assert_eq!(parsed.sequence(), frame.sequence());
                    prop_assert_eq!(parsed.source(), frame.source());
                    prop_assert_eq!(parsed.feedback().mimo, frame.feedback().mimo);
                    prop_assert_eq!(parsed.feedback().codebook, cb);
                    prop_assert_eq!(parsed.average_snr(), frame.average_snr());
                    let sent = frame.feedback();
                    let got = parsed.feedback();
                    match plain_tones(m, n_ss, cb, bytes.len() - FIXED_LEN) {
                        Some(tones) if tones != n_sc || exclusive => {
                            // An ambiguous length: the plain reading of
                            // more tones wins, and the tones sent come
                            // first, unchanged.
                            prop_assert!(tones > n_sc);
                            prop_assert_eq!(got.len(), tones);
                            prop_assert!(parsed.mu_exclusive().is_none());
                            prop_assert_eq!(&got.q_phi[..sent.q_phi.len()], &sent.q_phi[..]);
                            prop_assert_eq!(&got.q_psi[..sent.q_psi.len()], &sent.q_psi[..]);
                            continue;
                        }
                        _ => {}
                    }
                    prop_assert_eq!(got.len(), n_sc);
                    prop_assert_eq!(&got.q_phi, &sent.q_phi);
                    prop_assert_eq!(&got.q_psi, &sent.q_psi);
                    prop_assert_eq!(parsed.mu_exclusive(), frame.mu_exclusive());
                }
            }
        }
    }

    /// A valid frame cut at every length parses or errs — never panics.
    #[test]
    fn every_truncation_of_a_valid_frame_is_total(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        for (m, n_ss) in shapes() {
            let cb = CODEBOOKS[(rng.next() % 4) as usize];
            let n_sc = 1 + (rng.next() % 12) as usize;
            let exclusive = rng.next() % 2 == 1;
            let bytes = random_frame(m, n_ss, cb, n_sc, exclusive, &mut rng).encode();
            for len in 0..=bytes.len() {
                let _ = BeamformingReportFrame::parse(&bytes[..len]);
            }
        }
    }
}

/// A fixed, deterministic frame set: 72 frames over every shape ×
/// codebook × MU Exclusive choice, plus one full 80 MHz 3×2 report.
fn golden_frames() -> Vec<Vec<u8>> {
    let mut rng = Lcg(0x5EED_F00D);
    let mut out = Vec::new();
    for (m, n_ss) in shapes() {
        for cb in CODEBOOKS {
            for exclusive in [false, true] {
                let n_sc = 1 + (rng.next() % 40) as usize;
                out.push(random_frame(m, n_ss, cb, n_sc, exclusive, &mut rng).encode());
            }
        }
    }
    let native = SubcarrierLayout::vht80();
    let fb = BeamformingFeedback::from_angles(
        MimoConfig::paper_default(),
        Codebook::MU_HIGH,
        native.indices().to_vec(),
        &angle_sets(3, 2, Codebook::MU_HIGH, native.len(), &mut rng),
    );
    let monitor = MacAddr::station(0);
    out.push(BeamformingReportFrame::new(monitor, MacAddr::station(1), monitor, 9, fb).encode());
    out
}

/// 64-bit FNV-1a over each frame's length (u64 LE) and bytes.
fn fnv1a(frames: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in frames {
        for &b in (f.len() as u64).to_le_bytes().iter().chain(f) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The on-air bytes of a fixed frame set, pinned by hash: a codec change
/// that moves a single bit of any frame fails here.
#[test]
fn wire_bytes_are_pinned() {
    let frames = golden_frames();
    assert_eq!(frames.len(), 73);
    assert_eq!(fnv1a(&frames), 0x7e7b_56c7_37bd_561f);
}
