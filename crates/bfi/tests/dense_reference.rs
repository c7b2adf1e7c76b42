//! Bit-identity pins of the beamformee's feedback computation
//! (`H_k → V_k → angles → quantized angles`).
//!
//! [`dense`] below is the heap reference: Jacobi on `CMatrix`, the Gram
//! matrix by `hermitian().matmul(..)`, and Algorithm 1 as dense products
//! with `D̃†`, `D_i†` and `G`. The library's [`beamforming_matrix`],
//! [`decompose`] and [`BeamformingFeedback::from_cfr`] must reproduce it
//! by `to_bits` (a NaN matches any NaN, see [`same`]):
//!
//! * on a fixed corpus: every valid `(M, N, N_SS)` with `M, N ≤ 8`, on
//!   seeded random CFRs and on degenerate ones (all-zero, rank-1, equal
//!   singular values, signed zeros, 1e-150, 1e150 and overflowing 1e160
//!   scales), whose
//!   quantized angles under the four standard codebooks are also pinned
//!   by one FNV-1a hash;
//! * on random shapes and entries, special values included, and
//!   Algorithm 1 alone on matrices with ±∞ and NaN entries (proptests).

use deepcsi_bfi::{beamforming_matrix, decompose, quant, BeamformingFeedback};
use deepcsi_linalg::{herm_eig, CMatrix, C64};
use deepcsi_phy::{Codebook, MimoConfig};
use proptest::prelude::*;

const STANDARD: [Codebook; 4] = [
    Codebook::SU_LOW,
    Codebook::SU_HIGH,
    Codebook::MU_LOW,
    Codebook::MU_HIGH,
];

/// The dense heap implementation the array bodies must match bit for bit.
mod dense {
    use deepcsi_linalg::{CMatrix, C64};

    const MAX_SWEEPS: usize = 64;

    /// Cyclic complex Jacobi: eigenvalues descending, eigenvectors as
    /// columns.
    pub fn herm_eig(a: &CMatrix) -> (Vec<f64>, CMatrix) {
        let n = a.rows();
        let mut m = CMatrix::from_fn(n, n, |r, c| (a[(r, c)] + a[(c, r)].conj()).scale(0.5));
        let mut v = CMatrix::identity(n);
        let scale = m.fro_norm().max(1.0);
        let tol = 1e-14 * scale;
        for _ in 0..MAX_SWEEPS {
            let mut off = 0.0f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    off = off.max(m[(p, q)].abs());
                }
            }
            if off < tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    let r = apq.abs();
                    if r < tol {
                        continue;
                    }
                    let phi = apq.arg();
                    let app = m[(p, p)].re;
                    let aqq = m[(q, q)].re;
                    let theta = 0.5 * (2.0 * r).atan2(app - aqq);
                    let (s, c) = theta.sin_cos();
                    let eip = C64::cis(phi);
                    let eim = eip.conj();
                    let gpp = C64::real(c);
                    let gpq = -C64::real(s) * eip;
                    let gqp = C64::real(s) * eim;
                    let gqq = C64::real(c);
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = mkp * gpp + mkq * gqp;
                        m[(k, q)] = mkp * gpq + mkq * gqq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = gpp.conj() * mpk + gqp.conj() * mqk;
                        m[(q, k)] = gpq.conj() * mpk + gqq.conj() * mqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = vkp * gpp + vkq * gqp;
                        v[(k, q)] = vkp * gpq + vkq * gqq;
                    }
                }
            }
        }
        let mut pairs: Vec<(f64, Vec<C64>)> = (0..n).map(|i| (m[(i, i)].re, v.col(i))).collect();
        pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let values = pairs.iter().map(|(val, _)| *val).collect();
        let vectors = CMatrix::from_fn(n, n, |r, c| pairs[c].1[r]);
        (values, vectors)
    }

    /// Eq. (3): the first `n_ss` right singular vectors of `H_kᵀ`.
    pub fn beamforming_matrix(h: &CMatrix, n_ss: usize) -> CMatrix {
        let a = h.transpose();
        let gram = a.hermitian().matmul(&a);
        herm_eig(&gram).1.first_cols(n_ss)
    }

    fn d_matrix(m: usize, i: usize, phis: &[f64]) -> CMatrix {
        let mut d = CMatrix::identity(m);
        for (off, &phi) in phis.iter().enumerate() {
            let row = i - 1 + off;
            d[(row, row)] = C64::cis(phi);
        }
        d
    }

    fn g_matrix(m: usize, l: usize, i: usize, psi: f64) -> CMatrix {
        let mut g = CMatrix::identity(m);
        let (c, s) = (psi.cos(), psi.sin());
        g[(i - 1, i - 1)] = C64::real(c);
        g[(i - 1, l - 1)] = C64::real(s);
        g[(l - 1, i - 1)] = C64::real(-s);
        g[(l - 1, l - 1)] = C64::real(c);
        g
    }

    fn wrap_2pi(a: f64) -> f64 {
        let t = a.rem_euclid(2.0 * std::f64::consts::PI);
        if t >= 2.0 * std::f64::consts::PI {
            0.0
        } else {
            t
        }
    }

    /// Algorithm 1: `(φ, ψ, D̃)`.
    pub fn decompose(v: &CMatrix) -> (Vec<f64>, Vec<f64>, Vec<C64>) {
        let (m, n_ss) = v.shape();
        let d_tilde: Vec<C64> = (0..n_ss).map(|c| C64::cis(v[(m - 1, c)].arg())).collect();
        let d_tilde_h = CMatrix::diag(&d_tilde).hermitian();
        let mut omega = v.matmul(&d_tilde_h);
        let imax = n_ss.min(m - 1);
        let mut phi = Vec::new();
        let mut psi = Vec::new();
        for i in 1..=imax {
            let phis: Vec<f64> = (i..m)
                .map(|l| wrap_2pi(omega[(l - 1, i - 1)].arg()))
                .collect();
            let d_i = d_matrix(m, i, &phis);
            omega = d_i.hermitian().matmul(&omega);
            phi.extend_from_slice(&phis);
            for l in (i + 1)..=m {
                let a = omega[(i - 1, i - 1)].re;
                let b = omega[(l - 1, i - 1)].re;
                let denom = (a * a + b * b).sqrt();
                let p = if denom < 1e-300 {
                    0.0
                } else {
                    (a / denom).clamp(-1.0, 1.0).acos()
                };
                omega = g_matrix(m, l, i, p).matmul(&omega);
                psi.push(p);
            }
        }
        (phi, psi, d_tilde)
    }
}

/// `a` and `b` have the same bits, or are both NaN. Rust leaves the sign
/// and payload of a NaN result unspecified (the optimizer may swap the
/// operands of `*` and `+`), so NaNs compare by kind only; the quantized
/// angles, which map every NaN to index 0, compare exactly.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same_f(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same(x, y))
}

fn same_c(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| same(x.re, y.re) && same(x.im, y.im))
}

/// Checks Algorithm 1 on `v` against [`dense`] (angles and `D̃`) and
/// returns the reference angles.
fn check_decompose(v: &CMatrix) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (ref_phi, ref_psi, ref_d) = dense::decompose(v);
    let dec = decompose(v);
    if !same_f(&dec.angles.phi, &ref_phi) || !same_f(&dec.angles.psi, &ref_psi) {
        return Err(format!("angles differ on {v:?}"));
    }
    if !same_c(&dec.d_tilde, &ref_d) {
        return Err(format!("D̃ differs on {v:?}"));
    }
    Ok((ref_phi, ref_psi))
}

/// Checks one CFR against [`dense`]: the Gram eigendecomposition, `V_k`,
/// the angles, `D̃` and the quantized angles of every standard codebook.
fn check(h: &CMatrix, n_ss: usize) -> Result<(), String> {
    let at = |what: &str| format!("{what} differs on {h:?} (N_SS = {n_ss})");
    let a = h.transpose();
    let gram = a.hermitian().matmul(&a);
    let (ref_values, ref_vectors) = dense::herm_eig(&gram);
    let eig = herm_eig(&gram);
    if !same_f(&eig.values, &ref_values) || !same_c(eig.vectors.as_slice(), ref_vectors.as_slice())
    {
        return Err(at("herm_eig"));
    }

    let ref_v = dense::beamforming_matrix(h, n_ss);
    let v = beamforming_matrix(h, n_ss);
    if v.shape() != ref_v.shape() || !same_c(v.as_slice(), ref_v.as_slice()) {
        return Err(at("V"));
    }
    let (ref_phi, ref_psi) = check_decompose(&v)?;

    let (m, n) = h.shape();
    let mimo = MimoConfig::new(m, n, n_ss).expect("valid dims");
    for cb in STANDARD {
        let fb = BeamformingFeedback::from_cfr(std::slice::from_ref(h), &[0], mimo, cb);
        let q_phi: Vec<u16> = ref_phi
            .iter()
            .map(|&x| quant::quantize_phi(x, cb))
            .collect();
        let q_psi: Vec<u16> = ref_psi
            .iter()
            .map(|&x| quant::quantize_psi(x, cb))
            .collect();
        if fb.q_phi != q_phi || fb.q_psi != q_psi {
            return Err(at(&format!("from_cfr under {cb}")));
        }
    }
    Ok(())
}

/// Every valid `(M, N, N_SS)` with `M, N ≤ 8`.
fn dims() -> impl Iterator<Item = (usize, usize, usize)> {
    (1..=8).flat_map(|m| (1..=8).flat_map(move |n| (1..=m.min(n)).map(move |s| (m, n, s))))
}

/// Seeded CFRs of one shape: four random ones, then the degenerate cases.
fn corpus(m: usize, n: usize, seed: u64) -> Vec<CMatrix> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    let mut random = || CMatrix::from_fn(m, n, |_, _| C64::new(next(), next()));
    let mut out: Vec<CMatrix> = (0..4).map(|_| random()).collect();
    // All-zero.
    out.push(CMatrix::zeros(m, n));
    // Rank 1: an outer product.
    let (u, w) = (random(), random());
    out.push(CMatrix::from_fn(m, n, |r, c| u[(r, 0)] * w[(0, c)]));
    // Equal singular values: exactly (2·I) and, up to rounding, a DFT
    // block with orthogonal columns (or rows) of equal norm.
    out.push(CMatrix::eye_rect(m, n).scale(C64::real(2.0)));
    let k = m.max(n) as f64;
    out.push(CMatrix::from_fn(m, n, |r, c| {
        C64::cis(std::f64::consts::TAU * (r * c) as f64 / k)
    }));
    // Signed zeros among random entries, and an all −0 matrix.
    let zeros = [
        C64::new(0.0, -0.0),
        C64::new(-0.0, 0.0),
        C64::new(-0.0, -0.0),
        C64::ZERO,
    ];
    let base = random();
    out.push(CMatrix::from_fn(m, n, |r, c| {
        let i = r * n + c;
        if i.is_multiple_of(2) {
            zeros[(i / 2) % 4]
        } else {
            base[(r, c)]
        }
    }));
    out.push(CMatrix::from_fn(m, n, |_, _| C64::new(-0.0, -0.0)));
    // An infinite entry among zeros: `0·∞` is NaN, so a product that
    // stopped skipping zero terms would show.
    out.push(CMatrix::from_fn(m, n, |r, c| match (r, c) {
        (0, 0) => C64::new(f64::INFINITY, 0.0),
        _ => zeros[(r + c) % 4],
    }));
    // Extreme scales; at 1e160 the Gram matrix overflows, and the
    // infinities and NaNs that follow reach every product.
    out.push(random().scale(C64::real(1e-150)));
    out.push(random().scale(C64::real(1e150)));
    out.push(random().scale(C64::real(1e160)));
    out
}

#[test]
fn the_corpus_matches_the_dense_reference() {
    for (m, n, n_ss) in dims() {
        for h in corpus(m, n, (m * 100 + n * 10 + n_ss) as u64) {
            check(&h, n_ss).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn from_cfr_angles_are_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u16| {
        for b in x.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (m, n, n_ss) in dims() {
        let cfr = corpus(m, n, (m * 100 + n * 10 + n_ss) as u64);
        let tones: Vec<i32> = (0..cfr.len() as i32).collect();
        let mimo = MimoConfig::new(m, n, n_ss).expect("valid dims");
        for cb in STANDARD {
            let fb = BeamformingFeedback::from_cfr(&cfr, &tones, mimo, cb);
            for x in [m, n, n_ss] {
                eat(x as u16);
            }
            fb.q_phi.iter().chain(&fb.q_psi).for_each(|&q| eat(q));
        }
    }
    assert_eq!(
        hash, 0x35e1_32ad_64c1_def2,
        "from_cfr angles moved: {hash:#018x}"
    );
}

/// One CFR entry: mostly uniform in `[−2, 2]²`, sometimes a signed zero.
fn entry() -> impl Strategy<Value = C64> {
    (0u8..12, -2.0f64..2.0, -2.0f64..2.0).prop_map(|(kind, re, im)| match kind {
        0 => C64::ZERO,
        1 => C64::new(-0.0, 0.0),
        2 => C64::new(0.0, -0.0),
        3 => C64::new(-0.0, -0.0),
        _ => C64::new(re, im),
    })
}

/// A CFR of random shape and scale, with its stream count.
fn shaped_cfr() -> impl Strategy<Value = (CMatrix, usize)> {
    (1usize..=8, 1usize..=8, 0u8..6).prop_flat_map(|(m, n, scale)| {
        (
            collection::vec(entry(), m * n),
            1..=m.min(n),
            Just((m, n, scale)),
        )
            .prop_map(|(data, n_ss, (m, n, scale))| {
                let s = [1.0, 1.0, 1.0, 1e-150, 1e150, 1e160][scale as usize];
                (
                    CMatrix::from_fn(m, n, |r, c| data[r * n + c].scale(s)),
                    n_ss,
                )
            })
    })
}

/// One part of a matrix entry: finite, signed zero, ±∞ or NaN.
fn wild_part() -> impl Strategy<Value = f64> {
    (0u8..16, -2.0f64..2.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::NAN,
        _ => x,
    })
}

/// Any matrix entry.
fn wild_entry() -> impl Strategy<Value = C64> {
    (wild_part(), wild_part()).prop_map(|(re, im)| C64::new(re, im))
}

/// An M×N_SS matrix (N_SS ≤ M ≤ 8) of [`wild_entry`]s.
fn wild_v() -> impl Strategy<Value = CMatrix> {
    (1usize..=8).prop_flat_map(|m| {
        (1..=m).prop_flat_map(move |n_ss| {
            collection::vec(wild_entry(), m * n_ss)
                .prop_map(move |data| CMatrix::from_fn(m, n_ss, |r, c| data[r * n_ss + c]))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `decompose` takes any matrix, not only an orthonormal `V_k`: with
    /// non-finite entries, every zero term a product skips or keeps
    /// matters.
    #[test]
    fn decompose_matches_the_dense_reference_on_any_matrix(v in wild_v()) {
        let res = check_decompose(&v);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    #[test]
    fn the_array_path_matches_the_dense_reference((h, n_ss) in shaped_cfr()) {
        let res = check(&h, n_ss);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}
