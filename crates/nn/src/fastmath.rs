//! Polynomial transcendentals shared by the training and inference paths.
//!
//! After the register-blocked conv/dense kernels, the scalar `exp` inside
//! SELU and sigmoid is the next hot spot of the batched CNN path:
//! `f32::exp` is an opaque libm call the compiler can neither inline nor
//! hoist. [`poly_exp`] replaces it with a Cody–Waite range reduction plus
//! a degree-6 polynomial — branch-light, inlineable, and within a few ULP
//! of `f32::exp` (the bound is pinned by a property test in
//! `tests/proptests.rs`).
//!
//! **Both** the training passes and the frozen [`crate::InferOp`]s call
//! this one function, so training-time activations and frozen serving
//! inference stay bit-identical. The per-sample reference
//! (`deepcsi-nn-ref`) takes it as its `exp` in the tests.

/// Inputs are saturated here: `e^-87.34` is the edge of the `f32`
/// normals (`≈ 1.18e-38`), anything lower is numerically zero already.
const EXP_LO: f32 = -87.336_55;
/// Upper saturation knee: `e^88 ≈ 1.65e38` is the largest result whose
/// `2^n` scale still fits a normal exponent field (`n ≤ 127`).
const EXP_HI: f32 = 88.0;

/// Polynomial `e^x`, within a few ULP of `f32::exp` on `[-87.33, 88.0]`
/// (and exactly `1.0` at `x = 0`).
///
/// Outside that range the input saturates: below, the result is pinned
/// at `e^-87.34 ≈ 1.2e-38` (numerically zero — the true value is
/// subnormal or zero); above, at `e^88 ≈ 1.65e38` (the true value
/// overflows to `+∞` soon after). `NaN` propagates. The function is
/// deliberately **branch-free** — clamp, round, fused polynomial,
/// exponent-field scale — so activation loops over it autovectorize.
#[inline(always)]
pub fn poly_exp(x: f32) -> f32 {
    // Saturating clamp instead of early returns keeps the whole function
    // if-convertible (NaN passes through `clamp` untouched).
    let x = x.clamp(EXP_LO, EXP_HI);
    // Range reduction: x = n·ln2 + r with |r| ≤ ln2/2, the ln2 split in
    // two constants (Cody–Waite) so n·ln2 subtracts exactly.
    let n = (x * std::f32::consts::LOG2_E).round();
    // 0.693359375 = 355/512 exactly (9 mantissa bits): n·LN2_HI is exact
    // for every |n| ≤ 128, which is the whole point of the split — spell
    // the value out in full rather than letting it look like a rounded
    // ln 2.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // Degree-6 polynomial for e^r on [-ln2/2, ln2/2] (Cephes expf
    // coefficients), evaluated as 1 + r + r²·q(r) to keep the leading
    // terms exact.
    let mut q = 1.987_569_2e-4f32;
    q = q * r + 1.398_199_9e-3;
    q = q * r + 8.333_452e-3;
    q = q * r + 4.166_579_6e-2;
    q = q * r + 1.666_666_5e-1;
    q = q * r + 0.5;
    let p = q * (r * r) + r + 1.0;
    // Scale by 2^n via the exponent field; the clamp bounds n to
    // [-126, 127], so the biased exponent never overflows. The integer
    // n is read out of the mantissa of n + 1.5·2²³ (exact: that sum's
    // ULP is 1) rather than by `n as i32`, whose saturating cast LLVM
    // scalarizes. A NaN input selects n = 0, the value the saturating
    // cast gave it, and p = NaN carries the result.
    const SHIFTER: f32 = 12_582_912.0; // 1.5·2²³, bits 0x4B40_0000
    let k = (n + SHIFTER).to_bits() as i32 - 0x4B40_0000;
    let k = if n.is_nan() { 0 } else { k };
    p * f32::from_bits(((k + 127) as u32) << 23)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulp_diff(a: f32, b: f32) -> u64 {
        assert!(a.is_finite() && b.is_finite() && a >= 0.0 && b >= 0.0);
        (i64::from(a.to_bits()) - i64::from(b.to_bits())).unsigned_abs()
    }

    #[test]
    fn exact_at_zero() {
        assert_eq!(poly_exp(0.0), 1.0);
        assert_eq!(poly_exp(-0.0), 1.0);
    }

    #[test]
    fn saturates_at_the_knees() {
        // Below: pinned at the edge of the normals — numerically zero.
        assert!(poly_exp(-200.0) <= 1.2e-38);
        assert!(poly_exp(f32::NEG_INFINITY) <= 1.2e-38);
        // Above: pinned at e^88 ≈ 1.65e38 — numerically "huge", finite.
        assert!(poly_exp(200.0) >= 1.6e38);
        assert!(poly_exp(f32::INFINITY) >= 1.6e38);
        assert!(poly_exp(f32::NAN).is_nan());
        // Saturation is monotone with the in-range values.
        assert!(poly_exp(-200.0) <= poly_exp(-87.0));
        assert!(poly_exp(200.0) >= poly_exp(87.9));
    }

    /// The previous `poly_exp`, verbatim, scaling by `n as i32`: the
    /// bit-for-bit reference for the shifter-based scale above.
    fn poly_exp_cast_scale(x: f32) -> f32 {
        let x = x.clamp(EXP_LO, EXP_HI);
        let n = (x * std::f32::consts::LOG2_E).round();
        #[allow(clippy::excessive_precision)]
        const LN2_HI: f32 = 0.693_359_375;
        const LN2_LO: f32 = -2.121_944_4e-4;
        let r = (x - n * LN2_HI) - n * LN2_LO;
        let mut q = 1.987_569_2e-4f32;
        q = q * r + 1.398_199_9e-3;
        q = q * r + 8.333_452e-3;
        q = q * r + 4.166_579_6e-2;
        q = q * r + 1.666_666_5e-1;
        q = q * r + 0.5;
        let p = q * (r * r) + r + 1.0;
        p * f32::from_bits(((n as i32 + 127) as u32) << 23)
    }

    fn assert_same_bits(x: f32) {
        let (got, want) = (poly_exp(x), poly_exp_cast_scale(x));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "poly_exp({x:e} = {:#010x}) = {got:e} vs {want:e}",
            x.to_bits()
        );
    }

    #[test]
    fn scale_is_bit_identical_to_the_saturating_cast() {
        // A strided sweep of every bit pattern: both signs, every
        // exponent, NaN payloads included.
        for bits in (0..=u32::MAX).step_by(4_099) {
            assert_same_bits(f32::from_bits(bits));
        }
        let edges = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007F_FFFF),
            f32::from_bits(0x807F_FFFF),
            EXP_LO,
            EXP_HI,
            f32::MAX,
            f32::MIN,
        ];
        for x in edges {
            assert_same_bits(x);
        }
        for knee in [EXP_LO, EXP_HI] {
            let mut x = knee;
            let mut y = knee;
            for _ in 0..64 {
                x = x.next_up();
                y = y.next_down();
                assert_same_bits(x);
                assert_same_bits(y);
            }
        }
        // Inputs whose x·log2e is an exact half, where round() breaks
        // the tie away from zero: the few ULP around each (h + ½)·ln 2.
        let mut halves = 0;
        for h in -127..=127 {
            let mut x = (h as f32 + 0.5) * std::f32::consts::LN_2;
            for _ in 0..4 {
                x = x.next_down();
            }
            for _ in 0..9 {
                halves += usize::from((x * std::f32::consts::LOG2_E).fract().abs() == 0.5);
                assert_same_bits(x);
                x = x.next_up();
            }
        }
        assert!(halves > 0, "no input hit an exact half");
    }

    /// Every one of the 2³² inputs: 268 s in a release build on one
    /// Sapphire Rapids core (`cargo test --release -p deepcsi-nn --lib
    /// -- --ignored`).
    #[test]
    #[ignore = "exhaustive: about 4.5 minutes in a release build"]
    fn scale_is_bit_identical_to_the_saturating_cast_exhaustively() {
        for bits in 0..=u32::MAX {
            assert_same_bits(f32::from_bits(bits));
        }
    }

    #[test]
    fn dense_sweep_stays_within_ulp_budget() {
        // 400k evenly spaced points over the whole normal-result range.
        let (lo, hi) = (-87.0f32, 88.0f32);
        let n = 400_000;
        let mut worst = 0u64;
        for i in 0..=n {
            let x = lo + (hi - lo) * i as f32 / n as f32;
            let d = ulp_diff(poly_exp(x), x.exp());
            worst = worst.max(d);
        }
        assert!(worst <= 8, "max ULP error {worst} exceeds budget");
    }
}
