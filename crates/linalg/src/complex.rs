//! Complex number type used throughout the DeepCSI pipeline.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
///
/// `C64` is a plain value type (`Copy`) with the arithmetic operators,
/// polar-form helpers and the conjugation/modulus operations the
/// beamforming-feedback math requires.
///
/// # Example
///
/// ```
/// use deepcsi_linalg::C64;
///
/// let z = C64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
/// assert!((z.re).abs() < 1e-12);
/// assert!((z.im - 2.0).abs() < 1e-12);
/// assert!((z.abs() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from its Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        C64::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns `e^{jθ}`, a unit-modulus phasor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        C64::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64::new(self.re, -self.im)
    }

    /// Modulus (absolute value) `|z|`.
    ///
    /// Uses `hypot` for overflow-safe evaluation.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|²`; cheaper than [`C64::abs`] when a square root
    /// is not needed.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) of the number, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        C64::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        C64::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns non-finite components when `z` is zero, mirroring `f64`
    /// division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        C64::new(self.re / d, -self.im / d)
    }

    /// Scales the number by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        C64::new(self.re * s, self.im * s)
    }

    /// Returns `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        C64::real(re)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z·w⁻¹ by definition
    fn div(self, rhs: C64) -> C64 {
        self * rhs.inv()
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: f64) -> C64 {
        C64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        *self = *self + rhs;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        *self = *self - rhs;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: C64) {
        *self = *self / rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |acc, z| acc + z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let z = C64::new(3.0, -4.0);
        assert_eq!(z + C64::ZERO, z);
        assert_eq!(z * C64::ONE, z);
        assert_eq!((z - z), C64::ZERO);
        assert!((z * z.inv() - C64::ONE).abs() < EPS);
    }

    #[test]
    fn modulus_and_phase() {
        let z = C64::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < EPS);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
        let p = C64::from_polar(5.0, z.arg());
        assert!((p - z).abs() < EPS);
    }

    #[test]
    fn conjugate_properties() {
        let a = C64::new(1.5, -2.5);
        let b = C64::new(-0.25, 4.0);
        assert_eq!(a.conj().conj(), a);
        assert!(((a * b).conj() - a.conj() * b.conj()).abs() < EPS);
        assert!((a * a.conj()).im.abs() < EPS);
    }

    #[test]
    fn exponential_matches_euler() {
        let theta = 0.7;
        let e = C64::new(0.0, theta).exp();
        assert!((e.re - theta.cos()).abs() < EPS);
        assert!((e.im - theta.sin()).abs() < EPS);
        assert_eq!(C64::cis(theta), C64::from_polar(1.0, theta));
    }

    #[test]
    fn sqrt_squares_back() {
        let z = C64::new(-2.0, 3.0);
        let r = z.sqrt();
        assert!((r * r - z).abs() < 1e-10);
    }

    #[test]
    fn division_by_real() {
        let z = C64::new(2.0, -6.0);
        let h = z / 2.0;
        assert_eq!(h, C64::new(1.0, -3.0));
    }

    #[test]
    fn sum_iterator() {
        let total: C64 = (0..4).map(|i| C64::new(i as f64, 1.0)).sum();
        assert_eq!(total, C64::new(6.0, 4.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", C64::new(1.0, -1.0)).is_empty());
        assert!(!format!("{:?}", C64::ZERO).is_empty());
    }
}
