//! The MPC computation domain: `Z_p` with the Mersenne prime `p = 2^61 − 1`.
//!
//! 61 bits leave headroom for 40-bit signed fixed-point values plus an
//! 18-bit statistical mask (see [`crate::FixedConfig`]), while keeping
//! multiplication a single `u128` product with fold-reduction.

use pivot_transport::wire::{Wire, WireError};
use rand::Rng;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// `p = 2^61 − 1`.
pub const MODULUS: u64 = (1 << 61) - 1;

/// A field element of `Z_{2^61 − 1}`, always kept reduced.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp(u64);

impl Fp {
    pub const ZERO: Fp = Fp(0);
    pub const ONE: Fp = Fp(1);
    /// The bit length of `p`: every element is below `2^BITS`.
    pub const BITS: u32 = u64::BITS - MODULUS.leading_zeros();

    /// A uniform element: one `gen_range(0..p)` draw from `rng`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Fp {
        Fp::new(rng.gen_range(0..MODULUS))
    }

    /// `m·p`, which bounds a sum of `m` shares (each below `p`) lifted to
    /// the integers.
    pub const fn share_sum_bound(m: usize) -> u128 {
        m as u128 * MODULUS as u128
    }

    /// Reduce an arbitrary u64.
    pub fn new(v: u64) -> Fp {
        Fp(reduce64(v))
    }

    /// The canonical representative in `[0, p)`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Lift a signed integer (negatives wrap to the upper half).
    pub fn from_i64(v: i64) -> Fp {
        if v >= 0 {
            Fp::new(v as u64)
        } else {
            -Fp::new(v.unsigned_abs())
        }
    }

    /// Interpret as signed: values above `p/2` are negative.
    pub fn to_i64(self) -> i64 {
        if self.0 > MODULUS / 2 {
            -((MODULUS - self.0) as i64)
        } else {
            self.0 as i64
        }
    }

    /// Multiplicative inverse via Fermat (`a^{p-2}`). Panics on zero.
    pub fn inv(self) -> Fp {
        assert!(self.0 != 0, "inverse of zero");
        self.pow(MODULUS - 2)
    }

    /// `self^e` by square-and-multiply.
    pub fn pow(self, mut e: u64) -> Fp {
        let mut base = self;
        let mut acc = Fp::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * base;
            }
            base = base * base;
            e >>= 1;
        }
        acc
    }

    /// `2^k` as a field element (`k < Fp::BITS`).
    pub fn pow2(k: u32) -> Fp {
        assert!(k < Fp::BITS, "2^{k} exceeds the field");
        Fp(1u64 << k)
    }

    /// Inverse of `2^k` (precomputable public constant).
    pub fn inv_pow2(k: u32) -> Fp {
        Fp::pow2(k).inv()
    }
}

/// Reduce a value `< 2^64` modulo `2^61 − 1`.
#[inline(always)]
fn reduce64(v: u64) -> u64 {
    let folded = (v & MODULUS) + (v >> 61);
    if folded >= MODULUS {
        folded - MODULUS
    } else {
        folded
    }
}

/// Reduce a 122-bit product modulo `2^61 − 1`.
#[inline(always)]
fn reduce128(v: u128) -> u64 {
    let lo = (v as u64) & MODULUS;
    let hi = (v >> 61) as u64; // ≤ 2^67, fold again
    reduce64(lo + (hi & MODULUS) + (hi >> 61))
}

impl Add for Fp {
    type Output = Fp;
    #[inline(always)]
    fn add(self, rhs: Fp) -> Fp {
        let s = self.0 + rhs.0; // < 2^62, safe
        Fp(if s >= MODULUS { s - MODULUS } else { s })
    }
}

impl AddAssign for Fp {
    fn add_assign(&mut self, rhs: Fp) {
        *self = *self + rhs;
    }
}

impl Sub for Fp {
    type Output = Fp;
    #[inline(always)]
    fn sub(self, rhs: Fp) -> Fp {
        Fp(if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + MODULUS - rhs.0
        })
    }
}

impl SubAssign for Fp {
    fn sub_assign(&mut self, rhs: Fp) {
        *self = *self - rhs;
    }
}

impl Mul for Fp {
    type Output = Fp;
    #[inline(always)]
    fn mul(self, rhs: Fp) -> Fp {
        Fp(reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl Neg for Fp {
    type Output = Fp;
    fn neg(self) -> Fp {
        Fp(if self.0 == 0 { 0 } else { MODULUS - self.0 })
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({})", self.0)
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Wire for Fp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let raw = u64::decode(buf)?;
        if raw >= MODULUS {
            return Err(WireError("field element out of range"));
        }
        Ok(Fp(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_boundaries() {
        assert_eq!(Fp::new(MODULUS).value(), 0);
        assert_eq!(Fp::new(MODULUS + 1).value(), 1);
        assert_eq!(Fp::new(u64::MAX).value(), u64::MAX % MODULUS);
    }

    #[test]
    fn add_sub_wraparound() {
        let a = Fp::new(MODULUS - 1);
        assert_eq!((a + Fp::ONE).value(), 0);
        assert_eq!((Fp::ZERO - Fp::ONE).value(), MODULUS - 1);
        assert_eq!((a + a).value(), MODULUS - 2);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let cases = [
            (0u64, 5u64),
            (1, MODULUS - 1),
            (MODULUS - 1, MODULUS - 1),
            (0x1234_5678_9abc, 0xfff_ffff_ffff),
            (MODULUS / 2, 3),
        ];
        for (a, b) in cases {
            let expect = ((a as u128 * b as u128) % MODULUS as u128) as u64;
            assert_eq!((Fp::new(a) * Fp::new(b)).value(), expect, "{a} * {b}");
        }
    }

    #[test]
    fn inverse_law() {
        for v in [1u64, 2, 3, 12345, MODULUS - 1, 1 << 40] {
            let a = Fp::new(v);
            assert_eq!(a * a.inv(), Fp::ONE, "inverse of {v}");
        }
    }

    #[test]
    fn signed_round_trip() {
        for v in [0i64, 1, -1, 42, -42, 1 << 39, -(1 << 39)] {
            assert_eq!(Fp::from_i64(v).to_i64(), v, "value {v}");
        }
    }

    #[test]
    fn pow2_and_inverse() {
        let x = Fp::new(0xabcdef);
        let scaled = x * Fp::pow2(16);
        assert_eq!(scaled * Fp::inv_pow2(16), x);
    }

    #[test]
    fn fermat() {
        assert_eq!(Fp::new(7).pow(MODULUS - 1), Fp::ONE);
    }

    #[test]
    fn wire_rejects_unreduced() {
        use pivot_transport::wire::Wire;
        let bad = (MODULUS + 5).to_wire();
        assert!(Fp::from_wire(&bad).is_err());
        let good = Fp::new(123).to_wire();
        assert_eq!(Fp::from_wire(&good).unwrap(), Fp::new(123));
    }
}
