//! Signed arbitrary-precision integers (sign + magnitude), used mainly by the
//! extended Euclidean algorithm and the signed fixed-point encodings of the
//! protocol layers.

use crate::BigUint;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Sign of a [`BigInt`]. Zero always has [`Sign::Zero`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sign {
    Negative,
    Zero,
    Positive,
}

/// Signed arbitrary-precision integer.
#[derive(Clone, PartialEq, Eq)]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

impl BigInt {
    /// The value 0.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            mag: BigUint::zero(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigInt {
            sign: Sign::Positive,
            mag: BigUint::one(),
        }
    }

    /// Construct from a sign and magnitude (canonicalizing zero).
    pub fn from_parts(sign: Sign, mag: BigUint) -> Self {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            assert!(sign != Sign::Zero, "nonzero magnitude needs a nonzero sign");
            BigInt { sign, mag }
        }
    }

    /// Construct from an `i64`.
    pub fn from_i64(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_parts(Sign::Positive, BigUint::from_u64(v as u64)),
            Ordering::Less => {
                BigInt::from_parts(Sign::Negative, BigUint::from_u64(v.unsigned_abs()))
            }
        }
    }

    /// Construct from an `i128`.
    pub fn from_i128(v: i128) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_parts(Sign::Positive, BigUint::from_u128(v as u128)),
            Ordering::Less => {
                BigInt::from_parts(Sign::Negative, BigUint::from_u128(v.unsigned_abs()))
            }
        }
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude.
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// True iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Euclidean remainder in `[0, modulus)`.
    pub fn rem_euclid(&self, modulus: &BigUint) -> BigUint {
        let r = self.mag.rem_of(modulus);
        match self.sign {
            Sign::Negative if !r.is_zero() => modulus - &r,
            _ => r,
        }
    }
}

impl From<BigUint> for BigInt {
    fn from(mag: BigUint) -> Self {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            BigInt {
                sign: Sign::Positive,
                mag,
            }
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        let sign = match self.sign {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        };
        BigInt {
            sign,
            mag: self.mag,
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -self.clone()
    }
}

impl Add<&BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_parts(a, &self.mag + &rhs.mag),
            (a, _) => {
                // Opposite signs: subtract the smaller magnitude.
                match self.mag.cmp(&rhs.mag) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => BigInt::from_parts(a, &self.mag - &rhs.mag),
                    Ordering::Less => BigInt::from_parts(
                        if a == Sign::Positive {
                            Sign::Negative
                        } else {
                            Sign::Positive
                        },
                        &rhs.mag - &self.mag,
                    ),
                }
            }
        }
    }
}

impl Sub<&BigInt> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul<&BigInt> for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if self.is_zero() || rhs.is_zero() {
            return BigInt::zero();
        }
        let sign = if self.sign == rhs.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt::from_parts(sign, &self.mag * &rhs.mag)
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(s: Sign) -> i8 {
            match s {
                Sign::Negative => -1,
                Sign::Zero => 0,
                Sign::Positive => 1,
            }
        }
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => match self.sign {
                Sign::Negative => other.mag.cmp(&self.mag),
                Sign::Zero => Ordering::Equal,
                Sign::Positive => self.mag.cmp(&other.mag),
            },
            ord => ord,
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Negative {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i128) -> BigInt {
        BigInt::from_i128(v)
    }

    #[test]
    fn add_sign_combinations() {
        for a in [-7i128, -1, 0, 3, 12] {
            for b in [-9i128, -3, 0, 1, 15] {
                assert_eq!(&int(a) + &int(b), int(a + b), "{a} + {b}");
                assert_eq!(&int(a) - &int(b), int(a - b), "{a} - {b}");
                assert_eq!(&int(a) * &int(b), int(a * b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn ordering_across_signs() {
        assert!(int(-5) < int(-1));
        assert!(int(-1) < int(0));
        assert!(int(0) < int(1));
        assert!(int(3) < int(10));
    }

    #[test]
    fn rem_euclid_wraps_negatives() {
        let m = BigUint::from_u64(7);
        assert_eq!(int(10).rem_euclid(&m), BigUint::from_u64(3));
        assert_eq!(int(-10).rem_euclid(&m), BigUint::from_u64(4));
        assert_eq!(int(-7).rem_euclid(&m), BigUint::zero());
        assert_eq!(int(0).rem_euclid(&m), BigUint::zero());
    }

    #[test]
    fn neg_round_trip() {
        assert_eq!(-(-int(5)), int(5));
        assert_eq!(-int(0), int(0));
    }

    #[test]
    fn display() {
        assert_eq!(int(-42).to_string(), "-42");
        assert_eq!(int(0).to_string(), "0");
    }
}
