//! Addition and subtraction for [`BigUint`].

use super::{BigUint, Limb};
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// `a + b + carry`, returning the low limb and the new carry.
#[inline(always)]
pub(crate) fn adc(a: Limb, b: Limb, carry: &mut Limb) -> Limb {
    let sum = a as u128 + b as u128 + *carry as u128;
    *carry = (sum >> 64) as Limb;
    sum as Limb
}

/// `a - b - borrow`, returning the low limb and the new borrow (0 or 1).
#[inline(always)]
pub(crate) fn sbb(a: Limb, b: Limb, borrow: &mut Limb) -> Limb {
    let diff = (a as i128) - (b as i128) - (*borrow as i128);
    *borrow = u64::from(diff < 0);
    diff as Limb
}

impl BigUint {
    /// In-place `self += other`.
    pub fn add_assign_ref(&mut self, other: &BigUint) {
        if other.limbs.len() > self.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            *limb = adc(*limb, b, &mut carry);
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// In-place `self -= other`. Panics if `other > self` (debug and release).
    pub fn sub_assign_ref(&mut self, other: &BigUint) {
        assert!(
            *self >= *other,
            "BigUint subtraction underflow: minuend smaller than subtrahend"
        );
        let mut borrow = 0;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            *limb = sbb(*limb, b, &mut borrow);
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.add_assign_ref(rhs);
        out
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(mut self, rhs: BigUint) -> BigUint {
        self.add_assign_ref(&rhs);
        self
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        self.add_assign_ref(rhs);
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.sub_assign_ref(rhs);
        out
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(mut self, rhs: BigUint) -> BigUint {
        self.sub_assign_ref(&rhs);
        self
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        self.sub_assign_ref(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = big(u64::MAX as u128);
        let b = big(1);
        assert_eq!(&a + &b, big(1u128 << 64));
    }

    #[test]
    fn add_different_lengths() {
        let a = big(u128::MAX - 1);
        let b = big(1);
        assert_eq!(&a + &b, big(u128::MAX));
        assert_eq!(&b + &a, big(u128::MAX));
    }

    #[test]
    fn add_overflow_grows() {
        let a = big(u128::MAX);
        let sum = &a + &a;
        assert_eq!(sum.bits(), 129);
    }

    #[test]
    fn sub_basic() {
        assert_eq!(&big(100) - &big(58), big(42));
        assert_eq!(&big(1u128 << 64) - &big(1), big(u64::MAX as u128));
        assert_eq!(&big(5) - &big(5), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &big(1) - &big(2);
    }

    #[test]
    fn add_zero_identity() {
        let a = big(12345);
        assert_eq!(&a + &BigUint::zero(), a);
        assert_eq!(&BigUint::zero() + &a, a);
    }
}
