//! Modular arithmetic: gcd, extended gcd, modular inverse, and modular
//! exponentiation (dispatching to Montgomery for odd moduli).

use crate::{BigInt, BigUint, Montgomery};

/// Greatest common divisor (binary GCD).
pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() {
        return b.clone();
    }
    if b.is_zero() {
        return a.clone();
    }
    let mut a = a.clone();
    let mut b = b.clone();
    let az = a.trailing_zeros().expect("nonzero");
    let bz = b.trailing_zeros().expect("nonzero");
    let common = az.min(bz);
    a = a.shr_bits(az);
    b = b.shr_bits(bz);
    loop {
        // Both odd here.
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b.sub_assign_ref(&a);
        if b.is_zero() {
            return a.shl_bits(common);
        }
        b = b.shr_bits(b.trailing_zeros().expect("nonzero"));
    }
}

/// Least common multiple.
pub fn lcm(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let g = gcd(a, b);
    &(a / &g) * b
}

/// Extended Euclid on the first cofactor only: `(g, x)` with
/// `a*x ≡ g = gcd(a, b) (mod b)`. The one Euclidean loop of this module —
/// a modular inverse never needs the cofactor of the modulus.
fn half_egcd(a: &BigUint, b: &BigUint) -> (BigUint, BigInt) {
    let (mut r0, mut r1) = (a.clone(), b.clone());
    let (mut x0, mut x1) = (BigInt::one(), BigInt::zero());
    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1);
        let x2 = &x0 - &(&BigInt::from(q) * &x1);
        (r0, r1) = (r1, r2);
        (x0, x1) = (x1, x2);
    }
    (r0, x0)
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
pub fn egcd(a: &BigUint, b: &BigUint) -> (BigUint, BigInt, BigInt) {
    let (g, x) = half_egcd(a, b);
    if b.is_zero() {
        return (g, x, BigInt::zero());
    }
    // y is fixed by g and x: (g − a·x) / b, an exact division.
    let rest = &BigInt::from(g.clone()) - &(&BigInt::from(a.clone()) * &x);
    let (y, r) = rest.magnitude().div_rem(b);
    debug_assert!(r.is_zero());
    let y = BigInt::from_parts(rest.sign(), y);
    (g, x, y)
}

/// Modular inverse of `a` modulo `m`, if `gcd(a, m) == 1`.
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    if m.is_zero() || m.is_one() {
        return None;
    }
    let a = a.rem_of(m);
    if a.is_zero() {
        return None;
    }
    let (g, x) = half_egcd(&a, m);
    if !g.is_one() {
        return None;
    }
    Some(x.rem_euclid(m))
}

/// `base^exp mod modulus`.
///
/// Odd moduli go through Montgomery exponentiation; even moduli (never the
/// case in Paillier, but supported for completeness) use square-and-multiply
/// with explicit reduction.
pub fn mod_pow(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    assert!(!modulus.is_zero(), "mod_pow with zero modulus");
    if modulus.is_one() {
        return BigUint::zero();
    }
    if modulus.is_odd() {
        return Montgomery::new(modulus).pow(base, exp);
    }
    // Fallback: plain binary exponentiation for even moduli.
    let mut result = BigUint::one();
    let mut acc = base.rem_of(modulus);
    for i in 0..exp.bits() {
        if exp.bit(i) {
            result = (&result * &acc).rem_of(modulus);
        }
        acc = (&acc * &acc).rem_of(modulus);
    }
    result
}

/// `(a * b) mod m` without constructing a Montgomery context.
pub fn mod_mul(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    (a * b).rem_of(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn gcd_small() {
        assert_eq!(gcd(&big(12), &big(18)), big(6));
        assert_eq!(gcd(&big(17), &big(5)), big(1));
        assert_eq!(gcd(&big(0), &big(5)), big(5));
        assert_eq!(gcd(&big(5), &big(0)), big(5));
        assert_eq!(gcd(&big(48), &big(180)), big(12));
    }

    #[test]
    fn lcm_small() {
        assert_eq!(lcm(&big(4), &big(6)), big(12));
        assert_eq!(lcm(&big(0), &big(6)), BigUint::zero());
    }

    #[test]
    fn egcd_bezout_identity() {
        let a = big(240);
        let b = big(46);
        let (g, x, y) = egcd(&a, &b);
        assert_eq!(g, big(2));
        let lhs = &(&BigInt::from(a) * &x) + &(&BigInt::from(b) * &y);
        assert_eq!(lhs, BigInt::from(g));
    }

    #[test]
    fn inverse_round_trip() {
        let m = big(1_000_000_007);
        for a in [2u128, 3, 999_999_999, 123_456_789] {
            let inv = mod_inverse(&big(a), &m).expect("coprime");
            assert_eq!((&big(a) * &inv).rem_of(&m), BigUint::one(), "a = {a}");
        }
    }

    #[test]
    fn inverse_fails_when_not_coprime() {
        assert_eq!(mod_inverse(&big(6), &big(9)), None);
        assert_eq!(mod_inverse(&big(0), &big(9)), None);
        assert_eq!(mod_inverse(&big(3), &BigUint::one()), None);
    }

    #[test]
    fn mod_pow_matches_u128_reference() {
        // Reference computed with u128 arithmetic on small values.
        fn ref_pow(mut b: u128, mut e: u128, m: u128) -> u128 {
            let mut r = 1u128;
            b %= m;
            while e > 0 {
                if e & 1 == 1 {
                    r = r * b % m;
                }
                b = b * b % m;
                e >>= 1;
            }
            r
        }
        let cases = [
            (3u128, 1000u128, 1_000_000_007u128), // odd modulus → Montgomery
            (2, 127, 1_000_000_007),
            (5, 117, 1 << 32), // even modulus → fallback
            (7, 0, 13),
            (0, 5, 13),
        ];
        for (b, e, m) in cases {
            assert_eq!(
                mod_pow(&big(b), &big(e), &big(m)),
                big(ref_pow(b, e, m)),
                "{b}^{e} mod {m}"
            );
        }
    }

    #[test]
    fn fermat_little_theorem() {
        // p prime → a^(p-1) ≡ 1 (mod p)
        let p = big(2_147_483_647); // Mersenne prime 2^31 - 1
        for a in [2u128, 3, 65_537] {
            assert_eq!(
                mod_pow(&big(a), &(&p - &BigUint::one()), &p),
                BigUint::one()
            );
        }
    }
}
