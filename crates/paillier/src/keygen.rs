//! Plain (non-threshold) Paillier key generation and decryption.
//!
//! The non-threshold scheme is used by unit tests and by the trusted dealer
//! inside [`crate::threshold`]; the Pivot protocols themselves only ever use
//! the threshold variant.

use crate::{Ciphertext, PublicKey};
use pivot_bignum::{lcm, mod_inverse, prime, BigUint};
use rand::Rng;

/// Paillier private key: `λ = lcm(p-1, q-1)` and `μ = λ^{-1} mod N`.
pub struct PrivateKey {
    pk: PublicKey,
    lambda: BigUint,
    mu: BigUint,
}

/// A freshly generated key pair.
pub struct KeyPair {
    pub pk: PublicKey,
    pub sk: PrivateKey,
}

/// Generate a Paillier key pair with an `n_bits`-bit modulus.
pub fn keygen<R: Rng + ?Sized>(rng: &mut R, n_bits: u32) -> KeyPair {
    assert!(n_bits >= 16, "modulus too small to be meaningful");
    let (p, q) = prime::gen_prime_pair(rng, n_bits, prime::gen_prime);
    keypair_from_primes(&p, &q)
}

/// Build a key pair from known primes (used by fixtures and the dealer).
pub fn keypair_from_primes(p: &BigUint, q: &BigUint) -> KeyPair {
    let n = p * q;
    let one = BigUint::one();
    let lambda = lcm(&(p - &one), &(q - &one));
    // g = N+1 ⇒ L(g^λ mod N²) = λ mod N, so μ = λ^{-1} mod N.
    let mu = mod_inverse(&lambda, &n).expect("gcd(λ, N) = 1 for valid primes");
    let pk = PublicKey::from_n(n);
    KeyPair {
        sk: PrivateKey {
            pk: pk.clone(),
            lambda,
            mu,
        },
        pk,
    }
}

impl PrivateKey {
    /// Decrypt: `x = L(c^λ mod N²) · μ mod N` with `L(u) = (u-1)/N`.
    pub fn decrypt(&self, c: &Ciphertext) -> BigUint {
        let u = self.pk.mont().pow(c.raw(), &self.lambda);
        let l = l_function(&u, self.pk.n());
        (&l * &self.mu).rem_of(self.pk.n())
    }
}

/// The Paillier `L` function: `L(u) = (u - 1) / N` (exact division).
pub(crate) fn l_function(u: &BigUint, n: &BigUint) -> BigUint {
    let (q, r) = (u - &BigUint::one()).div_rem(n);
    debug_assert!(r.is_zero(), "L-function input not ≡ 1 mod N");
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let mut r = rng();
        let kp = keygen(&mut r, 128);
        for x in [0u64, 1, 42, 1 << 30] {
            let x = BigUint::from_u64(x);
            let c = kp.pk.encrypt(&x, &mut r);
            assert_eq!(kp.sk.decrypt(&c), x);
        }
    }

    #[test]
    fn homomorphic_addition() {
        let mut r = rng();
        let kp = keygen(&mut r, 128);
        let a = BigUint::from_u64(123);
        let b = BigUint::from_u64(456);
        let ca = kp.pk.encrypt(&a, &mut r);
        let cb = kp.pk.encrypt(&b, &mut r);
        let sum = kp.pk.add(&ca, &cb);
        assert_eq!(kp.sk.decrypt(&sum), BigUint::from_u64(579));
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let mut r = rng();
        let kp = keygen(&mut r, 128);
        let x = BigUint::from_u64(21);
        let c = kp.pk.encrypt(&x, &mut r);
        let doubled = kp.pk.mul_plain(&c, &BigUint::from_u64(2));
        assert_eq!(kp.sk.decrypt(&doubled), BigUint::from_u64(42));
    }

    #[test]
    fn homomorphic_subtraction_and_negation() {
        let mut r = rng();
        let kp = keygen(&mut r, 128);
        let a = kp.pk.encrypt(&BigUint::from_u64(100), &mut r);
        let b = kp.pk.encrypt(&BigUint::from_u64(58), &mut r);
        assert_eq!(kp.sk.decrypt(&kp.pk.sub(&a, &b)), BigUint::from_u64(42));
        // Negation wraps mod N.
        let neg = kp.pk.neg(&b);
        let expect = kp.pk.n() - &BigUint::from_u64(58);
        assert_eq!(kp.sk.decrypt(&neg), expect);
    }

    #[test]
    fn rerandomize_preserves_plaintext_changes_ciphertext() {
        let mut r = rng();
        let kp = keygen(&mut r, 128);
        let c = kp.pk.encrypt(&BigUint::from_u64(7), &mut r);
        let c2 = kp.pk.rerandomize(&c, &mut r);
        assert_ne!(c.raw(), c2.raw());
        assert_eq!(kp.sk.decrypt(&c2), BigUint::from_u64(7));
    }

    #[test]
    fn trivial_encryption_decrypts() {
        let mut r = rng();
        let kp = keygen(&mut r, 128);
        let c = kp.pk.encrypt_trivial(&BigUint::from_u64(99));
        assert_eq!(kp.sk.decrypt(&c), BigUint::from_u64(99));
    }

    #[test]
    fn ciphertexts_are_probabilistic() {
        let mut r = rng();
        let kp = keygen(&mut r, 128);
        let x = BigUint::from_u64(5);
        let c1 = kp.pk.encrypt(&x, &mut r);
        let c2 = kp.pk.encrypt(&x, &mut r);
        assert_ne!(c1.raw(), c2.raw(), "fresh randomness per encryption");
    }

    #[test]
    fn plaintext_reduced_mod_n() {
        let mut r = rng();
        let kp = keygen(&mut r, 128);
        let big = kp.pk.n() + &BigUint::from_u64(5);
        let c = kp.pk.encrypt(&big, &mut r);
        assert_eq!(kp.sk.decrypt(&c), BigUint::from_u64(5));
    }
}
