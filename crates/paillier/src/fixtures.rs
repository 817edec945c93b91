//! Deterministic key fixtures for tests and benchmarks.
//!
//! Safe-prime generation dominates threshold keygen cost, so tests share a
//! process-wide cache of safe primes per bit width (seeded deterministically
//! for reproducibility) and derive fresh threshold shares from them cheaply.

use crate::threshold::{threshold_from_safe_primes, ThresholdKeyPair};
use pivot_bignum::{prime, BigUint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

type PrimeCache = Mutex<HashMap<u32, Arc<(BigUint, BigUint)>>>;

fn prime_cache() -> &'static PrimeCache {
    static CACHE: OnceLock<PrimeCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A deterministic pair of distinct safe primes with `bits/2` bits each
/// whose product has exactly `n_bits` bits, cached per process.
pub fn safe_primes(n_bits: u32) -> Arc<(BigUint, BigUint)> {
    let mut cache = prime_cache().lock().expect("prime cache poisoned");
    Arc::clone(cache.entry(n_bits).or_insert_with(|| {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ n_bits as u64);
        // Both primes are drawn again when the product is short, as in
        // `threshold_keygen`.
        loop {
            let p = prime::gen_safe_prime(&mut rng, n_bits / 2);
            let q = prime::gen_safe_prime(&mut rng, n_bits.div_ceil(2));
            if q != p && (&p * &q).bits() == n_bits {
                break Arc::new((p, q));
            }
        }
    }))
}

/// Deterministic full-threshold key material for `m` parties with an
/// `n_bits` modulus (threshold = m, as Pivot requires).
pub fn threshold_keys(m: usize, n_bits: u32) -> ThresholdKeyPair {
    threshold_keys_with_threshold(m, m, n_bits)
}

/// Deterministic threshold key material with an explicit threshold `t`.
pub fn threshold_keys_with_threshold(m: usize, t: usize, n_bits: u32) -> ThresholdKeyPair {
    let primes = safe_primes(n_bits);
    let mut rng = StdRng::seed_from_u64(0xBEEF ^ (m as u64) << 8 ^ t as u64);
    loop {
        if let Some(kp) = threshold_from_safe_primes(&mut rng, &primes.0, &primes.1, m, t) {
            return kp;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = threshold_keys(3, 128);
        let b = threshold_keys(3, 128);
        assert_eq!(a.pk.n(), b.pk.n());
    }

    #[test]
    fn fixture_keys_decrypt() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = threshold_keys(4, 128);
        let x = BigUint::from_u64(2026);
        let c = kp.pk.encrypt(&x, &mut rng);
        let partials: Vec<_> = kp.shares.iter().map(|s| s.partial_decrypt(&c)).collect();
        assert_eq!(kp.combiner.combine(&partials), x);
    }

    /// `SlotCodec` sizes packed slots for a modulus of exactly `keysize`
    /// bits; at 384 the first safe prime drawn for `q` gives 383.
    #[test]
    fn fixture_modulus_has_exactly_keysize_bits() {
        for n_bits in [192, 384] {
            assert_eq!(threshold_keys(3, n_bits).pk.keysize(), n_bits);
        }
    }

    #[test]
    fn different_party_counts_share_modulus() {
        // Same primes, different sharing — cheap keygen across m.
        let a = threshold_keys(2, 128);
        let b = threshold_keys(5, 128);
        assert_eq!(a.pk.n(), b.pk.n());
        assert_eq!(a.shares.len(), 2);
        assert_eq!(b.shares.len(), 5);
    }
}
