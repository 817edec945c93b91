//! Deterministic key fixtures for tests and benchmarks.
//!
//! Safe-prime generation dominates threshold keygen cost, so tests share a
//! process-wide cache of safe primes per modulus width (seeded
//! deterministically for reproducibility) and derive fresh threshold
//! shares from them cheaply.
//!
//! The primes come from [`prime::gen_prime_pair`]: each is the first safe
//! prime of a window of 4096 candidates `q0 + 2j` up from a random start,
//! sieved by the odd primes below 2^16 before any Fermat test (see
//! `pivot_bignum::prime`). On a 2-vCPU Sapphire Rapids host (AVX-512 IFMA)
//! the pair costs ≈ 0.1 s at keysize 1024 and ≈ 15 ms at 512. The primes
//! are a function of that search order, so the tests below pin the top 64
//! bits of `N` ([`key_fingerprint`]): a change to the search fails a pin
//! instead of silently changing every fixture key.

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

/// A deterministic pair of safe primes whose product has exactly `n_bits`
/// bits, cached per process.
pub fn safe_primes(n_bits: u32) -> Arc<(BigUint, BigUint)> {
    let mut cache = prime_cache().lock().expect("prime cache poisoned");
    Arc::clone(cache.entry(n_bits).or_insert_with(|| {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ n_bits as u64);
        Arc::new(prime::gen_prime_pair(
            &mut rng,
            n_bits,
            prime::gen_safe_prime,
        ))
    }))
}

/// The top 64 bits of the fixture modulus at `n_bits` (all of it below 64
/// bits), as 16 hex digits: names the key every run at that keysize deals.
pub fn key_fingerprint(n_bits: u32) -> String {
    let primes = safe_primes(n_bits);
    let n = &primes.0 * &primes.1;
    let top = n.shr_bits(n_bits.saturating_sub(64));
    format!("{:016x}", top.to_u64().expect("at most 64 bits"))
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
    threshold_from_safe_primes(&mut rng, &primes.0, &primes.1, m, t)
        .expect("the pair makes θ a unit mod N")
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

    /// The fixture keys are a function of the prime search's order: any
    /// change to it must fail here, not silently move every key.
    #[test]
    fn fixture_keys_are_pinned() {
        for (n_bits, top) in [
            (128, "d56d9720157507d0"),
            (256, "df9e531bd85a6d42"),
            (512, "b92ad2ff4f68694b"),
        ] {
            assert_eq!(key_fingerprint(n_bits), top, "keysize {n_bits}");
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
