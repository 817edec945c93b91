//! Primality testing and prime generation.
//!
//! [`is_prime`] is trial division by the primes below 1000 followed by 40
//! Miller–Rabin rounds. [`gen_prime`], [`gen_safe_prime`] (`p = 2q + 1`
//! with `q` prime, which threshold Paillier key dealing needs) and
//! [`gen_prime_pair`] all search the same way, by an incremental combined
//! sieve:
//!
//! - One random start per window: `q0` has the width of `q` (`bits − 1`
//!   for a safe prime, `bits` for a plain one), its top two bits set, and
//!   is odd.
//! - The window is the 4096 candidates `q = q0 + 2j`. `q0 mod s` is
//!   computed once for every odd prime `s < 2^16`, and
//!   each offset `j` where `s` divides `q` (or, for a safe prime,
//!   `p = 2q + 1`) is marked. A sieve prime never strikes itself, which
//!   only matters at widths below 17 bits.
//! - The unmarked offsets are tried in order: a base-2 Fermat test on `q`,
//!   then on `p`, neither drawing randomness, and then the unchanged
//!   [`is_prime`] on both. A window with no hit draws a new start.
//!
//! At 512 bits about one odd candidate in ten survives the sieve on `q`
//! alone and one in 150 survives both, so a window holds ~28 survivors and
//! a safe prime takes ~13 windows and ~350 Fermat tests on `q` (mean of 40
//! seeds). On a 2-vCPU Sapphire Rapids host (AVX-512 IFMA) that is ≈ 40 ms
//! per 512-bit safe prime. Two of them, for a keysize-1024 modulus, cost
//! 55 ms on average over 20 seeds (p90 108 ms), where drawing every
//! candidate afresh and trial dividing it by the primes below 1000 took
//! 720 ms (p90 1.8 s).
//!
//! Searching upward from a random start does not pick every prime of the
//! width with equal probability: a prime after a long gap is found more
//! often. The bias is small and standard: this is the incremental search
//! Brandt and Damgård analyse ("On generation of probable primes by
//! incremental search", CRYPTO '92), and key generators commonly use it.

use crate::{mod_pow, rng, BigUint, Montgomery};
use rand::Rng;
use std::sync::OnceLock;

/// Primes below 1000, used for trial division in [`is_prime`].
const SMALL_PRIMES: &[u64] = &[
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
];

/// Miller–Rabin rounds for a 2^-80 error bound on random candidates.
const MR_ROUNDS: u32 = 40;

/// Candidates per search window: offsets `j < WINDOW` from the start.
const WINDOW: usize = 4096;

/// The search sieves by every odd prime below this bound.
const SIEVE_BOUND: u64 = 1 << 16;

/// Probabilistic primality test (small-prime sieve + Miller–Rabin).
pub fn is_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if let Some(small) = n.to_u64() {
        if small < 2 {
            return false;
        }
        if SMALL_PRIMES.contains(&small) {
            return true;
        }
    }
    if n.is_even() {
        return false;
    }
    for &p in SMALL_PRIMES {
        let (_, r) = n.div_rem_limb(p);
        if r == 0 {
            return n.to_u64() == Some(p);
        }
    }
    miller_rabin(n, MR_ROUNDS, rng)
}

/// Miller–Rabin with `rounds` random bases. `n` must be odd and > 3.
pub fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    let one = BigUint::one();
    let n_minus_1 = n - &one;
    let s = n_minus_1.trailing_zeros().expect("n > 1 is odd so n-1 > 0");
    let d = n_minus_1.shr_bits(s);
    let mont = Montgomery::new(n);

    'witness: for _ in 0..rounds {
        let two = BigUint::from_u64(2);
        let a = rng::gen_range(rng, &two, &n_minus_1);
        let mut x = mont.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = mont.mul(&x, &x.clone());
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// A random prime with exactly `bits` bits, the top two of them set.
pub fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> BigUint {
    assert!(bits >= 2, "primes need at least 2 bits");
    search(rng, bits, false)
}

/// A random *safe prime* `p = 2q + 1` (both prime) with exactly `bits`
/// bits, the top two of them set. No 4- or 5-bit safe prime has that form.
pub fn gen_safe_prime<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> BigUint {
    assert!(bits >= 6, "safe primes need at least 6 bits");
    search(rng, bits - 1, true)
}

/// Two primes drawn by `gen` ([`gen_prime`] or [`gen_safe_prime`]),
/// `⌊n_bits/2⌋` and `⌈n_bits/2⌉` bits wide, whose product `N` has exactly
/// `n_bits` bits: with the top two bits of both set it is at least
/// `(3/4)² · 2^n_bits`. The second is drawn again until the two are
/// distinct and neither divides the other minus one, so that
/// `gcd(N, (p − 1)(q − 1)) = 1` as Paillier needs.
///
/// The widths must hold two such primes, which plain ones do from
/// `n_bits = 16` and safe ones from 17 (227 is the only 8-bit safe prime
/// of the form).
pub fn gen_prime_pair<R: Rng + ?Sized>(
    rng: &mut R,
    n_bits: u32,
    gen: fn(&mut R, u32) -> BigUint,
) -> (BigUint, BigUint) {
    let p = gen(rng, n_bits / 2);
    let divides_one_less = |a: &BigUint, b: &BigUint| (b - &BigUint::one()).rem_of(a).is_zero();
    loop {
        let q = gen(rng, n_bits.div_ceil(2));
        if q != p && !divides_one_less(&p, &q) && !divides_one_less(&q, &p) {
            return (p, q);
        }
    }
}

/// Windows from random starts of `q_bits` bits until one holds a prime
/// `q` (with `2q + 1` prime too when `safe`); returns `q`, or `2q + 1`.
fn search<R: Rng + ?Sized>(rng: &mut R, q_bits: u32, safe: bool) -> BigUint {
    loop {
        let mut start = rng::gen_exact_bits(rng, q_bits);
        start.set_bit(q_bits.saturating_sub(2));
        start.set_bit(0);
        if let Some(found) = search_window(&start, safe, rng) {
            return found;
        }
    }
}

/// The first `q = start + 2j` (`j < WINDOW`, `q` as wide as the odd
/// `start`) that is prime, and whose `p = 2q + 1` is prime too when
/// `safe`. Returns `q`, or `p` when `safe`.
fn search_window<R: Rng + ?Sized>(start: &BigUint, safe: bool, rng: &mut R) -> Option<BigUint> {
    debug_assert!(start.is_odd());
    // Offsets whose candidate keeps the start's width: 2^bits − start is
    // odd, so (2^bits − start + 1) / 2 of them.
    let room = (&BigUint::pow2(start.bits()) - start).shr_bits(1).to_u64();
    let len = room.map_or(WINDOW, |r| WINDOW.min(r as usize + 1));
    let composite = sieve(start, len, safe);
    let one = BigUint::one();
    for j in (0..len).filter(|&j| !composite[j]) {
        let q = start + &BigUint::from_u64(2 * j as u64);
        let p = safe.then(|| {
            let mut p = q.shl_bits(1);
            p.add_assign_ref(&one);
            p
        });
        if !fermat(&q) || p.as_ref().is_some_and(|p| !fermat(p)) {
            continue;
        }
        if is_prime(&q, rng) && p.as_ref().is_none_or(|p| is_prime(p, rng)) {
            return Some(p.unwrap_or(q));
        }
    }
    None
}

/// Marks every offset `j < len` whose `q = start + 2j` (or, when `safe`,
/// `2q + 1`) has an odd prime factor below [`SIEVE_BOUND`] other than
/// itself.
fn sieve(start: &BigUint, len: usize, safe: bool) -> Vec<bool> {
    let mut composite = vec![false; len];
    // Where the candidates are small, a sieve prime may be one of them:
    // then its first multiple is not struck.
    let small = start.to_u64().map(u128::from);
    let (primes, products) = sieve_primes();
    for (group, &product) in primes.chunks(PRIMES_PER_PRODUCT).zip(products) {
        let rem = start.div_rem_limb(product).1;
        for &s in group {
            let r = rem % s;
            let inv2 = s.div_ceil(2);
            // q ≡ 0 (mod s) at j ≡ −r / 2.
            let j = (s - r) % s * inv2 % s;
            let is_self = small.is_some_and(|v| v + 2 * u128::from(j) == u128::from(s));
            strike(&mut composite, j, s, is_self);
            if safe {
                // 2q + 1 = 2r + 1 + 4j ≡ 0 (mod s) at j ≡ −(2r + 1) / 4.
                let j = (s - (2 * r + 1) % s) % s * (inv2 * inv2 % s) % s;
                let is_self = small.is_some_and(|v| 2 * v + 1 + 4 * u128::from(j) == u128::from(s));
                strike(&mut composite, j, s, is_self);
            }
        }
    }
    composite
}

/// Marks `first`, `first + s`, … below `marks.len()`, skipping `first`
/// when the candidate there is `s` itself.
fn strike(marks: &mut [bool], first: u64, s: u64, is_self: bool) {
    let first = first as usize + if is_self { s as usize } else { 0 };
    for j in (first..marks.len()).step_by(s as usize) {
        marks[j] = true;
    }
}

/// Sieve primes per product: four primes below 2^16 multiply below 2^64,
/// so one single-limb remainder of the start serves four of them.
const PRIMES_PER_PRODUCT: usize = 4;

/// The odd primes below [`SIEVE_BOUND`], and the product of each run of
/// [`PRIMES_PER_PRODUCT`] of them.
fn sieve_primes() -> &'static (Vec<u64>, Vec<u64>) {
    static TABLE: OnceLock<(Vec<u64>, Vec<u64>)> = OnceLock::new();
    TABLE.get_or_init(|| {
        let bound = SIEVE_BOUND as usize;
        let mut is_composite = vec![false; bound];
        let mut primes = Vec::new();
        for n in 3..bound {
            if n % 2 == 1 && !is_composite[n] {
                primes.push(n as u64);
                for m in (n * n..bound).step_by(2 * n) {
                    is_composite[m] = true;
                }
            }
        }
        let products = primes
            .chunks(PRIMES_PER_PRODUCT)
            .map(|group| group.iter().product())
            .collect();
        (primes, products)
    })
}

/// Base-2 Fermat test: `2^(n−1) ≡ 1 (mod n)` for odd `n > 1`.
fn fermat(n: &BigUint) -> bool {
    mod_pow(&BigUint::from_u64(2), &(n - &BigUint::one()), n).is_one()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn classifies_small_numbers() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 541, 7919, 104729];
        let composites = [0u64, 1, 4, 6, 9, 15, 91, 561, 1105, 104730]; // incl. Carmichael 561, 1105
        for p in primes {
            assert!(is_prime(&BigUint::from_u64(p), &mut r), "{p} is prime");
        }
        for c in composites {
            assert!(!is_prime(&BigUint::from_u64(c), &mut r), "{c} is composite");
        }
    }

    #[test]
    fn recognises_known_large_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let p = BigUint::pow2(127) - BigUint::one();
        assert!(is_prime(&p, &mut rng()));
        // 2^128 - 1 is famously composite.
        let c = BigUint::pow2(128) - BigUint::one();
        assert!(!is_prime(&c, &mut rng()));
    }

    #[test]
    fn generated_primes_have_requested_width() {
        let mut r = rng();
        for bits in [2u32, 3, 16, 32, 64, 128] {
            let p = gen_prime(&mut r, bits);
            assert_eq!(p.bits(), bits);
            assert!(p.bit(bits - 2), "top two bits set");
            assert!(is_prime(&p, &mut r));
        }
    }

    #[test]
    fn safe_prime_structure() {
        let mut r = rng();
        for bits in [6u32, 7, 8, 64] {
            let p = gen_safe_prime(&mut r, bits);
            assert_eq!(p.bits(), bits);
            assert!(p.bit(bits - 2), "top two bits set");
            assert!(is_prime(&p, &mut r));
            let q = (&p - &BigUint::one()).shr_bits(1);
            assert!(is_prime(&q, &mut r), "q = (p-1)/2 must be prime");
        }
    }

    #[test]
    fn rejects_even() {
        assert!(!is_prime(&BigUint::from_u64(1 << 20), &mut rng()));
    }

    #[test]
    fn sieve_table_is_the_odd_primes_below_the_bound() {
        let (primes, products) = sieve_primes();
        assert_eq!(primes.len(), 6541);
        assert_eq!((primes[0], primes[primes.len() - 1]), (3, 65521));
        assert_eq!(products[0], 3 * 5 * 7 * 11);
        assert_eq!(products.len(), primes.len().div_ceil(PRIMES_PER_PRODUCT));
    }

    /// What [`search_window`] must return, by a scan over `is_prime`
    /// (memoised in `known`: the scans of neighbouring starts overlap).
    fn naive_first(start: u64, safe: bool, known: &mut HashMap<u64, bool>) -> Option<u64> {
        let mut r = rng();
        let mut prime = |x: u64| {
            *known
                .entry(x)
                .or_insert_with(|| is_prime(&BigUint::from_u64(x), &mut r))
        };
        let end = 1u64 << (64 - start.leading_zeros());
        (0..WINDOW as u64)
            .map(|j| start + 2 * j)
            .take_while(|&q| q < end)
            .find(|&q| prime(q) && (!safe || prime(2 * q + 1)))
            .map(|q| if safe { 2 * q + 1 } else { q })
    }

    /// Every width from 5 to 24 bits, plain and safe: the window returns
    /// the first prime at or after its start, in step order, including
    /// where the candidates are sieve primes themselves (q = 5, 11, 23, …).
    #[test]
    fn window_search_finds_the_first_prime_at_or_after_its_start() {
        let mut r = rng();
        for (start, safe, want) in [(5, true, 11), (11, true, 23), (23, true, 47), (3, false, 3)] {
            let got = search_window(&BigUint::from_u64(start), safe, &mut r);
            assert_eq!(got, Some(BigUint::from_u64(want)), "start {start}");
        }
        let mut sample = StdRng::seed_from_u64(24);
        let mut known = HashMap::new();
        for width in 5u32..=24 {
            for safe in [false, true] {
                // The start has the width of q: one bit less for a safe p.
                let q_bits = width - u32::from(safe);
                let (lo, hi) = (1u64 << (q_bits - 1), 1u64 << q_bits);
                let starts: Vec<u64> = if width <= 12 {
                    (lo + 1..hi).step_by(2).collect()
                } else {
                    (0..16).map(|_| sample.gen_range(lo..hi) | 1).collect()
                };
                for start in starts {
                    let got = search_window(&BigUint::from_u64(start), safe, &mut r);
                    let want = naive_first(start, safe, &mut known).map(BigUint::from_u64);
                    assert_eq!(got, want, "width {width}, safe {safe}, start {start}");
                }
            }
        }
    }

    /// The pair contract `keygen`, `threshold_keygen` and the key fixture
    /// rest on, for every modulus width from 16 bits (17 for safe primes)
    /// to 160, and at 192 and 384 (`SlotCodec` sizes packed slots for a
    /// modulus of exactly `keysize` bits).
    #[test]
    fn prime_pairs_are_distinct_and_multiply_to_exactly_n_bits() {
        let mut r = rng();
        let kinds: [(fn(&mut StdRng, u32) -> BigUint, bool, u32); 2] =
            [(gen_prime, false, 16), (gen_safe_prime, true, 17)];
        for (gen, safe, from) in kinds {
            for n_bits in (from..=160).chain([192, 384]) {
                let (p, q) = gen_prime_pair(&mut r, n_bits, gen);
                let at = format!("n_bits {n_bits}, safe {safe}");
                assert_ne!(p, q, "{at}");
                let n = &p * &q;
                assert_eq!(n.bits(), n_bits, "{at}");
                let one = BigUint::one();
                assert!(
                    crate::gcd(&n, &(&(&p - &one) * &(&q - &one))).is_one(),
                    "{at}"
                );
                for x in [&p, &q] {
                    assert!(is_prime(x, &mut r));
                    let half = (x - &BigUint::one()).shr_bits(1);
                    assert!(!safe || is_prime(&half, &mut r), "(p − 1)/2 of {x}");
                }
            }
        }
    }
}
