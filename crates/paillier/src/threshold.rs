//! Full-threshold Paillier decryption (Fouque–Poupard–Stern / Damgård–Jurik).
//!
//! A trusted dealer (the role `libhcs` plays in the original Pivot code)
//! generates a modulus from *safe primes* `p = 2p'+1`, `q = 2q'+1` and
//! Shamir-shares the secret exponent `d = β·M` (with `M = p'·q'`) over
//! `Z_{N·M}`. Decryption of `[x]`:
//!
//! 1. every party `i` publishes a partial decryption `cᵢ = c^{2Δsᵢ} mod N²`
//!    (`Δ = m!`),
//! 2. any `t` partials combine via integer Lagrange coefficients into
//!    `c' = Π cᵢ^{2λᵢ} = c^{4Δ²βM}`,
//! 3. `x = L(c') · (4Δ²θ)^{-1} mod N` with the public `θ = βM mod N`.
//!
//! Pivot uses the **full threshold** structure `t = m` (paper §2.1), so all
//! clients must participate; the implementation supports any `t ≤ m`.
//!
//! Some `λᵢ` are negative, so step 2 needs an inverse modulo `N²`. Every
//! combination goes through [`Combiner::combine_batch`] — `combine` is its
//! batch of one — which inverts the negative parts of the whole batch with
//! one modular inversion, the dominant cost of a single combination.

use crate::keygen::l_function;
use crate::{Ciphertext, PublicKey};
use pivot_bignum::{mod_inverse, prime, rng as brng, BigInt, BigUint, ExponentSchedule, Sign};
use rand::Rng;
use std::sync::Arc;

/// Public combination parameters known to every client.
#[derive(Clone)]
pub struct Combiner {
    pk: PublicKey,
    /// `θ = βM mod N`.
    theta: BigUint,
    /// `(4Δ²θ)^{-1} mod N`, precomputed.
    inv_4d2_theta: BigUint,
    /// Number of parties `m`.
    pub n_parties: usize,
    /// Decryption threshold `t` (Pivot always sets `t = m`).
    pub threshold: usize,
    /// `Δ = m!`.
    delta: Arc<BigUint>,
}

/// One party's share of the threshold secret key.
#[derive(Clone)]
pub struct SecretKeyShare {
    /// 1-based party index (the Shamir evaluation point).
    pub index: usize,
    pk: PublicKey,
    /// `2Δsᵢ` — the partial-decryption exponent, precomputed once from the
    /// Shamir evaluation `sᵢ` instead of re-multiplied per ciphertext.
    two_delta_s: BigUint,
    /// The fixed exponent's sliding-window recoding, shared by every
    /// partial decryption this share ever performs (ROADMAP lever 3): the
    /// bit-scan happens once here, and per ciphertext only the odd-power
    /// table the digits actually reference is built.
    schedule: ExponentSchedule,
}

/// A partial decryption `cᵢ`, tagged with the producing party's index.
#[derive(Clone, Debug)]
pub struct PartialDecryption {
    pub index: usize,
    pub value: BigUint,
}

/// Dealer output: the public key, the combiner, and one share per party.
pub struct ThresholdKeyPair {
    pub pk: PublicKey,
    pub combiner: Combiner,
    pub shares: Vec<SecretKeyShare>,
}

/// Trusted-dealer threshold key generation.
///
/// `n_bits` is the paper's "keysize" (bits of `N`); `m` the number of
/// parties; `t` the decryption threshold (use `t = m` for Pivot).
pub fn threshold_keygen<R: Rng + ?Sized>(
    rng: &mut R,
    n_bits: u32,
    m: usize,
    t: usize,
) -> ThresholdKeyPair {
    assert!(m >= 2, "need at least two parties");
    assert!((1..=m).contains(&t), "threshold must be in 1..=m");
    assert!(n_bits >= 17, "a safe-prime modulus needs at least 17 bits");
    let (p, q) = prime::gen_prime_pair(rng, n_bits, prime::gen_safe_prime);
    threshold_from_safe_primes(rng, &p, &q, m, t).expect("the pair makes θ a unit mod N")
}

/// Threshold keygen from pre-generated safe primes (used by fixtures).
/// Returns `None` when `4Δ²θ` is not a unit mod `N`. β is a unit, so that
/// never happens for a pair from [`prime::gen_prime_pair`] (neither prime
/// divides the other minus one, so `gcd(M, N) = 1`) with both primes
/// above `m`.
pub fn threshold_from_safe_primes<R: Rng + ?Sized>(
    rng: &mut R,
    p: &BigUint,
    q: &BigUint,
    m: usize,
    t: usize,
) -> Option<ThresholdKeyPair> {
    let one = BigUint::one();
    let n = p * q;
    let p_prime = (p - &one).shr_bits(1);
    let q_prime = (q - &one).shr_bits(1);
    let big_m = &p_prime * &q_prime;
    let nm = &n * &big_m;

    let beta = brng::gen_coprime(rng, &n);
    let d = &beta * &big_m; // the shared secret exponent
    let theta = d.rem_of(&n);
    // θ must be invertible mod N for combination to work.
    let delta = factorial(m);
    let four_d2_theta = (&(&BigUint::from_u64(4) * &(&delta * &delta)) * &theta).rem_of(&n);
    let inv_4d2_theta = mod_inverse(&four_d2_theta, &n)?;

    // Shamir polynomial of degree t-1 over Z_{NM} with f(0) = d.
    let mut coeffs = Vec::with_capacity(t);
    coeffs.push(d.rem_of(&nm));
    for _ in 1..t {
        coeffs.push(brng::gen_below(rng, &nm));
    }

    let pk = PublicKey::from_n(n);
    let delta = Arc::new(delta);
    let shares = (1..=m)
        .map(|i| {
            let s_i = eval_poly(&coeffs, i as u64, &nm);
            let two_delta_s = &(&BigUint::from_u64(2) * &*delta) * &s_i;
            let schedule = ExponentSchedule::recode(&two_delta_s);
            SecretKeyShare {
                index: i,
                pk: pk.clone(),
                two_delta_s,
                schedule,
            }
        })
        .collect();

    let combiner = Combiner {
        pk: pk.clone(),
        theta,
        inv_4d2_theta,
        n_parties: m,
        threshold: t,
        delta,
    };
    Some(ThresholdKeyPair {
        pk,
        combiner,
        shares,
    })
}

/// Horner evaluation of the sharing polynomial mod `nm`.
fn eval_poly(coeffs: &[BigUint], x: u64, nm: &BigUint) -> BigUint {
    let x = BigUint::from_u64(x);
    let mut acc = BigUint::zero();
    for c in coeffs.iter().rev() {
        acc = (&(&acc * &x) + c).rem_of(nm);
    }
    acc
}

fn factorial(m: usize) -> BigUint {
    let mut acc = BigUint::one();
    for i in 2..=m as u64 {
        acc.mul_limb(i);
    }
    acc
}

impl SecretKeyShare {
    /// Produce this party's partial decryption `cᵢ = c^{2Δsᵢ} mod N²`,
    /// replaying the share's precomputed window schedule (bit-identical
    /// to `pow(c, 2Δsᵢ)` — asserted by unit test and bignum proptest).
    pub fn partial_decrypt(&self, c: &Ciphertext) -> PartialDecryption {
        PartialDecryption {
            index: self.index,
            value: self.pk.mont().pow_scheduled(c.raw(), &self.schedule),
        }
    }

    /// [`Self::partial_decrypt`] of every ciphertext of `cts`, the bases
    /// advancing in pairs through the share's schedule
    /// (`Montgomery::pow_scheduled_batch`).
    pub fn partial_decrypt_many(&self, cts: &[Ciphertext]) -> Vec<PartialDecryption> {
        let bases: Vec<&BigUint> = cts.iter().map(Ciphertext::raw).collect();
        self.pk
            .mont()
            .pow_scheduled_batch(&bases, &self.schedule)
            .into_iter()
            .map(|value| PartialDecryption {
                index: self.index,
                value,
            })
            .collect()
    }

    /// The fixed partial-decryption exponent (exposed for parity tests).
    pub fn exponent(&self) -> &BigUint {
        &self.two_delta_s
    }
}

impl Combiner {
    /// The public `θ = βM mod N` (exposed for ZKP verification).
    pub fn theta(&self) -> &BigUint {
        &self.theta
    }

    /// Combine `t` (or more) partial decryptions into the plaintext: the
    /// batch of one of [`Self::combine_batch`].
    ///
    /// Panics if fewer than `threshold` distinct partials are supplied.
    pub fn combine(&self, partials: &[PartialDecryption]) -> BigUint {
        self.combine_batch(&[partials], 1).remove(0)
    }

    /// Combine a batch: `partials[i]` holds `t` (or more) partial
    /// decryptions of ciphertext `i`, from any subset of parties. Each
    /// ciphertext's `Π cᵢ^{2λᵢ}` is split by coefficient sign into two
    /// simultaneous multi-exponentiations (shared squaring chain, Shamir's
    /// trick) on at most `threads` workers. The negative parts of the whole
    /// batch are then inverted modulo `N` with one `mod_inverse`
    /// ([`invert_all`]) and each inverse is lifted to `N²`
    /// ([`lift_inverse`]). At keysize 1024 a lone combination spends
    /// ≈ 320 of its ≈ 340 µs in that inversion.
    ///
    /// Panics if a ciphertext has fewer than `threshold` distinct partials.
    pub fn combine_batch<P: AsRef<[PartialDecryption]> + Sync>(
        &self,
        partials: &[P],
        threads: usize,
    ) -> Vec<BigUint> {
        let runtime = pivot_runtime::global();
        let halves = runtime.map(threads, partials, |parts| {
            self.signed_products(parts.as_ref())
        });
        let negative: Vec<&BigUint> = halves.iter().filter_map(|(_, neg)| neg.as_ref()).collect();
        let mut inverses = invert_all(&negative, self.pk.n())
            .expect("partial decryptions are units mod N²")
            .into_iter();
        let halves: Vec<(BigUint, Option<(BigUint, BigUint)>)> = halves
            .into_iter()
            .map(|(pos, neg)| {
                (
                    pos,
                    neg.map(|neg| (neg, inverses.next().expect("one per part"))),
                )
            })
            .collect();
        runtime.map(threads, &halves, |(pos, neg)| {
            let c_prime = match neg {
                Some((neg, y)) => self.pk.mont().mul(pos, &lift_inverse(&self.pk, neg, y)),
                None => pos.clone(),
            };
            let l = l_function(&c_prime, self.pk.n());
            (&l * &self.inv_4d2_theta).rem_of(self.pk.n())
        })
    }

    /// `Π cᵢ^{2λᵢ}` over the first `threshold` partials as the product of
    /// the positive-coefficient terms and, when there are any, that of the
    /// negative ones (by `|2λᵢ|`).
    fn signed_products(&self, partials: &[PartialDecryption]) -> (BigUint, Option<BigUint>) {
        assert!(
            partials.len() >= self.threshold,
            "need at least {} partial decryptions, got {}",
            self.threshold,
            partials.len()
        );
        let subset = &partials[..self.threshold];
        let indices: Vec<i128> = subset.iter().map(|p| p.index as i128).collect();
        assert!(
            (1..indices.len()).all(|i| !indices[..i].contains(&indices[i])),
            "duplicate party index in partial decryptions"
        );
        let mut exps: Vec<(BigUint, Sign)> = Vec::with_capacity(subset.len());
        for part in subset {
            // λᵢ = Δ · Π_{j≠i} j / (j - i)  — an integer thanks to Δ = m!.
            let lambda = lagrange_at_zero(&self.delta, part.index as i128, &indices);
            exps.push((two_lambda_abs(&lambda), lambda.sign()));
        }
        let pairs_of = |sign: Sign| -> Vec<(&BigUint, &BigUint)> {
            subset
                .iter()
                .zip(&exps)
                .filter(|(_, (_, s))| *s == sign)
                .map(|(p, (e, _))| (&p.value, e))
                .collect()
        };
        let neg = pairs_of(Sign::Negative);
        let neg = (!neg.is_empty()).then(|| self.pk.mont().multi_pow(&neg));
        (self.pk.mont().multi_pow(&pairs_of(Sign::Positive)), neg)
    }
}

/// The inverses modulo `n` of every value of `values`, with one
/// `mod_inverse` (Montgomery's simultaneous inversion): the prefix products
/// `a₀·…·aᵢ`, one inverse of the last, then back-substitution — the inverse
/// of `aᵢ` is that of `a₀·…·aᵢ` times `a₀·…·aᵢ₋₁`, and multiplying it by
/// `aᵢ` steps to the inverse of `a₀·…·aᵢ₋₁`. Three multiplications modulo
/// `n` per value instead of an inversion each. `None` when one value is
/// not a unit.
fn invert_all(values: &[&BigUint], n: &BigUint) -> Option<Vec<BigUint>> {
    let residues: Vec<BigUint> = values.iter().map(|a| a.rem_of(n)).collect();
    let mut prefix: Vec<BigUint> = Vec::with_capacity(residues.len());
    for a in &residues {
        let product = match prefix.last() {
            Some(before) => (before * a).rem_of(n),
            None => a.clone(),
        };
        prefix.push(product);
    }
    let Some(last) = prefix.last() else {
        return Some(Vec::new());
    };
    let mut inv = mod_inverse(last, n)?;
    let mut out = vec![BigUint::zero(); residues.len()];
    for i in (0..residues.len()).rev() {
        // Here `inv` is the inverse of a₀·…·aᵢ.
        out[i] = match i {
            0 => inv.clone(),
            _ => (&inv * &prefix[i - 1]).rem_of(n),
        };
        inv = (&inv * &residues[i]).rem_of(n);
    }
    Some(out)
}

/// The inverse modulo `N²` of a unit `a`, from its inverse `y` modulo `N`,
/// at half the width: one Newton–Hensel step `y·(2 − a·y) mod N²`. An
/// inverse modulo `N²` is unique, so this is the value `mod_inverse(a, N²)`
/// returns, at well under half its cost.
fn lift_inverse(pk: &PublicKey, a: &BigUint, y: &BigUint) -> BigUint {
    let ay = pk.mont().mul(a, y);
    let two_minus_ay = &(pk.n_squared() + &BigUint::from_u64(2)) - &ay;
    pk.mont().mul(y, &two_minus_ay)
}

/// `Δ · Π_{j∈S, j≠i} j / (j - i)` as an exact integer.
fn lagrange_at_zero(delta: &BigUint, i: i128, indices: &[i128]) -> BigInt {
    let mut num = BigInt::from(delta.clone());
    let mut den = BigInt::one();
    for &j in indices {
        if j == i {
            continue;
        }
        num = &num * &BigInt::from_i128(j);
        den = &den * &BigInt::from_i128(j - i);
    }
    // Exact division: Δ clears every denominator.
    let (q, r) = num.magnitude().div_rem(den.magnitude());
    assert!(r.is_zero(), "Lagrange coefficient must be integral");
    let sign = if num.is_negative() == den.is_negative() {
        Sign::Positive
    } else {
        Sign::Negative
    };
    if q.is_zero() {
        BigInt::zero()
    } else {
        BigInt::from_parts(sign, q)
    }
}

/// `|2λ|` as a BigUint exponent.
fn two_lambda_abs(lambda: &BigInt) -> BigUint {
    lambda.magnitude().shl_bits(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_bignum::mod_pow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn dealt_modulus_has_exactly_n_bits() {
        let mut r = rng();
        for n_bits in [64, 96, 128] {
            assert_eq!(threshold_keygen(&mut r, n_bits, 2, 2).pk.keysize(), n_bits);
        }
    }

    fn small_threshold_keys(m: usize, t: usize) -> ThresholdKeyPair {
        let mut r = rng();
        // 64-bit safe primes keep unit tests fast.
        let (p, q) = prime::gen_prime_pair(&mut r, 128, prime::gen_safe_prime);
        threshold_from_safe_primes(&mut r, &p, &q, m, t).expect("keygen")
    }

    #[test]
    fn full_threshold_round_trip() {
        let mut r = rng();
        let kp = small_threshold_keys(3, 3);
        for x in [0u64, 1, 12345, 1 << 40] {
            let x = BigUint::from_u64(x);
            let c = kp.pk.encrypt(&x, &mut r);
            let partials: Vec<_> = kp.shares.iter().map(|s| s.partial_decrypt(&c)).collect();
            assert_eq!(kp.combiner.combine(&partials), x);
        }
    }

    #[test]
    fn threshold_subset_suffices() {
        let mut r = rng();
        let kp = small_threshold_keys(5, 3);
        let x = BigUint::from_u64(777);
        let c = kp.pk.encrypt(&x, &mut r);
        // Any 3 of 5 shares decrypt — try a non-prefix subset.
        let partials: Vec<_> = [4usize, 1, 3]
            .iter()
            .map(|&i| kp.shares[i - 1].partial_decrypt(&c))
            .collect();
        assert_eq!(kp.combiner.combine(&partials), x);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn too_few_partials_rejected() {
        let mut r = rng();
        let kp = small_threshold_keys(3, 3);
        let c = kp.pk.encrypt(&BigUint::from_u64(1), &mut r);
        let partials: Vec<_> = kp
            .shares
            .iter()
            .take(2)
            .map(|s| s.partial_decrypt(&c))
            .collect();
        kp.combiner.combine(&partials);
    }

    #[test]
    fn homomorphic_sum_through_threshold_decryption() {
        let mut r = rng();
        let kp = small_threshold_keys(3, 3);
        let ca = kp.pk.encrypt(&BigUint::from_u64(30), &mut r);
        let cb = kp.pk.encrypt(&BigUint::from_u64(12), &mut r);
        let c = kp.pk.add(&ca, &cb);
        let partials: Vec<_> = kp.shares.iter().map(|s| s.partial_decrypt(&c)).collect();
        assert_eq!(kp.combiner.combine(&partials), BigUint::from_u64(42));
    }

    #[test]
    fn two_party_full_threshold() {
        let mut r = rng();
        let kp = small_threshold_keys(2, 2);
        let x = BigUint::from_u64(31337);
        let c = kp.pk.encrypt(&x, &mut r);
        let partials: Vec<_> = kp.shares.iter().map(|s| s.partial_decrypt(&c)).collect();
        assert_eq!(kp.combiner.combine(&partials), x);
    }

    #[test]
    fn scheduled_partial_decrypt_matches_direct_pow() {
        // The shared window schedule must reproduce pow(c, 2Δsᵢ) exactly.
        let mut r = rng();
        let kp = small_threshold_keys(3, 3);
        for x in [0u64, 1, 31337, 1 << 33] {
            let c = kp.pk.encrypt(&BigUint::from_u64(x), &mut r);
            for share in &kp.shares {
                assert_eq!(
                    share.partial_decrypt(&c).value,
                    kp.pk.mont().pow(c.raw(), share.exponent()),
                    "share {} x {x}",
                    share.index
                );
            }
        }
    }

    /// `combine` the long way: each `cᵢ^{2λᵢ}` on its own, a negative `λᵢ`
    /// through a full-width inverse modulo `N²`.
    fn combine_full_width(c: &Combiner, subset: &[PartialDecryption]) -> BigUint {
        let n2 = c.pk.n_squared();
        let indices: Vec<i128> = subset.iter().map(|p| p.index as i128).collect();
        let mut c_prime = BigUint::one();
        for part in subset {
            let lambda = lagrange_at_zero(&c.delta, part.index as i128, &indices);
            let mut term = mod_pow(&part.value, &two_lambda_abs(&lambda), n2);
            if lambda.is_negative() {
                term = mod_inverse(&term, n2).expect("unit");
            }
            c_prime = (&c_prime * &term).rem_of(n2);
        }
        (&l_function(&c_prime, c.pk.n()) * &c.inv_4d2_theta).rem_of(c.pk.n())
    }

    /// The inverse modulo `N²` through the batch path, as a batch of one.
    fn inverse_mod_n2(pk: &PublicKey, a: &BigUint) -> Option<BigUint> {
        let y = invert_all(&[a], pk.n())?;
        Some(lift_inverse(pk, a, &y[0]))
    }

    #[test]
    fn lifted_inverse_combines_like_the_full_width_one() {
        let mut r = rng();
        // 3-of-3 (λ = 18, −18, 6) and 2-of-3 (λ = 12, −6 on parties 1, 2;
        // −3, 9 on parties 3, 1): every subset has a negative coefficient.
        for (t, picks) in [
            (3, vec![vec![1usize, 2, 3]]),
            (2, vec![vec![1, 2], vec![3, 1]]),
        ] {
            let kp = small_threshold_keys(3, t);
            for x in [0u64, 1, 424_242, u64::MAX] {
                let x = BigUint::from_u64(x);
                let c = kp.pk.encrypt(&x, &mut r);
                for pick in &picks {
                    let partials: Vec<_> = pick
                        .iter()
                        .map(|&i| kp.shares[i - 1].partial_decrypt(&c))
                        .collect();
                    assert_eq!(kp.combiner.combine(&partials), x);
                    assert_eq!(combine_full_width(&kp.combiner, &partials), x);
                    for part in &partials {
                        assert_eq!(
                            inverse_mod_n2(&kp.pk, &part.value),
                            mod_inverse(&part.value, kp.pk.n_squared()),
                        );
                    }
                }
            }
        }
        // Not a unit: no inverse either way.
        let kp = small_threshold_keys(3, 3);
        assert_eq!(inverse_mod_n2(&kp.pk, kp.pk.n()), None);
        assert_eq!(
            inverse_mod_n2(&kp.pk, &BigUint::one()),
            Some(BigUint::one())
        );
    }

    #[test]
    fn simultaneous_inversion_matches_one_inverse_each() {
        let n = BigUint::from_u64(1_000_000_007 * 998_244_353);
        let values: Vec<BigUint> = [2u64, 3, 1, 123_456_789_012, 5, n.to_u64().unwrap() - 1]
            .map(BigUint::from_u64)
            .into();
        let refs: Vec<&BigUint> = values.iter().collect();
        for len in 0..=refs.len() {
            let expect: Vec<BigUint> = refs[..len]
                .iter()
                .map(|a| mod_inverse(a, &n).unwrap())
                .collect();
            assert_eq!(invert_all(&refs[..len], &n), Some(expect), "{len} values");
        }
        // One value that is not a unit spoils the batch.
        let shared = BigUint::from_u64(998_244_353 * 4);
        assert_eq!(invert_all(&[&values[0], &shared, &values[1]], &n), None);
    }

    /// A batch combines like each ciphertext on its own: mixed coefficient
    /// signs (3-of-3), a batch with no negative coefficient (1-of-3), and
    /// 2-of-3 subsets that change from ciphertext to ciphertext, some with a
    /// negative coefficient and one without the party that has it.
    #[test]
    fn combine_batch_matches_combine_per_ciphertext() {
        let mut r = rng();
        for (t, picks) in [
            (3, vec![vec![1usize, 2, 3], vec![3, 1, 2]]),
            (1, vec![vec![1], vec![2], vec![3]]),
            (2, vec![vec![1, 2], vec![3, 1], vec![2, 3], vec![3, 2]]),
        ] {
            let kp = small_threshold_keys(3, t);
            let xs = [0u64, 1, 424_242, u64::MAX, 77, 5];
            let mut batch = Vec::new();
            for (i, &x) in xs.iter().enumerate() {
                let c = kp.pk.encrypt(&BigUint::from_u64(x), &mut r);
                let pick = &picks[i % picks.len()];
                let partials: Vec<_> = pick
                    .iter()
                    .map(|&p| kp.shares[p - 1].partial_decrypt(&c))
                    .collect();
                assert_eq!(kp.combiner.combine(&partials), BigUint::from_u64(x));
                batch.push(partials);
            }
            let expect: Vec<BigUint> = xs.iter().map(|&x| BigUint::from_u64(x)).collect();
            for threads in [1, 2] {
                assert_eq!(
                    kp.combiner.combine_batch(&batch, threads),
                    expect,
                    "t = {t}"
                );
            }
            assert!(kp.combiner.combine_batch::<Vec<_>>(&[], 2).is_empty());
        }
    }

    #[test]
    fn lagrange_coefficients_sum_property() {
        // Σ λᵢ(0) over the subset equals Δ (interpolating f ≡ 1).
        let delta = factorial(4);
        let indices = [1i128, 2, 3, 4];
        let mut sum = BigInt::zero();
        for &i in &indices {
            sum = &sum + &lagrange_at_zero(&delta, i, &indices);
        }
        assert_eq!(sum, BigInt::from(delta));
    }
}
