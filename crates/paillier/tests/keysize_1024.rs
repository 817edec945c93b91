//! Threshold Paillier at keysize 1024, the paper's efficiency setting and
//! the benchmark's: `N²` has 2048 bits, so every ladder here runs on the
//! kernel `Montgomery::new` selects at that width, which the smaller
//! fixture keys of the other tests do not reach.
//!
//! The key is the fixture's, `fixtures::threshold_keys(3, 1024)`, pinned
//! by the top 64 bits of `N`: the fixture's primes are a function of the
//! prime search's order, and a change to it must fail here.

use pivot_bignum::BigUint;
use pivot_paillier::batch::{encrypt_batch, partial_decrypt_batch, rerandomize_batch};
use pivot_paillier::{
    fixtures, vector, Ciphertext, NoncePool, PartialDecryption, ThresholdKeyPair,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Three-party, full-threshold keys with a 1024-bit `N`.
fn keys() -> &'static ThresholdKeyPair {
    static KEYS: OnceLock<ThresholdKeyPair> = OnceLock::new();
    KEYS.get_or_init(|| fixtures::threshold_keys(3, 1024))
}

#[test]
fn the_fixture_key_is_pinned() {
    let n = keys().pk.n();
    assert_eq!(n.bits(), 1024);
    assert_eq!(n.shr_bits(1024 - 64).to_hex(), "f9f25b53e6179395");
    assert_eq!(fixtures::key_fingerprint(1024), "f9f25b53e6179395");
}

fn decrypt(kp: &ThresholdKeyPair, c: &Ciphertext) -> BigUint {
    let partials: Vec<PartialDecryption> = kp.shares.iter().map(|s| s.partial_decrypt(c)).collect();
    kp.combiner.combine(&partials)
}

fn nums(vals: &[u64]) -> Vec<BigUint> {
    vals.iter().map(|&v| BigUint::from_u64(v)).collect()
}

#[test]
fn three_partial_decryptions_recover_the_plaintext() {
    let kp = keys();
    let mut rng = StdRng::seed_from_u64(1);
    let n_minus_1 = kp.pk.n() - &BigUint::one();
    for x in [
        BigUint::zero(),
        BigUint::one(),
        BigUint::from_u64(2026),
        n_minus_1,
    ] {
        let c = kp.pk.encrypt(&x, &mut rng);
        assert_eq!(decrypt(kp, &c), x);
    }
}

#[test]
fn batches_equal_the_serial_path_at_one_and_two_threads() {
    let kp = keys();
    let values = nums(&[0, 1, 31337, 5]);
    for threads in [1usize, 2] {
        let mut rng = StdRng::seed_from_u64(7);
        let serial_enc = vector::encrypt_vec(&kp.pk, &values, &mut rng);
        let serial_rerand: Vec<Ciphertext> = serial_enc
            .iter()
            .map(|c| kp.pk.rerandomize(c, &mut rng))
            .collect();

        let pool = NoncePool::new(kp.pk.clone(), 7, 0);
        let enc = encrypt_batch(&kp.pk, &values, &pool, threads);
        assert_eq!(enc, serial_enc, "encrypt_batch, threads = {threads}");
        let rerand = rerandomize_batch(&kp.pk, &enc, &pool, threads);
        assert_eq!(
            rerand, serial_rerand,
            "rerandomize_batch, threads = {threads}"
        );

        let share = &kp.shares[0];
        let serial_partials: Vec<BigUint> =
            enc.iter().map(|c| share.partial_decrypt(c).value).collect();
        let partials: Vec<BigUint> = partial_decrypt_batch(share, &enc, threads)
            .into_iter()
            .map(|p| p.value)
            .collect();
        assert_eq!(
            partials, serial_partials,
            "partial_decrypt_batch, threads = {threads}"
        );
    }
}

#[test]
fn homomorphic_identities_hold() {
    let kp = keys();
    let pk = &kp.pk;
    let mut rng = StdRng::seed_from_u64(3);
    let (a, b) = (BigUint::from_u64(123_456_789), BigUint::from_u64(987_654));
    let (ca, cb) = (pk.encrypt(&a, &mut rng), pk.encrypt(&b, &mut rng));
    assert_eq!(decrypt(kp, &pk.add(&ca, &cb)), &a + &b);
    // A 61-bit factor, the fixed-point scale's size.
    let k = BigUint::from_u64((1 << 60) + 12345);
    assert_eq!(decrypt(kp, &pk.mul_plain(&ca, &k)), &a * &k);
    assert_eq!(decrypt(kp, &pk.neg(&ca)), pk.n() - &a);
    let plain = nums(&[3, 0, 1, 250]);
    let weights = nums(&[9, 5, 1 << 40, 0]);
    let enc = vector::encrypt_vec(pk, &plain, &mut rng);
    let expect = 3 * 9 + (1u64 << 40);
    assert_eq!(
        decrypt(kp, &vector::dot_plain(pk, &enc, &weights)),
        BigUint::from_u64(expect)
    );
}
