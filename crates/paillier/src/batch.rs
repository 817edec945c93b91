//! Batched homomorphic operations over the shared worker pool.
//!
//! Every bulk Paillier operation of the protocols — encrypting indicator
//! vectors, masking, plaintext multiplication, partial decryption,
//! combination — is embarrassingly parallel across ciphertexts. These
//! entry points run them on the process-wide [`pivot_runtime`] worker pool
//! with a caller-supplied thread budget (`crypto_threads`; pass 1 for the
//! serial path). An encrypting batch first takes one nonce power per
//! element from the party's [`NoncePool`], which draws the nonces in
//! stream order and computes their powers on the same thread budget, so
//! the parallel output is **bit-identical** to the serial output under the
//! same seed and `threads` bounds the cores a batch uses.

use crate::nonce::NoncePool;
use crate::threshold::{Combiner, PartialDecryption, SecretKeyShare};
use crate::{Ciphertext, PublicKey};
use pivot_bignum::BigUint;
use std::sync::Arc;

/// Encrypt a batch of plaintexts, one pool nonce power per value in
/// stream order.
pub fn encrypt_batch(
    pk: &PublicKey,
    values: &[BigUint],
    nonces: &Arc<NoncePool>,
    threads: usize,
) -> Vec<Ciphertext> {
    let rns = nonces.take_many(values.len(), threads);
    let items: Vec<(&BigUint, BigUint)> = values.iter().zip(rns).collect();
    pivot_runtime::global().map(threads, &items, |(x, rn)| pk.encrypt_with_rn(x, rn))
}

/// Re-randomize a batch of ciphertexts (one pool nonce each).
pub fn rerandomize_batch(
    pk: &PublicKey,
    cts: &[Ciphertext],
    nonces: &Arc<NoncePool>,
    threads: usize,
) -> Vec<Ciphertext> {
    let rns = nonces.take_many(cts.len(), threads);
    let items: Vec<(&Ciphertext, BigUint)> = cts.iter().zip(rns).collect();
    pivot_runtime::global().map(threads, &items, |(c, rn)| pk.rerandomize_with_rn(c, rn))
}

/// Element-wise binary masking (the serial `vector::mask_binary`): kept
/// entries are re-randomized, dropped entries become fresh encryptions of
/// zero. One pool nonce per element, in element order — exactly the draw
/// order of the serial path.
pub fn mask_binary_batch(
    pk: &PublicKey,
    cts: &[Ciphertext],
    mask: &[bool],
    nonces: &Arc<NoncePool>,
    threads: usize,
) -> Vec<Ciphertext> {
    assert_eq!(cts.len(), mask.len(), "dimension mismatch in mask");
    let rns = nonces.take_many(cts.len(), threads);
    let items: Vec<(&Ciphertext, bool, BigUint)> = cts
        .iter()
        .zip(mask)
        .zip(rns)
        .map(|((c, &keep), rn)| (c, keep, rn))
        .collect();
    pivot_runtime::global().map(threads, &items, |(c, keep, rn)| {
        if *keep {
            pk.rerandomize_with_rn(c, rn)
        } else {
            pk.encrypt_with_rn(&BigUint::zero(), rn)
        }
    })
}

/// Batched plaintext multiplication `[kᵢ·xᵢ]` (no randomness involved).
pub fn mul_plain_batch(
    pk: &PublicKey,
    cts: &[Ciphertext],
    ks: &[BigUint],
    threads: usize,
) -> Vec<Ciphertext> {
    assert_eq!(cts.len(), ks.len(), "dimension mismatch in mul_plain");
    let items: Vec<(&Ciphertext, &BigUint)> = cts.iter().zip(ks).collect();
    pivot_runtime::global().map(threads, &items, |(c, k)| pk.mul_plain(c, k))
}

/// Batched partial decryption — the paper's `-PP` knob (§8.3).
pub fn partial_decrypt_batch(
    share: &SecretKeyShare,
    cts: &[Ciphertext],
    threads: usize,
) -> Vec<PartialDecryption> {
    pivot_runtime::global().map(threads, cts, |ct| share.partial_decrypt(ct))
}

/// Batched combination: `partials[i]` holds the partial decryptions of
/// ciphertext `i` (one per party). Each combination runs the simultaneous
/// multi-exponentiation path of [`Combiner::combine`].
pub fn combine_batch(
    combiner: &Combiner,
    partials: &[Vec<PartialDecryption>],
    threads: usize,
) -> Vec<BigUint> {
    pivot_runtime::global().map(threads, partials, |parts| combiner.combine(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::threshold::ThresholdKeyPair;
    use crate::vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> ThresholdKeyPair {
        fixtures::threshold_keys(3, 128)
    }

    fn nums(vals: &[u64]) -> Vec<BigUint> {
        vals.iter().map(|&v| BigUint::from_u64(v)).collect()
    }

    /// The core parity contract: every batch API at any thread count
    /// produces bit-identical ciphertexts to the serial path under the
    /// same nonce-stream seed.
    #[test]
    fn batch_apis_match_serial_bit_for_bit() {
        let kp = keys();
        let values = nums(&[0, 1, 7, 123, 99999, 5, 0, 42]);
        let mask: Vec<bool> = values.iter().map(|v| !v.is_zero()).collect();

        for threads in [1usize, 4] {
            // Serial reference: the plain RNG-driven entry points.
            let mut rng = StdRng::seed_from_u64(2024);
            let serial_enc = vector::encrypt_vec(&kp.pk, &values, &mut rng);
            let serial_masked = vector::mask_binary(&kp.pk, &serial_enc, &mask, &mut rng);
            let serial_rerand: Vec<Ciphertext> = serial_enc
                .iter()
                .map(|c| kp.pk.rerandomize(c, &mut rng))
                .collect();

            // Batched path: pool seeded identically, same draw order.
            let pool = NoncePool::new(kp.pk.clone(), 2024, 0);
            let batch_enc = encrypt_batch(&kp.pk, &values, &pool, threads);
            let batch_masked = mask_binary_batch(&kp.pk, &batch_enc, &mask, &pool, threads);
            let batch_rerand = rerandomize_batch(&kp.pk, &batch_enc, &pool, threads);

            assert_eq!(batch_enc, serial_enc, "encrypt_batch threads={threads}");
            assert_eq!(batch_masked, serial_masked, "mask_binary threads={threads}");
            assert_eq!(batch_rerand, serial_rerand, "rerandomize threads={threads}");
        }
    }

    #[test]
    fn mul_plain_batch_matches_serial() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(9);
        let enc = vector::encrypt_vec(&kp.pk, &nums(&[1, 2, 3, 4]), &mut rng);
        let ks = nums(&[10, 0, 1, 7]);
        let serial: Vec<Ciphertext> = enc
            .iter()
            .zip(&ks)
            .map(|(c, k)| kp.pk.mul_plain(c, k))
            .collect();
        assert_eq!(mul_plain_batch(&kp.pk, &enc, &ks, 4), serial);
    }

    #[test]
    fn batched_threshold_decryption_round_trips() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(31);
        let values = nums(&[0, 1, 4096, 31337]);
        let cts = vector::encrypt_vec(&kp.pk, &values, &mut rng);

        // Every party partial-decrypts the batch in parallel…
        let all_partials: Vec<Vec<PartialDecryption>> = kp
            .shares
            .iter()
            .map(|s| partial_decrypt_batch(s, &cts, 4))
            .collect();
        // …then the per-ciphertext columns are combined in parallel.
        let per_ct: Vec<Vec<PartialDecryption>> = (0..cts.len())
            .map(|i| all_partials.iter().map(|p| p[i].clone()).collect())
            .collect();
        assert_eq!(combine_batch(&kp.combiner, &per_ct, 4), values);
        // Parallel partials equal serial partials element-wise.
        for (s, batch) in kp.shares.iter().zip(&all_partials) {
            for (ct, part) in cts.iter().zip(batch) {
                assert_eq!(s.partial_decrypt(ct).value, part.value);
            }
        }
    }

    #[test]
    fn dot_plain_multiexp_matches_decryption() {
        // dot_plain now routes through Montgomery::multi_pow; check the
        // homomorphic identity end to end with mixed weights.
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(77);
        let plain = nums(&[3, 0, 1, 250, 17]);
        let weights = nums(&[9, 5, 1, 0, 100_000]);
        let enc = vector::encrypt_vec(&kp.pk, &plain, &mut rng);
        let dot = vector::dot_plain(&kp.pk, &enc, &weights);
        let partials: Vec<PartialDecryption> =
            kp.shares.iter().map(|s| s.partial_decrypt(&dot)).collect();
        let expect: u64 = 3 * 9 + 1 + 17 * 100_000;
        assert_eq!(kp.combiner.combine(&partials), BigUint::from_u64(expect));
    }
}
