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
//!
//! A batch also shares work that per-element calls repeat. Nonce powers and
//! partial decryptions raise many bases to one exponent, so the runtime is
//! handed pairs ([`map_pairs`]) and each pair runs as one interleaved
//! ladder (`Montgomery::pow_scheduled_batch`). A combination batch inverts
//! the negative parts of all its ciphertexts with one modular inversion
//! (`Combiner::combine_batch`, which runs on the same pool).

use crate::nonce::NoncePool;
use crate::threshold::{PartialDecryption, SecretKeyShare};
use crate::{Ciphertext, PublicKey};
use pivot_bignum::BigUint;
use std::sync::Arc;

/// `f` over `items` in groups of one or two on at most `threads` workers,
/// the outputs flattened in input order. `f` maps a group to one output per
/// member. Items pair up only while at least `threads` groups remain, so a
/// batch smaller than two per worker still spreads over every worker.
pub(crate) fn map_pairs<T: Sync, U: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&[T]) -> Vec<U> + Sync,
) -> Vec<U> {
    let groups = items.len().div_ceil(2).max(threads.min(items.len()));
    let (paired, single) = items.split_at(2 * (items.len() - groups));
    let groups: Vec<&[T]> = paired.chunks(2).chain(single.chunks(1)).collect();
    pivot_runtime::global()
        .map(threads, &groups, |group| f(group))
        .into_iter()
        .flatten()
        .collect()
}

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

/// Batched partial decryption — the paper's `-PP` knob (§8.3) — with the
/// ciphertexts in pairs, each pair one interleaved ladder of the share's
/// exponent.
pub fn partial_decrypt_batch(
    share: &SecretKeyShare,
    cts: &[Ciphertext],
    threads: usize,
) -> Vec<PartialDecryption> {
    map_pairs(cts, threads, |pair| share.partial_decrypt_many(pair))
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
    /// same nonce-stream seed — odd lengths included, whose last nonce
    /// power runs alone, and lengths below two per thread, which pair
    /// fewer nonces.
    #[test]
    fn batch_apis_match_serial_bit_for_bit() {
        let kp = keys();
        let all = nums(&[0, 1, 7, 123, 99999, 5, 0, 42]);
        for (len, threads) in [1usize, 3, 7, 8]
            .into_iter()
            .flat_map(|len| [1usize, 2, 4].map(|t| (len, t)))
        {
            let values = &all[..len];
            let mask: Vec<bool> = values.iter().map(|v| !v.is_zero()).collect();
            // Serial reference: the plain RNG-driven entry points.
            let mut rng = StdRng::seed_from_u64(2024);
            let serial_enc = vector::encrypt_vec(&kp.pk, values, &mut rng);
            let serial_masked = vector::mask_binary(&kp.pk, &serial_enc, &mask, &mut rng);
            let serial_rerand: Vec<Ciphertext> = serial_enc
                .iter()
                .map(|c| kp.pk.rerandomize(c, &mut rng))
                .collect();

            // Batched path: pool seeded identically, same draw order.
            let pool = NoncePool::new(kp.pk.clone(), 2024, 0);
            let batch_enc = encrypt_batch(&kp.pk, values, &pool, threads);
            let batch_masked = mask_binary_batch(&kp.pk, &batch_enc, &mask, &pool, threads);
            let batch_rerand = rerandomize_batch(&kp.pk, &batch_enc, &pool, threads);

            let at = format!("{len} values, threads={threads}");
            assert_eq!(batch_enc, serial_enc, "encrypt_batch {at}");
            assert_eq!(batch_masked, serial_masked, "mask_binary {at}");
            assert_eq!(batch_rerand, serial_rerand, "rerandomize {at}");
            let serial_partials: Vec<BigUint> = serial_enc
                .iter()
                .map(|c| kp.shares[0].partial_decrypt(c).value)
                .collect();
            let batch_partials: Vec<BigUint> =
                partial_decrypt_batch(&kp.shares[0], &batch_enc, threads)
                    .into_iter()
                    .map(|p| p.value)
                    .collect();
            assert_eq!(batch_partials, serial_partials, "partial_decrypt {at}");
        }
    }

    /// Pairs form only while every worker still gets a group.
    #[test]
    fn map_pairs_keeps_order_and_feeds_every_worker() {
        for (len, threads, pairs) in [
            (0, 2, 0),
            (1, 2, 0),
            (2, 1, 1),
            (2, 2, 0),
            (3, 2, 1),
            (7, 2, 3),
            (7, 4, 3),
            (5, 4, 1),
        ] {
            let items: Vec<usize> = (0..len).collect();
            let sizes = map_pairs(&items, threads, |group| vec![group.len(); group.len()]);
            assert_eq!(
                sizes.iter().filter(|&&s| s == 2).count(),
                2 * pairs,
                "{len} on {threads}"
            );
            assert_eq!(map_pairs(&items, threads, |group| group.to_vec()), items);
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
        assert_eq!(kp.combiner.combine_batch(&per_ct, 4), values);
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
