//! Joint threshold decryption: every client contributes a partial
//! decryption, partials are exchanged, and each client combines locally.
//! This is the paper's `Cd` operation — the dominant cost of both
//! protocols — and the operation the `-PP` variants parallelize across
//! ciphertexts (§8.3: "parallelism for threshold decryption of multiple
//! ciphertexts with 6 cores").
//!
//! Both phases run through the batched crypto runtime
//! ([`pivot_paillier::batch`]) on the shared worker pool, with one network
//! exchange between them.

use crate::party::PartyContext;
use pivot_bignum::BigUint;
use pivot_paillier::batch;
use pivot_paillier::threshold::{Combiner, PartialDecryption, SecretKeyShare};
use pivot_paillier::Ciphertext;
use pivot_trace::Counter;

/// Jointly decrypt a batch of ciphertexts; all clients learn the plaintexts.
pub fn joint_decrypt_vec(ctx: &mut PartyContext<'_>, cts: &[Ciphertext]) -> Vec<BigUint> {
    if cts.is_empty() {
        return Vec::new();
    }
    ctx.counters
        .add(Counter::ThresholdDecryptions, cts.len() as u64);
    let threads = ctx.crypto_threads();

    // Partial decryptions (the `-PP` knob: parallel across ciphertexts).
    let partials = batch::partial_decrypt_batch(&ctx.key_share, cts, threads);

    // One all-to-all exchange of the whole batch.
    let all: Vec<Vec<PartialDecryption>> = ctx.ep.exchange_all(&partials);

    // Combine locally, batched across ciphertexts.
    let per_ct: Vec<Vec<PartialDecryption>> = (0..cts.len())
        .map(|idx| all.iter().map(|per_party| per_party[idx].clone()).collect())
        .collect();
    batch::combine_batch(&ctx.combiner, &per_ct, threads)
}

/// Decrypt a single ciphertext.
pub fn joint_decrypt(ctx: &mut PartyContext<'_>, ct: &Ciphertext) -> BigUint {
    joint_decrypt_vec(ctx, std::slice::from_ref(ct)).remove(0)
}

/// Stand-alone combiner used by tests that play all parties themselves.
pub fn combine_partials(
    combiner: &Combiner,
    shares: &[SecretKeyShare],
    ct: &Ciphertext,
) -> BigUint {
    let partials: Vec<PartialDecryption> = shares.iter().map(|s| s.partial_decrypt(ct)).collect();
    combiner.combine(&partials)
}
