//! Joint threshold decryption: every client contributes a partial
//! decryption, partials are exchanged, and each client combines locally.
//! This is the paper's `Cd` operation — the dominant cost of both
//! protocols — and the operation the `-PP` variants parallelize across
//! ciphertexts (§8.3: "parallelism for threshold decryption of multiple
//! ciphertexts with 6 cores").
//!
//! Both phases run on the shared worker pool ([`pivot_paillier::batch`],
//! `Combiner::combine_batch`), with one network exchange between them. The
//! partial decryptions run in pairs, two ciphertexts per interleaved ladder
//! of the share's exponent; the combination pays one modular inversion for
//! the whole batch, where a ciphertext on its own would pay one each.

use crate::party::PartyContext;
use pivot_bignum::BigUint;
use pivot_paillier::batch;
use pivot_paillier::threshold::PartialDecryption;
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
    ctx.combiner.combine_batch(&per_ct, threads)
}
