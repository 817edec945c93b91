//! Algorithm 4 — distributed prediction on the plaintext model (basic
//! protocol, §4.3): the clients update an encrypted path-indicator vector
//! `[η]` in a round-robin ring, the first client dot-products it with the
//! leaf-label vector `z`, and the result is jointly decrypted. Nothing but
//! the final prediction is revealed — in particular, not the path taken.
//!
//! # Leaves concatenate
//!
//! Algorithm 4 over a forest is Algorithm 4 over the concatenation of its
//! leaves: [`predict_batch_encrypted`] takes a list of trees and carries
//! every tree's `[η]` in ONE ring pass (`m − 1` hops whatever the number of
//! trees), and what is computed from it is a list of *outputs* — each a
//! plaintext weight vector `z` over the concatenated leaves
//! ([`leaf_values`] order), each one `dot_plain` per sample at party 0. A
//! single tree is one tree and one `z`; a regression forest or a GBDT class
//! score is one `z` of all leaf values (every tree's `η` is one-hot, so the
//! dot product is the sum of the trees' predictions); a random forest's
//! majority vote is one indicator vector per class, whose dot products are
//! the vote tallies; the K accumulates of a one-vs-rest boosting round are
//! K outputs, each zero outside its tree. This function is the only place
//! the ring runs.

use crate::decrypt::joint_decrypt_vec;
use crate::masks::encode_signed;
use crate::metrics::Stage;
use crate::party::PartyContext;
use crate::verify;
use pivot_bignum::BigUint;
use pivot_data::Task;
use pivot_paillier::{batch, vector, Ciphertext, PublicKey};
use pivot_trees::DecisionTree;

/// Jointly predict one sample. `local_sample` holds this client's local
/// feature values (in local feature order); returns the plaintext label.
pub fn predict(ctx: &mut PartyContext<'_>, tree: &DecisionTree, local_sample: &[f64]) -> f64 {
    predict_batch(ctx, tree, std::slice::from_ref(&local_sample.to_vec()))[0]
}

/// Batched Algorithm 4: one ring pass carries every sample's `[η]` vector.
pub fn predict_batch(
    ctx: &mut PartyContext<'_>,
    tree: &DecisionTree,
    local_samples: &[Vec<f64>],
) -> Vec<f64> {
    predict_sum_batch(ctx, &[tree], local_samples)
}

/// Algorithm 4 in full for the *sum* of the trees' predictions — one ring
/// pass, one output, one joint decryption. A single tree is the one-tree
/// sum.
pub fn predict_sum_batch(
    ctx: &mut PartyContext<'_>,
    trees: &[&DecisionTree],
    local_samples: &[Vec<f64>],
) -> Vec<f64> {
    let task = ctx.current_task();
    let z = leaf_values(ctx, trees, task);
    let enc = predict_batch_encrypted(ctx, trees, &[z], local_samples).remove(0);
    let opened = joint_decrypt_vec(ctx, &enc);
    opened
        .iter()
        .map(|v| decode_prediction(ctx, v, task))
        .collect()
}

/// The leaf values of `trees`, concatenated in the order the ring carries
/// their `[η]` and encoded for the dot product (`task` says how): the `z`
/// whose output is the sum of the trees' predictions.
pub fn leaf_values(ctx: &PartyContext<'_>, trees: &[&DecisionTree], task: Task) -> Vec<BigUint> {
    trees
        .iter()
        .flat_map(|tree| tree.leaf_paths())
        .map(|(value, _)| match task {
            Task::Classification { .. } => BigUint::from_u64(value as u64),
            Task::Regression => {
                let scaled = value * (1u64 << ctx.params.fixed.frac_bits) as f64;
                encode_signed(ctx, scaled)
            }
        })
        .collect()
}

/// Algorithm 4 up to (but not including) the final decryption, over the
/// concatenated leaves of `trees`: one ring pass, then `outputs[o] ⊙ [η]`
/// per output and sample — `result[o][i]` is output `o` of sample `i`, still
/// encrypted (the ensembles of §7 aggregate before anything is opened).
pub fn predict_batch_encrypted(
    ctx: &mut PartyContext<'_>,
    trees: &[&DecisionTree],
    outputs: &[Vec<BigUint>],
    local_samples: &[Vec<f64>],
) -> Vec<Vec<Ciphertext>> {
    let started = std::time::Instant::now();
    let result = {
        let m = ctx.parties();
        let me = ctx.id();
        let paths: Vec<_> = trees.iter().flat_map(|tree| tree.leaf_paths()).collect();
        let n_leaves = paths.len();
        let n_samples = local_samples.len();
        for z in outputs {
            assert_eq!(z.len(), n_leaves, "one weight per concatenated leaf");
        }

        // My per-sample, per-leaf consistency bits: a leaf stays possible
        // unless one of MY internal nodes on its path contradicts my value.
        let my_bits: Vec<Vec<bool>> = local_samples
            .iter()
            .map(|sample| {
                paths
                    .iter()
                    .map(|(_, path)| {
                        path.iter().all(|&(feature, threshold, went_left)| {
                            if ctx.feature_owners[feature] != me {
                                return true;
                            }
                            let local_idx = ctx
                                .view
                                .feature_indices
                                .iter()
                                .position(|&g| g == feature)
                                .expect("owner has the feature");
                            let goes_left = sample[local_idx] <= threshold;
                            goes_left == went_left
                        })
                    })
                    .collect()
            })
            .collect();

        // Ring pass from party m−1 down to 0 (paper's u_m → u_1). With
        // verification on, my flattened η contribution, the proof bundle
        // over it, and the upstream transfer are kept for the
        // verification passes after the ring completes.
        let verification = ctx.verify.is_some();
        let threads = ctx.crypto_threads();
        let mut my_flat: Vec<Ciphertext> = Vec::new();
        let mut received_flat: Vec<Ciphertext> = Vec::new();
        let mut popk_bundle = None;
        let mut popcm_bundle = None;
        let mut eta: Vec<Vec<Ciphertext>> = if me == m - 1 {
            // Initialize [η] = ([1],…,[1]) masked by my own bits. Batched
            // over the flattened (sample-major) layout — the same nonce
            // draw order as the per-element serial loop.
            let values: Vec<BigUint> = my_bits
                .iter()
                .flatten()
                .map(|&b| BigUint::from_u64(u64::from(b)))
                .collect();
            verify::scrub_witnesses(ctx);
            let mut flat = batch::encrypt_batch(&ctx.pk, &values, &ctx.nonces, threads);
            popk_bundle = verify::prove_popk(ctx, "predict", &mut flat, &values);
            ctx.metrics.add_encryptions((n_samples * n_leaves) as u64);
            let out = flat
                .chunks(n_leaves.max(1))
                .map(<[Ciphertext]>::to_vec)
                .collect();
            if verification {
                my_flat = flat;
            }
            out
        } else {
            // Receive from the next-higher party and apply my mask.
            let received: Vec<Vec<Ciphertext>> =
                (0..n_samples).map(|_| ctx.ep.recv(me + 1)).collect();
            verify::scrub_witnesses(ctx);
            let mut flat: Vec<Ciphertext> = Vec::with_capacity(n_samples * n_leaves);
            for (cts, bits) in received.iter().zip(&my_bits) {
                flat.extend(batch::mask_binary_batch(
                    &ctx.pk,
                    cts,
                    bits,
                    &ctx.nonces,
                    threads,
                ));
            }
            ctx.metrics.add_encryptions((n_samples * n_leaves) as u64);
            if verification {
                received_flat = received.into_iter().flatten().collect();
                let xs: Vec<BigUint> = my_bits
                    .iter()
                    .flatten()
                    .map(|&b| BigUint::from_u64(u64::from(b)))
                    .collect();
                popcm_bundle = verify::prove_popcm(ctx, "predict", &received_flat, &mut flat, &xs);
            }
            let out = flat
                .chunks(n_leaves.max(1))
                .map(<[Ciphertext]>::to_vec)
                .collect();
            if verification {
                my_flat = flat;
            }
            out
        };

        // Party 0 alone forms the outputs: `z ⊙ [η]`, output-major.
        let dot_products = |pk: &PublicKey, eta: &[&[Ciphertext]]| -> Vec<Ciphertext> {
            let jobs: Vec<(&Vec<BigUint>, &[Ciphertext])> = outputs
                .iter()
                .flat_map(|z| eta.iter().map(move |&sample_eta| (z, sample_eta)))
                .collect();
            pivot_runtime::global().map(threads, &jobs, |&(z, sample_eta)| {
                vector::dot_plain(pk, sample_eta, z)
            })
        };
        let n_outputs = n_samples * outputs.len();
        let flat_outputs: Vec<Ciphertext> = if me > 0 {
            for sample_eta in &eta {
                ctx.ep.send(me - 1, sample_eta);
            }
            // Party 0 broadcasts the final encrypted predictions.
            (0..n_outputs).map(|_| ctx.ep.recv(0)).collect()
        } else {
            // Party 0: [k̄] = z ⊙ [η] per output and sample, then broadcast.
            let mut flat_outputs = {
                let rows: Vec<&[Ciphertext]> = eta.iter().map(Vec::as_slice).collect();
                dot_products(&ctx.pk, &rows)
            };
            eta.clear();
            verify::tamper_outputs(ctx, "predict", &mut flat_outputs);
            ctx.metrics
                .add_ciphertext_ops((n_samples * n_leaves * outputs.len()) as u64);
            for output in &flat_outputs {
                ctx.ep.broadcast(output);
            }
            flat_outputs
        };

        if verification {
            // Verification passes, ring order m−1 → 0: each prover
            // broadcasts the flattened η stage it committed to and every
            // party spot-checks it — popk for the initializer, popcm (over
            // the upstream broadcast) for every masking stage. The direct
            // ring recipient additionally checks the broadcast matches
            // what came down the ring (equivocation guard).
            let mut upstream: Vec<Ciphertext> = Vec::new();
            for prover in (0..m).rev() {
                let flat: Vec<Ciphertext> = if me == prover {
                    ctx.ep.broadcast(&my_flat);
                    my_flat.clone()
                } else {
                    ctx.ep.recv(prover)
                };
                if me + 1 == prover {
                    verify::check_equivocation(ctx, "predict", prover, &received_flat, &flat);
                }
                if prover == m - 1 {
                    let own = (me == prover).then(|| popk_bundle.take()).flatten();
                    verify::check_popk(ctx, "predict", prover, &flat, own);
                } else {
                    let own = (me == prover).then(|| popcm_bundle.take()).flatten();
                    verify::check_popcm(ctx, "predict", prover, &upstream, &flat, own);
                }
                upstream = flat;
            }
            // Party 0's final dot products are deterministic in its
            // broadcast η and the public weight vectors: recompute and
            // compare against what it published.
            let rows: Vec<&[Ciphertext]> = upstream.chunks(n_leaves.max(1)).collect();
            let expected = dot_products(&ctx.pk, &rows);
            verify::check_recompute(ctx, "predict", 0, &expected, &flat_outputs);
        }
        let mut flat_outputs = flat_outputs.into_iter();
        outputs
            .iter()
            .map(|_| flat_outputs.by_ref().take(n_samples).collect())
            .collect()
    };
    ctx.metrics.add_time(Stage::Prediction, started.elapsed());
    result
}

/// Decode a decrypted prediction.
fn decode_prediction(ctx: &PartyContext<'_>, v: &BigUint, task: Task) -> f64 {
    match task {
        Task::Classification { .. } => v.to_u64().expect("class index fits u64") as f64,
        Task::Regression => {
            let signed = if v > ctx.pk.half_n() {
                -((ctx.pk.n() - v).to_u64().expect("bounded") as f64)
            } else {
                v.to_u64().expect("bounded") as f64
            };
            signed / (1u64 << ctx.params.fixed.frac_bits) as f64
        }
    }
}
