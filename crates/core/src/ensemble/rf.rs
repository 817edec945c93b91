//! Random forest extension (§7.1): `W` basic-protocol trees over public
//! bootstrap masks, grown as the `W` roots of ONE frontier — the rounds of
//! a single tree, its bytes and ciphertext work times `W` (Fig 4f).
//! Prediction is one Algorithm-4 ring pass over the forest's concatenated
//! leaves (`crate::predict_basic`) and secure aggregation: the homomorphic
//! mean for regression, for classification the majority vote — one vote
//! tally per class, then a secure maximum.

use super::open_argmax;
use crate::conversion::packed_share_conversion;
use crate::party::PartyContext;
use crate::predict_basic::{leaf_values, predict_batch_encrypted, predict_sum_batch};
use crate::train_basic::train_with_masks;
use pivot_bignum::BigUint;
use pivot_data::Task;
use pivot_trees::DecisionTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-forest protocol parameters.
#[derive(Clone, Debug)]
pub struct RfProtocolParams {
    /// Number of trees `W`.
    pub trees: usize,
    /// Bootstrap draw fraction (1.0 ⇒ `n` draws with replacement).
    pub sample_fraction: f64,
    /// Seed for the (public) bootstrap masks — must match across clients.
    pub bootstrap_seed: u64,
}

impl Default for RfProtocolParams {
    fn default() -> Self {
        RfProtocolParams {
            trees: 4,
            sample_fraction: 1.0,
            bootstrap_seed: 0x5EED,
        }
    }
}

/// The released RF model: plaintext trees (basic protocol §7.1).
#[derive(Clone, Debug)]
pub struct RfModel {
    pub trees: Vec<DecisionTree>,
}

/// The `W` public bootstrap masks: every client derives the identical
/// draws (with replacement) from the common seed.
pub fn bootstrap_masks(n: usize, rf: &RfProtocolParams) -> Vec<Vec<bool>> {
    let draws = ((n as f64) * rf.sample_fraction).round().max(1.0) as usize;
    (0..rf.trees)
        .map(|w| {
            let mut rng = StdRng::seed_from_u64(rf.bootstrap_seed ^ (w as u64) << 16);
            let mut mask = vec![false; n];
            for _ in 0..draws {
                mask[rng.gen_range(0..n)] = true;
            }
            mask
        })
        .collect()
}

/// Train `W` trees over the public bootstrap masks, all in one frontier.
pub fn train_rf(ctx: &mut PartyContext<'_>, rf: &RfProtocolParams) -> RfModel {
    assert!(rf.trees >= 1);
    let masks = bootstrap_masks(ctx.num_samples(), rf);
    let trees = train_with_masks(ctx, &masks);
    ctx.tree_barrier();
    RfModel { trees }
}

/// Joint RF prediction (§7.1): one ring pass over the forest's leaves to
/// *encrypted* aggregates; only the aggregated prediction is opened.
pub fn predict_rf_batch(
    ctx: &mut PartyContext<'_>,
    model: &RfModel,
    local_samples: &[Vec<f64>],
) -> Vec<f64> {
    let trees: Vec<&DecisionTree> = model.trees.iter().collect();
    let w = trees.len();
    match ctx.current_task() {
        // Homomorphic mean: open the sum, divide by W in public.
        Task::Regression => {
            let sums = predict_sum_batch(ctx, &trees, local_samples);
            sums.iter().map(|sum| sum / w as f64).collect()
        }
        // Majority vote: class k's output weighs a leaf 1 iff its label is
        // k, and every tree's `η` is one-hot — the dot product is the
        // number of trees voting k, an integer of ⌈log₂(W + 1)⌉ bits.
        Task::Classification { classes } => {
            let labels = leaf_values(ctx, &trees, ctx.current_task());
            let votes: Vec<Vec<BigUint>> = (0..classes as u64)
                .map(BigUint::from_u64)
                .map(|k| labels.iter().map(|l| u64::from(*l == k).into()).collect())
                .collect();
            let tallies = predict_batch_encrypted(ctx, &trees, &votes, local_samples).concat();
            let bound_bits = (w + 1).next_power_of_two().trailing_zeros();
            let shares = packed_share_conversion(ctx, &tallies, bound_bits);
            let width = pivot_mpc::width_for_magnitude(w as u64);
            open_argmax(ctx, &shares, local_samples.len(), width)
        }
    }
}
