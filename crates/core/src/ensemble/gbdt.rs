//! GBDT extension (§7.2): sequential regression trees on residuals that
//! must stay hidden from everyone — including the super client.
//!
//! Training keeps the per-round label vectors `[Y_w]` encrypted: residuals
//! are computed on shares, converted into encrypted `[γ₁] = [R]`,
//! `[γ₂] = [R²]` vectors once per round (the paper's optimization), and
//! the winning client updates them alongside `[α]` during tree building.
//! A node carries the stride `(α, γ₁, γ₂)` of a sample in the slots of the
//! run's codec (SecureBoost+'s GH packing): a carried element is a sum of
//! `m` shares, below `m·p`, only ever multiplied by 0/1 indicators, so a
//! node statistic stays below `n·m·p` — the share-sum case of the
//! slot-width audit (`LabelSource::ShareSums`). Classification uses
//! one-vs-rest with a **secure softmax** over the cumulative scores each
//! round.
//!
//! Boosting rounds are sequential; what a round trains is not. Its `K`
//! trees (one for regression, one per class for one-vs-rest) are the `K`
//! roots of one frontier ([`train_residual_trees`]: one `fixmul_vec` for
//! the squares, one share → ciphertext exchange, the rounds of one tree),
//! and their `K` accumulates — like the `K` class scores of a prediction —
//! are `K` outputs of one Algorithm-4 ring pass ([`group_scores`]).

use super::open_argmax;
use crate::config::LabelSource;
use crate::conversion::{packed_share_conversion_groups, share_rows_to_ciphers};
use crate::masks::initial_mask;
use crate::party::PartyContext;
use crate::predict_basic::{leaf_values, predict_batch_encrypted};
use crate::stats::PackedChunking;
use crate::train_basic::train_from_roots;
use crate::trainer::NodeMask;
use pivot_bignum::BigUint;
use pivot_data::Task;
use pivot_mpc::{Fp, Share};
use pivot_paillier::packing::add_packed;
use pivot_paillier::{Ciphertext, SlotCodec};
use pivot_trees::DecisionTree;

/// GBDT protocol parameters.
#[derive(Clone, Debug)]
pub struct GbdtProtocolParams {
    /// Boosting rounds `W`.
    pub rounds: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
}

impl Default for GbdtProtocolParams {
    fn default() -> Self {
        GbdtProtocolParams {
            rounds: 4,
            learning_rate: 0.5,
        }
    }
}

/// The released GBDT model (plaintext trees, §7.2 basic setting):
/// `forests[k]` holds class `k`'s regression trees (single forest for
/// regression).
#[derive(Clone, Debug)]
pub struct GbdtModel {
    pub forests: Vec<Vec<DecisionTree>>,
    pub learning_rate: f64,
    pub task: Task,
}

/// Train a GBDT model with encrypted residual labels.
pub fn train_gbdt(ctx: &mut PartyContext<'_>, gbdt: &GbdtProtocolParams) -> GbdtModel {
    // `PartyContext::setup` audited the slots for the labels the super
    // client holds; the trees below train on share sums.
    let labels = LabelSource::ShareSums;
    ctx.params
        .assert_valid_for(ctx.num_samples(), ctx.parties(), labels);
    let codec = ctx.packing_codec(labels);
    let n = ctx.num_samples();
    let task = ctx.view.task;
    // What each forest fits, shared by the super client once: the
    // (normalized) labels, or one one-vs-rest indicator per class.
    let targets: Vec<Vec<Share>> = match task {
        Task::Regression => vec![share_labels(ctx, |y| y)],
        Task::Classification { classes } => (0..classes)
            .map(|k| share_labels(ctx, move |y| if y as usize == k { 1.0 } else { 0.0 }))
            .collect(),
    };
    let classes = targets.len();
    let mut scores: Vec<Vec<Share>> = vec![vec![Share::ZERO; n]; classes];
    let mut forests: Vec<Vec<DecisionTree>> = vec![Vec::new(); classes];

    for round in 0..gbdt.rounds {
        // What the cumulative scores predict: themselves, or their secure
        // softmax (row per sample).
        let fitted: Vec<Vec<Share>> = match task {
            Task::Regression => scores.clone(),
            Task::Classification { .. } => {
                let logits: Vec<Share> = (0..n)
                    .flat_map(|i| scores.iter().map(move |class_scores| class_scores[i]))
                    .collect();
                // Cumulative scores are sums of `rounds` shrunk leaf means;
                // residual leaves stay in [−1, 1] up to fixed-point noise, so
                // |logit| ≤ rounds·lr (+1 margin for the truncation noise).
                let bound = gbdt.rounds as f64 * gbdt.learning_rate + 1.0;
                let probs = ctx.engine.softmax_rows_clamped(&logits, classes, bound);
                (0..classes)
                    .map(|k| probs.iter().skip(k).step_by(classes).copied().collect())
                    .collect()
            }
        };
        let residuals: Vec<Vec<Share>> = targets
            .iter()
            .zip(&fitted)
            .map(|(target, fit)| target.iter().zip(fit).map(|(&t, &f)| t - f).collect())
            .collect();
        let trees = train_residual_trees(ctx, &codec, &residuals);
        // Only a later round reads the cumulative scores.
        if round + 1 < gbdt.rounds {
            let stage: Vec<&[DecisionTree]> = trees.iter().map(std::slice::from_ref).collect();
            let local_samples = ctx.view.features.clone();
            let predicted = group_scores(ctx, &stage, gbdt.learning_rate, &local_samples);
            for (acc, s) in scores.iter_mut().flatten().zip(predicted) {
                *acc = *acc + s;
            }
        }
        for (forest, tree) in forests.iter_mut().zip(trees) {
            forest.push(tree);
        }
        ctx.tree_barrier();
    }
    GbdtModel {
        forests,
        learning_rate: gbdt.learning_rate,
        task,
    }
}

/// Share the super client's labels (mapped through `f`) with all parties.
fn share_labels(ctx: &mut PartyContext<'_>, f: impl Fn(f64) -> f64) -> Vec<Share> {
    let values: Option<Vec<Fp>> = ctx.is_super_client().then(|| {
        let cfg = ctx.params.fixed;
        ctx.view
            .labels
            .as_ref()
            .expect("super client holds labels")
            .iter()
            .map(|&y| cfg.encode(f(y)))
            .collect()
    });
    ctx.engine.share_input(ctx.super_client, values.as_deref())
}

/// One boosting stage: encrypt the residual moments of every tree of the
/// round and train the regression trees on them with the basic protocol,
/// in one frontier.
fn train_residual_trees(
    ctx: &mut PartyContext<'_>,
    codec: &SlotCodec,
    residuals: &[Vec<Share>],
) -> Vec<DecisionTree> {
    let n = ctx.num_samples();
    // [γ₁] = [R], [γ₂] = [R²] — encrypted once per round (§7.2): per sample
    // and chunk of the stride (α, γ₁, γ₂), every client encrypts ONE packed
    // row of its shares, the α slot left empty. With one slot chunk 0 is
    // the α slot alone — `[α]` itself, nothing to encrypt.
    let flat = residuals.concat();
    let squares = ctx.engine.fixmul_vec(&flat, &flat);
    let chunking = PackedChunking::new(3, codec.slots());
    let encrypted = usize::from(chunking.alpha_alone())..chunking.chunks();
    // Tree-major, then chunk-major, then one row per sample.
    let mut rows: Vec<Vec<Share>> = Vec::with_capacity(flat.len() * encrypted.len());
    for (r, r2) in flat.chunks(n).zip(squares.chunks(n)) {
        for c in encrypted.clone() {
            let range = chunking.stride_range(c);
            let stride = r.iter().zip(r2).map(|(&r, &r2)| [Share::ZERO, r, r2]);
            rows.extend(stride.map(|stride| stride[range.clone()].to_vec()));
        }
    }
    let mut sums = share_rows_to_ciphers(ctx, codec, &rows).into_iter();
    let roots = residuals
        .iter()
        .map(|_| {
            let alpha = initial_mask(ctx, &vec![true; n]);
            let mut chunks: Vec<Vec<Ciphertext>> = encrypted
                .clone()
                .map(|_| sums.by_ref().take(n).collect())
                .collect();
            if chunking.alpha_alone() {
                chunks.insert(0, alpha);
            } else {
                // Un-shifted, `[α]` lands in slot 0.
                chunks[0] = add_packed(&ctx.pk, &chunks[0], &alpha);
                ctx.metrics.add_ciphertext_ops(n as u64);
            }
            NodeMask::Carried(chunks)
        })
        .collect();
    ctx.task_override = Some(Task::Regression);
    let trees = train_from_roots(ctx, roots, codec);
    ctx.task_override = None;
    trees
}

/// Magnitude bound, in bits, on one tree's encrypted prediction: a signed
/// fixed-point leaf value (`ciphers_to_shares` demands the same of it).
fn prediction_bound_bits(ctx: &PartyContext<'_>) -> u32 {
    ctx.params.fixed.int_bits - 1
}

/// Algorithm 4 over every tree of `groups` in ONE ring pass, one output
/// per group — the sum of its trees' predictions, zero-weighted over the
/// other groups' leaves — converted to shares in one exchange and shrunk by
/// `learning_rate`. Class-major: element `g·n + i` is group `g`'s score of
/// sample `i`.
fn group_scores(
    ctx: &mut PartyContext<'_>,
    groups: &[&[DecisionTree]],
    learning_rate: f64,
    local_samples: &[Vec<f64>],
) -> Vec<Share> {
    let trees: Vec<&DecisionTree> = groups.iter().flat_map(|group| group.iter()).collect();
    let values = leaf_values(ctx, &trees, Task::Regression);
    let mut next_leaf = 0;
    let outputs: Vec<Vec<BigUint>> = groups
        .iter()
        .map(|group| {
            let own =
                next_leaf..next_leaf + group.iter().map(DecisionTree::leaf_count).sum::<usize>();
            next_leaf = own.end;
            let mut z = vec![BigUint::zero(); values.len()];
            z[own.clone()].clone_from_slice(&values[own]);
            z
        })
        .collect();
    let sums = predict_batch_encrypted(ctx, &trees, &outputs, local_samples);
    // A sum of W predictions: ⌈log₂ W⌉ bits above one of them.
    let bounded: Vec<(&[Ciphertext], u32)> = sums
        .iter()
        .zip(groups)
        .map(|(cts, group)| {
            let carry = group.len().next_power_of_two().trailing_zeros();
            (cts.as_slice(), prediction_bound_bits(ctx) + carry)
        })
        .collect();
    let shares = packed_share_conversion_groups(ctx, &bounded).concat();
    ctx.engine.fixscale_vec(&shares, learning_rate)
}

/// Batched joint GBDT prediction (§7.2): every tree of every forest in one
/// Algorithm-4 pass, a class score per forest; classification picks the
/// secure argmax over them.
pub fn predict_gbdt_batch(
    ctx: &mut PartyContext<'_>,
    model: &GbdtModel,
    local_samples: &[Vec<f64>],
) -> Vec<f64> {
    let forests: Vec<&[DecisionTree]> = model.forests.iter().map(Vec::as_slice).collect();
    let scores = group_scores(ctx, &forests, model.learning_rate, local_samples);
    match model.task {
        Task::Regression => {
            let opened = ctx.engine.open_vec(&scores);
            opened.iter().map(|&v| ctx.params.fixed.decode(v)).collect()
        }
        // Softmax is monotone, so the argmax over the scores is the
        // paper's §7.2 decision.
        Task::Classification { .. } => {
            open_argmax(ctx, &scores, local_samples.len(), ctx.params.fixed.int_bits)
        }
    }
}
