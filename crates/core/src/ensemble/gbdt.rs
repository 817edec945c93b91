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

use crate::config::LabelSource;
use crate::conversion::{packed_share_conversion, share_rows_to_ciphers};
use crate::masks::initial_mask;
use crate::party::PartyContext;
use crate::predict_basic::predict_batch_encrypted;
use crate::stats::PackedChunking;
use crate::train_basic::train_from_root;
use crate::trainer::NodeMask;
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
    match ctx.view.task {
        Task::Regression => train_gbdt_regression(ctx, gbdt, &codec),
        Task::Classification { classes } => train_gbdt_classification(ctx, gbdt, &codec, classes),
    }
}

fn train_gbdt_regression(
    ctx: &mut PartyContext<'_>,
    gbdt: &GbdtProtocolParams,
    codec: &SlotCodec,
) -> GbdtModel {
    let n = ctx.num_samples();
    // The super client shares the (normalized) labels once.
    let y = share_labels(ctx, |y| y);
    let mut cumulative = vec![Share::ZERO; n];
    let mut trees = Vec::with_capacity(gbdt.rounds);
    for round in 0..gbdt.rounds {
        let residuals: Vec<Share> = y.iter().zip(&cumulative).map(|(&t, &f)| t - f).collect();
        let tree = train_residual_tree(ctx, codec, &residuals);
        // Only a later round reads the cumulative scores.
        if round + 1 < gbdt.rounds {
            accumulate_predictions(ctx, &tree, gbdt.learning_rate, &mut cumulative);
        }
        trees.push(tree);
        ctx.tree_barrier();
    }
    GbdtModel {
        forests: vec![trees],
        learning_rate: gbdt.learning_rate,
        task: Task::Regression,
    }
}

fn train_gbdt_classification(
    ctx: &mut PartyContext<'_>,
    gbdt: &GbdtProtocolParams,
    codec: &SlotCodec,
    classes: usize,
) -> GbdtModel {
    let n = ctx.num_samples();
    // One-vs-rest targets, shared by the super client.
    let targets: Vec<Vec<Share>> = (0..classes)
        .map(|k| share_labels(ctx, move |y| if y as usize == k { 1.0 } else { 0.0 }))
        .collect();
    let mut scores: Vec<Vec<Share>> = vec![vec![Share::ZERO; n]; classes];
    let mut forests: Vec<Vec<DecisionTree>> = vec![Vec::new(); classes];

    for round in 0..gbdt.rounds {
        // Secure softmax over the cumulative scores (row per sample).
        let mut logits = Vec::with_capacity(n * classes);
        for i in 0..n {
            for class_scores in scores.iter() {
                logits.push(class_scores[i]);
            }
        }
        // Cumulative scores are sums of `rounds` shrunk leaf means;
        // residual leaves stay in [−1, 1] up to fixed-point noise, so
        // |logit| ≤ rounds·lr (+1 margin for the truncation noise).
        let bound = gbdt.rounds as f64 * gbdt.learning_rate + 1.0;
        let probs = ctx.engine.softmax_rows_clamped(&logits, classes, bound);

        for (k, forest) in forests.iter_mut().enumerate() {
            let residuals: Vec<Share> = (0..n)
                .map(|i| targets[k][i] - probs[i * classes + k])
                .collect();
            let tree = train_residual_tree(ctx, codec, &residuals);
            // Only a later round's softmax reads the scores.
            if round + 1 < gbdt.rounds {
                accumulate_predictions(ctx, &tree, gbdt.learning_rate, &mut scores[k]);
            }
            forest.push(tree);
            ctx.tree_barrier();
        }
    }
    GbdtModel {
        forests,
        learning_rate: gbdt.learning_rate,
        task: Task::Classification { classes },
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

/// One boosting stage: encrypt the residual moments and train a regression
/// tree on them with the basic protocol.
fn train_residual_tree(
    ctx: &mut PartyContext<'_>,
    codec: &SlotCodec,
    residuals: &[Share],
) -> DecisionTree {
    let n = residuals.len();
    // [γ₁] = [R], [γ₂] = [R²] — encrypted once per round (§7.2): per sample
    // and chunk of the stride (α, γ₁, γ₂), every client encrypts ONE packed
    // row of its shares, the α slot left empty. With one slot chunk 0 is
    // the α slot alone — `[α]` itself, nothing to encrypt.
    let squares = ctx.engine.fixmul_vec(residuals, residuals);
    let chunking = PackedChunking::new(3, codec.slots());
    let rows: Vec<Vec<Share>> = (usize::from(chunking.alpha_alone())..chunking.chunks())
        .flat_map(|c| {
            let range = chunking.stride_range(c);
            residuals
                .iter()
                .zip(&squares)
                .map(move |(&r, &r2)| [Share::ZERO, r, r2][range.clone()].to_vec())
        })
        .collect();
    let mut sums = share_rows_to_ciphers(ctx, codec, &rows).into_iter();
    let alpha = initial_mask(ctx, &vec![true; n]);
    let mut chunks: Vec<Vec<Ciphertext>> = (0..rows.len() / n)
        .map(|_| sums.by_ref().take(n).collect())
        .collect();
    if chunking.alpha_alone() {
        chunks.insert(0, alpha);
    } else {
        // Un-shifted, `[α]` lands in slot 0.
        chunks[0] = add_packed(&ctx.pk, &chunks[0], &alpha);
        ctx.metrics.add_ciphertext_ops(n as u64);
    }
    ctx.task_override = Some(Task::Regression);
    let tree = train_from_root(ctx, NodeMask::Carried(chunks), codec);
    ctx.task_override = None;
    tree
}

/// Magnitude bound, in bits, on one tree's encrypted prediction: a signed
/// fixed-point leaf value (`ciphers_to_shares` demands the same of it).
fn prediction_bound_bits(ctx: &PartyContext<'_>) -> u32 {
    ctx.params.fixed.int_bits - 1
}

/// Predict all training samples with the new tree (Algorithm 4, encrypted
/// outputs), convert to shares, and fold into the cumulative scores.
fn accumulate_predictions(
    ctx: &mut PartyContext<'_>,
    tree: &DecisionTree,
    learning_rate: f64,
    cumulative: &mut [Share],
) {
    let local_samples: Vec<Vec<f64>> = (0..ctx.num_samples())
        .map(|i| ctx.view.features[i].clone())
        .collect();
    ctx.task_override = Some(Task::Regression);
    let enc_preds = predict_batch_encrypted(ctx, tree, &local_samples);
    ctx.task_override = None;
    let pred_shares = packed_share_conversion(ctx, &enc_preds, prediction_bound_bits(ctx));
    let scaled = ctx.engine.fixscale_vec(&pred_shares, learning_rate);
    for (acc, s) in cumulative.iter_mut().zip(scaled) {
        *acc = *acc + s;
    }
}

/// Joint GBDT prediction (§7.2): per-tree Algorithm 4, homomorphic
/// aggregation; classification picks the secure argmax over class scores.
pub fn predict_gbdt(ctx: &mut PartyContext<'_>, model: &GbdtModel, local_sample: &[f64]) -> f64 {
    predict_gbdt_batch(ctx, model, std::slice::from_ref(&local_sample.to_vec()))[0]
}

/// Batched GBDT prediction.
pub fn predict_gbdt_batch(
    ctx: &mut PartyContext<'_>,
    model: &GbdtModel,
    local_samples: &[Vec<f64>],
) -> Vec<f64> {
    let n = local_samples.len();
    // Per class: homomorphic sum of the encrypted tree predictions.
    let mut class_scores: Vec<Vec<Share>> = Vec::with_capacity(model.forests.len());
    for forest in &model.forests {
        let mut acc: Option<Vec<_>> = None;
        ctx.task_override = Some(Task::Regression);
        for tree in forest {
            let preds = predict_batch_encrypted(ctx, tree, local_samples);
            acc = Some(match acc {
                None => preds,
                Some(prev) => prev
                    .iter()
                    .zip(&preds)
                    .map(|(a, b)| ctx.pk.add(a, b))
                    .collect(),
            });
        }
        ctx.task_override = None;
        let summed = acc.expect("at least one tree");
        // A sum of W predictions: ⌈log₂ W⌉ bits above one of them.
        let bound_bits =
            prediction_bound_bits(ctx) + forest.len().next_power_of_two().trailing_zeros();
        let shares = packed_share_conversion(ctx, &summed, bound_bits);
        let scaled = ctx.engine.fixscale_vec(&shares, model.learning_rate);
        class_scores.push(scaled);
    }

    match model.task {
        Task::Regression => {
            let opened = ctx.engine.open_vec(&class_scores[0]);
            opened.iter().map(|&v| ctx.params.fixed.decode(v)).collect()
        }
        Task::Classification { .. } => {
            // Secure argmax over the class scores of every sample in
            // lockstep (softmax is monotone, so the argmax matches the
            // paper's §7.2 decision) and ONE opening round.
            let rows: Vec<Vec<Share>> = (0..n)
                .map(|i| class_scores.iter().map(|scores| scores[i]).collect())
                .collect();
            let winners: Vec<Share> = ctx
                .engine
                .argmax_many_bounded(&rows, ctx.params.fixed.int_bits)
                .into_iter()
                .map(|(idx, _)| idx)
                .collect();
            let opened = ctx.engine.open_vec(&winners);
            opened.iter().map(|idx| idx.value() as f64).collect()
        }
    }
}
