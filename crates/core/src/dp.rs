//! Differentially private Pivot training (§9.2): the three per-node
//! queries — pruning-condition, non-leaf (best split), and leaf — are made
//! DP with secretly shared Laplace noise (Algorithm 5) and the secure
//! exponential mechanism (Algorithm 6). No client ever sees plaintext
//! noise; the released model is `B`-DP with `B = 2(h+1)·ε` (paper §9.2).

use crate::config::{LabelSource, Protocol};
use crate::gain::{leaf_label_shares_batch, reveal_identifier, split_gains_batch, NodeTotals};
use crate::masks::{
    initial_mask, plan_packed_labels, update_vectors_plain, PackedLabelPlan, Sides,
};
use crate::party::PartyContext;
use crate::stats::{LocalSplits, SplitLayout};
use crate::trainer::{level_statistics, NodeMask};
use pivot_data::Task;
use pivot_mpc::dp::{exponential_mechanism, laplace_sample_vec};
use pivot_mpc::{Fp, Share};
use pivot_paillier::{Ciphertext, SlotCodec};
use pivot_trees::{DecisionTree, Node};

/// Differential-privacy parameters.
#[derive(Clone, Copy, Debug)]
pub struct DpParams {
    /// Budget `ε` per query; total budget is `2(h+1)·ε`.
    pub epsilon_per_query: f64,
}

impl DpParams {
    /// Total privacy budget for a depth-`h` tree.
    pub fn total_budget(&self, max_depth: usize) -> f64 {
        2.0 * (max_depth as f64 + 1.0) * self.epsilon_per_query
    }
}

/// Train a differentially private decision tree (basic protocol + §9.2).
pub fn train_dp(ctx: &mut PartyContext<'_>, dp: &DpParams) -> DecisionTree {
    assert_eq!(
        ctx.params.protocol,
        Protocol::Basic,
        "DP extends the basic protocol"
    );
    assert!(dp.epsilon_per_query > 0.0, "need a positive budget");
    let local = LocalSplits::precompute(ctx);
    let layout = SplitLayout::build(ctx.ep, &local.counts());
    let alpha = initial_mask(ctx, &vec![true; ctx.num_samples()]);
    let codec = ctx.packing_codec(LabelSource::of_task(ctx.current_task()));
    let run = DpRun {
        local: &local,
        layout: &layout,
        dp,
        label_plan: &plan_packed_labels(ctx, &codec, false),
        codec: &codec,
    };
    let mut nodes = Vec::new();
    let root = build_node(ctx, &run, alpha, 0, &mut nodes);
    DecisionTree::new(nodes, root, ctx.current_task())
}

/// What every node of one DP tree reads.
struct DpRun<'a> {
    local: &'a LocalSplits,
    layout: &'a SplitLayout,
    dp: &'a DpParams,
    codec: &'a SlotCodec,
    label_plan: &'a PackedLabelPlan,
}

fn build_node(
    ctx: &mut PartyContext<'_>,
    run: &DpRun<'_>,
    alpha: Vec<Ciphertext>,
    depth: usize,
    nodes: &mut Vec<Node>,
) -> usize {
    let DpRun {
        local,
        layout,
        dp,
        codec,
        label_plan,
    } = *run;
    let mut mask = NodeMask::Alpha(alpha);
    let shares = level_statistics(ctx, local, layout, codec, label_plan, &[&mut mask]).remove(0);
    let alpha = mask.into_alpha();

    // DP pruning-condition query: Lap(Δ/ε) with Δ = 1 on the node count.
    let force = depth >= ctx.params.tree.max_depth || layout.total() == 0;
    let prune = force || {
        let noise =
            laplace_sample_vec(&mut ctx.engine, 0.0, 1.0 / dp.epsilon_per_query, 1).remove(0);
        // n̄ is integer-valued; lift to fixed-point before adding the noise.
        let f = ctx.params.fixed.frac_bits;
        let noisy = shares.totals.n.scale(Fp::pow2(f)) + noise;
        let threshold = ctx.engine.constant_f64(ctx.params.tree.min_samples as f64);
        let below = ctx.engine.lt_vec(&[noisy], &[threshold]);
        ctx.engine.open(below[0]).value() == 1
    };
    if prune {
        let value = dp_leaf(ctx, dp, &shares.totals);
        nodes.push(Node::Leaf { value });
        return nodes.len() - 1;
    }

    // DP non-leaf query: exponential mechanism over the gains (Δ = 2 for
    // Gini gain, per Friedman–Schuster).
    let gains = split_gains_batch(ctx, &[&shares]).remove(0);
    let idx = exponential_mechanism(&mut ctx.engine, &gains, dp.epsilon_per_query, 2.0);
    let (winner, local_feature, split_idx) = reveal_identifier(ctx, layout, idx);

    let (feature_global, threshold) = if ctx.id() == winner {
        let feature_global = ctx.view.feature_indices[local_feature];
        let threshold = local.candidates[local_feature].thresholds[split_idx];
        ctx.ep.broadcast(&(feature_global, threshold));
        (feature_global, threshold)
    } else {
        ctx.ep.recv::<(usize, f64)>(winner)
    };
    let indicator =
        (ctx.id() == winner).then(|| local.indicators[local_feature][split_idx].clone());
    // This recursion runs a statistics pass at every node, leaves
    // included, so both children always read their mask.
    let updated = update_vectors_plain(ctx, &[alpha], winner, indicator.as_deref(), Sides::BOTH);
    let [alpha_l, alpha_r] =
        [updated.left, updated.right].map(|side| side.expect("both sides asked for").remove(0));

    let left = build_node(ctx, run, alpha_l, depth + 1, nodes);
    let right = build_node(ctx, run, alpha_r, depth + 1, nodes);
    nodes.push(Node::Internal {
        feature: feature_global,
        threshold,
        left,
        right,
    });
    nodes.len() - 1
}

/// DP leaf query: noisy class counts (Laplace, Δ = 1, parallel
/// composition across disjoint classes) before the secure argmax; noisy
/// mean for regression.
fn dp_leaf(ctx: &mut PartyContext<'_>, dp: &DpParams, totals: &NodeTotals) -> f64 {
    let f = ctx.params.fixed.frac_bits;
    match ctx.current_task() {
        Task::Classification { .. } => {
            let noises = laplace_sample_vec(
                &mut ctx.engine,
                0.0,
                1.0 / dp.epsilon_per_query,
                totals.g.len(),
            );
            let noisy: Vec<Share> = totals
                .g
                .iter()
                .zip(noises)
                .map(|(&g, eta)| g.scale(Fp::pow2(f)) + eta)
                .collect();
            let (idx, _) = ctx.engine.argmax(&noisy);
            ctx.engine.open(idx).value() as f64
        }
        Task::Regression => {
            // Mean with Laplace noise scaled by the public sensitivity
            // bound 2/(min_samples·ε) (labels are normalized to [-1, 1]).
            let label = leaf_label_shares_batch(ctx, &[totals])[0];
            let sens = 2.0 / (ctx.params.tree.min_samples.max(1) as f64);
            let noise =
                laplace_sample_vec(&mut ctx.engine, 0.0, sens / dp.epsilon_per_query, 1).remove(0);
            let noisy = label + noise;
            let opened = ctx.engine.open(noisy);
            ctx.params.fixed.decode(opened)
        }
    }
}
