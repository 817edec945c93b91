//! SPDZ-DT: decision-tree training entirely inside MPC (the paper's
//! baseline, §8.1). Features, candidate thresholds, and labels are all
//! secret-shared; split indicators are computed with secure comparisons;
//! node statistics with secure multiplications. The released model is the
//! same plaintext tree Pivot-Basic produces.

use crate::gain::{
    best_split_batch, leaf_label_shares_batch, prune_decisions_batch, split_gains_batch,
    NodeShares, NodeTotals,
};
use crate::party::PartyContext;
use crate::stats::{LocalSplits, SplitLayout};
use pivot_data::Task;
use pivot_mpc::{Fp, Share};
use pivot_trees::{DecisionTree, Node};

/// Train a decision tree with the pure-MPC baseline.
pub fn train(ctx: &mut PartyContext<'_>) -> DecisionTree {
    let n = ctx.num_samples();
    let local = LocalSplits::precompute(ctx);
    let layout = SplitLayout::build(ctx.ep, &local.counts());
    let total_splits = layout.total();
    let party = ctx.id();
    let f = ctx.params.fixed.frac_bits;

    // 1. Share all feature columns and thresholds, then evaluate every
    //    (split, sample) indicator with one batched secure comparison —
    //    the O(n·d·b) comparison bill Pivot avoids.
    let mut indicator_cols: Vec<Vec<Share>> = Vec::with_capacity(total_splits);
    {
        // Owners provide, per local split, the feature column followed by
        // the threshold (broadcast threshold minus value ≥ 0 ⇒ left).
        let mut diffs: Vec<Share> = Vec::with_capacity(total_splits * n);
        for owner in 0..ctx.parties() {
            let n_owner_splits: usize = layout.counts[owner].iter().sum();
            if n_owner_splits == 0 {
                continue;
            }
            let values: Option<Vec<Fp>> = (ctx.id() == owner).then(|| {
                let mut vals = Vec::with_capacity(n_owner_splits * (n + 1));
                for (feat, cand) in local.candidates.iter().enumerate() {
                    let column = ctx.view.column(feat);
                    for &threshold in &cand.thresholds {
                        for &x in &column {
                            vals.push(encode_fx(x, f));
                        }
                        vals.push(encode_fx(threshold, f));
                    }
                }
                vals
            });
            let shared = ctx.engine.share_input(owner, values.as_deref());
            for split in 0..n_owner_splits {
                let base = split * (n + 1);
                let threshold = shared[base + n];
                for i in 0..n {
                    diffs.push(threshold - shared[base + i]);
                }
            }
        }
        // ind = 1[x ≤ τ] = 1 − 1[τ − x < 0].
        let neg = ctx.engine.ltz_vec(&diffs);
        for split in 0..total_splits {
            let col: Vec<Share> = (0..n)
                .map(|i| Share::from_public(party, Fp::ONE) - neg[split * n + i])
                .collect();
            indicator_cols.push(col);
        }
    }

    // 2. Share the label structure: one-hot per class, or (y, y²) moments.
    let label_rows: Vec<Vec<Share>> = share_label_rows(ctx);

    // 3. Recursive CART with a shared node mask.
    let root_mask: Vec<Share> = (0..n).map(|_| Share::from_public(party, Fp::ONE)).collect();
    let mut nodes = Vec::new();
    let root = build_subtree(
        ctx,
        &local,
        &layout,
        &indicator_cols,
        &label_rows,
        root_mask,
        0,
        &mut nodes,
    );
    DecisionTree::new(nodes, root, ctx.current_task())
}

fn encode_fx(x: f64, f: u32) -> Fp {
    Fp::from_i64((x * (1u64 << f) as f64).round() as i64)
}

/// Super client shares per-label-vector rows: classification one-hot
/// indicators (integer-valued), regression `y`/`y²` (fixed-point).
fn share_label_rows(ctx: &mut PartyContext<'_>) -> Vec<Vec<Share>> {
    let n = ctx.num_samples();
    let rows = match ctx.current_task() {
        Task::Classification { classes } => classes,
        Task::Regression => 2,
    };
    let values: Option<Vec<Fp>> = ctx.is_super_client().then(|| {
        let labels = ctx.view.labels.as_ref().expect("super client labels");
        let mut vals = Vec::with_capacity(rows * n);
        match ctx.view.task {
            Task::Classification { classes } => {
                for k in 0..classes {
                    for &y in labels {
                        vals.push(Fp::new(u64::from(y as usize == k)));
                    }
                }
            }
            Task::Regression => {
                let cfg = ctx.params.fixed;
                for &y in labels {
                    vals.push(cfg.encode(y));
                }
                for &y in labels {
                    vals.push(cfg.encode(y * y));
                }
            }
        }
        vals
    });
    let flat = ctx.engine.share_input(ctx.super_client, values.as_deref());
    flat.chunks(n).map(|c| c.to_vec()).collect()
}

#[allow(clippy::too_many_arguments)]
fn build_subtree(
    ctx: &mut PartyContext<'_>,
    local: &LocalSplits,
    layout: &SplitLayout,
    indicators: &[Vec<Share>],
    label_rows: &[Vec<Share>],
    mask: Vec<Share>,
    depth: usize,
    nodes: &mut Vec<Node>,
) -> usize {
    let n = mask.len();
    let total_splits = layout.total();

    // Node totals: n̄ = Σ α, g_k = Σ α·β_k (one multiplication batch).
    let n_total = mask.iter().fold(Share::ZERO, |acc, &x| acc + x);
    let mut lhs = Vec::with_capacity(label_rows.len() * n);
    let mut rhs = Vec::with_capacity(label_rows.len() * n);
    for row in label_rows {
        for i in 0..n {
            lhs.push(mask[i]);
            rhs.push(row[i]);
        }
    }
    let masked_labels = ctx.engine.mul_vec(&lhs, &rhs);
    let g_totals: Vec<Share> = (0..label_rows.len())
        .map(|k| {
            masked_labels[k * n..(k + 1) * n]
                .iter()
                .fold(Share::ZERO, |acc, &x| acc + x)
        })
        .collect();

    let force_leaf = depth >= ctx.params.tree.max_depth || total_splits == 0;
    let totals = NodeTotals {
        n: n_total,
        g: g_totals,
    };
    if force_leaf {
        let value = open_leaf(ctx, &totals);
        nodes.push(Node::Leaf { value });
        return nodes.len() - 1;
    }
    let stop_when_pure = ctx.params.tree.stop_when_pure;
    if prune_decisions_batch(ctx, &[&totals], stop_when_pure)[0] {
        let value = open_leaf(ctx, &totals);
        nodes.push(Node::Leaf { value });
        return nodes.len() - 1;
    }

    // Per-split left statistics: n_l = Σ α·ind, g_lk = Σ (α·β_k)·ind —
    // the O(n·S·(c+1)) multiplication bill.
    let mut lhs = Vec::with_capacity(total_splits * (1 + label_rows.len()) * n);
    let mut rhs = Vec::with_capacity(lhs.capacity());
    for ind in indicators {
        for i in 0..n {
            lhs.push(mask[i]);
            rhs.push(ind[i]);
        }
        for k in 0..label_rows.len() {
            for i in 0..n {
                lhs.push(masked_labels[k * n + i]);
                rhs.push(ind[i]);
            }
        }
    }
    let products = ctx.engine.mul_vec(&lhs, &rhs);
    let stride = (1 + label_rows.len()) * n;
    let mut n_l = Vec::with_capacity(total_splits);
    let mut g_l: Vec<Vec<Share>> = vec![Vec::with_capacity(total_splits); label_rows.len()];
    for split in 0..total_splits {
        let base = split * stride;
        n_l.push(
            products[base..base + n]
                .iter()
                .fold(Share::ZERO, |acc, &x| acc + x),
        );
        for (k, row) in g_l.iter_mut().enumerate() {
            let start = base + (k + 1) * n;
            row.push(
                products[start..start + n]
                    .iter()
                    .fold(Share::ZERO, |acc, &x| acc + x),
            );
        }
    }

    let node_shares = NodeShares { n_l, g_l, totals };
    let gains = split_gains_batch(ctx, &[&node_shares]);
    let best_idx = best_split_batch(ctx, &gains)[0];
    let opened = ctx.engine.open(best_idx).value() as usize;
    let (winner, local_feature, split_idx) = layout.locate(opened);
    let global = layout.global_index(winner, local_feature, split_idx);

    // The winner reveals the plaintext threshold (the model is public).
    let (feature_global, threshold) = if ctx.id() == winner {
        let feature_global = ctx.view.feature_indices[local_feature];
        let threshold = local.candidates[local_feature].thresholds[split_idx];
        ctx.ep.broadcast(&(feature_global, threshold));
        (feature_global, threshold)
    } else {
        ctx.ep.recv::<(usize, f64)>(winner)
    };

    // Mask update in MPC: α_l = α·ind_best, α_r = α − α_l.
    let left_mask = ctx.engine.mul_vec(&mask, &indicators[global]);
    let right_mask: Vec<Share> = mask.iter().zip(&left_mask).map(|(&a, &l)| a - l).collect();

    let left = build_subtree(
        ctx,
        local,
        layout,
        indicators,
        label_rows,
        left_mask,
        depth + 1,
        nodes,
    );
    let right = build_subtree(
        ctx,
        local,
        layout,
        indicators,
        label_rows,
        right_mask,
        depth + 1,
        nodes,
    );
    nodes.push(Node::Internal {
        feature: feature_global,
        threshold,
        left,
        right,
    });
    nodes.len() - 1
}

fn open_leaf(ctx: &mut PartyContext<'_>, totals: &NodeTotals) -> f64 {
    let label = leaf_label_shares_batch(ctx, &[totals])[0];
    let opened = ctx.engine.open(label);
    match ctx.current_task() {
        Task::Classification { .. } => opened.value() as f64,
        Task::Regression => ctx.params.fixed.decode(opened),
    }
}
