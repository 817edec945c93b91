//! NPD-DT: the non-private distributed baseline (§8.1). The super client
//! broadcasts plaintext labels; clients exchange plaintext split
//! statistics; everything else is ordinary distributed CART. It must
//! produce exactly the tree [`pivot_trees::train_tree`] produces — that
//! equality is a correctness oracle for the whole distributed machinery.

use crate::party::PartyContext;
use crate::stats::{LocalSplits, SplitLayout};
use pivot_data::Task;
use pivot_trees::{DecisionTree, Node};

/// Per-split plaintext statistics: `(n_l, per-label-row left sums)`.
type PlainStats = Vec<(f64, Vec<f64>)>;

/// Train the non-private distributed tree.
pub fn train(ctx: &mut PartyContext<'_>) -> DecisionTree {
    let local = LocalSplits::precompute(ctx);
    let layout = SplitLayout::build(ctx.ep, &local.counts());

    // Labels are broadcast in plaintext — the whole point of the baseline.
    let labels: Vec<f64> = if ctx.is_super_client() {
        let labels = ctx.view.labels.clone().expect("super client labels");
        ctx.ep.broadcast(&labels);
        labels
    } else {
        ctx.ep.recv(ctx.super_client)
    };

    let mask = vec![true; ctx.num_samples()];
    let mut nodes = Vec::new();
    let root = build_subtree(ctx, &local, &layout, &labels, mask, 0, &mut nodes);
    DecisionTree::new(nodes, root, ctx.current_task())
}

/// Label rows: per-class indicators, or (y, y²) for regression.
fn label_rows(task: Task, labels: &[f64]) -> Vec<Vec<f64>> {
    match task {
        Task::Classification { classes } => (0..classes)
            .map(|k| labels.iter().map(|&y| f64::from(y as usize == k)).collect())
            .collect(),
        Task::Regression => vec![labels.to_vec(), labels.iter().map(|&y| y * y).collect()],
    }
}

fn build_subtree(
    ctx: &mut PartyContext<'_>,
    local: &LocalSplits,
    layout: &SplitLayout,
    labels: &[f64],
    mask: Vec<bool>,
    depth: usize,
    nodes: &mut Vec<Node>,
) -> usize {
    let task = ctx.current_task();
    let rows = label_rows(task, labels);
    let n_node: usize = mask.iter().filter(|&&b| b).count();

    // Plaintext pruning — every client can evaluate all conditions.
    let pure = {
        let mut first = None;
        mask.iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .all(|(i, _)| match first {
                None => {
                    first = Some(labels[i]);
                    true
                }
                Some(v) => (v - labels[i]).abs() < f64::EPSILON,
            })
    };
    if depth >= ctx.params.tree.max_depth
        || n_node < ctx.params.tree.min_samples
        || (ctx.params.tree.stop_when_pure && pure)
        || layout.total() == 0
    {
        nodes.push(Node::Leaf {
            value: leaf_value(task, labels, &mask),
        });
        return nodes.len() - 1;
    }

    // Local plaintext statistics per split, exchanged with everyone.
    let mine: PlainStats = local
        .indicators
        .iter()
        .flat_map(|feature| {
            feature.iter().map(|v_l| {
                let mut n_l = 0f64;
                let mut sums = vec![0f64; rows.len()];
                for i in 0..mask.len() {
                    if mask[i] && v_l[i] {
                        n_l += 1.0;
                        for (k, row) in rows.iter().enumerate() {
                            sums[k] += row[i];
                        }
                    }
                }
                (n_l, sums)
            })
        })
        .collect();
    let flat: Vec<f64> = mine
        .iter()
        .flat_map(|(n_l, sums)| std::iter::once(*n_l).chain(sums.iter().copied()))
        .collect();
    let all: Vec<Vec<f64>> = ctx.ep.exchange_all(&flat);

    // Global gain scan — identical formula to CartTrainer::split_score.
    let stride = rows.len() + 1;
    let n_total = n_node as f64;
    let g_totals: Vec<f64> = rows
        .iter()
        .map(|row| {
            row.iter()
                .zip(&mask)
                .filter(|(_, &b)| b)
                .map(|(v, _)| v)
                .sum()
        })
        .collect();
    let mut best: Option<(usize, f64)> = None; // (global index, score)
    let mut global = 0usize;
    for client_stats in &all {
        for split_stats in client_stats.chunks(stride) {
            let n_l = split_stats[0];
            let n_r = n_total - n_l;
            if n_l > 0.0 && n_r > 0.0 {
                let score = match task {
                    Task::Classification { .. } => {
                        let mut s = 0.0;
                        for (k, &g_l) in split_stats[1..].iter().enumerate() {
                            let g_r = g_totals[k] - g_l;
                            s += g_l * g_l / n_l + g_r * g_r / n_r;
                        }
                        s
                    }
                    Task::Regression => {
                        let g_l = split_stats[1];
                        let g_r = g_totals[0] - g_l;
                        g_l * g_l / n_l + g_r * g_r / n_r
                    }
                };
                if best.map_or(true, |(_, b)| score > b) {
                    best = Some((global, score));
                }
            }
            global += 1;
        }
    }

    let Some((best_global, _)) = best else {
        nodes.push(Node::Leaf {
            value: leaf_value(task, labels, &mask),
        });
        return nodes.len() - 1;
    };
    let (winner, local_feature, split_idx) = layout.locate(best_global);

    // Winner announces the model node and the plaintext left mask.
    let (feature_global, threshold, left_mask) = if ctx.id() == winner {
        let feature_global = ctx.view.feature_indices[local_feature];
        let threshold = local.candidates[local_feature].thresholds[split_idx];
        let indicator = &local.indicators[local_feature][split_idx];
        let left: Vec<bool> = mask.iter().zip(indicator).map(|(&m, &v)| m && v).collect();
        ctx.ep.broadcast(&(feature_global, threshold));
        ctx.ep.broadcast(&left);
        (feature_global, threshold, left)
    } else {
        let (feature_global, threshold) = ctx.ep.recv::<(usize, f64)>(winner);
        let left: Vec<bool> = ctx.ep.recv(winner);
        (feature_global, threshold, left)
    };
    let right_mask: Vec<bool> = mask
        .iter()
        .zip(&left_mask)
        .map(|(&m, &l)| m && !l)
        .collect();

    let left = build_subtree(ctx, local, layout, labels, left_mask, depth + 1, nodes);
    let right = build_subtree(ctx, local, layout, labels, right_mask, depth + 1, nodes);
    nodes.push(Node::Internal {
        feature: feature_global,
        threshold,
        left,
        right,
    });
    nodes.len() - 1
}

fn leaf_value(task: Task, labels: &[f64], mask: &[bool]) -> f64 {
    match task {
        Task::Classification { classes } => {
            let mut counts = vec![0usize; classes];
            for i in 0..mask.len() {
                if mask[i] {
                    counts[labels[i] as usize] += 1;
                }
            }
            let mut best = 0usize;
            for (k, &c) in counts.iter().enumerate() {
                if c > counts[best] {
                    best = k;
                }
            }
            best as f64
        }
        Task::Regression => {
            let mut sum = 0.0;
            let mut n = 0usize;
            for i in 0..mask.len() {
                if mask[i] {
                    sum += labels[i];
                    n += 1;
                }
            }
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        }
    }
}
