//! SPDZ-DT: decision-tree training entirely inside MPC (the paper's
//! baseline, §8.1). Features, candidate thresholds, and labels are all
//! secret-shared; split indicators are computed with secure comparisons;
//! node statistics with secure multiplications. The released model is the
//! same plaintext tree Pivot-Basic produces.
//!
//! The tree grows on Pivot's level step (`crate::trainer`) with Pivot-Basic's
//! disclosure (`crate::train_basic::Reveal`): per level one prune unit, one
//! gain pipeline with one lockstep argmax, one leaf-label batch and one
//! opening round for the winners and leaf labels — the rounds Pivot-Basic
//! pays on the same data — and a right child's statistics are its
//! parent's minus its left sibling's. What differs is the pass
//! ([`SharedPass`]): where Pivot encrypts, SPDZ-DT multiplies shares. Per
//! level with `P` passing nodes, `c` label rows and `S` candidate splits it
//! pays two Beaver rounds of `P·n·(c + S·(1 + c))` products (`stats`), and
//! one of `n` products per node whose children read a mask (`update`). Once
//! per tree it shares every feature column and threshold and compares all
//! `n·S` (sample, split) pairs (`setup`).

use crate::gain::{NodeShares, NodeTotals};
use crate::masks::Sides;
use crate::party::PartyContext;
use crate::stats::{LocalSplits, SplitLayout};
use crate::train_basic::Reveal;
use crate::trainer::{grow_tree, LevelPass};
use pivot_data::Task;
use pivot_mpc::{FixedConfig, Fp, Share};
use pivot_trees::DecisionTree;

/// Train a decision tree with the pure-MPC baseline.
pub fn train(ctx: &mut PartyContext<'_>) -> DecisionTree {
    // Reject a column the comparisons cannot hold before any traffic.
    for (local, &feature) in ctx.view.feature_indices.iter().enumerate() {
        check_feature_range(feature, &ctx.view.column(local), &ctx.engine.cfg)
            .unwrap_or_else(|e| panic!("{e}"));
    }
    let (local, layout, mut pass) = {
        let _setup = pivot_trace::phase_span("setup");
        let local = LocalSplits::precompute(ctx);
        let layout = SplitLayout::build(ctx.ep, &local.counts());
        let indicators = share_indicators(ctx, &local, &layout);
        let label_rows = share_label_rows(ctx);
        let pass = SharedPass {
            indicators,
            label_rows,
        };
        (local, layout, pass)
    };
    let mut reveal = Reveal::new(ctx.params.tree.stop_when_pure, None);
    let root = vec![Share::from_public(ctx.id(), Fp::ONE); ctx.num_samples()];
    let (nodes, root) =
        grow_tree(ctx, &mut pass, &mut reveal, &local, &layout, vec![root]).remove(0);
    DecisionTree::new(nodes, root, ctx.current_task())
}

/// SPDZ-DT compares `τ − x` inside the fixed-point range, so a column
/// whose values span more than that range would wrap the comparison and
/// silently grow another tree: reject it, naming the (global) feature.
pub fn check_feature_range(
    feature: usize,
    column: &[f64],
    fixed: &FixedConfig,
) -> Result<(), String> {
    let (min, max) = column
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    if fixed.encodable(max - min) {
        return Ok(());
    }
    Err(format!(
        "spdz-dt: feature {feature} spans {} (max − min), but its secure comparisons \
         hold a span below 2^{} ({}-bit fixed point, {} fractional bits)",
        max - min,
        fixed.int_bits - 1 - fixed.frac_bits,
        fixed.int_bits,
        fixed.frac_bits
    ))
}

/// Share every owner's feature columns and candidate thresholds, and
/// evaluate every `(split, sample)` indicator `1[x ≤ τ] = 1 − 1[τ − x < 0]`
/// with one batched secure comparison — the `O(n·d·b)` comparison bill
/// Pivot avoids. One column per global split, in global split order.
fn share_indicators(
    ctx: &mut PartyContext<'_>,
    local: &LocalSplits,
    layout: &SplitLayout,
) -> Vec<Vec<Share>> {
    let n = ctx.num_samples();
    let fixed = ctx.engine.cfg;
    let mut diffs: Vec<Share> = Vec::with_capacity(layout.total() * n);
    for owner in 0..ctx.parties() {
        // Per feature with candidates: its column, then its thresholds,
        // both shifted by the column's minimum — the comparison reads
        // only their differences, which `check_feature_range` bounds.
        let counts = &layout.counts[owner];
        if counts.iter().all(|&c| c == 0) {
            continue;
        }
        let values: Option<Vec<Fp>> = (ctx.id() == owner).then(|| {
            let mut values = Vec::new();
            for (feature, candidates) in local.candidates.iter().enumerate() {
                if candidates.thresholds.is_empty() {
                    continue;
                }
                let column = ctx.view.column(feature);
                let min = column.iter().copied().fold(f64::INFINITY, f64::min);
                let shifted = column.iter().chain(&candidates.thresholds);
                values.extend(shifted.map(|&x| fixed.encode(x - min)));
            }
            values
        });
        let shared = ctx.engine.share_input(owner, values.as_deref());
        let mut rest = shared.as_slice();
        for &splits in counts.iter().filter(|&&c| c > 0) {
            let (column, tail) = rest.split_at(n);
            let (thresholds, tail) = tail.split_at(splits);
            rest = tail;
            for &threshold in thresholds {
                diffs.extend(column.iter().map(|&x| threshold - x));
            }
        }
    }
    let party = ctx.id();
    let negative = ctx.engine.ltz_vec_bounded(&diffs, fixed.int_bits);
    negative
        .chunks(n)
        .map(|lt| {
            lt.iter()
                .map(|&b| Share::from_public(party, Fp::ONE) - b)
                .collect()
        })
        .collect()
}

/// Super client shares per-label-vector rows: classification one-hot
/// indicators (integer-valued), regression `y`/`y²` (fixed-point).
fn share_label_rows(ctx: &mut PartyContext<'_>) -> Vec<Vec<Share>> {
    let n = ctx.num_samples();
    let values: Option<Vec<Fp>> = ctx.is_super_client().then(|| {
        let labels = ctx.view.labels.as_ref().expect("super client labels");
        match ctx.view.task {
            Task::Classification { classes } => (0..classes)
                .flat_map(|k| {
                    labels
                        .iter()
                        .map(move |&y| Fp::new(u64::from(y as usize == k)))
                })
                .collect(),
            Task::Regression => {
                let cfg = ctx.engine.cfg;
                let moments = labels.iter().map(|&y| cfg.encode(y));
                moments
                    .chain(labels.iter().map(|&y| cfg.encode(y * y)))
                    .collect()
            }
        }
    });
    let flat = ctx.engine.share_input(ctx.super_client, values.as_deref());
    flat.chunks(n).map(<[Share]>::to_vec).collect()
}

/// SPDZ-DT's statistics pass: a node's mask `⟨α⟩` is a shared 0/1 vector,
/// and its statistics are sums of Beaver products against the shared
/// label rows and indicator columns.
struct SharedPass {
    /// `indicators[s][i]`: `⟨1[x_i ≤ τ_s]⟩` of global split `s`.
    indicators: Vec<Vec<Share>>,
    /// `label_rows[k][i]`: `⟨β_k(i)⟩`.
    label_rows: Vec<Vec<Share>>,
}

impl LevelPass for SharedPass {
    type Mask = Vec<Share>;

    /// Two Beaver rounds for the level: `α·β_k` (the node totals), then
    /// every split's `α·ind` and `(α·β_k)·ind`.
    fn statistics(
        &mut self,
        ctx: &mut PartyContext<'_>,
        _local: &LocalSplits,
        _layout: &SplitLayout,
        _depth: usize,
        masks: &mut [&mut Vec<Share>],
    ) -> Vec<NodeShares> {
        let _stats = pivot_trace::phase_span("stats");
        let n = ctx.num_samples();
        let rows = self.label_rows.len();
        let (lhs, rhs): (Vec<Share>, Vec<Share>) = masks
            .iter()
            .flat_map(|alpha| self.label_rows.iter().flat_map(|row| alpha.iter().zip(row)))
            .unzip();
        let masked = ctx.engine.mul_vec(&lhs, &rhs);
        // Per node the rows `α, α·β_1, …, α·β_c`.
        let weighted: Vec<Vec<&[Share]>> = masks
            .iter()
            .zip(masked.chunks(rows * n))
            .map(|(alpha, masked)| {
                std::iter::once(&alpha[..])
                    .chain(masked.chunks(n))
                    .collect()
            })
            .collect();
        let (lhs, rhs): (Vec<Share>, Vec<Share>) = weighted
            .iter()
            .flat_map(|node| {
                self.indicators
                    .iter()
                    .flat_map(move |ind| node.iter().flat_map(move |row| row.iter().zip(ind)))
            })
            .unzip();
        let products = ctx.engine.mul_vec(&lhs, &rhs);
        // Node-major, then split, then row.
        let mut sums = products.chunks(n).map(sum);
        weighted
            .iter()
            .map(|node| {
                let splits: Vec<Vec<Share>> = (0..self.indicators.len())
                    .map(|_| sums.by_ref().take(1 + rows).collect())
                    .collect();
                NodeShares {
                    n_l: splits.iter().map(|s| s[0]).collect(),
                    g_l: (1..=rows)
                        .map(|k| splits.iter().map(|s| s[k]).collect())
                        .collect(),
                    totals: NodeTotals {
                        n: sum(node[0]),
                        g: node[1..].iter().map(|row| sum(row)).collect(),
                    },
                }
            })
            .collect()
    }

    /// One Beaver round: `α_l = α·ind_{s*}`, `α_r = α − α_l`.
    fn divide(
        &mut self,
        ctx: &mut PartyContext<'_>,
        _local: &LocalSplits,
        _layout: &SplitLayout,
        alpha: Vec<Share>,
        global: usize,
        wanted: Sides<bool>,
    ) -> Sides<Option<Vec<Share>>> {
        let left = ctx.engine.mul_vec(&alpha, &self.indicators[global]);
        let right = wanted
            .right
            .then(|| alpha.iter().zip(&left).map(|(&a, &l)| a - l).collect());
        Sides {
            left: wanted.left.then_some(left),
            right,
        }
    }
}

fn sum(shares: &[Share]) -> Share {
    shares.iter().fold(Share::ZERO, |acc, &x| acc + x)
}
