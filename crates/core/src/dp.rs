//! Differentially private Pivot training (§9.2): the three per-node
//! queries — pruning-condition, non-leaf (best split), and leaf — are made
//! DP with secretly shared Laplace noise (Algorithm 5) and the secure
//! exponential mechanism (Algorithm 6). No client ever sees plaintext
//! noise. Everything else is the basic protocol's level step
//! (`crate::trainer`); each query is one batch for the frontier.
//!
//! The privacy accounting is a node-by-node recursion's, because every
//! node is asked what the recursion asks it: a depth-forced leaf the leaf
//! query, a pruned node prune then leaf, a split node prune then split. A
//! right sibling's statistics (parent − left) are an identity in `Z_p`, so
//! each query sees the value a pass of its own would give, and the
//! released model is `B`-DP with `B = 2(h+1)·ε` (paper §9.2).

use crate::config::{LabelSource, PivotParams, Protocol};
use crate::gain::{leaf_label_shares_batch, NodeTotals};
use crate::masks::initial_mask;
use crate::party::PartyContext;
use crate::train_basic::train_from_roots;
use crate::train_basic::NodeMask;
use pivot_data::Task;
use pivot_mpc::dp::{exponential_mechanism, laplace_sample_vec};
use pivot_mpc::{FixedConfig, Share};
use pivot_trees::DecisionTree;

/// Sensitivity `Δ` of the split score (2 for Gini gain, per
/// Friedman–Schuster).
const SPLIT_SENSITIVITY: f64 = 2.0;

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

    /// `ε` must be positive and every public scale the queries encode —
    /// `1/ε`, `ε/(2Δ)` and the regression leaf's — must fit the fixed-point layout.
    pub fn validate(&self, params: &PivotParams) -> Result<(), String> {
        let eps = self.epsilon_per_query;
        let scales = [
            1.0 / eps,
            eps / (2.0 * SPLIT_SENSITIVITY),
            self.mean_scale(params),
        ];
        let fixed = FixedConfig::default();
        if eps > 0.0 && scales.iter().all(|&s| fixed.encodable(s)) {
            return Ok(());
        }
        Err(format!(
            "ε per query = {eps} is out of range: it must be positive, and 1/ε, ε/4 and 2/(max(min_samples, 1)·ε) must fit the {}-bit fixed-point range",
            fixed.int_bits
        ))
    }

    /// Laplace scale of a noisy regression mean: the public sensitivity
    /// bound `2/min_samples` (labels are normalized to `[-1, 1]`) over `ε`.
    fn mean_scale(&self, params: &PivotParams) -> f64 {
        2.0 / (params.tree.min_samples.max(1) as f64 * self.epsilon_per_query)
    }

    /// `values` plus one `Lap(scale)` draw each, one batch.
    fn noisy(ctx: &mut PartyContext<'_>, values: Vec<Share>, scale: f64) -> Vec<Share> {
        let noise = laplace_sample_vec(&mut ctx.engine, 0.0, scale, values.len());
        values
            .into_iter()
            .zip(noise)
            .map(|(v, eta)| v + eta)
            .collect()
    }

    /// DP pruning-condition query: `n̄ + Lap(1/ε) < min_samples` (Δ = 1 on
    /// the node count), opened.
    pub(crate) fn prune(&self, ctx: &mut PartyContext<'_>, nodes: &[&NodeTotals]) -> Vec<bool> {
        // n̄ is integer-valued; lift to fixed-point before adding the noise.
        let one = ctx.engine.cfg.one();
        let counts = nodes.iter().map(|t| t.n.scale(one)).collect();
        let noisy = Self::noisy(ctx, counts, 1.0 / self.epsilon_per_query);
        let threshold = ctx.engine.constant_f64(ctx.params.tree.min_samples as f64);
        let below = ctx.engine.lt_vec_bounded(
            &noisy,
            &vec![threshold; noisy.len()],
            ctx.engine.cfg.int_bits,
        );
        let opened = ctx.engine.open_vec(&below);
        opened.iter().map(|b| b.value() == 1).collect()
    }

    /// DP leaf query: noisy class counts (Laplace, Δ = 1, parallel
    /// composition across disjoint classes) before one lockstep argmax at
    /// full width; a noisy mean for regression.
    pub(crate) fn leaf_labels(
        &self,
        ctx: &mut PartyContext<'_>,
        nodes: &[&NodeTotals],
    ) -> Vec<Share> {
        let Some(first) = nodes.first() else {
            return Vec::new();
        };
        if let Task::Regression = ctx.current_task() {
            let means = leaf_label_shares_batch(ctx, nodes);
            return Self::noisy(ctx, means, self.mean_scale(&ctx.params));
        }
        let one = ctx.engine.cfg.one();
        let counts = nodes
            .iter()
            .flat_map(|t| &t.g)
            .map(|g| g.scale(one))
            .collect();
        let noisy = Self::noisy(ctx, counts, 1.0 / self.epsilon_per_query);
        let rows: Vec<Vec<Share>> = noisy.chunks(first.g.len()).map(<[Share]>::to_vec).collect();
        let best = ctx
            .engine
            .argmax_many_bounded(&rows, ctx.engine.cfg.int_bits);
        best.into_iter().map(|(idx, _)| idx).collect()
    }

    /// DP non-leaf query: the exponential mechanism over the gains.
    pub(crate) fn best_splits(
        &self,
        ctx: &mut PartyContext<'_>,
        gains: &[Vec<Share>],
    ) -> Vec<Share> {
        exponential_mechanism(
            &mut ctx.engine,
            gains,
            self.epsilon_per_query,
            SPLIT_SENSITIVITY,
        )
    }
}

/// Train a differentially private decision tree (basic protocol + §9.2).
pub fn train_dp(ctx: &mut PartyContext<'_>, dp: &DpParams) -> DecisionTree {
    assert_eq!(
        ctx.params.protocol,
        Protocol::Basic,
        "DP extends the basic protocol"
    );
    dp.validate(&ctx.params).unwrap_or_else(|e| panic!("{e}"));
    let alpha = initial_mask(ctx, &vec![true; ctx.num_samples()]);
    let codec = ctx.packing_codec(LabelSource::of_task(ctx.current_task()));
    train_from_roots(ctx, vec![NodeMask::Alpha(alpha)], &codec, Some(*dp)).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_budgets_are_rejected_before_training() {
        let params = PivotParams::default();
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-9, 1e9] {
            let err = DpParams {
                epsilon_per_query: eps,
            }
            .validate(&params)
            .expect_err("out of range");
            assert!(err.contains('ε'), "{eps}: {err}");
        }
        for eps in [1e-3, 8.0, 1e6] {
            let dp = DpParams {
                epsilon_per_query: eps,
            };
            assert_eq!(dp.validate(&params), Ok(()), "{eps}");
        }
    }
}
