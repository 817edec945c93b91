//! Algorithm 3 — Pivot decision-tree training, basic protocol (§4).
//!
//! All clients run [`train`] in lockstep; the returned plaintext
//! [`DecisionTree`] (identical at every client) is the released model.
//! Nothing else is disclosed: label masks and statistics stay encrypted,
//! split selection happens on shares, and only the agreed outputs (split
//! identifier + threshold per node, leaf labels) are opened.
//!
//! Every tree here carries its label vectors from the root
//! (`NodeMask::Carried`, the route §7.2 names): the super client encrypts
//! each sample's stride `(α, γ₁, …)` once per tree, and the winning client
//! masks `[γ_k]` alongside `[α]` with the same split indicator — the
//! paper's optimization avoiding per-node ciphertext multiplications.
//! [`train_from_roots`] takes any carried roots: the GBDT trees' roots
//! carry *pre-encrypted residuals* instead of the super client's labels.
//!
//! The level-wise loop itself is `crate::trainer`; this file is the
//! basic protocol's side of it: the Paillier statistics pass
//! ([`PaillierPass`], which the enhanced protocol shares) and the
//! disclosure hooks ([`Reveal`], which the DP trees and SPDZ-DT share). A
//! single tree is the one-root case of [`train_with_masks`].

use crate::config::LabelSource;
use crate::conversion::packed_ciphers_to_shares;
use crate::decrypt::Bounded;
use crate::dp::DpParams;
use crate::gain::{
    best_split_batch, leaf_label_shares_batch, node_shares_from_packed, prune_decisions_batch,
    NodeShares, NodeTotals,
};
use crate::masks::{
    compute_packed_label_masks, initial_mask, plan_packed_labels, update_vectors_plain,
    PackedLabelPlan, PackedLabels, Sides,
};
use crate::party::PartyContext;
use crate::stats::{
    conversion_batch, packed_pooled_statistics, LocalSplits, PackedStats, SplitLayout,
};
use crate::trainer::{
    allocate_children, children, grow_tree, Arena, ArenaNode, Disclosure, FrontierNode, LevelPass,
    Survivor,
};
use pivot_bignum::BigUint;
use pivot_data::Task;
use pivot_mpc::{Fp, Share};
use pivot_paillier::Ciphertext;
use pivot_trees::{DecisionTree, Node};

/// The encrypted vectors of a node.
pub(crate) enum NodeMask {
    /// The enhanced protocol's sample mask `[α]` alone: its Eqn-10 update
    /// rewrites α alone, so the super client derives the label vectors
    /// from its plaintext labels at every statistics pass. `alpha` carries
    /// the bound its producer set (`crate::train_enhanced`); `shares` are
    /// shares of α, held by a mask the statistics pass refreshed, which
    /// its Eqn-10 update reads instead of converting `alpha` again.
    Alpha {
        alpha: Bounded,
        shares: Option<Vec<Share>>,
    },
    /// Every Pivot-Basic node (§7.2's route): the node carries its label
    /// vectors. Per sample, the stride `(α, γ₁, …)` lies in the slots of
    /// the run's codec, cut by the label plan's `PackedChunking` —
    /// `chunks` vectors of `n` ciphertexts: one where the stride fits a
    /// ciphertext, `[α]`, `[γ₁]`, … themselves at one slot. A single, RF
    /// or DP tree's root holds the super client's labels times each
    /// sample's inclusion bit; a GBDT root the residual moments.
    Carried(Vec<Vec<Ciphertext>>),
}

/// The Pivot trainers' statistics pass (§4.1): label vectors, encrypted
/// dot products and pooling, then ONE Algorithm-2 conversion for the
/// level — all over the slots of the run's `SlotCodec`. The paper's
/// one-ciphertext-per-statistic layout is its one-slot case
/// (`PivotParams::slot_plan`), not a second route. A winning split
/// divides a node's vectors by the winner's plaintext indicator.
pub(crate) struct PaillierPass {
    /// The slot layout of the statistics and the label stride the roots
    /// were built with: a carried root already lies in its slots.
    pub(crate) label_plan: PackedLabelPlan,
}

impl LevelPass for PaillierPass {
    type Mask = NodeMask;

    fn statistics(
        &mut self,
        ctx: &mut PartyContext<'_>,
        local: &LocalSplits,
        layout: &SplitLayout,
        masks: &mut [&mut NodeMask],
    ) -> Vec<NodeShares> {
        // An `[α]` above the bound its slots were audited for is refreshed
        // first; a lone slot is the whole plaintext and admits any bound.
        let codec = &self.label_plan.codec;
        let audited = BigUint::from_u128(ctx.params.alpha_bound(ctx.parties()));
        let stale: Vec<&mut NodeMask> = masks
            .iter_mut()
            .map(|mask| &mut **mask)
            .filter(|mask| matches!(mask, NodeMask::Alpha { alpha, .. } if alpha.bound > audited))
            .collect();
        if codec.slots() > 1 && !stale.is_empty() {
            crate::train_enhanced::refresh_masks(ctx, stale);
        }
        let per_node: Vec<PackedStats> = {
            let _stats = pivot_trace::phase_span(&ctx.counters, "stats");
            let labels: Vec<PackedLabels<'_>> = masks
                .iter()
                .map(|mask| compute_packed_label_masks(ctx, mask, &self.label_plan))
                .collect();
            labels
                .iter()
                .map(|packed| packed_pooled_statistics(ctx, layout, local, packed, codec))
                .collect()
        };
        let _conv = pivot_trace::phase_span(&ctx.counters, "conversion");
        let (cts, used) = conversion_batch(&per_node);
        let slot_shares = packed_ciphers_to_shares(ctx, codec, &cts, &used);
        let mut rest = slot_shares.as_slice();
        per_node
            .iter()
            .map(|ps| {
                let (span, tail) = rest.split_at(ps.conversion_len());
                rest = tail;
                node_shares_from_packed(ctx, layout, ps, span)
            })
            .collect()
    }

    /// Mask every chunk of the stride the node carries with the winning
    /// indicator, on the sides that are read. An enhanced node's `[α]`
    /// divides by Eqn 10 instead (`crate::train_enhanced`).
    fn divide(
        &mut self,
        ctx: &mut PartyContext<'_>,
        local: &LocalSplits,
        layout: &SplitLayout,
        mask: NodeMask,
        global: usize,
        wanted: Sides<bool>,
    ) -> Sides<Option<NodeMask>> {
        let (winner, local_feature, split_idx) = layout.locate(global);
        let NodeMask::Carried(vectors) = mask else {
            unreachable!("an [α] alone divides by Eqn 10")
        };
        let indicator = (ctx.id() == winner).then(|| local.goes_left(local_feature, split_idx));
        update_vectors_plain(ctx, &vectors, winner, indicator.as_deref(), wanted)
            .map(|side| side.map(NodeMask::Carried))
    }
}

/// Train a single decision tree on all samples (basic protocol).
pub fn train(ctx: &mut PartyContext<'_>) -> DecisionTree {
    let mask = vec![true; ctx.num_samples()];
    train_with_mask(ctx, &mask)
}

/// Train on a subset of samples (a public mask).
pub fn train_with_mask(ctx: &mut PartyContext<'_>, included: &[bool]) -> DecisionTree {
    train_with_masks(ctx, &[included]).remove(0)
}

/// Train one tree per public sample mask, all in one frontier (the
/// random-forest extension's bootstrap masks, §7.1): the rounds of one
/// tree, batches as wide as the forest.
pub fn train_with_masks(
    ctx: &mut PartyContext<'_>,
    included: &[impl AsRef<[bool]>],
) -> Vec<DecisionTree> {
    train_from_masks(ctx, included, None)
}

/// [`train_with_masks`], with §9.2's DP queries under `noise`: each root
/// carries the super client's label stride times its inclusion bits.
pub(crate) fn train_from_masks(
    ctx: &mut PartyContext<'_>,
    included: &[impl AsRef<[bool]>],
    noise: Option<DpParams>,
) -> Vec<DecisionTree> {
    let plan = plan_packed_labels(ctx, LabelSource::of_task(ctx.current_task()));
    let roots = included
        .iter()
        .map(|mask| {
            assert_eq!(mask.as_ref().len(), ctx.num_samples());
            NodeMask::Carried(initial_mask(ctx, mask.as_ref(), Some(&plan)))
        })
        .collect();
    train_from_roots(ctx, roots, plan, noise)
}

/// Train from carried roots laid out by `label_plan` (the GBDT entry
/// point: its roots carry the residual label vectors). With `noise`, the
/// prune, leaf and split queries are §9.2's DP mechanisms (`crate::dp`).
pub(crate) fn train_from_roots(
    ctx: &mut PartyContext<'_>,
    roots: Vec<NodeMask>,
    label_plan: PackedLabelPlan,
    noise: Option<DpParams>,
) -> Vec<DecisionTree> {
    let (local, layout) = {
        let _stats = pivot_trace::phase_span(&ctx.counters, "stats");
        let local = LocalSplits::precompute(ctx);
        let layout = SplitLayout::build(ctx.ep, &local.counts());
        (local, layout)
    };
    let mut reveal = Reveal::new(
        ctx.params.tree.stop_when_pure && label_plan.labels != LabelSource::ShareSums,
        noise,
    );
    let mut pass = PaillierPass { label_plan };
    let task = ctx.current_task();
    grow_tree(ctx, &mut pass, &mut reveal, &local, &layout, roots)
        .into_iter()
        .map(|(nodes, root)| DecisionTree::new(nodes, root, task))
        .collect()
}

impl ArenaNode for Node {
    fn children(&self) -> Option<(usize, usize)> {
        match self {
            Node::Leaf { .. } => None,
            Node::Internal { left, right, .. } => Some((*left, *right)),
        }
    }

    fn set_children(&mut self, new_left: usize, new_right: usize) {
        if let Node::Internal { left, right, .. } = self {
            (*left, *right) = (new_left, new_right);
        }
    }
}

/// §4 disclosure: leaf labels and winning split identifiers are opened —
/// the labels queue until the level's winners join them, so one round per
/// level settles every leaf label and every winner index — and the winner
/// announces its feature and plaintext threshold. With `noise` set, what
/// is opened are the answers of §9.2's DP queries.
pub(crate) struct Reveal {
    /// `tree.stop_when_pure`, for exact trees on the labels the super
    /// client holds (not on a GBDT round's share sums).
    purity_check: bool,
    /// The DP trainer's budget: its queries replace the exact ones.
    noise: Option<DpParams>,
    /// `(arena slot, label share)` of the leaves queued since the last
    /// opening round.
    pending_leaves: Vec<(usize, Share)>,
}

impl Reveal {
    pub(crate) fn new(purity_check: bool, noise: Option<DpParams>) -> Self {
        Reveal {
            purity_check,
            noise,
            pending_leaves: Vec::new(),
        }
    }

    /// ONE opening round for the queued leaf labels, then `extra`; fills
    /// the pending leaves and returns `extra` opened. No round when
    /// nothing is queued.
    fn open_queued(
        &mut self,
        ctx: &mut PartyContext<'_>,
        arena: &mut Arena<Node>,
        extra: &[Share],
    ) -> Vec<Fp> {
        let leaves = self.pending_leaves.iter().map(|&(_, label)| label);
        let shares: Vec<Share> = leaves.chain(extra.iter().copied()).collect();
        if shares.is_empty() {
            return Vec::new();
        }
        let mut opened = ctx.engine.open_vec(&shares);
        let extra = opened.split_off(self.pending_leaves.len());
        let task = ctx.current_task();
        for ((slot, _), label) in self.pending_leaves.drain(..).zip(opened) {
            let value = match task {
                Task::Classification { .. } => label.value() as f64,
                Task::Regression => ctx.engine.cfg.decode(label),
            };
            arena[slot] = Some(Node::Leaf { value });
        }
        extra
    }
}

impl<P: LevelPass> Disclosure<P> for Reveal {
    type Node = Node;

    fn prune(&self, ctx: &mut PartyContext<'_>, nodes: &[&NodeTotals]) -> Vec<bool> {
        match &self.noise {
            Some(dp) => dp.prune(ctx, nodes),
            None => prune_decisions_batch(ctx, nodes, self.purity_check),
        }
    }

    fn leaf_labels(&self, ctx: &mut PartyContext<'_>, nodes: &[&NodeTotals]) -> Vec<Share> {
        match &self.noise {
            Some(dp) => dp.leaf_labels(ctx, nodes),
            None => leaf_label_shares_batch(ctx, nodes),
        }
    }

    fn best_splits(&self, ctx: &mut PartyContext<'_>, gains: &[Vec<Share>]) -> Vec<Share> {
        match &self.noise {
            Some(dp) => dp.best_splits(ctx, gains),
            None => best_split_batch(ctx, gains),
        }
    }

    fn settle_leaves(
        &mut self,
        _ctx: &mut PartyContext<'_>,
        slots: Vec<usize>,
        labels: Vec<Share>,
        _arena: &mut Arena<Node>,
    ) {
        self.pending_leaves.extend(slots.into_iter().zip(labels));
    }

    fn flush_leaves(&mut self, ctx: &mut PartyContext<'_>, arena: &mut Arena<Node>) {
        self.open_queued(ctx, arena, &[]);
    }

    fn settle_splits(
        &mut self,
        ctx: &mut PartyContext<'_>,
        pass: &mut P,
        local: &LocalSplits,
        layout: &SplitLayout,
        survivors: Vec<Survivor<'_, P::Mask>>,
        wanted: Sides<bool>,
        arena: &mut Arena<Node>,
    ) -> Vec<FrontierNode<P::Mask>> {
        let bests: Vec<Share> = survivors.iter().map(|s| s.best).collect();
        let winners = {
            let _reveal = pivot_trace::phase_span(&ctx.counters, "split_reveal");
            self.open_queued(ctx, arena, &bests)
        };

        // Winner announcements and mask divisions; the per-node frames of
        // this stage coalesce at the transport layer.
        let mut next = Vec::with_capacity(2 * survivors.len());
        for (Survivor { node, stats, .. }, winner) in survivors.into_iter().zip(winners) {
            // The identifier (i*, j*, s*) is public (§4.1 model update
            // step); the winner announces the global feature id and
            // plaintext threshold, both part of the released model.
            let global = winner.value() as usize;
            let (winner, local_feature, split_idx) = layout.locate(global);
            let (feature, threshold) = {
                let _reveal = pivot_trace::phase_span(&ctx.counters, "split_reveal");
                if ctx.id() == winner {
                    let feature = ctx.view.feature_indices[local_feature];
                    let threshold = local.candidates[local_feature].thresholds[split_idx];
                    ctx.ep.broadcast(&(feature, threshold));
                    (feature, threshold)
                } else {
                    ctx.ep.recv::<(usize, f64)>(winner)
                }
            };
            // The children's totals are the opened column of the
            // parent's statistics and its complement: local indexing.
            let totals = stats.child_totals(stats.column(global));

            let masks = if wanted.any() {
                let mask = node
                    .mask
                    .expect("a node whose children read a mask holds one");
                let _update = pivot_trace::phase_span(&ctx.counters, "update");
                pass.divide(ctx, local, layout, mask, global, wanted)
            } else {
                Sides::default()
            };

            let slots = allocate_children(arena);
            arena[node.slot] = Some(Node::Internal {
                feature,
                threshold,
                left: slots.0,
                right: slots.1,
            });
            next.extend(children(slots, totals, masks));
        }
        next
    }
}
