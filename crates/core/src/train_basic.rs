//! Algorithm 3 — Pivot decision-tree training, basic protocol (§4).
//!
//! All clients run [`train`] in lockstep; the returned plaintext
//! [`DecisionTree`] (identical at every client) is the released model.
//! Nothing else is disclosed: label masks and statistics stay encrypted,
//! split selection happens on shares, and only the agreed outputs (split
//! identifier + threshold per node, leaf labels) are opened.
//!
//! [`train_from_roots`] additionally supports the GBDT mode of §7.2 where
//! the label vectors are *pre-encrypted residuals* the roots carry
//! (`NodeMask::Carried`): the winning client then updates `[γ₁]`, `[γ₂]`
//! alongside `[α]` with the same split indicator (the paper's optimization
//! avoiding per-node ciphertext multiplications).
//!
//! The level-wise loop itself is `crate::trainer`; this file is the
//! basic protocol's side of it: the Paillier statistics pass
//! ([`PaillierPass`], which the enhanced protocol shares) and the
//! disclosure hooks ([`Reveal`], which the DP trees and SPDZ-DT share). A
//! single tree is the one-root case of [`train_with_masks`].

use crate::config::LabelSource;
use crate::conversion::packed_ciphers_to_shares;
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
use pivot_data::Task;
use pivot_mpc::{Fp, Share};
use pivot_paillier::{Ciphertext, SlotCodec};
use pivot_trace::Counter;
use pivot_trees::{DecisionTree, Node};

/// The encrypted vectors of a node.
pub(crate) enum NodeMask {
    /// The sample mask `[α]`: the super client derives the label vectors
    /// from its plaintext labels at every node.
    Alpha(Vec<Ciphertext>),
    /// §7.2: a GBDT residual tree's node carries its label vectors. Per
    /// sample, the stride `(α, γ₁, γ₂)` lies in the slots of the run's
    /// codec, cut by `PackedChunking::new(3, slots)` like any other label
    /// stride — `chunks` vectors of `n` ciphertexts: one from three slots
    /// up, `[α]`, `[γ₁]`, `[γ₂]` themselves at one.
    Carried(Vec<Vec<Ciphertext>>),
}

impl NodeMask {
    /// `[α]` of a node that carries nothing else — the only kind the
    /// enhanced protocol grows.
    pub fn alpha_mut(&mut self) -> &mut Vec<Ciphertext> {
        match self {
            NodeMask::Alpha(alpha) => alpha,
            NodeMask::Carried(_) => panic!("a carried stride has no [α] of its own"),
        }
    }

    /// [`NodeMask::alpha_mut`], by value.
    pub fn into_alpha(mut self) -> Vec<Ciphertext> {
        std::mem::take(self.alpha_mut())
    }
}

/// The Pivot trainers' statistics pass (§4.1): label vectors, encrypted
/// dot products and pooling, then ONE Algorithm-2 conversion for the
/// level — all over the slots of the run's `SlotCodec`. The paper's
/// one-ciphertext-per-statistic layout is its one-slot case
/// (`PivotParams::slot_plan`), not a second route. A winning split
/// divides a node's vectors by the winner's plaintext indicator.
pub(crate) struct PaillierPass {
    /// The slot layout of the statistics, audited for the source of the
    /// roots' label vectors (`PartyContext::packing_codec`): the root of a
    /// GBDT residual tree already lies in its slots.
    codec: SlotCodec,
    /// The label multipliers depend only on labels/task/codec — built
    /// once, reused by every node of every tree at every level.
    label_plan: PackedLabelPlan,
    /// The masks below the root are Eqn-10 products (§5.2), linearized
    /// before a multi-slot pass reads them
    /// (`crate::train_enhanced::refresh_masks`).
    eqn10_masks: bool,
}

impl PaillierPass {
    /// The pass over `roots`; `eqn10_masks` for the enhanced protocol,
    /// whose masks below the root carry Eqn-10 slack.
    pub(crate) fn new(
        ctx: &PartyContext<'_>,
        codec: &SlotCodec,
        roots: &[NodeMask],
        eqn10_masks: bool,
    ) -> Self {
        let carried = matches!(roots.first(), Some(NodeMask::Carried(_)));
        assert!(
            roots
                .iter()
                .all(|root| matches!(root, NodeMask::Carried(_)) == carried),
            "the trees of one frontier share one label plan"
        );
        PaillierPass {
            codec: codec.clone(),
            label_plan: plan_packed_labels(ctx, codec, carried),
            eqn10_masks,
        }
    }
}

impl LevelPass for PaillierPass {
    type Mask = NodeMask;

    fn statistics(
        &mut self,
        ctx: &mut PartyContext<'_>,
        local: &LocalSplits,
        layout: &SplitLayout,
        depth: usize,
        masks: &mut [&mut NodeMask],
    ) -> Vec<NodeShares> {
        // A lone slot is the whole plaintext: no neighbour for the slack
        // to carry into.
        if self.eqn10_masks && depth > 0 && self.codec.slots() > 1 {
            crate::train_enhanced::refresh_masks(ctx, masks);
        }
        let per_node: Vec<PackedStats> = {
            let _stats = pivot_trace::phase_span("stats");
            let labels: Vec<PackedLabels<'_>> = masks
                .iter()
                .map(|mask| compute_packed_label_masks(ctx, mask, &self.label_plan))
                .collect();
            labels
                .iter()
                .map(|packed| packed_pooled_statistics(ctx, layout, local, packed, &self.codec))
                .collect()
        };
        let _conv = pivot_trace::phase_span("conversion");
        let (cts, used) = conversion_batch(&per_node);
        let started = std::time::Instant::now();
        let slot_shares = packed_ciphers_to_shares(ctx, &self.codec, &cts, &used);
        ctx.counters
            .add_duration(Counter::StageMpcNs, started.elapsed());
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

    /// Mask every vector the node holds — `[α]`, or the stride a GBDT
    /// node carries — with the winning indicator, on the sides that are
    /// read.
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
        let (vectors, carried) = match mask {
            NodeMask::Alpha(alpha) => (vec![alpha], false),
            NodeMask::Carried(chunks) => (chunks, true),
        };
        let indicator =
            (ctx.id() == winner).then(|| local.indicators[local_feature][split_idx].as_slice());
        let child_mask = |mut vectors: Vec<Vec<Ciphertext>>| {
            if carried {
                NodeMask::Carried(vectors)
            } else {
                NodeMask::Alpha(vectors.remove(0))
            }
        };
        update_vectors_plain(ctx, &vectors, winner, indicator, wanted)
            .map(|side| side.map(child_mask))
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
    let roots = included
        .iter()
        .map(|mask| {
            assert_eq!(mask.as_ref().len(), ctx.num_samples());
            NodeMask::Alpha(initial_mask(ctx, mask.as_ref()))
        })
        .collect();
    let codec = ctx.packing_codec(LabelSource::of_task(ctx.current_task()));
    train_from_roots(ctx, roots, &codec, None)
}

/// Train from explicit root vectors laid out in the slots of `codec` (the
/// GBDT entry point: its roots carry the residual label vectors). With
/// `noise`, the prune, leaf and split queries are §9.2's DP mechanisms
/// (`crate::dp`).
pub(crate) fn train_from_roots(
    ctx: &mut PartyContext<'_>,
    roots: Vec<NodeMask>,
    codec: &SlotCodec,
    noise: Option<DpParams>,
) -> Vec<DecisionTree> {
    let (local, layout) = {
        let _setup = pivot_trace::phase_span("setup");
        let local = LocalSplits::precompute(ctx);
        let layout = SplitLayout::build(ctx.ep, &local.counts());
        (local, layout)
    };
    let mut pass = PaillierPass::new(ctx, codec, &roots, false);
    let mut reveal = Reveal::new(
        ctx.params.tree.stop_when_pure
            && roots.iter().all(|root| matches!(root, NodeMask::Alpha(_))),
        noise,
    );
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
/// both through the engine's deferred queue, so one round per level
/// settles every leaf label and every winner index — and the winner
/// announces its feature and plaintext threshold. With `noise` set, what
/// is opened are the answers of §9.2's DP queries.
pub(crate) struct Reveal {
    /// `tree.stop_when_pure`, for exact trees on the labels the super
    /// client holds.
    purity_check: bool,
    /// The DP trainer's budget: its queries replace the exact ones.
    noise: Option<DpParams>,
    /// `(arena slot, deferred-open ticket)` of leaf labels queued since
    /// the last opening round.
    pending_leaves: Vec<(usize, usize)>,
}

impl Reveal {
    pub(crate) fn new(purity_check: bool, noise: Option<DpParams>) -> Self {
        Reveal {
            purity_check,
            noise,
            pending_leaves: Vec::new(),
        }
    }

    /// ONE opening round for everything queued; fills the pending leaves
    /// and returns every ticket's opened values.
    fn open_queued(&mut self, ctx: &mut PartyContext<'_>, arena: &mut Arena<Node>) -> Vec<Vec<Fp>> {
        let opened = ctx
            .counters
            .time(Counter::StageMpcNs, || ctx.engine.resolve());
        let task = ctx.current_task();
        for (slot, ticket) in self.pending_leaves.drain(..) {
            let label = opened[ticket][0];
            let value = match task {
                Task::Classification { .. } => label.value() as f64,
                Task::Regression => ctx.engine.cfg.decode(label),
            };
            arena[slot] = Some(Node::Leaf { value });
        }
        opened
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
        ctx: &mut PartyContext<'_>,
        slots: Vec<usize>,
        labels: Vec<Share>,
        _arena: &mut Arena<Node>,
    ) {
        for (slot, label) in slots.into_iter().zip(labels) {
            self.pending_leaves
                .push((slot, ctx.engine.open_deferred(&[label])));
        }
    }

    fn flush_leaves(&mut self, ctx: &mut PartyContext<'_>, arena: &mut Arena<Node>) {
        self.open_queued(ctx, arena);
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
        let tickets: Vec<usize> = survivors
            .iter()
            .map(|s| ctx.engine.open_deferred(&[s.best]))
            .collect();
        let opened = {
            let _reveal = pivot_trace::phase_span("split_reveal");
            self.open_queued(ctx, arena)
        };

        // Winner announcements and mask divisions; the per-node frames of
        // this stage coalesce at the transport layer.
        let mut next = Vec::with_capacity(2 * survivors.len());
        for (Survivor { node, stats, .. }, ticket) in survivors.into_iter().zip(tickets) {
            // The identifier (i*, j*, s*) is public (§4.1 model update
            // step); the winner announces the global feature id and
            // plaintext threshold, both part of the released model.
            let global = opened[ticket][0].value() as usize;
            let (winner, local_feature, split_idx) = layout.locate(global);
            let (feature, threshold) = {
                let _reveal = pivot_trace::phase_span("split_reveal");
                ctx.counters.time(Counter::StageUpdateNs, || {
                    if ctx.id() == winner {
                        let feature = ctx.view.feature_indices[local_feature];
                        let threshold = local.candidates[local_feature].thresholds[split_idx];
                        ctx.ep.broadcast(&(feature, threshold));
                        (feature, threshold)
                    } else {
                        ctx.ep.recv::<(usize, f64)>(winner)
                    }
                })
            };
            // The children's totals are the opened column of the
            // parent's statistics and its complement: local indexing.
            let totals = stats.child_totals(stats.column(global));

            let masks = if wanted.any() {
                let mask = node
                    .mask
                    .expect("a node whose children read a mask holds one");
                let started = std::time::Instant::now();
                let masks = {
                    let _update = pivot_trace::phase_span("update");
                    pass.divide(ctx, local, layout, mask, global, wanted)
                };
                ctx.counters
                    .add_duration(Counter::StageUpdateNs, started.elapsed());
                masks
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
