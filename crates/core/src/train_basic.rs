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
//! basic protocol's side of its disclosure hooks. A single tree is the
//! one-root case of [`train_with_masks`].

use crate::config::LabelSource;
use crate::masks::{initial_mask, update_vectors_plain, Sides};
use crate::metrics::Stage;
use crate::party::PartyContext;
use crate::stats::{LocalSplits, SplitLayout};
use crate::trainer::{
    allocate_children, children, grow_tree, Arena, ArenaNode, Disclosure, FrontierNode, NodeMask,
    Survivor,
};
use pivot_data::Task;
use pivot_mpc::{Fp, Share};
use pivot_paillier::{Ciphertext, SlotCodec};
use pivot_trees::{DecisionTree, Node};

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
    train_from_roots(ctx, roots, &codec)
}

/// Train from explicit root vectors laid out in the slots of `codec` (the
/// GBDT entry point: its roots carry the residual label vectors).
pub(crate) fn train_from_roots(
    ctx: &mut PartyContext<'_>,
    roots: Vec<NodeMask>,
    codec: &SlotCodec,
) -> Vec<DecisionTree> {
    let (local, layout) = {
        let _setup = pivot_trace::phase_span("setup");
        let local = LocalSplits::precompute(ctx);
        let layout = SplitLayout::build(ctx.ep, &local.counts());
        (local, layout)
    };
    let mut reveal = Reveal {
        purity_check: ctx.params.tree.stop_when_pure
            && roots.iter().all(|root| matches!(root, NodeMask::Alpha(_))),
        pending_leaves: Vec::new(),
    };
    let task = ctx.current_task();
    grow_tree(ctx, &mut reveal, &local, &layout, roots, codec)
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
/// announces its feature and plaintext threshold.
struct Reveal {
    /// `tree.stop_when_pure`, for trees on the super client's own labels.
    purity_check: bool,
    /// `(arena slot, deferred-open ticket)` of leaf labels queued since
    /// the last opening round.
    pending_leaves: Vec<(usize, usize)>,
}

impl Reveal {
    /// ONE opening round for everything queued; fills the pending leaves
    /// and returns every ticket's opened values.
    fn open_queued(&mut self, ctx: &mut PartyContext<'_>, arena: &mut Arena<Node>) -> Vec<Vec<Fp>> {
        let opened = ctx
            .metrics
            .time(Stage::MpcComputation, || ctx.engine.resolve());
        let task = ctx.current_task();
        for (slot, ticket) in self.pending_leaves.drain(..) {
            let label = opened[ticket][0];
            let value = match task {
                Task::Classification { .. } => label.value() as f64,
                Task::Regression => ctx.params.fixed.decode(label),
            };
            arena[slot] = Some(Node::Leaf { value });
        }
        opened
    }
}

impl Disclosure for Reveal {
    type Node = Node;

    fn purity_check(&self) -> bool {
        self.purity_check
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
        local: &LocalSplits,
        layout: &SplitLayout,
        survivors: Vec<Survivor<'_>>,
        wanted: Sides<bool>,
        arena: &mut Arena<Node>,
    ) -> Vec<FrontierNode> {
        let tickets: Vec<usize> = survivors
            .iter()
            .map(|s| ctx.engine.open_deferred(&[s.best]))
            .collect();
        let opened = {
            let _reveal = pivot_trace::phase_span("split_reveal");
            self.open_queued(ctx, arena)
        };

        // Winner announcements and mask updates; the per-node frames of
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
                ctx.metrics.time(Stage::ModelUpdate, || {
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

            // Mask every vector the node holds — [α], or the stride a GBDT
            // node carries — with the winning indicator, on the sides that
            // are read.
            let masks = if wanted.any() {
                let mask = node
                    .mask
                    .expect("a node whose children read a mask holds one");
                let (vectors, carried) = match mask {
                    NodeMask::Alpha(alpha) => (vec![alpha], false),
                    NodeMask::Carried(chunks) => (chunks, true),
                };
                let indicator = (ctx.id() == winner)
                    .then(|| local.indicators[local_feature][split_idx].as_slice());
                let started = std::time::Instant::now();
                let updated = {
                    let _update = pivot_trace::phase_span("update");
                    update_vectors_plain(ctx, &vectors, winner, indicator, wanted)
                };
                ctx.metrics.add_time(Stage::ModelUpdate, started.elapsed());
                let child_mask = |mut vectors: Vec<Vec<Ciphertext>>| {
                    if carried {
                        NodeMask::Carried(vectors)
                    } else {
                        NodeMask::Alpha(vectors.remove(0))
                    }
                };
                updated.map(|side| side.map(child_mask))
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
