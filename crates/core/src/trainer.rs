//! Algorithm 3 as one level-wise loop, shared by the basic (§4) and
//! enhanced (§5.2) protocols.
//!
//! The whole tree frontier advances one depth at a time through batched
//! stages: one statistics pass and one Algorithm-2 conversion, one prune
//! comparison unit, one leaf-label batch, one gain pipeline and one
//! lockstep argmax per level, then a nonce refill and the checkpoint
//! barrier. Statistics, comparisons and Beaver products are
//! exact, so the trained tree is the one a node-by-node recursion builds;
//! batching only cuts rounds.
//!
//! The statistics step ([`level_statistics`]) is one pipeline for every
//! trainer — label vectors, dot products, pooling, Algorithm 2, all over
//! the slots of the run's `SlotCodec`. The paper's one-ciphertext-per-
//! statistic layout is its one-slot case (`PivotParams::slot_plan`), not a
//! second route, and nothing here asks which layout it was given except
//! where a neighbour slot matters: the mask refresh below the root runs
//! iff `codec.slots() > 1` (a lone slot has nothing to carry into), and
//! `crate::stats` books packing counters under the same condition.
//!
//! # A forest is W roots
//!
//! [`grow_tree`] takes a list of roots and returns one tree per root: the
//! arena starts with `W` empty root slots, the frontier with `W` root
//! nodes, and level 0 passes all of them. Nothing else in the level step
//! knows how many trees it grows, because nothing in it is per tree: a
//! frontier node is named by its arena slot alone, children follow their
//! parents in frontier order (`frontier[2t]`, `frontier[2t + 1]` belong to
//! `parents[t]`, whichever tree that is), and the trees of one frontier
//! share `max_depth`, the candidate splits, the split layout, the label
//! plan and the [`Disclosure`] — so there is no tree tag beside the slot
//! and no per-tree arena; [`renumber_postorder`] walks the shared arena
//! from each root slot in turn. A single tree is the one-root case; the
//! random forest of §7.1 (`W` bootstrap masks) and the `K` one-vs-rest
//! trees of a boosting round (§7.2) are independent trees, so they cost
//! the rounds of one tree with batches `W`× as wide.
//!
//! # A child is its parent's winning split
//!
//! Algorithm 3 treats every node as a fresh problem: a new `[α]`, a new
//! `[L] = β ⊙ [α]`, a new encrypted statistics pass. But a node's children
//! are determined by the statistics the parent has already converted.
//! Every sample of a node goes to exactly one child, so for every
//! candidate split `s`
//!
//! ```text
//! stats(left, s) + stats(right, s) = stats(parent, s)
//! totals(left) = stats(parent, s*)        (column s* of the parent)
//! ```
//!
//! exactly, in `Z_p`, because Paillier and additive shares are both
//! linear (SecureBoost+'s histogram subtraction, moved onto shares). The
//! level step is built on that identity:
//!
//! 1. **Leaves need no ciphertext.** When a node splits, each child is
//!    handed its totals `(⟨n̄⟩, ⟨Σγ_k⟩)`: left = column `s*` of the
//!    parent's [`NodeShares`], right = the parent's totals minus it
//!    ([`NodeShares::child_totals`]). A depth-forced leaf settles its
//!    label from them — no label-mask broadcast, no totals conversion.
//! 2. **A mask exists only where something reads it.** `[α]` (or the
//!    stride a GBDT node carries) of a node is read by exactly two things:
//!    its own statistics pass and the mask update of its children. With
//!    `h = max_depth`:
//!
//!    | child | own pass? | mask? |
//!    |---|---|---|
//!    | left, depth `d < h` | yes | yes |
//!    | right, depth `d < h − 1` | no (parent − left) | yes — its children's update reads it |
//!    | right, depth `d = h − 1` | no (parent − left) | no |
//!    | either, depth `d = h` (forced leaf) | no | no |
//!
//!    So the last split level produces no mask at all, the level above it
//!    left masks only, and absence is a type ([`FrontierNode::mask`]).
//! 3. **The right sibling's statistics are parent − left, on shares.**
//!    Below the root only left children run label masks → dot products →
//!    pooling → Algorithm 2; the previous level's survivors keep their
//!    [`NodeShares`] for one level and `right = parent.minus(&left)` is
//!    local. The left pass runs whenever the pair exists — also when the
//!    left child is then pruned, because its sibling's statistics come
//!    from it.
//!
//! For a full tree with `K` label vectors: statistics passes
//! `2^h − 1 → 2^(h−1)`; mask vectors produced
//! `2(2^h − 1) → 3·2^(h−2) − 2` (`h ≥ 2`; 0 at `h = 1`); leaf-level
//! label-mask ciphertexts `2^h·K·n → 0`. At the paper's `h = 4`: 15 → 8
//! passes, 30 → 10 mask vectors, `32n → 0`. The set of opened values and
//! the released model are those of the node-by-node recursion.
//!
//! # Disclosure
//!
//! The two protocols differ in what they disclose, and only there — the
//! hooks of [`Disclosure`]: whether a mask refresh precedes multi-slot
//! statistics, whether purity may be tested, how a leaf label is settled
//! (opened vs re-encrypted), and how a winning split is settled — the
//! winning column picked and the masks updated (announced vs concealed).

use crate::conversion::packed_ciphers_to_shares;
use crate::gain::{
    best_split_batch, leaf_label_shares_batch, node_shares_from_packed, prune_decisions_batch,
    split_gains_batch, NodeShares, NodeTotals,
};
use crate::masks::{
    compute_packed_label_masks, plan_packed_labels, PackedLabelPlan, PackedLabels, Sides,
};
use crate::metrics::Stage;
use crate::party::PartyContext;
use crate::stats::{
    conversion_batch, packed_pooled_statistics, LocalSplits, PackedStats, SplitLayout,
};
use pivot_mpc::Share;
use pivot_paillier::{Ciphertext, SlotCodec};

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
    /// enhanced protocol and the DP trainer grow.
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

/// One unresolved node of the current level.
pub(crate) struct FrontierNode {
    /// Its slot in the breadth-first arena.
    pub slot: usize,
    /// `(⟨n̄⟩, ⟨Σγ_k⟩)`, handed down by the parent's winning split; `None`
    /// for the root only, which learns them from its own statistics pass.
    pub totals: Option<NodeTotals>,
    /// `None` where nothing reads a mask (see the module's mask rule).
    pub mask: Option<NodeMask>,
}

/// A node that splits at this level, with what settling the split reads.
pub(crate) struct Survivor<'a> {
    pub node: FrontierNode,
    /// Its converted statistics: column `s*` is its left child's totals.
    pub stats: &'a NodeShares,
    /// `⟨s*⟩`, the shared global index of its winning split.
    pub best: Share,
}

/// The breadth-first node arena: a slot is allocated when its parent
/// splits and filled when the node itself is settled.
pub(crate) type Arena<N> = Vec<Option<N>>;

/// A tree node whose child links can be rewritten ([`renumber_postorder`]).
pub(crate) trait ArenaNode {
    /// `(left, right)` of an internal node, `None` for a leaf.
    fn children(&self) -> Option<(usize, usize)>;
    fn set_children(&mut self, left: usize, right: usize);
}

/// The points where a protocol decides what becomes public.
pub(crate) trait Disclosure {
    type Node: ArenaNode;

    /// Called below the root on the masks a multi-slot statistics pass is
    /// about to read. Masks that carry more slack than the slot-width
    /// audit budgets are linearized here.
    fn refresh_masks(&mut self, _ctx: &mut PartyContext<'_>, _masks: &mut [&mut NodeMask]) {}

    /// Whether the prune test may include "the node is pure" — one bit
    /// about the labels.
    fn purity_check(&self) -> bool;

    /// Settle the leaf labels (shares, aligned with `slots`) of the nodes
    /// that stop at this level.
    fn settle_leaves(
        &mut self,
        ctx: &mut PartyContext<'_>,
        slots: Vec<usize>,
        labels: Vec<Share>,
        arena: &mut Arena<Self::Node>,
    );

    /// Complete leaf settlements that [`Disclosure::settle_leaves`] left
    /// pending on a later split settlement, at a level that has none.
    fn flush_leaves(&mut self, _ctx: &mut PartyContext<'_>, _arena: &mut Arena<Self::Node>) {}

    /// Settle the winning splits: write the internal nodes, allocate
    /// their children and return them, left before right, each with its
    /// totals (the winning column of the parent's statistics, and the
    /// parent's totals minus it) and — on the `wanted` sides — its
    /// updated mask.
    fn settle_splits(
        &mut self,
        ctx: &mut PartyContext<'_>,
        local: &LocalSplits,
        layout: &SplitLayout,
        survivors: Vec<Survivor<'_>>,
        wanted: Sides<bool>,
        arena: &mut Arena<Self::Node>,
    ) -> Vec<FrontierNode>;
}

/// Allocate the two child slots of a node that splits.
pub(crate) fn allocate_children<N>(arena: &mut Arena<N>) -> (usize, usize) {
    let left = arena.len();
    arena.push(None);
    arena.push(None);
    (left, left + 1)
}

/// The two children of a split, left before right.
pub(crate) fn children(
    slots: (usize, usize),
    totals: Sides<NodeTotals>,
    masks: Sides<Option<NodeMask>>,
) -> [FrontierNode; 2] {
    [
        (slots.0, totals.left, masks.left),
        (slots.1, totals.right, masks.right),
    ]
    .map(|(slot, totals, mask)| FrontierNode {
        slot,
        totals: Some(totals),
        mask,
    })
}

/// Grow one tree per root, all in one frontier, and return each tree's
/// nodes in post-order (left subtree, right subtree, node) with its root's
/// index — in the order of `roots`.
///
/// `codec` is the slot layout of the statistics, audited for the source of
/// the roots' label vectors (`PartyContext::packing_codec`): the root of a
/// GBDT residual tree already lies in its slots.
pub(crate) fn grow_tree<D: Disclosure>(
    ctx: &mut PartyContext<'_>,
    protocol: &mut D,
    local: &LocalSplits,
    layout: &SplitLayout,
    roots: Vec<NodeMask>,
    codec: &SlotCodec,
) -> Vec<(Vec<D::Node>, usize)> {
    let carried = matches!(roots.first(), Some(NodeMask::Carried(_)));
    assert!(
        roots
            .iter()
            .all(|root| matches!(root, NodeMask::Carried(_)) == carried),
        "the trees of one frontier share one label plan"
    );
    // The label multipliers depend only on labels/task/codec — built once
    // here, reused by every node of every tree at every level.
    let label_plan = plan_packed_labels(ctx, codec, carried);
    let max_depth = ctx.params.tree.max_depth;
    // Root `w` takes arena slot `w`.
    let trees = roots.len();
    let mut arena: Arena<D::Node> = roots.iter().map(|_| None).collect();
    let mut frontier: Vec<FrontierNode> = roots
        .into_iter()
        .enumerate()
        .map(|(slot, root)| FrontierNode {
            slot,
            totals: None,
            mask: Some(root),
        })
        .collect();
    // The statistics of the previous level's survivors, kept for one
    // level: `frontier[2t]` and `frontier[2t + 1]` are the children of
    // `parents[t]`.
    let mut parents: Vec<NodeShares> = Vec::new();
    let mut depth = 0;
    while !frontier.is_empty() {
        // Depth pruning is public, and a forced leaf needs nothing but
        // the totals it was handed: no ciphertext, one label batch.
        if depth >= max_depth {
            let _leaf = pivot_trace::phase_span("leaf");
            let (slots, totals): (Vec<usize>, Vec<&NodeTotals>) = frontier
                .iter()
                .map(|node| {
                    let totals = node.totals.as_ref();
                    (node.slot, totals.expect("max_depth ≥ 1: not a root"))
                })
                .unzip();
            let labels = leaf_label_shares_batch(ctx, &totals);
            protocol.settle_leaves(ctx, slots, labels, &mut arena);
            protocol.flush_leaves(ctx, &mut arena);
            break;
        }
        let _level = pivot_trace::span_fn(|| format!("level {depth}"));
        let stats_start = ctx.ep.stats().bytes_sent();

        // Statistics and ONE Algorithm-2 conversion for the level: every
        // root's own pass, below them the left children's — a right
        // child's statistics are its parent's minus its left sibling's.
        let node_shares: Vec<NodeShares> = {
            let mut passing: Vec<&mut NodeMask> = frontier
                .iter_mut()
                .step_by(if depth == 0 { 1 } else { 2 })
                .map(|node| node.mask.as_mut().expect("a pass reads its node's mask"))
                .collect();
            if codec.slots() > 1 && depth > 0 {
                protocol.refresh_masks(ctx, &mut passing);
            }
            let passed = level_statistics(ctx, local, layout, codec, &label_plan, &passing);
            if depth == 0 {
                passed
            } else {
                parents
                    .iter()
                    .zip(passed)
                    .flat_map(|(parent, left)| {
                        let right = parent.minus(&left);
                        [left, right]
                    })
                    .collect()
            }
        };
        ctx.metrics
            .add_stats_bytes(ctx.ep.stats().bytes_sent() - stats_start);

        // One prune unit for the frontier — unless no client has any
        // candidate split (public), which forces the roots.
        let pruned = if layout.total() == 0 {
            vec![true; frontier.len()]
        } else {
            let _gain = pivot_trace::phase_span("gain");
            let totals: Vec<&NodeTotals> = node_shares.iter().map(|s| &s.totals).collect();
            prune_decisions_batch(ctx, &totals, protocol.purity_check())
        };

        // Pruned nodes: leaf labels in one batch.
        {
            let _leaf = pivot_trace::phase_span("leaf");
            let (slots, stopped): (Vec<usize>, Vec<&NodeTotals>) = frontier
                .iter()
                .zip(&node_shares)
                .zip(&pruned)
                .filter_map(|((node, shares), &stop)| stop.then_some((node.slot, &shares.totals)))
                .unzip();
            let labels = leaf_label_shares_batch(ctx, &stopped);
            protocol.settle_leaves(ctx, slots, labels, &mut arena);
        }

        // Survivors: gains and one lockstep argmax.
        let (live, stats): (Vec<FrontierNode>, Vec<NodeShares>) = frontier
            .into_iter()
            .zip(node_shares)
            .zip(&pruned)
            .filter_map(|(survivor, &stop)| (!stop).then_some(survivor))
            .unzip();
        let best: Vec<Share> = {
            let _gain = pivot_trace::phase_span("gain");
            let refs: Vec<&NodeShares> = stats.iter().collect();
            let gains = split_gains_batch(ctx, &refs);
            best_split_batch(ctx, &gains)
                .into_iter()
                .map(|(idx, _)| idx)
                .collect()
        };
        let survivors: Vec<Survivor<'_>> = live
            .into_iter()
            .zip(&stats)
            .zip(best)
            .map(|((node, stats), best)| Survivor { node, stats, best })
            .collect();
        // The mask rule: a child's mask is produced only if its own
        // statistics pass or its children's mask update will read it.
        let wanted = Sides {
            left: depth + 1 < max_depth,
            right: depth + 2 < max_depth,
        };
        frontier = protocol.settle_splits(ctx, local, layout, survivors, wanted, &mut arena);
        parents = stats;
        depth += 1;
        // Latency-hiding refill window: the nonce pool tops up between
        // levels while no protocol round is in flight, so the next level's
        // encryptions hit a warm pool.
        if !frontier.is_empty() {
            ctx.nonces.refill();
        }
        // Level barrier: every party reaches this point with identical
        // depth/frontier state, so the checkpoint sink (when installed)
        // snapshots the same ordinal everywhere.
        ctx.level_barrier(depth as u64);
    }
    renumber_postorder(arena, trees)
}

/// One statistics pass — label vectors, encrypted dot products, pooling —
/// and ONE Algorithm-2 conversion over the nodes that hold `masks`.
pub(crate) fn level_statistics(
    ctx: &mut PartyContext<'_>,
    local: &LocalSplits,
    layout: &SplitLayout,
    codec: &SlotCodec,
    label_plan: &PackedLabelPlan,
    masks: &[&mut NodeMask],
) -> Vec<NodeShares> {
    let per_node: Vec<PackedStats> = {
        let _stats = pivot_trace::phase_span("stats");
        let labels: Vec<PackedLabels<'_>> = masks
            .iter()
            .map(|mask| compute_packed_label_masks(ctx, mask, label_plan))
            .collect();
        labels
            .iter()
            .map(|packed| packed_pooled_statistics(ctx, layout, local, packed, codec))
            .collect()
    };
    let _conv = pivot_trace::phase_span("conversion");
    let (cts, used) = conversion_batch(&per_node);
    let started = std::time::Instant::now();
    let slot_shares = packed_ciphers_to_shares(ctx, codec, &cts, &used);
    ctx.metrics
        .add_time(Stage::MpcComputation, started.elapsed());
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

/// Rewrite the breadth-first arena into post-order (left subtree, right
/// subtree, node), one tree per root slot `0..trees` — the layout
/// `pivot_trees::train_tree` produces, so a released tree can be compared
/// with the plaintext oracle node for node.
fn renumber_postorder<N: ArenaNode>(mut arena: Arena<N>, trees: usize) -> Vec<(Vec<N>, usize)> {
    fn visit<N: ArenaNode>(arena: &mut Arena<N>, id: usize, out: &mut Vec<N>) -> usize {
        let mut node = arena[id]
            .take()
            .expect("every allocated node is settled and has one parent");
        if let Some((left, right)) = node.children() {
            let left = visit(arena, left, out);
            let right = visit(arena, right, out);
            node.set_children(left, right);
        }
        out.push(node);
        out.len() - 1
    }
    (0..trees)
        .map(|slot| {
            let mut out = Vec::new();
            let root = visit(&mut arena, slot, &mut out);
            (out, root)
        })
        .collect()
}
