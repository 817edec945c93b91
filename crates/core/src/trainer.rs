//! Algorithm 3 as one level-wise loop, shared by the basic (§4) and
//! enhanced (§5.2) protocols, the DP trees of §9.2 and the SPDZ-DT
//! baseline of §8.1.
//!
//! The whole tree frontier advances one depth at a time through batched
//! stages: one statistics pass, one prune comparison unit, one leaf-label
//! batch, one gain pipeline and one lockstep argmax per level, then the
//! checkpoint barrier. Statistics, comparisons and Beaver products are
//! exact, so the trained tree is the one a node-by-node recursion builds;
//! batching only cuts rounds.
//!
//! The caller supplies the statistics pass ([`LevelPass`]): how a level's
//! statistics are computed from the nodes' masks, and how a node's mask is
//! divided by a public winning split. The Pivot trainers supply the
//! Paillier pass (`crate::train_basic::PaillierPass`: label vectors,
//! encrypted dot products, pooling and one Algorithm-2 conversion over the
//! slots of the run's `SlotCodec`; the winner masks the vectors with its
//! plaintext indicator). SPDZ-DT supplies Beaver products against
//! secret-shared indicator columns (`crate::baselines::spdz_dt`). Nothing
//! below names a ciphertext or a slot layout.
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
//! share `max_depth`, the candidate splits, the split layout, the
//! [`LevelPass`] and the [`Disclosure`] — so there is no tree tag beside
//! the slot and no per-tree arena; [`renumber_postorder`] walks the shared
//! arena from each root slot in turn. A single tree is the one-root case;
//! the random forest of §7.1 (`W` bootstrap masks) and the `K` one-vs-rest
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
//!    its own statistics pass and its division by the node's winning
//!    split. With `h = max_depth`:
//!
//!    | child | own pass? | mask? |
//!    |---|---|---|
//!    | left, depth `d < h` | yes | yes |
//!    | right, depth `d < h − 1` | no (parent − left) | yes — its own division reads it |
//!    | right, depth `d = h − 1` | no (parent − left) | no |
//!    | either, depth `d = h` (forced leaf) | no | no |
//!
//!    So the last split level produces no mask at all, the level above it
//!    left masks only, and absence is a type ([`FrontierNode::mask`]).
//! 3. **The right sibling's statistics are parent − left, on shares.**
//!    Below the root only left children run a statistics pass; the
//!    previous level's survivors keep their [`NodeShares`] for one level
//!    and `right = parent.minus(&left)` is local. The left pass runs
//!    whenever the pair exists — also when the left child is then pruned,
//!    because its sibling's statistics come from it.
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
//! The trainers differ in what they disclose, and only there — the hooks
//! of [`Disclosure`]: the three per-node queries, each one batch per
//! level — prune, leaf label and best split; how a leaf label is settled
//! (opened vs re-encrypted); and how a winning split is settled (announced
//! vs concealed). The DP tree of §9.2 (`crate::dp`) is the basic protocol's
//! disclosure with noisy queries, and SPDZ-DT is the basic protocol's
//! disclosure over its own pass. A depth-forced leaf is asked the
//! leaf query, a pruned node prune then leaf, a split node prune then
//! split — what a node-by-node recursion asks each node.

use crate::gain::{
    best_split_batch, leaf_label_shares_batch, prune_decisions_batch, split_gains_batch,
    NodeShares, NodeTotals,
};
use crate::masks::Sides;
use crate::party::PartyContext;
use crate::stats::{LocalSplits, SplitLayout};
use pivot_mpc::Share;
use pivot_trace::Counter;

/// How a level's statistics are computed from the nodes' masks, and how a
/// node's mask is divided by a public winning split — the two places the
/// protocols grown here differ in what they compute rather than in what
/// they disclose.
pub(crate) trait LevelPass {
    /// What a node holds for its own statistics pass and its children's.
    type Mask;

    /// The statistics of the nodes holding `masks` (the roots at depth 0,
    /// below them the left children), in order.
    fn statistics(
        &mut self,
        ctx: &mut PartyContext<'_>,
        local: &LocalSplits,
        layout: &SplitLayout,
        depth: usize,
        masks: &mut [&mut Self::Mask],
    ) -> Vec<NodeShares>;

    /// The masks of the `wanted` children of a node that splits on the
    /// public global split index `global`.
    fn divide(
        &mut self,
        ctx: &mut PartyContext<'_>,
        local: &LocalSplits,
        layout: &SplitLayout,
        mask: Self::Mask,
        global: usize,
        wanted: Sides<bool>,
    ) -> Sides<Option<Self::Mask>>;
}

/// One unresolved node of the current level.
pub(crate) struct FrontierNode<M> {
    /// Its slot in the breadth-first arena.
    pub slot: usize,
    /// `(⟨n̄⟩, ⟨Σγ_k⟩)`, handed down by the parent's winning split; `None`
    /// for the root only, which learns them from its own statistics pass.
    pub totals: Option<NodeTotals>,
    /// `None` where nothing reads a mask (see the module's mask rule).
    pub mask: Option<M>,
}

/// A node that splits at this level, with what settling the split reads.
pub(crate) struct Survivor<'a, M> {
    pub node: FrontierNode<M>,
    /// Its statistics: column `s*` is its left child's totals.
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

/// The points where a protocol decides what becomes public, over the
/// statistics pass `P`.
pub(crate) trait Disclosure<P: LevelPass> {
    type Node: ArenaNode;

    /// The prune query: per frontier node, whether it has too few samples
    /// (or, where the protocol may leak that bit, is pure).
    fn prune(&self, ctx: &mut PartyContext<'_>, nodes: &[&NodeTotals]) -> Vec<bool> {
        prune_decisions_batch(ctx, nodes, false)
    }

    /// The leaf query: the label share of every node that stops.
    fn leaf_labels(&self, ctx: &mut PartyContext<'_>, nodes: &[&NodeTotals]) -> Vec<Share> {
        leaf_label_shares_batch(ctx, nodes)
    }

    /// The split query: per surviving node, `⟨s*⟩` from its gains.
    fn best_splits(&self, ctx: &mut PartyContext<'_>, gains: &[Vec<Share>]) -> Vec<Share> {
        best_split_batch(ctx, gains)
    }

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
    /// mask.
    #[allow(clippy::too_many_arguments)]
    fn settle_splits(
        &mut self,
        ctx: &mut PartyContext<'_>,
        pass: &mut P,
        local: &LocalSplits,
        layout: &SplitLayout,
        survivors: Vec<Survivor<'_, P::Mask>>,
        wanted: Sides<bool>,
        arena: &mut Arena<Self::Node>,
    ) -> Vec<FrontierNode<P::Mask>>;
}

/// Allocate the two child slots of a node that splits.
pub(crate) fn allocate_children<N>(arena: &mut Arena<N>) -> (usize, usize) {
    let left = arena.len();
    arena.push(None);
    arena.push(None);
    (left, left + 1)
}

/// The two children of a split, left before right.
pub(crate) fn children<M>(
    slots: (usize, usize),
    totals: Sides<NodeTotals>,
    masks: Sides<Option<M>>,
) -> [FrontierNode<M>; 2] {
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
pub(crate) fn grow_tree<P: LevelPass, D: Disclosure<P>>(
    ctx: &mut PartyContext<'_>,
    pass: &mut P,
    protocol: &mut D,
    local: &LocalSplits,
    layout: &SplitLayout,
    roots: Vec<P::Mask>,
) -> Vec<(Vec<D::Node>, usize)> {
    let max_depth = ctx.params.tree.max_depth;
    // Root `w` takes arena slot `w`.
    let trees = roots.len();
    let mut arena: Arena<D::Node> = roots.iter().map(|_| None).collect();
    let mut frontier: Vec<FrontierNode<P::Mask>> = roots
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
        // the totals it was handed: no statistics, one label batch.
        if depth >= max_depth {
            let _leaf = pivot_trace::phase_span("leaf");
            let (slots, totals): (Vec<usize>, Vec<&NodeTotals>) = frontier
                .iter()
                .map(|node| {
                    let totals = node.totals.as_ref();
                    (node.slot, totals.expect("max_depth ≥ 1: not a root"))
                })
                .unzip();
            let labels = protocol.leaf_labels(ctx, &totals);
            protocol.settle_leaves(ctx, slots, labels, &mut arena);
            protocol.flush_leaves(ctx, &mut arena);
            break;
        }
        let _level = pivot_trace::span_fn(|| format!("level {depth}"));
        let stats_start = ctx.counters.get(Counter::BytesSent);

        // ONE statistics pass for the level: every root's own, below them
        // the left children's — a right child's statistics are its
        // parent's minus its left sibling's.
        let node_shares: Vec<NodeShares> = {
            let mut passing: Vec<&mut P::Mask> = frontier
                .iter_mut()
                .step_by(if depth == 0 { 1 } else { 2 })
                .map(|node| node.mask.as_mut().expect("a pass reads its node's mask"))
                .collect();
            let passed = pass.statistics(ctx, local, layout, depth, &mut passing);
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
        let stats_bytes = ctx.counters.get(Counter::BytesSent) - stats_start;
        ctx.counters.add(Counter::StatsBytesSent, stats_bytes);

        // One prune unit for the frontier — unless no client has any
        // candidate split (public), which forces the roots.
        let pruned = if layout.total() == 0 {
            vec![true; frontier.len()]
        } else {
            let _gain = pivot_trace::phase_span("gain");
            let totals: Vec<&NodeTotals> = node_shares.iter().map(|s| &s.totals).collect();
            protocol.prune(ctx, &totals)
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
            let labels = protocol.leaf_labels(ctx, &stopped);
            protocol.settle_leaves(ctx, slots, labels, &mut arena);
        }

        // Survivors: gains and one lockstep argmax.
        let (live, stats): (Vec<FrontierNode<P::Mask>>, Vec<NodeShares>) = frontier
            .into_iter()
            .zip(node_shares)
            .zip(&pruned)
            .filter_map(|(survivor, &stop)| (!stop).then_some(survivor))
            .unzip();
        let best: Vec<Share> = {
            let _gain = pivot_trace::phase_span("gain");
            let refs: Vec<&NodeShares> = stats.iter().collect();
            let gains = split_gains_batch(ctx, &refs);
            protocol.best_splits(ctx, &gains)
        };
        let survivors: Vec<Survivor<'_, P::Mask>> = live
            .into_iter()
            .zip(&stats)
            .zip(best)
            .map(|((node, stats), best)| Survivor { node, stats, best })
            .collect();
        // The mask rule: a child's mask is produced only if its own
        // statistics pass or its children's mask division will read it.
        let wanted = Sides {
            left: depth + 1 < max_depth,
            right: depth + 2 < max_depth,
        };
        frontier = protocol.settle_splits(ctx, pass, local, layout, survivors, wanted, &mut arena);
        parents = stats;
        depth += 1;
        // Level barrier: every party reaches this point with identical
        // depth/frontier state, so the checkpoint sink (when installed)
        // snapshots the same ordinal everywhere.
        ctx.level_barrier(depth as u64);
    }
    renumber_postorder(arena, trees)
}

/// Rewrite the breadth-first arena into post-order (left subtree, right
/// subtree, node), one tree per root slot `0..trees` — the layout
/// `pivot_trees::train_tree` produces, so a released tree can be compared
/// with the plaintext oracle node for node.
pub(crate) fn renumber_postorder<N: ArenaNode>(
    mut arena: Arena<N>,
    trees: usize,
) -> Vec<(Vec<N>, usize)> {
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
