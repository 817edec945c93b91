//! Algorithm 3 as one level-wise loop, shared by the basic (§4) and
//! enhanced (§5.2) protocols.
//!
//! The whole tree frontier advances one depth at a time through batched
//! stages: one statistics pass and one Algorithm-2 conversion, one prune
//! comparison unit, one leaf-label batch, one gain pipeline and one
//! lockstep argmax per level, then a dealer/nonce refill and the
//! checkpoint barrier. Statistics, comparisons and Beaver products are
//! exact, so the trained tree is the one a node-by-node recursion builds;
//! batching only cuts rounds.
//!
//! The two protocols differ in what they disclose, and only there — the
//! hooks of [`Disclosure`]: whether a mask refresh precedes packed
//! statistics, whether purity may be tested, how a leaf label is settled
//! (opened vs re-encrypted), and how a winning split is settled and the
//! masks updated (announced vs concealed).

use crate::conversion::{ciphers_to_shares, packed_ciphers_to_shares};
use crate::gain::{
    best_split_batch, convert_stats_batch, leaf_label_shares_batch, node_shares_from_packed,
    prune_decisions_batch, remove_totals_offset, split_gains_batch, NodeShares,
};
use crate::masks::{
    compute_label_masks, compute_packed_label_masks, plan_packed_labels, LabelMasks,
};
use crate::metrics::Stage;
use crate::party::PartyContext;
use crate::stats::{
    conversion_batch, packed_pooled_statistics, pooled_statistics, EncryptedStats, LocalSplits,
    PackedStats, SplitLayout,
};
use pivot_mpc::Share;
use pivot_paillier::{vector, Ciphertext, SlotCodec};
use std::borrow::Cow;

/// One unresolved node of the current level.
pub(crate) struct FrontierNode {
    /// Its slot in the breadth-first arena.
    pub slot: usize,
    /// The encrypted sample mask `[α]`.
    pub alpha: Vec<Ciphertext>,
    /// §7.2: the node-masked encrypted label vectors `[γ]` of a GBDT
    /// residual tree; `None` when the super client derives `[γ]` from its
    /// plaintext labels at every node.
    pub gammas: Option<Vec<Vec<Ciphertext>>>,
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

    /// Called on the frontier of every packed level below the root, before
    /// its statistics. Masks that carry more slack than the slot-width
    /// audit budgets are linearized here.
    fn refresh_masks(&mut self, _ctx: &mut PartyContext<'_>, _frontier: &mut [FrontierNode]) {}

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

    /// Settle the winning splits (`best[t]` is the shared global split
    /// index of `live[t]`): write the internal nodes, allocate their
    /// children and return them with their updated masks, left before
    /// right.
    fn settle_splits(
        &mut self,
        ctx: &mut PartyContext<'_>,
        local: &LocalSplits,
        layout: &SplitLayout,
        best: Vec<Share>,
        live: Vec<FrontierNode>,
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

/// Grow one tree from `root_alpha` and return its nodes in post-order
/// (left subtree, right subtree, node) with the root's index.
///
/// `codec` selects packed statistics; GBDT residual vectors carry mod-`p`
/// slack no slot-width audit covers, so callers pass `None` with them.
pub(crate) fn grow_tree<D: Disclosure>(
    ctx: &mut PartyContext<'_>,
    protocol: &mut D,
    local: &LocalSplits,
    layout: &SplitLayout,
    root_alpha: Vec<Ciphertext>,
    root_gammas: Option<Vec<Vec<Ciphertext>>>,
    codec: Option<&SlotCodec>,
) -> (Vec<D::Node>, usize) {
    // The packed label multipliers depend only on labels/task/codec —
    // built once here, reused by every node at every level.
    let label_plan = codec.map(|c| (c, plan_packed_labels(ctx, c)));
    let mut arena: Arena<D::Node> = vec![None];
    let mut frontier = vec![FrontierNode {
        slot: 0,
        alpha: root_alpha,
        gammas: root_gammas,
    }];
    let mut depth = 0;
    while !frontier.is_empty() {
        // Depth pruning is public; the remaining conditions are secure.
        if depth >= ctx.params.tree.max_depth || layout.total() == 0 {
            forced_leaves(ctx, protocol, &mut arena, &frontier);
            break;
        }
        let _level = pivot_trace::span_fn(|| format!("level {depth}"));
        let stats_start = ctx.ep.stats().bytes_sent();

        if codec.is_some() && depth > 0 {
            protocol.refresh_masks(ctx, &mut frontier);
        }

        // Statistics and ONE Algorithm-2 conversion for the level.
        let node_shares: Vec<NodeShares> = if let Some((codec, plan)) = &label_plan {
            let per_node: Vec<PackedStats> = {
                let _stats = pivot_trace::phase_span("stats");
                let labels: Vec<_> = frontier
                    .iter()
                    .map(|node| compute_packed_label_masks(ctx, &node.alpha, plan))
                    .collect();
                labels
                    .iter()
                    .map(|packed| packed_pooled_statistics(ctx, layout, local, packed, codec))
                    .collect()
            };
            let _conv = pivot_trace::phase_span("conversion");
            let (cts, used, spans) = conversion_batch(&per_node);
            let started = std::time::Instant::now();
            let slot_shares = packed_ciphers_to_shares(ctx, codec, &cts, &used);
            ctx.metrics
                .add_time(Stage::MpcComputation, started.elapsed());
            per_node
                .iter()
                .zip(spans)
                .map(|(ps, at)| {
                    let span = &slot_shares[at..at + ps.conversion_len()];
                    node_shares_from_packed(ctx, layout, ps, span)
                })
                .collect()
        } else {
            let encs: Vec<EncryptedStats> = {
                let _stats = pivot_trace::phase_span("stats");
                frontier
                    .iter()
                    .map(|node| {
                        let masks = label_masks(ctx, node);
                        pooled_statistics(ctx, layout, local, &node.alpha, &masks)
                    })
                    .collect()
            };
            let _conv = pivot_trace::phase_span("conversion");
            let refs: Vec<&EncryptedStats> = encs.iter().collect();
            convert_stats_batch(ctx, layout, &refs)
        };
        ctx.metrics
            .add_stats_bytes(ctx.ep.stats().bytes_sent() - stats_start);

        // One prune unit for the frontier.
        let pruned = {
            let _gain = pivot_trace::phase_span("gain");
            let refs: Vec<&NodeShares> = node_shares.iter().collect();
            prune_decisions_batch(ctx, &refs, protocol.purity_check())
        };

        // Pruned nodes: leaf labels in one batch.
        {
            let _leaf = pivot_trace::phase_span("leaf");
            let (slots, stopped): (Vec<usize>, Vec<&NodeShares>) = frontier
                .iter()
                .zip(&node_shares)
                .zip(&pruned)
                .filter_map(|((node, shares), &stop)| stop.then_some((node.slot, shares)))
                .unzip();
            let labels = leaf_label_shares_batch(ctx, &stopped);
            protocol.settle_leaves(ctx, slots, labels, &mut arena);
        }

        // Survivors: gains and one lockstep argmax.
        let best: Vec<Share> = {
            let _gain = pivot_trace::phase_span("gain");
            let survivors: Vec<&NodeShares> = node_shares
                .iter()
                .zip(&pruned)
                .filter_map(|(shares, &stop)| (!stop).then_some(shares))
                .collect();
            let gains = split_gains_batch(ctx, &survivors);
            best_split_batch(ctx, &gains)
                .into_iter()
                .map(|(idx, _)| idx)
                .collect()
        };
        let live: Vec<FrontierNode> = frontier
            .into_iter()
            .zip(&pruned)
            .filter_map(|(node, &stop)| (!stop).then_some(node))
            .collect();
        let live_count = live.len();
        frontier = protocol.settle_splits(ctx, local, layout, best, live, &mut arena);
        depth += 1;
        // Latency-hiding refill window: the dealer pool and decryption
        // nonce pool top up between levels while no protocol round is in
        // flight, so the next level's comparisons hit warm pools. The
        // dealer top-up is blocking and burst-sized — the next level
        // drains its whole preprocessing demand at once.
        if !frontier.is_empty() {
            ctx.engine
                .dealer_refill_blocking(frontier.len(), live_count.max(1));
            ctx.nonces.refill();
        }
        // Level barrier: every party reaches this point with identical
        // depth/frontier state, so the checkpoint sink (when installed)
        // snapshots the same ordinal everywhere.
        ctx.level_barrier(depth as u64);
    }
    renumber_postorder(arena)
}

/// A node's label vectors `[L]`: the GBDT residual vectors it carries, or
/// the super client's `β ⊙ [α]` broadcast.
fn label_masks<'a>(ctx: &mut PartyContext<'_>, node: &'a FrontierNode) -> LabelMasks<'a> {
    match &node.gammas {
        None => compute_label_masks(ctx, &node.alpha, true),
        // GBDT residual vectors are slack-positive share sums; they carry
        // no +1 offset (see ensemble::gbdt).
        Some(gammas) => LabelMasks {
            gammas: Cow::Borrowed(gammas),
            offset_encoded: false,
        },
    }
}

/// Depth-forced leaf level: only the node totals are needed — a handful
/// of values per node, where packing has nothing to amortize. Every
/// node's totals convert in one Algorithm-2 batch and every leaf label
/// settles in one round.
fn forced_leaves<D: Disclosure>(
    ctx: &mut PartyContext<'_>,
    protocol: &mut D,
    arena: &mut Arena<D::Node>,
    frontier: &[FrontierNode],
) {
    let _leaf = pivot_trace::phase_span("leaf");
    let stats_start = ctx.ep.stats().bytes_sent();
    let mut flat: Vec<Ciphertext> = Vec::new();
    // Per node: how many totals it contributed, and whether they carry
    // the regression offset.
    let mut shapes: Vec<(usize, bool)> = Vec::with_capacity(frontier.len());
    for node in frontier {
        let masks = label_masks(ctx, node);
        let all = vec![true; node.alpha.len()];
        flat.push(vector::dot_binary(&ctx.pk, &node.alpha, &all));
        for gamma in masks.gammas.iter() {
            flat.push(vector::dot_binary(&ctx.pk, gamma, &all));
        }
        let totals = 1 + masks.gammas.len();
        ctx.metrics
            .add_ciphertext_ops((node.alpha.len() * totals) as u64);
        shapes.push((totals, masks.offset_encoded));
    }
    let shares = ciphers_to_shares(ctx, &flat);
    ctx.metrics
        .add_stats_bytes(ctx.ep.stats().bytes_sent() - stats_start);

    let mut rest = shares.as_slice();
    let totals: Vec<NodeShares> = shapes
        .into_iter()
        .map(|(len, offset_encoded)| {
            let (chunk, tail) = rest.split_at(len);
            rest = tail;
            let mut node = NodeShares {
                n_l: Vec::new(),
                g_l: vec![Vec::new(); len - 1],
                n_total: chunk[0],
                g_totals: chunk[1..].to_vec(),
            };
            if offset_encoded {
                remove_totals_offset(ctx, &mut node);
            }
            node
        })
        .collect();
    let refs: Vec<&NodeShares> = totals.iter().collect();
    let labels = leaf_label_shares_batch(ctx, &refs);
    let slots = frontier.iter().map(|node| node.slot).collect();
    protocol.settle_leaves(ctx, slots, labels, arena);
    protocol.flush_leaves(ctx, arena);
}

/// Rewrite the breadth-first arena into post-order (left subtree, right
/// subtree, node) — the layout `pivot_trees::train_tree` produces, so a
/// released tree can be compared with the plaintext oracle node for node.
fn renumber_postorder<N: ArenaNode>(mut arena: Arena<N>) -> (Vec<N>, usize) {
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
    let mut out = Vec::with_capacity(arena.len());
    let root = visit(&mut arena, 0, &mut out);
    (out, root)
}
