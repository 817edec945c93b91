//! NPD-DT: the non-private distributed baseline (§8.1). The super client
//! broadcasts the plaintext labels once; from then on every client holds
//! the labels and every node's sample set, and runs the plaintext CART
//! trainer ([`pivot_trees::CartTrainer`]) on its own columns.
//!
//! The tree grows level by level, like Pivot's, with ONE `exchange_all` per
//! level: for every frontier node, each client proposes its best split —
//! its score, and the feature, threshold and left sample set it would
//! announce if it won. Every client then takes the first maximal score in
//! global split order and reads the winner's announcement from the same
//! exchange. Pruning and leaf values cost no traffic: every client
//! evaluates them on the labels. Training a depth-`h` tree therefore sends
//! at most `(m − 1)(1 + h)` messages per client (the label broadcast is
//! the super client's), on top of the `2(m − 1)` of `PartyContext::setup`.
//!
//! Per split the wire carries at most its score
//! ([`CartTrainer::split_score`]), never the statistics it is computed
//! from: both are non-private, and the score is what the argmax reads. The
//! scores, the purity test and the leaf values are the oracle's own, and
//! the argmax takes the first maximum in global split order, as the oracle
//! does — so the tree equals [`pivot_trees::train_tree`]'s by
//! construction, a correctness oracle for the distributed machinery.

use crate::party::PartyContext;
use crate::trainer::{allocate_children, renumber_postorder, Arena};
use pivot_data::Dataset;
use pivot_trees::{CartTrainer, DecisionTree, Node};

/// A client's best split of one node: its score, then the global feature
/// id, threshold and the node's samples that go left.
type Proposal = (f64, (usize, f64, Vec<bool>));

/// Train the non-private distributed tree.
pub fn train(ctx: &mut PartyContext<'_>) -> DecisionTree {
    // Labels are broadcast in plaintext — the whole point of the baseline.
    let labels: Vec<f64> = {
        let _stats = pivot_trace::phase_span(&ctx.counters, "stats");
        if ctx.is_super_client() {
            let labels = ctx.view.labels.clone().expect("super client labels");
            ctx.ep.broadcast(&labels);
            labels
        } else {
            ctx.ep.recv(ctx.super_client)
        }
    };
    let data = Dataset::new(ctx.view.features.clone(), labels, ctx.current_task());
    let cart = CartTrainer::new(&data, ctx.params.tree.clone());

    let mut arena: Arena<Node> = vec![None];
    let mut frontier: Vec<(usize, Vec<bool>)> = vec![(0, vec![true; data.num_samples()])];
    let mut depth = 0;
    while !frontier.is_empty() {
        let (stopped, live): (Vec<_>, Vec<_>) = frontier
            .into_iter()
            .partition(|(_, mask)| cart.stops(mask, depth));
        for (slot, mask) in stopped {
            arena[slot] = Some(Node::Leaf {
                value: cart.leaf_value(&mask),
            });
        }
        if live.is_empty() {
            break;
        }
        // `proposals[client][node]`.
        let proposals: Vec<Vec<Option<Proposal>>> = {
            let _stats = pivot_trace::phase_span(&ctx.counters, "stats");
            let mine: Vec<Option<Proposal>> = live
                .iter()
                .map(|(_, mask)| propose(ctx, &cart, mask))
                .collect();
            ctx.ep.exchange_all(&mine)
        };

        frontier = Vec::with_capacity(2 * live.len());
        for (t, (slot, mask)) in live.into_iter().enumerate() {
            // The first maximum over clients in order: each proposal is
            // its client's first maximum, in global split order.
            let best = proposals
                .iter()
                .filter_map(|client| client[t].as_ref())
                .reduce(|best, next| if next.0 > best.0 { next } else { best });
            let Some((_, (feature, threshold, left))) = best.cloned() else {
                arena[slot] = Some(Node::Leaf {
                    value: cart.leaf_value(&mask),
                });
                continue;
            };
            let right = mask.iter().zip(&left).map(|(&m, &l)| m && !l).collect();
            let slots = allocate_children(&mut arena);
            arena[slot] = Some(Node::Internal {
                feature,
                threshold,
                left: slots.0,
                right: slots.1,
            });
            frontier.extend([(slots.0, left), (slots.1, right)]);
        }
        depth += 1;
    }
    let (nodes, root) = renumber_postorder(arena, 1).remove(0);
    DecisionTree::new(nodes, root, ctx.current_task())
}

/// This client's best valid split of the node holding `mask` — its first
/// maximal score in local split order — or `None` when it has none (an
/// invalid split scores `−1`).
fn propose(ctx: &PartyContext<'_>, cart: &CartTrainer<'_>, mask: &[bool]) -> Option<Proposal> {
    let (score, f, threshold) = cart
        .candidates()
        .iter()
        .enumerate()
        .flat_map(|(f, c)| c.thresholds.iter().map(move |&t| (f, t)))
        .map(|(f, t)| (cart.split_score(mask, f, t), f, t))
        .filter(|&(score, _, _)| score >= 0.0)
        .reduce(|best, next| if next.0 > best.0 { next } else { best })?;
    let column = ctx.view.column(f);
    let left = mask
        .iter()
        .zip(&column)
        .map(|(&m, &x)| m && x <= threshold)
        .collect();
    Some((score, (ctx.view.feature_indices[f], threshold, left)))
}
