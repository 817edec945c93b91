//! Pivot enhanced protocol training (§5.2): the released model conceals
//! split thresholds and leaf labels.
//!
//! Differences from the basic protocol, per node:
//!
//! * only the winning `(i*, j*)` block of the best split is revealed;
//!   `⟨s*⟩` stays secret and is expanded into an encrypted one-hot `[λ]`;
//! * the winner privately selects its split-indicator column via Theorem 2
//!   (`[v] = V ⊗ [λ]`) and the encrypted threshold via a homomorphic dot
//!   product with its candidate-value vector;
//! * the mask update follows Eqn (10): `[α]` is converted to shares
//!   (Algorithm 2) and every client contributes `⟨α_j⟩ᵢ ⊗ [v_j]`, summed
//!   at the winner — `O(n)` threshold decryptions per node, the cost that
//!   separates Pivot-Enhanced from Pivot-Basic in Figures 4–5;
//! * leaf labels are converted share→ciphertext instead of being opened.
//!
//! Everything else is the shared level-wise loop of `crate::trainer` over
//! the basic protocol's Paillier statistics pass; this file is the
//! enhanced protocol's side of its disclosure hooks, and the mask refresh
//! its pass runs before a multi-slot level.

use crate::config::{LabelSource, Protocol};
use crate::conversion::{
    packed_share_conversion, packed_share_conversion_groups, shares_to_ciphers,
};
use crate::gain::{concealed_columns_batch, reveal_blocks_batch};
use crate::gain::{NodeShares, NodeTotals};
use crate::masks::{initial_mask, Sides};
use crate::model::{ConcealedNode, ConcealedTree};
use crate::party::PartyContext;
use crate::stats::{LocalSplits, SplitLayout};
use crate::train_basic::{NodeMask, PaillierPass};
use crate::trainer::{
    allocate_children, children, grow_tree, Arena, ArenaNode, Disclosure, FrontierNode, Survivor,
};
use pivot_bignum::BigUint;
use pivot_mpc::{Fp, Share};
use pivot_paillier::{batch, vector, Ciphertext};
use pivot_trace::Counter;

/// Public offset added to fixed-point thresholds before encryption so the
/// PIR dot product only ever sees non-negative plaintexts (negative
/// encodings would wrap mod `N` and break the mod-`p` slack discipline).
pub fn threshold_offset_bits(ctx: &PartyContext<'_>) -> u32 {
    ctx.engine.cfg.int_bits - 2
}

/// Audited magnitude bound (in bits) on an Eqn-10 mask plaintext: after a
/// masked-product update, `[α'] = Σ_m ⟨α⟩·[v]` where each `⟨α⟩ < p` and
/// the PIR-selected `[v]` plaintext is a `≤ b`-term sum of λ-ciphertexts
/// each carrying `< m·p` slack — worst case `m²·b·p²` (the quadratic
/// slack behind the enhanced keysize floor).
fn eqn10_alpha_bound_bits(ctx: &PartyContext<'_>, layout: &SplitLayout) -> u32 {
    let m_p = BigUint::from_u128(Fp::share_sum_bound(ctx.parties()));
    let b = layout
        .counts
        .iter()
        .flat_map(|per_feature| per_feature.iter())
        .copied()
        .max()
        .unwrap_or(1)
        .max(1);
    let worst = &(&m_p * &m_p) * &BigUint::from_u64(b as u64);
    worst.bits()
}

/// Train a single concealed decision tree (enhanced protocol).
pub fn train(ctx: &mut PartyContext<'_>) -> ConcealedTree {
    assert_eq!(
        ctx.params.protocol,
        Protocol::Enhanced,
        "enhanced training requires Protocol::Enhanced parameters"
    );
    assert!(
        ctx.params.keysize >= 192,
        "enhanced protocol needs keysize ≥ 192 (Eqn-10 slack headroom)"
    );
    let mask = vec![true; ctx.num_samples()];
    let (local, layout) = {
        let _stats = pivot_trace::phase_span(&ctx.counters, "stats");
        let local = LocalSplits::precompute(ctx);
        let layout = SplitLayout::build(ctx.ep, &local.counts());
        (local, layout)
    };
    let roots = vec![NodeMask::Alpha(initial_mask(ctx, &mask, None).remove(0))];
    let mut pass = PaillierPass::new(ctx, LabelSource::of_task(ctx.current_task()), true);
    let (nodes, root) = grow_tree(ctx, &mut pass, &mut Conceal, &local, &layout, roots).remove(0);
    ConcealedTree {
        nodes,
        root,
        task: ctx.current_task(),
    }
}

impl ArenaNode for ConcealedNode {
    fn children(&self) -> Option<(usize, usize)> {
        match self {
            ConcealedNode::Leaf { .. } => None,
            ConcealedNode::Internal { left, right, .. } => Some((*left, *right)),
        }
    }

    fn set_children(&mut self, new_left: usize, new_right: usize) {
        if let ConcealedNode::Internal { left, right, .. } = self {
            (*left, *right) = (new_left, new_right);
        }
    }
}

/// Split `flat` back into consecutive vectors of the given lengths.
fn split_lengths<T>(flat: Vec<T>, lens: impl IntoIterator<Item = usize>) -> Vec<Vec<T>> {
    let mut flat = flat.into_iter();
    lens.into_iter()
        .map(|len| flat.by_ref().take(len).collect())
        .collect()
}

/// Eqn-10 masks carry *quadratic* mod-p slack (shares scaled by
/// slack-carrying PIR ciphertexts reach ~m²·b·p² — the reason for the
/// enhanced keysize floor). The slot-width audit budgets only the linear
/// `m·p` bound, so the Paillier pass linearizes the slack of the masks a
/// multi-slot level reads below the root: one batched share round-trip
/// re-encrypts them as plain share sums. The conversion packs under the
/// Eqn-10 bound, as the update's does — `⌈n/s⌉` decryptions and `n`
/// re-encryptions for `n` samples in `s` slots. Values are untouched mod
/// p, so the trained tree is unaffected; a slot that is the whole
/// plaintext needs no refresh, and neither does a mask only the next
/// Eqn-10 update reads (its conversion budgets the quadratic bound).
pub(crate) fn refresh_masks(
    ctx: &mut PartyContext<'_>,
    layout: &SplitLayout,
    masks: &mut [&mut NodeMask],
) {
    let _conv = pivot_trace::phase_span(&ctx.counters, "conversion");
    let lens: Vec<usize> = masks
        .iter_mut()
        .map(|mask| mask.alpha_mut().len())
        .collect();
    let flat: Vec<Ciphertext> = masks
        .iter_mut()
        .flat_map(|mask| mask.alpha_mut().drain(..))
        .collect();
    let shares = packed_share_conversion(ctx, &flat, eqn10_alpha_bound_bits(ctx, layout));
    let fresh = split_lengths(shares_to_ciphers(ctx, &shares), lens);
    for (mask, alpha) in masks.iter_mut().zip(fresh) {
        *mask.alpha_mut() = alpha;
    }
}

/// §5.2 disclosure: leaf labels are re-encrypted instead of opened, and of
/// a winning split only the `(i*, j*)` block becomes public — the split
/// index stays shared, the threshold encrypted, and the mask update runs
/// on ciphertexts and shares (Eqn 10).
struct Conceal;

impl Disclosure<PaillierPass> for Conceal {
    type Node = ConcealedNode;

    /// ONE share→ciphertext conversion for every leaf of the level.
    fn settle_leaves(
        &mut self,
        ctx: &mut PartyContext<'_>,
        slots: Vec<usize>,
        labels: Vec<Share>,
        arena: &mut Arena<ConcealedNode>,
    ) {
        for (slot, enc_value) in slots.into_iter().zip(shares_to_ciphers(ctx, &labels)) {
            arena[slot] = Some(ConcealedNode::Leaf { enc_value });
        }
    }

    fn settle_splits(
        &mut self,
        ctx: &mut PartyContext<'_>,
        _pass: &mut PaillierPass,
        local: &LocalSplits,
        layout: &SplitLayout,
        survivors: Vec<Survivor<'_, NodeMask>>,
        wanted: Sides<bool>,
        arena: &mut Arena<ConcealedNode>,
    ) -> Vec<FrontierNode<NodeMask>> {
        // Batched block reveal + one-hot expansion + ONE [λ] re-encryption
        // (§5.2 private split selection). The children's totals are the
        // winning column of the parent's statistics and its complement;
        // `s*` stays shared, so the column is picked by `⟨λ⟩`.
        let (blocks, lambda_encs, totals) = {
            let _reveal = pivot_trace::phase_span(&ctx.counters, "split_reveal");
            let best: Vec<Share> = survivors.iter().map(|s| s.best).collect();
            let blocks = reveal_blocks_batch(ctx, layout, &best);
            let items: Vec<(Share, usize)> = blocks
                .iter()
                .map(|&(w, f, s)| (s, layout.counts[w][f]))
                .collect();
            let lambdas = ctx.engine.onehot_many(&items);
            let winners: Vec<(&NodeShares, usize, &[Share])> = survivors
                .iter()
                .zip(&blocks)
                .zip(&lambdas)
                .map(|((s, &(w, f, _)), lambda)| (s.stats, layout.block(w, f).0, lambda.as_slice()))
                .collect();
            let totals: Vec<Sides<NodeTotals>> = concealed_columns_batch(ctx, &winners)
                .into_iter()
                .zip(&survivors)
                .map(|(left, s)| s.stats.child_totals(left))
                .collect();
            let lens: Vec<usize> = lambdas.iter().map(Vec::len).collect();
            let flat: Vec<Share> = lambdas.into_iter().flatten().collect();
            let lambda_encs = split_lengths(shares_to_ciphers(ctx, &flat), lens);
            (blocks, lambda_encs, totals)
        };

        // Per-winner PIR selection (coalesced broadcast frames).
        let (selections, released): (Vec<Selected>, Vec<(Ciphertext, usize)>) = {
            let _reveal = pivot_trace::phase_span(&ctx.counters, "split_reveal");
            blocks
                .iter()
                .zip(&lambda_encs)
                .map(|(&(winner, local_feature, _), lambda_enc)| {
                    let (selected, enc_threshold, feature_global) =
                        pir_select(ctx, local, winner, local_feature, lambda_enc, wanted);
                    (selected, (enc_threshold, feature_global))
                })
                .unzip()
        };

        // Eqn-10, where a child's mask is read: ONE share conversion for
        // every survivor's mask, then per-node masked products (the sides
        // wanted share one gather round).
        let _update = pivot_trace::phase_span(&ctx.counters, "update");
        let (slots, masks): (Vec<usize>, Vec<(bool, Option<NodeMask>)>) = survivors
            .into_iter()
            .map(|s| (s.node.slot, (s.node.totals.is_none(), s.node.mask)))
            .unzip();
        let child_alphas: Vec<Selected> = if wanted.any() {
            // A root's `[α]` is `initial_mask`'s fresh 0/1 encryption and
            // converts at bound 1; every other mask is an Eqn-10 product
            // and converts under its slack bound — which needs ~2·61-bit
            // slots, so it packs only at large keysizes and is a one-slot
            // group below them.
            let mut flat: [Vec<Ciphertext>; 2] = Default::default();
            let mut nodes = Vec::with_capacity(masks.len());
            for (root, mask) in masks {
                let mask = mask.expect("a node whose children read a mask holds one");
                let alpha = mask.into_alpha();
                nodes.push((usize::from(root), alpha.len()));
                flat[usize::from(root)].extend(alpha);
            }
            let groups = [
                (flat[0].as_slice(), eqn10_alpha_bound_bits(ctx, layout)),
                (flat[1].as_slice(), 1),
            ];
            let mut converted: Vec<_> = packed_share_conversion_groups(ctx, &groups)
                .into_iter()
                .map(Vec::into_iter)
                .collect();
            let alpha_shares: Vec<Vec<Share>> = nodes
                .iter()
                .map(|&(group, len)| converted[group].by_ref().take(len).collect())
                .collect();
            alpha_shares
                .iter()
                .zip(&selections)
                .zip(&blocks)
                .map(|((alpha_shares, selected), &(winner, _, _))| {
                    masked_products(ctx, alpha_shares, selected, winner)
                })
                .collect()
        } else {
            // The last split level: no column was selected, no mask is made.
            selections
        };

        let mut next = Vec::with_capacity(2 * slots.len());
        for ((((slot, alphas), (winner, _, _)), (enc_threshold, feature_global)), totals) in slots
            .into_iter()
            .zip(child_alphas)
            .zip(blocks)
            .zip(released)
            .zip(totals)
        {
            let child_slots = allocate_children(arena);
            arena[slot] = Some(ConcealedNode::Internal {
                client: winner,
                feature_global,
                enc_threshold,
                left: child_slots.0,
                right: child_slots.1,
            });
            let masks = alphas.map(|alpha| alpha.map(NodeMask::Alpha));
            next.extend(children(child_slots, totals, masks));
        }
        next
    }
}

/// The PIR-selected indicator columns `[v_l]`, `[v_r]` of one winner, on
/// the sides whose mask is wanted.
type Selected = Sides<Option<Vec<Ciphertext>>>;

/// §5.2 private split selection at the winner: Theorem-2 PIR selection of
/// the `wanted` split-indicator columns and the encrypted threshold,
/// broadcast to everyone.
fn pir_select(
    ctx: &mut PartyContext<'_>,
    local: &LocalSplits,
    winner: usize,
    local_feature: usize,
    lambda_enc: &[Ciphertext],
    wanted: Sides<bool>,
) -> (Selected, Ciphertext, usize) {
    if ctx.id() == winner {
        let inds = &local.indicators[local_feature];
        let n = ctx.view.num_samples();
        // Theorem-2 PIR selection per sample and side: independent
        // dot products, batched over the worker pool.
        let samples: Vec<usize> = (0..n).collect();
        let columns: Vec<Vec<Ciphertext>> = wanted
            .complements()
            .map(|complement| {
                pivot_runtime::global().map(ctx.crypto_threads(), &samples, |&j| {
                    let row: Vec<bool> = inds.iter().map(|ind| ind[j] != complement).collect();
                    vector::dot_binary(&ctx.pk, lambda_enc, &row)
                })
            })
            .collect();
        ctx.counters.add(
            Counter::CiphertextOps,
            (columns.len() * n * lambda_enc.len()) as u64,
        );
        let enc_vals: Vec<BigUint> = local.candidates[local_feature]
            .thresholds
            .iter()
            .map(|&t| encode_threshold(ctx, t))
            .collect();
        let enc_threshold = vector::dot_plain(&ctx.pk, lambda_enc, &enc_vals);
        let feature_global = ctx.view.feature_indices[local_feature];
        for column in &columns {
            ctx.ep.broadcast(column);
        }
        ctx.ep.broadcast(&enc_threshold);
        ctx.ep.broadcast(&feature_global);
        (wanted.fill(columns), enc_threshold, feature_global)
    } else {
        let selected = wanted.fill(wanted.complements().map(|_| ctx.ep.recv(winner)));
        let enc_threshold: Ciphertext = ctx.ep.recv(winner);
        let feature_global: usize = ctx.ep.recv(winner);
        (selected, enc_threshold, feature_global)
    }
}

/// Eqn (10), `[α'_j] = Σᵢ [⟨α_j⟩ᵢ · v_j]`: every client scales the encrypted
/// split indicator by its own share of `α`; the winner aggregates and
/// broadcasts. The children of one node share a single gather round — the
/// selected indicator vectors concatenate.
fn masked_products(
    ctx: &mut PartyContext<'_>,
    alpha_shares: &[Share],
    selected: &Selected,
    winner: usize,
) -> Selected {
    let wanted = Sides {
        left: selected.left.is_some(),
        right: selected.right.is_some(),
    };
    let threads = ctx.crypto_threads();
    let n = alpha_shares.len();
    let share_values: Vec<BigUint> = alpha_shares
        .iter()
        .map(|s| BigUint::from_u64(s.0.value()))
        .collect();
    let v: Vec<Ciphertext> = selected.present().flatten().cloned().collect();
    let repeated: Vec<BigUint> = selected
        .present()
        .flat_map(|_| share_values.iter().cloned())
        .collect();
    let my_terms = batch::mul_plain_batch(&ctx.pk, &v, &repeated, threads);
    ctx.counters
        .add(Counter::CiphertextOps, my_terms.len() as u64);
    let gathered = ctx.ep.gather(winner, &my_terms);
    let sums = if ctx.id() == winner {
        let parts = gathered.expect("winner gathers");
        let indices: Vec<usize> = (0..v.len()).collect();
        let sums: Vec<Ciphertext> = pivot_runtime::global().map(threads, &indices, |&j| {
            let mut acc = parts[0][j].clone();
            for part in parts.iter().skip(1) {
                acc = ctx.pk.add(&acc, &part[j]);
            }
            acc
        });
        ctx.counters
            .add(Counter::CiphertextOps, (v.len() * ctx.parties()) as u64);
        ctx.ep.broadcast(&sums);
        sums
    } else {
        ctx.ep.recv(winner)
    };
    wanted.fill(sums.chunks(n).map(<[Ciphertext]>::to_vec))
}

/// Encode a plaintext threshold for PIR selection: fixed-point plus the
/// public positivity offset.
fn encode_threshold(ctx: &PartyContext<'_>, threshold: f64) -> BigUint {
    let f = ctx.engine.cfg.frac_bits;
    let off_bits = threshold_offset_bits(ctx);
    let scaled = (threshold * (1u64 << f) as f64).round();
    assert!(
        scaled.abs() < (1u64 << off_bits) as f64,
        "threshold {threshold} overflows the fixed-point layout"
    );
    let with_offset = scaled + (1u64 << off_bits) as f64;
    BigUint::from_u64(with_offset as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PivotParams;
    use crate::decrypt::joint_decrypt_vec;
    use pivot_data::{partition_vertically, Dataset, Task};
    use pivot_transport::run_parties;

    #[test]
    fn refresh_converts_at_the_eqn10_width() {
        // m = 3 at keysize 512, b = 8 candidates: the Eqn-10 bound
        // (m·p)²·b has 129 bits, a slot holds it plus the offset and three
        // masks in 131, three slots per ciphertext. Every mask plaintext is
        // α + K·p with the largest K the bound admits.
        let params = PivotParams {
            keysize: 512,
            ..Default::default()
        };
        let (m, n) = (3, 10);
        let layout = SplitLayout::from_counts(vec![vec![8]; m]);
        let alpha: Vec<u64> = (0..n).map(|j| u64::from(j % 3 == 0)).collect();
        let data = Dataset::new(
            vec![vec![0.0; m]; 2],
            vec![0.0, 1.0],
            Task::Classification { classes: 2 },
        );
        let partition = partition_vertically(&data, m, 0);
        let p = BigUint::from_u128(Fp::share_sum_bound(1));
        let results = run_parties(m, |ep| {
            let mut ctx =
                PartyContext::setup(&ep, partition.views[ep.id()].clone(), params.clone());
            let bound = eqn10_alpha_bound_bits(&ctx, &layout);
            assert_eq!(bound, 129);
            let cts: Vec<Ciphertext> = alpha
                .iter()
                .map(|&a| {
                    let top = &BigUint::pow2(bound) - &BigUint::from_u64(a + 1);
                    let k = &top / &p;
                    let value = &(&k * &p) + &BigUint::from_u64(a);
                    assert!(value.bits() <= bound && (&value + &p).bits() > bound);
                    ctx.pk.encrypt_trivial(&value)
                })
                .collect();
            let before = ctx.counters.snapshot();
            let mut mask = NodeMask::Alpha(cts);
            refresh_masks(&mut ctx, &layout, &mut [&mut mask]);
            let after = ctx.counters.snapshot();
            let paid = |c: Counter| after[c] - before[c];
            assert_eq!(paid(Counter::ThresholdDecryptions), 4, "⌈10/3⌉ decryptions");
            assert_eq!(paid(Counter::Encryptions), 4 + 10, "masks, then shares");
            joint_decrypt_vec(&mut ctx, &mask.into_alpha())
        });
        let share_sum = BigUint::from_u128(Fp::share_sum_bound(m));
        for opened in &results {
            for (j, (v, &a)) in opened.iter().zip(&alpha).enumerate() {
                assert!(v < &share_sum, "sample {j}: slack beyond m·p");
                assert_eq!(v.rem_of(&p), BigUint::from_u64(a), "sample {j}");
            }
        }
    }
}
