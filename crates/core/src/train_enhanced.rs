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
//! Everything else is the shared level-wise loop of `crate::trainer`;
//! this file is the enhanced protocol's side of its disclosure hooks.

use crate::config::Protocol;
use crate::conversion::{ciphers_to_shares, packed_share_conversion, shares_to_ciphers};
use crate::gain::reveal_blocks_batch;
use crate::masks::initial_mask;
use crate::metrics::Stage;
use crate::model::{ConcealedNode, ConcealedTree};
use crate::party::PartyContext;
use crate::stats::{LocalSplits, SplitLayout};
use crate::trainer::{allocate_children, grow_tree, Arena, ArenaNode, Disclosure, FrontierNode};
use pivot_bignum::BigUint;
use pivot_mpc::Share;
use pivot_paillier::{batch, vector, Ciphertext};

/// Public offset added to fixed-point thresholds before encryption so the
/// PIR dot product only ever sees non-negative plaintexts (negative
/// encodings would wrap mod `N` and break the mod-`p` slack discipline).
pub fn threshold_offset_bits(ctx: &PartyContext<'_>) -> u32 {
    ctx.params.fixed.int_bits - 2
}

/// Audited magnitude bound (in bits) on an Eqn-10 mask plaintext: after a
/// masked-product update, `[α'] = Σ_m ⟨α⟩·[v]` where each `⟨α⟩ < p` and
/// the PIR-selected `[v]` plaintext is a `≤ b`-term sum of λ-ciphertexts
/// each carrying `< m·p` slack — worst case `m²·b·p²` (the quadratic
/// slack behind the enhanced keysize floor).
fn eqn10_alpha_bound_bits(ctx: &PartyContext<'_>, layout: &SplitLayout) -> u32 {
    let m = BigUint::from_u64(ctx.parties() as u64);
    let p = BigUint::from_u64(pivot_mpc::MODULUS);
    let b = layout
        .counts
        .iter()
        .flat_map(|per_feature| per_feature.iter())
        .copied()
        .max()
        .unwrap_or(1)
        .max(1);
    let worst = &(&(&m * &m) * &BigUint::from_u64(b as u64)) * &(&p * &p);
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
        let _setup = pivot_trace::phase_span("setup");
        let local = LocalSplits::precompute(ctx);
        let layout = SplitLayout::build(ctx.ep, &local.counts());
        (local, layout)
    };
    let alpha = initial_mask(ctx, &mask);
    let codec = ctx.packing_codec();
    let (nodes, root) = grow_tree(
        ctx,
        &mut Conceal,
        &local,
        &layout,
        alpha,
        None,
        codec.as_ref(),
    );
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

/// §5.2 disclosure: leaf labels are re-encrypted instead of opened, and of
/// a winning split only the `(i*, j*)` block becomes public — the split
/// index stays shared, the threshold encrypted, and the mask update runs
/// on ciphertexts and shares (Eqn 10).
struct Conceal;

impl Disclosure for Conceal {
    type Node = ConcealedNode;

    /// Eqn-10 masks carry *quadratic* mod-p slack (shares scaled by
    /// slack-carrying PIR ciphertexts reach ~m²·b·p² — the reason for the
    /// enhanced keysize floor). The slot-width audit budgets only the
    /// linear `m·p` bound, so packed levels first linearize the slack: one
    /// batched share round-trip re-encrypts every frontier mask as a plain
    /// share sum. Values are untouched mod p, so the trained tree is
    /// unaffected; the scalar conversion needs no refresh.
    fn refresh_masks(&mut self, ctx: &mut PartyContext<'_>, frontier: &mut [FrontierNode]) {
        let _conv = pivot_trace::phase_span("conversion");
        let lens: Vec<usize> = frontier.iter().map(|node| node.alpha.len()).collect();
        let flat: Vec<Ciphertext> = frontier
            .iter_mut()
            .flat_map(|node| node.alpha.drain(..))
            .collect();
        let shares = ciphers_to_shares(ctx, &flat);
        let fresh = split_lengths(shares_to_ciphers(ctx, &shares), lens);
        for (node, alpha) in frontier.iter_mut().zip(fresh) {
            node.alpha = alpha;
        }
    }

    /// No purity check: it would leak a bit about the concealed labels.
    fn purity_check(&self) -> bool {
        false
    }

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
        local: &LocalSplits,
        layout: &SplitLayout,
        best: Vec<Share>,
        live: Vec<FrontierNode>,
        arena: &mut Arena<ConcealedNode>,
    ) -> Vec<FrontierNode> {
        // Batched block reveal + one-hot expansion + ONE [λ] re-encryption
        // (§5.2 private split selection).
        let (blocks, lambda_encs) = {
            let _reveal = pivot_trace::phase_span("split_reveal");
            let blocks = reveal_blocks_batch(ctx, layout, &best);
            let items: Vec<(Share, usize)> = blocks
                .iter()
                .map(|&(w, f, s)| (s, layout.counts[w][f]))
                .collect();
            let lambdas = ctx
                .metrics
                .time(Stage::MpcComputation, || ctx.engine.onehot_many(&items));
            let lens: Vec<usize> = lambdas.iter().map(Vec::len).collect();
            let flat: Vec<Share> = lambdas.into_iter().flatten().collect();
            let lambda_encs = split_lengths(shares_to_ciphers(ctx, &flat), lens);
            (blocks, lambda_encs)
        };

        // Per-winner PIR selection (coalesced broadcast frames).
        let headers: Vec<(Vec<Ciphertext>, Vec<Ciphertext>, Ciphertext, usize)> = {
            let _reveal = pivot_trace::phase_span("split_reveal");
            blocks
                .iter()
                .zip(&lambda_encs)
                .map(|(&(winner, local_feature, _), lambda_enc)| {
                    let n_splits = layout.counts[winner][local_feature];
                    pir_select(ctx, local, winner, local_feature, n_splits, lambda_enc)
                })
                .collect()
        };

        // Eqn-10: ONE share conversion for every survivor's mask, then
        // per-node masked products (both sides share one gather round).
        let _update = pivot_trace::phase_span("update");
        let mut slots = Vec::with_capacity(live.len());
        let mut lens = Vec::with_capacity(live.len());
        let mut flat: Vec<Ciphertext> = Vec::new();
        for node in live {
            slots.push(node.slot);
            lens.push(node.alpha.len());
            flat.extend(node.alpha);
        }
        let all_shares = if flat.is_empty() {
            Vec::new()
        } else {
            // Packed under the Eqn-10 slack bound: only pays off at large
            // keysizes (the quadratic slack needs ~2·61-bit slots), and
            // degrades to the scalar conversion otherwise.
            packed_share_conversion(ctx, &flat, eqn10_alpha_bound_bits(ctx, layout))
        };
        let mut next = Vec::with_capacity(2 * slots.len());
        let mut rest = all_shares.as_slice();
        for (((slot, len), (winner, _, _)), header) in
            slots.into_iter().zip(lens).zip(blocks).zip(headers)
        {
            let (alpha_shares, tail) = rest.split_at(len);
            rest = tail;
            let (v_l, v_r, enc_threshold, feature_global) = header;
            let (alpha_l, alpha_r) = masked_product_pair(ctx, alpha_shares, &v_l, &v_r, winner);
            let (left, right) = allocate_children(arena);
            arena[slot] = Some(ConcealedNode::Internal {
                client: winner,
                feature_global,
                enc_threshold,
                left,
                right,
            });
            for (slot, alpha) in [(left, alpha_l), (right, alpha_r)] {
                next.push(FrontierNode {
                    slot,
                    alpha,
                    gammas: None,
                });
            }
        }
        next
    }
}

/// §5.2 private split selection at the winner: Theorem-2 PIR selection of
/// the split-indicator columns `[v_l]`, `[v_r]` and the encrypted
/// threshold, broadcast to everyone.
fn pir_select(
    ctx: &mut PartyContext<'_>,
    local: &LocalSplits,
    winner: usize,
    local_feature: usize,
    n_splits: usize,
    lambda_enc: &[Ciphertext],
) -> (Vec<Ciphertext>, Vec<Ciphertext>, Ciphertext, usize) {
    ctx.metrics.time(Stage::ModelUpdate, || {
        if ctx.id() == winner {
            let inds = &local.indicators[local_feature];
            let n = ctx.view.num_samples();
            // Theorem-2 PIR selection per sample: independent dot
            // products, batched over the worker pool.
            let samples: Vec<usize> = (0..n).collect();
            let pairs: Vec<(Ciphertext, Ciphertext)> =
                pivot_runtime::global().map(ctx.crypto_threads(), &samples, |&j| {
                    let row: Vec<bool> = (0..n_splits).map(|t| inds[t][j]).collect();
                    let comp: Vec<bool> = row.iter().map(|&b| !b).collect();
                    (
                        vector::dot_binary(&ctx.pk, lambda_enc, &row),
                        vector::dot_binary(&ctx.pk, lambda_enc, &comp),
                    )
                });
            let (v_l, v_r): (Vec<Ciphertext>, Vec<Ciphertext>) = pairs.into_iter().unzip();
            ctx.metrics.add_ciphertext_ops((2 * n * n_splits) as u64);
            let enc_vals: Vec<BigUint> = local.candidates[local_feature]
                .thresholds
                .iter()
                .map(|&t| encode_threshold(ctx, t))
                .collect();
            let enc_threshold = vector::dot_plain(&ctx.pk, lambda_enc, &enc_vals);
            let feature_global = ctx.view.feature_indices[local_feature];
            ctx.ep.broadcast(&v_l);
            ctx.ep.broadcast(&v_r);
            ctx.ep.broadcast(&enc_threshold);
            ctx.ep.broadcast(&feature_global);
            (v_l, v_r, enc_threshold, feature_global)
        } else {
            let v_l: Vec<Ciphertext> = ctx.ep.recv(winner);
            let v_r: Vec<Ciphertext> = ctx.ep.recv(winner);
            let enc_threshold: Ciphertext = ctx.ep.recv(winner);
            let feature_global: usize = ctx.ep.recv(winner);
            (v_l, v_r, enc_threshold, feature_global)
        }
    })
}

/// Eqn (10), `[α'_j] = Σᵢ [⟨α_j⟩ᵢ · v_j]`: every client scales the encrypted
/// split indicator by its own share of `α`; the winner aggregates and
/// broadcasts. Both children of one node share a single gather round — the
/// left and right indicator vectors concatenate.
fn masked_product_pair(
    ctx: &mut PartyContext<'_>,
    alpha_shares: &[Share],
    v_l: &[Ciphertext],
    v_r: &[Ciphertext],
    winner: usize,
) -> (Vec<Ciphertext>, Vec<Ciphertext>) {
    ctx.metrics.time(Stage::ModelUpdate, || {
        let threads = ctx.crypto_threads();
        let n = alpha_shares.len();
        let share_values: Vec<BigUint> = alpha_shares
            .iter()
            .map(|s| BigUint::from_u64(s.0.value()))
            .collect();
        let v: Vec<Ciphertext> = v_l.iter().chain(v_r.iter()).cloned().collect();
        let doubled: Vec<BigUint> = share_values
            .iter()
            .chain(share_values.iter())
            .cloned()
            .collect();
        let my_terms = batch::mul_plain_batch(&ctx.pk, &v, &doubled, threads);
        ctx.metrics.add_ciphertext_ops(my_terms.len() as u64);
        // The gather wait is CPU-idle: top up the offline pools.
        ctx.nonces.refill();
        ctx.engine.dealer_refill();
        let gathered = ctx.ep.gather(winner, &my_terms);
        let sums = if ctx.id() == winner {
            let parts = gathered.expect("winner gathers");
            let indices: Vec<usize> = (0..2 * n).collect();
            let sums: Vec<Ciphertext> = pivot_runtime::global().map(threads, &indices, |&j| {
                let mut acc = parts[0][j].clone();
                for part in parts.iter().skip(1) {
                    acc = ctx.pk.add(&acc, &part[j]);
                }
                acc
            });
            ctx.metrics
                .add_ciphertext_ops((2 * n * ctx.parties()) as u64);
            ctx.ep.broadcast(&sums);
            sums
        } else {
            ctx.ep.recv(winner)
        };
        let (l, r) = sums.split_at(n);
        (l.to_vec(), r.to_vec())
    })
}

/// Encode a plaintext threshold for PIR selection: fixed-point plus the
/// public positivity offset.
fn encode_threshold(ctx: &PartyContext<'_>, threshold: f64) -> BigUint {
    let f = ctx.params.fixed.frac_bits;
    let off_bits = threshold_offset_bits(ctx);
    let scaled = (threshold * (1u64 << f) as f64).round();
    assert!(
        scaled.abs() < (1u64 << off_bits) as f64,
        "threshold {threshold} overflows the fixed-point layout"
    );
    let with_offset = scaled + (1u64 << off_bits) as f64;
    BigUint::from_u64(with_offset as u64)
}
