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
//! Every encrypted vector here is a `crate::decrypt::Bounded` whose maker
//! sets its bound, mod-p slack included: 1 for the root's fresh `[α]`,
//! `m·p` for the share sums `[λ]` and a refreshed mask, `b·m·p` for a PIR
//! column over the layout's widest block `b`, and `m·p` times the column's
//! for an Eqn-10 product. Conversions pack under those bounds.
//!
//! Everything else is the shared level-wise loop of `crate::trainer` over
//! the basic protocol's Paillier statistics pass; this file is the
//! enhanced protocol's side of its disclosure hooks, and the mask refresh
//! its pass runs on masks above what their slots admit. A refreshed mask
//! keeps its shares, so each mask is converted once per level.

use crate::config::{LabelSource, Protocol};
use crate::conversion::{packed_share_conversion, shares_to_ciphers};
use crate::decrypt::Bounded;
use crate::gain::{concealed_columns_batch, reveal_blocks_batch};
use crate::gain::{NodeShares, NodeTotals};
use crate::masks::{initial_mask, plan_packed_labels, Sides};
use crate::model::{ConcealedNode, ConcealedTree};
use crate::party::PartyContext;
use crate::stats::{running_sums, LocalSplits, SplitLayout};
use crate::train_basic::{NodeMask, PaillierPass};
use crate::trainer::{
    allocate_children, children, grow_tree, Arena, ArenaNode, Disclosure, FrontierNode, Survivor,
};
use pivot_bignum::BigUint;
use pivot_mpc::{Fp, Share};
use pivot_paillier::{batch, vector, Ciphertext, PublicKey};
use pivot_trace::Counter;

/// Public offset added to fixed-point thresholds before encryption so the
/// PIR dot product only ever sees non-negative plaintexts (negative
/// encodings would wrap mod `N` and break the mod-`p` slack discipline).
pub fn threshold_offset_bits(ctx: &PartyContext<'_>) -> u32 {
    ctx.engine.cfg.int_bits - 2
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
    let alpha = Bounded::new(initial_mask(ctx, &mask, None).remove(0), BigUint::one());
    let roots = vec![NodeMask::Alpha {
        alpha,
        shares: None,
    }];
    let label_plan = plan_packed_labels(ctx, LabelSource::of_task(ctx.current_task()));
    let mut pass = PaillierPass { label_plan };
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

/// Each mask's shares of α: a refreshed mask's as it carries them, every
/// other mask's from ONE Algorithm-2 call. Those others share one bound —
/// the roots' 1, or the Eqn-10 product bound of the layout's widest block
/// — so they pack as one group.
fn alpha_shares(
    ctx: &mut PartyContext<'_>,
    masks: impl IntoIterator<Item = NodeMask>,
) -> Vec<Vec<Share>> {
    let mut pending = Bounded::new(Vec::new(), BigUint::one());
    let held: Vec<Result<Vec<Share>, usize>> = masks
        .into_iter()
        .map(|mask| {
            let NodeMask::Alpha { alpha, shares } = mask else {
                unreachable!("a carried stride divides by its indicator")
            };
            shares.ok_or_else(|| {
                let first = pending.cts.is_empty();
                debug_assert!(first || pending.bound == alpha.bound, "one bound per level");
                let len = alpha.cts.len();
                pending.bound = alpha.bound;
                pending.cts.extend(alpha.cts);
                len
            })
        })
        .collect();
    let mut converted = packed_share_conversion(ctx, &pending).into_iter();
    held.into_iter()
        .map(|held| held.unwrap_or_else(|len| converted.by_ref().take(len).collect()))
        .collect()
}

/// An Eqn-10 product carries *quadratic* mod-p slack: `m` shares below
/// `p` times a PIR column of `b·m·p` (the reason for the enhanced keysize
/// floor), where the slot-width audit budgets an `[α]` of `m·p`. So the
/// Paillier pass refreshes the masks it reads above that bound on a
/// multi-slot level: one batched share round-trip re-encrypts them as plain
/// share sums, bounded by `m·p`. The conversion packs under the masks' own
/// bound — `⌈n/s⌉` decryptions and `n` re-encryptions for `n` samples in
/// `s` slots — and each mask keeps its shares, which its Eqn-10 update
/// reads instead of converting the mask again. Values are untouched mod p,
/// so the trained tree is unaffected.
pub(crate) fn refresh_masks(ctx: &mut PartyContext<'_>, mut masks: Vec<&mut NodeMask>) {
    let _conv = pivot_trace::phase_span(&ctx.counters, "conversion");
    let stale = masks
        .iter_mut()
        .map(|mask| std::mem::replace(&mut **mask, NodeMask::Carried(Vec::new())));
    let shares = alpha_shares(ctx, stale);
    let alphas = shares_to_ciphers(ctx, &shares);
    for ((mask, alpha), shares) in masks.into_iter().zip(alphas).zip(shares) {
        *mask = NodeMask::Alpha {
            alpha,
            shares: Some(shares),
        };
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
        let leaves = shares_to_ciphers(ctx, &[labels]).remove(0);
        for (slot, enc_value) in slots.into_iter().zip(leaves.cts) {
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
            let lambda_encs = shares_to_ciphers(ctx, &lambdas);
            (blocks, lambda_encs, totals)
        };

        // Per-winner PIR selection (coalesced broadcast frames).
        let (selections, released): (Vec<Selected>, Vec<(Ciphertext, usize)>) = {
            let _reveal = pivot_trace::phase_span(&ctx.counters, "split_reveal");
            blocks
                .iter()
                .zip(&lambda_encs)
                .map(|(block, lambda_enc)| {
                    pir_select(ctx, local, layout, block, lambda_enc, wanted)
                })
                .unzip()
        };

        // Eqn-10, where a child's mask is read: the shares of every
        // survivor's α (at most ONE conversion, for the masks no refresh
        // converted), then per-node masked products (the sides wanted
        // share one gather round).
        let _update = pivot_trace::phase_span(&ctx.counters, "update");
        let (slots, masks): (Vec<usize>, Vec<Option<NodeMask>>) = survivors
            .into_iter()
            .map(|s| (s.node.slot, s.node.mask))
            .unzip();
        let child_alphas: Vec<Selected> = if wanted.any() {
            let masks = masks
                .into_iter()
                .map(|m| m.expect("a split node holds a mask"));
            alpha_shares(ctx, masks)
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
            let masks = alphas.map(|alpha| {
                alpha.map(|alpha| NodeMask::Alpha {
                    alpha,
                    shares: None,
                })
            });
            next.extend(children(child_slots, totals, masks));
        }
        next
    }
}

/// The PIR-selected indicator columns `[v_l]`, `[v_r]` of one winner, on
/// the sides whose mask is wanted.
type Selected = Sides<Option<Bounded>>;

/// §5.2 private split selection at the winner of `block`: Theorem-2 PIR
/// selection of the `wanted` split-indicator columns and the encrypted
/// threshold, with the winner's global feature, broadcast to everyone. A
/// column is bounded as if it summed the layout's widest block of `[λ]`,
/// so every column of a level packs at one width.
fn pir_select(
    ctx: &mut PartyContext<'_>,
    local: &LocalSplits,
    layout: &SplitLayout,
    &(winner, local_feature, _): &(usize, usize, Share),
    lambda_enc: &Bounded,
    wanted: Sides<bool>,
) -> (Selected, (Ciphertext, usize)) {
    let widest = layout.counts.concat().into_iter().fold(1, usize::max);
    let bound = &lambda_enc.bound * &BigUint::from_u64(widest as u64);
    let bounded = |cts| Bounded::new(cts, bound.clone());
    if ctx.id() == winner {
        // Split `s` sends sample `j` left iff `bucket_j ≤ s`: the left
        // column's entry is the suffix sum of `[λ]` from the sample's
        // bucket, the right column's the prefix sum below it.
        let buckets = &local.buckets[local_feature];
        let lambda = &lambda_enc.cts;
        let columns: Vec<Vec<Ciphertext>> = wanted
            .complements()
            .map(|complement| {
                let sums = match complement {
                    false => suffix_sums(&ctx.pk, lambda),
                    true => prefix_sums(&ctx.pk, lambda),
                };
                buckets.iter().map(|&b| sums[b as usize].clone()).collect()
            })
            .collect();
        ctx.counters.add(
            Counter::CiphertextOps,
            (columns.len() * lambda.len()) as u64,
        );
        let enc_vals: Vec<BigUint> = local.candidates[local_feature]
            .thresholds
            .iter()
            .map(|&t| encode_threshold(ctx, t))
            .collect();
        let enc_threshold = vector::dot_plain(&ctx.pk, &lambda_enc.cts, &enc_vals);
        let feature_global = ctx.view.feature_indices[local_feature];
        for column in &columns {
            ctx.ep.broadcast(column);
        }
        ctx.ep.broadcast(&enc_threshold);
        ctx.ep.broadcast(&feature_global);
        let selected = wanted.fill(columns.into_iter().map(bounded));
        (selected, (enc_threshold, feature_global))
    } else {
        let selected = wanted.fill(wanted.complements().map(|_| bounded(ctx.ep.recv(winner))));
        let enc_threshold: Ciphertext = ctx.ep.recv(winner);
        let feature_global: usize = ctx.ep.recv(winner);
        (selected, (enc_threshold, feature_global))
    }
}

/// `[Σ_{s<k} xₛ]` for every `k` in `0..=len`, one addition each.
fn prefix_sums(pk: &PublicKey, xs: &[Ciphertext]) -> Vec<Ciphertext> {
    let mut sums = vec![pk.trivial_zero().clone()];
    sums.extend(running_sums(pk, xs, (0..xs.len()).map(std::iter::once)));
    sums
}

/// `[Σ_{s≥k} xₛ]` for every `k` in `0..=len`, one addition each.
fn suffix_sums(pk: &PublicKey, xs: &[Ciphertext]) -> Vec<Ciphertext> {
    let mut sums = running_sums(pk, xs, (0..xs.len()).rev().map(std::iter::once));
    sums.reverse();
    sums.push(pk.trivial_zero().clone());
    sums
}

/// Eqn (10), `[α'_j] = Σᵢ [⟨α_j⟩ᵢ · v_j]`: every client scales the encrypted
/// split indicator by its own share of `α`; the winner aggregates and
/// broadcasts. The children of one node share a single gather round — the
/// selected indicator vectors concatenate. A child's mask is bounded by
/// `m·p` times its column's bound: `m` shares below `p` scale it.
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
    let v: Vec<Ciphertext> = selected.present().flat_map(|c| c.cts.clone()).collect();
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
            ctx.pk.add_all(parts.iter().map(|part| &part[j]))
        });
        ctx.counters
            .add(Counter::CiphertextOps, (v.len() * ctx.parties()) as u64);
        ctx.ep.broadcast(&sums);
        sums
    } else {
        ctx.ep.recv(winner)
    };
    let m_p = BigUint::from_u128(Fp::share_sum_bound(ctx.parties()));
    let products = sums.chunks(n).zip(selected.present());
    wanted.fill(products.map(|(sums, v)| Bounded::new(sums.to_vec(), &m_p * &v.bound)))
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

    /// `m` parties at `keysize` over a two-sample toy view, each running `f`.
    fn with_parties<T: Send>(
        m: usize,
        keysize: u32,
        f: impl Fn(&mut PartyContext<'_>) -> T + Sync,
    ) -> Vec<T> {
        let params = PivotParams {
            keysize,
            ..Default::default()
        };
        let data = Dataset::new(
            vec![vec![0.0; m]; 2],
            vec![0.0, 1.0],
            Task::Classification { classes: 2 },
        );
        let partition = partition_vertically(&data, m, 0);
        run_parties(m, |ep| {
            let mut ctx =
                PartyContext::setup(&ep, partition.views[ep.id()].clone(), params.clone());
            f(&mut ctx)
        })
    }

    /// Every producer behind an Eqn-10 product at its worst, over a layout
    /// of `b = 8` candidates per party: every share is `p − 1`, so `[λ]`
    /// opens to `m·(p − 1)`; the winner's left indicator column selects all
    /// 8 entries of it (its right column none); and each column is scaled
    /// by shares of `p − 1`. Returns `[λ]`, the columns and the products.
    fn worst_eqn10_products(ctx: &mut PartyContext<'_>) -> (Bounded, Selected, Selected) {
        let (b, n) = (8, ctx.view.num_samples());
        let top = Share(Fp::new((Fp::share_sum_bound(1) - 1) as u64));
        let layout = SplitLayout::from_counts(vec![vec![b]; ctx.parties()]);
        let local = LocalSplits {
            candidates: vec![pivot_data::SplitCandidates {
                thresholds: (0..b).map(|t| t as f64).collect(),
            }],
            // Bucket 0: every sample goes left of every split.
            buckets: vec![vec![0; n]],
        };
        let lambda = shares_to_ciphers(ctx, &[vec![top; b]]).remove(0);
        let both = Sides {
            left: true,
            right: true,
        };
        let (columns, _) = pir_select(ctx, &local, &layout, &(0, 0, top), &lambda, both);
        let products = masked_products(ctx, &vec![top; n], &columns, 0);
        (lambda, columns, products)
    }

    #[test]
    fn pir_columns_equal_per_sample_dot_products() {
        // b = 4 candidates, samples in every bucket 0..=4: each column
        // entry equals the binary dot product of `[λ]` with the sample's
        // row of the indicator matrix, on both sides.
        let b = 4;
        let buckets: Vec<u32> = vec![0, 4, 2, 1, 3, 2, 0, 4, 4, 1];
        with_parties(2, 256, |ctx| {
            let layout = SplitLayout::from_counts(vec![vec![b]; ctx.parties()]);
            let local = LocalSplits {
                candidates: vec![pivot_data::SplitCandidates {
                    thresholds: (0..b).map(|t| t as f64).collect(),
                }],
                buckets: vec![buckets.clone()],
            };
            // The same seed at every party: one `[λ]` for all.
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
            let cts = (1..=b as u64)
                .map(|v| ctx.pk.encrypt(&BigUint::from_u64(v), &mut rng))
                .collect();
            let lambda = Bounded::new(cts, BigUint::one());
            let both = Sides {
                left: true,
                right: true,
            };
            let before = ctx.counters.get(Counter::CiphertextOps);
            let block = (0, 0, Share(Fp::ZERO));
            let (columns, _) = pir_select(ctx, &local, &layout, &block, &lambda, both);
            let ops = ctx.counters.get(Counter::CiphertextOps) - before;
            assert_eq!(ops, if ctx.id() == 0 { 2 * b as u64 } else { 0 });
            let sides = [(columns.left, false), (columns.right, true)];
            for (column, complement) in sides {
                let column = column.expect("both sides wanted").cts;
                let indicators: Vec<Vec<bool>> = (0..b).map(|s| local.goes_left(0, s)).collect();
                let rows = (0..buckets.len()).map(|j| {
                    let row: Vec<bool> = indicators.iter().map(|v| v[j] != complement).collect();
                    vector::dot_binary(&ctx.pk, &lambda.cts, &row)
                });
                assert_eq!(column, rows.collect::<Vec<_>>(), "complement {complement}");
            }
        });
    }

    #[test]
    fn refresh_converts_at_the_eqn10_width() {
        // m = 3 at keysize 512, b = 8 candidates: an Eqn-10 product is
        // bounded by m·p times a column's 8·m·p, 129 bits; a slot holds it
        // plus the offset and three masks in 131, three slots per
        // ciphertext. Every mask plaintext is α + K·p with the largest K
        // the width admits.
        let (m, n) = (3, 10);
        let m_p = BigUint::from_u128(Fp::share_sum_bound(m));
        let alpha: Vec<u64> = (0..n).map(|j| u64::from(j % 3 == 0)).collect();
        let p = BigUint::from_u128(Fp::share_sum_bound(1));
        let results = with_parties(m, 512, |ctx| {
            let (_, _, products) = worst_eqn10_products(ctx);
            let bits = products.left.expect("left wanted").bound.bits();
            assert_eq!(bits, 129);
            let cts: Vec<Ciphertext> = alpha
                .iter()
                .map(|&a| {
                    let top = &BigUint::pow2(bits) - &BigUint::from_u64(a + 1);
                    let k = &top / &p;
                    let value = &(&k * &p) + &BigUint::from_u64(a);
                    assert!(value.bits() <= bits && (&value + &p).bits() > bits);
                    ctx.pk.encrypt_trivial(&value)
                })
                .collect();
            let paid = |ctx: &PartyContext<'_>, before: &pivot_trace::Snapshot, c: Counter| {
                ctx.counters.snapshot()[c] - before[c]
            };
            let before = ctx.counters.snapshot();
            let mut mask = NodeMask::Alpha {
                alpha: Bounded::below_pow2(cts, bits),
                shares: None,
            };
            refresh_masks(ctx, vec![&mut mask]);
            let decryptions = paid(ctx, &before, Counter::ThresholdDecryptions);
            assert_eq!(decryptions, 4, "⌈10/3⌉ decryptions");
            let encryptions = paid(ctx, &before, Counter::Encryptions);
            assert_eq!(encryptions, 4 + 10, "masks, then shares");
            let NodeMask::Alpha { alpha, shares } = mask else {
                unreachable!("a refresh keeps an [α]")
            };
            assert_eq!(alpha.bound, m_p, "a refreshed mask is a share sum");
            let carried = shares.clone().expect("a refresh keeps its shares");
            // The settle-level conversion reads the shares the refresh
            // kept: nothing is decrypted or encrypted again.
            let before = ctx.counters.snapshot();
            let refreshed = NodeMask::Alpha {
                alpha: alpha.clone(),
                shares,
            };
            let settled = alpha_shares(ctx, [refreshed]).remove(0);
            assert_eq!(paid(ctx, &before, Counter::ThresholdDecryptions), 0);
            assert_eq!(paid(ctx, &before, Counter::Encryptions), 0);
            assert_eq!(settled, carried);
            (joint_decrypt_vec(ctx, &alpha.cts), settled)
        });
        for (opened, _) in &results {
            for (j, (v, &a)) in opened.iter().zip(&alpha).enumerate() {
                assert!(v < &m_p, "sample {j}: slack beyond m·p");
                assert_eq!(v.rem_of(&p), BigUint::from_u64(a), "sample {j}");
            }
        }
        for (j, &a) in alpha.iter().enumerate() {
            let sum = results
                .iter()
                .fold(Fp::ZERO, |acc, (_, shares)| acc + shares[j].0);
            assert_eq!(sum, Fp::new(a), "carried shares of sample {j}");
        }
    }

    #[test]
    fn producers_stay_within_their_carried_bounds() {
        // m = 3 at keysize 512: `[λ]` from `shares_to_ciphers`, the PIR
        // columns `pir_select` bounds by the layout's widest block, and
        // their Eqn-10 products, each at its worst case, joint-decrypt to
        // values within the bound their producer carried.
        let m = 3;
        let results = with_parties(m, 512, |ctx| {
            let (lambda, columns, products) = worst_eqn10_products(ctx);
            let mut opened = vec![(joint_decrypt_vec(ctx, &lambda.cts), lambda.bound)];
            for side in columns.present().chain(products.present()) {
                opened.push((joint_decrypt_vec(ctx, &side.cts), side.bound.clone()));
            }
            opened
        });
        let m_p = BigUint::from_u128(Fp::share_sum_bound(m));
        let worst = BigUint::from_u128(Fp::share_sum_bound(m) - m as u128);
        let column = &worst * &BigUint::from_u64(8);
        for opened in &results {
            assert_eq!(opened.len(), 5, "[λ], two columns, two products");
            assert_eq!(opened[0].1, m_p, "[λ] is a share sum");
            assert_eq!(
                opened[1].1,
                &m_p * &BigUint::from_u64(8),
                "the widest block"
            );
            // The Eqn-10 bound keeps the width its conversion audits.
            assert_eq!(opened[3].1, &m_p * &opened[1].1);
            assert_eq!(opened[3].1.bits(), 129);
            for (values, bound) in opened {
                assert!(values.iter().all(|v| v <= bound), "within {bound:?}");
            }
            // The left side reaches each worst case.
            assert!(opened[0].0.iter().all(|v| v == &worst));
            assert!(opened[1].0.iter().all(|v| v == &column));
            assert!(opened[3].0.iter().all(|v| v == &(&worst * &column)));
        }
    }
}
