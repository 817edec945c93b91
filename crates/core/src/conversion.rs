//! TPHE ↔ MPC conversions — the glue of the hybrid framework.
//!
//! * **Algorithm 2**, ciphertexts → shares, exists once
//!   (`masked_shares`): mask an encrypted value with every client's
//!   random term, threshold-decrypt the sum, and let each client keep the
//!   negation of its mask as its share. A ciphertext is a row of slots
//!   (`pivot_paillier::SlotCodec`); every occupied slot is masked and
//!   becomes one share, so one joint decryption yields as many shares as
//!   the ciphertext has values. The paper's conversion is the one-slot
//!   case — a slot that is the whole plaintext — and the three entry
//!   points differ only in how the public signedness offset gets into the
//!   slots before the masks do: [`ciphers_to_shares`] (one slot),
//!   [`packed_ciphers_to_shares`] (ciphertexts already packed by the
//!   statistics pass), [`packed_share_conversion_groups`] (scalars
//!   shift-added under a per-group audited width).
//! * [`shares_to_ciphers`] is the reverse direction used by the enhanced
//!   protocol (§5.2): every client encrypts its own share and the
//!   ciphertexts are summed homomorphically. The result's plaintext may
//!   carry an additive multiple of the share modulus `p` (share sums wrap);
//!   every consumer reduces modulo `p` on the next conversion, so the slack
//!   is harmless — see [`crate::gain`], "Scale discipline". It too is the
//!   one-slot case of a conversion over slots, [`share_rows_to_ciphers`],
//!   which GBDT's residual vectors take (§7.2).

use crate::config::SlotPlan;
use crate::decrypt::joint_decrypt_vec;
use crate::party::PartyContext;
use pivot_bignum::BigUint;
use pivot_mpc::{Fp, Share, MODULUS};
use pivot_paillier::{batch, vector, Ciphertext, SlotCodec};
use rand::Rng;

/// The tail of Algorithm 2, shared by every entry point. `cts[i]` holds
/// `layouts[i].1` occupied slots of `layouts[i].0`, each slot a value plus
/// that codec's offset (so it is non-negative) plus any multiple of `p`,
/// and wide enough that `m` masks below `p` on top never carry. Returns
/// the shares of every slot's value, per ciphertext.
///
/// Each client pays one encryption and the batch one joint decryption per
/// *ciphertext* — the paper's `O(·) Cd` accounting divided by the
/// occupancy.
fn masked_shares(
    ctx: &mut PartyContext<'_>,
    cts: &[Ciphertext],
    layouts: &[(&SlotCodec, usize)],
) -> Vec<Vec<Share>> {
    assert_eq!(cts.len(), layouts.len(), "one layout per ciphertext");
    if cts.is_empty() {
        return Vec::new();
    }
    // Every client draws one uniform rᵢ ∈ [0, p) per occupied slot, flat
    // order; the masks of one ciphertext ride one encryption (line 2).
    let my_masks: Vec<Vec<u64>> = layouts
        .iter()
        .map(|&(_, used)| (0..used).map(|_| ctx.rng.gen_range(0..MODULUS)).collect())
        .collect();
    let mask_plaintexts: Vec<BigUint> = my_masks
        .iter()
        .zip(layouts)
        .map(|(row, (codec, _))| {
            let vals: Vec<BigUint> = row.iter().map(|&r| BigUint::from_u64(r)).collect();
            codec.pack(&vals)
        })
        .collect();
    let threads = ctx.crypto_threads();
    let my_enc_masks = batch::encrypt_batch(&ctx.pk, &mask_plaintexts, &ctx.nonces, threads);
    ctx.metrics.add_encryptions(cts.len() as u64);

    // Exchange the encrypted masks; everyone assembles [e] = [x + offset +
    // Σ rᵢ] per slot (line 4). The wait is CPU-idle: top up the nonce
    // pool.
    ctx.nonces.refill();
    let all_masks: Vec<Vec<Ciphertext>> = ctx.ep.exchange_all(&my_enc_masks);
    let indices: Vec<usize> = (0..cts.len()).collect();
    let masked: Vec<Ciphertext> = pivot_runtime::global().map(threads, &indices, |&j| {
        let mut acc = cts[j].clone();
        for party_masks in &all_masks {
            acc = ctx.pk.add(&acc, &party_masks[j]);
        }
        acc
    });
    ctx.metrics
        .add_ciphertext_ops((cts.len() * ctx.parties()) as u64);

    // Joint decryption (line 5) — an integer per slot, no mod-N wrap
    // because N ≫ m·p + offset (checked in PivotParams::validate).
    let opened = joint_decrypt_vec(ctx, &masked);

    // Shares (lines 6–8): party 0 keeps e − r₀ − offset mod p, the others
    // keep −rᵢ; slack reduces away.
    let p = BigUint::from_u64(MODULUS);
    let reduce = |v: &BigUint| Fp::new(v.rem_of(&p).to_u64().expect("reduced below p"));
    opened
        .iter()
        .zip(&my_masks)
        .zip(layouts)
        .map(|((e, masks), (codec, _))| {
            let offset = reduce(&codec.offset());
            codec
                .unpack(e, masks.len())
                .iter()
                .zip(masks)
                .map(|(slot, &r)| {
                    Share(if ctx.id() == 0 {
                        reduce(slot) - Fp::new(r) - offset
                    } else {
                        -Fp::new(r)
                    })
                })
                .collect()
        })
        .collect()
}

/// Algorithm 2 (batched) as the paper states it: one value per ciphertext.
///
/// Plaintexts must be *signed integers of magnitude below `2^(int_bits-1)`*
/// modulo any slack multiple of the share modulus (see module docs).
pub fn ciphers_to_shares(ctx: &mut PartyContext<'_>, cts: &[Ciphertext]) -> Vec<Share> {
    let codec = ctx.params.one_slot_codec();
    let cts: Vec<&Ciphertext> = cts.iter().collect();
    packed_ciphers_to_shares(ctx, &codec, &cts, &vec![1; cts.len()])
        .into_iter()
        .flatten()
        .collect()
}

/// Algorithm 2 over ciphertexts the statistics pass packed: ciphertext `i`
/// yields `used[i]` shares. The codec's per-slot signedness offset
/// (`2^(int_bits−1)` for every statistics layout) is added through one
/// public packed constant.
///
/// The slot-width audit (`PivotParams::slot_plan`) guarantees
/// `value + offset + m·(p−1) < 2^slot_bits`, so slot sums never carry.
pub fn packed_ciphers_to_shares(
    ctx: &mut PartyContext<'_>,
    codec: &SlotCodec,
    cts: &[&Ciphertext],
    used: &[usize],
) -> Vec<Vec<Share>> {
    assert_eq!(cts.len(), used.len(), "one slot count per ciphertext");
    // One public offset ciphertext per distinct occupancy.
    let max_used = used.iter().copied().max().unwrap_or(0);
    let enc_offsets: Vec<Ciphertext> = (0..=max_used)
        .map(|u| {
            ctx.pk
                .encrypt_trivial(&codec.pack(&vec![codec.offset(); u]))
        })
        .collect();
    let jobs: Vec<(&Ciphertext, usize)> = cts.iter().copied().zip(used.iter().copied()).collect();
    let offset_cts: Vec<Ciphertext> =
        pivot_runtime::global().map(ctx.crypto_threads(), &jobs, |&(ct, u)| {
            ctx.pk.add(ct, &enc_offsets[u])
        });
    ctx.metrics.add_ciphertext_ops(cts.len() as u64);
    let layouts: Vec<(&SlotCodec, usize)> = used.iter().map(|&u| (codec, u)).collect();
    masked_shares(ctx, &offset_cts, &layouts)
}

/// Algorithm 2 over **dynamically packed** scalar ciphertexts, with one
/// audited slot width per group.
///
/// Each group supplies a bound `2^bound_bits` on its plaintexts' signed
/// magnitude — *including* any mod-p slack the ciphertexts carry (§5.2
/// sums, Eqn-10 products). The conversion shift-adds as many scalars as
/// the audited width admits into each packed ciphertext, so one joint
/// decryption yields up to `slots` shares instead of one; a width the
/// keysize admits once is a one-slot group. All groups settle in a single
/// exchange and a single decryption round.
///
/// Slot audit: a slot accumulates `x + 2^bound_bits` (the signedness
/// offset is applied homomorphically *before* the shift-add, so negative
/// encodings `N − |x|` never borrow from a neighbour slot) plus every
/// party's conversion mask `< m·(p−1)`; the slot width is the bit length
/// of that worst case. Values are recovered mod p, slack reduces away.
pub fn packed_share_conversion_groups(
    ctx: &mut PartyContext<'_>,
    groups: &[(&[Ciphertext], u32)],
) -> Vec<Vec<Share>> {
    let total: usize = groups.iter().map(|(cts, _)| cts.len()).sum();
    let threads = ctx.crypto_threads();
    let mask_bound = &BigUint::from_u64(ctx.parties() as u64) * &BigUint::from_u64(MODULUS - 1);

    // Audited codec per group, then the flat chunk list (group-major, so
    // regrouping below walks the same order).
    let codecs: Vec<SlotCodec> = groups
        .iter()
        .map(|&(_, bound_bits)| {
            let worst = &BigUint::pow2(bound_bits + 1) + &mask_bound;
            let slot_bits = worst.bits();
            let plan = match SlotCodec::max_slots(ctx.params.keysize, slot_bits) {
                // One slot is the whole plaintext.
                0 | 1 => SlotPlan::whole_plaintext(ctx.params.keysize),
                slots => SlotPlan { slot_bits, slots },
            };
            SlotCodec::with_offset(plan.slot_bits, plan.slots, bound_bits)
        })
        .collect();
    let jobs: Vec<(usize, &[Ciphertext])> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, &(cts, _))| cts.chunks(codecs[g].slots()).map(move |c| (g, c)))
        .collect();

    // Offset every scalar into non-negative range, then shift-add each
    // chunk into one packed ciphertext (`Σ (cᵢ + [2^b]) · 2^(w·i)`).
    let packed: Vec<Ciphertext> = pivot_runtime::global().map(threads, &jobs, |&(g, chunk)| {
        let codec = &codecs[g];
        let enc_off = ctx.pk.encrypt_trivial(&codec.offset());
        let shifted: Vec<Ciphertext> = chunk.iter().map(|c| ctx.pk.add(c, &enc_off)).collect();
        let weights: Vec<BigUint> = (0..chunk.len()).map(|i| codec.shift_factor(i)).collect();
        vector::dot_plain(&ctx.pk, &shifted, &weights)
    });
    ctx.metrics.add_ciphertext_ops(2 * total as u64);

    let layouts: Vec<(&SlotCodec, usize)> = jobs
        .iter()
        .map(|&(g, chunk)| (&codecs[g], chunk.len()))
        .collect();
    let mut out: Vec<Vec<Share>> = groups
        .iter()
        .map(|(cts, _)| Vec::with_capacity(cts.len()))
        .collect();
    for (shares, &(g, _)) in masked_shares(ctx, &packed, &layouts).into_iter().zip(&jobs) {
        out[g].extend(shares);
    }
    out
}

/// Single-group [`packed_share_conversion_groups`]: pack `cts` under one
/// magnitude bound.
pub fn packed_share_conversion(
    ctx: &mut PartyContext<'_>,
    cts: &[Ciphertext],
    bound_bits: u32,
) -> Vec<Share> {
    packed_share_conversion_groups(ctx, &[(cts, bound_bits)])
        .pop()
        .expect("one group in, one group out")
}

/// §5.2 reverse conversion: every client encrypts its own share and the
/// ciphertexts are homomorphically summed. The plaintext equals the secret
/// plus a slack multiple of `p` below `m·p ≪ N`.
pub fn shares_to_ciphers(ctx: &mut PartyContext<'_>, shares: &[Share]) -> Vec<Ciphertext> {
    let codec = ctx.params.one_slot_codec();
    let rows: Vec<Vec<Share>> = shares.iter().map(|&s| vec![s]).collect();
    share_rows_to_ciphers(ctx, &codec, &rows)
}

/// The reverse conversion over the slots of `codec`: ciphertext `i` holds
/// the secrets of `rows[i]`, one per slot, each plus its own slack multiple
/// of `p` below `m·p` — the slot width must cover that (the share-sum case
/// of `PivotParams::slot_plan`). Each client pays one encryption per *row*.
pub fn share_rows_to_ciphers(
    ctx: &mut PartyContext<'_>,
    codec: &SlotCodec,
    rows: &[Vec<Share>],
) -> Vec<Ciphertext> {
    if rows.is_empty() {
        return Vec::new();
    }
    let share_values: Vec<Vec<BigUint>> = rows
        .iter()
        .map(|row| row.iter().map(|s| BigUint::from_u64(s.0.value())).collect())
        .collect();
    let threads = ctx.crypto_threads();
    let my_encs = codec.encrypt_rows(&ctx.pk, &share_values, &ctx.nonces, threads);
    ctx.metrics.add_encryptions(rows.len() as u64);
    ctx.nonces.refill();
    let all: Vec<Vec<Ciphertext>> = ctx.ep.exchange_all(&my_encs);
    ctx.metrics
        .add_ciphertext_ops((rows.len() * ctx.parties()) as u64);
    let indices: Vec<usize> = (0..rows.len()).collect();
    pivot_runtime::global().map(threads, &indices, |&j| {
        let mut acc = all[0][j].clone();
        for party in all.iter().skip(1) {
            acc = ctx.pk.add(&acc, &party[j]);
        }
        acc
    })
}
