//! TPHE ↔ MPC conversions — the glue of the hybrid framework.
//!
//! * [`ciphers_to_shares`] is the paper's **Algorithm 2**: mask an
//!   encrypted value with every client's random term, threshold-decrypt the
//!   sum, and let each client keep the negation of its mask as its share.
//!   Extended here with a public offset so signed fixed-point plaintexts
//!   convert correctly.
//! * [`shares_to_ciphers`] is the reverse direction used by the enhanced
//!   protocol (§5.2): every client encrypts its own share and the
//!   ciphertexts are summed homomorphically. The result's plaintext may
//!   carry an additive multiple of the share modulus `p` (share sums wrap);
//!   every consumer reduces modulo `p` on the next conversion, so the slack
//!   is harmless — see [`crate::gain`], "Scale discipline".

use crate::decrypt::joint_decrypt_vec;
use crate::party::PartyContext;
use pivot_bignum::BigUint;
use pivot_mpc::{Fp, Share, MODULUS};
use pivot_paillier::{batch, vector, Ciphertext, SlotCodec};
use rand::Rng;

/// Reduce a decrypted plaintext into the share field, interpreting the
/// upper half of `Z_N` as negative (signed Paillier encoding).
pub fn plaintext_to_field(pk: &pivot_paillier::PublicKey, v: &BigUint) -> Fp {
    let p = BigUint::from_u64(MODULUS);
    if v > pk.half_n() {
        // negative: v = N - |x|  ⇒  x ≡ -(N - v) (mod p)
        let mag = pk.n() - v;
        -Fp::new(mag.rem_of(&p).to_u64().expect("reduced below p"))
    } else {
        Fp::new(v.rem_of(&p).to_u64().expect("reduced below p"))
    }
}

/// Algorithm 2 (batched): convert encrypted values into additive shares.
///
/// Plaintexts must be *signed integers of magnitude below `2^(int_bits-1)`*
/// modulo any slack multiple of the share modulus (see module docs). Each
/// client pays one encryption per value; the batch pays one joint
/// decryption per value — exactly the paper's `O(·) Cd` accounting.
pub fn ciphers_to_shares(ctx: &mut PartyContext<'_>, cts: &[Ciphertext]) -> Vec<Share> {
    if cts.is_empty() {
        return Vec::new();
    }
    let n = cts.len();
    let k = ctx.params.fixed.int_bits;
    let offset = BigUint::pow2(k - 1);

    // Every client draws rᵢ uniform in [0, p) and encrypts it (line 2).
    let my_masks: Vec<u64> = (0..n).map(|_| ctx.rng.gen_range(0..MODULUS)).collect();
    let mask_values: Vec<BigUint> = my_masks.iter().map(|&r| BigUint::from_u64(r)).collect();
    let threads = ctx.crypto_threads();
    let my_enc_masks = batch::encrypt_batch(&ctx.pk, &mask_values, &ctx.nonces, threads);
    ctx.metrics.add_encryptions(n as u64);

    // Exchange encrypted masks; everyone assembles [e] = [x + 2^(k-1) + Σ rᵢ]
    // (line 4, plus the signedness offset). The offset ciphertext is the
    // same public constant for every value — encode it once.
    // The exchange wait is CPU-idle: top up both offline pools.
    ctx.nonces.refill();
    ctx.engine.dealer_refill();
    let all_masks: Vec<Vec<Ciphertext>> = ctx.ep.exchange_all(&my_enc_masks);
    let enc_offset = ctx.pk.encrypt_trivial(&offset);
    let indices: Vec<usize> = (0..n).collect();
    let masked: Vec<Ciphertext> = pivot_runtime::global().map(threads, &indices, |&j| {
        let mut acc = ctx.pk.add(&cts[j], &enc_offset);
        for party_masks in &all_masks {
            acc = ctx.pk.add(&acc, &party_masks[j]);
        }
        acc
    });
    ctx.metrics
        .add_ciphertext_ops((n * (ctx.parties() + 1)) as u64);

    // Joint decryption (line 5) — integer e = x + 2^(k-1) + Σ rᵢ, no mod-N
    // wrap because N ≫ m·p + 2^k (checked in PivotParams::validate).
    let opened = joint_decrypt_vec(ctx, &masked);

    // Shares (lines 6–8): party 0 keeps e − r₀ − 2^(k-1); others keep −rᵢ.
    let p = BigUint::from_u64(MODULUS);
    opened
        .iter()
        .zip(&my_masks)
        .map(|(e, &r)| {
            let mine = if ctx.id() == 0 {
                let e_mod = Fp::new(e.rem_of(&p).to_u64().expect("reduced"));
                e_mod - Fp::new(r) - Fp::pow2(k - 1)
            } else {
                -Fp::new(r)
            };
            Share(mine)
        })
        .collect()
}

/// Algorithm 2 over **packed** ciphertexts: one threshold decryption
/// yields `used[i]` shares from ciphertext `i` (the packed-to-shares
/// unpack step). Every party masks every occupied slot with its own
/// uniform `r ∈ [0, p)` — the masks of one ciphertext are packed into a
/// single encryption, so the per-value mask-encryption and decryption
/// costs drop by the packing factor. The per-slot signedness offset
/// `2^(int_bits−1)` is added through one public packed constant, exactly
/// mirroring the scalar path.
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
    if cts.is_empty() {
        return Vec::new();
    }
    let n = cts.len();
    let k = ctx.params.fixed.int_bits;
    let offset = BigUint::pow2(k - 1);

    // Per-ciphertext packed masks: `used[i]` uniform draws, flat order.
    let my_masks: Vec<Vec<u64>> = used
        .iter()
        .map(|&u| (0..u).map(|_| ctx.rng.gen_range(0..MODULUS)).collect())
        .collect();
    let mask_plaintexts: Vec<BigUint> = my_masks
        .iter()
        .map(|row| {
            let vals: Vec<BigUint> = row.iter().map(|&r| BigUint::from_u64(r)).collect();
            codec.pack(&vals)
        })
        .collect();
    let threads = ctx.crypto_threads();
    let my_enc_masks = batch::encrypt_batch(&ctx.pk, &mask_plaintexts, &ctx.nonces, threads);
    ctx.metrics.add_encryptions(n as u64);

    // Exchange the packed masks; assemble [e] = [x + offsets + Σ rᵢ].
    ctx.nonces.refill();
    let all_masks: Vec<Vec<Ciphertext>> = ctx.ep.exchange_all(&my_enc_masks);
    // One public offset ciphertext per distinct occupancy.
    let max_used = used.iter().copied().max().unwrap_or(0);
    let enc_offsets: Vec<Ciphertext> = (0..=max_used)
        .map(|u| {
            ctx.pk
                .encrypt_trivial(&codec.pack(&vec![offset.clone(); u]))
        })
        .collect();
    let indices: Vec<usize> = (0..n).collect();
    let masked: Vec<Ciphertext> = pivot_runtime::global().map(threads, &indices, |&j| {
        let mut acc = ctx.pk.add(cts[j], &enc_offsets[used[j]]);
        for party_masks in &all_masks {
            acc = ctx.pk.add(&acc, &party_masks[j]);
        }
        acc
    });
    ctx.metrics
        .add_ciphertext_ops((n * (ctx.parties() + 1)) as u64);

    // One joint decryption per *packed* ciphertext.
    let opened = joint_decrypt_vec(ctx, &masked);

    // Unpack: slot s of ciphertext i opens to xᵢₛ + 2^(k−1) + Σ r; party 0
    // keeps e − r₀ − 2^(k−1) mod p, the others keep −r.
    let p = BigUint::from_u64(MODULUS);
    let offset_mod_p = Fp::pow2(k - 1);
    opened
        .iter()
        .zip(&my_masks)
        .zip(used)
        .map(|((e, masks), &u)| {
            let slots = codec.unpack(e, u);
            slots
                .into_iter()
                .zip(masks)
                .map(|(slot, &r)| {
                    let mine = if ctx.id() == 0 {
                        let e_mod = Fp::new(slot.rem_of(&p).to_u64().expect("reduced below p"));
                        e_mod - Fp::new(r) - offset_mod_p
                    } else {
                        -Fp::new(r)
                    };
                    Share(mine)
                })
                .collect()
        })
        .collect()
}

/// Algorithm 2 over **dynamically packed** scalar ciphertexts, with one
/// audited slot width per group.
///
/// Each group supplies a bound `2^bound_bits` on its plaintexts' signed
/// magnitude — *including* any mod-p slack the ciphertexts carry (§5.2
/// sums, Eqn-10 products). The conversion shift-adds as many scalars as
/// the audited width admits into each packed ciphertext before the usual
/// mask → threshold-decrypt → share dance, so one joint decryption yields
/// up to `slots` shares instead of one. All groups settle in a single
/// exchange and a single decryption round.
///
/// Slot audit: a slot accumulates `x + 2^bound_bits` (the signedness
/// offset is applied homomorphically *before* the shift-add, so negative
/// encodings `N − |x|` never borrow from a neighbour slot) plus every
/// party's conversion mask `< m·(p−1)`; the slot width is the bit length
/// of that worst case. Share semantics are identical to
/// [`ciphers_to_shares`]: values are recovered mod p, slack reduces away.
pub fn packed_share_conversion_groups(
    ctx: &mut PartyContext<'_>,
    groups: &[(&[Ciphertext], u32)],
) -> Vec<Vec<Share>> {
    let total: usize = groups.iter().map(|(cts, _)| cts.len()).sum();
    if total == 0 {
        return groups.iter().map(|_| Vec::new()).collect();
    }
    let threads = ctx.crypto_threads();
    let mask_bound = &BigUint::from_u64(ctx.parties() as u64) * &BigUint::from_u64(MODULUS - 1);

    // Audited codec per group, then the flat chunk list (group-major, so
    // unpacking below walks the same order).
    let codecs: Vec<SlotCodec> = groups
        .iter()
        .map(|&(_, bound_bits)| {
            let worst = &BigUint::pow2(bound_bits + 1) + &mask_bound;
            let slot_bits = worst.bits();
            let slots = SlotCodec::max_slots(ctx.params.keysize, slot_bits).max(1);
            SlotCodec::with_offset(slot_bits, slots, bound_bits)
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

    // Per-chunk packed masks, one encryption per packed ciphertext.
    let my_masks: Vec<Vec<u64>> = jobs
        .iter()
        .map(|(_, chunk)| {
            (0..chunk.len())
                .map(|_| ctx.rng.gen_range(0..MODULUS))
                .collect()
        })
        .collect();
    let mask_plaintexts: Vec<BigUint> = my_masks
        .iter()
        .zip(&jobs)
        .map(|(row, &(g, _))| {
            let vals: Vec<BigUint> = row.iter().map(|&r| BigUint::from_u64(r)).collect();
            codecs[g].pack(&vals)
        })
        .collect();
    let my_enc_masks = batch::encrypt_batch(&ctx.pk, &mask_plaintexts, &ctx.nonces, threads);
    ctx.metrics.add_encryptions(packed.len() as u64);

    // Exchange the packed masks; the wait is CPU-idle, top up the pools.
    ctx.nonces.refill();
    ctx.engine.dealer_refill();
    let all_masks: Vec<Vec<Ciphertext>> = ctx.ep.exchange_all(&my_enc_masks);
    let indices: Vec<usize> = (0..packed.len()).collect();
    let masked: Vec<Ciphertext> = pivot_runtime::global().map(threads, &indices, |&j| {
        let mut acc = packed[j].clone();
        for party_masks in &all_masks {
            acc = ctx.pk.add(&acc, &party_masks[j]);
        }
        acc
    });
    ctx.metrics
        .add_ciphertext_ops((packed.len() * ctx.parties()) as u64);

    // One joint decryption per *packed* ciphertext.
    let opened = joint_decrypt_vec(ctx, &masked);

    // Decode: slot ≡ x + 2^b + Σ r (mod p); party 0 subtracts its own
    // mask and the offset, the rest keep their mask negations.
    let p = BigUint::from_u64(MODULUS);
    let mut out: Vec<Vec<Share>> = groups
        .iter()
        .map(|(cts, _)| Vec::with_capacity(cts.len()))
        .collect();
    for ((e, masks), &(g, _)) in opened.iter().zip(&my_masks).zip(&jobs) {
        let codec = &codecs[g];
        let offset_mod_p = Fp::new(codec.offset().rem_of(&p).to_u64().expect("reduced below p"));
        for (slot, &r) in codec.unpack(e, masks.len()).into_iter().zip(masks) {
            let mine = if ctx.id() == 0 {
                let e_mod = Fp::new(slot.rem_of(&p).to_u64().expect("reduced below p"));
                e_mod - Fp::new(r) - offset_mod_p
            } else {
                -Fp::new(r)
            };
            out[g].push(Share(mine));
        }
    }
    out
}

/// Single-group [`packed_share_conversion_groups`]: pack `cts` under one
/// magnitude bound. Falls back to the scalar conversion when the audited
/// width admits fewer than two slots (packing would only add work).
pub fn packed_share_conversion(
    ctx: &mut PartyContext<'_>,
    cts: &[Ciphertext],
    bound_bits: u32,
) -> Vec<Share> {
    let mask_bound = &BigUint::from_u64(ctx.parties() as u64) * &BigUint::from_u64(MODULUS - 1);
    let worst = &BigUint::pow2(bound_bits + 1) + &mask_bound;
    if SlotCodec::max_slots(ctx.params.keysize, worst.bits()) < 2 {
        return ciphers_to_shares(ctx, cts);
    }
    packed_share_conversion_groups(ctx, &[(cts, bound_bits)])
        .pop()
        .expect("one group in, one group out")
}

/// §5.2 reverse conversion: every client encrypts its own share and the
/// ciphertexts are homomorphically summed. The plaintext equals the secret
/// plus a slack multiple of `p` below `m·p ≪ N`.
pub fn shares_to_ciphers(ctx: &mut PartyContext<'_>, shares: &[Share]) -> Vec<Ciphertext> {
    if shares.is_empty() {
        return Vec::new();
    }
    let share_values: Vec<BigUint> = shares
        .iter()
        .map(|s| BigUint::from_u64(s.0.value()))
        .collect();
    let threads = ctx.crypto_threads();
    let my_encs = batch::encrypt_batch(&ctx.pk, &share_values, &ctx.nonces, threads);
    ctx.metrics.add_encryptions(shares.len() as u64);
    ctx.nonces.refill();
    let all: Vec<Vec<Ciphertext>> = ctx.ep.exchange_all(&my_encs);
    ctx.metrics
        .add_ciphertext_ops((shares.len() * ctx.parties()) as u64);
    let indices: Vec<usize> = (0..shares.len()).collect();
    pivot_runtime::global().map(threads, &indices, |&j| {
        let mut acc = all[0][j].clone();
        for party in all.iter().skip(1) {
            acc = ctx.pk.add(&acc, &party[j]);
        }
        acc
    })
}
