//! Joint threshold decryption: every client contributes a partial
//! decryption, partials are exchanged, and each client combines locally.
//! This is the paper's `Cd` operation — the dominant cost of both
//! protocols — and the operation the `-PP` variants parallelize across
//! ciphertexts (§8.3: "parallelism for threshold decryption of multiple
//! ciphertexts with 6 cores").
//!
//! Both phases run on the shared worker pool ([`pivot_paillier::batch`],
//! `Combiner::combine_batch`), with one network exchange between them. The
//! partial decryptions run in pairs, two ciphertexts per interleaved ladder
//! of the share's exponent; the combination pays one modular inversion for
//! the whole batch, where a ciphertext on its own would pay one each.
//!
//! A decryption is paid per *ciphertext*, so scalars whose magnitude is
//! bounded ride it packed. A [`Bounded`] vector carries that bound, set by
//! whoever made its ciphertexts: the enhanced protocol's fresh `[α]` (1),
//! `crate::conversion::shares_to_ciphers` (`m·p`), the PIR columns and
//! Eqn-10 products (`crate::train_enhanced`), and Algorithm 4's sums
//! (`crate::predict_basic::prediction_bound_bits`). `pack_scalars` offsets
//! each scalar into non-negative range and shift-adds as many as a slot
//! audited for its vector's bound holds into one ciphertext. Algorithm 2
//! packs with its masks' headroom (`crate::conversion`), Algorithm 4 opens
//! its predictions with none (`joint_decrypt_signed`): `⌈t/slots⌉`
//! decryptions for `t` values.

use crate::config::SlotPlan;
use crate::party::PartyContext;
use pivot_bignum::BigUint;
use pivot_paillier::threshold::PartialDecryption;
use pivot_paillier::{batch, vector, Ciphertext, SlotCodec};
use pivot_trace::Counter;

/// Jointly decrypt a batch of ciphertexts; all clients learn the plaintexts.
pub fn joint_decrypt_vec(ctx: &mut PartyContext<'_>, cts: &[Ciphertext]) -> Vec<BigUint> {
    if cts.is_empty() {
        return Vec::new();
    }
    ctx.counters
        .add(Counter::ThresholdDecryptions, cts.len() as u64);
    let threads = ctx.crypto_threads();

    // Partial decryptions (the `-PP` knob: parallel across ciphertexts).
    let partials = batch::partial_decrypt_batch(&ctx.key_share, cts, threads);

    // One all-to-all exchange of the whole batch.
    let all: Vec<Vec<PartialDecryption>> = ctx.ep.exchange_all(&partials);

    // Combine locally, batched across ciphertexts.
    let per_ct: Vec<Vec<PartialDecryption>> = (0..cts.len())
        .map(|idx| all.iter().map(|per_party| per_party[idx].clone()).collect())
        .collect();
    ctx.combiner.combine_batch(&per_ct, threads)
}

/// Scalar ciphertexts and one bound on every plaintext's signed magnitude,
/// mod-p slack included: `|x| ≤ bound`, a negative encoded as `N − |x|`.
#[derive(Clone)]
pub struct Bounded {
    pub cts: Vec<Ciphertext>,
    pub bound: BigUint,
}

impl Bounded {
    pub fn new(cts: Vec<Ciphertext>, bound: BigUint) -> Self {
        Bounded { cts, bound }
    }

    /// Plaintexts of signed magnitude below `2^bits`.
    pub fn below_pow2(cts: Vec<Ciphertext>, bits: u32) -> Self {
        Bounded::new(cts, &BigUint::pow2(bits) - &BigUint::one())
    }
}

/// Scalar ciphertexts shift-added into packed ones by [`pack_scalars`].
pub(crate) struct PackedScalars {
    /// One audited codec per group; its offset is the group's `2^bound`.
    pub codecs: Vec<SlotCodec>,
    /// Per packed ciphertext: its group and how many scalars it holds.
    pub layout: Vec<(usize, usize)>,
    pub cts: Vec<Ciphertext>,
}

/// Pack every group's scalar ciphertexts under one audited slot width per
/// group, read off the group's bound: its plaintexts lie below
/// `2^bound_bits`, `bound_bits = bits(bound)`. `headroom` is what the slot
/// must hold on top of the offset value before it is opened.
///
/// Slot audit: a slot accumulates `x + 2^bound_bits` — the signedness
/// offset is applied homomorphically *before* the shift-add, so a negative
/// encoding never borrows from a neighbour slot — plus the headroom; the
/// slot width is the bit length of that worst case. A width the keysize
/// admits once is a one-slot group whose slot is the whole plaintext.
/// Chunks are group-major, in order.
pub(crate) fn pack_scalars(
    ctx: &mut PartyContext<'_>,
    groups: &[Bounded],
    headroom: &BigUint,
) -> PackedScalars {
    let codecs: Vec<SlotCodec> = groups
        .iter()
        .map(|group| {
            let bound_bits = group.bound.bits();
            let worst = &BigUint::pow2(bound_bits + 1) + headroom;
            let slot_bits = worst.bits();
            let plan = match SlotCodec::max_slots(ctx.params.keysize, slot_bits) {
                0 | 1 => SlotPlan::whole_plaintext(ctx.params.keysize),
                slots => SlotPlan { slot_bits, slots },
            };
            SlotCodec::with_offset(plan.slot_bits, plan.slots, bound_bits)
        })
        .collect();
    let jobs: Vec<(usize, &[Ciphertext])> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, group)| group.cts.chunks(codecs[g].slots()).map(move |c| (g, c)))
        .collect();

    // `Σ (cᵢ + [2^b]) · 2^(w·i)` per chunk.
    let cts: Vec<Ciphertext> =
        pivot_runtime::global().map(ctx.crypto_threads(), &jobs, |&(g, chunk)| {
            let codec = &codecs[g];
            let enc_off = ctx.pk.encrypt_trivial(&codec.offset());
            let shifted: Vec<Ciphertext> = chunk.iter().map(|c| ctx.pk.add(c, &enc_off)).collect();
            let weights: Vec<BigUint> = (0..chunk.len()).map(|i| codec.shift_factor(i)).collect();
            vector::dot_plain(&ctx.pk, &shifted, &weights)
        });
    let total: usize = groups.iter().map(|group| group.cts.len()).sum();
    ctx.counters.add(Counter::CiphertextOps, 2 * total as u64);
    PackedScalars {
        codecs,
        layout: jobs.iter().map(|&(g, chunk)| (g, chunk.len())).collect(),
        cts,
    }
}

/// Jointly decrypt bounded scalars, packed: one decryption per
/// [`pack_scalars`] ciphertext, with no headroom (nothing is added before
/// the opening). Returns the signed values in order; the bound must stay
/// below `2^127`.
pub(crate) fn joint_decrypt_signed(ctx: &mut PartyContext<'_>, values: &Bounded) -> Vec<i128> {
    let bound_bits = values.bound.bits();
    assert!(bound_bits < 127, "a {bound_bits}-bit bound exceeds i128");
    let packed = pack_scalars(ctx, std::slice::from_ref(values), &BigUint::zero());
    let codec = &packed.codecs[0];
    let offset = 1i128 << bound_bits;
    let opened = joint_decrypt_vec(ctx, &packed.cts);
    opened
        .iter()
        .zip(&packed.layout)
        .flat_map(|(plaintext, &(_, used))| codec.unpack(plaintext, used))
        .map(|slot| slot.to_u128().expect("an audited slot fits u128") as i128 - offset)
        .collect()
}
