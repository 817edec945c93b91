//! Ciphertext packing à la SecureBoost+: many small plaintext *slots* in
//! one Paillier plaintext.
//!
//! A [`SlotCodec`] divides the plaintext space `Z_N` into `slots`
//! contiguous bit-fields of `slot_bits` each. Values packed into disjoint
//! slots ride one ciphertext through every additive homomorphic operation:
//! ciphertext addition adds slot-wise, multiplication by a shared scalar
//! scales every slot, and multiplication by `2^(slot_bits·k)` *shifts* a
//! ciphertext's payload up by `k` slots — which is how independently
//! computed packed values merge into one ciphertext without decryption.
//!
//! Correctness rests entirely on a **no-carry budget**: the caller must
//! guarantee that every slot's accumulated value stays below
//! `2^slot_bits` over the packed ciphertext's whole life (sums of
//! statistics, the Algorithm-2 signedness offset, every party's conversion
//! mask). The protocol derives `slot_bits` from that worst case in
//! `pivot_core::config` and the codec asserts individual inputs fit;
//! overflow of the *accumulated* sum cannot be detected under encryption,
//! which is why the bound is enforced at configuration-validation time.
//!
//! Signed values use **offset encoding**: a slot stores
//! `x + 2^offset_bits` with `|x| < 2^offset_bits`, so negatives never wrap
//! mod `N`. The offset is deliberately narrower than the slot: homomorphic
//! sums accumulate one offset *unit* per offset-encoded operand (and
//! `mul_plain` by `c` scales the unit count by `c`), and the accumulated
//! `units · 2^offset_bits` must fit the same no-carry budget. The reader of
//! the decrypted slots removes the final unit count
//! (`pivot_core::conversion`).

use crate::batch;
use crate::{Ciphertext, NoncePool, PublicKey};
use pivot_bignum::BigUint;
use std::sync::Arc;

/// Slot layout over the Paillier plaintext space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotCodec {
    slot_bits: u32,
    slots: usize,
    offset_bits: u32,
}

impl SlotCodec {
    /// A codec with `slots` fields of `slot_bits` each and the default
    /// signedness offset `2^(slot_bits−1)` (full-range signed slots; only
    /// safe when at most one offset unit ever accumulates). The caller is
    /// responsible for `slots · slot_bits` fitting the plaintext space —
    /// [`SlotCodec::max_slots`] gives the capacity.
    pub fn new(slot_bits: u32, slots: usize) -> SlotCodec {
        assert!(slot_bits >= 2, "slots must hold more than a bit");
        Self::with_offset(slot_bits, slots, slot_bits - 1)
    }

    /// A codec with an explicit offset width: signed payloads are bounded
    /// by `2^offset_bits`, leaving `slot_bits − offset_bits` headroom bits
    /// for offset-unit accumulation and carry-free slot sums.
    pub fn with_offset(slot_bits: u32, slots: usize, offset_bits: u32) -> SlotCodec {
        assert!(slots >= 1, "need at least one slot");
        assert!(
            offset_bits < slot_bits,
            "offset 2^{offset_bits} must fit the {slot_bits}-bit slot"
        );
        SlotCodec {
            slot_bits,
            slots,
            offset_bits,
        }
    }

    /// How many `slot_bits`-wide slots fit a `keysize`-bit modulus. One
    /// bit is reserved so the packed plaintext stays strictly below
    /// `2^(keysize−1) ≤ N` (the modulus may have exactly `keysize` bits).
    pub fn max_slots(keysize: u32, slot_bits: u32) -> usize {
        (keysize.saturating_sub(1) / slot_bits) as usize
    }

    /// Bits per slot.
    pub fn slot_bits(&self) -> u32 {
        self.slot_bits
    }

    /// Slots per ciphertext.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The offset-encoding constant `2^offset_bits`.
    pub fn offset(&self) -> BigUint {
        BigUint::pow2(self.offset_bits)
    }

    /// The public shift factor `2^(slot_bits·slot)`: `mul_plain` by this
    /// moves a packed payload up by `slot` slots.
    pub fn shift_factor(&self, slot: usize) -> BigUint {
        assert!(slot < self.slots, "shift beyond the slot capacity");
        BigUint::pow2(self.slot_bits * slot as u32)
    }

    /// Pack non-negative values (each `< 2^slot_bits`) into one plaintext,
    /// value `i` in slot `i`.
    pub fn pack(&self, values: &[BigUint]) -> BigUint {
        assert!(
            values.len() <= self.slots,
            "{} values exceed {} slots",
            values.len(),
            self.slots
        );
        let mut acc = BigUint::zero();
        for v in values.iter().rev() {
            assert!(
                v.bits() <= self.slot_bits,
                "slot value of {} bits exceeds the {}-bit slot",
                v.bits(),
                self.slot_bits
            );
            acc = &acc.shl_bits(self.slot_bits) + v;
        }
        acc
    }

    /// Unpack the first `count` slots of a decrypted plaintext.
    pub fn unpack(&self, packed: &BigUint, count: usize) -> Vec<BigUint> {
        assert!(count <= self.slots, "unpacking beyond the slot capacity");
        let mut rest = packed.clone();
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let high = rest.shr_bits(self.slot_bits);
            out.push(&rest - &high.shl_bits(self.slot_bits));
            rest = high;
        }
        out
    }

    /// Encrypt packed rows in one batch on the shared worker pool (nonce
    /// powers from the party's nonce stream, stream order).
    pub fn encrypt_rows(
        &self,
        pk: &PublicKey,
        rows: &[Vec<BigUint>],
        nonces: &Arc<NoncePool>,
        threads: usize,
    ) -> Vec<Ciphertext> {
        let packed: Vec<BigUint> = rows.iter().map(|r| self.pack(r)).collect();
        batch::encrypt_batch(pk, &packed, nonces, threads)
    }
}

/// Element-wise addition of packed ciphertext vectors (slot-wise plaintext
/// addition; the caller's no-carry budget must cover the sums).
pub fn add_packed(pk: &PublicKey, a: &[Ciphertext], b: &[Ciphertext]) -> Vec<Ciphertext> {
    assert_eq!(a.len(), b.len(), "dimension mismatch in packed add");
    a.iter().zip(b).map(|(x, y)| pk.add(x, y)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::threshold::ThresholdKeyPair;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> ThresholdKeyPair {
        fixtures::threshold_keys(3, 128)
    }

    fn decrypt(kp: &ThresholdKeyPair, c: &Ciphertext) -> BigUint {
        let partials: Vec<_> = kp.shares.iter().map(|s| s.partial_decrypt(c)).collect();
        kp.combiner.combine(&partials)
    }

    #[test]
    fn pack_unpack_round_trip() {
        let codec = SlotCodec::new(20, 5);
        let values: Vec<BigUint> = [7u64, 0, (1 << 20) - 1, 42, 1]
            .iter()
            .map(|&v| BigUint::from_u64(v))
            .collect();
        let packed = codec.pack(&values);
        assert_eq!(codec.unpack(&packed, 5), values);
        // Partial unpack reads a prefix.
        assert_eq!(codec.unpack(&packed, 2), values[..2].to_vec());
    }

    #[test]
    fn max_slots_reserves_a_bit() {
        assert_eq!(SlotCodec::max_slots(256, 63), 4);
        assert_eq!(SlotCodec::max_slots(128, 63), 2);
        assert_eq!(SlotCodec::max_slots(64, 63), 1);
        assert_eq!(SlotCodec::max_slots(63, 63), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn oversized_slot_value_rejected() {
        SlotCodec::new(8, 4).pack(&[BigUint::from_u64(256)]);
    }

    #[test]
    fn homomorphic_slotwise_addition_and_shift() {
        let kp = keys();
        let codec = SlotCodec::new(16, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let a = codec.pack(&[1u64, 2, 3].map(BigUint::from_u64));
        let b = codec.pack(&[10u64, 20, 30].map(BigUint::from_u64));
        let ca = kp.pk.encrypt(&a, &mut rng);
        let cb = kp.pk.encrypt(&b, &mut rng);
        let sum = add_packed(&kp.pk, std::slice::from_ref(&ca), &[cb])[0].clone();
        assert_eq!(
            codec.unpack(&decrypt(&kp, &sum), 3),
            [11u64, 22, 33].map(BigUint::from_u64)
        );
        // mul_plain by the shift factor moves the payload up by one slot.
        let shifted = kp.pk.mul_plain(&ca, &codec.shift_factor(1));
        assert_eq!(
            codec.unpack(&decrypt(&kp, &shifted), 4),
            [0u64, 1, 2, 3].map(BigUint::from_u64)
        );
    }

    #[test]
    fn shared_scalar_scales_every_slot() {
        let kp = keys();
        let codec = SlotCodec::new(24, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let ct = kp
            .pk
            .encrypt(&codec.pack(&[5u64, 0, 99].map(BigUint::from_u64)), &mut rng);
        let scaled = kp.pk.mul_plain(&ct, &BigUint::from_u64(1000));
        assert_eq!(
            codec.unpack(&decrypt(&kp, &scaled), 3),
            [5000u64, 0, 99_000].map(BigUint::from_u64)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Plain (unsigned) pack → unpack round trip at arbitrary widths,
        /// including values exactly at the slot bound.
        #[test]
        fn pack_round_trips(w in 4u32..=64, raw in proptest::collection::vec(any::<u64>(), 1..7)) {
            let codec = SlotCodec::new(w, 6);
            let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            let vals: Vec<BigUint> = raw.iter().map(|&v| BigUint::from_u64(v & mask)).collect();
            let packed = codec.pack(&vals);
            prop_assert_eq!(codec.unpack(&packed, vals.len()), vals);
        }
    }
}
