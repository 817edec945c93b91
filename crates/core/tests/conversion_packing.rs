//! Dynamically packed Algorithm-2 conversion: several scalar ciphertexts
//! ride one threshold decryption through audited slots, and the recovered
//! additive shares must sum to the plaintexts mod p — including negative
//! encodings and the mod-p slack the enhanced protocol's ciphertexts
//! carry.

use pivot_bignum::BigUint;
use pivot_core::config::{LabelSource, PivotParams};
use pivot_core::conversion::{
    packed_ciphers_to_shares, packed_share_conversion, packed_share_conversion_groups,
};
use pivot_core::decrypt::Bounded;
use pivot_core::party::PartyContext;
use pivot_core::Counter;
use pivot_data::{Dataset, Task, VerticalView};
use pivot_mpc::{FixedConfig, Fp, Share, MODULUS};
use pivot_transport::run_parties;

fn toy_view(client: usize, m: usize) -> VerticalView {
    let data = Dataset::new(
        vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
        vec![0.0, 1.0],
        Task::Classification { classes: 2 },
    );
    let part = pivot_data::partition_vertically(&data, m, 0);
    part.views[client].clone()
}

/// Deterministic ciphertext every party can rebuild locally: trivial
/// encryption of a signed value (negatives encode as `N − |x|`).
fn trivial_signed(ctx: &PartyContext<'_>, v: i128) -> pivot_paillier::Ciphertext {
    let pt = if v >= 0 {
        BigUint::from_u128(v as u128)
    } else {
        ctx.pk.n() - &BigUint::from_u128(v.unsigned_abs())
    };
    ctx.pk.encrypt_trivial(&pt)
}

fn expected_share(v: i128) -> Fp {
    let p = MODULUS as i128;
    Fp::new(v.rem_euclid(p) as u64)
}

fn open(per_party: &[Vec<Share>], idx: usize) -> Fp {
    per_party
        .iter()
        .map(|shares| shares[idx].0)
        .fold(Fp::ZERO, |acc, x| acc + x)
}

#[test]
fn packed_conversion_recovers_values_mod_p() {
    // keysize 512 with a 100-bit bound: slot audit gives ~102-bit slots,
    // so the conversion packs 4 scalars per ciphertext.
    let params = PivotParams {
        keysize: 512,
        ..Default::default()
    };
    let m = 3;
    // Signed magnitudes below 2^100, including a slack multiple of p
    // (reduces away mod p) and values spilling across chunk boundaries.
    let values: Vec<i128> = vec![
        -12_345,
        777,
        5 * MODULUS as i128 + 42,
        (1i128 << 99) + 9,
        -(1i128 << 98),
        0,
        1,
    ];
    let results = run_parties(m, |ep| {
        let view = toy_view(ep.id(), m);
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        let cts: Vec<_> = values.iter().map(|&v| trivial_signed(&ctx, v)).collect();
        packed_share_conversion(&mut ctx, &Bounded::below_pow2(cts, 100))
    });
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(open(&results, i), expected_share(v), "value {i}");
    }
}

#[test]
fn grouped_conversion_audits_each_width_separately() {
    let params = PivotParams {
        keysize: 512,
        ..Default::default()
    };
    let m = 2;
    // A wide group (Eqn-10-like quadratic slack, ~130 bits) and a narrow
    // one (§5.2 share sums, < m·p) settle in the same decryption round
    // with different slot widths.
    let wide: Vec<i128> = vec![(1i128 << 125) + 3, -(1i128 << 124)];
    let narrow: Vec<i128> = vec![MODULUS as i128 + 17, -99, 123_456];
    let results = run_parties(m, |ep| {
        let view = toy_view(ep.id(), m);
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        let wide_cts: Vec<_> = wide.iter().map(|&v| trivial_signed(&ctx, v)).collect();
        let narrow_cts: Vec<_> = narrow.iter().map(|&v| trivial_signed(&ctx, v)).collect();
        packed_share_conversion_groups(
            &mut ctx,
            &[
                Bounded::below_pow2(wide_cts, 126),
                Bounded::below_pow2(narrow_cts, 63),
            ],
        )
    });
    for (i, &v) in wide.iter().enumerate() {
        let opened = results
            .iter()
            .map(|g| g[0][i].0)
            .fold(Fp::ZERO, |a, x| a + x);
        assert_eq!(opened, expected_share(v), "wide value {i}");
    }
    for (i, &v) in narrow.iter().enumerate() {
        let opened = results
            .iter()
            .map(|g| g[1][i].0)
            .fold(Fp::ZERO, |a, x| a + x);
        assert_eq!(opened, expected_share(v), "narrow value {i}");
    }
}

#[test]
fn one_slot_group_when_slots_too_narrow() {
    // keysize 128 cannot fit two ~102-bit slots: the group holds one
    // scalar per ciphertext — Algorithm 2 as the paper states it — and
    // stays correct.
    let params = PivotParams {
        keysize: 128,
        ..Default::default()
    };
    let m = 2;
    let values: Vec<i128> = vec![-4242, 31_337];
    let results = run_parties(m, |ep| {
        let view = toy_view(ep.id(), m);
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        let cts: Vec<_> = values.iter().map(|&v| trivial_signed(&ctx, v)).collect();
        let shares = packed_share_conversion(&mut ctx, &Bounded::below_pow2(cts, 100));
        assert_eq!(
            ctx.counters.get(Counter::ThresholdDecryptions),
            2,
            "one per scalar"
        );
        shares
    });
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(open(&results, i), expected_share(v), "value {i}");
    }
}

#[test]
fn whole_plaintext_and_audited_groups_share_one_round() {
    // One batch, three layouts: a group whose bound admits a single slot
    // — the whole plaintext, here carrying 2^200·p of mod-p slack — next
    // to a 126-bit and a 63-bit audited group (3 and 7 slots at keysize
    // 512). One mask exchange and one decryption exchange settle all of
    // them, and every value opens mod p.
    let params = PivotParams {
        keysize: 512,
        ..Default::default()
    };
    let m = 2;
    let slack = &BigUint::pow2(200) * &BigUint::from_u64(MODULUS);
    let whole: Vec<u64> = vec![1234, 0];
    let wide: Vec<i128> = vec![(1i128 << 125) + 3, -(1i128 << 124), 7, 8];
    let narrow: Vec<i128> = vec![MODULUS as i128 + 17, -99, 123_456];
    let results = run_parties(m, |ep| {
        let view = toy_view(ep.id(), m);
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        let whole_cts: Vec<_> = whole
            .iter()
            .map(|&v| ctx.pk.encrypt_trivial(&(&slack + &BigUint::from_u64(v))))
            .collect();
        let wide_cts: Vec<_> = wide.iter().map(|&v| trivial_signed(&ctx, v)).collect();
        let narrow_cts: Vec<_> = narrow.iter().map(|&v| trivial_signed(&ctx, v)).collect();
        let messages = ep.counters().get(Counter::MessagesSent);
        let shares = packed_share_conversion_groups(
            &mut ctx,
            &[
                Bounded::below_pow2(whole_cts, 300),
                Bounded::below_pow2(wide_cts, 126),
                Bounded::below_pow2(narrow_cts, 63),
            ],
        );
        // 2 one-slot ciphertexts + ⌈4/3⌉ + ⌈3/7⌉ packed ones.
        assert_eq!(ctx.counters.get(Counter::ThresholdDecryptions), 2 + 2 + 1);
        assert_eq!(
            ep.counters().get(Counter::MessagesSent) - messages,
            2,
            "two exchanges"
        );
        shares
    });
    let open_group = |g: usize, i: usize| {
        results
            .iter()
            .map(|groups| groups[g][i].0)
            .fold(Fp::ZERO, |a, x| a + x)
    };
    for (i, &v) in whole.iter().enumerate() {
        assert_eq!(open_group(0, i), Fp::new(v), "whole-plaintext value {i}");
    }
    for (i, &v) in wide.iter().enumerate() {
        assert_eq!(open_group(1, i), expected_share(v), "wide value {i}");
    }
    for (i, &v) in narrow.iter().enumerate() {
        assert_eq!(open_group(2, i), expected_share(v), "narrow value {i}");
    }
}

#[test]
fn share_sum_statistics_convert_at_the_audited_bound() {
    // The no-carry budget of GBDT's carried vectors, at its bound: every
    // client's share is p − 1 (a carried element is m·(p − 1), the most a
    // share sum can hold), every indicator is 1, and n = 169 is the largest
    // sample count the 70-bit slot is audited for at m = 3 — the statistic
    // 169·3·(p − 1) plus the Algorithm-2 offset plus three conversion masks
    // is 510·p + 2^44 − 510 < 512·2^61 = 2^70, and one more sample needs a
    // 71st bit. Seven slots at keysize 512: stride 3, G = 2 splits merged,
    // six occupied slots in one decryption.
    let params = PivotParams {
        keysize: 512,
        ..Default::default()
    };
    let (m, n) = (3, 169);
    let plan = params.slot_plan(m, n, LabelSource::ShareSums);
    assert_eq!((plan.slot_bits, plan.slots), (70, 7));
    assert_eq!(
        params.slot_plan(m, n + 1, LabelSource::ShareSums).slot_bits,
        71
    );
    let codec = plan.codec(&FixedConfig::default());
    let share_sum = m as u64 as u128 * (MODULUS as u128 - 1);
    let results = run_parties(m, |ep| {
        let view = toy_view(ep.id(), m);
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        // Per sample (α, γ₁, γ₂) = (1, m·(p−1), m·(p−1)); the statistics
        // pass sums the samples an indicator keeps — all of them — and
        // shifts the neighbouring split up by the chunk width.
        let element = ctx.pk.encrypt_trivial(&codec.pack(&[
            BigUint::one(),
            BigUint::from_u128(share_sum),
            BigUint::from_u128(share_sum),
        ]));
        let split = pivot_paillier::vector::dot_binary(&ctx.pk, &vec![element; n], &vec![true; n]);
        let shifted = ctx.pk.mul_plain(&split, &codec.shift_factor(3));
        let merged = ctx.pk.add(&split, &shifted);
        packed_ciphers_to_shares(&mut ctx, &codec, &[&merged], &[6]).remove(0)
    });
    // Mod p the slack reduces away: p − 1 ≡ −1, so a label sum is −n·m.
    let label_sum = expected_share(-((n * m) as i128));
    let expect = [Fp::new(n as u64), label_sum, label_sum];
    for slot in 0..6 {
        assert_eq!(open(&results, slot), expect[slot % 3], "slot {slot}");
    }
}

#[test]
fn eqn10_products_convert_at_the_audited_bound() {
    // The mask refresh's worst case: an Eqn-10 mask α' = Σ ⟨α⟩ᵢ·[v] with
    // every share below p and the PIR-selected [v] a b-term sum of λs of
    // slack below m·p, so α' < (m·p)²·b — 129 bits at m = 3, b = 8. Each
    // plaintext is α + K·p with the largest K below that bound; a slot
    // adds the 2^129 offset and three masks below p (131 bits), three
    // slots at keysize 512, so n = 10 masks pay ⌈10/3⌉ = 4 decryptions.
    let params = PivotParams {
        keysize: 512,
        ..Default::default()
    };
    let (m, n, b) = (3, 10, 8u64);
    let p = BigUint::from_u64(MODULUS);
    let m_p = BigUint::from_u128(Fp::share_sum_bound(m));
    let bound = (&(&m_p * &m_p) * &BigUint::from_u64(b)).bits();
    assert_eq!(bound, 129);
    let alpha: Vec<u64> = (0..n).map(|j| u64::from(j % 3 == 0)).collect();
    let values: Vec<BigUint> = alpha
        .iter()
        .map(|&a| {
            let k = &(&BigUint::pow2(bound) - &BigUint::from_u64(a + 1)) / &p;
            &(&k * &p) + &BigUint::from_u64(a)
        })
        .collect();
    for v in &values {
        assert!(v.bits() <= bound && (v + &p).bits() > bound, "largest K");
    }
    let results = run_parties(m, |ep| {
        let view = toy_view(ep.id(), m);
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        let cts: Vec<_> = values.iter().map(|v| ctx.pk.encrypt_trivial(v)).collect();
        let shares = packed_share_conversion(&mut ctx, &Bounded::below_pow2(cts, bound));
        assert_eq!(ctx.counters.get(Counter::ThresholdDecryptions), 4);
        shares
    });
    for (j, &a) in alpha.iter().enumerate() {
        assert_eq!(open(&results, j), Fp::new(a), "mask {j}");
    }
}
