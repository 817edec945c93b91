//! Bounded-width comparison tests against the plaintext sign / mod /
//! argmax / reciprocal: boundary values, every width policy, the two-sided
//! shared-mask LTZ, and the round/byte accounting of narrow vs full-width
//! (`Floor(int_bits)`) comparisons.

use pivot_mpc::{dp, CompareBits, FixedConfig, Fp, MpcEngine, Share};
use pivot_trace::{Counter, Snapshot};
use pivot_transport::run_parties;
use proptest::prelude::*;

const SEED: u64 = 0xB0DED;

/// SPMD closure over `m` parties with a chosen comparison policy.
fn mpc_mode<T: Send>(
    m: usize,
    mode: CompareBits,
    f: impl Fn(&mut MpcEngine<'_>) -> T + Send + Sync,
) -> Vec<T> {
    run_parties(m, |ep| {
        let mut engine = MpcEngine::new(&ep, SEED, FixedConfig::default());
        engine.configure_comparisons(mode, 0);
        f(&mut engine)
    })
}

/// This party's counter registry, read through the engine's endpoint.
fn counters(e: &MpcEngine<'_>) -> Snapshot {
    e.endpoint().counters().snapshot()
}

/// Rounds this party has run so far.
fn rounds_so_far(e: &MpcEngine<'_>) -> u64 {
    e.endpoint().counters().get(Counter::Rounds)
}

/// The non-zero cells of the comparison-width histogram, as
/// `(width, comparisons)`.
fn widths(s: &Snapshot) -> Vec<(u32, u64)> {
    (0u32..)
        .zip(s.cells(Counter::CmpWidths))
        .filter(|&(_, &n)| n > 0)
        .map(|(k, &n)| (k, n))
        .collect()
}

/// Every comparison at the global `int_bits`: the widest the policy goes.
fn full_width() -> CompareBits {
    CompareBits::Floor(FixedConfig::default().int_bits)
}

/// The values the satellite task pins: 0, ±1, ±(2^(k−1) − 1).
fn boundary_values(k: u32) -> Vec<i64> {
    let edge = (1i64 << (k - 1)) - 1;
    vec![0, 1, -1, edge, -edge]
}

#[test]
fn bounded_ltz_at_boundary_values() {
    for mode in [CompareBits::Auto, CompareBits::Floor(8), full_width()] {
        for k in [2u32, 3, 5, 8, 13, 21, 45] {
            let vals = boundary_values(k);
            let want: Vec<u64> = vals.iter().map(|&v| u64::from(v < 0)).collect();
            let got = mpc_mode(3, mode, |e| {
                let shares: Vec<Share> =
                    vals.iter().map(|&v| e.constant(Fp::from_i64(v))).collect();
                let signs = e.ltz_vec_bounded(&shares, k);
                e.open_vec(&signs)
                    .iter()
                    .map(|v| v.value())
                    .collect::<Vec<_>>()
            });
            for r in got {
                assert_eq!(r, want, "mode {mode:?}, width {k}");
            }
        }
    }
}

#[test]
fn bounded_mod2m_matches_plaintext() {
    // y ∈ [0, 2^k) at several widths, including boundary patterns.
    for k in [4u32, 9, 16, 30] {
        let t = k - 1;
        let top = (1u64 << k) - 1;
        let vals = [0u64, 1, (1 << t) - 1, 1 << t, top, 0b1011 % (top + 1)];
        let got = mpc_mode(2, CompareBits::Auto, |e| {
            let shares: Vec<Share> = vals.iter().map(|&v| e.constant(Fp::new(v))).collect();
            let low = e.mod2m_vec_bounded(&shares, t, k);
            e.open_vec(&low)
                .iter()
                .map(|v| v.value())
                .collect::<Vec<_>>()
        });
        let want: Vec<u64> = vals.iter().map(|&v| v & ((1 << t) - 1)).collect();
        for r in got {
            assert_eq!(r, want, "width {k}");
        }
    }
}

#[test]
fn full_and_bounded_policies_agree() {
    let vals: Vec<i64> = vec![-200, -3, -1, 0, 1, 2, 57, 199, -128, 127];
    let run = |mode| {
        mpc_mode(3, mode, |e| {
            let shares: Vec<Share> = vals.iter().map(|&v| e.constant(Fp::from_i64(v))).collect();
            let signs = e.ltz_vec_bounded(&shares, 10);
            e.open_vec(&signs)
                .iter()
                .map(|v| v.value())
                .collect::<Vec<_>>()
        })
    };
    let want: Vec<u64> = vals.iter().map(|&v| u64::from(v < 0)).collect();
    for mode in [full_width(), CompareBits::Auto, CompareBits::Floor(16)] {
        assert_eq!(run(mode)[0], want, "mode {mode:?}");
    }
}

#[test]
fn ltz_pair_shares_one_mask_per_element() {
    let vals: Vec<i64> = vec![-7, -1, 0, 1, 6, 3, -4];
    let results = mpc_mode(2, CompareBits::Auto, |e| {
        let shares: Vec<Share> = vals.iter().map(|&v| e.constant(Fp::from_i64(v))).collect();
        let (neg, pos) = e.ltz_pair_vec(&shares, 5);
        let opened_neg = e.open_vec(&neg);
        let opened_pos = e.open_vec(&pos);
        let snap = counters(e);
        (
            opened_neg.iter().map(|v| v.value()).collect::<Vec<_>>(),
            opened_pos.iter().map(|v| v.value()).collect::<Vec<_>>(),
            snap,
        )
    });
    for (neg, pos, snap) in results {
        assert_eq!(
            neg,
            vals.iter().map(|&v| u64::from(v < 0)).collect::<Vec<_>>()
        );
        assert_eq!(
            pos,
            vals.iter().map(|&v| u64::from(v > 0)).collect::<Vec<_>>()
        );
        // 2n comparison results, but only n masked rows were consumed.
        assert_eq!(snap[Counter::SecureComparisons], 2 * vals.len() as u64);
        assert_eq!(snap[Counter::CmpMaskedRows], vals.len() as u64);
    }
}

#[test]
fn onehot_matches_plaintext_and_halves_masked_rows() {
    let domain = 9usize;
    let (opened, snap) = mpc_mode(2, CompareBits::Auto, |e| {
        let idx = e.constant(Fp::new(4));
        let hot = e.onehot_many(&[(idx, domain)]).remove(0);
        let opened: Vec<u64> = e.open_vec(&hot).iter().map(|v| v.value()).collect();
        (opened, counters(e))
    })
    .remove(0);
    let mut want = vec![0u64; domain];
    want[4] = 1;
    assert_eq!(opened, want);
    // 2·domain comparisons (both sides of every idx − j) on half as many
    // masked rows: each pair shares one.
    assert_eq!(snap[Counter::SecureComparisons], 2 * domain as u64);
    assert_eq!(snap[Counter::CmpMaskedRows], domain as u64);
}

#[test]
fn bounded_argmax_matches_full() {
    let vals = [3.0f64, -1.0, 7.5, 7.25, 0.0, 2.0];
    let run = |mode| {
        mpc_mode(3, mode, |e| {
            let shares: Vec<Share> = vals.iter().map(|&v| e.constant_f64(v)).collect();
            // Differences bounded by 16 at scale 2^f.
            let k = e.cfg.frac_bits + 6;
            let (idx, max) = e.argmax_bounded(&shares, k);
            let opened = e.open_vec(&[idx, max]);
            (opened[0].value(), e.cfg.decode(opened[1]))
        })
    };
    for (idx, max) in run(full_width()).into_iter().chain(run(CompareBits::Auto)) {
        assert_eq!(idx, 2);
        assert!((max - 7.5).abs() < 1e-4);
    }
}

/// The lockstep multi-row argmax (tournament + all-pairs tail) must
/// return exactly what per-row `argmax_bounded` returns — including
/// first-maximum tie resolution — in every width policy.
#[test]
fn argmax_many_matches_per_row_argmax() {
    // Row shapes: long (exercises tournament rounds + tail), tie-heavy
    // (first maximum must win), tiny, and singleton.
    let rows: Vec<Vec<i64>> = vec![
        (0..60).map(|i| (i * 37) % 53 - 26).collect(),
        vec![5, 3, 5, 5, -2],
        vec![-4, -4],
        vec![7],
        (0..30).map(|i| 29 - i).collect(),
    ];
    for mode in [full_width(), CompareBits::Auto] {
        let got = mpc_mode(3, mode, |e| {
            let shares: Vec<Vec<Share>> = rows
                .iter()
                .map(|row| row.iter().map(|&v| e.constant(Fp::from_i64(v))).collect())
                .collect();
            let many = e.argmax_many_bounded(&shares, 8);
            let single: Vec<(Share, Share)> =
                shares.iter().map(|row| e.argmax_bounded(row, 8)).collect();
            let flat: Vec<Share> = many
                .iter()
                .chain(&single)
                .flat_map(|&(i, v)| [i, v])
                .collect();
            e.open_vec(&flat)
                .iter()
                .map(|v| v.value())
                .collect::<Vec<_>>()
        });
        for opened in got {
            let (m, s) = opened.split_at(2 * rows.len());
            assert_eq!(m, s, "lockstep vs per-row mismatch in {mode:?}");
            for (r, row) in rows.iter().enumerate() {
                let best = row.iter().max().unwrap();
                let want_idx = row.iter().position(|v| v == best).unwrap() as u64;
                assert_eq!(m[2 * r], want_idx, "row {r} idx in {mode:?}");
            }
        }
    }
}

/// Sharing rounds across rows is the point: r lockstep ladders must cost
/// far fewer rounds than r sequential ones.
#[test]
fn argmax_many_shares_rounds_across_rows() {
    let rows: Vec<Vec<i64>> = (0..6)
        .map(|r| {
            (0..48)
                .map(|i| ((i * 31 + r * 7) % 97) as i64 - 48)
                .collect()
        })
        .collect();
    let run = |lockstep: bool| {
        mpc_mode(2, CompareBits::Auto, |e| {
            let shares: Vec<Vec<Share>> = rows
                .iter()
                .map(|row| row.iter().map(|&v| e.constant(Fp::from_i64(v))).collect())
                .collect();
            let before = rounds_so_far(e);
            if lockstep {
                let _ = e.argmax_many_bounded(&shares, 9);
            } else {
                for row in &shares {
                    let _ = e.argmax_bounded(row, 9);
                }
            }
            rounds_so_far(e) - before
        })
        .remove(0)
    };
    let lockstep = run(true);
    let sequential = run(false);
    assert!(
        2 * lockstep <= sequential,
        "lockstep {lockstep} rounds vs sequential {sequential}"
    );
}

/// Deferred openings settle in one round regardless of ticket count.
#[test]
fn deferred_opens_settle_in_one_round() {
    let results = mpc_mode(2, CompareBits::Auto, |e| {
        let a = [e.constant(Fp::from_i64(-3)), e.constant(Fp::new(11))];
        let b = [e.constant(Fp::new(42))];
        let before = rounds_so_far(e);
        let t_a = e.open_deferred(&a);
        let t_b = e.open_deferred(&b);
        assert_eq!(e.deferred_pending(), 2);
        let opened = e.resolve();
        let rounds = rounds_so_far(e) - before;
        assert_eq!(e.deferred_pending(), 0);
        assert!(e.resolve().is_empty(), "second resolve is a no-op");
        (
            opened[t_a].iter().map(|v| v.value()).collect::<Vec<_>>(),
            opened[t_b][0].value(),
            rounds,
        )
    });
    for (a, b, rounds) in results {
        assert_eq!(a, vec![Fp::from_i64(-3).value(), 11]);
        assert_eq!(b, 42);
        assert_eq!(rounds, 1);
    }
}

#[test]
fn recip_vec_int_matches_fixed_point_path() {
    // Integer-domain normalization vs the same denominators pre-scaled to
    // fixed point: both must land on the plaintext reciprocal.
    let denoms = [1u64, 2, 3, 10, 24, 100];
    let run = |int_domain: bool| {
        mpc_mode(2, CompareBits::Auto, |e| {
            let r = if int_domain {
                let d: Vec<Share> = denoms.iter().map(|&v| e.constant(Fp::new(v))).collect();
                e.recip_vec_int(&d, 128.0)
            } else {
                let d: Vec<Share> = denoms.iter().map(|&v| e.constant_f64(v as f64)).collect();
                e.recip_vec(&d, 128.0)
            };
            let opened = e.open_vec(&r);
            opened.iter().map(|&v| e.cfg.decode(v)).collect::<Vec<_>>()
        })
    };
    for r in run(true).into_iter().chain(run(false)) {
        for (got, want) in r.iter().zip(denoms.iter().map(|&d| 1.0 / d as f64)) {
            assert!(
                (got - want).abs() < 1e-3 + want * 1e-3,
                "reciprocal got {got}, want {want}"
            );
        }
    }
}

/// A narrow batch must cut opened elements, comparison rounds and masked
/// bits against the same batch at full width. Rounds are one opening plus
/// `⌈log₂⌈(k − 1)/2⌉⌉`: 6 at `k = 45`, 3 at `k = 6`.
#[test]
fn bounded_widths_cut_opened_elements_and_rounds() {
    let vals: Vec<i64> = (0..64).map(|i| (i % 13) - 6).collect();
    let measure = |mode| -> Snapshot {
        mpc_mode(2, mode, |e| {
            let shares: Vec<Share> = vals.iter().map(|&v| e.constant(Fp::from_i64(v))).collect();
            let _ = e.ltz_vec_bounded(&shares, 6);
            counters(e)
        })
        .remove(0)
    };
    let full = measure(full_width());
    let auto = measure(CompareBits::Auto);
    assert_eq!(
        full[Counter::SecureComparisons],
        auto[Counter::SecureComparisons]
    );
    assert!(
        full[Counter::CmpOpened] >= 2 * auto[Counter::CmpOpened],
        "opened: full {} vs auto {}",
        full[Counter::CmpOpened],
        auto[Counter::CmpOpened]
    );
    assert_eq!(full[Counter::CmpRounds], 6);
    assert_eq!(auto[Counter::CmpRounds], 3);
    assert!(
        full[Counter::CmpMaskedBits] >= 4 * auto[Counter::CmpMaskedBits],
        "masked bits: full {} vs auto {}",
        full[Counter::CmpMaskedBits],
        auto[Counter::CmpMaskedBits]
    );
    // The width histogram records the effective widths.
    assert_eq!(widths(&full), vec![(45, vals.len() as u64)]);
    assert_eq!(widths(&auto), vec![(6, vals.len() as u64)]);
}

#[test]
fn floor_policy_raises_narrow_widths_only() {
    let results = mpc_mode(2, CompareBits::Floor(12), |e| {
        let a = e.constant(Fp::from_i64(-2));
        let b = e.constant(Fp::from_i64(900));
        let _ = e.ltz_vec_bounded(&[a], 4); // floored up to 12
        let _ = e.ltz_vec_bounded(&[b], 20); // stays 20
        widths(&counters(e))
    });
    assert_eq!(results[0], vec![(12, 1), (20, 1)]);
}

#[test]
fn dp_samplers_agree_across_policies() {
    // The DP mechanisms draw their uniform randomness and truncation
    // masks from the dealer's call-order stream, which no comparison
    // advances — so the samples are identical at any comparison width.
    let run = |mode| {
        mpc_mode(2, mode, |e| {
            let samples = dp::laplace_sample_vec(e, 0.0, 1.0, 16);
            let opened = e.open_vec(&samples);
            let scores = vec![
                e.constant_f64(0.1),
                e.constant_f64(6.0),
                e.constant_f64(0.2),
            ];
            let idx = dp::exponential_mechanism(e, &[scores], 4.0, 1.0)[0];
            let idx = e.open(idx).value();
            (
                opened.iter().map(|&v| e.cfg.decode(v)).collect::<Vec<_>>(),
                idx,
            )
        })
    };
    assert_eq!(
        run(full_width()).remove(0),
        run(CompareBits::Auto).remove(0)
    );
}

/// Beaver products of one `t`-bit BitLT row. The leaves' bit-pair
/// products come with the masked row; above the `⌈t/2⌉` pair blocks, per
/// level, two per combine except the one holding bit 0, which needs one.
fn products(t: u32) -> u64 {
    let mut total = 0;
    let mut blocks = u64::from(t.div_ceil(2));
    while blocks > 1 {
        total += 2 * (blocks / 2) - 1;
        blocks = blocks.div_ceil(2);
    }
    total
}

/// Rounds of one comparison at width `k`: the masked opening plus the
/// `⌈log₂⌈(k − 1)/2⌉⌉` levels of the carry tree above its pair blocks.
fn rounds(k: u32) -> u64 {
    1 + u64::from((k - 1).div_ceil(2).next_power_of_two().trailing_zeros())
}

/// `(online_rounds, beaver_triples)` spent between two snapshots.
fn spent(before: &Snapshot, after: &Snapshot) -> (u64, u64) {
    let d = after - before;
    (d[Counter::CmpRounds], d[Counter::CmpTriples])
}

/// Runs `vals` (all `|v| < 2^(k−1)`) through `ltz_vec_bounded`,
/// `ltz_pair_vec` and `mod2m_vec_bounded` (of `v + 2^(k−1)`) and checks
/// every output against plaintext and every call's exact cost.
fn check_comparisons(k: u32, vals: &[i64]) {
    let n = vals.len() as u64;
    let (outputs, costs) = mpc_mode(2, CompareBits::Auto, |e| {
        let x: Vec<Share> = vals.iter().map(|&v| e.constant(Fp::from_i64(v))).collect();
        let y: Vec<Share> = vals
            .iter()
            .map(|&v| e.constant(Fp::from_i64(v + (1 << (k - 1)))))
            .collect();
        let mut costs = Vec::new();
        let mut snap = counters(e);
        let mut cost = |e: &MpcEngine<'_>| {
            let now = counters(e);
            costs.push(spent(&snap, &now));
            snap = now;
        };
        let neg = e.ltz_vec_bounded(&x, k);
        cost(e);
        let (lt, gt) = e.ltz_pair_vec(&x, k);
        cost(e);
        let low = e.mod2m_vec_bounded(&y, k - 1, k);
        cost(e);
        let outputs: Vec<Vec<u64>> = [neg, lt, gt, low]
            .iter()
            .map(|v| e.open_vec(v).iter().map(|v| v.value()).collect())
            .collect();
        (outputs, costs)
    })
    .remove(0);
    let low_mask = (1u64 << (k - 1)) - 1;
    let want: [Vec<u64>; 4] = [
        vals.iter().map(|&v| u64::from(v < 0)).collect(),
        vals.iter().map(|&v| u64::from(v < 0)).collect(),
        vals.iter().map(|&v| u64::from(v > 0)).collect(),
        vals.iter()
            .map(|&v| (v + (1 << (k - 1))) as u64 & low_mask)
            .collect(),
    ];
    assert_eq!(outputs, want, "width {k}");
    let per_row = products(k - 1);
    assert_eq!(
        costs,
        [
            (rounds(k), n * per_row),
            (rounds(k), 2 * n * per_row),
            (rounds(k), n * per_row),
        ],
        "width {k}: (rounds, triples) of ltz, ltz_pair, mod2m"
    );
}

/// The helper against hand counts of the tree.
#[test]
fn carry_tree_product_counts() {
    let got: Vec<u64> = (1..=9).map(products).collect();
    assert_eq!(got, [0, 0, 1, 1, 2, 2, 4, 4, 5]);
    assert_eq!(products(29), 24);
    let got: Vec<u64> = [2, 3, 4, 5, 6, 10, 11, 31, 45].map(rounds).to_vec();
    assert_eq!(got, [1, 1, 2, 2, 3, 4, 4, 5, 6]);
}

#[test]
fn exhaustive_comparisons_pay_exact_costs() {
    for k in 2u32..=12 {
        let edge = (1i64 << (k - 1)) - 1;
        let vals: Vec<i64> = (-edge..=edge).collect();
        check_comparisons(k, &vals);
    }
}

/// `recip_vec_int_with_zeros` over every `d ∈ [0, 2^s]` for `s = 1..=9`:
/// exact zero flags, every reciprocal within 2 ulp of `2^f/d` (the worst
/// case over every outcome of its ±1-ulp truncations; an integer's
/// normalizing truncation is exact), and the exact cost of a call — one
/// comparison unit over `s + 1` lanes at width `s + 2`, then the tail's
/// 20 rounds and 10 products per element (one to normalize, two per
/// Newton step, one to denormalize).
#[test]
fn recip_vec_int_is_within_two_ulp_at_exact_cost() {
    for s in 1u32..=9 {
        let top = 1u64 << s;
        let n = top + 1;
        let (flags, recips, rounds_spent, triples) = mpc_mode(3, CompareBits::Auto, |e| {
            let d: Vec<Share> = (0..=top).map(|v| e.constant(Fp::new(v))).collect();
            let before = counters(e);
            let (r, z) = e.recip_vec_int_with_zeros(&d, top as f64);
            let spent = &counters(e) - &before;
            let flags: Vec<u64> = e.open_vec(&z).iter().map(|v| v.value()).collect();
            let recips: Vec<i64> = e.open_vec(&r).iter().map(|v| v.to_i64()).collect();
            (
                flags,
                recips,
                spent[Counter::Rounds],
                spent[Counter::SecureMults],
            )
        })
        .remove(0);
        let want_flags: Vec<u64> = (0..=top).map(|d| u64::from(d == 0)).collect();
        assert_eq!(flags, want_flags, "s = {s}: zero flags");
        let one = f64::from(1u32 << FixedConfig::default().frac_bits);
        for (d, &got) in recips.iter().enumerate().skip(1) {
            let err = (got as f64 - one / d as f64).abs();
            assert!(err <= 2.0, "s = {s}, d = {d}: {got} is {err} ulp off");
        }
        assert_eq!(rounds_spent, rounds(s + 2) + 20, "s = {s}: rounds");
        assert_eq!(
            triples,
            n * u64::from(s + 1) * products(s + 1) + 10 * n,
            "s = {s}: Beaver products"
        );
    }
}

/// Every opened output of [`comparison_outputs_are_pinned`], one row per
/// call in call order. Comparison outputs are exact bits and Beaver
/// triples only re-randomise shares, so these values move only if a
/// result moves or a probabilistic truncation is added, removed or
/// reordered: the reciprocals and the softmax round by ±1 ulp according
/// to the call-order truncation stream.
const PINNED: [&[u64]; 7] = [
    // recip_vec_int, scale 2^20
    &[
        1048577, 524288, 349526, 209715, 131072, 80659, 8256, 8192, 6595, 6554,
    ],
    // recip_vec
    &[1398101, 1048576, 699050, 381300, 149796, 33555, 10486, 8198],
    // div_vec
    &[
        2097156,
        2305843009213038591,
        1497970,
        1310,
        2305843009210985125,
    ],
    // argmax_many_bounded, (index, max) per row
    &[18, 11, 0, 5, 0, 2305843009213693947, 0, 7],
    // ltz_pair_vec, negative side then positive side
    &[1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1],
    // onehot_many
    &[0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0],
    // softmax_rows_clamped
    &[184859, 31600, 832118, 524120, 524120, 335],
];

#[test]
fn comparison_outputs_are_pinned() {
    let got = mpc_mode(3, CompareBits::Auto, |e| {
        let ints = |e: &MpcEngine<'_>, vals: &[i64]| -> Vec<Share> {
            vals.iter().map(|&v| e.constant(Fp::from_i64(v))).collect()
        };
        let fixed = |e: &MpcEngine<'_>, vals: &[f64]| -> Vec<Share> {
            vals.iter().map(|&v| e.constant_f64(v)).collect()
        };
        let mut opened: Vec<Vec<u64>> = Vec::new();
        let mut open = |e: &mut MpcEngine<'_>, shares: &[Share]| {
            opened.push(e.open_vec(shares).iter().map(|v| v.value()).collect());
        };

        let d = ints(e, &[1, 2, 3, 5, 8, 13, 127, 128, 159, 160]);
        let r = e.recip_vec_int(&d, 160.0);
        open(e, &r);
        let d = fixed(e, &[0.75, 1.0, 1.5, 2.75, 7.0, 31.25, 100.0, 127.9]);
        let r = e.recip_vec(&d, 128.0);
        open(e, &r);
        let a = fixed(e, &[3.0, -2.5, 10.0, 0.125, -7.75]);
        let b = fixed(e, &[1.5, 4.0, 7.0, 100.0, 3.0]);
        let q = e.div_vec(&a, &b, 128.0);
        open(e, &q);
        let rows: Vec<Vec<Share>> = [
            (0..40).map(|i| (i * 37) % 23 - 11).collect::<Vec<i64>>(),
            vec![5, 3, 5, 5, -2],
            vec![-4, -4],
            vec![7],
        ]
        .iter()
        .map(|row| ints(e, row))
        .collect();
        let flat: Vec<Share> = e
            .argmax_many_bounded(&rows, 8)
            .into_iter()
            .flat_map(|(i, v)| [i, v])
            .collect();
        open(e, &flat);
        let u = ints(e, &[-15, -7, -1, 0, 1, 6, 15]);
        let (neg, pos) = e.ltz_pair_vec(&u, 5);
        open(e, &[neg, pos].concat());
        let items = [(e.constant(Fp::new(4)), 9), (e.constant(Fp::new(0)), 3)];
        let hot = e.onehot_many(&items).concat();
        open(e, &hot);
        let logits = fixed(e, &[0.5, -1.25, 2.0, 3.5, 3.5, -3.75]);
        let p = e.softmax_rows_clamped(&logits, 3, 4.0);
        open(e, &p);
        opened
    });
    for (party, opened) in got.iter().enumerate() {
        assert_eq!(opened, &PINNED, "party {party}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random signed values inside random widths: the bounded sign test
    /// agrees with plaintext for every policy.
    #[test]
    fn bounded_ltz_parity(k in 2u32..24, raw in proptest::collection::vec(any::<i64>(), 1..6)) {
        let edge = (1i64 << (k - 1)) - 1;
        let vals: Vec<i64> = raw.iter().map(|v| v.rem_euclid(2 * edge + 1) - edge).collect();
        let want: Vec<u64> = vals.iter().map(|&v| u64::from(v < 0)).collect();
        for mode in [CompareBits::Auto, full_width()] {
            let got = mpc_mode(2, mode, |e| {
                let shares: Vec<Share> =
                    vals.iter().map(|&v| e.constant(Fp::from_i64(v))).collect();
                let signs = e.ltz_vec_bounded(&shares, k);
                e.open_vec(&signs).iter().map(|v| v.value()).collect::<Vec<_>>()
            });
            prop_assert_eq!(&got[0], &want);
        }
    }

    /// Two-sided LTZ agrees with two one-sided tests on random inputs.
    #[test]
    fn ltz_pair_parity(k in 3u32..20, raw in proptest::collection::vec(any::<i64>(), 1..6)) {
        let edge = (1i64 << (k - 1)) - 1;
        let vals: Vec<i64> = raw.iter().map(|v| v.rem_euclid(2 * edge + 1) - edge).collect();
        let got = mpc_mode(2, CompareBits::Auto, |e| {
            let shares: Vec<Share> = vals.iter().map(|&v| e.constant(Fp::from_i64(v))).collect();
            let (neg, pos) = e.ltz_pair_vec(&shares, k);
            let n = e.open_vec(&neg).iter().map(|v| v.value()).collect::<Vec<_>>();
            let p = e.open_vec(&pos).iter().map(|v| v.value()).collect::<Vec<_>>();
            (n, p)
        });
        let want_neg: Vec<u64> = vals.iter().map(|&v| u64::from(v < 0)).collect();
        let want_pos: Vec<u64> = vals.iter().map(|&v| u64::from(v > 0)).collect();
        prop_assert_eq!(&got[0].0, &want_neg);
        prop_assert_eq!(&got[0].1, &want_pos);
    }

    /// Random values at every width up to the full 45 bits: plaintext
    /// results and exact costs, as in the exhaustive sweep.
    #[test]
    fn comparisons_pay_exact_costs(k in 2u32..=45, raw in proptest::collection::vec(any::<i64>(), 1..8)) {
        let edge = (1i64 << (k - 1)) - 1;
        let vals: Vec<i64> = raw.iter().map(|v| v.rem_euclid(2 * edge + 1) - edge).collect();
        check_comparisons(k, &vals);
    }

    /// Bounded mod2m agrees with plaintext on random inputs.
    #[test]
    fn bounded_mod2m_parity(k in 3u32..30, raw in proptest::collection::vec(any::<u64>(), 1..6)) {
        let t = k - 1;
        let vals: Vec<u64> = raw.iter().map(|v| v % (1u64 << k)).collect();
        let want: Vec<u64> = vals.iter().map(|&v| v & ((1 << t) - 1)).collect();
        let got = mpc_mode(2, CompareBits::Auto, |e| {
            let shares: Vec<Share> = vals.iter().map(|&v| e.constant(Fp::new(v))).collect();
            let low = e.mod2m_vec_bounded(&shares, t, k);
            e.open_vec(&low).iter().map(|v| v.value()).collect::<Vec<_>>()
        });
        prop_assert_eq!(&got[0], &want);
    }
}
