//! Bounded-width comparison tests against the plaintext sign / mod /
//! argmax / reciprocal: boundary values, every width policy, the two-sided
//! shared-mask LTZ, and the round/byte accounting of narrow vs full-width
//! (`Floor(int_bits)`) comparisons.

use pivot_mpc::{dp, CompareBits, ComparisonCounters, FixedConfig, Fp, MpcEngine, Share};
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
        let snap = e.comparison_snapshot();
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
        assert_eq!(snap.count, 2 * vals.len() as u64);
        assert_eq!(snap.masked_bit_rows, vals.len() as u64);
    }
}

#[test]
fn onehot_matches_plaintext_and_halves_masked_rows() {
    let domain = 9usize;
    let (opened, snap) = mpc_mode(2, CompareBits::Auto, |e| {
        let idx = e.constant(Fp::new(4));
        let hot = e.onehot_many(&[(idx, domain)]).remove(0);
        let opened: Vec<u64> = e.open_vec(&hot).iter().map(|v| v.value()).collect();
        (opened, e.comparison_snapshot())
    })
    .remove(0);
    let mut want = vec![0u64; domain];
    want[4] = 1;
    assert_eq!(opened, want);
    // 2·domain comparisons (both sides of every idx − j) on half as many
    // masked rows: each pair shares one.
    assert_eq!(snap.count, 2 * domain as u64);
    assert_eq!(snap.masked_bit_rows, domain as u64);
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
            let before = e.counters().snapshot().0;
            if lockstep {
                let _ = e.argmax_many_bounded(&shares, 9);
            } else {
                for row in &shares {
                    let _ = e.argmax_bounded(row, 9);
                }
            }
            e.counters().snapshot().0 - before
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
        let before = e.counters().snapshot().0;
        let t_a = e.open_deferred(&a);
        let t_b = e.open_deferred(&b);
        assert_eq!(e.deferred_pending(), 2);
        let opened = e.resolve();
        let rounds = e.counters().snapshot().0 - before;
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
/// bits against the same batch at full width.
#[test]
fn bounded_widths_cut_opened_elements_and_rounds() {
    let vals: Vec<i64> = (0..64).map(|i| (i % 13) - 6).collect();
    let measure = |mode| -> ComparisonCounters {
        mpc_mode(2, mode, |e| {
            let shares: Vec<Share> = vals.iter().map(|&v| e.constant(Fp::from_i64(v))).collect();
            let _ = e.ltz_vec_bounded(&shares, 6);
            e.comparison_snapshot()
        })
        .remove(0)
    };
    let full = measure(full_width());
    let auto = measure(CompareBits::Auto);
    assert_eq!(full.count, auto.count);
    assert!(
        full.opened_elements >= 2 * auto.opened_elements,
        "opened: full {} vs auto {}",
        full.opened_elements,
        auto.opened_elements
    );
    assert!(
        full.online_rounds >= 2 * auto.online_rounds,
        "rounds: full {} vs auto {}",
        full.online_rounds,
        auto.online_rounds
    );
    assert!(
        full.masked_bits >= 4 * auto.masked_bits,
        "masked bits: full {} vs auto {}",
        full.masked_bits,
        auto.masked_bits
    );
    // The width histogram records the effective widths.
    assert_eq!(full.widths, vec![(45, vals.len() as u64)]);
    assert_eq!(auto.widths, vec![(6, vals.len() as u64)]);
}

#[test]
fn floor_policy_raises_narrow_widths_only() {
    let results = mpc_mode(2, CompareBits::Floor(12), |e| {
        let a = e.constant(Fp::from_i64(-2));
        let b = e.constant(Fp::from_i64(900));
        let _ = e.ltz_vec_bounded(&[a], 4); // floored up to 12
        let _ = e.ltz_vec_bounded(&[b], 20); // stays 20
        e.comparison_snapshot().widths
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
            let scores = [
                e.constant_f64(0.1),
                e.constant_f64(6.0),
                e.constant_f64(0.2),
            ];
            let idx = dp::exponential_mechanism(e, &scores, 4.0, 1.0);
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
