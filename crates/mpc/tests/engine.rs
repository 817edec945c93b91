//! Multi-party integration tests for the MPC engine: every protocol is run
//! with real threads and message passing, and checked against plaintext
//! reference computations.

use pivot_mpc::{dp, FixedConfig, Fp, MpcEngine, Share};
use pivot_trace::Counter;
use pivot_transport::run_parties;

const SEED: u64 = 0xD15EA5E;

/// Run an SPMD closure over `m` parties and return the per-party results.
fn mpc<T: Send>(m: usize, f: impl Fn(&mut MpcEngine<'_>) -> T + Send + Sync) -> Vec<T> {
    run_parties(m, |ep| {
        let mut engine = MpcEngine::new(&ep, SEED, FixedConfig::default());
        f(&mut engine)
    })
}

fn cfg() -> FixedConfig {
    FixedConfig::default()
}

#[test]
fn share_and_open_inputs() {
    let results = mpc(3, |e| {
        let secrets = [Fp::new(10), Fp::new(20), Fp::from_i64(-5)];
        let shares = e.share_input(1, if e.party() == 1 { Some(&secrets) } else { None });
        e.open_vec(&shares)
    });
    for r in results {
        assert_eq!(r[0], Fp::new(10));
        assert_eq!(r[1], Fp::new(20));
        assert_eq!(r[2], Fp::from_i64(-5));
    }
}

#[test]
fn beaver_multiplication() {
    let results = mpc(3, |e| {
        let a = e.constant(Fp::from_i64(-7));
        let b = e.constant(Fp::new(6));
        let c = e.mul(a, b);
        e.open(c).to_i64()
    });
    assert!(results.iter().all(|&r| r == -42));
}

#[test]
fn vectorized_multiplication() {
    let results = mpc(2, |e| {
        let a: Vec<Share> = (0..50).map(|i| e.constant(Fp::new(i))).collect();
        let b: Vec<Share> = (0..50).map(|i| e.constant(Fp::new(i + 1))).collect();
        let c = e.mul_vec(&a, &b);
        e.open_vec(&c)
    });
    for r in results {
        for i in 0..50u64 {
            assert_eq!(r[i as usize].value(), i * (i + 1));
        }
    }
}

#[test]
fn fixed_point_multiplication() {
    let results = mpc(3, |e| {
        let a = e.constant_f64(2.5);
        let b = e.constant_f64(-4.25);
        let c = e.fixmul_vec(&[a], &[b]);
        let v = e.open(c[0]);
        e.cfg.decode(v)
    });
    for r in results {
        assert!((r - -10.625).abs() < 1e-4, "got {r}");
    }
}

#[test]
fn truncation_shifts_values() {
    let results = mpc(2, |e| {
        let x = e.constant(Fp::new(1000 << 8));
        let t = e.trunc_vec(&[x], 8);
        e.open(t[0]).to_i64()
    });
    // ±1 probabilistic error allowed.
    for r in results {
        assert!((r - 1000).abs() <= 1, "got {r}");
    }
}

#[test]
fn truncation_handles_negatives() {
    let results = mpc(2, |e| {
        let x = e.constant(Fp::from_i64(-(1000 << 8)));
        let t = e.trunc_vec(&[x], 8);
        e.open(t[0]).to_i64()
    });
    for r in results {
        assert!((r + 1000).abs() <= 1, "got {r}");
    }
}

#[test]
fn ltz_detects_signs() {
    let results = mpc(3, |e| {
        let xs = [
            e.constant(Fp::from_i64(-1)),
            e.constant(Fp::ZERO),
            e.constant(Fp::new(1)),
            e.constant(Fp::from_i64(-123456)),
            e.constant(Fp::new(99999)),
            e.constant_f64(-0.001),
        ];
        let signs = e.ltz_vec_bounded(&xs, e.cfg.int_bits);
        let opened = e.open_vec(&signs);
        opened.iter().map(|v| v.value()).collect::<Vec<_>>()
    });
    for r in results {
        assert_eq!(r, vec![1, 0, 0, 1, 0, 1]);
    }
}

#[test]
fn comparison_lt() {
    let results = mpc(2, |e| {
        let a = [e.constant_f64(1.5), e.constant_f64(3.0)];
        let b = [e.constant_f64(2.0), e.constant_f64(-3.0)];
        let lt = e.lt_vec_bounded(&a, &b, e.cfg.int_bits);
        e.open_vec(&lt)
            .iter()
            .map(|v| v.value())
            .collect::<Vec<_>>()
    });
    for r in results {
        assert_eq!(r, vec![1, 0]);
    }
}

#[test]
fn oblivious_select() {
    let results = mpc(2, |e| {
        let cond = [e.constant(Fp::ONE), e.constant(Fp::ZERO)];
        let a = [e.constant(Fp::new(111)), e.constant(Fp::new(222))];
        let b = [e.constant(Fp::new(333)), e.constant(Fp::new(444))];
        let sel = e.select_vec(&cond, &a, &b);
        e.open_vec(&sel)
            .iter()
            .map(|v| v.value())
            .collect::<Vec<_>>()
    });
    for r in results {
        assert_eq!(r, vec![111, 444]);
    }
}

#[test]
fn mod2m_extracts_low_bits() {
    let results = mpc(2, |e| {
        let x = e.constant(Fp::new(0b1011_0110));
        let low = e.mod2m_vec_bounded(&[x], 4, e.cfg.int_bits);
        e.open(low[0]).value()
    });
    for r in results {
        assert_eq!(r, 0b0110);
    }
}

#[test]
fn argmax_tournament_matches_plaintext() {
    let vals = [3.0f64, -1.0, 7.5, 7.25, 0.0, 2.0];
    let results = mpc(3, |e| {
        let shares: Vec<Share> = vals.iter().map(|&v| e.constant_f64(v)).collect();
        let (idx, max) = e.argmax_bounded(&shares, e.cfg.int_bits);
        let opened = e.open_vec(&[idx, max]);
        (opened[0].value(), e.cfg.decode(opened[1]))
    });
    for (idx, max) in results {
        assert_eq!(idx, 2);
        assert!((max - 7.5).abs() < 1e-4);
    }
}

#[test]
fn onehot_encodes_index() {
    let results = mpc(2, |e| {
        let idx = e.constant(Fp::new(3));
        let hot = e.onehot_many(&[(idx, 6)]).remove(0);
        e.open_vec(&hot)
            .iter()
            .map(|v| v.value())
            .collect::<Vec<_>>()
    });
    for r in results {
        assert_eq!(r, vec![0, 0, 0, 1, 0, 0]);
    }
}

#[test]
fn reciprocal_accuracy() {
    let denoms = [1.0f64, 2.0, 3.0, 10.0, 100.0, 777.0, 1000.0];
    let results = mpc(2, |e| {
        let d: Vec<Share> = denoms.iter().map(|&v| e.constant_f64(v)).collect();
        let r = e.recip_vec(&d, 1024.0);
        let opened = e.open_vec(&r);
        opened.iter().map(|&v| e.cfg.decode(v)).collect::<Vec<_>>()
    });
    for r in results {
        for (got, want) in r.iter().zip(denoms.iter().map(|d| 1.0 / d)) {
            assert!(
                (got - want).abs() < 1e-3 + want * 1e-3,
                "reciprocal got {got}, want {want}"
            );
        }
    }
}

#[test]
fn division() {
    let results = mpc(3, |e| {
        let a = [e.constant_f64(10.0), e.constant_f64(-9.0)];
        let b = [e.constant_f64(4.0), e.constant_f64(3.0)];
        let q = e.div_vec(&a, &b, 16.0);
        let opened = e.open_vec(&q);
        opened.iter().map(|&v| e.cfg.decode(v)).collect::<Vec<_>>()
    });
    for r in results {
        assert!((r[0] - 2.5).abs() < 1e-3, "10/4 got {}", r[0]);
        assert!((r[1] + 3.0).abs() < 1e-2, "-9/3 got {}", r[1]);
    }
}

#[test]
fn exponential_approximation() {
    let xs = [0.0f64, 1.0, -1.0, 2.0, -3.0];
    let results = mpc(2, |e| {
        let shares: Vec<Share> = xs.iter().map(|&v| e.constant_f64(v)).collect();
        let ex = e.exp_vec(&shares);
        let opened = e.open_vec(&ex);
        opened.iter().map(|&v| e.cfg.decode(v)).collect::<Vec<_>>()
    });
    for r in results {
        for (got, x) in r.iter().zip(xs) {
            let want = x.exp();
            let rel = (got - want).abs() / want;
            assert!(rel < 0.02, "exp({x}) got {got}, want {want}");
        }
    }
}

#[test]
fn natural_log_on_unit_interval() {
    let ys = [1.0f64, 0.9, 0.5, 0.25];
    let results = mpc(2, |e| {
        let shares: Vec<Share> = ys.iter().map(|&v| e.constant_f64(v)).collect();
        let ln = e.ln_unit_vec(&shares);
        let opened = e.open_vec(&ln);
        opened.iter().map(|&v| e.cfg.decode(v)).collect::<Vec<_>>()
    });
    for r in results {
        for (got, y) in r.iter().zip(ys) {
            let want = y.ln();
            assert!((got - want).abs() < 0.05, "ln({y}) got {got}, want {want}");
        }
    }
}

#[test]
fn softmax_sums_to_one() {
    let logits = [1.0f64, 2.0, 0.5, -1.0];
    let results = mpc(2, |e| {
        let shares: Vec<Share> = logits.iter().map(|&v| e.constant_f64(v)).collect();
        let sm = e.softmax_rows(&shares, 4);
        let opened = e.open_vec(&sm);
        opened.iter().map(|&v| e.cfg.decode(v)).collect::<Vec<_>>()
    });
    for r in results {
        let total: f64 = r.iter().sum();
        assert!((total - 1.0).abs() < 0.02, "softmax sums to {total}");
        // Order preserved: logit 1 (2.0) largest, logit 3 (-1.0) smallest.
        assert!(r[1] > r[0] && r[0] > r[2] && r[2] > r[3], "{r:?}");
        // Cross-check against plaintext softmax.
        let max = 2.0f64;
        let exps: Vec<f64> = logits.iter().map(|x| (x - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        for (got, want) in r.iter().zip(exps.iter().map(|e| e / z)) {
            assert!((got - want).abs() < 0.02, "got {got}, want {want}");
        }
    }
}

#[test]
fn clamped_softmax_matches_full_width_and_narrows_comparisons() {
    let logits = [1.0f64, 2.0, 0.5, -1.0, -0.25, 1.5, 0.0, 0.75];
    // |logit| ≤ 2: the clamp runs at the width that bound justifies.
    let results = mpc(2, |e| {
        let shares: Vec<Share> = logits.iter().map(|&v| e.constant_f64(v)).collect();
        let bits = |e: &pivot_mpc::MpcEngine<'_>| -> u64 {
            (0u64..)
                .zip(e.endpoint().counters().snapshot().cells(Counter::CmpWidths))
                .map(|(k, &n)| k * n)
                .sum()
        };
        let full = e.softmax_rows(&shares, 4);
        let width_before = bits(e);
        let clamped = e.softmax_rows_clamped(&shares, 4, 2.0);
        let width_clamped = bits(e) - width_before;
        let opened_full = e.open_vec(&full);
        let opened_clamped = e.open_vec(&clamped);
        let full: Vec<f64> = opened_full.iter().map(|&v| e.cfg.decode(v)).collect();
        let clamped: Vec<f64> = opened_clamped.iter().map(|&v| e.cfg.decode(v)).collect();
        (full, clamped, width_before, width_clamped)
    });
    for (full, clamped, width_full, width_clamped) in results {
        for (a, b) in full.iter().zip(&clamped) {
            assert!((a - b).abs() < 5e-4, "clamped {b} vs full {a}");
        }
        let total: f64 = clamped.iter().take(4).sum();
        assert!((total - 1.0).abs() < 0.02, "row sums to {total}");
        assert!(
            width_clamped < width_full,
            "bounded clamp must compare fewer bits ({width_clamped} vs {width_full})"
        );
    }
}

#[test]
fn clamped_exp_matches_full_width() {
    let xs = [-3.0f64, -1.0, 0.0, 0.5, 2.0];
    let results = mpc(2, |e| {
        let shares: Vec<Share> = xs.iter().map(|&v| e.constant_f64(v)).collect();
        let full = e.exp_vec(&shares);
        let clamped = e.exp_vec_clamped(&shares, 3.0);
        let a = e.open_vec(&full);
        let b = e.open_vec(&clamped);
        (
            a.iter().map(|&v| e.cfg.decode(v)).collect::<Vec<_>>(),
            b.iter().map(|&v| e.cfg.decode(v)).collect::<Vec<_>>(),
        )
    });
    for (full, clamped) in results {
        for (a, b) in full.iter().zip(&clamped) {
            assert!((a - b).abs() < 5e-4, "clamped {b} vs full {a}");
        }
    }
}

#[test]
fn laplace_sampler_statistics() {
    // Draw a batch of Laplace(0, 1) samples and sanity-check moments.
    let results = mpc(2, |e| {
        let samples = dp::laplace_sample_vec(e, 0.0, 1.0, 64);
        let opened = e.open_vec(&samples);
        opened.iter().map(|&v| e.cfg.decode(v)).collect::<Vec<_>>()
    });
    let samples = &results[0];
    let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
    // Laplace(0,1) has mean 0 and std sqrt(2); 64 samples → loose bounds.
    assert!(mean.abs() < 0.8, "sample mean {mean} too far from 0");
    let has_pos = samples.iter().any(|&s| s > 0.01);
    let has_neg = samples.iter().any(|&s| s < -0.01);
    assert!(has_pos && has_neg, "both signs should occur");
}

#[test]
fn exponential_mechanism_prefers_high_scores() {
    // One candidate has a much higher score; with ε=4, Δ=1 it should win
    // almost always.
    let results = mpc(2, |e| {
        let scores = vec![
            e.constant_f64(0.1),
            e.constant_f64(6.0),
            e.constant_f64(0.2),
        ];
        let idx = dp::exponential_mechanism(e, &[scores], 4.0, 1.0)[0];
        e.open(idx).value()
    });
    // All parties agree on the opened index; it is overwhelmingly 1.
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], 1);
}

#[test]
fn counters_track_operations() {
    let results = mpc(2, |e| {
        let a = e.constant(Fp::new(3));
        let b = e.constant(Fp::new(4));
        let _ = e.mul(a, b);
        let _ = e.ltz_vec_bounded(&[a], e.cfg.int_bits);
        let c = e.endpoint().counters();
        (
            c.get(Counter::Rounds),
            c.get(Counter::SecureMults),
            c.get(Counter::SecureComparisons),
        )
    });
    for (rounds, mults, cmps) in results {
        assert!(rounds > 0);
        assert!(mults >= 1);
        assert_eq!(cmps, 1);
    }
}

#[test]
fn works_with_many_parties() {
    let results = mpc(6, |e| {
        let x = e.constant_f64(5.0);
        let y = e.constant_f64(-2.5);
        let p = e.fixmul_vec(&[x], &[y]);
        let v = e.open(p[0]);
        e.cfg.decode(v)
    });
    for r in results {
        assert!((r + 12.5).abs() < 1e-3);
    }
}

#[test]
fn fixed_config_is_honoured() {
    let narrow = FixedConfig {
        frac_bits: 10,
        int_bits: 30,
        kappa: 14,
    };
    let results = run_parties(2, |ep| {
        let mut e = MpcEngine::new(&ep, SEED, narrow);
        let a = e.constant(narrow.encode(1.5));
        let b = e.constant(narrow.encode(2.0));
        let c = e.fixmul_vec(&[a], &[b]);
        narrow.decode(e.open(c[0]))
    });
    for r in results {
        assert!((r - 3.0).abs() < 1e-2);
    }
}

#[test]
fn cfg_default_matches() {
    assert_eq!(cfg().frac_bits, 20);
}
