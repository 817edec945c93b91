//! Tests for the evaluation baselines (SPDZ-DT, NPD-DT) and the
//! differential-privacy extension.

use pivot_core::baselines::{npd_dt, spdz_dt};
use pivot_core::dp::{train_dp, DpParams};
use pivot_core::{config::PivotParams, party::PartyContext};
use pivot_data::{partition_vertically, synth, Dataset, Task};
use pivot_transport::run_parties;
use pivot_trees::{train_tree, TreeParams};

fn params(tree: TreeParams) -> PivotParams {
    PivotParams {
        tree,
        keysize: 128,
        ..Default::default()
    }
}

fn crisp_dataset() -> Dataset {
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for i in 0..24 {
        // Asymmetric group sizes (16 vs 8) keep every split gain strictly
        // distinct, so ±1-ulp truncation noise cannot flip a tie-break.
        let x0 = if i < 16 { 10.0 } else { 0.0 };
        let x1 = if i % 2 == 0 { -5.0 } else { 5.0 };
        features.push(vec![x0, x1, (i % 7) as f64]);
        labels.push(if x0 > 5.0 {
            1.0
        } else if x1 > 0.0 {
            1.0
        } else {
            0.0
        });
    }
    Dataset::new(features, labels, Task::Classification { classes: 2 })
}

#[test]
fn npd_dt_equals_centralized_cart() {
    // The non-private distributed baseline must match the centralized
    // trainer exactly — on classification and regression alike.
    let class_data = crisp_dataset();
    let reg_data = synth::make_regression(&synth::RegressionSpec {
        samples: 40,
        features: 4,
        informative: 2,
        noise: 0.05,
        seed: 13,
    });
    for data in [class_data, reg_data] {
        let tree_params = TreeParams {
            max_depth: 3,
            max_splits: 4,
            ..Default::default()
        };
        let reference = train_tree(&data, &tree_params);
        let partition = partition_vertically(&data, 3, 0);
        let p = params(tree_params);
        let trees = run_parties(3, |ep| {
            let view = partition.views[ep.id()].clone();
            let mut ctx = PartyContext::setup(&ep, view, p.clone());
            npd_dt::train(&mut ctx)
        });
        for tree in &trees {
            assert_eq!(tree, &reference, "NPD-DT must equal centralized CART");
        }
    }
}

#[test]
fn spdz_dt_matches_cart_on_crisp_data() {
    let data = crisp_dataset();
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        ..Default::default()
    };
    let reference = train_tree(&data, &tree_params);
    let partition = partition_vertically(&data, 2, 0);
    let p = params(tree_params);
    let trees = run_parties(2, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, p.clone());
        spdz_dt::train(&mut ctx)
    });
    for tree in &trees {
        assert_eq!(
            tree, &reference,
            "SPDZ-DT must reproduce the plaintext CART tree"
        );
    }
}

#[test]
fn spdz_dt_regression() {
    let data = synth::make_regression(&synth::RegressionSpec {
        samples: 30,
        features: 4,
        informative: 2,
        noise: 0.01,
        seed: 3,
    });
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 3,
        stop_when_pure: false,
        ..Default::default()
    };
    let partition = partition_vertically(&data, 2, 0);
    let p = params(tree_params.clone());
    let trees = run_parties(2, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, p.clone());
        spdz_dt::train(&mut ctx)
    });
    let reference = train_tree(&data, &tree_params);
    // Same split structure; leaf values agree to fixed-point precision.
    assert_eq!(trees[0].internal_count(), reference.internal_count());
    let samples: Vec<Vec<f64>> = (0..data.num_samples())
        .map(|i| data.sample(i).to_vec())
        .collect();
    let ref_preds = reference.predict_batch(&samples);
    let got_preds = trees[0].predict_batch(&samples);
    for (g, r) in got_preds.iter().zip(&ref_preds) {
        assert!((g - r).abs() < 1e-2, "prediction {g} vs {r}");
    }
}

#[test]
fn spdz_dt_costs_more_mpc_than_pivot() {
    // The whole point of Figure 5: SPDZ-DT pays vastly more secure
    // multiplications/comparisons than Pivot-Basic on the same task. The
    // gap is O(n) — use enough samples to see it.
    let data = synth::make_classification(&synth::ClassificationSpec {
        samples: 120,
        features: 4,
        informative: 3,
        classes: 2,
        class_sep: 2.0,
        flip_y: 0.0,
        seed: 55,
    });
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        ..Default::default()
    };
    let partition = partition_vertically(&data, 2, 0);
    let p = params(tree_params);

    let pivot_ops = run_parties(2, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, p.clone());
        let _ = pivot_core::train_basic::train(&mut ctx);
        ctx.engine.counters().snapshot().1
    });
    let spdz_ops = run_parties(2, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, p.clone());
        let _ = spdz_dt::train(&mut ctx);
        ctx.engine.counters().snapshot().1
    });
    assert!(
        spdz_ops[0] > 3 * pivot_ops[0],
        "SPDZ-DT ({}) should do far more secure mults than Pivot ({})",
        spdz_ops[0],
        pivot_ops[0]
    );
}

#[test]
fn dp_training_produces_valid_tree() {
    let data = crisp_dataset();
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        stop_when_pure: false,
        ..Default::default()
    };
    let partition = partition_vertically(&data, 2, 0);
    let p = params(tree_params);
    // Large ε ⇒ low noise ⇒ the tree should still be sensible.
    let dp = DpParams {
        epsilon_per_query: 8.0,
    };
    assert!((dp.total_budget(2) - 48.0).abs() < 1e-9);
    let trees = run_parties(2, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, p.clone());
        train_dp(&mut ctx, &dp)
    });
    // All parties hold the same DP tree (the mechanism is jointly sampled).
    assert_eq!(trees[0], trees[1]);
    // With generous budget the tree should classify most training samples.
    let preds: Vec<f64> = (0..data.num_samples())
        .map(|i| trees[0].predict(data.sample(i)))
        .collect();
    let acc = pivot_data::metrics::accuracy(&preds, data.labels());
    assert!(acc > 0.7, "dp tree accuracy {acc}");
}

#[test]
fn dp_noise_actually_randomizes_small_budget() {
    // With a tiny budget the exponential mechanism should (almost surely)
    // pick different splits across different dealer seeds.
    let data = crisp_dataset();
    let tree_params = TreeParams {
        max_depth: 1,
        max_splits: 4,
        stop_when_pure: false,
        ..Default::default()
    };
    let partition = partition_vertically(&data, 2, 0);
    let dp = DpParams {
        epsilon_per_query: 0.01,
    };
    let mut distinct = std::collections::HashSet::new();
    for seed in 0..4u64 {
        let p = PivotParams {
            tree: tree_params.clone(),
            keysize: 128,
            dealer_seed: 1000 + seed,
            ..Default::default()
        };
        let trees = run_parties(2, |ep| {
            let view = partition.views[ep.id()].clone();
            let mut ctx = PartyContext::setup(&ep, view, p.clone());
            train_dp(&mut ctx, &dp)
        });
        if let pivot_trees::Node::Internal {
            feature, threshold, ..
        } = &trees[0].nodes()[trees[0].root()]
        {
            distinct.insert((*feature, (threshold * 1000.0) as i64));
        }
    }
    assert!(
        distinct.len() > 1,
        "tiny ε must randomize the root split; got {distinct:?}"
    );
}

#[test]
fn dp_trees_pay_the_level_steps_costs() {
    // A DP tree is grown by the basic protocol's level step: at a full
    // tree it converts exactly the statistics the exact trainer converts
    // (root and left children only, no pass at a leaf).
    let data = crisp_dataset();
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        stop_when_pure: false,
        ..Default::default()
    };
    let partition = partition_vertically(&data, 2, 0);
    let p = params(tree_params);
    let dp = DpParams {
        epsilon_per_query: 8.0,
    };
    let run = |private: bool| {
        run_parties(2, |ep| {
            let view = partition.views[ep.id()].clone();
            let mut ctx = PartyContext::setup(&ep, view, p.clone());
            let tree = if private {
                train_dp(&mut ctx, &dp)
            } else {
                pivot_core::train_basic::train(&mut ctx)
            };
            (tree, ctx.metrics.threshold_decryptions())
        })
        .remove(0)
    };
    let (exact, exact_decryptions) = run(false);
    let (private, private_decryptions) = run(true);
    assert_eq!(exact.nodes().len(), 7, "the exact tree is full");
    assert_eq!(private.nodes().len(), 7, "the DP tree is full");
    assert_eq!(private_decryptions, exact_decryptions);
}

#[test]
fn dp_regression_leaves_are_noisy_means() {
    let data = synth::make_regression(&synth::RegressionSpec {
        samples: 30,
        features: 4,
        informative: 2,
        noise: 0.01,
        seed: 3,
    });
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 3,
        stop_when_pure: false,
        ..Default::default()
    };
    let partition = partition_vertically(&data, 2, 0);
    let p = params(tree_params);
    let dp = DpParams {
        epsilon_per_query: 8.0,
    };
    let trees = run_parties(2, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, p.clone());
        train_dp(&mut ctx, &dp)
    });
    assert_eq!(trees[0], trees[1]);
    for node in trees[0].nodes() {
        if let pivot_trees::Node::Leaf { value } = node {
            assert!(value.is_finite(), "leaf {value}");
        }
    }
    // A constant predictor's MSE (the labels' variance) bounds the MSE of
    // any partition's leaf means; the leaf noise (scale 2/(2·8)) is far
    // below the labels' spread.
    let labels = data.labels();
    let mean = labels.iter().sum::<f64>() / labels.len() as f64;
    let variance = labels.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / labels.len() as f64;
    let mse = (0..data.num_samples())
        .map(|i| (trees[0].predict(data.sample(i)) - labels[i]).powi(2))
        .sum::<f64>()
        / labels.len() as f64;
    assert!(
        mse < variance,
        "training MSE {mse} vs label variance {variance}"
    );
}

#[test]
fn spdz_dt_rejects_a_feature_wider_than_its_comparisons() {
    // Feature 0 at 0 / 1e8: `τ − x` spans more than the 2^24 a 45-bit
    // fixed-point comparison with 20 fractional bits holds. Pivot and the
    // oracle split on it at 5e7; an unchecked SPDZ-DT comparison wraps and
    // silently grows another tree, so SPDZ-DT must refuse the column at
    // its owner, naming it.
    let crisp = crisp_dataset();
    let features: Vec<Vec<f64>> = (0..crisp.num_samples())
        .map(|i| {
            let mut row = crisp.sample(i).to_vec();
            row[0] *= 1e7;
            row
        })
        .collect();
    let data = Dataset::new(features, crisp.labels().to_vec(), crisp.task());
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        ..Default::default()
    };
    let reference = train_tree(&data, &tree_params);
    assert!(matches!(
        reference.nodes()[reference.root()],
        pivot_trees::Node::Internal { feature: 0, threshold, .. } if threshold == 5e7
    ));
    let partition = partition_vertically(&data, 2, 0);
    let p = params(tree_params);
    let pivot = run_parties(2, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, p.clone());
        pivot_core::train_basic::train(&mut ctx)
    });
    assert_eq!(pivot[0], reference);
    let spdz = std::panic::catch_unwind(|| {
        run_parties(2, |ep| {
            let view = partition.views[ep.id()].clone();
            let mut ctx = PartyContext::setup(&ep, view, p.clone());
            spdz_dt::train(&mut ctx)
        })
    });
    let err = match spdz {
        Ok(trees) => panic!("SPDZ-DT trained {:?}", trees[0]),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    };
    assert!(
        err.contains("party 0 panicked: spdz-dt: feature 0 spans 100000000"),
        "{err}"
    );
}
