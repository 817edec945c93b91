//! End-to-end tests for the ensemble extensions (§7): random forest and
//! GBDT with encrypted residual labels.

use pivot_core::ensemble::{
    gbdt::predict_gbdt_batch, rf::predict_rf_batch, train_gbdt, train_rf, GbdtProtocolParams,
    RfProtocolParams,
};
use pivot_core::{config::PivotParams, party::PartyContext};
use pivot_data::{metrics, partition_vertically, synth, Dataset, Task};
use pivot_transport::run_parties;
use pivot_trees::TreeParams;

fn params(tree: TreeParams) -> PivotParams {
    PivotParams {
        tree,
        keysize: 128,
        ..Default::default()
    }
}

#[test]
fn random_forest_classification() {
    let data = synth::make_classification(&synth::ClassificationSpec {
        samples: 48,
        features: 6,
        informative: 4,
        classes: 2,
        class_sep: 2.5,
        flip_y: 0.0,
        seed: 31,
    });
    let m = 3;
    let p = params(TreeParams {
        max_depth: 2,
        max_splits: 3,
        ..Default::default()
    });
    let rf = RfProtocolParams {
        trees: 3,
        ..Default::default()
    };
    let partition = partition_vertically(&data, m, 0);
    let results = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view.clone(), p.clone());
        let model = train_rf(&mut ctx, &rf);
        let local: Vec<Vec<f64>> = (0..8).map(|i| view.features[i].clone()).collect();
        let preds = predict_rf_batch(&mut ctx, &model, &local);
        (model.trees.len(), preds)
    });
    let (count, preds) = &results[0];
    assert_eq!(*count, 3);
    for (c, p2) in &results[1..] {
        assert_eq!(c, count);
        assert_eq!(p2, preds);
    }
    // Majority vote should classify crisply separated data well.
    let truth: Vec<f64> = (0..8).map(|i| data.label(i)).collect();
    let acc = metrics::accuracy(preds, &truth);
    assert!(acc >= 0.75, "rf accuracy {acc}");
}

#[test]
fn random_forest_regression_mean() {
    let data = synth::make_regression(&synth::RegressionSpec {
        samples: 40,
        features: 4,
        informative: 2,
        noise: 0.01,
        seed: 77,
    });
    let m = 2;
    let p = params(TreeParams {
        max_depth: 2,
        max_splits: 3,
        ..Default::default()
    });
    let rf = RfProtocolParams {
        trees: 2,
        ..Default::default()
    };
    let partition = partition_vertically(&data, m, 0);
    let results = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view.clone(), p.clone());
        let model = train_rf(&mut ctx, &rf);
        let local: Vec<Vec<f64>> = (0..6).map(|i| view.features[i].clone()).collect();
        let preds = predict_rf_batch(&mut ctx, &model, &local);
        (model, preds)
    });
    let (model, preds) = &results[0];
    // Distributed prediction must equal the centralized mean over trees.
    for i in 0..6 {
        let central: f64 = model
            .trees
            .iter()
            .map(|t| t.predict(data.sample(i)))
            .sum::<f64>()
            / model.trees.len() as f64;
        assert!(
            (preds[i] - central).abs() < 1e-3,
            "sample {i}: {} vs {central}",
            preds[i]
        );
    }
}

#[test]
fn gbdt_regression_learns() {
    let data = synth::make_regression(&synth::RegressionSpec {
        samples: 40,
        features: 4,
        informative: 3,
        noise: 0.02,
        seed: 21,
    });
    let m = 2;
    let p = params(TreeParams {
        max_depth: 2,
        max_splits: 3,
        stop_when_pure: false,
        ..Default::default()
    });
    let g = GbdtProtocolParams {
        rounds: 3,
        learning_rate: 0.5,
    };
    let partition = partition_vertically(&data, m, 0);
    let results = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view.clone(), p.clone());
        let model = train_gbdt(&mut ctx, &g);
        let local: Vec<Vec<f64>> = (0..view.num_samples())
            .map(|i| view.features[i].clone())
            .collect();
        let preds = predict_gbdt_batch(&mut ctx, &model, &local);
        (model.forests[0].len(), preds)
    });
    let (rounds, preds) = &results[0];
    assert_eq!(*rounds, 3);
    for (r, p2) in &results[1..] {
        assert_eq!(r, rounds);
        assert_eq!(p2, preds);
    }
    // Boosted predictions must beat the mean baseline on training data.
    let mse = metrics::mse(preds, data.labels());
    let mean: f64 = data.labels().iter().sum::<f64>() / data.num_samples() as f64;
    let base_mse = metrics::mse(&vec![mean; data.num_samples()], data.labels());
    assert!(mse < base_mse, "gbdt mse {mse} vs baseline {base_mse}");
}

#[test]
fn gbdt_classification_one_vs_rest() {
    // Crisp two-feature data so 2 rounds suffice.
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for i in 0..30 {
        let x0 = if i % 2 == 0 { -3.0 } else { 3.0 };
        features.push(vec![x0 + (i % 3) as f64 * 0.1, (i % 5) as f64]);
        labels.push(f64::from(i % 2 == 1));
    }
    let data = Dataset::new(features, labels, Task::Classification { classes: 2 });
    let m = 2;
    let p = params(TreeParams {
        max_depth: 2,
        max_splits: 3,
        stop_when_pure: false,
        ..Default::default()
    });
    let g = GbdtProtocolParams {
        rounds: 2,
        learning_rate: 0.8,
    };
    let partition = partition_vertically(&data, m, 0);
    let results = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view.clone(), p.clone());
        let model = train_gbdt(&mut ctx, &g);
        let local: Vec<Vec<f64>> = (0..view.num_samples())
            .map(|i| view.features[i].clone())
            .collect();
        predict_gbdt_batch(&mut ctx, &model, &local)
    });
    let acc = metrics::accuracy(&results[0], data.labels());
    assert!(acc >= 0.9, "gbdt classification accuracy {acc}");
}

#[test]
fn gbdt_depth_three_first_stage_is_the_cart_regression_tree() {
    // Depth 3 is where a GBDT node hands *three* encrypted vectors
    // (`[α]`, `[γ₁]`, `[γ₂]`) to each child that reads them — both sides
    // at the root, the left side only one level down, none at the last
    // split level. The first stage's residuals are the labels themselves,
    // so its tree is the plaintext CART regression tree.
    let data = synth::make_regression(&synth::RegressionSpec {
        samples: 48,
        features: 6,
        informative: 4,
        noise: 0.05,
        seed: 5,
    });
    let m = 3;
    let tree_params = TreeParams {
        max_depth: 3,
        min_samples: 6,
        max_splits: 3,
        stop_when_pure: false,
    };
    let reference = pivot_trees::train_tree(&data, &tree_params);
    assert_eq!(
        reference.internal_count(),
        7,
        "a full tree: every mask rule row"
    );
    let p = params(tree_params);
    let g = GbdtProtocolParams {
        rounds: 1,
        learning_rate: 0.5,
    };
    let partition = partition_vertically(&data, m, 0);
    let models = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, p.clone());
        train_gbdt(&mut ctx, &g)
    });
    for model in &models {
        let tree = &model.forests[0][0];
        assert_eq!(tree.root(), reference.root());
        assert_eq!(tree.nodes().len(), reference.nodes().len());
        for (node, expect) in tree.nodes().iter().zip(reference.nodes()) {
            use pivot_trees::Node::{Internal, Leaf};
            match (node, expect) {
                (Internal { .. }, Internal { .. }) => assert_eq!(node, expect),
                (Leaf { value }, Leaf { value: ev }) => {
                    assert!((value - ev).abs() < 1e-3, "leaf {value} vs {ev}")
                }
                _ => panic!("structure mismatch: {node:?} vs {expect:?}"),
            }
        }
    }
}
