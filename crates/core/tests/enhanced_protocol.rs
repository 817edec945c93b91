//! End-to-end tests for the Pivot enhanced protocol (§5): concealed models
//! must classify like the basic protocol's plaintext models, while
//! revealing only split features — never thresholds or leaf labels.

use pivot_core::{
    config::PivotParams, model::ConcealedNode, party::PartyContext, predict_enhanced, train_basic,
    train_enhanced, Counter,
};
use pivot_data::{partition_vertically, synth, Dataset, Task};
use pivot_mpc::{CompareBits, FixedConfig};
use pivot_transport::run_parties;
use pivot_trees::TreeParams;

fn enhanced_params(tree: TreeParams) -> PivotParams {
    let mut p = PivotParams::enhanced();
    p.tree = tree;
    p.tree.stop_when_pure = false;
    p.keysize = 192;
    p
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
fn enhanced_training_and_prediction() {
    let data = crisp_dataset();
    let m = 3;
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        stop_when_pure: false,
        ..Default::default()
    };
    let params = enhanced_params(tree_params.clone());
    let partition = partition_vertically(&data, m, 0);

    let results = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view.clone(), params.clone());
        let tree = train_enhanced::train(&mut ctx);
        // Predict the training samples through the concealed model.
        let local_samples: Vec<Vec<f64>> = (0..view.num_samples())
            .map(|i| view.features[i].clone())
            .collect();
        let preds = predict_enhanced::predict_batch(&mut ctx, &tree, &local_samples);
        (tree.internal_count(), tree.leaf_count(), preds)
    });

    let (internals, leaves, preds) = &results[0];
    assert!(*internals >= 1, "tree must have split at least once");
    assert_eq!(*leaves, internals + 1);
    for (_, _, other) in &results[1..] {
        assert_eq!(preds, other, "all parties agree on predictions");
    }
    // Concealed-model predictions must equal the true labels on this
    // crisply separable data.
    let correct = preds
        .iter()
        .zip(data.labels())
        .filter(|(p, t)| (**p - **t).abs() < 0.5)
        .count();
    assert!(
        correct >= 22,
        "concealed model classified only {correct}/24 training samples"
    );
}

#[test]
fn enhanced_model_structure_is_concealed() {
    let data = crisp_dataset();
    let m = 2;
    let params = enhanced_params(TreeParams {
        max_depth: 2,
        max_splits: 4,
        stop_when_pure: false,
        ..Default::default()
    });
    let partition = partition_vertically(&data, m, 0);
    let results = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        train_enhanced::train(&mut ctx)
    });
    let tree = &results[0];
    // The concealed model exposes features but only ciphertexts for
    // thresholds and leaf labels.
    for node in &tree.nodes {
        match node {
            ConcealedNode::Internal {
                enc_threshold,
                client,
                ..
            } => {
                assert!(*client < m);
                // A ciphertext, not a plain encoding: must exceed the
                // trivial encoding magnitude of any data value.
                assert!(enc_threshold.raw().bits() > 64);
            }
            ConcealedNode::Leaf { enc_value } => {
                assert!(enc_value.raw().bits() > 64);
            }
        }
    }
}

#[test]
fn enhanced_agrees_with_basic_on_predictions() {
    let data = crisp_dataset();
    let m = 2;
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        stop_when_pure: false,
        ..Default::default()
    };
    let partition = partition_vertically(&data, m, 0);

    // Train basic (plaintext model) and enhanced (concealed model) on the
    // same data and compare predictions sample by sample.
    let basic_params = PivotParams {
        tree: tree_params.clone(),
        keysize: 128,
        ..Default::default()
    };
    let basic_trees = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, basic_params.clone());
        train_basic::train(&mut ctx)
    });

    let enh_params = enhanced_params(tree_params);
    let enh_preds = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view.clone(), enh_params.clone());
        let tree = train_enhanced::train(&mut ctx);
        let local_samples: Vec<Vec<f64>> = (0..view.num_samples())
            .map(|i| view.features[i].clone())
            .collect();
        predict_enhanced::predict_batch(&mut ctx, &tree, &local_samples)
    });

    let basic_preds: Vec<f64> = (0..data.num_samples())
        .map(|i| basic_trees[0].predict(data.sample(i)))
        .collect();
    assert_eq!(
        basic_preds, enh_preds[0],
        "basic and enhanced protocols must learn the same function here"
    );
}

#[test]
fn enhanced_regression() {
    let data = synth::make_regression(&synth::RegressionSpec {
        samples: 24,
        features: 4,
        informative: 2,
        noise: 0.01,
        seed: 17,
    });
    let m = 2;
    let params = enhanced_params(TreeParams {
        max_depth: 2,
        max_splits: 3,
        stop_when_pure: false,
        ..Default::default()
    });
    let partition = partition_vertically(&data, m, 0);
    let results = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view.clone(), params.clone());
        let tree = train_enhanced::train(&mut ctx);
        let local_samples: Vec<Vec<f64>> = (0..view.num_samples())
            .map(|i| view.features[i].clone())
            .collect();
        predict_enhanced::predict_batch(&mut ctx, &tree, &local_samples)
    });
    // Predictions bounded by the normalized label range, and better than
    // the trivial mean predictor on training data.
    let preds = &results[0];
    assert!(preds.iter().all(|p| p.abs() <= 1.5), "{preds:?}");
    let mse = pivot_data::metrics::mse(preds, data.labels());
    let mean: f64 = data.labels().iter().sum::<f64>() / data.num_samples() as f64;
    let base: Vec<f64> = vec![mean; data.num_samples()];
    let base_mse = pivot_data::metrics::mse(&base, data.labels());
    assert!(
        mse < base_mse,
        "tree mse {mse} should beat mean baseline {base_mse}"
    );
}

#[test]
fn packed_enhanced_predicts_like_unpacked() {
    // Packed (level-wise) enhanced training must release a model that
    // predicts identically to the unpacked run's: split structure is
    // argmax-exact, and predictions reveal leaf-label equality without
    // opening the concealed ciphertexts.
    //
    // The dataset needs two properties, or the comparison is ill-posed:
    // every split-gain argmax must have a margin ≫ the ±1-ulp
    // probabilistic-truncation noise (whose dealer randomness aligns
    // differently under the level-wise schedule — near-tie data flips
    // structure even between two *unpacked* runs with different dealer
    // seeds), and no internal node may be pure (a pure node ties every
    // split at equal gain). A decision list with a few label flips keeps
    // margins macroscopic and every node impure.
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for i in 0..24 {
        let x0 = if i < 16 { 10.0 } else { 0.0 };
        let x1 = if i % 2 == 0 { -5.0 } else { 5.0 };
        features.push(vec![x0, x1, (i % 7) as f64]);
        labels.push(if i < 16 {
            // Impure left group: 14×1, 2×0, the zeros isolated by x2.
            if i == 0 || i == 7 {
                0.0
            } else {
                1.0
            }
        } else {
            (i % 2) as f64
        });
    }
    let data = Dataset::new(features, labels, Task::Classification { classes: 2 });
    let m = 3;
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        stop_when_pure: false,
        ..Default::default()
    };
    let run = |params: PivotParams| {
        let partition = partition_vertically(&data, m, 0);
        run_parties(m, |ep| {
            let view = partition.views[ep.id()].clone();
            let mut ctx = PartyContext::setup(&ep, view.clone(), params.clone());
            let tree = train_enhanced::train(&mut ctx);
            let local_samples: Vec<Vec<f64>> = (0..view.num_samples())
                .map(|i| view.features[i].clone())
                .collect();
            let preds = predict_enhanced::predict_batch(&mut ctx, &tree, &local_samples);
            (tree, preds, ctx.counters.get(Counter::SplitStatCiphertexts))
        })
    };
    let mut unpacked_params = enhanced_params(tree_params.clone());
    unpacked_params.packing = pivot_core::config::Packing::Off;
    let unpacked = run(unpacked_params);
    // Auto packing is the default.
    let packed = run(enhanced_params(tree_params));

    let (u_tree, u_preds, u_stats) = &unpacked[0];
    let (p_tree, p_preds, p_stats) = &packed[0];
    assert_eq!(p_preds, u_preds, "packed predictions must match");
    assert_eq!(p_tree.internal_count(), u_tree.internal_count());
    // Same public structure (client, feature, arena shape).
    for (a, b) in p_tree.nodes.iter().zip(&u_tree.nodes) {
        match (a, b) {
            (
                ConcealedNode::Internal {
                    client,
                    feature_global,
                    left,
                    right,
                    ..
                },
                ConcealedNode::Internal {
                    client: rc,
                    feature_global: rfg,
                    left: rl,
                    right: rr,
                    ..
                },
            ) => assert_eq!((client, feature_global, left, right), (rc, rfg, rl, rr)),
            (ConcealedNode::Leaf { .. }, ConcealedNode::Leaf { .. }) => {}
            _ => panic!("structure mismatch"),
        }
    }
    // Packing cuts the pooled split-statistics ciphertext volume. (Total
    // decryptions are scale-dependent here: the per-level slack refresh
    // costs 2n conversions per node, which only amortizes once
    // total·stride ≫ n — see the packing baseline scenario.)
    assert!(
        p_stats < u_stats,
        "packed run should pool fewer split-stat ciphertexts ({p_stats} vs {u_stats})"
    );
    for (tree, preds, _) in &packed[1..] {
        assert_eq!(preds, p_preds);
        assert_eq!(tree.internal_count(), p_tree.internal_count());
    }
}

#[test]
fn bounded_prediction_comparisons_match_full_width() {
    // The per-feature range contract drives `ltz_vec_bounded` at
    // prediction time; the predictions must be identical to a run whose
    // width floor pins every comparison to `int_bits`, while the
    // predict-phase comparison widths stay below `int_bits`.
    let data = crisp_dataset();
    let m = 2;
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        stop_when_pure: false,
        ..Default::default()
    };
    let partition = partition_vertically(&data, m, 0);
    let params = enhanced_params(tree_params);
    let run = |floor: Option<u32>| {
        run_parties(m, |ep| {
            let view = partition.views[ep.id()].clone();
            let mut ctx = PartyContext::setup(&ep, view.clone(), params.clone());
            if let Some(n) = floor {
                ctx.engine.configure_comparisons(CompareBits::Floor(n), 0);
            }
            let tree = train_enhanced::train(&mut ctx);
            let local_samples: Vec<Vec<f64>> = (0..view.num_samples())
                .map(|i| view.features[i].clone())
                .collect();
            let before = ctx.counters.snapshot();
            let preds = predict_enhanced::predict_batch(&mut ctx, &tree, &local_samples);
            // Widths exercised during prediction only.
            let predict_widths: Vec<u32> = (0u32..)
                .zip((&ctx.counters.snapshot() - &before).cells(Counter::CmpWidths))
                .filter_map(|(w, &n)| (n > 0).then_some(w))
                .collect();
            (preds, predict_widths)
        })
    };

    let int_bits = FixedConfig::default().int_bits;
    let full = run(Some(int_bits));
    let bounded = run(None);

    for ((f_preds, f_widths), (b_preds, b_widths)) in full.iter().zip(&bounded) {
        assert_eq!(
            f_preds, b_preds,
            "range-contract comparisons changed a prediction"
        );
        assert!(
            f_widths.iter().all(|&w| w == int_bits),
            "full-width run used widths {f_widths:?}"
        );
        assert!(
            !b_widths.is_empty() && b_widths.iter().all(|&w| w < int_bits),
            "bounded run paid widths {b_widths:?} (int_bits = {int_bits})"
        );
    }
}

/// Train + predict the training samples under the enhanced protocol;
/// per party `(public shape, predictions)`, where the shape lists, in
/// arena order, `Some(client)` for an internal node and `None` for a leaf.
fn enhanced_shape_and_predictions(
    data: &Dataset,
    m: usize,
    params: &PivotParams,
) -> Vec<(Vec<Option<usize>>, Vec<f64>)> {
    let partition = partition_vertically(data, m, 0);
    run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view.clone(), params.clone());
        let tree = train_enhanced::train(&mut ctx);
        let shape = tree
            .nodes
            .iter()
            .map(|node| match node {
                ConcealedNode::Internal { client, .. } => Some(*client),
                ConcealedNode::Leaf { .. } => None,
            })
            .collect();
        let preds = predict_enhanced::predict_batch(&mut ctx, &tree, &view.features);
        (shape, preds)
    })
}

#[test]
fn siblings_that_part_ways_agree_with_basic() {
    // The first enhanced run deeper than 2: Eqn-10 with only the left side
    // (level 1) and with both (the root), a mask refresh over a frontier
    // whose right children hold no mask (level 2), and — on this data, see
    // the twin test in `basic_protocol.rs` — a right child that splits on
    // statistics derived from a left sibling pruned right after its pass,
    // next to a pair that parts the other way.
    let data = synth::make_classification(&synth::ClassificationSpec {
        samples: 60,
        features: 6,
        informative: 4,
        classes: 2,
        class_sep: 1.0,
        flip_y: 0.15,
        seed: 33,
    });
    let m = 3;
    let tree_params = TreeParams {
        max_depth: 3,
        min_samples: 10,
        max_splits: 4,
        stop_when_pure: false,
    };
    let partition = partition_vertically(&data, m, 0);
    let basic_params = PivotParams {
        tree: tree_params.clone(),
        keysize: 128,
        ..Default::default()
    };
    let basic = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, basic_params.clone());
        train_basic::train(&mut ctx)
    })
    .remove(0);
    let is_leaf = |id: usize| matches!(basic.nodes()[id], pivot_trees::Node::Leaf { .. });
    let pairs: Vec<(bool, bool)> = basic
        .nodes()
        .iter()
        .filter_map(|node| match node {
            pivot_trees::Node::Internal { left, right, .. } => {
                Some((is_leaf(*left), is_leaf(*right)))
            }
            pivot_trees::Node::Leaf { .. } => None,
        })
        .collect();
    assert_eq!(basic.depth(), 3);
    assert!(pairs.contains(&(true, false)) && pairs.contains(&(false, true)));
    let samples: Vec<Vec<f64>> = (0..data.num_samples())
        .map(|i| data.sample(i).to_vec())
        .collect();
    let basic_preds = basic.predict_batch(&samples);
    let basic_shape: Vec<bool> = (0..basic.nodes().len()).map(is_leaf).collect();

    let mut unpacked_params = enhanced_params(tree_params.clone());
    unpacked_params.packing = pivot_core::config::Packing::Off;
    for params in [enhanced_params(tree_params), unpacked_params] {
        let results = enhanced_shape_and_predictions(&data, m, &params);
        let (shape, preds) = &results[0];
        let leaves: Vec<bool> = shape.iter().map(Option::is_none).collect();
        assert_eq!(leaves, basic_shape, "packing {:?}: shape", params.packing);
        assert_eq!(preds, &basic_preds, "packing {:?}", params.packing);
        for other in &results[1..] {
            assert_eq!(other, &results[0], "all parties agree");
        }
    }
}

#[test]
fn one_explicit_slot_is_packing_off() {
    // `Slots(1)` must not run as an audited-width slot: with no neighbour
    // slot the mask refresh is skipped, and a 70-bit slot would truncate
    // the Eqn-10 slack the level-1 statistics carry. It is the layout of
    // `Off` — same transcript, byte for byte.
    let data = crisp_dataset();
    let m = 3;
    let run = |packing| {
        let mut params = enhanced_params(TreeParams {
            max_depth: 2,
            max_splits: 4,
            stop_when_pure: false,
            ..Default::default()
        });
        params.packing = packing;
        let partition = partition_vertically(&data, m, 0);
        run_parties(m, |ep| {
            let view = partition.views[ep.id()].clone();
            let mut ctx = PartyContext::setup(&ep, view.clone(), params.clone());
            let tree = train_enhanced::train(&mut ctx);
            let preds = predict_enhanced::predict_batch(&mut ctx, &tree, &view.features);
            let c = &ctx.counters;
            (
                preds,
                c.get(Counter::ThresholdDecryptions),
                [
                    Counter::PackedCiphertexts,
                    Counter::PackedValues,
                    Counter::PackedSlotCapacity,
                ]
                .map(|p| c.get(p)),
                (c.get(Counter::BytesSent), c.get(Counter::MessagesSent)),
            )
        })
    };
    let off = run(pivot_core::config::Packing::Off);
    assert_eq!(run(pivot_core::config::Packing::Slots(1)), off);
    assert_eq!(off[0].2, [0, 0, 0], "one slot packs nothing");
    let correct = off[0]
        .0
        .iter()
        .zip(data.labels())
        .filter(|(p, t)| (**p - **t).abs() < 0.5)
        .count();
    assert!(correct >= 22, "classified only {correct}/24 samples");
}

#[test]
fn a_root_without_candidate_splits_is_one_concealed_leaf() {
    // Constant features: no candidate split anywhere, so the root is
    // forced (publicly) to a leaf whose label is the majority class.
    let features = vec![vec![1.0, 2.0, 3.0]; 12];
    let labels: Vec<f64> = (0..12).map(|i| f64::from(i % 3 != 0)).collect();
    let data = Dataset::new(features, labels, Task::Classification { classes: 2 });
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        stop_when_pure: false,
        ..Default::default()
    };
    let mut unpacked_params = enhanced_params(tree_params.clone());
    unpacked_params.packing = pivot_core::config::Packing::Off;
    for params in [enhanced_params(tree_params), unpacked_params] {
        for (shape, preds) in enhanced_shape_and_predictions(&data, 3, &params) {
            assert_eq!(shape, vec![None], "packing {:?}", params.packing);
            assert_eq!(preds, vec![1.0; 12], "packing {:?}", params.packing);
        }
    }
}
