//! End-to-end tests for the Pivot basic protocol: privacy-preserving
//! training must reproduce the plaintext CART reference exactly (same
//! candidate splits, same gain ordering), and distributed prediction must
//! match centralized prediction on the released model.

use pivot_core::ensemble::{predict_rf_batch, RfModel};
use pivot_core::{config::PivotParams, party::PartyContext, predict_basic, train_basic, Counter};
use pivot_data::{partition_vertically, synth, Dataset, Task};
use pivot_transport::run_parties;
use pivot_trees::{train_tree, DecisionTree, Node, TreeParams};

/// Train with the basic protocol over `m` threads; returns per-party trees.
fn pivot_train(data: &Dataset, m: usize, params: &PivotParams) -> Vec<DecisionTree> {
    let partition = partition_vertically(data, m, 0);
    run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        train_basic::train(&mut ctx)
    })
}

fn small_params(tree: TreeParams) -> PivotParams {
    PivotParams {
        tree,
        keysize: 128,
        ..Default::default()
    }
}

#[test]
fn matches_plaintext_cart_exactly_on_crisp_margins() {
    // A dataset whose split gains are well separated: two-valued features
    // (so the quantile midpoint is the exact separator) and hierarchical
    // labels. Fixed-point rounding cannot flip any argmax, so Pivot must
    // reproduce CART node-for-node.
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for i in 0..24 {
        // Asymmetric group sizes (16 vs 8) keep every split gain strictly
        // distinct, so ±1-ulp truncation noise cannot flip a tie-break.
        let x0 = if i < 16 { 10.0 } else { 0.0 };
        let x1 = if i % 2 == 0 { -5.0 } else { 5.0 };
        features.push(vec![x0, x1, (i % 7) as f64]);
        // Decision list: f0 decides for half the data; f1 decides the rest.
        labels.push(if x0 > 5.0 {
            1.0
        } else if x1 > 0.0 {
            1.0
        } else {
            0.0
        });
    }
    let data = Dataset::new(features, labels, Task::Classification { classes: 2 });
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        ..Default::default()
    };
    let reference = train_tree(&data, &tree_params);
    let trees = pivot_train(&data, 3, &small_params(tree_params));
    for tree in &trees {
        assert_eq!(
            tree, &reference,
            "Pivot-Basic must reproduce the plaintext CART tree exactly"
        );
    }
}

#[test]
fn agrees_with_plaintext_cart_on_noisy_data() {
    // On data with near-tie gains, fixed-point truncation may legitimately
    // flip split choices (the paper's own Table 3 shows slight accuracy
    // differences). Require prediction-level agreement instead.
    let data = synth::make_classification(&synth::ClassificationSpec {
        samples: 60,
        features: 6,
        informative: 4,
        classes: 2,
        class_sep: 2.0,
        flip_y: 0.0,
        seed: 42,
    });
    let tree_params = TreeParams {
        max_depth: 3,
        max_splits: 4,
        ..Default::default()
    };
    let reference = train_tree(&data, &tree_params);
    let trees = pivot_train(&data, 3, &small_params(tree_params));
    let samples: Vec<Vec<f64>> = (0..data.num_samples())
        .map(|i| data.sample(i).to_vec())
        .collect();
    let ref_preds = reference.predict_batch(&samples);
    let pivot_preds = trees[0].predict_batch(&samples);
    let agree = ref_preds
        .iter()
        .zip(&pivot_preds)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        agree as f64 / samples.len() as f64 >= 0.9,
        "only {agree}/{} predictions agree",
        samples.len()
    );
    // Training accuracy of both trees must be close.
    let ref_acc = pivot_data::metrics::accuracy(&ref_preds, data.labels());
    let piv_acc = pivot_data::metrics::accuracy(&pivot_preds, data.labels());
    assert!(
        (ref_acc - piv_acc).abs() < 0.05,
        "accuracy gap too large: {ref_acc} vs {piv_acc}"
    );
}

#[test]
fn matches_plaintext_cart_regression() {
    let data = synth::make_regression(&synth::RegressionSpec {
        samples: 50,
        features: 4,
        informative: 3,
        noise: 0.05,
        seed: 9,
    });
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        ..Default::default()
    };
    let reference = train_tree(&data, &tree_params);
    let trees = pivot_train(&data, 2, &small_params(tree_params));
    for tree in &trees {
        // Structure (features/thresholds) must match exactly; leaf values
        // agree up to fixed-point precision.
        assert_eq!(tree.internal_count(), reference.internal_count());
        for (node, ref_node) in tree.nodes().iter().zip(reference.nodes()) {
            match (node, ref_node) {
                (
                    pivot_trees::Node::Internal {
                        feature, threshold, ..
                    },
                    pivot_trees::Node::Internal {
                        feature: rf,
                        threshold: rt,
                        ..
                    },
                ) => {
                    assert_eq!(feature, rf);
                    assert!((threshold - rt).abs() < 1e-9);
                }
                (pivot_trees::Node::Leaf { value }, pivot_trees::Node::Leaf { value: rv }) => {
                    assert!((value - rv).abs() < 1e-3, "leaf {value} vs {rv}");
                }
                _ => panic!("structure mismatch"),
            }
        }
    }
}

#[test]
fn distributed_prediction_matches_model() {
    let data = synth::make_classification(&synth::ClassificationSpec {
        samples: 40,
        features: 6,
        informative: 4,
        classes: 3,
        class_sep: 2.0,
        flip_y: 0.0,
        seed: 5,
    });
    let (train, test) = data.train_test_split(0.25);
    let m = 3;
    let tree_params = TreeParams {
        max_depth: 3,
        max_splits: 4,
        ..Default::default()
    };
    let params = small_params(tree_params);

    // Vertically partition train AND test consistently.
    let train_part = partition_vertically(&train, m, 0);
    let test_part = partition_vertically(&test, m, 0);
    let results = run_parties(m, |ep| {
        let view = train_part.views[ep.id()].clone();
        let test_view = &test_part.views[ep.id()];
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        let tree = train_basic::train(&mut ctx);
        let local_samples: Vec<Vec<f64>> = (0..test_view.num_samples())
            .map(|i| test_view.features[i].clone())
            .collect();
        let preds = predict_basic::predict_batch(&mut ctx, &tree, &local_samples);
        (tree, preds)
    });

    let (tree, preds) = &results[0];
    // All parties agree on the predictions.
    for (_, other_preds) in &results[1..] {
        assert_eq!(preds, other_preds);
    }
    // Distributed prediction equals centralized prediction on the model.
    for i in 0..test.num_samples() {
        let central = tree.predict(test.sample(i));
        assert_eq!(preds[i], central, "sample {i}");
    }
}

#[test]
fn respects_min_samples_pruning() {
    let data = synth::make_classification(&synth::ClassificationSpec {
        samples: 20,
        features: 4,
        informative: 3,
        classes: 2,
        class_sep: 1.0,
        flip_y: 0.0,
        // Depth equality below needs a dataset with no near-tie splits
        // (fixed-point MPC gains may break ties differently than f64);
        // this seed avoids one under the vendored StdRng stream.
        seed: 4,
    });
    let tree_params = TreeParams {
        max_depth: 5,
        min_samples: 15,
        max_splits: 4,
        ..Default::default()
    };
    let trees = pivot_train(&data, 2, &small_params(tree_params.clone()));
    let reference = train_tree(&data, &tree_params);
    assert_eq!(trees[0].depth(), reference.depth());
    // A child that keeps ≥ min_samples may legally split again, but with
    // n=20 and min_samples=15 the tree cannot reach the depth-5 limit.
    assert!(
        trees[0].depth() < 5,
        "min_samples must prune well before max_depth (got depth {})",
        trees[0].depth()
    );
}

#[test]
fn regression_prediction_round_trip() {
    let data = synth::make_regression(&synth::RegressionSpec {
        samples: 30,
        features: 4,
        informative: 2,
        noise: 0.01,
        seed: 11,
    });
    let m = 2;
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 3,
        ..Default::default()
    };
    let params = small_params(tree_params);
    let partition = partition_vertically(&data, m, 0);
    let results = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view.clone(), params.clone());
        let tree = train_basic::train(&mut ctx);
        let sample = view.features[0].clone();
        let pred = predict_basic::predict_batch(&mut ctx, &tree, &[sample])[0];
        (tree, pred)
    });
    let (tree, pred) = &results[0];
    let central = tree.predict(data.sample(0));
    assert!(
        (pred - central).abs() < 1e-3,
        "distributed {pred} vs centralized {central}"
    );
    assert!(matches!(tree.task(), Task::Regression));
}

#[test]
fn metrics_are_populated() {
    let data = synth::make_classification(&synth::ClassificationSpec {
        samples: 20,
        features: 4,
        informative: 3,
        classes: 2,
        class_sep: 2.0,
        flip_y: 0.0,
        seed: 8,
    });
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 3,
        ..Default::default()
    };
    let params = small_params(tree_params);
    let partition = partition_vertically(&data, 2, 0);
    let results = run_parties(2, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        let _ = train_basic::train(&mut ctx);
        (
            ctx.counters.get(Counter::Encryptions),
            ctx.counters.get(Counter::ThresholdDecryptions),
            ctx.counters.get(Counter::SecureMults),
        )
    });
    for (enc, dec, muls) in results {
        assert!(enc > 0, "encryptions recorded");
        assert!(dec > 0, "decryptions recorded");
        assert!(muls > 0, "secure multiplications recorded");
    }
}

#[test]
fn packed_training_builds_the_same_tree() {
    // Ciphertext packing changes the transcript (packed statistics, one
    // level-wise Algorithm-2 batch per depth) but not the statistics
    // themselves — the packed run must produce the identical tree. At
    // keysize 128 the audit yields two 63-bit slots, so the stride of 3
    // spans two chunks: the chunked path is exercised too.
    let data = synth::make_classification(&synth::ClassificationSpec {
        samples: 30,
        features: 6,
        informative: 4,
        classes: 2,
        class_sep: 1.5,
        flip_y: 0.0,
        seed: 77,
    });
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 3,
        ..Default::default()
    };
    let mut unpacked_params = small_params(tree_params.clone());
    unpacked_params.packing = pivot_core::config::Packing::Off;
    let unpacked = pivot_train(&data, 3, &unpacked_params);
    // Auto packing is the default.
    let packed = pivot_train(&data, 3, &small_params(tree_params));
    assert_eq!(packed[0], unpacked[0], "packed tree must match unpacked");
    for tree in &packed[1..] {
        assert_eq!(tree, &packed[0], "all parties agree");
    }
}

#[test]
fn packed_regression_matches_unpacked() {
    // Regression exercises the offset-encoded label moments through the
    // packed pipeline (+1 offset removed after the packed conversion).
    let data = synth::make_regression(&synth::RegressionSpec {
        samples: 24,
        features: 4,
        informative: 3,
        noise: 0.05,
        seed: 13,
    });
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 3,
        ..Default::default()
    };
    let mut unpacked_params = small_params(tree_params.clone());
    unpacked_params.packing = pivot_core::config::Packing::Off;
    let unpacked = pivot_train(&data, 2, &unpacked_params);
    let mut packed_params = small_params(tree_params);
    packed_params.packing = pivot_core::config::Packing::Slots(2);
    let packed = pivot_train(&data, 2, &packed_params);
    // Argmax parity is exact: identical structure, features, thresholds.
    // Regression *leaf values* pass through probabilistic truncation
    // (±1 ulp at scale 2^-f) whose dealer randomness aligns differently
    // under the level-wise schedule, so they match to fixed-point
    // precision rather than bit-for-bit.
    let (p, u) = (&packed[0], &unpacked[0]);
    assert_eq!(p.internal_count(), u.internal_count());
    assert_eq!(p.root(), u.root());
    for (node, ref_node) in p.nodes().iter().zip(u.nodes()) {
        match (node, ref_node) {
            (
                pivot_trees::Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                },
                pivot_trees::Node::Internal {
                    feature: rf,
                    threshold: rt,
                    left: rl,
                    right: rr,
                },
            ) => {
                assert_eq!((feature, left, right), (rf, rl, rr));
                assert!((threshold - rt).abs() < 1e-12);
            }
            (pivot_trees::Node::Leaf { value }, pivot_trees::Node::Leaf { value: rv }) => {
                assert!((value - rv).abs() < 1e-4, "leaf {value} vs {rv}");
            }
            _ => panic!("structure mismatch"),
        }
    }
}

/// Noisy data on which CART at `max_depth = 3`, `min_samples = 10` grows a
/// lopsided tree — checked by [`assert_siblings_part_ways`].
fn lopsided_dataset() -> Dataset {
    synth::make_classification(&synth::ClassificationSpec {
        samples: 60,
        features: 6,
        informative: 4,
        classes: 2,
        class_sep: 1.0,
        flip_y: 0.15,
        seed: 33,
    })
}

/// Above the depth limit, some pair's left child stops while its right
/// sibling splits, and some pair's the other way round.
fn assert_siblings_part_ways(tree: &DecisionTree) {
    let is_leaf = |id: usize| matches!(tree.nodes()[id], pivot_trees::Node::Leaf { .. });
    let pairs: Vec<(bool, bool)> = tree
        .nodes()
        .iter()
        .filter_map(|node| match node {
            pivot_trees::Node::Internal { left, right, .. } => {
                Some((is_leaf(*left), is_leaf(*right)))
            }
            pivot_trees::Node::Leaf { .. } => None,
        })
        .collect();
    assert!(
        pairs.contains(&(true, false)),
        "no stopped left beside a splitting right"
    );
    assert!(
        pairs.contains(&(false, true)),
        "no splitting left beside a stopped right"
    );
}

#[test]
fn siblings_that_part_ways_match_plaintext_cart() {
    // Depth 3 is the first depth at which right masks exist (wanted at
    // the root only) and a right child splits on statistics derived from
    // its parent's and its left sibling's — here also from a left sibling
    // that was pruned right after its pass.
    let data = lopsided_dataset();
    let tree_params = TreeParams {
        max_depth: 3,
        min_samples: 10,
        max_splits: 4,
        ..Default::default()
    };
    let reference = train_tree(&data, &tree_params);
    assert_eq!(reference.depth(), 3);
    assert_siblings_part_ways(&reference);
    let mut unpacked_params = small_params(tree_params.clone());
    unpacked_params.packing = pivot_core::config::Packing::Off;
    for params in [small_params(tree_params), unpacked_params] {
        for tree in pivot_train(&data, 3, &params) {
            assert_eq!(tree, reference, "packing {:?}", params.packing);
        }
    }
}

#[test]
fn a_root_without_candidate_splits_is_the_majority_leaf() {
    // Constant features have no candidate split, so the layout is empty
    // and the root is forced (publicly) to a leaf — through the same
    // statistics pass as any root, with zero splits in it.
    let features = vec![vec![1.0, 2.0, 3.0]; 12];
    let labels: Vec<f64> = (0..12).map(|i| f64::from(i % 3 == 0)).collect();
    let data = Dataset::new(features, labels, Task::Classification { classes: 2 });
    let tree_params = TreeParams {
        max_depth: 2,
        max_splits: 4,
        ..Default::default()
    };
    let reference = train_tree(&data, &tree_params);
    assert_eq!(reference, DecisionTree::leaf(0.0, data.task()));
    let mut unpacked_params = small_params(tree_params.clone());
    unpacked_params.packing = pivot_core::config::Packing::Off;
    for params in [small_params(tree_params), unpacked_params] {
        for tree in pivot_train(&data, 3, &params) {
            assert_eq!(tree, reference, "packing {:?}", params.packing);
        }
    }
}

/// A complete tree in heap order: internal node `i` splits on
/// `splits[i]` and has children `2i + 1`, `2i + 2`; the leaves follow.
fn complete_tree(splits: &[(usize, f64)], leaves: &[f64], task: Task) -> DecisionTree {
    assert_eq!(leaves.len(), splits.len() + 1);
    let mut nodes: Vec<Node> = splits
        .iter()
        .enumerate()
        .map(|(i, &(feature, threshold))| Node::Internal {
            feature,
            threshold,
            left: 2 * i + 1,
            right: 2 * i + 2,
        })
        .collect();
    nodes.extend(leaves.iter().map(|&value| Node::Leaf { value }));
    DecisionTree::new(nodes, 0, task)
}

/// Algorithm 4 over `t` samples of three features, one per party: every
/// party's predictions and the joint decryptions `predict` paid.
fn packed_opening(
    task: Task,
    t: usize,
    predict: impl Fn(&mut PartyContext<'_>, &[Vec<f64>]) -> Vec<f64> + Sync,
) -> (Vec<Vec<f64>>, Vec<(Vec<f64>, u64)>) {
    let samples: Vec<Vec<f64>> = (0..t)
        .map(|i| {
            vec![
                (i * 7 % 11) as f64,
                (i * 5 % 13) as f64 - 6.0,
                (i % 4) as f64,
            ]
        })
        .collect();
    let data = Dataset::new(samples.clone(), vec![0.0; t], task);
    let m = 3;
    let partition = partition_vertically(&data, m, 0);
    let results = run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let local = view.features.clone();
        let mut ctx = PartyContext::setup(&ep, view, small_params(TreeParams::default()));
        let before = ctx.counters.get(Counter::ThresholdDecryptions);
        let preds = predict(&mut ctx, &local);
        let paid = ctx.counters.get(Counter::ThresholdDecryptions) - before;
        (preds, paid)
    });
    (samples, results)
}

#[test]
fn predictions_open_packed() {
    // Keysize 128 and t = 33: a slot holds a value below 2^b plus the
    // offset 2^b in b + 2 bits, ⌊127/(b + 2)⌋ slots a ciphertext — 31 for
    // three classes (b = 2), 2 for one regression tree's fixed-point leaf
    // (b = int_bits − 1 = 44) and for the sum of three (b = 46) — so every
    // case ends on a partial ciphertext.
    let t = 33;
    let splits = [(0, 5.0), (1, 0.0), (2, 1.5)];
    let classes = Task::Classification { classes: 3 };
    let classifier = complete_tree(&splits, &[0.0, 2.0, 1.0, 2.0], classes);
    let (samples, results) = packed_opening(classes, t, |ctx, local| {
        predict_basic::predict_batch(ctx, &classifier, local)
    });
    for (preds, paid) in &results {
        assert_eq!(preds, &classifier.predict_batch(&samples));
        assert_eq!(*paid, 2, "⌈33/31⌉");
    }

    let regressor = complete_tree(&splits, &[-1.2345678, 3.3, -0.75, 1e-3], Task::Regression);
    let (samples, results) = packed_opening(Task::Regression, t, |ctx, local| {
        predict_basic::predict_batch(ctx, &regressor, local)
    });
    let one_ulp = 1.0 / (1u64 << 20) as f64;
    for (preds, paid) in &results {
        let plain = regressor.predict_batch(&samples);
        assert!(plain.iter().any(|&v| v < 0.0), "negative leaves reached");
        for (p, q) in preds.iter().zip(&plain) {
            assert!((p - q).abs() <= one_ulp, "{p} vs {q}");
        }
        assert_eq!(*paid, 17, "⌈33/2⌉");
    }

    let forest = RfModel {
        trees: vec![
            regressor.clone(),
            complete_tree(&[(2, 0.5)], &[-2.5, 1.75], Task::Regression),
            complete_tree(&[(1, 2.0)], &[0.3, -4.2], Task::Regression),
        ],
    };
    let (samples, results) = packed_opening(Task::Regression, t, |ctx, local| {
        predict_rf_batch(ctx, &forest, local)
    });
    for (preds, paid) in &results {
        for (i, (p, sample)) in preds.iter().zip(&samples).enumerate() {
            let mean = forest
                .trees
                .iter()
                .map(|tree| tree.predict(sample))
                .sum::<f64>()
                / 3.0;
            assert!((p - mean).abs() <= one_ulp, "sample {i}: {p} vs {mean}");
        }
        assert_eq!(*paid, 17, "⌈33/2⌉");
    }

    let (_, results) = packed_opening(Task::Regression, t, |ctx, _| {
        predict_basic::predict_batch(ctx, &regressor, &[])
    });
    for (preds, paid) in &results {
        assert!(preds.is_empty());
        assert_eq!(*paid, 0);
    }
}
