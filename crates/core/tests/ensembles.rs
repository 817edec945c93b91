//! End-to-end tests for the ensemble extensions (§7): random forest and
//! GBDT with encrypted residual labels.

use pivot_core::config::{LabelSource, Packing, PivotParams};
use pivot_core::ensemble::{
    gbdt::predict_gbdt_batch, rf::predict_rf_batch, train_gbdt, train_rf, GbdtProtocolParams,
    RfProtocolParams,
};
use pivot_core::party::PartyContext;
use pivot_core::train_basic::{train_with_mask, train_with_masks};
use pivot_core::{Counter, FixedConfig};
use pivot_data::{candidate_splits, metrics, partition_vertically, synth, Dataset, Task};
use pivot_paillier::SlotCodec;
use pivot_transport::run_parties;
use pivot_trees::{DecisionTree, Node, TreeParams};

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

/// Crisp two-feature data so 2 rounds suffice.
fn crisp_two_class() -> Dataset {
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for i in 0..30 {
        let x0 = if i % 2 == 0 { -3.0 } else { 3.0 };
        features.push(vec![x0 + (i % 3) as f64 * 0.1, (i % 5) as f64]);
        labels.push(f64::from(i % 2 == 1));
    }
    Dataset::new(features, labels, Task::Classification { classes: 2 })
}

#[test]
fn gbdt_classification_one_vs_rest() {
    let data = crisp_two_class();
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
    // Depth 3 is where a GBDT node hands its encrypted vectors (at this
    // keysize's one slot *three*: `[α]`, `[γ₁]`, `[γ₂]`) to each child that
    // reads them — both sides at the root, the left side only one level
    // down, none at the last split level. The first stage's residuals are
    // the labels themselves, so its tree is the plaintext CART regression
    // tree.
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

/// What one party saw of a GBDT run.
struct GbdtRun {
    forests: Vec<Vec<DecisionTree>>,
    /// Candidate splits this party pooled per pass (`cᵢ`).
    own_splits: usize,
    train_decryptions: u64,
    predictions: Vec<f64>,
    /// MPC rounds of predicting the first sample alone, and the first 8.
    predict_rounds: [u64; 2],
}

fn run_gbdt(data: &Dataset, m: usize, p: &PivotParams, g: &GbdtProtocolParams) -> Vec<GbdtRun> {
    let partition = partition_vertically(data, m, 0);
    run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let own_splits = (0..view.num_local_features())
            .map(|j| candidate_splits(&view.column(j), p.tree.max_splits).len())
            .sum();
        let local: Vec<Vec<f64>> = (0..view.num_samples())
            .map(|i| view.features[i].clone())
            .collect();
        let mut ctx = PartyContext::setup(&ep, view, p.clone());
        let model = train_gbdt(&mut ctx, g);
        let train_decryptions = ctx.counters.get(Counter::ThresholdDecryptions);
        let predictions = predict_gbdt_batch(&mut ctx, &model, &local);
        let predict_rounds = [1, 8].map(|rows| {
            let before = ctx.counters.get(Counter::Rounds);
            predict_gbdt_batch(&mut ctx, &model, &local[..rows]);
            ctx.counters.get(Counter::Rounds) - before
        });
        GbdtRun {
            forests: model.forests,
            own_splits,
            train_decryptions,
            predictions,
            predict_rounds,
        }
    })
}

#[test]
fn gbdt_packed_trees_are_the_unpacked_trees_at_the_closed_form_cost() {
    // A GBDT node carries its stride (α, γ₁, γ₂) in `chunks` packed vectors
    // — one from three share-sum slots up (keysize 256: 3 slots, G = 1;
    // 512: 7 slots, G = 2), two at two, three under `Packing::Off` — and
    // every value is exact mod p in every layout: same trees, same
    // predictions. A statistics pass decrypts `chunks·Σᵢ⌈cᵢ/G⌉ + chunks`
    // ciphertexts and a tree of depth ≤ 2 makes one pass at the root plus
    // one for its left child; every tree but the last round's then converts
    // its n encrypted training predictions, packed under the 44-bit leaf
    // bound (63-bit slots at m = 2, whatever `packing` says).
    let regression = synth::make_regression(&synth::RegressionSpec {
        samples: 40,
        features: 4,
        informative: 3,
        noise: 0.02,
        seed: 21,
    });
    let (m, rounds) = (2, 2);
    let g = GbdtProtocolParams {
        rounds,
        learning_rate: 0.5,
    };
    // Two slots cut the stride in two chunks, (α, γ₁) and (γ₂).
    let layouts = [(192, 2), (256, 3), (512, 7)];
    for (data, layouts) in [
        (regression, &layouts[..]),
        (crisp_two_class(), &layouts[1..]),
    ] {
        let n = data.num_samples();
        for &(keysize, auto_slots) in layouts {
            let params = |packing| PivotParams {
                keysize,
                packing,
                ..params(TreeParams {
                    max_depth: 2,
                    max_splits: 3,
                    stop_when_pure: false,
                    ..Default::default()
                })
            };
            let [off, auto] = [Packing::Off, Packing::Auto].map(|packing| {
                let p = params(packing);
                let runs = run_gbdt(&data, m, &p, &g);
                let slots = p.slot_plan(m, n, LabelSource::ShareSums).slots;
                assert_eq!(slots, [auto_slots, 1][usize::from(packing == Packing::Off)]);
                let width = slots.min(3);
                let (chunks, group) = (3usize.div_ceil(width), (slots / width).max(1));
                let per_pass = chunks
                    * runs
                        .iter()
                        .map(|run| run.own_splits.div_ceil(group))
                        .sum::<usize>()
                    + chunks;
                let trees: Vec<&DecisionTree> = runs[0].forests.iter().flatten().collect();
                let passes: usize = trees.iter().map(|t| 1 + t.internal_count().min(1)).sum();
                let accumulated = trees.len() - runs[0].forests.len();
                let per_accumulate = n.div_ceil(SlotCodec::max_slots(keysize, 63));
                for run in &runs {
                    assert_eq!(
                        run.train_decryptions as usize,
                        passes * per_pass + accumulated * per_accumulate,
                        "keysize {keysize} {packing:?}: {passes} passes of {per_pass}"
                    );
                    assert_eq!(run.forests, runs[0].forests, "parties agree");
                    // One lockstep argmax and one opening, however many rows.
                    assert_eq!(run.predict_rounds[0], run.predict_rounds[1]);
                }
                runs
            });
            assert_eq!(off[0].forests, auto[0].forests, "keysize {keysize}");
            for (a, b) in off[0].predictions.iter().zip(&auto[0].predictions) {
                assert!((a - b).abs() <= 1.0 / (1u64 << 20) as f64, "{a} vs {b}");
            }
        }
    }
}

/// Same splits (feature and threshold, exactly) in the same post-order
/// layout; leaf values within `tolerance`.
fn assert_same_tree(tree: &DecisionTree, expect: &DecisionTree, tolerance: f64, what: &str) {
    assert_eq!(tree.root(), expect.root(), "{what}: root");
    assert_eq!(tree.nodes().len(), expect.nodes().len(), "{what}: nodes");
    for (node, expect) in tree.nodes().iter().zip(expect.nodes()) {
        match (node, expect) {
            (Node::Internal { .. }, Node::Internal { .. }) => assert_eq!(node, expect, "{what}"),
            (Node::Leaf { value }, Node::Leaf { value: ev }) => {
                assert!(
                    (value - ev).abs() <= tolerance,
                    "{what}: leaf {value} vs {ev}"
                )
            }
            _ => panic!("{what}: structure mismatch, {node:?} vs {expect:?}"),
        }
    }
}

#[test]
fn a_forest_grown_in_one_frontier_is_its_trees_grown_one_at_a_time() {
    // Three roots in one frontier at h = 3. The middle root holds fewer
    // samples than `min_samples`, so it is pruned at level 0 while its
    // neighbours keep splitting: from level 1 on the frontier pairs
    // children with parents across a gap, and one tree's leaf opening
    // rides another's split reveal.
    let n = 60;
    let classification = synth::make_classification(&synth::ClassificationSpec {
        samples: n,
        features: 6,
        informative: 4,
        classes: 2,
        class_sep: 1.0,
        flip_y: 0.15,
        seed: 8,
    });
    let regression = synth::make_regression(&synth::RegressionSpec {
        samples: n,
        features: 6,
        informative: 4,
        noise: 0.05,
        seed: 8,
    });
    let masks: Vec<Vec<bool>> = vec![
        (0..n).map(|i| i % 4 != 0).collect(),
        (0..n).map(|i| i < 5).collect(),
        (0..n).map(|i| i % 5 != 1).collect(),
    ];
    let m = 3;
    for data in [classification, regression] {
        for packing in [Packing::Off, Packing::Auto] {
            let p = PivotParams {
                keysize: 256,
                packing,
                ..params(TreeParams {
                    max_depth: 3,
                    min_samples: 10,
                    max_splits: 3,
                    stop_when_pure: false,
                })
            };
            // Class labels are exact; a mean label carries the truncation
            // noise of its secure reciprocal, a few fixed-point ulps that
            // depend on where in the dealer stream the division falls.
            let ulp = 1.0 / (1u64 << FixedConfig::default().frac_bits) as f64;
            let tolerance = match data.task() {
                Task::Classification { .. } => 0.0,
                Task::Regression => 16.0 * ulp,
            };
            let partition = partition_vertically(&data, m, 0);
            let results = run_parties(m, |ep| {
                let view = partition.views[ep.id()].clone();
                let mut ctx = PartyContext::setup(&ep, view, p.clone());
                let forest = train_with_masks(&mut ctx, &masks);
                let alone: Vec<DecisionTree> = masks
                    .iter()
                    .map(|mask| train_with_mask(&mut ctx, mask))
                    .collect();
                (forest, alone)
            });
            for (forest, alone) in &results {
                let splits: Vec<usize> = forest.iter().map(|t| t.internal_count()).collect();
                assert!(
                    splits[0] >= 2 && splits[1] == 0 && splits[2] >= 2,
                    "{packing:?}: a root pruned between two trees that keep splitting, {splits:?}"
                );
                for (w, (tree, expect)) in forest.iter().zip(alone).enumerate() {
                    let what = format!("{:?} {packing:?} tree {w}", data.task());
                    assert_same_tree(tree, expect, tolerance, &what);
                }
                assert_eq!(forest, &results[0].0, "parties agree");
            }
        }
    }
}

#[test]
fn random_forest_vote_is_the_first_maximum_plaintext_vote() {
    // W = 3 over two classes cannot tie; W = 2 over three classes does —
    // and a tie goes to the first maximum, like `RandomForest::predict`.
    for (trees, classes, seed) in [(3, 2, 31), (2, 3, 11)] {
        let data = synth::make_classification(&synth::ClassificationSpec {
            samples: 48,
            features: 6,
            informative: 4,
            classes,
            class_sep: 1.0,
            flip_y: 0.1,
            seed,
        });
        let m = 3;
        let p = params(TreeParams {
            max_depth: 2,
            max_splits: 3,
            ..Default::default()
        });
        let rf = RfProtocolParams {
            trees,
            ..Default::default()
        };
        let partition = partition_vertically(&data, m, 0);
        let results = run_parties(m, |ep| {
            let view = partition.views[ep.id()].clone();
            let mut ctx = PartyContext::setup(&ep, view.clone(), p.clone());
            let model = train_rf(&mut ctx, &rf);
            let predictions = predict_rf_batch(&mut ctx, &model, &view.features);
            let rounds = [1, 8].map(|rows| {
                let before = ctx.counters.get(Counter::Rounds);
                predict_rf_batch(&mut ctx, &model, &view.features[..rows]);
                ctx.counters.get(Counter::Rounds) - before
            });
            (model.trees, predictions, rounds)
        });
        let mut tied = 0;
        for (forest, predictions, rounds) in &results {
            assert_eq!(forest.len(), trees);
            assert_eq!(rounds[0], rounds[1], "one argmax and one opening per batch");
            for (i, &prediction) in predictions.iter().enumerate() {
                let mut votes = vec![0usize; classes];
                for tree in forest {
                    votes[tree.predict(data.sample(i)) as usize] += 1;
                }
                let top = *votes.iter().max().unwrap();
                let first = votes.iter().position(|&v| v == top).unwrap();
                assert_eq!(prediction, first as f64, "sample {i}: votes {votes:?}");
                tied += usize::from(votes.iter().filter(|&&v| v == top).count() > 1);
            }
        }
        assert_eq!(tied > 0, trees == 2, "W = {trees}: {tied} tied votes");
    }
}

/// `mpc_rounds` of `train_gbdt` and party 0's model.
fn gbdt_training_rounds(
    data: &Dataset,
    m: usize,
    p: &PivotParams,
    g: &GbdtProtocolParams,
) -> (u64, Vec<Vec<DecisionTree>>) {
    let partition = partition_vertically(data, m, 0);
    run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, p.clone());
        let model = train_gbdt(&mut ctx, g);
        (ctx.counters.get(Counter::Rounds), model.forests)
    })
    .remove(0)
}

#[test]
fn gbdt_one_vs_rest_round_is_its_class_trees_at_the_rounds_of_one() {
    // The K class trees of a boosting round share one frontier. From zero
    // scores the softmax is uniform, so the first round's residuals are
    // `1[y = k] − 1/K` and class k's tree is the CART regression tree on
    // them.
    let classes = 3;
    let data = synth::make_classification(&synth::ClassificationSpec {
        samples: 60,
        features: 6,
        informative: 4,
        classes,
        class_sep: 1.0,
        flip_y: 0.15,
        seed: 5,
    });
    let m = 3;
    let tree_params = TreeParams {
        max_depth: 2,
        min_samples: 10,
        max_splits: 3,
        stop_when_pure: false,
    };
    let p = params(tree_params.clone());
    let g = GbdtProtocolParams {
        rounds: 2,
        learning_rate: 0.5,
    };
    let (rounds_three, forests) = gbdt_training_rounds(&data, m, &p, &g);
    assert_eq!(forests.len(), classes);
    for (k, forest) in forests.iter().enumerate() {
        assert_eq!(forest.len(), g.rounds);
        let residuals = data
            .labels()
            .iter()
            .map(|&y| f64::from(y as usize == k) - 1.0 / classes as f64)
            .collect();
        let stage = data.with_labels(residuals, Task::Regression);
        let oracle = pivot_trees::train_tree(&stage, &tree_params);
        assert!(
            oracle.internal_count() >= 2,
            "class {k}: a tree worth comparing"
        );
        assert_same_tree(&forest[0], &oracle, 1e-3, &format!("class {k} round 0"));
    }

    // The same features under two classes, and under numeric labels (one
    // regression tree per round): a third class adds a wider softmax, not
    // a tree's worth of rounds.
    let two_class = data.with_labels(
        data.labels().iter().map(|&y| f64::from(y >= 1.0)).collect(),
        Task::Classification { classes: 2 },
    );
    let (rounds_two, _) = gbdt_training_rounds(&two_class, m, &p, &g);
    let numeric = data.with_labels(
        data.labels().iter().map(|&y| y / 2.0 - 0.5).collect(),
        Task::Regression,
    );
    let one_round = GbdtProtocolParams { rounds: 1, ..g };
    let (rounds_of_a_tree, _) = gbdt_training_rounds(&numeric, m, &p, &one_round);
    assert!(
        rounds_three.saturating_sub(rounds_two) < rounds_of_a_tree,
        "K = 3: {rounds_three} rounds, K = 2: {rounds_two}, one tree: {rounds_of_a_tree}"
    );
}
