//! Quickstart: three organizations jointly train a decision tree with the
//! Pivot basic protocol, then make a private distributed prediction.
//!
//! Run: `cargo run --release --example quickstart`

use pivot::core::{config::PivotParams, party::PartyContext, predict_basic, train_basic, Counter};
use pivot::data::{partition_vertically, synth};
use pivot::transport::run_parties;
use pivot::trees::TreeParams;

fn main() {
    // A synthetic 2-class task: 120 samples × 6 features.
    let data = synth::make_classification(&synth::ClassificationSpec {
        samples: 120,
        features: 6,
        informative: 4,
        classes: 2,
        class_sep: 2.0,
        flip_y: 0.02,
        seed: 7,
    });
    let (train, test) = data.train_test_split(0.25);

    // Vertical federation: 3 clients, disjoint feature blocks, labels held
    // only by client 0 (the super client).
    let m = 3;
    let train_part = partition_vertically(&train, m, 0);
    let test_part = partition_vertically(&test, m, 0);

    let params = PivotParams {
        tree: TreeParams {
            max_depth: 3,
            max_splits: 4,
            ..Default::default()
        },
        keysize: 256,
        ..Default::default()
    };

    // Every client runs the same protocol on its own thread. Nothing but
    // the final model and predictions is ever revealed.
    let results = run_parties(m, |ep| {
        let view = train_part.views[ep.id()].clone();
        let test_view = &test_part.views[ep.id()];
        let mut ctx = PartyContext::setup(&ep, view, params.clone());

        let tree = train_basic::train(&mut ctx);

        let local_samples: Vec<Vec<f64>> = (0..test_view.num_samples())
            .map(|i| test_view.features[i].clone())
            .collect();
        let predictions = predict_basic::predict_batch(&mut ctx, &tree, &local_samples);
        let costs = ctx.counters.snapshot();
        let summary = format!(
            "Ce(enc)={} Ce(ops)={} Cd={} Cs={} Cc={}",
            costs[Counter::Encryptions],
            costs[Counter::CiphertextOps],
            costs[Counter::ThresholdDecryptions],
            costs[Counter::SecureMults],
            costs[Counter::SecureComparisons],
        );
        (tree, predictions, summary)
    });

    let (tree, predictions, metrics) = &results[0];
    let names: Vec<String> = (0..6).map(|i| format!("feature_{i}")).collect();
    println!("Jointly trained decision tree:\n{}", tree.render(&names));

    let accuracy = pivot::data::metrics::accuracy(predictions, test.labels());
    println!(
        "Test accuracy over {} samples: {accuracy:.3}",
        predictions.len()
    );
    println!("Party-0 protocol costs: {metrics}");
}
