//! End-to-end tests for the malicious-model verification plane: honest
//! runs release the identical model under every knob setting, spot
//! checking pays a fraction of the full verification cost, and a
//! deterministic `[adversary]` tampering is caught and attributed by
//! every party in the same round.

use pivot_core::{
    config::PivotParams, party::PartyContext, predict_basic, train_basic, AdversarySpec, Counter,
    Snapshot, Verification,
};
use pivot_data::{partition_vertically, synth, Dataset, Task};
use pivot_transport::{run_parties, try_run_parties_with, NetConfig, ProtocolError, RunFailure};
use pivot_trees::{DecisionTree, TreeParams};

fn crisp_dataset() -> Dataset {
    // Crisp margins (feature 0 decides the root) so the released tree is
    // deterministic and party 0 — the owner of feature 0 — wins the root
    // split, making the `update` phase adversary land deterministically.
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for i in 0..16 {
        let x0 = if i < 10 { 10.0 } else { 0.0 };
        let x1 = if i % 2 == 0 { -5.0 } else { 5.0 };
        features.push(vec![x0, x1]);
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

fn params_with(verification: Verification, adversary: Option<AdversarySpec>) -> PivotParams {
    PivotParams {
        tree: TreeParams {
            max_depth: 2,
            max_splits: 2,
            ..Default::default()
        },
        keysize: 128,
        verification,
        adversary,
        ..Default::default()
    }
}

/// The verification plane's counting rows: proofs generated, verified,
/// skipped and rejected, and proof bytes.
const PROOF_COUNTS: [Counter; 5] = [
    Counter::ProofsGenerated,
    Counter::ProofsVerified,
    Counter::ProofsSkipped,
    Counter::ProofsRejected,
    Counter::ProofBytes,
];

/// Train + predict one batch; returns per-party (tree, predictions,
/// counter registry).
fn honest_run(
    data: &Dataset,
    m: usize,
    params: &PivotParams,
) -> Vec<(DecisionTree, Vec<f64>, Snapshot)> {
    let partition = partition_vertically(data, m, 0);
    run_parties(m, |ep| {
        let view = partition.views[ep.id()].clone();
        let samples: Vec<Vec<f64>> = (0..view.num_samples())
            .map(|i| view.features[i].clone())
            .collect();
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        let tree = train_basic::train(&mut ctx);
        let preds = predict_basic::predict_batch(&mut ctx, &tree, &samples);
        (tree, preds, ctx.counters.snapshot())
    })
}

/// Labels in `[-1, 1]`: the label masks are `[α]` scaled by fixed-point
/// moments `(y+1)·2^f`, `(y+1)²·2^f` — a popcm over a multiplier that is
/// not a bit.
fn regression_dataset() -> Dataset {
    synth::make_regression(&synth::RegressionSpec {
        samples: 24,
        features: 4,
        informative: 3,
        noise: 0.05,
        seed: 21,
    })
}

#[test]
fn honest_runs_release_the_same_model_under_every_knob() {
    let classification = synth::make_classification(&synth::ClassificationSpec {
        samples: 24,
        features: 4,
        informative: 3,
        classes: 2,
        class_sep: 2.0,
        flip_y: 0.0,
        seed: 21,
    });
    for data in [classification, regression_dataset()] {
        honest_runs_release_the_same_model(&data);
    }
}

fn honest_runs_release_the_same_model(data: &Dataset) {
    let m = 3;
    let off = honest_run(data, m, &params_with(Verification::Off, None));
    let spot = honest_run(data, m, &params_with(Verification::Spot(0.25), None));
    let full = honest_run(data, m, &params_with(Verification::Full, None));

    // Off generates nothing and the counters stay zero.
    for (_, _, counters) in &off {
        for c in PROOF_COUNTS.into_iter().chain([Counter::VerificationNs]) {
            assert_eq!(counters[c], 0, "{c:?}");
        }
    }
    // The released model and predictions are knob-independent.
    for runs in [&spot, &full] {
        for ((tree, preds, counters), (ref_tree, ref_preds, _)) in runs.iter().zip(&off) {
            assert_eq!(tree, ref_tree, "verification must not perturb the model");
            assert_eq!(preds, ref_preds);
            let generated = counters[Counter::ProofsGenerated];
            assert_eq!(
                counters[Counter::ProofsRejected],
                0,
                "honest run rejected a proof"
            );
            assert!(generated > 0 || counters[Counter::ProofsVerified] > 0);
            assert!(counters[Counter::ProofBytes] > 0 || generated == 0);
        }
    }
    // Spot(0.25) skips most checks; Full skips none.
    for (_, _, counters) in &spot {
        let (verified, skipped) = (
            counters[Counter::ProofsVerified],
            counters[Counter::ProofsSkipped],
        );
        assert!(
            skipped > verified,
            "spot(0.25) verified {verified} of {} commits",
            verified + skipped
        );
    }
    for (_, _, counters) in &full {
        assert_eq!(counters[Counter::ProofsSkipped], 0);
        assert!(counters[Counter::ProofsVerified] > 0);
    }
}

/// Run a tampered session and assert every party raises `ProofRejected`
/// accusing `expect_party` in `expect_phase`.
fn assert_detected(data: &Dataset, m: usize, spec: &str, expect_kind: &str) {
    let adv = AdversarySpec::parse(spec).expect("valid adversary spec");
    let expect_party = adv.party;
    let expect_phase = adv.phase.clone();
    let params = params_with(Verification::Spot(1.0), Some(adv));
    let partition = partition_vertically(data, m, 0);
    let results = try_run_parties_with(m, NetConfig::default(), |ep| {
        let view = partition.views[ep.id()].clone();
        let samples: Vec<Vec<f64>> = (0..view.num_samples())
            .map(|i| view.features[i].clone())
            .collect();
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        let tree = train_basic::train(&mut ctx);
        predict_basic::predict_batch(&mut ctx, &tree, &samples)
    });
    assert_eq!(results.len(), m);
    for (observer, result) in results.into_iter().enumerate() {
        let failure = result.err().unwrap_or_else(|| {
            panic!("party {observer} did not detect tampering ({spec})");
        });
        let RunFailure::Protocol(ProtocolError::ProofRejected {
            party,
            observer: seen_by,
            phase,
            proof_kind,
            ..
        }) = failure
        else {
            panic!("party {observer}: expected ProofRejected, got {failure}");
        };
        assert_eq!(party, expect_party, "accused the wrong party");
        assert_eq!(seen_by, observer);
        assert_eq!(phase, expect_phase);
        assert_eq!(proof_kind, expect_kind, "caught by the wrong proof kind");
    }
}

#[test]
fn tampered_setup_commit_is_caught_and_attributed() {
    // The super client (party 0 after setup discovery) tampers its third
    // split-indicator encryption at setup.
    assert_detected(&crisp_dataset(), 2, "party 0 phase=setup index=2", "popk");
}

#[test]
fn tampered_label_mask_is_caught_and_attributed() {
    // Index 17 lands in the root's label vectors: a class indicator
    // times `[α]` (16 samples: the second vector), or the first
    // regression moment times `[α]` (24 samples).
    for data in [crisp_dataset(), regression_dataset()] {
        assert_detected(&data, 2, "party 0 phase=label_masks index=17", "popcm");
    }
}

#[test]
fn tampered_split_statistic_is_caught_and_attributed() {
    // Party 1 tampers one of its own pooled Eqn-7 statistics.
    assert_detected(&crisp_dataset(), 2, "party 1 phase=stats index=1", "pohdp");
}

#[test]
fn tampered_model_update_is_caught_and_attributed() {
    // Party 0 owns the crisp root feature, wins the root split, and
    // tampers one of its masked update vectors.
    assert_detected(&crisp_dataset(), 2, "party 0 phase=update index=3", "popcm");
}

#[test]
fn tampered_prediction_ring_is_caught_and_attributed() {
    // Party 1 (= m−1) tampers an η initialization commit in Algorithm 4.
    assert_detected(&crisp_dataset(), 2, "party 1 phase=predict index=5", "popk");
}

#[test]
fn tampered_final_prediction_is_caught_by_recompute() {
    // Party 0 tampers a final leaf dot product. Its predict commit space
    // is [masking commits: n·leaves][outputs: n], so aim past the η
    // stage: with ≤ 4 leaves and 16 samples the masking stage is at most
    // 64 commits; the recompute check addresses the tail.
    let data = crisp_dataset();
    let partition = partition_vertically(&data, 2, 0);
    let probe = run_parties(2, |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, params_with(Verification::Off, None));
        let tree = train_basic::train(&mut ctx);
        tree.leaf_paths().len()
    });
    let eta_commits = 16 * probe[0];
    assert_detected(
        &data,
        2,
        &format!("party 0 phase=predict index={eta_commits}"),
        "recompute",
    );
}

#[test]
fn gbdt_under_verification_keeps_the_one_slot_layout_and_its_proofs() {
    use pivot_core::config::Packing;
    use pivot_core::ensemble::{train_gbdt, GbdtProtocolParams};
    // keysize 256 admits three share-sum slots: unverified, a node carries
    // its stride (α, γ₁, γ₂) in ONE packed vector; verified, in the three
    // one-slot vectors the popk / popcm / pohdp hooks address — the layout
    // of `Packing::Off`, commit for commit. (Against the trainer that ran
    // every GBDT tree one-slot, the counts fell by the final round's dead
    // `accumulate_predictions` alone: n·leaves = 96 predict commits per
    // prover, 432 / 240 → 336 / 144 generated here.)
    let data = regression_dataset();
    let m = 2;
    let run = |verification: Verification, packing: Packing| {
        let params = PivotParams {
            keysize: 256,
            packing,
            ..params_with(verification, None)
        };
        let partition = partition_vertically(&data, m, 0);
        run_parties(m, |ep| {
            let view = partition.views[ep.id()].clone();
            let mut ctx = PartyContext::setup(&ep, view, params.clone());
            let gbdt = GbdtProtocolParams {
                rounds: 2,
                learning_rate: 0.5,
            };
            let model = train_gbdt(&mut ctx, &gbdt);
            let counters = ctx.counters.snapshot();
            let counters = PROOF_COUNTS.map(|c| counters[c]);
            let pooled = ctx.counters.get(Counter::SplitStatCiphertexts);
            (model.forests, counters, pooled)
        })
    };
    let packed = run(Verification::Off, Packing::Auto);
    let verified = run(Verification::Full, Packing::Auto);
    let verified_off = run(Verification::Full, Packing::Off);
    for party in 0..m {
        let (forests, counters, pooled) = &verified[party];
        assert_eq!(forests, &packed[party].0, "party {party} model");
        assert_eq!(3 * packed[party].2, *pooled, "one chunk for three");
        assert_eq!(&verified_off[party], &verified[party], "party {party}");
        let [generated, _, skipped, rejected, _] = *counters;
        assert_eq!(rejected, 0);
        assert_eq!(skipped, 0);
        assert_eq!(generated, [336, 144][party]);
    }
}
