//! The two contracts the single level-wise trainer is held to (ROADMAP
//! item 2), for basic-PP, enhanced-PP and GBDT at m = 3 with packing and
//! bounded comparisons on:
//!
//! (a) **Oracle equality.** The released model equals the `pivot-trees`
//!     plaintext oracle trained on the joined data: same splits and leaf
//!     values for the plaintext models (basic, GBDT), same opened
//!     predictions for the concealed one (enhanced).
//! (b) **Golden counters.** Rounds, secure multiplications and
//!     comparisons, threshold decryptions, training bytes and messages of
//!     every party, and the prediction vector, equal constants recorded
//!     from the `scheduling = "pipelined"` run of the commit that still
//!     had the recursive and per-node trainers — so a refactor of the
//!     loop that moves any protocol operation fails here.
//!
//! The counters are checked in-process and as three `pivot party`
//! processes over loopback TCP, whose reports must also equal the
//! in-process run's.

use pivot_cli::json::Json;
use pivot_cli::runner::{execute, prepare, Execution};
use pivot_cli::scenario::Scenario;
use pivot_core::ensemble::{train_gbdt, GbdtProtocolParams};
use pivot_core::{train_basic, PartyContext};
use pivot_data::{partition_vertically, Dataset, Task};
use pivot_transport::run_parties_with;
use pivot_transport::tcp::loopback_peers;
use pivot_trees::{train_tree, DecisionTree, Node, TreeParams};
use std::path::PathBuf;
use std::process::{Child, Command};

/// One party's pinned counters: `mpc_rounds`, `secure_mults`,
/// `secure_comparisons`, `threshold_decryptions`, `train_bytes_sent`,
/// `train_messages_sent`.
type Counters = [u64; 6];

struct Case {
    tag: &'static str,
    /// Scenario text: seed, algorithm, data, model and tree shape.
    body: &'static str,
    golden: [Counters; 3],
    predictions: &'static [f64],
}

const BASIC: Case = Case {
    tag: "basic",
    body: "seed = 4242\nalgorithm = \"pivot-basic-pp\"\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 36\n\
         features_per_party = 2\nclasses = 2\nflip_y = 0.05\ntest_fraction = 0.2\n",
    golden: [
        [132, 29684, 1114, 76, 1074676, 318],
        [132, 29684, 1114, 76, 1024206, 294],
        [132, 29684, 1114, 76, 1024206, 294],
    ],
    predictions: &[0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0],
};

const ENHANCED: Case = Case {
    tag: "enhanced",
    body: "seed = 31337\nalgorithm = \"pivot-enhanced-pp\"\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 40\n\
         features_per_party = 2\nclasses = 2\nflip_y = 0.05\ntest_fraction = 0.3\n",
    golden: [
        [163, 31497, 1186, 208, 1147312, 383],
        [163, 31497, 1186, 208, 1090826, 350],
        [163, 31497, 1186, 208, 1081342, 341],
    ],
    predictions: &[
        1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0,
    ],
};

const GBDT: Case = Case {
    tag: "gbdt",
    body: "seed = 7\nalgorithm = \"pivot-basic-pp\"\n\
         [data]\nkind = \"synthetic-regression\"\nsamples = 40\n\
         features_per_party = 2\nnoise = 0.05\ntest_fraction = 0.25\n\
         [model]\nkind = \"gbdt\"\nrounds = 2\nlearning_rate = 0.5\n",
    golden: [
        [341, 91694, 2260, 436, 3345150, 932],
        [341, 91694, 2260, 436, 3213815, 796],
        [341, 91694, 2260, 436, 3239987, 810],
    ],
    predictions: &[
        0.1257009506225586,
        0.2709846496582031,
        -0.0650186538696289,
        0.2709846496582031,
        0.3996105194091797,
        -0.20336341857910156,
        -0.2263345718383789,
        0.3996105194091797,
        -0.36467933654785156,
        0.1257009506225586,
    ],
};

/// Tree shape and crypto configuration shared by every case.
const PARAMS: &str = "[params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 256\n\
     crypto_threads = 2\n";

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pivot-trainer-contract-{}-{name}",
        std::process::id()
    ))
}

/// The tree-growing parameters the scenario trains with, for the oracle.
fn tree_params(scenario: &Scenario) -> TreeParams {
    scenario
        .pivot_params(scenario.sole_algorithm().unwrap())
        .tree
}

/// Train on the joined data through the library entry point `train`, one
/// thread per party, and return the training set with every party's model.
fn train_federated<M: Send>(
    scenario: &Scenario,
    train: impl Fn(&mut PartyContext<'_>) -> M + Send + Sync,
) -> (Dataset, Vec<M>) {
    let algo = scenario.sole_algorithm().unwrap();
    let (train_set, _, params) = prepare(scenario, algo).unwrap();
    let partition = partition_vertically(&train_set, scenario.parties, 0);
    let models = run_parties_with(scenario.parties, scenario.net_config(), |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        train(&mut ctx)
    });
    (train_set, models)
}

/// Same splits (feature and threshold, exactly) in the same arena layout;
/// leaf values agree to fixed-point precision.
fn assert_same_tree(federated: &DecisionTree, oracle: &DecisionTree, what: &str) {
    assert_eq!(federated.root(), oracle.root(), "{what}: root");
    assert_eq!(
        federated.nodes().len(),
        oracle.nodes().len(),
        "{what}: node count"
    );
    for (id, (node, expect)) in federated.nodes().iter().zip(oracle.nodes()).enumerate() {
        match (node, expect) {
            (
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                },
                Node::Internal {
                    feature: of,
                    threshold: ot,
                    left: ol,
                    right: or,
                },
            ) => assert_eq!(
                (feature, threshold, left, right),
                (of, ot, ol, or),
                "{what}: split at node {id}"
            ),
            (Node::Leaf { value }, Node::Leaf { value: ov }) => assert!(
                (value - ov).abs() < 1e-3,
                "{what}: leaf {id} is {value}, oracle {ov}"
            ),
            _ => panic!("{what}: node {id} is {node:?}, oracle {expect:?}"),
        }
    }
}

/// Contract (b) for one party.
fn assert_golden(case: &Case, party: usize, counters: Counters, predictions: &[f64], how: &str) {
    assert_eq!(
        counters, case.golden[party],
        "{} {how}: party {party} [rounds, mults, comparisons, decryptions, bytes, messages]",
        case.tag
    );
    assert_eq!(
        predictions, case.predictions,
        "{} {how}: party {party} predictions",
        case.tag
    );
}

fn pivot_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pivot")
}

fn spawn_party(scenario: &str, id: usize, peers: &[String], out: &str) -> Child {
    Command::new(pivot_bin())
        .args([
            "party",
            "--scenario",
            scenario,
            "--id",
            &id.to_string(),
            "--peers",
            &peers.join(","),
            "--out",
            out,
            "--quiet",
        ])
        .spawn()
        .expect("spawn pivot party")
}

fn u64_at(report: &Json, path: &str) -> u64 {
    report
        .path(path)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("report misses {path}"))
}

/// Run the case in-process through the CLI runner and as three `pivot
/// party` processes over loopback TCP. Both must show the golden
/// counters, and the TCP reports must equal the in-process run in the
/// rest of what a transport may not change: metric, model shape and the
/// payload bytes of both phases in both directions.
fn run_both_backends(case: &Case) -> (Scenario, Execution) {
    let path = temp_path(&format!("{}.toml", case.tag));
    std::fs::write(&path, format!("parties = 3\n{}{PARAMS}", case.body)).unwrap();
    let scenario = Scenario::load(&path).unwrap();
    let exec = execute(&scenario, scenario.sole_algorithm().unwrap(), false).unwrap();
    for p in &exec.parties {
        let counters = [
            p.mpc_rounds,
            p.secure_mults,
            p.secure_comparisons,
            p.threshold_decryptions,
            p.train_bytes_sent,
            p.train_messages_sent,
        ];
        assert_golden(case, p.party, counters, &p.predictions, "in-process");
    }

    let peers = loopback_peers(3);
    let outs: Vec<PathBuf> = (0..3)
        .map(|i| temp_path(&format!("{}-party{i}.json", case.tag)))
        .collect();
    let children: Vec<Child> = (0..3)
        .map(|i| spawn_party(path.to_str().unwrap(), i, &peers, outs[i].to_str().unwrap()))
        .collect();
    for (i, child) in children.into_iter().enumerate() {
        let status = child.wait_with_output().expect("party process");
        assert!(status.status.success(), "{} party {i} failed", case.tag);
    }
    for (i, (out, expect)) in outs.iter().zip(&exec.parties).enumerate() {
        let report = Json::parse(&std::fs::read_to_string(out).unwrap())
            .unwrap_or_else(|e| panic!("{} party {i} report unparseable: {e}", case.tag));
        let counters = [
            u64_at(&report, "counters.mpc_rounds"),
            u64_at(&report, "counters.secure_mults"),
            u64_at(&report, "counters.secure_comparisons"),
            u64_at(&report, "counters.threshold_decryptions"),
            u64_at(&report, "network.train.bytes_sent"),
            u64_at(&report, "network.train.messages_sent"),
        ];
        let predictions: Vec<f64> = report
            .get("predictions")
            .and_then(Json::as_array)
            .expect("predictions")
            .iter()
            .map(|v| v.as_f64().expect("numeric prediction"))
            .collect();
        assert_golden(case, i, counters, &predictions, "tcp");
        assert_eq!(
            report.path("evaluation.value").unwrap().as_f64(),
            exec.metric,
            "{} party {i} metric",
            case.tag
        );
        assert_eq!(
            (
                u64_at(&report, "model.internal_nodes"),
                u64_at(&report, "network.train.bytes_received"),
                u64_at(&report, "network.predict.bytes_sent"),
                u64_at(&report, "network.predict.bytes_received"),
            ),
            (
                expect.internal_nodes as u64,
                expect.train_bytes_received,
                expect.predict_bytes_sent,
                expect.predict_bytes_received,
            ),
            "{} party {i}: tcp [nodes, train recv, predict sent, predict recv] vs in-process",
            case.tag
        );
        std::fs::remove_file(out).ok();
    }
    std::fs::remove_file(&path).ok();
    (scenario, exec)
}

#[test]
fn basic_pp_equals_the_cart_oracle_and_the_golden_counters() {
    let (scenario, _) = run_both_backends(&BASIC);
    let (train_set, trees) = train_federated(&scenario, train_basic::train);
    let oracle = train_tree(&train_set, &tree_params(&scenario));
    for (party, tree) in trees.iter().enumerate() {
        assert_same_tree(tree, &oracle, &format!("basic party {party}"));
    }
}

#[test]
fn enhanced_pp_predicts_like_the_cart_oracle_and_matches_the_golden_counters() {
    let (scenario, exec) = run_both_backends(&ENHANCED);
    let (train_set, test_set, _) = prepare(&scenario, exec.algo).unwrap();
    let oracle = train_tree(&train_set, &tree_params(&scenario));
    let samples: Vec<Vec<f64>> = (0..test_set.num_samples())
        .map(|i| test_set.sample(i).to_vec())
        .collect();
    assert_eq!(
        exec.parties[0].predictions,
        oracle.predict_batch(&samples),
        "enhanced: opened predictions vs oracle"
    );
}

#[test]
fn gbdt_equals_the_boosted_cart_oracle_and_the_golden_counters() {
    let (scenario, _) = run_both_backends(&GBDT);
    let rounds = scenario.model.rounds;
    let learning_rate = scenario.model.learning_rate;
    let (train_set, models) = train_federated(&scenario, |ctx| {
        train_gbdt(
            ctx,
            &GbdtProtocolParams {
                rounds,
                learning_rate,
            },
        )
    });
    // The protocol boosts squared-loss residuals from a zero score (§7.2).
    let mut scores = vec![0.0; train_set.num_samples()];
    for round in 0..rounds {
        let residuals: Vec<f64> = train_set
            .labels()
            .iter()
            .zip(&scores)
            .map(|(y, s)| y - s)
            .collect();
        let stage = train_set.with_labels(residuals, Task::Regression);
        let oracle = train_tree(&stage, &tree_params(&scenario));
        for (party, model) in models.iter().enumerate() {
            let what = format!("gbdt party {party} round {round}");
            assert_same_tree(&model.forests[0][round], &oracle, &what);
        }
        for (i, score) in scores.iter_mut().enumerate() {
            *score += learning_rate * oracle.predict(train_set.sample(i));
        }
    }
}
