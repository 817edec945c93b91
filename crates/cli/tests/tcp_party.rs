//! Distributed-mode integration tests: spawn `m` real `pivot party`
//! processes on loopback TCP and assert the run reproduces the
//! in-process `pivot train` report — same model shape, same metric, same
//! per-party byte counts, bit for bit.

use pivot_cli::json::Json;
use pivot_transport::tcp::loopback_peers;
use std::path::PathBuf;
use std::process::{Child, Command};

fn pivot_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pivot")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pivot-tcp-it-{}-{name}", std::process::id()))
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

fn run_train(scenario: &str, out: &str) {
    let result = Command::new(pivot_bin())
        .args(["train", "--scenario", scenario, "--out", out, "--quiet"])
        .output()
        .expect("spawn pivot train");
    assert!(
        result.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&result.stderr)
    );
}

/// A report's `counters` section without the cross-party sums
/// (`comparisons_all_parties`, `checkpoint`) and `verification.wall_s`.
fn party_counters(report: &Json) -> Json {
    let Some(Json::Obj(entries)) = report.get("counters").cloned() else {
        panic!("report has no counters section");
    };
    Json::Obj(
        entries
            .into_iter()
            .filter(|(k, _)| k != "comparisons_all_parties" && k != "checkpoint")
            .map(|(k, v)| match v {
                Json::Obj(fields) if k == "verification" => (
                    k,
                    Json::Obj(fields.into_iter().filter(|(f, _)| f != "wall_s").collect()),
                ),
                v => (k, v),
            })
            .collect(),
    )
}

/// Train `scenario` once in-process and once as `m` TCP processes, then
/// assert the per-party reports agree with the in-process report.
fn assert_tcp_matches_in_process(tag: &str, scenario_path: &str, m: usize) {
    let train_out = temp_path(&format!("{tag}-train.json"));
    run_train(scenario_path, train_out.to_str().unwrap());
    let in_process = Json::parse(&std::fs::read_to_string(&train_out).unwrap()).unwrap();

    let peers = loopback_peers(m);
    let party_outs: Vec<PathBuf> = (0..m)
        .map(|i| temp_path(&format!("{tag}-party{i}.json")))
        .collect();
    let children: Vec<Child> = (0..m)
        .map(|i| spawn_party(scenario_path, i, &peers, party_outs[i].to_str().unwrap()))
        .collect();
    for (i, child) in children.into_iter().enumerate() {
        let status = child.wait_with_output().expect("party process");
        assert!(status.status.success(), "party {i} failed");
    }

    let per_party = in_process
        .path("network.per_party")
        .unwrap()
        .as_array()
        .unwrap();
    let expect_metric = in_process.path("evaluation.value").unwrap().as_f64();
    let expect_nodes = in_process.path("model.internal_nodes").unwrap().as_u64();
    let mut all_predictions = Vec::new();
    for (i, out) in party_outs.iter().enumerate() {
        let report = Json::parse(&std::fs::read_to_string(out).unwrap())
            .unwrap_or_else(|e| panic!("party {i} report unparseable: {e}"));
        assert_eq!(report.get("command").unwrap().as_str(), Some("party"));
        assert_eq!(report.get("party").unwrap().as_u64(), Some(i as u64));
        // Metric and model shape: identical to the in-process run.
        assert_eq!(
            report.path("evaluation.value").unwrap().as_f64(),
            expect_metric,
            "party {i} metric"
        );
        assert_eq!(
            report.path("model.internal_nodes").unwrap().as_u64(),
            expect_nodes,
            "party {i} model"
        );
        // Per-party traffic: byte counts over TCP must equal the
        // in-process backend's, field for field (payload accounting is
        // backend-independent; framing is transport-internal).
        for path in [
            "train.bytes_sent",
            "train.bytes_received",
            "train.messages_sent",
            "predict.bytes_sent",
            "predict.bytes_received",
        ] {
            assert_eq!(
                report.path(&format!("network.{path}")).unwrap(),
                per_party[i].path(path).unwrap(),
                "party {i} {path}"
            );
        }
        // Party 0's counters are the in-process report's, less what
        // differs by construction: the cross-party sums and a wall clock.
        if i == 0 {
            assert_eq!(
                party_counters(&report),
                party_counters(&in_process),
                "party 0 counters"
            );
        }
        all_predictions.push(report.get("predictions").unwrap().clone());
        std::fs::remove_file(out).ok();
    }
    // Every process agrees on the jointly computed predictions.
    for (i, preds) in all_predictions.iter().enumerate() {
        assert_eq!(preds, &all_predictions[0], "party {i} predictions differ");
        assert!(!preds.as_array().unwrap().is_empty());
    }
    std::fs::remove_file(&train_out).ok();
}

#[test]
fn tcp_parties_reproduce_in_process_basic_run() {
    // The shipped basic-protocol example scenario, all 3 parties as
    // separate OS processes.
    let scenario = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/classification.toml");
    assert_tcp_matches_in_process("basic", scenario.to_str().unwrap(), 3);
}

#[test]
fn tcp_parties_reproduce_in_process_enhanced_run() {
    // Enhanced protocol (§5): concealed splits/labels exercise the
    // TPHE↔MPC conversion traffic over real sockets.
    let scenario = temp_path("enhanced.toml");
    std::fs::write(
        &scenario,
        r#"
name = "tcp enhanced parity"
seed = 31
parties = 2
algorithm = "pivot-enhanced"

[data]
kind = "synthetic-classification"
samples = 40
features_per_party = 2
classes = 2
test_fraction = 0.2

[params]
max_depth = 2
max_splits = 3
keysize = 192
"#,
    )
    .unwrap();
    assert_tcp_matches_in_process("enhanced", scenario.to_str().unwrap(), 2);
    std::fs::remove_file(&scenario).ok();
}

#[test]
fn party_rejects_bad_invocations() {
    let scenario = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/classification.toml");
    let scenario = scenario.to_str().unwrap();

    // Wrong peer count for the scenario's party count.
    let r = Command::new(pivot_bin())
        .args([
            "party",
            "--scenario",
            scenario,
            "--id",
            "0",
            "--peers",
            "127.0.0.1:1,127.0.0.1:2",
        ])
        .output()
        .unwrap();
    assert!(!r.status.success());
    assert!(String::from_utf8_lossy(&r.stderr).contains("3 parties"));

    // Party id out of range.
    let r = Command::new(pivot_bin())
        .args([
            "party",
            "--scenario",
            scenario,
            "--id",
            "7",
            "--peers",
            "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3",
        ])
        .output()
        .unwrap();
    assert!(!r.status.success());
    assert!(String::from_utf8_lossy(&r.stderr).contains("out of range"));

    // Missing --peers.
    let r = Command::new(pivot_bin())
        .args(["party", "--scenario", scenario, "--id", "0"])
        .output()
        .unwrap();
    assert!(!r.status.success());
    assert!(String::from_utf8_lossy(&r.stderr).contains("--peers"));
}
