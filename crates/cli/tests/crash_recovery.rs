//! Crash-recovery integration tests: a real `pivot party` process is
//! SIGKILLed mid-training and relaunched with `--resume`, and the run
//! must complete **bit-identical** to a fault-free run.
//!
//! Contracts pinned here:
//!
//! 1. **Durable resume** — with a `[checkpoint]` section, the supervisor
//!    (`--supervise`) kills party 1 once its level-2 checkpoint lands on
//!    disk, waits `restart_after_ms`, and relaunches it with `--resume`.
//!    The relaunched process replays its recorded inbound transcript
//!    through the deterministic protocol and rejoins the live mesh; the
//!    final model, metric, predictions, and payload byte counts match a
//!    fault-free in-process run exactly. Survivors park at the barrier
//!    (liveness watchdog) and record `session.rejoins >= 1`.
//! 2. **Misuse is typed** — `--resume` without a `[checkpoint]` section
//!    is a usage error (exit 1), not a panic or a silent fresh start.

use pivot_cli::json::Json;
use pivot_transport::tcp::loopback_peers;
use std::path::PathBuf;
use std::process::{Child, Command};

fn pivot_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pivot")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pivot-crash-it-{}-{name}", std::process::id()))
}

fn spawn_party(scenario: &str, id: usize, peers: &[String], out: &str, supervise: bool) -> Child {
    let mut cmd = Command::new(pivot_bin());
    cmd.args([
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
    ]);
    if supervise {
        cmd.arg("--supervise");
    }
    cmd.spawn().expect("spawn pivot party")
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

/// The chaos scenario, parameterised on the checkpoint directory so the
/// fault-free twin can checkpoint into its own scratch space without
/// clobbering the supervised run's files.
fn scenario_text(ckpt_dir: &str) -> String {
    format!(
        r#"
name = "crash-recovery chaos baseline (kill party 1 at level 2)"
seed = 1031
parties = 3
algorithm = "pivot-enhanced-pp"

[data]
kind = "synthetic-classification"
samples = 60
features_per_party = 2
classes = 2
class_sep = 1.5
test_fraction = 0.25

[params]
max_depth = 4
max_splits = 3
min_samples = 2
keysize = 128

[checkpoint]
every_levels = 1
dir = "{ckpt_dir}"

[network]
recv_timeout_s = 120
connect_timeout_s = 30
heartbeat_s = 0.2
rejoin_deadline_s = 60

[faults]
plan = ["kill_party 1 at_level=2 restart_after_ms=500"]
seed = 1031
"#
    )
}

#[test]
fn sigkill_at_level_barrier_resumes_bit_identically() {
    let m = 3;
    let ckpt_dir = temp_path("ckpt-chaos");
    let clean_ckpt_dir = temp_path("ckpt-clean");
    std::fs::remove_dir_all(&ckpt_dir).ok();
    std::fs::remove_dir_all(&clean_ckpt_dir).ok();

    let chaos = temp_path("kill.toml");
    let chaos_text = scenario_text(ckpt_dir.to_str().unwrap());
    std::fs::write(&chaos, &chaos_text).unwrap();

    // Fault-free twin: the same scenario minus [faults], checkpointing
    // into its own directory, run on the in-process backend. This is the
    // strong form of the parity gate — SIGKILL-and-resume TCP against
    // fault-free threads.
    let clean = temp_path("kill-clean.toml");
    let clean_text = chaos_text
        .split("\n[faults]")
        .next()
        .expect("scenario has a [faults] section")
        .replace(ckpt_dir.to_str().unwrap(), clean_ckpt_dir.to_str().unwrap());
    assert!(clean_text.contains("[checkpoint]"), "strip kept the config");
    std::fs::write(&clean, &clean_text).unwrap();
    let train_out = temp_path("kill-clean-train.json");
    run_train(clean.to_str().unwrap(), train_out.to_str().unwrap());
    let baseline = Json::parse(&std::fs::read_to_string(&train_out).unwrap()).unwrap();
    let per_party = baseline
        .path("network.per_party")
        .unwrap()
        .as_array()
        .unwrap();

    let peers = loopback_peers(m);
    let party_outs: Vec<PathBuf> = (0..m)
        .map(|i| temp_path(&format!("kill-party{i}.json")))
        .collect();
    // Party 1 runs under the supervisor, which SIGKILLs it once its
    // level-2 checkpoint is durable and relaunches it with --resume.
    let children: Vec<Child> = (0..m)
        .map(|i| {
            spawn_party(
                chaos.to_str().unwrap(),
                i,
                &peers,
                party_outs[i].to_str().unwrap(),
                i == 1,
            )
        })
        .collect();
    for (i, child) in children.into_iter().enumerate() {
        let out = child.wait_with_output().expect("party process");
        assert!(
            out.status.success(),
            "party {i} failed despite checkpointed kill: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let mut all_predictions = Vec::new();
    for (i, out) in party_outs.iter().enumerate() {
        let report = Json::parse(&std::fs::read_to_string(out).unwrap())
            .unwrap_or_else(|e| panic!("party {i} report unparseable: {e}"));
        // Model, metric, and traffic: bit-identical to the fault-free
        // run. The restarted party recomputes from genesis against its
        // recorded transcript, so even its byte counters land exactly on
        // the fault-free totals.
        assert_eq!(
            report.path("evaluation.value").unwrap().as_f64(),
            baseline.path("evaluation.value").unwrap().as_f64(),
            "party {i} metric"
        );
        assert_eq!(
            report.path("model.internal_nodes").unwrap().as_u64(),
            baseline.path("model.internal_nodes").unwrap().as_u64(),
            "party {i} model"
        );
        for phase in ["train", "predict"] {
            for field in ["bytes_sent", "bytes_received"] {
                assert_eq!(
                    report.path(&format!("network.{phase}.{field}")).unwrap(),
                    per_party[i].path(&format!("{phase}.{field}")).unwrap(),
                    "party {i} {phase}.{field}"
                );
            }
        }
        all_predictions.push(report.get("predictions").unwrap().clone());

        let session = |field: &str| {
            report
                .path(&format!("network.session.{field}"))
                .unwrap()
                .as_u64()
                .unwrap()
        };
        if i != 1 {
            // Survivors parked at the barrier and spliced the restarted
            // peer back in.
            assert!(session("rejoins") >= 1, "party {i} spliced the rejoin");
        }
        // Every party checkpointed (the supervisor gates the kill on the
        // level-2 file existing, so at least two barriers committed).
        assert!(
            report
                .path("counters.checkpoint.written")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 2,
            "party {i} checkpoints"
        );
        std::fs::remove_file(out).ok();
    }
    for (i, preds) in all_predictions.iter().enumerate() {
        assert_eq!(preds, &all_predictions[0], "party {i} predictions differ");
        assert!(!preds.as_array().unwrap().is_empty());
    }

    // The checkpoint directory holds pruned, versioned files — at most
    // two per party (keep-last-2), named for barrier ordinal and level.
    let mut files: Vec<String> = std::fs::read_dir(&ckpt_dir)
        .expect("checkpoint dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no checkpoint files written");
    for p in 0..m {
        let mine = files
            .iter()
            .filter(|f| f.starts_with(&format!("party{p}-")) && f.ends_with(".ckpt"))
            .count();
        assert!(
            (1..=2).contains(&mine),
            "party {p} kept {mine} checkpoints: {files:?}"
        );
    }

    std::fs::remove_dir_all(&ckpt_dir).ok();
    std::fs::remove_dir_all(&clean_ckpt_dir).ok();
    std::fs::remove_file(&train_out).ok();
    std::fs::remove_file(&chaos).ok();
    std::fs::remove_file(&clean).ok();
}

#[test]
fn resume_without_checkpoint_section_is_a_usage_error() {
    let scenario = temp_path("no-ckpt.toml");
    std::fs::write(
        &scenario,
        r#"
name = "no checkpoint section"
seed = 5
parties = 2
algorithm = "pivot-basic"

[data]
kind = "synthetic-classification"
samples = 40
features_per_party = 2
classes = 2
test_fraction = 0.2

[params]
max_depth = 2
max_splits = 3
keysize = 128
"#,
    )
    .unwrap();

    let out = Command::new(pivot_bin())
        .args([
            "party",
            "--scenario",
            scenario.to_str().unwrap(),
            "--id",
            "0",
            "--peers",
            "127.0.0.1:1,127.0.0.1:2",
            "--resume",
            "--quiet",
        ])
        .output()
        .expect("spawn pivot party");
    assert_eq!(out.status.code(), Some(1), "usage error expected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[checkpoint]"),
        "stderr names the missing section: {stderr}"
    );

    std::fs::remove_file(&scenario).ok();
}
