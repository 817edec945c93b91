//! End-to-end tests of the `pivot` binary: spawn the real executable on
//! tiny scenarios and validate the emitted JSON reports.

use pivot_cli::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn pivot_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pivot")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pivot-cli-it-{}-{name}", std::process::id()))
}

fn run_pivot(args: &[&str]) -> Output {
    Command::new(pivot_bin())
        .args(args)
        .output()
        .expect("spawn pivot binary")
}

const TINY_TRAIN: &str = r#"
name = "integration tiny train"
seed = 17
parties = 3
algorithm = "pivot-basic"

[data]
kind = "synthetic-classification"
samples = 45
features_per_party = 2
classes = 2
test_fraction = 0.2

[params]
max_depth = 2
max_splits = 3
keysize = 128
"#;

#[test]
fn train_writes_parseable_report_with_timings_and_netstats() {
    let scenario = temp_path("train.toml");
    let out = temp_path("train-report.json");
    std::fs::write(&scenario, TINY_TRAIN).unwrap();

    let result = run_pivot(&[
        "train",
        "--scenario",
        scenario.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );

    let text = std::fs::read_to_string(&out).unwrap();
    let report = Json::parse(&text).expect("report must be valid JSON");

    // Scenario echo + seed.
    assert_eq!(report.get("command").unwrap().as_str(), Some("train"));
    assert_eq!(report.get("seed").unwrap().as_u64(), Some(17));
    assert_eq!(report.path("scenario.parties").unwrap().as_u64(), Some(3));
    assert_eq!(
        report.path("scenario.data.kind").unwrap().as_str(),
        Some("synthetic-classification")
    );

    // Per-stage wall clock.
    for stage in [
        "local_computation",
        "mpc_computation",
        "model_update",
        "prediction",
    ] {
        let v = report
            .path(&format!("timing.stages_s.{stage}"))
            .unwrap_or_else(|| panic!("missing stage {stage}"))
            .as_f64()
            .unwrap();
        assert!(v >= 0.0);
    }
    assert!(
        report
            .path("timing.wall_total_s")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    // Figures 4g–h: prediction latency per held-out sample.
    let timing = |key: &str| report.path(&format!("timing.{key}")).unwrap().as_f64();
    let test_samples = report.path("dataset.test_samples").unwrap().as_f64();
    let per_sample = timing("predict_per_sample_s").unwrap();
    assert!(
        (per_sample - timing("predict_s").unwrap() / test_samples.unwrap()).abs() < 1e-12,
        "predict_per_sample_s {per_sample}"
    );

    // Traffic per party: 3 entries, each with nonzero training traffic.
    let per_party = report
        .path("network.per_party")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(per_party.len(), 3);
    for (i, p) in per_party.iter().enumerate() {
        assert_eq!(p.get("party").unwrap().as_u64(), Some(i as u64));
        assert!(p.path("train.bytes_sent").unwrap().as_u64().unwrap() > 0);
        assert!(p.path("train.bytes_received").unwrap().as_u64().unwrap() > 0);
    }

    // Evaluation: accuracy on the held-out split.
    assert_eq!(
        report.path("evaluation.metric").unwrap().as_str(),
        Some("accuracy")
    );
    let acc = report.path("evaluation.value").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&acc), "accuracy {acc}");
    assert!(
        report
            .path("evaluation.test_samples")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );

    // Protocol counters present and plausible.
    assert!(
        report
            .path("counters.threshold_decryptions")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(
        report
            .path("counters.secure_comparisons")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );

    std::fs::remove_file(&scenario).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn training_without_a_test_split_reports_no_evaluation() {
    let scenario = temp_path("no-test.toml");
    let out = temp_path("no-test-report.json");
    let text = TINY_TRAIN.replace("test_fraction = 0.2", "test_fraction = 0");
    std::fs::write(&scenario, text).unwrap();

    let result = run_pivot(&[
        "train",
        "--scenario",
        scenario.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let samples = |path: &str| report.path(path).unwrap().as_u64();
    assert_eq!(samples("dataset.train_samples"), Some(45));
    assert_eq!(samples("dataset.test_samples"), Some(0));
    assert_eq!(report.path("evaluation.value"), Some(&Json::Null));
    assert_eq!(
        report.path("timing.predict_per_sample_s"),
        Some(&Json::Null)
    );
    assert!(samples("model.internal_nodes").unwrap() > 0);

    std::fs::remove_file(&scenario).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn an_oversized_randomness_pool_does_not_stall_setup() {
    // The key is retired: the largest value the schema admits must train
    // like any other instead of precomputing nonce powers before setup ends.
    let scenario = temp_path("huge-pool.toml");
    let out = temp_path("huge-pool-report.json");
    std::fs::write(
        &scenario,
        "seed = 5\nparties = 3\nalgorithm = \"pivot-basic-pp\"\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 60\n\
         features_per_party = 2\nclasses = 2\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 128\n\
         crypto_threads = 2\nrandomness_pool = 9007199254740991\n",
    )
    .unwrap();

    let mut child = Command::new(pivot_bin())
        .args(["train", "--scenario", scenario.to_str().unwrap()])
        .args(["--out", out.to_str().unwrap(), "--quiet"])
        .spawn()
        .expect("spawn pivot binary");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("pivot train still running after 60 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    assert!(status.success(), "pivot train exited with {status}");
    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let encryptions = report.path("counters.encryptions").and_then(Json::as_u64);
    assert!(encryptions.unwrap() > 0, "no encryption ran");

    std::fs::remove_file(&scenario).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn json_scenarios_are_accepted() {
    let scenario = temp_path("train.json");
    let out = temp_path("json-report.json");
    std::fs::write(
        &scenario,
        r#"{
            "name": "integration json scenario",
            "seed": 23,
            "parties": 2,
            "algorithm": "npd-dt",
            "data": {"kind": "synthetic-classification", "samples": 40,
                     "features_per_party": 2, "test_fraction": 0.2},
            "params": {"max_depth": 2, "max_splits": 3, "keysize": 128}
        }"#,
    )
    .unwrap();

    let result = run_pivot(&[
        "train",
        "--scenario",
        scenario.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(report.get("seed").unwrap().as_u64(), Some(23));
    assert_eq!(report.get("algorithm").unwrap().as_str(), Some("NPD-DT"));

    std::fs::remove_file(&scenario).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn bench_sweep_reports_every_point() {
    let scenario = temp_path("sweep.toml");
    let out = temp_path("sweep-report.json");
    std::fs::write(
        &scenario,
        r#"
name = "integration sweep"
seed = 29
algorithms = ["pivot-basic", "spdz-dt", "npd-dt"]

[data]
kind = "synthetic-classification"
samples = 40
features_per_party = 2
test_fraction = 0.2

[params]
max_depth = 2
max_splits = 3
keysize = 128

[sweep]
vary = "parties"
values = [2, 3]
"#,
    )
    .unwrap();

    let result = run_pivot(&[
        "bench",
        "--scenario",
        scenario.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(report.get("vary").unwrap().as_str(), Some("parties"));
    let entries = report.get("results").unwrap().as_array().unwrap();
    // One entry per (point, algorithm), points outermost.
    let expected = [
        (2, "Pivot-Basic"),
        (2, "SPDZ-DT"),
        (2, "NPD-DT"),
        (3, "Pivot-Basic"),
        (3, "SPDZ-DT"),
        (3, "NPD-DT"),
    ];
    assert_eq!(entries.len(), expected.len());
    for (e, (parties, algorithm)) in entries.iter().zip(expected) {
        assert_eq!(e.get("parties").unwrap().as_u64(), Some(parties));
        assert_eq!(e.get("algorithm").unwrap().as_str(), Some(algorithm));
        assert!(e.get("train_wall_s").unwrap().as_f64().unwrap() >= 0.0);
        assert!(e.get("bytes_sent_party0").unwrap().as_u64().unwrap() > 0);
        // The paper's Table 2 (Ce, Cd, Cs, Cc) is read off every point.
        for counter in [
            "encryptions",
            "threshold_decryptions",
            "secure_mults",
            "secure_comparisons",
        ] {
            let path = format!("counters.{counter}");
            assert!(
                e.path(&path).and_then(Json::as_u64).is_some(),
                "{algorithm} at parties={parties} lacks {path}"
            );
        }
    }

    std::fs::remove_file(&scenario).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn bad_inputs_fail_with_nonzero_exit() {
    // Missing scenario file.
    let r = run_pivot(&["train", "--scenario", "/nonexistent/s.toml"]);
    assert!(!r.status.success());
    assert!(String::from_utf8_lossy(&r.stderr).contains("cannot read"));

    // Unknown algorithm.
    let scenario = temp_path("bad-algo.toml");
    std::fs::write(&scenario, "algorithm = \"quantum\"").unwrap();
    let r = run_pivot(&["train", "--scenario", scenario.to_str().unwrap()]);
    assert!(!r.status.success());
    assert!(String::from_utf8_lossy(&r.stderr).contains("quantum"));
    std::fs::remove_file(&scenario).ok();

    // Typo'd key, and the removed `parallel_decrypt` (the `-pp`
    // algorithms are the one way to ask for threads and pools).
    for (line, key) in [
        ("max_dept = 3", "max_dept"),
        ("parallel_decrypt = true", "parallel_decrypt"),
    ] {
        let scenario = temp_path("bad-key.toml");
        std::fs::write(&scenario, format!("[params]\n{line}")).unwrap();
        let r = run_pivot(&["train", "--scenario", scenario.to_str().unwrap()]);
        assert!(!r.status.success());
        let stderr = String::from_utf8_lossy(&r.stderr);
        assert!(
            stderr.contains(&format!("unknown key params.{key}")),
            "{stderr}"
        );
        std::fs::remove_file(&scenario).ok();
    }

    // bench without a sweep.
    let scenario = temp_path("no-sweep.toml");
    std::fs::write(&scenario, "[data]\nkind = \"synthetic-classification\"").unwrap();
    let r = run_pivot(&["bench", "--scenario", scenario.to_str().unwrap()]);
    assert!(!r.status.success());
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("sweep"), "{stderr}");
    assert!(!stderr.contains("--baseline"), "{stderr}");
    std::fs::remove_file(&scenario).ok();

    // The removed perf-record flag is an argument like any other.
    let r = run_pivot(&["bench", "--baseline", "x.json"]);
    assert!(!r.status.success());
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(
        stderr.contains("unexpected argument \"--baseline\""),
        "{stderr}"
    );

    // Unknown flag.
    let r = run_pivot(&["train", "--scenari", "x.toml"]);
    assert!(!r.status.success());

    // The removed subcommand: `pivot train` reports the same run.
    let r = run_pivot(&["predict", "--scenario", "x.toml"]);
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert_eq!(r.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("was removed"), "{stderr}");
    assert!(stderr.contains("`pivot train`"), "{stderr}");

    // Values that used to get past the reader and panic in a party
    // thread (exit 101), or train another configuration (exit 0): each
    // is one `error:` line naming the key, exit 1.
    for (body, names) in [
        ("[data]\nclasses = 1", "data.classes"),
        (
            "[model]\nkind = \"random-forest\"\ntrees = 0",
            "model.trees",
        ),
        ("[model]\nkind = \"gbdt\"\nrounds = 0", "model.rounds"),
        (
            "[model]\nkind = \"gbdt\"\nlearning_rate = nan",
            "model.learning_rate",
        ),
        ("[params]\nkeysize = 4294967552", "params.keysize"),
        (
            "[data]\nsamples = 40\nfeatures_per_party = 2\n[params]\nkeysize = 64",
            "keysize 64",
        ),
        (
            "parties = 8\n[data]\nsamples = 40\nfeatures_per_party = 2\n\
             [params]\nkeysize = 256\npacking = 4",
            "exceeds the audited capacity of 3 65-bit slots",
        ),
        ("[data]\nclasses = 4\ninformative = 1", "data.classes"),
    ] {
        let scenario = temp_path("range-hole.toml");
        std::fs::write(&scenario, body).unwrap();
        let r = run_pivot(&["train", "--scenario", scenario.to_str().unwrap(), "--quiet"]);
        std::fs::remove_file(&scenario).ok();
        let stderr = String::from_utf8_lossy(&r.stderr);
        assert_eq!(r.status.code(), Some(1), "{body:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{body:?}: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{body:?}: {stderr}");
        assert!(stderr.contains(names), "{body:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{body:?}: {stderr}");
    }
}

#[test]
fn a_report_and_its_trace_export_print_the_same_phase_tables() {
    let scenario = temp_path("traced.toml");
    let out = temp_path("traced-report.json");
    let export = temp_path("traced-report-trace.json");
    std::fs::write(
        &scenario,
        TINY_TRAIN.replace("[params]", "[params]\ntrace = \"phases\""),
    )
    .unwrap();
    let (report, export_str) = (out.to_str().unwrap(), export.to_str().unwrap());
    let trained = run_pivot(&[
        "train",
        "--scenario",
        scenario.to_str().unwrap(),
        "--out",
        report,
        "--quiet",
    ]);
    assert!(
        trained.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&trained.stderr)
    );
    let stdout = |args: &[&str]| {
        let r = run_pivot(args);
        let text = String::from_utf8(r.stdout).unwrap();
        assert!(r.status.success(), "{args:?}: {text}");
        text
    };
    // Table rows are indented; headings and the export's span list are not.
    let rows = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("  "))
            .map(str::to_string)
            .collect()
    };
    let from_report = stdout(&["trace", report]);
    let from_export = stdout(&["trace", export_str]);
    assert_eq!(rows(&from_report), rows(&from_export));
    // Three parties and their merge.
    let tables = rows(&from_report)
        .iter()
        .filter(|l| l.trim_start().starts_with("phase "))
        .count();
    assert_eq!(tables, 4, "{from_report}");

    let diff = stdout(&["trace", report, "--diff", export_str]);
    let deltas: Vec<&str> = diff
        .lines()
        .skip(2)
        .take_while(|l| !l.starts_with("round ratio"))
        .collect();
    assert!(deltas.iter().any(|l| l.starts_with("total ")), "{diff}");
    for line in deltas {
        let cols: Vec<&str> = line.split_whitespace().collect();
        for delta in [cols[3], cols[6], cols[9]] {
            assert!(delta.starts_with("+0"), "{line}");
            assert_eq!(delta.parse::<f64>(), Ok(0.0), "{line}");
        }
    }
    assert!(diff.contains("round ratio A/B = 1.00×"), "{diff}");

    for path in [scenario, out, export, temp_path("traced-report-trace.prom")] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn random_forest_trains_end_to_end() {
    let scenario = temp_path("rf.toml");
    let out = temp_path("rf-report.json");
    std::fs::write(
        &scenario,
        r#"
name = "integration random forest"
seed = 31
parties = 2
algorithm = "pivot-basic"

[data]
kind = "synthetic-classification"
samples = 40
features_per_party = 2
classes = 2
test_fraction = 0.25

[params]
max_depth = 2
max_splits = 3
keysize = 128

[model]
kind = "random-forest"
trees = 2
sample_fraction = 0.75
"#,
    )
    .unwrap();

    let result = run_pivot(&[
        "train",
        "--scenario",
        scenario.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    // The echo carries the forest's keys and none of the booster's.
    let model = report.path("scenario.model").unwrap();
    assert_eq!(model.get("kind").unwrap().as_str(), Some("random-forest"));
    assert_eq!(model.get("trees").unwrap().as_u64(), Some(2));
    assert_eq!(model.get("sample_fraction").unwrap().as_f64(), Some(0.75));
    assert_eq!(model.keys(), vec!["kind", "trees", "sample_fraction"]);
    assert!(
        report
            .path("model.internal_nodes")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    // Two well-separated classes: above chance on the held-out split.
    let accuracy = report.path("evaluation.value").unwrap().as_f64().unwrap();
    assert!(accuracy > 0.5, "accuracy {accuracy}");

    std::fs::remove_file(&scenario).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn help_and_version_succeed() {
    let r = run_pivot(&["--help"]);
    assert!(r.status.success());
    let help = String::from_utf8_lossy(&r.stdout);
    assert!(help.contains("train"));
    assert!(help.contains("--scenario"));

    let r = run_pivot(&["--version"]);
    assert!(r.status.success());
    assert!(String::from_utf8_lossy(&r.stdout).contains("pivot-cli"));
}

#[test]
fn example_scenarios_parse() {
    // Keep the shipped examples loadable (they are exercised end-to-end in
    // docs/CI; here we at least guarantee they parse and validate).
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/scenarios exists") {
        let path = entry.unwrap().path();
        if path
            .extension()
            .map(|e| e == "toml" || e == "json")
            .unwrap_or(false)
        {
            pivot_cli::scenario::Scenario::load(&path)
                .unwrap_or_else(|e| panic!("{} fails to load: {e}", path.display()));
            seen += 1;
        }
    }
    assert!(
        seen >= 3,
        "expected at least 3 example scenarios, found {seen}"
    );
}
