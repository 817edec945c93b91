//! One run of a workload: spawn the program, read its report(s), check
//! the output, and reduce everything to the numbers the benchmark keeps.

use crate::run::{free_loopback_peers, log_path, log_tail, run_children, ChildExit};
use crate::workload::{Oracle, Topology, Workload, PARTIES};
use pivot_cli::json::Json;
use pivot_data::Dataset;
use pivot_zkp::Sha256;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// The test metric may differ from the plaintext oracle's by at most this
/// (the tolerance `crates/core/tests/basic_protocol.rs` uses).
pub const ORACLE_TOLERANCE: f64 = 0.05;

/// The protocol phases of `pivot-trace`'s phase table, in report order.
pub const PHASES: [&str; 9] = [
    "setup",
    "stats",
    "conversion",
    "gain",
    "split_reveal",
    "update",
    "leaf",
    "predict",
    "other",
];

#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseRow {
    pub wall_s: f64,
    pub wait_s: f64,
    pub rounds: u64,
    pub bytes_sent: u64,
}

/// What one party's report says. An in-process report is party 0's view
/// with the traffic of all three parties summed.
#[derive(Clone, Debug, PartialEq)]
pub struct PartyReport {
    pub wall_total_s: f64,
    pub train_s: f64,
    pub predict_s: f64,
    pub test_samples: u64,
    pub train_bytes_sent: u64,
    pub train_messages: u64,
    pub encryptions: u64,
    pub ciphertext_ops: u64,
    pub opened_elements: u64,
    pub beaver_triples: u64,
    pub split_stat_ciphertexts: u64,
    /// Useful outcomes over attempts; 0 when nothing was attempted.
    pub nonce_pool_hit_rate: f64,
    pub dealer_pool_hit_rate: f64,
    pub packing_occupancy: f64,
    pub agreed: Agreed,
    /// This party's phase table (traced runs only), indexed as [`PHASES`].
    pub phases: Option<Vec<PhaseRow>>,
}

/// What every party of a run must report identically (encryptions and
/// ciphertext operations are not in it: the super client legitimately
/// does more of both).
#[derive(Clone, Debug, PartialEq)]
pub struct Agreed {
    pub threshold_decryptions: u64,
    pub mpc_rounds: u64,
    pub secure_mults: u64,
    pub secure_comparisons: u64,
    /// The test metric: accuracy, or MSE for regression.
    pub metric: f64,
    pub internal_nodes: u64,
    /// `None` for a concealed (enhanced) model.
    pub depth: Option<u64>,
    /// SHA-256 of the prediction vector; only party reports carry it.
    pub predictions_sha256: Option<String>,
}

fn num(report: &Json, path: &str) -> Result<f64, String> {
    report
        .path(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("report has no number at {path}"))
}

fn count(report: &Json, path: &str) -> Result<u64, String> {
    report
        .path(path)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("report has no count at {path}"))
}

/// A rate the report writes as `null` when its denominator is zero.
fn rate(report: &Json, path: &str) -> f64 {
    report.path(path).and_then(Json::as_f64).unwrap_or(0.0)
}

pub fn parse_report(text: &str) -> Result<PartyReport, String> {
    let r = Json::parse(text)?;
    if let Some(status) = r.get("status").and_then(Json::as_str) {
        return Err(format!("report has status {status:?}"));
    }
    // `pivot train` lists every party's traffic; `pivot party` its own.
    let (train_bytes_sent, train_messages) = match r.path("network.per_party") {
        Some(parties) => {
            let parties = parties.as_array().ok_or("network.per_party is no array")?;
            let mut totals = (0, 0);
            for p in parties {
                totals.0 += count(p, "train.bytes_sent")?;
                totals.1 += count(p, "train.messages_sent")?;
            }
            totals
        }
        None => (
            count(&r, "network.train.bytes_sent")?,
            count(&r, "network.train.messages_sent")?,
        ),
    };
    let predictions_sha256 = match r.get("predictions") {
        Some(p) => {
            let values = p.as_array().ok_or("predictions is no array")?;
            let mut hasher = Sha256::new();
            for v in values {
                let v = v.as_f64().ok_or("a prediction is no number")?;
                hasher.update(&v.to_le_bytes());
            }
            Some(
                hasher
                    .finalize()
                    .iter()
                    .map(|b| format!("{b:02x}"))
                    .collect(),
            )
        }
        None => None,
    };
    let phases = match r.path("trace.per_party") {
        Some(tables) => {
            let table = tables
                .as_array()
                .and_then(|t| t.first())
                .and_then(|t| t.get("phases"))
                .and_then(Json::as_array)
                .ok_or("trace.per_party[0].phases is missing")?;
            let mut rows = vec![PhaseRow::default(); PHASES.len()];
            for row in table {
                let name = row.get("phase").and_then(Json::as_str).unwrap_or("");
                let Some(slot) = PHASES.iter().position(|p| *p == name) else {
                    return Err(format!("unknown phase {name:?} in the phase table"));
                };
                rows[slot] = PhaseRow {
                    wall_s: num(row, "wall_s")?,
                    wait_s: num(row, "wait_s")?,
                    rounds: count(row, "rounds")?,
                    bytes_sent: count(row, "bytes_sent")?,
                };
            }
            Some(rows)
        }
        None => None,
    };
    Ok(PartyReport {
        wall_total_s: num(&r, "timing.wall_total_s")?,
        train_s: num(&r, "timing.train_s")?,
        predict_s: num(&r, "timing.predict_s")?,
        test_samples: count(&r, "dataset.test_samples")?,
        train_bytes_sent,
        train_messages,
        encryptions: count(&r, "counters.encryptions")?,
        ciphertext_ops: count(&r, "counters.ciphertext_ops")?,
        opened_elements: count(&r, "counters.comparisons.opened_elements")?,
        beaver_triples: count(&r, "counters.comparisons.beaver_triples")?,
        split_stat_ciphertexts: count(&r, "counters.split_stat_ciphertexts")?,
        nonce_pool_hit_rate: rate(&r, "counters.randomness_pool.hit_rate"),
        dealer_pool_hit_rate: rate(&r, "counters.comparisons.dealer_pool.hit_rate"),
        packing_occupancy: rate(&r, "counters.packing.occupancy"),
        agreed: Agreed {
            threshold_decryptions: count(&r, "counters.threshold_decryptions")?,
            mpc_rounds: count(&r, "counters.mpc_rounds")?,
            secure_mults: count(&r, "counters.secure_mults")?,
            secure_comparisons: count(&r, "counters.secure_comparisons")?,
            metric: num(&r, "evaluation.value")?,
            internal_nodes: count(&r, "model.internal_nodes")?,
            depth: r.path("model.depth").and_then(Json::as_u64),
            predictions_sha256,
        },
        phases,
    })
}

/// Everything that must repeat exactly across the runs of a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// Encryptions and ciphertext operations, party by party.
    pub per_party: Vec<(u64, u64)>,
    pub agreed: Agreed,
    pub train_bytes_sent: u64,
    pub train_messages: u64,
    pub oracle_gap: f64,
}

/// A run that completed and passed its checks.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Driver wall from spawn to exit of the slowest party.
    pub wall_s: f64,
    pub train_s: f64,
    pub predict_s: f64,
    /// `wall_s − train_s − predict_s`: process start, CSV load, keygen,
    /// pool warm-up, mesh connect, report write.
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    /// CPU seconds of all party processes.
    pub cpu_s: f64,
    /// Driver wall minus the report's own `wall_total_s`.
    pub process_overhead_s: f64,
    pub oracle_gap: f64,
    pub party0: PartyReport,
    pub fingerprint: Fingerprint,
}

/// Why a run counts as failed, with what the program said about it.
#[derive(Clone, Debug)]
pub struct Failure {
    pub reason: String,
    pub exit_codes: Vec<Option<i32>>,
    pub timed_out: bool,
    /// From the program's structured error report, when it wrote one.
    pub status: Option<String>,
    pub error_kind: Option<String>,
    pub error_phase: Option<String>,
    /// Last line a failing child printed.
    pub message: Option<String>,
}

impl Failure {
    /// A failure the driver found itself, with nothing from the program.
    pub fn driver(reason: String) -> Failure {
        Failure {
            reason,
            exit_codes: Vec::new(),
            timed_out: false,
            status: None,
            error_kind: None,
            error_phase: None,
            message: None,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("reason", self.reason.clone())
            .with(
                "exit_codes",
                Json::Arr(
                    self.exit_codes
                        .iter()
                        .map(|c| Json::from(c.map(i64::from)))
                        .collect(),
                ),
            )
            .with("timed_out", self.timed_out)
            .with("status", self.status.clone())
            .with("error_kind", self.error_kind.clone())
            .with("error_phase", self.error_phase.clone())
            .with("message", self.message.clone())
    }
}

/// Reduce the parties' reports and exits to a [`Measured`], or say which
/// check failed.
pub fn assess(
    workload: &Workload,
    oracle: &Oracle,
    reports: &[PartyReport],
    exits: &[ChildExit],
) -> Result<Measured, String> {
    let max = |f: fn(&PartyReport) -> f64| reports.iter().map(f).fold(0.0, f64::max);
    let party0 = reports.first().ok_or("no report")?.clone();
    if let Some(other) = reports.iter().find(|p| p.agreed != party0.agreed) {
        return Err(format!(
            "parties disagree on model, predictions or counters: {:?} vs {:?}",
            party0.agreed, other.agreed
        ));
    }
    if party0.test_samples != oracle.test_samples as u64 {
        return Err(format!(
            "program tested {} samples, oracle {}",
            party0.test_samples, oracle.test_samples
        ));
    }
    let oracle_gap = (workload.federated_metric(party0.agreed.metric) - oracle.metric).abs();
    if oracle_gap.is_nan() || oracle_gap > ORACLE_TOLERANCE {
        return Err(format!(
            "oracle gap {oracle_gap} above {ORACLE_TOLERANCE} (federated {}, oracle {})",
            workload.federated_metric(party0.agreed.metric),
            oracle.metric
        ));
    }
    let wall_s = exits.iter().map(|e| e.wall_s).fold(0.0, f64::max);
    let (train_s, predict_s) = (max(|p| p.train_s), max(|p| p.predict_s));
    Ok(Measured {
        wall_s,
        train_s,
        predict_s,
        setup_s: wall_s - train_s - predict_s,
        peak_rss_mib: exits.iter().map(|e| e.peak_rss_mib).fold(0.0, f64::max),
        cpu_s: exits.iter().map(|e| e.cpu_s).sum(),
        process_overhead_s: wall_s - max(|p| p.wall_total_s),
        oracle_gap,
        fingerprint: Fingerprint {
            per_party: reports
                .iter()
                .map(|p| (p.encryptions, p.ciphertext_ops))
                .collect(),
            agreed: party0.agreed.clone(),
            train_bytes_sent: reports.iter().map(|p| p.train_bytes_sent).sum(),
            train_messages: reports.iter().map(|p| p.train_messages).sum(),
            oracle_gap,
        },
        party0,
    })
}

/// Run `workload` once in the fresh directory `dir`: write its inputs,
/// spawn the program, and assess what it wrote.
pub fn run_once(
    pivot: &Path,
    workload: &Workload,
    data: &Dataset,
    oracle: &Oracle,
    seed: u64,
    traced: bool,
    dir: &Path,
) -> Result<Measured, Box<Failure>> {
    let io_failure = |e: std::io::Error| {
        Box::new(Failure::driver(format!(
            "driver I/O in {}: {e}",
            dir.display()
        )))
    };
    std::fs::create_dir_all(dir).map_err(io_failure)?;
    workload
        .write_inputs(dir, data, seed, traced)
        .map_err(io_failure)?;

    let scenario = dir.join("scenario.toml");
    let mut report_paths: Vec<PathBuf> = Vec::new();
    let mut commands: Vec<Command> = Vec::new();
    match workload.topology {
        Topology::InProcess => {
            let report = dir.join("report.json");
            let mut c = Command::new(pivot);
            c.args(["train", "--quiet", "--scenario"])
                .arg(&scenario)
                .arg("--out")
                .arg(&report);
            commands.push(c);
            report_paths.push(report);
        }
        Topology::Tcp3 { .. } => {
            let peers = free_loopback_peers(PARTIES).join(",");
            for id in 0..PARTIES {
                let report = dir.join(format!("party{id}-report.json"));
                let mut c = Command::new(pivot);
                c.args(["party", "--quiet", "--scenario"])
                    .arg(&scenario)
                    .args(["--id", &id.to_string(), "--peers", &peers, "--out"])
                    .arg(&report);
                commands.push(c);
                report_paths.push(report);
            }
        }
    }
    // Reports, traces and checkpoints default to the working directory.
    for c in &mut commands {
        c.current_dir(dir);
    }

    let log_stem = dir.join("child");
    let timeout = Duration::from_secs_f64(5.0 * workload.probe_s);
    let exits = run_children(commands, &log_stem, timeout).map_err(io_failure)?;

    let failure = |reason: String| {
        // The program's own account of a failure: the structured error
        // report of the first party that wrote one, and the last line of
        // the first child that exited non-zero.
        let error = report_paths
            .iter()
            .filter_map(|p| Json::parse(&std::fs::read_to_string(p).ok()?).ok())
            .find(|r| r.get("status").is_some());
        let text = |path: &str| {
            error
                .as_ref()
                .and_then(|r| r.path(path))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        Box::new(Failure {
            reason,
            exit_codes: exits.iter().map(|e| e.exit_code).collect(),
            timed_out: exits.iter().any(|e| e.timed_out),
            status: text("status"),
            error_kind: text("error.kind"),
            error_phase: text("error.phase"),
            message: exits
                .iter()
                .position(|e| e.exit_code != Some(0))
                .and_then(|i| log_tail(&log_path(&log_stem, i))),
        })
    };
    if exits.iter().any(|e| e.timed_out) {
        return Err(failure(format!("timed out after {timeout:?}")));
    }
    if exits.iter().any(|e| e.exit_code != Some(0)) {
        return Err(failure("a party exited non-zero".into()));
    }
    let mut reports = Vec::new();
    for path in &report_paths {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_report(&text));
        match parsed {
            Ok(r) => reports.push(r),
            Err(e) => return Err(failure(format!("{}: {e}", path.display()))),
        }
    }
    if traced && reports[0].phases.is_none() {
        return Err(failure("traced run reported no phase table".into()));
    }
    assess(workload, oracle, &reports, &exits).map_err(failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::CATALOG;

    const TRAIN_REPORT: &str = r#"{
      "timing": {"wall_total_s": 6.5, "train_s": 6.0, "predict_s": 0.25},
      "dataset": {"train_samples": 480, "test_samples": 120},
      "evaluation": {"metric": "accuracy", "value": 0.9},
      "network": {"per_party": [
        {"party": 0, "train": {"bytes_sent": 100, "bytes_received": 1, "messages_sent": 7}},
        {"party": 1, "train": {"bytes_sent": 20, "bytes_received": 1, "messages_sent": 5}},
        {"party": 2, "train": {"bytes_sent": 3, "bytes_received": 1, "messages_sent": 5}}]},
      "counters": {"encryptions": 11, "ciphertext_ops": 12, "threshold_decryptions": 13,
        "mpc_rounds": 14, "secure_mults": 15, "secure_comparisons": 16,
        "comparisons": {"opened_elements": 17, "beaver_triples": 18,
                        "dealer_pool": {"hit_rate": 0.75}},
        "split_stat_ciphertexts": 19,
        "packing": {"occupancy": null},
        "randomness_pool": {"hit_rate": 0.25}},
      "model": {"internal_nodes": 7, "depth": null},
      "trace": {"per_party": [{"party": 0, "phases": [
        {"phase": "gain", "wall_s": 1.5, "wait_s": 0.5, "rounds": 9, "bytes_sent": 64},
        {"phase": "other", "wall_s": 0.25, "wait_s": 0, "rounds": 0, "bytes_sent": 0}]}]}
    }"#;

    fn party_report(encryptions: u64, predictions: &str) -> String {
        format!(
            r#"{{
          "timing": {{"wall_total_s": 6.5, "train_s": 6.0, "predict_s": 0.25}},
          "dataset": {{"test_samples": 120}},
          "evaluation": {{"value": 0.9}},
          "network": {{"train": {{"bytes_sent": 100, "messages_sent": 7}}}},
          "counters": {{"encryptions": {encryptions}, "ciphertext_ops": 12,
            "threshold_decryptions": 13, "mpc_rounds": 14, "secure_mults": 15,
            "secure_comparisons": 16,
            "comparisons": {{"opened_elements": 17, "beaver_triples": 18,
                            "dealer_pool": {{"hit_rate": 0.75}}}},
            "split_stat_ciphertexts": 19, "packing": {{"occupancy": 0.5}},
            "randomness_pool": {{"hit_rate": 0.25}}}},
          "model": {{"internal_nodes": 3, "depth": 2}},
          "predictions": {predictions}
        }}"#
        )
    }

    fn exit(wall_s: f64, peak_rss_mib: f64) -> ChildExit {
        ChildExit {
            wall_s,
            exit_code: Some(0),
            timed_out: false,
            peak_rss_mib,
            cpu_s: 2.0,
        }
    }

    fn oracle(metric: f64) -> Oracle {
        Oracle {
            metric,
            train_s: 0.01,
            test_samples: 120,
        }
    }

    #[test]
    fn train_report_sums_traffic_and_places_phases() {
        let r = parse_report(TRAIN_REPORT).unwrap();
        assert_eq!((r.train_bytes_sent, r.train_messages), (123, 17));
        assert_eq!((r.encryptions, r.agreed.secure_comparisons), (11, 16));
        assert_eq!((r.agreed.internal_nodes, r.agreed.depth), (7, None));
        assert_eq!(
            (
                r.nonce_pool_hit_rate,
                r.dealer_pool_hit_rate,
                r.packing_occupancy
            ),
            (0.25, 0.75, 0.0)
        );
        assert_eq!(r.agreed.predictions_sha256, None);
        let phases = r.phases.unwrap();
        let gain = &phases[PHASES.iter().position(|p| *p == "gain").unwrap()];
        assert_eq!((gain.wall_s, gain.rounds, gain.bytes_sent), (1.5, 9, 64));
        assert_eq!(phases[0], PhaseRow::default());
    }

    #[test]
    fn error_reports_and_missing_fields_are_refused() {
        let err = parse_report(r#"{"status": "failed", "error": {"kind": "recv_timeout"}}"#);
        assert!(err.unwrap_err().contains("failed"));
        let err = parse_report(&TRAIN_REPORT.replace("\"train_s\"", "\"trainn_s\""));
        assert!(err.unwrap_err().contains("timing.train_s"));
    }

    #[test]
    fn setup_is_driver_wall_minus_train_and_predict() {
        let r = parse_report(TRAIN_REPORT).unwrap();
        let m = assess(&CATALOG[0], &oracle(0.875), &[r], &[exit(7.0, 40.0)]).unwrap();
        assert_eq!(
            (m.wall_s, m.setup_s, m.process_overhead_s),
            (7.0, 0.75, 0.5)
        );
        assert!((m.oracle_gap - 0.025).abs() < 1e-12);
        assert_eq!(m.fingerprint.per_party, vec![(11, 12)]);
    }

    #[test]
    fn gap_above_tolerance_and_wrong_split_fail() {
        let r = parse_report(TRAIN_REPORT).unwrap();
        let exits = [exit(7.0, 40.0)];
        let err = assess(&CATALOG[0], &oracle(0.8), std::slice::from_ref(&r), &exits).unwrap_err();
        assert!(err.contains("oracle gap"), "{err}");
        let mut other_split = oracle(0.9);
        other_split.test_samples = 60;
        let err = assess(&CATALOG[0], &other_split, &[r], &exits).unwrap_err();
        assert!(err.contains("tested 120"), "{err}");
    }

    #[test]
    fn parties_may_differ_in_encryptions_but_not_in_predictions() {
        let p0 = parse_report(&party_report(30, "[0, 1, 1]")).unwrap();
        let p1 = parse_report(&party_report(8, "[0, 1, 1]")).unwrap();
        let p2 = parse_report(&party_report(8, "[0, 1, 0]")).unwrap();
        assert_eq!(p0.agreed.predictions_sha256.as_ref().unwrap().len(), 64);
        let exits = [exit(7.0, 40.0), exit(7.5, 44.0), exit(7.25, 42.0)];
        let tcp = &CATALOG[3];
        let m = assess(
            tcp,
            &oracle(0.9),
            &[p0.clone(), p1.clone(), p1.clone()],
            &exits,
        )
        .unwrap();
        assert_eq!((m.wall_s, m.peak_rss_mib, m.cpu_s), (7.5, 44.0, 6.0));
        assert_eq!(m.fingerprint.per_party, vec![(30, 12), (8, 12), (8, 12)]);
        assert_eq!(m.fingerprint.train_bytes_sent, 300);
        let err = assess(tcp, &oracle(0.9), &[p0, p1, p2], &exits).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn regression_gap_is_measured_in_rmse() {
        let r = parse_report(&TRAIN_REPORT.replace("0.9", "0.04")).unwrap();
        let m = assess(&CATALOG[2], &oracle(0.21), &[r], &[exit(7.0, 40.0)]).unwrap();
        assert!((m.oracle_gap - 0.01).abs() < 1e-12);
    }
}
