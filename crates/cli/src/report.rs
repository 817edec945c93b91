//! JSON report construction.
//!
//! Reports are self-describing: every run embeds the effective scenario,
//! the seed, and the tool version, so results collected months apart stay
//! comparable (`schema_version` bumps on any incompatible shape change).

use crate::json::Json;
use crate::runner::Execution;
use crate::scenario::Scenario;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

pub const SCHEMA_VERSION: u64 = 2;

/// Default report path for a scenario file:
/// `<scenario-stem><suffix>-report.json` in the current directory (the
/// suffix distinguishes per-party reports, e.g. `-party2`).
pub fn default_report_path(scenario: &Path, suffix: &str) -> PathBuf {
    let stem = scenario
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "pivot".into());
    PathBuf::from(format!("{stem}{suffix}-report.json"))
}

fn header(command: &str, scenario: &Scenario) -> Json {
    let unix_time_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    Json::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with("tool", format!("pivot-cli {}", env!("CARGO_PKG_VERSION")))
        .with("command", command)
        .with("unix_time_s", unix_time_s)
        .with("scenario", scenario.to_json())
        .with("seed", scenario.seed)
}

/// Training-phase traffic of one party. One definition feeds the
/// per-party array of train/predict reports *and* the `pivot party`
/// report, so the cross-backend parity contract (distributed reports
/// comparable field-for-field with in-process ones) holds mechanically.
fn train_traffic_json(p: &crate::runner::PartyOutcome) -> Json {
    Json::obj()
        .with("bytes_sent", p.train_bytes_sent)
        .with("bytes_received", p.train_bytes_received)
        .with("messages_sent", p.train_messages_sent)
}

/// Prediction-phase traffic of one party (same contract as above).
fn predict_traffic_json(p: &crate::runner::PartyOutcome) -> Json {
    Json::obj()
        .with("bytes_sent", p.predict_bytes_sent)
        .with("bytes_received", p.predict_bytes_received)
}

/// Session-layer health of one party: whole-run dial/reconnect/replay
/// and fault-injection totals. All zeros in an undisturbed run — the
/// cross-backend parity contract extends to these (a transparently
/// recovered drop shows up here and *only* here).
fn session_json(p: &crate::runner::PartyOutcome) -> Json {
    Json::obj()
        .with("connect_retries", p.connect_retries)
        .with("reconnects", p.reconnects)
        .with("replayed_frames", p.replayed_frames)
        .with("rejoins", p.rejoins)
        .with("faults_injected", p.faults_injected)
}

/// The paper's four protocol stages, in seconds.
fn stages_json(stage_s: &[f64; 4]) -> Json {
    Json::obj()
        .with("local_computation", stage_s[0])
        .with("mpc_computation", stage_s[1])
        .with("model_update", stage_s[2])
        .with("prediction", stage_s[3])
}

fn party_json(exec: &Execution) -> Json {
    Json::Arr(
        exec.parties
            .iter()
            .map(|p| {
                Json::obj()
                    .with("party", p.party)
                    .with("train", train_traffic_json(p))
                    .with("predict", predict_traffic_json(p))
                    .with("session", session_json(p))
                    .with("stages_s", stages_json(&p.stage_s))
            })
            .collect(),
    )
}

fn counters_json(exec: &Execution) -> Json {
    let p0 = &exec.parties[0];
    // Field-wise cross-party aggregation: a default-initialized side (a
    // party that never entered the comparison pipeline, or a pre-PR-5
    // report read back with empty groups) contributes zeros instead of
    // erasing the other side's groups.
    let mut comparison_all = pivot_core::ComparisonCounters::default();
    for p in &exec.parties {
        comparison_all.merge(&p.comparison);
    }
    Json::obj()
        .with("encryptions", p0.encryptions)
        .with("ciphertext_ops", p0.ciphertext_ops)
        .with("threshold_decryptions", p0.threshold_decryptions)
        .with("mpc_rounds", p0.mpc_rounds)
        .with("secure_mults", p0.secure_mults)
        .with("secure_comparisons", p0.secure_comparisons)
        .with("comparisons", comparisons_json(p0))
        .with(
            "comparisons_all_parties",
            Json::obj()
                .with("count", comparison_all.count)
                .with("online_rounds", comparison_all.online_rounds)
                .with("opened_elements", comparison_all.opened_elements),
        )
        .with("split_stat_ciphertexts", p0.split_stat_ciphertexts)
        .with("packing", packing_json(p0))
        .with("randomness_pool", pool_json(&p0.pool))
        .with("verification", verification_json(&p0.verification))
        .with(
            "checkpoint",
            Json::obj()
                .with(
                    "written",
                    exec.parties
                        .iter()
                        .map(|p| p.checkpoints_written)
                        .sum::<u64>(),
                )
                .with(
                    "bytes",
                    exec.parties.iter().map(|p| p.checkpoint_bytes).sum::<u64>(),
                ),
        )
}

/// Malicious-model verification counters of one party: proof
/// generation/check volume, spot-check skip ratio, wire bytes the proof
/// bundles added, and verification wall time. All zeros under
/// `params.verification = "off"`.
pub(crate) fn verification_json(v: &pivot_core::VerificationCounters) -> Json {
    let checked = v.proofs_verified + v.proofs_skipped;
    Json::obj()
        .with("proofs_generated", v.proofs_generated)
        .with("proofs_verified", v.proofs_verified)
        .with("proofs_skipped", v.proofs_skipped)
        .with("proofs_rejected", v.proofs_rejected)
        .with("proof_bytes", v.proof_bytes)
        .with("wall_s", v.wall.as_secs_f64())
        .with(
            "verified_fraction",
            if checked > 0 {
                Json::Num(v.proofs_verified as f64 / checked as f64)
            } else {
                Json::Null
            },
        )
}

/// Per-phase aggregate rows of one party's trace: rounds, bytes, wall and
/// blocking-wait time per protocol phase. The counter columns bucket
/// *every* attributed byte/round, so their sums equal the party's
/// `NetStats` / `counters` totals exactly.
pub(crate) fn phase_rows_json(rows: &[pivot_trace::PhaseRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj()
                    .with("phase", r.phase.clone())
                    .with("spans", r.span_count)
                    .with("wall_s", r.wall_ns as f64 / 1e9)
                    .with("wait_s", r.wait_ns as f64 / 1e9)
                    .with("rounds", r.rounds)
                    .with("bytes_sent", r.sent_bytes)
                    .with("bytes_received", r.recv_bytes)
            })
            .collect(),
    )
}

/// The `trace` report section: per-party phase tables (present only when
/// the scenario ran with `params.trace != "off"`).
pub(crate) fn trace_json(exec: &Execution) -> Option<Json> {
    let tables: Vec<Json> = exec
        .parties
        .iter()
        .filter_map(|p| p.trace.as_ref())
        .map(|t| {
            Json::obj()
                .with("party", t.party)
                .with("level", t.level.as_str())
                .with("phases", phase_rows_json(&pivot_trace::phase_table(t)))
        })
        .collect();
    if tables.is_empty() {
        return None;
    }
    let mut section = Json::obj().with("per_party", Json::Arr(tables));
    if let Some(rt) = &exec.runtime_trace {
        section.set(
            "runtime",
            Json::obj()
                .with("background_spans", rt.spans.len() as u64)
                .with("gauge_samples", rt.gauges.len() as u64),
        );
    }
    Some(section)
}

/// Write the side-car trace exports next to a run's report: a Chrome
/// trace (`<report-stem>-trace.json`, loadable in Perfetto /
/// `chrome://tracing`) and a Prometheus text snapshot
/// (`<report-stem>-trace.prom`). No-op when the run was untraced.
pub fn write_trace_exports(out_path: &Path, exec: &Execution, quiet: bool) -> Result<(), String> {
    let traces: Vec<pivot_trace::PartyTrace> = exec
        .parties
        .iter()
        .filter_map(|p| p.trace.clone())
        .collect();
    if traces.is_empty() {
        return Ok(());
    }
    let stem = out_path.with_extension("");
    let stem = stem.to_string_lossy();
    let chrome_path = PathBuf::from(format!("{stem}-trace.json"));
    let prom_path = PathBuf::from(format!("{stem}-trace.prom"));
    let runtime = exec.runtime_trace.as_ref();
    std::fs::write(
        &chrome_path,
        pivot_trace::chrome_trace_json(&traces, runtime),
    )
    .map_err(|e| format!("cannot write {}: {e}", chrome_path.display()))?;
    std::fs::write(
        &prom_path,
        pivot_trace::prometheus_snapshot(&traces, runtime),
    )
    .map_err(|e| format!("cannot write {}: {e}", prom_path.display()))?;
    if !quiet {
        println!(
            "trace written to {} (open in https://ui.perfetto.dev) and {}",
            chrome_path.display(),
            prom_path.display()
        );
    }
    Ok(())
}

/// Comparison-pipeline telemetry of one party: what the gain pipeline's
/// secure comparisons actually paid in rounds, opened field elements, and
/// preprocessing material, with the per-width histogram.
pub(crate) fn comparisons_json(p: &crate::runner::PartyOutcome) -> Json {
    let c = &p.comparison;
    let mut widths = Json::obj();
    for &(k, n) in &c.widths {
        widths.set(&format!("{k}"), n);
    }
    Json::obj()
        .with("count", c.count)
        .with("online_rounds", c.online_rounds)
        .with("opened_elements", c.opened_elements)
        .with("beaver_triples", c.beaver_triples)
        .with("masked_bit_rows", c.masked_bit_rows)
        .with("masked_bits", c.masked_bits)
        .with("widths", widths)
}

/// Ciphertext-packing behavior of one party: how many packed ciphertexts
/// were emitted, how many plaintext values they carried, and the slot
/// occupancy (values / capacity; null when nothing was packed).
fn packing_json(p: &crate::runner::PartyOutcome) -> Json {
    let (cts, values, capacity) = p.packed;
    Json::obj()
        .with("ciphertexts", cts)
        .with("values", values)
        .with("slot_capacity", capacity)
        .with(
            "occupancy",
            if capacity > 0 {
                Json::Num(values as f64 / capacity as f64)
            } else {
                Json::Null
            },
        )
        .with("stats_bytes_sent", p.stats_bytes_sent)
}

/// Offline randomness-pool behavior of one party (hit rate is null when
/// the pool never served a take — e.g. a pure-MPC baseline run).
pub(crate) fn pool_json(stats: &pivot_paillier::NonceStats) -> Json {
    Json::obj()
        .with("target", stats.target)
        .with("hits", stats.hits)
        .with("misses", stats.misses)
        .with("precomputed", stats.produced)
        .with(
            "hit_rate",
            match stats.hit_rate() {
                Some(r) => Json::Num(r),
                None => Json::Null,
            },
        )
}

fn dataset_json(exec: &Execution) -> Json {
    Json::obj()
        .with("train_samples", exec.train_samples)
        .with("test_samples", exec.test_samples)
        .with("features", exec.features)
        .with("task", format!("{:?}", exec.task))
}

fn model_json(exec: &Execution) -> Json {
    let p0 = &exec.parties[0];
    Json::obj()
        .with("internal_nodes", p0.internal_nodes)
        .with("depth", p0.tree_depth.map(|d| d as u64))
}

fn evaluation_json(exec: &Execution) -> Json {
    Json::obj()
        .with("metric", exec.metric_name)
        .with("value", exec.metric)
        .with("test_samples", exec.test_samples)
}

fn totals_json(exec: &Execution) -> Json {
    let total_sent: u64 = exec
        .parties
        .iter()
        .map(|p| p.train_bytes_sent + p.predict_bytes_sent)
        .sum();
    let total_msgs: u64 = exec.parties.iter().map(|p| p.train_messages_sent).sum();
    Json::obj()
        .with("bytes_sent_all_parties", total_sent)
        .with("train_messages_all_parties", total_msgs)
}

/// Report for `pivot train`.
pub fn train_report(scenario: &Scenario, exec: &Execution) -> Json {
    let p0 = &exec.parties[0];
    let mut report = header("train", scenario)
        .with("algorithm", exec.algo.label())
        .with("dataset", dataset_json(exec))
        .with(
            "timing",
            Json::obj()
                .with("wall_total_s", exec.wall_s)
                .with("train_s", p0.train_wall_s)
                .with("predict_s", p0.predict_wall_s)
                .with("stages_s", stages_json(&p0.stage_s)),
        )
        .with(
            "network",
            Json::obj()
                .with("per_party", party_json(exec))
                .with("totals", totals_json(exec)),
        )
        .with("counters", counters_json(exec))
        .with("model", model_json(exec))
        .with("evaluation", evaluation_json(exec));
    if let Some(trace) = trace_json(exec) {
        report.set("trace", trace);
    }
    report
}

/// Report for `pivot predict` (same run shape, prediction-centric fields).
pub fn predict_report(scenario: &Scenario, exec: &Execution) -> Json {
    let p0 = &exec.parties[0];
    let per_sample_s = if exec.test_samples > 0 {
        Json::Num(p0.predict_wall_s / exec.test_samples as f64)
    } else {
        Json::Null
    };
    let mut report = header("predict", scenario)
        .with("algorithm", exec.algo.label())
        .with("dataset", dataset_json(exec))
        .with(
            "timing",
            Json::obj()
                .with("wall_total_s", exec.wall_s)
                .with("train_s", p0.train_wall_s)
                .with("predict_s", p0.predict_wall_s)
                .with("predict_per_sample_s", per_sample_s),
        )
        .with(
            "network",
            Json::obj()
                .with("per_party", party_json(exec))
                .with("totals", totals_json(exec)),
        )
        .with("counters", counters_json(exec))
        .with("model", model_json(exec))
        .with("evaluation", evaluation_json(exec));
    if let Some(trace) = trace_json(exec) {
        report.set("trace", trace);
    }
    report
}

/// Report for `pivot party`: one party's view of a distributed TCP run.
///
/// Carries the same `network`/`counters`/`model`/`evaluation` shapes as
/// the train report (so tooling can diff a distributed run against the
/// in-process run party by party) plus the raw prediction vector, which
/// lets a harness assert that all `m` processes agree on the jointly
/// computed model output bit for bit.
pub fn party_report(scenario: &Scenario, party: usize, exec: &Execution) -> Json {
    let p = &exec.parties[0];
    let mut report = header("party", scenario)
        .with("algorithm", exec.algo.label())
        .with("party", party)
        .with("dataset", dataset_json(exec))
        .with(
            "timing",
            Json::obj()
                .with("wall_total_s", exec.wall_s)
                .with("train_s", p.train_wall_s)
                .with("predict_s", p.predict_wall_s)
                .with("stages_s", stages_json(&p.stage_s)),
        )
        .with(
            "network",
            Json::obj()
                .with("train", train_traffic_json(p))
                .with("predict", predict_traffic_json(p))
                .with("session", session_json(p)),
        )
        .with("counters", counters_json(exec))
        .with("model", model_json(exec))
        .with("evaluation", evaluation_json(exec))
        .with(
            "predictions",
            Json::Arr(p.predictions.iter().map(|&v| Json::Num(v)).collect()),
        );
    if let Some(trace) = trace_json(exec) {
        report.set("trace", trace);
    }
    report
}

/// Failure report for `pivot party`: written in place of the normal
/// report when the run dies on a transport failure, so a harness can
/// read *what* failed (kind, peer, direction, protocol phase, elapsed
/// wait) as data instead of scraping stderr. The scenario echo — which
/// includes the effective `connect_timeout_s` — rides along as in every
/// other report.
pub fn party_error_report(
    scenario: &Scenario,
    party: usize,
    err: &pivot_transport::TransportError,
    wall_s: f64,
) -> Json {
    let mut error = Json::obj()
        .with("kind", err.kind.as_str())
        .with("party", err.party as u64)
        .with("peer", err.peer.map(|p| p as u64))
        .with("direction", err.direction.map(|d| d.as_str()))
        .with("phase", err.phase.clone())
        .with("elapsed_s", err.elapsed.as_secs_f64())
        .with("detail", err.detail.clone())
        .with("message", err.to_string());
    // A resume gap names the first frame the retransmit ring could not
    // replay, so a harness can see how far eviction outran the peer.
    if let Some(seq) = err.missing_seq {
        error.set("missing_seq", seq);
    }
    header("party", scenario)
        .with("party", party)
        .with("status", "failed")
        .with("wall_total_s", wall_s)
        .with("error", error)
}

/// Failure report for `pivot party` when the crash-recovery plane failed:
/// an unreadable, corrupt, or mismatched checkpoint under `--resume`, or
/// a durable write failure mid-run (exit code 13 either way).
pub fn party_checkpoint_error_report(
    scenario: &Scenario,
    party: usize,
    err: &crate::checkpoint::CheckpointError,
    wall_s: f64,
) -> Json {
    header("party", scenario)
        .with("party", party)
        .with("status", "failed")
        .with("wall_total_s", wall_s)
        .with(
            "error",
            Json::obj()
                .with("kind", "checkpoint")
                .with("party", party as u64)
                .with("detail", format!("{err:?}"))
                .with("message", err.to_string()),
        )
}

/// Failure report for `pivot party` when the run died on a *protocol*
/// failure — a rejected zero-knowledge proof. Unlike a transport error
/// it names the accused cheater (`accused`) separately from the party
/// that observed the rejection, so a harness reads the attribution as
/// data.
pub fn party_protocol_error_report(
    scenario: &Scenario,
    party: usize,
    err: &pivot_transport::ProtocolError,
    wall_s: f64,
) -> Json {
    let pivot_transport::ProtocolError::ProofRejected {
        party: accused,
        observer,
        phase,
        proof_kind,
        detail,
    } = err;
    header("party", scenario)
        .with("party", party)
        .with("status", "failed")
        .with("wall_total_s", wall_s)
        .with(
            "error",
            Json::obj()
                .with("kind", "proof_rejected")
                .with("accused", *accused as u64)
                .with("observer", *observer as u64)
                .with("phase", phase.clone())
                .with("proof_kind", proof_kind.clone())
                .with("detail", detail.clone())
                .with("message", err.to_string()),
        )
}

/// Report for `pivot bench`: one entry per (axis value × algorithm).
pub fn bench_report(scenario: &Scenario, axis: &str, results: &[(usize, Execution)]) -> Json {
    let entries: Vec<Json> = results
        .iter()
        .map(|(value, exec)| {
            let p0 = &exec.parties[0];
            let mut entry = Json::obj()
                .with(axis, *value)
                .with("algorithm", exec.algo.label())
                .with("train_wall_s", p0.train_wall_s)
                .with("bytes_sent_party0", p0.train_bytes_sent)
                .with("stats_bytes_sent_party0", p0.stats_bytes_sent)
                .with(
                    "bytes_sent_all_parties",
                    exec.parties.iter().map(|p| p.train_bytes_sent).sum::<u64>(),
                )
                .with("internal_nodes", p0.internal_nodes)
                .with("counters", counters_json(exec));
            if let Some(trace) = p0.trace.as_ref() {
                entry.set("phases", phase_rows_json(&pivot_trace::phase_table(trace)));
            }
            entry
        })
        .collect();
    header("bench", scenario)
        .with("vary", axis)
        .with("results", Json::Arr(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Algo;
    use crate::runner::PartyOutcome;
    use pivot_data::Task;

    fn fake_exec() -> Execution {
        let party = |id: usize| PartyOutcome {
            party: id,
            train_bytes_sent: 1000 + id as u64,
            train_bytes_received: 900,
            train_messages_sent: 10,
            predict_bytes_sent: 50,
            predict_bytes_received: 40,
            stage_s: [0.1, 0.2, 0.3, 0.05],
            train_wall_s: 0.6,
            predict_wall_s: 0.1,
            encryptions: 12,
            ciphertext_ops: 34,
            threshold_decryptions: 5,
            mpc_rounds: 7,
            secure_mults: 8,
            secure_comparisons: 9,
            comparison: pivot_core::ComparisonCounters {
                count: 9,
                online_rounds: 40,
                opened_elements: 300,
                beaver_triples: 120,
                masked_bit_rows: 9,
                masked_bits: 81,
                widths: vec![(9, 4), (45, 5)],
            },
            verification: pivot_core::VerificationCounters {
                proofs_generated: 20,
                proofs_verified: 5,
                proofs_skipped: 15,
                proofs_rejected: 0,
                proof_bytes: 4096,
                wall: std::time::Duration::from_millis(12),
            },
            split_stat_ciphertexts: 54,
            packed: (9, 57, 63),
            stats_bytes_sent: 640,
            pool: pivot_paillier::NonceStats {
                hits: 6,
                misses: 2,
                produced: 8,
                target: 16,
            },
            connect_retries: 1,
            reconnects: 2,
            replayed_frames: 3,
            rejoins: 1,
            faults_injected: 1,
            checkpoints_written: 2,
            checkpoint_bytes: 2048,
            internal_nodes: 3,
            tree_depth: Some(2),
            predictions: vec![0.0, 1.0],
            trace: None,
        };
        Execution {
            algo: Algo::PivotBasic,
            wall_s: 0.75,
            train_samples: 30,
            test_samples: 2,
            features: 4,
            task: Task::Classification { classes: 2 },
            parties: vec![party(0), party(1)],
            metric: Some(0.5),
            metric_name: "accuracy",
            runtime_trace: None,
        }
    }

    fn scenario() -> Scenario {
        // Tests run on parallel threads of one process: a per-call file
        // name keeps one test from removing the file another is loading.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let tmp = std::env::temp_dir().join(format!(
            "pivot-report-test-{}-{call}.toml",
            std::process::id()
        ));
        std::fs::write(&tmp, "name = \"report test\"\nparties = 2").unwrap();
        let s = Scenario::load(&tmp).unwrap();
        std::fs::remove_file(&tmp).ok();
        s
    }

    #[test]
    fn train_report_is_valid_json_with_required_fields() {
        let report = train_report(&scenario(), &fake_exec());
        let text = report.to_pretty();
        let parsed = crate::json::Json::parse(&text).unwrap();
        assert_eq!(parsed.get("schema_version").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("command").unwrap().as_str(), Some("train"));
        assert_eq!(parsed.path("evaluation.value").unwrap().as_f64(), Some(0.5));
        assert!(
            parsed
                .path("timing.stages_s.mpc_computation")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        let per_party = parsed
            .path("network.per_party")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(per_party.len(), 2);
        assert_eq!(
            per_party[1].path("train.bytes_sent").unwrap().as_u64(),
            Some(1001)
        );
        assert_eq!(
            parsed.path("scenario.name").unwrap().as_str(),
            Some("report test")
        );
        assert_eq!(
            parsed
                .path("counters.threshold_decryptions")
                .unwrap()
                .as_u64(),
            Some(5)
        );
        assert_eq!(
            parsed
                .path("counters.randomness_pool.hits")
                .unwrap()
                .as_u64(),
            Some(6)
        );
        assert_eq!(
            parsed
                .path("counters.comparisons.opened_elements")
                .unwrap()
                .as_u64(),
            Some(300)
        );
        assert_eq!(
            parsed
                .path("counters.comparisons.widths.45")
                .unwrap()
                .as_u64(),
            Some(5)
        );
        assert!(parsed.path("counters.comparisons.dealer_pool").is_none());
        assert_eq!(
            parsed
                .path("counters.randomness_pool.hit_rate")
                .unwrap()
                .as_f64(),
            Some(0.75)
        );
        assert_eq!(
            parsed
                .path("counters.verification.proofs_generated")
                .unwrap()
                .as_u64(),
            Some(20)
        );
        assert_eq!(
            parsed
                .path("counters.verification.verified_fraction")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
    }

    #[test]
    fn protocol_error_report_names_the_accused() {
        let err = pivot_transport::ProtocolError::ProofRejected {
            party: 1,
            observer: 0,
            phase: "stats".into(),
            proof_kind: "pohdp".into(),
            detail: "commit index 3".into(),
        };
        let report = party_protocol_error_report(&scenario(), 0, &err, 0.5);
        let parsed = crate::json::Json::parse(&report.to_pretty()).unwrap();
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("failed"));
        assert_eq!(
            parsed.path("error.kind").unwrap().as_str(),
            Some("proof_rejected")
        );
        assert_eq!(parsed.path("error.accused").unwrap().as_u64(), Some(1));
        assert_eq!(parsed.path("error.observer").unwrap().as_u64(), Some(0));
        assert_eq!(parsed.path("error.phase").unwrap().as_str(), Some("stats"));
        assert_eq!(
            parsed.path("error.proof_kind").unwrap().as_str(),
            Some("pohdp")
        );
    }

    #[test]
    fn bench_report_lists_every_point() {
        let results = vec![(2usize, fake_exec()), (3, fake_exec())];
        let report = bench_report(&scenario(), "parties", &results);
        let parsed = crate::json::Json::parse(&report.to_pretty()).unwrap();
        let entries = parsed.get("results").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].get("parties").unwrap().as_u64(), Some(3));
        assert!(
            entries[0]
                .path("counters.secure_mults")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn trace_section_appears_only_when_traced() {
        let scenario = scenario();
        let plain = train_report(&scenario, &fake_exec());
        assert!(plain.get("trace").is_none());

        let mut exec = fake_exec();
        exec.parties[0].trace = Some(pivot_trace::PartyTrace {
            party: 0,
            level: pivot_trace::TraceLevel::Phases,
            spans: vec![pivot_trace::SpanRecord {
                name: "stats".into(),
                phase: "stats",
                depth: 1,
                is_phase_root: true,
                start_ns: 10,
                end_ns: 110,
                sent_bytes: 64,
                recv_bytes: 32,
                wait_ns: 5,
                rounds: 2,
            }],
            gauges: Vec::new(),
        });
        let traced = train_report(&scenario, &exec);
        let parsed = crate::json::Json::parse(&traced.to_pretty()).unwrap();
        let tables = parsed.path("trace.per_party").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        let rows = tables[0].get("phases").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("phase").unwrap().as_str(), Some("stats"));
        assert_eq!(rows[0].get("rounds").unwrap().as_u64(), Some(2));
        assert_eq!(rows[0].get("bytes_sent").unwrap().as_u64(), Some(64));
    }

    #[test]
    fn cross_party_counter_merge_is_field_wise() {
        // Party 1 reporting default-initialized groups must not erase
        // party 0's values in the aggregate.
        let mut exec = fake_exec();
        exec.parties[1].comparison = pivot_core::ComparisonCounters::default();
        let report = train_report(&scenario(), &exec);
        let parsed = crate::json::Json::parse(&report.to_pretty()).unwrap();
        assert_eq!(
            parsed
                .path("counters.comparisons_all_parties.online_rounds")
                .unwrap()
                .as_u64(),
            Some(40)
        );
    }

    #[test]
    fn predict_report_has_per_sample_latency() {
        let report = predict_report(&scenario(), &fake_exec());
        let v = report
            .path("timing.predict_per_sample_s")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((v - 0.05).abs() < 1e-12);
    }
}
