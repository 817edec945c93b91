//! JSON report construction.
//!
//! Reports are self-describing: every run embeds the effective scenario,
//! the seed, and the tool version, so results collected months apart stay
//! comparable (`schema_version` bumps on any incompatible shape change).

use crate::json::Json;
use crate::party::PartyError;
use crate::runner::{Execution, PartyOutcome};
use crate::scenario::Scenario;
use pivot_trace::{Counter, Row, Snapshot, Unit};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

pub const SCHEMA_VERSION: u64 = 4;

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
        // The kernel of the exponentiations modulo `N²`, by the rule
        // `Montgomery::new` applies: every Paillier timing depends on it.
        .with(
            "montgomery_kernel",
            pivot_bignum::Montgomery::kernel_name(scenario.params.keysize.saturating_mul(2)),
        )
        // The top 64 bits of the fixture `N` the scenario's (first)
        // algorithm deals, which names the key every party used.
        .with(
            "key_fingerprint",
            pivot_paillier::fixtures::key_fingerprint(
                scenario.pivot_params(scenario.algorithms[0]).keysize,
            ),
        )
}

/// Report sections whose counters sum over every party: each party's
/// registry, added cell by cell. Every other `counters` path shows party
/// 0 (a party report's only party).
const ALL_PARTIES: [&str; 2] = ["counters.comparisons_all_parties.", "counters.checkpoint."];

/// One registry row's value in `snap`, in the row's unit.
fn row_json(row: &Row, snap: &Snapshot) -> Json {
    let c = row.counter;
    match row.unit {
        Unit::Count | Unit::Bytes => snap[c].into(),
        Unit::Nanos => Json::Num(snap[c] as f64 / 1e9),
        Unit::Widths => {
            let mut widths = Json::obj();
            for (k, &n) in snap.cells(c).iter().enumerate() {
                if n > 0 {
                    widths.set(&k.to_string(), n);
                }
            }
            widths
        }
        Unit::PhaseNanos => {
            let mut phases = Json::obj();
            for (phase, &ns) in pivot_trace::PHASES.iter().zip(snap.cells(c)) {
                if ns > 0 {
                    phases.set(phase, ns as f64 / 1e9);
                }
            }
            phases
        }
    }
}

/// Append to `out` every registry row under `section` (a dotted report
/// path prefix), nested by the rest of its path, in table order. `source`
/// picks the snapshot each path reads.
fn rows_json<'a>(mut out: Json, section: &str, source: impl Fn(&str) -> &'a Snapshot) -> Json {
    for row in pivot_trace::ROWS {
        for path in row.paths {
            if let Some(rest) = path.strip_prefix(section).and_then(|r| r.strip_prefix('.')) {
                out.set_path(rest, row_json(row, source(path)));
            }
        }
    }
    out
}

/// The snapshot a party's report path reads ([`pivot_trace::Row::paths`]):
/// the end of training under `network.train`, the prediction phase under
/// `network.predict`, the end of the run elsewhere.
fn party_snapshot<'a>(p: &'a PartyOutcome, predict: &'a Snapshot, path: &str) -> &'a Snapshot {
    if path.starts_with("network.train.") {
        &p.train
    } else if path.starts_with("network.predict.") {
        predict
    } else {
        &p.counters
    }
}

/// One party's `network` section — train and predict traffic and session
/// health — appended to `out`. One definition feeds the per-party array
/// of train and bench reports *and* the `pivot party` report, so a
/// distributed report compares field for field with the in-process one.
fn network_json(out: Json, p: &PartyOutcome) -> Json {
    let predict = p.predict();
    rows_json(out, "network", |path| party_snapshot(p, &predict, path))
}

/// A report's `timing` section for party `p`: wall clocks, the
/// prediction latency per test sample (Figures 4g–h; null without a test
/// split), then the registry's timers.
fn timing_json(exec: &Execution, p: &PartyOutcome) -> Json {
    let per_sample_s = if exec.test_samples > 0 {
        Json::Num(p.predict_wall_s / exec.test_samples as f64)
    } else {
        Json::Null
    };
    let timing = Json::obj()
        .with("wall_total_s", exec.wall_s)
        .with("setup_s", p.setup_wall_s)
        .with("train_s", p.train_wall_s)
        .with("predict_s", p.predict_wall_s)
        .with("predict_per_sample_s", per_sample_s);
    rows_json(timing, "timing", |_| &p.counters)
}

fn party_json(exec: &Execution) -> Json {
    Json::Arr(
        exec.parties
            .iter()
            .map(|p| {
                network_json(Json::obj().with("party", p.party), p)
                    .with("phases_s", row_json(Counter::PhaseNs.row(), &p.counters))
            })
            .collect(),
    )
}

/// The `counters` section: party 0's registry, the [`ALL_PARTIES`]
/// sums, and two ratios derived from them.
fn counters_json(exec: &Execution) -> Json {
    let p0 = &exec.parties[0];
    let all = exec
        .parties
        .iter()
        .fold(Snapshot::default(), |sum, p| &sum + &p.counters);
    let mut counters = rows_json(Json::obj(), "counters", |path| {
        if ALL_PARTIES.iter().any(|s| path.starts_with(s)) {
            &all
        } else {
            &p0.counters
        }
    });
    let c = &p0.counters;
    // Slot occupancy: values carried / slots emitted (null when nothing
    // was packed).
    let capacity = c[Counter::PackedSlotCapacity];
    counters.set_path(
        "packing.occupancy",
        (capacity > 0).then(|| c[Counter::PackedValues] as f64 / capacity as f64),
    );
    // The spot check's verified share of the proofs it looked at.
    let checked = c[Counter::ProofsVerified] + c[Counter::ProofsSkipped];
    counters.set_path(
        "verification.verified_fraction",
        (checked > 0).then(|| c[Counter::ProofsVerified] as f64 / checked as f64),
    );
    counters
}

/// One party's phase table: rounds, bytes, wall and blocking-wait time
/// per protocol phase. The counter columns are the registry's per-phase
/// cells, so their sums equal the party's totals exactly.
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

/// Read back the rows [`phase_rows_json`] wrote; a missing counter reads
/// as zero.
pub(crate) fn phase_rows_from_json(rows: &[Json]) -> Vec<pivot_trace::PhaseRow> {
    rows.iter()
        .map(|row| {
            let count = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
            let ns =
                |k: &str| (row.get(k).and_then(Json::as_f64).unwrap_or(0.0) * 1e9).round() as u64;
            pivot_trace::PhaseRow {
                phase: row
                    .get("phase")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                span_count: count("spans"),
                wall_ns: ns("wall_s"),
                wait_ns: ns("wait_s"),
                rounds: count("rounds"),
                sent_bytes: count("bytes_sent"),
                recv_bytes: count("bytes_received"),
            }
        })
        .collect()
}

/// The `trace` report section: per-party phase tables (present only when
/// the scenario ran with `params.trace != "off"`).
pub(crate) fn trace_json(exec: &Execution) -> Option<Json> {
    let tables: Vec<Json> = exec
        .parties
        .iter()
        .filter_map(|p| Some((p.trace.as_ref()?, p.phase_table()?)))
        .map(|(t, rows)| {
            Json::obj()
                .with("party", t.party)
                .with("level", t.level.as_str())
                .with("phases", phase_rows_json(&rows))
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

/// Write the side-car trace exports next to a run's report: the timeline
/// as a Chrome trace (`<report-stem>-trace.json`, loadable in Perfetto /
/// `chrome://tracing`) and the phase tables as a Prometheus text snapshot
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
    let tables: Vec<(usize, Vec<pivot_trace::PhaseRow>)> = exec
        .parties
        .iter()
        .filter_map(|p| Some((p.party, p.phase_table()?)))
        .collect();
    std::fs::write(
        &prom_path,
        pivot_trace::prometheus_snapshot(&tables, runtime),
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
    let total = |f: fn(&PartyOutcome) -> u64| exec.parties.iter().map(f).sum::<u64>();
    Json::obj()
        .with(
            "bytes_sent_all_parties",
            total(|p| p.counters[Counter::BytesSent]),
        )
        .with(
            "train_messages_all_parties",
            total(|p| p.train[Counter::MessagesSent]),
        )
}

/// Report for `pivot train`.
pub fn train_report(scenario: &Scenario, exec: &Execution) -> Json {
    let mut report = header("train", scenario)
        .with("algorithm", exec.algo.label())
        .with("dataset", dataset_json(exec))
        .with("timing", timing_json(exec, &exec.parties[0]))
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
/// Carries the same `timing`/`network`/`counters`/`model`/`evaluation`
/// shapes as the train report (so tooling can diff a distributed run
/// against the in-process run party by party) plus the raw prediction
/// vector, which lets a harness assert that all `m` processes agree on
/// the jointly computed model output bit for bit.
pub fn party_report(scenario: &Scenario, party: usize, exec: &Execution) -> Json {
    let p = &exec.parties[0];
    let mut report = header("party", scenario)
        .with("algorithm", exec.algo.label())
        .with("party", party)
        .with("dataset", dataset_json(exec))
        .with("timing", timing_json(exec, p))
        .with("network", network_json(Json::obj(), p))
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
/// report when the run fails, so a harness can read *what* failed as data
/// instead of scraping stderr. A transport failure names its kind, peer,
/// direction, protocol phase and elapsed wait; a rejected proof names the
/// accused cheater (`accused`) apart from the party that observed it; a
/// checkpoint failure (an unreadable, corrupt or mismatched checkpoint
/// under `--resume`, or a durable write that failed mid-run) its detail.
/// The scenario echo — which includes the effective `connect_timeout_s` —
/// rides along as in every other report.
pub fn party_failure_report(
    scenario: &Scenario,
    party: usize,
    err: &PartyError,
    wall_s: f64,
) -> Json {
    let error = match err {
        PartyError::Transport(err) => {
            let mut error = Json::obj()
                .with("kind", err.kind.as_str())
                .with("party", err.party as u64)
                .with("peer", err.peer.map(|p| p as u64))
                .with("direction", err.direction.map(|d| d.as_str()))
                .with("phase", err.phase.clone())
                .with("elapsed_s", err.elapsed.as_secs_f64())
                .with("detail", err.detail.clone())
                .with("message", err.to_string());
            // A resume gap names the first frame the retransmit ring
            // could not replay, so a harness can see how far eviction
            // outran the peer.
            if let Some(seq) = err.missing_seq {
                error.set("missing_seq", seq);
            }
            error
        }
        PartyError::Protocol(err) => {
            let pivot_transport::ProtocolError::ProofRejected {
                party: accused,
                observer,
                phase,
                proof_kind,
                detail,
            } = err.as_ref();
            Json::obj()
                .with("kind", "proof_rejected")
                .with("accused", *accused as u64)
                .with("observer", *observer as u64)
                .with("phase", phase.clone())
                .with("proof_kind", proof_kind.clone())
                .with("detail", detail.clone())
                .with("message", err.to_string())
        }
        PartyError::Checkpoint(err) => Json::obj()
            .with("kind", "checkpoint")
            .with("party", party as u64)
            .with("detail", format!("{err:?}"))
            .with("message", err.to_string()),
        PartyError::Usage(_) | PartyError::Child { .. } => {
            Json::obj().with("message", err.to_string())
        }
    };
    header("party", scenario)
        .with("party", party)
        .with("status", "failed")
        .with("wall_total_s", wall_s)
        .with("error", error)
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
                .with("bytes_sent_party0", p0.train[Counter::BytesSent])
                .with(
                    "stats_bytes_sent_party0",
                    p0.counters[Counter::StatsBytesSent],
                )
                .with(
                    "bytes_sent_all_parties",
                    exec.parties
                        .iter()
                        .map(|p| p.train[Counter::BytesSent])
                        .sum::<u64>(),
                )
                .with("internal_nodes", p0.internal_nodes)
                .with("counters", counters_json(exec));
            if let Some(rows) = p0.phase_table() {
                entry.set("phases", phase_rows_json(&rows));
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
    use pivot_data::Task;

    fn fake_exec() -> Execution {
        let party = |id: usize| {
            let c = pivot_trace::Counters::new();
            c.add(Counter::BytesSent, 1000 + id as u64);
            c.add(Counter::BytesReceived, 900);
            c.add(Counter::MessagesSent, 10);
            let train = c.snapshot();
            c.add(Counter::BytesSent, 50);
            c.add(Counter::BytesReceived, 40);
            for (phase, ms) in [
                ("stats", 100),
                ("gain", 200),
                ("update", 300),
                ("predict", 50),
            ] {
                let cell = pivot_trace::PHASES
                    .iter()
                    .position(|&p| p == phase)
                    .unwrap();
                c.add_cell(Counter::PhaseNs, cell, ms * 1_000_000);
            }
            for (counter, n) in [
                (Counter::Encryptions, 12),
                (Counter::CiphertextOps, 34),
                (Counter::ThresholdDecryptions, 5),
                (Counter::Rounds, 7),
                (Counter::SecureMults, 8),
                (Counter::SecureComparisons, 9),
                (Counter::CmpRounds, 40),
                (Counter::CmpOpened, 300),
                (Counter::CmpTriples, 120),
                (Counter::CmpMaskedRows, 9),
                (Counter::CmpMaskedBits, 81),
                (Counter::ProofsGenerated, 20),
                (Counter::ProofsVerified, 5),
                (Counter::ProofsSkipped, 15),
                (Counter::ProofBytes, 4096),
                (Counter::SplitStatCiphertexts, 54),
                (Counter::PackedCiphertexts, 9),
                (Counter::PackedValues, 57),
                (Counter::PackedSlotCapacity, 63),
                (Counter::StatsBytesSent, 640),
                (Counter::ConnectRetries, 1),
                (Counter::Reconnects, 2),
                (Counter::ReplayedFrames, 3),
                (Counter::Rejoins, 1),
                (Counter::FaultsInjected, 1),
                (Counter::CheckpointsWritten, 2),
                (Counter::CheckpointBytes, 2048),
            ] {
                c.add(counter, n);
            }
            c.add_cell(Counter::CmpWidths, 9, 4);
            c.add_cell(Counter::CmpWidths, 45, 5);
            c.add_duration(
                Counter::VerificationNs,
                std::time::Duration::from_millis(12),
            );
            PartyOutcome {
                party: id,
                setup_wall_s: 0.2,
                train_wall_s: 0.6,
                predict_wall_s: 0.1,
                train,
                counters: c.snapshot(),
                internal_nodes: 3,
                tree_depth: Some(2),
                predictions: vec![0.0, 1.0],
                trace: None,
            }
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
        assert_eq!(parsed.get("schema_version").unwrap().as_u64(), Some(4));
        assert_eq!(parsed.get("command").unwrap().as_str(), Some("train"));
        // Keysize 256: N² has 512 bits, the kernel named by the same rule
        // `Montgomery::new` applies.
        assert_eq!(
            parsed.get("montgomery_kernel").unwrap().as_str(),
            Some(pivot_bignum::Montgomery::kernel_name(512))
        );
        assert_eq!(
            parsed.get("key_fingerprint").unwrap().as_str(),
            Some("df9e531bd85a6d42")
        );
        assert_eq!(parsed.path("timing.setup_s").unwrap().as_f64(), Some(0.2));
        assert_eq!(parsed.path("evaluation.value").unwrap().as_f64(), Some(0.5));
        assert_eq!(
            parsed.path("timing.phases_s.gain").unwrap().as_f64(),
            Some(0.2)
        );
        // Phases that did not run are left out.
        assert!(parsed.path("timing.phases_s.conversion").is_none());
        let per_party = parsed
            .path("network.per_party")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(per_party.len(), 2);
        assert_eq!(
            per_party[1].path("phases_s.update").unwrap().as_f64(),
            Some(0.3)
        );
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
        assert!(parsed.path("counters.randomness_pool").is_none());
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

    /// The counter reference README.md carries between its
    /// `report-counters` markers: the registry table, rendered.
    fn counter_reference() -> String {
        let mut out = String::from(
            "| counter | report path | unit | what increments it |\n|---|---|---|---|\n",
        );
        for row in pivot_trace::ROWS {
            let paths: Vec<String> = row.paths.iter().map(|p| format!("`{p}`")).collect();
            assert!(!row.what.contains('|'), "{:?}", row.counter);
            let by_phase = if row.by_phase { ", by phase" } else { "" };
            out.push_str(&format!(
                "| `{:?}` | {} | {}{by_phase} | {} |\n",
                row.counter,
                paths.join(", "),
                row.unit.as_str(),
                row.what
            ));
        }
        out
    }

    #[test]
    fn readme_counter_reference_matches_registry() {
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme).unwrap();
        let expected = format!(
            "<!-- report-counters:begin -->\n{}<!-- report-counters:end -->",
            counter_reference()
        );
        assert!(
            readme.contains(&expected),
            "README.md is out of date with the counter registry; replace the block between \
             its report-counters markers with:\n\n{expected}\n"
        );
    }

    #[test]
    fn every_registry_path_renders_in_the_reports() {
        // A row whose path no report section walks would be declared and
        // never shown.
        let exec = fake_exec();
        let train = train_report(&scenario(), &exec);
        let party0 = &train.path("network.per_party").unwrap().as_array().unwrap()[0];
        let party = party_report(&scenario(), 0, &exec);
        for row in pivot_trace::ROWS {
            for path in row.paths {
                assert!(party.path(path).is_some(), "party report lacks {path}");
                let in_train = match path.strip_prefix("network.") {
                    Some(rest) => party0.path(rest),
                    None => train.path(path),
                };
                assert!(in_train.is_some(), "train report lacks {path}");
            }
        }
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
        let report =
            party_failure_report(&scenario(), 0, &PartyError::Protocol(Box::new(err)), 0.5);
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

        // The counts come from the party's registry, the span count from
        // its timeline.
        let c = pivot_trace::Counters::new();
        {
            let _stats = pivot_trace::phase_span(&c, "stats");
            c.add(Counter::BytesSent, 64);
            c.add(Counter::Rounds, 2);
        }
        let mut exec = fake_exec();
        exec.parties[0].train = Snapshot::default();
        exec.parties[0].counters = c.snapshot();
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
            }],
        });
        let traced = train_report(&scenario, &exec);
        let parsed = crate::json::Json::parse(&traced.to_pretty()).unwrap();
        let tables = parsed.path("trace.per_party").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        let rows = tables[0].get("phases").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("phase").unwrap().as_str(), Some("stats"));
        assert_eq!(rows[0].get("spans").unwrap().as_u64(), Some(1));
        assert_eq!(rows[0].get("rounds").unwrap().as_u64(), Some(2));
        assert_eq!(rows[0].get("bytes_sent").unwrap().as_u64(), Some(64));
        // No `other` row: nothing was recorded outside the phase, and this
        // timeline has no root span.
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn cross_party_counter_merge_is_field_wise() {
        // Party 1 reporting default-initialized groups must not erase
        // party 0's values in the aggregate.
        let mut exec = fake_exec();
        exec.parties[1].train = Snapshot::default();
        exec.parties[1].counters = Snapshot::default();
        let report = train_report(&scenario(), &exec);
        let parsed = crate::json::Json::parse(&report.to_pretty()).unwrap();
        assert_eq!(
            parsed
                .path("counters.comparisons_all_parties.online_rounds")
                .unwrap()
                .as_u64(),
            Some(40)
        );
        // Checkpoints sum over the parties too.
        let report = train_report(&scenario(), &fake_exec());
        assert_eq!(
            report.path("counters.checkpoint.bytes").unwrap().as_u64(),
            Some(4096)
        );
    }

    #[test]
    fn train_report_has_per_sample_latency() {
        // The party report's timing is the train report's.
        let exec = fake_exec();
        for report in [
            train_report(&scenario(), &exec),
            party_report(&scenario(), 0, &exec),
        ] {
            let v = report
                .path("timing.predict_per_sample_s")
                .unwrap()
                .as_f64()
                .unwrap();
            assert!((v - 0.05).abs() < 1e-12);
        }
    }
}
