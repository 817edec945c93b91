//! `pivot trace`: inspect a run's tracing output.
//!
//! Accepts either a run report (`*-report.json` or bench report)
//! carrying embedded phase tables, or a raw Chrome-trace export
//! (`*-trace.json`). For a Chrome trace it first re-derives the spans
//! from the `B`/`E` stream — which doubles as a structural validation
//! (`--check`): every track's events must balance, timestamps must be
//! monotonic per track, and every span must name a known phase.

use crate::json::Json;
use std::collections::HashMap;
use std::path::PathBuf;

/// Parsed arguments of the `trace` subcommand.
pub struct TraceArgs {
    pub input: PathBuf,
    /// Validate a Chrome-trace export and exit non-zero on violations
    /// instead of printing the tables (the CI smoke gate).
    pub check: bool,
    /// Second input for `--diff`: print both phase tables side by side
    /// with per-phase rounds/bytes/wait deltas (A = `input`, B = this).
    pub diff: Option<PathBuf>,
}

/// How many spans the "top round-serializing spans" section prints.
const TOP_SPANS: usize = 10;

pub fn run(args: &TraceArgs) -> Result<(), String> {
    if let Some(b) = &args.diff {
        return run_diff(&args.input, b);
    }
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input.display()))?;
    let doc = Json::parse(&text)?;
    if doc.get("traceEvents").is_some() {
        run_chrome(&doc, args.check)
    } else if args.check {
        Err(
            "--check validates a Chrome-trace export (a file with traceEvents); \
             this looks like a run report"
                .into(),
        )
    } else {
        run_report(&doc)
    }
}

/// One span reconstructed from a balanced `B`/`E` pair.
#[derive(Debug)]
struct ChromeSpan {
    tid: u64,
    name: String,
    phase: String,
    cat: String,
    dur_us: f64,
    sent_bytes: u64,
    recv_bytes: u64,
    wait_ns: u64,
    rounds: u64,
}

fn event_str(ev: &Json, key: &str) -> Option<String> {
    ev.get(key).and_then(|v| v.as_str()).map(str::to_string)
}

fn arg_u64(ev: &Json, key: &str) -> u64 {
    ev.path(&format!("args.{key}"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Validate and reconstruct the span stream of a Chrome-trace export.
fn parse_chrome(doc: &Json) -> Result<Vec<ChromeSpan>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("traceEvents is not an array")?;
    // Per-track open-span stack and last timestamp.
    let mut stacks: HashMap<u64, Vec<(String, String, String, f64)>> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut spans = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = event_str(ev, "ph").ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        let tid = ev
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let prev = last_ts.entry(tid).or_insert(ts);
        if ts < *prev {
            return Err(format!(
                "event {i}: ts {ts} goes backwards on track {tid} (last {prev})"
            ));
        }
        *prev = ts;
        match ph.as_str() {
            "B" => {
                let name =
                    event_str(ev, "name").ok_or_else(|| format!("event {i}: B without name"))?;
                let cat = event_str(ev, "cat").unwrap_or_default();
                let phase = ev
                    .path("args.phase")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string();
                if cat != "runtime" && !pivot_trace::PHASES.contains(&phase.as_str()) {
                    return Err(format!(
                        "event {i}: span {name:?} names unknown phase {phase:?}"
                    ));
                }
                stacks.entry(tid).or_default().push((name, phase, cat, ts));
            }
            "E" => {
                let (name, phase, cat, start) =
                    stacks.entry(tid).or_default().pop().ok_or_else(|| {
                        format!("event {i}: E without a matching B on track {tid}")
                    })?;
                spans.push(ChromeSpan {
                    tid,
                    name,
                    phase,
                    cat,
                    dur_us: ts - start,
                    sent_bytes: arg_u64(ev, "sent_bytes"),
                    recv_bytes: arg_u64(ev, "recv_bytes"),
                    wait_ns: arg_u64(ev, "wait_ns"),
                    rounds: arg_u64(ev, "rounds"),
                });
            }
            "C" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "track {tid}: {} span(s) opened but never closed",
                stack.len()
            ));
        }
    }
    Ok(spans)
}

fn run_chrome(doc: &Json, check: bool) -> Result<(), String> {
    let spans = parse_chrome(doc)?;
    if check {
        let tracks: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
        println!(
            "trace OK: {} spans across {} track(s), balanced B/E, monotonic ts, \
             known phases",
            spans.len(),
            tracks.len()
        );
        return Ok(());
    }

    // Phase table: counters bucket every attributed span; wall time counts
    // phase-root spans only (fine spans re-bucket counters, not time).
    let mut rows: Vec<(String, u64, f64, u64, u64, u64, u64)> = Vec::new();
    for &phase in pivot_trace::PHASES {
        let mut row = (phase.to_string(), 0u64, 0.0f64, 0u64, 0u64, 0u64, 0u64);
        for s in spans.iter().filter(|s| s.phase == phase) {
            row.3 += s.wait_ns;
            row.4 += s.rounds;
            row.5 += s.sent_bytes;
            row.6 += s.recv_bytes;
            if s.cat == "phase" {
                row.1 += 1;
                row.2 += s.dur_us / 1e6;
            }
        }
        if row.1 > 0 || row.3 > 0 || row.4 > 0 || row.5 > 0 || row.6 > 0 {
            rows.push(row);
        }
    }
    println!("phase table (all tracks)");
    println!(
        "{:<14} {:>7} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "phase", "spans", "wall_s", "wait_s", "rounds", "sent_B", "recv_B"
    );
    for (phase, count, wall_s, wait_ns, rounds, sent, recv) in &rows {
        println!(
            "{phase:<14} {count:>7} {wall_s:>10.4} {:>10.4} {rounds:>8} {sent:>12} {recv:>12}",
            *wait_ns as f64 / 1e9
        );
    }

    let mut by_rounds: Vec<&ChromeSpan> = spans.iter().filter(|s| s.rounds > 0).collect();
    by_rounds.sort_by(|a, b| {
        b.rounds
            .cmp(&a.rounds)
            .then(b.wait_ns.cmp(&a.wait_ns))
            .then(a.name.cmp(&b.name))
    });
    if !by_rounds.is_empty() {
        println!("\ntop round-serializing spans");
        println!(
            "{:<24} {:>5} {:<14} {:>8} {:>10} {:>10}",
            "span", "tid", "phase", "rounds", "wait_s", "dur_s"
        );
        for s in by_rounds.iter().take(TOP_SPANS) {
            println!(
                "{:<24} {:>5} {:<14} {:>8} {:>10.4} {:>10.4}",
                s.name,
                s.tid,
                s.phase,
                s.rounds,
                s.wait_ns as f64 / 1e9,
                s.dur_us / 1e6
            );
        }
    }
    Ok(())
}

/// Print a phase-rows array embedded in a report.
fn print_rows(rows: &[Json]) {
    println!(
        "  {:<14} {:>7} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "phase", "spans", "wall_s", "wait_s", "rounds", "sent_B", "recv_B"
    );
    for row in rows {
        let f = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let u = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "  {:<14} {:>7} {:>10.4} {:>10.4} {:>8} {:>12} {:>12}",
            row.get("phase").and_then(|v| v.as_str()).unwrap_or("?"),
            u("spans"),
            f("wall_s"),
            f("wait_s"),
            u("rounds"),
            u("bytes_sent"),
            u("bytes_received"),
        );
    }
}

fn run_report(doc: &Json) -> Result<(), String> {
    let mut printed = false;
    // train / predict / party reports.
    if let Some(tables) = doc.path("trace.per_party").and_then(|v| v.as_array()) {
        for t in tables {
            let party = t.get("party").and_then(Json::as_u64).unwrap_or(0);
            let level = t
                .get("level")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string();
            println!("party {party} (trace level {level})");
            if let Some(rows) = t.get("phases").and_then(|v| v.as_array()) {
                print_rows(rows);
            }
            printed = true;
        }
    }
    // bench reports (`results[*].phases`).
    if let Some(entries) = doc.get("results").and_then(|v| v.as_array()) {
        for e in entries {
            if let Some(rows) = e.get("phases").and_then(|v| v.as_array()) {
                let label = e
                    .get("algorithm")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string();
                println!("{label} (party 0)");
                print_rows(rows);
                printed = true;
            }
        }
    }
    if !printed {
        return Err("no trace data in this file — run the scenario with \
             params.trace = \"phases\" or \"full\", or point at the \
             *-trace.json export"
            .into());
    }
    Ok(())
}

/// One canonical phase row, whichever input kind it came from.
#[derive(Default, Clone, Copy)]
struct PhaseAgg {
    wait_s: f64,
    rounds: u64,
    bytes_sent: u64,
}

/// Extract a `phase → (rounds, sent bytes, wait_s)` table from a run
/// report (party-0 trace section, or the first traced bench entry) or a
/// Chrome-trace export (aggregated over all tracks).
fn phase_table_of(doc: &Json) -> Result<Vec<(String, PhaseAgg)>, String> {
    if doc.get("traceEvents").is_some() {
        let spans = parse_chrome(doc)?;
        let mut out = Vec::new();
        for &phase in pivot_trace::PHASES {
            let mut agg = PhaseAgg::default();
            let mut any = false;
            for s in spans.iter().filter(|s| s.phase == phase) {
                any = true;
                agg.wait_s += s.wait_ns as f64 / 1e9;
                agg.rounds += s.rounds;
                agg.bytes_sent += s.sent_bytes;
            }
            if any {
                out.push((phase.to_string(), agg));
            }
        }
        return Ok(out);
    }
    let rows = doc
        .path("trace.per_party")
        .and_then(|v| v.as_array())
        .and_then(|tables| tables.first())
        .and_then(|t| t.get("phases"))
        .and_then(|v| v.as_array())
        .or_else(|| {
            doc.get("results")
                .and_then(|v| v.as_array())
                .and_then(|es| {
                    es.iter()
                        .find_map(|e| e.get("phases").and_then(|v| v.as_array()))
                })
        })
        .ok_or(
            "no phase tables in this file — run the scenario with \
             params.trace = \"phases\" or \"full\"",
        )?;
    Ok(rows
        .iter()
        .map(|row| {
            let f = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let u = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
            (
                row.get("phase")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string(),
                PhaseAgg {
                    wait_s: f("wait_s"),
                    rounds: u("rounds"),
                    bytes_sent: u("bytes_sent"),
                },
            )
        })
        .collect())
}

/// `pivot trace --diff A B`: per-phase rounds/bytes/wait side by side,
/// with signed deltas (B − A) and the total round ratio — the intended
/// view for comparing two runs of one scenario across a change.
fn run_diff(a_path: &PathBuf, b_path: &PathBuf) -> Result<(), String> {
    let load = |p: &PathBuf| -> Result<Vec<(String, PhaseAgg)>, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        phase_table_of(&Json::parse(&text)?)
    };
    let a = load(a_path)?;
    let b = load(b_path)?;

    // Union of phases, canonical order first, stragglers appended.
    let mut phases: Vec<String> = pivot_trace::PHASES
        .iter()
        .map(|s| s.to_string())
        .filter(|p| a.iter().any(|(ph, _)| ph == p) || b.iter().any(|(ph, _)| ph == p))
        .collect();
    for (ph, _) in a.iter().chain(b.iter()) {
        if !phases.contains(ph) {
            phases.push(ph.clone());
        }
    }
    let get = |table: &[(String, PhaseAgg)], phase: &str| -> PhaseAgg {
        table
            .iter()
            .find(|(ph, _)| ph == phase)
            .map(|&(_, agg)| agg)
            .unwrap_or_default()
    };

    println!(
        "phase diff  A = {}  B = {}",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>12} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "phase",
        "rounds_A",
        "rounds_B",
        "Δrounds",
        "sent_A",
        "sent_B",
        "Δbytes",
        "wait_A_s",
        "wait_B_s",
        "Δwait_s"
    );
    let mut tot_a = PhaseAgg::default();
    let mut tot_b = PhaseAgg::default();
    for phase in &phases {
        let pa = get(&a, phase);
        let pb = get(&b, phase);
        tot_a.rounds += pa.rounds;
        tot_a.bytes_sent += pa.bytes_sent;
        tot_a.wait_s += pa.wait_s;
        tot_b.rounds += pb.rounds;
        tot_b.bytes_sent += pb.bytes_sent;
        tot_b.wait_s += pb.wait_s;
        println!(
            "{:<14} {:>9} {:>9} {:>+9} {:>12} {:>12} {:>+12} {:>9.3} {:>9.3} {:>+9.3}",
            phase,
            pa.rounds,
            pb.rounds,
            pb.rounds as i64 - pa.rounds as i64,
            pa.bytes_sent,
            pb.bytes_sent,
            pb.bytes_sent as i64 - pa.bytes_sent as i64,
            pa.wait_s,
            pb.wait_s,
            pb.wait_s - pa.wait_s,
        );
    }
    println!(
        "{:<14} {:>9} {:>9} {:>+9} {:>12} {:>12} {:>+12} {:>9.3} {:>9.3} {:>+9.3}",
        "total",
        tot_a.rounds,
        tot_b.rounds,
        tot_b.rounds as i64 - tot_a.rounds as i64,
        tot_a.bytes_sent,
        tot_b.bytes_sent,
        tot_b.bytes_sent as i64 - tot_a.bytes_sent as i64,
        tot_a.wait_s,
        tot_b.wait_s,
        tot_b.wait_s - tot_a.wait_s,
    );
    if tot_a.rounds > 0 && tot_b.rounds > 0 {
        println!(
            "round ratio A/B = {:.2}×",
            tot_a.rounds as f64 / tot_b.rounds as f64
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> pivot_trace::PartyTrace {
        pivot_trace::PartyTrace {
            party: 0,
            level: pivot_trace::TraceLevel::Full,
            spans: vec![
                pivot_trace::SpanRecord {
                    name: "stats".into(),
                    phase: "stats",
                    depth: 1,
                    is_phase_root: true,
                    start_ns: 100,
                    end_ns: 500,
                    sent_bytes: 64,
                    recv_bytes: 32,
                    wait_ns: 10,
                    rounds: 2,
                },
                pivot_trace::SpanRecord {
                    name: "party 0".into(),
                    phase: "other",
                    depth: 0,
                    is_phase_root: true,
                    start_ns: 0,
                    end_ns: 1000,
                    sent_bytes: 8,
                    recv_bytes: 0,
                    wait_ns: 0,
                    rounds: 1,
                },
            ],
            gauges: vec![pivot_trace::GaugeSample {
                name: "nonce_pool_hit_rate",
                ts_ns: 300,
                value: 0.75,
            }],
        }
    }

    #[test]
    fn chrome_export_round_trips_through_the_checker() {
        let json = pivot_trace::chrome_trace_json(&[sample_trace()], None);
        let doc = Json::parse(&json).unwrap();
        let spans = parse_chrome(&doc).unwrap();
        assert_eq!(spans.len(), 2);
        let total_rounds: u64 = spans.iter().map(|s| s.rounds).sum();
        assert_eq!(total_rounds, 3);
        run_chrome(&doc, true).unwrap();
        run_chrome(&doc, false).unwrap();
    }

    #[test]
    fn checker_rejects_unbalanced_and_unknown_phases() {
        let unbalanced = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1.0,"name":"x","cat":"phase","args":{"phase":"stats"}}
        ]}"#;
        let err = parse_chrome(&Json::parse(unbalanced).unwrap()).unwrap_err();
        assert!(err.contains("never closed"), "{err}");

        let unknown = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1.0,"name":"x","cat":"phase","args":{"phase":"mystery"}},
            {"ph":"E","pid":1,"tid":0,"ts":2.0,"args":{}}
        ]}"#;
        let err = parse_chrome(&Json::parse(unknown).unwrap()).unwrap_err();
        assert!(err.contains("unknown phase"), "{err}");

        let backwards = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":5.0,"name":"x","cat":"phase","args":{"phase":"stats"}},
            {"ph":"E","pid":1,"tid":0,"ts":4.0,"args":{}}
        ]}"#;
        let err = parse_chrome(&Json::parse(backwards).unwrap()).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn phase_table_extraction_covers_both_input_kinds() {
        // Run report shape: trace.per_party[0].phases rows.
        let report = r#"{"trace":{"per_party":[{"party":0,"level":"phases","phases":[
            {"phase":"gain","spans":3,"wall_s":1.0,"wait_s":0.5,"rounds":300,
             "bytes_sent":1000,"bytes_received":900},
            {"phase":"leaf","spans":1,"wall_s":0.1,"wait_s":0.01,"rounds":28,
             "bytes_sent":50,"bytes_received":40}
        ]}]}}"#;
        let table = phase_table_of(&Json::parse(report).unwrap()).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].0, "gain");
        assert_eq!(table[0].1.rounds, 300);
        assert_eq!(table[0].1.bytes_sent, 1000);

        // Chrome-trace shape aggregates spans per phase across tracks.
        let chrome = pivot_trace::chrome_trace_json(&[sample_trace()], None);
        let table = phase_table_of(&Json::parse(&chrome).unwrap()).unwrap();
        let stats = table.iter().find(|(p, _)| p == "stats").unwrap();
        assert_eq!(stats.1.rounds, 2);
        assert_eq!(stats.1.bytes_sent, 64);

        // Bench entry fallback.
        let bench = r#"{"results":[{"algorithm":"Pivot-Basic","phases":[
            {"phase":"stats","rounds":7,"bytes_sent":11,"wait_s":0.2}
        ]}]}"#;
        let table = phase_table_of(&Json::parse(bench).unwrap()).unwrap();
        assert_eq!(table[0].1.rounds, 7);
    }

    #[test]
    fn report_without_trace_is_a_clean_error() {
        let doc = Json::parse(r#"{"command":"train"}"#).unwrap();
        let err = run_report(&doc).unwrap_err();
        assert!(err.contains("no trace data"), "{err}");
    }
}
