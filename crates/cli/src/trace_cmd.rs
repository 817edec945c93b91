//! `pivot trace`: print, check or compare a traced run's phase tables.
//!
//! An input is a run report (train, party or bench JSON) or a run's
//! Chrome-trace export (`*-trace.json`). A report's tables are read back
//! as the `pivot_trace::PhaseRow`s they were written from. An export's
//! `B`/`E` stream is rebuilt into `pivot_trace::SpanRecord`s and each
//! party track is aggregated by `pivot_trace::phase_table_of`, so a run
//! and its export print the same per-party tables. Rebuilding doubles as
//! the export's validation (`--check`): every track's events must
//! balance, timestamps must be monotonic per track, and every party-track
//! span must name a known phase.

use crate::json::Json;
use crate::report::phase_rows_from_json;
use pivot_trace::{merge_phase_tables, phase_table_of, PhaseRow, SpanRecord, PHASES};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

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

const NO_TRACE: &str = "no trace data in this file — run the scenario with \
     params.trace = \"phases\" or \"full\", or point at the *-trace.json export";

pub fn run(args: &TraceArgs) -> Result<(), String> {
    run_to(args, &mut io::stdout().lock())
}

fn run_to(args: &TraceArgs, out: &mut impl Write) -> Result<(), String> {
    let a = load(&args.input)?;
    let written = if args.check {
        let (tracks, runtime_spans) = a.export.as_ref().ok_or(
            "--check validates a Chrome-trace export (a file with traceEvents); \
             this looks like a run report",
        )?;
        let spans: usize = tracks.values().map(Vec::len).sum();
        writeln!(
            out,
            "trace OK: {} spans across {} track(s), balanced B/E, monotonic ts, \
             known phases",
            spans + runtime_spans,
            tracks.len() + usize::from(*runtime_spans > 0)
        )
    } else if let Some(b_path) = &args.diff {
        let b = load(b_path)?;
        print_diff(
            out,
            (&args.input, &a.diff_table()?),
            (b_path, &b.diff_table()?),
        )
    } else if a.tables.is_empty() {
        return Err(NO_TRACE.into());
    } else {
        print_tables(out, &a)
    };
    match written.and_then(|()| out.flush()) {
        // A reader that stops early (`pivot trace r.json | head`) ends
        // the command cleanly.
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write the tables: {e}"))
        }
        _ => Ok(()),
    }
}

/// One input file's phase tables.
struct Loaded {
    /// One heading per table in `tables`.
    headings: Vec<String>,
    tables: Vec<Vec<PhaseRow>>,
    /// Whether the tables are the parties of one run; a bench report's
    /// are party 0 of separate runs.
    one_run: bool,
    /// A Chrome export's rebuilt party-track spans by track id, and its
    /// runtime-track span count; `None` for a report.
    export: Option<(BTreeMap<u64, Vec<SpanRecord>>, usize)>,
}

impl Loaded {
    /// The table `--diff` compares: every party merged for one run, the
    /// first traced entry of a bench report.
    fn diff_table(&self) -> Result<Vec<PhaseRow>, String> {
        match self.tables.first() {
            None => Err(NO_TRACE.into()),
            Some(_) if self.one_run => Ok(merge_phase_tables(&self.tables)),
            Some(first) => Ok(first.clone()),
        }
    }
}

fn load(path: &Path) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    if doc.get("traceEvents").is_some() {
        let (spans, runtime_spans) = parse_chrome(&doc)?;
        let mut tracks: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
        for (tid, span) in spans {
            tracks.entry(tid).or_default().push(span);
        }
        return Ok(Loaded {
            headings: tracks.keys().map(|tid| format!("party {tid}")).collect(),
            tables: tracks.values().map(|spans| phase_table_of(spans)).collect(),
            one_run: true,
            export: Some((tracks, runtime_spans)),
        });
    }
    let str_at = |v: &Json, key: &str| {
        let s = v.get(key).and_then(Json::as_str);
        s.unwrap_or("?").to_string()
    };
    let mut headings = Vec::new();
    let mut tables = Vec::new();
    // Train and party reports: `trace.per_party[*].phases`.
    let parties = doc.path("trace.per_party").and_then(Json::as_array);
    for t in parties.unwrap_or_default() {
        let party = t.get("party").and_then(Json::as_u64).unwrap_or(0);
        headings.push(format!(
            "party {party} (trace level {})",
            str_at(t, "level")
        ));
        tables.push(phase_rows_from_json(
            t.get("phases").and_then(Json::as_array).unwrap_or_default(),
        ));
    }
    // Bench reports: `results[*].phases`, party 0 of each point.
    for e in doc
        .get("results")
        .and_then(Json::as_array)
        .unwrap_or_default()
    {
        if let Some(rows) = e.get("phases").and_then(Json::as_array) {
            headings.push(format!("{} (party 0)", str_at(e, "algorithm")));
            tables.push(phase_rows_from_json(rows));
        }
    }
    Ok(Loaded {
        headings,
        tables,
        one_run: parties.is_some(),
        export: None,
    })
}

fn event_str(ev: &Json, key: &str) -> Option<String> {
    ev.get(key).and_then(Json::as_str).map(str::to_string)
}

fn arg_u64(ev: &Json, key: &str) -> u64 {
    ev.path(&format!("args.{key}"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Validate a Chrome-trace export and rebuild its spans: every
/// party-track span with its track id, plus the number of runtime-track
/// spans (they name no phase, so no table counts them).
fn parse_chrome(doc: &Json) -> Result<(Vec<(u64, SpanRecord)>, usize), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("traceEvents is not an array")?;
    // Per-track open spans `(name, phase, is_phase_root, ts)` — a runtime
    // span has no phase — and last timestamp.
    let mut stacks: HashMap<u64, Vec<(String, Option<&'static str>, bool, f64)>> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut spans = Vec::new();
    let mut runtime_spans = 0;
    // Export timestamps are microseconds with nanosecond decimals.
    let ns = |ts: f64| (ts * 1000.0).round() as u64;
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
                let phase = if cat == "runtime" {
                    None
                } else {
                    let phase = ev.path("args.phase").and_then(Json::as_str).unwrap_or("");
                    let known = PHASES.iter().find(|&&p| p == phase).ok_or_else(|| {
                        format!("event {i}: span {name:?} names unknown phase {phase:?}")
                    })?;
                    Some(*known)
                };
                stacks
                    .entry(tid)
                    .or_default()
                    .push((name, phase, cat == "phase", ts));
            }
            "E" => {
                let stack = stacks.entry(tid).or_default();
                let (name, phase, is_phase_root, start) = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: E without a matching B on track {tid}"))?;
                let Some(phase) = phase else {
                    runtime_spans += 1;
                    continue;
                };
                spans.push((
                    tid,
                    SpanRecord {
                        name,
                        phase,
                        depth: stack.len(),
                        is_phase_root,
                        start_ns: ns(start),
                        end_ns: ns(ts),
                        sent_bytes: arg_u64(ev, "sent_bytes"),
                        recv_bytes: arg_u64(ev, "recv_bytes"),
                        wait_ns: arg_u64(ev, "wait_ns"),
                        rounds: arg_u64(ev, "rounds"),
                    },
                ));
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
    Ok((spans, runtime_spans))
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Every table of one input, then — for a run with several parties —
/// their merge, then an export's top round-serializing spans.
fn print_tables(out: &mut impl Write, input: &Loaded) -> io::Result<()> {
    for (heading, rows) in input.headings.iter().zip(&input.tables) {
        writeln!(out, "{heading}")?;
        print_rows(out, rows)?;
    }
    if input.one_run && input.tables.len() > 1 {
        writeln!(out, "all parties (merged)")?;
        print_rows(out, &merge_phase_tables(&input.tables))?;
    }
    let Some((tracks, _)) = &input.export else {
        return Ok(());
    };
    let mut by_rounds: Vec<(u64, &SpanRecord)> = tracks
        .iter()
        .flat_map(|(&tid, spans)| spans.iter().map(move |s| (tid, s)))
        .filter(|(_, s)| s.rounds > 0)
        .collect();
    by_rounds.sort_by(|(_, a), (_, b)| {
        b.rounds
            .cmp(&a.rounds)
            .then(b.wait_ns.cmp(&a.wait_ns))
            .then(a.name.cmp(&b.name))
    });
    if !by_rounds.is_empty() {
        writeln!(out, "\ntop round-serializing spans")?;
        writeln!(
            out,
            "{:<24} {:>5} {:<14} {:>8} {:>10} {:>10}",
            "span", "tid", "phase", "rounds", "wait_s", "dur_s"
        )?;
        for (tid, s) in by_rounds.iter().take(TOP_SPANS) {
            writeln!(
                out,
                "{:<24} {tid:>5} {:<14} {:>8} {:>10.4} {:>10.4}",
                s.name,
                s.phase,
                s.rounds,
                secs(s.wait_ns),
                secs(s.end_ns - s.start_ns)
            )?;
        }
    }
    Ok(())
}

fn print_rows(out: &mut impl Write, rows: &[PhaseRow]) -> io::Result<()> {
    writeln!(
        out,
        "  {:<14} {:>7} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "phase", "spans", "wall_s", "wait_s", "rounds", "sent_B", "recv_B"
    )?;
    for r in rows {
        writeln!(
            out,
            "  {:<14} {:>7} {:>10.4} {:>10.4} {:>8} {:>12} {:>12}",
            r.phase,
            r.span_count,
            secs(r.wall_ns),
            secs(r.wait_ns),
            r.rounds,
            r.sent_bytes,
            r.recv_bytes
        )?;
    }
    Ok(())
}

/// `pivot trace --diff A B`: per-phase rounds/bytes/wait side by side,
/// with signed deltas (B − A) and the total round ratio — the intended
/// view for comparing two runs of one scenario across a change.
fn print_diff(
    out: &mut impl Write,
    (a_path, a): (&Path, &[PhaseRow]),
    (b_path, b): (&Path, &[PhaseRow]),
) -> io::Result<()> {
    writeln!(
        out,
        "phase diff  A = {}  B = {}",
        a_path.display(),
        b_path.display()
    )?;
    writeln!(
        out,
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
    )?;
    let row = |table: &[PhaseRow], phase: &str| {
        table
            .iter()
            .find(|r| r.phase == phase)
            .cloned()
            .unwrap_or_default()
    };
    // The union of both sides' phases, in table order.
    for phase in merge_phase_tables(&[a.to_vec(), b.to_vec()]) {
        let phase = &phase.phase;
        print_diff_row(out, phase, &row(a, phase), &row(b, phase))?;
    }
    let (a, b) = (column_totals(a), column_totals(b));
    print_diff_row(out, "total", &a, &b)?;
    if a.rounds > 0 && b.rounds > 0 {
        writeln!(
            out,
            "round ratio A/B = {:.2}×",
            a.rounds as f64 / b.rounds as f64
        )?;
    }
    Ok(())
}

/// A table's column sums: every row merged under one name.
fn column_totals(rows: &[PhaseRow]) -> PhaseRow {
    let renamed: Vec<PhaseRow> = rows
        .iter()
        .map(|r| PhaseRow {
            phase: "total".into(),
            ..r.clone()
        })
        .collect();
    merge_phase_tables(&[renamed]).pop().unwrap_or_default()
}

fn print_diff_row(out: &mut impl Write, phase: &str, a: &PhaseRow, b: &PhaseRow) -> io::Result<()> {
    writeln!(
        out,
        "{:<14} {:>9} {:>9} {:>+9} {:>12} {:>12} {:>+12} {:>9.3} {:>9.3} {:>+9.3}",
        phase,
        a.rounds,
        b.rounds,
        b.rounds as i64 - a.rounds as i64,
        a.sent_bytes,
        b.sent_bytes,
        b.sent_bytes as i64 - a.sent_bytes as i64,
        secs(a.wait_ns),
        secs(b.wait_ns),
        secs(b.wait_ns) - secs(a.wait_ns),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> pivot_trace::PartyTrace {
        pivot_trace::PartyTrace {
            party: 0,
            level: pivot_trace::TraceLevel::Full,
            spans: vec![
                SpanRecord {
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
                SpanRecord {
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
                name: "sample_gauge",
                ts_ns: 300,
                value: 0.75,
            }],
        }
    }

    /// `doc` written to a per-call temporary file (tests run in parallel).
    fn temp_file(tag: &str, doc: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "pivot-trace-cmd-test-{}-{tag}.json",
            std::process::id()
        ));
        std::fs::write(&path, doc).unwrap();
        path
    }

    fn args(input: PathBuf, check: bool) -> TraceArgs {
        TraceArgs {
            input,
            check,
            diff: None,
        }
    }

    #[test]
    fn chrome_export_round_trips_through_the_checker() {
        let json = pivot_trace::chrome_trace_json(&[sample_trace()], None);
        let (spans, runtime_spans) = parse_chrome(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(runtime_spans, 0);
        let total_rounds: u64 = spans.iter().map(|(_, s)| s.rounds).sum();
        assert_eq!(total_rounds, 3);
        // The rebuilt spans are the recorded ones.
        let rebuilt: Vec<SpanRecord> = spans.into_iter().map(|(_, s)| s).collect();
        assert_eq!(
            phase_table_of(&rebuilt),
            pivot_trace::phase_table(&sample_trace())
        );
        let path = temp_file("round-trip", &json);
        let mut out = Vec::new();
        run_to(&args(path.clone(), true), &mut out).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("trace OK: 2 spans"));
        run_to(&args(path.clone(), false), &mut Vec::new()).unwrap();
        std::fs::remove_file(&path).ok();
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
        let report = temp_file("report", report);
        let table = load(&report).unwrap().diff_table().unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].phase, "gain");
        assert_eq!(table[0].rounds, 300);
        assert_eq!(table[0].sent_bytes, 1000);

        // Chrome-trace shape aggregates spans per phase across tracks.
        let chrome = pivot_trace::chrome_trace_json(&[sample_trace()], None);
        let chrome = temp_file("chrome", &chrome);
        let table = load(&chrome).unwrap().diff_table().unwrap();
        let stats = table.iter().find(|r| r.phase == "stats").unwrap();
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.sent_bytes, 64);

        // Bench entry fallback.
        let bench = r#"{"results":[{"algorithm":"Pivot-Basic","phases":[
            {"phase":"stats","rounds":7,"bytes_sent":11,"wait_s":0.2}
        ]}]}"#;
        let bench = temp_file("bench", bench);
        let table = load(&bench).unwrap().diff_table().unwrap();
        assert_eq!(table[0].rounds, 7);
        for path in [report, chrome, bench] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn report_without_trace_is_a_clean_error() {
        let path = temp_file("untraced", r#"{"command":"train"}"#);
        let err = run_to(&args(path.clone(), false), &mut Vec::new()).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("no trace data"), "{err}");
    }

    /// A pipe that fails with `.1` once `.0` bytes went through.
    struct ClosesAfter(usize, io::ErrorKind);

    impl Write for ClosesAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.0 == 0 {
                return Err(self.1.into());
            }
            let n = buf.len().min(self.0);
            self.0 -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reader_that_closes_early_ends_the_command_cleanly() {
        let json = pivot_trace::chrome_trace_json(&[sample_trace()], None);
        let path = temp_file("broken-pipe", &json);
        let broken = run_to(
            &args(path.clone(), false),
            &mut ClosesAfter(20, io::ErrorKind::BrokenPipe),
        );
        let full = run_to(
            &args(path.clone(), false),
            &mut ClosesAfter(20, io::ErrorKind::StorageFull),
        );
        std::fs::remove_file(&path).ok();
        assert_eq!(broken, Ok(()));
        assert!(full.unwrap_err().contains("cannot write"));
    }
}
