//! `pivot trace`: print or compare a traced run's phase tables, or check
//! its Chrome-trace export.
//!
//! The tables are read from a run report (train, party or bench JSON) as
//! the `pivot_trace::PhaseRow`s the run rendered from its parties'
//! registries. The export (`*-trace.json`) is the run's timeline and
//! carries no counts; `--check` validates it: every track's events must
//! balance, timestamps must be monotonic per track, and every party-track
//! span must name a known phase.

use crate::json::Json;
use crate::report::phase_rows_from_json;
use pivot_trace::{merge_phase_tables, PhaseRow, PHASES};
use std::collections::{BTreeSet, HashMap};
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

const NO_TRACE: &str = "no trace data in this file — run the scenario with \
     params.trace = \"phases\" or \"full\"";

pub fn run(args: &TraceArgs) -> Result<(), String> {
    run_to(args, &mut io::stdout().lock())
}

fn run_to(args: &TraceArgs, out: &mut impl Write) -> Result<(), String> {
    let doc = read(&args.input)?;
    let written = if args.check {
        let (spans, tracks) = check_export(&doc)?;
        writeln!(
            out,
            "trace OK: {spans} spans across {tracks} track(s), balanced B/E, monotonic ts, \
             known phases"
        )
    } else {
        let a = tables(&args.input, &doc)?;
        if let Some(b_path) = &args.diff {
            let b = tables(b_path, &read(b_path)?)?;
            print_diff(
                out,
                (&args.input, &a.diff_table()?),
                (b_path, &b.diff_table()?),
            )
        } else if a.tables.is_empty() {
            return Err(NO_TRACE.into());
        } else {
            print_tables(out, &a)
        }
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

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text)
}

/// One report's phase tables.
struct Loaded {
    /// One heading per table in `tables`.
    headings: Vec<String>,
    tables: Vec<Vec<PhaseRow>>,
    /// Whether the tables are the parties of one run; a bench report's
    /// are party 0 of separate runs.
    one_run: bool,
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

/// The phase tables of the report at `path`.
fn tables(path: &Path, doc: &Json) -> Result<Loaded, String> {
    if doc.get("traceEvents").is_some() {
        return Err(format!(
            "{} is a Chrome-trace export: the run's timeline, with no counts. \
             Check it with --check; the phase tables are in the run report \
             written beside it (`pivot trace <report>.json`)",
            path.display()
        ));
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
    })
}

fn event_str<'a>(ev: &'a Json, key: &str) -> Option<&'a str> {
    ev.get(key).and_then(Json::as_str)
}

/// Validate a Chrome-trace export: returns its span count and its number
/// of tracks.
fn check_export(doc: &Json) -> Result<(usize, usize), String> {
    let events = doc
        .get("traceEvents")
        .ok_or(
            "--check validates a Chrome-trace export (a file with traceEvents); \
             this looks like a run report",
        )?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    // Per-track open span count and last timestamp.
    let mut open: HashMap<u64, usize> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut tracks = BTreeSet::new();
    let mut spans = 0;
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
        tracks.insert(tid);
        let prev = last_ts.entry(tid).or_insert(ts);
        if ts < *prev {
            return Err(format!(
                "event {i}: ts {ts} goes backwards on track {tid} (last {prev})"
            ));
        }
        *prev = ts;
        let depth = open.entry(tid).or_default();
        match ph {
            "B" => {
                let name =
                    event_str(ev, "name").ok_or_else(|| format!("event {i}: B without name"))?;
                if event_str(ev, "cat") != Some("runtime") {
                    let phase = ev.path("args.phase").and_then(Json::as_str).unwrap_or("");
                    if !PHASES.contains(&phase) {
                        return Err(format!(
                            "event {i}: span {name:?} names unknown phase {phase:?}"
                        ));
                    }
                }
                *depth += 1;
            }
            "E" => {
                if *depth == 0 {
                    return Err(format!("event {i}: E without a matching B on track {tid}"));
                }
                *depth -= 1;
                spans += 1;
            }
            "C" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for (tid, depth) in &open {
        if *depth > 0 {
            return Err(format!(
                "track {tid}: {depth} span(s) opened but never closed"
            ));
        }
    }
    Ok((spans, tracks.len()))
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Every table of one report, then — for a run with several parties —
/// their merge.
fn print_tables(out: &mut impl Write, input: &Loaded) -> io::Result<()> {
    for (heading, rows) in input.headings.iter().zip(&input.tables) {
        writeln!(out, "{heading}")?;
        print_rows(out, rows)?;
    }
    if input.one_run && input.tables.len() > 1 {
        writeln!(out, "all parties (merged)")?;
        print_rows(out, &merge_phase_tables(&input.tables))?;
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

    fn span(name: &str, depth: usize, start_ns: u64, end_ns: u64) -> pivot_trace::SpanRecord {
        pivot_trace::SpanRecord {
            name: name.into(),
            phase: if depth == 0 { "other" } else { "stats" },
            depth,
            is_phase_root: true,
            start_ns,
            end_ns,
        }
    }

    fn sample_trace() -> pivot_trace::PartyTrace {
        pivot_trace::PartyTrace {
            party: 0,
            level: pivot_trace::TraceLevel::Full,
            spans: vec![span("stats", 1, 100, 500), span("party 0", 0, 0, 1000)],
        }
    }

    /// A train report's trace section: two parties' tables.
    const REPORT: &str = r#"{"trace":{"per_party":[
        {"party":0,"level":"phases","phases":[
            {"phase":"gain","spans":3,"wall_s":1.0,"wait_s":0.5,"rounds":300,
             "bytes_sent":1000,"bytes_received":900},
            {"phase":"leaf","spans":1,"wall_s":0.1,"wait_s":0.01,"rounds":28,
             "bytes_sent":50,"bytes_received":40}]},
        {"party":1,"level":"phases","phases":[
            {"phase":"gain","spans":3,"wall_s":1.0,"wait_s":0.4,"rounds":300,
             "bytes_sent":900,"bytes_received":1000}]}
    ]}}"#;

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
        let (spans, tracks) = check_export(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!((spans, tracks), (2, 1));
        let path = temp_file("round-trip", &json);
        let mut out = Vec::new();
        run_to(&args(path.clone(), true), &mut out).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("trace OK: 2 spans"));
        // The export is a timeline: its tables are in the report.
        let err = run_to(&args(path.clone(), false), &mut Vec::new()).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            err.contains("--check") && err.contains("run report"),
            "{err}"
        );
    }

    #[test]
    fn checker_rejects_unbalanced_and_unknown_phases() {
        let unbalanced = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1.0,"name":"x","cat":"phase","args":{"phase":"stats"}}
        ]}"#;
        let err = check_export(&Json::parse(unbalanced).unwrap()).unwrap_err();
        assert!(err.contains("never closed"), "{err}");

        let unknown = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1.0,"name":"x","cat":"phase","args":{"phase":"mystery"}},
            {"ph":"E","pid":1,"tid":0,"ts":2.0,"args":{}}
        ]}"#;
        let err = check_export(&Json::parse(unknown).unwrap()).unwrap_err();
        assert!(err.contains("unknown phase"), "{err}");

        let backwards = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":5.0,"name":"x","cat":"phase","args":{"phase":"stats"}},
            {"ph":"E","pid":1,"tid":0,"ts":4.0,"args":{}}
        ]}"#;
        let err = check_export(&Json::parse(backwards).unwrap()).unwrap_err();
        assert!(err.contains("backwards"), "{err}");

        let unopened = r#"{"traceEvents":[
            {"ph":"E","pid":1,"tid":0,"ts":4.0,"args":{}}
        ]}"#;
        let err = check_export(&Json::parse(unopened).unwrap()).unwrap_err();
        assert!(err.contains("without a matching B"), "{err}");
    }

    #[test]
    fn phase_table_extraction_covers_both_input_kinds() {
        // Run report shape: trace.per_party[*].phases rows, merged.
        let report = temp_file("report", REPORT);
        let doc = read(&report).unwrap();
        let table = tables(&report, &doc).unwrap().diff_table().unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].phase, "gain");
        assert_eq!(table[0].rounds, 600);
        assert_eq!(table[0].sent_bytes, 1900);

        // Bench entry fallback.
        let bench = r#"{"results":[{"algorithm":"Pivot-Basic","phases":[
            {"phase":"stats","rounds":7,"bytes_sent":11,"wait_s":0.2}
        ]}]}"#;
        let bench = temp_file("bench", bench);
        let doc = read(&bench).unwrap();
        let table = tables(&bench, &doc).unwrap().diff_table().unwrap();
        assert_eq!(table[0].rounds, 7);

        // A report diffs clean against itself.
        let mut out = Vec::new();
        let diff = TraceArgs {
            diff: Some(report.clone()),
            ..args(report.clone(), false)
        };
        run_to(&diff, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("round ratio A/B = 1.00×"), "{out}");
        for path in [report, bench] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn report_without_trace_is_a_clean_error() {
        let path = temp_file("untraced", r#"{"command":"train"}"#);
        let err = run_to(&args(path.clone(), false), &mut Vec::new()).unwrap_err();
        let check = run_to(&args(path.clone(), true), &mut Vec::new()).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("no trace data"), "{err}");
        assert!(check.contains("looks like a run report"), "{check}");
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
        let path = temp_file("broken-pipe", REPORT);
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
