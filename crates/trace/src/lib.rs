//! Protocol phases, the span timeline, and the per-party counter registry.
//!
//! Every count a party keeps lives in one registry ([`Counters`], one row
//! per [`Counter`] in [`ROWS`]): the transport, the MPC engine, the
//! protocol context and the checkpoint sink record into it, and reports
//! render it by walking the table.
//!
//! Phase spans ([`phase_span`]) are on at every trace level. Each one
//! makes its phase the registry's current phase while it is open and adds
//! its wall time to its phase's cell of [`Counter::PhaseNs`] when it
//! closes. Rounds, bytes and receive wait are `by_phase` rows: a count
//! belongs to the innermost phase open when it is recorded, and
//! `"other"` takes what is recorded outside every phase. So a party's
//! phase table ([`phase_table`]) is read off its registry, its columns
//! sum to the party's totals by construction, and an untraced run has the
//! same per-phase counts as a traced one.
//!
//! Tracing records the timeline only: names, phases, nesting and
//! timestamps. When a collector is installed on a party thread
//! ([`install`]), spans form a per-thread stack under an implicit root
//! span (phase `"other"`). When tracing is off — the default — a fine
//! span ([`span`], [`span_fn`]) is one relaxed atomic load and an early
//! return, with no allocation or timestamp.
//!
//! Two sinks exist:
//!
//! * the **party sink** — a thread-local collector per party thread,
//!   installed by the runner for the lifetime of one protocol run
//!   ([`install`]/[`finish`]);
//! * the **runtime sink** — one process-global buffer for events that
//!   happen off the party threads (worker-pool queue depth, transport
//!   reconnects), drained once per run ([`take_runtime`]).
//!
//! Exports: the timeline as Chrome-trace/Perfetto JSON
//! ([`chrome_trace_json`]), and the phase tables as a Prometheus-style
//! text snapshot ([`prometheus_snapshot`]).

mod counters;

pub use counters::{Counter, Counters, Row, Snapshot, Unit, ROWS, WIDTH_CELLS};

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// How much the collector records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// No collector installed; nothing is traced (the default). Phase
    /// spans still set the registry's phase and time into it.
    #[default]
    Off,
    /// Phase spans on the timeline, the runtime track, and the phase
    /// tables in the report.
    Phases,
    /// Everything in `Phases` plus fine-grained spans (per level/node,
    /// per MPC open/multiply).
    Full,
}

impl TraceLevel {
    /// `true` when nothing is recorded.
    pub fn is_off(self) -> bool {
        self == TraceLevel::Off
    }

    /// The scenario-file spelling of the level.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Phases => "phases",
            TraceLevel::Full => "full",
        }
    }
}

/// The span taxonomy: every phase name a span can carry, in report order.
/// `"other"` is the implicit root bucket (setup-to-teardown traffic that
/// no named phase claimed).
pub const PHASES: &[&str] = &[
    "setup",
    "stats",
    "conversion",
    "gain",
    "split_reveal",
    "update",
    "leaf",
    "predict",
    "reconnect",
    "checkpoint",
    "rejoin_wait",
    "other",
];

/// The [`PHASES`] index of `phase`.
fn phase_cell(phase: &str) -> Option<usize> {
    PHASES.iter().position(|&p| p == phase)
}

/// One span of the timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Display name (phase name for phase spans, free-form otherwise).
    pub name: String,
    /// The span's phase. Fine-grained spans inherit the enclosing phase
    /// at open time.
    pub phase: &'static str,
    /// Nesting depth at open time (root = 0).
    pub depth: usize,
    /// Whether this span *introduced* its phase (a phase span or the
    /// root).
    pub is_phase_root: bool,
    /// Monotonic open/close timestamps, nanoseconds since the process
    /// trace epoch (shared across all party threads).
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

/// Everything one party thread recorded during a run.
#[derive(Clone, Debug)]
pub struct PartyTrace {
    pub party: usize,
    pub level: TraceLevel,
    /// Spans in close order (the root span is last).
    pub spans: Vec<SpanRecord>,
}

/// A span recorded off the party threads (background work).
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One sample of a runtime gauge series.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeGauge {
    pub name: &'static str,
    pub ts_ns: u64,
    pub value: f64,
}

/// Events from the process-global runtime sink (worker pool, transport
/// reconnects). Drained once per run with [`take_runtime`].
#[derive(Clone, Debug, Default)]
pub struct RuntimeTrace {
    pub spans: Vec<RuntimeSpan>,
    pub gauges: Vec<RuntimeGauge>,
}

impl RuntimeTrace {
    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.gauges.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Collector plumbing
// ---------------------------------------------------------------------------

/// Number of installed collectors, process-wide. The fast path of every
/// hook is one relaxed load of this counter; zero means "do nothing"
/// before any thread-local access, timestamp, or allocation happens.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// The process trace epoch: all timestamps from all threads are offsets
/// from this single `Instant`, so tracks line up in the exported timeline.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct Collector {
    party: usize,
    level: TraceLevel,
    /// Open spans, innermost last; their `end_ns` is set on close.
    stack: Vec<SpanRecord>,
    done: Vec<SpanRecord>,
}

impl Drop for Collector {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Collector {
    fn open(&mut self, name: String, phase: Option<&'static str>) {
        let inherited = self.stack.last().map(|s| s.phase).unwrap_or("other");
        self.stack.push(SpanRecord {
            name,
            phase: phase.unwrap_or(inherited),
            depth: self.stack.len(),
            is_phase_root: phase.is_some(),
            start_ns: now_ns(),
            end_ns: 0,
        });
    }

    fn close(&mut self) {
        let mut span = self.stack.pop().expect("span close without open");
        span.end_ns = now_ns();
        self.done.push(span);
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Install a collector on the current (party) thread and open the
/// implicit root span. A `TraceLevel::Off` install is a no-op; any
/// previously installed collector on this thread is discarded.
pub fn install(party: usize, level: TraceLevel) {
    if level.is_off() {
        COLLECTOR.with(|c| c.borrow_mut().take());
        return;
    }
    let mut col = Collector {
        party,
        level,
        stack: Vec::with_capacity(8),
        done: Vec::new(),
    };
    col.open(format!("party {party}"), Some("other"));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    COLLECTOR.with(|c| *c.borrow_mut() = Some(col));
}

/// Close every open span (root included) and take the trace off the
/// current thread. Returns `None` when no collector was installed.
pub fn finish() -> Option<PartyTrace> {
    let mut col = COLLECTOR.with(|c| c.borrow_mut().take())?;
    while !col.stack.is_empty() {
        col.close();
    }
    Some(PartyTrace {
        party: col.party,
        level: col.level,
        spans: std::mem::take(&mut col.done),
    })
}

/// Fast gate: is any collector installed anywhere in the process? One
/// relaxed atomic load — the entire cost of every hook when tracing is
/// off.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

#[inline]
fn with_collector(f: impl FnOnce(&mut Collector)) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            f(col);
        }
    });
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard that closes the span it opened. A fine span's guard
/// returned while tracing is off (or below the span's level) is inert.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    active: bool,
    /// A phase span's hold on its party's registry.
    clock: Option<PhaseClock>,
}

/// A phase span's registry side: the phase it made current, the one it
/// restores, and where its wall time goes (its cell of
/// [`Counter::PhaseNs`]).
struct PhaseClock {
    counters: Arc<Counters>,
    cell: usize,
    outer: usize,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(clock) = &self.clock {
            let ns = clock.start.elapsed().as_nanos() as u64;
            clock.counters.add_cell(Counter::PhaseNs, clock.cell, ns);
            clock.counters.enter_phase(clock.outer);
        }
        if self.active {
            with_collector(|col| col.close());
        }
    }
}

fn open_span(
    min_level: TraceLevel,
    phase: Option<&'static str>,
    name: impl FnOnce() -> String,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            active: false,
            clock: None,
        };
    }
    let mut active = false;
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            let wants = match min_level {
                TraceLevel::Off => true,
                TraceLevel::Phases => !col.level.is_off(),
                TraceLevel::Full => col.level == TraceLevel::Full,
            };
            if wants {
                col.open(name(), phase);
                active = true;
            }
        }
    });
    SpanGuard {
        active,
        clock: None,
    }
}

/// Open a phase span on the party whose registry is `counters`. `phase`
/// must be one of [`PHASES`]. At every trace level the phase is the
/// registry's current phase until the span closes — what the party
/// records meanwhile, outside any nested phase span, counts toward it —
/// and the span's wall time is added to the phase's [`Counter::PhaseNs`]
/// cell. At `Phases` and `Full` the span is also put on the timeline.
pub fn phase_span(counters: &Arc<Counters>, phase: &'static str) -> SpanGuard {
    let cell = phase_cell(phase).unwrap_or_else(|| panic!("unknown phase {phase:?}"));
    let mut guard = open_span(TraceLevel::Phases, Some(phase), || phase.to_string());
    guard.clock = Some(PhaseClock {
        counters: Arc::clone(counters),
        cell,
        outer: counters.enter_phase(cell),
        start: Instant::now(),
    });
    guard
}

/// Open a fine-grained span (recorded at `Full` only). Inherits the
/// enclosing phase.
pub fn span(name: &'static str) -> SpanGuard {
    open_span(TraceLevel::Full, None, || name.to_string())
}

/// [`span`] with a lazily built name — the closure only runs when the
/// span is actually recorded, so callers can interpolate without paying
/// an allocation when tracing is off.
pub fn span_fn(name: impl FnOnce() -> String) -> SpanGuard {
    open_span(TraceLevel::Full, None, name)
}

// ---------------------------------------------------------------------------
// Runtime sink (events off the party threads)
// ---------------------------------------------------------------------------

fn runtime_sink() -> &'static Mutex<RuntimeTrace> {
    static SINK: OnceLock<Mutex<RuntimeTrace>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(RuntimeTrace::default()))
}

/// Record a gauge sample in the process-global runtime sink (worker-pool
/// queue depth). Safe from any thread; gated on [`enabled`].
pub fn runtime_gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    runtime_sink()
        .lock()
        .expect("runtime sink poisoned")
        .gauges
        .push(RuntimeGauge { name, ts_ns, value });
}

/// RAII guard for a background span recorded in the runtime sink.
#[must_use = "the span closes when the guard drops"]
pub struct RuntimeSpanGuard {
    name: &'static str,
    start_ns: u64,
    active: bool,
}

impl Drop for RuntimeSpanGuard {
    fn drop(&mut self) {
        if self.active {
            let end_ns = now_ns();
            runtime_sink()
                .lock()
                .expect("runtime sink poisoned")
                .spans
                .push(RuntimeSpan {
                    name: self.name,
                    start_ns: self.start_ns,
                    end_ns,
                });
        }
    }
}

/// Open a background span (a transport reconnect etc.) on whatever
/// thread is running the work. Inert while tracing is off.
pub fn runtime_span(name: &'static str) -> RuntimeSpanGuard {
    let active = enabled();
    RuntimeSpanGuard {
        name,
        start_ns: if active { now_ns() } else { 0 },
        active,
    }
}

/// Drain the runtime sink. Call once per run, after the party threads
/// have finished.
pub fn take_runtime() -> RuntimeTrace {
    std::mem::take(&mut *runtime_sink().lock().expect("runtime sink poisoned"))
}

// ---------------------------------------------------------------------------
// Phase table
// ---------------------------------------------------------------------------

/// One row of a party's phase table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseRow {
    pub phase: String,
    /// Number of phase spans that introduced this phase.
    pub span_count: u64,
    /// Wall time inside the phase's spans. For `"other"` this is the
    /// run's time *outside* every named phase, so rows sum to the run's
    /// wall clock instead of double-counting.
    pub wall_ns: u64,
    /// Blocking-receive wall time recorded in the phase.
    pub wait_ns: u64,
    /// MPC rounds recorded in the phase.
    pub rounds: u64,
    /// Bytes sent from the phase.
    pub sent_bytes: u64,
    /// Bytes received in the phase.
    pub recv_bytes: u64,
}

/// A party's phase table, ordered as [`PHASES`] (phases with no activity
/// are omitted). Rounds, bytes and receive wait are the `by_phase` cells
/// of the party's registry snapshot `counters`, wall time its phase
/// clock, and span counts come from its timeline `trace`. The `"other"`
/// row's wall is the party's run `run_ns` (setup, training and
/// prediction) less the named phases' wall.
pub fn phase_table(counters: &Snapshot, run_ns: u64, trace: &PartyTrace) -> Vec<PhaseRow> {
    let at = |counter, cell: usize| counters.by_phase(counter)[cell];
    let mut rows: Vec<PhaseRow> = PHASES
        .iter()
        .enumerate()
        .map(|(cell, phase)| PhaseRow {
            phase: phase.to_string(),
            span_count: 0,
            wall_ns: at(Counter::PhaseNs, cell),
            wait_ns: at(Counter::RecvWaitNs, cell),
            rounds: at(Counter::Rounds, cell),
            sent_bytes: at(Counter::BytesSent, cell),
            recv_bytes: at(Counter::BytesReceived, cell),
        })
        .collect();
    for span in trace.spans.iter().filter(|s| s.is_phase_root) {
        if let Some(cell) = phase_cell(span.phase) {
            rows[cell].span_count += 1;
        }
    }
    let (other, named) = rows.split_last_mut().expect("PHASES ends with \"other\"");
    other.wall_ns = run_ns.saturating_sub(named.iter().map(|r| r.wall_ns).sum());
    rows.retain(|r| {
        r.span_count > 0 || r.rounds > 0 || r.sent_bytes > 0 || r.recv_bytes > 0 || r.wait_ns > 0
    });
    rows
}

/// Element-wise sum of phase tables (for cross-party aggregation): rows
/// are matched by phase name; wall/wait columns add across parties.
pub fn merge_phase_tables(tables: &[Vec<PhaseRow>]) -> Vec<PhaseRow> {
    let mut rows: Vec<PhaseRow> = Vec::new();
    for table in tables {
        for r in table {
            match rows.iter_mut().find(|m| m.phase == r.phase) {
                Some(m) => {
                    m.span_count += r.span_count;
                    m.wall_ns += r.wall_ns;
                    m.wait_ns += r.wait_ns;
                    m.rounds += r.rounds;
                    m.sent_bytes += r.sent_bytes;
                    m.recv_bytes += r.recv_bytes;
                }
                None => rows.push(r.clone()),
            }
        }
    }
    rows.sort_by_key(|r| {
        PHASES
            .iter()
            .position(|&p| p == r.phase)
            .unwrap_or(PHASES.len())
    });
    rows
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

/// Escape a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// The synthetic Chrome-trace thread id for the runtime (off-party) track.
pub const RUNTIME_TID: usize = 99;

/// Export party timelines (plus the optional runtime sink) as
/// Chrome-trace / Perfetto JSON: one track per party (`pid` 1, `tid` =
/// party id) of balanced `B`/`E` duration events, and a `tid`-99 track for
/// background work with `C` counter events for every runtime gauge
/// series. The counts live in the run report's phase tables. Open with
/// `ui.perfetto.dev` or `chrome://tracing`.
pub fn chrome_trace_json(parties: &[PartyTrace], runtime: Option<&RuntimeTrace>) -> String {
    // (tid, ts_ns, order, depth_key, json) — sorted so each track's B/E
    // stream nests correctly even at equal timestamps: at a tie, closes
    // (deepest first) precede opens (shallowest first), and counters
    // come last.
    let mut events: Vec<(usize, u64, u8, i64, String)> = Vec::new();
    let mut meta: Vec<String> = Vec::new();

    for t in parties {
        let tid = t.party;
        meta.push(format!(
            r#"{{"ph":"M","pid":1,"tid":{tid},"name":"thread_name","args":{{"name":"party {tid}"}}}}"#
        ));
        for s in &t.spans {
            let cat = if s.is_phase_root { "phase" } else { "span" };
            events.push((
                tid,
                s.start_ns,
                1,
                s.depth as i64,
                format!(
                    r#"{{"ph":"B","pid":1,"tid":{tid},"ts":{},"name":"{}","cat":"{cat}","args":{{"phase":"{}"}}}}"#,
                    us(s.start_ns),
                    esc(&s.name),
                    s.phase
                ),
            ));
            events.push((
                tid,
                s.end_ns,
                0,
                -(s.depth as i64),
                format!(
                    r#"{{"ph":"E","pid":1,"tid":{tid},"ts":{},"args":{{}}}}"#,
                    us(s.end_ns)
                ),
            ));
        }
    }
    if let Some(rt) = runtime {
        if !rt.is_empty() {
            meta.push(format!(
                r#"{{"ph":"M","pid":1,"tid":{RUNTIME_TID},"name":"thread_name","args":{{"name":"runtime"}}}}"#
            ));
        }
        for s in &rt.spans {
            events.push((
                RUNTIME_TID,
                s.start_ns,
                1,
                0,
                format!(
                    r#"{{"ph":"B","pid":1,"tid":{RUNTIME_TID},"ts":{},"name":"{}","cat":"runtime","args":{{}}}}"#,
                    us(s.start_ns),
                    esc(s.name)
                ),
            ));
            events.push((
                RUNTIME_TID,
                s.end_ns,
                0,
                0,
                format!(
                    r#"{{"ph":"E","pid":1,"tid":{RUNTIME_TID},"ts":{},"args":{{}}}}"#,
                    us(s.end_ns)
                ),
            ));
        }
        for g in &rt.gauges {
            events.push((
                RUNTIME_TID,
                g.ts_ns,
                2,
                0,
                format!(
                    r#"{{"ph":"C","pid":1,"tid":{RUNTIME_TID},"ts":{},"name":"{}","args":{{"value":{}}}}}"#,
                    us(g.ts_ns),
                    esc(g.name),
                    finite(g.value)
                ),
            ));
        }
    }
    events.sort_by(|a, b| {
        (a.0, a.1, a.2, a.3)
            .partial_cmp(&(b.0, b.1, b.2, b.3))
            .expect("total order")
    });
    let mut body: Vec<String> = meta;
    body.extend(events.into_iter().map(|(_, _, _, _, j)| j));
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        body.join(",\n")
    )
}

fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Escape a Prometheus label value.
fn prom_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Export a Prometheus-style text metrics snapshot: each party's phase
/// table (rendered from its registry by [`phase_table`]) plus the last
/// value of every runtime gauge series. This is the seam a future `pivot
/// serve` daemon would expose on `/metrics`.
pub fn prometheus_snapshot(
    tables: &[(usize, Vec<PhaseRow>)],
    runtime: Option<&RuntimeTrace>,
) -> String {
    let mut out = String::new();
    let metrics: [(&str, &str, fn(&PhaseRow) -> f64); 5] = [
        ("pivot_phase_wall_seconds", "gauge", |r| {
            r.wall_ns as f64 / 1e9
        }),
        ("pivot_phase_wait_seconds", "gauge", |r| {
            r.wait_ns as f64 / 1e9
        }),
        ("pivot_phase_rounds_total", "counter", |r| r.rounds as f64),
        ("pivot_phase_sent_bytes_total", "counter", |r| {
            r.sent_bytes as f64
        }),
        ("pivot_phase_recv_bytes_total", "counter", |r| {
            r.recv_bytes as f64
        }),
    ];
    for (name, kind, get) in metrics {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for (party, table) in tables {
            for row in table {
                out.push_str(&format!(
                    "{name}{{party=\"{party}\",phase=\"{}\"}} {}\n",
                    prom_label(&row.phase),
                    get(row)
                ));
            }
        }
    }
    if let Some(rt) = runtime {
        out.push_str("# TYPE pivot_gauge gauge\n");
        let mut last: Vec<(&str, f64)> = Vec::new();
        for g in &rt.gauges {
            match last.iter_mut().find(|(n, _)| *n == g.name) {
                Some(slot) => slot.1 = g.value,
                None => last.push((g.name, g.value)),
            }
        }
        for (name, value) in last {
            out.push_str(&format!(
                "pivot_gauge{{party=\"runtime\",series=\"{}\"}} {}\n",
                prom_label(name),
                finite(value)
            ));
        }
        out.push_str(&format!(
            "# TYPE pivot_runtime_background_spans_total counter\npivot_runtime_background_spans_total {}\n",
            rt.spans.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests that install collectors run on dedicated threads so the
    // thread-local state never leaks across `cargo test` workers.
    fn on_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
    }

    /// A fresh registry, with a collector installed on this thread.
    fn installed(party: usize, level: TraceLevel) -> Arc<Counters> {
        install(party, level);
        Counters::new()
    }

    /// The wall of the root span: the run the timeline covers.
    fn root_ns(trace: &PartyTrace) -> u64 {
        let root = trace.spans.last().unwrap();
        assert_eq!(root.depth, 0);
        root.end_ns - root.start_ns
    }

    #[test]
    fn off_level_records_nothing() {
        on_thread(|| {
            let c = installed(3, TraceLevel::Off);
            c.add(Counter::BytesSent, 100);
            let _g = phase_span(&c, "setup");
            assert!(finish().is_none());
        });
    }

    #[test]
    fn attribution_goes_to_innermost_span() {
        let (trace, c) = on_thread(|| {
            let c = installed(0, TraceLevel::Full);
            c.add(Counter::BytesSent, 5); // root
            {
                let _p = phase_span(&c, "stats");
                c.add(Counter::BytesSent, 10);
                {
                    let _f = span("inner");
                    c.add(Counter::BytesSent, 1);
                    c.add(Counter::BytesReceived, 2);
                    c.add(Counter::Rounds, 1);
                }
                c.add(Counter::RecvWaitNs, 7);
            }
            (finish().expect("collector installed"), c)
        });
        assert_eq!(trace.party, 0);
        // Close order: inner, stats, root.
        assert_eq!(trace.spans.len(), 3);
        let inner = &trace.spans[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.phase, "stats"); // inherited
        assert!(!inner.is_phase_root);
        let stats = &trace.spans[1];
        assert!(stats.is_phase_root);
        let root = &trace.spans[2];
        assert_eq!((root.depth, root.phase), (0, "other"));
        assert!(root.start_ns <= stats.start_ns && stats.end_ns <= root.end_ns);
        // A fine span's counts belong to its phase.
        let table = phase_table(&c.snapshot(), root_ns(&trace), &trace);
        let row = |phase: &str| table.iter().find(|r| r.phase == phase).unwrap();
        let stats = row("stats");
        assert_eq!(
            (
                stats.sent_bytes,
                stats.recv_bytes,
                stats.rounds,
                stats.wait_ns
            ),
            (11, 2, 1, 7)
        );
        assert_eq!(row("other").sent_bytes, 5);
    }

    #[test]
    fn phases_level_skips_fine_spans() {
        let trace = on_thread(|| {
            let c = installed(1, TraceLevel::Phases);
            {
                let _p = phase_span(&c, "gain");
                let _f = span("fine");
                let _d = span_fn(|| "dyn".into());
                c.add(Counter::Rounds, 2);
            }
            finish().unwrap()
        });
        assert_eq!(trace.spans.len(), 2); // gain + root
        assert_eq!(trace.spans[0].name, "gain");
    }

    #[test]
    fn phase_table_sums_match_totals_and_other_catches_root() {
        let (trace, c) = on_thread(|| {
            let c = installed(0, TraceLevel::Phases);
            c.add(Counter::BytesSent, 3); // outside every phase -> "other"
            {
                let _p = phase_span(&c, "stats");
                c.add(Counter::BytesSent, 10);
                c.add(Counter::BytesReceived, 20);
                c.add(Counter::Rounds, 2);
            }
            {
                let _p = phase_span(&c, "stats");
                c.add(Counter::BytesSent, 1);
            }
            {
                let _p = phase_span(&c, "gain");
                c.add(Counter::Rounds, 5);
                c.add(Counter::RecvWaitNs, 9);
            }
            (finish().unwrap(), c)
        });
        let run_ns = root_ns(&trace);
        let snap = c.snapshot();
        let table = phase_table(&snap, run_ns, &trace);
        let stats = table.iter().find(|r| r.phase == "stats").unwrap();
        assert_eq!(stats.span_count, 2);
        assert_eq!(
            (stats.sent_bytes, stats.recv_bytes, stats.rounds),
            (11, 20, 2)
        );
        let gain = table.iter().find(|r| r.phase == "gain").unwrap();
        assert_eq!((gain.rounds, gain.wait_ns), (5, 9));
        let other = table.iter().find(|r| r.phase == "other").unwrap();
        assert_eq!((other.sent_bytes, other.span_count), (3, 1));
        // Column sums equal everything recorded.
        let sent: u64 = table.iter().map(|r| r.sent_bytes).sum();
        let rounds: u64 = table.iter().map(|r| r.rounds).sum();
        assert_eq!((sent, rounds), (14, 7));
        assert_eq!((snap[Counter::BytesSent], snap[Counter::Rounds]), (14, 7));
        // Wall sums to the run (no double counting), and phases that did
        // not run are left out.
        let wall: u64 = table.iter().map(|r| r.wall_ns).sum();
        assert_eq!(wall, run_ns);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn chrome_export_is_balanced_and_monotonic() {
        let trace = on_thread(|| {
            let c = installed(2, TraceLevel::Full);
            {
                let _p = phase_span(&c, "conversion");
                let _f = span("open");
                c.add(Counter::BytesSent, 8);
            }
            finish().unwrap()
        });
        let runtime = RuntimeTrace {
            spans: Vec::new(),
            gauges: vec![RuntimeGauge {
                name: "worker_queue_depth",
                ts_ns: trace.spans[0].start_ns,
                value: 0.5,
            }],
        };
        let json = chrome_trace_json(&[trace], Some(&runtime));
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends);
        assert_eq!(begins, 3); // root + conversion + open
                               // The timeline carries no counts: they are in the report.
        assert_eq!(json.matches("\"args\":{}").count(), ends);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 1);
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("party 2"));
        // Timestamps within a track never decrease in file order.
        let mut last = std::collections::HashMap::new();
        for line in json.lines().filter(|l| l.contains("\"ts\":")) {
            let field = |key: &str| {
                let rest = line.split(&format!("\"{key}\":")).nth(1).unwrap();
                rest.split([',', '}'])
                    .next()
                    .unwrap()
                    .parse::<f64>()
                    .unwrap()
            };
            let (tid, ts) = (field("tid") as u64, field("ts"));
            let prev = last.insert(tid, ts).unwrap_or(ts);
            assert!(ts >= prev, "ts went backwards: {line}");
        }
    }

    #[test]
    fn runtime_sink_collects_and_drains() {
        on_thread(|| {
            let _c = installed(0, TraceLevel::Phases);
            {
                let _s = runtime_span("reconnect");
                runtime_gauge("queue_depth", 4.0);
            }
            let rt = take_runtime();
            assert!(rt.spans.iter().any(|s| s.name == "reconnect"));
            assert!(rt
                .gauges
                .iter()
                .any(|g| g.name == "queue_depth" && g.value == 4.0));
            let _ = finish();
            // Disabled again: nothing accumulates.
            runtime_gauge("queue_depth", 9.0);
            assert!(!take_runtime().gauges.iter().any(|g| g.value == 9.0));
        });
    }

    #[test]
    fn prometheus_snapshot_lists_phases_and_gauges() {
        let (trace, c) = on_thread(|| {
            let c = installed(1, TraceLevel::Phases);
            {
                let _p = phase_span(&c, "update");
                c.add(Counter::BytesSent, 100);
                c.add(Counter::Rounds, 3);
            }
            (finish().unwrap(), c)
        });
        let table = phase_table(&c.snapshot(), root_ns(&trace), &trace);
        let gauge = |value| RuntimeGauge {
            name: "worker_queue_depth",
            ts_ns: 0,
            value,
        };
        let runtime = RuntimeTrace {
            spans: Vec::new(),
            gauges: vec![gauge(0.25), gauge(0.75)],
        };
        let text = prometheus_snapshot(&[(1, table)], Some(&runtime));
        assert!(text.contains("pivot_phase_sent_bytes_total{party=\"1\",phase=\"update\"} 100"));
        assert!(text.contains("pivot_phase_rounds_total{party=\"1\",phase=\"update\"} 3"));
        // Gauges report the last value.
        assert!(text.contains("pivot_gauge{party=\"runtime\",series=\"worker_queue_depth\"} 0.75"));
    }

    #[test]
    fn merge_phase_tables_adds_rows_by_phase() {
        let a = vec![PhaseRow {
            phase: "stats".into(),
            span_count: 1,
            sent_bytes: 10,
            rounds: 2,
            ..PhaseRow::default()
        }];
        let b = vec![
            PhaseRow {
                phase: "stats".into(),
                span_count: 1,
                sent_bytes: 5,
                ..PhaseRow::default()
            },
            PhaseRow {
                phase: "gain".into(),
                rounds: 7,
                ..PhaseRow::default()
            },
        ];
        let merged = merge_phase_tables(&[a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].phase, "stats");
        assert_eq!((merged[0].sent_bytes, merged[0].span_count), (15, 2));
        assert_eq!(merged[1].rounds, 7);
    }

    /// The cell of `phase` in a snapshot of the phase clock.
    fn phase_ns(c: &Counters, phase: &str) -> u64 {
        c.snapshot().by_phase(Counter::PhaseNs)[phase_cell(phase).unwrap()]
    }

    #[test]
    fn phase_clock_fills_cells_without_a_collector() {
        on_thread(|| {
            let c = Counters::new();
            let pause = std::time::Duration::from_millis(3);
            {
                let _gain = phase_span(&c, "gain");
                std::thread::sleep(pause);
                {
                    let _reconnect = phase_span(&c, "reconnect");
                    std::thread::sleep(pause);
                }
                let _fine = span("fine");
            }
            // A phase's cell is the inclusive wall time of the spans that
            // open it: the nested reconnect counts toward the gain too.
            assert!(phase_ns(&c, "reconnect") >= pause.as_nanos() as u64);
            assert!(phase_ns(&c, "gain") >= phase_ns(&c, "reconnect") + pause.as_nanos() as u64);
            for phase in ["setup", "stats", "other"] {
                assert_eq!(phase_ns(&c, phase), 0, "{phase}");
            }
            assert!(finish().is_none());
        });
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("plain"), "plain");
    }
}
