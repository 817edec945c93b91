//! Span-based protocol tracing with round/byte attribution, and the
//! per-party counter registry it attributes from.
//!
//! Every count a party keeps lives in one registry ([`Counters`], one row
//! per [`Counter`] in [`ROWS`]): the transport, the MPC engine, the
//! protocol context and the checkpoint sink record into it, and reports
//! render it by walking the table.
//!
//! Tracing reads that registry and keeps no tally of its own. When a
//! collector is installed on a party thread ([`install`], handed the
//! party's registry), spans form a per-thread stack; each span snapshots
//! the attributed rows (bytes sent and received, MPC rounds, receive
//! wait) when it opens and closes, and keeps the difference less what
//! its child spans took. So every count is attributed to the *innermost*
//! open span, each span holds its own exclusive sub-totals, and an
//! implicit root span (phase `"other"`) takes everything outside a named
//! phase: the per-phase column sums equal the registry's totals over the
//! traced run by construction. When tracing is off — the default — a
//! span is one relaxed atomic load and an early return, with no registry
//! read, allocation or timestamp.
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
//! Exports: Chrome-trace/Perfetto JSON ([`chrome_trace_json`]), a
//! Prometheus-style text snapshot ([`prometheus_snapshot`]), and the
//! per-phase aggregate table ([`phase_table`]) the reports embed.

mod counters;

pub use counters::{Counter, Counters, Row, Snapshot, Unit, ROWS, WIDTH_CELLS};

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// How much the collector records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// No collector installed; every hook is a no-op (the default).
    #[default]
    Off,
    /// Phase spans, attribution, and gauges.
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

/// One closed span with its exclusive (innermost-attribution) counters.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Display name (phase name for phase spans, free-form otherwise).
    pub name: String,
    /// The phase bucket this span's counters belong to. Fine-grained
    /// spans inherit the enclosing phase at open time.
    pub phase: &'static str,
    /// Nesting depth at open time (root = 0).
    pub depth: usize,
    /// Whether this span *introduced* its phase (its wall time counts
    /// toward the phase; inherited spans only re-bucket counters).
    pub is_phase_root: bool,
    /// Monotonic open/close timestamps, nanoseconds since the process
    /// trace epoch (shared across all party threads).
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Bytes sent while this span was innermost.
    pub sent_bytes: u64,
    /// Bytes received while this span was innermost.
    pub recv_bytes: u64,
    /// Wall time spent blocked in `recv` while this span was innermost.
    pub wait_ns: u64,
    /// MPC communication rounds opened while this span was innermost.
    pub rounds: u64,
}

/// One gauge sample: `(series, timestamp, value)`.
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeSample {
    pub name: &'static str,
    pub ts_ns: u64,
    pub value: f64,
}

/// Everything one party thread recorded during a run.
#[derive(Clone, Debug)]
pub struct PartyTrace {
    pub party: usize,
    pub level: TraceLevel,
    /// Spans in close order (the root span is last).
    pub spans: Vec<SpanRecord>,
    pub gauges: Vec<GaugeSample>,
}

/// A span recorded off the party threads (background work).
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Events from the process-global runtime sink (worker pool, transport
/// reconnects). Drained once per run with [`take_runtime`].
#[derive(Clone, Debug, Default)]
pub struct RuntimeTrace {
    pub spans: Vec<RuntimeSpan>,
    pub gauges: Vec<GaugeSample>,
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

/// The registry rows spans attribute, in [`SpanRecord`] column order:
/// bytes sent, bytes received, receive wait, rounds.
const ATTRIBUTED: [Counter; 4] = [
    Counter::BytesSent,
    Counter::BytesReceived,
    Counter::RecvWaitNs,
    Counter::Rounds,
];

fn read_attributed(counters: &Counters) -> [u64; 4] {
    ATTRIBUTED.map(|c| counters.get(c))
}

struct OpenSpan {
    name: String,
    phase: &'static str,
    depth: usize,
    is_phase_root: bool,
    start_ns: u64,
    /// The attributed rows when the span opened.
    opened: [u64; 4],
    /// What closed child spans took, inclusive of their own children.
    children: [u64; 4],
}

struct Collector {
    party: usize,
    level: TraceLevel,
    counters: Arc<Counters>,
    stack: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
    gauges: Vec<GaugeSample>,
}

impl Drop for Collector {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Collector {
    fn open(&mut self, name: String, phase: Option<&'static str>) {
        let inherited = self.stack.last().map(|s| s.phase).unwrap_or("other");
        self.stack.push(OpenSpan {
            name,
            phase: phase.unwrap_or(inherited),
            depth: self.stack.len(),
            is_phase_root: phase.is_some(),
            start_ns: now_ns(),
            opened: read_attributed(&self.counters),
            children: [0; 4],
        });
    }

    fn close(&mut self) {
        let s = self.stack.pop().expect("span close without open");
        let now = read_attributed(&self.counters);
        let inclusive: [u64; 4] = std::array::from_fn(|i| now[i] - s.opened[i]);
        if let Some(parent) = self.stack.last_mut() {
            for (taken, n) in parent.children.iter_mut().zip(inclusive) {
                *taken += n;
            }
        }
        let [sent_bytes, recv_bytes, wait_ns, rounds] =
            std::array::from_fn(|i| inclusive[i] - s.children[i]);
        self.done.push(SpanRecord {
            name: s.name,
            phase: s.phase,
            depth: s.depth,
            is_phase_root: s.is_phase_root,
            start_ns: s.start_ns,
            end_ns: now_ns(),
            sent_bytes,
            recv_bytes,
            wait_ns,
            rounds,
        });
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    /// Phase names currently open on this thread, maintained by
    /// [`phase_span`] even when no collector is installed — error paths
    /// (transport failures) read [`current_phase`] to label where a run
    /// died without requiring tracing to be on.
    static PHASE_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The innermost phase open on this thread (`"other"` outside any phase
/// span). Always tracked, independent of the trace level.
pub fn current_phase() -> &'static str {
    PHASE_STACK.with(|s| s.borrow().last().copied().unwrap_or("other"))
}

/// Install a collector on the current (party) thread, attributing from
/// the party's registry `counters`, and open the implicit root span. A
/// `TraceLevel::Off` install is a no-op; any previously installed
/// collector on this thread is discarded.
pub fn install(party: usize, level: TraceLevel, counters: &Arc<Counters>) {
    if level.is_off() {
        COLLECTOR.with(|c| c.borrow_mut().take());
        return;
    }
    let mut col = Collector {
        party,
        level,
        counters: Arc::clone(counters),
        stack: Vec::with_capacity(8),
        done: Vec::new(),
        gauges: Vec::new(),
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
        gauges: std::mem::take(&mut col.gauges),
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

/// RAII guard that closes the span it opened. A guard returned while
/// tracing is off (or below the span's level) is inert.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    active: bool,
    /// Whether this guard pushed onto the always-on phase stack.
    phase_tracked: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            with_collector(|col| col.close());
        }
        if self.phase_tracked {
            PHASE_STACK.with(|s| {
                s.borrow_mut().pop();
            });
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
            phase_tracked: false,
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
        phase_tracked: false,
    }
}

/// Open a phase span (recorded at `Phases` and `Full`). `phase` must be
/// one of [`PHASES`]; counters accrued while this span is innermost are
/// bucketed under it in the phase table, and its wall time counts toward
/// the phase. The phase name is also pushed onto the always-on
/// [`current_phase`] stack regardless of trace level.
pub fn phase_span(phase: &'static str) -> SpanGuard {
    debug_assert!(PHASES.contains(&phase), "unknown phase {phase:?}");
    let mut guard = open_span(TraceLevel::Phases, Some(phase), || phase.to_string());
    PHASE_STACK.with(|s| s.borrow_mut().push(phase));
    guard.phase_tracked = true;
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
// Gauges
// ---------------------------------------------------------------------------

/// Record a gauge sample on the current party thread's track. No-op
/// without an installed collector.
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_collector(|col| {
        let ts_ns = now_ns();
        col.gauges.push(GaugeSample { name, ts_ns, value });
    });
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
        .push(GaugeSample { name, ts_ns, value });
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

/// One row of the per-phase aggregate table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseRow {
    pub phase: String,
    /// Number of phase spans that introduced this phase.
    pub span_count: u64,
    /// Wall time inside the phase's spans. For `"other"` this is the
    /// root span's time *outside* every named phase, so rows sum to the
    /// run's wall clock instead of double-counting.
    pub wall_ns: u64,
    /// Blocking-receive wall time attributed to the phase.
    pub wait_ns: u64,
    /// MPC rounds attributed to the phase.
    pub rounds: u64,
    /// Bytes sent from the phase.
    pub sent_bytes: u64,
    /// Bytes received in the phase.
    pub recv_bytes: u64,
}

/// Aggregate a party trace into the per-phase table, ordered as
/// [`PHASES`] (phases with no activity are omitted). The counter columns
/// sum exclusive span counters, so their totals equal the registry's
/// totals over the traced run exactly.
pub fn phase_table(trace: &PartyTrace) -> Vec<PhaseRow> {
    phase_table_of(&trace.spans)
}

/// [`phase_table`] over raw span records (used when re-aggregating a
/// parsed export).
pub fn phase_table_of(spans: &[SpanRecord]) -> Vec<PhaseRow> {
    let mut rows: Vec<PhaseRow> = PHASES
        .iter()
        .map(|&p| PhaseRow {
            phase: p.to_string(),
            ..PhaseRow::default()
        })
        .collect();
    let idx = |phase: &str| {
        PHASES
            .iter()
            .position(|&p| p == phase)
            .unwrap_or(PHASES.len() - 1)
    };
    let mut named_phase_wall = 0u64;
    for s in spans {
        let row = &mut rows[idx(s.phase)];
        row.wait_ns += s.wait_ns;
        row.rounds += s.rounds;
        row.sent_bytes += s.sent_bytes;
        row.recv_bytes += s.recv_bytes;
        if s.is_phase_root && s.depth > 0 {
            row.span_count += 1;
            row.wall_ns += s.end_ns - s.start_ns;
            named_phase_wall += s.end_ns - s.start_ns;
        }
    }
    // The root span (depth 0) is the "other" bucket: its wall is the run
    // minus every named phase, so the column sums to the run wall clock.
    if let Some(root) = spans.iter().find(|s| s.depth == 0) {
        let other = &mut rows[idx("other")];
        other.span_count += 1;
        other.wall_ns += (root.end_ns - root.start_ns).saturating_sub(named_phase_wall);
    }
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

/// Export party traces (plus the optional runtime sink) as Chrome-trace /
/// Perfetto JSON: one track per party (`pid` 1, `tid` = party id),
/// balanced `B`/`E` duration events carrying the exclusive counters on
/// `E`, `C` counter events for every gauge series, and a `tid`-99 track
/// for background work. Open with `ui.perfetto.dev` or
/// `chrome://tracing`.
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
                    r#"{{"ph":"E","pid":1,"tid":{tid},"ts":{},"args":{{"sent_bytes":{},"recv_bytes":{},"wait_ns":{},"rounds":{}}}}}"#,
                    us(s.end_ns),
                    s.sent_bytes,
                    s.recv_bytes,
                    s.wait_ns,
                    s.rounds
                ),
            ));
        }
        for g in &t.gauges {
            events.push((
                tid,
                g.ts_ns,
                2,
                0,
                format!(
                    r#"{{"ph":"C","pid":1,"tid":{tid},"ts":{},"name":"{} (party {tid})","args":{{"value":{}}}}}"#,
                    us(g.ts_ns),
                    esc(g.name),
                    finite(g.value)
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

/// Export a Prometheus-style text metrics snapshot: per-party per-phase
/// counters plus the last value of every gauge series. This is the seam
/// a future `pivot serve` daemon would expose on `/metrics`.
pub fn prometheus_snapshot(parties: &[PartyTrace], runtime: Option<&RuntimeTrace>) -> String {
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
    let tables: Vec<(usize, Vec<PhaseRow>)> =
        parties.iter().map(|t| (t.party, phase_table(t))).collect();
    for (name, kind, get) in metrics {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for (party, table) in &tables {
            for row in table {
                out.push_str(&format!(
                    "{name}{{party=\"{party}\",phase=\"{}\"}} {}\n",
                    prom_label(&row.phase),
                    get(row)
                ));
            }
        }
    }
    out.push_str("# TYPE pivot_gauge gauge\n");
    for t in parties {
        let mut last: Vec<(&str, f64)> = Vec::new();
        for g in &t.gauges {
            match last.iter_mut().find(|(n, _)| *n == g.name) {
                Some(slot) => slot.1 = g.value,
                None => last.push((g.name, g.value)),
            }
        }
        for (name, value) in last {
            out.push_str(&format!(
                "pivot_gauge{{party=\"{}\",series=\"{}\"}} {}\n",
                t.party,
                prom_label(name),
                finite(value)
            ));
        }
    }
    if let Some(rt) = runtime {
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

    /// A fresh registry with a collector attributing from it installed
    /// on this thread.
    fn installed(party: usize, level: TraceLevel) -> Arc<Counters> {
        let c = Counters::new();
        install(party, level, &c);
        c
    }

    #[test]
    fn off_level_records_nothing() {
        on_thread(|| {
            let c = installed(3, TraceLevel::Off);
            c.add(Counter::BytesSent, 100);
            let _g = phase_span("setup");
            assert!(finish().is_none());
        });
    }

    #[test]
    fn attribution_goes_to_innermost_span() {
        let trace = on_thread(|| {
            let c = installed(0, TraceLevel::Full);
            c.add(Counter::BytesSent, 5); // root
            {
                let _p = phase_span("stats");
                c.add(Counter::BytesSent, 10);
                {
                    let _f = span("inner");
                    c.add(Counter::BytesSent, 1);
                    c.add(Counter::BytesReceived, 2);
                    c.add(Counter::Rounds, 1);
                }
                c.add(Counter::RecvWaitNs, 7);
            }
            finish().expect("collector installed")
        });
        assert_eq!(trace.party, 0);
        // Close order: inner, stats, root.
        assert_eq!(trace.spans.len(), 3);
        let inner = &trace.spans[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.phase, "stats"); // inherited
        assert!(!inner.is_phase_root);
        assert_eq!(
            (inner.sent_bytes, inner.recv_bytes, inner.rounds),
            (1, 2, 1)
        );
        let stats = &trace.spans[1];
        assert_eq!((stats.sent_bytes, stats.wait_ns), (10, 7));
        assert!(stats.is_phase_root);
        let root = &trace.spans[2];
        assert_eq!(root.depth, 0);
        assert_eq!(root.sent_bytes, 5);
        assert!(root.start_ns <= stats.start_ns && stats.end_ns <= root.end_ns);
    }

    #[test]
    fn phases_level_skips_fine_spans() {
        let trace = on_thread(|| {
            let c = installed(1, TraceLevel::Phases);
            {
                let _p = phase_span("gain");
                let _f = span("fine");
                let _d = span_fn(|| "dyn".into());
                c.add(Counter::Rounds, 2);
            }
            finish().unwrap()
        });
        assert_eq!(trace.spans.len(), 2); // gain + root
        assert_eq!(trace.spans[0].name, "gain");
        assert_eq!(trace.spans[0].rounds, 2);
    }

    #[test]
    fn phase_table_sums_match_totals_and_other_catches_root() {
        let trace = on_thread(|| {
            let c = installed(0, TraceLevel::Phases);
            c.add(Counter::BytesSent, 3); // outside every phase -> "other"
            {
                let _p = phase_span("stats");
                c.add(Counter::BytesSent, 10);
                c.add(Counter::BytesReceived, 20);
                c.add(Counter::Rounds, 2);
            }
            {
                let _p = phase_span("stats");
                c.add(Counter::BytesSent, 1);
            }
            {
                let _p = phase_span("gain");
                c.add(Counter::Rounds, 5);
                c.add(Counter::RecvWaitNs, 9);
            }
            finish().unwrap()
        });
        let table = phase_table(&trace);
        let stats = table.iter().find(|r| r.phase == "stats").unwrap();
        assert_eq!(stats.span_count, 2);
        assert_eq!(
            (stats.sent_bytes, stats.recv_bytes, stats.rounds),
            (11, 20, 2)
        );
        let gain = table.iter().find(|r| r.phase == "gain").unwrap();
        assert_eq!((gain.rounds, gain.wait_ns), (5, 9));
        let other = table.iter().find(|r| r.phase == "other").unwrap();
        assert_eq!(other.sent_bytes, 3);
        // Column sums equal everything recorded.
        let sent: u64 = table.iter().map(|r| r.sent_bytes).sum();
        let rounds: u64 = table.iter().map(|r| r.rounds).sum();
        assert_eq!((sent, rounds), (14, 7));
        // Wall sums to the root's duration (no double counting).
        let root = trace.spans.last().unwrap();
        let wall: u64 = table.iter().map(|r| r.wall_ns).sum();
        assert_eq!(wall, root.end_ns - root.start_ns);
    }

    #[test]
    fn chrome_export_is_balanced_and_monotonic() {
        let trace = on_thread(|| {
            let c = installed(2, TraceLevel::Full);
            {
                let _p = phase_span("conversion");
                let _f = span("open");
                c.add(Counter::BytesSent, 8);
            }
            gauge("sample_gauge", 0.5);
            finish().unwrap()
        });
        let json = chrome_trace_json(&[trace], None);
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends);
        assert_eq!(begins, 3); // root + conversion + open
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 1);
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("party 2"));
        // Timestamps within the track never decrease in file order.
        let mut last = f64::MIN;
        for line in json.lines().filter(|l| l.contains("\"ts\":")) {
            let ts: f64 = line
                .split("\"ts\":")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(ts >= last, "ts went backwards: {line}");
            last = ts;
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
        let trace = on_thread(|| {
            let c = installed(1, TraceLevel::Phases);
            {
                let _p = phase_span("update");
                c.add(Counter::BytesSent, 100);
                c.add(Counter::Rounds, 3);
            }
            gauge("sample_gauge", 0.25);
            gauge("sample_gauge", 0.75);
            finish().unwrap()
        });
        let text = prometheus_snapshot(&[trace], None);
        assert!(text.contains("pivot_phase_sent_bytes_total{party=\"1\",phase=\"update\"} 100"));
        assert!(text.contains("pivot_phase_rounds_total{party=\"1\",phase=\"update\"} 3"));
        // Gauges report the last value.
        assert!(text.contains("pivot_gauge{party=\"1\",series=\"sample_gauge\"} 0.75"));
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

    #[test]
    fn current_phase_tracks_without_a_collector() {
        on_thread(|| {
            // No install: tracing is off, the phase stack still works.
            assert_eq!(current_phase(), "other");
            {
                let _p = phase_span("gain");
                assert_eq!(current_phase(), "gain");
                {
                    let _q = phase_span("reconnect");
                    assert_eq!(current_phase(), "reconnect");
                }
                assert_eq!(current_phase(), "gain");
            }
            assert_eq!(current_phase(), "other");
        });
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("plain"), "plain");
    }
}
