//! # bb-obs — structured observability for the verification pipeline
//!
//! A lightweight, std-only observability layer shared by every crate in the
//! workspace. It provides three things:
//!
//! 1. **Hierarchical phase spans** — [`span`] opens a named region
//!    (`explore`, `bisim`, `bisim.round`, `refine`, `ltl`, …) that
//!    records wall-clock and arbitrary `u64`/string fields. Parentage follows
//!    the per-thread open-span stack, so `bisim.round` spans nest under
//!    `bisim`, which nests under `lin`, and so on.
//! 2. **Hot-path instruments** — statically allocated [`hot::Counter`],
//!    [`hot::Gauge`], and [`hot::Histogram`] cells (relaxed atomics) that the
//!    inner loops bump unconditionally-cheaply: a single relaxed load when
//!    recording is off, one relaxed RMW when it is on.
//! 3. **Export** — [`finish`] snapshots the session into a [`Session`] that
//!    renders a single metrics JSON document ([`Session::metrics_json`]) or a
//!    per-event NDJSON trace stream ([`Session::trace_ndjson`]).
//!
//! ## Neutrality guarantee
//!
//! Nothing in this crate writes to stdout, and no instrumented code path may
//! branch on observability state in a way that changes verdicts, `.aut`
//! output, or stdout bytes. Heartbeats ([`heartbeat`]) and diagnostics
//! ([`diag`]) go to **stderr** only; metrics/trace go to files the caller
//! names. All timing lives in fields whose keys end in `_us` so tests can
//! mask them uniformly.
//!
//! ## Concurrency model
//!
//! Spans are opened and closed on orchestrating threads only (the pipeline
//! drivers); worker threads in the parallel engine never open spans — they
//! bump counters, which are atomic. The recorder itself is a global
//! `Mutex<Option<SessionState>>` touched only at span open/close and
//! diagnostics, which happen O(phases + rounds) times per run, never per
//! state.

pub mod events;
pub mod fault;
pub mod hot;
pub mod json;
pub mod prom;
pub mod ring;
pub mod sink;

pub use events::{clear_event_sink, set_event_sink, tag_job, EventSink, ObsEvent};
pub use sink::{clear_persist_sink, persist_sink, set_persist_sink, PersistSink};

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global switches
// ---------------------------------------------------------------------------

/// Recording on/off. Fast-path gate for every instrument in the workspace.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Heartbeat lines on stderr.
static PROGRESS: AtomicBool = AtomicBool::new(false);
/// Silence `diag` stderr lines (they are still recorded when enabled).
static QUIET: AtomicBool = AtomicBool::new(false);

/// Process-wide monotonic clock base. Set once, never reset, so rate
/// limiting and session-relative timestamps survive install/finish cycles.
static PROC_START: OnceLock<Instant> = OnceLock::new();

fn now_us() -> u64 {
    let start = PROC_START.get_or_init(Instant::now);
    start.elapsed().as_micros() as u64
}

/// Is a recording session installed? One relaxed load — safe to call in hot
/// loops.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Is the `--progress` heartbeat on?
#[inline]
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Suppress (or restore) `diag` output on stderr. Independent of recording:
/// `--quiet` works with or without `--metrics`.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// Turn hot-instrument recording on (or off) *without* installing a
/// session. The serve daemon uses this: its counters and histograms must
/// accumulate for the process lifetime so the `/metrics` exposition has
/// data, but a recording session would interleave concurrent jobs. With
/// recording on and no session installed, [`span`]/[`diag`] find `STATE`
/// empty and record nothing — only the lock-free instruments tick.
pub fn set_recording(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

/// A field value attached to a span or metadata entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    F64(f64),
    Str(String),
}

impl Value {
    /// Appends the JSON rendering of this value (public so the serve
    /// watch hub can serialize span fields without re-implementing it).
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                out.push_str(&v.to_string());
            }
            Value::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => json::write_str(out, s),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One recorded span (a phase, or a sub-phase like a refinement round).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: u64,
    pub end_us: Option<u64>,
    pub fields: Vec<(String, Value)>,
}

impl SpanRecord {
    /// Wall-clock of the span in microseconds (0 if it never closed).
    pub fn wall_us(&self) -> u64 {
        self.end_us.map_or(0, |e| e.saturating_sub(self.start_us))
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Ordered event log entry for the NDJSON trace stream.
#[derive(Debug, Clone)]
enum Event {
    Begin { span: usize, t_us: u64 },
    End { span: usize, t_us: u64 },
    Diag { msg: String, t_us: u64 },
}

#[derive(Debug, Default)]
struct SessionState {
    start_us: u64,
    spans: Vec<SpanRecord>,
    events: Vec<Event>,
}

static STATE: Mutex<Option<SessionState>> = Mutex::new(None);

thread_local! {
    /// Stack of open span ids on this thread; the top is the parent of the
    /// next span opened here.
    static SPAN_STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Configuration for [`install`].
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Emit a rate-limited heartbeat line on stderr (`--progress`).
    pub progress: bool,
    /// Silence `diag` stderr lines (`--quiet`).
    pub quiet: bool,
}

/// Install a fresh recording session, resetting all hot instruments.
///
/// Replaces any session already installed (its data is discarded).
pub fn install(cfg: ObsConfig) {
    let start = now_us();
    hot::reset_all();
    LAST_BEAT_US.store(0, Ordering::Relaxed);
    LAST_BEAT_STATES.store(0, Ordering::Relaxed);
    {
        let mut guard = STATE.lock().unwrap();
        *guard = Some(SessionState {
            start_us: start,
            spans: Vec::new(),
            events: Vec::new(),
        });
    }
    PROGRESS.store(cfg.progress, Ordering::Relaxed);
    QUIET.store(cfg.quiet, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording and return the captured session, if one was installed.
///
/// Spans still open are closed at the current instant (they keep their
/// fields) so a session finished mid-pipeline still exports cleanly.
pub fn finish() -> Option<Session> {
    ENABLED.store(false, Ordering::Relaxed);
    PROGRESS.store(false, Ordering::Relaxed);
    let state = STATE.lock().unwrap().take()?;
    let mut state = state;
    let t = now_us();
    for span in &mut state.spans {
        if span.end_us.is_none() {
            span.end_us = Some(t);
        }
    }
    SPAN_STACK.with(|s| s.borrow_mut().clear());
    Some(Session {
        start_us: state.start_us,
        end_us: t,
        spans: state.spans,
        events: state.events,
        counters: hot::counter_snapshot(),
        histograms: hot::histogram_snapshot(),
    })
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard for a phase span. Created by [`span`]; closes on drop.
///
/// Not `Send`: a span must open and close on the same (orchestrating)
/// thread, because parentage follows the per-thread span stack.
#[must_use = "a span records its wall-clock when dropped"]
pub struct Span {
    id: Option<usize>,
    live: Option<LiveSpan>,
    _not_send: PhantomData<*const ()>,
}

/// Live-forwarding side of a span: when an [`events::EventSink`] is
/// installed and the opening thread carries a job tag, the span's begin,
/// end (with wall-clock and fields) are pushed to the sink as they happen —
/// independent of whether a recording session is installed.
struct LiveSpan {
    sink: std::sync::Arc<dyn events::EventSink>,
    job: u64,
    name: String,
    start_us: u64,
    fields: RefCell<Vec<(String, Value)>>,
}

fn live_span(name: &str) -> Option<LiveSpan> {
    let (sink, job) = events::active_for_current_job()?;
    sink.obs_event(job, &events::ObsEvent::SpanBegin { name });
    Some(LiveSpan {
        sink,
        job,
        name: name.to_string(),
        start_us: now_us(),
        fields: RefCell::new(Vec::new()),
    })
}

/// Open a span named `name` under the innermost span open on this thread.
///
/// When no session is installed this is a no-op costing one relaxed load
/// (plus one more for the live event sink).
pub fn span(name: &str) -> Span {
    let live = live_span(name);
    if !enabled() {
        return Span {
            id: None,
            live,
            _not_send: PhantomData,
        };
    }
    let t = now_us();
    let mut guard = STATE.lock().unwrap();
    let Some(state) = guard.as_mut() else {
        return Span {
            id: None,
            live,
            _not_send: PhantomData,
        };
    };
    let id = state.spans.len();
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    let t_rel = t.saturating_sub(state.start_us);
    state.spans.push(SpanRecord {
        id,
        parent,
        name: name.to_string(),
        start_us: t_rel,
        end_us: None,
        fields: Vec::new(),
    });
    state.events.push(Event::Begin { span: id, t_us: t_rel });
    drop(guard);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Span {
        id: Some(id),
        live,
        _not_send: PhantomData,
    }
}

impl Span {
    /// Attach (or overwrite) a field on this span.
    pub fn record(&self, key: &str, value: impl Into<Value>) {
        let value = value.into();
        if let Some(live) = &self.live {
            let mut fields = live.fields.borrow_mut();
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value.clone();
            } else {
                fields.push((key.to_string(), value.clone()));
            }
        }
        let Some(id) = self.id else { return };
        let mut guard = STATE.lock().unwrap();
        if let Some(state) = guard.as_mut() {
            if let Some(span) = state.spans.get_mut(id) {
                if let Some(slot) = span.fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    span.fields.push((key.to_string(), value));
                }
            }
        }
    }

    /// Builder-style [`Span::record`].
    pub fn with(self, key: &str, value: impl Into<Value>) -> Self {
        self.record(key, value);
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = &self.live {
            live.sink.obs_event(
                live.job,
                &events::ObsEvent::SpanEnd {
                    name: &live.name,
                    wall_us: now_us().saturating_sub(live.start_us),
                    fields: &live.fields.borrow(),
                },
            );
        }
        let Some(id) = self.id else { return };
        let t = now_us();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&x| x == id) {
                stack.truncate(pos);
            }
        });
        let mut guard = STATE.lock().unwrap();
        if let Some(state) = guard.as_mut() {
            let t_rel = t.saturating_sub(state.start_us);
            if let Some(span) = state.spans.get_mut(id) {
                span.end_us = Some(t_rel);
            }
            state.events.push(Event::End { span: id, t_us: t_rel });
        }
    }
}

// ---------------------------------------------------------------------------
// Diagnostics + heartbeat (stderr only)
// ---------------------------------------------------------------------------

/// Emit a one-line diagnostic: printed to stderr unless `--quiet`, and
/// recorded in the trace stream when a session is installed.
///
/// This is the sink the ad-hoc `eprintln!` counters migrated onto.
pub fn diag(args: fmt::Arguments<'_>) {
    let msg = args.to_string();
    if let Some((sink, job)) = events::active_for_current_job() {
        sink.obs_event(job, &events::ObsEvent::Diag { msg: &msg });
    }
    if !QUIET.load(Ordering::Relaxed) {
        eprintln!("{msg}");
    }
    if enabled() {
        let t = now_us();
        let mut guard = STATE.lock().unwrap();
        if let Some(state) = guard.as_mut() {
            let t_rel = t.saturating_sub(state.start_us);
            state.events.push(Event::Diag { msg, t_us: t_rel });
        }
    }
}

/// `diag!` with `format!` syntax.
#[macro_export]
macro_rules! diag {
    ($($arg:tt)*) => {
        $crate::diag(::core::format_args!($($arg)*))
    };
}

/// Minimum interval between heartbeat lines, in microseconds.
const BEAT_INTERVAL_US: u64 = 500_000;

static LAST_BEAT_US: AtomicU64 = AtomicU64::new(0);
static LAST_BEAT_STATES: AtomicU64 = AtomicU64::new(0);

/// Rate-limited progress heartbeat on stderr with states/sec and, for the
/// exploration stage, the current frontier depth.
///
/// Called from amortized clock checkpoints (`Meter::check_clock`); no-op
/// unless `--progress` is on, and prints at most every ~500 ms.
pub fn heartbeat(stage: &str, states: u64, transitions: u64) {
    if let Some((sink, job)) = events::active_for_current_job() {
        // Rate-limited per emitting thread: watch subscribers need
        // liveness, not every amortized check boundary.
        if events::beat_due(now_us()) {
            sink.obs_event(
                job,
                &events::ObsEvent::Heartbeat {
                    stage,
                    states,
                    transitions,
                },
            );
        }
    }
    if !progress_enabled() {
        return;
    }
    let now = now_us();
    let last = LAST_BEAT_US.load(Ordering::Relaxed);
    if now.saturating_sub(last) < BEAT_INTERVAL_US {
        return;
    }
    if LAST_BEAT_US
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_err()
    {
        return; // someone else just printed
    }
    let prev_states = LAST_BEAT_STATES.swap(states, Ordering::Relaxed);
    let dt_us = now.saturating_sub(last).max(1);
    let rate = if last == 0 {
        // First beat: no baseline interval yet, report cumulative.
        states
    } else {
        states.saturating_sub(prev_states) * 1_000_000 / dt_us
    };
    let frontier = hot::EXPLORE_FRONTIER.get();
    if stage == "explore" && frontier > 0 {
        eprintln!(
            "[bbv] {stage}: {states} states, {transitions} transitions, {rate} states/s, frontier {frontier}"
        );
    } else {
        eprintln!("[bbv] {stage}: {states} states, {transitions} transitions, {rate} states/s");
    }
}

/// Render a byte count with a binary-unit suffix (`882 B`, `1.4 MiB`).
///
/// Shared by `PartialStats`/verdict reporting so every path prints peak
/// memory in one format.
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.1} {}", UNITS[unit])
}

// ---------------------------------------------------------------------------
// Session export
// ---------------------------------------------------------------------------

/// A finished recording session: spans, ordered events, and hot-instrument
/// snapshots, ready to render as JSON.
#[derive(Debug)]
pub struct Session {
    start_us: u64,
    end_us: u64,
    spans: Vec<SpanRecord>,
    events: Vec<Event>,
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, hot::HistogramSnapshot)>,
}

impl Session {
    /// All recorded spans in open order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Snapshot of every registered counter (name, value), including zeros.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// Total wall-clock of the session in microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Sum of wall-clock over all spans with the given name, with the count.
    pub fn phase_total(&self, name: &str) -> (u64, usize) {
        let mut total = 0;
        let mut count = 0;
        for s in &self.spans {
            if s.name == name {
                total += s.wall_us();
                count += 1;
            }
        }
        (total, count)
    }

    /// Nesting depth of a span (0 = root).
    fn depth(&self, mut id: usize) -> usize {
        let mut d = 0;
        while let Some(p) = self.spans[id].parent {
            d += 1;
            id = p;
        }
        d
    }

    /// Render the single-document metrics JSON (`--metrics`).
    ///
    /// `meta` carries run identification (command, algorithm, bound, jobs…)
    /// supplied by the caller. Schema: see DESIGN.md "Observability".
    pub fn metrics_json(&self, meta: &[(&str, Value)]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"bb-obs/v1\",\n  \"meta\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, k);
            out.push_str(": ");
            v.write_json(&mut out);
        }
        out.push_str("},\n");
        out.push_str(&format!("  \"elapsed_us\": {},\n", self.elapsed_us()));
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"id\": {}, ", s.id));
            match s.parent {
                Some(p) => out.push_str(&format!("\"parent\": {p}, ")),
                None => out.push_str("\"parent\": null, "),
            }
            out.push_str("\"name\": ");
            json::write_str(&mut out, &s.name);
            out.push_str(&format!(
                ", \"depth\": {}, \"start_us\": {}, \"wall_us\": {}, \"fields\": {{",
                self.depth(s.id),
                s.start_us,
                s.wall_us()
            ));
            for (j, (k, v)) in s.fields.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json::write_str(&mut out, k);
                out.push_str(": ");
                v.write_json(&mut out);
            }
            out.push_str("}}");
            if i + 1 < self.spans.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, k);
            out.push_str(&format!(
                ": {{\"count\": {}, \"max\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.max, h.sum
            ));
            for (j, (le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{le}, {n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Render the per-event NDJSON trace stream (`--trace`): one JSON object
    /// per line, in event order. `begin`/`end` events bracket spans; `diag`
    /// events carry migrated stderr diagnostics; final `counters` and
    /// `histograms` events carry the hot-instrument snapshots.
    pub fn trace_ndjson(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (seq, ev) in self.events.iter().enumerate() {
            match ev {
                Event::Begin { span, t_us } => {
                    let s = &self.spans[*span];
                    out.push_str(&format!(
                        "{{\"ev\": \"begin\", \"seq\": {seq}, \"id\": {}, \"parent\": ",
                        s.id
                    ));
                    match s.parent {
                        Some(p) => out.push_str(&p.to_string()),
                        None => out.push_str("null"),
                    }
                    out.push_str(", \"name\": ");
                    json::write_str(&mut out, &s.name);
                    out.push_str(&format!(", \"t_us\": {t_us}}}\n"));
                }
                Event::End { span, t_us } => {
                    let s = &self.spans[*span];
                    out.push_str(&format!(
                        "{{\"ev\": \"end\", \"seq\": {seq}, \"id\": {}, \"name\": ",
                        s.id
                    ));
                    json::write_str(&mut out, &s.name);
                    out.push_str(&format!(
                        ", \"t_us\": {t_us}, \"wall_us\": {}, \"fields\": {{",
                        s.wall_us()
                    ));
                    for (j, (k, v)) in s.fields.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        json::write_str(&mut out, k);
                        out.push_str(": ");
                        v.write_json(&mut out);
                    }
                    out.push_str("}}\n");
                }
                Event::Diag { msg, t_us } => {
                    out.push_str(&format!("{{\"ev\": \"diag\", \"seq\": {seq}, \"t_us\": {t_us}, \"msg\": "));
                    json::write_str(&mut out, msg);
                    out.push_str("}\n");
                }
            }
        }
        out.push_str("{\"ev\": \"counters\", \"values\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("}}\n");
        // Histogram snapshots used to be visible only in --metrics; trace
        // consumers get the same distributions as a final event.
        out.push_str("{\"ev\": \"histograms\", \"values\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, k);
            out.push_str(&format!(
                ": {{\"count\": {}, \"max\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.max, h.sum
            ));
            for (j, (le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{le}, {n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests touching the global recorder: cargo runs unit tests
    /// in one process on many threads.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_is_noop() {
        let _g = lock();
        let _ = finish();
        assert!(!enabled());
        let s = span("explore").with("states", 3u64);
        drop(s);
        assert!(finish().is_none());
    }

    #[test]
    fn spans_nest_and_export() {
        let _g = lock();
        install(ObsConfig::default());
        {
            let outer = span("lin").with("eq", "branching");
            let _ = &outer;
            {
                let inner = span("bisim");
                inner.record("states", 42u64);
                {
                    let round = span("bisim.round").with("round", 0u64);
                    round.record("blocks_after", 7u64);
                }
            }
        }
        let session = finish().expect("session");
        assert_eq!(session.spans().len(), 3);
        let lin = &session.spans()[0];
        let bisim = &session.spans()[1];
        let round = &session.spans()[2];
        assert_eq!(lin.name, "lin");
        assert_eq!(lin.parent, None);
        assert_eq!(bisim.parent, Some(lin.id));
        assert_eq!(round.parent, Some(bisim.id));
        assert_eq!(round.field("round"), Some(&Value::U64(0)));
        assert_eq!(bisim.field("states"), Some(&Value::U64(42)));

        let doc = session.metrics_json(&[("command", Value::from("verify"))]);
        let parsed = json::parse(&doc).expect("metrics JSON parses");
        let obj = parsed.as_object().unwrap();
        assert_eq!(
            obj.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["schema", "meta", "elapsed_us", "spans", "counters", "histograms"]
        );
        let spans = parsed.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[2].get("depth").and_then(json::JsonValue::as_u64),
            Some(2)
        );

        let trace = session.trace_ndjson();
        let lines: Vec<_> = trace.lines().collect();
        // 3 begins + 3 ends + final counters + histograms lines.
        assert_eq!(lines.len(), 8);
        for line in &lines {
            json::parse(line).expect("each trace line is valid JSON");
        }
        let last = json::parse(lines[7]).unwrap();
        assert_eq!(last.get("ev").unwrap().as_str(), Some("histograms"));
    }

    #[test]
    fn open_spans_closed_at_finish() {
        let _g = lock();
        install(ObsConfig::default());
        let s = span("explore");
        let session = finish().expect("session");
        assert!(session.spans()[0].end_us.is_some());
        drop(s); // closing after finish must not panic
    }

    #[test]
    fn diag_recorded_in_trace() {
        let _g = lock();
        install(ObsConfig {
            progress: false,
            quiet: true, // don't spam test stderr
        });
        diag!("persist: {} [{}]: demo", "cache", "treiber");
        let session = finish().expect("session");
        let trace = session.trace_ndjson();
        assert!(trace.contains("\"ev\": \"diag\""));
        assert!(trace.contains("persist: cache [treiber]: demo"));
        set_quiet(false);
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(882), "882 B");
        assert_eq!(format_bytes(1536), "1.5 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0 MiB");
        assert_eq!(format_bytes(u64::MAX), "16777216.0 TiB");
    }

    #[test]
    fn phase_total_sums_rounds() {
        let _g = lock();
        install(ObsConfig::default());
        for k in 0..3u64 {
            let _r = span("bisim.round").with("round", k);
        }
        let session = finish().expect("session");
        let (_, count) = session.phase_total("bisim.round");
        assert_eq!(count, 3);
    }
}
