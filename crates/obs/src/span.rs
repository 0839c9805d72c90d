//! Spans, events, Chrome-trace export and per-name span totals.
//!
//! A [`Recorder`] owns a bounded fill-once trace buffer. Writers claim a slot
//! with one `fetch_add` and publish the event through a `OnceLock` — no
//! locks, no blocking; once the buffer is full further events bump a dropped
//! counter and are otherwise free. Span nesting depth and a stable per-run
//! thread id live in thread-locals, so concurrently recorded traces still
//! reconstruct per-thread call stacks.
//!
//! Binaries install one global recorder with [`install`] (a no-op to record
//! against when absent — instrumented library code costs two atomic loads
//! when tracing is off), and export with [`export_chrome_trace`] or total
//! with [`span_table`]. Tests construct private [`Recorder`]s directly.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default capacity of the global trace buffer installed by [`install`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (a static string keeps recording allocation-free).
    pub name: &'static str,
    /// Stable per-run id of the recording thread (dense from 0).
    pub tid: u32,
    /// Span nesting depth on the recording thread (0 = top level).
    pub depth: u32,
    /// Microseconds from recorder creation to event start.
    pub start_us: u64,
    /// Duration in microseconds; `None` for instant events.
    pub dur_us: Option<u64>,
    /// Optional numeric payload (e.g. a training loss), rendered into the
    /// Chrome-trace `args` object.
    pub value: Option<f64>,
}

/// A bounded, lock-free trace recorder.
///
/// Every slot is written at most once per run; when all slots are taken
/// further events are counted in [`Recorder::dropped`] and discarded.
#[derive(Debug)]
pub struct Recorder {
    slots: Vec<OnceLock<TraceEvent>>,
    head: AtomicUsize,
    dropped: AtomicU64,
    epoch: Instant,
}

impl Recorder {
    /// A recorder with room for `capacity` events.
    pub fn new(capacity: usize) -> Recorder {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, OnceLock::new);
        Recorder {
            slots,
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Microseconds elapsed since this recorder was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Records one event; drops it (counted) when the buffer is full.
    pub(crate) fn push(&self, event: TraceEvent) {
        let index = self.head.fetch_add(1, Ordering::Relaxed);
        match self.slots.get(index) {
            Some(slot) => {
                // The fetch_add hands each writer a unique index, so the
                // set can only fail if capacity wrapped usize — count it.
                if slot.set(event).is_err() {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// All recorded events in slot order (claim order).
    pub fn events(&self) -> Vec<TraceEvent> {
        let taken = self.head.load(Ordering::Relaxed).min(self.slots.len());
        self.slots
            .iter()
            .take(taken)
            .filter_map(|slot| slot.get().cloned())
            .collect()
    }

    /// Starts a span on this recorder; the returned guard records a complete
    /// event (with duration) when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let depth = THREAD.with(|t| {
            let d = t.depth.get();
            t.depth.set(d + 1);
            d
        });
        SpanGuard {
            recorder: self,
            name,
            depth,
            start_us: self.now_us(),
        }
    }

    /// Records an instant event, optionally carrying a numeric value.
    pub fn event(&self, name: &'static str, value: Option<f64>) {
        self.push(TraceEvent {
            name,
            tid: thread_id(),
            depth: THREAD.with(|t| t.depth.get()),
            start_us: self.now_us(),
            dur_us: None,
            value,
        });
    }
}

/// An in-flight span on a [`Recorder`]; records itself on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    name: &'static str,
    depth: u32,
    start_us: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        THREAD.with(|t| t.depth.set(self.depth));
        let end = self.recorder.now_us();
        self.recorder.push(TraceEvent {
            name: self.name,
            tid: thread_id(),
            depth: self.depth,
            start_us: self.start_us,
            dur_us: Some(end.saturating_sub(self.start_us)),
            value: None,
        });
    }
}

struct ThreadState {
    depth: Cell<u32>,
    tid: Cell<u32>,
}

thread_local! {
    static THREAD: ThreadState = const {
        ThreadState { depth: Cell::new(0), tid: Cell::new(u32::MAX) }
    };
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// This thread's stable per-run id: dense integers handed out in first-use
/// order, independent of the OS thread id (so traces diff cleanly).
pub fn thread_id() -> u32 {
    THREAD.with(|t| {
        let current = t.tid.get();
        if current != u32::MAX {
            return current;
        }
        let assigned = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.tid.set(assigned);
        assigned
    })
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Installs the global recorder (used by [`span`]/[`event`]). The first call
/// per process wins; later calls are no-ops returning `false`.
pub fn install(capacity: usize) -> bool {
    GLOBAL.set(Recorder::new(capacity)).is_ok()
}

/// The installed global recorder, if any.
pub fn global() -> Option<&'static Recorder> {
    GLOBAL.get()
}

/// Starts a span on the global recorder; `None` (zero-cost) when tracing is
/// not installed. Bind the result — `let _span = obs::span("phase");` — so
/// the guard lives for the region being timed.
pub fn span(name: &'static str) -> Option<SpanGuard<'static>> {
    GLOBAL.get().map(|r| r.span(name))
}

/// Records an instant event on the global recorder; a no-op when tracing is
/// not installed.
pub fn event(name: &'static str, value: Option<f64>) {
    if let Some(r) = GLOBAL.get() {
        r.event(name, value);
    }
}

/// Renders events as a Chrome-tracing-compatible JSON array, one event per
/// line (JSONL-style inside the array). Complete events use phase `"X"`;
/// instant events with a value become counter events (`"C"`), plain instants
/// phase `"i"`.
pub(crate) fn render_chrome_trace(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for e in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let name = escape_json(e.name);
        match (e.dur_us, e.value) {
            (Some(dur), _) => {
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"depth\":{}}}}}",
                    e.tid, e.start_us, dur, e.depth
                ));
            }
            (None, Some(v)) => {
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"value\":{}}}}}",
                    e.tid,
                    e.start_us,
                    fmt_f64(v)
                ));
            }
            (None, None) => {
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\"args\":{{\"depth\":{}}}}}",
                    e.tid, e.start_us, e.depth
                ));
            }
        }
    }
    if dropped > 0 {
        if !first {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"obs.dropped\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{{\"value\":{dropped}}}}}"
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Renders the global recorder's events as a Chrome trace; empty trace
/// (`"[\n]\n"` equivalent) when tracing is not installed.
pub fn export_chrome_trace() -> String {
    match GLOBAL.get() {
        Some(r) => render_chrome_trace(&r.events(), r.dropped()),
        None => render_chrome_trace(&[], 0),
    }
}

/// All complete spans of one name, as totalled by [`span_table`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// The span name.
    pub name: &'static str,
    /// Spans of this name that completed.
    pub count: u64,
    /// Their summed durations in milliseconds. Inclusive: a span's time
    /// includes its children's.
    pub total_ms: f64,
}

impl SpanRow {
    /// Mean duration of one span in milliseconds.
    pub(crate) fn mean_ms(&self) -> f64 {
        self.total_ms / self.count as f64
    }
}

/// Per-name totals of a recorder's complete spans: the `--timings` table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTable {
    /// One row per span name, sorted by name.
    pub rows: Vec<SpanRow>,
    /// Events the recorder dropped because its buffer was full; the rows
    /// undercount when this is not zero.
    pub dropped: u64,
}

impl SpanTable {
    /// The row of spans named `name`, if any completed.
    pub fn row(&self, name: &str) -> Option<&SpanRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Totals the complete spans among `events` by name; instant events are
/// ignored. `dropped` is the recorder's [`Recorder::dropped`].
pub fn span_table(events: &[TraceEvent], dropped: u64) -> SpanTable {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for e in events {
        if let Some(dur_us) = e.dur_us {
            let (count, us) = totals.entry(e.name).or_default();
            *count += 1;
            *us += dur_us;
        }
    }
    SpanTable {
        rows: totals
            .into_iter()
            .map(|(name, (count, us))| SpanRow {
                name,
                count,
                total_ms: us as f64 / 1000.0,
            })
            .collect(),
        dropped,
    }
}

impl fmt::Display for SpanTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.rows.iter().map(|r| r.name.len()).fold(4, usize::max);
        writeln!(
            f,
            "{:<width$}  {:>7}  {:>11}  {:>10}",
            "span", "count", "total_ms", "mean_ms"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<width$}  {:>7}  {:>11.1}  {:>10.2}",
                r.name,
                r.count,
                r.total_ms,
                r.mean_ms()
            )?;
        }
        writeln!(f, "dropped events: {}", self.dropped)
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_on_drop() {
        let r = Recorder::new(64);
        {
            let _outer = r.span("outer");
            {
                let _inner = r.span("inner");
            }
            r.event("tick", Some(0.5));
        }
        let events = r.events();
        assert_eq!(events.len(), 3);
        // Inner closes first; depths reflect nesting at open time.
        let inner = events.iter().find(|e| e.name == "inner").expect("inner");
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        let tick = events.iter().find(|e| e.name == "tick").expect("tick");
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert_eq!(tick.depth, 1, "event inside outer span sits at depth 1");
        assert!(inner.dur_us.is_some() && outer.dur_us.is_some());
        assert!(tick.dur_us.is_none());
        assert_eq!(tick.value, Some(0.5));
        // Nesting containment: inner starts no earlier, ends no later.
        assert!(inner.start_us >= outer.start_us);
        let inner_end = inner.start_us + inner.dur_us.unwrap_or(0);
        let outer_end = outer.start_us + outer.dur_us.unwrap_or(0);
        assert!(inner_end <= outer_end);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn full_buffer_counts_drops_without_blocking() {
        let r = Recorder::new(4);
        for _ in 0..10 {
            r.event("e", None);
        }
        assert_eq!(r.events().len(), 4);
        assert_eq!(r.dropped(), 6);
    }

    #[test]
    fn thread_ids_are_stable_within_a_run() {
        let first = thread_id();
        let again = thread_id();
        assert_eq!(first, again, "same thread keeps its id");
        let other = std::thread::spawn(|| (thread_id(), thread_id()))
            .join()
            .expect("spawned thread");
        assert_eq!(other.0, other.1);
        assert_ne!(other.0, first, "different threads get different ids");
    }

    #[test]
    fn concurrent_pushes_never_tear_or_lose_within_capacity() {
        let r = std::sync::Arc::new(Recorder::new(4_000));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let _s = r.span("work");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let events = r.events();
        assert_eq!(events.len(), 4_000);
        assert_eq!(r.dropped(), 0);
        assert!(events
            .iter()
            .all(|e| e.name == "work" && e.dur_us.is_some()));
    }

    #[test]
    fn chrome_trace_round_trips_through_a_json_parser() {
        let r = Recorder::new(64);
        {
            let _s = r.span("phase \"quoted\"\n");
            r.event("loss", Some(0.25));
            r.event("marker", None);
        }
        let rendered = render_chrome_trace(&r.events(), 3);
        // One event per line inside the array.
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.first().copied(), Some("["));
        assert_eq!(lines.last().copied(), Some("]"));
        assert_eq!(lines.len(), 2 + 4, "three events + dropped counter");
        let parsed: serde::Value = serde_json::parse_value(&rendered).expect("valid JSON");
        let events = parsed.as_seq().expect("top-level array");
        assert_eq!(events.len(), 4);
        for e in events {
            let obj = e.as_object().expect("event object");
            for key in ["name", "ph", "ts"] {
                assert!(
                    obj.iter().any(|(k, _)| k == key),
                    "event missing {key}: {e:?}"
                );
            }
        }
        let phases: Vec<String> = events
            .iter()
            .filter_map(|e| e.as_object())
            .flat_map(|obj| obj.iter())
            .filter(|(k, _)| k == "ph")
            .filter_map(|(_, v)| v.as_str().map(str::to_string))
            .collect();
        assert!(phases.contains(&"X".to_string()));
        assert!(phases.contains(&"C".to_string()));
        assert!(phases.contains(&"i".to_string()));
    }

    #[test]
    fn span_table_totals_complete_spans_by_name() {
        let event = |name, depth, dur_us| TraceEvent {
            name,
            tid: 0,
            depth,
            start_us: 0,
            dur_us,
            value: None,
        };
        let events = [
            event("outer", 0, Some(3_000)),
            event("inner", 1, Some(1_000)),
            event("inner", 1, Some(500)),
            // Instant events, plain or valued, never count: not even one
            // that shares a span's name.
            event("inner", 1, None),
            TraceEvent {
                value: Some(0.25),
                ..event("loss", 1, None)
            },
        ];
        let table = span_table(&events, 7);
        let names: Vec<&str> = table.rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["inner", "outer"], "one row per span name, sorted");
        let inner = table.row("inner").expect("inner row");
        assert_eq!(
            (inner.count, inner.total_ms, inner.mean_ms()),
            (2, 1.5, 0.75)
        );
        let outer = table.row("outer").expect("outer row");
        assert_eq!((outer.count, outer.total_ms), (1, 3.0));
        assert!(table.row("loss").is_none());
        assert_eq!(table.dropped, 7);
        let rendered = table.to_string();
        assert_eq!(rendered.lines().count(), 4, "header, two rows, dropped");
        assert!(rendered.contains("dropped events: 7"), "{rendered}");
    }

    #[test]
    fn span_table_reads_nested_spans_and_drops_off_a_recorder() {
        let r = Recorder::new(3);
        {
            let _outer = r.span("outer");
            {
                let _inner = r.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            r.event("tick", None);
        }
        r.event("late", None);
        let table = span_table(&r.events(), r.dropped());
        let inner = table.row("inner").expect("inner row");
        let outer = table.row("outer").expect("outer row");
        assert_eq!((inner.count, outer.count), (1, 1));
        assert!(inner.total_ms >= 2.0, "{inner:?}");
        assert!(
            outer.total_ms >= inner.total_ms,
            "the outer span holds the inner"
        );
        assert_eq!(table.dropped, 1, "the buffer held three events");
    }

    #[test]
    fn global_helpers_are_no_ops_until_installed() {
        // Must not panic or allocate state; install happens in binaries only.
        event("noop", None);
        assert!(span("noop").is_none() || global().is_some());
        let trace = export_chrome_trace();
        assert!(serde_json::parse_value(&trace).is_ok());
    }
}
