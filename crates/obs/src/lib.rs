//! Dependency-light observability substrate for the deepsplit workspace.
//!
//! Three pieces, all std-only and lock-free on their hot paths:
//!
//! - **Spans and events** ([`span()`], [`event()`], [`Recorder`]): thread-local
//!   span stacks over a bounded fill-once trace buffer, exportable as a
//!   Chrome-tracing-compatible JSON trace (`chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev) open it directly) or totalled by
//!   name ([`span_table`], the `--timings` table). Binaries opt in with
//!   [`install`]; uninstrumented runs pay two atomic loads per call site.
//! - **Histograms** ([`Histogram`]): log-bucketed atomic counters with at
//!   most [`MAX_RELATIVE_ERROR`] (~3.1 %) percentile error, snapshotable and
//!   exactly mergeable across shards. This replaces the mutex-guarded
//!   latency reservoir the serve crate used to carry.
//! - **Prometheus exposition** ([`PromWriter`]): renders counters, gauges,
//!   labeled samples (with escaped label values), and histogram snapshots as
//!   valid text-format exposition for `GET /metrics?format=prometheus`.
//!
//! Determinism contract: nothing in this crate may feed content-addressed
//! state. Span/timing data stays out of `CorpusFingerprint`, cell keys, and
//! `--json` artifacts — splint's D2 rule rejects `obs` call sites in the
//! fingerprint-bearing core files, and CI proves a traced sweep emits
//! byte-identical reports to an untraced one.
//!
//! # Example
//!
//! ```
//! use deepsplit_obs as obs;
//!
//! // In a binary: obs::install(obs::DEFAULT_TRACE_CAPACITY);
//! {
//!     let _span = obs::span("train_epoch"); // None (free) when not installed
//!     obs::event("epoch_loss", Some(0.42));
//! }
//! let trace = obs::export_chrome_trace(); // JSON array, one event per line
//! assert!(trace.starts_with("["));
//! ```

pub mod hist;
pub mod prom;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot, MAX_RELATIVE_ERROR};
pub use prom::{escape_label, PromWriter};
pub use span::{
    event, export_chrome_trace, global, install, render_chrome_trace, span, span_table, thread_id,
    Recorder, SpanGuard, SpanRow, SpanTable, TraceEvent, DEFAULT_TRACE_CAPACITY,
};
