//! Prometheus text-exposition rendering (version 0.0.4 of the format).
//!
//! [`PromWriter`] builds a valid exposition body from counters, gauges, and
//! [`HistogramSnapshot`]s — `# HELP`/`# TYPE` headers, cumulative `le`
//! buckets ending in `+Inf`, `_sum` and `_count` series — without pulling in
//! a client library. The serve crate uses it for
//! `GET /metrics?format=prometheus`.

use crate::hist::HistogramSnapshot;

/// An append-only Prometheus exposition builder.
#[derive(Debug, Default)]
pub struct PromWriter {
    body: String,
    /// The metric family the last `# HELP`/`# TYPE` header introduced, so
    /// labeled samples of one family share a single header.
    last_family: String,
}

impl PromWriter {
    /// An empty exposition body.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Appends a counter metric (monotonic total).
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.body.push_str(&format!("{name} {value}\n"));
    }

    /// Appends a gauge metric (point-in-time value).
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.body
            .push_str(&format!("{name} {}\n", fmt_value(value)));
    }

    /// Appends one labeled counter sample. Consecutive samples of the same
    /// family share one `# HELP`/`# TYPE` header, per the exposition format.
    /// Label *values* may contain anything (they are escaped); label names
    /// are the caller's responsibility and must be valid identifiers.
    pub fn counter_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.family_header(name, help, "counter");
        self.body
            .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
    }

    /// Appends one labeled gauge sample (header sharing as
    /// [`PromWriter::counter_with`]).
    pub fn gauge_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family_header(name, help, "gauge");
        self.body.push_str(&format!(
            "{name}{} {}\n",
            render_labels(labels),
            fmt_value(value)
        ));
    }

    /// Appends a histogram metric from a snapshot, scaling each bucket upper
    /// bound by `scale` (e.g. `1e-6` turns microsecond samples into the
    /// seconds Prometheus conventions expect). Emits cumulative non-empty
    /// buckets, a `+Inf` bucket, `_sum`, and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistogramSnapshot, scale: f64) {
        self.header(name, help, "histogram");
        for (upper, cumulative) in snap.cumulative_buckets() {
            // The top bucket's bound is u64::MAX — that IS +Inf here.
            if upper == u64::MAX {
                continue;
            }
            self.body.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                fmt_value(upper as f64 * scale)
            ));
        }
        self.body
            .push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count()));
        self.body.push_str(&format!(
            "{name}_sum {}\n",
            fmt_value(snap.sum() as f64 * scale)
        ));
        self.body
            .push_str(&format!("{name}_count {}\n", snap.count()));
    }

    /// The finished exposition body.
    pub fn finish(self) -> String {
        self.body
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.body
            .push_str(&format!("# HELP {name} {}\n", escape_help(help)));
        self.body.push_str(&format!("# TYPE {name} {kind}\n"));
        self.last_family = name.to_string();
    }

    /// A header emitted at most once per run of same-family samples.
    fn family_header(&mut self, name: &str, help: &str, kind: &str) {
        if self.last_family != name {
            self.header(name, help, kind);
        }
    }
}

/// Renders a `{k="v",…}` label set (empty string for no labels), escaping
/// each value per the exposition format.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Escapes a label value: backslash, double-quote and newline are the three
/// characters the text exposition format requires escaping inside quoted
/// label values. Everything else passes through verbatim.
pub(crate) fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn counters_and_gauges_render_with_headers() {
        let mut w = PromWriter::new();
        w.counter("requests_total", "Requests handled.", 42);
        w.gauge("lru_entries", "Models resident in the LRU.", 3.0);
        let body = w.finish();
        assert!(body.contains("# HELP requests_total Requests handled.\n"));
        assert!(body.contains("# TYPE requests_total counter\n"));
        assert!(body.contains("requests_total 42\n"));
        assert!(body.contains("# TYPE lru_entries gauge\n"));
        assert!(body.contains("lru_entries 3\n"));
    }

    #[test]
    fn labeled_samples_share_one_header_per_family() {
        let mut w = PromWriter::new();
        w.counter_with("verdicts_total", "Verdicts.", &[("verdict", "clear")], 7);
        w.counter_with(
            "verdicts_total",
            "Verdicts.",
            &[("verdict", "suspicious")],
            2,
        );
        w.gauge_with("score", "Suspicion.", &[("client", "alice")], 0.25);
        let body = w.finish();
        assert_eq!(
            body.matches("# TYPE verdicts_total counter").count(),
            1,
            "one TYPE header per family:\n{body}"
        );
        assert!(body.contains("verdicts_total{verdict=\"clear\"} 7\n"));
        assert!(body.contains("verdicts_total{verdict=\"suspicious\"} 2\n"));
        assert!(body.contains("score{client=\"alice\"} 0.25\n"));
    }

    #[test]
    fn hostile_label_values_are_escaped() {
        // Label values are attacker-controlled (client keys); quote,
        // backslash and newline must never break out of the quoted value.
        let mut w = PromWriter::new();
        w.gauge_with(
            "score",
            "Suspicion.",
            &[("client", "eve\"} 1\nevil_total 9\n#\\")],
            1.0,
        );
        let body = w.finish();
        assert!(
            body.contains("score{client=\"eve\\\"} 1\\nevil_total 9\\n#\\\\\"} 1\n"),
            "escaped sample missing in:\n{body}"
        );
        // The raw injection must not have produced a new series line.
        assert!(!body.contains("\nevil_total 9\n"));
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_ends_at_inf() {
        let h = Histogram::new();
        for v in [100u64, 200, 200, 5_000] {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.histogram("latency_seconds", "Request latency.", &h.snapshot(), 1e-6);
        let body = w.finish();
        assert!(body.contains("# TYPE latency_seconds histogram\n"));
        assert!(body.contains("latency_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(body.contains("latency_seconds_count 4\n"));
        assert!(body.contains("latency_seconds_sum 0.0055\n"));
        // Bucket counts never decrease down the page.
        let mut last = 0u64;
        for line in body.lines().filter(|l| l.contains("_bucket{")) {
            let count: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|c| c.parse().ok())
                .expect("bucket count");
            assert!(count >= last, "cumulative counts fell: {line}");
            last = count;
        }
        assert_eq!(last, 4);
    }

    #[test]
    fn every_line_is_structurally_valid_exposition() {
        let h = Histogram::new();
        h.record(1234);
        let mut w = PromWriter::new();
        w.counter("a_total", "A.", 1);
        w.gauge("b", "B with\nnewline.", 0.5);
        w.histogram("c_seconds", "C.", &h.snapshot(), 1e-6);
        let body = w.finish();
        assert!(body.ends_with('\n'), "exposition must end with a newline");
        for line in body.lines() {
            let valid = line.starts_with("# HELP ")
                || line.starts_with("# TYPE ")
                || line
                    .split_once(' ')
                    .map(|(series, value)| !series.is_empty() && value.parse::<f64>().is_ok())
                    .unwrap_or(false);
            assert!(valid, "malformed exposition line: {line:?}");
        }
        assert!(!body.contains("B with\nnewline"), "help newlines escaped");
    }
}
