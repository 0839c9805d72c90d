//! Server observability: request counters and per-endpoint lock-free latency
//! histograms, exposed as the JSON `/metrics` endpoint and as Prometheus
//! text exposition (`/metrics?format=prometheus`).
//!
//! Everything bumped on the request path is an atomic: counters are
//! `AtomicUsize`, latencies go into one log-bucketed [`Histogram`] per
//! `Endpoint` class (`fetch_add`-only recording, ~3 % percentile error).
//! There is no lock anywhere on the hot path. Percentiles are computed at
//! snapshot time from bucket counts, so recording never sorts anything.
//!
//! The headline `latency` block merges the *real traffic* endpoints
//! (`ModelGet`, `ModelPut`, `Attack`); probe requests (`/healthz`,
//! `/metrics` itself) and routing errors land in the `Other` class and are
//! reported separately, so cheap probes can no longer dilute the p50/p99 the
//! service is judged by.

use crate::detect::DetectionSnapshot;
use crate::lru::LruCounters;
use deepsplit_core::store::StoreCounters;
use deepsplit_obs::{Histogram, HistogramSnapshot, PromWriter};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Live counters of one server process.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    requests_total: AtomicUsize,
    model_gets: AtomicUsize,
    model_puts: AtomicUsize,
    attacks: AtomicUsize,
    attacks_coalesced: AtomicUsize,
    models_trained: AtomicUsize,
    epochs_trained: AtomicUsize,
    errors: AtomicUsize,
    latency_model_get: Histogram,
    latency_model_put: Histogram,
    latency_attack: Histogram,
    latency_other: Histogram,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicUsize::new(0),
            model_gets: AtomicUsize::new(0),
            model_puts: AtomicUsize::new(0),
            attacks: AtomicUsize::new(0),
            attacks_coalesced: AtomicUsize::new(0),
            models_trained: AtomicUsize::new(0),
            epochs_trained: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
            latency_model_get: Histogram::new(),
            latency_model_put: Histogram::new(),
            latency_attack: Histogram::new(),
            latency_other: Histogram::new(),
        }
    }
}

/// Latency percentiles of one endpoint class (or the merged headline), in
/// milliseconds. Values come from log-bucketed histograms and carry at most
/// [`deepsplit_obs::MAX_RELATIVE_ERROR`] relative error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Median request latency.
    pub p50_ms: f64,
    /// 90th-percentile request latency.
    pub p90_ms: f64,
    /// 99th-percentile request latency.
    pub p99_ms: f64,
    /// 99.9th-percentile request latency.
    pub p999_ms: f64,
    /// Requests recorded into this class.
    pub samples: usize,
}

impl LatencySnapshot {
    fn from_hist(snap: &HistogramSnapshot) -> LatencySnapshot {
        LatencySnapshot {
            p50_ms: snap.percentile(0.50) as f64 / 1000.0,
            p90_ms: snap.percentile(0.90) as f64 / 1000.0,
            p99_ms: snap.percentile(0.99) as f64 / 1000.0,
            p999_ms: snap.percentile(0.999) as f64 / 1000.0,
            samples: snap.count() as usize,
        }
    }
}

/// Per-endpoint latency breakdown: one [`LatencySnapshot`] per request
/// class, including the probe/error `other` class the headline excludes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EndpointLatencies {
    /// `GET /models/{fingerprint}`.
    pub model_get: LatencySnapshot,
    /// `PUT /models/{fingerprint}`.
    pub model_put: LatencySnapshot,
    /// `POST /attack`.
    pub attack: LatencySnapshot,
    /// `/healthz`, `/metrics`, unknown routes, and panicking handlers.
    pub other: LatencySnapshot,
}

/// Usage counters of the server's three in-process caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Decoded models.
    pub models: LruCounters,
    /// Defended, prepared victims.
    pub victims: LruCounters,
    /// Implemented layouts per evaluation protocol.
    pub layouts: LruCounters,
}

/// One coherent `/metrics` read-out.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests handled (any endpoint, any outcome).
    pub requests_total: usize,
    /// `GET /models/{fingerprint}` requests.
    pub model_gets: usize,
    /// `PUT /models/{fingerprint}` requests.
    pub model_puts: usize,
    /// `POST /attack` requests.
    pub attacks: usize,
    /// `/attack` requests that coalesced onto another request's in-flight
    /// model resolution instead of training their own copy.
    pub attacks_coalesced: usize,
    /// Models this server trained (store misses it had to fill itself).
    pub models_trained: usize,
    /// Training epochs those models cost.
    pub epochs_trained: usize,
    /// Requests answered with a 4xx/5xx status.
    pub errors: usize,
    /// Backing model-store hit/miss/save counters.
    pub store: StoreCounters,
    /// In-process deserialized-model LRU counters.
    pub lru: LruCounters,
    /// Victim memo counters: one miss per defended, prepared victim built.
    pub victim_cache: LruCounters,
    /// Layout cache counters: one miss per evaluation protocol implemented.
    pub layout_cache: LruCounters,
    /// Real-traffic latency percentiles: `ModelGet` + `ModelPut` + `Attack`
    /// merged, with `Other`-class probes deliberately excluded.
    pub latency: LatencySnapshot,
    /// The per-endpoint breakdown behind the headline `latency`.
    pub endpoints: EndpointLatencies,
    /// Seconds this server process has been up.
    pub uptime_seconds: f64,
    /// The query-stream adversary detector's read-out (all zeros with
    /// `enabled: false` when the detector is off).
    pub detection: DetectionSnapshot,
}

impl Metrics {
    /// Fresh all-zero metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn latency_of(&self, endpoint: Endpoint) -> &Histogram {
        match endpoint {
            Endpoint::ModelGet => &self.latency_model_get,
            Endpoint::ModelPut => &self.latency_model_put,
            Endpoint::Attack => &self.latency_attack,
            Endpoint::Other => &self.latency_other,
        }
    }

    /// Records one handled request: which endpoint class, whether it
    /// errored, and how long it took end-to-end. Atomics-only — safe to call
    /// from every worker thread with no lock contention.
    ///
    /// A `404` on a model *load* is a cache miss — a completely normal
    /// store operation, already visible in [`StoreCounters::misses`] — so
    /// it does not count as an error; everything else at 4xx/5xx does.
    pub(crate) fn record_request(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let per_endpoint = match endpoint {
            Endpoint::ModelGet => Some(&self.model_gets),
            Endpoint::ModelPut => Some(&self.model_puts),
            Endpoint::Attack => Some(&self.attacks),
            Endpoint::Other => None,
        };
        if let Some(counter) = per_endpoint {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let expected_miss = endpoint == Endpoint::ModelGet && status == 404;
        if status >= 400 && !expected_miss {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency_of(endpoint)
            .record(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records an `/attack` request that waited for another request's model
    /// resolution instead of starting its own.
    pub(crate) fn record_coalesced(&self) {
        self.attacks_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a model this server had to train itself.
    pub(crate) fn record_training(&self, epochs: usize) {
        self.models_trained.fetch_add(1, Ordering::Relaxed);
        self.epochs_trained.fetch_add(epochs, Ordering::Relaxed);
    }

    /// A coherent snapshot, folding in the store, cache and detection
    /// counters.
    pub(crate) fn snapshot(
        &self,
        store: StoreCounters,
        caches: CacheCounters,
        detection: DetectionSnapshot,
    ) -> MetricsSnapshot {
        let model_get = self.latency_model_get.snapshot();
        let model_put = self.latency_model_put.snapshot();
        let attack = self.latency_attack.snapshot();
        let other = self.latency_other.snapshot();
        // Headline = real traffic only; histogram merge is exact.
        let mut traffic = model_get.clone();
        traffic.merge(&model_put);
        traffic.merge(&attack);
        MetricsSnapshot {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            model_gets: self.model_gets.load(Ordering::Relaxed),
            model_puts: self.model_puts.load(Ordering::Relaxed),
            attacks: self.attacks.load(Ordering::Relaxed),
            attacks_coalesced: self.attacks_coalesced.load(Ordering::Relaxed),
            models_trained: self.models_trained.load(Ordering::Relaxed),
            epochs_trained: self.epochs_trained.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            store,
            lru: caches.models,
            victim_cache: caches.victims,
            layout_cache: caches.layouts,
            latency: LatencySnapshot::from_hist(&traffic),
            endpoints: EndpointLatencies {
                model_get: LatencySnapshot::from_hist(&model_get),
                model_put: LatencySnapshot::from_hist(&model_put),
                attack: LatencySnapshot::from_hist(&attack),
                other: LatencySnapshot::from_hist(&other),
            },
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            detection,
        }
    }

    /// Prometheus text exposition of every metric, with full bucket data for
    /// the per-endpoint latency histograms (seconds, per convention) and the
    /// detection surface (verdict counters, countermeasure counters, and a
    /// per-flagged-client score gauge with escaped label values).
    pub(crate) fn prometheus(
        &self,
        store: StoreCounters,
        caches: CacheCounters,
        detection: &DetectionSnapshot,
    ) -> String {
        let mut w = PromWriter::new();
        w.gauge(
            "deepsplit_up",
            "Whether this server process is up (always 1 while scrapeable).",
            1.0,
        );
        w.gauge(
            "deepsplit_uptime_seconds",
            "Seconds since this server process started.",
            self.started.elapsed().as_secs_f64(),
        );
        w.counter(
            "deepsplit_requests_total",
            "Requests handled (any endpoint, any outcome).",
            self.requests_total.load(Ordering::Relaxed) as u64,
        );
        w.counter(
            "deepsplit_model_gets_total",
            "GET /models/{fingerprint} requests.",
            self.model_gets.load(Ordering::Relaxed) as u64,
        );
        w.counter(
            "deepsplit_model_puts_total",
            "PUT /models/{fingerprint} requests.",
            self.model_puts.load(Ordering::Relaxed) as u64,
        );
        w.counter(
            "deepsplit_attacks_total",
            "POST /attack requests.",
            self.attacks.load(Ordering::Relaxed) as u64,
        );
        w.counter(
            "deepsplit_attacks_coalesced_total",
            "Attack requests coalesced onto another request's model resolution.",
            self.attacks_coalesced.load(Ordering::Relaxed) as u64,
        );
        w.counter(
            "deepsplit_models_trained_total",
            "Models this server trained itself.",
            self.models_trained.load(Ordering::Relaxed) as u64,
        );
        w.counter(
            "deepsplit_epochs_trained_total",
            "Training epochs spent on self-trained models.",
            self.epochs_trained.load(Ordering::Relaxed) as u64,
        );
        w.counter(
            "deepsplit_errors_total",
            "Requests answered 4xx/5xx (expected model-load misses excluded).",
            self.errors.load(Ordering::Relaxed) as u64,
        );
        w.counter(
            "deepsplit_store_hits_total",
            "Model-store load hits.",
            store.hits as u64,
        );
        w.counter(
            "deepsplit_store_misses_total",
            "Model-store load misses.",
            store.misses as u64,
        );
        w.counter(
            "deepsplit_store_saves_total",
            "Model-store saves.",
            store.saves as u64,
        );
        let caches = [
            ("lru", "deserialized-model LRU", caches.models),
            ("victim_cache", "victim memo", caches.victims),
            ("layout_cache", "layout cache", caches.layouts),
        ];
        for (name, what, counters) in caches {
            w.counter(
                &format!("deepsplit_{name}_hits_total"),
                &format!("Hits of the {what}."),
                counters.hits as u64,
            );
            w.counter(
                &format!("deepsplit_{name}_misses_total"),
                &format!("Misses of the {what}."),
                counters.misses as u64,
            );
            w.counter(
                &format!("deepsplit_{name}_evictions_total"),
                &format!("Evictions from the {what}."),
                counters.evictions as u64,
            );
            w.gauge(
                &format!("deepsplit_{name}_entries"),
                &format!("Entries resident in the {what}."),
                counters.len as f64,
            );
        }
        let endpoints = [
            ("model_get", &self.latency_model_get),
            ("model_put", &self.latency_model_put),
            ("attack", &self.latency_attack),
            ("other", &self.latency_other),
        ];
        for (name, hist) in endpoints {
            w.histogram(
                &format!("deepsplit_request_latency_{name}_seconds"),
                &format!("End-to-end latency of the {name} endpoint class."),
                &hist.snapshot(),
                1e-6,
            );
        }
        w.gauge(
            "deepsplit_detection_enabled",
            "Whether the query-stream adversary detector is on.",
            if detection.enabled { 1.0 } else { 0.0 },
        );
        w.gauge(
            "deepsplit_detection_clients",
            "Clients the detector currently tracks.",
            detection.clients_tracked as f64,
        );
        w.gauge(
            "deepsplit_detection_flagged_clients",
            "Clients currently flagged as adversarial.",
            detection.flagged_clients as f64,
        );
        w.gauge(
            "deepsplit_detection_max_score",
            "Highest latest-window suspicion score over all tracked clients.",
            detection.max_score,
        );
        w.counter(
            "deepsplit_detection_observed_total",
            "Attack-endpoint arrivals the detector has modelled.",
            detection.observed_queries as u64,
        );
        w.counter(
            "deepsplit_detection_windows_total",
            "Client windows closed and scored.",
            detection.windows_scored as u64,
        );
        w.counter(
            "deepsplit_detection_suspicious_windows_total",
            "Scored windows at or above the flag threshold.",
            detection.windows_suspicious as u64,
        );
        w.counter(
            "deepsplit_detection_flags_total",
            "Flag-raising transitions.",
            detection.flags_raised as u64,
        );
        w.counter_with(
            "deepsplit_detection_countermeasures_total",
            "Countermeasures applied to flagged clients' requests.",
            &[("action", "rate_limit")],
            detection.rate_limited as u64,
        );
        w.counter_with(
            "deepsplit_detection_countermeasures_total",
            "Countermeasures applied to flagged clients' requests.",
            &[("action", "deceive")],
            detection.deceived as u64,
        );
        for f in &detection.flagged {
            // Client keys are adversary-influenced; gauge_with escapes the
            // label value, so a hostile name cannot break out of the quotes.
            w.gauge_with(
                "deepsplit_detection_score",
                "Latest suspicion score of each currently flagged client.",
                &[("client", &f.client)],
                f.score,
            );
        }
        w.finish()
    }
}

/// Which endpoint class a request hit, for per-endpoint counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// `GET /models/{fingerprint}`.
    ModelGet,
    /// `PUT /models/{fingerprint}`.
    ModelPut,
    /// `POST /attack`.
    Attack,
    /// Everything else (`/healthz`, `/metrics`, unknown routes).
    Other,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_requests() {
        let m = Metrics::new();
        m.record_request(Endpoint::ModelGet, 200, Duration::from_millis(2));
        m.record_request(Endpoint::Attack, 200, Duration::from_millis(10));
        m.record_request(Endpoint::Other, 404, Duration::from_millis(1));
        m.record_coalesced();
        m.record_training(12);
        let s = m.snapshot(
            StoreCounters::default(),
            CacheCounters::default(),
            DetectionSnapshot::default(),
        );
        assert_eq!(s.requests_total, 3);
        assert_eq!(s.model_gets, 1);
        assert_eq!(s.attacks, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.attacks_coalesced, 1);
        assert_eq!(s.models_trained, 1);
        assert_eq!(s.epochs_trained, 12);
        // Headline latency covers real traffic only (2 samples, not 3).
        assert_eq!(s.latency.samples, 2);
        assert_eq!(s.endpoints.other.samples, 1);
        assert_eq!(s.endpoints.model_get.samples, 1);
        assert_eq!(s.endpoints.attack.samples, 1);
        assert!(s.latency.p50_ms >= 1.0 && s.latency.p99_ms >= s.latency.p50_ms);
        assert!(s.latency.p999_ms >= s.latency.p99_ms);
        assert!(s.latency.p90_ms >= s.latency.p50_ms);
        // The snapshot is itself wire-serializable for the /metrics route.
        let json = serde_json::to_string(&s).expect("serialise snapshot");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parse snapshot");
        assert_eq!(back, s);
    }

    #[test]
    fn probe_latencies_do_not_pollute_the_headline() {
        let m = Metrics::new();
        // Real traffic: slow attacks around 100 ms.
        for _ in 0..10 {
            m.record_request(Endpoint::Attack, 200, Duration::from_millis(100));
        }
        // A flood of sub-millisecond health probes.
        for _ in 0..1000 {
            m.record_request(Endpoint::Other, 200, Duration::from_micros(50));
        }
        let s = m.snapshot(
            StoreCounters::default(),
            CacheCounters::default(),
            DetectionSnapshot::default(),
        );
        assert_eq!(s.latency.samples, 10);
        assert!(
            s.latency.p50_ms > 90.0,
            "headline p50 must reflect attack traffic, got {}",
            s.latency.p50_ms
        );
        assert_eq!(s.endpoints.other.samples, 1000);
        assert!(s.endpoints.other.p99_ms < 1.0);
    }

    #[test]
    fn headline_merge_matches_per_endpoint_counts() {
        let m = Metrics::new();
        for i in 1..=50u64 {
            m.record_request(Endpoint::ModelGet, 200, Duration::from_micros(i * 10));
            m.record_request(Endpoint::ModelPut, 204, Duration::from_micros(i * 20));
            m.record_request(Endpoint::Attack, 200, Duration::from_micros(i * 400));
        }
        let s = m.snapshot(
            StoreCounters::default(),
            CacheCounters::default(),
            DetectionSnapshot::default(),
        );
        assert_eq!(
            s.latency.samples,
            s.endpoints.model_get.samples
                + s.endpoints.model_put.samples
                + s.endpoints.attack.samples
        );
        // The merged p99 is dominated by the slowest class.
        assert!(s.latency.p99_ms >= s.endpoints.model_get.p99_ms);
        assert!(s.latency.p99_ms <= s.endpoints.attack.p99_ms * (1.0 + 0.04) + 0.001);
    }

    #[test]
    fn prometheus_exposition_is_complete_and_valid() {
        let m = Metrics::new();
        m.record_request(Endpoint::Attack, 200, Duration::from_millis(5));
        m.record_request(Endpoint::Other, 200, Duration::from_micros(80));
        let caches = CacheCounters {
            victims: LruCounters {
                hits: 21,
                misses: 3,
                len: 3,
                ..LruCounters::default()
            },
            layouts: LruCounters {
                evictions: 1,
                ..LruCounters::default()
            },
            ..CacheCounters::default()
        };
        let body = m.prometheus(
            StoreCounters::default(),
            caches,
            &DetectionSnapshot::default(),
        );
        for series in [
            "deepsplit_lru_hits_total 0",
            "# TYPE deepsplit_victim_cache_hits_total counter",
            "deepsplit_victim_cache_hits_total 21",
            "deepsplit_victim_cache_misses_total 3",
            "deepsplit_victim_cache_evictions_total 0",
            "# TYPE deepsplit_victim_cache_entries gauge",
            "deepsplit_victim_cache_entries 3",
            "deepsplit_layout_cache_evictions_total 1",
            "deepsplit_requests_total 2",
            "deepsplit_attacks_total 1",
            "deepsplit_errors_total 0",
            "# TYPE deepsplit_request_latency_attack_seconds histogram",
            "deepsplit_request_latency_attack_seconds_count 1",
            "deepsplit_request_latency_other_seconds_count 1",
            "deepsplit_request_latency_attack_seconds_bucket{le=\"+Inf\"} 1",
        ] {
            assert!(body.contains(series), "missing `{series}` in:\n{body}");
        }
        assert!(body.ends_with('\n'));
    }

    #[test]
    fn recording_is_unbounded_and_lossless() {
        // The old reservoir capped at 4096 samples; histograms never drop.
        let m = Metrics::new();
        for _ in 0..10_000 {
            m.record_request(Endpoint::Attack, 200, Duration::from_micros(5));
        }
        let s = m.snapshot(
            StoreCounters::default(),
            CacheCounters::default(),
            DetectionSnapshot::default(),
        );
        assert_eq!(s.latency.samples, 10_000);
    }
}
