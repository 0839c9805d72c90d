//! Detection-surface invariants, from recorded-stream determinism to the
//! live request path: a fixture stream replays to byte-identical score
//! series on any thread count, probe traffic never feeds the detector, and
//! a live harvester is flagged, rate limited (or deceived) and exported
//! with properly escaped Prometheus labels. The detector's behaviour on the
//! red-team streams, and the ROC artifact built from them, are checked
//! beside those streams, in `deepsplit-bench`.

use deepsplit_core::config::AttackConfig;
use deepsplit_core::httpc;
use deepsplit_core::store::MemoryModelStore;
use deepsplit_defense::eval::EvalConfig;
use deepsplit_defense::service::{AttackRequest, AttackResponse};
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_serve::detect::{Action, Countermeasure, DetectConfig, Detector, Observation};
use deepsplit_serve::{start, AttackServer, MetricsSnapshot, Request, RunningServer, ServeConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Generous per-read timeout: `/attack` may train a model first.
const TIMEOUT: Duration = Duration::from_secs(300);

/// The recorded query stream: alice is honest, mallory harvests, carol
/// harvests behind cover traffic.
const FIXTURE: &str = include_str!("fixtures/detect_stream.jsonl");

fn fixture_stream() -> Vec<Observation> {
    FIXTURE
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).expect("parse fixture observation"))
        .collect()
}

fn replay_config() -> DetectConfig {
    DetectConfig {
        enabled: true,
        ..DetectConfig::default()
    }
}

/// A deliberately tiny evaluation protocol so `/attack` trains in seconds.
fn tiny_eval() -> EvalConfig {
    EvalConfig {
        attack: AttackConfig {
            use_images: false,
            candidates: 8,
            epochs: 4,
            batch_size: 16,
            threads: 2,
            ..AttackConfig::fast()
        },
        scale: 0.4,
        train_benchmarks: vec![Benchmark::C880],
        recovery_rounds: 6,
        train_query_cap: 150,
        ..EvalConfig::fast()
    }
}

fn tiny_request(client: &str) -> AttackRequest {
    AttackRequest {
        eval: tiny_eval(),
        top_k: 3,
        client: Some(client.to_string()),
        ..AttackRequest::fast(Benchmark::C432)
    }
}

/// A server with the detector on: small windows and a hair trigger so a
/// live test flags a hammering client within a few hundred milliseconds.
fn detecting_server(countermeasure: Countermeasure) -> RunningServer {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 3,
        lru_capacity: 4,
        detect: DetectConfig {
            enabled: true,
            window_us: 150_000,
            trigger_windows: 1,
            countermeasure,
        },
    };
    start(&config, Arc::new(MemoryModelStore::new())).expect("bind ephemeral port")
}

fn metrics_of(server: &RunningServer) -> MetricsSnapshot {
    let r = httpc::get(&format!("{}/metrics", server.url()), TIMEOUT).expect("GET /metrics");
    assert_eq!(r.status, 200);
    serde_json::from_str(r.body_str().expect("metrics body")).expect("parse metrics")
}

#[test]
fn fixture_replays_byte_identically_and_flags_the_harvester() {
    let stream = fixture_stream();
    assert!(stream.len() > 200, "fixture must be non-trivial");
    let config = replay_config();

    // Two serial replays must serialise to the same bytes.
    let series_a = deepsplit_serve::detect::replay(&config, &stream);
    let series_b = deepsplit_serve::detect::replay(&config, &stream);
    let json_a = serde_json::to_string_pretty(&series_a).expect("serialise series");
    let json_b = serde_json::to_string_pretty(&series_b).expect("serialise series");
    assert_eq!(json_a, json_b, "replay must be byte-identical across runs");

    // Verdicts: the harvester is flagged, the honest client is not.
    let detector = Detector::new(config.clone());
    for obs in &stream {
        let d = detector.admit(&obs.client, obs.tick_us, obs.fingerprint);
        if d.action != Action::RateLimit {
            detector.enrich(&obs.client, &obs.candidates, &obs.sinks);
        }
    }
    let snap = detector.snapshot();
    assert_eq!(snap.observed_queries, stream.len());
    assert_eq!(snap.clients_tracked, 3);
    let flagged: Vec<&str> = snap.flagged.iter().map(|f| f.client.as_str()).collect();
    assert!(flagged.contains(&"mallory"), "flagged: {flagged:?}");
    assert!(!flagged.contains(&"alice"), "flagged: {flagged:?}");

    // Thread-count invariance: one shared detector, each client's stream
    // driven in order from its own thread; every client's end-of-stream
    // window must score identically to the serial replay's.
    let threaded = Arc::new(Detector::new(config));
    let clients = ["alice", "carol", "mallory"];
    let handles: Vec<_> = clients
        .iter()
        .map(|name| {
            let detector = Arc::clone(&threaded);
            let own: Vec<Observation> = stream
                .iter()
                .filter(|o| o.client == *name)
                .cloned()
                .collect();
            std::thread::spawn(move || {
                for obs in &own {
                    let d = detector.admit(&obs.client, obs.tick_us, obs.fingerprint);
                    if d.action != Action::RateLimit {
                        detector.enrich(&obs.client, &obs.candidates, &obs.sinks);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let tails: BTreeMap<String, _> = threaded.flush().into_iter().collect();
    for (client, series) in &series_a {
        let serial_tail = series.last().expect("non-empty serial series");
        assert_eq!(
            tails.get(client),
            Some(serial_tail),
            "client {client} scored differently under threads"
        );
    }
}

#[test]
fn probe_traffic_never_feeds_the_detector() {
    let server = detecting_server(Countermeasure::RateLimit);
    let base = server.url();
    for _ in 0..20 {
        let r = httpc::get(&format!("{base}/healthz"), TIMEOUT).expect("GET /healthz");
        assert_eq!(r.status, 200);
    }
    for _ in 0..5 {
        let r = httpc::get(&format!("{base}/metrics"), TIMEOUT).expect("GET /metrics");
        assert_eq!(r.status, 200);
    }
    let r = httpc::get(&format!("{base}/no-such-route"), TIMEOUT).expect("GET 404");
    assert_eq!(r.status, 404);

    let m = metrics_of(&server);
    assert!(m.detection.enabled);
    assert_eq!(
        m.detection.observed_queries, 0,
        "probes and routing errors must never enter detector windows"
    );
    assert_eq!(m.detection.clients_tracked, 0);
    assert_eq!(m.detection.windows_scored, 0);

    let r = httpc::get(&format!("{base}/metrics?format=prometheus"), TIMEOUT).expect("prom");
    let body = r.body_str().expect("prometheus body");
    assert!(body.contains("deepsplit_detection_enabled 1\n"), "{body}");
    assert!(body.contains("deepsplit_detection_observed_total 0\n"));
    assert!(body.contains("deepsplit_up 1\n"));
    server.shutdown();
}

#[test]
fn live_harvester_is_flagged_rate_limited_and_labelled() {
    let server = detecting_server(Countermeasure::RateLimit);
    let base = server.url();
    // A hostile client id: printable, but quote and backslash must survive
    // sanitisation and come out escaped in the Prometheus exposition.
    let mallory = "mal\"lory\\";
    let spec = serde_json::to_string(&tiny_request(mallory)).expect("serialise spec");

    // Hammer until the detector pushes back. The first request trains the
    // model (seconds, its own quiet window); once the LRU is warm each lap
    // is milliseconds, so hot windows accumulate fast.
    let mut first_429 = None;
    for i in 0..300 {
        let r = httpc::post(&format!("{base}/attack"), spec.as_bytes(), TIMEOUT).expect("POST");
        match r.status {
            200 => {}
            429 => {
                first_429 = Some(i);
                break;
            }
            other => panic!("unexpected HTTP {other}"),
        }
    }
    let first_429 = first_429.expect("a hammering client must get rate limited");
    assert!(first_429 > 0, "the very first request cannot be flagged");

    // An honest client is untouched.
    let alice = serde_json::to_string(&tiny_request("alice")).expect("serialise spec");
    let r = httpc::post(&format!("{base}/attack"), alice.as_bytes(), TIMEOUT).expect("POST");
    assert_eq!(r.status, 200, "honest traffic must still be served");

    let m = metrics_of(&server);
    assert!(m.detection.enabled);
    assert_eq!(m.detection.flagged_clients, 1);
    assert_eq!(
        m.detection.flagged.first().map(|f| f.client.as_str()),
        Some(mallory)
    );
    assert!(m.detection.rate_limited > 0);
    assert!(m.detection.flags_raised >= 1);
    assert!(m.detection.observed_queries >= first_429 + 2);
    assert!(m.uptime_seconds > 0.0);

    let r = httpc::get(&format!("{base}/metrics?format=prometheus"), TIMEOUT).expect("prom");
    let body = r.body_str().expect("prometheus body");
    assert!(
        body.contains("deepsplit_detection_score{client=\"mal\\\"lory\\\\\"}"),
        "hostile client id must be escaped in labels:\n{body}"
    );
    assert!(body.contains("deepsplit_detection_flagged_clients 1\n"));
    // The raw quote must never open a label injection: every exposition
    // line still parses as HELP/TYPE/series.
    for line in body.lines() {
        let valid = line.starts_with("# HELP ")
            || line.starts_with("# TYPE ")
            || line
                .rsplit_once(' ')
                .map(|(series, value)| !series.is_empty() && value.parse::<f64>().is_ok())
                .unwrap_or(false);
        assert!(valid, "malformed exposition line: {line:?}");
    }
    server.shutdown();
}

#[test]
fn deception_is_invisible_stable_and_collapses_confidence() {
    // In-process (no sockets): drive AttackServer::handle directly.
    let config = ServeConfig {
        addr: String::new(),
        threads: 1,
        lru_capacity: 4,
        detect: DetectConfig {
            enabled: true,
            window_us: 120_000,
            trigger_windows: 1,
            countermeasure: Countermeasure::Deceive,
        },
    };
    let server = AttackServer::new(&config, Arc::new(MemoryModelStore::new()));
    let spec = serde_json::to_string(&tiny_request("eve")).expect("serialise spec");
    let post = || {
        let response = server.handle(&Request {
            method: "POST".to_string(),
            path: "/attack".to_string(),
            body: spec.clone().into_bytes(),
            peer: None,
        });
        assert_eq!(response.status, 200, "deception must never refuse");
        String::from_utf8(response.body).expect("utf-8 response")
    };

    let honest = post();
    let honest_response: AttackResponse = serde_json::from_str(&honest).expect("parse honest");
    // Hammer until the telemetry says a deceptive response was served
    // (bodies cannot be compared directly: `inference_ms` varies per run).
    let mut deceived = None;
    for _ in 0..400 {
        let body = post();
        if server.metrics_snapshot().detection.deceived > 0 {
            deceived = Some(body);
            break;
        }
    }
    let deceived = deceived.expect("a hammering client must eventually be deceived");
    let deceived_response: AttackResponse =
        serde_json::from_str(&deceived).expect("deceived response must keep the wire schema");

    // Nothing marks the response as deceived.
    assert!(!deceived.contains("deceive"), "deception must be invisible");
    assert_eq!(deceived_response.fingerprint, honest_response.fingerprint);
    assert_eq!(
        deceived_response.rankings.len(),
        honest_response.rankings.len()
    );
    // Same candidates per sink (as sets) — only order and confidence move.
    for (d, h) in deceived_response
        .rankings
        .iter()
        .zip(&honest_response.rankings)
    {
        assert_eq!(d.sink, h.sink);
        let mut ds: Vec<u32> = d.candidates.iter().map(|c| c.source).collect();
        let mut hs: Vec<u32> = h.candidates.iter().map(|c| c.source).collect();
        ds.sort_unstable();
        hs.sort_unstable();
        assert_eq!(ds, hs, "sink {}", d.sink);
        // Confidences are flattened: the top pick is never better than the
        // near-uniform 2/(n+1) profile allows.
        if let Some(top) = d.candidates.first() {
            let n = d.candidates.len() as f64;
            assert!(
                top.confidence <= 2.0 / (n + 1.0) + 1e-9,
                "sink {} top confidence {} not collapsed",
                d.sink,
                top.confidence
            );
        }
    }
    // The deceptive rankings really differ from the honest ones…
    assert_ne!(
        deceived_response.rankings, honest_response.rankings,
        "deception must actually move the rankings"
    );
    // …and they are deterministic: the flagged client replaying the same
    // request gets the same rankings and CCRs — probing for deception by
    // repetition reveals nothing (timing fields aside).
    let again: AttackResponse = serde_json::from_str(&post()).expect("parse replay");
    assert_eq!(
        again.rankings, deceived_response.rankings,
        "deception must be stable per (client, spec)"
    );
    assert_eq!(again.dl_ccr, deceived_response.dl_ccr);
    assert_eq!(again.expected_ccr, deceived_response.expected_ccr);

    // Telemetry sees it even though the client cannot.
    let snap = server.metrics_snapshot();
    assert!(snap.detection.deceived > 0);
    assert_eq!(snap.detection.flagged_clients, 1);
    assert_eq!(snap.errors, 0, "deception serves 200s, not errors");
}
