//! Service-level invariants, each against an in-process server on an
//! ephemeral port: the remote backend honours the full [`ModelStore`]
//! conformance contract over real HTTP, the blob API round-trips exact
//! bytes, `POST /attack` serves ranked matches whose top-1 reproduces the
//! library attack, repeat requests hit the cache chain, and `/metrics`
//! accounts for all of it.

use deepsplit_core::config::AttackConfig;
use deepsplit_core::httpc;
use deepsplit_core::store::{conformance, MemoryModelStore, ModelStore, RemoteModelStore};
use deepsplit_defense::eval::EvalConfig;
use deepsplit_defense::service::{AttackRequest, AttackResponse};
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_serve::{start, MetricsSnapshot, RunningServer, ServeConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Generous per-read timeout: `/attack` may train a model first.
const TIMEOUT: Duration = Duration::from_secs(300);

fn test_server() -> RunningServer {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 3,
        lru_capacity: 4,
        inference_threads: 1,
        ..ServeConfig::default()
    };
    start(&config, Arc::new(MemoryModelStore::new())).expect("bind ephemeral port")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deepsplit-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

fn tiny_request() -> AttackRequest {
    AttackRequest {
        eval: tiny_eval(),
        top_k: 3,
        ..AttackRequest::fast(Benchmark::C432)
    }
}

/// The tiny request's store key. It must only ever move on purpose: a
/// moved key orphans every model a store holds for it.
#[test]
fn tiny_request_store_key_is_pinned() {
    assert_eq!(
        tiny_request().fingerprint().to_hex(),
        "25e3d4b22d6dc87a3aa5196c67f643c8"
    );
}

fn metrics_of(server: &RunningServer) -> MetricsSnapshot {
    let r = httpc::get(&format!("{}/metrics", server.url()), TIMEOUT).expect("GET /metrics");
    assert_eq!(r.status, 200);
    serde_json::from_str(r.body_str().expect("metrics body")).expect("parse metrics")
}

#[test]
fn remote_store_passes_conformance_over_http() {
    // Without a local cache: every operation crosses the wire.
    let server = test_server();
    let store = RemoteModelStore::open(server.url(), None).expect("connect");
    conformance::check(&store);
    let snapshot = server.state().metrics_snapshot();
    assert!(snapshot.model_gets >= 6, "loads must hit the blob API");
    assert_eq!(snapshot.model_puts, 4, "saves must hit the blob API");
    server.shutdown();

    // With a local write-through cache (fresh server, fresh keyspace): the
    // same contract holds when loads can short-circuit to disk.
    let server = test_server();
    let dir = tempdir("write-through");
    let store = RemoteModelStore::open(server.url(), Some(dir.clone())).expect("connect");
    conformance::check(&store);
    server.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn write_through_cache_answers_without_the_server() {
    let server = test_server();
    let dir = tempdir("offline");
    let store = RemoteModelStore::open(server.url(), Some(dir.clone())).expect("connect");
    let saved = conformance::model(5);
    store.save(&conformance::key(5), &saved);
    server.shutdown();

    // The server is gone; the write-through copy still serves the load.
    let back = store
        .load(&conformance::key(5))
        .expect("local write-through copy must satisfy the load");
    assert_eq!(conformance::encoding(&back), conformance::encoding(&saved));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn blob_api_round_trips_exact_bytes() {
    let server = test_server();
    let base = server.url();
    let key = conformance::key(11);
    let json = conformance::encoding(&conformance::model(11));

    let url = format!("{base}/models/{}", key.to_hex());
    assert_eq!(
        httpc::get(&url, TIMEOUT).expect("GET").status,
        404,
        "an absent blob is 404"
    );
    let put = httpc::put(&url, json.as_bytes(), TIMEOUT).expect("PUT");
    assert_eq!(put.status, 204);
    let got = httpc::get(&url, TIMEOUT).expect("GET");
    assert_eq!(got.status, 200);
    assert_eq!(
        got.body_str().expect("blob body"),
        json,
        "the blob API must return byte-identical JSON"
    );

    // Garbage uploads are refused, not stored.
    let bad = httpc::put(
        &format!("{base}/models/{}", conformance::key(12).to_hex()),
        b"{nope",
        TIMEOUT,
    )
    .expect("PUT garbage");
    assert_eq!(bad.status, 400);
    server.shutdown();
}

#[test]
fn attack_endpoint_serves_ranked_matches_and_caches_the_model() {
    let server = test_server();
    let url = format!("{}/attack", server.url());
    let spec = tiny_request();
    let body = serde_json::to_string(&spec).expect("serialise request");

    // Cold: the server must train (memory store, nothing to load).
    let r = httpc::post(&url, body.as_bytes(), TIMEOUT).expect("POST /attack");
    assert_eq!(r.status, 200, "body: {}", r.body_str().unwrap_or("?"));
    let cold: AttackResponse =
        serde_json::from_str(r.body_str().expect("response body")).expect("parse response");
    assert_eq!(cold.benchmark, "c432");
    assert_eq!(cold.split_layer, 3);
    assert!(!cold.model_cached, "cold request must train");
    assert!(cold.trained_epochs > 0);
    assert_eq!(cold.fingerprint, spec.fingerprint().to_hex());
    assert!(!cold.rankings.is_empty());
    for sink in &cold.rankings {
        assert!(sink.sink_pins > 0);
        assert!(!sink.candidates.is_empty() && sink.candidates.len() <= 3);
        let mut last = f64::INFINITY;
        for c in &sink.candidates {
            assert!((0.0..=1.0).contains(&c.confidence));
            assert!(c.confidence <= last, "rankings must be sorted");
            last = c.confidence;
        }
    }
    for v in [
        cold.dl_ccr,
        cold.expected_ccr,
        cold.chance_ccr,
        cold.proximity_ccr,
    ] {
        assert!((0.0..=1.0).contains(&v), "CCR-style score {v} out of range");
    }
    assert!(
        cold.dl_ccr > 2.0 * cold.chance_ccr,
        "the trained attack must beat chance on an undefended layout"
    );
    assert!(cold.inference_ms > 0.0);
    assert!(cold.flow.is_none(), "flow baseline only runs when asked");

    // Warm: same spec resolves from the LRU — zero epochs, identical verdict.
    let r = httpc::post(&url, body.as_bytes(), TIMEOUT).expect("POST /attack warm");
    assert_eq!(r.status, 200);
    let warm: AttackResponse =
        serde_json::from_str(r.body_str().expect("response body")).expect("parse response");
    assert!(warm.model_cached, "second request must hit the cache");
    assert_eq!(warm.trained_epochs, 0);
    assert_eq!(warm.rankings, cold.rankings, "cached model, identical bits");
    assert_eq!(warm.dl_ccr, cold.dl_ccr);

    // The flow baseline rides along when requested.
    let mut with_flow = spec.clone();
    with_flow.include_flow = true;
    let body = serde_json::to_string(&with_flow).expect("serialise request");
    let r = httpc::post(&url, body.as_bytes(), TIMEOUT).expect("POST /attack flow");
    assert_eq!(r.status, 200);
    let flow_response: AttackResponse =
        serde_json::from_str(r.body_str().expect("response body")).expect("parse response");
    assert!(
        flow_response.flow.is_some(),
        "flow verdict must be included"
    );

    // Metrics account for everything: three attacks, one training run, LRU
    // hits on the warm requests.
    let m = metrics_of(&server);
    assert_eq!(m.attacks, 3);
    assert_eq!(m.models_trained, 1, "one corpus, one training run");
    assert_eq!(m.epochs_trained, cold.trained_epochs);
    assert!(m.lru.hits >= 2, "warm requests must resolve from the LRU");
    assert_eq!(
        m.store.misses, 1,
        "only the cold request consulted the store"
    );
    assert_eq!(m.store.saves, 1, "the trained model was published");
    // The /metrics request snapshots before recording itself, so exactly
    // the three attack requests are guaranteed to have landed.
    assert!(m.latency.samples >= 3);
    assert!(m.latency.p99_ms >= m.latency.p50_ms);
    assert!(m.latency.p999_ms >= m.latency.p99_ms);
    assert!(m.endpoints.attack.samples >= 3, "per-endpoint breakdown");
    assert!(
        cold.resolve_ms > 0.0,
        "cold resolve covers the training run"
    );
    server.shutdown();
}

#[test]
fn metrics_separate_probe_traffic_and_speak_prometheus() {
    let server = test_server();
    let base = server.url();

    // Probe traffic only: health checks and metrics reads.
    for _ in 0..5 {
        assert_eq!(
            httpc::get(&format!("{base}/healthz"), TIMEOUT)
                .expect("healthz")
                .status,
            200
        );
    }
    let m = metrics_of(&server);
    assert_eq!(
        m.latency.samples, 0,
        "probes must not enter the real-traffic latency headline"
    );
    assert!(
        m.endpoints.other.samples >= 5,
        "…but must be visible in the Other class"
    );

    // One real request (a store miss) lands in the headline.
    let url = format!("{base}/models/{}", conformance::key(21).to_hex());
    assert_eq!(httpc::get(&url, TIMEOUT).expect("GET model").status, 404);
    let m = metrics_of(&server);
    assert_eq!(m.latency.samples, 1);
    assert_eq!(m.endpoints.model_get.samples, 1);

    // The same endpoint serves Prometheus text exposition on request.
    let prom = httpc::get(&format!("{base}/metrics?format=prometheus"), TIMEOUT)
        .expect("GET prometheus metrics");
    assert_eq!(prom.status, 200);
    let body = prom.body_str().expect("prometheus body");
    for series in [
        "# TYPE deepsplit_requests_total counter",
        "# TYPE deepsplit_request_latency_attack_seconds histogram",
        "deepsplit_request_latency_other_seconds_bucket{le=\"+Inf\"}",
        "deepsplit_request_latency_model_get_seconds_count 1",
        "deepsplit_errors_total 0",
    ] {
        assert!(body.contains(series), "missing `{series}` in:\n{body}");
    }
    // JSON stays the default representation.
    let json = httpc::get(&format!("{base}/metrics"), TIMEOUT).expect("GET metrics");
    assert!(json
        .body_str()
        .expect("json body")
        .trim_start()
        .starts_with('{'));
    server.shutdown();
}

#[test]
fn attack_endpoint_refuses_bad_specs() {
    let server = test_server();
    let url = format!("{}/attack", server.url());

    let r = httpc::post(&url, b"{not json", TIMEOUT).expect("POST garbage");
    assert_eq!(r.status, 400);

    let mut bad = tiny_request();
    bad.benchmark = "c999".to_string();
    let body = serde_json::to_string(&bad).expect("serialise request");
    let r = httpc::post(&url, body.as_bytes(), TIMEOUT).expect("POST unknown benchmark");
    assert_eq!(r.status, 400);
    assert!(
        r.body_str().expect("body").contains("unknown benchmark"),
        "error must say what was wrong"
    );

    let m = metrics_of(&server);
    assert_eq!(m.errors, 2);
    assert_eq!(
        m.models_trained, 0,
        "invalid specs must never reach training"
    );
    server.shutdown();
}

/// The training knobs are bounded at the boundary: one candidate used to
/// pass validation and panic in training (a 500).
#[test]
fn out_of_range_training_knobs_are_rejected_at_the_boundary() {
    use deepsplit_defense::service::{MAX_BATCH_SIZE, MAX_EPOCHS, MAX_IMAGE_PX};
    let server = test_server();
    let url = format!("{}/attack", server.url());
    let good = tiny_request().eval.attack;
    for (knob, attack) in [
        (
            "candidates",
            AttackConfig {
                candidates: 1,
                ..good.clone()
            },
        ),
        (
            "candidates",
            AttackConfig {
                candidates: 0,
                ..good.clone()
            },
        ),
        (
            "epochs",
            AttackConfig {
                epochs: MAX_EPOCHS + 1,
                ..good.clone()
            },
        ),
        (
            "batch_size",
            AttackConfig {
                batch_size: MAX_BATCH_SIZE + 1,
                ..good.clone()
            },
        ),
        (
            "image_px",
            AttackConfig {
                image_px: MAX_IMAGE_PX + 1,
                ..good.clone()
            },
        ),
    ] {
        let mut bad = tiny_request();
        bad.eval.attack = attack;
        let body = serde_json::to_string(&bad).expect("serialise request");
        let r = httpc::post(&url, body.as_bytes(), TIMEOUT).expect("POST bad knob");
        assert_eq!(r.status, 400, "{knob}: {:?}", r.body_str());
        assert!(
            r.body_str().expect("body").contains(knob),
            "error must name {knob}"
        );
    }
    let health = httpc::get(&format!("{}/healthz", server.url()), TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(
        metrics_of(&server).models_trained,
        0,
        "a refused request must never reach training"
    );
    server.shutdown();
}

/// Writes raw bytes to the server and returns whatever it answers — for
/// requests malformed enough that no HTTP client will produce them.
fn raw_roundtrip(addr: std::net::SocketAddr, payload: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    stream.write_all(payload).expect("send payload");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

#[test]
fn malformed_requests_answer_400_and_the_worker_survives() {
    let server = test_server();
    let addr = server.addr();

    // No method/path/version at all.
    let r = raw_roundtrip(addr, b"GARBAGE\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 400"), "got: {r:.60}");

    // A Content-Length that is not a number.
    let r = raw_roundtrip(
        addr,
        b"POST /attack HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    );
    assert!(r.starts_with("HTTP/1.1 400"), "got: {r:.60}");

    // A body larger than the server will ever buffer.
    let r = raw_roundtrip(
        addr,
        b"POST /attack HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
    );
    assert!(r.starts_with("HTTP/1.1 400"), "got: {r:.60}");

    // The workers must have survived all of it.
    let health = httpc::get(&format!("{}/healthz", server.url()), TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200, "bad requests must not kill workers");
    server.shutdown();
}

#[test]
fn oversized_header_answers_400_not_a_hung_worker() {
    let server = test_server();
    // A single 128 KiB header blows the 64 KiB head limit.
    let mut payload = b"GET /healthz HTTP/1.1\r\nX-Filler: ".to_vec();
    payload.extend(std::iter::repeat_n(b'a', 128 * 1024));
    payload.extend_from_slice(b"\r\n\r\n");
    let r = raw_roundtrip(server.addr(), &payload);
    assert!(r.starts_with("HTTP/1.1 400"), "got: {r:.60}");

    let health = httpc::get(&format!("{}/healthz", server.url()), TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    server.shutdown();
}

#[test]
fn out_of_range_eval_scale_is_rejected_at_the_boundary() {
    let server = test_server();
    let url = format!("{}/attack", server.url());
    let mut bad = tiny_request();
    bad.eval.scale = 0.0;
    let body = serde_json::to_string(&bad).expect("serialise request");
    let r = httpc::post(&url, body.as_bytes(), TIMEOUT).expect("POST zero scale");
    assert_eq!(r.status, 400);
    assert!(
        r.body_str().expect("body").contains("scale"),
        "error must name the offending field"
    );
    assert_eq!(
        metrics_of(&server).models_trained,
        0,
        "a degenerate scale must never reach layout or training"
    );
    server.shutdown();
}
