//! The server, not the request, sizes the threads of a warm `POST /attack`.
//!
//! This file is its own test binary, so the process-wide `deepsplit_obs`
//! recorder it installs sees only the spans of this one test.

use deepsplit_core::config::AttackConfig;
use deepsplit_core::httpc;
use deepsplit_core::store::MemoryModelStore;
use deepsplit_defense::eval::EvalConfig;
use deepsplit_defense::service::{AttackRequest, AttackResponse};
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_obs as obs;
use deepsplit_serve::{start, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

/// Generous per-read timeout: the first request trains the model.
const TIMEOUT: Duration = Duration::from_secs(300);

fn parallel_map_spans() -> usize {
    obs::global()
        .expect("recorder installed")
        .events()
        .iter()
        .filter(|e| e.name == "parallel_map")
        .count()
}

#[test]
fn warm_request_threads_do_not_size_server_work() {
    assert!(obs::install(obs::DEFAULT_TRACE_CAPACITY), "first recorder");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    };
    let server = start(&config, Arc::new(MemoryModelStore::new())).expect("bind ephemeral port");
    let request = AttackRequest {
        eval: EvalConfig {
            attack: AttackConfig {
                use_images: false,
                candidates: 8,
                epochs: 2,
                batch_size: 16,
                // Asks for more threads than the server grants.
                threads: 4,
                ..AttackConfig::fast()
            },
            scale: 0.4,
            train_benchmarks: vec![Benchmark::C880],
            train_query_cap: 150,
            ..EvalConfig::fast()
        },
        top_k: 3,
        ..AttackRequest::fast(Benchmark::C432)
    };
    let body = serde_json::to_string(&request).expect("serialise request");
    let url = format!("{}/attack", server.url());
    let post = || {
        let r = httpc::post(&url, body.as_bytes(), TIMEOUT).expect("POST /attack");
        assert_eq!(r.status, 200, "{:?}", r.body_str());
        let response: AttackResponse =
            serde_json::from_str(r.body_str().expect("UTF-8 body")).expect("parse response");
        response
    };

    let cold = post();
    assert!(!cold.model_cached, "the first request trains");
    let before = parallel_map_spans();
    let warm = post();
    assert!(warm.model_cached && warm.trained_epochs == 0);
    assert_eq!(
        parallel_map_spans(),
        before,
        "a warm request on a one-thread server must not fan out"
    );
}
