//! Every stage of a warm `POST /attack` has a span of its own: parse, the
//! request as a whole, the victim lookup, inference and serialization.
//!
//! This file is its own test binary, so the process-wide `deepsplit_obs`
//! recorder it installs sees only the spans of this one test.

use deepsplit_core::config::AttackConfig;
use deepsplit_core::store::MemoryModelStore;
use deepsplit_defense::eval::EvalConfig;
use deepsplit_defense::service::AttackRequest;
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_obs as obs;
use deepsplit_serve::{AttackServer, Request, ServeConfig};
use std::sync::Arc;

#[test]
fn each_request_stage_is_a_named_span() {
    assert!(obs::install(obs::DEFAULT_TRACE_CAPACITY), "first recorder");
    let recorder = obs::global().expect("recorder installed");
    let server = AttackServer::new(&ServeConfig::default(), Arc::new(MemoryModelStore::new()));
    let spec = AttackRequest {
        eval: EvalConfig {
            attack: AttackConfig {
                use_images: false,
                candidates: 8,
                epochs: 2,
                batch_size: 16,
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
    let request = Request {
        method: "POST".to_string(),
        path: "/attack".to_string(),
        body: serde_json::to_string(&spec)
            .expect("serialise request")
            .into_bytes(),
        peer: None,
    };
    for _ in 0..2 {
        let response = server.handle(&request);
        let body = String::from_utf8_lossy(&response.body);
        assert_eq!(response.status, 200, "{body}");
    }
    let table = obs::span_table(&recorder.events(), recorder.dropped());
    for name in [
        "serve.parse",
        "serve.attack",
        "serve.victim",
        "serve.infer",
        "serve.serialize",
    ] {
        assert_eq!(
            table.row(name).map(|r| r.count),
            Some(2),
            "{name}, one per request:\n{table}"
        );
    }
    assert_eq!(table.dropped, 0);
}
