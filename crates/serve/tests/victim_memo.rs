//! The victim memo: a warm `POST /attack` reuses the defended, prepared
//! design of its victim spec and still runs inference. Entries are bounded,
//! keyed by the victim and not by the model alone, shared by requests that
//! differ only outside the victim, and a hit answers what a miss answers.
//!
//! Every server here is driven in-process through `AttackServer::handle`,
//! over a store that already holds the one tiny model the tests share.

use deepsplit_core::attack::attack_ranked;
use deepsplit_core::config::AttackConfig;
use deepsplit_core::dataset::PreparedDesign;
use deepsplit_core::store::{MemoryModelStore, ModelStore};
use deepsplit_core::train::TrainedAttack;
use deepsplit_defense::eval::{EvalBase, EvalConfig};
use deepsplit_defense::service::{rankings_of, AttackRequest, AttackResponse, SinkRanking};
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_serve::server::VICTIM_CACHE_CAPACITY;
use deepsplit_serve::{AttackServer, LruCounters, Request, ServeConfig};
use std::sync::{Arc, OnceLock};

/// The tiny protocol of `serve_suite`: c432 split after M3, a c880 corpus.
fn tiny_request() -> AttackRequest {
    AttackRequest {
        eval: EvalConfig {
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
        },
        top_k: 3,
        ..AttackRequest::fast(Benchmark::C432)
    }
}

fn post(server: &AttackServer, spec: &AttackRequest) -> AttackResponse {
    let response = server.handle(&Request {
        method: "POST".to_string(),
        path: "/attack".to_string(),
        body: serde_json::to_string(spec)
            .expect("serialise request")
            .into_bytes(),
        peer: None,
    });
    let body = String::from_utf8(response.body).expect("UTF-8 body");
    assert_eq!(response.status, 200, "{body}");
    serde_json::from_str(&body).expect("parse response")
}

/// The tiny model, trained once per test binary by a server of its own.
fn model() -> &'static TrainedAttack {
    static MODEL: OnceLock<TrainedAttack> = OnceLock::new();
    MODEL.get_or_init(|| {
        let store = Arc::new(MemoryModelStore::new());
        let server = AttackServer::new(&ServeConfig::default(), store.clone());
        let spec = tiny_request();
        assert!(
            !post(&server, &spec).model_cached,
            "the first request trains"
        );
        store
            .load(&spec.fingerprint())
            .expect("the trained model is stored")
    })
}

/// A fresh server whose store holds the tiny model under each spec's key.
fn warm_server(specs: &[&AttackRequest]) -> AttackServer {
    let store = MemoryModelStore::new();
    for spec in specs {
        store.save(&spec.fingerprint(), model());
    }
    AttackServer::new(&ServeConfig::default(), Arc::new(store))
}

/// The rankings `spec` gets from in-process `attack_ranked`, with the
/// victim built from scratch.
fn reference(spec: &AttackRequest) -> Vec<SinkRanking> {
    let bench = spec.victim().expect("known benchmark");
    let base = EvalBase::build(bench, &spec.eval);
    let layer = spec.layer();
    let defended =
        deepsplit_defense::apply(&base.victim, &spec.eval.implement, layer, &spec.defense);
    let prepared = PreparedDesign::prepare(&defended.design, layer, &spec.eval.attack);
    rankings_of(
        &attack_ranked(model(), &prepared, spec.top_k, 1),
        &prepared.view,
    )
}

fn victims(server: &AttackServer) -> LruCounters {
    server.metrics_snapshot().victim_cache
}

/// More victims than the memo holds: it never grows past its capacity, and
/// the evicted one is rebuilt with the rankings it had.
#[test]
fn memo_is_bounded_and_rebuilds_evicted_victims() {
    let specs: Vec<AttackRequest> = (0..=VICTIM_CACHE_CAPACITY as u64)
        .map(|i| {
            let mut spec = tiny_request();
            spec.eval.victim_seed += i;
            spec
        })
        .collect();
    let server = warm_server(&[&specs[0]]);
    let first = post(&server, &specs[0]);
    for spec in &specs[1..] {
        post(&server, spec);
        assert!(victims(&server).len <= VICTIM_CACHE_CAPACITY);
    }
    let full = victims(&server);
    assert_eq!((full.misses, full.evictions), (specs.len(), 1), "{full:?}");
    let rebuilt = post(&server, &specs[0]);
    assert_eq!(
        victims(&server).misses,
        specs.len() + 1,
        "rebuilt, not kept"
    );
    assert_eq!(victims(&server).len, VICTIM_CACHE_CAPACITY);
    assert_eq!(rebuilt.rankings, first.rankings);
    assert_eq!(rebuilt.rankings, reference(&specs[0]));
}

/// One model fingerprint, three victims: a key made from the fingerprint
/// alone would answer the second and third with the first one's rankings.
#[test]
fn victims_that_share_a_model_get_entries_of_their_own() {
    let c432 = tiny_request();
    let mut c1355 = tiny_request();
    c1355.benchmark = Benchmark::C1355.name().to_string();
    let mut reseeded = tiny_request();
    reseeded.eval.victim_seed += 1;
    for spec in [&c1355, &reseeded] {
        assert_eq!(spec.fingerprint(), c432.fingerprint(), "one model");
    }
    let server = warm_server(&[&c432]);
    let answers: Vec<Vec<SinkRanking>> = [&c432, &c1355, &reseeded]
        .into_iter()
        .map(|spec| {
            let rankings = post(&server, spec).rankings;
            assert_eq!(rankings, reference(spec), "{}", spec.benchmark);
            rankings
        })
        .collect();
    assert_ne!(answers[0], answers[1]);
    assert_ne!(answers[0], answers[2]);
    let counters = victims(&server);
    assert_eq!((counters.misses, counters.hits, counters.len), (3, 0, 3));
}

/// `top_k`, `client`, `include_flow` and `attack.threads` shape the answer
/// or its scheduling, not the victim: all five requests use one entry.
#[test]
fn requests_that_differ_outside_the_victim_share_an_entry() {
    let spec = tiny_request();
    let server = warm_server(&[&spec]);
    let mut top_k = spec.clone();
    top_k.top_k = 0;
    let mut client = spec.clone();
    client.client = Some("mallory".to_string());
    let mut flow = spec.clone();
    flow.include_flow = true;
    let mut threads = spec.clone();
    threads.eval.attack.threads = 7;
    for variant in [&spec, &top_k, &client, &flow, &threads] {
        post(&server, variant);
    }
    let counters = victims(&server);
    assert_eq!((counters.misses, counters.hits, counters.len), (1, 4, 1));
}

/// A request that finds its model and its victim in memory asks the layout
/// cache for nothing; the miss that filled the memo asked it once.
#[test]
fn a_warm_request_builds_no_layouts() {
    let spec = tiny_request();
    let server = warm_server(&[&spec]);
    post(&server, &spec);
    let layouts = server.metrics_snapshot().layout_cache;
    assert_eq!((layouts.misses, layouts.len), (1, 1), "{layouts:?}");
    for _ in 0..3 {
        post(&server, &spec);
    }
    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.layout_cache, layouts, "no layout lookups");
    assert_eq!(snapshot.victim_cache.hits, 3);
    assert!(snapshot.lru.hits >= 3, "the model came from the LRU");
}

/// An answer with its timing fields zeroed, as compact JSON.
fn timeless(mut response: AttackResponse) -> String {
    response.inference_ms = 0.0;
    response.resolve_ms = 0.0;
    serde_json::to_string(&response).expect("serialise response")
}

/// A memo hit answers the bytes a miss answers, with and without the
/// network-flow baseline.
#[test]
fn a_memo_hit_answers_the_bytes_of_a_miss() {
    for include_flow in [false, true] {
        let spec = AttackRequest {
            include_flow,
            ..tiny_request()
        };
        let server = warm_server(&[&spec]);
        let miss = post(&server, &spec);
        let hit = post(&server, &spec);
        let counters = victims(&server);
        assert_eq!((counters.misses, counters.hits), (1, 1));
        assert_eq!(miss.flow.is_some(), include_flow);
        assert_eq!(timeless(hit), timeless(miss), "include_flow {include_flow}");
    }
}
