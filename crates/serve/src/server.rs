//! The attack server: routes, model resolution and the evaluation pipeline
//! behind `POST /attack`.
//!
//! | route | behaviour |
//! |-------|-----------|
//! | `GET /healthz` | liveness probe (`200 ok`) |
//! | `GET /metrics` | JSON [`MetricsSnapshot`] |
//! | `GET /metrics?format=prometheus` | Prometheus text exposition |
//! | `GET /models/{fingerprint}` | model blob from the backing store (`application/octet-stream`, `404` on miss) |
//! | `PUT /models/{fingerprint}` | store a model blob (`204`; `400` for bytes that are not a blob of this build) |
//! | `POST /attack` | ranked inference for a serialized FEOL cell spec |
//!
//! `/attack` resolution batches across the worker pool: concurrent requests
//! that resolve to the same corpus fingerprint elect one leader to run
//! `train_or_load` while the rest wait on a condvar and then read the
//! deserialized model from the in-process LRU — N simultaneous requests for
//! a cold cell cost one training run, not N.
//!
//! A warm `/attack` runs inference, not layout work. What a request's victim
//! spec alone decides (the defended layout, its split, candidates and
//! features, the proximity CCR and the broken-pin total) is built once and
//! kept in a bounded memo of [`VICTIM_CACHE_CAPACITY`] victims, keyed by
//! the layout protocol together with the model fingerprint. Every request
//! still resolves its model, ranks, scores and passes the detector, so no
//! whole response is memoized: a cached answer would stop running the
//! attack it reports, and the detector's deceived rankings are salted per
//! client.
//!
//! What one request can make the server do is bounded before it is paid
//! for: an `/attack` body over [`MAX_ATTACK_BODY_BYTES`] answers `413`
//! before it is parsed, `AttackRequest::validate` bounds every knob that
//! sets training or inference cost, and each request trains, prepares and
//! infers on one thread.
//!
//! When the query-stream adversary detector is enabled
//! ([`ServeConfig::detect`]), every `/attack` arrival is admitted through it
//! first: flagged clients are answered `429` or served deceptively re-noised
//! rankings, per the configured [`crate::detect::Countermeasure`]. Probe
//! routes (`/healthz`, `/metrics`) never touch the detector.

use crate::detect::{deceive_response, fingerprint_id, response_ids, Action, Detector};
use crate::http::{self, Request, Response, Server};
use crate::lru::{Lru, ModelLru};
use crate::metrics::{CacheCounters, Endpoint, Metrics, MetricsSnapshot};
use crate::window::hash_str;
use deepsplit_core::attack::attack_ranked;
use deepsplit_core::fingerprint::{CorpusFingerprint, StableHasher};
use deepsplit_core::store::ModelStore;
use deepsplit_core::sync::lock_or_recover;
use deepsplit_core::train::{train_or_load, TrainedAttack};
use deepsplit_defense::eval::{defended_corpus, EvalBase, EvalConfig, Victim};
use deepsplit_defense::service::{
    canonical_train_eval, expected_ccr, rankings_of, AttackRequest, AttackResponse,
};
use deepsplit_flow::attack::network_flow_attack;
use deepsplit_flow::metrics::ccr;
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_obs as obs;
use std::cell::OnceCell;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (tests).
    pub addr: String,
    /// HTTP worker threads.
    pub threads: usize,
    /// Deserialized-model LRU capacity (`0` disables it).
    pub lru_capacity: usize,
    /// Query-stream adversary detection (disabled by default).
    pub detect: crate::detect::DetectConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8077".to_string(),
            threads: 4,
            lru_capacity: 16,
            detect: crate::detect::DetectConfig::default(),
        }
    }
}

/// Threads each `/attack` request spends training a model it resolves cold,
/// preparing its victim and on inference, whatever the request's
/// `attack.threads` says. All three give the same bits at every thread
/// count; one keeps concurrent requests from oversubscribing the workers.
const INFERENCE_THREADS: usize = 1;

/// Largest `POST /attack` body the server parses. The JSON parser builds a
/// value tree many times the size of its text before a field is read, so
/// the bound is checked first; a legitimate spec is a few kB (a compact
/// `AttackRequest::fast` is under 1 kB, and one naming 16 corpus
/// benchmarks and 3 image scales, pretty-printed, about 2 kB).
pub const MAX_ATTACK_BODY_BYTES: usize = 64 * 1024;

/// Evaluation protocols whose implemented layouts the server keeps: each
/// distinct `(benchmark, scale, seeds, implement, train_benchmarks)` a
/// client sends holds a victim and its corpus layouts until evicted.
pub(crate) const BASE_CACHE_CAPACITY: usize = 4;

/// Victim specs whose defended, prepared design the server keeps: each
/// distinct layout protocol, split layer, defense and attack feature config
/// a client sends holds one until evicted. The live red-team profiles query
/// three victims.
pub const VICTIM_CACHE_CAPACITY: usize = 8;

/// Single-flight registry: at most one in-flight resolution per fingerprint.
#[derive(Debug, Default)]
struct Inflight {
    resolving: Mutex<HashSet<CorpusFingerprint>>,
    done: Condvar,
}

impl Inflight {
    /// Tries to become the leader for `fp`; `false` means someone else is
    /// already resolving it.
    fn try_lead(&self, fp: CorpusFingerprint) -> bool {
        lock_or_recover(&self.resolving).insert(fp)
    }

    /// Blocks until no resolution for `fp` is in flight.
    fn wait(&self, fp: &CorpusFingerprint) {
        let mut resolving = lock_or_recover(&self.resolving);
        while resolving.contains(fp) {
            resolving = self
                .done
                .wait(resolving)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Ends `fp`'s resolution and wakes every waiter. Called from a drop
    /// guard so a panicking leader cannot strand its followers.
    fn finish(&self, fp: &CorpusFingerprint) {
        lock_or_recover(&self.resolving).remove(fp);
        self.done.notify_all();
    }
}

/// Removes the in-flight mark even if the leader panics mid-training.
struct InflightGuard<'a> {
    inflight: &'a Inflight,
    fp: CorpusFingerprint,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.finish(&self.fp);
    }
}

/// How a model was obtained for one `/attack` request.
struct ResolvedModel {
    model: Arc<TrainedAttack>,
    /// Whether any cache (LRU or store) supplied it.
    cached: bool,
    /// Epochs trained by *this* request (0 on any cache hit).
    epochs: usize,
}

/// The shared state behind every worker thread.
pub struct AttackServer {
    store: Arc<dyn ModelStore + Send + Sync>,
    lru: ModelLru,
    metrics: Metrics,
    inflight: Inflight,
    /// Implemented victim + corpus layouts per `(benchmark, eval)`: place &
    /// route dominates the cost of a victim or a model built cold. Fetched
    /// only when one is; the last [`BASE_CACHE_CAPACITY`] protocols.
    bases: Lru<EvalBase>,
    /// The defended, prepared [`Victim`] per spec, keyed by [`victim_key`]:
    /// repeat queries against one victim are the expected traffic shape,
    /// and without it defend → split → prepare is half a warm request. The
    /// last [`VICTIM_CACHE_CAPACITY`] specs. Responses are not memoized:
    /// each request still resolves its model, runs inference and passes
    /// the detector.
    victims: Lru<Victim>,
    detect: Detector,
    /// Monotonic origin of the detector's tick axis.
    started: Instant,
}

impl AttackServer {
    /// A server over `store` with `config`'s caching/threading knobs.
    pub fn new(config: &ServeConfig, store: Arc<dyn ModelStore + Send + Sync>) -> AttackServer {
        AttackServer {
            store,
            lru: ModelLru::new(config.lru_capacity),
            metrics: Metrics::new(),
            inflight: Inflight::default(),
            bases: Lru::new(BASE_CACHE_CAPACITY),
            victims: Lru::new(VICTIM_CACHE_CAPACITY),
            detect: Detector::new(config.detect.clone()),
            started: Instant::now(),
        }
    }

    /// A coherent metrics read-out (also what `GET /metrics` serves).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(
            self.store.counters(),
            self.cache_counters(),
            self.detect.snapshot(),
        )
    }

    fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            models: self.lru.counters(),
            victims: self.victims.counters(),
            layouts: self.bases.counters(),
        }
    }

    /// Routes one request. Panics inside a route (a broken store disk, a
    /// training assertion) are caught *here*, not just in the HTTP layer,
    /// so the resulting `500` still enters the request/error/latency
    /// metrics — the most serious failures must not be the invisible ones.
    pub fn handle(&self, req: &Request) -> Response {
        let started = Instant::now();
        let (endpoint, response) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.route(req)))
                .unwrap_or_else(|panic| {
                    (
                        Endpoint::Other,
                        Response::error(
                            500,
                            format!("handler panicked: {}", http::panic_message(&*panic)),
                        ),
                    )
                });
        self.metrics
            .record_request(endpoint, response.status, started.elapsed());
        response
    }

    fn route(&self, req: &Request) -> (Endpoint, Response) {
        // The query string selects representations (`?format=prometheus`),
        // never routes, so it is split off before matching.
        let (path, query) = match req.path.split_once('?') {
            Some((path, query)) => (path, query),
            None => (req.path.as_str(), ""),
        };
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => (Endpoint::Other, Response::text(200, "ok")),
            ("GET", "/metrics") => (Endpoint::Other, self.handle_metrics(query)),
            ("POST", "/attack") => (Endpoint::Attack, self.handle_attack(req)),
            (method, path) if path.starts_with("/models/") => {
                let hex = path.strip_prefix("/models/").unwrap_or(path);
                match (method, CorpusFingerprint::from_hex(hex)) {
                    (_, None) => (
                        Endpoint::Other,
                        Response::error(400, format!("`{hex}` is not a model fingerprint")),
                    ),
                    ("GET", Some(fp)) => (Endpoint::ModelGet, self.handle_model_get(&fp)),
                    ("PUT", Some(fp)) => (Endpoint::ModelPut, self.handle_model_put(&fp, req)),
                    _ => (
                        Endpoint::Other,
                        Response::error(405, format!("{method} not supported on {path}")),
                    ),
                }
            }
            (_, path) => (
                Endpoint::Other,
                Response::error(404, format!("no route for {path}")),
            ),
        }
    }

    fn handle_metrics(&self, query: &str) -> Response {
        if query.split('&').any(|kv| kv == "format=prometheus") {
            return Response::text(
                200,
                self.metrics.prometheus(
                    self.store.counters(),
                    self.cache_counters(),
                    &self.detect.snapshot(),
                ),
            );
        }
        match serde_json::to_string_pretty(&self.metrics_snapshot()) {
            Ok(json) => Response::json(200, json),
            Err(e) => Response::error(500, format!("serialise metrics: {e}")),
        }
    }

    fn handle_model_get(&self, fp: &CorpusFingerprint) -> Response {
        // Raw-bytes path: a blob is relayed without a decode and re-encode
        // on this, the fleet's hottest endpoint.
        match self.store.load_blob(fp) {
            Some(blob) => Response::bytes(200, blob),
            None => Response::error(404, format!("no model under {fp}")),
        }
    }

    fn handle_model_put(&self, fp: &CorpusFingerprint, req: &Request) -> Response {
        // Decode once to validate; the store then publishes the received
        // bytes verbatim instead of encoding the model again.
        let model = match TrainedAttack::from_blob(&req.body) {
            Ok(m) => m,
            Err(e) => return Response::error(400, format!("unreadable model: {e}")),
        };
        self.store.save_blob(fp, &req.body, &model);
        // A cached deserialization of the old blob must not outlive it.
        self.lru.invalidate(fp);
        Response::text(204, "")
    }

    fn handle_attack(&self, req: &Request) -> Response {
        let (spec, victim_bench) = match parse_attack(req) {
            Ok(parsed) => parsed,
            Err(refusal) => return refusal,
        };
        // Admit through the detector before paying for evaluation. A
        // rate-limited arrival still feeds the client's window (churn and
        // burstiness), which is what keeps a hammering client flagged.
        let fp = spec.fingerprint();
        let client = client_key(&spec, req);
        let tick_us = self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let fp_id = fingerprint_id(&fp.to_hex());
        let decision = self.detect.admit(&client, tick_us, fp_id);
        if let Some(window) = &decision.closed {
            obs::event("serve.detect.score", Some(window.score));
        }
        if decision.action == Action::RateLimit {
            obs::event("serve.detect.rate_limited", None);
            return Response::error(
                429,
                format!("client `{client}` is rate limited by the adversary detector"),
            );
        }
        let mut response = self.evaluate(&spec, victim_bench, fp);
        if decision.action == Action::Deceive {
            // Salted per (client, model): stable under repetition, different
            // across clients and specs.
            deceive_response(&mut response, hash_str(&client) ^ fp_id);
            obs::event("serve.detect.deceived", None);
        }
        let (candidates, sinks) = response_ids(&response);
        self.detect.enrich(&client, &candidates, &sinks);
        let _span = obs::span("serve.serialize");
        match serde_json::to_string(&response) {
            Ok(json) => Response::json(200, json),
            Err(e) => Response::error(500, format!("serialise attack response: {e}")),
        }
    }

    /// The full evaluation pipeline of one validated request.
    fn evaluate(
        &self,
        spec: &AttackRequest,
        victim_bench: Benchmark,
        fp: CorpusFingerprint,
    ) -> AttackResponse {
        let _request_span = obs::span("serve.attack");
        // The layouts are fetched only when a model or a victim has to be
        // built; a request that finds both in memory never asks for them.
        let base_cell = OnceCell::new();
        let base =
            || -> &EvalBase { base_cell.get_or_init(|| self.base_of(victim_bench, &spec.eval)) };
        let resolve_started = Instant::now();
        let resolved = {
            let _span = obs::span("serve.resolve");
            self.resolve_model(fp, base, spec)
        };
        let resolve_ms = resolve_started.elapsed().as_secs_f64() * 1000.0;
        let victim = self.victim_of(
            victim_key(base_key(victim_bench, &spec.eval), fp),
            spec,
            base,
        );

        // The server, not the request, sets how many threads inference
        // takes; the rankings are the same at every thread count.
        let view = &victim.prepared.view;
        let ranked = {
            let _span = obs::span("serve.infer");
            attack_ranked(
                &resolved.model,
                &victim.prepared,
                spec.top_k,
                INFERENCE_THREADS,
            )
        };
        let dl_ccr = ccr(view, &ranked.assignment());
        let rankings = rankings_of(&ranked, view);
        let design = &victim.defended.design;
        let flow = spec
            .include_flow
            .then(|| network_flow_attack(view, &design.netlist, &design.library, &spec.eval.flow));

        AttackResponse {
            benchmark: spec.benchmark.clone(),
            split_layer: spec.split_layer,
            fingerprint: fp.to_hex(),
            model_cached: resolved.cached,
            trained_epochs: resolved.epochs,
            dl_ccr,
            expected_ccr: expected_ccr(&rankings, view.total_broken_sinks()),
            chance_ccr: 1.0 / view.num_source_fragments().max(1) as f64,
            proximity_ccr: victim.proximity_ccr,
            flow,
            inference_ms: ranked.inference.as_secs_f64() * 1000.0,
            resolve_ms,
            rankings,
        }
    }

    /// The memoized [`Victim`] under `key`, built from `base()` on a miss.
    fn victim_of<'b>(
        &self,
        key: CorpusFingerprint,
        spec: &AttackRequest,
        base: impl FnOnce() -> &'b EvalBase,
    ) -> Arc<Victim> {
        let _span = obs::span("serve.victim");
        if let Some(victim) = self.victims.get(&key) {
            return victim;
        }
        // Built outside the lock, as the layouts are: a racing duplicate
        // build is wasted work, not a wrong answer.
        let built = Arc::new(Victim::build(
            base(),
            spec.layer(),
            &spec.defense,
            &spec.eval,
            INFERENCE_THREADS,
        ));
        self.victims.put(key, Arc::clone(&built));
        built
    }

    /// Resolves the model for `fp` through LRU → single-flight → store →
    /// training, in that order; only training reads the layouts (`base`).
    fn resolve_model<'b>(
        &self,
        fp: CorpusFingerprint,
        base: impl Fn() -> &'b EvalBase,
        spec: &AttackRequest,
    ) -> ResolvedModel {
        loop {
            if let Some(model) = self.lru.get(&fp) {
                return ResolvedModel {
                    model,
                    cached: true,
                    epochs: 0,
                };
            }
            if self.inflight.try_lead(fp) {
                let _guard = InflightGuard {
                    inflight: &self.inflight,
                    fp,
                };
                // Snapshot before touching the store: a concurrent
                // `PUT /models` overwrite invalidates the LRU, and this
                // resolution's (possibly already stale) deserialization
                // must then not be cached.
                let observed = self.lru.generation();
                let train_eval = canonical_train_eval(&spec.eval);
                let layer = spec.layer();
                let (model, report) = train_or_load(
                    &fp,
                    self.store.as_ref(),
                    &train_eval.attack,
                    INFERENCE_THREADS,
                    || defended_corpus(base(), layer, &spec.defense, &train_eval),
                );
                let trained_here = report.is_some();
                let epochs = report.map(|r| r.epoch_loss.len()).unwrap_or(0);
                if trained_here {
                    self.metrics.record_training(epochs);
                }
                let model = Arc::new(model);
                self.lru
                    .put_if_fresh(fp, Arc::clone(&model), Some(observed));
                return ResolvedModel {
                    model,
                    cached: !trained_here,
                    epochs,
                };
            }
            // Someone else is resolving this fingerprint: wait, then retry
            // (their result lands in the LRU, or in the store if the LRU is
            // disabled — either way the next lap is cheap).
            obs::event("serve.coalesced", None);
            self.metrics.record_coalesced();
            self.inflight.wait(&fp);
        }
    }

    /// One implemented [`EvalBase`] per distinct `(benchmark, layouts)`
    /// protocol, shared across requests.
    fn base_of(&self, bench: Benchmark, eval: &EvalConfig) -> Arc<EvalBase> {
        let key = base_key(bench, eval);
        if let Some(base) = self.bases.get(&key) {
            return base;
        }
        // Build outside the lock: implementing layouts takes seconds and
        // other benchmarks' requests should not queue behind it. A racing
        // duplicate build is wasted work, not wrong results.
        let built = Arc::new(EvalBase::build(bench, eval));
        self.bases.put(key, Arc::clone(&built));
        built
    }
}

/// Reads one `/attack` body: its length, UTF-8, JSON, then
/// [`AttackRequest::validate`].
///
/// # Errors
///
/// Returns the answer to the first problem found: `413` for a body over
/// [`MAX_ATTACK_BODY_BYTES`], `400` for any other.
fn parse_attack(req: &Request) -> Result<(AttackRequest, Benchmark), Response> {
    let _span = obs::span("serve.parse");
    if req.body.len() > MAX_ATTACK_BODY_BYTES {
        return Err(Response::error(
            413,
            format!(
                "attack request of {} bytes exceeds the {MAX_ATTACK_BODY_BYTES}-byte limit",
                req.body.len()
            ),
        ));
    }
    let bad = |problem: String| Response::error(400, problem);
    let json = req
        .body_str()
        .ok_or_else(|| bad("attack request is not UTF-8".to_string()))?;
    let spec: AttackRequest =
        serde_json::from_str(json).map_err(|e| bad(format!("unparsable attack request: {e}")))?;
    spec.validate().map_err(bad)?;
    // `validate` guarantees the benchmark resolves, but the request path
    // never banks on that with a panic.
    let victim = spec
        .victim()
        .ok_or_else(|| bad(format!("unknown benchmark `{}`", spec.benchmark)))?;
    Ok((spec, victim))
}

/// The detection key of one `/attack` request: the self-reported client id
/// (sanitised to printable ASCII, length-capped so a hostile id cannot bloat
/// labels or state), else the transport peer IP, else a shared bucket.
fn client_key(spec: &AttackRequest, req: &Request) -> String {
    if let Some(raw) = &spec.client {
        let cleaned: String = raw
            .chars()
            .filter(|c| c.is_ascii_graphic() || *c == ' ')
            .take(64)
            .collect();
        let trimmed = cleaned.trim();
        if !trimmed.is_empty() {
            return trimmed.to_string();
        }
    }
    req.peer.clone().unwrap_or_else(|| "anon".to_string())
}

/// Content address of everything that shapes an [`EvalBase`]: the benchmark
/// plus the layout-side evaluation knobs (implementation config, scale,
/// seeds, corpus list). Attack-side knobs are deliberately excluded — they
/// do not change the implemented layouts.
fn base_key(bench: Benchmark, eval: &EvalConfig) -> CorpusFingerprint {
    let mut h = StableHasher::new();
    h.write_str(bench.name());
    // splint::allow(P1, "a key that cannot be computed must abort the request (caught as a 500 by handle) rather than mint a wrong content address")
    let implement = serde_json::to_string(&eval.implement).expect("serialise implement config");
    h.write_str(&implement);
    h.write_f64(eval.scale);
    h.write_u64(eval.train_seed);
    h.write_u64(eval.victim_seed);
    for tb in &eval.train_benchmarks {
        h.write_str(tb.name());
    }
    h.finish()
}

/// The victim memo's key: the layout protocol ([`base_key`]) and the model
/// fingerprint together. Neither names a victim alone: the fingerprint
/// hashes the training corpus, not the victim benchmark or `victim_seed`,
/// and the base key leaves out the split layer, the defense and the attack
/// config.
fn victim_key(base: CorpusFingerprint, model: CorpusFingerprint) -> CorpusFingerprint {
    let mut h = StableHasher::new();
    for word in base.0.into_iter().chain(model.0) {
        h.write_u64(word);
    }
    h.finish()
}

/// A running attack server (HTTP listener + state), shut down on drop.
pub struct RunningServer {
    state: Arc<AttackServer>,
    server: Server,
}

/// Binds and starts an attack server over `store`.
///
/// # Errors
///
/// Returns the bind error.
pub fn start(
    config: &ServeConfig,
    store: Arc<dyn ModelStore + Send + Sync>,
) -> std::io::Result<RunningServer> {
    let state = Arc::new(AttackServer::new(config, store));
    let handler_state = Arc::clone(&state);
    let server = http::serve(
        &config.addr,
        config.threads,
        Arc::new(move |req: &Request| handler_state.handle(req)),
    )?;
    Ok(RunningServer { state, server })
}

impl RunningServer {
    /// The bound address (resolves an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr
    }

    /// Base URL clients should use, e.g. `http://127.0.0.1:8077`.
    pub fn url(&self) -> String {
        format!("http://{}", self.server.addr)
    }

    /// The shared server state (metrics, for assertions and reporting).
    pub fn state(&self) -> &AttackServer {
        &self.state
    }

    /// Stops accepting and joins every thread.
    pub fn shutdown(self) {
        self.server.shutdown();
    }

    /// Blocks this thread for the server's lifetime (foreground mode).
    pub fn wait(self) {
        self.server.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_core::store::conformance;
    use deepsplit_core::store::MemoryModelStore;

    #[test]
    fn single_flight_elects_exactly_one_leader() {
        let inflight = Inflight::default();
        let fp = conformance::key(1);
        assert!(inflight.try_lead(fp));
        assert!(!inflight.try_lead(fp), "second caller must not lead");
        inflight.finish(&fp);
        assert!(inflight.try_lead(fp), "finished fingerprints free the slot");
        inflight.finish(&fp);
    }

    #[test]
    fn inflight_guard_releases_on_panic() {
        let inflight = Inflight::default();
        let fp = conformance::key(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert!(inflight.try_lead(fp));
            let _guard = InflightGuard {
                inflight: &inflight,
                fp,
            };
            panic!("training exploded");
        }));
        assert!(caught.is_err());
        assert!(
            inflight.try_lead(fp),
            "a panicking leader must not strand its followers"
        );
        inflight.finish(&fp);
    }

    #[test]
    fn waiters_unblock_when_the_leader_finishes() {
        let inflight = Arc::new(Inflight::default());
        let fp = conformance::key(3);
        assert!(inflight.try_lead(fp));
        let waiter = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || inflight.wait(&fp))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        inflight.finish(&fp);
        waiter.join().expect("waiter must wake up");
    }

    #[test]
    fn route_panics_answer_500_and_enter_the_metrics() {
        use deepsplit_core::fingerprint::CorpusFingerprint;
        use deepsplit_core::store::StoreCounters;
        use deepsplit_core::train::TrainedAttack;

        /// A store whose disk is broken: every save panics, as
        /// `DiskModelStore::save` does on a failed publish.
        struct BrokenStore;
        impl deepsplit_core::store::ModelStore for BrokenStore {
            fn load(&self, _: &CorpusFingerprint) -> Option<TrainedAttack> {
                None
            }
            fn save(&self, _: &CorpusFingerprint, _: &TrainedAttack) {
                panic!("disk full");
            }
            fn counters(&self) -> StoreCounters {
                StoreCounters::default()
            }
        }

        let server = AttackServer::new(&ServeConfig::default(), Arc::new(BrokenStore));
        let body = conformance::model(1).to_blob();
        let response = server.handle(&Request {
            method: "PUT".to_string(),
            path: format!("/models/{}", conformance::key(1).to_hex()),
            body,
            peer: None,
        });
        assert_eq!(response.status, 500);
        let snapshot = server.metrics_snapshot();
        assert_eq!(
            snapshot.requests_total, 1,
            "a panicking route must still be counted"
        );
        assert_eq!(snapshot.errors, 1, "…and counted as an error");
        // A panicking handler is Other-class: visible in the per-endpoint
        // breakdown, excluded from the real-traffic headline.
        assert_eq!(snapshot.endpoints.other.samples, 1);
        assert_eq!(snapshot.latency.samples, 0);
    }

    /// More layout protocols than the cache holds: it never grows past its
    /// capacity, and a protocol whose base was evicted gets it rebuilt, with
    /// the same layouts.
    #[test]
    fn layout_cache_is_bounded_and_rebuilds_evicted_bases() {
        let server = AttackServer::new(&ServeConfig::default(), Arc::new(MemoryModelStore::new()));
        let eval = |victim_seed| EvalConfig {
            scale: 0.2,
            train_benchmarks: vec![Benchmark::C880],
            victim_seed,
            ..EvalConfig::fast()
        };
        let first = server.base_of(Benchmark::C432, &eval(0));
        for seed in 1..=BASE_CACHE_CAPACITY as u64 {
            server.base_of(Benchmark::C432, &eval(seed));
            assert!(server.bases.counters().len <= BASE_CACHE_CAPACITY);
        }
        assert_eq!(
            server.bases.counters().evictions,
            1,
            "the oldest protocol left"
        );
        let rebuilt = server.base_of(Benchmark::C432, &eval(0));
        assert!(!Arc::ptr_eq(&first, &rebuilt), "an evicted base is rebuilt");
        assert!(
            (&rebuilt.victim, &rebuilt.corpus) == (&first.victim, &first.corpus),
            "…with the same layouts"
        );
        assert_eq!(server.bases.counters().len, BASE_CACHE_CAPACITY);
    }

    #[test]
    fn base_key_tracks_layout_knobs_only() {
        let eval = EvalConfig::fast();
        let base = base_key(Benchmark::C432, &eval);
        assert_ne!(base, base_key(Benchmark::C880, &eval));

        let mut scaled = eval.clone();
        scaled.scale *= 0.5;
        assert_ne!(base, base_key(Benchmark::C432, &scaled));

        let mut seeded = eval.clone();
        seeded.victim_seed += 1;
        assert_ne!(base, base_key(Benchmark::C432, &seeded));

        // Attack-side knobs leave the layouts — and therefore the base —
        // untouched.
        let mut attack = eval.clone();
        attack.attack.epochs += 5;
        attack.attack.threads = 9;
        assert_eq!(base, base_key(Benchmark::C432, &attack));
    }

    #[test]
    fn unknown_routes_and_bad_fingerprints_answer_structured_errors() {
        let server = AttackServer::new(&ServeConfig::default(), Arc::new(MemoryModelStore::new()));
        let req = |method: &str, path: &str| Request {
            method: method.to_string(),
            path: path.to_string(),
            body: Vec::new(),
            peer: None,
        };
        assert_eq!(server.handle(&req("GET", "/healthz")).status, 200);
        assert_eq!(server.handle(&req("GET", "/nope")).status, 404);
        assert_eq!(server.handle(&req("GET", "/models/zz")).status, 400);
        assert_eq!(
            server
                .handle(&req(
                    "DELETE",
                    &format!("/models/{}", conformance::key(1).to_hex())
                ))
                .status,
            405
        );
        assert_eq!(
            server
                .handle(&req(
                    "GET",
                    &format!("/models/{}", conformance::key(1).to_hex())
                ))
                .status,
            404,
            "an absent model is 404, not an error"
        );
        let snapshot = server.metrics_snapshot();
        assert_eq!(snapshot.requests_total, 5);
        assert_eq!(snapshot.model_gets, 1);
        assert_eq!(
            snapshot.errors, 3,
            "routing errors count; a model-load miss does not"
        );
        assert_eq!(snapshot.store.misses, 1);
    }
}
