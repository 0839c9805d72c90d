//! # deepsplit-serve
//!
//! The attack as a **service**: a dependency-light HTTP/1.1 server (worker
//! threads accepting on one std [`std::net::TcpListener`] — no async
//! runtime, matching the workspace's compat-shim philosophy) that turns the
//! trained DAC'19 attack into an online adversary and the model store into
//! shared fleet infrastructure. The listen backlog is its only connection
//! queue, so it holds at most one accepted connection per worker, and it
//! reads requests with the same bounded reader as the client
//! ([`deepsplit_core::httpc::read_message`]).
//!
//! Two APIs on one port:
//!
//! * **Model-blob API** — `GET`/`PUT /models/{fingerprint}` over any
//!   [`deepsplit_core::store::ModelStore`] backend. Point sharded
//!   `defense_matrix` workers at it with `--store-url` (the client side is
//!   [`deepsplit_core::store::RemoteModelStore`]) and a whole fleet warms
//!   one cache: the second machine to need a model downloads it instead of
//!   training it.
//! * **Inference API** — `POST /attack` accepts a serialized FEOL cell spec
//!   ([`deepsplit_defense::service::AttackRequest`]), resolves the model
//!   through `train_or_load` against the same store, and returns ranked
//!   candidate matches with CCR-style confidences
//!   ([`deepsplit_defense::service::AttackResponse`]).
//!
//! Between the two sits the serving machinery: in-process LRUs ([`lru`]) of
//! deserialized models, implemented layouts and defended, prepared victims
//! (so a repeated `/attack` spec pays for inference only), single-flight
//! request batching (N concurrent requests for one cold model cost one
//! training run), and a `/metrics` endpoint ([`metrics`]) surfacing store
//! and cache counters, coalescing stats and latency percentiles.
//!
//! `POST /attack` can also pass a query-stream adversary detector
//! ([`detect`]), off by default. The red-team traffic it is judged against
//! (live request shapes, offline streams and the `BENCH_detect.json` ROC)
//! is not part of the server: it lives beside the load generator that
//! sends it, in `deepsplit_bench::redteam`.
//!
//! ```no_run
//! use deepsplit_core::store::DiskModelStore;
//! use deepsplit_serve::{start, ServeConfig};
//! use std::sync::Arc;
//!
//! let store = Arc::new(DiskModelStore::open(".model-store").unwrap());
//! let server = start(&ServeConfig::default(), store).unwrap();
//! eprintln!("serving on {}", server.url());
//! server.wait(); // foreground until shutdown
//! ```

pub mod detect;
pub mod http;
pub mod lru;
pub mod metrics;
pub mod server;
mod window;

pub use detect::{
    deceive_response, Action, Countermeasure, Decision, DetectConfig, DetectionSnapshot, Detector,
    Observation, WindowScore,
};
pub use http::{Request, Response};
pub use lru::{Lru, LruCounters, ModelLru};
pub use metrics::{CacheCounters, EndpointLatencies, LatencySnapshot, Metrics, MetricsSnapshot};
pub use server::{start, AttackServer, RunningServer, ServeConfig};
