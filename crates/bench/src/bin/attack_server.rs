//! The attack-inference server binary, plus a load generator and the
//! adversary-detection red team for the CI perf/detection trajectories.
//! The red-team traffic, live and offline, is defined once in
//! `deepsplit_bench::redteam`.
//!
//! ```text
//! # Serve a disk-backed model store + ranked inference on port 8077:
//! cargo run --release --bin attack_server -- --cache-dir .model-store
//!
//! # Knobs: --addr HOST:PORT, --threads N (HTTP workers), --lru N
//! # (deserialized-model cache). Each request trains, prepares and infers
//! # on one thread.
//!
//! # Query-stream adversary detection (off by default): --detect turns it
//! # on; --detect-window-ms N sets the scoring window, --detect-trigger N
//! # the hot windows before flagging, and --countermeasure
//! # observe|rate-limit|deceive what flagged clients get.
//! cargo run --release --bin attack_server -- --detect --countermeasure rate-limit
//!
//! # Point sweep shards at it from other machines:
//! cargo run --release --bin defense_matrix -- --store-url http://HOST:8077 …
//!
//! # Query it directly:
//! curl -s http://HOST:8077/healthz
//! curl -s http://HOST:8077/metrics               # detection block included
//! curl -s http://HOST:8077/models/<fingerprint>  # model blob
//! curl -s -X POST http://HOST:8077/attack -d @spec.json
//!
//! # Load loop (req/s + p50/p90/p99/p99.9 + the server's own per-endpoint
//! # histogram percentiles into BENCH_serve.json). --concurrency N drives
//! # the loop from N worker threads sharing one request counter.
//! cargo run --release --bin attack_server -- \
//!     --loadgen http://HOST:8077 --requests 200 --concurrency 4 --json BENCH_serve.json
//!
//! # Red-team profiles against a live detector-enabled server: --profile
//! # benign|harvest|stealthy POSTs shaped /attack traffic under --client ID
//! # (429 answers count as `rate_limited`, not failures).
//! cargo run --release --bin attack_server -- \
//!     --loadgen http://HOST:8077 --profile harvest --client mallory --requests 40
//!
//! # Offline deterministic ROC artifact (no server involved):
//! cargo run --release --bin attack_server -- --detect-roc --json BENCH_detect.json
//!
//! # Server-side tracing: --trace PATH keeps a chrome://tracing file of
//! # request spans (parse/resolve/victim/infer/serialize) and coalesce
//! # events, rewritten every few seconds.
//! cargo run --release --bin attack_server -- --trace serve-trace.json
//! ```
//!
//! Without `--cache-dir` the store is in-memory: still shared across every
//! client of this server process, gone when it exits.

use deepsplit_bench::cli::{usize_arg, value_arg};
use deepsplit_bench::redteam::{percentile_ms, RocReport, TrafficProfile};
use deepsplit_core::httpc;
use deepsplit_core::store::{DiskModelStore, MemoryModelStore, ModelStore};
use deepsplit_serve::detect::Countermeasure;
use deepsplit_serve::{start, DetectionSnapshot, EndpointLatencies, MetricsSnapshot, ServeConfig};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The `BENCH_serve.json` artifact: one load-loop measurement.
#[derive(Debug, Clone, Serialize)]
struct ServeBenchReport {
    /// Server under test.
    url: String,
    /// Path every request hit (`/attack` for profile traffic).
    path: String,
    /// Requests attempted.
    requests: usize,
    /// Requests that did not answer 2xx (429s under a red-team profile are
    /// counted in `rate_limited` instead — they are the detector working).
    failures: usize,
    /// Successful requests whose latencies back the percentiles below.
    samples: usize,
    /// Requests answered `429 Too Many Requests` by the server's adversary
    /// detector (only expected under `--profile harvest`/`stealthy`).
    rate_limited: usize,
    /// Worker threads that drove the loop (`1` = the serial floor).
    concurrency: usize,
    /// Red-team traffic profile, when one was used.
    profile: Option<String>,
    /// Wall-clock of the whole loop in seconds.
    wall_s: f64,
    /// Successful requests per second.
    requests_per_sec: f64,
    /// Median request latency in milliseconds (client-side, exact).
    p50_ms: f64,
    /// 90th-percentile request latency in milliseconds.
    p90_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    p99_ms: f64,
    /// 99.9th-percentile request latency in milliseconds.
    p999_ms: f64,
    /// The server's own per-endpoint latency breakdown, scraped from
    /// `/metrics` after the loop (`null` when the scrape fails). Server
    /// percentiles are histogram-bucketed (~3 % error) and cover every
    /// request the process served, not just this loop's.
    server_endpoints: Option<EndpointLatencies>,
    /// The server's detection read-out after the loop (same scrape).
    server_detection: Option<DetectionSnapshot>,
}

/// Outcome tallies of one loadgen worker.
#[derive(Default)]
struct WorkerTally {
    latencies_us: Vec<u64>,
    failures: usize,
    rate_limited: usize,
}

/// Request loop against the server: `concurrency` workers share one request
/// counter, so exactly `requests` requests are sent in total. Without
/// `--profile` every request is a `GET path`; with one, each is a shaped
/// `POST /attack`.
#[allow(clippy::too_many_arguments)]
fn loadgen(
    base: &str,
    path: &str,
    requests: usize,
    concurrency: usize,
    profile: Option<TrafficProfile>,
    client: String,
    json_out: Option<String>,
) {
    let base = base.trim_end_matches('/').to_string();
    let timeout = Duration::from_secs(300);
    let next = Arc::new(AtomicUsize::new(0));
    let tallies: Arc<Mutex<Vec<WorkerTally>>> = Arc::new(Mutex::new(Vec::new()));
    let concurrency = concurrency.max(1);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            let next = Arc::clone(&next);
            let tallies = Arc::clone(&tallies);
            let base = base.clone();
            let client = client.clone();
            scope.spawn(move || {
                let mut tally = WorkerTally::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        break;
                    }
                    let outcome = match profile {
                        None => {
                            let url = format!("{base}{path}");
                            let t0 = Instant::now();
                            httpc::get(&url, timeout).map(|r| (r, t0.elapsed()))
                        }
                        Some(p) => {
                            std::thread::sleep(p.pause(i));
                            let spec = p.request(&client, i);
                            let body = serde_json::to_string(&spec).expect("serialise attack spec");
                            let t0 = Instant::now();
                            httpc::post(&format!("{base}/attack"), body.as_bytes(), timeout)
                                .map(|r| (r, t0.elapsed()))
                        }
                    };
                    match outcome {
                        Ok((r, elapsed)) if r.is_success() => {
                            tally
                                .latencies_us
                                .push(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
                        }
                        Ok((r, _)) if r.status == 429 && profile.is_some() => {
                            tally.rate_limited += 1;
                        }
                        Ok((r, _)) => {
                            eprintln!("loadgen: request {i} answered HTTP {}", r.status);
                            tally.failures += 1;
                        }
                        Err(e) => {
                            eprintln!("loadgen: request {i}: {e}");
                            tally.failures += 1;
                        }
                    }
                }
                tallies.lock().expect("collect worker tally").push(tally);
            });
        }
    });
    let wall = started.elapsed();
    let mut latencies_us: Vec<u64> = Vec::with_capacity(requests);
    let mut failures = 0usize;
    let mut rate_limited = 0usize;
    for tally in tallies.lock().expect("read worker tallies").drain(..) {
        latencies_us.extend(tally.latencies_us);
        failures += tally.failures;
        rate_limited += tally.rate_limited;
    }
    latencies_us.sort_unstable();
    // The server's own view of the same traffic (plus whatever else it
    // served) — best-effort: a scrape failure degrades the report, not the
    // run.
    let scraped = httpc::get(&format!("{base}/metrics"), timeout)
        .ok()
        .filter(|r| r.is_success())
        .and_then(|r| r.body_str().ok().map(str::to_string))
        .and_then(|body| serde_json::from_str::<MetricsSnapshot>(&body).ok());
    let report = ServeBenchReport {
        url: base.to_string(),
        path: if profile.is_some() {
            "/attack".to_string()
        } else {
            path.to_string()
        },
        requests,
        failures,
        samples: latencies_us.len(),
        rate_limited,
        concurrency,
        profile: profile.map(|p| p.name().to_string()),
        wall_s: wall.as_secs_f64(),
        requests_per_sec: latencies_us.len() as f64 / wall.as_secs_f64().max(1e-9),
        p50_ms: percentile_ms(&latencies_us, 0.50),
        p90_ms: percentile_ms(&latencies_us, 0.90),
        p99_ms: percentile_ms(&latencies_us, 0.99),
        p999_ms: percentile_ms(&latencies_us, 0.999),
        server_endpoints: scraped.as_ref().map(|m| m.endpoints),
        server_detection: scraped.map(|m| m.detection),
    };
    eprintln!(
        "loadgen: {} requests to {} in {:.2}s — {:.0} req/s, p50 {:.2}ms, p90 {:.2}ms, p99 {:.2}ms, p99.9 {:.2}ms, {} failures, {} rate-limited ({} workers)",
        report.requests,
        report.path,
        report.wall_s,
        report.requests_per_sec,
        report.p50_ms,
        report.p90_ms,
        report.p99_ms,
        report.p999_ms,
        report.failures,
        report.rate_limited,
        report.concurrency,
    );
    if failures > 0 {
        eprintln!(
            "loadgen: warning: {failures} of {requests} requests failed — percentiles cover only the {} successful samples",
            report.samples
        );
    }
    if let Some(path) = json_out {
        let json = serde_json::to_string_pretty(&report).expect("serialise bench report");
        std::fs::write(&path, json).expect("write bench report");
        eprintln!("wrote {path}");
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Offline detection ROC: the red-team streams through a fresh detector,
/// swept across thresholds — `BENCH_detect.json`.
fn detect_roc(args: &[String]) {
    let requests = usize_arg(args, "--requests", 240);
    let window_ms = usize_arg(args, "--window-ms", 1_000);
    let seed = usize_arg(args, "--seed", 42) as u64;
    let report = RocReport::run(requests, window_ms as u64 * 1_000, seed);
    eprintln!(
        "detect_roc: {} requests/profile, {window_ms}ms windows, seed {seed} — AUC harvest {:.4}, stealthy {:.4} (benign mean {:.3}, harvest mean {:.3})",
        report.requests_per_profile,
        report.auc_harvest_vs_benign,
        report.auc_stealthy_vs_benign,
        report.mean_benign_score,
        report.mean_harvest_score,
    );
    let json = serde_json::to_string_pretty(&report).expect("serialise ROC report");
    match value_arg(args, "--json") {
        Some(path) => {
            std::fs::write(&path, json).expect("write ROC report");
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// The flags of each mode that take a value; the switches `--detect` and
/// `--detect-roc` take none.
const SERVE_FLAGS: &[&str] = &[
    "--addr",
    "--threads",
    "--lru",
    "--cache-dir",
    "--trace",
    "--detect-window-ms",
    "--detect-trigger",
    "--countermeasure",
];
const LOADGEN_FLAGS: &[&str] = &[
    "--loadgen",
    "--requests",
    "--concurrency",
    "--path",
    "--profile",
    "--client",
    "--json",
];
const ROC_FLAGS: &[&str] = &["--requests", "--window-ms", "--seed", "--json"];

/// The usage text: every flag of the three modes, with its default.
fn usage() -> String {
    let serve = ServeConfig::default();
    let profiles = TrafficProfile::all().map(TrafficProfile::name).join("|");
    format!(
        "\
usage: attack_server [serve flags]
       attack_server --loadgen URL [loadgen flags]
       attack_server --detect-roc [roc flags]

Serve a model store and POST /attack (the default mode):
  --addr HOST:PORT          listen address (default {addr})
  --threads N               HTTP workers (default {threads})
  --lru N                   deserialized models kept (default {lru})
  --cache-dir DIR           disk-backed model store (default: in memory)
  --trace PATH              rewrite a chrome://tracing file every 5 s
  --detect                  turn query-stream adversary detection on
  --detect-window-ms N      detection window (default {window})
  --detect-trigger N        hot windows before a client is flagged (default {trigger})
  --countermeasure observe|rate-limit|deceive
                            what flagged clients get (default {countermeasure})

Load generator against a running server:
  --loadgen URL             the server, e.g. http://127.0.0.1:8077
  --requests N              requests to send (default 200)
  --concurrency N           client threads (default 1)
  --path PATH               GET path (default /healthz)
  --profile {profiles}
                            POST shaped /attack traffic instead
  --client ID               client key (default: the profile's name, or loadgen)
  --json PATH               write the report (BENCH_serve.json)

Offline detection ROC of the red-team profiles, no server:
  --detect-roc              this mode
  --requests N              requests per profile (default 240)
  --window-ms N             detection window (default 1000)
  --seed N                  traffic seed (default 42)
  --json PATH               write the report instead of printing it

  -h, --help                print this text and exit
",
        addr = serve.addr,
        threads = serve.threads,
        lru = serve.lru_capacity,
        window = serve.detect.window_us / 1_000,
        trigger = serve.detect.trigger_windows,
        countermeasure = serve.detect.countermeasure.name(),
    )
}

/// Prints the usage text and exits on `--help`, or on a flag that the
/// mode does not take (status 2, before anything binds or runs).
fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let problem = match arg.as_str() {
            "-h" | "--help" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            a if switches.contains(&a) => continue,
            a if valued.contains(&a) => match it.next() {
                Some(_) => continue,
                None => format!("{a} needs a value"),
            },
            a => format!("unknown flag `{a}`"),
        };
        eprint!("attack_server: {problem}\n\n{}", usage());
        std::process::exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--detect-roc") {
        check_flags(&args, ROC_FLAGS, &["--detect-roc"]);
    } else if args.iter().any(|a| a == "--loadgen") {
        check_flags(&args, LOADGEN_FLAGS, &[]);
    } else {
        check_flags(&args, SERVE_FLAGS, &["--detect"]);
    }

    if args.iter().any(|a| a == "--detect-roc") {
        detect_roc(&args);
        return;
    }

    if let Some(base) = value_arg(&args, "--loadgen") {
        let requests = usize_arg(&args, "--requests", 200);
        let concurrency = usize_arg(&args, "--concurrency", 1);
        let path = value_arg(&args, "--path").unwrap_or_else(|| "/healthz".to_string());
        let profile = value_arg(&args, "--profile").map(|p| {
            TrafficProfile::from_name(&p).unwrap_or_else(|| {
                let names = TrafficProfile::all().map(TrafficProfile::name).join("|");
                panic!("bad --profile `{p}` ({names})")
            })
        });
        let client = value_arg(&args, "--client")
            .or_else(|| profile.map(|p| p.name().to_string()))
            .unwrap_or_else(|| "loadgen".to_string());
        loadgen(
            &base,
            &path,
            requests,
            concurrency,
            profile,
            client,
            value_arg(&args, "--json"),
        );
        return;
    }

    let mut detect = ServeConfig::default().detect;
    detect.enabled = args.iter().any(|a| a == "--detect");
    detect.window_us = usize_arg(
        &args,
        "--detect-window-ms",
        (detect.window_us / 1_000) as usize,
    ) as u64
        * 1_000;
    detect.trigger_windows = usize_arg(&args, "--detect-trigger", detect.trigger_windows);
    if let Some(cm) = value_arg(&args, "--countermeasure") {
        detect.countermeasure = Countermeasure::from_name(&cm)
            .unwrap_or_else(|| panic!("bad --countermeasure `{cm}` (observe|rate-limit|deceive)"));
    }
    let config = ServeConfig {
        addr: value_arg(&args, "--addr").unwrap_or_else(|| "127.0.0.1:8077".to_string()),
        threads: usize_arg(&args, "--threads", ServeConfig::default().threads),
        lru_capacity: usize_arg(&args, "--lru", ServeConfig::default().lru_capacity),
        detect,
    };
    let store: Arc<dyn ModelStore + Send + Sync> = match value_arg(&args, "--cache-dir") {
        Some(dir) => {
            let store = DiskModelStore::open(&dir).expect("open model store");
            eprintln!("model store: {dir}");
            Arc::new(store)
        }
        None => {
            eprintln!("model store: in-memory (pass --cache-dir DIR to persist)");
            Arc::new(MemoryModelStore::new())
        }
    };

    // `wait()` below never returns, so a traced server exports from a
    // background thread: the trace file is rewritten in full every few
    // seconds (the recorder's fill-once buffer makes each rewrite a superset
    // of the last).
    if let Some(trace_path) = value_arg(&args, "--trace") {
        deepsplit_obs::install(deepsplit_obs::DEFAULT_TRACE_CAPACITY);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_secs(5));
            if let Err(e) = std::fs::write(&trace_path, deepsplit_obs::export_chrome_trace()) {
                eprintln!("trace export {trace_path}: {e}");
            }
        });
        eprintln!("tracing: chrome trace exported every 5s");
    }

    if config.detect.enabled {
        eprintln!(
            "detection: on — {}ms windows, trigger {}, countermeasure {}",
            config.detect.window_us / 1_000,
            config.detect.trigger_windows,
            config.detect.countermeasure.name(),
        );
    }
    let server = start(&config, store).expect("bind server address");
    eprintln!(
        "attack_server listening on http://{} ({} workers, LRU {})",
        server.addr(),
        config.threads,
        config.lru_capacity,
    );
    server.wait();
}
