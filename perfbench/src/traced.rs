//! The traced run: the same set-up as a measured run, then each untraced op
//! followed by the same op rebuilt from the layers' public calls with every
//! call wrapped in a span, so each op's time is attributed to the layer
//! that spent it.
//!
//! Span names are `<layer>.<call>`, with layers named after the crates:
//! `netlist`, `layout`, `defense`, `core`, `flow` and `serve`; the two
//! `bench.*` spans hold the rebuilt engine run and request handler. Each
//! span also opens a `deepsplit_obs` span, so the program's own `engine.*`,
//! `train_epoch`, `serve.*` and `parallel_map` spans land in the same Chrome
//! trace. The rebuild's own glue is not the program's, so the self time of
//! `engine` and `serve` comes from the program: its untraced `engine::run`
//! and `AttackServer::handle` minus the time their children take. `nn` runs
//! inside `core`'s calls; it is measured by a kernel probe at the shape the
//! workload's MLP runs.

use crate::stats::{beyond, median, process_cpu_ms, put, quantile, Metrics, Outcome};
use crate::workloads::{
    check_scores, measure, parse_response, rankings_json, setup_timed, trace_mark, ColdCell, Kind,
    Loaded, Plan, Seeds, WarmAttack, WorkDir,
};
use deepsplit_core::attack::{attack_ranked, attack_with_threads};
use deepsplit_core::config::AttackConfig;
use deepsplit_core::dataset::PreparedDesign;
use deepsplit_core::fingerprint::CorpusFingerprint;
use deepsplit_core::httpc;
use deepsplit_core::model::{AttackModel, LossKind, ModelKind};
use deepsplit_core::recover::functional_recovery;
use deepsplit_core::store::{DiskModelStore, ModelStore};
use deepsplit_core::train::{self, TrainedAttack};
use deepsplit_defense::eval::{
    corpus_fingerprint, AttackScores, EvalBase, EvalConfig, EvalOutcome,
};
use deepsplit_defense::service::{
    canonical_train_eval, expected_ccr, rankings_of, AttackRequest, AttackResponse,
};
use deepsplit_defense::sweep::{Cell, SweepConfig};
use deepsplit_defense::{apply, DefenseConfig};
use deepsplit_engine::MatrixReport;
use deepsplit_flow::attack::{network_flow_attack, FlowOutcome};
use deepsplit_flow::metrics::ccr;
use deepsplit_flow::proximity::proximity_attack;
use deepsplit_layout::design::Design;
use deepsplit_layout::geom::Layer;
use deepsplit_layout::split::split_design;
use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
use deepsplit_netlist::library::CellLibrary;
use deepsplit_nn::layers::Params;
use deepsplit_nn::tensor::Tensor;
use deepsplit_obs as obs;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Layers that own spans, in report order.
pub const LAYERS: [&str; 7] = [
    "netlist", "layout", "defense", "core", "flow", "engine", "serve",
];

/// Public calls whose time per op (children included) is reported as
/// `<call>_ms`, whether or not the workload makes them.
const CALLS: [&str; 16] = [
    "netlist.generate",
    "layout.implement",
    "layout.split",
    "defense.base",
    "defense.corpus",
    "defense.apply",
    "core.train",
    "core.store_load",
    "core.store_save",
    "core.prepare",
    "core.infer",
    "core.recovery",
    "flow.network_flow",
    "flow.proximity",
    "serve.parse",
    "serve.serialize",
];

struct Frame {
    started: Instant,
    children_ms: f64,
}

/// Times nested calls and keeps, per span name, the time inside the call
/// (`inclusive`) and the time not covered by a nested span (`exclusive`).
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Frame>,
    inclusive: BTreeMap<&'static str, f64>,
    exclusive: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// Runs `f` inside the span `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let _span = obs::span(name);
        self.stack.push(Frame {
            started: Instant::now(),
            children_ms: 0.0,
        });
        let out = f(self);
        let frame = self.stack.pop().expect("spans close in order");
        let total = frame.started.elapsed().as_secs_f64() * 1000.0;
        *self.inclusive.entry(name).or_default() += total;
        *self.exclusive.entry(name).or_default() += total - frame.children_ms;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ms += total;
        }
        out
    }

    fn take(&mut self) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
        (
            std::mem::take(&mut self.inclusive),
            std::mem::take(&mut self.exclusive),
        )
    }
}

/// Work counts of one traced op, measured where the work happens.
#[derive(Debug, Default, Clone)]
struct Counts {
    /// Candidate rows through training, forward and backward (all epochs).
    train_rows: f64,
    train_steps: f64,
    trainable_queries: f64,
    total_queries: f64,
    /// Candidate rows scored by inference.
    infer_rows: f64,
    /// Sum and count of DL CCRs, the check value.
    dl_ccr_sum: f64,
    cells: f64,
    /// Store entries this op read or wrote.
    touched: Vec<CorpusFingerprint>,
}

impl Counts {
    fn corpus(&mut self, corpus: &[PreparedDesign], epochs: usize, batch: usize) {
        let mut trainable = 0usize;
        for d in corpus {
            for (qi, set) in d.sets.iter().enumerate() {
                self.total_queries += 1.0;
                if d.target(qi).is_some() && set.candidates.len() >= 2 {
                    trainable += 1;
                    self.train_rows += (set.candidates.len() * epochs) as f64;
                }
            }
        }
        self.trainable_queries += trainable as f64;
        self.train_steps += (epochs * trainable.div_ceil(batch.max(1))) as f64;
    }

    fn scored(&mut self, prepared: &PreparedDesign, dl_ccr: f64) {
        self.infer_rows += prepared
            .sets
            .iter()
            .map(|s| s.candidates.len() as f64)
            .sum::<f64>();
        self.dl_ccr_sum += dl_ccr;
        self.cells += 1.0;
    }
}

/// Multiply-add FLOPs of one candidate row through the dense layers of the
/// model `config` trains, read off its 2-D weight matrices (`[in, out]` →
/// `2·in·out`).
fn forward_flops_per_row(config: &AttackConfig) -> f64 {
    let kind = if config.use_images {
        ModelKind::VecImg
    } else {
        ModelKind::VecOnly
    };
    let loss = if config.two_class {
        LossKind::TwoClass
    } else {
        LossKind::SoftmaxRegression
    };
    let channels = config.image_channels(3);
    let mut model = AttackModel::new(kind, loss, channels, config.seed);
    let mut flops = 0.0;
    model.visit_params(&mut |p| {
        if let [rows, cols] = p.value.shape() {
            flops += 2.0 * (*rows * *cols) as f64;
        }
    });
    flops
}

/// One traced op: span times, counts and wall time.
#[derive(Default)]
struct Traced {
    wall_ms: f64,
    inclusive: BTreeMap<&'static str, f64>,
    exclusive: BTreeMap<&'static str, f64>,
    counts: Counts,
    /// Store entry sizes this op read or wrote.
    model_bytes: f64,
    /// The paired untraced `engine::run` minus its children: the program's
    /// top-level `engine.*` spans and the base layouts it builds outside
    /// them (timed in the rebuild).
    engine_self_ms: f64,
    /// `warm_attack` only: HTTP round trip minus in-process handling.
    transport_ms: f64,
    handle_ms: f64,
    /// `warm_attack` only: transport plus `AttackServer::handle` minus the
    /// rebuilt handler's calls into other layers.
    serve_self_ms: f64,
    response_bytes: f64,
}

impl Traced {
    fn incl(&self, name: &str) -> f64 {
        self.inclusive.get(name).copied().unwrap_or(0.0)
    }

    fn excl(&self, name: &str) -> f64 {
        self.exclusive.get(name).copied().unwrap_or(0.0)
    }
}

/// Time inside the program's own top-level `engine.*` spans on this thread
/// since recorder event `mark`: model resolution and cell attacks, which is
/// all of `engine::run` at one thread except its glue and base layouts.
fn program_engine_spans_ms(mark: usize) -> f64 {
    let tid = obs::thread_id();
    obs::global().map_or(0.0, |r| {
        r.events()
            .iter()
            .skip(mark)
            .filter(|e| e.tid == tid && e.depth == 0 && e.name.starts_with("engine."))
            .filter_map(|e| e.dur_us)
            .map(|us| us as f64 / 1000.0)
            .sum()
    })
}

// ------------------------------------------------------------ engine rebuild

/// `EvalBase::build`, call by call.
fn build_base(t: &mut Tracer, bench: Benchmark, cfg: &EvalConfig) -> EvalBase {
    let lib = CellLibrary::nangate45();
    let nl = t.call("netlist.generate", |_| {
        generate_with(bench, cfg.scale, cfg.victim_seed, &lib)
    });
    let victim = t.call("layout.implement", |_| {
        Design::implement(nl, lib.clone(), &cfg.implement)
    });
    let mut corpus = Vec::new();
    for (i, &tb) in cfg
        .train_benchmarks
        .iter()
        .filter(|&&tb| tb != bench)
        .enumerate()
    {
        let nl = t.call("netlist.generate", |_| {
            generate_with(tb, cfg.scale, cfg.train_seed + i as u64, &lib)
        });
        corpus.push(t.call("layout.implement", |_| {
            Design::implement(nl, lib.clone(), &cfg.implement)
        }));
    }
    EvalBase {
        benchmark: bench,
        victim,
        corpus,
    }
}

/// `defended_corpus`, call by call.
fn defended_corpus(
    t: &mut Tracer,
    base: &EvalBase,
    layer: Layer,
    defense: &DefenseConfig,
    cfg: &EvalConfig,
) -> Vec<PreparedDesign> {
    base.corpus
        .iter()
        .map(|d| {
            let dd = t.call("defense.apply", |_| {
                apply(d, &cfg.implement, layer, defense)
            });
            t.call("core.prepare", |t| {
                let view = t.call("layout.split", |_| split_design(&dd.design, layer));
                let mut p = PreparedDesign::from_view(&dd.design, view, &cfg.attack);
                p.truncate_queries(cfg.train_query_cap, cfg.train_seed);
                p
            })
        })
        .collect()
}

/// `attack_cell`, call by call.
fn attack_cell(
    t: &mut Tracer,
    base: &EvalBase,
    cell: &Cell,
    cfg: &EvalConfig,
    trained: &TrainedAttack,
    counts: &mut Counts,
) -> EvalOutcome {
    let layer = cell.1;
    let defended = t.call("defense.apply", |_| {
        apply(&base.victim, &cfg.implement, layer, &cell.2)
    });
    let victim = t.call("core.prepare", |t| {
        let view = t.call("layout.split", |_| split_design(&defended.design, layer));
        PreparedDesign::from_view(&defended.design, view, &cfg.attack)
    });
    let outcome = t.call("core.infer", |_| attack_with_threads(trained, &victim, 1));
    let dl_ccr = t.call("flow.ccr", |_| ccr(&victim.view, &outcome.assignment));
    let proximity_ccr = t.call("flow.proximity", |_| {
        ccr(&victim.view, &proximity_attack(&victim.view))
    });
    let flow_ccr = t.call("flow.network_flow", |_| {
        match network_flow_attack(
            &victim.view,
            &defended.design.netlist,
            &defended.design.library,
            &cfg.flow,
        ) {
            FlowOutcome::Completed(a) => Some(ccr(&victim.view, &a)),
            FlowOutcome::TimedOut => None,
        }
    });
    let recovery = t.call("core.recovery", |_| {
        functional_recovery(
            &defended.design,
            &victim.view,
            &outcome.assignment,
            cfg.recovery_rounds,
            cfg.victim_seed,
        )
    });
    counts.scored(&victim, dl_ccr);
    EvalOutcome {
        benchmark: base.benchmark.name().to_string(),
        split_layer: layer.0,
        defense: defended.stats,
        scores: AttackScores {
            sink_fragments: victim.view.num_sink_fragments(),
            source_fragments: victim.view.num_source_fragments(),
            dl_ccr,
            flow_ccr,
            proximity_ccr,
            chance_ccr: 1.0 / victim.view.num_source_fragments().max(1) as f64,
            recovery,
        },
    }
}

/// `deepsplit_engine::run` with one thread and no artifacts, call by call:
/// base layouts per benchmark, one model per unique corpus fingerprint
/// (loaded, or trained and saved), then every cell attacked in order.
fn engine_run(
    t: &mut Tracer,
    sweep: &SweepConfig,
    store: &dyn ModelStore,
    counts: &mut Counts,
) -> Vec<EvalOutcome> {
    t.call("bench.engine_run", |t| {
        let cells: Vec<Cell> = sweep.shard_cells().into_iter().map(|(_, c)| c).collect();
        let train_eval = canonical_train_eval(&sweep.eval);
        let mut bases: Vec<EvalBase> = Vec::new();
        for cell in &cells {
            if !bases.iter().any(|b| b.benchmark == cell.0) {
                let base = t.call("defense.base", |t| build_base(t, cell.0, &sweep.eval));
                bases.push(base);
            }
        }
        let base_of = |bench: Benchmark| {
            bases
                .iter()
                .find(|b| b.benchmark == bench)
                .expect("a base per benchmark")
        };
        let mut fps: Vec<CorpusFingerprint> = Vec::with_capacity(cells.len());
        let mut models: Vec<(CorpusFingerprint, TrainedAttack)> = Vec::new();
        for cell in &cells {
            let fp = t.call("defense.fingerprint", |_| {
                corpus_fingerprint(cell.0, cell.1, &cell.2, &train_eval)
            });
            fps.push(fp);
            if models.iter().any(|(seen, _)| *seen == fp) {
                continue;
            }
            counts.touched.push(fp);
            let model = match t.call("core.store_load", |_| store.load(&fp)) {
                Some(model) => model,
                None => {
                    let corpus = t.call("defense.corpus", |t| {
                        defended_corpus(t, base_of(cell.0), cell.1, &cell.2, &train_eval)
                    });
                    let attack = &train_eval.attack;
                    counts.corpus(&corpus, attack.epochs, attack.batch_size);
                    let (trained, _) = t.call("core.train", |_| train::train(&corpus, attack));
                    t.call("core.store_save", |_| store.save(&fp, &trained));
                    trained
                }
            };
            models.push((fp, model));
        }
        cells
            .iter()
            .zip(&fps)
            .map(|(cell, fp)| {
                let (_, model) = models
                    .iter()
                    .find(|(seen, _)| seen == fp)
                    .expect("a model per fingerprint");
                attack_cell(t, base_of(cell.0), cell, &sweep.eval, model, counts)
            })
            .collect()
    })
}

fn store_bytes(store: &DiskModelStore, fps: &[CorpusFingerprint]) -> f64 {
    fps.iter()
        .filter_map(|fp| std::fs::metadata(store.dir().join(format!("{}.json", fp.to_hex()))).ok())
        .map(|m| m.len() as f64)
        .sum()
}

fn engine_op(
    t: &mut Tracer,
    sweep: &SweepConfig,
    store: &DiskModelStore,
    expected: &str,
) -> Result<Traced, String> {
    let mut counts = Counts::default();
    let started = Instant::now();
    let outcomes = engine_run(t, sweep, store, &mut counts);
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    let (inclusive, exclusive) = t.take();
    outcomes.iter().try_for_each(check_scores)?;
    let json = MatrixReport::new(outcomes)
        .to_json()
        .map_err(|e| format!("serialise report: {e}"))?;
    if json != expected {
        return Err("traced op's report differs from the untraced op's".to_string());
    }
    let model_bytes = store_bytes(store, &counts.touched);
    Ok(Traced {
        wall_ms,
        inclusive,
        exclusive,
        counts,
        model_bytes,
        ..Traced::default()
    })
}

// ------------------------------------------------------------ server rebuild

/// The warm `POST /attack` handler, call by call: parse and validate,
/// defend, split, prepare, rank, score, serialize. The model is the one the
/// server's LRU holds; the base layouts are the ones it cached.
fn attack_handler(
    t: &mut Tracer,
    w: &WarmAttack,
    counts: &mut Counts,
) -> Result<(AttackResponse, String), String> {
    t.call("bench.attack_handler", |t| {
        let spec: AttackRequest = t.call("serve.parse", |_| {
            let text = std::str::from_utf8(&w.body).map_err(|e| e.to_string())?;
            let spec: AttackRequest = serde_json::from_str(text).map_err(|e| e.to_string())?;
            spec.validate()?;
            Ok::<_, String>(spec)
        })?;
        let fp = t.call("defense.fingerprint", |_| spec.fingerprint());
        let layer = spec.layer();
        let defended = t.call("defense.apply", |_| {
            apply(&w.base.victim, &spec.eval.implement, layer, &spec.defense)
        });
        let victim = t.call("core.prepare", |t| {
            let view = t.call("layout.split", |_| split_design(&defended.design, layer));
            PreparedDesign::from_view(&defended.design, view, &spec.eval.attack)
        });
        let ranked = t.call("core.infer", |_| {
            attack_ranked(&w.model, &victim, spec.top_k, 1)
        });
        let dl_ccr = t.call("flow.ccr", |_| ccr(&victim.view, &ranked.assignment()));
        let (rankings, expected) = t.call("defense.rankings", |_| {
            let rankings = rankings_of(&ranked, &victim.view);
            let pins: usize = victim
                .view
                .sinks
                .iter()
                .map(|&s| victim.view.fragment(s).sink_count)
                .sum();
            let expected = expected_ccr(&rankings, pins);
            (rankings, expected)
        });
        let proximity_ccr = t.call("flow.proximity", |_| {
            ccr(&victim.view, &proximity_attack(&victim.view))
        });
        let flow = spec.include_flow.then(|| {
            t.call("flow.network_flow", |_| {
                network_flow_attack(
                    &victim.view,
                    &defended.design.netlist,
                    &defended.design.library,
                    &spec.eval.flow,
                )
            })
        });
        counts.scored(&victim, dl_ccr);
        let response = AttackResponse {
            benchmark: spec.benchmark.clone(),
            split_layer: spec.split_layer,
            fingerprint: fp.to_hex(),
            model_cached: true,
            trained_epochs: 0,
            dl_ccr,
            expected_ccr: expected,
            chance_ccr: 1.0 / victim.view.num_source_fragments().max(1) as f64,
            proximity_ccr,
            flow,
            inference_ms: ranked.inference.as_secs_f64() * 1000.0,
            resolve_ms: 0.0,
            rankings,
        };
        let json = t
            .call("serve.serialize", |_| {
                serde_json::to_string_pretty(&response)
            })
            .map_err(|e| e.to_string())?;
        Ok((response, json))
    })
}

/// An attack response with its timing fields zeroed, through one JSON
/// round trip: what two answers to the same request must agree on.
fn comparable(response: &AttackResponse) -> Result<String, String> {
    let mut r = response.clone();
    r.inference_ms = 0.0;
    r.resolve_ms = 0.0;
    let text = serde_json::to_string(&r).map_err(|e| e.to_string())?;
    let back: AttackResponse = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    serde_json::to_string(&back).map_err(|e| e.to_string())
}

fn attack_op(t: &mut Tracer, w: &WarmAttack, rebuilt_first: bool) -> Result<Traced, String> {
    // The real request over HTTP (the server's own spans record it)…
    let started = Instant::now();
    let http = httpc::post(&w.url, &w.body, crate::workloads::HTTP_TIMEOUT)
        .map_err(|e| format!("POST /attack: {e}"))?;
    let rt_ms = started.elapsed().as_secs_f64() * 1000.0;
    w.check(http.status, &http.body)?;
    // …handled in-process, without transport, and rebuilt call by call.
    // Whichever of the two runs first finds colder caches, so they take
    // turns.
    let request = deepsplit_serve::Request {
        method: "POST".to_string(),
        path: "/attack".to_string(),
        body: w.body.clone(),
        peer: None,
    };
    let handle = || {
        let started = Instant::now();
        let handled = w.server.state().handle(&request);
        (handled, started.elapsed().as_secs_f64() * 1000.0)
    };
    let mut counts = Counts::default();
    let mut rebuild = |t: &mut Tracer| {
        let started = Instant::now();
        let out = attack_handler(t, w, &mut counts);
        out.map(|r| (r, started.elapsed().as_secs_f64() * 1000.0))
    };
    let ((handled, handle_ms), rebuilt) = if rebuilt_first {
        let rebuilt = rebuild(t);
        (handle(), rebuilt)
    } else {
        let handled = handle();
        (handled, rebuild(t))
    };
    let ((response, json), wall_ms) = rebuilt?;
    w.check(handled.status, &handled.body)?;
    let (inclusive, exclusive) = t.take();
    let over_http = parse_response(http.status, &http.body)?;
    if comparable(&response)? != comparable(&over_http)? {
        return Err("traced op's response differs from the untraced op's".to_string());
    }
    if rankings_json(&response.rankings)? != w.reference {
        return Err("traced op's rankings differ from in-process attack_ranked".to_string());
    }
    let transport_ms = rt_ms - handle_ms;
    let mut traced = Traced {
        wall_ms: wall_ms + transport_ms,
        inclusive,
        exclusive,
        counts,
        transport_ms,
        handle_ms,
        response_bytes: json.len() as f64,
        ..Traced::default()
    };
    let handler = "bench.attack_handler";
    let other_layers = traced.incl(handler)
        - traced.excl(handler)
        - traced.incl("serve.parse")
        - traced.incl("serve.serialize");
    traced.serve_self_ms = transport_ms + handle_ms - other_layers;
    Ok(traced)
}

// ----------------------------------------------------------------- nn probe

/// GFLOP/s of `Tensor::{matmul, matmul_t, t_matmul}` at the MLP's
/// `[rows, 128] × [128, 128]` shape, median of several timed rounds.
struct KernelProbe {
    rows: usize,
    flops: f64,
    bytes: f64,
    gflops: [f64; 3],
}

fn kernel_probe(rows: usize, seed: u64, rounds: usize, round_ms: f64) -> KernelProbe {
    const D: usize = 128;
    let mut state = seed;
    let mut fill = |n: usize| -> Vec<f32> {
        (0..n)
            .map(|_| {
                state = crate::stats::mix(state, 1);
                // Nonzero in [-1, 1): the kernels skip exact zeros.
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0 + 1e-6
            })
            .collect()
    };
    let x = Tensor::from_vec(&[rows, D], fill(rows * D));
    let w = Tensor::from_vec(&[D, D], fill(D * D));
    let g = Tensor::from_vec(&[rows, D], fill(rows * D));
    // Each kernel multiplies-and-adds over `rows·128·128` and moves two
    // `[rows, 128]` operands and one `[128, 128]` one (in or out) as f32.
    let flops = 2.0 * (rows * D * D) as f64;
    let bytes = 4.0 * (2 * rows * D + D * D) as f64;
    let kernels: [&dyn Fn() -> Tensor; 3] = [
        &|| black_box(&x).matmul(black_box(&w)),
        &|| black_box(&g).matmul_t(black_box(&w)),
        &|| black_box(&x).t_matmul(black_box(&g)),
    ];
    let mut gflops = [0.0; 3];
    for (k, kernel) in kernels.iter().enumerate() {
        for _ in 0..20 {
            black_box(kernel());
        }
        let mut rates = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let started = Instant::now();
            let mut calls = 0usize;
            while started.elapsed().as_secs_f64() * 1000.0 < round_ms {
                for _ in 0..16 {
                    black_box(kernel());
                }
                calls += 16;
            }
            rates.push(flops * calls as f64 / started.elapsed().as_secs_f64() / 1e9);
        }
        gflops[k] = median(&rates);
    }
    KernelProbe {
        rows,
        flops,
        gflops,
        bytes,
    }
}

// -------------------------------------------------------------------- run

/// Runs `kind` traced: set-up, then untraced and traced ops in turn for
/// `seconds`, then the kernel probe, and writes the Chrome trace. Every op
/// is checked; a traced op must also reproduce its untraced output.
pub fn run(kind: Kind, seeds: Seeds, seconds: f64, plan: &Plan) -> Result<Outcome, String> {
    let work = WorkDir::new(kind, "traced")?;
    let (mut loaded, _) = setup_timed(kind, &work.0, seeds, plan)?;

    // One untraced op, then the same op traced, and again: both halves see
    // the same host conditions. The recorder is on throughout, so the
    // untraced ops record the program's own few spans and nothing else.
    let traced_store = match kind {
        Kind::ColdCell => Some(
            DiskModelStore::open(work.0.join("store-traced"))
                .map_err(|e| format!("open traced store: {e}"))?,
        ),
        _ => None,
    };
    let mut tracer = Tracer::default();
    let mut traced: Vec<Traced> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut cpu_ms = 0.0;
    let engine_workload = kind != Kind::WarmAttack;
    let untraced = measure(seconds, plan.min_traced_ops(kind), || {
        let cold_seed = match &loaded {
            Loaded::Cold(c) => c.next_seed(),
            _ => 0,
        };
        // Only the engine workloads read the recorder back; the serve
        // workload records too many events to copy them per op.
        let mark = if engine_workload { trace_mark() } else { 0 };
        let cpu_before = process_cpu_ms();
        let op = loaded.op();
        cpu_ms += process_cpu_ms() - cpu_before;
        let program_ms = if engine_workload {
            program_engine_spans_ms(mark)
        } else {
            0.0
        };
        if let Err(e) = &op.check {
            failures.push(e.clone());
        }
        let result = match (&loaded, &traced_store) {
            // The untraced op's seed again, against a store of its own.
            (Loaded::Cold(c), Some(store)) => engine_op(
                &mut tracer,
                &ColdCell::sweep(cold_seed, c.epochs),
                store,
                &op.output,
            ),
            (Loaded::Sweep(s), _) => {
                engine_op(&mut tracer, &s.config.sweep, &s.store, &s.reference)
            }
            (Loaded::Attack(a), _) => attack_op(&mut tracer, a, traced.len() % 2 == 1),
            (Loaded::Cold(_), None) => Err("cold_cell without a traced store".to_string()),
        };
        match result {
            Ok(mut t) => {
                if engine_workload {
                    t.engine_self_ms = op.ms - program_ms - t.incl("defense.base");
                }
                traced.push(t);
            }
            Err(e) => failures.push(e),
        }
        op
    });
    let untraced_ms: Vec<f64> = untraced.iter().map(|o| o.ms).collect();
    let p50 = median(&untraced_ms);

    let n = untraced.len();
    let per_op = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<f64>>());
    let attack_config = match &loaded {
        Loaded::Cold(c) => ColdCell::sweep(0, c.epochs).eval.attack,
        Loaded::Sweep(s) => s.config.sweep.eval.attack.clone(),
        Loaded::Attack(a) => a.request.eval.attack.clone(),
    };
    let flops_per_row = forward_flops_per_row(&attack_config);
    let store = match &loaded {
        Loaded::Cold(_) => traced_store.as_ref().map(|s| s.counters()),
        Loaded::Sweep(s) => Some(s.store.counters()),
        Loaded::Attack(a) => Some(a.store.counters()),
    }
    .unwrap_or_default();
    let (lru, served) = match &loaded {
        Loaded::Attack(a) => (a.server.state().metrics_snapshot().lru, 1.0),
        _ => (Default::default(), 0.0),
    };
    let busy = cpu_ms / n as f64;
    let mean_ms = untraced_ms.iter().sum::<f64>() / n as f64;
    let probe = kernel_probe(attack_config.candidates, seeds.0, plan.probe_rounds, 40.0);

    let mut metrics = Metrics::new();
    for call in CALLS {
        put(
            &mut metrics,
            format!("{call}_ms"),
            per_op(&|t| t.incl(call)),
            "ms",
        );
    }
    for layer in LAYERS {
        put(
            &mut metrics,
            format!("{layer}.self_ms"),
            per_op(&|t| layer_self(t, layer)),
            "ms",
        );
    }
    let attributed = per_op(&|t| LAYERS.iter().map(|l| layer_self(t, l)).sum());
    // Forward plus backward (two matmuls per dense layer) per trained row.
    let train_flops = per_op(&|t| 3.0 * flops_per_row * t.counts.train_rows);
    let infer_flops = per_op(&|t| flops_per_row * t.counts.infer_rows);
    let rows: [(&str, f64, &'static str); 21] = [
        ("trace.coverage", attributed / p50, "ratio"),
        ("trace.overhead", per_op(&|t| t.wall_ms) / p50, "ratio"),
        (
            "core.train_steps",
            per_op(&|t| t.counts.train_steps),
            "count",
        ),
        (
            "core.train_gflops",
            rate(train_flops, per_op(&|t| t.incl("core.train"))),
            "GFLOP/s",
        ),
        (
            "core.trainable_ratio",
            per_op(&|t| ratio(t.counts.trainable_queries, t.counts.total_queries)),
            "ratio",
        ),
        (
            "core.infer_gflops",
            rate(infer_flops, per_op(&|t| t.incl("core.infer"))),
            "GFLOP/s",
        ),
        (
            "core.dl_ccr",
            per_op(&|t| ratio(t.counts.dl_ccr_sum, t.counts.cells)),
            "ratio",
        ),
        ("core.model_bytes", per_op(&|t| t.model_bytes), "count"),
        (
            "store.hit_ratio",
            ratio(store.hits as f64, (store.hits + store.misses) as f64),
            "ratio",
        ),
        ("serve.handle_ms", per_op(&|t| t.handle_ms), "ms"),
        ("serve.transport_ms", per_op(&|t| t.transport_ms), "ms"),
        (
            "serve.response_bytes",
            per_op(&|t| t.response_bytes),
            "count",
        ),
        (
            "serve.lru_hit_ratio",
            ratio(lru.hits as f64, (lru.hits + lru.misses) as f64),
            "ratio",
        ),
        ("serve.cpu_ms_per_op", served * busy, "ms"),
        (
            "serve.wait_ms_per_op",
            served * (mean_ms - busy).max(0.0),
            "ms",
        ),
        (
            "serve.latency_p90_ms",
            served * quantile(&untraced_ms, 0.9),
            "ms",
        ),
        (
            "serve.latency_p99_ms",
            served * quantile(&untraced_ms, 0.99),
            "ms",
        ),
        ("serve.latency_samples", served * n as f64, "count"),
        ("nn.matmul_gflops", probe.gflops[0], "GFLOP/s"),
        ("nn.matmul_t_gflops", probe.gflops[1], "GFLOP/s"),
        ("nn.t_matmul_gflops", probe.gflops[2], "GFLOP/s"),
    ];
    for (name, value, unit) in rows {
        put(&mut metrics, name, value, unit);
    }
    put(&mut metrics, "nn.kernel_flops", probe.flops, "count");
    put(&mut metrics, "nn.kernel_bytes", probe.bytes, "count");

    let trace_out = format!(".perfbench-out/trace-{}-seed{}.json", kind.name(), seeds.0);
    std::fs::create_dir_all(".perfbench-out").map_err(|e| format!("create .perfbench-out: {e}"))?;
    std::fs::write(&trace_out, obs::export_chrome_trace())
        .map_err(|e| format!("write {trace_out}: {e}"))?;

    report(kind, seeds, p50, &untraced_ms, &traced, &probe);
    eprintln!("  chrome trace: {trace_out}");
    for f in &failures {
        eprintln!("perfbench: {}: failed op: {f}", kind.name());
    }
    loaded.shutdown();
    Ok(Outcome {
        attempted: 2 * n,
        failed: failures.len(),
        metrics,
    })
}

/// A layer's self time in one traced op: `engine` and `serve` from the
/// program (see [`Traced`]), the other layers from their spans.
fn layer_self(t: &Traced, layer: &str) -> f64 {
    match layer {
        "engine" => t.engine_self_ms,
        "serve" => t.serve_self_ms,
        _ => t
            .exclusive
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .fold(0.0, |sum, (_, ms)| sum + ms),
    }
}

fn rate(flops: f64, ms: f64) -> f64 {
    ratio(flops / 1e9, ms / 1000.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-span breakdown on stderr, largest self time first.
fn report(
    kind: Kind,
    seeds: Seeds,
    p50: f64,
    untraced_ms: &[f64],
    traced: &[Traced],
    probe: &KernelProbe,
) {
    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<f64>>());
    let n = untraced_ms.len();
    eprintln!("perfbench: traced {} — {}", kind.name(), seeds.describe());
    eprintln!(
        "  untraced op p50 {p50:.3} ms (n={n}), traced ops n={}",
        traced.len()
    );
    if traced.len() <= 20 {
        let pairs: Vec<String> = untraced_ms
            .iter()
            .zip(traced)
            .map(|(u, t)| format!("{u:.1}/{:.1}", t.wall_ms))
            .collect();
        eprintln!("  untraced/traced op ms: {}", pairs.join(", "));
    }
    let mut names: Vec<&'static str> = traced
        .iter()
        .flat_map(|t| t.exclusive.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut rows: Vec<(&str, f64)> = names
        .iter()
        .map(|&name| {
            (
                name,
                med(&|t| t.exclusive.get(name).copied().unwrap_or(0.0)),
            )
        })
        .collect();
    if kind == Kind::WarmAttack {
        rows.push(("serve.transport", med(&|t| t.transport_ms)));
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!(
        "  {:<22} {:>12} {:>8}",
        "span (self time)", "ms/op", "of p50"
    );
    for (name, ms) in rows {
        eprintln!("  {name:<22} {ms:>12.3} {:>7.1}%", 100.0 * ms / p50);
    }
    let layers: Vec<String> = LAYERS
        .iter()
        .map(|&l| format!("{l} {:.3}", med(&|t| layer_self(t, l))))
        .collect();
    eprintln!(
        "  layer self time, ms/op (bench.* glue not counted; engine and serve from the program): {}",
        layers.join(", ")
    );
    if kind == Kind::WarmAttack {
        eprintln!(
            "  rebuilt handler {:.3} ms vs AttackServer::handle {:.3} ms per op",
            med(&|t| t.wall_ms - t.transport_ms),
            med(&|t| t.handle_ms)
        );
        eprintln!(
            "  untraced latency p90 {:.3} ms ({} of n={n} beyond), p99 {:.3} ms ({} beyond)",
            quantile(untraced_ms, 0.9),
            beyond(n, 0.9),
            quantile(untraced_ms, 0.99),
            beyond(n, 0.99)
        );
    }
    eprintln!(
        "  nn kernels at [{}, 128] x [128, 128]: {:.0} flop and {:.0} bytes per call; matmul {:.2}, matmul_t {:.2}, t_matmul {:.2} GFLOP/s",
        probe.rows, probe.flops, probe.bytes, probe.gflops[0], probe.gflops[1], probe.gflops[2]
    );
}
