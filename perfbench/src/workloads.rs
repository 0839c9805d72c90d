//! The three workloads: their seeded inputs, set-up, one untraced op each,
//! and the check every op's output must pass.
//!
//! Every workload is a closed loop with one op in flight. `cold_cell` and
//! `warm_sweep` run the engine with one thread; `warm_attack` drives an
//! in-process server from one client thread.

use crate::stats::mix;
use deepsplit_core::attack::attack_ranked;
use deepsplit_core::config::AttackConfig;
use deepsplit_core::dataset::PreparedDesign;
use deepsplit_core::httpc;
use deepsplit_core::store::{DiskModelStore, MemoryModelStore, ModelStore};
use deepsplit_core::train::TrainedAttack;
use deepsplit_defense::eval::{EvalBase, EvalConfig, EvalOutcome};
use deepsplit_defense::service::{rankings_of, AttackRequest, AttackResponse, SinkRanking};
use deepsplit_defense::sweep::SweepConfig;
use deepsplit_defense::DefenseKind;
use deepsplit_engine::{run, EngineConfig, MatrixReport, MatrixRun};
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_obs as obs;
use deepsplit_serve::{start, RunningServer, ServeConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdCell,
    WarmSweep,
    WarmAttack,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ColdCell, Kind::WarmSweep, Kind::WarmAttack];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdCell => "cold_cell",
            Kind::WarmSweep => "warm_sweep",
            Kind::WarmAttack => "warm_attack",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Complete set-ups per run; `setup_s` is their median. `warm_sweep`'s
    /// set-up is already fifteen cold cells, too long to repeat.
    pub fn setup_reps(self, plan: &Plan) -> usize {
        match self {
            Kind::WarmSweep => 1,
            _ => plan.setup_reps,
        }
    }
}

/// Sizes that differ between a measured run and the fast self-check.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Epochs of each `cold_cell` model.
    pub cold_epochs: usize,
    /// Requests in each `warm_attack` set-up's untimed warm-up batch.
    pub warmup_requests: usize,
    /// Complete `cold_cell` and `warm_attack` set-ups per run. 21 leaves ten
    /// set-up times on either side of the median `setup_s` reports.
    pub setup_reps: usize,
    /// Timed rounds per kernel in the traced run's `nn` probe.
    pub probe_rounds: usize,
    /// The fast self-check: one op where a measured run needs several.
    pub quick: bool,
}

impl Plan {
    pub fn measured() -> Plan {
        Plan {
            cold_epochs: 10,
            warmup_requests: 20,
            setup_reps: 21,
            probe_rounds: 5,
            quick: false,
        }
    }

    pub fn self_check() -> Plan {
        Plan {
            // Enough epochs for the training-loss check to apply.
            cold_epochs: 4,
            warmup_requests: 3,
            setup_reps: 1,
            probe_rounds: 1,
            quick: true,
        }
    }

    /// Ops a measuring loop runs even when they overrun `--seconds`.
    pub fn min_ops(&self, kind: Kind) -> usize {
        match (kind, self.quick) {
            (Kind::WarmAttack, true) => 5,
            (_, true) => 1,
            (Kind::ColdCell, false) => 3,
            (Kind::WarmSweep, false) => 5,
            (Kind::WarmAttack, false) => 50,
        }
    }

    /// Like [`Plan::min_ops`], for each half of a traced run.
    pub fn min_traced_ops(&self, kind: Kind) -> usize {
        match kind {
            Kind::ColdCell if !self.quick => 2,
            _ => self.min_ops(kind),
        }
    }
}

/// The inputs `--seed` derives. The program sees only the configs and
/// request bodies built from these.
#[derive(Debug, Clone, Copy)]
pub struct Seeds(pub u64);

/// How long training takes depends on the model's seed, not only on the
/// work: one epoch of the `cold_cell` model took 0.64 s from one seed and
/// 1.6 s from another, on the same corpus. So the set-ups train from seeds
/// of their own, the same in every run, and `setup_s` does not follow the
/// run's seed; `cold_cell`'s ops each draw their own seed.
impl Seeds {
    /// `eval.attack.seed` of `cold_cell`'s `i`-th op.
    pub fn cold_attack(self, i: u64) -> u64 {
        1 + mix(self.0, 0xA77A_C000 + i) % 1_000_000_000
    }

    /// `eval.attack.seed` of set-up `r`'s training (the `cold_cell` warm-up
    /// cell, the `warm_attack` cold request), whatever the run's seed. The
    /// last `warm_attack` set-up trains [`Seeds::attack_model`] instead.
    pub fn setup_model(r: usize) -> u64 {
        1 + mix(0x5E70, r as u64) % 1_000_000_000
    }

    /// `defense_seed` of the `warm_sweep` matrix.
    pub fn sweep_defense(self) -> u64 {
        1 + mix(self.0, 0xDEF0) % 1_000_000
    }

    /// `eval.attack.seed` of the `warm_attack` request the ops send: the
    /// weights its model is trained from. The victim layout stays the
    /// loadgen's, since the tiny c432 victim's size, and so a request's
    /// work, varies about threefold with its seed.
    pub fn attack_model(self) -> u64 {
        1 + mix(self.0, 0x5EED) % 1_000_000_000
    }

    pub fn describe(self) -> String {
        format!(
            "seed {}: cold_cell attack seeds {}, {}, … (one per op); warm_sweep defense seed {}; warm_attack model seed {}",
            self.0,
            self.cold_attack(0),
            self.cold_attack(1),
            self.sweep_defense(),
            self.attack_model()
        )
    }
}

/// One measured op: its time (checks excluded), the check verdict, and the
/// output the traced run compares against.
pub struct Op {
    pub ms: f64,
    pub check: Result<(), String>,
    pub output: String,
}

impl Op {
    fn checked(ms: f64, output: Result<String, String>) -> Op {
        match output {
            Ok(output) => Op {
                ms,
                check: Ok(()),
                output,
            },
            Err(e) => Op {
                ms,
                check: Err(e),
                output: String::new(),
            },
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// Epochs of the warm-up cell that ends each `cold_cell` set-up: it runs
/// every call an op makes (base, corpus, train, save, attack) at a sixth of
/// an op's cost, so the set-up can be repeated enough times for a median.
const WARMUP_EPOCHS: usize = 1;

/// Epochs of the model the `warm_attack` cold request trains.
const ATTACK_EPOCHS: usize = 4;

/// A model that learned ends its training with a mean loss at most this
/// share of its first epoch's. The share reached 0.51 over 60 seeds of the
/// `warm_attack` model (4 epochs), 0.28 over 30 `cold_cell` models (10
/// epochs) and 0.78 over 16 at the self-check's 4; a model whose weights do
/// not move stays at 1.
const LOSS_DROP: f64 = 0.9;

/// Least DL-CCR (the share of broken pins its top picks connect right) a
/// model trained for two or more epochs must reach. The lowest seen was
/// 0.73 over 30 `cold_cell` models (10 epochs), 0.64 over 16 at the
/// self-check's 4 and 0.75 over 60 `warm_attack` models; chance is 0.09
/// and 0.25, and a model that ranks the farthest candidates first scores
/// near 0.
const MIN_DL_CCR: f64 = 0.5;

/// Least `expected_ccr` (the pin-weighted confidence the model gives its
/// top pick) a `warm_attack` response may report. Trained models gave
/// 0.84–1.0 over 60 seeds; near-uniform scores over 8 candidates give about
/// 1/8, and can still pass [`MIN_DL_CCR`] when ties fall to the nearest
/// candidate.
const MIN_EXPECTED_CCR: f64 = 0.5;

fn check_dl_ccr(dl_ccr: f64) -> Result<(), String> {
    if dl_ccr >= MIN_DL_CCR {
        Ok(())
    } else {
        Err(format!(
            "dl_ccr {dl_ccr:.4} below {MIN_DL_CCR}: the model's top picks are mostly wrong"
        ))
    }
}

/// The trace recorder's event count: pass it to [`epoch_losses_since`]
/// after the work whose training losses should be read.
pub fn trace_mark() -> usize {
    obs::global().map_or(0, |r| r.events().len())
}

/// The mean loss of each training epoch since `mark`, as the program
/// reports it in its `epoch_loss` trace events.
pub fn epoch_losses_since(mark: usize) -> Result<Vec<f64>, String> {
    let recorder = obs::global().ok_or("no trace recorder is installed")?;
    if recorder.dropped() > 0 {
        return Err("the trace recorder is full, so epoch losses were lost".to_string());
    }
    Ok(recorder
        .events()
        .iter()
        .skip(mark)
        .filter(|e| e.name == "epoch_loss")
        .filter_map(|e| e.value)
        .collect())
}

/// One finite loss per epoch and, over two or more epochs, a last loss at
/// most [`LOSS_DROP`] of the first: zero gradients or a wrong kernel fail
/// here even when every score stays in range.
pub fn check_training(losses: &[f64], epochs: usize) -> Result<(), String> {
    if losses.len() != epochs || losses.iter().any(|l| !l.is_finite()) {
        return Err(format!(
            "expected {epochs} finite epoch losses, got {losses:?}"
        ));
    }
    match (losses.first(), losses.last()) {
        (Some(&first), Some(&last)) if epochs >= 2 && last > LOSS_DROP * first => Err(format!(
            "training loss fell only from {first:.4} to {last:.4} over {epochs} epochs"
        )),
        _ => Ok(()),
    }
}

fn report_json(outcomes: Vec<EvalOutcome>) -> Result<String, String> {
    MatrixReport::new(outcomes)
        .to_json()
        .map_err(|e| format!("serialise report: {e}"))
}

/// The engine's evaluation protocol at one busy core: one engine thread and
/// one inference/feature thread (results are thread-count invariant).
fn one_core_eval(epochs: usize) -> EvalConfig {
    let mut eval = EvalConfig::fast();
    eval.attack.epochs = epochs;
    eval.attack.threads = 1;
    eval
}

fn in_unit(what: &str, v: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&v) {
        Ok(())
    } else {
        Err(format!("{what} = {v} outside [0, 1]"))
    }
}

/// Scores of one evaluated cell must all be rates in `[0, 1]`.
pub fn check_scores(outcome: &EvalOutcome) -> Result<(), String> {
    let s = &outcome.scores;
    in_unit("dl_ccr", s.dl_ccr)?;
    in_unit("proximity_ccr", s.proximity_ccr)?;
    in_unit("chance_ccr", s.chance_ccr)?;
    in_unit("recovery", s.recovery)?;
    if let Some(f) = s.flow_ccr {
        in_unit("flow_ccr", f)?;
    }
    Ok(())
}

// ---------------------------------------------------------------- cold_cell

/// One undefended c432/M3 cell of `SweepConfig::fast()`, trained from
/// scratch on every op: each op gets a fresh attack seed, so no store
/// entry can answer it while the work stays the same.
pub struct ColdCell {
    pub store: DiskModelStore,
    pub seeds: Seeds,
    pub epochs: usize,
    next: u64,
}

impl ColdCell {
    /// Set-up `rep` of a run: a fresh store and a warm-up cell.
    pub fn setup(work: &Path, seeds: Seeds, plan: &Plan, rep: usize) -> Result<ColdCell, String> {
        let dir = work.join("store");
        // A fresh store every set-up, so the warm-up cell trains.
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskModelStore::open(&dir).map_err(|e| format!("open cold_cell store: {e}"))?;
        let mut cell = ColdCell {
            store,
            seeds,
            epochs: plan.cold_epochs,
            next: 0,
        };
        cell.cell(Seeds::setup_model(rep), WARMUP_EPOCHS)
            .check
            .map_err(|e| format!("cold_cell warm-up: {e}"))?;
        Ok(cell)
    }

    /// The one-cell matrix whose model trains from `seed` for `epochs`.
    pub fn sweep(seed: u64, epochs: usize) -> SweepConfig {
        let mut eval = one_core_eval(epochs);
        eval.attack.seed = seed;
        SweepConfig {
            eval,
            kinds: Vec::new(),
            benchmarks: vec![Benchmark::C432],
            threads: 1,
            ..SweepConfig::fast()
        }
    }

    /// The attack seed of the next op's cell.
    pub fn next_seed(&self) -> u64 {
        self.seeds.cold_attack(self.next)
    }

    pub fn op(&mut self) -> Op {
        let seed = self.next_seed();
        self.next += 1;
        self.cell(seed, self.epochs)
    }

    /// Runs a cell whose model trains from `seed` for `epochs`.
    fn cell(&mut self, seed: u64, epochs: usize) -> Op {
        let sweep = Self::sweep(seed, epochs);
        let mark = trace_mark();
        let started = Instant::now();
        let result = run(&EngineConfig::new(sweep), &self.store);
        let ms = ms_since(started);
        let checked = result
            .map_err(|e| format!("engine: {e}"))
            .and_then(|r| Self::check(&r, epochs, mark).map(|()| r))
            .and_then(|r| report_json(r.outcomes()));
        Op::checked(ms, checked)
    }

    fn check(run: &MatrixRun, epochs: usize, mark: usize) -> Result<(), String> {
        let s = &run.stats;
        if s.models_trained != 1 || s.epochs_trained != epochs || run.cells.len() != 1 {
            return Err(format!(
                "expected one cell and one model of {epochs} epochs, got {}",
                s.summary()
            ));
        }
        for c in &run.cells {
            check_scores(&c.outcome)?;
            // Like the loss rule: one epoch has not learned enough to judge.
            if epochs >= 2 {
                check_dl_ccr(c.outcome.scores.dl_ccr)?;
            }
        }
        check_training(&epoch_losses_since(mark)?, epochs)
    }
}

// --------------------------------------------------------------- warm_sweep

/// Epochs of the `warm_sweep` set-up models. A warm op trains none, and
/// neither the model blob's size nor a warm op's work depends on them.
const SWEEP_EPOCHS: usize = 1;

/// The default 15-cell `SweepConfig::fast()` matrix re-run against a warm
/// disk store: fifteen store hits and no training per op.
pub struct WarmSweep {
    pub store: DiskModelStore,
    pub config: EngineConfig,
    /// The cold sweep's report, which every warm op must reproduce.
    pub reference: String,
    pub cells: usize,
}

impl WarmSweep {
    pub fn setup(work: &Path, seeds: Seeds) -> Result<WarmSweep, String> {
        let dir = work.join("store");
        // A fresh store every set-up, so the set-up sweep is cold.
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            DiskModelStore::open(&dir).map_err(|e| format!("open warm_sweep store: {e}"))?;
        let mut sweep = SweepConfig {
            eval: one_core_eval(SWEEP_EPOCHS),
            threads: 1,
            defense_seed: seeds.sweep_defense(),
            ..SweepConfig::fast()
        };
        sweep.kinds = DefenseKind::all().to_vec();
        let config = EngineConfig::new(sweep);
        let cells = config.sweep.cells().len();
        let cold = run(&config, &store).map_err(|e| format!("cold sweep: {e}"))?;
        if cold.stats.models_trained != cells || cold.cells.len() != cells {
            return Err(format!("cold sweep: {}", cold.stats.summary()));
        }
        for c in &cold.cells {
            check_scores(&c.outcome)?;
        }
        let reference = report_json(cold.outcomes())?;
        let mut sweep = WarmSweep {
            store,
            config,
            reference,
            cells,
        };
        sweep
            .op()
            .check
            .map_err(|e| format!("warm_sweep warm-up: {e}"))?;
        Ok(sweep)
    }

    pub fn op(&mut self) -> Op {
        let started = Instant::now();
        let result = run(&self.config, &self.store);
        let ms = ms_since(started);
        let checked = result
            .map_err(|e| format!("engine: {e}"))
            .and_then(|r| {
                let s = &r.stats;
                if s.store.hits != self.cells
                    || s.store.misses != 0
                    || s.epochs_trained != 0
                    || s.models_trained != 0
                {
                    return Err(format!(
                        "expected {} hits, 0 misses and 0 epochs, got {}",
                        self.cells,
                        s.summary()
                    ));
                }
                report_json(r.outcomes())
            })
            .and_then(|json| {
                if json == self.reference {
                    Ok(json)
                } else {
                    Err("warm report differs from the cold sweep's".to_string())
                }
            });
        Op::checked(ms, checked)
    }
}

// -------------------------------------------------------------- warm_attack

/// The `attack_server --loadgen --profile harvest` request: the tiny
/// evaluation protocol on c432/M3, every candidate ranked, with the model
/// trained from `model_seed` for `epochs`. It asks for one attack thread
/// where the loadgen asks for two: with two, the server spawns two threads
/// per request in `PreparedDesign::from_view`, and on a 2-vCPU host that
/// alone spread the median latency of identical runs by a quarter.
pub fn harvest_request(model_seed: u64, epochs: usize) -> AttackRequest {
    let eval = EvalConfig {
        attack: AttackConfig {
            use_images: false,
            candidates: 8,
            epochs,
            batch_size: 16,
            threads: 1,
            seed: model_seed,
            ..AttackConfig::fast()
        },
        scale: 0.4,
        train_benchmarks: vec![Benchmark::C880],
        recovery_rounds: 6,
        train_query_cap: 150,
        ..EvalConfig::fast()
    };
    AttackRequest {
        eval,
        top_k: 0,
        client: Some("perfbench".to_string()),
        ..AttackRequest::fast(Benchmark::C432)
    }
}

/// Rankings through one JSON round trip: the form a client compares.
pub fn rankings_json(rankings: &[SinkRanking]) -> Result<String, String> {
    let text = serde_json::to_string(&rankings.to_vec()).map_err(|e| e.to_string())?;
    let back: Vec<SinkRanking> = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    serde_json::to_string(&back).map_err(|e| e.to_string())
}

/// An in-process attack server (2 workers, LRU 16, detector off, memory
/// store) answering one client's warm `POST /attack` requests.
pub struct WarmAttack {
    pub server: RunningServer,
    pub store: Arc<MemoryModelStore>,
    pub url: String,
    pub request: AttackRequest,
    pub body: Vec<u8>,
    /// The model the cold request trained, as the store holds it.
    pub model: TrainedAttack,
    /// The victim's undefended base layouts, as the server builds them.
    pub base: EvalBase,
    /// In-process `attack_ranked` rankings of the same spec.
    pub reference: String,
}

pub const HTTP_TIMEOUT: Duration = Duration::from_secs(60);

impl WarmAttack {
    /// A fresh server and the model trained from `model_seed`.
    pub fn setup(plan: &Plan, model_seed: u64) -> Result<WarmAttack, String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            lru_capacity: 16,
            ..ServeConfig::default()
        };
        let store = Arc::new(MemoryModelStore::new());
        let server = start(&config, store.clone()).map_err(|e| format!("start server: {e}"))?;
        let url = format!("{}/attack", server.url());
        let request = harvest_request(model_seed, ATTACK_EPOCHS);
        let body = serde_json::to_string(&request)
            .map_err(|e| format!("encode request: {e}"))?
            .into_bytes();

        // The cold request trains the model; the server reports its losses
        // to the same trace recorder.
        let mark = trace_mark();
        let cold =
            httpc::post(&url, &body, HTTP_TIMEOUT).map_err(|e| format!("cold request: {e}"))?;
        let cold: AttackResponse = parse_response(cold.status, &cold.body)?;
        if cold.model_cached || cold.trained_epochs != ATTACK_EPOCHS {
            return Err(format!(
                "cold request: model_cached {} trained_epochs {}",
                cold.model_cached, cold.trained_epochs
            ));
        }
        check_training(&epoch_losses_since(mark)?, ATTACK_EPOCHS)
            .and_then(|()| check_answer(&cold))
            .map_err(|e| format!("cold request: {e}"))?;

        let victim = request.victim().ok_or("unknown benchmark")?;
        let model = store
            .load(&request.fingerprint())
            .ok_or("the cold request left no model in the store")?;
        let base = EvalBase::build(victim, &request.eval);
        let layer = request.layer();
        let defended = deepsplit_defense::apply(
            &base.victim,
            &request.eval.implement,
            layer,
            &request.defense,
        );
        let prepared = PreparedDesign::prepare(&defended.design, layer, &request.eval.attack);
        let ranked = attack_ranked(&model, &prepared, request.top_k, 1);
        let reference = rankings_json(&rankings_of(&ranked, &prepared.view))?;

        let mut attack = WarmAttack {
            server,
            store,
            url,
            request,
            body,
            model,
            base,
            reference,
        };
        for i in 0..plan.warmup_requests {
            attack
                .op()
                .check
                .map_err(|e| format!("warm-up request {i}: {e}"))?;
        }
        Ok(attack)
    }

    pub fn op(&mut self) -> Op {
        let started = Instant::now();
        let result = httpc::post(&self.url, &self.body, HTTP_TIMEOUT);
        let ms = ms_since(started);
        let check = result
            .map_err(|e| format!("POST /attack: {e}"))
            .and_then(|r| self.check(r.status, &r.body));
        Op {
            ms,
            check,
            output: String::new(),
        }
    }

    /// Status 200, a cached model, no training, a model whose top picks are
    /// mostly right and confident, and the in-process rankings.
    pub fn check(&self, status: u16, body: &[u8]) -> Result<(), String> {
        let response = parse_response(status, body)?;
        if !response.model_cached || response.trained_epochs != 0 {
            return Err(format!(
                "warm request: model_cached {} trained_epochs {}",
                response.model_cached, response.trained_epochs
            ));
        }
        check_answer(&response)?;
        if serde_json::to_string(&response.rankings).map_err(|e| e.to_string())? != self.reference {
            return Err("rankings differ from in-process attack_ranked".to_string());
        }
        Ok(())
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// A trained model's answer: DL-CCR of at least [`MIN_DL_CCR`] and
/// `expected_ccr` of at least [`MIN_EXPECTED_CCR`].
fn check_answer(response: &AttackResponse) -> Result<(), String> {
    check_dl_ccr(response.dl_ccr)?;
    if response.expected_ccr >= MIN_EXPECTED_CCR {
        Ok(())
    } else {
        Err(format!(
            "expected_ccr {:.4} below {MIN_EXPECTED_CCR}: the model is not confident of its picks",
            response.expected_ccr
        ))
    }
}

/// Parses a `200` attack response.
pub fn parse_response(status: u16, body: &[u8]) -> Result<AttackResponse, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    if status != 200 {
        return Err(format!("status {status}: {text}"));
    }
    serde_json::from_str(text).map_err(|e| format!("unparsable response: {e}"))
}

// ------------------------------------------------------------------ running

/// A set-up workload. A process holds one, so variant sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Loaded {
    Cold(ColdCell),
    Sweep(WarmSweep),
    Attack(WarmAttack),
}

impl Loaded {
    /// Set-up `rep` of a run. The last `warm_attack` set-up trains the
    /// model the ops query; the others train from set-up seeds.
    pub fn setup(
        kind: Kind,
        work: &Path,
        seeds: Seeds,
        plan: &Plan,
        rep: usize,
    ) -> Result<Loaded, String> {
        Ok(match kind {
            Kind::ColdCell => Loaded::Cold(ColdCell::setup(work, seeds, plan, rep)?),
            Kind::WarmSweep => Loaded::Sweep(WarmSweep::setup(work, seeds)?),
            Kind::WarmAttack => {
                let model_seed = if rep + 1 == kind.setup_reps(plan) {
                    seeds.attack_model()
                } else {
                    Seeds::setup_model(rep)
                };
                Loaded::Attack(WarmAttack::setup(plan, model_seed)?)
            }
        })
    }

    pub fn op(&mut self) -> Op {
        match self {
            Loaded::Cold(w) => w.op(),
            Loaded::Sweep(w) => w.op(),
            Loaded::Attack(w) => w.op(),
        }
    }

    /// Stops and joins whatever the workload started.
    pub fn shutdown(self) {
        if let Loaded::Attack(w) = self {
            w.shutdown();
        }
    }
}

/// Runs `kind`'s set-up `reps` times (keeping the last) and returns the
/// workload with every set-up's wall time in seconds.
pub fn setup_timed(
    kind: Kind,
    work: &Path,
    seeds: Seeds,
    plan: &Plan,
) -> Result<(Loaded, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut loaded: Option<Loaded> = None;
    for rep in 0..kind.setup_reps(plan) {
        if let Some(previous) = loaded.take() {
            previous.shutdown();
        }
        let started = Instant::now();
        loaded = Some(Loaded::setup(kind, work, seeds, plan, rep)?);
        times.push(started.elapsed().as_secs_f64());
    }
    loaded
        .map(|l| (l, times))
        .ok_or_else(|| "no set-up ran".to_string())
}

/// Starts ops until `seconds` have passed (the last one may overrun), and
/// at least `min_ops`.
pub fn measure(seconds: f64, min_ops: usize, mut op: impl FnMut() -> Op) -> Vec<Op> {
    let started = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    while ops.len() < min_ops || started.elapsed().as_secs_f64() < seconds {
        ops.push(op());
    }
    ops
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(kind: Kind, tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench-work").join(format!(
            "{}-{tag}-{}",
            kind.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_must_lower_the_loss() {
        assert!(check_training(&[6.1, 2.1, 0.4, 0.3], 4).is_ok());
        // Weights that never move: the loss stays put.
        assert!(check_training(&[20.9, 20.9, 20.9, 20.9], 4).is_err());
        assert!(check_training(&[6.1, f64::NAN, 0.4, 0.3], 4).is_err());
        assert!(check_training(&[6.1, 2.1], 4).is_err());
        // One epoch has nothing to fall from.
        assert!(check_training(&[6.1], 1).is_ok());
    }
}
