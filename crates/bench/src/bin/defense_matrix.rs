//! The attack-vs-defense matrix: every defense at every strength against all
//! three attackers, with PPA overhead — executed by the sweep engine with a
//! content-addressed model store, shard-aware scheduling and resumable
//! per-cell artifacts.
//!
//! ```text
//! cargo run --release --bin defense_matrix                    # fast default
//! cargo run --release --bin defense_matrix -- --designs c432,c880
//! cargo run --release --bin defense_matrix -- --strengths 0.25,0.5,1.0
//! cargo run --release --bin defense_matrix -- --layers 1,3 --images
//! cargo run --release --bin defense_matrix -- --json matrix.json
//!
//! # Repeated sweeps skip training via the on-disk model store:
//! cargo run --release --bin defense_matrix -- --cache-dir .model-store
//!
//! # Split the matrix across two machines, then reassemble:
//! cargo run --release --bin defense_matrix -- --shard 0/2 --artifacts runs/m
//! cargo run --release --bin defense_matrix -- --shard 1/2 --artifacts runs/m
//! cargo run --release --bin defense_matrix -- --merge --artifacts runs/m --json matrix.json
//!
//! # Interrupted? Re-run with --resume to keep completed cells (the model
//! # store is required, so pending cells reload instead of re-training):
//! cargo run --release --bin defense_matrix -- --artifacts runs/m --cache-dir .model-store --resume
//!
//! # Share one cache across machines via an attack_server (--cache-dir then
//! # acts as a local write-through cache in front of the remote store):
//! cargo run --release --bin defense_matrix -- --store-url http://10.0.0.5:8077
//!
//! # Observability: --timings prints the recorded spans totalled by name
//! # (count, total ms, mean ms) to stderr; --trace keeps every span on a
//! # chrome://tracing timeline. Neither changes any gated output — the
//! # --json report of a traced run is byte-identical to an untraced one.
//! cargo run --release --bin defense_matrix -- --timings --trace sweep-trace.json
//! ```

use deepsplit_bench::cli::{list_arg, value_arg};
use deepsplit_core::store::{DiskModelStore, MemoryModelStore, ModelStore, RemoteModelStore};
use deepsplit_defense::sweep::{self, SweepConfig};
use deepsplit_defense::DefenseKind;
use deepsplit_engine::{
    merge_artifacts, protocol_fingerprint, EngineConfig, MatrixReport, MatrixRun,
};
use deepsplit_layout::geom::Layer;
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_obs as obs;
use std::path::PathBuf;

fn parse_shard(s: &str) -> (usize, usize) {
    let (index, count) = s
        .split_once('/')
        .expect("--shard takes INDEX/COUNT, e.g. 0/2");
    (
        index.parse().expect("bad shard index"),
        count.parse().expect("bad shard count"),
    )
}

fn sweep_config(args: &[String]) -> SweepConfig {
    let mut config = SweepConfig::fast();
    if let Some(designs) = list_arg(args, "--designs") {
        config.benchmarks = designs
            .iter()
            .filter_map(|n| Benchmark::from_name(n))
            .collect();
        assert!(
            !config.benchmarks.is_empty(),
            "--designs matched no benchmark"
        );
    }
    if let Some(strengths) = list_arg(args, "--strengths") {
        config.strengths = strengths
            .iter()
            .map(|s| s.parse().expect("bad strength"))
            .collect();
    }
    if let Some(layers) = list_arg(args, "--layers") {
        config.split_layers = layers
            .iter()
            .map(|l| Layer(l.parse().expect("bad layer")))
            .collect();
    }
    if let Some(kinds) = list_arg(args, "--defenses") {
        config.kinds = kinds
            .iter()
            .map(|k| DefenseKind::from_name(k).expect("unknown defense"))
            .collect();
    }
    if args.iter().any(|a| a == "--images") {
        config.eval.attack.use_images = true;
    }
    if let Some(threads) = value_arg(args, "--threads") {
        config.threads = threads.parse().expect("bad thread count");
    }
    if let Some(shard) = value_arg(args, "--shard") {
        config.shard = parse_shard(&shard);
    }
    config
}

/// Renders the table, per-defense headlines and Pareto fronts of a full
/// matrix, and writes the `--json` regression artifact when asked.
fn report_full(results: Vec<deepsplit_defense::eval::EvalOutcome>, json_path: Option<String>) {
    print!("{}", sweep::render_matrix(&results));

    // Headline: the best protection factor each defense kind achieved.
    println!();
    for kind in DefenseKind::all()
        .into_iter()
        .filter(|&k| k != DefenseKind::None)
    {
        let best = results
            .iter()
            .filter(|r| r.defense.kind == kind)
            .map(|r| (sweep::protection_factor(&results, r), r))
            .max_by(|a, b| a.0.total_cmp(&b.0));
        if let Some((factor, r)) = best {
            println!(
                "best {:>10}: {:>5.1}× DL-CCR reduction on {} (M{}, strength {:.2}, {:+.1} % wirelength)",
                kind.name(),
                factor,
                r.benchmark,
                r.split_layer,
                r.defense.strength,
                r.defense.wirelength_overhead_pct(),
            );
        }
    }

    let report = MatrixReport::new(results);
    println!();
    for group in &report.pareto.groups {
        println!(
            "Pareto front {} / M{} (cost% → DL CCR%):",
            group.benchmark, group.split_layer
        );
        for p in &group.points {
            println!(
                "  {:>9} @ {:.2}: {:+7.2} % cost → {:6.2} % CCR",
                p.defense,
                p.strength,
                p.cost_overhead_pct,
                100.0 * p.dl_ccr,
            );
        }
    }

    if let Some(path) = json_path {
        let json = report.to_json().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        std::fs::write(&path, json).expect("write matrix json");
        eprintln!("wrote {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = sweep_config(&args);
    let artifacts_dir = value_arg(&args, "--artifacts").map(PathBuf::from);
    let json_path = value_arg(&args, "--json");
    let trace_path = value_arg(&args, "--trace");
    let timings = args.iter().any(|a| a == "--timings");
    if trace_path.is_some() || timings {
        obs::install(obs::DEFAULT_TRACE_CAPACITY);
    }

    // Misconfigurations that would discard hours of sweeping are refused
    // before any work happens, not after.
    let merge = args.iter().any(|a| a == "--merge");
    assert!(
        config.shard.1 == 1 || json_path.is_none() || merge,
        "--json needs the full matrix: run every shard into --artifacts, then --merge"
    );
    assert!(
        config.shard.1 == 1 || artifacts_dir.is_some(),
        "--shard requires --artifacts DIR: without published cells the shards can never be merged"
    );
    let resume = args.iter().any(|a| a == "--resume");
    assert!(
        !resume || artifacts_dir.is_some(),
        "--resume requires --artifacts DIR (the directory holding the completed cells)"
    );
    assert!(
        !resume
            || value_arg(&args, "--cache-dir").is_some()
            || value_arg(&args, "--store-url").is_some(),
        "--resume requires --cache-dir DIR or --store-url URL: resumed artifacts skip \
         evaluation, but without a model store every still-pending cell silently re-trains \
         its models from scratch"
    );

    // Merge mode: reassemble shard artifacts, no evaluation. The protocol
    // fingerprint is derived from the same flags, so merging with a config
    // different from the shards' refuses instead of mislabeling results.
    if merge {
        let dir = artifacts_dir.expect("--merge requires --artifacts DIR");
        let results = match merge_artifacts(&dir, &config.cells(), protocol_fingerprint(&config)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("merge failed: {e}");
                std::process::exit(1);
            }
        };
        report_full(results, json_path);
        return;
    }

    let engine_config = EngineConfig {
        sweep: config,
        artifacts_dir,
        resume,
    };
    let config = &engine_config.sweep;

    let cells = config.cells().len();
    let (shard_index, shard_count) = config.shard;
    // Matrix-shape breakdown from the deduplicated cell list (the raw CLI
    // lists may repeat kinds or strengths), so the formula matches `cells`.
    let mut kinds: Vec<&str> = Vec::new();
    let mut strengths: Vec<u64> = Vec::new();
    for (_, _, d) in config.cells() {
        if d.kind != DefenseKind::None {
            if !kinds.contains(&d.kind.name()) {
                kinds.push(d.kind.name());
            }
            if !strengths.contains(&d.strength.to_bits()) {
                strengths.push(d.strength.to_bits());
            }
        }
    }
    eprintln!(
        "sweeping {} of {cells} cells (shard {shard_index}/{shard_count}; {} benchmarks × {} layers × [baseline + {} defenses × {} strengths]) …",
        config.shard_cells().len(),
        config.benchmarks.len(),
        config.split_layers.len(),
        kinds.len(),
        strengths.len(),
    );

    // Model-store selection: a remote attack_server (with --cache-dir as an
    // optional local write-through in front of it), a plain disk store, or
    // per-process memory.
    let store: Box<dyn ModelStore> = if let Some(url) = value_arg(&args, "--store-url") {
        let cache = value_arg(&args, "--cache-dir").map(PathBuf::from);
        match RemoteModelStore::open(&url, cache) {
            Ok(s) => {
                eprintln!("model store: {}", s.base_url());
                Box::new(s)
            }
            Err(e) => {
                eprintln!("--store-url {url}: {e}");
                std::process::exit(1);
            }
        }
    } else if let Some(dir) = value_arg(&args, "--cache-dir") {
        Box::new(DiskModelStore::open(dir).expect("open model store"))
    } else {
        Box::new(MemoryModelStore::new())
    };

    let run: MatrixRun = match deepsplit_engine::run(&engine_config, store.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("engine run failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("{}", run.stats.summary());
    if timings {
        let recorder = obs::global().expect("--timings installs the recorder");
        let table = obs::span_table(&recorder.events(), recorder.dropped());
        eprint!("{table}");
    }
    if let Some(path) = &trace_path {
        std::fs::write(path, obs::export_chrome_trace()).expect("write trace file");
        eprintln!("wrote trace {path}");
    }

    if run.is_full() {
        report_full(run.outcomes(), json_path);
    } else {
        // A shard prints its own rows; the regression artifact only exists
        // for the reassembled matrix (--json was rejected up front).
        print!("{}", sweep::render_matrix(&run.outcomes()));
        eprintln!(
            "shard {shard_index}/{shard_count} done; merge with: defense_matrix --merge --artifacts DIR [--json PATH]"
        );
    }
}
