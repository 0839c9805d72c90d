//! `defense_matrix --timings` reads the engine's `obs` spans: a cold sweep's
//! table shows every phase, a warm sweep's shows no corpus generation, and
//! neither moves a byte of the report.
//!
//! This file is its own test binary, so the process-wide `deepsplit_obs`
//! recorder it installs sees only the spans of this one test.

use deepsplit_core::config::AttackConfig;
use deepsplit_core::store::MemoryModelStore;
use deepsplit_defense::eval::EvalConfig;
use deepsplit_defense::sweep::SweepConfig;
use deepsplit_defense::DefenseKind;
use deepsplit_engine::{run, EngineConfig, MatrixReport};
use deepsplit_layout::geom::Layer;
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_obs as obs;

/// The tiny two-cell matrix of `engine_suite`: the baseline and one lifted
/// cell, each with a corpus of its own.
fn tiny_sweep() -> SweepConfig {
    SweepConfig {
        eval: EvalConfig {
            attack: AttackConfig {
                use_images: false,
                candidates: 8,
                epochs: 5,
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
        kinds: vec![DefenseKind::Lift],
        strengths: vec![1.0],
        benchmarks: vec![Benchmark::C432],
        split_layers: vec![Layer(3)],
        defense_seed: 11,
        threads: 2,
        shard: (0, 1),
    }
}

#[test]
fn timings_are_telemetry_only_and_never_reach_the_report() {
    assert!(obs::install(obs::DEFAULT_TRACE_CAPACITY), "first recorder");
    let recorder = obs::global().expect("recorder installed");
    let dir = std::env::temp_dir().join(format!("deepsplit-span-timings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig {
        sweep: tiny_sweep(),
        artifacts_dir: Some(dir.clone()),
        resume: false,
    };
    let store = MemoryModelStore::new();

    let cold = run(&config, &store).expect("cold run");
    assert_eq!(cold.stats.models_trained, 2);
    let mark = recorder.events().len();
    let table = obs::span_table(&recorder.events(), recorder.dropped());
    for name in ["engine.corpus", "engine.attack", "engine.publish"] {
        assert_eq!(
            table.row(name).map(|r| r.count),
            Some(2),
            "{name}, one per cell:\n{table}"
        );
    }
    assert_eq!(table.dropped, 0);

    // Same store: both models load, so no corpus is generated.
    let warm = run(&config, &store).expect("warm run");
    assert_eq!(warm.stats.models_trained, 0);
    let table = obs::span_table(&recorder.events()[mark..], recorder.dropped());
    assert!(table.row("engine.corpus").is_none(), "{table}");
    assert_eq!(table.row("engine.attack").map(|r| r.count), Some(2));

    assert_eq!(
        MatrixReport::new(cold.outcomes()).to_json().expect("json"),
        MatrixReport::new(warm.outcomes()).to_json().expect("json"),
        "a traced warm run must reproduce the cold run's report byte for byte"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
