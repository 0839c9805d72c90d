//! Engine-level invariants: a fixed spec is bit-deterministic, the model
//! store amortises training (warm runs perform zero epochs yet reproduce
//! byte-identical artifacts), shards reassemble to the unsharded matrix,
//! and resumed runs skip completed cells.

use deepsplit_core::config::AttackConfig;
use deepsplit_core::store::{DiskModelStore, MemoryModelStore};
use deepsplit_defense::eval::EvalConfig;
use deepsplit_defense::sweep::SweepConfig;
use deepsplit_defense::DefenseKind;
use deepsplit_engine::{
    merge_artifacts, protocol_fingerprint, run, sweep, EngineConfig, MatrixReport,
};
use deepsplit_layout::geom::Layer;
use deepsplit_netlist::benchmarks::Benchmark;
use std::path::PathBuf;

fn tiny_eval() -> EvalConfig {
    EvalConfig {
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
    }
}

fn tiny_sweep(kinds: Vec<DefenseKind>, strengths: Vec<f64>) -> SweepConfig {
    SweepConfig {
        eval: tiny_eval(),
        kinds,
        strengths,
        benchmarks: vec![Benchmark::C432],
        split_layers: vec![Layer(3)],
        defense_seed: 11,
        threads: 2,
        shard: (0, 1),
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deepsplit-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_store_skips_training_and_reproduces_bit_identical_results() {
    let config = tiny_sweep(vec![DefenseKind::Lift], vec![1.0]);
    let engine_config = EngineConfig::new(config.clone());
    let store = MemoryModelStore::new();

    let cold = run(&engine_config, &store).expect("cold run");
    assert_eq!(cold.stats.cells_total, 2);
    assert_eq!(cold.stats.models_trained, 2, "two distinct corpora");
    assert!(cold.stats.epochs_trained > 0);
    assert_eq!(cold.stats.store.misses, 2);
    assert!(cold.is_full());

    // Same store, same spec: everything resolves from cache…
    let warm = run(&engine_config, &store).expect("warm run");
    assert_eq!(warm.stats.models_trained, 0, "warm run must not train");
    assert_eq!(warm.stats.epochs_trained, 0);
    assert_eq!(warm.stats.store.hits, 2);
    assert_eq!(warm.stats.store.misses, 0);
    // …and same fingerprint → bit-identical scores and artifact bytes.
    assert_eq!(cold.outcomes(), warm.outcomes());
    assert_eq!(
        MatrixReport::new(cold.outcomes()).to_json().expect("json"),
        MatrixReport::new(warm.outcomes()).to_json().expect("json")
    );

    // A fresh store retrains but lands on the same bits: the sweep itself is
    // deterministic for a fixed spec.
    assert_eq!(sweep(&config), cold.outcomes());

    // Baseline row first, and the report round-trips.
    let outcomes = cold.outcomes();
    assert_eq!(outcomes[0].defense.kind, DefenseKind::None);
    let report = MatrixReport::new(outcomes);
    assert_eq!(
        MatrixReport::from_json(&report.to_json().expect("json")).unwrap(),
        report
    );
}

#[test]
fn disk_store_amortises_across_instances() {
    // Baseline-only matrix: one cell, one model.
    let config = tiny_sweep(vec![], vec![]);
    let engine_config = EngineConfig::new(config);
    let dir = tempdir("store");

    let cold_store = DiskModelStore::open(&dir).unwrap();
    let cold = run(&engine_config, &cold_store).expect("cold run");
    assert_eq!(cold.stats.models_trained, 1);

    // A fresh store instance on the same directory stands in for a second
    // process (or a later run): zero epochs, byte-identical artifact.
    let warm_store = DiskModelStore::open(&dir).unwrap();
    let warm = run(&engine_config, &warm_store).expect("warm run");
    assert_eq!(warm.stats.epochs_trained, 0);
    assert_eq!(warm.stats.store.hits, 1);
    assert_eq!(
        MatrixReport::new(cold.outcomes()).to_json().expect("json"),
        MatrixReport::new(warm.outcomes()).to_json().expect("json"),
        "a JSON-round-tripped model must reproduce exact scores"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Training gives the same bits at every thread count, and the engine
/// records the canonical config, so the blob a cell stores is the same
/// bytes whatever thread budget trained it.
#[test]
fn stored_models_are_the_same_bytes_at_every_thread_budget() {
    let blobs = |threads: usize| {
        let dir = tempdir(&format!("threads-{threads}"));
        let config = SweepConfig {
            threads,
            ..tiny_sweep(vec![], vec![])
        };
        let store = DiskModelStore::open(&dir).unwrap();
        let run = run(&EngineConfig::new(config), &store).expect("cold run");
        assert_eq!(run.stats.models_trained, 1);
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path.strip_prefix(&dir).unwrap().to_path_buf(), bytes)
            })
            .collect();
        files.sort();
        std::fs::remove_dir_all(&dir).unwrap();
        (files, run.outcomes())
    };
    let (one, one_outcomes) = blobs(1);
    assert!(!one.is_empty());
    let (three, three_outcomes) = blobs(3);
    assert!(one == three, "a blob depends on the thread budget");
    assert_eq!(one_outcomes, three_outcomes);
}

#[test]
fn sharded_runs_merge_to_the_unsharded_matrix() {
    let mut config = tiny_sweep(vec![DefenseKind::Lift], vec![0.5, 1.0]);
    let store = MemoryModelStore::new();

    let unsharded = run(&EngineConfig::new(config.clone()), &store).expect("unsharded run");
    assert_eq!(unsharded.stats.cells_total, 3);

    let dir = tempdir("shards");
    for index in 0..2 {
        config.shard = (index, 2);
        let shard_run = run(
            &EngineConfig {
                sweep: config.clone(),
                artifacts_dir: Some(dir.clone()),
                resume: false,
                record_timings: false,
            },
            &store,
        )
        .expect("shard run");
        assert!(!shard_run.is_full());
        assert_eq!(shard_run.stats.cells_in_shard, 2 - index);
        assert_eq!(
            shard_run.stats.epochs_trained, 0,
            "shards share the unsharded run's store"
        );
    }

    config.shard = (0, 1);
    let merged = merge_artifacts(&dir, &config.cells(), protocol_fingerprint(&config))
        .expect("all shards ran");
    assert_eq!(
        merged,
        unsharded.outcomes(),
        "merged == unsharded, in order"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_skips_completed_cells() {
    // Camouflage is the one defense that edits the netlist itself, so using
    // it here also proves a follow-on defense round-trips the engine's
    // artifact + resume path unchanged.
    let config = tiny_sweep(vec![DefenseKind::Camouflage], vec![1.0]);
    let dir = tempdir("resume");
    let store = MemoryModelStore::new();
    let engine_config = EngineConfig {
        sweep: config,
        artifacts_dir: Some(dir.clone()),
        resume: true,
        record_timings: false,
    };

    // Nothing to resume yet: evaluates and publishes artifacts.
    let first = run(&engine_config, &store).expect("first run");
    assert_eq!(first.stats.cells_resumed, 0);
    assert_eq!(first.stats.cells_in_shard, 2);

    // Second run finds every cell on disk: no training, no store traffic,
    // identical results.
    let resumed = run(&engine_config, &store).expect("resumed run");
    assert_eq!(resumed.stats.cells_resumed, 2);
    assert_eq!(resumed.stats.epochs_trained, 0);
    assert_eq!(resumed.stats.store, Default::default());
    assert_eq!(resumed.outcomes(), first.outcomes());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn broken_artifacts_dir_reports_the_path_instead_of_panicking() {
    // A regular file where the artifacts directory should be: creation
    // fails, and the error must carry the offending path so a sharded
    // worker's crash report says what to fix.
    let blocker = tempdir("blocked");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let engine_config = EngineConfig {
        sweep: tiny_sweep(vec![], vec![]),
        artifacts_dir: Some(blocker.clone()),
        resume: false,
        record_timings: false,
    };
    let err = run(&engine_config, &MemoryModelStore::new())
        .expect_err("a blocked artifacts directory must fail the run");
    let message = err.to_string();
    assert!(
        message.contains("create artifacts directory"),
        "error must say what failed: {message}"
    );
    assert!(
        message.contains(&blocker.display().to_string()),
        "error must name the path: {message}"
    );
    std::fs::remove_file(&blocker).unwrap();
}

#[test]
fn timings_are_telemetry_only_and_never_reach_the_report() {
    let config = tiny_sweep(vec![DefenseKind::Lift], vec![1.0]);
    let store = MemoryModelStore::new();
    let dir = tempdir("timings");

    // Untimed baseline.
    let plain = run(&EngineConfig::new(config.clone()), &store).expect("plain run");
    assert!(plain.timings.is_empty(), "timings are opt-in");
    assert_eq!(plain.render_timings(), "");

    // Timed run against the now-warm store, with artifacts.
    let timed = run(
        &EngineConfig {
            sweep: config.clone(),
            artifacts_dir: Some(dir.clone()),
            resume: false,
            record_timings: true,
        },
        &store,
    )
    .expect("timed run");
    assert_eq!(timed.timings.len(), 2, "one breakdown per evaluated cell");
    for (index, t) in &timed.timings {
        assert!(timed.cells.iter().any(|c| c.index == *index));
        assert!(t.attack_ms > 0.0, "attack phase always runs");
        assert!(t.publish_ms > 0.0, "artifacts were written");
        // Warm store: neither corpus generation nor training happened.
        assert_eq!(t.corpus_ms, 0.0);
        assert_eq!(t.train_ms, 0.0);
    }
    let table = timed.render_timings();
    assert!(table.contains("attack_ms") && table.contains("total"));
    assert!(table.contains("c432"));

    // The determinism contract: identical scores, byte-identical report.
    assert_eq!(plain.outcomes(), timed.outcomes());
    assert_eq!(
        MatrixReport::new(plain.outcomes()).to_json().expect("json"),
        MatrixReport::new(timed.outcomes()).to_json().expect("json"),
        "a timed run's --json artifact must be byte-identical to an untimed one's"
    );

    // Timed artifacts resume exactly like untimed ones, and a cold timed run
    // attributes corpus+train cost to the first cell per fingerprint.
    let resumed = run(
        &EngineConfig {
            sweep: config.clone(),
            artifacts_dir: Some(dir.clone()),
            resume: true,
            record_timings: true,
        },
        &store,
    )
    .expect("resumed run");
    assert_eq!(resumed.stats.cells_resumed, 2);
    assert!(
        resumed.timings.is_empty(),
        "resumed cells report no timings"
    );
    assert_eq!(resumed.outcomes(), timed.outcomes());
    std::fs::remove_dir_all(&dir).unwrap();

    let cold = run(
        &EngineConfig {
            sweep: config,
            artifacts_dir: None,
            resume: false,
            record_timings: true,
        },
        &MemoryModelStore::new(),
    )
    .expect("cold timed run");
    assert!(
        cold.timings.iter().any(|(_, t)| t.train_ms > 0.0),
        "a cold run must attribute training cost"
    );
    assert!(cold.timings.iter().any(|(_, t)| t.corpus_ms > 0.0));
    assert_eq!(cold.outcomes(), plain.outcomes());
}
