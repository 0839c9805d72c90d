//! Training is allocation-steady: after the first epoch, a batch allocates
//! only a small, fixed number of bytes, however large the batch's buffers.
//!
//! This file is its own test binary: its counting global allocator sees
//! every allocation of the process, so it holds a single test, whose cases
//! run one after another. Each allocation is stamped with the trace
//! recorder's clock, and the `train_epoch` spans of the trace split a run's
//! allocations into epochs.

use deepsplit_core::config::AttackConfig;
use deepsplit_core::dataset::PreparedDesign;
use deepsplit_core::train::train_with_threads;
use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::geom::Layer;
use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
use deepsplit_netlist::library::CellLibrary;
use deepsplit_obs as obs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Allocations logged, at most.
const LOG: usize = 1 << 16;

/// Each allocation once a recorder runs: its time in microseconds on the
/// recorder's clock (high half) and its size in bytes (low half).
static ALLOCATIONS: [AtomicU64; LOG] = [const { AtomicU64::new(0) }; LOG];
static LOGGED: AtomicUsize = AtomicUsize::new(0);

/// Logs an allocation of `size` bytes. Reading the recorder's clock
/// allocates nothing.
fn log(size: usize) {
    if let Some(recorder) = obs::global() {
        let at = LOGGED.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = ALLOCATIONS.get(at) {
            slot.store(
                recorder.now_us() << 32 | size.min(u32::MAX as usize) as u64,
                Ordering::Relaxed,
            );
        }
    }
}

/// The system allocator, logging the bytes every allocation asks for.
struct Logging;

// SAFETY: every call is forwarded to the system allocator unchanged.
unsafe impl GlobalAlloc for Logging {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        log(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        log(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        log(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Logging = Logging;

/// Most bytes a batch after the first epoch may allocate: the few small,
/// fixed-size vectors the loop keeps per batch and per chunk, and the
/// bookkeeping of spawning worker threads.
const BATCH_BYTES: usize = 16 * 1024;

fn prepared(bench: Benchmark, seed: u64, config: &AttackConfig, queries: usize) -> PreparedDesign {
    let lib = CellLibrary::nangate45();
    let nl = generate_with(bench, 0.4, seed, &lib);
    let d = Design::implement(nl, lib, &ImplementConfig::default());
    let mut p = PreparedDesign::prepare(&d, Layer(3), config);
    p.truncate_queries(queries, seed);
    p
}

/// Bytes each epoch of a training run allocates.
fn bytes_per_epoch(
    designs: &[PreparedDesign],
    config: &AttackConfig,
    threads: usize,
) -> Vec<usize> {
    let recorder = obs::global().expect("recorder installed");
    let mark = recorder.events().len();
    LOGGED.store(0, Ordering::Relaxed);
    let (_, report) = train_with_threads(designs, config, threads);
    let logged = LOGGED.load(Ordering::Relaxed);
    assert!(logged <= LOG, "allocation log overflowed");
    assert!(report.epoch_loss.iter().all(|l| l.is_finite()));
    let allocations: Vec<(u64, usize)> = ALLOCATIONS[..logged]
        .iter()
        .map(|a| {
            let v = a.load(Ordering::Relaxed);
            (v >> 32, (v & u64::from(u32::MAX)) as usize)
        })
        .collect();
    let epochs: Vec<(u64, u64)> = recorder.events()[mark..]
        .iter()
        .filter(|e| e.name == "train_epoch")
        .map(|e| (e.start_us, e.start_us + e.dur_us.expect("a span")))
        .collect();
    assert_eq!(epochs.len(), config.epochs, "one span per epoch");
    epochs
        .iter()
        .map(|&(start, end)| {
            allocations
                .iter()
                .filter(|&&(at, _)| (start..=end).contains(&at))
                .map(|&(_, size)| size)
                .sum()
        })
        .collect()
}

#[test]
fn later_batches_allocate_a_small_fixed_number_of_bytes() {
    assert!(obs::install(obs::DEFAULT_TRACE_CAPACITY), "first recorder");
    let base = AttackConfig {
        candidates: 8,
        image_px: 9,
        image_scales_um: vec![0.2, 0.6],
        epochs: 4,
        ..AttackConfig::fast()
    };
    let mut failures = Vec::new();
    for (case, use_images, queries, batch_size) in [
        // One batch per epoch: each later epoch is exactly one batch.
        ("VecOnly, one batch per epoch", false, 48, 64),
        ("VecImg, one batch per epoch", true, 12, 16),
        // Batches of shuffled, uneven queries: a later batch may stack
        // more rows than any batch of the first epoch.
        ("VecOnly, 8 queries per batch", false, 48, 8),
    ] {
        let config = AttackConfig {
            use_images,
            batch_size,
            ..base.clone()
        };
        let designs = vec![
            prepared(Benchmark::C432, 1, &config, queries),
            prepared(Benchmark::C880, 2, &config, queries),
        ];
        let trainable: usize = designs
            .iter()
            .map(|d| {
                (0..d.num_queries())
                    .filter(|&q| d.target(q).is_some() && d.sets[q].candidates.len() >= 2)
                    .count()
            })
            .sum();
        let batches = trainable.div_ceil(batch_size);
        for threads in [1, 2] {
            let epochs = bytes_per_epoch(&designs, &config, threads);
            let worst = epochs[1..].iter().max().copied().unwrap_or(0) / batches;
            eprintln!(
                "{case}, {threads} threads, {batches} batches per epoch: \
                 bytes per epoch {epochs:?}, {worst} per later batch"
            );
            if worst > BATCH_BYTES {
                failures.push(format!(
                    "{case}, {threads} threads: {worst} bytes per batch"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "batches after the first epoch allocate more than {BATCH_BYTES} bytes: {failures:?}"
    );
}
