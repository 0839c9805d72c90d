//! An over-bound `POST /attack` body is refused before it is parsed.
//!
//! The JSON parser builds a value tree many times the size of its text
//! before `AttackRequest` reads a field, so a body past
//! `MAX_ATTACK_BODY_BYTES` must be answered `413` from its length alone.
//! This file is its own test binary: its counting global allocator sees
//! every allocation of the process, so it holds a single test.

use deepsplit_core::store::MemoryModelStore;
use deepsplit_serve::server::MAX_ATTACK_BODY_BYTES;
use deepsplit_serve::{AttackServer, Request, ServeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATED.fetch_add(size, Ordering::Relaxed);
    }
}

/// The system allocator, summing the bytes every allocation asks for while
/// counting is on.
struct Counting;

// SAFETY: every call is forwarded to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most bytes refusing one request may allocate: the error message, the
/// response and the metrics' bookkeeping, never anything that grows with
/// the body.
const REFUSAL_BYTES: usize = 16 * 1024;

#[test]
fn over_bound_attack_bodies_answer_413_without_parsing() {
    let server = AttackServer::new(&ServeConfig::default(), Arc::new(MemoryModelStore::new()));
    // `{"junk":[0,0,…]}`, valid JSON of 16 times the bound: parsing it
    // would build a value tree about 17 times its size.
    let zeros = vec!["0"; 8 * MAX_ATTACK_BODY_BYTES].join(",");
    let body = format!(r#"{{"junk":[{zeros}]}}"#).into_bytes();
    assert!(body.len() > 16 * MAX_ATTACK_BODY_BYTES);
    let request = Request {
        method: "POST".to_string(),
        path: "/attack".to_string(),
        body,
        peer: None,
    };

    COUNTING.store(true, Ordering::Relaxed);
    let response = server.handle(&request);
    COUNTING.store(false, Ordering::Relaxed);
    let allocated = ALLOCATED.load(Ordering::Relaxed);

    assert_eq!(
        response.status,
        413,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    let metrics = server.metrics_snapshot();
    assert_eq!(metrics.models_trained, 0, "nothing may train");
    assert_eq!(metrics.store.saves, 0);
    assert!(
        allocated < REFUSAL_BYTES,
        "refusing a {}-byte body allocated {allocated} bytes",
        request.body.len()
    );

    // A body at the bound is parsed as usual: this one is not a request.
    let at_bound = Request {
        body: vec![b' '; MAX_ATTACK_BODY_BYTES],
        ..request
    };
    assert_eq!(server.handle(&at_bound).status, 400);
}
