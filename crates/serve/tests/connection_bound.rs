//! The server holds at most one accepted connection per worker: the
//! connections past that wait in the kernel's listen backlog, which costs
//! the process no file descriptor.
//!
//! Linux only: it counts `/proc/self/fd`. This file is its own test binary
//! so that no other test's sockets move the count; it holds a single test.
#![cfg(target_os = "linux")]

use deepsplit_core::httpc;
use deepsplit_core::store::MemoryModelStore;
use deepsplit_serve::{start, ServeConfig};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 2;
const IDLE_CONNECTIONS: usize = 64;
/// Descriptors the process may open beside the connections.
const SLACK: usize = 4;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn idle_connections_hold_at_most_one_socket_per_worker() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: WORKERS,
        ..ServeConfig::default()
    };
    let server = start(&config, Arc::new(MemoryModelStore::new())).expect("bind ephemeral port");
    let before = open_fds();
    let idle: Vec<TcpStream> = (0..IDLE_CONNECTIONS)
        .map(|_| TcpStream::connect(server.addr()).expect("connect"))
        .collect();
    // Sample for half a second: a loop that accepts every connection it
    // can takes all of them within milliseconds.
    let most = (0..20)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(25));
            open_fds()
        })
        .max()
        .unwrap_or(before);
    let added = most.saturating_sub(before);
    assert!(
        added <= IDLE_CONNECTIONS + WORKERS + SLACK,
        "{IDLE_CONNECTIONS} idle connections to {WORKERS} workers added {added} descriptors"
    );

    // Closed, they free the workers for the next request.
    drop(idle);
    let health = httpc::get(
        &format!("{}/healthz", server.url()),
        Duration::from_secs(30),
    )
    .expect("GET /healthz");
    assert_eq!(health.status, 200);
    server.shutdown();
}
