//! `attack_server` answers `--help` and an unknown flag with its usage text
//! and exits, instead of serving in the foreground.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `attack_server` with `args`, killing it if it is still running
/// after 20 s: a binary that starts serving never exits by itself.
fn run(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_attack_server"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn attack_server");
    let start = Instant::now();
    while child.try_wait().expect("poll attack_server").is_none() {
        if start.elapsed() > Duration::from_secs(20) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("attack_server {args:?} still ran after 20 s: it started serving");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("attack_server output")
}

#[test]
fn help_and_unknown_flags_print_usage_and_exit() {
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8(help.stdout).expect("UTF-8 usage");
    for flag in [
        "--addr",
        "--cache-dir",
        "--loadgen",
        "--profile",
        "--detect-roc",
        "--seed",
    ] {
        assert!(text.contains(flag), "usage lacks {flag}:\n{text}");
    }

    let unknown = run(&["--addr", "127.0.0.1:0", "--no-such-flag"]);
    assert_eq!(unknown.status.code(), Some(2));
    let err = String::from_utf8(unknown.stderr).expect("UTF-8 stderr");
    assert!(err.contains("unknown flag `--no-such-flag`"), "{err}");
    assert!(err.contains(&text), "the same usage text on stderr:\n{err}");
    assert!(!err.contains("listening"), "{err}");

    // A flag of another mode is unknown to this one.
    let other = run(&["--detect-roc", "--concurrency", "2"]);
    assert_eq!(other.status.code(), Some(2));
}
