//! The benchmark's own test: its fast self-check runs every workload, both
//! measured and traced, at one-epoch sizes with every output check.

use std::process::Command;

#[test]
fn self_check_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--self-check", "--seed", "7"])
        .output()
        .expect("run perfbench --self-check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "self-check failed:\n{stderr}");
    assert!(stderr.contains("perfbench self-check: passed"), "{stderr}");
}

#[test]
fn a_measured_run_ends_with_one_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "warm_attack",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    // The median latency, with its sample count, goes to standard error.
    assert!(stderr.contains("latency p50 "), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for metric in ["setup_s", "ops_per_s", "peak_rss_mb"] {
        assert!(
            last.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric} in {last}"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
