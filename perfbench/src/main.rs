//! The deepsplit benchmark: three closed-loop, single-client workloads
//! (`cold_cell`, `warm_sweep`, `warm_attack`), each checked op by op, plus a
//! traced run that attributes each op's time to the workspace's layers.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-check [--seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Everything else
//! goes to standard error. See `perfbench/README.md`.

mod stats;
mod traced;
mod workloads;

use deepsplit_obs as obs;
use stats::{
    beyond, host_ticks, median, peak_rss_mb, pin_to_one_cpu, put, quantile, result_line,
    steal_share_since, Metrics, Outcome,
};
use workloads::{measure, setup_timed, Kind, Plan, Seeds, WorkDir};

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            args.self_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} `{value}`: {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Kind::from_name(&value)
                        .ok_or_else(|| bad("cold_cell, warm_sweep or warm_attack"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A measured run: set-up, then ops for `seconds`, tracing off.
fn measured(kind: Kind, seeds: Seeds, seconds: f64, plan: &Plan) -> Result<Outcome, String> {
    let work = WorkDir::new(kind, "run")?;
    let host = host_ticks();
    let (mut loaded, setups) = setup_timed(kind, &work.0, seeds, plan)?;
    let ops = measure(seconds, plan.min_ops(kind), || loaded.op());
    loaded.shutdown();
    let steal = steal_share_since(host);

    let ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let n = ops.len();
    let failed = ops.iter().filter(|o| o.check.is_err()).count();
    let busy_s = ms.iter().sum::<f64>() / 1000.0;
    let mut metrics = Metrics::new();
    put(&mut metrics, "setup_s", median(&setups), "s");
    put(
        &mut metrics,
        "ops_per_s",
        (n - failed) as f64 / busy_s,
        "1/s",
    );
    put(&mut metrics, "peak_rss_mb", peak_rss_mb(), "MiB");

    eprintln!("perfbench: {} — {}", kind.name(), seeds.describe());
    let setups: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("  set-ups (s): {}", setups.join(", "));
    eprintln!(
        "  {n} ops, {failed} failed (error rate {:.4}); latency p50 {:.3} ms (n={n}; not gated)",
        failed as f64 / n as f64,
        median(&ms)
    );
    let fifths: Vec<String> = ms
        .chunks(n.div_ceil(5).max(1))
        .map(|c| format!("{:.3}", median(c)))
        .collect();
    eprintln!("  p50 by fifth of the run (ms): {}", fifths.join(", "));
    eprintln!(
        "  host CPU steal: {:.1}% of the CPU time wanted during the run",
        100.0 * steal
    );
    for q in [0.9, 0.99] {
        if beyond(n, q) >= 10 {
            eprintln!(
                "  latency p{} {:.3} ms (n={n}, {} beyond; not gated)",
                (q * 100.0) as u32,
                quantile(&ms, q),
                beyond(n, q)
            );
        }
    }
    for op in &ops {
        if let Err(e) = &op.check {
            eprintln!("  failed op: {e}");
        }
    }
    Ok(Outcome {
        attempted: n,
        failed,
        metrics,
    })
}

/// Every workload once, measured and traced, with every output check, at
/// self-check sizes. Returns whether all passed.
fn self_check(seed: u64) -> bool {
    let plan = Plan::self_check();
    let seeds = Seeds(seed);
    let mut ok = true;
    for kind in Kind::ALL {
        for (mode, result) in [
            ("measured", measured(kind, seeds, 0.0, &plan)),
            ("traced", traced::run(kind, seeds, 0.0, &plan)),
        ] {
            let verdict = match result {
                Ok(o) if o.failed == 0 && o.attempted > 0 => "ok".to_string(),
                Ok(o) => format!("{} of {} ops failed", o.failed, o.attempted),
                Err(e) => e,
            };
            eprintln!("perfbench self-check: {} {mode}: {verdict}", kind.name());
            ok &= verdict == "ok";
        }
    }
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match pin_to_one_cpu() {
        Some(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
        None => eprintln!("perfbench: could not pin to one CPU; expect more noise"),
    }
    // The program reports each training epoch's loss to this recorder,
    // which the output checks read. A measured run records a few events per
    // op; the traced run records every span for its Chrome trace.
    obs::install(if args.trace || args.self_check {
        1 << 18
    } else {
        1 << 14
    });
    if args.self_check {
        let ok = self_check(args.seed);
        eprintln!(
            "perfbench self-check: {}",
            if ok { "passed" } else { "FAILED" }
        );
        std::process::exit(if ok { 0 } else { 1 });
    }
    let Some(kind) = args.workload else {
        eprintln!("perfbench: --workload is required");
        std::process::exit(2);
    };
    let plan = Plan::measured();
    let seeds = Seeds(args.seed);
    let result = if args.trace {
        traced::run(kind, seeds, args.seconds, &plan)
    } else {
        measured(kind, seeds, args.seconds, &plan)
    };
    match result {
        Ok(o) => println!(
            "{}",
            result_line(o.failed == 0, o.attempted, o.failed, &o.metrics)
        ),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", kind.name());
            std::process::exit(1);
        }
    }
}
