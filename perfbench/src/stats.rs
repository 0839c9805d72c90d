//! Small numeric and process helpers: order statistics, seeds, memory and
//! CPU readings, and the result line.

use std::collections::BTreeMap;

/// SplitMix64 of `seed` salted by `salt`: every generated input derives
/// from the command line's `--seed` through this one function.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`; `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Samples strictly beyond the nearest-rank quantile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// User plus system CPU time of the whole process (all threads) in ms.
/// `/proc/self/stat` counts in clock ticks of 10 ms (`USER_HZ` = 100).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at `state`;
    // utime and stime are the 12th and 13th of those.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Busy and stolen CPU ticks of the whole host (all CPUs) so far, from
/// `/proc/stat`: a hypervisor that runs other guests on this one's CPUs
/// shows up as steal, and slows every workload here.
pub fn host_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    let field = |i: usize| cpu.get(i).copied().unwrap_or(0.0);
    // user, nice, system, irq, softirq; then steal.
    let busy = field(0) + field(1) + field(2) + field(5) + field(6);
    (busy, field(7))
}

/// Share of the CPU time this host wanted since `before` (a
/// [`host_ticks`] reading) that the hypervisor gave to someone else.
pub fn steal_share_since(before: (f64, f64)) -> f64 {
    let (busy, steal) = host_ticks();
    let (busy, steal) = (busy - before.0, steal - before.1);
    if busy + steal > 0.0 {
        steal / (busy + steal)
    } else {
        0.0
    }
}

/// Pins this process to the first CPU it may run on; every thread it
/// starts afterwards inherits the mask, so call it before starting any.
/// Each workload keeps at most one core busy anyway, and a guest that uses
/// one vCPU loses far less time to a busy host than one that spreads over
/// two (see `perfbench/README.md`). Returns the CPU, or `None` where the
/// platform has no pinning here or the call fails.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: usize = allowed.trim().split([',', '-']).next()?.parse().ok()?;
    (cpu < 64 && set_affinity(1u64 << cpu)).then_some(cpu)
}

/// `sched_setaffinity(0, 8, &mask)` for the calling thread.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(mask: u64) -> bool {
    const SYS_SCHED_SETAFFINITY: i64 = 203;
    let ret: i64;
    // SAFETY: the syscall reads the 8 bytes of `mask`, which lives until the
    // call returns, and changes only the scheduling mask of the calling
    // thread (pid 0). `syscall` clobbers rcx and r11, declared below, and
    // does not touch the stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0i64,
            in("rsi") std::mem::size_of::<u64>(),
            in("rdx") &mask as *const u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_mask: u64) -> bool {
    false
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The ordered metric set a run reports.
pub type Metrics = BTreeMap<String, Metric>;

/// Adds `name = value unit` to `metrics`.
pub fn put(metrics: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    metrics.insert(name.into(), Metric { value, unit });
}

/// What one run reports on its result line.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`. Values keep every digit Rust's shortest
/// round-trip formatting gives; a non-finite value (which only a broken
/// run can produce) is written as `0` so the line stays valid JSON.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn seeds_are_stable_and_salted() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::new();
        put(&mut m, "setup_s", 0.8127, "s");
        put(&mut m, "ops_per_s", 1.2034, "1/s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 1.2034, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
