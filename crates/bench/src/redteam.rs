//! Red-team traffic: the three query streams the attack server's
//! query-stream detector (`deepsplit_serve::detect`) is judged against, each
//! defined once for both of its uses.
//!
//! * Offline, [`TrafficProfile::stream`] is a deterministic arrival stream
//!   of detector [`Observation`]s, and [`RocReport::run`] replays the three
//!   streams through fresh detectors and sweeps the threshold axis: the
//!   `BENCH_detect.json` artifact (`attack_server --detect-roc`).
//! * Live, [`TrafficProfile::request`] and [`TrafficProfile::pause`] are
//!   the `POST /attack` bodies and the pacing `attack_server --loadgen
//!   --profile` sends to a running server.
//!
//! The streams hash their ids with the detector's own [`mix64`] and
//! [`hash_str`], so the artifact's bytes move with the detector's hashing,
//! never with a copy of it.

use deepsplit_core::config::AttackConfig;
use deepsplit_defense::eval::EvalConfig;
use deepsplit_defense::service::AttackRequest;
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_serve::detect::{hash_str, mix64, replay, DetectConfig, Observation};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Which client a stream imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficProfile {
    /// Honest analysis traffic: fresh specs, disjoint candidates, fresh
    /// sinks, humanly jittered pacing.
    Benign,
    /// A systematic harvester: one fingerprint, one candidate universe
    /// swept over and over, machine-gun pacing.
    Harvest,
    /// The harvester hiding inside benign cover traffic.
    Stealthy,
}

/// The victims the live profiles query. The first is the one harvested.
const VICTIMS: [Benchmark; 3] = [Benchmark::C432, Benchmark::C1355, Benchmark::C1908];

impl TrafficProfile {
    /// All profiles, benign first.
    #[must_use]
    pub fn all() -> [TrafficProfile; 3] {
        [
            TrafficProfile::Benign,
            TrafficProfile::Harvest,
            TrafficProfile::Stealthy,
        ]
    }

    /// CLI name, and the client key of the profile's stream.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TrafficProfile::Benign => "benign",
            TrafficProfile::Harvest => "harvest",
            TrafficProfile::Stealthy => "stealthy",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<TrafficProfile> {
        TrafficProfile::all().into_iter().find(|p| p.name() == name)
    }

    /// Whether the `i`-th request harvests: every one of the harvester's,
    /// every third of the stealthy profile's, none of the benign client's.
    fn harvests(self, i: u64) -> bool {
        match self {
            TrafficProfile::Benign => false,
            TrafficProfile::Harvest => true,
            TrafficProfile::Stealthy => i.is_multiple_of(3),
        }
    }

    /// The deterministic arrival stream: `requests` observations under one
    /// client key (the profile's name).
    #[must_use]
    pub fn stream(self, requests: usize, seed: u64) -> Vec<Observation> {
        let mut out = Vec::with_capacity(requests);
        let mut tick = 0u64;
        for i in 0..requests as u64 {
            let (gap, seed) = match self {
                TrafficProfile::Benign => (120_000 + draw(seed, "benign-gap", i) % 160_000, seed),
                TrafficProfile::Harvest => (40_000, seed),
                TrafficProfile::Stealthy => (
                    90_000 + draw(seed, "stealthy-gap", i) % 120_000,
                    seed ^ 0x5745,
                ),
            };
            let (fingerprint, candidates, sinks) = if self.harvests(i) {
                harvest_shaped(seed, i)
            } else {
                benign_shaped(seed, i)
            };
            tick += gap;
            out.push(Observation {
                client: self.name().to_string(),
                tick_us: tick,
                fingerprint,
                candidates,
                sinks,
            });
        }
        out
    }

    /// The `i`-th live `/attack` request under `client`. A harvesting
    /// request queries the harvested victim; benign requests cycle the
    /// victims, and the stealthy cover skips the harvested one, so that the
    /// cover and the harvest sub-stream stay distinguishable.
    #[must_use]
    pub fn request(self, client: &str, i: usize) -> AttackRequest {
        let bench = match self {
            _ if self.harvests(i as u64) => VICTIMS[0],
            TrafficProfile::Benign => VICTIMS[i % VICTIMS.len()],
            _ => VICTIMS[1 + i % 2],
        };
        AttackRequest {
            eval: tiny_eval(),
            top_k: 0,
            client: Some(client.to_string()),
            ..AttackRequest::fast(bench)
        }
    }

    /// How long the `i`-th live request waits before firing: deterministic
    /// jitter for benign and stealthy traffic, nothing for the harvester.
    #[must_use]
    pub fn pause(self, i: usize) -> Duration {
        match self {
            TrafficProfile::Benign => Duration::from_millis(120 + (i as u64 * 37) % 160),
            TrafficProfile::Harvest => Duration::ZERO,
            TrafficProfile::Stealthy => Duration::from_millis(60 + (i as u64 * 29) % 120),
        }
    }
}

/// A deliberately tiny evaluation protocol: a cold `/attack` trains in
/// seconds, so the live profiles can run against a server inside a CI job.
fn tiny_eval() -> EvalConfig {
    EvalConfig {
        attack: AttackConfig {
            use_images: false,
            candidates: 8,
            epochs: 4,
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

/// Counter-based deterministic pseudo-random draw.
fn draw(seed: u64, tag: &str, i: u64) -> u64 {
    mix64(mix64(seed ^ hash_str(tag)).wrapping_add(i))
}

/// A benign request's fingerprint, candidates and sinks: all fresh.
fn benign_shaped(seed: u64, i: u64) -> (u64, Vec<u64>, Vec<u64>) {
    let fp = draw(seed, "benign-fp", i);
    let candidates = (0..24)
        .map(|j| draw(seed, "benign-cand", i * 64 + j))
        .collect();
    let sinks = (0..12)
        .map(|j| draw(seed, "benign-sink", i * 64 + j))
        .collect();
    (fp, candidates, sinks)
}

/// A harvesting request's: one fingerprint, one candidate universe, sinks
/// revisited from a pool of 16.
fn harvest_shaped(seed: u64, i: u64) -> (u64, Vec<u64>, Vec<u64>) {
    let fp = draw(seed, "harvest-fp", 0);
    let candidates = (0..48).map(|j| draw(seed, "harvest-cand", j)).collect();
    let sinks = (0..12)
        .map(|j| draw(seed, "harvest-sink", (i + j) % 16))
        .collect();
    (fp, candidates, sinks)
}

/// One threshold's operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// Suspicion-score threshold.
    pub threshold: f64,
    /// Fraction of harvest windows at or above the threshold.
    pub tpr_harvest: f64,
    /// Fraction of stealthy windows at or above the threshold.
    pub tpr_stealthy: f64,
    /// Fraction of benign windows at or above the threshold.
    pub fpr: f64,
}

/// The `BENCH_detect.json` ROC artifact: the detector's separation power
/// over the three profiles' streams, swept across thresholds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RocReport {
    /// Requests simulated per profile.
    pub requests_per_profile: usize,
    /// Scoring window length used.
    pub window_us: u64,
    /// Stream seed.
    pub seed: u64,
    /// Benign windows scored.
    pub benign_windows: usize,
    /// Harvest windows scored.
    pub harvest_windows: usize,
    /// Stealthy windows scored.
    pub stealthy_windows: usize,
    /// Mean benign window score.
    pub mean_benign_score: f64,
    /// Mean harvest window score.
    pub mean_harvest_score: f64,
    /// Mean stealthy window score.
    pub mean_stealthy_score: f64,
    /// Threshold-free AUC separating harvest from benign windows
    /// (Mann–Whitney).
    pub auc_harvest_vs_benign: f64,
    /// AUC separating stealthy from benign windows.
    pub auc_stealthy_vs_benign: f64,
    /// The swept operating points, threshold ascending.
    pub points: Vec<RocPoint>,
}

impl RocReport {
    /// Runs every profile's stream through a fresh detector and sweeps the
    /// threshold axis. Pure computation over the seed: the report is
    /// byte-identical across runs, machines and thread counts.
    #[must_use]
    pub fn run(requests: usize, window_us: u64, seed: u64) -> RocReport {
        let config = DetectConfig {
            enabled: true,
            window_us,
            ..DetectConfig::default()
        };
        let scores_of = |profile: TrafficProfile| -> Vec<f64> {
            replay(&config, &profile.stream(requests, seed))
                .values()
                .flatten()
                .map(|w| w.score)
                .collect()
        };
        let benign = scores_of(TrafficProfile::Benign);
        let harvest = scores_of(TrafficProfile::Harvest);
        let stealthy = scores_of(TrafficProfile::Stealthy);
        let mean = |s: &[f64]| {
            if s.is_empty() {
                0.0
            } else {
                s.iter().sum::<f64>() / s.len() as f64
            }
        };
        let points = (0..=20)
            .map(|t| {
                let threshold = f64::from(t) / 20.0;
                RocPoint {
                    threshold,
                    tpr_harvest: frac_at_or_above(&harvest, threshold),
                    tpr_stealthy: frac_at_or_above(&stealthy, threshold),
                    fpr: frac_at_or_above(&benign, threshold),
                }
            })
            .collect();
        RocReport {
            requests_per_profile: requests,
            window_us,
            seed,
            benign_windows: benign.len(),
            harvest_windows: harvest.len(),
            stealthy_windows: stealthy.len(),
            mean_benign_score: mean(&benign),
            mean_harvest_score: mean(&harvest),
            mean_stealthy_score: mean(&stealthy),
            auc_harvest_vs_benign: auc(&harvest, &benign),
            auc_stealthy_vs_benign: auc(&stealthy, &benign),
            points,
        }
    }
}

/// Mann–Whitney AUC: the probability a positive window outscores a benign
/// one (ties count half).
fn auc(positives: &[f64], negatives: &[f64]) -> f64 {
    if positives.is_empty() || negatives.is_empty() {
        return 0.0;
    }
    let mut wins = 0.0f64;
    for p in positives {
        for n in negatives {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    wins / (positives.len() as f64 * negatives.len() as f64)
}

fn frac_at_or_above(scores: &[f64], threshold: f64) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    scores.iter().filter(|&&s| s >= threshold).count() as f64 / scores.len() as f64
}

/// The `q`-quantile of pre-sorted microsecond samples, in milliseconds
/// (nearest-rank; `0.0` on an empty set). Exact: the load generator reports
/// its own samples with it, against which the server's bucketed
/// percentiles can be checked.
#[must_use]
pub fn percentile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us.get(rank - 1).copied().unwrap_or(0) as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_core::fingerprint::StableHasher;

    /// Pins what each profile sends: the first 48 live request bodies, their
    /// pauses and the JSON lines of the offline stream behind
    /// `BENCH_detect.json`, as `StableHasher` digests.
    #[test]
    fn red_team_traffic_is_pinned() {
        for (profile, pinned) in [
            (
                TrafficProfile::Benign,
                [
                    "8bdeb765e9382fc556479ae3f89bb97f",
                    "97db2e5518192e0c2741d494d321d416",
                    "afbc6756630360d7e8d05d031d9d0399",
                ],
            ),
            (
                TrafficProfile::Harvest,
                [
                    "20589f15950be205a2306d069111247f",
                    "c86ec345c0ee812582b6f486d54571df",
                    "bb0c3a8644bda70f79876cdfda5b1385",
                ],
            ),
            (
                TrafficProfile::Stealthy,
                [
                    "9333417e94afc545fc3bb84c64a2187f",
                    "c0544b37762a337ed3aceda0bcbe7060",
                    "fa5340f314e02cf8917de594d10ca04e",
                ],
            ),
        ] {
            let mut bodies = StableHasher::new();
            let mut pauses = StableHasher::new();
            for i in 0..48 {
                let request = profile.request(profile.name(), i);
                bodies.write_str(&serde_json::to_string(&request).expect("serialise request"));
                pauses.write_u64(profile.pause(i).as_micros() as u64);
            }
            let mut stream = StableHasher::new();
            for observation in profile.stream(240, 42) {
                stream.write_str(&serde_json::to_string(&observation).expect("serialise"));
            }
            let digests = [bodies, pauses, stream].map(|h| h.finish().to_hex());
            assert_eq!(digests, pinned, "{}", profile.name());
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let us: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_ms(&us, 0.50), 50.0);
        assert_eq!(percentile_ms(&us, 0.99), 99.0);
        assert_eq!(percentile_ms(&us, 1.0), 100.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[7000], 0.99), 7.0);
    }
}
