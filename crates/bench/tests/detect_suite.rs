//! The query-stream detector against the red-team traffic: a harvester's
//! windows run hot and a benign client's cool, the hysteresis flags,
//! rate-limits and releases, replays are deterministic at any thread
//! count, and the ROC artifact regenerates exactly, byte for byte the
//! committed `BENCH_detect.json`, and clears the CI golden floor.

use deepsplit_bench::redteam::{RocReport, TrafficProfile};
use deepsplit_serve::detect::{
    replay, Action, Countermeasure, DetectConfig, Detector, Observation, WindowScore,
    CLEAR_THRESHOLD, FLAG_THRESHOLD,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn fast_config() -> DetectConfig {
    DetectConfig {
        enabled: true,
        ..DetectConfig::default()
    }
}

#[test]
fn harvest_stream_is_flagged_and_benign_is_not() {
    let config = fast_config();
    let harvest = replay(&config, &TrafficProfile::Harvest.stream(240, 7));
    let benign = replay(&config, &TrafficProfile::Benign.stream(240, 7));
    let h_scores: Vec<f64> = harvest.values().flatten().map(|w| w.score).collect();
    let b_scores: Vec<f64> = benign.values().flatten().map(|w| w.score).collect();
    assert!(h_scores.len() > 3 && b_scores.len() > 3);
    let h_mean = h_scores.iter().sum::<f64>() / h_scores.len() as f64;
    let b_mean = b_scores.iter().sum::<f64>() / b_scores.len() as f64;
    assert!(
        h_mean > FLAG_THRESHOLD,
        "harvest windows must be hot: mean {h_mean}"
    );
    assert!(
        b_mean < CLEAR_THRESHOLD,
        "benign windows must be cool: mean {b_mean}"
    );
}

#[test]
fn hysteresis_flags_after_trigger_and_rate_limits() {
    let config = DetectConfig {
        enabled: true,
        countermeasure: Countermeasure::RateLimit,
        ..DetectConfig::default()
    };
    let detector = Detector::new(config.clone());
    let stream = TrafficProfile::Harvest.stream(200, 3);
    let mut first_limited = None;
    let mut flag_seen = false;
    let mut windows_until_flag = 0usize;
    for (i, obs) in stream.iter().enumerate() {
        let d = detector.admit(&obs.client, obs.tick_us, obs.fingerprint);
        if d.closed.is_some() && !flag_seen {
            windows_until_flag += 1;
        }
        flag_seen |= d.flagged;
        if d.action == Action::RateLimit && first_limited.is_none() {
            first_limited = Some(i);
        }
        if d.action != Action::RateLimit {
            detector.enrich(&obs.client, &obs.candidates, &obs.sinks);
        }
    }
    let limited_at = first_limited.expect("harvest client must get rate limited");
    assert!(
        windows_until_flag >= config.trigger_windows,
        "hysteresis must demand {} hot windows, saw {windows_until_flag}",
        config.trigger_windows
    );
    assert!(limited_at > 0, "the very first request cannot be flagged");
    let snap = detector.snapshot();
    assert_eq!(snap.flagged_clients, 1);
    assert_eq!(
        snap.flagged.first().map(|f| f.client.as_str()),
        Some("harvest")
    );
    assert!(snap.rate_limited > 0);
    assert_eq!(snap.flags_raised, 1);
    assert!(snap.windows_suspicious >= config.trigger_windows);
    // Post-flag windows are arrival-only (429'd requests are never
    // enriched), so the latest score sits in the grey zone — above the
    // clear threshold, which is exactly what keeps the flag alive.
    assert!(
        snap.max_score > CLEAR_THRESHOLD,
        "max_score {}",
        snap.max_score
    );
}

#[test]
fn flag_releases_when_the_client_turns_honest() {
    // 120 harvest arrivals, then the same client sends benign traffic.
    let config = fast_config();
    let detector = Detector::new(config);
    let mut stream = TrafficProfile::Harvest.stream(120, 9);
    let offset = stream.last().map_or(0, |o| o.tick_us);
    for mut obs in TrafficProfile::Benign.stream(120, 9) {
        obs.client = "harvest".to_string();
        obs.tick_us += offset;
        stream.push(obs);
    }
    let mut flagged_seen = false;
    let mut released_after_flag = false;
    for obs in &stream {
        let d = detector.admit(&obs.client, obs.tick_us, obs.fingerprint);
        flagged_seen |= d.flagged;
        if flagged_seen && !d.flagged {
            released_after_flag = true;
        }
        detector.enrich(&obs.client, &obs.candidates, &obs.sinks);
    }
    assert!(flagged_seen, "the harvest phase must raise the flag");
    assert!(
        released_after_flag,
        "sustained cool windows must release the flag"
    );
    assert_eq!(detector.snapshot().flagged_clients, 0);
}

#[test]
fn replay_is_deterministic_and_thread_count_invariant() {
    let config = fast_config();
    let mut stream = Vec::new();
    for p in TrafficProfile::all() {
        stream.extend(p.stream(150, 11));
    }
    stream.sort_by_key(|o| (o.tick_us, o.client.clone()));

    let serial_a = replay(&config, &stream);
    let serial_b = replay(&config, &stream);
    assert_eq!(serial_a, serial_b);
    let json_a = serde_json::to_string(&serial_a).expect("serialise series");
    let json_b = serde_json::to_string(&serial_b).expect("serialise series");
    assert_eq!(json_a, json_b, "score series must be byte-identical");

    // Threaded: one shared detector, each client's stream driven in
    // order from its own thread. Per-client series must not change.
    let detector = Arc::new(Detector::new(config));
    let handles: Vec<_> = TrafficProfile::all()
        .into_iter()
        .map(|p| {
            let detector = Arc::clone(&detector);
            let own: Vec<Observation> = stream
                .iter()
                .filter(|o| o.client == p.name())
                .cloned()
                .collect();
            std::thread::spawn(move || {
                for obs in &own {
                    let d = detector.admit(&obs.client, obs.tick_us, obs.fingerprint);
                    if d.action != Action::RateLimit {
                        detector.enrich(&obs.client, &obs.candidates, &obs.sinks);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    // The threads consumed the closed windows; each client's end-of-stream
    // window must match the serial replay's last one exactly.
    let threaded: BTreeMap<String, WindowScore> = detector.flush().into_iter().collect();
    for (client, series) in &serial_a {
        let serial_tail = series.last().expect("non-empty series");
        assert_eq!(threaded.get(client), Some(serial_tail), "client {client}");
    }
}

#[test]
fn roc_artifact_is_deterministic_with_strong_separation() {
    let a = RocReport::run(240, 1_000_000, 42);
    let b = RocReport::run(240, 1_000_000, 42);
    let json_a = serde_json::to_string_pretty(&a).expect("serialise roc");
    let json_b = serde_json::to_string_pretty(&b).expect("serialise roc");
    assert_eq!(json_a, json_b, "ROC artifact must be byte-identical");
    assert!(
        a.auc_harvest_vs_benign >= 0.9,
        "harvest AUC {}",
        a.auc_harvest_vs_benign
    );
    assert!(
        a.auc_stealthy_vs_benign > 0.5,
        "stealthy AUC {}",
        a.auc_stealthy_vs_benign
    );
    assert_eq!(a.points.len(), 21);
    // TPR/FPR are monotone non-increasing along the threshold sweep.
    for pair in a.points.windows(2) {
        if let [lo, hi] = pair {
            assert!(hi.threshold > lo.threshold);
            assert!(hi.tpr_harvest <= lo.tpr_harvest);
            assert!(hi.fpr <= lo.fpr);
        }
    }
    // The report round-trips (the CI gate parses it back).
    let back: RocReport = serde_json::from_str(&json_a).expect("parse roc");
    assert_eq!(back, a);
}

#[test]
fn roc_artifact_regenerates_exactly_and_clears_the_golden_floor() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/detect-golden.json");
    let golden_raw = std::fs::read_to_string(golden_path).expect("read ci/detect-golden.json");
    let golden: serde::Value = serde_json::from_str(&golden_raw).expect("parse golden");
    let field = |name: &str| -> f64 {
        golden
            .as_object()
            .expect("golden must be an object")
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("golden field {name}"))
    };

    let report = RocReport::run(
        field("requests") as usize,
        field("window_ms") as u64 * 1_000,
        field("seed") as u64,
    );
    assert!(
        report.auc_harvest_vs_benign >= field("auc_harvest_vs_benign_floor"),
        "harvest AUC {} fell below the golden floor",
        report.auc_harvest_vs_benign
    );
    assert!(
        report.auc_stealthy_vs_benign >= field("auc_stealthy_vs_benign_floor"),
        "stealthy AUC {} fell below the golden floor",
        report.auc_stealthy_vs_benign
    );

    // The committed artifact must be exactly what regeneration produces —
    // the ROC path is deterministic, so any drift is a real change.
    let artifact_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detect.json");
    let committed: RocReport = serde_json::from_str(
        &std::fs::read_to_string(artifact_path).expect("read BENCH_detect.json"),
    )
    .expect("parse BENCH_detect.json");
    assert_eq!(
        committed, report,
        "BENCH_detect.json is stale — regenerate with `attack_server --detect-roc --json BENCH_detect.json`"
    );
}
