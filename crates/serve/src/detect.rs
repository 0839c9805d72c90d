//! Query-stream adversary detection: a SplitGuard-style defender for the
//! `/attack` endpoint.
//!
//! The DAC'19 attack this workspace serves is, from the server's point of
//! view, a *client workload*: an adversary harvesting ranked responses must
//! send many correlated queries (same corpus fingerprint, overlapping
//! candidate sets, the same sinks revisited, machine-gun pacing) where an
//! honest analysis client sends few, diverse, slow ones. [`Detector`] models
//! each client key's stream over fixed tick windows and scores four
//! features per window:
//!
//! 1. **Fingerprint churn** — `1 − distinct/requests`: harvesters hammer one
//!    model; honest clients spread across specs.
//! 2. **Candidate overlap** — mean bottom-k Jaccard (an `OverlapSketch`)
//!    between successive requests' candidate-pair sets: systematic sweeps
//!    revisit the same pairs.
//! 3. **Sink entropy depth** — how evenly *and* repeatedly the harvested
//!    sink ids recur (an `EntropySketch`): uniform, deep revisiting is
//!    extraction; fresh sinks are analysis.
//! 4. **Burstiness** — pacing regularity (low coefficient of variation)
//!    times rate pressure (mean gap small against the window).
//!
//! The weighted score drives hysteresis: `trigger_windows` consecutive hot
//! windows (score at least [`FLAG_THRESHOLD`]) raise the flag,
//! [`RELEASE_WINDOWS`] consecutive cool ones (at most [`CLEAR_THRESHOLD`])
//! clear it. A flagged client receives the configured [`Countermeasure`]:
//! plain observation, HTTP 429 rate limiting, or *deception* — rankings
//! re-noised toward chance CCR ([`deceive_response`]), visible in telemetry
//! but not to the client.
//!
//! Everything is tick-driven and deterministic: a recorded stream
//! ([`Observation`]) replays to byte-identical score series regardless of
//! wall clock or thread count ([`replay`]), which is what makes the ROC
//! artifact (`BENCH_detect.json`, built by `deepsplit_bench::redteam` from
//! its red-team streams) reproducible and CI-gateable. Those streams hash
//! their ids with this module's [`mix64`] and [`hash_str`], the functions
//! the live request path uses.
//! The detector is contractually inert when disabled (the default):
//! [`Detector::admit`] returns immediately without touching any state.

pub use crate::window::{hash_str, mix64};

use crate::window::{EntropySketch, OverlapSketch, WindowRing};
use deepsplit_core::sync::lock_or_recover;
use deepsplit_defense::service::{expected_ccr, AttackResponse};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Most fingerprints tracked per window — beyond this, churn saturates
/// instead of growing the set (a hostile client must not grow server state).
const MAX_WINDOW_FINGERPRINTS: usize = 512;

/// Window slots in the global query-rate ring.
const RING_SLOTS: usize = 64;

/// How many trailing windows the `queries_last_windows` snapshot field sums.
const RECENT_WINDOWS: usize = 8;

/// Window scores at or above this are *hot* (count toward flagging).
pub const FLAG_THRESHOLD: f64 = 0.60;

/// Window scores at or below this are *cool* (count toward release).
pub const CLEAR_THRESHOLD: f64 = 0.30;

/// Consecutive cool windows before a flagged client is released.
pub const RELEASE_WINDOWS: usize = 3;

/// Most clients tracked at once; beyond this the least-recently-seen
/// client's state is evicted (an adversary minting client keys must not
/// grow server memory without bound).
pub(crate) const MAX_CLIENTS: usize = 1024;

/// What the server does to a flagged client's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Countermeasure {
    /// Score and export, touch nothing — the dashboard-only mode.
    Observe,
    /// Answer flagged clients' `/attack` requests with HTTP 429.
    RateLimit,
    /// Serve flagged clients deterministically re-noised rankings whose
    /// top-1 accuracy collapses to chance ([`deceive_response`]); the wire
    /// schema is unchanged and nothing marks the response as deceived.
    Deceive,
}

impl Countermeasure {
    /// CLI/exposition name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Countermeasure::Observe => "observe",
            Countermeasure::RateLimit => "rate_limit",
            Countermeasure::Deceive => "deceive",
        }
    }

    /// Parses a CLI name (`observe`, `rate-limit`/`rate_limit`, `deceive`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Countermeasure> {
        match name {
            "observe" => Some(Countermeasure::Observe),
            "rate-limit" | "rate_limit" => Some(Countermeasure::RateLimit),
            "deceive" => Some(Countermeasure::Deceive),
            _ => None,
        }
    }
}

/// Detector configuration, part of `ServeConfig`.
#[derive(Debug, Clone)]
pub struct DetectConfig {
    /// Master switch. Off by default: honest deployments (and every
    /// `defense_matrix` sweep) pay two branch instructions, nothing else.
    pub enabled: bool,
    /// Scoring window length in microseconds of server-monotonic tick.
    pub window_us: u64,
    /// Consecutive hot windows before a client is flagged.
    pub trigger_windows: usize,
    /// What flagged clients get.
    pub countermeasure: Countermeasure,
}

impl Default for DetectConfig {
    fn default() -> DetectConfig {
        DetectConfig {
            enabled: false,
            window_us: 1_000_000,
            trigger_windows: 2,
            countermeasure: Countermeasure::Observe,
        }
    }
}

/// One recorded `/attack` arrival — the detector's replayable input unit,
/// and the schema of the fixture JSONL streams under `tests/fixtures/`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Client key the request resolved to.
    pub client: String,
    /// Server-monotonic arrival tick in microseconds.
    pub tick_us: u64,
    /// Stable hash of the request's corpus fingerprint.
    pub fingerprint: u64,
    /// Stable ids of the `(sink, source)` candidate pairs the response
    /// ranked (empty for a request that never reached evaluation).
    pub candidates: Vec<u64>,
    /// Stable ids of the sink fragments the response covered.
    pub sinks: Vec<u64>,
}

/// One closed window's feature breakdown and combined suspicion score.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowScore {
    /// Window epoch (`tick / window_us`).
    pub window: u64,
    /// Requests that arrived in the window.
    pub requests: usize,
    /// Fingerprint-churn feature in `[0, 1]`.
    pub churn: f64,
    /// Successive candidate-overlap feature in `[0, 1]`.
    pub overlap: f64,
    /// Sink entropy-depth feature in `[0, 1]`.
    pub entropy: f64,
    /// Burstiness feature in `[0, 1]`.
    pub burst: f64,
    /// Weighted combination — the number hysteresis runs on.
    pub score: f64,
}

/// What `admit` tells the request path to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Serve honestly.
    Allow,
    /// Refuse with HTTP 429.
    RateLimit,
    /// Serve, but re-noise the response first.
    Deceive,
}

/// The admission verdict for one arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// What to do with this request.
    pub action: Action,
    /// Whether the client is currently flagged.
    pub flagged: bool,
    /// The window this arrival closed, if it opened a new one.
    pub closed: Option<WindowScore>,
}

impl Decision {
    fn allow() -> Decision {
        Decision {
            action: Action::Allow,
            flagged: false,
            closed: None,
        }
    }
}

/// The window currently accumulating for one client.
#[derive(Debug)]
struct WindowAccum {
    epoch: u64,
    requests: usize,
    fingerprints: BTreeSet<u64>,
    overlap_sum: f64,
    overlap_pairs: usize,
    sinks: EntropySketch,
    gap_sum: f64,
    gap_sq_sum: f64,
    gaps: usize,
}

impl WindowAccum {
    fn new(epoch: u64) -> WindowAccum {
        WindowAccum {
            epoch,
            requests: 0,
            fingerprints: BTreeSet::new(),
            overlap_sum: 0.0,
            overlap_pairs: 0,
            sinks: EntropySketch::new(),
            gap_sum: 0.0,
            gap_sq_sum: 0.0,
            gaps: 0,
        }
    }

    /// Scores the accumulated window against `config`'s window length.
    fn score(&self, window_us: u64) -> WindowScore {
        let requests = self.requests.max(1);
        let churn = if self.requests >= 2 {
            1.0 - self.fingerprints.len() as f64 / requests as f64
        } else {
            0.0
        };
        let overlap = if self.overlap_pairs > 0 {
            self.overlap_sum / self.overlap_pairs as f64
        } else {
            0.0
        };
        let entropy = self.sinks.norm_entropy() * self.sinks.depth();
        let burst = if self.gaps >= 2 {
            let n = self.gaps as f64;
            let mean = self.gap_sum / n;
            let var = (self.gap_sq_sum / n - mean * mean).max(0.0);
            let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
            let regularity = (1.0 - cv).clamp(0.0, 1.0);
            let pressure = (1.0 - mean / window_us as f64).clamp(0.0, 1.0);
            regularity * pressure
        } else {
            0.0
        };
        let score = 0.30 * churn + 0.30 * overlap + 0.25 * entropy + 0.15 * burst;
        WindowScore {
            window: self.epoch,
            requests: self.requests,
            churn,
            overlap,
            entropy,
            burst,
            score,
        }
    }
}

/// Per-client detector state, behind its own mutex so one client's stream
/// is processed in arrival order while other clients proceed in parallel.
#[derive(Debug)]
struct ClientState {
    window: Option<WindowAccum>,
    last_tick: Option<u64>,
    /// Previous request's candidate-pair signature, for successive overlap.
    prev_candidates: Option<OverlapSketch>,
    flagged: bool,
    hot_windows: usize,
    cool_windows: usize,
    last_score: Option<WindowScore>,
}

impl ClientState {
    fn new() -> ClientState {
        ClientState {
            window: None,
            last_tick: None,
            prev_candidates: None,
            flagged: false,
            hot_windows: 0,
            cool_windows: 0,
            last_score: None,
        }
    }
}

/// One tracked client: state mutex plus a lock-free recency stamp the
/// eviction scan can read without taking the state lock (keeping the
/// clients-map lock and the per-client locks strictly non-nested).
#[derive(Debug)]
struct ClientSlot {
    state: Mutex<ClientState>,
    last_seen_us: AtomicU64,
}

/// The detector: per-client windowed stream models plus global counters.
#[derive(Debug)]
pub struct Detector {
    config: DetectConfig,
    clients: Mutex<BTreeMap<String, Arc<ClientSlot>>>,
    ring: WindowRing,
    last_tick_us: AtomicU64,
    observed: AtomicUsize,
    windows_scored: AtomicUsize,
    windows_suspicious: AtomicUsize,
    flags_raised: AtomicUsize,
    rate_limited: AtomicUsize,
    deceived: AtomicUsize,
}

/// One flagged client in the snapshot, for the per-client score gauge.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlaggedClient {
    /// Client key (sanitised; still adversary-influenced — escape in any
    /// label position).
    pub client: String,
    /// The client's most recent closed-window suspicion score.
    pub score: f64,
}

/// The `detection` block of `MetricsSnapshot`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectionSnapshot {
    /// Whether the detector is on at all.
    pub enabled: bool,
    /// Active countermeasure name (`observe`, `rate_limit`, `deceive`).
    pub countermeasure: String,
    /// `/attack` arrivals the detector has modelled (probe traffic never
    /// reaches it).
    pub observed_queries: usize,
    /// Clients with live state.
    pub clients_tracked: usize,
    /// Clients currently flagged.
    pub flagged_clients: usize,
    /// Windows closed and scored.
    pub windows_scored: usize,
    /// Scored windows at or above the flag threshold.
    pub windows_suspicious: usize,
    /// Flag-raising transitions (a client can be flagged repeatedly).
    pub flags_raised: usize,
    /// Requests answered 429 by the rate-limit countermeasure.
    pub rate_limited: usize,
    /// Responses re-noised by the deception countermeasure.
    pub deceived: usize,
    /// Arrivals over the trailing few windows (global, all clients).
    pub queries_last_windows: usize,
    /// Highest most-recent-window score over all tracked clients.
    pub max_score: f64,
    /// Flagged clients with their latest scores.
    pub flagged: Vec<FlaggedClient>,
}

impl Detector {
    /// A detector over `config`. Cheap when disabled.
    #[must_use]
    pub fn new(config: DetectConfig) -> Detector {
        let window_us = config.window_us.max(1);
        Detector {
            config,
            clients: Mutex::new(BTreeMap::new()),
            ring: WindowRing::new(RING_SLOTS, window_us),
            last_tick_us: AtomicU64::new(0),
            observed: AtomicUsize::new(0),
            windows_scored: AtomicUsize::new(0),
            windows_suspicious: AtomicUsize::new(0),
            flags_raised: AtomicUsize::new(0),
            rate_limited: AtomicUsize::new(0),
            deceived: AtomicUsize::new(0),
        }
    }

    /// Records one `/attack` arrival *before* evaluation and says what to do
    /// with it. Call [`Detector::enrich`] afterwards with the response's
    /// candidate/sink ids (skip it for requests that never evaluated — the
    /// arrival itself still feeds churn and burstiness, which is what keeps
    /// a rate-limited client's flag alive while it keeps hammering).
    pub fn admit(&self, client: &str, tick_us: u64, fingerprint: u64) -> Decision {
        if !self.config.enabled {
            return Decision::allow();
        }
        self.observed.fetch_add(1, Ordering::Relaxed);
        self.ring.record(tick_us, 1);
        self.last_tick_us.fetch_max(tick_us, Ordering::Relaxed);

        let slot = self.slot_of(client, tick_us);
        let mut state = lock_or_recover(&slot.state);
        let epoch = tick_us / self.config.window_us.max(1);
        let closed = match &state.window {
            Some(w) if epoch > w.epoch => self.close_window(&mut state),
            _ => None,
        };
        let window = state.window.get_or_insert_with(|| WindowAccum::new(epoch));
        window.requests += 1;
        if window.fingerprints.len() < MAX_WINDOW_FINGERPRINTS {
            window.fingerprints.insert(fingerprint);
        }
        if let Some(last) = state.last_tick {
            if tick_us >= last {
                let gap = (tick_us - last) as f64;
                if let Some(w) = &mut state.window {
                    w.gap_sum += gap;
                    w.gap_sq_sum += gap * gap;
                    w.gaps += 1;
                }
            }
        }
        state.last_tick = Some(tick_us);

        let action = if state.flagged {
            match self.config.countermeasure {
                Countermeasure::Observe => Action::Allow,
                Countermeasure::RateLimit => {
                    self.rate_limited.fetch_add(1, Ordering::Relaxed);
                    Action::RateLimit
                }
                Countermeasure::Deceive => {
                    self.deceived.fetch_add(1, Ordering::Relaxed);
                    Action::Deceive
                }
            }
        } else {
            Action::Allow
        };
        Decision {
            action,
            flagged: state.flagged,
            closed,
        }
    }

    /// Feeds the response-side features of the arrival last admitted for
    /// `client`: the ranked candidate-pair ids (successive-overlap feature)
    /// and the covered sink ids (entropy feature).
    pub fn enrich(&self, client: &str, candidates: &[u64], sinks: &[u64]) {
        if !self.config.enabled {
            return;
        }
        let tick = self.last_tick_us.load(Ordering::Relaxed);
        let slot = self.slot_of(client, tick);
        let mut state = lock_or_recover(&slot.state);
        let state = &mut *state;
        let sketch = OverlapSketch::from_ids(candidates);
        if let Some(w) = &mut state.window {
            if let Some(prev) = &state.prev_candidates {
                if !sketch.is_empty() && !prev.is_empty() {
                    w.overlap_sum += prev.jaccard(&sketch);
                    w.overlap_pairs += 1;
                }
            }
            for id in sinks {
                w.sinks.add(*id);
            }
        }
        if !sketch.is_empty() {
            state.prev_candidates = Some(sketch);
        }
    }

    /// Closes every client's accumulating window (end-of-stream scoring for
    /// replays), returning `(client, score)` pairs in client order.
    pub fn flush(&self) -> Vec<(String, WindowScore)> {
        let slots: Vec<(String, Arc<ClientSlot>)> = lock_or_recover(&self.clients)
            .iter()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
            .collect();
        let mut out = Vec::new();
        for (name, slot) in slots {
            let mut state = lock_or_recover(&slot.state);
            if let Some(score) = self.close_window(&mut state) {
                out.push((name, score));
            }
        }
        out
    }

    /// A coherent read-out for `/metrics`.
    #[must_use]
    pub fn snapshot(&self) -> DetectionSnapshot {
        let slots: Vec<(String, Arc<ClientSlot>)> = lock_or_recover(&self.clients)
            .iter()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
            .collect();
        let mut flagged = Vec::new();
        let mut max_score = 0.0f64;
        for (name, slot) in &slots {
            let state = lock_or_recover(&slot.state);
            let score = state.last_score.as_ref().map_or(0.0, |w| w.score);
            max_score = max_score.max(score);
            if state.flagged {
                flagged.push(FlaggedClient {
                    client: name.clone(),
                    score,
                });
            }
        }
        let now = self.last_tick_us.load(Ordering::Relaxed);
        DetectionSnapshot {
            enabled: self.config.enabled,
            countermeasure: self.config.countermeasure.name().to_string(),
            observed_queries: self.observed.load(Ordering::Relaxed),
            clients_tracked: slots.len(),
            flagged_clients: flagged.len(),
            windows_scored: self.windows_scored.load(Ordering::Relaxed),
            windows_suspicious: self.windows_suspicious.load(Ordering::Relaxed),
            flags_raised: self.flags_raised.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            deceived: self.deceived.load(Ordering::Relaxed),
            queries_last_windows: self.ring.recent(now, RECENT_WINDOWS) as usize,
            max_score,
            flagged,
        }
    }

    /// Scores and retires the client's accumulating window, advancing the
    /// hysteresis state machine. Empty windows between two arrivals are
    /// skipped entirely (neither hot nor cool): a flagged client that goes
    /// silent stays flagged until it resumes and earns its release.
    fn close_window(&self, state: &mut ClientState) -> Option<WindowScore> {
        let accum = state.window.take()?;
        let scored = accum.score(self.config.window_us.max(1));
        self.windows_scored.fetch_add(1, Ordering::Relaxed);
        if scored.score >= FLAG_THRESHOLD {
            self.windows_suspicious.fetch_add(1, Ordering::Relaxed);
            state.hot_windows += 1;
            state.cool_windows = 0;
        } else if scored.score <= CLEAR_THRESHOLD {
            state.cool_windows += 1;
            state.hot_windows = 0;
        } else {
            // The grey zone refreshes neither counter chain: ambiguous
            // windows must not walk a client toward either verdict.
            state.hot_windows = 0;
            state.cool_windows = 0;
        }
        if !state.flagged && state.hot_windows >= self.config.trigger_windows.max(1) {
            state.flagged = true;
            state.hot_windows = 0;
            self.flags_raised.fetch_add(1, Ordering::Relaxed);
        } else if state.flagged && state.cool_windows >= RELEASE_WINDOWS {
            state.flagged = false;
            state.cool_windows = 0;
        }
        state.last_score = Some(scored.clone());
        Some(scored)
    }

    /// The client's state slot, created (with LRU-style eviction at the cap)
    /// when absent. The map lock never nests with a state lock.
    fn slot_of(&self, client: &str, tick_us: u64) -> Arc<ClientSlot> {
        let mut clients = lock_or_recover(&self.clients);
        if let Some(slot) = clients.get(client) {
            slot.last_seen_us.fetch_max(tick_us, Ordering::Relaxed);
            return Arc::clone(slot);
        }
        if clients.len() >= MAX_CLIENTS {
            // Deterministic eviction: oldest recency stamp, lexicographic
            // first on ties (BTreeMap iteration order).
            let victim = clients
                .iter()
                .map(|(name, slot)| (slot.last_seen_us.load(Ordering::Relaxed), name.clone()))
                .min();
            if let Some((_, name)) = victim {
                clients.remove(&name);
            }
        }
        let slot = Arc::new(ClientSlot {
            state: Mutex::new(ClientState::new()),
            last_seen_us: AtomicU64::new(tick_us),
        });
        clients.insert(client.to_string(), Arc::clone(&slot));
        slot
    }
}

/// Derives the detector's stable id for a fingerprint hex string.
#[must_use]
pub(crate) fn fingerprint_id(fp_hex: &str) -> u64 {
    crate::window::hash_str(fp_hex)
}

/// Stable candidate-pair and sink ids of a response's rankings, as the
/// detector's `enrich` expects them.
#[must_use]
pub(crate) fn response_ids(response: &AttackResponse) -> (Vec<u64>, Vec<u64>) {
    let mut candidates = Vec::new();
    let mut sinks = Vec::with_capacity(response.rankings.len());
    for r in &response.rankings {
        sinks.push(u64::from(r.sink));
        for c in &r.candidates {
            candidates.push((u64::from(r.sink) << 32) | u64::from(c.source));
        }
    }
    (candidates, sinks)
}

/// Deterministically re-noises `response`'s rankings toward chance CCR:
/// candidate order is shuffled by a salted hash, confidences are flattened
/// to a gently decreasing near-uniform profile, and `dl_ccr`/`expected_ccr`
/// are recomputed from the deceived rankings (over the ranked sinks' pins).
/// Same `(salt, response)` → identical output, so a flagged client probing
/// for deception by repeating a request sees a perfectly stable answer.
pub fn deceive_response(response: &mut AttackResponse, salt: u64) {
    let mut total_pins = 0usize;
    let mut correct_pins = 0usize;
    for r in &mut response.rankings {
        total_pins += r.sink_pins;
        let n = r.candidates.len();
        if n == 0 {
            continue;
        }
        let sink = u64::from(r.sink);
        r.candidates
            .sort_by_key(|c| mix64(salt ^ (sink << 32) ^ u64::from(c.source)));
        // Linear descending weights summing to 1: 2(n−i)/(n(n+1)). The top
        // confidence is 2/(n+1) ≈ chance for a shuffled list.
        let n_f = n as f64;
        for (i, c) in r.candidates.iter_mut().enumerate() {
            c.confidence = 2.0 * (n_f - i as f64) / (n_f * (n_f + 1.0));
        }
        if r.candidates.first().is_some_and(|top| top.correct) {
            correct_pins += r.sink_pins;
        }
    }
    response.dl_ccr = if total_pins == 0 {
        0.0
    } else {
        correct_pins as f64 / total_pins as f64
    };
    response.expected_ccr = expected_ccr(&response.rankings, total_pins);
}

/// Replays a recorded arrival stream through a fresh detector, mirroring
/// the live request path (rate-limited arrivals are not enriched), and
/// returns each client's full closed-window score series.
#[must_use]
pub fn replay(config: &DetectConfig, stream: &[Observation]) -> BTreeMap<String, Vec<WindowScore>> {
    let detector = Detector::new(config.clone());
    let mut series: BTreeMap<String, Vec<WindowScore>> = BTreeMap::new();
    for obs in stream {
        let decision = detector.admit(&obs.client, obs.tick_us, obs.fingerprint);
        if let Some(w) = decision.closed {
            series.entry(obs.client.clone()).or_default().push(w);
        }
        if decision.action != Action::RateLimit {
            detector.enrich(&obs.client, &obs.candidates, &obs.sinks);
        }
    }
    for (client, w) in detector.flush() {
        series.entry(client).or_default().push(w);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_detector_is_inert() {
        let d = Detector::new(DetectConfig::default());
        for i in 0..50 {
            let decision = d.admit("mallory", i * 1_000, 7);
            assert_eq!(decision, Decision::allow());
            d.enrich("mallory", &[1, 2, 3], &[4, 5]);
        }
        let snap = d.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.observed_queries, 0);
        assert_eq!(snap.clients_tracked, 0);
        assert_eq!(snap.windows_scored, 0);
    }

    #[test]
    fn deception_is_deterministic_and_collapses_confidence() {
        use deepsplit_defense::service::{RankedMatch, SinkRanking};
        let rankings: Vec<SinkRanking> = (0..6u32)
            .map(|sink| SinkRanking {
                sink,
                sink_pins: 2,
                candidates: (0..8u32)
                    .map(|source| RankedMatch {
                        source,
                        confidence: if source == 0 { 0.9 } else { 0.1 / 7.0 },
                        correct: source == 0,
                    })
                    .collect(),
            })
            .collect();
        let mut response = AttackResponse {
            benchmark: "c432".to_string(),
            split_layer: 3,
            fingerprint: "00".to_string(),
            model_cached: true,
            trained_epochs: 0,
            dl_ccr: 1.0,
            expected_ccr: 0.9,
            chance_ccr: 1.0 / 8.0,
            proximity_ccr: 0.3,
            flow: None,
            inference_ms: 1.0,
            resolve_ms: 1.0,
            rankings,
        };
        let honest = response.clone();
        deceive_response(&mut response, 0xfeed);
        assert_ne!(response.rankings, honest.rankings, "order must change");
        // Expected CCR collapses from 0.9 to ≈ 2/(n+1) — chance-like.
        assert!(
            response.expected_ccr < 0.3,
            "expected_ccr {}",
            response.expected_ccr
        );
        assert!(
            response.dl_ccr < honest.dl_ccr,
            "top-1 accuracy must collapse"
        );
        // Confidences still rank-descending and sum to 1 per sink.
        for r in &response.rankings {
            let sum: f64 = r.candidates.iter().map(|c| c.confidence).sum();
            assert!((sum - 1.0).abs() < 1e-9, "per-sink sum {sum}");
            let mut last = f64::INFINITY;
            for c in &r.candidates {
                assert!(c.confidence <= last);
                last = c.confidence;
            }
        }
        // Deterministic: the same salt reproduces the same deception.
        let mut again = honest.clone();
        deceive_response(&mut again, 0xfeed);
        assert_eq!(again, response);
        // A different salt deceives differently.
        let mut other = honest;
        deceive_response(&mut other, 0xbeef);
        assert_ne!(other.rankings, response.rankings);
    }

    #[test]
    fn client_cap_evicts_the_least_recent() {
        let detector = Detector::new(DetectConfig {
            enabled: true,
            ..DetectConfig::default()
        });
        // Fill the cap; client 0 is the stalest.
        let tick = |i: usize| (i as u64 + 1) * 10_000;
        for i in 0..MAX_CLIENTS {
            detector.admit(&format!("c{i}"), tick(i), 1);
        }
        assert_eq!(detector.snapshot().clients_tracked, MAX_CLIENTS);
        // Admitting a newcomer evicts c0.
        detector.admit("newcomer", tick(MAX_CLIENTS), 1);
        let snap = detector.snapshot();
        assert_eq!(snap.clients_tracked, MAX_CLIENTS);
        assert!(snap.flagged.is_empty());
        detector.admit("c1", tick(MAX_CLIENTS + 1), 1);
        assert_eq!(
            detector.snapshot().clients_tracked,
            MAX_CLIENTS,
            "c1 survived"
        );
        detector.admit("c0", tick(MAX_CLIENTS + 2), 1);
        assert_eq!(
            detector.snapshot().clients_tracked,
            MAX_CLIENTS,
            "re-admitting c0 evicted someone else — the cap holds"
        );
    }

    #[test]
    fn observations_round_trip_through_json() {
        let obs = Observation {
            client: "alice".to_string(),
            tick_us: 123_456,
            fingerprint: 42,
            candidates: vec![1, 2, 3],
            sinks: vec![9, 8],
        };
        let json = serde_json::to_string(&obs).expect("serialise observation");
        let back: Observation = serde_json::from_str(&json).expect("parse observation");
        assert_eq!(back, obs);
    }
}
