//! Windowed stream statistics: a lock-free ring of per-window counters and
//! the two streaming sketches the adversary detector ([`crate::detect`])
//! scores query windows with.
//!
//! Everything here is deterministic — same inputs, same numbers, regardless
//! of thread count or wall clock. Time enters only as caller-supplied ticks
//! (microseconds from an arbitrary epoch), so recorded streams replay
//! byte-identically.
//!
//! - [`WindowRing`]: N epoch-stamped slots of atomic counters. Recording is
//!   `fetch_add`-only on the hot path (one CAS when a slot rolls over to a
//!   new window), so every worker thread can bump it without a lock.
//! - [`EntropySketch`]: fixed-width bucketed id counts, answering "how
//!   concentrated is this stream?" via Shannon entropy, occupancy and a
//!   repeat-depth ratio.
//! - [`OverlapSketch`]: a bottom-k minhash signature with a Jaccard
//!   estimator, answering "how similar are these two id sets?" in O(k).
//!
//! The mixing/hashing helpers ([`mix64`], [`hash_str`]) are the stable
//! (platform- and run-independent) id derivation the sketches expect.

use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 finalizer: a fast, well-distributed, *stable* 64-bit mixer.
/// Used to spread externally-chosen ids (fragment numbers, seeds) across
/// sketch buckets; never used for anything content-addressed.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over UTF-8 bytes: the stable string → id hash for client keys and
/// fingerprint hex strings.
#[must_use]
pub fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One slot of a [`WindowRing`]: which window epoch it currently counts for,
/// and the count itself.
#[derive(Debug, Default)]
struct Slot {
    epoch: AtomicU64,
    count: AtomicU64,
}

/// A lock-free ring of per-window counters.
///
/// Ticks are bucketed into windows of `window_us`; window `e` lands in slot
/// `e % N`, which is lazily re-stamped (one CAS) the first time a tick from
/// a newer epoch reaches it. Counts from windows more than `N` epochs old
/// are overwritten — the ring answers "recent rate", not history.
///
/// The rollover race is benign by construction: concurrent recorders either
/// all observe the old epoch (their bumps die with the stale window — at
/// most one window's worth of undercount) or the CAS winner has already
/// reset the count and everyone accumulates into the new epoch.
#[derive(Debug)]
pub struct WindowRing {
    slots: Vec<Slot>,
    window_us: u64,
}

impl WindowRing {
    /// A ring of `slots` windows of `window_us` microseconds each.
    #[must_use]
    pub fn new(slots: usize, window_us: u64) -> WindowRing {
        WindowRing {
            slots: (0..slots.max(1)).map(|_| Slot::default()).collect(),
            window_us: window_us.max(1),
        }
    }

    /// The window epoch a tick falls into.
    #[must_use]
    pub fn epoch_of(&self, tick_us: u64) -> u64 {
        tick_us / self.window_us
    }

    fn slot_of(&self, epoch: u64) -> &Slot {
        let idx = (epoch as usize) % self.slots.len();
        // splint::allow(P1, "the modulo keeps the index inside the ring, which `new` makes non-empty")
        &self.slots[idx]
    }

    /// Adds `n` to the window containing `tick_us`.
    pub fn record(&self, tick_us: u64, n: u64) {
        let epoch = self.epoch_of(tick_us);
        let slot = self.slot_of(epoch);
        let stamped = slot.epoch.load(Ordering::Acquire);
        if stamped != epoch {
            // A tick from the past (older than the stamped window) must not
            // resurrect a recycled slot; drop it instead.
            if stamped > epoch {
                return;
            }
            if slot
                .epoch
                .compare_exchange(stamped, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slot.count.store(0, Ordering::Release);
            } else if slot.epoch.load(Ordering::Acquire) != epoch {
                return;
            }
        }
        slot.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Total count over the `n` windows ending at (and including) the one
    /// containing `now_us` — a recent-rate read-out. A window whose slot was
    /// recycled for a newer one counts 0.
    #[must_use]
    pub fn recent(&self, now_us: u64, n: usize) -> u64 {
        let end = self.epoch_of(now_us);
        let span = n.min(self.slots.len()) as u64;
        let start = end.saturating_sub(span.saturating_sub(1));
        (start..=end)
            .map(|epoch| {
                let slot = self.slot_of(epoch);
                if slot.epoch.load(Ordering::Acquire) == epoch {
                    slot.count.load(Ordering::Relaxed)
                } else {
                    0
                }
            })
            .sum()
    }
}

/// Bucket count of an [`EntropySketch`]: fixed so sketch memory is constant
/// no matter how hostile the stream is.
pub const ENTROPY_BUCKETS: usize = 256;

/// A fixed-width frequency sketch over 64-bit ids.
///
/// Ids are spread over [`ENTROPY_BUCKETS`] buckets by [`mix64`]; the sketch
/// then answers three questions about the stream so far: its Shannon
/// entropy (how evenly spread), its occupancy (how many distinct-ish ids)
/// and its repeat depth (what fraction of arrivals were repeats). Bucket
/// collisions undercount occupancy by at most the collision rate — with 256
/// buckets and the tens-of-ids-per-window streams the detector sees, the
/// bias is negligible and, crucially, deterministic.
#[derive(Debug, Clone)]
pub struct EntropySketch {
    counts: [u32; ENTROPY_BUCKETS],
    total: u64,
}

impl Default for EntropySketch {
    fn default() -> EntropySketch {
        EntropySketch {
            counts: [0; ENTROPY_BUCKETS],
            total: 0,
        }
    }
}

impl EntropySketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> EntropySketch {
        EntropySketch::default()
    }

    /// Records one arrival of `id`.
    pub fn add(&mut self, id: u64) {
        let idx = (mix64(id) as usize) % ENTROPY_BUCKETS;
        // splint::allow(P1, "the modulo keeps the index inside the fixed bucket array")
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.total += 1;
    }

    /// Buckets with at least one arrival (≈ distinct ids while well under
    /// [`ENTROPY_BUCKETS`]).
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Shannon entropy of the bucket distribution, in nats.
    #[must_use]
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        -self
            .counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = f64::from(c) / total;
                p * p.ln()
            })
            .sum::<f64>()
    }

    /// Entropy normalised to `[0, 1]` by the maximum for the observed
    /// occupancy (`ln(occupied)`); `0` when fewer than two buckets are hit.
    #[must_use]
    pub fn norm_entropy(&self) -> f64 {
        let occupied = self.occupied();
        if occupied < 2 {
            return 0.0;
        }
        (self.entropy() / (occupied as f64).ln()).clamp(0.0, 1.0)
    }

    /// Fraction of arrivals that revisited an already-seen id: `0` when every
    /// arrival was fresh, approaching `1` as the stream hammers a fixed set.
    #[must_use]
    pub fn depth(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.occupied() as f64 / self.total as f64
    }
}

/// Signature size of an [`OverlapSketch`]: bottom-64 is plenty for the
/// dozens-of-candidates sets one `/attack` response carries.
pub const OVERLAP_K: usize = 64;

/// A bottom-k minhash signature of an id set, with a Jaccard estimator.
///
/// The signature keeps the `k` smallest [`mix64`] images of the set's ids.
/// Two signatures estimate their sets' Jaccard similarity from the bottom-k
/// of their union: the fraction of those values present in both sketches.
/// Exact when both sets fit in `k`; an unbiased estimate beyond that.
#[derive(Debug, Clone, Default)]
pub struct OverlapSketch {
    /// Sorted ascending, deduplicated, at most [`OVERLAP_K`] long.
    mins: Vec<u64>,
}

impl OverlapSketch {
    /// The signature of `ids` (duplicates collapse).
    #[must_use]
    pub fn from_ids(ids: &[u64]) -> OverlapSketch {
        let mut mins: Vec<u64> = ids.iter().map(|&id| mix64(id)).collect();
        mins.sort_unstable();
        mins.dedup();
        mins.truncate(OVERLAP_K);
        OverlapSketch { mins }
    }

    /// Whether the underlying set was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// Estimated Jaccard similarity `|A ∩ B| / |A ∪ B|` of the two sketched
    /// sets (`0` when either is empty).
    #[must_use]
    pub fn jaccard(&self, other: &OverlapSketch) -> f64 {
        if self.mins.is_empty() || other.mins.is_empty() {
            return 0.0;
        }
        // Bottom-k of the union, counting values present in both sketches.
        let mut union_low = 0usize;
        let mut shared = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while union_low < OVERLAP_K && (i < self.mins.len() || j < other.mins.len()) {
            let a = self.mins.get(i).copied();
            let b = other.mins.get(j).copied();
            match (a, b) {
                (Some(x), Some(y)) if x == y => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
                (Some(x), Some(y)) if x < y => i += 1,
                (Some(_), Some(_)) => j += 1,
                (Some(_), None) => i += 1,
                (None, Some(_)) => j += 1,
                (None, None) => break,
            }
            union_low += 1;
        }
        if union_low == 0 {
            0.0
        } else {
            shared as f64 / union_low as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mixers_are_stable_across_runs() {
        // Frozen values: the detector's replay determinism depends on these
        // never drifting.
        assert_eq!(mix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(mix64(1), 0x910a2dec89025cc1);
        assert_eq!(hash_str(""), 0xcbf29ce484222325);
        assert_eq!(hash_str("mallory"), hash_str("mallory"));
        assert_ne!(hash_str("mallory"), hash_str("alice"));
    }

    #[test]
    fn window_ring_counts_per_window_and_recycles() {
        let ring = WindowRing::new(4, 1_000);
        ring.record(100, 1);
        ring.record(900, 2);
        ring.record(1_500, 5);
        assert_eq!(ring.recent(500, 1), 3);
        assert_eq!(ring.recent(1_999, 1), 5);
        assert_eq!(ring.recent(1_999, 2), 8);
        // Window 0's slot is reused by window 4; the old count is gone and
        // stale ticks cannot resurrect it.
        ring.record(4_200, 7);
        assert_eq!(ring.recent(500, 1), 0);
        ring.record(300, 9);
        assert_eq!(ring.recent(4_200, 1), 7);
    }

    #[test]
    fn window_ring_is_safe_under_concurrent_recording() {
        let ring = Arc::new(WindowRing::new(8, 1_000));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        ring.record(2_500, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        assert_eq!(ring.recent(2_500, 1), 40_000);
    }

    #[test]
    fn entropy_sketch_separates_fresh_from_hammered_streams() {
        // Fresh stream: every id distinct — zero repeat depth.
        let mut fresh = EntropySketch::new();
        for i in 0..40u64 {
            fresh.add(i);
        }
        assert_eq!(fresh.total, 40);
        assert!(fresh.depth() < 0.1, "depth {}", fresh.depth());
        assert!(fresh.norm_entropy() > 0.9);

        // Hammered stream: 16 ids revisited 10× each — deep and uniform.
        let mut hammered = EntropySketch::new();
        for round in 0..10u64 {
            for i in 0..16u64 {
                let _ = round;
                hammered.add(i);
            }
        }
        assert!(hammered.depth() > 0.85, "depth {}", hammered.depth());
        assert!(hammered.norm_entropy() > 0.9);
        assert_eq!(EntropySketch::new().norm_entropy(), 0.0);
        assert_eq!(EntropySketch::new().depth(), 0.0);
    }

    #[test]
    fn overlap_sketch_estimates_jaccard() {
        let a: Vec<u64> = (0..40).collect();
        let b: Vec<u64> = (20..60).collect();
        let sa = OverlapSketch::from_ids(&a);
        let sb = OverlapSketch::from_ids(&b);
        // True Jaccard is 20/60 ≈ 0.333; both sets fit in k so the estimate
        // is close (bottom-k of the union is exact here up to truncation).
        let j = sa.jaccard(&sb);
        assert!((j - 1.0 / 3.0).abs() < 0.15, "jaccard {j}");
        assert!((sa.jaccard(&sa) - 1.0).abs() < 1e-12);
        assert_eq!(sa.jaccard(&OverlapSketch::default()), 0.0);
        let disjoint = OverlapSketch::from_ids(&(1_000..1_040).collect::<Vec<_>>());
        assert!(sa.jaccard(&disjoint) < 0.05);
    }
}
