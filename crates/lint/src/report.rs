//! Finding/report types, the JSON report, and the baseline ratchet.
//!
//! The ratchet works on per-`(file, rule)` finding *counts*: a run fails
//! under `--deny-new` only when some `(file, rule)` bucket exceeds its
//! baselined count. Buckets that shrink are reported as ratchetable so the
//! committed baseline can be tightened with `--write-baseline`.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Rule id (`D1`, `D2`, `P1`, `L1`, `A0`).
    pub rule: String,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was matched and why it matters.
    pub message: String,
    /// A concrete fix suggestion.
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    hint: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// A directed edge in the lock-acquisition graph (rule L1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockEdge {
    /// Lock already held.
    pub from: String,
    /// Lock acquired while `from` is held.
    pub to: String,
    /// `file:line` of the inner acquisition.
    pub site: String,
}

/// The machine-readable analyzer output (`--json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Report schema version, bumped on breaking shape changes.
    pub version: u32,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// The observed lock-acquisition graph (informational unless cyclic).
    pub lock_edges: Vec<LockEdge>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Current schema version.
    pub(crate) const VERSION: u32 = 1;

    /// Builds a report, sorting findings and edges deterministically.
    pub fn new(
        mut findings: Vec<Finding>,
        mut lock_edges: Vec<LockEdge>,
        files_scanned: usize,
    ) -> Self {
        findings.sort_by(|a, b| {
            (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
        });
        lock_edges.sort_by(|a, b| (&a.from, &a.to, &a.site).cmp(&(&b.from, &b.to, &b.site)));
        lock_edges.dedup();
        Report {
            version: Self::VERSION,
            findings,
            lock_edges,
            files_scanned,
        }
    }

    /// Per-`(file, rule)` finding counts — the unit the ratchet compares.
    pub(crate) fn counts(&self) -> BTreeMap<(String, String), usize> {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in &self.findings {
            *counts.entry((f.file.clone(), f.rule.clone())).or_insert(0) += 1;
        }
        counts
    }
}

/// The committed ratchet state (`ci/splint-baseline.json`): how many
/// findings of each rule each file is *allowed* to still have.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Baseline {
    /// Baseline schema version.
    pub version: u32,
    /// Flattened `(file, rule, allowed-count)` entries, sorted.
    pub entries: Vec<BaselineEntry>,
}

/// One `(file, rule)` bucket of the baseline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineEntry {
    pub file: String,
    pub rule: String,
    pub count: usize,
}

impl Baseline {
    /// Captures the report's current counts as the new baseline.
    pub fn from_report(report: &Report) -> Self {
        let entries = report
            .counts()
            .into_iter()
            .map(|((file, rule), count)| BaselineEntry { file, rule, count })
            .collect();
        Baseline {
            version: Report::VERSION,
            entries,
        }
    }

    fn counts(&self) -> BTreeMap<(String, String), usize> {
        self.entries
            .iter()
            .map(|e| ((e.file.clone(), e.rule.clone()), e.count))
            .collect()
    }
}

/// Outcome of comparing a report against the baseline.
#[derive(Debug, Clone, Default)]
pub struct RatchetDiff {
    /// Buckets whose count grew (or appeared): these fail `--deny-new`.
    pub regressions: Vec<RatchetDelta>,
    /// Buckets whose count shrank or vanished: the baseline can tighten.
    pub improvements: Vec<RatchetDelta>,
}

/// One bucket delta between baseline and current report.
#[derive(Debug, Clone)]
pub struct RatchetDelta {
    pub file: String,
    pub rule: String,
    pub baseline: usize,
    pub current: usize,
}

impl RatchetDiff {
    /// True when no bucket exceeds its baselined count.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diffs `report` against `baseline` bucket by bucket.
pub fn ratchet(report: &Report, baseline: &Baseline) -> RatchetDiff {
    let current = report.counts();
    let allowed = baseline.counts();
    let mut diff = RatchetDiff::default();
    for ((file, rule), &count) in &current {
        let base = allowed
            .get(&(file.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if count > base {
            diff.regressions.push(RatchetDelta {
                file: file.clone(),
                rule: rule.clone(),
                baseline: base,
                current: count,
            });
        }
    }
    for ((file, rule), &base) in &allowed {
        let count = current
            .get(&(file.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if count < base {
            diff.improvements.push(RatchetDelta {
                file: file.clone(),
                rule: rule.clone(),
                baseline: base,
                current: count,
            });
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, rule: &str, line: usize) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: "m".to_string(),
            hint: "h".to_string(),
        }
    }

    #[test]
    fn findings_are_sorted_deterministically() {
        let r = Report::new(
            vec![
                finding("b.rs", "P1", 9),
                finding("a.rs", "D1", 3),
                finding("a.rs", "D1", 1),
            ],
            vec![],
            3,
        );
        let order: Vec<(String, usize)> = r
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 1),
                ("a.rs".to_string(), 3),
                ("b.rs".to_string(), 9)
            ]
        );
    }

    #[test]
    fn ratchet_flags_only_growth() {
        let old = Report::new(
            vec![finding("a.rs", "P1", 1), finding("a.rs", "P1", 2)],
            vec![],
            1,
        );
        let baseline = Baseline::from_report(&old);

        // Same count: clean.
        let same = Report::new(
            vec![finding("a.rs", "P1", 5), finding("a.rs", "P1", 6)],
            vec![],
            1,
        );
        assert!(super::ratchet(&same, &baseline).is_clean());

        // One more in the bucket: regression.
        let grown = Report::new(
            vec![
                finding("a.rs", "P1", 1),
                finding("a.rs", "P1", 2),
                finding("a.rs", "P1", 3),
            ],
            vec![],
            1,
        );
        let diff = super::ratchet(&grown, &baseline);
        assert_eq!(diff.regressions.len(), 1);
        assert_eq!(diff.regressions[0].baseline, 2);
        assert_eq!(diff.regressions[0].current, 3);

        // New bucket entirely: regression against an implicit zero.
        let new_bucket = Report::new(vec![finding("b.rs", "D1", 1)], vec![], 1);
        assert!(!super::ratchet(&new_bucket, &baseline).is_clean());

        // Shrunk bucket: improvement, still clean.
        let shrunk = Report::new(vec![finding("a.rs", "P1", 1)], vec![], 1);
        let diff = super::ratchet(&shrunk, &baseline);
        assert!(diff.is_clean());
        assert_eq!(diff.improvements.len(), 1);
    }

    #[test]
    fn report_json_round_trips() {
        let r = Report::new(
            vec![finding("a.rs", "D1", 1)],
            vec![LockEdge {
                from: "lru.state".to_string(),
                to: "metrics.inner".to_string(),
                site: "a.rs:4".to_string(),
            }],
            2,
        );
        let text = serde_json::to_string_pretty(&r).expect("report serialises");
        let back: Report = serde_json::from_str(&text).expect("report round-trip");
        assert_eq!(back.findings, r.findings);
        assert_eq!(back.lock_edges, r.lock_edges);
        assert_eq!(back.files_scanned, 2);
    }
}
