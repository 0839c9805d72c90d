//! The defense × strength × benchmark × split-layer matrix **specification**:
//! cell expansion (with shard partitioning for multi-process scale-out) and
//! result presentation.
//!
//! Execution lives in the `deepsplit-engine` crate, which owns the full
//! matrix lifecycle — content-addressed model caching, shard-aware
//! scheduling, resumable per-cell artifacts and Pareto reporting. This
//! module stays dependency-light so both the engine and ad-hoc callers can
//! share one definition of what a matrix *is*.

use crate::eval::{EvalConfig, EvalOutcome};
use crate::{DefenseConfig, DefenseKind};
use deepsplit_layout::geom::Layer;
use deepsplit_netlist::benchmarks::Benchmark;

/// One matrix cell: victim benchmark, split layer, defense instantiation.
pub type Cell = (Benchmark, Layer, DefenseConfig);

/// The sweep matrix specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Per-cell evaluation protocol.
    pub eval: EvalConfig,
    /// Defenses to sweep. [`DefenseKind::None`] is always evaluated once per
    /// `(benchmark, layer)` as the baseline row, whether listed or not;
    /// listing it (or any kind) repeatedly never duplicates cells.
    pub kinds: Vec<DefenseKind>,
    /// Strength grid applied to every non-baseline defense (duplicates are
    /// collapsed).
    pub strengths: Vec<f64>,
    /// Victim benchmarks.
    pub benchmarks: Vec<Benchmark>,
    /// Split layers.
    pub split_layers: Vec<Layer>,
    /// Seed handed to every defense instantiation.
    pub defense_seed: u64,
    /// Worker threads across cells (0 = auto). The engine splits this budget
    /// between the cell fan-out and per-cell inference via
    /// [`deepsplit_nn::parallel::split_budget`].
    pub threads: usize,
    /// `(index, count)` partition of [`SweepConfig::cells`]: this process
    /// evaluates only the cells with `cell_index % count == index`, so a
    /// matrix can be split across processes or machines and reassembled with
    /// the engine's merge step. `(0, 1)` — the default — is the whole matrix.
    pub shard: (usize, usize),
}

impl SweepConfig {
    /// Small default matrix: every defense at two strengths on one benchmark,
    /// split after M3.
    pub fn fast() -> SweepConfig {
        SweepConfig {
            eval: EvalConfig::fast(),
            kinds: DefenseKind::all().to_vec(),
            strengths: vec![0.5, 1.0],
            benchmarks: vec![Benchmark::C432],
            split_layers: vec![Layer(3)],
            defense_seed: 11,
            threads: 0,
            shard: (0, 1),
        }
    }

    /// The full matrix this spec expands to, baseline first per
    /// `(bench, layer)` — independent of [`SweepConfig::shard`], so every
    /// shard agrees on cell indices. Duplicate kinds and strengths (including
    /// an explicitly listed [`DefenseKind::None`], which would otherwise
    /// repeat the baseline row) are collapsed.
    pub fn cells(&self) -> Vec<Cell> {
        let mut kinds: Vec<DefenseKind> = Vec::new();
        for &kind in self.kinds.iter().filter(|&&k| k != DefenseKind::None) {
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        let mut strengths: Vec<f64> = Vec::new();
        for &s in &self.strengths {
            if !strengths.contains(&s) {
                strengths.push(s);
            }
        }
        let mut cells = Vec::new();
        for &bench in &self.benchmarks {
            for &layer in &self.split_layers {
                cells.push((bench, layer, DefenseConfig::none()));
                for &kind in &kinds {
                    for &strength in &strengths {
                        cells.push((
                            bench,
                            layer,
                            DefenseConfig {
                                kind,
                                strength,
                                seed: self.defense_seed,
                            },
                        ));
                    }
                }
            }
        }
        cells
    }

    /// The cells assigned to this shard, as `(global index, cell)` pairs in
    /// index order. Round-robin by index, so a strength sweep's expensive
    /// high-strength cells spread across shards instead of piling onto one.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is not a valid partition (`count == 0` or
    /// `index >= count`).
    pub fn shard_cells(&self) -> Vec<(usize, Cell)> {
        let (index, count) = self.shard;
        assert!(count >= 1, "shard count must be at least 1");
        assert!(index < count, "shard index {index} outside 0..{count}");
        self.cells()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % count == index)
            .collect()
    }
}

/// The baseline (undefended) cell for `result`'s `(benchmark, layer)` pair.
pub(crate) fn baseline_of<'a>(
    results: &'a [EvalOutcome],
    result: &EvalOutcome,
) -> Option<&'a EvalOutcome> {
    results.iter().find(|r| {
        r.defense.kind == DefenseKind::None
            && r.benchmark == result.benchmark
            && r.split_layer == result.split_layer
    })
}

/// Protection factor of a cell: baseline DL CCR ÷ defended DL CCR (`>= 2.0`
/// means the defense at least halved the attack; `inf` = driven to zero).
pub fn protection_factor(results: &[EvalOutcome], result: &EvalOutcome) -> f64 {
    match baseline_of(results, result) {
        Some(base) if result.scores.dl_ccr > 0.0 => base.scores.dl_ccr / result.scores.dl_ccr,
        Some(base) if base.scores.dl_ccr > 0.0 => f64::INFINITY,
        _ => 1.0,
    }
}

/// Renders the matrix as an aligned text table (CCRs in percent, `Δ×` =
/// protection factor versus the baseline row, `n/a` = flow timeout).
pub fn render_matrix(results: &[EvalOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8} {:>6} {:>10} {:>5} {:>5} {:>5} {:>8} {:>6} {:>8} {:>8} {:>8} {:>7} {:>7}\n",
        "bench",
        "split",
        "defense",
        "str",
        "#Sk",
        "#Sc",
        "DL%",
        "Δ×",
        "flow%",
        "prox%",
        "recov%",
        "WL+%",
        "via+%"
    ));
    for r in results {
        let s = &r.scores;
        let factor = protection_factor(results, r);
        let factor = if factor.is_infinite() {
            "inf".to_string()
        } else {
            format!("{factor:.1}")
        };
        let flow = s
            .flow_ccr
            .map(|f| format!("{:.2}", 100.0 * f))
            .unwrap_or_else(|| "n/a".to_string());
        out.push_str(&format!(
            "{:>8} {:>6} {:>10} {:>5.2} {:>5} {:>5} {:>8.2} {:>6} {:>8} {:>8.2} {:>8.2} {:>7.2} {:>7.2}\n",
            r.benchmark,
            format!("M{}", r.split_layer),
            r.defense.kind.name(),
            r.defense.strength,
            s.sink_fragments,
            s.source_fragments,
            100.0 * s.dl_ccr,
            factor,
            flow,
            100.0 * s.proximity_ccr,
            100.0 * s.recovery,
            r.defense.wirelength_overhead_pct(),
            r.defense.via_overhead_pct(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_expansion_has_one_baseline_per_pair() {
        let mut config = SweepConfig::fast();
        config.benchmarks = vec![Benchmark::C432, Benchmark::C880];
        config.split_layers = vec![Layer(1), Layer(3)];
        let cells = config.cells();
        let baselines = cells
            .iter()
            .filter(|(_, _, d)| d.kind == DefenseKind::None)
            .count();
        assert_eq!(baselines, 4);
        // 4 pairs × (1 baseline + 7 defenses × 2 strengths)
        assert_eq!(cells.len(), 4 * (1 + 7 * 2));
    }

    #[test]
    fn explicit_none_and_repeated_kinds_do_not_duplicate_cells() {
        let mut config = SweepConfig::fast();
        config.kinds = vec![
            DefenseKind::None,
            DefenseKind::Lift,
            DefenseKind::None,
            DefenseKind::Lift,
        ];
        config.strengths = vec![0.5, 1.0, 0.5];
        let cells = config.cells();
        let baselines = cells
            .iter()
            .filter(|(_, _, d)| d.kind == DefenseKind::None)
            .count();
        assert_eq!(baselines, 1, "baseline row must appear exactly once");
        // 1 baseline + lift × {0.5, 1.0}.
        assert_eq!(cells.len(), 3);
        let mut sorted = cells.clone();
        sorted.sort_by(|a, b| {
            (a.2.kind.name(), a.2.strength.to_bits())
                .cmp(&(b.2.kind.name(), b.2.strength.to_bits()))
        });
        sorted.dedup();
        assert_eq!(sorted.len(), cells.len(), "no duplicate cells");
    }

    #[test]
    fn shards_partition_the_matrix_exactly() {
        let mut config = SweepConfig::fast();
        config.benchmarks = vec![Benchmark::C432, Benchmark::C880];
        config.split_layers = vec![Layer(1), Layer(3)];
        let all = config.cells();
        for count in 1..=all.len() + 1 {
            let mut seen: Vec<(usize, Cell)> = Vec::new();
            for index in 0..count {
                config.shard = (index, count);
                seen.extend(config.shard_cells());
            }
            seen.sort_by_key(|(i, _)| *i);
            let reassembled: Vec<Cell> = seen.iter().map(|(_, c)| c.clone()).collect();
            let indices: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, (0..all.len()).collect::<Vec<_>>(), "count {count}");
            assert_eq!(reassembled, all, "count {count}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn shards_partition_arbitrary_matrices(
            nbench in 1usize..4,
            nlayers in 1usize..4,
            nkinds in 0usize..6,
            strengths in proptest::collection::vec(0.0f64..1.0, 0..4),
            count in 1usize..8,
        ) {
            let mut config = SweepConfig::fast();
            config.benchmarks = Benchmark::all()[..nbench].to_vec();
            config.split_layers = (1..=nlayers as u8).map(Layer).collect();
            // May include `None` and, via modular indexing, repeated kinds —
            // exercising the dedup path.
            config.kinds = (0..nkinds)
                .map(|i| DefenseKind::all()[i % DefenseKind::all().len()])
                .collect();
            config.strengths = strengths;
            let all = config.cells();
            let mut seen: Vec<(usize, Cell)> = Vec::new();
            for index in 0..count {
                config.shard = (index, count);
                seen.extend(config.shard_cells());
            }
            seen.sort_by_key(|(i, _)| *i);
            let indices: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
            let reassembled: Vec<Cell> = seen.into_iter().map(|(_, c)| c).collect();
            prop_assert_eq!(indices, (0..all.len()).collect::<Vec<_>>());
            prop_assert_eq!(reassembled, all);
        }
    }

    #[test]
    #[should_panic(expected = "shard index")]
    fn shard_index_out_of_range_panics() {
        let mut config = SweepConfig::fast();
        config.shard = (2, 2);
        config.shard_cells();
    }

    #[test]
    fn render_handles_missing_baseline_and_timeouts() {
        use super::super::eval::AttackScores;
        use crate::DefenseStats;
        let cell = EvalOutcome {
            benchmark: "c432".into(),
            split_layer: 3,
            defense: DefenseStats {
                kind: DefenseKind::Lift,
                strength: 1.0,
                swapped_cells: 0,
                lifted_nets: 10,
                decoy_vias: 0,
                detoured_nets: 0,
                equalized_cells: 0,
                camo_cells: 0,
                base_wirelength: 1000,
                defended_wirelength: 990,
                base_vias: 100,
                defended_vias: 140,
                base_beol_wirelength: 500,
                defended_beol_wirelength: 700,
            },
            scores: AttackScores {
                sink_fragments: 5,
                source_fragments: 7,
                dl_ccr: 0.2,
                flow_ccr: None,
                proximity_ccr: 0.3,
                chance_ccr: 1.0 / 7.0,
                recovery: 0.9,
            },
        };
        let table = render_matrix(std::slice::from_ref(&cell));
        assert!(
            table.contains("n/a"),
            "timeout must render as n/a:\n{table}"
        );
        assert!(table.contains("lift"));
        // No baseline row → neutral protection factor.
        assert!((protection_factor(std::slice::from_ref(&cell), &cell) - 1.0).abs() < 1e-12);
    }
}
