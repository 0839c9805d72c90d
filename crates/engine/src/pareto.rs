//! CCR-vs-PPA Pareto fronts: the regression artifact tracked across PRs.
//!
//! Every matrix cell is a point in the (attacker success, defender cost)
//! plane: DL CCR on one axis, combined routed-cost overhead on the other —
//! both minimised (a defender wants a cheap defense that blinds the attack).
//! The front keeps exactly the cells no other cell beats on both axes, per
//! `(benchmark, split layer)` group, so a PR that regresses either a defense
//! or the attack moves a stable, diffable JSON artifact instead of a wall of
//! matrix rows.

use deepsplit_defense::eval::EvalOutcome;
use serde::{Deserialize, Serialize};

/// One non-dominated cell of a [`ParetoGroup`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Defense kind name (`"none"` for the baseline row).
    pub defense: String,
    /// Defense strength.
    pub strength: f64,
    /// DL attack CCR in `[0, 1]` — minimised.
    pub dl_ccr: f64,
    /// Combined routed-cost overhead in percent — minimised.
    pub cost_overhead_pct: f64,
}

/// The front of one `(benchmark, split layer)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoGroup {
    /// Victim benchmark name.
    pub benchmark: String,
    /// Split layer.
    pub split_layer: u8,
    /// Non-dominated points, sorted by ascending cost (and descending CCR —
    /// a valid front is monotone).
    pub points: Vec<ParetoPoint>,
}

/// CCR-vs-overhead Pareto fronts for a full matrix, grouped per
/// `(benchmark, split layer)` in first-appearance order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoFront {
    /// One group per `(benchmark, split layer)` pair of the input.
    pub groups: Vec<ParetoGroup>,
}

/// `a` dominates `b` when it is at least as good on both minimised axes and
/// strictly better on one.
pub(crate) fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// Indices of the non-dominated points of `points` (each `(x, y)`, both
/// minimised), sorted by ascending `x` then ascending `y` then index.
pub(crate) fn front_indices(points: &[(f64, f64)]) -> Vec<usize> {
    let mut front: Vec<usize> = (0..points.len())
        .filter(|&i| !points.iter().any(|&other| dominates(other, points[i])))
        .collect();
    front.sort_by(|&i, &j| {
        points[i]
            .0
            .total_cmp(&points[j].0)
            .then(points[i].1.total_cmp(&points[j].1))
            .then(i.cmp(&j))
    });
    front
}

impl ParetoFront {
    /// Computes the per-`(benchmark, layer)` fronts of a matrix.
    pub(crate) fn compute(results: &[EvalOutcome]) -> ParetoFront {
        let mut groups: Vec<ParetoGroup> = Vec::new();
        for r in results {
            if !groups
                .iter()
                .any(|g| g.benchmark == r.benchmark && g.split_layer == r.split_layer)
            {
                groups.push(ParetoGroup {
                    benchmark: r.benchmark.clone(),
                    split_layer: r.split_layer,
                    points: Vec::new(),
                });
            }
        }
        for group in &mut groups {
            let members: Vec<&EvalOutcome> = results
                .iter()
                .filter(|r| r.benchmark == group.benchmark && r.split_layer == group.split_layer)
                .collect();
            let coords: Vec<(f64, f64)> = members
                .iter()
                .map(|r| (r.defense.cost_overhead_pct(), r.scores.dl_ccr))
                .collect();
            group.points = front_indices(&coords)
                .into_iter()
                .map(|i| ParetoPoint {
                    defense: members[i].defense.kind.name().to_string(),
                    strength: members[i].defense.strength,
                    dl_ccr: members[i].scores.dl_ccr,
                    cost_overhead_pct: coords[i].0,
                })
                .collect();
        }
        ParetoFront { groups }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dominance_is_strict() {
        assert!(dominates((0.0, 0.0), (1.0, 1.0)));
        assert!(dominates((0.0, 1.0), (0.0, 2.0)));
        assert!(!dominates((0.0, 0.0), (0.0, 0.0)), "equal points coexist");
        assert!(!dominates((0.0, 1.0), (1.0, 0.0)), "trade-offs coexist");
    }

    #[test]
    fn simple_front() {
        // (cost, ccr): the cheap-and-blind point and the free baseline
        // survive; the expensive-and-leaky point is dominated.
        let points = vec![(0.0, 0.9), (10.0, 0.1), (20.0, 0.5)];
        assert_eq!(front_indices(&points), vec![0, 1]);
    }

    proptest! {
        #[test]
        fn no_dominated_point_survives(
            coords in proptest::collection::vec((0.0f64..50.0, 0.0f64..1.0), 1..40)
        ) {
            let front = front_indices(&coords);
            prop_assert!(!front.is_empty(), "a nonempty set has a front");
            // Nothing on the front is dominated by anything in the input.
            for &i in &front {
                for (j, &other) in coords.iter().enumerate() {
                    prop_assert!(
                        !dominates(other, coords[i]),
                        "front point {i} {:?} dominated by {j} {:?}",
                        coords[i],
                        other
                    );
                }
            }
            // Everything off the front is dominated by something on it.
            for j in 0..coords.len() {
                if !front.contains(&j) {
                    prop_assert!(
                        front.iter().any(|&i| dominates(coords[i], coords[j])),
                        "off-front point {j} {:?} not dominated",
                        coords[j]
                    );
                }
            }
            // The front is monotone: cost ascends, CCR descends (ties allowed).
            for w in front.windows(2) {
                prop_assert!(coords[w[0]].0 <= coords[w[1]].0);
                prop_assert!(coords[w[0]].1 >= coords[w[1]].1);
            }
        }
    }
}
