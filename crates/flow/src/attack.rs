//! The network-flow attack of Wang et al. (TVLSI'18) — the paper's
//! state-of-the-art baseline (\[1\] in Table 3).
//!
//! Model reconstruction: a bipartite min-cost flow where **proximity is the
//! cost and capacitance is the capacity**:
//!
//! * super-source → each source fragment, capacity = the driver's remaining
//!   load budget (max load from the library minus the load already visible in
//!   its own FEOL fragment);
//! * source fragment → sink fragment (for the `k` nearest candidates),
//!   capacity = the sink fragment's load demand, cost = the closest
//!   virtual-pin-pair Manhattan distance;
//! * sink fragment → super-sink, capacity = its load demand.
//!
//! Loads are quantised to centi-fF flow units. After each solve, sinks whose
//! flow arrived unsplit from a single source are committed; the rest re-enter
//! the next round with the consumed capacity removed (the iterative rip-up of
//! the original attack). Leftovers after the final round fall back to nearest
//! remaining-capacity assignment.
//!
//! When capacitance constraints are loose the capacities stop binding and the
//! min-cost solution degenerates to per-sink nearest-source matching — the
//! relaxation to the naïve proximity attack the DAC'19 paper points out; a
//! regression test pins this behaviour.

use crate::mcmf::MinCostFlow;
use crate::metrics::Assignment;
use crate::proximity::candidate_sources;
use deepsplit_layout::electrical;
use deepsplit_layout::split::{FragId, SplitView};
use deepsplit_netlist::library::CellLibrary;
use deepsplit_netlist::netlist::Netlist;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Configuration of the network-flow attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowAttackConfig {
    /// Candidate sources considered per sink fragment.
    pub candidates_per_sink: usize,
    /// Extra load fraction tolerated beyond the library maximum (0 = strict;
    /// large values relax the attack towards naïve proximity).
    pub cap_slack: f64,
    /// Rip-up / re-solve rounds.
    pub max_iterations: usize,
    /// Wall-clock budget; `None` = unlimited. The paper capped all attacks at
    /// 100 000 s and reported `N/A` on timeout.
    pub timeout: Option<Duration>,
}

impl Default for FlowAttackConfig {
    fn default() -> Self {
        FlowAttackConfig {
            candidates_per_sink: 48,
            cap_slack: 0.25,
            max_iterations: 4,
            timeout: None,
        }
    }
}

/// Result of the network-flow attack.
///
/// Serializable so attack services can return the baseline verdict on the
/// wire next to the DL rankings (externally tagged:
/// `{"Completed": [...]}` / `"TimedOut"`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlowOutcome {
    /// Attack completed with this assignment.
    Completed(Assignment),
    /// The wall-clock budget expired (Table 3's `N/A`).
    TimedOut,
}

impl FlowOutcome {
    /// The assignment, if the attack completed.
    pub fn assignment(&self) -> Option<&Assignment> {
        match self {
            FlowOutcome::Completed(a) => Some(a),
            FlowOutcome::TimedOut => None,
        }
    }
}

/// Runs the network-flow attack on a split view.
pub fn network_flow_attack(
    view: &SplitView,
    nl: &Netlist,
    lib: &CellLibrary,
    config: &FlowAttackConfig,
) -> FlowOutcome {
    let deadline = config.timeout.map(|t| Instant::now() + t);
    let mut assignment: Assignment = Vec::new();

    // Load demand per sink fragment, centi-fF (≥ 1 so every sink needs flow).
    let demand: HashMap<FragId, i64> = view
        .sinks
        .iter()
        .map(|&s| {
            let ff = electrical::fragment_pin_cap_ff(view, s, nl, lib)
                + electrical::fragment_wire_cap_ff(view, s);
            (s, ((ff * 100.0).round() as i64).max(1))
        })
        .collect();

    // Remaining driver budget per source fragment, centi-fF. Ordered map:
    // its key order becomes the MCMF node order, and equal-cost augmenting
    // paths tie-break by node id — a HashMap here makes `flow_ccr` differ
    // across processes for the same inputs.
    let mut budget: BTreeMap<FragId, i64> = view
        .sources
        .iter()
        .map(|&src| {
            let max_ff = electrical::driver_spec(view, src, nl, lib)
                .map(|s| s.max_load_ff)
                .unwrap_or(0.0);
            let own_ff = electrical::fragment_pin_cap_ff(view, src, nl, lib)
                + electrical::fragment_wire_cap_ff(view, src);
            let rem = (max_ff * (1.0 + config.cap_slack) - own_ff) * 100.0;
            (src, (rem.round() as i64).max(1))
        })
        .collect();

    let candidates = candidate_sources(view, config.candidates_per_sink);
    let mut pending: Vec<FragId> = view.sinks.clone();

    for _round in 0..config.max_iterations.max(1) {
        if pending.is_empty() {
            break;
        }
        if let Some(d) = deadline {
            if Instant::now() > d {
                return FlowOutcome::TimedOut;
            }
        }
        // Node ids: 0 = S, 1 = T, then sources, then pending sinks.
        let src_ids: Vec<FragId> = budget.keys().copied().collect();
        let src_index: HashMap<FragId, usize> = src_ids
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, 2 + i))
            .collect();
        let sink_base = 2 + src_ids.len();
        let mut g = MinCostFlow::new(sink_base + pending.len());
        for &src in &src_ids {
            g.add_edge(0, src_index[&src], budget[&src], 0);
        }
        let mut vpp_edges: Vec<(FragId, FragId, (usize, usize))> = Vec::new();
        for (i, &sink) in pending.iter().enumerate() {
            let d = demand[&sink];
            g.add_edge(sink_base + i, 1, d, 0);
            for &(src, dist) in candidates.get(&sink).into_iter().flatten() {
                if !src_index.contains_key(&src) {
                    continue;
                }
                let e = g.add_edge(src_index[&src], sink_base + i, d, dist);
                vpp_edges.push((sink, src, e));
            }
        }
        if g.solve(0, 1, i64::MAX, deadline).is_none() {
            return FlowOutcome::TimedOut;
        }

        // Gather per-sink flow contributions.
        let mut contrib: HashMap<FragId, Vec<(FragId, i64)>> = HashMap::new();
        for (sink, src, e) in &vpp_edges {
            let f = g.flow_on(*e);
            if f > 0 {
                contrib.entry(*sink).or_default().push((*src, f));
            }
        }

        let mut still_pending = Vec::new();
        let last_round = _round + 1 == config.max_iterations.max(1);
        for &sink in &pending {
            match contrib.get(&sink) {
                Some(list) if list.len() == 1 || last_round => {
                    // Commit to the dominant contributor.
                    let &(src, _) = list
                        .iter()
                        .max_by_key(|&&(s, f)| (f, std::cmp::Reverse(s)))
                        .expect("nonempty");
                    assignment.push((sink, src));
                    if let Some(b) = budget.get_mut(&src) {
                        *b = (*b - demand[&sink]).max(0);
                    }
                }
                _ => still_pending.push(sink),
            }
        }
        pending = still_pending;
        budget.retain(|_, &mut b| b > 0);
    }

    // Fallback: nearest candidate with any remaining budget, else nearest.
    for sink in pending {
        let pick = candidates
            .get(&sink)
            .into_iter()
            .flatten()
            .find(|(src, _)| budget.get(src).copied().unwrap_or(0) > 0)
            .or_else(|| candidates.get(&sink).and_then(|c| c.first()))
            .map(|&(src, _)| src);
        if let Some(src) = pick {
            assignment.push((sink, src));
            if let Some(b) = budget.get_mut(&src) {
                *b = (*b - demand[&sink]).max(0);
            }
        }
    }

    FlowOutcome::Completed(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ccr;
    use crate::proximity::proximity_attack;
    use deepsplit_layout::design::{Design, ImplementConfig};
    use deepsplit_layout::geom::Layer;
    use deepsplit_layout::split::split_design;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};

    fn setup(bench: Benchmark, scale: f64, layer: u8) -> (Design, SplitView) {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(bench, scale, 3, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        let v = split_design(&d, Layer(layer));
        (d, v)
    }

    #[test]
    fn flow_attack_completes_and_beats_chance() {
        let (d, v) = setup(Benchmark::C432, 0.5, 3);
        let out = network_flow_attack(&v, &d.netlist, &d.library, &FlowAttackConfig::default());
        let a = out.assignment().expect("no timeout");
        assert_eq!(a.len(), v.sinks.len(), "all sinks assigned");
        let score = ccr(&v, a);
        let chance = 1.0 / v.num_source_fragments().max(1) as f64;
        assert!(score > 2.0 * chance, "flow CCR {score} vs chance {chance}");
    }

    #[test]
    fn flow_at_least_matches_proximity_on_m3() {
        let (d, v) = setup(Benchmark::C880, 0.5, 3);
        let flow = network_flow_attack(&v, &d.netlist, &d.library, &FlowAttackConfig::default());
        let prox = proximity_attack(&v);
        let flow_ccr = ccr(&v, flow.assignment().unwrap());
        let prox_ccr = ccr(&v, &prox);
        // Capacitance information should not hurt much; allow small slack.
        assert!(
            flow_ccr >= prox_ccr - 0.1,
            "flow {flow_ccr} vs proximity {prox_ccr}"
        );
    }

    /// Convenience wrapper mirroring the paper's relaxation observation: with an
    /// effectively unlimited capacitance slack the flow attack must produce the
    /// same assignment as [`proximity_attack`] for every sink whose nearest
    /// source is among its candidates.
    fn relaxed_flow_equals_proximity(view: &SplitView, nl: &Netlist, lib: &CellLibrary) -> bool {
        let relaxed = FlowAttackConfig {
            cap_slack: 1e6,
            max_iterations: 1,
            ..FlowAttackConfig::default()
        };
        let flow = match network_flow_attack(view, nl, lib, &relaxed) {
            FlowOutcome::Completed(a) => a,
            FlowOutcome::TimedOut => return false,
        };
        let prox: HashMap<FragId, FragId> = proximity_attack(view).into_iter().collect();
        flow.iter().all(|(sink, src)| prox.get(sink) == Some(src))
    }

    #[test]
    fn loose_capacitance_relaxes_to_proximity() {
        let (d, v) = setup(Benchmark::C432, 0.4, 3);
        assert!(relaxed_flow_equals_proximity(&v, &d.netlist, &d.library));
    }

    #[test]
    fn timeout_reports_na() {
        let (d, v) = setup(Benchmark::C880, 0.5, 1);
        let config = FlowAttackConfig {
            timeout: Some(Duration::from_nanos(1)),
            ..FlowAttackConfig::default()
        };
        let out = network_flow_attack(&v, &d.netlist, &d.library, &config);
        assert_eq!(out, FlowOutcome::TimedOut);
        assert!(out.assignment().is_none());
    }

    #[test]
    fn strict_caps_respect_budgets() {
        let (d, v) = setup(Benchmark::C432, 0.5, 1);
        let config = FlowAttackConfig {
            cap_slack: 0.0,
            ..FlowAttackConfig::default()
        };
        let out = network_flow_attack(&v, &d.netlist, &d.library, &config);
        let a = out.assignment().unwrap();
        // Each source's assigned demand should not wildly exceed its budget
        // (the greedy fallback may overshoot slightly on the last sink).
        let mut load: HashMap<FragId, f64> = HashMap::new();
        for (sink, src) in a {
            let ff = electrical::fragment_pin_cap_ff(&v, *sink, &d.netlist, &d.library)
                + electrical::fragment_wire_cap_ff(&v, *sink);
            *load.entry(*src).or_default() += ff;
        }
        let mut violations = 0;
        for (&src, &ff) in &load {
            let max = electrical::driver_spec(&v, src, &d.netlist, &d.library)
                .map(|s| s.max_load_ff)
                .unwrap_or(0.0);
            if ff > max * 2.0 {
                violations += 1;
            }
        }
        assert!(
            violations * 10 <= load.len(),
            "{violations} of {} sources grossly overloaded",
            load.len()
        );
    }
}
