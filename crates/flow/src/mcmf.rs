//! Min-cost max-flow via successive shortest paths with Johnson potentials.
//!
//! This is the optimisation engine behind the network-flow attack of Wang et
//! al. (TVLSI'18), the paper's state-of-the-art baseline. Costs must be
//! non-negative (proximity distances are), so Dijkstra with potentials is
//! exact. The solver supports a wall-clock deadline because the baseline
//! genuinely times out on large designs — Table 3 reports `N/A` for those
//! rows, and so do we.

use std::collections::BinaryHeap;
use std::time::Instant;

/// A directed edge with residual bookkeeping.
#[derive(Debug, Clone)]
struct Edge {
    to: u32,
    rev: u32,
    cap: i64,
    cost: i64,
}

/// Min-cost max-flow problem instance.
///
/// # Example
///
/// ```
/// use deepsplit_flow::mcmf::MinCostFlow;
///
/// let mut g = MinCostFlow::new(4);
/// g.add_edge(0, 1, 2, 1);
/// g.add_edge(0, 2, 1, 2);
/// g.add_edge(1, 3, 2, 1);
/// g.add_edge(2, 3, 1, 1);
/// let (flow, cost) = g.solve(0, 3, i64::MAX, None).expect("no deadline");
/// assert_eq!(flow, 3);
/// assert_eq!(cost, 2 * 2 + 1 * 3);
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    graph: Vec<Vec<Edge>>,
}

impl MinCostFlow {
    /// Creates an instance with `n` nodes.
    pub fn new(n: usize) -> MinCostFlow {
        MinCostFlow {
            graph: vec![Vec::new(); n],
        }
    }

    /// Adds a directed edge `from → to` with the given capacity and
    /// non-negative cost. Returns an id usable with [`MinCostFlow::flow_on`].
    ///
    /// # Panics
    ///
    /// Panics on negative cost or capacity, or out-of-range nodes.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> (usize, usize) {
        assert!(cost >= 0, "costs must be non-negative for Dijkstra");
        assert!(cap >= 0, "capacity must be non-negative");
        assert!(
            from < self.graph.len() && to < self.graph.len(),
            "node out of range"
        );
        let fwd = self.graph[from].len() as u32;
        let bwd = self.graph[to].len() as u32;
        self.graph[from].push(Edge {
            to: to as u32,
            rev: bwd,
            cap,
            cost,
        });
        self.graph[to].push(Edge {
            to: from as u32,
            rev: fwd,
            cap: 0,
            cost: -cost,
        });
        (from, fwd as usize)
    }

    /// Flow currently pushed through the edge returned by
    /// [`MinCostFlow::add_edge`].
    pub fn flow_on(&self, edge: (usize, usize)) -> i64 {
        let e = &self.graph[edge.0][edge.1];
        // Residual of the reverse edge equals the pushed flow.
        self.graph[e.to as usize][e.rev as usize].cap
    }

    /// Sends up to `limit` units from `s` to `t`; returns `(flow, cost)`.
    ///
    /// Returns `None` if `deadline` passes before completion (the partial flow
    /// remains recorded on the edges).
    pub fn solve(
        &mut self,
        s: usize,
        t: usize,
        limit: i64,
        deadline: Option<Instant>,
    ) -> Option<(i64, i64)> {
        let n = self.graph.len();
        let mut potential = vec![0i64; n];
        let mut dist = vec![i64::MAX; n];
        let mut prev: Vec<(u32, u32)> = vec![(u32::MAX, u32::MAX); n];
        let mut total_flow = 0i64;
        let mut total_cost = 0i64;

        while total_flow < limit {
            if let Some(d) = deadline {
                if Instant::now() > d {
                    return None;
                }
            }
            // Dijkstra on reduced costs.
            dist.fill(i64::MAX);
            dist[s] = 0;
            let mut heap: BinaryHeap<std::cmp::Reverse<(i64, u32)>> = BinaryHeap::new();
            heap.push(std::cmp::Reverse((0, s as u32)));
            while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
                let u = u as usize;
                if d > dist[u] {
                    continue;
                }
                for (ei, e) in self.graph[u].iter().enumerate() {
                    if e.cap <= 0 {
                        continue;
                    }
                    let v = e.to as usize;
                    let nd = d + e.cost + potential[u] - potential[v];
                    debug_assert!(
                        e.cost + potential[u] - potential[v] >= 0,
                        "reduced cost negative"
                    );
                    if nd < dist[v] {
                        dist[v] = nd;
                        prev[v] = (u as u32, ei as u32);
                        heap.push(std::cmp::Reverse((nd, v as u32)));
                    }
                }
            }
            if dist[t] == i64::MAX {
                break; // no augmenting path
            }
            for v in 0..n {
                if dist[v] < i64::MAX {
                    potential[v] += dist[v];
                }
            }
            // Bottleneck along the path.
            let mut push = limit - total_flow;
            let mut v = t;
            while v != s {
                let (u, ei) = prev[v];
                push = push.min(self.graph[u as usize][ei as usize].cap);
                v = u as usize;
            }
            // Apply.
            let mut v = t;
            while v != s {
                let (u, ei) = prev[v];
                let (to, rev, cost) = {
                    let e = &self.graph[u as usize][ei as usize];
                    (e.to, e.rev, e.cost)
                };
                self.graph[u as usize][ei as usize].cap -= push;
                self.graph[to as usize][rev as usize].cap += push;
                total_cost += cost * push;
                v = u as usize;
            }
            total_flow += push;
        }
        Some((total_flow, total_cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_flow() {
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 10, 1);
        g.add_edge(1, 3, 10, 1);
        let (flow, cost) = g.solve(0, 3, i64::MAX, None).unwrap();
        assert_eq!(flow, 10);
        assert_eq!(cost, 20);
    }

    #[test]
    fn prefers_cheaper_path() {
        let mut g = MinCostFlow::new(4);
        let cheap = g.add_edge(0, 1, 1, 1);
        let dear = g.add_edge(0, 2, 1, 100);
        g.add_edge(1, 3, 1, 0);
        g.add_edge(2, 3, 1, 0);
        let (flow, cost) = g.solve(0, 3, 1, None).unwrap();
        assert_eq!(flow, 1);
        assert_eq!(cost, 1);
        assert_eq!(g.flow_on(cheap), 1);
        assert_eq!(g.flow_on(dear), 0);
    }

    #[test]
    fn respects_capacity() {
        let mut g = MinCostFlow::new(3);
        g.add_edge(0, 1, 3, 0);
        g.add_edge(1, 2, 2, 0);
        let (flow, _) = g.solve(0, 2, i64::MAX, None).unwrap();
        assert_eq!(flow, 2);
    }

    #[test]
    fn limit_caps_flow() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 100, 1);
        let (flow, cost) = g.solve(0, 1, 7, None).unwrap();
        assert_eq!(flow, 7);
        assert_eq!(cost, 7);
    }

    #[test]
    fn assignment_problem_optimal() {
        // 2 workers × 2 tasks; optimal assignment cost is 1 + 2 = 3.
        // Costs: w0t0=1, w0t1=10, w1t0=8, w1t1=2.
        let (s, w0, w1, t0, t1, t) = (0, 1, 2, 3, 4, 5);
        let mut g = MinCostFlow::new(6);
        g.add_edge(s, w0, 1, 0);
        g.add_edge(s, w1, 1, 0);
        let e00 = g.add_edge(w0, t0, 1, 1);
        g.add_edge(w0, t1, 1, 10);
        g.add_edge(w1, t0, 1, 8);
        let e11 = g.add_edge(w1, t1, 1, 2);
        g.add_edge(t0, t, 1, 0);
        g.add_edge(t1, t, 1, 0);
        let (flow, cost) = g.solve(s, t, i64::MAX, None).unwrap();
        assert_eq!(flow, 2);
        assert_eq!(cost, 3);
        assert_eq!(g.flow_on(e00), 1);
        assert_eq!(g.flow_on(e11), 1);
    }

    #[test]
    fn expired_deadline_returns_none() {
        let mut g = MinCostFlow::new(3);
        g.add_edge(0, 1, 1, 1);
        g.add_edge(1, 2, 1, 1);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        assert!(g.solve(0, 2, i64::MAX, Some(past)).is_none());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_rejected() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 1, -1);
    }
}
