//! End-to-end physical implementation: floorplan → place → route, bundled as a
//! [`Design`] that the split-manufacturing extraction and the attacks consume.

use crate::floorplan::Floorplan;
use crate::geom::Point;
use crate::place::{self, Placement, PlacerConfig};
use crate::route::{self, NetRoute, RouteStats, RouterConfig};
use deepsplit_netlist::library::CellLibrary;
use deepsplit_netlist::netlist::{InstId, Netlist};
use serde::{Deserialize, Serialize};

/// Configuration of the whole implementation flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImplementConfig {
    /// Placement-row utilisation target.
    pub utilization: f64,
    /// Core aspect ratio (height / width).
    pub aspect: f64,
    /// Placer settings.
    pub placer: PlacerConfig,
    /// Router settings.
    pub router: RouterConfig,
}

impl Default for ImplementConfig {
    fn default() -> Self {
        ImplementConfig {
            utilization: 0.7,
            aspect: 1.0,
            placer: PlacerConfig::default(),
            router: RouterConfig::default(),
        }
    }
}

impl ImplementConfig {
    /// A faster profile for large designs: fewer placement sweeps, no
    /// annealing. Wire quality degrades slightly but stays proximity-driven.
    pub fn fast() -> Self {
        ImplementConfig {
            placer: PlacerConfig {
                iterations: 12,
                anneal_moves_per_cell: 0,
                ..PlacerConfig::default()
            },
            ..Default::default()
        }
    }
}

/// A fully implemented design: netlist + library + placed and routed layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// The cell library.
    pub library: CellLibrary,
    /// Floorplan.
    pub floorplan: Floorplan,
    /// Legal placement.
    pub placement: Placement,
    /// Routed geometry per net (indexed by `NetId`).
    pub routes: Vec<NetRoute>,
    /// Routing statistics.
    pub route_stats: RouteStats,
}

impl Design {
    /// Places and routes `netlist` with `config`.
    ///
    /// # Example
    ///
    /// ```
    /// use deepsplit_layout::design::{Design, ImplementConfig};
    /// use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    /// use deepsplit_netlist::library::CellLibrary;
    ///
    /// let lib = CellLibrary::nangate45();
    /// let nl = generate_with(Benchmark::C432, 0.3, 1, &lib);
    /// let design = Design::implement(nl, lib, &ImplementConfig::default());
    /// assert!(design.total_wirelength() > 0);
    /// ```
    pub fn implement(netlist: Netlist, library: CellLibrary, config: &ImplementConfig) -> Design {
        let floorplan =
            Floorplan::for_netlist(&netlist, &library, config.utilization, config.aspect);
        let placement = place::place(&netlist, &library, &floorplan, &config.placer);
        let (routes, route_stats) =
            route::route(&netlist, &library, &floorplan, &placement, &config.router);
        Design {
            netlist,
            library,
            floorplan,
            placement,
            routes,
            route_stats,
        }
    }

    /// Location of a pin in the layout.
    pub(crate) fn pin_position(&self, inst: InstId, pin: u8) -> Point {
        place::pin_position(
            &self.netlist,
            &self.library,
            &self.floorplan,
            &self.placement,
            inst,
            pin,
        )
    }

    /// Total routed wirelength in dbu.
    pub fn total_wirelength(&self) -> i64 {
        self.routes.iter().map(|r| r.wirelength()).sum()
    }

    /// Half-perimeter wirelength of the placement in dbu.
    pub fn hpwl(&self) -> i64 {
        place::hpwl(
            &self.netlist,
            &self.library,
            &self.floorplan,
            &self.placement,
        )
    }

    /// Number of metal layers in the stack.
    pub(crate) fn num_layers(&self) -> u8 {
        self.route_stats.wirelength_per_layer.len() as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};

    #[test]
    fn implement_produces_routed_design() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 0.5, 1, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        assert!(d.total_wirelength() > 0);
        assert!(d.hpwl() > 0);
        // Routed wirelength is at least the HPWL lower bound per net.
        assert!(d.total_wirelength() >= d.hpwl() / 2);
    }

    #[test]
    fn fast_profile_still_routes() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C880, 0.3, 1, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::fast());
        assert!(d.total_wirelength() > 0);
    }
}
