//! Die floorplanning: derives a row-based core area from total cell area and a
//! target utilisation, mirroring the initialisation step of a commercial flow.

use crate::geom::{um, Point, Rect};
use deepsplit_netlist::library::CellLibrary;
use deepsplit_netlist::netlist::Netlist;

/// A row-based floorplan.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Die bounding box (dbu).
    pub die: Rect,
    /// Core area available to standard cells (inset from the die for pads).
    pub core: Rect,
    /// Row height (dbu).
    pub row_height: i64,
    /// Site width (dbu).
    pub site_width: i64,
    /// Number of placement rows.
    pub num_rows: usize,
    /// Number of sites per row.
    pub sites_per_row: usize,
}

impl Floorplan {
    /// Builds a floorplan for `nl` at the given utilisation (0 < u ≤ 1) and
    /// aspect ratio (height / width).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not within `(0, 1]`.
    pub fn for_netlist(
        nl: &Netlist,
        lib: &CellLibrary,
        utilization: f64,
        aspect: f64,
    ) -> Floorplan {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization in (0,1]"
        );
        let row_height = um(lib.row_height_um);
        let site_width = um(lib.site_width_um);
        let mut cell_area = 0.0f64; // µm²
        for (_, inst) in nl.instances() {
            let spec = lib.cell(inst.cell);
            if spec.function.is_pad() {
                continue;
            }
            cell_area += spec.width_um(lib) * lib.row_height_um;
        }
        let core_area_um2 =
            (cell_area / utilization).max(4.0 * lib.row_height_um * lib.row_height_um);
        let core_w_um = (core_area_um2 / aspect).sqrt();
        let core_h_um = core_w_um * aspect;
        // Round to whole rows/sites.
        let num_rows = ((um(core_h_um) + row_height - 1) / row_height).max(2) as usize;
        let sites_per_row = ((um(core_w_um) + site_width - 1) / site_width).max(8) as usize;
        let core_w = sites_per_row as i64 * site_width;
        let core_h = num_rows as i64 * row_height;
        // Pad ring margin of one row height on each side.
        let margin = row_height;
        let core = Rect::new(
            Point::new(margin, margin),
            Point::new(margin + core_w, margin + core_h),
        );
        let die = Rect::new(
            Point::new(0, 0),
            Point::new(core.hi.x + margin, core.hi.y + margin),
        );
        Floorplan {
            die,
            core,
            row_height,
            site_width,
            num_rows,
            sites_per_row,
        }
    }

    /// y coordinate of the bottom of `row`.
    pub fn row_y(&self, row: usize) -> i64 {
        self.core.lo.y + row as i64 * self.row_height
    }

    /// Total core capacity in sites.
    pub fn capacity_sites(&self) -> usize {
        self.num_rows * self.sites_per_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};

    #[test]
    fn floorplan_fits_cells() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 1.0, 1, &lib);
        let fp = Floorplan::for_netlist(&nl, &lib, 0.7, 1.0);
        let total_sites: usize = nl
            .instances()
            .filter(|(_, i)| !lib.cell(i.cell).function.is_pad())
            .map(|(_, i)| lib.cell(i.cell).width_sites as usize)
            .sum();
        assert!(
            fp.capacity_sites() >= total_sites,
            "core must fit all cells"
        );
    }

    #[test]
    fn aspect_ratio_respected() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C880, 1.0, 1, &lib);
        let tall = Floorplan::for_netlist(&nl, &lib, 0.7, 2.0);
        let ratio = tall.core.height() as f64 / tall.core.width() as f64;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn utilization_scales_area() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C880, 1.0, 1, &lib);
        let dense = Floorplan::for_netlist(&nl, &lib, 0.9, 1.0);
        let sparse = Floorplan::for_netlist(&nl, &lib, 0.5, 1.0);
        assert!(sparse.capacity_sites() > dense.capacity_sites());
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn zero_utilization_panics() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 0.2, 1, &lib);
        let _ = Floorplan::for_netlist(&nl, &lib, 0.0, 1.0);
    }
}
