//! The three layout feature maps of Fig. 5.

use rtt_netlist::{CellLibrary, Netlist};
use rtt_place::{density_map, Grid, Placement};
use rtt_route::rudy_map;

/// The stacked layout input of the CNN: cell density, RUDY, macro region.
#[derive(Clone, Debug)]
pub struct LayoutMaps {
    /// Standard-cell density (placed area / bin area).
    pub density: Grid,
    /// Rectangular uniform wire density.
    pub rudy: Grid,
    /// Macro coverage fraction per bin.
    pub macros: Grid,
}

impl LayoutMaps {
    /// Extracts all three maps at `grid × grid` resolution (the paper uses
    /// 512; the default experiment scale uses 64).
    pub fn extract(
        netlist: &Netlist,
        library: &CellLibrary,
        placement: &Placement,
        grid: usize,
    ) -> Self {
        rtt_obs::span!("features::layout_maps");
        let density = density_map(netlist, library, placement, grid, grid);
        let rudy = rudy_map(netlist, placement, grid, grid);
        let mut macros = Grid::new(grid, grid, placement.floorplan().die);
        for m in &placement.floorplan().macros {
            macros.splat(*m, m.area());
        }
        macros.normalize_by_bin_area();
        Self { density, rudy, macros }
    }

    /// Grid edge length in bins.
    pub fn grid(&self) -> usize {
        self.density.width()
    }

    /// Stacks the three maps into a max-normalized `[3, G, G]` row-major
    /// buffer, ready to become the CNN input tensor.
    pub fn stacked(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(3 * self.density.values().len());
        for map in [&self.density, &self.rudy, &self.macros] {
            let mut normalized = map.clone();
            normalized.normalize_max();
            out.extend_from_slice(normalized.values());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_circgen::GenParams;
    use rtt_place::{place, PlaceConfig};

    fn world(macros: usize) -> (CellLibrary, Netlist, Placement) {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new("m", 300, 9).generate(&lib);
        let pl = place(&d.netlist, &lib, macros, &PlaceConfig::default());
        (lib, d.netlist, pl)
    }

    #[test]
    fn maps_share_resolution_and_die() {
        let (lib, nl, pl) = world(1);
        let maps = LayoutMaps::extract(&nl, &lib, &pl, 16);
        assert_eq!(maps.grid(), 16);
        assert_eq!(maps.density.die(), maps.rudy.die());
        assert_eq!(maps.stacked().len(), 3 * 16 * 16);
    }

    #[test]
    fn macro_map_reflects_macro_bins() {
        let (lib, nl, pl) = world(2);
        let maps = LayoutMaps::extract(&nl, &lib, &pl, 32);
        let m = &pl.floorplan().macros[0];
        let c = m.center();
        let (bx, by) = maps.macros.bin_of(c.x, c.y);
        assert!(maps.macros.at(bx, by) > 0.5, "macro interior bin not covered");
        // A macro-free design yields an all-zero macro map.
        let (lib2, nl2, pl2) = world(0);
        let maps2 = LayoutMaps::extract(&nl2, &lib2, &pl2, 16);
        assert_eq!(maps2.macros.total(), 0.0);
    }

    #[test]
    fn stacked_channels_are_normalized() {
        let (lib, nl, pl) = world(1);
        let maps = LayoutMaps::extract(&nl, &lib, &pl, 16);
        let s = maps.stacked();
        for ch in 0..3 {
            let chan = &s[ch * 256..(ch + 1) * 256];
            let max = chan.iter().copied().fold(0.0f32, f32::max);
            assert!(max <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn density_is_higher_where_cells_cluster() {
        let (lib, nl, pl) = world(0);
        let maps = LayoutMaps::extract(&nl, &lib, &pl, 8);
        assert!(maps.density.max() > maps.density.total() / 64.0, "no density contrast");
    }
}
