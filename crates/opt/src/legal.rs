//! Layout-legality tracking for optimizer transforms.

use rtt_netlist::{CellLibrary, Netlist};
use rtt_place::{Grid, Placement, Point};

/// Why a transform was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LegalityViolation {
    /// The target bin would exceed the density limit.
    Density,
    /// The target position lies inside a macro block (or off-die).
    Macro,
}

/// Incrementally-updated bin density used to gate area-adding transforms.
///
/// This is where the paper's layout dependence enters the optimizer: a
/// transform that inserts or grows gates must find whitespace, so dense
/// regions and macro shadows suppress optimization — the signal the CNN
/// branch of the model learns from the density/RUDY/macro maps.
#[derive(Clone, Debug)]
pub struct DensityTracker {
    occupancy: Grid,
    limit: f32,
}

impl DensityTracker {
    /// Builds the tracker from the current placement.
    pub fn new(
        netlist: &Netlist,
        library: &CellLibrary,
        placement: &Placement,
        bins: usize,
        density_limit: f32,
    ) -> Self {
        let mut occupancy = Grid::new(bins, bins, placement.floorplan().die);
        for (cid, cell) in netlist.cells() {
            let p = placement.cell_pos(cid);
            let (bx, by) = occupancy.bin_of(p.x, p.y);
            let area = library.cell_type(cell.type_id).area_um2;
            occupancy.set(bx, by, occupancy.at(bx, by) + area);
        }
        Self { occupancy, limit: density_limit }
    }

    /// Checks whether `extra_area` µm² can be added at `p`.
    ///
    /// # Errors
    ///
    /// Returns the violation that blocks the insertion.
    pub fn check(
        &self,
        placement: &Placement,
        p: Point,
        extra_area: f32,
    ) -> Result<(), LegalityViolation> {
        self.check_scaled(placement, p, extra_area, 1.0)
    }

    /// Like [`Self::check`], with the density limit scaled by `limit_scale`.
    ///
    /// In-place growth (gate sizing) uses a scale above 1: it does not need
    /// a free site, only legalization headroom, so it tolerates denser bins
    /// than gate insertion does.
    ///
    /// # Errors
    ///
    /// Returns the violation that blocks the insertion.
    pub fn check_scaled(
        &self,
        placement: &Placement,
        p: Point,
        extra_area: f32,
        limit_scale: f32,
    ) -> Result<(), LegalityViolation> {
        self.check_floorplan(placement.floorplan(), p, extra_area, limit_scale)
    }

    /// Like [`Self::check_scaled`], against a floorplan directly (usable
    /// while the placement itself is mutably borrowed by a transform).
    ///
    /// # Errors
    ///
    /// Returns the violation that blocks the insertion.
    pub fn check_floorplan(
        &self,
        floorplan: &rtt_place::Floorplan,
        p: Point,
        extra_area: f32,
        limit_scale: f32,
    ) -> Result<(), LegalityViolation> {
        if !floorplan.is_placeable(p) {
            return Err(LegalityViolation::Macro);
        }
        let (bx, by) = self.occupancy.bin_of(p.x, p.y);
        let (bw, bh) = self.occupancy.bin_size();
        let util = (self.occupancy.at(bx, by) + extra_area) / (bw * bh);
        if util > self.limit * limit_scale {
            return Err(LegalityViolation::Density);
        }
        Ok(())
    }

    /// Records `extra_area` µm² of new cell area at `p` (call after a
    /// successful transform).
    pub fn commit(&mut self, p: Point, extra_area: f32) {
        let (bx, by) = self.occupancy.bin_of(p.x, p.y);
        self.occupancy.set(bx, by, self.occupancy.at(bx, by) + extra_area);
    }

    /// Tries `p` first, then a ring of nearby candidate positions; returns
    /// the first legal one.
    pub fn find_legal_near(
        &self,
        placement: &Placement,
        p: Point,
        extra_area: f32,
    ) -> Result<Point, LegalityViolation> {
        let mut last = LegalityViolation::Density;
        let (bw, bh) = self.occupancy.bin_size();
        let offsets =
            [(0.0, 0.0), (bw, 0.0), (-bw, 0.0), (0.0, bh), (0.0, -bh), (bw, bh), (-bw, -bh)];
        for (dx, dy) in offsets {
            let cand = placement.floorplan().die.clamp(Point::new(p.x + dx, p.y + dy));
            match self.check(placement, cand, extra_area) {
                Ok(()) => return Ok(cand),
                Err(v) => last = v,
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_circgen::GenParams;
    use rtt_netlist::CellLibrary;
    use rtt_place::{place, PlaceConfig};

    fn world(util: f32) -> (CellLibrary, Netlist, Placement) {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new("l", 300, 3).generate(&lib);
        let cfg = PlaceConfig { utilization: util, ..PlaceConfig::default() };
        let pl = place(&d.netlist, &lib, 1, &cfg);
        (lib, d.netlist, pl)
    }

    #[test]
    fn macro_positions_are_illegal() {
        let (lib, nl, pl) = world(0.5);
        let t = DensityTracker::new(&nl, &lib, &pl, 16, 0.8);
        let m = pl.floorplan().macros[0];
        assert_eq!(t.check(&pl, m.center(), 0.1), Err(LegalityViolation::Macro));
    }

    #[test]
    fn off_die_is_illegal() {
        let (lib, nl, pl) = world(0.5);
        let t = DensityTracker::new(&nl, &lib, &pl, 16, 0.8);
        let off = Point::new(pl.floorplan().die.x1 + 100.0, 0.0);
        assert_eq!(t.check(&pl, off, 0.1), Err(LegalityViolation::Macro));
    }

    #[test]
    fn commits_accumulate_until_blocked() {
        let (lib, nl, pl) = world(0.5);
        // Limit above the initial occupancy so the first checks pass.
        let mut t = DensityTracker::new(&nl, &lib, &pl, 8, 2.0);
        // Find a legal open spot and fill it up.
        let p = pl.floorplan().die.center();
        let mut added = 0.0;
        while t.check(&pl, p, 5.0).is_ok() && added < 1e6 {
            t.commit(p, 5.0);
            added += 5.0;
        }
        assert!(added > 0.0);
        assert_eq!(t.check(&pl, p, 5.0), Err(LegalityViolation::Density));
    }

    #[test]
    fn find_legal_near_escapes_a_full_bin() {
        let (lib, nl, pl) = world(0.5);
        let mut t = DensityTracker::new(&nl, &lib, &pl, 8, 2.0);
        let p = pl.floorplan().die.center();
        while t.check(&pl, p, 5.0).is_ok() {
            t.commit(p, 5.0);
        }
        // The exact bin is full, but a neighbor should accept the area.
        let found = t.find_legal_near(&pl, p, 5.0);
        assert!(found.is_ok());
        assert_ne!(found.unwrap(), p);
    }
}
