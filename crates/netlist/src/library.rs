//! Synthetic standard-cell library modelled loosely on the ASAP7 PDK.
//!
//! The paper synthesizes with the 7-nm ASAP7 library; we cannot ship that
//! proprietary-adjacent data, so [`CellLibrary::asap7_like`] generates a
//! deterministic family of cells with the attributes the timing models and
//! the paper's input features actually consume: per-pin capacitance, drive
//! resistance (derived from drive strength), intrinsic delay, area, and the
//! gate function used for the one-hot *gate type* feature.

use std::collections::HashMap;

use crate::CellTypeId;

/// Drive strengths available for every combinational function, mirroring the
/// `x1/x2/x4/x8` taxonomy of commercial libraries.
pub const DRIVE_STRENGTHS: [u8; 4] = [1, 2, 4, 8];

/// Logic function implemented by a cell type.
///
/// The variants double as the *gate type* one-hot categories of the paper's
/// netlist features (Section IV-A, feature 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum GateFn {
    /// Non-inverting buffer (1 input). Inserted by the timing optimizer.
    Buf,
    /// Inverter (1 input).
    Inv,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 4-input AND.
    And4,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 4-input OR.
    Or4,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer (3 inputs: a, b, sel).
    Mux2,
    /// And-Or-Invert 2-2 (4 inputs), a common restructuring target.
    Aoi22,
    /// D flip-flop (1 data input; the clock network is not modelled).
    Dff,
}

impl GateFn {
    /// All gate functions, in one-hot encoding order.
    pub const ALL: [GateFn; 15] = [
        GateFn::Buf,
        GateFn::Inv,
        GateFn::And2,
        GateFn::And3,
        GateFn::And4,
        GateFn::Or2,
        GateFn::Or3,
        GateFn::Or4,
        GateFn::Nand2,
        GateFn::Nor2,
        GateFn::Xor2,
        GateFn::Xnor2,
        GateFn::Mux2,
        GateFn::Aoi22,
        GateFn::Dff,
    ];

    /// Number of input pins of this function.
    pub fn num_inputs(self) -> usize {
        match self {
            GateFn::Buf | GateFn::Inv | GateFn::Dff => 1,
            GateFn::And2
            | GateFn::Or2
            | GateFn::Nand2
            | GateFn::Nor2
            | GateFn::Xor2
            | GateFn::Xnor2 => 2,
            GateFn::And3 | GateFn::Or3 | GateFn::Mux2 => 3,
            GateFn::And4 | GateFn::Or4 | GateFn::Aoi22 => 4,
        }
    }

    /// Index of this function in the one-hot gate-type encoding.
    ///
    /// `ALL` lists the variants in declaration order, so the discriminant
    /// *is* the one-hot index (`one_hot_indices_are_dense_and_unique`
    /// asserts the round trip).
    pub fn one_hot_index(self) -> usize {
        self as usize
    }

    /// `true` for sequential elements (timing-graph cut points).
    pub fn is_sequential(self) -> bool {
        matches!(self, GateFn::Dff)
    }

    /// Short library-style mnemonic, e.g. `AND3` or `DFF`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateFn::Buf => "BUF",
            GateFn::Inv => "INV",
            GateFn::And2 => "AND2",
            GateFn::And3 => "AND3",
            GateFn::And4 => "AND4",
            GateFn::Or2 => "OR2",
            GateFn::Or3 => "OR3",
            GateFn::Or4 => "OR4",
            GateFn::Nand2 => "NAND2",
            GateFn::Nor2 => "NOR2",
            GateFn::Xor2 => "XOR2",
            GateFn::Xnor2 => "XNOR2",
            GateFn::Mux2 => "MUX2",
            GateFn::Aoi22 => "AOI22",
            GateFn::Dff => "DFF",
        }
    }
}

impl std::fmt::Display for GateFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A cell master: one logic function at one drive strength, with the timing
/// and physical attributes used by STA, placement, and feature extraction.
#[derive(Clone, Debug, PartialEq)]
pub struct CellType {
    /// Library name, e.g. `AND3_X4`.
    pub name: String,
    /// Logic function.
    pub gate: GateFn,
    /// Drive strength multiplier (one of [`DRIVE_STRENGTHS`]).
    pub drive: u8,
    /// Output drive resistance in kΩ. Larger cells drive harder (lower R).
    pub drive_res_kohm: f32,
    /// Input pin capacitance in fF (identical across input pins).
    pub pin_cap_ff: f32,
    /// Intrinsic (unloaded) delay in ps.
    pub intrinsic_ps: f32,
    /// Cell area in µm² (used by placement density).
    pub area_um2: f32,
}

impl CellType {
    /// Number of input pins.
    pub fn num_inputs(&self) -> usize {
        self.gate.num_inputs()
    }

    /// `true` for sequential cells.
    pub fn is_sequential(&self) -> bool {
        self.gate.is_sequential()
    }
}

/// A deterministic synthetic standard-cell library.
///
/// Every combinational [`GateFn`] is available at the four
/// [`DRIVE_STRENGTHS`]; the flip-flop exists at strengths 1 and 2.
#[derive(Clone, Debug)]
pub struct CellLibrary {
    types: Vec<CellType>,
    /// Name → id, built once with the library; used only for lookups.
    by_name: HashMap<String, CellTypeId>,
}

impl CellLibrary {
    /// Builds the default ASAP7-flavoured library.
    ///
    /// The absolute numbers are synthetic but dimensionally consistent:
    /// resistance in kΩ, capacitance in fF, so `R · C` is directly in ps.
    pub fn asap7_like() -> Self {
        let mut types = Vec::new();
        for &gate in &GateFn::ALL {
            let strengths: &[u8] = if gate.is_sequential() { &[1, 2] } else { &DRIVE_STRENGTHS };
            // Base electrical characteristics scale with logic complexity.
            let (base_res, base_cap, base_intr, base_area) = match gate {
                GateFn::Buf => (6.0, 0.7, 4.0, 0.30),
                GateFn::Inv => (5.0, 0.6, 3.0, 0.25),
                GateFn::And2 | GateFn::Or2 => (8.0, 0.8, 8.0, 0.45),
                GateFn::Nand2 | GateFn::Nor2 => (7.0, 0.8, 6.0, 0.40),
                GateFn::And3 | GateFn::Or3 => (9.0, 0.9, 11.0, 0.60),
                GateFn::And4 | GateFn::Or4 => (10.0, 1.0, 14.0, 0.75),
                GateFn::Xor2 | GateFn::Xnor2 => (9.5, 1.1, 12.0, 0.70),
                GateFn::Mux2 => (9.0, 1.0, 10.0, 0.65),
                GateFn::Aoi22 => (10.5, 1.0, 13.0, 0.80),
                GateFn::Dff => (7.5, 0.9, 22.0, 1.60),
            };
            for &s in strengths {
                let sf = f32::from(s);
                types.push(CellType {
                    name: format!("{}_X{s}", gate.mnemonic()),
                    gate,
                    drive: s,
                    // Stronger drive => proportionally lower output resistance.
                    drive_res_kohm: base_res / sf,
                    // Stronger drive => larger input transistors => more cap.
                    pin_cap_ff: base_cap * (1.0 + 0.35 * (sf - 1.0)),
                    // Intrinsic delay shrinks mildly with size.
                    intrinsic_ps: base_intr * (1.0 - 0.06 * (sf.log2())),
                    area_um2: base_area * (0.6 + 0.4 * sf),
                });
            }
        }
        let by_name = types
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.clone(), CellTypeId::from_index(i)))
            .collect();
        Self { types, by_name }
    }

    /// Number of cell types in the library.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// `true` if the library has no cell types.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Returns the cell type with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell_type(&self, id: CellTypeId) -> &CellType {
        &self.types[id.index()]
    }

    /// Iterates over `(id, type)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellTypeId, &CellType)> {
        self.types.iter().enumerate().map(|(i, t)| (CellTypeId::from_index(i), t))
    }

    /// Finds the type named `name` (e.g. `AND3_X4`).
    pub(crate) fn find(&self, name: &str) -> Option<CellTypeId> {
        self.by_name.get(name).copied()
    }

    /// Finds the type implementing `gate` at exactly drive strength `drive`.
    pub fn pick(&self, gate: GateFn, drive: u8) -> Option<CellTypeId> {
        self.iter().find(|(_, t)| t.gate == gate && t.drive == drive).map(|(id, _)| id)
    }

    /// Finds the next stronger variant of `id`, if any.
    pub fn upsize(&self, id: CellTypeId) -> Option<CellTypeId> {
        let t = self.cell_type(id);
        self.iter()
            .filter(|(_, c)| c.gate == t.gate && c.drive > t.drive)
            .min_by_key(|(_, c)| c.drive)
            .map(|(id, _)| id)
    }

    /// Finds the next weaker variant of `id`, if any.
    pub fn downsize(&self, id: CellTypeId) -> Option<CellTypeId> {
        let t = self.cell_type(id);
        self.iter()
            .filter(|(_, c)| c.gate == t.gate && c.drive < t.drive)
            .max_by_key(|(_, c)| c.drive)
            .map(|(id, _)| id)
    }

    /// All drive variants for a gate function, weakest first.
    pub fn variants(&self, gate: GateFn) -> Vec<CellTypeId> {
        let mut v: Vec<(u8, CellTypeId)> =
            self.iter().filter(|(_, t)| t.gate == gate).map(|(id, t)| (t.drive, id)).collect();
        v.sort_unstable_by_key(|(d, _)| *d);
        v.into_iter().map(|(_, id)| id).collect()
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::asap7_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_covers_all_functions_and_strengths() {
        let lib = CellLibrary::asap7_like();
        for &g in &GateFn::ALL {
            let variants = lib.variants(g);
            let expected = if g.is_sequential() { 2 } else { DRIVE_STRENGTHS.len() };
            assert_eq!(variants.len(), expected, "{g}");
        }
    }

    #[test]
    fn stronger_cells_drive_harder_but_load_more() {
        let lib = CellLibrary::asap7_like();
        let x1 = lib.cell_type(lib.pick(GateFn::Nand2, 1).unwrap());
        let x8 = lib.cell_type(lib.pick(GateFn::Nand2, 8).unwrap());
        assert!(x8.drive_res_kohm < x1.drive_res_kohm);
        assert!(x8.pin_cap_ff > x1.pin_cap_ff);
        assert!(x8.area_um2 > x1.area_um2);
    }

    #[test]
    fn upsize_downsize_walk_the_strength_ladder() {
        let lib = CellLibrary::asap7_like();
        let x1 = lib.pick(GateFn::Buf, 1).unwrap();
        let x2 = lib.upsize(x1).unwrap();
        assert_eq!(lib.cell_type(x2).drive, 2);
        assert_eq!(lib.downsize(x2), Some(x1));
        let x8 = lib.pick(GateFn::Buf, 8).unwrap();
        assert_eq!(lib.upsize(x8), None);
        assert_eq!(lib.downsize(x1), None);
    }

    #[test]
    fn one_hot_indices_are_dense_and_unique() {
        let mut seen = vec![false; GateFn::ALL.len()];
        for &g in &GateFn::ALL {
            let i = g.one_hot_index();
            assert_eq!(GateFn::ALL[i], g, "ALL must stay in declaration order");
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn names_follow_library_convention() {
        let lib = CellLibrary::asap7_like();
        let id = lib.pick(GateFn::Aoi22, 4).unwrap();
        assert_eq!(lib.cell_type(id).name, "AOI22_X4");
    }

    #[test]
    fn find_resolves_every_name_and_nothing_else() {
        let lib = CellLibrary::asap7_like();
        for (id, t) in lib.iter() {
            assert_eq!(lib.find(&t.name), Some(id));
        }
        assert_eq!(lib.find("AOI22_X3"), None);
        assert_eq!(lib.find(""), None);
    }

    #[test]
    fn input_counts_match_function() {
        assert_eq!(GateFn::Mux2.num_inputs(), 3);
        assert_eq!(GateFn::Aoi22.num_inputs(), 4);
        assert_eq!(GateFn::Dff.num_inputs(), 1);
        let lib = CellLibrary::asap7_like();
        for (_, t) in lib.iter() {
            assert_eq!(t.num_inputs(), t.gate.num_inputs());
        }
    }
}
