//! Structural diff between a netlist and its optimized version.
//!
//! Because ids are stable under tombstoning, the replacement statistics of
//! the paper's Table I are exact set operations:
//!
//! * a **net edge** `(driver, sink)` of the input netlist is *replaced* if
//!   the sink is no longer directly driven by that driver in the optimized
//!   netlist (buffer insertion, driver change, net removal, pin death);
//! * a **cell edge** is *replaced* if its cell was removed (decomposition,
//!   bypass, dead-logic sweep). Gate sizing keeps the cell alive and is
//!   *not* a replacement — matching the paper, which measures sizing churn
//!   as Δdelay on unreplaced cells.

use rtt_netlist::{CellLibrary, Netlist, PinId};

/// Replacement statistics between an input netlist and its optimized form.
#[derive(Clone, Debug, Default)]
pub struct NetlistDiff {
    /// Net edges in the input netlist.
    pub total_net_edges: usize,
    /// Input net edges no longer present after optimization.
    pub replaced_net_edges: usize,
    /// Cell edges (combinational input→output arcs) in the input netlist.
    pub total_cell_edges: usize,
    /// Input cell edges whose cell was removed.
    pub replaced_cell_edges: usize,
    surviving_net: Vec<(PinId, PinId)>,
    surviving_cell: Vec<(PinId, PinId)>,
}

impl NetlistDiff {
    /// Fraction of input net edges replaced (Table I `#replaced`, nets).
    pub fn net_replaced_fraction(&self) -> f64 {
        fraction(self.replaced_net_edges, self.total_net_edges)
    }

    /// Fraction of input cell edges replaced (Table I `#replaced`, cells).
    pub fn cell_replaced_fraction(&self) -> f64 {
        fraction(self.replaced_cell_edges, self.total_cell_edges)
    }

    /// Input net edges `(driver, sink)` that survived unchanged.
    ///
    /// Ordering is **deterministic and documented**: edges appear in the
    /// `before` netlist's net-id order, and within a net in its
    /// `sinks` order — the same order [`diff_netlists`] scanned them.
    /// Table I's net delay churn (`rtt_flow::tables`) sums over this
    /// slice in order, so its bits depend on the order, which is pinned
    /// by test (`surviving_edge_order_is_deterministic`).
    pub fn surviving_net_edges(&self) -> &[(PinId, PinId)] {
        &self.surviving_net
    }

    /// Input cell edges `(input, output)` whose cell survived.
    ///
    /// Ordering is **deterministic and documented**: the `before`
    /// netlist's cell-id order (sequential cells skipped), and within a
    /// cell its `inputs` order. Pinned by the same determinism test as
    /// [`Self::surviving_net_edges`].
    pub fn surviving_cell_edges(&self) -> &[(PinId, PinId)] {
        &self.surviving_cell
    }
}

fn fraction(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Diffs `before` (pre-optimization input) against `after` (optimized).
///
/// Both netlists must share an id space, i.e. `after` must have been
/// produced by mutating a clone of `before`.
pub fn diff_netlists(before: &Netlist, after: &Netlist, library: &CellLibrary) -> NetlistDiff {
    let mut diff = NetlistDiff::default();

    for (_, net) in before.nets() {
        let driver = net.driver;
        for &sink in &net.sinks {
            diff.total_net_edges += 1;
            if drives(after, driver, sink) {
                diff.surviving_net.push((driver, sink));
            } else {
                diff.replaced_net_edges += 1;
            }
        }
    }

    for (cid, cell) in before.cells() {
        if library.cell_type(cell.type_id).is_sequential() {
            continue; // sequential arcs are cut from the timing graph
        }
        let survives = after.cell(cid).is_alive();
        for &input in &cell.inputs {
            diff.total_cell_edges += 1;
            if survives {
                diff.surviving_cell.push((input, cell.output));
            } else {
                diff.replaced_cell_edges += 1;
            }
        }
    }
    diff
}

/// Whether `pin` exists in `nl` and is alive.
fn alive(nl: &Netlist, pin: PinId) -> bool {
    pin.index() < nl.pin_capacity() && nl.pin(pin).is_alive()
}

/// Whether the net edge `(driver, sink)` is present in `nl`: both pins
/// alive, and the sink's net alive and driven by `driver`.
fn drives(nl: &Netlist, driver: PinId, sink: PinId) -> bool {
    alive(nl, driver)
        && alive(nl, sink)
        && nl.pin(sink).net.is_some_and(|n| nl.net(n).is_alive() && nl.net(n).driver == driver)
}

/// Every pin of `after` whose *gather topology* — the set or order of
/// graph edges feeding its node — may differ from `before`'s. Nothing in
/// the program calls it: `rtt_core::IncrementalCtx` finds every changed
/// row by itself. It stays because perfbench's traced `restructure_small`
/// replay times it as its `opt.dirty_seeds` layer; ROADMAP item 1 deletes
/// both.
///
/// Three rules, each over a documented deterministic scan order:
/// 1. every pin (inputs and output) of an `after` cell that is new or
///    retyped — its cell arcs did not exist, or its arity/kind changed;
/// 2. the sink of every `after` net edge `(driver, sink)` that was not
///    present identically in `before` — the sink's driver gather
///    changed;
/// 3. the sink of every `before` net edge that did not survive but whose
///    sink pin is still alive in `after` — it may have lost its driver
///    entirely (a `NetSink` node turning into a `Source`).
///
/// The result is sorted by pin index and deduplicated, so it is a
/// deterministic function of the two netlists.
///
/// Both netlists must share an id space (`after` produced by mutating a
/// clone of `before`), exactly as for [`diff_netlists`].
pub fn dirty_seed_pins(before: &Netlist, after: &Netlist) -> Vec<PinId> {
    let mut seeds: Vec<PinId> = Vec::new();

    // Rule 1: new or retyped cells dirty all their pins.
    for (cid, cell) in after.cells() {
        let fresh = cid.index() >= before.cell_capacity()
            || !before.cell(cid).is_alive()
            || before.cell(cid).type_id != cell.type_id;
        if fresh {
            seeds.extend(cell.inputs.iter().copied());
            seeds.push(cell.output);
        }
    }

    // Rule 2: net edges of `after` that `before` did not have.
    for (_, net) in after.nets() {
        let driver = net.driver;
        for &sink in &net.sinks {
            if !drives(before, driver, sink) {
                seeds.push(sink);
            }
        }
    }

    // Rule 3: `before` net edges that vanished while their sink lives on.
    for (_, net) in before.nets() {
        let driver = net.driver;
        for &sink in &net.sinks {
            if alive(after, sink) && !drives(after, driver, sink) {
                seeds.push(sink);
            }
        }
    }

    seeds.sort_by_key(|p| p.index());
    seeds.dedup();
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transforms::{bypass_repeater, insert_buffer, prune_dangling};
    use rtt_circgen::ripple_carry_adder;
    use rtt_netlist::{CellLibrary, GateFn};
    use rtt_place::{place, PlaceConfig, Point};

    #[test]
    fn identity_diff_replaces_nothing() {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(4, &lib);
        let d = diff_netlists(&nl, &nl, &lib);
        assert_eq!(d.replaced_net_edges, 0);
        assert_eq!(d.replaced_cell_edges, 0);
        assert!(d.total_net_edges > 0);
        assert!(d.total_cell_edges > 0);
        assert_eq!(d.net_replaced_fraction(), 0.0);
        assert_eq!(d.surviving_net_edges().len(), d.total_net_edges);
    }

    #[test]
    fn buffer_insertion_replaces_exactly_one_net_edge() {
        let lib = CellLibrary::asap7_like();
        let before = ripple_carry_adder(4, &lib);
        let mut after = before.clone();
        let mut pl = place(&after, &lib, 0, &PlaceConfig::default());
        let (net, sink) = {
            let (nid, n) = after.nets().find(|(_, n)| n.sinks.len() == 1).unwrap();
            (nid, n.sinks[0])
        };
        insert_buffer(&mut after, &mut pl, &lib, net, sink, Point::new(0.5, 0.5)).unwrap();
        let d = diff_netlists(&before, &after, &lib);
        assert_eq!(d.replaced_net_edges, 1);
        assert_eq!(d.replaced_cell_edges, 0);
    }

    #[test]
    fn bypass_replaces_cell_edges_and_net_edges() {
        let lib = CellLibrary::asap7_like();
        let mut before = rtt_netlist::Netlist::new("b");
        let a = before.add_input_port("a");
        let buf = lib.pick(GateFn::Buf, 1).unwrap();
        let (c, o) = before.add_cell("u", buf, &lib);
        let i = before.cell(c).inputs[0];
        before.connect_net("ni", a, &[i]).unwrap();
        let y = before.add_output_port("y");
        before.connect_net("no", o, &[y]).unwrap();

        let mut after = before.clone();
        bypass_repeater(&mut after, &lib, c).unwrap();
        let d = diff_netlists(&before, &after, &lib);
        // Edges a->i and o->y are both gone; the buffer cell edge is gone.
        assert_eq!(d.replaced_net_edges, 2);
        assert_eq!(d.replaced_cell_edges, 1);
        assert_eq!(d.cell_replaced_fraction(), 1.0);
    }

    #[test]
    fn resize_is_not_a_replacement() {
        let lib = CellLibrary::asap7_like();
        let before = ripple_carry_adder(4, &lib);
        let mut after = before.clone();
        let (cid, cell) = after
            .cells()
            .find(|(_, c)| !lib.cell_type(c.type_id).is_sequential())
            .map(|(id, c)| (id, c.clone()))
            .unwrap();
        let up = lib.pick(lib.cell_type(cell.type_id).gate, 8).unwrap();
        after.resize_cell(cid, up, &lib).unwrap();
        let d = diff_netlists(&before, &after, &lib);
        assert_eq!(d.replaced_net_edges, 0);
        assert_eq!(d.replaced_cell_edges, 0);
    }

    #[test]
    fn surviving_edge_order_is_deterministic() {
        // Pins the documented ordering contract of `surviving_net_edges`
        // / `surviving_cell_edges`: before-id scan order, exactly as a
        // manual rescan reproduces it. Table I's delay churn sums over
        // both slices in order, so its bits depend on this staying stable.
        let lib = CellLibrary::asap7_like();
        let before = ripple_carry_adder(4, &lib);
        let mut after = before.clone();
        let mut pl = place(&after, &lib, 0, &PlaceConfig::default());
        let (net, sink) = {
            let (nid, n) = after.nets().find(|(_, n)| n.sinks.len() == 1).unwrap();
            (nid, n.sinks[0])
        };
        insert_buffer(&mut after, &mut pl, &lib, net, sink, Point::new(0.5, 0.5)).unwrap();

        let d1 = diff_netlists(&before, &after, &lib);
        let d2 = diff_netlists(&before, &after, &lib);
        assert_eq!(d1.surviving_net_edges(), d2.surviving_net_edges());
        assert_eq!(d1.surviving_cell_edges(), d2.surviving_cell_edges());

        // Reconstruct the documented order by hand and demand equality.
        let mut expect_net = Vec::new();
        for (_, n) in before.nets() {
            for &s in &n.sinks {
                let survives = after.pin(s).is_alive()
                    && after.pin(n.driver).is_alive()
                    && after.pin(s).net.is_some_and(|m| {
                        after.net(m).is_alive() && after.net(m).driver == n.driver
                    });
                if survives {
                    expect_net.push((n.driver, s));
                }
            }
        }
        assert_eq!(d1.surviving_net_edges(), expect_net.as_slice());
        let mut expect_cell = Vec::new();
        for (cid, c) in before.cells() {
            if lib.cell_type(c.type_id).is_sequential() || !after.cell(cid).is_alive() {
                continue;
            }
            for &i in &c.inputs {
                expect_cell.push((i, c.output));
            }
        }
        assert_eq!(d1.surviving_cell_edges(), expect_cell.as_slice());
    }

    #[test]
    fn replaced_fractions_are_bounded_and_consistent() {
        let lib = CellLibrary::asap7_like();
        let before = ripple_carry_adder(4, &lib);
        let mut after = before.clone();
        let mut pl = place(&after, &lib, 0, &PlaceConfig::default());
        let targets: Vec<_> = after
            .nets()
            .filter(|(_, n)| n.sinks.len() == 1)
            .take(3)
            .map(|(nid, n)| (nid, n.sinks[0]))
            .collect();
        for (net, sink) in targets {
            insert_buffer(&mut after, &mut pl, &lib, net, sink, Point::new(0.5, 0.5)).unwrap();
        }
        let d = diff_netlists(&before, &after, &lib);
        assert!((0.0..=1.0).contains(&d.net_replaced_fraction()));
        assert!((0.0..=1.0).contains(&d.cell_replaced_fraction()));
        assert_eq!(d.surviving_net_edges().len() + d.replaced_net_edges, d.total_net_edges);
        assert_eq!(d.surviving_cell_edges().len() + d.replaced_cell_edges, d.total_cell_edges);
        assert_eq!(d.replaced_net_edges, 3);
    }

    #[test]
    fn dirty_seed_pins_identity_is_empty() {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(4, &lib);
        assert!(dirty_seed_pins(&nl, &nl).is_empty());
    }

    #[test]
    fn dirty_seed_pins_cover_buffer_insertion_cone_entry() {
        let lib = CellLibrary::asap7_like();
        let before = ripple_carry_adder(4, &lib);
        let mut after = before.clone();
        let mut pl = place(&after, &lib, 0, &PlaceConfig::default());
        let (net, sink) = {
            let (nid, n) = after.nets().find(|(_, n)| n.sinks.len() == 1).unwrap();
            (nid, n.sinks[0])
        };
        insert_buffer(&mut after, &mut pl, &lib, net, sink, Point::new(0.5, 0.5)).unwrap();
        let seeds = dirty_seed_pins(&before, &after);
        // The moved sink (its driver changed) plus the buffer's two pins.
        assert!(seeds.contains(&sink), "re-driven sink must be seeded");
        assert_eq!(seeds.len(), 3, "sink + new buffer input + output: {seeds:?}");
        let sorted_ok = seeds.windows(2).all(|w| w[0].index() < w[1].index());
        assert!(sorted_ok, "seed order must be sorted and deduplicated");
    }

    #[test]
    fn dirty_seed_pins_cover_bypass() {
        let lib = CellLibrary::asap7_like();
        let mut before = rtt_netlist::Netlist::new("b");
        let a = before.add_input_port("a");
        let buf = lib.pick(GateFn::Buf, 1).unwrap();
        let (c, o) = before.add_cell("u", buf, &lib);
        let i = before.cell(c).inputs[0];
        before.connect_net("ni", a, &[i]).unwrap();
        let y = before.add_output_port("y");
        before.connect_net("no", o, &[y]).unwrap();

        let mut after = before.clone();
        bypass_repeater(&mut after, &lib, c).unwrap();
        // Only `y` survives with a changed driver; the buffer's pins are
        // dead and must not be seeded.
        assert_eq!(dirty_seed_pins(&before, &after), vec![y]);
    }

    #[test]
    fn pruning_dead_logic_seeds_nothing() {
        // A transform that touches zero timing-relevant pins: removing a
        // cell whose output drives nothing. Every surviving pin keeps its
        // driver and features, so the dirty set is empty and an
        // incremental predict can reuse its cache in full.
        let lib = CellLibrary::asap7_like();
        let mut before = rtt_netlist::Netlist::new("p");
        let a = before.add_input_port("a");
        let y = before.add_output_port("y");
        let buf = lib.pick(GateFn::Buf, 1).unwrap();
        let (live, live_o) = before.add_cell("keep", buf, &lib);
        let live_i = before.cell(live).inputs[0];
        let (dead, _) = before.add_cell("dangle", buf, &lib);
        let dead_i = before.cell(dead).inputs[0];
        before.connect_net("ni", a, &[live_i, dead_i]).unwrap();
        before.connect_net("no", live_o, &[y]).unwrap();

        let mut after = before.clone();
        let removed = prune_dangling(&mut after, &lib);
        assert_eq!(removed, 1, "the dangling buffer must be pruned");
        assert!(after.validate().is_ok());
        assert_eq!(dirty_seed_pins(&before, &after), Vec::new());
    }

    #[test]
    fn sequential_cells_do_not_count_as_cell_edges() {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(2, &lib);
        let d = diff_netlists(&nl, &nl, &lib);
        let comb_inputs: usize = nl
            .cells()
            .filter(|(_, c)| !lib.cell_type(c.type_id).is_sequential())
            .map(|(_, c)| c.inputs.len())
            .sum();
        assert_eq!(d.total_cell_edges, comb_inputs);
    }
}
