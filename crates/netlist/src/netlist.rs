//! Mutable gate-level netlist with stable ids and tombstoning removal.
//!
//! The timing optimizer restructures netlists (buffer insertion, gate
//! decomposition, rewrites). To let the flow layer compute the paper's
//! Table I replacement statistics by *diffing* the optimized netlist against
//! the pre-optimization input, removals never re-index: entities are
//! tombstoned and surviving entities keep their ids.

use std::borrow::Cow;

use crate::{CellId, CellLibrary, CellTypeId, NetId, NetlistError, PinId};

/// Signal-flow direction of a pin.
///
/// Top-level input ports and cell output pins *drive* nets; top-level output
/// ports and cell input pins *sink* them. Using flow direction (rather than
/// cell-relative direction) keeps net construction uniform for ports and
/// cells.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PinDir {
    /// Sources a net (cell output pin or primary input port).
    Drive,
    /// Loads a net (cell input pin or primary output port).
    Sink,
}

/// Top-level port classification of a pin, if it is a port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PortKind {
    /// Primary input (timing start point).
    Input,
    /// Primary output (timing endpoint).
    Output,
}

/// A pin: a cell terminal or a top-level port.
///
/// A pin stores no name, so creating or cloning one allocates nothing.
/// [`Netlist::pin_name`] derives a cell pin's name from its cell
/// (`{cell}/i{k}`, `{cell}/o`) and returns a port's own name.
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    /// Signal-flow direction.
    pub dir: PinDir,
    /// Owning cell, or `None` for top-level ports.
    pub cell: Option<CellId>,
    /// Net this pin is attached to, if any.
    pub net: Option<NetId>,
    /// Port classification, or `None` for cell pins.
    pub port: Option<PortKind>,
    pub(crate) alive: bool,
}

impl Pin {
    /// `true` until the pin's owner is removed.
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

/// A standard-cell instance.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Instance name, unique within the netlist.
    pub name: String,
    /// Cell master in the library.
    pub type_id: CellTypeId,
    /// Input pins, in library pin order.
    pub inputs: Vec<PinId>,
    /// Output pin.
    pub output: PinId,
    pub(crate) alive: bool,
}

impl Cell {
    /// `true` until the cell is removed.
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

/// A net: one driver pin and one or more sink pins.
#[derive(Clone, Debug)]
pub struct Net {
    /// Net name, unique within the netlist.
    pub name: String,
    /// Driving pin.
    pub driver: PinId,
    /// Sink pins (order is not significant).
    pub sinks: Vec<PinId>,
    pub(crate) alive: bool,
}

impl Net {
    /// `true` until the net is removed.
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

/// A mutable gate-level netlist.
///
/// See the [crate-level documentation](crate) for a construction example.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    pins: Vec<Pin>,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    // Pin ids grow as pins are pushed, so both port lists are sorted, and
    // each name sits at its port's index.
    input_ports: Vec<PinId>,
    input_names: Vec<String>,
    output_ports: Vec<PinId>,
    output_names: Vec<String>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Self::default() }
    }

    // ---- entity accessors -------------------------------------------------

    /// Returns the pin with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Returns the cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Returns the net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The name of pin `id`: a port's own name, or `{cell}/i{k}` for a
    /// cell's `k`-th input and `{cell}/o` for its output.
    ///
    /// Only port names are stored; a cell pin's name is formatted on each
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pin_name(&self, id: PinId) -> Cow<'_, str> {
        let pin = &self.pins[id.index()];
        if let Some(cell) = pin.cell {
            let cell = &self.cells[cell.index()];
            return match cell.inputs.iter().position(|&p| p == id) {
                Some(k) => Cow::Owned(format!("{}/i{k}", cell.name)),
                None => Cow::Owned(format!("{}/o", cell.name)),
            };
        }
        let (ports, names) = match pin.port {
            Some(PortKind::Input) => (&self.input_ports, &self.input_names),
            _ => (&self.output_ports, &self.output_names),
        };
        Cow::Borrowed(ports.binary_search(&id).map_or("", |i| names[i].as_str()))
    }

    /// Total pin slots, including tombstoned pins.
    pub fn pin_capacity(&self) -> usize {
        self.pins.len()
    }

    /// Total cell slots, including tombstoned cells.
    pub fn cell_capacity(&self) -> usize {
        self.cells.len()
    }

    /// Total net slots, including tombstoned nets.
    pub fn net_capacity(&self) -> usize {
        self.nets.len()
    }

    /// Iterates over live pins as `(id, pin)`.
    pub fn pins(&self) -> impl Iterator<Item = (PinId, &Pin)> {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.alive)
            .map(|(i, p)| (PinId::from_index(i), p))
    }

    /// Iterates over live cells as `(id, cell)`.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive)
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// Iterates over live nets as `(id, net)`.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| (NetId::from_index(i), n))
    }

    /// Number of live pins.
    pub fn num_pins(&self) -> usize {
        self.pins.iter().filter(|p| p.alive).count()
    }

    /// Number of live cells.
    pub fn num_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.alive).count()
    }

    /// Number of live nets.
    pub fn num_nets(&self) -> usize {
        self.nets.iter().filter(|n| n.alive).count()
    }

    /// Primary input ports.
    pub fn input_ports(&self) -> &[PinId] {
        &self.input_ports
    }

    /// Primary output ports.
    pub fn output_ports(&self) -> &[PinId] {
        &self.output_ports
    }

    // ---- construction -----------------------------------------------------

    fn push_pin(&mut self, pin: Pin) -> PinId {
        let id = PinId::from_index(self.pins.len());
        self.pins.push(pin);
        id
    }

    /// Adds a primary input port and returns its pin id.
    pub fn add_input_port(&mut self, name: impl Into<String>) -> PinId {
        let id = self.push_pin(Pin {
            dir: PinDir::Drive,
            cell: None,
            net: None,
            port: Some(PortKind::Input),
            alive: true,
        });
        self.input_ports.push(id);
        self.input_names.push(name.into());
        id
    }

    /// Adds a primary output port and returns its pin id.
    pub fn add_output_port(&mut self, name: impl Into<String>) -> PinId {
        let id = self.push_pin(Pin {
            dir: PinDir::Sink,
            cell: None,
            net: None,
            port: Some(PortKind::Output),
            alive: true,
        });
        self.output_ports.push(id);
        self.output_names.push(name.into());
        id
    }

    /// Adds a cell instance of `type_id`, creating its pins.
    ///
    /// Returns the cell id and the output pin id (inputs are reachable via
    /// [`Cell::inputs`]).
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        type_id: CellTypeId,
        library: &CellLibrary,
    ) -> (CellId, PinId) {
        let cell_id = CellId::from_index(self.cells.len());
        let pin = |dir| Pin { dir, cell: Some(cell_id), net: None, port: None, alive: true };
        let num_inputs = library.cell_type(type_id).num_inputs();
        let inputs = (0..num_inputs).map(|_| self.push_pin(pin(PinDir::Sink))).collect();
        let output = self.push_pin(pin(PinDir::Drive));
        self.cells.push(Cell { name: name.into(), type_id, inputs, output, alive: true });
        (cell_id, output)
    }

    /// Creates a net from `driver` to `sinks`.
    ///
    /// # Errors
    ///
    /// Returns an error if the driver already drives a net, a sink is already
    /// connected or listed twice, a pin direction is wrong, or `sinks` is
    /// empty. On error the netlist is unchanged.
    pub fn connect_net(
        &mut self,
        name: impl Into<String>,
        driver: PinId,
        sinks: &[PinId],
    ) -> Result<NetId, NetlistError> {
        self.connect(name.into(), driver, sinks.to_vec())
    }

    /// [`Netlist::connect_net`], taking ownership of the sink list.
    pub(crate) fn connect(
        &mut self,
        name: String,
        driver: PinId,
        sinks: Vec<PinId>,
    ) -> Result<NetId, NetlistError> {
        let net_id = NetId::from_index(self.nets.len());
        if sinks.is_empty() {
            return Err(NetlistError::EmptyNet(net_id));
        }
        {
            let d = self.pin(driver);
            if d.dir != PinDir::Drive {
                return Err(NetlistError::DirectionMismatch(driver));
            }
            if d.net.is_some() {
                return Err(NetlistError::DriverAlreadyConnected(driver));
            }
        }
        for &s in &sinks {
            let p = self.pin(s);
            if p.dir != PinDir::Sink {
                return Err(NetlistError::DirectionMismatch(s));
            }
            if p.net.is_some() {
                return Err(NetlistError::SinkAlreadyConnected(s));
            }
        }
        // Every sink was unconnected, so one found connected here is listed
        // twice: undo this loop's connections and reject the net.
        for (k, &s) in sinks.iter().enumerate() {
            if self.pins[s.index()].net.is_some() {
                for &done in &sinks[..k] {
                    self.pins[done.index()].net = None;
                }
                return Err(NetlistError::DuplicateSink(s));
            }
            self.pins[s.index()].net = Some(net_id);
        }
        self.pins[driver.index()].net = Some(net_id);
        self.nets.push(Net { name, driver, sinks, alive: true });
        Ok(net_id)
    }

    // ---- mutation (used by the timing optimizer) ---------------------------

    /// Detaches `sink` from `net`.
    ///
    /// # Errors
    ///
    /// Returns an error if `sink` is not a sink of `net` or the net is dead.
    pub fn disconnect_sink(&mut self, net: NetId, sink: PinId) -> Result<(), NetlistError> {
        if !self.nets[net.index()].alive {
            return Err(NetlistError::Dead("net", net.0));
        }
        let n = &mut self.nets[net.index()];
        let before = n.sinks.len();
        n.sinks.retain(|&p| p != sink);
        if n.sinks.len() == before {
            return Err(NetlistError::DirectionMismatch(sink));
        }
        self.pins[sink.index()].net = None;
        Ok(())
    }

    /// Attaches `sink` to an existing `net`.
    ///
    /// # Errors
    ///
    /// Returns an error if the sink is already connected, has the wrong
    /// direction, or the net is dead.
    pub fn add_sink(&mut self, net: NetId, sink: PinId) -> Result<(), NetlistError> {
        if !self.nets[net.index()].alive {
            return Err(NetlistError::Dead("net", net.0));
        }
        let p = self.pin(sink);
        if p.dir != PinDir::Sink {
            return Err(NetlistError::DirectionMismatch(sink));
        }
        if p.net.is_some() {
            return Err(NetlistError::SinkAlreadyConnected(sink));
        }
        self.pins[sink.index()].net = Some(net);
        self.nets[net.index()].sinks.push(sink);
        Ok(())
    }

    /// Removes a net, detaching its driver and all sinks.
    ///
    /// # Errors
    ///
    /// Returns an error if the net is already dead.
    pub fn remove_net(&mut self, net: NetId) -> Result<(), NetlistError> {
        if !self.nets[net.index()].alive {
            return Err(NetlistError::Dead("net", net.0));
        }
        let (driver, sinks) = {
            let n = &self.nets[net.index()];
            (n.driver, n.sinks.clone())
        };
        self.pins[driver.index()].net = None;
        for s in sinks {
            self.pins[s.index()].net = None;
        }
        self.nets[net.index()].alive = false;
        Ok(())
    }

    /// Removes a cell and tombstones its pins.
    ///
    /// All of the cell's pins must be disconnected first.
    ///
    /// # Errors
    ///
    /// Returns an error if the cell is dead or any pin is still connected.
    pub fn remove_cell(&mut self, cell: CellId) -> Result<(), NetlistError> {
        if !self.cells[cell.index()].alive {
            return Err(NetlistError::Dead("cell", cell.0));
        }
        let pins: Vec<PinId> = {
            let c = &self.cells[cell.index()];
            c.inputs.iter().copied().chain(std::iter::once(c.output)).collect()
        };
        for &p in &pins {
            if self.pins[p.index()].net.is_some() {
                return Err(NetlistError::SinkAlreadyConnected(p));
            }
        }
        for p in pins {
            self.pins[p.index()].alive = false;
        }
        self.cells[cell.index()].alive = false;
        Ok(())
    }

    /// Changes the master of `cell` to another drive strength of the *same*
    /// gate function (the structure-preserved "gate sizing" transform).
    ///
    /// # Errors
    ///
    /// Returns an error if the new type implements a different function or
    /// the cell is dead.
    pub fn resize_cell(
        &mut self,
        cell: CellId,
        new_type: CellTypeId,
        library: &CellLibrary,
    ) -> Result<(), NetlistError> {
        if !self.cells[cell.index()].alive {
            return Err(NetlistError::Dead("cell", cell.0));
        }
        let old = library.cell_type(self.cells[cell.index()].type_id);
        let new = library.cell_type(new_type);
        if old.gate != new.gate {
            return Err(NetlistError::ResizeChangesFunction(cell));
        }
        self.cells[cell.index()].type_id = new_type;
        Ok(())
    }

    // ---- validation ---------------------------------------------------------

    /// Checks structural invariants: live nets have live, correctly-directed,
    /// back-referencing pins; live cell pins reference their cell.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (nid, n) in self.nets() {
            if n.sinks.is_empty() {
                return Err(NetlistError::EmptyNet(nid));
            }
            let d = self.pin(n.driver);
            if !d.alive {
                return Err(NetlistError::Dead("pin", n.driver.0));
            }
            if d.dir != PinDir::Drive || d.net != Some(nid) {
                return Err(NetlistError::DirectionMismatch(n.driver));
            }
            for &s in &n.sinks {
                let p = self.pin(s);
                if !p.alive {
                    return Err(NetlistError::Dead("pin", s.0));
                }
                if p.dir != PinDir::Sink || p.net != Some(nid) {
                    return Err(NetlistError::DirectionMismatch(s));
                }
            }
        }
        for (cid, c) in self.cells() {
            for &p in c.inputs.iter().chain(std::iter::once(&c.output)) {
                let pin = self.pin(p);
                if !pin.alive {
                    return Err(NetlistError::Dead("pin", p.0));
                }
                if pin.cell != Some(cid) {
                    return Err(NetlistError::DirectionMismatch(p));
                }
            }
        }
        Ok(())
    }

    /// Sum of live cell areas in µm², using `library` masters.
    pub fn total_cell_area(&self, library: &CellLibrary) -> f64 {
        self.cells().map(|(_, c)| f64::from(library.cell_type(c.type_id).area_um2)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateFn;

    fn tiny() -> (CellLibrary, Netlist, CellId, PinId, NetId) {
        let lib = CellLibrary::asap7_like();
        let mut nl = Netlist::new("t");
        let a = nl.add_input_port("a");
        let b = nl.add_input_port("b");
        let t = lib.pick(GateFn::And2, 1).unwrap();
        let (c, co) = nl.add_cell("u0", t, &lib);
        let i0 = nl.cell(c).inputs[0];
        let i1 = nl.cell(c).inputs[1];
        nl.connect_net("na", a, &[i0]).unwrap();
        nl.connect_net("nb", b, &[i1]).unwrap();
        let y = nl.add_output_port("y");
        let ny = nl.connect_net("ny", co, &[y]).unwrap();
        (lib, nl, c, co, ny)
    }

    #[test]
    fn build_and_validate() {
        let (_, nl, ..) = tiny();
        nl.validate().unwrap();
        assert_eq!(nl.num_cells(), 1);
        assert_eq!(nl.num_nets(), 3);
        assert_eq!(nl.num_pins(), 6); // 2 in ports + 1 out port + 3 cell pins
        assert_eq!(nl.input_ports().len(), 2);
        assert_eq!(nl.output_ports().len(), 1);
    }

    #[test]
    fn double_connection_is_rejected() {
        let (lib, mut nl, c, co, _) = tiny();
        let i0 = nl.cell(c).inputs[0];
        assert_eq!(nl.connect_net("dup", co, &[i0]), Err(NetlistError::DriverAlreadyConnected(co)));
        let t = lib.pick(GateFn::Inv, 1).unwrap();
        let (_, o2) = nl.add_cell("u1", t, &lib);
        assert_eq!(nl.connect_net("dup2", o2, &[i0]), Err(NetlistError::SinkAlreadyConnected(i0)));
    }

    #[test]
    fn a_sink_listed_twice_is_rejected_and_nothing_connects() {
        let (lib, mut nl, ..) = tiny();
        let t = lib.pick(GateFn::And2, 1).unwrap();
        let (c, o) = nl.add_cell("u1", t, &lib);
        let (i0, i1) = (nl.cell(c).inputs[0], nl.cell(c).inputs[1]);
        let y2 = nl.add_output_port("y2");
        let x = nl.add_input_port("x");
        assert_eq!(nl.connect_net("nx", x, &[i0, i1, i0]), Err(NetlistError::DuplicateSink(i0)));
        assert_eq!((nl.pin(x).net, nl.pin(i0).net, nl.pin(i1).net), (None, None, None));
        assert_eq!(nl.num_nets(), 3);
        nl.connect_net("nx", x, &[i0, i1]).unwrap();
        nl.connect_net("ny2", o, &[y2]).unwrap();
        nl.validate().unwrap();
    }

    #[test]
    fn pin_names_derive_from_cells_and_ports() {
        let (lib, mut nl, c, co, _) = tiny();
        assert_eq!(nl.pin_name(nl.cell(c).inputs[1]), "u0/i1");
        assert_eq!(nl.pin_name(co), "u0/o");
        assert_eq!(nl.pin_name(nl.input_ports()[1]), "b");
        assert_eq!(nl.pin_name(nl.output_ports()[0]), "y");
        // A port added after cells keeps its name.
        let t = lib.pick(GateFn::Inv, 1).unwrap();
        let (_, o) = nl.add_cell("u9", t, &lib);
        let late = nl.add_input_port("late");
        assert_eq!((nl.pin_name(o).as_ref(), nl.pin_name(late).as_ref()), ("u9/o", "late"));
    }

    #[test]
    fn direction_is_enforced() {
        let (lib, mut nl, c, _, _) = tiny();
        let i0 = nl.cell(c).inputs[0];
        let t = lib.pick(GateFn::Inv, 1).unwrap();
        let (c2, o2) = nl.add_cell("u1", t, &lib);
        let i2 = nl.cell(c2).inputs[0];
        // input pin used as driver
        assert_eq!(nl.connect_net("bad", i0, &[i2]), Err(NetlistError::DirectionMismatch(i0)));
        // output pin used as sink
        assert!(matches!(
            nl.connect_net("bad2", o2, &[o2]),
            Err(NetlistError::DirectionMismatch(_))
        ));
    }

    #[test]
    fn empty_net_is_rejected() {
        let (_, mut nl, _, co, ny) = tiny();
        nl.remove_net(ny).unwrap();
        assert!(matches!(nl.connect_net("e", co, &[]), Err(NetlistError::EmptyNet(_))));
    }

    #[test]
    fn remove_net_detaches_pins() {
        let (_, mut nl, _, co, ny) = tiny();
        nl.remove_net(ny).unwrap();
        assert_eq!(nl.pin(co).net, None);
        assert!(!nl.net(ny).is_alive());
        assert_eq!(nl.remove_net(ny), Err(NetlistError::Dead("net", ny.0)));
        nl.validate().unwrap();
    }

    #[test]
    fn remove_cell_requires_disconnection_and_tombstones_pins() {
        let (_, mut nl, c, co, ny) = tiny();
        assert!(nl.remove_cell(c).is_err()); // still connected
                                             // Disconnect everything touching the cell.
        let i0 = nl.cell(c).inputs[0];
        let i1 = nl.cell(c).inputs[1];
        let n0 = nl.pin(i0).net.unwrap();
        let n1 = nl.pin(i1).net.unwrap();
        nl.remove_net(n0).unwrap();
        nl.remove_net(n1).unwrap();
        nl.remove_net(ny).unwrap();
        nl.remove_cell(c).unwrap();
        assert!(!nl.cell(c).is_alive());
        assert!(!nl.pin(co).is_alive());
        assert_eq!(nl.num_cells(), 0);
        nl.validate().unwrap();
    }

    #[test]
    fn resize_keeps_function() {
        let (lib, mut nl, c, _, _) = tiny();
        let and2_x4 = lib.pick(GateFn::And2, 4).unwrap();
        nl.resize_cell(c, and2_x4, &lib).unwrap();
        assert_eq!(nl.cell(c).type_id, and2_x4);
        let inv = lib.pick(GateFn::Inv, 1).unwrap();
        assert_eq!(nl.resize_cell(c, inv, &lib), Err(NetlistError::ResizeChangesFunction(c)));
    }

    #[test]
    fn disconnect_then_add_sink_rewires() {
        let (lib, mut nl, c, _, _) = tiny();
        let i1 = nl.cell(c).inputs[1];
        // New buffer driven by port a's net... simpler: new net from a fresh port.
        let p = nl.add_input_port("x");
        let t = lib.pick(GateFn::Buf, 1).unwrap();
        let (bc, bo) = nl.add_cell("ub", t, &lib);
        let bi = nl.cell(bc).inputs[0];
        nl.connect_net("nx", p, &[bi]).unwrap();
        let dummy = nl.add_output_port("d");
        let nb = nl.connect_net("nbuf", bo, &[dummy]).unwrap();
        let old_net = nl.pin(i1).net.unwrap();
        nl.disconnect_sink(old_net, i1).unwrap();
        nl.add_sink(nb, i1).unwrap();
        assert_eq!(nl.pin(i1).net, Some(nb));
        assert_eq!(nl.net(nb).sinks.len(), 2);
        // The vacated net is now empty; validation flags it until removed.
        assert_eq!(nl.validate(), Err(NetlistError::EmptyNet(old_net)));
        nl.remove_net(old_net).unwrap();
        nl.validate().unwrap();
    }

    #[test]
    fn ids_stay_stable_after_removal() {
        let (_, mut nl, c, co, ny) = tiny();
        let name_before = nl.cell(c).name.clone();
        nl.remove_net(ny).unwrap();
        // Cell id still resolves to the same instance.
        assert_eq!(nl.cell(c).name, name_before);
        assert_eq!(nl.pin(co).cell, Some(c));
    }

    #[test]
    fn area_scales_with_resize() {
        let (lib, mut nl, c, _, _) = tiny();
        let a1 = nl.total_cell_area(&lib);
        nl.resize_cell(c, lib.pick(GateFn::And2, 8).unwrap(), &lib).unwrap();
        assert!(nl.total_cell_area(&lib) > a1);
    }
}
