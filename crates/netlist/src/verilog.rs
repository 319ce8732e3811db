//! Structural-Verilog import/export.
//!
//! Writes a netlist as a flat gate-level Verilog module (one instance per
//! cell, named nets) and parses the same subset back. This is the
//! interchange format a real adopter would use to bring their own designs
//! into the flow; the emitted text round-trips losslessly through
//! [`parse_verilog`].
//!
//! Supported subset: one `module` with `input`/`output` port declarations,
//! `wire` declarations, and named-port instantiations of library cells
//! (`AND2_X1 u0 (.i0(a), .i1(b), .o(w1));`). No buses, behavioural code,
//! parameters, or escaped identifiers.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use crate::{CellLibrary, Netlist, NetlistError, PinId};

/// Errors raised while parsing structural Verilog.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerilogError {
    /// Input ended before the module was complete.
    UnexpectedEof,
    /// A token violated the supported grammar.
    Syntax {
        /// Line number (1-based).
        line: usize,
        /// Explanation.
        message: String,
    },
    /// An instance referenced a cell type missing from the library.
    UnknownCellType(String),
    /// An instance referenced a pin the cell type does not have.
    UnknownPin(String, String),
    /// A port name was declared twice.
    DuplicatePort(String),
    /// Two instances share a name.
    DuplicateInstance(String),
    /// An instance named one of its pins twice.
    DuplicatePin(String, String),
    /// A net had two drivers.
    MultipleDrivers(String),
    /// A net connected illegally.
    Netlist(NetlistError),
}

impl fmt::Display for VerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof => write!(f, "unexpected end of file"),
            Self::Syntax { line, message } => write!(f, "syntax error on line {line}: {message}"),
            Self::UnknownCellType(t) => write!(f, "unknown cell type `{t}`"),
            Self::UnknownPin(cell, pin) => write!(f, "cell `{cell}` has no pin `{pin}`"),
            Self::DuplicatePort(p) => write!(f, "port `{p}` is declared twice"),
            Self::DuplicateInstance(c) => write!(f, "instance name `{c}` is used twice"),
            Self::DuplicatePin(cell, pin) => write!(f, "cell `{cell}` connects pin `{pin}` twice"),
            Self::MultipleDrivers(n) => write!(f, "net `{n}` has more than one driver"),
            Self::Netlist(e) => write!(f, "illegal connectivity: {e}"),
        }
    }
}

impl Error for VerilogError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for VerilogError {
    fn from(e: NetlistError) -> Self {
        Self::Netlist(e)
    }
}

/// Emits `netlist` as a flat structural-Verilog module.
///
/// Nets keep their names, except that a net on a port takes the port's;
/// cell input pins are named `i0..iN-1` and the output pin `o`, matching
/// the data model. Wires and assigns follow net names, the order
/// [`parse_verilog`] numbers nets in, so parsing a written text and
/// writing it again reproduces it byte for byte.
pub fn write_verilog(netlist: &Netlist, library: &CellLibrary) -> String {
    let mut out = String::new();
    let sanitized = |s: &str| s.replace(['/', ' '], "_");

    out.push_str(&format!("module {} (", sanitized(&netlist.name)));
    let ports: Vec<String> = netlist
        .input_ports()
        .iter()
        .chain(netlist.output_ports())
        .filter(|&&p| netlist.pin(p).is_alive())
        .map(|&p| sanitized(&netlist.pin_name(p)))
        .collect();
    out.push_str(&ports.join(", "));
    out.push_str(");\n");

    for &p in netlist.input_ports() {
        if netlist.pin(p).is_alive() {
            out.push_str(&format!("  input {};\n", sanitized(&netlist.pin_name(p))));
        }
    }
    for &p in netlist.output_ports() {
        if netlist.pin(p).is_alive() {
            out.push_str(&format!("  output {};\n", sanitized(&netlist.pin_name(p))));
        }
    }

    // Each net under the name the text gives it (see `net_text`), in name
    // order, the order a parse numbers nets in: a parsed design writes
    // back byte for byte. Wires declare the nets not named after a port.
    let port_names: std::collections::HashSet<String> = ports.iter().cloned().collect();
    let mut named: Vec<_> = netlist
        .nets()
        .map(|(nid, _)| (net_text(netlist, nid, &port_names, &sanitized), nid))
        .collect();
    named.sort_unstable();
    for (text, _) in &named {
        if !port_names.contains(text) {
            out.push_str(&format!("  wire {text};\n"));
        }
    }

    // The connection text of a pin: the net name, or nothing when dangling.
    let conn = |pin: PinId| -> String {
        match netlist.pin(pin).net {
            Some(nid) => net_text(netlist, nid, &port_names, &sanitized),
            None => String::new(),
        }
    };

    // A net can feed several output ports, but only one name can appear in
    // instance connections; the remaining port aliases become assigns.
    for (canonical, nid) in &named {
        for &s in &netlist.net(*nid).sinks {
            if netlist.pin(s).cell.is_none() {
                let name = sanitized(&netlist.pin_name(s));
                if name != *canonical {
                    out.push_str(&format!("  assign {name} = {canonical};\n"));
                }
            }
        }
    }

    for (_, cell) in netlist.cells() {
        let ty = library.cell_type(cell.type_id);
        let mut pins: Vec<String> = Vec::with_capacity(cell.inputs.len() + 1);
        for (k, &i) in cell.inputs.iter().enumerate() {
            pins.push(format!(".i{k}({})", conn(i)));
        }
        pins.push(format!(".o({})", conn(cell.output)));
        out.push_str(&format!("  {} {} ({});\n", ty.name, sanitized(&cell.name), pins.join(", ")));
    }
    out.push_str("endmodule\n");
    out
}

/// For nets driven by or sinking into a port, Verilog uses the port name
/// directly; internal nets use their own name.
fn net_text(
    netlist: &Netlist,
    nid: crate::NetId,
    port_names: &std::collections::HashSet<String>,
    sanitized: &impl Fn(&str) -> String,
) -> String {
    let net = netlist.net(nid);
    let n = sanitized(&net.name);
    if port_names.contains(&n) {
        return n;
    }
    // A net whose driver is an input port, or with an output-port sink,
    // is aliased to that port name in the netlist text.
    if netlist.pin(net.driver).cell.is_none() {
        return sanitized(&netlist.pin_name(net.driver));
    }
    for &s in &net.sinks {
        if netlist.pin(s).cell.is_none() {
            return sanitized(&netlist.pin_name(s));
        }
    }
    n
}

/// Parses the structural subset produced by [`write_verilog`].
///
/// One pass over `text`: tokens are slices of it, and `//` comments are
/// skipped where they stand. Nets get their ids in name order, whatever
/// order the text declares them in.
///
/// # Errors
///
/// Returns a [`VerilogError`] describing the first problem found,
/// including a port declared twice, a repeated instance name, an instance
/// pin connected twice and a net with two drivers.
pub fn parse_verilog(text: &str, library: &CellLibrary) -> Result<Netlist, VerilogError> {
    let mut lex = Lexer { text, pos: 0 };
    lex.expect_word("module")?;
    let mut nl = Netlist::new(lex.identifier()?);
    lex.expect_byte(b'(')?;
    // Port list (names repeated in the body; just skip).
    while !lex.eat(b')') {
        lex.identifier()?;
        lex.eat(b',');
    }
    lex.expect_byte(b';')?;

    let mut nets = Nets::default();
    let mut declared_ports: HashSet<&str> = HashSet::new();
    let mut instances: HashSet<&str> = HashSet::new();
    // `assign lhs = rhs;` — lhs (an output port) becomes a sink of rhs.
    let mut aliases: Vec<(&str, &str)> = Vec::new();

    loop {
        let word = lex.identifier()?;
        match word {
            "endmodule" => break,
            "input" | "output" => {
                let name = lex.identifier()?;
                lex.expect_byte(b';')?;
                if !declared_ports.insert(name) {
                    return Err(VerilogError::DuplicatePort(name.to_owned()));
                }
                if word == "input" {
                    let p = nl.add_input_port(name);
                    nets.drive(name, p)?;
                } else {
                    let p = nl.add_output_port(name);
                    nets.get(name).sinks.push(p);
                }
            }
            "wire" => {
                let name = lex.identifier()?;
                lex.expect_byte(b';')?;
                nets.get(name);
            }
            "assign" => {
                let lhs = lex.identifier()?;
                lex.expect_byte(b'=')?;
                let rhs = lex.identifier()?;
                lex.expect_byte(b';')?;
                aliases.push((lhs, rhs));
            }
            type_name => {
                // Instance: TYPE name ( .pin(net), ... );
                let type_id = library
                    .find(type_name)
                    .ok_or_else(|| VerilogError::UnknownCellType(type_name.to_owned()))?;
                let inst = lex.identifier()?;
                lex.expect_byte(b'(')?;
                if !instances.insert(inst) {
                    return Err(VerilogError::DuplicateInstance(inst.to_owned()));
                }
                let (cell, out_pin) = nl.add_cell(inst, type_id, library);
                let num_inputs = nl.cell(cell).inputs.len();
                // Bit `k` set once input `k` is named, bit `num_inputs` for `o`.
                let mut named = 0u32;
                loop {
                    lex.expect_byte(b'.')?;
                    let pin_name = lex.identifier()?;
                    lex.expect_byte(b'(')?;
                    let net = if lex.eat(b')') {
                        None
                    } else {
                        let net = lex.identifier()?;
                        lex.expect_byte(b')')?;
                        Some(net)
                    };
                    let unknown = || VerilogError::UnknownPin(inst.to_owned(), pin_name.to_owned());
                    let slot = pin_slot(pin_name, num_inputs).ok_or_else(unknown)?;
                    if named & (1 << slot) != 0 {
                        return Err(VerilogError::DuplicatePin(
                            inst.to_owned(),
                            pin_name.to_owned(),
                        ));
                    }
                    named |= 1 << slot;
                    if let Some(net) = net {
                        if slot == num_inputs {
                            nets.drive(net, out_pin)?;
                        } else {
                            nets.get(net).sinks.push(nl.cell(cell).inputs[slot]);
                        }
                    }
                    if lex.eat(b')') {
                        break;
                    }
                    if !lex.eat(b',') {
                        let c = lex.peek_char()?;
                        return Err(lex.syntax(format!("expected `,` or `)`, got `{c}`")));
                    }
                }
                lex.expect_byte(b';')?;
            }
        }
    }

    // Resolve assigns: move the lhs port's sink onto the rhs net.
    for (lhs, rhs) in aliases {
        let Some(&l) = nets.index.get(lhs) else {
            return Err(VerilogError::Syntax {
                line: 0,
                message: format!("assign target `{lhs}` is not a declared port"),
            });
        };
        let sinks = std::mem::take(&mut nets.accs[l].sinks);
        nets.get(rhs).sinks.extend(sinks);
    }

    // Materialize nets in name order (ports may be drivers or sinks); each
    // sink list moves into the netlist.
    let mut accs = nets.accs;
    accs.sort_unstable_by_key(|acc| acc.name);
    for acc in accs {
        // An undriven or unloaded wire is ignored, like synthesis tools do.
        if let (Some(driver), false) = (acc.driver, acc.sinks.is_empty()) {
            nl.connect(acc.name.to_owned(), driver, acc.sinks)?;
        }
    }
    Ok(nl)
}

/// A net as the text builds it up.
struct NetAcc<'a> {
    name: &'a str,
    driver: Option<PinId>,
    sinks: Vec<PinId>,
}

/// The nets named so far, in first-mention order, with a name → position
/// map that is used only for lookups.
#[derive(Default)]
struct Nets<'a> {
    accs: Vec<NetAcc<'a>>,
    index: HashMap<&'a str, usize>,
}

impl<'a> Nets<'a> {
    /// The net named `name`, created empty on first mention.
    fn get(&mut self, name: &'a str) -> &mut NetAcc<'a> {
        let accs = &mut self.accs;
        let i = *self.index.entry(name).or_insert_with(|| {
            accs.push(NetAcc { name, driver: None, sinks: Vec::new() });
            accs.len() - 1
        });
        &mut accs[i]
    }

    /// Makes `pin` the driver of net `name`, which must have none yet.
    fn drive(&mut self, name: &'a str, pin: PinId) -> Result<(), VerilogError> {
        let acc = self.get(name);
        if acc.driver.replace(pin).is_some() {
            return Err(VerilogError::MultipleDrivers(name.to_owned()));
        }
        Ok(())
    }
}

/// The slot of pin `name` on a cell with `num_inputs` inputs: `k` for
/// `i{k}`, `num_inputs` for the output `o`.
fn pin_slot(name: &str, num_inputs: usize) -> Option<usize> {
    if name == "o" {
        return Some(num_inputs);
    }
    name.strip_prefix('i')?.parse().ok().filter(|&k| k < num_inputs)
}

/// Tokenizer over the caller's text: identifiers are borrowed slices, and
/// whitespace and `//` comments are skipped in place.
struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// The non-ASCII character at byte `pos`, if `keep` accepts it.
    fn wide(&self, pos: usize, keep: fn(char) -> bool) -> Option<usize> {
        self.text[pos..].chars().next().filter(|&c| keep(c)).map(char::len_utf8)
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        loop {
            match bytes.get(pos) {
                Some(b' ' | b'\t'..=b'\r') => pos += 1,
                Some(b'/') if bytes.get(pos + 1) == Some(&b'/') => {
                    pos +=
                        bytes[pos..].iter().position(|&b| b == b'\n').unwrap_or(bytes.len() - pos);
                }
                Some(b) if !b.is_ascii() => match self.wide(pos, char::is_whitespace) {
                    Some(len) => pos += len,
                    None => break,
                },
                _ => break,
            }
        }
        self.pos = pos;
    }

    fn line(&self) -> usize {
        self.text[..self.pos].lines().count().max(1)
    }

    fn syntax(&self, message: String) -> VerilogError {
        VerilogError::Syntax { line: self.line(), message }
    }

    fn peek_char(&mut self) -> Result<char, VerilogError> {
        self.skip_ws();
        self.text[self.pos..].chars().next().ok_or(VerilogError::UnexpectedEof)
    }

    /// Consumes the ASCII character `want` if it comes next.
    fn eat(&mut self, want: u8) -> bool {
        self.skip_ws();
        let hit = self.text.as_bytes().get(self.pos) == Some(&want);
        self.pos += usize::from(hit);
        hit
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), VerilogError> {
        if self.eat(want) {
            return Ok(());
        }
        let got = self.peek_char()?;
        Err(self.syntax(format!("expected `{}`, got `{got}`", char::from(want))))
    }

    fn identifier(&mut self) -> Result<&'a str, VerilogError> {
        self.skip_ws();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        loop {
            match bytes.get(self.pos) {
                Some(&b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'$' => self.pos += 1,
                Some(b) if !b.is_ascii() => match self.wide(self.pos, char::is_alphanumeric) {
                    Some(len) => self.pos += len,
                    None => break,
                },
                _ => break,
            }
        }
        if self.pos == start {
            let got = self.peek_char()?;
            return Err(self.syntax(format!("expected identifier, got `{got}`")));
        }
        Ok(&self.text[start..self.pos])
    }

    fn expect_word(&mut self, want: &str) -> Result<(), VerilogError> {
        let got = self.identifier()?;
        if got != want {
            return Err(self.syntax(format!("expected `{want}`, got `{got}`")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateFn, TimingGraph};

    fn tiny() -> (CellLibrary, Netlist) {
        let lib = CellLibrary::asap7_like();
        let mut nl = Netlist::new("top");
        let a = nl.add_input_port("a");
        let b = nl.add_input_port("b");
        let and_t = lib.pick(GateFn::And2, 1).unwrap();
        let inv_t = lib.pick(GateFn::Inv, 2).unwrap();
        let (c0, o0) = nl.add_cell("u0", and_t, &lib);
        let (c1, o1) = nl.add_cell("u1", inv_t, &lib);
        let (i0, i1) = (nl.cell(c0).inputs[0], nl.cell(c0).inputs[1]);
        let i2 = nl.cell(c1).inputs[0];
        nl.connect_net("a", a, &[i0]).unwrap();
        nl.connect_net("b", b, &[i1]).unwrap();
        nl.connect_net("w0", o0, &[i2]).unwrap();
        let y = nl.add_output_port("y");
        nl.connect_net("y", o1, &[y]).unwrap();
        (lib, nl)
    }

    #[test]
    fn writes_readable_verilog() {
        let (lib, nl) = tiny();
        let v = write_verilog(&nl, &lib);
        assert!(v.starts_with("module top (a, b, y);"));
        assert!(v.contains("input a;"));
        assert!(v.contains("output y;"));
        assert!(v.contains("AND2_X1 u0 (.i0(a), .i1(b), .o(w0));"));
        assert!(v.contains("INV_X2 u1 (.i0(w0), .o(y));"));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let (lib, nl) = tiny();
        let v = write_verilog(&nl, &lib);
        let back = parse_verilog(&v, &lib).unwrap();
        back.validate().unwrap();
        assert_eq!(back.num_cells(), nl.num_cells());
        assert_eq!(back.num_nets(), nl.num_nets());
        assert_eq!(back.input_ports().len(), 2);
        assert_eq!(back.output_ports().len(), 1);
        // Timing structure identical.
        let g1 = TimingGraph::build(&nl, &lib);
        let g2 = TimingGraph::build(&back, &lib);
        assert_eq!(g1.num_net_edges(), g2.num_net_edges());
        assert_eq!(g1.num_cell_edges(), g2.num_cell_edges());
        assert_eq!(g1.max_level(), g2.max_level());
    }

    #[test]
    fn roundtrip_generated_design() {
        // A bigger structural round-trip through a generated netlist.
        let lib = CellLibrary::asap7_like();
        let mut nl = Netlist::new("gen");
        // Build a few layers by hand to avoid a circular dev-dependency.
        let mut drivers = Vec::new();
        for i in 0..6 {
            drivers.push(nl.add_input_port(format!("p{i}")));
        }
        let nand = lib.pick(GateFn::Nand2, 1).unwrap();
        for layer in 0..4 {
            let mut next = Vec::new();
            for (k, pair) in drivers.chunks(2).enumerate() {
                if pair.len() < 2 {
                    next.push(pair[0]);
                    continue;
                }
                let (c, o) = nl.add_cell(format!("n{layer}_{k}"), nand, &lib);
                let (a, b) = (nl.cell(c).inputs[0], nl.cell(c).inputs[1]);
                nl.connect_net(format!("wa{layer}_{k}"), pair[0], &[a]).unwrap();
                nl.connect_net(format!("wb{layer}_{k}"), pair[1], &[b]).unwrap();
                next.push(o);
            }
            drivers = next;
        }
        for (i, &d) in drivers.iter().enumerate() {
            let y = nl.add_output_port(format!("q{i}"));
            nl.connect_net(format!("wo{i}"), d, &[y]).unwrap();
        }
        nl.validate().unwrap();

        let v = write_verilog(&nl, &lib);
        let back = parse_verilog(&v, &lib).unwrap();
        assert_eq!(back.num_cells(), nl.num_cells());
        assert_eq!(back.num_nets(), nl.num_nets());
    }

    #[test]
    fn parse_rejects_unknown_cells_and_pins() {
        let lib = CellLibrary::asap7_like();
        let bad_type =
            "module m (a, y);\n input a;\n output y;\n FOO_X9 u0 (.i0(a), .o(y));\nendmodule";
        assert!(matches!(parse_verilog(bad_type, &lib), Err(VerilogError::UnknownCellType(_))));
        let bad_pin =
            "module m (a, y);\n input a;\n output y;\n INV_X1 u0 (.zz(a), .o(y));\nendmodule";
        assert!(matches!(parse_verilog(bad_pin, &lib), Err(VerilogError::UnknownPin(..))));
    }

    #[test]
    fn parse_reports_syntax_errors_with_lines() {
        let lib = CellLibrary::asap7_like();
        let text = "module m (a);\n input a input;\n"; // missing `;` after `a`
        match parse_verilog(text, &lib) {
            Err(VerilogError::Syntax { line, .. }) => assert!(line >= 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
        // Truncated input reports EOF.
        assert!(matches!(
            parse_verilog("module m (a);\n input a", &lib),
            Err(VerilogError::UnexpectedEof)
        ));
    }

    #[test]
    fn comments_are_ignored() {
        let lib = CellLibrary::asap7_like();
        let text = "// header\nmodule m (a, y); // ports\n input a;\n output y;\n \
                    INV_X1 u0 (.i0(a), .o(y)); // the gate\nendmodule\n";
        let nl = parse_verilog(text, &lib).unwrap();
        assert_eq!(nl.num_cells(), 1);
    }

    #[test]
    fn multi_port_net_roundtrips_via_assign() {
        let lib = CellLibrary::asap7_like();
        let mut nl = Netlist::new("fanports");
        let a = nl.add_input_port("a");
        let inv = lib.pick(GateFn::Inv, 1).unwrap();
        let (c, o) = nl.add_cell("u0", inv, &lib);
        let i = nl.cell(c).inputs[0];
        nl.connect_net("a", a, &[i]).unwrap();
        let y0 = nl.add_output_port("y0");
        let y1 = nl.add_output_port("y1");
        let y2 = nl.add_output_port("y2");
        nl.connect_net("w", o, &[y0, y1, y2]).unwrap();

        let text = write_verilog(&nl, &lib);
        assert!(text.contains("assign"), "extra port sinks need assigns:\n{text}");
        let back = parse_verilog(&text, &lib).unwrap();
        back.validate().unwrap();
        assert_eq!(back.num_nets(), 2);
        let (_, net) = back.nets().find(|(_, n)| n.sinks.len() == 3).expect("fanout-3 net");
        assert_eq!(net.sinks.len(), 3);
    }

    #[test]
    fn dangling_instance_pin_is_allowed() {
        let lib = CellLibrary::asap7_like();
        let text = "module m (a, y);\n input a;\n output y;\n wire w;\n \
                    AND2_X1 u0 (.i0(a), .i1(), .o(y));\nendmodule";
        let nl = parse_verilog(text, &lib).unwrap();
        let (_, cell) = nl.cells().next().unwrap();
        assert!(nl.pin(cell.inputs[1]).net.is_none());
    }

    /// `body` between a two-input, one-output module header and `endmodule`.
    fn module(body: &str) -> String {
        format!("module m (a, b, y);\n input a;\n input b;\n output y;\n{body}endmodule\n")
    }

    #[test]
    fn net_ids_follow_name_order_not_text_order() {
        let lib = CellLibrary::asap7_like();
        let text = module(
            " wire zz;\n wire m1;\n INV_X1 u0 (.i0(a), .o(zz));\n \
             INV_X1 u1 (.i0(zz), .o(m1));\n AND2_X1 u2 (.i0(m1), .i1(b), .o(y));\n",
        );
        let nl = parse_verilog(&text, &lib).unwrap();
        let names: Vec<&str> = nl.nets().map(|(_, n)| n.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "m1", "y", "zz"]);
        // Sinks keep text order, and pin names derive from their cells.
        let (_, a) = nl.nets().next().unwrap();
        assert_eq!(nl.pin_name(a.sinks[0]), "u0/i0");
        assert_eq!(nl.pin_name(a.driver), "a");
    }

    #[test]
    fn a_net_with_two_drivers_is_rejected() {
        let lib = CellLibrary::asap7_like();
        let two_cells = module(" INV_X1 u0 (.i0(a), .o(y));\n INV_X1 u1 (.i0(b), .o(y));\n");
        assert_eq!(
            parse_verilog(&two_cells, &lib).unwrap_err(),
            VerilogError::MultipleDrivers("y".into())
        );
        // An input port already drives its net.
        let port_and_cell = module(" INV_X1 u0 (.i0(b), .o(a));\n BUF_X1 u1 (.i0(a), .o(y));\n");
        assert_eq!(
            parse_verilog(&port_and_cell, &lib).unwrap_err(),
            VerilogError::MultipleDrivers("a".into())
        );
    }

    #[test]
    fn a_pin_connected_twice_is_rejected() {
        let lib = CellLibrary::asap7_like();
        for body in [
            " AND2_X1 u0 (.i0(a), .i0(a), .o(y));\n",
            " AND2_X1 u0 (.i0(a), .i1(b), .o(y), .o(y));\n",
            " AND2_X1 u0 (.i1(), .i1(b), .i0(a), .o(y));\n",
        ] {
            let err = parse_verilog(&module(body), &lib).unwrap_err();
            assert!(matches!(&err, VerilogError::DuplicatePin(c, _) if c == "u0"), "{body}: {err}");
        }
    }

    #[test]
    fn a_port_declared_twice_is_rejected() {
        let lib = CellLibrary::asap7_like();
        for body in [" input a;\n", " output y;\n", " output a;\n"] {
            let text = module(&format!("{body} AND2_X1 u0 (.i0(a), .i1(b), .o(y));\n"));
            let err = parse_verilog(&text, &lib).unwrap_err();
            assert!(matches!(err, VerilogError::DuplicatePort(_)), "{body}: {err}");
        }
    }

    #[test]
    fn a_run_of_semicolons_is_a_syntax_error_on_the_first() {
        let lib = CellLibrary::asap7_like();
        let text = format!("module m();{}", ";".repeat(1 << 20));
        match parse_verilog(&text, &lib) {
            Err(VerilogError::Syntax { line: 1, message }) => {
                assert_eq!(message, "expected identifier, got `;`")
            }
            other => panic!("expected a syntax error on line 1, got {other:?}"),
        }
    }

    #[test]
    fn a_repeated_instance_name_is_rejected() {
        let lib = CellLibrary::asap7_like();
        let text =
            module(" wire w;\n INV_X1 u0 (.i0(a), .o(w));\n AND2_X1 u0 (.i0(w), .i1(b), .o(y));\n");
        assert_eq!(
            parse_verilog(&text, &lib).unwrap_err(),
            VerilogError::DuplicateInstance("u0".into())
        );
    }

    #[test]
    fn non_ascii_text_lexes_like_ascii() {
        let lib = CellLibrary::asap7_like();
        // Unicode whitespace separates tokens, and identifiers may hold
        // Unicode letters.
        let text = "module m (é, y);\u{2003}input é;\n output y; // ünïcode\n \
                    INV_X1 u0 (.i0(é),\u{a0}.o(y));\nendmodule";
        let nl = parse_verilog(text, &lib).unwrap();
        assert_eq!(nl.pin_name(nl.input_ports()[0]), "é");
        match parse_verilog("module m (a);\n input a; §\n", &lib) {
            Err(VerilogError::Syntax { line: 2, message }) => {
                assert!(message.contains('§'), "{message}")
            }
            other => panic!("expected a syntax error on line 2, got {other:?}"),
        }
    }
}
