//! Plain-text placement interchange (a DEF-like subset).
//!
//! Format, one record per line:
//!
//! ```text
//! DIE <x0> <y0> <x1> <y1>
//! MACRO <x0> <y0> <x1> <y1>
//! CELL <instance-name> <x> <y>
//! PORT <port-name> <x> <y>
//! ```
//!
//! Together with the structural-Verilog writer in `rtt-netlist`, this lets
//! a placed design leave and re-enter the flow as text.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use rtt_netlist::Netlist;

use crate::{Floorplan, Placement, Point, Rect};

/// Errors raised while parsing a placement file.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PlacementIoError {
    /// A line did not match `KEYWORD fields...`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The file had no `DIE` record.
    MissingDie,
    /// A `CELL` record named an instance not present in the netlist.
    UnknownCell(String),
    /// A `PORT` record named a port not present in the netlist.
    UnknownPort(String),
    /// A live cell of the netlist had no `CELL` record.
    UnplacedCell(String),
}

impl fmt::Display for PlacementIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Malformed { line, message } => {
                write!(f, "malformed placement on line {line}: {message}")
            }
            Self::MissingDie => write!(f, "placement file has no DIE record"),
            Self::UnknownCell(n) => write!(f, "placement names unknown cell `{n}`"),
            Self::UnknownPort(n) => write!(f, "placement names unknown port `{n}`"),
            Self::UnplacedCell(n) => write!(f, "netlist cell `{n}` has no placement"),
        }
    }
}

impl Error for PlacementIoError {}

/// Serializes a placement against its netlist.
pub fn write_placement(netlist: &Netlist, placement: &Placement) -> String {
    let mut out = String::new();
    let die = placement.floorplan().die;
    out.push_str(&format!("DIE {} {} {} {}\n", die.x0, die.y0, die.x1, die.y1));
    for m in &placement.floorplan().macros {
        out.push_str(&format!("MACRO {} {} {} {}\n", m.x0, m.y0, m.x1, m.y1));
    }
    for (cid, cell) in netlist.cells() {
        let p = placement.cell_pos(cid);
        out.push_str(&format!("CELL {} {} {}\n", cell.name, p.x, p.y));
    }
    for &pid in netlist.input_ports().iter().chain(netlist.output_ports()) {
        if netlist.pin(pid).is_alive() {
            let p = placement.pin_position(netlist, pid);
            out.push_str(&format!("PORT {} {} {}\n", netlist.pin(pid).name, p.x, p.y));
        }
    }
    out
}

/// Parses a placement file against `netlist`.
///
/// # Errors
///
/// Returns a [`PlacementIoError`] if records are malformed, reference
/// unknown entities, or any live cell is left unplaced.
pub fn parse_placement(netlist: &Netlist, text: &str) -> Result<Placement, PlacementIoError> {
    let mut die: Option<Rect> = None;
    let mut macros = Vec::new();
    let mut cell_pos: HashMap<&str, Point> = HashMap::new();
    let mut port_pos: HashMap<&str, Point> = HashMap::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        // The line was trimmed and checked non-empty, so a first field
        // always exists; stay fallible anyway — this runs on the serving
        // path (R003).
        let Some(kind) = fields.next() else { continue };
        let rest: Vec<&str> = fields.collect();
        let malformed = |message: String| PlacementIoError::Malformed { line: line_no, message };
        let num = |s: &str| -> Result<f32, PlacementIoError> {
            match s.parse::<f32>() {
                Ok(v) if v.is_finite() => Ok(v),
                _ => Err(malformed(format!("expected a finite number, got `{s}`"))),
            }
        };
        match kind {
            "DIE" | "MACRO" => {
                if rest.len() != 4 {
                    return Err(malformed(format!("{kind} needs 4 coordinates")));
                }
                let r = Rect::new(num(rest[0])?, num(rest[1])?, num(rest[2])?, num(rest[3])?);
                if kind == "DIE" {
                    if !(r.width() > 0.0 && r.height() > 0.0) {
                        return Err(malformed("DIE has zero width or height".into()));
                    }
                    die = Some(r);
                } else {
                    macros.push(r);
                }
            }
            "CELL" | "PORT" => {
                if rest.len() != 3 {
                    return Err(malformed(format!("{kind} needs a name and 2 coordinates")));
                }
                let p = Point::new(num(rest[1])?, num(rest[2])?);
                if kind == "CELL" {
                    cell_pos.insert(rest[0], p);
                } else {
                    port_pos.insert(rest[0], p);
                }
            }
            other => return Err(malformed(format!("unknown record `{other}`"))),
        }
    }

    let die = die.ok_or(PlacementIoError::MissingDie)?;
    let mut placement = Placement::empty(Floorplan { die, macros }, netlist);
    // Reject names that match nothing in the netlist.
    let known_cells: HashMap<&str, rtt_netlist::CellId> =
        netlist.cells().map(|(id, c)| (c.name.as_str(), id)).collect();
    for (&name, &p) in &cell_pos {
        let id = known_cells
            .get(name)
            .copied()
            .ok_or_else(|| PlacementIoError::UnknownCell(name.to_owned()))?;
        placement.place_cell(id, p);
    }
    for (&name, &p) in &port_pos {
        let pid = netlist
            .input_ports()
            .iter()
            .chain(netlist.output_ports())
            .copied()
            .find(|&pid| netlist.pin(pid).name == name)
            .ok_or_else(|| PlacementIoError::UnknownPort(name.to_owned()))?;
        placement.place_port(pid, p);
    }
    // Completeness: every live cell must be placed.
    for (_, cell) in netlist.cells() {
        if !cell_pos.contains_key(cell.name.as_str()) {
            return Err(PlacementIoError::UnplacedCell(cell.name.clone()));
        }
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{place, PlaceConfig};
    use rtt_circgen::ripple_carry_adder;
    use rtt_netlist::CellLibrary;

    fn world() -> (CellLibrary, Netlist, Placement) {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(4, &lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        (lib, nl, pl)
    }

    #[test]
    fn roundtrip_preserves_positions() {
        let (_, nl, pl) = world();
        let text = write_placement(&nl, &pl);
        let back = parse_placement(&nl, &text).unwrap();
        for (cid, _) in nl.cells() {
            let a = pl.cell_pos(cid);
            let b = back.cell_pos(cid);
            assert!((a.x - b.x).abs() < 1e-4 && (a.y - b.y).abs() < 1e-4);
        }
        for &pid in nl.input_ports() {
            let a = pl.pin_position(&nl, pid);
            let b = back.pin_position(&nl, pid);
            assert!((a.x - b.x).abs() < 1e-4 && (a.y - b.y).abs() < 1e-4);
        }
        assert_eq!(back.floorplan().die, pl.floorplan().die);
    }

    #[test]
    fn rejects_unknown_names() {
        let (_, nl, pl) = world();
        let mut text = write_placement(&nl, &pl);
        text.push_str("CELL ghost 1 1\n");
        assert!(matches!(parse_placement(&nl, &text), Err(PlacementIoError::UnknownCell(_))));
    }

    #[test]
    fn rejects_missing_die_and_incomplete_placement() {
        let (_, nl, pl) = world();
        let text = write_placement(&nl, &pl);
        let without_die: String =
            text.lines().filter(|l| !l.starts_with("DIE")).collect::<Vec<_>>().join("\n");
        assert!(matches!(parse_placement(&nl, &without_die), Err(PlacementIoError::MissingDie)));

        let first_cell_dropped: String = {
            let mut dropped = false;
            text.lines()
                .filter(|l| {
                    if !dropped && l.starts_with("CELL") {
                        dropped = true;
                        false
                    } else {
                        true
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert!(matches!(
            parse_placement(&nl, &first_cell_dropped),
            Err(PlacementIoError::UnplacedCell(_))
        ));
    }

    #[test]
    fn malformed_lines_report_position() {
        let (_, nl, _) = world();
        match parse_placement(&nl, "DIE 0 0 10\n") {
            Err(PlacementIoError::Malformed { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected malformed, got {other:?}"),
        }
        match parse_placement(&nl, "DIE 0 0 10 10\nBOGUS 1\n") {
            Err(PlacementIoError::Malformed { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_and_non_finite_dies_are_malformed() {
        let (_, nl, pl) = world();
        let text = write_placement(&nl, &pl);
        let body = text.lines().filter(|l| !l.starts_with("DIE")).collect::<Vec<_>>().join("\n");
        for die in ["DIE 0 0 0 50", "DIE 0 0 NaN 50", "DIE 0 0 50 inf", "DIE 5 20 90 20"] {
            let text = format!("# header\n{die}\n{body}");
            match parse_placement(&nl, &text) {
                Err(PlacementIoError::Malformed { line, .. }) => assert_eq!(line, 2, "{die}"),
                other => panic!("{die}: expected malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let (_, nl, pl) = world();
        let mut text = String::from("# placement file\n\n");
        text.push_str(&write_placement(&nl, &pl));
        assert!(parse_placement(&nl, &text).is_ok());
    }
}
