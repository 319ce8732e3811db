//! Fuzz and round-trip tests for the two parsers behind the daemon's
//! `/load`: structural Verilog (`rtt_netlist::parse_verilog`) and the
//! placement text (`rtt_place::parse_placement`).
//!
//! 1. **No input panics** (R003) — arbitrary bytes, soups of the formats'
//!    own tokens, and single-byte mutations of a generated design's texts
//!    always get a typed verdict, and a netlist the parser accepts passes
//!    `Netlist::validate`.
//! 2. **Round trip** — the texts written from a generated design parse
//!    and write back byte for byte.

use std::sync::OnceLock;

use proptest::collection;
use proptest::prelude::*;
use rtt_circgen::{preset, preset_names, Scale};
use rtt_netlist::{parse_verilog, write_verilog, CellLibrary, Netlist};
use rtt_place::{parse_placement, place, write_placement, PlaceConfig};

/// A generated design's Verilog and placement text.
fn texts(name: &str, lib: &CellLibrary) -> (String, String) {
    let d = preset(name, Scale::Tiny).expect("known preset").generate(lib);
    let pl = place(&d.netlist, lib, d.num_macros, &PlaceConfig::default());
    (write_verilog(&d.netlist, lib), write_placement(&d.netlist, &pl))
}

/// The smallest preset: its texts and its parsed netlist, built once.
struct Xgate {
    verilog: String,
    placement: String,
    netlist: Netlist,
}

fn xgate() -> &'static Xgate {
    static XGATE: OnceLock<Xgate> = OnceLock::new();
    XGATE.get_or_init(|| {
        let lib = CellLibrary::asap7_like();
        let (verilog, placement) = texts("xgate", &lib);
        let netlist = parse_verilog(&verilog, &lib).expect("generated verilog parses");
        Xgate { verilog, placement, netlist }
    })
}

/// Parses both texts as `/load` does. A netlist the parser accepts must
/// be valid; the placement is parsed against it if it parsed, and against
/// xgate's otherwise.
fn load(verilog: &str, placement: &str) {
    match parse_verilog(verilog, &CellLibrary::asap7_like()) {
        Ok(nl) => {
            nl.validate().expect("an accepted netlist is valid");
            let _ = parse_placement(&nl, placement);
        }
        Err(_) => drop(parse_placement(&xgate().netlist, placement)),
    }
}

/// [`load`] of `text` as both files, and of each of its prefixes: a
/// truncated upload must get a typed error too.
fn load_prefixes(text: &str) {
    for (end, _) in text.char_indices() {
        load(&text[..end], &text[..end]);
    }
    load(text, text);
}

/// `text` with its byte at `pos` replaced by `byte`, deleted, or preceded
/// by `byte` (`op` 0, 1, 2); bytes that stop being UTF-8 decode lossily.
fn mutate(text: &str, pos: usize, byte: u8, op: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = pos % bytes.len().max(1);
    match op {
        0 if at < bytes.len() => bytes[at] = byte,
        1 if at < bytes.len() => drop(bytes.remove(at)),
        _ => bytes.insert(at, byte),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Tokens of both formats, split at whitespace; the soup adds a no-break
/// space, which is whitespace too.
const TOKENS: &str = "module endmodule input output wire assign m a y w u0 u1 INV_X1 AND2_X1 \
                      DFF_X1 ( ) ; , . = i0 i1 i9 o // DIE MACRO CELL PORT 0 1.5 -3 NaN inf # \
                      r0 pi0 po0 g0 é";
const SEPARATORS: &[&str] = &[" ", "", "\n", "\t", "\r\n"];

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(0u32..256, 0..512)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        load_prefixes(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soups_never_panic(picks in collection::vec((0usize..64, 0usize..5), 0..96)) {
        let tokens: Vec<&str> = TOKENS.split_whitespace().chain(["\u{a0}"]).collect();
        let text: String = picks
            .iter()
            .flat_map(|&(t, s)| [tokens[t % tokens.len()], SEPARATORS[s]])
            .collect();
        load_prefixes(&text);
        // Behind a valid header, the soup reaches the statement parser.
        load_prefixes(&format!("module m (a, y);\n input a;\n{text}"));
    }

    #[test]
    fn instance_soups_never_panic(
        conns in collection::vec(((0usize..3, 0usize..3), (0usize..8, 0usize..4), 0usize..3), 1..24),
    ) {
        // Instances of real cell types, wired pin by pin: unknown and
        // repeated pins, repeated names and second drivers all come up.
        let (types, insts) = (["INV_X1", "AND2_X1", "AOI22_X1"], ["u0", "u1", "u2"]);
        let pins = ["i0", "i1", "i3", "i4", "i9", "o", "x", "i01"];
        let nets = ["a", "y", "w", ""];
        let mut text = String::from("module m (a, y);\n input a;\n output y;\n wire w;\n");
        for (k, &((t, i), (p, n), next)) in conns.iter().enumerate() {
            if k == 0 || next == 0 {
                let close = if k == 0 { "" } else { ");\n" };
                text.push_str(&format!("{close} {} {} (", types[t], insts[i]));
            } else {
                text.push_str(", ");
            }
            text.push_str(&format!(".{}({})", pins[p], nets[n]));
        }
        text.push_str(");\nendmodule\n");
        load(&text, &xgate().placement);
    }

    #[test]
    fn single_byte_mutations_never_panic(
        edits in collection::vec((0usize..1 << 16, 0u32..256, 0usize..3), 1..8),
    ) {
        let x = xgate();
        for &(pos, byte, op) in &edits {
            load(&mutate(&x.verilog, pos, byte as u8, op), &x.placement);
            load(&x.verilog, &mutate(&x.placement, pos, byte as u8, op));
        }
    }
}

#[test]
fn truncated_texts_get_typed_errors() {
    let x = xgate();
    for (end, _) in x.verilog.char_indices() {
        let cut = &x.verilog[..end];
        let parsed = parse_verilog(cut, &CellLibrary::asap7_like());
        assert_eq!(parsed.is_ok(), cut.contains("endmodule"), "cut at byte {end}");
    }
    // A placement cut at a line end may still place every cell.
    for (end, _) in x.placement.char_indices() {
        let _ = parse_placement(&x.netlist, &x.placement[..end]);
    }
}

/// For every preset: the texts written from a generated design parse and
/// write back byte for byte.
#[test]
fn presets_write_parse_write_byte_for_byte() {
    let lib = CellLibrary::asap7_like();
    for name in preset_names() {
        let (verilog, placement) = texts(name, &lib);
        let nl = parse_verilog(&verilog, &lib).expect("generated verilog parses");
        let pl = parse_placement(&nl, &placement).expect("generated placement parses");
        assert_eq!(write_verilog(&nl, &lib), verilog, "{name}: verilog text");
        assert_eq!(write_placement(&nl, &pl), placement, "{name}: placement text");
    }
}
