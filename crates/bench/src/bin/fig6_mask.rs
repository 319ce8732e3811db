//! Regenerates **Fig. 6**: the endpoint-wise masking example — topological
//! levels, the longest path of an endpoint, and its critical-region mask
//! rendered as ASCII art.

use rtt_bench::Cli;
use rtt_circgen::preset;
use rtt_features::{endpoint_mask, longest_path};
use rtt_netlist::{CellLibrary, TimingGraph};
use rtt_place::{place, PlaceConfig};

fn main() {
    let cli = Cli::parse();
    let lib = CellLibrary::asap7_like();
    let params = preset("chacha", cli.scale).expect("known design");
    let design = params.generate(&lib);
    let pl = place(&design.netlist, &lib, 0, &PlaceConfig::default());
    let graph = TimingGraph::build(&design.netlist, &lib);

    // Pick the deepest endpoint — the most interesting critical region.
    let ep =
        *graph.endpoints().iter().max_by_key(|&&e| graph.level(e)).expect("design has endpoints");
    let path = longest_path(&graph, ep);
    let grid = 24;
    let mask = endpoint_mask(&design.netlist, &pl, &graph, &path, grid);

    let mut report = format!(
        "# Fig. 6 endpoint-wise masking (scale: {})\n\n\
         Endpoint `{}` at topological level {} of {}.\n\n\
         Longest path (node, level):\n\n```\n",
        cli.scale,
        design.netlist.pin_name(graph.pin_of(ep)),
        graph.level(ep),
        graph.max_level(),
    );
    for &v in &path {
        report.push_str(&format!(
            "  level {:>3}  {}\n",
            graph.level(v),
            design.netlist.pin_name(graph.pin_of(v))
        ));
    }
    report.push_str("```\n\nCritical-region mask (█ = inside R_e):\n\n```\n");
    for y in (0..grid).rev() {
        for x in 0..grid {
            report.push(if mask.at(x, y) > 0.0 { '█' } else { '·' });
        }
        report.push('\n');
    }
    report.push_str("```\n");
    cli.write_report("fig6", &report);
    cli.finish_trace();
}
