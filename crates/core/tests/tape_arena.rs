//! Training recycles its tape memory: each design's tape arena grows in
//! the design's first epoch and never again.
//!
//! Kept as a single `#[test]`: it reads the process-global
//! `nn::tape_arena_bytes` counter, and the default harness runs the tests
//! of one binary concurrently.

use rtt_circgen::GenParams;
use rtt_core::{ModelConfig, PreparedDesign, TimingModel, TrainConfig};
use rtt_netlist::{CellLibrary, TimingGraph};
use rtt_place::{place, PlaceConfig};
use rtt_route::{route, RouteConfig};
use rtt_sta::run_sta;

fn prepare_design(cells: usize, seed: u64, cfg: &ModelConfig, lib: &CellLibrary) -> PreparedDesign {
    let d = GenParams::new(format!("arena{seed}"), cells, seed).generate(lib);
    let pl = place(&d.netlist, lib, 0, &PlaceConfig::default());
    let rt = route(&d.netlist, lib, &pl, &RouteConfig::default());
    let graph = TimingGraph::build(&d.netlist, lib);
    let sta = run_sta(&d.netlist, lib, &graph, &rt, 500.0);
    let targets = sta.endpoint_arrivals().iter().map(|&(_, a)| a).collect();
    PreparedDesign::prepare(&d.netlist, lib, &pl, &graph, cfg, targets)
}

#[test]
fn arenas_stop_growing_after_the_first_epoch() {
    let lib = CellLibrary::asap7_like();
    let cfg = ModelConfig::tiny();
    let designs: Vec<PreparedDesign> = [(220, 40), (400, 41), (90, 42)]
        .map(|(cells, s)| prepare_design(cells, s, &cfg, &lib))
        .into();
    let grown = |epochs| {
        rtt_obs::reset();
        TimingModel::new(cfg.clone())
            .train(&designs, &TrainConfig { epochs, ..TrainConfig::default() });
        rtt_obs::snapshot().counters.get("nn::tape_arena_bytes").copied().unwrap_or(0)
    };
    let first = grown(1);
    assert!(first > 0, "the first epoch fills the arenas");
    assert_eq!(grown(4), first, "an epoch after the first grew an arena");
}
