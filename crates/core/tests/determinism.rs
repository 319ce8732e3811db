//! Thread-count determinism of training.
//!
//! `TimingModel::train` draws every batch serially up front, fans the
//! per-design forward/backward passes out in parallel, and folds the
//! gradients with a fixed-order tree sum — so the loss curve (and the
//! resulting weights) must be bit-identical at any thread count.

use rtt_circgen::GenParams;
use rtt_core::{ModelConfig, PreparedDesign, TimingModel, TrainConfig};
use rtt_netlist::{CellLibrary, TimingGraph};
use rtt_nn::parallel;
use rtt_place::{place, PlaceConfig};
use rtt_route::{route, RouteConfig};
use rtt_sta::run_sta;

fn prepare_design(cells: usize, seed: u64, cfg: &ModelConfig, lib: &CellLibrary) -> PreparedDesign {
    let d = GenParams::new(format!("det{seed}"), cells, seed).generate(lib);
    let pl = place(&d.netlist, lib, 0, &PlaceConfig::default());
    let rt = route(&d.netlist, lib, &pl, &RouteConfig::default());
    let graph = TimingGraph::build(&d.netlist, lib);
    let sta = run_sta(&d.netlist, lib, &graph, &rt, 500.0);
    let targets = sta.endpoint_arrivals().iter().map(|&(_, a)| a).collect();
    PreparedDesign::prepare(&d.netlist, lib, &pl, &graph, cfg, targets)
}

#[test]
fn loss_curve_and_predictions_identical_across_thread_counts() {
    let lib = CellLibrary::asap7_like();
    let cfg = ModelConfig::tiny();
    let designs: Vec<PreparedDesign> =
        (0..3).map(|s| prepare_design(220, 40 + s, &cfg, &lib)).collect();
    let tc = TrainConfig { epochs: 5, ..TrainConfig::default() };

    parallel::set_num_threads(1);
    let mut serial_model = TimingModel::new(cfg.clone());
    let serial_log = serial_model.train(&designs, &tc);
    let serial_pred = serial_model.predict(&designs[0]);

    parallel::set_num_threads(4);
    let mut par_model = TimingModel::new(cfg.clone());
    let par_log = par_model.train(&designs, &tc);
    let par_pred = par_model.predict(&designs[0]);
    parallel::set_num_threads(1);

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&serial_log.epoch_loss),
        bits(&par_log.epoch_loss),
        "loss curves diverged across thread counts"
    );
    assert_eq!(bits(&serial_pred), bits(&par_pred), "trained weights diverged");
}
