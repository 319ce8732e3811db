//! The two-flow dataset generator (paper Section VI-A, simulated).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rtt_circgen::{all_presets, GenParams, Scale, TRAIN_DESIGNS};
use rtt_netlist::{CellLibrary, TimingGraph};
use rtt_nn::parallel::par_map;
use rtt_opt::{diff_netlists, optimize};
use rtt_place::{place, PlaceConfig};
use rtt_route::{route, RouteConfig};
use rtt_sta::run_sta;

use crate::{DesignData, FlowTimings};

/// Clock period as a fraction of the unoptimized critical path (lower →
/// more violations → more aggressive restructuring).
const PERIOD_FRACTION: f32 = 0.6;

/// Utilization range sampled per design; varying density is what gives
/// designs different optimizer headroom (the CNN's signal).
const UTILIZATION: (f32, f32) = (0.40, 0.72);

/// Master seed, mixed with each design's generator seed.
const FLOW_SEED: u64 = 0xF10;

/// Configuration of the dataset-generation flow.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowConfig {
    /// Design scale.
    pub scale: Scale,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self { scale: Scale::Small }
    }
}

/// Runs both flows for one design.
pub fn run_design_flow(params: &GenParams, library: &CellLibrary) -> DesignData {
    // Root span: design flows fan out across worker threads; detaching from
    // the ambient span stack keeps the recorded tree thread-count-invariant.
    let _flow = rtt_obs::root_span("flow::design_flow");
    let mut rng = StdRng::seed_from_u64(FLOW_SEED ^ params.seed);
    let generated = params.generate(library);
    let input_netlist = generated.netlist;

    let utilization = rng.gen_range(UTILIZATION.0..UTILIZATION.1);
    let place_cfg = PlaceConfig { utilization, seed: rng.gen(), ..PlaceConfig::default() };
    let input_placement = place(&input_netlist, library, generated.num_macros, &place_cfg);
    let input_graph = TimingGraph::build(&input_netlist, library);
    let route_cfg = RouteConfig::default();

    // Flow A: no optimization (Table I reference, and the source of the
    // clock period).
    let rt_a = route(&input_netlist, library, &input_placement, &route_cfg);
    let sta_probe = run_sta(&input_netlist, library, &input_graph, &rt_a, 1.0);
    let clock_period_ps = sta_probe.max_arrival() * PERIOD_FRACTION;
    let no_opt = run_sta(&input_netlist, library, &input_graph, &rt_a, clock_period_ps);

    // Flow B: optimize → route → sign-off STA, timed per stage.
    let mut opt_netlist = input_netlist.clone();
    let mut opt_placement = input_placement.clone();
    // rtt-lint: allow(D002, reason = "stage wall-clock is the measured quantity (Table III)")
    let t0 = Instant::now();
    let opt_report = optimize(&mut opt_netlist, &mut opt_placement, library, clock_period_ps);
    let opt_s = t0.elapsed().as_secs_f64();

    // rtt-lint: allow(D002, reason = "stage wall-clock is the measured quantity (Table III)")
    let t1 = Instant::now();
    let rt_b = route(&opt_netlist, library, &opt_placement, &route_cfg);
    let route_s = t1.elapsed().as_secs_f64();

    let opt_graph = TimingGraph::build(&opt_netlist, library);
    // rtt-lint: allow(D002, reason = "stage wall-clock is the measured quantity (Table III)")
    let t2 = Instant::now();
    let signoff = run_sta(&opt_netlist, library, &opt_graph, &rt_b, clock_period_ps);
    let sta_s = t2.elapsed().as_secs_f64();

    let diff = diff_netlists(&input_netlist, &opt_netlist, library);

    DesignData {
        name: params.name.clone(),
        input_netlist,
        input_placement,
        input_graph,
        opt_netlist,
        opt_placement,
        diff,
        opt_report,
        signoff,
        no_opt,
        clock_period_ps,
        timings: FlowTimings { opt_s, route_s, sta_s },
    }
}

/// The full ten-design dataset with the paper's train/test split.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The shared cell library.
    pub library: CellLibrary,
    /// All designs, train designs first (paper order).
    pub designs: Vec<DesignData>,
}

impl Dataset {
    /// Generates all ten designs at the configured scale.
    ///
    /// Designs run in parallel. Each design's flow seeds its own RNG from
    /// its generator seed and shares no other state, so the result is
    /// byte-identical to a serial run regardless of thread count.
    pub fn generate(config: &FlowConfig) -> Self {
        let obs = rtt_obs::span("flow::dataset_generate");
        let library = CellLibrary::asap7_like();
        let designs = par_map(all_presets(config.scale), |p| run_design_flow(&p, &library));
        obs.add("designs", designs.len() as u64);
        Self { library, designs }
    }

    /// Generates a reduced dataset (first `n_train` train designs + the
    /// `n_test` *largest* test designs) — used by integration tests.
    /// Picking the largest test designs keeps them meaningful at
    /// [`Scale::Tiny`], where the small presets degenerate to a few gates.
    pub fn generate_subset(config: &FlowConfig, n_train: usize, n_test: usize) -> Self {
        let library = CellLibrary::asap7_like();
        let presets = all_presets(config.scale);
        let mut test: Vec<&GenParams> = presets[5..].iter().collect();
        test.sort_by_key(|p| std::cmp::Reverse(p.comb_cells));
        let chosen: Vec<&GenParams> =
            presets[..n_train.min(5)].iter().chain(test.into_iter().take(n_test.min(5))).collect();
        let designs = par_map(chosen, |p| run_design_flow(p, &library));
        Self { library, designs }
    }

    /// Training designs (the paper's five).
    pub fn train_designs(&self) -> Vec<&DesignData> {
        self.designs.iter().filter(|d| TRAIN_DESIGNS.contains(&d.name.as_str())).collect()
    }

    /// Held-out test designs.
    pub fn test_designs(&self) -> Vec<&DesignData> {
        self.designs.iter().filter(|d| !TRAIN_DESIGNS.contains(&d.name.as_str())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_flow() -> DesignData {
        let lib = CellLibrary::asap7_like();
        let params = rtt_circgen::preset("chacha", Scale::Tiny).unwrap();
        run_design_flow(&params, &lib)
    }

    #[test]
    fn flow_produces_consistent_design_data() {
        let d = tiny_flow();
        d.input_netlist.validate().unwrap();
        d.opt_netlist.validate().unwrap();
        assert_eq!(d.endpoint_targets().len(), d.input_graph.endpoints().len());
        assert!(d.clock_period_ps > 0.0);
        // Optimization must not hurt sign-off timing.
        assert!(d.signoff.wns >= d.no_opt.wns - 1e-3);
    }

    #[test]
    fn optimization_restructures_at_tiny_scale() {
        let d = tiny_flow();
        assert!(
            d.diff.replaced_net_edges + d.diff.replaced_cell_edges > 0,
            "flow produced no restructuring; Table I would be empty"
        );
        assert!(d.diff.net_replaced_fraction() < 0.95);
    }

    #[test]
    fn survivor_label_maps_are_consistent() {
        let d = tiny_flow();
        let nets = d.surviving_net_delays();
        let cells = d.surviving_cell_delays();
        assert_eq!(nets.len(), d.diff.surviving_net_edges().len());
        assert!(!cells.is_empty());
        let arrivals = d.surviving_arrivals();
        // Every endpoint survives and has an arrival.
        for &v in d.input_graph.endpoints() {
            assert!(arrivals.contains_key(&d.input_graph.pin_of(v)));
        }
    }

    #[test]
    fn dataset_subset_split_matches_names() {
        let ds = Dataset::generate_subset(&FlowConfig { scale: Scale::Tiny }, 1, 1);
        assert_eq!(ds.designs.len(), 2);
        assert_eq!(ds.train_designs().len(), 1);
        assert_eq!(ds.test_designs().len(), 1);
        assert_eq!(ds.train_designs()[0].name, "jpeg");
        // The largest test design is selected so tiny-scale tests stay
        // meaningful.
        assert_eq!(ds.test_designs()[0].name, "hwacha");
    }

    #[test]
    fn flow_is_deterministic() {
        let a = tiny_flow();
        let b = tiny_flow();
        assert_eq!(a.clock_period_ps, b.clock_period_ps);
        assert_eq!(a.diff.replaced_net_edges, b.diff.replaced_net_edges);
        assert_eq!(a.signoff.wns, b.signoff.wns);
    }
}
