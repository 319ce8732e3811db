//! Criterion micro-benchmarks of the kernels behind every experiment:
//! STA propagation (Tables I/III), routing (Tables I/III), GNN forward and
//! CNN forward (Tables II/III), and mask generation (Fig. 6 / Table III
//! preprocessing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rtt_circgen::GenParams;
use rtt_core::{Aggregation, GnnSchedule, LayoutCnn, LevelFeats, ModelConfig, NetlistGnn};
use rtt_features::{endpoint_masks, NodeFeatures};
use rtt_netlist::{CellLibrary, Netlist, TimingGraph};
use rtt_nn::{ParamStore, Tape, Tensor};
use rtt_place::{place, PlaceConfig, Placement};
use rtt_route::{route, RouteConfig};
use rtt_sta::run_sta;

struct World {
    lib: CellLibrary,
    nl: Netlist,
    pl: Placement,
    graph: TimingGraph,
}

fn world(cells: usize) -> World {
    let lib = CellLibrary::asap7_like();
    let nl = GenParams::new(format!("b{cells}"), cells, 7).generate(&lib).netlist;
    let pl = place(&nl, &lib, 1, &PlaceConfig::default());
    let graph = TimingGraph::build(&nl, &lib);
    World { lib, nl, pl, graph }
}

fn bench_sta(c: &mut Criterion) {
    let mut g = c.benchmark_group("sta_propagation");
    for cells in [500usize, 2000] {
        let w = world(cells);
        let rt = route(&w.nl, &w.lib, &w.pl, &RouteConfig::default());
        g.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, _| {
            b.iter(|| run_sta(&w.nl, &w.lib, &w.graph, &rt, 500.0))
        });
    }
    g.finish();
}

fn bench_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("route");
    for cells in [500usize, 2000] {
        let w = world(cells);
        g.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, _| {
            b.iter(|| route(&w.nl, &w.lib, &w.pl, &RouteConfig::default()))
        });
    }
    g.finish();
}

fn bench_gnn_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("gnn_forward");
    g.sample_size(20);
    for cells in [500usize, 2000] {
        let w = world(cells);
        let schedule = GnnSchedule::build(&w.graph);
        let features = NodeFeatures::extract(&w.nl, &w.lib, &w.graph, &w.pl);
        let feats = LevelFeats::assemble(&schedule, &features);
        let cfg = ModelConfig::small();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let mut store = ParamStore::new();
        let gnn = NetlistGnn::new(&mut store, &mut rng, &cfg);
        g.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, _| {
            b.iter(|| {
                let tape = Tape::new();
                let emb = gnn.forward(&tape, &store, &schedule, &feats, Aggregation::Max);
                tape.value(emb)
            })
        });
    }
    g.finish();
}

fn bench_cnn_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("cnn_forward");
    g.sample_size(20);
    for grid in [32usize, 64] {
        let cfg = ModelConfig { grid, ..ModelConfig::small() };
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let mut store = ParamStore::new();
        let cnn = LayoutCnn::new(&mut store, &mut rng, &cfg);
        let input = Tensor::full(&[3, grid, grid], 0.3);
        g.bench_with_input(BenchmarkId::from_parameter(grid), &grid, |b, _| {
            b.iter(|| {
                let tape = Tape::new();
                let y = cnn.forward(&tape, &store, tape.constant(input.clone()));
                tape.value(y)
            })
        });
    }
    g.finish();
}

fn bench_masks(c: &mut Criterion) {
    let mut g = c.benchmark_group("endpoint_masks");
    for cells in [500usize, 2000] {
        let w = world(cells);
        g.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, _| {
            b.iter(|| endpoint_masks(&w.nl, &w.pl, &w.graph, 16))
        });
    }
    g.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    g.sample_size(20);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
    // Rows span a minibatch (8) up to a large endpoint batch (256); the
    // inner dims match the model's hidden width.
    let hidden = ModelConfig::small().gnn_hidden.max(64);
    for rows in [8usize, 64, 256] {
        let a = Tensor::uniform(&mut rng, &[rows, hidden], 1.0);
        let b = Tensor::uniform(&mut rng, &[hidden, hidden], 1.0);
        let id = BenchmarkId::from_parameter(format!("{rows}x{hidden}x{hidden}"));
        g.bench_with_input(id, &rows, |bch, _| bch.iter(|| a.matmul(&b)));
    }
    g.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d");
    g.sample_size(20);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    // The layout CNN's first conv at the two bench grids.
    let channels = ModelConfig::small().cnn_channels;
    let w = Tensor::uniform(&mut rng, &[channels, 3, 3, 3], 0.5);
    for grid in [32usize, 64] {
        let x = Tensor::uniform(&mut rng, &[3, grid, grid], 1.0);
        let id = BenchmarkId::from_parameter(format!("3x{grid}x{grid}"));
        g.bench_with_input(id, &grid, |bch, _| {
            bch.iter(|| {
                let tape = Tape::new();
                let y = tape.conv2d(tape.constant(x.clone()), tape.constant(w.clone()), 1);
                tape.value(y)
            })
        });
    }
    g.finish();
}

fn bench_place(c: &mut Criterion) {
    let mut g = c.benchmark_group("placement");
    g.sample_size(10);
    let lib = CellLibrary::asap7_like();
    let d = GenParams::new("p", 1000, 3).generate(&lib);
    g.bench_function("place_1000", |b| {
        b.iter(|| place(&d.netlist, &lib, 1, &PlaceConfig::default()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sta,
    bench_route,
    bench_gnn_forward,
    bench_cnn_forward,
    bench_matmul,
    bench_conv2d,
    bench_masks,
    bench_place
);
criterion_main!(benches);
