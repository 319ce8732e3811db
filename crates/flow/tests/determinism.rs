//! Thread-count determinism of dataset generation.
//!
//! `Dataset::generate*` fans designs out across the thread pool, but every
//! design seeds its own RNG from `config.seed ^ params.seed` and shares no
//! mutable state, so the dataset must be identical whether it was built on
//! one thread or many.

use rtt_circgen::Scale;
use rtt_flow::{Dataset, DesignData, FlowConfig};
use rtt_nn::parallel;

/// Everything about a design that generation determines (wall-clock
/// timings excluded), with floats captured bit-exactly.
fn fingerprint(d: &DesignData) -> (String, u32, u32, u32, Vec<u32>, usize, usize) {
    (
        d.name.clone(),
        d.clock_period_ps.to_bits(),
        d.signoff.wns.to_bits(),
        d.no_opt.wns.to_bits(),
        d.endpoint_targets().iter().map(|t| t.to_bits()).collect(),
        d.diff.replaced_net_edges,
        d.diff.replaced_cell_edges,
    )
}

#[test]
fn parallel_dataset_build_matches_serial() {
    let cfg = FlowConfig { scale: Scale::Tiny };

    parallel::set_num_threads(1);
    let serial = Dataset::generate_subset(&cfg, 2, 1);
    parallel::set_num_threads(4);
    let par = Dataset::generate_subset(&cfg, 2, 1);
    parallel::set_num_threads(1);

    assert_eq!(serial.designs.len(), par.designs.len());
    for (a, b) in serial.designs.iter().zip(&par.designs) {
        assert_eq!(fingerprint(a), fingerprint(b), "{} diverged across thread counts", a.name);
    }
}
