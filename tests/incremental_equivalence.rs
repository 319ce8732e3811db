//! Differential transform-fuzz harness for dirty-cone incremental
//! prediction.
//!
//! The property: after *any* sequence of optimizer transforms,
//! `TimingModel::predict_incremental` — fed a cold `prepare` of the
//! transformed design and reusing activations cached for the previous
//! design state, recomputing only the fan-out cones of the rows its own
//! compare finds changed, with no dirty pins from the caller — produces
//! bit-identical predictions to a cold `predict_batch` over the same
//! design, at 1 and at 4 threads, and the same bits across the two
//! thread counts.
//!
//! The offline `proptest` shim has no shrinking, so shrinking is
//! replay-based and manual: every applied transform is recorded as a
//! concrete [`Op`] (resolved ids + operands), and on failure the driver
//! first truncates to the failing prefix, then greedily deletes ops one
//! at a time, replaying the whole sequence from the base design after
//! each deletion and keeping the deletion whenever the failure survives.
//! Ops whose prerequisites were deleted simply become inapplicable on
//! replay and are skipped.
//!
//! Thread settings and `rtt_obs` counters are process-global, so each of
//! the two tests holds [`GLOBAL_STATE`] for its whole run.

use std::sync::{Mutex, PoisonError};

use proptest::TestRunner;
use restructure_timing::model::{
    IncrementalCtx, EPS_REUSED_COUNTER, EPS_TOTAL_COUNTER, ROWS_RECOMPUTED_COUNTER,
    ROWS_TOTAL_COUNTER,
};
use restructure_timing::netlist::{CellId, NetId, PinId, DRIVE_STRENGTHS};
use restructure_timing::nn::{parallel, InferCtx};
use restructure_timing::opt;
use restructure_timing::place::{place as place_design, PlaceConfig, Point};
use restructure_timing::prelude::*;

/// One concrete, replayable transform. Ids are resolved at generation
/// time against the then-current netlist; on replay an op that no longer
/// applies (its prerequisites were shrunk away) is skipped.
#[derive(Clone, Debug)]
enum Op {
    InsertBuffer { net: NetId, sink: PinId, pos: Point },
    DecomposeGate { cell: CellId },
    BypassRepeater { cell: CellId },
    BypassInverterPair { first: CellId, second: CellId },
    SplitHighFanout { net: NetId, max_fanout: usize },
    PruneDangling,
    ResizeCell { cell: CellId, drive: u8 },
}

/// Applies `op` if it is still applicable; `false` means "skipped".
fn apply(op: &Op, nl: &mut Netlist, pl: &mut Placement, lib: &CellLibrary) -> bool {
    let cell_ok = |nl: &Netlist, c: CellId| c.index() < nl.cell_capacity();
    let net_ok = |nl: &Netlist, n: NetId| n.index() < nl.net_capacity();
    match *op {
        Op::InsertBuffer { net, sink, pos } => {
            net_ok(nl, net)
                && sink.index() < nl.pin_capacity()
                && opt::insert_buffer(nl, pl, lib, net, sink, pos).is_ok()
        }
        Op::DecomposeGate { cell } => {
            if !cell_ok(nl, cell) || !nl.cell(cell).is_alive() {
                return false;
            }
            let inputs = nl.cell(cell).inputs.clone();
            opt::decompose_gate(nl, pl, lib, cell, &inputs).is_ok()
        }
        Op::BypassRepeater { cell } => {
            cell_ok(nl, cell) && opt::bypass_repeater(nl, lib, cell).is_ok()
        }
        Op::BypassInverterPair { first, second } => {
            cell_ok(nl, first)
                && cell_ok(nl, second)
                && opt::bypass_inverter_pair(nl, lib, first, second).is_ok()
        }
        Op::SplitHighFanout { net, max_fanout } => {
            net_ok(nl, net)
                && opt::split_high_fanout(nl, pl, lib, net, max_fanout, |_, _| true)
                    .map(|buffers| !buffers.is_empty())
                    .unwrap_or(false)
        }
        Op::PruneDangling => opt::prune_dangling(nl, lib) > 0,
        Op::ResizeCell { cell, drive } => {
            if !cell_ok(nl, cell) || !nl.cell(cell).is_alive() {
                return false;
            }
            let gate = lib.cell_type(nl.cell(cell).type_id).gate;
            match lib.pick(gate, drive) {
                Some(ty) if ty != nl.cell(cell).type_id => nl.resize_cell(cell, ty, lib).is_ok(),
                _ => false,
            }
        }
    }
}

/// Samples one candidate op against the current netlist state. Returns
/// `None` when the drawn op kind has no candidate sites.
fn sample_op(r: &mut TestRunner, nl: &Netlist, pl: &Placement, lib: &CellLibrary) -> Option<Op> {
    fn choose<T: Copy>(r: &mut TestRunner, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[r.below(items.len() as u64) as usize])
    }
    match r.below(7) {
        0 => {
            let nets: Vec<NetId> =
                nl.nets().filter(|(_, n)| !n.sinks.is_empty()).map(|(id, _)| id).collect();
            let net = choose(r, &nets)?;
            let sink = choose(r, &nl.net(net).sinks)?;
            let a = pl.pin_position(nl, nl.net(net).driver);
            let b = pl.pin_position(nl, sink);
            let pos = Point::new((a.x + b.x) * 0.5, (a.y + b.y) * 0.5);
            Some(Op::InsertBuffer { net, sink, pos })
        }
        1 => {
            let cells: Vec<CellId> = nl
                .cells()
                .filter(|(_, c)| {
                    matches!(
                        lib.cell_type(c.type_id).gate,
                        GateFn::And3 | GateFn::And4 | GateFn::Or3 | GateFn::Or4
                    )
                })
                .map(|(id, _)| id)
                .collect();
            Some(Op::DecomposeGate { cell: choose(r, &cells)? })
        }
        2 => {
            let cells: Vec<CellId> = nl
                .cells()
                .filter(|(_, c)| lib.cell_type(c.type_id).gate == GateFn::Buf)
                .map(|(id, _)| id)
                .collect();
            Some(Op::BypassRepeater { cell: choose(r, &cells)? })
        }
        3 => {
            // first -> second back-to-back inverter pairs where first's
            // whole fanout is second's input.
            let pairs: Vec<(CellId, CellId)> = nl
                .cells()
                .filter(|(_, c)| lib.cell_type(c.type_id).gate == GateFn::Inv)
                .filter_map(|(first, c)| {
                    let out_net = nl.pin(c.output).net?;
                    let &[sink] = nl.net(out_net).sinks.as_slice() else { return None };
                    let second = nl.pin(sink).cell?;
                    let sc = nl.cell(second);
                    (lib.cell_type(sc.type_id).gate == GateFn::Inv && sc.inputs[0] == sink)
                        .then_some((first, second))
                })
                .collect();
            let (first, second) = choose(r, &pairs)?;
            Some(Op::BypassInverterPair { first, second })
        }
        4 => {
            let nets: Vec<NetId> =
                nl.nets().filter(|(_, n)| n.sinks.len() > 3).map(|(id, _)| id).collect();
            let net = choose(r, &nets)?;
            let max_fanout = 2 + r.below(3) as usize;
            Some(Op::SplitHighFanout { net, max_fanout })
        }
        5 => Some(Op::PruneDangling),
        _ => {
            let cells: Vec<CellId> = nl
                .cells()
                .filter(|(_, c)| !lib.cell_type(c.type_id).is_sequential())
                .map(|(id, _)| id)
                .collect();
            let cell = choose(r, &cells)?;
            let drive = choose(r, &DRIVE_STRENGTHS)?;
            Some(Op::ResizeCell { cell, drive })
        }
    }
}

/// Samples a sequence of `target_len` ops, each applicable (and applied)
/// at the moment it was drawn.
fn generate_sequence(
    r: &mut TestRunner,
    base_nl: &Netlist,
    base_pl: &Placement,
    lib: &CellLibrary,
    target_len: usize,
) -> Vec<Op> {
    let mut nl = base_nl.clone();
    let mut pl = base_pl.clone();
    let mut ops = Vec::new();
    for _ in 0..target_len * 12 {
        if ops.len() == target_len {
            break;
        }
        if let Some(op) = sample_op(r, &nl, &pl, lib) {
            if apply(&op, &mut nl, &mut pl, lib) {
                ops.push(op);
            }
        }
    }
    ops
}

fn prepare_design(
    nl: &Netlist,
    pl: &Placement,
    lib: &CellLibrary,
    cfg: &ModelConfig,
) -> PreparedDesign {
    let graph = TimingGraph::try_build(nl, lib).expect("transformed netlist must stay a DAG");
    let targets = vec![0.0f32; graph.endpoints().len()];
    PreparedDesign::prepare(nl, lib, pl, &graph, cfg, targets)
}

/// Replays `ops` from the base design, checking after every applied op
/// that the incremental prediction over a cold `prepare` of the
/// transformed design bit-matches a full forward. Returns the per-step
/// predictions, or `(failing op index, message)`.
fn run_sequence(
    model: &TimingModel,
    ctx: &InferCtx,
    lib: &CellLibrary,
    base_nl: &Netlist,
    base_pl: &Placement,
    ops: &[Op],
) -> Result<Vec<Vec<f32>>, (usize, String)> {
    let cfg = model.config();
    let mut nl = base_nl.clone();
    let mut pl = base_pl.clone();
    let mut inc = IncrementalCtx::new();
    // Prime the cache with a full pass over the base design; every later
    // step refreshes it onto the step's design.
    let prep = prepare_design(&nl, &pl, lib, cfg);
    let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
    let _ = model.predict_incremental(ctx, &mut inc, &prep, &[], &all);

    let mut steps = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if !apply(op, &mut nl, &mut pl, lib) {
            continue;
        }
        let prep = prepare_design(&nl, &pl, lib, cfg);
        let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
        let inc_pred = model.predict_incremental(ctx, &mut inc, &prep, &[], &all);
        let full = model.predict_batch(ctx, &prep, &all);
        for (j, (a, b)) in inc_pred.iter().zip(&full).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err((
                    i,
                    format!(
                        "step {i} ({op:?}): endpoint {j} diverged: incremental {a:?} \
                         (0x{:08x}) vs full {b:?} (0x{:08x})",
                        a.to_bits(),
                        b.to_bits()
                    ),
                ));
            }
        }
        steps.push(inc_pred);
    }
    Ok(steps)
}

/// Applies one engineered transform, prepares the result cold, and
/// asserts that the incremental prediction bit-matches a full forward.
/// Returns `false` when the op was inapplicable (its site never
/// materialized on this design), leaving all state untouched.
#[allow(clippy::too_many_arguments)]
fn check_step(
    label: &str,
    op: &Op,
    model: &TimingModel,
    ctx: &InferCtx,
    lib: &CellLibrary,
    nl: &mut Netlist,
    pl: &mut Placement,
    inc: &mut IncrementalCtx,
) -> bool {
    if !apply(op, nl, pl, lib) {
        return false;
    }
    let prep = prepare_design(nl, pl, lib, model.config());
    let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
    let inc_pred = model.predict_incremental(ctx, inc, &prep, &[], &all);
    assert_bits_eq(label, &inc_pred, &model.predict_batch(ctx, &prep, &all));
    true
}

/// Greedy replay-based shrinking: delete ops one at a time, keeping each
/// deletion whose replay still fails, until no single deletion preserves
/// the failure.
fn shrink(
    model: &TimingModel,
    ctx: &InferCtx,
    lib: &CellLibrary,
    base_nl: &Netlist,
    base_pl: &Placement,
    ops: &[Op],
) -> (Vec<Op>, String) {
    let mut kept: Vec<Op> = ops.to_vec();
    let mut err = match run_sequence(model, ctx, lib, base_nl, base_pl, &kept) {
        Err((_, e)) => e,
        Ok(_) => return (kept, "failure did not reproduce during shrinking".to_owned()),
    };
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            match run_sequence(model, ctx, lib, base_nl, base_pl, &candidate) {
                Err((_, e)) => {
                    kept = candidate;
                    err = e;
                    removed_any = true;
                }
                Ok(_) => i += 1,
            }
        }
        if !removed_any {
            return (kept, err);
        }
    }
}

fn assert_bits_eq(what: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{what}: prediction counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: prediction {i} differs: {x:?} vs {y:?}");
    }
}

fn obs_counter(key: &str) -> u64 {
    restructure_timing::obs::snapshot().counters.get(key).copied().unwrap_or(0)
}

/// Held by each test for its whole run: both set the process-wide thread
/// count and read the process-wide counters.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

#[test]
fn incremental_predict_is_bit_identical_across_random_transform_sequences() {
    let _global = GLOBAL_STATE.lock().unwrap_or_else(PoisonError::into_inner);
    let lib = CellLibrary::asap7_like();
    let model = TimingModel::new(ModelConfig::tiny());
    let mut runner = TestRunner::new("incremental_equivalence::transform_fuzz");

    let designs: Vec<(&str, Netlist, Placement)> = ["xgate", "steelcore"]
        .into_iter()
        .map(|name| {
            let d = preset(name, Scale::Tiny).expect("known preset").generate(&lib);
            let pl = place_design(&d.netlist, &lib, d.num_macros, &PlaceConfig::default());
            (name, d.netlist, pl)
        })
        .collect();

    const SEQUENCES_PER_DESIGN: usize = 3;
    const OPS_PER_SEQUENCE: usize = 8;
    for (name, nl, pl) in &designs {
        for seq in 0..SEQUENCES_PER_DESIGN {
            let ops = generate_sequence(&mut runner, nl, pl, &lib, OPS_PER_SEQUENCE);
            assert!(!ops.is_empty(), "{name} seq {seq}: no applicable transforms sampled");
            let mut per_thread: Vec<Vec<Vec<f32>>> = Vec::new();
            for threads in [1usize, 4] {
                parallel::set_num_threads(threads);
                let ctx = InferCtx::new();
                match run_sequence(&model, &ctx, &lib, nl, pl, &ops) {
                    Ok(steps) => per_thread.push(steps),
                    Err((idx, why)) => {
                        // Shrink before reporting: truncate to the failing
                        // prefix, then greedily delete surviving ops.
                        let (minimal, min_err) = shrink(&model, &ctx, &lib, nl, pl, &ops[..=idx]);
                        parallel::set_num_threads(1);
                        panic!(
                            "{name} seq {seq} @ {threads} threads: {why}\n\
                             shrunk to {} op(s): {minimal:#?}\n\
                             shrunk failure: {min_err}",
                            minimal.len()
                        );
                    }
                }
            }
            parallel::set_num_threads(1);
            for (step, (a, b)) in per_thread[0].iter().zip(&per_thread[1]).enumerate() {
                assert_bits_eq(&format!("{name} seq {seq} step {step} across thread counts"), a, b);
            }
        }
    }

    // --- Deterministic per-transform coverage ------------------------------
    // The fuzz loop draws op kinds at random, so any single run may skip a
    // kind. This chain pins one engineered instance of each transform so
    // every kind's incremental equivalence is exercised on every run.
    // Sites are discovered against the live netlist; kinds whose site
    // exists by construction are asserted applied, the rest are counted.
    for threads in [1usize, 4] {
        parallel::set_num_threads(threads);
        let ctx = InferCtx::new();
        let (name, base_nl, base_pl) = &designs[1];
        let mut nl = base_nl.clone();
        let mut pl = base_pl.clone();
        let prep = prepare_design(&nl, &pl, &lib, model.config());
        let mut inc = IncrementalCtx::new();
        let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
        let _ = model.predict_incremental(&ctx, &mut inc, &prep, &[], &all);
        let mut step = |label: &str, op: &Op, nl: &mut Netlist, pl: &mut Placement| {
            let label = format!("{name} @ {threads} threads: {label}");
            check_step(&label, op, &model, &ctx, &lib, nl, pl, &mut inc)
        };

        // A net with a sink always exists; buffer its first sink.
        let (net, sink) = nl
            .nets()
            .find(|(_, n)| !n.sinks.is_empty())
            .map(|(id, n)| (id, n.sinks[0]))
            .expect("design has at least one loaded net");
        let a = pl.pin_position(&nl, nl.net(net).driver);
        let b = pl.pin_position(&nl, sink);
        let pos = Point::new((a.x + b.x) * 0.5, (a.y + b.y) * 0.5);
        assert!(
            step("insert_buffer", &Op::InsertBuffer { net, sink, pos }, &mut nl, &mut pl),
            "engineered insert_buffer must apply"
        );

        // ... then bypass the buffer we just inserted.
        let buf = nl
            .cells()
            .filter(|(_, c)| lib.cell_type(c.type_id).gate == GateFn::Buf)
            .map(|(id, _)| id)
            .last()
            .expect("buffer inserted above is alive");
        assert!(
            step("bypass_repeater", &Op::BypassRepeater { cell: buf }, &mut nl, &mut pl),
            "engineered bypass_repeater must apply"
        );

        // A comb cell with a different drive variant in the library.
        let resize = nl.cells().find_map(|(id, c)| {
            let ty = lib.cell_type(c.type_id);
            (!ty.is_sequential())
                .then(|| {
                    DRIVE_STRENGTHS.iter().find_map(|&drive| {
                        matches!(lib.pick(ty.gate, drive), Some(t) if t != c.type_id)
                            .then_some(Op::ResizeCell { cell: id, drive })
                    })
                })
                .flatten()
        });
        let op = resize.expect("library has more than one drive per gate");
        assert!(step("resize_cell", &op, &mut nl, &mut pl), "engineered resize_cell must apply");

        // The remaining kinds depend on sites the generator may not have
        // produced at this scale; apply each wherever a site exists.
        let mut applied = vec!["insert_buffer", "bypass_repeater", "resize_cell"];
        let wide_gate = nl
            .cells()
            .find(|(_, c)| {
                matches!(
                    lib.cell_type(c.type_id).gate,
                    GateFn::And3 | GateFn::And4 | GateFn::Or3 | GateFn::Or4
                )
            })
            .map(|(id, _)| id);
        if let Some(cell) = wide_gate {
            if step("decompose_gate", &Op::DecomposeGate { cell }, &mut nl, &mut pl) {
                applied.push("decompose_gate");
            }
        }
        let fat_net = nl.nets().find(|(_, n)| n.sinks.len() > 3).map(|(id, _)| id);
        if let Some(net) = fat_net {
            if step(
                "split_high_fanout",
                &Op::SplitHighFanout { net, max_fanout: 2 },
                &mut nl,
                &mut pl,
            ) {
                applied.push("split_high_fanout");
            }
        }
        let pair = nl
            .cells()
            .filter(|(_, c)| lib.cell_type(c.type_id).gate == GateFn::Inv)
            .find_map(|(first, c)| {
                let out_net = nl.pin(c.output).net?;
                let &[sink] = nl.net(out_net).sinks.as_slice() else { return None };
                let second = nl.pin(sink).cell?;
                let sc = nl.cell(second);
                (lib.cell_type(sc.type_id).gate == GateFn::Inv && sc.inputs[0] == sink)
                    .then_some((first, second))
            });
        if let Some((first, second)) = pair {
            if step(
                "bypass_inverter_pair",
                &Op::BypassInverterPair { first, second },
                &mut nl,
                &mut pl,
            ) {
                applied.push("bypass_inverter_pair");
            }
        }
        if step("prune_dangling", &Op::PruneDangling, &mut nl, &mut pl) {
            applied.push("prune_dangling");
        }

        // bypass_inverter_pair (and, at this scale, prune_dangling) may
        // have no natural site; engineer both on a doctored copy — a
        // hand-built back-to-back inverter pair spliced in front of a
        // sink, plus a gate whose output drives nothing — and run a
        // fresh chain over it.
        let mut dnl = nl.clone();
        let mut dpl = pl.clone();
        let (net, sink) = dnl
            .nets()
            .find(|(_, n)| !n.sinks.is_empty())
            .map(|(id, n)| (id, n.sinks[0]))
            .expect("design has at least one loaded net");
        dnl.disconnect_sink(net, sink).expect("sink is on net");
        let inv_ty = lib.pick(GateFn::Inv, 1).expect("library has an inverter");
        let (inv1, inv1_out) = dnl.add_cell("det_inv1", inv_ty, &lib);
        let (inv2, inv2_out) = dnl.add_cell("det_inv2", inv_ty, &lib);
        let inv1_in = dnl.cell(inv1).inputs[0];
        let inv2_in = dnl.cell(inv2).inputs[0];
        dnl.add_sink(net, inv1_in).expect("net is alive");
        dnl.connect_net("det_inv_mid", inv1_out, &[inv2_in]).expect("fresh net");
        dnl.connect_net("det_inv_out", inv2_out, &[sink]).expect("fresh net");
        let (dangling, _) = dnl.add_cell("det_dangling", inv_ty, &lib);
        let dangling_in = dnl.cell(dangling).inputs[0];
        dnl.add_sink(net, dangling_in).expect("net is alive");
        let center = dpl.floorplan().die.center();
        for cell in [inv1, inv2, dangling] {
            dpl.place_cell(cell, center);
        }

        let prep = prepare_design(&dnl, &dpl, &lib, model.config());
        let mut inc = IncrementalCtx::new();
        let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
        let _ = model.predict_incremental(&ctx, &mut inc, &prep, &[], &all);
        let mut step2 = |label: &str, op: &Op, nl: &mut Netlist, pl: &mut Placement| {
            let label = format!("{name} (doctored) @ {threads} threads: {label}");
            check_step(&label, op, &model, &ctx, &lib, nl, pl, &mut inc)
        };
        assert!(
            step2(
                "bypass_inverter_pair",
                &Op::BypassInverterPair { first: inv1, second: inv2 },
                &mut dnl,
                &mut dpl,
            ),
            "engineered bypass_inverter_pair must apply"
        );
        applied.push("bypass_inverter_pair");
        assert!(
            step2("prune_dangling", &Op::PruneDangling, &mut dnl, &mut dpl),
            "engineered prune_dangling must apply"
        );
        if !applied.contains(&"prune_dangling") {
            applied.push("prune_dangling");
        }

        let mut kinds = applied.clone();
        kinds.sort_unstable();
        kinds.dedup();
        assert!(
            kinds.len() >= 6,
            "deterministic chains must exercise at least six transform kinds, got {applied:?}"
        );
        eprintln!("deterministic transform chain @ {threads} threads: {applied:?}");
    }
    parallel::set_num_threads(1);

    // --- Zero-dirty fixture ------------------------------------------------
    // A transform run that touches no timing-relevant pins (prune with
    // nothing to prune) must leave the row compare nothing dirty and reuse
    // the activation cache in full: the `core::incremental_rows_recomputed`
    // counter does not move while `core::incremental_rows_total` does.
    // The refresh still empties the per-endpoint tail cache, which the
    // next cached read of the same indices refills in full.
    let (_, nl, pl) = &designs[0];
    let ctx = InferCtx::new();
    let mut inc = IncrementalCtx::new();
    let cfg = model.config();
    let mut nl2 = nl.clone();
    // Clear any dangling logic first so the prune below is a true no-op.
    let _ = opt::prune_dangling(&mut nl2, &lib);
    let prep = prepare_design(&nl2, pl, &lib, cfg);
    let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();

    let (r0, t0) = (obs_counter(ROWS_RECOMPUTED_COUNTER), obs_counter(ROWS_TOTAL_COUNTER));
    let _ = model.predict_incremental(&ctx, &mut inc, &prep, &[], &all);
    let (r1, t1) = (obs_counter(ROWS_RECOMPUTED_COUNTER), obs_counter(ROWS_TOTAL_COUNTER));
    assert_eq!(r1 - r0, t1 - t0, "cold prime must recompute every row");
    assert!(t1 - t0 > 0, "cold prime must count total rows");

    let removed = opt::prune_dangling(&mut nl2, &lib);
    assert_eq!(removed, 0, "second prune must be a no-op");

    let prep2 = prepare_design(&nl2, pl, &lib, cfg);

    let eps = || (obs_counter(EPS_REUSED_COUNTER), obs_counter(EPS_TOTAL_COUNTER));
    let n = all.len() as u64;
    let (e0, et0) = eps();
    let inc_pred = model.predict_incremental(&ctx, &mut inc, &prep2, &[], &all);
    let (r2, t2) = (obs_counter(ROWS_RECOMPUTED_COUNTER), obs_counter(ROWS_TOTAL_COUNTER));
    assert_eq!(r2 - r1, 0, "empty dirty set must reuse the cached activations in full");
    assert_eq!(t2 - t1, t1 - t0, "warm pass covers the same row count");
    let want = model.predict_batch(&ctx, &prep2, &all);
    assert_bits_eq("zero-dirty fixture", &inc_pred, &want);
    let (e1, et1) = eps();
    assert_eq!((e1 - e0, et1 - et0), (0, n), "a refresh reuses no endpoint");
    let cached = model.predict_cached(&ctx, &mut inc, &prep2, &all);
    assert_bits_eq("zero-dirty cached read", &cached, &want);
    let (e2, et2) = eps();
    assert_eq!((e2 - e1, et2 - et1), (n, n), "a cached read after a refresh reuses every endpoint");

    // A CNN-only model caches its global map and tail outputs too: its
    // second cached read of the same indices reuses every endpoint.
    let cnn_only = TimingModel::new(cfg.clone().with_variant(ModelVariant::CnnOnly));
    let mut inc = IncrementalCtx::new();
    let want = cnn_only.predict_batch(&ctx, &prep2, &all);
    let first = cnn_only.predict_cached(&ctx, &mut inc, &prep2, &all);
    assert_bits_eq("CNN-only cold cached read", &first, &want);
    let (e3, et3) = eps();
    let second = cnn_only.predict_cached(&ctx, &mut inc, &prep2, &all);
    assert_bits_eq("CNN-only warm cached read", &second, &want);
    let (e4, et4) = eps();
    assert_eq!((e4 - e3, et4 - et3), (n, n), "a CNN-only cached read reuses every endpoint");
}

/// Soak: one long randomized transform session (200+ applied transforms
/// on one design, bit-checked after every step). Its bypasses and
/// insertions kill pins and add new ones, so the flat matrix gains holes
/// and rows past the old count. Debug builds run it with every kernel
/// output finite-checked.
///
/// ```text
/// cargo test --test incremental_equivalence -- --nocapture
/// ```
#[test]
fn incremental_soak_survives_hundreds_of_transforms() {
    let _global = GLOBAL_STATE.lock().unwrap_or_else(PoisonError::into_inner);
    let lib = CellLibrary::asap7_like();
    let model = TimingModel::new(ModelConfig::tiny());
    let mut runner = TestRunner::new("incremental_equivalence::soak");
    let d = preset("steelcore", Scale::Tiny).expect("known preset").generate(&lib);
    let pl = place_design(&d.netlist, &lib, d.num_macros, &PlaceConfig::default());

    let ops = generate_sequence(&mut runner, &d.netlist, &pl, &lib, 220);
    assert!(ops.len() >= 200, "soak needs 200+ applied transforms, sampled {}", ops.len());
    restructure_timing::obs::reset();
    parallel::set_num_threads(4);
    let ctx = InferCtx::new();
    let outcome = run_sequence(&model, &ctx, &lib, &d.netlist, &pl, &ops);
    parallel::set_num_threads(1);
    if let Err((idx, why)) = outcome {
        panic!("soak failed at op {idx}: {why}");
    }
    let (recomputed, total) =
        (obs_counter(ROWS_RECOMPUTED_COUNTER), obs_counter(ROWS_TOTAL_COUNTER));
    eprintln!(
        "soak: {} transforms, {recomputed}/{total} rows recomputed ({:.1}% reused)",
        ops.len(),
        100.0 * (1.0 - recomputed as f64 / total.max(1) as f64)
    );
}
