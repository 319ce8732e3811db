//! Bit-equality of the tape-free inference backend against the tape path.
//!
//! `TimingModel::predict` runs on [`rtt_nn::InferCtx`]; the tape-backed
//! reference implementation is kept as `predict_taped`. Both backends
//! execute the same `rtt_nn::ops` kernels in the same order, so their
//! outputs must agree to the bit — for every model variant, at tiny and
//! small model scales, and for any thread count. The batched entry points
//! (`predict_batch` at batch sizes 1, 7, and all endpoints, and
//! `predict_with` over one shared context) and the cached reads
//! (`predict_cached` over a primed or a cold `IncrementalCtx`) must land
//! on the same bits as the single-design `predict` and taped references.
//!
//! A persistent context must also allocate less per warm pass than the
//! tape appends: `predict_with` grows `nn::infer_arena_bytes` by less than
//! `predict_taped` adds to `nn::tape_bytes`.
//!
//! Thread settings and counters are process-global, so everything runs
//! inside a single `#[test]` that switches `RTT_THREADS`-equivalent state
//! serially.

use restructure_timing::flow::{Dataset, FlowConfig};
use restructure_timing::model::IncrementalCtx;
use restructure_timing::nn::{parallel, InferCtx};
use restructure_timing::obs;
use restructure_timing::prelude::*;

fn assert_bits_eq(what: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{what}: prediction counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: prediction {i} differs: {x:?} (0x{:08x}) vs {y:?} (0x{:08x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

fn obs_counter(name: &str) -> u64 {
    obs::snapshot().counters.get(name).copied().unwrap_or(0)
}

#[test]
fn tape_free_predict_is_bit_identical_to_taped() {
    let cfg = FlowConfig { scale: Scale::Tiny };
    let ds = Dataset::generate_subset(&cfg, 1, 1);
    let lib = &ds.library;
    let d_train = ds.train_designs()[0];
    let d_test = ds.test_designs()[0];

    // Our model: every variant at the tiny scale, the unmasked ablation,
    // plus the full model at the small scale (different widths, grid, and
    // pooling extents).
    let variants = [
        ("tiny/full", ModelConfig::tiny()),
        ("tiny/gnn-only", ModelConfig::tiny().with_variant(ModelVariant::GnnOnly)),
        ("tiny/cnn-only", ModelConfig::tiny().with_variant(ModelVariant::CnnOnly)),
        ("tiny/unmasked", ModelConfig { masking: false, ..ModelConfig::tiny() }),
        ("small/full", ModelConfig::small()),
    ];
    let models: Vec<(&str, TimingModel, PreparedDesign)> = variants
        .into_iter()
        .map(|(name, mc)| {
            let train_prep = d_train.prepared(lib, &mc);
            let mut model = TimingModel::new(mc.clone());
            model.train(
                std::slice::from_ref(&train_prep),
                &TrainConfig { epochs: 2, ..TrainConfig::default() },
            );
            let test_prep = d_test.prepared(lib, &mc);
            (name, model, test_prep)
        })
        .collect();

    // Kernels are bit-identical across thread counts, so predictions from
    // different RTT_THREADS settings must also agree bit-for-bit.
    let mut across_threads: Vec<Vec<Vec<f32>>> = Vec::new();
    for threads in [1usize, 4] {
        parallel::set_num_threads(threads);
        let mut this_round = Vec::new();
        for (name, model, prep) in &models {
            let infer = model.predict(prep);
            let taped = model.predict_taped(prep);
            assert_bits_eq(&format!("{name} @ {threads} threads"), &infer, &taped);

            // Batched prediction through a persistent context must agree
            // with both reference paths at every batch size: the shared
            // GNN/CNN activations and the row-wise regressor make each
            // endpoint's arithmetic independent of its batch neighbors.
            let ctx = InferCtx::new();
            let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
            let whole = model.predict_batch(&ctx, prep, &all);
            assert_bits_eq(
                &format!("{name} predict_batch(all) @ {threads} threads"),
                &whole,
                &taped,
            );
            let by_seven: Vec<f32> =
                all.chunks(7).flat_map(|c| model.predict_batch(&ctx, prep, c)).collect();
            assert_bits_eq(
                &format!("{name} predict_batch(7) @ {threads} threads"),
                &by_seven,
                &taped,
            );
            let by_one: Vec<f32> =
                all.iter().flat_map(|&i| model.predict_batch(&ctx, prep, &[i])).collect();
            assert_bits_eq(
                &format!("{name} predict_batch(1) @ {threads} threads"),
                &by_one,
                &taped,
            );
            for k in 0..2 {
                assert_bits_eq(
                    &format!("{name} predict_with[{k}] @ {threads} threads"),
                    &model.predict_with(&ctx, prep),
                    &taped,
                );
            }

            // The warm context's arena grows by less in a pass than the
            // tape appends in one.
            obs::reset();
            let _ = model.predict_taped(prep);
            let tape_bytes = obs_counter("nn::tape_bytes");
            obs::reset();
            let _ = model.predict_with(&ctx, prep);
            let arena_bytes = obs_counter("nn::infer_arena_bytes");
            assert!(tape_bytes > 0, "{name}: taped reference did not record nn::tape_bytes");
            assert!(
                arena_bytes < tape_bytes,
                "{name} @ {threads} threads: arena grew {arena_bytes} bytes, tape appended \
                 {tape_bytes}"
            );

            // Cached reads. A cache primed by predict_incremental serves
            // tail-only reads: the first sweep computes every tail over
            // the cached activations, the second serves the tail cache.
            for size in [1, 7, all.len()] {
                let mut inc = IncrementalCtx::new();
                model.predict_incremental(&ctx, &mut inc, prep, &[], &[]);
                for pass in ["tail", "tail cache"] {
                    let got: Vec<f32> = all
                        .chunks(size)
                        .flat_map(|c| model.predict_cached(&ctx, &mut inc, prep, c))
                        .collect();
                    assert_bits_eq(
                        &format!("{name} predict_cached({size}, {pass}) @ {threads} threads"),
                        &got,
                        &taped,
                    );
                }
            }
            let last = all.len() as u32 - 1;
            let repeated = [last, 0, last, last / 2];
            let want = model.predict_batch(&ctx, prep, &repeated);
            let mut inc = IncrementalCtx::new();
            model.predict_incremental(&ctx, &mut inc, prep, &[], &[]);
            for pass in ["tail", "tail cache"] {
                assert_bits_eq(
                    &format!("{name} predict_cached(repeated, {pass}) @ {threads} threads"),
                    &model.predict_cached(&ctx, &mut inc, prep, &repeated),
                    &want,
                );
            }
            // A cold cache runs the full pass first.
            assert_bits_eq(
                &format!("{name} predict_cached(cold) @ {threads} threads"),
                &model.predict_cached(&ctx, &mut IncrementalCtx::new(), prep, &all),
                &taped,
            );

            this_round.push(infer);
        }
        across_threads.push(this_round);
    }
    parallel::set_num_threads(1);
    for (i, (a, b)) in across_threads[0].iter().zip(&across_threads[1]).enumerate() {
        assert_bits_eq(&format!("model {i} across thread counts"), a, b);
    }
}
