//! A tape's recycled arena changes no bits: a pass over buffers full of
//! stale NaNs gives the same loss and gradients as a pass on a fresh tape,
//! and a pass that repeats the previous one grows its arena by nothing.
//!
//! Kept as a single `#[test]`: it reads the process-global
//! `nn::tape_arena_bytes` counter, and the default harness runs the tests
//! of one binary concurrently.

use rand::SeedableRng;
use rtt_nn::{mse, ParamId, ParamStore, Tape, TapeArena, Tensor};

/// The loss, every parameter gradient and every constant-leaf gradient of
/// one pass, as bits.
type Bits = Vec<Vec<u32>>;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn arena_bytes() -> u64 {
    rtt_obs::snapshot().counters.get("nn::tape_arena_bytes").copied().unwrap_or(0)
}

/// One forward and backward pass over a graph that records every op kind,
/// on a tape drawing from `arena`; returns its results and the arena back.
fn pass(
    arena: TapeArena,
    store: &ParamStore,
    ids: &[ParamId],
    inputs: &[Tensor],
) -> (Bits, TapeArena) {
    let tape = Tape::with_arena(arena);
    let [w, b, r, cw, cb] = [0, 1, 2, 3, 4].map(|i| tape.param(store, ids[i]));
    let x = tape.constant(inputs[0].clone());
    let img = tape.constant_with(inputs[1].len(), |t| t.copy_from(&inputs[1]));
    let target = tape.constant_with(inputs[2].len(), |t| t.copy_from(&inputs[2]));

    let h = x.matmul(w).add_row(b).relu().tanh();
    let s = h.scale(0.5).add(h).sub(h.mul(h)).mul_row(r);
    let g = tape.gather_rows(s, &[3, 0, 3]);
    let sq = tape.fused(
        &[g],
        tape.value(g).len(),
        |v, out| {
            out.reset_for_overwrite(v[0].shape());
            for (o, x) in out.data_mut().iter_mut().zip(v[0].data()) {
                *o = x * x;
            }
        },
        |v, _, grad, gin| {
            for ((gi, x), d) in gin[0].data_mut().iter_mut().zip(v[0].data()).zip(grad.data()) {
                *gi += 2.0 * x * d;
            }
        },
    );
    let conv = tape.conv2d(img, cw, 1).add_channel(cb);
    let pooled = tape.maxpool2d(conv, 2).reshape(&[3, 4]);
    let pred = tape.concat_cols(tape.concat_cols(sq, g), pooled);
    let loss = mse(&tape, pred, target);

    let mut grads = tape.backward(loss);
    let mut out = vec![bits(&tape.value(loss))];
    out.extend(ids.iter().map(|&id| bits(grads.of(id).expect("every parameter is used"))));
    out.extend([x, img, target].map(|v| bits(grads.wrt(v.id()).expect("a constant leaf"))));
    let mut arena = tape.into_arena();
    arena.reclaim(&mut grads);
    (out, arena)
}

#[test]
fn recycled_buffers_are_never_read_and_a_repeated_pass_does_not_grow_the_arena() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut store = ParamStore::new();
    let ids: Vec<ParamId> = [&[6, 5][..], &[5], &[5], &[3, 2, 3, 3], &[3]]
        .iter()
        .map(|shape| store.register(Tensor::uniform(&mut rng, shape, 1.0)))
        .collect();
    let inputs =
        [&[4, 6][..], &[2, 4, 4], &[3, 14]].map(|shape| Tensor::uniform(&mut rng, shape, 1.0));

    let (fresh, _) = pass(TapeArena::default(), &store, &ids, &inputs);

    // Spares larger than any tensor of the pass, enough for all of them.
    let nan_arena = {
        let tape = Tape::new();
        for _ in 0..128 {
            tape.constant(Tensor::full(&[512], f32::NAN));
        }
        tape.into_arena()
    };
    let before = arena_bytes();
    let (stale, _) = pass(nan_arena, &store, &ids, &inputs);
    assert_eq!(arena_bytes(), before, "a request found no NaN spare, so the check is partial");
    assert_eq!(stale, fresh, "a kernel read a recycled buffer's stale contents");

    let (first, arena) = pass(TapeArena::default(), &store, &ids, &inputs);
    let before = arena_bytes();
    let (second, _) = pass(arena, &store, &ids, &inputs);
    assert_eq!(arena_bytes(), before, "a repeated pass grew its arena");
    assert_eq!((&first, &second), (&fresh, &fresh));
}
