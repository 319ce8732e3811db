//! Tape-free forward execution over a reusable buffer arena.
//!
//! [`InferCtx`] is the serving-side counterpart of [`crate::Tape`]: it
//! runs the same [`crate::ops`] kernels (so outputs are bit-identical to
//! the tape path) but records nothing for a backward sweep. Each op's
//! output lives in an arena slot; [`InferCtx::reset`] rewinds the arena
//! cursor without freeing, so repeated forward passes — the endpoint
//! chunks of `predict`, or many designs scored back to back — reuse the
//! same allocations. In the steady state a pass allocates nothing, which
//! is why the `nn::infer_arena_bytes` counter (bytes of fresh allocation
//! growth, recorded as it happens) stays far below `nn::tape_bytes`
//! (bytes appended to the tape, paid again on every pass).

use std::cell::{Cell, RefCell};
use std::mem;

use crate::exec::Exec;
use crate::ops;
use crate::store::{ParamId, ParamStore};
use crate::Tensor;

/// Handle to a value slot inside an [`InferCtx`] arena. Valid until the
/// next [`InferCtx::reset`].
#[derive(Clone, Copy, Debug)]
pub struct Val(usize);

/// A tape-free execution context for pure forward passes.
///
/// Use through the [`Exec`] trait:
///
/// ```
/// use rtt_nn::{Exec, InferCtx, Tensor};
///
/// let ctx = InferCtx::new();
/// let x = ctx.constant(Tensor::from_rows(&[&[1.0, -2.0]]));
/// let y = ctx.relu(x);
/// assert_eq!(ctx.value(y).data(), &[1.0, 0.0]);
/// ctx.reset(); // next pass reuses both buffers
/// ```
#[derive(Default)]
pub struct InferCtx {
    /// Output buffers, one per op executed this pass; `live` of them are
    /// valid. Kept (with their capacity) across `reset` calls.
    slots: RefCell<Vec<Tensor>>,
    live: Cell<usize>,
    /// Recycled scratch for `maxpool2d` argmax bookkeeping and the conv2d
    /// im2col matrix.
    argmax_u32: RefCell<Vec<u32>>,
    col: RefCell<Tensor>,
    /// Named-buffer pool for the batched flat inference path (see
    /// [`InferCtx::with_scratch`]); kept warm across passes like the
    /// slots.
    scratch: RefCell<Vec<Tensor>>,
}

impl InferCtx {
    /// Creates an empty context; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new forward pass: previously returned [`Val`]s become
    /// invalid, but every buffer (and its capacity) is retained for reuse.
    // rtt-lint: hot
    pub fn reset(&self) {
        self.live.set(0);
    }

    /// Number of values produced in the current pass.
    pub fn len(&self) -> usize {
        self.live.get()
    }

    /// `true` if no ops have run since the last [`InferCtx::reset`].
    pub fn is_empty(&self) -> bool {
        self.live.get() == 0
    }

    /// Current arena footprint in bytes (slot and scratch capacities).
    pub fn arena_bytes(&self) -> u64 {
        let slots = self.slots.borrow();
        let bytes = slots.iter().map(Tensor::capacity).sum::<usize>() * 4
            + self.argmax_u32.borrow().capacity() * 4
            + self.col.borrow().capacity() * 4
            + self.scratch.borrow().iter().map(Tensor::capacity).sum::<usize>() * 4;
        bytes as u64
    }

    /// Runs a batched flat-kernel pass over `n` recycled scratch tensors
    /// plus the shared u32 index scratch (maxpool argmax) and the conv2d
    /// im2col matrix. Allocation growth of all handed-out buffers is
    /// tallied on `nn::infer_arena_bytes`, so in the steady state a
    /// batched pass allocates nothing, exactly like the [`Exec`] slots.
    ///
    /// The buffers are taken out of the context for the duration of `f`;
    /// nesting `with_scratch` inside `f` hands out a fresh (empty) pool,
    /// so callers should take everything they need in one call.
    // rtt-lint: hot
    pub fn with_scratch<R>(
        &self,
        n: usize,
        f: impl FnOnce(&mut [Tensor], &mut Vec<u32>, &mut Tensor) -> R,
    ) -> R {
        let mut pool = {
            let mut p = self.scratch.borrow_mut();
            if p.len() < n {
                // rtt-lint: allow(P001, reason = "pool grows to the pass's op count once; growth is tallied on nn::infer_arena_bytes")
                p.resize_with(n, Tensor::default);
            }
            mem::take(&mut *p)
        };
        let mut idx = mem::take(&mut *self.argmax_u32.borrow_mut());
        let mut col = mem::take(&mut *self.col.borrow_mut());
        let cap0 = pool.iter().map(Tensor::capacity).sum::<usize>() * 4
            + idx.capacity() * 4
            + col.capacity() * 4;
        let r = f(&mut pool[..n], &mut idx, &mut col);
        let cap1 = pool.iter().map(Tensor::capacity).sum::<usize>() * 4
            + idx.capacity() * 4
            + col.capacity() * 4;
        self.grew(cap1.saturating_sub(cap0));
        *self.scratch.borrow_mut() = pool;
        *self.argmax_u32.borrow_mut() = idx;
        *self.col.borrow_mut() = col;
        r
    }

    /// The current value of `v` (cloned out of the arena).
    ///
    /// # Panics
    ///
    /// Panics if `v` is from before the last [`InferCtx::reset`] and its
    /// slot has not been repopulated.
    pub fn value(&self, v: Val) -> Tensor {
        self.slots.borrow()[v.0].clone()
    }

    /// Runs one op: takes the next output slot out of the arena, hands the
    /// (immutably borrowed) live slots plus the output buffer to `f`, puts
    /// the result back, and tallies any allocation growth the op caused.
    fn emit(&self, f: impl FnOnce(&[Tensor], &mut Tensor)) -> Val {
        let idx = self.live.get();
        let mut out = {
            let mut slots = self.slots.borrow_mut();
            if slots.len() <= idx {
                slots.push(Tensor::default());
            }
            mem::take(&mut slots[idx])
        };
        let cap0 = out.capacity();
        {
            let slots = self.slots.borrow();
            f(&slots, &mut out);
        }
        crate::sanitize::check_finite("infer_op", &out);
        self.grew((out.capacity() - cap0) * 4);
        self.slots.borrow_mut()[idx] = out;
        self.live.set(idx + 1);
        Val(idx)
    }

    /// Records `bytes` of fresh allocation growth on the global
    /// `nn::infer_arena_bytes` counter. Zero in the steady state, so the
    /// atomic is only touched while the arena is still warming up.
    // rtt-lint: hot
    fn grew(&self, bytes: usize) {
        static ARENA_BYTES: rtt_obs::Counter = rtt_obs::Counter::new("nn::infer_arena_bytes");
        if bytes > 0 {
            ARENA_BYTES.add(bytes as u64);
        }
    }
}

/// The inference backend of the [`Exec`] abstraction: same kernels as the
/// tape, no gradient state, recycled buffers.
impl Exec for &InferCtx {
    type Value = Val;

    fn constant(self, t: Tensor) -> Val {
        self.emit(|_, out| out.copy_from(&t))
    }

    fn param(self, store: &ParamStore, id: ParamId) -> Val {
        self.emit(|_, out| out.copy_from(store.value(id)))
    }

    fn value(self, v: Val) -> Tensor {
        InferCtx::value(self, v)
    }

    fn len(self, v: Val) -> usize {
        self.slots.borrow()[v.0].len()
    }

    fn matmul(self, a: Val, b: Val) -> Val {
        self.emit(|s, out| ops::matmul(&s[a.0], &s[b.0], out))
    }

    fn add(self, a: Val, b: Val) -> Val {
        self.emit(|s, out| ops::add(&s[a.0], &s[b.0], out))
    }

    fn add_row(self, a: Val, row: Val) -> Val {
        self.emit(|s, out| ops::add_row(&s[a.0], &s[row.0], out))
    }

    fn add_channel(self, x: Val, bias: Val) -> Val {
        self.emit(|s, out| ops::add_channel(&s[x.0], &s[bias.0], out))
    }

    fn sub(self, a: Val, b: Val) -> Val {
        self.emit(|s, out| ops::sub(&s[a.0], &s[b.0], out))
    }

    fn mul(self, a: Val, b: Val) -> Val {
        self.emit(|s, out| ops::mul(&s[a.0], &s[b.0], out))
    }

    fn mul_row(self, a: Val, row: Val) -> Val {
        self.emit(|s, out| ops::mul_row(&s[a.0], &s[row.0], out))
    }

    fn scale(self, x: Val, sc: f32) -> Val {
        self.emit(|s, out| ops::scale(&s[x.0], sc, out))
    }

    fn relu(self, x: Val) -> Val {
        self.emit(|s, out| ops::relu(&s[x.0], out))
    }

    fn tanh(self, x: Val) -> Val {
        self.emit(|s, out| ops::tanh(&s[x.0], out))
    }

    fn reshape(self, x: Val, shape: &[usize]) -> Val {
        self.emit(|s, out| ops::reshape(&s[x.0], shape, out))
    }

    fn mean(self, x: Val) -> Val {
        self.emit(|s, out| ops::mean(&s[x.0], out))
    }

    fn concat_cols(self, a: Val, b: Val) -> Val {
        self.emit(|s, out| ops::concat_cols(&s[a.0], &s[b.0], out))
    }

    fn conv2d(self, x: Val, w: Val, pad: usize) -> Val {
        let mut col = self.col.borrow_mut();
        let cap0 = col.capacity();
        let v = self.emit(|s, out| ops::conv2d(&s[x.0], &s[w.0], pad, &mut col, out));
        self.grew((col.capacity() - cap0) * 4);
        v
    }

    fn maxpool2d(self, x: Val, size: usize) -> Val {
        let mut argmax = self.argmax_u32.borrow_mut();
        let cap0 = argmax.capacity();
        let v = self.emit(|s, out| ops::maxpool2d(&s[x.0], size, out, &mut argmax));
        self.grew((argmax.capacity() - cap0) * 4);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    fn t2(rows: &[&[f32]]) -> Tensor {
        Tensor::from_rows(rows)
    }

    /// Runs the same small op graph on a backend and returns the result.
    fn run_graph<E: Exec>(ex: E) -> Tensor {
        let a = ex.constant(t2(&[&[1.0, -2.0], &[3.0, 4.0]]));
        let b = ex.constant(t2(&[&[0.5, 1.0], &[-1.0, 2.0]]));
        let h = ex.relu(ex.add(ex.matmul(a, b), b));
        ex.value(ex.tanh(ex.mul(h, h)))
    }

    #[test]
    fn matches_tape_backend_and_reuses_buffers() {
        let tape = Tape::new();
        let want = run_graph(&tape);

        let ctx = InferCtx::new();
        let got = run_graph(&ctx);
        assert_eq!(got, want, "infer diverged from tape");

        // Second pass on the same ctx: identical output, zero slot growth.
        ctx.reset();
        let slots_after_first = ctx.slots.borrow().len();
        let got2 = run_graph(&ctx);
        assert_eq!(got2, want, "infer not reproducible after reset");
        assert_eq!(ctx.slots.borrow().len(), slots_after_first, "arena grew on replay");
    }

    #[test]
    fn conv_and_pool_match_tape() {
        let x = Tensor::from_vec(&[1, 4, 4], (0..16).map(|v| v as f32 * 0.25 - 1.0).collect());
        let w = Tensor::from_vec(&[2, 1, 3, 3], (0..18).map(|v| v as f32 * 0.1 - 0.9).collect());

        let tape = Tape::new();
        let ty =
            tape.maxpool2d(tape.conv2d(tape.constant(x.clone()), tape.constant(w.clone()), 1), 2);
        let want = tape.value(ty);

        let ctx = InferCtx::new();
        let cy = (&ctx).maxpool2d((&ctx).conv2d((&ctx).constant(x), (&ctx).constant(w), 1), 2);
        assert_eq!(ctx.value(cy), want);
    }

    #[test]
    fn arena_bytes_stop_growing_after_first_pass() {
        let ctx = InferCtx::new();
        run_graph(&ctx);
        let after_first = ctx.arena_bytes();
        assert!(after_first > 0, "first pass must allocate");
        for _ in 0..3 {
            ctx.reset();
            run_graph(&ctx);
        }
        assert_eq!(ctx.arena_bytes(), after_first, "steady-state pass allocated");
    }
}
