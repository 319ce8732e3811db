//! Tape-free forward execution over a reusable scratch pool.
//!
//! [`InferCtx`] is the serving-side counterpart of [`crate::Tape`]. The
//! tape-free passes (the layers' and the model trunks' `forward_into`
//! methods, driven by `TimingModel::predict_batch` and its cached
//! reads) run the same [`crate::ops`] kernels as the tape, so outputs are
//! bit-identical, but write in place into scratch tensors and record
//! nothing for a backward sweep. The context owns those tensors: each
//! pass checks them out with [`InferCtx::with_scratch`] and hands them
//! back with their capacity, so repeated passes — the endpoint chunks of
//! a prediction, or many designs scored back to back — reuse the same
//! allocations. In the steady state a pass allocates nothing, which is
//! why the `nn::infer_arena_bytes` counter (bytes of fresh allocation
//! growth, recorded as it happens) stays far below `nn::tape_bytes`
//! (bytes a tape records, counted on every pass whether or not its
//! [`crate::TapeArena`] recycles them).

use std::cell::RefCell;
use std::mem;

use crate::Tensor;

/// A scratch pool for tape-free forward passes.
///
/// ```
/// use rtt_nn::{ops, InferCtx, Tensor};
///
/// let ctx = InferCtx::new();
/// let x = Tensor::from_rows(&[&[1.0, -2.0]]);
/// let y = ctx.with_scratch(1, |bufs, _, _| {
///     ops::relu(&x, &mut bufs[0]);
///     bufs[0].data().to_vec()
/// });
/// assert_eq!(y, [1.0, 0.0]);
/// // The next pass reuses the buffer, so the pool does not grow.
/// let bytes = ctx.arena_bytes();
/// ctx.with_scratch(1, |bufs, _, _| ops::relu(&x, &mut bufs[0]));
/// assert_eq!(ctx.arena_bytes(), bytes);
/// ```
#[derive(Default)]
pub struct InferCtx {
    /// Recycled scratch for `maxpool2d` argmax bookkeeping and the conv2d
    /// im2col matrix.
    argmax_u32: RefCell<Vec<u32>>,
    col: RefCell<Tensor>,
    /// Named-buffer pool handed out by [`InferCtx::with_scratch`]; kept
    /// warm across passes.
    scratch: RefCell<Vec<Tensor>>,
}

impl InferCtx {
    /// Creates an empty context; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current pool footprint in bytes (scratch tensor, argmax and
    /// im2col capacities).
    pub fn arena_bytes(&self) -> u64 {
        let bytes = self.argmax_u32.borrow().capacity() * 4
            + self.col.borrow().capacity() * 4
            + self.scratch.borrow().iter().map(Tensor::capacity).sum::<usize>() * 4;
        bytes as u64
    }

    /// Runs a batched flat-kernel pass over `n` recycled scratch tensors
    /// plus the shared u32 index scratch (maxpool argmax) and the conv2d
    /// im2col matrix. Allocation growth of all handed-out buffers is
    /// tallied on `nn::infer_arena_bytes`, so in the steady state a pass
    /// allocates nothing.
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

    /// Records `bytes` of fresh allocation growth on the global
    /// `nn::infer_arena_bytes` counter. Zero in the steady state, so the
    /// atomic is only touched while the pool is still warming up.
    // rtt-lint: hot
    fn grew(&self, bytes: usize) {
        static ARENA_BYTES: rtt_obs::Counter = rtt_obs::Counter::new("nn::infer_arena_bytes");
        if bytes > 0 {
            ARENA_BYTES.add(bytes as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    /// One small pass through the pool that draws on every kind of
    /// scratch: tensors (matmul, ReLU, tanh), the im2col matrix (conv2d)
    /// and the argmax buffer (maxpool2d).
    fn run_pass(ctx: &InferCtx) -> (Tensor, Tensor) {
        let a = Tensor::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[0.5, 1.0], &[-1.0, 2.0]]);
        let x = Tensor::from_vec(&[1, 4, 4], (0..16).map(|v| v as f32 * 0.25 - 1.0).collect());
        let w = Tensor::from_vec(&[2, 1, 3, 3], (0..18).map(|v| v as f32 * 0.1 - 0.9).collect());
        ctx.with_scratch(3, |bufs, argmax, col| {
            let [h, y, c] = bufs else { unreachable!("pool sized to 3 above") };
            ops::matmul(&a, &b, h);
            ops::relu_in_place(h);
            ops::tanh_to(h, y);
            ops::conv2d(&x, &w, 1, col, c);
            ops::maxpool2d(c, 2, h, argmax);
            (y.clone(), h.clone())
        })
    }

    #[test]
    fn arena_bytes_stop_growing_after_first_pass() {
        let ctx = InferCtx::new();
        let first = run_pass(&ctx);
        let after_first = ctx.arena_bytes();
        assert!(after_first > 0, "first pass must allocate");
        for _ in 0..3 {
            assert_eq!(run_pass(&ctx), first, "a pass over recycled buffers changed its output");
        }
        assert_eq!(ctx.arena_bytes(), after_first, "steady-state pass allocated");
    }
}
