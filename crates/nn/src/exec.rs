//! The op-by-op forward trait.
//!
//! Model code (the layers, the CNN trunk, the model's taped forward, a
//! baseline) writes its op-by-op `forward` methods over [`Exec`], one
//! method per op. `&Tape` is the one implementor: every op records a
//! node for the reverse sweep, and values are [`crate::Var`] handles.
//!
//! Serving does not go through this trait. The tape-free passes are the
//! `forward_into` methods next to each `forward`, which run the same
//! [`crate::ops`] kernels with the same fixed accumulation orders in
//! place, over buffers from an [`crate::InferCtx`] pool, so for identical
//! inputs and weights their outputs are bit-identical to the taped
//! `forward` — the contract the tape-vs-tape-free equivalence suite pins
//! down.
//!
//! Methods take `self` by value: the tape implements the trait on a
//! shared reference, so an `Exec` value is `Copy` and can be passed
//! around freely, mirroring how `&Tape` flows through the model stack.

use crate::store::{ParamId, ParamStore};
use crate::Tensor;

/// An op-by-op forward backend, implemented by `&Tape`. Serving does not
/// use it: the tape-free `forward_into` passes run the same kernels in
/// place, bit-identically.
pub trait Exec: Copy {
    /// Backend-specific handle to a produced tensor value.
    type Value: Copy;

    /// Introduces a non-trainable input value.
    fn constant(self, t: Tensor) -> Self::Value;

    /// Introduces a parameter from `store` (a trainable leaf on the
    /// tape).
    fn param(self, store: &ParamStore, id: ParamId) -> Self::Value;

    /// The current tensor behind `v` (cloned out of the backend).
    fn value(self, v: Self::Value) -> Tensor;

    /// Element count of the tensor behind `v` (no clone).
    fn len(self, v: Self::Value) -> usize;

    /// Matrix product.
    fn matmul(self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// Elementwise sum (same shape).
    fn add(self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// Adds a rank-1 row vector to every row of a matrix (bias add).
    fn add_row(self, a: Self::Value, row: Self::Value) -> Self::Value;

    /// Adds a per-channel bias `[C]` to a feature map `[C, H, W]`.
    fn add_channel(self, x: Self::Value, bias: Self::Value) -> Self::Value;

    /// Elementwise difference (same shape).
    fn sub(self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// Elementwise (Hadamard) product.
    fn mul(self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// Multiplies every row of a matrix by a rank-1 vector.
    fn mul_row(self, a: Self::Value, row: Self::Value) -> Self::Value;

    /// Scalar multiple.
    fn scale(self, x: Self::Value, s: f32) -> Self::Value;

    /// Rectified linear unit.
    fn relu(self, x: Self::Value) -> Self::Value;

    /// Hyperbolic tangent.
    fn tanh(self, x: Self::Value) -> Self::Value;

    /// Reshaped copy with identical element count.
    fn reshape(self, x: Self::Value, shape: &[usize]) -> Self::Value;

    /// Mean of all elements (scalar `[1]` output).
    fn mean(self, x: Self::Value) -> Self::Value;

    /// Concatenates `a` and `b` side by side.
    fn concat_cols(self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// 2-D convolution, stride 1 (`x`: `[C_in, H, W]`, `w`:
    /// `[C_out, C_in, kh, kw]`).
    fn conv2d(self, x: Self::Value, w: Self::Value, pad: usize) -> Self::Value;

    /// Max pooling with a square window and equal stride over `[C, H, W]`.
    fn maxpool2d(self, x: Self::Value, size: usize) -> Self::Value;
}
