//! The execution-backend abstraction: forward computation written once,
//! run by two engines.
//!
//! Model code (layers, the GNN/CNN trunks, the fused regressor) is generic
//! over [`Exec`] and therefore agnostic to *how* its ops execute:
//!
//! * `&Tape` — the training backend. Every op records a node for the
//!   reverse sweep; values are [`crate::Var`] handles.
//! * `&InferCtx` — the tape-free inference backend. Ops write into a
//!   recycled buffer arena; no gradient bookkeeping, no per-node
//!   allocation in the steady state.
//!
//! Both backends call the same [`crate::ops`] kernels with the same fixed
//! accumulation orders, so for identical inputs and weights their outputs
//! are bit-identical — the contract the tape-vs-infer equivalence suite
//! pins down.
//!
//! Methods take `self` by value: both backends implement the trait on a
//! shared reference, so an `Exec` value is `Copy` and can be passed around
//! freely, mirroring how `&Tape` flows through the model stack today.

use crate::store::{ParamId, ParamStore};
use crate::Tensor;

/// A forward-execution backend. See the [module docs](self) for the
/// bit-identity contract between implementations.
pub trait Exec: Copy {
    /// Backend-specific handle to a produced tensor value.
    type Value: Copy;

    /// Introduces a non-trainable input value.
    fn constant(self, t: Tensor) -> Self::Value;

    /// Introduces a parameter from `store` (trainable under `&Tape`, a
    /// plain input under `&InferCtx`).
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
