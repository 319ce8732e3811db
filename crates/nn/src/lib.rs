//! A minimal reverse-mode autodiff engine for the paper's models.
//!
//! The paper builds on DGL + PyTorch; no comparable Rust stack exists, so
//! this crate implements exactly the operator set the customized GNN
//! (Equation 3), the layout CNN, the endpoint masking, and the MLP heads
//! need: dense matmul/broadcast arithmetic, ReLU/tanh, row gathers,
//! column concatenation, 2-D convolution and max-pooling, scalar
//! reductions, and fused nodes that carry their own backward (the GNN
//! records its whole level loop as one) — all with hand-written backward
//! passes that are verified against central finite differences in the
//! test suite.
//!
//! # Architecture
//!
//! * [`Tensor`] — a dense row-major float tensor.
//! * [`ops`] — pure forward kernels, written once and shared by the tape
//!   and the tape-free passes (the bit-identity contract lives here).
//! * [`Tape`] / [`Var`] — a define-by-run computation graph; every forward
//!   op records what it needs for the backward sweep; a parameter is one
//!   leaf however often it is used. [`Tape::fused`] records a whole
//!   sub-computation as one node with its own boxed backward closure.
//!   [`Tape::backward`] gives each non-leaf gradient back as soon as its
//!   node is done, so [`Grads`] holds parameter and constant-leaf
//!   gradients only.
//! * [`TapeArena`] — the spare tensors a tape draws every recorded value
//!   and every backward buffer from. A trainer hands one in with
//!   [`Tape::with_arena`] and takes it back with [`Tape::into_arena`], so a
//!   pass that repeats the previous one allocates nothing; growth is
//!   tallied on `nn::tape_arena_bytes`.
//! * [`Exec`] — the op-by-op forward trait the layers' and models' taped
//!   `forward` methods are written against; `&Tape` implements it.
//! * [`InferCtx`] — the scratch pool of the tape-free passes: the
//!   `forward_into` methods run the same kernels in place, with no
//!   gradient nodes, over buffers recycled across passes.
//! * [`ParamStore`] / [`ParamId`] — long-lived trainable tensors, injected
//!   into each tape as leaves and updated from [`Grads`] by an optimizer.
//! * [`Linear`], [`Mlp`], [`Conv2d`] — the layer zoo.
//! * [`Adam`] — the optimizer.
//! * [`parallel`] — [`parallel::par_map`], the order-preserving map the
//!   per-design loops above the kernels fan out with, and its global
//!   thread count; every kernel is a serial loop.
//!
//! # Example
//!
//! Fit `y = 2x` with one linear layer:
//!
//! ```
//! use rtt_nn::{Adam, Linear, ParamStore, Tape, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, &mut rng, 1, 1);
//! let mut adam = Adam::new(0.05);
//! let x = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
//! let y = Tensor::from_rows(&[&[2.0], &[4.0], &[6.0]]);
//! for _ in 0..800 {
//!     let tape = Tape::new();
//!     let xv = tape.constant(x.clone());
//!     let pred = layer.forward(&tape, &store, xv);
//!     let loss = rtt_nn::mse(&tape, pred, tape.constant(y.clone()));
//!     let grads = tape.backward(loss);
//!     adam.step(&mut store, &grads);
//! }
//! let tape = Tape::new();
//! let out = layer.forward(&tape, &store, tape.constant(Tensor::from_rows(&[&[5.0]])));
//! assert!((tape.value(out).data()[0] - 10.0).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod infer;
mod layers;
pub mod ops;
mod optim;
pub mod parallel;
pub mod sanitize;
mod store;
mod tape;
mod tensor;

pub use exec::Exec;
pub use infer::InferCtx;
pub use layers::{Conv2d, Linear, Mlp, MlpScratch};
pub use optim::Adam;
pub use store::{Grads, ParamId, ParamStore, WeightsError};
pub use tape::{mse, Tape, TapeArena, Var};
pub use tensor::Tensor;
