//! # bgl-tensor — minimal dense tensor math for GNN training
//!
//! The paper runs its accuracy experiments (Table 5, Fig. 16) on CUDA via
//! DGL's GPU backend. This workspace has no GPU, so `bgl-gnn` trains the
//! same models on CPU with the `f32` matrix kernels in this crate: matmul,
//! row-wise broadcasting, activations, softmax/cross-entropy, dropout, and
//! the Adam optimizer. No external BLAS — the matmuls are row-panel
//! blocked kernels fanned out over a std-only worker pool ([`pool`]), with
//! serial paths kept bitwise-identical for the determinism contract (see
//! `matrix`'s module docs).
//!
//! Gradients are written explicitly (no autograd); every kernel with a
//! backward pass has a finite-difference test.

pub mod init;
pub mod matrix;
pub mod ops;
pub mod optim;
pub mod pool;

pub use matrix::Matrix;
pub use optim::{Adam, Optimizer};
