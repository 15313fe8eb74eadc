//! # copse-core — the COPSE compiler and runtime
//!
//! The primary contribution of *"Vectorized Secure Evaluation of
//! Decision Forests"* (PLDI 2021): a staging compiler that restructures
//! decision-forest inference into four vectorizable stages over packed
//! FHE ciphertexts, and the runtime that evaluates them.
//!
//! * [`analysis`] — forest flattening (preorder enumeration, levels,
//!   ancestor paths);
//! * [`artifacts`] — the vectorizable structures of §4.2 (padded
//!   threshold vector, reshuffling matrix, level matrices/masks) in
//!   generalised-diagonal form;
//! * [`compiler`] — lowering a forest to those artifacts, with the
//!   paper's options (multiplicity padding, fusion, accumulation);
//! * [`seccomp`] — the packed lexicographic comparator (step 1);
//! * [`matmul`] — the Halevi–Shoup depth-1 matrix-vector kernel
//!   (steps 2–3);
//! * [`runtime`] — Maurice/Diane/Sally and Algorithm 1 (step 4
//!   included), with per-stage tracing;
//! * [`parallel`] — the threading substrate;
//! * [`analyze`] — the static circuit analyzer: exact per-stage op
//!   counts and depth of the compiled pipeline, and the admission
//!   check against a backend (asserted against metered runs);
//! * [`complexity`] — the paper's Table 1/2 closed forms, as printed;
//! * [`leakage`] — the §7 information-leakage audit (Tables 3/4);
//! * [`codegen`] — the staging back-end: emits a standalone Rust
//!   program specialised to one compiled model;
//! * [`wire`] — byte encoding of the protocol's public handshake
//!   messages.

#![warn(missing_docs)]

pub mod analysis;
pub mod analyze;
pub mod artifacts;
pub mod codegen;
pub mod compiler;
pub mod complexity;
pub mod leakage;
pub mod matmul;
pub mod parallel;
pub mod runtime;
pub mod seccomp;
pub mod wire;

pub use compiler::{compile, Accumulation, CompileError, CompileOptions, Fusion};
pub use runtime::{
    ClassificationOutcome, Diane, EvalOptions, EvalTrace, Maurice, ModelForm, PackPlan,
    PackingMode, Sally,
};
