//! # COPSE — Vectorized Secure Evaluation of Decision Forests
//!
//! Facade crate re-exporting the COPSE workspace: a reproduction of
//! *"Vectorized Secure Evaluation of Decision Forests"* (PLDI 2021).
//!
//! * [`fhe`] — the FHE substrate: packed GF(2) SIMD backends
//!   (exact clear evaluator and a from-scratch leveled BGV scheme).
//! * [`forest`] — decision forest models, training, datasets.
//! * [`core`] — the COPSE compiler and runtime (the paper's
//!   contribution).
//! * [`baseline`] — the Aloufi et al. polynomial-evaluation baseline.
//! * [`analyze`] — static circuit analysis (`copse_core::analyze`):
//!   exact per-stage op counts, the multiplicative-depth profile, and
//!   the deploy-time admission check the server runs on every
//!   registered model.
//! * [`pool`] — the shared worker-pool runtime every layer forks its
//!   data-parallel loops onto (per-prime FHE kernels, stage loops,
//!   server batches).
//! * [`server`] — the batched multi-model TCP inference service
//!   (client/server pair over the wire protocol).
//! * [`trace`] — the timing toolkit: the workspace's stopwatch,
//!   latency histograms, and the Chrome trace-event exporter behind
//!   the serving-trace exhibit and the server's latency stats.
//!
//! ## Quickstart
//!
//! ```
//! use copse::core::compiler::CompileOptions;
//! use copse::core::runtime::{Diane, Maurice, ModelForm, Sally};
//! use copse::fhe::ClearBackend;
//! use copse::forest::model::Forest;
//!
//! // A one-branch tree: label 1 if feature 0 < 8, else label 0.
//! let forest = Forest::parse(
//!     "labels no yes\ntree (branch 0 8 (leaf 0) (leaf 1))\n",
//! )?;
//! let backend = ClearBackend::with_defaults();
//! let maurice = Maurice::compile(&forest, CompileOptions::default())?;
//! let sally = Sally::host(&backend, maurice.deploy(&backend, ModelForm::Encrypted));
//! let diane = Diane::new(&backend, maurice.public_query_info());
//!
//! let query = diane.encrypt_features(&[3])?;
//! let response = sally.classify(&query);
//! let outcome = diane.decrypt_result(&response);
//! assert_eq!(outcome.plurality_label(), Some("yes"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use copse_baseline as baseline;
pub use copse_core as core;
pub use copse_core::analyze;
pub use copse_fhe as fhe;
pub use copse_forest as forest;
pub use copse_pool as pool;
pub use copse_server as server;
pub use copse_trace as trace;
