//! # copse-forest — decision forest substrate for COPSE
//!
//! Everything model-side that the COPSE compiler consumes:
//!
//! * [`model`] — decision trees and forests with the paper's
//!   conventions (fixed-point thresholds, `x[f] < t` decisions, false
//!   = left / true = right), validation, statistics (`b`, `d`, `K`,
//!   `q`) and plaintext reference inference;
//! * [`text`] — the serialised model format of paper §5;
//! * [`train`] — a CART/random-forest trainer (the scikit-learn
//!   stand-in used to produce the real-world benchmark models);
//! * [`datasets`] — synthetic census-income and soccer datasets with
//!   the paper's schemas;
//! * [`quantize`] — per-feature fixed-point quantisation (the paper's
//!   compile-time precision `p` applied to real-valued features);
//! * [`microbench`] — exact-shape Table 6 microbenchmark generators;
//! * [`zoo`] — the full 12-model evaluation suite of the paper.
//!
//! ## Example
//!
//! ```
//! use copse_forest::model::Forest;
//!
//! let forest = Forest::parse(
//!     "labels reject approve\n\
//!      tree (branch 0 128 (leaf 0) (leaf 1))\n",
//! )?;
//! assert_eq!(forest.classify_plurality(&[42]), 1); // 42 < 128
//! # Ok::<(), copse_forest::model::ForestError>(())
//! ```

#![warn(missing_docs)]

pub mod datasets;
pub mod microbench;
pub mod model;
pub mod quantize;
pub mod text;
pub mod train;
pub mod zoo;

pub use datasets::Dataset;
pub use model::{Forest, ForestError, Node, Tree};
pub use train::{accuracy, train_forest, TrainConfig};
