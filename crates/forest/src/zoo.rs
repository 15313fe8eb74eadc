//! The paper's full benchmark model suite.
//!
//! Eight Table 6 microbenchmarks plus four "real-world" models
//! (`soccer5/15`, `income5/15`) trained on the synthetic dataset
//! stand-ins, exactly as the evaluation section enumerates them. The
//! bench harness and the integration tests both draw models from here
//! so every figure runs against the same suite.

use crate::datasets::{self, Dataset};
use crate::microbench::{self, table6_specs};
use crate::model::Forest;
use crate::train::{train_forest, TrainConfig};

/// Whether a model is a synthetic microbenchmark or a trained
/// real-world-style forest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelGroup {
    /// Table 6 synthetic forests.
    Micro,
    /// Forests trained on the dataset stand-ins.
    RealWorld,
}

/// A named benchmark model.
#[derive(Clone, Debug)]
pub struct BenchModel {
    /// Model name as it appears in the paper's figures.
    pub name: String,
    /// Which suite the model belongs to.
    pub group: ModelGroup,
    /// The forest itself.
    pub forest: Forest,
}

/// Rows used to train each real-world model.
const REALWORLD_TRAIN_ROWS: usize = 2500;

/// Generates the eight Table 6 microbenchmark models.
pub fn micro_suite(seed: u64) -> Vec<BenchModel> {
    table6_specs()
        .iter()
        .map(|spec| BenchModel {
            name: spec.name.to_string(),
            group: ModelGroup::Micro,
            forest: microbench::generate(spec, seed),
        })
        .collect()
}

/// Training configuration for the real-world models; `n_trees` is the
/// model-size suffix from the paper (`soccer5` = 5 trees, etc.).
///
/// Depth and leaf-size limits are tuned so the trained forests land in
/// the size regime the paper's timings imply (a few hundred branches
/// for the 15-tree models, with `income` somewhat larger than
/// `soccer`); the `table6_micro` exhibit prints the realised shapes.
fn realworld_config(dataset: &str, n_trees: usize, seed: u64) -> TrainConfig {
    let (max_depth, min_samples_leaf) = match dataset {
        "income" => (6, 25),
        _ => (6, 80),
    };
    TrainConfig {
        n_trees,
        max_depth,
        min_samples_leaf,
        feature_subsample: None,
        bootstrap: true,
        seed,
    }
}

/// Trains one real-world-style model (`dataset` is `"income"` or
/// `"soccer"`).
///
/// # Panics
///
/// Panics on an unknown dataset name.
pub fn realworld_model(dataset: &str, n_trees: usize, seed: u64) -> BenchModel {
    let data = realworld_dataset(dataset, seed);
    let forest = train_forest(&data, &realworld_config(dataset, n_trees, seed))
        .expect("training on a generated dataset succeeds");
    BenchModel {
        name: format!("{dataset}{n_trees}"),
        group: ModelGroup::RealWorld,
        forest,
    }
}

/// The dataset stand-in backing a real-world model name.
///
/// # Panics
///
/// Panics on an unknown dataset name.
pub fn realworld_dataset(dataset: &str, seed: u64) -> Dataset {
    match dataset {
        "income" => datasets::income(REALWORLD_TRAIN_ROWS, 8, seed ^ 0xD1ED),
        "soccer" => datasets::soccer(REALWORLD_TRAIN_ROWS, 8, seed ^ 0x50CC),
        other => panic!("unknown dataset `{other}` (expected income|soccer)"),
    }
}

/// The four real-world models of the main evaluation:
/// soccer5, income5, soccer15, income15 (paper Figures 6-9 order).
pub fn realworld_suite(seed: u64) -> Vec<BenchModel> {
    vec![
        realworld_model("soccer", 5, seed),
        realworld_model("income", 5, seed),
        realworld_model("soccer", 15, seed),
        realworld_model("income", 15, seed),
    ]
}

/// The complete 12-model evaluation suite in the paper's figure order.
pub fn paper_suite(seed: u64) -> Vec<BenchModel> {
    let mut suite = micro_suite(seed);
    suite.extend(realworld_suite(seed));
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_has_twelve_models_in_order() {
        let suite = paper_suite(0);
        let names: Vec<&str> = suite.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "depth4", "depth5", "depth6", "width55", "width78", "width677", "prec8", "prec16",
                "soccer5", "income5", "soccer15", "income15"
            ]
        );
    }

    #[test]
    fn realworld_models_scale_with_tree_count() {
        let m5 = realworld_model("income", 5, 1);
        let m15 = realworld_model("income", 15, 1);
        assert_eq!(m5.forest.trees().len(), 5);
        assert_eq!(m15.forest.trees().len(), 15);
        let ratio = m15.forest.branch_count() as f64 / m5.forest.branch_count() as f64;
        assert!(
            (2.0..4.5).contains(&ratio),
            "income15/income5 branch ratio {ratio:.2} should be near 3"
        );
    }

    #[test]
    fn realworld_models_are_much_larger_than_micro() {
        let micro_b = micro_suite(0)
            .iter()
            .map(|m| m.forest.branch_count())
            .max()
            .unwrap();
        let income15 = realworld_model("income", 15, 0);
        assert!(
            income15.forest.branch_count() > 5 * micro_b,
            "income15 has {} branches vs micro max {micro_b}",
            income15.forest.branch_count()
        );
    }

    #[test]
    fn suite_is_deterministic() {
        let a = paper_suite(7);
        let b = paper_suite(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.forest, y.forest, "{}", x.name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        let _ = realworld_model("chess", 5, 0);
    }
}
