//! The COPSE staging compiler (paper §5).
//!
//! [`compile`] lowers a trained [`Forest`] into the vectorizable
//! artifacts of §4.2 — padded threshold vector, reshuffling matrix,
//! level matrices and masks — plus the metadata the runtime and the
//! parties need. Compilation is a pure function of the model: nothing
//! here touches encryption, so the same compiled model can be deployed
//! in plaintext (Maurice = Sally) or encrypted (Maurice offloads) form.

use crate::analysis::ForestAnalysis;
use crate::artifacts::{BoolMatrix, CompiledModel, ModelMeta};
use copse_fhe::{BitSliced, BitVec};
use copse_forest::model::Forest;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the level results are combined into the final label vector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Accumulation {
    /// Balanced product tree: `d-1` multiplies at depth `ceil(log2 d)`
    /// (the paper's choice, §4.3).
    #[default]
    BalancedTree,
    /// Left fold: `d-1` multiplies at depth `d` (ablation baseline).
    Linear,
}

/// Whether the reshuffling matrix `R` is folded into every level
/// matrix at compile time (`L' = L·R`). Fusing deletes the reshuffle
/// MatMul and one multiplicative level; it widens each of the `d`
/// level matrices from `b` to `q` columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fusion {
    /// Fuse iff the fused level matrices add no generalised diagonal
    /// over the unfused ones plus `R`: `d·q ≤ d·b + q`. The rule reads
    /// only the model's shape, which both parties hold in
    /// [`ModelMeta`], so fusing reveals nothing new (the served
    /// default).
    #[default]
    Auto,
    /// Never fuse: the paper's four-stage pipeline (§4.2).
    Never,
    /// Always fuse (ablation and conformance batteries).
    Always,
}

impl Fusion {
    /// Whether a model with `d` levels, `b` branches and `q` padded
    /// comparison slots compiles fused.
    fn fuses(self, d: usize, b: usize, q: usize) -> bool {
        match self {
            Fusion::Auto => d * q <= d * b + q,
            Fusion::Never => false,
            Fusion::Always => true,
        }
    }
}

/// Compiler options. The defaults are the served configuration; the
/// paper's exhibits pin [`Fusion::Never`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Whether to fold the reshuffling matrix into the level matrices;
    /// the outcome is recorded in [`CompiledModel::fused`].
    pub fuse_reshuffle: Fusion,
    /// Accumulation strategy.
    pub accumulation: Accumulation,
    /// Extra padding added to the revealed maximum multiplicity, so
    /// only an upper bound on `K` leaks (paper §7.2.1).
    pub multiplicity_padding: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            fuse_reshuffle: Fusion::Auto,
            accumulation: Accumulation::BalancedTree,
            multiplicity_padding: 0,
        }
    }
}

/// Errors from [`compile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The forest contains no branch nodes at all; there is nothing to
    /// compare and the protocol degenerates.
    NoBranches,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoBranches => {
                write!(f, "forest has no branches; nothing to compile")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Replicates each feature `k` times, matching the slot layout of the
/// padded threshold vector (paper step 0: `[x, y]` with `K = 3`
/// becomes `[x, x, x, y, y, y]`).
pub fn replicate_features(features: &[u64], k: usize) -> Vec<u64> {
    features
        .iter()
        .flat_map(|&f| std::iter::repeat_n(f, k))
        .collect()
}

/// Compiles a forest into its vectorizable artifacts.
///
/// # Errors
///
/// Returns [`CompileError::NoBranches`] for branchless forests.
pub fn compile(forest: &Forest, options: CompileOptions) -> Result<CompiledModel, CompileError> {
    let analysis = ForestAnalysis::new(forest);
    let b = analysis.branch_count();
    if b == 0 {
        return Err(CompileError::NoBranches);
    }
    let precision = forest.precision();
    let feature_count = forest.feature_count();
    let k = forest.max_multiplicity() + options.multiplicity_padding;
    let q = k * feature_count;
    let d = analysis.max_level();
    let n_leaves = analysis.leaf_count();
    let fused = options.fuse_reshuffle.fuses(d as usize, b, q);

    // Padded threshold vector: feature-grouped, preorder within each
    // group, padded to multiplicity K with the sentinel 0 (paper
    // §4.2.1); sentinel comparisons are dropped by `R`, so its value
    // does not matter.
    let mut values = vec![0; q];
    let mut slot_branch: Vec<Option<usize>> = vec![None; q];
    let mut occupancy = vec![0usize; feature_count];
    for (branch_ix, branch) in analysis.branches().iter().enumerate() {
        let slot = branch.feature * k + occupancy[branch.feature];
        occupancy[branch.feature] += 1;
        values[slot] = branch.threshold;
        slot_branch[slot] = Some(branch_ix);
    }
    let thresholds = BitSliced::from_values(&values, precision);

    // Reshuffling matrix R (b×q): row i has its single 1 at the padded
    // slot carrying branch i (paper §4.2.2).
    let mut reshuffle = BoolMatrix::zeros(b, q);
    for (slot, branch) in slot_branch.iter().enumerate() {
        if let Some(branch_ix) = *branch {
            reshuffle.set(branch_ix, slot, true);
        }
    }

    // Level matrices and masks (paper §4.2.3-4.2.4), level ℓ at index
    // ℓ-1. Leaves with no ancestors (single-leaf trees) get an all-zero
    // row and a mask bit of 1, keeping them unconditionally selected.
    let mut levels = Vec::with_capacity(d as usize);
    let mut masks = Vec::with_capacity(d as usize);
    for level in 1..=d {
        let mut matrix = BoolMatrix::zeros(n_leaves, b);
        let mut mask = BitVec::zeros(n_leaves);
        for leaf in 0..n_leaves {
            match analysis.branch_above(level, leaf) {
                Some(step) => {
                    matrix.set(leaf, step.branch, true);
                    mask.set(leaf, !step.on_true_side);
                }
                None => mask.set(leaf, true),
            }
        }
        let matrix = if fused {
            matrix.mat_mul(&reshuffle)
        } else {
            matrix
        };
        levels.push(matrix);
        masks.push(mask);
    }

    let codebook = analysis.leaves().iter().map(|l| l.label).collect();
    Ok(CompiledModel {
        meta: ModelMeta {
            feature_count,
            precision,
            branches: b,
            quantized: q,
            max_level: d,
            max_multiplicity: k,
            n_trees: forest.trees().len(),
            n_leaves,
            label_names: forest.labels().to_vec(),
        },
        thresholds,
        reshuffle,
        levels,
        masks,
        codebook,
        fused,
    })
}

/// Evaluates a compiled model **in the clear** with plain bit algebra:
/// the pure-logic oracle for the secure pipeline (and a readable
/// restatement of Algorithm 1).
pub fn evaluate_plain(model: &CompiledModel, features: &[u64]) -> BitVec {
    let k = model.meta.max_multiplicity;
    let replicated = replicate_features(features, k);
    assert_eq!(replicated.len(), model.meta.quantized);

    // Step 1: comparison. decision[j] = feature[j] < threshold[j].
    let thresholds = model.thresholds.to_values();
    let decisions = BitVec::from_fn(model.meta.quantized, |j| replicated[j] < thresholds[j]);

    // Step 2: reorder into branch preorder (skipped when fused).
    let branches = model.reshuffle.mat_vec(&decisions);

    // Steps 3-4: per-level select + mask, then accumulate.
    let mut acc = BitVec::ones(model.meta.n_leaves);
    for (matrix, mask) in model.levels.iter().zip(&model.masks) {
        let input = if model.fused { &decisions } else { &branches };
        let level_vec = matrix.mat_vec(input).xor(mask);
        acc = acc.and(&level_vec);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Diane, Maurice, ModelForm, Sally};
    use copse_fhe::{BgvBackend, BgvParams};
    use copse_forest::microbench::{self, table6_specs};
    use copse_forest::model::{Forest, Node, Tree};
    use copse_forest::zoo;

    fn figure1() -> Forest {
        let d2 = Node::branch(1, 10, Node::leaf(0), Node::leaf(1));
        let d3 = Node::branch(0, 20, Node::leaf(2), Node::leaf(3));
        let d1 = Node::branch(0, 30, d2, d3);
        let d4 = Node::branch(1, 40, Node::leaf(4), Node::leaf(5));
        let d0 = Node::branch(1, 50, d1, d4);
        Forest::new(
            2,
            8,
            (0..6).map(|i| format!("L{i}")).collect(),
            vec![Tree::new(d0)],
        )
        .unwrap()
    }

    #[test]
    fn figure1_metadata() {
        let m = compile(&figure1(), CompileOptions::default()).unwrap();
        assert_eq!(m.meta.branches, 5);
        assert_eq!(m.meta.max_multiplicity, 3);
        assert_eq!(m.meta.quantized, 6);
        assert_eq!(m.meta.max_level, 3);
        assert_eq!(m.meta.n_leaves, 6);
        assert_eq!(m.levels.len(), 3);
        assert_eq!(m.codebook, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn threshold_vector_groups_by_feature() {
        let m = compile(&figure1(), CompileOptions::default()).unwrap();
        let values = m.thresholds.to_values();
        // Feature x (=0) has thresholds 30 (d1), 20 (d3) in preorder +
        // one sentinel; feature y (=1) has 50 (d0), 10 (d2), 40 (d4).
        assert_eq!(values, vec![30, 20, 0, 50, 10, 40]);
    }

    #[test]
    fn reshuffle_structure_invariants() {
        let m = compile(&figure1(), CompileOptions::default()).unwrap();
        let r = &m.reshuffle;
        assert_eq!((r.rows(), r.cols()), (5, 6));
        // Exactly one 1 per row.
        for row in 0..r.rows() {
            assert_eq!(r.row(row).count_ones(), 1, "row {row}");
        }
        // At most one 1 per column; empty columns = sentinel slots.
        let mut empty = 0;
        for c in 0..r.cols() {
            let ones = (0..r.rows()).filter(|&row| r.get(row, c)).count();
            assert!(ones <= 1, "column {c}");
            empty += usize::from(ones == 0);
        }
        assert_eq!(empty, m.meta.quantized - m.meta.branches);
    }

    #[test]
    fn reshuffle_sorts_decisions_into_preorder() {
        let m = compile(&figure1(), CompileOptions::default()).unwrap();
        // Branch i's decision lives at the slot with R[i][slot] = 1;
        // multiplying R by a one-hot slot vector yields one-hot branch
        // i.
        for branch in 0..m.meta.branches {
            let slot = (0..m.meta.quantized)
                .find(|&c| m.reshuffle.get(branch, c))
                .unwrap();
            let v = BitVec::from_fn(m.meta.quantized, |j| j == slot);
            let out = m.reshuffle.mat_vec(&v);
            assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![branch]);
        }
    }

    fn compile_with(forest: &Forest, fuse_reshuffle: Fusion) -> CompiledModel {
        let options = CompileOptions {
            fuse_reshuffle,
            ..CompileOptions::default()
        };
        compile(forest, options).unwrap()
    }

    #[test]
    fn level_matrices_have_one_hot_rows() {
        let m = compile_with(&figure1(), Fusion::Never);
        for (ix, lvl) in m.levels.iter().enumerate() {
            assert_eq!((lvl.rows(), lvl.cols()), (6, 5));
            for leaf in 0..lvl.rows() {
                assert_eq!(
                    lvl.row(leaf).count_ones(),
                    1,
                    "level {} leaf {leaf}",
                    ix + 1
                );
            }
        }
    }

    #[test]
    fn figure1_masks_match_paper_walkthrough() {
        // Level 1 (paper Fig. 4a): L0, L2, L4 on the false side (mask
        // 1); L1, L3, L5 on the true side (mask 0).
        let m = compile(&figure1(), CompileOptions::default()).unwrap();
        assert_eq!(
            m.masks[0].to_bools(),
            [true, false, true, false, true, false]
        );
    }

    #[test]
    fn plain_evaluation_matches_reference_inference() {
        let forest = figure1();
        let m = compile(&forest, CompileOptions::default()).unwrap();
        for x in (0u64..64).step_by(7) {
            for y in (0u64..64).step_by(5) {
                let hits = evaluate_plain(&m, &[x, y]);
                let expected = forest.classify_leaf_hits(&[x, y]);
                assert_eq!(hits.to_bools(), expected, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn plain_evaluation_matches_on_microbench_suite() {
        for spec in table6_specs() {
            let forest = microbench::generate(&spec, 17);
            let m = compile(&forest, CompileOptions::default()).unwrap();
            for q in microbench::random_queries(&forest, 25, 4242) {
                assert_eq!(
                    evaluate_plain(&m, &q).to_bools(),
                    forest.classify_leaf_hits(&q),
                    "{} query {q:?}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn auto_fusion_adds_no_diagonal() {
        // Auto fuses the Fig. 1 tree and exactly the six micro models
        // whose fused level matrices are no wider than the unfused
        // ones plus R; width55, width677 and the real-world models
        // keep R separate.
        assert!(
            compile(&figure1(), CompileOptions::default())
                .unwrap()
                .fused
        );
        let suite = zoo::paper_suite(2021);
        let fused: Vec<(&str, bool)> = suite
            .iter()
            .map(|model| {
                let m = compile(&model.forest, CompileOptions::default()).unwrap();
                let (d, b, q) = (m.meta.max_level as usize, m.meta.branches, m.meta.quantized);
                assert_eq!(m.fused, d * q <= d * b + q, "{}", model.name);
                (model.name.as_str(), m.fused)
            })
            .collect();
        let expect = [
            ("depth4", true),
            ("depth5", true),
            ("depth6", true),
            ("width55", false),
            ("width78", true),
            ("width677", false),
            ("prec8", true),
            ("prec16", true),
            ("soccer5", false),
            ("income5", false),
            ("soccer15", false),
            ("income15", false),
        ];
        assert_eq!(fused, expect);
    }

    #[test]
    fn fused_pipeline_is_equivalent() {
        let forest = microbench::generate(&table6_specs()[1], 5);
        let unfused = compile_with(&forest, Fusion::Never);
        let fused = compile_with(&forest, Fusion::Always);
        assert!(!unfused.fused && fused.fused);
        assert_eq!(fused.levels[0].cols(), fused.meta.quantized);
        for q in microbench::random_queries(&forest, 40, 7) {
            assert_eq!(evaluate_plain(&unfused, &q), evaluate_plain(&fused, &q));
        }

        // On tiny real BGV (6 slots), every fusion choice decrypts to
        // the cleartext walk, in both model forms.
        let forest = Forest::parse(
            "precision 4\n\
             labels no maybe yes\n\
             tree (branch 0 8 (branch 1 4 (leaf 0) (leaf 1)) (branch 0 3 (leaf 1) (leaf 2)))\n",
        )
        .unwrap();
        let be = BgvBackend::new(BgvParams {
            m: 31,
            prime_bits: 25,
            chain_len: 12,
            ks_digit_bits: 7,
            error_eta: 2,
            keygen_seed: 0xF05E,
        });
        for fusion in [Fusion::Auto, Fusion::Always, Fusion::Never] {
            let maurice = Maurice::compile(
                &forest,
                CompileOptions {
                    fuse_reshuffle: fusion,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            assert_eq!(maurice.compiled().fused, fusion != Fusion::Never);
            let diane = Diane::new(&be, maurice.public_query_info());
            for form in [ModelForm::Plain, ModelForm::Encrypted] {
                let sally = Sally::host(&be, maurice.deploy(&be, form));
                for q in [[0u64, 0], [5, 7], [9, 12], [12, 3]] {
                    let query = diane.encrypt_features(&q).unwrap();
                    let outcome = diane.decrypt_result(&sally.classify(&query));
                    assert_eq!(
                        outcome.leaf_hits(),
                        &evaluate_plain(maurice.compiled(), &q),
                        "{fusion:?} {form:?} query {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn multiplicity_padding_loosens_k() {
        let forest = figure1();
        let padded = compile(
            &forest,
            CompileOptions {
                multiplicity_padding: 2,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert_eq!(padded.meta.max_multiplicity, 5);
        assert_eq!(padded.meta.quantized, 10);
        // Still classifies correctly.
        for q in [[25u64, 60], [0, 0], [0, 45]] {
            assert_eq!(
                evaluate_plain(&padded, &q).to_bools(),
                forest.classify_leaf_hits(&q)
            );
        }
    }

    #[test]
    fn branchless_forest_rejected() {
        let f = Forest::new(1, 8, vec!["a".into()], vec![Tree::new(Node::leaf(0))]).unwrap();
        assert_eq!(
            compile(&f, CompileOptions::default()).unwrap_err(),
            CompileError::NoBranches
        );
    }

    #[test]
    fn degenerate_tree_inside_forest_is_always_selected() {
        // Tree 1 is a bare leaf; its slot must be 1 in every result.
        let t0 = Tree::new(Node::branch(0, 100, Node::leaf(0), Node::leaf(1)));
        let t1 = Tree::new(Node::leaf(1));
        let forest = Forest::new(1, 8, vec!["a".into(), "b".into()], vec![t0, t1]).unwrap();
        let m = compile(&forest, CompileOptions::default()).unwrap();
        for x in [0u64, 50, 150, 255] {
            let hits = evaluate_plain(&m, &[x]);
            assert!(hits.get(2), "bare-leaf slot must always be hit");
            assert_eq!(hits.to_bools(), forest.classify_leaf_hits(&[x]));
        }
    }

    #[test]
    fn replicate_features_layout() {
        assert_eq!(replicate_features(&[7, 9], 3), vec![7, 7, 7, 9, 9, 9]);
        assert_eq!(replicate_features(&[], 3), Vec::<u64>::new());
        assert_eq!(replicate_features(&[1], 0), Vec::<u64>::new());
    }
}
