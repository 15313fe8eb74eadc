//! # copse-baseline — the Aloufi et al. polynomial-evaluation baseline
//!
//! The paper's experimental baseline (its §2.3.1, §8.2): *Blindfolded
//! Evaluation of Random Forests* structures each tree as a vector of
//! boolean polynomials over the decision results — one polynomial per
//! bit of the class label, with each label's path product as a term —
//! and packs only the **label-bit dimension** into SIMD slots. Every
//! decision node is still compared individually and every path product
//! evaluated tree by tree, which is exactly the sequential bottleneck
//! COPSE removes.
//!
//! The implementation shares SecComp and the FHE backend with COPSE
//! (as the paper's reimplementation shares HElib and SecComp with
//! theirs), so benchmark comparisons isolate the *vectorization
//! strategy*:
//!
//! * comparisons: one SecComp per branch (width = label bits) instead
//!   of one SecComp over all `q` slots;
//! * per-leaf path products with balanced (log-depth) multiplication,
//!   as Aloufi et al. describe;
//! * per-tree XOR of label-masked terms, yielding one ciphertext per
//!   tree whose slots are the bits of the chosen label.
//!
//! Trees (and comparisons and leaves within them) parallelise across
//! threads, mirroring the TBB parallelism the paper added to its
//! reimplementation.

#![warn(missing_docs)]

use copse_core::parallel::{map_indices, Parallelism};
use copse_core::runtime::ModelForm;
use copse_core::seccomp::{balanced_product, secure_less_than, SecCompVariant};
use copse_fhe::{BitSliced, BitVec, FheBackend, MaybeEncrypted};
use copse_forest::model::{Forest, Node};

/// One branch of a baseline tree.
#[derive(Clone, Debug)]
struct BranchSpec {
    feature: usize,
    threshold: u64,
}

/// One leaf: its label and the path literals
/// (branch index within the tree, polarity).
#[derive(Clone, Debug)]
struct LeafSpec {
    label: usize,
    /// `(branch, positive)`: `positive` means the decision itself,
    /// otherwise its complement.
    literals: Vec<(usize, bool)>,
}

#[derive(Clone, Debug)]
struct TreeSpec {
    branches: Vec<BranchSpec>,
    leaves: Vec<LeafSpec>,
}

/// A forest lowered to the baseline's polynomial representation.
#[derive(Clone, Debug)]
pub struct BaselineModel {
    trees: Vec<TreeSpec>,
    feature_count: usize,
    precision: u32,
    label_bits: u32,
    n_labels: usize,
    label_names: Vec<String>,
}

impl BaselineModel {
    /// Lowers a forest: flattens every tree into branch specs and
    /// per-leaf path polynomials.
    pub fn compile(forest: &Forest) -> Self {
        let n_labels = forest.labels().len();
        let label_bits = usize::BITS - (n_labels.max(2) - 1).leading_zeros();
        let trees = forest
            .trees()
            .iter()
            .map(|tree| {
                let mut spec = TreeSpec {
                    branches: Vec::new(),
                    leaves: Vec::new(),
                };
                let mut path = Vec::new();
                flatten(&tree.root, &mut path, &mut spec);
                spec
            })
            .collect();
        Self {
            trees,
            feature_count: forest.feature_count(),
            precision: forest.precision(),
            label_bits,
            n_labels,
            label_names: forest.labels().to_vec(),
        }
    }

    /// Bits per label slot vector.
    pub fn label_bits(&self) -> u32 {
        self.label_bits
    }

    /// Encodes/encrypts the model artifacts for an evaluator. Encrypted
    /// deployment costs `b * p` Encrypts for thresholds plus one
    /// Encrypt per leaf label pattern — the packing deficit against
    /// COPSE's `p + q + d(b+1)`.
    pub fn deploy<B: FheBackend>(&self, backend: &B, form: ModelForm) -> DeployedBaseline<B> {
        let wrap = |bits: &BitVec| match form {
            ModelForm::Plain => MaybeEncrypted::Plain(backend.encode(bits)),
            ModelForm::Encrypted => MaybeEncrypted::Encrypted(backend.encrypt_bits(bits)),
        };
        let width = self.label_bits as usize;
        let trees = self
            .trees
            .iter()
            .map(|tree| DeployedTree {
                branch_features: tree.branches.iter().map(|b| b.feature).collect(),
                branch_thresholds: tree
                    .branches
                    .iter()
                    .map(|b| {
                        let sliced =
                            BitSliced::from_values(&vec![b.threshold; width], self.precision);
                        sliced.planes().iter().map(&wrap).collect()
                    })
                    .collect(),
                leaves: tree
                    .leaves
                    .iter()
                    .map(|leaf| DeployedLeaf {
                        literals: leaf.literals.clone(),
                        label_pattern: wrap(&label_pattern(leaf.label, self.label_bits)),
                    })
                    .collect(),
            })
            .collect();
        DeployedBaseline {
            trees,
            feature_count: self.feature_count,
            precision: self.precision,
            label_bits: self.label_bits,
            n_labels: self.n_labels,
            label_names: self.label_names.clone(),
        }
    }
}

fn flatten(node: &Node, path: &mut Vec<(usize, bool)>, spec: &mut TreeSpec) {
    match node {
        Node::Leaf { label } => spec.leaves.push(LeafSpec {
            label: *label,
            literals: path.clone(),
        }),
        Node::Branch {
            feature,
            threshold,
            low,
            high,
        } => {
            let ix = spec.branches.len();
            spec.branches.push(BranchSpec {
                feature: *feature,
                threshold: *threshold,
            });
            path.push((ix, false));
            flatten(low, path, spec);
            path.last_mut().expect("pushed").1 = true;
            flatten(high, path, spec);
            path.pop();
        }
    }
}

/// The bit pattern of a label index, LSB in slot 0.
fn label_pattern(label: usize, bits: u32) -> BitVec {
    BitVec::from_fn(bits as usize, |i| (label >> i) & 1 == 1)
}

#[derive(Debug)]
struct DeployedLeaf<B: FheBackend> {
    literals: Vec<(usize, bool)>,
    label_pattern: MaybeEncrypted<B>,
}

impl<B: FheBackend> Clone for DeployedLeaf<B> {
    fn clone(&self) -> Self {
        Self {
            literals: self.literals.clone(),
            label_pattern: self.label_pattern.clone(),
        }
    }
}

#[derive(Debug)]
struct DeployedTree<B: FheBackend> {
    branch_features: Vec<usize>,
    branch_thresholds: Vec<Vec<MaybeEncrypted<B>>>,
    leaves: Vec<DeployedLeaf<B>>,
}

impl<B: FheBackend> Clone for DeployedTree<B> {
    fn clone(&self) -> Self {
        Self {
            branch_features: self.branch_features.clone(),
            branch_thresholds: self.branch_thresholds.clone(),
            leaves: self.leaves.clone(),
        }
    }
}

/// A baseline model ready for evaluation on a backend.
#[derive(Debug)]
pub struct DeployedBaseline<B: FheBackend> {
    trees: Vec<DeployedTree<B>>,
    feature_count: usize,
    precision: u32,
    label_bits: u32,
    n_labels: usize,
    label_names: Vec<String>,
}

impl<B: FheBackend> Clone for DeployedBaseline<B> {
    fn clone(&self) -> Self {
        Self {
            trees: self.trees.clone(),
            feature_count: self.feature_count,
            precision: self.precision,
            label_bits: self.label_bits,
            n_labels: self.n_labels,
            label_names: self.label_names.clone(),
        }
    }
}

/// An encrypted baseline query: per feature, `p` bit planes of width
/// `label_bits` (the feature value broadcast across the label-bit
/// slots).
#[derive(Debug)]
pub struct BaselineQuery<B: FheBackend> {
    per_feature_planes: Vec<Vec<B::Ciphertext>>,
}

impl<B: FheBackend> Clone for BaselineQuery<B> {
    fn clone(&self) -> Self {
        Self {
            per_feature_planes: self.per_feature_planes.clone(),
        }
    }
}

/// Encrypts a feature vector for baseline evaluation. Costs
/// `feature_count * p` Encrypt operations.
///
/// # Panics
///
/// Panics if the feature count disagrees with the model.
pub fn encrypt_query<B: FheBackend>(
    backend: &B,
    model: &DeployedBaseline<B>,
    features: &[u64],
) -> BaselineQuery<B> {
    assert_eq!(
        features.len(),
        model.feature_count,
        "feature count mismatch"
    );
    let width = model.label_bits as usize;
    BaselineQuery {
        per_feature_planes: features
            .iter()
            .map(|&f| {
                let sliced = BitSliced::from_values(&vec![f; width], model.precision);
                sliced
                    .planes()
                    .iter()
                    .map(|plane| backend.encrypt_bits(plane))
                    .collect()
            })
            .collect(),
    }
}

/// The result of a baseline inference: one label ciphertext per tree.
#[derive(Debug)]
pub struct BaselineResult<B: FheBackend> {
    per_tree: Vec<B::Ciphertext>,
}

impl<B: FheBackend> Clone for BaselineResult<B> {
    fn clone(&self) -> Self {
        Self {
            per_tree: self.per_tree.clone(),
        }
    }
}

impl<B: FheBackend> BaselineResult<B> {
    /// The per-tree label ciphertexts.
    pub fn ciphertexts(&self) -> &[B::Ciphertext] {
        &self.per_tree
    }
}

/// Evaluates the polynomial representation of every tree.
///
/// Per tree: one SecComp per branch, then for every leaf a balanced
/// product of its path literals masked by its label pattern, all terms
/// XORed together. Trees run in parallel when `parallelism` allows.
pub fn classify<B: FheBackend>(
    backend: &B,
    model: &DeployedBaseline<B>,
    query: &BaselineQuery<B>,
    parallelism: Parallelism,
) -> BaselineResult<B> {
    let per_tree = map_indices(parallelism, model.trees.len(), |t| {
        eval_tree(backend, model, &model.trees[t], query)
    });
    BaselineResult { per_tree }
}

fn eval_tree<B: FheBackend>(
    backend: &B,
    model: &DeployedBaseline<B>,
    tree: &DeployedTree<B>,
    query: &BaselineQuery<B>,
) -> B::Ciphertext {
    // Decisions, one SecComp per branch - the baseline's sequential
    // comparison cost.
    let decisions: Vec<B::Ciphertext> = tree
        .branch_features
        .iter()
        .zip(&tree.branch_thresholds)
        .map(|(&feature, thresholds)| {
            secure_less_than(
                backend,
                &query.per_feature_planes[feature],
                thresholds,
                SecCompVariant::LadderPrefix,
                Parallelism::sequential(),
            )
        })
        .collect();
    let complements: Vec<B::Ciphertext> = decisions.iter().map(|d| backend.not(d)).collect();

    // Leaf terms: balanced path products masked by the label pattern.
    let width = model.label_bits as usize;
    let mut acc: Option<B::Ciphertext> = None;
    for leaf in &tree.leaves {
        let mut factors: Vec<B::Ciphertext> = leaf
            .literals
            .iter()
            .map(|&(branch, positive)| {
                if positive {
                    decisions[branch].clone()
                } else {
                    complements[branch].clone()
                }
            })
            .collect();
        let term = if factors.is_empty() {
            // Single-leaf tree: the label is unconditional.
            let ones = backend.not(&backend.encrypt_zeros(width));
            leaf.label_pattern.mul_into(backend, &ones)
        } else {
            // Balanced pairwise multiplication (log depth, as in
            // Aloufi et al.).
            let product = balanced_product(backend, std::mem::take(&mut factors));
            leaf.label_pattern.mul_into(backend, &product)
        };
        acc = Some(match acc {
            None => term,
            Some(a) => backend.add(&a, &term),
        });
    }
    acc.expect("trees have at least one leaf")
}

/// Decrypts a baseline result into per-tree label indices.
///
/// # Panics
///
/// Panics if a decoded label index is out of range (which would
/// indicate a broken evaluation).
pub fn decrypt_labels<B: FheBackend>(
    backend: &B,
    model: &DeployedBaseline<B>,
    result: &BaselineResult<B>,
) -> Vec<usize> {
    result
        .per_tree
        .iter()
        .map(|ct| {
            let bits = backend.decrypt(ct);
            let mut label = 0usize;
            for i in 0..model.label_bits as usize {
                if bits.get(i) {
                    label |= 1 << i;
                }
            }
            assert!(
                label < model.n_labels,
                "decoded label {label} out of range {}",
                model.n_labels
            );
            label
        })
        .collect()
}

/// Plurality vote over decrypted per-tree labels (ties to the smaller
/// index), with the label name resolved from the model.
pub fn plurality<B: FheBackend>(model: &DeployedBaseline<B>, labels: &[usize]) -> String {
    let mut votes = vec![0usize; model.n_labels];
    for &l in labels {
        votes[l] += 1;
    }
    let best = votes
        .iter()
        .enumerate()
        .max_by_key(|&(i, &v)| (v, usize::MAX - i))
        .map(|(i, _)| i)
        .expect("at least one label");
    model.label_names[best].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copse_fhe::ClearBackend;
    use copse_forest::microbench::{self, table6_specs};
    use copse_forest::model::{Forest, Node, Tree};
    use copse_forest::zoo;

    fn check_model(forest: &Forest, form: ModelForm, queries: &[Vec<u64>], threads: usize) {
        let be = ClearBackend::with_defaults();
        let model = BaselineModel::compile(forest);
        let deployed = model.deploy(&be, form);
        for q in queries {
            let query = encrypt_query(&be, &deployed, q);
            let result = classify(&be, &deployed, &query, Parallelism { threads });
            let labels = decrypt_labels(&be, &deployed, &result);
            assert_eq!(labels, forest.classify_per_tree(q), "query {q:?}");
            assert_eq!(
                plurality(&deployed, &labels),
                forest.labels()[forest.classify_plurality(q)]
            );
        }
    }

    #[test]
    fn microbench_models_match_reference() {
        for spec in table6_specs() {
            let forest = microbench::generate(&spec, 13);
            let queries = microbench::random_queries(&forest, 5, 31);
            check_model(&forest, ModelForm::Encrypted, &queries, 1);
        }
    }

    #[test]
    fn plain_form_matches_reference() {
        let forest = microbench::generate(&table6_specs()[1], 9);
        let queries = microbench::random_queries(&forest, 5, 77);
        check_model(&forest, ModelForm::Plain, &queries, 1);
    }

    #[test]
    fn parallel_trees_match_sequential() {
        let forest = microbench::generate(&table6_specs()[5], 2);
        let queries = microbench::random_queries(&forest, 4, 5);
        check_model(&forest, ModelForm::Encrypted, &queries, 4);
    }

    #[test]
    fn trained_model_roundtrip() {
        let model = zoo::realworld_model("soccer", 3, 1);
        let queries = microbench::random_queries(&model.forest, 3, 9);
        check_model(&model.forest, ModelForm::Encrypted, &queries, 2);
    }

    #[test]
    fn single_leaf_tree_is_unconditional() {
        let t0 = Tree::new(Node::branch(0, 128, Node::leaf(0), Node::leaf(1)));
        let t1 = Tree::new(Node::leaf(2));
        let forest =
            Forest::new(1, 8, vec!["a".into(), "b".into(), "c".into()], vec![t0, t1]).unwrap();
        check_model(&forest, ModelForm::Encrypted, &[vec![5], vec![200]], 1);
    }

    #[test]
    fn label_bits_sizing() {
        for (labels, bits) in [(2usize, 1u32), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4)] {
            let names: Vec<String> = (0..labels).map(|i| format!("l{i}")).collect();
            let f = Forest::new(
                1,
                8,
                names,
                vec![Tree::new(Node::branch(
                    0,
                    1,
                    Node::leaf(0),
                    Node::leaf(labels - 1),
                ))],
            )
            .unwrap();
            assert_eq!(BaselineModel::compile(&f).label_bits(), bits, "{labels}");
        }
    }

    #[test]
    fn comparison_cost_scales_with_branches_unlike_copse() {
        // The structural contrast with COPSE: baseline multiplies
        // comparison work by b.
        let be = ClearBackend::with_defaults();
        let mut costs = Vec::new();
        for spec in [&table6_specs()[3], &table6_specs()[5]] {
            // width55 (10 branches) vs width677 (20 branches)
            let forest = microbench::generate(spec, 4);
            let model = BaselineModel::compile(&forest).deploy(&be, ModelForm::Encrypted);
            let query = encrypt_query(&be, &model, &microbench::random_queries(&forest, 1, 1)[0]);
            let before = be.meter().snapshot();
            let _ = classify(&be, &model, &query, Parallelism::sequential());
            costs.push(be.meter().snapshot().since(&before).multiply);
        }
        let ratio = costs[1] as f64 / costs[0] as f64;
        assert!(
            ratio > 1.7,
            "multiplies should ~double with branches, got {ratio:.2}"
        );
    }

    #[test]
    fn baseline_comparison_work_dwarfs_copse() {
        // The analytical content of Figure 6: baseline multiplies grow
        // with b x SecComp while COPSE pays SecComp once.
        use copse_core::analyze::{CircuitReport, EvalShape};
        use copse_core::compiler::{CompileOptions, Fusion};
        use copse_core::runtime::Maurice;
        let forest = microbench::generate(&table6_specs()[1], 31);
        let options = CompileOptions {
            fuse_reshuffle: Fusion::Never,
            ..CompileOptions::default()
        };
        let maurice = Maurice::compile(&forest, options).unwrap();
        let shape = EvalShape::plan(&maurice, ModelForm::Encrypted);
        let copse = CircuitReport::analyze(maurice.compiled(), &shape).total_ops();
        let be = ClearBackend::with_defaults();
        let model = BaselineModel::compile(&forest).deploy(&be, ModelForm::Encrypted);
        let query = encrypt_query(&be, &model, &microbench::random_queries(&forest, 1, 7)[0]);
        let before = be.meter().snapshot();
        let _ = classify(&be, &model, &query, Parallelism::sequential());
        let base = be.meter().snapshot().since(&before);
        assert!(
            base.multiply > 3 * copse.multiply,
            "baseline {} vs copse {}",
            base.multiply,
            copse.multiply
        );
    }

    #[test]
    fn deployment_encrypt_cost_is_bp_plus_leaves() {
        let forest = microbench::generate(&table6_specs()[0], 3); // 15 branches, p=8
        let be = ClearBackend::with_defaults();
        let model = BaselineModel::compile(&forest);
        let before = be.meter().snapshot();
        let _ = model.deploy(&be, ModelForm::Encrypted);
        let delta = be.meter().snapshot().since(&before);
        let leaves = forest.leaf_count();
        assert_eq!(delta.encrypt, (15 * 8 + leaves) as u64);
    }
}
