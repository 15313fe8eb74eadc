//! Decision tree and forest model types.
//!
//! A forest is the unit COPSE compiles: a set of trees over a shared
//! feature space with a shared label alphabet (paper §2.1, §4.1.1).
//! Branch nodes hold a `(feature, threshold)` pair; the decision bit is
//! `x[feature] < threshold`, with **false taking the left child and
//! true taking the right child** (paper Fig. 1 convention). Features
//! and thresholds are fixed-point integers of the model's declared
//! precision (paper §4.1.2).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced when constructing or validating models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForestError {
    /// The forest has no trees.
    EmptyForest,
    /// The label alphabet is empty.
    NoLabels,
    /// A branch references feature `index` but the forest declares
    /// `count` features.
    FeatureOutOfRange {
        /// Offending feature index.
        index: usize,
        /// Declared feature count.
        count: usize,
    },
    /// A leaf references label `index` but only `count` labels exist.
    LabelOutOfRange {
        /// Offending label index.
        index: usize,
        /// Declared label count.
        count: usize,
    },
    /// A threshold does not fit in the declared precision.
    ThresholdOverflow {
        /// Offending threshold.
        threshold: u64,
        /// Declared precision in bits.
        precision: u32,
    },
    /// Parse error in the text serialisation format.
    Parse(String),
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::EmptyForest => write!(f, "forest has no trees"),
            ForestError::NoLabels => write!(f, "forest declares no labels"),
            ForestError::FeatureOutOfRange { index, count } => {
                write!(f, "feature index {index} out of range for {count} features")
            }
            ForestError::LabelOutOfRange { index, count } => {
                write!(f, "label index {index} out of range for {count} labels")
            }
            ForestError::ThresholdOverflow {
                threshold,
                precision,
            } => write!(f, "threshold {threshold} does not fit in {precision} bits"),
            ForestError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for ForestError {}

/// A node of a decision tree.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Node {
    /// A leaf holding a label index.
    Leaf {
        /// Index into the forest's label alphabet.
        label: usize,
    },
    /// An interior decision node.
    Branch {
        /// Feature compared at this node.
        feature: usize,
        /// Fixed-point threshold; the decision bit is
        /// `x[feature] < threshold`.
        threshold: u64,
        /// Subtree taken when the decision is **false** (left).
        low: Box<Node>,
        /// Subtree taken when the decision is **true** (right).
        high: Box<Node>,
    },
}

impl Node {
    /// Creates a leaf.
    pub fn leaf(label: usize) -> Self {
        Node::Leaf { label }
    }

    /// Creates a branch.
    pub fn branch(feature: usize, threshold: u64, low: Node, high: Node) -> Self {
        Node::Branch {
            feature,
            threshold,
            low: Box::new(low),
            high: Box::new(high),
        }
    }

    /// Number of branch nodes in the subtree.
    pub fn branch_count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Branch { low, high, .. } => 1 + low.branch_count() + high.branch_count(),
        }
    }

    /// Number of leaves in the subtree.
    pub fn leaf_count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Branch { low, high, .. } => low.leaf_count() + high.leaf_count(),
        }
    }

    /// The node's *level*: the number of branches on the longest path
    /// from the node down to a label, including itself (labels have
    /// level 0; paper §4.1.1).
    pub fn level(&self) -> u32 {
        match self {
            Node::Leaf { .. } => 0,
            Node::Branch { low, high, .. } => 1 + low.level().max(high.level()),
        }
    }

    /// Evaluates the subtree on a feature vector, returning the label
    /// index of the selected leaf.
    pub fn classify(&self, features: &[u64]) -> usize {
        match self {
            Node::Leaf { label } => *label,
            Node::Branch {
                feature,
                threshold,
                low,
                high,
            } => {
                if features[*feature] < *threshold {
                    high.classify(features)
                } else {
                    low.classify(features)
                }
            }
        }
    }
}

/// A single decision tree.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tree {
    /// Root node.
    pub root: Node,
}

impl Tree {
    /// Wraps a root node.
    pub fn new(root: Node) -> Self {
        Self { root }
    }

    /// Number of branch nodes.
    pub fn branch_count(&self) -> usize {
        self.root.branch_count()
    }

    /// Number of leaves (always `branch_count() + 1`).
    pub fn leaf_count(&self) -> usize {
        self.root.leaf_count()
    }

    /// Tree level (longest root-to-leaf branch count).
    pub fn level(&self) -> u32 {
        self.root.level()
    }

    /// Label index selected for a feature vector.
    pub fn classify(&self, features: &[u64]) -> usize {
        self.root.classify(features)
    }
}

/// A decision forest: trees over a shared feature space and label
/// alphabet, with fixed-point thresholds of a declared precision.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Forest {
    feature_count: usize,
    precision: u32,
    labels: Vec<String>,
    trees: Vec<Tree>,
}

impl Forest {
    /// Builds and validates a forest.
    ///
    /// # Errors
    ///
    /// Returns an error when the forest is empty, declares no labels,
    /// or any node references an out-of-range feature/label or a
    /// threshold exceeding the precision.
    pub fn new(
        feature_count: usize,
        precision: u32,
        labels: Vec<String>,
        trees: Vec<Tree>,
    ) -> Result<Self, ForestError> {
        if trees.is_empty() {
            return Err(ForestError::EmptyForest);
        }
        if labels.is_empty() {
            return Err(ForestError::NoLabels);
        }
        let forest = Self {
            feature_count,
            precision,
            labels,
            trees,
        };
        for tree in &forest.trees {
            forest.validate_node(&tree.root)?;
        }
        Ok(forest)
    }

    fn validate_node(&self, node: &Node) -> Result<(), ForestError> {
        match node {
            Node::Leaf { label } => {
                if *label >= self.labels.len() {
                    return Err(ForestError::LabelOutOfRange {
                        index: *label,
                        count: self.labels.len(),
                    });
                }
            }
            Node::Branch {
                feature,
                threshold,
                low,
                high,
            } => {
                if *feature >= self.feature_count {
                    return Err(ForestError::FeatureOutOfRange {
                        index: *feature,
                        count: self.feature_count,
                    });
                }
                if self.precision < 64 && *threshold >= (1u64 << self.precision) {
                    return Err(ForestError::ThresholdOverflow {
                        threshold: *threshold,
                        precision: self.precision,
                    });
                }
                self.validate_node(low)?;
                self.validate_node(high)?;
            }
        }
        Ok(())
    }

    /// Number of features in the model's feature space.
    pub fn feature_count(&self) -> usize {
        self.feature_count
    }

    /// Fixed-point precision of thresholds and features, in bits.
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// The label alphabet.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The trees.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Total branch nodes across the forest (the paper's `b`).
    pub fn branch_count(&self) -> usize {
        self.trees.iter().map(Tree::branch_count).sum()
    }

    /// Total leaves across the forest.
    pub fn leaf_count(&self) -> usize {
        self.trees.iter().map(Tree::leaf_count).sum()
    }

    /// Maximum level over all trees (the paper's `d`).
    pub fn max_level(&self) -> u32 {
        self.trees.iter().map(Tree::level).max().unwrap_or(0)
    }

    /// Multiplicity `κ_i` of each feature: how many branches compare
    /// against it (paper §4.1.1).
    pub fn multiplicities(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.feature_count];
        for tree in &self.trees {
            let mut stack = vec![&tree.root];
            while let Some(node) = stack.pop() {
                if let Node::Branch {
                    feature, low, high, ..
                } = node
                {
                    counts[*feature] += 1;
                    stack.push(low);
                    stack.push(high);
                }
            }
        }
        counts
    }

    /// Maximum multiplicity `K` over all features.
    pub fn max_multiplicity(&self) -> usize {
        self.multiplicities().into_iter().max().unwrap_or(0)
    }

    /// Quantized branching `q = K * feature_count`: the branching if
    /// every feature had maximum multiplicity (paper §4.1.1).
    pub fn quantized_branching(&self) -> usize {
        self.max_multiplicity() * self.feature_count
    }

    /// Classifies a feature vector with every tree, returning one leaf
    /// label index per tree.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.feature_count()`.
    pub fn classify_per_tree(&self, features: &[u64]) -> Vec<usize> {
        assert_eq!(
            features.len(),
            self.feature_count,
            "feature vector length mismatch"
        );
        self.trees.iter().map(|t| t.classify(features)).collect()
    }

    /// Plurality vote over the per-tree labels (ties broken toward the
    /// smaller label index).
    pub fn classify_plurality(&self, features: &[u64]) -> usize {
        let mut votes = vec![0usize; self.labels.len()];
        for label in self.classify_per_tree(features) {
            votes[label] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, usize::MAX - i))
            .map(|(i, _)| i)
            .expect("labels nonempty by construction")
    }

    /// Per-tree leaf selection as a leaf-indexed one-hot pattern: the
    /// ground-truth for the bitvector COPSE returns. Leaves are indexed
    /// left-to-right across the forest in tree order.
    pub fn classify_leaf_hits(&self, features: &[u64]) -> Vec<bool> {
        let mut hits = vec![false; self.leaf_count()];
        let mut offset = 0;
        for tree in &self.trees {
            let mut index_within = 0usize;
            Self::hit_leaf(&tree.root, features, &mut index_within, offset, &mut hits);
            offset += tree.leaf_count();
        }
        hits
    }

    fn hit_leaf(
        node: &Node,
        features: &[u64],
        next_leaf: &mut usize,
        offset: usize,
        hits: &mut [bool],
    ) {
        match node {
            Node::Leaf { .. } => {
                hits[offset + *next_leaf] = true;
                *next_leaf += 1;
            }
            Node::Branch {
                feature,
                threshold,
                low,
                high,
            } => {
                let decision = features[*feature] < *threshold;
                // Walk both sides to keep leaf numbering; only the
                // taken side records a hit.
                Self::count_or_hit(low, features, next_leaf, offset, hits, !decision);
                Self::count_or_hit(high, features, next_leaf, offset, hits, decision);
            }
        }
    }

    fn count_or_hit(
        node: &Node,
        features: &[u64],
        next_leaf: &mut usize,
        offset: usize,
        hits: &mut [bool],
        taken: bool,
    ) {
        if taken {
            Self::hit_leaf(node, features, next_leaf, offset, hits);
        } else {
            *next_leaf += node.leaf_count();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of paper Fig. 1: y and x with labels L0-L5.
    ///
    /// Shape (left = false, right = true):
    /// ```text
    ///            d0 (y)
    ///          /        \
    ///       d1 (x)      d4 (y)
    ///       /    \       /  \
    ///    d2 (y)  d3 (x) L4  L5
    ///    /  \     /  \
    ///   L0  L1   L2  L3
    /// ```
    pub(crate) fn figure1_forest() -> Forest {
        // Features: x = 0, y = 1.
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
        .expect("valid example forest")
    }

    #[test]
    fn figure1_statistics() {
        let f = figure1_forest();
        assert_eq!(f.branch_count(), 5);
        assert_eq!(f.leaf_count(), 6);
        assert_eq!(f.max_level(), 3);
        // kappa_x = 2 (d1, d3), kappa_y = 3 (d0, d2, d4) -> K = 3.
        assert_eq!(f.multiplicities(), vec![2, 3]);
        assert_eq!(f.max_multiplicity(), 3);
        assert_eq!(f.quantized_branching(), 6);
    }

    #[test]
    fn classification_follows_thresholds() {
        let f = figure1_forest();
        // y = 60: d0 false -> right... false goes LEFT: d1. x = 25:
        // x < 30 true -> d3. x = 25 -> 25 < 20 false -> L2.
        assert_eq!(f.classify_per_tree(&[25, 60]), vec![2]);
        // y = 0: d0 true -> d4; y = 0 < 40 true -> L5.
        assert_eq!(f.classify_per_tree(&[0, 0]), vec![5]);
        // y = 45: d0 true -> d4; 45 < 40 false -> L4.
        assert_eq!(f.classify_per_tree(&[0, 45]), vec![4]);
    }

    #[test]
    fn leaf_hits_one_per_tree() {
        let f = figure1_forest();
        let hits = f.classify_leaf_hits(&[25, 60]);
        assert_eq!(hits.len(), 6);
        assert_eq!(hits.iter().filter(|&&h| h).count(), 1);
        assert!(hits[2]); // L2 as computed above
    }

    #[test]
    fn levels_per_figure1() {
        let f = figure1_forest();
        let Node::Branch { low, high, .. } = &f.trees()[0].root else {
            panic!("root is a branch");
        };
        assert_eq!(f.trees()[0].root.level(), 3); // d0
        assert_eq!(low.level(), 2); // d1
        assert_eq!(high.level(), 1); // d4
    }

    #[test]
    fn empty_forest_rejected() {
        assert_eq!(
            Forest::new(1, 8, vec!["a".into()], vec![]),
            Err(ForestError::EmptyForest)
        );
    }

    #[test]
    fn no_labels_rejected() {
        assert_eq!(
            Forest::new(1, 8, vec![], vec![Tree::new(Node::leaf(0))]),
            Err(ForestError::NoLabels)
        );
    }

    #[test]
    fn out_of_range_feature_rejected() {
        let tree = Tree::new(Node::branch(3, 1, Node::leaf(0), Node::leaf(0)));
        let err = Forest::new(2, 8, vec!["a".into()], vec![tree]).unwrap_err();
        assert_eq!(err, ForestError::FeatureOutOfRange { index: 3, count: 2 });
    }

    #[test]
    fn out_of_range_label_rejected() {
        let err = Forest::new(1, 8, vec!["a".into()], vec![Tree::new(Node::leaf(2))]).unwrap_err();
        assert_eq!(err, ForestError::LabelOutOfRange { index: 2, count: 1 });
    }

    #[test]
    fn oversized_threshold_rejected() {
        let tree = Tree::new(Node::branch(0, 256, Node::leaf(0), Node::leaf(0)));
        let err = Forest::new(1, 8, vec!["a".into()], vec![tree]).unwrap_err();
        assert!(matches!(err, ForestError::ThresholdOverflow { .. }));
    }

    #[test]
    fn plurality_vote_counts_trees() {
        let t0 = Tree::new(Node::leaf(0));
        let t1 = Tree::new(Node::leaf(1));
        let t2 = Tree::new(Node::leaf(1));
        let f = Forest::new(1, 8, vec!["a".into(), "b".into()], vec![t0, t1, t2]).unwrap();
        assert_eq!(f.classify_plurality(&[0]), 1);
    }

    #[test]
    fn plurality_tie_breaks_low() {
        let t0 = Tree::new(Node::leaf(1));
        let t1 = Tree::new(Node::leaf(0));
        let f = Forest::new(1, 8, vec!["a".into(), "b".into()], vec![t0, t1]).unwrap();
        assert_eq!(f.classify_plurality(&[0]), 0);
    }

    #[test]
    fn degenerate_single_leaf_tree() {
        let f = Forest::new(1, 8, vec!["only".into()], vec![Tree::new(Node::leaf(0))]).unwrap();
        assert_eq!(f.branch_count(), 0);
        assert_eq!(f.max_level(), 0);
        assert_eq!(f.max_multiplicity(), 0);
        assert_eq!(f.classify_leaf_hits(&[7]), vec![true]);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ForestError::FeatureOutOfRange { index: 9, count: 2 };
        assert_eq!(e.to_string(), "feature index 9 out of range for 2 features");
    }
}
