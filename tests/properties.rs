//! Property-based tests over randomly generated forests and queries.
//!
//! The headline invariant: for *any* well-formed forest and *any*
//! in-range feature vector, the COPSE pipeline (compile -> encrypt ->
//! classify -> decrypt) produces exactly the leaf-hit vector of
//! plaintext reference inference — under every model form and
//! comparator.

use copse::core::compiler::{compile, evaluate_plain, CompileOptions, Fusion};
use copse::core::runtime::{Diane, EvalOptions, Maurice, ModelForm, Sally};
use copse::core::seccomp::SecCompVariant;
use copse::fhe::ClearBackend;
use copse::forest::model::{Forest, Node, Tree};
use proptest::prelude::*;

const PRECISION: u32 = 6;
const FEATURES: usize = 3;
const LABELS: usize = 3;

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = (0..LABELS).prop_map(Node::leaf);
    leaf.prop_recursive(4, 24, 2, |inner| {
        (0..FEATURES, 1u64..(1 << PRECISION), inner.clone(), inner)
            .prop_map(|(f, t, low, high)| Node::branch(f, t, low, high))
    })
}

prop_compose! {
    fn forest_strategy()(trees in prop::collection::vec(node_strategy(), 1..4)) -> Forest {
        let labels = (0..LABELS).map(|i| format!("c{i}")).collect();
        Forest::new(
            FEATURES,
            PRECISION,
            labels,
            trees.into_iter().map(Tree::new).collect(),
        )
        .expect("generated forest is valid")
    }
}

fn query_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..(1 << PRECISION), FEATURES)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn secure_pipeline_equals_reference(forest in forest_strategy(), query in query_strategy()) {
        prop_assume!(forest.branch_count() > 0);
        let backend = ClearBackend::with_defaults();
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let sally = Sally::host(&backend, maurice.deploy(&backend, ModelForm::Encrypted));
        let diane = Diane::new(&backend, maurice.public_query_info());
        let enc = diane.encrypt_features(&query).unwrap();
        let outcome = diane.decrypt_result(&sally.classify(&enc));
        prop_assert_eq!(outcome.leaf_hits().to_bools(), forest.classify_leaf_hits(&query));
        // Exactly one leaf per tree fires.
        prop_assert_eq!(outcome.leaf_hits().count_ones(), forest.trees().len());
    }

    #[test]
    fn pure_artifact_evaluation_equals_reference(
        forest in forest_strategy(),
        query in query_strategy(),
    ) {
        prop_assume!(forest.branch_count() > 0);
        let compiled = compile(&forest, CompileOptions::default()).unwrap();
        prop_assert_eq!(
            evaluate_plain(&compiled, &query).to_bools(),
            forest.classify_leaf_hits(&query)
        );
    }

    #[test]
    fn fused_equals_unfused(forest in forest_strategy(), query in query_strategy()) {
        prop_assume!(forest.branch_count() > 0);
        let a = compile(
            &forest,
            CompileOptions { fuse_reshuffle: Fusion::Never, ..CompileOptions::default() },
        )
        .unwrap();
        let b = compile(
            &forest,
            CompileOptions { fuse_reshuffle: Fusion::Always, ..CompileOptions::default() },
        )
        .unwrap();
        prop_assert_eq!(evaluate_plain(&a, &query), evaluate_plain(&b, &query));
    }

    #[test]
    fn plain_model_equals_encrypted_model(
        forest in forest_strategy(),
        query in query_strategy(),
    ) {
        prop_assume!(forest.branch_count() > 0);
        let backend = ClearBackend::with_defaults();
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let diane = Diane::new(&backend, maurice.public_query_info());
        let enc = diane.encrypt_features(&query).unwrap();
        let mut results = Vec::new();
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            let sally = Sally::host(&backend, maurice.deploy(&backend, form));
            results.push(diane.decrypt_result(&sally.classify(&enc)));
        }
        prop_assert_eq!(results[0].leaf_hits(), results[1].leaf_hits());
    }

    #[test]
    fn comparator_variants_agree(forest in forest_strategy(), query in query_strategy()) {
        prop_assume!(forest.branch_count() > 0);
        let backend = ClearBackend::with_defaults();
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let diane = Diane::new(&backend, maurice.public_query_info());
        let enc = diane.encrypt_features(&query).unwrap();
        let deployed = maurice.deploy(&backend, ModelForm::Encrypted);
        let mut results = Vec::new();
        for comparator in [SecCompVariant::LadderPrefix, SecCompVariant::Tree] {
            let sally = Sally::with_options(
                &backend,
                deployed.clone(),
                EvalOptions { comparator, ..EvalOptions::default() },
            );
            results.push(diane.decrypt_result(&sally.classify(&enc)));
        }
        prop_assert_eq!(results[0].leaf_hits(), results[1].leaf_hits());
    }

    #[test]
    fn reshuffle_matrix_shape_invariants(forest in forest_strategy()) {
        prop_assume!(forest.branch_count() > 0);
        let compiled = compile(&forest, CompileOptions::default()).unwrap();
        let r = &compiled.reshuffle;
        // One 1 per row, at most one per column, empty columns =
        // sentinel slots (paper §4.2.2).
        for row in 0..r.rows() {
            prop_assert_eq!(r.row(row).count_ones(), 1);
        }
        let mut empty = 0usize;
        for c in 0..r.cols() {
            let ones = (0..r.rows()).filter(|&row| r.get(row, c)).count();
            prop_assert!(ones <= 1);
            empty += usize::from(ones == 0);
        }
        prop_assert_eq!(empty, compiled.meta.quantized - compiled.meta.branches);
    }

    #[test]
    fn level_masks_cover_every_ancestor(forest in forest_strategy()) {
        prop_assume!(forest.branch_count() > 0);
        use copse::core::analysis::ForestAnalysis;
        let analysis = ForestAnalysis::new(&forest);
        for (leaf_ix, leaf) in analysis.leaves().iter().enumerate() {
            let selected: std::collections::HashSet<usize> = (1..=analysis.max_level())
                .filter_map(|l| analysis.branch_above(l, leaf_ix))
                .map(|s| s.branch)
                .collect();
            for step in &leaf.ancestors {
                prop_assert!(selected.contains(&step.branch));
            }
        }
    }

    #[test]
    fn serialisation_roundtrip(forest in forest_strategy()) {
        let text = forest.to_text();
        let reparsed = Forest::parse(&text).unwrap();
        prop_assert_eq!(forest, reparsed);
    }
}
