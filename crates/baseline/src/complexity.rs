//! Exact operation counts for the baseline evaluator.
//!
//! The counterpart of the COPSE static analyzer (`copse_core::analyze`)
//! for the Aloufi et al. strategy: counts derived from the kernel
//! structure — a different circuit, so its own model — and asserted
//! against the instrumented meter in tests. Comparing these with
//! COPSE's counts explains Figure 6 analytically — the baseline pays
//! `SecComp` once **per branch** plus one balanced path product per
//! leaf, where COPSE pays one `SecComp` plus `d` matrix products.

use copse_core::analyze;
use copse_core::runtime::ModelForm;
use copse_core::seccomp::SecCompVariant;
use copse_fhe::OpCounts;
use copse_forest::model::{Forest, Node};

/// Operation counts for one baseline classification of `forest` with
/// the model deployed as `form` (matches `classify` op-for-op; the
/// baseline always uses the ladder comparator, which is its own
/// method).
pub fn classify_counts(forest: &Forest, form: ModelForm) -> OpCounts {
    let p = forest.precision();
    let mut c = OpCounts::default();
    for tree in forest.trees() {
        // One SecComp per branch, then one NOT per decision.
        let b_t = tree.branch_count() as u64;
        for _ in 0..b_t {
            c = c.plus(&analyze::seccomp(p, form, SecCompVariant::LadderPrefix).ops);
        }
        c.constant_add += b_t;
        // Per leaf: balanced product over the path literals, then the
        // label-pattern multiply; leaf terms XOR together.
        walk(&tree.root, 0, form, &mut c);
        c.add += tree.leaf_count() as u64 - 1;
    }
    c
}

fn walk(node: &Node, path_len: u64, form: ModelForm, c: &mut OpCounts) {
    match node {
        Node::Leaf { .. } => {
            if path_len == 0 {
                // Unconditional leaf: fresh all-ones (Encrypt + NOT).
                c.encrypt += 1;
                c.constant_add += 1;
            } else {
                // Balanced product of `path_len` literals.
                c.multiply += path_len - 1;
            }
            match form {
                ModelForm::Encrypted => c.multiply += 1,
                ModelForm::Plain => c.constant_multiply += 1,
            }
        }
        Node::Branch { low, high, .. } => {
            walk(low, path_len + 1, form, c);
            walk(high, path_len + 1, form, c);
        }
    }
}

/// Encrypt operations to deploy the baseline model: `b * p` threshold
/// plane ciphertexts plus one label pattern per leaf (encrypted form
/// only).
pub fn deploy_counts(forest: &Forest, form: ModelForm) -> OpCounts {
    let mut c = OpCounts::default();
    if form == ModelForm::Encrypted {
        c.encrypt = forest.branch_count() as u64 * u64::from(forest.precision())
            + forest.leaf_count() as u64;
    }
    c
}

/// Encrypt operations for one baseline query: `p` planes per feature.
pub fn query_counts(forest: &Forest) -> OpCounts {
    OpCounts {
        encrypt: forest.feature_count() as u64 * u64::from(forest.precision()),
        ..OpCounts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, encrypt_query, BaselineModel};
    use copse_core::parallel::Parallelism;
    use copse_fhe::{ClearBackend, FheBackend};
    use copse_forest::microbench::{self, table6_specs};
    use copse_forest::model::{Forest as F, Node as N, Tree as T};

    #[test]
    fn formulas_match_metered_execution_exactly() {
        for spec in table6_specs() {
            let forest = microbench::generate(&spec, 31);
            for form in [ModelForm::Plain, ModelForm::Encrypted] {
                let be = ClearBackend::with_defaults();
                let model = BaselineModel::compile(&forest);

                let before = be.meter().snapshot();
                let deployed = model.deploy(&be, form);
                let deploy_delta = be.meter().snapshot().since(&before);
                assert_eq!(
                    deploy_delta.encrypt,
                    deploy_counts(&forest, form).encrypt,
                    "{} {form:?}: deploy",
                    spec.name
                );

                let q = &microbench::random_queries(&forest, 1, 7)[0];
                let before = be.meter().snapshot();
                let query = encrypt_query(&be, &deployed, q);
                assert_eq!(
                    be.meter().snapshot().since(&before).encrypt,
                    query_counts(&forest).encrypt,
                    "{} {form:?}: query",
                    spec.name
                );

                let before = be.meter().snapshot();
                let _ = classify(&be, &deployed, &query, Parallelism::sequential());
                let delta = be.meter().snapshot().since(&before);
                assert_eq!(
                    delta,
                    classify_counts(&forest, form),
                    "{} {form:?}: classify",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn degenerate_leaf_tree_counts() {
        let forest = F::new(
            1,
            8,
            vec!["a".into(), "b".into()],
            vec![
                T::new(N::branch(0, 5, N::leaf(0), N::leaf(1))),
                T::new(N::leaf(1)),
            ],
        )
        .unwrap();
        let be = ClearBackend::with_defaults();
        let deployed = BaselineModel::compile(&forest).deploy(&be, ModelForm::Encrypted);
        let q = encrypt_query(&be, &deployed, &[3]);
        let before = be.meter().snapshot();
        let _ = classify(&be, &deployed, &q, Parallelism::sequential());
        assert_eq!(
            be.meter().snapshot().since(&before),
            classify_counts(&forest, ModelForm::Encrypted)
        );
    }

    #[test]
    fn baseline_comparison_work_dwarfs_copse() {
        // The analytical content of Figure 6: baseline multiplies grow
        // with b x SecComp while COPSE pays SecComp once.
        use copse_core::analyze::{CircuitReport, EvalShape};
        use copse_core::compiler::CompileOptions;
        use copse_core::runtime::Maurice;
        let forest = microbench::generate(&table6_specs()[1], 31);
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let shape = EvalShape::plan(&maurice, ModelForm::Encrypted);
        let copse = CircuitReport::analyze(maurice.compiled(), &shape).total_ops();
        let base = classify_counts(&forest, ModelForm::Encrypted);
        assert!(
            base.multiply > 3 * copse.multiply,
            "baseline {} vs copse {}",
            base.multiply,
            copse.multiply
        );
    }
}
