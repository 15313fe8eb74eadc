//! Cross-crate integration tests: the full three-party protocol over
//! the paper's benchmark suite, checked against plaintext reference
//! inference and against the Aloufi et al. baseline.

use copse::baseline;
use copse::core::compiler::{Accumulation, CompileOptions, Fusion};
use copse::core::matmul::MatMulOptions;
use copse::core::parallel::Parallelism;
use copse::core::runtime::{Diane, EvalOptions, Maurice, ModelForm, Sally};
use copse::core::seccomp::SecCompVariant;
use copse::fhe::ClearBackend;
use copse::forest::microbench::{self, table6_specs};
use copse::forest::model::Forest;
use copse::forest::zoo;

fn run_copse(
    forest: &Forest,
    form: ModelForm,
    compile: CompileOptions,
    eval: EvalOptions,
    queries: &[Vec<u64>],
) -> Vec<Vec<bool>> {
    let backend = ClearBackend::with_defaults();
    let maurice = Maurice::compile(forest, compile).expect("compiles");
    let sally = Sally::with_options(&backend, maurice.deploy(&backend, form), eval);
    let diane = Diane::new(&backend, maurice.public_query_info());
    queries
        .iter()
        .map(|q| {
            let query = diane.encrypt_features(q).expect("valid query");
            diane
                .decrypt_result(&sally.classify(&query))
                .leaf_hits()
                .to_bools()
        })
        .collect()
}

#[test]
fn whole_micro_suite_matches_reference_encrypted() {
    for spec in table6_specs() {
        let forest = microbench::generate(&spec, 7);
        let queries = microbench::random_queries(&forest, 10, 1);
        let got = run_copse(
            &forest,
            ModelForm::Encrypted,
            CompileOptions::default(),
            EvalOptions::default(),
            &queries,
        );
        for (q, hits) in queries.iter().zip(&got) {
            assert_eq!(hits, &forest.classify_leaf_hits(q), "{} {q:?}", spec.name);
        }
    }
}

#[test]
fn realworld_model_end_to_end() {
    let model = zoo::realworld_model("income", 5, 3);
    let queries = microbench::random_queries(&model.forest, 4, 2);
    let got = run_copse(
        &model.forest,
        ModelForm::Encrypted,
        CompileOptions::default(),
        EvalOptions::default(),
        &queries,
    );
    for (q, hits) in queries.iter().zip(&got) {
        assert_eq!(hits, &model.forest.classify_leaf_hits(q));
    }
}

#[test]
fn copse_and_baseline_agree_on_per_tree_labels() {
    // COPSE returns an N-hot leaf vector; the baseline returns one
    // label per tree. Decoding COPSE's vector through the codebook
    // must give the same per-tree labels.
    let forest = microbench::generate(&table6_specs()[5], 19); // width677
    let backend = ClearBackend::with_defaults();

    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compiles");
    let sally = Sally::host(&backend, maurice.deploy(&backend, ModelForm::Encrypted));
    let diane = Diane::new(&backend, maurice.public_query_info());

    let bl = baseline::BaselineModel::compile(&forest).deploy(&backend, ModelForm::Encrypted);

    // Leaf -> tree mapping for decoding COPSE output per tree.
    let mut leaf_tree = Vec::new();
    for (t, tree) in forest.trees().iter().enumerate() {
        leaf_tree.extend(std::iter::repeat_n(t, tree.leaf_count()));
    }
    let codebook = maurice.public_query_info().codebook;

    for q in microbench::random_queries(&forest, 8, 77) {
        let query = diane.encrypt_features(&q).expect("valid");
        let outcome = diane.decrypt_result(&sally.classify(&query));
        let mut copse_labels = vec![usize::MAX; forest.trees().len()];
        for leaf in outcome.selected_leaves() {
            copse_labels[leaf_tree[leaf]] = codebook[leaf];
        }

        let bq = baseline::encrypt_query(&backend, &bl, &q);
        let result = baseline::classify(&backend, &bl, &bq, Parallelism::sequential());
        let baseline_labels = baseline::decrypt_labels(&backend, &bl, &result);

        assert_eq!(copse_labels, baseline_labels, "query {q:?}");
        assert_eq!(baseline_labels, forest.classify_per_tree(&q));
    }
}

#[test]
fn every_option_combination_is_equivalent() {
    let forest = microbench::generate(&table6_specs()[1], 23);
    let queries = microbench::random_queries(&forest, 5, 5);
    let reference: Vec<Vec<bool>> = queries
        .iter()
        .map(|q| forest.classify_leaf_hits(q))
        .collect();

    for form in [ModelForm::Plain, ModelForm::Encrypted] {
        for fuse in [false, true] {
            for acc in [Accumulation::BalancedTree, Accumulation::Linear] {
                for comparator in [SecCompVariant::LadderPrefix, SecCompVariant::Tree] {
                    for threads in [1usize, 4] {
                        let skip = form == ModelForm::Plain;
                        let got = run_copse(
                            &forest,
                            form,
                            CompileOptions {
                                fuse_reshuffle: if fuse { Fusion::Always } else { Fusion::Never },
                                accumulation: acc,
                                ..CompileOptions::default()
                            },
                            EvalOptions {
                                parallelism: Parallelism { threads },
                                matmul: MatMulOptions {
                                    skip_zero_diagonals: skip,
                                    ..MatMulOptions::default()
                                },
                                comparator,
                                ..EvalOptions::default()
                            },
                            &queries,
                        );
                        assert_eq!(
                            got, reference,
                            "{form:?} fuse={fuse} {acc:?} {comparator:?} threads={threads}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn model_text_roundtrip_preserves_secure_results() {
    // Serialise -> parse -> compile must classify identically.
    let forest = microbench::generate(&table6_specs()[0], 3);
    let reparsed = Forest::parse(&forest.to_text()).expect("roundtrip parses");
    assert_eq!(forest, reparsed);
    let queries = microbench::random_queries(&forest, 5, 9);
    assert_eq!(
        run_copse(
            &forest,
            ModelForm::Encrypted,
            CompileOptions::default(),
            EvalOptions::default(),
            &queries
        ),
        run_copse(
            &reparsed,
            ModelForm::Encrypted,
            CompileOptions::default(),
            EvalOptions::default(),
            &queries
        )
    );
}

#[test]
fn depth_budget_failure_is_loud_and_parameterised() {
    // Insufficient modulus bits must abort with an instructive panic,
    // not decrypt garbage.
    use copse::fhe::ClearConfig;
    let forest = microbench::generate(&table6_specs()[7], 3); // prec16
    let backend = ClearBackend::new(ClearConfig {
        max_depth: 3,
        slot_capacity: None,
        work_per_op: 0,
    });
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compiles");
    let sally = Sally::host(&backend, maurice.deploy(&backend, ModelForm::Encrypted));
    let diane = Diane::new(&backend, maurice.public_query_info());
    let query = diane
        .encrypt_features(&microbench::random_queries(&forest, 1, 4)[0])
        .expect("valid");
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = sally.classify(&query);
    }))
    .expect_err("depth budget must trip");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("depth budget exhausted"), "{msg}");
}
