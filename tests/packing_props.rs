//! The packing parity battery: cross-query slot packing must be
//! undetectable in the answers. For every batch size, model form,
//! fusion setting, and backend that can pack, the decrypted results of
//! a packed `classify_batch` must equal per-query `classify` bit for
//! bit — and both must equal cleartext reference inference.
//!
//! The battery also covers the hostile and degenerate edges:
//!
//! * a mismatched-width query packed into a shared window must never
//!   contaminate its packmates' slots;
//! * a backend that reports no slot capacity (the uncapped clear
//!   backend) must fall through to the sequential path untouched;
//! * real lattice ciphertexts (prime-`m` BGV) must pack and agree too.

use copse::core::compiler::{CompileOptions, Fusion};
use copse::core::runtime::{
    Diane, EncryptedQuery, EvalOptions, Maurice, ModelForm, PackingMode, Sally,
};
use copse::fhe::{BgvBackend, BgvParams, ClearBackend, ClearConfig, FheBackend};
use copse::forest::microbench::random_queries;
use copse::forest::model::{Forest, Node, Tree};
use proptest::prelude::*;

const SEED: u64 = 0x9ACC;

/// A small two-tree model exercising uneven tree depths, repeated
/// thresholds on one feature, and three labels.
fn battery_forest() -> Forest {
    Forest::parse(
        "precision 4\n\
         labels a b c\n\
         tree (branch 0 8 (branch 1 4 (leaf 0) (leaf 1)) (branch 0 3 (leaf 1) (leaf 2)))\n\
         tree (branch 1 9 (leaf 2) (branch 0 12 (leaf 0) (leaf 1)))\n",
    )
    .expect("valid model")
}

/// A one-branch model whose packed stride fits several lanes into even
/// the 6-slot tiny BGV ring.
fn one_branch_forest() -> Forest {
    Forest::parse("precision 4\nlabels no yes\ntree (branch 0 8 (leaf 0) (leaf 1))\n")
        .expect("valid model")
}

/// A capacity-bounded clear backend admitting exactly `lanes` lanes of
/// this model's stride (probe with unbounded capacity first, since the
/// stride is a property of the compiled model, not the backend).
fn packed_clear(maurice: &Maurice, form: ModelForm, lanes: usize) -> ClearBackend {
    let probe = ClearBackend::new(ClearConfig {
        slot_capacity: Some(1 << 20),
        ..ClearConfig::default()
    });
    let stride = Sally::host(&probe, maurice.deploy(&probe, form))
        .pack_plan()
        .expect("probe capacity fits")
        .stride;
    ClearBackend::new(ClearConfig {
        slot_capacity: Some(lanes * stride),
        ..ClearConfig::default()
    })
}

#[test]
fn packed_batches_match_per_query_classification_at_every_size() {
    let forest = battery_forest();
    for fused in [false, true] {
        let options = CompileOptions {
            fuse_reshuffle: if fused { Fusion::Always } else { Fusion::Never },
            ..CompileOptions::default()
        };
        let maurice = Maurice::compile(&forest, options).expect("compile");
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            let be = packed_clear(&maurice, form, 4);
            let sally = Sally::host(&be, maurice.deploy(&be, form));
            let plan = sally.pack_plan().expect("capacity admits 4 lanes");
            assert_eq!(plan.lanes, 4, "fused={fused} {form:?}");
            let diane = Diane::new(&be, maurice.public_query_info());
            for batch in [1usize, 2, 4, plan.lanes, plan.lanes + 1] {
                let plain = random_queries(&forest, batch, SEED ^ batch as u64);
                let queries: Vec<_> = plain
                    .iter()
                    .map(|q| diane.encrypt_features(q).expect("valid query"))
                    .collect();
                let (results, trace) = sally.classify_batch_traced(&queries);
                assert_eq!(results.len(), batch);
                // A batch of one IS the sequential oracle; everything
                // larger must engage the packed path here.
                assert_eq!(
                    trace.packed_sizes.is_empty(),
                    batch < 2,
                    "fused={fused} {form:?} batch={batch}: packed engagement"
                );
                for (features, (query, result)) in plain.iter().zip(queries.iter().zip(&results)) {
                    let packed = diane.decrypt_result(result);
                    let solo = diane.decrypt_result(&sally.classify(query));
                    assert_eq!(
                        packed.leaf_hits(),
                        solo.leaf_hits(),
                        "fused={fused} {form:?} batch={batch} query {features:?}"
                    );
                    assert_eq!(
                        packed.leaf_hits().to_bools(),
                        forest.classify_leaf_hits(features),
                        "fused={fused} {form:?} batch={batch} query {features:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parity is not a property of the hand-picked battery model: for
    /// random forests, random queries, either fusion setting, and
    /// either model form, packed answers equal solo answers equal the
    /// cleartext reference.
    #[test]
    fn packed_parity_holds_for_random_forests(
        forest in forest_strategy(),
        queries in prop::collection::vec(query_strategy(), 1..8),
        fused in any::<bool>(),
        encrypted_model in any::<bool>(),
    ) {
        prop_assume!(forest.branch_count() > 0);
        let form = if encrypted_model { ModelForm::Encrypted } else { ModelForm::Plain };
        let fusion = if fused { Fusion::Always } else { Fusion::Never };
        let options = CompileOptions { fuse_reshuffle: fusion, ..CompileOptions::default() };
        let maurice = Maurice::compile(&forest, options).expect("compile");
        let be = packed_clear(&maurice, form, 3);
        let sally = Sally::host(&be, maurice.deploy(&be, form));
        prop_assert!(sally.pack_plan().is_some());
        let diane = Diane::new(&be, maurice.public_query_info());
        let enc: Vec<_> = queries
            .iter()
            .map(|q| diane.encrypt_features(q).expect("valid query"))
            .collect();
        let results = sally.classify_batch(&enc);
        for (features, (query, result)) in queries.iter().zip(enc.iter().zip(&results)) {
            let packed = diane.decrypt_result(result);
            let solo = diane.decrypt_result(&sally.classify(query));
            prop_assert_eq!(packed.leaf_hits(), solo.leaf_hits());
            prop_assert_eq!(
                packed.leaf_hits().to_bools(),
                forest.classify_leaf_hits(features)
            );
        }
    }
}

const PRECISION: u32 = 5;
const FEATURES: usize = 2;
const LABELS: usize = 3;

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = (0..LABELS).prop_map(Node::leaf);
    leaf.prop_recursive(3, 12, 2, |inner| {
        (0..FEATURES, 1u64..(1 << PRECISION), inner.clone(), inner)
            .prop_map(|(f, t, low, high)| Node::branch(f, t, low, high))
    })
}

prop_compose! {
    fn forest_strategy()(trees in prop::collection::vec(node_strategy(), 1..3)) -> Forest {
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

/// A query whose planes are narrower than the model's width shares a
/// window with two well-formed queries. Disjoint blocks mean its
/// garbage stays in its own lane: the packmates' answers must be
/// exactly their solo answers.
#[test]
fn a_mismatched_width_query_never_contaminates_its_packmates() {
    let forest = battery_forest();
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compile");
    let form = ModelForm::Encrypted;
    let be = packed_clear(&maurice, form, 3);
    let sally = Sally::host(&be, maurice.deploy(&be, form));
    assert!(sally.pack_plan().is_some());
    let diane = Diane::new(&be, maurice.public_query_info());
    let plain = random_queries(&forest, 3, SEED ^ 0xBAD);
    let mut queries: Vec<_> = plain
        .iter()
        .map(|q| diane.encrypt_features(q).expect("valid query"))
        .collect();
    let want_first = diane.decrypt_result(&sally.classify(&queries[0]));
    let want_last = diane.decrypt_result(&sally.classify(&queries[2]));
    // Sabotage the middle query: truncate every plane to a single
    // slot, a width no well-formed client produces.
    let narrow: Vec<_> = queries[1]
        .planes()
        .iter()
        .map(|plane| be.encrypt_bits(&be.decrypt(plane).truncate(1)))
        .collect();
    queries[1] = EncryptedQuery::from_planes(narrow);
    let (results, trace) = sally.classify_batch_traced(&queries);
    assert_eq!(trace.packed_sizes, vec![3, 3, 3], "one shared window");
    assert_eq!(
        diane.decrypt_result(&results[0]).leaf_hits(),
        want_first.leaf_hits(),
        "lane 0 unaffected by its malformed neighbour"
    );
    assert_eq!(
        diane.decrypt_result(&results[2]).leaf_hits(),
        want_last.leaf_hits(),
        "lane 2 unaffected by its malformed neighbour"
    );
}

/// `PackingMode::Off` must force the sequential path even when the
/// backend could pack — and the answers must not change.
#[test]
fn packing_off_is_sequential_and_identical() {
    let forest = battery_forest();
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compile");
    let be = packed_clear(&maurice, ModelForm::Plain, 4);
    let deployed = maurice.deploy(&be, ModelForm::Plain);
    let auto = Sally::host(&be, deployed.clone());
    let off = Sally::with_options(
        &be,
        deployed,
        EvalOptions {
            packing: PackingMode::Off,
            ..EvalOptions::default()
        },
    );
    assert!(auto.pack_plan().is_some());
    assert!(off.pack_plan().is_none());
    let diane = Diane::new(&be, maurice.public_query_info());
    let queries: Vec<_> = random_queries(&forest, 5, SEED ^ 0x0FF)
        .iter()
        .map(|q| diane.encrypt_features(q).expect("valid query"))
        .collect();
    let (packed, packed_trace) = auto.classify_batch_traced(&queries);
    let (sequential, off_trace) = off.classify_batch_traced(&queries);
    assert!(!packed_trace.packed_sizes.is_empty());
    assert!(off_trace.packed_sizes.is_empty());
    for (p, s) in packed.iter().zip(&sequential) {
        assert_eq!(
            diane.decrypt_result(p).leaf_hits(),
            diane.decrypt_result(s).leaf_hits()
        );
    }
}

/// An uncapped clear backend has no slot ring: it reports no capacity,
/// the planner declines, and `classify_batch` falls through to the
/// sequential path with correct answers and an empty packed dimension.
#[test]
fn uncapped_backend_falls_through_to_the_sequential_path() {
    let forest = one_branch_forest();
    let backend = ClearBackend::with_defaults();
    assert!(backend.slot_capacity().is_none());
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compile");
    let sally = Sally::host(&backend, maurice.deploy(&backend, ModelForm::Encrypted));
    assert!(sally.pack_plan().is_none(), "no capacity, no plan");
    let diane = Diane::new(&backend, maurice.public_query_info());
    let features = [[0u64], [5], [9], [15]];
    let queries: Vec<_> = features
        .iter()
        .map(|q| diane.encrypt_features(q).expect("valid query"))
        .collect();
    let (results, trace) = sally.classify_batch_traced(&queries);
    assert!(
        trace.packed_sizes.is_empty(),
        "fall-through records no lanes"
    );
    for (q, (query, result)) in features.iter().zip(queries.iter().zip(&results)) {
        let batch = diane.decrypt_result(result);
        let solo = diane.decrypt_result(&sally.classify(query));
        assert_eq!(batch.leaf_hits(), solo.leaf_hits(), "query {q:?}");
        assert_eq!(
            batch.leaf_hits().to_bools(),
            forest.classify_leaf_hits(q),
            "query {q:?}"
        );
    }
}

/// Parity on genuine lattice ciphertexts: the 6-slot tiny BGV ring
/// packs several lanes of the one-branch model, and every packed
/// answer still decrypts to the solo answer and the cleartext truth.
#[test]
fn packed_parity_holds_on_real_bgv_ciphertexts() {
    let forest = one_branch_forest();
    // Two more chain primes than the sequential tiny backend: the
    // packed unpack mask costs one extra level, and the planner
    // declines to pack without depth headroom.
    let backend = BgvBackend::new(BgvParams {
        m: 31,
        prime_bits: 25,
        chain_len: 14,
        ks_digit_bits: 7,
        error_eta: 2,
        keygen_seed: 0xE2E,
    });
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compile");
    for form in [ModelForm::Plain, ModelForm::Encrypted] {
        let sally = Sally::host(&backend, maurice.deploy(&backend, form));
        let plan = sally
            .pack_plan()
            .expect("6 slots fit several one-branch lanes");
        assert!(plan.lanes >= 2, "{form:?}: lanes {}", plan.lanes);
        let diane = Diane::new(&backend, maurice.public_query_info());
        for batch in [2usize, plan.lanes, plan.lanes + 1] {
            let features: Vec<[u64; 1]> = (0..batch).map(|i| [(i as u64 * 5) % 16]).collect();
            let queries: Vec<_> = features
                .iter()
                .map(|q| diane.encrypt_features(q).expect("valid query"))
                .collect();
            let (results, trace) = sally.classify_batch_traced(&queries);
            assert!(
                !trace.packed_sizes.is_empty(),
                "{form:?} batch={batch}: packing engaged"
            );
            for (q, (query, result)) in features.iter().zip(queries.iter().zip(&results)) {
                let packed = diane.decrypt_result(result);
                let solo = diane.decrypt_result(&sally.classify(query));
                assert_eq!(
                    packed.leaf_hits(),
                    solo.leaf_hits(),
                    "{form:?} batch={batch} query {q:?}"
                );
                assert_eq!(
                    packed.leaf_hits().to_bools(),
                    forest.classify_leaf_hits(q),
                    "{form:?} batch={batch} query {q:?}"
                );
            }
        }
    }
}
