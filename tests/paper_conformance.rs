//! Conformance against the paper's printed artifacts: Table 1/2
//! formulas vs metered runs on the whole suite, Tables 3/4 leakage,
//! Table 5 parameter sweep outcome, Table 6 shapes.

use copse::analyze::{CircuitReport, EvalShape};
use copse::core::compiler::CompileOptions;
use copse::core::complexity;
use copse::core::leakage::{leakage_profile, LeakedItem, Scenario};
use copse::core::runtime::{Diane, Maurice, ModelForm, Sally};
use copse::fhe::{ClearBackend, EncryptionParams, FheBackend, SecurityLevel};
use copse::forest::microbench::{self, table6_specs};
use copse::forest::zoo;

#[test]
fn complexity_formulas_hold_across_the_full_suite() {
    // Every benchmark model, including a trained real-world one:
    // predicted counts and depth must equal the meter exactly.
    let mut forests = vec![zoo::realworld_model("soccer", 3, 5).forest];
    forests.extend(table6_specs().iter().map(|s| microbench::generate(s, 11)));

    for forest in &forests {
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            let backend = ClearBackend::with_defaults();
            let maurice = Maurice::compile(forest, CompileOptions::default()).unwrap();
            let ours = CircuitReport::analyze(maurice.compiled(), &EvalShape::plan(&maurice, form));
            let sally = Sally::host(&backend, maurice.deploy(&backend, form));
            let diane = Diane::new(&backend, maurice.public_query_info());
            let query = diane
                .encrypt_features(&microbench::random_queries(forest, 1, 3)[0])
                .unwrap();
            let before = backend.meter().snapshot();
            let result = sally.classify(&query);
            let measured = backend.meter().snapshot().since(&before);
            assert_eq!(
                measured,
                ours.total_ops(),
                "{form:?} b={}",
                forest.branch_count()
            );
            assert_eq!(backend.depth(result.ciphertext()), ours.depth);
        }
    }
}

#[test]
fn our_circuits_fit_the_paper_depth_bound() {
    for spec in table6_specs() {
        let forest = microbench::generate(&spec, 11);
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let meta = &maurice.compiled().meta;
        let ours = CircuitReport::analyze(
            maurice.compiled(),
            &EvalShape::plan(&maurice, ModelForm::Encrypted),
        );
        assert!(
            ours.depth <= complexity::paper::total_depth(meta.precision, meta.max_level),
            "{}",
            spec.name
        );
    }
}

#[test]
fn table3_and_table4_match_the_paper() {
    use LeakedItem::*;
    // Table 3 rows.
    let rows = [
        (
            Scenario::OffloadedCompute,
            vec![QuantizedBranching, Branching, MaxDepth],
            vec![],
            vec![],
        ),
        (
            Scenario::ServerOwnsModel,
            vec![],
            vec![],
            vec![MaxMultiplicity, Branching],
        ),
        (
            Scenario::ClientEvaluates,
            vec![QuantizedBranching, Branching, MaxMultiplicity, MaxDepth],
            vec![],
            vec![QuantizedBranching, Branching, MaxMultiplicity],
        ),
        // Table 4 rows.
        (
            Scenario::ThreeParty,
            vec![QuantizedBranching, Branching, MaxDepth, MaxMultiplicity],
            vec![],
            vec![MaxMultiplicity, Branching],
        ),
        (
            Scenario::ThreePartyServerModelCollusion,
            vec![Everything],
            vec![Everything],
            vec![MaxMultiplicity, Branching],
        ),
        (
            Scenario::ThreePartyServerDataCollusion,
            vec![Everything],
            vec![],
            vec![Everything],
        ),
    ];
    for (scenario, s, m, d) in rows {
        let p = leakage_profile(scenario);
        assert_eq!(p.to_server, s, "{}", scenario.label());
        assert_eq!(p.to_model_owner, m, "{}", scenario.label());
        assert_eq!(p.to_data_owner, d, "{}", scenario.label());
    }
}

#[test]
fn table5_sweep_selects_the_paper_parameters() {
    // Requirement: the deepest microbenchmark circuit at the paper's
    // depth bound, 128-bit security.
    let required_depth = table6_specs()
        .iter()
        .map(|s| complexity::paper::total_depth(s.precision, s.max_depth))
        .max()
        .unwrap();
    let forest = microbench::generate(&table6_specs()[1], 11);
    let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
    let ops = CircuitReport::analyze(
        maurice.compiled(),
        &EvalShape::plan(&maurice, ModelForm::Encrypted),
    )
    .total_ops();

    let best = EncryptionParams::sweep_grid()
        .into_iter()
        .filter(|p| {
            p.security.bits() >= SecurityLevel::Bits128.bits() && p.depth_budget() >= required_depth
        })
        .min_by(|a, b| {
            a.cost_model()
                .modeled_ms(&ops)
                .total_cmp(&b.cost_model().modeled_ms(&ops))
        })
        .expect("feasible point exists");
    assert_eq!(best, EncryptionParams::paper_optimal());
}

#[test]
fn table6_microbench_specs_are_pinned() {
    let specs = table6_specs();
    let rows: Vec<(&str, u32, u32, usize, usize)> = specs
        .iter()
        .map(|s| (s.name, s.max_depth, s.precision, s.n_trees, s.branches))
        .collect();
    assert_eq!(
        rows,
        vec![
            ("depth4", 4, 8, 2, 15),
            ("depth5", 5, 8, 2, 15),
            ("depth6", 6, 8, 2, 15),
            ("width55", 5, 8, 2, 10),
            ("width78", 5, 8, 2, 15),
            ("width677", 5, 8, 3, 20),
            ("prec8", 5, 8, 2, 15),
            ("prec16", 5, 16, 2, 15),
        ]
    );
}

#[test]
fn encryption_cost_tracks_table1d_and_1e() {
    let forest = microbench::generate(&table6_specs()[2], 4);
    let backend = ClearBackend::with_defaults();
    let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
    let meta = maurice.compiled().meta.clone();

    let before = backend.meter().snapshot();
    let _ = maurice.deploy(&backend, ModelForm::Encrypted);
    let model_encrypts = backend.meter().snapshot().since(&before).encrypt;
    // Table 1d: p + q + d(b+1).
    assert_eq!(
        model_encrypts,
        u64::from(meta.precision)
            + meta.quantized as u64
            + u64::from(meta.max_level) * (meta.branches as u64 + 1)
    );

    let diane = Diane::new(&backend, maurice.public_query_info());
    let before = backend.meter().snapshot();
    let _ = diane.encrypt_features(&[1, 2]).unwrap();
    // One ciphertext per bit plane (the paper's Table 1e says 1 fully
    // packed ciphertext; see `CircuitReport::query_encrypt_ops`).
    assert_eq!(
        backend.meter().snapshot().since(&before).encrypt,
        u64::from(meta.precision)
    );
}
