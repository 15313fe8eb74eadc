//! Depth-soundness properties for the static analyzer.
//!
//! * On the **clear backend** — which counts multiplicative depth
//!   exactly, with no noise model in the way — the predicted depth is
//!   not just an upper bound but *equal* to the observed depth, for
//!   random forests across the paper's whole depth range (2–8) — and
//!   so, stage by stage, are the predicted op counts and depths.
//! * On the **leveled BGV backend** the analyzer's claim is the
//!   admission contract: any circuit the analyzer admits against
//!   [`BackendProfile::of`] must enter the modulus chain at exactly
//!   the predicted level, consume exactly the predicted primes, and
//!   decrypt correctly.

use std::sync::OnceLock;

use copse_core::analyze::{BackendProfile, CircuitReport, EvalShape};
use copse_core::compiler::{CompileOptions, Fusion};
use copse_core::runtime::{Diane, Maurice, ModelForm, Sally};
use copse_fhe::{BgvBackend, BgvParams, ClearBackend, FheBackend, NoiseBudget};
use copse_forest::microbench::{self, MicrobenchSpec};
use proptest::prelude::*;

fn spec(max_depth: u32, precision: u32, n_trees: usize, branches: usize) -> MicrobenchSpec {
    MicrobenchSpec {
        name: "prop",
        max_depth,
        precision,
        n_trees,
        branches,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clear backend: predicted depth is exact (hence sound) for
    /// random forests across depths 2..=8, both model forms, both
    /// pipeline shapes.
    #[test]
    fn predicted_depth_is_exact_on_the_clear_backend(
        max_depth in 2u32..=8,
        precision in 2u32..=6,
        n_trees in 1usize..=3,
        extra_branches in 0usize..=6,
        seed in 0u64..1024,
        mode in 0u8..4,
    ) {
        let (encrypted, fused) = (mode & 1 != 0, mode & 2 != 0);
        // Each tree needs at least `max_depth` branches to reach the
        // requested depth, and at most `2^max_depth - 1` to fit it.
        let per_tree = (max_depth as usize + extra_branches)
            .min((1usize << max_depth) - 1);
        let branches = n_trees * per_tree;
        let forest = microbench::generate(
            &spec(max_depth, precision, n_trees, branches),
            seed,
        );
        let form = if encrypted { ModelForm::Encrypted } else { ModelForm::Plain };
        let fusion = if fused { Fusion::Always } else { Fusion::Never };
        let options = CompileOptions { fuse_reshuffle: fusion, ..CompileOptions::default() };
        let maurice = Maurice::compile(&forest, options).expect("compile");
        let report = CircuitReport::analyze(
            maurice.compiled(),
            &EvalShape::plan(&maurice, form),
        );

        let be = ClearBackend::with_defaults();
        let sally = Sally::host(&be, maurice.deploy(&be, form));
        let diane = Diane::new(&be, maurice.public_query_info());
        let query = diane
            .encrypt_features(&microbench::random_queries(&forest, 1, seed ^ 0xD0)[0])
            .expect("valid query");
        let (result, trace) = sally.classify_traced(&query);
        prop_assert_eq!(be.depth(result.ciphertext()), report.depth);
        // Per stage, the one replay predicts the metered ops and the
        // depth the trace reads after the stage.
        let mut depth = 0;
        for (observed, predicted) in [
            (&trace.comparison, &report.comparison),
            (&trace.reshuffle, &report.reshuffle),
            (&trace.levels, &report.levels),
            (&trace.accumulate, &report.accumulate),
        ] {
            depth += predicted.depth_cost;
            prop_assert_eq!(observed.ops, predicted.ops);
            prop_assert_eq!(observed.depth, depth);
        }
    }
}

/// BGV keygen is the expensive part; share one cyclic tiny backend
/// (6 slots, 10 primes) across all admitted shapes.
fn tiny_bgv() -> &'static BgvBackend {
    static BE: OnceLock<BgvBackend> = OnceLock::new();
    BE.get_or_init(|| BgvBackend::new(BgvParams::tiny()))
}

#[test]
fn admitted_circuits_fit_the_bgv_chain() {
    let be = tiny_bgv();
    let profile = BackendProfile::of(be);
    let NoiseBudget::Chain(rule) = profile.budget else {
        panic!("BGV budgets a modulus chain")
    };
    assert_eq!(profile.slot_capacity, Some(6));

    let mut admitted = 0usize;
    let mut rejected = 0usize;
    for (max_depth, precision, branches) in [
        (1u32, 1u32, 1usize),
        (1, 2, 1),
        (2, 1, 2),
        (2, 2, 3),
        (3, 1, 3),
        (4, 1, 4),
        (4, 2, 5),
        (6, 3, 8),
    ] {
        for fused in [false, true] {
            let forest = microbench::generate(&spec(max_depth, precision, 1, branches), 11);
            let options = CompileOptions {
                fuse_reshuffle: if fused { Fusion::Always } else { Fusion::Never },
                ..CompileOptions::default()
            };
            let maurice = Maurice::compile(&forest, options).expect("compile");
            let shape = EvalShape::plan(&maurice, ModelForm::Plain);
            let report = CircuitReport::analyze(maurice.compiled(), &shape);
            if !report.admit(&profile).is_empty() {
                rejected += 1;
                continue;
            }
            admitted += 1;

            // Ground truth from the exact clear evaluator.
            let clear = ClearBackend::with_defaults();
            let c_sally = Sally::host(&clear, maurice.deploy(&clear, ModelForm::Plain));
            let c_diane = Diane::new(&clear, maurice.public_query_info());
            let features = microbench::random_queries(&forest, 1, 99)[0].clone();
            let expected = c_diane
                .decrypt_result(&c_sally.classify(&c_diane.encrypt_features(&features).unwrap()));

            let sally = Sally::host(be, maurice.deploy(be, ModelForm::Plain));
            let diane = Diane::new(be, maurice.public_query_info());
            let (result, trace) =
                sally.classify_traced(&diane.encrypt_features(&features).unwrap());

            // Exact: the query entered at the predicted level and the
            // result sits exactly where the analyzer says.
            let chain = report.chain(&rule);
            let case = format!("d={max_depth} p={precision} fused={fused}");
            assert_eq!(
                chain.chain_len - trace.entry_depth,
                chain.primes_needed,
                "{case}: entry level"
            );
            assert_eq!(
                be.depth(result.ciphertext()) - trace.entry_depth,
                chain.consumed.iter().sum::<u32>(),
                "{case}: primes consumed"
            );
            let outcome = diane.decrypt_result(&result);
            assert_eq!(
                outcome.plurality_label(),
                expected.plurality_label(),
                "{case}: decryption diverged"
            );
        }
    }
    // The fixture must exercise both sides of the admission check.
    assert!(admitted >= 3, "only {admitted} shapes admitted");
    assert!(rejected >= 1, "no shape stressed the rejection path");
}
