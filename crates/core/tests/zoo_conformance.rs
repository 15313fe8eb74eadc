//! The analyzer's honesty suite: for every model in the benchmark
//! zoo, the static per-stage predictions must equal the scoped
//! [`OpMeter`](copse_fhe::OpMeter) measurements **op-for-op**, and the
//! predicted multiplicative depth must equal the depth the clear
//! backend observes on the result ciphertext. On real BGV, the
//! predicted entry level and the chain primes every stage consumes
//! must equal the levels evaluation reaches.
//!
//! This is the property that turns the admission check from a
//! heuristic into a proof: if the static counts are exact on every
//! shape we ship, a deploy-time rejection is a statement about the
//! circuit, not a guess.

use copse_core::analyze::{AdmissionIssue, BackendProfile, ChainReport, CircuitReport, EvalShape};
use copse_core::compiler::{Accumulation, CompileOptions, Fusion};
use copse_core::parallel::Parallelism;
use copse_core::runtime::{Diane, EvalOptions, Maurice, ModelForm, PackPlan, Sally};
use copse_core::seccomp::SecCompVariant;
use copse_fhe::{
    BgvBackend, BgvParams, ClearBackend, ClearConfig, FheBackend, KeySwitchCounts, NoiseBudget,
    OpCounts,
};
use copse_forest::microbench::random_queries;
use copse_forest::model::Forest;
use copse_forest::zoo;
use std::sync::OnceLock;

const SUITE_SEED: u64 = 2021;

/// Runs one traced classification and returns the measured per-stage
/// ops alongside the result depth.
fn measure(
    maurice: &Maurice,
    form: ModelForm,
    eval: EvalOptions,
    n_queries: usize,
    forest: &copse_forest::model::Forest,
) -> ([OpCounts; 4], u32, OpCounts) {
    let be = ClearBackend::with_defaults();
    let before = be.meter().snapshot();
    let deployed = maurice.deploy(&be, form);
    let deploy_ops = be.meter().snapshot().since(&before);
    let sally = Sally::with_options(&be, deployed, eval);
    let diane = Diane::new(&be, maurice.public_query_info());
    let queries: Vec<_> = random_queries(forest, n_queries, SUITE_SEED ^ 0xACE)
        .iter()
        .map(|q| diane.encrypt_features(q).expect("valid query"))
        .collect();
    let (results, trace) = sally.classify_batch_traced(&queries);
    (
        [
            trace.comparison.ops,
            trace.reshuffle.ops,
            trace.levels.ops,
            trace.accumulate.ops,
        ],
        be.depth(results[0].ciphertext()),
        deploy_ops,
    )
}

/// Per-stage scaling of a report to an `n`-query batch.
fn scaled(report: &CircuitReport, n: u64) -> [OpCounts; 4] {
    let times = |ops: OpCounts| -> OpCounts {
        let mut out = OpCounts::default();
        for op in copse_fhe::FheOp::ALL {
            *out.get_mut(op) = n * ops.get(op);
        }
        out
    };
    [
        times(report.comparison.ops),
        times(report.reshuffle.ops),
        times(report.levels.ops),
        times(report.accumulate.ops),
    ]
}

#[test]
fn static_prediction_matches_the_meter_for_every_zoo_model() {
    for model in zoo::paper_suite(SUITE_SEED) {
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            let maurice =
                Maurice::compile(&model.forest, CompileOptions::default()).expect("compile");
            let shape = EvalShape::plan(&maurice, form);
            let report = CircuitReport::analyze(maurice.compiled(), &shape);

            let (measured, observed_depth, deploy_ops) =
                measure(&maurice, form, EvalOptions::default(), 1, &model.forest);
            let predicted = [
                report.comparison.ops,
                report.reshuffle.ops,
                report.levels.ops,
                report.accumulate.ops,
            ];
            for (stage, (p, m)) in ["comparison", "reshuffle", "levels", "accumulate"]
                .iter()
                .zip(predicted.iter().zip(measured.iter()))
            {
                assert_eq!(p, m, "{} {form:?}: {stage} stage ops", model.name);
            }
            assert_eq!(
                observed_depth, report.depth,
                "{} {form:?}: result depth",
                model.name
            );
            assert_eq!(
                deploy_ops.encrypt, report.model_encrypt_ops.encrypt,
                "{} {form:?}: deploy encrypts",
                model.name
            );
        }
    }
}

#[test]
fn fused_pipelines_conform_too() {
    for model in zoo::paper_suite(SUITE_SEED).into_iter().take(3) {
        let options = CompileOptions {
            fuse_reshuffle: Fusion::Always,
            ..CompileOptions::default()
        };
        let maurice = Maurice::compile(&model.forest, options).expect("compile");
        let shape = EvalShape::plan(&maurice, ModelForm::Plain);
        let report = CircuitReport::analyze(maurice.compiled(), &shape);
        assert!(maurice.compiled().fused);
        assert_eq!(report.reshuffle.ops, OpCounts::default());

        let (measured, observed_depth, _) = measure(
            &maurice,
            ModelForm::Plain,
            EvalOptions::default(),
            1,
            &model.forest,
        );
        assert_eq!(measured[0], report.comparison.ops, "{}", model.name);
        assert_eq!(measured[1], OpCounts::default(), "{}", model.name);
        assert_eq!(measured[2], report.levels.ops, "{}", model.name);
        assert_eq!(measured[3], report.accumulate.ops, "{}", model.name);
        assert_eq!(observed_depth, report.depth, "{}", model.name);
    }
}

#[test]
fn batches_scale_each_stage_linearly() {
    let model = &zoo::paper_suite(SUITE_SEED)[0];
    let maurice = Maurice::compile(&model.forest, CompileOptions::default()).expect("compile");
    let shape = EvalShape::plan(&maurice, ModelForm::Encrypted);
    let report = CircuitReport::analyze(maurice.compiled(), &shape);
    let (measured, _, _) = measure(
        &maurice,
        ModelForm::Encrypted,
        EvalOptions::default(),
        3,
        &model.forest,
    );
    assert_eq!(measured, scaled(&report, 3));
}

/// Runs one traced **packed** batch of exactly `lanes` queries (one
/// full chunk) on a capacity-bounded clear backend and returns the
/// measured per-stage ops, the observed result depth, and the plan the
/// runtime actually used.
fn measure_packed(
    maurice: &Maurice,
    form: ModelForm,
    lanes: usize,
    forest: &copse_forest::model::Forest,
) -> ([OpCounts; 4], u32, PackPlan) {
    // The analyzer's solo slot width is the stride; bound the real
    // backend to exactly `lanes` of them (the runtime's own stride is
    // checked by the plan it settles on).
    let stride = CircuitReport::analyze(maurice.compiled(), &EvalShape::plan(maurice, form))
        .min_slot_capacity;
    let be = ClearBackend::new(ClearConfig {
        slot_capacity: Some(lanes * stride),
        ..ClearConfig::default()
    });
    let sally = Sally::host(&be, maurice.deploy(&be, form));
    // Warm before measuring: tiling the model is one-time deploy-like
    // work, and the prediction is the steady-state per-chunk cost.
    let plan = sally.warm_packed().expect("lanes fit by construction");
    assert_eq!(plan.lanes, lanes);
    let diane = Diane::new(&be, maurice.public_query_info());
    let queries: Vec<_> = random_queries(forest, lanes, SUITE_SEED ^ 0xBEE)
        .iter()
        .map(|q| diane.encrypt_features(q).expect("valid query"))
        .collect();
    let (results, trace) = sally.classify_batch_traced(&queries);
    assert_eq!(
        trace.packed_sizes,
        vec![lanes as u32; lanes],
        "one full chunk"
    );
    (
        [
            trace.comparison.ops,
            trace.reshuffle.ops,
            trace.levels.ops,
            trace.accumulate.ops,
        ],
        be.depth(results[0].ciphertext()),
        plan,
    )
}

#[test]
fn packed_shapes_conform_op_for_op() {
    for model in zoo::paper_suite(SUITE_SEED) {
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            let maurice =
                Maurice::compile(&model.forest, CompileOptions::default()).expect("compile");
            let (measured, observed_depth, plan) = measure_packed(&maurice, form, 3, &model.forest);
            let shape = EvalShape {
                packing: Some(plan),
                ..EvalShape::plan(&maurice, form)
            };
            let report = CircuitReport::analyze(maurice.compiled(), &shape);
            let predicted = [
                report.comparison.ops,
                report.reshuffle.ops,
                report.levels.ops,
                report.accumulate.ops,
            ];
            for (stage, (p, m)) in ["comparison", "reshuffle", "levels", "accumulate"]
                .iter()
                .zip(predicted.iter().zip(measured.iter()))
            {
                assert_eq!(p, m, "{} {form:?}: packed {stage} stage ops", model.name);
            }
            assert_eq!(
                observed_depth, report.depth,
                "{} {form:?}: packed result depth",
                model.name
            );
            // What packing is for: the chunk's total (analyzed, and by
            // the stage equalities above also metered) must undercut
            // running its queries one by one.
            let lanes = plan.lanes as u64;
            let sequential =
                CircuitReport::analyze(maurice.compiled(), &EvalShape::plan(&maurice, form));
            let (chunk, solo) = (report.total_ops(), sequential.total_ops());
            assert!(
                chunk.total_homomorphic() < lanes * solo.total_homomorphic(),
                "{} {form:?}: a packed chunk of {lanes} costs {chunk}, no less than {lanes} x {solo}",
                model.name
            );
        }
    }
}

#[test]
fn admission_rejects_a_pack_exceeding_capacity() {
    let model = &zoo::paper_suite(SUITE_SEED)[0];
    let maurice = Maurice::compile(&model.forest, CompileOptions::default()).expect("compile");
    let sequential = CircuitReport::analyze(
        maurice.compiled(),
        &EvalShape::plan(&maurice, ModelForm::Plain),
    );
    let stride = sequential.min_slot_capacity;
    let shape = EvalShape {
        packing: Some(PackPlan { lanes: 4, stride }),
        ..EvalShape::plan(&maurice, ModelForm::Plain)
    };
    let report = CircuitReport::analyze(maurice.compiled(), &shape);
    assert_eq!(report.min_slot_capacity, 4 * stride);
    assert_eq!(report.depth, sequential.depth + 1, "unpack mask level");

    // The exact pack fits...
    let fits = BackendProfile {
        budget: NoiseBudget::Depth(report.depth),
        slot_capacity: Some(4 * stride),
    };
    assert!(report.admit(&fits).is_empty());
    // ...one slot less and admission rejects the pack with numbers.
    let narrow = BackendProfile {
        slot_capacity: Some(4 * stride - 1),
        ..fits
    };
    assert_eq!(
        report.admit(&narrow),
        vec![AdmissionIssue::SlotCapacityExceeded {
            required: 4 * stride,
            available: 4 * stride - 1,
        }]
    );
}

#[test]
fn result_shuffle_prediction_conforms() {
    let model = &zoo::paper_suite(SUITE_SEED)[1];
    let maurice = Maurice::compile(&model.forest, CompileOptions::default()).expect("compile");
    let shape = EvalShape {
        result_shuffle: true,
        ..EvalShape::plan(&maurice, ModelForm::Plain)
    };
    let report = CircuitReport::analyze(maurice.compiled(), &shape);
    let eval = EvalOptions {
        shuffle_seed: Some(0xC0FFEE),
        ..EvalOptions::default()
    };
    let (measured, observed_depth, _) = measure(&maurice, ModelForm::Plain, eval, 1, &model.forest);
    assert_eq!(measured[3], report.accumulate.ops, "shuffled accumulate");
    assert_eq!(observed_depth, report.depth, "shuffled depth");
}

/// The evaluation choices off the default plan — the paper's ladder
/// comparator, linear accumulation, and both together — conform per
/// stage and in result depth too, in both model forms, on models that
/// spread depth (4, 6) and precision (8, 16). Nothing else meters
/// these shapes; a new comparator lands against this battery.
#[test]
fn comparator_and_accumulation_variants_conform() {
    let suite = zoo::micro_suite(SUITE_SEED);
    for name in ["depth4", "depth6", "prec16"] {
        let model = suite.iter().find(|m| m.name == name).expect("zoo model");
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            for (comparator, accumulation) in [
                (SecCompVariant::LadderPrefix, Accumulation::BalancedTree),
                (SecCompVariant::Tree, Accumulation::Linear),
                (SecCompVariant::LadderPrefix, Accumulation::Linear),
            ] {
                let options = CompileOptions {
                    accumulation,
                    ..CompileOptions::default()
                };
                let maurice = Maurice::compile(&model.forest, options).expect("compile");
                let shape = EvalShape {
                    comparator,
                    ..EvalShape::plan(&maurice, form)
                };
                let report = CircuitReport::analyze(maurice.compiled(), &shape);
                let eval = EvalOptions {
                    comparator,
                    ..EvalOptions::default()
                };
                let (measured, observed_depth, _) = measure(&maurice, form, eval, 1, &model.forest);
                let predicted = [
                    report.comparison.ops,
                    report.reshuffle.ops,
                    report.levels.ops,
                    report.accumulate.ops,
                ];
                let case = format!("{name} {form:?} {comparator:?} {accumulation:?}");
                for (stage, (p, m)) in ["comparison", "reshuffle", "levels", "accumulate"]
                    .iter()
                    .zip(predicted.iter().zip(measured.iter()))
                {
                    assert_eq!(p, m, "{case}: {stage} stage ops");
                }
                assert_eq!(observed_depth, report.depth, "{case}: result depth");

                // Same multiplies, different depth: the linear fold is
                // strictly deeper than the balanced tree once d >= 3.
                let d = maurice.compiled().meta.max_level;
                if accumulation == Accumulation::Linear && d >= 3 {
                    let balanced = CircuitReport::analyze(
                        maurice.compiled(),
                        &EvalShape {
                            accumulation: Accumulation::BalancedTree,
                            ..shape
                        },
                    );
                    assert!(report.depth > balanced.depth, "{case}");
                    assert_eq!(report.total_ops(), balanced.total_ops(), "{case}");
                }
            }
        }
    }
}

/// Evaluates `batch` queries of `forest` (one solo unit, or one full
/// packed chunk) on real BGV and asserts the analyzer's chain report
/// for the shape Sally ran equals what evaluation observed: the entry
/// level, the primes every stage consumed, and correct answers. `None`
/// when admission rejects the shape (it does not fit the chain).
fn assert_chain_conforms(
    be: &BgvBackend,
    maurice: &Maurice,
    forest: &Forest,
    form: ModelForm,
    eval: EvalOptions,
    packed: bool,
    case: &str,
) -> Option<ChainReport> {
    let NoiseBudget::Chain(rule) = be.noise_budget() else {
        unreachable!("BGV budgets a modulus chain")
    };
    let solo = EvalShape {
        comparator: eval.comparator,
        result_shuffle: eval.shuffle_seed.is_some(),
        ..EvalShape::plan(maurice, form)
    };
    let fits = |shape: &EvalShape| {
        let report = CircuitReport::analyze(maurice.compiled(), shape);
        report
            .admit(&BackendProfile::of(be))
            .is_empty()
            .then_some(report)
    };
    fits(&solo)?;
    let sally = Sally::with_options(be, maurice.deploy(be, form), eval);
    let plan = sally.pack_plan().filter(|_| packed);
    if packed && plan.is_none() {
        return None;
    }
    let report = fits(&EvalShape {
        packing: plan,
        ..solo
    })?;
    let chain = report.chain(&rule);
    let info = sally.client_query_info();
    let diane = Diane::new(be, info);
    let features = random_queries(forest, plan.map_or(1, |p| p.lanes), SUITE_SEED ^ 0x1E7);
    let queries: Vec<_> = features
        .iter()
        .map(|q| diane.encrypt_features(q).expect("valid query"))
        .collect();
    let (results, trace) = sally.classify_batch_traced(&queries);

    let depths = [
        trace.entry_depth,
        trace.comparison.depth,
        trace.reshuffle.depth,
        trace.levels.depth,
        trace.accumulate.depth,
    ];
    let observed = [0, 1, 2, 3].map(|s| depths[s + 1] - depths[s]);
    let chain_len = rule.chain_len() as u32;
    assert_eq!(
        chain_len - depths[0],
        chain.primes_needed,
        "{case}: entry level"
    );
    assert_eq!(
        observed, chain.consumed,
        "{case}: primes consumed per stage"
    );
    for (q, result) in features.iter().zip(&results) {
        let outcome = diane.decrypt_result(result);
        assert_eq!(
            outcome.plurality_label(),
            Some(forest.labels()[forest.classify_plurality(q)].as_str()),
            "{case}: query {q:?}"
        );
    }
    Some(chain)
}

/// Real BGV at the tiny parameter point (6 slots, 10 primes).
fn tiny_bgv() -> &'static BgvBackend {
    static BE: OnceLock<BgvBackend> = OnceLock::new();
    BE.get_or_init(|| BgvBackend::new(BgvParams::tiny()))
}

/// Models that fit the tiny ring's 6 slots: one branch (it packs three
/// lanes), a three-leaf tree, and the paper's Fig. 1 tree, whose
/// operands span all six slots.
fn tiny_forests() -> Vec<(&'static str, Forest)> {
    [
        (
            "one-branch",
            "precision 4\nlabels no yes\ntree (branch 0 8 (leaf 0) (leaf 1))\n",
        ),
        (
            "three-leaf",
            "precision 4\nlabels no maybe yes\n\
             tree (branch 0 8 (branch 1 4 (leaf 0) (leaf 1)) (branch 0 3 (leaf 1) (leaf 2)))\n",
        ),
        (
            "fig1",
            "precision 6\nlabels L0 L1 L2 L3 L4 L5\n\
             tree (branch 1 50 (branch 0 30 (branch 1 10 (leaf 0) (leaf 1)) \
             (branch 0 20 (leaf 2) (leaf 3))) (branch 1 40 (leaf 4) (leaf 5)))\n",
        ),
    ]
    .into_iter()
    .map(|(name, text)| (name, Forest::parse(text).expect("valid model")))
    .collect()
}

/// The level battery on real BGV: every shape of the tiny models that
/// fits — both forms, fused and unfused, with and without the result
/// shuffle, solo and packed — at stage thread counts 1, 2 and 7
/// (chunked `mat_vec` folds must not move a level).
#[test]
fn predicted_primes_match_real_bgv_after_every_stage() {
    let be = tiny_bgv();
    let (mut conformed, mut packed) = (0usize, 0usize);
    for (name, forest) in tiny_forests() {
        for fused in [false, true] {
            let options = CompileOptions {
                fuse_reshuffle: if fused { Fusion::Always } else { Fusion::Never },
                ..CompileOptions::default()
            };
            let maurice = Maurice::compile(&forest, options).expect("compile");
            for form in [ModelForm::Plain, ModelForm::Encrypted] {
                for shuffle_seed in [None, Some(0xC0FFEE)] {
                    for threads in [1usize, 2, 7] {
                        let eval = EvalOptions {
                            parallelism: Parallelism { threads },
                            shuffle_seed,
                            ..EvalOptions::default()
                        };
                        for pack in [false, true] {
                            let case = format!(
                                "{name} fused={fused} {form:?} shuffle={} threads={threads} \
                                 packed={pack}",
                                shuffle_seed.is_some()
                            );
                            if assert_chain_conforms(be, &maurice, &forest, form, eval, pack, &case)
                                .is_some()
                            {
                                conformed += 1;
                                packed += usize::from(pack);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        conformed >= 80,
        "only {conformed} shapes fit the tiny chain"
    );
    assert!(
        packed >= 24,
        "only {packed} packed shapes fit the tiny chain"
    );
}

/// The noise canary: a chain one prime short of what a circuit needs
/// is refused at admission, and a chain of exactly that length
/// evaluates it correctly.
#[test]
fn a_chain_one_prime_short_is_rejected_and_an_exact_one_decrypts() {
    for (name, forest) in tiny_forests() {
        let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compile");
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            let shape = EvalShape::plan(&maurice, form);
            let report = CircuitReport::analyze(maurice.compiled(), &shape);
            let NoiseBudget::Chain(rule) = tiny_bgv().noise_budget() else {
                unreachable!("BGV budgets a modulus chain")
            };
            let needed = report.chain(&rule).primes_needed as usize;
            let short = BgvBackend::new(BgvParams {
                chain_len: needed - 1,
                ..BgvParams::tiny()
            });
            assert_eq!(
                report.admit(&BackendProfile::of(&short)),
                vec![AdmissionIssue::ChainExceeded {
                    required: needed as u32,
                    available: needed as u32 - 1,
                }],
                "{name} {form:?}"
            );
            let exact = BgvBackend::new(BgvParams {
                chain_len: needed,
                ..BgvParams::tiny()
            });
            let eval = EvalOptions {
                packing: copse_core::runtime::PackingMode::Off,
                ..EvalOptions::default()
            };
            let case = format!("{name} {form:?} on an exact {needed}-prime chain");
            let chain = assert_chain_conforms(&exact, &maurice, &forest, form, eval, false, &case)
                .expect("an exact chain admits");
            assert_eq!(chain.primes_needed as usize, needed, "{case}");
        }
    }
}

/// The repo benchmark's real-BGV parameter point: `m = 127` (18
/// slots), 20 primes of 25 bits, 7-bit switching digits.
const BENCH_POINT: BgvParams = BgvParams {
    m: 127,
    prime_bits: 25,
    chain_len: 20,
    ks_digit_bits: 7,
    error_eta: 2,
    keygen_seed: 0xC0F5E,
};

/// The level battery at the benchmark's parameter point, over every
/// micro zoo model that fits its 18 slots (all but `width677`): both
/// forms, fused and unfused, at stage thread counts 1, 2 and 7, plus
/// the noise canary on `depth4` as it is served (fused by the default
/// `Fusion::Auto`). Minutes in a debug build, so it runs
/// in release: `cargo test --release -p copse-core --test
/// zoo_conformance -- --ignored`.
#[test]
#[ignore = "m = 127 BGV; run in release"]
fn predicted_primes_match_bgv_at_the_benchmark_point() {
    let be = BgvBackend::new(BENCH_POINT);
    let mut conformed = Vec::new();
    for model in zoo::micro_suite(SUITE_SEED) {
        for fused in [false, true] {
            let options = CompileOptions {
                fuse_reshuffle: if fused { Fusion::Always } else { Fusion::Never },
                ..CompileOptions::default()
            };
            let maurice = Maurice::compile(&model.forest, options).expect("compile");
            for form in [ModelForm::Plain, ModelForm::Encrypted] {
                for threads in [1usize, 2, 7] {
                    let eval = EvalOptions {
                        parallelism: Parallelism { threads },
                        ..EvalOptions::default()
                    };
                    let case = format!("{} fused={fused} {form:?} threads={threads}", model.name);
                    let fits = assert_chain_conforms(
                        &be,
                        &maurice,
                        &model.forest,
                        form,
                        eval,
                        false,
                        &case,
                    );
                    if fits.is_some() && !conformed.contains(&model.name) {
                        conformed.push(model.name.clone());
                    }
                }
            }
        }
    }
    assert_eq!(conformed.len(), 7, "micro models on BGV: {conformed:?}");

    let model = zoo::micro_suite(SUITE_SEED).remove(0);
    assert_eq!(model.name, "depth4");
    let maurice = Maurice::compile(&model.forest, CompileOptions::default()).expect("compile");
    let NoiseBudget::Chain(rule) = be.noise_budget() else {
        unreachable!("BGV budgets a modulus chain")
    };
    for form in [ModelForm::Plain, ModelForm::Encrypted] {
        let report = CircuitReport::analyze(maurice.compiled(), &EvalShape::plan(&maurice, form));
        let needed = report.chain(&rule).primes_needed as usize;
        let short = BgvBackend::new(BgvParams {
            chain_len: needed - 1,
            ..BENCH_POINT
        });
        assert!(
            !report.admit(&BackendProfile::of(&short)).is_empty(),
            "depth4 {form:?}: a {}-prime chain must be refused",
            needed - 1
        );
        let exact = BgvBackend::new(BgvParams {
            chain_len: needed,
            ..BENCH_POINT
        });
        let case = format!("depth4 {form:?} on an exact {needed}-prime chain");
        assert_chain_conforms(
            &exact,
            &maurice,
            &model.forest,
            form,
            EvalOptions::default(),
            false,
            &case,
        )
        .expect("an exact chain admits");
    }
}

/// Hosting `depth4` as it is served builds switching keys at Sally's
/// entry level and no deeper: a backend holds none after keygen,
/// exactly `keys × E × D × 2 × E × r × N × 8` bytes once Sally has
/// bound the model (`r = 1` at this point), and still that after a
/// batch, solo or packed as her plan runs it, has been classified.
#[test]
#[ignore = "m = 127 BGV; run in release"]
fn hosting_depth4_builds_switching_keys_at_the_entry_level() {
    let model = zoo::micro_suite(SUITE_SEED).remove(0);
    assert_eq!(model.name, "depth4");
    let maurice = Maurice::compile(&model.forest, CompileOptions::default()).expect("compile");
    for form in [ModelForm::Plain, ModelForm::Encrypted] {
        let be = BgvBackend::new(BENCH_POINT);
        let scheme = be.scheme();
        assert_eq!(
            scheme.key_bytes(),
            0,
            "{form:?}: keygen builds no switching key"
        );
        let sally = Sally::with_options(&be, maurice.deploy(&be, form), EvalOptions::default());
        let info = sally.client_query_info();
        let entry = info.entry_primes.expect("BGV has a chain") as usize;
        let digits = BENCH_POINT.prime_bits.div_ceil(BENCH_POINT.ks_digit_bits) as usize;
        let bytes = scheme.slots().nslots()
            * entry
            * digits
            * 2
            * entry
            * scheme.ring().transform_size()
            * 8;
        assert_eq!(
            scheme.key_bytes(),
            bytes,
            "{form:?}: keys at {entry} primes"
        );

        let diane = Diane::new(&be, info);
        let features = random_queries(
            &model.forest,
            sally.pack_plan().map_or(1, |plan| plan.lanes),
            SUITE_SEED ^ 0x4E7,
        );
        let queries: Vec<_> = features
            .iter()
            .map(|q| diane.encrypt_features(q).expect("valid query"))
            .collect();
        for (q, result) in features.iter().zip(sally.classify_batch(&queries)) {
            assert_eq!(
                diane.decrypt_result(&result).plurality_label(),
                Some(model.forest.labels()[model.forest.classify_plurality(q)].as_str()),
                "{form:?}: query {q:?}"
            );
        }
        assert_eq!(
            scheme.key_bytes(),
            bytes,
            "{form:?}: no key switch above the entry level"
        );
    }
}

/// A warm `depth4` query, as it is served, pays for its circuit and
/// nothing else: its exact NTT transforms and key switches, read off
/// the pass's own scoped meter (`EvalTrace`) for the second query
/// after Sally binds the model (the first fills the product forms of
/// the encrypted operands).
/// Sally hosts Maurice's thresholds and masks at the entry level and
/// in product form, so a model operand that went cold again — switched
/// down or transformed in every query — moves the transform count.
/// The `Tree` comparator relinearises only the sums that are multiplied
/// again: 8 of the plain form's 11 relinearisations are the
/// comparison's, and 12 of the encrypted form's 19.
#[test]
#[ignore = "m = 127 BGV; run in release"]
fn a_warm_depth4_query_pays_only_for_its_circuit() {
    use ModelForm::{Encrypted, Plain};
    let model = zoo::micro_suite(SUITE_SEED).remove(0);
    assert_eq!(model.name, "depth4");
    let maurice = Maurice::compile(&model.forest, CompileOptions::default()).expect("compile");
    let be = BgvBackend::new(BENCH_POINT);
    let features = random_queries(&model.forest, 2, SUITE_SEED ^ 0x7A4);
    for (form, transforms, relinearisation) in [(Plain, 1658, 11), (Encrypted, 2264, 19)] {
        let sally = Sally::host(&be, maurice.deploy(&be, form));
        let diane = Diane::new(&be, sally.client_query_info());
        let queries: Vec<_> = features
            .iter()
            .map(|q| diane.encrypt_features(q).expect("valid query"))
            .collect();
        let _ = sally.classify(&queries[0]);
        let (result, trace) = sally.classify_traced(&queries[1]);
        assert_eq!(
            diane.decrypt_result(&result).plurality_label(),
            Some(model.forest.labels()[model.forest.classify_plurality(&features[1])].as_str()),
            "{form:?}"
        );
        let key_switches = KeySwitchCounts {
            rotation: 17,
            relinearisation,
        };
        assert_eq!(
            (trace.transforms.total(), trace.key_switches),
            (transforms, key_switches),
            "{form:?}: a warm query's transforms and key switches"
        );
    }
}
