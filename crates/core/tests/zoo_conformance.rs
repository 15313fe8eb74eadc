//! The analyzer's honesty suite: for every model in the benchmark
//! zoo, the static per-stage predictions must equal the scoped
//! [`OpMeter`](copse_fhe::OpMeter) measurements **op-for-op**, and the
//! predicted multiplicative depth must equal the depth the clear
//! backend observes on the result ciphertext.
//!
//! This is the property that turns the admission check from a
//! heuristic into a proof: if the static counts are exact on every
//! shape we ship, a deploy-time rejection is a statement about the
//! circuit, not a guess.

use copse_core::analyze::{AdmissionIssue, BackendProfile, CircuitReport, EvalShape};
use copse_core::compiler::{Accumulation, CompileOptions};
use copse_core::runtime::{Diane, EvalOptions, Maurice, ModelForm, PackPlan, Sally};
use copse_core::seccomp::SecCompVariant;
use copse_fhe::{ClearBackend, ClearConfig, FheBackend, OpCounts};
use copse_forest::microbench::random_queries;
use copse_forest::zoo;

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
            fuse_reshuffle: true,
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
    // Probe with unbounded capacity to learn the model's stride, then
    // bound the real backend to exactly `lanes` strides.
    let probe_be = ClearBackend::new(ClearConfig {
        slot_capacity: Some(1 << 20),
        ..ClearConfig::default()
    });
    let stride = Sally::host(&probe_be, maurice.deploy(&probe_be, form))
        .pack_plan()
        .expect("probe capacity fits")
        .stride;
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
        depth_budget: report.depth,
        slot_capacity: Some(4 * stride),
        supports_slot_rotation: true,
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

/// The evaluation choices off the default plan — the shared-prefix
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
                (SecCompVariant::SharedPrefix, Accumulation::BalancedTree),
                (SecCompVariant::LadderPrefix, Accumulation::Linear),
                (SecCompVariant::SharedPrefix, Accumulation::Linear),
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
