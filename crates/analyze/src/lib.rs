//! # copse-analyze — static circuit analysis for compiled COPSE models
//!
//! The COPSE pipeline is a *fixed* circuit per compiled model: its
//! operation counts and multiplicative depth depend only on the model
//! shape and the evaluation plan, never on the (encrypted) query data.
//! That makes the whole evaluation statically analysable, and this
//! crate is the abstract interpreter that does it:
//!
//! * [`CircuitReport::analyze`] walks the compiled artifacts and
//!   derives, per pipeline stage, the exact homomorphic operation
//!   counts (in the [`FheOp`](copse_fhe::FheOp) vocabulary) and the
//!   multiplicative-depth profile of one classification. "Exact" is a
//!   tested property, not an aspiration: the conformance suite asserts
//!   these predictions against a scoped [`copse_fhe::OpMeter`]
//!   op-for-op for every model in the benchmark zoo.
//! * [`BackendProfile::of`] captures what a concrete
//!   [`FheBackend`] can actually evaluate —
//!   its depth budget, slot capacity, and whether slot rotation exists
//!   at all (the negacyclic power-of-two ring has no GF(2) slot
//!   structure, paper §4.1 vs. the `X^n + 1` ablation).
//! * [`CircuitReport::admit`] compares the two and returns structured
//!   [`AdmissionIssue`]s. `copse-server` runs this check on every
//!   deploy, so a model that would exhaust the modulus chain mid-query
//!   or panic on a rotation-free ring is rejected with a typed
//!   diagnostic *before* any ciphertext is touched.
//!
//! The per-stage predictions line up with the runtime's
//! [`EvalTrace`](copse_core::EvalTrace) stages (comparison, reshuffle,
//! levels, accumulate), so measured and predicted breakdowns can be
//! compared side by side; `copse-bench`'s `analyze_json` binary emits
//! exactly that report.
//!
//! ## Example
//!
//! ```
//! use copse_analyze::{BackendProfile, CircuitReport, EvalShape};
//! use copse_core::{CompileOptions, Maurice, ModelForm};
//! use copse_fhe::ClearBackend;
//! use copse_forest::microbench::{self, MicrobenchSpec};
//!
//! let spec = MicrobenchSpec { name: "doc", max_depth: 3, precision: 4, n_trees: 2, branches: 9 };
//! let forest = microbench::generate(&spec, 42);
//! let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
//! let shape = EvalShape::plan(&maurice, ModelForm::Plain);
//! let report = CircuitReport::analyze(maurice.compiled(), &shape);
//!
//! let backend = ClearBackend::with_defaults();
//! assert!(report.admit(&BackendProfile::of(&backend)).is_empty());
//! assert!(report.depth >= 2);
//! ```

#![warn(missing_docs)]

use copse_core::artifacts::CompiledModel;
use copse_core::compiler::Accumulation;
use copse_core::complexity::{log2ceil, ours, CostInputs};
use copse_core::runtime::ModelForm;
use copse_core::seccomp::SecCompVariant;
use copse_fhe::{CostModel, FheBackend, OpCounts};
use std::fmt;

/// The evaluation plan the analysis is performed against: everything
/// that affects circuit structure beyond the compiled artifacts
/// themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalShape {
    /// Plain or encrypted model artifacts.
    pub form: ModelForm,
    /// Accumulation strategy (fixed by Maurice at compile time).
    pub accumulation: Accumulation,
    /// SecComp strategy.
    pub comparator: SecCompVariant,
    /// Whether Sally scrambles results with her secret permutation
    /// (paper §7.2.2): one extra *plaintext* MatMul over the leaves.
    pub result_shuffle: bool,
    /// Cross-query slot packing, when the runtime evaluates `lanes`
    /// queries per ciphertext ([`copse_core::Sally::pack_plan`]).
    /// `None` analyses the sequential per-query circuit.
    pub packing: Option<PackedPlanShape>,
}

/// The packed-batch layout analysis runs against: one **full chunk**
/// of `lanes` queries sharing each ciphertext at block `stride`. The
/// resulting [`CircuitReport`] predicts the ops and depth of that one
/// chunk (amortised cost per query is the report divided by `lanes`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedPlanShape {
    /// Queries per packed ciphertext (`>= 2`; the runtime never packs
    /// a chunk of one).
    pub lanes: usize,
    /// Slots per query block: [`CompiledModel::slot_width`], which is
    /// also the sequential `min_slot_capacity`.
    pub stride: usize,
}

impl From<copse_core::PackPlan> for PackedPlanShape {
    fn from(plan: copse_core::PackPlan) -> Self {
        Self {
            lanes: plan.lanes,
            stride: plan.stride,
        }
    }
}

impl EvalShape {
    /// The plan the server uses for a deployed model: Maurice's
    /// compile-time accumulation choice, the default comparator, no
    /// result shuffling, and the sequential (unpacked) layout.
    pub fn plan(maurice: &copse_core::Maurice, form: ModelForm) -> Self {
        Self {
            form,
            accumulation: maurice.accumulation(),
            comparator: SecCompVariant::default(),
            result_shuffle: false,
            packing: None,
        }
    }
}

/// Predicted cost of one pipeline stage, per query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StagePrediction {
    /// Homomorphic operations the stage performs for one query.
    pub ops: OpCounts,
    /// Multiplicative levels the stage consumes.
    pub depth_cost: u32,
}

/// What a concrete backend can evaluate: the parameters admission
/// checks a [`CircuitReport`] against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendProfile {
    /// Multiplicative depth the backend supports before noise (or the
    /// clear backend's budget guard) exhausts a fresh ciphertext.
    pub depth_budget: u32,
    /// Slots per ciphertext (`None` = unbounded).
    pub slot_capacity: Option<usize>,
    /// Whether slot rotation exists at all. `false` only for the BGV
    /// scheme instantiated over the negacyclic power-of-two ring,
    /// which has no GF(2) slot structure to rotate.
    pub supports_slot_rotation: bool,
}

impl BackendProfile {
    /// Reads the profile off a live backend using only non-panicking
    /// introspection.
    pub fn of<B: FheBackend>(backend: &B) -> Self {
        Self {
            depth_budget: backend.depth_budget(),
            slot_capacity: backend.slot_capacity(),
            supports_slot_rotation: backend.supports_slot_rotation(),
        }
    }
}

/// One reason a circuit cannot run on a backend, with the numbers that
/// prove it. Produced by [`CircuitReport::admit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionIssue {
    /// The circuit consumes more multiplicative levels than the
    /// backend's modulus chain provides: evaluation would abort (clear
    /// backend) or decrypt to noise (BGV).
    DepthExceeded {
        /// Depth of the classification circuit.
        required: u32,
        /// Depth the backend supports.
        budget: u32,
    },
    /// The circuit rotates slots but the backend has no slot structure
    /// (negacyclic power-of-two ring).
    SlotRotationUnsupported {
        /// Rotations one classification would attempt.
        rotations: u64,
    },
    /// Some packed operand is wider than the backend's slot count.
    SlotCapacityExceeded {
        /// Widest operand the circuit packs.
        required: usize,
        /// Slots the backend provides.
        available: usize,
    },
}

impl fmt::Display for AdmissionIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionIssue::DepthExceeded { required, budget } => write!(
                f,
                "circuit depth {required} exceeds the backend depth budget {budget}"
            ),
            AdmissionIssue::SlotRotationUnsupported { rotations } => write!(
                f,
                "circuit needs {rotations} slot rotations but the backend has no slot structure"
            ),
            AdmissionIssue::SlotCapacityExceeded {
                required,
                available,
            } => write!(
                f,
                "circuit packs {required}-slot operands but the backend has {available} slots"
            ),
        }
    }
}

/// The static analysis of one compiled model under one evaluation
/// plan: per-stage operation counts, the depth profile, and the
/// capabilities the circuit requires of its backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitReport {
    /// The shape quantities the prediction was derived from.
    pub inputs: CostInputs,
    /// SecComp (pipeline step 1).
    pub comparison: StagePrediction,
    /// Reshuffle MatMul (step 2); zero when fused away.
    pub reshuffle: StagePrediction,
    /// All level MatMuls and mask XORs (step 3).
    pub levels: StagePrediction,
    /// Accumulation product, plus the optional result shuffle (step 4).
    pub accumulate: StagePrediction,
    /// Multiplicative depth of the full circuit (sum of the per-stage
    /// depth costs): what a fresh query ciphertext reaches by the
    /// result.
    pub depth: u32,
    /// Encrypt operations to deploy the model (zero for plaintext
    /// deployment).
    pub model_encrypt_ops: OpCounts,
    /// Encrypt operations per query (`p` bit planes).
    pub query_encrypt_ops: OpCounts,
    /// Widest packed operand (ciphertext or plaintext) the circuit
    /// touches: the slot count the backend must provide.
    pub min_slot_capacity: usize,
}

impl CircuitReport {
    /// Statically interprets the compiled pipeline: derives per-stage
    /// operation counts and depth from the artifacts that will
    /// actually be evaluated (matrix dimensions are read off the
    /// compiled matrices, not re-derived from metadata).
    pub fn analyze(model: &CompiledModel, shape: &EvalShape) -> Self {
        let meta = &model.meta;
        let inputs = CostInputs::from_meta(meta, shape.form, model.fused, shape.accumulation);
        let inputs = CostInputs {
            comparator: shape.comparator,
            ..inputs
        };

        let comparison = StagePrediction {
            ops: ours::seccomp_counts(meta.precision, shape.form, shape.comparator),
            depth_cost: ours::seccomp_depth(meta.precision, shape.comparator),
        };

        let reshuffle = if model.fused {
            StagePrediction::default()
        } else {
            StagePrediction {
                ops: ours::matmul_counts(model.reshuffle.cols(), shape.form),
                depth_cost: 1,
            }
        };

        // The level matrices share one shape (the compiler builds them
        // over the same branch vector) and the runtime multiplies them
        // as one rotation-sharing group.
        let d = model.levels.len() as u32;
        let level_cols = model.levels.first().map_or(0, |matrix| matrix.cols());
        let levels = StagePrediction {
            ops: ours::levels_counts(d, level_cols, shape.form),
            depth_cost: u32::from(d > 0),
        };

        let mut accumulate = StagePrediction {
            ops: ours::accumulate_counts(d),
            depth_cost: match shape.accumulation {
                Accumulation::BalancedTree => log2ceil(u64::from(d)),
                Accumulation::Linear => d.saturating_sub(1),
            },
        };
        if shape.result_shuffle {
            // Sally's permutation is her own secret: a plaintext MatMul
            // over the leaves regardless of the model form.
            accumulate.ops = accumulate
                .ops
                .plus(&ours::matmul_counts(meta.n_leaves, ModelForm::Plain));
            accumulate.depth_cost += 1;
        }

        let mut comparison = comparison;
        if let Some(packing) = shape.packing {
            // Packed chunk deltas over one sequential query's circuit
            // (every other op in the four stages is slot-wise or a
            // block kernel with identical metering, so the chunk costs
            // exactly one query plus these):
            // packing `lanes` operands into each of the `p` bit planes
            // costs `lanes - 1` alignment rotations and additions per
            // plane; splitting the result back out costs one masked
            // constant-multiply per lane plus a rotation for every
            // lane after the first — and one extra depth level.
            let k = packing.lanes as u64;
            comparison.ops.rotate += u64::from(meta.precision) * (k - 1);
            comparison.ops.add += u64::from(meta.precision) * (k - 1);
            accumulate.ops.constant_multiply += k;
            accumulate.ops.rotate += k - 1;
            accumulate.depth_cost += 1;
        }

        let mut min_slots = model.slot_width();
        if let Some(packing) = shape.packing {
            // A packed chunk needs all `lanes` blocks side by side.
            min_slots = min_slots.max(packing.lanes * packing.stride);
        }

        let depth = comparison.depth_cost
            + reshuffle.depth_cost
            + levels.depth_cost
            + accumulate.depth_cost;

        Self {
            inputs,
            comparison,
            reshuffle,
            levels,
            accumulate,
            depth,
            model_encrypt_ops: ours::model_encrypt_counts(&inputs),
            query_encrypt_ops: ours::query_encrypt_counts(meta.precision),
            min_slot_capacity: min_slots,
        }
    }

    /// Total homomorphic operations for one classification (sum of the
    /// four stages; encrypts excluded).
    pub fn total_ops(&self) -> OpCounts {
        self.comparison
            .ops
            .plus(&self.reshuffle.ops)
            .plus(&self.levels.ops)
            .plus(&self.accumulate.ops)
    }

    /// Slot rotations one classification performs.
    pub fn rotations(&self) -> u64 {
        self.total_ops().rotate
    }

    /// Modeled single-thread latency of one classification under a
    /// calibrated [`CostModel`], in milliseconds.
    pub fn modeled_ms(&self, cost: &CostModel) -> f64 {
        cost.modeled_ms(&self.total_ops())
    }

    /// Depth the backend has left over after this circuit, or `None`
    /// when the circuit does not fit.
    pub fn depth_headroom(&self, profile: &BackendProfile) -> Option<u32> {
        profile.depth_budget.checked_sub(self.depth)
    }

    /// Checks the circuit against a backend profile. An empty result
    /// admits the model; each issue carries the numbers that prove the
    /// mismatch. Issues are ordered most-fundamental first: a missing
    /// capability (rotation, slots) precedes the depth verdict.
    pub fn admit(&self, profile: &BackendProfile) -> Vec<AdmissionIssue> {
        let mut issues = Vec::new();
        let rotations = self.rotations();
        if rotations > 0 && !profile.supports_slot_rotation {
            issues.push(AdmissionIssue::SlotRotationUnsupported { rotations });
        }
        if let Some(available) = profile.slot_capacity {
            if self.min_slot_capacity > available {
                issues.push(AdmissionIssue::SlotCapacityExceeded {
                    required: self.min_slot_capacity,
                    available,
                });
            }
        }
        if self.depth > profile.depth_budget {
            issues.push(AdmissionIssue::DepthExceeded {
                required: self.depth,
                budget: profile.depth_budget,
            });
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copse_core::{CompileOptions, Maurice};
    use copse_forest::microbench::{self, MicrobenchSpec};

    fn compiled(fused: bool) -> Maurice {
        let spec = MicrobenchSpec {
            name: "unit",
            max_depth: 3,
            precision: 5,
            n_trees: 2,
            branches: 11,
        };
        let forest = microbench::generate(&spec, 7);
        let options = CompileOptions {
            fuse_reshuffle: fused,
            ..CompileOptions::default()
        };
        Maurice::compile(&forest, options).expect("compile")
    }

    fn report(maurice: &Maurice, form: ModelForm) -> CircuitReport {
        CircuitReport::analyze(maurice.compiled(), &EvalShape::plan(maurice, form))
    }

    #[test]
    fn totals_agree_with_the_proven_closed_forms() {
        for fused in [false, true] {
            let maurice = compiled(fused);
            for form in [ModelForm::Plain, ModelForm::Encrypted] {
                let r = report(&maurice, form);
                assert_eq!(r.total_ops(), ours::classify_counts(&r.inputs));
                assert_eq!(r.depth, ours::classify_depth(&r.inputs));
                assert_eq!(r.model_encrypt_ops, ours::model_encrypt_counts(&r.inputs));
            }
        }
    }

    #[test]
    fn fused_pipeline_zeroes_the_reshuffle_stage() {
        let r = report(&compiled(true), ModelForm::Plain);
        assert_eq!(r.reshuffle, StagePrediction::default());
        let r = report(&compiled(false), ModelForm::Plain);
        assert!(r.reshuffle.ops.total_homomorphic() > 0);
        assert_eq!(r.reshuffle.depth_cost, 1);
    }

    #[test]
    fn result_shuffle_adds_one_plaintext_matmul() {
        let maurice = compiled(false);
        let base = report(&maurice, ModelForm::Encrypted);
        let shuffled = CircuitReport::analyze(
            maurice.compiled(),
            &EvalShape {
                result_shuffle: true,
                ..EvalShape::plan(&maurice, ModelForm::Encrypted)
            },
        );
        let leaves = maurice.compiled().meta.n_leaves as u64;
        let extra = shuffled.total_ops().since(&base.total_ops());
        assert_eq!(extra.constant_multiply, leaves);
        assert_eq!(extra.rotate, leaves - 1);
        assert_eq!(shuffled.depth, base.depth + 1);
    }

    #[test]
    fn admission_flags_each_capability_independently() {
        let maurice = compiled(false);
        let r = report(&maurice, ModelForm::Plain);

        let roomy = BackendProfile {
            depth_budget: r.depth,
            slot_capacity: Some(r.min_slot_capacity),
            supports_slot_rotation: true,
        };
        assert!(r.admit(&roomy).is_empty());
        assert_eq!(r.depth_headroom(&roomy), Some(0));

        let shallow = BackendProfile {
            depth_budget: r.depth - 1,
            ..roomy
        };
        assert_eq!(
            r.admit(&shallow),
            vec![AdmissionIssue::DepthExceeded {
                required: r.depth,
                budget: r.depth - 1,
            }]
        );
        assert_eq!(r.depth_headroom(&shallow), None);

        let narrow = BackendProfile {
            slot_capacity: Some(r.min_slot_capacity - 1),
            ..roomy
        };
        assert_eq!(
            r.admit(&narrow),
            vec![AdmissionIssue::SlotCapacityExceeded {
                required: r.min_slot_capacity,
                available: r.min_slot_capacity - 1,
            }]
        );

        let rotationless = BackendProfile {
            supports_slot_rotation: false,
            ..roomy
        };
        assert_eq!(
            r.admit(&rotationless),
            vec![AdmissionIssue::SlotRotationUnsupported {
                rotations: r.rotations(),
            }]
        );
    }

    #[test]
    fn issue_messages_carry_the_numbers() {
        let text = AdmissionIssue::DepthExceeded {
            required: 19,
            budget: 14,
        }
        .to_string();
        assert!(text.contains("19") && text.contains("14"), "{text}");
        let text = AdmissionIssue::SlotRotationUnsupported { rotations: 88 }.to_string();
        assert!(text.contains("88"), "{text}");
        let text = AdmissionIssue::SlotCapacityExceeded {
            required: 80,
            available: 6,
        }
        .to_string();
        assert!(text.contains("80") && text.contains("6"), "{text}");
    }

    #[test]
    fn min_slot_capacity_is_the_widest_artifact() {
        let maurice = compiled(false);
        let m = maurice.compiled();
        let r = report(&maurice, ModelForm::Plain);
        assert_eq!(
            r.min_slot_capacity,
            m.meta.quantized.max(m.meta.branches).max(m.meta.n_leaves)
        );
    }
}
