//! Static circuit analysis for compiled COPSE models.
//!
//! The COPSE pipeline is a *fixed* circuit per compiled model (the
//! paper's Algorithm 1): its operation counts, multiplicative depth and
//! chain levels depend only on the model shape and the evaluation plan,
//! never on the (encrypted) query data. So the exact way to analyse it
//! is to run it: this module hosts the runtime's own [`Sally`] on a
//! [`ClearBackend`] over zero bits — with depth unbounded, and given a
//! BGV [`LevelRule`] ([`ClearBackend::leveled`]) its ciphertexts carry
//! chain positions — and reads the [`EvalTrace`](crate::EvalTrace) of
//! one classification. Nothing here knows a comparator, a mat-vec or an
//! accumulation.
//!
//! * [`CircuitReport::analyze`] runs one classification without a rule:
//!   per-stage operation counts and depth, which the conformance suite
//!   holds op for op to the clear backend's scoped
//!   [`copse_fhe::OpMeter`] for every model in the benchmark zoo.
//! * [`CircuitReport::chain`] runs it under a [`LevelRule`] for the
//!   fewest chain primes a fresh query must carry
//!   ([`ChainReport::primes_needed`], the level [`Sally`] enters it at)
//!   and the primes each stage consumes.
//! * [`BackendProfile::of`] captures what a concrete [`FheBackend`]
//!   can evaluate: its [`NoiseBudget`] (a modulus chain, or a depth
//!   limit) and slot capacity.
//! * [`CircuitReport::admit`] compares the two and returns structured
//!   [`AdmissionIssue`]s. `copse-server` runs it on every deploy, so a
//!   model that would exhaust the chain or overflow the slots is
//!   rejected with a typed diagnostic before any ciphertext is
//!   touched; [`Sally`] asks it whether a packed chunk still fits.
//!
//! The stages are the runtime's (comparison, reshuffle, levels,
//! accumulate), so `copse-bench`'s `analyze_json` prints predicted and
//! measured side by side. The paper's own Table 1–2 closed forms live,
//! as printed, in [`crate::complexity::paper`].
//!
//! ## Example
//!
//! ```
//! use copse_core::analyze::{BackendProfile, CircuitReport, EvalShape};
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

use crate::artifacts::{CompiledModel, ModelMeta};
use crate::compiler::Accumulation;
use crate::parallel::Parallelism;
use crate::runtime::{EncryptedQuery, Maurice, ModelForm, PackPlan, Sally};
use crate::seccomp::{secure_less_than, SecCompVariant};
use copse_fhe::{
    BitVec, ClearBackend, ClearConfig, CostModel, FheBackend, LevelRule, NoiseBudget, OpCounts,
    OpMeter,
};
use std::fmt;

/// The evaluation plan the analysis is performed against: everything
/// that affects circuit structure beyond the compiled model's shape.
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
    /// Cross-query slot packing ([`Sally::pack_plan`]): the
    /// report then predicts one **full chunk** of `lanes` queries
    /// sharing each ciphertext at block `stride` (amortised cost per
    /// query is the report divided by `lanes`). `None` analyses the
    /// sequential per-query circuit.
    pub packing: Option<PackPlan>,
}

impl EvalShape {
    /// The shape of a model hosted with default
    /// [`EvalOptions`](crate::EvalOptions) — what `copse-server` runs,
    /// since its only evaluator knob is the thread count: Maurice's
    /// compile-time accumulation choice, the default comparator, no
    /// result shuffling, and the sequential (unpacked) layout.
    pub fn plan(maurice: &Maurice, form: ModelForm) -> Self {
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
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackendProfile {
    /// What bounds a circuit: a BGV modulus chain with its level rule
    /// (checked against [`ChainReport::primes_needed`]), or a
    /// multiplicative-depth limit (checked against
    /// [`CircuitReport::depth`]).
    pub budget: NoiseBudget,
    /// Slots per ciphertext (`None` = unbounded).
    pub slot_capacity: Option<usize>,
}

impl BackendProfile {
    /// Reads the profile off a live backend using only non-panicking
    /// introspection.
    pub fn of<B: FheBackend>(backend: &B) -> Self {
        Self {
            budget: backend.noise_budget(),
            slot_capacity: backend.slot_capacity(),
        }
    }
}

/// One reason a circuit cannot run on a backend, with the numbers that
/// prove it. Produced by [`CircuitReport::admit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionIssue {
    /// The circuit is deeper than a depth-budgeted backend supports:
    /// evaluation would abort.
    DepthExceeded {
        /// Depth of the classification circuit.
        required: u32,
        /// Depth the backend supports.
        budget: u32,
    },
    /// A fresh query would need more primes than the backend's modulus
    /// chain holds for the result to decrypt: evaluation would decrypt
    /// to noise.
    ChainExceeded {
        /// [`ChainReport::primes_needed`] of the circuit.
        required: u32,
        /// Primes in the backend's chain.
        available: u32,
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
            AdmissionIssue::ChainExceeded {
                required,
                available,
            } => write!(
                f,
                "circuit needs {required} chain primes but the backend's modulus chain has {available}"
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

/// How one classification spends a BGV modulus chain
/// ([`CircuitReport::chain`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainReport {
    /// Primes in the backend's modulus chain.
    pub chain_len: u32,
    /// The fewest primes a fresh query plane must carry for the result
    /// to decrypt — the level [`Sally`] enters the circuit at. Larger
    /// than `chain_len` when the circuit does not fit the chain.
    pub primes_needed: u32,
    /// Primes each stage consumes from that entry, in pipeline order
    /// (comparison, reshuffle, levels, accumulate).
    pub consumed: [u32; 4],
    /// Encrypt operations to deploy the model on the rule's slot ring,
    /// where each matrix is encrypted in ring form: one per ring
    /// diagonal rather than [`CircuitReport::model_encrypt_ops`]'s one
    /// per column.
    pub model_encrypt_ops: OpCounts,
}

/// The static analysis of one compiled model under one evaluation
/// plan: per-stage operation counts, the depth profile, and the
/// capabilities the circuit requires of its backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitReport {
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
    /// deployment). For a solo shape: on a backend without a slot ring,
    /// one per matrix column — the paper's Table 1d. For a packed
    /// shape: on a ring of the chunk's `lanes · stride` slots, where
    /// each matrix is encrypted in ring form (one per ring diagonal),
    /// as a clear backend of that capacity deploys it. On the BGV
    /// ring see [`ChainReport::model_encrypt_ops`].
    pub model_encrypt_ops: OpCounts,
    /// Encrypt operations per query (`p` bit planes).
    pub query_encrypt_ops: OpCounts,
    /// Widest packed operand (ciphertext or plaintext) the circuit
    /// touches: the slot count the backend must provide.
    pub min_slot_capacity: usize,
    /// What [`CircuitReport::chain`] runs again, under a rule.
    meta: ModelMeta,
    fused: bool,
    shape: EvalShape,
}

impl CircuitReport {
    /// Statically interprets the compiled pipeline: derives per-stage
    /// operation counts and depth of one classification of `model`
    /// under `shape`.
    pub fn analyze(model: &CompiledModel, shape: &EvalShape) -> Self {
        Self::from_meta(&model.meta, model.fused, shape)
    }

    /// The analysis proper, from the non-secret shape both parties
    /// hold — Maurice's [`ModelMeta`] and whether `R` was fused — so an
    /// evaluator that never sees cleartext artifacts (an encrypted
    /// deployment) can run it too: the compiler builds every matrix
    /// from exactly these dimensions.
    pub(crate) fn from_meta(meta: &ModelMeta, fused: bool, shape: &EvalShape) -> Self {
        let (deploy, stages, _) = run(meta, fused, shape, None, None);
        let [comparison, reshuffle, levels, accumulate] = stages;
        // A packed chunk needs all `lanes` blocks side by side.
        let packed_width = shape.packing.map_or(0, |plan| plan.lanes * plan.stride);
        Self {
            comparison,
            reshuffle,
            levels,
            accumulate,
            depth: stages.iter().map(|stage| stage.depth_cost).sum(),
            model_encrypt_ops: deploy,
            // One ciphertext per bit plane, as SecComp consumes them
            // (the paper's Table 1e lists 1, a fully packed query).
            query_encrypt_ops: OpCounts {
                encrypt: u64::from(meta.precision),
                ..OpCounts::default()
            },
            min_slot_capacity: meta.slot_width(fused).max(packed_width),
            meta: meta.clone(),
            fused,
            shape: *shape,
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

    /// Modeled single-thread latency of one classification under a
    /// calibrated [`CostModel`], in milliseconds.
    pub fn modeled_ms(&self, cost: &CostModel) -> f64 {
        cost.modeled_ms(&self.total_ops())
    }

    /// How one classification spends `rule`'s modulus chain: the
    /// fewest primes a fresh query must carry for every result to
    /// decrypt, and what each stage consumes from there.
    ///
    /// It runs [`CircuitReport::analyze`]'s classification under
    /// `rule`, the query planes made at a candidate entry (as `Diane`
    /// makes them) and entered there as [`Sally`] enters every plane —
    /// in the state of one switched down to it, so the entry holds for
    /// planes made above it too — and the model's encrypted operands
    /// (if any) at the top of the chain,
    /// and takes the smallest entry at which every result — the worst
    /// packed lane's too — keeps positive headroom through its final
    /// switch to one prime. Depth then reads `chain_len − primes`, so a
    /// stage's depth cost is the primes it consumes. The search goes on
    /// past the chain, so a circuit that does not fit still reports
    /// what it needs.
    ///
    /// # Panics
    ///
    /// Panics if no chain of up to 4096 primes fits the circuit.
    pub fn chain(&self, rule: &LevelRule) -> ChainReport {
        chain(&self.meta, self.fused, &self.shape, rule)
    }

    /// Checks the circuit against a backend profile. An empty result
    /// admits the model; each issue carries the numbers that prove the
    /// mismatch. Issues are ordered most-fundamental first: missing
    /// slots precede the noise verdict.
    pub fn admit(&self, profile: &BackendProfile) -> Vec<AdmissionIssue> {
        let mut issues = Vec::new();
        if let Some(available) = profile.slot_capacity {
            if self.min_slot_capacity > available {
                issues.push(AdmissionIssue::SlotCapacityExceeded {
                    required: self.min_slot_capacity,
                    available,
                });
            }
        }
        match profile.budget {
            NoiseBudget::Depth(budget) if self.depth > budget => {
                issues.push(AdmissionIssue::DepthExceeded {
                    required: self.depth,
                    budget,
                });
            }
            NoiseBudget::Chain(rule) => {
                let chain = self.chain(&rule);
                if chain.primes_needed > chain.chain_len {
                    issues.push(AdmissionIssue::ChainExceeded {
                        required: chain.primes_needed,
                        available: chain.chain_len,
                    });
                }
            }
            NoiseBudget::Depth(_) => {}
        }
        issues
    }
}

/// [`CircuitReport::chain`] from the shape alone, for a caller that
/// needs only the chain and not the rule-free run
/// [`CircuitReport::analyze`] makes.
pub(crate) fn chain(
    meta: &ModelMeta,
    fused: bool,
    shape: &EvalShape,
    rule: &LevelRule,
) -> ChainReport {
    let chain_len = rule.chain_len();
    let (entry, deploy, stages) = (1..=4096)
        .find_map(|entry| {
            let rule = rule.with_chain_len(entry.max(chain_len));
            let (deploy, stages, decrypts) = run(meta, fused, shape, Some(rule), Some(entry));
            decrypts.then_some((entry, deploy, stages))
        })
        .expect("a long enough chain fits every circuit");
    ChainReport {
        chain_len: chain_len as u32,
        primes_needed: entry as u32,
        consumed: stages.map(|stage| stage.depth_cost),
        model_encrypt_ops: deploy,
    }
}

/// Runs one classification of `shape` — one full chunk of `lanes`
/// queries when it packs — on the clear backend over zero bits, under
/// `rule` if there is one, its query planes encrypted at `entry` primes
/// as Diane encrypts them ([`FheBackend::encrypt_query_bits`]) and
/// entered by the runtime's own units. Yields the deploy's metered ops
/// (Maurice's encrypts), each stage's ops and the depth it adds (the
/// difference of the trace's readings around it), and whether every
/// result decrypts (always, without a rule).
///
/// Under a rule the backend has the rule's slot ring. Without one, a
/// packed chunk runs on a ring of its `lanes · stride` slots — its
/// matrices need one, and neither op counts nor clear depth depend on
/// its size — and a solo run on none. Each matrix runs on the ring
/// [`crate::matmul`] lays it out on: the backend's where that holds
/// it, else one of its own column count.
fn run(
    meta: &ModelMeta,
    fused: bool,
    shape: &EvalShape,
    rule: Option<LevelRule>,
    entry: Option<usize>,
) -> (OpCounts, [StagePrediction; 4], bool) {
    let backend = match rule {
        Some(rule) => ClearBackend::leveled(rule),
        None => unbounded(shape.packing.map(|plan| plan.lanes * plan.stride)),
    };
    on_clear(backend, |be| {
        let sally = Sally::analysis(be, meta, fused, shape, entry);
        let deploy = be.meter().snapshot();
        let plane = BitVec::zeros(meta.quantized);
        let planes = (0..meta.precision)
            .map(|_| be.encrypt_query_bits(&plane, entry))
            .collect();
        let lanes = shape.packing.map_or(1, |plan| plan.lanes);
        let queries = vec![EncryptedQuery::from_planes(planes); lanes];
        let (results, t) = sally.classify_batch_traced(&queries);
        let decrypts = results.iter().all(|result| {
            let compact = be.compact_for_decrypt(result.ciphertext());
            compact
                .level()
                .is_none_or(|level| level.headroom_bits > 0.0)
        });
        let mut input = t.entry_depth;
        let stages = [&t.comparison, &t.reshuffle, &t.levels, &t.accumulate].map(|stage| {
            let depth_cost = stage.depth - input;
            input = stage.depth;
            StagePrediction {
                ops: stage.ops,
                depth_cost,
            }
        });
        (deploy, stages, decrypts)
    })
}

/// A rule-free clear backend that refuses no depth, so admission, not
/// a panic, reports a circuit too deep for its host.
fn unbounded(slot_capacity: Option<usize>) -> ClearBackend {
    ClearBackend::new(ClearConfig {
        max_depth: u32::MAX,
        slot_capacity,
        work_per_op: 0,
    })
}

/// Runs `f` on a fresh backend in a meter scope of its own, so none of
/// its ops (the deploy's encrypts, the tiling of a packed operand set)
/// reach a scope the caller installed.
fn on_clear<T>(backend: ClearBackend, f: impl FnOnce(&ClearBackend) -> T) -> T {
    OpMeter::measure(|| f(&backend)).0
}

/// One SecComp at precision `p` against thresholds of `form` — the
/// comparison stage alone: `seccomp::secure_less_than` run over `p`
/// one-slot zero planes, its ops and its depth.
pub fn seccomp(p: u32, form: ModelForm, variant: SecCompVariant) -> StagePrediction {
    on_clear(unbounded(None), |be| {
        let zero = BitVec::zeros(1);
        let planes: Vec<_> = (0..p).map(|_| be.encrypt_bits(&zero)).collect();
        let thresholds: Vec<_> = (0..p).map(|_| form.operand(be, be.encode(&zero))).collect();
        let before = be.meter().snapshot();
        let decision =
            secure_less_than(be, &planes, &thresholds, variant, Parallelism::sequential());
        StagePrediction {
            ops: be.meter().snapshot().since(&before),
            depth_cost: be.depth(&decision),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompileOptions, Fusion};
    use crate::complexity::log2ceil;
    use crate::matmul::{ring_of, ring_shifts};
    use crate::seccomp::balanced_product;
    use copse_fhe::{BgvBackend, BgvParams};
    use copse_forest::microbench::{self, MicrobenchSpec};

    const UNIT: MicrobenchSpec = MicrobenchSpec {
        name: "unit",
        max_depth: 3,
        precision: 5,
        n_trees: 2,
        branches: 11,
    };

    fn compiled(fused: bool) -> Maurice {
        let options = CompileOptions {
            fuse_reshuffle: if fused { Fusion::Always } else { Fusion::Never },
            ..CompileOptions::default()
        };
        compile(&UNIT, options)
    }

    fn compile(spec: &MicrobenchSpec, options: CompileOptions) -> Maurice {
        let forest = microbench::generate(spec, 7);
        Maurice::compile(&forest, options).expect("compile")
    }

    fn report(maurice: &Maurice, form: ModelForm) -> CircuitReport {
        CircuitReport::analyze(maurice.compiled(), &EvalShape::plan(maurice, form))
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
            budget: NoiseBudget::Depth(r.depth),
            slot_capacity: Some(r.min_slot_capacity),
        };
        assert!(r.admit(&roomy).is_empty());

        let shallow = BackendProfile {
            budget: NoiseBudget::Depth(r.depth - 1),
            ..roomy
        };
        assert_eq!(
            r.admit(&shallow),
            vec![AdmissionIssue::DepthExceeded {
                required: r.depth,
                budget: r.depth - 1,
            }]
        );

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
    }

    #[test]
    fn issue_messages_carry_the_numbers() {
        let text = AdmissionIssue::DepthExceeded {
            required: 19,
            budget: 14,
        }
        .to_string();
        assert!(text.contains("19") && text.contains("14"), "{text}");
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
        // The width read off the metadata is the widest vector the
        // compiled artifacts actually hold, fused or not.
        for fused in [false, true] {
            let maurice = compiled(fused);
            let m = maurice.compiled();
            let reshuffle = (!m.fused).then_some(&m.reshuffle);
            let widest = reshuffle
                .into_iter()
                .chain(&m.levels)
                .flat_map(|matrix| [matrix.rows(), matrix.cols()])
                .chain(m.thresholds.planes().iter().map(|v| v.width()))
                .chain(m.masks.iter().map(|v| v.width()))
                .max();
            let r = report(&maurice, ModelForm::Plain);
            assert_eq!(Some(r.min_slot_capacity), widest, "fused={fused}");
        }
    }

    #[test]
    fn seccomp_depth_corner_cases() {
        use SecCompVariant::{LadderPrefix, Tree};
        let depth = |p, v| seccomp(p, ModelForm::Plain, v).depth_cost;
        for v in [LadderPrefix, Tree] {
            assert_eq!(depth(1, v), 1);
            assert_eq!(depth(2, v), 2);
            // Ladder: largest term multiplies 8 factors, one at depth
            // 1; tree: three levels above the depth-1 leaves.
            assert_eq!(depth(8, v), log2ceil(8) + 1);
        }
        // Off a power of two the tree is a level shallower.
        assert_eq!(depth(6, LadderPrefix), log2ceil(6) + 1);
        assert_eq!(depth(6, Tree), log2ceil(6));
    }

    #[test]
    fn product_depth_matches_log_bound() {
        // The depth `seccomp::balanced_product` reaches on the clear
        // backend over factors of the given depths.
        let be = ClearBackend::with_defaults();
        let fresh = be.encrypt_bits(&BitVec::ones(1));
        let factor = |depth| (0..depth).fold(fresh.clone(), |ct, _| be.mul(&ct, &ct));
        let product_depth = |depths: Vec<u32>| {
            let factors = depths.into_iter().map(factor).collect();
            be.depth(&balanced_product(&be, factors))
        };
        assert_eq!(product_depth(vec![0]), 0);
        assert_eq!(product_depth(vec![0, 0]), 1);
        assert_eq!(product_depth(vec![0; 8]), 3);
        // [1,0,0]: (1*0) at depth 2, then *0 at depth 3 (odd carry).
        assert_eq!(product_depth(vec![1, 0, 0]), 3);
    }

    #[test]
    fn ladder_is_more_expensive_than_tree() {
        // Quadratic vs linear: equal up to p = 3, strictly worse beyond.
        let mult = |p, v| seccomp(p, ModelForm::Encrypted, v).ops.multiply;
        for p in [1u32, 2, 3] {
            assert_eq!(
                mult(p, SecCompVariant::LadderPrefix),
                mult(p, SecCompVariant::Tree)
            );
        }
        for p in [4u32, 8, 16, 32] {
            let ladder = mult(p, SecCompVariant::LadderPrefix);
            let tree = mult(p, SecCompVariant::Tree);
            assert!(ladder > tree, "p = {p}: {ladder} !> {tree}");
        }
    }

    #[test]
    fn the_chain_report_counts_what_deploying_on_its_ring_encrypts() {
        // On a slot ring Maurice encrypts each matrix in ring form, one
        // Encrypt per ring diagonal; the rule-free report counts the
        // paper's one per column.
        let be = BgvBackend::new(BgvParams {
            chain_len: 2,
            ..BgvParams::demo()
        });
        let NoiseBudget::Chain(rule) = be.noise_budget() else {
            unreachable!("BGV budgets a modulus chain")
        };
        for fused in [false, true] {
            let maurice = compiled(fused);
            let r = report(&maurice, ModelForm::Encrypted);
            let (_, meter) = OpMeter::measure(|| maurice.deploy(&be, ModelForm::Encrypted));
            let deploy = meter.snapshot();
            assert_eq!(deploy, r.chain(&rule).model_encrypt_ops, "fused={fused}");
            assert!(
                deploy.encrypt > r.model_encrypt_ops.encrypt,
                "fused={fused}"
            );
        }
    }

    #[test]
    fn a_rule_free_report_deploys_on_the_ring_its_shape_runs_on() {
        // Solo: no slot ring, so each matrix is laid out on a ring of
        // its column count, one Encrypt per column (the paper's Table
        // 1d), as the uncapped clear backend deploys. Packed: the
        // chunk's `lanes · stride` ring, where each matrix is encrypted
        // in ring form, as a clear backend of that capacity deploys.
        let deploy = |maurice: &Maurice, be: &ClearBackend| {
            OpMeter::measure(|| maurice.deploy(be, ModelForm::Encrypted))
                .1
                .snapshot()
        };
        for fused in [false, true] {
            let maurice = compiled(fused);
            let solo = report(&maurice, ModelForm::Encrypted);
            let uncapped = ClearBackend::with_defaults();
            assert_eq!(solo.model_encrypt_ops, deploy(&maurice, &uncapped));
            let stride = maurice.compiled().meta.slot_width(fused);
            let plan = PackPlan { stride, lanes: 2 };
            let shape = EvalShape {
                packing: Some(plan),
                ..EvalShape::plan(&maurice, ModelForm::Encrypted)
            };
            let packed = CircuitReport::analyze(maurice.compiled(), &shape);
            let ring = ClearBackend::new(ClearConfig {
                slot_capacity: Some(2 * stride),
                ..ClearConfig::default()
            });
            assert_eq!(packed.model_encrypt_ops, deploy(&maurice, &ring));
            assert!(
                packed.model_encrypt_ops.encrypt > solo.model_encrypt_ops.encrypt,
                "fused={fused}"
            );
        }
    }

    #[test]
    fn a_shape_wider_than_its_rules_ring_runs_on_a_ring_of_its_own() {
        // Tiny's 6 slots hold none of the unit model's matrices, and of
        // the narrow model's only the 6 x 5 level matrices (its
        // multiplicity padding makes the reshuffle at least 8 columns
        // wide). Only the analyzer builds them there: each matrix runs
        // on the rule's ring where it fits and on a ring of its own
        // column count where it does not, as on a backend without a
        // slot bound. Under the rule the circuit meters the rule-free
        // run's ops and reaches its clear depth; each matrix deploys
        // one Encrypt per shift of its ring, which for the unit model is
        // the paper's one per column (Table 1d); and admission still
        // refuses it on slots.
        let rule = LevelRule::of(&BgvParams::tiny());
        let be = ClearBackend::leveled(rule);
        let slots = be.slot_capacity();
        assert_eq!(slots, Some(6));
        let narrow = MicrobenchSpec {
            name: "narrow",
            max_depth: 3,
            precision: 3,
            n_trees: 1,
            branches: 5,
        };
        let padded = CompileOptions {
            fuse_reshuffle: Fusion::Never,
            multiplicity_padding: 1,
            ..CompileOptions::default()
        };
        let cases = [
            ("unit", compiled(false), false),
            ("unit", compiled(true), false),
            ("narrow", compile(&narrow, padded), true),
        ];
        for (name, maurice, partly) in cases {
            let (meta, fused) = (&maurice.compiled().meta, maurice.compiled().fused);
            let shape = EvalShape::plan(&maurice, ModelForm::Encrypted);
            let free = CircuitReport::analyze(maurice.compiled(), &shape);
            let (deploy, stages, _) = run(meta, fused, &shape, Some(rule), None);
            let free_stages = [
                free.comparison,
                free.reshuffle,
                free.levels,
                free.accumulate,
            ];
            let case = format!("{name} fused={fused}");
            assert_eq!(
                stages.map(|stage| stage.ops),
                free_stages.map(|stage| stage.ops),
                "{case}"
            );
            // One Encrypt per threshold plane, mask and ring diagonal,
            // each matrix on the ring `ring_of` picks for it.
            let ring = |rows, cols| ring_of(&be, rows, cols);
            let encrypts = |rows, cols| ring_shifts(rows, cols, ring(rows, cols)).len() as u64;
            let level_cols = if fused { meta.quantized } else { meta.branches };
            let reshuffle = (!fused).then(|| encrypts(meta.branches, meta.quantized));
            let levels = meta.max_level as u64 * (encrypts(meta.n_leaves, level_cols) + 1);
            let want = u64::from(meta.precision) + levels + reshuffle.unwrap_or(0);
            assert_eq!(deploy.encrypt, want, "{case}");
            assert_eq!(free.chain(&rule).model_encrypt_ops, deploy, "{case}");
            // Only the narrow model's level matrices fit the ring.
            let fits = [(meta.branches, meta.quantized), (meta.n_leaves, level_cols)]
                .map(|(rows, cols)| ring(rows, cols) == 6);
            assert_eq!(fits, [false, partly], "{case}");
            assert_eq!(deploy == free.model_encrypt_ops, !partly, "{case}");
            let sally = Sally::analysis(&be, meta, fused, &shape, None);
            let planes = (0..meta.precision)
                .map(|_| be.encrypt_bits(&BitVec::zeros(meta.quantized)))
                .collect();
            let result = sally.classify(&EncryptedQuery::from_planes(planes));
            assert_eq!(result.ciphertext().depth(), free.depth, "{case}");
            let profile = BackendProfile {
                budget: NoiseBudget::Chain(rule),
                slot_capacity: slots,
            };
            assert_eq!(
                free.admit(&profile).first(),
                Some(&AdmissionIssue::SlotCapacityExceeded {
                    required: free.min_slot_capacity,
                    available: 6,
                }),
                "{case}"
            );
        }
    }

    #[test]
    fn query_encrypt_counts_are_p() {
        let maurice = compiled(false);
        let p = u64::from(maurice.compiled().meta.precision);
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            assert_eq!(report(&maurice, form).query_encrypt_ops.encrypt, p);
        }
    }
}
