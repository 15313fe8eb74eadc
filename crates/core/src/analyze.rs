//! Static circuit analysis for compiled COPSE models.
//!
//! The COPSE pipeline is a *fixed* circuit per compiled model: its
//! operation counts and multiplicative depth depend only on the model
//! shape and the evaluation plan, never on the (encrypted) query data.
//! That makes the whole evaluation statically analysable, and this
//! module is the abstract interpreter that does it — the one place
//! that knows the circuit's op counts and depth:
//!
//! * [`CircuitReport::analyze`] walks the compiled shape and derives,
//!   per pipeline stage, the exact homomorphic operation counts (in
//!   the [`FheOp`](copse_fhe::FheOp) vocabulary) and the
//!   multiplicative-depth profile of one classification. "Exact" is a
//!   tested property, not an aspiration: the conformance suite asserts
//!   these predictions against a scoped [`copse_fhe::OpMeter`]
//!   op-for-op for every model in the benchmark zoo.
//! * [`CircuitReport::chain`] replays the same op sequence over the
//!   BGV [`LevelRule`] — noise growth, the reduce-before-and-after of
//!   every multiply, modulus switching and operand alignment, exactly
//!   as the scheme applies them — and derives the fewest chain primes a
//!   fresh query must carry for the result to decrypt
//!   ([`ChainReport::primes_needed`]) and the primes each stage
//!   consumes from there. [`Sally`] enters every query at that level
//!   instead of the top of the chain.
//! * [`BackendProfile::of`] captures what a concrete
//!   [`FheBackend`] can actually evaluate —
//!   its [`NoiseBudget`] (a modulus chain, or a depth limit), slot
//!   capacity, and whether slot rotation exists at all (the negacyclic
//!   power-of-two ring has no GF(2) slot structure, paper §4.1 vs. the
//!   `X^n + 1` ablation).
//! * [`CircuitReport::admit`] compares the two and returns structured
//!   [`AdmissionIssue`]s. `copse-server` runs this check on every
//!   deploy, so a model that would exhaust the modulus chain mid-query
//!   or panic on a rotation-free ring is rejected with a typed
//!   diagnostic *before* any ciphertext is touched; [`Sally`] asks the
//!   same report whether a packed chunk still fits the chain.
//!
//! The per-stage predictions line up with the runtime's
//! [`EvalTrace`](crate::EvalTrace) stages (comparison, reshuffle,
//! levels, accumulate), so measured and predicted breakdowns can be
//! compared side by side; `copse-bench`'s `analyze_json` binary emits
//! exactly that report. The paper's own Table 1–2 closed forms live
//! beside it, as printed, in [`crate::complexity::paper`].
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
//!
//! [`Sally`]: crate::Sally

use crate::artifacts::{CompiledModel, ModelMeta};
use crate::compiler::Accumulation;
use crate::complexity::log2ceil;
use crate::runtime::{Maurice, ModelForm, PackPlan};
use crate::seccomp::SecCompVariant;
use copse_fhe::{CostModel, FheBackend, Level, LevelRule, NoiseBudget, OpCounts};
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
    /// Cross-query slot packing ([`crate::Sally::pack_plan`]): the
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
            budget: backend.noise_budget(),
            slot_capacity: backend.slot_capacity(),
            supports_slot_rotation: backend.supports_slot_rotation(),
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
            AdmissionIssue::ChainExceeded {
                required,
                available,
            } => write!(
                f,
                "circuit needs {required} chain primes but the backend's modulus chain has {available}"
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

/// How one classification spends a BGV modulus chain
/// ([`CircuitReport::chain`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainReport {
    /// Primes in the backend's modulus chain.
    pub chain_len: u32,
    /// The fewest primes a fresh query plane must carry for the result
    /// to decrypt — the level [`Sally`](crate::Sally) enters the circuit at. Larger
    /// than `chain_len` when the circuit does not fit the chain.
    pub primes_needed: u32,
    /// Primes each stage consumes from that entry, in pipeline order
    /// (comparison, reshuffle, levels, accumulate).
    pub consumed: [u32; 4],
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
    /// deployment).
    pub model_encrypt_ops: OpCounts,
    /// Encrypt operations per query (`p` bit planes).
    pub query_encrypt_ops: OpCounts,
    /// Widest packed operand (ciphertext or plaintext) the circuit
    /// touches: the slot count the backend must provide.
    pub min_slot_capacity: usize,
    /// The shape [`CircuitReport::chain`] replays.
    circuit: Circuit,
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
    /// deployment) can run it too. The compiler builds every matrix
    /// from exactly these dimensions: `R` is `b × q`, each of the `d`
    /// level matrices `leaves × b` (`leaves × q` when fused).
    pub(crate) fn from_meta(meta: &ModelMeta, fused: bool, shape: &EvalShape) -> Self {
        let (p, d, form) = (meta.precision, meta.max_level, shape.form);
        let level_cols = if fused { meta.quantized } else { meta.branches };

        let mut comparison = StagePrediction {
            ops: seccomp_counts(p, form, shape.comparator),
            depth_cost: seccomp_depth(p, shape.comparator),
        };

        let reshuffle = if fused {
            StagePrediction::default()
        } else {
            StagePrediction {
                ops: matmul_counts(meta.quantized, form),
                depth_cost: 1,
            }
        };

        // The level matrices share one shape (the compiler builds them
        // over the same branch vector) and the runtime multiplies them
        // as one rotation-sharing group.
        let levels = StagePrediction {
            ops: levels_counts(d, level_cols, form),
            depth_cost: u32::from(d > 0),
        };

        let mut accumulate = StagePrediction {
            ops: accumulate_counts(d),
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
                .plus(&matmul_counts(meta.n_leaves, ModelForm::Plain));
            accumulate.depth_cost += 1;
        }

        let mut min_slot_capacity = meta.slot_width(fused);
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
            comparison.ops.rotate += u64::from(p) * (k - 1);
            comparison.ops.add += u64::from(p) * (k - 1);
            accumulate.ops.constant_multiply += k;
            accumulate.ops.rotate += k - 1;
            accumulate.depth_cost += 1;
            // A packed chunk needs all `lanes` blocks side by side.
            min_slot_capacity = min_slot_capacity.max(packing.lanes * packing.stride);
        }

        let depth = comparison.depth_cost
            + reshuffle.depth_cost
            + levels.depth_cost
            + accumulate.depth_cost;

        Self {
            comparison,
            reshuffle,
            levels,
            accumulate,
            depth,
            model_encrypt_ops: model_encrypt_counts(meta, form, fused),
            query_encrypt_ops: query_encrypt_counts(p),
            min_slot_capacity,
            circuit: Circuit {
                shape: *shape,
                precision: p,
                max_level: d,
                quantized: meta.quantized,
                branches: meta.branches,
                leaves: meta.n_leaves,
                level_cols,
                fused,
            },
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

    /// How one classification spends `rule`'s modulus chain: the
    /// fewest primes a fresh query must carry for the result to
    /// decrypt, and what each stage consumes from there.
    ///
    /// The circuit's op sequence is replayed over [`Level`]s — the
    /// query planes switched down from the top of the chain to a
    /// candidate entry, the model's encrypted operands (if any) at the
    /// top, aligned down where they meet the query — and the entry is
    /// the smallest whose result keeps positive noise headroom through
    /// its final switch to one prime. Past the chain the search goes on
    /// over hypothetical longer chains, so a circuit that does not fit
    /// still reports what it needs.
    ///
    /// # Panics
    ///
    /// Panics if no chain of up to 4096 primes fits the circuit.
    pub fn chain(&self, rule: &LevelRule) -> ChainReport {
        let chain_len = rule.chain_len();
        let (entry, trajectory) = (1..=4096)
            .map(|entry| {
                let rule = rule.with_chain_len(entry.max(chain_len));
                (entry, self.circuit.trajectory(&rule, entry))
            })
            .find(|(_, t)| t.decrypts())
            .expect("a long enough chain fits every circuit");
        let spent = |stage: usize| {
            (trajectory.stages[stage].primes - trajectory.stages[stage + 1].primes) as u32
        };
        ChainReport {
            chain_len: chain_len as u32,
            primes_needed: entry as u32,
            consumed: [spent(0), spent(1), spent(2), spent(3)],
        }
    }

    /// Checks the circuit against a backend profile. An empty result
    /// admits the model; each issue carries the numbers that prove the
    /// mismatch. Issues are ordered most-fundamental first: a missing
    /// capability (rotation, slots) precedes the noise verdict.
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

/// The non-secret shape the level interpreter replays: Maurice's
/// dimensions and the evaluation plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Circuit {
    shape: EvalShape,
    precision: u32,
    max_level: u32,
    quantized: usize,
    branches: usize,
    leaves: usize,
    level_cols: usize,
    fused: bool,
}

/// One replay of a circuit: where the query stood at the entry and
/// after each of the four stages, and the result as a client decrypts
/// it (switched down to the last prime).
struct Trajectory {
    stages: [Level; 5],
    result: Level,
}

impl Trajectory {
    fn decrypts(&self) -> bool {
        self.result.headroom_bits > 0.0
    }
}

/// A model operand as the replay sees it: plaintext (it never has a
/// level of its own) or a ciphertext Maurice encrypted at the top of
/// the chain.
#[derive(Clone, Copy)]
enum Operand {
    Plain,
    Encrypted(Level),
}

/// The level semantics of the runtime's operations on one layout.
struct Replay<'a> {
    rule: &'a LevelRule,
    packing: Option<PackPlan>,
}

impl Replay<'_> {
    /// A model operand of the given form, tiled when the layout packs.
    fn operand(&self, form: ModelForm) -> Operand {
        match (form, self.packing) {
            (ModelForm::Plain, _) => Operand::Plain,
            (ModelForm::Encrypted, None) => Operand::Encrypted(self.rule.encrypt()),
            (ModelForm::Encrypted, Some(plan)) => {
                Operand::Encrypted(self.rule.tile(self.rule.encrypt(), plan.stride, plan.lanes))
            }
        }
    }

    /// `MaybeEncrypted::mul_into`.
    fn mul_into(&self, operand: Operand, x: Level) -> Level {
        match operand {
            Operand::Plain => self.rule.mul_plain(x),
            Operand::Encrypted(t) => self.rule.mul(x, t),
        }
    }

    /// `MaybeEncrypted::add_into`.
    fn add_into(&self, operand: Operand, x: Level) -> Level {
        match operand {
            Operand::Plain => self.rule.add_plain(x),
            Operand::Encrypted(t) => self.rule.add(x, t),
        }
    }

    /// `FheBackend::rotate`, or its block form in a packed layout.
    fn rotate(&self, v: Level, k: usize, width: usize) -> Level {
        match self.packing {
            None => self.rule.rotate(v, k as isize, width),
            Some(p) => self
                .rule
                .rotate_blocks(v, k as isize, width, p.stride, p.lanes),
        }
    }

    /// `FheBackend::cyclic_extend`, or its block form.
    fn extend(&self, v: Level, width: usize, new_width: usize) -> Level {
        match self.packing {
            None => self.rule.cyclic_extend(v, width, new_width),
            Some(p) => self
                .rule
                .cyclic_extend_blocks(v, width, new_width, p.stride, p.lanes),
        }
    }

    /// `matmul::mat_vec` of a `rows × cols` matrix of `diagonal`
    /// operands (every matrix of a rotation-sharing group yields the
    /// same level). Its partial sums may combine in any bracketing:
    /// addition noise is associative.
    fn mat_vec(&self, rows: usize, cols: usize, diagonal: Operand, v: Level) -> Level {
        (0..cols)
            .map(|i| {
                let rotated = if i == 0 { v } else { self.rotate(v, i, cols) };
                let adjusted = if rows > cols {
                    self.extend(rotated, cols, rows)
                } else {
                    rotated
                };
                self.mul_into(diagonal, adjusted)
            })
            .reduce(|sum, term| self.rule.add(sum, term))
            .expect("a matrix has columns")
    }

    /// `seccomp::secure_less_than` of one query plane against the
    /// threshold planes.
    fn comparison(&self, c: &Circuit, x: Level) -> Level {
        let rule = self.rule;
        let thresholds = self.operand(c.shape.form);
        let below = self.mul_into(thresholds, rule.add_plain(x));
        if c.precision == 1 {
            return below;
        }
        let equal = rule.add_plain(self.add_into(thresholds, x));
        let p = c.precision as usize;
        let terms: Vec<Level> = match c.shape.comparator {
            SecCompVariant::LadderPrefix => (1..p)
                .map(|i| {
                    let factors = std::iter::once(below).chain(std::iter::repeat_n(equal, i));
                    balanced(factors.collect(), |a, b| rule.mul(a, b))
                })
                .collect(),
            SecCompVariant::SharedPrefix => {
                let mut prefix = vec![equal; p - 1];
                let mut step = 1;
                while step < prefix.len() {
                    let snapshot = prefix.clone();
                    for i in step..prefix.len() {
                        prefix[i] = rule.mul(snapshot[i], snapshot[i - step]);
                    }
                    step *= 2;
                }
                prefix.iter().map(|&e| rule.mul(e, below)).collect()
            }
        };
        terms.iter().fold(below, |acc, &t| rule.add(acc, t))
    }
}

impl Circuit {
    /// Replays one classification whose query planes enter at `entry`
    /// primes (switched down from the top of `rule`'s chain).
    fn trajectory(&self, rule: &LevelRule, entry: usize) -> Trajectory {
        let replay = Replay {
            rule,
            packing: self.shape.packing,
        };
        let form = self.shape.form;
        let plane = rule.mod_switch_to(rule.encrypt(), entry);
        let x = match self.shape.packing {
            None => plane,
            Some(plan) => rule.pack_blocks(&vec![plane; plan.lanes], plan.stride),
        };
        let decisions = replay.comparison(self, x);
        let branches = if self.fused {
            decisions
        } else {
            let r = replay.operand(form);
            replay.mat_vec(self.branches, self.quantized, r, decisions)
        };
        let selected = replay.mat_vec(self.leaves, self.level_cols, replay.operand(form), branches);
        let level = replay.add_into(replay.operand(form), selected);
        let results = vec![level; self.max_level as usize];
        let mut labels = match self.shape.accumulation {
            Accumulation::Linear => results
                .into_iter()
                .reduce(|acc, r| rule.mul(acc, r))
                .expect("compile guarantees >= 1 level"),
            Accumulation::BalancedTree => balanced(results, |a, b| rule.mul(a, b)),
        };
        if self.shape.result_shuffle {
            labels = replay.mat_vec(self.leaves, self.leaves, Operand::Plain, labels);
        }
        // Splitting a packed unit: every lane after the first pays a
        // rotation before its mask, so lane 1 is the noisiest.
        let result = match self.shape.packing {
            None => labels,
            Some(plan) => rule.unpack_block(labels, 1, plan.stride, self.leaves),
        };
        Trajectory {
            stages: [plane, decisions, branches, level, result],
            result: rule.mod_switch_to(result, 1),
        }
    }
}

/// Balanced pairwise reduction (adjacent pairs combine, an odd last
/// item carries over), the shape of `seccomp::balanced_product` and of
/// the balanced accumulation tree.
fn balanced<T: Copy>(mut items: Vec<T>, pair: impl Fn(T, T) -> T) -> T {
    assert!(!items.is_empty(), "product of no factors");
    while items.len() > 1 {
        items = items
            .chunks(2)
            .map(|c| match *c {
                [a, b] => pair(a, b),
                [a] => a,
                _ => unreachable!("chunks(2)"),
            })
            .collect();
    }
    items[0]
}

/// SecComp counts for precision `p` (matches
/// `seccomp::secure_less_than` op-for-op).
pub fn seccomp_counts(p: u32, form: ModelForm, variant: SecCompVariant) -> OpCounts {
    let p = u64::from(p);
    let mut c = OpCounts::default();
    // below: NOT (ConstantAdd) then threshold multiply.
    c.constant_add += p;
    match form {
        ModelForm::Encrypted => c.multiply += p,
        ModelForm::Plain => c.constant_multiply += p,
    }
    if p == 1 {
        return c;
    }
    // equality bits: XOR with threshold then NOT.
    match form {
        ModelForm::Encrypted => c.add += p - 1,
        ModelForm::Plain => c.constant_add += p - 1,
    }
    c.constant_add += p - 1;
    match variant {
        SecCompVariant::LadderPrefix => {
            // Term i multiplies i+1 factors: i multiplies each,
            // independently (Aloufi's per-term pairing).
            c.multiply += p * (p - 1) / 2;
        }
        SecCompVariant::SharedPrefix => {
            // Hillis-Steele scan over p-1 elements, then one
            // multiply per term.
            let n = p - 1;
            let mut step = 1;
            while step < n {
                c.multiply += n - step;
                step *= 2;
            }
            c.multiply += p - 1;
        }
    }
    // XOR fold of the terms.
    c.add += p - 1;
    c
}

/// SecComp output depth.
pub fn seccomp_depth(p: u32, variant: SecCompVariant) -> u32 {
    if p == 1 {
        return 1;
    }
    match variant {
        SecCompVariant::LadderPrefix => (1..p)
            .map(|i| {
                let mut depths = vec![1u32]; // below[i]
                depths.extend(std::iter::repeat_n(0, i as usize)); // e's
                product_depth(depths)
            })
            .max()
            .expect("p >= 2")
            .max(1),
        SecCompVariant::SharedPrefix => log2ceil(u64::from(p) - 1).max(1) + 1,
    }
}

/// Depth of a balanced pairwise product over factors with the given
/// depths (mirrors `seccomp::balanced_product`).
fn product_depth(depths: Vec<u32>) -> u32 {
    balanced(depths, |a, b| a.max(b) + 1)
}

/// One Halevi-Shoup MatMul over an `n`-column matrix: `n-1` rotations
/// (offset 0 is free), `n` multiplies, `n-1` adds.
fn matmul_counts(cols: usize, form: ModelForm) -> OpCounts {
    let n = cols as u64;
    let mut c = OpCounts::default();
    c.rotate += n.saturating_sub(1);
    match form {
        ModelForm::Encrypted => c.multiply += n,
        ModelForm::Plain => c.constant_multiply += n,
    }
    c.add += n.saturating_sub(1);
    c
}

/// All `d` level stages: every level matrix multiplies the same branch
/// vector, so `mat_vec_many` rotates it once for all of them — `cols -
/// 1` rotations in total where the paper's Table 1b pays them per
/// level — while multiplies, adds and the mask XOR stay per level.
fn levels_counts(d: u32, cols: usize, form: ModelForm) -> OpCounts {
    let per_level = matmul_counts(cols, form);
    let mut c = OpCounts {
        rotate: if d > 0 { per_level.rotate } else { 0 },
        ..OpCounts::default()
    };
    for _ in 0..d {
        c = c.plus(&OpCounts {
            rotate: 0,
            ..per_level
        });
        match form {
            ModelForm::Encrypted => c.add += 1,
            ModelForm::Plain => c.constant_add += 1,
        }
    }
    c
}

/// Accumulation of `d` level results: `d-1` ciphertext multiplies under
/// either strategy (they differ only in depth).
fn accumulate_counts(d: u32) -> OpCounts {
    let mut c = OpCounts::default();
    c.multiply += u64::from(d.saturating_sub(1));
    c
}

/// Encrypt operations to deploy an encrypted model: `p + q + d(b+1)`
/// (paper Table 1d; `p + d(q+1)` when fused; plaintext deployment
/// costs 0).
fn model_encrypt_counts(meta: &ModelMeta, form: ModelForm, fused: bool) -> OpCounts {
    let mut c = OpCounts::default();
    if form == ModelForm::Encrypted {
        let level_cols = if fused { meta.quantized } else { meta.branches } as u64;
        c.encrypt += u64::from(meta.precision); // threshold planes
        if !fused {
            c.encrypt += meta.quantized as u64; // reshuffle diagonals
        }
        c.encrypt += u64::from(meta.max_level) * (level_cols + 1); // levels + masks
    }
    c
}

/// Encrypt operations for one query: `p` bit planes. The paper's Table
/// 1e lists 1 (a fully packed query); we encrypt one ciphertext per bit
/// plane, which is what its SecComp consumes.
fn query_encrypt_counts(p: u32) -> OpCounts {
    let mut c = OpCounts::default();
    c.encrypt += u64::from(p);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::CompileOptions;
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
            supports_slot_rotation: true,
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
        use SecCompVariant::{LadderPrefix, SharedPrefix};
        for v in [LadderPrefix, SharedPrefix] {
            assert_eq!(seccomp_depth(1, v), 1);
            assert_eq!(seccomp_depth(2, v), 2);
        }
        assert_eq!(seccomp_depth(8, SharedPrefix), log2ceil(7) + 1);
        // Ladder: largest term multiplies 8 factors, one at depth 1.
        assert_eq!(seccomp_depth(8, LadderPrefix), 4);
    }

    #[test]
    fn product_depth_matches_log_bound() {
        assert_eq!(product_depth(vec![0]), 0);
        assert_eq!(product_depth(vec![0, 0]), 1);
        assert_eq!(product_depth(vec![0; 8]), 3);
        // [1,0,0]: (1*0) at depth 2, then *0 at depth 3 (odd carry).
        assert_eq!(product_depth(vec![1, 0, 0]), 3);
    }

    #[test]
    fn ladder_is_more_expensive_than_shared() {
        // Quadratic vs p log p: equal at p = 4, strictly worse beyond.
        let mult = |p, v| seccomp_counts(p, ModelForm::Encrypted, v).multiply;
        assert_eq!(
            mult(4, SecCompVariant::LadderPrefix),
            mult(4, SecCompVariant::SharedPrefix)
        );
        for p in [8u32, 16, 32] {
            let ladder = mult(p, SecCompVariant::LadderPrefix);
            let shared = mult(p, SecCompVariant::SharedPrefix);
            assert!(ladder > shared, "p = {p}: {ladder} !> {shared}");
        }
    }

    #[test]
    fn query_encrypt_counts_are_p() {
        assert_eq!(query_encrypt_counts(8).encrypt, 8);
        assert_eq!(query_encrypt_counts(16).encrypt, 16);
    }
}
