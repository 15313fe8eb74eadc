//! Static circuit analysis for compiled COPSE models.
//!
//! The COPSE pipeline is a *fixed* circuit per compiled model: its
//! operation counts and multiplicative depth depend only on the model
//! shape and the evaluation plan, never on the (encrypted) query data.
//! This module is the abstract interpreter that analyses it, and the
//! one place that knows the circuit: a replay of the runtime's op
//! sequence (every bit plane, level matrix and packed lane) that reads
//! each operation three ways — the metered [`FheOp`], the
//! multiplicative depth the clear backend tracks, and, given a BGV
//! [`LevelRule`], the chain position.
//!
//! * [`CircuitReport::analyze`] replays one classification without a
//!   rule: per-stage operation counts and depth, which the conformance
//!   suite asserts op for op against a scoped [`copse_fhe::OpMeter`]
//!   for every model in the benchmark zoo.
//! * [`CircuitReport::chain`] replays it under a [`LevelRule`] — noise
//!   growth, modulus switching and operand alignment exactly as the
//!   scheme applies them — for the fewest chain primes a fresh query
//!   must carry ([`ChainReport::primes_needed`], the level [`Sally`]
//!   enters it at) and the primes each stage consumes.
//! * [`BackendProfile::of`] captures what a concrete [`FheBackend`]
//!   can evaluate: its [`NoiseBudget`] (a modulus chain, or a depth
//!   limit), slot capacity, and whether slots rotate at all (the
//!   negacyclic power-of-two ring has no GF(2) slot structure).
//! * [`CircuitReport::admit`] compares the two and returns structured
//!   [`AdmissionIssue`]s. `copse-server` runs it on every deploy, so a
//!   model that would exhaust the chain or panic on a rotation-free
//!   ring is rejected with a typed diagnostic before any ciphertext is
//!   touched; [`Sally`] asks it whether a packed chunk still fits.
//!
//! The stages line up with the runtime's [`EvalTrace`](crate::EvalTrace)
//! (comparison, reshuffle, levels, accumulate), so `copse-bench`'s
//! `analyze_json` prints predicted and measured side by side. The
//! paper's own Table 1–2 closed forms live, as printed, in
//! [`crate::complexity::paper`].
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
use crate::runtime::{Maurice, ModelForm, PackPlan};
use crate::seccomp::SecCompVariant;
use copse_fhe::{CostModel, FheBackend, FheOp, Level, LevelRule, NoiseBudget, OpCounts};
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
    /// deployment) can run it too: the compiler builds every matrix
    /// from exactly these dimensions.
    pub(crate) fn from_meta(meta: &ModelMeta, fused: bool, shape: &EvalShape) -> Self {
        let circuit = Circuit {
            shape: *shape,
            meta: meta.clone(),
            fused,
        };
        let walk = circuit.replay(None, 0);
        let [comparison, reshuffle, levels, accumulate] = walk.stages;
        // A packed chunk needs all `lanes` blocks side by side.
        let packed_width = shape.packing.map_or(0, |plan| plan.lanes * plan.stride);
        let encrypts = |encrypt| OpCounts {
            encrypt,
            ..OpCounts::default()
        };
        Self {
            comparison,
            reshuffle,
            levels,
            accumulate,
            depth: walk.stages.iter().map(|stage| stage.depth_cost).sum(),
            model_encrypt_ops: encrypts(walk.model_encrypts),
            // One ciphertext per bit plane, as SecComp consumes them
            // (the paper's Table 1e lists 1, a fully packed query).
            query_encrypt_ops: encrypts(u64::from(meta.precision)),
            min_slot_capacity: meta.slot_width(fused).max(packed_width),
            circuit,
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
    /// fewest primes a fresh query must carry for every result to
    /// decrypt, and what each stage consumes from there.
    ///
    /// It runs [`CircuitReport::analyze`]'s replay under `rule`, the
    /// query planes switched down to a candidate entry and the model's
    /// encrypted operands (if any) at the top of the chain, and takes
    /// the smallest entry at which every result — the worst packed
    /// lane's too — keeps positive headroom through its final switch
    /// to one prime. The search goes on past the chain, so a circuit
    /// that does not fit still reports what it needs.
    ///
    /// # Panics
    ///
    /// Panics if no chain of up to 4096 primes fits the circuit.
    pub fn chain(&self, rule: &LevelRule) -> ChainReport {
        let chain_len = rule.chain_len();
        let (entry, walk) = (1..=4096)
            .find_map(|entry| {
                let rule = rule.with_chain_len(entry.max(chain_len));
                let walk = self.circuit.replay(Some(&rule), entry);
                let decrypts = |v: &Value| rule.mod_switch_to(v.at(), 1).headroom_bits > 0.0;
                walk.results.iter().all(decrypts).then_some((entry, walk))
            })
            .expect("a long enough chain fits every circuit");
        let primes = walk.values.map(|value| value.at().primes as u32);
        ChainReport {
            chain_len: chain_len as u32,
            primes_needed: entry as u32,
            consumed: [0, 1, 2, 3].map(|stage| primes[stage] - primes[stage + 1]),
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

/// The non-secret shape the replay walks: Maurice's dimensions and the
/// evaluation plan.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Circuit {
    shape: EvalShape,
    meta: ModelMeta,
    fused: bool,
}

/// What the replay carries in place of a ciphertext: the
/// multiplicative depth the clear backend tracks and, under a level
/// rule, the BGV chain position.
#[derive(Clone, Copy, Debug, Default)]
struct Value {
    depth: u32,
    level: Option<Level>,
}

impl Value {
    /// The chain position of a value replayed under a level rule.
    fn at(self) -> Level {
        self.level.expect("levels are replayed under a rule")
    }

    /// The deepest of one stage's outputs: what the runtime's trace
    /// reads off its deepest ciphertext.
    fn deepest(values: &[Value]) -> Value {
        let primes = |v: &Value| v.level.map_or(0, |level| level.primes);
        *values
            .iter()
            .max_by_key(|v| (v.depth, std::cmp::Reverse(primes(v))))
            .expect("a stage has outputs")
    }
}

/// One replay of a circuit: each stage's metered ops and added depth,
/// the query at the entry and after each stage, every result a client
/// decrypts (one per packed lane), and how many model operands Maurice
/// encrypts.
struct Walk {
    stages: [StagePrediction; 4],
    values: [Value; 5],
    results: Vec<Value>,
    model_encrypts: u64,
}

/// The runtime's operations on one layout, as the replay reads them:
/// each meters its [`FheOp`] into the current stage and moves depth
/// (and, under a rule, the level) the way the backends do. A model
/// operand is `Some` ciphertext, or `None` for a plaintext.
#[derive(Default)]
struct Replay<'a> {
    rule: Option<&'a LevelRule>,
    packing: Option<PackPlan>,
    /// Ops metered since the current stage began.
    ops: OpCounts,
    model_encrypts: u64,
}

impl Replay<'_> {
    /// Closes a stage that took the query from `input` to `output`.
    fn stage(&mut self, input: Value, output: Value) -> StagePrediction {
        StagePrediction {
            ops: std::mem::take(&mut self.ops),
            depth_cost: output.depth - input.depth,
        }
    }

    /// Meters `op` and yields its result at `depth` and, under a rule,
    /// at `level(rule)`.
    fn op(&mut self, op: FheOp, depth: u32, level: impl FnOnce(&LevelRule) -> Level) -> Value {
        *self.ops.get_mut(op) += 1;
        let level = self.rule.map(level);
        Value { depth, level }
    }

    /// A model operand of `form`: Maurice encrypts it at the top of the
    /// chain unless it is plaintext. Tiling it for a packed layout is
    /// deploy-time work: it moves the level but meters nothing.
    fn operand(&mut self, form: ModelForm) -> Option<Value> {
        if form == ModelForm::Plain {
            return None;
        }
        self.model_encrypts += 1;
        let level = self.rule.map(|rule| match self.packing {
            None => rule.encrypt(),
            Some(plan) => rule.tile(rule.encrypt(), plan.stride, plan.lanes),
        });
        Some(Value { depth: 0, level })
    }

    /// `MaybeEncrypted::mul_into`: a product with a ciphertext `t`, or
    /// a constant one.
    fn mul(&mut self, x: Value, t: Option<Value>) -> Value {
        match t {
            None => self.op(FheOp::ConstantMultiply, x.depth + 1, |rule| {
                rule.mul_plain(x.at())
            }),
            Some(t) => self.op(FheOp::Multiply, x.depth.max(t.depth) + 1, |rule| {
                rule.mul(x.at(), t.at())
            }),
        }
    }

    /// `MaybeEncrypted::add_into`, likewise; a NOT adds a constant.
    fn add(&mut self, x: Value, t: Option<Value>) -> Value {
        match t {
            None => self.op(FheOp::ConstantAdd, x.depth, |rule| rule.add_plain(x.at())),
            Some(t) => self.op(FheOp::Add, x.depth.max(t.depth), |rule| {
                rule.add(x.at(), t.at())
            }),
        }
    }

    /// `FheBackend::rotate` by a nonzero `k`, or its block form in a
    /// packed layout.
    fn rotate(&mut self, v: Value, k: usize, width: usize) -> Value {
        let packing = self.packing;
        self.op(FheOp::Rotate, v.depth, |rule| match packing {
            None => rule.rotate(v.at(), k as isize, width),
            Some(p) => rule.rotate_blocks(v.at(), k as isize, width, p.stride, p.lanes),
        })
    }

    /// `matmul`'s width adjustment from `width` to `new_width` slots:
    /// `FheBackend::cyclic_extend` (or its block form) when it grows, a
    /// free relabel when it shrinks. Layout ops are unmetered.
    fn adjust(&self, v: Value, width: usize, new_width: usize) -> Value {
        if new_width <= width {
            return v;
        }
        let level = self.rule.map(|rule| match self.packing {
            None => rule.cyclic_extend(v.at(), width, new_width),
            Some(p) => rule.cyclic_extend_blocks(v.at(), width, new_width, p.stride, p.lanes),
        });
        Value { level, ..v }
    }

    /// `FheBackend::pack_blocks` of `plan.lanes` copies of `plane`: an
    /// alignment rotation and an addition for every lane after the
    /// first.
    fn pack(&mut self, plane: Value, plan: PackPlan) -> Value {
        let extra = plan.lanes as u64 - 1;
        self.ops.rotate += extra;
        self.ops.add += extra;
        let level = self
            .rule
            .map(|rule| rule.tile(plane.at(), plan.stride, plan.lanes));
        Value { level, ..plane }
    }

    /// `FheBackend::unpack_block` of lane `index`: a rotation to the
    /// front (lane 0 stays put), then the block mask.
    fn unpack(&mut self, v: Value, index: usize, stride: usize, width: usize) -> Value {
        self.ops.rotate += u64::from(index > 0);
        self.op(FheOp::ConstantMultiply, v.depth + 1, |rule| {
            rule.unpack_block(v.at(), index, stride, width)
        })
    }

    /// `matmul::mat_vec_many` of `count` `rows × cols` matrices of
    /// `form` diagonals: the group shares the rotations of `v`
    /// (diagonal 0 needs none) and each matrix multiplies and adds its
    /// own, folding in any bracketing (associative in every reading).
    fn mat_vec_many(
        &mut self,
        count: usize,
        rows: usize,
        cols: usize,
        form: ModelForm,
        v: Value,
    ) -> Vec<Value> {
        let mut sums: Vec<Option<Value>> = vec![None; count];
        for i in 0..cols {
            let rotated = if i == 0 { v } else { self.rotate(v, i, cols) };
            let adjusted = self.adjust(rotated, cols, rows);
            for sum in &mut sums {
                let diagonal = self.operand(form);
                let term = self.mul(adjusted, diagonal);
                *sum = Some(sum.map_or(term, |acc| self.add(acc, Some(term))));
            }
        }
        sums.into_iter().flatten().collect()
    }

    /// `seccomp::secure_less_than` of the query's bit planes `x`
    /// against threshold planes of `form`.
    fn comparison(&mut self, x: &[Value], form: ModelForm, variant: SecCompVariant) -> Value {
        let p = x.len();
        let t: Vec<Option<Value>> = x.iter().map(|_| self.operand(form)).collect();
        let below: Vec<Value> = (0..p)
            .map(|i| {
                let not = self.add(x[i], None);
                self.mul(not, t[i])
            })
            .collect();
        if p == 1 {
            return below[0];
        }
        let equal: Vec<Value> = (0..p - 1)
            .map(|i| {
                let xor = self.add(x[i], t[i]);
                self.add(xor, None)
            })
            .collect();
        let terms: Vec<Value> = match variant {
            SecCompVariant::LadderPrefix => (1..p)
                .map(|i| {
                    let factors = std::iter::once(below[i]).chain(equal[..i].iter().copied());
                    balanced(factors.collect(), |a, b| self.mul(a, Some(b)))
                })
                .collect(),
            SecCompVariant::SharedPrefix => {
                let mut prefix = equal;
                let mut step = 1;
                while step < prefix.len() {
                    let snapshot = prefix.clone();
                    for i in step..prefix.len() {
                        prefix[i] = self.mul(snapshot[i], Some(snapshot[i - step]));
                    }
                    step *= 2;
                }
                (0..p - 1)
                    .map(|j| self.mul(prefix[j], Some(below[j + 1])))
                    .collect()
            }
        };
        terms
            .into_iter()
            .fold(below[0], |acc, term| self.add(acc, Some(term)))
    }
}

impl Circuit {
    /// Replays one classification — one full chunk of `lanes` queries
    /// when the layout packs — closing each stage where the runtime's
    /// `staged` block does. Under a rule the query planes enter at
    /// `entry` primes (`entry` is unused without one).
    fn replay(&self, rule: Option<&LevelRule>, entry: usize) -> Walk {
        let (form, packing, m) = (self.shape.form, self.shape.packing, &self.meta);
        let mut r = Replay {
            rule,
            packing,
            ..Replay::default()
        };
        // A fresh query plane switched down to `entry` primes: client
        // work and a keyless switch, neither of them metered.
        let level = rule.map(|rule| rule.mod_switch_to(rule.encrypt(), entry));
        let plane = Value { depth: 0, level };

        // Step 1, packing each plane's lanes included.
        let planes: Vec<Value> = (0..m.precision)
            .map(|_| packing.map_or(plane, |plan| r.pack(plane, plan)))
            .collect();
        let decisions = r.comparison(&planes, form, self.shape.comparator);
        let comparison = r.stage(plane, decisions);

        // Step 2: `R` is `b × q`, unless fused away.
        let branches = if self.fused {
            decisions
        } else {
            r.mat_vec_many(1, m.branches, m.quantized, form, decisions)[0]
        };
        let reshuffle = r.stage(decisions, branches);

        // Step 3: the `d` level matrices (`leaves × b`, or `leaves × q`
        // fused) as one rotation-sharing group, then each level's mask.
        let cols = if self.fused { m.quantized } else { m.branches };
        let selected = r.mat_vec_many(m.max_level as usize, m.n_leaves, cols, form, branches);
        let level_results: Vec<Value> = selected
            .into_iter()
            .map(|s| {
                let mask = r.operand(form);
                r.add(s, mask)
            })
            .collect();
        let level = Value::deepest(&level_results);
        let levels = r.stage(branches, level);

        // Step 4: accumulate, scramble with Sally's permutation (her
        // own secret, so a plaintext MatMul whatever the model form),
        // and split the lanes back out.
        let mut labels = match self.shape.accumulation {
            Accumulation::Linear => level_results
                .into_iter()
                .reduce(|acc, x| r.mul(acc, Some(x)))
                .expect("compile guarantees >= 1 level"),
            Accumulation::BalancedTree => balanced(level_results, |a, b| r.mul(a, Some(b))),
        };
        if self.shape.result_shuffle {
            labels = r.mat_vec_many(1, m.n_leaves, m.n_leaves, ModelForm::Plain, labels)[0];
        }
        let results: Vec<Value> = match packing {
            None => vec![labels],
            Some(plan) => (0..plan.lanes)
                .map(|lane| r.unpack(labels, lane, plan.stride, m.n_leaves))
                .collect(),
        };
        let result = Value::deepest(&results);
        let accumulate = r.stage(level, result);

        Walk {
            stages: [comparison, reshuffle, levels, accumulate],
            values: [plane, decisions, branches, level, result],
            results,
            model_encrypts: r.model_encrypts,
        }
    }
}

/// Balanced pairwise reduction (adjacent pairs combine, an odd last
/// item carries over), the shape of `seccomp::balanced_product` and of
/// the balanced accumulation tree.
fn balanced<T: Copy>(mut items: Vec<T>, mut pair: impl FnMut(T, T) -> T) -> T {
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

/// One SecComp at precision `p` against thresholds of `form` — the
/// comparison stage alone, replayed: its ops (those of
/// `seccomp::secure_less_than`, op for op) and its depth.
pub fn seccomp(p: u32, form: ModelForm, variant: SecCompVariant) -> StagePrediction {
    let mut replay = Replay::default();
    let plane = Value::default();
    let decision = replay.comparison(&vec![plane; p as usize], form, variant);
    replay.stage(plane, decision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::CompileOptions;
    use crate::complexity::log2ceil;
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
        let depth = |p, v| seccomp(p, ModelForm::Plain, v).depth_cost;
        for v in [LadderPrefix, SharedPrefix] {
            assert_eq!(depth(1, v), 1);
            assert_eq!(depth(2, v), 2);
        }
        assert_eq!(depth(8, SharedPrefix), log2ceil(7) + 1);
        // Ladder: largest term multiplies 8 factors, one at depth 1.
        assert_eq!(depth(8, LadderPrefix), 4);
    }

    #[test]
    fn product_depth_matches_log_bound() {
        // The depth of the replay's balanced product over factors of
        // the given depths.
        let product_depth = |depths: Vec<u32>| {
            let mut replay = Replay::default();
            let factors = depths
                .into_iter()
                .map(|depth| Value { depth, level: None })
                .collect();
            balanced(factors, |a, b| replay.mul(a, Some(b))).depth
        };
        assert_eq!(product_depth(vec![0]), 0);
        assert_eq!(product_depth(vec![0, 0]), 1);
        assert_eq!(product_depth(vec![0; 8]), 3);
        // [1,0,0]: (1*0) at depth 2, then *0 at depth 3 (odd carry).
        assert_eq!(product_depth(vec![1, 0, 0]), 3);
    }

    #[test]
    fn ladder_is_more_expensive_than_shared() {
        // Quadratic vs p log p: equal at p = 4, strictly worse beyond.
        let mult = |p, v| seccomp(p, ModelForm::Encrypted, v).ops.multiply;
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
        let maurice = compiled(false);
        let p = u64::from(maurice.compiled().meta.precision);
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            assert_eq!(report(&maurice, form).query_encrypt_ops.encrypt, p);
        }
    }
}
