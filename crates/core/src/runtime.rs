//! The COPSE runtime: parties and the vectorized inference algorithm.
//!
//! Three notional parties cooperate (paper §3.1):
//!
//! * [`Maurice`] owns the model. He compiles it and *deploys* it — in
//!   plaintext when he also operates the server, or encrypted when he
//!   offloads (paper §8.3).
//! * [`Diane`] owns feature vectors. She replicates each feature to the
//!   revealed maximum multiplicity `K`, bit-slices, encrypts, and later
//!   decrypts the returned N-hot classification bitvector.
//! * [`Sally`] owns compute. She evaluates Algorithm 1 over encrypted
//!   queries: SecComp → reshuffle MatMul → per-level MatMul ⊕ mask →
//!   accumulation product.
//!
//! All stages run over any [`FheBackend`]; per-stage timings and
//! operation counts can be captured with
//! [`Sally::classify_traced`] (the Figure 10 breakdowns).

use crate::analyze::{self, BackendProfile, CircuitReport, EvalShape};
use crate::artifacts::{BoolMatrix, CompiledModel, ModelMeta};
use crate::compiler::{self, Accumulation, CompileOptions};
use crate::matmul::{mat_vec, mat_vec_many, tile_operand, EncodedMatrix, MatMulOptions};
use crate::parallel::{map_indices, Parallelism};
use crate::seccomp::{secure_less_than, SecCompVariant};
use copse_fhe::{
    BitSliced, BitVec, FheBackend, KeySwitchCounts, MaybeEncrypted, NoiseBudget, OpCounts, OpMeter,
    TransformCounts,
};
use copse_forest::model::Forest;
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

pub use crate::compiler::CompileError;

/// Whether model artifacts are deployed in plaintext or encrypted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelForm {
    /// The evaluator sees the model (Maurice = Sally; paper Fig. 9
    /// "plaintext models").
    Plain,
    /// The model is encrypted under the query key (Maurice offloads).
    Encrypted,
}

impl ModelForm {
    /// A model vector of this form, as [`Maurice::deploy`] makes each:
    /// the plaintext itself, or its encryption (one metered encrypt).
    pub(crate) fn operand<B: FheBackend>(self, be: &B, pt: B::Plaintext) -> MaybeEncrypted<B> {
        match self {
            ModelForm::Plain => MaybeEncrypted::Plain(pt),
            ModelForm::Encrypted => MaybeEncrypted::Encrypted(be.encrypt(&pt)),
        }
    }
}

/// Cross-query slot packing policy.
///
/// When the backend reports a slot capacity wide enough for several
/// query blocks, Sally can evaluate `k` queries per ciphertext: every
/// stage runs once per *unit* of up to `k` queries instead of once per
/// query, and results split back out at decode time via the backend's
/// cached slot-range masks. Decoded results are bitwise identical to
/// per-query evaluation (the parity battery in
/// `tests/packing_props.rs` enforces this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PackingMode {
    /// Pack whenever [`Sally::pack_plan`] finds room: the backend has
    /// a slot capacity of at least two query strides, and its noise
    /// budget admits the packed circuit (the unpack mask costs one more
    /// level). On a backend without a capacity (an uncapped clear
    /// backend) every unit is transparently a single query.
    #[default]
    Auto,
    /// Never pack; every unit of a batch is a single query over its
    /// own ciphertexts (the benchmark baseline).
    Off,
}

/// Evaluator options.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalOptions {
    /// Threading for every stage.
    pub parallelism: Parallelism,
    /// Cross-query slot packing policy for batches.
    pub packing: PackingMode,
    /// MatMul kernel options (sparse-diagonal ablation).
    pub matmul: MatMulOptions,
    /// SecComp strategy: the linear divide-and-conquer tree by default;
    /// the paper exhibits and the baseline name Aloufi's ladder.
    pub comparator: SecCompVariant,
    /// When set, Sally applies a secret random permutation to the
    /// result vector (one extra plaintext MatMul) and hands clients a
    /// correspondingly permuted codebook, hiding the label order of
    /// the forest's leaves (paper §7.2.2's shuffling countermeasure;
    /// off by default, as in the paper's evaluation).
    pub shuffle_seed: Option<u64>,
}

/// Errors when Diane prepares a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Wrong number of features.
    FeatureCountMismatch {
        /// Features the model expects.
        expected: usize,
        /// Features supplied.
        got: usize,
    },
    /// A feature value exceeds the model precision.
    FeatureOverflow {
        /// Offending value.
        value: u64,
        /// Model precision in bits.
        precision: u32,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::FeatureCountMismatch { expected, got } => {
                write!(f, "expected {expected} features, got {got}")
            }
            QueryError::FeatureOverflow { value, precision } => {
                write!(f, "feature value {value} does not fit in {precision} bits")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// The model owner: compiles and deploys forests.
#[derive(Clone, Debug)]
pub struct Maurice {
    compiled: CompiledModel,
    accumulation: Accumulation,
}

impl Maurice {
    /// Compiles a trained forest (paper §5).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the compiler.
    pub fn compile(forest: &Forest, options: CompileOptions) -> Result<Self, CompileError> {
        Ok(Self {
            compiled: compiler::compile(forest, options)?,
            accumulation: options.accumulation,
        })
    }

    /// Wraps an already-compiled model (used by programs emitted by
    /// the staging back-end, which embed artifacts as literals).
    pub fn from_compiled(compiled: CompiledModel, accumulation: Accumulation) -> Self {
        Self {
            compiled,
            accumulation,
        }
    }

    /// The compiled artifacts (inspection/codegen).
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// The accumulation strategy evaluation will use — the one piece
    /// of the evaluation plan Maurice fixes at compile time. Static
    /// analysis ([`EvalShape::plan`]) reads it to pick the right depth
    /// formula for the final product stage.
    pub fn accumulation(&self) -> Accumulation {
        self.accumulation
    }

    /// What Maurice must reveal for queries to be formed: `K`, the
    /// feature count, precision, and the result codebook (paper steps
    /// 0 and 4; §7.2 discusses exactly what this leaks).
    pub fn public_query_info(&self) -> QueryInfo {
        QueryInfo::reveal(&self.compiled.meta, self.compiled.codebook.clone())
    }

    /// Encodes (plain) or encrypts (offloaded) every artifact for the
    /// evaluator. Encryption costs `p + q + d·(b+1)` Encrypt
    /// operations, the paper's Table 1d.
    pub fn deploy<B: FheBackend>(&self, backend: &B, form: ModelForm) -> DeployedModel<B> {
        let m = &self.compiled;
        let wrap_vec = |bits: &BitVec| form.operand(backend, backend.encode(bits));
        let wrap_matrix = |matrix| match form {
            ModelForm::Plain => EncodedMatrix::encode_plain(backend, matrix),
            ModelForm::Encrypted => EncodedMatrix::encrypt(backend, matrix),
        };
        DeployedModel {
            form,
            meta: m.meta.clone(),
            codebook: m.codebook.clone(),
            operands: Operands {
                thresholds: m.thresholds.planes().iter().map(&wrap_vec).collect(),
                reshuffle: (!m.fused).then(|| Arc::new(wrap_matrix(&m.reshuffle))),
                levels: m.levels.iter().map(wrap_matrix).collect(),
                masks: m.masks.iter().map(&wrap_vec).map(Mask::new).collect(),
                shuffle: None,
                packing: None,
            },
            accumulation: self.accumulation,
        }
    }
}

/// Everything the four stages read besides the query: Maurice's
/// artifacts plus Sally's result-shuffle matrix. One type serves both
/// layouts — as deployed (one query per ciphertext), and
/// [tiled](Operands::tile) so that every operand repeats in each slot
/// block of a packed unit — and each layout both as deployed and as
/// Sally [hosts](Operands::host) it. The matrices are shared, not
/// copied, between a model and the sets hosted from it.
#[derive(Debug)]
struct Operands<B: FheBackend> {
    thresholds: Vec<MaybeEncrypted<B>>,
    reshuffle: Option<Arc<EncodedMatrix<B>>>,
    levels: Arc<[EncodedMatrix<B>]>,
    masks: Vec<Mask<B>>,
    /// Sally's secret result permutation (paper §7.2.2), set when she
    /// hosts the model with a `shuffle_seed`. Always plaintext: it is
    /// her secret, not Maurice's.
    shuffle: Option<Arc<EncodedMatrix<B>>>,
    /// The block layout of a tiled set; `None` as deployed.
    packing: Option<PackPlan>,
}

impl<B: FheBackend> Clone for Operands<B> {
    fn clone(&self) -> Self {
        Self {
            thresholds: self.thresholds.clone(),
            reshuffle: self.reshuffle.clone(),
            levels: self.levels.clone(),
            masks: self.masks.clone(),
            shuffle: self.shuffle.clone(),
            packing: self.packing,
        }
    }
}

impl<B: FheBackend> Operands<B> {
    /// The same operands repeated at block offsets `0, stride,
    /// 2·stride, …`, so each stage's homomorphic ops apply to all
    /// `lanes` packed queries at once.
    fn tile(&self, be: &B, plan: PackPlan) -> Self {
        let (s, c) = (plan.stride, plan.lanes);
        let tile_vecs = |vecs: &[MaybeEncrypted<B>]| -> Vec<MaybeEncrypted<B>> {
            vecs.iter().map(|v| tile_operand(be, v, s, c)).collect()
        };
        Self {
            thresholds: tile_vecs(&self.thresholds),
            reshuffle: self.reshuffle.as_ref().map(|r| Arc::new(r.pack(be, s, c))),
            levels: self.levels.iter().map(|l| l.pack(be, s, c)).collect(),
            masks: self
                .masks
                .iter()
                .map(|mask| Mask::new(tile_operand(be, &mask.operand, s, c)))
                .collect(),
            shuffle: self.shuffle.as_ref().map(|sh| Arc::new(sh.pack(be, s, c))),
            packing: Some(plan),
        }
    }

    /// The vector operands every query reads, hosted for a unit whose
    /// circuit enters at `entry` chain primes. An encrypted threshold
    /// plane is switched down to the entry level here, once, instead of
    /// in every query's first operation on it, and then caches its
    /// product form the first time a product reads it (levels do not
    /// depend on data, so every later query reads that one). A
    /// plaintext threshold plane is transformed here, not in every
    /// query's product. A mask is only ever added, to a product that
    /// sits below the entry; it is hosted at that product's level
    /// ([`Mask`]). Every ciphertext bit is what the operands as
    /// deployed would give: a modulus switch is the same whenever it
    /// runs.
    fn host(&self, be: &B, entry: Option<usize>) -> Self {
        let host = |operand: &MaybeEncrypted<B>| match (operand, entry) {
            (MaybeEncrypted::Encrypted(ct), Some(primes)) => {
                MaybeEncrypted::Encrypted(be.mod_switch_to(ct, primes))
            }
            _ => operand.clone(),
        };
        let thresholds: Vec<_> = self.thresholds.iter().map(host).collect();
        for threshold in &thresholds {
            if let MaybeEncrypted::Plain(pt) = threshold {
                be.prepare_plaintext(pt);
            }
        }
        Self {
            thresholds,
            reshuffle: self.reshuffle.clone(),
            levels: Arc::clone(&self.levels),
            masks: self.masks.clone(),
            shuffle: self.shuffle.clone(),
            packing: self.packing,
        }
    }
}

/// A level mask as the levels stage reads it: added to its level
/// matrix's product, which sits primes below the unit's entry. An
/// encrypted mask is switched to that product's level the first time a
/// query adds it, and kept: levels do not depend on data, so every
/// later query reads the same copy, and none switches a model operand.
#[derive(Debug)]
struct Mask<B: FheBackend> {
    operand: MaybeEncrypted<B>,
    /// The encrypted operand at the level of the product it is added
    /// to, once a query has computed one.
    at_product: OnceLock<B::Ciphertext>,
}

impl<B: FheBackend> Clone for Mask<B> {
    fn clone(&self) -> Self {
        Self {
            operand: self.operand.clone(),
            at_product: self.at_product.clone(),
        }
    }
}

impl<B: FheBackend> Mask<B> {
    fn new(operand: MaybeEncrypted<B>) -> Self {
        Self {
            operand,
            at_product: OnceLock::new(),
        }
    }

    /// `product` plus this mask, read at the product's level.
    fn add_into(&self, be: &B, product: &B::Ciphertext) -> B::Ciphertext {
        match (&self.operand, be.chain_primes(product)) {
            (MaybeEncrypted::Encrypted(mask), Some(primes)) => {
                let hosted = self
                    .at_product
                    .get_or_init(|| be.mod_switch_to(mask, primes));
                debug_assert_eq!(be.chain_primes(hosted), Some(primes), "product level moved");
                be.add(product, hosted)
            }
            (operand, _) => operand.add_into(be, product),
        }
    }
}

/// A model ready for evaluation on a specific backend.
#[derive(Debug)]
pub struct DeployedModel<B: FheBackend> {
    form: ModelForm,
    meta: ModelMeta,
    codebook: Vec<usize>,
    operands: Operands<B>,
    accumulation: Accumulation,
}

impl<B: FheBackend> Clone for DeployedModel<B> {
    fn clone(&self) -> Self {
        Self {
            form: self.form,
            meta: self.meta.clone(),
            codebook: self.codebook.clone(),
            operands: self.operands.clone(),
            accumulation: self.accumulation,
        }
    }
}

impl<B: FheBackend> DeployedModel<B> {
    /// Deployment form.
    pub fn form(&self) -> ModelForm {
        self.form
    }

    /// Model shape metadata.
    pub fn meta(&self) -> &ModelMeta {
        &self.meta
    }
}

/// Public information Diane needs to form queries and read results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryInfo {
    /// Revealed maximum feature multiplicity `K`.
    pub max_multiplicity: usize,
    /// Feature-space size.
    pub feature_count: usize,
    /// Fixed-point precision.
    pub precision: u32,
    /// Width of the classification bitvector.
    pub n_leaves: usize,
    /// Label alphabet.
    pub label_names: Vec<String>,
    /// Label index per result slot (paper §7.2.2's codebook).
    pub codebook: Vec<usize>,
    /// The modulus-chain primes query planes should carry: the level
    /// the evaluator enters every circuit it runs for this model at
    /// ([`Sally::client_query_info`]). [`Diane`] encrypts her planes
    /// directly at it, so they travel at that size. `None` when the
    /// backend has no modulus chain, or before a [`Sally`] hosts the
    /// model ([`Maurice::public_query_info`]); planes are then made at
    /// the top of the chain and the evaluator switches them on receipt.
    /// Either way a circuit enters its planes in one state
    /// ([`FheBackend::enter_circuit`]), the one its entry is sized for.
    pub entry_primes: Option<u32>,
}

impl QueryInfo {
    /// The public part of a model's shape, with the given codebook.
    fn reveal(meta: &ModelMeta, codebook: Vec<usize>) -> Self {
        Self {
            max_multiplicity: meta.max_multiplicity,
            feature_count: meta.feature_count,
            precision: meta.precision,
            n_leaves: meta.n_leaves,
            label_names: meta.label_names.clone(),
            codebook,
            entry_primes: None,
        }
    }
}

/// An encrypted inference query: `p` bit planes of the replicated
/// feature vector.
#[derive(Debug)]
pub struct EncryptedQuery<B: FheBackend> {
    planes: Vec<B::Ciphertext>,
}

/// An encrypted classification result (N-hot over leaves).
#[derive(Debug)]
pub struct EncryptedResult<B: FheBackend> {
    ct: B::Ciphertext,
}

impl<B: FheBackend> Clone for EncryptedQuery<B> {
    fn clone(&self) -> Self {
        Self {
            planes: self.planes.clone(),
        }
    }
}

impl<B: FheBackend> Clone for EncryptedResult<B> {
    fn clone(&self) -> Self {
        Self {
            ct: self.ct.clone(),
        }
    }
}

impl<B: FheBackend> EncryptedQuery<B> {
    /// Reassembles a query from its `p` bit-plane ciphertexts (the
    /// transport path: planes arrive serialised over the wire).
    pub fn from_planes(planes: Vec<B::Ciphertext>) -> Self {
        Self { planes }
    }

    /// The query's bit-plane ciphertexts, MSB first.
    pub fn planes(&self) -> &[B::Ciphertext] {
        &self.planes
    }
}

impl<B: FheBackend> EncryptedResult<B> {
    /// The raw result ciphertext.
    pub fn ciphertext(&self) -> &B::Ciphertext {
        &self.ct
    }

    /// Wraps a result ciphertext received over the wire.
    pub fn from_ciphertext(ct: B::Ciphertext) -> Self {
        Self { ct }
    }

    /// Unwraps the result ciphertext without copying it.
    pub fn into_ciphertext(self) -> B::Ciphertext {
        self.ct
    }
}

/// The data owner.
#[derive(Debug)]
pub struct Diane<'b, B: FheBackend> {
    backend: &'b B,
    info: QueryInfo,
}

impl<'b, B: FheBackend> Diane<'b, B> {
    /// Creates a data owner from the revealed query information.
    pub fn new(backend: &'b B, info: QueryInfo) -> Self {
        Self { backend, info }
    }

    /// The query information in use.
    pub fn info(&self) -> &QueryInfo {
        &self.info
    }

    /// Replicates, bit-slices and encrypts a feature vector (paper
    /// step 0), each plane encrypted directly at the query
    /// information's [`entry_primes`](QueryInfo::entry_primes) with
    /// Diane's secret key ([`FheBackend::encrypt_query_bits`]). Costs
    /// `p` Encrypt operations (one per bit plane).
    ///
    /// # Errors
    ///
    /// Rejects wrong feature counts and values exceeding the model
    /// precision.
    pub fn encrypt_features(&self, features: &[u64]) -> Result<EncryptedQuery<B>, QueryError> {
        if features.len() != self.info.feature_count {
            return Err(QueryError::FeatureCountMismatch {
                expected: self.info.feature_count,
                got: features.len(),
            });
        }
        let p = self.info.precision;
        if p < 64 {
            if let Some(&value) = features.iter().find(|&&v| v >= (1u64 << p)) {
                return Err(QueryError::FeatureOverflow {
                    value,
                    precision: p,
                });
            }
        }
        let replicated = compiler::replicate_features(features, self.info.max_multiplicity);
        let sliced = BitSliced::from_values(&replicated, p);
        let primes = self.info.entry_primes.map(|primes| primes as usize);
        let planes = sliced.planes().iter();
        Ok(EncryptedQuery {
            planes: planes
                .map(|plane| self.backend.encrypt_query_bits(plane, primes))
                .collect(),
        })
    }

    /// Decrypts and decodes a classification result.
    pub fn decrypt_result(&self, result: &EncryptedResult<B>) -> ClassificationOutcome {
        let raw = self.backend.decrypt(&result.ct);
        let leaf_hits = if raw.width() > self.info.n_leaves {
            raw.truncate(self.info.n_leaves)
        } else {
            raw
        };
        ClassificationOutcome {
            leaf_hits,
            label_names: self.info.label_names.clone(),
            codebook: self.info.codebook.clone(),
        }
    }
}

/// A decoded classification: the N-hot leaf bitvector plus the
/// codebook needed to read it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassificationOutcome {
    leaf_hits: BitVec,
    label_names: Vec<String>,
    codebook: Vec<usize>,
}

impl ClassificationOutcome {
    /// The raw N-hot bitvector (one bit per leaf; `N` = tree count).
    pub fn leaf_hits(&self) -> &BitVec {
        &self.leaf_hits
    }

    /// Indices of the selected leaves.
    pub fn selected_leaves(&self) -> Vec<usize> {
        self.leaf_hits.iter_ones().collect()
    }

    /// Votes per label, in label order.
    pub fn vote_counts(&self) -> Vec<usize> {
        let mut votes = vec![0usize; self.label_names.len()];
        for leaf in self.leaf_hits.iter_ones() {
            votes[self.codebook[leaf]] += 1;
        }
        votes
    }

    /// The plurality-vote label (ties break to the smaller label
    /// index); `None` if no leaf was selected.
    pub fn plurality_label(&self) -> Option<&str> {
        let votes = self.vote_counts();
        let (best, &count) = votes
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, usize::MAX - i))?;
        (count > 0).then(|| self.label_names[best].as_str())
    }
}

/// The packed-batch layout Sally settled on for her backend + model +
/// options triple (see [`Sally::pack_plan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackPlan {
    /// Slots per query block: the widest per-query operand of the
    /// model (`ModelMeta::slot_width`).
    pub stride: usize,
    /// Queries per packed ciphertext: `slot_capacity / stride`.
    pub lanes: usize,
}

/// Per-stage measurements from one traced inference.
#[derive(Clone, Debug, Default)]
pub struct EvalTrace {
    /// The backend's [`depth`](FheBackend::depth) reading of the
    /// query planes as they entered the comparison (after the switch to
    /// the entry level; the deepest unit's).
    pub entry_depth: u32,
    /// SecComp (paper step 1).
    pub comparison: StageReport,
    /// Reshuffle MatMul (step 2); zeroed when fused.
    pub reshuffle: StageReport,
    /// All level MatMuls and mask XORs (step 3).
    pub levels: StageReport,
    /// Accumulation product (step 4).
    pub accumulate: StageReport,
    /// Packed-batch lane occupancy per query, in query order: how many
    /// queries shared that query's ciphertexts (1 = a solo remainder
    /// unit). Empty when no [`PackPlan`] engaged and every unit was a
    /// single query over its own ciphertexts.
    pub packed_sizes: Vec<u32>,
    /// NTT transforms the whole pass ran, read off its scoped meter:
    /// the four stages and the planes' way in and out. (The pass
    /// installs that meter itself, and the innermost scope wins, so a
    /// caller's own scope sees none of them.)
    pub transforms: TransformCounts,
    /// Key switches by kind the whole pass ran, scoped like
    /// `transforms`.
    pub key_switches: KeySwitchCounts,
}

impl EvalTrace {
    /// Per-stage wall-clock as nanoseconds, in pipeline order
    /// (comparison, reshuffle, levels, accumulate) — the shape the
    /// wire-level `ServerTiming` record carries.
    pub fn stage_nanos(&self) -> [u64; 4] {
        let nanos = |d: Duration| d.as_nanos().min(u128::from(u64::MAX)) as u64;
        [
            nanos(self.comparison.duration),
            nanos(self.reshuffle.duration),
            nanos(self.levels.duration),
            nanos(self.accumulate.duration),
        ]
    }

    /// Operation totals over the four stages.
    pub fn total_ops(&self) -> OpCounts {
        self.comparison
            .ops
            .plus(&self.reshuffle.ops)
            .plus(&self.levels.ops)
            .plus(&self.accumulate.ops)
    }
}

/// Timing, operation counts and reached depth for one pipeline stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageReport {
    /// Wall-clock time.
    pub duration: Duration,
    /// Homomorphic operations performed.
    pub ops: OpCounts,
    /// The backend's [`depth`](FheBackend::depth) reading of the
    /// stage's output (the deepest unit's): multiplicative depth on the
    /// clear backend, `chain_len − primes` on BGV. A stage that does
    /// not run (a fused reshuffle) passes its input's depth on.
    pub depth: u32,
}

/// One unit of evaluation: `1..=lanes` queries that travel through the
/// four stages as one set of ciphertexts, the operand set they run
/// against — Sally's hosted solo set, or her tiled one — and
/// the chain level their circuit enters at. Those choices are made
/// once, when the unit is built: the stages never ask.
struct Unit<'a, B: FheBackend> {
    queries: &'a [EncryptedQuery<B>],
    operands: &'a Operands<B>,
    entry: Option<usize>,
}

impl<'a, B: FheBackend> Unit<'a, B> {
    /// The way in: the unit's `p` bit planes, entered at the unit's
    /// entry level ([`FheBackend::enter_circuit`]: switched down to it
    /// if made above, before packing, so the alignment rotations run
    /// low too). A solo unit takes its query's; a packed unit packs
    /// each plane lane-wise. A partial unit still packs at the full
    /// tiled width — unused lanes hold zeros and are never unpacked.
    fn planes(&self, be: &B) -> Cow<'a, [B::Ciphertext]> {
        let enter = |ct: &B::Ciphertext| match self.entry {
            Some(primes) => be.enter_circuit(ct, primes),
            None => ct.clone(),
        };
        let Some(plan) = self.operands.packing else {
            let planes = &self.queries[0].planes;
            return match self.entry {
                Some(_) => planes.iter().map(enter).collect(),
                None => Cow::Borrowed(planes),
            };
        };
        let full_width = plan.lanes * plan.stride;
        (0..self.queries[0].planes.len())
            .map(|p| {
                let lane_planes: Vec<B::Ciphertext> =
                    self.queries.iter().map(|q| enter(&q.planes[p])).collect();
                be.pack_blocks(&lane_planes, plan.stride, full_width)
            })
            .collect()
    }

    /// The way out: one `width`-slot result per query. A packed unit
    /// splits with the backend's cached block masks (the extra depth
    /// level [`Sally::pack_plan`] budgeted).
    fn split(&self, be: &B, ct: B::Ciphertext, width: usize) -> Vec<EncryptedResult<B>> {
        let Some(plan) = self.operands.packing else {
            return vec![EncryptedResult { ct }];
        };
        (0..self.queries.len())
            .map(|lane| be.unpack_block(&ct, lane, plan.stride, width))
            .map(|ct| EncryptedResult { ct })
            .collect()
    }
}

/// The evaluator.
#[derive(Debug)]
pub struct Sally<'b, B: FheBackend> {
    backend: &'b B,
    model: DeployedModel<B>,
    options: EvalOptions,
    /// Sally's secret result permutation (paper §7.2.2), as applied to
    /// the codebook handed to clients: `permutation[old] = new` moves
    /// result slot `old` to `new`. Its matrix is `operands.shuffle`.
    permutation: Option<Vec<usize>>,
    plan: Option<PackPlan>,
    /// The chain primes a solo unit's planes enter at (`None`: the
    /// backend has no modulus chain).
    solo_entry: Option<usize>,
    /// The same for a packed unit of `plan`.
    packed_entry: Option<usize>,
    /// `model.operands` as solo units read them, hosted at
    /// `solo_entry` ([`Operands::host`]) when Sally binds the model.
    solo: OnceLock<Operands<B>>,
    /// `model.operands` tiled for `plan`, then hosted at
    /// `packed_entry`: built lazily (first packed batch) or eagerly
    /// ([`Sally::warm_packed`]), then kept for the lifetime of the
    /// `Sally`.
    tiled: OnceLock<Operands<B>>,
}

impl<'b, B: FheBackend> Sally<'b, B> {
    /// Hosts a deployed model with default (sequential) options.
    pub fn host(backend: &'b B, model: DeployedModel<B>) -> Self {
        Self::with_options(backend, model, EvalOptions::default())
    }

    /// Hosts a deployed model with explicit evaluator options.
    pub fn with_options(backend: &'b B, mut model: DeployedModel<B>, options: EvalOptions) -> Self {
        let n = model.meta.n_leaves;
        let permutation = options.shuffle_seed.map(|seed| random_permutation(n, seed));
        model.operands.shuffle = permutation.as_ref().map(|permutation| {
            let mut matrix = BoolMatrix::zeros(n, n);
            for (old, &new) in permutation.iter().enumerate() {
                matrix.set(new, old, true);
            }
            Arc::new(EncodedMatrix::encode_plain(backend, &matrix))
        });
        let mut sally = Self {
            backend,
            solo: OnceLock::new(),
            model,
            options,
            permutation,
            plan: None,
            solo_entry: None,
            packed_entry: None,
            tiled: OnceLock::new(),
        };
        sally.plan = sally.plan_packing();
        sally.solo_entry = sally.entry(None);
        sally.packed_entry = sally.plan.and_then(|plan| sally.entry(Some(plan)));
        // Hosted at bind, like the keys below, not in the first query.
        sally.solo();
        // No query enters above this level, so its key switches run at
        // or below it: build the keys here, not in the first query.
        if let Some(primes) = sally.solo_entry.max(sally.packed_entry) {
            backend.prepare_levels(primes);
        }
        sally
    }

    /// The query information Sally forwards to clients: Maurice's
    /// public reveal, with the codebook permuted when result shuffling
    /// is enabled (so clients decode correctly but learn nothing about
    /// the forest's leaf-label order; paper §7.2.2), and the entry
    /// level the planes should carry — the highest of the circuits she
    /// runs (solo, and packed when her plan engages).
    pub fn client_query_info(&self) -> QueryInfo {
        let mut codebook = self.model.codebook.clone();
        if let Some(permutation) = &self.permutation {
            let mut permuted = vec![0usize; codebook.len()];
            for (old, &new) in permutation.iter().enumerate() {
                permuted[new] = codebook[old];
            }
            codebook = permuted;
        }
        QueryInfo {
            entry_primes: self.solo_entry.max(self.packed_entry).map(|p| p as u32),
            ..QueryInfo::reveal(&self.model.meta, codebook)
        }
    }

    /// The hosted model, as deployed (another `Sally` can host it under
    /// other options; she hosts her operands from it, not from hers).
    pub fn model(&self) -> &DeployedModel<B> {
        &self.model
    }

    /// Evaluator options.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// The cross-query packing layout batches will use, or `None` when
    /// packing cannot engage: packing is [`PackingMode::Off`], the
    /// backend reports no slot capacity (clear-unbounded), fewer than
    /// two query strides fit, or the backend's noise budget does not
    /// admit the packed circuit (splitting results back out costs one
    /// more level).
    /// Every unit of a batch is then a single query — the caller never
    /// has to care. A pure function of backend, model and options,
    /// computed once when Sally hosts the model.
    pub fn pack_plan(&self) -> Option<PackPlan> {
        self.plan
    }

    fn plan_packing(&self) -> Option<PackPlan> {
        let (backend, model) = (self.backend, &self.model);
        if self.options.packing == PackingMode::Off {
            return None;
        }
        let fused = model.operands.reshuffle.is_none();
        let stride = model.meta.slot_width(fused);
        let lanes = backend.slot_capacity()?.checked_div(stride)?;
        if lanes < 2 {
            return None;
        }
        // Gate on the packed circuit Sally will actually run.
        let plan = PackPlan { stride, lanes };
        let report = CircuitReport::from_meta(&model.meta, fused, &self.shape(Some(plan)));
        report
            .admit(&BackendProfile::of(backend))
            .is_empty()
            .then_some(plan)
    }

    /// The analyzer's shape of the circuit Sally runs for a unit laid
    /// out by `packing`, from what she holds, never the artifacts.
    fn shape(&self, packing: Option<PackPlan>) -> EvalShape {
        EvalShape {
            form: self.model.form,
            accumulation: self.model.accumulation,
            comparator: self.options.comparator,
            result_shuffle: self.model.operands.shuffle.is_some(),
            packing,
        }
    }

    /// The chain primes a unit laid out by `packing` enters at: the
    /// fewest its circuit needs ([`CircuitReport::chain`]), never more
    /// than the chain holds. Derived, never configured; `None` on a
    /// backend without a modulus chain.
    fn entry(&self, packing: Option<PackPlan>) -> Option<usize> {
        let NoiseBudget::Chain(rule) = self.backend.noise_budget() else {
            return None;
        };
        let fused = self.model.operands.reshuffle.is_none();
        let shape = self.shape(packing);
        let needed = analyze::chain(&self.model.meta, fused, &shape, &rule).primes_needed as usize;
        Some(needed.min(rule.chain_len()))
    }

    /// Pre-builds the tiled operands packed units run against
    /// (otherwise the first packed batch pays the one-time tiling
    /// cost). Returns the plan batches will use, or `None` when
    /// packing cannot engage (see [`Sally::pack_plan`]).
    pub fn warm_packed(&self) -> Option<PackPlan> {
        self.tiled().and(self.plan)
    }

    fn solo(&self) -> &Operands<B> {
        let host = || self.model.operands.host(self.backend, self.solo_entry);
        self.solo.get_or_init(host)
    }

    fn tiled(&self) -> Option<&Operands<B>> {
        let plan = self.plan?;
        let tile = || {
            let tiled = self.model.operands.tile(self.backend, plan);
            tiled.host(self.backend, self.packed_entry)
        };
        Some(self.tiled.get_or_init(tile))
    }

    /// Splits a batch into its units of evaluation: chunks of
    /// `plan.lanes` queries against the tiled operands, or single
    /// queries against the operands as deployed when no plan applies.
    /// A remainder of one is a solo unit too — packing a single query
    /// would only add the unpack overhead.
    fn units<'a>(
        &'a self,
        queries: &'a [EncryptedQuery<B>],
        plan: Option<PackPlan>,
    ) -> Vec<Unit<'a, B>> {
        let p = self.model.meta.precision as usize;
        if let Some(qi) = queries.iter().position(|q| q.planes.len() != p) {
            panic!("query {qi} does not carry one bit plane per bit of the model's precision {p}");
        }
        let tiled = plan.and_then(|_| self.tiled());
        queries
            .chunks(plan.map_or(1, |plan| plan.lanes))
            .map(|chunk| {
                let (operands, entry) = match tiled.filter(|_| chunk.len() >= 2) {
                    Some(tiled) => (tiled, self.packed_entry),
                    None => (self.solo(), self.solo_entry),
                };
                Unit {
                    queries: chunk,
                    operands,
                    entry,
                }
            })
            .collect()
    }

    /// MatMul options for one call site, with a pre-split `zero_tag`
    /// derived from the (stage, level, unit) coordinates — the same
    /// discipline as `ks_keygen`'s per-digit seeds. Every concurrent
    /// `mat_vec` in a batch draws its all-skipped-fallback randomness
    /// from its own tag, so results cannot depend on scheduling order.
    fn matmul_at(&self, stage: u64, level: u64, unit: u64) -> MatMulOptions {
        let z = self
            .options
            .matmul
            .zero_tag
            .wrapping_add(stage.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(level.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(unit.wrapping_mul(0x94D0_49BB_1331_11EB));
        MatMulOptions {
            zero_tag: splitmix64_mix(z),
            ..self.options.matmul
        }
    }

    /// Runs Algorithm 1 on an encrypted query.
    pub fn classify(&self, query: &EncryptedQuery<B>) -> EncryptedResult<B> {
        self.classify_traced(query).0
    }

    /// Runs Algorithm 1, additionally reporting per-stage wall-clock
    /// times and operation counts (the Figure 10 breakdown).
    pub fn classify_traced(&self, query: &EncryptedQuery<B>) -> (EncryptedResult<B>, EvalTrace) {
        let (mut results, trace) = self.classify_batch_traced(std::slice::from_ref(query));
        (results.pop().expect("one query in, one result out"), trace)
    }

    /// Runs Algorithm 1 over a batch of queries in one pass.
    ///
    /// The batch splits into *units* of `1..=lanes` queries
    /// (`lanes = 1` unless a [`PackPlan`] applies) and the pipeline
    /// runs *stage-major* over them: every unit finishes a stage
    /// (forked across the shared pool) before the next stage starts,
    /// which is what the `copse-server` batching scheduler amortises
    /// under concurrent load. Decrypted results are identical to
    /// calling [`classify`](Sally::classify) per query; without a plan
    /// the ciphertexts are too — the per-query operation sequence is
    /// unchanged.
    pub fn classify_batch(&self, queries: &[EncryptedQuery<B>]) -> Vec<EncryptedResult<B>> {
        self.classify_batch_traced(queries).0
    }

    /// Runs a batch, additionally reporting one [`EvalTrace`]
    /// aggregated over the whole batch (per-stage wall-clock and
    /// operation counts summed across units).
    ///
    /// # Panics
    ///
    /// Panics if a query does not carry one bit plane per bit of the
    /// model's precision.
    pub fn classify_batch_traced(
        &self,
        queries: &[EncryptedQuery<B>],
    ) -> (Vec<EncryptedResult<B>>, EvalTrace) {
        let be = self.backend;
        let par = self.options.parallelism;
        let mut trace = EvalTrace::default();
        if queries.is_empty() {
            return (Vec::new(), trace);
        }
        // Packing is only for real batches: a batch of one is a solo
        // unit (the oracle the packing parity battery compares against)
        // and never tiles. `units` tiles — one-time, deploy-like work —
        // before the pass scope is installed, so per-batch stage ops
        // stay exact from the first packed batch onwards.
        let plan = self.plan.filter(|_| queries.len() >= 2);
        let units = self.units(queries, plan);
        if plan.is_some() {
            let lanes = units.iter().map(|unit| unit.queries.len());
            trace.packed_sizes = lanes
                .flat_map(|k| std::iter::repeat_n(k as u32, k))
                .collect();
        }
        // Per-pass meter, installed as the task context for the whole
        // batch: ops recorded by this pass — including those executed
        // on shared-pool workers — mirror here, so the per-stage diffs
        // below stay exact even when other Sallys evaluate on the same
        // backend concurrently. The backend meter still accumulates
        // process totals.
        let pass = Arc::new(OpMeter::new());
        let _pass_scope = pass.install_scope();

        // Step 1: comparison. Every decision node of every query
        // thresholds within one stage pass; units fork across the
        // shared pool. SecComp is purely slot-wise, so a packed unit's
        // circuit is literally the solo one over wider ciphertexts.
        let (entry_depths, decisions): (Vec<u32>, Vec<B::Ciphertext>) =
            staged(&pass, &mut trace.comparison, || {
                map_indices(par, units.len(), |u| {
                    let unit = &units[u];
                    let planes = unit.planes(be);
                    let decision = secure_less_than(
                        be,
                        &planes,
                        &unit.operands.thresholds,
                        self.options.comparator,
                        par,
                    );
                    (be.depth(&planes[0]), decision)
                })
                .into_iter()
                .unzip()
            });
        trace.entry_depth = entry_depths.into_iter().max().unwrap_or(0);
        trace.comparison.depth = deepest(be, &decisions);

        // Step 2: reshuffle into branch preorder, one MatMul per unit
        // (on the slot ring, when packed). Compiled away (`None`) when
        // the level matrices were fused with R; then step 3 reads the
        // decisions directly.
        let branches = staged(&pass, &mut trace.reshuffle, || {
            map_indices(par, units.len(), |u| {
                let r = units[u].operands.reshuffle.as_ref()?;
                let options = self.matmul_at(1, 0, u as u64);
                Some(mat_vec(be, r, &decisions[u], options, par))
            })
        });
        trace.reshuffle.depth = deepest(be, branches.iter().flatten()).max(trace.comparison.depth);

        // Step 3: per-level select-and-mask. Every level matrix
        // multiplies the same branch vector, so each unit rotates it
        // once for all of them in one rotation-sharing product, then
        // XORs each level's mask.
        let level_results = staged(&pass, &mut trace.levels, || {
            map_indices(par, units.len(), |u| -> Vec<B::Ciphertext> {
                let Operands { levels, masks, .. } = units[u].operands;
                let input = branches[u].as_ref().unwrap_or(&decisions[u]);
                let matrices: Vec<&EncodedMatrix<B>> = levels.iter().collect();
                let options: Vec<MatMulOptions> = (0..levels.len())
                    .map(|li| self.matmul_at(2, li as u64, u as u64))
                    .collect();
                mat_vec_many(be, &matrices, input, &options, par)
                    .iter()
                    .zip(masks)
                    .map(|(selected, mask)| mask.add_into(be, selected))
                    .collect()
            })
        });
        trace.levels.depth = deepest(be, level_results.iter().flatten());

        // Step 4: accumulate each unit's level results into its label
        // vector (slot-wise, so packed-transparent), optionally
        // scramble it with Sally's secret permutation (paper §7.2.2;
        // one extra plaintext MatMul), and split it per query.
        let results = staged(&pass, &mut trace.accumulate, || {
            map_indices(par, units.len(), |u| {
                let mut labels = self.accumulate(&level_results[u]);
                if let Some(shuffle) = &units[u].operands.shuffle {
                    labels = mat_vec(be, shuffle, &labels, self.matmul_at(3, 0, u as u64), par);
                }
                units[u].split(be, labels, self.model.meta.n_leaves)
            })
        });
        let results: Vec<EncryptedResult<B>> = results.into_iter().flatten().collect();
        trace.accumulate.depth = deepest(be, results.iter().map(|r| &r.ct));
        trace.transforms = pass.transforms();
        trace.key_switches = pass.key_switches();

        (results, trace)
    }

    fn accumulate(&self, results: &[B::Ciphertext]) -> B::Ciphertext {
        let be = self.backend;
        assert!(!results.is_empty(), "compile guarantees >= 1 level");
        match self.model.accumulation {
            Accumulation::Linear => {
                let mut acc = results[0].clone();
                for r in &results[1..] {
                    acc = be.mul(&acc, r);
                }
                acc
            }
            Accumulation::BalancedTree => {
                let par = self.options.parallelism;
                // One layer of the tree: adjacent pairs multiply, an
                // odd last element carries over.
                let halve = |layer: &[B::Ciphertext]| {
                    let pairs = layer.len() / 2;
                    let mut next =
                        map_indices(par, pairs, |i| be.mul(&layer[2 * i], &layer[2 * i + 1]));
                    next.extend(layer[2 * pairs..].iter().cloned());
                    next
                };
                let mut layer = halve(results);
                while layer.len() > 1 {
                    layer = halve(&layer);
                }
                layer.pop().expect("nonempty")
            }
        }
    }
}

impl<'b, B: FheBackend> Sally<'b, B> {
    /// Hosts `shape`'s circuit for the analyzer ([`CircuitReport`]),
    /// which runs it on a clear backend over zero bits: its operand set
    /// is built from the model's shape alone — Maurice's operands, all
    /// zeros and metered like his deploy, and Sally's result shuffle —
    /// the plan and the entry level are taken as given rather than
    /// derived (deriving them is what the analyzer is asked), and every
    /// stage runs sequentially.
    pub(crate) fn analysis(
        backend: &'b B,
        meta: &ModelMeta,
        fused: bool,
        shape: &EvalShape,
        entry: Option<usize>,
    ) -> Self {
        let (m, form) = (meta, shape.form);
        let zeros = |width| backend.encode(&BitVec::zeros(width));
        let vectors = |n, width| {
            (0..n)
                .map(|_| form.operand(backend, zeros(width)))
                .collect()
        };
        let matrix = |form, rows, cols| EncodedMatrix::of_shape(backend, form, rows, cols);
        let level_cols = if fused { m.quantized } else { m.branches };
        let model = DeployedModel {
            form,
            meta: m.clone(),
            codebook: Vec::new(),
            operands: Operands {
                thresholds: vectors(m.precision, m.quantized),
                reshuffle: (!fused).then(|| Arc::new(matrix(form, m.branches, m.quantized))),
                levels: (0..m.max_level)
                    .map(|_| matrix(form, m.n_leaves, level_cols))
                    .collect(),
                masks: vectors(m.max_level, m.n_leaves)
                    .into_iter()
                    .map(Mask::new)
                    .collect(),
                shuffle: shape
                    .result_shuffle
                    .then(|| Arc::new(matrix(ModelForm::Plain, m.n_leaves, m.n_leaves))),
                packing: None,
            },
            accumulation: shape.accumulation,
        };
        Sally {
            backend,
            solo: OnceLock::new(),
            model,
            options: EvalOptions {
                comparator: shape.comparator,
                ..EvalOptions::default()
            },
            permutation: None,
            plan: shape.packing,
            solo_entry: entry,
            packed_entry: entry,
            tiled: OnceLock::new(),
        }
    }
}

/// Times one pipeline stage into `report` and attributes its ops by
/// diffing the caller's **per-pass** meter (not the shared backend
/// meter), so stage counts are exact even under concurrent
/// evaluations.
fn staged<T>(pass: &OpMeter, report: &mut StageReport, f: impl FnOnce() -> T) -> T {
    let before = pass.snapshot();
    let start = copse_trace::Stopwatch::start();
    let value = f();
    report.duration = start.elapsed();
    report.ops = pass.snapshot().since(&before);
    value
}

/// The deepest [`depth`](FheBackend::depth) reading among `cts`.
fn deepest<'a, B: FheBackend>(be: &B, cts: impl IntoIterator<Item = &'a B::Ciphertext>) -> u32
where
    B::Ciphertext: 'a,
{
    cts.into_iter().map(|ct| be.depth(ct)).max().unwrap_or(0)
}

/// The splitmix64 output finalizer.
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic Fisher-Yates permutation of `0..n` driven by a
/// splitmix64 stream (keeps `copse-core` free of a rand dependency).
fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64_mix(state)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Fusion;
    use copse_fhe::ClearBackend;
    use copse_forest::microbench::{self, table6_specs};
    use copse_forest::model::{Forest, Node, Tree};

    fn figure1() -> Forest {
        let d2 = Node::branch(1, 10, Node::leaf(0), Node::leaf(1));
        let d3 = Node::branch(0, 20, Node::leaf(2), Node::leaf(3));
        let d1 = Node::branch(0, 30, d2, d3);
        let d4 = Node::branch(1, 40, Node::leaf(4), Node::leaf(5));
        let d0 = Node::branch(1, 50, d1, d4);
        Forest::new(
            2,
            8,
            (0..6).map(|i| format!("L{i}")).collect(),
            vec![Tree::new(d0)],
        )
        .unwrap()
    }

    /// The paper's four-stage pipeline, `R` kept separate.
    fn paper_pipeline() -> CompileOptions {
        CompileOptions {
            fuse_reshuffle: Fusion::Never,
            ..CompileOptions::default()
        }
    }

    fn end_to_end(
        forest: &Forest,
        form: ModelForm,
        options: CompileOptions,
        eval: EvalOptions,
        queries: &[Vec<u64>],
    ) {
        let be = ClearBackend::with_defaults();
        let maurice = Maurice::compile(forest, options).unwrap();
        let sally = Sally::with_options(&be, maurice.deploy(&be, form), eval);
        let diane = Diane::new(&be, maurice.public_query_info());
        for q in queries {
            let query = diane.encrypt_features(q).unwrap();
            let outcome = diane.decrypt_result(&sally.classify(&query));
            assert_eq!(
                outcome.leaf_hits().to_bools(),
                forest.classify_leaf_hits(q),
                "query {q:?}"
            );
            assert_eq!(
                outcome.plurality_label().unwrap(),
                forest.labels()[forest.classify_plurality(q)],
                "query {q:?}"
            );
        }
    }

    /// On real BGV an encrypted mask is read where the levels stage
    /// adds it: after one query, each hosted mask sits at the level of
    /// its level matrix's product (recomputed here from the query), so
    /// no later query switches it. A plaintext mask has no level.
    #[test]
    fn masks_are_hosted_at_the_level_of_their_products() {
        use copse_fhe::{BgvBackend, BgvParams};
        let forest = Forest::parse(
            "precision 4\nlabels no yes\n\
             tree (branch 0 8 (branch 1 4 (leaf 0) (leaf 1)) (leaf 1))\n",
        )
        .unwrap();
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let be = BgvBackend::new(BgvParams::tiny());
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            let sally = Sally::host(&be, maurice.deploy(&be, form));
            let diane = Diane::new(&be, sally.client_query_info());
            let query = diane.encrypt_features(&[5, 9]).unwrap();
            let _ = sally.classify(&query);

            let units = sally.units(std::slice::from_ref(&query), None);
            let (unit, par) = (&units[0], sally.options.parallelism);
            let operands = unit.operands;
            let comparator = sally.options.comparator;
            let decisions = secure_less_than(
                &be,
                &unit.planes(&be),
                &operands.thresholds,
                comparator,
                par,
            );
            let input = match &operands.reshuffle {
                Some(r) => mat_vec(&be, r, &decisions, sally.matmul_at(1, 0, 0), par),
                None => decisions,
            };
            let matrices: Vec<_> = operands.levels.iter().collect();
            let options: Vec<_> = (0..matrices.len())
                .map(|li| sally.matmul_at(2, li as u64, 0))
                .collect();
            let products = mat_vec_many(&be, &matrices, &input, &options, par);
            assert_eq!(products.len(), 2);
            for (i, (product, mask)) in products.iter().zip(&operands.masks).enumerate() {
                let product_primes = be.chain_primes(product);
                assert!(product_primes < sally.solo_entry, "{form:?}: mask {i}");
                let hosted = mask.at_product.get().map(|ct| be.chain_primes(ct));
                match form {
                    ModelForm::Plain => assert_eq!(hosted, None, "mask {i}"),
                    ModelForm::Encrypted => {
                        assert_eq!(hosted, Some(product_primes), "mask {i}")
                    }
                }
            }
        }
    }

    #[test]
    fn figure1_encrypted_model_end_to_end() {
        let queries: Vec<Vec<u64>> = (0..60u64)
            .step_by(5)
            .flat_map(|x| [(x, 7u64), (x, 45), (x, 60)].map(|(a, b)| vec![a, b]))
            .collect();
        end_to_end(
            &figure1(),
            ModelForm::Encrypted,
            CompileOptions::default(),
            EvalOptions::default(),
            &queries,
        );
    }

    #[test]
    fn figure1_plain_model_end_to_end() {
        let queries = vec![vec![25u64, 60], vec![0, 0], vec![0, 45], vec![255, 255]];
        end_to_end(
            &figure1(),
            ModelForm::Plain,
            CompileOptions::default(),
            EvalOptions::default(),
            &queries,
        );
    }

    #[test]
    fn microbench_suite_encrypted_end_to_end() {
        for spec in table6_specs() {
            let forest = microbench::generate(&spec, 3);
            let queries = microbench::random_queries(&forest, 6, 99);
            end_to_end(
                &forest,
                ModelForm::Encrypted,
                CompileOptions::default(),
                EvalOptions::default(),
                &queries,
            );
        }
    }

    #[test]
    fn fused_and_linear_options_agree() {
        let forest = microbench::generate(&table6_specs()[2], 8);
        let queries = microbench::random_queries(&forest, 8, 1);
        for fuse in [Fusion::Never, Fusion::Always, Fusion::Auto] {
            for acc in [Accumulation::BalancedTree, Accumulation::Linear] {
                end_to_end(
                    &forest,
                    ModelForm::Encrypted,
                    CompileOptions {
                        fuse_reshuffle: fuse,
                        accumulation: acc,
                        ..CompileOptions::default()
                    },
                    EvalOptions::default(),
                    &queries,
                );
            }
        }
    }

    #[test]
    fn multithreaded_agrees_with_sequential() {
        let forest = microbench::generate(&table6_specs()[5], 4);
        let queries = microbench::random_queries(&forest, 6, 2);
        end_to_end(
            &forest,
            ModelForm::Encrypted,
            CompileOptions::default(),
            EvalOptions {
                parallelism: Parallelism { threads: 8 },
                ..EvalOptions::default()
            },
            &queries,
        );
    }

    #[test]
    fn sparse_diagonal_ablation_agrees() {
        let forest = microbench::generate(&table6_specs()[0], 6);
        let queries = microbench::random_queries(&forest, 6, 3);
        end_to_end(
            &forest,
            ModelForm::Plain,
            CompileOptions::default(),
            EvalOptions {
                matmul: MatMulOptions {
                    skip_zero_diagonals: true,
                    ..MatMulOptions::default()
                },
                ..EvalOptions::default()
            },
            &queries,
        );
    }

    #[test]
    fn trace_reports_all_stages() {
        let be = ClearBackend::with_defaults();
        let forest = figure1();
        let maurice = Maurice::compile(&forest, paper_pipeline()).unwrap();
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        let diane = Diane::new(&be, maurice.public_query_info());
        let q = diane.encrypt_features(&[25, 60]).unwrap();
        let (_, trace) = sally.classify_traced(&q);
        // Comparison does p multiplies and more; reshuffle is 1-depth
        // matmul; levels do d matmuls + masks; accumulation d-1 mults.
        assert!(trace.comparison.ops.multiply > 0);
        assert!(trace.reshuffle.ops.multiply > 0);
        assert!(trace.levels.ops.multiply > 0);
        assert_eq!(trace.accumulate.ops.multiply, 2); // d=3 -> 2 mults
        assert_eq!(trace.levels.ops.constant_add, 0); // masks encrypted
        assert!(trace.total_ops().multiply >= 5);
    }

    #[test]
    fn plain_model_uses_constant_ops() {
        let be = ClearBackend::with_defaults();
        let forest = figure1();
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Plain));
        let diane = Diane::new(&be, maurice.public_query_info());
        let q = diane.encrypt_features(&[25, 60]).unwrap();
        let (_, trace) = sally.classify_traced(&q);
        // Level matmuls multiply by plaintext diagonals; masks XOR as
        // constants.
        assert_eq!(trace.levels.ops.multiply, 0);
        assert!(trace.levels.ops.constant_multiply > 0);
        assert_eq!(trace.levels.ops.constant_add, 3);
    }

    #[test]
    fn model_encryption_cost_matches_table1d() {
        // Encrypt count for deployment = p + q + d(b+1).
        let be = ClearBackend::with_defaults();
        let maurice = Maurice::compile(&figure1(), paper_pipeline()).unwrap();
        let meta = maurice.compiled().meta.clone();
        let before = be.meter().snapshot();
        let _ = maurice.deploy(&be, ModelForm::Encrypted);
        let delta = be.meter().snapshot().since(&before);
        let expected = meta.precision as u64
            + meta.quantized as u64
            + meta.max_level as u64 * (meta.branches as u64 + 1);
        assert_eq!(delta.encrypt, expected);
    }

    #[test]
    fn plain_deployment_encrypts_nothing() {
        let be = ClearBackend::with_defaults();
        let maurice = Maurice::compile(&figure1(), CompileOptions::default()).unwrap();
        let before = be.meter().snapshot();
        let _ = maurice.deploy(&be, ModelForm::Plain);
        assert_eq!(be.meter().snapshot().since(&before).encrypt, 0);
    }

    #[test]
    fn query_encryption_costs_p_encrypts() {
        let be = ClearBackend::with_defaults();
        let maurice = Maurice::compile(&figure1(), CompileOptions::default()).unwrap();
        let diane = Diane::new(&be, maurice.public_query_info());
        let before = be.meter().snapshot();
        let _ = diane.encrypt_features(&[1, 2]).unwrap();
        assert_eq!(be.meter().snapshot().since(&before).encrypt, 8);
    }

    #[test]
    fn query_validation_errors() {
        let be = ClearBackend::with_defaults();
        let maurice = Maurice::compile(&figure1(), CompileOptions::default()).unwrap();
        let diane = Diane::new(&be, maurice.public_query_info());
        assert_eq!(
            diane.encrypt_features(&[1]).unwrap_err(),
            QueryError::FeatureCountMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            diane.encrypt_features(&[1, 300]).unwrap_err(),
            QueryError::FeatureOverflow {
                value: 300,
                precision: 8
            }
        );
    }

    #[test]
    fn result_shuffling_hides_leaf_order_but_preserves_votes() {
        let be = ClearBackend::with_defaults();
        let forest = microbench::generate(&table6_specs()[1], 12);
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();

        let plain_sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        let plain_diane = Diane::new(&be, maurice.public_query_info());

        let shuffled_sally = Sally::with_options(
            &be,
            maurice.deploy(&be, ModelForm::Encrypted),
            EvalOptions {
                shuffle_seed: Some(0xD1CE),
                ..EvalOptions::default()
            },
        );
        // Clients of a shuffling server must use *its* codebook.
        let shuffled_diane = Diane::new(&be, shuffled_sally.client_query_info());
        assert_ne!(
            shuffled_sally.client_query_info().codebook,
            maurice.public_query_info().codebook,
            "shuffle should reorder the codebook"
        );

        let mut saw_reordered_hits = false;
        for q in microbench::random_queries(&forest, 6, 8) {
            let query = plain_diane.encrypt_features(&q).unwrap();
            let plain = plain_diane.decrypt_result(&plain_sally.classify(&query));
            let shuffled = shuffled_diane.decrypt_result(&shuffled_sally.classify(&query));
            // Votes (and hence the classification) are invariant...
            assert_eq!(plain.vote_counts(), shuffled.vote_counts(), "query {q:?}");
            assert_eq!(plain.plurality_label(), shuffled.plurality_label());
            // ...while the raw bit positions are scrambled.
            saw_reordered_hits |= plain.leaf_hits() != shuffled.leaf_hits();
        }
        assert!(saw_reordered_hits, "permutation never moved a hit");
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let be = ClearBackend::with_defaults();
        let forest = figure1();
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let mk = |seed| {
            Sally::with_options(
                &be,
                maurice.deploy(&be, ModelForm::Encrypted),
                EvalOptions {
                    shuffle_seed: Some(seed),
                    ..EvalOptions::default()
                },
            )
            .client_query_info()
            .codebook
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn batch_is_bitwise_identical_and_meter_exact_at_every_pool_degree() {
        // Two backends (hence two independent OpMeters): the
        // sequential one is the oracle. For every pool degree the
        // batch results must match bitwise AND the parallel backend's
        // operation totals must equal the sequential ones exactly —
        // concurrent workers recording on one meter lose nothing.
        let forest = microbench::generate(&table6_specs()[1], 23);
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();

        let seq_be = ClearBackend::with_defaults();
        let seq_sally = Sally::host(&seq_be, maurice.deploy(&seq_be, ModelForm::Encrypted));
        let diane = Diane::new(&seq_be, maurice.public_query_info());
        let queries: Vec<EncryptedQuery<_>> = microbench::random_queries(&forest, 6, 51)
            .iter()
            .map(|q| diane.encrypt_features(q).unwrap())
            .collect();
        let seq_before = seq_be.meter().snapshot();
        let want: Vec<BitVec> = seq_sally
            .classify_batch(&queries)
            .iter()
            .map(|r| seq_be.decrypt(r.ciphertext()))
            .collect();
        let seq_ops = seq_be.meter().snapshot().since(&seq_before);

        for threads in [2usize, 4, 7] {
            let par_be = ClearBackend::with_defaults();
            let par_sally = Sally::with_options(
                &par_be,
                maurice.deploy(&par_be, ModelForm::Encrypted),
                EvalOptions {
                    parallelism: Parallelism { threads },
                    ..EvalOptions::default()
                },
            );
            let par_queries: Vec<EncryptedQuery<_>> = queries
                .iter()
                .map(|q| EncryptedQuery::from_planes(q.planes().to_vec()))
                .collect();
            let before = par_be.meter().snapshot();
            let got: Vec<BitVec> = par_sally
                .classify_batch(&par_queries)
                .iter()
                .map(|r| par_be.decrypt(r.ciphertext()))
                .collect();
            let par_ops = par_be.meter().snapshot().since(&before);
            assert_eq!(got, want, "results diverged at {threads} threads");
            // Decrypts aside (identical per query), every homomorphic
            // op total must merge exactly across workers.
            assert_eq!(par_ops, seq_ops, "op totals diverged at {threads} threads");
        }
    }

    #[test]
    fn batch_classification_is_bitwise_identical_to_sequential() {
        let be = ClearBackend::with_defaults();
        let forest = microbench::generate(&table6_specs()[1], 31);
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        let diane = Diane::new(&be, maurice.public_query_info());

        let queries: Vec<EncryptedQuery<_>> = microbench::random_queries(&forest, 9, 17)
            .iter()
            .map(|q| diane.encrypt_features(q).unwrap())
            .collect();
        let sequential: Vec<BitVec> = queries
            .iter()
            .map(|q| be.decrypt(sally.classify(q).ciphertext()))
            .collect();
        let batched: Vec<BitVec> = sally
            .classify_batch(&queries)
            .iter()
            .map(|r| be.decrypt(r.ciphertext()))
            .collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn batch_with_shuffle_matches_sequential() {
        let be = ClearBackend::with_defaults();
        let forest = figure1();
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let sally = Sally::with_options(
            &be,
            maurice.deploy(&be, ModelForm::Encrypted),
            EvalOptions {
                shuffle_seed: Some(0xFEED),
                ..EvalOptions::default()
            },
        );
        let diane = Diane::new(&be, sally.client_query_info());
        let queries: Vec<EncryptedQuery<_>> = [[25u64, 60], [0, 0], [55, 7]]
            .iter()
            .map(|q| diane.encrypt_features(q).unwrap())
            .collect();
        for (q, r) in queries.iter().zip(sally.classify_batch(&queries)) {
            assert_eq!(
                be.decrypt(r.ciphertext()),
                be.decrypt(sally.classify(q).ciphertext())
            );
        }
    }

    #[test]
    fn batch_trace_sums_per_query_ops() {
        let be = ClearBackend::with_defaults();
        let forest = figure1();
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        let diane = Diane::new(&be, maurice.public_query_info());
        let q = diane.encrypt_features(&[25, 60]).unwrap();
        let (_, single) = sally.classify_traced(&q);
        let batch: Vec<EncryptedQuery<_>> = vec![q.clone(), q.clone(), q];
        let (results, trace) = sally.classify_batch_traced(&batch);
        assert_eq!(results.len(), 3);
        assert_eq!(trace.total_ops().multiply, 3 * single.total_ops().multiply);
        assert_eq!(trace.total_ops().rotate, 3 * single.total_ops().rotate);
        assert_eq!(
            trace.accumulate.ops.multiply,
            3 * single.accumulate.ops.multiply
        );
    }

    #[test]
    fn concurrent_passes_count_only_their_own_ops() {
        // Two models share one backend (hence one backend meter) and
        // the process-wide pool. Each pass's trace must still count
        // exactly what that pass ran: the stage counts a sequential
        // pass of the same model reports alone.
        let be = ClearBackend::with_defaults();
        let hosted: Vec<_> = [0usize, 1]
            .into_iter()
            .map(|spec| {
                let forest = microbench::generate(&table6_specs()[spec], 40 + spec as u64);
                let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
                let diane = Diane::new(&be, maurice.public_query_info());
                let queries: Vec<EncryptedQuery<_>> =
                    microbench::random_queries(&forest, 3, 60 + spec as u64)
                        .iter()
                        .map(|q| diane.encrypt_features(q).unwrap())
                        .collect();
                let solo = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted))
                    .classify_batch_traced(&queries)
                    .1;
                let sally = Sally::with_options(
                    &be,
                    maurice.deploy(&be, ModelForm::Encrypted),
                    EvalOptions {
                        parallelism: Parallelism { threads: 2 },
                        ..EvalOptions::default()
                    },
                );
                (sally, queries, solo)
            })
            .collect();
        assert_ne!(
            hosted[0].2.total_ops(),
            hosted[1].2.total_ops(),
            "the models must differ for a mix-up to show"
        );
        let start = std::sync::Barrier::new(hosted.len());
        std::thread::scope(|s| {
            for (sally, queries, solo) in &hosted {
                let start = &start;
                s.spawn(move || {
                    for round in 0..8 {
                        start.wait();
                        let (_, trace) = sally.classify_batch_traced(queries);
                        let stages = |t: &EvalTrace| {
                            [&t.comparison, &t.reshuffle, &t.levels, &t.accumulate].map(|r| r.ops)
                        };
                        assert_eq!(trace.total_ops(), solo.total_ops(), "round {round}");
                        assert_eq!(stages(&trace), stages(solo), "round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let be = ClearBackend::with_defaults();
        let maurice = Maurice::compile(&figure1(), CompileOptions::default()).unwrap();
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        let before = be.meter().snapshot();
        let (results, trace) = sally.classify_batch_traced(&[]);
        assert!(results.is_empty());
        assert_eq!(trace.total_ops(), be.meter().snapshot().since(&before));
    }

    /// Clear backend with a slot capacity of `lanes` query strides for
    /// the given model (derived by probing with unbounded capacity).
    fn packed_clear_backend(maurice: &Maurice, form: ModelForm, lanes: usize) -> ClearBackend {
        let probe_be = ClearBackend::new(copse_fhe::ClearConfig {
            slot_capacity: Some(1 << 20),
            ..copse_fhe::ClearConfig::default()
        });
        let probe = Sally::host(&probe_be, maurice.deploy(&probe_be, form));
        let stride = probe.pack_plan().expect("probe capacity fits").stride;
        ClearBackend::new(copse_fhe::ClearConfig {
            slot_capacity: Some(lanes * stride),
            ..copse_fhe::ClearConfig::default()
        })
    }

    #[test]
    fn packed_batch_decodes_identically_and_reports_lane_occupancy() {
        let forest = microbench::generate(&table6_specs()[1], 23);
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            let be = packed_clear_backend(&maurice, form, 4);
            let sally = Sally::host(&be, maurice.deploy(&be, form));
            let plan = sally.warm_packed().expect("4 lanes fit by construction");
            assert_eq!(plan.lanes, 4);
            let diane = Diane::new(&be, maurice.public_query_info());
            let queries: Vec<EncryptedQuery<_>> = microbench::random_queries(&forest, 9, 77)
                .iter()
                .map(|q| diane.encrypt_features(q).unwrap())
                .collect();
            for (size, occupancy) in [
                (2usize, vec![2u32, 2]),
                (4, vec![4, 4, 4, 4]),
                (5, vec![4, 4, 4, 4, 1]),
                (9, vec![4, 4, 4, 4, 4, 4, 4, 4, 1]),
            ] {
                let batch = &queries[..size];
                let (results, trace) = sally.classify_batch_traced(batch);
                assert_eq!(trace.packed_sizes, occupancy, "{form:?} size {size}");
                for (q, r) in batch.iter().zip(&results) {
                    assert_eq!(
                        be.decrypt(r.ciphertext()),
                        be.decrypt(sally.classify(q).ciphertext()),
                        "{form:?} size {size}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_chunk_amortises_stage_ops_across_lanes() {
        // A full 4-lane chunk must spend strictly fewer homomorphic
        // ops than 4 sequential evaluations — the whole point of the
        // layout. (Not equal to 1× either: packing and unpacking add
        // their rotate/mask deltas.)
        let forest = microbench::generate(&table6_specs()[1], 23);
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let be = packed_clear_backend(&maurice, ModelForm::Encrypted, 4);
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        sally.warm_packed().expect("4 lanes fit");
        let diane = Diane::new(&be, maurice.public_query_info());
        let queries: Vec<EncryptedQuery<_>> = microbench::random_queries(&forest, 4, 78)
            .iter()
            .map(|q| diane.encrypt_features(q).unwrap())
            .collect();
        let (_, single) = sally.classify_traced(&queries[0]);
        let (_, packed) = sally.classify_batch_traced(&queries);
        let seq4 = 4 * single.total_ops().total_homomorphic();
        assert!(
            packed.total_ops().total_homomorphic() < seq4,
            "packed {} !< 4x sequential {}",
            packed.total_ops().total_homomorphic(),
            seq4
        );
    }

    #[test]
    fn levels_stage_rotates_once_per_unit_for_all_level_matrices() {
        // d level matrices of b columns multiply the same branch
        // vector: b - 1 rotations per query (or packed chunk), not
        // d(b - 1), while every level keeps its own b multiplies.
        let forest = microbench::generate(&table6_specs()[0], 23); // depth4
        let maurice = Maurice::compile(&forest, paper_pipeline()).unwrap();
        let meta = maurice.compiled().meta.clone();
        let (b, d) = (meta.branches as u64, u64::from(meta.max_level));
        assert!(d >= 2 && b >= 2);
        let be = packed_clear_backend(&maurice, ModelForm::Plain, 4);
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Plain));
        let diane = Diane::new(&be, maurice.public_query_info());
        let queries: Vec<EncryptedQuery<_>> = microbench::random_queries(&forest, 5, 79)
            .iter()
            .map(|q| diane.encrypt_features(q).unwrap())
            .collect();

        let (_, single) = sally.classify_traced(&queries[0]);
        assert_eq!(single.levels.ops.rotate, b - 1);
        assert_eq!(single.levels.ops.constant_multiply, d * b);
        assert_eq!(single.levels.ops.add, d * (b - 1));
        assert_eq!(single.levels.ops.constant_add, d);

        // Five queries at four lanes: one packed chunk and a remainder
        // of one — two units, each rotating once.
        let (_, packed) = sally.classify_batch_traced(&queries);
        assert_eq!(packed.packed_sizes, vec![4, 4, 4, 4, 1]);
        assert_eq!(packed.levels.ops.rotate, 2 * (b - 1));
        assert_eq!(packed.levels.ops.constant_multiply, 2 * d * b);
    }

    #[test]
    fn packing_disengages_without_capacity_consent_or_headroom() {
        let forest = figure1();
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();

        // Unbounded capacity (the default clear config) never packs.
        let be = ClearBackend::with_defaults();
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        assert_eq!(sally.pack_plan(), None);

        // PackingMode::Off wins even when capacity fits.
        let be = packed_clear_backend(&maurice, ModelForm::Encrypted, 4);
        let sally = Sally::with_options(
            &be,
            maurice.deploy(&be, ModelForm::Encrypted),
            EvalOptions {
                packing: PackingMode::Off,
                ..EvalOptions::default()
            },
        );
        assert_eq!(sally.pack_plan(), None);
        let diane = Diane::new(&be, maurice.public_query_info());
        let queries: Vec<EncryptedQuery<_>> = [[25u64, 60], [0, 0], [55, 7]]
            .iter()
            .map(|q| diane.encrypt_features(q).unwrap())
            .collect();
        let (_, trace) = sally.classify_batch_traced(&queries);
        assert!(trace.packed_sizes.is_empty(), "Off mode must not pack");

        // No depth headroom for the unpack mask: capacity fits but the
        // budget only covers the sequential circuit. The batch still
        // evaluates correctly on the stage-major path.
        let shape = EvalShape::plan(&maurice, ModelForm::Encrypted);
        let exact = CircuitReport::analyze(maurice.compiled(), &shape).depth;
        let probe = packed_clear_backend(&maurice, ModelForm::Encrypted, 4);
        let stride = {
            let s = Sally::host(&probe, maurice.deploy(&probe, ModelForm::Encrypted));
            s.pack_plan().expect("probe fits").stride
        };
        let tight = ClearBackend::new(copse_fhe::ClearConfig {
            max_depth: exact,
            slot_capacity: Some(4 * stride),
            work_per_op: 0,
        });
        let sally = Sally::host(&tight, maurice.deploy(&tight, ModelForm::Encrypted));
        assert_eq!(sally.pack_plan(), None, "no headroom for the unpack level");
        let diane = Diane::new(&tight, maurice.public_query_info());
        let queries: Vec<EncryptedQuery<_>> = [[25u64, 60], [0, 0]]
            .iter()
            .map(|q| diane.encrypt_features(q).unwrap())
            .collect();
        let (results, trace) = sally.classify_batch_traced(&queries);
        assert!(trace.packed_sizes.is_empty());
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn packed_batch_with_shuffle_matches_sequential() {
        let forest = microbench::generate(&table6_specs()[1], 12);
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let be = packed_clear_backend(&maurice, ModelForm::Encrypted, 3);
        let sally = Sally::with_options(
            &be,
            maurice.deploy(&be, ModelForm::Encrypted),
            EvalOptions {
                shuffle_seed: Some(0xFEED),
                ..EvalOptions::default()
            },
        );
        assert!(
            sally.pack_plan().is_some(),
            "shuffle must not break packing"
        );
        let diane = Diane::new(&be, sally.client_query_info());
        let queries: Vec<EncryptedQuery<_>> = microbench::random_queries(&forest, 5, 13)
            .iter()
            .map(|q| diane.encrypt_features(q).unwrap())
            .collect();
        let (results, trace) = sally.classify_batch_traced(&queries);
        assert_eq!(trace.packed_sizes, vec![3, 3, 3, 2, 2]);
        for (q, r) in queries.iter().zip(&results) {
            assert_eq!(
                be.decrypt(r.ciphertext()),
                be.decrypt(sally.classify(q).ciphertext())
            );
        }
    }

    #[test]
    #[should_panic(expected = "query 1 does not carry one bit plane per bit")]
    fn ragged_batch_is_rejected_naming_the_query() {
        // Unequal precision inside one packed unit used to index past
        // the short query's planes; now every query is checked once,
        // with the same message whether or not the batch packs.
        let maurice = Maurice::compile(&figure1(), CompileOptions::default()).unwrap();
        let be = packed_clear_backend(&maurice, ModelForm::Encrypted, 4);
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        assert!(sally.pack_plan().is_some());
        let diane = Diane::new(&be, maurice.public_query_info());
        let mut queries: Vec<EncryptedQuery<_>> = [[25u64, 60], [0, 0], [55, 7]]
            .iter()
            .map(|q| diane.encrypt_features(q).unwrap())
            .collect();
        queries[1].planes.pop();
        sally.classify_batch(&queries);
    }

    #[test]
    fn query_planes_roundtrip_through_accessors() {
        let be = ClearBackend::with_defaults();
        let maurice = Maurice::compile(&figure1(), CompileOptions::default()).unwrap();
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        let diane = Diane::new(&be, maurice.public_query_info());
        let q = diane.encrypt_features(&[25, 60]).unwrap();
        let rebuilt = EncryptedQuery::<ClearBackend>::from_planes(q.planes().to_vec());
        assert_eq!(
            be.decrypt(sally.classify(&rebuilt).ciphertext()),
            be.decrypt(sally.classify(&q).ciphertext())
        );
    }

    #[test]
    fn outcome_votes_and_labels() {
        let outcome = ClassificationOutcome {
            leaf_hits: BitVec::from_bools(&[true, false, true, false]),
            label_names: vec!["a".into(), "b".into()],
            codebook: vec![0, 1, 1, 0],
        };
        assert_eq!(outcome.selected_leaves(), vec![0, 2]);
        assert_eq!(outcome.vote_counts(), vec![1, 1]);
        assert_eq!(outcome.plurality_label(), Some("a")); // tie -> low
    }

    #[test]
    fn empty_outcome_has_no_label() {
        let outcome = ClassificationOutcome {
            leaf_hits: BitVec::zeros(3),
            label_names: vec!["a".into()],
            codebook: vec![0, 0, 0],
        };
        assert_eq!(outcome.plurality_label(), None);
    }
}
