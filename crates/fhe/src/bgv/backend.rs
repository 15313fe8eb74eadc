//! [`FheBackend`] implementation over the real BGV scheme.
//!
//! Logical vectors of `width <= nslots` are packed into the slot
//! structure with a **zero-padding invariant**: slots at or beyond the
//! logical width hold 0 for every ciphertext produced by this backend
//! (encode pads; XOR/AND preserve zeros; rotations and block unpacking
//! mask precisely). That invariant is what lets a `rotate(k)` on a
//! width-`w` vector be realised with two slot-level automorphisms and
//! two plaintext masks.
//!
//! Operation metering is at the *semantic* level of the trait (one
//! `Rotate` per logical rotation, etc.); the extra automorphisms and
//! mask multiplications a real scheme pays appear in wall-clock time
//! and noise, which is exactly how HElib's costs exceed abstract op
//! counts. Differential tests drive this backend and
//! [`ClearBackend`](crate::ClearBackend) with identical circuits.
//!
//! The layout kernels (masked rotation, block packing and unpacking,
//! and the ring-form matrix product) are written
//! once, generic over `SlotOps`: this backend runs them on ciphertexts,
//! and [`AbstractBackend`](crate::AbstractBackend) runs the same code
//! on chain positions, which is how the static analyzer knows the level
//! every semantic operation leaves behind.
//!
//! The ring-form product ([`FheBackend::ring_mat_vec`]) is every
//! matrix product, solo and packed. It rotates all `nslots` slots,
//! which brings slots beyond the input's width into the rotated
//! copies, and relies on its diagonals being zero wherever they land,
//! so it needs no mask at all and its results keep the zero padding. A
//! packed chunk multiplies tiled ring diagonals, so no kernel rotates
//! or masks block by block, and every mask is one contiguous slot
//! range.

use crate::backend::{
    codec, CiphertextCodecError, FheBackend, MaybeEncrypted, NoiseBudget, RingDiagonals,
};
use crate::bgv::level::{Level, LevelRule};
use crate::bgv::ring::RnsPoly;
use crate::bgv::scheme::{BgvParams, BgvScheme, Ciphertext, Factor, PreparedPlaintext, ProductSum};
use crate::bitvec::BitVec;
use crate::math::gf2poly::Gf2Poly;
use crate::meter::{FheOp, OpMeter};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// Leading byte of serialised [`BgvCiphertext`]s.
///
/// The layout after it: `width: u64`, `noise: f64`, `level: u32`, a
/// `seeded: u8` flag (0 or 1), then `c0`'s `level` residue rows, then
/// `c1` — its `seed: u64` when seeded, else its rows like `c0`'s. A
/// row is `φ` residues of `⌈prime_bits/8⌉` bytes each. Everything is
/// little-endian.
const BGV_CT_MAGIC: u8 = 0xB7;

/// A packed plaintext: encoded polynomial, its multiplication-ready
/// prepared form (which caches the evaluation-domain transform across
/// uses — fixed model diagonals transform once, not once per query),
/// and the logical width.
#[derive(Clone, Debug)]
pub struct BgvPlaintext {
    poly: Gf2Poly,
    prepared: PreparedPlaintext,
    width: usize,
}

/// A packed ciphertext: BGV pair plus logical width.
#[derive(Clone, Debug)]
pub struct BgvCiphertext {
    pub(crate) inner: Ciphertext,
    width: usize,
    /// The seed `inner.c1` expands from
    /// ([`RnsContext::expand_uniform`](crate::bgv::ring::RnsContext::expand_uniform))
    /// when it is a fresh symmetric encryption's, which the wire then
    /// carries in place of `c1`; `None` for every operation's result.
    seed: Option<u64>,
    /// Its product form at the level a product first read it at as the
    /// operand: an encrypted model diagonal in a matrix product, a
    /// hosted threshold plane in a comparison, the second factor of
    /// any `mul`. Levels do not depend on data, so every later query
    /// reads the same one instead of switching a model operand down and
    /// transforming it again.
    factor: OnceLock<Factor>,
}

impl BgvCiphertext {
    fn new(inner: Ciphertext, width: usize) -> Self {
        Self {
            inner,
            width,
            seed: None,
            factor: OnceLock::new(),
        }
    }

    /// Logical slot width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// This ciphertext in product form at `primes` primes: the cached
    /// one when it is there, else computed (and cached if nothing is).
    fn factor(&self, scheme: &BgvScheme, primes: usize) -> Cow<'_, Factor> {
        let cached = self
            .factor
            .get_or_init(|| scheme.factor(&self.inner, primes));
        match cached.primes() == primes {
            true => Cow::Borrowed(cached),
            false => Cow::Owned(scheme.factor(&self.inner, primes)),
        }
    }
}

/// The scheme operations the backend's slot-layout kernels are built
/// from. The backend implements them on ciphertexts and
/// [`LevelRule`] on chain positions, so each kernel below is written
/// once and its level trajectory is read off the code that runs it.
///
/// A matrix product is not a per-term operation: its terms accumulate
/// into a [`SlotOps::Sum`] at one level and [`SlotOps::finish`] once,
/// so an encrypted model relinearises once per matrix.
pub(crate) trait SlotOps {
    /// What the kernels move: a ciphertext, or its [`Level`].
    type Ct: Clone;
    /// A model operand the kernels multiply by (plaintext or encrypted).
    type Operand;
    /// A `Ct` as products read it, at one level (BGV: its halves,
    /// forward-transformed once).
    type Factor;
    /// One matrix's products, summed but not finished.
    type Sum: Send;
    /// The level rule every ciphertext here follows.
    fn rule(&self) -> &LevelRule;
    /// Where `a` stands in the chain.
    fn level(&self, a: &Self::Ct) -> Level;
    /// Where an encrypted operand stands; `None` for a plaintext.
    fn operand_level(&self, b: &Self::Operand) -> Option<Level>;
    /// Slot-level left rotation by `k` (full width), no masking.
    fn rotate_full(&self, a: &Self::Ct, k: isize) -> Self::Ct;
    /// Product with the (cached) 0/1 mask of the slots in `span`.
    fn mask(&self, a: &Self::Ct, span: Range<usize>) -> Self::Ct;
    /// Ciphertext addition.
    fn sum(&self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct;
    /// `a` switched down to `primes` primes, in product form.
    fn factor(&self, a: &Self::Ct, primes: usize) -> Self::Factor;
    /// An empty sum of the form `plan` gives.
    fn empty(&self, plan: SumPlan) -> Self::Sum;
    /// `sum += a ⊙ b`, with `a` at the sum's level.
    fn mul_add(&self, sum: &mut Self::Sum, a: &Self::Factor, b: &Self::Operand);
    /// `sum += other`: partial sums of one matrix's terms.
    fn combine(&self, sum: &mut Self::Sum, other: Self::Sum);
    /// The matrix product: each part inverse-transformed once, and a
    /// tensor sum relinearised and reduced once.
    fn finish(&self, sum: Self::Sum) -> Self::Ct;
}

/// How one sum of products accumulates: a matrix's terms in
/// [`ring_products`], or the terms of a [`product_sum`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct SumPlan {
    /// The chain primes every term is multiplied at.
    pub(crate) primes: usize,
    /// Whether some term multiplies two ciphertexts, making the sum a
    /// tensor that finishes with one relinearisation.
    pub(crate) tensor: bool,
}

impl SumPlan {
    /// Where the term `a ⊙ b` would be multiplied alone, with `a` at
    /// `at`: a plaintext product at `a`'s level, a ciphertext product
    /// where [`LevelRule::mul_inputs`] aligns it.
    fn term<S: SlotOps>(ops: &S, at: Level, b: &S::Operand) -> Self {
        match ops.operand_level(b) {
            None => Self {
                primes: at.primes,
                tensor: false,
            },
            Some(y) => Self {
                primes: ops.rule().mul_inputs(at, y).0.primes,
                tensor: true,
            },
        }
    }

    /// A sum holding the terms of both: multiplied at the lower level,
    /// a tensor if either is.
    fn join(self, other: Self) -> Self {
        Self {
            primes: self.primes.min(other.primes),
            tensor: self.tensor || other.tensor,
        }
    }
}

/// A semantic rotation of a `width`-slot vector by `k`: free for a
/// zero shift, one automorphism at full width, a masked pair below it:
/// out[i] = v[i+k] for i < width-k (from the left-rotated copy), and
/// out[i] = v[i+k-width] for width-k <= i < width (from the
/// right-rotated copy). The masks keep the zero padding.
pub(crate) fn rotate<S: SlotOps>(
    ops: &S,
    a: &S::Ct,
    k: isize,
    width: usize,
    nslots: usize,
) -> S::Ct {
    if width == 0 {
        return a.clone();
    }
    let k = k.rem_euclid(width as isize) as usize;
    if k == 0 {
        return a.clone();
    }
    if width == nslots {
        return ops.rotate_full(a, k as isize);
    }
    let left = ops.rotate_full(a, k as isize);
    let right = ops.rotate_full(a, k as isize - width as isize);
    let t1 = ops.mask(&left, 0..width - k);
    let t2 = ops.mask(&right, width - k..width);
    ops.sum(&t1, &t2)
}

/// Packs `cts` into blocks `stride` apart: input `j` is rotated right
/// by `j * stride` and summed in. Inputs ride the zero-padding
/// invariant, so the alignment rotations need no masks.
pub(crate) fn pack<'a, S: SlotOps>(
    ops: &S,
    cts: impl IntoIterator<Item = &'a S::Ct>,
    stride: usize,
) -> S::Ct
where
    S::Ct: 'a,
{
    let mut acc: Option<S::Ct> = None;
    for (j, ct) in cts.into_iter().enumerate() {
        acc = Some(match acc {
            None => ct.clone(),
            Some(prev) => ops.sum(&prev, &ops.rotate_full(ct, -((j * stride) as isize))),
        });
    }
    acc.expect("at least one block")
}

/// Extracts block `index`: rotated to the front (block 0 stays put),
/// then split out by the contiguous `width`-slot mask, which also
/// clears whatever the full-ring rotation wrapped around.
pub(crate) fn unpack<S: SlotOps>(
    ops: &S,
    a: &S::Ct,
    index: usize,
    stride: usize,
    width: usize,
) -> S::Ct {
    let shifted = if index == 0 {
        a.clone()
    } else {
        ops.rotate_full(a, (index * stride) as isize)
    };
    ops.mask(&shifted, 0..width)
}

/// The ring-form matrix products of [`FheBackend::ring_mat_vec`]: for
/// every matrix `l`, `Σ_s diagonals[l][s] ⊙ rot(a, shifts[s])` over
/// the terms it holds. Each shift some matrix uses is one full-ring
/// automorphism (none for shift 0), shared by every matrix; no mask.
///
/// Products accumulate per matrix and finish once. Every term of a
/// matrix is multiplied at one level, the lowest at which any of its
/// products' operands meet (a plaintext product at the rotation's, a
/// ciphertext product where [`LevelRule::mul_inputs`] aligns it), so
/// the level rule fixes it before anything is computed. Each rotation
/// is put in product form once per level some matrix needs and
/// multiply-added into every matrix that keeps a term there; a matrix
/// then pays its inverse transforms once, and if any term multiplied
/// two ciphertexts one relinearisation and one reduction.
///
/// Contiguous chunks of shifts run on the shared pool when
/// `threads > 1`; their partial sums combine in chunk order, and the
/// matrices finish in parallel. Sums of products are exact modular
/// sums, the inverse transform is linear and exact, and the level
/// rule's noise estimate sums integers, so every chunking yields the
/// same bits and levels — and a sum of plaintext products the bits of
/// the sum of the finished products.
pub(crate) fn ring_products<S>(
    ops: &S,
    a: &S::Ct,
    shifts: &[usize],
    diagonals: &[Vec<Option<&S::Operand>>],
    threads: usize,
) -> Vec<Option<S::Ct>>
where
    S: SlotOps + Sync,
    S::Ct: Send + Sync,
    S::Operand: Sync,
{
    let (rule, at) = (ops.rule(), ops.level(a));
    let plans: Vec<Option<SumPlan>> = diagonals
        .iter()
        .map(|terms| {
            let plan = |(b, &k): (&S::Operand, &usize)| {
                SumPlan::term(ops, rule.rotate_full(&at, k as isize), b)
            };
            let terms = terms
                .iter()
                .zip(shifts)
                .filter_map(|(b, k)| Some((*b.as_ref()?, k)));
            terms.map(plan).reduce(SumPlan::join)
        })
        .collect();
    let chunk = |range: Range<usize>| {
        let mut sums: Vec<Option<S::Sum>> = diagonals.iter().map(|_| None).collect();
        for s in range {
            if diagonals.iter().all(|terms| terms[s].is_none()) {
                continue;
            }
            let rotated = match shifts[s] {
                0 => a.clone(),
                k => ops.rotate_full(a, k as isize),
            };
            // The rotation in product form, once per level it is read at.
            let mut factors: Vec<(usize, S::Factor)> = Vec::new();
            for ((sum, terms), plan) in sums.iter_mut().zip(diagonals).zip(&plans) {
                let (Some(b), Some(plan)) = (terms[s], plan) else {
                    continue;
                };
                let i = factors
                    .iter()
                    .position(|(primes, _)| *primes == plan.primes);
                let i = i.unwrap_or_else(|| {
                    factors.push((plan.primes, ops.factor(&rotated, plan.primes)));
                    factors.len() - 1
                });
                ops.mul_add(
                    sum.get_or_insert_with(|| ops.empty(*plan)),
                    &factors[i].1,
                    b,
                );
            }
        }
        sums
    };
    let partials = if threads > 1 {
        copse_pool::global().scope_chunks(shifts.len(), threads, chunk)
    } else {
        vec![chunk(0..shifts.len())]
    };
    let mut sums: Vec<Option<S::Sum>> = diagonals.iter().map(|_| None).collect();
    for partial in partials {
        for (sum, part) in sums.iter_mut().zip(partial) {
            match (sum.as_mut(), part) {
                (Some(sum), Some(part)) => ops.combine(sum, part),
                (None, part) => *sum = part,
                (Some(_), None) => {}
            }
        }
    }
    copse_pool::global()
        .scope_chunks_mut(&mut sums, threads.max(1), |_, sums| {
            sums.iter_mut()
                .map(|sum| sum.take().map(|sum| ops.finish(sum)))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
}

/// The sum of products of [`FheBackend::product_sum`]: `Σ a_i ⊙ b_i`
/// over `terms`, finished once. Every term is multiplied at one level:
/// the lowest at which any term alone would be, which the level rule
/// fixes before anything is computed; an operand that stands higher is
/// switched down to it first. The products accumulate in one sum, so the sum
/// pays its inverse transforms once and, if any term multiplies two
/// ciphertexts, one relinearisation and one reduction, however many
/// products it holds.
///
/// # Panics
///
/// Panics on an empty `terms`.
pub(crate) fn product_sum<S: SlotOps>(ops: &S, terms: &[(&S::Ct, &S::Operand)]) -> S::Ct {
    let plan = terms
        .iter()
        .map(|(a, b)| SumPlan::term(ops, ops.level(a), b))
        .reduce(SumPlan::join)
        .expect("a sum of at least one product");
    let mut sum = ops.empty(plan);
    for (a, b) in terms {
        ops.mul_add(&mut sum, &ops.factor(a, plan.primes), b);
    }
    ops.finish(sum)
}

/// Meters a [`FheBackend::product_sum`] as the fold it stands for: a
/// `Multiply` per ciphertext product, a `ConstantMultiply` per
/// plaintext one, and an `Add` per term after the first.
pub(crate) fn record_product_sum<B: FheBackend>(
    meter: &OpMeter,
    terms: &[(&B::Ciphertext, &MaybeEncrypted<B>)],
) {
    for (i, (_, b)) in terms.iter().enumerate() {
        meter.record(match b {
            MaybeEncrypted::Plain(_) => FheOp::ConstantMultiply,
            MaybeEncrypted::Encrypted(_) => FheOp::Multiply,
        });
        if i > 0 {
            meter.record(FheOp::Add);
        }
    }
}

/// Cache of slot-range masks.
type MaskCache = HashMap<Range<usize>, Arc<BgvPlaintext>>;

/// The real-FHE backend.
#[derive(Debug)]
pub struct BgvBackend {
    scheme: BgvScheme,
    meter: Arc<OpMeter>,
    /// Slot-range masks keyed by their range: ones at `[from, to)`.
    /// Partial-width rotations and block unpacking use the same few
    /// masks on every call, so caching them turns each
    /// into a *warm* fixed operand whose evaluation-domain transform
    /// is paid exactly once per backend.
    masks: Mutex<MaskCache>,
}

impl BgvBackend {
    /// Generates the secret and public keys and builds the backend.
    /// Switching keys are built per level on demand
    /// ([`BgvScheme::switch_keys`]), or ahead of time by
    /// [`FheBackend::prepare_levels`].
    pub fn new(params: BgvParams) -> Self {
        Self::new_with_ntt(params, true)
    }

    /// [`BgvBackend::new`] with the ring's NTT fast path explicitly
    /// enabled or disabled (`false` forces the schoolbook oracle; keys
    /// and ciphertexts are identical either way).
    ///
    /// # Panics
    ///
    /// Panics on a power-of-two `m`: `2` ramifies completely in the
    /// negacyclic ring, so it has no GF(2) slots to pack or rotate.
    pub fn new_with_ntt(params: BgvParams, use_ntt: bool) -> Self {
        assert!(
            !params.is_negacyclic(),
            "BgvBackend needs GF(2) slots: the power-of-two ring m = {} has none",
            params.m
        );
        Self {
            scheme: BgvScheme::keygen_with_ntt(params, use_ntt),
            meter: Arc::new(OpMeter::new()),
            masks: Mutex::new(HashMap::new()),
        }
    }

    /// Small test instance (`m = 31`, 6 slots).
    pub fn tiny() -> Self {
        Self::new(BgvParams::tiny())
    }

    /// Demo instance (`m = 127`, 18 slots).
    pub fn demo() -> Self {
        Self::new(BgvParams::demo())
    }

    /// The underlying scheme (slot structure, params, noise readouts).
    pub fn scheme(&self) -> &BgvScheme {
        &self.scheme
    }

    /// Number of SIMD slots.
    pub fn nslots(&self) -> usize {
        self.scheme.slots().nslots()
    }

    fn encode_mask(&self, span: Range<usize>) -> Arc<BgvPlaintext> {
        if let Some(mask) = self.masks.lock().unwrap().get(&span) {
            return mask.clone();
        }
        let bits = BitVec::from_fn(self.nslots(), |i| span.contains(&i));
        let mask = Arc::new(self.encode(&bits));
        self.scheme.warm_prepared(&mask.prepared);
        self.masks
            .lock()
            .unwrap()
            .entry(span)
            .or_insert(mask)
            .clone()
    }

    /// Bytes a residue takes on the wire: every chain prime is below
    /// `2^prime_bits`.
    fn residue_bytes(&self) -> usize {
        self.scheme.params().prime_bits.div_ceil(8) as usize
    }

    fn check_width(&self, width: usize) {
        assert!(
            width <= self.nslots(),
            "width {width} exceeds {} slots (choose a larger m)",
            self.nslots()
        );
    }
}

impl SlotOps for BgvBackend {
    type Ct = Ciphertext;
    type Operand = MaybeEncrypted<BgvBackend>;
    type Factor = Factor;
    type Sum = ProductSum;

    fn rule(&self) -> &LevelRule {
        self.scheme.level_rule()
    }

    fn level(&self, a: &Ciphertext) -> Level {
        self.scheme.position(a)
    }

    fn operand_level(&self, b: &MaybeEncrypted<BgvBackend>) -> Option<Level> {
        match b {
            MaybeEncrypted::Plain(_) => None,
            MaybeEncrypted::Encrypted(ct) => Some(self.scheme.position(&ct.inner)),
        }
    }

    fn rotate_full(&self, a: &Ciphertext, k: isize) -> Ciphertext {
        self.scheme.rotate_slots(a, k)
    }

    fn mask(&self, a: &Ciphertext, span: Range<usize>) -> Ciphertext {
        self.scheme
            .mul_plain_prepared(a, &self.encode_mask(span).prepared)
    }

    fn sum(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.scheme.add(a, b)
    }

    fn factor(&self, a: &Ciphertext, primes: usize) -> Factor {
        self.scheme.factor(a, primes)
    }

    fn empty(&self, plan: SumPlan) -> ProductSum {
        self.scheme.product_sum(plan.primes, plan.tensor)
    }

    fn mul_add(&self, sum: &mut ProductSum, a: &Factor, b: &MaybeEncrypted<BgvBackend>) {
        match b {
            MaybeEncrypted::Plain(pt) => self.scheme.mul_add_plain(sum, a, &pt.prepared),
            MaybeEncrypted::Encrypted(ct) => {
                let y = ct.factor(&self.scheme, sum.primes());
                self.scheme.mul_add(sum, a, &y);
            }
        }
    }

    fn combine(&self, sum: &mut ProductSum, other: ProductSum) {
        self.scheme.combine(sum, other);
    }

    fn finish(&self, sum: ProductSum) -> Ciphertext {
        self.scheme.finish(sum)
    }
}

impl FheBackend for BgvBackend {
    type Plaintext = BgvPlaintext;
    type Ciphertext = BgvCiphertext;

    fn slot_capacity(&self) -> Option<usize> {
        Some(self.nslots())
    }

    fn meter(&self) -> &OpMeter {
        &self.meter
    }

    fn noise_budget(&self) -> NoiseBudget {
        NoiseBudget::Chain(*self.scheme.level_rule())
    }

    fn encode(&self, bits: &BitVec) -> BgvPlaintext {
        self.check_width(bits.width());
        let padded = if bits.width() < self.nslots() {
            let mut p = BitVec::zeros(self.nslots());
            for i in bits.iter_ones() {
                p.set(i, true);
            }
            p
        } else {
            bits.clone()
        };
        let poly = self.scheme.slots().encode(&padded);
        let prepared = self.scheme.prepare_plain(&poly);
        BgvPlaintext {
            poly,
            prepared,
            width: bits.width(),
        }
    }

    fn decode(&self, pt: &BgvPlaintext) -> BitVec {
        self.scheme.slots().decode(&pt.poly).truncate(pt.width)
    }

    fn prepare_plaintext(&self, pt: &BgvPlaintext) {
        self.scheme.warm_prepared(&pt.prepared);
    }

    fn prepare_levels(&self, primes: usize) {
        self.scheme.switch_keys(primes);
    }

    fn set_kernel_threads(&self, threads: usize) {
        self.scheme.set_threads(threads);
    }

    fn kernel_threads(&self) -> usize {
        self.scheme.threads()
    }

    fn encrypt(&self, pt: &BgvPlaintext) -> BgvCiphertext {
        self.meter.record(FheOp::Encrypt);
        BgvCiphertext::new(self.scheme.encrypt_poly(&pt.poly), pt.width)
    }

    /// A symmetric encryption at `primes` (the top of the chain for
    /// `None`; [`BgvScheme::encrypt_symmetric`]) that remembers its
    /// `c1` seed, so it serialises at half the size.
    fn encrypt_query_bits(&self, bits: &BitVec, primes: Option<usize>) -> BgvCiphertext {
        let pt = self.encode(bits);
        self.meter.record(FheOp::Encrypt);
        let primes = primes.unwrap_or(self.scheme.params().chain_len);
        let (inner, seed) = self.scheme.encrypt_symmetric(&pt.poly, primes);
        BgvCiphertext {
            seed: Some(seed),
            ..BgvCiphertext::new(inner, pt.width)
        }
    }

    fn decrypt(&self, ct: &BgvCiphertext) -> BitVec {
        self.meter.record(FheOp::Decrypt);
        self.scheme
            .slots()
            .decode(&self.scheme.decrypt_poly(&ct.inner))
            .truncate(ct.width)
    }

    fn width(&self, ct: &BgvCiphertext) -> usize {
        ct.width
    }

    fn depth(&self, ct: &BgvCiphertext) -> u32 {
        (self.scheme.params().chain_len - self.scheme.level(&ct.inner)) as u32
    }

    fn add(&self, a: &BgvCiphertext, b: &BgvCiphertext) -> BgvCiphertext {
        assert_eq!(a.width, b.width, "width mismatch");
        self.meter.record(FheOp::Add);
        BgvCiphertext::new(self.scheme.add(&a.inner, &b.inner), a.width)
    }

    fn add_plain(&self, a: &BgvCiphertext, b: &BgvPlaintext) -> BgvCiphertext {
        assert_eq!(a.width, b.width, "width mismatch");
        self.meter.record(FheOp::ConstantAdd);
        BgvCiphertext::new(self.scheme.add_plain(&a.inner, &b.poly), a.width)
    }

    /// [`BgvScheme::mul`], reading `b` in its cached product form when
    /// it holds one at the level the product meets at: a model operand
    /// hosted at its unit's entry level transforms once, not per query.
    fn mul(&self, a: &BgvCiphertext, b: &BgvCiphertext) -> BgvCiphertext {
        assert_eq!(a.width, b.width, "width mismatch");
        self.meter.record(FheOp::Multiply);
        let scheme = &self.scheme;
        let tensor = scheme.tensor_with(&a.inner, &b.inner, |primes| b.factor(scheme, primes));
        BgvCiphertext::new(scheme.finish(tensor), a.width)
    }

    fn mul_plain(&self, a: &BgvCiphertext, b: &BgvPlaintext) -> BgvCiphertext {
        assert_eq!(a.width, b.width, "width mismatch");
        self.meter.record(FheOp::ConstantMultiply);
        BgvCiphertext::new(
            self.scheme.mul_plain_prepared(&a.inner, &b.prepared),
            a.width,
        )
    }

    fn product_sum(&self, terms: &[(&BgvCiphertext, &MaybeEncrypted<Self>)]) -> BgvCiphertext {
        let width = terms
            .first()
            .expect("a sum of at least one product")
            .0
            .width;
        for (a, b) in terms {
            let b_width = match b {
                MaybeEncrypted::Plain(pt) => pt.width,
                MaybeEncrypted::Encrypted(ct) => ct.width,
            };
            assert!(a.width == width && b_width == width, "width mismatch");
        }
        record_product_sum(&self.meter, terms);
        let inner: Vec<_> = terms.iter().map(|(a, b)| (&a.inner, *b)).collect();
        BgvCiphertext::new(product_sum(self, &inner), width)
    }

    fn rotate(&self, a: &BgvCiphertext, k: isize) -> BgvCiphertext {
        self.meter.record(FheOp::Rotate);
        BgvCiphertext::new(rotate(self, &a.inner, k, a.width, self.nslots()), a.width)
    }

    fn encrypt_zeros_seeded(&self, width: usize, seed: u64) -> BgvCiphertext {
        self.check_width(width);
        self.meter.record(FheOp::Encrypt);
        BgvCiphertext::new(
            self.scheme.encrypt_poly_seeded(&Gf2Poly::zero(), seed),
            width,
        )
    }

    fn pack_blocks(&self, cts: &[BgvCiphertext], stride: usize, width: usize) -> BgvCiphertext {
        assert!(!cts.is_empty(), "pack_blocks of zero ciphertexts");
        assert!(
            cts.len() * stride <= width,
            "{} blocks at stride {stride} exceed packed width {width}",
            cts.len()
        );
        self.check_width(width);
        for ct in cts {
            assert!(
                ct.width <= stride,
                "block input width {} exceeds stride {stride}",
                ct.width
            );
        }
        for _ in 1..cts.len() {
            self.meter.record(FheOp::Rotate);
            self.meter.record(FheOp::Add);
        }
        // Block j's content lands in `[j*stride, j*stride + w_j)` and
        // everything else is zero.
        BgvCiphertext::new(pack(self, cts.iter().map(|ct| &ct.inner), stride), width)
    }

    fn unpack_block(
        &self,
        ct: &BgvCiphertext,
        index: usize,
        stride: usize,
        width: usize,
    ) -> BgvCiphertext {
        assert!(
            index * stride + width <= ct.width,
            "block {index} at stride {stride} exceeds packed width {}",
            ct.width
        );
        if index > 0 {
            self.meter.record(FheOp::Rotate);
        }
        self.meter.record(FheOp::ConstantMultiply);
        BgvCiphertext::new(unpack(self, &ct.inner, index, stride, width), width)
    }

    fn ring_mat_vec(
        &self,
        v: &BgvCiphertext,
        shifts: &[usize],
        diagonals: &[RingDiagonals<'_, Self>],
        rows: usize,
        threads: usize,
    ) -> Vec<Option<BgvCiphertext>> {
        self.check_width(rows);
        ring_products(self, &v.inner, shifts, diagonals, threads)
            .into_iter()
            .map(|sum| sum.map(|inner| BgvCiphertext::new(inner, rows)))
            .collect()
    }

    fn mod_switch_to(&self, ct: &BgvCiphertext, primes: usize) -> BgvCiphertext {
        BgvCiphertext::new(
            self.scheme.mod_switch_to(&ct.inner, primes).into_owned(),
            ct.width,
        )
    }

    fn enter_circuit(&self, ct: &BgvCiphertext, primes: usize) -> BgvCiphertext {
        BgvCiphertext::new(self.scheme.enter(&ct.inner, primes), ct.width)
    }

    fn compact_for_decrypt(&self, ct: &BgvCiphertext) -> BgvCiphertext {
        self.mod_switch_to(ct, 1)
    }

    fn serialize_ciphertext(&self, ct: &BgvCiphertext) -> Vec<u8> {
        let bytes = self.residue_bytes();
        let put_rows = |out: &mut Vec<u8>, poly: &RnsPoly| {
            for &coeff in poly.residues.iter().flatten() {
                // A whole word, cut back to its low bytes: a fixed-size
                // copy, and the cut bytes are zero.
                let at = out.len();
                out.extend_from_slice(&coeff.to_le_bytes());
                out.truncate(at + bytes);
            }
        };
        let (c0, c1) = (&ct.inner.c0, &ct.inner.c1);
        let rows = c0.residues.len() * self.scheme.ring().phi() * bytes;
        let mut out = Vec::with_capacity(1 + 8 + 8 + 4 + 1 + 2 * rows);
        out.push(BGV_CT_MAGIC);
        out.extend_from_slice(&(ct.width as u64).to_le_bytes());
        out.extend_from_slice(&ct.inner.noise.to_le_bytes());
        out.extend_from_slice(&(c0.residues.len() as u32).to_le_bytes());
        out.push(u8::from(ct.seed.is_some()));
        put_rows(&mut out, c0);
        match ct.seed {
            Some(seed) => out.extend_from_slice(&seed.to_le_bytes()),
            None => put_rows(&mut out, c1),
        }
        out
    }

    fn deserialize_ciphertext(&self, bytes: &[u8]) -> Result<BgvCiphertext, CiphertextCodecError> {
        let ring = self.scheme.ring();
        let residue_bytes = self.residue_bytes();
        let get_rows = |buf: &mut &[u8], level: usize| -> Result<RnsPoly, CiphertextCodecError> {
            let mut residues = Vec::with_capacity(level);
            for &prime in &ring.primes()[..level] {
                let raw = codec::take(buf, ring.phi() * residue_bytes)?;
                let row: Vec<u64> = raw
                    .chunks_exact(residue_bytes)
                    .map(|c| c.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)))
                    .collect();
                // RnsPoly arithmetic assumes reduced coefficients;
                // accepting unreduced words would silently evaluate
                // garbage instead of rejecting the frame.
                if row.iter().any(|&coeff| coeff >= prime) {
                    return Err(CiphertextCodecError::Malformed(
                        "residue coefficient not reduced mod its chain prime",
                    ));
                }
                residues.push(row);
            }
            Ok(RnsPoly { residues })
        };
        let mut buf = bytes;
        codec::check_magic(&mut buf, BGV_CT_MAGIC)?;
        let width = codec::get_u64(&mut buf)? as usize;
        if width > self.nslots() {
            return Err(CiphertextCodecError::Malformed("width exceeds slot count"));
        }
        let noise = codec::get_f64(&mut buf)?;
        if !noise.is_finite() || noise < 0.0 {
            return Err(CiphertextCodecError::Malformed("non-finite noise estimate"));
        }
        let level = codec::get_u32(&mut buf)? as usize;
        if level == 0 || level > self.scheme.params().chain_len {
            return Err(CiphertextCodecError::Malformed(
                "level outside the modulus chain",
            ));
        }
        let seeded = match codec::take(&mut buf, 1)?[0] {
            0 => false,
            1 => true,
            _ => return Err(CiphertextCodecError::Malformed("c1 flag neither 0 nor 1")),
        };
        let c0 = get_rows(&mut buf, level)?;
        let (c1, seed) = if seeded {
            let seed = codec::get_u64(&mut buf)?;
            (ring.expand_uniform(level, seed), Some(seed))
        } else {
            (get_rows(&mut buf, level)?, None)
        };
        codec::finish(buf)?;
        Ok(BgvCiphertext {
            seed,
            ..BgvCiphertext::new(Ciphertext { c0, c1, noise }, width)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clear::ClearBackend;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn bits(pattern: &[bool]) -> BitVec {
        BitVec::from_bools(pattern)
    }

    #[test]
    fn roundtrip_at_partial_width() {
        let be = BgvBackend::tiny();
        let v = bits(&[true, false, true, true]);
        let ct = be.encrypt_bits(&v);
        assert_eq!(be.decrypt(&ct), v);
        assert_eq!(be.width(&ct), 4);
    }

    #[test]
    fn add_and_mul_match_clear_semantics() {
        let be = BgvBackend::tiny();
        let a = bits(&[true, true, false, false, true]);
        let b = bits(&[true, false, true, false, true]);
        let (ca, cb) = (be.encrypt_bits(&a), be.encrypt_bits(&b));
        assert_eq!(be.decrypt(&be.add(&ca, &cb)), a.xor(&b));
        assert_eq!(be.decrypt(&be.mul(&ca, &cb)), a.and(&b));
        assert_eq!(be.decrypt(&be.not(&ca)), a.not());
    }

    #[test]
    fn partial_width_rotation_wraps_within_width() {
        let be = BgvBackend::tiny();
        let v = bits(&[true, false, false, true]);
        let ct = be.encrypt_bits(&v);
        for k in 0..8isize {
            let r = be.rotate(&ct, k);
            assert_eq!(be.decrypt(&r), v.rotate_left(k), "k = {k}");
        }
        let r = be.rotate(&ct, -1);
        assert_eq!(be.decrypt(&r), v.rotate_left(-1));
    }

    #[test]
    fn full_width_rotation_uses_single_automorphism() {
        let be = BgvBackend::tiny();
        let v = BitVec::from_fn(be.nslots(), |i| i % 2 == 0);
        let ct = be.encrypt_bits(&v);
        assert_eq!(be.decrypt(&be.rotate(&ct, 2)), v.rotate_left(2));
    }

    #[test]
    fn differential_random_circuits_vs_clear_backend() {
        // The authoritative test: identical random packed circuits on
        // both backends, identical results.
        let bgv = BgvBackend::tiny();
        let clear = ClearBackend::with_defaults();
        let mut rng = SmallRng::seed_from_u64(99);
        let width = 6;

        for round in 0..4 {
            let inputs: Vec<BitVec> = (0..3)
                .map(|_| BitVec::from_fn(width, |_| rng.gen_bool(0.5)))
                .collect();
            let mut b_cts: Vec<BgvCiphertext> =
                inputs.iter().map(|v| bgv.encrypt_bits(v)).collect();
            let mut c_cts: Vec<_> = inputs.iter().map(|v| clear.encrypt_bits(v)).collect();

            for step in 0..6 {
                let i = rng.gen_range(0..b_cts.len());
                let j = rng.gen_range(0..b_cts.len());
                match rng.gen_range(0..4u8) {
                    0 => {
                        b_cts[i] = bgv.add(&b_cts[i], &b_cts[j]);
                        c_cts[i] = clear.add(&c_cts[i], &c_cts[j]);
                    }
                    1 => {
                        b_cts[i] = bgv.mul(&b_cts[i], &b_cts[j]);
                        c_cts[i] = clear.mul(&c_cts[i], &c_cts[j]);
                    }
                    2 => {
                        let k = rng.gen_range(0..width as isize);
                        b_cts[i] = bgv.rotate(&b_cts[i], k);
                        c_cts[i] = clear.rotate(&c_cts[i], k);
                    }
                    _ => {
                        let mask = BitVec::from_fn(width, |_| rng.gen_bool(0.5));
                        b_cts[i] = bgv.add_plain(&b_cts[i], &bgv.encode(&mask));
                        c_cts[i] = clear.add_plain(&c_cts[i], &clear.encode(&mask));
                    }
                }
                let _ = step;
            }
            for (b, c) in b_cts.iter().zip(&c_cts) {
                assert_eq!(bgv.decrypt(b), clear.decrypt(c), "round {round}");
            }
        }
    }

    #[test]
    fn meter_counts_semantic_operations() {
        let be = BgvBackend::tiny();
        let a = be.encrypt_bits(&bits(&[true, false, true]));
        let _ = be.rotate(&a, 1); // internally 2 autos + 2 masks + add
        let s = be.meter().snapshot();
        assert_eq!(s.rotate, 1);
        assert_eq!(s.constant_multiply, 0);
        assert_eq!(s.encrypt, 1);
    }

    #[test]
    fn a_product_sum_is_its_fold_relinearised_once() {
        use crate::meter::{KeySwitchCounts, OpCounts};
        // Terms at three levels: a plaintext product from the top of
        // the chain, and ciphertext products of a switched-down operand
        // and of a product's result.
        let (bgv, clear) = (BgvBackend::tiny(), ClearBackend::with_defaults());
        let v = |i: usize| {
            bits(&[
                i.is_multiple_of(2),
                i.is_multiple_of(3),
                true,
                !i.is_multiple_of(5),
            ])
        };
        fn sum<B: FheBackend>(be: &B, v: impl Fn(usize) -> BitVec) -> B::Ciphertext {
            let x: Vec<_> = (0..4).map(|i| be.encrypt_bits(&v(i))).collect();
            let low = be.mod_switch_to(&x[1], 7);
            let product = be.mul(&x[2], &x[3]);
            let plain = MaybeEncrypted::Plain(be.encode(&v(4)));
            let (y, z) = (
                MaybeEncrypted::Encrypted(be.encrypt_bits(&v(5))),
                MaybeEncrypted::Encrypted(product),
            );
            be.product_sum(&[(&x[0], &plain), (&low, &y), (&x[0], &z)])
        }
        let (out, meter) = OpMeter::measure(|| sum(&bgv, v));
        assert_eq!(bgv.decrypt(&out), clear.decrypt(&sum(&clear, v)));
        let counts = OpCounts {
            encrypt: 5,
            decrypt: 0,
            rotate: 0,
            add: 2,
            constant_add: 0,
            multiply: 3,
            constant_multiply: 1,
        };
        assert_eq!(meter.snapshot(), counts);
        // The product of x[2] and x[3], and the sum.
        let relinearised = KeySwitchCounts {
            rotation: 0,
            relinearisation: 2,
        };
        assert_eq!(meter.key_switches(), relinearised);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_width_rejected() {
        let be = BgvBackend::tiny();
        let _ = be.encode(&BitVec::zeros(be.nslots() + 1));
    }

    #[test]
    fn ciphertext_codec_roundtrips_and_stays_decryptable() {
        let be = BgvBackend::tiny();
        let v = bits(&[true, false, true, true]);
        let fresh = be.encrypt_bits(&v);
        let deep = be.mul(&fresh, &fresh); // exercise a switched level
        for ct in [&fresh, &deep] {
            let back = be
                .deserialize_ciphertext(&be.serialize_ciphertext(ct))
                .unwrap();
            assert_eq!(be.decrypt(&back), be.decrypt(ct));
            assert_eq!(be.width(&back), be.width(ct));
            // A revived ciphertext must still be a valid operand.
            let sum = be.add(&back, ct);
            assert_eq!(be.decrypt(&sum), BitVec::zeros(v.width()));
        }
    }

    #[test]
    fn compacted_results_decrypt_identically_and_serialise_smaller() {
        let be = BgvBackend::tiny();
        let v = bits(&[true, false, true, true, false]);
        let mask = be.encode(&bits(&[true, true, false, true, true]));
        // Mid-chain, like a real result; fresh ciphertexts sit at the
        // top and compact the most.
        let ct = be.mul_plain(&be.rotate(&be.encrypt_bits(&v), 2), &mask);
        let compact = be.compact_for_decrypt(&ct);
        assert_eq!(be.decrypt(&compact), be.decrypt(&ct));
        assert_eq!(be.width(&compact), be.width(&ct));
        assert_eq!(be.scheme().level(&compact.inner), 1);
        assert!(be.scheme().level(&ct.inner) > 1);
        let (full, small) = (
            be.serialize_ciphertext(&ct),
            be.serialize_ciphertext(&compact),
        );
        assert!(
            small.len() < full.len(),
            "{} !< {}",
            small.len(),
            full.len()
        );
        // Idempotent, and the wire form round-trips.
        assert_eq!(
            be.serialize_ciphertext(&be.compact_for_decrypt(&compact)),
            small
        );
        let back = be.deserialize_ciphertext(&small).unwrap();
        assert_eq!(be.decrypt(&back), be.decrypt(&ct));
    }

    /// Where `c0`'s first residue starts: after magic (1), width (8),
    /// noise (8), level (4) and the seeded flag (1).
    const C0_AT: usize = 1 + 8 + 8 + 4 + 1;

    #[test]
    fn ciphertext_codec_rejects_unreduced_residues() {
        use crate::backend::CiphertextCodecError;
        let be = BgvBackend::tiny();
        let mut raw = be.serialize_ciphertext(&be.encrypt_bits(&bits(&[true, false])));
        // A 4-byte residue of all ones: above every 25-bit prime.
        raw[C0_AT..C0_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            be.deserialize_ciphertext(&raw).unwrap_err(),
            CiphertextCodecError::Malformed("residue coefficient not reduced mod its chain prime")
        );
    }

    /// One tiny backend for the codec properties: keygen is the slow
    /// part of a case.
    fn shared() -> &'static BgvBackend {
        static BACKEND: OnceLock<BgvBackend> = OnceLock::new();
        BACKEND.get_or_init(BgvBackend::tiny)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn seeded_planes_come_back_bit_for_bit(
            pattern in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..7),
            primes in 1..11usize,
        ) {
            let be = shared();
            let plane = be.encrypt_query_bits(&bits(&pattern), Some(primes));
            let raw = be.serialize_ciphertext(&plane);
            let back = be.deserialize_ciphertext(&raw).unwrap();
            proptest::prop_assert_eq!(&back.inner, &plane.inner);
            proptest::prop_assert_eq!(back.seed, plane.seed);
            proptest::prop_assert_eq!(be.serialize_ciphertext(&back), raw);
            proptest::prop_assert_eq!(be.decrypt(&back), bits(&pattern));
        }
    }

    #[test]
    fn seeded_planes_ship_a_seed_for_c1_and_four_byte_residues() {
        let be = BgvBackend::tiny();
        let v = bits(&[true, false, true]);
        let plane = be.encrypt_query_bits(&v, Some(4));
        assert_eq!(be.scheme().level(&plane.inner), 4);
        let row = be.scheme().ring().phi() * 4;
        assert_eq!(be.serialize_ciphertext(&plane).len(), C0_AT + 4 * row + 8);
        // An operation's result carries both halves.
        let sum = be.add(&plane, &plane);
        assert_eq!(sum.seed, None);
        assert_eq!(be.serialize_ciphertext(&sum).len(), C0_AT + 2 * 4 * row);
        // Without a level: the top of the chain.
        let top = be.encrypt_query_bits(&v, None);
        assert_eq!(
            be.scheme().level(&top.inner),
            be.scheme().params().chain_len
        );
        assert_eq!(be.decrypt(&top), v);
    }

    #[test]
    fn ciphertext_codec_errors_are_typed() {
        use crate::backend::CiphertextCodecError;
        let be = BgvBackend::tiny();
        let plane = be.serialize_ciphertext(&be.encrypt_query_bits(&bits(&[true]), Some(3)));
        // A seed cut short.
        assert_eq!(
            be.deserialize_ciphertext(&plane[..plane.len() - 3])
                .unwrap_err(),
            CiphertextCodecError::Truncated
        );
        // A residue row cut short.
        let row = be.scheme().ring().phi() * 4;
        assert_eq!(
            be.deserialize_ciphertext(&plane[..C0_AT + row + 5])
                .unwrap_err(),
            CiphertextCodecError::Truncated
        );
        // A residue at or above its prime, here the prime itself.
        let mut unreduced = plane.clone();
        let prime = be.scheme().ring().primes()[1] as u32;
        unreduced[C0_AT + row..C0_AT + row + 4].copy_from_slice(&prime.to_le_bytes());
        assert_eq!(
            be.deserialize_ciphertext(&unreduced).unwrap_err(),
            CiphertextCodecError::Malformed("residue coefficient not reduced mod its chain prime")
        );
        // The 8-byte codec's magic.
        let mut old = plane.clone();
        old[0] = 0xB6;
        assert_eq!(
            be.deserialize_ciphertext(&old).unwrap_err(),
            CiphertextCodecError::BadMagic {
                expected: BGV_CT_MAGIC,
                got: 0xB6
            }
        );
        // A flag that is neither seeded nor not.
        let mut flag = plane;
        flag[C0_AT - 1] = 2;
        assert!(matches!(
            be.deserialize_ciphertext(&flag).unwrap_err(),
            CiphertextCodecError::Malformed(_)
        ));
    }

    #[test]
    fn packed_block_primitives_match_the_clear_reference() {
        // Differential oracle for the packed-batch layout: identical
        // pack / unpack pipelines on both backends, identical decrypted
        // slots at every step.
        let bgv = BgvBackend::tiny();
        let clear = ClearBackend::with_defaults();
        let stride = 3; // 2 blocks in tiny's 6 slots
        let inputs = [bits(&[true, false, true]), bits(&[false, true, true])];
        let b_packed = bgv.pack_blocks(
            &inputs
                .iter()
                .map(|v| bgv.encrypt_bits(v))
                .collect::<Vec<_>>(),
            stride,
            6,
        );
        let c_packed = clear.pack_blocks(
            &inputs
                .iter()
                .map(|v| clear.encrypt_bits(v))
                .collect::<Vec<_>>(),
            stride,
            6,
        );
        assert_eq!(bgv.decrypt(&b_packed), clear.decrypt(&c_packed));

        // Each block back out, whole and narrowed to 2 slots by the
        // unpack mask.
        for (index, input) in inputs.iter().enumerate() {
            for width in [3, 2] {
                let b = bgv.unpack_block(&b_packed, index, stride, width);
                let c = clear.unpack_block(&c_packed, index, stride, width);
                assert_eq!(bgv.decrypt(&b), clear.decrypt(&c), "block {index}");
                assert_eq!(clear.decrypt(&c), input.truncate(width), "width {width}");
            }
        }
    }

    #[test]
    fn packed_primitives_meter_the_semantic_contract() {
        let be = BgvBackend::tiny();
        let cts = vec![be.encrypt_bits(&bits(&[true, false])); 3];
        let before = be.meter().snapshot();
        let packed = be.pack_blocks(&cts, 2, 6);
        let delta = be.meter().snapshot().since(&before);
        assert_eq!((delta.rotate, delta.add), (2, 2));

        let before = be.meter().snapshot();
        let _ = be.unpack_block(&packed, 0, 2, 2);
        let _ = be.unpack_block(&packed, 2, 2, 2);
        let delta = be.meter().snapshot().since(&before);
        assert_eq!(delta.constant_multiply, 2);
        assert_eq!(delta.rotate, 1, "block 0 unpacks rotation-free");
    }

    #[test]
    fn plaintext_ring_products_are_the_per_term_products_bitwise() {
        // A sum of plaintext products accumulates in evaluation form
        // and is inverse-transformed once. The transform is linear and
        // exact, so its bits — noise estimate included — are those of
        // the per-term products of each rotation folded with `add`, at
        // every chunking.
        let be = BgvBackend::tiny();
        let v = be.encrypt_bits(&BitVec::from_fn(4, |i| i != 2));
        let shifts: Vec<usize> = (0..6).collect();
        let diagonals: Vec<Vec<MaybeEncrypted<BgvBackend>>> = (0..3)
            .map(|l| {
                (0..6)
                    .map(|r| {
                        let bits = BitVec::from_fn(5, |j| (j * (l + 1) + r) % 4 == 0);
                        MaybeEncrypted::Plain(be.encode(&bits))
                    })
                    .collect()
            })
            .collect();
        let terms: Vec<RingDiagonals<'_, BgvBackend>> = diagonals
            .iter()
            .enumerate()
            .map(|(l, ds)| {
                let kept = |(s, d)| (s % (l + 1) == 0).then_some(d);
                ds.iter().enumerate().map(kept).collect()
            })
            .collect();
        let scheme = be.scheme();
        for threads in [1, 2, 7] {
            let sums = be.ring_mat_vec(&v, &shifts, &terms, 5, threads);
            for (l, (sum, terms)) in sums.iter().zip(&terms).enumerate() {
                let want = terms
                    .iter()
                    .zip(&shifts)
                    .filter_map(|(d, &k)| match d {
                        Some(MaybeEncrypted::Plain(pt)) => {
                            let rotated = scheme.rotate_slots(&v.inner, k as isize);
                            Some(scheme.mul_plain_prepared(&rotated, &pt.prepared))
                        }
                        _ => None,
                    })
                    .reduce(|a, b| scheme.add(&a, &b))
                    .expect("every matrix keeps shift 0");
                let sum = sum.as_ref().expect("every matrix has terms");
                assert_eq!(sum.inner, want, "matrix {l} at {threads} threads");
            }
        }
    }

    #[test]
    fn seeded_zero_encryptions_are_bitwise_reproducible() {
        let be = BgvBackend::tiny();
        // Perturb the internal randomness counter between the draws:
        // a pre-split seed must not care.
        let a = be.encrypt_zeros_seeded(4, 0xFEED);
        let _ = be.encrypt_bits(&bits(&[true, false, true]));
        let b = be.encrypt_zeros_seeded(4, 0xFEED);
        assert_eq!(
            be.serialize_ciphertext(&a),
            be.serialize_ciphertext(&b),
            "equal (width, seed) gives bitwise-equal ciphertexts"
        );
        assert!(be.decrypt(&a).is_zero());
        let other = be.encrypt_zeros_seeded(4, 0xBEEF);
        assert_ne!(
            be.serialize_ciphertext(&a),
            be.serialize_ciphertext(&other),
            "different seeds draw different randomness"
        );
    }

    #[test]
    fn ciphertext_codec_rejects_foreign_and_truncated_bytes() {
        use crate::backend::CiphertextCodecError;
        let be = BgvBackend::tiny();
        let good = be.serialize_ciphertext(&be.encrypt_bits(&bits(&[true, false])));
        assert!(matches!(
            be.deserialize_ciphertext(&good[..good.len() - 1])
                .unwrap_err(),
            CiphertextCodecError::Truncated | CiphertextCodecError::Malformed(_)
        ));
        let clear = ClearBackend::with_defaults();
        let foreign = clear.serialize_ciphertext(&clear.encrypt_bits(&bits(&[true])));
        assert!(matches!(
            be.deserialize_ciphertext(&foreign).unwrap_err(),
            CiphertextCodecError::BadMagic { .. }
        ));
    }
}
