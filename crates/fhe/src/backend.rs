//! The packed-FHE backend abstraction.
//!
//! COPSE treats the cryptosystem as "an instruction set with semantics
//! that guarantee noninterference" (paper §1.1). [`FheBackend`] is that
//! instruction set: slot-wise XOR/AND over packed GF(2) vectors, slot
//! rotation, and encrypt/decrypt, plus the ring-form Halevi–Shoup
//! matrix product and the packed-batch block layout. Every operation
//! is recorded on the backend's [`OpMeter`] so circuits can be costed
//! op-for-op.
//!
//! Three implementations ship with this crate:
//!
//! * [`ClearBackend`](crate::ClearBackend) — exact semantics over
//!   plaintext bit vectors with multiplicative-depth tracking; the
//!   workhorse for tests and benchmarks.
//! * [`AbstractBackend`](crate::AbstractBackend) — no bits at all:
//!   widths, depth and BGV chain levels, so the static analyzer can
//!   run a circuit to read its cost.
//! * [`BgvBackend`](crate::BgvBackend) — a real (teaching-grade)
//!   leveled BGV scheme over a prime cyclotomic ring with GF(2) slot
//!   packing, for end-to-end encrypted runs.

use crate::bgv::LevelRule;
use crate::bitvec::BitVec;
use crate::meter::OpMeter;
use std::fmt::{self, Debug};

/// Errors from [`FheBackend::deserialize_ciphertext`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CiphertextCodecError {
    /// The buffer ended before the ciphertext did.
    Truncated,
    /// The leading magic byte named a different backend (or garbage).
    BadMagic {
        /// Magic byte this backend emits.
        expected: u8,
        /// Magic byte found.
        got: u8,
    },
    /// Structurally invalid contents (shape or range violation).
    Malformed(&'static str),
}

impl fmt::Display for CiphertextCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CiphertextCodecError::Truncated => write!(f, "ciphertext bytes truncated"),
            CiphertextCodecError::BadMagic { expected, got } => write!(
                f,
                "ciphertext magic {got:#04x} does not match backend magic {expected:#04x}"
            ),
            CiphertextCodecError::Malformed(what) => write!(f, "malformed ciphertext: {what}"),
        }
    }
}

impl std::error::Error for CiphertextCodecError {}

/// Typed errors from operations that a backend or ring flavor does
/// not support: serialising an abstract ciphertext, or slot rotation
/// on the negacyclic ring
/// ([`BgvScheme::try_rotate_slots`](crate::bgv::BgvScheme::try_rotate_slots)).
/// Panics carry them as their payload (`panic_any`), so a
/// `catch_unwind` boundary can downcast them back to values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The operation is not supported by this backend's parameters or
    /// ring flavor (e.g. slot rotation on the negacyclic power-of-two
    /// ring, which has no GF(2) slot structure).
    Unsupported {
        /// The operation that was requested.
        operation: &'static str,
        /// Why this backend cannot perform it.
        reason: &'static str,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unsupported { operation, reason } => {
                write!(f, "{operation} unsupported: {reason}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// What bounds the circuits a backend can evaluate
/// ([`FheBackend::noise_budget`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NoiseBudget {
    /// A multiplicative-depth limit: the clear backend's guard.
    Depth(u32),
    /// A BGV modulus chain and the rule its ciphertexts' levels
    /// follow: a circuit fits iff that rule, run over the circuit,
    /// needs no more primes than the chain holds.
    Chain(LevelRule),
}

/// A fully homomorphic encryption backend with GF(2) SIMD slots.
///
/// Semantics: a ciphertext encrypts a vector of bits ("slots").
/// [`add`](FheBackend::add) is slot-wise XOR, [`mul`](FheBackend::mul)
/// is slot-wise AND, [`rotate`](FheBackend::rotate) moves slot
/// `(i + k) mod width` into slot `i`.
///
/// # Panics
///
/// Implementations panic on slot-width mismatches between operands
/// (programming errors) and, for the clear backend, when an operation
/// would exceed its multiplicative-depth guard. Check a circuit
/// against [`FheBackend::noise_budget`] (`copse_core::analyze` does)
/// before evaluating it.
pub trait FheBackend: Send + Sync {
    /// Packed (encoded, unencrypted) plaintext vector.
    type Plaintext: Clone + Debug + Send + Sync;
    /// Packed ciphertext.
    type Ciphertext: Clone + Debug + Send + Sync;

    /// Maximum usable slots per ciphertext, if the scheme bounds it.
    fn slot_capacity(&self) -> Option<usize>;

    /// The meter recording every homomorphic operation.
    fn meter(&self) -> &OpMeter;

    /// What bounds the circuits this backend can evaluate: a
    /// multiplicative depth, or a modulus chain with its level rule.
    fn noise_budget(&self) -> NoiseBudget;

    /// Encodes a bit vector into a packed plaintext.
    fn encode(&self, bits: &BitVec) -> Self::Plaintext;

    /// Decodes a packed plaintext back to bits.
    fn decode(&self, pt: &Self::Plaintext) -> BitVec;

    /// Warms backend-side acceleration caches for a plaintext that
    /// will be multiplied repeatedly (the BGV backend forward-NTTs
    /// fixed operands such as model diagonals exactly once here, so no
    /// query pays for them). Semantically a no-op; the default does
    /// nothing.
    fn prepare_plaintext(&self, _pt: &Self::Plaintext) {}

    /// Warms backend-side key material for ciphertexts at up to
    /// `primes` chain primes (the BGV backend builds its switching keys
    /// at that level here, so no query pays for them; a key switch
    /// above it still builds deeper keys). Semantically a no-op; the
    /// default does nothing.
    fn prepare_levels(&self, _primes: usize) {}

    /// Sets the backend's *kernel-level* parallel degree: how many
    /// workers of the shared `copse-pool` runtime a single homomorphic
    /// operation may fork onto (the BGV backend parallelises per-prime
    /// residue rows and key-switch digit rows). Semantically a no-op —
    /// every ciphertext must be bitwise identical for every value, so
    /// `1` is always a valid implementation — and the default ignores
    /// the hint.
    fn set_kernel_threads(&self, _threads: usize) {}

    /// The backend's kernel-level parallel degree (1 when the backend
    /// has no internal parallelism).
    fn kernel_threads(&self) -> usize {
        1
    }

    /// Encrypts a packed plaintext. Records one `Encrypt`.
    fn encrypt(&self, pt: &Self::Plaintext) -> Self::Ciphertext;

    /// Decrypts a ciphertext. Records one `Decrypt`.
    fn decrypt(&self, ct: &Self::Ciphertext) -> BitVec;

    /// Number of valid slots in `ct`.
    fn width(&self, ct: &Self::Ciphertext) -> usize;

    /// Multiplicative depth consumed so far by `ct`.
    fn depth(&self, ct: &Self::Ciphertext) -> u32;

    /// Slot-wise XOR of two ciphertexts. Records one `Add`.
    fn add(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext;

    /// Slot-wise XOR with a plaintext. Records one `ConstantAdd`.
    fn add_plain(&self, a: &Self::Ciphertext, b: &Self::Plaintext) -> Self::Ciphertext;

    /// Slot-wise AND of two ciphertexts. Records one `Multiply`.
    fn mul(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext;

    /// Slot-wise AND with a plaintext. Records one `ConstantMultiply`.
    fn mul_plain(&self, a: &Self::Ciphertext, b: &Self::Plaintext) -> Self::Ciphertext;

    /// The sum (XOR) of the products (ANDs) `a_i ⊙ b_i` over `terms`,
    /// at least one, each multiplying a ciphertext by a model operand or
    /// by another ciphertext.
    ///
    /// Records what the fold of [`MaybeEncrypted::mul_into`] and
    /// [`add`](FheBackend::add) records — a `Multiply` or
    /// `ConstantMultiply` per term and an `Add` per term after the
    /// first — and has its depth: one past the deepest product's
    /// operands. The default is that fold. A leveled scheme sums the
    /// products before it finishes them instead: every term multiplied
    /// at the lowest level any of them meets at, so a sum that holds
    /// ciphertext products relinearises once, not once per product.
    fn product_sum(&self, terms: &[(&Self::Ciphertext, &MaybeEncrypted<Self>)]) -> Self::Ciphertext
    where
        Self: Sized,
    {
        terms
            .iter()
            .map(|(a, b)| b.mul_into(self, a))
            .reduce(|sum, product| self.add(&sum, &product))
            .expect("a sum of at least one product")
    }

    /// Rotates slots left by `k` (slot `i` receives slot `(i+k) mod w`).
    /// Records one `Rotate`.
    fn rotate(&self, a: &Self::Ciphertext, k: isize) -> Self::Ciphertext;

    /// Encrypts raw bits (encode + encrypt).
    fn encrypt_bits(&self, bits: &BitVec) -> Self::Ciphertext {
        self.encrypt(&self.encode(bits))
    }

    /// Encrypts raw bits as the data owner, who holds the secret key,
    /// at `primes` modulus-chain primes (the top of the chain for
    /// `None`): how a query plane is made. A leveled scheme encrypts
    /// symmetrically and directly at that level, so the plane carries
    /// a fresh encryption's noise and no modulus switch. Records one
    /// `Encrypt`. Backends without a chain ignore `primes` (the
    /// default encrypts as [`encrypt_bits`](FheBackend::encrypt_bits)).
    fn encrypt_query_bits(&self, bits: &BitVec, primes: Option<usize>) -> Self::Ciphertext {
        let _ = primes;
        self.encrypt_bits(bits)
    }

    /// Slot-wise NOT, implemented as XOR with the all-ones plaintext.
    /// Records one `ConstantAdd`.
    fn not(&self, a: &Self::Ciphertext) -> Self::Ciphertext {
        let ones = self.encode(&BitVec::ones(self.width(a)));
        self.add_plain(a, &ones)
    }

    /// A fresh encryption of the all-zero vector of `width` slots.
    fn encrypt_zeros(&self, width: usize) -> Self::Ciphertext {
        self.encrypt_bits(&BitVec::zeros(width))
    }

    /// A fresh encryption of the all-zero vector whose encryption
    /// randomness is drawn from `seed` instead of the backend's
    /// internal randomness stream. Records one `Encrypt`.
    ///
    /// Deterministic backends ignore the seed (the default forwards to
    /// [`encrypt_zeros`](FheBackend::encrypt_zeros)); randomized
    /// backends must return bitwise-identical ciphertexts for equal
    /// `(width, seed)` pairs regardless of what other encryptions run
    /// concurrently. This is the pre-split-seed discipline (the same
    /// one BGV key-switch keygen uses) that keeps the `mat_vec`
    /// all-skipped fallback deterministic under concurrent batches.
    fn encrypt_zeros_seeded(&self, width: usize, seed: u64) -> Self::Ciphertext {
        let _ = seed;
        self.encrypt_zeros(width)
    }

    // ------------------------------------------------------------------
    // Packed-batch (cross-query slot packing) primitives.
    //
    // A packed ciphertext lays `count` independent per-query operands
    // into disjoint slot *blocks*: block `j` occupies slots
    // `[j * stride, j * stride + width)`, the padding slots
    // `[j * stride + width, (j + 1) * stride)` are zero, and the
    // ciphertext's logical width is `count * stride`. A packed matrix
    // product is `ring_mat_vec` over tiled ring diagonals: there is no
    // per-block rotation. The evaluation planner packs only on a
    // backend with a slot bound; without one it takes the per-query
    // path, and `copse_core::matmul::EncodedMatrix::pack` panics.
    //
    // The metering contract (identical across backends, so static
    // analysis stays exact):
    //
    // * `pack_blocks` of `c` ciphertexts: `c - 1` `Rotate` + `c - 1`
    //   `Add`; depth is the max of the inputs.
    // * `unpack_block`: one `ConstantMultiply`, plus one `Rotate` when
    //   `index > 0`; depth + 1.
    // * `encode_tiled`: an unmetered layout operation.
    // * `tile_ciphertext`: `count - 1` `Rotate` + `count - 1` `Add`
    //   (it is a pack of clones).
    // * `ring_mat_vec`: records no op — it realises a width-`n` matrix
    //   product whose semantic ops its caller records (see the method).
    // ------------------------------------------------------------------

    /// Packs independent ciphertexts into disjoint slot blocks of one
    /// ciphertext: input `j` (width at most `stride`) lands in slots
    /// `[j * stride, j * stride + width_j)` of a `width`-slot result.
    ///
    /// See the packed-batch metering contract above.
    fn pack_blocks(
        &self,
        cts: &[Self::Ciphertext],
        stride: usize,
        width: usize,
    ) -> Self::Ciphertext;

    /// Extracts block `index` of a packed ciphertext: the result's
    /// slots `[0, width)` are the block's slots, everything else is
    /// zeroed by the (cached) slot-range mask. One `ConstantMultiply`
    /// plus a `Rotate` when `index > 0`; depth + 1.
    fn unpack_block(
        &self,
        ct: &Self::Ciphertext,
        index: usize,
        stride: usize,
        width: usize,
    ) -> Self::Ciphertext;

    /// Matrix products laid out on a ring of `N` slots — the backend's
    /// slot ring (`slot_capacity()`), or on a backend without one the
    /// width `n` of `v` — for a group of matrices that all multiply `v`
    /// (`n ≤ N`). For every matrix `l` the result is
    /// `Σ_s diagonals[l][s] ⊙ rot_N(v, shifts[s])` over the `s` where
    /// `diagonals[l][s]` is `Some`, `rows` slots wide (`None` when the
    /// matrix has no term at all); `rot_N` rotates all `N` slots left,
    /// so it is one automorphism, and each rotation is shared by every
    /// matrix with a term at its shift. A diagonal must be zero at
    /// every row `j` where `(j + shifts[s]) mod N ≥ n`: input slots at
    /// or beyond `n` are then never read, and no mask is needed. Depth
    /// is one more than the deepest operand, like
    /// [`mul`](FheBackend::mul).
    ///
    /// Contiguous chunks of `shifts` may run on up to `threads` workers
    /// of the shared pool; every chunking yields the same result, bit
    /// for bit.
    ///
    /// Records no op: the caller (`copse_core::matmul`) records the ops
    /// of the width-`n` product this realises, so a circuit meters the
    /// same on every backend.
    fn ring_mat_vec(
        &self,
        v: &Self::Ciphertext,
        shifts: &[usize],
        diagonals: &[RingDiagonals<'_, Self>],
        rows: usize,
        threads: usize,
    ) -> Vec<Option<Self::Ciphertext>>
    where
        Self: Sized;

    /// Encodes `count` copies of `bits` tiled at block offsets
    /// `0, stride, 2 * stride, …` into one `count * stride`-slot
    /// plaintext (the packed form of a model diagonal, threshold plane
    /// or mask). Unmetered, like [`encode`](FheBackend::encode).
    fn encode_tiled(&self, bits: &BitVec, stride: usize, count: usize) -> Self::Plaintext {
        let w = bits.width();
        assert!(
            w <= stride,
            "tiled operand width {w} exceeds block stride {stride}"
        );
        self.encode(&BitVec::from_fn(count * stride, |i| {
            let offset = i % stride;
            offset < w && bits.get(offset)
        }))
    }

    /// Tiles one ciphertext into every block of a packed ciphertext
    /// (the packed form of an *encrypted* model operand). Implemented
    /// as a pack of clones: `count - 1` `Rotate` + `count - 1` `Add`.
    fn tile_ciphertext(
        &self,
        ct: &Self::Ciphertext,
        stride: usize,
        count: usize,
    ) -> Self::Ciphertext {
        let copies = vec![ct.clone(); count];
        self.pack_blocks(&copies, stride, count * stride)
    }

    /// Switches `ct` down to `primes` modulus-chain primes: one keyless
    /// modulus switch per dropped prime on a leveled scheme, after
    /// which `ct` decrypts identically and stays a valid operand at the
    /// lower level. A ciphertext already at or below `primes` is
    /// returned unchanged, and so is every ciphertext of a backend
    /// without a chain (the default). Unmetered, like the switches a
    /// multiplication performs internally.
    fn mod_switch_to(&self, ct: &Self::Ciphertext, primes: usize) -> Self::Ciphertext {
        let _ = primes;
        ct.clone()
    }

    /// How a query plane enters a circuit at `primes` modulus-chain
    /// primes: switched down to them, as
    /// [`mod_switch_to`](FheBackend::mod_switch_to), and on a leveled
    /// scheme with its noise estimate raised to at least what a switch
    /// leaves. A plane made at `primes` and one made above them enter
    /// in one state, so the circuit's levels do not depend on where the
    /// data owner made its planes. Unmetered; the default switches.
    fn enter_circuit(&self, ct: &Self::Ciphertext, primes: usize) -> Self::Ciphertext {
        self.mod_switch_to(ct, primes)
    }

    /// A ciphertext that decrypts exactly like `ct` but is as small as
    /// the scheme can make it without the secret key, for results that
    /// are about to be shipped and only ever decrypted (leveled schemes
    /// drop the unused part of the modulus chain). It is no longer a
    /// useful operand for further homomorphic operations. The default
    /// is a plain clone.
    fn compact_for_decrypt(&self, ct: &Self::Ciphertext) -> Self::Ciphertext {
        ct.clone()
    }

    /// Serialises a ciphertext into a self-contained byte string for
    /// transport (see `copse-core::wire` and `copse-server`).
    ///
    /// The **serialization contract** every implementation upholds:
    ///
    /// * the encoding is backend-specific, and its *first byte* is a
    ///   backend magic so cross-backend confusion fails loudly at
    ///   decode time rather than evaluating garbage;
    /// * the bytes are self-contained given the backend's parameters —
    ///   no out-of-band framing or state is needed to decode;
    /// * `deserialize(serialize(ct))` on a backend with **identical
    ///   parameters** (for keyed backends: the same keys) yields a
    ///   ciphertext that decrypts identically *and* remains a valid
    ///   operand for further homomorphic operations;
    /// * serialisation is deterministic: bitwise-equal ciphertexts
    ///   serialise to bitwise-equal bytes (the property the
    ///   parallel-vs-sequential parity suites compare on).
    fn serialize_ciphertext(&self, ct: &Self::Ciphertext) -> Vec<u8>;

    /// Parses bytes produced by
    /// [`serialize_ciphertext`](FheBackend::serialize_ciphertext) on a
    /// backend with identical parameters.
    ///
    /// # Errors
    ///
    /// Rejects truncation, a foreign backend magic, and structurally
    /// invalid contents (shape or range violations — e.g. residues not
    /// reduced modulo their chain prime, widths exceeding the slot
    /// capacity, non-finite noise estimates). Decoders validate before
    /// constructing: a hostile frame must error, never produce a
    /// ciphertext that silently evaluates wrongly.
    fn deserialize_ciphertext(
        &self,
        bytes: &[u8],
    ) -> Result<Self::Ciphertext, CiphertextCodecError>;
}

/// Little-endian byte-stream helpers shared by the backend
/// ciphertext codecs.
pub(crate) mod codec {
    use super::CiphertextCodecError;

    pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CiphertextCodecError> {
        if buf.len() < n {
            return Err(CiphertextCodecError::Truncated);
        }
        let (head, tail) = buf.split_at(n);
        *buf = tail;
        Ok(head)
    }

    pub(crate) fn get_u32(buf: &mut &[u8]) -> Result<u32, CiphertextCodecError> {
        Ok(u32::from_le_bytes(take(buf, 4)?.try_into().unwrap()))
    }

    pub(crate) fn get_u64(buf: &mut &[u8]) -> Result<u64, CiphertextCodecError> {
        Ok(u64::from_le_bytes(take(buf, 8)?.try_into().unwrap()))
    }

    pub(crate) fn get_f64(buf: &mut &[u8]) -> Result<f64, CiphertextCodecError> {
        Ok(f64::from_le_bytes(take(buf, 8)?.try_into().unwrap()))
    }

    pub(crate) fn check_magic(buf: &mut &[u8], expected: u8) -> Result<(), CiphertextCodecError> {
        let got = take(buf, 1)?[0];
        if got != expected {
            return Err(CiphertextCodecError::BadMagic { expected, got });
        }
        Ok(())
    }

    pub(crate) fn finish(buf: &[u8]) -> Result<(), CiphertextCodecError> {
        if buf.is_empty() {
            Ok(())
        } else {
            Err(CiphertextCodecError::Malformed("trailing bytes"))
        }
    }
}

/// One matrix's diagonals in a [`FheBackend::ring_mat_vec`] product,
/// one entry per shift: `None` where the matrix has no term.
pub type RingDiagonals<'a, B> = Vec<Option<&'a MaybeEncrypted<B>>>;

/// A model-side operand that is either packed plaintext or a ciphertext.
///
/// COPSE supports both party configurations of paper §8.3: when Maurice
/// *is* the server, model artifacts stay in plaintext (cheaper constant
/// operations); when Maurice offloads, they are encrypted. Algorithm
/// code works over `MaybeEncrypted` and dispatches to the
/// plain/ciphertext variant of each primitive.
#[derive(Debug)]
pub enum MaybeEncrypted<B: FheBackend> {
    /// Model data visible to the evaluator.
    Plain(B::Plaintext),
    /// Model data encrypted under the data owner's key.
    Encrypted(B::Ciphertext),
}

impl<B: FheBackend> Clone for MaybeEncrypted<B> {
    fn clone(&self) -> Self {
        match self {
            MaybeEncrypted::Plain(p) => MaybeEncrypted::Plain(p.clone()),
            MaybeEncrypted::Encrypted(c) => MaybeEncrypted::Encrypted(c.clone()),
        }
    }
}

impl<B: FheBackend> MaybeEncrypted<B> {
    /// Multiplies a ciphertext by this operand.
    pub fn mul_into(&self, backend: &B, ct: &B::Ciphertext) -> B::Ciphertext {
        match self {
            MaybeEncrypted::Plain(p) => backend.mul_plain(ct, p),
            MaybeEncrypted::Encrypted(c) => backend.mul(ct, c),
        }
    }

    /// Adds (XORs) this operand into a ciphertext.
    pub fn add_into(&self, backend: &B, ct: &B::Ciphertext) -> B::Ciphertext {
        match self {
            MaybeEncrypted::Plain(p) => backend.add_plain(ct, p),
            MaybeEncrypted::Encrypted(c) => backend.add(ct, c),
        }
    }

    /// `true` if the operand is encrypted.
    pub fn is_encrypted(&self) -> bool {
        matches!(self, MaybeEncrypted::Encrypted(_))
    }
}
