//! [`FheBackend`] implementation over the real BGV scheme.
//!
//! Logical vectors of `width <= nslots` are packed into the slot
//! structure with a **zero-padding invariant**: slots at or beyond the
//! logical width hold 0 for every ciphertext produced by this backend
//! (encode pads; XOR/AND preserve zeros; rotations and cyclic
//! extensions mask precisely). That invariant is what lets a
//! `rotate(k)` on a width-`w` vector be realised with two slot-level
//! automorphisms and two plaintext masks, and a cyclic extension with
//! one masked automorphism per repetition window.
//!
//! Operation metering is at the *semantic* level of the trait (one
//! `Rotate` per logical rotation, etc.); the extra automorphisms and
//! mask multiplications a real scheme pays appear in wall-clock time
//! and noise, which is exactly how HElib's costs exceed abstract op
//! counts. Differential tests drive this backend and
//! [`ClearBackend`](crate::ClearBackend) with identical circuits.
//!
//! The layout kernels (masked rotation, cyclic extension, block
//! packing and unpacking) are written once, generic over `SlotOps`:
//! this backend runs them on ciphertexts, and
//! [`AbstractBackend`](crate::AbstractBackend) runs the same code on
//! chain positions, which is how the static analyzer knows the level
//! every semantic operation leaves behind.

use crate::backend::{codec, CiphertextCodecError, FheBackend, NoiseBudget};
use crate::bgv::ring::RnsPoly;
use crate::bgv::scheme::{BgvParams, BgvScheme, Ciphertext, PreparedPlaintext};
use crate::bitvec::BitVec;
use crate::math::gf2poly::Gf2Poly;
use crate::meter::{FheOp, OpMeter};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Leading byte of serialised [`BgvCiphertext`]s.
const BGV_CT_MAGIC: u8 = 0xB6;

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
    inner: Ciphertext,
    width: usize,
}

impl BgvCiphertext {
    /// Logical slot width.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// A periodic slot range: slots `j*stride + [from, to)` of every block
/// `j < count` (a plain slot range is the one-block case
/// `(from, to, nslots, 1)`). The masks the layout kernels multiply by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Span {
    from: usize,
    to: usize,
    stride: usize,
    count: usize,
}

/// The three scheme operations the backend's slot-layout kernels are
/// built from. The backend implements them on ciphertexts and
/// [`LevelRule`](crate::bgv::LevelRule) on chain positions, so each
/// kernel below is written once and its level trajectory is read off
/// the code that runs it.
pub(crate) trait SlotOps {
    /// What the kernels move: a ciphertext, or its [`Level`](crate::bgv::Level).
    type Ct: Clone;
    /// Slot-level left rotation by `k` (full width), no masking.
    fn rotate_full(&self, a: &Self::Ct, k: isize) -> Self::Ct;
    /// Product with the (cached) 0/1 mask of `span`.
    fn mask(&self, a: &Self::Ct, span: Span) -> Self::Ct;
    /// Ciphertext addition.
    fn sum(&self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct;
}

/// A semantic rotation of a `width`-slot vector by `k`: free for a
/// zero shift, one automorphism at full width, a masked pair below it.
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
    rotate_in_blocks(ops, a, k, width, nslots, 1)
}

/// Rotates the first `width` slots of each of `count` blocks by `k`.
pub(crate) fn rotate_blocks<S: SlotOps>(
    ops: &S,
    a: &S::Ct,
    k: isize,
    width: usize,
    stride: usize,
    count: usize,
) -> S::Ct {
    let k = k.rem_euclid(width as isize) as usize;
    if k == 0 {
        return a.clone();
    }
    rotate_in_blocks(ops, a, k, width, stride, count)
}

/// Rotates each of `count` `stride`-spaced blocks of live width
/// `width` left by `k` within its own range (a plain vector is the one
/// block `(w, nslots, 1)`): out[i] = v[i+k] for i < width-k (from the
/// left-rotated copy), and out[i] = v[i+k-width] for width-k <= i <
/// width (from the right-rotated copy). The two full-ring
/// automorphisms are masked with one span per block, which preserves
/// zero padding and clears cross-block leakage.
fn rotate_in_blocks<S: SlotOps>(
    ops: &S,
    a: &S::Ct,
    k: usize,
    width: usize,
    stride: usize,
    count: usize,
) -> S::Ct {
    let span = |from, to| Span {
        from,
        to,
        stride,
        count,
    };
    let left = ops.rotate_full(a, k as isize);
    let right = ops.rotate_full(a, k as isize - width as isize);
    let t1 = ops.mask(&left, span(0, width - k));
    let t2 = ops.mask(&right, span(width - k, width));
    ops.sum(&t1, &t2)
}

/// Cyclically extends each block from `width` to `new_width` live
/// slots (unchanged when they are equal).
pub(crate) fn extend_blocks<S: SlotOps>(
    ops: &S,
    a: &S::Ct,
    width: usize,
    new_width: usize,
    stride: usize,
    count: usize,
) -> S::Ct {
    if new_width == width {
        return a.clone();
    }
    extend_in_blocks(ops, a, width, new_width, stride, count)
}

/// Cyclically extends each block from `width` to `new_width` live
/// slots: window j holds v[i - j*width] for i in
/// [j*width, min((j+1)*width, new_width)), one masked full-ring
/// automorphism per window for every block at once.
pub(crate) fn extend_in_blocks<S: SlotOps>(
    ops: &S,
    a: &S::Ct,
    width: usize,
    new_width: usize,
    stride: usize,
    count: usize,
) -> S::Ct {
    let mut acc: Option<S::Ct> = None;
    let mut start = 0usize;
    let mut j = 0isize;
    while start < new_width {
        let end = (start + width).min(new_width);
        let shifted = if j == 0 {
            a.clone()
        } else {
            ops.rotate_full(a, -j * width as isize)
        };
        // The j = 0 window needs no mask (already zero-padded and
        // end >= width). Later windows mask to their span.
        let term = if j == 0 && end >= width {
            shifted
        } else {
            let span = Span {
                from: start,
                to: end,
                stride,
                count,
            };
            ops.mask(&shifted, span)
        };
        acc = Some(match acc {
            None => term,
            Some(prev) => ops.sum(&prev, &term),
        });
        start = end;
        j += 1;
    }
    acc.expect("new_width > 0")
}

/// Packs `cts` into blocks `stride` apart: input `j` is rotated right
/// by `j * stride` and summed in. Inputs ride the zero-padding
/// invariant (fresh or masked ciphertexts, never relabel-truncated
/// ones), so the alignment rotations need no masks.
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
    nslots: usize,
) -> S::Ct {
    let shifted = if index == 0 {
        a.clone()
    } else {
        ops.rotate_full(a, (index * stride) as isize)
    };
    let span = Span {
        from: 0,
        to: width,
        stride: nslots,
        count: 1,
    };
    ops.mask(&shifted, span)
}

/// Cache of periodic per-block masks.
type MaskCache = HashMap<Span, Arc<BgvPlaintext>>;

/// The real-FHE backend.
#[derive(Debug)]
pub struct BgvBackend {
    scheme: BgvScheme,
    meter: Arc<OpMeter>,
    /// Periodic per-block masks keyed by `(from, to, stride, count)`:
    /// ones at `j*stride + [from, to)` for every block `j < count`. A
    /// plain slot range is the one-block case `(from, to, nslots, 1)`.
    /// Rotations, cyclic extensions and the packed mat-vec kernel use
    /// the same few masks on every call, so caching them turns each
    /// into a *warm* fixed operand whose evaluation-domain transform
    /// is paid exactly once per backend.
    masks: Mutex<MaskCache>,
}

impl BgvBackend {
    /// Generates keys and builds the backend.
    pub fn new(params: BgvParams) -> Self {
        Self::new_with_ntt(params, true)
    }

    /// [`BgvBackend::new`] with the ring's NTT fast path explicitly
    /// enabled or disabled (`false` forces the schoolbook oracle; keys
    /// and ciphertexts are identical either way).
    pub fn new_with_ntt(params: BgvParams, use_ntt: bool) -> Self {
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

    fn encode_mask(&self, span: Span) -> Arc<BgvPlaintext> {
        if let Some(mask) = self.masks.lock().unwrap().get(&span) {
            return mask.clone();
        }
        let Span {
            from,
            to,
            stride,
            count,
        } = span;
        let bits = BitVec::from_fn(self.nslots(), |i| {
            let offset = i % stride;
            i < count * stride && offset >= from && offset < to
        });
        let mask = Arc::new(self.encode(&bits));
        self.scheme.warm_prepared(&mask.prepared);
        self.masks
            .lock()
            .unwrap()
            .entry(span)
            .or_insert(mask)
            .clone()
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

    fn rotate_full(&self, a: &Ciphertext, k: isize) -> Ciphertext {
        self.scheme.rotate_slots(a, k)
    }

    fn mask(&self, a: &Ciphertext, span: Span) -> Ciphertext {
        self.scheme
            .mul_plain_prepared(a, &self.encode_mask(span).prepared)
    }

    fn sum(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.scheme.add(a, b)
    }
}

impl FheBackend for BgvBackend {
    type Plaintext = BgvPlaintext;
    type Ciphertext = BgvCiphertext;

    fn slot_capacity(&self) -> Option<usize> {
        // Via `try_slots` so capability probing (deploy-time
        // admission) never panics: the negacyclic flavor has no slot
        // structure, hence no packed capacity to report.
        self.scheme.try_slots().map(|s| s.nslots())
    }

    fn supports_slot_rotation(&self) -> bool {
        self.scheme.try_slots().is_some()
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

    fn set_kernel_threads(&self, threads: usize) {
        self.scheme.set_threads(threads);
    }

    fn kernel_threads(&self) -> usize {
        self.scheme.threads()
    }

    fn encrypt(&self, pt: &BgvPlaintext) -> BgvCiphertext {
        self.meter.record(FheOp::Encrypt);
        BgvCiphertext {
            inner: self.scheme.encrypt_poly(&pt.poly),
            width: pt.width,
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
        BgvCiphertext {
            inner: self.scheme.add(&a.inner, &b.inner),
            width: a.width,
        }
    }

    fn add_plain(&self, a: &BgvCiphertext, b: &BgvPlaintext) -> BgvCiphertext {
        assert_eq!(a.width, b.width, "width mismatch");
        self.meter.record(FheOp::ConstantAdd);
        BgvCiphertext {
            inner: self.scheme.add_plain(&a.inner, &b.poly),
            width: a.width,
        }
    }

    fn mul(&self, a: &BgvCiphertext, b: &BgvCiphertext) -> BgvCiphertext {
        assert_eq!(a.width, b.width, "width mismatch");
        self.meter.record(FheOp::Multiply);
        BgvCiphertext {
            inner: self.scheme.mul(&a.inner, &b.inner),
            width: a.width,
        }
    }

    fn mul_plain(&self, a: &BgvCiphertext, b: &BgvPlaintext) -> BgvCiphertext {
        assert_eq!(a.width, b.width, "width mismatch");
        self.meter.record(FheOp::ConstantMultiply);
        BgvCiphertext {
            inner: self.scheme.mul_plain_prepared(&a.inner, &b.prepared),
            width: a.width,
        }
    }

    fn rotate(&self, a: &BgvCiphertext, k: isize) -> BgvCiphertext {
        self.meter.record(FheOp::Rotate);
        BgvCiphertext {
            inner: rotate(self, &a.inner, k, a.width, self.nslots()),
            width: a.width,
        }
    }

    fn cyclic_extend(&self, a: &BgvCiphertext, width: usize) -> BgvCiphertext {
        assert!(width >= a.width, "cyclic_extend shrinks");
        self.check_width(width);
        let w = a.width;
        assert!(w > 0, "cannot extend an empty vector");
        BgvCiphertext {
            inner: extend_in_blocks(self, &a.inner, w, width, self.nslots(), 1),
            width,
        }
    }

    fn truncate(&self, a: &BgvCiphertext, width: usize) -> BgvCiphertext {
        assert!(width <= a.width, "truncate grows");
        // Slots in [width, old width) may stay populated; every
        // consumer masks or multiplies them away (see module docs).
        BgvCiphertext {
            inner: a.inner.clone(),
            width,
        }
    }

    fn encrypt_zeros_seeded(&self, width: usize, seed: u64) -> BgvCiphertext {
        self.check_width(width);
        self.meter.record(FheOp::Encrypt);
        BgvCiphertext {
            inner: self.scheme.encrypt_poly_seeded(&Gf2Poly::zero(), seed),
            width,
        }
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
        BgvCiphertext {
            inner: pack(self, cts.iter().map(|ct| &ct.inner), stride),
            width,
        }
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
        BgvCiphertext {
            inner: unpack(self, &ct.inner, index, stride, width, self.nslots()),
            width,
        }
    }

    fn rotate_blocks(
        &self,
        ct: &BgvCiphertext,
        k: isize,
        width: usize,
        stride: usize,
    ) -> BgvCiphertext {
        assert!(
            width <= stride,
            "block width {width} exceeds stride {stride}"
        );
        let count = ct.width / stride;
        assert_eq!(
            count * stride,
            ct.width,
            "packed width {} is not a whole number of stride-{stride} blocks",
            ct.width
        );
        self.meter.record(FheOp::Rotate);
        BgvCiphertext {
            inner: rotate_blocks(self, &ct.inner, k, width, stride, count),
            width: ct.width,
        }
    }

    fn cyclic_extend_blocks(
        &self,
        ct: &BgvCiphertext,
        width: usize,
        new_width: usize,
        stride: usize,
    ) -> BgvCiphertext {
        assert!(width <= new_width && new_width <= stride);
        assert!(width > 0, "cannot extend empty blocks");
        let count = ct.width / stride;
        assert_eq!(count * stride, ct.width);
        BgvCiphertext {
            inner: extend_blocks(self, &ct.inner, width, new_width, stride, count),
            width: ct.width,
        }
    }

    fn truncate_blocks(
        &self,
        ct: &BgvCiphertext,
        width: usize,
        new_width: usize,
        stride: usize,
    ) -> BgvCiphertext {
        assert!(new_width <= width && width <= stride);
        // Like `truncate`: a free relabel. Block slots in
        // `[new_width, width)` may stay populated; the packed mat-vec
        // kernel always multiplies the result by a tiled diagonal,
        // which masks them away.
        ct.clone()
    }

    fn mod_switch_to(&self, ct: &BgvCiphertext, primes: usize) -> BgvCiphertext {
        BgvCiphertext {
            inner: self.scheme.mod_switch_to(&ct.inner, primes),
            width: ct.width,
        }
    }

    fn compact_for_decrypt(&self, ct: &BgvCiphertext) -> BgvCiphertext {
        self.mod_switch_to(ct, 1)
    }

    fn serialize_ciphertext(&self, ct: &BgvCiphertext) -> Vec<u8> {
        let put_poly = |out: &mut Vec<u8>, poly: &RnsPoly| {
            out.extend_from_slice(&(poly.residues.len() as u32).to_le_bytes());
            for row in &poly.residues {
                for &coeff in row {
                    out.extend_from_slice(&coeff.to_le_bytes());
                }
            }
        };
        let phi = self.scheme.params().m as usize - 1;
        let level = ct.inner.c0.residues.len();
        let mut out = Vec::with_capacity(1 + 8 + 8 + 2 * (4 + level * phi * 8));
        out.push(BGV_CT_MAGIC);
        out.extend_from_slice(&(ct.width as u64).to_le_bytes());
        out.extend_from_slice(&ct.inner.noise.to_le_bytes());
        put_poly(&mut out, &ct.inner.c0);
        put_poly(&mut out, &ct.inner.c1);
        out
    }

    fn deserialize_ciphertext(&self, bytes: &[u8]) -> Result<BgvCiphertext, CiphertextCodecError> {
        let params = *self.scheme.params();
        let phi = params.m as usize - 1;
        let primes = self.scheme.ring().primes();
        let get_poly = |buf: &mut &[u8]| -> Result<RnsPoly, CiphertextCodecError> {
            let level = codec::get_u32(buf)? as usize;
            if level == 0 || level > params.chain_len {
                return Err(CiphertextCodecError::Malformed(
                    "level outside the modulus chain",
                ));
            }
            let mut residues = Vec::with_capacity(level);
            for &prime in &primes[..level] {
                let raw = codec::take(buf, phi * 8)?;
                let row: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
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
        let c0 = get_poly(&mut buf)?;
        let c1 = get_poly(&mut buf)?;
        if c0.residues.len() != c1.residues.len() {
            return Err(CiphertextCodecError::Malformed(
                "ciphertext halves at different levels",
            ));
        }
        codec::finish(buf)?;
        Ok(BgvCiphertext {
            inner: Ciphertext { c0, c1, noise },
            width,
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
    fn cyclic_extension_repeats_pattern() {
        let be = BgvBackend::tiny();
        let v = bits(&[true, false]);
        let ct = be.encrypt_bits(&v);
        let e = be.cyclic_extend(&ct, 5);
        assert_eq!(be.decrypt(&e), v.cyclic_extend(5));
    }

    #[test]
    fn truncate_then_multiply_is_safe() {
        // Truncation leaves stale slots; a following multiply against a
        // zero-padded operand must mask them out (the MatMul pattern).
        let be = BgvBackend::tiny();
        let v = bits(&[true, true, true, true, true]);
        let ct = be.encrypt_bits(&v);
        let t = be.truncate(&ct, 3);
        let d = be.encrypt_bits(&bits(&[true, false, true]));
        let prod = be.mul(&t, &d);
        assert_eq!(be.decrypt(&prod).to_bools(), [true, false, true]);
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

    #[test]
    fn ciphertext_codec_rejects_unreduced_residues() {
        use crate::backend::CiphertextCodecError;
        let be = BgvBackend::tiny();
        let mut raw = be.serialize_ciphertext(&be.encrypt_bits(&bits(&[true, false])));
        // First coefficient word of c0 sits right after magic (1) +
        // width (8) + noise (8) + level (4).
        let coeff_at = 1 + 8 + 8 + 4;
        raw[coeff_at..coeff_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            be.deserialize_ciphertext(&raw).unwrap_err(),
            CiphertextCodecError::Malformed("residue coefficient not reduced mod its chain prime")
        );
    }

    #[test]
    fn packed_block_primitives_match_the_clear_reference() {
        // Differential oracle for the packed-batch layout: identical
        // pack / rotate / extend / unpack pipelines on both backends,
        // identical decrypted slots at every step.
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

        for k in 0..3isize {
            let b = bgv.rotate_blocks(&b_packed, k, 3, stride);
            let c = clear.rotate_blocks(&c_packed, k, 3, stride);
            assert_eq!(bgv.decrypt(&b), clear.decrypt(&c), "rotate k = {k}");
        }

        // Truncate each block to 2 live slots: the BGV relabel keeps
        // stale slots, so compare through the mask of a following
        // unpack (the kernel's consumption pattern).
        let b_trunc = bgv.truncate_blocks(&b_packed, 3, 2, stride);
        let c_trunc = clear.truncate_blocks(&c_packed, 3, 2, stride);
        for index in 0..2 {
            let b = bgv.unpack_block(&b_trunc, index, stride, 2);
            let c = clear.unpack_block(&c_trunc, index, stride, 2);
            assert_eq!(bgv.decrypt(&b), clear.decrypt(&c), "block {index}");
        }

        // Cyclic block extension takes zero-padded blocks (in the
        // kernel its input is a masked block rotation or a stage
        // input, never a relabel-truncated ciphertext).
        let narrow = [bits(&[true, false]), bits(&[false, true])];
        let b_ext = bgv.cyclic_extend_blocks(
            &bgv.pack_blocks(
                &narrow
                    .iter()
                    .map(|v| bgv.encrypt_bits(v))
                    .collect::<Vec<_>>(),
                stride,
                6,
            ),
            2,
            3,
            stride,
        );
        let c_ext = clear.cyclic_extend_blocks(
            &clear.pack_blocks(
                &narrow
                    .iter()
                    .map(|v| clear.encrypt_bits(v))
                    .collect::<Vec<_>>(),
                stride,
                6,
            ),
            2,
            3,
            stride,
        );
        assert_eq!(bgv.decrypt(&b_ext), clear.decrypt(&c_ext));
        assert_eq!(
            clear.decrypt(&c_ext).to_bools(),
            [true, false, true, false, true, false],
            "each block's 2 live slots repeat cyclically to 3"
        );
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
        let _ = be.rotate_blocks(&packed, 1, 2, 2);
        assert_eq!(be.meter().snapshot().since(&before).rotate, 1);

        let before = be.meter().snapshot();
        let _ = be.cyclic_extend_blocks(&be.truncate_blocks(&packed, 2, 1, 2), 1, 2, 2);
        assert_eq!(
            be.meter().snapshot().since(&before).total_homomorphic(),
            0,
            "block extend/truncate are unmetered layout ops"
        );

        let before = be.meter().snapshot();
        let _ = be.unpack_block(&packed, 0, 2, 2);
        let _ = be.unpack_block(&packed, 2, 2, 2);
        let delta = be.meter().snapshot().since(&before);
        assert_eq!(delta.constant_multiply, 2);
        assert_eq!(delta.rotate, 1, "block 0 unpacks rotation-free");
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
