//! The exact-semantics clear backend.
//!
//! [`ClearBackend`] evaluates packed GF(2) circuits directly over
//! [`BitVec`]s while faithfully modelling the *leveled* nature of BGV:
//! every ciphertext tracks the multiplicative depth it has consumed, and
//! exceeding the parameter budget aborts evaluation exactly where a real
//! scheme's noise would make decryption fail. All primitives are metered
//! with the paper's operation vocabulary.
//!
//! This backend is the reference oracle for the differential tests of
//! the real [`BgvBackend`](crate::BgvBackend) and the engine behind the
//! benchmark harness (wall-clock on it is proportional to slot work;
//! [`CostModel`](crate::CostModel) converts metered counts into modeled
//! FHE milliseconds).

use crate::backend::{codec, CiphertextCodecError, FheBackend, NoiseBudget};
use crate::bitvec::BitVec;
use crate::meter::{FheOp, OpMeter};
use crate::params::EncryptionParams;
use std::sync::Arc;

/// Leading byte of serialised [`ClearCiphertext`]s.
const CLEAR_CT_MAGIC: u8 = 0xC1;

/// Configuration for [`ClearBackend`].
#[derive(Clone, Copy, Debug)]
pub struct ClearConfig {
    /// Maximum multiplicative depth before evaluation aborts.
    pub max_depth: u32,
    /// Optional cap on slots per ciphertext (None = unbounded).
    pub slot_capacity: Option<usize>,
    /// Iterations of synthetic work per homomorphic operation.
    ///
    /// Real lattice operations cost the same regardless of how many
    /// slots are logically in use (the ring dimension is fixed), while
    /// the clear evaluator's natural cost scales with logical width.
    /// Setting this nonzero makes wall-clock proportional to the
    /// *operation count* — the faithful proxy for FHE time — which the
    /// benchmark harness uses when comparing systems that pack
    /// differently (COPSE vs the per-node baseline).
    pub work_per_op: usize,
}

impl ClearConfig {
    /// Derives a config from BGV encryption parameters: depth budget
    /// from the modulus chain, slots unbounded (the clear evaluator can
    /// model arbitrarily wide vectors; the Table 5 sweep checks slot
    /// feasibility separately).
    pub fn from_params(params: &EncryptionParams) -> Self {
        Self {
            max_depth: params.depth_budget(),
            slot_capacity: None,
            work_per_op: 0,
        }
    }
}

impl Default for ClearConfig {
    fn default() -> Self {
        Self::from_params(&EncryptionParams::paper_optimal())
    }
}

/// A "ciphertext" of the clear backend: the packed slots plus the
/// multiplicative depth consumed so far.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClearCiphertext {
    bits: BitVec,
    depth: u32,
}

impl ClearCiphertext {
    /// The packed slot contents (visible because this backend is clear).
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Multiplicative depth consumed by this ciphertext.
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

/// A packed plaintext of the clear backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClearPlaintext {
    bits: BitVec,
}

impl ClearPlaintext {
    /// The packed bits.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }
}

/// Exact-semantics packed GF(2) evaluator with depth tracking.
///
/// # Examples
///
/// ```
/// use copse_fhe::{BitVec, ClearBackend, FheBackend};
///
/// let be = ClearBackend::with_defaults();
/// let a = be.encrypt_bits(&BitVec::from_bools(&[true, false, true]));
/// let b = be.encrypt_bits(&BitVec::from_bools(&[true, true, false]));
/// let prod = be.mul(&a, &b); // slot-wise AND
/// assert_eq!(be.decrypt(&prod).to_bools(), vec![true, false, false]);
/// ```
#[derive(Debug)]
pub struct ClearBackend {
    config: ClearConfig,
    meter: Arc<OpMeter>,
}

impl ClearBackend {
    /// Creates a backend with the given configuration.
    pub fn new(config: ClearConfig) -> Self {
        Self {
            config,
            meter: Arc::new(OpMeter::new()),
        }
    }

    /// Creates a backend with the paper-optimal parameter budget.
    pub fn with_defaults() -> Self {
        Self::new(ClearConfig::default())
    }

    /// The backend configuration.
    pub fn config(&self) -> &ClearConfig {
        &self.config
    }

    fn check_capacity(&self, width: usize) {
        if let Some(cap) = self.config.slot_capacity {
            assert!(
                width <= cap,
                "packed width {width} exceeds slot capacity {cap}"
            );
        }
    }

    fn check_depth(&self, depth: u32) {
        assert!(
            depth <= self.config.max_depth,
            "multiplicative depth budget exhausted: need {depth}, parameters \
             support {} (increase modulus bits; see EncryptionParams)",
            self.config.max_depth
        );
    }

    /// Burns `work_per_op` iterations to emulate the fixed cost of a
    /// lattice operation (see [`ClearConfig::work_per_op`]).
    fn busy_work(&self) {
        let mut acc = 0u64;
        for i in 0..self.config.work_per_op as u64 {
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(acc);
    }
}

impl Default for ClearBackend {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl FheBackend for ClearBackend {
    type Plaintext = ClearPlaintext;
    type Ciphertext = ClearCiphertext;

    fn slot_capacity(&self) -> Option<usize> {
        self.config.slot_capacity
    }

    fn meter(&self) -> &OpMeter {
        &self.meter
    }

    fn noise_budget(&self) -> NoiseBudget {
        NoiseBudget::Depth(self.config.max_depth)
    }

    fn encode(&self, bits: &BitVec) -> ClearPlaintext {
        ClearPlaintext { bits: bits.clone() }
    }

    fn decode(&self, pt: &ClearPlaintext) -> BitVec {
        pt.bits.clone()
    }

    fn encrypt(&self, pt: &ClearPlaintext) -> ClearCiphertext {
        self.check_capacity(pt.bits.width());
        self.meter.record(FheOp::Encrypt);
        self.busy_work();
        ClearCiphertext {
            bits: pt.bits.clone(),
            depth: 0,
        }
    }

    fn decrypt(&self, ct: &ClearCiphertext) -> BitVec {
        self.meter.record(FheOp::Decrypt);
        self.busy_work();
        ct.bits.clone()
    }

    fn width(&self, ct: &ClearCiphertext) -> usize {
        ct.bits.width()
    }

    fn depth(&self, ct: &ClearCiphertext) -> u32 {
        ct.depth
    }

    fn add(&self, a: &ClearCiphertext, b: &ClearCiphertext) -> ClearCiphertext {
        self.meter.record(FheOp::Add);
        self.busy_work();
        ClearCiphertext {
            bits: a.bits.xor(&b.bits),
            depth: a.depth.max(b.depth),
        }
    }

    fn add_plain(&self, a: &ClearCiphertext, b: &ClearPlaintext) -> ClearCiphertext {
        self.meter.record(FheOp::ConstantAdd);
        self.busy_work();
        ClearCiphertext {
            bits: a.bits.xor(&b.bits),
            depth: a.depth,
        }
    }

    fn mul(&self, a: &ClearCiphertext, b: &ClearCiphertext) -> ClearCiphertext {
        self.meter.record(FheOp::Multiply);
        self.busy_work();
        let depth = a.depth.max(b.depth) + 1;
        self.check_depth(depth);
        ClearCiphertext {
            bits: a.bits.and(&b.bits),
            depth,
        }
    }

    fn mul_plain(&self, a: &ClearCiphertext, b: &ClearPlaintext) -> ClearCiphertext {
        self.meter.record(FheOp::ConstantMultiply);
        self.busy_work();
        let depth = a.depth + 1;
        self.check_depth(depth);
        ClearCiphertext {
            bits: a.bits.and(&b.bits),
            depth,
        }
    }

    fn rotate(&self, a: &ClearCiphertext, k: isize) -> ClearCiphertext {
        self.meter.record(FheOp::Rotate);
        self.busy_work();
        ClearCiphertext {
            bits: a.bits.rotate_left(k),
            depth: a.depth,
        }
    }

    fn cyclic_extend(&self, a: &ClearCiphertext, width: usize) -> ClearCiphertext {
        self.check_capacity(width);
        ClearCiphertext {
            bits: a.bits.cyclic_extend(width),
            depth: a.depth,
        }
    }

    fn truncate(&self, a: &ClearCiphertext, width: usize) -> ClearCiphertext {
        ClearCiphertext {
            bits: a.bits.truncate(width),
            depth: a.depth,
        }
    }

    fn pack_blocks(&self, cts: &[ClearCiphertext], stride: usize, width: usize) -> ClearCiphertext {
        assert!(!cts.is_empty(), "pack_blocks of zero ciphertexts");
        assert!(
            cts.len() * stride <= width,
            "{} blocks at stride {stride} exceed packed width {width}",
            cts.len()
        );
        self.check_capacity(width);
        let mut bits = BitVec::zeros(width);
        let mut depth = 0;
        for (j, ct) in cts.iter().enumerate() {
            assert!(
                ct.bits.width() <= stride,
                "block input width {} exceeds stride {stride}",
                ct.bits.width()
            );
            for i in 0..ct.bits.width() {
                if ct.bits.get(i) {
                    bits.set(j * stride + i, true);
                }
            }
            depth = depth.max(ct.depth);
        }
        // Metering contract: one rotate + one add per block beyond the
        // first (block 0 needs no alignment rotation).
        for _ in 1..cts.len() {
            self.meter.record(FheOp::Rotate);
            self.busy_work();
            self.meter.record(FheOp::Add);
            self.busy_work();
        }
        ClearCiphertext { bits, depth }
    }

    fn unpack_block(
        &self,
        ct: &ClearCiphertext,
        index: usize,
        stride: usize,
        width: usize,
    ) -> ClearCiphertext {
        assert!(
            (index * stride + width) <= ct.bits.width(),
            "block {index} at stride {stride} exceeds packed width {}",
            ct.bits.width()
        );
        if index > 0 {
            self.meter.record(FheOp::Rotate);
            self.busy_work();
        }
        // The slot-range mask multiply that isolates the block.
        self.meter.record(FheOp::ConstantMultiply);
        self.busy_work();
        let depth = ct.depth + 1;
        self.check_depth(depth);
        ClearCiphertext {
            bits: BitVec::from_fn(width, |i| ct.bits.get(index * stride + i)),
            depth,
        }
    }

    fn rotate_blocks(
        &self,
        ct: &ClearCiphertext,
        k: isize,
        width: usize,
        stride: usize,
    ) -> ClearCiphertext {
        assert!(
            width <= stride,
            "block width {width} exceeds stride {stride}"
        );
        assert!(
            ct.bits.width().is_multiple_of(stride.max(1)),
            "packed width {} is not a whole number of stride-{stride} blocks",
            ct.bits.width()
        );
        self.meter.record(FheOp::Rotate);
        self.busy_work();
        let shift = k.rem_euclid(width as isize) as usize;
        let bits = BitVec::from_fn(ct.bits.width(), |i| {
            let offset = i % stride;
            // Padding slots [width, stride) stay zero: the per-block
            // masks of a real scheme's composite rotation clear them.
            offset < width && ct.bits.get(i - offset + (offset + shift) % width)
        });
        ClearCiphertext {
            bits,
            depth: ct.depth,
        }
    }

    fn cyclic_extend_blocks(
        &self,
        ct: &ClearCiphertext,
        width: usize,
        new_width: usize,
        stride: usize,
    ) -> ClearCiphertext {
        assert!(width <= new_width && new_width <= stride);
        let bits = BitVec::from_fn(ct.bits.width(), |i| {
            let offset = i % stride;
            offset < new_width && ct.bits.get(i - offset + offset % width)
        });
        ClearCiphertext {
            bits,
            depth: ct.depth,
        }
    }

    fn truncate_blocks(
        &self,
        ct: &ClearCiphertext,
        width: usize,
        new_width: usize,
        stride: usize,
    ) -> ClearCiphertext {
        assert!(new_width <= width && width <= stride);
        let bits = BitVec::from_fn(ct.bits.width(), |i| {
            i % stride < new_width && ct.bits.get(i)
        });
        ClearCiphertext {
            bits,
            depth: ct.depth,
        }
    }

    fn serialize_ciphertext(&self, ct: &ClearCiphertext) -> Vec<u8> {
        let width = ct.bits.width();
        let mut out = Vec::with_capacity(1 + 4 + 8 + width.div_ceil(8));
        out.push(CLEAR_CT_MAGIC);
        out.extend_from_slice(&ct.depth.to_le_bytes());
        out.extend_from_slice(&(width as u64).to_le_bytes());
        let mut byte = 0u8;
        for i in 0..width {
            if ct.bits.get(i) {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                out.push(byte);
                byte = 0;
            }
        }
        if !width.is_multiple_of(8) {
            out.push(byte);
        }
        out
    }

    fn deserialize_ciphertext(
        &self,
        bytes: &[u8],
    ) -> Result<ClearCiphertext, CiphertextCodecError> {
        let mut buf = bytes;
        codec::check_magic(&mut buf, CLEAR_CT_MAGIC)?;
        let depth = codec::get_u32(&mut buf)?;
        if depth > self.config.max_depth {
            return Err(CiphertextCodecError::Malformed(
                "depth exceeds the backend's budget",
            ));
        }
        let width = codec::get_u64(&mut buf)? as usize;
        if let Some(cap) = self.config.slot_capacity {
            if width > cap {
                return Err(CiphertextCodecError::Malformed(
                    "width exceeds slot capacity",
                ));
            }
        }
        let packed = codec::take(&mut buf, width.div_ceil(8))?;
        codec::finish(buf)?;
        let bits = BitVec::from_fn(width, |i| packed[i / 8] >> (i % 8) & 1 == 1);
        Ok(ClearCiphertext { bits, depth })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(bits: &[bool]) -> BitVec {
        BitVec::from_bools(bits)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let be = ClearBackend::with_defaults();
        let v = bv(&[true, false, true, true]);
        let ct = be.encrypt_bits(&v);
        assert_eq!(be.decrypt(&ct), v);
        assert_eq!(be.width(&ct), 4);
        assert_eq!(be.depth(&ct), 0);
    }

    #[test]
    fn add_is_xor_mul_is_and() {
        let be = ClearBackend::with_defaults();
        let a = be.encrypt_bits(&bv(&[true, true, false]));
        let b = be.encrypt_bits(&bv(&[true, false, false]));
        assert_eq!(be.decrypt(&be.add(&a, &b)).to_bools(), [false, true, false]);
        assert_eq!(be.decrypt(&be.mul(&a, &b)).to_bools(), [true, false, false]);
    }

    #[test]
    fn depth_accumulates_through_multiplies() {
        let be = ClearBackend::with_defaults();
        let a = be.encrypt_bits(&bv(&[true]));
        let b = be.mul(&a, &a);
        let c = be.mul(&b, &b);
        assert_eq!(be.depth(&c), 2);
        let d = be.mul(&c, &a); // max(2,0)+1
        assert_eq!(be.depth(&d), 3);
        let e = be.add(&d, &a); // add does not deepen
        assert_eq!(be.depth(&e), 3);
    }

    #[test]
    #[should_panic(expected = "depth budget exhausted")]
    fn depth_budget_enforced() {
        let be = ClearBackend::new(ClearConfig {
            max_depth: 2,
            slot_capacity: None,
            work_per_op: 0,
        });
        let a = be.encrypt_bits(&bv(&[true]));
        let b = be.mul(&a, &a);
        let c = be.mul(&b, &b);
        let _ = be.mul(&c, &c); // depth 3 > budget 2
    }

    #[test]
    #[should_panic(expected = "slot capacity")]
    fn slot_capacity_enforced() {
        let be = ClearBackend::new(ClearConfig {
            max_depth: 10,
            slot_capacity: Some(4),
            work_per_op: 0,
        });
        let _ = be.encrypt_bits(&BitVec::zeros(5));
    }

    #[test]
    fn meter_records_each_primitive() {
        let be = ClearBackend::with_defaults();
        let a = be.encrypt_bits(&bv(&[true, false]));
        let b = be.encrypt_bits(&bv(&[false, true]));
        let p = be.encode(&bv(&[true, true]));
        let _ = be.add(&a, &b);
        let _ = be.add_plain(&a, &p);
        let _ = be.mul(&a, &b);
        let _ = be.mul_plain(&a, &p);
        let _ = be.rotate(&a, 1);
        let _ = be.decrypt(&a);
        let s = be.meter().snapshot();
        assert_eq!(s.encrypt, 2);
        assert_eq!(s.add, 1);
        assert_eq!(s.constant_add, 1);
        assert_eq!(s.multiply, 1);
        assert_eq!(s.constant_multiply, 1);
        assert_eq!(s.rotate, 1);
        assert_eq!(s.decrypt, 1);
    }

    #[test]
    fn not_flips_all_slots() {
        let be = ClearBackend::with_defaults();
        let a = be.encrypt_bits(&bv(&[true, false, true]));
        assert_eq!(be.decrypt(&be.not(&a)).to_bools(), [false, true, false]);
    }

    #[test]
    fn rotate_shifts_left() {
        let be = ClearBackend::with_defaults();
        let a = be.encrypt_bits(&bv(&[true, false, false, false]));
        let r = be.rotate(&a, 1);
        assert_eq!(be.decrypt(&r).to_bools(), [false, false, false, true]);
    }

    #[test]
    fn extend_and_truncate_are_unmetered_layout_ops() {
        let be = ClearBackend::with_defaults();
        let a = be.encrypt_bits(&bv(&[true, false]));
        let before = be.meter().snapshot();
        let e = be.cyclic_extend(&a, 5);
        let t = be.truncate(&e, 3);
        assert_eq!(be.width(&e), 5);
        assert_eq!(be.width(&t), 3);
        let delta = be.meter().snapshot().since(&before);
        assert_eq!(delta.total_homomorphic(), 0);
    }

    #[test]
    fn mul_plain_consumes_depth() {
        // The paper counts level processing (a constant-matrix multiply)
        // as one unit of multiplicative depth; the clear backend models
        // the same accounting.
        let be = ClearBackend::with_defaults();
        let a = be.encrypt_bits(&bv(&[true]));
        let p = be.encode(&bv(&[true]));
        assert_eq!(be.depth(&be.mul_plain(&a, &p)), 1);
    }

    #[test]
    fn ciphertext_codec_roundtrips_bits_and_depth() {
        let be = ClearBackend::with_defaults();
        for width in [1usize, 7, 8, 9, 63, 64, 65, 200] {
            let v = BitVec::from_fn(width, |i| i % 3 != 1);
            let ct = be.mul(&be.encrypt_bits(&v), &be.encrypt_bits(&BitVec::ones(width)));
            let back = be
                .deserialize_ciphertext(&be.serialize_ciphertext(&ct))
                .unwrap();
            assert_eq!(back, ct, "width {width}");
            assert_eq!(be.depth(&back), 1);
        }
    }

    #[test]
    fn ciphertext_codec_rejects_garbage() {
        use crate::backend::CiphertextCodecError;
        let be = ClearBackend::with_defaults();
        let good = be.serialize_ciphertext(&be.encrypt_bits(&bv(&[true, false, true])));
        for cut in 0..good.len() {
            let err = be.deserialize_ciphertext(&good[..cut]).unwrap_err();
            assert!(
                matches!(err, CiphertextCodecError::Truncated),
                "cut {cut}: {err:?}"
            );
        }
        let mut wrong_magic = good.clone();
        wrong_magic[0] = 0x77;
        assert!(matches!(
            be.deserialize_ciphertext(&wrong_magic).unwrap_err(),
            CiphertextCodecError::BadMagic { got: 0x77, .. }
        ));
        let mut trailing = good;
        trailing.push(0);
        assert!(matches!(
            be.deserialize_ciphertext(&trailing).unwrap_err(),
            CiphertextCodecError::Malformed(_)
        ));
    }

    #[test]
    fn pack_unpack_blocks_roundtrip_with_contract_metering() {
        let be = ClearBackend::new(ClearConfig {
            max_depth: 10,
            slot_capacity: Some(16),
            work_per_op: 0,
        });
        let a = be.encrypt_bits(&bv(&[true, false, true]));
        let b = be.encrypt_bits(&bv(&[false, true])); // narrower than stride
        let c = be.encrypt_bits(&bv(&[true, true, false]));
        let before = be.meter().snapshot();
        let packed = be.pack_blocks(&[a.clone(), b.clone(), c.clone()], 4, 12);
        let delta = be.meter().snapshot().since(&before);
        assert_eq!((delta.rotate, delta.add), (2, 2), "c-1 rotates, c-1 adds");
        assert_eq!(
            be.decrypt(&packed).to_bools(),
            [
                true, false, true, false, // block 0 + padding
                false, true, false, false, // block 1, zero-extended
                true, true, false, false, // block 2 + padding
            ]
        );
        let before = be.meter().snapshot();
        for (original, index) in [&a, &c].into_iter().zip([0usize, 2]) {
            let block = be.unpack_block(&packed, index, 4, 3);
            assert_eq!(be.decrypt(&block), be.decrypt(original));
            assert_eq!(be.depth(&block), 1, "the mask multiply deepens by one");
        }
        let delta = be.meter().snapshot().since(&before);
        assert_eq!(delta.constant_multiply, 2);
        assert_eq!(delta.rotate, 1, "block 0 unpacks without a rotation");
    }

    #[test]
    fn rotate_blocks_rotates_every_block_and_keeps_padding_zero() {
        let be = ClearBackend::with_defaults();
        let packed = be.pack_blocks(
            &[
                be.encrypt_bits(&bv(&[true, false, false])),
                be.encrypt_bits(&bv(&[false, true, false])),
            ],
            4,
            8,
        );
        let before = be.meter().snapshot();
        let rotated = be.rotate_blocks(&packed, 1, 3, 4);
        assert_eq!(be.meter().snapshot().since(&before).rotate, 1);
        assert_eq!(
            be.decrypt(&rotated).to_bools(),
            [false, false, true, false, true, false, false, false],
            "each block rotates left by 1 within its 3 live slots"
        );
    }

    #[test]
    fn block_extend_and_truncate_are_unmetered_and_blockwise() {
        let be = ClearBackend::with_defaults();
        let packed = be.pack_blocks(
            &[
                be.encrypt_bits(&bv(&[true, false])),
                be.encrypt_bits(&bv(&[false, true])),
            ],
            5,
            10,
        );
        let before = be.meter().snapshot();
        let extended = be.cyclic_extend_blocks(&packed, 2, 5, 5);
        assert_eq!(
            be.decrypt(&extended).to_bools(),
            [true, false, true, false, true, false, true, false, true, false],
            "each block's 2 live slots repeat cyclically to 5"
        );
        let truncated = be.truncate_blocks(&extended, 5, 1, 5);
        assert_eq!(
            be.decrypt(&truncated).to_bools(),
            [true, false, false, false, false, false, false, false, false, false]
        );
        let delta = be.meter().snapshot().since(&before);
        assert_eq!(delta.total_homomorphic(), 0);
    }

    #[test]
    fn tiled_encoding_repeats_the_operand_at_block_offsets() {
        let be = ClearBackend::with_defaults();
        let tiled = be.encode_tiled(&bv(&[true, false, true]), 4, 2);
        assert_eq!(
            be.decode(&tiled).to_bools(),
            [true, false, true, false, true, false, true, false]
        );
        let ct = be.encrypt_bits(&bv(&[true, true]));
        let before = be.meter().snapshot();
        let tiled_ct = be.tile_ciphertext(&ct, 3, 3);
        let delta = be.meter().snapshot().since(&before);
        assert_eq!((delta.rotate, delta.add), (2, 2));
        assert_eq!(
            be.decrypt(&tiled_ct).to_bools(),
            [true, true, false, true, true, false, true, true, false]
        );
    }

    #[test]
    fn seeded_zero_encryptions_are_deterministic() {
        let be = ClearBackend::with_defaults();
        let a = be.encrypt_zeros_seeded(6, 1);
        let b = be.encrypt_zeros_seeded(6, 2);
        assert_eq!(
            be.serialize_ciphertext(&a),
            be.serialize_ciphertext(&b),
            "the clear backend is deterministic regardless of seed"
        );
        assert!(be.decrypt(&a).is_zero());
    }

    #[test]
    fn from_params_inherits_depth_budget() {
        let params = EncryptionParams::paper_optimal();
        let be = ClearBackend::new(ClearConfig::from_params(&params));
        assert_eq!(be.noise_budget(), NoiseBudget::Depth(params.depth_budget()));
    }
}
