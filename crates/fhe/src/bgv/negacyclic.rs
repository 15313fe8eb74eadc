//! [`FheBackend`] implementation over the **negacyclic power-of-two**
//! BGV flavor.
//!
//! The ring `Z_q[X]/(X^n + 1)` halves every NTT relative to the prime
//! cyclotomic flavor (size exactly `n` instead of
//! `next_pow2(2m − 1)`), but `2` ramifies completely in power-of-two
//! cyclotomics — `X^n + 1 ≡ (X + 1)^n (mod 2)` — so the plaintext
//! space `R_2` has **no CRT slot structure** and slot-wise AND cannot
//! be a single ring multiplication. This backend therefore uses its
//! own plaintext encoding: a logical width-`w` vector is a vector of
//! `w` *scalar* ciphertexts, each encrypting one bit in coefficient 0
//! of the power-of-two ring. That mirrors the bitwise style of Tueno
//! et al.'s non-interactive decision-tree evaluation (one ciphertext
//! per comparison bit) rather than the paper's packed HElib style.
//!
//! Consequences of the encoding:
//!
//! * `add`/`mul` map slot-by-slot onto genuine BGV ring operations
//!   (XOR is ring addition, AND is a tensor + relinearisation key
//!   switch — all running on size-`n` `ψ`-twisted transforms);
//! * `rotate`, `cyclic_extend` and `truncate` are **free** vector
//!   shuffles — no Galois automorphisms, no rotation keys, no masking
//!   multiplies (keygen skips rotation keys entirely) — and
//!   `mul_plain`/`add_plain` are free too: per slot the plaintext is
//!   the public constant 0 or 1, whose products (identity /
//!   transparent zero) and sums have closed forms;
//! * there is no packing: `slot_capacity` is `None` and the work per
//!   logical operation scales with the width. The flavor trades SIMD
//!   parallelism for transform length; which wins depends on the
//!   workload shape (see `docs/PARAMETERS.md`).
//!
//! Differential tests drive this backend and
//! [`ClearBackend`](crate::ClearBackend) with identical circuits, and
//! `tests/negacyclic_end_to_end.rs` proves `Sally::classify` parity
//! over a real compiled forest.

use crate::backend::{codec, CiphertextCodecError, FheBackend, NoiseBudget};
use crate::bgv::ring::RnsPoly;
use crate::bgv::scheme::{BgvParams, BgvScheme, Ciphertext};
use crate::bitvec::BitVec;
use crate::math::gf2poly::Gf2Poly;
use crate::meter::{FheOp, OpMeter};

/// Leading byte of serialised [`NegacyclicCiphertext`]s.
const NEGA_CT_MAGIC: u8 = 0xB7;

/// A packed plaintext: the logical bit vector, kept as bits — each
/// slot lowers to the constant polynomial `0` or `1` on use.
#[derive(Clone, Debug)]
pub struct NegacyclicPlaintext {
    bits: BitVec,
}

/// A logical vector of bits as one scalar BGV ciphertext per slot.
#[derive(Clone, Debug)]
pub struct NegacyclicCiphertext {
    slots: Vec<Ciphertext>,
}

impl NegacyclicCiphertext {
    /// Logical slot width (number of per-bit ciphertexts).
    pub fn width(&self) -> usize {
        self.slots.len()
    }
}

/// The power-of-two-ring FHE backend (one scalar ciphertext per bit).
#[derive(Debug)]
pub struct NegacyclicBackend {
    scheme: BgvScheme,
    meter: OpMeter,
}

impl NegacyclicBackend {
    /// Generates keys and builds the backend.
    ///
    /// # Panics
    ///
    /// Panics unless `params.m` is a power of two (`>= 4`) — this
    /// backend exists for the negacyclic flavor; use
    /// [`BgvBackend`](crate::BgvBackend) for odd prime indices.
    pub fn new(params: BgvParams) -> Self {
        Self::new_with_ntt(params, true)
    }

    /// [`NegacyclicBackend::new`] with the ring's `ψ`-twisted NTT fast
    /// path explicitly enabled or disabled (`false` forces the
    /// negacyclic schoolbook oracle; keys and ciphertexts are
    /// identical either way).
    pub fn new_with_ntt(params: BgvParams, use_ntt: bool) -> Self {
        assert!(
            params.is_negacyclic(),
            "NegacyclicBackend requires a power-of-two cyclotomic index; \
             m = {} selects the prime flavor (use BgvBackend)",
            params.m
        );
        Self {
            scheme: BgvScheme::keygen_with_ntt(params, use_ntt),
            meter: OpMeter::new(),
        }
    }

    /// Small test instance (`m = 32`: ring degree 16).
    pub fn tiny() -> Self {
        Self::new(BgvParams::negacyclic_tiny())
    }

    /// Demo instance (`m = 256`: ring degree 128, size-128 transforms
    /// — half the prime demo flavor's 256-point padded transforms).
    pub fn demo() -> Self {
        Self::new(BgvParams::negacyclic_demo())
    }

    /// The underlying scheme (params, ring, noise readouts).
    pub fn scheme(&self) -> &BgvScheme {
        &self.scheme
    }

    /// Lowers one logical bit to its constant plaintext polynomial.
    fn bit_poly(bit: bool) -> Gf2Poly {
        if bit {
            Gf2Poly::one()
        } else {
            Gf2Poly::zero()
        }
    }

    fn check_same_width(a: &NegacyclicCiphertext, b: usize) {
        assert_eq!(a.slots.len(), b, "width mismatch");
    }
}

impl FheBackend for NegacyclicBackend {
    type Plaintext = NegacyclicPlaintext;
    type Ciphertext = NegacyclicCiphertext;

    fn slot_capacity(&self) -> Option<usize> {
        // One scalar ciphertext per bit: logical width is unbounded by
        // the ring (work scales with width instead).
        None
    }

    fn meter(&self) -> &OpMeter {
        &self.meter
    }

    fn noise_budget(&self) -> NoiseBudget {
        // The level rule models the slotted backend's kernels, not
        // this one's per-bit layout; a multiply consumes one or two
        // chain primes depending on operand noise.
        NoiseBudget::Depth((self.scheme.params().chain_len as u32).saturating_sub(1) / 2)
    }

    fn encode(&self, bits: &BitVec) -> NegacyclicPlaintext {
        NegacyclicPlaintext { bits: bits.clone() }
    }

    fn decode(&self, pt: &NegacyclicPlaintext) -> BitVec {
        pt.bits.clone()
    }

    fn prepare_plaintext(&self, _pt: &NegacyclicPlaintext) {
        // Plaintext operands never reach the ring in this encoding:
        // per slot they are the public constants 0 and 1, for which
        // both multiplication and addition have closed forms — there
        // is no transform to warm.
    }

    fn set_kernel_threads(&self, threads: usize) {
        self.scheme.set_threads(threads);
    }

    fn kernel_threads(&self) -> usize {
        self.scheme.threads()
    }

    fn encrypt(&self, pt: &NegacyclicPlaintext) -> NegacyclicCiphertext {
        self.meter.record(FheOp::Encrypt);
        NegacyclicCiphertext {
            slots: (0..pt.bits.width())
                .map(|i| self.scheme.encrypt_poly(&Self::bit_poly(pt.bits.get(i))))
                .collect(),
        }
    }

    fn encrypt_zeros_seeded(&self, width: usize, seed: u64) -> NegacyclicCiphertext {
        self.meter.record(FheOp::Encrypt);
        NegacyclicCiphertext {
            // One pre-split sub-seed per scalar slot ciphertext, so a
            // seeded zero vector is reproducible independent of the
            // scheme's internal randomness counter.
            slots: (0..width)
                .map(|i| {
                    let sub = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    self.scheme.encrypt_poly_seeded(&Gf2Poly::zero(), sub)
                })
                .collect(),
        }
    }

    fn decrypt(&self, ct: &NegacyclicCiphertext) -> BitVec {
        self.meter.record(FheOp::Decrypt);
        let bits: Vec<bool> = ct
            .slots
            .iter()
            .map(|slot| self.scheme.decrypt_poly(slot).coeff(0))
            .collect();
        BitVec::from_bools(&bits)
    }

    fn width(&self, ct: &NegacyclicCiphertext) -> usize {
        ct.slots.len()
    }

    fn depth(&self, ct: &NegacyclicCiphertext) -> u32 {
        let chain = self.scheme.params().chain_len;
        ct.slots
            .iter()
            .map(|slot| (chain - self.scheme.level(slot)) as u32)
            .max()
            .unwrap_or(0)
    }

    fn add(&self, a: &NegacyclicCiphertext, b: &NegacyclicCiphertext) -> NegacyclicCiphertext {
        Self::check_same_width(a, b.slots.len());
        self.meter.record(FheOp::Add);
        NegacyclicCiphertext {
            slots: a
                .slots
                .iter()
                .zip(&b.slots)
                .map(|(x, y)| self.scheme.add(x, y))
                .collect(),
        }
    }

    fn add_plain(&self, a: &NegacyclicCiphertext, b: &NegacyclicPlaintext) -> NegacyclicCiphertext {
        Self::check_same_width(a, b.bits.width());
        self.meter.record(FheOp::ConstantAdd);
        NegacyclicCiphertext {
            slots: a
                .slots
                .iter()
                .enumerate()
                .map(|(i, slot)| {
                    if b.bits.get(i) {
                        self.scheme.add_plain(slot, &Gf2Poly::one())
                    } else {
                        slot.clone()
                    }
                })
                .collect(),
        }
    }

    fn mul(&self, a: &NegacyclicCiphertext, b: &NegacyclicCiphertext) -> NegacyclicCiphertext {
        Self::check_same_width(a, b.slots.len());
        self.meter.record(FheOp::Multiply);
        NegacyclicCiphertext {
            slots: a
                .slots
                .iter()
                .zip(&b.slots)
                .map(|(x, y)| self.scheme.mul(x, y))
                .collect(),
        }
    }

    fn mul_plain(&self, a: &NegacyclicCiphertext, b: &NegacyclicPlaintext) -> NegacyclicCiphertext {
        Self::check_same_width(a, b.bits.width());
        self.meter.record(FheOp::ConstantMultiply);
        // Per slot the plaintext operand is the public constant 0 or
        // 1, and multiplying by either has a closed form: by 1 is the
        // identity on the ciphertext (the ring product `c * 1 = c`
        // exactly, adding no noise), by 0 is the transparent zero
        // ciphertext at the slot's level. Running the full
        // transform-multiply-inverse pipeline here would spend ~6
        // size-n NTTs per slot recomputing those bit-identical
        // results, so masking — the only plaintext multiplication
        // this encoding ever performs — is free, like the other
        // layout operations.
        NegacyclicCiphertext {
            slots: a
                .slots
                .iter()
                .enumerate()
                .map(|(i, slot)| {
                    if b.bits.get(i) {
                        slot.clone()
                    } else {
                        self.scheme.transparent_zero(self.scheme.level(slot))
                    }
                })
                .collect(),
        }
    }

    fn rotate(&self, a: &NegacyclicCiphertext, k: isize) -> NegacyclicCiphertext {
        self.meter.record(FheOp::Rotate);
        let w = a.slots.len();
        if w == 0 {
            return a.clone();
        }
        let k = k.rem_euclid(w as isize) as usize;
        // Slot i receives slot (i + k) mod w: a pure vector shuffle in
        // this encoding — no automorphism, no key switch, no masks.
        let mut slots = a.slots.clone();
        slots.rotate_left(k);
        NegacyclicCiphertext { slots }
    }

    fn cyclic_extend(&self, a: &NegacyclicCiphertext, width: usize) -> NegacyclicCiphertext {
        assert!(width >= a.slots.len(), "cyclic_extend shrinks");
        let w = a.slots.len();
        assert!(w > 0, "cannot extend an empty vector");
        NegacyclicCiphertext {
            slots: (0..width).map(|i| a.slots[i % w].clone()).collect(),
        }
    }

    fn truncate(&self, a: &NegacyclicCiphertext, width: usize) -> NegacyclicCiphertext {
        assert!(width <= a.slots.len(), "truncate grows");
        NegacyclicCiphertext {
            slots: a.slots[..width].to_vec(),
        }
    }

    fn serialize_ciphertext(&self, ct: &NegacyclicCiphertext) -> Vec<u8> {
        let phi = self.scheme.ring().phi();
        let put_poly = |out: &mut Vec<u8>, poly: &RnsPoly| {
            out.extend_from_slice(&(poly.residues.len() as u32).to_le_bytes());
            for row in &poly.residues {
                for &coeff in row {
                    out.extend_from_slice(&coeff.to_le_bytes());
                }
            }
        };
        let mut out = Vec::with_capacity(1 + 8 + ct.slots.len() * (8 + 2 * (4 + phi * 8)));
        out.push(NEGA_CT_MAGIC);
        out.extend_from_slice(&(ct.slots.len() as u64).to_le_bytes());
        for slot in &ct.slots {
            out.extend_from_slice(&slot.noise.to_le_bytes());
            put_poly(&mut out, &slot.c0);
            put_poly(&mut out, &slot.c1);
        }
        out
    }

    fn deserialize_ciphertext(
        &self,
        bytes: &[u8],
    ) -> Result<NegacyclicCiphertext, CiphertextCodecError> {
        let params = *self.scheme.params();
        let phi = self.scheme.ring().phi();
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
        codec::check_magic(&mut buf, NEGA_CT_MAGIC)?;
        let width = codec::get_u64(&mut buf)? as usize;
        // Every serialised slot occupies at least noise (8) plus two
        // level-1 polynomials (4 + phi * 8 each); bound the width by
        // what the frame could actually hold so a hostile header
        // cannot demand an absurd up-front allocation — the
        // `Vec::with_capacity` below reserves ~56 bytes per claimed
        // slot before the first slot read would fail.
        let min_slot_bytes = 8 + 2 * (4 + phi * 8);
        if width > bytes.len() / min_slot_bytes {
            return Err(CiphertextCodecError::Malformed("width exceeds frame size"));
        }
        let mut slots = Vec::with_capacity(width);
        for _ in 0..width {
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
            slots.push(Ciphertext { c0, c1, noise });
        }
        codec::finish(buf)?;
        Ok(NegacyclicCiphertext { slots })
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
    fn roundtrip_add_mul_match_clear_semantics() {
        let be = NegacyclicBackend::tiny();
        let a = bits(&[true, true, false, false, true]);
        let b = bits(&[true, false, true, false, true]);
        let (ca, cb) = (be.encrypt_bits(&a), be.encrypt_bits(&b));
        assert_eq!(be.decrypt(&ca), a);
        assert_eq!(be.decrypt(&be.add(&ca, &cb)), a.xor(&b));
        assert_eq!(be.decrypt(&be.mul(&ca, &cb)), a.and(&b));
        assert_eq!(be.decrypt(&be.not(&ca)), a.not());
    }

    #[test]
    fn plain_operands_match_clear_semantics() {
        let be = NegacyclicBackend::tiny();
        let a = bits(&[true, false, true, true]);
        let mask = bits(&[true, true, false, true]);
        let ct = be.encrypt_bits(&a);
        let pt = be.encode(&mask);
        assert_eq!(be.decrypt(&be.add_plain(&ct, &pt)), a.xor(&mask));
        assert_eq!(be.decrypt(&be.mul_plain(&ct, &pt)), a.and(&mask));
    }

    #[test]
    fn rotate_extend_truncate_are_layout_shuffles() {
        let be = NegacyclicBackend::tiny();
        let v = bits(&[true, false, false, true]);
        let ct = be.encrypt_bits(&v);
        for k in -3isize..=5 {
            assert_eq!(be.decrypt(&be.rotate(&ct, k)), v.rotate_left(k), "k = {k}");
        }
        let ((e, masked), scope) = crate::OpMeter::measure(|| {
            (
                be.cyclic_extend(&be.rotate(&ct, 1), 7),
                be.mul_plain(&ct, &be.encode(&bits(&[true, false, true, false]))),
            )
        });
        // Layout operations — and constant-0/1 masking — never touch
        // the ring in this encoding.
        assert_eq!(scope.transforms().total(), 0);
        assert_eq!(be.decrypt(&e), v.rotate_left(1).cyclic_extend(7));
        assert_eq!(be.decrypt(&be.truncate(&ct, 2)), v.truncate(2));
        assert_eq!(be.decrypt(&masked).to_bools(), [true, false, false, false]);
    }

    #[test]
    fn depth_tracks_the_most_switched_slot() {
        let be = NegacyclicBackend::tiny();
        let v = bits(&[true, true]);
        let fresh = be.encrypt_bits(&v);
        assert_eq!(be.depth(&fresh), 0);
        let deep = be.mul(&fresh, &fresh);
        assert!(be.depth(&deep) > 0);
    }

    #[test]
    fn differential_random_circuits_vs_clear_backend() {
        let nega = NegacyclicBackend::tiny();
        let clear = ClearBackend::with_defaults();
        let mut rng = SmallRng::seed_from_u64(77);
        let width = 5;
        for round in 0..3 {
            let inputs: Vec<BitVec> = (0..3)
                .map(|_| BitVec::from_fn(width, |_| rng.gen_bool(0.5)))
                .collect();
            let mut n_cts: Vec<NegacyclicCiphertext> =
                inputs.iter().map(|v| nega.encrypt_bits(v)).collect();
            let mut c_cts: Vec<_> = inputs.iter().map(|v| clear.encrypt_bits(v)).collect();
            for _ in 0..6 {
                let i = rng.gen_range(0..n_cts.len());
                let j = rng.gen_range(0..n_cts.len());
                match rng.gen_range(0..4u8) {
                    0 => {
                        n_cts[i] = nega.add(&n_cts[i], &n_cts[j]);
                        c_cts[i] = clear.add(&c_cts[i], &c_cts[j]);
                    }
                    1 => {
                        n_cts[i] = nega.mul(&n_cts[i], &n_cts[j]);
                        c_cts[i] = clear.mul(&c_cts[i], &c_cts[j]);
                    }
                    2 => {
                        let k = rng.gen_range(0..width as isize);
                        n_cts[i] = nega.rotate(&n_cts[i], k);
                        c_cts[i] = clear.rotate(&c_cts[i], k);
                    }
                    _ => {
                        let mask = BitVec::from_fn(width, |_| rng.gen_bool(0.5));
                        n_cts[i] = nega.mul_plain(&n_cts[i], &nega.encode(&mask));
                        c_cts[i] = clear.mul_plain(&c_cts[i], &clear.encode(&mask));
                    }
                }
            }
            for (n, c) in n_cts.iter().zip(&c_cts) {
                assert_eq!(nega.decrypt(n), clear.decrypt(c), "round {round}");
            }
        }
    }

    #[test]
    fn ciphertext_codec_roundtrips_and_stays_decryptable() {
        let be = NegacyclicBackend::tiny();
        let v = bits(&[true, false, true]);
        let fresh = be.encrypt_bits(&v);
        let deep = be.mul(&fresh, &fresh); // exercise switched levels
        for ct in [&fresh, &deep] {
            let back = be
                .deserialize_ciphertext(&be.serialize_ciphertext(ct))
                .unwrap();
            assert_eq!(be.decrypt(&back), be.decrypt(ct));
            assert_eq!(be.width(&back), be.width(ct));
            let sum = be.add(&back, ct);
            assert_eq!(be.decrypt(&sum), BitVec::zeros(v.width()));
        }
    }

    #[test]
    fn ciphertext_codec_rejects_foreign_truncated_and_unreduced_bytes() {
        let be = NegacyclicBackend::tiny();
        let good = be.serialize_ciphertext(&be.encrypt_bits(&bits(&[true, false])));
        assert!(matches!(
            be.deserialize_ciphertext(&good[..good.len() - 3])
                .unwrap_err(),
            CiphertextCodecError::Truncated | CiphertextCodecError::Malformed(_)
        ));
        let clear = ClearBackend::with_defaults();
        let foreign = clear.serialize_ciphertext(&clear.encrypt_bits(&bits(&[true])));
        assert!(matches!(
            be.deserialize_ciphertext(&foreign).unwrap_err(),
            CiphertextCodecError::BadMagic { .. }
        ));
        // A hostile width header larger than the frame could possibly
        // hold is rejected before any per-slot allocation.
        let mut hostile = vec![0xB7u8];
        hostile.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            be.deserialize_ciphertext(&hostile).unwrap_err(),
            CiphertextCodecError::Malformed("width exceeds frame size")
        );
        let mut raw = good.clone();
        // First coefficient word of slot 0's c0 sits after magic (1) +
        // width (8) + noise (8) + level (4).
        let coeff_at = 1 + 8 + 8 + 4;
        raw[coeff_at..coeff_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            be.deserialize_ciphertext(&raw).unwrap_err(),
            CiphertextCodecError::Malformed("residue coefficient not reduced mod its chain prime")
        );
    }

    #[test]
    fn meter_counts_semantic_operations() {
        let be = NegacyclicBackend::tiny();
        let a = be.encrypt_bits(&bits(&[true, false, true]));
        let _ = be.rotate(&a, 1);
        let _ = be.mul_plain(&a, &be.encode(&bits(&[true, true, false])));
        let s = be.meter().snapshot();
        assert_eq!(s.encrypt, 1);
        assert_eq!(s.rotate, 1);
        assert_eq!(s.constant_multiply, 1);
        assert_eq!(s.multiply, 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two cyclotomic index")]
    fn prime_params_are_rejected() {
        let _ = NegacyclicBackend::new(BgvParams::tiny());
    }

    #[test]
    fn schoolbook_and_eval_toggles_agree() {
        let ntt = NegacyclicBackend::tiny();
        let school = NegacyclicBackend::new_with_ntt(BgvParams::negacyclic_tiny(), false);
        let a = bits(&[true, false, true, true]);
        let b = bits(&[true, true, false, true]);
        // Same keygen seed: both share keys, and ciphertexts are
        // interchangeable between the evaluation route and the oracle.
        let ct = ntt.encrypt_bits(&a);
        let prod_ntt = ntt.mul(&ct, &ntt.encrypt_bits(&b));
        let prod_school = school.mul(
            &school
                .deserialize_ciphertext(&ntt.serialize_ciphertext(&ct))
                .unwrap(),
            &school.encrypt_bits(&b),
        );
        assert_eq!(ntt.decrypt(&prod_ntt), a.and(&b));
        assert_eq!(school.decrypt(&prod_school), a.and(&b));
        assert_eq!(school.decrypt(&prod_ntt), a.and(&b));
    }
}
