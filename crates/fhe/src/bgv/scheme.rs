//! The leveled BGV scheme (Brakerski–Gentry–Vaikuntanathan) over a
//! cyclotomic ring with plaintext modulus 2.
//!
//! This is the cryptographic core of the substrate HElib provides to
//! the paper: RLWE encryption over `R_Q = Z_Q[X]/Φ_m(X)` with an RNS
//! modulus chain, relinearisation and Galois key switching via
//! per-prime digit decomposition, and BGV modulus switching for noise
//! control.
//!
//! The ring flavor follows the cyclotomic index `m` of
//! [`BgvParams::m`]:
//!
//! * **odd prime `m`** — the paper's configuration. Plaintexts live in
//!   `R_2` and pack bits into SIMD slots via the CRT structure
//!   computed in [`crate::math::cyclotomic`]; slots rotate via Galois
//!   automorphisms and their switching keys.
//! * **power-of-two `m = 2n`** — the negacyclic ring
//!   `Z_q[X]/(X^n + 1)` of "Level Up" (Mahdavi et al., 2023) and
//!   Tueno et al.'s non-interactive decision trees, whose NTTs run at
//!   size exactly `n` (half the prime flavor's padded transforms at
//!   comparable degree). `2` ramifies completely in this ring
//!   (`X^n + 1 ≡ (X + 1)^n mod 2`), so there is **no GF(2) slot
//!   structure**: [`BgvScheme::try_slots`] is `None`, no rotation keys
//!   are generated, and [`BgvScheme::rotate_slots`] panics
//!   ([`BgvScheme::try_rotate_slots`] reports the missing capability
//!   as a typed [`BackendError::Unsupported`] instead). The
//!   [`crate::bgv::NegacyclicBackend`] packs logical vectors as one
//!   scalar ciphertext per bit instead.
//!
//! **Scope**: the algebra is real (decryption fails exactly when noise
//! overflows; slots rotate via genuine automorphisms), but parameters
//! are demonstration-sized and nothing here is constant-time — do not
//! use for production secrets. See docs/PARAMETERS.md.

use crate::backend::BackendError;
use crate::bgv::level::{Level, LevelRule, MUL_INPUT_BITS};
use crate::bgv::ring::{EvalPoly, RnsContext, RnsPoly};
use crate::math::cyclotomic::SlotStructure;
use crate::math::gf2poly::Gf2Poly;
use crate::math::modq::{inv_mod, mul_mod, negacyclic_chain_primes, ntt_chain_primes, pow_mod};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

/// BGV instantiation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BgvParams {
    /// Cyclotomic index `m`: an odd prime selects the prime-cyclotomic
    /// ring (degree `m - 1`, GF(2) SIMD slots); a power of two selects
    /// the negacyclic ring `Z_q[X]/(X^(m/2) + 1)` (degree `m/2`,
    /// size-`m/2` transforms, no slot structure).
    pub m: u64,
    /// Bits per chain prime.
    pub prime_bits: u32,
    /// Number of primes in the modulus chain (the level budget).
    pub chain_len: usize,
    /// Key-switching digit width in bits.
    pub ks_digit_bits: u32,
    /// Centered-binomial error parameter.
    pub error_eta: u32,
    /// Key-generation seed (the scheme is deterministic given it).
    pub keygen_seed: u64,
}

impl BgvParams {
    /// Small test parameters: `m = 31` (6 slots of GF(2^5)), 10-prime
    /// chain. Fast enough for debug-mode unit tests.
    pub fn tiny() -> Self {
        Self {
            m: 31,
            prime_bits: 25,
            chain_len: 10,
            ks_digit_bits: 7,
            error_eta: 2,
            keygen_seed: 0xB64,
        }
    }

    /// Demo parameters: `m = 127` (18 slots of GF(2^7)), 16-prime
    /// chain. Suitable for small end-to-end COPSE runs in release
    /// builds.
    pub fn demo() -> Self {
        Self {
            m: 127,
            prime_bits: 25,
            chain_len: 16,
            ks_digit_bits: 7,
            error_eta: 2,
            keygen_seed: 0xC0F5E,
        }
    }

    /// Small negacyclic test parameters: `m = 32` (ring
    /// `Z_q[X]/(X^16 + 1)`, size-16 transforms), 10-prime chain. Fast
    /// enough for debug-mode unit tests.
    pub fn negacyclic_tiny() -> Self {
        Self {
            m: 32,
            prime_bits: 25,
            chain_len: 10,
            ks_digit_bits: 7,
            error_eta: 2,
            keygen_seed: 0x2A16,
        }
    }

    /// Demo negacyclic parameters: `m = 256` (ring
    /// `Z_q[X]/(X^128 + 1)`, size-128 transforms — half the prime
    /// demo flavor's 256-point padded transforms at comparable
    /// degree), 16-prime chain.
    pub fn negacyclic_demo() -> Self {
        Self {
            m: 256,
            prime_bits: 25,
            chain_len: 16,
            ks_digit_bits: 7,
            error_eta: 2,
            keygen_seed: 0x2A128,
        }
    }

    /// Whether these parameters select the negacyclic power-of-two
    /// ring flavor ([`crate::bgv::ring::RingFlavor::NegacyclicPow2`]).
    pub fn is_negacyclic(&self) -> bool {
        self.m.is_power_of_two()
    }

    /// Ring degree `φ(m)`: `m - 1` for an odd prime index, `m/2` for
    /// a power-of-two index.
    pub fn phi(&self) -> usize {
        if self.is_negacyclic() {
            self.m as usize / 2
        } else {
            self.m as usize - 1
        }
    }
}

/// A BGV ciphertext: `(c0, c1)` with `c0 + c1·s = msg + 2·noise`.
#[derive(Clone, Debug, PartialEq)]
pub struct Ciphertext {
    pub(crate) c0: RnsPoly,
    pub(crate) c1: RnsPoly,
    /// Conservative estimate of the noise magnitude (an integer; see
    /// [`crate::bgv::level`]), used by the automatic modulus-switching
    /// policy (correctness is verified by decryption, not assumed from
    /// this estimate).
    pub(crate) noise: f64,
}

/// A key-switching key: for each chain prime `j` and digit `t`, an
/// encryption `(b, a)` of `q*_j · B^t · s'` under `s`, indexed
/// `[prime j][digit t]` at the full chain level.
///
/// A key is stored in **exactly one form**, the one its scheme's key
/// switch reads: pre-transformed in the evaluation domain, so every
/// key switch multiply-accumulates against the parts pointwise, or as
/// coefficients.
#[derive(Clone, Debug, PartialEq)]
pub enum KsKey {
    /// Evaluation-domain parts (an NTT scheme).
    Eval(Vec<Vec<(EvalPoly, EvalPoly)>>),
    /// Coefficient parts (the schoolbook oracle).
    Coeff(Vec<Vec<(RnsPoly, RnsPoly)>>),
}

/// A plaintext operand prepared for (repeated) multiplication: the
/// signed coefficient lift, the 1-norm bound its products are charged,
/// and a lazily built evaluation-domain transform at the full chain
/// level.
///
/// The cache is what amortises model transforms in COPSE's `mat_vec`:
/// a fixed diagonal is forward-transformed once (lazily on first use,
/// or eagerly via [`BgvScheme::warm_prepared`]) and then serves every
/// query and batch pointwise. Cloning shares nothing mutable — a clone
/// carries the already-computed transform along.
#[derive(Clone, Debug)]
pub struct PreparedPlaintext {
    coeffs: Vec<i64>,
    l1: usize,
    eval: OnceLock<EvalPoly>,
}

impl PreparedPlaintext {
    /// The 1-norm bound the multiplication noise estimate charges: the
    /// ring degree `φ`, which bounds every GF(2) polynomial, so no
    /// level depends on the operand's contents (see
    /// [`crate::bgv::level`]).
    pub fn l1(&self) -> usize {
        self.l1
    }

    /// Whether the evaluation-domain transform has been computed.
    pub fn is_warm(&self) -> bool {
        self.eval.get().is_some()
    }
}

/// The full scheme state: ring, slots, and all keys.
///
/// For testing convenience a single value holds the secret key, the
/// public key and the evaluation keys; real deployments would split
/// these between Diane/Maurice (secret) and Sally (evaluation keys).
#[derive(Debug)]
pub struct BgvScheme {
    params: BgvParams,
    ring: RnsContext,
    /// Slot packing/rotation geometry; `None` in the negacyclic flavor
    /// (2 ramifies completely in power-of-two cyclotomics, so there is
    /// no GF(2) CRT slot structure to pack into).
    slots: Option<SlotStructure>,
    secret: RnsPoly,
    public: (RnsPoly, RnsPoly),
    relin: KsKey,
    rotation: HashMap<u64, KsKey>,
    rule: LevelRule,
    rng_seed: std::sync::atomic::AtomicU64,
}

impl BgvScheme {
    /// Generates keys for the given parameters (deterministic in
    /// `params.keygen_seed`). The modulus chain is NTT-friendly for
    /// the selected ring flavor (`q ≡ 1 mod 2^s` with
    /// `2^s = next_pow2(2m - 1)` for an odd prime index; `2n | q - 1`
    /// for a power-of-two index `m = 2n`), so every ring
    /// multiplication takes the `O(n log n)` transform path.
    ///
    /// Rotation keys fork across the shared
    /// [`copse_pool::global`] worker pool; the key material is
    /// **bitwise identical** at every parallel degree because each
    /// key's randomness comes from its own split of the keygen rng
    /// (see [`BgvScheme::keygen_with_threads`]).
    pub fn keygen(params: BgvParams) -> Self {
        Self::keygen_with_ntt(params, true)
    }

    /// [`BgvScheme::keygen`] with the arithmetic route chosen, for the
    /// scheme's whole life: `use_ntt: false` builds the schoolbook
    /// oracle for differential testing (no transform anywhere,
    /// coefficient-form keys). The chain primes, keys and randomness
    /// are identical either way, and so is every ciphertext bit.
    pub fn keygen_with_ntt(params: BgvParams, use_ntt: bool) -> Self {
        Self::keygen_with_threads(params, use_ntt, copse_pool::global().threads())
    }

    /// [`BgvScheme::keygen_with_ntt`] with an explicit parallel degree
    /// for the rotation-key loop (`1` forces the serial route).
    ///
    /// Key material is **bitwise identical** for every value of
    /// `threads`: the master rng draws one seed per switching key *in
    /// key order*, and each key is then generated from its own
    /// `SmallRng` — so the serial loop and any parallel interleaving
    /// consume exactly the same randomness per key. Asserted by the
    /// `parallel_keygen_matches_serial_bitwise` parity test.
    pub fn keygen_with_threads(params: BgvParams, use_ntt: bool, threads: usize) -> Self {
        let m = params.m as usize;
        let mut ring = if params.is_negacyclic() {
            RnsContext::new_negacyclic(
                m,
                negacyclic_chain_primes(params.prime_bits, params.chain_len, m / 2),
            )
        } else {
            let two_adic_order = RnsContext::ntt_size(m).trailing_zeros();
            RnsContext::new(
                m,
                ntt_chain_primes(params.prime_bits, params.chain_len, two_adic_order),
            )
        };
        // All-or-nothing per scheme: the route never depends on a level.
        assert!(
            ring.eval_ready(params.chain_len),
            "keygen chain lacks a plan"
        );
        ring.set_ntt_enabled(use_ntt);
        let slots = (!params.is_negacyclic()).then(|| SlotStructure::new(params.m));
        let mut rng = SmallRng::seed_from_u64(params.keygen_seed);
        let level = params.chain_len;

        let s_coeffs = ring.sample_ternary(&mut rng);
        let secret = ring.from_signed(&s_coeffs, level);

        let a = ring.sample_uniform(level, &mut rng);
        let e = ring.from_signed(&ring.sample_error(params.error_eta, &mut rng), level);
        let b = ring.add(&ring.neg(&ring.mul(&a, &secret)), &ring.mul_scalar(&e, 2));
        let public = (b, a);

        let mut scheme = Self {
            rule: LevelRule::new(params, slots.as_ref().map_or(0, SlotStructure::nslots)),
            params,
            ring,
            slots,
            secret,
            public,
            relin: KsKey::Coeff(Vec::new()),
            rotation: HashMap::new(),
            rng_seed: std::sync::atomic::AtomicU64::new(params.keygen_seed ^ 0x5EED),
        };
        // Per-key rng split: seeds are drawn serially in key order
        // (relin first, then each rotation key), making each key's
        // randomness independent of *when* it is generated — the
        // parallel fork below is bitwise identical to the serial loop.
        let s2 = scheme.ring.mul(&scheme.secret, &scheme.secret);
        scheme.relin = scheme.ks_keygen(&s2, rng.next_u64());
        let specs: Vec<(u64, RnsPoly, u64)> = scheme
            .slots
            .as_ref()
            .map(|slots| {
                (1..slots.nslots())
                    .map(|k| {
                        let exponent = slots.rotation_exponent(k as isize);
                        let target = scheme.ring.automorphism(&scheme.secret, exponent);
                        (exponent, target, rng.next_u64())
                    })
                    .collect()
            })
            .unwrap_or_default();
        let keys: Vec<KsKey> = if threads > 1 && specs.len() > 1 && !copse_pool::in_worker() {
            let scheme_ref = &scheme;
            copse_pool::global().scope_indices(specs.len(), threads, |i| {
                scheme_ref.ks_keygen(&specs[i].1, specs[i].2)
            })
        } else {
            specs
                .iter()
                .map(|(_, target, seed)| scheme.ks_keygen(target, *seed))
                .collect()
        };
        for ((exponent, _, _), key) in specs.into_iter().zip(keys) {
            scheme.rotation.insert(exponent, key);
        }
        scheme
    }

    /// One key-switching key from its own rng split (see
    /// [`BgvScheme::keygen_with_threads`]), each part put in the
    /// scheme's form as it is drawn — a whole coefficient key is never
    /// resident on the evaluation route.
    fn ks_keygen(&self, target: &RnsPoly, seed: u64) -> KsKey {
        let rng = &mut SmallRng::seed_from_u64(seed);
        if self.eval_path() {
            KsKey::Eval(self.ks_parts(target, rng, |p| self.ring.to_eval(&p)))
        } else {
            KsKey::Coeff(self.ks_parts(target, rng, |p| p))
        }
    }

    /// The `[prime j][digit t]` grid of key parts `(form(b), form(a))`.
    fn ks_parts<P>(
        &self,
        target: &RnsPoly,
        rng: &mut SmallRng,
        form: impl Fn(RnsPoly) -> P,
    ) -> Vec<Vec<(P, P)>> {
        let level = self.params.chain_len;
        let primes = self.ring.primes().to_vec();
        let n_digits = self.params.prime_bits.div_ceil(self.params.ks_digit_bits) as usize;
        (0..level)
            .map(|j| {
                (0..n_digits)
                    .map(|t| {
                        // Gadget scalar q*_j * B^t per prime i.
                        let scalars: Vec<u64> = primes
                            .iter()
                            .map(|&qi| {
                                let qstar = Self::qstar_mod(&primes, j, qi);
                                let bt =
                                    pow_mod(2, u64::from(self.params.ks_digit_bits) * t as u64, qi);
                                mul_mod(qstar, bt, qi)
                            })
                            .collect();
                        let a = self.ring.sample_uniform(level, rng);
                        let e = self.ring.from_signed(
                            &self.ring.sample_error(self.params.error_eta, rng),
                            level,
                        );
                        let b = self.ring.add(
                            &self.ring.add(
                                &self.ring.neg(&self.ring.mul(&a, &self.secret)),
                                &self.ring.mul_scalar(&e, 2),
                            ),
                            &self.ring.mul_scalar_rns(target, &scalars),
                        );
                        (form(b), form(a))
                    })
                    .collect()
            })
            .collect()
    }

    /// `q*_j mod qi` where `q*_j = (Q/q_j) * [(Q/q_j)^{-1}]_{q_j}`.
    fn qstar_mod(primes: &[u64], j: usize, qi: u64) -> u64 {
        let qj = primes[j];
        // (Q / q_j) mod q_j, for the inverse.
        let mut co_mod_qj = 1u64;
        // (Q / q_j) mod qi.
        let mut co_mod_qi = 1u64;
        for (l, &ql) in primes.iter().enumerate() {
            if l != j {
                co_mod_qj = mul_mod(co_mod_qj, ql % qj, qj);
                co_mod_qi = mul_mod(co_mod_qi, ql % qi, qi);
            }
        }
        let inv = inv_mod(co_mod_qj, qj).expect("distinct primes");
        mul_mod(co_mod_qi, inv % qi, qi)
    }

    /// The parameters in use.
    pub fn params(&self) -> &BgvParams {
        &self.params
    }

    /// The level rule every ciphertext of this scheme follows.
    pub fn level_rule(&self) -> &LevelRule {
        &self.rule
    }

    /// The slot structure (packing/rotation geometry).
    ///
    /// # Panics
    ///
    /// Panics in the negacyclic flavor, which has no GF(2) slot
    /// structure — use [`BgvScheme::try_slots`] when the flavor is not
    /// statically known.
    pub fn slots(&self) -> &SlotStructure {
        self.slots
            .as_ref()
            .expect("the negacyclic power-of-two ring has no GF(2) slot structure")
    }

    /// The slot structure, or `None` in the negacyclic flavor.
    pub fn try_slots(&self) -> Option<&SlotStructure> {
        self.slots.as_ref()
    }

    /// The RNS ring context (modulus chain, degree).
    pub fn ring(&self) -> &RnsContext {
        &self.ring
    }

    /// Sets the parallel degree for the scheme's data-parallel kernel
    /// loops: per-prime residue rows inside ring operations and the
    /// per-prime digit rows of a key switch fork onto the shared
    /// [`copse_pool::global`] worker pool when `threads > 1`.
    ///
    /// Every ciphertext produced is **bitwise identical** for every
    /// value (rows and digit contributions are independent, collected
    /// in chain order, and combined with exact modular arithmetic);
    /// `1` — the default — is the sequential differential baseline.
    pub fn set_threads(&self, threads: usize) {
        self.ring.set_threads(threads);
    }

    /// The configured kernel parallel degree.
    pub fn threads(&self) -> usize {
        self.ring.threads()
    }

    /// Whether this is the evaluation-domain scheme rather than the
    /// schoolbook oracle — a keygen-time fact, true at every level.
    fn eval_path(&self) -> bool {
        self.ring.ntt_enabled()
    }

    /// Primes remaining for a ciphertext (its level).
    pub fn level(&self, ct: &Ciphertext) -> usize {
        self.ring.level_of(&ct.c0)
    }

    /// Current noise estimate (log2).
    pub fn noise_bits(&self, ct: &Ciphertext) -> f64 {
        ct.noise.log2()
    }

    /// Where `ct` stands in the chain, as the level rule sees it.
    fn position(&self, ct: &Ciphertext) -> Level {
        self.rule.at(self.level(ct), ct.noise)
    }

    fn fresh_rng(&self) -> SmallRng {
        let seed = self
            .rng_seed
            .fetch_add(0x9E37_79B9_7F4A_7C15, std::sync::atomic::Ordering::Relaxed);
        SmallRng::seed_from_u64(seed)
    }

    /// Encrypts a plaintext polynomial (an element of `R_2`).
    pub fn encrypt_poly(&self, pt: &Gf2Poly) -> Ciphertext {
        self.encrypt_poly_with_rng(pt, &mut self.fresh_rng())
    }

    /// [`BgvScheme::encrypt_poly`] with the encryption randomness
    /// drawn from the caller's pre-split `seed` instead of the
    /// scheme's internal counter stream — the same discipline as
    /// the per-key seeded key-switch keygen. Equal
    /// `(pt, seed)` pairs give bitwise-identical ciphertexts no matter
    /// how many other encryptions run concurrently, which is what
    /// keeps batched evaluation deterministic when a kernel needs a
    /// fresh zero encryption mid-flight.
    pub fn encrypt_poly_seeded(&self, pt: &Gf2Poly, seed: u64) -> Ciphertext {
        self.encrypt_poly_with_rng(pt, &mut SmallRng::seed_from_u64(seed))
    }

    fn encrypt_poly_with_rng(&self, pt: &Gf2Poly, rng: &mut SmallRng) -> Ciphertext {
        let level = self.params.chain_len;
        let msg_coeffs: Vec<i64> = (0..self.ring.phi())
            .map(|i| i64::from(pt.coeff(i)))
            .collect();
        let msg = self.ring.from_signed(&msg_coeffs, level);
        let u = self.ring.from_signed(&self.ring.sample_ternary(rng), level);
        let e0 = self
            .ring
            .from_signed(&self.ring.sample_error(self.params.error_eta, rng), level);
        let e1 = self
            .ring
            .from_signed(&self.ring.sample_error(self.params.error_eta, rng), level);
        let c0 = self.ring.add(
            &self.ring.add(
                &self.ring.mul(&self.public.0, &u),
                &self.ring.mul_scalar(&e0, 2),
            ),
            &msg,
        );
        let c1 = self.ring.add(
            &self.ring.mul(&self.public.1, &u),
            &self.ring.mul_scalar(&e1, 2),
        );
        Ciphertext {
            c0,
            c1,
            noise: self.rule.encrypt().noise,
        }
    }

    /// Switches `ct` down to `primes` chain primes (at least one); a
    /// ciphertext already at or below them is returned unchanged.
    /// Keyless, and the result decrypts identically: how a query
    /// enters the chain at the level its circuit needs.
    pub fn mod_switch_to(&self, ct: &Ciphertext, primes: usize) -> Ciphertext {
        let mut work = ct.clone();
        while self.level(&work) > primes.max(1) {
            work = self.mod_switch(&work);
        }
        work
    }

    /// Switches `ct` down to the last chain prime — the first thing
    /// [`decrypt_poly`](Self::decrypt_poly) does, and keyless, so the
    /// evaluator can do it before shipping a result: the ciphertext
    /// shrinks to one residue row per half and decrypts identically.
    pub fn compact_for_decrypt(&self, ct: &Ciphertext) -> Ciphertext {
        self.mod_switch_to(ct, 1)
    }

    /// Decrypts to a plaintext polynomial. Switches down to the last
    /// chain prime first, then reduces `c0 + c1·s` centered mod 2.
    pub fn decrypt_poly(&self, ct: &Ciphertext) -> Gf2Poly {
        let work = self.compact_for_decrypt(ct);
        let s1 = self.ring.reduce_level(&self.secret, 1);
        let v = self.ring.add(&work.c0, &self.ring.mul(&work.c1, &s1));
        let centered = self.ring.to_centered(&v);
        let mut out = Gf2Poly::zero();
        for (i, &c) in centered.iter().enumerate() {
            if c.rem_euclid(2) == 1 {
                out.flip(i);
            }
        }
        out
    }

    /// Homomorphic addition (XOR on packed bits).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let (la, lb) = self.rule.align(self.position(a), self.position(b));
        let (a, b) = (
            self.mod_switch_to(a, la.primes),
            self.mod_switch_to(b, lb.primes),
        );
        Ciphertext {
            c0: self.ring.add(&a.c0, &b.c0),
            c1: self.ring.add(&a.c1, &b.c1),
            noise: self.rule.add(la, lb).noise,
        }
    }

    /// Adds a plaintext polynomial.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Gf2Poly) -> Ciphertext {
        let level = self.level(a);
        let coeffs: Vec<i64> = (0..self.ring.phi())
            .map(|i| i64::from(pt.coeff(i)))
            .collect();
        Ciphertext {
            c0: self.ring.add(&a.c0, &self.ring.from_signed(&coeffs, level)),
            c1: a.c1.clone(),
            noise: self.rule.add_plain(self.position(a)).noise,
        }
    }

    /// Prepares a plaintext polynomial for multiplication: lifts the
    /// coefficients once; the evaluation-domain
    /// transform is cached lazily on first multiply (or eagerly via
    /// [`BgvScheme::warm_prepared`]).
    pub fn prepare_plain(&self, pt: &Gf2Poly) -> PreparedPlaintext {
        let coeffs: Vec<i64> = (0..self.ring.phi())
            .map(|i| i64::from(pt.coeff(i)))
            .collect();
        PreparedPlaintext {
            coeffs,
            l1: self.params.phi(),
            eval: OnceLock::new(),
        }
    }

    /// The full-level evaluation form of a prepared plaintext,
    /// computing and caching it on first use.
    fn prepared_eval<'a>(&self, pt: &'a PreparedPlaintext) -> &'a EvalPoly {
        pt.eval.get_or_init(|| {
            self.ring
                .to_eval(&self.ring.from_signed(&pt.coeffs, self.params.chain_len))
        })
    }

    /// Eagerly populates a prepared plaintext's transform cache (the
    /// deployment-time hook: fixed model diagonals transform at deploy,
    /// so the first query pays nothing). No-op on the schoolbook
    /// oracle.
    pub fn warm_prepared(&self, pt: &PreparedPlaintext) {
        if self.eval_path() {
            let _ = self.prepared_eval(pt);
        }
    }

    /// Multiplies by a plaintext polynomial, charging the noise
    /// estimate the 1-norm bound `l1` (one-shot form; repeated
    /// multiplications should prepare once and use
    /// [`BgvScheme::mul_plain_prepared`]).
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Gf2Poly, l1: usize) -> Ciphertext {
        let mut prepared = self.prepare_plain(pt);
        prepared.l1 = l1;
        self.mul_plain_prepared(a, &prepared)
    }

    /// Multiplies by a prepared plaintext. On the evaluation route the
    /// plaintext's cached full-level transform serves both ciphertext
    /// halves (and, for fixed operands, every later call) pointwise;
    /// the oracle takes the schoolbook product.
    pub fn mul_plain_prepared(&self, a: &Ciphertext, pt: &PreparedPlaintext) -> Ciphertext {
        let level = self.level(a);
        let noise = self.rule.mul_plain_l1(self.position(a), pt.l1).noise;
        if self.eval_path() {
            let local;
            let pe = match pt.eval.get() {
                Some(pe) => pe,
                None if level == self.params.chain_len => self.prepared_eval(pt),
                None => {
                    // Cold operand on a reduced ciphertext: filling the
                    // full-chain cache here would cost more transforms
                    // than this call saves, so transform at the
                    // ciphertext's level and leave the cache for a
                    // full-level (or explicitly warmed) use to fill.
                    local = self.ring.to_eval(&self.ring.from_signed(&pt.coeffs, level));
                    &local
                }
            };
            let c0 = self
                .ring
                .from_eval(&self.ring.eval_mul(&self.ring.to_eval(&a.c0), pe, level));
            let c1 = self
                .ring
                .from_eval(&self.ring.eval_mul(&self.ring.to_eval(&a.c1), pe, level));
            return Ciphertext { c0, c1, noise };
        }
        let p = self.ring.from_signed(&pt.coeffs, level);
        Ciphertext {
            c0: self.ring.mul(&a.c0, &p),
            c1: self.ring.mul(&a.c1, &p),
            noise,
        }
    }

    /// Homomorphic multiplication (AND on packed bits): tensor,
    /// relinearise, and switch moduli to re-normalise noise.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let (la, lb) = self.rule.mul_inputs(self.position(a), self.position(b));
        let (a, b) = (
            self.mod_switch_to(a, la.primes),
            self.mod_switch_to(b, lb.primes),
        );
        let level = self.level(&a);
        let (d0, d1, d2) = if self.eval_path() {
            // Four forward transforms cover all four cross products
            // (the cross term sums before its single inverse).
            let ea0 = self.ring.to_eval(&a.c0);
            let ea1 = self.ring.to_eval(&a.c1);
            let eb0 = self.ring.to_eval(&b.c0);
            let eb1 = self.ring.to_eval(&b.c1);
            let mut cross = self.ring.eval_acc(level);
            cross.mul_add(&ea0, &eb1);
            cross.mul_add(&ea1, &eb0);
            (
                self.ring.from_eval(&self.ring.eval_mul(&ea0, &eb0, level)),
                self.ring.from_eval(&cross.finish()),
                self.ring.from_eval(&self.ring.eval_mul(&ea1, &eb1, level)),
            )
        } else {
            (
                self.ring.mul(&a.c0, &b.c0),
                self.ring
                    .add(&self.ring.mul(&a.c0, &b.c1), &self.ring.mul(&a.c1, &b.c0)),
                self.ring.mul(&a.c1, &b.c1),
            )
        };
        let (k0, k1) = self.key_switch(&d2, &self.relin);
        let ct = Ciphertext {
            c0: self.ring.add(&d0, &k0),
            c1: self.ring.add(&d1, &k1),
            noise: self.rule.tensor(la, lb).noise,
        };
        self.reduce(&ct, MUL_INPUT_BITS)
    }

    /// Rotates packed slots left by `k` (full slot width) via the
    /// Galois automorphism and its switching key.
    ///
    /// # Panics
    ///
    /// Panics if the required rotation key was not generated, or in
    /// the negacyclic flavor (no slot structure, hence no slot
    /// rotations — the [`crate::bgv::NegacyclicBackend`] rotates its
    /// per-bit ciphertext vectors instead). The capability panic
    /// carries the typed [`BackendError`] as its payload
    /// (`panic_any`), so a `catch_unwind` boundary — the server's
    /// evaluation workers — can downcast it back to the same error
    /// the admission layer models instead of scraping a string. Use
    /// [`BgvScheme::try_rotate_slots`] to get the capability failure
    /// as a plain `Result` instead.
    pub fn rotate_slots(&self, a: &Ciphertext, k: isize) -> Ciphertext {
        self.try_rotate_slots(a, k)
            .unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// [`BgvScheme::rotate_slots`] returning the negacyclic flavor's
    /// missing slot structure as a typed error rather than a panic —
    /// the form deploy-time admission and capability probing consume.
    ///
    /// # Errors
    ///
    /// [`BackendError::Unsupported`] in the negacyclic flavor, which
    /// has no GF(2) slot structure and hence no rotation
    /// automorphisms.
    ///
    /// # Panics
    ///
    /// Still panics if the flavor supports rotation but the required
    /// rotation key was not generated at keygen — that is an internal
    /// invariant violation, not a capability gap.
    pub fn try_rotate_slots(&self, a: &Ciphertext, k: isize) -> Result<Ciphertext, BackendError> {
        let slots = self.try_slots().ok_or(BackendError::Unsupported {
            operation: "slot rotation",
            reason: "the negacyclic power-of-two ring has no GF(2) slot structure",
        })?;
        let nslots = slots.nslots() as isize;
        if k.rem_euclid(nslots) == 0 {
            return Ok(a.clone());
        }
        let exponent = slots.rotation_exponent(k);
        let key = self
            .rotation
            .get(&exponent)
            .expect("rotation key generated at keygen");
        let r0 = self.ring.automorphism(&a.c0, exponent);
        let r1 = self.ring.automorphism(&a.c1, exponent);
        let (k0, k1) = self.key_switch(&r1, key);
        Ok(Ciphertext {
            c0: self.ring.add(&r0, &k0),
            c1: k1,
            noise: self.rule.key_switch(self.position(a)).noise,
        })
    }

    /// Key switching: homomorphically re-encrypts `poly * s'` (where
    /// the key encodes `s'`) as a pair under `s`, via per-prime digit
    /// decomposition.
    ///
    /// Two routes, chosen by the form the key was born in and bitwise
    /// identical (the NTT is linear and exact over each `Z_q`): the
    /// evaluation-domain route transforms each digit row once,
    /// multiply-accumulates pointwise against key parts that were
    /// pre-transformed at keygen, and inverse-transforms each of the
    /// two output polynomials once — `level · digits · level` forward
    /// transforms plus `2 · level` inverses per call. Its
    /// `level · digits` products per point sum unreduced in an
    /// [`EvalAcc`](crate::bgv::ring::EvalAcc), so the only division
    /// left is one reduction per output point (plus a flush whenever
    /// 62-bit-class primes fill the `u128`). The coefficient route is
    /// the schoolbook oracle's.
    fn key_switch(&self, poly: &RnsPoly, key: &KsKey) -> (RnsPoly, RnsPoly) {
        let level = self.ring.level_of(poly);
        match key {
            KsKey::Eval(parts) => self.key_switch_eval(poly, parts, level),
            KsKey::Coeff(parts) => self.key_switch_coeff(poly, parts, level),
        }
    }

    fn key_switch_eval(
        &self,
        poly: &RnsPoly,
        parts: &[Vec<(EvalPoly, EvalPoly)>],
        level: usize,
    ) -> (RnsPoly, RnsPoly) {
        // One job per source prime `j`: decompose its residue row into
        // digits and multiply-accumulate them against the row's
        // pre-transformed key parts. Jobs touch disjoint inputs; each
        // reduces its partial sums, which then combine with exact
        // modular addition, so any chunking is bitwise identical to the
        // sequential loop below — which is also the `threads == 1`
        // route.
        let accumulate_rows = |range: std::ops::Range<usize>| -> (EvalPoly, EvalPoly) {
            let mut acc0 = self.ring.eval_acc(level);
            let mut acc1 = self.ring.eval_acc(level);
            for (j, key_row) in parts.iter().enumerate().take(range.end).skip(range.start) {
                let digits = self
                    .ring
                    .decompose_digits(poly, j, self.params.ks_digit_bits);
                for (digit_row, (b, a)) in digits.iter().zip(key_row) {
                    let d = self.ring.small_to_eval(digit_row, level);
                    acc0.mul_add(&d, b);
                    acc1.mul_add(&d, a);
                }
            }
            (acc0.finish(), acc1.finish())
        };
        let threads = self.ring.threads();
        let (acc0, acc1) = if threads > 1 && level > 1 && !copse_pool::in_worker() {
            let partials = copse_pool::global().scope_chunks(level, threads, accumulate_rows);
            let mut partials = partials.into_iter();
            let (mut acc0, mut acc1) = partials.next().expect("at least one chunk");
            for (p0, p1) in partials {
                self.ring.eval_add_assign(&mut acc0, &p0);
                self.ring.eval_add_assign(&mut acc1, &p1);
            }
            (acc0, acc1)
        } else {
            accumulate_rows(0..level)
        };
        (self.ring.from_eval(&acc0), self.ring.from_eval(&acc1))
    }

    /// Coefficient-domain key switch — the schoolbook oracle's, kept
    /// independent of the evaluation route it checks. Digits lift
    /// through [`RnsContext::from_small_unsigned`] (no per-digit
    /// signed re-collect) and key parts are consumed at `level` through
    /// [`RnsContext::mul_prefix`] row-slice views (no per-digit clone).
    fn key_switch_coeff(
        &self,
        poly: &RnsPoly,
        parts: &[Vec<(RnsPoly, RnsPoly)>],
        level: usize,
    ) -> (RnsPoly, RnsPoly) {
        let mut acc0 = self.ring.zero(level);
        let mut acc1 = self.ring.zero(level);
        for (j, key_row) in parts.iter().enumerate().take(level) {
            let digits = self
                .ring
                .decompose_digits(poly, j, self.params.ks_digit_bits);
            for (digit_row, (b, a)) in digits.iter().zip(key_row) {
                let d = self.ring.from_small_unsigned(digit_row, level);
                acc0 = self.ring.add(&acc0, &self.ring.mul_prefix(&d, b, level));
                acc1 = self.ring.add(&acc1, &self.ring.mul_prefix(&d, a, level));
            }
        }
        (acc0, acc1)
    }

    /// Runs one relinearisation key switch on `ct.c1` — the inner
    /// kernel of [`BgvScheme::mul`] and [`BgvScheme::rotate_slots`] —
    /// exposed for benchmarking and transform-count ablations.
    pub fn key_switch_relin(&self, ct: &Ciphertext) -> (RnsPoly, RnsPoly) {
        self.key_switch(&ct.c1, &self.relin)
    }

    /// The transparent encryption of zero at `level` active primes
    /// (`c0 = c1 = 0`): decrypts to zero under any key and is a valid
    /// operand for every homomorphic operation. Used where a public
    /// constant forces a known-zero result — e.g. the
    /// [`crate::bgv::NegacyclicBackend`] multiplying a slot by the
    /// plaintext constant 0.
    pub fn transparent_zero(&self, level: usize) -> Ciphertext {
        Ciphertext {
            c0: self.ring.zero(level),
            c1: self.ring.zero(level),
            noise: 0.0,
        }
    }

    /// One BGV modulus switch (drops the last active prime).
    pub fn mod_switch(&self, a: &Ciphertext) -> Ciphertext {
        Ciphertext {
            c0: self.ring.mod_switch_down(&a.c0, 2),
            c1: self.ring.mod_switch_down(&a.c1, 2),
            noise: self.rule.mod_switch(self.position(a)).noise,
        }
    }

    /// Switches moduli until the noise estimate drops to `target_bits`
    /// (or one prime remains).
    pub fn reduce(&self, a: &Ciphertext, target_bits: f64) -> Ciphertext {
        let to = self.rule.reduce(self.position(a), target_bits);
        self.mod_switch_to(a, to.primes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;

    fn scheme() -> BgvScheme {
        BgvScheme::keygen(BgvParams::tiny())
    }

    fn enc_bits(s: &BgvScheme, bits: &[bool]) -> Ciphertext {
        s.encrypt_poly(&s.slots().encode(&BitVec::from_bools(bits)))
    }

    fn dec_bits(s: &BgvScheme, ct: &Ciphertext, n: usize) -> Vec<bool> {
        s.slots().decode(&s.decrypt_poly(ct)).truncate(n).to_bools()
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let s = scheme();
        for pattern in [
            vec![true, false, true, false, true, true],
            vec![false; 6],
            vec![true; 6],
        ] {
            let ct = enc_bits(&s, &pattern);
            assert_eq!(dec_bits(&s, &ct, 6), pattern);
        }
    }

    #[test]
    fn homomorphic_add_is_xor() {
        let s = scheme();
        let a = [true, true, false, false, true, false];
        let b = [true, false, true, false, false, true];
        let ct = s.add(&enc_bits(&s, &a), &enc_bits(&s, &b));
        let want: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        assert_eq!(dec_bits(&s, &ct, 6), want);
    }

    #[test]
    fn homomorphic_mul_is_and() {
        let s = scheme();
        let a = [true, true, false, false, true, false];
        let b = [true, false, true, false, true, true];
        let ct = s.mul(&enc_bits(&s, &a), &enc_bits(&s, &b));
        let want: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x && y).collect();
        assert_eq!(dec_bits(&s, &ct, 6), want);
    }

    #[test]
    fn plaintext_operations() {
        let s = scheme();
        let a = [true, false, true, false, false, true];
        let mask = [true, true, false, false, true, true];
        let pt = s.slots().encode(&BitVec::from_bools(&mask));
        let ct = enc_bits(&s, &a);
        let xor = s.add_plain(&ct, &pt);
        let want_xor: Vec<bool> = a.iter().zip(&mask).map(|(&x, &y)| x ^ y).collect();
        assert_eq!(dec_bits(&s, &xor, 6), want_xor);
        let l1 = pt.degree().map_or(1, |d| d + 1);
        let and = s.mul_plain(&ct, &pt, l1);
        let want_and: Vec<bool> = a.iter().zip(&mask).map(|(&x, &y)| x && y).collect();
        assert_eq!(dec_bits(&s, &and, 6), want_and);
    }

    #[test]
    fn rotation_moves_slots() {
        let s = scheme();
        let a = [true, false, false, true, false, false];
        let ct = enc_bits(&s, &a);
        for k in 0..6isize {
            let rotated = s.rotate_slots(&ct, k);
            let want: Vec<bool> = (0..6).map(|i| a[(i + k as usize) % 6]).collect();
            assert_eq!(dec_bits(&s, &rotated, 6), want, "k = {k}");
        }
        // Negative rotations too.
        let r = s.rotate_slots(&ct, -2);
        let want: Vec<bool> = (0..6).map(|i| a[(i + 6 - 2) % 6]).collect();
        assert_eq!(dec_bits(&s, &r, 6), want);
    }

    #[test]
    fn multiplication_chain_within_budget() {
        // Depth-4 chain of multiplies on an all-ones vector stays
        // decryptable (each mult consumes level but noise renormalises).
        let s = scheme();
        let ones = vec![true; 6];
        let mut acc = enc_bits(&s, &ones);
        for i in 0..4 {
            acc = s.mul(&acc, &enc_bits(&s, &ones));
            assert_eq!(dec_bits(&s, &acc, 6), ones, "after {} multiplies", i + 1);
        }
        assert!(s.level(&acc) >= 1);
    }

    #[test]
    fn mixed_circuit_matches_cleartext() {
        // (a XOR b) AND rot(c, 2) XOR mask - a COPSE-shaped fragment.
        let s = scheme();
        let a = [true, false, true, true, false, false];
        let b = [false, false, true, false, true, false];
        let c = [true, true, false, false, true, true];
        let mask = [false, true, false, true, false, true];
        let ct = s.add(&enc_bits(&s, &a), &enc_bits(&s, &b));
        let rot = s.rotate_slots(&enc_bits(&s, &c), 2);
        let prod = s.mul(&ct, &rot);
        let pt = s.slots().encode(&BitVec::from_bools(&mask));
        let out = s.add_plain(&prod, &pt);
        let want: Vec<bool> = (0..6)
            .map(|i| ((a[i] ^ b[i]) && c[(i + 2) % 6]) ^ mask[i])
            .collect();
        assert_eq!(dec_bits(&s, &out, 6), want);
    }

    #[test]
    fn mod_switch_reduces_level_and_preserves_plaintext() {
        let s = scheme();
        let bits = [true, false, true, false, true, false];
        let ct = enc_bits(&s, &bits);
        let switched = s.mod_switch(&ct);
        assert_eq!(s.level(&switched), s.level(&ct) - 1);
        assert_eq!(dec_bits(&s, &switched, 6), bits);
    }

    #[test]
    fn keygen_chain_is_ntt_ready_and_paths_interoperate() {
        // Same params and seed: identical keys and identical encryption
        // randomness streams, so every ciphertext component must match
        // bit for bit between the evaluation-domain scheme and the
        // schoolbook oracle, which shares no transform with it.
        let on = scheme();
        assert_eq!(on.ring().ntt_ready_primes(), on.params().chain_len);
        assert!(on.ring().ntt_enabled());
        let off = BgvScheme::keygen_with_ntt(BgvParams::tiny(), false);
        assert!(!off.ring().ntt_enabled());

        let bits = [true, false, true, true, false, true];
        let (a_on, a_off) = (enc_bits(&on, &bits), enc_bits(&off, &bits));
        assert_eq!(a_on.c0, a_off.c0);
        // A ciphertext produced on one route decrypts on the other.
        assert_eq!(dec_bits(&off, &a_on, 6), bits);

        for k in 1..6isize {
            let (r_on, r_off) = (on.rotate_slots(&a_on, k), off.rotate_slots(&a_off, k));
            assert_eq!(r_on.c0, r_off.c0, "rotate c0, k = {k}");
            assert_eq!(r_on.c1, r_off.c1, "rotate c1, k = {k}");
        }

        let (b_on, b_off) = (enc_bits(&on, &bits), enc_bits(&off, &bits));
        let (m_on, m_off) = (on.mul(&a_on, &b_on), off.mul(&a_off, &b_off));
        assert_eq!(m_on.c0, m_off.c0, "tensor + relin c0");
        assert_eq!(m_on.c1, m_off.c1, "tensor + relin c1");

        let mask = on.slots().encode(&BitVec::from_bools(&[
            true, true, false, true, false, false,
        ]));
        let p_on = on.mul_plain(&a_on, &mask, 4);
        let p_off = off.mul_plain(&a_off, &mask, 4);
        assert_eq!(p_on.c0, p_off.c0, "mul_plain c0");
        assert_eq!(p_on.c1, p_off.c1, "mul_plain c1");

        // Reduced levels exercise the row-prefix views on full-level
        // key material and plaintext caches.
        let (mut low_on, mut low_off) = (m_on, m_off);
        for _ in 0..3 {
            low_on = on.mod_switch(&low_on);
            low_off = off.mod_switch(&low_off);
        }
        let (r_on, r_off) = (on.rotate_slots(&low_on, 2), off.rotate_slots(&low_off, 2));
        assert_eq!(r_on.c0, r_off.c0, "reduced-level rotate c0");
        assert_eq!(r_on.c1, r_off.c1, "reduced-level rotate c1");
        let (q_on, q_off) = (
            on.mul_plain(&low_on, &mask, 4),
            off.mul_plain(&low_off, &mask, 4),
        );
        assert_eq!(q_on.c0, q_off.c0, "reduced-level mul_plain c0");
    }

    #[test]
    fn prepared_plaintext_cache_is_populated_once_and_reused() {
        let s = scheme();
        let mask = s.slots().encode(&BitVec::from_bools(&[
            true, false, true, false, true, false,
        ]));
        let prepared = s.prepare_plain(&mask);
        assert!(!prepared.is_warm(), "cache is lazy");
        let ct = enc_bits(&s, &[true; 6]);
        let first = s.mul_plain_prepared(&ct, &prepared);
        assert!(prepared.is_warm(), "first multiply fills the cache");
        let second = s.mul_plain_prepared(&ct, &prepared);
        assert_eq!(first.c0, second.c0, "cached transform reproduces");
        // Warming is idempotent and matches the lazy fill.
        s.warm_prepared(&prepared);
        assert_eq!(s.mul_plain_prepared(&ct, &prepared).c0, first.c0);
    }

    #[test]
    fn schoolbook_scheme_skips_eval_material() {
        let off = BgvScheme::keygen_with_ntt(BgvParams::tiny(), false);
        let prepared = off.prepare_plain(&off.slots().encode(&BitVec::from_bools(&[true; 6])));
        off.warm_prepared(&prepared);
        assert!(!prepared.is_warm(), "no plaintext transforms without NTT");
        // The whole scheme is the schoolbook oracle, and operations
        // still run.
        let bits = [true, false, false, true, false, true];
        let ct = enc_bits(&off, &bits);
        assert_eq!(dec_bits(&off, &off.rotate_slots(&ct, 1), 6), {
            let mut w = bits.to_vec();
            w.rotate_left(1);
            w
        });
    }

    #[test]
    fn switching_keys_hold_exactly_one_form() {
        // The route is fixed at keygen and every key is stored only in
        // the form that route reads.
        fn keys(s: &BgvScheme) -> impl Iterator<Item = &KsKey> {
            std::iter::once(&s.relin).chain(s.rotation.values())
        }
        for params in [BgvParams::tiny(), BgvParams::negacyclic_tiny()] {
            let ntt = BgvScheme::keygen(params);
            let oracle = BgvScheme::keygen_with_ntt(params, false);
            assert_eq!(ntt.rotation.len(), oracle.rotation.len());
            assert!(keys(&ntt).all(|k| matches!(k, KsKey::Eval(p) if !p.is_empty())));
            assert!(keys(&oracle).all(|k| matches!(k, KsKey::Coeff(p) if !p.is_empty())));
        }
    }

    #[test]
    fn keygen_is_deterministic() {
        let a = BgvScheme::keygen(BgvParams::tiny());
        let b = BgvScheme::keygen(BgvParams::tiny());
        let bits = [true, false, false, true, true, false];
        // Same keys: ciphertexts from one decrypt under the other.
        let ct = enc_bits(&a, &bits);
        assert_eq!(dec_bits(&b, &ct, 6), bits);
    }

    #[test]
    fn parallel_keygen_matches_serial_bitwise() {
        // The per-key rng split makes every switching key a pure
        // function of (params, key index); the parallel rotation-key
        // fork must therefore reproduce the serial key material bit
        // for bit, at any parallel degree.
        let serial = BgvScheme::keygen_with_threads(BgvParams::tiny(), true, 1);
        for threads in [2usize, 4, 7] {
            let par = BgvScheme::keygen_with_threads(BgvParams::tiny(), true, threads);
            assert_eq!(par.secret, serial.secret, "threads {threads}");
            assert_eq!(par.public, serial.public, "threads {threads}");
            assert_eq!(par.relin, serial.relin, "threads {threads}");
            assert_eq!(par.rotation.len(), serial.rotation.len());
            for (exponent, key) in &serial.rotation {
                let p = par.rotation.get(exponent).expect("same exponent set");
                assert_eq!(p, key, "key {exponent}, threads {threads}");
            }
        }
    }

    fn enc_poly_bits(s: &BgvScheme, bits: &[bool]) -> Ciphertext {
        let mut p = Gf2Poly::zero();
        for (i, &b) in bits.iter().enumerate() {
            if b {
                p.flip(i);
            }
        }
        s.encrypt_poly(&p)
    }

    fn dec_poly_bits(s: &BgvScheme, ct: &Ciphertext, n: usize) -> Vec<bool> {
        let p = s.decrypt_poly(ct);
        (0..n).map(|i| p.coeff(i)).collect()
    }

    #[test]
    fn negacyclic_scheme_roundtrips_and_has_no_slots() {
        let s = BgvScheme::keygen(BgvParams::negacyclic_tiny());
        assert!(s.try_slots().is_none());
        assert!(s.rotation.is_empty(), "no rotation keys without slots");
        assert_eq!(s.ring().phi(), 16);
        assert_eq!(s.ring().transform_size(), 16);
        let bits: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
        let ct = enc_poly_bits(&s, &bits);
        assert_eq!(dec_poly_bits(&s, &ct, 16), bits);
    }

    #[test]
    fn negacyclic_scheme_add_is_coefficientwise_xor() {
        let s = BgvScheme::keygen(BgvParams::negacyclic_tiny());
        let a: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
        let b: Vec<bool> = (0..16).map(|i| i % 5 == 0).collect();
        let sum = s.add(&enc_poly_bits(&s, &a), &enc_poly_bits(&s, &b));
        let want: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        assert_eq!(dec_poly_bits(&s, &sum, 16), want);
    }

    #[test]
    fn negacyclic_scheme_multiplies_constants_with_relin() {
        // Constant (degree-0) plaintexts stay constant under the ring
        // product, so ct-ct multiplication — tensor, relinearisation
        // key switch, modulus switching, all in the power-of-two ring
        // — computes AND on the constant bit.
        let s = BgvScheme::keygen(BgvParams::negacyclic_tiny());
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            let prod = s.mul(&enc_poly_bits(&s, &[x]), &enc_poly_bits(&s, &[y]));
            assert_eq!(dec_poly_bits(&s, &prod, 1), [x && y], "{x} & {y}");
        }
    }

    #[test]
    fn negacyclic_scheme_multiplication_chain_within_budget() {
        let s = BgvScheme::keygen(BgvParams::negacyclic_tiny());
        let mut acc = enc_poly_bits(&s, &[true]);
        for i in 0..3 {
            acc = s.mul(&acc, &enc_poly_bits(&s, &[true]));
            assert_eq!(dec_poly_bits(&s, &acc, 1), [true], "depth {}", i + 1);
        }
        assert!(s.level(&acc) >= 1);
    }

    #[test]
    fn negacyclic_schoolbook_scheme_agrees_with_ntt_scheme() {
        // Same seed, same keys: the evaluation-domain scheme (ψ-twisted
        // size-n transforms) and the negacyclic schoolbook oracle must
        // produce identical ciphertext bits.
        let ntt = BgvScheme::keygen(BgvParams::negacyclic_tiny());
        let school = BgvScheme::keygen_with_ntt(BgvParams::negacyclic_tiny(), false);
        assert!(!school.ring().ntt_enabled());
        let bits: Vec<bool> = (0..16).map(|i| i % 4 == 1).collect();
        let (a_n, a_s) = (enc_poly_bits(&ntt, &bits), enc_poly_bits(&school, &bits));
        assert_eq!(a_n.c0, a_s.c0);
        // A ciphertext produced on one route decrypts on the other.
        assert_eq!(dec_poly_bits(&school, &a_n, 16), bits);
        let (b_n, b_s) = (enc_poly_bits(&ntt, &bits), enc_poly_bits(&school, &bits));
        let (m_n, m_s) = (ntt.mul(&a_n, &b_n), school.mul(&a_s, &b_s));
        assert_eq!(m_n.c0, m_s.c0, "tensor + relin c0");
        assert_eq!(m_n.c1, m_s.c1, "tensor + relin c1");
        let pt = {
            let mut p = Gf2Poly::zero();
            p.flip(0);
            p.flip(3);
            p
        };
        let (p_n, p_s) = (ntt.mul_plain(&a_n, &pt, 2), school.mul_plain(&a_s, &pt, 2));
        assert_eq!(p_n.c0, p_s.c0, "mul_plain c0");
        assert_eq!(p_n.c1, p_s.c1, "mul_plain c1");
    }

    #[test]
    fn negacyclic_scheme_rejects_slot_rotation_with_a_typed_panic() {
        // The panic payload is the typed BackendError itself
        // (panic_any), so a catch_unwind boundary downstream — the
        // server worker — recovers the same error admission models.
        let s = BgvScheme::keygen(BgvParams::negacyclic_tiny());
        let ct = enc_poly_bits(&s, &[true]);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.rotate_slots(&ct, 1);
        }))
        .unwrap_err();
        let err = payload
            .downcast_ref::<BackendError>()
            .expect("panic payload is the typed BackendError");
        assert!(matches!(
            err,
            BackendError::Unsupported {
                operation: "slot rotation",
                ..
            }
        ));
        assert!(err.to_string().contains("no GF(2) slot structure"));
    }

    #[test]
    fn negacyclic_try_rotate_is_a_typed_unsupported_error() {
        let s = BgvScheme::keygen(BgvParams::negacyclic_tiny());
        let ct = enc_poly_bits(&s, &[true]);
        let err = s.try_rotate_slots(&ct, 1).unwrap_err();
        assert!(matches!(
            err,
            BackendError::Unsupported {
                operation: "slot rotation",
                ..
            }
        ));
        // The Display text is the panic message `rotate_slots` keeps.
        assert!(err.to_string().contains("no GF(2) slot structure"));
    }

    #[test]
    fn cyclic_try_rotate_matches_rotate() {
        let s = BgvScheme::keygen(BgvParams::tiny());
        let bits: Vec<bool> = (0..6).map(|i| i % 2 == 0).collect();
        let ct = enc_bits(&s, &bits);
        let rotated = s.try_rotate_slots(&ct, 2).expect("cyclic flavor rotates");
        assert_eq!(rotated.c0, s.rotate_slots(&ct, 2).c0);
    }
}
