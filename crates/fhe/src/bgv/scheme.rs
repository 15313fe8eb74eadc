//! The leveled BGV scheme (Brakerski–Gentry–Vaikuntanathan) over a
//! cyclotomic ring with plaintext modulus 2.
//!
//! This is the cryptographic core of the substrate HElib provides to
//! the paper: RLWE encryption over `R_Q = Z_Q[X]/Φ_m(X)` with an RNS
//! modulus chain, relinearisation and Galois key switching via
//! per-prime digit decomposition (each digit-times-key sum computed
//! exactly in a small auxiliary NTT basis, then reduced into the
//! chain), and BGV modulus switching for noise control.
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
//!   as a typed [`BackendError::Unsupported`] instead). No
//!   [`FheBackend`](crate::FheBackend) runs on this flavor:
//!   [`BgvBackend`](crate::BgvBackend) refuses it.
//!
//! **Scope**: the algebra is real (decryption fails exactly when noise
//! overflows; slots rotate via genuine automorphisms), but parameters
//! are demonstration-sized and nothing here is constant-time — do not
//! use for production secrets. See docs/PARAMETERS.md.

use crate::backend::BackendError;
use crate::bgv::level::{Level, LevelRule, MUL_INPUT_BITS};
use crate::bgv::ring::{AuxBasis, EvalAcc, EvalPoly, RnsContext, RnsPoly};
use crate::math::cyclotomic::SlotStructure;
use crate::math::gf2poly::Gf2Poly;
use crate::math::modq::{inv_mod, mul_mod, negacyclic_chain_primes, ntt_chain_primes, pow_mod};
use crate::meter::KeySwitch;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

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
/// `[prime j][digit t]`. A key generated at `ℓ` chain primes has the
/// parts `j < ℓ`, each half a polynomial over the first `ℓ` primes —
/// all a key switch at level `ℓ` or below reads.
///
/// A key is stored in **exactly one form**, the one its scheme's key
/// switch reads: in the scheme's auxiliary NTT basis (chain row `i`
/// transformed mod each of its `r` primes, rows `i·r .. (i + 1)·r`; see
/// [`RnsContext::to_aux`]), so every key switch multiply-accumulates
/// digits against the parts pointwise and sums exactly, or as
/// coefficients.
#[derive(Clone, Debug, PartialEq)]
pub enum KsKey {
    /// Auxiliary-basis parts (an NTT scheme).
    Eval(Vec<Vec<(EvalPoly, EvalPoly)>>),
    /// Coefficient parts (the schoolbook oracle).
    Coeff(Vec<Vec<(RnsPoly, RnsPoly)>>),
}

impl KsKey {
    /// The key cut to `primes` chain primes: its first `primes` parts,
    /// each half cut to the rows of the first `primes` chain primes.
    /// What the scheme generates at `primes`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the key covers fewer than `primes` chain primes.
    pub fn prefix(&self, primes: usize) -> KsKey {
        let level = match self {
            KsKey::Eval(parts) => parts.len(),
            KsKey::Coeff(parts) => parts.len(),
        };
        assert!(
            primes <= level,
            "a key covers {level} chain primes, not {primes}"
        );
        fn cut<P: Clone>(
            parts: &[Vec<(P, P)>],
            primes: usize,
            rows: impl Fn(&P) -> P,
        ) -> Vec<Vec<(P, P)>> {
            parts[..primes]
                .iter()
                .map(|digits| digits.iter().map(|(b, a)| (rows(b), rows(a))).collect())
                .collect()
        }
        match self {
            KsKey::Eval(parts) => {
                // `r` auxiliary rows per chain row.
                let r = parts
                    .first()
                    .map_or(0, |digits| digits[0].0.rows.len() / level);
                KsKey::Eval(cut(parts, primes, |p| EvalPoly {
                    rows: p.rows[..primes * r].to_vec(),
                }))
            }
            KsKey::Coeff(parts) => KsKey::Coeff(cut(parts, primes, |p| RnsPoly {
                residues: p.residues[..primes].to_vec(),
            })),
        }
    }

    /// Bytes the key's residue words take.
    fn bytes(&self) -> usize {
        fn words<P>(parts: &[Vec<(P, P)>], rows: impl Fn(&P) -> &[Vec<u64>]) -> usize {
            parts
                .iter()
                .flatten()
                .flat_map(|(b, a)| [rows(b), rows(a)])
                .flatten()
                .map(Vec::len)
                .sum()
        }
        8 * match self {
            KsKey::Eval(parts) => words(parts, |p| &p.rows),
            KsKey::Coeff(parts) => words(parts, |p| &p.residues),
        }
    }
}

/// The switching keys a scheme holds: the relinearisation key and one
/// rotation key per non-trivial slot shift, all generated at the same
/// number of chain primes.
#[derive(Debug)]
pub struct SwitchKeys {
    /// Chain primes every key covers; `0` before the first is built.
    pub primes: usize,
    /// The relinearisation key (`s² → s`).
    pub relin: KsKey,
    /// Rotation keys by Galois exponent (empty in the negacyclic
    /// flavor).
    pub rotation: HashMap<u64, KsKey>,
}

/// A plaintext operand prepared for (repeated) multiplication: the
/// signed coefficient lift and a lazily built evaluation-domain
/// transform at the full chain level.
///
/// The cache is what amortises model transforms in COPSE's `mat_vec`:
/// a fixed diagonal is forward-transformed once (lazily on first use,
/// or eagerly via [`BgvScheme::warm_prepared`]) and then serves every
/// query and batch pointwise. Cloning shares nothing mutable — a clone
/// carries the already-computed transform along.
#[derive(Clone, Debug)]
pub struct PreparedPlaintext {
    coeffs: Vec<i64>,
    eval: OnceLock<EvalPoly>,
}

impl PreparedPlaintext {
    /// Whether the evaluation-domain transform has been computed.
    pub fn is_warm(&self) -> bool {
        self.eval.get().is_some()
    }
}

/// A polynomial in the form this scheme multiplies in: evaluation
/// form on the NTT route, coefficients on the schoolbook oracle.
/// Borrowed where the operand is resident (a cached plaintext
/// transform), owned where a product computed it.
#[derive(Clone, Debug)]
enum Form<'a> {
    Eval(Cow<'a, EvalPoly>),
    Coeff(Cow<'a, RnsPoly>),
}

/// A ciphertext as products read it: both halves at one level in the
/// scheme's product form, each transformed once and then multiplied
/// by every operand that needs it.
#[derive(Clone, Debug)]
pub(crate) struct Factor {
    halves: [Form<'static>; 2],
    at: Level,
}

impl Factor {
    /// Chain primes the factor carries.
    pub(crate) fn primes(&self) -> usize {
        self.at.primes
    }
}

/// One part of a [`ProductSum`]: products summed in the product form.
#[derive(Debug)]
enum PartSum {
    Eval(EvalAcc),
    Coeff(RnsPoly),
}

impl PartSum {
    /// `self += a ⋆ b`.
    fn mul_add(&mut self, ring: &RnsContext, a: &Form<'_>, b: &Form<'_>) {
        match (self, a, b) {
            (PartSum::Eval(acc), Form::Eval(a), Form::Eval(b)) => acc.mul_add(a, b),
            (PartSum::Coeff(sum), Form::Coeff(a), Form::Coeff(b)) => {
                *sum = ring.add(sum, &ring.mul(a, b));
            }
            _ => unreachable!("one scheme multiplies in one form"),
        }
    }

    /// `self += other`.
    fn add(&mut self, ring: &RnsContext, other: PartSum) {
        match (self, other) {
            (PartSum::Eval(acc), PartSum::Eval(other)) => acc.add(&other.finish()),
            (PartSum::Coeff(sum), PartSum::Coeff(other)) => *sum = ring.add(sum, &other),
            _ => unreachable!("one scheme multiplies in one form"),
        }
    }

    /// The coefficient form of the sum: one inverse transform per row.
    fn into_poly(self, ring: &RnsContext) -> RnsPoly {
        match self {
            PartSum::Eval(acc) => ring.from_eval(&acc.finish()),
            PartSum::Coeff(sum) => sum,
        }
    }
}

/// A sum of ring products at one level, before its inverse transforms:
/// of degree 1 (parts `c0, c1`) while every term multiplies a
/// plaintext, of degree 2 (`d0, d1, d2`, a summed tensor) once a term
/// multiplies two ciphertexts. [`BgvScheme::finish`] makes it a
/// ciphertext with one inverse transform per part and row, and a
/// tensor sum with one relinearisation and one reduction, however many
/// products it holds. The products sum exactly, and the inverse
/// transform is linear and exact, so a sum of plaintext products
/// finishes to the bits of the sum of the finished products.
#[derive(Debug)]
pub struct ProductSum {
    parts: Vec<PartSum>,
    /// Its position: the level rule's sum of its terms' noise.
    at: Level,
}

impl ProductSum {
    /// Chain primes every term is multiplied at.
    pub(crate) fn primes(&self) -> usize {
        self.at.primes
    }

    /// Whether it is a tensor sum, which finishes with a
    /// relinearisation.
    fn is_tensor(&self) -> bool {
        self.parts.len() == 3
    }
}

/// The full scheme state: ring, slots, secret and public keys, and the
/// switching keys up to the deepest level a key switch has asked for.
///
/// Switching keys are not built at keygen. Keygen draws one seed per
/// key; the first key switch at a level the held keys do not cover (or
/// a [`BgvScheme::switch_keys`] warm-up) regenerates every key from
/// its seed at that level. Keys are quadratic in the level, so a host
/// that serves circuits entering at `E` chain primes holds `(E/L)²` of
/// the full-chain key material.
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
    /// The secret's evaluation form over the whole chain, built by the
    /// first symmetric encryption on the evaluation route; a product at
    /// `ℓ` primes reads its first `ℓ` rows.
    secret_eval: OnceLock<EvalPoly>,
    public: (RnsPoly, RnsPoly),
    /// Each switching key's rng seed, drawn at keygen: the relinearisation
    /// key's, then `(exponent, seed)` per rotation key.
    key_seeds: (u64, Vec<(u64, u64)>),
    /// Parallel degree of the per-key fork that builds switching keys.
    key_threads: usize,
    /// The keys built so far, swapped whole for deeper ones.
    keys: RwLock<Arc<SwitchKeys>>,
    /// The auxiliary NTT basis key switches sum in, derived at keygen
    /// from the parameters ([`RnsContext::key_switch_basis`]).
    aux: AuxBasis,
    rule: LevelRule,
    rng_seed: std::sync::atomic::AtomicU64,
}

impl BgvScheme {
    /// Generates the secret and public keys and the switching-key seeds
    /// for the given parameters (deterministic in `params.keygen_seed`).
    /// The modulus chain is NTT-friendly for
    /// the selected ring flavor (`q ≡ 1 mod 2^s` with
    /// `2^s = next_pow2(2m - 1)` for an odd prime index; `2n | q - 1`
    /// for a power-of-two index `m = 2n`), so every ring
    /// multiplication takes the `O(n log n)` transform path.
    ///
    /// Switching keys are built later, per level on demand (see
    /// [`BgvScheme::switch_keys`]); they fork one key per task across
    /// the shared [`copse_pool::global`] worker pool, and the key
    /// material is **bitwise identical** at every parallel degree
    /// because each key's randomness comes from its own split of the
    /// keygen rng (see [`BgvScheme::keygen_with_threads`]).
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
    /// for the per-key fork that builds switching keys (`1` forces the
    /// serial route).
    ///
    /// Key material is **bitwise identical** for every value of
    /// `threads`: the master rng draws one seed per switching key *in
    /// key order* (relinearisation first, then each rotation exponent),
    /// and each key is then generated from its own `SmallRng` — so the
    /// serial loop and any parallel interleaving consume exactly the
    /// same randomness per key, at every level. Asserted by the
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

        // Per-key rng split: seeds are drawn serially in key order
        // (relin first, then each rotation key), making each key's
        // randomness independent of *when* and at which level it is
        // generated.
        let relin_seed = rng.next_u64();
        let rotation_seeds = slots
            .as_ref()
            .map(|slots| {
                (1..slots.nslots())
                    .map(|k| (slots.rotation_exponent(k as isize), rng.next_u64()))
                    .collect()
            })
            .unwrap_or_default();
        let digits = params.prime_bits.div_ceil(params.ks_digit_bits) as usize;
        Self {
            rule: LevelRule::new(params, slots.as_ref().map_or(0, SlotStructure::nslots)),
            aux: ring.key_switch_basis(digits, params.ks_digit_bits),
            params,
            ring,
            slots,
            secret,
            secret_eval: OnceLock::new(),
            public,
            key_seeds: (relin_seed, rotation_seeds),
            key_threads: threads,
            keys: RwLock::new(Arc::new(SwitchKeys {
                primes: 0,
                relin: KsKey::Coeff(Vec::new()),
                rotation: HashMap::new(),
            })),
            rng_seed: std::sync::atomic::AtomicU64::new(params.keygen_seed ^ 0x5EED),
        }
    }

    /// The switching keys, first extended to cover `primes` chain
    /// primes (at most the chain) if the held keys do not. `0` reads
    /// the held keys as they are.
    ///
    /// An extension regenerates every key from its seed at `primes`, so
    /// keys generated at any level are the row and part
    /// [`prefix`](KsKey::prefix) of the full-chain keys, and every
    /// ciphertext bit is the same whichever level the keys were built
    /// at. The keys are built outside the lock: threads that miss at
    /// once each build, the deepest set is kept, and a reader is never
    /// blocked by a build — a build forks onto the pool, whose helping
    /// threads may run another key switch meanwhile.
    pub fn switch_keys(&self, primes: usize) -> Arc<SwitchKeys> {
        let primes = primes.min(self.params.chain_len);
        let held = Arc::clone(&self.keys.read().expect("no panic under the key lock"));
        if held.primes >= primes {
            return held;
        }
        let built = Arc::new(self.build_switch_keys(primes));
        let mut keys = self.keys.write().expect("no panic under the key lock");
        if keys.primes < built.primes {
            *keys = built;
        }
        Arc::clone(&keys)
    }

    /// Bytes the held switching keys take: `keys × ℓ × D × 2 × ℓ × r ×
    /// N × 8` at `ℓ` primes on the evaluation route (`φ` words per row
    /// instead of `r × N` on the oracle); see docs/PARAMETERS.md "Key
    /// material".
    pub fn key_bytes(&self) -> usize {
        let keys = self.switch_keys(0);
        keys.relin.bytes() + keys.rotation.values().map(KsKey::bytes).sum::<usize>()
    }

    /// Every switching key at `primes` chain primes, one fork task per
    /// key. Key generation is set-up, not evaluation, so its transforms
    /// land in no pass's meter.
    fn build_switch_keys(&self, primes: usize) -> SwitchKeys {
        let _unmetered = crate::meter::unmetered();
        let secret = self.ring.reduce_level(&self.secret, primes);
        let (relin_seed, rotation_seeds) = &self.key_seeds;
        let relin = self.ks_keygen(&self.ring.mul(&secret, &secret), *relin_seed);
        let threads = self.key_threads;
        let rotation_key = |&(exponent, seed): &(u64, u64)| {
            self.ks_keygen(&self.ring.automorphism(&secret, exponent), seed)
        };
        let keys: Vec<KsKey> =
            if threads > 1 && rotation_seeds.len() > 1 && !copse_pool::in_worker() {
                copse_pool::global().scope_indices(rotation_seeds.len(), threads, |i| {
                    rotation_key(&rotation_seeds[i])
                })
            } else {
                rotation_seeds.iter().map(rotation_key).collect()
            };
        SwitchKeys {
            primes,
            relin,
            rotation: rotation_seeds.iter().map(|&(e, _)| e).zip(keys).collect(),
        }
    }

    /// One key-switching key for `target` from its own rng split (see
    /// [`BgvScheme::keygen_with_threads`]), at `target`'s level, each
    /// part put in the scheme's form as it is drawn — a whole
    /// coefficient key is never resident on the evaluation route.
    fn ks_keygen(&self, target: &RnsPoly, seed: u64) -> KsKey {
        let rng = &mut SmallRng::seed_from_u64(seed);
        if self.eval_path() {
            KsKey::Eval(self.ks_parts(target, rng, |p| self.ring.to_aux(&self.aux, &p)))
        } else {
            KsKey::Coeff(self.ks_parts(target, rng, |p| p))
        }
    }

    /// The `[prime j][digit t]` grid of key parts `(form(b), form(a))`
    /// at `target`'s level `ℓ`: parts `j < ℓ` over the first `ℓ` primes.
    /// Each part draws its uniform `a` over the whole chain and keeps
    /// the first `ℓ` rows, and the gadget scalars are those of the
    /// whole chain's `Q`, so every level consumes the rng alike and
    /// gives the prefix of the full-chain key.
    fn ks_parts<P>(
        &self,
        target: &RnsPoly,
        rng: &mut SmallRng,
        form: impl Fn(RnsPoly) -> P,
    ) -> Vec<Vec<(P, P)>> {
        let level = self.ring.level_of(target);
        let primes = self.ring.primes();
        let secret = self.ring.reduce_level(&self.secret, level);
        let n_digits = self.params.prime_bits.div_ceil(self.params.ks_digit_bits) as usize;
        (0..level)
            .map(|j| {
                (0..n_digits)
                    .map(|t| {
                        // Gadget scalar q*_j * B^t per prime i.
                        let scalars: Vec<u64> = primes[..level]
                            .iter()
                            .map(|&qi| {
                                let qstar = Self::qstar_mod(primes, j, qi);
                                let bt =
                                    pow_mod(2, u64::from(self.params.ks_digit_bits) * t as u64, qi);
                                mul_mod(qstar, bt, qi)
                            })
                            .collect();
                        let mut a = self.ring.sample_uniform(self.params.chain_len, rng);
                        a.residues.truncate(level);
                        let e = self.ring.from_signed(
                            &self.ring.sample_error(self.params.error_eta, rng),
                            level,
                        );
                        let b = self.ring.add(
                            &self.ring.add(
                                &self.ring.neg(&self.ring.mul(&a, &secret)),
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
    /// loops: per-prime residue rows inside ring operations, and a key
    /// switch's digit transforms and output rows, fork onto the shared
    /// [`copse_pool::global`] worker pool when `threads > 1`.
    ///
    /// Every ciphertext produced is **bitwise identical** for every
    /// value (rows are independent, collected in chain order, and every
    /// sum is exact);
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
    pub(crate) fn position(&self, ct: &Ciphertext) -> Level {
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

    /// Encrypts `pt` under the secret key, directly at `primes` chain
    /// primes (clamped to the chain): `c1 = a`, uniform and expanded
    /// from the returned seed by [`RnsContext::expand_uniform`], and
    /// `c0 = −a·s + 2e + pt`. The seed and then `e` are drawn from the
    /// scheme's stream, so the seed — public, it stands for `c1` on the
    /// wire — does not regenerate `e`. The noise is
    /// [`LevelRule::encrypt_symmetric`]'s, and no modulus switch is
    /// paid to reach `primes`. Only the holder of `s` can encrypt this
    /// way: the data owner's route for her query planes.
    pub fn encrypt_symmetric(&self, pt: &Gf2Poly, primes: usize) -> (Ciphertext, u64) {
        let level = primes.clamp(1, self.params.chain_len);
        let mut rng = self.fresh_rng();
        let seed = rng.next_u64();
        let a = self.ring.expand_uniform(level, seed);
        let error = self.ring.sample_error(self.params.error_eta, &mut rng);
        let noisy: Vec<i64> = error
            .iter()
            .enumerate()
            .map(|(i, e)| 2 * e + i64::from(pt.coeff(i)))
            .collect();
        let c0 = self.ring.sub(
            &self.ring.from_signed(&noisy, level),
            &self.times_secret(&a),
        );
        let ct = Ciphertext {
            c0,
            c1: a,
            noise: self.rule.encrypt_symmetric(level).noise,
        };
        (ct, seed)
    }

    /// `a·s` at `a`'s level: on the evaluation route one forward
    /// transform of `a`, a pointwise product with the cached transform
    /// of `s`, and one inverse, per prime; the ring product on the
    /// oracle. The same bits either way.
    fn times_secret(&self, a: &RnsPoly) -> RnsPoly {
        let level = self.ring.level_of(a);
        if !self.eval_path() {
            return self
                .ring
                .mul(a, &self.ring.reduce_level(&self.secret, level));
        }
        let secret = self.secret_eval.get_or_init(|| {
            // Key material, like the switching keys: in no pass's meter.
            let _unmetered = crate::meter::unmetered();
            self.ring.to_eval(&self.secret)
        });
        let mut product = self.ring.eval_acc(level);
        product.mul_add(&self.ring.to_eval(a), secret);
        self.ring.from_eval(&product.finish())
    }

    /// Switches `ct` down to `primes` chain primes (at least one); a
    /// ciphertext already at or below them is returned as it is,
    /// borrowed, not copied. Keyless, and the result decrypts
    /// identically.
    pub fn mod_switch_to<'a>(&self, ct: &'a Ciphertext, primes: usize) -> Cow<'a, Ciphertext> {
        match self.level(ct) > primes.max(1) {
            true => Cow::Owned(self.switch_down(self.mod_switch(ct), primes)),
            false => Cow::Borrowed(ct),
        }
    }

    /// [`mod_switch_to`](Self::mod_switch_to) on a ciphertext the
    /// caller owns.
    fn switch_down(&self, mut ct: Ciphertext, primes: usize) -> Ciphertext {
        while self.level(&ct) > primes.max(1) {
            ct = self.mod_switch(&ct);
        }
        ct
    }

    /// How a query plane enters a circuit at `primes` chain primes:
    /// switched down to them, its noise estimate raised as
    /// [`LevelRule::enter`] does, whether it was made at `primes` or
    /// above them.
    pub fn enter(&self, ct: &Ciphertext, primes: usize) -> Ciphertext {
        let work = self.mod_switch_to(ct, primes).into_owned();
        Ciphertext {
            noise: self.rule.enter(self.position(&work), primes).noise,
            ..work
        }
    }

    /// Switches `ct` down to the last chain prime — the first thing
    /// [`decrypt_poly`](Self::decrypt_poly) does, and keyless, so the
    /// evaluator can do it before shipping a result: the ciphertext
    /// shrinks to one residue row per half and decrypts identically.
    pub fn compact_for_decrypt(&self, ct: &Ciphertext) -> Ciphertext {
        self.mod_switch_to(ct, 1).into_owned()
    }

    /// Decrypts to a plaintext polynomial. Switches down to the last
    /// chain prime first, then reduces `c0 + c1·s` centered mod 2.
    pub fn decrypt_poly(&self, ct: &Ciphertext) -> Gf2Poly {
        let work = self.mod_switch_to(ct, 1);
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

    /// Multiplies by a plaintext polynomial (one-shot form; repeated
    /// multiplications should prepare once and use
    /// [`BgvScheme::mul_plain_prepared`]).
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Gf2Poly) -> Ciphertext {
        self.mul_plain_prepared(a, &self.prepare_plain(pt))
    }

    /// Multiplies by a prepared plaintext: a [`ProductSum`] of one
    /// term. On the evaluation route the plaintext's cached full-level
    /// transform serves both ciphertext halves (and, for fixed
    /// operands, every later call) pointwise; the oracle takes the
    /// schoolbook product.
    pub fn mul_plain_prepared(&self, a: &Ciphertext, pt: &PreparedPlaintext) -> Ciphertext {
        let level = self.level(a);
        let mut sum = self.product_sum(level, false);
        self.mul_add_plain(&mut sum, &self.factor(a, level), pt);
        self.finish(sum)
    }

    /// Homomorphic multiplication (AND on packed bits): the
    /// [`tensor`](Self::tensor), [`finish`](Self::finish)ed —
    /// relinearised, and moduli switched to re-normalise noise.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.finish(self.tensor(a, b))
    }

    /// The tensor of two ciphertexts, not yet relinearised: each
    /// reduced to the product's input noise, both aligned, and their
    /// halves multiplied in the product form (four forward transforms;
    /// the cross term sums before its single inverse).
    pub fn tensor(&self, a: &Ciphertext, b: &Ciphertext) -> ProductSum {
        self.tensor_with(a, b, |primes| Cow::Owned(self.factor(b, primes)))
    }

    /// [`tensor`](Self::tensor), with `b` in product form at the
    /// product's level as `b_factor` gives it (a cached one, say).
    pub(crate) fn tensor_with<'f>(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        b_factor: impl FnOnce(usize) -> Cow<'f, Factor>,
    ) -> ProductSum {
        let (la, lb) = self.rule.mul_inputs(self.position(a), self.position(b));
        let mut sum = self.product_sum(la.primes, true);
        self.mul_add(&mut sum, &self.factor(a, la.primes), &b_factor(lb.primes));
        sum
    }

    /// `ct` switched down to `primes` chain primes and put in product
    /// form: two forward transforms per prime on the evaluation route.
    pub(crate) fn factor(&self, ct: &Ciphertext, primes: usize) -> Factor {
        let ct = self.mod_switch_to(ct, primes);
        let form = |p: &RnsPoly| match self.eval_path() {
            true => Form::Eval(Cow::Owned(self.ring.to_eval(p))),
            false => Form::Coeff(Cow::Owned(p.clone())),
        };
        Factor {
            halves: [form(&ct.c0), form(&ct.c1)],
            at: self.position(&ct),
        }
    }

    /// An empty [`ProductSum`] at `primes` chain primes: of degree 2
    /// for a `tensor` sum, else of degree 1.
    pub(crate) fn product_sum(&self, primes: usize, tensor: bool) -> ProductSum {
        let part = || match self.eval_path() {
            true => PartSum::Eval(self.ring.eval_acc(primes)),
            false => PartSum::Coeff(self.ring.zero(primes)),
        };
        ProductSum {
            parts: (0..if tensor { 3 } else { 2 }).map(|_| part()).collect(),
            at: self.rule.zero(primes),
        }
    }

    /// `sum += x ⊙ pt`, charging the noise estimate the 1-norm bound
    /// `φ` of any GF(2) polynomial. A degree-2 sum takes the product into its first
    /// two parts.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not at the sum's level.
    pub(crate) fn mul_add_plain(&self, sum: &mut ProductSum, x: &Factor, pt: &PreparedPlaintext) {
        let level = sum.primes();
        assert_eq!(x.primes(), level, "factor off the sum's level");
        let p = match self.eval_path() {
            true => Form::Eval(match pt.eval.get() {
                Some(pe) => Cow::Borrowed(pe),
                None if level == self.params.chain_len => Cow::Borrowed(self.prepared_eval(pt)),
                // Cold operand below the top of the chain: filling the
                // full-chain cache here would cost more transforms than
                // this call saves, so transform at the sum's level and
                // leave the cache for a full-level (or explicitly
                // warmed) use to fill.
                None => Cow::Owned(self.ring.to_eval(&self.ring.from_signed(&pt.coeffs, level))),
            }),
            false => Form::Coeff(Cow::Owned(self.ring.from_signed(&pt.coeffs, level))),
        };
        for (part, half) in sum.parts.iter_mut().zip(&x.halves) {
            part.mul_add(&self.ring, half, &p);
        }
        sum.at = self.rule.add(sum.at, self.rule.mul_plain(x.at));
    }

    /// `sum += x ⊗ y`, the tensor of two ciphertexts: `x0·y0` into
    /// `d0`, `x0·y1 + x1·y0` into `d1`, `x1·y1` into `d2`.
    ///
    /// # Panics
    ///
    /// Panics unless `sum` is a tensor sum and both factors are at its
    /// level.
    pub(crate) fn mul_add(&self, sum: &mut ProductSum, x: &Factor, y: &Factor) {
        assert!(sum.is_tensor(), "a ciphertext product needs a tensor sum");
        assert!(
            x.primes() == sum.primes() && y.primes() == sum.primes(),
            "factor off the sum's level"
        );
        let ([x0, x1], [y0, y1]) = (&x.halves, &y.halves);
        let ring = &self.ring;
        sum.parts[0].mul_add(ring, x0, y0);
        sum.parts[1].mul_add(ring, x0, y1);
        sum.parts[1].mul_add(ring, x1, y0);
        sum.parts[2].mul_add(ring, x1, y1);
        sum.at = self.rule.add(sum.at, self.rule.tensor(x.at, y.at));
    }

    /// `sum += other`: two partial sums of one product, alike in level
    /// and degree. The sums are exact, so any split of the terms
    /// gives the same bits.
    pub(crate) fn combine(&self, sum: &mut ProductSum, other: ProductSum) {
        assert!(
            sum.primes() == other.primes() && sum.is_tensor() == other.is_tensor(),
            "partial sums of one product"
        );
        for (part, other) in sum.parts.iter_mut().zip(other.parts) {
            part.add(&self.ring, other);
        }
        sum.at = self.rule.add(sum.at, other.at);
    }

    /// A finished sum of products: each part inverse-transformed once;
    /// a tensor sum then relinearises `d2` with one key switch and
    /// switches moduli to re-normalise noise.
    pub fn finish(&self, sum: ProductSum) -> Ciphertext {
        let mut parts = sum.parts.into_iter().map(|part| part.into_poly(&self.ring));
        let (c0, c1) = (parts.next().expect("c0"), parts.next().expect("c1"));
        let Some(d2) = parts.next() else {
            return Ciphertext {
                c0,
                c1,
                noise: sum.at.noise,
            };
        };
        let (k0, k1) = self.key_switch(&d2, KeySwitch::Relinearisation, |keys| &keys.relin);
        let ct = Ciphertext {
            c0: self.ring.add(&c0, &k0),
            c1: self.ring.add(&c1, &k1),
            noise: self.rule.relinearise(sum.at).noise,
        };
        self.reduce(ct, MUL_INPUT_BITS)
    }

    /// Rotates packed slots left by `k` (full slot width) via the
    /// Galois automorphism and its switching key (built first if the
    /// held keys stop below the ciphertext's level; see
    /// [`BgvScheme::switch_keys`]).
    ///
    /// # Panics
    ///
    /// Panics in the negacyclic flavor (no slot structure, hence no
    /// slot rotations). The panic carries the typed
    /// [`BackendError`] as its payload (`panic_any`), so a
    /// `catch_unwind` boundary can downcast it back to the error
    /// instead of scraping a string. Use
    /// [`BgvScheme::try_rotate_slots`] to get the capability failure
    /// as a plain `Result` instead.
    pub fn rotate_slots(&self, a: &Ciphertext, k: isize) -> Ciphertext {
        self.try_rotate_slots(a, k)
            .unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// [`BgvScheme::rotate_slots`] returning the negacyclic flavor's
    /// missing slot structure as a typed error rather than a panic.
    ///
    /// # Errors
    ///
    /// [`BackendError::Unsupported`] in the negacyclic flavor, which
    /// has no GF(2) slot structure and hence no rotation
    /// automorphisms.
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
        let r0 = self.ring.automorphism(&a.c0, exponent);
        let r1 = self.ring.automorphism(&a.c1, exponent);
        let (k0, k1) = self.key_switch(&r1, KeySwitch::Rotation, |keys| &keys.rotation[&exponent]);
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
    /// identical. The evaluation route sums each output row
    /// `Σ_{j,t} d_{j,t} ⋆ k_{j,t,i}` **exactly** over the integers in
    /// the scheme's auxiliary NTT basis (see
    /// [`RnsContext::key_switch_basis`]) and only then reduces it into
    /// chain prime `i`, so each digit is transformed once per aux prime
    /// rather than once per chain prime: `level · digits · r` forward
    /// transforms plus `2 · level · r` inverses per call (`r` aux
    /// primes, one at every shipped parameter point), linear in the
    /// level. The products sum unreduced in an
    /// [`EvalAcc`](crate::bgv::ring::EvalAcc), which a basis sized to
    /// the sum rarely has to flush. The coefficient route is the
    /// schoolbook oracle's.
    ///
    /// `key` picks the key out of the held [`SwitchKeys`], extended to
    /// `poly`'s level first if they stop below it. The switch is
    /// counted by `kind` in the installed scope's meter
    /// ([`OpMeter::key_switches`](crate::OpMeter::key_switches)).
    fn key_switch(
        &self,
        poly: &RnsPoly,
        kind: KeySwitch,
        key: impl FnOnce(&SwitchKeys) -> &KsKey,
    ) -> (RnsPoly, RnsPoly) {
        crate::meter::record_key_switch(kind);
        let level = self.ring.level_of(poly);
        let keys = self.switch_keys(level);
        match key(&keys) {
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
        assert!(parts.len() >= level, "switching key below the level");
        let (ring, aux) = (&self.ring, &self.aux);
        // Two forks, each bitwise identical to its sequential loop at any
        // chunking because the sums are exact: every digit transforms
        // once (a job per source prime), then every output row sums its
        // digit-times-key products and reduces into its chain prime (a
        // job per output row).
        let digits: Vec<Vec<EvalPoly>> = ring.par_rows(level, |j| {
            ring.decompose_digits(poly, j, self.params.ks_digit_bits)
                .iter()
                .map(|digit| ring.digit_to_aux(aux, digit))
                .collect()
        });
        let (c0, c1): (Vec<_>, Vec<_>) = ring
            .par_rows(level, |i| {
                let (mut acc0, mut acc1) = (aux.acc(), aux.acc());
                for (row_digits, key_row) in digits.iter().zip(parts) {
                    for (d, (b, a)) in row_digits.iter().zip(key_row) {
                        acc0.mul_add_rows(&d.rows, aux.rows_of(b, i));
                        acc1.mul_add_rows(&d.rows, aux.rows_of(a, i));
                    }
                }
                (
                    ring.from_aux(aux, acc0.finish(), i),
                    ring.from_aux(aux, acc1.finish(), i),
                )
            })
            .into_iter()
            .unzip();
        (RnsPoly { residues: c0 }, RnsPoly { residues: c1 })
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
        assert!(parts.len() >= level, "switching key below the level");
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

    /// Runs one relinearisation key switch on `ct.c1` — the key switch
    /// [`BgvScheme::finish`] runs on a tensor's `d2`, once per
    /// ciphertext product or summed tensor (rotations switch with the
    /// Galois keys instead) — exposed for benchmarking and
    /// transform-count ablations.
    pub fn key_switch_relin(&self, ct: &Ciphertext) -> (RnsPoly, RnsPoly) {
        self.key_switch(&ct.c1, KeySwitch::Relinearisation, |keys| &keys.relin)
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
    pub fn reduce(&self, a: Ciphertext, target_bits: f64) -> Ciphertext {
        let to = self.rule.reduce(self.position(&a), target_bits);
        self.switch_down(a, to.primes)
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
        let and = s.mul_plain(&ct, &pt);
        let want_and: Vec<bool> = a.iter().zip(&mask).map(|(&x, &y)| x && y).collect();
        assert_eq!(dec_bits(&s, &and, 6), want_and);
    }

    #[test]
    fn plaintext_products_charge_the_same_noise_for_every_operand() {
        let s = scheme();
        let ct = enc_bits(&s, &[true, false, true, false, false, true]);
        let sparse = s.mul_plain(&ct, &Gf2Poly::one());
        let dense = s.mul_plain(&ct, &Gf2Poly::all_ones(s.params().phi()));
        assert_eq!(s.noise_bits(&sparse), s.noise_bits(&dense));
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
        let p_on = on.mul_plain(&a_on, &mask);
        let p_off = off.mul_plain(&a_off, &mask);
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
        let (q_on, q_off) = (on.mul_plain(&low_on, &mask), off.mul_plain(&low_off, &mask));
        assert_eq!(q_on.c0, q_off.c0, "reduced-level mul_plain c0");
    }

    #[test]
    fn symmetric_encryptions_decrypt_at_every_level() {
        // Directly at each level, on both routes alike: the schoolbook
        // oracle draws the same seeds and errors and gets the same bits.
        let (on, off) = (
            scheme(),
            BgvScheme::keygen_with_ntt(BgvParams::tiny(), false),
        );
        let bits = [true, false, true, true, false, true];
        let pt = on.slots().encode(&BitVec::from_bools(&bits));
        for primes in 1..=on.params().chain_len {
            let (ct, seed) = on.encrypt_symmetric(&pt, primes);
            assert_eq!(on.level(&ct), primes);
            assert_eq!(dec_bits(&on, &ct, 6), bits, "{primes} primes");
            assert_eq!(
                off.encrypt_symmetric(&pt, primes),
                (ct, seed),
                "{primes} primes"
            );
        }
    }

    #[test]
    fn symmetric_noise_is_one_small_vector_in_every_row() {
        // `c0 + c1·s` centred mod each prime is `2e + m` itself, the
        // same vector in every row and within the rule's estimate, so
        // reading it needs no CRT lift.
        let s = scheme();
        let bits = [false, true, true, false, true, false];
        let pt = s.slots().encode(&BitVec::from_bools(&bits));
        for primes in [1, 4, s.params().chain_len] {
            let (ct, _) = s.encrypt_symmetric(&pt, primes);
            let secret = s.ring.reduce_level(&s.secret, primes);
            let v = s.ring.add(&ct.c0, &s.ring.mul(&ct.c1, &secret));
            let rows: Vec<Vec<i64>> = v
                .residues
                .iter()
                .zip(s.ring.primes())
                .map(|(row, &q)| {
                    row.iter()
                        .map(|&c| crate::math::modq::center(c, q))
                        .collect()
                })
                .collect();
            assert!(rows.iter().all(|row| *row == rows[0]), "{primes} primes");
            let bound = s.level_rule().encrypt_symmetric(primes).noise;
            assert_eq!(bound, f64::from(2 * s.params().error_eta + 1));
            assert_eq!(ct.noise, bound);
            assert!(rows[0].iter().all(|&c| c.unsigned_abs() as f64 <= bound));
            let parity: Vec<bool> = rows[0].iter().map(|&c| c.rem_euclid(2) == 1).collect();
            assert_eq!(
                parity,
                (0..parity.len()).map(|i| pt.coeff(i)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn symmetric_encryptions_share_neither_seed_nor_c0() {
        let s = scheme();
        let pt = s.slots().encode(&BitVec::from_bools(&[true; 6]));
        let (a, seed_a) = s.encrypt_symmetric(&pt, 3);
        let (b, seed_b) = s.encrypt_symmetric(&pt, 3);
        assert_ne!(seed_a, seed_b);
        assert_ne!(a.c0, b.c0);
        // `c1` is what the seed expands to, with no key.
        assert_eq!(a.c1, s.ring().expand_uniform(3, seed_a));
    }

    #[test]
    fn planes_enter_a_circuit_in_one_state_wherever_they_were_made() {
        // Made at the entry, made at the top and switched down, or
        // under the public key: each enters at 4 primes with the
        // rule's entry noise, the switch floor, and decrypts.
        let s = scheme();
        let bits = [true, true, false, true, false, false];
        let pt = s.slots().encode(&BitVec::from_bools(&bits));
        let top = s.params().chain_len;
        let planes = [
            s.encrypt_symmetric(&pt, 4).0,
            s.encrypt_symmetric(&pt, top).0,
            enc_bits(&s, &bits),
        ];
        let state = s.level_rule().enter(s.level_rule().encrypt(), 4);
        for (i, plane) in planes.iter().enumerate() {
            let entered = s.enter(plane, 4);
            assert_eq!(s.position(&entered), state, "plane {i}");
            assert_eq!(dec_bits(&s, &entered, 6), bits, "plane {i}");
        }
        assert!(s.position(&planes[0]).noise < state.noise);
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
        fn keys(s: &SwitchKeys) -> impl Iterator<Item = &KsKey> {
            std::iter::once(&s.relin).chain(s.rotation.values())
        }
        for params in [BgvParams::tiny(), BgvParams::negacyclic_tiny()] {
            let ntt = BgvScheme::keygen(params).switch_keys(params.chain_len);
            let oracle = BgvScheme::keygen_with_ntt(params, false).switch_keys(params.chain_len);
            assert_eq!(ntt.rotation.len(), oracle.rotation.len());
            assert!(keys(&ntt).all(|k| matches!(k, KsKey::Eval(p) if !p.is_empty())));
            assert!(keys(&oracle).all(|k| matches!(k, KsKey::Coeff(p) if !p.is_empty())));
        }
    }

    #[test]
    fn key_switch_basis_is_derived_from_the_params() {
        // One auxiliary prime at every shipped point, none of them in
        // the chain; two at 62-bit chains, whose sums pass 2^80.
        let wide = BgvParams {
            prime_bits: 62,
            ..BgvParams::tiny()
        };
        for (params, primes) in [
            (BgvParams::tiny(), 1),
            (BgvParams::negacyclic_tiny(), 1),
            (wide, 2),
        ] {
            let s = BgvScheme::keygen(params);
            assert_eq!(s.aux.primes().len(), primes, "{params:?}");
            assert!(s
                .aux
                .primes()
                .iter()
                .all(|p| !s.ring().primes().contains(p)));
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
        let chain = BgvParams::tiny().chain_len;
        let serial_scheme = BgvScheme::keygen_with_threads(BgvParams::tiny(), true, 1);
        let serial = serial_scheme.switch_keys(chain);
        for threads in [2usize, 4, 7] {
            let par_scheme = BgvScheme::keygen_with_threads(BgvParams::tiny(), true, threads);
            let par = par_scheme.switch_keys(chain);
            assert_eq!(par_scheme.secret, serial_scheme.secret, "threads {threads}");
            assert_eq!(par_scheme.public, serial_scheme.public, "threads {threads}");
            assert_eq!(par.relin, serial.relin, "threads {threads}");
            assert_eq!(par.rotation.len(), serial.rotation.len());
            for (exponent, key) in &serial.rotation {
                let p = par.rotation.get(exponent).expect("same exponent set");
                assert_eq!(p, key, "key {exponent}, threads {threads}");
            }
        }
    }

    #[test]
    fn key_bytes_follow_the_deepest_level_asked_for() {
        // keys × ℓ × D × 2 × ℓ × r × N × 8 B (docs/PARAMETERS.md "Key
        // material"): nothing at keygen, the entry level's worth once
        // prepared, unchanged by key switches at or below it, and the
        // full chain's after a fresh-level rotate.
        let s = scheme();
        let p = s.params();
        let (keys, digits) = (
            s.slots().nslots(),
            p.prime_bits.div_ceil(p.ks_digit_bits) as usize,
        );
        let (r, n) = (s.aux.primes().len(), s.ring().transform_size());
        let bytes = |l: usize| keys * l * digits * 2 * l * r * n * 8;
        assert_eq!(s.key_bytes(), 0, "keygen builds no switching key");
        let entry = 4;
        s.switch_keys(entry);
        assert_eq!(s.key_bytes(), bytes(entry));
        let ct = s
            .mod_switch_to(
                &enc_bits(&s, &[true, false, true, true, false, false]),
                entry,
            )
            .into_owned();
        let low = s.mul(&s.rotate_slots(&ct, 2), &ct);
        let _ = s.rotate_slots(&low, 1);
        assert!(s.level(&low) < entry);
        assert_eq!(
            s.key_bytes(),
            bytes(entry),
            "key switches at or below the entry level"
        );
        let fresh = s.rotate_slots(&enc_bits(&s, &[true; 6]), 1);
        assert_eq!(dec_bits(&s, &fresh, 6), vec![true; 6]);
        assert_eq!(
            s.key_bytes(),
            bytes(p.chain_len),
            "a fresh-level rotate extends the keys"
        );
        assert_eq!(bytes(p.chain_len), 6 * 10 * 4 * 2 * 10 * 64 * 8);
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
        assert!(
            s.switch_keys(s.params().chain_len).rotation.is_empty(),
            "no rotation keys without slots"
        );
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
        let (p_n, p_s) = (ntt.mul_plain(&a_n, &pt), school.mul_plain(&a_s, &pt));
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
