//! RNS polynomial arithmetic for the BGV scheme.
//!
//! Ring: `R_Q = Z_Q[X] / Φ_m(X)` with the ciphertext modulus `Q` held
//! in **residue number system** form as a product of distinct odd
//! word-sized primes (the modulus chain). A polynomial is stored as
//! one residue vector per active prime; dropping the last prime
//! (modulus switching) simply drops a row.
//!
//! Two cyclotomic **ring flavors** share this representation
//! ([`RingFlavor`]):
//!
//! * [`RingFlavor::PrimeCyclotomic`] — odd prime `m`, degree
//!   `φ(m) = m - 1`. Reduction modulo `Φ_m = 1 + X + ... + X^(m-1)`
//!   uses the prime-`m` identity
//!   `X^(m-1) ≡ -(1 + X + ... + X^(m-2))`: multiply modulo `X^m - 1`
//!   (cyclic wrap), then fold the top coefficient. The NTT fast path
//!   computes the *linear* product by zero-padded
//!   forward/pointwise/inverse transforms of size
//!   `next_pow2(2m - 1)` (chain primes `q ≡ 1 mod 2^s` from
//!   [`crate::math::modq::ntt_chain_primes`]), then wraps and folds.
//! * [`RingFlavor::NegacyclicPow2`] — power-of-two index `m = 2n`,
//!   `Φ_m = X^n + 1`, degree `φ(m) = n`. Products reduce by the
//!   negacyclic wrap `X^n ≡ -1` and the NTT fast path is the
//!   `ψ`-twisted transform of size **exactly `n`** — no zero padding,
//!   no wrap/fold, half the transform length of the prime flavor at
//!   comparable degree (chain primes `2n | q - 1` from
//!   [`crate::math::modq::negacyclic_chain_primes`]).
//!
//! In both flavors a chain prime whose multiplicative group is too
//! small for the transform falls back to a schoolbook `O(φ(m)^2)`
//! convolution (cyclic-wrap-and-fold or negacyclic respectively),
//! which doubles as the test oracle for the NTT path.

use crate::math::modq::{add_mod, gcd, inv_mod, mul_mod, ntt_chain_primes, sub_mod};
use crate::math::ntt::{add_q, mul_shoup, shoup, sub_q, NttPlan};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The cyclotomic family a ring context reduces in.
///
/// The flavor fixes the ring degree, the reduction rule applied after
/// every product, and the shape (and size) of the NTT fast path; see
/// the module docs for the full comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingFlavor {
    /// `Z_q[X]/Φ_m(X)` for an odd prime `m`: degree `m - 1`,
    /// zero-padded linear-convolution NTTs of size `next_pow2(2m - 1)`
    /// followed by a cyclic wrap and `Φ_m` fold.
    PrimeCyclotomic,
    /// `Z_q[X]/(X^n + 1)` for `n = m/2` a power of two: degree `n`,
    /// `ψ`-twisted negacyclic NTTs of size exactly `n`, products come
    /// back fully reduced.
    NegacyclicPow2,
}

/// Shared ring description: the cyclotomic index, the ring flavor, the
/// full modulus chain, and one cached NTT plan per NTT-friendly chain
/// prime.
#[derive(Debug)]
pub struct RnsContext {
    m: usize,
    phi: usize,
    flavor: RingFlavor,
    primes: Vec<u64>,
    /// One plan per chain prime, sized `next_pow2(2m - 1)` (prime
    /// flavor) or `m/2` (negacyclic flavor); `None` where the prime's
    /// 2-adicity is too small (schoolbook fallback).
    plans: Vec<Option<NttPlan>>,
    /// [`RnsContext::mod_switch_down`]'s constants, from `switch_table`.
    switch_inv: Vec<Vec<(u64, u64)>>,
    use_ntt: bool,
    /// Parallel degree for per-prime row loops (1 = sequential). An
    /// atomic so the knob can be turned through a shared handle (the
    /// server holds its backend in an `Arc`); results are bitwise
    /// independent of the value — see [`RnsContext::set_threads`].
    threads: AtomicUsize,
}

impl Clone for RnsContext {
    fn clone(&self) -> Self {
        Self {
            m: self.m,
            phi: self.phi,
            flavor: self.flavor,
            primes: self.primes.clone(),
            plans: self.plans.clone(),
            switch_inv: self.switch_inv.clone(),
            use_ntt: self.use_ntt,
            threads: AtomicUsize::new(self.threads.load(Ordering::Relaxed)),
        }
    }
}

/// A ring element over a prefix of the modulus chain.
///
/// `residues[j][i]` is coefficient `i` modulo `primes[j]`; the number
/// of rows is the element's *level* (active primes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RnsPoly {
    pub(crate) residues: Vec<Vec<u64>>,
}

/// A ring element in the **evaluation (NTT) domain**: one length-
/// [`RnsContext::transform_size`] forward transform per active prime.
///
/// In the prime flavor, pointwise products of evaluation rows are
/// linear convolutions of the corresponding coefficient rows (no
/// cyclic aliasing: a single product has degree `<= 2m - 4 < n`, and
/// the transform is linear, so sums of products stay representable
/// too). In the negacyclic flavor the rows are `ψ`-twisted transforms
/// of size exactly `n`, and pointwise products are negacyclic
/// convolutions — already reduced ring products, same linearity
/// argument. Either way this is the
/// natural resident form for *hot fixed operands* — key-switching key
/// parts and plaintext model diagonals are transformed once and then
/// multiply-accumulated pointwise against each query, with a single
/// inverse transform per output row at the end.
///
/// Level reduction is a prefix view: operations that take an
/// `EvalPoly` operand at a higher level than the accumulator simply
/// read its first rows — no cloning of key material.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalPoly {
    pub(crate) rows: Vec<Vec<u64>>,
}

impl EvalPoly {
    /// Number of active primes (rows).
    pub fn level(&self) -> usize {
        self.rows.len()
    }
}

/// A pointwise multiply-accumulator over evaluation-domain rows, built
/// by [`RnsContext::eval_acc`]: `Σ a_i ∘ b_i` summed **unreduced** in
/// `u128`, with one reduction per point at [`EvalAcc::finish`] instead
/// of a `u128` division per product and per sum.
///
/// Each product of canonical operands is at most `(q_max − 1)²`, so
/// `⌊(2¹²⁸ − 1)/(q_max − 1)²⌋` of them fit: beyond 2⁷⁸ at 25-bit
/// primes, only 16 at 62-bit ones. When the next product could
/// overflow, every point is reduced in place (a *flush*; the residue
/// then counts as one product) and summation continues. Reduction mod
/// `q` is exact whenever it happens, so the result equals the
/// canonical modular sum bit for bit.
#[derive(Clone, Debug)]
pub struct EvalAcc {
    primes: Vec<u64>,
    rows: Vec<Vec<u128>>,
    /// Products each point may hold before a flush.
    capacity: u128,
    /// Products (or flushed residues) each point holds now.
    held: u128,
}

impl EvalAcc {
    /// `self += a ∘ b`, row by row. The operands may live at a
    /// *higher* level than the accumulator — only its level's worth of
    /// rows are read, which is how full-level key parts serve
    /// reduced-level ciphertexts without being cloned.
    ///
    /// # Panics
    ///
    /// Panics if an operand has fewer rows than the accumulator.
    pub fn mul_add(&mut self, a: &EvalPoly, b: &EvalPoly) {
        let level = self.rows.len();
        assert!(
            a.rows.len() >= level && b.rows.len() >= level,
            "operand below the accumulator level"
        );
        if self.held == self.capacity {
            for (row, &q) in self.rows.iter_mut().zip(&self.primes) {
                for o in row.iter_mut() {
                    *o %= u128::from(q);
                }
            }
            self.held = 1;
        }
        for ((out, x), y) in self.rows.iter_mut().zip(&a.rows).zip(&b.rows) {
            for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
                *o += u128::from(x) * u128::from(y);
            }
        }
        self.held += 1;
    }

    /// The canonical sum: one reduction per point.
    pub fn finish(self) -> EvalPoly {
        EvalPoly {
            rows: self
                .rows
                .into_iter()
                .zip(&self.primes)
                .map(|(row, &q)| {
                    row.into_iter()
                        .map(|o| (o % u128::from(q)) as u64)
                        .collect()
                })
                .collect(),
        }
    }
}

impl RnsContext {
    /// Creates a prime-cyclotomic context for odd prime `m` with the
    /// given chain.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even (use [`RnsContext::new_negacyclic`] for
    /// power-of-two indices), fewer than one prime is supplied, any
    /// prime is even, or two primes are not coprime.
    pub fn new(m: usize, primes: Vec<u64>) -> Self {
        assert!(
            m >= 3 && m % 2 == 1,
            "prime-cyclotomic index must be an odd prime; \
             use new_negacyclic for power-of-two indices"
        );
        Self::check_chain(&primes);
        let n = Self::ntt_size(m);
        let plans = primes.iter().map(|&q| NttPlan::new(q, n)).collect();
        Self {
            m,
            phi: m - 1,
            flavor: RingFlavor::PrimeCyclotomic,
            switch_inv: Self::switch_table(&primes),
            primes,
            plans,
            use_ntt: true,
            threads: AtomicUsize::new(1),
        }
    }

    /// Creates a negacyclic power-of-two context: cyclotomic index
    /// `m = 2n` (a power of two `>= 4`), ring `Z_q[X]/(X^n + 1)` of
    /// degree `n = m/2`. Per-prime plans are built at size exactly `n`
    /// — the transform-size halving the negacyclic flavor exists for —
    /// and their `ψ` twist tables are available whenever
    /// `2n | q - 1` (as produced by
    /// [`crate::math::modq::negacyclic_chain_primes`]); other primes
    /// fall back to the negacyclic schoolbook convolution.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two `>= 4`, fewer than one
    /// prime is supplied, any prime is even, or two primes are not
    /// coprime.
    pub fn new_negacyclic(m: usize, primes: Vec<u64>) -> Self {
        assert!(
            m.is_power_of_two() && m >= 4,
            "negacyclic cyclotomic index must be a power of two >= 4"
        );
        Self::check_chain(&primes);
        let n = m / 2;
        let plans = primes
            .iter()
            .map(|&q| NttPlan::new(q, n).filter(|p| p.supports_negacyclic()))
            .collect();
        Self {
            m,
            phi: n,
            flavor: RingFlavor::NegacyclicPow2,
            switch_inv: Self::switch_table(&primes),
            primes,
            plans,
            use_ntt: true,
            threads: AtomicUsize::new(1),
        }
    }

    fn check_chain(primes: &[u64]) {
        assert!(!primes.is_empty(), "modulus chain must be nonempty");
        assert!(
            primes.iter().all(|&q| q % 2 == 1),
            "chain primes must be odd"
        );
    }

    /// Sets the parallel degree for per-prime row loops: with
    /// `threads > 1`, multiplications, forward/inverse transforms, and
    /// pointwise kernels fork their independent residue rows onto the
    /// process-wide [`copse_pool::global`] worker pool.
    ///
    /// Results are **bitwise identical** for every value: each prime's
    /// row is computed independently and collected in chain order, so
    /// the degree only affects wall-clock time. `1` (the default) is
    /// the fully sequential differential baseline.
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(threads.max(1), Ordering::Relaxed);
    }

    /// The configured parallel degree for per-prime row loops.
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// Runs `f(j)` for each of `rows` per-prime rows, forking onto the
    /// shared pool when the parallel degree allows and this thread is
    /// not already inside a pool task (inner μs-scale loops gain
    /// nothing from forking under an already-parallel outer stage).
    /// Row order is preserved, so parallel == sequential bitwise.
    fn par_rows<R: Send>(&self, rows: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let threads = self.threads();
        if threads > 1 && rows > 1 && !copse_pool::in_worker() {
            copse_pool::global().scope_indices(rows, threads, f)
        } else {
            (0..rows).map(f).collect()
        }
    }

    /// Transform length of the **prime flavor** for linear products of
    /// two degree-`< φ(m)` rows: the product has degree `<= 2m - 4`,
    /// so `next_pow2(2m - 1)` holds it without cyclic aliasing.
    /// (Flavor-aware callers want [`RnsContext::transform_size`].)
    pub fn ntt_size(m: usize) -> usize {
        (2 * m - 1).next_power_of_two()
    }

    /// The per-prime NTT length this context transforms at:
    /// `next_pow2(2m - 1)` in the prime flavor, exactly `n = m/2` in
    /// the negacyclic flavor (half or less at comparable degree).
    pub fn transform_size(&self) -> usize {
        match self.flavor {
            RingFlavor::PrimeCyclotomic => Self::ntt_size(self.m),
            RingFlavor::NegacyclicPow2 => self.phi,
        }
    }

    /// The cyclotomic family this context reduces in.
    pub fn flavor(&self) -> RingFlavor {
        self.flavor
    }

    /// Whether the NTT fast path is enabled (per-prime plans still
    /// decide availability; unfriendly primes always use schoolbook).
    pub fn ntt_enabled(&self) -> bool {
        self.use_ntt
    }

    /// Enables or disables the NTT fast path; with `false` every
    /// product takes the schoolbook route (the test oracle). Only for
    /// building a context (keygen, the `*_schoolbook_pair`s): keys are
    /// derived in the form the route reads.
    pub(crate) fn set_ntt_enabled(&mut self, enabled: bool) {
        self.use_ntt = enabled;
    }

    /// Number of chain primes holding a cached NTT plan.
    pub fn ntt_ready_primes(&self) -> usize {
        self.plans.iter().filter(|p| p.is_some()).count()
    }

    /// Builds the same ring twice over one freshly generated
    /// NTT-friendly chain: once on the fast path and once forced
    /// through schoolbook. The differential-testing and benchmarking
    /// pairing — both contexts compute bitwise-identical products.
    pub fn ntt_schoolbook_pair(m: usize, prime_bits: u32, chain: usize) -> (Self, Self) {
        let s = Self::ntt_size(m).trailing_zeros();
        let primes = ntt_chain_primes(prime_bits, chain, s);
        let ntt = Self::new(m, primes.clone());
        assert_eq!(ntt.ntt_ready_primes(), chain, "chain generated friendly");
        let mut school = Self::new(m, primes);
        school.set_ntt_enabled(false);
        (ntt, school)
    }

    /// [`RnsContext::ntt_schoolbook_pair`] for the negacyclic flavor:
    /// the same ring `Z_q[X]/(X^n + 1)` built twice over one freshly
    /// generated `2n | q - 1` chain, once on the size-`n` `ψ`-twisted
    /// NTT path and once forced through the negacyclic schoolbook
    /// oracle. Both contexts compute bitwise-identical products.
    pub fn negacyclic_schoolbook_pair(n: usize, prime_bits: u32, chain: usize) -> (Self, Self) {
        let primes = crate::math::modq::negacyclic_chain_primes(prime_bits, chain, n);
        let ntt = Self::new_negacyclic(2 * n, primes.clone());
        assert_eq!(ntt.ntt_ready_primes(), chain, "chain generated friendly");
        let mut school = Self::new_negacyclic(2 * n, primes);
        school.set_ntt_enabled(false);
        (ntt, school)
    }

    /// Cyclotomic index `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Ring degree `φ(m) = m - 1`.
    pub fn phi(&self) -> usize {
        self.phi
    }

    /// The full modulus chain.
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// Number of active primes of an element.
    pub fn level_of(&self, a: &RnsPoly) -> usize {
        a.residues.len()
    }

    /// The zero element at `level` primes.
    pub fn zero(&self, level: usize) -> RnsPoly {
        RnsPoly {
            residues: vec![vec![0; self.phi]; level],
        }
    }

    /// Lifts a small signed polynomial (degree < φ) to all `level`
    /// primes.
    pub fn from_signed(&self, coeffs: &[i64], level: usize) -> RnsPoly {
        assert!(coeffs.len() <= self.phi, "degree too large for the ring");
        let residues = self.primes[..level]
            .iter()
            .map(|&q| {
                let mut row = vec![0u64; self.phi];
                for (i, &c) in coeffs.iter().enumerate() {
                    row[i] = c.rem_euclid(q as i64) as u64;
                }
                row
            })
            .collect();
        RnsPoly { residues }
    }

    /// Uniformly random element at `level` primes.
    pub fn sample_uniform(&self, level: usize, rng: &mut impl Rng) -> RnsPoly {
        RnsPoly {
            residues: self.primes[..level]
                .iter()
                .map(|&q| (0..self.phi).map(|_| rng.gen_range(0..q)).collect())
                .collect(),
        }
    }

    /// Random ternary polynomial (coefficients in {-1, 0, 1} with
    /// probabilities 1/4, 1/2, 1/4) as signed coefficients.
    pub fn sample_ternary(&self, rng: &mut impl Rng) -> Vec<i64> {
        (0..self.phi)
            .map(|_| match rng.gen_range(0..4u8) {
                0 => -1,
                1 | 2 => 0,
                _ => 1,
            })
            .collect()
    }

    /// Centered-binomial error polynomial with parameter `eta`
    /// (variance `eta/2`), as signed coefficients.
    pub fn sample_error(&self, eta: u32, rng: &mut impl Rng) -> Vec<i64> {
        (0..self.phi)
            .map(|_| {
                let mut acc = 0i64;
                for _ in 0..eta {
                    acc += i64::from(rng.gen::<bool>());
                    acc -= i64::from(rng.gen::<bool>());
                }
                acc
            })
            .collect()
    }

    fn check_same_level(&self, a: &RnsPoly, b: &RnsPoly) {
        assert_eq!(
            a.residues.len(),
            b.residues.len(),
            "RNS level mismatch: {} vs {}",
            a.residues.len(),
            b.residues.len()
        );
    }

    /// `a + b`.
    pub fn add(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.check_same_level(a, b);
        self.zip(a, b, add_q)
    }

    /// `a - b`.
    pub fn sub(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.check_same_level(a, b);
        self.zip(a, b, sub_q)
    }

    /// `-a`.
    pub fn neg(&self, a: &RnsPoly) -> RnsPoly {
        RnsPoly {
            residues: a
                .residues
                .iter()
                .zip(&self.primes)
                .map(|(row, &q)| row.iter().map(|&x| sub_q(0, x, q)).collect())
                .collect(),
        }
    }

    /// Scales by a small unsigned constant (e.g. the plaintext modulus
    /// 2).
    pub fn mul_scalar(&self, a: &RnsPoly, k: u64) -> RnsPoly {
        RnsPoly {
            residues: a
                .residues
                .iter()
                .zip(&self.primes)
                .map(|(row, &q)| row.iter().map(|&x| mul_mod(x, k % q, q)).collect())
                .collect(),
        }
    }

    /// Full ring product `a * b mod (Φ_m, Q)`: per chain prime, an NTT
    /// linear convolution when a plan is cached (and the fast path is
    /// enabled), schoolbook otherwise; both then wrap mod `X^m - 1`
    /// and fold the top coefficient by `Φ_m`.
    pub fn mul(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.check_same_level(a, b);
        self.mul_prefix(a, b, a.residues.len())
    }

    /// [`RnsContext::mul`] restricted to the first `level` rows of each
    /// operand. Level reduction happens as a borrowed row-prefix view,
    /// so multiplying full-level key material at a ciphertext's lower
    /// level costs no intermediate clone.
    ///
    /// # Panics
    ///
    /// Panics if either operand has fewer than `level` rows.
    pub fn mul_prefix(&self, a: &RnsPoly, b: &RnsPoly, level: usize) -> RnsPoly {
        assert!(
            a.residues.len() >= level && b.residues.len() >= level,
            "operand below the requested level"
        );
        let residues = self.par_rows(level, |j| {
            let q = self.primes[j];
            match (&self.plans[j], self.flavor) {
                (Some(plan), RingFlavor::PrimeCyclotomic) if self.use_ntt => {
                    self.mul_row_ntt(plan, &a.residues[j], &b.residues[j], q)
                }
                (Some(plan), RingFlavor::NegacyclicPow2) if self.use_ntt => {
                    plan.negacyclic_mul(&a.residues[j], &b.residues[j])
                }
                (_, RingFlavor::PrimeCyclotomic) => {
                    self.mul_row_schoolbook(&a.residues[j], &b.residues[j], q)
                }
                (_, RingFlavor::NegacyclicPow2) => {
                    self.mul_row_schoolbook_negacyclic(&a.residues[j], &b.residues[j], q)
                }
            }
        });
        RnsPoly { residues }
    }

    /// NTT path: zero-pad both rows to the plan size, take the linear
    /// product via forward/pointwise/inverse transforms (coefficients
    /// come back fully reduced mod `q`), then wrap mod `X^m - 1` and
    /// fold. The product degree `2φ - 2 = 2m - 4` fits the
    /// `next_pow2(2m - 1)` transform, so no cyclic aliasing occurs
    /// inside the NTT itself.
    fn mul_row_ntt(&self, plan: &NttPlan, a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        let full = plan.cyclic_mul(a, b);
        self.wrap_fold(&full, q)
    }

    /// Reduces an `n`-coefficient linear-convolution row into the ring:
    /// wrap mod `X^m - 1`, then fold the top coefficient by `Φ_m`.
    /// Prime flavor only — negacyclic products come back reduced.
    fn wrap_fold(&self, full: &[u64], q: u64) -> Vec<u64> {
        debug_assert_eq!(self.flavor, RingFlavor::PrimeCyclotomic);
        let mut wrapped = vec![0u64; self.m];
        for chunk in full.chunks(self.m) {
            for (w, &c) in wrapped.iter_mut().zip(chunk) {
                *w = add_q(*w, c, q);
            }
        }
        self.fold_row(wrapped, q)
    }

    /// Schoolbook fallback (and test oracle for the NTT path): the
    /// `O(φ^2)` convolution accumulates directly mod `X^m - 1`,
    /// reducing every term with `mul_mod`/`add_mod` so coefficients
    /// stay canonical for arbitrary word-sized chains — no lazy `u128`
    /// accumulator, whose headroom would cap `φ · q^2` and thus tie the
    /// ring degree to the prime size.
    fn mul_row_schoolbook(&self, a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        let m = self.m;
        let mut wrapped = vec![0u64; m];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                if bj == 0 {
                    continue;
                }
                let k = (i + j) % m;
                wrapped[k] = add_mod(wrapped[k], mul_mod(ai, bj, q), q);
            }
        }
        self.fold_row(wrapped, q)
    }

    /// Negacyclic schoolbook fallback (and test oracle for the
    /// `ψ`-twisted NTT path): the `O(n^2)` convolution reduced on the
    /// fly by `X^n ≡ -1` — a term wrapping past `X^(n-1)` *subtracts*
    /// at `i + j - n`. Degrees stay below `n`, so a single wrap
    /// suffices.
    fn mul_row_schoolbook_negacyclic(&self, a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        let n = self.phi;
        let mut out = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                if bj == 0 {
                    continue;
                }
                let p = mul_mod(ai, bj, q);
                if i + j < n {
                    out[i + j] = add_mod(out[i + j], p, q);
                } else {
                    out[i + j - n] = sub_mod(out[i + j - n], p, q);
                }
            }
        }
        out
    }

    /// Whether the evaluation-domain APIs are usable at `level`: the
    /// fast path is enabled and every one of the first `level` chain
    /// primes holds a cached plan (negacyclic plans are only cached
    /// when their `ψ` twist tables exist, so no extra check is needed
    /// per flavor).
    pub fn eval_ready(&self, level: usize) -> bool {
        self.use_ntt && self.plans[..level].iter().all(|p| p.is_some())
    }

    /// Forward-transforms an element into the evaluation domain: one
    /// zero-padded NTT per active prime (prime flavor) or one
    /// `ψ`-twisted size-`n` NTT per active prime (negacyclic flavor).
    ///
    /// # Panics
    ///
    /// Panics unless [`RnsContext::eval_ready`] holds at the element's
    /// level.
    pub fn to_eval(&self, a: &RnsPoly) -> EvalPoly {
        let rows = self.par_rows(a.residues.len(), |j| {
            let row = &a.residues[j];
            let plan = self.plans[j]
                .as_ref()
                .expect("chain prime lacks an NTT plan");
            let mut padded = vec![0u64; plan.size()];
            padded[..row.len()].copy_from_slice(row);
            match self.flavor {
                RingFlavor::PrimeCyclotomic => plan.forward(&mut padded),
                RingFlavor::NegacyclicPow2 => plan.forward_negacyclic(&mut padded),
            }
            padded
        });
        EvalPoly { rows }
    }

    /// Forward-transforms a *small non-negative* polynomial (e.g.
    /// key-switching digits `< B`) to `level` evaluation rows — one
    /// transform per prime. Coefficients `>= q` are reduced modulo each
    /// prime on the way in: wide digit configurations (`B >=` a chain
    /// prime, as in a one-digit-per-prime decomposition) produce digits
    /// that exceed the *smaller* active primes, and the transform
    /// requires canonical inputs. Narrow digits never reach the
    /// division.
    ///
    /// # Panics
    ///
    /// Panics on degree overflow.
    pub fn small_to_eval(&self, coeffs: &[u64], level: usize) -> EvalPoly {
        assert!(coeffs.len() <= self.phi, "degree too large for the ring");
        let rows = self.par_rows(level, |j| {
            let q = self.primes[j];
            let plan = self.plans[j]
                .as_ref()
                .expect("chain prime lacks an NTT plan");
            let mut padded = vec![0u64; plan.size()];
            for (p, &c) in padded.iter_mut().zip(coeffs) {
                *p = if c >= q { c % q } else { c };
            }
            match self.flavor {
                RingFlavor::PrimeCyclotomic => plan.forward(&mut padded),
                RingFlavor::NegacyclicPow2 => plan.forward_negacyclic(&mut padded),
            }
            padded
        });
        EvalPoly { rows }
    }

    /// Inverse-transforms an evaluation-domain element back to
    /// coefficient form: one inverse NTT per row, then (prime flavor
    /// only) wrap mod `X^m - 1` and fold by `Φ_m` — the negacyclic
    /// untwisted inverse is already the reduced residue row. Bitwise
    /// identical to performing the corresponding coefficient-domain
    /// products and sums directly (the transform is linear and exact
    /// over `Z_q`).
    pub fn from_eval(&self, e: &EvalPoly) -> RnsPoly {
        let residues = self.par_rows(e.rows.len(), |j| {
            let q = self.primes[j];
            let plan = self.plans[j]
                .as_ref()
                .expect("chain prime lacks an NTT plan");
            let mut full = e.rows[j].clone();
            match self.flavor {
                RingFlavor::PrimeCyclotomic => {
                    plan.inverse(&mut full);
                    self.wrap_fold(&full, q)
                }
                RingFlavor::NegacyclicPow2 => {
                    plan.inverse_negacyclic(&mut full);
                    full
                }
            }
        });
        RnsPoly { residues }
    }

    /// An empty [`EvalAcc`] at `level` rows: the one multiply-accumulate
    /// path, shared by the key switch's digit loop and the cross term of
    /// a ciphertext product.
    pub fn eval_acc(&self, level: usize) -> EvalAcc {
        let primes = self.primes[..level].to_vec();
        let q_max = *primes.iter().max().expect("an accumulator spans a prime");
        EvalAcc {
            capacity: u128::MAX / u128::from(q_max - 1).pow(2),
            rows: vec![vec![0; self.transform_size()]; level],
            held: 0,
            primes,
        }
    }

    /// Pointwise sum `acc += other`, row by row (used to fold the
    /// per-chunk partial sums of a parallel key switch back together;
    /// modular addition is exactly associative and commutative, so any
    /// fold order is bitwise identical).
    ///
    /// # Panics
    ///
    /// Panics if `other` has fewer rows than `acc`.
    pub fn eval_add_assign(&self, acc: &mut EvalPoly, other: &EvalPoly) {
        let level = acc.rows.len();
        assert!(other.rows.len() >= level, "operand below the accumulator");
        for (j, out) in acc.rows.iter_mut().enumerate() {
            let q = self.primes[j];
            for (o, &x) in out.iter_mut().zip(&other.rows[j]) {
                *o = add_q(*o, x, q);
            }
        }
    }

    /// Pointwise product of the first `level` rows of two
    /// evaluation-domain elements.
    ///
    /// # Panics
    ///
    /// Panics if either operand has fewer than `level` rows.
    pub fn eval_mul(&self, a: &EvalPoly, b: &EvalPoly, level: usize) -> EvalPoly {
        assert!(
            a.rows.len() >= level && b.rows.len() >= level,
            "operand below the requested level"
        );
        EvalPoly {
            rows: self.par_rows(level, |j| {
                let q = self.primes[j];
                a.rows[j]
                    .iter()
                    .zip(&b.rows[j])
                    .map(|(&x, &y)| mul_mod(x, y, q))
                    .collect()
            }),
        }
    }

    /// Lifts a small *non-negative* polynomial to `level` residue rows
    /// without the signed `rem_euclid` lift of
    /// [`RnsContext::from_signed`] (used by the coefficient-domain
    /// key-switch digit loop). Coefficients are reduced modulo each
    /// prime: wide key-switch digits can exceed the smaller chain
    /// primes (see [`RnsContext::small_to_eval`]), and the rows must
    /// stay canonical.
    pub fn from_small_unsigned(&self, coeffs: &[u64], level: usize) -> RnsPoly {
        assert!(coeffs.len() <= self.phi, "degree too large for the ring");
        let residues = self.primes[..level]
            .iter()
            .map(|&q| {
                let mut row = vec![0u64; self.phi];
                for (r, &c) in row.iter_mut().zip(coeffs) {
                    *r = c % q;
                }
                row
            })
            .collect();
        RnsPoly { residues }
    }

    /// Scales each prime's residue row by its own scalar (used for the
    /// RNS key-switching gadget factors `q*_j · B^t`).
    ///
    /// # Panics
    ///
    /// Panics if fewer scalars than active primes are supplied.
    pub fn mul_scalar_rns(&self, a: &RnsPoly, scalars: &[u64]) -> RnsPoly {
        assert!(scalars.len() >= a.residues.len(), "scalar per active prime");
        RnsPoly {
            residues: a
                .residues
                .iter()
                .enumerate()
                .map(|(j, row)| {
                    let q = self.primes[j];
                    let k = scalars[j] % q;
                    row.iter().map(|&x| mul_mod(x, k, q)).collect()
                })
                .collect(),
        }
    }

    /// Restricts an element to its first `level` primes (dropping
    /// residue rows without rescaling; used to reduce key material to
    /// a ciphertext's level).
    pub fn reduce_level(&self, a: &RnsPoly, level: usize) -> RnsPoly {
        assert!(level >= 1 && level <= a.residues.len(), "bad level");
        RnsPoly {
            residues: a.residues[..level].to_vec(),
        }
    }

    /// Applies the Galois map `X -> X^a`.
    ///
    /// In the negacyclic flavor, monomial images reduce by `X^n ≡ -1`:
    /// `X^(ia mod 2n)` lands at `ia mod n` with a sign flip whenever
    /// `ia mod 2n >= n`.
    ///
    /// # Panics
    ///
    /// Panics unless `gcd(a, m) = 1` (for the power-of-two index this
    /// means `a` odd): a non-unit exponent (such as `0` or a multiple
    /// of `m`) is not a Galois automorphism — it merges distinct
    /// monomials into shared slots and would silently return a
    /// corrupted ring element.
    pub fn automorphism(&self, p: &RnsPoly, a: u64) -> RnsPoly {
        let m = self.m as u64;
        assert!(
            gcd(a % m, m) == 1,
            "automorphism exponent {a} is not coprime to m = {m}"
        );
        // Coefficient `i` lands at `i·a mod m`, stepped without a division.
        let step = a % m;
        let residues = p
            .residues
            .iter()
            .zip(&self.primes)
            .map(|(row, &q)| {
                let mut k = 0u64;
                let mut out = vec![0u64; self.m];
                for &c in row {
                    out[k as usize] = add_q(out[k as usize], c, q);
                    k = add_q(k, step, m);
                }
                match self.flavor {
                    RingFlavor::PrimeCyclotomic => self.fold_row(out, q),
                    RingFlavor::NegacyclicPow2 => {
                        // X^k for k >= n is -X^(k - n).
                        let (low, high) = out.split_at_mut(self.phi);
                        for (l, &h) in low.iter_mut().zip(&*high) {
                            *l = sub_q(*l, h, q);
                        }
                        out.truncate(self.phi);
                        out
                    }
                }
            })
            .collect();
        RnsPoly { residues }
    }

    /// Reduces an `m`-coefficient (mod `X^m - 1`) row modulo `Φ_m`:
    /// `X^(m-1) = -(1 + X + ... + X^(m-2))`.
    fn fold_row(&self, mut wrapped: Vec<u64>, q: u64) -> Vec<u64> {
        let top = wrapped[self.m - 1];
        wrapped.truncate(self.phi);
        for c in wrapped.iter_mut() {
            *c = sub_q(*c, top, q);
        }
        wrapped
    }

    /// Modulus switching: scales from the element's current chain
    /// prefix down by its last prime while preserving the value modulo
    /// `plain_modulus` (BGV scale-down). Noise shrinks by roughly the
    /// dropped prime.
    ///
    /// # Panics
    ///
    /// Panics if the element has only one active prime.
    pub fn mod_switch_down(&self, a: &RnsPoly, plain_modulus: u64) -> RnsPoly {
        let level = a.residues.len();
        assert!(level >= 2, "cannot switch below one prime");
        let q_last = self.primes[level - 1];
        let last = &a.residues[level - 1];
        // Per-coefficient correction delta: delta = c (mod q_last),
        // delta = 0 (mod t), |delta| <= q_last.
        let deltas: Vec<i64> = last
            .iter()
            .map(|&c| {
                let mut d = crate::math::modq::center(c, q_last);
                if d.rem_euclid(plain_modulus as i64) != 0 {
                    // q_last is odd so adding/subtracting it fixes the
                    // residue class mod 2 (and generally shifts mod t).
                    d += if d > 0 {
                        -(q_last as i64)
                    } else {
                        q_last as i64
                    };
                    // For t > 2 one correction step may not cancel the
                    // residue; loop until it does (t is tiny).
                    let mut guard = 0;
                    while d.rem_euclid(plain_modulus as i64) != 0 {
                        d += if d > 0 {
                            -(q_last as i64)
                        } else {
                            q_last as i64
                        };
                        guard += 1;
                        assert!(guard <= plain_modulus, "correction loop diverged");
                    }
                }
                d
            })
            .collect();
        let residues = a.residues[..level - 1]
            .iter()
            .zip(&self.primes)
            .zip(&self.switch_inv[level - 1])
            .map(|((row, &q), &(inv, inv_shoup))| {
                row.iter()
                    .zip(&deltas)
                    .map(|(&c, &d)| {
                        // |d| <= q_last, which is below q on a
                        // descending chain: one conditional add.
                        let d_mod = if d.unsigned_abs() >= q {
                            d.rem_euclid(q as i64) as u64
                        } else if d < 0 {
                            (d + q as i64) as u64
                        } else {
                            d as u64
                        };
                        mul_shoup(sub_q(c, d_mod, q), inv, inv_shoup, q)
                    })
                    .collect()
            })
            .collect();
        RnsPoly { residues }
    }

    /// `(q_l⁻¹ mod q_j, its Shoup quotient)` for every `j < l`: row `l`
    /// is what a switch down from `l + 1` primes multiplies by.
    fn switch_table(primes: &[u64]) -> Vec<Vec<(u64, u64)>> {
        (0..primes.len())
            .map(|l| {
                primes[..l]
                    .iter()
                    .map(|&q| {
                        let inv = inv_mod(primes[l] % q, q).expect("chain primes are coprime");
                        (inv, shoup(inv, q))
                    })
                    .collect()
            })
            .collect()
    }

    /// Centered coefficients of a **single-prime** element.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one prime is active.
    pub fn to_centered(&self, a: &RnsPoly) -> Vec<i64> {
        assert_eq!(a.residues.len(), 1, "center only at the last level");
        let q = self.primes[0];
        a.residues[0]
            .iter()
            .map(|&c| crate::math::modq::center(c, q))
            .collect()
    }

    /// Base-`2^digit_bits` decomposition digits of `a`'s residues
    /// modulo chain prime `j`, returned as small unsigned polynomials
    /// (one per digit position).
    pub fn decompose_digits(&self, a: &RnsPoly, j: usize, digit_bits: u32) -> Vec<Vec<u64>> {
        let row = &a.residues[j];
        let q = self.primes[j];
        let n_digits = (64 - q.leading_zeros()).div_ceil(digit_bits) as usize;
        let mask = (1u64 << digit_bits) - 1;
        (0..n_digits)
            .map(|t| {
                row.iter()
                    .map(|&c| (c >> (t as u32 * digit_bits)) & mask)
                    .collect()
            })
            .collect()
    }

    fn zip(&self, a: &RnsPoly, b: &RnsPoly, f: impl Fn(u64, u64, u64) -> u64) -> RnsPoly {
        RnsPoly {
            residues: a
                .residues
                .iter()
                .zip(&b.residues)
                .zip(&self.primes)
                .map(|((ar, br), &q)| ar.iter().zip(br).map(|(&x, &y)| f(x, y, q)).collect())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::modq::chain_primes;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ctx() -> RnsContext {
        RnsContext::new(31, chain_primes(20, 4))
    }

    #[test]
    fn add_sub_roundtrip() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(1);
        let a = ctx.sample_uniform(4, &mut rng);
        let b = ctx.sample_uniform(4, &mut rng);
        assert_eq!(ctx.sub(&ctx.add(&a, &b), &b), a);
        assert_eq!(ctx.add(&a, &ctx.neg(&a)), ctx.zero(4));
    }

    #[test]
    fn mul_is_commutative_and_distributive() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(2);
        let a = ctx.sample_uniform(3, &mut rng);
        let b = ctx.sample_uniform(3, &mut rng);
        let c = ctx.sample_uniform(3, &mut rng);
        assert_eq!(ctx.mul(&a, &b), ctx.mul(&b, &a));
        assert_eq!(
            ctx.mul(&a, &ctx.add(&b, &c)),
            ctx.add(&ctx.mul(&a, &b), &ctx.mul(&a, &c))
        );
    }

    #[test]
    fn one_is_identity() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(3);
        let one = ctx.from_signed(&[1], 4);
        let a = ctx.sample_uniform(4, &mut rng);
        assert_eq!(ctx.mul(&a, &one), a);
    }

    #[test]
    fn phi_m_is_zero_in_the_ring() {
        // 1 + X + ... + X^(m-1) reduces to zero.
        let ctx = ctx();
        let all_ones = vec![1i64; 30]; // degree < phi part
        let p = ctx.from_signed(&all_ones, 2);
        // X^(m-1) folds to -(1+..+X^(m-2)), so p == -X^(m-1); check
        // p + X^(m-1)-image == 0 by multiplying x * X^(m-2)... simpler:
        // multiply X * X^(m-2) = X^(m-1) and compare to -p.
        let x = ctx.from_signed(&[0, 1], 2);
        let mut xm2 = vec![0i64; 30];
        xm2[29] = 1; // X^(phi-1) = X^(m-2)
        let xm2 = ctx.from_signed(&xm2, 2);
        let xm1 = ctx.mul(&x, &xm2);
        assert_eq!(xm1, ctx.neg(&p));
    }

    #[test]
    fn automorphism_is_multiplicative() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(4);
        let a = ctx.sample_uniform(2, &mut rng);
        let b = ctx.sample_uniform(2, &mut rng);
        for g in [3u64, 7, 12] {
            let lhs = ctx.automorphism(&ctx.mul(&a, &b), g);
            let rhs = ctx.mul(&ctx.automorphism(&a, g), &ctx.automorphism(&b, g));
            assert_eq!(lhs, rhs, "sigma_{g}");
        }
    }

    #[test]
    fn automorphisms_compose() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(5);
        let a = ctx.sample_uniform(2, &mut rng);
        let s3 = ctx.automorphism(&ctx.automorphism(&a, 3), 7);
        let s21 = ctx.automorphism(&a, 21);
        assert_eq!(s3, s21);
    }

    #[test]
    fn from_signed_handles_negatives() {
        let ctx = ctx();
        let p = ctx.from_signed(&[-1, 2, -3], 2);
        for (j, &q) in ctx.primes()[..2].iter().enumerate() {
            assert_eq!(p.residues[j][0], q - 1);
            assert_eq!(p.residues[j][1], 2);
            assert_eq!(p.residues[j][2], q - 3);
        }
    }

    #[test]
    fn mod_switch_preserves_parity_of_small_values() {
        // A "noiseless" element holding small even+message values must
        // keep its value mod 2 across a switch.
        let ctx = ctx();
        for value in [0i64, 1, 2, 3, 7, -5, -4] {
            let mut coeffs = vec![0i64; 30];
            coeffs[0] = value;
            coeffs[7] = -value;
            let p = ctx.from_signed(&coeffs, 3);
            let switched = ctx.mod_switch_down(&p, 2);
            let switched = ctx.mod_switch_down(&switched, 2);
            let centered = ctx.to_centered(&switched);
            assert_eq!(
                centered[0].rem_euclid(2),
                value.rem_euclid(2),
                "value {value}"
            );
            assert_eq!(centered[7].rem_euclid(2), (-value).rem_euclid(2));
            // The magnitude also shrinks to ~|value|/q + 1.
            assert!(centered[0].abs() <= 2, "scaled magnitude {}", centered[0]);
        }
    }

    /// [`RnsContext::mod_switch_down`] at plain modulus 2 the way it was
    /// first written — an inverse per call, `u128` reductions and
    /// `rem_euclid` per coefficient — as the oracle for the precomputed
    /// Shoup constants.
    fn switch_down_oracle(ctx: &RnsContext, a: &RnsPoly) -> RnsPoly {
        use crate::math::modq::center;
        let level = a.residues.len();
        let q_last = ctx.primes()[level - 1];
        let deltas: Vec<i64> = a.residues[level - 1]
            .iter()
            .map(|&c| match center(c, q_last) {
                d if d.rem_euclid(2) == 0 => d,
                d if d > 0 => d - q_last as i64,
                d => d + q_last as i64,
            })
            .collect();
        let residues = (0..level - 1)
            .map(|j| {
                let q = ctx.primes()[j];
                let inv = inv_mod(q_last % q, q).expect("coprime");
                a.residues[j]
                    .iter()
                    .zip(&deltas)
                    .map(|(&c, &d)| mul_mod(sub_mod(c, d.rem_euclid(q as i64) as u64, q), inv, q))
                    .collect()
            })
            .collect();
        RnsPoly { residues }
    }

    #[test]
    fn mod_switch_matches_the_division_oracle_at_every_level() {
        // The benchmark's shape (m = 127, 25-bit primes), on the
        // descending chain keygen draws and on the same chain reversed,
        // where the dropped prime is the largest.
        let descending = ntt_chain_primes(25, 8, RnsContext::ntt_size(127).trailing_zeros());
        let ascending: Vec<u64> = descending.iter().rev().copied().collect();
        let mut rng = SmallRng::seed_from_u64(9);
        for chain in [descending, ascending] {
            let ctx = RnsContext::new(127, chain);
            for level in 2..=8 {
                let q_last = ctx.primes()[level - 1];
                for _ in 0..4 {
                    let mut a = ctx.sample_uniform(level, &mut rng);
                    // The dropped residue's edges: zero, the centring
                    // boundary, the top.
                    let edges = [0, 1, q_last / 2, q_last / 2 + 1, q_last - 1];
                    a.residues[level - 1][..edges.len()].copy_from_slice(&edges);
                    assert_eq!(
                        ctx.mod_switch_down(&a, 2),
                        switch_down_oracle(&ctx, &a),
                        "level {level} of {:?}",
                        ctx.primes()
                    );
                }
            }
        }
    }

    #[test]
    fn digit_decomposition_recomposes() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(6);
        let a = ctx.sample_uniform(2, &mut rng);
        for j in 0..2 {
            let digits = ctx.decompose_digits(&a, j, 7);
            let q = ctx.primes()[j];
            for (i, &c) in a.residues[j].iter().enumerate() {
                let recomposed: u64 = digits
                    .iter()
                    .enumerate()
                    .map(|(t, d)| d[i] << (7 * t as u32))
                    .sum();
                assert_eq!(recomposed % q, c);
            }
        }
    }

    #[test]
    fn error_samples_are_small() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(7);
        let e = ctx.sample_error(2, &mut rng);
        assert!(e.iter().all(|&x| x.abs() <= 2));
        let t = ctx.sample_ternary(&mut rng);
        assert!(t.iter().all(|&x| x.abs() <= 1));
    }

    #[test]
    fn ntt_mul_is_bitwise_identical_to_schoolbook() {
        for m in [5usize, 17, 31] {
            let (ntt, school) = RnsContext::ntt_schoolbook_pair(m, 25, 3);
            let mut rng = SmallRng::seed_from_u64(m as u64);
            for level in 1..=3 {
                let a = ntt.sample_uniform(level, &mut rng);
                let b = ntt.sample_uniform(level, &mut rng);
                assert_eq!(ntt.mul(&a, &b), school.mul(&a, &b), "m = {m}");
            }
        }
    }

    #[test]
    fn ntt_path_satisfies_ring_laws() {
        let (ntt, _) = RnsContext::ntt_schoolbook_pair(31, 25, 4);
        let mut rng = SmallRng::seed_from_u64(8);
        let a = ntt.sample_uniform(4, &mut rng);
        let b = ntt.sample_uniform(4, &mut rng);
        let one = ntt.from_signed(&[1], 4);
        assert_eq!(ntt.mul(&a, &one), a);
        assert_eq!(ntt.mul(&a, &b), ntt.mul(&b, &a));
    }

    #[test]
    fn unfriendly_chain_falls_back_to_schoolbook() {
        // Generic descending primes almost never have 64-fold
        // 2-adicity; the context must still multiply correctly.
        let ctx = ctx();
        assert_eq!(ctx.ntt_ready_primes(), 0);
        assert!(ctx.ntt_enabled(), "enabled, but no plan to use");
        let mut rng = SmallRng::seed_from_u64(9);
        let a = ctx.sample_uniform(2, &mut rng);
        let one = ctx.from_signed(&[1], 2);
        assert_eq!(ctx.mul(&a, &one), a);
    }

    #[test]
    fn eval_roundtrip_is_identity() {
        let (ntt, _) = RnsContext::ntt_schoolbook_pair(31, 25, 4);
        let mut rng = SmallRng::seed_from_u64(20);
        for level in 1..=4 {
            let a = ntt.sample_uniform(level, &mut rng);
            assert!(ntt.eval_ready(level));
            assert_eq!(ntt.from_eval(&ntt.to_eval(&a)), a, "level {level}");
        }
    }

    #[test]
    fn eval_mul_matches_coefficient_mul_bitwise() {
        let (ntt, school) = RnsContext::ntt_schoolbook_pair(17, 25, 3);
        let mut rng = SmallRng::seed_from_u64(21);
        for level in 1..=3 {
            let a = ntt.sample_uniform(level, &mut rng);
            let b = ntt.sample_uniform(level, &mut rng);
            let via_eval = ntt.from_eval(&ntt.eval_mul(&ntt.to_eval(&a), &ntt.to_eval(&b), level));
            assert_eq!(via_eval, ntt.mul(&a, &b), "vs fast path, level {level}");
            assert_eq!(via_eval, school.mul(&a, &b), "vs oracle, level {level}");
        }
    }

    #[test]
    fn eval_acc_is_sum_of_products() {
        // Σ_i a_i * b_i accumulated pointwise in the evaluation domain
        // equals the coefficient-domain sum bitwise — the key-switch
        // digit-loop identity.
        let (ntt, _) = RnsContext::ntt_schoolbook_pair(31, 25, 3);
        let mut rng = SmallRng::seed_from_u64(22);
        let level = 3;
        let pairs: Vec<(RnsPoly, RnsPoly)> = (0..5)
            .map(|_| {
                (
                    ntt.sample_uniform(level, &mut rng),
                    ntt.sample_uniform(level, &mut rng),
                )
            })
            .collect();
        let mut acc = ntt.eval_acc(level);
        for (a, b) in &pairs {
            acc.mul_add(&ntt.to_eval(a), &ntt.to_eval(b));
        }
        let mut want = ntt.zero(level);
        for (a, b) in &pairs {
            want = ntt.add(&want, &ntt.mul(a, b));
        }
        assert_eq!(ntt.from_eval(&acc.finish()), want);
    }

    #[test]
    fn eval_acc_flushes_before_the_u128_overflows() {
        // 62-bit primes hold only 16 products per point; 40 products,
        // every third the worst case (q − 1)², force two flushes and
        // would overflow without them.
        let (ntt, _) = RnsContext::ntt_schoolbook_pair(17, 62, 2);
        let mut acc = ntt.eval_acc(2);
        assert_eq!(acc.capacity, 16);
        let top = EvalPoly {
            rows: ntt
                .primes()
                .iter()
                .map(|&q| vec![q - 1; ntt.transform_size()])
                .collect(),
        };
        let mut rng = SmallRng::seed_from_u64(24);
        let mut want = ntt.eval_acc(2).finish();
        for i in 0..40 {
            let a = if i % 3 == 0 {
                top.clone()
            } else {
                ntt.to_eval(&ntt.sample_uniform(2, &mut rng))
            };
            acc.mul_add(&a, &top);
            for (j, row) in want.rows.iter_mut().enumerate() {
                let q = ntt.primes()[j];
                for (w, &x) in row.iter_mut().zip(&a.rows[j]) {
                    *w = add_mod(*w, mul_mod(x, q - 1, q), q);
                }
            }
        }
        assert_eq!(acc.finish(), want);
    }

    #[test]
    fn eval_prefix_view_reduces_level_without_clone() {
        // Full-level operands serve a lower-level accumulator: the
        // result matches multiplying explicitly reduced operands.
        let (ntt, _) = RnsContext::ntt_schoolbook_pair(31, 25, 4);
        let mut rng = SmallRng::seed_from_u64(23);
        let a = ntt.sample_uniform(4, &mut rng);
        let b = ntt.sample_uniform(4, &mut rng);
        let (ea, eb) = (ntt.to_eval(&a), ntt.to_eval(&b));
        for level in 1..=3 {
            let got = ntt.from_eval(&ntt.eval_mul(&ea, &eb, level));
            let want = ntt.mul(&ntt.reduce_level(&a, level), &ntt.reduce_level(&b, level));
            assert_eq!(got, want, "level {level}");
            assert_eq!(
                ntt.mul_prefix(&a, &b, level),
                want,
                "mul_prefix at level {level}"
            );
        }
    }

    #[test]
    fn from_small_unsigned_matches_from_signed() {
        let ctx = ctx();
        let coeffs_u: Vec<u64> = (0..20u64).map(|i| i * 13 % 128).collect();
        let coeffs_i: Vec<i64> = coeffs_u.iter().map(|&c| c as i64).collect();
        assert_eq!(
            ctx.from_small_unsigned(&coeffs_u, 3),
            ctx.from_signed(&coeffs_i, 3)
        );
    }

    #[test]
    fn wide_digits_exceeding_a_smaller_prime_are_reduced() {
        // One-digit-per-prime key-switch decompositions (B >= q) emit
        // digits as large as the biggest chain prime, which exceed the
        // smaller active primes; both lifts must reduce per prime.
        // Regression: the unreduced fast path fed non-canonical values
        // into the Shoup NTT, silently corrupting key switches.
        let (ntt, _) = RnsContext::ntt_schoolbook_pair(17, 25, 3);
        let primes = ntt.primes().to_vec();
        let q_min = *primes.iter().min().unwrap();
        let q_max = *primes.iter().max().unwrap();
        assert!(q_min < q_max, "chain primes are distinct");
        let coeffs_u = vec![q_max - 1, q_min, 3];
        let coeffs_i: Vec<i64> = coeffs_u.iter().map(|&c| c as i64).collect();
        let want = ntt.from_signed(&coeffs_i, 3);
        assert_eq!(ntt.from_small_unsigned(&coeffs_u, 3), want);
        assert_eq!(ntt.from_eval(&ntt.small_to_eval(&coeffs_u, 3)), want);
    }

    #[test]
    fn eval_ready_respects_toggle_and_plan_gaps() {
        // One chain, both routes: readiness follows the route the
        // context was built on.
        let (ntt, school) = RnsContext::ntt_schoolbook_pair(17, 25, 2);
        assert!(ntt.eval_ready(2));
        assert!(!school.eval_ready(1));
        let unfriendly = ctx();
        assert!(!unfriendly.eval_ready(1), "no plans on a generic chain");
    }

    #[test]
    #[should_panic(expected = "not coprime to m")]
    fn automorphism_rejects_zero_exponent() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(10);
        let a = ctx.sample_uniform(1, &mut rng);
        let _ = ctx.automorphism(&a, 0);
    }

    #[test]
    #[should_panic(expected = "not coprime to m")]
    fn automorphism_rejects_exponent_equal_to_m() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(11);
        let a = ctx.sample_uniform(1, &mut rng);
        let _ = ctx.automorphism(&a, 31);
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn level_mismatch_panics() {
        let ctx = ctx();
        let a = ctx.zero(2);
        let b = ctx.zero(3);
        let _ = ctx.add(&a, &b);
    }

    #[test]
    fn negacyclic_mul_is_bitwise_identical_to_schoolbook() {
        for n in [8usize, 16, 32] {
            let (ntt, school) = RnsContext::negacyclic_schoolbook_pair(n, 25, 3);
            assert_eq!(ntt.flavor(), RingFlavor::NegacyclicPow2);
            assert_eq!(ntt.phi(), n);
            let mut rng = SmallRng::seed_from_u64(n as u64);
            for level in 1..=3 {
                let a = ntt.sample_uniform(level, &mut rng);
                let b = ntt.sample_uniform(level, &mut rng);
                assert_eq!(ntt.mul(&a, &b), school.mul(&a, &b), "n = {n}");
            }
        }
    }

    #[test]
    fn negacyclic_x_to_the_n_is_minus_one() {
        // X^(n/2) * X^(n/2) = X^n ≡ -1 in Z_q[X]/(X^n + 1).
        let (ntt, school) = RnsContext::negacyclic_schoolbook_pair(16, 25, 2);
        let mut half = vec![0i64; 16];
        half[8] = 1;
        let x_half = ntt.from_signed(&half, 2);
        let minus_one = ntt.neg(&ntt.from_signed(&[1], 2));
        assert_eq!(ntt.mul(&x_half, &x_half), minus_one);
        assert_eq!(school.mul(&x_half, &x_half), minus_one);
    }

    #[test]
    fn negacyclic_ring_laws_hold() {
        let (ntt, _) = RnsContext::negacyclic_schoolbook_pair(32, 25, 4);
        let mut rng = SmallRng::seed_from_u64(30);
        let a = ntt.sample_uniform(4, &mut rng);
        let b = ntt.sample_uniform(4, &mut rng);
        let c = ntt.sample_uniform(4, &mut rng);
        let one = ntt.from_signed(&[1], 4);
        assert_eq!(ntt.mul(&a, &one), a);
        assert_eq!(ntt.mul(&a, &b), ntt.mul(&b, &a));
        assert_eq!(
            ntt.mul(&a, &ntt.add(&b, &c)),
            ntt.add(&ntt.mul(&a, &b), &ntt.mul(&a, &c))
        );
    }

    #[test]
    fn negacyclic_eval_domain_roundtrips_and_multiplies() {
        let (ntt, school) = RnsContext::negacyclic_schoolbook_pair(16, 25, 3);
        let mut rng = SmallRng::seed_from_u64(31);
        for level in 1..=3 {
            assert!(ntt.eval_ready(level));
            let a = ntt.sample_uniform(level, &mut rng);
            let b = ntt.sample_uniform(level, &mut rng);
            assert_eq!(
                ntt.from_eval(&ntt.to_eval(&a)),
                a,
                "roundtrip, level {level}"
            );
            let via_eval = ntt.from_eval(&ntt.eval_mul(&ntt.to_eval(&a), &ntt.to_eval(&b), level));
            assert_eq!(via_eval, ntt.mul(&a, &b), "vs fast path, level {level}");
            assert_eq!(via_eval, school.mul(&a, &b), "vs oracle, level {level}");
        }
    }

    #[test]
    fn negacyclic_eval_acc_is_sum_of_products() {
        let (ntt, _) = RnsContext::negacyclic_schoolbook_pair(32, 25, 3);
        let mut rng = SmallRng::seed_from_u64(32);
        let level = 3;
        let pairs: Vec<(RnsPoly, RnsPoly)> = (0..4)
            .map(|_| {
                (
                    ntt.sample_uniform(level, &mut rng),
                    ntt.sample_uniform(level, &mut rng),
                )
            })
            .collect();
        let mut acc = ntt.eval_acc(level);
        for (a, b) in &pairs {
            acc.mul_add(&ntt.to_eval(a), &ntt.to_eval(b));
        }
        let mut want = ntt.zero(level);
        for (a, b) in &pairs {
            want = ntt.add(&want, &ntt.mul(a, b));
        }
        assert_eq!(ntt.from_eval(&acc.finish()), want);
    }

    #[test]
    fn negacyclic_automorphism_is_multiplicative_for_odd_exponents() {
        let (ntt, _) = RnsContext::negacyclic_schoolbook_pair(16, 25, 2);
        let mut rng = SmallRng::seed_from_u64(33);
        let a = ntt.sample_uniform(2, &mut rng);
        let b = ntt.sample_uniform(2, &mut rng);
        for g in [3u64, 5, 31] {
            let lhs = ntt.automorphism(&ntt.mul(&a, &b), g);
            let rhs = ntt.mul(&ntt.automorphism(&a, g), &ntt.automorphism(&b, g));
            assert_eq!(lhs, rhs, "sigma_{g}");
        }
    }

    #[test]
    #[should_panic(expected = "not coprime to m")]
    fn negacyclic_automorphism_rejects_even_exponents() {
        let (ntt, _) = RnsContext::negacyclic_schoolbook_pair(8, 25, 1);
        let mut rng = SmallRng::seed_from_u64(34);
        let a = ntt.sample_uniform(1, &mut rng);
        let _ = ntt.automorphism(&a, 2);
    }

    #[test]
    fn negacyclic_transform_size_is_half_the_padded_route() {
        // At comparable ring dimension (φ = 126 vs n = 128), the
        // prime flavor transforms at next_pow2(2·127 − 1) = 256 while
        // the negacyclic flavor transforms at exactly 128.
        let prime_ctx = RnsContext::new(127, ntt_chain_primes(25, 1, 8));
        assert_eq!(prime_ctx.transform_size(), 256);
        let (nega, _) = RnsContext::negacyclic_schoolbook_pair(128, 25, 1);
        assert_eq!(nega.transform_size(), 128);
        assert_eq!(nega.transform_size() * 2, prime_ctx.transform_size());
    }

    #[test]
    fn negacyclic_unfriendly_chain_falls_back_to_schoolbook() {
        // Generic descending primes lack the 2n | q - 1 structure; the
        // context must still multiply correctly (oracle route).
        let ctx = RnsContext::new_negacyclic(32, chain_primes(20, 3));
        assert_eq!(ctx.ntt_ready_primes(), 0);
        assert!(!ctx.eval_ready(1));
        let mut rng = SmallRng::seed_from_u64(35);
        let a = ctx.sample_uniform(2, &mut rng);
        let one = ctx.from_signed(&[1], 2);
        assert_eq!(ctx.mul(&a, &one), a);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn negacyclic_constructor_rejects_odd_index() {
        let _ = RnsContext::new_negacyclic(31, chain_primes(20, 1));
    }

    #[test]
    #[should_panic(expected = "odd prime")]
    fn prime_constructor_rejects_power_of_two_index() {
        let _ = RnsContext::new(32, chain_primes(20, 1));
    }
}
