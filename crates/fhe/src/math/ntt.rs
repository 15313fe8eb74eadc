//! Number-theoretic transforms over 64-bit prime fields.
//!
//! An [`NttPlan`] fixes one `(prime, size)` pair and precomputes
//! everything a radix-2 transform of that size needs: the bit-reversal
//! permutation, the forward and inverse twiddle tables (powers of a
//! primitive `n`-th root of unity), and — when the prime allows it —
//! the `ψ` tables for **negacyclic** convolution mod `X^n + 1`.
//!
//! The butterflies use Shoup's precomputed-quotient multiplication:
//! alongside every twiddle `w` the plan stores
//! `w' = ⌊w · 2^64 / q⌋`, so the hot loop replaces the 128-bit
//! division of a generic `mul_mod` with two word multiplies, a shift
//! and one final subtraction of `q`. That subtraction, like the ones in
//! the butterfly's modular add and subtract, is a **branch-free
//! select**: subtract `q` unconditionally and add it back under a mask
//! made from the result's sign bit. Whether a butterfly output needs
//! the correction is a coin flip on real data, so a compare-and-branch
//! mispredicts about half the time — a fresh 256-point forward
//! transform cost several times its arithmetic that way, a cost that
//! disappeared whenever a benchmark fed the same operand repeatedly
//! and the predictor learned the pattern. The select requires
//! `q < 2^63`, which every chain prime satisfies
//! (`modq::ntt_chain_primes` caps at 62 bits).
//!
//! The BGV ring ([`crate::bgv::ring::RnsContext`]) drives plans two
//! ways. The **prime-cyclotomic** flavor uses plans of size
//! `next_pow2(2m - 1)` for *linear* convolution of two degree-`< φ(m)`
//! residue rows: zero-pad, forward, pointwise, inverse, then wrap mod
//! `X^m - 1` and fold by `Φ_m` outside this module. The **negacyclic
//! power-of-two** flavor works directly in `Z_q[X]/(X^n + 1)` with
//! plans of size exactly `n` — no zero padding, half the transform
//! length — via the `ψ`-twisted [`NttPlan::forward_negacyclic`] /
//! [`NttPlan::inverse_negacyclic`] pair, whose pointwise products are
//! negacyclic convolutions already reduced into the ring.

use crate::math::modq::{inv_mod, is_prime, mul_mod, pow_mod};
use crate::meter;
use std::sync::OnceLock;

/// `r + q` when `r` went negative (its top bit is set), `r` otherwise,
/// selected by an arithmetic mask rather than a branch. Valid whenever
/// the true value lies in `(-q, q)` and `q < 2^63`: a wrapped negative
/// is then `>= 2^64 - q > 2^63`, a non-negative one `< q < 2^63`.
#[inline]
fn lift_negative(r: u64, q: u64) -> u64 {
    r.wrapping_add(q & 0u64.wrapping_sub(r >> 63))
}

/// `(a + b) mod q` for canonical operands (`a, b < q < 2^63`).
#[inline]
pub(crate) fn add_q(a: u64, b: u64, q: u64) -> u64 {
    lift_negative((a + b).wrapping_sub(q), q)
}

/// `(a - b) mod q` for canonical operands.
#[inline]
pub(crate) fn sub_q(a: u64, b: u64, q: u64) -> u64 {
    lift_negative(a.wrapping_sub(b), q)
}

/// Shoup quotient `⌊w · 2^64 / q⌋` for the fast twiddle multiply.
#[inline]
pub(crate) fn shoup(w: u64, q: u64) -> u64 {
    (((w as u128) << 64) / q as u128) as u64
}

/// `(x * w) mod q` with `w`'s precomputed Shoup quotient `w_shoup`.
///
/// Valid for `w < q < 2^63` and **any** 64-bit `x`, canonical or not:
/// the quotient estimate `t` is at most one short of `⌊x·w/q⌋`
/// whenever `x < 2^64`. The result is canonical.
#[inline]
pub(crate) fn mul_shoup(x: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let t = ((x as u128 * w_shoup as u128) >> 64) as u64;
    // r = x·w − t·q lies in [0, 2q).
    let r = x.wrapping_mul(w).wrapping_sub(t.wrapping_mul(q));
    lift_negative(r.wrapping_sub(q), q)
}

/// A twiddle table: powers of a root paired with their Shoup quotients.
#[derive(Clone, Debug)]
struct Twiddles {
    pow: Vec<u64>,
    pow_shoup: Vec<u64>,
}

impl Twiddles {
    /// Powers `w^0 .. w^(count-1)` mod `q` with Shoup companions.
    fn powers(w: u64, count: usize, q: u64) -> Self {
        let mut pow = Vec::with_capacity(count);
        let mut pow_shoup = Vec::with_capacity(count);
        let mut x = 1u64;
        for _ in 0..count {
            pow.push(x);
            pow_shoup.push(shoup(x, q));
            x = mul_mod(x, w, q);
        }
        Self { pow, pow_shoup }
    }
}

/// A precomputed radix-2 NTT for one `(prime, size)` pair.
///
/// Build one per chain prime with [`NttPlan::new`]; `None` means the
/// prime cannot host a transform of that size (its multiplicative
/// group has too little 2-adicity) and the caller should fall back to
/// schoolbook multiplication.
#[derive(Clone, Debug)]
pub struct NttPlan {
    q: u64,
    n: usize,
    bitrev: Vec<u32>,
    fwd: Twiddles,
    inv: Twiddles,
    n_inv: u64,
    n_inv_shoup: u64,
    /// `ψ^i` and `ψ^{-i}` tables (`ψ` a primitive `2n`-th root) when
    /// `2n | q - 1`; enables negacyclic convolution mod `X^n + 1`.
    ///
    /// Built lazily on first negacyclic use: the BGV path never twists
    /// (it zero-pads for linear convolution), so eager construction at
    /// every plan — one `ψ`/`ψ^{-1}` power-and-Shoup table pair per
    /// chain prime — was pure keygen waste.
    psi: OnceLock<Option<(Twiddles, Twiddles)>>,
}

/// Finds an element of order exactly `n` (a power of two dividing
/// `q - 1`) in `Z_q^*`, without factoring `q - 1`: for a candidate
/// base `x`, `y = x^((q-1)/n)` has order exactly `n` iff
/// `y^(n/2) = -1`, which happens iff `x` is a quadratic non-residue.
/// The smallest non-residue of a prime is tiny in practice, so a
/// short deterministic scan suffices.
fn root_of_unity(q: u64, n: u64) -> Option<u64> {
    debug_assert!(n.is_power_of_two() && n >= 2);
    if !(q - 1).is_multiple_of(n) {
        return None;
    }
    let exp = (q - 1) / n;
    for x in 2..4096u64 {
        let y = pow_mod(x, exp, q);
        if pow_mod(y, n / 2, q) == q - 1 {
            return Some(y);
        }
    }
    None
}

impl NttPlan {
    /// Builds a plan for transforms of power-of-two length `n` over
    /// `Z_q`, or `None` when `q` is not an NTT-friendly prime for that
    /// size (not prime, too large for Shoup arithmetic, or
    /// `n ∤ q - 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two `>= 2`.
    pub fn new(q: u64, n: usize) -> Option<Self> {
        assert!(n.is_power_of_two() && n >= 2, "NTT size must be 2^k >= 2");
        if q >= (1 << 62) || !is_prime(q) {
            return None;
        }
        let w = root_of_unity(q, n as u64)?;
        let w_inv = inv_mod(w, q).expect("root is a unit");
        let n_inv = inv_mod(n as u64 % q, q).expect("n < q for chain primes");
        let log_n = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - log_n))
            .collect();
        Some(Self {
            q,
            n,
            bitrev,
            fwd: Twiddles::powers(w, n / 2, q),
            inv: Twiddles::powers(w_inv, n / 2, q),
            n_inv,
            n_inv_shoup: shoup(n_inv, q),
            psi: OnceLock::new(),
        })
    }

    /// The `ψ` twist tables, built on first demand (`None` when
    /// `2n ∤ q - 1` or no primitive `2n`-th root is found).
    fn psi_tables(&self) -> Option<&(Twiddles, Twiddles)> {
        self.psi
            .get_or_init(|| {
                if !(self.q - 1).is_multiple_of(2 * self.n as u64) {
                    return None;
                }
                let psi = root_of_unity(self.q, 2 * self.n as u64)?;
                let psi_inv = inv_mod(psi, self.q).expect("root is a unit");
                Some((
                    Twiddles::powers(psi, self.n, self.q),
                    Twiddles::powers(psi_inv, self.n, self.q),
                ))
            })
            .as_ref()
    }

    /// The prime field modulus.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// The transform length.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Whether [`NttPlan::negacyclic_mul`] is available (`2n | q - 1`).
    /// Probing forces the lazy `ψ` tables.
    pub fn supports_negacyclic(&self) -> bool {
        self.psi_tables().is_some()
    }

    fn permute(&self, a: &mut [u64]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                a.swap(i, j);
            }
        }
    }

    /// Iterative Cooley–Tukey DIT butterflies over bit-reversed input;
    /// stage `len` uses twiddles `w^(j · n/len)` read with stride from
    /// the `n/2`-entry power table.
    fn butterflies(&self, a: &mut [u64], tw: &Twiddles) {
        let (n, q) = (self.n, self.q);
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            let mut start = 0;
            while start < n {
                for j in 0..half {
                    let w = tw.pow[j * stride];
                    let ws = tw.pow_shoup[j * stride];
                    let u = a[start + j];
                    let t = mul_shoup(a[start + j + half], w, ws, q);
                    a[start + j] = add_q(u, t, q);
                    a[start + j + half] = sub_q(u, t, q);
                }
                start += len;
            }
            len <<= 1;
        }
    }

    /// In-place forward transform of `n` canonical coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "operand length must equal the plan size");
        debug_assert!(a.iter().all(|&x| x < self.q), "operands must be canonical");
        meter::record_ntt_forward(self.n);
        self.permute(a);
        self.butterflies(a, &self.fwd);
    }

    /// In-place inverse transform (forward with `w^{-1}`, then scale by
    /// `n^{-1}`).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "operand length must equal the plan size");
        meter::record_ntt_inverse(self.n);
        self.permute(a);
        self.butterflies(a, &self.inv);
        for x in a.iter_mut() {
            *x = mul_shoup(*x, self.n_inv, self.n_inv_shoup, self.q);
        }
    }

    /// In-place `ψ`-twisted forward transform: multiplies coefficient
    /// `i` by `ψ^i` (a primitive `2n`-th root), then runs the cyclic
    /// forward transform. Pointwise products of twisted spectra are
    /// **negacyclic** convolutions (products mod `X^n + 1`), already
    /// reduced into the ring — the evaluation-domain form of the
    /// power-of-two ring flavor.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n` or the plan lacks `ψ` tables
    /// ([`NttPlan::supports_negacyclic`] is false).
    pub fn forward_negacyclic(&self, a: &mut [u64]) {
        let (psi, _) = self
            .psi_tables()
            .expect("prime lacks a primitive 2n-th root; negacyclic unsupported");
        assert_eq!(a.len(), self.n, "operand length must equal the plan size");
        for (i, x) in a.iter_mut().enumerate() {
            *x = mul_shoup(*x, psi.pow[i], psi.pow_shoup[i], self.q);
        }
        self.forward(a);
    }

    /// In-place inverse of [`NttPlan::forward_negacyclic`]: the cyclic
    /// inverse transform followed by the `ψ^{-i}` untwist.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n` or the plan lacks `ψ` tables.
    pub fn inverse_negacyclic(&self, a: &mut [u64]) {
        let (_, psi_inv) = self
            .psi_tables()
            .expect("prime lacks a primitive 2n-th root; negacyclic unsupported");
        assert_eq!(a.len(), self.n, "operand length must equal the plan size");
        self.inverse(a);
        for (i, x) in a.iter_mut().enumerate() {
            *x = mul_shoup(*x, psi_inv.pow[i], psi_inv.pow_shoup[i], self.q);
        }
    }

    /// Length-`n` **cyclic** convolution (product mod `X^n - 1`) of two
    /// zero-padded operands. When
    /// `a.len() + b.len() - 1 <= n` this is the plain linear product.
    ///
    /// # Panics
    ///
    /// Panics if either operand is longer than the plan size.
    pub fn cyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        assert!(
            a.len() <= self.n && b.len() <= self.n,
            "operands exceed the transform length"
        );
        let mut fa = vec![0u64; self.n];
        fa[..a.len()].copy_from_slice(a);
        let mut fb = vec![0u64; self.n];
        fb[..b.len()].copy_from_slice(b);
        self.forward(&mut fa);
        self.forward(&mut fb);
        for (x, &y) in fa.iter_mut().zip(&fb) {
            *x = mul_mod(*x, y, self.q);
        }
        self.inverse(&mut fa);
        fa
    }

    /// Length-`n` **negacyclic** convolution (product mod `X^n + 1`)
    /// via the `ψ`-twisted cyclic transform.
    ///
    /// # Panics
    ///
    /// Panics if the plan lacks `ψ` tables
    /// ([`NttPlan::supports_negacyclic`] is false) or an operand is
    /// longer than the plan size.
    pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        assert!(
            a.len() <= self.n && b.len() <= self.n,
            "operands exceed the transform length"
        );
        let pad = |src: &[u64]| -> Vec<u64> {
            let mut out = vec![0u64; self.n];
            out[..src.len()].copy_from_slice(src);
            out
        };
        let mut fa = pad(a);
        let mut fb = pad(b);
        self.forward_negacyclic(&mut fa);
        self.forward_negacyclic(&mut fb);
        for (x, &y) in fa.iter_mut().zip(&fb) {
            *x = mul_mod(*x, y, self.q);
        }
        self.inverse_negacyclic(&mut fa);
        fa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::modq::{add_mod, ntt_chain_primes, sub_mod};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn naive_cyclic(a: &[u64], b: &[u64], n: usize, q: u64) -> Vec<u64> {
        let mut out = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let k = (i + j) % n;
                out[k] = add_mod(out[k], mul_mod(ai, bj, q), q);
            }
        }
        out
    }

    fn naive_negacyclic(a: &[u64], b: &[u64], n: usize, q: u64) -> Vec<u64> {
        let mut out = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let p = mul_mod(ai, bj, q);
                let k = (i + j) % n;
                if ((i + j) / n).is_multiple_of(2) {
                    out[k] = add_mod(out[k], p, q);
                } else {
                    out[k] = sub_mod(out[k], p, q);
                }
            }
        }
        out
    }

    fn plan(bits: u32, n: usize) -> NttPlan {
        let q = ntt_chain_primes(bits, 1, n.trailing_zeros() + 1)[0];
        NttPlan::new(q, n).expect("prime was generated NTT-friendly")
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let p = plan(30, 64);
        let mut rng = SmallRng::seed_from_u64(1);
        let a: Vec<u64> = (0..64).map(|_| rng.gen_range(0..p.q())).collect();
        let mut t = a.clone();
        p.forward(&mut t);
        assert_ne!(t, a, "transform should move mass around");
        p.inverse(&mut t);
        assert_eq!(t, a);
    }

    #[test]
    fn cyclic_mul_matches_naive() {
        for (bits, n) in [(20u32, 16usize), (30, 64), (45, 128)] {
            let p = plan(bits, n);
            let mut rng = SmallRng::seed_from_u64(2);
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p.q())).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p.q())).collect();
            assert_eq!(p.cyclic_mul(&a, &b), naive_cyclic(&a, &b, n, p.q()));
        }
    }

    #[test]
    fn short_operands_give_linear_convolution() {
        let p = plan(25, 32);
        let q = p.q();
        // deg 7 * deg 7 < 32: no wraparound, plain polynomial product.
        let a: Vec<u64> = (1..=8).collect();
        let b: Vec<u64> = (11..=18).collect();
        let got = p.cyclic_mul(&a, &b);
        let mut want = vec![0u64; 32];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                want[i + j] = add_mod(want[i + j], mul_mod(ai, bj, q), q);
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn negacyclic_mul_matches_naive() {
        let p = plan(30, 64);
        assert!(p.supports_negacyclic());
        let mut rng = SmallRng::seed_from_u64(3);
        let a: Vec<u64> = (0..64).map(|_| rng.gen_range(0..p.q())).collect();
        let b: Vec<u64> = (0..64).map(|_| rng.gen_range(0..p.q())).collect();
        assert_eq!(
            p.negacyclic_mul(&a, &b),
            naive_negacyclic(&a, &b, 64, p.q())
        );
    }

    #[test]
    fn unfriendly_prime_has_no_plan() {
        // 2^25 - 39 is prime with q - 1 = 2 * odd: no 64-point NTT.
        let q = 33_554_393u64;
        assert!(is_prime(q));
        assert!(!(q - 1).is_multiple_of(64));
        assert!(NttPlan::new(q, 64).is_none());
        // Composite and oversized moduli are rejected too.
        assert!(NttPlan::new(33_554_432, 64).is_none());
        assert!(NttPlan::new((1 << 62) + 1, 64).is_none());
    }

    #[test]
    fn psi_tables_are_lazy_and_idempotent() {
        let p = plan(30, 64);
        assert!(p.psi.get().is_none(), "no ψ tables before first use");
        assert!(p.supports_negacyclic());
        assert!(p.psi.get().is_some(), "probe forces the tables");
        // A clone of an initialised plan carries the tables along.
        let c = p.clone();
        assert!(c.psi.get().is_some());
        // A prime with 2n | q - 1 but probed via negacyclic_mul directly
        // also initialises on demand.
        let fresh = plan(25, 32);
        let a = vec![1u64; 32];
        let got = fresh.negacyclic_mul(&a, &a);
        assert_eq!(got, naive_negacyclic(&a, &a, 32, fresh.q()));
    }

    #[test]
    fn transforms_are_counted() {
        let p = plan(25, 32);
        let a: Vec<u64> = (0..32).collect();
        let (_, scope) = crate::OpMeter::measure(|| p.cyclic_mul(&a, &a));
        let delta = scope.transforms();
        assert_eq!(delta.forward, 2, "one forward per operand: {delta}");
        assert_eq!(delta.inverse, 1, "one inverse for the product: {delta}");
        assert_eq!(scope.transform_sizes().nonzero(), vec![(32, 3)]);
    }

    #[test]
    fn branch_free_helpers_match_the_u128_oracles() {
        for bits in [25u32, 45, 62] {
            let q = ntt_chain_primes(bits, 1, 10)[0];
            let mut rng = SmallRng::seed_from_u64(u64::from(bits));
            let mut operands = vec![0, 1, q - 1];
            operands.extend((0..40).map(|_| rng.gen_range(0..q)));
            for &a in &operands {
                for &b in &operands {
                    assert_eq!(add_q(a, b, q), add_mod(a, b, q), "{a} + {b} mod {q}");
                    assert_eq!(sub_q(a, b, q), sub_mod(a, b, q), "{a} - {b} mod {q}");
                    assert_eq!(
                        mul_shoup(a, b, shoup(b, q), q),
                        mul_mod(a, b, q),
                        "{a} * {b} mod {q}"
                    );
                }
            }
        }
    }

    /// `Σ_j a_j · w^(i·j)`: the transform's definition, term by term.
    fn naive_dft(a: &[u64], w: u64, q: u64) -> Vec<u64> {
        (0..a.len() as u64)
            .map(|i| {
                let wi = pow_mod(w, i, q);
                a.iter()
                    .rev()
                    .fold(0, |acc, &x| add_mod(mul_mod(acc, wi, q), x, q))
            })
            .collect()
    }

    #[test]
    fn forward_matches_a_naive_dft_on_fresh_inputs() {
        let mut rng = SmallRng::seed_from_u64(5);
        for n in [16usize, 256, 1024] {
            let p = plan(45, n);
            let w = p.fwd.pow[1];
            for _ in 0..3 {
                let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p.q())).collect();
                let mut t = a.clone();
                p.forward(&mut t);
                assert_eq!(t, naive_dft(&a, w, p.q()), "n = {n}");
            }
        }
    }

    #[test]
    fn shoup_multiply_agrees_with_mul_mod() {
        let q = ntt_chain_primes(60, 1, 10)[0];
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..1000 {
            let x = rng.gen_range(0..q);
            let w = rng.gen_range(0..q);
            assert_eq!(mul_shoup(x, w, shoup(w, q), q), mul_mod(x, w, q));
        }
    }
}
