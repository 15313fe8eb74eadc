//! Number-theoretic transforms over 64-bit prime fields.
//!
//! An [`NttPlan`] fixes one `(prime, size)` pair and precomputes
//! everything a radix-2 transform of that size needs: the forward and
//! inverse twiddles (powers of a primitive `n`-th root of unity), laid
//! out as one contiguous run per stage, and — when the prime allows it
//! — the `ψ` tables for **negacyclic** convolution mod `X^n + 1`.
//!
//! **No permutation pass.** [`NttPlan::forward`] is Gentleman–Sande
//! decimation in frequency: natural-order coefficients in, the spectrum
//! out in **bit-reversed** order (the value at point `w^k` lands at the
//! index whose `log₂ n` bits are `k`'s, reversed). [`NttPlan::inverse`]
//! is Cooley–Tukey decimation in time: it reads that bit-reversed order
//! and writes natural-order coefficients. Every caller pairs a forward
//! with an inverse through pointwise products and sums, which do not
//! care about point order, so a spectrum is only meaningful through the
//! paired inverse — nothing stores or ships one. Both run their stages
//! two at a time, one pass over the data per pair (a lone stage is left
//! over when `log₂ n` is odd).
//!
//! **Shoup multiplication.** Alongside every twiddle `w` the plan
//! stores `w' = ⌊w · 2^64 / q⌋`, so the hot loop replaces the 128-bit
//! division of a generic `mul_mod` with two word multiplies and a
//! shift; the product comes out in `[0, 2q)`.
//!
//! **Lazy reduction** (Harvey, "Faster arithmetic for number-theoretic
//! transforms", J. Symb. Comput. 2014). Between stages the forward
//! keeps values in `[0, 2q)` and the inverse in `[0, 4q)`; each
//! butterfly subtracts `2q` at most once, and the transform corrects to
//! `[0, q)` once at the end (the forward in its last stage, the inverse
//! in its `n⁻¹` scale). Sums up to `4q` must fit a word, so a plan
//! needs `q < 2^62` ([`NttPlan::new`] refuses larger primes;
//! `modq::ntt_chain_primes` caps at 62 bits). The lazy sums are plain
//! `+`, so a debug build's overflow checks catch a violated bound.
//!
//! **Branch-free corrections.** Every conditional subtraction — here
//! and in the canonical helpers the BGV ring uses (`add_q`, `sub_q`,
//! `mul_shoup`) — is a select, not a compare-and-branch.
//! Whether a butterfly output needs the correction is a coin flip on
//! real data, so a branch mispredicts about half the time — a fresh
//! 256-point forward transform cost several times its arithmetic that
//! way, a cost that disappeared whenever a benchmark fed the same
//! operand repeatedly and the predictor learned the pattern.
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

/// `x - m` when `x >= m`, else `x`: one correction, from `[0, 2m)` to
/// `[0, m)`. Branch-free — a wrapped `x - m` is the larger of the two
/// exactly when `x < m`, and the minimum is a select.
#[inline]
fn reduce_once(x: u64, m: u64) -> u64 {
    x.min(x.wrapping_sub(m))
}

/// `(a + b) mod q` for canonical operands (`a, b < q < 2^63`).
#[inline]
pub(crate) fn add_q(a: u64, b: u64, q: u64) -> u64 {
    reduce_once(a + b, q)
}

/// `(a - b) mod q` for canonical operands.
#[inline]
pub(crate) fn sub_q(a: u64, b: u64, q: u64) -> u64 {
    reduce_once(a + q - b, q)
}

/// Shoup quotient `⌊w · 2^64 / q⌋` for the fast twiddle multiply.
#[inline]
pub(crate) fn shoup(w: u64, q: u64) -> u64 {
    (((w as u128) << 64) / q as u128) as u64
}

/// `x · w` mod `q`, up to one `q`: a value in `[0, 2q)` congruent to
/// it, from `w`'s precomputed Shoup quotient `w_shoup`.
///
/// Valid for `w < q < 2^63` and **any** 64-bit `x`, canonical or not:
/// the quotient estimate `t` is at most one short of `⌊x·w/q⌋`
/// whenever `x < 2^64`, so `x·w − t·q` lies in `[0, 2q)` and the
/// wrapping word arithmetic computes it exactly.
#[inline]
fn mul_shoup_lazy(x: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let t = ((x as u128 * w_shoup as u128) >> 64) as u64;
    x.wrapping_mul(w).wrapping_sub(t.wrapping_mul(q))
}

/// `(x * w) mod q` with `w`'s precomputed Shoup quotient `w_shoup`:
/// [`mul_shoup_lazy`] and one correction, so valid for any 64-bit `x`
/// and canonical.
#[inline]
pub(crate) fn mul_shoup(x: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    reduce_once(mul_shoup_lazy(x, w, w_shoup, q), q)
}

/// Gentleman–Sande butterfly on values in `[0, 2q)`:
/// `(u + v, (u − v)·w)`, both back in `[0, 2q)`.
#[inline]
fn gs(u: u64, v: u64, w: u64, w_shoup: u64, q: u64) -> (u64, u64) {
    let two_q = 2 * q;
    (
        reduce_once(u + v, two_q),
        mul_shoup_lazy(u + two_q - v, w, w_shoup, q),
    )
}

/// The forward's last butterfly (`w = 1`) on values in `[0, 2q)`:
/// `(u + v, u − v)`, corrected to `[0, q)`.
#[inline]
fn gs_last(u: u64, v: u64, q: u64) -> (u64, u64) {
    let two_q = 2 * q;
    let correct = |x| reduce_once(reduce_once(x, two_q), q);
    (correct(u + v), correct(u + two_q - v))
}

/// Cooley–Tukey butterfly on values in `[0, 4q)`: `(u + v·w, u − v·w)`,
/// both back in `[0, 4q)` (`u` is corrected to `[0, 2q)` first, `v·w`
/// comes out of the lazy multiply in `[0, 2q)`).
#[inline]
fn ct(u: u64, v: u64, w: u64, w_shoup: u64, q: u64) -> (u64, u64) {
    let two_q = 2 * q;
    let u = reduce_once(u, two_q);
    let t = mul_shoup_lazy(v, w, w_shoup, q);
    (u + t, u + two_q - t)
}

/// The inverse's first butterfly (`w = 1`) on values in `[0, 2q)`:
/// `(u + v, u − v)`, in `[0, 4q)`.
#[inline]
fn ct_first(u: u64, v: u64, q: u64) -> (u64, u64) {
    (u + v, u + 2 * q - v)
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

    /// The twiddles of every stage of an `n`-point transform with the
    /// primitive `n`-th root `w`, one contiguous run per stage: the
    /// stage whose butterflies pair points `h` apart reads entries
    /// `h..2h`, the powers `w^(j · n/2h)` for `j < h`. Entry 0 is unused.
    fn stages(w: u64, n: usize, q: u64) -> Self {
        let powers = Self::powers(w, n / 2, q);
        let mut pow = vec![0; n];
        let mut pow_shoup = vec![0; n];
        let mut h = 1;
        while h < n {
            let stride = n / (2 * h);
            for j in 0..h {
                pow[h + j] = powers.pow[j * stride];
                pow_shoup[h + j] = powers.pow_shoup[j * stride];
            }
            h *= 2;
        }
        Self { pow, pow_shoup }
    }

    /// The run of the stage whose butterflies pair points `h` apart.
    #[inline]
    fn stage(&self, h: usize) -> (&[u64], &[u64]) {
        (&self.pow[h..2 * h], &self.pow_shoup[h..2 * h])
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
    /// Per-stage powers of `w` ([`Twiddles::stages`]), for the forward.
    fwd: Twiddles,
    /// Per-stage powers of `w⁻¹`, for the inverse.
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
    /// size (not prime, `q >= 2^62` — too large for the lazy ranges —
    /// or `n ∤ q - 1`).
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
        Some(Self {
            q,
            n,
            fwd: Twiddles::stages(w, n, q),
            inv: Twiddles::stages(w_inv, n, q),
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

    /// In-place forward transform of `n` canonical coefficients, in
    /// natural order, to the spectrum `A_k = Σ_j a_j · w^(j·k)` in
    /// **bit-reversed** order: `A_k` lands at the index whose `log₂ n`
    /// bits are `k`'s, reversed. The spectrum is canonical, and only
    /// meaningful through [`NttPlan::inverse`] (pointwise products and
    /// sums of spectra are blind to point order).
    ///
    /// Gentleman–Sande stages from points `n/2` apart down to adjacent
    /// points, two per pass over the data, values kept in `[0, 2q)`
    /// between stages; the last stage (`w = 1`) corrects to `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "operand length must equal the plan size");
        debug_assert!(a.iter().all(|&x| x < self.q), "operands must be canonical");
        meter::record_ntt_forward(self.n);
        let q = self.q;
        // Stages `h` and `h/2` on the four quarters of each block.
        let mut h = self.n / 2;
        while h >= 2 {
            let g = h / 2;
            let (w, ws) = self.fwd.stage(h);
            let (v, vs) = self.fwd.stage(g);
            for block in a.chunks_exact_mut(2 * h) {
                let (lo, hi) = block.split_at_mut(h);
                let ((a0, a1), (a2, a3)) = (lo.split_at_mut(g), hi.split_at_mut(g));
                for j in 0..g {
                    let (b0, b2) = gs(a0[j], a2[j], w[j], ws[j], q);
                    let (b1, b3) = gs(a1[j], a3[j], w[g + j], ws[g + j], q);
                    ((a0[j], a1[j]), (a2[j], a3[j])) = if g > 1 {
                        (gs(b0, b1, v[j], vs[j], q), gs(b2, b3, v[j], vs[j], q))
                    } else {
                        (gs_last(b0, b1, q), gs_last(b2, b3, q))
                    };
                }
            }
            h /= 4;
        }
        // An odd number of stages leaves the last one to itself.
        if h == 1 {
            for pair in a.chunks_exact_mut(2) {
                (pair[0], pair[1]) = gs_last(pair[0], pair[1], q);
            }
        }
    }

    /// In-place inverse of [`NttPlan::forward`]: a bit-reversed
    /// spectrum of `n` canonical values in, natural-order canonical
    /// coefficients out.
    ///
    /// Cooley–Tukey stages with `w⁻¹` from adjacent points up to points
    /// `n/2` apart, two per pass over the data, values kept in
    /// `[0, 4q)` between stages; then the `n⁻¹` scale, which corrects
    /// to `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "operand length must equal the plan size");
        meter::record_ntt_inverse(self.n);
        let q = self.q;
        let mut h = 1;
        // An odd number of stages leaves the first one to itself.
        if self.n.trailing_zeros() % 2 == 1 {
            for pair in a.chunks_exact_mut(2) {
                (pair[0], pair[1]) = ct_first(pair[0], pair[1], q);
            }
            h = 2;
        }
        // Stages `h` and `2h` on the four quarters of each block.
        while h < self.n {
            let (w, ws) = self.inv.stage(h);
            let (v, vs) = self.inv.stage(2 * h);
            for block in a.chunks_exact_mut(4 * h) {
                let (lo, hi) = block.split_at_mut(2 * h);
                let ((a0, a1), (a2, a3)) = (lo.split_at_mut(h), hi.split_at_mut(h));
                for j in 0..h {
                    let ((b0, b1), (b2, b3)) = if h > 1 {
                        (
                            ct(a0[j], a1[j], w[j], ws[j], q),
                            ct(a2[j], a3[j], w[j], ws[j], q),
                        )
                    } else {
                        (ct_first(a0[j], a1[j], q), ct_first(a2[j], a3[j], q))
                    };
                    ((a0[j], a2[j]), (a1[j], a3[j])) = (
                        ct(b0, b2, v[j], vs[j], q),
                        ct(b1, b3, v[h + j], vs[h + j], q),
                    );
                }
            }
            h *= 4;
        }
        for x in a.iter_mut() {
            *x = mul_shoup(*x, self.n_inv, self.n_inv_shoup, q);
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
    use crate::math::modq::{add_mod, ntt_chain_primes, ntt_primes_below, sub_mod};
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

    /// The spectrum index of point `k`: `k`'s `log₂ n` bits, reversed.
    fn reversed(k: usize, n: usize) -> usize {
        k.reverse_bits() >> (usize::BITS - n.trailing_zeros())
    }

    #[test]
    fn forward_matches_a_naive_dft_on_fresh_inputs() {
        let mut rng = SmallRng::seed_from_u64(5);
        for n in [16usize, 256, 1024] {
            let p = plan(45, n);
            // The first-stage run holds w^j for j < n/2.
            let w = p.fwd.pow[n / 2 + 1];
            for _ in 0..3 {
                let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p.q())).collect();
                let mut t = a.clone();
                p.forward(&mut t);
                let spectrum: Vec<u64> = (0..n).map(|k| t[reversed(k, n)]).collect();
                assert_eq!(spectrum, naive_dft(&a, w, p.q()), "n = {n}");
            }
        }
    }

    /// Every lazy range at its edge: the largest admissible prime (its
    /// `4q` only just fits a word) and every input `q − 1`, at every
    /// size from 2 to 1024 — and, since a constant vector's butterfly
    /// differences all vanish, fresh random inputs at that prime too.
    /// Each transform runs first on them, and `cyclic_mul` squares
    /// them. A violated bound overflows a debug build's plain `+`, or
    /// leaves a result uncorrected.
    #[test]
    fn lazy_bounds_hold_at_the_largest_prime_and_largest_inputs() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut n = 2usize;
        while n <= 1024 {
            let q = ntt_primes_below(62, n.trailing_zeros())
                .next()
                .expect("62-bit NTT primes exist at every size here");
            let p = NttPlan::new(q, n).expect("prime is NTT-friendly");
            let random: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            for a in [vec![q - 1; n], random] {
                let mut t = a.clone();
                p.forward(&mut t);
                assert!(t.iter().all(|&x| x < q), "n = {n}: spectrum not canonical");
                p.inverse(&mut t);
                assert_eq!(t, a, "n = {n}: forward, then inverse");
                p.inverse(&mut t);
                assert!(t.iter().all(|&x| x < q), "n = {n}: inverse not canonical");
                p.forward(&mut t);
                assert_eq!(t, a, "n = {n}: inverse, then forward");
                assert_eq!(p.cyclic_mul(&a, &a), naive_cyclic(&a, &a, n, q), "n = {n}");
            }
            n *= 2;
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
