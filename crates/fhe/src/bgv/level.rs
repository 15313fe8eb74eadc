//! The BGV level rule: how every operation moves a ciphertext's noise
//! estimate and its place in the modulus chain.
//!
//! The rule is written once, as the methods of [`LevelRule`]. The
//! scheme calls them on every ciphertext it produces — the noise
//! estimate it stores and each modulus switch it performs are the
//! rule's — and [`BgvBackend`](crate::BgvBackend)'s slot-layout
//! kernels run, unchanged, over bare [`Level`]s. A static analyzer
//! (`copse_core::analyze`) therefore replays a whole circuit's level
//! trajectory from its shape alone, with no key and no ciphertext,
//! and gets the levels evaluation will reach.
//!
//! Two properties keep that replay exact whatever the data and however
//! the evaluator schedules its work:
//!
//! * **No data dependence.** A plaintext product charges the 1-norm
//!   bound `φ` every GF(2) polynomial satisfies, not the operand's own
//!   1-norm, so no level depends on what a mask or a model diagonal
//!   holds (nor can a result's level reveal it).
//! * **Order independence.** The estimate is a bound on the noise
//!   *magnitude*, kept as an integer (rounded up wherever a formula
//!   divides), and an addition sums its operands' magnitudes. Integer
//!   sums are exact in an `f64` far past any noise that still decrypts,
//!   so they are associative: a sum folded in any bracketing — every
//!   chunking of a parallel `mat_vec` — gets the same estimate, bit for
//!   bit. (The triangle inequality makes the sum sound, and it charges
//!   `n` terms `log2 n` bits where a `max(a, b) + 1` fold charged
//!   `n − 1`.)

use crate::bgv::backend::{self as kernels, SlotOps};
use crate::bgv::scheme::BgvParams;
use crate::math::cyclotomic::SlotStructure;

/// Noise estimate of a fresh encryption, in bits.
const FRESH_BITS: f64 = 12.0;
/// Noise floor after a modulus switch (`~ ||s||_1` rounding), in bits.
const MS_FLOOR_BITS: f64 = 8.0;
/// Target operand noise before (and after) a ciphertext multiplication.
pub(crate) const MUL_INPUT_BITS: f64 = 14.0;
/// The largest magnitude the estimate carries: far past any noise that
/// decrypts, and keeps a runaway (undecryptable) estimate finite.
const NOISE_CAP: f64 = 1e300;

/// A ciphertext's place in the modulus chain, as the level rule sees
/// it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Level {
    /// Chain primes the ciphertext carries.
    pub primes: usize,
    /// Noise estimate: a bound on the decryption noise magnitude, an
    /// integer.
    pub noise: f64,
    /// The least modulus headroom, in bits, over this ciphertext and
    /// every ciphertext it was computed from: how far the noise stayed
    /// under half the modulus at its tightest. Once it drops to zero
    /// the value is lost for good, so a result decrypts iff this stays
    /// positive through the final switch to one prime.
    pub headroom_bits: f64,
}

/// The level rule of one BGV parameter point (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelRule {
    params: BgvParams,
    nslots: usize,
    /// Key-switch additive noise magnitude.
    ks_noise: f64,
}

impl LevelRule {
    /// The rule of `params` — what a [`BgvBackend`](crate::BgvBackend)
    /// keyed with them follows, without generating a key.
    pub fn of(params: &BgvParams) -> Self {
        let nslots = if params.is_negacyclic() {
            0
        } else {
            SlotStructure::new(params.m).nslots()
        };
        Self::new(*params, nslots)
    }

    /// The rule of `params`, for a ring with `nslots` GF(2) slots (0
    /// when there is no slot structure to rotate).
    pub(crate) fn new(params: BgvParams, nslots: usize) -> Self {
        // Key-switch additive noise: #primes * #digits * B * 2η * φ.
        let digits = params.prime_bits.div_ceil(params.ks_digit_bits) as f64;
        let ks_noise = params.chain_len as f64
            * digits
            * f64::from(1u32 << params.ks_digit_bits)
            * 2.0
            * f64::from(params.error_eta)
            * params.phi() as f64;
        Self {
            params,
            nslots,
            ks_noise,
        }
    }

    /// Primes in the modulus chain: where fresh encryptions start.
    pub fn chain_len(&self) -> usize {
        self.params.chain_len
    }

    /// The same rule on a chain of `chain_len` primes — a hypothetical
    /// parameter point, for asking how long a chain a circuit needs.
    pub fn with_chain_len(&self, chain_len: usize) -> Self {
        Self::new(
            BgvParams {
                chain_len,
                ..self.params
            },
            self.nslots,
        )
    }

    /// Bits of half the modulus at `primes` primes (each chain prime
    /// exceeds `2^(prime_bits - 1)`).
    fn half_modulus_bits(&self, primes: usize) -> f64 {
        (primes as f64) * f64::from(self.params.prime_bits - 1) - 1.0
    }

    /// A ciphertext at `primes` with `noise`, computed from operands
    /// whose least headroom was `history`.
    fn level(&self, primes: usize, noise: f64, history: f64) -> Level {
        let noise = noise.min(NOISE_CAP);
        let own = self.half_modulus_bits(primes) - noise.log2();
        Level {
            primes,
            noise,
            headroom_bits: own.min(history),
        }
    }

    /// A real ciphertext's position: `primes` primes, `noise`.
    pub(crate) fn at(&self, primes: usize, noise: f64) -> Level {
        self.level(primes, noise, f64::INFINITY)
    }

    /// A fresh encryption: the top of the chain.
    pub fn encrypt(&self) -> Level {
        self.at(self.chain_len(), FRESH_BITS.exp2())
    }

    /// One modulus switch (drops the last active prime).
    pub fn mod_switch(&self, a: Level) -> Level {
        assert!(a.primes > 1, "cannot switch below one prime");
        let scaled = (a.noise / f64::from(self.params.prime_bits).exp2()).ceil();
        let noise = scaled.max(MS_FLOOR_BITS.exp2()) * 2.0;
        self.level(a.primes - 1, noise, a.headroom_bits)
    }

    /// Switches down to `primes` primes; a ciphertext already at or
    /// below them is unchanged.
    pub fn mod_switch_to(&self, mut a: Level, primes: usize) -> Level {
        while a.primes > primes.max(1) {
            a = self.mod_switch(a);
        }
        a
    }

    /// Switches until the noise estimate drops to `target_bits` (or one
    /// prime remains).
    pub(crate) fn reduce(&self, mut a: Level, target_bits: f64) -> Level {
        while a.noise > target_bits.exp2() && a.primes > 1 {
            a = self.mod_switch(a);
        }
        a
    }

    /// Both operands at the lower of their two levels.
    pub(crate) fn align(&self, a: Level, b: Level) -> (Level, Level) {
        let primes = a.primes.min(b.primes);
        (self.mod_switch_to(a, primes), self.mod_switch_to(b, primes))
    }

    /// Ciphertext addition: aligned operands, magnitudes summed.
    pub fn add(&self, a: Level, b: Level) -> Level {
        let (a, b) = self.align(a, b);
        let history = a.headroom_bits.min(b.headroom_bits);
        self.level(a.primes, a.noise + b.noise, history)
    }

    /// Plaintext addition: the 0/1 plaintext moves the decryption
    /// value by at most one.
    pub fn add_plain(&self, a: Level) -> Level {
        self.level(a.primes, a.noise + 1.0, a.headroom_bits)
    }

    /// Plaintext product with a polynomial of 1-norm at most `l1`.
    pub(crate) fn mul_plain_l1(&self, a: Level, l1: usize) -> Level {
        let noise = a.noise * (2 * l1.max(2)) as f64;
        self.level(a.primes, noise, a.headroom_bits)
    }

    /// Plaintext product, charged the 1-norm bound `φ` of any GF(2)
    /// polynomial — the same for every operand.
    pub fn mul_plain(&self, a: Level) -> Level {
        self.mul_plain_l1(a, self.params.phi())
    }

    /// Where a ciphertext product's operands meet: each reduced to
    /// [`MUL_INPUT_BITS`], then aligned.
    pub(crate) fn mul_inputs(&self, a: Level, b: Level) -> (Level, Level) {
        self.align(
            self.reduce(a, MUL_INPUT_BITS),
            self.reduce(b, MUL_INPUT_BITS),
        )
    }

    /// The relinearised tensor product of two [`mul_inputs`]
    /// (Self::mul_inputs), before the output reduction.
    pub(crate) fn tensor(&self, a: Level, b: Level) -> Level {
        let tensor = a.noise * b.noise * (4 * self.params.phi()) as f64;
        let noise = tensor.max(self.ks_noise) * 2.0;
        self.level(a.primes, noise, a.headroom_bits.min(b.headroom_bits))
    }

    /// Ciphertext product: tensor, relinearise, and switch moduli to
    /// re-normalise noise.
    pub fn mul(&self, a: Level, b: Level) -> Level {
        let (a, b) = self.mul_inputs(a, b);
        self.reduce(self.tensor(a, b), MUL_INPUT_BITS)
    }

    /// One key switch: a slot automorphism by a nonzero amount.
    pub(crate) fn key_switch(&self, a: Level) -> Level {
        let noise = a.noise.max(self.ks_noise) * 2.0;
        self.level(a.primes, noise, a.headroom_bits)
    }

    /// [`FheBackend::rotate`](crate::FheBackend::rotate) of a
    /// `width`-slot vector by `k`, as the BGV backend performs it.
    pub fn rotate(&self, a: Level, k: isize, width: usize) -> Level {
        kernels::rotate(self, &a, k, width, self.nslots)
    }

    /// [`FheBackend::cyclic_extend`](crate::FheBackend::cyclic_extend)
    /// from `width` to `new_width` slots.
    pub fn cyclic_extend(&self, a: Level, width: usize, new_width: usize) -> Level {
        kernels::extend_in_blocks(self, &a, width, new_width, self.nslots, 1)
    }

    /// [`FheBackend::rotate_blocks`](crate::FheBackend::rotate_blocks)
    /// over `count` blocks.
    pub fn rotate_blocks(
        &self,
        a: Level,
        k: isize,
        width: usize,
        stride: usize,
        count: usize,
    ) -> Level {
        kernels::rotate_blocks(self, &a, k, width, stride, count)
    }

    /// [`FheBackend::cyclic_extend_blocks`](crate::FheBackend::cyclic_extend_blocks)
    /// over `count` blocks.
    pub fn cyclic_extend_blocks(
        &self,
        a: Level,
        width: usize,
        new_width: usize,
        stride: usize,
        count: usize,
    ) -> Level {
        kernels::extend_blocks(self, &a, width, new_width, stride, count)
    }

    /// [`FheBackend::pack_blocks`](crate::FheBackend::pack_blocks) of
    /// `lanes`.
    pub fn pack_blocks(&self, lanes: &[Level], stride: usize) -> Level {
        kernels::pack(self, lanes, stride)
    }

    /// [`FheBackend::unpack_block`](crate::FheBackend::unpack_block)
    /// of block `index`.
    pub fn unpack_block(&self, a: Level, index: usize, stride: usize, width: usize) -> Level {
        kernels::unpack(self, &a, index, stride, width, self.nslots)
    }

    /// [`FheBackend::tile_ciphertext`](crate::FheBackend::tile_ciphertext)
    /// into `count` blocks.
    pub fn tile(&self, a: Level, stride: usize, count: usize) -> Level {
        self.pack_blocks(&vec![a; count], stride)
    }
}

impl SlotOps for LevelRule {
    type Ct = Level;

    fn rotate_full(&self, a: &Level, k: isize) -> Level {
        if self.nslots > 0 && k.rem_euclid(self.nslots as isize) == 0 {
            *a
        } else {
            self.key_switch(*a)
        }
    }

    fn mask(&self, a: &Level, _span: kernels::Span) -> Level {
        self.mul_plain(*a)
    }

    fn sum(&self, a: &Level, b: &Level) -> Level {
        self.add(*a, *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> LevelRule {
        LevelRule::new(BgvParams::tiny(), 6)
    }

    #[test]
    fn additions_are_order_independent() {
        let r = rule();
        let x = r.encrypt();
        let terms: Vec<Level> = (0..7)
            .map(|i| r.mul_plain(r.key_switch(r.at(10, 300.0 + 7.0 * f64::from(i)))))
            .collect();
        let left = terms[1..].iter().fold(terms[0], |acc, &t| r.add(acc, t));
        let right = terms[..6]
            .iter()
            .rev()
            .fold(terms[6], |acc, &t| r.add(t, acc));
        let split = r.add(
            terms[1..3].iter().fold(terms[0], |acc, &t| r.add(acc, t)),
            terms[4..].iter().fold(terms[3], |acc, &t| r.add(acc, t)),
        );
        // Bit for bit, whatever the bracketing.
        assert_eq!(left, right);
        assert_eq!(left, split);
        // Two equal magnitudes cost one bit.
        assert_eq!(r.add(x, x).noise.log2(), FRESH_BITS + 1.0);
    }

    #[test]
    fn plaintext_products_charge_the_ring_degree_bound() {
        let r = rule();
        let x = r.encrypt();
        let phi = BgvParams::tiny().phi();
        assert_eq!(r.mul_plain(x), r.mul_plain_l1(x, phi));
        assert!(r.mul_plain(x).noise > r.mul_plain_l1(x, 3).noise);
    }

    #[test]
    fn products_reduce_and_align_like_the_scheme() {
        let r = rule();
        let top = r.encrypt();
        let low = r.mod_switch_to(top, 6);
        // A fresh operand at the top is aligned down to the other's
        // level; the modulus switch takes its noise to the floor.
        let (a, b) = r.align(top, low);
        assert_eq!((a.primes, b.primes), (6, 6));
        assert_eq!(a.noise.log2(), MS_FLOOR_BITS + 1.0);
        let p = r.mul(top, low);
        assert!(p.primes < 6 && p.noise.log2() <= MUL_INPUT_BITS);
    }

    #[test]
    fn headroom_remembers_the_tightest_ancestor() {
        let r = rule();
        // A key switch at one prime overflows the estimate; switching
        // away cannot bring the lost value back.
        let bottom = r.mod_switch_to(r.encrypt(), 1);
        assert!(bottom.headroom_bits > 0.0);
        let spoiled = r.mul_plain(r.key_switch(bottom));
        assert!(spoiled.headroom_bits < 0.0);
        let later = r.add(spoiled, bottom);
        assert!(later.headroom_bits < 0.0);
    }
}
