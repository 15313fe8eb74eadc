//! The BGV level rule: how every operation moves a ciphertext's noise
//! estimate and its place in the modulus chain.
//!
//! The rule is written once, as the methods of [`LevelRule`]. The
//! scheme calls them on every ciphertext it produces — the noise
//! estimate it stores and each modulus switch it performs are the
//! rule's — and [`BgvBackend`](crate::BgvBackend)'s slot-layout
//! kernels run, unchanged, over bare [`Level`]s on a
//! [leveled](ClearBackend::leveled) [`ClearBackend`], whose
//! ciphertexts carry their bits beside their level. The static
//! analyzer (`copse_core::analyze`) runs the runtime on that backend
//! over zero bits — no key, no lattice ciphertext — and gets the
//! levels evaluation will reach.
//!
//! Two properties keep that run exact whatever the data and however
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

use crate::backend::MaybeEncrypted;
use crate::bgv::backend::{SlotOps, SumPlan};
use crate::bgv::scheme::BgvParams;
use crate::clear::ClearBackend;
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
    /// GF(2) slots of the rule's ring.
    pub(crate) nslots: usize,
    /// Key-switch additive noise magnitude.
    ks_noise: f64,
}

impl LevelRule {
    /// The rule of `params` — what a [`BgvBackend`](crate::BgvBackend)
    /// keyed with them follows, without generating a key.
    ///
    /// # Panics
    ///
    /// Panics unless `m` is an odd prime: a backend needs GF(2) slots.
    pub fn of(params: &BgvParams) -> Self {
        Self::new(*params, SlotStructure::new(params.m).nslots())
    }

    /// The rule of `params`, for a ring with `nslots` GF(2) slots (0
    /// for a scheme on the negacyclic ring, which has none to rotate).
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

    /// A fresh symmetric encryption at `primes` primes (clamped to the
    /// chain): `c0 + c1·s = 2e + m` with each coefficient of `e` within
    /// `±error_eta`, so its noise is `2·error_eta + 1` — below the floor
    /// of a ciphertext switched down from the top.
    pub fn encrypt_symmetric(&self, primes: usize) -> Level {
        let noise = 2 * self.params.error_eta + 1;
        self.at(primes.clamp(1, self.chain_len()), f64::from(noise))
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

    /// How a query plane enters a circuit at `primes` primes: switched
    /// down to them, its noise raised to at least the floor a switch
    /// leaves. A plane made at `primes` ([`encrypt_symmetric`]) and one
    /// made above them and switched down enter in this one state, so a
    /// circuit's levels do not depend on where its planes were made,
    /// and an entry sized for the state holds for both.
    ///
    /// [`encrypt_symmetric`]: Self::encrypt_symmetric
    pub fn enter(&self, a: Level, primes: usize) -> Level {
        let a = self.mod_switch_to(a, primes);
        let noise = a.noise.max(MS_FLOOR_BITS.exp2() * 2.0);
        self.level(a.primes, noise, a.headroom_bits)
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

    /// Plaintext product, charged the 1-norm bound `φ` of any GF(2)
    /// polynomial — the same for every operand.
    pub fn mul_plain(&self, a: Level) -> Level {
        let noise = a.noise * (2 * self.params.phi()) as f64;
        self.level(a.primes, noise, a.headroom_bits)
    }

    /// Where a ciphertext product's operands meet: each reduced to
    /// [`MUL_INPUT_BITS`], then aligned.
    pub(crate) fn mul_inputs(&self, a: Level, b: Level) -> (Level, Level) {
        self.align(
            self.reduce(a, MUL_INPUT_BITS),
            self.reduce(b, MUL_INPUT_BITS),
        )
    }

    /// The exact zero at `primes` primes: no noise and no headroom
    /// spent, so [`add`](Self::add) leaves any term added to it as it
    /// is — where a sum of products starts.
    pub(crate) fn zero(&self, primes: usize) -> Level {
        self.at(primes, 0.0)
    }

    /// The tensor of two operands at one level, not yet relinearised:
    /// its three parts decrypt under `(1, s, s²)` with this noise.
    pub(crate) fn tensor(&self, a: Level, b: Level) -> Level {
        let tensor = a.noise * b.noise * (4 * self.params.phi()) as f64;
        self.level(a.primes, tensor, a.headroom_bits.min(b.headroom_bits))
    }

    /// One relinearisation of a tensor — of a single product, or of a
    /// sum of them ([`add`](Self::add) sums tensor noise like any other),
    /// so the key switch's noise is charged once however many tensors
    /// were summed.
    pub(crate) fn relinearise(&self, t: Level) -> Level {
        let noise = t.noise.max(self.ks_noise) * 2.0;
        self.level(t.primes, noise, t.headroom_bits)
    }

    /// A finished sum of products: a tensor sum relinearises and
    /// switches moduli to re-normalise noise; a sum of plaintext
    /// products is already a ciphertext.
    pub(crate) fn finish(&self, sum: Level, tensor: bool) -> Level {
        match tensor {
            true => self.reduce(self.relinearise(sum), MUL_INPUT_BITS),
            false => sum,
        }
    }

    /// Ciphertext product: tensor, relinearise, and switch moduli to
    /// re-normalise noise.
    pub fn mul(&self, a: Level, b: Level) -> Level {
        let (a, b) = self.mul_inputs(a, b);
        self.finish(self.tensor(a, b), true)
    }

    /// One key switch: a slot automorphism by a nonzero amount.
    pub(crate) fn key_switch(&self, a: Level) -> Level {
        let noise = a.noise.max(self.ks_noise) * 2.0;
        self.level(a.primes, noise, a.headroom_bits)
    }
}

/// A sum of products as the level rule sees it: the level it
/// accumulates at and whether it is a tensor sum, which owes one
/// relinearisation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LevelSum {
    at: Level,
    tensor: bool,
}

impl SlotOps for LevelRule {
    type Ct = Level;
    type Operand = MaybeEncrypted<ClearBackend>;
    type Factor = Level;
    type Sum = LevelSum;

    fn rule(&self) -> &LevelRule {
        self
    }

    fn level(&self, a: &Level) -> Level {
        *a
    }

    fn operand_level(&self, b: &MaybeEncrypted<ClearBackend>) -> Option<Level> {
        match b {
            MaybeEncrypted::Plain(_) => None,
            MaybeEncrypted::Encrypted(ct) => Some(ct.at()),
        }
    }

    fn rotate_full(&self, a: &Level, k: isize) -> Level {
        if k.rem_euclid(self.nslots as isize) == 0 {
            *a
        } else {
            self.key_switch(*a)
        }
    }

    fn mask(&self, a: &Level, _span: std::ops::Range<usize>) -> Level {
        self.mul_plain(*a)
    }

    fn sum(&self, a: &Level, b: &Level) -> Level {
        self.add(*a, *b)
    }

    fn factor(&self, a: &Level, primes: usize) -> Level {
        self.mod_switch_to(*a, primes)
    }

    fn empty(&self, plan: SumPlan) -> LevelSum {
        LevelSum {
            at: self.zero(plan.primes),
            tensor: plan.tensor,
        }
    }

    fn mul_add(&self, sum: &mut LevelSum, a: &Level, b: &MaybeEncrypted<ClearBackend>) {
        let term = match b {
            MaybeEncrypted::Plain(_) => self.mul_plain(*a),
            MaybeEncrypted::Encrypted(ct) => {
                self.tensor(*a, self.mod_switch_to(ct.at(), sum.at.primes))
            }
        };
        sum.at = self.add(sum.at, term);
    }

    fn combine(&self, sum: &mut LevelSum, other: LevelSum) {
        sum.at = self.add(sum.at, other.at);
    }

    fn finish(&self, sum: LevelSum) -> Level {
        LevelRule::finish(self, sum.at, sum.tensor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FheBackend, NoiseBudget, RingDiagonals};
    use crate::bitvec::BitVec;
    use crate::meter::OpCounts;
    use crate::{BgvBackend, ClearConfig};

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
        assert_eq!(r.mul_plain(x).noise, x.noise * (2 * phi) as f64);
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

        // A summed tensor: an encrypted 5 x 5 matrix with a term at
        // every one of the 6 slot shifts, the most tensors one ring
        // product sums on this ring. The rule's run of the kernel
        // finishes at the scheme's primes and noise estimate, bit for
        // bit, and the BGV product decrypts to the clear backend's and
        // the leveled one's bits.
        let bgv = BgvBackend::tiny();
        let NoiseBudget::Chain(rule) = bgv.noise_budget() else {
            unreachable!("BGV budgets a modulus chain")
        };
        assert_eq!(rule, r);
        let clear = ClearBackend::new(ClearConfig {
            slot_capacity: Some(6),
            ..ClearConfig::default()
        });
        let leveled = ClearBackend::leveled(rule);
        let v = BitVec::from_fn(5, |i| i % 3 != 1);
        let diagonal = |r: usize| BitVec::from_fn(5, |j| (j + r) % 6 < 3);
        fn product<B: FheBackend>(be: &B, v: &BitVec, diagonals: &[BitVec]) -> B::Ciphertext {
            let operands: Vec<_> = diagonals
                .iter()
                .map(|d| MaybeEncrypted::Encrypted(be.encrypt_bits(d)))
                .collect();
            let terms: [RingDiagonals<'_, B>; 1] = [operands.iter().map(Some).collect()];
            let shifts: Vec<usize> = (0..diagonals.len()).collect();
            let mut sums = be.ring_mat_vec(&be.encrypt_bits(v), &shifts, &terms, 5, 1);
            sums[0].take().expect("a term at every shift")
        }
        let diagonals: Vec<BitVec> = (0..6).map(diagonal).collect();
        let real = product(&bgv, &v, &diagonals);
        let predicted = product(&leveled, &v, &diagonals);
        assert_eq!(bgv.decrypt(&real), leveled.decrypt(&predicted));
        let predicted = predicted.at();
        assert_eq!(predicted.primes, bgv.scheme().level(&real.inner));
        assert_eq!(predicted.noise, real.inner.noise);
        assert!(predicted.primes < rule.chain_len() && predicted.headroom_bits > 0.0);
        assert_eq!(
            bgv.decrypt(&real),
            clear.decrypt(&product(&clear, &v, &diagonals))
        );
    }

    #[test]
    fn planes_enter_at_the_floor_of_a_switch() {
        // A plane made at the entry and one switched down to it enter
        // in one state — what the public-key route switched down
        // reaches — so one entry and one prediction hold for both.
        let r = rule();
        let state = r.mod_switch_to(r.encrypt(), 4);
        assert_eq!(state.noise.log2(), MS_FLOOR_BITS + 1.0);
        for plane in [r.encrypt_symmetric(4), r.encrypt_symmetric(10), r.encrypt()] {
            assert_eq!(r.enter(plane, 4), state);
        }
        // A noisier plane keeps its noise.
        let noisy = r.at(4, 1e6);
        assert_eq!(r.enter(noisy, 4), noisy);
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

    /// Runs a table of steps, one per [`FheBackend`] op (the
    /// packed-batch primitives included), each over the results of the
    /// steps before it, and returns the ops every step meters, the
    /// depth reading of its result and the bits it decrypts to. Widths
    /// fit `BgvParams::tiny()`'s 6 slots; packed steps lay 2 blocks at
    /// stride 3.
    fn readings<B: FheBackend>(be: &B) -> Vec<(OpCounts, u32, BitVec)> {
        type Step<B> = fn(&B, &[<B as FheBackend>::Ciphertext]) -> <B as FheBackend>::Ciphertext;
        let steps: [Step<B>; 29] = [
            |be, _| be.encrypt_bits(&BitVec::from_fn(3, |i| i % 2 == 0)),
            |be, c| be.add_plain(&c[0], &be.encode(&BitVec::ones(3))),
            |be, c| be.add(&c[0], &c[1]),
            |be, c| be.mul(&c[0], &c[2]),
            |be, c| be.mul_plain(&c[3], &be.encode(&BitVec::ones(3))),
            |be, c| be.not(&c[4]),
            |be, c| be.rotate(&c[5], 1),
            |be, c| be.rotate(&c[6], -2),
            |be, c| be.rotate(&c[7], 2),
            |be, c| be.mul(&c[8], &c[8]),
            |be, c| be.mod_switch_to(&c[9], 5),
            |be, _| be.encrypt_zeros_seeded(3, 7),
            |be, c| be.add(&c[10], &c[11]),
            |be, c| {
                be.decrypt(&c[12]);
                c[12].clone()
            },
            |be, _| be.encrypt_bits(&BitVec::ones(2)),
            |be, c| be.pack_blocks(&[c[12].clone(), c[14].clone()], 3, 6),
            |be, c| be.unpack_block(&c[15], 1, 3, 2),
            |be, c| be.pack_blocks(&[c[14].clone(), c[14].clone()], 3, 6),
            |be, c| be.unpack_block(&c[17], 0, 3, 3),
            |be, c| be.tile_ciphertext(&c[11], 3, 2),
            |be, c| be.compact_for_decrypt(&c[19]),
            |be, c| {
                // Two 5 x 3 matrices on the 6-slot ring times the packed
                // c[15], whose slots past the 3 columns hold the second
                // block (stale data the diagonals never read): a
                // plaintext one with a term at every shift, an encrypted
                // one at every other shift.
                let shifts = [0, 1, 2, 3, 4, 5];
                let diagonal = |r: usize| BitVec::from_fn(5, |j| (j + r) % 6 < 3);
                let plain: Vec<_> = (0..6)
                    .map(|r| MaybeEncrypted::Plain(be.encode(&diagonal(r))))
                    .collect();
                let encrypted: Vec<_> = (0..6)
                    .map(|r| MaybeEncrypted::Encrypted(be.encrypt_bits(&diagonal(r))))
                    .collect();
                let terms: [RingDiagonals<'_, B>; 2] = [
                    plain.iter().map(Some).collect(),
                    encrypted
                        .iter()
                        .enumerate()
                        .map(|(s, d)| (s % 2 == 0).then_some(d))
                        .collect(),
                ];
                let out = be.ring_mat_vec(&c[15], &shifts, &terms, 5, 2);
                be.add(out[0].as_ref().unwrap(), out[1].as_ref().unwrap())
            },
            // A semantic rotation at full width: one automorphism.
            |be, c| be.rotate(&c[15], 2),
            // A query plane made at 4 primes, and a product with a
            // ciphertext from the top of the chain.
            |be, _| be.encrypt_query_bits(&BitVec::from_fn(3, |i| i != 1), Some(4)),
            |be, c| be.mul(&c[23], &c[0]),
            // Entering a circuit at 4 primes: the plane made there, a
            // ciphertext from the top of the chain, and their product.
            |be, c| be.enter_circuit(&c[23], 4),
            |be, c| be.enter_circuit(&c[0], 4),
            |be, c| be.mul(&c[25], &c[26]),
            // A sum of a plaintext product from the top of the chain
            // and a ciphertext product at the entry, finished once.
            |be, c| {
                let plain = MaybeEncrypted::Plain(be.encode(&BitVec::ones(3)));
                let encrypted = MaybeEncrypted::Encrypted(c[26].clone());
                be.product_sum(&[(&c[0], &plain), (&c[25], &encrypted)])
            },
        ];
        let mut cts = Vec::new();
        steps
            .iter()
            .map(|step| {
                be.meter().reset();
                let ct = step(be, &cts);
                let reading = (be.meter().snapshot(), be.depth(&ct), be.decrypt(&ct));
                cts.push(ct);
                reading
            })
            .collect()
    }

    #[test]
    fn the_leveled_clear_backend_keeps_the_clear_and_bgv_contracts() {
        // The analyzer's results rest on these: a leveled clear backend
        // meters every op as the clear backend does and reads the depth
        // real ciphertexts reach under a BGV rule, and at every step all
        // three decrypt to the same bits. (The clear backend gets tiny's
        // 6 slots, which the ring product runs on.)
        let clear = readings(&ClearBackend::new(ClearConfig {
            slot_capacity: Some(6),
            ..ClearConfig::default()
        }));
        let bgv = BgvBackend::tiny();
        let NoiseBudget::Chain(rule) = bgv.noise_budget() else {
            unreachable!("BGV budgets a modulus chain")
        };
        let real = readings(&bgv);
        let leveled = readings(&ClearBackend::leveled(rule));
        assert_eq!(leveled, real);
        for (step, ((ops, _, bits), (clear_ops, _, clear_bits))) in
            leveled.iter().zip(&clear).enumerate()
        {
            assert_eq!((ops, bits), (clear_ops, clear_bits), "step {step}");
        }
        assert!(
            real.iter().any(|&(_, depth, _)| depth > 0),
            "the program spends chain primes"
        );
        // The ring product meters nothing itself: its caller records
        // the width-n product it stands for.
        assert_eq!(real[21].0.rotate + real[21].0.constant_multiply, 0);
    }

    #[test]
    fn the_leveled_slot_ring_is_the_rules() {
        // Layouts chosen by capability must see the ring BGV has.
        assert_eq!(ClearBackend::leveled(rule()).slot_capacity(), Some(6));
        assert_eq!(
            ClearBackend::leveled(LevelRule::of(&BgvParams::demo())).slot_capacity(),
            BgvBackend::demo().slot_capacity()
        );
        // Without a rule, the analyzer's backends: no slot ring for a
        // solo run, whose matrices then run on a ring of their own
        // column count (and deploy the paper's one Encrypt per column),
        // and a ring of `lanes · stride` slots for a packed chunk of
        // `lanes` blocks at `stride`.
        let unbounded = ClearConfig {
            max_depth: u32::MAX,
            slot_capacity: None,
            work_per_op: 0,
        };
        assert_eq!(ClearBackend::new(unbounded).slot_capacity(), None);
        let (lanes, stride) = (3, 7);
        let packed = ClearBackend::new(ClearConfig {
            slot_capacity: Some(lanes * stride),
            ..unbounded
        });
        assert_eq!(packed.slot_capacity(), Some(21));
        assert_eq!(
            packed.noise_budget(),
            ClearBackend::new(unbounded).noise_budget()
        );
    }
}
