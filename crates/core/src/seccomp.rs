//! Secure packed comparison (the SecComp kernel, paper §4.1.2).
//!
//! Compares `k` fixed-point feature values against `k` thresholds — all
//! in parallel — given both sides in the transposed bit-sliced layout
//! (plane `i` of all values in one packed vector, MSB first). This is
//! COPSE's step 1: one invocation thresholds *every* decision node of
//! the forest at once, regardless of the number of branches.
//!
//! The comparison is the standard lexicographic circuit: value `x` is
//! below `y` iff at the first differing bit position `x` has 0 and `y`
//! has 1. Writing `e_i = ¬(x_i ⊕ y_i)` (bit equality) and
//! `l_i = ¬x_i ∧ y_i` (strictly-below at bit `i`),
//!
//! ```text
//! x < y  =  l_0  ⊕  ⨁_{i=1}^{p-1} (e_0 ∧ … ∧ e_{i-1}) ∧ l_i
//! ```
//!
//! where the XOR-accumulation is exact because at most one term fires.
//! Two strategies evaluate it ([`SecCompVariant`]):
//!
//! * [`LadderPrefix`](SecCompVariant::LadderPrefix) — every term's
//!   product is evaluated independently by balanced pairwise
//!   multiplication, exactly as Aloufi et al. describe ("the
//!   multiplications in each term are evaluated recursively in pairs").
//!   `p(p−1)/2` multiplies, depth `⌈log₂ p⌉ + 1`. The paper uses it in
//!   both COPSE and the baseline, so the paper exhibits and
//!   `copse-baseline` name it.
//! * [`Tree`](SecCompVariant::Tree) — divide and conquer: a node holds
//!   `(lt, eq)` over a contiguous range of planes, and adjacent ranges
//!   merge as `lt = lt_hi ⊕ eq_hi ∧ lt_lo`, `eq = eq_hi ∧ eq_lo`. The
//!   range holding plane `p−1` never needs its `eq`, so `Θ(p)`
//!   multiplies (11 at `p = 8`, 26 at `p = 16`, against the ladder's 28
//!   and 120), never deeper than the ladder. The default, so what
//!   `copse-server` runs.
//!
//! On a leveled scheme a ciphertext product costs a relinearisation,
//! and the tree pays one only for a sum that is multiplied again. A
//! merge only adds `lt_hi`, so the tree keeps each `lt` as its list of
//! products, unsummed, and sums a list
//! ([`FheBackend::product_sum`], one relinearisation however many
//! ciphertext products it holds) only where it is an `lt_lo`, which
//! `eq_hi` multiplies, or the root. Every `eq` is multiplied again and
//! relinearises on its own. Deferred are the `lt` of every high-side
//! node and, in the encrypted form, the high-side leaves' products
//! `t_i ∧ ¬x_i` (in the plain form those are plaintext products, which
//! never relinearise). Where a sum is finished moves no op count and
//! no depth. Relinearisations per comparison:
//!
//! | `p` | tree, plain model | tree, encrypted model | ladder, plain / encrypted |
//! |---:|---:|---:|---:|
//! | 4 | 3 | 5 | 6 / 10 |
//! | 8 | 8 | 12 | 28 / 36 |
//! | 16 | 19 | 27 | 120 / 136 |

use crate::parallel::{map_indices, Parallelism};
use copse_fhe::{FheBackend, MaybeEncrypted};
use std::borrow::Cow;

/// How SecComp combines the per-plane `below`/`equal` bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SecCompVariant {
    /// Independent balanced product per term (Aloufi et al.; what the
    /// paper evaluates).
    LadderPrefix,
    /// Divide-and-conquer `(lt, eq)` tree: linear in `p`.
    #[default]
    Tree,
}

/// Computes the packed decision vector `features < thresholds`.
///
/// `features` and `thresholds` are `p` bit planes each (MSB first,
/// equal widths). Thresholds may be plaintext (Maurice = Sally) or
/// encrypted (offloaded model). Returns one ciphertext whose slot `j`
/// is `feature[j] < threshold[j]`.
///
/// # Panics
///
/// Panics if the plane counts differ or are zero.
pub fn secure_less_than<B: FheBackend>(
    backend: &B,
    features: &[B::Ciphertext],
    thresholds: &[MaybeEncrypted<B>],
    variant: SecCompVariant,
    parallelism: Parallelism,
) -> B::Ciphertext {
    assert!(!features.is_empty(), "at least one bit plane required");
    assert_eq!(
        features.len(),
        thresholds.len(),
        "feature and threshold precision differ"
    );
    let p = features.len();

    // ¬x_i, which every strictly-below bit l_i = ¬x_i ∧ t_i reads.
    let not_x: Vec<B::Ciphertext> = map_indices(parallelism, p, |i| backend.not(&features[i]));

    // Equality bits for planes 0..p-2 (plane p-1 never prefixes):
    // e_i = NOT(x_i XOR t_i).
    let equal: Vec<B::Ciphertext> = map_indices(parallelism, p - 1, |i| {
        backend.not(&thresholds[i].add_into(backend, &features[i]))
    });

    match variant {
        SecCompVariant::LadderPrefix => {
            let below: Vec<B::Ciphertext> = map_indices(parallelism, p, |i| {
                thresholds[i].mul_into(backend, &not_x[i])
            });
            let terms = map_indices(parallelism, p - 1, |j| {
                let i = j + 1;
                let mut factors = Vec::with_capacity(i + 1);
                factors.push(below[i].clone());
                factors.extend(equal[..i].iter().cloned());
                balanced_product(backend, factors)
            });
            // Combine: l_0 XOR the per-position terms.
            terms
                .iter()
                .fold(below[0].clone(), |acc, t| backend.add(&acc, t))
        }
        SecCompVariant::Tree => {
            // A node's `lt` is a list of products not yet summed: the
            // merge `lt = lt_hi ⊕ eq_hi ∧ lt_lo` only adds `lt_hi`, so
            // its products join the merged node's list, and only an
            // `lt_lo` (which `eq_hi` multiplies) and the root are
            // summed, each as one product sum. A leaf's list is its one
            // product ¬x_i ∧ t_i. The last node of every level holds
            // plane p-1, whose `eq` nothing reads: it has none.
            let sum = |lt: &Lt<'_, B>| {
                let terms: Vec<_> = lt.iter().map(|(a, b)| (a, b.as_ref())).collect();
                backend.product_sum(&terms)
            };
            let leaves = not_x
                .into_iter()
                .zip(thresholds)
                .map(|(not_x, t)| vec![(not_x, Cow::Borrowed(t))]);
            let eqs = equal.into_iter().map(Some).chain([None]);
            let mut nodes: Vec<(Lt<'_, B>, Option<B::Ciphertext>)> = leaves.zip(eqs).collect();
            while nodes.len() > 1 {
                // An odd node is carried up unchanged.
                let odd = nodes.len() % 2 == 1;
                let carried = nodes.pop_if(|_| odd);
                // What the merges multiply: each pair's summed lt_lo,
                // and eq = eq_hi ∧ eq_lo.
                let products = map_indices(parallelism, nodes.len() / 2, |k| {
                    let ((_, eq_hi), (lt_lo, eq_lo)) = (&nodes[2 * k], &nodes[2 * k + 1]);
                    let eq_hi = eq_hi.as_ref().expect("only the last node lacks eq");
                    (
                        sum(lt_lo),
                        eq_lo.as_ref().map(|eq_lo| backend.mul(eq_hi, eq_lo)),
                    )
                });
                let mut halves = nodes.into_iter();
                let mut merged: Vec<_> = products
                    .into_iter()
                    .map(|(lt_lo, eq)| {
                        let (mut lt, eq_hi) = halves.next().expect("a high node");
                        halves.next().expect("its low node, summed above");
                        // The XOR joins disjoint terms: lt_hi = 1 ⇒ eq_hi = 0.
                        let eq_hi = eq_hi.expect("only the last node lacks eq");
                        lt.push((eq_hi, Cow::Owned(MaybeEncrypted::Encrypted(lt_lo))));
                        (lt, eq)
                    })
                    .collect();
                merged.extend(carried);
                nodes = merged;
            }
            sum(&nodes.pop().expect("one root").0)
        }
    }
}

/// A [`Tree`](SecCompVariant::Tree) node's `lt` before it is summed:
/// its products, each a ciphertext and the operand that multiplies it
/// (a threshold plane, borrowed, or a summed `lt`).
type Lt<'t, B> = Vec<(<B as FheBackend>::Ciphertext, Cow<'t, MaybeEncrypted<B>>)>;

/// Balanced pairwise product of `factors` (`n-1` multiplies, depth
/// `⌈log₂ n⌉` above the deepest factor). Shared by SecComp's ladder
/// variant and the polynomial baseline.
pub fn balanced_product<B: FheBackend>(
    backend: &B,
    mut factors: Vec<B::Ciphertext>,
) -> B::Ciphertext {
    assert!(!factors.is_empty(), "product of no factors");
    while factors.len() > 1 {
        let mut next = Vec::with_capacity(factors.len().div_ceil(2));
        for chunk in factors.chunks(2) {
            next.push(match chunk {
                [a, b] => backend.mul(a, b),
                [a] => a.clone(),
                _ => unreachable!("chunks(2)"),
            });
        }
        factors = next;
    }
    factors.into_iter().next().expect("nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use copse_fhe::{BitSliced, BitVec, ClearBackend, FheBackend};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const VARIANTS: [SecCompVariant; 2] = [SecCompVariant::LadderPrefix, SecCompVariant::Tree];

    fn run_comparison(
        xs: &[u64],
        ts: &[u64],
        precision: u32,
        encrypted_thresholds: bool,
        variant: SecCompVariant,
        threads: usize,
    ) -> Vec<bool> {
        let be = ClearBackend::with_defaults();
        let x = BitSliced::from_values(xs, precision);
        let t = BitSliced::from_values(ts, precision);
        let feats: Vec<_> = x.planes().iter().map(|p| be.encrypt_bits(p)).collect();
        let thresh: Vec<MaybeEncrypted<ClearBackend>> = t
            .planes()
            .iter()
            .map(|p| {
                if encrypted_thresholds {
                    MaybeEncrypted::Encrypted(be.encrypt_bits(p))
                } else {
                    MaybeEncrypted::Plain(be.encode(p))
                }
            })
            .collect();
        let out = secure_less_than(&be, &feats, &thresh, variant, Parallelism { threads });
        be.decrypt(&out).to_bools()
    }

    #[test]
    fn compares_every_pair_up_to_6_bits() {
        for p in 1..=6u32 {
            let n = 1u64 << p;
            let xs: Vec<u64> = (0..n * n).map(|k| k / n).collect();
            let ts: Vec<u64> = (0..n * n).map(|k| k % n).collect();
            let want: Vec<bool> = xs.iter().zip(&ts).map(|(x, t)| x < t).collect();
            for variant in VARIANTS {
                for encrypted in [false, true] {
                    let got = run_comparison(&xs, &ts, p, encrypted, variant, 1);
                    assert_eq!(got, want, "p = {p} {variant:?} encrypted={encrypted}");
                }
            }
        }
    }

    #[test]
    fn encrypted_thresholds_agree_with_plain() {
        let mut rng = SmallRng::seed_from_u64(5);
        let xs: Vec<u64> = (0..24).map(|_| rng.gen_range(0..256)).collect();
        let ts: Vec<u64> = (0..24).map(|_| rng.gen_range(0..256)).collect();
        let want: Vec<bool> = xs.iter().zip(&ts).map(|(&x, &t)| x < t).collect();
        for variant in VARIANTS {
            assert_eq!(run_comparison(&xs, &ts, 8, true, variant, 1), want);
            assert_eq!(run_comparison(&xs, &ts, 8, false, variant, 1), want);
        }
    }

    #[test]
    fn variants_agree_everywhere() {
        let mut rng = SmallRng::seed_from_u64(6);
        for p in [2u32, 3, 5, 8, 16] {
            let bound = 1u64 << p;
            let xs: Vec<u64> = (0..20).map(|_| rng.gen_range(0..bound)).collect();
            let ts: Vec<u64> = (0..20).map(|_| rng.gen_range(0..bound)).collect();
            assert_eq!(
                run_comparison(&xs, &ts, p, true, SecCompVariant::LadderPrefix, 1),
                run_comparison(&xs, &ts, p, true, SecCompVariant::Tree, 1),
                "p = {p}"
            );
        }
    }

    #[test]
    fn tree_dominates_the_ladder() {
        use crate::analyze::seccomp;
        use crate::runtime::ModelForm::{Encrypted, Plain};
        use SecCompVariant::{LadderPrefix, Tree};
        // On the analyzer's backend: ct-ct multiplies and depth, and
        // every other op, which the two arms share.
        let cost = |p, form, v| {
            let s = seccomp(p, form, v);
            (s.ops.multiply, s.depth_cost)
        };
        let rest = |p, form, v| copse_fhe::OpCounts {
            multiply: 0,
            ..seccomp(p, form, v).ops
        };
        for p in 1..=32u32 {
            for form in [Plain, Encrypted] {
                let ((lm, ld), (tm, td)) = (cost(p, form, LadderPrefix), cost(p, form, Tree));
                assert!(tm <= lm && td <= ld, "p = {p} {form:?}");
                assert_eq!(rest(p, form, Tree), rest(p, form, LadderPrefix));
            }
        }
        for (p, plain, encrypted, ladder) in [
            (6, (8, 3), (14, 3), (15, 4)),
            (8, (11, 4), (19, 4), (28, 4)),
            (16, (26, 5), (42, 5), (120, 5)),
        ] {
            assert_eq!(cost(p, Plain, Tree), plain, "p = {p}");
            assert_eq!(cost(p, Encrypted, Tree), encrypted, "p = {p}");
            assert_eq!(cost(p, Plain, LadderPrefix), ladder, "p = {p}");
        }
    }

    #[test]
    fn tree_relinearises_only_what_is_multiplied_again() {
        use crate::runtime::ModelForm::{Encrypted, Plain};
        use copse_fhe::{BgvBackend, BgvParams, KeySwitchCounts, OpMeter};
        // Key switches are counted where they run, on BGV. Per
        // precision: the Tree's relinearisations in the plain and the
        // encrypted form, and the ladder's, which relinearises every
        // product.
        let be = BgvBackend::new(BgvParams {
            chain_len: 12,
            ..BgvParams::tiny()
        });
        let mut rng = SmallRng::seed_from_u64(46);
        for (p, tree_plain, tree_encrypted, ladder) in [
            (4u32, 3, 5, (6, 10)),
            (8, 8, 12, (28, 36)),
            (16, 19, 27, (120, 136)),
        ] {
            let xs: Vec<u64> = (0..6).map(|_| rng.gen_range(0..1u64 << p)).collect();
            let ts: Vec<u64> = (0..6).map(|_| rng.gen_range(0..1u64 << p)).collect();
            let want: Vec<bool> = xs.iter().zip(&ts).map(|(x, t)| x < t).collect();
            let x = BitSliced::from_values(&xs, p);
            let t = BitSliced::from_values(&ts, p);
            let feats: Vec<_> = x.planes().iter().map(|pl| be.encrypt_bits(pl)).collect();
            let cases = [
                (Plain, SecCompVariant::Tree, tree_plain),
                (Encrypted, SecCompVariant::Tree, tree_encrypted),
                (Plain, SecCompVariant::LadderPrefix, ladder.0),
                (Encrypted, SecCompVariant::LadderPrefix, ladder.1),
            ];
            for (form, variant, relinearisation) in cases {
                let thresholds: Vec<_> = t
                    .planes()
                    .iter()
                    .map(|pl| form.operand(&be, be.encode(pl)))
                    .collect();
                let (out, meter) = OpMeter::measure(|| {
                    secure_less_than(&be, &feats, &thresholds, variant, Parallelism::sequential())
                });
                let case = format!("p = {p} {form:?} {variant:?}");
                let relinearised = KeySwitchCounts {
                    rotation: 0,
                    relinearisation,
                };
                assert_eq!(meter.key_switches(), relinearised, "{case}");
                assert_eq!(be.decrypt(&out).to_bools(), want, "{case}");
            }
        }
    }

    #[test]
    fn single_bit_precision() {
        // p = 1: x < t iff x = 0, t = 1.
        for variant in VARIANTS {
            let got = run_comparison(&[0, 0, 1, 1], &[0, 1, 0, 1], 1, false, variant, 1);
            assert_eq!(got, vec![false, true, false, false]);
        }
    }

    #[test]
    fn sixteen_bit_random() {
        let mut rng = SmallRng::seed_from_u64(11);
        let xs: Vec<u64> = (0..40).map(|_| rng.gen_range(0..65536)).collect();
        let ts: Vec<u64> = (0..40).map(|_| rng.gen_range(0..65536)).collect();
        let want: Vec<bool> = xs.iter().zip(&ts).map(|(&x, &t)| x < t).collect();
        for variant in VARIANTS {
            assert_eq!(run_comparison(&xs, &ts, 16, false, variant, 1), want);
        }
    }

    #[test]
    fn equal_values_are_not_below() {
        let xs = vec![5, 200, 0, 255];
        for variant in VARIANTS {
            assert_eq!(
                run_comparison(&xs.clone(), &xs, 8, false, variant, 1),
                vec![false; 4]
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = SmallRng::seed_from_u64(23);
        let xs: Vec<u64> = (0..33).map(|_| rng.gen_range(0..256)).collect();
        let ts: Vec<u64> = (0..33).map(|_| rng.gen_range(0..256)).collect();
        for variant in VARIANTS {
            assert_eq!(
                run_comparison(&xs, &ts, 8, true, variant, 4),
                run_comparison(&xs, &ts, 8, true, variant, 1)
            );
        }
    }

    #[test]
    fn depth_is_logarithmic_in_precision() {
        let be = ClearBackend::with_defaults();
        for variant in VARIANTS {
            for p in [2u32, 4, 8, 16] {
                let x = BitSliced::from_values(&[3], p);
                let t = BitSliced::from_values(&[2], p);
                let feats: Vec<_> = x.planes().iter().map(|pl| be.encrypt_bits(pl)).collect();
                let thresh: Vec<_> = t
                    .planes()
                    .iter()
                    .map(|pl| MaybeEncrypted::Plain(be.encode(pl)))
                    .collect();
                let out =
                    secure_less_than(&be, &feats, &thresh, variant, Parallelism::sequential());
                let depth = be.depth(&out);
                let bound = (p as f64).log2().ceil() as u32 + 2;
                assert!(
                    depth <= bound,
                    "{variant:?} p={p}: depth {depth} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn comparison_cost_is_independent_of_slot_count() {
        // The packed comparison does the same number of homomorphic
        // ops whether it compares 4 or 400 values (paper §3.3 step 1).
        let be = ClearBackend::with_defaults();
        let mut counts = Vec::new();
        for width in [4usize, 400] {
            let xs: Vec<u64> = (0..width as u64).map(|i| i % 256).collect();
            let x = BitSliced::from_values(&xs, 8);
            let feats: Vec<_> = x.planes().iter().map(|pl| be.encrypt_bits(pl)).collect();
            let thresh: Vec<_> = x
                .planes()
                .iter()
                .map(|pl| MaybeEncrypted::Plain(be.encode(pl)))
                .collect();
            let before = be.meter().snapshot();
            let _ = secure_less_than(
                &be,
                &feats,
                &thresh,
                SecCompVariant::LadderPrefix,
                Parallelism::sequential(),
            );
            counts.push(be.meter().snapshot().since(&before));
        }
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn balanced_product_multiplies_all() {
        let be = ClearBackend::with_defaults();
        for n in 1..=9usize {
            let factors: Vec<_> = (0..n)
                .map(|i| be.encrypt_bits(&BitVec::from_bools(&[i != 3])))
                .collect();
            let out = balanced_product(&be, factors);
            let want = n <= 3; // factor 3 is false when present
            assert_eq!(be.decrypt(&out).get(0), want, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "precision differ")]
    fn mismatched_planes_panic() {
        let be = ClearBackend::with_defaults();
        let x = BitSliced::from_values(&[1], 4);
        let t = BitSliced::from_values(&[1], 8);
        let feats: Vec<_> = x.planes().iter().map(|p| be.encrypt_bits(p)).collect();
        let thresh: Vec<_> = t
            .planes()
            .iter()
            .map(|p| MaybeEncrypted::Plain(be.encode(p)))
            .collect();
        let _ = secure_less_than(
            &be,
            &feats,
            &thresh,
            SecCompVariant::LadderPrefix,
            Parallelism::sequential(),
        );
    }
}
