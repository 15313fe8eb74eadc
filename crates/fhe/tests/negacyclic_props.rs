//! Oracle-parity proptests for the negacyclic power-of-two ring
//! flavor: the `ψ`-twisted size-`n` NTT route must be **bitwise
//! identical** to the negacyclic schoolbook convolution across random
//! operands, chain depths, levels, and ring degrees `n ∈ {8, 16, 32,
//! 64}` — products, evaluation-domain roundtrips, pointwise products
//! and multiply-accumulates.

use copse_fhe::bgv::ring::{RingFlavor, RnsContext, RnsPoly};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A degree index into `{8, 16, 32, 64}` plus chain/level/seed
/// choices for one parity case.
fn degree(from: usize) -> usize {
    [8usize, 16, 32, 64][from % 4]
}

fn sample(ctx: &RnsContext, level: usize, seed: u64) -> RnsPoly {
    ctx.sample_uniform(level, &mut SmallRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ntt_negacyclic_matches_schoolbook_negacyclic_bitwise(
        n_ix in 0usize..4,
        chain in 1usize..5,
        seed in 0u64..1 << 48,
        prime_bits in 20u32..46,
    ) {
        let n = degree(n_ix);
        let (ntt, school) = RnsContext::negacyclic_schoolbook_pair(n, prime_bits, chain);
        prop_assert_eq!(ntt.flavor(), RingFlavor::NegacyclicPow2);
        prop_assert_eq!(ntt.transform_size(), n);
        for level in 1..=chain {
            let a = sample(&ntt, level, seed ^ level as u64);
            let b = sample(&ntt, level, seed.rotate_left(17) ^ level as u64);
            let fast = ntt.mul(&a, &b);
            let slow = school.mul(&a, &b);
            prop_assert_eq!(fast, slow, "n = {}, level = {}", n, level);
        }
    }

    #[test]
    fn eval_domain_route_matches_the_oracle_bitwise(
        n_ix in 0usize..4,
        chain in 1usize..4,
        seed in 0u64..1 << 48,
    ) {
        let n = degree(n_ix);
        let (ntt, school) = RnsContext::negacyclic_schoolbook_pair(n, 25, chain);
        for level in 1..=chain {
            prop_assert!(ntt.eval_ready(level));
            let a = sample(&ntt, level, seed ^ 0xA);
            let b = sample(&ntt, level, seed ^ 0xB);
            // Roundtrip is the identity.
            prop_assert_eq!(ntt.from_eval(&ntt.to_eval(&a)), a.clone());
            // Pointwise eval product == coefficient product == oracle.
            let via_eval = ntt.from_eval(
                &ntt.eval_mul(&ntt.to_eval(&a), &ntt.to_eval(&b), level),
            );
            prop_assert_eq!(&via_eval, &ntt.mul(&a, &b));
            prop_assert_eq!(&via_eval, &school.mul(&a, &b));
        }
    }

    #[test]
    fn eval_acc_matches_coefficient_sums_bitwise(
        n_ix in 0usize..4,
        terms in 1usize..6,
        seed in 0u64..1 << 48,
    ) {
        let n = degree(n_ix);
        let (ntt, school) = RnsContext::negacyclic_schoolbook_pair(n, 25, 2);
        let level = 2;
        let pairs: Vec<(RnsPoly, RnsPoly)> = (0..terms as u64)
            .map(|t| (sample(&ntt, level, seed ^ t), sample(&ntt, level, seed ^ (t << 8))))
            .collect();
        let mut acc = ntt.eval_acc(level);
        for (a, b) in &pairs {
            acc.mul_add(&ntt.to_eval(a), &ntt.to_eval(b));
        }
        let mut want = school.zero(level);
        for (a, b) in &pairs {
            want = school.add(&want, &school.mul(a, b));
        }
        prop_assert_eq!(ntt.from_eval(&acc.finish()), want);
    }

    #[test]
    fn negacyclic_automorphisms_commute_with_products(
        n_ix in 0usize..4,
        a_exp in 0usize..32,
        seed in 0u64..1 << 48,
    ) {
        let n = degree(n_ix);
        let (ntt, school) = RnsContext::negacyclic_schoolbook_pair(n, 25, 2);
        let g = 2 * (a_exp as u64 % (2 * n as u64 / 2)) + 1; // odd, < 2n
        let a = sample(&ntt, 2, seed ^ 1);
        let b = sample(&ntt, 2, seed ^ 2);
        let lhs = ntt.automorphism(&ntt.mul(&a, &b), g);
        let rhs = ntt.mul(&ntt.automorphism(&a, g), &ntt.automorphism(&b, g));
        prop_assert_eq!(&lhs, &rhs);
        // And the oracle ring agrees with the fast ring.
        prop_assert_eq!(&lhs, &school.automorphism(&school.mul(&a, &b), g));
    }
}
