//! Property-based tests for the FHE substrate: bit-vector algebra,
//! GF(2)[X] ring laws, modular arithmetic, slot packing, and the
//! backend contract of the clear evaluator.

use copse_fhe::math::cyclotomic::SlotStructure;
use copse_fhe::math::gf2poly::Gf2Poly;
use copse_fhe::math::modq::{add_mod, inv_mod, mul_mod, pow_mod};
use copse_fhe::{BitSliced, BitVec, ClearBackend, FheBackend};
use proptest::prelude::*;

fn bitvec_strategy(max_width: usize) -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<bool>(), 1..max_width).prop_map(|v| BitVec::from_bools(&v))
}

fn gf2poly_strategy() -> impl Strategy<Value = Gf2Poly> {
    prop::collection::vec(any::<bool>(), 0..96).prop_map(|coeffs| {
        let ix: Vec<usize> = coeffs
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        Gf2Poly::from_coeff_indices(&ix)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- BitVec algebra ---

    #[test]
    fn xor_forms_an_abelian_group(v in bitvec_strategy(128)) {
        let w = v.not();
        prop_assert_eq!(v.xor(&w), BitVec::ones(v.width()));
        prop_assert_eq!(v.xor(&v), BitVec::zeros(v.width()));
        prop_assert_eq!(v.xor(&w), w.xor(&v));
    }

    #[test]
    fn and_distributes_over_xor(
        a in bitvec_strategy(64),
    ) {
        let n = a.width();
        let b = BitVec::from_fn(n, |i| i % 3 == 0);
        let c = BitVec::from_fn(n, |i| i % 2 == 1);
        prop_assert_eq!(
            a.and(&b.xor(&c)),
            a.and(&b).xor(&a.and(&c))
        );
    }

    #[test]
    fn rotation_composes_and_inverts(v in bitvec_strategy(96), k in 0isize..200) {
        let w = v.width() as isize;
        prop_assert_eq!(v.rotate_left(k).rotate_left(-k), v.clone());
        prop_assert_eq!(v.rotate_left(k), v.rotate_left(k.rem_euclid(w)));
        prop_assert_eq!(v.rotate_left(k).count_ones(), v.count_ones());
    }

    #[test]
    fn cyclic_extend_preserves_period(v in bitvec_strategy(32), extra in 0usize..64) {
        let target = v.width() + extra;
        let e = v.cyclic_extend(target);
        for i in 0..target {
            prop_assert_eq!(e.get(i), v.get(i % v.width()));
        }
        prop_assert_eq!(e.truncate(v.width()), v);
    }

    // --- bit slicing ---

    #[test]
    fn bitslice_roundtrip(values in prop::collection::vec(0u64..256, 1..40)) {
        let sliced = BitSliced::from_values(&values, 8);
        prop_assert_eq!(sliced.to_values(), values);
    }

    #[test]
    fn bitslice_order_is_lexicographic(a in 0u64..65536, b in 0u64..65536) {
        // MSB-first planes: the first differing plane decides order.
        let s = BitSliced::from_values(&[a, b], 16);
        let mut cmp = std::cmp::Ordering::Equal;
        for i in 0..16 {
            let (ba, bb) = (s.plane(i).get(0), s.plane(i).get(1));
            if ba != bb {
                cmp = if bb { std::cmp::Ordering::Less } else { std::cmp::Ordering::Greater };
                break;
            }
        }
        prop_assert_eq!(cmp, a.cmp(&b));
    }

    // --- GF(2)[X] ring laws ---

    #[test]
    fn gf2_ring_laws(a in gf2poly_strategy(), b in gf2poly_strategy(), c in gf2poly_strategy()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        prop_assert_eq!(a.mul(&Gf2Poly::one()), a);
    }

    #[test]
    fn gf2_division_invariant(a in gf2poly_strategy(), b in gf2poly_strategy()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divrem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a.clone());
        if let (Some(rd), Some(bd)) = (r.degree(), b.degree()) {
            prop_assert!(rd < bd);
        }
    }

    #[test]
    fn gf2_gcd_divides_both(a in gf2poly_strategy(), b in gf2poly_strategy()) {
        prop_assume!(!a.is_zero() || !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!(!g.is_zero());
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    // --- modular arithmetic ---

    #[test]
    fn modq_inverse_and_fermat(a in 1u64..1_000_003) {
        const P: u64 = 1_000_003; // prime
        let inv = inv_mod(a % P, P).unwrap();
        prop_assert_eq!(mul_mod(a % P, inv, P), 1);
        prop_assert_eq!(pow_mod(a, P - 1, P), 1);
    }

    #[test]
    fn modq_add_mul_consistent(a in any::<u64>(), b in any::<u64>()) {
        const P: u64 = 2_147_483_659; // prime > 2^31
        let lhs = mul_mod(a % P, 2, P);
        let rhs = add_mod(a % P, a % P, P);
        prop_assert_eq!(lhs, rhs);
        prop_assert_eq!(mul_mod(a, b, P), mul_mod(b, a, P));
    }

    // --- slot packing (m = 31: 6 slots) ---

    #[test]
    fn slot_packing_is_a_ring_isomorphism(
        a in prop::collection::vec(any::<bool>(), 6),
        b in prop::collection::vec(any::<bool>(), 6),
        k in 0isize..12,
    ) {
        let s = SlotStructure::new(31);
        let (va, vb) = (BitVec::from_bools(&a), BitVec::from_bools(&b));
        let (pa, pb) = (s.encode(&va), s.encode(&vb));
        prop_assert_eq!(s.decode(&pa.add(&pb)), va.xor(&vb));
        prop_assert_eq!(s.decode(&pa.mulmod(&pb, s.phi())), va.and(&vb));
        prop_assert_eq!(s.decode(&s.rotate_encoded(&pa, k)), va.rotate_left(k));
    }

    // --- clear backend contract ---

    #[test]
    fn clear_backend_matches_bit_algebra(
        a in bitvec_strategy(80),
        k in 0isize..80,
    ) {
        let be = ClearBackend::with_defaults();
        let b = BitVec::from_fn(a.width(), |i| i % 5 < 2);
        let (ca, cb) = (be.encrypt_bits(&a), be.encrypt_bits(&b));
        prop_assert_eq!(be.decrypt(&be.add(&ca, &cb)), a.xor(&b));
        prop_assert_eq!(be.decrypt(&be.mul(&ca, &cb)), a.and(&b));
        prop_assert_eq!(be.decrypt(&be.rotate(&ca, k)), a.rotate_left(k));
        prop_assert_eq!(be.decrypt(&be.not(&ca)), a.not());
    }
}

// --- blockwise BitVec kernels vs the index-formula oracle ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rotate_left_matches_oracle_for_arbitrary_k(
        v in bitvec_strategy(200),
        k in -500isize..500,
    ) {
        // Any k: negative, |k| > width, multiples of the width.
        let w = v.width();
        let r = v.rotate_left(k);
        prop_assert_eq!(r.width(), w);
        prop_assert_eq!(r.count_ones(), v.count_ones());
        for i in 0..w {
            let src = (i as isize + k).rem_euclid(w as isize) as usize;
            prop_assert_eq!(r.get(i), v.get(src), "i = {}, k = {}", i, k);
        }
    }

    #[test]
    fn cyclic_extend_matches_oracle_across_blocks(
        v in bitvec_strategy(150),
        extra in 0usize..200,
    ) {
        // Wide enough that windows straddle multiple u64 blocks.
        let target = v.width() + extra;
        let e = v.cyclic_extend(target);
        prop_assert_eq!(e.width(), target);
        for i in 0..target {
            prop_assert_eq!(e.get(i), v.get(i % v.width()), "i = {}", i);
        }
    }
}

// --- evaluation-domain BGV scheme vs the schoolbook oracle ---

mod bgv_eval_parity {
    use copse_fhe::bgv::scheme::{BgvParams, BgvScheme, Ciphertext};
    use copse_fhe::BitVec;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// Two schemes over identical keys and randomness streams: the
    /// evaluation-domain scheme and the schoolbook oracle (no
    /// transform anywhere, coefficient-form keys). Built once — keygen
    /// dominates the suite otherwise.
    fn pair() -> &'static (BgvScheme, BgvScheme) {
        static PAIR: OnceLock<(BgvScheme, BgvScheme)> = OnceLock::new();
        PAIR.get_or_init(|| {
            let params = BgvParams::tiny();
            (
                BgvScheme::keygen(params),
                BgvScheme::keygen_with_ntt(params, false),
            )
        })
    }

    fn encrypt_both(bits: &[bool]) -> (Ciphertext, Ciphertext) {
        let (eval, school) = pair();
        // One encryption per scheme per call keeps the two internal
        // randomness counters in lockstep, so ciphertexts stay
        // bitwise identical across schemes.
        let enc = |s: &BgvScheme| s.encrypt_poly(&s.slots().encode(&BitVec::from_bools(bits)));
        (enc(eval), enc(school))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn rotate_mul_and_mul_plain_are_bitwise_identical(
            bits in prop::collection::vec(any::<bool>(), 6),
            other in prop::collection::vec(any::<bool>(), 6),
            mask in prop::collection::vec(any::<bool>(), 6),
            k in 1isize..6,
            drops in 0usize..4,
        ) {
            let (eval, school) = pair();
            let (mut e, mut s) = encrypt_both(&bits);
            prop_assert_eq!(&e, &s);

            // Vary the level so reduced ciphertexts hit the row-prefix
            // views over full-level key material and plaintext caches.
            for _ in 0..drops {
                e = eval.mod_switch(&e);
                s = school.mod_switch(&s);
            }

            prop_assert_eq!(
                eval.rotate_slots(&e, k),
                school.rotate_slots(&s, k),
                "rotate_slots"
            );

            // key_switch directly (the relinearisation key), beneath
            // the rotate/mul wrappers.
            prop_assert_eq!(
                eval.key_switch_relin(&e),
                school.key_switch_relin(&s),
                "key_switch"
            );

            let (oe, os) = encrypt_both(&other);
            prop_assert_eq!(eval.mul(&e, &oe), school.mul(&s, &os), "mul (tensor + relin)");

            let pt = eval.slots().encode(&BitVec::from_bools(&mask));
            prop_assert_eq!(
                eval.mul_plain(&e, &pt, 4),
                school.mul_plain(&s, &pt, 4),
                "mul_plain"
            );

            // And the cached form reproduces the one-shot form.
            let prepared = eval.prepare_plain(&pt);
            let warm1 = eval.mul_plain_prepared(&e, &prepared);
            let warm2 = eval.mul_plain_prepared(&e, &prepared);
            prop_assert_eq!(&warm1, &warm2, "cache is stable across reuse");
        }
    }

    /// Digit-width sweep: the evaluation route and the oracle must
    /// agree for every decomposition geometry, from many narrow digits
    /// to one digit per prime.
    #[test]
    fn parity_holds_across_digit_widths() {
        for ks_digit_bits in [5u32, 13, 25] {
            let params = BgvParams {
                ks_digit_bits,
                ..BgvParams::tiny()
            };
            let eval = BgvScheme::keygen(params);
            let school = BgvScheme::keygen_with_ntt(params, false);
            let bits = BitVec::from_bools(&[true, false, true, true, false, true]);
            let e = eval.encrypt_poly(&eval.slots().encode(&bits));
            let s = school.encrypt_poly(&school.slots().encode(&bits));
            assert_eq!(e, s, "fresh ciphertexts, B = 2^{ks_digit_bits}");
            assert_eq!(
                eval.rotate_slots(&e, 2),
                school.rotate_slots(&s, 2),
                "rotate, B = 2^{ks_digit_bits}"
            );
            assert_eq!(
                eval.mul(&e, &e),
                school.mul(&s, &s),
                "mul, B = 2^{ks_digit_bits}"
            );
        }
    }

    /// 62-bit primes: a key switch sums `L·D = 10 · 9` products per
    /// point, more than the wide accumulator holds (`⌊(2¹²⁸ − 1)/(q −
    /// 1)²⌋ = 16`), so it flushes mid-sum. 25-bit chains never do. (At
    /// 61 bits the capacity is 64, which 90 uniform products almost
    /// never overflow, so a missing flush would go unseen there.)
    #[test]
    fn parity_holds_where_the_accumulator_flushes() {
        let params = BgvParams {
            prime_bits: 62,
            ..BgvParams::tiny()
        };
        let eval = BgvScheme::keygen(params);
        let school = BgvScheme::keygen_with_ntt(params, false);
        let q_max = *eval.ring().primes().iter().max().unwrap();
        let products =
            params.chain_len as u128 * u128::from(params.prime_bits.div_ceil(params.ks_digit_bits));
        assert!(u128::MAX / u128::from(q_max - 1).pow(2) < products);

        let bits = [true, false, true, true, false, true];
        let encode = |s: &BgvScheme| s.encrypt_poly(&s.slots().encode(&BitVec::from_bools(&bits)));
        let (e, s) = (encode(&eval), encode(&school));
        assert_eq!(e, s, "fresh ciphertexts");
        let rotated = eval.rotate_slots(&e, 2);
        let squared = eval.mul(&e, &e);
        assert_eq!(rotated, school.rotate_slots(&s, 2), "rotate vs oracle");
        assert_eq!(squared, school.mul(&s, &s), "mul vs oracle");
        assert_eq!(
            eval.slots().decode(&eval.decrypt_poly(&rotated)),
            BitVec::from_bools(&bits).rotate_left(2),
            "the flushed key switch still decrypts"
        );

        eval.set_threads(2);
        assert_eq!(eval.rotate_slots(&e, 2), rotated, "rotate, threads 1 vs 2");
        assert_eq!(eval.mul(&e, &e), squared, "mul, threads 1 vs 2");
    }
}

// --- NTT ring multiplication vs the schoolbook oracle ---

mod rns_mul {
    use copse_fhe::bgv::ring::RnsContext;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn ntt_mul_is_bitwise_identical_to_schoolbook(
            m_ix in 0usize..5,
            chain in 1usize..5,
            seed in any::<u64>(),
        ) {
            let m = [5usize, 7, 11, 13, 17][m_ix];
            let (ntt, school) = RnsContext::ntt_schoolbook_pair(m, 20, chain);
            prop_assert_eq!(ntt.ntt_ready_primes(), chain);

            let mut rng = SmallRng::seed_from_u64(seed);
            let level = rng.gen_range(1..=chain);
            let a = ntt.sample_uniform(level, &mut rng);
            let b = ntt.sample_uniform(level, &mut rng);
            let fast = ntt.mul(&a, &b);
            prop_assert_eq!(&fast, &school.mul(&a, &b), "m = {}, level = {}", m, level);
            // Cross-path products compose: (a*b)*a agrees too.
            prop_assert_eq!(ntt.mul(&fast, &a), school.mul(&fast, &a));
        }
    }
}
