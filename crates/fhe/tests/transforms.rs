//! Transform-count accounting for the evaluation-domain paths.
//!
//! Every measurement runs under its own scoped meter
//! ([`OpMeter::measure`]), so the counts are exact whatever else the
//! test process is doing.

use copse_fhe::bgv::scheme::{BgvParams, BgvScheme};
use copse_fhe::{BitVec, OpMeter, TransformCounts};

/// Runs `f` and returns its result with the transforms it performed.
fn counted<T>(f: impl FnOnce() -> T) -> (T, TransformCounts) {
    let (value, meter) = OpMeter::measure(f);
    (value, meter.transforms())
}

#[test]
fn eval_domain_key_switching_cuts_transforms() {
    // (parameters, primes `r` in the key switch's auxiliary basis): one
    // at `tiny`, two at 62-bit chains, whose sums pass 2^80.
    let wide = BgvParams {
        prime_bits: 62,
        ..BgvParams::tiny()
    };
    for (params, r) in [(BgvParams::tiny(), 1u64), (wide, 2)] {
        let eval = BgvScheme::keygen(params);
        let school = BgvScheme::keygen_with_ntt(params, false);

        let bits = BitVec::from_bools(&[true, false, true, true, false, false]);
        let ct_eval = eval.encrypt_poly(&eval.slots().encode(&bits));
        let ct_school = school.encrypt_poly(&school.slots().encode(&bits));

        // --- rotate (automorphism + key switch) ---
        let (r_school, school_rotate) = counted(|| school.rotate_slots(&ct_school, 1));
        let (r_eval, eval_rotate) = counted(|| eval.rotate_slots(&ct_eval, 1));

        assert_eq!(r_eval, r_school, "routes agree bitwise");
        assert_eq!(school_rotate.total(), 0, "the oracle never transforms");

        // Expected exact shape at level L with D digits per prime: each
        // digit transforms once per aux prime and each of the 2L output
        // rows inverts once per aux prime — L·D·r forwards + 2L·r
        // inverses (each digit went to all L chain primes before, L·D·L).
        let level = params.chain_len as u64;
        let digits = u64::from(params.prime_bits.div_ceil(params.ks_digit_bits));
        assert_eq!(eval_rotate.forward, level * digits * r, "{params:?}");
        assert_eq!(eval_rotate.inverse, 2 * level * r, "{params:?}");

        // --- plaintext multiply: cached transform amortises across calls ---
        let mask = eval
            .slots()
            .encode(&BitVec::from_bools(&[true, true, false, false, true, true]));
        let prepared = eval.prepare_plain(&mask);

        let (_, first) = counted(|| eval.mul_plain_prepared(&ct_eval, &prepared));
        let (_, warm) = counted(|| eval.mul_plain_prepared(&ct_eval, &prepared));

        // First call pays the plaintext transform (chain_len rows); warm
        // calls transform only the two ciphertext halves.
        assert_eq!(first.forward, warm.forward + level);
        assert_eq!(warm.forward, 2 * level);
        assert_eq!(warm.inverse, 2 * level);

        let (_, school_mul) = counted(|| school.mul_plain(&ct_school, &mask));
        assert_eq!(school_mul.total(), 0, "the oracle never transforms");
    }
}
