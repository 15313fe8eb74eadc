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
    let params = BgvParams::tiny();
    let eval = BgvScheme::keygen(params);
    let mut coeff = BgvScheme::keygen(params);
    coeff.set_eval_domain_enabled(false);

    let bits = BitVec::from_bools(&[true, false, true, true, false, false]);
    let ct_eval = eval.encrypt_poly(&eval.slots().encode(&bits));
    let ct_coeff = coeff.encrypt_poly(&coeff.slots().encode(&bits));

    // --- rotate (automorphism + key switch) ---
    let (r_coeff, coeff_rotate) = counted(|| coeff.rotate_slots(&ct_coeff, 1));
    let (r_eval, eval_rotate) = counted(|| eval.rotate_slots(&ct_eval, 1));

    assert_eq!(r_eval, r_coeff, "paths agree bitwise");
    assert!(
        coeff_rotate.total() >= 3 * eval_rotate.total(),
        "rotate transforms should drop >= 3x: coeff {coeff_rotate} vs eval {eval_rotate}"
    );

    // Expected exact shape at level L with D digits per prime:
    // eval key switch = L*D*L forwards + 2L inverses; the coefficient
    // route pays 2 products per digit, each 2 forwards + 1 inverse on
    // L rows.
    let level = params.chain_len as u64;
    let digits = u64::from(params.prime_bits.div_ceil(params.ks_digit_bits));
    assert_eq!(eval_rotate.forward, level * digits * level);
    assert_eq!(eval_rotate.inverse, 2 * level);
    assert_eq!(coeff_rotate.forward, level * digits * 2 * level * 2);
    assert_eq!(coeff_rotate.inverse, level * digits * 2 * level);

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

    let (_, coeff_mul) = counted(|| coeff.mul_plain(&ct_coeff, &mask, 4));
    assert_eq!(coeff_mul.forward, 4 * level, "2 products x 2 operands");
    assert!(
        coeff_mul.total() > warm.total(),
        "warm cached multiply beats the per-call route: {coeff_mul} vs {warm}"
    );
}
