//! Determinism under concurrency: every kernel routed through the
//! `copse-pool` worker runtime must be **bitwise identical** to its
//! sequential execution, at every parallel degree.
//!
//! Strategy: two schemes generated from the same seed (hence the same
//! keys) — one left at the sequential default, one forked `t`-ways —
//! are driven over the *same* ciphertexts, and every output component
//! is compared bit for bit. Degrees 2, 4, and 7 cover even, pool-wide,
//! and deliberately lopsided chunkings (7 does not divide the 10-prime
//! tiny chain).

use copse_fhe::bgv::ring::RnsContext;
use copse_fhe::bgv::scheme::{BgvParams, BgvScheme, Ciphertext};
use copse_fhe::BitVec;
use proptest::prelude::*;
use std::sync::OnceLock;

const DEGREES: [usize; 3] = [2, 4, 7];

/// Sequential baseline scheme (the differential oracle).
fn baseline() -> &'static BgvScheme {
    static S: OnceLock<BgvScheme> = OnceLock::new();
    S.get_or_init(|| BgvScheme::keygen(BgvParams::tiny()))
}

/// One scheme per parallel degree, same seed (= same keys) as the
/// baseline; the degree is fixed at construction so concurrently
/// running tests never flip a shared knob mid-measurement.
fn parallel(degree: usize) -> &'static BgvScheme {
    static SCHEMES: OnceLock<Vec<(usize, BgvScheme)>> = OnceLock::new();
    let all = SCHEMES.get_or_init(|| {
        DEGREES
            .iter()
            .map(|&t| {
                let s = BgvScheme::keygen(BgvParams::tiny());
                s.set_threads(t);
                (t, s)
            })
            .collect()
    });
    &all.iter().find(|(t, _)| *t == degree).expect("degree").1
}

fn enc(bits: &[bool]) -> Ciphertext {
    let s = baseline();
    s.encrypt_poly(&s.slots().encode(&BitVec::from_bools(bits)))
}

fn assert_ct_eq(a: &Ciphertext, b: &Ciphertext, what: &str) {
    // Ciphertext equality covers both halves and the noise estimate.
    assert_eq!(a, b, "{what}: ciphertext diverged");
}

fn reduce_levels(s: &BgvScheme, ct: &Ciphertext, switches: usize) -> Ciphertext {
    let mut ct = ct.clone();
    for _ in 0..switches {
        ct = s.mod_switch(&ct);
    }
    ct
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rotate_is_bitwise_identical_at_every_degree(
        bits in prop::collection::vec(any::<bool>(), 6),
        k in 1isize..6,
        switches in 0usize..4,
    ) {
        let seq = baseline();
        let ct = reduce_levels(seq, &enc(&bits), switches);
        let want = seq.rotate_slots(&ct, k);
        for t in DEGREES {
            let got = parallel(t).rotate_slots(&ct, k);
            assert_ct_eq(&want, &got, &format!("rotate k={k} t={t}"));
        }
    }

    #[test]
    fn mul_is_bitwise_identical_at_every_degree(
        a in prop::collection::vec(any::<bool>(), 6),
        b in prop::collection::vec(any::<bool>(), 6),
    ) {
        let seq = baseline();
        let (ca, cb) = (enc(&a), enc(&b));
        let want = seq.mul(&ca, &cb);
        for t in DEGREES {
            let got = parallel(t).mul(&ca, &cb);
            assert_ct_eq(&want, &got, &format!("mul t={t}"));
        }
    }

    #[test]
    fn key_switch_is_bitwise_identical_at_every_degree(
        bits in prop::collection::vec(any::<bool>(), 6),
        switches in 0usize..4,
    ) {
        let seq = baseline();
        let ct = reduce_levels(seq, &enc(&bits), switches);
        let (w0, w1) = seq.key_switch_relin(&ct);
        for t in DEGREES {
            let (g0, g1) = parallel(t).key_switch_relin(&ct);
            assert_eq!(w0, g0, "key switch half 0, t={t}");
            assert_eq!(w1, g1, "key switch half 1, t={t}");
        }
    }

    #[test]
    fn mul_plain_is_bitwise_identical_at_every_degree(
        bits in prop::collection::vec(any::<bool>(), 6),
        mask in prop::collection::vec(any::<bool>(), 6),
    ) {
        let seq = baseline();
        let ct = enc(&bits);
        let pt = seq.slots().encode(&BitVec::from_bools(&mask));
        let want = seq.mul_plain(&ct, &pt, 4);
        for t in DEGREES {
            let got = parallel(t).mul_plain(&ct, &pt, 4);
            assert_ct_eq(&want, &got, &format!("mul_plain t={t}"));
        }
    }
}

#[test]
fn ring_row_kernels_are_bitwise_identical_at_every_degree() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let (seq, _) = RnsContext::ntt_schoolbook_pair(31, 25, 6);
    let mut rng = SmallRng::seed_from_u64(0x9001);
    for t in DEGREES {
        let par = seq.clone();
        par.set_threads(t);
        assert_eq!(par.threads(), t);
        for level in [1usize, 2, 5, 6] {
            let a = seq.sample_uniform(level, &mut rng);
            let b = seq.sample_uniform(level, &mut rng);
            assert_eq!(seq.mul(&a, &b), par.mul(&a, &b), "mul t={t} level={level}");
            assert_eq!(
                seq.mul_prefix(&a, &b, level.min(3)),
                par.mul_prefix(&a, &b, level.min(3)),
                "mul_prefix t={t}"
            );
            let (ea, eb) = (seq.to_eval(&a), seq.to_eval(&b));
            assert_eq!(ea, par.to_eval(&a), "to_eval t={t} level={level}");
            assert_eq!(
                seq.from_eval(&ea),
                par.from_eval(&ea),
                "from_eval t={t} level={level}"
            );
            assert_eq!(
                seq.eval_mul(&ea, &eb, level),
                par.eval_mul(&ea, &eb, level),
                "eval_mul t={t}"
            );
            let mut acc_seq = seq.eval_acc(level);
            let mut acc_par = par.eval_acc(level);
            acc_seq.mul_add(&ea, &eb);
            acc_par.mul_add(&ea, &eb);
            assert_eq!(
                acc_seq.finish(),
                acc_par.finish(),
                "eval_acc t={t} level={level}"
            );
        }
    }
}

#[test]
fn eval_add_assign_matches_coefficient_addition() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let (ctx, _) = RnsContext::ntt_schoolbook_pair(31, 25, 4);
    let mut rng = SmallRng::seed_from_u64(0x9002);
    let a = ctx.sample_uniform(4, &mut rng);
    let b = ctx.sample_uniform(4, &mut rng);
    let mut acc = ctx.to_eval(&a);
    ctx.eval_add_assign(&mut acc, &ctx.to_eval(&b));
    assert_eq!(ctx.from_eval(&acc), ctx.add(&a, &b));
}

#[test]
fn decryption_agrees_after_deep_parallel_circuits() {
    // A depth-3 circuit evaluated wholly on the parallel scheme
    // decrypts on the sequential one (same keys) to the same bits.
    let seq = baseline();
    let bits = [true, false, true, true, false, true];
    let other = [true, true, false, true, false, false];
    for t in DEGREES {
        let par = parallel(t);
        let mut acc = enc(&bits);
        for _ in 0..3 {
            acc = par.mul(&acc, &enc(&other));
            acc = par.rotate_slots(&acc, 2);
        }
        let via_par = seq.slots().decode(&par.decrypt_poly(&acc));
        let via_seq = seq.slots().decode(&seq.decrypt_poly(&acc));
        assert_eq!(via_par, via_seq, "t={t}");
    }
}

#[test]
fn threads_knob_reads_back_and_defaults_sequential() {
    let s = BgvScheme::keygen(BgvParams::tiny());
    assert_eq!(s.threads(), 1, "sequential by default");
    s.set_threads(7);
    assert_eq!(s.threads(), 7);
    s.set_threads(0);
    assert_eq!(s.threads(), 1, "floor at 1");
    assert_eq!(s.ring().threads(), 1, "scheme forwards to the ring");
}
