//! Exactness of the scoped transform counters under worker-pool
//! concurrency: a parallel kernel performs the *same number* of
//! forward/inverse NTTs as its sequential twin, and every one of them
//! — including those executed on pool workers, which inherit the
//! scope through the task context — must land in the scoped meter (no
//! lost updates, no approximation).

use copse_fhe::bgv::scheme::{BgvParams, BgvScheme};
use copse_fhe::{BitVec, OpMeter, TransformCounts};

/// Runs `f` and returns its result with the transforms it performed.
fn counted<T>(f: impl FnOnce() -> T) -> (T, TransformCounts) {
    let (value, meter) = OpMeter::measure(f);
    (value, meter.transforms())
}

#[test]
fn parallel_and_sequential_kernels_count_identically_and_exactly() {
    let seq = BgvScheme::keygen(BgvParams::tiny());
    let par = BgvScheme::keygen(BgvParams::tiny());
    par.set_threads(4);

    let bits = BitVec::from_bools(&[true, false, true, true, false, true]);
    let ct = seq.encrypt_poly(&seq.slots().encode(&bits));
    let other = seq.encrypt_poly(&seq.slots().encode(&bits));

    // Sequential reference counts for one rotate, one key switch, and
    // one ciphertext multiplication.
    let (r_seq, rotate_counts) = counted(|| seq.rotate_slots(&ct, 2));
    let (ks_seq, ks_counts) = counted(|| seq.key_switch_relin(&ct));
    let (m_seq, mul_counts) = counted(|| seq.mul(&ct, &other));
    assert!(rotate_counts.total() > 0, "rotate performs transforms");
    assert!(ks_counts.total() > 0, "key switch performs transforms");

    // The pooled kernels must add exactly the same deltas: same work,
    // split across workers, merged without loss by the atomics.
    let (r_par, counts) = counted(|| par.rotate_slots(&ct, 2));
    assert_eq!(counts, rotate_counts, "parallel rotate transform count");
    let (ks_par, counts) = counted(|| par.key_switch_relin(&ct));
    assert_eq!(counts, ks_counts, "parallel key switch transform count");
    let (m_par, counts) = counted(|| par.mul(&ct, &other));
    assert_eq!(counts, mul_counts, "parallel mul transform count");

    // And, of course, identical ciphertexts.
    assert_eq!(r_seq, r_par);
    assert_eq!(ks_seq, ks_par);
    assert_eq!(m_seq, m_par);

    // Repeating the parallel rotate N times scales the delta exactly
    // N-fold — concurrent workers never drop an increment.
    let n = 5u64;
    let ((), delta) = counted(|| {
        for _ in 0..n {
            let _ = par.rotate_slots(&ct, 1);
        }
    });
    let (_, one) = counted(|| par.rotate_slots(&ct, 1));
    assert_eq!(delta.forward, n * one.forward, "forward counts exact");
    assert_eq!(delta.inverse, n * one.inverse, "inverse counts exact");
}
