//! Transform-**size** exactness for the negacyclic power-of-two ring:
//! proof that the size-`n` `ψ`-twisted plans are the ones actually
//! invoked, not the zero-padded `2^s >= 2m - 1` plans of the prime
//! flavor. Transform *counts* alone cannot distinguish the two routes;
//! the per-size histogram (`OpMeter::transform_sizes`) can. Each
//! measurement runs under its own scoped meter, so asserting a
//! **zero** count at the padded size is sound.

use copse_fhe::bgv::ring::RnsContext;
use copse_fhe::OpMeter;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn negacyclic_route_transforms_at_size_n_only() {
    let mut rng = SmallRng::seed_from_u64(0x2A);
    for n in [8usize, 16, 32, 64] {
        // What a zero-padded linear-convolution route would need for
        // degree-n rows: next_pow2(2n - 1) = 2n.
        let padded = 2 * n;
        let (ntt, school) = RnsContext::negacyclic_schoolbook_pair(n, 25, 3);
        assert_eq!(ntt.transform_size(), n);
        let a = ntt.sample_uniform(3, &mut rng);
        let b = ntt.sample_uniform(3, &mut rng);

        // One full multiplication: per prime, 2 forward + 1 inverse
        // transforms, every one of length exactly n.
        let (fast, meter) = OpMeter::measure(|| ntt.mul(&a, &b));
        let (counts, sizes) = (meter.transforms(), meter.transform_sizes());
        assert_eq!(counts.forward, 2 * 3, "2 forwards per prime, n = {n}");
        assert_eq!(counts.inverse, 3, "1 inverse per prime, n = {n}");
        assert_eq!(sizes.at(n), 9, "all transforms at size n = {n}");
        assert_eq!(sizes.total(), 9, "no transforms at any other size");
        assert_eq!(
            sizes.at(padded),
            0,
            "the zero-padded 2^s >= 2m - 1 plan (size {padded}) is never invoked"
        );
        assert_eq!(sizes.nonzero(), vec![(n, 9)]);

        // The evaluation-domain route stays at size n too.
        let (via_eval, meter) = OpMeter::measure(|| {
            let ea = ntt.to_eval(&a);
            let eb = ntt.to_eval(&b);
            let mut acc = ntt.eval_acc(3);
            acc.mul_add(&ea, &eb);
            ntt.from_eval(&acc.finish())
        });
        assert_eq!(
            meter.transform_sizes().nonzero(),
            vec![(n, 9)],
            "eval route, n = {n}"
        );
        assert_eq!(via_eval, fast);

        // The schoolbook oracle performs no transforms at all.
        let (slow, meter) = OpMeter::measure(|| school.mul(&a, &b));
        assert_eq!(meter.transform_sizes().total(), 0);
        assert_eq!(slow, fast, "oracle parity, n = {n}");
    }

    // Contrast: the prime flavor at comparable degree really does
    // transform at the padded size. φ(127) = 126 ≈ n = 128, but its
    // transforms run at next_pow2(2·127 − 1) = 256 — double.
    let (prime, _) = RnsContext::ntt_schoolbook_pair(127, 25, 2);
    assert_eq!(prime.transform_size(), 256);
    let a = prime.sample_uniform(2, &mut rng);
    let b = prime.sample_uniform(2, &mut rng);
    let (_, meter) = OpMeter::measure(|| prime.mul(&a, &b));
    assert_eq!(meter.transform_sizes().nonzero(), vec![(256, 6)]);

    let (nega, _) = RnsContext::negacyclic_schoolbook_pair(128, 25, 2);
    assert_eq!(nega.transform_size(), 128);
    let a = nega.sample_uniform(2, &mut rng);
    let b = nega.sample_uniform(2, &mut rng);
    let (_, meter) = OpMeter::measure(|| nega.mul(&a, &b));
    assert_eq!(
        meter.transform_sizes().nonzero(),
        vec![(128, 6)],
        "half the prime flavor's transform length at comparable ring dimension"
    );
}
