//! Criterion microbenchmarks for the COPSE kernels: SecComp variants,
//! the Halevi-Shoup MatMul, the accumulation product, the RNS
//! ring-multiplication kernel (NTT vs schoolbook), and the BGV
//! rotate/key-switch kernels (evaluation-domain vs per-call
//! coefficient-domain transforms).

use copse_core::artifacts::BoolMatrix;
use copse_core::matmul::{mat_vec, EncodedMatrix, MatMulOptions};
use copse_core::parallel::Parallelism;
use copse_core::seccomp::{balanced_product, secure_less_than, SecCompVariant};
use copse_fhe::bgv::ring::RnsContext;
use copse_fhe::bgv::scheme::{BgvParams, BgvScheme};
use copse_fhe::{BitSliced, BitVec, ClearBackend, FheBackend, MaybeEncrypted};
use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, BenchmarkId, Criterion,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_seccomp(c: &mut Criterion) {
    let mut group = c.benchmark_group("seccomp");
    group.sample_size(20);
    let be = ClearBackend::with_defaults();
    let mut rng = SmallRng::seed_from_u64(1);
    for p in [8u32, 16] {
        let width = 64usize;
        let xs: Vec<u64> = (0..width).map(|_| rng.gen_range(0..(1u64 << p))).collect();
        let ts: Vec<u64> = (0..width).map(|_| rng.gen_range(0..(1u64 << p))).collect();
        let x = BitSliced::from_values(&xs, p);
        let t = BitSliced::from_values(&ts, p);
        let feats: Vec<_> = x.planes().iter().map(|pl| be.encrypt_bits(pl)).collect();
        let thresh: Vec<MaybeEncrypted<ClearBackend>> = t
            .planes()
            .iter()
            .map(|pl| MaybeEncrypted::Encrypted(be.encrypt_bits(pl)))
            .collect();
        for (name, variant) in [
            ("ladder", SecCompVariant::LadderPrefix),
            ("tree", SecCompVariant::Tree),
        ] {
            group.bench_with_input(BenchmarkId::new(name, p), &p, |bench, _| {
                bench.iter(|| {
                    secure_less_than(&be, &feats, &thresh, variant, Parallelism::sequential())
                })
            });
        }
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);
    let be = ClearBackend::with_defaults();
    let mut rng = SmallRng::seed_from_u64(2);
    for n in [16usize, 64, 256] {
        let mut m = BoolMatrix::zeros(n, n);
        for r in 0..n {
            m.set(r, rng.gen_range(0..n), true);
        }
        let v = BitVec::from_fn(n, |_| rng.gen_bool(0.5));
        let ct = be.encrypt_bits(&v);
        let plain = EncodedMatrix::encode_plain(&be, &m);
        let enc = EncodedMatrix::encrypt(&be, &m);
        group.bench_with_input(BenchmarkId::new("plain", n), &n, |bench, _| {
            bench.iter(|| {
                mat_vec(
                    &be,
                    &plain,
                    &ct,
                    MatMulOptions::default(),
                    Parallelism::sequential(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("encrypted", n), &n, |bench, _| {
            bench.iter(|| {
                mat_vec(
                    &be,
                    &enc,
                    &ct,
                    MatMulOptions::default(),
                    Parallelism::sequential(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("plain-skip-zero", n), &n, |bench, _| {
            bench.iter(|| {
                mat_vec(
                    &be,
                    &plain,
                    &ct,
                    MatMulOptions {
                        skip_zero_diagonals: true,
                        ..MatMulOptions::default()
                    },
                    Parallelism::sequential(),
                )
            })
        });
    }
    group.finish();
}

fn bench_accumulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("accumulate");
    group.sample_size(20);
    let be = ClearBackend::with_defaults();
    for d in [4usize, 8, 16] {
        let factors: Vec<_> = (0..d)
            .map(|i| be.encrypt_bits(&BitVec::from_fn(128, |j| (i + j) % 3 != 0)))
            .collect();
        group.bench_with_input(BenchmarkId::new("balanced", d), &d, |bench, _| {
            bench.iter(|| balanced_product(&be, factors.clone()))
        });
    }
    group.finish();
}

fn bench_ring_mul(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_mul");
    group.sample_size(10);
    let rng = &mut SmallRng::seed_from_u64(4);
    // Fresh operands every repetition, drawn outside the timed region:
    // a repeated input lets the branch predictor learn a kernel's
    // data-dependent branches, which once hid a several-fold cost in
    // the NTT butterflies.
    let mut bench = |group: &mut BenchmarkGroup, id: BenchmarkId, ctx: &RnsContext| {
        group.bench_function(id, |bench| {
            bench.iter_batched(
                || (ctx.sample_uniform(3, rng), ctx.sample_uniform(3, rng)),
                |(a, b)| ctx.mul(&a, &b),
                BatchSize::SmallInput,
            )
        });
    };
    // Level-3 chains of 45-bit NTT-friendly primes; the same chain
    // feeds both paths, with the fast path toggled off for the oracle.
    for m in [127usize, 509] {
        let (ntt, school) = RnsContext::ntt_schoolbook_pair(m, 45, 3);
        bench(&mut group, BenchmarkId::new("ntt", m), &ntt);
        bench(&mut group, BenchmarkId::new("schoolbook", m), &school);
    }
    // The negacyclic power-of-two flavor at comparable dimensions:
    // ψ-twisted transforms of size exactly n (half the prime flavor's
    // next_pow2(2m - 1) padded length).
    for n in [128usize, 512] {
        let (nega, nega_school) = RnsContext::negacyclic_schoolbook_pair(n, 45, 3);
        bench(&mut group, BenchmarkId::new("negacyclic", n), &nega);
        bench(
            &mut group,
            BenchmarkId::new("negacyclic_schoolbook", n),
            &nega_school,
        );
    }
    group.finish();
}

/// `rotate_slots` and the relinearisation key switch at demo
/// parameters on the evaluation-domain route (key parts
/// pre-transformed at keygen in the auxiliary basis, one forward per
/// digit, one inverse per output row). `benchmark/`'s `fhe.rotate_ms` / `fhe.multiply_ms` are
/// the numbers of record.
fn bench_rotate_key_switch(c: &mut Criterion) {
    let eval = BgvScheme::keygen(BgvParams::demo());
    let bits = BitVec::from_fn(eval.slots().nslots(), |i| i % 3 != 0);
    let ct = eval.encrypt_poly(&eval.slots().encode(&bits));

    let mut group = c.benchmark_group("rotate");
    group.sample_size(10);
    group.bench_function("eval-domain", |bench| {
        bench.iter(|| eval.rotate_slots(&ct, 1))
    });
    group.finish();

    let mut group = c.benchmark_group("key_switch");
    group.sample_size(10);
    group.bench_function("eval-domain", |bench| {
        bench.iter(|| eval.key_switch_relin(&ct))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_seccomp,
    bench_matmul,
    bench_accumulate,
    bench_ring_mul,
    bench_rotate_key_switch
);
criterion_main!(benches);
