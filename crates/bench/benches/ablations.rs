//! Criterion ablation benches for COPSE's design choices: reshuffle
//! fusion, comparator variant, sparse plaintext diagonals,
//! accumulation strategy.

use copse_core::compiler::{Accumulation, CompileOptions, Fusion};
use copse_core::matmul::MatMulOptions;
use copse_core::runtime::{Diane, EvalOptions, Maurice, ModelForm, Sally};
use copse_core::seccomp::SecCompVariant;
use copse_fhe::ClearBackend;
use copse_forest::microbench::{self, table6_specs};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    let forest = microbench::generate(&table6_specs()[1], 2021); // depth5
    let query = &microbench::random_queries(&forest, 1, 7)[0];
    let be = ClearBackend::with_defaults();

    // Reshuffle fusion.
    for (name, fuse) in [("unfused", Fusion::Never), ("fused", Fusion::Always)] {
        let maurice = Maurice::compile(
            &forest,
            CompileOptions {
                fuse_reshuffle: fuse,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        let diane = Diane::new(&be, maurice.public_query_info());
        let enc = diane.encrypt_features(query).unwrap();
        group.bench_function(format!("reshuffle/{name}"), |bench| {
            bench.iter(|| sally.classify(&enc))
        });
    }

    // Comparator variant.
    let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
    let diane = Diane::new(&be, maurice.public_query_info());
    let enc = diane.encrypt_features(query).unwrap();
    for (name, comparator) in [
        ("ladder", SecCompVariant::LadderPrefix),
        ("tree", SecCompVariant::Tree),
    ] {
        let sally = Sally::with_options(
            &be,
            maurice.deploy(&be, ModelForm::Encrypted),
            EvalOptions {
                comparator,
                ..EvalOptions::default()
            },
        );
        group.bench_function(format!("comparator/{name}"), |bench| {
            bench.iter(|| sally.classify(&enc))
        });
    }

    // Sparse plaintext diagonals (plaintext-model deployments only).
    for (name, skip) in [("dense", false), ("skip-zero", true)] {
        let sally = Sally::with_options(
            &be,
            maurice.deploy(&be, ModelForm::Plain),
            EvalOptions {
                matmul: MatMulOptions {
                    skip_zero_diagonals: skip,
                    ..MatMulOptions::default()
                },
                ..EvalOptions::default()
            },
        );
        group.bench_function(format!("plain-diagonals/{name}"), |bench| {
            bench.iter(|| sally.classify(&enc))
        });
    }

    // Accumulation strategy (work identical; depth differs - timing
    // equal on the clear backend, tracked for completeness).
    for (name, acc) in [
        ("balanced", Accumulation::BalancedTree),
        ("linear", Accumulation::Linear),
    ] {
        let maurice = Maurice::compile(
            &forest,
            CompileOptions {
                accumulation: acc,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let sally = Sally::host(&be, maurice.deploy(&be, ModelForm::Encrypted));
        group.bench_function(format!("accumulation/{name}"), |bench| {
            bench.iter(|| sally.classify(&enc))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
