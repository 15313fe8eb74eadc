//! Report generators: one function per table/figure of the paper.
//!
//! Each function runs the corresponding experiment and renders a
//! plain-text exhibit with the same rows/series the paper reports. The
//! `reproduce_all` binary stitches them into an EXPERIMENTS.md-ready
//! document; the per-exhibit binaries print them individually.

use crate::{
    geomean, measure_baseline, measure_copse, measure_copse_traced, BarTable, Measurement,
};
use copse_core::compiler::{compile, Accumulation, CompileOptions};
use copse_core::complexity::{self, CostInputs};
use copse_core::leakage::{render_table, Scenario};
use copse_core::runtime::ModelForm;
use copse_fhe::{CostModel, EncryptionParams, SecurityLevel};
use copse_forest::microbench::table6_specs;
use copse_forest::zoo::{self, BenchModel, ModelGroup};
use std::fmt::Write as _;

/// Runs the full 12-model suite once.
fn suite(seed: u64) -> Vec<BenchModel> {
    zoo::paper_suite(seed)
}

fn speedup_section(
    title: &str,
    rows: &[(String, ModelGroup, f64, String)],
    reference: &str,
) -> String {
    let mut bars = BarTable::new();
    for (name, _, speedup, annotation) in rows {
        bars.push(name, *speedup, annotation.clone());
    }
    let micro: Vec<f64> = rows
        .iter()
        .filter(|r| r.1 == ModelGroup::Micro)
        .map(|r| r.2)
        .collect();
    let real: Vec<f64> = rows
        .iter()
        .filter(|r| r.1 == ModelGroup::RealWorld)
        .map(|r| r.2)
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = writeln!(out);
    out.push_str(&bars.render("speedup"));
    let _ = writeln!(out);
    let _ = writeln!(out, "geomean (micro-bench):  {:.2}x", geomean(&micro));
    let _ = writeln!(out, "geomean (real-world):   {:.2}x", geomean(&real));
    let _ = writeln!(out, "paper reference: {reference}");
    out
}

/// Figure 6: single-threaded COPSE vs the Aloufi et al. baseline.
pub fn figure6(seed: u64, n_queries: usize, work: usize) -> String {
    let rows: Vec<(String, ModelGroup, f64, String)> = suite(seed)
        .iter()
        .map(|m| {
            let copse = measure_copse(&m.name, &m.forest, ModelForm::Encrypted, 1, n_queries, work);
            let base =
                measure_baseline(&m.name, &m.forest, ModelForm::Encrypted, 1, n_queries, work);
            let speedup = base.modeled_ms / copse.modeled_ms;
            (
                m.name.clone(),
                m.group,
                speedup,
                format!(
                    "COPSE {:.1} ms modeled / {:.1} ms wall; baseline {:.1} ms modeled",
                    copse.modeled_ms,
                    copse.wall_ms(),
                    base.modeled_ms
                ),
            )
        })
        .collect();
    speedup_section(
        "Figure 6: speedup over Aloufi et al., both single-threaded",
        &rows,
        "5x to >7x per model, geomean close to 6x",
    )
}

/// Figure 7: multithreaded COPSE vs single-threaded COPSE.
pub fn figure7(seed: u64, n_queries: usize, threads: usize, work: usize) -> String {
    let rows: Vec<(String, ModelGroup, f64, String)> = suite(seed)
        .iter()
        .map(|m| {
            let seq = measure_copse(&m.name, &m.forest, ModelForm::Encrypted, 1, n_queries, work);
            let par = measure_copse(
                &m.name,
                &m.forest,
                ModelForm::Encrypted,
                threads,
                n_queries,
                work,
            );
            let speedup = seq.wall_ms() / par.wall_ms();
            (
                m.name.clone(),
                m.group,
                speedup,
                format!("{:.1} ms multithreaded wall", par.wall_ms()),
            )
        })
        .collect();
    speedup_section(
        &format!("Figure 7: COPSE multithreaded ({threads} threads) vs single-threaded"),
        &rows,
        &format!(
            "about 2.5x on microbenchmarks, almost 5x on real-world models \
             (paper host: 32 cores; this host: {} cores, capping speedup at {})",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ),
    )
}

/// Figure 8: COPSE vs baseline, both multithreaded.
pub fn figure8(seed: u64, n_queries: usize, threads: usize, work: usize) -> String {
    let rows: Vec<(String, ModelGroup, f64, String)> = suite(seed)
        .iter()
        .map(|m| {
            let copse = measure_copse(
                &m.name,
                &m.forest,
                ModelForm::Encrypted,
                threads,
                n_queries,
                work,
            );
            let base = measure_baseline(
                &m.name,
                &m.forest,
                ModelForm::Encrypted,
                threads,
                n_queries,
                work,
            );
            let speedup = base.wall_ms() / copse.wall_ms();
            (
                m.name.clone(),
                m.group,
                speedup,
                format!("COPSE {:.1} ms wall", copse.wall_ms()),
            )
        })
        .collect();
    speedup_section(
        &format!("Figure 8: speedup over Aloufi et al., both multithreaded ({threads} threads)"),
        &rows,
        "smaller than Figure 6 (packing already consumed parallelism); gap narrows on larger models",
    )
}

/// Figure 9: plaintext models (Maurice = Sally) vs encrypted models
/// (Diane = Maurice).
pub fn figure9(seed: u64, n_queries: usize, work: usize) -> String {
    let rows: Vec<(String, ModelGroup, f64, String)> = suite(seed)
        .iter()
        .map(|m| {
            let enc = measure_copse(&m.name, &m.forest, ModelForm::Encrypted, 1, n_queries, work);
            let plain = measure_copse(&m.name, &m.forest, ModelForm::Plain, 1, n_queries, work);
            let speedup = enc.modeled_ms / plain.modeled_ms;
            (
                m.name.clone(),
                m.group,
                speedup,
                format!("plaintext-model {:.1} ms modeled", plain.modeled_ms),
            )
        })
        .collect();
    speedup_section(
        "Figure 9: plaintext models (M = S) vs encrypted models (M = D)",
        &rows,
        "roughly 1.4x across the suite",
    )
}

/// Figure 10: per-stage runtime breakdowns across depth, branching and
/// precision sweeps.
pub fn figure10(seed: u64, n_queries: usize, work: usize) -> String {
    let groups: [(&str, &[&str], &str); 3] = [
        (
            "Figure 10a: run time vs max depth",
            &["depth4", "depth5", "depth6"],
            "comparison/reshuffle flat; level processing grows linearly with depth",
        ),
        (
            "Figure 10b: run time vs branches",
            &["width55", "width78", "width677"],
            "comparison flat; reshuffle and level processing grow with branching",
        ),
        (
            "Figure 10c: run time vs precision",
            &["prec8", "prec16"],
            "comparison grows superlinearly with precision; the rest flat",
        ),
    ];
    let suite = suite(seed);
    let model = CostModel::default();
    let mut out = String::new();
    for (title, names, shape) in groups {
        let _ = writeln!(out, "## {title}");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>12} {:>12} {:>12} {:>10}",
            "model", "compare_ms", "reshuffle_ms", "levels_ms", "accum_ms", "total_ms"
        );
        for &name in names {
            let m = suite
                .iter()
                .find(|m| m.name == name)
                .expect("model in suite");
            let (_, trace) = measure_copse_traced(
                name,
                &m.forest,
                ModelForm::Encrypted,
                1,
                n_queries.min(5),
                work,
            );
            let stage = |ops| model.modeled_ms(ops);
            let _ = writeln!(
                out,
                "{:<10} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>10.2}",
                name,
                stage(&trace.comparison.ops),
                stage(&trace.reshuffle.ops),
                stage(&trace.levels.ops),
                stage(&trace.accumulate.ops),
                stage(&trace.total_ops()),
            );
        }
        let _ = writeln!(out, "expected shape: {shape}");
        let _ = writeln!(out);
    }
    out
}

/// Tables 1 and 2: operation counts and multiplicative depth, formulas
/// vs metered execution.
pub fn table1_2(seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Tables 1-2: circuit complexity (formulas vs paper)");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "quantity", "ours", "paper", "ours", "paper", ""
    );
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "", "(p=8)", "(p=8)", "(p=16)", "(p=16)", ""
    );
    for (label, f_ours, f_paper) in [
        (
            "SecComp multiplies",
            Box::new(|p: u32| {
                complexity::ours::seccomp_counts(p, ModelForm::Encrypted, Default::default())
                    .multiplies_combined()
            }) as Box<dyn Fn(u32) -> u64>,
            Box::new(|p: u32| complexity::paper::seccomp_counts(p).multiply)
                as Box<dyn Fn(u32) -> u64>,
        ),
        (
            "SecComp adds",
            Box::new(|p| {
                complexity::ours::seccomp_counts(p, ModelForm::Encrypted, Default::default()).add
            }),
            Box::new(|p| complexity::paper::seccomp_counts(p).add),
        ),
        (
            "SecComp depth",
            Box::new(|p| u64::from(complexity::ours::seccomp_depth(p, Default::default()))),
            Box::new(|p| u64::from(complexity::paper::seccomp_depth(p))),
        ),
    ] {
        let _ = writeln!(
            out,
            "{:<26} {:>8} {:>8} {:>10} {:>10}",
            label,
            f_ours(8),
            f_paper(8),
            f_ours(16),
            f_paper(16),
        );
    }
    let _ = writeln!(out);

    // Table 2 instantiated on the depth5 microbenchmark, verified
    // against a metered run.
    let spec = table6_specs()[1];
    let forest = copse_forest::microbench::generate(&spec, seed);
    let compiled = compile(&forest, CompileOptions::default()).expect("compiles");
    let meta = &compiled.meta;
    let inputs = CostInputs::from_meta(
        meta,
        ModelForm::Encrypted,
        false,
        Accumulation::BalancedTree,
    );
    let ours = complexity::ours::classify_counts(&inputs);
    let paper = complexity::paper::total_counts(
        meta.precision,
        meta.quantized,
        meta.branches,
        meta.max_level,
    );
    let measured = measure_copse("depth5", &forest, ModelForm::Encrypted, 1, 1, 0).ops_per_query;
    let _ = writeln!(
        out,
        "Table 2 instantiated on depth5 (p={}, q={}, b={}, d={}):",
        meta.precision, meta.quantized, meta.branches, meta.max_level
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10}",
        "operation", "measured", "ours", "paper"
    );
    for (label, m, o, p) in [
        ("Rotate", measured.rotate, ours.rotate, paper.rotate),
        ("Add", measured.add, ours.add, paper.add),
        (
            "Constant Add",
            measured.constant_add,
            ours.constant_add,
            paper.constant_add,
        ),
        (
            "Multiply",
            measured.multiplies_combined(),
            ours.multiplies_combined(),
            paper.multiply,
        ),
    ] {
        let _ = writeln!(out, "{label:<16} {m:>10} {o:>10} {p:>10}");
    }
    let verified = measured == ours;
    let _ = writeln!(
        out,
        "measured == our formulas: {}",
        if verified { "VERIFIED" } else { "MISMATCH" }
    );
    let _ = writeln!(
        out,
        "depth: measured-model {} (paper bound {})",
        complexity::ours::classify_depth(&inputs),
        complexity::paper::total_depth(meta.precision, meta.max_level)
    );
    out
}

/// Tables 3 and 4: leakage profiles.
pub fn table3_4() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Table 3: two-party leakage");
    let _ = writeln!(out);
    out.push_str(&render_table(&[
        Scenario::OffloadedCompute,
        Scenario::ServerOwnsModel,
        Scenario::ClientEvaluates,
    ]));
    let _ = writeln!(out);
    let _ = writeln!(out, "## Table 4: three-party leakage");
    let _ = writeln!(out);
    out.push_str(&render_table(&[
        Scenario::ThreeParty,
        Scenario::ThreePartyServerModelCollusion,
        Scenario::ThreePartyServerDataCollusion,
    ]));
    out
}

/// Table 5: encryption parameter sweep.
pub fn table5(seed: u64) -> String {
    // Requirement: support the deepest circuit in the micro suite,
    // using the paper's depth bound 2 log p + log d + 2.
    let required_depth = table6_specs()
        .iter()
        .map(|s| complexity::paper::total_depth(s.precision, s.max_depth))
        .max()
        .expect("specs nonempty");
    // Workload for scoring: the depth5 microbenchmark op counts.
    let forest = copse_forest::microbench::generate(&table6_specs()[1], seed);
    let compiled = compile(&forest, CompileOptions::default()).expect("compiles");
    let inputs = CostInputs::from_meta(
        &compiled.meta,
        ModelForm::Encrypted,
        false,
        Accumulation::BalancedTree,
    );
    let ops = complexity::ours::classify_counts(&inputs);
    let max_width = compiled.meta.quantized.max(compiled.meta.n_leaves);

    let mut out = String::new();
    let _ = writeln!(out, "## Table 5: encryption parameter sweep");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "requirement: depth >= {required_depth} (prec16 circuit), slots >= {max_width}, security >= 128"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>8} {:>7} {:>7} {:>12} {:>10}",
        "security", "bits", "columns", "depth", "slots", "modeled_ms", "verdict"
    );

    let mut best: Option<(f64, EncryptionParams)> = None;
    for params in EncryptionParams::sweep_grid() {
        let depth = params.depth_budget();
        let slots = params.slot_capacity();
        let modeled = params.cost_model().modeled_ms(&ops);
        let feasible = depth >= required_depth
            && slots >= max_width
            && params.security.bits() >= SecurityLevel::Bits128.bits();
        let verdict = if !feasible {
            if params.security.bits() < 128 {
                "insecure"
            } else if depth < required_depth {
                "too shallow"
            } else {
                "too narrow"
            }
        } else {
            if best.as_ref().is_none_or(|(t, _)| modeled < *t) {
                best = Some((modeled, params));
            }
            "ok"
        };
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>8} {:>7} {:>7} {:>12.1} {:>10}",
            params.security.bits(),
            params.modulus_bits,
            params.ks_columns,
            depth,
            slots,
            modeled,
            verdict
        );
    }
    let (_, winner) = best.expect("some feasible configuration");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "optimal: security={} bits={} columns={}",
        winner.security.bits(),
        winner.modulus_bits,
        winner.ks_columns
    );
    let _ = writeln!(out, "paper Table 5: security=128 bits=400 columns=3");
    out
}

/// Table 6: microbenchmark specifications plus realised shapes.
pub fn table6(seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Table 6: microbenchmark specifications");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>7} {:>9} | realised: {:>4} {:>4} {:>4} {:>7}",
        "model", "max_depth", "precision", "trees", "branches", "b", "q", "K", "leaves"
    );
    for spec in table6_specs() {
        let forest = copse_forest::microbench::generate(&spec, seed);
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>7} {:>9} | {:>14} {:>4} {:>4} {:>7}",
            spec.name,
            spec.max_depth,
            spec.precision,
            spec.n_trees,
            spec.branches,
            forest.branch_count(),
            forest.quantized_branching(),
            forest.max_multiplicity(),
            forest.leaf_count(),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "real-world models (trained on synthetic stand-ins):");
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>6} {:>6} {:>6} {:>7}",
        "model", "trees", "b", "q", "d", "leaves"
    );
    for m in zoo::realworld_suite(seed) {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>6} {:>6} {:>6} {:>7}",
            m.name,
            m.forest.trees().len(),
            m.forest.branch_count(),
            m.forest.quantized_branching(),
            m.forest.max_level(),
            m.forest.leaf_count(),
        );
    }
    out
}

/// Ring-multiplication kernel: the BGV backend's NTT fast path vs the
/// schoolbook fallback on identical level-3 RNS chains of 45-bit
/// NTT-friendly primes. This is the innermost kernel of every
/// homomorphic operation (mat-vec, key switching, automorphisms), so
/// its speedup propagates through every server-side batch.
pub fn ring_mul() -> String {
    use copse_fhe::bgv::ring::RnsContext;
    use copse_trace::Stopwatch;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Ring-mul kernel: NTT vs schoolbook (level-3 chain, 45-bit primes)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<6} {:>9} {:>12} {:>15} {:>9}",
        "m", "ntt_size", "ntt_ms", "schoolbook_ms", "speedup"
    );
    let mut rng = SmallRng::seed_from_u64(0x517);
    for m in [127usize, 257, 509] {
        let (ntt, school) = RnsContext::ntt_schoolbook_pair(m, 45, 3);
        let a = ntt.sample_uniform(3, &mut rng);
        let b = ntt.sample_uniform(3, &mut rng);
        let time_ms = |ctx: &RnsContext| -> f64 {
            let times: Vec<_> = (0..7)
                .map(|_| {
                    let start = Stopwatch::start();
                    let _ = std::hint::black_box(ctx.mul(&a, &b));
                    start.elapsed()
                })
                .collect();
            crate::median(times).as_secs_f64() * 1e3
        };
        let fast = time_ms(&ntt);
        let slow = time_ms(&school);
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>12.3} {:>15.3} {:>8.1}x",
            m,
            RnsContext::ntt_size(m),
            fast,
            slow,
            slow / fast
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "expected shape: O(phi^2) vs O(n log n) — the gap widens with m; >= 5x at m = 509"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "negacyclic power-of-two flavor (psi-twisted size-n transforms, no padding):"
    );
    let _ = writeln!(
        out,
        "{:<6} {:>9} {:>12} {:>15} {:>9}",
        "n", "ntt_size", "ntt_ms", "schoolbook_ms", "speedup"
    );
    for n in [128usize, 256, 512] {
        let (ntt, school) = RnsContext::negacyclic_schoolbook_pair(n, 45, 3);
        let a = ntt.sample_uniform(3, &mut rng);
        let b = ntt.sample_uniform(3, &mut rng);
        let time_ms = |ctx: &RnsContext| -> f64 {
            let times: Vec<_> = (0..7)
                .map(|_| {
                    let start = Stopwatch::start();
                    let _ = std::hint::black_box(ctx.mul(&a, &b));
                    start.elapsed()
                })
                .collect();
            crate::median(times).as_secs_f64() * 1e3
        };
        let fast = time_ms(&ntt);
        let slow = time_ms(&school);
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>12.3} {:>15.3} {:>8.1}x",
            n,
            ntt.transform_size(),
            fast,
            slow,
            slow / fast
        );
    }
    let _ = writeln!(
        out,
        "transform size is exactly n — half the prime flavor's next_pow2(2m - 1) at\n\
         comparable ring dimension (128 vs 256 against m = 127)"
    );
    out
}

/// Medians and transform counts for the hot BGV kernels at demo
/// parameters, shared by the [`rotate_keyswitch`] exhibit and the
/// machine-readable `BENCH_kernels.json` (the cross-PR perf
/// trajectory). Since the `copse-pool` runtime landed, every kernel
/// carries a **threads dimension**: the `*_par_ms` medians rerun the
/// same kernel forked [`KernelMedians::threads`]-ways onto the shared
/// worker pool (bitwise-identical results; only wall-clock moves), and
/// [`KernelMedians::host_cores`] records how much hardware the numbers
/// were taken on — a 4-thread median on a 1-core container cannot
/// beat its own baseline, and readers need to see that.
#[derive(Clone, Copy, Debug)]
pub struct KernelMedians {
    /// `RnsContext::mul`, NTT fast path (m = 127, level-3 chain).
    pub ring_mul_ntt_ms: f64,
    /// `RnsContext::mul`, schoolbook oracle.
    pub ring_mul_school_ms: f64,
    /// `RnsContext::mul` on the negacyclic power-of-two ring at
    /// comparable dimension (n = 128 vs φ(127) = 126, level-3 chain):
    /// `ψ`-twisted transforms of size exactly `n` — half the prime
    /// flavor's zero-padded length.
    pub ring_mul_nega_ms: f64,
    /// Per-prime transform length of the prime-cyclotomic `ring_mul`
    /// point (`next_pow2(2m - 1)`).
    pub ring_mul_cyclic_size: usize,
    /// Per-prime transform length of the negacyclic `ring_mul` point
    /// (exactly `n`).
    pub ring_mul_nega_size: usize,
    /// `rotate_slots` with cached evaluation-domain key switching.
    pub rotate_eval_ms: f64,
    /// `rotate_slots` on the per-call coefficient route (PR 2).
    pub rotate_coeff_ms: f64,
    /// `rotate_slots`, evaluation-domain, forked `threads`-ways.
    pub rotate_par_ms: f64,
    /// One relinearisation key switch, evaluation-domain.
    pub key_switch_eval_ms: f64,
    /// One relinearisation key switch, coefficient-domain.
    pub key_switch_coeff_ms: f64,
    /// One relinearisation key switch, forked `threads`-ways.
    pub key_switch_par_ms: f64,
    /// Full Halevi–Shoup `mat_vec` over a plaintext model on real BGV
    /// (cached diagonal transforms), single-threaded.
    pub mat_vec_ms: f64,
    /// The same `mat_vec`, stage- and kernel-parallel `threads`-ways.
    pub mat_vec_par_ms: f64,
    /// Parallel degree the `*_par_ms` medians forked to.
    pub threads: usize,
    /// Cores the host advertised while measuring.
    pub host_cores: usize,
    /// NTT transforms per evaluation-domain rotate.
    pub rotate_eval_transforms: u64,
    /// NTT transforms per coefficient-domain rotate.
    pub rotate_coeff_transforms: u64,
}

/// Measures the kernel quartet (`ring_mul`, `rotate`, `key_switch`,
/// `mat_vec`) at demo parameters, `reps` samples per point, with the
/// parallel variants forked `threads`-ways onto the shared pool.
pub fn measure_kernels(reps: usize, threads: usize) -> KernelMedians {
    use copse_core::artifacts::BoolMatrix;
    use copse_core::matmul::{mat_vec, EncodedMatrix, MatMulOptions};
    use copse_core::parallel::Parallelism;
    use copse_fhe::bgv::ring::RnsContext;
    use copse_fhe::bgv::scheme::{BgvParams, BgvScheme};
    use copse_fhe::{BgvBackend, BitVec, FheBackend, OpMeter};
    use copse_trace::Stopwatch;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let reps = reps.max(1);
    let median_ms = |mut f: Box<dyn FnMut()>| -> f64 {
        let times: Vec<_> = (0..reps)
            .map(|_| {
                let start = Stopwatch::start();
                f();
                start.elapsed()
            })
            .collect();
        crate::median(times).as_secs_f64() * 1e3
    };

    // Ring multiplication, m = 127 over a level-3 chain of 45-bit
    // primes (the PR 2 exhibit's smaller point, CI-friendly).
    let mut rng = SmallRng::seed_from_u64(0x517);
    let (ntt, school) = RnsContext::ntt_schoolbook_pair(127, 45, 3);
    let a = ntt.sample_uniform(3, &mut rng);
    let b = ntt.sample_uniform(3, &mut rng);
    let ring_mul_ntt_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(ntt.mul(&a, &b));
    }));
    let ring_mul_school_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(school.mul(&a, &b));
    }));

    // Negacyclic power-of-two ring at comparable dimension: n = 128
    // (ring Z_q[X]/(X^128 + 1)) vs φ(127) = 126 above. Same chain
    // shape (level-3, 45-bit primes with 2n | q - 1); the ψ-twisted
    // transforms run at size exactly n = 128, half the prime flavor's
    // next_pow2(2·127 − 1) = 256.
    let (nega, _) = RnsContext::negacyclic_schoolbook_pair(128, 45, 3);
    let ring_mul_cyclic_size = ntt.transform_size();
    let ring_mul_nega_size = nega.transform_size();
    let na = nega.sample_uniform(3, &mut rng);
    let nb = nega.sample_uniform(3, &mut rng);
    let ring_mul_nega_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(nega.mul(&na, &nb));
    }));

    // Rotate and key switch at demo parameters, evaluation-domain vs
    // the per-call coefficient route (same keys, NTT on for both).
    let eval = BgvScheme::keygen(BgvParams::demo());
    let mut coeff = BgvScheme::keygen(BgvParams::demo());
    coeff.set_eval_domain_enabled(false);
    let nslots = eval.slots().nslots();
    let bits = BitVec::from_fn(nslots, |i| i % 3 != 0);
    let ct = eval.encrypt_poly(&eval.slots().encode(&bits));

    let (_, meter) = OpMeter::measure(|| eval.rotate_slots(&ct, 1));
    let rotate_eval_transforms = meter.transforms().total();
    let (_, meter) = OpMeter::measure(|| coeff.rotate_slots(&ct, 1));
    let rotate_coeff_transforms = meter.transforms().total();

    let rotate_eval_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(eval.rotate_slots(&ct, 1));
    }));
    let rotate_coeff_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(coeff.rotate_slots(&ct, 1));
    }));
    let key_switch_eval_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(eval.key_switch_relin(&ct));
    }));
    let key_switch_coeff_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(coeff.key_switch_relin(&ct));
    }));

    // The threads dimension: identical kernels, identical outputs,
    // forked across the shared worker pool (per-prime rows and
    // key-switch digit rows). The knob is flipped back afterwards so
    // later single-thread measurements stay honest.
    let threads = threads.max(1);
    eval.set_threads(threads);
    let rotate_par_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(eval.rotate_slots(&ct, 1));
    }));
    let key_switch_par_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(eval.key_switch_relin(&ct));
    }));
    eval.set_threads(1);

    // Full mat-vec over a plaintext model on real BGV: nslots x nslots
    // random matrix, diagonal transforms cached at encode time.
    let backend = BgvBackend::demo();
    let n = backend.nslots();
    let mut matrix = BoolMatrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            if rng.gen_bool(0.4) {
                matrix.set(r, c, true);
            }
        }
    }
    let encoded = EncodedMatrix::encode_plain(&backend, &matrix);
    let v = backend.encrypt_bits(&BitVec::from_fn(n, |i| i % 2 == 0));
    let mat_vec_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(mat_vec(
            &backend,
            &encoded,
            &v,
            MatMulOptions::default(),
            Parallelism::sequential(),
        ));
    }));
    // Parallel mat_vec: the diagonals fork at the stage layer (the
    // dominant lever here — each chunk is several milliseconds of
    // rotations). Kernel-level forking stays suppressed inside those
    // chunks by the pool's outermost-fork guard, so this median
    // isolates the stage dimension; `rotate_par_ms` and
    // `key_switch_par_ms` above isolate the kernel dimension.
    let mat_vec_par_ms = median_ms(Box::new(|| {
        let _ = std::hint::black_box(mat_vec(
            &backend,
            &encoded,
            &v,
            MatMulOptions::default(),
            Parallelism { threads },
        ));
    }));

    KernelMedians {
        ring_mul_ntt_ms,
        ring_mul_school_ms,
        ring_mul_nega_ms,
        ring_mul_cyclic_size,
        ring_mul_nega_size,
        rotate_eval_ms,
        rotate_coeff_ms,
        rotate_par_ms,
        key_switch_eval_ms,
        key_switch_coeff_ms,
        key_switch_par_ms,
        mat_vec_ms,
        mat_vec_par_ms,
        threads,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rotate_eval_transforms,
        rotate_coeff_transforms,
    }
}

/// Renders [`KernelMedians`] plus a [`PackingSweep`] as the
/// `BENCH_kernels.json` document (hand-formatted: the vendored serde
/// shim has no JSON serialiser). The `threads` block records the
/// parallel degree of the `parallel` medians and the cores of the host
/// that produced them — the speedup figures only mean something
/// relative to `host_cores`.
pub fn kernels_json(k: &KernelMedians, p: &PackingSweep) -> String {
    let points: Vec<String> = p
        .points
        .iter()
        .map(|pt| {
            format!(
                "    {{\"batch\": {}, \"packed_qps\": {:.2}, \
                 \"stage_major_qps\": {:.2}, \"speedup\": {:.4}}}",
                pt.batch,
                pt.packed_qps,
                pt.stage_major_qps,
                pt.speedup()
            )
        })
        .collect();
    format!(
        "{{\n  \"params\": \"demo (m = 127, 16-prime chain)\",\n  \
         \"threads\": {{\"parallel\": {}, \"host_cores\": {}}},\n  \
         \"ring_mul_ms\": {{\"ntt\": {:.4}, \"schoolbook\": {:.4}}},\n  \
         \"ring_mul_negacyclic\": {:.4},\n  \
         \"ring_mul_transform_sizes\": {{\"cyclic\": {}, \"negacyclic\": {}}},\n  \
         \"rotate_ms\": {{\"eval_domain\": {:.4}, \"coefficient\": {:.4}, \"parallel\": {:.4}}},\n  \
         \"key_switch_ms\": {{\"eval_domain\": {:.4}, \"coefficient\": {:.4}, \"parallel\": {:.4}}},\n  \
         \"mat_vec_ms\": {{\"threads_1\": {:.4}, \"parallel\": {:.4}}},\n  \
         \"mat_vec_parallel_speedup\": {:.4},\n  \
         \"rotate_transforms\": {{\"eval_domain\": {}, \"coefficient\": {}}},\n  \
         \"packing_sweep\": {{\n    \
         \"model\": \"{}\", \"work_per_op\": {}, \"reps\": {},\n    \
         \"stride\": {}, \"lanes\": {}, \"slot_capacity\": {},\n    \
         \"points\": [\n{}\n    ]\n  }}\n}}\n",
        k.threads,
        k.host_cores,
        k.ring_mul_ntt_ms,
        k.ring_mul_school_ms,
        k.ring_mul_nega_ms,
        k.ring_mul_cyclic_size,
        k.ring_mul_nega_size,
        k.rotate_eval_ms,
        k.rotate_coeff_ms,
        k.rotate_par_ms,
        k.key_switch_eval_ms,
        k.key_switch_coeff_ms,
        k.key_switch_par_ms,
        k.mat_vec_ms,
        k.mat_vec_par_ms,
        k.mat_vec_ms / k.mat_vec_par_ms,
        k.rotate_eval_transforms,
        k.rotate_coeff_transforms,
        p.model,
        p.work_per_op,
        p.reps,
        p.stride,
        p.lanes,
        p.slot_capacity,
        points.join(",\n"),
    )
}

/// Cross-query packing throughput sweep: the same batch evaluated by
/// the packed path ([`PackingMode::Auto`] on a capacity-bounded clear
/// backend) and by the pre-packing stage-major loop
/// ([`PackingMode::Off`] on the *same* backend), at batch sizes from a
/// lone query up to a full ciphertext of lanes. Queries/second is the
/// honest unit here: packing wins by evaluating the four stages once
/// per chunk instead of once per query, so per-pass wall-clock barely
/// moves while per-query throughput multiplies.
///
/// [`PackingMode::Auto`]: copse_core::runtime::PackingMode::Auto
/// [`PackingMode::Off`]: copse_core::runtime::PackingMode::Off
#[derive(Clone, Debug)]
pub struct PackingSweep {
    /// Model swept (depth4 microbenchmark).
    pub model: String,
    /// Synthetic per-op work of the backend (wall-clock fidelity).
    pub work_per_op: usize,
    /// Samples per median.
    pub reps: usize,
    /// Slot stride one query occupies (widest pipeline operand).
    pub stride: usize,
    /// Queries per ciphertext at the swept capacity.
    pub lanes: usize,
    /// Slot capacity the swept backend advertises (`lanes * stride`).
    pub slot_capacity: usize,
    /// One entry per batch size.
    pub points: Vec<PackingPoint>,
}

/// One batch size of a [`PackingSweep`].
#[derive(Clone, Copy, Debug)]
pub struct PackingPoint {
    /// Queries per evaluation pass.
    pub batch: usize,
    /// Median queries/second through the packed path.
    pub packed_qps: f64,
    /// Median queries/second through the stage-major loop.
    pub stage_major_qps: f64,
}

impl PackingPoint {
    /// Packed throughput over stage-major throughput.
    pub fn speedup(&self) -> f64 {
        self.packed_qps / self.stage_major_qps
    }
}

impl PackingSweep {
    /// The sweep point at `batch`, if that size was measured.
    pub fn point_at(&self, batch: usize) -> Option<&PackingPoint> {
        self.points.iter().find(|p| p.batch == batch)
    }
}

/// Measures the packing sweep: batch sizes {1, 4, 16, lanes} on a
/// 32-lane capacity-bounded clear backend with the standard synthetic
/// per-op work, `reps` passes per point, median reported. Both
/// variants run the identical backend and deployment; only the
/// packing policy differs, so the throughput ratio isolates the
/// packed path itself.
pub fn measure_packing(reps: usize) -> PackingSweep {
    use copse_core::runtime::{Diane, EvalOptions, Maurice, PackingMode, Sally};
    use copse_fhe::{ClearBackend, ClearConfig};
    use copse_trace::Stopwatch;

    let reps = reps.max(1);
    let spec = table6_specs()[0];
    let forest = copse_forest::microbench::generate(&spec, crate::SUITE_SEED);
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compiles");

    // Probe pass: an effectively unbounded capacity reveals the
    // layout stride so the real backend can be sized in whole lanes.
    let probe = ClearBackend::new(ClearConfig {
        slot_capacity: Some(1 << 20),
        ..ClearConfig::default()
    });
    let stride = Sally::host(&probe, maurice.deploy(&probe, ModelForm::Encrypted))
        .pack_plan()
        .expect("unbounded capacity always packs")
        .stride;
    let lanes = 32usize;
    let slot_capacity = lanes * stride;

    let backend = ClearBackend::new(ClearConfig {
        slot_capacity: Some(slot_capacity),
        work_per_op: crate::WORK_PER_OP,
        ..ClearConfig::default()
    });
    let packed = Sally::host(&backend, maurice.deploy(&backend, ModelForm::Encrypted));
    let stage_major = Sally::with_options(
        &backend,
        maurice.deploy(&backend, ModelForm::Encrypted),
        EvalOptions {
            packing: PackingMode::Off,
            ..EvalOptions::default()
        },
    );
    assert!(
        packed.pack_plan().is_some(),
        "the swept backend must admit the packed path"
    );
    let diane = Diane::new(&backend, maurice.public_query_info());

    let mut points = Vec::new();
    for batch in [1usize, 4, 16, lanes] {
        let queries: Vec<_> =
            copse_forest::microbench::random_queries(&forest, batch, crate::SUITE_SEED ^ 0x9ACC)
                .iter()
                .map(|q| diane.encrypt_features(q).expect("valid query"))
                .collect();
        let qps = |sally: &Sally<'_, ClearBackend>| -> f64 {
            let times: Vec<_> = (0..reps)
                .map(|_| {
                    let start = Stopwatch::start();
                    let _ = std::hint::black_box(sally.classify_batch(&queries));
                    start.elapsed()
                })
                .collect();
            batch as f64 / crate::median(times).as_secs_f64()
        };
        points.push(PackingPoint {
            batch,
            packed_qps: qps(&packed),
            stage_major_qps: qps(&stage_major),
        });
    }
    PackingSweep {
        model: spec.name.to_string(),
        work_per_op: crate::WORK_PER_OP,
        reps,
        stride,
        lanes,
        slot_capacity,
        points,
    }
}

/// Plain-text rendering of a [`PackingSweep`].
pub fn packing_text(p: &PackingSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Cross-query packing throughput ({}, stride {}, {} lanes, {} reps)",
        p.model, p.stride, p.lanes, p.reps
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<7} {:>14} {:>18} {:>9}",
        "batch", "packed_q/s", "stage_major_q/s", "speedup"
    );
    for pt in &p.points {
        let _ = writeln!(
            out,
            "{:<7} {:>14.1} {:>18.1} {:>8.2}x",
            pt.batch,
            pt.packed_qps,
            pt.stage_major_qps,
            pt.speedup()
        );
    }
    let _ = writeln!(
        out,
        "expected shape: ~1x at batch 1 (a lone query never packs); the gap\n\
         widens with batch size until every lane of the ciphertext is full"
    );
    out
}

/// Per-stage wall-clock medians for one batched evaluation pass — the
/// timing half of Figure 10 (the [`figure10`] exhibit reports the
/// modeled-cost half), plus the cost of a *disabled* tracing span
/// relative to the `mat_vec` kernel it instruments.
#[derive(Clone, Debug)]
pub struct StageMedians {
    /// Model the pass evaluated (depth5 microbenchmark).
    pub model: String,
    /// Queries per evaluation pass.
    pub batch: usize,
    /// Samples per median.
    pub reps: usize,
    /// Parallel degree of the pass.
    pub threads: usize,
    /// Cores the host advertised while measuring.
    pub host_cores: usize,
    /// Median comparison-stage wall-clock (SecComp).
    pub comparison_ms: f64,
    /// Median reshuffle-stage wall-clock (reshuffle MatMul).
    pub reshuffle_ms: f64,
    /// Median level-processing wall-clock (per-level MatMul ⊕ mask).
    pub levels_ms: f64,
    /// Median accumulation wall-clock.
    pub accumulate_ms: f64,
    /// Median whole-pass wall-clock.
    pub total_ms: f64,
    /// Cost of one `copse_trace::span` call while tracing is disabled.
    pub disabled_span_ns: f64,
    /// Median `mat_vec` wall-clock on the same backend (the kernel a
    /// permanent span instruments).
    pub mat_vec_ms: f64,
    /// `disabled_span_ns` as a percentage of the `mat_vec` median —
    /// the steady-state overhead of leaving the instrumentation in.
    pub disabled_overhead_pct: f64,
}

/// Measures per-stage wall-clock over `reps` batched passes of the
/// depth5 microbenchmark, and the disabled-span overhead against the
/// `mat_vec` kernel. Tracing stays **disabled** throughout: the stage
/// numbers come from [`EvalTrace`](copse_core::runtime::EvalTrace)'s
/// own wall-clocks, and the span probe must measure the disabled path.
pub fn measure_stages(reps: usize, threads: usize) -> StageMedians {
    use copse_core::artifacts::BoolMatrix;
    use copse_core::matmul::{mat_vec, EncodedMatrix, MatMulOptions};
    use copse_core::parallel::Parallelism;
    use copse_core::runtime::{Diane, EvalOptions, Maurice, Sally};
    use copse_fhe::{BitVec, FheBackend};
    use copse_trace::Stopwatch;

    let reps = reps.max(1);
    let threads = threads.max(1);
    let batch = 4;
    let spec = table6_specs()[1];
    let forest = copse_forest::microbench::generate(&spec, crate::SUITE_SEED);
    let backend = crate::bench_backend(crate::WORK_PER_OP);
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compiles");
    let sally = Sally::with_options(
        &backend,
        maurice.deploy(&backend, ModelForm::Encrypted),
        EvalOptions {
            parallelism: Parallelism { threads },
            ..EvalOptions::default()
        },
    );
    let diane = Diane::new(&backend, maurice.public_query_info());
    let queries: Vec<_> = copse_forest::microbench::random_queries(&forest, batch, 0xBEEF)
        .iter()
        .map(|q| diane.encrypt_features(q).expect("valid query"))
        .collect();

    copse_trace::set_enabled(false);
    let mut stage_times: [Vec<std::time::Duration>; 5] = Default::default();
    for _ in 0..reps {
        let start = Stopwatch::start();
        let (_, trace) = sally.classify_batch_traced(&queries);
        let total = start.elapsed();
        for (slot, d) in stage_times.iter_mut().zip([
            trace.comparison.duration,
            trace.reshuffle.duration,
            trace.levels.duration,
            trace.accumulate.duration,
            total,
        ]) {
            slot.push(d);
        }
    }
    let ms = |ts: Vec<std::time::Duration>| crate::median(ts).as_secs_f64() * 1e3;
    let [comparison, reshuffle, levels, accumulate, total] = stage_times;

    // Disabled-span probe: the guard construction + drop around one
    // relaxed load, amortized over enough calls to resolve it.
    let probes = 1_000_000u32;
    assert!(!copse_trace::enabled(), "probe must hit the disabled path");
    let start = Stopwatch::start();
    for _ in 0..probes {
        let _span = copse_trace::span("overhead-probe");
    }
    let disabled_span_ns = start.elapsed().as_secs_f64() * 1e9 / f64::from(probes);

    // The kernel that span instruments, on the same backend.
    let n = 64;
    let mut matrix = BoolMatrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            if (r * 31 + c * 17) % 5 == 0 {
                matrix.set(r, c, true);
            }
        }
    }
    let encoded = EncodedMatrix::encode_plain(&backend, &matrix);
    let v = backend.encrypt_bits(&BitVec::from_fn(n, |i| i % 2 == 0));
    let mat_vec_times: Vec<_> = (0..reps)
        .map(|_| {
            let start = Stopwatch::start();
            let _ = std::hint::black_box(mat_vec(
                &backend,
                &encoded,
                &v,
                MatMulOptions::default(),
                Parallelism::sequential(),
            ));
            start.elapsed()
        })
        .collect();
    let mat_vec_ms = crate::median(mat_vec_times).as_secs_f64() * 1e3;

    StageMedians {
        model: spec.name.to_string(),
        batch,
        reps,
        threads,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        comparison_ms: ms(comparison),
        reshuffle_ms: ms(reshuffle),
        levels_ms: ms(levels),
        accumulate_ms: ms(accumulate),
        total_ms: ms(total),
        disabled_span_ns,
        mat_vec_ms,
        // One span per mat_vec call.
        disabled_overhead_pct: disabled_span_ns / (mat_vec_ms * 1e6) * 100.0,
    }
}

/// Renders [`StageMedians`] as the `BENCH_stages.json` document
/// (hand-formatted: the vendored serde shim has no JSON serialiser).
pub fn stages_json(s: &StageMedians) -> String {
    format!(
        "{{\n  \"model\": \"{}\",\n  \
         \"batch\": {},\n  \"reps\": {},\n  \
         \"threads\": {{\"parallel\": {}, \"host_cores\": {}}},\n  \
         \"stage_ms\": {{\"comparison\": {:.4}, \"reshuffle\": {:.4}, \
         \"levels\": {:.4}, \"accumulate\": {:.4}, \"total\": {:.4}}},\n  \
         \"tracing_overhead\": {{\"disabled_span_ns\": {:.2}, \
         \"mat_vec_ms\": {:.4}, \"disabled_overhead_pct\": {:.5}}}\n}}\n",
        s.model,
        s.batch,
        s.reps,
        s.threads,
        s.host_cores,
        s.comparison_ms,
        s.reshuffle_ms,
        s.levels_ms,
        s.accumulate_ms,
        s.total_ms,
        s.disabled_span_ns,
        s.mat_vec_ms,
        s.disabled_overhead_pct,
    )
}

/// Plain-text rendering of [`StageMedians`], Figure 10 style.
pub fn stages_text(s: &StageMedians) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Per-stage wall-clock ({}, batch {}, {} reps, {} threads on {} cores)",
        s.model, s.batch, s.reps, s.threads, s.host_cores
    );
    let _ = writeln!(out);
    let sum = s.comparison_ms + s.reshuffle_ms + s.levels_ms + s.accumulate_ms;
    for (name, ms) in [
        ("comparison", s.comparison_ms),
        ("reshuffle", s.reshuffle_ms),
        ("levels", s.levels_ms),
        ("accumulate", s.accumulate_ms),
    ] {
        let width = ((ms / sum.max(f64::EPSILON)) * 40.0).round() as usize;
        let _ = writeln!(
            out,
            "{name:<12} {ms:>10.2} ms  {}",
            "#".repeat(width.max(1))
        );
    }
    let _ = writeln!(out, "{:<12} {:>10.2} ms", "total", s.total_ms);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "disabled span: {:.1} ns/call = {:.4}% of a {:.2} ms mat_vec",
        s.disabled_span_ns, s.disabled_overhead_pct, s.mat_vec_ms
    );
    out
}

/// Enables tracing, runs one batched evaluation pass of the depth5
/// microbenchmark, and returns the collected spans as a validated
/// Chrome trace-event JSON document (`chrome://tracing`-loadable).
pub fn capture_chrome_trace(threads: usize) -> String {
    use copse_core::parallel::Parallelism;
    use copse_core::runtime::{Diane, EvalOptions, Maurice, Sally};

    let forest = copse_forest::microbench::generate(&table6_specs()[1], crate::SUITE_SEED);
    let backend = crate::bench_backend(crate::WORK_PER_OP);
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compiles");
    let sally = Sally::with_options(
        &backend,
        maurice.deploy(&backend, ModelForm::Encrypted),
        EvalOptions {
            parallelism: Parallelism {
                threads: threads.max(1),
            },
            ..EvalOptions::default()
        },
    );
    let diane = Diane::new(&backend, maurice.public_query_info());
    let queries: Vec<_> = copse_forest::microbench::random_queries(&forest, 4, 0xBEEF)
        .iter()
        .map(|q| diane.encrypt_features(q).expect("valid query"))
        .collect();

    copse_trace::clear_events();
    copse_trace::set_enabled(true);
    let _ = sally.classify_batch_traced(&queries);
    copse_trace::set_enabled(false);
    let json = copse_trace::chrome_trace_json(&copse_trace::take_events());
    copse_trace::validate_chrome_trace(&json).expect("exporter emits valid Chrome traces");
    json
}

/// Rotate / key-switch kernel exhibit: cached evaluation-domain key
/// switching (key parts pre-transformed at keygen, each digit row
/// transformed once, one inverse per output row) vs the per-call
/// coefficient-domain route, at demo parameters. Key switching is the
/// dominant cost of the rotate-heavy `mat_vec` at COPSE's heart, so
/// this speedup propagates to every server-side batch.
pub fn rotate_keyswitch(k: &KernelMedians) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Rotate / key-switch kernel: evaluation-domain vs per-call transforms (demo parameters)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>9} {:>14} {:>22}",
        "kernel",
        "eval_ms",
        "coefficient_ms",
        "speedup",
        format!("{}-thread_ms", k.threads),
        "transforms (eval/coef)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>14.3} {:>14.3} {:>8.1}x {:>14.3} {:>22}",
        "rotate",
        k.rotate_eval_ms,
        k.rotate_coeff_ms,
        k.rotate_coeff_ms / k.rotate_eval_ms,
        k.rotate_par_ms,
        format!(
            "{} / {}",
            k.rotate_eval_transforms, k.rotate_coeff_transforms
        ),
    );
    let _ = writeln!(
        out,
        "{:<12} {:>14.3} {:>14.3} {:>8.1}x {:>14.3}",
        "key_switch",
        k.key_switch_eval_ms,
        k.key_switch_coeff_ms,
        k.key_switch_coeff_ms / k.key_switch_eval_ms,
        k.key_switch_par_ms,
    );
    let _ = writeln!(
        out,
        "{:<12} {:>14.3} {:>14} {:>9} {:>14.3} (plaintext model, cached diagonals)",
        "mat_vec", k.mat_vec_ms, "-", "-", k.mat_vec_par_ms,
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "ring_mul at comparable dimension: negacyclic n = {} ({:.3} ms, size-{} \
         transforms) vs prime-cyclotomic m = 127 ({:.3} ms, size-{} transforms) \
         — the power-of-two flavor transforms at half the length",
        k.ring_mul_nega_size,
        k.ring_mul_nega_ms,
        k.ring_mul_nega_size,
        k.ring_mul_ntt_ms,
        k.ring_mul_cyclic_size,
    );
    let _ = writeln!(
        out,
        "mat_vec speedup at {} threads: {:.2}x on a {}-core host",
        k.threads,
        k.mat_vec_ms / k.mat_vec_par_ms,
        k.host_cores,
    );
    let _ = writeln!(
        out,
        "expected shape: transforms per key switch drop from ~3 per digit product\n\
         to ~1 per digit (+2 per output row); >= 3x wall-clock on rotate_slots;\n\
         the threads column tracks host cores (>= 2x mat_vec at 4 threads on >= 4 cores)"
    );
    out
}

/// Ablations: design-choice studies called out in DESIGN.md.
pub fn ablations(seed: u64, n_queries: usize, work: usize) -> String {
    let forest = copse_forest::microbench::generate(&table6_specs()[1], seed);
    let meta = compile(&forest, CompileOptions::default())
        .expect("compiles")
        .meta;
    let mut out = String::new();
    let _ = writeln!(out, "## Ablations (depth5 microbenchmark)");
    let _ = writeln!(out);

    // 1. Reshuffle fusion.
    let run = |options: CompileOptions, matmul_skip: bool, form: ModelForm| -> Measurement {
        use copse_core::matmul::MatMulOptions;
        use copse_core::parallel::Parallelism;
        use copse_core::runtime::{Diane, EvalOptions, Maurice, Sally};
        use copse_fhe::{CostModel, FheBackend};
        let backend = crate::bench_backend(work);
        let maurice = Maurice::compile(&forest, options).expect("compiles");
        let sally = Sally::with_options(
            &backend,
            maurice.deploy(&backend, form),
            EvalOptions {
                parallelism: Parallelism::sequential(),
                matmul: MatMulOptions {
                    skip_zero_diagonals: matmul_skip,
                    ..MatMulOptions::default()
                },
                ..EvalOptions::default()
            },
        );
        let diane = Diane::new(&backend, maurice.public_query_info());
        let queries = copse_forest::microbench::random_queries(&forest, n_queries, 42);
        let mut times = Vec::new();
        let mut ops = copse_fhe::OpCounts::default();
        for (i, q) in queries.iter().enumerate() {
            let query = diane.encrypt_features(q).expect("valid");
            let before = backend.meter().snapshot();
            let start = copse_trace::Stopwatch::start();
            let _ = sally.classify(&query);
            times.push(start.elapsed());
            if i == 0 {
                ops = backend.meter().snapshot().since(&before);
            }
        }
        Measurement {
            name: String::new(),
            median_wall: crate::median(times),
            ops_per_query: ops,
            modeled_ms: CostModel::default().modeled_ms(&ops),
        }
    };

    let unfused = run(CompileOptions::default(), false, ModelForm::Encrypted);
    let fused = run(
        CompileOptions {
            fuse_reshuffle: true,
            ..CompileOptions::default()
        },
        false,
        ModelForm::Encrypted,
    );
    let _ = writeln!(out, "reshuffle fusion (L' = L*R at compile time):");
    let _ = writeln!(
        out,
        "  unfused: {:.1} ms modeled ({} mult, {} rot); fused: {:.1} ms modeled ({} mult, {} rot)",
        unfused.modeled_ms,
        unfused.ops_per_query.multiplies_combined(),
        unfused.ops_per_query.rotate,
        fused.modeled_ms,
        fused.ops_per_query.multiplies_combined(),
        fused.ops_per_query.rotate,
    );
    let _ = writeln!(
        out,
        "  (fusing removes one q-column MatMul but widens each of the d level matrices from b={} to q={} columns)",
        meta.branches, meta.quantized
    );
    let _ = writeln!(out);

    // 2. Accumulation strategy: depth only.
    let bal = CostInputs::from_meta(
        &meta,
        ModelForm::Encrypted,
        false,
        Accumulation::BalancedTree,
    );
    let lin = CostInputs::from_meta(&meta, ModelForm::Encrypted, false, Accumulation::Linear);
    let _ = writeln!(out, "accumulation strategy (multiplicative depth):");
    let _ = writeln!(
        out,
        "  balanced tree: depth {}; linear fold: depth {} (same {} multiplies)",
        complexity::ours::classify_depth(&bal),
        complexity::ours::classify_depth(&lin),
        complexity::ours::accumulate_counts(meta.max_level).multiply,
    );
    let _ = writeln!(out);

    // 3. Sparse plaintext diagonals.
    let dense = run(CompileOptions::default(), false, ModelForm::Plain);
    let sparse = run(CompileOptions::default(), true, ModelForm::Plain);
    let _ = writeln!(out, "plaintext-model sparse diagonal skipping:");
    let _ = writeln!(
        out,
        "  dense: {} const-mults, {:.1} ms modeled; skip-zero: {} const-mults, {:.1} ms modeled",
        dense.ops_per_query.constant_multiply,
        dense.modeled_ms,
        sparse.ops_per_query.constant_multiply,
        sparse.modeled_ms,
    );
    let _ = writeln!(
        out,
        "  (sound only for plaintext models; encrypted diagonals hide their sparsity)"
    );
    let _ = writeln!(out);

    // 4. Comparator variant: shrink SecComp for both COPSE and the
    // baseline, and watch the Figure 6 gap move.
    use copse_core::seccomp::SecCompVariant;
    let _ = writeln!(
        out,
        "comparator variant (SecComp mult counts, encrypted model):"
    );
    for p in [8u32, 16] {
        let ladder =
            complexity::ours::seccomp_counts(p, ModelForm::Encrypted, SecCompVariant::LadderPrefix);
        let shared =
            complexity::ours::seccomp_counts(p, ModelForm::Encrypted, SecCompVariant::SharedPrefix);
        let _ = writeln!(
            out,
            "  p = {p:>2}: ladder {} ct-mults (paper-parity) vs shared-prefix {} ct-mults",
            ladder.multiply, shared.multiply
        );
    }
    let _ = writeln!(
        out,
        "  (the baseline pays SecComp per branch, so a cheaper comparator narrows\n   COPSE's relative advantage while speeding both systems up)"
    );
    out
}

/// Static circuit analysis of the whole zoo, as the
/// `BENCH_analysis.json` document: per-model exact operation counts,
/// the multiplicative-depth profile, the minimum slot capacity, the
/// modeled HElib cost, and the admission verdict against the default
/// clear profile — each entry cross-checked op-for-op against one
/// metered evaluation so the artifact doubles as the analyzer's CI
/// smoke test.
///
/// # Panics
///
/// Panics if a zoo model fails to compile or the static prediction
/// disagrees with the meter (the conformance property this artifact
/// certifies).
pub fn analysis_json(seed: u64) -> String {
    use copse_analyze::{BackendProfile, CircuitReport, EvalShape};
    use copse_core::runtime::{Diane, Maurice, Sally};
    use copse_fhe::{ClearBackend, FheBackend};
    use copse_forest::microbench::random_queries;

    let cost = CostModel::helib_bgv_128();
    let reference = ClearBackend::with_defaults();
    let profile = BackendProfile::of(&reference);

    let mut entries = Vec::new();
    for model in suite(seed) {
        let maurice =
            Maurice::compile(&model.forest, CompileOptions::default()).expect("zoo model compiles");
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            let shape = EvalShape::plan(&maurice, form);
            let report = CircuitReport::analyze(maurice.compiled(), &shape);

            // Cross-check: one metered pass must agree exactly.
            let be = ClearBackend::with_defaults();
            let sally = Sally::host(&be, maurice.deploy(&be, form));
            let diane = Diane::new(&be, maurice.public_query_info());
            let query = diane
                .encrypt_features(&random_queries(&model.forest, 1, seed ^ 0xA11)[0])
                .expect("valid query");
            let (results, trace) = sally.classify_batch_traced(std::slice::from_ref(&query));
            assert_eq!(
                trace.total_ops(),
                report.total_ops(),
                "{} {form:?}: static ops diverge from the meter",
                model.name
            );
            assert_eq!(
                be.depth(results[0].ciphertext()),
                report.depth,
                "{} {form:?}: static depth diverges from the meter",
                model.name
            );

            let ops = report.total_ops();
            let form_tag = match form {
                ModelForm::Plain => "plain",
                ModelForm::Encrypted => "encrypted",
            };
            let group = match model.group {
                ModelGroup::Micro => "micro",
                ModelGroup::RealWorld => "real_world",
            };
            entries.push(format!(
                "    {{\"model\": \"{}\", \"group\": \"{}\", \"form\": \"{}\", \
                 \"depth\": {}, \"min_slot_capacity\": {}, \
                 \"ops\": {{\"rotate\": {}, \"add\": {}, \"constant_add\": {}, \
                 \"multiply\": {}, \"constant_multiply\": {}, \"total\": {}}}, \
                 \"modeled_ms\": {:.3}, \"admitted\": {}, \"meter_parity\": true}}",
                model.name,
                group,
                form_tag,
                report.depth,
                report.min_slot_capacity,
                ops.rotate,
                ops.add,
                ops.constant_add,
                ops.multiply,
                ops.constant_multiply,
                ops.total_homomorphic(),
                report.modeled_ms(&cost),
                report.admit(&profile).is_empty(),
            ));
        }
    }
    format!(
        "{{\n  \"seed\": {seed},\n  \"reference_profile\": {{\"depth_budget\": {}, \
         \"slot_capacity\": null, \"supports_slot_rotation\": true}},\n  \
         \"circuits\": [\n{}\n  ]\n}}\n",
        profile.depth_budget,
        entries.join(",\n"),
    )
}
