//! Report generators: one function per table/figure of the paper.
//!
//! Each function runs the corresponding experiment and renders a
//! plain-text exhibit with the same rows/series the paper reports. The
//! `reproduce_all` binary stitches them into one Markdown report; the
//! per-exhibit binaries print them individually.

use crate::{
    geomean, measure_baseline, measure_copse, measure_copse_traced, paper_options, BarTable,
};
use copse_core::analyze::{self, CircuitReport, EvalShape};
use copse_core::compiler::{Accumulation, CompileOptions, Fusion};
use copse_core::complexity::paper;
use copse_core::leakage::{render_table, Scenario};
use copse_core::runtime::{Maurice, ModelForm};
use copse_core::seccomp::SecCompVariant;
use copse_fhe::{
    BgvParams, CostModel, EncryptionParams, LevelRule, NoiseBudget, OpCounts, SecurityLevel,
};
use copse_forest::microbench::table6_specs;
use copse_forest::zoo::{self, BenchModel, ModelGroup};
use std::fmt::Write as _;

/// Runs the full 12-model suite once.
fn suite(seed: u64) -> Vec<BenchModel> {
    zoo::paper_suite(seed)
}

/// The encrypted-model plan the paper evaluates: the default plan with
/// Aloufi's ladder comparator.
fn paper_plan(maurice: &Maurice) -> EvalShape {
    EvalShape {
        comparator: SecCompVariant::LadderPrefix,
        ..EvalShape::plan(maurice, ModelForm::Encrypted)
    }
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
/// (Diane = Maurice), modeled from one query's op counts per form.
pub fn figure9(seed: u64) -> String {
    let rows: Vec<(String, ModelGroup, f64, String)> = suite(seed)
        .iter()
        .map(|m| {
            let enc = measure_copse(&m.name, &m.forest, ModelForm::Encrypted, 1, 1, 0);
            let plain = measure_copse(&m.name, &m.forest, ModelForm::Plain, 1, 1, 0);
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
pub fn figure10(seed: u64, n_queries: usize) -> String {
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
                0,
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
    // (ours, paper) per row, at one precision.
    let seccomp = |p: u32| {
        let ours = analyze::seccomp(p, ModelForm::Encrypted, SecCompVariant::LadderPrefix);
        let printed = paper::seccomp_counts(p);
        [
            (ours.ops.multiplies_combined(), printed.multiply),
            (ours.ops.add, printed.add),
            (
                u64::from(ours.depth_cost),
                u64::from(paper::seccomp_depth(p)),
            ),
        ]
    };
    let (p8, p16) = (seccomp(8), seccomp(16));
    for (i, label) in ["SecComp multiplies", "SecComp adds", "SecComp depth"]
        .into_iter()
        .enumerate()
    {
        let _ = writeln!(
            out,
            "{:<26} {:>8} {:>8} {:>10} {:>10}",
            label, p8[i].0, p8[i].1, p16[i].0, p16[i].1,
        );
    }
    let _ = writeln!(out);

    // Table 2 instantiated on the depth5 microbenchmark, verified
    // against a metered run.
    let spec = table6_specs()[1];
    let forest = copse_forest::microbench::generate(&spec, seed);
    let maurice = Maurice::compile(&forest, paper_options()).expect("compiles");
    let meta = &maurice.compiled().meta;
    let report = CircuitReport::analyze(maurice.compiled(), &paper_plan(&maurice));
    let ours = report.total_ops();
    let paper = paper::total_counts(
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
        report.depth,
        paper::total_depth(meta.precision, meta.max_level)
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
        .map(|s| paper::total_depth(s.precision, s.max_depth))
        .max()
        .expect("specs nonempty");
    // Workload for scoring: the depth5 microbenchmark op counts.
    let forest = copse_forest::microbench::generate(&table6_specs()[1], seed);
    let maurice = Maurice::compile(&forest, paper_options()).expect("compiles");
    let report = CircuitReport::analyze(maurice.compiled(), &paper_plan(&maurice));
    let ops = report.total_ops();
    let max_width = report.min_slot_capacity;

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
/// NTT-friendly primes, plus one 256-point forward transform at the
/// benchmark's 25-bit primes. This is the innermost kernel of every
/// homomorphic operation (mat-vec, key switching, automorphisms), so
/// its speedup propagates through every server-side batch.
///
/// Every repetition times fresh operands, drawn outside the timed
/// region: a repeated input lets the branch predictor learn a kernel's
/// data-dependent branches, which once hid a several-fold cost in the
/// NTT butterflies. The forward-transform line prints both, so such a gap
/// shows.
pub fn ring_mul() -> String {
    use copse_fhe::bgv::ring::{RnsContext, RnsPoly};
    use copse_fhe::math::{modq::ntt_chain_primes, ntt::NttPlan};
    use copse_trace::Stopwatch;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const REPS: usize = 7;
    let mut rng = SmallRng::seed_from_u64(0x517);
    let mut pairs = |ctx: &RnsContext| -> Vec<(RnsPoly, RnsPoly)> {
        (0..REPS)
            .map(|_| {
                (
                    ctx.sample_uniform(3, &mut rng),
                    ctx.sample_uniform(3, &mut rng),
                )
            })
            .collect()
    };
    let time_ms = |ctx: &RnsContext, pairs: &[(RnsPoly, RnsPoly)]| -> f64 {
        let times: Vec<_> = pairs
            .iter()
            .map(|(a, b)| {
                let start = Stopwatch::start();
                let _ = std::hint::black_box(ctx.mul(a, b));
                start.elapsed()
            })
            .collect();
        crate::median(times).as_secs_f64() * 1e3
    };
    let header = |out: &mut String, first: &str| {
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>12} {:>15} {:>9}",
            first, "ntt_size", "ntt_ms", "schoolbook_ms", "speedup"
        );
    };
    let row = |out: &mut String, size: usize, transform: usize, fast: f64, slow: f64| {
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>12.3} {:>15.3} {:>8.1}x",
            size,
            transform,
            fast,
            slow,
            slow / fast
        );
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Ring-mul kernel: NTT vs schoolbook (level-3 chain, 45-bit primes)"
    );
    let _ = writeln!(out);
    header(&mut out, "m");
    for m in [127usize, 257, 509] {
        let (ntt, school) = RnsContext::ntt_schoolbook_pair(m, 45, 3);
        let operands = pairs(&ntt);
        let (fast, slow) = (time_ms(&ntt, &operands), time_ms(&school, &operands));
        row(&mut out, m, RnsContext::ntt_size(m), fast, slow);
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
    header(&mut out, "n");
    for n in [128usize, 256, 512] {
        let (ntt, school) = RnsContext::negacyclic_schoolbook_pair(n, 45, 3);
        let operands = pairs(&ntt);
        let (fast, slow) = (time_ms(&ntt, &operands), time_ms(&school, &operands));
        row(&mut out, n, ntt.transform_size(), fast, slow);
    }
    let _ = writeln!(
        out,
        "transform size is exactly n — half the prime flavor's next_pow2(2m - 1) at\n\
         comparable ring dimension (128 vs 256 against m = 127)"
    );

    let n = RnsContext::ntt_size(127);
    let q = ntt_chain_primes(25, 1, n.trailing_zeros())[0];
    let plan = NttPlan::new(q, n).expect("prime generated NTT-friendly");
    let inputs: Vec<Vec<u64>> = (0..101)
        .map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect())
        .collect();
    let forward_us = |input: &dyn Fn(usize) -> usize| -> f64 {
        let times: Vec<_> = (0..inputs.len())
            .map(|i| {
                let mut a = inputs[input(i)].clone();
                let start = Stopwatch::start();
                plan.forward(&mut a);
                let elapsed = start.elapsed();
                std::hint::black_box(a);
                elapsed
            })
            .collect();
        crate::median(times).as_secs_f64() * 1e6
    };
    let fresh = forward_us(&|i| i);
    let repeated = forward_us(&|_| 0);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{n}-point forward NTT (25-bit prime): {fresh:.2} us fresh operand, \
         {repeated:.2} us repeated operand"
    );
    out
}

/// Ablations: reshuffle fusion, accumulation strategy, sparse
/// plaintext diagonals and the comparator variant, each from one
/// query's op counts.
pub fn ablations(seed: u64) -> String {
    let forest = copse_forest::microbench::generate(&table6_specs()[1], seed);
    let maurice = Maurice::compile(&forest, paper_options()).expect("compiles");
    let meta = &maurice.compiled().meta;
    let mut out = String::new();
    let _ = writeln!(out, "## Ablations (depth5 microbenchmark)");
    let _ = writeln!(out);

    // 1. Reshuffle fusion.
    let run = |options: CompileOptions, matmul_skip: bool, form: ModelForm| -> OpCounts {
        use copse_core::matmul::MatMulOptions;
        use copse_core::parallel::Parallelism;
        use copse_core::runtime::{Diane, EvalOptions, Sally};
        use copse_fhe::FheBackend;
        let backend = crate::bench_backend(0);
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
                comparator: SecCompVariant::LadderPrefix,
                ..EvalOptions::default()
            },
        );
        let diane = Diane::new(&backend, maurice.public_query_info());
        let features = &copse_forest::microbench::random_queries(&forest, 1, 42)[0];
        let query = diane.encrypt_features(features).expect("valid");
        let before = backend.meter().snapshot();
        let _ = sally.classify(&query);
        backend.meter().snapshot().since(&before)
    };
    let modeled = |ops: &OpCounts| CostModel::default().modeled_ms(ops);

    let unfused = run(paper_options(), false, ModelForm::Encrypted);
    let fused = run(
        CompileOptions {
            fuse_reshuffle: Fusion::Always,
            ..paper_options()
        },
        false,
        ModelForm::Encrypted,
    );
    let _ = writeln!(out, "reshuffle fusion (L' = L*R at compile time):");
    let _ = writeln!(
        out,
        "  unfused: {:.1} ms modeled ({} mult, {} rot); fused: {:.1} ms modeled ({} mult, {} rot)",
        modeled(&unfused),
        unfused.multiplies_combined(),
        unfused.rotate,
        modeled(&fused),
        fused.multiplies_combined(),
        fused.rotate,
    );
    let _ = writeln!(
        out,
        "  (fusing removes one q-column MatMul but widens each of the d level matrices from b={} to q={} columns)",
        meta.branches, meta.quantized
    );
    let _ = writeln!(out);

    // 2. Accumulation strategy: depth only.
    let balanced = paper_plan(&maurice);
    let linear = EvalShape {
        accumulation: Accumulation::Linear,
        ..balanced
    };
    let bal = CircuitReport::analyze(maurice.compiled(), &balanced);
    let lin = CircuitReport::analyze(maurice.compiled(), &linear);
    let _ = writeln!(out, "accumulation strategy (multiplicative depth):");
    let _ = writeln!(
        out,
        "  balanced tree: depth {}; linear fold: depth {} (same {} multiplies)",
        bal.depth, lin.depth, bal.accumulate.ops.multiply,
    );
    let _ = writeln!(out);

    // 3. Sparse plaintext diagonals.
    let dense = run(paper_options(), false, ModelForm::Plain);
    let sparse = run(paper_options(), true, ModelForm::Plain);
    let _ = writeln!(out, "plaintext-model sparse diagonal skipping:");
    let _ = writeln!(
        out,
        "  dense: {} const-mults, {:.1} ms modeled; skip-zero: {} const-mults, {:.1} ms modeled",
        dense.constant_multiply,
        modeled(&dense),
        sparse.constant_multiply,
        modeled(&sparse),
    );
    let _ = writeln!(
        out,
        "  (sound only for plaintext models; encrypted diagonals hide their sparsity)"
    );
    let _ = writeln!(out);

    // 4. Comparator variant: shrink SecComp for both COPSE and the
    // baseline, and watch the Figure 6 gap move.
    let _ = writeln!(
        out,
        "comparator variant (SecComp ct-mults and depth, encrypted model):"
    );
    for p in [8u32, 16] {
        let ladder = analyze::seccomp(p, ModelForm::Encrypted, SecCompVariant::LadderPrefix);
        let tree = analyze::seccomp(p, ModelForm::Encrypted, SecCompVariant::Tree);
        let _ = writeln!(
            out,
            "  p = {p:>2}: ladder {} ct-mults, depth {} (paper-parity) vs tree {} ct-mults, depth {} (served)",
            ladder.ops.multiply, ladder.depth_cost, tree.ops.multiply, tree.depth_cost
        );
    }
    let _ = writeln!(
        out,
        "  (the baseline pays SecComp per branch, so a cheaper comparator narrows\n   COPSE's relative advantage while speeding both systems up)"
    );
    out
}

/// The real-BGV parameter point of the repo benchmark (`benchmark/`):
/// `m = 127` (18 slots), a 20-prime chain of 25-bit primes, 7-bit
/// switching digits.
pub const BENCH_BGV_PARAMS: BgvParams = BgvParams {
    m: 127,
    prime_bits: 25,
    chain_len: 20,
    ks_digit_bits: 7,
    error_eta: 2,
    keygen_seed: 0xC0F5E,
};

/// Static circuit analysis of the whole zoo, as the
/// `BENCH_analysis.json` document: each model compiled as it is served
/// (`fused` says whether the default folded `R` into the level
/// matrices), with per-model exact operation counts,
/// the multiplicative-depth profile, the minimum slot capacity, the
/// modeled HElib cost, the admission verdict against the default
/// clear profile, and the chain primes a query needs at
/// [`BENCH_BGV_PARAMS`] (computed for every model, including the ones
/// too wide for its 18 slots) — each entry cross-checked op-for-op
/// against one metered evaluation so the artifact doubles as the
/// analyzer's CI smoke test.
///
/// # Panics
///
/// Panics if a zoo model fails to compile or the static prediction
/// disagrees with the meter (the conformance property this artifact
/// certifies).
pub fn analysis_json(seed: u64) -> String {
    use copse_core::analyze::BackendProfile;
    use copse_core::runtime::{Diane, Sally};
    use copse_fhe::{ClearBackend, FheBackend};
    use copse_forest::microbench::random_queries;

    let cost = CostModel::helib_bgv_128();
    let reference = ClearBackend::with_defaults();
    let profile = BackendProfile::of(&reference);
    let chain = LevelRule::of(&BENCH_BGV_PARAMS);

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
                 \"fused\": {}, \"depth\": {}, \"min_slot_capacity\": {}, \
                 \"ops\": {{\"rotate\": {}, \"add\": {}, \"constant_add\": {}, \
                 \"multiply\": {}, \"constant_multiply\": {}, \"total\": {}}}, \
                 \"modeled_ms\": {:.3}, \"admitted\": {}, \"primes_needed\": {}, \
                 \"meter_parity\": true}}",
                model.name,
                group,
                form_tag,
                maurice.compiled().fused,
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
                report.chain(&chain).primes_needed,
            ));
        }
    }
    let NoiseBudget::Depth(depth_budget) = profile.budget else {
        unreachable!("the clear backend budgets depth")
    };
    let BgvParams {
        m,
        prime_bits,
        chain_len,
        ks_digit_bits,
        ..
    } = BENCH_BGV_PARAMS;
    format!(
        "{{\n  \"seed\": {seed},\n  \"reference_profile\": {{\"depth_budget\": {depth_budget}, \
         \"slot_capacity\": null}},\n  \
         \"chain_point\": {{\"m\": {m}, \"prime_bits\": {prime_bits}, \"chain_len\": {chain_len}, \
         \"ks_digit_bits\": {ks_digit_bits}}},\n  \
         \"circuits\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both halves of the Tables 1–2 exhibit run the paper's comparator:
    /// the metered run agrees with the analyzer, and the SecComp rows
    /// are the ladder's.
    #[test]
    fn table1_2_verifies_the_paper_ladder() {
        let text = table1_2(crate::SUITE_SEED);
        assert!(
            text.contains("measured == our formulas: VERIFIED"),
            "{text}"
        );
        let p8 = |label: &str| -> u64 {
            let line = text.lines().find_map(|l| l.strip_prefix(label));
            let first = line.and_then(|rest| rest.split_whitespace().next());
            first.and_then(|n| n.parse().ok()).expect(label)
        };
        let ladder = analyze::seccomp(8, ModelForm::Encrypted, SecCompVariant::LadderPrefix);
        assert_eq!(p8("SecComp multiplies"), ladder.ops.multiplies_combined());
        assert_eq!(p8("SecComp adds"), ladder.ops.add);
        assert_eq!(p8("SecComp depth"), u64::from(ladder.depth_cost));
    }
}
