//! # copse-bench — the evaluation harness
//!
//! Reproduces every table and figure of the paper's evaluation
//! (§8). One binary per exhibit (`src/bin/`); this library holds the
//! shared measurement machinery:
//!
//! * [`measure_copse`] / [`measure_baseline`] — run `n` inference
//!   queries against a model on a fresh [`ClearBackend`] and report the
//!   **median wall-clock**, the metered operation counts, and the
//!   **modeled FHE milliseconds** (counts x calibrated BGV latencies).
//!   Wall-clock uses `work_per_op` so time tracks operation counts the
//!   way lattice time would, rather than logical slot widths.
//! * [`geomean`], [`BarTable`] — the paper's aggregation and a plain
//!   text bar renderer for figure-style output.
//!
//! The paper reports medians over 27 queries per model; the harness
//! defaults match ([`QUERIES_PER_MODEL`]).

#![warn(missing_docs)]

pub mod reports;

use copse_baseline as baseline;
use copse_core::compiler::CompileOptions;
use copse_core::parallel::Parallelism;
use copse_core::runtime::{Diane, EvalOptions, EvalTrace, Maurice, ModelForm, Sally};
use copse_fhe::{ClearBackend, ClearConfig, CostModel, FheBackend, OpCounts};
use copse_forest::microbench::random_queries;
use copse_forest::model::Forest;
use std::time::Duration;

use copse_trace::Stopwatch;

/// Queries per model, as in the paper ("we performed 27 inference
/// queries ... We report the median running time").
pub const QUERIES_PER_MODEL: usize = 27;

/// Synthetic per-op work for wall-clock fidelity (see
/// `ClearConfig::work_per_op`): roughly 10 microseconds per operation
/// on a typical core — still far below a real BGV multiply (~400 us)
/// but enough that threading measurements reflect work distribution
/// rather than spawn overhead.
pub const WORK_PER_OP: usize = 25_000;

/// Deterministic seed for the benchmark suite.
pub const SUITE_SEED: u64 = 2021;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Configuration label.
    pub name: String,
    /// Median wall-clock per query.
    pub median_wall: Duration,
    /// Operation counts for a single (first) query.
    pub ops_per_query: OpCounts,
    /// Modeled FHE milliseconds per query (sequential).
    pub modeled_ms: f64,
}

impl Measurement {
    /// Median wall-clock in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.median_wall.as_secs_f64() * 1e3
    }
}

/// Builds the standard benchmark backend.
pub fn bench_backend(work_per_op: usize) -> ClearBackend {
    ClearBackend::new(ClearConfig {
        work_per_op,
        ..ClearConfig::default()
    })
}

/// Median of a set of durations.
pub fn median(mut xs: Vec<Duration>) -> Duration {
    assert!(!xs.is_empty(), "median of empty sample");
    xs.sort();
    xs[xs.len() / 2]
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Measures COPSE on a forest: `n_queries` classifications, median
/// wall-clock + per-query ops + modeled time.
pub fn measure_copse(
    name: &str,
    forest: &Forest,
    form: ModelForm,
    threads: usize,
    n_queries: usize,
    work_per_op: usize,
) -> Measurement {
    measure_copse_traced(name, forest, form, threads, n_queries, work_per_op).0
}

/// Measures COPSE and returns the per-stage trace of the first query
/// alongside the measurement (Figure 10).
pub fn measure_copse_traced(
    name: &str,
    forest: &Forest,
    form: ModelForm,
    threads: usize,
    n_queries: usize,
    work_per_op: usize,
) -> (Measurement, EvalTrace) {
    let backend = bench_backend(work_per_op);
    let maurice =
        Maurice::compile(forest, CompileOptions::default()).expect("benchmark model compiles");
    let sally = Sally::with_options(
        &backend,
        maurice.deploy(&backend, form),
        EvalOptions {
            parallelism: Parallelism { threads },
            ..EvalOptions::default()
        },
    );
    let diane = Diane::new(&backend, maurice.public_query_info());
    let queries = random_queries(forest, n_queries, SUITE_SEED ^ 0xF00D);

    let mut times = Vec::with_capacity(n_queries);
    let mut first: Option<(OpCounts, EvalTrace)> = None;
    for q in &queries {
        let query = diane.encrypt_features(q).expect("valid query");
        let before = backend.meter().snapshot();
        let start = Stopwatch::start();
        let (result, trace) = sally.classify_traced(&query);
        times.push(start.elapsed());
        if first.is_none() {
            first = Some((backend.meter().snapshot().since(&before), trace));
        }
        // Keep the oracle honest even while benchmarking.
        debug_assert_eq!(
            diane.decrypt_result(&result).leaf_hits().to_bools(),
            forest.classify_leaf_hits(q)
        );
    }
    let (ops_per_query, trace) = first.expect("at least one query");
    (
        Measurement {
            name: name.to_string(),
            median_wall: median(times),
            ops_per_query,
            modeled_ms: CostModel::default().modeled_ms(&ops_per_query),
        },
        trace,
    )
}

/// Measures the Aloufi et al. baseline on a forest.
pub fn measure_baseline(
    name: &str,
    forest: &Forest,
    form: ModelForm,
    threads: usize,
    n_queries: usize,
    work_per_op: usize,
) -> Measurement {
    let backend = bench_backend(work_per_op);
    let model = baseline::BaselineModel::compile(forest);
    let deployed = model.deploy(&backend, form);
    let queries = random_queries(forest, n_queries, SUITE_SEED ^ 0xF00D);

    let mut ops_per_query = OpCounts::default();
    let mut times = Vec::with_capacity(n_queries);
    for (i, q) in queries.iter().enumerate() {
        let query = baseline::encrypt_query(&backend, &deployed, q);
        let before = backend.meter().snapshot();
        let start = Stopwatch::start();
        let result = baseline::classify(&backend, &deployed, &query, Parallelism { threads });
        times.push(start.elapsed());
        if i == 0 {
            ops_per_query = backend.meter().snapshot().since(&before);
        }
        debug_assert_eq!(
            baseline::decrypt_labels(&backend, &deployed, &result),
            forest.classify_per_tree(q)
        );
        let _ = result;
    }
    Measurement {
        name: name.to_string(),
        median_wall: median(times),
        ops_per_query,
        modeled_ms: CostModel::default().modeled_ms(&ops_per_query),
    }
}

/// Plain-text rendering of a figure: one bar per model with the value
/// annotated, the way the paper annotates median times atop its bars.
#[derive(Clone, Debug, Default)]
pub struct BarTable {
    rows: Vec<(String, f64, String)>,
}

impl BarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a bar with an annotation.
    pub fn push(&mut self, name: &str, value: f64, annotation: String) {
        self.rows.push((name.to_string(), value, annotation));
    }

    /// Renders with unit-scaled bars.
    pub fn render(&self, value_label: &str) -> String {
        let max = self.rows.iter().map(|r| r.1).fold(f64::EPSILON, f64::max);
        let mut out = format!("{:<12} {:>8}  bar (annotation)\n", "model", value_label);
        for (name, value, annotation) in &self.rows {
            let width = ((value / max) * 40.0).round() as usize;
            out.push_str(&format!(
                "{:<12} {:>8.2}  {} ({})\n",
                name,
                value,
                "#".repeat(width.max(1)),
                annotation
            ));
        }
        out
    }
}

/// Simple `--flag value` argument helper for the harness binaries.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Number of queries requested via `--queries`, defaulting to the
/// paper's 27.
pub fn queries_from_args() -> usize {
    arg_value("--queries")
        .and_then(|v| v.parse().ok())
        .unwrap_or(QUERIES_PER_MODEL)
}

/// Threads requested via `--threads`, defaulting to the paper's 32
/// (capped by the host).
pub fn threads_from_args() -> usize {
    arg_value("--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(32)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use copse_forest::microbench::{self, table6_specs};

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        let ms = |n: u64| Duration::from_millis(n);
        assert_eq!(median(vec![ms(3), ms(1), ms(2)]), ms(2));
        assert_eq!(median(vec![ms(4), ms(1), ms(2), ms(3)]), ms(3));
    }

    #[test]
    fn copse_beats_baseline_on_modeled_time() {
        // The headline claim of the paper, in miniature.
        let forest = microbench::generate(&table6_specs()[1], SUITE_SEED);
        let copse = measure_copse("depth5", &forest, ModelForm::Encrypted, 1, 3, 0);
        let base = measure_baseline("depth5", &forest, ModelForm::Encrypted, 1, 3, 0);
        assert!(
            base.modeled_ms > 1.5 * copse.modeled_ms,
            "baseline {:.1}ms vs copse {:.1}ms",
            base.modeled_ms,
            copse.modeled_ms
        );
    }

    #[test]
    fn bar_table_renders_annotations() {
        let mut t = BarTable::new();
        t.push("a", 2.0, "x".into());
        t.push("b", 4.0, "y".into());
        let s = t.render("speedup");
        assert!(s.contains("(x)") && s.contains("(y)"));
    }
}
