//! Offline shim for `criterion`: a minimal wall-clock benchmark
//! harness exposing the API subset the workspace's benches use
//! ([`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`BenchmarkId`], and the
//! [`criterion_group!`]/[`criterion_main!`]
//! macros). It reports the median of `sample_size` timed samples with
//! no statistical analysis, warm-up scheduling, or HTML output.

use std::time::{Duration, Instant};

/// Prevents the optimiser from eliding a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level harness handle.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            _criterion: self,
        }
    }
}

/// A named benchmark identifier (`function_name/parameter`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{parameter}", name.into()),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times `f` under `id`.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            median: Duration::ZERO,
        };
        f(&mut bencher);
        println!("{}/{id}: median {:?}", self.name, bencher.median);
        self
    }

    /// Times `f` under `id` with a borrowed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (kept for API parity; prints nothing extra).
    pub fn finish(&mut self) {}
}

/// Times one closure.
pub struct Bencher {
    sample_size: usize,
    median: Duration,
}

impl Bencher {
    /// Runs `routine` `sample_size` times and records the median.
    pub fn iter<T>(&mut self, mut routine: impl FnMut() -> T) {
        let mut samples: Vec<Duration> = (0..self.sample_size)
            .map(|_| {
                let start = Instant::now();
                black_box(routine());
                start.elapsed()
            })
            .collect();
        samples.sort();
        self.median = samples[samples.len() / 2];
    }

    /// Runs `routine` on a fresh `setup()` input `sample_size` times and
    /// records the median; only `routine` is timed.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let mut samples: Vec<Duration> = (0..self.sample_size)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                start.elapsed()
            })
            .collect();
        samples.sort();
        self.median = samples[samples.len() / 2];
    }
}

/// How [`Bencher::iter_batched`] groups set-up calls. The shim times
/// every input individually, so the size is accepted for API parity.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs small enough to build many at once.
    SmallInput,
}

/// Declares a benchmark group runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
