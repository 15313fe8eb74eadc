//! Server-side service statistics.
//!
//! Every evaluation pass records its batch size, per-stage operation
//! counts, and its latency split here; connection threads read
//! consistent snapshots to answer `MetricsRequest` frames
//! ([`render_exposition`](crate::metrics::render_exposition)), where
//! operators see whether the batching scheduler is actually coalescing
//! load (`max_batch > 1` under concurrency is the whole point) and what
//! the service's tail latency looks like.
//!
//! Per-stage op counts come from the **per-pass** scoped meter each
//! [`Sally::classify_batch_traced`](copse_core::runtime::Sally::classify_batch_traced)
//! pass installs, so they are exact per stage and per model even when
//! several models evaluate concurrently on one shared backend.
//!
//! Each fact is stored once. The service totals (queries served,
//! batches, the largest batch, packed queries, shed and expired) are
//! derived at snapshot time, under the one mutex, from the histograms
//! and per-model counters that already hold them, so a snapshot cannot
//! disagree with itself (see the concurrent-polling test).

use copse_core::runtime::EvalTrace;
use copse_fhe::OpCounts;
use copse_trace::LatencyHistogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Aggregated counters for one running server (all models combined).
#[derive(Debug)]
pub struct ServerStats {
    /// Parallel degree; configuration, not a counter.
    pool_threads: usize,
    /// Connections closed by the read/write socket timeouts (the
    /// slow-loris bound).
    conn_timeouts: AtomicU64,
    /// Every per-query and per-pass counter.
    inner: Mutex<StatsInner>,
}

/// The mutex-guarded counters.
#[derive(Debug, Default)]
struct StatsInner {
    batch_size_counts: BTreeMap<usize, u64>,
    packed_size_counts: BTreeMap<u32, u64>,
    comparison_ops: OpCounts,
    reshuffle_ops: OpCounts,
    level_ops: OpCounts,
    accumulate_ops: OpCounts,
    queue_wait_total: Duration,
    eval_total: Duration,
    per_model: BTreeMap<String, ModelStats>,
    circuits: BTreeMap<String, CircuitSummary>,
}

/// The static-analysis verdict for one deployed model, registered at
/// deploy time from the static analyzer's
/// [`CircuitReport`](copse_core::analyze::CircuitReport) so the
/// exposition can show where each model sits in its backend's modulus
/// chain next to its measured latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CircuitSummary {
    /// Multiplicative depth of one classification.
    pub depth: u32,
    /// The circuit's place in a BGV modulus chain; `None` on a
    /// depth-budgeted backend, whose budget is an operator setting
    /// (`ClearConfig::max_depth`) that admission already enforces.
    pub primes: Option<ChainPrimes>,
    /// Homomorphic operations per classification.
    pub ops_per_query: u64,
    /// Modeled single-thread latency per classification (calibrated
    /// BGV cost model), in milliseconds.
    pub modeled_ms: f64,
}

/// One model's circuit on a BGV modulus chain
/// ([`NoiseBudget::Chain`](copse_fhe::NoiseBudget::Chain)), as the
/// analyzer predicts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainPrimes {
    /// Primes a fresh query needs for one classification to decrypt
    /// ([`ChainReport::primes_needed`](copse_core::analyze::ChainReport::primes_needed)).
    pub needed: u32,
    /// Primes queries enter at: the highest entry level of the
    /// circuits the hosted evaluator runs (packed ones included).
    pub entry: u32,
    /// Primes in the backend's chain.
    pub chain: u32,
}

/// Latency aggregates for one registered model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Queries this model answered.
    pub queries: u64,
    /// Queries shed from this model's queue (full or draining).
    pub shed: u64,
    /// Queries whose deadline expired in this model's queue.
    pub expired: u64,
    /// End-to-end latency (queue wait + evaluation) per query.
    pub latency: LatencyHistogram,
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

/// A consistent copy of the server's counters.
#[derive(Clone, Debug, Default)]
pub struct StatsSnapshot {
    /// Parallel degree the server evaluates with (how many workers of
    /// the shared `copse-pool` runtime one evaluation pass may fork
    /// onto; 1 = sequential). Configuration, not a counter — fixed at
    /// server build time.
    pub pool_threads: usize,
    /// Inference queries answered.
    pub queries_served: u64,
    /// Evaluation passes run (each serves one batch of ≥ 1 queries).
    pub batches: u64,
    /// Largest batch coalesced so far.
    pub max_batch: usize,
    /// How many batches of each size ran.
    pub batch_size_counts: BTreeMap<usize, u64>,
    /// Queries that shared a packed ciphertext with at least one other
    /// query (lane occupancy ≥ 2) during their evaluation pass.
    pub packed_queries: u64,
    /// Largest lane occupancy any query ran at (0 until a pass runs;
    /// 1 means no pass has packed yet).
    pub max_packed: u32,
    /// How many queries ran at each lane occupancy (1 = the query had
    /// its own ciphertext: stage-major batching or a remainder chunk).
    pub packed_size_counts: BTreeMap<u32, u64>,
    /// Homomorphic op totals for the comparison stage.
    pub comparison_ops: OpCounts,
    /// Homomorphic op totals for the reshuffle stage.
    pub reshuffle_ops: OpCounts,
    /// Homomorphic op totals for the level stage.
    pub level_ops: OpCounts,
    /// Homomorphic op totals for the accumulation stage.
    pub accumulate_ops: OpCounts,
    /// Total time queries spent waiting in batching queues before an
    /// evaluation pass picked them up (summed per query).
    pub queue_wait_total: Duration,
    /// Total time queries spent inside evaluation passes (each pass's
    /// wall-clock attributed to every query it served).
    pub eval_total: Duration,
    /// Per-model query counts and end-to-end latency histograms.
    pub per_model: BTreeMap<String, ModelStats>,
    /// Per-model static circuit analysis (depth, chain primes, modeled
    /// cost), registered at deploy time.
    pub circuits: BTreeMap<String, CircuitSummary>,
    /// Queries shed with an overload answer instead of evaluated.
    pub queries_shed: u64,
    /// Queries whose client deadline expired in the queue.
    pub queries_expired: u64,
    /// Connections closed by the socket timeouts.
    pub conn_timeouts: u64,
    /// Live per-model queue gauges. The stats module cannot see the
    /// queues, so this is empty in a raw [`ServerStats::snapshot`];
    /// `ServerHandle::snapshot` and the `MetricsRequest` arm fill it
    /// from the live queues.
    pub queue_depths: Vec<ModelQueueDepth>,
}

/// One model's live queue gauge inside a [`StatsSnapshot`]: how deep
/// its bounded job queue currently is (its shed count is
/// [`ModelStats::shed`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelQueueDepth {
    /// Registry name of the model.
    pub model: String,
    /// Jobs waiting in the model's bounded queue at snapshot time.
    pub depth: u32,
    /// Configured bound of that queue.
    pub capacity: u32,
}

impl StatsSnapshot {
    /// Mean batch size over all passes (0 when nothing ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries_served as f64 / self.batches as f64
        }
    }
}

impl ServerStats {
    /// Fresh, all-zero counters for a sequential (1-thread) server.
    pub fn new() -> Self {
        Self::with_threads(1)
    }

    /// Fresh counters for a server evaluating at the given parallel
    /// degree (recorded once; reported in every snapshot — floored at
    /// 1, the `copse_pool_threads` gauge's "sequential").
    pub fn with_threads(pool_threads: usize) -> Self {
        Self {
            pool_threads: pool_threads.max(1),
            conn_timeouts: AtomicU64::new(0),
            inner: Mutex::new(StatsInner::default()),
        }
    }

    /// Records one query shed with an overload answer (full queue or
    /// drain shutdown) for `model`.
    pub fn record_shed(&self, model: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.per_model.entry(model.to_string()).or_default().shed += 1;
    }

    /// Records one query whose client deadline expired in `model`'s
    /// queue (answered with a typed error, never evaluated).
    pub fn record_expired(&self, model: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .per_model
            .entry(model.to_string())
            .or_default()
            .expired += 1;
    }

    /// Records one connection closed by a socket read/write timeout.
    pub fn record_conn_timeout(&self) {
        self.conn_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one evaluation pass over `model`: its per-stage trace,
    /// each served query's queue wait, and the pass's evaluation
    /// wall-clock. The batch size is `queue_waits.len()`; each query's
    /// end-to-end latency sample is its own queue wait plus the shared
    /// evaluation time (every query of a batch waits for the whole
    /// pass).
    pub fn record_batch(
        &self,
        model: &str,
        trace: &EvalTrace,
        queue_waits: &[Duration],
        eval: Duration,
    ) {
        let batch_size = queue_waits.len();
        let queue_wait_sum: Duration = queue_waits.iter().sum();
        // A panic under the lock (nothing here should, but the server
        // must not compound one) poisons only the mutex, not the data:
        // every update below is a saturating counter bump, so the
        // recovered value is always coherent. Same for `snapshot`.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        *inner.batch_size_counts.entry(batch_size).or_insert(0) += 1;
        // The packed dimension: each query's lane occupancy comes from
        // the trace (empty when the pass ran stage-major — every query
        // then had its own ciphertext, occupancy 1).
        for i in 0..batch_size {
            let occupancy = trace.packed_sizes.get(i).copied().unwrap_or(1);
            *inner.packed_size_counts.entry(occupancy).or_insert(0) += 1;
        }
        inner.comparison_ops = inner.comparison_ops.plus(&trace.comparison.ops);
        inner.reshuffle_ops = inner.reshuffle_ops.plus(&trace.reshuffle.ops);
        inner.level_ops = inner.level_ops.plus(&trace.levels.ops);
        inner.accumulate_ops = inner.accumulate_ops.plus(&trace.accumulate.ops);
        inner.queue_wait_total += queue_wait_sum;
        inner.eval_total += eval * batch_size as u32;
        let entry = inner.per_model.entry(model.to_string()).or_default();
        entry.queries += batch_size as u64;
        for &wait in queue_waits {
            entry.latency.record(wait + eval);
        }
    }

    /// Registers the static circuit analysis for one deployed model
    /// (called once per model at server build time).
    pub fn set_circuit(&self, model: &str, summary: CircuitSummary) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.circuits.insert(model.to_string(), summary);
    }

    /// A consistent copy of the counters: the totals are derived under
    /// the one lock from the maps that hold them, so they always agree
    /// with the histograms and per-model rows of the same snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let batches = &inner.batch_size_counts;
        let packed = &inner.packed_size_counts;
        let per_model = |count: fn(&ModelStats) -> u64| inner.per_model.values().map(count).sum();
        StatsSnapshot {
            pool_threads: self.pool_threads,
            queries_served: batches.iter().map(|(&size, &n)| size as u64 * n).sum(),
            batches: batches.values().sum(),
            max_batch: batches.keys().next_back().copied().unwrap_or(0),
            batch_size_counts: batches.clone(),
            packed_queries: packed.range(2..).map(|(_, &n)| n).sum(),
            max_packed: packed.keys().next_back().copied().unwrap_or(0),
            packed_size_counts: packed.clone(),
            comparison_ops: inner.comparison_ops,
            reshuffle_ops: inner.reshuffle_ops,
            level_ops: inner.level_ops,
            accumulate_ops: inner.accumulate_ops,
            queue_wait_total: inner.queue_wait_total,
            eval_total: inner.eval_total,
            per_model: inner.per_model.clone(),
            circuits: inner.circuits.clone(),
            queries_shed: per_model(|m| m.shed),
            queries_expired: per_model(|m| m.expired),
            conn_timeouts: self.conn_timeouts.load(Ordering::Relaxed),
            queue_depths: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copse_core::runtime::StageReport;

    fn trace(multiplies: u64) -> EvalTrace {
        EvalTrace {
            levels: StageReport {
                duration: std::time::Duration::ZERO,
                ops: OpCounts {
                    multiply: multiplies,
                    ..OpCounts::default()
                },
                ..StageReport::default()
            },
            ..EvalTrace::default()
        }
    }

    fn waits(n: usize, millis: u64) -> Vec<Duration> {
        vec![Duration::from_millis(millis); n]
    }

    #[test]
    fn batches_accumulate() {
        let stats = ServerStats::new();
        stats.record_batch("m", &trace(5), &waits(1, 1), Duration::from_millis(10));
        stats.record_batch("m", &trace(20), &waits(4, 2), Duration::from_millis(20));
        stats.record_batch("m", &trace(10), &waits(2, 3), Duration::from_millis(30));
        let snap = stats.snapshot();
        assert_eq!(snap.queries_served, 7);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.max_batch, 4);
        assert_eq!(snap.batch_size_counts.get(&4), Some(&1));
        assert_eq!(snap.level_ops.multiply, 35);
        assert!((snap.mean_batch() - 7.0 / 3.0).abs() < 1e-12);
        // Queue wait sums per query: 1*1 + 4*2 + 2*3 = 15ms.
        assert_eq!(snap.queue_wait_total, Duration::from_millis(15));
        // Eval attributed per query: 1*10 + 4*20 + 2*30 = 150ms.
        assert_eq!(snap.eval_total, Duration::from_millis(150));
        let m = snap.per_model.get("m").expect("model tracked");
        assert_eq!(m.queries, 7);
        assert_eq!(m.latency.count(), 7);
        // Worst sample: 3ms wait + 30ms eval.
        assert_eq!(m.latency.max_nanos(), 33_000_000);
    }

    #[test]
    fn pool_threads_floor_is_one() {
        // The gauge's contract says 1 = sequential; no constructor
        // may emit the out-of-contract 0.
        assert_eq!(ServerStats::with_threads(0).snapshot().pool_threads, 1);
        assert_eq!(ServerStats::new().snapshot().pool_threads, 1);
        assert_eq!(ServerStats::default().snapshot().pool_threads, 1);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        // Mirrors the OpMeter exactness test: many threads hammering
        // `record_batch` must lose nothing, neither in the derived
        // totals nor in the histograms they are derived from.
        let stats = std::sync::Arc::new(ServerStats::with_threads(2));
        let threads = 8;
        let per_thread = 250;
        std::thread::scope(|s| {
            for t in 0..threads {
                let stats = std::sync::Arc::clone(&stats);
                s.spawn(move || {
                    let model = if t % 2 == 0 { "even" } else { "odd" };
                    for i in 0..per_thread {
                        let batch = 1 + (i % 3);
                        stats.record_batch(
                            model,
                            &trace(1),
                            &waits(batch, 1),
                            Duration::from_millis(2),
                        );
                    }
                });
            }
        });
        let snap = stats.snapshot();
        let batches = (threads * per_thread) as u64;
        // Per thread: sum over i of 1 + (i%3) with 250 iterations =
        // 250 + (0+1+2)*83 + 0 + 1 = 500... compute exactly instead.
        let queries_per_thread: usize = (0..per_thread).map(|i| 1 + (i % 3)).sum();
        assert_eq!(snap.batches, batches);
        assert_eq!(snap.queries_served, (threads * queries_per_thread) as u64);
        assert_eq!(snap.level_ops.multiply, batches);
        let histogram_total: u64 = snap.per_model.values().map(|m| m.latency.count()).sum();
        assert_eq!(histogram_total, snap.queries_served, "no sample dropped");
        assert_eq!(snap.per_model.len(), 2);
    }

    #[test]
    fn packed_dimension_tracks_lane_occupancy() {
        let stats = ServerStats::new();
        // One packed pass of 5 queries: two full 2-lane chunks plus a
        // solo remainder, as the runtime reports it — per query, in
        // query order.
        let packed = EvalTrace {
            packed_sizes: vec![2, 2, 2, 2, 1],
            ..EvalTrace::default()
        };
        stats.record_batch("m", &packed, &waits(5, 1), Duration::from_millis(4));
        // One stage-major pass: the trace carries no lane occupancies,
        // so every query counts at occupancy 1.
        stats.record_batch("m", &trace(1), &waits(3, 1), Duration::from_millis(2));
        let snap = stats.snapshot();
        assert_eq!(snap.packed_queries, 4, "only lanes ≥ 2 count as packed");
        assert_eq!(snap.max_packed, 2);
        assert_eq!(snap.packed_size_counts.get(&2), Some(&4));
        assert_eq!(
            snap.packed_size_counts.get(&1),
            Some(&4),
            "1 remainder + 3 stage-major"
        );
    }

    #[test]
    fn circuit_summary_shows_depth_headroom() {
        let stats = ServerStats::new();
        let chain = ChainPrimes {
            needed: 10,
            entry: 11,
            chain: 20,
        };
        stats.set_circuit(
            "chess15",
            CircuitSummary {
                depth: 9,
                primes: None,
                ops_per_query: 1234,
                modeled_ms: 87.5,
            },
        );
        stats.set_circuit(
            "depth4",
            CircuitSummary {
                depth: 8,
                primes: Some(chain),
                ops_per_query: 174,
                modeled_ms: 39.0,
            },
        );
        let snap = stats.snapshot();
        assert_eq!(snap.circuits["chess15"].depth, 9);
        assert_eq!(snap.circuits["chess15"].primes, None);
        let primes = snap.circuits["depth4"].primes.expect("a chain circuit");
        assert_eq!(primes, chain);
        assert_eq!(primes.chain - primes.needed, 10, "headroom in primes");
    }

    #[test]
    fn overload_counters_accumulate_per_model() {
        let stats = ServerStats::new();
        stats.record_shed("m");
        stats.record_shed("m");
        stats.record_shed("other");
        stats.record_expired("m");
        stats.record_conn_timeout();
        let snap = stats.snapshot();
        assert_eq!(snap.queries_shed, 3);
        assert_eq!(snap.queries_expired, 1);
        assert_eq!(snap.conn_timeouts, 1);
        assert_eq!(snap.per_model["m"].shed, 2);
        assert_eq!(snap.per_model["m"].expired, 1);
        assert_eq!(snap.per_model["other"].shed, 1);
    }

    /// Every poll of a server under load agrees with itself: the
    /// service totals are the sums of the per-model rows and the
    /// batch-size histogram of the same snapshot.
    #[test]
    fn snapshots_agree_with_themselves_under_concurrent_recording() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        fn check(snap: &StatsSnapshot) {
            let sum =
                |count: fn(&ModelStats) -> u64| -> u64 { snap.per_model.values().map(count).sum() };
            assert_eq!(snap.queries_served, sum(|m| m.queries));
            assert_eq!(snap.queries_served, sum(|m| m.latency.count()));
            assert_eq!(snap.batches, snap.batch_size_counts.values().sum::<u64>());
            assert_eq!(snap.queries_shed, sum(|m| m.shed));
            assert_eq!(snap.queries_expired, sum(|m| m.expired));
        }

        let stats = ServerStats::new();
        let (writers, per_writer) = (8, 20_000);
        let finished = AtomicUsize::new(0);
        // The poller is running before any writer records.
        let start = Barrier::new(writers + 1);
        std::thread::scope(|s| {
            for t in 0..writers {
                let (stats, finished, start) = (&stats, &finished, &start);
                s.spawn(move || {
                    start.wait();
                    let model = ["a", "b", "c"][t % 3];
                    for i in 0..per_writer {
                        match i % 4 {
                            0 => stats.record_shed(model),
                            1 => stats.record_expired(model),
                            _ => stats.record_batch(
                                model,
                                &trace(1),
                                &waits(1 + i % 3, 1),
                                Duration::ZERO,
                            ),
                        }
                    }
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            s.spawn(|| {
                start.wait();
                while finished.load(Ordering::Acquire) < writers {
                    check(&stats.snapshot());
                }
            });
        });
        let snap = stats.snapshot();
        check(&snap);
        let quarter = (writers * per_writer / 4) as u64;
        assert_eq!(snap.queries_shed, quarter);
        assert_eq!(snap.batches, 2 * quarter);
    }
}
