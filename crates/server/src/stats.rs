//! Server-side service statistics.
//!
//! Every evaluation pass records its batch size, per-stage operation
//! counts, and its latency split here; connection threads read
//! consistent snapshots to answer `MetricsRequest` frames, and
//! operators read them to see whether the batching scheduler is
//! actually coalescing load (`max_batch > 1` under concurrency is the
//! whole point) and what the service's tail latency looks like
//! ([`StatsSnapshot::render_text`]).
//!
//! Per-stage op counts come from the **per-pass** scoped meter each
//! [`Sally::classify_batch_traced`](copse_core::runtime::Sally::classify_batch_traced)
//! pass installs, so they are exact per stage and per model even when
//! several models evaluate concurrently on one shared backend.
//!
//! The hot exact counters (`queries_served`, `batches`) are atomics;
//! the mutex is taken only for the histogram/map updates, so
//! concurrently completing passes contend as little as possible while
//! every count stays exact (see the concurrent-recording test).

use copse_core::runtime::EvalTrace;
use copse_fhe::OpCounts;
use copse_trace::{format_nanos, LatencyHistogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Aggregated counters for one running server (all models combined).
#[derive(Debug)]
pub struct ServerStats {
    /// Parallel degree; configuration, not a counter.
    pool_threads: usize,
    /// Inference queries answered (hot path: atomic, no lock).
    queries_served: AtomicU64,
    /// Evaluation passes run (hot path: atomic, no lock).
    batches: AtomicU64,
    /// Queries shed with a `Busy`/overload answer (full queue, or
    /// drain shutdown) instead of being evaluated.
    queries_shed: AtomicU64,
    /// Queries whose client deadline expired in the queue; answered
    /// with a typed error, never evaluated.
    queries_expired: AtomicU64,
    /// Connections closed by the read/write socket timeouts (the
    /// slow-loris bound).
    conn_timeouts: AtomicU64,
    /// Everything that needs a map or histogram update.
    inner: Mutex<StatsInner>,
}

/// The mutex-guarded slice of the counters.
#[derive(Debug, Default)]
struct StatsInner {
    max_batch: usize,
    batch_size_counts: BTreeMap<usize, u64>,
    packed_queries: u64,
    max_packed: u32,
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
/// operator page can show where each model sits in its backend's
/// noise budget next to its measured latency.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CircuitSummary {
    /// Multiplicative depth of one classification.
    pub depth: u32,
    /// The backend's noise budget and the circuit's use of it.
    pub budget: CircuitBudget,
    /// Homomorphic operations per classification.
    pub ops_per_query: u64,
    /// Modeled single-thread latency per classification (calibrated
    /// BGV cost model), in milliseconds.
    pub modeled_ms: f64,
}

/// What bounds one model's circuit on its backend
/// ([`NoiseBudget`](copse_fhe::NoiseBudget)), with the analyzer's
/// prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitBudget {
    /// A depth-budgeted backend: the depth it supports.
    Depth {
        /// Depth the backend's parameters support.
        budget: u32,
    },
    /// A BGV modulus chain.
    Chain {
        /// Primes a fresh query needs for one classification to
        /// decrypt ([`ChainReport::primes_needed`](copse_core::analyze::ChainReport::primes_needed)).
        primes_needed: u32,
        /// Primes queries enter at: the highest entry level of the
        /// circuits the hosted evaluator runs (packed ones included).
        entry: u32,
        /// Primes in the backend's chain.
        chain_len: u32,
    },
}

impl Default for CircuitBudget {
    fn default() -> Self {
        CircuitBudget::Depth { budget: 0 }
    }
}

impl CircuitSummary {
    /// What one classification leaves unused of the budget: depth
    /// levels, or chain primes. A deployed circuit always fits —
    /// admission rejects the rest.
    pub fn headroom(&self) -> u32 {
        match self.budget {
            CircuitBudget::Depth { budget } => budget.saturating_sub(self.depth),
            CircuitBudget::Chain {
                primes_needed,
                chain_len,
                ..
            } => chain_len.saturating_sub(primes_needed),
        }
    }
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
    /// Per-model static circuit analysis (depth vs budget, modeled
    /// cost), registered at deploy time.
    pub circuits: BTreeMap<String, CircuitSummary>,
    /// Queries shed with an overload answer instead of evaluated.
    pub queries_shed: u64,
    /// Queries whose client deadline expired in the queue.
    pub queries_expired: u64,
    /// Connections closed by the socket timeouts.
    pub conn_timeouts: u64,
    /// Live per-model queue gauges (depth/capacity/shed). The stats
    /// module cannot see the queues, so this is empty in a raw
    /// [`ServerStats::snapshot`]; `ServerHandle::snapshot` and the
    /// `MetricsRequest` arm fill it from the live queues.
    pub queue_depths: Vec<ModelQueueDepth>,
}

/// One model's live queue gauge inside a [`StatsSnapshot`]: how deep
/// its bounded job queue currently is and how many queries it has shed
/// so far.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelQueueDepth {
    /// Registry name of the model.
    pub model: String,
    /// Jobs waiting in the model's bounded queue at snapshot time.
    pub depth: u32,
    /// Configured bound of that queue.
    pub capacity: u32,
    /// Queries this model has refused with `Frame::Busy`.
    pub shed: u64,
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

    /// Renders the snapshot as a human-readable operator exposition:
    /// service totals, the queue-wait vs evaluation time split, stage
    /// op totals, and one line per model with latency percentiles.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "copse server stats");
        let _ = writeln!(out, "  pool threads      {}", self.pool_threads);
        let _ = writeln!(out, "  queries served    {}", self.queries_served);
        let _ = writeln!(
            out,
            "  evaluation passes {} (mean batch {:.2}, max batch {})",
            self.batches,
            self.mean_batch(),
            self.max_batch
        );
        let _ = writeln!(
            out,
            "  packed lanes      {} queries shared a ciphertext (max {} lanes)",
            self.packed_queries, self.max_packed,
        );
        let _ = writeln!(
            out,
            "  overload          shed {} / expired {} / conn timeouts {}",
            self.queries_shed, self.queries_expired, self.conn_timeouts,
        );
        let wait = duration_nanos(self.queue_wait_total);
        let eval = duration_nanos(self.eval_total);
        let wait_pct = if wait + eval > 0 {
            100.0 * wait as f64 / (wait + eval) as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  time split        queue-wait {} / eval {} ({wait_pct:.1}% waiting)",
            format_nanos(wait),
            format_nanos(eval),
        );
        let _ = writeln!(
            out,
            "  stage ops         comparison={} reshuffle={} levels={} accumulate={}",
            self.comparison_ops.total_homomorphic(),
            self.reshuffle_ops.total_homomorphic(),
            self.level_ops.total_homomorphic(),
            self.accumulate_ops.total_homomorphic(),
        );
        // Every section below renders on every poll, empty or not —
        // operators diff consecutive expositions, and a field that
        // appears only once traffic arrives reads as a schema change
        // mid-watch. The overload tail rides on each latency line for
        // the same reason: shed/expired are per-model facts, and a
        // model that never shed still says so explicitly.
        let _ = writeln!(out, "  per-model end-to-end latency:");
        if self.per_model.is_empty() {
            let _ = writeln!(out, "    (none)");
        } else {
            let width = self.per_model.keys().map(|n| n.len()).max().unwrap_or(0);
            for (name, m) in &self.per_model {
                let _ = writeln!(
                    out,
                    "    {name:width$}  {}  shed {} / expired {}",
                    m.latency, m.shed, m.expired,
                );
            }
        }
        let _ = writeln!(out, "  per-model queue depth (live):");
        if self.queue_depths.is_empty() {
            let _ = writeln!(out, "    (none)");
        } else {
            let width = self
                .queue_depths
                .iter()
                .map(|q| q.model.len())
                .max()
                .unwrap_or(0);
            for q in &self.queue_depths {
                let _ = writeln!(
                    out,
                    "    {:width$}  depth {}/{}  shed {}",
                    q.model, q.depth, q.capacity, q.shed,
                );
            }
        }
        let _ = writeln!(out, "  per-model circuit analysis (static):");
        if self.circuits.is_empty() {
            let _ = writeln!(out, "    (none)");
        } else {
            let width = self.circuits.keys().map(|n| n.len()).max().unwrap_or(0);
            for (name, c) in &self.circuits {
                let headroom = c.headroom();
                let budget = match c.budget {
                    CircuitBudget::Depth { budget } => {
                        format!("depth {}/{budget} (headroom {headroom})", c.depth)
                    }
                    CircuitBudget::Chain {
                        primes_needed,
                        entry,
                        chain_len,
                    } => format!(
                        "depth {}  primes {primes_needed}/{chain_len} (headroom {headroom})  entry {entry}",
                        c.depth
                    ),
                };
                let _ = writeln!(
                    out,
                    "    {name:width$}  {budget}  ops/query {}  modeled {:.1} ms",
                    c.ops_per_query, c.modeled_ms,
                );
            }
        }
        out
    }
}

/// Saturating `Duration` → nanoseconds for the time-split line.
fn duration_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
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
            queries_served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            queries_shed: AtomicU64::new(0),
            queries_expired: AtomicU64::new(0),
            conn_timeouts: AtomicU64::new(0),
            inner: Mutex::new(StatsInner::default()),
        }
    }

    /// Records one query shed with an overload answer (full queue or
    /// drain shutdown) for `model`.
    pub fn record_shed(&self, model: &str) {
        self.queries_shed.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.per_model.entry(model.to_string()).or_default().shed += 1;
    }

    /// Records one query whose client deadline expired in `model`'s
    /// queue (answered with a typed error, never evaluated).
    pub fn record_expired(&self, model: &str) {
        self.queries_expired.fetch_add(1, Ordering::Relaxed);
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
        self.queries_served
            .fetch_add(batch_size as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        let queue_wait_sum: Duration = queue_waits.iter().sum();
        // A panic under the lock (nothing here should, but the server
        // must not compound one) poisons only the mutex, not the data:
        // every update below is a saturating counter bump, so the
        // recovered value is always coherent. Same for `snapshot`.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.max_batch = inner.max_batch.max(batch_size);
        *inner.batch_size_counts.entry(batch_size).or_insert(0) += 1;
        // The packed dimension: each query's lane occupancy comes from
        // the trace (empty when the pass ran stage-major — every query
        // then had its own ciphertext, occupancy 1).
        for i in 0..batch_size {
            let occupancy = trace.packed_sizes.get(i).copied().unwrap_or(1);
            *inner.packed_size_counts.entry(occupancy).or_insert(0) += 1;
            if occupancy >= 2 {
                inner.packed_queries += 1;
            }
            inner.max_packed = inner.max_packed.max(occupancy);
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

    /// A consistent copy of the counters.
    ///
    /// "Consistent" per counter: the atomics are read after taking the
    /// mutex, so a snapshot never reports fewer queries than the
    /// batches it has seen recorded.
    pub fn snapshot(&self) -> StatsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        StatsSnapshot {
            pool_threads: self.pool_threads,
            queries_served: self.queries_served.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_batch: inner.max_batch,
            batch_size_counts: inner.batch_size_counts.clone(),
            packed_queries: inner.packed_queries,
            max_packed: inner.max_packed,
            packed_size_counts: inner.packed_size_counts.clone(),
            comparison_ops: inner.comparison_ops,
            reshuffle_ops: inner.reshuffle_ops,
            level_ops: inner.level_ops,
            accumulate_ops: inner.accumulate_ops,
            queue_wait_total: inner.queue_wait_total,
            eval_total: inner.eval_total,
            per_model: inner.per_model.clone(),
            circuits: inner.circuits.clone(),
            queries_shed: self.queries_shed.load(Ordering::Relaxed),
            queries_expired: self.queries_expired.load(Ordering::Relaxed),
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
        // `record_batch` must lose nothing, neither in the atomic fast
        // path nor in the mutexed histogram updates.
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
        let text = snap.render_text();
        assert!(
            text.contains("4 queries shared a ciphertext (max 2 lanes)"),
            "{text}"
        );
    }

    #[test]
    fn circuit_summary_shows_depth_headroom() {
        let stats = ServerStats::new();
        stats.set_circuit(
            "chess15",
            CircuitSummary {
                depth: 9,
                budget: CircuitBudget::Depth { budget: 14 },
                ops_per_query: 1234,
                modeled_ms: 87.5,
            },
        );
        stats.set_circuit(
            "depth4",
            CircuitSummary {
                depth: 8,
                budget: CircuitBudget::Chain {
                    primes_needed: 10,
                    entry: 11,
                    chain_len: 20,
                },
                ops_per_query: 174,
                modeled_ms: 39.0,
            },
        );
        let snap = stats.snapshot();
        assert_eq!(snap.circuits["chess15"].headroom(), 5);
        assert_eq!(snap.circuits["depth4"].headroom(), 10);
        let text = snap.render_text();
        assert!(text.contains("circuit analysis"), "{text}");
        assert!(text.contains("depth 9/14 (headroom 5)"), "{text}");
        assert!(text.contains("modeled 87.5 ms"), "{text}");
        assert!(
            text.contains("depth 8  primes 10/20 (headroom 10)  entry 11"),
            "{text}"
        );
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
        let text = snap.render_text();
        assert!(
            text.contains("shed 3 / expired 1 / conn timeouts 1"),
            "{text}"
        );
    }

    #[test]
    fn queue_gauges_render_when_filled() {
        let stats = ServerStats::new();
        let mut snap = stats.snapshot();
        snap.queue_depths = vec![ModelQueueDepth {
            model: "income5".into(),
            depth: 3,
            capacity: 64,
            shed: 7,
        }];
        let text = snap.render_text();
        assert!(text.contains("queue depth (live)"), "{text}");
        assert!(text.contains("depth 3/64  shed 7"), "{text}");
    }

    #[test]
    fn render_text_is_operator_readable() {
        let stats = ServerStats::with_threads(4);
        stats.record_batch("soccer5", &trace(7), &waits(2, 1), Duration::from_millis(5));
        stats.record_batch("income5", &trace(3), &waits(1, 2), Duration::from_millis(9));
        let text = stats.snapshot().render_text();
        assert!(text.contains("queries served    3"), "{text}");
        assert!(text.contains("mean batch 1.50"), "{text}");
        assert!(text.contains("queue-wait"), "{text}");
        assert!(text.contains("levels=10"), "{text}");
        assert!(text.contains("income5"), "{text}");
        assert!(text.contains("soccer5"), "{text}");
        assert!(text.contains("p99="), "{text}");
        // The overload tail is on every model line even at zero (the
        // newline keeps the service-wide overload line out of the
        // count — that one continues with "/ conn timeouts").
        assert_eq!(text.matches("shed 0 / expired 0\n").count(), 2, "{text}");
    }

    /// One section-header line per poll, traffic or not: an operator
    /// diffing consecutive expositions must never see a field appear
    /// or disappear — only its value change.
    #[test]
    fn render_text_schema_is_stable_across_polls() {
        let sections = [
            "pool threads",
            "queries served",
            "evaluation passes",
            "packed lanes",
            "overload",
            "time split",
            "stage ops",
            "per-model end-to-end latency:",
            "per-model queue depth (live):",
            "per-model circuit analysis (static):",
        ];
        let stats = ServerStats::new();
        let empty = stats.snapshot().render_text();
        for section in sections {
            assert_eq!(empty.matches(section).count(), 1, "{section}: {empty}");
        }
        assert_eq!(empty.matches("(none)").count(), 3, "{empty}");

        stats.record_batch("m", &trace(2), &waits(1, 1), Duration::from_millis(3));
        stats.record_shed("m");
        stats.record_expired("m");
        stats.set_circuit("m", CircuitSummary::default());
        let mut snap = stats.snapshot();
        snap.queue_depths = vec![ModelQueueDepth {
            model: "m".into(),
            depth: 0,
            capacity: 64,
            shed: 1,
        }];
        let busy = snap.render_text();
        for section in sections {
            assert_eq!(busy.matches(section).count(), 1, "{section}: {busy}");
        }
        assert!(!busy.contains("(none)"), "{busy}");
        assert!(busy.contains("shed 1 / expired 1"), "{busy}");
        // Same line structure either way: every non-header line of the
        // empty render has a populated counterpart.
        assert_eq!(empty.lines().count(), busy.lines().count(), "{empty}{busy}");
    }
}
