//! The inference server: model registry, batching scheduler, and the
//! thread-per-connection TCP front end.
//!
//! ## Architecture
//!
//! One **evaluator worker thread per deployed model** owns that
//! model's [`Sally`] and drains a **bounded** job queue
//! ([`crate::queue`]). Connection threads only do socket I/O and
//! ciphertext (de)serialisation; every `Query` frame becomes a job on
//! its model's queue, and the connection thread blocks on a per-job
//! reply slot. The worker is the batching scheduler: after the first
//! job arrives it keeps draining the queue for
//! [`ServerConfig::batch_window`] (up to [`ServerConfig::max_batch`]
//! jobs), then runs one [`Sally::classify_batch_traced`] pass over
//! everything it caught — so queries from concurrently connected
//! clients traverse the level-matrix and reshuffle artifacts once per
//! batch, not once per query.
//!
//! ## Overload and failure model
//!
//! The serving tier degrades instead of stalling (docs/ROBUSTNESS.md
//! is the full story):
//!
//! * a **full queue sheds**: the client gets a `Busy` frame with a
//!   structured [`ShedDetail`], never an unbounded wait;
//! * a **query deadline** ([`Frame::Query`]'s `deadline_ms`) is
//!   checked at dequeue — an expired job is answered with a typed
//!   error and *never evaluated*;
//! * **connection read/write timeouts** bound slow-loris sessions;
//! * models **hot deploy/undeploy** through
//!   [`ServerHandle::deploy`] / [`ServerHandle::undeploy`], routed
//!   through the same `copse_core::analyze` admission gate as `bind`, with
//!   an undeployed model's accepted jobs drained (evaluated) before
//!   its worker exits;
//! * [`ServerHandle::shutdown`] **drains**: queued-but-unstarted jobs
//!   are answered with a shed, in-flight batches finish — no accepted
//!   query ever goes unanswered;
//! * a [`FaultPlan`] can inject seeded socket and
//!   worker faults for chaos testing ([`ServerBuilder::faults`]).

use crate::faults::{FaultPlan, ServerFaults};
use crate::flight::{FlightRecord, FlightRecorder};
use crate::queue::{self, TrySendError};
use crate::stats::{ChainPrimes, CircuitSummary, ModelQueueDepth, ServerStats, StatsSnapshot};
use crate::transport::{read_frame, write_frame};
use bytes::Bytes;
use copse_core::analyze::{AdmissionIssue, BackendProfile, CircuitReport, EvalShape};
use copse_core::compiler::{CompileError, CompileOptions};
use copse_core::runtime::{
    DeployedModel, EncryptedQuery, EvalOptions, Maurice, ModelForm, QueryInfo, Sally,
};
use copse_core::wire::{
    Frame, RejectionCode, RejectionDetail, ServerTiming, ShedDetail, TimingCause, WireError,
    MAX_DEADLINE_MS, WIRE_VERSION,
};
use copse_fhe::{CostModel, FheBackend, NoiseBudget};
use copse_forest::model::Forest;
use copse_trace::Stopwatch;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Scheduler and service limits.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// How long a model worker keeps coalescing after the first query
    /// of a batch arrives.
    pub batch_window: Duration,
    /// Hard cap on queries per evaluation pass.
    pub max_batch: usize,
    /// Per-model job queue bound: the `queue_capacity + 1`-th
    /// concurrent query on one model is shed with a `Busy` frame
    /// instead of queued. Floored at 1.
    pub queue_capacity: usize,
    /// The `retry_after_ms` hint shed frames carry.
    pub retry_after_ms: u32,
    /// Per-connection socket read timeout (`None` = unbounded). A
    /// client that stalls mid-frame longer than this is disconnected
    /// — the slow-loris bound.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write timeout (`None` = unbounded): a
    /// client that stops reading cannot pin a connection thread.
    pub write_timeout: Option<Duration>,
    /// How many per-query [`FlightRecord`]s the always-on flight
    /// recorder retains (a ring: overload laps it, memory stays
    /// bounded). `0` disables recording — the serving bench uses that
    /// to measure the recorder's cost.
    pub flight_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            batch_window: Duration::from_millis(5),
            max_batch: 64,
            queue_capacity: 256,
            retry_after_ms: 50,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            flight_capacity: 1024,
        }
    }
}

/// Why a hot [`ServerHandle::deploy`] (or a `bind`-time registration)
/// did not deploy.
#[derive(Debug)]
pub enum DeployError {
    /// The static analyzer says the backend cannot evaluate this circuit:
    /// the structured diagnostic and the analyzer's message for it,
    /// both recorded so clients that hello the model get the same typed
    /// rejection.
    Rejected(RejectionDetail, String),
    /// A model with this name is already deployed.
    DuplicateName(String),
    /// The evaluator worker thread could not be spawned.
    Spawn(io::Error),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Rejected(detail, reason) => {
                write!(
                    f,
                    "model `{}` rejected by admission: {reason}",
                    detail.model
                )
            }
            DeployError::DuplicateName(name) => {
                write!(f, "model `{name}` is already deployed")
            }
            DeployError::Spawn(e) => write!(f, "could not spawn the evaluator worker: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

/// One queued inference job: deserialized query planes, the client's
/// deadline budget, the slot its outcome goes back in, and when its
/// frame was received (so the stats can split end-to-end latency into
/// queue wait vs evaluation, the worker can shed expired jobs, and
/// every [`ServerTiming`] offset shares one origin).
struct Job<B: FheBackend> {
    planes: Vec<B::Ciphertext>,
    /// Milliseconds the client gave this query, measured from frame
    /// receipt (`received`); 0 = no deadline. Relative on purpose:
    /// client and server clocks are never compared.
    deadline_ms: u32,
    /// Client-assigned trace id when the query asked to be traced; the
    /// worker lists it as a batch peer of the other traced queries in
    /// its pass.
    trace: Option<u64>,
    reply: queue::BoundedSender<JobOutcome<B>>,
    /// Started at frame receipt: the clock origin of every relative
    /// offset this query reports.
    received: Stopwatch,
    /// Receipt→enqueue offset in nanoseconds, stamped by the
    /// connection thread just before `try_send`.
    enqueue_nanos: u64,
}

/// What the evaluator worker answers a job with. Every variant
/// carries the per-query [`ServerTiming`] record (cause, offsets,
/// batch attribution) — the connection thread patches in the final
/// encode offset, feeds the flight recorder, and forwards the record
/// to clients that asked to be traced.
enum JobOutcome<B: FheBackend> {
    /// Evaluated: the result ciphertext plus its timing split and the
    /// lane occupancy of the packed ciphertext that carried the query
    /// (1 when it was evaluated in its own ciphertext).
    Done {
        ciphertext: B::Ciphertext,
        timing: ServerTiming,
        packed_size: u32,
    },
    /// Evaluation failed with a typed message.
    Failed {
        message: String,
        timing: ServerTiming,
    },
    /// The client deadline expired while the job was queued; it was
    /// never evaluated.
    Expired {
        /// How long the job actually waited, for the error text.
        waited_ms: u64,
        timing: ServerTiming,
    },
    /// Shed during shutdown drain: accepted but answerable only with
    /// "retry elsewhere/later".
    Shed {
        detail: ShedDetail,
        timing: ServerTiming,
    },
}

/// A deployed model as the connection threads see it. Sessions hold
/// an `Arc` of this, so a hot undeploy invalidates the *queue* (sends
/// fail `Closed`), never a pointer.
struct ModelEntry<B: FheBackend> {
    name: String,
    form: ModelForm,
    info: QueryInfo,
    jobs: queue::BoundedSender<Job<B>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// The mutable model registry: hot deploy/undeploy swaps entries here
/// under the write lock while connection threads resolve hellos under
/// read locks.
struct Registry<B: FheBackend> {
    models: HashMap<String, Arc<ModelEntry<B>>>,
    /// Models refused at deploy time, with the analyzer's diagnostic:
    /// a `ClientHello` for one of these gets the typed rejection and
    /// the analyzer's message instead of "unknown model".
    rejected: HashMap<String, (RejectionDetail, String)>,
}

impl<B: FheBackend> Default for Registry<B> {
    fn default() -> Self {
        Self {
            models: HashMap::new(),
            rejected: HashMap::new(),
        }
    }
}

/// Everything a connection thread needs, shared behind an `Arc`.
struct Shared<B: FheBackend> {
    backend: Arc<B>,
    registry: RwLock<Registry<B>>,
    stats: Arc<ServerStats>,
    next_session: AtomicU64,
    config: ServerConfig,
    eval: EvalOptions,
    profile: BackendProfile,
    /// Set by [`ServerHandle::shutdown`]: workers answer shed for
    /// queued jobs instead of evaluating them.
    draining: Arc<AtomicBool>,
    faults: Arc<ServerFaults>,
    /// The always-on ring of the last N per-query records.
    flight: Arc<FlightRecorder>,
}

impl<B: FheBackend> Drop for Shared<B> {
    fn drop(&mut self) {
        // A server dropped without an explicit shutdown must still
        // release its (detached) workers: closing every queue ends
        // each worker's recv loop.
        let registry = self
            .registry
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for entry in registry.models.values() {
            entry.jobs.close();
        }
    }
}

impl<B: FheBackend> Shared<B> {
    /// The counters plus the live queue gauges the stats module cannot
    /// see: one row per deployed model (sorted), depth and capacity
    /// from the queue itself.
    fn snapshot(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        let registry = self.registry.read().unwrap_or_else(PoisonError::into_inner);
        snap.queue_depths = registry
            .models
            .values()
            .map(|entry| ModelQueueDepth {
                model: entry.name.clone(),
                depth: entry.jobs.len().min(u32::MAX as usize) as u32,
                capacity: entry.jobs.capacity().min(u32::MAX as usize) as u32,
            })
            .collect();
        snap.queue_depths.sort_by(|a, b| a.model.cmp(&b.model));
        snap
    }
}

/// Builds an [`InferenceServer`]: registry first, then `bind`.
pub struct ServerBuilder<B: FheBackend + 'static> {
    backend: Arc<B>,
    config: ServerConfig,
    /// `Some` once [`ServerBuilder::threads`] was called. The only
    /// evaluator knob: workers otherwise run default [`EvalOptions`],
    /// which is the shape admission analyses ([`EvalShape::plan`]).
    threads: Option<usize>,
    faults: FaultPlan,
    pending: Vec<(String, Maurice, ModelForm)>,
}

impl<B: FheBackend + 'static> ServerBuilder<B> {
    /// Starts a builder over one backend (the query-key domain every
    /// registered model is deployed into).
    pub fn new(backend: Arc<B>) -> Self {
        Self {
            backend,
            config: ServerConfig::default(),
            threads: None,
            faults: FaultPlan::default(),
            pending: Vec::new(),
        }
    }

    /// Overrides the scheduler configuration.
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Injects the given seeded fault schedule into every accepted
    /// connection and the evaluation workers (chaos testing; the
    /// default plan injects nothing).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Parallel degree for evaluation: every model worker's stage
    /// loops *and* the backend's FHE kernels fork up to `threads` ways
    /// onto the process-wide shared `copse-pool` runtime. The pool is
    /// shared, so several model workers evaluating concurrently
    /// contend for the same host cores instead of oversubscribing
    /// them. Results are bitwise identical for every value; `1` (the
    /// default) evaluates sequentially.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Compiles and registers a forest under `name`, deployed in the
    /// given form.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the COPSE compiler.
    pub fn register(
        self,
        name: impl Into<String>,
        forest: &Forest,
        options: CompileOptions,
        form: ModelForm,
    ) -> Result<Self, CompileError> {
        let maurice = Maurice::compile(forest, options)?;
        Ok(self.register_compiled(name, maurice, form))
    }

    /// Registers an already-compiled model under `name`.
    pub fn register_compiled(
        mut self,
        name: impl Into<String>,
        maurice: Maurice,
        form: ModelForm,
    ) -> Self {
        self.pending.push((name.into(), maurice, form));
        self
    }

    /// Analyzes, deploys, and spawns the evaluator worker for every
    /// registered model, then binds the listening socket (`port 0` =
    /// ephemeral).
    ///
    /// Each model is first run through the static analyzer against this
    /// backend's [`BackendProfile`]; a model the backend cannot
    /// evaluate (circuit deeper than the modulus chain, operands wider
    /// than the slot count) is *not* deployed — clients that hello it
    /// receive a structured [`RejectionDetail`] carrying the analyzer's
    /// numbers.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from `TcpListener::bind` and thread
    /// spawn failures.
    ///
    /// # Panics
    ///
    /// Panics if no model was registered or two models share a name.
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<InferenceServer<B>> {
        assert!(
            !self.pending.is_empty(),
            "an inference server needs at least one registered model"
        );
        // Kernel-level parallelism is a backend property (per-prime
        // rows, key-switch digit rows); the stage-level degree rides
        // in `eval.parallelism`. Both draw from the shared pool, and
        // the stats always report the *effective* degree.
        let mut eval = EvalOptions::default();
        if let Some(threads) = self.threads {
            eval.parallelism = copse_core::parallel::Parallelism { threads };
            self.backend.set_kernel_threads(threads);
        }
        let effective = eval.parallelism.threads.max(1);
        let profile = BackendProfile::of(self.backend.as_ref());
        let shared = Arc::new(Shared {
            backend: self.backend,
            registry: RwLock::new(Registry::default()),
            stats: Arc::new(ServerStats::with_threads(effective)),
            next_session: AtomicU64::new(1),
            config: self.config,
            eval,
            profile,
            draining: Arc::new(AtomicBool::new(false)),
            faults: Arc::new(ServerFaults::new(self.faults)),
            flight: Arc::new(FlightRecorder::new(self.config.flight_capacity)),
        });
        for (name, maurice, form) in self.pending {
            match deploy_model(&shared, name, maurice, form) {
                Ok(()) | Err(DeployError::Rejected(..)) => {}
                Err(DeployError::DuplicateName(name)) => {
                    panic!("model `{name}` registered twice")
                }
                Err(DeployError::Spawn(e)) => return Err(e),
            }
        }
        let listener = TcpListener::bind(addr)?;
        Ok(InferenceServer { shared, listener })
    }
}

/// Deploys one compiled model into a live registry: admission gate,
/// circuit summary for the metrics exposition, `maurice.deploy` (which warms
/// the `EncodedMatrix` precompute caches so the first query pays no
/// transform cost), worker spawn, registry insert.
fn deploy_model<B: FheBackend + 'static>(
    shared: &Arc<Shared<B>>,
    name: String,
    maurice: Maurice,
    form: ModelForm,
) -> Result<(), DeployError> {
    {
        let registry = shared
            .registry
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        if registry.models.contains_key(&name) {
            return Err(DeployError::DuplicateName(name));
        }
    }
    // Deploy-time admission: the static analyzer knows the exact
    // circuit this model evaluates, so a model that would exhaust the
    // modulus chain mid-query or panic on a missing capability is
    // caught here — before a single ciphertext is touched — instead
    // of at first query.
    let report = CircuitReport::analyze(maurice.compiled(), &EvalShape::plan(&maurice, form));
    let issues = report.admit(&shared.profile);
    if let Some(issue) = issues.first() {
        let (detail, reason) = (rejection_detail(&name, issue), issue.to_string());
        let mut registry = shared
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        registry
            .rejected
            .insert(name, (detail.clone(), reason.clone()));
        return Err(DeployError::Rejected(detail, reason));
    }
    let (jobs_tx, jobs_rx) = queue::bounded(shared.config.queue_capacity);
    let (info_tx, info_rx) = queue::bounded(1);
    let deployed = maurice.deploy(shared.backend.as_ref(), form);
    let worker = spawn_worker(
        name.clone(),
        Arc::clone(&shared.backend),
        deployed,
        shared.eval,
        shared.config,
        jobs_rx,
        info_tx,
        Arc::clone(&shared.stats),
        Arc::clone(&shared.draining),
        Arc::clone(&shared.faults),
    )
    .map_err(DeployError::Spawn)?;
    // What clients get in the handshake comes from the Sally the
    // worker hosts: Maurice's reveal plus the level her circuits enter
    // the chain at.
    let Ok(info) = info_rx.recv() else {
        let _ = worker.join();
        return Err(DeployError::Spawn(io::Error::other(
            "evaluation worker exited before hosting the model",
        )));
    };
    let primes = match shared.profile.budget {
        NoiseBudget::Depth(_) => None,
        NoiseBudget::Chain(rule) => {
            let chain = report.chain(&rule);
            Some(ChainPrimes {
                needed: chain.primes_needed,
                entry: info.entry_primes.unwrap_or(chain.chain_len),
                chain: chain.chain_len,
            })
        }
    };
    shared.stats.set_circuit(
        &name,
        CircuitSummary {
            depth: report.depth,
            primes,
            ops_per_query: report.total_ops().total_homomorphic(),
            modeled_ms: report.modeled_ms(&CostModel::default()),
        },
    );
    let entry = Arc::new(ModelEntry {
        name: name.clone(),
        form,
        info,
        jobs: jobs_tx,
        worker: Mutex::new(Some(worker)),
    });
    let mut registry = shared
        .registry
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    if registry.models.contains_key(&name) {
        // Lost a deploy race for this name: tear down the worker we
        // just spawned (its queue never saw a job).
        entry.jobs.close();
        drop(registry);
        join_worker(&entry);
        return Err(DeployError::DuplicateName(name));
    }
    // A redeploy of a previously rejected name clears the stale
    // diagnostic — the new circuit just passed admission.
    registry.rejected.remove(&name);
    registry.models.insert(name, entry);
    Ok(())
}

/// Joins a model's worker thread (idempotent).
fn join_worker<B: FheBackend>(entry: &ModelEntry<B>) {
    let handle = entry
        .worker
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(handle) = handle {
        let _ = handle.join();
    }
}

/// Maps one analyzer verdict to its wire diagnostic.
fn rejection_detail(model: &str, issue: &AdmissionIssue) -> RejectionDetail {
    let (code, required, available) = match *issue {
        AdmissionIssue::DepthExceeded { required, budget } => (
            RejectionCode::DepthExceeded,
            u64::from(required),
            u64::from(budget),
        ),
        AdmissionIssue::ChainExceeded {
            required,
            available,
        } => (
            RejectionCode::ChainExceeded,
            u64::from(required),
            u64::from(available),
        ),
        AdmissionIssue::SlotCapacityExceeded {
            required,
            available,
        } => (
            RejectionCode::SlotCapacityExceeded,
            required as u64,
            available as u64,
        ),
    };
    RejectionDetail {
        model: model.to_string(),
        code,
        required,
        available,
    }
}

/// The message a worker answers a panicked evaluation with.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "evaluation panicked".into())
}

/// Source of small distinct evaluator-worker ids: the `worker` field
/// every [`ServerTiming`] and [`FlightRecord`] carries, so an
/// operator can see which worker thread served (or shed) a query.
static NEXT_WORKER: AtomicU32 = AtomicU32::new(0);

/// Saturating `Duration` → nanoseconds for timing offsets.
fn saturating_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A job plus the moment the worker popped it off the queue,
/// expressed (like every timing offset) relative to frame receipt.
struct Dequeued<B: FheBackend> {
    job: Job<B>,
    dequeue_nanos: u64,
}

/// Stamps a job's dequeue offset the moment it leaves the queue.
fn dequeued<B: FheBackend>(job: Job<B>) -> Dequeued<B> {
    let dequeue_nanos = saturating_nanos(job.received.elapsed());
    Dequeued { job, dequeue_nanos }
}

/// The timing record for a job as far as the worker knows it at
/// dequeue time; the evaluation path fills in the assembly/stage
/// fields and the connection thread stamps the encode offset.
fn dequeue_timing<B: FheBackend>(
    dq: &Dequeued<B>,
    cause: TimingCause,
    worker: u32,
) -> ServerTiming {
    ServerTiming {
        worker,
        cause,
        enqueue_nanos: dq.job.enqueue_nanos,
        dequeue_nanos: dq.dequeue_nanos,
        assembled_nanos: 0,
        stage_nanos: [0; 4],
        encode_nanos: 0,
        batch_size: 0,
        batch_peers: Vec::new(),
    }
}

/// A sender that closes its channel when dropped.
struct CloseOnDrop<T>(queue::BoundedSender<T>);

impl<T> Drop for CloseOnDrop<T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Spawns the evaluator worker that owns one deployed model. It hosts
/// the model, answers `info` with the hosted Sally's
/// [`client_query_info`](Sally::client_query_info), then loops: it
/// blocks for the first job, coalesces more jobs for the batch
/// window, sheds what expired in the queue, then answers the whole
/// batch from one evaluation pass. The loop ends when the model's
/// queue is closed *and drained* (hot undeploy evaluates the backlog;
/// shutdown answers it with sheds via the draining flag).
#[allow(clippy::too_many_arguments)]
fn spawn_worker<B: FheBackend + 'static>(
    name: String,
    backend: Arc<B>,
    deployed: DeployedModel<B>,
    eval: EvalOptions,
    config: ServerConfig,
    jobs: queue::BoundedReceiver<Job<B>>,
    info: queue::BoundedSender<QueryInfo>,
    stats: Arc<ServerStats>,
    draining: Arc<AtomicBool>,
    faults: Arc<ServerFaults>,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("copse-model-{name}"))
        .spawn(move || {
            let worker_id = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
            // Closed on every way out, a panic while hosting included,
            // so the deploying thread never waits on a dead worker.
            let reveal = CloseOnDrop(info);
            let sally = Sally::with_options(backend.as_ref(), deployed, eval);
            let _ = reveal.0.try_send(sally.client_query_info());
            drop(reveal);
            // Tile the packed model eagerly (a no-op when the backend
            // cannot pack) so the first coalesced batch pays no
            // deploy-like tiling cost inside its evaluation pass.
            let _ = sally.warm_packed();
            while let Ok(first) = jobs.recv() {
                let mut batch = vec![dequeued(first)];
                let window = Stopwatch::start();
                while batch.len() < config.max_batch {
                    let left = window.remaining(config.batch_window);
                    match jobs.recv_timeout(left) {
                        Ok(job) => batch.push(dequeued(job)),
                        Err(_) => break,
                    }
                }
                if draining.load(Ordering::SeqCst) {
                    // Shutdown drain: every dequeued job gets an
                    // explicit client-visible shed — accepted work is
                    // answered, never dropped.
                    for dq in batch {
                        stats.record_shed(&name);
                        let timing = dequeue_timing(&dq, TimingCause::Shed, worker_id);
                        let _ = dq.job.reply.try_send(JobOutcome::Shed {
                            detail: ShedDetail {
                                model: name.clone(),
                                queue_depth: 0,
                                retry_after_ms: config.retry_after_ms,
                            },
                            timing,
                        });
                    }
                    continue;
                }
                // Deadline shed at dequeue: a job whose client budget
                // expired while it sat in the queue is answered with a
                // typed error and never evaluated — evaluating it
                // would burn worker time on an answer nobody awaits.
                let mut live = Vec::with_capacity(batch.len());
                for dq in batch {
                    let waited = dq.job.received.elapsed();
                    if dq.job.deadline_ms > 0
                        && waited >= Duration::from_millis(u64::from(dq.job.deadline_ms))
                    {
                        stats.record_expired(&name);
                        let waited_ms = waited.as_millis().min(u128::from(u64::MAX)) as u64;
                        let timing = dequeue_timing(&dq, TimingCause::Expired, worker_id);
                        let _ = dq
                            .job
                            .reply
                            .try_send(JobOutcome::Expired { waited_ms, timing });
                    } else {
                        live.push(dq);
                    }
                }
                if live.is_empty() {
                    continue;
                }
                // Queue wait ends the moment the pass starts: from
                // here on a query's time is evaluation time.
                let started = Stopwatch::start();
                let waits: Vec<Duration> = live
                    .iter()
                    .map(|dq| started.since(&dq.job.received))
                    .collect();
                let batch_size = live.len() as u32;
                // Batch attribution: each *traced* query learns which
                // other traced queries shared its pass (untraced peers
                // stay invisible — nothing about them leaves the
                // server). Untraced queries skip the allocation.
                let traced_peers: Vec<u64> = live.iter().filter_map(|dq| dq.job.trace).collect();
                let mut queries = Vec::with_capacity(live.len());
                let mut replies = Vec::with_capacity(live.len());
                for dq in live {
                    let mut timing = dequeue_timing(&dq, TimingCause::Served, worker_id);
                    timing.assembled_nanos = saturating_nanos(started.since(&dq.job.received));
                    timing.batch_size = batch_size;
                    if let Some(own) = dq.job.trace {
                        timing.batch_peers =
                            traced_peers.iter().copied().filter(|&p| p != own).collect();
                    }
                    queries.push(EncryptedQuery::from_planes(dq.job.planes));
                    replies.push((dq.job.reply, timing));
                }
                // Injected slow-model stall: holds this worker (and
                // therefore its queue) busy for a known window.
                let eval_delay = faults.plan().eval_delay;
                if !eval_delay.is_zero() {
                    std::thread::sleep(eval_delay);
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if faults.take_worker_panic() {
                        panic!("injected fault: worker panic");
                    }
                    sally.classify_batch_traced(&queries)
                }));
                match outcome {
                    Ok((results, trace)) => {
                        stats.record_batch(&name, &trace, &waits, started.elapsed());
                        let stage_nanos = trace.stage_nanos();
                        for (i, ((reply, mut timing), result)) in
                            replies.into_iter().zip(results).enumerate()
                        {
                            timing.stage_nanos = stage_nanos;
                            let _ = reply.try_send(JobOutcome::Done {
                                ciphertext: result.into_ciphertext(),
                                timing,
                                packed_size: trace.packed_sizes.get(i).copied().unwrap_or(1),
                            });
                        }
                    }
                    // A poisoned query (e.g. a hand-crafted ciphertext
                    // with no evaluation headroom) must not fail the
                    // innocent queries coalesced with it: fall back to
                    // evaluating each query alone so only the poisoned
                    // one gets an error.
                    Err(_) => {
                        for (((reply, mut timing), query), wait) in
                            replies.into_iter().zip(queries).zip(waits)
                        {
                            let solo_started = Stopwatch::start();
                            let one =
                                catch_unwind(AssertUnwindSafe(|| sally.classify_traced(&query)));
                            // The failed joint pass demoted this query
                            // to a batch of one.
                            timing.batch_size = 1;
                            timing.batch_peers.clear();
                            match one {
                                Ok((result, trace)) => {
                                    // The failed joint pass counts as
                                    // queue time for the survivors:
                                    // they were still waiting for
                                    // their own answer.
                                    let wait = wait + solo_started.since(&started);
                                    stats.record_batch(
                                        &name,
                                        &trace,
                                        &[wait],
                                        solo_started.elapsed(),
                                    );
                                    timing.stage_nanos = trace.stage_nanos();
                                    let _ = reply.try_send(JobOutcome::Done {
                                        ciphertext: result.into_ciphertext(),
                                        timing,
                                        packed_size: 1,
                                    });
                                }
                                Err(panic) => {
                                    timing.cause = TimingCause::Failed;
                                    let _ = reply.try_send(JobOutcome::Failed {
                                        message: panic_message(panic.as_ref()),
                                        timing,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        })
}

/// A bound, not-yet-serving inference server.
pub struct InferenceServer<B: FheBackend + 'static> {
    shared: Arc<Shared<B>>,
    listener: TcpListener,
}

impl<B: FheBackend + 'static> InferenceServer<B> {
    /// The bound address (read the ephemeral port here).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared handle to the service counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Models refused at deploy time, with the analyzer diagnostic
    /// each client will be shown (empty when everything deployed).
    pub fn rejections(&self) -> Vec<RejectionDetail> {
        let registry = self
            .shared
            .registry
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let mut all: Vec<_> = registry
            .rejected
            .values()
            .map(|(detail, _)| detail.clone())
            .collect();
        all.sort_by(|a, b| a.model.cmp(&b.model));
        all
    }

    /// Moves the server onto a background accept loop and returns a
    /// handle for shutdown and hot deploy/undeploy. Each accepted
    /// connection gets its own thread speaking the frame protocol.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from reading the bound address.
    pub fn spawn(self) -> io::Result<ServerHandle<B>> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = self.shared;
        let listener = self.listener;
        // Non-blocking accept so the loop observes the stop flag on
        // its own: shutdown must not depend on being able to open a
        // wake-up connection to the bound address (which fails for
        // wildcard binds on some platforms).
        listener.set_nonblocking(true)?;
        let accept_stop = Arc::clone(&stop);
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("copse-accept".into())
            .spawn(move || {
                // accept() returns transient errors under load
                // (ECONNABORTED from a peer resetting mid-handshake,
                // momentary fd exhaustion); those must not kill the
                // service. Only a sustained error streak — a genuinely
                // dead listener — ends the loop.
                let mut consecutive_errors = 0u32;
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            consecutive_errors = 0;
                            // The listener is non-blocking for the
                            // stop-flag poll; connection threads want
                            // plain blocking reads (bounded by the
                            // configured socket timeouts). No Nagle
                            // delay: frames are flushed whole (see the
                            // client's connect).
                            if stream.set_nonblocking(false).is_err()
                                || stream.set_nodelay(true).is_err()
                            {
                                continue;
                            }
                            spawn_connection(&accept_shared, stream);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            // Nothing pending; poll the stop flag.
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => {
                            consecutive_errors += 1;
                            if consecutive_errors > 64 {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            })?;
        Ok(ServerHandle {
            addr,
            stop,
            accept: Some(accept),
            shared,
        })
    }
}

/// Configures one accepted stream (timeouts, fault wrapping) and
/// hands it a detached connection thread. A spawn failure (thread
/// exhaustion) drops the stream — that client sees a hangup, the
/// service keeps accepting.
fn spawn_connection<B: FheBackend + 'static>(shared: &Arc<Shared<B>>, stream: TcpStream) {
    // Socket timeouts bound slow-loris sessions: a peer that stalls
    // mid-frame (or stops reading) is disconnected, and the timeout
    // is counted in the metrics exposition.
    if stream.set_read_timeout(shared.config.read_timeout).is_err()
        || stream
            .set_write_timeout(shared.config.write_timeout)
            .is_err()
    {
        return;
    }
    let shared = Arc::clone(shared);
    // Detached: joining would make shutdown wait on idle clients, and
    // keeping every handle would grow without bound on a long-running
    // server. A connection thread's lifetime is bounded by its client
    // plus the socket timeouts.
    let _ = std::thread::Builder::new()
        .name("copse-conn".into())
        .spawn(move || {
            let served = if shared.faults.plan().wraps_streams() {
                match shared.faults.wrap(&stream) {
                    Ok((r, w)) => serve_connection(&shared, r, w),
                    Err(e) => Err(e),
                }
            } else {
                match stream.try_clone() {
                    Ok(clone) => serve_connection(&shared, clone, stream),
                    Err(e) => Err(e),
                }
            };
            if let Err(e) = served {
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) {
                    shared.stats.record_conn_timeout();
                }
            }
        });
}

/// Clamps client-controlled text (a 64 KiB model name, a panic
/// message) so it always fits a wire string field — it must never be
/// able to trip the encoder's length assert and panic the connection
/// thread.
fn clamp_error_message(message: String) -> String {
    const MAX_ERROR_BYTES: usize = 1024;
    if message.len() <= MAX_ERROR_BYTES {
        message
    } else {
        let mut end = MAX_ERROR_BYTES;
        while !message.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &message[..end])
    }
}

/// Builds a plain (untimed) `Error` frame with a clamped message.
fn error_frame(message: String) -> Frame {
    Frame::Error {
        message: clamp_error_message(message),
        detail: None,
        timing: None,
    }
}

/// Serves one client connection until EOF, `Bye`, a socket timeout,
/// an undecodable frame, or an I/O error.
///
/// A frame with a version byte this server does not speak is the one
/// decode failure that gets an answer before the close: the peer is a
/// protocol implementation of another vintage, not line noise, and an
/// `Error` frame tells it why the session ended. Every other decode
/// failure closes without a reply.
fn serve_connection<B: FheBackend, R: Read, W: Write>(
    shared: &Shared<B>,
    reader: R,
    writer: W,
) -> io::Result<()> {
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(writer);
    let mut active_model: Option<Arc<ModelEntry<B>>> = None;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => {
                let wire_error = e.get_ref().and_then(|inner| inner.downcast_ref());
                if let Some(WireError::BadVersion(n)) = wire_error {
                    write_frame(
                        &mut writer,
                        &error_frame(format!(
                            "unsupported wire version {n}; this server speaks {WIRE_VERSION}"
                        )),
                    )?;
                }
                return Err(e);
            }
        };
        match frame {
            Frame::ClientHello { model } => {
                let resolved = {
                    let registry = shared
                        .registry
                        .read()
                        .unwrap_or_else(PoisonError::into_inner);
                    match registry.models.get(&model) {
                        Some(entry) => Ok(Arc::clone(entry)),
                        None => Err(registry.rejected.get(&model).cloned()),
                    }
                };
                match resolved {
                    Ok(entry) => {
                        let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
                        write_frame(
                            &mut writer,
                            &Frame::ServerHello {
                                session,
                                encrypted_model: entry.form == ModelForm::Encrypted,
                                info: entry.info.clone(),
                            },
                        )?;
                        active_model = Some(entry);
                    }
                    Err(rejection) => {
                        // A failed hello must not leave the previous
                        // session's model active: a client that
                        // ignores the error would silently get answers
                        // from the wrong model.
                        active_model = None;
                        let response = match rejection {
                            // The model exists but failed deploy-time
                            // admission: answer with the analyzer's
                            // typed diagnostic.
                            Some((detail, reason)) => Frame::Error {
                                message: format!(
                                    "model `{model}` was rejected at deploy: {reason}"
                                ),
                                detail: Some(detail),
                                timing: None,
                            },
                            None => error_frame(format!("unknown model `{model}`")),
                        };
                        write_frame(&mut writer, &response)?;
                    }
                }
            }
            Frame::ListModels => {
                let mut models: Vec<String> = {
                    let registry = shared
                        .registry
                        .read()
                        .unwrap_or_else(PoisonError::into_inner);
                    registry.models.keys().cloned().collect()
                };
                models.sort();
                write_frame(&mut writer, &Frame::ModelList { models })?;
            }
            Frame::MetricsRequest => {
                let text = crate::metrics::render_exposition(&shared.snapshot(), &shared.flight);
                write_frame(&mut writer, &Frame::MetricsReport { text })?;
            }
            Frame::Query {
                id,
                deadline_ms,
                trace,
                planes,
            } => {
                // The clock origin of every relative offset this query
                // reports, fixed as close to frame receipt as the
                // connection thread can manage.
                let received = Stopwatch::start();
                let response = handle_query(
                    shared,
                    active_model.as_ref(),
                    id,
                    deadline_ms,
                    trace,
                    &planes,
                    received,
                );
                write_frame(&mut writer, &response)?;
            }
            Frame::Bye => {
                write_frame(&mut writer, &Frame::Bye)?;
                return Ok(());
            }
            other => {
                write_frame(
                    &mut writer,
                    &error_frame(format!(
                        "unexpected frame tag {:#04x} from a client",
                        other.tag()
                    )),
                )?;
            }
        }
    }
}

/// How one query ended, before the timing record is stamped onto the
/// outgoing frame — the single funnel [`handle_query`] answers
/// through, so the flight recorder sees every outcome class.
enum Answer {
    Served { ciphertext: Bytes },
    Error { message: String },
    Shed { detail: ShedDetail },
}

/// A timing record for a query that never reached a worker (rejected
/// by validation, shed at enqueue, or orphaned by a dropped worker).
fn local_timing(cause: TimingCause, enqueue_nanos: u64) -> ServerTiming {
    ServerTiming {
        worker: u32::MAX,
        cause,
        enqueue_nanos,
        dequeue_nanos: 0,
        assembled_nanos: 0,
        stage_nanos: [0; 4],
        encode_nanos: 0,
        batch_size: 0,
        batch_peers: Vec::new(),
    }
}

/// Validates, enqueues, and awaits one query; never panics the
/// connection — every failure becomes an `Error` (or `Busy`) frame.
/// Every outcome (served, shed, expired, failed) lands in the flight
/// recorder, and clients that sent a trace id get the per-query
/// [`ServerTiming`] record on whatever frame answers them.
fn handle_query<B: FheBackend>(
    shared: &Shared<B>,
    active_model: Option<&Arc<ModelEntry<B>>>,
    id: u64,
    deadline_ms: u32,
    trace: Option<u64>,
    planes: &[Bytes],
    received: Stopwatch,
) -> Frame {
    // Every exit funnels through here: stamp the final encode offset,
    // record the query's flight entry, and attach the timing record
    // only for clients that asked to be traced.
    let finish =
        |model: &str, mut timing: ServerTiming, packed_size: u32, answer: Answer| -> Frame {
            timing.encode_nanos = saturating_nanos(received.elapsed());
            shared.flight.record(FlightRecord {
                seq: 0,
                trace_id: trace,
                query_id: id,
                model: model.to_string(),
                cause: timing.cause,
                queue_nanos: if timing.assembled_nanos > 0 {
                    timing.assembled_nanos
                } else {
                    timing.dequeue_nanos
                },
                eval_nanos: timing.stage_nanos.iter().sum(),
                total_nanos: timing.encode_nanos,
                batch_size: timing.batch_size,
                packed_size,
                worker: timing.worker,
                faults_seen: shared.faults.injected(),
            });
            let batch_size = timing.batch_size;
            let timing = trace.map(|_| timing);
            match answer {
                Answer::Served { ciphertext } => Frame::Result {
                    id,
                    batch_size,
                    ciphertext,
                    timing,
                },
                Answer::Error { message } => Frame::Error {
                    message: clamp_error_message(message),
                    detail: None,
                    timing,
                },
                Answer::Shed { detail } => Frame::Busy { id, detail, timing },
            }
        };
    let fail = |model: &str, message: String| -> Frame {
        finish(
            model,
            local_timing(TimingCause::Failed, 0),
            0,
            Answer::Error { message },
        )
    };
    let Some(entry) = active_model else {
        return fail("", "no session: send ClientHello first".into());
    };
    if planes.len() != entry.info.precision as usize {
        return fail(
            &entry.name,
            format!(
                "query has {} planes, model `{}` needs {}",
                planes.len(),
                entry.name,
                entry.info.precision
            ),
        );
    }
    let expected_width = entry.info.feature_count * entry.info.max_multiplicity;
    // The chain primes a plane carries: on a modulus chain the backend
    // reads a ciphertext's depth as `chain_len - primes`.
    let chain_len = match shared.profile.budget {
        NoiseBudget::Chain(rule) => Some(rule.chain_len() as u32),
        NoiseBudget::Depth(_) => None,
    };
    let mut decoded = Vec::with_capacity(planes.len());
    for (i, plane) in planes.iter().enumerate() {
        match shared.backend.deserialize_ciphertext(plane) {
            Ok(ct) => {
                let width = shared.backend.width(&ct);
                if width != expected_width {
                    return fail(
                        &entry.name,
                        format!("plane {i} is {width} slots wide, expected {expected_width}"),
                    );
                }
                // A plane below the advertised entry level would run
                // out of chain mid-circuit and decrypt to garbage.
                if let (Some(chain_len), Some(entry_primes)) = (chain_len, entry.info.entry_primes)
                {
                    let primes = chain_len.saturating_sub(shared.backend.depth(&ct));
                    if primes < entry_primes {
                        return fail(
                            &entry.name,
                            format!(
                                "plane {i} carries {primes} chain primes, model `{}` enters at {entry_primes}",
                                entry.name
                            ),
                        );
                    }
                }
                decoded.push(ct);
            }
            Err(e) => return fail(&entry.name, format!("plane {i}: {e}")),
        }
    }
    let (reply_tx, reply_rx) = queue::bounded(1);
    let enqueue_nanos = saturating_nanos(received.elapsed());
    let job = Job {
        planes: decoded,
        deadline_ms: deadline_ms.min(MAX_DEADLINE_MS),
        trace,
        reply: reply_tx,
        received,
        enqueue_nanos,
    };
    match entry.jobs.try_send(job) {
        Ok(()) => {}
        // The load-shed decision point: a full queue answers *now*
        // with the overload facts instead of queueing unbounded work.
        Err(TrySendError::Full(_)) => {
            shared.stats.record_shed(&entry.name);
            return finish(
                &entry.name,
                local_timing(TimingCause::Shed, enqueue_nanos),
                0,
                Answer::Shed {
                    detail: ShedDetail {
                        model: entry.name.clone(),
                        queue_depth: entry.jobs.len().min(u32::MAX as usize) as u32,
                        retry_after_ms: shared.config.retry_after_ms,
                    },
                },
            );
        }
        Err(TrySendError::Closed(_)) => {
            if shared.draining.load(Ordering::SeqCst) {
                shared.stats.record_shed(&entry.name);
                return finish(
                    &entry.name,
                    local_timing(TimingCause::Shed, enqueue_nanos),
                    0,
                    Answer::Shed {
                        detail: ShedDetail {
                            model: entry.name.clone(),
                            queue_depth: 0,
                            retry_after_ms: shared.config.retry_after_ms,
                        },
                    },
                );
            }
            return fail(
                &entry.name,
                format!("model `{}` was undeployed", entry.name),
            );
        }
    }
    match reply_rx.recv() {
        Ok(JobOutcome::Done {
            ciphertext,
            timing,
            packed_size,
        }) => finish(
            &entry.name,
            timing,
            packed_size,
            // The client only decrypts the result, so ship it at the
            // size decryption needs, not at the level evaluation ended.
            Answer::Served {
                ciphertext: Bytes::from(
                    shared
                        .backend
                        .serialize_ciphertext(&shared.backend.compact_for_decrypt(&ciphertext)),
                ),
            },
        ),
        Ok(JobOutcome::Failed { message, timing }) => {
            finish(&entry.name, timing, 0, Answer::Error { message })
        }
        Ok(JobOutcome::Expired { waited_ms, timing }) => finish(
            &entry.name,
            timing,
            0,
            Answer::Error {
                message: format!(
                    "deadline of {deadline_ms} ms expired after {waited_ms} ms in queue; \
                     the query was not evaluated"
                ),
            },
        ),
        Ok(JobOutcome::Shed { detail, timing }) => {
            finish(&entry.name, timing, 0, Answer::Shed { detail })
        }
        Err(_) => fail(&entry.name, "evaluation worker dropped the job".into()),
    }
}

/// Handle to a serving inference server: shutdown, stats, and hot
/// model deploy/undeploy.
pub struct ServerHandle<B: FheBackend + 'static> {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shared: Arc<Shared<B>>,
}

impl<B: FheBackend + 'static> ServerHandle<B> {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared handle to the service counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.shared.stats)
    }

    /// A snapshot of the service counters with the live per-model
    /// queue gauges filled in — what the metrics exposition
    /// ([`render_exposition`](crate::metrics::render_exposition)) is
    /// rendered from.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Shared handle to the always-on flight recorder (dump it any
    /// time with [`FlightRecorder::dump`]; [`ServerHandle::shutdown`]
    /// returns the final dump).
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.flight)
    }

    /// Names of the currently deployed models (sorted).
    pub fn models(&self) -> Vec<String> {
        let registry = self
            .shared
            .registry
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let mut names: Vec<String> = registry.models.keys().cloned().collect();
        names.sort();
        names
    }

    /// Hot-deploys a compiled model onto the live server, through the
    /// same static-analysis admission gate as `bind`-time
    /// registration and with the same `EncodedMatrix` precompute
    /// warming — the first query pays no transform cost. Existing
    /// sessions are untouched; new hellos see the model immediately.
    ///
    /// # Errors
    ///
    /// [`DeployError::Rejected`] when admission refuses the circuit
    /// (the diagnostic is also recorded for clients that hello it),
    /// [`DeployError::DuplicateName`] when the name is already
    /// serving, [`DeployError::Spawn`] on thread exhaustion.
    pub fn deploy(
        &self,
        name: impl Into<String>,
        maurice: Maurice,
        form: ModelForm,
    ) -> Result<(), DeployError> {
        deploy_model(&self.shared, name.into(), maurice, form)
    }

    /// Compiles a forest and hot-deploys it (convenience wrapper over
    /// [`ServerHandle::deploy`]).
    ///
    /// # Errors
    ///
    /// The outer `Err` is a [`CompileError`] (the forest never reached
    /// admission); the inner result is [`ServerHandle::deploy`]'s.
    pub fn deploy_forest(
        &self,
        name: impl Into<String>,
        forest: &Forest,
        options: CompileOptions,
        form: ModelForm,
    ) -> Result<Result<(), DeployError>, CompileError> {
        let maurice = Maurice::compile(forest, options)?;
        Ok(self.deploy(name, maurice, form))
    }

    /// Hot-undeploys a model: removes it from the registry (new
    /// hellos get "unknown model"), closes its queue, **drains** —
    /// every already-accepted job is still evaluated and answered —
    /// then joins the worker. Sessions still helloed to it get a
    /// typed "undeployed" error on their next query.
    ///
    /// Returns `false` when no such model was deployed (a recorded
    /// rejection under that name is cleared either way).
    pub fn undeploy(&self, name: &str) -> bool {
        let entry = {
            let mut registry = self
                .shared
                .registry
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            registry.rejected.remove(name);
            registry.models.remove(name)
        };
        let Some(entry) = entry else {
            return false;
        };
        // Close-then-join is the drain: the queue refuses new work
        // but the worker still sees everything accepted before the
        // close, evaluates it, and only then exits.
        entry.jobs.close();
        join_worker(&entry);
        true
    }

    /// Stops accepting connections, **drains** the service, and joins
    /// the accept loop and every worker. Draining means: in-flight
    /// evaluation passes finish and answer normally; jobs still
    /// queued are answered with an explicit shed (`Busy`/`Error`) —
    /// no accepted query is silently dropped. Open connections keep
    /// their (detached) threads until their clients hang up or their
    /// socket timeouts fire.
    ///
    /// Returns the flight recorder's final dump (oldest record first)
    /// — the last moments of the service, preserved for post-mortems
    /// instead of dying with the process.
    pub fn shutdown(mut self) -> Vec<FlightRecord> {
        self.stop.store(true, Ordering::SeqCst);
        // From here on, dequeued jobs are shed rather than evaluated
        // (the batch already being evaluated still completes).
        self.shared.draining.store(true, Ordering::SeqCst);
        let entries: Vec<Arc<ModelEntry<B>>> = {
            let registry = self
                .shared
                .registry
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            registry.models.values().map(Arc::clone).collect()
        };
        // Intake stops first. The accept loop polls the flag
        // (non-blocking listener), so this join is bounded; the
        // throwaway connect just shortcuts the poll interval when the
        // address is self-connectable.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Then the workers drain and exit, last. A per-thread allocator
        // (glibc's arenas) hands the most recently released arena to
        // the next new thread, so the next server this process starts
        // gets its worker the arena that held a hosted model and its
        // keys, and reuses that memory instead of growing beside it.
        for entry in &entries {
            entry.jobs.close();
        }
        for entry in &entries {
            join_worker(entry);
        }
        self.shared.flight.dump()
    }
}
