//! # copse-server — a batched multi-model inference service
//!
//! The paper's evaluation runs Maurice, Diane and Sally in one
//! process; this crate deploys Sally as a network service. A server
//! hosts a **registry** of compiled models (plain or encrypted
//! deployments over one [`FheBackend`](copse_fhe::FheBackend)), speaks
//! the framed wire protocol of [`copse_core::wire`] over TCP — session
//! handshake, model discovery, serialized-ciphertext queries and
//! results, a metrics pull — and schedules evaluation through a
//! **batching scheduler**: each model's worker coalesces queries that
//! arrive within a batch window into one
//! [`Sally::classify_batch`](copse_core::runtime::Sally::classify_batch)
//! pass, so concurrent clients share each traversal of the model's
//! level-matrix and reshuffle artifacts.
//!
//! * [`server`] — [`ServerBuilder`], the model registry, the
//!   per-model batching workers, and the thread-per-connection front
//!   end. Every registered model passes through `copse_core::analyze` at
//!   [`ServerBuilder::bind`]: a circuit the backend cannot evaluate
//!   (depth over the modulus chain, rotations on a rotation-free
//!   ring, operands wider than the slot count) is rejected with a
//!   structured wire diagnostic instead of failing at first query;
//! * [`client`] — [`InferenceClient`], Diane's side of the protocol
//!   (encrypt → serialize → send, receive → deserialize → decrypt),
//!   with a [`RetryPolicy`] that absorbs sheds and connection drops
//!   via jittered exponential backoff and reconnect-and-rehello;
//! * [`transport`] — length-prefixed frame I/O over any byte stream;
//! * [`queue`] — the bounded, closeable job channel every server-side
//!   queue is built from: full queues shed instead of growing, closed
//!   queues drain instead of dropping;
//! * [`faults`] — deterministic fault injection ([`FaultPlan`]):
//!   seeded socket delays, partial/truncated writes, connection drops
//!   and one-shot worker panics for chaos testing;
//! * [`stats`] — served-queries/batch-size/per-stage-ops counters plus
//!   per-model latency histograms, the queue-wait vs evaluation time
//!   split, and the overload counters (shed / expired / connection
//!   timeouts, live queue gauges), behind the
//!   [`StatsSnapshot::render_text`] operator exposition;
//! * [`flight`] — the always-on [`FlightRecorder`]: a fixed-capacity,
//!   lock-light ring buffer remembering the last N per-query records
//!   (outcome, timing split, batch shape, faults observed), dumped on
//!   demand and at shutdown;
//! * [`metrics`] — the pull-able Prometheus-style text exposition
//!   behind the `MetricsRequest`/`MetricsReport` frames
//!   ([`render_exposition`]), plus a strict self-contained parser
//!   ([`parse_exposition`]) that round-trip tests pin the grammar
//!   with.
//!
//! The serving tier is also **traceable end to end**: a `Query` may
//! carry a client-assigned trace id, and the answering frame returns
//! a compact `ServerTiming` record (receive → enqueue →
//! dequeue → batch-assembly → per-stage-eval → encode, batch size and
//! traced batch peers, shed/expiry cause, worker id) that
//! [`InferenceClient`] stitches with its own spans into one merged
//! Chrome trace per query. See `docs/OBSERVABILITY.md`.
//!
//! The serving tier is **resilient by construction**: every queue is
//! bounded (overload answers a `Busy` shed frame instead of growing),
//! queries carry optional relative deadlines (expired work is shed at
//! dequeue, never evaluated), models hot-deploy and hot-undeploy on a
//! live server ([`ServerHandle::deploy`] / [`ServerHandle::undeploy`]),
//! and shutdown drains: accepted queries are finished or explicitly
//! answered, never silently dropped. See `docs/ROBUSTNESS.md`.
//!
//! ## Example
//!
//! ```
//! use copse_core::compiler::CompileOptions;
//! use copse_core::runtime::ModelForm;
//! use copse_fhe::ClearBackend;
//! use copse_forest::model::Forest;
//! use copse_server::{InferenceClient, ServerBuilder};
//! use std::sync::Arc;
//!
//! let backend = Arc::new(ClearBackend::with_defaults());
//! let forest = Forest::parse(
//!     "labels no yes\ntree (branch 0 8 (leaf 0) (leaf 1))\n",
//! )?;
//! let server = ServerBuilder::new(Arc::clone(&backend))
//!     .register("demo", &forest, CompileOptions::default(), ModelForm::Encrypted)?
//!     .bind("127.0.0.1:0")?;
//! let handle = server.spawn()?;
//!
//! let mut client = InferenceClient::connect(handle.addr(), backend, "demo")?;
//! let served = client.classify(&[3])?;
//! assert_eq!(served.outcome.plurality_label(), Some("yes"));
//! client.close()?;
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod flight;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod stats;
pub mod transport;

pub use client::{InferenceClient, QueryTrace, RetryPolicy, ServedOutcome};
pub use copse_core::wire::{RejectionCode, RejectionDetail, ServerTiming, ShedDetail, TimingCause};
pub use faults::FaultPlan;
pub use flight::{FlightRecord, FlightRecorder};
pub use metrics::{parse_exposition, render_exposition, Exposition};
pub use queue::{BoundedReceiver, BoundedSender, RecvError, TrySendError};
pub use server::{DeployError, InferenceServer, ServerBuilder, ServerConfig, ServerHandle};
pub use stats::{
    CircuitBudget, CircuitSummary, ModelQueueDepth, ModelStats, ServerStats, StatsSnapshot,
};
