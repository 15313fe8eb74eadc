//! The inference client: Diane's side of the service protocol.
//!
//! A client connects, names a model, and receives the model's public
//! [`QueryInfo`] in the handshake. From then on
//! [`InferenceClient::classify`] does the whole paper step-0/step-4
//! round locally — replicate, bit-slice, encrypt, serialize — ships
//! the planes as a `Query` frame, and decrypts the `Result` frame's
//! ciphertext into a [`ClassificationOutcome`].
//!
//! ## Retry and backoff
//!
//! Real services shed ([`Frame::Busy`]) and real connections drop.
//! `classify` absorbs both under a [`RetryPolicy`]: a shed sleeps out
//! the server's `retry_after_ms` hint (jittered), an I/O failure
//! reconnects and re-hellos, and both count against a capped attempt
//! budget. Retries are safe because a query is idempotent — the
//! server holds no per-query state beyond the in-flight job, and a
//! retried query is simply a new job. Jitter is deterministic per
//! client (seeded [`RetryPolicy::jitter_seed`]), so tests replay
//! exactly. Typed server errors (bad input, rejected model, expired
//! deadline) are *not* retried — retrying cannot fix them.
//!
//! ## Query-scoped tracing
//!
//! With [`InferenceClient::set_tracing`] on, every query carries a
//! client-assigned trace id over the wire and the answer frame brings
//! back the server's [`ServerTiming`] split. The client records its
//! own spans the whole way — encrypt, send, await, each backoff
//! sleep, each reconnect (with its connect and hello inside) — and
//! [`QueryTrace::chrome_json`] stitches both sides into **one**
//! merged Chrome trace per query.
//!
//! The two clocks are never compared directly. Server timestamps are
//! relative to *its* frame receipt; the client anchors them inside
//! its own send→receive window by centering: the round-trip slack
//! (window minus the server's total processing time) is split evenly
//! between the outbound and inbound hops. The anchored server spans
//! therefore always land inside the client's `await` span, whatever
//! the wall clocks say. A retried query contributes one server window
//! per answered attempt — a shed, then a successful retry, shows both
//! refusal and service on one timeline.

use crate::faults::SplitMix64;
use crate::transport::{read_frame, write_frame};
use bytes::Bytes;
use copse_core::runtime::{ClassificationOutcome, Diane, EncryptedResult, QueryInfo};
use copse_core::wire::{Frame, ServerTiming, ShedDetail, TimingCause, MAX_DEADLINE_MS};
use copse_fhe::FheBackend;
use copse_trace::{chrome_trace_json, Phase, Stopwatch, TraceEvent};
use std::borrow::Cow;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Process-wide disambiguator mixed into every client's trace-id
/// stream: two clients built with identical [`RetryPolicy`] seeds
/// (the default in tests and soaks) must still assign *distinct*
/// trace ids, or their queries become indistinguishable in a shared
/// batch's peer attribution.
static TRACE_STREAM_SALT: AtomicU64 = AtomicU64::new(0x7ACE_1D5E_ED00_0001);

/// A decrypted answer plus how it was served.
#[derive(Clone, Debug)]
pub struct ServedOutcome {
    /// The decoded classification.
    pub outcome: ClassificationOutcome,
    /// Size of the server-side batch this query rode in (> 1 means
    /// the scheduler coalesced it with concurrent queries).
    pub batch_size: u32,
    /// How many retry attempts this answer took (0 = first try).
    pub retries: u32,
    /// The server's timing split for the answering attempt, present
    /// iff tracing was on ([`InferenceClient::set_tracing`]).
    pub timing: Option<ServerTiming>,
    /// The full merged client/server trace of this query, present iff
    /// tracing was on.
    pub trace: Option<QueryTrace>,
}

/// One client-side span, in nanoseconds since the query's trace
/// epoch (the moment `classify` was called).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientSpan {
    /// What the client was doing (`encrypt`, `send`, `await`,
    /// `backoff`, `reconnect`, `connect`, `hello`).
    pub name: &'static str,
    /// Span start, nanos since the trace epoch.
    pub start_nanos: u64,
    /// Span end, nanos since the trace epoch.
    pub end_nanos: u64,
}

/// One answered attempt's server timing, anchored by the client's
/// send→receive window for that attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerWindow {
    /// When the attempt's `send` began, nanos since the trace epoch.
    pub send_nanos: u64,
    /// When the attempt's answer was fully received.
    pub recv_nanos: u64,
    /// The server's timing split, all offsets relative to *its* frame
    /// receipt.
    pub timing: ServerTiming,
}

impl ServerWindow {
    /// The anchor: where the server's "frame received" instant lands
    /// on the client's clock. The round-trip slack — the send→receive
    /// window minus the server's own total processing time — is split
    /// evenly between the two network hops, so the server's spans sit
    /// centered inside the client's `await` span.
    pub fn server_receive_anchor(&self) -> u64 {
        let window = self.recv_nanos.saturating_sub(self.send_nanos);
        let slack = window.saturating_sub(self.timing.encode_nanos);
        self.send_nanos + slack / 2
    }
}

/// The merged client/server trace of one query, ready for
/// `chrome://tracing`.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// The client-assigned trace id shipped on the wire.
    pub trace_id: u64,
    /// The query id of the answering attempt.
    pub query_id: u64,
    /// Model the query addressed.
    pub model: String,
    /// End-to-end client time for the whole `classify` call, nanos.
    pub total_nanos: u64,
    /// Client-side spans, in start order.
    pub spans: Vec<ClientSpan>,
    /// One window per answered attempt that returned a
    /// [`ServerTiming`] (a dropped connection returns none).
    pub server: Vec<ServerWindow>,
}

/// Client spans render on this Chrome trace thread lane.
const CLIENT_TID: u64 = 1;
/// Anchored server spans render on this lane.
const SERVER_TID: u64 = 2;

/// Emits a laminar span family (each pair either nested or disjoint,
/// never partially overlapping) as well-nested `B`/`E` events.
fn emit_nested(
    events: &mut Vec<TraceEvent>,
    mut spans: Vec<(Cow<'static, str>, u64, u64)>,
    tid: u64,
) {
    spans.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));
    let mut open: Vec<(Cow<'static, str>, u64)> = Vec::new();
    for (name, start, end) in spans {
        while let Some((name, ts_nanos)) = open.pop_if(|(_, open_end)| *open_end <= start) {
            events.push(TraceEvent {
                name,
                phase: Phase::End,
                ts_nanos,
                tid,
            });
        }
        events.push(TraceEvent {
            name: name.clone(),
            phase: Phase::Begin,
            ts_nanos: start,
            tid,
        });
        open.push((name, end));
    }
    while let Some((name, ts_nanos)) = open.pop() {
        events.push(TraceEvent {
            name,
            phase: Phase::End,
            ts_nanos,
            tid,
        });
    }
}

impl QueryTrace {
    /// The merged trace as [`TraceEvent`]s: client spans on thread
    /// lane 1, anchored server spans on lane 2, both streams
    /// well-nested.
    pub fn chrome_events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let mut client: Vec<(Cow<'static, str>, u64, u64)> = vec![(
            Cow::Owned(format!("query:{:016x}", self.trace_id)),
            0,
            self.total_nanos,
        )];
        for span in &self.spans {
            client.push((Cow::Borrowed(span.name), span.start_nanos, span.end_nanos));
        }
        emit_nested(&mut events, client, CLIENT_TID);

        let mut server: Vec<(Cow<'static, str>, u64, u64)> = Vec::new();
        for window in &self.server {
            let anchor = window.server_receive_anchor();
            let t = &window.timing;
            let cause = match t.cause {
                TimingCause::Served => "served",
                TimingCause::Shed => "shed",
                TimingCause::Expired => "expired",
                TimingCause::Failed => "failed",
            };
            server.push((
                Cow::Owned(format!("server:{cause}")),
                anchor,
                anchor + t.encode_nanos,
            ));
            if t.dequeue_nanos > t.enqueue_nanos {
                server.push((
                    Cow::Borrowed("server:queue-wait"),
                    anchor + t.enqueue_nanos,
                    anchor + t.dequeue_nanos,
                ));
            }
            if t.assembled_nanos > t.dequeue_nanos {
                server.push((
                    Cow::Borrowed("server:batch-assembly"),
                    anchor + t.dequeue_nanos,
                    anchor + t.assembled_nanos,
                ));
            }
            let mut cursor = t.assembled_nanos;
            for (name, nanos) in [
                ("server:comparison", t.stage_nanos[0]),
                ("server:reshuffle", t.stage_nanos[1]),
                ("server:levels", t.stage_nanos[2]),
                ("server:accumulate", t.stage_nanos[3]),
            ] {
                if nanos > 0 {
                    server.push((
                        Cow::Borrowed(name),
                        anchor + cursor,
                        anchor + cursor + nanos,
                    ));
                    cursor += nanos;
                }
            }
            if t.assembled_nanos > 0 && t.encode_nanos > cursor {
                server.push((
                    Cow::Borrowed("server:encode"),
                    anchor + cursor,
                    anchor + t.encode_nanos,
                ));
            }
        }
        emit_nested(&mut events, server, SERVER_TID);
        events
    }

    /// The merged trace as a `chrome://tracing`-loadable JSON
    /// document.
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.chrome_events())
    }

    /// The answering attempt's server timing (the last window), if
    /// any attempt brought one back.
    pub fn final_timing(&self) -> Option<&ServerTiming> {
        self.server.last().map(|w| &w.timing)
    }
}

/// Per-query span collector; a disabled recorder (tracing off) costs
/// one branch per call and allocates nothing.
struct TraceRecorder {
    epoch: Option<Stopwatch>,
    spans: Vec<ClientSpan>,
    windows: Vec<ServerWindow>,
}

impl TraceRecorder {
    fn new(enabled: bool) -> Self {
        Self {
            epoch: enabled.then(Stopwatch::start),
            spans: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Nanos since the query began (0 when tracing is off).
    fn now(&self) -> u64 {
        self.epoch.as_ref().map_or(0, |e| {
            e.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
        })
    }

    /// Closes a span opened at `start` (from [`TraceRecorder::now`]).
    fn span(&mut self, name: &'static str, start: u64) {
        if self.epoch.is_some() {
            self.spans.push(ClientSpan {
                name,
                start_nanos: start,
                end_nanos: self.now(),
            });
        }
    }

    /// Records an answered attempt's server timing, closing its
    /// send→receive window now.
    fn window(&mut self, send_nanos: u64, timing: &Option<ServerTiming>) {
        if self.epoch.is_some() {
            if let Some(timing) = timing {
                self.windows.push(ServerWindow {
                    send_nanos,
                    recv_nanos: self.now(),
                    timing: timing.clone(),
                });
            }
        }
    }
}

/// How [`InferenceClient::classify`] handles sheds and broken
/// connections: capped attempts with jittered exponential backoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff * 2^(n-1)`, jittered
    /// ±50%, capped at [`RetryPolicy::max_backoff`] — except after a
    /// shed, where the server's `retry_after_ms` hint is the floor.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep (including the
    /// server's `retry_after_ms` hint — a hostile hint cannot park
    /// the client).
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0x5EED_C095_E000_0011,
        }
    }
}

impl RetryPolicy {
    /// Never retry: every shed and drop surfaces immediately (the
    /// pre-retry behavior).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }
}

/// A connected inference session against one registered model.
///
/// The client shares the server's [`FheBackend`] instance (i.e. the
/// query-key domain): with the clear backend that is trivially true,
/// and with the BGV backend both sides must be built from the same
/// parameters and key seed — the in-process analogue of Diane
/// provisioning keys to the service.
pub struct InferenceClient<B: FheBackend> {
    backend: Arc<B>,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    session: u64,
    info: QueryInfo,
    encrypted_model: bool,
    next_id: u64,
    /// Resolved addresses for reconnect-and-rehello.
    addrs: Vec<SocketAddr>,
    model: String,
    retry: RetryPolicy,
    jitter: SplitMix64,
    /// Relative per-query deadline shipped in each `Query` frame
    /// (0 = none). The server measures it from frame receipt, so
    /// client and server clocks are never compared.
    deadline_ms: u32,
    /// Set when the connection is known dead; the next attempt
    /// reconnects before sending.
    broken: bool,
    /// Lifetime retry count (for soak reporting).
    total_retries: u64,
    /// When on, queries carry trace ids and answers carry
    /// [`ServerTiming`]; `classify` returns a merged [`QueryTrace`].
    tracing: bool,
    /// Deterministic trace-id stream (distinct from backoff jitter so
    /// enabling tracing never perturbs retry schedules).
    trace_ids: SplitMix64,
}

impl<B: FheBackend> std::fmt::Debug for InferenceClient<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceClient")
            .field("session", &self.session)
            .field("encrypted_model", &self.encrypted_model)
            .field("next_id", &self.next_id)
            .field("model", &self.model)
            .field("retry", &self.retry)
            .field("tracing", &self.tracing)
            .finish_non_exhaustive()
    }
}

impl<B: FheBackend> InferenceClient<B> {
    /// Connects and performs the session handshake against `model`
    /// with the default [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Fails on socket errors, protocol violations, or an unknown
    /// model name (surfaced as [`io::ErrorKind::NotFound`]).
    pub fn connect(addr: impl ToSocketAddrs, backend: Arc<B>, model: &str) -> io::Result<Self> {
        Self::connect_with(addr, backend, model, RetryPolicy::default())
    }

    /// [`InferenceClient::connect`] with an explicit retry policy.
    ///
    /// # Errors
    ///
    /// Same contract as [`InferenceClient::connect`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        backend: Arc<B>,
        model: &str,
        retry: RetryPolicy,
    ) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut rec = TraceRecorder::new(false);
        let (reader, writer, session, info, encrypted_model) = handshake(&addrs, model, &mut rec)?;
        Ok(Self {
            backend,
            reader,
            writer,
            session,
            info,
            encrypted_model,
            next_id: 1,
            addrs,
            model: model.to_string(),
            jitter: SplitMix64::new(retry.jitter_seed),
            trace_ids: SplitMix64::new(
                retry.jitter_seed
                    ^ TRACE_STREAM_SALT.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed),
            ),
            retry,
            deadline_ms: 0,
            broken: false,
            total_retries: 0,
            tracing: false,
        })
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The model's public query information from the handshake.
    pub fn info(&self) -> &QueryInfo {
        &self.info
    }

    /// `true` when the server hosts this model in encrypted form.
    pub fn encrypted_model(&self) -> bool {
        self.encrypted_model
    }

    /// Sets the per-query deadline shipped with every subsequent
    /// query (`None` = no deadline). The budget is *relative* — the
    /// server measures it from the moment it receives the frame — and
    /// is clamped to the wire cap
    /// ([`MAX_DEADLINE_MS`]).
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline_ms = match deadline {
            None => 0,
            Some(d) => (d.as_millis().min(u128::from(MAX_DEADLINE_MS)) as u32).max(1),
        };
    }

    /// Turns query-scoped tracing on or off. While on, every query
    /// ships a fresh client-assigned trace id, the server tags its
    /// spans with it and returns its [`ServerTiming`] split, and
    /// [`ServedOutcome::trace`] carries the merged per-query trace.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Total retry attempts this client has performed (sheds slept
    /// out, connections re-established).
    pub fn total_retries(&self) -> u64 {
        self.total_retries
    }

    /// Encrypts `features`, round-trips them through the service
    /// (absorbing sheds and connection drops per the
    /// [`RetryPolicy`]), and decrypts the answer.
    ///
    /// # Errors
    ///
    /// Invalid features surface as [`io::ErrorKind::InvalidInput`];
    /// typed server-side failures as [`io::ErrorKind::Other`]. A shed
    /// or broken connection that outlives the retry budget surfaces
    /// as the last underlying error.
    pub fn classify(&mut self, features: &[u64]) -> io::Result<ServedOutcome> {
        let mut rec = TraceRecorder::new(self.tracing);
        let trace_id = self.tracing.then(|| self.trace_ids.next());
        let t_encrypt = rec.now();
        let backend = Arc::clone(&self.backend);
        let diane = Diane::new(backend.as_ref(), self.info.clone());
        let query = diane
            .encrypt_features(features)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let planes: Vec<Bytes> = query
            .planes()
            .iter()
            .map(|ct| Bytes::from(self.backend.serialize_ciphertext(ct)))
            .collect();
        rec.span("encrypt", t_encrypt);
        let mut shed_hint_ms: Option<u32> = None;
        let mut last_err = io::Error::other("retry budget was zero attempts");
        for attempt in 0..self.retry.max_attempts.max(1) {
            if attempt > 0 {
                self.total_retries += 1;
                let t = rec.now();
                std::thread::sleep(self.backoff(attempt, shed_hint_ms.take()));
                rec.span("backoff", t);
            }
            if self.broken {
                let t = rec.now();
                let reconnected = self.reconnect(&mut rec);
                rec.span("reconnect", t);
                if let Err(e) = reconnected {
                    last_err = e;
                    continue;
                }
            }
            match self.exchange(&planes, trace_id, &mut rec) {
                Ok(Ok((outcome, batch_size, query_id))) => {
                    let timing = rec.windows.last().map(|w| w.timing.clone());
                    let trace = trace_id.map(|tid| QueryTrace {
                        trace_id: tid,
                        query_id,
                        model: self.model.clone(),
                        total_nanos: rec.now(),
                        spans: rec.spans,
                        server: rec.windows,
                    });
                    return Ok(ServedOutcome {
                        outcome: diane.decrypt_result(&outcome),
                        batch_size,
                        retries: attempt,
                        timing,
                        trace,
                    });
                }
                // A shed: the connection is fine, the model is just
                // overloaded (or draining). Honor the hint and retry.
                Ok(Err(detail)) => {
                    shed_hint_ms = Some(detail.retry_after_ms);
                    last_err = io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!(
                            "model `{}` shed the query (queue depth {}, retry after {} ms)",
                            detail.model, detail.queue_depth, detail.retry_after_ms
                        ),
                    );
                }
                Err(e) if is_retryable(&e) => {
                    self.broken = true;
                    last_err = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// One send/receive round for an already-encrypted query. The
    /// outer `Err` is an I/O or typed-server error; the inner `Err`
    /// is a client-visible shed. Any returned [`ServerTiming`] —
    /// served, shed, or typed error — is recorded into `rec` with
    /// this attempt's send→receive window.
    #[allow(clippy::type_complexity)]
    fn exchange(
        &mut self,
        planes: &[Bytes],
        trace: Option<u64>,
        rec: &mut TraceRecorder,
    ) -> io::Result<Result<(EncryptedResult<B>, u32, u64), ShedDetail>> {
        let id = self.next_id;
        self.next_id += 1;
        let t_send = rec.now();
        write_frame(
            &mut self.writer,
            &Frame::Query {
                id,
                deadline_ms: self.deadline_ms,
                trace,
                planes: planes.to_vec(),
            },
        )?;
        rec.span("send", t_send);
        let t_await = rec.now();
        let frame = read_frame(&mut self.reader)?;
        rec.span("await", t_await);
        match frame {
            Frame::Result {
                id: got,
                batch_size,
                ciphertext,
                timing,
            } => {
                rec.window(t_send, &timing);
                if got != id {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("result for query {got}, expected {id}"),
                    ));
                }
                let ct = self
                    .backend
                    .deserialize_ciphertext(&ciphertext)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                Ok(Ok((
                    EncryptedResult::<B>::from_ciphertext(ct),
                    batch_size,
                    id,
                )))
            }
            Frame::Busy {
                id: _,
                detail,
                timing,
            } => {
                rec.window(t_send, &timing);
                Ok(Err(detail))
            }
            Frame::Error {
                message, timing, ..
            } => {
                rec.window(t_send, &timing);
                Err(io::Error::other(message))
            }
            other => Err(protocol_error(&other)),
        }
    }

    /// Re-establishes the connection and re-runs the hello handshake
    /// (new session id; the model's `QueryInfo` is refreshed).
    fn reconnect(&mut self, rec: &mut TraceRecorder) -> io::Result<()> {
        let (reader, writer, session, info, encrypted_model) =
            handshake(&self.addrs, &self.model, rec)?;
        self.reader = reader;
        self.writer = writer;
        self.session = session;
        self.info = info;
        self.encrypted_model = encrypted_model;
        self.broken = false;
        Ok(())
    }

    /// Backoff before retry `attempt` (≥ 1): exponential from
    /// `base_backoff`, floored at the server's shed hint when one was
    /// given, jittered to ±50%, capped at `max_backoff`.
    fn backoff(&mut self, attempt: u32, shed_hint_ms: Option<u32>) -> Duration {
        let exp = self
            .retry
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let floor = Duration::from_millis(u64::from(shed_hint_ms.unwrap_or(0)));
        let nominal = exp.max(floor).min(self.retry.max_backoff);
        // Jitter to 50%..150% of nominal, deterministically.
        let scale_pct = 50 + self.jitter.next() % 101;
        nominal * (scale_pct as u32) / 100
    }

    /// Lists the server's registered models.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or protocol violations.
    pub fn list_models(&mut self) -> io::Result<Vec<String>> {
        write_frame(&mut self.writer, &Frame::ListModels)?;
        match read_frame(&mut self.reader)? {
            Frame::ModelList { models } => Ok(models),
            Frame::Error { message, .. } => Err(io::Error::other(message)),
            other => Err(protocol_error(&other)),
        }
    }

    /// Pulls the server's Prometheus-style metrics exposition (every
    /// counter, gauge, and latency histogram as text; the grammar is
    /// documented in `docs/OBSERVABILITY.md` and parseable with
    /// [`crate::metrics::parse_exposition`]).
    ///
    /// # Errors
    ///
    /// Fails on socket errors or protocol violations.
    pub fn metrics(&mut self) -> io::Result<String> {
        write_frame(&mut self.writer, &Frame::MetricsRequest)?;
        match read_frame(&mut self.reader)? {
            Frame::MetricsReport { text } => Ok(text),
            Frame::Error { message, .. } => Err(io::Error::other(message)),
            other => Err(protocol_error(&other)),
        }
    }

    /// Closes the session with a `Bye` exchange.
    ///
    /// # Errors
    ///
    /// Fails on socket errors; the connection is dropped regardless.
    pub fn close(mut self) -> io::Result<()> {
        write_frame(&mut self.writer, &Frame::Bye)?;
        match read_frame(&mut self.reader)? {
            Frame::Bye => Ok(()),
            other => Err(protocol_error(&other)),
        }
    }
}

/// Connects to the first reachable address and performs the hello
/// handshake, recording `connect` and `hello` spans into `rec`.
#[allow(clippy::type_complexity)]
fn handshake(
    addrs: &[SocketAddr],
    model: &str,
    rec: &mut TraceRecorder,
) -> io::Result<(
    BufReader<TcpStream>,
    BufWriter<TcpStream>,
    u64,
    QueryInfo,
    bool,
)> {
    let t_connect = rec.now();
    let stream = TcpStream::connect(addrs)?;
    // Every frame is written whole and flushed (`write_frame`), so
    // Nagle's rule could only hold a short tail back for a delayed ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    rec.span("connect", t_connect);
    let t_hello = rec.now();
    write_frame(
        &mut writer,
        &Frame::ClientHello {
            model: model.into(),
        },
    )?;
    let hello = read_frame(&mut reader)?;
    rec.span("hello", t_hello);
    match hello {
        Frame::ServerHello {
            session,
            encrypted_model,
            info,
        } => Ok((reader, writer, session, info, encrypted_model)),
        Frame::Error { message, .. } => Err(io::Error::new(io::ErrorKind::NotFound, message)),
        other => Err(protocol_error(&other)),
    }
}

/// Errors worth a reconnect: the connection died or delivered bytes
/// that cannot be a frame (a truncation). Typed server answers
/// (`Other`) and handshake rejections (`NotFound`) are not — the
/// server is alive and said no.
fn is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::InvalidData
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

fn protocol_error(frame: &Frame) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected frame tag {:#04x} from the server", frame.tag()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use copse_trace::validate_chrome_trace;

    #[test]
    fn retry_policy_none_is_one_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn retryable_errors_are_connection_shaped() {
        assert!(is_retryable(&io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof"
        )));
        assert!(is_retryable(&io::Error::new(
            io::ErrorKind::ConnectionReset,
            "reset"
        )));
        assert!(is_retryable(&io::Error::new(
            io::ErrorKind::InvalidData,
            "truncated frame"
        )));
        assert!(!is_retryable(&io::Error::other("typed server error")));
        assert!(!is_retryable(&io::Error::new(
            io::ErrorKind::NotFound,
            "unknown model"
        )));
    }

    fn timing(cause: TimingCause) -> ServerTiming {
        ServerTiming {
            worker: 0,
            cause,
            enqueue_nanos: 1_000,
            dequeue_nanos: 5_000,
            assembled_nanos: 6_000,
            stage_nanos: [100, 200, 300, 400],
            encode_nanos: 10_000,
            batch_size: 2,
            batch_peers: vec![42],
        }
    }

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            trace_id: 0xABCD,
            query_id: 7,
            model: "demo".into(),
            total_nanos: 100_000,
            spans: vec![
                ClientSpan {
                    name: "encrypt",
                    start_nanos: 0,
                    end_nanos: 4_000,
                },
                ClientSpan {
                    name: "send",
                    start_nanos: 4_000,
                    end_nanos: 6_000,
                },
                ClientSpan {
                    name: "await",
                    start_nanos: 6_000,
                    end_nanos: 90_000,
                },
            ],
            server: vec![ServerWindow {
                send_nanos: 4_000,
                recv_nanos: 90_000,
                timing: timing(TimingCause::Served),
            }],
        }
    }

    #[test]
    fn merged_trace_is_chrome_valid_and_anchored_inside_the_window() {
        let trace = sample_trace();
        let json = trace.chrome_json();
        validate_chrome_trace(&json).expect("merged export is structurally valid");

        // The anchor centers the server's processing in the client's
        // send→receive window: window = 86_000, encode = 10_000,
        // slack = 76_000, anchor = 4_000 + 38_000.
        let window = &trace.server[0];
        assert_eq!(window.server_receive_anchor(), 42_000);

        // Every anchored server event lands inside the client window.
        let events = trace.chrome_events();
        for e in events.iter().filter(|e| e.tid == SERVER_TID) {
            assert!(
                e.ts_nanos >= window.send_nanos && e.ts_nanos <= window.recv_nanos,
                "{} at {} outside [{}, {}]",
                e.name,
                e.ts_nanos,
                window.send_nanos,
                window.recv_nanos
            );
        }
        // All four eval stages and the queue wait are present.
        let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
        for expected in [
            "server:served",
            "server:queue-wait",
            "server:batch-assembly",
            "server:comparison",
            "server:reshuffle",
            "server:levels",
            "server:accumulate",
            "server:encode",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn shed_window_renders_without_eval_stages() {
        let mut t = timing(TimingCause::Shed);
        t.assembled_nanos = 0;
        t.stage_nanos = [0; 4];
        t.batch_size = 0;
        let trace = QueryTrace {
            trace_id: 1,
            query_id: 1,
            model: "demo".into(),
            total_nanos: 50_000,
            spans: vec![],
            server: vec![ServerWindow {
                send_nanos: 0,
                recv_nanos: 50_000,
                timing: t,
            }],
        };
        let events = trace.chrome_events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
        assert!(names.contains(&"server:shed"));
        assert!(names.contains(&"server:queue-wait"));
        assert!(!names.iter().any(|n| n.starts_with("server:compar")));
        validate_chrome_trace(&trace.chrome_json()).expect("shed trace still valid");
    }

    #[test]
    fn server_slower_than_the_window_still_anchors_at_send() {
        // Clock weirdness: the server claims more processing time
        // than the client's whole round trip. The anchor degrades to
        // the send instant instead of underflowing.
        let window = ServerWindow {
            send_nanos: 10_000,
            recv_nanos: 12_000,
            timing: timing(TimingCause::Served),
        };
        assert_eq!(window.server_receive_anchor(), 10_000);
    }

    #[test]
    fn nested_emission_balances_overlapping_families() {
        // reconnect ⊃ connect + hello, like a real retry records.
        let mut events = Vec::new();
        emit_nested(
            &mut events,
            vec![
                (Cow::Borrowed("reconnect"), 10, 100),
                (Cow::Borrowed("connect"), 10, 40),
                (Cow::Borrowed("hello"), 40, 90),
                (Cow::Borrowed("send"), 110, 120),
            ],
            CLIENT_TID,
        );
        let json = chrome_trace_json(&events);
        validate_chrome_trace(&json).expect("laminar family emits well-nested");
        let log: Vec<(String, Phase)> = events
            .iter()
            .map(|e| (e.name.to_string(), e.phase))
            .collect();
        assert_eq!(
            log,
            vec![
                ("reconnect".into(), Phase::Begin),
                ("connect".into(), Phase::Begin),
                ("connect".into(), Phase::End),
                ("hello".into(), Phase::Begin),
                ("hello".into(), Phase::End),
                ("reconnect".into(), Phase::End),
                ("send".into(), Phase::Begin),
                ("send".into(), Phase::End),
            ]
        );
    }
}
