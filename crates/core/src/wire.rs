//! Wire encoding for the protocol's messages.
//!
//! The COPSE workflow (paper Fig. 2) starts with a handshake: Maurice
//! reveals the maximum feature multiplicity `K` (via Sally) together
//! with whatever the configuration's leakage profile allows — feature
//! count, precision, result width and the codebook — so Diane can pad,
//! encrypt and later decode. This module gives that handshake a
//! concrete byte format (length-prefixed, big-endian, versioned) so
//! parties can live in separate processes.
//!
//! The handshake travels inside the [`Frame`] vocabulary of the
//! `copse-server` inference service: the session handshake
//! ([`Frame::ClientHello`] / [`Frame::ServerHello`], whose `info`
//! section is the [`QueryInfo`]),
//! model-registry discovery ([`Frame::ListModels`] /
//! [`Frame::ModelList`]), encrypted queries and results
//! ([`Frame::Query`] / [`Frame::Result`]), the metrics pull
//! ([`Frame::MetricsRequest`] / [`Frame::MetricsReport`]), errors, and
//! orderly shutdown. Ciphertext *contents* stay backend-specific —
//! frames carry the opaque byte strings produced by
//! `FheBackend::serialize_ciphertext` — but their framing is fixed
//! here, so clients and servers can live on opposite ends of a socket.
//! Every frame starts with the same version byte and a tag; decoding
//! rejects any other version and unknown tags loudly. The byte layout
//! of every message is tabulated once, on [`WIRE_VERSION`].

use crate::runtime::QueryInfo;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// The protocol's format version, the first byte of every message.
/// There is one dialect: a message carrying any other version byte is
/// [`WireError::BadVersion`].
///
/// Integers are big-endian. `str` is a `u16` length plus UTF-8 bytes,
/// `blob` a `u32` length plus raw bytes, `flag` one byte that is 0 or
/// 1, and `opt T` a `flag` followed by `T` when the flag is 1. Every
/// message is `version: u8`, `tag: u8`, then the body below; a frame
/// body must end exactly where the buffer does.
///
/// | message (tag) | body: field, width |
/// |---|---|
/// | `ClientHello` (0x01) | `model: str` |
/// | `ServerHello` (0x02) | `session: u64`, `encrypted_model: u8`, `info` |
/// | `ListModels` (0x03) | empty |
/// | `ModelList` (0x04) | `count: u32`, `count` × `name: str` |
/// | `Query` (0x05) | `id: u64`, `deadline_ms: u32`, `trace: opt u64`, `count: u32`, `count` × `plane: blob` |
/// | `Result` (0x06) | `id: u64`, `batch_size: u32`, `ciphertext: blob`, `timing: opt timing` |
/// | `Error` (0x09) | `message: str`, `detail: opt rejection`, `timing: opt timing` |
/// | `Bye` (0x0A) | empty |
/// | `Busy` (0x0B) | `id: u64`, `model: str`, `queue_depth: u32`, `retry_after_ms: u32`, `timing: opt timing` |
/// | `MetricsRequest` (0x0C) | empty |
/// | `MetricsReport` (0x0D) | `text: blob` (UTF-8) |
///
/// | shared section | fields, width |
/// |---|---|
/// | `info` | `max_multiplicity`, `feature_count`, `precision`, `n_leaves`: `u32` each; `labels: u32`, `labels` × `name: str`; `codes: u32`, `codes` × `label: u32`; `entry_primes: u32` (0: no modulus chain) |
/// | `rejection` | `model: str`, `code: u8`, `required: u64`, `available: u64` |
/// | `timing` | `worker: u32`, `cause: u8`, `enqueue`, `dequeue`, `assembled`, 4 × `stage`, `encode` nanos: `u64` each; `batch_size: u32`; `peers: u32`, `peers` × `trace: u64` |
///
/// Tags 0x07 and 0x08 belonged to a retired binary statistics pair,
/// and 0x51 to a standalone query-info message that `ServerHello`
/// subsumed; all three stay reserved and decode as
/// [`WireError::BadTag`].
pub const WIRE_VERSION: u8 = 7;
/// Session-opening request naming a model.
const TAG_CLIENT_HELLO: u8 = 0x01;
/// Session grant: id, model form, and the model's public query info.
const TAG_SERVER_HELLO: u8 = 0x02;
/// Registry listing request.
const TAG_LIST_MODELS: u8 = 0x03;
/// Registry listing response.
const TAG_MODEL_LIST: u8 = 0x04;
/// Encrypted inference query (serialized bit-plane ciphertexts).
const TAG_QUERY: u8 = 0x05;
/// Encrypted inference result (one serialized ciphertext).
const TAG_RESULT: u8 = 0x06;
/// Server-side failure description.
const TAG_ERROR: u8 = 0x09;
/// Orderly session close.
const TAG_BYE: u8 = 0x0A;
/// Load-shed answer: the server refused a query it could not finish.
const TAG_BUSY: u8 = 0x0B;
/// Metrics-exposition pull request.
const TAG_METRICS_REQUEST: u8 = 0x0C;
/// Metrics-exposition response: Prometheus-style text.
const TAG_METRICS_REPORT: u8 = 0x0D;

/// Upper bound a decoder accepts for [`ShedDetail::retry_after_ms`].
/// A server asking a client to back off for more than ten minutes is
/// corrupt framing, not a serving hint; hostile values must not reach
/// retry arithmetic.
pub const MAX_RETRY_AFTER_MS: u32 = 600_000;
/// Upper bound a decoder accepts for [`Frame::Query`]'s `deadline_ms`
/// budget (one hour). A query that tolerates more waiting than this
/// is indistinguishable from one with no deadline at all.
pub const MAX_DEADLINE_MS: u32 = 3_600_000;
/// Upper bound a decoder accepts for the number of packed-batch peer
/// trace ids a [`ServerTiming`] record may list. No honest server
/// coalesces more queries than this into one pass; a larger count is
/// framing corruption aimed at the decoder's allocator.
pub const MAX_BATCH_PEERS: usize = 4096;

/// Errors from [`decode_frame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unexpected message tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadString,
    /// A codebook entry referenced a label out of range.
    BadCodebook {
        /// Offending label index.
        index: usize,
        /// Number of labels.
        labels: usize,
    },
    /// Bytes remained after a complete frame body (framing
    /// corruption; only [`decode_frame`] checks this).
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A presence flag (error detail, query trace id, server timing)
    /// was neither 0 nor 1.
    BadDetailFlag(u8),
    /// An unknown [`RejectionCode`] byte in an error detail.
    BadRejectionCode(u8),
    /// An unknown [`TimingCause`] byte in a [`ServerTiming`] record.
    BadTimingCause(u8),
    /// A bounded numeric field carried a value outside its documented
    /// range (`retry_after_ms`, `deadline_ms`). Hostile or corrupt
    /// values are rejected at decode so they can never reach backoff
    /// or deadline arithmetic.
    FieldOutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unexpected message tag {t:#x}"),
            WireError::BadString => write!(f, "invalid UTF-8 in string field"),
            WireError::BadCodebook { index, labels } => {
                write!(f, "codebook entry {index} out of range for {labels} labels")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame")
            }
            WireError::BadDetailFlag(b) => {
                write!(f, "presence flag must be 0 or 1, got {b}")
            }
            WireError::BadRejectionCode(b) => {
                write!(f, "unknown rejection code {b}")
            }
            WireError::BadTimingCause(b) => {
                write!(f, "unknown timing cause {b}")
            }
            WireError::FieldOutOfRange { field, value } => {
                write!(f, "field {field} value {value} outside its wire range")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "string field too long");
    buf.put_u16(bytes.len() as u16);
    buf.put_slice(bytes);
}

fn get_string(buf: &mut Bytes) -> Result<String, WireError> {
    need(buf, 2)?;
    let len = buf.get_u16() as usize;
    need(buf, len)?;
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadString)
}

fn put_blob(buf: &mut BytesMut, blob: &[u8]) {
    assert!(
        u32::try_from(blob.len()).is_ok(),
        "blob field too long for a u32 length prefix"
    );
    buf.put_u32(blob.len() as u32);
    buf.put_slice(blob);
}

fn get_blob(buf: &mut Bytes) -> Result<Bytes, WireError> {
    need(buf, 4)?;
    let len = buf.get_u32() as usize;
    need(buf, len)?;
    Ok(buf.copy_to_bytes(len))
}

fn put_query_info_body(buf: &mut BytesMut, info: &QueryInfo) {
    buf.put_u32(info.max_multiplicity as u32);
    buf.put_u32(info.feature_count as u32);
    buf.put_u32(info.precision);
    buf.put_u32(info.n_leaves as u32);
    buf.put_u32(info.label_names.len() as u32);
    for name in &info.label_names {
        put_string(buf, name);
    }
    buf.put_u32(info.codebook.len() as u32);
    for &label in &info.codebook {
        buf.put_u32(label as u32);
    }
    buf.put_u32(info.entry_primes.unwrap_or(0));
}

fn get_query_info_body(buf: &mut Bytes) -> Result<QueryInfo, WireError> {
    need(buf, 20)?;
    let max_multiplicity = buf.get_u32() as usize;
    let feature_count = buf.get_u32() as usize;
    let precision = buf.get_u32();
    let n_leaves = buf.get_u32() as usize;
    let n_labels = buf.get_u32() as usize;

    let mut label_names = Vec::with_capacity(n_labels.min(1024));
    for _ in 0..n_labels {
        label_names.push(get_string(buf)?);
    }

    need(buf, 4)?;
    let n_codebook = buf.get_u32() as usize;
    let mut codebook = Vec::with_capacity(n_codebook.min(1 << 20));
    for _ in 0..n_codebook {
        need(buf, 4)?;
        let label = buf.get_u32() as usize;
        if label >= label_names.len() {
            return Err(WireError::BadCodebook {
                index: label,
                labels: label_names.len(),
            });
        }
        codebook.push(label);
    }
    need(buf, 4)?;
    let entry_primes = Some(buf.get_u32()).filter(|&primes| primes > 0);

    Ok(QueryInfo {
        max_multiplicity,
        feature_count,
        precision,
        n_leaves,
        label_names,
        codebook,
        entry_primes,
    })
}

/// One message of the `copse-server` inference protocol.
///
/// A session is: `ClientHello` → `ServerHello`, then any number of
/// `Query` → `Result` (or `Error`) exchanges plus optional
/// `ListModels`/`MetricsRequest` requests, ended by `Bye`. Ciphertext
/// fields hold backend-serialized bytes
/// (`FheBackend::serialize_ciphertext`); the protocol never looks
/// inside them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Opens a session against one registered model.
    ClientHello {
        /// Registry name of the model to query.
        model: String,
    },
    /// Grants a session: what Diane needs to form queries.
    ServerHello {
        /// Server-assigned session id.
        session: u64,
        /// `true` when the model is deployed encrypted.
        encrypted_model: bool,
        /// The model's public query information.
        info: QueryInfo,
    },
    /// Asks for the model registry's contents.
    ListModels,
    /// The model registry's contents.
    ModelList {
        /// Registered model names, in registration order.
        models: Vec<String>,
    },
    /// An encrypted query: the `p` serialized bit-plane ciphertexts.
    Query {
        /// Client-chosen id echoed in the matching [`Frame::Result`].
        id: u64,
        /// Client deadline budget in milliseconds, measured by the
        /// *server* from the moment it reads the frame (clocks are
        /// never compared across the wire — see docs/ROBUSTNESS.md).
        /// `0` means no deadline. Values above [`MAX_DEADLINE_MS`] are
        /// rejected at decode.
        deadline_ms: u32,
        /// Client-assigned trace id: `Some` means "trace me" — the
        /// server returns a [`ServerTiming`] record on the answer frame,
        /// whose batch peers are the trace ids of the other traced
        /// queries in its pass. A retried query re-sends the same id,
        /// so duplicate ids in the server's flight recorder *are* the
        /// client's retries.
        trace: Option<u64>,
        /// Serialized ciphertexts, MSB plane first.
        planes: Vec<Bytes>,
    },
    /// An encrypted classification result.
    Result {
        /// The id of the query this answers.
        id: u64,
        /// Number of queries coalesced into the evaluation pass that
        /// produced this result (≥ 1; > 1 means batching happened).
        batch_size: u32,
        /// The serialized N-hot result ciphertext.
        ciphertext: Bytes,
        /// Per-query server-side timing, present iff the query asked
        /// to be traced.
        timing: Option<ServerTiming>,
    },
    /// A request failed; the session stays open.
    Error {
        /// Human-readable failure description.
        message: String,
        /// Structured deploy-rejection diagnostic, when the failure is
        /// a model the static analyzer refused to admit.
        detail: Option<RejectionDetail>,
        /// Per-query server-side timing for traced queries that ended
        /// in a typed error (expired deadline, failed evaluation) —
        /// the slow path is exactly the one worth tracing.
        timing: Option<ServerTiming>,
    },
    /// Orderly session close.
    Bye,
    /// The server refused a query it could not finish: the model's
    /// bounded queue was full when the query arrived. The query was
    /// **not** accepted — retrying after the hinted backoff is safe
    /// and the idiomatic client behaviour (see `RetryPolicy` in
    /// `copse-server`).
    Busy {
        /// The id of the query being shed.
        id: u64,
        /// Structured overload diagnostic.
        detail: ShedDetail,
        /// Per-query server-side timing for traced queries that were
        /// shed after acceptance (front-door sheds carry one too so a
        /// traced client can see how fast the refusal was).
        timing: Option<ServerTiming>,
    },
    /// Asks for the metrics exposition.
    MetricsRequest,
    /// Every server counter, gauge, and latency histogram rendered in
    /// Prometheus-style text exposition format. The
    /// grammar is documented in `docs/OBSERVABILITY.md`; a
    /// self-contained parser lives in `copse-server::metrics`.
    MetricsReport {
        /// The exposition document (UTF-8; `# TYPE`/`# HELP` comment
        /// lines plus `name{labels} value` samples).
        text: String,
    },
}

/// Why a [`ServerTiming`] record's query ended the way it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingCause {
    /// Evaluated and answered with a [`Frame::Result`].
    Served,
    /// Refused or drained with a [`Frame::Busy`] (front-door queue
    /// full, or shutdown drain).
    Shed,
    /// The client's deadline budget expired in the queue; the query
    /// was never evaluated.
    Expired,
    /// Evaluation failed with a typed error.
    Failed,
}

impl TimingCause {
    /// Wire byte for this cause.
    pub fn to_byte(self) -> u8 {
        match self {
            TimingCause::Served => 0,
            TimingCause::Shed => 1,
            TimingCause::Expired => 2,
            TimingCause::Failed => 3,
        }
    }

    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// [`WireError::BadTimingCause`] for bytes this build does not
    /// know.
    pub fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(TimingCause::Served),
            1 => Ok(TimingCause::Shed),
            2 => Ok(TimingCause::Expired),
            3 => Ok(TimingCause::Failed),
            other => Err(WireError::BadTimingCause(other)),
        }
    }
}

/// Compact per-query server-side timing record, returned on the
/// answer frame of a traced query.
///
/// All `*_nanos` fields are **relative** offsets from the moment the
/// server finished reading the `Query` frame (receive = 0) — client
/// and server clocks are never compared across the wire (the same
/// rule `deadline_ms` follows; see docs/OBSERVABILITY.md for how a
/// client anchors these offsets inside its own send/receive window).
/// Offsets are monotone along the pipeline:
/// `enqueue ≤ dequeue ≤ assembled ≤ encode`, and the four stage
/// durations happened between `assembled` and `encode`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerTiming {
    /// Id of the evaluator worker that handled (or shed) the query;
    /// 0 when the front door answered before any worker saw it.
    pub worker: u32,
    /// How the query's service ended.
    pub cause: TimingCause,
    /// Receive → job enqueued (validation + ciphertext
    /// deserialisation time).
    pub enqueue_nanos: u64,
    /// Receive → the worker dequeued the job (queue wait ends here).
    pub dequeue_nanos: u64,
    /// Receive → the coalesced batch closed and evaluation began.
    pub assembled_nanos: u64,
    /// Per-stage evaluation **durations** in pipeline order:
    /// `[comparison, reshuffle, levels, accumulate]`.
    pub stage_nanos: [u64; 4],
    /// Receive → the answer frame was being encoded (total
    /// server-side time for this query).
    pub encode_nanos: u64,
    /// Queries coalesced into the evaluation pass (≥ 1 when served;
    /// 0 when never evaluated).
    pub batch_size: u32,
    /// Trace ids of the *other* traced queries packed into the same
    /// pass (untraced peers have no id and appear only in
    /// `batch_size`). Decoders reject more than [`MAX_BATCH_PEERS`].
    pub batch_peers: Vec<u64>,
}

/// Why and for how long a [`Frame::Busy`] shed happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShedDetail {
    /// Registry name of the overloaded model.
    pub model: String,
    /// Depth of the model's job queue at shed time (its configured
    /// bound — the queue was full).
    pub queue_depth: u32,
    /// Server's backoff hint in milliseconds: how long a retrying
    /// client should wait before its next attempt. Bounded by
    /// [`MAX_RETRY_AFTER_MS`]; decoders reject larger values.
    pub retry_after_ms: u32,
}

/// Why deploy-time admission refused a model.
///
/// Mirrors the verdicts of the [`crate::analyze`] static circuit
/// analysis: the compiled pipeline's requirements were checked against
/// the serving backend's capabilities before any ciphertext existed,
/// and one of these budgets or capabilities fell short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectionCode {
    /// Predicted multiplicative depth exceeds a depth-budgeted
    /// backend's limit — evaluation would abort.
    DepthExceeded,
    /// A pipeline operand is wider than the backend's slot capacity.
    SlotCapacityExceeded,
    /// A fresh query would need more modulus-chain primes than the
    /// backend's chain holds — the result would decrypt garbage.
    ChainExceeded,
}

impl RejectionCode {
    /// Wire byte for this code. Byte 2 is unassigned.
    pub fn to_byte(self) -> u8 {
        match self {
            RejectionCode::DepthExceeded => 1,
            RejectionCode::SlotCapacityExceeded => 3,
            RejectionCode::ChainExceeded => 4,
        }
    }

    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// [`WireError::BadRejectionCode`] for bytes this build does not
    /// know.
    pub fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(RejectionCode::DepthExceeded),
            3 => Ok(RejectionCode::SlotCapacityExceeded),
            4 => Ok(RejectionCode::ChainExceeded),
            other => Err(WireError::BadRejectionCode(other)),
        }
    }
}

/// Structured deploy-rejection diagnostic carried by [`Frame::Error`].
///
/// `required`/`available` quantify the failed check in the code's
/// units: multiplicative depth levels for
/// [`RejectionCode::DepthExceeded`], slot widths for
/// [`RejectionCode::SlotCapacityExceeded`], chain primes for
/// [`RejectionCode::ChainExceeded`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectionDetail {
    /// Registry name of the refused model.
    pub model: String,
    /// Which admission check failed.
    pub code: RejectionCode,
    /// What the circuit statically requires.
    pub required: u64,
    /// What the backend provides.
    pub available: u64,
}

impl Frame {
    /// The frame's wire tag (exposed for diagnostics).
    pub fn tag(&self) -> u8 {
        match self {
            Frame::ClientHello { .. } => TAG_CLIENT_HELLO,
            Frame::ServerHello { .. } => TAG_SERVER_HELLO,
            Frame::ListModels => TAG_LIST_MODELS,
            Frame::ModelList { .. } => TAG_MODEL_LIST,
            Frame::Query { .. } => TAG_QUERY,
            Frame::Result { .. } => TAG_RESULT,
            Frame::Error { .. } => TAG_ERROR,
            Frame::Bye => TAG_BYE,
            Frame::Busy { .. } => TAG_BUSY,
            Frame::MetricsRequest => TAG_METRICS_REQUEST,
            Frame::MetricsReport { .. } => TAG_METRICS_REPORT,
        }
    }
}

/// Writes a [`ServerTiming`] body.
fn put_timing(buf: &mut BytesMut, t: &ServerTiming) {
    buf.put_u32(t.worker);
    buf.put_u8(t.cause.to_byte());
    buf.put_u64(t.enqueue_nanos);
    buf.put_u64(t.dequeue_nanos);
    buf.put_u64(t.assembled_nanos);
    for &nanos in &t.stage_nanos {
        buf.put_u64(nanos);
    }
    buf.put_u64(t.encode_nanos);
    buf.put_u32(t.batch_size);
    let peers = t.batch_peers.len().min(MAX_BATCH_PEERS);
    buf.put_u32(peers as u32);
    for &peer in &t.batch_peers[..peers] {
        buf.put_u64(peer);
    }
}

/// Reads a [`ServerTiming`] body.
fn get_timing(buf: &mut Bytes) -> Result<ServerTiming, WireError> {
    // Fixed prefix: worker(4) + cause(1) + 8 × u64 offsets/stages
    // + batch_size(4) + peer count(4).
    need(buf, 4 + 1 + 8 * 8 + 4 + 4)?;
    let worker = buf.get_u32();
    let cause = TimingCause::from_byte(buf.get_u8())?;
    let enqueue_nanos = buf.get_u64();
    let dequeue_nanos = buf.get_u64();
    let assembled_nanos = buf.get_u64();
    let mut stage_nanos = [0u64; 4];
    for slot in &mut stage_nanos {
        *slot = buf.get_u64();
    }
    let encode_nanos = buf.get_u64();
    let batch_size = buf.get_u32();
    let n_peers = buf.get_u32() as usize;
    if n_peers > MAX_BATCH_PEERS {
        return Err(WireError::FieldOutOfRange {
            field: "batch_peers",
            value: n_peers as u64,
        });
    }
    need(buf, 8 * n_peers)?;
    let mut batch_peers = Vec::with_capacity(n_peers);
    for _ in 0..n_peers {
        batch_peers.push(buf.get_u64());
    }
    Ok(ServerTiming {
        worker,
        cause,
        enqueue_nanos,
        dequeue_nanos,
        assembled_nanos,
        stage_nanos,
        encode_nanos,
        batch_size,
        batch_peers,
    })
}

/// Writes an optional [`ServerTiming`] behind a 0/1 presence flag.
fn put_opt_timing(buf: &mut BytesMut, timing: &Option<ServerTiming>) {
    match timing {
        None => buf.put_u8(0),
        Some(t) => {
            buf.put_u8(1);
            put_timing(buf, t);
        }
    }
}

/// Reads an optional [`ServerTiming`] behind a 0/1 presence flag.
fn get_opt_timing(buf: &mut Bytes) -> Result<Option<ServerTiming>, WireError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(get_timing(buf)?)),
        other => Err(WireError::BadDetailFlag(other)),
    }
}

/// Serialises one protocol frame: [`WIRE_VERSION`], tag, body (layout
/// tabulated on [`WIRE_VERSION`]).
pub fn encode_frame(frame: &Frame) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(frame.tag());
    match frame {
        Frame::ClientHello { model } => put_string(&mut buf, model),
        Frame::ServerHello {
            session,
            encrypted_model,
            info,
        } => {
            buf.put_u64(*session);
            buf.put_u8(u8::from(*encrypted_model));
            put_query_info_body(&mut buf, info);
        }
        Frame::ListModels | Frame::MetricsRequest | Frame::Bye => {}
        Frame::ModelList { models } => {
            buf.put_u32(models.len() as u32);
            for name in models {
                put_string(&mut buf, name);
            }
        }
        Frame::Query {
            id,
            deadline_ms,
            trace,
            planes,
        } => {
            buf.put_u64(*id);
            buf.put_u32(*deadline_ms);
            match trace {
                None => buf.put_u8(0),
                Some(trace_id) => {
                    buf.put_u8(1);
                    buf.put_u64(*trace_id);
                }
            }
            buf.put_u32(planes.len() as u32);
            for plane in planes {
                put_blob(&mut buf, plane);
            }
        }
        Frame::Result {
            id,
            batch_size,
            ciphertext,
            timing,
        } => {
            buf.put_u64(*id);
            buf.put_u32(*batch_size);
            put_blob(&mut buf, ciphertext);
            put_opt_timing(&mut buf, timing);
        }
        Frame::Error {
            message,
            detail,
            timing,
        } => {
            put_string(&mut buf, message);
            match detail {
                None => buf.put_u8(0),
                Some(d) => {
                    buf.put_u8(1);
                    put_string(&mut buf, &d.model);
                    buf.put_u8(d.code.to_byte());
                    buf.put_u64(d.required);
                    buf.put_u64(d.available);
                }
            }
            put_opt_timing(&mut buf, timing);
        }
        Frame::Busy { id, detail, timing } => {
            buf.put_u64(*id);
            put_string(&mut buf, &detail.model);
            buf.put_u32(detail.queue_depth);
            buf.put_u32(detail.retry_after_ms.min(MAX_RETRY_AFTER_MS));
            put_opt_timing(&mut buf, timing);
        }
        Frame::MetricsReport { text } => {
            // A u32 length prefix (not the u16 string prefix): a full
            // exposition document easily outgrows 64 KiB.
            put_blob(&mut buf, text.as_bytes());
        }
    }
    buf.freeze()
}

/// Parses one protocol frame.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, a version byte other than
/// [`WIRE_VERSION`], an unknown tag, invalid UTF-8, an out-of-range
/// field, or bytes left over after the body.
pub fn decode_frame(mut buf: Bytes) -> Result<Frame, WireError> {
    need(&buf, 2)?;
    let version = buf.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = buf.get_u8();
    let frame = match tag {
        TAG_CLIENT_HELLO => Frame::ClientHello {
            model: get_string(&mut buf)?,
        },
        TAG_SERVER_HELLO => {
            need(&buf, 9)?;
            let session = buf.get_u64();
            let encrypted_model = buf.get_u8() != 0;
            Frame::ServerHello {
                session,
                encrypted_model,
                info: get_query_info_body(&mut buf)?,
            }
        }
        TAG_LIST_MODELS => Frame::ListModels,
        TAG_MODEL_LIST => {
            need(&buf, 4)?;
            let n = buf.get_u32() as usize;
            let mut models = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                models.push(get_string(&mut buf)?);
            }
            Frame::ModelList { models }
        }
        TAG_QUERY => {
            need(&buf, 12)?;
            let id = buf.get_u64();
            let deadline_ms = buf.get_u32();
            if deadline_ms > MAX_DEADLINE_MS {
                return Err(WireError::FieldOutOfRange {
                    field: "deadline_ms",
                    value: u64::from(deadline_ms),
                });
            }
            need(&buf, 1)?;
            let trace = match buf.get_u8() {
                0 => None,
                1 => {
                    need(&buf, 8)?;
                    Some(buf.get_u64())
                }
                other => return Err(WireError::BadDetailFlag(other)),
            };
            need(&buf, 4)?;
            let n = buf.get_u32() as usize;
            let mut planes = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                planes.push(get_blob(&mut buf)?);
            }
            Frame::Query {
                id,
                deadline_ms,
                trace,
                planes,
            }
        }
        TAG_RESULT => {
            need(&buf, 12)?;
            let id = buf.get_u64();
            let batch_size = buf.get_u32();
            let ciphertext = get_blob(&mut buf)?;
            Frame::Result {
                id,
                batch_size,
                ciphertext,
                timing: get_opt_timing(&mut buf)?,
            }
        }
        TAG_ERROR => {
            let message = get_string(&mut buf)?;
            need(&buf, 1)?;
            let detail = match buf.get_u8() {
                0 => None,
                1 => {
                    let model = get_string(&mut buf)?;
                    need(&buf, 17)?;
                    let code = RejectionCode::from_byte(buf.get_u8())?;
                    Some(RejectionDetail {
                        model,
                        code,
                        required: buf.get_u64(),
                        available: buf.get_u64(),
                    })
                }
                other => return Err(WireError::BadDetailFlag(other)),
            };
            Frame::Error {
                message,
                detail,
                timing: get_opt_timing(&mut buf)?,
            }
        }
        TAG_BYE => Frame::Bye,
        TAG_BUSY => {
            need(&buf, 8)?;
            let id = buf.get_u64();
            let model = get_string(&mut buf)?;
            need(&buf, 8)?;
            let queue_depth = buf.get_u32();
            let retry_after_ms = buf.get_u32();
            if retry_after_ms > MAX_RETRY_AFTER_MS {
                return Err(WireError::FieldOutOfRange {
                    field: "retry_after_ms",
                    value: u64::from(retry_after_ms),
                });
            }
            Frame::Busy {
                id,
                detail: ShedDetail {
                    model,
                    queue_depth,
                    retry_after_ms,
                },
                timing: get_opt_timing(&mut buf)?,
            }
        }
        TAG_METRICS_REQUEST => Frame::MetricsRequest,
        TAG_METRICS_REPORT => {
            let raw = get_blob(&mut buf)?;
            let text = String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadString)?;
            Frame::MetricsReport { text }
        }
        other => return Err(WireError::BadTag(other)),
    };
    if buf.remaining() > 0 {
        return Err(WireError::TrailingBytes {
            extra: buf.remaining(),
        });
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::CompileOptions;
    use crate::runtime::Maurice;
    use copse_forest::model::Forest;

    fn sample_info() -> QueryInfo {
        let forest = Forest::parse(
            "labels no maybe yes\n\
             tree (branch 0 9 (branch 1 4 (leaf 0) (leaf 1)) (leaf 2))\n",
        )
        .unwrap();
        Maurice::compile(&forest, CompileOptions::default())
            .unwrap()
            .public_query_info()
    }

    /// A `ServerHello` carrying `info`: the one frame the handshake
    /// travels in.
    fn hello(info: QueryInfo) -> Frame {
        Frame::ServerHello {
            session: 1,
            encrypted_model: false,
            info,
        }
    }

    #[test]
    fn roundtrip() {
        // `sample_frames()` pins a chained backend's entry level; this
        // is the chainless encoding (`entry_primes` 0 on the wire).
        let info = sample_info();
        assert_eq!(info.entry_primes, None);
        assert_eq!(
            decode_frame(encode_frame(&hello(info.clone()))).unwrap(),
            hello(info)
        );
    }

    #[test]
    fn roundtrip_with_unicode_labels() {
        let mut info = sample_info();
        info.label_names = vec!["否".into(), "peut-être".into(), "да".into()];
        let frame = hello(info);
        assert_eq!(decode_frame(encode_frame(&frame)).unwrap(), frame);
    }

    #[test]
    fn truncation_detected_at_every_length() {
        // Multi-byte labels: a cut inside a UTF-8 sequence is still
        // truncation, never a string error.
        let mut info = sample_info();
        info.label_names = vec!["否".into(), "peut-être".into(), "да".into()];
        let encoded = encode_frame(&hello(info));
        for cut in 0..encoded.len() {
            let err = decode_frame(encoded.slice(0..cut)).unwrap_err();
            assert_eq!(err, WireError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn version_and_tag_checked() {
        let mut bad = encode_frame(&hello(sample_info())).to_vec();
        for version in [WIRE_VERSION - 1, WIRE_VERSION + 1] {
            bad[0] = version;
            assert_eq!(
                decode_frame(Bytes::from(bad.clone())).unwrap_err(),
                WireError::BadVersion(version)
            );
        }
        // 0x51 tagged the standalone query-info message; the same
        // bytes under that tag are no longer a message.
        bad[0] = WIRE_VERSION;
        bad[1] = 0x51;
        assert_eq!(
            decode_frame(Bytes::from(bad)).unwrap_err(),
            WireError::BadTag(0x51)
        );
    }

    #[test]
    fn codebook_validation() {
        // The first label past the alphabet is already out of range.
        let mut info = sample_info();
        info.codebook[0] = info.label_names.len();
        let err = decode_frame(encode_frame(&hello(info))).unwrap_err();
        assert_eq!(
            err,
            WireError::BadCodebook {
                index: 3,
                labels: 3
            }
        );
    }

    fn sample_timing() -> ServerTiming {
        ServerTiming {
            worker: 3,
            cause: TimingCause::Served,
            enqueue_nanos: 12_000,
            dequeue_nanos: 480_000,
            assembled_nanos: 530_000,
            stage_nanos: [1_000_000, 700_000, 3_300_000, 60_000],
            encode_nanos: 5_700_000,
            batch_size: 4,
            batch_peers: vec![0xAAAA_0001, 0xAAAA_0002],
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::ClientHello {
                model: "income5".into(),
            },
            Frame::ServerHello {
                session: 0xDEAD_BEEF_0042,
                encrypted_model: true,
                info: QueryInfo {
                    entry_primes: Some(11),
                    ..sample_info()
                },
            },
            Frame::ListModels,
            Frame::ModelList {
                models: vec!["income5".into(), "soccer15".into(), "µ-bench".into()],
            },
            Frame::Query {
                id: 7,
                deadline_ms: 2_500,
                trace: Some(0x7ACE_D007_0000_0001),
                planes: vec![
                    Bytes::from(vec![0xC1, 0, 1, 2]),
                    Bytes::from(vec![0xC1]),
                    Bytes::new(),
                ],
            },
            Frame::Result {
                id: 7,
                batch_size: 3,
                ciphertext: Bytes::from(vec![9u8; 33]),
                timing: Some(sample_timing()),
            },
            Frame::MetricsRequest,
            Frame::MetricsReport {
                text: "# TYPE copse_queries_served counter\n\
                       copse_queries_served 1000003\n"
                    .into(),
            },
            Frame::Busy {
                id: 99,
                detail: ShedDetail {
                    model: "income5".into(),
                    queue_depth: 64,
                    retry_after_ms: 250,
                },
                timing: Some(ServerTiming {
                    worker: 0,
                    cause: TimingCause::Shed,
                    enqueue_nanos: 9_000,
                    dequeue_nanos: 9_000,
                    assembled_nanos: 9_000,
                    stage_nanos: [0; 4],
                    encode_nanos: 11_000,
                    batch_size: 0,
                    batch_peers: Vec::new(),
                }),
            },
            Frame::Error {
                message: "model `chess` rejected at deploy time".into(),
                detail: Some(RejectionDetail {
                    model: "chess".into(),
                    code: RejectionCode::DepthExceeded,
                    required: 19,
                    available: 14,
                }),
                timing: Some(ServerTiming {
                    worker: 2,
                    cause: TimingCause::Expired,
                    enqueue_nanos: 14_000,
                    dequeue_nanos: 2_600_000,
                    assembled_nanos: 2_600_000,
                    stage_nanos: [0; 4],
                    encode_nanos: 2_700_000,
                    batch_size: 0,
                    batch_peers: Vec::new(),
                }),
            },
            Frame::Bye,
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for frame in sample_frames() {
            let decoded = decode_frame(encode_frame(&frame)).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn frame_tags_are_distinct() {
        let frames = sample_frames();
        let mut tags: Vec<u8> = frames.iter().map(Frame::tag).collect();
        tags.sort_unstable();
        let n = tags.len();
        tags.dedup();
        assert_eq!(tags.len(), n, "duplicate frame tag");
    }

    #[test]
    fn frame_truncation_detected_at_every_length() {
        for frame in sample_frames() {
            let encoded = encode_frame(&frame);
            for cut in 0..encoded.len() {
                let err = decode_frame(encoded.slice(0..cut)).unwrap_err();
                assert_eq!(err, WireError::Truncated, "{frame:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn retired_stats_tags_are_bad_tags() {
        // 0x07/0x08 carried a binary statistics pair the metrics pull
        // replaced; the tags stay reserved so they can never be reused
        // for something an old peer would misparse.
        for tag in [0x07u8, 0x08] {
            assert!(sample_frames().iter().all(|f| f.tag() != tag));
            assert_eq!(
                decode_frame(Bytes::from(vec![WIRE_VERSION, tag])).unwrap_err(),
                WireError::BadTag(tag)
            );
        }
    }

    #[test]
    fn oversized_retry_after_ms_is_rejected_not_trusted() {
        // The encoder clamps; a hand-crafted frame past the cap is
        // rejected so a hostile server cannot park clients forever.
        let frame = Frame::Busy {
            id: 7,
            detail: ShedDetail {
                model: "m".into(),
                queue_depth: 8,
                retry_after_ms: 100,
            },
            timing: None,
        };
        let mut bytes = encode_frame(&frame).to_vec();
        // The body ends retry_after_ms(4) + timing flag(1).
        let at = bytes.len() - 5;
        bytes[at..at + 4].copy_from_slice(&(MAX_RETRY_AFTER_MS + 1).to_be_bytes());
        assert_eq!(
            decode_frame(Bytes::from(bytes)).unwrap_err(),
            WireError::FieldOutOfRange {
                field: "retry_after_ms",
                value: u64::from(MAX_RETRY_AFTER_MS) + 1,
            }
        );
    }

    #[test]
    fn encoder_clamps_retry_after_ms_to_the_wire_cap() {
        let frame = Frame::Busy {
            id: 7,
            detail: ShedDetail {
                model: "m".into(),
                queue_depth: 8,
                retry_after_ms: u32::MAX,
            },
            timing: None,
        };
        match decode_frame(encode_frame(&frame)).unwrap() {
            Frame::Busy { detail, .. } => assert_eq!(detail.retry_after_ms, MAX_RETRY_AFTER_MS),
            other => panic!("expected Busy, got {other:?}"),
        }
    }

    #[test]
    fn oversized_query_deadline_is_rejected() {
        // deadline_ms sits right after the 8-byte query id.
        let frame = Frame::Query {
            id: 3,
            deadline_ms: 0,
            trace: None,
            planes: vec![Bytes::copy_from_slice(b"p")],
        };
        let mut bytes = encode_frame(&frame).to_vec();
        bytes[10..14].copy_from_slice(&(MAX_DEADLINE_MS + 1).to_be_bytes());
        assert_eq!(
            decode_frame(Bytes::from(bytes)).unwrap_err(),
            WireError::FieldOutOfRange {
                field: "deadline_ms",
                value: u64::from(MAX_DEADLINE_MS) + 1,
            }
        );
    }

    /// FNV-1a, 64 bit.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Encoded length of an optional timing record: the flag, then
    /// worker(4) + cause(1) + 8 × u64 + batch_size(4) + count(4) +
    /// peers.
    fn timing_len(timing: &Option<ServerTiming>) -> usize {
        1 + timing
            .as_ref()
            .map_or(0, |t| 4 + 1 + 8 * 8 + 4 + 4 + 8 * t.batch_peers.len())
    }

    #[test]
    fn encodings_are_pinned() {
        // Hashes of v7, in `sample_frames()` order: v6 (captured at
        // 3886199, where it survived the collapse to one dialect byte
        // for byte) plus the query info's `entry_primes`, and the new
        // version byte in every frame.
        let want: [u64; 11] = [
            0xD326_3A13_D9CA_14CA, // ClientHello
            0xB474_65FD_1AF3_7EE9, // ServerHello
            0x0828_5507_B4E2_C4BF, // ListModels
            0x73B3_6CEF_7DF5_C9EF, // ModelList
            0x78D1_7B11_1708_A82D, // Query
            0xA1A1_42A4_B00C_3FE3, // Result
            0x0828_5A07_B4E2_CD3E, // MetricsRequest
            0x6AA1_FC7B_164C_85F3, // MetricsReport
            0x2555_A43D_1041_394E, // Busy
            0xF42A_53FC_5D59_80A6, // Error
            0x0828_5C07_B4E2_D0A4, // Bye
        ];
        let got: Vec<u64> = sample_frames()
            .iter()
            .map(|f| fnv1a(&encode_frame(f)))
            .collect();
        assert_eq!(got, want, "frame bytes changed; got {got:#018X?}");

        // Length pins for the frames with optional sections, derived
        // from the layout table on WIRE_VERSION.
        for frame in sample_frames() {
            let expected = match &frame {
                Frame::Query { trace, planes, .. } => {
                    let trace_len = 1 + trace.map_or(0, |_| 8);
                    2 + 8 + 4 + trace_len + 4 + planes.iter().map(|p| 4 + p.len()).sum::<usize>()
                }
                Frame::Result {
                    ciphertext, timing, ..
                } => 2 + 8 + 4 + 4 + ciphertext.len() + timing_len(timing),
                Frame::Busy { detail, timing, .. } => {
                    2 + 8 + 2 + detail.model.len() + 4 + 4 + timing_len(timing)
                }
                Frame::Error {
                    message,
                    detail,
                    timing,
                } => {
                    // flag(1), then model + code(1) + required(8) +
                    // available(8) when present.
                    let detail_len =
                        1 + detail.as_ref().map_or(0, |d| 2 + d.model.len() + 1 + 8 + 8);
                    2 + 2 + message.len() + detail_len + timing_len(timing)
                }
                _ => continue,
            };
            assert_eq!(encode_frame(&frame).len(), expected, "{frame:?}");
        }
    }

    #[test]
    fn error_without_detail_roundtrips() {
        // `sample_frames()` only carries an Error with every optional
        // section present; this is the all-absent body.
        let frame = Frame::Error {
            message: "unknown model `chess`".into(),
            detail: None,
            timing: None,
        };
        let encoded = encode_frame(&frame);
        assert_eq!(encoded.len(), 2 + 2 + "unknown model `chess`".len() + 1 + 1);
        assert_eq!(decode_frame(encoded).unwrap(), frame);
    }

    #[test]
    fn rejection_code_bytes_are_stable_and_checked() {
        for code in [
            RejectionCode::DepthExceeded,
            RejectionCode::SlotCapacityExceeded,
            RejectionCode::ChainExceeded,
        ] {
            assert_eq!(RejectionCode::from_byte(code.to_byte()).unwrap(), code);
        }
        for byte in [0, 2] {
            assert_eq!(
                RejectionCode::from_byte(byte).unwrap_err(),
                WireError::BadRejectionCode(byte)
            );
        }
        // A corrupted detail flag is rejected, not guessed at. The
        // body ends detail flag(1) + timing flag(1).
        let mut bytes = encode_frame(&Frame::Error {
            message: "m".into(),
            detail: None,
            timing: None,
        })
        .to_vec();
        let flag_at = bytes.len() - 2;
        bytes[flag_at] = 7;
        assert_eq!(
            decode_frame(Bytes::from(bytes)).unwrap_err(),
            WireError::BadDetailFlag(7)
        );
    }

    #[test]
    fn timing_cause_bytes_are_stable_and_checked() {
        for cause in [
            TimingCause::Served,
            TimingCause::Shed,
            TimingCause::Expired,
            TimingCause::Failed,
        ] {
            assert_eq!(TimingCause::from_byte(cause.to_byte()).unwrap(), cause);
        }
        assert_eq!(
            TimingCause::from_byte(9).unwrap_err(),
            WireError::BadTimingCause(9)
        );
        // A corrupted cause byte inside a framed timing record is
        // rejected at decode, not guessed at. The cause sits right
        // after the timing flag and the 4-byte worker id; the record
        // here rides a Result frame whose body is
        // id(8) + batch_size(4) + blob(4 + len) before the flag.
        let frame = Frame::Result {
            id: 1,
            batch_size: 1,
            ciphertext: Bytes::from(vec![7u8; 5]),
            timing: Some(sample_timing()),
        };
        let mut bytes = encode_frame(&frame).to_vec();
        let cause_at = 2 + 8 + 4 + 4 + 5 + 1 + 4;
        bytes[cause_at] = 200;
        assert_eq!(
            decode_frame(Bytes::from(bytes)).unwrap_err(),
            WireError::BadTimingCause(200)
        );
    }

    #[test]
    fn hostile_batch_peer_count_is_rejected() {
        // The peer count is the last 4 bytes before the (empty) peer
        // list when the sample's peers are cleared; a count past
        // MAX_BATCH_PEERS must be refused before any allocation.
        let mut timing = sample_timing();
        timing.batch_peers.clear();
        let frame = Frame::Result {
            id: 1,
            batch_size: 1,
            ciphertext: Bytes::new(),
            timing: Some(timing),
        };
        let mut bytes = encode_frame(&frame).to_vec();
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&((MAX_BATCH_PEERS as u32) + 1).to_be_bytes());
        assert_eq!(
            decode_frame(Bytes::from(bytes)).unwrap_err(),
            WireError::FieldOutOfRange {
                field: "batch_peers",
                value: MAX_BATCH_PEERS as u64 + 1,
            }
        );
    }

    #[test]
    fn hostile_trace_flag_is_rejected() {
        // The trace presence flag sits right after the deadline.
        let frame = Frame::Query {
            id: 3,
            deadline_ms: 0,
            trace: None,
            planes: vec![Bytes::copy_from_slice(b"p")],
        };
        let mut bytes = encode_frame(&frame).to_vec();
        bytes[14] = 3;
        assert_eq!(
            decode_frame(Bytes::from(bytes)).unwrap_err(),
            WireError::BadDetailFlag(3)
        );
    }

    #[test]
    fn hostile_timing_flag_is_rejected() {
        // The timing presence flag is the last byte of a timing-free
        // Result body.
        let frame = Frame::Result {
            id: 1,
            batch_size: 1,
            ciphertext: Bytes::new(),
            timing: None,
        };
        let mut bytes = encode_frame(&frame).to_vec();
        let at = bytes.len() - 1;
        bytes[at] = 2;
        assert_eq!(
            decode_frame(Bytes::from(bytes)).unwrap_err(),
            WireError::BadDetailFlag(2)
        );
    }

    #[test]
    fn metrics_report_text_must_be_utf8() {
        let mut bytes = encode_frame(&Frame::MetricsReport { text: "ab".into() }).to_vec();
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        bytes[n - 2] = 0xFE;
        assert_eq!(
            decode_frame(Bytes::from(bytes)).unwrap_err(),
            WireError::BadString
        );
    }

    #[test]
    fn frame_version_and_tag_checked() {
        // One dialect: every byte but WIRE_VERSION is refused, the
        // neighbours 5 and 7 like any other.
        for frame in sample_frames() {
            let mut bad_version = encode_frame(&frame).to_vec();
            for version in (0..=u8::MAX).filter(|&v| v != WIRE_VERSION) {
                bad_version[0] = version;
                assert_eq!(
                    decode_frame(Bytes::from(bad_version.clone())).unwrap_err(),
                    WireError::BadVersion(version)
                );
            }
        }
        let mut bad_tag = encode_frame(&Frame::Bye).to_vec();
        bad_tag[1] = 0x7F;
        assert_eq!(
            decode_frame(Bytes::from(bad_tag)).unwrap_err(),
            WireError::BadTag(0x7F)
        );
    }

    #[test]
    fn frame_trailing_bytes_rejected() {
        for frame in sample_frames() {
            let mut bad = encode_frame(&frame).to_vec();
            bad.extend_from_slice(&[0xAB, 0xCD]);
            assert_eq!(
                decode_frame(Bytes::from(bad)).unwrap_err(),
                WireError::TrailingBytes { extra: 2 },
                "{frame:?}"
            );
        }
    }

    #[test]
    fn server_hello_validates_codebook_like_query_info() {
        let mut info = sample_info();
        info.codebook[0] = 77;
        let err = decode_frame(encode_frame(&hello(info))).unwrap_err();
        assert_eq!(
            err,
            WireError::BadCodebook {
                index: 77,
                labels: 3
            }
        );
    }

    #[test]
    fn non_utf8_strings_rejected() {
        let mut bad = encode_frame(&Frame::ClientHello { model: "ab".into() }).to_vec();
        let n = bad.len();
        bad[n - 1] = 0xFF;
        bad[n - 2] = 0xFE;
        assert_eq!(
            decode_frame(Bytes::from(bad)).unwrap_err(),
            WireError::BadString
        );
    }

    #[test]
    fn handshake_reveals_only_public_data() {
        // Beyond the session id and model form, the hello must carry
        // exactly the fields of the paper's step-0 handshake: K,
        // feature count, precision, result width and codebook -
        // nothing about thresholds or structure - plus the entry
        // level, a function of that shape and the backend's
        // parameters alone.
        let info = sample_info();
        let encoded = encode_frame(&hello(info.clone()));
        // 2 (header) + session(8) + form(1) + 5*4 + labels + 4 +
        // codebook + entry_primes
        let label_bytes: usize = info.label_names.iter().map(|n| 2 + n.len()).sum();
        assert_eq!(
            encoded.len(),
            2 + 8 + 1 + 20 + label_bytes + 4 + 4 * info.codebook.len() + 4
        );
    }
}
