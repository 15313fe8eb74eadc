//! Per-layer measurements shared by the workloads, all taken from
//! outside: isolated kernel timings through `FheBackend`, one direct
//! `Sally` query whose meter counts are exact, the static analyzer's
//! prediction beside them, and the wire codec.

use crate::report::{Report, Spans};
use copse::analyze::{BackendProfile, CircuitReport, EvalShape};
use copse::core::artifacts::BoolMatrix;
use copse::core::matmul::{mat_vec, EncodedMatrix, MatMulOptions};
use copse::core::parallel::Parallelism;
use copse::core::runtime::{DeployedModel, Diane, EvalOptions, Maurice, ModelForm, Sally};
use copse::core::wire::{decode_frame, encode_frame, Frame};
use copse::fhe::{transform_snapshot, BitVec, CostModel, FheBackend, OpCounts};
use copse::forest::Forest;
use copse::trace::Stopwatch;
use std::hint::black_box;

/// Slot width the kernels are probed at: the slot count of the BGV
/// parameter point. The clear backend is probed at the same width.
pub const PROBE_WIDTH: usize = 18;

/// Median per-call milliseconds of `f` over `reps` timings of `iters`
/// back-to-back calls (`iters > 1` for calls too short to time alone).
fn median_call_ms<R>(reps: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let timings: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let sw = Stopwatch::start();
            for _ in 0..iters {
                black_box(f());
            }
            sw.elapsed().as_secs_f64() * 1e3 / iters as f64
        })
        .collect();
    crate::stats::median(&timings)
}

/// Fresh-level kernel medians, in milliseconds.
pub struct Kernels {
    rotate: f64,
    multiply: f64,
    mul_plain: f64,
    add: f64,
    add_plain: f64,
}

impl Kernels {
    /// Σ count × kernel median: what the stages would cost if every
    /// operation ran at fresh-level kernel speed.
    fn modeled_ms(&self, ops: &OpCounts) -> f64 {
        ops.rotate as f64 * self.rotate
            + ops.multiply as f64 * self.multiply
            + ops.constant_multiply as f64 * self.mul_plain
            + ops.add as f64 * self.add
            + ops.constant_add as f64 * self.add_plain
    }
}

/// Times each `FheBackend` kernel on fresh ciphertexts, plus one
/// square plaintext `mat_vec`, and records the `fhe.*` and
/// `core.matmul.*` metrics.
pub fn kernels<B: FheBackend>(
    backend: &B,
    reps: usize,
    threads: usize,
    spans: &mut Spans,
    report: &mut Report,
) -> Kernels {
    let n = PROBE_WIDTH;
    let bits_a = BitVec::from_fn(n, |i| i % 2 == 0);
    let bits_b = BitVec::from_fn(n, |i| i % 3 != 0);
    let pt = backend.encode(&bits_b);
    backend.prepare_plaintext(&pt);
    let a = backend.encrypt_bits(&bits_a);
    let b = backend.encrypt_bits(&bits_b);
    let wire = backend.serialize_ciphertext(&a);
    // Calls in the microsecond range are timed in runs of 64.
    let few = 64;
    let r = reps as u64;

    let (kernels, _) = spans.time("probe.kernels", |_| Kernels {
        rotate: median_call_ms(reps, 1, || backend.rotate(&a, 1)),
        multiply: median_call_ms(reps, 1, || backend.mul(&a, &b)),
        mul_plain: median_call_ms(reps, 1, || backend.mul_plain(&a, &pt)),
        add: median_call_ms(reps, few, || backend.add(&a, &b)),
        add_plain: median_call_ms(reps, few, || backend.add_plain(&a, &pt)),
    });
    report.set("fhe.rotate_ms", kernels.rotate, r);
    report.set("fhe.multiply_ms", kernels.multiply, r);
    report.set("fhe.mul_plain_ms", kernels.mul_plain, r);
    report.set("fhe.add_us", kernels.add * 1e3, r);

    let (_, _) = spans.time("probe.codec", |_| {
        let encrypt = median_call_ms(reps, 1, || backend.encrypt_bits(&bits_a));
        let decrypt = median_call_ms(reps, 1, || backend.decrypt(&a));
        let ser = median_call_ms(reps, few, || backend.serialize_ciphertext(&a));
        let de = median_call_ms(reps, few, || backend.deserialize_ciphertext(&wire).is_ok());
        report.set("fhe.encrypt_ms", encrypt, r);
        report.set("fhe.decrypt_ms", decrypt, r);
        report.set("fhe.serialize_us", ser * 1e3, r);
        report.set("fhe.deserialize_us", de * 1e3, r);
        report.set("fhe.ciphertext_bytes", wire.len() as f64, 1);
    });

    // A dense-ish n x n plaintext matrix with a fixed pattern: every
    // diagonal is non-zero, so the product pays n - 1 rotations and n
    // plaintext multiplies — the shape of one level of the levels stage.
    let mut matrix = BoolMatrix::zeros(n, n);
    for row in 0..n {
        for col in 0..n {
            matrix.set(row, col, (row * 7 + col * 3) % 5 < 2);
        }
    }
    let encoded = EncodedMatrix::encode_plain(backend, &matrix);
    encoded.precompute(backend);
    let (ms, _) = spans.time("probe.mat_vec", |_| {
        median_call_ms(reps, 1, || {
            mat_vec(
                backend,
                &encoded,
                &a,
                MatMulOptions::default(),
                Parallelism { threads },
            )
        })
    });
    report.set("core.matmul.mat_vec_ms", ms, r);
    kernels
}

/// Runs the static analyzer over the model the way admission does and
/// returns its report; `analyze.admit_ms` is timed by the caller.
pub fn analyze<B: FheBackend>(
    backend: &B,
    maurice: &Maurice,
    form: ModelForm,
) -> (CircuitReport, bool) {
    let circuit = CircuitReport::analyze(maurice.compiled(), &EvalShape::plan(maurice, form));
    let admitted = circuit.admit(&BackendProfile::of(backend)).is_empty();
    (circuit, admitted)
}

/// One query evaluated directly on `Sally` (no server), at the host's
/// thread count and again single-threaded: exact op and transform
/// counts, consumed depth, the analyzer's prediction beside them, and
/// the pool's speed-up. The server must be idle — transform counters
/// are process-wide.
#[allow(clippy::too_many_arguments)]
pub fn direct_query<B: FheBackend>(
    backend: &B,
    maurice: &Maurice,
    deployed: &DeployedModel<B>,
    forest: &Forest,
    features: &[u64],
    threads: usize,
    kernels: &Kernels,
    spans: &mut Spans,
    report: &mut Report,
) {
    let diane = Diane::new(backend, maurice.public_query_info());
    let query = diane
        .encrypt_features(features)
        .expect("features fit the model");
    let want = forest.classify_leaf_hits(features);
    let host = |threads| {
        backend.set_kernel_threads(threads);
        Sally::with_options(
            backend,
            deployed.clone(),
            EvalOptions {
                parallelism: Parallelism { threads },
                ..EvalOptions::default()
            },
        )
    };

    let sally = host(threads);
    let transforms_before = transform_snapshot();
    let ((result, trace), wall) =
        spans.time("probe.direct_query", |_| sally.classify_traced(&query));
    let transforms = transform_snapshot().since(&transforms_before).total();
    let got = diane.decrypt_result(&result).leaf_hits().to_bools();
    report.tally.check(Some(&got), &want);
    let eval_ms = wall.as_secs_f64() * 1e3;

    let ops = trace.total_ops();
    report.set("fhe.ops.rotate", ops.rotate as f64, 1);
    report.set("fhe.ops.multiply", ops.multiply as f64, 1);
    report.set("fhe.ops.constant_multiply", ops.constant_multiply as f64, 1);
    report.set("fhe.ops.add", ops.add as f64, 1);
    report.set("fhe.ops.constant_add", ops.constant_add as f64, 1);
    report.set("fhe.ntt_transforms", transforms as f64, 1);
    report.set(
        "fhe.depth_consumed",
        f64::from(backend.depth(result.ciphertext())),
        1,
    );
    report.set(
        "fhe.kernel_model_share",
        kernels.modeled_ms(&ops) / eval_ms,
        1,
    );

    let (circuit, admitted) = analyze(backend, maurice, deployed.form());
    report.require(admitted, || "the analyzer does not admit the model".into());
    let predicted = circuit.total_ops();
    let ops_match = (
        predicted.rotate,
        predicted.multiply,
        predicted.constant_multiply,
    ) == (ops.rotate, ops.multiply, ops.constant_multiply)
        && (predicted.add, predicted.constant_add) == (ops.add, ops.constant_add);
    report.require(ops_match, || {
        format!("analyzer predicts {predicted:?}, the meter counted {ops:?}")
    });
    let modeled_ms = circuit.modeled_ms(&CostModel::default());
    report.set("analyze.predicted_depth", f64::from(circuit.depth), 1);
    report.set("analyze.ops_match", f64::from(u8::from(ops_match)), 1);
    report.set("analyze.modeled_ms", modeled_ms, 1);
    report.set("analyze.model_error_x", eval_ms / modeled_ms, 1);

    let sequential = host(1);
    let ((result, _), wall_1) = spans.time("probe.direct_query_1_thread", |_| {
        sequential.classify_traced(&query)
    });
    let got = diane.decrypt_result(&result).leaf_hits().to_bools();
    report.tally.check(Some(&got), &want);
    backend.set_kernel_threads(threads);
    report.set("pool.speedup_x", wall_1.as_secs_f64() * 1e3 / eval_ms, 1);
}

/// Encoded sizes of one query's two frames, length prefixes included.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireBytes {
    pub query: usize,
    pub result: usize,
}

impl WireBytes {
    /// `transport::write_frame` prefixes every frame with its `u32`
    /// length.
    const LENGTH_PREFIX: usize = 4;

    pub fn of(query: &Frame, result: &Frame) -> Self {
        Self {
            query: encode_frame(query).len() + Self::LENGTH_PREFIX,
            result: encode_frame(result).len() + Self::LENGTH_PREFIX,
        }
    }

    pub fn total(&self) -> usize {
        self.query + self.result
    }
}

/// The `Query` frame `InferenceClient` would send for these planes.
pub fn query_frame<B: FheBackend>(backend: &B, planes: &[B::Ciphertext]) -> Frame {
    Frame::Query {
        id: 1,
        deadline_ms: 0,
        trace: None,
        planes: planes
            .iter()
            .map(|ct| backend.serialize_ciphertext(ct).into())
            .collect(),
    }
}

/// The `Result` frame the server would answer with.
pub fn result_frame<B: FheBackend>(backend: &B, result: &B::Ciphertext) -> Frame {
    Frame::Result {
        id: 1,
        batch_size: 1,
        ciphertext: backend.serialize_ciphertext(result).into(),
        timing: None,
    }
}

/// Times encoding and decoding one `Query` frame and records the
/// `core.wire.*` metrics.
pub fn wire_codec(query: &Frame, bytes: WireBytes, reps: usize, report: &mut Report) {
    let encoded = encode_frame(query);
    let encode = median_call_ms(reps, 16, || encode_frame(query));
    let decode = median_call_ms(reps, 16, || decode_frame(encoded.clone()).is_ok());
    report.set("core.wire.query_frame_bytes", bytes.query as f64, 1);
    report.set("core.wire.result_frame_bytes", bytes.result as f64, 1);
    report.set("core.wire.encode_query_us", encode * 1e3, reps as u64);
    report.set("core.wire.decode_query_us", decode * 1e3, reps as u64);
}
