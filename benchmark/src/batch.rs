//! `bgv_batch_packed`: the paper's in-process setting. Batches of
//! seven queries on the Fig. 1 tree go straight into
//! `Sally::classify_batch`, where cross-query slot packing puts three
//! queries in each ciphertext: two full chunks, and a one-query
//! remainder that falls back to the stage-major path.

use crate::probes::{self, WireBytes};
use crate::procfs;
use crate::report::{Report, Spans};
use crate::stats::{median, median_ms, summarize, Sample};
use crate::RunCfg;
use copse::core::compiler::CompileOptions;
use copse::core::parallel::Parallelism;
use copse::core::runtime::{
    DeployedModel, Diane, EvalOptions, EvalTrace, Maurice, ModelForm, PackingMode, Sally,
};
use copse::core::wire::Frame;
use copse::fhe::FheBackend;
use copse::forest::microbench;
use copse::forest::Forest;
use copse::trace::Stopwatch;
use std::time::Duration;

/// The paper's running example (Fig. 1), 6-bit thresholds: 5 branches,
/// 6 leaves, a 6-slot query block — three blocks fit 18 slots.
const FIG1_TREE: &str = "precision 6\n\
    labels L0 L1 L2 L3 L4 L5\n\
    tree (branch 1 50 \
            (branch 0 30 \
               (branch 1 10 (leaf 0) (leaf 1)) \
               (branch 0 20 (leaf 2) (leaf 3))) \
            (branch 1 40 (leaf 4) (leaf 5)))\n";

const FORM: ModelForm = ModelForm::Plain;

/// Queries per pass, and the lane occupancy each must report: two
/// full 3-lane chunks and a solo remainder.
const BATCH: usize = 7;
const PACKED_SIZES: [u32; BATCH] = [3, 3, 3, 3, 3, 3, 1];
const LANES: u32 = 3;

/// Batches drawn per run; passes cycle through them.
const BATCH_POOL: usize = 64;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Live<B: FheBackend> {
    backend: B,
    forest: Forest,
    maurice: Maurice,
    deployed: DeployedModel<B>,
    times: SetupTimes,
}

#[derive(Clone, Copy, Default)]
struct SetupTimes {
    total: Duration,
    forest: Duration,
    keygen: Duration,
    compile: Duration,
    admit: Duration,
    deploy: Duration,
}

fn sally<B: FheBackend>(live: &Live<B>, threads: usize, packing: PackingMode) -> Sally<'_, B> {
    Sally::with_options(
        &live.backend,
        live.deployed.clone(),
        EvalOptions {
            parallelism: Parallelism { threads },
            packing,
            ..EvalOptions::default()
        },
    )
}

/// One pass: encrypt seven queries, evaluate them as one batch,
/// decrypt and check all seven. Returns the pass wall time, the
/// evaluator's stage trace and, for the wire metric, the frames the
/// first query and its answer would travel in.
fn pass<B: FheBackend>(
    live: &Live<B>,
    sally: &Sally<'_, B>,
    batch: &[Vec<u64>],
    spans: &mut Spans,
    report: &mut Report,
) -> (Duration, EvalTrace, (Frame, Frame)) {
    let diane = Diane::new(&live.backend, live.maurice.public_query_info());
    let ((trace, frames), wall) = spans.time("pass", |spans| {
        let (queries, _) = spans.time("pass.encrypt", |_| {
            batch
                .iter()
                .map(|q| diane.encrypt_features(q).expect("features fit the model"))
                .collect::<Vec<_>>()
        });
        let ((results, trace), _) = spans.time("pass.classify_batch", |_| {
            sally.classify_batch_traced(&queries)
        });
        let (outcomes, _) = spans.time("pass.decrypt", |_| {
            results
                .iter()
                .map(|r| diane.decrypt_result(r))
                .collect::<Vec<_>>()
        });
        for (features, outcome) in batch.iter().zip(&outcomes) {
            report.tally.check(
                Some(&outcome.leaf_hits().to_bools()),
                &live.forest.classify_leaf_hits(features),
            );
        }
        for _ in outcomes.len()..batch.len() {
            report.tally.check(None, &[]);
        }
        let frames = (
            probes::query_frame(&live.backend, queries[0].planes()),
            probes::result_frame(&live.backend, results[0].ciphertext()),
        );
        (trace, frames)
    });
    (wall, trace, frames)
}

/// Key generation, model build, compile, admission and deploy.
fn build<B: FheBackend>(
    cfg: &RunCfg,
    make: &impl Fn() -> B,
    spans: &mut Spans,
) -> Result<Live<B>, String> {
    let (live, total) = spans.time("setup.build", |spans| {
        let (forest, forest_t) = spans.time("setup.forest", |_| Forest::parse(FIG1_TREE));
        let forest = forest.map_err(|e| format!("Fig. 1 tree: {e}"))?;
        let (backend, keygen) = spans.time("setup.keygen", |_| make());
        // What `ServerBuilder::threads` does for a served model.
        backend.set_kernel_threads(cfg.host_cores);
        let (maurice, compile) = spans.time("setup.compile", |_| {
            Maurice::compile(&forest, CompileOptions::default())
        });
        let maurice = maurice.map_err(|e| format!("compile: {e}"))?;
        let ((_, admitted), admit) =
            spans.time("setup.admit", |_| probes::analyze(&backend, &maurice, FORM));
        if !admitted {
            return Err("the analyzer does not admit the Fig. 1 tree".to_string());
        }
        let (deployed, deploy) = spans.time("setup.deploy", |_| maurice.deploy(&backend, FORM));
        Ok(Live {
            backend,
            forest,
            maurice,
            deployed,
            times: SetupTimes {
                total: Duration::ZERO,
                forest: forest_t,
                keygen,
                compile,
                admit,
                deploy,
            },
        })
    });
    live.map(|mut live| {
        live.times.total = total;
        live
    })
}

/// A packed evaluator over a built model with its first pass checked,
/// and the frames of that pass's first query.
struct Warm<'a, B: FheBackend> {
    sally: Sally<'a, B>,
    wire: WireBytes,
    query_frame: Frame,
    took: Duration,
}

/// The rest of set-up: host the model, tile it for the packed layout
/// and run one checked pass, so every lazy cache is full.
fn warm<'a, B: FheBackend>(
    cfg: &RunCfg,
    live: &'a Live<B>,
    first: &[Vec<u64>],
    spans: &mut Spans,
    report: &mut Report,
) -> Result<Warm<'a, B>, String> {
    let (warmed, took) = spans.time("setup.warm", |spans| {
        let sally = sally(live, cfg.host_cores, PackingMode::Auto);
        let (plan, _) = spans.time("setup.warm_packed", |_| sally.warm_packed());
        if plan.map(|p| p.lanes as u32) != Some(LANES) {
            return Err(format!("expected a {LANES}-lane pack plan, got {plan:?}"));
        }
        let (_, _, frames) = pass(live, &sally, first, spans, report);
        Ok((sally, WireBytes::of(&frames.0, &frames.1), frames.0))
    });
    warmed.map(|(sally, wire, query_frame)| Warm {
        sally,
        wire,
        query_frame,
        took,
    })
}

/// What a loop of passes observed.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    traces: Vec<EvalTrace>,
    /// Process CPU clock before the first pass and after the last.
    cpu_marks: [f64; 2],
}

/// Runs passes back to back for `seconds`; a pass in flight at the
/// deadline is finished and counted.
fn passes<B: FheBackend>(
    live: &Live<B>,
    sally: &Sally<'_, B>,
    pool: &[Vec<Vec<u64>>],
    seconds: f64,
    spans: &mut Spans,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase::default();
    let sw = Stopwatch::start();
    phase.cpu_marks[0] = procfs::cpu_seconds();
    for batch in pool.iter().cycle() {
        if sw.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let failed_before = report.tally.failed;
        let (wall, trace, _) = pass(live, sally, batch, spans, report);
        report.require(trace.packed_sizes == PACKED_SIZES, || {
            format!(
                "packed_sizes {:?}, expected {PACKED_SIZES:?}",
                trace.packed_sizes
            )
        });
        let wrong = report.tally.failed - failed_before;
        phase.samples.push(Sample {
            end_s: sw.elapsed().as_secs_f64(),
            latency_ms: wall.as_secs_f64() * 1e3,
            answers: (BATCH as u64 - wrong) as u32,
        });
        phase.traces.push(trace);
    }
    phase.cpu_marks[1] = procfs::cpu_seconds();
    phase
}

pub fn run<B: FheBackend>(cfg: &RunCfg, make: impl Fn() -> B) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Spans::new(cfg.trace);
    let forest = Forest::parse(FIG1_TREE).map_err(|e| format!("Fig. 1 tree: {e}"))?;
    let pool: Vec<Vec<Vec<u64>>> =
        microbench::random_queries(&forest, BATCH * BATCH_POOL, cfg.seed)
            .chunks(BATCH)
            .map(<[_]>::to_vec)
            .collect();
    let first = microbench::random_queries(&forest, BATCH, cfg.seed ^ 0x5E7);

    // Every set-up but the last is torn down again; `setup_s` is the
    // median over all of them.
    let reps = if cfg.trace {
        1
    } else {
        cfg.setup_reps(SETUP_REPS)
    };
    let mut setups = Vec::new();
    for _ in 1..reps {
        let live = build(cfg, &make, &mut spans)?;
        let warmed = warm(cfg, &live, &first, &mut spans, &mut report)?;
        setups.push((live.times.total + warmed.took).as_secs_f64());
    }
    let live = build(cfg, &make, &mut spans)?;
    let warmed = warm(cfg, &live, &first, &mut spans, &mut report)?;
    setups.push((live.times.total + warmed.took).as_secs_f64());

    if cfg.trace {
        traced(cfg, &live, &warmed, &pool, &mut spans, &mut report);
        report.finish_traced(spans);
        return Ok(report);
    }

    let phase = passes(
        &live,
        &warmed.sally,
        &pool,
        cfg.seconds,
        &mut spans,
        &mut report,
    );
    let summary = summarize(&phase.samples, cfg.seconds, &phase.cpu_marks);
    let samples = phase.samples.len() as u64;
    report.set_end_to_end(summary, samples, warmed.wire.total(), &setups);
    Ok(report)
}

/// The per-layer run: half the time without spans, half with, then
/// the same batch with packing off, and the isolated probes.
fn traced<B: FheBackend>(
    cfg: &RunCfg,
    live: &Live<B>,
    warmed: &Warm<'_, B>,
    pool: &[Vec<Vec<u64>>],
    spans: &mut Spans,
    report: &mut Report,
) {
    let packed = &warmed.sally;
    let half = cfg.seconds / 2.0;
    let plain = passes(live, packed, pool, half, &mut Spans::new(false), report);
    let traced = passes(live, packed, pool, half, spans, report);
    let latencies = |phase: &Phase| {
        phase
            .samples
            .iter()
            .map(|s| s.latency_ms)
            .collect::<Vec<_>>()
    };
    let plain_ms = latencies(&plain);
    let traced_p50 = report.set_trace_overhead(&plain_ms, &latencies(&traced));
    let plain_p50 = median(&plain_ms);
    let untraced = summarize(&plain.samples, half, &plain.cpu_marks);
    report.set(
        "cpu_ms_per_query",
        untraced.cpu_ms_per_query,
        plain_ms.len() as u64,
    );
    let n = traced.samples.len() as u64;

    // `EvalTrace::stage_nanos` is in pipeline order, like `ServerTiming`.
    let stage_ms =
        [0, 1, 2, 3].map(|k| median_ms(traced.traces.iter().map(|t| t.stage_nanos()[k])));
    report.set_stages(stage_ms, traced_p50, n);
    let occupancy: Vec<f64> = traced
        .traces
        .iter()
        .flat_map(|t| {
            t.packed_sizes
                .iter()
                .map(|&s| f64::from(s) / f64::from(LANES))
        })
        .collect();
    if !occupancy.is_empty() {
        let mean = occupancy.iter().sum::<f64>() / occupancy.len() as f64;
        report.set("core.runtime.lane_occupancy", mean, occupancy.len() as u64);
    }

    let stage_major = sally(live, cfg.host_cores, PackingMode::Off);
    let (off, off_trace, _) = pass(live, &stage_major, &pool[0], spans, report);
    report.require(off_trace.packed_sizes.is_empty(), || {
        "PackingMode::Off still packed".to_string()
    });
    if plain_p50 > 0.0 {
        report.set(
            "core.runtime.packed_speedup_x",
            off.as_secs_f64() * 1e3 / plain_p50,
            1,
        );
    }

    let times = live.times;
    report.set("forest.build_ms", times.forest.as_secs_f64() * 1e3, 1);
    report.set("fhe.keygen_s", times.keygen.as_secs_f64(), 1);
    report.set(
        "core.compiler.compile_ms",
        times.compile.as_secs_f64() * 1e3,
        1,
    );
    report.set("analyze.admit_ms", times.admit.as_secs_f64() * 1e3, 1);
    report.set(
        "core.runtime.deploy_ms",
        times.deploy.as_secs_f64() * 1e3,
        1,
    );

    let kernels = probes::kernels(
        &live.backend,
        cfg.probe_reps(),
        cfg.host_cores,
        spans,
        report,
    );
    probes::direct_query(
        &live.backend,
        &live.maurice,
        &live.deployed,
        &live.forest,
        &pool[0][0],
        cfg.host_cores,
        &kernels,
        spans,
        report,
    );
    probes::wire_codec(&warmed.query_frame, warmed.wire, cfg.probe_reps(), report);
}
