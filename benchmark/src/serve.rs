//! The three workloads that go through `copse-server` on loopback:
//! closed-loop `InferenceClient`s against one model, with the backend
//! (real BGV or clear), the model form, the client count and the
//! registry size chosen by the workload.

use crate::probes::{self, WireBytes};
use crate::procfs;
use crate::report::{Report, Spans, Tally, CLIENT_TID, QUERY_TID};
use crate::stats::{median_ms, summarize, Sample};
use crate::{RunCfg, MODEL_SEED};
use copse::core::compiler::CompileOptions;
use copse::core::runtime::{Diane, EncryptedResult, Maurice, ModelForm};
use copse::core::wire::{Frame, ServerTiming};
use copse::fhe::FheBackend;
use copse::forest::microbench::{self, table6_specs};
use copse::forest::{zoo, Forest};
use copse::server::transport::{read_frame, write_frame};
use copse::server::{
    InferenceClient, QueryTrace, RetryPolicy, ServerBuilder, ServerHandle, TimingCause,
};
use copse::trace::Stopwatch;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The model every serving workload queries: Table 6 `depth4`.
const MODEL: &str = "depth4";

/// Distinct feature vectors each client cycles through.
const QUERY_POOL: usize = 1024;

/// What distinguishes one serving workload from another.
pub struct ServeSpec {
    pub form: ModelForm,
    /// Closed-loop clients, one connection and one thread each.
    pub clients: usize,
    /// Time slices the measured phase is cut into (see [`summarize`]);
    /// 1 when a run holds only a handful of samples.
    pub segments: usize,
    /// Register the whole 12-model paper suite instead of `depth4`
    /// alone, so set-up is build + compile + admission + deploy across
    /// the zoo.
    pub zoo: bool,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// A bound server with its first query answered.
struct Live<B: FheBackend + 'static> {
    backend: Arc<B>,
    handle: ServerHandle<B>,
    /// Every registered model, `depth4` first.
    compiled: Vec<Maurice>,
    forest: Forest,
    wire: WireBytes,
    query_frame: Frame,
    times: SetupTimes,
}

#[derive(Clone, Copy, Default)]
struct SetupTimes {
    total: Duration,
    forest: Duration,
    keygen: Duration,
    compile: Duration,
}

/// The registered models, `depth4` first. The realisation is fixed:
/// a different draw of the spec changes the circuit (quantized width,
/// hence op counts — and one draw in four does not fit 18 slots), so
/// `--seed` varies the queries and leaves the work per query alone.
fn build_models(zoo: bool) -> Vec<(String, Forest)> {
    if zoo {
        zoo::paper_suite(MODEL_SEED)
            .into_iter()
            .map(|m| (m.name, m.forest))
            .collect()
    } else {
        vec![(
            MODEL.to_string(),
            microbench::generate(&table6_specs()[0], MODEL_SEED),
        )]
    }
}

/// Everything a deployment pays before it has answered one query:
/// forest build, key generation, compile, admission + deploy + bind,
/// and the first query (which fills the lazy transform caches). The
/// first query goes over a raw socket so the frames really exchanged
/// can be measured; it is checked like every other answer.
fn setup<B: FheBackend + 'static>(
    spec: &ServeSpec,
    cfg: &RunCfg,
    make: &impl Fn() -> B,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Live<B>, String> {
    let (live, total) = spans.time("setup", |spans| {
        let (models, forest) = spans.time("setup.forest", |_| build_models(spec.zoo));
        assert_eq!(models[0].0, MODEL, "the queried model is registered first");
        let (backend, keygen) = spans.time("setup.keygen", |_| Arc::new(make()));
        let (compiled, compile) = spans.time("setup.compile", |_| {
            models
                .iter()
                .map(|(_, f)| Maurice::compile(f, CompileOptions::default()))
                .collect::<Result<Vec<_>, _>>()
        });
        let compiled = compiled.map_err(|e| format!("compile: {e}"))?;
        let (server, _) = spans.time("setup.bind", |_| {
            let mut builder = ServerBuilder::new(Arc::clone(&backend)).threads(cfg.host_cores);
            for ((name, _), maurice) in models.iter().zip(&compiled) {
                builder = builder.register_compiled(name.clone(), maurice.clone(), spec.form);
            }
            builder.bind("127.0.0.1:0")
        });
        let server = server.map_err(|e| format!("bind: {e}"))?;
        let rejected = server.rejections();
        if let Some(r) = rejected.first() {
            return Err(format!("admission rejected `{}`: {:?}", r.model, r.code));
        }
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let forest_model = models.into_iter().next().expect("at least depth4").1;
        let features = &microbench::random_queries(&forest_model, 1, cfg.seed ^ 0x5E7)[0];
        let (first, _) = spans.time("setup.first_query", |_| {
            first_query(
                handle.addr(),
                backend.as_ref(),
                &forest_model,
                features,
                tally,
            )
        });
        let (wire, query_frame) = match first {
            Ok(first) => first,
            Err(e) => {
                handle.shutdown();
                return Err(format!("first query: {e}"));
            }
        };
        Ok(Live {
            backend,
            handle,
            compiled,
            forest: forest_model,
            wire,
            query_frame,
            times: SetupTimes {
                total: Duration::ZERO,
                forest,
                keygen,
                compile,
            },
        })
    });
    live.map(|mut live| {
        live.times.total = total;
        live
    })
}

/// One hello + query + result exchange in raw frames, built from the
/// same public pieces `InferenceClient` uses.
fn first_query<B: FheBackend>(
    addr: SocketAddr,
    backend: &B,
    forest: &Forest,
    features: &[u64],
    tally: &mut Tally,
) -> io::Result<(WireBytes, Frame)> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let refused = |what: &str| io::Error::other(format!("server answered {what} with an error"));
    write_frame(
        &mut writer,
        &Frame::ClientHello {
            model: MODEL.into(),
        },
    )?;
    let Frame::ServerHello { info, .. } = read_frame(&mut reader)? else {
        return Err(refused("the hello"));
    };
    let diane = Diane::new(backend, info);
    let query = diane
        .encrypt_features(features)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let query_frame = probes::query_frame(backend, query.planes());
    write_frame(&mut writer, &query_frame)?;
    let answer = read_frame(&mut reader)?;
    let Frame::Result { ciphertext, .. } = &answer else {
        return Err(refused("the query"));
    };
    let ct = backend
        .deserialize_ciphertext(ciphertext)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let outcome = diane.decrypt_result(&EncryptedResult::<B>::from_ciphertext(ct));
    tally.check(
        Some(&outcome.leaf_hits().to_bools()),
        &forest.classify_leaf_hits(features),
    );
    Ok((WireBytes::of(&query_frame, &answer), query_frame))
}

/// Client-side split of one traced query, nanoseconds.
struct ClientSplit {
    encrypt: u64,
    send: u64,
    wait: u64,
    /// Client total minus the server's own total: transport, framing,
    /// ciphertext (de)serialisation, decrypt.
    overhead: u64,
}

impl ClientSplit {
    fn of(trace: &QueryTrace) -> Self {
        let span = |name: &str| {
            trace
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_nanos - s.start_nanos)
                .sum()
        };
        let server_total = trace.final_timing().map_or(0, |t| t.encode_nanos);
        Self {
            encrypt: span("encrypt"),
            send: span("send"),
            wait: span("await"),
            overhead: trace.total_nanos.saturating_sub(server_total),
        }
    }
}

/// What one closed-loop phase observed.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    /// Process CPU clock at the start, each slice boundary and the end.
    cpu_marks: Vec<f64>,
    timings: Vec<ServerTiming>,
    splits: Vec<ClientSplit>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }
}

/// Runs `spec.clients` closed-loop clients for `seconds`: each sends
/// its next query only after the previous answer arrived and was
/// checked. A query in flight at the deadline is finished and counted.
fn closed_loop<B: FheBackend + 'static>(
    live: &Live<B>,
    spec: &ServeSpec,
    cfg: &RunCfg,
    seconds: f64,
    tracing: bool,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Phase {
    let addr = live.handle.addr();
    let segments = spec.segments;
    let barrier = Barrier::new(spec.clients + 1);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..spec.clients as u64)
            .map(|c| {
                let mut lane = spans.for_thread(CLIENT_TID + c);
                let (barrier, backend, forest) =
                    (&barrier, Arc::clone(&live.backend), &live.forest);
                scope.spawn(move || {
                    let pool: Vec<(Vec<u64>, Vec<bool>)> =
                        microbench::random_queries(forest, QUERY_POOL, cfg.seed.wrapping_add(c))
                            .into_iter()
                            .map(|q| {
                                let want = forest.classify_leaf_hits(&q);
                                (q, want)
                            })
                            .collect();
                    let client =
                        InferenceClient::connect_with(addr, backend, MODEL, RetryPolicy::none());
                    barrier.wait();
                    let (mut part, mut tally) = (Phase::default(), Tally::default());
                    let Ok(mut client) = client else {
                        tally.check(None, &pool[0].1);
                        return (part, tally, lane);
                    };
                    client.set_tracing(tracing);
                    let sw = Stopwatch::start();
                    for (features, want) in pool.iter().cycle() {
                        if sw.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let started = lane.now();
                        let (answer, wall) =
                            lane.time("client.classify", |_| client.classify(features));
                        let Ok(served) = answer else {
                            // Typed error, shed or expiry: no retries
                            // are configured, so each one shows.
                            tally.check(None, want);
                            continue;
                        };
                        if tally.check(Some(&served.outcome.leaf_hits().to_bools()), want) {
                            part.samples.push(Sample {
                                end_s: sw.elapsed().as_secs_f64(),
                                latency_ms: wall.as_secs_f64() * 1e3,
                                answers: 1,
                            });
                        }
                        part.timings.extend(served.timing);
                        if let Some(trace) = served.trace {
                            part.splits.push(ClientSplit::of(&trace));
                            lane.stitch(started, QUERY_TID + 2 * c, trace.chrome_events());
                        }
                    }
                    let _ = client.close();
                    (part, tally, lane)
                })
            })
            .collect();
        barrier.wait();
        // This thread only keeps time: it reads the CPU clock at every
        // slice boundary while the clients work.
        let sw = Stopwatch::start();
        phase.cpu_marks.push(procfs::cpu_seconds());
        for k in 1..segments {
            let boundary = Duration::from_secs_f64(seconds * k as f64 / segments as f64);
            std::thread::sleep(sw.remaining(boundary));
            phase.cpu_marks.push(procfs::cpu_seconds());
        }
        for client in clients {
            let (part, client_tally, lane) = client.join().expect("client thread panicked");
            phase.samples.extend(part.samples);
            phase.timings.extend(part.timings);
            phase.splits.extend(part.splits);
            tally.merge(client_tally);
            spans.absorb(lane);
        }
        phase.cpu_marks.push(procfs::cpu_seconds());
    });
    phase
}

/// Runs one serving workload on the backend `make` builds.
pub fn run<B: FheBackend + 'static>(
    cfg: &RunCfg,
    spec: &ServeSpec,
    make: impl Fn() -> B,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Spans::new(cfg.trace);

    let reps = if cfg.trace { 1 } else { spec.setup_reps };
    let mut setups = Vec::new();
    let mut live: Option<Live<B>> = None;
    for _ in 0..reps {
        if let Some(previous) = live.take() {
            previous.handle.shutdown();
        }
        let next = setup(spec, cfg, &make, &mut spans, &mut report.tally)?;
        setups.push(next.times.total.as_secs_f64());
        live = Some(next);
    }
    let live = live.expect("at least one set-up");

    if cfg.trace {
        traced(cfg, spec, live, &mut spans, &mut report);
        report.finish_traced(spans);
        return Ok(report);
    }

    let phase = closed_loop(
        &live,
        spec,
        cfg,
        cfg.seconds,
        false,
        &mut spans,
        &mut report.tally,
    );
    let wire = live.wire;
    live.handle.shutdown();
    let summary = summarize(&phase.samples, cfg.seconds, &phase.cpu_marks);
    report.set_end_to_end(summary, phase.samples.len() as u64, wire.total(), &setups);
    Ok(report)
}

/// The per-layer run: half the time untraced, half with client
/// tracing on, then — server stopped — the isolated probes.
fn traced<B: FheBackend + 'static>(
    cfg: &RunCfg,
    spec: &ServeSpec,
    live: Live<B>,
    spans: &mut Spans,
    report: &mut Report,
) {
    let half = cfg.seconds / 2.0;
    let plain = closed_loop(&live, spec, cfg, half, false, spans, &mut report.tally);
    let traced = closed_loop(&live, spec, cfg, half, true, spans, &mut report.tally);
    let traced_p50 = report.set_trace_overhead(&plain.latencies(), &traced.latencies());
    let untraced = summarize(&plain.samples, half, &plain.cpu_marks);
    report.set(
        "cpu_ms_per_query",
        untraced.cpu_ms_per_query,
        plain.samples.len() as u64,
    );
    let n = traced.timings.len() as u64;

    let served: Vec<&ServerTiming> = traced
        .timings
        .iter()
        .filter(|t| t.cause == TimingCause::Served)
        .collect();
    let p50 = |f: &dyn Fn(&ServerTiming) -> u64| median_ms(served.iter().map(|t| f(t)));
    report.set_stages(
        [0, 1, 2, 3].map(|k| p50(&|t| t.stage_nanos[k])),
        traced_p50,
        n,
    );
    report.set("server.enqueue_ms_p50", p50(&|t| t.enqueue_nanos), n);
    report.set(
        "server.queue_wait_ms_p50",
        p50(&|t| t.dequeue_nanos.saturating_sub(t.enqueue_nanos)),
        n,
    );
    report.set(
        "server.batch_assembly_ms_p50",
        p50(&|t| t.assembled_nanos.saturating_sub(t.dequeue_nanos)),
        n,
    );
    report.set(
        "server.eval_ms_p50",
        p50(&|t| t.stage_nanos.iter().sum()),
        n,
    );
    report.set("server.total_ms_p50", p50(&|t| t.encode_nanos), n);
    let split = |f: &dyn Fn(&ClientSplit) -> u64| median_ms(traced.splits.iter().map(f));
    report.set("server.client.encrypt_ms_p50", split(&|s| s.encrypt), n);
    report.set("server.client.send_ms_p50", split(&|s| s.send), n);
    report.set("server.client.await_ms_p50", split(&|s| s.wait), n);
    report.set("server.client.overhead_ms_p50", split(&|s| s.overhead), n);

    let snapshot = live.handle.stats().snapshot();
    report.set(
        "server.batch_size_mean",
        snapshot.mean_batch(),
        snapshot.batches,
    );
    report.set("server.shed", snapshot.queries_shed as f64, 1);
    report.set("server.expired", snapshot.queries_expired as f64, 1);
    if let Some(model) = snapshot.per_model.get(MODEL) {
        report.set(
            "server.latency_p99_ms",
            model.latency.p99_nanos() as f64 / 1e6,
            model.queries,
        );
    }

    let Live {
        backend,
        handle,
        compiled,
        forest,
        wire,
        query_frame,
        times,
    } = live;
    // Stopping the server leaves the process idle for the probes; the
    // flight recorder's last records come back with it.
    let flight = handle.shutdown();
    let failed = flight
        .iter()
        .filter(|r| r.cause == TimingCause::Failed)
        .count();
    report.set("server.failed", failed as f64, flight.len() as u64);

    let backend = backend.as_ref();
    let models = compiled.len() as u64;
    report.set("forest.build_ms", times.forest.as_secs_f64() * 1e3, models);
    report.set(
        "core.compiler.compile_ms",
        times.compile.as_secs_f64() * 1e3,
        models,
    );
    report.set("fhe.keygen_s", times.keygen.as_secs_f64(), 1);
    let (_, admit) = spans.time("probe.admit", |_| {
        for maurice in &compiled {
            std::hint::black_box(probes::analyze(backend, maurice, spec.form));
        }
    });
    report.set("analyze.admit_ms", admit.as_secs_f64() * 1e3, models);
    let (mut deployed, deploy) = spans.time("probe.deploy", |_| {
        compiled
            .iter()
            .map(|maurice| maurice.deploy(backend, spec.form))
            .collect::<Vec<_>>()
    });
    report.set("core.runtime.deploy_ms", deploy.as_secs_f64() * 1e3, models);

    let kernels = probes::kernels(backend, cfg.probe_reps(), cfg.host_cores, spans, report);
    let features = &microbench::random_queries(&forest, 1, cfg.seed ^ 0xD1)[0];
    probes::direct_query(
        backend,
        &compiled[0],
        &deployed.swap_remove(0),
        &forest,
        features,
        cfg.host_cores,
        &kernels,
        spans,
        report,
    );
    probes::wire_codec(&query_frame, wire, cfg.probe_reps(), report);
}
