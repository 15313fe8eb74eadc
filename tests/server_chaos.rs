//! Fault-injection chaos test: a server built with a hostile
//! [`FaultPlan`] — seeded read stalls, partial writes, truncated
//! frames, connection drops, and a one-shot worker panic — hammered
//! by the production client code path. The invariant under chaos is
//! binary: every query ends in exactly one of {correct decrypted
//! result, typed client-visible error}, never a hang, a wrong
//! answer, or a poisoned server. Afterwards the same server still
//! serves.
//!
//! The plan is deterministic (per-connection SplitMix64 schedules
//! derived from the seed), so a failure here replays.

use copse::core::compiler::CompileOptions;
use copse::core::runtime::ModelForm;
use copse::core::wire::{Frame, ServerTiming, TimingCause};
use copse::fhe::ClearBackend;
use copse::forest::microbench::{self, table6_specs};
use copse::server::metrics::parse_exposition;
use copse::server::transport::{read_frame, write_frame};
use copse::server::{FaultPlan, InferenceClient, RetryPolicy, ServerBuilder, ServerConfig};
use copse::trace::validate_chrome_trace;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Connecting itself can die to an injected drop mid-handshake;
/// chaos clients retry the connect the way they retry queries.
fn connect_retrying(
    addr: SocketAddr,
    backend: &Arc<ClearBackend>,
    model: &str,
    policy: RetryPolicy,
) -> InferenceClient<ClearBackend> {
    let mut last = None;
    for _ in 0..20 {
        match InferenceClient::connect_with(addr, Arc::clone(backend), model, policy) {
            Ok(client) => return client,
            Err(e) => last = Some(e),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("could not connect through the fault plan: {last:?}");
}

/// Sends one traced `depth4` query whose only plane is garbage over a
/// raw socket and returns the timing of the typed `Error` it gets. An
/// I/O error (a fault plan ate the connection or the answer) is
/// returned for the caller to retry; any other answer fails the test.
fn try_poison_one_query(addr: SocketAddr, trace: u64) -> std::io::Result<Option<ServerTiming>> {
    let stream = std::net::TcpStream::connect(addr)?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut writer = std::io::BufWriter::new(stream);
    let hello = Frame::ClientHello {
        model: "depth4".into(),
    };
    write_frame(&mut writer, &hello)?;
    match read_frame(&mut reader)? {
        Frame::ServerHello { .. } => {}
        other => panic!("expected ServerHello, got {other:?}"),
    }
    let planes = vec![bytes::Bytes::copy_from_slice(b"junk")];
    let query = Frame::Query {
        id: 1,
        deadline_ms: 0,
        trace: Some(trace),
        planes,
    };
    write_frame(&mut writer, &query)?;
    match read_frame(&mut reader)? {
        Frame::Error { timing, .. } => Ok(timing),
        other => panic!("expected Error for the poisoned query, got {other:?}"),
    }
}

/// `clients` threads, alternating between two models, each send
/// `queries` traced queries to a chaos server whose queues are tight
/// enough to shed; every 8th client runs with a 1 ms deadline so
/// in-queue expiry sees load too. Every query must end as exactly one
/// of {correct answer, shed, expired, typed error}. Afterwards the
/// same server still serves, its metrics exposition parses, a
/// poisoned query gets its typed `Error` through the plan, and the
/// flight dump holds a complete record of all of it.
fn chaos_soak(clients: u64, queries: usize) {
    let backend = Arc::new(ClearBackend::with_defaults());
    let specs = table6_specs();
    let models = [
        ("depth4", microbench::generate(&specs[0], 5)),
        ("width55", microbench::generate(&specs[3], 5)),
    ];
    let mut builder = ServerBuilder::new(Arc::clone(&backend))
        .config(ServerConfig {
            batch_window: Duration::from_millis(5),
            max_batch: 8,
            queue_capacity: 2,
            retry_after_ms: 10,
            ..ServerConfig::default()
        })
        .faults(FaultPlan::chaos(0x00DE_CAF0));
    for (name, forest) in &models {
        builder = builder
            .register(
                *name,
                forest,
                CompileOptions::default(),
                ModelForm::Encrypted,
            )
            .expect("compiles");
    }
    let handle = builder
        .bind("127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let backend = Arc::clone(&backend);
            let (name, forest) = &models[c as usize % models.len()];
            let name = *name;
            let queries = microbench::random_queries(forest, queries, c + 101);
            let expected: Vec<Vec<bool>> = queries
                .iter()
                .map(|q| forest.classify_leaf_hits(q))
                .collect();
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    max_attempts: 8,
                    base_backoff: Duration::from_millis(5),
                    max_backoff: Duration::from_millis(200),
                    jitter_seed: c,
                };
                let mut client = connect_retrying(addr, &backend, name, policy);
                // Chaos clients trace: every query ships a trace id,
                // every answer (even one that survived retries and
                // reconnects) must come back with a stitched,
                // validator-clean merged trace.
                client.set_tracing(true);
                if c % 8 == 7 {
                    client.set_deadline(Some(Duration::from_millis(1)));
                }
                // Served, shed, expired, failed.
                let mut tally = [0usize; 4];
                for (q, want) in queries.iter().zip(&expected) {
                    let outcome = match client.classify(q) {
                        Ok(served) => {
                            // Chaos may eat frames, delay answers, or
                            // force reconnects — but it must never
                            // corrupt one: a served answer is correct.
                            assert_eq!(
                                &served.outcome.leaf_hits().to_bools(),
                                want,
                                "wrong answer under chaos for {name} {q:?}"
                            );
                            let trace = served.trace.as_ref().expect("traced answer");
                            validate_chrome_trace(&trace.chrome_json())
                                .expect("merged trace stays valid under chaos");
                            0
                        }
                        // A typed, client-visible failure (shed, an
                        // expired deadline, or a dead connection that
                        // outlived the retry budget) is an acceptable
                        // outcome; a hang or a wrong answer is not.
                        Err(e) if e.kind() == ErrorKind::WouldBlock => 1,
                        Err(e) if e.to_string().contains("expired") => 2,
                        Err(_) => 3,
                    };
                    tally[outcome] += 1;
                }
                (tally, client.total_retries())
            })
        })
        .collect();

    let mut tally = [0usize; 4];
    let mut retries = 0;
    for t in threads {
        let (client_tally, r) = t.join().expect("chaos client thread must not panic");
        for (sum, n) in tally.iter_mut().zip(client_tally) {
            *sum += n;
        }
        retries += r;
    }
    assert_eq!(
        tally.iter().sum::<usize>(),
        clients as usize * queries,
        "every query accounted for: {tally:?}"
    );
    let served = tally[0];
    assert!(served >= 1, "chaos at these rates cannot starve everyone");
    // The chaos preset's fault rates make at least one retryable
    // fault during even the smallest soak's 24 multi-frame exchanges
    // a statistical certainty; zero retries would mean the plan never
    // fired.
    assert!(retries >= 1, "the fault plan must actually have injected");

    // The server is not poisoned: the injected worker panic was
    // absorbed by the catch-unwind + solo-retry path, the counters
    // still add up, and a fresh client (with a generous budget for
    // the still-active fault plan) gets a correct answer.
    let snap = handle.stats().snapshot();
    assert!(snap.queries_served >= served as u64);
    let forest = &models[0].1;
    let probe_query = microbench::random_queries(forest, 1, 999).remove(0);
    let policy = RetryPolicy {
        max_attempts: 16,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        jitter_seed: 424_242,
    };
    let mut probe = connect_retrying(addr, &backend, "depth4", policy);
    probe.set_tracing(true);
    let got = probe
        .classify(&probe_query)
        .expect("server serves after chaos");
    assert_eq!(
        got.outcome.leaf_hits().to_bools(),
        forest.classify_leaf_hits(&probe_query)
    );
    let probe_trace = got.trace.expect("probe was traced");
    validate_chrome_trace(&probe_trace.chrome_json()).expect("probe trace valid");

    // The exposition still parses. The plan is still active, so the
    // fetch retries, each time over a fresh connection.
    let text = (0..20)
        .find_map(|_| {
            connect_retrying(addr, &backend, "depth4", RetryPolicy::none())
                .metrics()
                .ok()
        })
        .expect("metrics exposition fetched through the fault plan");
    let parsed = parse_exposition(&text).expect("exposition parses after chaos");
    let counted = parsed.value("copse_queries_served_total", &[]);
    assert!(counted.is_some_and(|n| n >= served as f64), "{counted:?}");

    // A poisoned query gets its typed `Error` through the plan.
    const POISON: u64 = 0xBAD_C0DE;
    (0..30)
        .find_map(|_| try_poison_one_query(addr, POISON).ok())
        .expect("the poisoned query never got its Error");

    // The always-on flight recorder survived the chaos: every record
    // is complete (model attributed, a terminal cause, end-to-end
    // time measured), and the probe's and the poisoned query's trace
    // ids are findable with their causes.
    let flight = handle.shutdown();
    assert!(
        flight.len() > served,
        "at least every served query plus the probe was recorded"
    );
    for record in &flight {
        assert!(
            models.iter().any(|(name, _)| record.model == *name),
            "{record:?}"
        );
        assert!(record.total_nanos > 0, "incomplete record: {record:?}");
        if record.cause == TimingCause::Served {
            assert!(record.batch_size >= 1);
            assert_ne!(record.worker, u32::MAX);
        }
    }
    let probe_records: Vec<_> = flight
        .iter()
        .filter(|r| r.trace_id == Some(probe_trace.trace_id))
        .collect();
    assert!(
        !probe_records.is_empty(),
        "the probe's trace id reached the flight recorder"
    );
    assert!(probe_records.iter().any(|r| r.cause == TimingCause::Served));
    assert!(
        flight
            .iter()
            .any(|r| r.trace_id == Some(POISON) && r.cause == TimingCause::Failed),
        "the poisoned query's Failed record is in the dump"
    );
}

#[test]
fn every_query_under_chaos_ends_in_a_result_or_a_typed_error() {
    chaos_soak(8, 3);
}

/// The same soak at serving scale. Ignored by the tier-1 run; run it
/// in release with `cargo test --release -q --test server_chaos --
/// --ignored`.
#[test]
#[ignore = "200 clients; run in release"]
fn every_query_under_a_200_client_chaos_soak_ends_in_a_result_or_a_typed_error() {
    chaos_soak(200, 5);
}

#[test]
fn every_outcome_class_lands_in_the_flight_recorder_with_its_cause() {
    let backend = Arc::new(ClearBackend::with_defaults());
    let forest = microbench::generate(&table6_specs()[0], 5);
    // A deliberately cramped server: each pass stalls 300 ms, one
    // query evaluates while one waits, everything else sheds. That
    // makes all four terminal causes reachable on demand.
    let handle = ServerBuilder::new(Arc::clone(&backend))
        .config(ServerConfig {
            batch_window: Duration::from_millis(1),
            max_batch: 1,
            queue_capacity: 1,
            retry_after_ms: 10,
            ..ServerConfig::default()
        })
        .faults(FaultPlan {
            eval_delay: Duration::from_millis(300),
            ..FaultPlan::default()
        })
        .register(
            "depth4",
            &forest,
            CompileOptions::default(),
            ModelForm::Encrypted,
        )
        .expect("compiles")
        .bind("127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();
    let query = microbench::random_queries(&forest, 1, 7).remove(0);

    // Served: a traced query that rides out the stall.
    let slow = std::thread::spawn({
        let backend = Arc::clone(&backend);
        let query = query.clone();
        move || {
            let mut client = connect_retrying(addr, &backend, "depth4", RetryPolicy::none());
            client.set_tracing(true);
            let served = client.classify(&query).expect("slow query serves");
            served.trace.expect("traced").trace_id
        }
    });
    std::thread::sleep(Duration::from_millis(80));

    // Expired: enqueued behind the stalled pass with a deadline that
    // cannot survive the wait; shed at dequeue, never evaluated.
    let expired = std::thread::spawn({
        let backend = Arc::clone(&backend);
        let query = query.clone();
        move || {
            let mut client = connect_retrying(addr, &backend, "depth4", RetryPolicy::none());
            client.set_tracing(true);
            client.set_deadline(Some(Duration::from_millis(40)));
            let err = client.classify(&query).expect_err("deadline expires");
            assert!(err.to_string().contains("expired"), "{err}");
        }
    });
    std::thread::sleep(Duration::from_millis(80));

    // Shed: the queue already holds the expiring query, so the next
    // arrival is refused at the front door.
    let mut shed_client = connect_retrying(addr, &backend, "depth4", RetryPolicy::none());
    shed_client.set_tracing(true);
    let err = shed_client.classify(&query).expect_err("queue full sheds");
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");

    // Failed: a traced query with the wrong plane count is rejected
    // by validation before it reaches any queue.
    let timing = try_poison_one_query(addr, 0xF00D_F00D)
        .expect("poisoned query answered")
        .expect("traced error carries timing");
    assert_eq!(timing.cause, TimingCause::Failed);

    let served_id = slow.join().expect("slow thread");
    expired.join().expect("expired thread");
    let flight = handle.shutdown();

    // One complete record per query, each with its terminal cause.
    assert_eq!(flight.len(), 4, "{flight:?}");
    let by_cause = |cause: TimingCause| {
        flight
            .iter()
            .filter(|r| r.cause == cause)
            .collect::<Vec<_>>()
    };
    let served = by_cause(TimingCause::Served);
    assert_eq!(served.len(), 1);
    assert_eq!(served[0].trace_id, Some(served_id));
    assert!(served[0].eval_nanos > 0, "{:?}", served[0]);
    // max_batch = 1 and a capacity-less backend: evaluated alone.
    assert_eq!(served[0].packed_size, 1, "{:?}", served[0]);
    let expired = by_cause(TimingCause::Expired);
    assert_eq!(expired.len(), 1);
    assert!(expired[0].trace_id.is_some());
    assert!(
        expired[0].queue_nanos >= Duration::from_millis(40).as_nanos() as u64,
        "an expired query spent at least its deadline queued: {:?}",
        expired[0]
    );
    assert_eq!(expired[0].batch_size, 0, "never evaluated");
    let shed = by_cause(TimingCause::Shed);
    assert_eq!(shed.len(), 1);
    assert!(shed[0].trace_id.is_some());
    assert_eq!(shed[0].eval_nanos, 0, "never evaluated");
    let failed = by_cause(TimingCause::Failed);
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].trace_id, Some(0xF00D_F00D));
    assert_eq!(failed[0].worker, u32::MAX, "rejected before any worker");
    // All records agree the same model was addressed and measured
    // real time — and only the served query was ever evaluated, so
    // only it occupies a lane.
    assert!(flight.iter().all(|r| r.model == "depth4"));
    assert!(flight.iter().all(|r| r.total_nanos > 0));
    assert!(
        flight
            .iter()
            .all(|r| (r.cause == TimingCause::Served) == (r.packed_size >= 1)),
        "lane occupancy must be 0 exactly for never-evaluated queries: {flight:?}"
    );
}

#[test]
fn chaos_over_a_packing_server_preserves_the_result_or_typed_error_invariant() {
    use copse::core::runtime::{Maurice, PackPlan, Sally};
    use copse::fhe::ClearConfig;

    const THREADS: u64 = 4;
    const QUERIES_PER_THREAD: usize = 3;

    let forest = microbench::generate(&table6_specs()[0], 5);
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compile");
    let probe = ClearBackend::new(ClearConfig {
        slot_capacity: Some(1 << 20),
        ..ClearConfig::default()
    });
    let PackPlan { stride, .. } = Sally::host(&probe, maurice.deploy(&probe, ModelForm::Encrypted))
        .pack_plan()
        .expect("probe capacity fits");
    // 4 lanes of capacity: coalesced batches take the packed path
    // whenever chaos lets more than one query share a window.
    let backend = Arc::new(ClearBackend::new(ClearConfig {
        slot_capacity: Some(4 * stride),
        ..ClearConfig::default()
    }));
    let handle = ServerBuilder::new(Arc::clone(&backend))
        .config(ServerConfig {
            batch_window: Duration::from_millis(50),
            max_batch: 8,
            ..ServerConfig::default()
        })
        .faults(FaultPlan::chaos(0x9ACC_ED00))
        .register(
            "depth4",
            &forest,
            CompileOptions::default(),
            ModelForm::Encrypted,
        )
        .expect("compiles")
        .bind("127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let backend = Arc::clone(&backend);
            let queries = microbench::random_queries(&forest, QUERIES_PER_THREAD, t + 77);
            let expected: Vec<Vec<bool>> = queries
                .iter()
                .map(|q| forest.classify_leaf_hits(q))
                .collect();
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    max_attempts: 8,
                    base_backoff: Duration::from_millis(5),
                    max_backoff: Duration::from_millis(200),
                    jitter_seed: t,
                };
                let mut client = connect_retrying(addr, &backend, "depth4", policy);
                let mut ok = 0usize;
                let mut failed = 0usize;
                for (q, want) in queries.iter().zip(&expected) {
                    match client.classify(q) {
                        Ok(served) => {
                            // The binary invariant survives packing: a
                            // served answer is a *correct* answer even
                            // when the query shared its ciphertext.
                            assert_eq!(
                                &served.outcome.leaf_hits().to_bools(),
                                want,
                                "wrong packed answer under chaos for {q:?}"
                            );
                            ok += 1;
                        }
                        Err(_) => failed += 1,
                    }
                }
                (ok, failed)
            })
        })
        .collect();

    let mut served = 0;
    let mut failed = 0;
    for t in threads {
        let (ok, bad) = t.join().expect("chaos client thread must not panic");
        served += ok;
        failed += bad;
    }
    assert_eq!(
        served + failed,
        (THREADS as usize) * QUERIES_PER_THREAD,
        "every query accounted for"
    );
    assert!(served >= 1, "chaos at these rates cannot starve everyone");

    // The server still serves, and the flight recorder's packed
    // dimension stayed coherent through every fault: lanes only for
    // evaluated queries, never more lanes than batchmates.
    let probe_query = microbench::random_queries(&forest, 1, 555).remove(0);
    let policy = RetryPolicy {
        max_attempts: 16,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        jitter_seed: 99,
    };
    let mut probe_client = connect_retrying(addr, &backend, "depth4", policy);
    let got = probe_client
        .classify(&probe_query)
        .expect("server serves after chaos");
    assert_eq!(
        got.outcome.leaf_hits().to_bools(),
        forest.classify_leaf_hits(&probe_query)
    );
    let flight = handle.shutdown();
    assert!(!flight.is_empty());
    for record in &flight {
        match record.cause {
            TimingCause::Served => {
                assert!(record.packed_size >= 1, "{record:?}");
                assert!(record.packed_size <= record.batch_size.max(1), "{record:?}");
            }
            _ => assert_eq!(record.packed_size, 0, "never evaluated: {record:?}"),
        }
    }
}
