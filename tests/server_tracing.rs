//! Query-scoped distributed tracing, end to end over a real socket:
//! a traced query yields one merged Chrome trace holding the client's
//! spans and the server's anchored timing split; coalesced batches
//! attribute per-query peers; the metrics exposition round-trips
//! through the in-repo parser; and the flight recorder captures every
//! query.

use copse::core::compiler::CompileOptions;
use copse::core::runtime::ModelForm;
use copse::core::wire::TimingCause;
use copse::fhe::ClearBackend;
use copse::forest::model::Forest;
use copse::server::metrics::parse_exposition;
use copse::server::{FaultPlan, InferenceClient, ServerBuilder, ServerConfig};
use copse::trace::validate_chrome_trace;
use std::sync::Arc;
use std::time::Duration;

fn tiny_forest() -> Forest {
    Forest::parse(
        "precision 4\n\
         labels no maybe yes\n\
         tree (branch 0 8 (branch 1 4 (leaf 0) (leaf 1)) (branch 0 3 (leaf 1) (leaf 2)))\n",
    )
    .expect("valid model")
}

#[test]
fn traced_query_yields_one_merged_chrome_trace() {
    let backend = Arc::new(ClearBackend::with_defaults());
    let forest = tiny_forest();
    let handle = ServerBuilder::new(Arc::clone(&backend))
        .register(
            "demo",
            &forest,
            CompileOptions::default(),
            ModelForm::Encrypted,
        )
        .expect("register")
        .bind("127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");

    let mut client =
        InferenceClient::connect(handle.addr(), Arc::clone(&backend), "demo").expect("connect");
    client.set_tracing(true);
    let served = client.classify(&[5, 12]).expect("classify");

    // The answering frame brought the server's split back.
    let timing = served.timing.as_ref().expect("traced answer has timing");
    assert_eq!(timing.cause, TimingCause::Served);
    assert!(timing.batch_size >= 1);
    assert_ne!(timing.worker, u32::MAX, "a worker evaluated it");
    // The split is monotone: enqueue ≤ dequeue ≤ assembled ≤ encode,
    // and the stage durations fit inside the total.
    assert!(timing.enqueue_nanos <= timing.dequeue_nanos);
    assert!(timing.dequeue_nanos <= timing.assembled_nanos);
    assert!(timing.assembled_nanos <= timing.encode_nanos);
    let stage_sum: u64 = timing.stage_nanos.iter().sum();
    assert!(
        timing.assembled_nanos + stage_sum <= timing.encode_nanos,
        "stages ({stage_sum} ns) overflow the server total ({} ns)",
        timing.encode_nanos
    );

    let trace = served.trace.as_ref().expect("traced answer has a trace");
    assert_eq!(trace.server.len(), 1, "one attempt, one server window");
    let window = &trace.server[0];
    // The server's whole processing fits the client's send→receive
    // window — the clock-alignment precondition.
    assert!(
        timing.encode_nanos <= window.recv_nanos - window.send_nanos,
        "server total exceeds the client's round-trip window"
    );

    // One merged, validator-clean Chrome trace with both sides.
    let json = trace.chrome_json();
    validate_chrome_trace(&json).expect("merged trace is structurally valid");
    let events = trace.chrome_events();
    let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
    for expected in [
        "encrypt",
        "send",
        "await",
        "server:served",
        "server:queue-wait",
        "server:batch-assembly",
        "server:comparison",
        "server:reshuffle",
        "server:levels",
        "server:accumulate",
    ] {
        assert!(names.contains(&expected), "missing span `{expected}`");
    }
    // Every anchored server event lands inside the client window.
    for e in events.iter().filter(|e| e.tid == 2) {
        assert!(
            e.ts_nanos >= window.send_nanos && e.ts_nanos <= window.recv_nanos,
            "{} at {} ns escapes the client window",
            e.name,
            e.ts_nanos
        );
    }

    // Tracing off again: the exact pre-v6 behavior, no timing.
    client.set_tracing(false);
    let untraced = client.classify(&[5, 12]).expect("untraced classify");
    assert!(untraced.timing.is_none());
    assert!(untraced.trace.is_none());
    assert_eq!(
        untraced.outcome.leaf_hits().to_bools(),
        forest.classify_leaf_hits(&[5, 12])
    );

    client.close().expect("close");
    let flight = handle.shutdown();
    // The flight recorder saw both queries; the traced one carries
    // its id, the untraced one does not.
    assert_eq!(flight.len(), 2);
    assert_eq!(flight[0].trace_id, Some(trace.trace_id));
    assert_eq!(flight[1].trace_id, None);
    assert!(flight.iter().all(|r| r.cause == TimingCause::Served));
    assert!(flight.iter().all(|r| r.model == "demo"));
}

#[test]
fn coalesced_batches_attribute_traced_peers() {
    let backend = Arc::new(ClearBackend::with_defaults());
    let forest = tiny_forest();
    // The first query's evaluation pass is stalled for a known
    // window, so the two probe queries sent during the stall land in
    // the queue together and coalesce into one batch.
    let handle = ServerBuilder::new(Arc::clone(&backend))
        .config(ServerConfig {
            batch_window: Duration::from_millis(100),
            max_batch: 4,
            ..ServerConfig::default()
        })
        .faults(FaultPlan {
            eval_delay: Duration::from_millis(250),
            ..FaultPlan::default()
        })
        .register(
            "demo",
            &forest,
            CompileOptions::default(),
            ModelForm::Encrypted,
        )
        .expect("register")
        .bind("127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    let plug = std::thread::Builder::new()
        .name("plug".into())
        .spawn({
            let backend = Arc::clone(&backend);
            move || {
                let mut client =
                    InferenceClient::connect(addr, backend, "demo").expect("connect plug");
                client.classify(&[5, 12]).expect("plug query");
                client.close().expect("close plug");
            }
        })
        .expect("spawn plug");
    // Let the plug query enter its (stalled) evaluation pass.
    std::thread::sleep(Duration::from_millis(80));

    let probes: Vec<_> = (0..2)
        .map(|i| {
            let backend = Arc::clone(&backend);
            std::thread::Builder::new()
                .name(format!("probe{i}"))
                .spawn(move || {
                    let mut client =
                        InferenceClient::connect(addr, backend, "demo").expect("connect probe");
                    client.set_tracing(true);
                    let served = client.classify(&[5, 12]).expect("probe query");
                    client.close().expect("close probe");
                    served
                })
                .expect("spawn probe")
        })
        .collect();
    let served: Vec<_> = probes
        .into_iter()
        .map(|t| t.join().expect("probe thread"))
        .collect();
    plug.join().expect("plug thread");
    handle.shutdown();

    let timings: Vec<_> = served
        .iter()
        .map(|s| s.timing.as_ref().expect("probe timing"))
        .collect();
    let ids: Vec<u64> = served
        .iter()
        .map(|s| s.trace.as_ref().expect("probe trace").trace_id)
        .collect();
    // The plug's open batch window caught both probes: one pass of
    // three (the untraced plug plus the two traced probes).
    assert!(
        timings.iter().all(|t| t.batch_size == 3),
        "probes coalesced into the plug's pass: {timings:?}"
    );
    assert_ne!(ids[0], ids[1], "clients assign distinct trace ids");
    // Each probe's timing names the *other* probe as its traced peer;
    // the untraced plug stays invisible beyond the batch size.
    assert_eq!(timings[0].batch_peers, vec![ids[1]]);
    assert_eq!(timings[1].batch_peers, vec![ids[0]]);
}

#[test]
fn metrics_exposition_round_trips_over_the_wire() {
    // A recorder of capacity 0 is off: it records nothing, and the
    // page says so.
    for flight_capacity in [1024, 0] {
        exposition_round_trip(flight_capacity);
    }
}

fn exposition_round_trip(flight_capacity: usize) {
    let backend = Arc::new(ClearBackend::with_defaults());
    let forest = tiny_forest();
    let handle = ServerBuilder::new(Arc::clone(&backend))
        .config(ServerConfig {
            flight_capacity,
            ..ServerConfig::default()
        })
        .register(
            "demo",
            &forest,
            CompileOptions::default(),
            ModelForm::Encrypted,
        )
        .expect("register")
        .bind("127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");

    let mut client =
        InferenceClient::connect(handle.addr(), Arc::clone(&backend), "demo").expect("connect");
    client.set_tracing(true);
    for _ in 0..3 {
        client.classify(&[5, 12]).expect("classify");
    }
    let text = client.metrics().expect("metrics pull");
    client.close().expect("close");
    let recorded = if flight_capacity > 0 { 3 } else { 0 };
    assert_eq!(
        handle.shutdown().len(),
        recorded,
        "capacity {flight_capacity}"
    );

    let parsed = parse_exposition(&text).expect("exposition parses");
    assert_eq!(parsed.value("copse_queries_served_total", &[]), Some(3.0));
    assert_eq!(
        parsed.value("copse_model_queries_total", &[("model", "demo")]),
        Some(3.0)
    );
    assert_eq!(
        parsed.value("copse_model_latency_nanos_count", &[("model", "demo")]),
        Some(3.0)
    );
    assert_eq!(
        parsed.value("copse_flight_recorded_total", &[]),
        Some(recorded as f64)
    );
    assert_eq!(
        parsed.value("copse_flight_capacity", &[]),
        Some(flight_capacity as f64)
    );
    assert_eq!(parsed.value("copse_queries_shed_total", &[]), Some(0.0));
}
