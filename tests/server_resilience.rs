//! Resilience tests for the serving tier: bounded queues shed under
//! overload (a structured `Busy`), deadlines expire in-queue without
//! being evaluated,
//! clients retry through sheds, models hot-deploy and hot-undeploy on
//! a live server, and shutdown drains instead of dropping.
//!
//! The overload phases hold the server in a known busy state with
//! [`FaultPlan::eval_delay`]: every evaluation pass stalls for a
//! fixed window, so "the worker is busy and the queue is full" is
//! deterministic regardless of backend speed or build profile.

use copse::core::compiler::CompileOptions;
use copse::core::runtime::{Diane, ModelForm};
use copse::core::wire::Frame;
use copse::fhe::{ClearBackend, FheBackend};
use copse::forest::model::Forest;
use copse::server::transport::{read_frame, write_frame};
use copse::server::{
    DeployError, FaultPlan, InferenceClient, RetryPolicy, ServerBuilder, ServerConfig,
};
use std::io::ErrorKind;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn tiny_forest() -> Forest {
    Forest::parse(
        "precision 4\n\
         labels no maybe yes\n\
         tree (branch 0 8 (branch 1 4 (leaf 0) (leaf 1)) (branch 0 3 (leaf 1) (leaf 2)))\n",
    )
    .expect("valid model")
}

/// One raw session: hello for `model`, send one valid query, return
/// the frame the server answered the query with.
fn raw_query(
    addr: std::net::SocketAddr,
    backend: &Arc<ClearBackend>,
    model: &str,
    features: &[u64],
) -> Frame {
    let stream = std::net::TcpStream::connect(addr).expect("connect raw");
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = std::io::BufWriter::new(stream);
    write_frame(
        &mut writer,
        &Frame::ClientHello {
            model: model.into(),
        },
    )
    .expect("hello");
    let info = match read_frame(&mut reader).expect("server hello") {
        Frame::ServerHello { info, .. } => info,
        other => panic!("expected ServerHello, got {other:?}"),
    };
    let diane = Diane::new(backend.as_ref(), info);
    let planes: Vec<bytes::Bytes> = diane
        .encrypt_features(features)
        .expect("encrypt")
        .planes()
        .iter()
        .map(|ct| bytes::Bytes::from(backend.serialize_ciphertext(ct)))
        .collect();
    write_frame(
        &mut writer,
        &Frame::Query {
            id: 42,
            deadline_ms: 0,
            trace: None,
            planes,
        },
    )
    .expect("query");
    read_frame(&mut reader).expect("response")
}

#[test]
fn overload_sheds_deadlines_expire_and_shutdown_drains() {
    let forest = tiny_forest();
    let server_backend = Arc::new(ClearBackend::with_defaults());
    let client_backend = Arc::clone(&server_backend);
    let expected = forest.classify_leaf_hits(&[5, 12]);

    // Capacity 1, no coalescing: one query evaluates (held for a
    // deterministic 400 ms by the injected slow-model stall), one
    // waits, the rest shed. `retry_after_ms` is distinctive so the
    // wire tests below can assert it propagated.
    let handle = ServerBuilder::new(Arc::clone(&server_backend))
        .config(ServerConfig {
            batch_window: Duration::from_millis(1),
            max_batch: 1,
            queue_capacity: 1,
            retry_after_ms: 25,
            ..ServerConfig::default()
        })
        .faults(FaultPlan {
            eval_delay: Duration::from_millis(400),
            ..FaultPlan::default()
        })
        .register(
            "tiny",
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

    // Phase 1 — burst, no retries: with one slot evaluating and one
    // queued, a 4-client burst must shed at least once, and every
    // client gets exactly one of {correct result, shed error}.
    let barrier = Arc::new(Barrier::new(4));
    let burst: Vec<_> = (0..4)
        .map(|_| {
            let backend = Arc::clone(&client_backend);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client =
                    InferenceClient::connect_with(addr, backend, "tiny", RetryPolicy::none())
                        .expect("connect");
                barrier.wait();
                client.classify(&[5, 12])
            })
        })
        .collect();
    let mut served = 0;
    let mut shed = 0;
    for t in burst {
        match t.join().expect("burst thread") {
            Ok(got) => {
                assert_eq!(got.outcome.leaf_hits().to_bools(), expected);
                served += 1;
            }
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::WouldBlock, "unexpected error: {e}");
                assert!(e.to_string().contains("shed the query"), "{e}");
                shed += 1;
            }
        }
    }
    assert!(served >= 1, "the first enqueued query always evaluates");
    assert!(shed >= 1, "a 4-burst against capacity 1 must shed");
    assert_eq!(served + shed, 4);
    assert!(handle.stats().snapshot().queries_shed >= shed as u64);

    // Phase 2 — the wire form of a shed. Occupy the evaluator and the
    // queue slot with two real clients, then probe with a raw
    // session: it must get the structured `Busy` with the configured
    // hint.
    let occupiers: Vec<_> = (0..2)
        .map(|_| {
            let backend = Arc::clone(&client_backend);
            std::thread::spawn(move || {
                let mut client = InferenceClient::connect(addr, backend, "tiny").expect("connect");
                client.classify(&[5, 12]).expect("occupier classify")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(250));

    match raw_query(addr, &client_backend, "tiny", &[5, 12]) {
        Frame::Busy { id, detail, .. } => {
            assert_eq!(id, 42);
            assert_eq!(detail.model, "tiny");
            assert_eq!(detail.retry_after_ms, 25);
            assert_eq!(detail.queue_depth, 1);
        }
        other => panic!("a full queue must shed as Busy, got {other:?}"),
    }
    for t in occupiers {
        let got = t.join().expect("occupier thread");
        assert_eq!(got.outcome.leaf_hits().to_bools(), expected);
    }

    // Phase 3 — deadlines and retry. An occupier holds the
    // evaluator; a 1 ms-deadline query sits in the queue long past
    // its budget and must be answered expired without ever being
    // evaluated; a retrying client launched into the full queue gets
    // shed at least once and still ends with the correct answer.
    let occupier = {
        let backend = Arc::clone(&client_backend);
        std::thread::spawn(move || {
            let mut client = InferenceClient::connect(addr, backend, "tiny").expect("connect");
            client.classify(&[5, 12]).expect("occupier classify")
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    let doomed = {
        let backend = Arc::clone(&client_backend);
        std::thread::spawn(move || {
            let mut client = InferenceClient::connect(addr, backend, "tiny").expect("connect");
            client.set_deadline(Some(Duration::from_millis(1)));
            client.classify(&[5, 12])
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let retrier = {
        let backend = Arc::clone(&client_backend);
        std::thread::spawn(move || {
            let policy = RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_millis(200),
                max_backoff: Duration::from_secs(2),
                jitter_seed: 7,
            };
            let mut client =
                InferenceClient::connect_with(addr, backend, "tiny", policy).expect("connect");
            client.classify(&[5, 12]).expect("retrier classify")
        })
    };
    let err = doomed
        .join()
        .expect("doomed thread")
        .expect_err("a 1 ms deadline cannot survive a busy queue");
    assert!(
        err.to_string().contains("deadline of 1 ms expired"),
        "{err}"
    );
    assert!(err.to_string().contains("not evaluated"), "{err}");
    let got = retrier.join().expect("retrier thread");
    assert_eq!(got.outcome.leaf_hits().to_bools(), expected);
    assert!(got.retries >= 1, "the retrier found a full queue first");
    assert_eq!(occupier.join().expect("occupier").batch_size, 1);
    let snap = handle.stats().snapshot();
    assert_eq!(snap.queries_expired, 1);

    // Phase 4 — shutdown drains. One query mid-evaluation finishes
    // and answers normally; one still queued is answered with an
    // explicit shed. No accepted query vanishes or hangs.
    let drained: Vec<_> = (0..2)
        .map(|_| {
            let backend = Arc::clone(&client_backend);
            std::thread::spawn(move || {
                let mut client =
                    InferenceClient::connect_with(addr, backend, "tiny", RetryPolicy::none())
                        .expect("connect");
                client.classify(&[5, 12])
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(250));
    handle.shutdown();
    let mut drained_ok = 0;
    let mut drained_shed = 0;
    for t in drained {
        match t.join().expect("drained thread") {
            Ok(got) => {
                assert_eq!(got.outcome.leaf_hits().to_bools(), expected);
                drained_ok += 1;
            }
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::WouldBlock, "unexpected error: {e}");
                drained_shed += 1;
            }
        }
    }
    assert_eq!(
        drained_ok + drained_shed,
        2,
        "every accepted query answered"
    );
    assert!(
        drained_ok >= 1,
        "the in-flight evaluation finishes through a drain"
    );
}

#[test]
fn models_hot_deploy_and_undeploy_on_a_live_server() {
    let backend = Arc::new(ClearBackend::with_defaults());
    let forest_a = tiny_forest();
    let forest_b =
        Forest::parse("labels no yes\ntree (branch 0 8 (leaf 0) (leaf 1))\n").expect("valid model");

    let handle = ServerBuilder::new(Arc::clone(&backend))
        .register(
            "a",
            &forest_a,
            CompileOptions::default(),
            ModelForm::Encrypted,
        )
        .expect("compiles")
        .bind("127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    let mut client_a = InferenceClient::connect(addr, Arc::clone(&backend), "a").expect("a");
    assert_eq!(
        client_a
            .classify(&[5, 12])
            .expect("a classify")
            .outcome
            .leaf_hits()
            .to_bools(),
        forest_a.classify_leaf_hits(&[5, 12])
    );

    // "b" does not exist yet.
    let err =
        InferenceClient::connect(addr, Arc::clone(&backend), "b").expect_err("b not deployed yet");
    assert_eq!(err.kind(), ErrorKind::NotFound);

    // Hot-deploy onto the live server: new hellos see it immediately.
    handle
        .deploy_forest("b", &forest_b, CompileOptions::default(), ModelForm::Plain)
        .expect("compiles")
        .expect("deploys");
    assert_eq!(handle.models(), vec!["a".to_string(), "b".to_string()]);
    let mut client_b = InferenceClient::connect(addr, Arc::clone(&backend), "b").expect("b");
    assert_eq!(
        client_b
            .classify(&[3])
            .expect("b classify")
            .outcome
            .plurality_label(),
        Some("yes")
    );

    // The same name cannot be deployed twice.
    match handle
        .deploy_forest("b", &forest_b, CompileOptions::default(), ModelForm::Plain)
        .expect("compiles")
    {
        Err(DeployError::DuplicateName(name)) => assert_eq!(name, "b"),
        other => panic!("expected DuplicateName, got {other:?}"),
    }

    // Hot-undeploy: sessions already helloed to "b" get a typed
    // error on their next query; new hellos get "unknown model".
    assert!(handle.undeploy("b"));
    assert!(!handle.undeploy("b"), "second undeploy is a no-op");
    let err = client_b.classify(&[3]).expect_err("b is gone");
    assert!(err.to_string().contains("undeployed"), "{err}");
    let err = InferenceClient::connect(addr, Arc::clone(&backend), "b")
        .expect_err("b no longer deployed");
    assert_eq!(err.kind(), ErrorKind::NotFound);
    assert_eq!(handle.models(), vec!["a".to_string()]);

    // The survivor is untouched by its neighbour's churn.
    assert_eq!(
        client_a
            .classify(&[9, 0])
            .expect("a again")
            .outcome
            .leaf_hits()
            .to_bools(),
        forest_a.classify_leaf_hits(&[9, 0])
    );
    client_a.close().expect("close a");
    handle.shutdown();
}
