//! Integration test for the inference service: an in-process server
//! on an ephemeral port, two registered models, concurrent clients
//! with serialized ciphertexts, and the batching scheduler under load.

use copse::core::compiler::CompileOptions;
use copse::core::runtime::{Diane, Maurice, ModelForm, Sally};
use copse::fhe::ClearBackend;
use copse::forest::microbench::{self, table6_specs};
use copse::forest::model::Forest;
use copse::server::{parse_exposition, Exposition, InferenceClient, ServerBuilder, ServerConfig};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Pulls and parses the server's metrics exposition over `client`'s
/// session.
fn pull_metrics(client: &mut InferenceClient<ClearBackend>) -> Exposition {
    parse_exposition(&client.metrics().expect("metrics pull")).expect("exposition parses")
}

/// How many models the exposition carries a latency histogram for.
fn latency_histograms(metrics: &Exposition) -> usize {
    metrics.families["copse_model_latency_nanos"]
        .samples
        .iter()
        .filter(|s| s.name == "copse_model_latency_nanos_count")
        .count()
}

fn spawn_two_model_server(
    backend: &Arc<ClearBackend>,
    depth_forest: &Forest,
    width_forest: &Forest,
    batch_window: Duration,
) -> copse::server::ServerHandle<ClearBackend> {
    ServerBuilder::new(Arc::clone(backend))
        .config(ServerConfig {
            batch_window,
            max_batch: 64,
            ..ServerConfig::default()
        })
        .register(
            "depth5",
            depth_forest,
            CompileOptions::default(),
            ModelForm::Encrypted,
        )
        .expect("depth5 compiles")
        .register(
            "width55",
            width_forest,
            CompileOptions::default(),
            ModelForm::Plain,
        )
        .expect("width55 compiles")
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .spawn()
        .expect("spawn server")
}

#[test]
fn concurrent_clients_match_direct_classification_and_batch() {
    let backend = Arc::new(ClearBackend::with_defaults());
    let depth_forest = microbench::generate(&table6_specs()[1], 11); // depth5
    let width_forest = microbench::generate(&table6_specs()[3], 11); // width55
                                                                     // A generous window so queries released together coalesce even on
                                                                     // a loaded CI machine.
    let handle = spawn_two_model_server(
        &backend,
        &depth_forest,
        &width_forest,
        Duration::from_millis(150),
    );
    let addr = handle.addr();

    // Direct (in-process) reference answers via Sally::classify.
    let reference = |forest: &Forest, queries: &[Vec<u64>]| -> Vec<Vec<bool>> {
        let maurice = Maurice::compile(forest, CompileOptions::default()).unwrap();
        let sally = Sally::host(
            backend.as_ref(),
            maurice.deploy(backend.as_ref(), ModelForm::Encrypted),
        );
        let diane = Diane::new(backend.as_ref(), maurice.public_query_info());
        queries
            .iter()
            .map(|q| {
                let enc = diane.encrypt_features(q).unwrap();
                diane
                    .decrypt_result(&sally.classify(&enc))
                    .leaf_hits()
                    .to_bools()
            })
            .collect()
    };

    const CLIENTS_PER_MODEL: usize = 5;
    const QUERIES_PER_CLIENT: usize = 3;
    let barrier = Arc::new(Barrier::new(2 * CLIENTS_PER_MODEL));
    let mut threads = Vec::new();
    for (name, forest) in [("depth5", &depth_forest), ("width55", &width_forest)] {
        for c in 0..CLIENTS_PER_MODEL {
            let backend = Arc::clone(&backend);
            let queries = microbench::random_queries(forest, QUERIES_PER_CLIENT, c as u64 + 31);
            let expected = reference(forest, &queries);
            let barrier = Arc::clone(&barrier);
            threads.push(std::thread::spawn(move || {
                let mut client = InferenceClient::connect(addr, backend, name).expect("connect");
                // Release all ≥10 concurrent clients' first queries at
                // once so the scheduler has something to coalesce.
                barrier.wait();
                let mut max_batch = 0;
                for (q, want) in queries.iter().zip(&expected) {
                    let served = client.classify(q).expect("classify");
                    assert_eq!(
                        &served.outcome.leaf_hits().to_bools(),
                        want,
                        "{name} query {q:?}"
                    );
                    assert!(served.batch_size >= 1);
                    max_batch = max_batch.max(served.batch_size);
                }
                client.close().expect("close");
                max_batch
            }));
        }
    }
    let max_client_batch = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .max()
        .unwrap();

    let snapshot = handle.stats().snapshot();
    assert_eq!(
        snapshot.queries_served,
        (2 * CLIENTS_PER_MODEL * QUERIES_PER_CLIENT) as u64
    );
    assert!(
        snapshot.max_batch > 1,
        "no multi-query batch formed: histogram {:?}",
        snapshot.batch_size_counts
    );
    assert_eq!(max_client_batch as usize, snapshot.max_batch);
    assert!(snapshot.batches < snapshot.queries_served);
    assert!(snapshot.comparison_ops.total_homomorphic() > 0);
    assert!(snapshot.level_ops.total_homomorphic() > 0);

    // The latency layer: every query got a histogram sample in its
    // model's bucket, and evaluation time was actually attributed.
    assert_eq!(snapshot.per_model.len(), 2);
    for name in ["depth5", "width55"] {
        let m = snapshot.per_model.get(name).expect("model tracked");
        assert_eq!(m.queries, (CLIENTS_PER_MODEL * QUERIES_PER_CLIENT) as u64);
        assert_eq!(m.latency.count(), m.queries);
        assert!(m.latency.p99_nanos() >= m.latency.p50_nanos());
    }
    assert!(snapshot.eval_total > Duration::ZERO);

    // The handle's snapshot adds what the raw counters cannot see:
    // one live queue gauge per deployed model.
    let gauges = handle.snapshot().queue_depths;
    let gauged: Vec<&str> = gauges.iter().map(|q| q.model.as_str()).collect();
    assert_eq!(gauged, ["depth5", "width55"]);

    // And the same split reaches remote clients through the metrics
    // pull.
    let mut observer =
        InferenceClient::connect(addr, Arc::clone(&backend), "depth5").expect("observer");
    let remote = pull_metrics(&mut observer);
    assert_eq!(
        remote.value("copse_queries_served_total", &[]),
        Some(snapshot.queries_served as f64)
    );
    assert!(
        remote
            .value("copse_eval_nanos_total", &[])
            .expect("eval nanos")
            > 0.0
    );
    assert_eq!(
        latency_histograms(&remote),
        2,
        "one latency histogram per model"
    );
    for name in ["depth5", "width55"] {
        assert_eq!(
            remote.value("copse_model_queries_total", &[("model", name)]),
            Some((CLIENTS_PER_MODEL * QUERIES_PER_CLIENT) as f64)
        );
    }
    assert_eq!(
        remote.value("copse_queue_wait_nanos_total", &[]),
        Some(snapshot.queue_wait_total.as_nanos() as f64)
    );
    observer.close().expect("close observer");
    handle.shutdown();
}

#[test]
fn unsupported_wire_versions_get_a_typed_error_then_eof() {
    use copse::core::wire::{encode_frame, Frame, WIRE_VERSION};
    use copse::server::transport::read_frame;
    use std::io::{Read, Write};

    let backend = Arc::new(ClearBackend::with_defaults());
    let forest = microbench::generate(&table6_specs()[0], 5);
    let handle = spawn_two_model_server(
        &backend,
        &forest,
        &microbench::generate(&table6_specs()[3], 5),
        Duration::from_millis(1),
    );
    let mut current =
        InferenceClient::connect(handle.addr(), Arc::clone(&backend), "depth5").expect("connect");

    // A raw peer of the neighbouring vintages: a well-formed hello
    // whose version byte is not the server's. It is told why the
    // session ends, at the server's own version, and then hung up on.
    for version in [WIRE_VERSION - 1, WIRE_VERSION + 1] {
        let mut hello = encode_frame(&Frame::ClientHello {
            model: "depth5".into(),
        })
        .to_vec();
        hello[0] = version;
        let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect raw");
        stream
            .write_all(&(hello.len() as u32).to_be_bytes())
            .and_then(|()| stream.write_all(&hello))
            .expect("send hello");
        match read_frame(&mut stream).expect("the refusal decodes at the current version") {
            Frame::Error {
                message,
                detail: None,
                timing: None,
            } => assert_eq!(
                message,
                format!("unsupported wire version {version}; this server speaks {WIRE_VERSION}")
            ),
            other => panic!("expected Error, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).expect("clean close"), 0);
    }

    // The concurrent current-version session is unaffected.
    let q = microbench::random_queries(&forest, 1, 3).remove(0);
    assert_eq!(
        current
            .classify(&q)
            .expect("classify")
            .outcome
            .leaf_hits()
            .to_bools(),
        forest.classify_leaf_hits(&q)
    );
    let remote = pull_metrics(&mut current);
    assert_eq!(remote.value("copse_queries_served_total", &[]), Some(1.0));
    assert_eq!(
        latency_histograms(&remote),
        1,
        "only the queried model has a histogram"
    );
    assert!(
        remote
            .value("copse_eval_nanos_total", &[])
            .expect("eval nanos")
            > 0.0
    );
    current.close().expect("close");
    handle.shutdown();
}

#[test]
fn poisoned_query_does_not_fail_coalesced_neighbours() {
    use copse::core::wire::Frame;
    use copse::fhe::FheBackend;
    use copse::server::transport::{read_frame, write_frame};

    let backend = Arc::new(ClearBackend::with_defaults());
    let forest = microbench::generate(&table6_specs()[0], 5);
    let handle = spawn_two_model_server(
        &backend,
        &forest,
        &microbench::generate(&table6_specs()[3], 5),
        Duration::from_millis(200),
    );
    let addr = handle.addr();

    // Hand-craft query planes whose ciphertexts claim depth ==
    // max_depth: legal to deserialize, but the comparison stage's
    // first multiply busts the budget and panics the evaluator.
    let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
    let diane = Diane::new(backend.as_ref(), maurice.public_query_info());
    let good_features = microbench::random_queries(&forest, 1, 9).remove(0);
    let poisoned_planes: Vec<bytes::Bytes> = diane
        .encrypt_features(&good_features)
        .unwrap()
        .planes()
        .iter()
        .map(|ct| {
            let mut raw = backend.serialize_ciphertext(ct);
            // Layout: [magic u8][depth u32 LE][width u64 LE][bits].
            raw[1..5].copy_from_slice(&backend.config().max_depth.to_le_bytes());
            bytes::Bytes::from(raw)
        })
        .collect();

    let barrier = Arc::new(Barrier::new(2));
    let poison_barrier = Arc::clone(&barrier);
    let poisoner = std::thread::spawn(move || {
        let stream = std::net::TcpStream::connect(addr).expect("connect raw");
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = std::io::BufWriter::new(stream);
        write_frame(
            &mut writer,
            &Frame::ClientHello {
                model: "depth5".into(),
            },
        )
        .unwrap();
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Frame::ServerHello { .. }
        ));
        poison_barrier.wait();
        write_frame(
            &mut writer,
            &Frame::Query {
                id: 666,
                deadline_ms: 0,
                trace: None,
                planes: poisoned_planes,
            },
        )
        .unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Error { message, .. } => {
                assert!(message.contains("depth budget"), "{message}")
            }
            other => panic!("poisoned query got {other:?}"),
        }
    });

    let honest_backend = Arc::clone(&backend);
    let honest_features = good_features.clone();
    let honest_forest = forest.clone();
    let honest = std::thread::spawn(move || {
        let mut client = InferenceClient::connect(addr, honest_backend, "depth5").expect("connect");
        barrier.wait();
        let served = client
            .classify(&honest_features)
            .expect("honest query survives");
        assert_eq!(
            served.outcome.leaf_hits().to_bools(),
            honest_forest.classify_leaf_hits(&honest_features)
        );
        client.close().expect("close");
    });

    poisoner.join().expect("poisoner thread");
    honest.join().expect("honest thread");
    handle.shutdown();
}

#[test]
fn service_works_over_real_bgv_ciphertexts() {
    use copse::core::wire::Frame;
    use copse::fhe::{BgvBackend, BgvParams, FheBackend};
    use copse::server::transport::{read_frame, write_frame};
    use std::io::{BufReader, BufWriter};
    use std::net::TcpStream;
    // A model whose widths fit the tiny ring's 6 slots (see
    // tests/bgv_end_to_end.rs for the shape arithmetic).
    let forest = Forest::parse(
        "precision 4\n\
         labels no maybe yes\n\
         tree (branch 0 8 (branch 1 4 (leaf 0) (leaf 1)) (branch 0 3 (leaf 1) (leaf 2)))\n",
    )
    .expect("valid model");
    // 14 primes: more than the circuit needs, so queries arriving at
    // the top of the chain are switched down to the entry level.
    let params = BgvParams {
        m: 31,
        prime_bits: 25,
        chain_len: 14,
        ks_digit_bits: 7,
        error_eta: 2,
        keygen_seed: 0xE2E,
    };
    // Client and server each build the scheme from the same seed —
    // the in-process analogue of Diane provisioning keys.
    let server_backend = Arc::new(BgvBackend::new(params));
    let client_backend = Arc::new(BgvBackend::new(params));
    let handle = ServerBuilder::new(Arc::clone(&server_backend))
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

    let mut client = InferenceClient::connect(handle.addr(), Arc::clone(&client_backend), "tiny")
        .expect("connect");
    for (x, y) in [(0u64, 7u64), (5, 12), (9, 0)] {
        let served = client.classify(&[x, y]).expect("classify");
        assert_eq!(
            served.outcome.leaf_hits().to_bools(),
            forest.classify_leaf_hits(&[x, y]),
            "query ({x}, {y})"
        );
    }
    client.close().expect("close");

    // The result frame carries the ciphertext at one chain prime, where
    // decryption happens: evaluation entered at exactly the level the
    // circuit needs, so it ends there, and the server's compaction
    // keeps any circuit's result that small. It decrypts to the same
    // answer as Sally's.
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compiles");
    let sally = Sally::host(
        server_backend.as_ref(),
        maurice.deploy(server_backend.as_ref(), ModelForm::Encrypted),
    );
    let diane = Diane::new(client_backend.as_ref(), maurice.public_query_info());
    let query = diane.encrypt_features(&[5, 12]).expect("valid query");
    let direct = sally.classify(&query);
    let direct_bytes = server_backend
        .serialize_ciphertext(direct.ciphertext())
        .len();

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    write_frame(
        &mut writer,
        &Frame::ClientHello {
            model: "tiny".into(),
        },
    )
    .expect("hello");
    assert!(matches!(
        read_frame(&mut reader).expect("server hello"),
        Frame::ServerHello { .. }
    ));
    write_frame(
        &mut writer,
        &Frame::Query {
            id: 1,
            deadline_ms: 0,
            trace: None,
            planes: query
                .planes()
                .iter()
                .map(|ct| client_backend.serialize_ciphertext(ct).into())
                .collect(),
        },
    )
    .expect("query");
    let Frame::Result { ciphertext, .. } = read_frame(&mut reader).expect("result") else {
        panic!("expected a result frame");
    };
    let one_prime = client_backend
        .serialize_ciphertext(&client_backend.compact_for_decrypt(&query.planes()[0]))
        .len();
    assert_eq!(ciphertext.len(), one_prime, "result frame ciphertext");
    assert!(direct_bytes >= one_prime);
    let served = client_backend
        .deserialize_ciphertext(&ciphertext)
        .expect("decodes");
    assert_eq!(served.width(), direct.ciphertext().width());
    assert_eq!(
        client_backend.decrypt(&served),
        client_backend.decrypt(direct.ciphertext())
    );
    handle.shutdown();
}

#[test]
fn planes_below_the_entry_level_are_refused_unevaluated() {
    use copse::core::runtime::QueryInfo;
    use copse::core::wire::Frame;
    use copse::fhe::{BgvBackend, BgvParams, FheBackend};
    use copse::server::transport::{read_frame, write_frame};
    use std::io::{BufReader, BufWriter};
    use std::net::TcpStream;
    let forest = Forest::parse("precision 4\nlabels no yes\ntree (branch 0 8 (leaf 0) (leaf 1))\n")
        .expect("valid model");
    let backend = Arc::new(BgvBackend::new(BgvParams::tiny()));
    let handle = ServerBuilder::new(Arc::clone(&backend))
        .register("tiny", &forest, CompileOptions::default(), ModelForm::Plain)
        .expect("compiles")
        .bind("127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let query_frame = |diane: &Diane<'_, BgvBackend>, id: u64| {
        let query = diane.encrypt_features(&[5]).expect("valid query");
        let planes = query.planes().iter();
        Frame::Query {
            id,
            deadline_ms: 0,
            trace: None,
            planes: planes
                .map(|ct| backend.serialize_ciphertext(ct).into())
                .collect(),
        }
    };
    write_frame(
        &mut writer,
        &Frame::ClientHello {
            model: "tiny".into(),
        },
    )
    .expect("hello");
    let Frame::ServerHello { info, .. } = read_frame(&mut reader).expect("server hello") else {
        panic!("expected a server hello");
    };
    let entry = info
        .entry_primes
        .expect("a BGV server advertises its entry level");
    assert!(entry < BgvParams::tiny().chain_len as u32, "entry {entry}");

    // One prime short of the advertised level: a typed error, and the
    // worker never sees the job.
    let short = QueryInfo {
        entry_primes: Some(entry - 1),
        ..info.clone()
    };
    let frame = query_frame(&Diane::new(backend.as_ref(), short), 1);
    write_frame(&mut writer, &frame).expect("query");
    match read_frame(&mut reader).expect("reply") {
        Frame::Error { message, .. } => assert_eq!(
            message,
            format!(
                "plane 0 carries {} chain primes, model `tiny` enters at {entry}",
                entry - 1
            )
        ),
        other => panic!("expected Error, got {other:?}"),
    }
    assert_eq!(
        handle.stats().snapshot().batches,
        0,
        "nothing was evaluated"
    );

    // The same session still serves planes at the advertised level.
    let diane = Diane::new(backend.as_ref(), info);
    write_frame(&mut writer, &query_frame(&diane, 2)).expect("query");
    let Frame::Result { ciphertext, .. } = read_frame(&mut reader).expect("result") else {
        panic!("expected a result frame");
    };
    let result = backend
        .deserialize_ciphertext(&ciphertext)
        .expect("decodes");
    let outcome = diane.decrypt_result(&copse::core::runtime::EncryptedResult::from_ciphertext(
        result,
    ));
    assert_eq!(
        outcome.leaf_hits().to_bools(),
        forest.classify_leaf_hits(&[5])
    );
    handle.shutdown();
}

#[test]
fn registry_discovery_session_isolation_and_errors() {
    let backend = Arc::new(ClearBackend::with_defaults());
    let depth_forest = microbench::generate(&table6_specs()[0], 5);
    let width_forest = microbench::generate(&table6_specs()[3], 5);
    let handle = spawn_two_model_server(
        &backend,
        &depth_forest,
        &width_forest,
        Duration::from_millis(1),
    );
    let addr = handle.addr();

    // Unknown models are a NotFound handshake failure.
    let err = InferenceClient::connect(addr, Arc::clone(&backend), "chess")
        .expect_err("unknown model must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

    let mut a = InferenceClient::connect(addr, Arc::clone(&backend), "depth5").expect("a");
    let mut b = InferenceClient::connect(addr, Arc::clone(&backend), "width55").expect("b");
    assert_ne!(a.session(), b.session(), "sessions must be distinct");
    assert_eq!(
        a.list_models().expect("list"),
        vec!["depth5".to_string(), "width55".to_string()]
    );
    assert!(a.encrypted_model());
    assert!(!b.encrypted_model());

    // Each session classifies against its own model's query info.
    let qa = microbench::random_queries(&depth_forest, 1, 1).remove(0);
    let qb = microbench::random_queries(&width_forest, 1, 1).remove(0);
    assert_eq!(
        a.classify(&qa)
            .expect("a classify")
            .outcome
            .leaf_hits()
            .to_bools(),
        depth_forest.classify_leaf_hits(&qa)
    );
    assert_eq!(
        b.classify(&qb)
            .expect("b classify")
            .outcome
            .leaf_hits()
            .to_bools(),
        width_forest.classify_leaf_hits(&qb)
    );

    // Malformed features are rejected client-side...
    let err = a.classify(&[1]).expect_err("wrong arity");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // ...and the session survives to serve good queries afterwards.
    assert_eq!(
        a.classify(&qa)
            .expect("a again")
            .outcome
            .leaf_hits()
            .to_bools(),
        depth_forest.classify_leaf_hits(&qa)
    );

    assert_eq!(
        pull_metrics(&mut a).value("copse_queries_served_total", &[]),
        Some(3.0)
    );
    a.close().expect("close a");
    b.close().expect("close b");
    handle.shutdown();
}

#[test]
fn parallel_server_serves_identical_answers_and_reports_pool_size() {
    // Same registry, two servers: sequential oracle vs 4-way pool
    // parallelism. Served answers must match bitwise, and the metrics
    // pull must carry the configured pool degree to clients.
    let backend = Arc::new(ClearBackend::with_defaults());
    let forest = microbench::generate(&table6_specs()[1], 77);
    let build = |threads: usize| {
        ServerBuilder::new(Arc::clone(&backend))
            .config(ServerConfig {
                batch_window: Duration::from_millis(5),
                max_batch: 16,
                ..ServerConfig::default()
            })
            .threads(threads)
            .register(
                "depth5",
                &forest,
                CompileOptions::default(),
                ModelForm::Encrypted,
            )
            .expect("compiles")
            .bind("127.0.0.1:0")
            .expect("bind")
            .spawn()
            .expect("spawn")
    };
    let seq = build(1);
    let par = build(4);

    let queries = microbench::random_queries(&forest, 5, 13);
    let mut seq_client =
        InferenceClient::connect(seq.addr(), Arc::clone(&backend), "depth5").expect("seq connect");
    let mut par_client =
        InferenceClient::connect(par.addr(), Arc::clone(&backend), "depth5").expect("par connect");
    for q in &queries {
        let a = seq_client.classify(q).expect("seq classify");
        let b = par_client.classify(q).expect("par classify");
        assert_eq!(
            a.outcome.leaf_hits(),
            b.outcome.leaf_hits(),
            "parallel server diverged on {q:?}"
        );
    }
    let pool_threads = |client: &mut InferenceClient<ClearBackend>| {
        pull_metrics(client).value("copse_pool_threads", &[])
    };
    assert_eq!(pool_threads(&mut seq_client), Some(1.0));
    assert_eq!(pool_threads(&mut par_client), Some(4.0));
    assert_eq!(par.stats().snapshot().pool_threads, 4);
    seq_client.close().expect("close");
    par_client.close().expect("close");
    seq.shutdown();
    par.shutdown();
}

#[test]
fn burst_of_clients_forms_packed_batches_with_correct_answers() {
    use copse::core::runtime::PackPlan;
    use copse::fhe::ClearConfig;

    let forest = microbench::generate(&table6_specs()[0], 5);
    let maurice = Maurice::compile(&forest, CompileOptions::default()).expect("compile");
    // Probe the model's packed stride with unbounded capacity, then
    // give the serving backend room for exactly 4 lanes.
    let probe = ClearBackend::new(ClearConfig {
        slot_capacity: Some(1 << 20),
        ..ClearConfig::default()
    });
    let PackPlan { stride, .. } = Sally::host(&probe, maurice.deploy(&probe, ModelForm::Encrypted))
        .pack_plan()
        .expect("probe capacity fits");
    let backend = Arc::new(ClearBackend::new(ClearConfig {
        slot_capacity: Some(4 * stride),
        ..ClearConfig::default()
    }));

    // A generous window so a 16-client burst coalesces into multi-query
    // batches even on a loaded CI machine.
    let handle = ServerBuilder::new(Arc::clone(&backend))
        .config(ServerConfig {
            batch_window: Duration::from_millis(250),
            max_batch: 16,
            ..ServerConfig::default()
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

    const CLIENTS: usize = 16;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let backend = Arc::clone(&backend);
            let query = microbench::random_queries(&forest, 1, c as u64 + 61).remove(0);
            let want = forest.classify_leaf_hits(&query);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client =
                    InferenceClient::connect(addr, backend, "depth4").expect("connect");
                barrier.wait();
                let served = client.classify(&query).expect("classify");
                assert_eq!(
                    served.outcome.leaf_hits().to_bools(),
                    want,
                    "packed serving changed an answer for {query:?}"
                );
                client.close().expect("close");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    // The stats layer saw the packed dimension...
    let snapshot = handle.stats().snapshot();
    assert_eq!(snapshot.queries_served, CLIENTS as u64);
    assert!(
        snapshot.max_batch > 1,
        "no multi-query batch formed: histogram {:?}",
        snapshot.batch_size_counts
    );
    assert!(
        snapshot.packed_queries > 0,
        "no query shared a packed ciphertext: occupancy {:?}",
        snapshot.packed_size_counts
    );
    assert!(
        (2..=4).contains(&snapshot.max_packed),
        "lane occupancy outside the 4-lane capacity: {}",
        snapshot.max_packed
    );
    let mut observer =
        InferenceClient::connect(addr, Arc::clone(&backend), "depth4").expect("observer");
    let remote = pull_metrics(&mut observer);
    assert_eq!(
        remote.value("copse_packed_queries_total", &[]),
        Some(snapshot.packed_queries as f64)
    );
    assert_eq!(
        remote.value("copse_max_packed", &[]),
        Some(f64::from(snapshot.max_packed))
    );
    observer.close().expect("close observer");

    // ...and so did the flight recorder, per query: packing engaged in
    // at least one coalesced batch, and no record claims more lanes
    // than its batch had queries.
    let flight = handle.shutdown();
    assert_eq!(flight.len(), CLIENTS);
    assert!(
        flight.iter().any(|r| r.batch_size > 1 && r.packed_size > 1),
        "no flight record shows packing engaged: {flight:?}"
    );
    for record in &flight {
        assert!(record.packed_size >= 1, "served but unpacked? {record:?}");
        assert!(
            record.packed_size <= record.batch_size,
            "more lanes than batchmates: {record:?}"
        );
    }
}
