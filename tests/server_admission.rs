//! Deploy-time admission: the server must refuse — with a structured
//! wire diagnostic — any model whose circuit the backend cannot
//! evaluate, *before* the first query arrives, while continuing to
//! serve the models that do fit. Covers the two concrete failure
//! classes the analyzer proves statically: multiplicative depth over
//! the modulus chain, and slot rotations on a rotation-free
//! (negacyclic) ring.

use copse::core::compiler::CompileOptions;
use copse::core::runtime::ModelForm;
use copse::core::wire::{Frame, RejectionCode};
use copse::fhe::{BgvBackend, BgvParams, ClearBackend, ClearConfig, FheBackend};
use copse::forest::microbench::{self, MicrobenchSpec};
use copse::forest::model::Forest;
use copse::server::transport::{read_frame, write_frame};
use copse::server::{AdmissionPolicy, CircuitBudget, InferenceClient, ServerBuilder};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn forest_of_depth(max_depth: u32) -> Forest {
    microbench::generate(
        &MicrobenchSpec {
            name: "admission",
            max_depth,
            precision: 2,
            n_trees: 1,
            branches: max_depth as usize,
        },
        17,
    )
}

/// Speaks the wire protocol directly so the test can see the
/// structured [`RejectionDetail`] the richer `InferenceClient` API
/// folds into an `io::Error` message.
fn hello(addr: SocketAddr, model: &str) -> Frame {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    write_frame(
        &mut writer,
        &Frame::ClientHello {
            model: model.into(),
        },
    )
    .expect("hello");
    read_frame(&mut reader).expect("response")
}

#[test]
fn depth_exceeding_model_is_rejected_before_deploy() {
    // A clear backend with a deliberately short depth budget: deep
    // enough for the depth-2 model, not for the depth-8 one.
    let backend = Arc::new(ClearBackend::new(ClearConfig {
        max_depth: 6,
        slot_capacity: None,
        work_per_op: 0,
    }));
    let server = ServerBuilder::new(Arc::clone(&backend))
        .register(
            "shallow",
            &forest_of_depth(2),
            CompileOptions::default(),
            ModelForm::Plain,
        )
        .expect("shallow compiles")
        .register(
            "deep",
            &forest_of_depth(8),
            CompileOptions::default(),
            ModelForm::Plain,
        )
        .expect("deep compiles")
        .bind("127.0.0.1:0")
        .expect("bind");

    let rejections = server.rejections();
    assert_eq!(rejections.len(), 1, "only the deep model is rejected");
    let detail = &rejections[0];
    assert_eq!(detail.model, "deep");
    assert_eq!(detail.code, RejectionCode::DepthExceeded);
    assert_eq!(detail.available, u64::from(backend.config().max_depth));
    assert!(detail.required > detail.available);
    let required = detail.required;

    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    // The rejected model answers its handshake with the structured
    // diagnostic — numbers in the text, machine-readable detail along.
    match hello(addr, "deep") {
        Frame::Error {
            message, detail, ..
        } => {
            assert!(message.contains("rejected at deploy"), "{message}");
            assert!(message.contains(&required.to_string()), "{message}");
            let detail = detail.expect("structured detail on the wire");
            assert_eq!(detail.code, RejectionCode::DepthExceeded);
            assert_eq!(detail.required, required);
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    // An unknown name still reads as unknown, not rejected.
    match hello(addr, "missing") {
        Frame::Error {
            message, detail, ..
        } => {
            assert!(message.contains("unknown model"), "{message}");
            assert!(detail.is_none());
        }
        other => panic!("expected unknown-model error, got {other:?}"),
    }

    // The admitted model serves normally on the same server.
    let mut client =
        InferenceClient::connect(addr, Arc::clone(&backend), "shallow").expect("admitted");
    assert_eq!(client.list_models().expect("list"), vec!["shallow"]);
    client.classify(&[1, 2]).expect("shallow model serves");
    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn slot_rotation_on_a_negacyclic_ring_is_rejected() {
    // The negacyclic power-of-two ring has no slot group, so the
    // matmul stages' rotations are statically unevaluable.
    let backend = Arc::new(BgvBackend::new(BgvParams::negacyclic_tiny()));
    assert!(!backend.supports_slot_rotation());
    let server = ServerBuilder::new(Arc::clone(&backend))
        .register(
            "rotating",
            &forest_of_depth(2),
            CompileOptions::default(),
            ModelForm::Plain,
        )
        .expect("compiles")
        .bind("127.0.0.1:0")
        .expect("bind");

    let rejections = server.rejections();
    assert_eq!(rejections.len(), 1);
    assert_eq!(rejections[0].code, RejectionCode::SlotRotationUnsupported);
    assert!(rejections[0].required > 0, "counts the needed rotations");

    let handle = server.spawn().expect("spawn");
    match hello(handle.addr(), "rotating") {
        Frame::Error {
            message, detail, ..
        } => {
            assert!(message.contains("no slot structure"), "{message}");
            assert_eq!(
                detail.expect("structured detail").code,
                RejectionCode::SlotRotationUnsupported
            );
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn warn_policy_deploys_anyway_and_reports_the_overdraft() {
    let backend = Arc::new(ClearBackend::new(ClearConfig {
        max_depth: 6,
        slot_capacity: None,
        work_per_op: 0,
    }));
    let server = ServerBuilder::new(Arc::clone(&backend))
        .admission(AdmissionPolicy::Warn)
        .register(
            "deep",
            &forest_of_depth(8),
            CompileOptions::default(),
            ModelForm::Plain,
        )
        .expect("compiles")
        .bind("127.0.0.1:0")
        .expect("bind");

    assert!(server.rejections().is_empty(), "warn never rejects");
    let stats = server.stats();
    let snapshot = stats.snapshot();
    let summary = snapshot.circuits.get("deep").expect("circuit analyzed");
    assert_eq!(summary.budget, CircuitBudget::Depth { budget: 6 });
    assert!(summary.depth > 6);
    assert_eq!(summary.headroom(), None);
    assert!(snapshot.render_text().contains("OVER BUDGET"));

    // The model really is deployed: its handshake succeeds.
    let handle = server.spawn().expect("spawn");
    match hello(handle.addr(), "deep") {
        Frame::ServerHello { .. } => {}
        other => panic!("warn policy should deploy, got {other:?}"),
    }
    handle.shutdown();
}
