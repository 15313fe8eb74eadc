//! The inference service end to end: a server hosting two models from
//! the zoo (one plain, one encrypted deployment), hammered by
//! concurrent clients over loopback TCP with serialized ciphertexts.
//!
//! Run with `cargo run --release --example forest_service`. The
//! closing report shows throughput and the batching scheduler's
//! effect: under concurrent load, evaluation passes serve batches of
//! size > 1, so per-stage artifact traversals are shared.

use copse::core::compiler::CompileOptions;
use copse::core::runtime::ModelForm;
use copse::fhe::ClearBackend;
use copse::forest::zoo;
use copse::server::{parse_exposition, InferenceClient, ServerBuilder, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS_PER_MODEL: usize = 4;
const QUERIES_PER_CLIENT: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two registry entries straight from the paper's model suite:
    // soccer5 deployed encrypted (Maurice offloads), income5 deployed
    // plain (Maurice operates the server) — §8.3's two configurations
    // side by side in one service.
    let soccer = zoo::realworld_model("soccer", 5, 3);
    let income = zoo::realworld_model("income", 5, 3);

    let backend = Arc::new(ClearBackend::with_defaults());
    let server = ServerBuilder::new(Arc::clone(&backend))
        .config(ServerConfig {
            batch_window: Duration::from_millis(20),
            max_batch: 64,
            ..ServerConfig::default()
        })
        // Evaluation forks up to 4 ways onto the process-wide shared
        // copse-pool runtime — both model workers draw from the same
        // pool, so concurrent batches share the host's cores instead
        // of oversubscribing them.
        .threads(4)
        .register(
            "soccer5",
            &soccer.forest,
            CompileOptions::default(),
            ModelForm::Encrypted,
        )?
        .register(
            "income5",
            &income.forest,
            CompileOptions::default(),
            ModelForm::Plain,
        )?
        .bind("127.0.0.1:0")?;
    let handle = server.spawn()?;
    let addr = handle.addr();
    println!("copse-server listening on {addr}");

    {
        let mut browser = InferenceClient::connect(addr, Arc::clone(&backend), "soccer5")?;
        println!("registry: {:?}", browser.list_models()?);
        let metrics = parse_exposition(&browser.metrics()?)?;
        println!(
            "server evaluates {}-way parallel on the shared worker pool",
            metrics.value("copse_pool_threads", &[]).unwrap_or(0.0)
        );
        browser.close()?;
    }

    // Concurrent clients per model, each with its own session. Every
    // client checks the served answer against local reference
    // inference, so this is a correctness harness as well as a load
    // generator.
    let started = Instant::now();
    let mut threads = Vec::new();
    for (name, model) in [("soccer5", &soccer), ("income5", &income)] {
        for c in 0..CLIENTS_PER_MODEL {
            let backend = Arc::clone(&backend);
            let forest = model.forest.clone();
            let queries = copse::forest::microbench::random_queries(
                &forest,
                QUERIES_PER_CLIENT,
                (c as u64 + 1) * 7919,
            );
            threads.push(std::thread::spawn(move || -> std::io::Result<u32> {
                let mut client = InferenceClient::connect(addr, backend, name)?;
                let mut max_batch = 0;
                for q in &queries {
                    let served = client.classify(q)?;
                    assert_eq!(
                        served.outcome.leaf_hits().to_bools(),
                        forest.classify_leaf_hits(q),
                        "{name} query {q:?} diverged from reference"
                    );
                    max_batch = max_batch.max(served.batch_size);
                }
                client.close()?;
                Ok(max_batch)
            }));
        }
    }
    let mut seen_batched = 0u32;
    for t in threads {
        seen_batched = seen_batched.max(t.join().expect("client thread")?);
    }
    let elapsed = started.elapsed();

    let total_queries = 2 * CLIENTS_PER_MODEL * QUERIES_PER_CLIENT;
    let snapshot = handle.snapshot();
    println!(
        "served {total_queries} queries in {elapsed:?} ({:.1} queries/s)",
        total_queries as f64 / elapsed.as_secs_f64()
    );
    println!(
        "evaluation passes: {} (mean batch {:.2}, max batch {})",
        snapshot.batches,
        snapshot.mean_batch(),
        snapshot.max_batch
    );
    println!("batch-size histogram: {:?}", snapshot.batch_size_counts);
    println!(
        "per-stage homomorphic ops: comparison {}, reshuffle {}, levels {}, accumulate {}",
        snapshot.comparison_ops.total_homomorphic(),
        snapshot.reshuffle_ops.total_homomorphic(),
        snapshot.level_ops.total_homomorphic(),
        snapshot.accumulate_ops.total_homomorphic(),
    );
    println!(
        "largest batch observed by a client: {seen_batched} \
         (every classification matched plaintext reference inference)"
    );

    // The operator's view: the metrics exposition a scraper pulls —
    // per-model latency histograms, the queue-wait vs evaluation
    // split, overload counters and the static circuit analysis.
    println!();
    let mut observer = InferenceClient::connect(addr, Arc::clone(&backend), "soccer5")?;
    print!("{}", observer.metrics()?);
    observer.close()?;

    // Both model workers evaluated on the process-wide shared pool;
    // its counters show how the forked work was spread.
    let pool = copse::pool::global().stats();
    println!(
        "shared pool: {} workers ran {} forked tasks ({} busy, {} queued)",
        pool.threads,
        pool.total_tasks(),
        copse::trace::format_nanos(pool.total_busy().as_nanos().min(u128::from(u64::MAX)) as u64),
        copse::trace::format_nanos(
            pool.total_queue_wait().as_nanos().min(u128::from(u64::MAX)) as u64
        ),
    );

    handle.shutdown();
    Ok(())
}
