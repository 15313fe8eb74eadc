//! Quickstart: compile a small decision tree, encrypt everything, and
//! run one secure classification.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The model is the running example of the paper (Fig. 1): two
//! features `x` and `y`, six labels `L0..L5`. Maurice compiles and
//! encrypts the model, Diane encrypts her features, Sally classifies
//! without seeing either, and Diane decrypts the N-hot result.

use copse::core::compiler::CompileOptions;
use copse::core::runtime::{Diane, Maurice, ModelForm, Sally};
use copse::fhe::{ClearBackend, CostModel, FheBackend};
use copse::forest::model::Forest;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Fig. 1 tree in the paper's serialised model format
    // (feature 0 = x, feature 1 = y; `branch f t LOW HIGH` tests
    // x[f] < t, true goes HIGH).
    let forest = Forest::parse(
        "labels L0 L1 L2 L3 L4 L5\n\
         tree (branch 1 50 \
                 (branch 0 30 \
                    (branch 1 10 (leaf 0) (leaf 1)) \
                    (branch 0 20 (leaf 2) (leaf 3))) \
                 (branch 1 40 (leaf 4) (leaf 5)))\n",
    )?;

    println!(
        "model: b = {} branches, d = {} levels, K = {}, q = {}",
        forest.branch_count(),
        forest.max_level(),
        forest.max_multiplicity(),
        forest.quantized_branching(),
    );

    // Maurice compiles and deploys an *encrypted* model: Sally will
    // compute over ciphertexts only.
    let backend = ClearBackend::with_defaults();
    let maurice = Maurice::compile(&forest, CompileOptions::default())?;
    let sally = Sally::host(&backend, maurice.deploy(&backend, ModelForm::Encrypted));
    let diane = Diane::new(&backend, maurice.public_query_info());

    // Diane classifies (x, y) = (0, 5): y < 50 -> true side, y < 40 ->
    // true side, so L5... the paper walks (0, 5) to L4/L5 depending on
    // thresholds; with ours it lands on L5.
    let features = [0u64, 5u64];
    let query = diane.encrypt_features(&features)?;
    let (response, trace) = sally.classify_traced(&query);
    let outcome = diane.decrypt_result(&response);

    println!("query: x = {}, y = {}", features[0], features[1]);
    println!("leaf-hit bitvector: {}", outcome.leaf_hits());
    println!(
        "classification: {}",
        outcome.plurality_label().unwrap_or("<none>")
    );
    assert_eq!(
        outcome.leaf_hits().to_bools(),
        forest.classify_leaf_hits(&features),
        "secure result must match plaintext inference"
    );

    // What did that cost?
    let ops = trace.total_ops();
    println!("\nhomomorphic work: {ops}");
    println!(
        "modeled FHE latency at paper parameters: {:.1} ms",
        CostModel::default().modeled_ms(&ops)
    );
    println!(
        "result ciphertext multiplicative depth: {} (budget {})",
        backend.depth(response.ciphertext()),
        backend.config().max_depth
    );
    Ok(())
}
