//! Secure decision-forest inference over **real lattice ciphertexts**:
//! the paper's Fig. 1 tree evaluated on the from-scratch BGV backend
//! (`m = 127`: 18 SIMD slots of GF(2^7), 16-prime RNS modulus chain,
//! Galois-automorphism rotations).
//!
//! ```text
//! cargo run --release --example bgv_end_to_end
//! ```

use copse::core::compiler::CompileOptions;
use copse::core::runtime::{Diane, Maurice, ModelForm, Sally};
use copse::fhe::{BgvBackend, FheBackend};
use copse::forest::model::Forest;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's running example (Fig. 1), 6-bit thresholds.
    let forest = Forest::parse(
        "precision 6\n\
         labels L0 L1 L2 L3 L4 L5\n\
         tree (branch 1 50 \
                 (branch 0 30 \
                    (branch 1 10 (leaf 0) (leaf 1)) \
                    (branch 0 20 (leaf 2) (leaf 3))) \
                 (branch 1 40 (leaf 4) (leaf 5)))\n",
    )?;

    println!("generating BGV secret and public keys (m = 127, 16-prime chain)...");
    let t = Instant::now();
    let backend = BgvBackend::demo();
    let chain_len = backend.scheme().params().chain_len as u32;
    println!(
        "  done in {:.1}s; {} slots, {chain_len}-prime chain",
        t.elapsed().as_secs_f64(),
        backend.nslots(),
    );

    let maurice = Maurice::compile(&forest, CompileOptions::default())?;
    let meta = &maurice.compiled().meta;
    println!(
        "model: b = {}, q = {}, d = {}, leaves = {} (all within {} slots)",
        meta.branches,
        meta.quantized,
        meta.max_level,
        meta.n_leaves,
        backend.nslots()
    );

    let t = Instant::now();
    let sally = Sally::host(&backend, maurice.deploy(&backend, ModelForm::Encrypted));
    println!(
        "model encrypted and hosted in {:.1}s",
        t.elapsed().as_secs_f64()
    );
    // Sally's reveal carries the chain level her circuit needs: Diane
    // encrypts every plane directly at it with her secret key, and
    // hosting built the switching keys up to that level only.
    let info = sally.client_query_info();
    let entry = info.entry_primes.expect("a BGV chain has an entry level");
    println!(
        "queries enter the chain at {entry} of {chain_len} primes; \
         switching keys built to match: {:.1} MiB",
        backend.scheme().key_bytes() as f64 / (1 << 20) as f64
    );
    let diane = Diane::new(&backend, info);

    for features in [[25u64, 60], [0, 5], [0, 45], [35, 60]] {
        let t = Instant::now();
        let query = diane.encrypt_features(&features)?;
        let result = sally.classify(&query);
        let outcome = diane.decrypt_result(&result);
        let expected = forest.classify_leaf_hits(&features);
        assert_eq!(outcome.leaf_hits().to_bools(), expected);
        println!(
            "(x={:>2}, y={:>2}) -> {}   [{:.1}s on real ciphertexts, {} primes left]",
            features[0],
            features[1],
            outcome.plurality_label().unwrap_or("<none>"),
            t.elapsed().as_secs_f64(),
            chain_len - backend.depth(result.ciphertext()),
        );
    }
    println!("\nevery classification verified against plaintext inference.");
    Ok(())
}
