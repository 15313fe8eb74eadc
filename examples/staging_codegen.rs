//! The staging-compiler workflow (paper §5): lower a trained model to
//! its vectorizable artifacts, inspect them, emit a specialised Rust
//! program, and print the model's circuit cost sheet.
//!
//! ```text
//! cargo run --release --example staging_codegen
//! ```
//!
//! The generated program (written to `target/copse_generated_main.rs`)
//! embeds the compiled artifacts as literals and links against the
//! copse-core runtime — the architecture of the paper's C++ code
//! generator, retargeted at Rust.

use copse::analyze::{CircuitReport, EvalShape};
use copse::core::codegen::generate_program;
use copse::core::compiler::CompileOptions;
use copse::core::complexity::paper;
use copse::core::runtime::{Maurice, ModelForm};
use copse::forest::model::Forest;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let forest = Forest::parse(
        "labels deny review approve\n\
         tree (branch 0 90 (branch 1 40 (leaf 0) (leaf 1)) (branch 2 200 (leaf 1) (leaf 2)))\n\
         tree (branch 2 150 (leaf 0) (branch 0 60 (leaf 1) (leaf 2)))\n",
    )?;
    let maurice = Maurice::compile(&forest, CompileOptions::default())?;
    let compiled = maurice.compiled();
    let meta = &compiled.meta;

    println!("== compiled artifacts ==");
    println!(
        "p = {}, b = {}, q = {}, d = {}, K = {}, leaves = {}",
        meta.precision,
        meta.branches,
        meta.quantized,
        meta.max_level,
        meta.max_multiplicity,
        meta.n_leaves
    );
    println!(
        "padded threshold vector: {:?}",
        compiled.thresholds.to_values()
    );
    println!(
        "reshuffle matrix: {}x{} with {} ones ({})",
        compiled.reshuffle.rows(),
        compiled.reshuffle.cols(),
        compiled.reshuffle.count_ones(),
        if compiled.fused {
            "fused into the level matrices: no reshuffle stage"
        } else {
            "evaluated as its own stage"
        }
    );
    for (i, (level, mask)) in compiled.levels.iter().zip(&compiled.masks).enumerate() {
        println!(
            "level {}: matrix {}x{}, mask {}",
            i + 1,
            level.rows(),
            level.cols(),
            mask
        );
    }

    println!("\n== circuit cost sheet (Tables 1-2 for this model) ==");
    for form in [ModelForm::Encrypted, ModelForm::Plain] {
        let report = CircuitReport::analyze(compiled, &EvalShape::plan(&maurice, form));
        println!("{form:?}: {}; depth {}", report.total_ops(), report.depth);
    }
    println!(
        "paper closed-form total (encrypted): {}; depth bound {}",
        paper::total_counts(
            meta.precision,
            meta.quantized,
            meta.branches,
            meta.max_level
        ),
        paper::total_depth(meta.precision, meta.max_level)
    );

    println!("\n== staged program ==");
    let program = generate_program(compiled, maurice.accumulation(), "credit-demo");
    let out_path = std::path::Path::new("target").join("copse_generated_main.rs");
    std::fs::create_dir_all("target")?;
    std::fs::write(&out_path, &program)?;
    println!(
        "wrote {} ({} lines); first lines:\n",
        out_path.display(),
        program.lines().count()
    );
    for line in program.lines().take(12) {
        println!("    {line}");
    }
    Ok(())
}
