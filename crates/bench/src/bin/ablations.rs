//! Ablation studies: reshuffle fusion, accumulation strategy, sparse
//! plaintext diagonals.
use copse_bench::{reports, SUITE_SEED};

fn main() {
    println!("{}", reports::ablations(SUITE_SEED));
}
