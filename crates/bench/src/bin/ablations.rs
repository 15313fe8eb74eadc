//! Ablation studies: reshuffle fusion, accumulation strategy, sparse
//! plaintext diagonals.
use copse_bench::{queries_from_args, reports, SUITE_SEED};

fn main() {
    println!("{}", reports::ablations(SUITE_SEED, queries_from_args()));
}
