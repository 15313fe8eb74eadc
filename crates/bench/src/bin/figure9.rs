//! Regenerates paper Figure 9: plaintext-model vs encrypted-model inference.
use copse_bench::{queries_from_args, reports, SUITE_SEED};

fn main() {
    println!("{}", reports::figure9(SUITE_SEED, queries_from_args()));
}
