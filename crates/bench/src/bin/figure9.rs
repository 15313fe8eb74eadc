//! Regenerates paper Figure 9: plaintext-model vs encrypted-model inference.
use copse_bench::{reports, SUITE_SEED};

fn main() {
    println!("{}", reports::figure9(SUITE_SEED));
}
