//! Regenerates paper Figure 10: per-stage runtime breakdowns (depth,
//! branching, precision sweeps).
use copse_bench::{queries_from_args, reports, SUITE_SEED};

fn main() {
    println!("{}", reports::figure10(SUITE_SEED, queries_from_args()));
}
