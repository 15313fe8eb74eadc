//! The static-analysis artifact: runs `copse_core::analyze` over every zoo
//! model in both forms, cross-checks each prediction op-for-op against
//! one metered evaluation, and writes `BENCH_analysis.json` with the
//! per-circuit depth profile, exact operation counts, minimum slot
//! capacity, modeled HElib cost, and the admission verdict against
//! the default clear profile. Exits nonzero (panics) if any static
//! prediction disagrees with the meter — CI uses this as the
//! analyzer's smoke test.
//!
//! Flags: `--seed N` zoo seed (default 2021); `--out PATH` output
//! path (default `BENCH_analysis.json`).
use copse_bench::{arg_value, reports};

fn main() {
    let seed = arg_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2021);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_analysis.json".into());

    let json = reports::analysis_json(seed);
    std::fs::write(&out, &json).expect("write analysis JSON");
    print!("{json}");
    println!("wrote {out} (seed {seed})");
}
