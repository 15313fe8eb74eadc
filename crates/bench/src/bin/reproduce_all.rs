//! Runs every table and figure harness and emits one Markdown report
//! on stdout.
use copse_bench::{queries_from_args, reports, threads_from_args, SUITE_SEED, WORK_PER_OP};

fn main() {
    let n = queries_from_args();
    let threads = threads_from_args();
    println!("# COPSE reproduction report\n");
    println!(
        "suite seed {SUITE_SEED}, {n} queries per model, {threads} threads for parallel runs\n"
    );
    println!("{}", reports::table6(SUITE_SEED));
    println!("{}", reports::table1_2(SUITE_SEED));
    println!("{}", reports::table3_4());
    println!("{}", reports::table5(SUITE_SEED));
    println!("{}", reports::figure6(SUITE_SEED, n, WORK_PER_OP));
    println!("{}", reports::figure7(SUITE_SEED, n, threads, WORK_PER_OP));
    println!("{}", reports::figure8(SUITE_SEED, n, threads, WORK_PER_OP));
    println!("{}", reports::figure9(SUITE_SEED));
    println!("{}", reports::figure10(SUITE_SEED, n));
    println!("{}", reports::ablations(SUITE_SEED));
    println!("{}", reports::ring_mul());
}
