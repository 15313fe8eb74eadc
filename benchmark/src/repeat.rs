//! `--repeat N`: the steadiness check. Runs a workload N times, each
//! in a fresh process with its own seed, and prints for every
//! end-to-end metric the minimum, median, maximum and the quartile
//! spread next to the metric's bound — the same arithmetic the driver
//! accepts or rejects the benchmark on. A metric that does not repeat
//! within its bound needs a longer run or a place among the per-layer
//! metrics, not a wider bound.

use crate::manifest::END_TO_END;
use crate::stats::{median, quartile_spread};
use crate::RunCfg;
use std::process::{Command, ExitCode};

/// Reads `"name": {"value": <number>` out of a driver line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

pub fn run(workload: &str, cfg: &RunCfg, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for i in 0..runs as u64 {
        let seed = cfg.seed.wrapping_add(i);
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload, "--trace", "0"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()]);
        if cfg.smoke {
            child.arg("--smoke");
        }
        // `output` waits for the child, so none outlives this loop.
        let output = match child.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("benchmark: run {i}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        if !output.status.success() || !line.contains("\"correct\": true") {
            eprintln!("benchmark: run {i} (seed {seed}) failed: {line}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            return ExitCode::FAILURE;
        }
        for (m, column) in END_TO_END.iter().zip(&mut values) {
            match metric_value(line, m.name) {
                Some(v) => column.push(v),
                None => {
                    eprintln!("benchmark: run {i} printed no `{}`", m.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("run {i} seed {seed}: {line}");
    }

    println!(
        "\n{workload}: {runs} runs x {} s\n{:<22} {:>12} {:>12} {:>12} {:>9} {:>7}  steady",
        cfg.seconds, "metric", "min", "median", "max", "spread", "bound"
    );
    let mut steady = true;
    for (m, column) in END_TO_END.iter().zip(&values) {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        let spread = quartile_spread(column);
        // `setup_s` is held to its bound between medians, not on spread.
        let ok = spread <= bound || m.name == "setup_s";
        steady &= ok;
        println!(
            "{:<22} {:>12.4} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%  {}",
            m.name,
            column.iter().copied().fold(f64::INFINITY, f64::min),
            median(column),
            column.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            spread * 100.0,
            bound * 100.0,
            if spread <= bound / 3.0 {
                "yes (under a third of the bound)"
            } else if ok {
                "inside the bound"
            } else {
                "NO"
            }
        );
    }
    if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_values_back_out_of_a_driver_line() {
        let line = "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
                    \"latency_p50_ms\": {\"value\": 2301.25, \"unit\": \"ms\"}, \
                    \"setup_s\": {\"value\": 4.5e0, \"unit\": \"s\"}}}";
        assert_eq!(metric_value(line, "latency_p50_ms"), Some(2301.25));
        assert_eq!(metric_value(line, "setup_s"), Some(4.5));
        assert_eq!(metric_value(line, "throughput_qps"), None);
    }
}
