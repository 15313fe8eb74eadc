//! The repo's one benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload against the public APIs of the
//! `copse` crates, checks every answer against the plaintext forest
//! walk, prints every metric by name and unit, and ends with the one
//! JSON line the driver reads. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones (and writes the Chrome
//! trace of the run). The exit code is non-zero on any wrong answer.
//!
//! Other modes: `--repeat N` runs the workload N times in fresh
//! processes, one seed each, and prints the spread of every
//! end-to-end metric against its bound; `--manifest` prints
//! `BENCHMARK.json`; `--smoke` swaps every backend for the clear one
//! and shortens everything (what the unit tests run).

mod batch;
mod manifest;
mod probes;
mod procfs;
mod repeat;
mod report;
mod serve;
mod stats;

use copse::core::runtime::ModelForm;
use copse::fhe::{BgvBackend, BgvParams, ClearBackend, ClearConfig, FheBackend};
use report::{Envelope, Report};
use serve::ServeSpec;
use std::path::PathBuf;
use std::process::ExitCode;

/// The one parameter point every real-BGV workload shares: 18 slots,
/// depth budget 9 — the shortest chain that admits `depth4` and also
/// leaves the Fig. 1 tree the one level of headroom packing needs.
const BGV_PARAMS: BgvParams = BgvParams {
    m: 127,
    prime_bits: 25,
    chain_len: 20,
    ks_digit_bits: 7,
    error_eta: 2,
    keygen_seed: 0xC0F5E,
};

/// Seed of the model realisations (the `BENCH_analysis.json` seed).
/// Models are part of the workload's definition; `--seed` draws the
/// queries.
pub const MODEL_SEED: u64 = 2021;

/// How one run is sized.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub host_cores: usize,
}

impl RunCfg {
    /// Set-ups per untraced run.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            2
        } else {
            full
        }
    }

    /// Timings per isolated probe; the median is reported.
    pub fn probe_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one named workload.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Result<Report, String> {
    if cfg.smoke || name == "serve_clear" {
        // The packed workload needs a slot capacity to tile into; the
        // serving workloads use the unbounded default.
        let slot_capacity = (name == "bgv_batch_packed").then_some(probes::PROBE_WIDTH);
        run_on(name, cfg, || {
            ClearBackend::new(ClearConfig {
                slot_capacity,
                ..ClearConfig::default()
            })
        })
    } else {
        run_on(name, cfg, || BgvBackend::new(BGV_PARAMS))
    }
}

fn run_on<B: FheBackend + 'static>(
    name: &str,
    cfg: &RunCfg,
    make: impl Fn() -> B,
) -> Result<Report, String> {
    let bgv_serve = |form| ServeSpec {
        form,
        clients: 1,
        segments: 1,
        zoo: false,
        setup_reps: cfg.setup_reps(3),
    };
    let mut report = match name {
        "bgv_plain" => serve::run(cfg, &bgv_serve(ModelForm::Plain), make),
        "bgv_encrypted" => serve::run(cfg, &bgv_serve(ModelForm::Encrypted), make),
        "bgv_batch_packed" => batch::run(cfg, make),
        "serve_clear" => serve::run(
            cfg,
            &ServeSpec {
                form: ModelForm::Encrypted,
                clients: cfg.host_cores,
                segments: 5,
                zoo: true,
                setup_reps: cfg.setup_reps(5),
            },
            make,
        ),
        other => Err(format!(
            "unknown workload `{other}`; known: {}",
            manifest::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }?;
    report.check_against_manifest(cfg.trace);
    Ok(report)
}

struct Args {
    workload: Option<String>,
    cfg: RunCfg,
    repeat: Option<usize>,
    out: Option<PathBuf>,
    manifest: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        cfg: RunCfg {
            seed: MODEL_SEED,
            seconds: f64::from(manifest::RUN_SECONDS),
            trace: false,
            smoke: false,
            host_cores: host_cores(),
        },
        repeat: None,
        out: None,
        manifest: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a name")?),
            "--seed" => {
                let v = value("a number")?;
                parsed.cfg.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                parsed.cfg.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(parsed.cfg.seconds > 0.0 && parsed.cfg.seconds <= 600.0) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                parsed.cfg.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--repeat" => {
                let v = value("a count")?;
                parsed.repeat = Some(v.parse().ok().filter(|n| *n >= 2).ok_or(bad(&v))?);
            }
            "--out" => parsed.out = Some(value("a path")?.into()),
            "--manifest" => parsed.manifest = true,
            "--smoke" => parsed.cfg.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Where build products go: the driver points `CARGO_TARGET_DIR` into
/// its checkout; otherwise cargo's default, relative to the working
/// directory.
fn artifact_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload else {
        eprintln!("benchmark: --workload <name> is required");
        return ExitCode::from(2);
    };
    if let Some(runs) = args.repeat {
        return repeat::run(&workload, &args.cfg, runs);
    }

    let cfg = args.cfg;
    let mut report = match run_workload(&workload, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(json) = report.trace_json.take() {
        let path = artifact_dir().join(format!("trace_{workload}.json"));
        let written =
            std::fs::create_dir_all(artifact_dir()).and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => report
                .violations
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    let envelope = report.envelope(&Envelope {
        commit: report::commit_id(),
        host_cores: cfg.host_cores,
        params: if cfg.smoke || workload == "serve_clear" {
            "clear".to_string()
        } else {
            format!("{BGV_PARAMS:?}").replace('"', "'")
        },
        seed: cfg.seed,
        workload: workload.clone(),
        seconds: cfg.seconds,
        trace: cfg.trace,
    });
    print!("{envelope}");
    if let Some(path) = args.out {
        if let Err(e) = std::fs::write(&path, &envelope) {
            eprintln!("benchmark: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for violation in &report.violations {
        eprintln!("benchmark: {workload}: {violation}");
    }
    println!("{}", report.driver_line(cfg.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(trace: bool) -> RunCfg {
        RunCfg {
            seed: 7,
            seconds: 0.3,
            trace,
            smoke: true,
            host_cores: 2,
        }
    }

    /// Every clear-backend code path, untraced: each workload is
    /// correct and emits every end-to-end metric, non-zero.
    #[test]
    fn smoke_pass_emits_every_end_to_end_metric() {
        for w in manifest::WORKLOADS {
            let report = run_workload(w.name, &smoke(false)).expect(w.name);
            assert!(report.correct(), "{}: {:?}", w.name, report.violations);
            let line = report.driver_line(false);
            for m in manifest::END_TO_END {
                assert!(
                    report.get(m.name).is_some_and(|v| v > 0.0),
                    "{} {}",
                    w.name,
                    m.name
                );
                assert!(line.contains(&format!("\"{}\": {{\"value\"", m.name)));
            }
        }
    }

    /// The traced pass: every per-layer metric is printed, the ones
    /// each workload exists to expose are really measured, and the
    /// trace document validates.
    #[test]
    fn smoke_pass_emits_every_per_layer_metric() {
        for w in manifest::WORKLOADS {
            let report = run_workload(w.name, &smoke(true)).expect(w.name);
            assert!(report.correct(), "{}: {:?}", w.name, report.violations);
            let line = report.driver_line(true);
            for m in manifest::PER_LAYER {
                assert!(
                    line.contains(&format!("\"{}\": {{\"value\"", m.name)),
                    "{}",
                    m.name
                );
            }
            assert_eq!(report.get("analyze.ops_match"), Some(1.0), "{}", w.name);
            assert_eq!(report.get("failed_share"), Some(0.0), "{}", w.name);
            assert!(
                report.get("fhe.ops.rotate").is_some_and(|v| v > 0.0),
                "{}",
                w.name
            );
            let trace = report
                .trace_json
                .as_deref()
                .expect("traced run keeps its spans");
            assert!(trace.contains("\"setup.keygen\"") && trace.contains("\"probe.kernels\""));
            if w.name == "bgv_batch_packed" {
                assert!(report
                    .get("core.runtime.lane_occupancy")
                    .is_some_and(|v| v > 0.8));
                assert!(trace.contains("\"pass.classify_batch\""));
                assert_eq!(
                    report.get("server.total_ms_p50"),
                    None,
                    "no server in this workload"
                );
            } else {
                assert!(
                    report.get("server.total_ms_p50").is_some_and(|v| v > 0.0),
                    "{}",
                    w.name
                );
                assert!(trace.contains("\"client.classify\"") && trace.contains("server:served"));
            }
        }
    }

    #[test]
    fn unknown_workloads_and_arguments_are_refused() {
        assert!(run_workload("nope", &smoke(false)).is_err());
        let args = |list: &[&str]| parse_args(list.iter().map(|s| s.to_string()));
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        let ok = args(&[
            "--workload",
            "bgv_plain",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("the driver's invocation parses");
        assert_eq!(ok.workload.as_deref(), Some("bgv_plain"));
        assert_eq!((ok.cfg.seed, ok.cfg.seconds, ok.cfg.trace), (9, 3.0, true));
    }
}
