//! The benchmark's contract in one place: workload names, metric
//! names, units and regression bounds. `BENCHMARK.json` at the repo
//! root is this table rendered by `--manifest`; a unit test keeps the
//! two byte-identical, so a metric cannot be printed under a name the
//! manifest does not list.

use std::fmt::Write as _;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "bgv_plain",
        why: "one client to copse-server on real BGV, depth4 plain model: time is fhe kernels under the levels stage, the serving tier is idle",
    },
    Workload {
        name: "bgv_encrypted",
        why: "same with an encrypted model: ct-ct multiplies replace plaintext multiplies, so a gain for plain diagonals that costs this path shows",
    },
    Workload {
        name: "bgv_batch_packed",
        why: "in-process Sally::classify_batch of 7 queries on the Fig. 1 tree, real BGV: two packed 3-lane chunks plus the stage-major remainder",
    },
    Workload {
        name: "serve_clear",
        why: "clear backend, 12-model zoo, one client per core: evaluation is microseconds, so batch window, wire and queues decide; fhe changes bypass it",
    },
];

/// One metric: name, unit, which direction is better and, for
/// end-to-end metrics, the share of the parent's median by which it
/// may worsen.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; same definition on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("throughput_qps", "1/s", "higher", 0.25),
    e2e("wire_bytes_per_query", "bytes", "lower", 0.01),
    e2e("peak_rss_mib", "MiB", "lower", 0.1),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single layers, named `<crate>.<module>.<what>`; printed by the
/// traced run. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[Metric] = &[
    // Demoted from end to end: too few samples on the BGV workloads
    // (p90), expected to be exactly 0 (failed share), or drifting with
    // the host's state by more than any bound allows (CPU per query
    // under the low-utilisation serving load; see the README).
    layer("latency_p90_ms", "ms", "lower"),
    layer("failed_share", "share", "lower"),
    layer("cpu_ms_per_query", "ms", "lower"),
    // Set-up, layer by layer.
    layer("forest.build_ms", "ms", "lower"),
    layer("core.compiler.compile_ms", "ms", "lower"),
    layer("analyze.admit_ms", "ms", "lower"),
    layer("core.runtime.deploy_ms", "ms", "lower"),
    layer("fhe.keygen_s", "s", "lower"),
    // The four pipeline stages.
    layer("core.runtime.comparison_ms", "ms", "lower"),
    layer("core.runtime.reshuffle_ms", "ms", "lower"),
    layer("core.runtime.levels_ms", "ms", "lower"),
    layer("core.runtime.accumulate_ms", "ms", "lower"),
    layer("core.runtime.stage_sum_share", "share", "higher"),
    layer("core.runtime.lane_occupancy", "share", "higher"),
    layer("core.runtime.packed_speedup_x", "x", "higher"),
    layer("core.matmul.mat_vec_ms", "ms", "lower"),
    // Fresh-level kernels through `FheBackend`.
    layer("fhe.rotate_ms", "ms", "lower"),
    layer("fhe.multiply_ms", "ms", "lower"),
    layer("fhe.mul_plain_ms", "ms", "lower"),
    layer("fhe.add_us", "us", "lower"),
    layer("fhe.encrypt_ms", "ms", "lower"),
    layer("fhe.decrypt_ms", "ms", "lower"),
    layer("fhe.serialize_us", "us", "lower"),
    layer("fhe.deserialize_us", "us", "lower"),
    layer("fhe.ciphertext_bytes", "bytes", "lower"),
    // Exact work per query.
    layer("fhe.ops.rotate", "count", "lower"),
    layer("fhe.ops.multiply", "count", "lower"),
    layer("fhe.ops.constant_multiply", "count", "lower"),
    layer("fhe.ops.add", "count", "lower"),
    layer("fhe.ops.constant_add", "count", "lower"),
    layer("fhe.ntt_transforms", "count", "lower"),
    layer("fhe.depth_consumed", "count", "lower"),
    layer("fhe.kernel_model_share", "share", "higher"),
    // Predicted against observed.
    layer("analyze.predicted_depth", "count", "lower"),
    layer("analyze.ops_match", "count", "higher"),
    layer("analyze.modeled_ms", "ms", "lower"),
    layer("analyze.model_error_x", "x", "lower"),
    layer("pool.speedup_x", "x", "higher"),
    // Wire format.
    layer("core.wire.query_frame_bytes", "bytes", "lower"),
    layer("core.wire.result_frame_bytes", "bytes", "lower"),
    layer("core.wire.encode_query_us", "us", "lower"),
    layer("core.wire.decode_query_us", "us", "lower"),
    // Serving tier, server side then client side.
    layer("server.enqueue_ms_p50", "ms", "lower"),
    layer("server.queue_wait_ms_p50", "ms", "lower"),
    layer("server.batch_assembly_ms_p50", "ms", "lower"),
    layer("server.eval_ms_p50", "ms", "lower"),
    layer("server.total_ms_p50", "ms", "lower"),
    layer("server.batch_size_mean", "count", "higher"),
    layer("server.latency_p99_ms", "ms", "lower"),
    layer("server.shed", "count", "lower"),
    layer("server.expired", "count", "lower"),
    layer("server.failed", "count", "lower"),
    layer("server.client.encrypt_ms_p50", "ms", "lower"),
    layer("server.client.send_ms_p50", "ms", "lower"),
    layer("server.client.await_ms_p50", "ms", "lower"),
    layer("server.client.overhead_ms_p50", "ms", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// The metrics a run prints: end to end untraced, per layer traced.
pub fn metrics_for(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n");
    for (key, metrics, last) in [
        ("end_to_end", END_TO_END, false),
        ("per_layer", PER_LAYER, true),
    ] {
        let _ = writeln!(out, "  \"{key}\": [");
        for (i, m) in metrics.iter().enumerate() {
            let comma = if i + 1 == metrics.len() { "" } else { "," };
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}{comma}",
                m.name, m.unit, m.better
            );
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-"), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.name, 64, "_.-"), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_on_disk_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark --manifest > BENCHMARK.json`"
        );
    }
}
