//! Pull-able metrics exposition: every server counter, gauge, and
//! latency histogram rendered as Prometheus-style text.
//!
//! Real deployments are scraped by collectors that speak the
//! Prometheus text exposition format, so that format is the one
//! counter rendering on the wire. A session sends `MetricsRequest` and
//! gets a `MetricsReport` whose body is the text this module renders —
//! one `# HELP`/`# TYPE` header per family, then
//! `name{label="value"} number` samples.
//!
//! ## Grammar (the subset this module emits and parses)
//!
//! ```text
//! exposition  := { family } ;
//! family      := help type { sample } ;
//! help        := "# HELP " name " " text "\n" ;
//! type        := "# TYPE " name " " kind "\n" ;
//! kind        := "counter" | "gauge" | "histogram" | "summary" ;
//! sample      := sample-name [ "{" labels "}" ] " " number "\n" ;
//! sample-name := name [ "_bucket" | "_sum" | "_count" ] ;
//! labels      := label { "," label } ;
//! label       := name "=" '"' escaped-value '"' ;
//! number      := float | integer | "+Inf" ;
//! ```
//!
//! Label values escape `\` as `\\`, `"` as `\"`, and newline as `\n`
//! — model names are operator-controlled strings and must not be able
//! to forge extra samples. Histogram families follow the Prometheus
//! convention: cumulative `_bucket{le="..."}` counts ending in
//! `le="+Inf"`, plus `_sum` and `_count`.
//!
//! [`parse_exposition`] is a self-contained strict parser for exactly
//! this grammar (no dependency on the renderer's internals), so the
//! round-trip test — render, parse, compare every value — catches a
//! malformed exposition before a real scraper would.

use crate::flight::FlightRecorder;
use crate::stats::StatsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Slow-query thresholds (milliseconds) the flight-recorder gauge
/// family reports: how many of the currently-held records took at
/// least this long end to end.
pub const SLOW_QUERY_THRESHOLDS_MS: [u64; 3] = [1, 100, 1000];

/// Escapes a label value per the exposition grammar.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One metric family header + its samples, all appended through this
/// helper so a family can never emit samples without its `# TYPE`.
struct Renderer {
    out: String,
}

impl Renderer {
    fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = write!(self.out, "{name}");
        if !labels.is_empty() {
            let _ = write!(self.out, "{{");
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    let _ = write!(self.out, ",");
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            let _ = write!(self.out, "}}");
        }
        if value == f64::INFINITY {
            let _ = writeln!(self.out, " +Inf");
        } else if value.fract() == 0.0 && value.abs() < 9e15 {
            let _ = writeln!(self.out, " {}", value as i64);
        } else {
            let _ = writeln!(self.out, " {value}");
        }
    }
}

/// Renders the full exposition page: every counter, gauge, and
/// histogram in a [`StatsSnapshot`] (service totals, stage ops,
/// per-model latency, overload counters, live queue gauges, static
/// circuit analysis) plus
/// the flight-recorder gauges (capacity, lifetime records, and the
/// slow-query counts derived from the current ring).
pub fn render_exposition(snapshot: &StatsSnapshot, flight: &FlightRecorder) -> String {
    let mut r = Renderer { out: String::new() };

    r.family(
        "copse_queries_served_total",
        "counter",
        "Inference queries answered.",
    );
    r.sample(
        "copse_queries_served_total",
        &[],
        snapshot.queries_served as f64,
    );
    r.family(
        "copse_batches_total",
        "counter",
        "Evaluation passes run (each serves one batch).",
    );
    r.sample("copse_batches_total", &[], snapshot.batches as f64);
    r.family(
        "copse_queries_shed_total",
        "counter",
        "Queries shed with an overload answer instead of evaluated.",
    );
    r.sample(
        "copse_queries_shed_total",
        &[],
        snapshot.queries_shed as f64,
    );
    r.family(
        "copse_queries_expired_total",
        "counter",
        "Queries whose client deadline expired in the queue.",
    );
    r.sample(
        "copse_queries_expired_total",
        &[],
        snapshot.queries_expired as f64,
    );
    r.family(
        "copse_conn_timeouts_total",
        "counter",
        "Connections closed by the socket read/write timeouts.",
    );
    r.sample(
        "copse_conn_timeouts_total",
        &[],
        snapshot.conn_timeouts as f64,
    );
    r.family(
        "copse_pool_threads",
        "gauge",
        "Parallel degree evaluation passes fork onto (1 = sequential).",
    );
    r.sample("copse_pool_threads", &[], snapshot.pool_threads as f64);
    r.family(
        "copse_max_batch",
        "gauge",
        "Largest batch coalesced so far.",
    );
    r.sample("copse_max_batch", &[], snapshot.max_batch as f64);

    r.family(
        "copse_stage_ops_total",
        "counter",
        "Homomorphic operations per evaluation stage.",
    );
    for (stage, ops) in [
        ("comparison", snapshot.comparison_ops),
        ("reshuffle", snapshot.reshuffle_ops),
        ("levels", snapshot.level_ops),
        ("accumulate", snapshot.accumulate_ops),
    ] {
        r.sample(
            "copse_stage_ops_total",
            &[("stage", stage)],
            ops.total_homomorphic() as f64,
        );
    }

    r.family(
        "copse_queue_wait_nanos_total",
        "counter",
        "Nanoseconds queries spent waiting in batching queues.",
    );
    r.sample(
        "copse_queue_wait_nanos_total",
        &[],
        snapshot.queue_wait_total.as_nanos() as f64,
    );
    r.family(
        "copse_eval_nanos_total",
        "counter",
        "Nanoseconds queries spent inside evaluation passes.",
    );
    r.sample(
        "copse_eval_nanos_total",
        &[],
        snapshot.eval_total.as_nanos() as f64,
    );

    r.family(
        "copse_batches_by_size_total",
        "counter",
        "Evaluation passes by exact batch size.",
    );
    for (&size, &count) in &snapshot.batch_size_counts {
        let size = size.to_string();
        r.sample(
            "copse_batches_by_size_total",
            &[("size", size.as_str())],
            count as f64,
        );
    }

    r.family(
        "copse_packed_queries_total",
        "counter",
        "Queries that shared a packed ciphertext with another query.",
    );
    r.sample(
        "copse_packed_queries_total",
        &[],
        snapshot.packed_queries as f64,
    );
    r.family(
        "copse_max_packed",
        "gauge",
        "Largest lane occupancy any query ran at (1 = never packed).",
    );
    r.sample("copse_max_packed", &[], snapshot.max_packed as f64);
    r.family(
        "copse_queries_by_packed_size_total",
        "counter",
        "Queries by exact lane occupancy of the ciphertext that carried them.",
    );
    for (&size, &count) in &snapshot.packed_size_counts {
        let size = size.to_string();
        r.sample(
            "copse_queries_by_packed_size_total",
            &[("size", size.as_str())],
            count as f64,
        );
    }

    r.family(
        "copse_model_queries_total",
        "counter",
        "Queries answered, per model.",
    );
    for (model, m) in &snapshot.per_model {
        r.sample(
            "copse_model_queries_total",
            &[("model", model)],
            m.queries as f64,
        );
    }
    r.family(
        "copse_model_shed_total",
        "counter",
        "Queries shed from this model's queue.",
    );
    for (model, m) in &snapshot.per_model {
        r.sample("copse_model_shed_total", &[("model", model)], m.shed as f64);
    }
    r.family(
        "copse_model_expired_total",
        "counter",
        "Queries expired in this model's queue.",
    );
    for (model, m) in &snapshot.per_model {
        r.sample(
            "copse_model_expired_total",
            &[("model", model)],
            m.expired as f64,
        );
    }

    r.family(
        "copse_model_latency_nanos",
        "histogram",
        "End-to-end latency (queue wait + evaluation) per query.",
    );
    for (model, m) in &snapshot.per_model {
        let mut cumulative = 0u64;
        for (hi, count) in m.latency.nonzero_buckets() {
            cumulative += count;
            let le = hi.to_string();
            r.sample(
                "copse_model_latency_nanos_bucket",
                &[("model", model), ("le", le.as_str())],
                cumulative as f64,
            );
        }
        r.sample(
            "copse_model_latency_nanos_bucket",
            &[("model", model), ("le", "+Inf")],
            m.latency.count() as f64,
        );
        r.sample(
            "copse_model_latency_nanos_sum",
            &[("model", model)],
            m.latency.sum_nanos() as f64,
        );
        r.sample(
            "copse_model_latency_nanos_count",
            &[("model", model)],
            m.latency.count() as f64,
        );
    }

    r.family(
        "copse_queue_depth",
        "gauge",
        "Live job-queue depth, per model.",
    );
    for q in &snapshot.queue_depths {
        r.sample("copse_queue_depth", &[("model", &q.model)], q.depth as f64);
    }
    r.family(
        "copse_queue_capacity",
        "gauge",
        "Job-queue capacity, per model.",
    );
    for q in &snapshot.queue_depths {
        r.sample(
            "copse_queue_capacity",
            &[("model", &q.model)],
            q.capacity as f64,
        );
    }

    r.family(
        "copse_circuit_depth",
        "gauge",
        "Multiplicative depth of one classification (static analysis).",
    );
    for (model, c) in &snapshot.circuits {
        r.sample("copse_circuit_depth", &[("model", model)], c.depth as f64);
    }
    r.family(
        "copse_circuit_depth_budget",
        "gauge",
        "Depth the backend's parameters support.",
    );
    for (model, c) in &snapshot.circuits {
        r.sample(
            "copse_circuit_depth_budget",
            &[("model", model)],
            c.depth_budget as f64,
        );
    }
    r.family(
        "copse_circuit_ops_per_query",
        "gauge",
        "Homomorphic operations one classification costs.",
    );
    for (model, c) in &snapshot.circuits {
        r.sample(
            "copse_circuit_ops_per_query",
            &[("model", model)],
            c.ops_per_query as f64,
        );
    }
    r.family(
        "copse_circuit_modeled_ms",
        "gauge",
        "Modeled single-thread latency per classification (ms).",
    );
    for (model, c) in &snapshot.circuits {
        r.sample(
            "copse_circuit_modeled_ms",
            &[("model", model)],
            c.modeled_ms,
        );
    }

    r.family(
        "copse_flight_capacity",
        "gauge",
        "Flight-recorder ring capacity (0 = disabled).",
    );
    r.sample("copse_flight_capacity", &[], flight.capacity() as f64);
    r.family(
        "copse_flight_recorded_total",
        "counter",
        "Per-query flight records written over the recorder's lifetime.",
    );
    r.sample("copse_flight_recorded_total", &[], flight.recorded() as f64);
    r.family(
        "copse_flight_slow_queries",
        "gauge",
        "Currently-held flight records at or above the threshold, end to end.",
    );
    for threshold_ms in SLOW_QUERY_THRESHOLDS_MS {
        let label = threshold_ms.to_string();
        r.sample(
            "copse_flight_slow_queries",
            &[("threshold_ms", label.as_str())],
            flight.slow_queries(threshold_ms * 1_000_000) as f64,
        );
    }

    r.out
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Sample name as written (for histograms this includes the
    /// `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label set, unescaped.
    pub labels: BTreeMap<String, String>,
    /// The value; `+Inf` parses to [`f64::INFINITY`].
    pub value: f64,
}

/// One parsed metric family: header plus samples in document order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Family {
    /// `# HELP` text.
    pub help: String,
    /// `# TYPE` kind (`counter`, `gauge`, `histogram`, `summary`).
    pub kind: String,
    /// The family's samples in document order.
    pub samples: Vec<Sample>,
}

/// A parsed exposition document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Exposition {
    /// Families keyed by base metric name, insertion-ordered samples.
    pub families: BTreeMap<String, Family>,
}

impl Exposition {
    /// The value of the sample with exactly this name and label set
    /// (order-insensitive), if present.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let want: BTreeMap<String, String> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        self.families.values().find_map(|family| {
            family
                .samples
                .iter()
                .find(|s| s.name == name && s.labels == want)
                .map(|s| s.value)
        })
    }

    /// Total samples across all families.
    pub fn sample_count(&self) -> usize {
        self.families.values().map(|f| f.samples.len()).sum()
    }
}

/// Base family name of a sample: strips the histogram/summary
/// suffixes.
fn family_of(sample_name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(suffix) {
            return base;
        }
    }
    sample_name
}

/// `true` for a legal metric/label name (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Unescapes a quoted label value; the closing quote must have been
/// consumed by the caller.
fn unescape_label(raw: &str) -> Result<String, String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            other => return Err(format!("bad escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

/// Splits a `name{labels} value` sample line.
fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}: `{line}`");
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or_else(|| err("unclosed label set"))?;
            if close < brace {
                return Err(err("mismatched braces"));
            }
            (
                &line[..brace],
                Some((&line[brace + 1..close], &line[close + 1..])),
            )
        }
        None => {
            let space = line.find(' ').ok_or_else(|| err("no value"))?;
            (&line[..space], None)
        }
    };
    if !valid_name(name_part) {
        return Err(err("bad metric name"));
    }
    let mut labels = BTreeMap::new();
    let value_str = match rest {
        None => line[name_part.len()..].trim(),
        Some((label_str, tail)) => {
            // Split on `","` only outside quotes: label values may
            // contain commas.
            let mut remaining = label_str;
            while !remaining.is_empty() {
                let eq = remaining.find('=').ok_or_else(|| err("label without ="))?;
                let key = &remaining[..eq];
                if !valid_name(key) {
                    return Err(err("bad label name"));
                }
                let after = &remaining[eq + 1..];
                if !after.starts_with('"') {
                    return Err(err("label value not quoted"));
                }
                // Find the closing quote, skipping escapes.
                let bytes = after.as_bytes();
                let mut i = 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(err("unterminated label value")),
                        Some(b'\\') => i += 2,
                        Some(b'"') => break,
                        Some(_) => i += 1,
                    }
                }
                let raw = &after[1..i];
                if labels
                    .insert(key.to_string(), unescape_label(raw).map_err(|e| err(&e))?)
                    .is_some()
                {
                    return Err(err("duplicate label"));
                }
                remaining = after[i + 1..].strip_prefix(',').unwrap_or(&after[i + 1..]);
            }
            tail.trim()
        }
    };
    let value = if value_str == "+Inf" {
        f64::INFINITY
    } else {
        value_str
            .parse::<f64>()
            .map_err(|_| err("bad sample value"))?
    };
    Ok(Sample {
        name: name_part.to_string(),
        labels,
        value,
    })
}

/// Parses an exposition document, strictly: every sample must belong
/// to a family whose `# HELP` and `# TYPE` headers came first, and
/// histogram families must have monotone cumulative buckets ending in
/// `le="+Inf"` that agrees with `_count`.
///
/// # Errors
///
/// A human-readable description of the first violation, with its line
/// number.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exposition = Exposition::default();
    let mut pending_help: Option<(String, String)> = None;
    for (ix, line) in text.lines().enumerate() {
        let lineno = ix + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: HELP without text"))?;
            if !valid_name(name) {
                return Err(format!("line {lineno}: bad family name `{name}`"));
            }
            pending_help = Some((name.to_string(), help.to_string()));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: TYPE without kind"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary") {
                return Err(format!("line {lineno}: unknown family kind `{kind}`"));
            }
            let Some((help_name, help)) = pending_help.take() else {
                return Err(format!("line {lineno}: TYPE for `{name}` without HELP"));
            };
            if help_name != name {
                return Err(format!(
                    "line {lineno}: TYPE `{name}` does not match HELP `{help_name}`"
                ));
            }
            if exposition.families.contains_key(name) {
                return Err(format!("line {lineno}: family `{name}` declared twice"));
            }
            exposition.families.insert(
                name.to_string(),
                Family {
                    help,
                    kind: kind.to_string(),
                    samples: Vec::new(),
                },
            );
            continue;
        }
        if line.starts_with('#') {
            // Other comments are legal and ignored.
            continue;
        }
        let sample = parse_sample(line, lineno)?;
        let family_name = family_of(&sample.name);
        let Some(family) = exposition.families.get_mut(family_name) else {
            return Err(format!(
                "line {lineno}: sample `{}` before its family declaration",
                sample.name
            ));
        };
        if family.kind != "histogram" && sample.name != family_name {
            return Err(format!(
                "line {lineno}: suffix sample `{}` in non-histogram family",
                sample.name
            ));
        }
        family.samples.push(sample);
    }
    if let Some((name, _)) = pending_help {
        return Err(format!("dangling HELP for `{name}` without TYPE"));
    }
    validate_histograms(&exposition)?;
    Ok(exposition)
}

/// Checks every histogram family's bucket discipline: per label set
/// (minus `le`), cumulative counts must be monotone, end in
/// `le="+Inf"`, and agree with the `_count` sample.
fn validate_histograms(exposition: &Exposition) -> Result<(), String> {
    for (name, family) in &exposition.families {
        if family.kind != "histogram" {
            continue;
        }
        // Group buckets by their non-`le` label sets.
        let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        for sample in &family.samples {
            let mut key_labels = sample.labels.clone();
            let le = key_labels.remove("le");
            let key = format!("{key_labels:?}");
            if sample.name == format!("{name}_bucket") {
                let le = le.ok_or_else(|| format!("`{name}` bucket without le"))?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("`{name}` bad le `{le}`"))?
                };
                series.entry(key).or_default().push((bound, sample.value));
            } else if sample.name == format!("{name}_count") {
                counts.insert(key, sample.value);
            }
        }
        for (key, buckets) in &series {
            let monotone = buckets
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1);
            if !monotone {
                return Err(format!("`{name}` buckets not cumulative for {key}"));
            }
            let Some(&(last_bound, last_count)) = buckets.last() else {
                continue;
            };
            if last_bound != f64::INFINITY {
                return Err(format!("`{name}` missing le=\"+Inf\" for {key}"));
            }
            if counts.get(key) != Some(&last_count) {
                return Err(format!(
                    "`{name}` +Inf bucket disagrees with _count for {key}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ModelQueueDepth, ServerStats};
    use copse_core::runtime::EvalTrace;
    use std::time::Duration;

    fn populated_snapshot() -> StatsSnapshot {
        let stats = ServerStats::with_threads(2);
        let trace = EvalTrace::default();
        stats.record_batch(
            "income5",
            &trace,
            &[Duration::from_millis(2), Duration::from_millis(3)],
            Duration::from_millis(10),
        );
        stats.record_batch(
            "with \"quotes\" and \\slashes\\",
            &trace,
            &[Duration::from_millis(1)],
            Duration::from_millis(4),
        );
        stats.record_shed("income5");
        stats.record_expired("income5");
        stats.record_conn_timeout();
        stats.set_circuit(
            "income5",
            crate::stats::CircuitSummary {
                depth: 9,
                depth_budget: 14,
                ops_per_query: 1234,
                modeled_ms: 87.5,
            },
        );
        let mut snap = stats.snapshot();
        snap.queue_depths = vec![ModelQueueDepth {
            model: "income5".into(),
            depth: 3,
            capacity: 64,
            shed: 1,
        }];
        snap
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let snap = populated_snapshot();
        let flight = FlightRecorder::new(8);
        flight.record(crate::flight::FlightRecord {
            seq: 0,
            trace_id: Some(7),
            query_id: 1,
            model: "income5".into(),
            cause: copse_core::wire::TimingCause::Served,
            queue_nanos: 1_000,
            eval_nanos: 2_000,
            total_nanos: 150_000_000,
            batch_size: 2,
            packed_size: 2,
            worker: 0,
            faults_seen: 0,
        });
        let text = render_exposition(&snap, &flight);
        let parsed = parse_exposition(&text).expect("renderer emits the grammar it documents");

        // Every snapshot counter/gauge is present with its value.
        assert_eq!(parsed.value("copse_queries_served_total", &[]), Some(3.0));
        assert_eq!(parsed.value("copse_batches_total", &[]), Some(2.0));
        assert_eq!(parsed.value("copse_queries_shed_total", &[]), Some(1.0));
        assert_eq!(parsed.value("copse_queries_expired_total", &[]), Some(1.0));
        assert_eq!(parsed.value("copse_conn_timeouts_total", &[]), Some(1.0));
        assert_eq!(parsed.value("copse_pool_threads", &[]), Some(2.0));
        assert_eq!(parsed.value("copse_max_batch", &[]), Some(2.0));
        // The populated snapshot's traces carry no lane occupancies,
        // so all 3 queries ran at occupancy 1 and none packed.
        assert_eq!(parsed.value("copse_packed_queries_total", &[]), Some(0.0));
        assert_eq!(parsed.value("copse_max_packed", &[]), Some(1.0));
        assert_eq!(
            parsed.value("copse_queries_by_packed_size_total", &[("size", "1")]),
            Some(3.0)
        );
        for stage in ["comparison", "reshuffle", "levels", "accumulate"] {
            assert_eq!(
                parsed.value("copse_stage_ops_total", &[("stage", stage)]),
                Some(0.0),
                "{stage}"
            );
        }
        assert_eq!(
            parsed.value("copse_queue_wait_nanos_total", &[]),
            Some(6_000_000.0)
        );
        assert_eq!(
            parsed.value("copse_eval_nanos_total", &[]),
            Some(24_000_000.0)
        );
        assert_eq!(
            parsed.value("copse_model_queries_total", &[("model", "income5")]),
            Some(2.0)
        );
        assert_eq!(
            parsed.value("copse_model_shed_total", &[("model", "income5")]),
            Some(1.0)
        );
        assert_eq!(
            parsed.value("copse_model_expired_total", &[("model", "income5")]),
            Some(1.0)
        );
        assert_eq!(
            parsed.value("copse_queue_depth", &[("model", "income5")]),
            Some(3.0)
        );
        assert_eq!(
            parsed.value("copse_queue_capacity", &[("model", "income5")]),
            Some(64.0)
        );
        assert_eq!(
            parsed.value("copse_circuit_depth", &[("model", "income5")]),
            Some(9.0)
        );
        assert_eq!(
            parsed.value("copse_circuit_modeled_ms", &[("model", "income5")]),
            Some(87.5)
        );

        // The histogram obeys bucket discipline (validate_histograms
        // ran inside parse) and its count matches the query count.
        assert_eq!(
            parsed.value("copse_model_latency_nanos_count", &[("model", "income5")]),
            Some(2.0)
        );
        assert_eq!(
            parsed.value(
                "copse_model_latency_nanos_bucket",
                &[("model", "income5"), ("le", "+Inf")]
            ),
            Some(2.0)
        );

        // Flight-recorder gauges, including the slow-query derivation.
        assert_eq!(parsed.value("copse_flight_capacity", &[]), Some(8.0));
        assert_eq!(parsed.value("copse_flight_recorded_total", &[]), Some(1.0));
        assert_eq!(
            parsed.value("copse_flight_slow_queries", &[("threshold_ms", "100")]),
            Some(1.0)
        );
        assert_eq!(
            parsed.value("copse_flight_slow_queries", &[("threshold_ms", "1000")]),
            Some(0.0)
        );
    }

    #[test]
    fn hostile_model_names_cannot_forge_samples() {
        let snap = populated_snapshot();
        let flight = FlightRecorder::new(0);
        let text = render_exposition(&snap, &flight);
        let parsed = parse_exposition(&text).expect("escaping keeps the grammar intact");
        // The hostile name round-trips as data, not as structure.
        assert_eq!(
            parsed.value(
                "copse_model_queries_total",
                &[("model", "with \"quotes\" and \\slashes\\")]
            ),
            Some(1.0)
        );
    }

    #[test]
    fn parser_rejects_samples_before_their_family() {
        let err = parse_exposition("copse_orphan_total 3\n").unwrap_err();
        assert!(err.contains("before its family"), "{err}");
    }

    #[test]
    fn parser_rejects_type_without_help() {
        let err = parse_exposition("# TYPE copse_x counter\ncopse_x 1\n").unwrap_err();
        assert!(err.contains("without HELP"), "{err}");
    }

    #[test]
    fn parser_rejects_non_cumulative_histograms() {
        let text = "\
# HELP h a histogram
# TYPE h histogram
h_bucket{le=\"10\"} 5
h_bucket{le=\"20\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 40
h_count 5
";
        let err = parse_exposition(text).unwrap_err();
        assert!(err.contains("not cumulative"), "{err}");
    }

    #[test]
    fn parser_rejects_histogram_without_inf_bucket() {
        let text = "\
# HELP h a histogram
# TYPE h histogram
h_bucket{le=\"10\"} 5
h_sum 40
h_count 5
";
        let err = parse_exposition(text).unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
    }

    #[test]
    fn parser_rejects_bad_values_and_labels() {
        let head = "# HELP m x\n# TYPE m gauge\n";
        assert!(parse_exposition(&format!("{head}m notanumber\n")).is_err());
        assert!(parse_exposition(&format!("{head}m{{bad-name=\"x\"}} 1\n")).is_err());
        assert!(parse_exposition(&format!("{head}m{{l=\"unterminated}} 1\n")).is_err());
        assert!(parse_exposition(&format!("{head}m{{l=unquoted}} 1\n")).is_err());
    }

    #[test]
    fn empty_server_still_renders_every_scalar_family() {
        // Dashboards must never see fields appear and disappear: a
        // freshly started server's exposition already carries every
        // scalar family (per-model families are empty until a model
        // serves, but the families are declared).
        let snap = ServerStats::new().snapshot();
        let flight = FlightRecorder::new(16);
        let parsed = parse_exposition(&render_exposition(&snap, &flight)).expect("parses");
        for family in [
            "copse_queries_served_total",
            "copse_batches_total",
            "copse_queries_shed_total",
            "copse_queries_expired_total",
            "copse_conn_timeouts_total",
            "copse_pool_threads",
            "copse_max_batch",
            "copse_stage_ops_total",
            "copse_queue_wait_nanos_total",
            "copse_eval_nanos_total",
            "copse_batches_by_size_total",
            "copse_packed_queries_total",
            "copse_max_packed",
            "copse_queries_by_packed_size_total",
            "copse_model_queries_total",
            "copse_model_latency_nanos",
            "copse_queue_depth",
            "copse_flight_capacity",
            "copse_flight_recorded_total",
            "copse_flight_slow_queries",
        ] {
            assert!(
                parsed.families.contains_key(family),
                "family `{family}` missing from an empty server's exposition"
            );
        }
    }
}
