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
use crate::stats::{CircuitSummary, ModelQueueDepth, ModelStats, StatsSnapshot};
use copse_fhe::OpCounts;
use copse_trace::LatencyHistogram;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

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

/// One sample as a family reads it: the suffix its name takes (`""`
/// outside [`histogram`]), its labels, its value.
type Reading = (&'static str, Vec<(&'static str, String)>, f64);

/// One metric family of the exposition page: the header fields and
/// the function that reads the family's samples, in document order.
struct MetricFamily {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    read: fn(&StatsSnapshot, &FlightRecorder) -> Vec<Reading>,
}

/// The one sample of an unlabelled family.
fn scalar(value: f64) -> Vec<Reading> {
    vec![("", Vec::new(), value)]
}

/// One sample per item, labelled `key="<item's first half>"`.
fn labelled<L: Display>(
    key: &'static str,
    items: impl IntoIterator<Item = (L, f64)>,
) -> Vec<Reading> {
    let reading = |(label, value): (L, f64)| ("", vec![(key, label.to_string())], value);
    items.into_iter().map(reading).collect()
}

/// One sample per entry of a map, labelled `key="<entry's key>"`.
fn per_key<K: Display, T>(
    key: &'static str,
    map: &BTreeMap<K, T>,
    value: fn(&T) -> f64,
) -> Vec<Reading> {
    labelled(key, map.iter().map(|(k, entry)| (k, value(entry))))
}

/// One sample per live job queue.
fn per_queue(s: &StatsSnapshot, value: fn(&ModelQueueDepth) -> f64) -> Vec<Reading> {
    labelled("model", s.queue_depths.iter().map(|q| (&q.model, value(q))))
}

/// The samples of one distribution, by the Prometheus histogram
/// convention: cumulative `_bucket{le="..."}` counts ending in
/// `le="+Inf"`, then `_sum` and `_count`.
fn histogram(labels: Vec<(&'static str, String)>, h: &LatencyHistogram) -> Vec<Reading> {
    let with_le = |le: String| [labels.as_slice(), &[("le", le)]].concat();
    let mut readings = Vec::new();
    let mut cumulative = 0u64;
    for (hi, count) in h.nonzero_buckets() {
        cumulative += count;
        readings.push(("_bucket", with_le(hi.to_string()), cumulative as f64));
    }
    let count = h.count() as f64;
    readings.push(("_bucket", with_le("+Inf".into()), count));
    readings.push(("_sum", labels.clone(), h.sum_nanos() as f64));
    readings.push(("_count", labels, count));
    readings
}

/// Every family of the exposition page, in document order. A family
/// is declared on every page, samples or not: dashboards must never
/// see one appear mid-watch.
const FAMILIES: &[MetricFamily] = &[
    MetricFamily {
        name: "copse_queries_served_total",
        kind: "counter",
        help: "Inference queries answered.",
        read: |s, _| scalar(s.queries_served as f64),
    },
    MetricFamily {
        name: "copse_batches_total",
        kind: "counter",
        help: "Evaluation passes run (each serves one batch).",
        read: |s, _| scalar(s.batches as f64),
    },
    MetricFamily {
        name: "copse_queries_shed_total",
        kind: "counter",
        help: "Queries shed with an overload answer instead of evaluated.",
        read: |s, _| scalar(s.queries_shed as f64),
    },
    MetricFamily {
        name: "copse_queries_expired_total",
        kind: "counter",
        help: "Queries whose client deadline expired in the queue.",
        read: |s, _| scalar(s.queries_expired as f64),
    },
    MetricFamily {
        name: "copse_conn_timeouts_total",
        kind: "counter",
        help: "Connections closed by the socket read/write timeouts.",
        read: |s, _| scalar(s.conn_timeouts as f64),
    },
    MetricFamily {
        name: "copse_pool_threads",
        kind: "gauge",
        help: "Parallel degree evaluation passes fork onto (1 = sequential).",
        read: |s, _| scalar(s.pool_threads as f64),
    },
    MetricFamily {
        name: "copse_max_batch",
        kind: "gauge",
        help: "Largest batch coalesced so far.",
        read: |s, _| scalar(s.max_batch as f64),
    },
    MetricFamily {
        name: "copse_stage_ops_total",
        kind: "counter",
        help: "Homomorphic operations per evaluation stage.",
        read: |s, _| {
            let total = |ops: OpCounts| ops.total_homomorphic() as f64;
            let stages = [
                ("comparison", total(s.comparison_ops)),
                ("reshuffle", total(s.reshuffle_ops)),
                ("levels", total(s.level_ops)),
                ("accumulate", total(s.accumulate_ops)),
            ];
            labelled("stage", stages)
        },
    },
    MetricFamily {
        name: "copse_queue_wait_nanos_total",
        kind: "counter",
        help: "Nanoseconds queries spent waiting in batching queues.",
        read: |s, _| scalar(s.queue_wait_total.as_nanos() as f64),
    },
    MetricFamily {
        name: "copse_eval_nanos_total",
        kind: "counter",
        help: "Nanoseconds queries spent inside evaluation passes.",
        read: |s, _| scalar(s.eval_total.as_nanos() as f64),
    },
    MetricFamily {
        name: "copse_batches_by_size_total",
        kind: "counter",
        help: "Evaluation passes by exact batch size.",
        read: |s, _| per_key("size", &s.batch_size_counts, |&count| count as f64),
    },
    MetricFamily {
        name: "copse_packed_queries_total",
        kind: "counter",
        help: "Queries that shared a packed ciphertext with another query.",
        read: |s, _| scalar(s.packed_queries as f64),
    },
    MetricFamily {
        name: "copse_max_packed",
        kind: "gauge",
        help: "Largest lane occupancy any query ran at (1 = never packed).",
        read: |s, _| scalar(f64::from(s.max_packed)),
    },
    MetricFamily {
        name: "copse_queries_by_packed_size_total",
        kind: "counter",
        help: "Queries by exact lane occupancy of the ciphertext that carried them.",
        read: |s, _| per_key("size", &s.packed_size_counts, |&count| count as f64),
    },
    MetricFamily {
        name: "copse_model_queries_total",
        kind: "counter",
        help: "Queries answered, per model.",
        read: |s, _| per_key("model", &s.per_model, |m| m.queries as f64),
    },
    MetricFamily {
        name: "copse_model_shed_total",
        kind: "counter",
        help: "Queries shed from this model's queue.",
        read: |s, _| per_key("model", &s.per_model, |m| m.shed as f64),
    },
    MetricFamily {
        name: "copse_model_expired_total",
        kind: "counter",
        help: "Queries expired in this model's queue.",
        read: |s, _| per_key("model", &s.per_model, |m| m.expired as f64),
    },
    MetricFamily {
        name: "copse_model_latency_nanos",
        kind: "histogram",
        help: "End-to-end latency (queue wait + evaluation) per query.",
        read: |s, _| {
            let per_model = s.per_model.iter();
            let samples = |(model, m): (&String, &ModelStats)| {
                histogram(vec![("model", model.clone())], &m.latency)
            };
            per_model.flat_map(samples).collect()
        },
    },
    MetricFamily {
        name: "copse_queue_depth",
        kind: "gauge",
        help: "Live job-queue depth, per model.",
        read: |s, _| per_queue(s, |q| f64::from(q.depth)),
    },
    MetricFamily {
        name: "copse_queue_capacity",
        kind: "gauge",
        help: "Job-queue capacity, per model.",
        read: |s, _| per_queue(s, |q| f64::from(q.capacity)),
    },
    MetricFamily {
        name: "copse_circuit_depth",
        kind: "gauge",
        help: "Multiplicative depth of one classification (static analysis).",
        read: |s, _| per_key("model", &s.circuits, |c| f64::from(c.depth)),
    },
    MetricFamily {
        name: "copse_circuit_primes",
        kind: "gauge",
        help: "Modulus-chain primes (static analysis): needed by one classification, entered at, in the chain.",
        read: |s, _| {
            let chain = |(model, c): (&String, &CircuitSummary)| {
                let p = c.primes?;
                let kinds = [("needed", p.needed), ("entry", p.entry), ("chain", p.chain)];
                Some(kinds.map(|(kind, primes)| {
                    let labels = vec![("model", model.clone()), ("kind", kind.to_string())];
                    ("", labels, f64::from(primes))
                }))
            };
            s.circuits.iter().filter_map(chain).flatten().collect()
        },
    },
    MetricFamily {
        name: "copse_circuit_ops_per_query",
        kind: "gauge",
        help: "Homomorphic operations one classification costs.",
        read: |s, _| per_key("model", &s.circuits, |c| c.ops_per_query as f64),
    },
    MetricFamily {
        name: "copse_circuit_modeled_ms",
        kind: "gauge",
        help: "Modeled single-thread latency per classification (ms).",
        read: |s, _| per_key("model", &s.circuits, |c| c.modeled_ms),
    },
    MetricFamily {
        name: "copse_flight_capacity",
        kind: "gauge",
        help: "Flight-recorder ring capacity (0 = disabled).",
        read: |_, flight| scalar(flight.capacity() as f64),
    },
    MetricFamily {
        name: "copse_flight_recorded_total",
        kind: "counter",
        help: "Per-query flight records written over the recorder's lifetime.",
        read: |_, flight| scalar(flight.recorded() as f64),
    },
    MetricFamily {
        name: "copse_flight_slow_queries",
        kind: "gauge",
        help: "Currently-held flight records at or above the threshold, end to end.",
        read: |_, flight| {
            let held = |ms: u64| (ms, flight.slow_queries(ms * 1_000_000) as f64);
            labelled("threshold_ms", SLOW_QUERY_THRESHOLDS_MS.map(held))
        },
    },
];

/// Appends one `name{labels} value` line.
fn write_sample(out: &mut String, name: &str, labels: &[(&str, String)], value: f64) {
    let _ = write!(out, "{name}");
    if !labels.is_empty() {
        let _ = write!(out, "{{");
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ",");
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        let _ = write!(out, "}}");
    }
    if value == f64::INFINITY {
        let _ = writeln!(out, " +Inf");
    } else if value.fract() == 0.0 && value.abs() < 9e15 {
        let _ = writeln!(out, " {}", value as i64);
    } else {
        let _ = writeln!(out, " {value}");
    }
}

/// Renders the full exposition page, one `FAMILIES` row at a time:
/// the counters, gauges and histograms of a [`StatsSnapshot`] plus the
/// flight-recorder gauges, each as its `# HELP`/`# TYPE` header and
/// then its samples — a family cannot emit samples without its header.
pub fn render_exposition(snapshot: &StatsSnapshot, flight: &FlightRecorder) -> String {
    let mut out = String::new();
    for family in FAMILIES {
        let name = family.name;
        let _ = writeln!(out, "# HELP {name} {}", family.help);
        let _ = writeln!(out, "# TYPE {name} {}", family.kind);
        for (suffix, labels, value) in (family.read)(snapshot, flight) {
            write_sample(&mut out, &format!("{name}{suffix}"), &labels, value);
        }
    }
    out
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
    use crate::stats::{ChainPrimes, ServerStats};
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
            CircuitSummary {
                depth: 9,
                primes: Some(ChainPrimes {
                    needed: 10,
                    entry: 11,
                    chain: 20,
                }),
                ops_per_query: 1234,
                modeled_ms: 87.5,
            },
        );
        let mut snap = stats.snapshot();
        snap.queue_depths = vec![ModelQueueDepth {
            model: "income5".into(),
            depth: 3,
            capacity: 64,
        }];
        snap
    }

    /// A recorder holding one 150 ms served query.
    fn populated_flight() -> FlightRecorder {
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
        flight
    }

    /// FNV-1a, 64 bit.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn exposition_is_pinned() {
        // Hashes re-pinned when `copse_circuit_primes` (needed / entry
        // / chain) replaced `copse_circuit_depth_budget`; every other
        // family's text is as captured at cdb89e6, the last commit that
        // wrote the page one statement per sample.
        let populated = render_exposition(&populated_snapshot(), &populated_flight());
        let empty = render_exposition(&ServerStats::new().snapshot(), &FlightRecorder::new(16));
        assert_eq!(
            fnv1a(populated.as_bytes()),
            0x8661_F1B9_B639_6377,
            "populated exposition changed:\n{populated}"
        );
        assert_eq!(
            fnv1a(empty.as_bytes()),
            0x8B88_8D2A_3EFC_EEE0,
            "empty-server exposition changed:\n{empty}"
        );
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let snap = populated_snapshot();
        let flight = populated_flight();
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
        // A model that served but never shed or expired still says so:
        // its overload counters read 0 rather than go missing.
        let calm = [("model", "with \"quotes\" and \\slashes\\")];
        assert_eq!(parsed.value("copse_model_shed_total", &calm), Some(0.0));
        assert_eq!(parsed.value("copse_model_expired_total", &calm), Some(0.0));
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
        for (kind, primes) in [("needed", 10.0), ("entry", 11.0), ("chain", 20.0)] {
            assert_eq!(
                parsed.value(
                    "copse_circuit_primes",
                    &[("model", "income5"), ("kind", kind)]
                ),
                Some(primes),
                "{kind}"
            );
        }

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
    fn family_names_are_unique_and_kinds_are_parseable() {
        let mut names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FAMILIES.len(), "a family is defined twice");
        for family in FAMILIES {
            assert!(valid_name(family.name), "{}", family.name);
            // `summary` parses too, but no row's reader produces one.
            assert!(
                matches!(family.kind, "counter" | "gauge" | "histogram"),
                "`{}` has kind `{}`",
                family.name,
                family.kind
            );
        }
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
        for MetricFamily { name, .. } in FAMILIES {
            assert!(
                parsed.families.contains_key(*name),
                "family `{name}` missing from an empty server's exposition"
            );
        }
    }
}
