//! What a run hands back: the metric values, the correctness tally,
//! and the benchmark-side spans of a traced run.

use crate::manifest::{self, Metric};
use crate::stats::{median, percentile, Summary};
use copse::trace::{chrome_trace_json, Phase, Stopwatch, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Every answer the benchmark asked for, and how many came back wrong
/// or not at all (typed error, shed, expiry, admission rejection).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one answer, comparing the decrypted leaf hits with the
    /// plaintext forest walk — never with the pipeline under test.
    /// `None` is an answer that never arrived.
    pub fn check(&mut self, got: Option<&[bool]>, want: &[bool]) -> bool {
        self.attempted += 1;
        let ok = got == Some(want);
        self.failed += u64::from(!ok);
        ok
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Benchmark-side spans: every call into a layer is timed through
/// [`Spans::time`]; a traced run also keeps the intervals in memory
/// and writes them out when the run ends.
pub struct Spans {
    epoch: Stopwatch,
    keep: bool,
    tid: u64,
    events: Vec<TraceEvent>,
    open: Vec<(String, u64, u64)>,
}

/// Trace lane of the main thread; client thread `i` uses
/// `CLIENT_TID + i`, and the stitched client/server lanes of its
/// queries `QUERY_TID + 2 * i` and the one after.
pub const MAIN_TID: u64 = 1;
pub const CLIENT_TID: u64 = 10;
pub const QUERY_TID: u64 = 100;

impl Spans {
    pub fn new(keep: bool) -> Self {
        Self {
            epoch: Stopwatch::start(),
            keep,
            tid: MAIN_TID,
            events: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A collector for another thread, on the same clock.
    pub fn for_thread(&self, tid: u64) -> Self {
        Self {
            epoch: self.epoch,
            keep: self.keep,
            tid,
            events: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the shared epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Runs `f` under a span, returning its value and wall time.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, Duration) {
        let start = self.now();
        let value = f(self);
        let end = self.now();
        if self.keep {
            self.open.push((name.to_string(), start, end));
        }
        (value, Duration::from_nanos(end - start))
    }

    /// Adds one query's stitched client/server trace, shifted from its
    /// own epoch (the `classify` call) onto this clock.
    pub fn stitch(&mut self, started_nanos: u64, lane: u64, events: Vec<TraceEvent>) {
        if self.keep {
            self.events.extend(events.into_iter().map(|mut e| {
                e.ts_nanos += started_nanos;
                e.tid = lane + e.tid.saturating_sub(1);
                e
            }));
        }
    }

    /// Turns the closed intervals into well-nested begin/end events.
    /// Intervals recorded by [`Spans::time`] on one thread are nested
    /// or disjoint by construction.
    fn flush(&mut self) {
        let mut spans = std::mem::take(&mut self.open);
        spans.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));
        let mut stack: Vec<(String, u64)> = Vec::new();
        let tid = self.tid;
        let mut emit = |name: String, phase, ts_nanos| {
            self.events.push(TraceEvent {
                name: name.into(),
                phase,
                ts_nanos,
                tid,
            });
        };
        for (name, start, end) in spans {
            while stack.last().is_some_and(|(_, open_end)| *open_end <= start) {
                let (name, ts) = stack.pop().expect("checked non-empty");
                emit(name, Phase::End, ts);
            }
            emit(name.clone(), Phase::Begin, start);
            stack.push((name, end));
        }
        while let Some((name, ts)) = stack.pop() {
            emit(name, Phase::End, ts);
        }
    }

    pub fn absorb(&mut self, mut other: Spans) {
        other.flush();
        self.events.append(&mut other.events);
    }

    /// The Chrome trace document, after checking that every lane's
    /// begin/end events balance. That is the structural rule of
    /// `copse_trace::validate_chrome_trace`, applied to the events
    /// themselves: the validator re-parses the rendered JSON in time
    /// quadratic in its size, minutes for the serving workload's
    /// thousands of stitched queries (a unit test runs it on a small
    /// document).
    pub fn chrome_json(mut self) -> Result<String, String> {
        self.flush();
        let mut depth = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            let d: &mut i64 = depth.entry(e.tid).or_default();
            *d += if e.phase == Phase::Begin { 1 } else { -1 };
            if *d < 0 {
                return Err(format!(
                    "event {i}: end with no open span on lane {}",
                    e.tid
                ));
            }
        }
        if let Some((tid, d)) = depth.iter().find(|(_, d)| **d != 0) {
            return Err(format!("lane {tid} ends with {d} unclosed span(s)"));
        }
        Ok(chrome_trace_json(&self.events))
    }
}

/// One workload's result.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, u64)>,
    pub tally: Tally,
    /// Structural checks beyond per-answer equality (packed chunk
    /// shape, analyzer agreement, trace validity); any entry fails
    /// the run.
    pub violations: Vec<String>,
    pub trace_json: Option<String>,
}

impl Report {
    /// Records a metric with the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, (value, samples));
    }

    /// The five end-to-end metrics of an untraced run.
    pub fn set_end_to_end(
        &mut self,
        summary: Summary,
        samples: u64,
        wire_bytes: usize,
        setups: &[f64],
    ) {
        self.set("latency_p50_ms", summary.latency_p50_ms, samples);
        self.set("throughput_qps", summary.throughput_qps, samples);
        self.set("wire_bytes_per_query", wire_bytes as f64, 1);
        self.set("setup_s", median(setups), setups.len() as u64);
        self.set("peak_rss_mib", crate::procfs::peak_rss_mib(), 1);
    }

    /// What a traced run's two halves say about each other: the
    /// untraced p90, and the cost of tracing. Returns the traced p50.
    pub fn set_trace_overhead(&mut self, untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
        let (plain, traced) = (median(untraced_ms), median(traced_ms));
        self.set(
            "latency_p90_ms",
            percentile(untraced_ms, 90.0),
            untraced_ms.len() as u64,
        );
        if plain > 0.0 {
            self.set(
                "trace.overhead_pct",
                (traced - plain) / plain * 100.0,
                traced_ms.len() as u64,
            );
        }
        traced
    }

    /// The four stage medians (pipeline order) and their share of the
    /// traced latency.
    pub fn set_stages(&mut self, stage_ms: [f64; 4], latency_p50_ms: f64, samples: u64) {
        const STAGES: [&str; 4] = [
            "core.runtime.comparison_ms",
            "core.runtime.reshuffle_ms",
            "core.runtime.levels_ms",
            "core.runtime.accumulate_ms",
        ];
        for (name, ms) in STAGES.into_iter().zip(stage_ms) {
            self.set(name, ms, samples);
        }
        if latency_p50_ms > 0.0 {
            let share = stage_ms.iter().sum::<f64>() / latency_p50_ms;
            self.set("core.runtime.stage_sum_share", share, samples);
        }
    }

    /// Closes a traced run: the failed share, and the trace document.
    pub fn finish_traced(&mut self, spans: Spans) {
        self.set(
            "failed_share",
            self.tally.failed_share(),
            self.tally.attempted,
        );
        match spans.chrome_json() {
            Ok(json) => self.trace_json = Some(json),
            Err(e) => self
                .violations
                .push(format!("trace does not validate: {e}")),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0 && self.violations.is_empty()
    }

    /// The value printed for `metric`: what was measured, or 0 for a
    /// per-layer metric this workload has no such layer for.
    fn value_of(&self, metric: &Metric) -> (f64, u64) {
        self.values.get(metric.name).copied().unwrap_or((0.0, 0))
    }

    /// End-to-end metrics must all be measured, finite and non-zero;
    /// a name outside the manifest is a bug in the benchmark.
    pub fn check_against_manifest(&mut self, trace: bool) {
        let listed = manifest::metrics_for(trace);
        let unknown: Vec<_> = self
            .values
            .keys()
            .filter(|name| !listed.iter().any(|m| m.name == **name))
            .copied()
            .collect();
        for name in unknown {
            self.violations
                .push(format!("metric `{name}` is not in the manifest"));
        }
        for m in listed {
            let (value, _) = self.value_of(m);
            if !value.is_finite() || (!trace && value <= 0.0) {
                self.violations
                    .push(format!("metric `{}` reads {value}", m.name));
            }
        }
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn driver_line(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, m) in manifest::metrics_for(trace).iter().enumerate() {
            let (value, _) = self.value_of(m);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The full result document: the envelope every `BENCH_*.json`
    /// writer is meant to share (`commit`, `host_cores`, `params`,
    /// `seed`, `workload`) around per-metric `value`/`unit`/`samples`.
    pub fn envelope(&self, env: &Envelope) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"commit\": \"{}\",", env.commit);
        let _ = writeln!(out, "  \"host_cores\": {},", env.host_cores);
        let _ = writeln!(out, "  \"params\": \"{}\",", env.params);
        let _ = writeln!(out, "  \"seed\": {},", env.seed);
        let _ = writeln!(out, "  \"workload\": \"{}\",", env.workload);
        let _ = writeln!(out, "  \"seconds\": {},", env.seconds);
        let _ = writeln!(out, "  \"traced\": {},", env.trace);
        let _ = writeln!(out, "  \"correct\": {},", self.correct());
        let _ = writeln!(out, "  \"attempted\": {},", self.tally.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.tally.failed);
        let _ = writeln!(out, "  \"failed_share\": {},", self.tally.failed_share());
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\"", v.replace(['"', '\\', '\n'], " "));
        }
        out.push_str("],\n  \"metrics\": {\n");
        let listed = manifest::metrics_for(env.trace);
        for (i, m) in listed.iter().enumerate() {
            let (value, samples) = self.value_of(m);
            let comma = if i + 1 == listed.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"value\": {value}, \"unit\": \"{}\", \"samples\": {samples}}}{comma}",
                m.name, m.unit
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Where and how a result was measured.
pub struct Envelope {
    pub commit: String,
    pub host_cores: usize,
    pub params: String,
    pub seed: u64,
    pub workload: String,
    pub seconds: f64,
    pub trace: bool,
}

/// The checked-out commit, read from `.git` in the working directory
/// (no subprocess; a checkout without history reads `unknown`).
pub fn commit_id() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    let hash = read(&format!(".git/{reference}")).or_else(|| {
        read(".git/packed-refs")?
            .lines()
            .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
    });
    hash.map_or("unknown".into(), |h| h.trim().chars().take(12).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_share_counts_a_forged_wrong_answer() {
        let want = [false, true, false];
        let mut tally = Tally::default();
        assert!(tally.check(Some(&[false, true, false]), &want));
        assert!(
            !tally.check(Some(&[true, false, false]), &want),
            "forged answer"
        );
        assert!(!tally.check(None, &want), "answer that never arrived");
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
        assert!((tally.failed_share() - 2.0 / 3.0).abs() < 1e-12);

        let mut report = Report {
            tally,
            ..Report::default()
        };
        assert!(!report.correct());
        report.tally = Tally {
            attempted: 3,
            failed: 0,
        };
        assert!(report.correct());
        report.require(false, || "packed_sizes drifted".into());
        assert!(!report.correct());
    }

    #[test]
    fn driver_line_carries_every_listed_metric_and_nothing_else() {
        let mut report = Report {
            tally: Tally {
                attempted: 4,
                failed: 0,
            },
            ..Report::default()
        };
        for m in manifest::END_TO_END {
            report.set(m.name, 1.5, 4);
        }
        report.check_against_manifest(false);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let line = report.driver_line(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {")
        );
        for m in manifest::END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                m.name, m.unit
            )));
        }
        assert_eq!(
            line.matches("\"value\"").count(),
            manifest::END_TO_END.len()
        );

        report.set("made_up_metric", 1.0, 1);
        report.check_against_manifest(false);
        assert!(!report.correct());
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_fails_the_run() {
        let mut report = Report {
            tally: Tally {
                attempted: 1,
                failed: 0,
            },
            ..Report::default()
        };
        report.check_against_manifest(false);
        assert_eq!(report.violations.len(), manifest::END_TO_END.len());
    }

    #[test]
    fn spans_nest_and_validate() {
        let mut spans = Spans::new(true);
        let ((), outer) = spans.time("setup", |s| {
            s.time("setup.keygen", |_| ());
            s.time("setup.deploy", |_| ());
        });
        let mut thread = spans.for_thread(CLIENT_TID);
        thread.time("client.classify", |_| ());
        spans.absorb(thread);
        assert!(outer >= Duration::ZERO);
        let json = spans.chrome_json().expect("balanced");
        copse::trace::validate_chrome_trace(&json).expect("validator-clean");
        for name in ["setup", "setup.keygen", "setup.deploy", "client.classify"] {
            assert!(json.contains(&format!("\"{name}\"")), "{name}");
        }
        assert!(Spans::new(false).chrome_json().is_ok());

        let mut unbalanced = Spans::new(true);
        unbalanced.events.push(TraceEvent {
            name: "stray".into(),
            phase: Phase::End,
            ts_nanos: 0,
            tid: QUERY_TID,
        });
        assert!(unbalanced.chrome_json().is_err());
    }
}
