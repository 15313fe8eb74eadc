//! copse-trace — the workspace's timing toolkit.
//!
//! The paper's evaluation stands on two kinds of evidence: per-stage
//! **operation counts** (Tables 1/2, metered by
//! `copse-fhe::OpMeter`) and per-stage **wall-clock breakdowns**
//! (Figure 10). This crate supplies the timing primitives, std-only
//! under the offline shim policy (no `tracing`, no `hdrhistogram`):
//!
//! * [`Stopwatch`] — the workspace's sanctioned elapsed-time reader;
//!   `copse-lint` keeps raw `Instant::now()` confined to this crate,
//!   so stage timers, deadlines, queue waits, and benchmark laps all
//!   time themselves through it.
//! * [`LatencyHistogram`] — a log2-bucketed latency histogram with
//!   `record`/`merge`/`percentile` (p50/p90/p99/max), the same
//!   power-of-two bucket trick `copse-fhe`'s transform-size counters
//!   use.
//! * [`chrome_trace_json`] — renders [`TraceEvent`]s as a Chrome
//!   trace-event JSON document loadable in `chrome://tracing` (or
//!   `ui.perfetto.dev`) for whole-request flame views.
//!
//! The crate keeps no process-wide state. Timings are owned by the
//! scope that measured them — a pass's `EvalTrace`, a served query's
//! `ServerTiming` — so concurrent work cannot pollute them, and a
//! caller that wants a flame view builds its events from those:
//!
//! ```
//! use copse_trace::{chrome_trace_json, validate_chrome_trace, Phase, TraceEvent};
//!
//! let event = |phase, ts_nanos| TraceEvent {
//!     name: "stage:comparison".into(),
//!     phase,
//!     ts_nanos,
//!     tid: 1,
//! };
//! let json = chrome_trace_json(&[event(Phase::Begin, 0), event(Phase::End, 1_500)]);
//! validate_chrome_trace(&json).unwrap();
//! ```

#![warn(missing_docs)]

mod chrome;
mod histogram;

pub use chrome::{chrome_trace_json, validate_chrome_trace};
pub use histogram::LatencyHistogram;

use std::borrow::Cow;
use std::time::{Duration, Instant};

/// A started monotonic timer: the workspace's one sanctioned way to
/// measure elapsed wall-clock outside this crate.
///
/// `copse-lint` enforces that raw `Instant::now()` appears only in
/// `copse-trace`, so every ad-hoc timing site (batch deadlines, queue
/// waits, benchmark laps) goes through this type instead. Keeping the
/// clock reads in one crate means the observability layer can see —
/// and tests can serialize — every place the workspace tells time.
///
/// ```
/// let sw = copse_trace::Stopwatch::start();
/// let lap = sw.elapsed();
/// assert!(sw.elapsed() >= lap);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a timer at the current instant.
    #[must_use]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// How much of a `window` that opened at [`Stopwatch::start`] is
    /// left — [`Duration::ZERO`] once the window has expired. The
    /// deadline idiom without exposing the raw deadline instant.
    #[must_use]
    pub fn remaining(&self, window: Duration) -> Duration {
        window.saturating_sub(self.elapsed())
    }

    /// Time from `earlier`'s start to this stopwatch's start,
    /// saturating at zero if `earlier` actually started later.
    #[must_use]
    pub fn since(&self, earlier: &Stopwatch) -> Duration {
        self.0.saturating_duration_since(earlier.0)
    }
}

/// Whether a span begin (`B`) or end (`E`) is being recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
}

/// One span event of a Chrome trace.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name (static for fixed stages, owned for per-query spans).
    pub name: Cow<'static, str>,
    /// Begin or end.
    pub phase: Phase,
    /// Nanoseconds since the trace's origin.
    pub ts_nanos: u64,
    /// The thread lane the event renders on.
    pub tid: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone_and_window_aware() {
        let sw = Stopwatch::start();
        let first = sw.elapsed();
        let later = Stopwatch::start();
        assert!(sw.elapsed() >= first);
        // `later` started after `sw`: the gap is one-sided.
        assert_eq!(sw.since(&later), Duration::ZERO);
        assert!(later.since(&sw) >= first);
        // A generous window still has time left; an expired one is ZERO.
        assert!(sw.remaining(Duration::from_secs(3600)) > Duration::ZERO);
        assert_eq!(sw.remaining(Duration::ZERO), Duration::ZERO);
    }
}
