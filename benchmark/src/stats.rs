//! Estimators: percentiles, medians over time segments, and the
//! quartile spread the acceptance rule is stated in.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 for
/// an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, averaging the two middle values of an even sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of `u64` nanosecond readings, in milliseconds.
pub fn median_ms(nanos: impl IntoIterator<Item = u64>) -> f64 {
    median(
        &nanos
            .into_iter()
            .map(|n| n as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// One completed query or pass of a closed loop.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion time, seconds since the phase began.
    pub end_s: f64,
    /// Client-observed wall time, milliseconds.
    pub latency_ms: f64,
    /// Correct answers this sample delivered (7 for a packed pass).
    pub answers: u32,
}

/// What one measured phase delivered, as its user and its operator
/// see it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median client-observed wall time per sample.
    pub latency_p50_ms: f64,
    /// Correct answers per second.
    pub throughput_qps: f64,
    /// Process CPU time per correct answer.
    pub cpu_ms_per_query: f64,
}

/// Summarises a phase that issued work for `seconds`, each figure the
/// median over equal time slices. `cpu_marks` holds the process CPU
/// clock read at the start, at every slice boundary and at the end, so
/// its length fixes the slice count; two marks make one slice, the
/// plain whole-phase figures. Cutting a long phase guards the medians
/// against a burst of interference from a neighbouring container, and
/// against the seconds a host needs to settle after the heavy run
/// before this one.
///
/// A slice's rate is its answers over the time from the last
/// completion of the slice before to its own last completion, so no
/// answer and no moment is counted twice or dropped — in particular
/// work finishing after the deadline is divided by the time it really
/// took — and the rate is not quantised by the slice length.
pub fn summarize(samples: &[Sample], seconds: f64, cpu_marks: &[f64]) -> Summary {
    let segments = cpu_marks.len().saturating_sub(1).max(1);
    let slice = seconds / segments as f64;
    let mut latencies = vec![Vec::new(); segments];
    let mut answers = vec![0u64; segments];
    let mut last_end = vec![0.0f64; segments];
    for s in samples {
        let k = ((s.end_s / slice) as usize).min(segments - 1);
        latencies[k].push(s.latency_ms);
        answers[k] += u64::from(s.answers);
        last_end[k] = last_end[k].max(s.end_s);
    }
    let (mut p50s, mut rates, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut from = 0.0;
    for k in 0..segments {
        if latencies[k].is_empty() {
            // Nothing completed for a whole slice: a stall, not a gap
            // in the data.
            rates.push(0.0);
            continue;
        }
        p50s.push(median(&latencies[k]));
        rates.push(answers[k] as f64 / (last_end[k] - from));
        from = last_end[k];
        if let (Some(before), Some(after)) = (cpu_marks.get(k), cpu_marks.get(k + 1)) {
            if answers[k] > 0 {
                cpus.push((after - before) * 1e3 / answers[k] as f64);
            }
        }
    }
    Summary {
        latency_p50_ms: median(&p50s),
        throughput_qps: median(&rates),
        cpu_ms_per_query: median(&cpus),
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) — the
/// figure the driver accepts or rejects the benchmark on.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = x.len() + 1;
        let j = (i * m / 4).clamp(1, x.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    let mid = median(&x);
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_ms([2_000_000, 4_000_000]), 3.0);
    }

    #[test]
    fn slice_medians_ignore_one_disturbed_slice() {
        // Five 1 s slices, 10 answers each at 1 ms and 2 ms of CPU —
        // except slice 2, which a noisy neighbour slowed to 2 answers
        // at 50 ms and 9 ms of CPU each.
        let mut samples = Vec::new();
        let mut cpu_marks = vec![100.0];
        for k in 0..5 {
            let (n, latency, cpu) = if k == 2 {
                (2, 50.0, 0.009)
            } else {
                (10, 1.0, 0.002)
            };
            for i in 0..n {
                samples.push(Sample {
                    end_s: k as f64 + (i as f64 + 0.5) / n as f64,
                    latency_ms: latency,
                    answers: 1,
                });
            }
            cpu_marks.push(cpu_marks[k] + n as f64 * cpu);
        }
        let sliced = summarize(&samples, 5.0, &cpu_marks);
        assert_eq!(sliced.latency_p50_ms, 1.0);
        assert!((sliced.throughput_qps - 10.0).abs() < 1e-9, "{sliced:?}");
        assert!((sliced.cpu_ms_per_query - 2.0).abs() < 1e-9, "{sliced:?}");
        // The whole-phase figures do move.
        let whole = summarize(&samples, 5.0, &[cpu_marks[0], cpu_marks[5]]);
        assert!((whole.throughput_qps - 42.0 / 4.95).abs() < 1e-9);
        assert!((whole.cpu_ms_per_query - 98.0 / 42.0).abs() < 1e-9);
    }

    #[test]
    fn late_completions_stretch_the_last_slice() {
        let samples = [
            Sample {
                end_s: 0.9,
                latency_ms: 900.0,
                answers: 1,
            },
            Sample {
                end_s: 2.5,
                latency_ms: 1600.0,
                answers: 1,
            },
        ];
        let whole = summarize(&samples, 2.0, &[0.0, 4.0]);
        assert_eq!(whole.latency_p50_ms, 1250.0);
        assert!((whole.throughput_qps - 0.8).abs() < 1e-12);
        assert_eq!(whole.cpu_ms_per_query, 2000.0);
    }

    #[test]
    fn a_slice_without_completions_counts_as_a_stall() {
        let samples = [
            Sample {
                end_s: 0.5,
                latency_ms: 1.0,
                answers: 1,
            },
            Sample {
                end_s: 2.5,
                latency_ms: 1.0,
                answers: 1,
            },
        ];
        let sliced = summarize(&samples, 3.0, &[0.0, 0.1, 0.1, 0.2]);
        assert_eq!(sliced.latency_p50_ms, 1.0);
        assert_eq!(sliced.throughput_qps, 0.5, "rates 2/s, 0/s and 0.5/s");
        assert_eq!(sliced.cpu_ms_per_query, 100.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 11, 12, 20], n=4) == [10.25, 11.5, 18.0]
        assert!((quartile_spread(&[20.0, 10.0, 12.0, 11.0]) - 7.75 / 11.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
