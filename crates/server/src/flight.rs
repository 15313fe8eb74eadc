//! The always-on flight recorder: a fixed-capacity ring buffer of the
//! last N per-query records.
//!
//! Aggregate counters ([`crate::stats`]) answer "how is the service
//! doing"; the flight recorder answers "what happened to the last
//! queries that went through it" — including the ones that were shed,
//! expired, or failed, which is exactly when an operator opens the
//! black box. It is **always on** because incidents are not scheduled:
//! by the time someone enables a debug flag, the interesting queries
//! are gone.
//!
//! ## Cost model
//!
//! Recording a query is one `fetch_add` on the ring cursor plus one
//! store into that slot's own mutex — uncontended unless two queries
//! land on the same slot modulo capacity at the same instant, which at
//! any realistic capacity means the recorder never serialises the
//! serving path. Memory is bounded by construction: `capacity` slots,
//! each holding at most one record, no growth under overload (overload
//! simply laps the ring faster). A server built with capacity 0 keeps
//! no slots and records nothing.
//!
//! ## Draining
//!
//! [`FlightRecorder::dump`] copies the live records out oldest-first
//! without stopping recording — operators pull it on demand, and
//! [`ServerHandle::shutdown`] returns the final dump so the last
//! moments of a service are never lost with it.
//!
//! [`ServerHandle::shutdown`]: crate::ServerHandle::shutdown

use copse_core::wire::TimingCause;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// What the flight recorder remembers about one answered query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Position in the all-time record sequence (0-based). Gaps in a
    /// dump's `seq` values are records that were overwritten by newer
    /// ones — the ring lapped.
    pub seq: u64,
    /// The client-assigned trace id, when the query carried one. A
    /// trace id that appears in several records is a client retry
    /// observed end to end.
    pub trace_id: Option<u64>,
    /// The client's query id (echoed from the `Query` frame).
    pub query_id: u64,
    /// Model the query addressed.
    pub model: String,
    /// How the query ended (served / shed / expired / failed) — the
    /// same taxonomy the wire's `ServerTiming` uses.
    pub cause: TimingCause,
    /// Time from frame receipt to evaluation start (queue wait plus
    /// batch coalescing); 0 for queries that never reached a worker.
    pub queue_nanos: u64,
    /// Time inside the evaluation pass; 0 when never evaluated.
    pub eval_nanos: u64,
    /// Frame receipt to response encode, end to end.
    pub total_nanos: u64,
    /// Queries coalesced into the batch that served this one (0 when
    /// the query never joined a batch).
    pub batch_size: u32,
    /// Lane occupancy of the packed ciphertext that carried this
    /// query through the evaluation pass: how many queries shared its
    /// slots. 1 means the query was evaluated in its own ciphertext
    /// (stage-major batching or a remainder chunk); 0 means it was
    /// never evaluated (shed, expired, failed before the pass).
    pub packed_size: u32,
    /// Worker thread that handled it (`u32::MAX` when none did).
    pub worker: u32,
    /// Cumulative injected-fault count at answer time. Two successive
    /// records disagreeing on this number bracket a fault firing —
    /// chaos-test forensics without a log line.
    pub faults_seen: u64,
}

/// A fixed-capacity, lock-light ring buffer of [`FlightRecord`]s.
///
/// Capacity 0 disables recording entirely (every call is a no-op);
/// the serving bench uses that to measure the recorder's cost.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightRecord>>>,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A recorder remembering the last `capacity` queries.
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity (0 = recording disabled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total queries recorded over the recorder's lifetime (not capped
    /// by capacity; `recorded() - capacity()` records have been lapped
    /// when positive).
    pub fn recorded(&self) -> u64 {
        if self.slots.is_empty() {
            0
        } else {
            self.cursor.load(Ordering::Relaxed)
        }
    }

    /// Records one query, overwriting the oldest record once the ring
    /// is full. `record.seq` is assigned here.
    pub fn record(&self, mut record: FlightRecord) {
        if self.slots.is_empty() {
            return;
        }
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        // Two queries racing on the same slot happens only when the
        // ring laps mid-record; keep whichever is newer.
        if slot.as_ref().is_none_or(|old| old.seq < seq) {
            *slot = Some(record);
        }
    }

    /// Copies the live records out, oldest first, without pausing
    /// recording. Records written while the dump walks the ring may or
    /// may not be included — a dump is a snapshot of a moving window,
    /// not a barrier.
    pub fn dump(&self) -> Vec<FlightRecord> {
        let mut records: Vec<FlightRecord> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        records.sort_by_key(|r| r.seq);
        records
    }

    /// How many currently-held records took at least `threshold_nanos`
    /// end to end — the flight-recorder-derived slow-query gauge the
    /// metrics exposition reports.
    pub fn slow_queries(&self, threshold_nanos: u64) -> u64 {
        self.slots
            .iter()
            .filter(|slot| {
                slot.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .as_ref()
                    .is_some_and(|r| r.total_nanos >= threshold_nanos)
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(query_id: u64, total_nanos: u64) -> FlightRecord {
        FlightRecord {
            seq: 0,
            trace_id: None,
            query_id,
            model: "m".into(),
            cause: TimingCause::Served,
            queue_nanos: 10,
            eval_nanos: 20,
            total_nanos,
            batch_size: 1,
            packed_size: 1,
            worker: 0,
            faults_seen: 0,
        }
    }

    #[test]
    fn ring_keeps_only_the_newest_capacity_records() {
        let recorder = FlightRecorder::new(4);
        for i in 0..10 {
            recorder.record(record(i, 100));
        }
        assert_eq!(recorder.recorded(), 10);
        let dump = recorder.dump();
        assert_eq!(dump.len(), 4);
        let ids: Vec<u64> = dump.iter().map(|r| r.query_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest first, newest kept");
        // Seq numbers are the all-time positions, not slot indices.
        assert_eq!(dump[0].seq, 6);
        assert_eq!(dump[3].seq, 9);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let recorder = FlightRecorder::new(0);
        recorder.record(record(1, 100));
        assert_eq!(recorder.capacity(), 0);
        assert_eq!(recorder.recorded(), 0);
        assert!(recorder.dump().is_empty());
        assert_eq!(recorder.slow_queries(0), 0);
    }

    #[test]
    fn slow_query_gauge_counts_the_current_window_only() {
        let recorder = FlightRecorder::new(3);
        recorder.record(record(1, 5_000_000));
        recorder.record(record(2, 50));
        recorder.record(record(3, 7_000_000));
        assert_eq!(recorder.slow_queries(1_000_000), 2);
        // Lapping pushes the old slow records out of the window.
        recorder.record(record(4, 10));
        recorder.record(record(5, 10));
        recorder.record(record(6, 10));
        assert_eq!(recorder.slow_queries(1_000_000), 0);
    }

    #[test]
    fn concurrent_recording_loses_no_sequence_numbers() {
        let recorder = std::sync::Arc::new(FlightRecorder::new(64));
        std::thread::scope(|s| {
            for t in 0..8 {
                let recorder = std::sync::Arc::clone(&recorder);
                s.spawn(move || {
                    for i in 0..100 {
                        recorder.record(record(t * 1000 + i, 42));
                    }
                });
            }
        });
        assert_eq!(recorder.recorded(), 800);
        let dump = recorder.dump();
        assert_eq!(dump.len(), 64, "a full ring holds exactly capacity");
        // Every surviving record is from the newest 64 + racing window.
        assert!(dump.iter().all(|r| r.seq >= 800 - 64 - 8));
        // Dump order is strictly increasing in seq.
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
