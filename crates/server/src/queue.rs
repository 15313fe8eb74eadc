//! The bounded job queue every server-side channel is built from.
//!
//! Unbounded channels are how an overloaded server dies: work keeps
//! queueing, latency grows without bound, and memory follows. This
//! module is the only place in `copse-server` allowed to own a raw
//! `VecDeque` or grow a buffer (a `copse-lint` rule enforces that);
//! everything else — per-model job queues, per-job reply slots —
//! must be a [`bounded`] channel with an explicit capacity, so the
//! enqueue site is forced to handle [`TrySendError::Full`] (that is
//! the load-shed decision point, not an afterthought).
//!
//! The implementation is a `Mutex<VecDeque>` + two `Condvar`s
//! (std-only, like the rest of the workspace). Senders never block:
//! [`BoundedSender::try_send`] either enqueues or reports
//! `Full`/`Closed` immediately, because a connection thread that
//! blocks on a full queue is just a second queue with worse
//! observability. Receivers block ([`BoundedReceiver::recv`] /
//! [`BoundedReceiver::recv_timeout`]) — that is the worker's idle
//! state.
//!
//! [`close`](BoundedSender::close) flips the channel into drain mode:
//! no new sends are accepted, but the receiver still sees everything
//! already queued before `Closed`. That is the primitive both hot
//! undeploy and graceful shutdown are built on — accepted work is
//! never silently dropped; it is either finished or explicitly
//! answered.
//!
//! The channel itself carries no trace metadata: a traced query's id
//! and its enqueue timestamp ride inside the queued job value (see
//! `server::Job`), so the queue stays generic and the wait a query
//! spent here is measured by the worker that dequeues it, not by the
//! queue.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Why a [`BoundedSender::try_send`] did not enqueue. The rejected
/// value rides along so the caller can answer for it (a shed frame, a
/// reply on another channel) instead of dropping it on the floor.
#[derive(Debug)]
pub enum TrySendError<T> {
    /// The queue is at capacity: the overload signal. The caller must
    /// shed (answer `Busy`), not wait.
    Full(T),
    /// The queue was closed (model undeployed or server draining).
    Closed(T),
}

impl<T> TrySendError<T> {
    /// The value the queue refused.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Closed(v) => v,
        }
    }
}

/// Why a blocking receive returned no value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// The queue is closed *and* fully drained. Workers exit here.
    Closed,
    /// `recv_timeout` elapsed with the queue still open but empty.
    Timeout,
}

struct Inner<T> {
    queue: Mutex<State<T>>,
    /// Signalled on enqueue and on close: wakes blocked receivers.
    ready: Condvar,
    capacity: usize,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Producer half of a [`bounded`] channel. Clone freely — one per
/// connection thread.
pub struct BoundedSender<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for BoundedSender<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for BoundedSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedSender")
            .field("capacity", &self.inner.capacity)
            .field("len", &self.len())
            .finish()
    }
}

/// Consumer half of a [`bounded`] channel (one per worker; not
/// cloneable — a model's jobs have exactly one evaluator).
pub struct BoundedReceiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for BoundedReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedReceiver")
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

/// Creates a bounded channel holding at most `capacity` queued items
/// (floored at 1 — a zero-capacity queue could never accept work).
pub fn bounded<T>(capacity: usize) -> (BoundedSender<T>, BoundedReceiver<T>) {
    let inner = Arc::new(Inner {
        queue: Mutex::new(State {
            items: VecDeque::new(),
            closed: false,
        }),
        ready: Condvar::new(),
        capacity: capacity.max(1),
    });
    (
        BoundedSender {
            inner: Arc::clone(&inner),
        },
        BoundedReceiver { inner },
    )
}

impl<T> Inner<T> {
    /// Every lock below survives a poisoned mutex the same way the
    /// stats do: each critical section leaves the state coherent at
    /// every step, so the recovered value is always usable.
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> BoundedSender<T> {
    /// Enqueues without blocking, or reports why it cannot.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] at capacity (the shed decision point),
    /// [`TrySendError::Closed`] after [`BoundedSender::close`].
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut state = self.inner.lock();
        if state.closed {
            return Err(TrySendError::Closed(value));
        }
        if state.items.len() >= self.inner.capacity {
            return Err(TrySendError::Full(value));
        }
        state.items.push_back(value);
        drop(state);
        self.inner.ready.notify_one();
        Ok(())
    }

    /// Closes the channel: subsequent sends fail `Closed`, the
    /// receiver drains what is already queued, then sees
    /// [`RecvError::Closed`]. Idempotent.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.inner.ready.notify_all();
    }

    /// Queued-right-now depth (the `copse_queue_depth` gauge; racy by
    /// nature, exact at the instant of the lock).
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity this channel sheds beyond.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

impl<T> BoundedReceiver<T> {
    /// Blocks until an item arrives or the channel closes empty.
    ///
    /// # Errors
    ///
    /// [`RecvError::Closed`] once the channel is closed *and*
    /// drained — never while accepted work remains queued.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.inner.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Ok(item);
            }
            if state.closed {
                return Err(RecvError::Closed);
            }
            state = self
                .inner
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks up to `timeout` for an item.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when the wait elapses with the channel
    /// open, [`RecvError::Closed`] once closed and drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        let deadline = copse_trace::Stopwatch::start();
        let mut state = self.inner.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Ok(item);
            }
            if state.closed {
                return Err(RecvError::Closed);
            }
            let left = timeout.saturating_sub(deadline.elapsed());
            if left.is_zero() {
                return Err(RecvError::Timeout);
            }
            let (next, _) = self
                .inner
                .ready
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
    }

    /// Drains everything currently queued without blocking (the
    /// shutdown path answers shed for each of these).
    pub fn drain_now(&self) -> Vec<T> {
        self.inner.lock().items.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let (tx, _rx) = bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        match tx.try_send(3) {
            Err(TrySendError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(tx.len(), 2);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn close_drains_before_reporting_closed() {
        let (tx, rx) = bounded::<u32>(4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        tx.close();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Closed(3))));
        // Accepted work survives the close: drain, then Closed.
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError::Closed));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvError::Closed)
        );
    }

    #[test]
    fn recv_timeout_times_out_on_an_open_queue() {
        let (_tx, rx) = bounded::<u32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::Timeout)
        );
    }

    #[test]
    fn recv_blocks_until_a_send_arrives() {
        let (tx, rx) = bounded::<u32>(1);
        let waiter = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(10));
        tx.try_send(7).unwrap();
        assert_eq!(waiter.join().unwrap(), Ok(7));
    }

    #[test]
    fn zero_capacity_floors_to_one() {
        let (tx, rx) = bounded::<u32>(0);
        assert_eq!(tx.capacity(), 1);
        tx.try_send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.recv(), Ok(1));
    }

    #[test]
    fn drain_now_empties_the_queue() {
        let (tx, rx) = bounded::<u32>(8);
        for i in 0..5 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(rx.drain_now(), vec![0, 1, 2, 3, 4]);
        assert!(tx.is_empty());
    }

    #[test]
    fn many_producers_one_consumer_loses_nothing() {
        let (tx, rx) = bounded::<u64>(1024);
        let producers = 8;
        let per = 100;
        std::thread::scope(|s| {
            for t in 0..producers {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..per {
                        // Capacity is ample; Full would be a bug here.
                        tx.try_send(t * per + i).unwrap();
                    }
                });
            }
        });
        tx.close();
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        got.sort_unstable();
        let want: Vec<u64> = (0..producers * per).collect();
        assert_eq!(got, want);
    }
}
