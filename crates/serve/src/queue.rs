//! The bounded admission queue in front of the worker pool.
//!
//! Invariants (pinned by the proptest in `tests/admission.rs`):
//!
//! * **Bounded**: depth never exceeds the configured capacity —
//!   [`AdmissionQueue::submit`] rejects instead of blocking or growing,
//!   which is what makes overload a *typed* signal rather than latency.
//! * **Exactly-once resolution**: every admitted entry leaves the queue
//!   exactly once, through [`pop`](AdmissionQueue::pop) (a worker takes
//!   it — possibly flagged late) or
//!   [`cancel`](AdmissionQueue::cancel) (the submitter takes it back).
//!   Nothing is ever silently dropped: even after
//!   [`close`](AdmissionQueue::close), `pop` drains what was admitted
//!   before returning `None`.
//! * **No deadlock**: the only blocking operation is `pop` on an empty,
//!   open queue; `submit`, `cancel`, and `close` never wait.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Identifies one admitted request, unique over the queue's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobId(u64);

/// Why [`AdmissionQueue::submit`] refused a payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue already holds `capacity` entries.
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The queue was closed; no further admissions.
    Closed,
}

/// An entry handed to a worker by [`AdmissionQueue::pop`].
#[derive(Debug)]
pub struct Job<T> {
    /// The ticket [`AdmissionQueue::submit`] returned for this entry.
    pub id: JobId,
    /// The submitted payload.
    pub payload: T,
    /// `Some(late_by)` when the entry's deadline passed while it queued
    /// (`late_by > 0`): the worker must resolve it with a deadline
    /// rejection instead of evaluating — returning it (rather than
    /// dropping it inside the queue) is what keeps resolution
    /// exactly-once.
    pub late_by: Option<Duration>,
}

struct Entry<T> {
    id: JobId,
    payload: T,
    deadline: Option<Instant>,
}

struct State<T> {
    queue: VecDeque<Entry<T>>,
    next_id: u64,
    closed: bool,
    /// Largest depth ever observed — the saturation tests assert it
    /// never exceeds the capacity.
    high_water: usize,
}

/// A bounded MPMC queue with non-blocking admission, cancellation, and
/// pop-time deadline flagging. See the module docs for the invariants.
pub struct AdmissionQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    /// Signalled on every admission and on close; `pop` waits on it.
    available: Condvar,
    /// Times a lock or condvar wait recovered from poisoning — silent
    /// before, counted now so the panic-injection tests can assert the
    /// recovery happened.
    poisonings: AtomicU64,
}

impl<T> AdmissionQueue<T> {
    /// An open queue admitting at most `capacity` entries at a time
    /// (`capacity` is clamped to ≥ 1: a zero-capacity queue could admit
    /// nothing and would deadlock every consumer).
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                next_id: 0,
                closed: false,
                high_water: 0,
            }),
            available: Condvar::new(),
            poisonings: AtomicU64::new(0),
        }
    }

    /// How many lock acquisitions (or condvar waits) recovered from
    /// poisoning; `0` unless a payload's drop glue panicked inside the
    /// queue. Folded into the serve layer's
    /// `EngineStats::lock_poisonings_recovered`.
    pub fn lock_poisonings_recovered(&self) -> u64 {
        self.poisonings.load(Ordering::Relaxed)
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently queued (admitted, not yet popped or cancelled).
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// The largest depth ever observed; `high_water() ≤ capacity()`
    /// always.
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// Admits `payload`, or rejects it immediately — never blocks, never
    /// grows past the bound. An entry whose `deadline` passes while it
    /// queues is still popped (flagged by [`Job::late_by`]) so the
    /// worker resolves it; the queue itself drops nothing.
    pub fn submit(&self, payload: T, deadline: Option<Instant>) -> Result<JobId, SubmitError> {
        let mut state = self.lock();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.queue.len() >= self.capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.queue.push_back(Entry {
            id,
            payload,
            deadline,
        });
        state.high_water = state.high_water.max(state.queue.len());
        drop(state);
        self.available.notify_one();
        Ok(id)
    }

    /// Takes a still-queued entry back, returning its payload; `None`
    /// if a worker already popped it (the submitter then awaits the
    /// worker's resolution — the entry is never resolved twice).
    pub fn cancel(&self, id: JobId) -> Option<T> {
        let mut state = self.lock();
        let pos = state.queue.iter().position(|e| e.id == id)?;
        state.queue.remove(pos).map(|e| e.payload)
    }

    /// Blocks until an entry is available and takes the oldest one, or
    /// returns `None` once the queue is closed **and** drained — so
    /// workers process every admitted request before exiting, and
    /// nothing a client is waiting on evaporates at shutdown.
    pub fn pop(&self) -> Option<Job<T>> {
        let mut state = self.lock();
        loop {
            if let Some(entry) = state.queue.pop_front() {
                let late_by = entry.deadline.and_then(|d| {
                    let now = Instant::now();
                    (now > d).then(|| now - d)
                });
                return Some(Job {
                    id: entry.id,
                    payload: entry.payload,
                    late_by,
                });
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap_or_else(|poisoned| {
                self.poisonings.fetch_add(1, Ordering::Relaxed);
                poisoned.into_inner()
            });
        }
    }

    /// Closes the queue: future [`submit`](Self::submit)s fail with
    /// [`SubmitError::Closed`], and every blocked or future
    /// [`pop`](Self::pop) returns `None` once the backlog drains.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        // A panic while holding this mutex can only come from a caller's
        // payload drop glue; the queue's own state is valid between
        // every statement, so recovering the guard is sound.
        self.state.lock().unwrap_or_else(|poisoned| {
            self.poisonings.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_with_rejection() {
        let q = AdmissionQueue::new(2);
        let a = q.submit('a', None).unwrap();
        let b = q.submit('b', None).unwrap();
        assert_ne!(a, b);
        assert_eq!(
            q.submit('c', None),
            Err(SubmitError::QueueFull { capacity: 2 })
        );
        assert_eq!(q.depth(), 2);
        let first = q.pop().unwrap();
        assert_eq!((first.id, first.payload, first.late_by), (a, 'a', None));
        // Rejection freed no slot (the reject never entered), popping did.
        q.submit('d', None).unwrap();
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn cancel_takes_the_entry_back_exactly_once() {
        let q = AdmissionQueue::new(4);
        let id = q.submit(7, None).unwrap();
        assert_eq!(q.cancel(id), Some(7));
        assert_eq!(q.cancel(id), None, "second cancel finds nothing");
        assert_eq!(q.depth(), 0);
        let id2 = q.submit(8, None).unwrap();
        assert_eq!(q.pop().unwrap().payload, 8);
        assert_eq!(q.cancel(id2), None, "popped entries cannot be cancelled");
    }

    #[test]
    fn expired_entries_are_flagged_not_dropped() {
        let q = AdmissionQueue::new(4);
        let past = Instant::now() - Duration::from_millis(1);
        q.submit("late", Some(past)).unwrap();
        q.submit("fresh", Some(Instant::now() + Duration::from_secs(600)))
            .unwrap();
        let first = q.pop().unwrap();
        assert!(first.late_by.is_some_and(|late| late > Duration::ZERO));
        assert_eq!(first.payload, "late");
        let second = q.pop().unwrap();
        assert_eq!(second.late_by, None);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = AdmissionQueue::new(4);
        q.submit(1, None).unwrap();
        q.close();
        assert_eq!(q.submit(2, None), Err(SubmitError::Closed));
        assert_eq!(q.pop().unwrap().payload, 1, "backlog survives close");
        assert!(q.pop().is_none());
        assert!(q.is_closed());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.submit((), None).unwrap();
    }

    #[test]
    fn poisoned_state_recovers_and_is_counted() {
        let q = AdmissionQueue::new(2);
        q.submit('a', None).unwrap();
        assert_eq!(q.lock_poisonings_recovered(), 0);
        // Poison the state mutex the way a panicking payload drop
        // would: panic while holding the guard.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = q.state.lock().unwrap();
            panic!("injected panic under the queue lock");
        }));
        assert!(unwound.is_err());
        // Admission, pop, and close all still work — and the recovery
        // is observable, not silent.
        q.submit('b', None).unwrap();
        assert_eq!(q.pop().unwrap().payload, 'a');
        assert_eq!(q.pop().unwrap().payload, 'b');
        q.close();
        assert!(q.pop().is_none());
        assert!(q.lock_poisonings_recovered() >= 1);
    }
}
