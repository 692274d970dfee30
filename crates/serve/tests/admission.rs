//! Property and stress tests for the bounded admission queue — the
//! component that turns overload into *typed* backpressure.
//!
//! The invariants (stated in the `queue` module docs) are pinned two
//! ways:
//!
//! * a **model-based property test**: random schedules of
//!   submit / pop / cancel / close are replayed against a reference
//!   model (a plain `VecDeque` of ids), asserting FIFO order, the depth
//!   bound at every step, deterministic expiry flagging, and the
//!   exactly-once partition — every admitted entry leaves through `pop`
//!   or `cancel`, never both, never neither;
//! * a **multi-threaded stress test**: racing producers, consumers, and
//!   cancellers, where termination itself proves no deadlock and the
//!   collected outcomes re-prove the partition under real interleavings.

use std::collections::{HashSet, VecDeque};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use intext_serve::{AdmissionQueue, SubmitError};
use proptest::prelude::*;

/// SplitMix64, the workspace's standard reproducible stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random single-threaded schedules against a reference model.
    #[test]
    fn random_schedules_match_the_fifo_model(seed in any::<u64>()) {
        let mut state = seed;
        let capacity = 1 + (mix(&mut state) as usize) % 4;
        let queue = AdmissionQueue::new(capacity);
        prop_assert_eq!(queue.capacity(), capacity);

        // The model: admission order of still-queued entries, plus the
        // outcome sets the partition is asserted over.
        let mut model: VecDeque<(u64, bool)> = VecDeque::new(); // (payload, expired)
        let mut ids = Vec::new(); // payload-indexed JobIds
        let mut next_payload = 0u64;
        let mut admitted = HashSet::new();
        let mut popped = HashSet::new();
        let mut cancelled = HashSet::new();
        let mut rejected = 0usize;
        let mut closed = false;

        for _ in 0..40 {
            match mix(&mut state) % 8 {
                // Submit (weighted heaviest so queues actually fill).
                0..=3 => {
                    let payload = next_payload;
                    next_payload += 1;
                    // Deadlines are either absent or already past —
                    // nothing can *become* expired mid-schedule, so the
                    // flag is deterministic.
                    let expired = mix(&mut state).is_multiple_of(4);
                    let deadline =
                        expired.then(|| Instant::now() - Duration::from_millis(1));
                    match queue.submit(payload, deadline) {
                        Ok(id) => {
                            prop_assert!(!closed, "admission after close");
                            prop_assert!(model.len() < capacity, "admission past the bound");
                            model.push_back((payload, expired));
                            ids.push(Some(id));
                            prop_assert!(admitted.insert(payload));
                        }
                        Err(SubmitError::Closed) => {
                            prop_assert!(closed, "spurious Closed");
                            ids.push(None);
                            rejected += 1;
                        }
                        Err(SubmitError::QueueFull { capacity: c }) => {
                            prop_assert_eq!(c, capacity);
                            prop_assert_eq!(model.len(), capacity, "premature QueueFull");
                            ids.push(None);
                            rejected += 1;
                        }
                    }
                }
                // Pop — only when it cannot block (non-empty, or closed).
                4 | 5 => {
                    if !model.is_empty() {
                        let (payload, expired) = model.pop_front().unwrap();
                        let job = queue.pop().expect("model says non-empty");
                        prop_assert_eq!(job.payload, payload, "FIFO order violated");
                        prop_assert_eq!(job.late_by.is_some(), expired, "expiry flag wrong");
                        prop_assert!(popped.insert(payload));
                    } else if closed {
                        prop_assert!(queue.pop().is_none(), "pop after close+drain");
                    }
                }
                // Cancel a random previously-submitted entry (possibly
                // one already popped or cancelled — must be a no-op).
                6 => {
                    if !ids.is_empty() {
                        let i = (mix(&mut state) as usize) % ids.len();
                        if let Some(id) = ids[i] {
                            let payload = i as u64;
                            let took = queue.cancel(id);
                            let in_queue = model.iter().position(|(p, _)| *p == payload);
                            match (took, in_queue) {
                                (Some(p), Some(pos)) => {
                                    prop_assert_eq!(p, payload);
                                    model.remove(pos);
                                    prop_assert!(cancelled.insert(payload));
                                }
                                (None, None) => {} // already popped/cancelled
                                (Some(_), None) => panic!("cancel resurrected an entry"),
                                (None, Some(_)) => panic!("cancel missed a queued entry"),
                            }
                        }
                    }
                }
                // Close (idempotent; backlog must survive).
                _ => {
                    queue.close();
                    closed = true;
                    prop_assert!(queue.is_closed());
                }
            }
            prop_assert_eq!(queue.depth(), model.len());
            prop_assert!(queue.depth() <= capacity, "depth exceeded the bound");
        }

        // Drain: close + pop everything the model still holds.
        queue.close();
        while let Some((payload, expired)) = model.pop_front() {
            let job = queue.pop().expect("backlog must survive close");
            prop_assert_eq!(job.payload, payload);
            prop_assert_eq!(job.late_by.is_some(), expired);
            prop_assert!(popped.insert(payload));
        }
        prop_assert!(queue.pop().is_none(), "drained queue must end");

        // Exactly-once resolution: {popped, cancelled} partition the
        // admitted set, and rejected entries were never admitted.
        prop_assert!(popped.is_disjoint(&cancelled), "an entry resolved twice");
        let resolved: HashSet<u64> = popped.union(&cancelled).copied().collect();
        prop_assert_eq!(&resolved, &admitted, "an admitted entry evaporated");
        prop_assert_eq!(admitted.len() + rejected, next_payload as usize);
        prop_assert!(queue.high_water() <= capacity);
    }
}

/// Racing producers, consumers, and cancellers. Termination proves no
/// deadlock (`pop` wakes on close); the outcome partition proves
/// exactly-once under real interleavings.
#[test]
fn concurrent_producers_and_consumers_never_lose_an_entry() {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 2;
    const PER_PRODUCER: u64 = 300;
    const CAPACITY: usize = 8;

    let queue = AdmissionQueue::new(CAPACITY);
    let popped = Mutex::new(Vec::new());
    let cancelled = Mutex::new(Vec::new());
    let mut admitted_total = 0usize;
    let mut rejected_total = 0usize;

    thread::scope(|scope| {
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let (queue, popped) = (&queue, &popped);
                scope.spawn(move || {
                    // Runs until close + drain: returning at all is the
                    // no-deadlock proof.
                    while let Some(job) = queue.pop() {
                        popped.lock().unwrap().push(job.payload);
                    }
                })
            })
            .collect();

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (queue, cancelled) = (&queue, &cancelled);
                scope.spawn(move || {
                    let mut state = 0xAD0115 ^ (p << 32);
                    let mut last = None;
                    let (mut admitted, mut rejected) = (0usize, 0usize);
                    for i in 0..PER_PRODUCER {
                        let payload = p * PER_PRODUCER + i;
                        match queue.submit(payload, None) {
                            Ok(id) => {
                                admitted += 1;
                                last = Some((id, payload));
                            }
                            Err(SubmitError::QueueFull { capacity }) => {
                                assert_eq!(capacity, CAPACITY);
                                rejected += 1;
                                thread::yield_now();
                            }
                            Err(SubmitError::Closed) => unreachable!("closed while producing"),
                        }
                        // Occasionally race the consumers for our last
                        // admission; whoever wins resolves it alone.
                        if mix(&mut state).is_multiple_of(8) {
                            if let Some((id, payload)) = last.take() {
                                if queue.cancel(id).is_some() {
                                    cancelled.lock().unwrap().push(payload);
                                }
                            }
                        }
                    }
                    (admitted, rejected)
                })
            })
            .collect();

        for producer in producers {
            let (admitted, rejected) = producer.join().unwrap();
            admitted_total += admitted;
            rejected_total += rejected;
        }
        queue.close();
        for consumer in consumers {
            consumer.join().unwrap();
        }
    });

    let popped = popped.into_inner().unwrap();
    let cancelled = cancelled.into_inner().unwrap();
    let popped_set: HashSet<u64> = popped.iter().copied().collect();
    let cancelled_set: HashSet<u64> = cancelled.iter().copied().collect();
    assert_eq!(popped.len(), popped_set.len(), "a payload was popped twice");
    assert_eq!(
        cancelled.len(),
        cancelled_set.len(),
        "a payload was cancelled twice"
    );
    assert!(
        popped_set.is_disjoint(&cancelled_set),
        "an entry was both popped and cancelled"
    );
    assert_eq!(
        popped.len() + cancelled.len(),
        admitted_total,
        "admitted entries must resolve exactly once"
    );
    assert_eq!(
        admitted_total + rejected_total,
        (PRODUCERS * PER_PRODUCER) as usize
    );
    assert!(
        queue.high_water() <= CAPACITY,
        "the bound leaked under races"
    );
    assert!(queue.pop().is_none(), "closed and drained");
}
