//! Bounded channels and one-shot reply slots for the serving layer.
//!
//! `std::sync::mpsc` is unbounded (its `sync_channel` blocks senders
//! instead of rejecting), and the zero-dependency policy rules out
//! `crossbeam-channel`, so the autotune server's ingress queues live
//! here: a Mutex+Condvar bounded MPSC queue whose *send side never
//! blocks* — a full queue is an immediate, countable rejection, which
//! is the backpressure contract the service exposes as
//! `Rejected::Overloaded` — plus a one-shot reply slot pairing each
//! accepted request with its response.
//!
//! Determinism note: channels order *delivery*, not *answers*.  Every
//! consumer in this workspace computes answers as pure functions of the
//! request, so queue interleaving (which does vary with thread timing)
//! is never observable in the values delivered back.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, shrugging off poisoning (same rationale as
/// `par::lock_unpoisoned`: the guarded updates are single statements, so
/// a panicking holder cannot leave the state mid-update, and honoring
/// the poison flag would wedge every parked consumer).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct ChanState<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    /// High-water mark of the queue depth, for the bounded-depth audit.
    max_depth: usize,
    closed: bool,
}

struct Chan<T> {
    state: Mutex<ChanState<T>>,
    not_empty: Condvar,
}

/// Non-blocking producer half of a bounded queue.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Consumer half of a bounded queue (one per shard worker).
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Why a [`Sender::try_send`] did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity; the item is handed back unconsumed.
    Full(T),
    /// The receiver is gone (shutdown); the item is handed back.
    Closed(T),
}

/// Creates a bounded queue of at most `capacity` items (minimum 1).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState {
            queue: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            senders: 1,
            max_depth: 0,
            closed: false,
        }),
        not_empty: Condvar::new(),
    });
    (Sender { chan: Arc::clone(&chan) }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Enqueues `item` if there is room, returning the queue depth after
    /// the push.  Never blocks: a full queue returns
    /// [`TrySendError::Full`] immediately — that immediacy is the
    /// backpressure contract the overload tests pin down.
    pub fn try_send(&self, item: T) -> Result<usize, TrySendError<T>> {
        let mut st = lock_unpoisoned(&self.chan.state);
        if st.closed {
            return Err(TrySendError::Closed(item));
        }
        if st.queue.len() >= st.capacity {
            return Err(TrySendError::Full(item));
        }
        st.queue.push_back(item);
        let depth = st.queue.len();
        st.max_depth = st.max_depth.max(depth);
        drop(st);
        self.chan.not_empty.notify_one();
        Ok(depth)
    }

    /// Current queue depth (racy by nature; diagnostics only).
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.chan.state).queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock_unpoisoned(&self.chan.state).senders += 1;
        Sender { chan: Arc::clone(&self.chan) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = lock_unpoisoned(&self.chan.state);
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            // Wake the consumer so it can observe the hangup and drain.
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until an item arrives, returning `None` once every sender
    /// is dropped *and* the queue has fully drained — shutdown never
    /// loses accepted items.
    pub fn recv(&self) -> Option<T> {
        let mut st = lock_unpoisoned(&self.chan.state);
        loop {
            if let Some(item) = st.queue.pop_front() {
                return Some(item);
            }
            if st.senders == 0 {
                return None;
            }
            st = self.chan.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks for the first item, then greedily drains up to `max`
    /// items total without further waiting — the batching primitive:
    /// one wakeup amortizes over everything already queued.  Returns an
    /// empty vector only at hangup (all senders dropped, queue empty).
    pub fn recv_batch(&self, max: usize) -> Vec<T> {
        let max = max.max(1);
        let mut st = lock_unpoisoned(&self.chan.state);
        loop {
            if !st.queue.is_empty() {
                let take = max.min(st.queue.len());
                return st.queue.drain(..take).collect();
            }
            if st.senders == 0 {
                return Vec::new();
            }
            st = self.chan.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks for up to `timeout` for an item.  Returns
    /// [`RecvTimeout::Hangup`] once every sender is dropped and the
    /// queue has drained, [`RecvTimeout::TimedOut`] when the deadline
    /// expires first.  The deadline applies to the *wait*, never to an
    /// item already queued — a non-empty queue always yields.
    pub fn recv_timeout(&self, timeout: Duration) -> RecvTimeout<T> {
        let deadline = Instant::now() + timeout;
        let mut st = lock_unpoisoned(&self.chan.state);
        loop {
            if let Some(item) = st.queue.pop_front() {
                return RecvTimeout::Item(item);
            }
            if st.senders == 0 {
                return RecvTimeout::Hangup;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return RecvTimeout::TimedOut;
            };
            let (guard, wait) =
                self.chan.not_empty.wait_timeout(st, left).unwrap_or_else(|e| e.into_inner());
            st = guard;
            if wait.timed_out() && st.queue.is_empty() && st.senders > 0 {
                return RecvTimeout::TimedOut;
            }
        }
    }

    /// Current queue depth (racy by nature; supervision/diagnostics).
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.chan.state).queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the queue depth since creation.
    pub fn max_depth(&self) -> usize {
        lock_unpoisoned(&self.chan.state).max_depth
    }
}

/// Outcome of a [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeout<T> {
    /// An item arrived (or was already queued) before the deadline.
    Item(T),
    /// The deadline expired with the queue empty and senders alive.
    TimedOut,
    /// Every sender is dropped and the queue has fully drained.
    Hangup,
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Future sends fail fast instead of filling a queue nobody reads.
        lock_unpoisoned(&self.chan.state).closed = true;
    }
}

// ---------------------------------------------------------------------
// One-shot reply slots.
// ---------------------------------------------------------------------

struct OnceState<T> {
    value: Option<T>,
    done: bool,
    /// Set when the receiver gave up (dropped or timed out) before the
    /// value arrived: the slot is poisoned and a late `send` reports it.
    abandoned: bool,
}

struct OnceSlot<T> {
    state: Mutex<OnceState<T>>,
    filled: Condvar,
}

/// Producer half of a one-shot slot (held by the shard worker).
pub struct OnceSender<T> {
    slot: Arc<OnceSlot<T>>,
}

/// Consumer half of a one-shot slot (the caller's response ticket).
pub struct OnceReceiver<T> {
    slot: Arc<OnceSlot<T>>,
}

/// Creates a one-shot slot: one value crosses, exactly once.
pub fn oneshot<T>() -> (OnceSender<T>, OnceReceiver<T>) {
    let slot = Arc::new(OnceSlot {
        state: Mutex::new(OnceState { value: None, done: false, abandoned: false }),
        filled: Condvar::new(),
    });
    (OnceSender { slot: Arc::clone(&slot) }, OnceReceiver { slot })
}

impl<T> OnceSender<T> {
    /// Delivers the value and wakes the waiter.  Returns `false` when
    /// the receiver already gave up (dropped its ticket or timed out) —
    /// the value is discarded and the caller can count a late answer.
    pub fn send(self, value: T) -> bool {
        let mut st = lock_unpoisoned(&self.slot.state);
        if st.abandoned {
            st.done = true;
            return false;
        }
        st.value = Some(value);
        st.done = true;
        drop(st);
        self.slot.filled.notify_all();
        true
    }
}

impl<T> Drop for OnceSender<T> {
    fn drop(&mut self) {
        let mut st = lock_unpoisoned(&self.slot.state);
        if !st.done {
            // Dropped without sending: the waiter gets `None` instead of
            // blocking forever (e.g. a worker that errored mid-request).
            st.done = true;
            drop(st);
            self.slot.filled.notify_all();
        }
    }
}

impl<T> OnceReceiver<T> {
    /// Blocks until the value arrives; `None` if the sender was dropped
    /// without sending.
    pub fn recv(self) -> Option<T> {
        let mut st = lock_unpoisoned(&self.slot.state);
        while !st.done {
            st = self.slot.filled.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.value.take()
    }

    /// Blocks for up to `timeout` for the value.  Consuming — a
    /// [`OnceTimeout::TimedOut`] return poisons the slot (the ticket is
    /// dropped), so a worker that answers late sees `send() == false`.
    pub fn recv_timeout(self, timeout: Duration) -> OnceTimeout<T> {
        let deadline = Instant::now() + timeout;
        let mut st = lock_unpoisoned(&self.slot.state);
        loop {
            if st.done {
                return match st.value.take() {
                    Some(v) => OnceTimeout::Value(v),
                    None => OnceTimeout::SenderDropped,
                };
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return OnceTimeout::TimedOut;
            };
            let (guard, wait) =
                self.slot.filled.wait_timeout(st, left).unwrap_or_else(|e| e.into_inner());
            st = guard;
            if wait.timed_out() && !st.done {
                return OnceTimeout::TimedOut;
            }
        }
    }
}

impl<T> Drop for OnceReceiver<T> {
    fn drop(&mut self) {
        // Abandoning an unanswered ticket poisons the slot so a late
        // `send` is reported to the worker instead of silently parked.
        let mut st = lock_unpoisoned(&self.slot.state);
        if !st.done {
            st.abandoned = true;
        }
    }
}

/// Outcome of a [`OnceReceiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum OnceTimeout<T> {
    /// The value arrived before the deadline.
    Value(T),
    /// The sender was dropped without sending.
    SenderDropped,
    /// The deadline expired; the slot is now poisoned.
    TimedOut,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn fifo_order_and_depth_accounting() {
        let (tx, rx) = bounded::<u32>(8);
        for i in 0..5 {
            assert_eq!(tx.try_send(i).expect("room"), (i + 1) as usize);
        }
        for i in 0..5 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(rx.max_depth(), 5);
    }

    #[test]
    fn full_queue_rejects_immediately_without_blocking() {
        let (tx, rx) = bounded::<u32>(2);
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        let start = Instant::now();
        match tx.try_send(3) {
            Err(TrySendError::Full(v)) => assert_eq!(v, 3, "item handed back"),
            other => panic!("expected Full, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_millis(50), "rejection must be immediate");
        // Draining reopens the queue.
        assert_eq!(rx.recv(), Some(1));
        assert!(tx.try_send(3).is_ok());
    }

    #[test]
    fn hangup_drains_then_returns_none() {
        let (tx, rx) = bounded::<u32>(4);
        tx.try_send(7).expect("room");
        tx.try_send(8).expect("room");
        drop(tx);
        assert_eq!(rx.recv(), Some(7), "queued items survive sender drop");
        assert_eq!(rx.recv(), Some(8));
        assert_eq!(rx.recv(), None, "then clean hangup");
    }

    #[test]
    fn dropped_receiver_closes_the_send_side() {
        let (tx, rx) = bounded::<u32>(4);
        drop(rx);
        match tx.try_send(1) {
            Err(TrySendError::Closed(v)) => assert_eq!(v, 1),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn recv_batch_amortizes_one_wakeup() {
        let (tx, rx) = bounded::<u32>(16);
        for i in 0..10 {
            tx.try_send(i).expect("room");
        }
        assert_eq!(rx.recv_batch(4), vec![0, 1, 2, 3]);
        assert_eq!(rx.recv_batch(100), vec![4, 5, 6, 7, 8, 9]);
        drop(tx);
        assert!(rx.recv_batch(4).is_empty(), "hangup yields the empty batch");
    }

    #[test]
    fn cross_thread_producers_lose_nothing() {
        let (tx, rx) = bounded::<u64>(1024);
        let mut sum = 0u64;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..256u64 {
                        // The queue is big enough that Full cannot occur.
                        tx.try_send(t * 1000 + i).expect("capacity sized for the test");
                    }
                });
            }
            drop(tx);
            while let Some(v) = rx.recv() {
                sum += v;
            }
        });
        let expect: u64 = (0..4u64).map(|t| (0..256u64).map(|i| t * 1000 + i).sum::<u64>()).sum();
        assert_eq!(sum, expect);
    }

    #[test]
    fn oneshot_round_trip_and_hangup() {
        let (otx, orx) = oneshot::<&'static str>();
        std::thread::scope(|s| {
            s.spawn(move || otx.send("answer"));
            assert_eq!(orx.recv(), Some("answer"));
        });
        let (otx, orx) = oneshot::<&'static str>();
        drop(otx);
        assert_eq!(orx.recv(), None, "dropped sender never wedges the waiter");
    }

    #[test]
    fn recv_timeout_expires_delivers_and_sees_hangup() {
        // Expiry: empty queue, live sender.
        let (tx, rx) = bounded::<u32>(4);
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), RecvTimeout::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(20));
        // A queued item always wins over the deadline, even a zero one.
        tx.try_send(9).expect("room");
        assert_eq!(rx.recv_timeout(Duration::from_millis(0)), RecvTimeout::Item(9));
        // Hangup beats the deadline once the queue is drained.
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), RecvTimeout::Hangup);
    }

    /// Satellite (ISSUE 9): deadline expiry under contention, pinned
    /// across 1/2/4/8 waiter threads — every waiter either gets an item
    /// or times out; nothing hangs and nothing is double-delivered.
    #[test]
    fn recv_timeout_contention_is_lossless_across_thread_counts() {
        for waiters in [1usize, 2, 4, 8] {
            let (tx, rx) = bounded::<u64>(64);
            // Fewer items than waiters: the excess must time out.
            let items = waiters / 2;
            for i in 0..items as u64 {
                tx.try_send(i).expect("room");
            }
            let got: Vec<RecvTimeout<u64>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..waiters)
                    .map(|_| {
                        let rx = &rx;
                        s.spawn(move || rx.recv_timeout(Duration::from_millis(40)))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("waiter panicked")).collect()
            });
            let delivered: Vec<u64> = got
                .iter()
                .filter_map(|r| match r {
                    RecvTimeout::Item(v) => Some(*v),
                    _ => None,
                })
                .collect();
            let timed_out = got.iter().filter(|r| **r == RecvTimeout::TimedOut).count();
            assert_eq!(delivered.len(), items, "{waiters} waiters: every queued item lands once");
            assert_eq!(timed_out, waiters - items, "{waiters} waiters: the rest time out");
            let mut sorted = delivered;
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), items, "{waiters} waiters: no double delivery");
        }
    }

    /// Satellite (ISSUE 9): `try_send` racing shutdown.  Phase one — a
    /// live consumer drains to hangup and every accepted item lands
    /// exactly once.  Phase two — the receiver is dropped mid-race and
    /// every producer terminates with a typed `Closed`, never a hang
    /// (closed is checked before full, so a full+closed queue cannot
    /// trap a retry loop).  Both pinned across 1/2/4/8 producers.
    #[test]
    fn try_send_racing_shutdown_never_strands_an_accepted_item() {
        for producers in [1usize, 2, 4, 8] {
            // Phase one: full drain accounting.
            let (tx, rx) = bounded::<u64>(8);
            let (accepted, drained) = std::thread::scope(|s| {
                let handles: Vec<_> = (0..producers as u64)
                    .map(|t| {
                        let tx = tx.clone();
                        s.spawn(move || {
                            let mut accepted = 0u64;
                            for i in 0..64u64 {
                                match tx.try_send(t * 100 + i) {
                                    Ok(_) => accepted += 1,
                                    // Full skips the item (bounded attempts).
                                    Err(TrySendError::Full(_)) => std::thread::yield_now(),
                                    Err(TrySendError::Closed(_)) => break,
                                }
                            }
                            accepted
                        })
                    })
                    .collect();
                drop(tx);
                let mut drained = 0u64;
                loop {
                    match rx.recv_timeout(Duration::from_millis(50)) {
                        RecvTimeout::Item(_) => drained += 1,
                        RecvTimeout::TimedOut => continue,
                        RecvTimeout::Hangup => break,
                    }
                }
                let accepted: u64 =
                    handles.into_iter().map(|h| h.join().expect("producer panicked")).sum();
                (accepted, drained)
            });
            assert_eq!(
                accepted, drained,
                "{producers} producers: every accepted item must drain exactly once"
            );

            // Phase two: receiver drops mid-race; producers must all
            // terminate and observe the typed close.
            let (tx, rx) = bounded::<u64>(4);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..producers as u64)
                    .map(|t| {
                        let tx = tx.clone();
                        s.spawn(move || {
                            // Push until the close lands; the main
                            // thread always drops the receiver, so the
                            // typed Closed is guaranteed to arrive.
                            let mut i = 0u64;
                            loop {
                                match tx.try_send(t * 100_000 + i) {
                                    Ok(_) | Err(TrySendError::Full(_)) => i += 1,
                                    Err(TrySendError::Closed(_)) => return true,
                                }
                            }
                        })
                    })
                    .collect();
                // Let the race actually interleave, then shut down.
                while rx.len() < 2 {
                    std::thread::yield_now();
                }
                drop(rx);
                for h in handles {
                    assert!(
                        h.join().expect("producer panicked"),
                        "{producers} producers: close must surface as a typed Closed"
                    );
                }
            });
            // The close is sticky: a fresh send still sees it.
            match tx.try_send(1) {
                Err(TrySendError::Closed(v)) => assert_eq!(v, 1),
                other => panic!("expected sticky Closed, got {other:?}"),
            }
        }
    }

    /// Satellite (ISSUE 9): dropped-sender oneshot behavior pinned
    /// across 1/2/4/8 concurrent tickets, plus slot poisoning — a
    /// receiver that times out makes the late `send` report `false`.
    #[test]
    fn oneshot_dropped_sender_and_poisoned_slot_across_thread_counts() {
        for tickets in [1usize, 2, 4, 8] {
            let pairs: Vec<_> = (0..tickets).map(|_| oneshot::<u32>()).collect();
            std::thread::scope(|s| {
                let mut receivers = Vec::new();
                for (otx, orx) in pairs {
                    s.spawn(move || drop(otx));
                    receivers.push(s.spawn(move || orx.recv()));
                }
                for h in receivers {
                    assert_eq!(h.join().expect("waiter"), None, "{tickets} tickets");
                }
            });
        }
        // Poisoning: a timed-out ticket turns the late answer into
        // `send() == false` instead of a silent park.
        let (otx, orx) = oneshot::<u32>();
        assert_eq!(orx.recv_timeout(Duration::from_millis(5)), OnceTimeout::TimedOut);
        assert!(!otx.send(42), "late answer into a poisoned slot must be reported");
        // And the happy path still reports delivery.
        let (otx, orx) = oneshot::<u32>();
        assert!(otx.send(7));
        assert_eq!(orx.recv(), Some(7));
    }
}
