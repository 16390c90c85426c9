//! A std-only unbounded MPSC channel (`Mutex<VecDeque>` + `Condvar`).
//!
//! The threaded backend needs exactly three properties from its
//! mailboxes: FIFO order per producer, blocking receive, and disconnect
//! detection (receive fails once every sender is gone; send fails once
//! the receiver is gone). `std::sync::mpsc` provides these too, but its
//! receiver-side buffer management is opaque; this implementation keeps
//! the queue in a plain `VecDeque` whose capacity amortizes to
//! steady-state zero-allocation operation, which the transport's
//! allocation-free guarantee relies on and the counting-allocator test
//! asserts.
//!
//! Wait policy: a receive that finds the queue empty *polls before it
//! parks*. It looks at a lock-free mirror of the queue length back to
//! back, giving its core away with `yield_now` between looks, for at
//! most [`POLL_BUDGET`], and only then sleeps on the condvar. A hop that
//! has to wait therefore costs what the host charges (a `sched_yield`
//! and the queue's cache lines moving between two cores), not a constant
//! of this file. The mirror is a hint (`Relaxed`): every pop, the empty
//! check that precedes a park, and the parked flag the sender reads live
//! under the mutex, so no wake-up can be lost whatever the looks saw. A
//! sender pays the `notify_one` syscall only when the receiver recorded
//! that it is actually asleep. The poll phase is [`poll`], which the
//! endpoint's rendezvous completion waits through as well (over its own
//! hint).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long an empty-handed receive polls before it parks. A parked
/// hand-off costs the sender a futex wake and the receiver a reschedule:
/// about 21 us one way on the reference 2-vCPU guest, 47 us for the
/// round trip (`runtime.sendrecv_us.8B` 21.2, `runtime.pingpong_rtt_us.8B`
/// 46.6 with this budget set to zero, so that every wait parks at once).
/// Polling for about that long bounds the CPU a wait can waste at what
/// parking straight away would have cost in wake-up latency (the
/// ski-rental bound), while a peer that answers within the budget is
/// seen at the next look instead of after two context switches.
const POLL_BUDGET: Duration = Duration::from_micros(40);

struct State<T> {
    queue: VecDeque<T>,
    /// Live [`Sender`] handles; 0 means no message can ever arrive again.
    producers: usize,
    /// Cleared when the [`Receiver`] drops; sends then fail fast.
    receiver_alive: bool,
    /// Set by the receiver immediately before it sleeps on `ready`;
    /// taken by the sender that wakes it. A sender that finds it clear
    /// skips the wake-up syscall: the receiver is running (polling, or
    /// about to re-check the queue under this mutex).
    parked: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// Mirror of `state.queue.len()`, stored under the mutex by whoever
    /// changed the queue and read without it by the polling receiver. It
    /// carries no data (the pop re-checks under the lock), so `Relaxed`
    /// is enough.
    len: AtomicUsize,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every critical section below is a few queue and flag
        // updates, none of which can panic.
        self.state.lock().expect("inbox mutex poisoned")
    }
}

/// The sending half; cloning registers another producer.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error returned by [`Sender::send`] when the receiver is gone; carries
/// the rejected value back to the caller.
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the queue is empty and every
/// sender is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`]: either the deadline
/// expired with the queue still empty, or every sender is gone.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed without a message arriving.
    Timeout,
    /// The queue is drained and no sender remains.
    Disconnected,
}

/// How a blocking receive got its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Waited {
    /// It was queued already, or arrived while the receiver polled.
    Polled,
    /// The receiver slept on the condvar at least once.
    Parked,
}

/// The poll phase of every wait in this crate: looks at `ready` back to
/// back, yielding between looks, until it holds, [`POLL_BUDGET`] is spent
/// or `deadline` passes. `ready` reads a lock-free hint; the caller
/// re-checks under its lock afterwards and parks there if it must, so
/// nothing depends on what a look saw. The clock is first read after one
/// fruitless look, so a wait that is already over costs none.
pub(crate) fn poll(mut ready: impl FnMut() -> bool, deadline: Option<Instant>) {
    if ready() {
        return;
    }
    let start = Instant::now();
    let give_up = deadline.map_or(start + POLL_BUDGET, |d| d.min(start + POLL_BUDGET));
    let mut now = start;
    while now < give_up {
        // Whoever shares this core (the peer we are waiting for, in an
        // oversubscribed world) gets it now, not after our budget:
        // `oversubscribed.rs` runs pinned to one core in `ci.sh`.
        std::thread::yield_now();
        if ready() {
            return;
        }
        now = Instant::now();
    }
}

/// Creates a connected unbounded channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            producers: 1,
            receiver_alive: true,
            parked: false,
        }),
        ready: Condvar::new(),
        len: AtomicUsize::new(0),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueues `value`; fails (returning the value) if the receiver has
    /// been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        if !st.receiver_alive {
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        self.shared.len.store(st.queue.len(), Ordering::Relaxed);
        // The receiver sets `parked` under this mutex after finding the
        // queue empty, so a clear flag proves it will see this push
        // without being woken.
        let wake = std::mem::take(&mut st.parked);
        drop(st);
        if wake {
            self.shared.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().producers += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let remaining = {
            let mut st = self.shared.lock();
            st.producers -= 1;
            st.producers
        };
        if remaining == 0 {
            // Wake a receiver blocked on an empty queue so it observes
            // the disconnect.
            self.shared.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives; fails once the queue is drained
    /// and no sender remains.
    pub fn recv(&self) -> Result<T, RecvError> {
        match self.recv_until(None) {
            Ok((v, _)) => Ok(v),
            Err(_) => Err(RecvError),
        }
    }

    /// Blocks until a message arrives or `timeout` elapses. The wait is
    /// deadline-based: spurious condvar wakeups re-wait only for the
    /// remaining time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        self.recv_until(Some(deadline)).map(|(v, _)| v)
    }

    /// The one wait loop: poll the length mirror for the budget, then
    /// pop under the lock, parking until notified or `deadline` while
    /// the queue stays empty (`None` waits forever and never reports
    /// `Timeout`). The budget is spent once per call, not per wake-up.
    /// Also says whether the wait had to park.
    pub(crate) fn recv_until(
        &self,
        deadline: Option<Instant>,
    ) -> Result<(T, Waited), RecvTimeoutError> {
        let shared = &*self.shared;
        poll(|| shared.len.load(Ordering::Relaxed) != 0, deadline);
        let mut waited = Waited::Polled;
        let mut st = shared.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                shared.len.store(st.queue.len(), Ordering::Relaxed);
                return Ok((v, waited));
            }
            if st.producers == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(RecvTimeoutError::Timeout);
            }
            st.parked = true;
            waited = Waited::Parked;
            st = match left {
                None => shared.ready.wait(st).expect("inbox mutex poisoned"),
                Some(left) => {
                    let woken = shared.ready.wait_timeout(st, left);
                    woken.expect("inbox mutex poisoned").0
                }
            };
            // Timed out or woken spuriously: nobody took the flag.
            st.parked = false;
        }
    }

    /// Non-blocking receive: `None` when the queue is currently empty
    /// (regardless of sender liveness).
    pub fn try_recv(&self) -> Option<T> {
        // An empty look needs no lock: a send that happens-before this
        // call has stored a non-zero length, and a stale zero only sends
        // the caller on to a blocking receive, which pops under the lock.
        if self.shared.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut st = self.shared.lock();
        let v = st.queue.pop_front();
        self.shared.len.store(st.queue.len(), Ordering::Relaxed);
        v
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Nobody can pop the queue any more: drop what is in it now
        // (outside the lock), not when the last sender goes. A queued
        // rendezvous window releases its blocked sender from its drop.
        let unread = {
            let mut st = self.shared.lock();
            st.receiver_alive = false;
            self.shared.len.store(0, Ordering::Relaxed);
            std::mem::take(&mut st.queue)
        };
        drop(unread);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn roundtrip_preserves_fifo() {
        let (tx, rx) = channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = channel::<u8>();
        tx.send(1).unwrap();
        let tx2 = tx.clone();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_receiver_drops() {
        let (tx, rx) = channel();
        drop(rx);
        let err = tx.send(42).unwrap_err();
        assert_eq!(err.0, 42);
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = channel();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(7u32).unwrap();
        assert_eq!(h.join().unwrap(), Ok(7));
    }

    #[test]
    fn blocking_recv_wakes_on_disconnect() {
        let (tx, rx) = channel::<u8>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (tx, rx) = channel();
        assert_eq!(rx.try_recv(), None);
        tx.send(3i64).unwrap();
        assert_eq!(rx.try_recv(), Some(3));
    }

    #[test]
    fn recv_timeout_returns_message_or_reason() {
        use std::time::Duration;
        let (tx, rx) = channel();
        tx.send(5u8).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(5));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_timeout_wakes_on_late_send() {
        use std::time::Duration;
        let (tx, rx) = channel();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        tx.send(9u32).unwrap();
        assert_eq!(h.join().unwrap(), Ok(9));
    }

    #[test]
    fn many_producers_all_delivered() {
        let (tx, rx) = channel();
        std::thread::scope(|s| {
            for t in 0..8 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        tx.send(t * 100 + i).unwrap();
                    }
                });
            }
        });
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got.len(), 800);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 800);
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    /// Spawns a thread that runs `act` the moment `go` is raised, so it
    /// lands inside the raiser's next wait.
    fn on_signal<'s>(
        scope: &'s std::thread::Scope<'s, '_>,
        go: &'s AtomicBool,
        act: impl FnOnce() + Send + 's,
    ) {
        scope.spawn(move || {
            while !go.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            act();
        });
    }

    #[test]
    fn message_arriving_during_the_poll_phase_is_returned_without_parking() {
        // The sender spins on `go` and fires the instant the receiver
        // enters its wait, well inside the 40 us budget unless the box
        // preempts it; a handful of attempts makes that irrelevant.
        let mut polled = 0;
        for attempt in 0..200u32 {
            let (tx, rx) = channel();
            let go = AtomicBool::new(false);
            let got = std::thread::scope(|s| {
                on_signal(s, &go, || tx.send(attempt).unwrap());
                go.store(true, Ordering::Release);
                rx.recv_until(Some(far_deadline()))
            });
            let (v, waited) = got.unwrap();
            assert_eq!(v, attempt);
            polled += u32::from(waited == Waited::Polled);
        }
        assert!(polled > 0, "no receive was served from the poll phase");
    }

    #[test]
    fn message_arriving_after_the_budget_is_returned_from_the_park() {
        let (tx, rx) = channel();
        let got = std::thread::scope(|s| {
            let shared = &rx.shared;
            s.spawn(move || {
                // Send only once the receiver has recorded that it sleeps.
                while !shared.lock().parked {
                    std::thread::yield_now();
                }
                tx.send(9u32).unwrap();
            });
            rx.recv_until(Some(far_deadline()))
        });
        assert_eq!(got, Ok((9, Waited::Parked)));
    }

    #[test]
    fn timeout_shorter_than_the_budget_is_not_rounded_up_to_it() {
        let timeout = Duration::from_micros(5);
        assert!(timeout * 4 < POLL_BUDGET);
        let (_tx, rx) = channel::<u8>();
        // The best of many trials: a preempted trial says nothing about
        // the wait policy.
        let best = (0..200)
            .map(|_| {
                let start = Instant::now();
                assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
                start.elapsed()
            })
            .min()
            .unwrap();
        assert!(best >= timeout, "returned early: {best:?}");
        assert!(
            best < timeout * 4,
            "waited {best:?} for a {timeout:?} timeout"
        );
    }

    #[test]
    fn fruitless_poll_looks_back_to_back_for_the_budget() {
        // The best of many trials, as above. Looks on a 4 us grid could
        // number no more than 11 in a 40 us budget.
        let (best, looks) = (0..200)
            .map(|_| {
                let mut looks = 0u32;
                let start = Instant::now();
                poll(
                    || {
                        looks += 1;
                        false
                    },
                    None,
                );
                (start.elapsed(), looks)
            })
            .min()
            .unwrap();
        assert!(best >= POLL_BUDGET, "gave up early: {best:?}");
        assert!(best < POLL_BUDGET * 4, "polled for {best:?}");
        assert!(looks > 11, "{looks} looks in {best:?}");
    }

    #[test]
    fn poll_past_its_deadline_looks_once() {
        let past = Instant::now();
        let mut looks = 0;
        poll(
            || {
                looks += 1;
                false
            },
            Some(past),
        );
        assert_eq!(looks, 1);
    }

    #[test]
    fn disconnect_during_polling_is_reported() {
        let (tx, rx) = channel::<u8>();
        let go = AtomicBool::new(false);
        let start = Instant::now();
        let got = std::thread::scope(|s| {
            on_signal(s, &go, || drop(tx));
            go.store(true, Ordering::Release);
            rx.recv_timeout(Duration::from_secs(10))
        });
        assert_eq!(got, Err(RecvTimeoutError::Disconnected));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    /// Eight producers that mostly sleep, so the receiver keeps crossing
    /// from polling into parking while sends race it: the parked-flag
    /// protocol must lose no wake-up. Receives are bounded, so a lost
    /// wake-up fails with `Timeout` instead of hanging the suite.
    #[test]
    fn racing_producers_lose_no_wakeup() {
        const PRODUCERS: u64 = 8;
        const PER_PRODUCER: u64 = 10_000;
        let (tx, rx) = channel();
        let mut next = [0u64; PRODUCERS as usize];
        let mut parked = 0u64;
        std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let tx = tx.clone();
                s.spawn(move || {
                    let mut rng = intercom::SplitMix64::new(t);
                    for i in 0..PER_PRODUCER {
                        match rng.next_u64() % 16 {
                            // Long enough for the receiver to park.
                            0 => std::thread::sleep(Duration::from_micros(100)),
                            1..=4 => std::thread::yield_now(),
                            _ => {}
                        }
                        tx.send((t, i)).unwrap();
                    }
                });
            }
            let mut rng = intercom::SplitMix64::new(PRODUCERS);
            for _ in 0..PRODUCERS * PER_PRODUCER {
                if rng.below(8) == 0 {
                    std::thread::yield_now();
                }
                let ((t, i), waited) = rx
                    .recv_until(Some(far_deadline()))
                    .expect("a wake-up was lost");
                assert_eq!(i, next[t as usize], "producer {t} out of order");
                next[t as usize] += 1;
                parked += u64::from(waited == Waited::Parked);
            }
        });
        assert_eq!(next, [PER_PRODUCER; PRODUCERS as usize]);
        assert_eq!(rx.try_recv(), None);
        assert!(parked > 0, "the park path was never taken");
    }
}
