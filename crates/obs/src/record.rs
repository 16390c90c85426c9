//! Per-rank recording: fixed-capacity ring buffers, counters and the
//! drained run record.
//!
//! The hot-path contract: one [`Recorder`] per rank, written only by
//! that rank's thread — no locks, no atomics, and no allocation after
//! construction (the ring is pre-allocated and overwrites its oldest
//! entry when full, counting what it dropped). A disabled recorder
//! reduces every hook to a single branch, which is what keeps the
//! instrumentation overhead within the CI-enforced 3% budget.

use crate::event::TraceEvent;
use std::cell::RefCell;
use std::time::Instant;

/// Default per-rank event capacity: enough for every collective the
/// test and bench matrices run, small enough to stay cache-friendly.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// A fixed-capacity event ring. When full, the oldest event is
/// overwritten and [`RingBuffer::dropped`] incremented — recent history
/// wins, which is what post-collective draining wants.
#[derive(Debug, Clone)]
pub struct RingBuffer {
    buf: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
}

impl RingBuffer {
    /// Creates a ring holding at most `capacity` events (min 1), fully
    /// pre-allocated.
    pub fn new(capacity: usize) -> Self {
        RingBuffer {
            buf: Vec::with_capacity(capacity.max(1)),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len();
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring, returning events in recording order.
    pub fn into_events(mut self) -> Vec<TraceEvent> {
        self.buf.rotate_left(self.head);
        self.buf
    }
}

/// Per-rank counters, maintained firsthand by the threaded runtime and
/// derivable from a transfer log for the simulator
/// ([`RunRecord::from_transfers`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Messages sent (sendrecv counts one).
    pub msgs_sent: u64,
    /// Messages received (sendrecv counts one).
    pub msgs_recvd: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Messages sent on the eager (copy-through-the-ring) path.
    pub eager_msgs: u64,
    /// Messages sent on the zero-copy rendezvous path.
    pub rendezvous_msgs: u64,
    /// Local reduction steps performed.
    pub reduce_steps: u64,
    /// Bytes folded by local reductions.
    pub reduce_bytes: u64,
    /// Eager stores beyond a ring slot's inline area into storage that
    /// existed (filled at drain from the endpoint's store counters).
    pub pool_hits: u64,
    /// Eager stores that made or grew their storage (likewise).
    pub pool_misses: u64,
    /// Scripted faults that fired on this rank (fault-injection runs).
    pub faults_injected: u64,
    /// Fault-layer retransmissions (NAK- or drop-triggered resends).
    pub retries: u64,
    /// Checksum NAK verdicts this rank issued on receive.
    pub naks: u64,
    /// Bounded waits that expired (each precedes an abort or a retry).
    pub timeout_waits: u64,
    /// Coordinated-abort poison deliveries observed on this rank.
    pub aborts: u64,
    /// Receives that found their peer's mailbox empty and got their
    /// message while polling it (threaded backend; no context switch).
    pub polled_waits: u64,
    /// Receives that polled out their budget and parked on their rank's
    /// condvar (threaded backend; a futex wake and a reschedule).
    pub parked_waits: u64,
    /// Receives whose consumer ran on the sender's bytes where they lay
    /// (threaded backend: a combining hop at or above the rendezvous
    /// threshold; its receive buffer was never written).
    pub windows_in_place: u64,
    /// Pieces of a receiver's copy that this rank, the blocked sender
    /// of the window, copied itself (threaded backend, plain receives
    /// of long windows).
    pub sender_copied_chunks: u64,
    /// Seconds spent blocked waiting for a peer (recv with no matching
    /// message yet, rendezvous completion waits).
    pub wait_secs: f64,
    /// Seconds spent actually moving bytes (payload copies in and out,
    /// and the fold a receive ran on its bytes: [`Self::windows_in_place`]).
    pub transfer_secs: f64,
}

impl Counters {
    /// Folds one event into the fault counters. Communication and
    /// reduction events are untouched — they are counted firsthand by
    /// the backends; the fault regime only exists as trace events
    /// (`verify::chaos::fault_trace_events` merges the fault layer's
    /// log onto rank timelines), so recovered-vs-clean runs would
    /// otherwise be indistinguishable in aggregate stats.
    pub fn note_event(&mut self, kind: crate::event::EventKind) {
        use crate::event::EventKind;
        match kind {
            EventKind::FaultInjected => self.faults_injected += 1,
            EventKind::Retry => self.retries += 1,
            EventKind::Nak => self.naks += 1,
            EventKind::Timeout => self.timeout_waits += 1,
            EventKind::Abort => self.aborts += 1,
            EventKind::Send | EventKind::Recv | EventKind::SendRecv | EventKind::Reduce => {}
        }
    }

    /// Accumulates `other` into `self` (for whole-run aggregates).
    pub fn merge(&mut self, other: &Counters) {
        self.msgs_sent += other.msgs_sent;
        self.msgs_recvd += other.msgs_recvd;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.eager_msgs += other.eager_msgs;
        self.rendezvous_msgs += other.rendezvous_msgs;
        self.reduce_steps += other.reduce_steps;
        self.reduce_bytes += other.reduce_bytes;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.naks += other.naks;
        self.timeout_waits += other.timeout_waits;
        self.aborts += other.aborts;
        self.polled_waits += other.polled_waits;
        self.parked_waits += other.parked_waits;
        self.windows_in_place += other.windows_in_place;
        self.sender_copied_chunks += other.sender_copied_chunks;
        self.wait_secs += other.wait_secs;
        self.transfer_secs += other.transfer_secs;
    }
}

/// One rank's per-thread recording handle.
///
/// Interior mutability (a `RefCell`, never contended — one writer per
/// rank) lets the backend call it through `&self` from the `Comm`
/// methods. All recorders of one world share an epoch `Instant` so
/// their timelines align.
#[derive(Debug)]
pub struct Recorder {
    rank: usize,
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

#[derive(Debug)]
struct Inner {
    ring: RingBuffer,
    counters: Counters,
}

impl Recorder {
    /// An enabled recorder for `rank` with its own epoch (use
    /// [`recorders`] to build a world-aligned set).
    pub fn new(rank: usize, capacity: usize) -> Self {
        Self::with_epoch(rank, capacity, Instant::now(), true)
    }

    /// A disabled recorder: every hook is a single branch, nothing is
    /// recorded. Used by the A/B overhead gate.
    pub fn disabled(rank: usize) -> Self {
        Self::with_epoch(rank, 0, Instant::now(), false)
    }

    /// Full-control constructor; `capacity` is clamped to at least 1.
    pub fn with_epoch(rank: usize, capacity: usize, epoch: Instant, enabled: bool) -> Self {
        Recorder {
            rank,
            enabled,
            epoch,
            inner: RefCell::new(Inner {
                ring: RingBuffer::new(capacity),
                counters: Counters::default(),
            }),
        }
    }

    /// The rank this recorder belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether hooks should bother timestamping at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the world epoch (monotonic).
    #[inline]
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        if self.enabled {
            self.inner.borrow_mut().ring.push(ev);
        }
    }

    /// Updates the counters in place (no-op when disabled).
    #[inline]
    pub fn with_counters(&self, f: impl FnOnce(&mut Counters)) {
        if self.enabled {
            f(&mut self.inner.borrow_mut().counters);
        }
    }

    /// Drains the recorder into its per-rank record.
    pub fn finish(self) -> RankRecord {
        let inner = self.inner.into_inner();
        RankRecord {
            rank: self.rank,
            dropped: inner.ring.dropped(),
            events: inner.ring.into_events(),
            counters: inner.counters,
        }
    }
}

/// A world-aligned set of enabled recorders (shared epoch).
pub fn recorders(p: usize, capacity: usize) -> Vec<Recorder> {
    let epoch = Instant::now();
    (0..p)
        .map(|r| Recorder::with_epoch(r, capacity, epoch, true))
        .collect()
}

/// A world of disabled recorders, for overhead A/B runs.
pub fn disabled_recorders(p: usize) -> Vec<Recorder> {
    let epoch = Instant::now();
    (0..p)
        .map(|r| Recorder::with_epoch(r, 0, epoch, false))
        .collect()
}

/// One rank's drained observations.
#[derive(Debug, Clone)]
pub struct RankRecord {
    /// World rank.
    pub rank: usize,
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
    /// The rank's counters.
    pub counters: Counters,
    /// Events lost to ring overflow (0 in a well-sized run).
    pub dropped: u64,
}

/// A whole recorded run: per-rank events and counters, rank-indexed.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Per-rank events, indexed by rank.
    pub events: Vec<Vec<TraceEvent>>,
    /// Per-rank counters, indexed by rank.
    pub counters: Vec<Counters>,
    /// Per-rank ring-overflow counts, indexed by rank.
    pub dropped: Vec<u64>,
}

impl RunRecord {
    /// Assembles a run from drained per-rank records (any order).
    /// Fault-kind events on each timeline are folded into that rank's
    /// fault counters here, at drain time — zero hot-path cost.
    pub fn from_ranks(mut ranks: Vec<RankRecord>) -> Self {
        ranks.sort_by_key(|r| r.rank);
        let mut run = RunRecord::default();
        for mut r in ranks {
            debug_assert_eq!(r.rank, run.events.len(), "rank records must be dense");
            for ev in &r.events {
                r.counters.note_event(ev.kind);
            }
            run.events.push(r.events);
            run.counters.push(r.counters);
            run.dropped.push(r.dropped);
        }
        run
    }

    /// Builds a run record from a simulator transfer log: each transfer
    /// lands on its source rank's timeline, and the counters credit the
    /// source with the send and the destination with the receive.
    pub fn from_transfers(transfers: &[TraceEvent], p: usize) -> Self {
        let mut run = RunRecord {
            events: vec![Vec::new(); p],
            counters: vec![Counters::default(); p],
            dropped: vec![0; p],
        };
        for t in transfers {
            run.counters[t.src].msgs_sent += 1;
            run.counters[t.src].bytes_out += t.bytes as u64;
            run.counters[t.dst].msgs_recvd += 1;
            run.counters[t.dst].bytes_in += t.bytes as u64;
            run.events[t.src].push(*t);
        }
        run
    }

    /// World size.
    pub fn p(&self) -> usize {
        self.events.len()
    }

    /// All events of all ranks.
    pub fn all_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().flatten()
    }

    /// Whole-run counter totals.
    pub fn totals(&self) -> Counters {
        let mut total = Counters::default();
        for c in &self.counters {
            total.merge(c);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(rank: usize, start: f64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Send,
            rank,
            src: rank,
            dst: rank + 1,
            tag: 0,
            bytes: 4,
            start,
            end: start + 1.0,
            hops: 0,
            plan: 0,
            step: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent_when_full() {
        let mut ring = RingBuffer::new(3);
        for i in 0..5 {
            ring.push(ev(0, i as f64));
        }
        assert_eq!(ring.dropped(), 2);
        let starts: Vec<f64> = ring.into_events().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn ring_does_not_reallocate() {
        let mut ring = RingBuffer::new(4);
        let cap = ring.buf.capacity();
        for i in 0..100 {
            ring.push(ev(0, i as f64));
        }
        assert_eq!(ring.buf.capacity(), cap);
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled(3);
        r.record(ev(3, 0.0));
        r.with_counters(|c| c.msgs_sent += 1);
        let rec = r.finish();
        assert!(rec.events.is_empty());
        assert_eq!(rec.counters, Counters::default());
    }

    #[test]
    fn recorder_drains_in_order() {
        let r = Recorder::new(1, 16);
        r.record(ev(1, 0.0));
        r.record(ev(1, 1.0));
        r.with_counters(|c| {
            c.msgs_sent += 2;
            c.bytes_out += 8;
        });
        let rec = r.finish();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.counters.msgs_sent, 2);
        assert_eq!(rec.counters.bytes_out, 8);
        assert_eq!(rec.dropped, 0);
    }

    #[test]
    fn run_from_transfers_credits_both_ends() {
        let transfers = vec![
            TraceEvent::transfer(0, 1, 0, 10, 0.0, 1.0, 1),
            TraceEvent::transfer(1, 2, 0, 20, 1.0, 2.0, 1),
        ];
        let run = RunRecord::from_transfers(&transfers, 3);
        assert_eq!(run.counters[0].bytes_out, 10);
        assert_eq!(run.counters[1].bytes_in, 10);
        assert_eq!(run.counters[1].bytes_out, 20);
        assert_eq!(run.counters[2].bytes_in, 20);
        assert_eq!(run.events[1].len(), 1);
        assert_eq!(run.totals().msgs_sent, 2);
    }

    #[test]
    fn world_recorders_share_epoch() {
        let rs = recorders(4, 8);
        assert_eq!(rs.len(), 4);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.rank(), i);
            assert!(r.enabled());
        }
        assert!(!disabled_recorders(2)[0].enabled());
    }
}
