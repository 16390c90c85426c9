//! One single-producer/single-consumer mailbox per ordered pair of
//! ranks, and the per-receiver [`Waker`] a blocked receive sleeps on.
//!
//! Every receive names its source, so the endpoint that waits on rank
//! `q` looks at exactly one mailbox: the one only `q` posts to. That
//! makes the hand-off one writer and one reader per ring, and the fast
//! path needs neither a compare-and-swap nor a lock:
//!
//! * the ring is [`SLOTS`] slots, each one 64-byte header line (`seq`,
//!   the tag, what the slot carries) followed by an [`INLINE`]-byte
//!   area, also 64-byte aligned;
//! * the producer owns the tail and the consumer the head, each on a
//!   cache line of its own;
//! * posting writes the header and, for a message of up to [`INLINE`]
//!   bytes, the bytes themselves, then publishes them with one
//!   `Release` store of `seq`; taking is an `Acquire` load of `seq`,
//!   the copy (or fold) out of the slot, and a `Release` store of `seq`
//!   that hands the slot back for the producer's next lap.
//!
//! `seq` counts laps: slot `i` serves positions `i, i + SLOTS, …`, and
//! for the position in lap `k` it reads `2k` while free, `2k + 1` once
//! published and `2k + 2` once taken (free for lap `k + 1`). A slot
//! starts at 0, free for lap 0.
//!
//! A longer eager message travels as a pooled `Vec` handle in the
//! header, and a rendezvous window as its borrowed handle; neither uses
//! the inline area. Control messages (a farewell, a poison record) are
//! ordinary inline messages under their reserved tags.
//!
//! An eager send never blocks: when the ring is full the producer
//! appends to the pair's overflow queue (a mutex, the rare path), and
//! keeps appending there while it is non-empty, so nothing it posts
//! later can overtake what it spilled. The consumer takes from the ring
//! before the overflow, and re-looks at the ring under the overflow's
//! lock before taking from it: under the lock every slot the producer
//! published before it spilled is visible. Per-pair FIFO holds.
//!
//! Waiting is the receiver's business alone ([`Waker`]): it polls the
//! mailbox it waits on (through `chan::poll`), then parks. The producer
//! pays a fence and one load of `parked` per post, and the wake-up
//! syscall only for a receiver it finds asleep.
//!
//! A pair that never talks costs no ring: the producer allocates it on
//! its first post (8 × 1 088 bytes, under the 16 KiB a pair may cost),
//! and a farewell to a peer it never posted to goes to the overflow.

use crate::endpoint::Payload;
use intercom::{BufferPool, Tag};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Slots per ring: how many messages a producer can have in flight to
/// one peer before it spills. A collective keeps a handful.
const SLOTS: usize = 8;

/// Bytes a slot carries inline; a longer eager message is a pooled
/// `Vec`. 1 KiB holds `thr-small`'s longest hop.
pub(crate) const INLINE: usize = 1024;

/// What a published slot carries besides its tag.
enum Body {
    /// The first `len` bytes of the slot's inline area.
    Inline(usize),
    /// A pooled buffer or a borrowed window.
    Payload(Payload),
}

/// The header line's payload: written by the producer before it
/// publishes, read by the consumer after it sees the publication.
struct Head {
    tag: Tag,
    body: Body,
}

#[repr(C, align(64))]
struct Bytes([u8; INLINE]);

#[repr(C, align(64))]
struct Slot {
    seq: AtomicU64,
    head: UnsafeCell<Head>,
    bytes: UnsafeCell<Bytes>,
}

// The header fits its line, so the inline area starts on the next one.
const _: () = assert!(std::mem::size_of::<Slot>() == 64 + INLINE);

// SAFETY: `head` and `bytes` are written only by the producer while
// `seq` says the slot is free, and read only by the consumer while `seq`
// says it is published; the `Release` store of `seq` that passes the
// slot from one side to the other and the `Acquire` load that observes
// it order every such access (see `publish` and `pop_ring`). What
// `head` holds (`Vec<u8>`, a borrowed window) is `Send`.
unsafe impl Sync for Slot {}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            head: UnsafeCell::new(Head {
                tag: 0,
                body: Body::Inline(0),
            }),
            bytes: UnsafeCell::new(Bytes([0; INLINE])),
        }
    }
}

/// `seq` of the slot serving position `pos` once it is published.
fn published(pos: u64) -> u64 {
    2 * (pos / SLOTS as u64) + 1
}

/// A value alone on its cache line.
#[repr(align(64))]
#[derive(Default)]
struct Line<T>(T);

/// The messages rank `q` sends to rank `r`: `q` is its only producer,
/// `r` its only consumer.
#[derive(Default)]
pub(crate) struct Mailbox {
    /// The next position the producer posts at; only it reads or
    /// writes this (`Relaxed`), on a line of its own.
    tail: Line<AtomicU64>,
    /// The next position the consumer takes from; likewise the
    /// consumer's alone.
    head: Line<AtomicU64>,
    ring: OnceLock<Box<[Slot; SLOTS]>>,
    overflow: Mutex<VecDeque<(Tag, Payload)>>,
    /// Mirror of `overflow.len()`, stored under its lock. Only the
    /// producer makes it non-zero, so a producer that reads 0 knows the
    /// overflow is empty; the consumer reads it as a hint and re-checks
    /// under the lock.
    spilled: AtomicUsize,
    /// Set by the consumer when its endpoint goes; a later post fails.
    closed: AtomicBool,
}

/// A message taken off a mailbox.
pub(crate) struct Arrival<'a> {
    pub tag: Tag,
    pub body: Arrived<'a>,
}

pub(crate) enum Arrived<'a> {
    /// Bytes still in their slot, which goes back to the producer when
    /// this drops.
    Inline(InlineMsg<'a>),
    Payload(Payload),
}

/// An inline message read where it lies.
pub(crate) struct InlineMsg<'a> {
    slot: &'a Slot,
    len: usize,
    /// `seq` that hands the slot back: free for the producer's next lap.
    free: u64,
}

impl InlineMsg<'_> {
    /// The message, 64-byte aligned.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: the slot is published and not yet handed back (that
        // happens in `drop`), so the producer does not touch it; the
        // consumer's `Acquire` load of `seq` made the producer's writes
        // of these bytes visible, and `len <= INLINE` was written with
        // them.
        unsafe { &(&(*self.slot.bytes.get()).0)[..self.len] }
    }
}

impl Drop for InlineMsg<'_> {
    fn drop(&mut self) {
        self.slot.seq.store(self.free, Ordering::Release);
    }
}

impl Mailbox {
    fn lock(&self) -> MutexGuard<'_, VecDeque<(Tag, Payload)>> {
        // Every critical section is one queue operation and a store.
        self.overflow.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Producer: whether the consumer's endpoint is gone.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Producer: posts `tag` and `data` inline when `data` fits a slot,
    /// the ring has room and nothing is spilled. Returns `false` (having
    /// posted nothing) otherwise; the caller then [`post`](Self::post)s
    /// a payload.
    pub(crate) fn try_post_inline(&self, tag: Tag, data: &[u8]) -> bool {
        let free = (data.len() <= INLINE).then(|| self.free_slot()).flatten();
        let Some((slot, pos)) = free else {
            return false;
        };
        let body = Body::Inline(data.len());
        self.publish(slot, pos, Head { tag, body }, data);
        true
    }

    /// Producer: posts a payload to the ring, or to the overflow when
    /// the ring is full or the overflow is non-empty. Never blocks.
    pub(crate) fn post(&self, tag: Tag, payload: Payload) {
        match self.free_slot() {
            Some((slot, pos)) => {
                let body = Body::Payload(payload);
                self.publish(slot, pos, Head { tag, body }, &[]);
            }
            None => self.spill(tag, payload),
        }
    }

    /// Producer, as its endpoint goes: posts the empty farewell `tag`.
    /// A pair that never talked gets it through the overflow, so its
    /// ring is never made; with nothing posted before it, FIFO holds.
    pub(crate) fn post_farewell(&self, tag: Tag, owner: usize) {
        match self.ring.get().and_then(|_| self.free_slot()) {
            Some((slot, pos)) => {
                let body = Body::Inline(0);
                self.publish(slot, pos, Head { tag, body }, &[]);
            }
            None => {
                let bytes = Vec::new();
                self.spill(tag, Payload::Pooled { bytes, owner });
            }
        }
    }

    /// Producer: appends to the overflow.
    fn spill(&self, tag: Tag, payload: Payload) {
        let mut overflow = self.lock();
        overflow.push_back((tag, payload));
        self.spilled.store(overflow.len(), Ordering::Relaxed);
    }

    /// Whether the pair's ring has been made.
    #[cfg(test)]
    pub(crate) fn has_ring(&self) -> bool {
        self.ring.get().is_some()
    }

    /// Producer: the slot at the tail and its position, when the
    /// overflow is empty and the consumer has handed that slot back.
    fn free_slot(&self) -> Option<(&Slot, u64)> {
        let ring = self
            .ring
            .get_or_init(|| Box::new(std::array::from_fn(|_| Slot::new())));
        let pos = self.tail.0.load(Ordering::Relaxed);
        let slot = &ring[pos as usize % SLOTS];
        // `Acquire`: the consumer's reads of this slot's last lap happen
        // before the producer's writes to it.
        let free = self.spilled.load(Ordering::Relaxed) == 0
            && slot.seq.load(Ordering::Acquire) == published(pos) - 1;
        free.then_some((slot, pos))
    }

    /// Producer: writes `head` and `bytes` into `slot`, which
    /// [`free_slot`](Self::free_slot) returned for `pos`, and publishes
    /// them.
    fn publish(&self, slot: &Slot, pos: u64, head: Head, bytes: &[u8]) {
        // SAFETY: the slot is free for this lap (`free_slot` saw `seq`
        // hand it back) and this is its only producer, so nothing else
        // reads or writes it until the `Release` store below publishes
        // it; `bytes` is at most `INLINE` long (`try_post_inline`) or
        // empty.
        unsafe {
            *slot.head.get() = head;
            (&mut (*slot.bytes.get()).0)[..bytes.len()].copy_from_slice(bytes);
        }
        slot.seq.store(published(pos), Ordering::Release);
        self.tail.0.store(pos + 1, Ordering::Relaxed);
    }

    /// Consumer: whether a message waits (a hint for polling: [`pop`](Self::pop)
    /// decides).
    pub(crate) fn ready(&self) -> bool {
        let head = self.head.0.load(Ordering::Relaxed);
        let published_at = |ring: &[Slot; SLOTS]| {
            ring[head as usize % SLOTS].seq.load(Ordering::Relaxed) == published(head)
        };
        self.ring.get().is_some_and(|ring| published_at(ring))
            || self.spilled.load(Ordering::Relaxed) != 0
    }

    /// Consumer: takes the next message in posting order, if any.
    pub(crate) fn pop(&self) -> Option<Arrival<'_>> {
        if let Some(arrival) = self.pop_ring() {
            return Some(arrival);
        }
        if self.spilled.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut overflow = self.lock();
        // Under the lock every slot published before the spill is
        // visible: one of them still goes first.
        if let Some(arrival) = self.pop_ring() {
            return Some(arrival);
        }
        let (tag, payload) = overflow.pop_front()?;
        self.spilled.store(overflow.len(), Ordering::Relaxed);
        Some(Arrival {
            tag,
            body: Arrived::Payload(payload),
        })
    }

    fn pop_ring(&self) -> Option<Arrival<'_>> {
        let pos = self.head.0.load(Ordering::Relaxed);
        let slot = &self.ring.get()?[pos as usize % SLOTS];
        if slot.seq.load(Ordering::Acquire) != published(pos) {
            return None;
        }
        self.head.0.store(pos + 1, Ordering::Relaxed);
        let free = published(pos) + 1;
        // SAFETY: the `Acquire` load saw this lap published, so the
        // producer's writes of the header are visible and it will not
        // write the slot again before `seq` reads `free`.
        let Head { tag, body } = unsafe {
            std::mem::replace(
                &mut *slot.head.get(),
                Head {
                    tag: 0,
                    body: Body::Inline(0),
                },
            )
        };
        let body = match body {
            Body::Inline(len) => Arrived::Inline(InlineMsg { slot, len, free }),
            Body::Payload(payload) => {
                slot.seq.store(free, Ordering::Release);
                Arrived::Payload(payload)
            }
        };
        Some(Arrival { tag, body })
    }

    /// Consumer, as its endpoint goes: refuses later posts and drops
    /// everything posted so far, which releases the sender of any window
    /// among it. A producer that posts a window concurrently sees the
    /// flag after its post (the fences in [`close`](Self::close) and
    /// [`Waker::nudge`] order the two) and withdraws the window itself.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        while self.pop().is_some() {}
    }
}

/// What the ranks of one world share: a mailbox per ordered pair, and a
/// waker and a payload pool per rank.
pub(crate) struct Fabric {
    /// `mailboxes[to * p + from]`.
    mailboxes: Vec<Mailbox>,
    wakers: Vec<Waker>,
    /// `pools[r]`: the buffers rank `r` acquires for its pooled sends
    /// and stashed copies.
    pub pools: Vec<BufferPool>,
}

impl Fabric {
    pub(crate) fn new(p: usize) -> Self {
        Fabric {
            mailboxes: (0..p * p).map(|_| Mailbox::default()).collect(),
            wakers: (0..p).map(|_| Waker::default()).collect(),
            pools: (0..p).map(|_| BufferPool::new()).collect(),
        }
    }

    pub(crate) fn size(&self) -> usize {
        self.wakers.len()
    }

    /// The mailbox `from` posts to and `to` takes from.
    pub(crate) fn mailbox(&self, to: usize, from: usize) -> &Mailbox {
        &self.mailboxes[to * self.size() + from]
    }

    pub(crate) fn waker(&self, rank: usize) -> &Waker {
        &self.wakers[rank]
    }
}

/// What a receiver parks on: one per rank, shared by every producer.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct Waker {
    /// Set (under `lock`) by the receiver just before it sleeps.
    parked: AtomicBool,
    /// Bumped by a poison record's sender after posting it, so a
    /// receiver waiting on another peer looks at every mailbox.
    alert: AtomicU64,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Waker {
    /// Producer, after a post: wakes the receiver if it sleeps. The
    /// fence pairs with the one in [`park`](Self::park): either this
    /// load sees `parked`, or the receiver's re-check sees the post.
    pub(crate) fn nudge(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            // Taking the lock waits until the receiver is inside `wait`
            // (it holds the lock from setting `parked` until then).
            drop(self.lock.lock().unwrap_or_else(|p| p.into_inner()));
            self.wake.notify_one();
        }
    }

    /// Poison's sender, after posting the record.
    pub(crate) fn raise_alert(&self) {
        self.alert.fetch_add(1, Ordering::Release);
        self.nudge();
    }

    #[cfg(test)]
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    /// Receiver: the alert count, to compare against the last one seen.
    pub(crate) fn alerts(&self) -> u64 {
        self.alert.load(Ordering::Acquire)
    }

    /// Receiver: sleeps until nudged or `deadline`, unless `ready`
    /// holds once `parked` is visible to producers. The caller looks
    /// again either way.
    pub(crate) fn park(&self, ready: impl Fn() -> bool, deadline: Instant) {
        let guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if !ready() {
            if let Some(left) = deadline.checked_duration_since(Instant::now()) {
                drop(self.wake.wait_timeout(guard, left));
            }
        }
        self.parked.store(false, Ordering::Relaxed);
    }
}
