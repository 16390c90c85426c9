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
//! * posting writes the header and the bytes, then publishes them with
//!   one `Release` store of `seq`; taking is an `Acquire` load of `seq`,
//!   the copy (or fold) out of the slot, and a `Release` store of `seq`
//!   that hands the slot back for the producer's next lap.
//!
//! `seq` counts laps: slot `i` serves positions `i, i + SLOTS, …`, and
//! for the position in lap `k` it reads `2k` while free, `2k + 1` once
//! published and `2k + 2` once taken (free for lap `k + 1`). A slot
//! starts at 0, free for lap 0.
//!
//! An eager message longer than [`INLINE`] bytes (they are all shorter
//! than the rendezvous threshold) goes to its slot's *extension*: slot
//! `i`'s stretch of one per-pair arena of 64-byte-aligned blocks, made
//! by the pair's first such post. The extension belongs to its slot, so
//! the same `seq` publishes it and hands it back, and a combining
//! receive folds out of it as it does out of the inline area. A
//! rendezvous window travels as its borrowed handle in the header.
//! Control messages (a farewell, a poison record) are ordinary messages
//! under their reserved tags.
//!
//! An eager send never blocks: when the ring is full the producer
//! appends to the pair's overflow (a mutex, the rare path): a queue of
//! tags and windows, with the eager bytes in one byte log that is
//! cleared, keeping its capacity, once the queue has emptied. It keeps
//! appending there while the queue is non-empty, so nothing it posts
//! later can overtake what it spilled. The consumer takes from the ring
//! before the overflow, and re-looks at the ring under the overflow's
//! lock before taking from it: under the lock every slot the producer
//! published before it spilled is visible. Per-pair FIFO holds. Spilled
//! bytes are read where they lie in the log, under the lock.
//!
//! No storage here ever changes hands between ranks: a ring, its arena
//! and the overflow belong to the mailbox, and are reused in place.
//!
//! Waiting is the receiver's business alone ([`Waker`]): it polls the
//! mailbox it waits on (through `chan::poll`), then parks. The producer
//! pays a fence and one load of `parked` per post, and the wake-up
//! syscall only for a receiver it finds asleep.
//!
//! A pair that never talks costs no ring: the producer allocates it on
//! its first post (8 × 1 088 bytes), and a farewell to a peer it never
//! posted to goes to the overflow. The arena (8 × 32 KiB) waits for the
//! pair's first post longer than [`INLINE`], and is never initialised:
//! a page of it is touched only once a message is written there.

use crate::endpoint::{BorrowedBytes, DEFAULT_RENDEZVOUS_THRESHOLD};
use intercom::Tag;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Slots per ring: how many messages a producer can have in flight to
/// one peer before it spills. A collective keeps a handful.
const SLOTS: usize = 8;

/// Bytes a slot carries inline; a longer eager message goes to the
/// slot's extension. 1 KiB holds `thr-small`'s longest hop.
pub(crate) const INLINE: usize = 1024;

/// Blocks of [`INLINE`] bytes in one slot's extension: room for any
/// eager message.
const EXTENSION: usize = DEFAULT_RENDEZVOUS_THRESHOLD / INLINE;

/// What a published slot carries besides its tag.
enum Body {
    /// `len` bytes: in the slot's inline area up to [`INLINE`], else in
    /// its extension.
    Bytes(usize),
    Window(BorrowedBytes),
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

// SAFETY: `head` and `bytes` (and the slot's extension) are written
// only by the producer while `seq` says the slot is free, and read only
// by the consumer while `seq` says it is published; the `Release` store
// of `seq` that passes the slot from one side to the other and the
// `Acquire` load that observes it order every such access (see
// `publish` and `pop_ring`). What `head` holds (a borrowed window) is
// `Send`.
unsafe impl Sync for Slot {}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            head: UnsafeCell::new(Head {
                tag: 0,
                body: Body::Bytes(0),
            }),
            bytes: UnsafeCell::new(Bytes([0; INLINE])),
        }
    }
}

/// Every slot's extension, [`EXTENSION`] blocks each, back to back.
/// Never read before the producer has written it, so never initialised.
struct Arena(Box<[UnsafeCell<MaybeUninit<Bytes>>]>);

// SAFETY: as for `Slot`: slot `i`'s stretch is written by the producer
// only while `seq` of slot `i` says it is free and read by the consumer
// only while it says published.
unsafe impl Sync for Arena {}

impl Arena {
    fn new() -> Self {
        let blocks = (0..SLOTS * EXTENSION).map(|_| UnsafeCell::new(MaybeUninit::uninit()));
        Arena(blocks.collect())
    }

    /// The first byte of the extension of the slot serving `pos`. The
    /// pointer is derived from the arena's blocks from there on, so it
    /// covers all [`EXTENSION`] blocks of the stretch.
    fn extension(&self, pos: u64) -> *mut u8 {
        let at = pos as usize % SLOTS * EXTENSION;
        UnsafeCell::raw_get(self.0[at..].as_ptr()).cast()
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

/// What a post had to store its bytes in, beyond a ring slot's inline
/// area, for the endpoint's store counters.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Store {
    /// A slot's inline area, or nothing (a window).
    Inline,
    /// Storage that already existed.
    Reused,
    /// Storage made or grown for it.
    Allocated,
}

/// A spilled message: its bytes' place in the log, or a window.
enum Spilled {
    Bytes(Range<usize>),
    Window(BorrowedBytes),
}

/// What the ring could not take, in posting order.
#[derive(Default)]
pub(crate) struct Overflow {
    queue: VecDeque<(Tag, Spilled)>,
    /// The spilled messages' bytes, back to back. Cleared by the next
    /// spill once `queue` has emptied: by then the consumer has read
    /// them all.
    log: Vec<u8>,
}

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
    /// The slots' extensions, made by the first post longer than
    /// [`INLINE`].
    arena: OnceLock<Arena>,
    overflow: Mutex<Overflow>,
    /// Mirror of the overflow queue's length, stored under its lock.
    /// Only the producer makes it non-zero, so a producer that reads 0
    /// knows the overflow is empty; the consumer reads it as a hint and
    /// re-checks under the lock.
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
    Bytes(Held<'a>),
    Window(BorrowedBytes),
}

/// Eager bytes read where they lie: in a slot's inline area or its
/// extension, 64-byte aligned, or in the overflow's log.
pub(crate) struct Held<'a> {
    data: *const u8,
    len: usize,
    /// For bytes in a slot: its `seq`, and the value that hands it back
    /// to the producer (free for its next lap) when this drops.
    slot: Option<(&'a AtomicU64, u64)>,
    /// For bytes in the log: the overflow's lock.
    _log: Option<MutexGuard<'a, Overflow>>,
}

impl Held<'_> {
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: the producer does not touch these `len` bytes at
        // `data` until this drops: a slot is published and not yet
        // handed back, and the log cannot change while its lock is
        // held. Their writes are visible: the consumer's `Acquire` load
        // of `seq`, or the lock, ordered them before this read.
        unsafe { std::slice::from_raw_parts(self.data, self.len) }
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        if let Some((seq, free)) = self.slot {
            seq.store(free, Ordering::Release);
        }
    }
}

impl Mailbox {
    fn lock(&self) -> MutexGuard<'_, Overflow> {
        // Every producer critical section is one append and a store; a
        // consumer that panicked mid-read left nothing half-written.
        self.overflow.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Producer: whether the consumer's endpoint is gone.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Producer: posts `tag` and `data` (shorter than the rendezvous
    /// threshold) to the ring, inline or in the slot's extension, or to
    /// the overflow when the ring is full or the overflow is non-empty.
    /// Never blocks. Says what storage it took.
    pub(crate) fn post_bytes(&self, tag: Tag, data: &[u8]) -> Store {
        assert!(data.len() <= EXTENSION * INLINE, "an eager message");
        let Some((slot, pos)) = self.free_slot() else {
            return self.spill(tag, data, None);
        };
        let mut store = Store::Inline;
        let dst = if data.len() <= INLINE {
            slot.bytes.get().cast::<u8>()
        } else {
            store = Store::Reused;
            let arena = self.arena.get_or_init(|| {
                store = Store::Allocated;
                Arena::new()
            });
            arena.extension(pos)
        };
        // SAFETY: the slot, and with it its extension, is free for this
        // lap (`free_slot` saw `seq` hand it back) and this is its only
        // producer, so nothing else touches `dst` until `publish`
        // releases it; `dst` has room for `data`: an inline area for up
        // to `INLINE` bytes, else an extension of `EXTENSION` blocks,
        // which the assert above bounds `data` by.
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), dst, data.len()) };
        self.publish(slot, pos, tag, Body::Bytes(data.len()));
        store
    }

    /// Producer: posts a window to the ring, or to the overflow when the
    /// ring is full or the overflow is non-empty. Never blocks.
    pub(crate) fn post_window(&self, tag: Tag, window: BorrowedBytes) {
        match self.free_slot() {
            Some((slot, pos)) => self.publish(slot, pos, tag, Body::Window(window)),
            None => _ = self.spill(tag, &[], Some(window)),
        }
    }

    /// Producer, as its endpoint goes: posts the empty farewell `tag`.
    /// A pair that never talked gets it through the overflow, so its
    /// ring is never made; with nothing posted before it, FIFO holds.
    pub(crate) fn post_farewell(&self, tag: Tag) {
        match self.ring.get().and_then(|_| self.free_slot()) {
            Some((slot, pos)) => self.publish(slot, pos, tag, Body::Bytes(0)),
            None => _ = self.spill(tag, &[], None),
        }
    }

    /// Producer: appends a window or, without one, `data` to the
    /// overflow.
    fn spill(&self, tag: Tag, data: &[u8], window: Option<BorrowedBytes>) -> Store {
        let mut overflow = self.lock();
        let Overflow { queue, log } = &mut *overflow;
        if queue.is_empty() {
            log.clear();
        }
        let grows = queue.len() == queue.capacity() || log.capacity() - log.len() < data.len();
        let spilled = match window {
            Some(window) => Spilled::Window(window),
            None => {
                let at = log.len();
                log.extend_from_slice(data);
                Spilled::Bytes(at..log.len())
            }
        };
        queue.push_back((tag, spilled));
        self.spilled.store(queue.len(), Ordering::Relaxed);
        if grows {
            Store::Allocated
        } else {
            Store::Reused
        }
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

    /// Producer: writes the header into `slot`, which
    /// [`free_slot`](Self::free_slot) returned for `pos`, and publishes
    /// it with the bytes already written.
    fn publish(&self, slot: &Slot, pos: u64, tag: Tag, body: Body) {
        // SAFETY: the slot is free for this lap (`free_slot` saw `seq`
        // hand it back) and this is its only producer, so nothing else
        // reads or writes it until the `Release` store below publishes
        // it.
        unsafe { *slot.head.get() = Head { tag, body } };
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
        let (tag, spilled) = overflow.queue.pop_front()?;
        self.spilled.store(overflow.queue.len(), Ordering::Relaxed);
        let body = match spilled {
            Spilled::Bytes(at) => Arrived::Bytes(Held {
                data: overflow.log[at.clone()].as_ptr(),
                len: at.len(),
                slot: None,
                _log: Some(overflow),
            }),
            Spilled::Window(window) => Arrived::Window(window),
        };
        Some(Arrival { tag, body })
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
                    body: Body::Bytes(0),
                },
            )
        };
        let body = match body {
            Body::Bytes(len) => {
                let data = if len <= INLINE {
                    slot.bytes.get().cast::<u8>()
                } else {
                    let arena = self.arena.get().expect("a long post made the arena");
                    arena.extension(pos)
                };
                Arrived::Bytes(Held {
                    data,
                    len,
                    slot: Some((&slot.seq, free)),
                    _log: None,
                })
            }
            Body::Window(window) => {
                slot.seq.store(free, Ordering::Release);
                Arrived::Window(window)
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
/// waker per rank.
pub(crate) struct Fabric {
    /// `mailboxes[to * p + from]`.
    mailboxes: Vec<Mailbox>,
    wakers: Vec<Waker>,
}

impl Fabric {
    pub(crate) fn new(p: usize) -> Self {
        Fabric {
            mailboxes: (0..p * p).map(|_| Mailbox::default()).collect(),
            wakers: (0..p).map(|_| Waker::default()).collect(),
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
    /// again either way. Says whether it slept until `deadline`.
    pub(crate) fn park(&self, ready: impl Fn() -> bool, deadline: Instant) -> bool {
        let guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let slept_out = !ready()
            && deadline
                .checked_duration_since(Instant::now())
                .is_none_or(|left| {
                    let woke = self.wake.wait_timeout(guard, left);
                    woke.unwrap_or_else(|p| p.into_inner()).1.timed_out()
                });
        self.parked.store(false, Ordering::Relaxed);
        slept_out
    }
}
