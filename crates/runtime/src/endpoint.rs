//! The per-rank endpoint: a mailbox to and from every peer (one
//! single-producer/single-consumer ring per ordered pair, see
//! `mailbox.rs`) and a stash for out-of-order arrivals.
//!
//! Payload life-cycle (the zero-allocation hot path): an eager message
//! is copied into a slot of the receiver's ring — inline up to 1 KiB,
//! else into the slot's extension in the pair's arena — and copied (or
//! folded) out of it where it lies; the slot, extension included, goes
//! back to the sender by the slot's lap counter. A message that arrives
//! before its receive is copied into a buffer of the receiver's own
//! stash, which recycles it; a self-send goes straight there. No buffer
//! ever changes hands between ranks. After one warm-up round of a
//! repeated collective every hop is served from storage that already
//! exists, and the steady state allocates nothing — asserted by the
//! `alloc_free` integration test.
//!
//! That is the *eager* path, taken below
//! [`DEFAULT_RENDEZVOUS_THRESHOLD`] and for self-sends: two passes over
//! the bytes (copy in, copy out), the sender never waits. At or above
//! the threshold `send` and `sendrecv` skip buffering entirely: the
//! slot carries a borrowed window onto the sender's buffer, and the
//! sender blocks (polling before it parks, like a receive) until the
//! receiver is finished with it. Who touches a long message, and how
//! many times:
//!
//! * a **combining** receive ([`Comm::recv_with`] /
//!   [`Comm::sendrecv_with`], the ring and MST combines) hands its fold
//!   the window where it lies: one pass, `acc ⊕= window`, by the
//!   receiver; the receive buffer is not written at all. The model's
//!   `nβ + nγ` hop is the two operand streams of that one pass.
//! * a **plain** receive copies the window into its buffer: one pass,
//!   and from two `COPY_CHUNK`s up the blocked sender — which would
//!   otherwise spend the copy polling — takes pieces of it too, so a
//!   one-way hop (an MST broadcast, scatter or gather level) runs on
//!   both of its cores. In an exchange each rank first copies what it
//!   receives and then helps with what is left of what it sent.
//!
//! A large `send` therefore completes only once the receiver has
//! posted the matching receive, which the [`Comm`] contract allows and
//! the schedule verifier proves deadlock-free. The protocol, its states
//! and what its `unsafe` blocks rely on are at `Completion`.

use crate::chan::{poll, Waited};
use crate::mailbox::{Arrival, Arrived, Fabric, Mailbox, Store};
use intercom::comm::Sink;
use intercom::faults::POISON_TAG;
use intercom::{AbortCause, AbortInfo, Comm, CommError, Result, Tag};
use intercom_obs::{EventKind, Recorder, TraceEvent};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicPtr, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Size at or above which `send` and `sendrecv` payloads skip the
/// eager copy entirely: the receiver consumes them straight out of the
/// sender's buffer (rendezvous), halving the per-hop memcpy volume for
/// the bandwidth-bound regime. Below it, the eager copy through the
/// receiver's ring wins — the sender never waits on its peer.
pub const DEFAULT_RENDEZVOUS_THRESHOLD: usize = 32 * 1024;

/// Size of the pieces a shared copy is cut into; a plain receive shares
/// the copy of a window of at least two of them with its blocked sender
/// (below that there is nothing to share). Both sides take pieces off
/// one counter, so a piece is also the longest either waits for the
/// other at the end of a copy, and every piece costs its taker one
/// contended increment. Measured on the reference 2-vCPU guest, 2-rank
/// one-way hops, p10 of 280 rounds over three runs, in us (parent: the
/// receiver copying alone):
///
/// | piece   | 128 KiB hop | 256 KiB hop | 1 MiB hop | 4 MiB hop |
/// |---------|-------------|-------------|-----------|-----------|
/// | parent  | 9.8-13.0    | 13.4-15.6   | 56-86     | 287-344   |
/// | 32 KiB  | 6.2-6.5     | 7.9-8.3     | 29.5-30.2 | 136-140   |
/// | 64 KiB  | 5.9-6.4     | 7.5-7.8     | 27.9-28.3 | 128-132   |
/// | 128 KiB | 9.6-9.9 (*) | 9.6-9.8     | 26.5-27.0 | 124-127   |
/// | 256 KiB | (*)         | 12.6-13.0 (*) | 26.2-26.5 | 123-129 |
/// | 1 MiB   | (*)         | (*)         | 67-77 (*) | 146-151   |
///
/// (*) under two pieces: not shared. From 64 KiB down the longest hops
/// start to pay for the increments, from 128 KiB up the mid-sized ones
/// lose the second core.
const COPY_CHUNK: usize = 64 * 1024;

/// Completion flag of a borrowed (zero-copy) payload, and the meeting
/// point of the two ranks that may copy it.
///
/// The window protocol, every state change under `state`'s mutex:
///
/// * `Pending` -> `Copied`: the receiver consumed the window under the
///   lock (a fused sink, or a copy too short to share).
/// * `Pending` -> `Claimed` -> `Copied`: a plain receive published its
///   destination (`dst`) and both ranks copy pieces, off the lock, until
///   `copied` reaches the piece count; whoever copies the last piece
///   marks `Copied` and notifies.
/// * `Pending` -> `Abandoned`: the sender's deadline passed (it
///   *withdraws* the window) or the receiver dropped it unconsumed.
///
/// Invariants the `unsafe` below leans on: a window or a destination is
/// dereferenced only under the lock while `Pending`, or between the
/// claim and `Copied` by the two frames that hold them (`consume` and
/// `wait`), neither of which returns before `Copied`; a timeout
/// withdraws from `Pending` only, so after a claim the sender's wait is
/// bounded by the copy itself; and nothing between claim and `Copied`
/// can fail or panic on either side (memcpy and atomics), so `Abandoned`
/// is reachable from `Pending` only.
struct Completion {
    state: Mutex<CopyState>,
    done: Condvar,
    /// Mirror of `state`: stored under the mutex by whoever changes the
    /// state, read without it by a polling rank. It is a hint that
    /// carries no data (every reader re-reads `state`
    /// under the lock before acting), so `Relaxed` is enough.
    hint: AtomicU8,
    /// Where a claimed copy lands. Stored by the receiver under the
    /// mutex before the state turns `Claimed`, loaded by the sender
    /// under it after seeing `Claimed`: the mutex orders the two.
    dst: AtomicPtr<u8>,
    /// Next piece of a claimed copy to hand out. `Relaxed`: it
    /// publishes nothing, the read-modify-write alone makes every index
    /// go to exactly one taker.
    next: AtomicUsize,
    /// Pieces of a claimed copy finished. `AcqRel`: the increment that
    /// reaches the piece count acquires every earlier one, so whoever
    /// marks `Copied` (and, through the mutex, whoever then reads it)
    /// sees every piece's bytes.
    copied: AtomicUsize,
}

#[derive(Clone, Copy, PartialEq)]
#[repr(u8)]
enum CopyState {
    Pending,
    /// A plain receive took the window; sender and receiver are copying.
    Claimed,
    Copied,
    /// Withdrawn by its sender's timeout, or dropped unconsumed
    /// (receiver died or errored before copying).
    Abandoned,
}

impl Completion {
    fn new() -> Self {
        Completion {
            state: Mutex::new(CopyState::Pending),
            done: Condvar::new(),
            hint: AtomicU8::new(CopyState::Pending as u8),
            dst: AtomicPtr::new(std::ptr::null_mut()),
            next: AtomicUsize::new(0),
            copied: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CopyState> {
        // A state is one enum store; a panic elsewhere cannot leave it
        // half-written.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Changes the state under its lock (`st`) and mirrors it in the
    /// hint.
    fn set(&self, st: &mut CopyState, to: CopyState) {
        *st = to;
        self.hint.store(to as u8, Ordering::Relaxed);
    }

    fn hinted(&self, state: CopyState) -> bool {
        self.hint.load(Ordering::Relaxed) == state as u8
    }

    /// Marks the window consumed and releases whoever waits for that.
    fn finish(&self, mut st: MutexGuard<'_, CopyState>) {
        self.set(&mut st, CopyState::Copied);
        drop(st);
        self.done.notify_all();
    }

    /// The receiver's half of a shared copy, entered holding the lock
    /// with the state `Pending`: publishes `dst`, turns the state
    /// `Claimed` and lets go of the lock. No wake-up is sent: a sender
    /// that polls sees the hint and helps, one that already parked
    /// sleeps on until `Copied` and the receiver takes every piece.
    fn claim(&self, mut st: MutexGuard<'_, CopyState>, dst: *mut u8) {
        debug_assert!(*st == CopyState::Pending);
        self.dst.store(dst, Ordering::Relaxed);
        self.next.store(0, Ordering::Relaxed);
        self.copied.store(0, Ordering::Relaxed);
        self.set(&mut st, CopyState::Claimed);
    }

    /// Copies pieces of a claimed window until none is left to take,
    /// then waits for `Copied`: through [`poll`] (a yield between looks,
    /// so a peer sharing this core gets it) and then the condvar.
    /// Returns the number of pieces this caller copied.
    ///
    /// # Safety
    ///
    /// The state is `Claimed`, `src` is the claimed window's base, `dst`
    /// the destination published with the claim, both `len` bytes long
    /// and not overlapping, and the caller is the window's sender (in
    /// `wait`) or the claiming receiver (in `consume`): the two frames
    /// that keep the bytes borrowed until this returns.
    unsafe fn share_copy(&self, src: *const u8, dst: *mut u8, len: usize) -> usize {
        let pieces = len.div_ceil(COPY_CHUNK);
        let mut mine = 0;
        let mut last = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= pieces {
                break;
            }
            let at = i * COPY_CHUNK;
            // SAFETY: `at < len` (as `i < pieces`) and the piece ends at
            // or before `len`, so both ranges lie inside the regions the
            // caller vouches for; index `i` was handed to this caller
            // alone, so no other write touches the destination range.
            unsafe {
                std::ptr::copy_nonoverlapping(src.add(at), dst.add(at), COPY_CHUNK.min(len - at));
            }
            mine += 1;
            last = self.copied.fetch_add(1, Ordering::AcqRel) + 1 == pieces;
        }
        if last {
            self.finish(self.lock());
            return mine;
        }
        poll(|| !self.hinted(CopyState::Claimed), None);
        let mut st = self.lock();
        while *st == CopyState::Claimed {
            st = self.done.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        mine
    }

    /// Blocks until the receiver is finished with the borrowed `data`,
    /// helping it copy if it claimed them, or `timeout` elapses: polls
    /// the hint through the receive's own wait policy, then parks on the
    /// condvar. Like `take_matching` it looks before it reads the
    /// clock: an exchange's receive half has usually let the peer copy
    /// already, and a wait that is over needs no deadline. On timeout
    /// the window is *withdrawn* (marked `Abandoned` under the same lock
    /// the receiver consumes or claims under), so a late receiver can
    /// never dereference the borrow after this frame returns;
    /// `peer`/`tag` label the resulting [`CommError::Timeout`]. Returns
    /// how the wait went and the pieces this sender copied.
    fn wait(
        &self,
        data: &[u8],
        timeout: Duration,
        peer: usize,
        tag: Tag,
    ) -> Result<(Waited, usize)> {
        let moved = || !self.hinted(CopyState::Pending);
        let mut deadline = None;
        if !moved() {
            poll(moved, Some(*deadline.insert(Instant::now() + timeout)));
        }
        let mut waited = Waited::Polled;
        let mut st = self.lock();
        while *st == CopyState::Pending {
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                self.set(&mut st, CopyState::Abandoned);
                return Err(CommError::Timeout {
                    from: peer,
                    tag,
                    waited_ms: timeout.as_millis() as u64,
                });
            };
            waited = Waited::Parked;
            let (guard, _) = self
                .done
                .wait_timeout(st, remaining)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
        match *st {
            CopyState::Claimed => {
                let dst = self.dst.load(Ordering::Relaxed);
                drop(st);
                // SAFETY: the receiver claimed this completion's window,
                // which is `data` (the caller posted it), after checking
                // that its buffer at `dst` is `data.len()` bytes long;
                // it is another rank's `&mut` buffer, so it cannot
                // overlap our `&` one; and this is the sender's frame.
                let helped = unsafe { self.share_copy(data.as_ptr(), dst, data.len()) };
                Ok((waited, helped))
            }
            CopyState::Copied => Ok((waited, 0)),
            _ => Err(CommError::Disconnected),
        }
    }
}

/// A window onto the sending rank's own buffer, valid until `done`
/// turns `Copied` or `Abandoned` — the sender blocks inside
/// `rendezvous` until then, so the pointed-at bytes cannot move or be
/// dropped before.
pub(crate) struct BorrowedBytes {
    ptr: *const u8,
    len: usize,
    done: Arc<Completion>,
}

// SAFETY: the raw pointer crosses threads, but the bytes it names are
// immutably borrowed by the blocked sender for as long as the receiver
// can dereference it (the sender's `rendezvous` frame outlives every
// access, released only by the state reaching `Copied` or `Abandoned`);
// `len` and the `Arc<Completion>` (atomics, a mutex, a condvar) are
// `Send` themselves.
unsafe impl Send for BorrowedBytes {}

impl BorrowedBytes {
    fn as_slice(&self) -> &[u8] {
        // SAFETY: see the `Send` impl — the sender keeps the borrow
        // alive until `done` is settled, which happens only after the
        // last use of this slice: callers hold the completion lock with
        // the state `Pending` for as long as they use it.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for BorrowedBytes {
    fn drop(&mut self) {
        // Dropping without an explicit `Copied` mark (receiver errored,
        // panicked, or its mailbox was torn down) must still release the
        // blocked sender.
        let mut st = self.done.lock();
        if *st == CopyState::Pending {
            self.done.set(&mut st, CopyState::Abandoned);
            drop(st);
            self.done.done.notify_all();
        }
    }
}

/// A length check common to every way a message lands.
fn check_len(expected: usize, actual: usize) -> Result<()> {
    if expected == actual {
        Ok(())
    } else {
        Err(CommError::LengthMismatch { expected, actual })
    }
}

/// Lands eager `bytes`: hands them to `sink` where they lie, or without
/// one copies them into `buf`. A length mismatch runs no sink.
fn land(buf: &mut [u8], bytes: &[u8], sink: Option<&mut Sink<'_>>) -> Result<()> {
    check_len(buf.len(), bytes.len())?;
    match sink {
        Some(sink) => sink(buf, Some(bytes)),
        None => buf.copy_from_slice(bytes),
    }
    Ok(())
}

impl BorrowedBytes {
    /// Lands the window and releases its sender: hands it to `sink`
    /// where it lies, or without one copies it into `buf` — alone or,
    /// from two [`COPY_CHUNK`]s up, together with its blocked sender.
    /// Says whether the sink ran on the window in place. A length
    /// mismatch still retires the window (drop marks it `Abandoned`)
    /// and runs no sink.
    fn consume(self, buf: &mut [u8], sink: Option<&mut Sink<'_>>) -> Result<bool> {
        check_len(buf.len(), self.len)?;
        // Consume or claim *under the completion lock*: a sender whose
        // bounded wait expired withdraws the window (state flips to
        // `Abandoned` under this same lock), so the borrow is
        // dereferenced only while provably alive.
        let st = self.done.lock();
        if *st != CopyState::Pending {
            return Err(CommError::Disconnected);
        }
        match sink {
            Some(sink) => {
                sink(buf, Some(self.as_slice()));
                self.done.finish(st);
                Ok(true)
            }
            None if self.len < 2 * COPY_CHUNK => {
                buf.copy_from_slice(self.as_slice());
                self.done.finish(st);
                Ok(false)
            }
            None => {
                // From here to `Copied` `buf` is written through this
                // pointer only, by both ranks.
                let dst = buf.as_mut_ptr();
                self.done.claim(st, dst);
                // SAFETY: just claimed, with `dst` published; `self.ptr`
                // is the window (alive until `Copied`, which
                // `share_copy` returns after) and `buf` is as long
                // (checked above), exclusively ours and, being another
                // rank's buffer, disjoint from it; this is the claiming
                // receiver's frame.
                unsafe { self.done.share_copy(self.ptr, dst, self.len) };
                Ok(false)
            }
        }
    }
}

/// Reserved tag announcing a rank's departure (sent on endpoint drop —
/// normal completion or panic unwind). Receivers waiting on a departed
/// rank observe [`CommError::Disconnected`] instead of hanging; because
/// mailboxes are FIFO, all real traffic a rank sent before dying is
/// still delivered first.
const FAREWELL_TAG: Tag = Tag::MAX;

/// A message that waits in a stash: its bytes, copied into one of the
/// stash's buffers, or a window whose sender still waits.
enum Stashed {
    Bytes(Vec<u8>),
    Window(BorrowedBytes),
}

/// A message a receive matched: off the mailbox, or out of the stash.
enum Matched<'a> {
    Arrived(Arrived<'a>),
    Stashed(Stashed),
}

/// Out-of-order arrivals from one peer: a flat `(tag, queue)` list
/// scanned linearly. A collective keeps only a handful of tags in
/// flight per peer, so the scan beats hashing, and emptied queues and
/// byte buffers are parked on spare lists instead of dropped —
/// steady-state stashing recycles both.
#[derive(Default)]
struct PeerStash {
    entries: Vec<(Tag, VecDeque<Stashed>)>,
    spares: Vec<VecDeque<Stashed>>,
    /// Byte buffers no stashed message holds.
    buffers: Vec<Vec<u8>>,
}

impl PeerStash {
    fn push(&mut self, tag: Tag, data: Stashed) {
        if let Some((_, q)) = self.entries.iter_mut().find(|(t, _)| *t == tag) {
            q.push_back(data);
            return;
        }
        let mut q = self.spares.pop().unwrap_or_default();
        q.push_back(data);
        self.entries.push((tag, q));
    }

    /// Stashes a copy of `data` in a spare buffer: the first one long
    /// enough, else the last one, grown, else a new one.
    fn push_bytes(&mut self, tag: Tag, data: &[u8]) -> Store {
        let fits = self.buffers.iter().position(|b| b.capacity() >= data.len());
        let mut buf = match fits {
            Some(i) => self.buffers.swap_remove(i),
            None => self.buffers.pop().unwrap_or_default(),
        };
        let store = match buf.capacity() >= data.len() {
            true => Store::Reused,
            false => Store::Allocated,
        };
        buf.clear();
        buf.extend_from_slice(data);
        self.push(tag, Stashed::Bytes(buf));
        store
    }

    fn pop(&mut self, tag: Tag) -> Option<Stashed> {
        let i = self.entries.iter().position(|(t, _)| *t == tag)?;
        let data = self.entries[i].1.pop_front();
        if self.entries[i].1.is_empty() {
            let (_, q) = self.entries.swap_remove(i);
            self.spares.push(q);
        }
        data
    }
}

/// Counts of a rank's eager stores beyond a ring slot's inline area:
/// into a slot's extension or the overflow (as sender), into a stash
/// buffer (as receiver, or for a self-send).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Stores into storage that already existed.
    pub hits: u64,
    /// Stores that made or grew it: an arena, an overflow, a buffer.
    pub misses: u64,
}

/// A rank's communication endpoint in a threaded world.
///
/// Matching semantics: receives match the oldest buffered or incoming
/// message with the requested `(source, tag)`; messages for other
/// `(source, tag)` pairs are stashed in arrival order, preserving the
/// per-`(source, tag)` FIFO ordering the [`Comm`] contract requires.
///
/// Below the rendezvous threshold ([`DEFAULT_RENDEZVOUS_THRESHOLD`])
/// sends are eager (buffered, non-blocking): the data is copied into a
/// ring slot (or its extension) immediately, so a `sendrecv` is
/// send-then-receive without deadlock — the §2 machine's "send and
/// receive at the same time". At or above it, `send` and `sendrecv`
/// skip the copy-in: the receiver folds or copies directly out of this
/// rank's buffer, this rank copying along when the receive is a long
/// plain one, and the call completes when that is done (one pass over
/// the bytes per hop instead of two); a `sendrecv` posts its window
/// before it receives, so both halves still progress together.
pub struct ThreadComm {
    rank: usize,
    /// The world's mailboxes and wakers.
    fabric: Arc<Fabric>,
    /// The poison alerts already acted on (see [`Self::drain`]).
    alerts_seen: Cell<u64>,
    stash: RefCell<Vec<PeerStash>>,
    /// What [`Self::pool_stats`] reports.
    stores: Cell<StoreStats>,
    departed: RefCell<Vec<bool>>,
    /// The completion flags this rank's windows take turns with, made
    /// with the endpoint so that zero-copy hops allocate nothing: one
    /// per receiver that can still be letting go of an earlier window
    /// is enough, and there are rarely two.
    completions: [Arc<Completion>; 8],
    /// Optional observability handle (`None` on the untraced hot path;
    /// a disabled [`Recorder`] reduces every hook to a branch — the CI
    /// gate holds the difference under 3%).
    recorder: Option<Recorder>,
    /// `(plan_id, step)` of the compiled-plan step currently executing
    /// on this rank, set by the program walk via [`Comm::plan_step`];
    /// `(0, 0)` outside plan execution. Stamped onto every recorded
    /// [`TraceEvent`] so timelines attribute work to schedule steps.
    plan_step: Cell<(u64, u64)>,
    /// Bound on every blocking wait (receive matching and rendezvous
    /// completion). A regression that would deadlock instead surfaces
    /// as [`CommError::Timeout`] naming the silent peer.
    wait_timeout: Duration,
    /// Set once a coordinated-abort poison record is observed; every
    /// later receive fails fast with the same diagnosis.
    aborted: RefCell<Option<AbortInfo>>,
}

impl ThreadComm {
    pub(crate) fn new(rank: usize, fabric: Arc<Fabric>, wait_timeout: Duration) -> Self {
        let p = fabric.size();
        ThreadComm {
            rank,
            fabric,
            alerts_seen: Cell::new(0),
            stash: RefCell::new((0..p).map(|_| PeerStash::default()).collect()),
            stores: Cell::new(StoreStats::default()),
            departed: RefCell::new(vec![false; p]),
            completions: std::array::from_fn(|_| Arc::new(Completion::new())),
            recorder: None,
            plan_step: Cell::new((0, 0)),
            wait_timeout,
            aborted: RefCell::new(None),
        }
    }

    /// Attaches a per-rank observability recorder; every subsequent
    /// `send`/`recv`/`sendrecv`/`compute` is timestamped into it.
    pub(crate) fn attach_recorder(&mut self, recorder: Recorder) {
        debug_assert_eq!(recorder.rank(), self.rank);
        self.recorder = Some(recorder);
    }

    /// Detaches the recorder (if any) for draining after the rank's
    /// closure returns.
    pub(crate) fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// The active recorder, or `None` when absent *or* disabled — the
    /// single test every hook pays on the untraced hot path.
    #[inline]
    fn obs(&self) -> Option<&Recorder> {
        match &self.recorder {
            Some(r) if r.enabled() => Some(r),
            _ => None,
        }
    }

    /// A `Pending` completion flag for this rank's next window: one of
    /// its own that no receiver still holds. Observing a strong count
    /// of 1 proves the peer's [`BorrowedBytes`] clone is gone, so
    /// nothing can race the reset: only this rank holds the flag. The
    /// scan matters: the flag of the last window is often still briefly
    /// held by its receiver (it marks before it drops, and the wake-up
    /// it sends may cost it its core in between), while older ones are
    /// long free. Only with every flag so held does a window get one of
    /// its own, freed with it.
    fn take_completion(&self) -> Arc<Completion> {
        match self.completions.iter().find(|c| Arc::strong_count(c) == 1) {
            Some(c) => {
                c.set(&mut c.lock(), CopyState::Pending);
                c.clone()
            }
            None => Arc::new(Completion::new()),
        }
    }

    fn check_peer(&self, peer: usize) -> Result<()> {
        if peer < self.fabric.size() {
            Ok(())
        } else {
            Err(CommError::InvalidRank {
                rank: peer,
                size: self.fabric.size(),
            })
        }
    }

    /// The mailbox this rank takes `from`'s messages from.
    fn inbox(&self, from: usize) -> &Mailbox {
        self.fabric.mailbox(self.rank, from)
    }

    /// Posts `data` to `to` under `tag` (see [`Mailbox::post_bytes`]),
    /// then wakes `to` if it sleeps, and raises its alert for a poison
    /// record. A self-send goes straight to this rank's own stash, which
    /// a receive looks at first, and a poison record to oneself latches
    /// the abort as taking it would. Never blocks; fails only once `to`
    /// is gone.
    fn post_eager(&self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        if to == self.rank {
            match tag {
                POISON_TAG => _ = self.absorb_poison(to, Some(data)),
                _ => self.count(self.stash.borrow_mut()[to].push_bytes(tag, data)),
            }
            return Ok(());
        }
        let mailbox = self.fabric.mailbox(to, self.rank);
        if mailbox.is_closed() {
            return Err(CommError::Disconnected);
        }
        self.count(mailbox.post_bytes(tag, data));
        let waker = self.fabric.waker(to);
        if tag == POISON_TAG {
            waker.raise_alert();
        } else {
            waker.nudge();
        }
        Ok(())
    }

    /// Pulls the next message matching `(from, tag)`, consulting the
    /// stash first and stashing any interleaved traffic from `from`.
    /// Observing the peer's farewell (its endpoint dropped with no
    /// matching message queued) yields [`CommError::Disconnected`]
    /// instead of blocking forever; a poison record ([`POISON_TAG`]),
    /// from `from` or — through its alert, looked at before the mailbox
    /// — from any rank, latches the coordinated abort and fails this and
    /// every later receive; and the whole wait is bounded by the
    /// endpoint's deadline, so a schedule regression that would hang
    /// instead reports [`CommError::Timeout`] naming the silent peer.
    fn take_matching(&self, from: usize, tag: Tag) -> Result<Matched<'_>> {
        if let Some(info) = *self.aborted.borrow() {
            return Err(CommError::Aborted(info));
        }
        // The deadline costs a clock read; a message that is already
        // queued never needs it.
        let mut deadline = None;
        loop {
            if let Some(data) = self.stash.borrow_mut()[from].pop(tag) {
                return Ok(Matched::Stashed(data));
            }
            if self.departed.borrow()[from] {
                return Err(CommError::Disconnected);
            }
            // A raised alert goes before anything in the mailbox, as
            // the poison record went before what was posted after it.
            if self.fabric.waker(self.rank).alerts() != self.alerts_seen.get() {
                self.drain()?;
                continue;
            }
            loop {
                match self.inbox(from).pop() {
                    Some(arrival) if arrival.tag == tag => {
                        return Ok(Matched::Arrived(arrival.body))
                    }
                    Some(arrival) => {
                        self.sort(from, arrival)?;
                        if self.departed.borrow()[from] {
                            return Err(CommError::Disconnected);
                        }
                    }
                    None => break,
                }
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + self.wait_timeout);
            if !self.wait(from, deadline) {
                return Err(CommError::Timeout {
                    from,
                    tag,
                    waited_ms: self.wait_timeout.as_millis() as u64,
                });
            }
        }
    }

    /// Waits until `from`'s mailbox has a message or a poison alert is
    /// raised: polls both through [`poll`], then parks on this rank's
    /// waker. `false` once `deadline` passes first, or a park sleeps
    /// until it.
    fn wait(&self, from: usize, deadline: Instant) -> bool {
        let mailbox = self.inbox(from);
        let waker = self.fabric.waker(self.rank);
        let seen = self.alerts_seen.get();
        let ready = || mailbox.ready() || waker.alerts() != seen;
        poll(ready, Some(deadline));
        let mut waited = Waited::Polled;
        while !ready() {
            // A park that sleeps out the deadline times the wait out,
            // whatever is there when it ends: a post would have woken
            // it, so a wake-up that was lost is a timeout, not a delay.
            if Instant::now() >= deadline || waker.park(ready, deadline) {
                return false;
            }
            waited = Waited::Parked;
        }
        self.count_wait(waited);
        true
    }

    /// Takes in everything queued from every peer, after a poison
    /// alert: farewells mark their peer departed, data goes to the
    /// stash, and the poison record aborts.
    fn drain(&self) -> Result<()> {
        self.alerts_seen.set(self.fabric.waker(self.rank).alerts());
        for q in 0..self.fabric.size() {
            while let Some(arrival) = self.inbox(q).pop() {
                self.sort(q, arrival)?;
            }
        }
        Ok(())
    }

    /// Files a message from `src` that no receive asked for yet: a
    /// farewell marks `src` departed, a poison record latches the abort
    /// (the error), anything else is stashed: eager bytes copied into a
    /// buffer of the stash, so that their slot goes back to the sender,
    /// and a window as it is, its sender still waiting.
    fn sort(&self, src: usize, arrival: Arrival<'_>) -> Result<()> {
        match arrival.tag {
            FAREWELL_TAG => self.departed.borrow_mut()[src] = true,
            POISON_TAG => {
                let bytes = match &arrival.body {
                    Arrived::Bytes(held) => Some(held.bytes()),
                    Arrived::Window(_) => None,
                };
                return Err(CommError::Aborted(self.absorb_poison(src, bytes)));
            }
            tag => {
                let mut stash = self.stash.borrow_mut();
                match arrival.body {
                    Arrived::Bytes(held) => self.count(stash[src].push_bytes(tag, held.bytes())),
                    Arrived::Window(window) => stash[src].push(tag, Stashed::Window(window)),
                }
            }
        }
        Ok(())
    }

    fn count(&self, store: Store) {
        let mut stores = self.stores.get();
        stores.hits += u64::from(store == Store::Reused);
        stores.misses += u64::from(store == Store::Allocated);
        self.stores.set(stores);
    }

    /// Says where a wait went: resolved while polling, or only after
    /// parking on the waker's condvar.
    fn count_wait(&self, waited: Waited) {
        if let Some(r) = self.obs() {
            r.with_counters(|c| match waited {
                Waited::Polled => c.polled_waits += 1,
                Waited::Parked => c.parked_waits += 1,
            });
        }
    }

    /// Latches a poison record from `src`: decodes the abort diagnosis
    /// from its `bytes` (falling back to an [`AbortCause::External`]
    /// record naming the sender when malformed), and arms the fail-fast
    /// path for every later receive. A poison record is a few dozen
    /// bytes: it never travels as a window, and one that did has no
    /// `bytes` here (it is not dereferenced off its completion lock) and
    /// reads as malformed; dropping it releases its sender.
    fn absorb_poison(&self, src: usize, bytes: Option<&[u8]>) -> AbortInfo {
        let info = bytes.and_then(AbortInfo::decode).unwrap_or(AbortInfo {
            origin: src,
            culprit: src,
            plan: 0,
            step: 0,
            cause: AbortCause::External,
        });
        *self.aborted.borrow_mut() = Some(info);
        info
    }

    /// Counters of the storage this rank's eager messages took beyond a
    /// ring slot's inline area.
    pub fn pool_stats(&self) -> StoreStats {
        self.stores.get()
    }
}

impl Drop for ThreadComm {
    fn drop(&mut self) {
        // Announce departure so peers blocked on this rank fail fast
        // (normal completion after all traffic, or a panic unwind).
        for peer in (0..self.fabric.size()).filter(|&peer| peer != self.rank) {
            let mailbox = self.fabric.mailbox(peer, self.rank);
            if !mailbox.is_closed() {
                mailbox.post_farewell(FAREWELL_TAG);
                self.fabric.waker(peer).nudge();
            }
        }
        // Nothing more is taken: release whoever's window is queued.
        for from in 0..self.fabric.size() {
            self.inbox(from).close();
        }
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.fabric.size()
    }

    fn send(&self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        if data.len() >= DEFAULT_RENDEZVOUS_THRESHOLD && to != self.rank {
            return self.rendezvous(to, tag, data, EventKind::Send, || Ok(()));
        }
        debug_assert_ne!(tag, FAREWELL_TAG, "Tag::MAX is reserved");
        self.check_peer(to)?;
        let obs = self.obs();
        let start = obs.map_or(0.0, Recorder::now);
        self.post_eager(to, tag, data)?;
        if let Some(r) = obs {
            let end = r.now();
            let (plan, step) = self.plan_step.get();
            r.record(TraceEvent {
                kind: EventKind::Send,
                rank: self.rank,
                src: self.rank,
                dst: to,
                tag,
                bytes: data.len(),
                start,
                end,
                hops: 0,
                plan,
                step,
            });
            r.with_counters(|c| {
                c.msgs_sent += 1;
                c.bytes_out += data.len() as u64;
                c.eager_msgs += 1;
                c.transfer_secs += end - start;
            });
        }
        Ok(())
    }

    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> Result<()> {
        self.receive(from, tag, buf, None)
    }

    fn recv_with(&self, from: usize, tag: Tag, buf: &mut [u8], sink: &mut Sink<'_>) -> Result<()> {
        self.receive(from, tag, buf, Some(sink))
    }

    fn sendrecv(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
    ) -> Result<()> {
        self.exchange(to, data, tag, || self.receive(from, tag, buf, None))
    }

    fn sendrecv_with(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
        sink: &mut Sink<'_>,
    ) -> Result<()> {
        self.exchange(to, data, tag, || self.receive(from, tag, buf, Some(sink)))
    }

    fn compute(&self, bytes: usize) {
        // Real arithmetic happens in caller code (γ accounting); the
        // recorder logs the step so reduce work shows on the timeline.
        if let Some(r) = self.obs() {
            let now = r.now();
            let (plan, step) = self.plan_step.get();
            r.record(TraceEvent {
                kind: EventKind::Reduce,
                rank: self.rank,
                src: self.rank,
                dst: self.rank,
                tag: 0,
                bytes,
                start: now,
                end: now,
                hops: 0,
                plan,
                step,
            });
            r.with_counters(|c| {
                c.reduce_steps += 1;
                c.reduce_bytes += bytes as u64;
            });
        }
    }

    fn plan_step(&self, plan: u64, step: u64) {
        self.plan_step.set((plan, step));
    }
}

impl ThreadComm {
    /// The receive behind `recv` (no `sink`: the bytes land in `buf`)
    /// and `recv_with`. One `Recv` event either way; what `sink` does
    /// (a fold, and the `Reduce` event its `compute` hook records) falls
    /// inside the event and inside `transfer_secs`.
    fn receive(
        &self,
        from: usize,
        tag: Tag,
        buf: &mut [u8],
        sink: Option<&mut Sink<'_>>,
    ) -> Result<()> {
        self.check_peer(from)?;
        let obs = self.obs();
        let start = obs.map_or(0.0, Recorder::now);
        let data = self.take_matching(from, tag)?;
        // Matching payload in hand: blocking (wait) ends, the copy-out
        // (transfer) begins.
        let matched = obs.map_or(0.0, Recorder::now);
        let in_place = match data {
            // A slot's bytes are 64-byte aligned: a sink folds out of
            // them.
            Matched::Arrived(Arrived::Bytes(held)) => {
                land(buf, held.bytes(), sink).map(|()| false)?
            }
            Matched::Stashed(Stashed::Bytes(bytes)) => {
                let landed = land(buf, &bytes, sink);
                self.stash.borrow_mut()[from].buffers.push(bytes);
                landed.map(|()| false)?
            }
            Matched::Arrived(Arrived::Window(window))
            | Matched::Stashed(Stashed::Window(window)) => window.consume(buf, sink)?,
        };
        if let Some(r) = obs {
            let end = r.now();
            let (plan, step) = self.plan_step.get();
            r.record(TraceEvent {
                kind: EventKind::Recv,
                rank: self.rank,
                src: from,
                dst: self.rank,
                tag,
                bytes: buf.len(),
                start,
                end,
                hops: 0,
                plan,
                step,
            });
            r.with_counters(|c| {
                c.msgs_recvd += 1;
                c.bytes_in += buf.len() as u64;
                c.windows_in_place += u64::from(in_place);
                c.wait_secs += matched - start;
                c.transfer_secs += end - matched;
            });
        }
        Ok(())
    }

    /// The zero-copy send: ships a borrowed window onto `data` instead
    /// of an eager copy, runs `meanwhile` (an exchange's receive half),
    /// then blocks until the peer is finished with the window, copying
    /// its share if the peer claimed it (`Completion::wait`) —
    /// `data` must not be touched after return, so the wait happens
    /// even if `meanwhile` failed, and on expiry it *withdraws* the
    /// window, which keeps the borrow sound even then. Never taken when
    /// `to` is this rank: the window would land in our own mailbox and
    /// could only be consumed by a *later* local recv, after the wait.
    /// Recorded as one `kind` event from the offer to the release.
    fn rendezvous(
        &self,
        to: usize,
        tag: Tag,
        data: &[u8],
        kind: EventKind,
        meanwhile: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        debug_assert_ne!(tag, FAREWELL_TAG, "Tag::MAX is reserved");
        debug_assert_ne!(to, self.rank, "a self-send is eager");
        self.check_peer(to)?;
        let obs = self.obs();
        let start = obs.map_or(0.0, Recorder::now);
        let mailbox = self.fabric.mailbox(to, self.rank);
        if mailbox.is_closed() {
            return Err(CommError::Disconnected);
        }
        let done = self.take_completion();
        let window = BorrowedBytes {
            ptr: data.as_ptr(),
            len: data.len(),
            done: done.clone(),
        };
        mailbox.post_window(tag, window);
        self.fabric.waker(to).nudge();
        if mailbox.is_closed() {
            // The receiver went while we posted, and may not have seen
            // the window: withdraw it, as a timeout would.
            let mut st = done.lock();
            if *st == CopyState::Pending {
                done.set(&mut st, CopyState::Abandoned);
            }
        }
        let meanwhile = meanwhile();
        let wait_begun = obs.map_or(0.0, Recorder::now);
        let waited = done.wait(data, self.wait_timeout, to, tag);
        if let Some(r) = obs {
            let end = r.now();
            let (plan, step) = self.plan_step.get();
            r.record(TraceEvent {
                kind,
                rank: self.rank,
                src: self.rank,
                dst: to,
                tag,
                bytes: data.len(),
                start,
                end,
                hops: 0,
                plan,
                step,
            });
            r.with_counters(|c| {
                c.msgs_sent += 1;
                c.bytes_out += data.len() as u64;
                c.rendezvous_msgs += 1;
                c.sender_copied_chunks += waited.as_ref().map_or(0, |&(_, n)| n as u64);
                c.wait_secs += end - wait_begun;
            });
        }
        meanwhile?;
        waited.map(|(w, _)| self.count_wait(w))
    }

    /// The exchange engine behind every `sendrecv` flavour: the send
    /// half travels under `stag`, `receive` is the receive half.
    fn exchange(
        &self,
        to: usize,
        data: &[u8],
        stag: Tag,
        receive: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        // A large exchange posts its window, receives, then waits: both
        // sides post before either waits, and each side's wait is
        // satisfied by the peer's recv of the matching tag.
        if data.len() >= DEFAULT_RENDEZVOUS_THRESHOLD && to != self.rank {
            return self.rendezvous(to, stag, data, EventKind::SendRecv, receive);
        }
        // Eager path: the buffered send never blocks, so send-then-recv
        // is deadlock-free in either half order.
        self.send(to, stag, data)?;
        receive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::INLINE;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::PoisonError;

    fn pair_waiting(wait: Duration) -> (ThreadComm, ThreadComm) {
        let fabric = Arc::new(Fabric::new(2));
        let a = ThreadComm::new(0, fabric.clone(), wait);
        let b = ThreadComm::new(1, fabric, wait);
        (a, b)
    }

    fn pair() -> (ThreadComm, ThreadComm) {
        pair_waiting(Duration::from_secs(30))
    }

    #[test]
    fn send_recv_roundtrip() {
        let (a, b) = pair();
        a.send(1, 7, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        b.recv(0, 7, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let (a, b) = pair();
        a.send(1, 1, &[10]).unwrap();
        a.send(1, 2, &[20]).unwrap();
        let mut buf = [0u8; 1];
        b.recv(0, 2, &mut buf).unwrap();
        assert_eq!(buf, [20]);
        b.recv(0, 1, &mut buf).unwrap();
        assert_eq!(buf, [10]);
    }

    #[test]
    fn fifo_within_same_tag() {
        let (a, b) = pair();
        a.send(1, 5, &[1]).unwrap();
        a.send(1, 5, &[2]).unwrap();
        let mut buf = [0u8; 1];
        b.recv(0, 5, &mut buf).unwrap();
        assert_eq!(buf, [1]);
        b.recv(0, 5, &mut buf).unwrap();
        assert_eq!(buf, [2]);
    }

    #[test]
    fn length_mismatch_is_error() {
        let (a, b) = pair();
        a.send(1, 0, &[1, 2]).unwrap();
        let mut buf = [0u8; 3];
        assert!(matches!(
            b.recv(0, 0, &mut buf),
            Err(CommError::LengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn self_send_works() {
        let (a, _b) = pair();
        a.send(0, 3, &[9]).unwrap();
        let mut buf = [0u8; 1];
        a.recv(0, 3, &mut buf).unwrap();
        assert_eq!(buf, [9]);
    }

    #[test]
    fn invalid_peer_rejected() {
        let (a, _b) = pair();
        assert!(matches!(
            a.send(5, 0, &[]),
            Err(CommError::InvalidRank { rank: 5, size: 2 })
        ));
    }

    #[test]
    fn departed_peer_is_detected_after_its_traffic() {
        // A receive from a peer whose endpoint is gone reports
        // Disconnected rather than hanging, once what it sent is taken;
        // and a send to it fails.
        let (a, b) = pair();
        a.send(1, 2, &[5]).unwrap();
        drop(a);
        let mut buf = [0u8; 1];
        assert_eq!(b.recv(0, 2, &mut buf), Ok(()));
        assert_eq!(b.recv(0, 2, &mut buf), Err(CommError::Disconnected));
        assert_eq!(b.send(0, 2, &buf), Err(CommError::Disconnected));
    }

    #[test]
    fn self_sends_of_every_kind_arrive_in_order() {
        // Inline, mid-size, and a rendezvous-sized one (eager to oneself),
        // more of them than the ring holds.
        let (a, _b) = pair();
        let sizes = [
            0,
            8,
            INLINE,
            INLINE + 1,
            16 << 10,
            DEFAULT_RENDEZVOUS_THRESHOLD * 2,
        ];
        let msgs: Vec<Vec<u8>> = (0..3)
            .flat_map(|round| sizes.map(|n| vec![(n + round) as u8; n]))
            .collect();
        for m in &msgs {
            a.send(0, 3, m).unwrap();
        }
        for m in &msgs {
            let mut got = vec![0u8; m.len()];
            a.recv(0, 3, &mut got).unwrap();
            assert_eq!(&got, m);
        }
    }

    #[test]
    fn eager_messages_past_the_ring_overflow_and_keep_their_order() {
        // Four rings' worth under descending tags, taken ascending: every
        // take but the last stashes, and the ring, then the overflow,
        // then the ring again hold them.
        let (a, b) = pair();
        let count = 32u64;
        for tag in (0..count).rev() {
            let n = if tag % 3 == 0 { 2 * INLINE } else { 8 };
            a.send(1, tag, &vec![tag as u8; n]).unwrap();
        }
        for tag in 0..count {
            let n = if tag % 3 == 0 { 2 * INLINE } else { 8 };
            let mut got = vec![0u8; n];
            b.recv(0, tag, &mut got).unwrap();
            assert!(got.iter().all(|&x| x == tag as u8), "tag {tag}");
        }
        // And FIFO within one tag through the overflow.
        for i in 0..count {
            a.send(1, 9, &[i as u8]).unwrap();
        }
        for i in 0..count {
            let mut got = [0u8];
            b.recv(0, 9, &mut got).unwrap();
            assert_eq!(got, [i as u8]);
        }
    }

    #[test]
    fn a_timeout_names_the_silent_peer_and_is_not_rounded_up_to_the_poll_budget() {
        let timeout = Duration::from_micros(5);
        let (_a, b) = pair_waiting(timeout);
        // The best of many trials: a preempted trial says nothing about
        // the wait policy.
        let best = (0..200)
            .map(|_| {
                let start = Instant::now();
                let got = b.recv(0, 4, &mut [0]);
                let took = start.elapsed();
                assert!(
                    matches!(
                        got,
                        Err(CommError::Timeout {
                            from: 0,
                            tag: 4,
                            ..
                        })
                    ),
                    "{got:?}"
                );
                took
            })
            .min()
            .unwrap();
        assert!(best >= timeout, "returned early: {best:?}");
        assert!(best < timeout * 4, "waited {best:?} for {timeout:?}");
    }

    #[test]
    fn sendrecv_exchanges_both_ways() {
        let (a, b) = pair();
        // Pre-load b's message so a's sendrecv completes immediately.
        b.send(0, 4, &[7, 7]).unwrap();
        let mut abuf = [0u8; 2];
        a.sendrecv(1, &[1, 2], 1, &mut abuf, 4).unwrap();
        assert_eq!(abuf, [7, 7]);
        let mut bbuf = [0u8; 2];
        b.recv(0, 4, &mut bbuf).unwrap();
        assert_eq!(bbuf, [1, 2]);
    }

    /// A hop of `n` bytes from rank 0 to rank 1 as a plain `send`/`recv`
    /// or, with `exchange`, as the `sendrecv` of both ranks.
    fn hop(c: &ThreadComm, exchange: bool, data: &[u8], buf: &mut [u8]) -> Result<()> {
        match (exchange, c.rank()) {
            (true, _) => c.sendrecv(1 - c.rank(), data, 1 - c.rank(), buf, 3),
            (false, 0) => c.send(1, 3, data),
            (false, _) => c.recv(0, 3, buf),
        }
    }

    /// Returns once a message from `from` is queued at `c`, so a test
    /// can decide where an in-flight window sits before `c` looks.
    fn until_queued(c: &ThreadComm, from: usize) {
        while !c.inbox(from).ready() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn payloads_around_the_threshold_are_byte_exact() {
        let _cores = crate::CORES.read().unwrap_or_else(PoisonError::into_inner);
        let t = DEFAULT_RENDEZVOUS_THRESHOLD;
        for n in [t - 1, t, t + 1, 4 << 20] {
            for exchange in [false, true] {
                let out = crate::run_world(2, |c| {
                    let mine: Vec<u8> = (0..n).map(|i| (i * 31 + c.rank()) as u8).collect();
                    let mut got = vec![0u8; n];
                    hop(c, exchange, &mine, &mut got).unwrap();
                    got
                });
                assert!(out[1].iter().enumerate().all(|(i, &b)| b == (i * 31) as u8));
                if exchange {
                    assert!(out[0]
                        .iter()
                        .enumerate()
                        .all(|(i, &b)| b == (i * 31 + 1) as u8));
                }
            }
        }
    }

    #[test]
    fn rendezvous_self_exchange_falls_back_to_eager() {
        let n = DEFAULT_RENDEZVOUS_THRESHOLD * 2;
        let out = crate::run_world(1, |c| {
            let mine = vec![7u8; n];
            let mut got = vec![0u8; n];
            c.sendrecv(0, &mine, 0, &mut got, 3).unwrap();
            got
        });
        assert!(out[0].iter().all(|&b| b == 7));
    }

    #[test]
    fn rendezvous_length_mismatch_releases_both_sides() {
        // The receiver rejects the borrowed payload without copying;
        // dropping it must still unblock the sender (Abandoned).
        let n = DEFAULT_RENDEZVOUS_THRESHOLD;
        for exchange in [false, true] {
            let out = crate::run_world(2, |c| {
                let mut got = vec![0u8; n - c.rank()];
                hop(c, exchange, &vec![1u8; n], &mut got).err()
            });
            let short = CommError::LengthMismatch {
                expected: n - 1,
                actual: n,
            };
            assert_eq!(out[1], Some(short));
            // Rank 0's wait observes the abandoned window (in an
            // exchange its own receive may be what fails instead).
            assert!(out[0] == Some(CommError::Disconnected) || (exchange && out[0].is_some()));
        }
    }

    #[test]
    fn unmatched_rendezvous_send_times_out_and_withdraws_its_window() {
        let n = DEFAULT_RENDEZVOUS_THRESHOLD;
        let out = crate::run_world_with(2, Duration::from_millis(50), None, |c| {
            if c.rank() == 0 {
                let sent = c.send(1, 9, &vec![7u8; n]);
                c.send(1, 1, &[0]).unwrap();
                sent
            } else {
                // Ask for the bytes only once the sender has given up.
                while matches!(c.recv(0, 1, &mut [0]), Err(CommError::Timeout { .. })) {}
                c.recv(0, 9, &mut vec![0u8; n])
            }
        })
        .0;
        assert!(matches!(
            out[0],
            Err(CommError::Timeout {
                from: 1,
                tag: 9,
                ..
            })
        ));
        assert_eq!(out[1], Err(CommError::Disconnected));
    }

    #[test]
    fn dropping_the_receiver_releases_a_queued_or_stashed_window() {
        let sizes = [DEFAULT_RENDEZVOUS_THRESHOLD, 4 * COPY_CHUNK];
        for (stashed, n) in [false, true]
            .into_iter()
            .flat_map(|s| sizes.map(|n| (s, n)))
        {
            let (a, b) = pair();
            let sent = std::thread::scope(|s| {
                let sender = s.spawn(move || a.send(1, 4, &vec![5u8; n]));
                // The window is in `b`'s mailbox: leave it there or move
                // it to the stash, then let `b` go without receiving.
                until_queued(&b, 0);
                if stashed {
                    let arrival = b.inbox(0).pop().unwrap();
                    b.sort(0, arrival).unwrap();
                }
                drop(b);
                sender.join().unwrap()
            });
            assert_eq!(
                sent,
                Err(CommError::Disconnected),
                "stashed: {stashed}, {n} B"
            );
        }
    }

    #[test]
    fn out_of_order_window_is_stashed_while_its_sender_stays_blocked() {
        // One pair, a window queued ahead of an inline message, and the
        // inline one asked for first. The window is posted by hand (a
        // `send` of it would block before the inline one could follow).
        let n = DEFAULT_RENDEZVOUS_THRESHOLD;
        let (a, b) = pair();
        let data = vec![9u8; n];
        let done = a.take_completion();
        let window = BorrowedBytes {
            ptr: data.as_ptr(),
            len: n,
            done: done.clone(),
        };
        a.fabric.mailbox(1, 0).post_window(2, window);
        a.send(1, 1, &[1]).unwrap();
        b.recv(0, 1, &mut [0]).unwrap();
        assert!(done.hinted(CopyState::Pending), "sender released early");
        let mut got = vec![0u8; n];
        b.recv(0, 2, &mut got).unwrap();
        assert!(done.hinted(CopyState::Copied));
        assert_eq!(got, data);
        // Interleaved the other way round too, through real sends.
        let data = &data;
        std::thread::scope(|s| {
            s.spawn(move || {
                a.send(1, 5, &[1; 8]).unwrap();
                a.send(1, 6, data).unwrap();
                a.send(1, 7, &[2; 8]).unwrap();
            });
            let mut got = vec![0u8; n];
            b.recv(0, 6, &mut got).unwrap();
            assert_eq!(&got, data);
            b.recv(0, 7, &mut [0; 8]).unwrap();
            b.recv(0, 5, &mut [0; 8]).unwrap();
        });
    }

    /// The completion's hint protocol under the races it exists for,
    /// from a window consumed under the lock (32 KiB) through one too
    /// short to share (one piece) to shared copies of 2 pieces, 2 pieces
    /// and a byte, 1 MiB and 4 MiB. The ranks line up on a token before
    /// every hop and then either side starts 0, 20 or 100 us late, so
    /// the sender keeps crossing from polling into parking while the
    /// claim and the mark race it, and the receiver keeps finding the
    /// window queued or having to wait for it. Every wait is bounded,
    /// so a lost completion fails with `Timeout` instead of hanging; a
    /// release before the copy, or a piece nobody copied, shows as a
    /// mark from the wrong hop. Both ways a shared copy can go must
    /// have been seen — the sender helped; the sender had parked and
    /// the receiver copied everything — so on a host too busy to show
    /// both in the fixed schedule, 4-piece hops follow until it has, up
    /// to a bound. (`./ci.sh sanitize` runs this under ThreadSanitizer.)
    #[test]
    fn racing_copies_lose_no_completion() {
        let _cores = crate::CORES.read().unwrap_or_else(PoisonError::into_inner);
        const LINE_UP: Tag = 0;
        // A sender helps only while its receiver copies on another
        // core: with one core there is nothing to wait for.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let extra_hops = if cores > 1 { 4000 } else { 0 };
        let t = DEFAULT_RENDEZVOUS_THRESHOLD;
        // Few hops of the long sizes: the test shares the harness with
        // tests that time things.
        let schedule: Vec<usize> = [
            (t, 150),
            (COPY_CHUNK, 50),
            (2 * COPY_CHUNK, 150),
            (2 * COPY_CHUNK + 1, 50),
            (1 << 20, 16),
            (4 << 20, 4),
        ]
        .iter()
        .flat_map(|&(n, hops)| std::iter::repeat_n(n, hops))
        .collect();
        // The bytes a hop stamps and checks: the last one and every
        // 509th, so each piece has marks (at offsets that differ from
        // piece to piece) and the test stays light in a debug build.
        let marks = |n: usize| (0..n).step_by(509).chain([n - 1]);
        let (out, run) = crate::world::recorded(2, 16, |c| {
            let counters = || {
                let mut now = intercom_obs::Counters::default();
                c.obs().expect("recorded").with_counters(|c| now = *c);
                now
            };
            let mut rng = intercom::SplitMix64::new(7 + c.rank() as u64);
            let mut buf = vec![0u8; 4 << 20];
            // Shared hops the sender helped with, and ones it had
            // parked for and slept through.
            let (mut helped_with, mut slept_through) = (0u64, 0u64);
            for hop in 0..=schedule.len() + extra_hops {
                let n = schedule.get(hop).copied().unwrap_or(4 * COPY_CHUNK);
                let buf = &mut buf[..n];
                let fill = (hop as u8).wrapping_add(n as u8);
                let skew = Duration::from_micros([0, 20, 100][rng.below(3)]);
                if c.rank() == 0 {
                    let seen = helped_with > 0 && slept_through > 0;
                    let done =
                        hop >= schedule.len() && (seen || hop == schedule.len() + extra_hops);
                    c.send(1, LINE_UP, &[u8::from(!done)]).unwrap();
                    if done {
                        return (hop as u64, helped_with, slept_through);
                    }
                    marks(n).for_each(|i| buf[i] = fill);
                    std::thread::sleep(skew);
                    let before = counters();
                    c.send(1, 1 + hop as Tag, buf)
                        .expect("a completion was lost");
                    let after = counters();
                    let helped = after.sender_copied_chunks - before.sender_copied_chunks;
                    let shared = n >= 2 * COPY_CHUNK;
                    assert!(helped == 0 || shared, "{n} B: shared");
                    helped_with += u64::from(helped > 0);
                    let parked = after.parked_waits > before.parked_waits;
                    slept_through += u64::from(shared && parked && helped == 0);
                } else {
                    let mut more = [0];
                    c.recv(0, LINE_UP, &mut more).unwrap();
                    if more == [0] {
                        break;
                    }
                    std::thread::sleep(skew);
                    c.recv(0, 1 + hop as Tag, buf).unwrap();
                    assert!(marks(n).all(|i| buf[i] == fill), "{n} B, hop {hop}");
                }
            }
            (0, helped_with, slept_through)
        });
        let (hops, helped_with, slept_through) = out[0];
        let sender = &run.counters[0];
        assert_eq!(sender.polled_waits + sender.parked_waits, hops);
        assert!(sender.polled_waits > 0 && sender.parked_waits > 0);
        if cores > 1 {
            assert!(helped_with > 0, "the sender never helped");
            assert!(
                slept_through > 0,
                "no parked sender left a whole copy to the receiver"
            );
        }
        assert_eq!(run.counters[1].windows_in_place, 0, "plain receives only");
    }

    /// A window claimed before its sender's deadline is copied, not
    /// withdrawn: a sender whose deadline has passed when it looks finds
    /// `Claimed`, copies what is left (here everything) and returns
    /// `Ok`; only a `Pending` window times out.
    #[test]
    fn a_deadline_that_passes_after_the_claim_waits_for_the_copy() {
        let n = 3 * COPY_CHUNK + 5;
        let data: Vec<u8> = (0..n).map(|i| (i * 7) as u8).collect();
        let mut got = vec![0u8; n];
        let done = Completion::new();
        done.claim(done.lock(), got.as_mut_ptr());
        assert_eq!(
            done.wait(&data, Duration::ZERO, 1, 4),
            Ok((Waited::Polled, 4))
        );
        assert!(*done.lock() == CopyState::Copied);
        assert_eq!(got, data);

        let done = Completion::new();
        assert!(matches!(
            done.wait(&data, Duration::ZERO, 1, 4),
            Err(CommError::Timeout {
                from: 1,
                tag: 4,
                ..
            })
        ));
        assert!(*done.lock() == CopyState::Abandoned);
    }

    /// A coordinated abort that reaches a rank behind a window it has
    /// not asked for: the receive fails with the diagnosis, and the
    /// window's sender is released when the aborted rank goes.
    #[test]
    fn poison_behind_a_posted_window_aborts_the_receiver_and_frees_the_sender() {
        let info = AbortInfo {
            origin: 1,
            culprit: 1,
            plan: 0,
            step: 0,
            cause: AbortCause::External,
        };
        let out = crate::run_world(3, |c| match c.rank() {
            0 => c.send(2, 2, &vec![9u8; 4 * COPY_CHUNK]),
            1 => {
                // Only once rank 0's window is queued at rank 2.
                c.recv(2, 6, &mut [0]).unwrap();
                c.send(2, POISON_TAG, &info.encode())
            }
            _ => {
                until_queued(c, 0);
                c.send(1, 6, &[0]).unwrap();
                c.recv(1, 1, &mut [0])
            }
        });
        assert_eq!(out[0], Err(CommError::Disconnected));
        assert_eq!(out[1], Ok(()));
        assert_eq!(out[2], Err(CommError::Aborted(info)));
    }

    /// Rank 0 sleeps waiting on rank 1, which stays silent; rank 2's
    /// poison lands in another mailbox and wakes it through the alert.
    /// Rank 1's farewell, posted only after rank 0 has returned, leaves
    /// nothing to wake.
    #[test]
    fn poison_from_a_third_rank_aborts_a_receive_parked_on_another_peer() {
        let info = AbortInfo {
            origin: 2,
            culprit: 2,
            plan: 3,
            step: 1,
            cause: AbortCause::Stall,
        };
        let aborted = AtomicBool::new(false);
        let (out, run) = crate::world::recorded(3, 16, |c| match c.rank() {
            0 => {
                let got = c.recv(1, 5, &mut [0]);
                aborted.store(true, Ordering::SeqCst);
                got
            }
            1 => {
                while !aborted.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            }
            _ => {
                until_parked(c, 0);
                c.send(0, POISON_TAG, &info.encode())
            }
        });
        assert_eq!(out[0], Err(CommError::Aborted(info)));
        assert_eq!(run.counters[0].parked_waits, 1);
    }

    /// Returns once `rank` sleeps on its waker.
    fn until_parked(c: &ThreadComm, rank: usize) {
        while !c.fabric.waker(rank).is_parked() {
            std::thread::yield_now();
        }
    }

    /// The sender fires the moment the receiver says it is about to
    /// receive, well inside `POLL_BUDGET` unless the host preempts one
    /// of them; a few hundred attempts make that irrelevant. A message
    /// already there when the receive looks is no wait at all.
    #[test]
    fn a_message_arriving_while_the_receiver_polls_is_taken_without_parking() {
        const ATTEMPTS: u64 = 200;
        let asked = AtomicU64::new(0);
        let (_, run) = crate::world::recorded(2, 16, |c| {
            for attempt in 1..=ATTEMPTS {
                if c.rank() == 0 {
                    while asked.load(Ordering::Acquire) != attempt {
                        std::thread::yield_now();
                    }
                    c.send(1, attempt, &attempt.to_le_bytes()).unwrap();
                } else {
                    asked.store(attempt, Ordering::Release);
                    let mut got = [0u8; 8];
                    c.recv(0, attempt, &mut got).unwrap();
                    assert_eq!(u64::from_le_bytes(got), attempt);
                }
            }
        });
        let receiver = &run.counters[1];
        assert!(
            receiver.polled_waits > 0,
            "no receive was served while polling"
        );
        assert!(receiver.polled_waits + receiver.parked_waits <= ATTEMPTS);
    }

    /// A message posted only once its receiver sleeps wakes it: the
    /// receive is one parked wait.
    #[test]
    fn a_message_arriving_after_the_poll_budget_is_taken_from_the_park() {
        let (out, run) = crate::world::recorded(2, 16, |c| {
            let mut got = [0u8];
            if c.rank() == 0 {
                until_parked(c, 1);
                c.send(1, 4, &[9]).unwrap();
            } else {
                c.recv(0, 4, &mut got).unwrap();
            }
            got
        });
        assert_eq!(out[1], [9]);
        let receiver = &run.counters[1];
        assert_eq!((receiver.polled_waits, receiver.parked_waits), (0, 1));
    }

    /// A farewell posted to a rank that waits on someone else neither
    /// fails that receive nor the ones after it from other peers; only a
    /// receive from the departed peer fails.
    #[test]
    fn a_farewell_leaves_receives_from_other_peers_alone() {
        let out = crate::run_world(3, |c| match c.rank() {
            // Goes while rank 1 sleeps waiting on rank 2: the farewell
            // wakes it for nothing.
            0 => {
                until_parked(c, 1);
                Ok(())
            }
            1 => {
                c.recv(2, 1, &mut [0])?;
                c.recv(2, 2, &mut [0])?;
                c.recv(0, 3, &mut [0])
            }
            _ => {
                // Only once the farewell is queued at rank 1.
                while !c.fabric.mailbox(1, 0).ready() {
                    std::thread::yield_now();
                }
                c.send(1, 1, &[1])?;
                c.send(1, 2, &[2])
            }
        });
        assert_eq!(out, [Ok(()), Err(CommError::Disconnected), Ok(())]);
    }

    /// A pair that never talks makes no ring, its farewell included,
    /// and the farewell still tells the receiver its peer is gone.
    #[test]
    fn only_pairs_that_talk_make_a_ring() {
        let fabric = Arc::new(Fabric::new(3));
        let wait = Duration::from_secs(30);
        let mut comms: Vec<_> = (0..3)
            .map(|r| ThreadComm::new(r, fabric.clone(), wait))
            .collect();
        comms[0].send(1, 2, &[5]).unwrap();
        comms[1].recv(0, 2, &mut [0]).unwrap();
        drop(comms.pop());
        assert_eq!(comms[1].recv(2, 2, &mut [0]), Err(CommError::Disconnected));
        drop(comms);
        for to in 0..3 {
            for from in 0..3 {
                let talked = (to, from) == (1, 0);
                assert_eq!(
                    fabric.mailbox(to, from).has_ring(),
                    talked,
                    "{from} -> {to}"
                );
            }
        }
    }

    /// A mid-size message lives in its slot's extension: the pair's
    /// first one makes the arena (the sender's one allocation), every
    /// later one reuses it, and the receiver stores nothing. Each
    /// direction is a pair of its own.
    #[test]
    fn a_mid_size_hop_allocates_its_pair_arena_once_and_the_receiver_nothing() {
        let (a, b) = pair();
        let mut buf = [0u8; INLINE];
        for round in 0..4 {
            a.send(1, round, &[round as u8; INLINE]).unwrap();
            b.recv(0, round, &mut buf).unwrap();
        }
        assert_eq!(a.pool_stats(), StoreStats::default(), "inline");
        let mut buf = [0u8; 2 * INLINE];
        for round in 0..4 {
            a.send(1, round, &[round as u8; 2 * INLINE]).unwrap();
            b.recv(0, round, &mut buf).unwrap();
            assert_eq!(buf, [round as u8; 2 * INLINE]);
        }
        let sender = StoreStats { hits: 3, misses: 1 };
        assert_eq!(a.pool_stats(), sender);
        assert_eq!(b.pool_stats(), StoreStats::default(), "the receiver");
        b.send(0, 9, &buf).unwrap();
        a.recv(1, 9, &mut buf).unwrap();
        assert_eq!(b.pool_stats(), StoreStats { hits: 0, misses: 1 });
        assert_eq!(a.pool_stats(), sender);
    }

    #[test]
    fn stashed_payloads_recycle_rank_local_buffers() {
        // Two tags arrive "backwards" each round: tag 2 is consumed
        // first, forcing tag 1 through the stash.
        let (a, b) = pair();
        for n in [16, 2 * INLINE] {
            let mut buf = vec![0u8; n];
            for round in 0..3 {
                a.send(1, 1, &vec![round; n]).unwrap();
                a.send(1, 2, &vec![2; n]).unwrap();
                b.recv(0, 2, &mut buf).unwrap();
                b.recv(0, 1, &mut buf).unwrap();
                assert!(buf.iter().all(|&x| x == round));
            }
        }
        // The receiver copied six messages into its stash: one buffer,
        // made for 16 B and grown once for 2 KiB. The sender made its
        // arena for the first 2 KiB message and reused it for five.
        assert_eq!(b.pool_stats(), StoreStats { hits: 4, misses: 2 });
        assert_eq!(a.pool_stats(), StoreStats { hits: 5, misses: 1 });
        assert_eq!(b.stash.borrow()[0].buffers.len(), 1);
    }

    /// A combining receive of a mid-size message folds straight out of
    /// the slot's extension: the sink is handed the bytes where they
    /// lie, 64-byte aligned, and the receive buffer is never written.
    #[test]
    fn a_mid_size_combining_receive_is_lent_its_aligned_extension() {
        let (a, b) = pair();
        for n in [INLINE + 1, 16 << 10, DEFAULT_RENDEZVOUS_THRESHOLD - 1] {
            let data: Vec<u8> = (0..n).map(|i| (i * 7) as u8).collect();
            a.send(1, 3, &data).unwrap();
            let mut buf = vec![0u8; n];
            let mut lent = None;
            b.recv_with(0, 3, &mut buf, &mut |_, bytes| {
                lent = bytes.map(|bytes| (bytes.as_ptr() as usize % 64, bytes == data));
            })
            .unwrap();
            assert_eq!(lent, Some((0, true)), "{n} B");
            assert!(buf.iter().all(|&x| x == 0), "{n} B: copied first");
        }
    }

    /// Eight producers that mostly sleep, so the receiver keeps crossing
    /// from polling into parking while sends race it: the
    /// `parked`/fence handshake must lose no wake-up. The receiver takes
    /// from the producers in a random order, so it sleeps on one mailbox
    /// while others fill (and spill). Producer 0 holds its first post
    /// back until the receiver sleeps, which it must do by the time it
    /// wants that post: the park path is taken on any host, however the
    /// scheduler runs the rest. Receives are bounded, so a lost wake-up
    /// fails with `Timeout` instead of hanging the suite.
    #[test]
    fn racing_producers_lose_no_wakeup() {
        let _cores = crate::CORES.read().unwrap_or_else(PoisonError::into_inner);
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: u64 = 10_000;
        let (out, run) = crate::world::recorded(PRODUCERS + 1, 16, |c| {
            if c.rank() < PRODUCERS {
                let mut rng = intercom::SplitMix64::new(c.rank() as u64);
                for i in 0..PER_PRODUCER {
                    if c.rank() == 0 && i == 0 {
                        until_parked(c, PRODUCERS);
                    }
                    match rng.next_u64() % 16 {
                        // Long enough for the receiver to park.
                        0 => std::thread::sleep(Duration::from_micros(100)),
                        1..=4 => std::thread::yield_now(),
                        _ => {}
                    }
                    c.send(PRODUCERS, 0, &i.to_le_bytes()).unwrap();
                }
                return true;
            }
            let mut rng = intercom::SplitMix64::new(PRODUCERS as u64);
            let mut next = [0u64; PRODUCERS];
            while next.iter().any(|&n| n < PER_PRODUCER) {
                let t = rng.below(PRODUCERS);
                if next[t] == PER_PRODUCER {
                    continue;
                }
                if rng.below(8) == 0 {
                    std::thread::yield_now();
                }
                let mut got = [0u8; 8];
                c.recv(t, 0, &mut got).expect("a wake-up was lost");
                assert_eq!(
                    u64::from_le_bytes(got),
                    next[t],
                    "producer {t} out of order"
                );
                next[t] += 1;
            }
            true
        });
        assert!(out.iter().all(|&ok| ok));
        assert!(
            run.counters[PRODUCERS].parked_waits > 0,
            "the park path was never taken"
        );
    }
}
