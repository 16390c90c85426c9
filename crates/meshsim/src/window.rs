//! Borrowed windows: how a payload crosses the engine without the
//! engine ever owning it.
//!
//! A rank's `send` / `recv` / `sendrecv` lends the engine a window
//! (`ptr + len`) onto the caller's own `&[u8]` / `&mut [u8]` and then
//! blocks on the engine's reply. The crate-wide invariant that makes
//! the dereferences below sound:
//!
//! > *A window is dereferenced only by the engine, or by the helper it
//! > joins before any lender of the batch is replied to, only between
//! > match and completion, and a rank's blocking call returns only after
//! > the engine has replied or is gone.*
//!
//! "Between match and completion" is [`Segment::run`]: `Engine::advance`
//! cuts the copies (and folds) of the transfers completing at one event
//! into segments, after asserting every lender of the batch still
//! `Blocked`, and runs them itself or splits them with its helper
//! (`sim::Helper::join`, which returns only once the helper is done) —
//! all before the first of those lenders is released. The receive
//! windows of one batch are pairwise disjoint mutable borrows (a
//! blocked rank has one receive outstanding, and a self-`sendrecv`'s
//! two windows are a shared and a mutable borrow of one call), so the
//! two threads never write one byte, nor read one the other writes. The
//! one other read, [`SendWindow::bytes`], decodes a poison record on
//! arrival, before its sender is acknowledged. "Replied or gone":
//! `SimComm::roundtrip` waits on the reply channel *without a timeout*,
//! so the lending frame can only resume once the engine has pushed the
//! rank's reply — after the copy, or after `poison` / a length mismatch
//! dropped the window unread — or once `simulate` has dropped the reply
//! senders, which it does only after the engine loop has ended (by
//! completion or by unwinding) and can touch no window again.
//!
//! What would break it: a timeout on the reply wait (the lender could
//! leave with its window still matched), a copy made on the receiving
//! rank (completion would have to wait for a second release handshake,
//! and so would `poison`), or a helper the engine does not join before
//! it releases the batch's lenders.
//!
//! **Folds.** A fused receive of a program (`RecvReduce` /
//! `SendRecvReduce`) lends its accumulator as the receive window, with
//! the bound ⊕ ([`RecvWindow::folding`]): at completion the sender's
//! bytes are folded into it instead of copied, so the message never
//! lands anywhere. A fold reads the bytes it writes, which changes
//! nothing above (they are the receiver's, in one segment), and a cut
//! falls on an element boundary. One more condition makes a fused
//! *exchange* sound: its accumulator is disjoint from its send window.
//! The two halves complete at different events — the receive half may
//! fold while the send half is still flowing — so a fold into bytes
//! the send half has yet to ship would ship the fold. The IR promises
//! the disjointness (lowering fuses only such exchanges, and
//! `BoundProgram::step` refuses overlapping operands).
//!
//! A fused *combine* (`SendRecvCombine`, the in-place ring distributed
//! combine's hop) lends its landing the same way, with the ⊕ and one
//! more read-only window, the region the message is combined with
//! ([`RecvWindow::combining`]): at completion the landing is written
//! with `message ⊕ other` in one pass. That region is the receiver's
//! own, borrowed by its blocked program for as long as the landing is,
//! and disjoint from the landing (`BoundProgram::step` refuses it
//! otherwise); no other segment of a batch writes it, since no other
//! receive window of the batch is this rank's.
//!
//! **Programs.** `SimComm::run_program` lends a [`ProgramWindow`] onto
//! the `BoundProgram` in its frame — the rank's steps, its group's
//! members, its argument buffers and its arena, all borrowed by that
//! frame — and blocks the same way. The invariant extends word for
//! word: *a program window is dereferenced only by the engine, only
//! between the request that lends it and the reply that ends the
//! program, and every payload window of the program's transfers is
//! derived from it inside that span.* A program is derived from in
//! [`ProgramWindow::with`], which hands it out for one step under a
//! lifetime the step cannot smuggle out; a derived [`SendWindow`] /
//! [`RecvWindow`] then lives only as long as its transfer, which
//! completes (or is dropped by a length mismatch or `poison`) while the
//! rank is still `Blocked` in that same program — so before the reply.
//! The helper touches no program: only the segments of a batch.
//!
//! Constructing a window is safe and dereferences nothing; the fields
//! are private so that a window can only ever name a live borrow.

use intercom::ir::{BoundProgram, Fold};

/// The program a rank blocked in `run_program` lends: walked by the
/// engine, one step at a time, until it replies.
#[derive(Debug)]
pub(crate) struct ProgramWindow {
    prog: *mut BoundProgram<'static>,
}

// SAFETY: `BoundProgram` is `Send` (byte views, the step list, the
// member list, the arena and a `fn` pointer), so handing the engine
// thread exclusive access is sound for as long as the lender cannot
// touch it, which the module invariant guarantees.
unsafe impl Send for ProgramWindow {}

impl ProgramWindow {
    pub(crate) fn lend(prog: &mut BoundProgram<'_>) -> Self {
        ProgramWindow {
            prog: (prog as *mut BoundProgram<'_>).cast(),
        }
    }

    /// Runs `f` on the lent program. Engine only, and only before the
    /// lender has been replied to. `f` is generic over
    /// the program's lifetime, so nothing it returns can borrow from the
    /// program.
    pub(crate) fn with<R>(&mut self, f: impl FnOnce(&mut BoundProgram<'_>) -> R) -> R {
        // SAFETY: `prog` comes from a `&mut BoundProgram` (`lend`) whose
        // frame is blocked in `run_program` until the engine replies
        // (module invariant), so the program and everything it borrows
        // are live, and nothing else reaches them: one step at a time
        // runs, on the engine's thread, and `&mut self` keeps two calls
        // from overlapping.
        f(unsafe { &mut *self.prog })
    }
}

const _: () = {
    const fn sendable<T: Send>() {}
    sendable::<BoundProgram<'static>>();
};

/// The bytes a blocked sender lends: read by the engine, never written.
#[derive(Debug)]
pub(crate) struct SendWindow {
    ptr: *const u8,
    len: usize,
}

/// The buffer a blocked receiver lends: written by the engine, at most
/// once — with the message, or, for a fused receive, with the message
/// folded into what it holds.
#[derive(Debug)]
pub(crate) struct RecvWindow {
    ptr: *mut u8,
    len: usize,
    /// The ⊕ the message folds in with; `None` for a plain receive.
    fold: Option<Fold>,
    /// A combine's other operand, `len` bytes: the window is written
    /// with `message ⊕ other` rather than folded into.
    other: Option<*const u8>,
}

// SAFETY: the pointer crosses to the engine thread, but the bytes it
// names stay immutably borrowed by the lending call for as long as the
// engine may read them (module invariant); `len` is plain data.
unsafe impl Send for SendWindow {}

// SAFETY: as above with a mutable borrow — while the lending call
// blocks, the engine is the only party that can reach the bytes.
unsafe impl Send for RecvWindow {}

impl SendWindow {
    pub(crate) fn lend(data: &[u8]) -> Self {
        SendWindow {
            ptr: data.as_ptr(),
            len: data.len(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The lent bytes. Engine only, and only before the lender has been
    /// replied to.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr`/`len` come from a `&[u8]` (`lend`) whose borrow
        // is held by a call that is still blocked on the engine's reply
        // (module invariant), so the bytes are live, initialized and
        // not written by anyone for the returned lifetime.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl RecvWindow {
    pub(crate) fn lend(buf: &mut [u8]) -> Self {
        RecvWindow {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            fold: None,
            other: None,
        }
    }

    /// An accumulator the message is folded into with `fold`, in place
    /// of a buffer it lands in.
    pub(crate) fn folding(acc: &mut [u8], fold: Fold) -> Self {
        RecvWindow {
            fold: Some(fold),
            ..RecvWindow::lend(acc)
        }
    }

    /// A landing written with the message combined with `other`
    /// (`dst = message ⊕ other`), as long as `dst`.
    pub(crate) fn combining(dst: &mut [u8], other: &[u8], fold: Fold) -> Self {
        assert_eq!(
            dst.len(),
            other.len(),
            "a combine's regions are equally long"
        );
        RecvWindow {
            other: Some(other.as_ptr()),
            ..RecvWindow::folding(dst, fold)
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// A piece of a completion batch's byte work: bytes of a sender's
/// window and the receiver's window they land in, or fold into. A
/// transfer's copy or fold is one segment, or two once the batch is cut
/// at its byte midpoint.
#[derive(Debug)]
pub(crate) struct Segment {
    src: *const u8,
    dst: *mut u8,
    len: usize,
    fold: Option<Fold>,
    /// A combine's other operand, `len` bytes from here.
    other: Option<*const u8>,
}

// SAFETY: the pointers cross to the helper thread, but the bytes they
// name stay borrowed by blocked lenders for as long as the segment may
// be copied (module invariant), and no two segments of a batch write
// the same byte or one the other reads; `len` is plain data.
unsafe impl Send for Segment {}

impl Segment {
    /// The whole copy of a matched pair (`data` → `buf`).
    pub(crate) fn of(data: &SendWindow, buf: &mut RecvWindow) -> Self {
        // Not a debug assertion: `copy` is sound only under it.
        assert_eq!(data.len, buf.len, "the match checked the lengths equal");
        Segment {
            src: data.ptr,
            dst: buf.ptr,
            len: buf.len,
            fold: buf.fold,
            other: buf.other,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Cuts the segment at `at`, or for a fold at the element boundary
    /// at or before it: it keeps the bytes before the cut, and the rest
    /// come back as a segment of their own.
    pub(crate) fn split_off(&mut self, at: usize) -> Self {
        assert!(at <= self.len, "a cut inside the segment");
        let at = self.fold.map_or(at, |f| at - at % f.elem_size());
        let tail = Segment {
            src: self.src.wrapping_add(at),
            dst: self.dst.wrapping_add(at),
            len: self.len - at,
            fold: self.fold,
            other: self.other.map(|o| o.wrapping_add(at)),
        };
        self.len = at;
        tail
    }

    /// The crate's one move of a wire byte: sender's buffer → receiver's
    /// buffer, copied, or folded into what the receiver's holds. Engine
    /// or joined helper only, with both lenders still blocked.
    pub(crate) fn run(&mut self) {
        // SAFETY: `src` and `dst` point `len` bytes into a `&[u8]` and a
        // `&mut [u8]` of equal length (`of`, and `split_off` cuts both at
        // one offset) whose lenders are still blocked on the engine's
        // reply (module invariant), so both are live. The reads and
        // writes of `dst` are this thread's alone: the batch's receive
        // windows are disjoint mutable borrows, and each of their bytes
        // is in one segment. They cannot overlap `src`, which a shared
        // borrow held at the same time names (for a self-`sendrecv` both
        // are arguments of one call).
        let (src, dst) = unsafe {
            (
                std::slice::from_raw_parts(self.src, self.len),
                std::slice::from_raw_parts_mut(self.dst, self.len),
            )
        };
        match (self.fold, self.other) {
            (None, _) => dst.copy_from_slice(src),
            (Some(fold), None) => fold.apply(dst, src),
            (Some(fold), Some(other)) => {
                // SAFETY: `other` points `len` bytes into a `&[u8]` of
                // the receiver's (`RecvWindow::combining`, cut with the
                // segment) that its blocked program still borrows, which
                // no segment writes and which is disjoint from `dst`.
                let other = unsafe { std::slice::from_raw_parts(other, self.len) };
                fold.combine(dst, src, other)
            }
        }
    }
}
