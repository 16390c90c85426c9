//! Borrowed windows: how a payload crosses the engine without the
//! engine ever owning it.
//!
//! A rank's `send` / `recv` / `sendrecv` lends the engine a window
//! (`ptr + len`) onto the caller's own `&[u8]` / `&mut [u8]` and then
//! blocks on the engine's reply. The crate-wide invariant that makes
//! the two dereferences below sound:
//!
//! > *A window is dereferenced only by the engine, only between match
//! > and completion, and a rank's blocking call returns only after the
//! > engine has replied or is gone.*
//!
//! "Between match and completion" is [`SendWindow::copy_to`], called
//! from `Engine::finish_transfer` while both ranks are still `Blocked`
//! (the one other read, [`SendWindow::bytes`], decodes a poison record
//! on arrival, before its sender is acknowledged). "Replied or gone":
//! `SimComm::roundtrip` waits on the reply channel *without a timeout*,
//! so the lending frame can only resume once the engine has pushed the
//! rank's reply — after the copy, or after `poison` / a length mismatch
//! dropped the window unread — or once `simulate` has dropped the reply
//! senders, which it does only after the engine loop has ended (by
//! completion or by unwinding) and can touch no window again.
//!
//! What would break it: a timeout on the reply wait (the lender could
//! leave with its window still matched), or a copy made off the engine
//! thread (completion would have to wait for a second release
//! handshake, and so would `poison`).
//!
//! **Programs.** `SimComm::run_program` lends a [`ProgramWindow`] onto
//! the `BoundProgram` in its frame — the rank's steps, its group's
//! members, its argument buffers and its arena, all borrowed by that
//! frame — and blocks the same way. The invariant extends word for
//! word: *a program window is dereferenced only by the engine, only
//! between the request that lends it and the reply that ends the
//! program, and every payload window of the program's transfers is
//! derived from it inside that span.* The engine derives them in
//! [`ProgramWindow::with`], which hands out the program for one step
//! under a lifetime the step cannot smuggle out; a derived
//! [`SendWindow`] / [`RecvWindow`] then lives only as long as its
//! transfer, which completes (or is dropped by a length mismatch or
//! `poison`) while the rank is still `Blocked` in that same program —
//! so before the reply.
//!
//! Constructing a window is safe and dereferences nothing; the fields
//! are private so that a window can only ever name a live borrow.

use intercom::ir::BoundProgram;

/// The program a rank blocked in `run_program` lends: walked by the
/// engine, one step at a time, until it replies.
#[derive(Debug)]
pub(crate) struct ProgramWindow {
    prog: *mut BoundProgram<'static>,
}

// SAFETY: `BoundProgram` is `Send` (byte views, the step list, the
// member list, the arena and a `fn` pointer), so handing the engine
// thread exclusive access is sound for as long as the lender cannot
// touch it — which the module invariant guarantees.
unsafe impl Send for ProgramWindow {}

impl ProgramWindow {
    pub(crate) fn lend(prog: &mut BoundProgram<'_>) -> Self {
        ProgramWindow {
            prog: (prog as *mut BoundProgram<'_>).cast(),
        }
    }

    /// Runs `f` on the lent program. Engine only, and only before the
    /// lender has been replied to. `f` is generic over the program's
    /// lifetime, so nothing it returns can borrow from the program.
    pub(crate) fn with<R>(&mut self, f: impl FnOnce(&mut BoundProgram<'_>) -> R) -> R {
        // SAFETY: `prog` comes from a `&mut BoundProgram` (`lend`) whose
        // frame is blocked in `run_program` until the engine replies
        // (module invariant), so the program and everything it borrows
        // are live, and nothing else reaches them: the engine runs one
        // step at a time on its own thread, and `&mut self` keeps two
        // calls from overlapping.
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
/// once.
#[derive(Debug)]
pub(crate) struct RecvWindow {
    ptr: *mut u8,
    len: usize,
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

    /// The crate's one copy of a wire byte: sender's buffer → receiver's
    /// buffer. Consumes both windows, so a matched pair is copied at
    /// most once. Engine only, with both lenders still blocked; the
    /// lengths were checked equal at the match.
    pub(crate) fn copy_to(self, dst: RecvWindow) {
        // SAFETY: `dst.ptr`/`dst.len` come from a `&mut [u8]`
        // (`RecvWindow::lend`) whose lender is still blocked on the
        // engine's reply, so the engine has exclusive access to live
        // bytes; it cannot overlap `self.bytes()`, which a shared
        // borrow held at the same time names (for a self-`sendrecv`
        // both are arguments of one call).
        let buf = unsafe { std::slice::from_raw_parts_mut(dst.ptr, dst.len) };
        buf.copy_from_slice(self.bytes());
    }
}

impl RecvWindow {
    pub(crate) fn lend(buf: &mut [u8]) -> Self {
        RecvWindow {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}
