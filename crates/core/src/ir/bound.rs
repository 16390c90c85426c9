//! A rank's program bound to its buffers, for a backend that runs
//! programs itself.
//!
//! On a backend whose [`Comm::runs_programs`] says yes,
//! [`execute`](super::execute) does not issue one `send` / `recv` per
//! step. It binds the calling rank's steps to the call's buffers
//! ([`BoundProgram`]), runs the data steps before the first transfer and
//! after the last one itself — on the rank's own thread, where a
//! collect's block un-permutation runs beside the other ranks' — and
//! hands everything between them, with every clock step, to
//! [`Comm::run_program`] in one call. The backend walks
//! [`BoundProgram::span`] with [`BoundProgram::step`]: a data step runs
//! inside `step`, checked as the interpreter checks it (element
//! alignment, bounds, read-only and absent buffers, overlap; a failed
//! check is an `Err`, never a panic), and a clock step or a transfer
//! comes back as a [`StepAction`] for the backend to charge or post.

use super::exec::{self, aligned, ArgBuf};
use super::{Buf, CollectiveProgram, Loc, Step, StepKind};
use crate::cast::{typed_mut, Scalar};
use crate::comm::{Comm, Tag};
use crate::error::{CommError, Result};
use crate::op::ReduceOp;
use std::ops::Range;

/// Argument slots a program can have: every [`PlanOp`](super::PlanOp)
/// has one or two.
const MAX_ARGS: usize = 2;

/// One rank's compiled steps bound to the buffers of one call: what
/// [`Comm::run_program`] receives.
///
/// The arguments are held as byte views of the caller's typed buffers
/// and the ⊕ as one monomorphized `fn(ReduceOp, &mut [u8], &[u8])`, so
/// a backend needs no type parameter to run a program of any element
/// type.
pub struct BoundProgram<'a> {
    plan_id: u64,
    steps: &'a [Step],
    /// Logical rank → world rank of the group the program runs in.
    members: &'a [usize],
    args: [ArgBuf<'a, u8>; MAX_ARGS],
    nargs: usize,
    /// The scratch arena and the bytes of it this program uses; grown
    /// and zeroed on the first step that touches it (`zeroed`).
    arena: &'a mut Vec<u64>,
    scratch_bytes: usize,
    zeroed: bool,
    rop: ReduceOp,
    fold: fn(ReduceOp, &mut [u8], &[u8]),
    elem: usize,
    base_tag: Tag,
    /// First transfer to one past the last: the data steps the backend
    /// runs (those outside are the caller's).
    xfers: Range<usize>,
    /// First to one past the last transfer or clock step: what the
    /// backend walks.
    span: Range<usize>,
    /// The first step that touches the arena (`steps.len()` if none).
    first_scratch: usize,
}

/// What a backend does at one step of a [`BoundProgram`]. Peers are
/// world ranks and tags absolute.
#[derive(Debug)]
pub enum StepAction<'p> {
    /// Nothing: a data step [`BoundProgram::step`] ran, or one the
    /// caller runs.
    Done,
    /// Charge local combine work over this many bytes (γ).
    Compute(usize),
    /// Charge one level of recursion overhead (δ).
    CallOverhead,
    /// Send `data` to `to`, blocking until it is received.
    Send {
        /// Destination world rank.
        to: usize,
        /// Absolute tag.
        tag: Tag,
        /// The bytes to send.
        data: &'p [u8],
    },
    /// Receive into `buf` from `from`.
    Recv {
        /// Source world rank.
        from: usize,
        /// Absolute tag.
        tag: Tag,
        /// Where the message lands; its length is the expected one.
        buf: &'p mut [u8],
    },
    /// Send `data` to `to` while receiving into `buf` from `from`.
    SendRecv {
        /// Destination world rank of the send half.
        to: usize,
        /// The bytes to send.
        data: &'p [u8],
        /// Source world rank of the receive half.
        from: usize,
        /// Where the arriving message lands.
        buf: &'p mut [u8],
        /// Absolute tag of both halves.
        tag: Tag,
    },
}

impl<'a> BoundProgram<'a> {
    /// Binds rank `me`'s program of `prog` to one call: `members` maps
    /// the program's logical ranks to world ranks, `args` are the call's
    /// buffers in slot order, `arena` the reusable scratch arena, `rop`
    /// the ⊕ and `base_tag` the tag every step's offset is added to.
    /// [`execute`](super::execute) is what binds programs; this is
    /// public so that a backend's own tests can bind one.
    pub fn new<T: Scalar>(
        prog: &'a CollectiveProgram,
        me: usize,
        members: &'a [usize],
        args: &'a mut [ArgBuf<'_, T>],
        arena: &'a mut Vec<u64>,
        rop: ReduceOp,
        base_tag: Tag,
    ) -> Result<Self> {
        let mismatch = |what| Err(CommError::PlanMismatch { what });
        if T::SIZE != prog.elem_size {
            return mismatch("element size differs from the compiled program's");
        }
        if members.len() != prog.p {
            return mismatch("group size differs from the compiled program's");
        }
        let Some(rp) = prog.ranks.get(me) else {
            return mismatch("rank outside the compiled program");
        };
        if args.len() > MAX_ARGS {
            return mismatch("argument buffer count differs from the program's slots");
        }
        let nargs = args.len();
        let mut bytes = std::array::from_fn(|_| ArgBuf::Absent);
        for (view, arg) in bytes.iter_mut().zip(args.iter_mut()) {
            *view = match arg {
                ArgBuf::In(b) => ArgBuf::In(T::as_bytes(b)),
                ArgBuf::Out(b) => ArgBuf::Out(T::as_bytes_mut(b)),
                ArgBuf::Absent => ArgBuf::Absent,
            };
        }
        let steps = &rp.steps[..];
        let end = steps.len();
        let (mut xfers, mut span, mut first_scratch) = (None, None, end);
        let reach = |r: &mut Option<Range<usize>>, i: usize| r.get_or_insert(i..i).end = i + 1;
        for (i, s) in steps.iter().enumerate() {
            match s.kind {
                k if k.is_transfer() => {
                    reach(&mut xfers, i);
                    reach(&mut span, i);
                }
                StepKind::Compute { .. } | StepKind::CallOverhead => reach(&mut span, i),
                _ => {}
            }
            if first_scratch == end && touches_scratch(&s.kind) {
                first_scratch = i;
            }
        }
        Ok(BoundProgram {
            plan_id: prog.plan_id,
            steps,
            members,
            args: bytes,
            nargs,
            arena,
            scratch_bytes: rp.scratch_bytes,
            zeroed: false,
            rop,
            fold: fold_bytes::<T>,
            elem: T::SIZE,
            base_tag,
            xfers: xfers.unwrap_or(end..end),
            span: span.unwrap_or(end..end),
            first_scratch,
        })
    }

    /// The compiled program's id, for attributing transfers.
    pub fn plan_id(&self) -> u64 {
        self.plan_id
    }

    /// The step indices the backend walks, in order: from the first
    /// transfer or clock step to the last.
    pub fn span(&self) -> Range<usize> {
        self.span.clone()
    }

    /// The backend's part of step `i`: a data step between the first
    /// and the last transfer runs here and now; one outside them is the
    /// caller's and is skipped; a clock step or a transfer is returned
    /// for the backend, with its peers mapped to world ranks and its
    /// operands resolved to byte windows of the bound buffers.
    ///
    /// Errs, and touches nothing, on a malformed operand
    /// ([`CommError::PlanMismatch`]) or a peer outside the group
    /// ([`CommError::InvalidRank`]).
    pub fn step(&mut self, i: usize) -> Result<StepAction<'_>> {
        let kind = self
            .steps
            .get(i)
            .ok_or(CommError::PlanMismatch {
                what: "step index outside the program",
            })?
            .kind;
        if touches_scratch(&kind) {
            self.zero_scratch();
        }
        let base = self.base_tag;
        let tag = |off: u32| base + u64::from(off);
        Ok(match kind {
            StepKind::Copy { .. } | StepKind::Reduce { .. } => {
                if self.xfers.contains(&i) {
                    self.local(kind)?;
                }
                StepAction::Done
            }
            StepKind::Compute { bytes } => StepAction::Compute(bytes as usize),
            StepKind::CallOverhead => StepAction::CallOverhead,
            StepKind::Send { to, tag_off, src } => {
                let (to, tag) = (self.member(to)?, tag(tag_off));
                let data = self.read(&src)?;
                StepAction::Send { to, tag, data }
            }
            StepKind::Recv { from, tag_off, dst } => {
                let (from, tag) = (self.member(from)?, tag(tag_off));
                let buf = self.write(&dst)?;
                StepAction::Recv { from, tag, buf }
            }
            StepKind::SendRecv {
                to,
                src,
                from,
                dst,
                tag_off,
            } => {
                let (to, from, tag) = (self.member(to)?, self.member(from)?, tag(tag_off));
                let (data, buf) = self.read_write(&src, &dst)?;
                StepAction::SendRecv {
                    to,
                    data,
                    from,
                    buf,
                    tag,
                }
            }
        })
    }

    /// Runs the program on `comm`: the data steps before the first
    /// transfer here, then the backend's span in one
    /// [`Comm::run_program`] (with the arena ready if that span touches
    /// it), then the data steps after the last transfer here.
    pub(super) fn run_on<C: Comm + ?Sized>(mut self, comm: &C) -> Result<()> {
        self.run_here(0..self.xfers.start)?;
        if !self.span.is_empty() {
            if self.first_scratch < self.xfers.end {
                self.zero_scratch();
            }
            comm.run_program(&mut self)?;
        }
        self.run_here(self.xfers.end..self.steps.len())
    }

    /// Runs the data steps among `steps` (which hold no transfer).
    fn run_here(&mut self, steps: Range<usize>) -> Result<()> {
        for i in steps {
            self.local(self.steps[i].kind)?;
        }
        Ok(())
    }

    /// Runs a copy or a fold; any other step is not local and is left
    /// alone.
    fn local(&mut self, kind: StepKind) -> Result<()> {
        let (src, dst) = match kind {
            StepKind::Copy { src, dst } => (src, dst),
            StepKind::Reduce { acc, other } => (other, acc),
            _ => return Ok(()),
        };
        if touches_scratch(&kind) {
            self.zero_scratch();
        }
        let (fold, rop) = (self.fold, self.rop);
        let (src, dst) = self.read_write(&src, &dst)?;
        if src.len() != dst.len() {
            return Err(CommError::PlanMismatch {
                what: "step operands differ in length",
            });
        }
        match kind {
            StepKind::Copy { .. } => dst.copy_from_slice(src),
            _ => fold(rop, dst, src),
        }
        Ok(())
    }

    /// The world rank of logical rank `r`.
    fn member(&self, r: u16) -> Result<usize> {
        let size = self.members.len();
        let r = usize::from(r);
        self.members
            .get(r)
            .copied()
            .ok_or(CommError::InvalidRank { rank: r, size })
    }

    /// Grows (on first use) and zeroes the arena, once per run: the
    /// programs were lowered from replays over fresh zeroed workspace.
    fn zero_scratch(&mut self) {
        if self.zeroed {
            return;
        }
        let words = self.scratch_bytes.div_ceil(std::mem::size_of::<u64>());
        let kept = self.arena.len().min(words);
        self.arena[..kept].fill(0);
        if self.arena.len() < words {
            self.arena.resize(words, 0);
        }
        self.zeroed = true;
    }

    /// The bound arguments and the arena's bytes (none before it is
    /// zeroed).
    fn buffers(&mut self) -> (&mut [ArgBuf<'a, u8>], &mut [u8]) {
        let scratch = match self.zeroed {
            true => &mut u64::as_bytes_mut(self.arena)[..self.scratch_bytes],
            false => &mut [],
        };
        (&mut self.args[..self.nargs], scratch)
    }

    fn read(&mut self, loc: &Loc) -> Result<&[u8]> {
        aligned(loc, self.elem)?;
        let (args, scratch) = self.buffers();
        exec::read(args, scratch, 1, loc)
    }

    fn write(&mut self, loc: &Loc) -> Result<&mut [u8]> {
        aligned(loc, self.elem)?;
        let (args, scratch) = self.buffers();
        exec::write(args, scratch, 1, loc)
    }

    fn read_write(&mut self, r: &Loc, w: &Loc) -> Result<(&[u8], &mut [u8])> {
        aligned(r, self.elem)?;
        aligned(w, self.elem)?;
        let (args, scratch) = self.buffers();
        exec::read_write(args, scratch, 1, r, w)
    }
}

/// Whether `kind` reads or writes any byte of the arena.
fn touches_scratch(kind: &StepKind) -> bool {
    let on = |l: &Loc| l.buf == Buf::Scratch && l.len > 0;
    match kind {
        StepKind::Send { src: a, .. } | StepKind::Recv { dst: a, .. } => on(a),
        StepKind::SendRecv { src: a, dst: b, .. }
        | StepKind::Copy { src: a, dst: b }
        | StepKind::Reduce { acc: a, other: b } => on(a) || on(b),
        StepKind::Compute { .. } | StepKind::CallOverhead => false,
    }
}

/// `acc ⊕= other` over byte views of `T` elements.
fn fold_bytes<T: Scalar>(op: ReduceOp, acc: &mut [u8], other: &[u8]) {
    // The views come from `T` slices or the word arena, at offsets and
    // lengths checked to be whole elements.
    let whole = "bound operands are aligned whole elements";
    let acc = typed_mut::<T>(acc).expect(whole);
    op.fold_into(acc, T::from_bytes(other).expect(whole));
}

#[cfg(test)]
mod tests {
    use super::super::{execute, PlanOp, RankProgram};
    use super::*;
    use crate::comm::GroupComm;
    use std::cell::RefCell;

    /// What a [`Walker`] was handed.
    #[derive(Debug)]
    struct Handoff {
        span: Range<usize>,
        /// The buffer when the hand-off began, and when it ended.
        before: Vec<u8>,
        after: Vec<u8>,
        arena_ready: bool,
    }

    /// A world of one that runs programs: it walks the span it is handed,
    /// delivering each exchange with itself by copying, and notes what
    /// it saw.
    #[derive(Default)]
    struct Walker {
        seen: RefCell<Vec<Handoff>>,
    }

    impl Comm for Walker {
        fn rank(&self) -> usize {
            0
        }
        fn size(&self) -> usize {
            1
        }
        fn send(&self, to: usize, _: Tag, _: &[u8]) -> Result<()> {
            Err(CommError::InvalidRank { rank: to, size: 1 })
        }
        fn recv(&self, from: usize, _: Tag, _: &mut [u8]) -> Result<()> {
            Err(CommError::InvalidRank {
                rank: from,
                size: 1,
            })
        }
        fn sendrecv(&self, to: usize, _: &[u8], _: usize, _: &mut [u8], _: Tag) -> Result<()> {
            Err(CommError::InvalidRank { rank: to, size: 1 })
        }
        fn runs_programs(&self) -> bool {
            true
        }
        fn run_program(&self, prog: &mut BoundProgram<'_>) -> Result<()> {
            let buf = |prog: &mut BoundProgram<'_>| match &prog.args[0] {
                ArgBuf::Out(b) => b.to_vec(),
                _ => unreachable!("the test binds one in-out buffer"),
            };
            let (span, before) = (prog.span(), buf(prog));
            let arena_ready = prog.zeroed && !prog.arena.is_empty();
            for i in prog.span() {
                if let StepAction::SendRecv { data, buf, .. } = prog.step(i)? {
                    buf.copy_from_slice(data);
                }
            }
            let after = buf(prog);
            self.seen.borrow_mut().push(Handoff {
                span,
                before,
                after,
                arena_ready,
            });
            Ok(())
        }
    }

    fn at(buf: Buf, off: u32, len: u32) -> Loc {
        Loc { buf, off, len }
    }

    /// Runs one rank's `steps` (an 8-byte in-out buffer starting as
    /// `0..8`, a 4-byte arena) on a [`Walker`]; returns its one
    /// hand-off, the buffer afterwards and the arena's length.
    fn run(steps: Vec<StepKind>) -> (Handoff, [u8; 8], usize) {
        let prog = CollectiveProgram {
            plan_id: 5,
            op: PlanOp::Broadcast { root: 0 },
            p: 1,
            n: 8,
            elem_size: 1,
            strategy: None,
            hier: None,
            ranks: vec![RankProgram {
                steps: steps.into_iter().map(|kind| Step { kind }).collect(),
                scratch_bytes: 4,
            }],
        };
        let walker = Walker::default();
        let mut buf = [0, 1, 2, 3, 4, 5, 6, 7];
        let mut arena = Vec::new();
        let gc = GroupComm::world(&walker);
        let args = &mut [ArgBuf::Out(&mut buf[..])];
        execute(&prog, &gc, ReduceOp::Sum, args, &mut arena, 0).unwrap();
        let mut seen = walker.seen.into_inner();
        assert_eq!(seen.len(), 1, "one hand-off per call");
        (seen.remove(0), buf, arena.len())
    }

    const A: Buf = Buf::Arg(0);

    fn copy(src: Loc, dst: Loc) -> StepKind {
        StepKind::Copy { src, dst }
    }

    fn swap(src: Loc, dst: Loc) -> StepKind {
        StepKind::SendRecv {
            to: 0,
            src,
            from: 0,
            dst,
            tag_off: 0,
        }
    }

    #[test]
    fn the_caller_runs_the_data_steps_outside_the_transfers() {
        let (handoff, buf, _) = run(vec![
            copy(at(A, 0, 1), at(A, 7, 1)), // before: the caller's
            StepKind::CallOverhead,
            swap(at(A, 0, 2), at(A, 2, 2)),
            copy(at(A, 2, 1), at(A, 4, 1)), // between: the backend's
            swap(at(A, 4, 1), at(A, 5, 1)),
            copy(at(A, 5, 1), at(A, 6, 1)), // after: the caller's
        ]);
        assert_eq!(handoff.span, 1..5, "the clock step to the last transfer");
        assert_eq!(handoff.before, [0, 1, 2, 3, 4, 5, 6, 0], "first copy ran");
        assert_eq!(handoff.after, [0, 1, 0, 1, 0, 0, 6, 0], "middle copy ran");
        assert_eq!(buf, [0, 1, 0, 1, 0, 0, 0, 0], "the last copy ran after");
    }

    #[test]
    fn the_arena_is_ready_only_from_its_first_use_on() {
        let s = Buf::Scratch;
        // Touched only after the last transfer: not before the hand-off.
        let (handoff, buf, arena) = run(vec![
            swap(at(A, 0, 2), at(A, 2, 2)),
            copy(at(A, 2, 2), at(s, 0, 2)),
            copy(at(s, 0, 2), at(A, 6, 2)),
        ]);
        assert!(!handoff.arena_ready, "no arena during the hand-off");
        assert_eq!((&buf[6..], arena), (&[0, 1][..], 1));
        // Touched between the transfers: ready before it.
        let (handoff, _, _) = run(vec![
            swap(at(A, 0, 2), at(A, 2, 2)),
            copy(at(A, 2, 2), at(s, 0, 2)),
            swap(at(s, 0, 2), at(A, 6, 2)),
        ]);
        assert!(handoff.arena_ready, "the arena went with the span");
        // Never touched: never grown.
        let (_, _, arena) = run(vec![swap(at(A, 0, 2), at(A, 2, 2))]);
        assert_eq!(arena, 0);
    }
}
