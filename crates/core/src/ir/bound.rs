//! A rank's program bound to its buffers: the one place a compiled step
//! is resolved into what a backend does.
//!
//! [`execute`](super::execute) binds the calling rank's steps to the
//! call's buffers ([`BoundProgram`]) and hands them to
//! [`Comm::run_program`](crate::comm::Comm::run_program). Whoever walks
//! them — the trait's default body, through the backend's own calls, or
//! a backend that walks programs itself (the simulator's engine) — asks
//! [`BoundProgram::step`] for each step in turn. A copy, a fold or a
//! permutation runs inside `step`, checked (element alignment, bounds,
//! read-only and absent buffers, overlap, equal operand lengths, a
//! permutation's blocks against its radices; a failed check is an
//! `Err`, never a panic), and comes back with the regions it touched; a
//! clock step or a transfer comes back as a [`StepAction`] for the
//! walker to charge or post.
//!
//! The scratch arena is grown and zeroed at the first step that touches
//! it, which is where the direct path first touches its workspace: a
//! simulated 1 MiB allgather whose 512 ranks zeroed theirs up front held
//! twice the memory (558 → 1 109 MB when measured).
//!
//! A fused receive ([`StepKind::RecvReduce`] /
//! [`StepKind::SendRecvReduce`]) comes back with its accumulator and the
//! bound ⊕ ([`Fold`]): a walker folds the message into it, out of the
//! sender's bytes where it can see them. One that cannot receives into
//! the landing, the arena's tail past the scratch — which exists only
//! once the walker has asked for it ([`BoundProgram::ready_landing`]).
//! The simulator's engine never asks: its 512 ranks' landings were
//! 256 MiB of a 1 MiB allreduce.

use super::exec::ArgBuf;
use super::{Buf, CollectiveProgram, Loc, Step, StepKind};
use crate::algorithms::unpermute;
use crate::cast::{grow_arena, regrow_arena, typed_mut, Scalar};
use crate::comm::Tag;
use crate::error::{CommError, Result};
use crate::op::ReduceOp;
use std::ops::Range;

/// Argument slots a program can have: every [`PlanOp`](super::PlanOp)
/// has one or two.
const MAX_ARGS: usize = 2;

/// One rank's compiled steps bound to the buffers of one call: what
/// [`Comm::run_program`](crate::comm::Comm::run_program) receives.
///
/// The arguments are held as byte views of the caller's typed buffers
/// and the ⊕ as one monomorphized `fn(ReduceOp, &mut [u8], &[u8])`, so
/// a backend needs no type parameter to run a program of any element
/// type.
pub struct BoundProgram<'a> {
    plan_id: u64,
    steps: &'a [Step],
    /// The program's radices table, which its permutations index.
    radices: &'a [Vec<usize>],
    /// Logical rank → world rank of the group the program runs in.
    members: &'a [usize],
    args: [ArgBuf<'a, u8>; MAX_ARGS],
    nargs: usize,
    /// The scratch arena and the bytes of it this program uses; grown
    /// and zeroed on the first step that touches it (`zeroed`).
    arena: &'a mut Vec<u64>,
    scratch_bytes: usize,
    zeroed: bool,
    /// The landing past the scratch, once a walker has asked for it.
    landing_bytes: usize,
    landing: bool,
    fold: Fold,
    base_tag: Tag,
}

/// The bound ⊕ over byte views of whole elements: what a fused receive
/// folds its message into its accumulator with.
#[derive(Debug, Clone, Copy)]
pub struct Fold {
    rop: ReduceOp,
    fold: fn(ReduceOp, &mut [u8], &[u8]),
    combine: fn(ReduceOp, &mut [u8], &[u8], &[u8]),
    /// The element size less one: a mask, every element size being a
    /// power of two.
    align: u32,
}

impl Fold {
    /// `acc ⊕= other`, both whole elements of equal length; `other` may
    /// lie at any address (a lent window promises no alignment).
    #[inline]
    pub fn apply(&self, acc: &mut [u8], other: &[u8]) {
        // A fold of nothing (the short-vector recursion's leaves) skips
        // the indirect call.
        if !acc.is_empty() {
            (self.fold)(self.rop, acc, other);
        }
    }

    /// `out = arrived ⊕ other` in one pass, all whole elements of equal
    /// length, `out`'s contents ignored: what a fused combine
    /// ([`StepAction::SendRecvCombine`]) does with a message it sees
    /// where it lies, bit for bit `out = arrived` then `out ⊕= other`
    /// (a NaN ⊕ NaN is a NaN of either payload, as in
    /// [`ReduceOp::combine_into`]).
    /// `arrived` may lie at any address.
    #[inline]
    pub fn combine(&self, out: &mut [u8], arrived: &[u8], other: &[u8]) {
        if !out.is_empty() {
            (self.combine)(self.rop, out, arrived, other);
        }
    }

    /// The element size: a fold may be cut only at multiples of it.
    pub fn elem_size(&self) -> usize {
        self.align as usize + 1
    }
}

/// What one step of a [`BoundProgram`] is for its walker. Peers are
/// world ranks and tags absolute.
#[derive(Debug)]
pub enum StepAction<'p> {
    /// A copy [`BoundProgram::step`] ran: `src` was copied into `dst`.
    Copy {
        /// The bytes read.
        src: &'p [u8],
        /// The bytes written.
        dst: &'p [u8],
    },
    /// A fold [`BoundProgram::step`] ran: `other` was folded into `acc`.
    Reduce {
        /// The accumulator, read and written.
        acc: &'p [u8],
        /// The contribution, read.
        other: &'p [u8],
    },
    /// A permutation [`BoundProgram::step`] ran: `region`'s blocks were
    /// un-permuted in place, one at a time held in `held`.
    Permute {
        /// The bytes permuted.
        region: &'p [u8],
        /// The held block.
        held: &'p [u8],
        /// The permutation's radices.
        radices: &'p [usize],
    },
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
    /// Receive from `from` and fold the message into `acc` with `fold`.
    RecvReduce {
        /// Source world rank.
        from: usize,
        /// Absolute tag.
        tag: Tag,
        /// The accumulator; its length is the expected message's.
        acc: &'p mut [u8],
        /// Where the message may land first: `acc`'s length once the
        /// walker has readied it ([`BoundProgram::ready_landing`]),
        /// empty before.
        landing: &'p mut [u8],
        /// The bound ⊕.
        fold: Fold,
    },
    /// Send `data` to `to` while receiving from `from`, the message
    /// combined with `other` into `dst` (`dst = message ⊕ other`): out
    /// of the sender's bytes with [`Fold::combine`] where the walker
    /// sees them, else landed in `dst` and folded with [`Fold::apply`].
    /// `dst` is disjoint from `data` and `other`.
    SendRecvCombine {
        /// Destination world rank of the send half.
        to: usize,
        /// The bytes to send.
        data: &'p [u8],
        /// Source world rank of the receive half.
        from: usize,
        /// Where the combined message goes; its length is the expected
        /// message's.
        dst: &'p mut [u8],
        /// What the message is combined with.
        other: &'p [u8],
        /// Absolute tag of both halves.
        tag: Tag,
        /// The bound ⊕.
        fold: Fold,
    },
    /// Send `data` to `to` while receiving from `from` into a fold into
    /// `acc`, which is disjoint from `data`.
    SendRecvReduce {
        /// Destination world rank of the send half.
        to: usize,
        /// The bytes to send.
        data: &'p [u8],
        /// Source world rank of the receive half.
        from: usize,
        /// The accumulator of the receive half.
        acc: &'p mut [u8],
        /// As for [`StepAction::RecvReduce`].
        landing: &'p mut [u8],
        /// Absolute tag of both halves.
        tag: Tag,
        /// The bound ⊕.
        fold: Fold,
    },
}

impl<'a> BoundProgram<'a> {
    /// Binds rank `me`'s program of `prog` to one call: `members` maps
    /// the program's logical ranks to world ranks, `args` are the call's
    /// buffers in slot order, `arena` the reusable scratch arena, `rop`
    /// the ⊕ and `base_tag` the tag every step's offset is added to.
    /// [`execute`](super::execute) is what binds programs; this is
    /// public so that a backend's own tests can bind one.
    #[inline]
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
        const { assert!(T::SIZE.is_power_of_two()) };
        let nargs = args.len();
        let mut bytes = std::array::from_fn(|_| ArgBuf::Absent);
        for (view, arg) in bytes.iter_mut().zip(args.iter_mut()) {
            *view = match arg {
                ArgBuf::In(b) => ArgBuf::In(T::as_bytes(b)),
                ArgBuf::Out(b) => ArgBuf::Out(T::as_bytes_mut(b)),
                ArgBuf::Absent => ArgBuf::Absent,
            };
        }
        Ok(BoundProgram {
            plan_id: prog.plan_id,
            steps: &rp.steps,
            radices: &prog.radices,
            members,
            args: bytes,
            nargs,
            arena,
            scratch_bytes: rp.scratch_bytes,
            zeroed: false,
            landing_bytes: rp.landing_bytes,
            landing: false,
            fold: Fold {
                rop,
                fold: fold_bytes::<T>,
                combine: combine_bytes::<T>,
                align: T::SIZE as u32 - 1,
            },
            base_tag,
        })
    }

    /// The compiled program's id, for attributing transfers.
    pub fn plan_id(&self) -> u64 {
        self.plan_id
    }

    /// The rank's compiled steps, in program order.
    pub fn steps(&self) -> &'a [Step] {
        self.steps
    }

    /// Grows and zeroes the arena now if any of `steps` touches it, for
    /// a walker that must not allocate (the simulator's engine): its
    /// caller readies the arena for the steps it hands over.
    pub fn ready_scratch(&mut self, steps: Range<usize>) {
        let touched = self.steps.get(steps).unwrap_or_default();
        if touched.iter().any(|s| touches_scratch(&s.kind)) {
            self.zero_scratch();
        }
    }

    /// Readies the landing past the scratch, for a walker that receives
    /// a fused step's message before it folds it: grows the arena (once;
    /// never for a program without fused receives). The landing is not
    /// zeroed, and growing it writes none of it: every fused receive
    /// overwrites what it folds, and one the backend folds out of the
    /// sender's bytes never touches it.
    pub fn ready_landing(&mut self) {
        if self.landing_bytes > 0 {
            let words = (self.landing_at() + self.landing_bytes).div_ceil(WORD);
            match self.zeroed {
                true => grow_arena(self.arena, words),
                // Nothing of this run is in the arena yet.
                false => regrow_arena(self.arena, words),
            }
        }
        self.landing = true;
    }

    /// Step `i`: a copy, a fold or a permutation runs here and now and
    /// is returned with the regions it touched; a clock step or a
    /// transfer is returned for the walker, with its peers mapped to
    /// world ranks and its operands resolved to byte windows of the
    /// bound buffers.
    ///
    /// Errs, and touches nothing, on a malformed operand
    /// ([`CommError::PlanMismatch`]) or a peer outside the group
    /// ([`CommError::InvalidRank`]).
    ///
    /// Always inlined, with its operand resolution: a walker's loop then
    /// dispatches each step once. Called out of line, a planned
    /// one-element allreduce on a null transport took 1.4× as long.
    #[inline(always)]
    pub fn step(&mut self, i: usize) -> Result<StepAction<'_>> {
        let kind = self
            .steps
            .get(i)
            .ok_or(CommError::PlanMismatch {
                what: "step index outside the program",
            })?
            .kind;
        let base = self.base_tag;
        let tag = |off: u32| base + u64::from(off);
        let fold = self.fold;
        Ok(match kind {
            StepKind::Copy { src, dst }
            | StepKind::Reduce {
                acc: dst,
                other: src,
            } => {
                let (src, dst) = self.operands(&src, &dst)?;
                match kind {
                    StepKind::Copy { .. } => {
                        dst.copy_from_slice(src);
                        StepAction::Copy { src, dst }
                    }
                    _ => {
                        fold.apply(dst, src);
                        StepAction::Reduce {
                            acc: dst,
                            other: src,
                        }
                    }
                }
            }
            StepKind::Permute {
                region,
                held,
                radices,
            } => {
                let table = self.radices;
                let radices = table
                    .get(usize::from(radices))
                    .ok_or(CommError::PlanMismatch {
                        what: "permutation radices outside the program's table",
                    })?;
                let (region, held) = self.permuted(&region, &held, radices)?;
                unpermute(radices, region, held);
                StepAction::Permute {
                    region,
                    held,
                    radices,
                }
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
                let (buf, _) = self.write(&dst)?;
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
                let ([data], buf, _) = self.read_write([&src], &dst)?;
                StepAction::SendRecv {
                    to,
                    data,
                    from,
                    buf,
                    tag,
                }
            }
            StepKind::RecvReduce { from, tag_off, acc } => {
                let (from, tag) = (self.member(from)?, tag(tag_off));
                let (acc, landing) = self.write(&acc)?;
                let landing = landing_for(landing, acc.len())?;
                StepAction::RecvReduce {
                    from,
                    tag,
                    acc,
                    landing,
                    fold,
                }
            }
            StepKind::SendRecvReduce {
                to,
                src,
                from,
                acc,
                tag_off,
            } => {
                let (to, from, tag) = (self.member(to)?, self.member(from)?, tag(tag_off));
                let ([data], acc, landing) = self.read_write([&src], &acc)?;
                let landing = landing_for(landing, acc.len())?;
                StepAction::SendRecvReduce {
                    to,
                    data,
                    from,
                    acc,
                    landing,
                    tag,
                    fold,
                }
            }
            StepKind::SendRecvCombine {
                to,
                from,
                src,
                dst,
                other,
                len,
                tag_off,
            } => {
                let (to, from, tag) = (self.member(to)?, self.member(from)?, tag(tag_off));
                let ([data, other], dst, _) = self.read_write(
                    [&src.with_len(len), &other.with_len(len)],
                    &dst.with_len(len),
                )?;
                StepAction::SendRecvCombine {
                    to,
                    data,
                    from,
                    dst,
                    other,
                    tag,
                    fold,
                }
            }
        })
    }

    /// The world rank of logical rank `r`.
    #[inline]
    fn member(&self, r: u16) -> Result<usize> {
        let size = self.members.len();
        let r = usize::from(r);
        self.members
            .get(r)
            .copied()
            .ok_or(CommError::InvalidRank { rank: r, size })
    }

    /// Where the landing starts in the arena: at the first word past the
    /// scratch.
    fn landing_at(&self) -> usize {
        self.scratch_bytes.next_multiple_of(WORD)
    }

    /// Grows (on first use) and zeroes the arena, once per run: the
    /// programs were lowered from replays over fresh zeroed workspace.
    #[cold]
    fn zero_scratch(&mut self) {
        if self.zeroed {
            return;
        }
        let words = self.scratch_bytes.div_ceil(WORD);
        match self.arena.get_mut(..words) {
            Some(scratch) => scratch.fill(0),
            // Shorter than the scratch, so no landing is readied past
            // it: nothing to keep.
            None => regrow_arena(self.arena, words),
        }
        self.zeroed = true;
    }

    /// The bound arguments, the arena's scratch bytes — grown and zeroed
    /// first if `touch`, empty before that — and its landing, if readied.
    #[inline]
    fn buffers(&mut self, touch: bool) -> Buffers<'_, 'a> {
        if touch && !self.zeroed {
            self.zero_scratch();
        }
        let at = self.landing_at();
        let bytes = u64::as_bytes_mut(self.arena);
        let (scratch, landing) = bytes.split_at_mut(at.min(bytes.len()));
        let scratch = match self.zeroed {
            true => &mut scratch[..self.scratch_bytes],
            false => &mut [],
        };
        let landing = self.landing.then(|| &mut landing[..self.landing_bytes]);
        (&mut self.args[..self.nargs], scratch, landing)
    }

    /// The bytes of `loc`, `Err` unless it starts and ends on element
    /// boundaries.
    #[inline]
    fn range(&self, loc: &Loc) -> Result<Range<usize>> {
        match (loc.off | loc.len) & self.fold.align {
            0 => Ok(loc.bytes()),
            _ => Err(CommError::PlanMismatch {
                what: "step operand not aligned to the element size",
            }),
        }
    }

    #[inline]
    fn read(&mut self, loc: &Loc) -> Result<&[u8]> {
        let r = self.range(loc)?;
        let (args, scratch, _) = self.buffers(touches(loc));
        match loc.buf {
            Buf::Scratch => scratch.get(r).ok_or(OOB),
            Buf::Arg(i) => arg_read(args.get(usize::from(i)).ok_or(OOB)?, r),
        }
    }

    /// The bytes of `loc` to write, and the landing.
    #[inline]
    fn write(&mut self, loc: &Loc) -> Result<(&mut [u8], Option<&mut [u8]>)> {
        let r = self.range(loc)?;
        let (args, scratch, landing) = self.buffers(touches(loc));
        let w = match loc.buf {
            Buf::Scratch => scratch.get_mut(r).ok_or(OOB)?,
            Buf::Arg(i) => arg_write(args.get_mut(usize::from(i)).ok_or(OOB)?, r)?,
        };
        Ok((w, landing))
    }

    /// Shared reads of `rlocs` and a mutable write of `wloc`, splitting
    /// borrows across (or within) buffers, and the landing. The reads
    /// may share bytes with each other; `Err` where one shares a byte
    /// with the write — the verifier proves compiled programs never
    /// produce that. An empty read of the written buffer reads nothing.
    #[inline(always)]
    #[allow(clippy::type_complexity)]
    fn read_write<const N: usize>(
        &mut self,
        rlocs: [&Loc; N],
        wloc: &Loc,
    ) -> Result<([&[u8]; N], &mut [u8], Option<&mut [u8]>)> {
        let mut rr: [Range<usize>; N] = std::array::from_fn(|_| 0..0);
        for (r, loc) in rr.iter_mut().zip(rlocs) {
            *r = self.range(loc)?;
        }
        let wr = self.range(wloc)?;
        let touch = touches(wloc) || rlocs.iter().any(|loc| touches(loc));
        let (args, scratch, landing) = self.buffers(touch);
        // The written buffer, lent mutably, apart from all the others.
        let (lo, written, hi, scratch) = match wloc.buf {
            Buf::Scratch => (&*args, scratch, &[][..], None),
            Buf::Arg(j) => {
                let j = usize::from(j);
                if j >= args.len() {
                    return Err(OOB);
                }
                let (lo, rest) = args.split_at_mut(j);
                let (written, hi) = rest.split_first_mut().ok_or(OOB)?;
                let written = match written {
                    ArgBuf::Out(b) => &mut **b,
                    ArgBuf::In(_) => return Err(READ_ONLY),
                    ArgBuf::Absent => return Err(ABSENT),
                };
                (&*lo, written, &*hi, Some(&*scratch))
            }
        };
        let (around, dst) = carve(written, wr)?;
        let mut reads: [&[u8]; N] = [&[]; N];
        for ((read, loc), r) in reads.iter_mut().zip(rlocs).zip(rr) {
            *read = match (loc.buf, scratch) {
                (b, _) if b == wloc.buf => around.read(r)?,
                (Buf::Scratch, Some(scratch)) => scratch.get(r).ok_or(OOB)?,
                (Buf::Arg(i), _) => {
                    let i = usize::from(i);
                    let arg = match (i.checked_sub(lo.len()), wloc.buf) {
                        (None, _) => lo.get(i),
                        (Some(k), Buf::Arg(_)) => hi.get(k.checked_sub(1).ok_or(OOB)?),
                        (Some(_), Buf::Scratch) => None,
                    };
                    arg_read(arg.ok_or(OOB)?, r)?
                }
                (Buf::Scratch, None) => unreachable!("the write is the arena's"),
            };
        }
        Ok((reads, dst, landing))
    }

    /// The operands of a permutation over `radices`: its region and its
    /// held block, `Err` unless the block is a non-empty block of the
    /// arena, disjoint from the region, and the region is that block's
    /// length times the radices' product.
    fn permuted(
        &mut self,
        region: &Loc,
        held: &Loc,
        radices: &[usize],
    ) -> Result<(&mut [u8], &mut [u8])> {
        let blocks = radices.iter().try_fold(1, |n: usize, &d| n.checked_mul(d));
        let bytes = blocks.and_then(|n| n.checked_mul(held.len as usize));
        if held.buf != Buf::Scratch || held.len == 0 || bytes != Some(region.len as usize) {
            return Err(CommError::PlanMismatch {
                what: "a permutation's held block is not one of its region's blocks, in the arena",
            });
        }
        let (rr, hr) = (self.range(region)?, self.range(held)?);
        let (args, scratch, _) = self.buffers(true);
        match region.buf {
            Buf::Scratch => split_mut(scratch, rr, hr),
            Buf::Arg(i) => {
                let region = arg_write(args.get_mut(usize::from(i)).ok_or(OOB)?, rr)?;
                Ok((region, scratch.get_mut(hr).ok_or(OOB)?))
            }
        }
    }

    /// The operands of a copy or a fold, `Err` unless they are equally
    /// long.
    #[inline(always)]
    fn operands(&mut self, src: &Loc, dst: &Loc) -> Result<(&[u8], &mut [u8])> {
        let ([src], dst, _) = self.read_write([src], dst)?;
        if src.len() != dst.len() {
            return Err(CommError::PlanMismatch {
                what: "step operands differ in length",
            });
        }
        Ok((src, dst))
    }
}

/// What [`BoundProgram::buffers`] lends: the argument views, the scratch
/// and the landing.
type Buffers<'s, 'a> = (&'s mut [ArgBuf<'a, u8>], &'s mut [u8], Option<&'s mut [u8]>);

/// Bytes per arena word.
const WORD: usize = std::mem::size_of::<u64>();

/// A fused receive's landing: the first `len` bytes of the readied
/// landing, or nothing where it was not readied.
#[inline]
fn landing_for(landing: Option<&mut [u8]>, len: usize) -> Result<&mut [u8]> {
    match landing {
        Some(landing) => landing.get_mut(..len).ok_or(OOB),
        None => Ok(&mut []),
    }
}

const OOB: CommError = CommError::PlanMismatch {
    what: "step operand out of buffer bounds",
};

const READ_ONLY: CommError = CommError::PlanMismatch {
    what: "step writes a read-only buffer",
};

const ABSENT: CommError = CommError::PlanMismatch {
    what: "step writes an absent buffer",
};

#[inline(always)]
fn arg_read<'x>(arg: &'x ArgBuf<'_, u8>, r: Range<usize>) -> Result<&'x [u8]> {
    match arg {
        ArgBuf::In(b) => b.get(r).ok_or(OOB),
        ArgBuf::Out(b) => b.get(r).ok_or(OOB),
        ArgBuf::Absent => Err(CommError::PlanMismatch {
            what: "step reads an absent buffer",
        }),
    }
}

#[inline(always)]
fn arg_write<'x>(arg: &'x mut ArgBuf<'_, u8>, r: Range<usize>) -> Result<&'x mut [u8]> {
    match arg {
        ArgBuf::Out(b) => b.get_mut(r).ok_or(OOB),
        ArgBuf::In(_) => Err(READ_ONLY),
        ArgBuf::Absent => Err(ABSENT),
    }
}

/// `buf` lent around its written range `w`: `w`'s own bytes (mutable)
/// and the rest (shared), `Err` where `w` runs past the end.
#[inline(always)]
fn carve(buf: &mut [u8], w: Range<usize>) -> Result<(Around<'_>, &mut [u8])> {
    if w.end > buf.len() {
        return Err(OOB);
    }
    if w.is_empty() {
        return Ok((
            Around {
                before: buf,
                after: &[],
                w: 0..0,
            },
            &mut [],
        ));
    }
    let (before, rest) = buf.split_at_mut(w.start);
    let (mid, after) = rest.split_at_mut(w.len());
    Ok((Around { before, after, w }, mid))
}

/// The readable rest of a buffer [`carve`]d around its written range
/// `w`: the bytes before it and those after it (all of them, before,
/// where `w` is empty).
struct Around<'x> {
    before: &'x [u8],
    after: &'x [u8],
    w: Range<usize>,
}

impl<'x> Around<'x> {
    /// The bytes `r`, `Err` if they share one with the write.
    #[inline(always)]
    fn read(&self, r: Range<usize>) -> Result<&'x [u8]> {
        if r.is_empty() {
            Ok(&[])
        } else if r.end <= self.w.start || self.w.is_empty() {
            self.before.get(r).ok_or(OOB)
        } else if r.start >= self.w.end {
            self.after
                .get(r.start - self.w.end..r.end - self.w.end)
                .ok_or(OOB)
        } else {
            Err(CommError::PlanMismatch {
                what: "overlapping read/write operands in one step",
            })
        }
    }
}

/// Disjoint mutable views of two ranges of one buffer.
#[inline(always)]
fn split_mut(buf: &mut [u8], a: Range<usize>, b: Range<usize>) -> Result<(&mut [u8], &mut [u8])> {
    if b.is_empty() {
        return Ok((buf.get_mut(a).ok_or(OOB)?, &mut []));
    }
    if a.is_empty() {
        return Ok((&mut [], buf.get_mut(b).ok_or(OOB)?));
    }
    if a.end <= b.start {
        let (lo, hi) = buf.split_at_mut(b.start);
        Ok((lo.get_mut(a).ok_or(OOB)?, hi.get_mut(..b.len()).ok_or(OOB)?))
    } else if b.end <= a.start {
        let (lo, hi) = buf.split_at_mut(a.start);
        Ok((hi.get_mut(..a.len()).ok_or(OOB)?, lo.get_mut(b).ok_or(OOB)?))
    } else {
        Err(CommError::PlanMismatch {
            what: "overlapping read/write operands in one step",
        })
    }
}

/// Whether `loc` is any byte of the arena.
#[inline]
fn touches(loc: &Loc) -> bool {
    loc.buf == Buf::Scratch && loc.len > 0
}

/// Whether `kind` reads or writes any byte of the arena (a fused
/// receive's landing is not the scratch).
fn touches_scratch(kind: &StepKind) -> bool {
    match kind {
        StepKind::Send { src: a, .. }
        | StepKind::Recv { dst: a, .. }
        | StepKind::RecvReduce { acc: a, .. } => touches(a),
        StepKind::SendRecvCombine {
            src,
            dst,
            other,
            len,
            ..
        } => [src, dst, other]
            .iter()
            .any(|at| touches(&at.with_len(*len))),
        StepKind::SendRecv { src: a, dst: b, .. }
        | StepKind::SendRecvReduce { src: a, acc: b, .. }
        | StepKind::Copy { src: a, dst: b }
        | StepKind::Reduce { acc: a, other: b }
        | StepKind::Permute {
            region: a, held: b, ..
        } => touches(a) || touches(b),
        StepKind::Compute { .. } | StepKind::CallOverhead => false,
    }
}

/// `out = arrived ⊕ other` over byte views of `T` elements: `out` and
/// `other` aligned (`T` slices' or the word arena's, at offsets checked
/// to be whole elements), `arrived` anywhere.
fn combine_bytes<T: Scalar>(op: ReduceOp, out: &mut [u8], arrived: &[u8], other: &[u8]) {
    let out = typed_mut::<T>(out).expect("bound operands are aligned whole elements");
    let other = T::from_bytes(other).expect("bound operands are aligned whole elements");
    match T::from_bytes(arrived) {
        Some(arrived) => op.combine_into(out, arrived, other),
        // Element by element through an aligned word.
        None => {
            assert_eq!(
                out.len() * T::SIZE,
                arrived.len(),
                "combine length mismatch"
            );
            for ((o, a), &b) in out.iter_mut().zip(arrived.chunks_exact(T::SIZE)).zip(other) {
                let mut word = [0u64];
                u64::as_bytes_mut(&mut word)[..T::SIZE].copy_from_slice(a);
                let a = T::from_bytes(&u64::as_bytes(&word)[..T::SIZE]).expect("a word is aligned");
                *o = T::combine(op, a[0], b);
            }
        }
    }
}

/// `acc ⊕= other` over byte views of `T` elements: `acc` aligned (a `T`
/// slice's or the word arena's, at an offset checked to be whole
/// elements), `other` anywhere.
fn fold_bytes<T: Scalar>(op: ReduceOp, acc: &mut [u8], other: &[u8]) {
    let acc = typed_mut::<T>(acc).expect("bound operands are aligned whole elements");
    match T::from_bytes(other) {
        Some(other) => op.fold_into(acc, other),
        // Element by element through an aligned word.
        None => {
            assert_eq!(acc.len() * T::SIZE, other.len(), "combine length mismatch");
            for (a, b) in acc.iter_mut().zip(other.chunks_exact(T::SIZE)) {
                let mut word = [0u64];
                u64::as_bytes_mut(&mut word)[..T::SIZE].copy_from_slice(b);
                *a = T::combine(
                    op,
                    *a,
                    T::from_bytes(&u64::as_bytes(&word)[..T::SIZE]).expect("a word is aligned")[0],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{PlanOp, RankProgram};
    use super::*;
    use crate::cast::tests::{assert_same, for_every_scalar, operand, Edges, OPS};

    /// `T`'s `fold_bytes` and `combine_bytes` with the arrived operand
    /// one byte off its alignment — the element-by-element word path —
    /// against the aligned operand, which the kernel folds.
    fn misaligned_operands_fold_as_aligned_ones<T: Edges>() {
        for op in OPS {
            for len in 0..=129 {
                let salt = (len as u64) << 8 | T::SIZE as u64;
                let (a, b) = (operand::<T>(len, salt), operand::<T>(len, !salt));
                let bytes = len * T::SIZE;
                let mut words = vec![0u64; bytes.div_ceil(8) + 1];
                let shifted = &mut u64::as_bytes_mut(&mut words)[1..=bytes];
                shifted.copy_from_slice(T::as_bytes(&b));
                let what = format!("{op:?} over {len} {}", std::any::type_name::<T>());

                let mut aligned = a.clone();
                fold_bytes::<T>(op, T::as_bytes_mut(&mut aligned), T::as_bytes(&b));
                let mut misaligned = a.clone();
                fold_bytes::<T>(op, T::as_bytes_mut(&mut misaligned), shifted);
                assert_same(
                    &misaligned,
                    &aligned,
                    &a,
                    &b,
                    &format!("fold_bytes, {what}"),
                );

                let mut aligned = vec![T::default(); len];
                combine_bytes::<T>(
                    op,
                    T::as_bytes_mut(&mut aligned),
                    T::as_bytes(&b),
                    T::as_bytes(&a),
                );
                let mut misaligned = vec![T::default(); len];
                combine_bytes::<T>(
                    op,
                    T::as_bytes_mut(&mut misaligned),
                    shifted,
                    T::as_bytes(&a),
                );
                assert_same(
                    &misaligned,
                    &aligned,
                    &b,
                    &a,
                    &format!("combine_bytes, {what}"),
                );
            }
        }
    }

    #[test]
    fn misaligned_folds_and_combines_equal_the_kernels() {
        for_every_scalar!(misaligned_operands_fold_as_aligned_ones);
    }

    #[test]
    fn the_arena_is_zeroed_at_the_first_step_that_touches_it() {
        let (a, s) = (Buf::Arg(0), Buf::Scratch);
        let at = |buf, off, len| Loc { buf, off, len };
        let steps = [
            StepKind::Compute { bytes: 1 },
            StepKind::Copy {
                src: at(a, 0, 4),
                dst: at(s, 0, 4),
            },
        ];
        let prog = CollectiveProgram {
            plan_id: 3,
            op: PlanOp::Broadcast { root: 0 },
            p: 1,
            n: 4,
            elem_size: 1,
            strategy: None,
            hier: None,
            radices: Vec::new(),
            ranks: vec![RankProgram {
                steps: steps.iter().map(|&kind| Step { kind }).collect(),
                scratch_bytes: 4,
                landing_bytes: 0,
            }],
            series: Default::default(),
        };
        // An arena an earlier call left dirty is zeroed in place; an
        // empty one is grown.
        for (mut arena, grown) in [(vec![u64::MAX; 2], 2), (Vec::new(), 1)] {
            let mut buf = [1u8, 2, 3, 4];
            let args = &mut [ArgBuf::Out(&mut buf[..])];
            let mut p =
                BoundProgram::new(&prog, 0, &[0], args, &mut arena, ReduceOp::Sum, 0).unwrap();
            p.ready_scratch(0..1);
            assert!(matches!(p.step(0), Ok(StepAction::Compute(1))));
            assert!(!p.zeroed, "a clock step leaves the arena alone");
            p.ready_scratch(0..2);
            assert!(p.zeroed);
            assert!(matches!(p.step(1), Ok(StepAction::Copy { .. })));
            assert_eq!(arena.len(), grown);
            assert_eq!(arena[0].to_le_bytes(), [1, 2, 3, 4, 0, 0, 0, 0]);
        }
    }

    #[test]
    fn a_fused_receive_lands_only_once_readied_and_folds_any_window() {
        let at = |off, len| Loc {
            buf: Buf::Arg(0),
            off,
            len,
        };
        let fold = StepKind::RecvReduce {
            from: 0,
            tag_off: 0,
            acc: at(4, 8),
        };
        let prog = CollectiveProgram {
            plan_id: 3,
            op: PlanOp::AllReduce,
            p: 1,
            n: 4,
            elem_size: 4,
            strategy: None,
            hier: None,
            radices: Vec::new(),
            ranks: vec![RankProgram {
                steps: vec![Step { kind: fold }],
                scratch_bytes: 0,
                landing_bytes: 8,
            }],
            series: Default::default(),
        };
        let (mut buf, mut arena) = ([1u32, 2, 3, 4], Vec::new());
        {
            let args = &mut [ArgBuf::Out(&mut buf[..])];
            let mut p =
                BoundProgram::new(&prog, 0, &[0], args, &mut arena, ReduceOp::Sum, 0).unwrap();
            let Ok(StepAction::RecvReduce { landing, .. }) = p.step(0) else {
                panic!("a fused receive");
            };
            assert!(landing.is_empty(), "no landing until a walker asks");
            p.ready_landing();
            let Ok(StepAction::RecvReduce {
                acc, landing, fold, ..
            }) = p.step(0)
            else {
                panic!("a fused receive");
            };
            assert_eq!(landing.len(), 8);
            // A window one byte off a word: folded element by element.
            let mut words = [0u64; 2];
            let bytes = u64::as_bytes_mut(&mut words);
            bytes[1..5].copy_from_slice(&10u32.to_ne_bytes());
            bytes[5..9].copy_from_slice(&20u32.to_ne_bytes());
            let window = &bytes[1..9];
            assert!(u32::from_bytes(window).is_none());
            fold.apply(acc, window);
        }
        assert_eq!(buf, [1, 12, 23, 4]);
        assert_eq!(arena.len(), 1, "the landing was grown to one word");
    }

    #[test]
    fn a_malformed_permutation_errs_and_moves_nothing() {
        // Four blocks of two `u16`s under radices [2, 2], held at the
        // start of a 24-byte arena.
        let (arg, scr) = (
            |off, len| Loc {
                buf: Buf::Arg(0),
                off,
                len,
            },
            |off, len| Loc {
                buf: Buf::Scratch,
                off,
                len,
            },
        );
        let run = |region, held, radices, read_only: bool| {
            let prog = CollectiveProgram {
                plan_id: 3,
                op: PlanOp::Broadcast { root: 0 },
                p: 1,
                n: 8,
                elem_size: 2,
                strategy: None,
                hier: None,
                radices: vec![vec![2, 2]],
                ranks: vec![RankProgram {
                    steps: vec![Step {
                        kind: StepKind::Permute {
                            region,
                            held,
                            radices,
                        },
                    }],
                    scratch_bytes: 24,
                    landing_bytes: 0,
                }],
                series: Default::default(),
            };
            let (mut buf, mut arena) = ([0u16, 1, 2, 3, 4, 5, 6, 7], Vec::new());
            let arg = match read_only {
                true => ArgBuf::In(&buf[..]),
                false => ArgBuf::Out(&mut buf[..]),
            };
            let ok = BoundProgram::new(&prog, 0, &[0], &mut [arg], &mut arena, ReduceOp::Sum, 0)
                .unwrap()
                .step(0)
                .is_ok();
            (ok, buf)
        };
        // Slots 0, 1, 2, 3 hold ranks 0, 2, 1, 3.
        assert_eq!(
            run(arg(0, 16), scr(0, 4), 0, false),
            (true, [0, 1, 4, 5, 2, 3, 6, 7])
        );
        let untouched = (false, [0, 1, 2, 3, 4, 5, 6, 7]);
        for (region, held, radices) in [
            (arg(0, 16), scr(0, 4), 1),  // radices outside the table
            (arg(0, 12), scr(0, 4), 0),  // three blocks under [2, 2]
            (arg(0, 16), scr(0, 0), 0),  // an empty held block
            (arg(0, 8), arg(8, 2), 0),   // a held block outside the arena
            (scr(0, 16), scr(12, 4), 0), // held within the region
            (arg(1, 16), scr(0, 4), 0),  // half an element in
            (arg(4, 16), scr(0, 4), 0),  // past the argument's end
            (arg(0, 16), scr(22, 4), 0), // past the arena's end
        ] {
            assert_eq!(
                run(region, held, radices, false),
                untouched,
                "{region:?} {held:?}"
            );
        }
        assert_eq!(
            run(arg(0, 16), scr(0, 4), 0, true),
            untouched,
            "a read-only region"
        );
    }

    #[test]
    fn carve_handles_order_and_overlap() {
        let mut v = [1, 2, 3, 4, 5, 6];
        let (around, w) = carve(&mut v, 4..6).unwrap();
        assert_eq!(around.read(0..2).unwrap(), &[1, 2]);
        assert_eq!(w, &mut [5, 6]);
        let (around, w) = carve(&mut v, 0..2).unwrap();
        assert_eq!(around.read(3..6).unwrap(), &[4, 5, 6]);
        assert_eq!(w.len(), 2);
        let (around, _) = carve(&mut v, 2..5).unwrap();
        assert!(around.read(0..3).is_err());
        assert!(around.read(4..6).is_err());
        assert_eq!(around.read(3..3).unwrap(), &[] as &[u8]);
        // An empty write lends the whole buffer to the reads.
        let (around, w) = carve(&mut v, 3..3).unwrap();
        assert_eq!(around.read(2..5).unwrap(), &[3, 4, 5]);
        assert!(w.is_empty());
        assert!(carve(&mut v, 5..7).is_err());
    }
}
