//! The point-to-point layer and logical-rank group views.
//!
//! Porting the paper's library to a new platform means "changing only the
//! message send and receive calls to the native point-to-point
//! communication library" (§11). [`Comm`] is that porting surface: a
//! blocking send/receive/send-receive triple plus two accounting hooks
//! the timing backends use (`compute` for the γ term, `call_overhead`
//! for the δ recursion overhead of §7.2). Real backends implement the
//! data movement; the accounting hooks default to no-ops. Two provided
//! methods, [`Comm::recv_with`] and [`Comm::sendrecv_with`], let a
//! backend that can lend the arrived bytes hand them to the combining
//! collectives' fold where they lie; a port that leaves them alone
//! behaves exactly as one written before they existed.
//!
//! A compiled program runs through one more provided method,
//! [`Comm::run_program`]. Its default is *the* walk over a program's
//! steps: each becomes the call a collective written against this trait
//! would have made, so every backend runs programs with nothing to
//! implement, and a backend that can do better (the simulator, which
//! hands its engine a whole call) overrides it. [`Comm::default_path`]
//! only routes: from which call of a shape a
//! [`Communicator`](crate::Communicator) call runs its program.
//!
//! [`GroupComm`] layers the paper's §9 group abstraction on top: an
//! ordered member list provides the logical-to-physical mapping, so every
//! collective algorithm is written once in logical ranks and runs
//! unchanged on the whole machine, a mesh row, or an arbitrary group.

use crate::cast::{typed_mut, Scalar};
use crate::error::{CommError, Result};
use crate::ir::{BoundProgram, StepAction};
use crate::op::{Elem, ReduceOp};
use crate::trace::RecordingComm;
use std::sync::Arc;

/// Message tag disambiguating concurrent traffic between the same pair of
/// nodes. Matching is FIFO per `(source, tag)`.
pub type Tag = u64;

/// What a [`Comm::recv_with`] / [`Comm::sendrecv_with`] call does with
/// its message: called with the receive buffer and, when the backend
/// lends them instead of filling it, the arrived bytes where they lie.
pub type Sink<'a> = dyn FnMut(&mut [u8], Option<&[u8]>) + 'a;

/// From which call of a shape a backend's
/// [`Communicator`](crate::Communicator) calls run the shape's deployed
/// program ([`Comm::default_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefaultPath {
    /// Never: every call takes the direct path.
    Direct,
    /// The first (the simulator: its engine takes a program in one
    /// request, and its worlds often make one call each).
    Program,
    /// The second (threads: a compile costs several direct calls, which
    /// a shape that never repeats would not earn back).
    ProgramOnRepeat,
}

/// Blocking point-to-point communication endpoint of one node.
///
/// Semantics required of implementations:
///
/// * `send`/`recv` are blocking and deliver exactly the posted bytes;
///   receivers know message lengths a priori (the paper's "known
///   lengths" mode), and a length mismatch is an error. A `send` may
///   complete only once its receive is posted, so a portable program is
///   deadlock-free under rendezvous sends — what `intercom-verify`
///   proves of every schedule and the simulator enforces.
/// * `sendrecv` makes progress on both transfers concurrently — ring
///   algorithms rely on this to exchange with both neighbours without
///   deadlock (§2: "a processor can both send and receive at the same
///   time").
/// * Message order is preserved per `(sender, tag)`.
pub trait Comm {
    /// This node's world rank (physical node id).
    fn rank(&self) -> usize;

    /// Number of nodes in the world.
    fn size(&self) -> usize;

    /// Blocking send of `data` to world rank `to`.
    fn send(&self, to: usize, tag: Tag, data: &[u8]) -> Result<()>;

    /// Blocking receive from world rank `from` into `buf` (exact length).
    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> Result<()>;

    /// Concurrent send-to / receive-from (possibly different peers).
    fn sendrecv(&self, to: usize, data: &[u8], from: usize, buf: &mut [u8], tag: Tag)
        -> Result<()>;

    /// [`Comm::sendrecv`] with a tag per half, for equal tags only: an
    /// exchange is one recursion stage, and a stage is one tag (§6).
    /// Equal tags go to [`Comm::sendrecv`]; mixed tags are
    /// [`CommError::PlanMismatch`], never a send then a receive, which
    /// would deadlock a long exchange on a backend that rendezvouses.
    /// No backend overrides it; it stays only because the benchmark's
    /// instrumented `Comm` forwards it, and goes with that wrapper.
    fn sendrecv_tagged(
        &self,
        to: usize,
        data: &[u8],
        send_tag: Tag,
        from: usize,
        buf: &mut [u8],
        recv_tag: Tag,
    ) -> Result<()> {
        if send_tag != recv_tag {
            return Err(CommError::PlanMismatch {
                what: "an exchange has one tag",
            });
        }
        self.sendrecv(to, data, from, buf, send_tag)
    }

    /// [`Comm::recv`] with a consumer: on success the backend calls
    /// `sink` exactly once, either after filling `buf` (`sink(buf,
    /// None)`) or with the arrived bytes where they lie and `buf`
    /// untouched (`sink(buf, Some(window))`); on `Err` it never does.
    /// A combining hop hands its fold in here, so a backend that can
    /// lend the sender's bytes (the threaded one, above its rendezvous
    /// threshold) folds straight out of them instead of copying them
    /// into `buf` first. The window promises no alignment.
    ///
    /// The default is `recv` then `sink(buf, None)`: a backend or
    /// wrapper that implements only `send` / `recv` / `sendrecv` issues
    /// exactly the calls it would without this method, in the same
    /// order. A wrapper that wants the inner backend's in-place path
    /// forwards this method too. (`#[inline]`: left out of line the
    /// default costs a null-transport ring step 3 ns of its 4.)
    #[inline]
    fn recv_with(&self, from: usize, tag: Tag, buf: &mut [u8], sink: &mut Sink<'_>) -> Result<()> {
        self.recv(from, tag, buf)?;
        sink(buf, None);
        Ok(())
    }

    /// [`Comm::sendrecv`] with a consumer for the receive half; the
    /// contract and the default are [`Comm::recv_with`]'s.
    #[inline]
    fn sendrecv_with(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
        sink: &mut Sink<'_>,
    ) -> Result<()> {
        self.sendrecv(to, data, from, buf, tag)?;
        sink(buf, None);
        Ok(())
    }

    /// Accounts local combine work over `bytes` bytes (γ term). Real
    /// backends do the arithmetic in caller code; timing backends advance
    /// the local clock.
    fn compute(&self, bytes: usize) {
        let _ = bytes;
    }

    /// Accounts one level of short-vector-primitive recursion overhead
    /// (δ term, §7.2).
    fn call_overhead(&self) {}

    /// Observes a completed local byte copy (`src` was copied into
    /// `dst`). The copy itself is performed by caller code; recording
    /// backends note the regions so schedule lowering sees data movement
    /// that never crosses the network.
    fn local_copy(&self, src: &[u8], dst: &[u8]) {
        let _ = (src, dst);
    }

    /// Observes a completed in-place block un-permutation of `region`
    /// ([`GroupComm::unpermute`]): block `q` moved from slot
    /// `slot_of(radices, q)` to position `q`, one block at a time held
    /// in `held`. Like [`Comm::local_copy`], a recording hook: the
    /// blocks moved in caller code, and a recorder notes one operation
    /// where the moves were one copy per moved block.
    fn local_permute(&self, region: &[u8], held: &[u8], radices: &[usize]) {
        let _ = (region, held, radices);
    }

    /// Observes a completed local reduction (`other` was folded into
    /// `acc`). Like [`Comm::local_copy`], a recording hook: the fold
    /// itself is performed by caller code.
    fn local_reduce(&self, acc: &[u8], other: &[u8]) {
        let _ = (acc, other);
    }

    /// Announces the compiled-plan step about to execute, for trace
    /// attribution: `(plan, step)` identify a step of a cached
    /// `CollectiveProgram` (0 = not executing a compiled plan).
    fn plan_step(&self, plan: u64, step: u64) {
        let _ = (plan, step);
    }

    /// From which call of a shape this backend's
    /// [`Communicator`](crate::Communicator) calls run the shape's
    /// deployed program — what persistent plans run — instead of the
    /// direct path's recursive algorithms. A program is handed over
    /// through [`Comm::run_program`]; a call too large for compact steps
    /// ([`ir::fits_steps`](crate::ir::fits_steps)) takes the direct path
    /// whatever this says. Persistent plans and
    /// [`ir::execute`](crate::ir::execute) run programs whatever this
    /// says.
    ///
    /// The default is [`DefaultPath::Direct`]: a backend or wrapper that
    /// leaves it alone runs every `Communicator` call exactly as before
    /// programs existed.
    fn default_path(&self) -> DefaultPath {
        DefaultPath::Direct
    }

    /// Runs a bound program: every one of its steps, in order, through
    /// [`BoundProgram::step`], returning after the last one or with the
    /// first error.
    ///
    /// The default is the walk: before each step it tells
    /// [`Comm::plan_step`] `(plan id, step index)` (and marks the step
    /// in the flight recorder when that is on); a transfer becomes
    /// `send` / `recv` / `sendrecv`, a fused receive `recv_with` /
    /// `sendrecv_with` whose consumer folds the message into the
    /// accumulator (out of the sender's bytes where the backend lends
    /// them, else out of the program's landing) and fires
    /// `local_reduce`, a clock step `compute` / `call_overhead`, and a
    /// copy, fold or permutation — which `step` has already run — fires
    /// `local_copy` / `local_reduce` / `local_permute`. It stamps
    /// `(0, 0)` on every return. A backend overrides it to run programs
    /// its own way; the simulator hands its engine the steps from the
    /// first transfer or clock step to the last in one request.
    fn run_program(&self, prog: &mut BoundProgram<'_>) -> Result<()> {
        let plan = prog.plan_id();
        let flight = intercom_obs::flight::enabled();
        prog.ready_landing();
        let result = (|| {
            for i in 0..prog.steps().len() {
                self.plan_step(plan, i as u64);
                if flight {
                    intercom_obs::flight::mark_step(plan, i as u64);
                }
                match prog.step(i)? {
                    StepAction::Send { to, tag, data } => self.send(to, tag, data)?,
                    StepAction::Recv { from, tag, buf } => self.recv(from, tag, buf)?,
                    StepAction::SendRecv {
                        to,
                        data,
                        from,
                        buf,
                        tag,
                    } => self.sendrecv(to, data, from, buf, tag)?,
                    StepAction::RecvReduce {
                        from,
                        tag,
                        acc,
                        landing,
                        fold,
                    } => self.recv_with(from, tag, landing, &mut |landing, lent| {
                        let other = lent.unwrap_or(landing);
                        fold.apply(acc, other);
                        self.local_reduce(acc, other);
                    })?,
                    StepAction::SendRecvReduce {
                        to,
                        data,
                        from,
                        acc,
                        landing,
                        tag,
                        fold,
                    } => {
                        self.sendrecv_with(to, data, from, landing, tag, &mut |landing, lent| {
                            let other = lent.unwrap_or(landing);
                            fold.apply(acc, other);
                            self.local_reduce(acc, other);
                        })?
                    }
                    StepAction::SendRecvCombine {
                        to,
                        data,
                        from,
                        dst,
                        other,
                        tag,
                        fold,
                    } => self.sendrecv_with(to, data, from, dst, tag, &mut |dst, lent| {
                        match lent {
                            Some(arrived) => fold.combine(dst, arrived, other),
                            None => fold.apply(dst, other),
                        }
                        self.local_reduce(dst, other);
                    })?,
                    StepAction::Copy { src, dst } => self.local_copy(src, dst),
                    StepAction::Reduce { acc, other } => self.local_reduce(acc, other),
                    StepAction::Permute {
                        region,
                        held,
                        radices,
                    } => self.local_permute(region, held, radices),
                    StepAction::Compute(bytes) => self.compute(bytes),
                    StepAction::CallOverhead => self.call_overhead(),
                }
            }
            Ok(())
        })();
        self.plan_step(0, 0);
        result
    }
}

/// The trivial single-process backend: rank 0 of a world of 1. Useful in
/// examples, doctests and degenerate-case tests; any attempt to actually
/// communicate is an error.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfComm;

impl Comm for SelfComm {
    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        1
    }
    fn send(&self, to: usize, _tag: Tag, _data: &[u8]) -> Result<()> {
        Err(CommError::InvalidRank { rank: to, size: 1 })
    }
    fn recv(&self, from: usize, _tag: Tag, _buf: &mut [u8]) -> Result<()> {
        Err(CommError::InvalidRank {
            rank: from,
            size: 1,
        })
    }
    fn sendrecv(
        &self,
        to: usize,
        _data: &[u8],
        _from: usize,
        _buf: &mut [u8],
        _tag: Tag,
    ) -> Result<()> {
        Err(CommError::InvalidRank { rank: to, size: 1 })
    }
}

/// A group-scoped communication view: logical ranks `0..len` map to world
/// ranks through the member array (§9's "group array").
///
/// All collective algorithms in this crate are written against
/// `GroupComm`; sub-groups for hybrid stages are carved out with
/// [`GroupComm::line`] and [`GroupComm::plane`]. A sub-group shares
/// its parent's member array and views it — a line as a run of it, a
/// plane strided — so carving one allocates nothing, at any depth of
/// the recursive template.
pub struct GroupComm<'a, C: Comm + ?Sized> {
    comm: &'a C,
    /// The member array of the group this one was carved from.
    list: Arc<[usize]>,
    /// Logical rank `i` is world rank `list[base + i * stride]`.
    base: usize,
    stride: usize,
    len: usize,
    me: usize,
    /// Cleared in a recording replay ([`GroupComm::recording`]): copies
    /// and folds then fire their hooks without touching a byte.
    moves_data: bool,
}

impl<'a> GroupComm<'a, RecordingComm> {
    /// [`GroupComm::world`] for a replay that only records where data
    /// would go (schedule lowering): `rec`'s receives stop zero-filling
    /// their buffers, [`GroupComm::copy`] and the folds report to its
    /// hooks but move nothing, and the sub-groups carved out of it
    /// inherit that.
    pub(crate) fn recording(rec: &'a RecordingComm) -> Self {
        rec.fills.set(false);
        GroupComm {
            moves_data: false,
            ..GroupComm::world(rec)
        }
    }
}

impl<'a, C: Comm + ?Sized> GroupComm<'a, C> {
    /// The whole world as one group, logical rank = world rank.
    pub fn world(comm: &'a C) -> Self {
        GroupComm::of(comm, (0..comm.size()).collect(), comm.rank())
    }

    /// A group from an explicit member list. Fails with
    /// [`CommError::NotInGroup`] if the calling node is not listed.
    pub fn new(comm: &'a C, members: Vec<usize>) -> Result<Self> {
        let me = members
            .iter()
            .position(|&m| m == comm.rank())
            .ok_or(CommError::NotInGroup)?;
        Ok(GroupComm::of(comm, members.into(), me))
    }

    fn of(comm: &'a C, list: Arc<[usize]>, me: usize) -> Self {
        GroupComm {
            comm,
            base: 0,
            stride: 1,
            len: list.len(),
            list,
            me,
            moves_data: true,
        }
    }

    /// The underlying endpoint.
    pub fn comm(&self) -> &'a C {
        self.comm
    }

    /// My logical rank within the group.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Group size.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Groups are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// World rank of logical rank `i`.
    ///
    /// # Panics
    ///
    /// Panics unless `i < len()`.
    pub fn world_rank(&self, i: usize) -> usize {
        assert!(
            i < self.len,
            "logical rank {i} outside a group of {}",
            self.len
        );
        self.list[self.base + i * self.stride]
    }

    /// The members' world ranks, in logical order.
    pub fn members(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        (0..self.len).map(|i| self.world_rank(i))
    }

    /// The members as one run of the array the group was carved from,
    /// where they are one (the whole group, a line of it); `None` for a
    /// plane's strided members.
    pub fn member_slice(&self) -> Option<&[usize]> {
        (self.stride == 1 || self.len == 1).then(|| &self.list[self.base..self.base + self.len])
    }

    /// A sub-group of `len` members, the first at logical rank `first`,
    /// `step` logical ranks apart; I am its member `me`.
    fn carve(&self, first: usize, step: usize, len: usize, me: usize) -> GroupComm<'a, C> {
        GroupComm {
            comm: self.comm,
            list: Arc::clone(&self.list),
            base: self.base + first * self.stride,
            stride: self.stride * step,
            len,
            me,
            moves_data: self.moves_data,
        }
    }

    /// My dimension-0 *line* for a first-dimension extent `d`: the `d`
    /// consecutive logical ranks `[⌊me/d⌋·d, ⌊me/d⌋·d + d)`. My logical
    /// rank within the line is `me mod d`.
    pub fn line(&self, d: usize) -> GroupComm<'a, C> {
        debug_assert_eq!(self.len() % d, 0, "line extent must divide group");
        self.carve(self.me / d * d, 1, d, self.me % d)
    }

    /// My dimension-0 *plane* for a first-dimension extent `d`: the
    /// `len/d` logical ranks sharing my dimension-0 coordinate
    /// (`me mod d`), strided by `d`. My logical rank within the plane is
    /// `⌊me/d⌋`.
    pub fn plane(&self, d: usize) -> GroupComm<'a, C> {
        debug_assert_eq!(self.len() % d, 0, "plane extent must divide group");
        self.carve(self.me % d, d, self.len() / d, self.me / d)
    }

    /// Validates a logical peer rank.
    fn check(&self, peer: usize) -> Result<()> {
        if peer < self.len() {
            Ok(())
        } else {
            Err(CommError::InvalidRank {
                rank: peer,
                size: self.len(),
            })
        }
    }

    /// Typed blocking send to logical rank `to`.
    pub fn send<T: Scalar>(&self, to: usize, tag: Tag, data: &[T]) -> Result<()> {
        self.check(to)?;
        self.comm.send(self.world_rank(to), tag, T::as_bytes(data))
    }

    /// Typed blocking receive from logical rank `from`.
    pub fn recv<T: Scalar>(&self, from: usize, tag: Tag, buf: &mut [T]) -> Result<()> {
        self.check(from)?;
        self.comm
            .recv(self.world_rank(from), tag, T::as_bytes_mut(buf))
    }

    /// Typed concurrent exchange: send `data` to `to` while receiving
    /// into `buf` from `from`.
    pub fn sendrecv<T: Scalar>(
        &self,
        to: usize,
        data: &[T],
        from: usize,
        buf: &mut [T],
        tag: Tag,
    ) -> Result<()> {
        self.check(to)?;
        self.check(from)?;
        self.comm.sendrecv(
            self.world_rank(to),
            T::as_bytes(data),
            self.world_rank(from),
            T::as_bytes_mut(buf),
            tag,
        )
    }

    /// Typed [`Comm::recv_with`]: `sink` runs exactly once on success,
    /// with `buf` filled and `None`, or with `buf` untouched and the
    /// arrived elements where they lie. A window the backend lends that
    /// is not aligned for `T` is copied into `buf` first.
    #[inline]
    pub fn recv_with<T: Scalar>(
        &self,
        from: usize,
        tag: Tag,
        buf: &mut [T],
        sink: impl FnMut(&mut [T], Option<&[T]>),
    ) -> Result<()> {
        self.check(from)?;
        lend_typed(buf, sink, |bytes, sink| {
            self.comm.recv_with(self.world_rank(from), tag, bytes, sink)
        })
    }

    /// Typed [`Comm::sendrecv_with`]; see [`GroupComm::recv_with`].
    #[inline]
    pub fn sendrecv_with<T: Scalar>(
        &self,
        to: usize,
        data: &[T],
        from: usize,
        buf: &mut [T],
        tag: Tag,
        sink: impl FnMut(&mut [T], Option<&[T]>),
    ) -> Result<()> {
        self.check(to)?;
        self.check(from)?;
        lend_typed(buf, sink, |bytes, sink| {
            self.comm.sendrecv_with(
                self.world_rank(to),
                T::as_bytes(data),
                self.world_rank(from),
                bytes,
                tag,
                sink,
            )
        })
    }

    /// γ-accounting passthrough (in element bytes).
    pub fn compute(&self, bytes: usize) {
        self.comm.compute(bytes);
    }

    /// δ-accounting passthrough.
    pub fn call_overhead(&self) {
        self.comm.call_overhead();
    }

    /// Local copy of `src` into `dst` with the recording hook fired, so
    /// schedule lowering observes in-rank data movement. Panics on
    /// length mismatch (an internal invariant, as with `copy_from_slice`).
    pub fn copy<T: Scalar>(&self, src: &[T], dst: &mut [T]) {
        if self.moves_data {
            dst.copy_from_slice(src);
        } else {
            assert_eq!(src.len(), dst.len(), "copy between unequal slices");
        }
        self.comm.local_copy(T::as_bytes(src), T::as_bytes(dst));
    }

    /// Un-permutes a collect's slot-ordered result in place: block `q`
    /// of `all` (`b` elements) moves from slot `slot_of(radices, q)` to
    /// position `q`, one block at a time held in the first `b` elements'
    /// worth of `scratch` (grown to that if shorter, and the only scratch
    /// touched). Fires [`Comm::local_permute`] once, so schedule lowering
    /// records one step for the whole permutation. Panics unless
    /// `all.len()` is `b` times the product of `radices` (an internal
    /// invariant, as with [`GroupComm::copy`]).
    pub fn unpermute<T: Scalar>(
        &self,
        all: &mut [T],
        b: usize,
        radices: &[usize],
        scratch: &mut Vec<u64>,
    ) {
        let blocks: usize = radices.iter().product();
        assert_eq!(all.len(), b * blocks, "un-permuting a partial vector");
        let bytes = b * T::SIZE;
        let words = bytes.div_ceil(std::mem::size_of::<u64>());
        crate::cast::grow_arena(scratch, words);
        let held = &mut u64::as_bytes_mut(&mut scratch[..words])[..bytes];
        let region = T::as_bytes_mut(all);
        if self.moves_data {
            crate::algorithms::unpermute(radices, region, held);
        }
        self.comm.local_permute(region, held, radices);
    }

    /// Local fold of `other` into `acc` with the recording hook and the
    /// γ-accounting the combining collectives charge per fold.
    pub fn fold<T: Elem>(&self, op: ReduceOp, acc: &mut [T], other: &[T]) {
        if self.moves_data {
            op.fold_into(acc, other);
        }
        self.folded(acc, other);
    }

    /// [`GroupComm::fold`] of `other` into an `acc` whose contents are
    /// still where they arrived: `acc = arrived ⊕ other` in one pass,
    /// the hooks those of the fold.
    pub(crate) fn fold_arrived<T: Elem>(
        &self,
        op: ReduceOp,
        acc: &mut [T],
        arrived: &[T],
        other: &[T],
    ) {
        if self.moves_data {
            op.combine_into(acc, arrived, other);
        }
        self.folded(acc, other);
    }

    /// The hooks of a fold of `other` into `acc`.
    fn folded<T: Elem>(&self, acc: &[T], other: &[T]) {
        self.comm.local_reduce(T::as_bytes(acc), T::as_bytes(other));
        self.comm.compute(std::mem::size_of_val(acc));
    }
}

/// Runs a byte-level `*_with` call (`call`) for a typed buffer and a
/// typed `sink`. A lent window that views as `T` goes to `sink` where
/// it lies; otherwise `buf` holds the message when `call` returns
/// (copied here if the window was misaligned) and `sink` runs on it
/// then, from the typed side — so the filled-buffer case, the only one
/// a backend without a window path has, never converts a view back.
#[inline]
fn lend_typed<T: Scalar>(
    buf: &mut [T],
    mut sink: impl FnMut(&mut [T], Option<&[T]>),
    call: impl FnOnce(&mut [u8], &mut Sink<'_>) -> Result<()>,
) -> Result<()> {
    let mut filled = true;
    call(T::as_bytes_mut(buf), &mut |bytes, window| {
        let Some(window) = window else { return };
        match (T::from_bytes(window), typed_mut::<T>(bytes)) {
            (Some(arrived), Some(buf)) => {
                sink(buf, Some(arrived));
                filled = false;
            }
            _ => bytes.copy_from_slice(window),
        }
    })?;
    if filled {
        sink(buf, None);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_comm_world() {
        let c = SelfComm;
        let g = GroupComm::world(&c);
        assert_eq!(g.len(), 1);
        assert_eq!(g.me(), 0);
        assert_eq!(g.world_rank(0), 0);
    }

    #[test]
    fn self_comm_rejects_traffic() {
        let c = SelfComm;
        assert!(c.send(1, 0, &[0u8]).is_err());
        let mut b = [0u8];
        assert!(c.recv(1, 0, &mut b).is_err());
    }

    #[test]
    fn group_requires_membership() {
        let c = SelfComm;
        assert!(matches!(
            GroupComm::new(&c, vec![3, 4]),
            Err(CommError::NotInGroup)
        ));
        let g = GroupComm::new(&c, vec![0]).unwrap();
        assert_eq!(g.me(), 0);
    }

    // line/plane geometry is testable without any communication: use a
    // fake endpoint with a configurable rank.
    struct FakeComm {
        rank: usize,
        size: usize,
    }
    impl Comm for FakeComm {
        fn rank(&self) -> usize {
            self.rank
        }
        fn size(&self) -> usize {
            self.size
        }
        fn send(&self, _: usize, _: Tag, _: &[u8]) -> Result<()> {
            unimplemented!()
        }
        fn recv(&self, _: usize, _: Tag, _: &mut [u8]) -> Result<()> {
            unimplemented!()
        }
        fn sendrecv(&self, _: usize, _: &[u8], _: usize, _: &mut [u8], _: Tag) -> Result<()> {
            unimplemented!()
        }
    }

    #[test]
    fn line_geometry() {
        let c = FakeComm { rank: 7, size: 12 };
        let g = GroupComm::world(&c);
        let line = g.line(3); // ranks [6, 7, 8]
        assert_eq!(line.members().collect::<Vec<_>>(), [6, 7, 8]);
        assert_eq!(line.member_slice(), Some(&[6, 7, 8][..]));
        assert_eq!(line.me(), 1);
    }

    #[test]
    fn plane_geometry() {
        let c = FakeComm { rank: 7, size: 12 };
        let g = GroupComm::world(&c);
        let plane = g.plane(3); // coordinate 7 % 3 == 1: ranks [1, 4, 7, 10]
        assert_eq!(plane.members().collect::<Vec<_>>(), [1, 4, 7, 10]);
        assert_eq!(plane.member_slice(), None);
        assert_eq!(plane.me(), 2);
    }

    #[test]
    fn nested_line_plane_compose() {
        // dims [2, 3, 2] over 12 ranks, rank 7 = (1, 0, 1): line(2) then
        // plane-of-plane arithmetic must agree with mixed-radix indices.
        let c = FakeComm { rank: 7, size: 12 };
        let g = GroupComm::world(&c);
        let p1 = g.plane(2); // strip dim0 (coord 1): [1,3,5,7,9,11], me=3
        assert_eq!(p1.me(), 3);
        let line2 = p1.line(3); // dim1 line within plane: [7/?]..
                                // p1 members [1,3,5,7,9,11]; me=3 → base 3/3*3=3 → members[3..6] = [7,9,11]
        assert_eq!(line2.members().collect::<Vec<_>>(), [7, 9, 11]);
        assert_eq!(line2.me(), 0);
    }

    #[test]
    fn group_peer_validation() {
        let c = SelfComm;
        let g = GroupComm::world(&c);
        let mut buf = [0u8; 1];
        assert!(matches!(
            g.recv(5, 0, &mut buf),
            Err(CommError::InvalidRank { rank: 5, size: 1 })
        ));
    }
}
