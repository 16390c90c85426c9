//! The IR interpreter: executes a [`CollectiveProgram`] against any
//! [`Comm`] backend.
//!
//! One interpreter serves every backend — the threaded runtime, the mesh
//! simulator, a [`RecordingComm`](crate::trace::RecordingComm) (which
//! reproduces the very record stream the program was lowered from), or a
//! single-process [`SelfComm`](crate::comm::SelfComm). It runs in one of
//! two ways:
//!
//! * **Step by step here** (every backend whose
//!   [`Comm::runs_programs`] says no): before each step the backend's
//!   [`Comm::plan_step`] hook is told `(plan_id, step index)`, so
//!   tracing backends can attribute every transfer to the exact
//!   compiled step that issued it; the hook is reset to `(0, 0)` on
//!   return.
//! * **Handed off** (a backend that runs programs — the simulator):
//!   the data steps before the first transfer and after the last one
//!   run here, on the calling rank's thread; the section between them
//!   and every clock step go to the backend as one
//!   [`BoundProgram`](super::BoundProgram), which it walks itself.
//!
//! Execution is allocation-free in the steady state: the caller-provided
//! scratch arena grows once to [`RankProgram::scratch_bytes`] and is
//! re-zeroed (never re-allocated) on later executions, matching the
//! zeroed workspace of the replay the program was lowered from. A
//! handed-off run grows and zeroes it just before the first step that
//! touches it, as the direct path would first touch its workspace.
//!
//! [`RankProgram::scratch_bytes`]: super::RankProgram::scratch_bytes

use super::{ArgDir, BoundProgram, Buf, CollectiveProgram, Loc, StepKind};
use crate::cast::Scalar;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::{CommError, Result};
use crate::op::ReduceOp;
use std::ops::Range;

/// One argument-buffer binding for an execution (slot order per
/// [`super::PlanOp::args`]).
pub enum ArgBuf<'a, T> {
    /// A read-only input (contributions, send blocks).
    In(&'a [T]),
    /// A writable buffer; the program may also read it (inout vectors,
    /// result workspace).
    Out(&'a mut [T]),
    /// Not bound on this rank (the scatter/gather root buffer on
    /// non-root ranks).
    Absent,
}

/// Executes the calling rank's program. `args` bind the argument
/// slots, `scratch` is the reusable private arena, `base_tag` offsets
/// every step tag, and `op` supplies the ⊕ the program left abstract
/// (unused by a program without reduce steps).
pub fn execute<T: Scalar, C: Comm + ?Sized>(
    prog: &CollectiveProgram,
    gc: &GroupComm<'_, C>,
    op: ReduceOp,
    args: &mut [ArgBuf<'_, T>],
    scratch: &mut Vec<u64>,
    base_tag: Tag,
) -> Result<()> {
    let elem = std::mem::size_of::<T>();
    if elem != prog.elem_size {
        return Err(CommError::PlanMismatch {
            what: "element size differs from the compiled program's",
        });
    }
    if gc.len() != prog.p {
        return Err(CommError::PlanMismatch {
            what: "group size differs from the compiled program's",
        });
    }
    let me = gc.me();
    check_args(prog, me, args)?;
    // Production telemetry: one relaxed load each when disabled. When
    // on, the flight recorder gets a black-box entry and the metrics
    // registry a latency sample per execution (per rank — concurrent
    // ranks of one plan share the flight entry via its refcount).
    let metrics_on = intercom_obs::metrics::enabled();
    let flight_on = intercom_obs::flight::enabled();
    let started = metrics_on.then(std::time::Instant::now);
    if flight_on {
        let strategy = prog.strategy.as_ref().map(|s| s.to_string());
        intercom_obs::flight::begin(
            prog.plan_id,
            prog.op.name(),
            prog.p,
            prog.n,
            strategy.as_deref(),
        );
    }
    let comm = gc.comm();
    let result = if comm.runs_programs() {
        BoundProgram::new(prog, me, gc.members(), args, scratch, op, base_tag)
            .and_then(|bound| bound.run_on(comm))
    } else {
        interpret(prog, gc, op, args, scratch, base_tag, flight_on)
    };
    if let Some(started) = started {
        // Wall-clock on the executing thread: real latency for the
        // threaded runtime; for the simulator it is host compute time
        // (virtual time lives in the SimReport, ingested separately).
        let strategy = prog
            .strategy
            .as_ref()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "-".into());
        let (p_s, n_s) = (prog.p.to_string(), prog.n.to_string());
        let labels = &[
            ("op", prog.op.name()),
            ("strategy", strategy.as_str()),
            ("p", p_s.as_str()),
            ("n", n_s.as_str()),
        ][..];
        intercom_obs::metrics::observe(
            "intercom_plan_exec_seconds",
            labels,
            started.elapsed().as_secs_f64(),
        );
        intercom_obs::metrics::counter_add(
            "intercom_plan_steps_total",
            &[("op", prog.op.name())],
            prog.ranks[me].steps.len() as u64,
        );
    }
    if flight_on {
        match &result {
            Ok(()) => intercom_obs::flight::finish(prog.plan_id),
            Err(e) => intercom_obs::flight::fail(prog.plan_id, &e.to_string()),
        }
    }
    result
}

/// Runs the calling rank's program step by step through `gc`.
fn interpret<T: Scalar, C: Comm + ?Sized>(
    prog: &CollectiveProgram,
    gc: &GroupComm<'_, C>,
    op: ReduceOp,
    args: &mut [ArgBuf<'_, T>],
    scratch: &mut Vec<u64>,
    base_tag: Tag,
    flight_on: bool,
) -> Result<()> {
    let elem = T::SIZE;
    let rp = &prog.ranks[gc.me()];
    // Re-zero (and on first use, grow) the arena: the programs were
    // lowered from replays over fresh zeroed workspace.
    let scratch = T::scratch(scratch, rp.scratch_bytes.div_ceil(elem));
    scratch.fill(T::default());
    let comm = gc.comm();
    let tag = |off: u32| base_tag + u64::from(off);
    let result: Result<()> = (|| {
        for (idx, step) in rp.steps.iter().enumerate() {
            comm.plan_step(prog.plan_id, idx as u64);
            if flight_on {
                intercom_obs::flight::mark_step(prog.plan_id, idx as u64);
            }
            match step.kind {
                StepKind::Send { to, tag_off, src } => {
                    let s = read(args, scratch, elem, &src)?;
                    gc.send(to.into(), tag(tag_off), s)?;
                }
                StepKind::Recv { from, tag_off, dst } => {
                    let d = write(args, scratch, elem, &dst)?;
                    gc.recv(from.into(), tag(tag_off), d)?;
                }
                StepKind::SendRecv {
                    to,
                    src,
                    from,
                    dst,
                    tag_off,
                } => {
                    let (s, d) = read_write(args, scratch, elem, &src, &dst)?;
                    gc.sendrecv(to.into(), s, from.into(), d, tag(tag_off))?;
                }
                StepKind::Copy { src, dst } => {
                    let (s, d) = read_write(args, scratch, elem, &src, &dst)?;
                    d.copy_from_slice(s);
                    comm.local_copy(T::as_bytes(s), T::as_bytes(d));
                }
                StepKind::Reduce { acc, other } => {
                    let (o, a) = read_write(args, scratch, elem, &other, &acc)?;
                    op.fold_into(a, o);
                    comm.local_reduce(T::as_bytes(a), T::as_bytes(o));
                }
                StepKind::Compute { bytes } => gc.compute(bytes as usize),
                StepKind::CallOverhead => gc.call_overhead(),
            }
        }
        Ok(())
    })();
    comm.plan_step(0, 0);
    result
}

/// Validates the bound buffers against the program's argument slots.
fn check_args<T: Scalar>(
    prog: &CollectiveProgram,
    me: usize,
    args: &[ArgBuf<'_, T>],
) -> Result<()> {
    let specs = prog.op.args(prog.p, prog.n);
    if args.len() != specs.len() {
        return Err(CommError::PlanMismatch {
            what: "argument buffer count differs from the program's slots",
        });
    }
    for (arg, spec) in args.iter().zip(&specs) {
        let bound_here = spec.only_rank.is_none_or(|r| r == me);
        let len = match arg {
            ArgBuf::In(b) => {
                if spec.dir == ArgDir::Out {
                    return Err(CommError::PlanMismatch {
                        what: "read-only binding for an output argument",
                    });
                }
                Some(b.len())
            }
            ArgBuf::Out(b) => Some(b.len()),
            ArgBuf::Absent => None,
        };
        match (len, bound_here) {
            (Some(len), true) => {
                if len != spec.elems {
                    return Err(CommError::BadBufferSize {
                        expected: spec.elems,
                        actual: len,
                    });
                }
            }
            (None, true) => {
                return Err(CommError::PlanMismatch {
                    what: "argument buffer required on this rank is absent",
                })
            }
            // A buffer bound where the program does not need it is
            // ignored (mirrors the direct path's `Option` arguments).
            (_, false) => {}
        }
    }
    Ok(())
}

/// `Err` unless `loc` starts and ends on element boundaries.
pub(super) fn aligned(loc: &Loc, elem: usize) -> Result<()> {
    let whole = |v: u32| (v as usize).is_multiple_of(elem);
    if whole(loc.off) && whole(loc.len) {
        Ok(())
    } else {
        Err(CommError::PlanMismatch {
            what: "step operand not aligned to the element size",
        })
    }
}

fn elem_range(loc: &Loc, elem: usize) -> Result<Range<usize>> {
    aligned(loc, elem)?;
    let bytes = loc.bytes();
    Ok(bytes.start / elem..bytes.end / elem)
}

const OOB: CommError = CommError::PlanMismatch {
    what: "step operand out of buffer bounds",
};

fn arg_read<'x, T>(arg: &'x ArgBuf<'_, T>, r: Range<usize>) -> Result<&'x [T]> {
    match arg {
        ArgBuf::In(b) => b.get(r).ok_or(OOB),
        ArgBuf::Out(b) => b.get(r).ok_or(OOB),
        ArgBuf::Absent => Err(CommError::PlanMismatch {
            what: "step reads an absent buffer",
        }),
    }
}

fn arg_write<'x, T>(arg: &'x mut ArgBuf<'_, T>, r: Range<usize>) -> Result<&'x mut [T]> {
    match arg {
        ArgBuf::Out(b) => b.get_mut(r).ok_or(OOB),
        ArgBuf::In(_) => Err(CommError::PlanMismatch {
            what: "step writes a read-only buffer",
        }),
        ArgBuf::Absent => Err(CommError::PlanMismatch {
            what: "step writes an absent buffer",
        }),
    }
}

pub(super) fn read<'x, T: Scalar>(
    args: &'x [ArgBuf<'_, T>],
    scratch: &'x [T],
    elem: usize,
    loc: &Loc,
) -> Result<&'x [T]> {
    let r = elem_range(loc, elem)?;
    match loc.buf {
        Buf::Scratch => scratch.get(r).ok_or(OOB),
        Buf::Arg(i) => arg_read(args.get(usize::from(i)).ok_or(OOB)?, r),
    }
}

pub(super) fn write<'x, T: Scalar>(
    args: &'x mut [ArgBuf<'_, T>],
    scratch: &'x mut [T],
    elem: usize,
    loc: &Loc,
) -> Result<&'x mut [T]> {
    let r = elem_range(loc, elem)?;
    match loc.buf {
        Buf::Scratch => scratch.get_mut(r).ok_or(OOB),
        Buf::Arg(i) => arg_write(args.get_mut(usize::from(i)).ok_or(OOB)?, r),
    }
}

/// Simultaneous shared read of `rloc` and mutable write of `wloc`,
/// splitting borrows across (or within) buffers. Overlapping operands
/// within one buffer are rejected — the verifier proves compiled
/// programs never produce them.
pub(super) fn read_write<'x, T: Scalar>(
    args: &'x mut [ArgBuf<'_, T>],
    scratch: &'x mut [T],
    elem: usize,
    rloc: &Loc,
    wloc: &Loc,
) -> Result<(&'x [T], &'x mut [T])> {
    let rr = elem_range(rloc, elem)?;
    let wr = elem_range(wloc, elem)?;
    // Argument slots as indices; `None` is the arena.
    let slot = |b: Buf| match b {
        Buf::Arg(i) => Some(usize::from(i)),
        Buf::Scratch => None,
    };
    match (slot(rloc.buf), slot(wloc.buf)) {
        (None, None) => split_same(scratch, rr, wr),
        (Some(i), None) => {
            let rd = arg_read(args.get(i).ok_or(OOB)?, rr)?;
            Ok((rd, scratch.get_mut(wr).ok_or(OOB)?))
        }
        (None, Some(j)) => {
            let wrt = arg_write(args.get_mut(j).ok_or(OOB)?, wr)?;
            Ok((scratch.get(rr).ok_or(OOB)?, wrt))
        }
        (Some(i), Some(j)) if i == j => match args.get_mut(i).ok_or(OOB)? {
            ArgBuf::Out(b) => split_same(b, rr, wr),
            ArgBuf::In(_) => Err(CommError::PlanMismatch {
                what: "step writes a read-only buffer",
            }),
            ArgBuf::Absent => Err(CommError::PlanMismatch {
                what: "step writes an absent buffer",
            }),
        },
        (Some(i), Some(j)) => {
            if i.max(j) >= args.len() {
                return Err(OOB);
            }
            let (lo, hi) = args.split_at_mut(i.max(j));
            let (ra, wa) = if i < j {
                (&lo[i], &mut hi[0])
            } else {
                (&hi[0], &mut lo[j])
            };
            Ok((arg_read(ra, rr)?, arg_write(wa, wr)?))
        }
    }
}

/// Disjoint shared/mutable views of two ranges of one buffer.
fn split_same<T>(buf: &mut [T], r: Range<usize>, w: Range<usize>) -> Result<(&[T], &mut [T])> {
    if w.is_empty() {
        return Ok((buf.get(r).ok_or(OOB)?, &mut []));
    }
    if r.is_empty() {
        return Ok((&[], buf.get_mut(w).ok_or(OOB)?));
    }
    if r.end <= w.start {
        let (a, b) = buf.split_at_mut(w.start);
        Ok((a.get(r).ok_or(OOB)?, b.get_mut(..w.len()).ok_or(OOB)?))
    } else if w.end <= r.start {
        let (a, b) = buf.split_at_mut(r.start);
        Ok((b.get(..r.len()).ok_or(OOB)?, a.get_mut(w).ok_or(OOB)?))
    } else {
        Err(CommError::PlanMismatch {
            what: "overlapping read/write operands in one step",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lower, PlanOp};
    use super::*;
    use crate::comm::SelfComm;
    use intercom_cost::Strategy;

    #[test]
    fn self_comm_collect_through_interpreter() {
        let st = Strategy::pure_mst(1);
        let prog = lower(PlanOp::Collect, Some(&st), 1, 3, 4).unwrap();
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mine = [7u32, 8, 9];
        let mut all = [0u32; 3];
        let mut scratch = Vec::new();
        execute(
            &prog,
            &gc,
            ReduceOp::Sum,
            &mut [ArgBuf::In(&mine), ArgBuf::Out(&mut all)],
            &mut scratch,
            0,
        )
        .unwrap();
        assert_eq!(all, mine);
    }

    #[test]
    fn wrong_bindings_rejected() {
        let st = Strategy::pure_mst(1);
        let prog = lower(PlanOp::Collect, Some(&st), 1, 3, 4).unwrap();
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mine = [1u32; 3];
        let mut all = [0u32; 2]; // wrong length
        let mut scratch = Vec::new();
        assert!(matches!(
            execute(
                &prog,
                &gc,
                ReduceOp::Sum,
                &mut [ArgBuf::In(&mine), ArgBuf::Out(&mut all)],
                &mut scratch,
                0,
            ),
            Err(CommError::BadBufferSize {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn split_same_handles_order_and_overlap() {
        let mut v = [1, 2, 3, 4, 5, 6];
        let (r, w) = split_same(&mut v, 0..2, 4..6).unwrap();
        assert_eq!(r, &[1, 2]);
        assert_eq!(w, &mut [5, 6]);
        let (r, w) = split_same(&mut v, 3..6, 0..2).unwrap();
        assert_eq!(r, &[4, 5, 6]);
        assert_eq!(w.len(), 2);
        assert!(split_same(&mut v, 0..3, 2..5).is_err());
    }
}
