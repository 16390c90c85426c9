//! Executing a [`CollectiveProgram`] on any [`Comm`] backend.
//!
//! [`execute`] binds the calling rank's steps to the call's buffers (a
//! [`BoundProgram`]) and hands them to [`Comm::run_program`]. The
//! trait's default walks them step by step through the backend's own
//! calls — the threaded runtime, a
//! [`RecordingComm`](crate::trace::RecordingComm) (which reproduces the
//! very record stream the program was lowered from), a single-process
//! [`SelfComm`](crate::comm::SelfComm), any wrapper — telling the
//! [`Comm::plan_step`] hook `(plan_id, step index)` before each step, so
//! tracing backends can attribute every transfer to the exact compiled
//! step that issued it. The simulator overrides it and hands its engine
//! the program in one request.
//!
//! Execution is allocation-free in the steady state: the caller-provided
//! scratch arena grows once to [`RankProgram::scratch_bytes`] and is
//! re-zeroed (never re-allocated) by every execution, at the first step
//! that touches it, matching the zeroed workspace of the replay the
//! program was lowered from.
//!
//! [`RankProgram::scratch_bytes`]: super::RankProgram::scratch_bytes

use super::{ArgDir, BoundProgram, CollectiveProgram};
use crate::cast::Scalar;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::{CommError, Result};
use crate::op::ReduceOp;

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
    // A plane's members are strided through its parent's array: listed
    // here, the one case that allocates (no default path runs one).
    let strided: Vec<usize>;
    let members = match gc.member_slice() {
        Some(members) => members,
        None => {
            strided = gc.members().collect();
            &strided
        }
    };
    let result = BoundProgram::new(prog, me, members, args, scratch, op, base_tag)
        .and_then(|mut bound| gc.comm().run_program(&mut bound));
    if let Some(started) = started {
        // Wall-clock on the executing thread: real latency for the
        // threaded runtime; for the simulator it is host compute time
        // (virtual time lives in the SimReport, ingested separately).
        let [exec, steps] = prog.series();
        intercom_obs::metrics::observe_at(exec, started.elapsed().as_secs_f64());
        intercom_obs::metrics::counter_add_at(steps, prog.ranks[me].steps.len() as u64);
    }
    if flight_on {
        match &result {
            Ok(()) => intercom_obs::flight::finish(prog.plan_id),
            Err(e) => intercom_obs::flight::fail(prog.plan_id, &e.to_string()),
        }
    }
    result
}

/// Validates the bound buffers against the program's argument slots.
fn check_args<T: Scalar>(
    prog: &CollectiveProgram,
    me: usize,
    args: &[ArgBuf<'_, T>],
) -> Result<()> {
    let (slots, count) = prog.op.slots(prog.p, prog.n);
    let specs = &slots[..count];
    if args.len() != specs.len() {
        return Err(CommError::PlanMismatch {
            what: "argument buffer count differs from the program's slots",
        });
    }
    for (arg, spec) in args.iter().zip(specs) {
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

#[cfg(test)]
mod tests {
    use super::super::{lower, PlanOp};
    use super::*;
    use crate::comm::SelfComm;
    use crate::trace::RecordingComm;
    use intercom_cost::Strategy;

    #[test]
    fn self_comm_collect_through_the_default_walk() {
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
    fn a_program_for_a_smaller_group_is_refused_with_metrics_on() {
        // Compiled for one rank, run as rank 1 of two: the rank has no
        // program, and the telemetry must not look for one.
        let st = Strategy::pure_mst(1);
        let prog = lower(PlanOp::AllReduce, Some(&st), 1, 3, 4).unwrap();
        let c = RecordingComm::new(1, 2);
        let mut buf = [0u32; 3];
        intercom_obs::metrics::set_enabled(true);
        let out = execute(
            &prog,
            &GroupComm::world(&c),
            ReduceOp::Sum,
            &mut [ArgBuf::Out(&mut buf)],
            &mut Vec::new(),
            0,
        );
        intercom_obs::metrics::set_enabled(false);
        let what = "group size differs from the compiled program's";
        assert_eq!(out, Err(CommError::PlanMismatch { what }));
    }
}
