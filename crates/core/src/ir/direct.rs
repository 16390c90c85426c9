//! The direct-path runner: one collective call executed by the
//! recursive algorithms themselves, described the same way
//! [`execute`](super::execute) describes a compiled one.
//!
//! A call is a [`PlanOp`], an algorithm choice, a group, the ⊕, the
//! argument buffers in [`PlanOp::args`] slot order, the scratch arena
//! the algorithms borrow their workspace from, and a base tag.
//! [`run_direct`] is the only place that maps that description onto
//! [`algorithms`], [`hier`] or [`pipelined_ring_bcast`]: the
//! [`Communicator`](crate::Communicator) calls it with the caller's
//! buffers, [`lower`](super::lower) replays it against a recording
//! backend, and the verifier, the chaos harness and the observability
//! driver run it over [`OwnedArgs`] (the last two through
//! [`run_filled`]) — so all of them agree on buffer shapes by
//! construction.

use super::{ArgBuf, ArgDir, ArgSpec, PlanOp};
use crate::algorithms;
use crate::cast::Scalar;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::{CommError, Result};
use crate::hier;
use crate::op::ReduceOp;
use crate::primitives::pipelined_ring_bcast;
use intercom_cost::{HierChoice, Strategy};

const BAD_ARGS: CommError = CommError::PlanMismatch {
    what: "argument buffers do not match the op's slots",
};

/// The choice a strategy-taking op runs under.
///
/// # Panics
///
/// Panics if there is none: every caller selects before it dispatches.
fn chosen(op: PlanOp, choice: Option<&HierChoice>) -> &HierChoice {
    choice.unwrap_or_else(|| panic!("{} requires a strategy", op.name()))
}

/// Runs one collective call on the direct recursive path. `choice` is
/// the flat or hierarchical strategy (`None` for the strategy-free
/// ops), `args` bind the slots of [`PlanOp::args`] and `rop` supplies
/// the ⊕ (unused unless [`PlanOp::combines`]). `scratch` is the
/// reusable arena of [`execute`](super::execute): it grows to what the
/// call needs and is handed back as it is, so a caller that keeps it
/// pays for no workspace from the second call on. Fails with
/// [`CommError::PlanMismatch`] if the buffers do not match the op's
/// slots or a hierarchical choice is given to an op without a
/// hierarchical template.
///
/// # Panics
///
/// Panics if `choice` is `None` for an op where
/// [`PlanOp::takes_strategy`] is true.
pub fn run_direct<T: Scalar, C: Comm + ?Sized>(
    op: PlanOp,
    choice: Option<&HierChoice>,
    gc: &GroupComm<'_, C>,
    rop: ReduceOp,
    args: &mut [ArgBuf<'_, T>],
    scratch: &mut Vec<u64>,
    base_tag: Tag,
) -> Result<()> {
    if !op.takes_strategy() && matches!(choice, Some(HierChoice::Hier(_))) {
        return Err(CommError::PlanMismatch {
            what: "op has no hierarchical lowering",
        });
    }
    match (op, args) {
        (PlanOp::Reduce { root }, [ArgBuf::Out(buf)]) => match chosen(op, choice) {
            HierChoice::Flat(s) => algorithms::reduce(gc, s, root, buf, rop, base_tag, scratch),
            HierChoice::Hier(h) => hier::hier_reduce(gc, h, root, buf, rop, base_tag, scratch),
        },
        (PlanOp::AllReduce, [ArgBuf::Out(buf)]) => match chosen(op, choice) {
            HierChoice::Flat(s) => algorithms::allreduce(gc, s, buf, rop, base_tag, scratch),
            HierChoice::Hier(h) => hier::hier_allreduce(gc, h, buf, rop, base_tag, scratch),
        },
        (PlanOp::ReduceScatter, [ArgBuf::In(contrib), ArgBuf::Out(mine)]) => {
            match chosen(op, choice) {
                HierChoice::Flat(s) => {
                    algorithms::reduce_scatter(gc, s, contrib, mine, rop, base_tag, scratch)
                }
                HierChoice::Hier(h) => {
                    hier::hier_reduce_scatter(gc, h, contrib, mine, rop, base_tag, scratch)
                }
            }
        }
        (PlanOp::Broadcast { root }, [ArgBuf::Out(buf)]) => match chosen(op, choice) {
            HierChoice::Flat(s) => algorithms::broadcast(gc, s, root, buf, base_tag),
            HierChoice::Hier(h) => hier::hier_broadcast(gc, h, root, buf, base_tag),
        },
        (PlanOp::Collect, [ArgBuf::In(mine), ArgBuf::Out(all)]) => match chosen(op, choice) {
            HierChoice::Flat(s) => algorithms::collect(gc, s, mine, all, base_tag, scratch),
            HierChoice::Hier(h) => hier::hier_collect(gc, h, mine, all, base_tag, scratch),
        },
        (PlanOp::Scatter { root }, [full, ArgBuf::Out(mine)]) => {
            let full = match full {
                ArgBuf::In(full) => Some(&**full),
                ArgBuf::Absent => None,
                ArgBuf::Out(_) => return Err(BAD_ARGS),
            };
            algorithms::scatter(gc, root, full, mine, base_tag, scratch)
        }
        (PlanOp::Gather { root }, [ArgBuf::In(mine), full]) => {
            let full = match full {
                ArgBuf::Out(full) => Some(&mut **full),
                ArgBuf::Absent => None,
                ArgBuf::In(_) => return Err(BAD_ARGS),
            };
            algorithms::gather(gc, root, mine, full, base_tag, scratch)
        }
        (PlanOp::Alltoall, [ArgBuf::In(send), ArgBuf::Out(recv)]) => {
            algorithms::alltoall(gc, send, recv, base_tag)
        }
        (PlanOp::PipelinedBcast { root, segments }, [ArgBuf::Out(buf)]) => {
            pipelined_ring_bcast(gc, root, buf, segments, base_tag)
        }
        _ => Err(BAD_ARGS),
    }
}

/// One rank's argument buffers for a call of `op` over `(p, n)`,
/// allocated from [`PlanOp::args`]: a zeroed vector per slot the rank
/// binds, nothing for a root-only slot on the other ranks.
pub struct OwnedArgs<T> {
    /// `(slot, buffer)` in binding order; `None` where this rank does
    /// not bind the slot.
    pub slots: Vec<(ArgSpec, Option<Vec<T>>)>,
}

impl<T: Scalar> OwnedArgs<T> {
    /// Allocates rank `rank`'s zeroed buffers.
    pub fn new(op: PlanOp, p: usize, n: usize, rank: usize) -> Self {
        let slots = op
            .args(p, n)
            .into_iter()
            .map(|spec| {
                let bound = spec.only_rank.is_none_or(|r| r == rank);
                (spec, bound.then(|| vec![T::default(); spec.elems]))
            })
            .collect();
        OwnedArgs { slots }
    }

    /// Writes `pattern(i)` over everything rank `rank` contributes to
    /// the call: each input slot, and the in-out vector of the
    /// one-buffer ops unless the rank only receives it (every rank but
    /// the root of a broadcast). Result slots stay zeroed.
    pub fn fill_contribution(&mut self, op: PlanOp, rank: usize, pattern: impl Fn(usize) -> T) {
        let receives_only = matches!(
            op,
            PlanOp::Broadcast { root } | PlanOp::PipelinedBcast { root, .. } if root != rank
        );
        let inout = self.slots.len() == 1 && !receives_only;
        for (spec, buf) in &mut self.slots {
            if spec.dir == ArgDir::In || inout {
                for (i, x) in buf.iter_mut().flatten().enumerate() {
                    *x = pattern(i);
                }
            }
        }
    }

    /// Binds the buffers for [`run_direct`] / [`execute`](super::execute).
    pub fn bind(&mut self) -> Vec<ArgBuf<'_, T>> {
        self.slots
            .iter_mut()
            .map(|(spec, buf)| match (buf, spec.dir) {
                (Some(b), ArgDir::In) => ArgBuf::In(b),
                (Some(b), ArgDir::Out) => ArgBuf::Out(b),
                (None, _) => ArgBuf::Absent,
            })
            .collect()
    }
}

/// Runs `op` once over the whole world of `comm`, at base tag 0 under
/// a flat `strategy`, on byte buffers filled with `i % 251` and folded
/// with `Max` — the shapes [`lower`](super::lower) and the verifier
/// replay symbolically, so what a backend records of this run lines up
/// one-to-one with the extracted schedule. Returns the rank's buffers
/// as the call left them.
pub fn run_filled<C: Comm + ?Sized>(
    comm: &C,
    op: PlanOp,
    strategy: Option<&Strategy>,
    n: usize,
) -> Result<OwnedArgs<u8>> {
    let rank = comm.rank();
    let mut bufs = OwnedArgs::new(op, comm.size(), n, rank);
    bufs.fill_contribution(op, rank, |i| (i % 251) as u8);
    let choice = strategy.map(|s| HierChoice::Flat(s.clone()));
    let (gc, scratch) = (GroupComm::world(comm), &mut Vec::new());
    let rop = ReduceOp::Max;
    run_direct(op, choice.as_ref(), &gc, rop, &mut bufs.bind(), scratch, 0)?;
    Ok(bufs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;

    fn all_ops(root: usize) -> [PlanOp; 9] {
        [
            PlanOp::Broadcast { root },
            PlanOp::Reduce { root },
            PlanOp::AllReduce,
            PlanOp::ReduceScatter,
            PlanOp::Collect,
            PlanOp::Scatter { root },
            PlanOp::Gather { root },
            PlanOp::Alltoall,
            PlanOp::PipelinedBcast { root, segments: 3 },
        ]
    }

    #[test]
    fn owned_args_match_the_arg_specs() {
        for p in [1usize, 5] {
            let root = p - 1;
            for op in all_ops(root) {
                let specs = op.args(p, 7);
                for rank in 0..p {
                    let mut owned = OwnedArgs::<u16>::new(op, p, 7, rank);
                    assert_eq!(owned.slots.len(), specs.len());
                    for ((spec, buf), want) in owned.slots.iter().zip(&specs) {
                        assert_eq!(spec.name, want.name);
                        let bound = want.only_rank.is_none_or(|r| r == rank);
                        assert_eq!(buf.is_some(), bound, "{op} slot {} rank {rank}", want.name);
                        if let Some(b) = buf {
                            assert_eq!(b.len(), want.elems);
                            assert!(b.iter().all(|&x| x == 0));
                        }
                    }
                    for (arg, want) in owned.bind().iter().zip(&specs) {
                        let bound = want.only_rank.is_none_or(|r| r == rank);
                        match (arg, want.dir) {
                            (ArgBuf::In(_), ArgDir::In) | (ArgBuf::Out(_), ArgDir::Out) => {
                                assert!(bound)
                            }
                            (ArgBuf::Absent, _) => assert!(!bound),
                            _ => panic!("{op}: slot {} bound the wrong way", want.name),
                        }
                    }
                }
            }
        }
        // The root-only `full` slot exists on the root alone.
        let scatter = PlanOp::Scatter { root: 4 };
        assert!(OwnedArgs::<u8>::new(scatter, 5, 2, 4).slots[0].1.is_some());
        assert!(OwnedArgs::<u8>::new(scatter, 5, 2, 0).slots[0].1.is_none());
        let gather = PlanOp::Gather { root: 4 };
        assert_eq!(
            OwnedArgs::<u8>::new(gather, 5, 2, 4).slots[1]
                .1
                .as_ref()
                .map(Vec::len),
            Some(10)
        );
        assert!(OwnedArgs::<u8>::new(gather, 5, 2, 3).slots[1].1.is_none());
    }

    #[test]
    fn contributions_are_filled_and_results_left_zeroed() {
        let pat = |i: usize| (i + 1) as u8;
        let filled = |op: PlanOp, rank: usize| {
            let mut owned = OwnedArgs::<u8>::new(op, 3, 2, rank);
            owned.fill_contribution(op, rank, pat);
            owned
                .slots
                .into_iter()
                .map(|(_, b)| b.map(|b| b.iter().any(|&x| x != 0)))
                .collect::<Vec<_>>()
        };
        let bcast = PlanOp::Broadcast { root: 1 };
        assert_eq!(filled(bcast, 1), [Some(true)]);
        assert_eq!(filled(bcast, 0), [Some(false)]);
        assert_eq!(filled(PlanOp::AllReduce, 2), [Some(true)]);
        assert_eq!(filled(PlanOp::Collect, 0), [Some(true), Some(false)]);
        assert_eq!(
            filled(PlanOp::Scatter { root: 0 }, 0),
            [Some(true), Some(false)]
        );
        assert_eq!(filled(PlanOp::Scatter { root: 0 }, 2), [None, Some(false)]);
    }

    #[test]
    fn every_op_runs_on_a_world_of_one() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let choice = HierChoice::Flat(Strategy::pure_mst(1));
        for op in all_ops(0) {
            let mut owned = OwnedArgs::<u32>::new(op, 1, 4, 0);
            owned.fill_contribution(op, 0, |i| i as u32 + 1);
            let choice = op.takes_strategy().then_some(&choice);
            let (args, scratch) = (&mut owned.bind(), &mut Vec::new());
            run_direct(op, choice, &gc, ReduceOp::Sum, args, scratch, 0).unwrap();
            let (_, last) = owned.slots.last().unwrap();
            assert_eq!(last.as_deref(), Some(&[1, 2, 3, 4][..]), "{op}");
        }
    }

    #[test]
    fn mismatched_calls_are_rejected() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let choice = HierChoice::Flat(Strategy::pure_mst(1));
        let mut buf = [0u8; 2];
        // Wrong slot count.
        assert!(matches!(
            run_direct(
                PlanOp::Collect,
                Some(&choice),
                &gc,
                ReduceOp::Sum,
                &mut [ArgBuf::Out(&mut buf)],
                &mut Vec::new(),
                0
            ),
            Err(CommError::PlanMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "requires a strategy")]
    fn missing_strategy_panics() {
        let c = SelfComm;
        let mut buf = [0u8; 2];
        let _ = run_direct(
            PlanOp::Broadcast { root: 0 },
            None,
            &GroupComm::world(&c),
            ReduceOp::Sum,
            &mut [ArgBuf::Out(&mut buf)],
            &mut Vec::new(),
            0,
        );
    }
}
