//! Lowering: from a symbolic per-rank replay to a [`CollectiveProgram`].
//!
//! Each rank's call is replayed once through the direct-path runner
//! ([`run_direct`]) against a
//! [`RecordingComm`](crate::trace::RecordingComm) with the argument
//! buffers registered as named regions — the algorithms branch only on
//! `(rank, size, n, strategy, root)`, so the replayed operation stream
//! *is* the schedule. The recorded raw address spans are then resolved
//! into [`Loc`]s: spans inside a registered argument become
//! [`Buf::Arg`] offsets, and the remaining temporary allocations are
//! clustered by byte overlap (data can only flow between spans that
//! share bytes) and packed into a per-rank scratch arena.

use super::{
    fresh_plan_id, run_direct, Buf, CollectiveProgram, Loc, OwnedArgs, PlanOp, RankProgram, Step,
    StepKind,
};
use crate::comm::GroupComm;
use crate::error::{CommError, Result};
use crate::op::{Elem, ReduceOp};
use crate::trace::{MemSpan, OpRecord, RecordingComm};
use intercom_cost::{HierChoice, HierStrategy, Strategy};

/// Scratch-arena alignment: every temporary cluster starts on a 16-byte
/// boundary, a multiple of every supported element size.
const ARENA_ALIGN: usize = 16;

/// Lowers one collective call into a compiled program for all `p` ranks.
///
/// `n` is the size parameter in *elements* (unit per [`PlanOp::args`])
/// and `elem_size` the element width in bytes. The program is valid for
/// any scalar type of that width: lowering never branches on values,
/// only on element geometry.
///
/// # Panics
///
/// Panics if `strategy` is `None` for an op where
/// [`PlanOp::takes_strategy`] is true, or if `elem_size` is not one of
/// the supported scalar widths (1, 2, 4, 8).
pub fn lower(
    op: PlanOp,
    strategy: Option<&Strategy>,
    p: usize,
    n: usize,
    elem_size: usize,
) -> Result<CollectiveProgram> {
    let choice = strategy.map(|s| HierChoice::Flat(s.clone()));
    lower_choice(op, choice, p, n, elem_size)
}

/// Lowers one *hierarchical* collective call into a compiled program
/// for all `hs.shape.ranks()` ranks. The per-rank replay runs the
/// leader-based compositions of [`crate::hier`], so the resulting
/// program's transfers land in per-stage tag bands (stage `k` at
/// levels `k · HIER_STAGE_STRIDE / LEVEL_TAG_STRIDE` and up) — the same IR, executors and verifier checks apply
/// unchanged.
///
/// Supported ops are the five with a hierarchical template: broadcast,
/// reduce, allreduce, reduce-scatter and collect. Others err with
/// [`PlanMismatch`](crate::error::CommError::PlanMismatch).
///
/// # Panics
///
/// Panics if `elem_size` is not one of the supported scalar widths
/// (1, 2, 4, 8).
pub fn lower_hier(
    op: PlanOp,
    hs: &HierStrategy,
    n: usize,
    elem_size: usize,
) -> Result<CollectiveProgram> {
    let choice = Some(HierChoice::Hier(hs.clone()));
    lower_choice(op, choice, hs.shape.ranks(), n, elem_size)
}

fn lower_choice(
    op: PlanOp,
    choice: Option<HierChoice>,
    p: usize,
    n: usize,
    elem_size: usize,
) -> Result<CollectiveProgram> {
    let ranks = (0..p)
        .map(|rank| match elem_size {
            1 => replay_rank::<u8>(op, choice.as_ref(), p, n, rank),
            2 => replay_rank::<u16>(op, choice.as_ref(), p, n, rank),
            4 => replay_rank::<u32>(op, choice.as_ref(), p, n, rank),
            8 => replay_rank::<u64>(op, choice.as_ref(), p, n, rank),
            other => panic!("unsupported element size {other} (expected 1, 2, 4 or 8)"),
        })
        .collect::<Result<Vec<_>>>()?;
    let (strategy, hier) = match choice {
        Some(HierChoice::Flat(s)) => (Some(s), None),
        Some(HierChoice::Hier(h)) => (None, Some(h)),
        None => (None, None),
    };
    Ok(CollectiveProgram {
        plan_id: fresh_plan_id(),
        op,
        p,
        n,
        elem_size,
        strategy,
        hier,
        ranks,
    })
}

/// Replays rank `rank`'s direct-path call at base tag 0 with its
/// argument buffers registered by slot name, then resolves the
/// recorded spans.
fn replay_rank<T: Elem>(
    op: PlanOp,
    choice: Option<&HierChoice>,
    p: usize,
    n: usize,
    rank: usize,
) -> Result<RankProgram> {
    let rec = RecordingComm::new(rank, p);
    let mut bufs = OwnedArgs::<T>::new(op, p, n, rank);
    for (spec, buf) in &bufs.slots {
        if let Some(buf) = buf {
            rec.register(spec.name, buf);
        }
    }
    let gc = GroupComm::world(&rec);
    let scratch = &mut Vec::new();
    run_direct(op, choice, &gc, ReduceOp::Sum, &mut bufs.bind(), scratch, 0)?;
    resolve_recorded::<T>(rec, op, p, n)
}

/// Maps a finished recording's registered regions back to argument
/// slots by name (a non-root rank registers fewer regions than the op
/// has slots) and resolves the recorded spans into a [`RankProgram`].
fn resolve_recorded<T: Elem>(
    rec: RecordingComm,
    op: PlanOp,
    p: usize,
    n: usize,
) -> Result<RankProgram> {
    let specs = op.args(p, n);
    let args: Vec<(usize, usize, usize)> = rec
        .regions()
        .into_iter()
        .map(|rg| {
            let slot = specs
                .iter()
                .position(|s| s.name == rg.name)
                .expect("registered region matches an argument slot");
            (slot, rg.addr, rg.len)
        })
        .collect();
    let ops = rec.into_ops();
    resolve_rank(&ops, &args, std::mem::size_of::<T>())
}

/// `v` in a compact step field, or the error that says it does not fit.
fn fit<U: TryFrom<V>, V>(v: V) -> Result<U> {
    U::try_from(v).map_err(|_| CommError::PlanMismatch {
        what: "a step operand does not fit the compact step layout",
    })
}

/// Resolves one rank's recorded spans into a [`RankProgram`].
fn resolve_rank(
    ops: &[OpRecord],
    args: &[(usize, usize, usize)],
    elem: usize,
) -> Result<RankProgram> {
    let arena = Arena::build(ops, args);
    let resolve = |span: MemSpan| arena.resolve(span, args, elem);
    let mut steps = Vec::with_capacity(ops.len());
    for op in ops {
        let kind = match *op {
            OpRecord::Send { to, tag, src } => StepKind::Send {
                to: fit(to)?,
                tag_off: fit(tag)?,
                src: resolve(src)?,
            },
            OpRecord::Recv { from, tag, dst } => StepKind::Recv {
                from: fit(from)?,
                tag_off: fit(tag)?,
                dst: resolve(dst)?,
            },
            OpRecord::SendRecv {
                to,
                src,
                from,
                dst,
                tag,
                rtag,
            } => {
                debug_assert_eq!(tag, rtag, "library schedules exchange under one tag");
                StepKind::SendRecv {
                    to: fit(to)?,
                    src: resolve(src)?,
                    from: fit(from)?,
                    dst: resolve(dst)?,
                    tag_off: fit(tag)?,
                }
            }
            OpRecord::Copy { src, dst } => StepKind::Copy {
                src: resolve(src)?,
                dst: resolve(dst)?,
            },
            OpRecord::Reduce { acc, other } => StepKind::Reduce {
                acc: resolve(acc)?,
                other: resolve(other)?,
            },
            OpRecord::Compute { bytes } => StepKind::Compute { bytes: fit(bytes)? },
            OpRecord::CallOverhead => StepKind::CallOverhead,
        };
        steps.push(Step { kind });
    }
    Ok(RankProgram {
        steps,
        scratch_bytes: arena.total_bytes,
    })
}

/// The scratch arena layout of one rank: recorded temporary spans,
/// clustered by byte overlap and packed with aligned bases.
struct Arena {
    /// `(start_addr, end_addr, arena_offset)` per cluster, sorted.
    clusters: Vec<(usize, usize, usize)>,
    total_bytes: usize,
}

impl Arena {
    fn build(ops: &[OpRecord], args: &[(usize, usize, usize)]) -> Arena {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let mut note = |s: &MemSpan| {
            if s.len > 0 && in_arg(s, args).is_none() {
                spans.push((s.addr, s.addr + s.len));
            }
        };
        for op in ops {
            match op {
                OpRecord::Send { src, .. } => note(src),
                OpRecord::Recv { dst, .. } => note(dst),
                OpRecord::SendRecv { src, dst, .. } => {
                    note(src);
                    note(dst);
                }
                OpRecord::Copy { src, dst } => {
                    note(src);
                    note(dst);
                }
                OpRecord::Reduce { acc, other } => {
                    note(acc);
                    note(other);
                }
                OpRecord::Compute { .. } | OpRecord::CallOverhead => {}
            }
        }
        spans.sort_unstable();
        // Merge strictly overlapping intervals: data only flows between
        // spans sharing bytes, so non-overlapping temporaries are
        // independent and may pack into separate arena regions.
        let mut clusters: Vec<(usize, usize, usize)> = Vec::new();
        let mut total = 0usize;
        for (start, end) in spans {
            match clusters.last_mut() {
                Some((_, ce, _)) if start < *ce => *ce = (*ce).max(end),
                _ => clusters.push((start, end, 0)),
            }
        }
        for c in &mut clusters {
            total = total.next_multiple_of(ARENA_ALIGN);
            c.2 = total;
            total += c.1 - c.0;
        }
        Arena {
            clusters,
            total_bytes: total,
        }
    }

    fn resolve(&self, span: MemSpan, args: &[(usize, usize, usize)], elem: usize) -> Result<Loc> {
        if span.len == 0 {
            // Canonical empty location: zero-length ring blocks from
            // uneven partitions carry no data.
            return Ok(Loc {
                buf: Buf::Scratch,
                off: 0,
                len: 0,
            });
        }
        let (buf, off) = if let Some((slot, base)) = in_arg(&span, args) {
            (Buf::Arg(fit(slot)?), span.addr - base)
        } else {
            let (cs, _, off) = *self
                .clusters
                .iter()
                .find(|(cs, ce, _)| span.addr >= *cs && span.addr + span.len <= *ce)
                .expect("recorded span lies in a scratch cluster");
            (Buf::Scratch, off + (span.addr - cs))
        };
        debug_assert!(
            off.is_multiple_of(elem) && span.len.is_multiple_of(elem),
            "span not element-aligned"
        );
        // The end fits too, so offset arithmetic on steps never wraps.
        let end: u32 = fit(off + span.len)?;
        let off: u32 = fit(off)?;
        Ok(Loc {
            buf,
            off,
            len: end - off,
        })
    }
}

/// `(slot, region base address)` if `span` lies wholly within a
/// registered argument region.
fn in_arg(span: &MemSpan, args: &[(usize, usize, usize)]) -> Option<(usize, usize)> {
    args.iter()
        .find(|(_, addr, len)| span.addr >= *addr && span.addr + span.len <= addr + len)
        .map(|(slot, addr, _)| (*slot, *addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::LEVEL_TAG_STRIDE;

    #[test]
    fn values_beyond_the_compact_fields_are_refused() {
        assert_eq!(fit::<u32, usize>(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            fit::<u16, usize>(70_000),
            Err(CommError::PlanMismatch {
                what: "a step operand does not fit the compact step layout",
            })
        );
        assert!(fit::<u32, usize>(1 << 32).is_err());
        assert!(fit::<u32, u64>(1 << 32).is_err());
        assert!(fit::<u8, usize>(256).is_err());
    }

    #[test]
    fn mst_broadcast_lowers_to_arg_only_steps() {
        let st = Strategy::pure_mst(8);
        let prog = lower(PlanOp::Broadcast { root: 0 }, Some(&st), 8, 64, 1).unwrap();
        assert_eq!(prog.p, 8);
        assert_eq!(prog.ranks.len(), 8);
        // A pure-MST broadcast needs no temporaries anywhere.
        for rp in &prog.ranks {
            assert_eq!(rp.scratch_bytes, 0);
            for s in &rp.steps {
                match s.kind {
                    StepKind::Send { src, .. } => assert_eq!(src.buf, Buf::Arg(0)),
                    StepKind::Recv { dst, .. } => assert_eq!(dst.buf, Buf::Arg(0)),
                    StepKind::CallOverhead => {}
                    ref other => panic!("unexpected step {other:?}"),
                }
            }
        }
        // Root sends ⌈log₂ 8⌉ = 3 times.
        let sends = prog.ranks[0]
            .steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Send { .. }))
            .count();
        assert_eq!(sends, 3);
    }

    #[test]
    fn reduce_lowering_allocates_scratch_and_is_op_agnostic() {
        let st = Strategy::pure_mst(4);
        let prog = lower(PlanOp::Reduce { root: 0 }, Some(&st), 4, 16, 8).unwrap();
        // The root folds received contributions out of a scratch buffer.
        let root = &prog.ranks[0];
        assert!(root.scratch_bytes >= 16 * 8);
        assert!(root
            .steps
            .iter()
            .any(|s| matches!(s.kind, StepKind::Reduce { .. })));
        // No ReduceOp appears anywhere in the IR: the ⊕ binds at
        // execution time.
    }

    #[test]
    fn stage_ids_follow_tag_discipline() {
        let st = Strategy::new(vec![3, 3], intercom_cost::StrategyKind::ScatterCollect);
        let prog = lower(PlanOp::AllReduce, Some(&st), 9, 18, 4).unwrap();
        let mut levels = std::collections::BTreeSet::new();
        for rp in &prog.ranks {
            for s in &rp.steps {
                match s.kind.tag_off() {
                    Some(tag_off) => {
                        assert!(s.kind.is_transfer());
                        levels.insert(u64::from(tag_off) / LEVEL_TAG_STRIDE);
                    }
                    None => assert!(!s.kind.is_transfer(), "{s:?}"),
                }
            }
        }
        assert_eq!(
            levels.into_iter().collect::<Vec<_>>(),
            [0, 1],
            "a 2-D hybrid recurses one level down"
        );
    }

    #[test]
    fn hier_lowering_bands_stages_and_keeps_arg_discipline() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let shape = ClusterShape::linear(3, 4);
        let hs = select_hier(
            CollectiveOp::CombineToAll,
            shape,
            64 * 8,
            &HierMachine::paragon_cluster(),
        )
        .unwrap();
        let prog = lower_hier(PlanOp::AllReduce, &hs, 64, 8).unwrap();
        assert_eq!(prog.p, 12);
        assert_eq!(prog.hier.as_ref(), Some(&hs));
        assert!(prog.strategy.is_none());
        // Stage k's steps sit in the level band [k·128, (k+1)·128):
        // hier stage tags stride 1024 and stage levels stride by 8.
        let band = crate::hier::HIER_STAGE_STRIDE / LEVEL_TAG_STRIDE;
        let bands: std::collections::BTreeSet<u64> = prog
            .ranks
            .iter()
            .flat_map(|rp| rp.steps.iter().filter_map(|s| s.kind.tag_off()))
            .map(|tag_off| u64::from(tag_off) / LEVEL_TAG_STRIDE / band)
            .collect();
        assert_eq!(
            bands.into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2],
            "reduce, allreduce and bcast stages all present"
        );
    }

    #[test]
    fn hier_lowering_rejects_non_hierarchical_ops() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let shape = ClusterShape::linear(2, 2);
        let hs = select_hier(
            CollectiveOp::Broadcast,
            shape,
            64,
            &HierMachine::paragon_cluster(),
        )
        .unwrap();
        assert!(lower_hier(PlanOp::Alltoall, &hs, 8, 4).is_err());
        assert!(lower_hier(PlanOp::Scatter { root: 0 }, &hs, 8, 4).is_err());
    }

    #[test]
    fn arenas_take_at_most_half_the_room_fits_steps_leaves() {
        use super::super::ARENA_HEADROOM;
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine, StrategyKind};
        let check = |prog: CollectiveProgram| {
            let largest = prog.op.cost_bytes(prog.p, prog.n, prog.elem_size);
            for rp in &prog.ranks {
                assert!(
                    2 * rp.scratch_bytes <= ARENA_HEADROOM * largest,
                    "{} p={}: a {}-byte arena beside a {largest}-byte argument",
                    prog.op,
                    prog.p,
                    rp.scratch_bytes
                );
            }
        };
        let n = 100;
        for p in [1, 4, 5, 9, 12, 16, 17] {
            let mut strategies = vec![Strategy::pure_mst(p), Strategy::pure_long(p)];
            if p == 12 {
                strategies.push(Strategy::new(vec![3, 4], StrategyKind::Mst));
                strategies.push(Strategy::new(vec![4, 3], StrategyKind::ScatterCollect));
            }
            for op in [
                PlanOp::Broadcast { root: 0 },
                PlanOp::Reduce { root: p - 1 },
                PlanOp::AllReduce,
                PlanOp::ReduceScatter,
                PlanOp::Collect,
            ] {
                for st in &strategies {
                    check(lower(op, Some(st), p, n, 8).unwrap());
                }
            }
            for op in [
                PlanOp::Scatter { root: 0 },
                PlanOp::Gather { root: p - 1 },
                PlanOp::Alltoall,
                PlanOp::PipelinedBcast {
                    root: 0,
                    segments: 3,
                },
            ] {
                check(lower(op, None, p, n, 8).unwrap());
            }
        }
        let shape = ClusterShape::linear(4, 4);
        for machine in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
            for (op, cop) in [
                (PlanOp::Broadcast { root: 0 }, CollectiveOp::Broadcast),
                (PlanOp::Reduce { root: 0 }, CollectiveOp::CombineToOne),
                (PlanOp::AllReduce, CollectiveOp::CombineToAll),
                (PlanOp::ReduceScatter, CollectiveOp::DistributedCombine),
                (PlanOp::Collect, CollectiveOp::Collect),
            ] {
                for bytes in [8 * n, 8 * 16 * n] {
                    if let Some(hs) = select_hier(cop, shape, bytes, &machine) {
                        check(lower_hier(op, &hs, n, 8).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn empty_vector_programs_still_schedule_messages() {
        let st = Strategy::pure_mst(3);
        let prog = lower(PlanOp::AllReduce, Some(&st), 3, 0, 8).unwrap();
        assert!(prog.comm_steps() > 0, "barrier-style allreduce still syncs");
        for rp in &prog.ranks {
            assert_eq!(rp.scratch_bytes, 0);
        }
    }
}
