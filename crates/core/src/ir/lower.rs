//! Lowering: from a symbolic per-rank replay to a [`CollectiveProgram`].
//!
//! Each rank's call is replayed once through the direct-path runner
//! ([`run_direct`]) against a
//! [`RecordingComm`](crate::trace::RecordingComm) with the argument
//! buffers registered as named regions — the algorithms branch only on
//! `(rank, size, n, strategy, root)`, so the replayed operation stream
//! *is* the schedule. The recorded raw address spans are then resolved
//! into [`Loc`]s: spans inside a registered argument become
//! [`Buf::Arg`] offsets, and the remaining temporaries are clustered by
//! byte overlap (data can only flow between spans that share bytes) and
//! packed into a per-rank scratch arena. Every temporary is a view of
//! the one arena the replay lends, never a per-call heap vector, so
//! the clusters do not depend on where the heap put one, and a call
//! lowers to one program. A receive
//! whose temporary is only folded and then dead is fused with its fold
//! first ([`fuses`]), and its temporary leaves the arena. A collect's
//! un-permutation is recorded once and lowers to one
//! [`StepKind::Permute`], its radices entered in the program's table.

use super::{
    fresh_plan_id, landing_of, run_direct, ArgBuf, ArgDir, ArgSpec, Buf, CollectiveProgram, Loc,
    PlanOp, RankProgram, Step, StepKind,
};
use crate::cast::regrow_arena;
use crate::comm::{Comm, GroupComm};
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
/// for all `hs.shape().ranks()` ranks. The per-rank replay runs the
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
    lower_choice(op, choice, hs.shape().ranks(), n, elem_size)
}

fn lower_choice(
    op: PlanOp,
    choice: Option<HierChoice>,
    p: usize,
    n: usize,
    elem_size: usize,
) -> Result<CollectiveProgram> {
    lower_in(op, choice, p, n, elem_size, &mut Vec::new())
}

/// [`lower_choice`] with the replays' argument buffers views of `pool`
/// ([`replay_rank`]), which it grows to the largest call's and leaves as
/// it is.
pub(super) fn lower_in(
    op: PlanOp,
    choice: Option<HierChoice>,
    p: usize,
    n: usize,
    elem_size: usize,
    pool: &mut Vec<u64>,
) -> Result<CollectiveProgram> {
    let (ranks, radices) = match elem_size {
        1 => replay_ranks::<u8>(op, choice.as_ref(), p, n, pool),
        2 => replay_ranks::<u16>(op, choice.as_ref(), p, n, pool),
        4 => replay_ranks::<u32>(op, choice.as_ref(), p, n, pool),
        8 => replay_ranks::<u64>(op, choice.as_ref(), p, n, pool),
        other => panic!("unsupported element size {other} (expected 1, 2, 4 or 8)"),
    }?;
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
        radices,
        series: Default::default(),
    })
}

/// Replays every rank's direct-path call at base tag 0 with its
/// argument buffers registered by slot name, then resolves the
/// recorded spans. The replays record where data would go and move
/// none: no receive fills its buffer, no copy or fold runs.
///
/// Each replay gets a fresh scratch arena, and every temporary the
/// replay records is a view of it. The arena's spans are clustered by
/// address overlap, so one arena shared over the ranks (grown once,
/// never moved) would merge clusters a fresh arena keeps apart when it
/// moves as it grows, and the layouts would change.
///
/// Returns the rank programs and the radices table their permutations
/// index.
fn replay_ranks<T: Elem>(
    op: PlanOp,
    choice: Option<&HierChoice>,
    p: usize,
    n: usize,
    pool: &mut Vec<u64>,
) -> Result<(Vec<RankProgram>, Vec<Vec<usize>>)> {
    let mut radices = Vec::new();
    let ranks = (0..p)
        .map(|rank| {
            let rec = RecordingComm::new(rank, p);
            replay_rank::<T>(&rec, &GroupComm::recording(&rec), op, choice, n, pool)?;
            resolve_recorded::<T>(rec, op, p, n, &mut radices)
        })
        .collect::<Result<_>>()?;
    Ok((ranks, radices))
}

/// Runs `gc`'s rank's direct-path call over its argument buffers,
/// registered with `rec` by slot name, and a fresh arena.
///
/// The argument buffers are views of `pool`, 16 bytes apart: the
/// replay moves no data, so they are never written, and a pool that
/// outlives the replay (the plan cache keeps one) is never resident. A
/// zeroed vector per replay would be: the allocator hands a recycled
/// block back zeroed by writing it, which made a threaded world's first
/// 4 MiB allreduce 4 MiB more resident than its direct call.
fn replay_rank<T: Elem>(
    rec: &RecordingComm,
    gc: &GroupComm<'_, RecordingComm>,
    op: PlanOp,
    choice: Option<&HierChoice>,
    n: usize,
    pool: &mut Vec<u64>,
) -> Result<()> {
    let (slots, count) = op.slots(rec.size(), n);
    let slots = &slots[..count];
    let bound = |s: &ArgSpec| s.only_rank.is_none_or(|r| r == rec.rank());
    let gap = 16 / T::SIZE;
    let total: usize = slots
        .iter()
        .filter(|s| bound(s))
        .map(|s| s.elems + gap)
        .sum();
    regrow_arena(pool, (total * T::SIZE).div_ceil(8));
    let mut rest = T::scratch(pool, total);
    let mut args = Vec::with_capacity(count);
    for spec in slots {
        if !bound(spec) {
            args.push(ArgBuf::Absent);
            continue;
        }
        let (view, tail) = std::mem::take(&mut rest).split_at_mut(spec.elems);
        rest = &mut tail[gap..];
        rec.register(spec.name, view);
        args.push(match spec.dir {
            ArgDir::In => ArgBuf::In(&*view),
            ArgDir::Out => ArgBuf::Out(view),
        });
    }
    let scratch = &mut Vec::new();
    run_direct(op, choice, gc, ReduceOp::Sum, &mut args, scratch, 0)
}

/// Maps a finished recording's registered regions back to argument
/// slots by name (a non-root rank registers fewer regions than the op
/// has slots) and resolves the recorded spans into a [`RankProgram`],
/// entering its permutations' radices in `radices`.
fn resolve_recorded<T: Elem>(
    rec: RecordingComm,
    op: PlanOp,
    p: usize,
    n: usize,
    radices: &mut Vec<Vec<usize>>,
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
    resolve_rank(&ops, &args, std::mem::size_of::<T>(), radices)
}

/// What lowering errs with where a value does not fit a compact step.
const UNFIT: CommError = CommError::PlanMismatch {
    what: "a step operand does not fit the compact step layout",
};

/// `v` in a compact step field, or the error that says it does not fit.
fn fit<U: TryFrom<V>, V>(v: V) -> Result<U> {
    U::try_from(v).map_err(|_| UNFIT)
}

/// Resolves one rank's recorded spans into a [`RankProgram`], each
/// receive that [`fuses`] with the fold after it emitted as one step,
/// and each permutation's radices looked up in (or added to) `radices`.
fn resolve_rank(
    ops: &[OpRecord],
    args: &[(usize, usize, usize)],
    elem: usize,
    radices: &mut Vec<Vec<usize>>,
) -> Result<RankProgram> {
    let fused: Vec<bool> = (0..ops.len()).map(|i| fuses(ops, i, args)).collect();
    let arena = Arena::build(ops, args, &fused);
    let resolve = |span: MemSpan| arena.resolve(span, args, elem);
    let mut steps = Vec::with_capacity(ops.len());
    let mut records = ops.iter().enumerate().zip(&fused);
    while let Some(((i, op), &fuse)) = records.next() {
        let combine = combines(ops, i);
        if fuse || combine {
            let Some(((_, &OpRecord::Reduce { acc, other }), _)) = records.next() else {
                unreachable!("a fused receive is followed by its fold")
            };
            let kind = match *op {
                OpRecord::Recv { from, tag, .. } => StepKind::RecvReduce {
                    from: fit(from)?,
                    tag_off: fit(tag)?,
                    acc: resolve(acc)?,
                },
                OpRecord::SendRecv {
                    to,
                    src,
                    from,
                    dst,
                    tag,
                } if combine => StepKind::SendRecvCombine {
                    to: fit(to)?,
                    from: fit(from)?,
                    src: resolve(src)?.into(),
                    dst: resolve(dst)?.into(),
                    other: resolve(other)?.into(),
                    len: fit(dst.len)?,
                    tag_off: fit(tag)?,
                },
                OpRecord::SendRecv {
                    to, src, from, tag, ..
                } => StepKind::SendRecvReduce {
                    to: fit(to)?,
                    src: resolve(src)?,
                    from: fit(from)?,
                    acc: resolve(acc)?,
                    tag_off: fit(tag)?,
                },
                _ => unreachable!("only receives fuse"),
            };
            steps.push(Step { kind });
            continue;
        }
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
            } => StepKind::SendRecv {
                to: fit(to)?,
                src: resolve(src)?,
                from: fit(from)?,
                dst: resolve(dst)?,
                tag_off: fit(tag)?,
            },
            OpRecord::Copy { src, dst } => StepKind::Copy {
                src: resolve(src)?,
                dst: resolve(dst)?,
            },
            OpRecord::Reduce { acc, other } => StepKind::Reduce {
                acc: resolve(acc)?,
                other: resolve(other)?,
            },
            OpRecord::Permute {
                region,
                held,
                radices: digits,
            } => {
                let digits = digits.ok_or(UNFIT)?.to_vec();
                let index = match radices.iter().position(|r| *r == digits) {
                    Some(index) => index,
                    None => {
                        radices.push(digits);
                        radices.len() - 1
                    }
                };
                StepKind::Permute {
                    region: resolve(region)?,
                    held: resolve(held)?,
                    radices: fit(index)?,
                }
            }
            OpRecord::Compute { bytes } => StepKind::Compute { bytes: fit(bytes)? },
            OpRecord::CallOverhead => StepKind::CallOverhead,
        };
        steps.push(Step { kind });
    }
    Ok(RankProgram {
        landing_bytes: landing_of(&steps),
        steps,
        scratch_bytes: arena.total_bytes,
    })
}

/// Whether `ops[i]` is a receive whose message is only folded and then
/// dead, so that it and the fold right after it are one step:
///
/// * it lands in a temporary `R` (no argument), and `ops[i + 1]` is a
///   `Reduce` out of exactly `R` into an accumulator disjoint from `R`;
/// * for an exchange, that accumulator is disjoint from the send half's
///   bytes too (the halves may complete at different times);
/// * no later op reads a byte of `R` before an op overwrites it.
///
/// These are the combining hops of the MST combine and the bucket
/// distributed combine (`recv_with` / `sendrecv_with` on the direct
/// path).
fn fuses(ops: &[OpRecord], i: usize, args: &[(usize, usize, usize)]) -> bool {
    let (dst, src) = match ops[i] {
        OpRecord::Recv { dst, .. } => (dst, None),
        OpRecord::SendRecv { src, dst, .. } => (dst, Some(src)),
        _ => return false,
    };
    let Some(&OpRecord::Reduce { acc, other }) = ops.get(i + 1) else {
        return false;
    };
    if other != dst || in_arg(&dst, args).is_some() || acc.overlaps(&dst) {
        return false;
    }
    if src.is_some_and(|src| acc.overlaps(&src)) {
        return false;
    }
    // The bytes of `R` no later op has overwritten yet.
    let mut live = vec![(dst.addr, dst.addr + dst.len)];
    for op in &ops[i + 2..] {
        live.retain(|&(lo, hi)| lo < hi);
        if live.is_empty() {
            break;
        }
        let (reads, writes) = footprint(op);
        let read = |s: &MemSpan| {
            live.iter().any(|&(lo, hi)| {
                s.overlaps(&MemSpan {
                    addr: lo,
                    len: hi - lo,
                })
            })
        };
        if reads.iter().flatten().any(read) {
            return false;
        }
        for w in writes.iter().flatten() {
            let (wlo, whi) = (w.addr, w.addr + w.len);
            live = live
                .into_iter()
                .flat_map(|(lo, hi)| [(lo, hi.min(wlo)), (lo.max(whi), hi)])
                .collect();
        }
    }
    true
}

/// Whether `ops[i]` is an exchange whose landing has a third region
/// folded into it right after (`ops[i + 1]` is `Reduce { acc: dst,
/// other }`), so that the two are one [`StepKind::SendRecvCombine`]:
/// the in-place ring distributed combine's hop, `bucket = arrived ⊕
/// block`. Its three regions are equally long and not empty (an empty
/// hop is the optimizer's to elide), and the landing shares no byte
/// with the bytes sent or the block (the send half may still be
/// reading when the combine writes).
fn combines(ops: &[OpRecord], i: usize) -> bool {
    let OpRecord::SendRecv { src, dst, .. } = ops[i] else {
        return false;
    };
    let Some(&OpRecord::Reduce { acc, other }) = ops.get(i + 1) else {
        return false;
    };
    acc == dst
        && dst.len > 0
        && src.len == dst.len
        && other.len == dst.len
        && !dst.overlaps(&src)
        && !dst.overlaps(&other)
}

/// The spans `op` reads and the spans it writes.
fn footprint(op: &OpRecord) -> ([Option<MemSpan>; 2], [Option<MemSpan>; 2]) {
    match *op {
        OpRecord::Send { src, .. } => ([Some(src), None], [None, None]),
        OpRecord::Recv { dst, .. } => ([None, None], [Some(dst), None]),
        OpRecord::SendRecv { src, dst, .. } | OpRecord::Copy { src, dst } => {
            ([Some(src), None], [Some(dst), None])
        }
        OpRecord::Reduce { acc, other } => ([Some(acc), Some(other)], [Some(acc), None]),
        // The held block is written before it is read.
        OpRecord::Permute { region, held, .. } => {
            ([Some(region), None], [Some(region), Some(held)])
        }
        OpRecord::Compute { .. } | OpRecord::CallOverhead => ([None, None], [None, None]),
    }
}

/// The scratch arena layout of one rank: recorded temporary spans,
/// clustered by byte overlap and packed with aligned bases.
struct Arena {
    /// `(start_addr, end_addr, arena_offset)` per cluster, sorted.
    clusters: Vec<(usize, usize, usize)>,
    total_bytes: usize,
}

impl Arena {
    /// The layout of the temporaries `ops` name, less the landings of
    /// the receives `fused` marks (no step names those).
    fn build(ops: &[OpRecord], args: &[(usize, usize, usize)], fused: &[bool]) -> Arena {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let mut note = |s: &MemSpan| {
            if s.len > 0 && in_arg(s, args).is_none() {
                spans.push((s.addr, s.addr + s.len));
            }
        };
        for (i, op) in ops.iter().enumerate() {
            let landed = i > 0 && fused[i - 1];
            match *op {
                OpRecord::Recv { .. } if fused[i] => {}
                OpRecord::SendRecv { src, .. } if fused[i] => note(&src),
                OpRecord::Reduce { acc, .. } if landed => note(&acc),
                _ => {
                    let (reads, writes) = footprint(op);
                    reads.iter().chain(&writes).flatten().for_each(&mut note);
                }
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

    /// How many steps of `rp` are of each kind named.
    fn count(rp: &RankProgram, kind: fn(&StepKind) -> bool) -> usize {
        rp.steps.iter().filter(|s| kind(&s.kind)).count()
    }

    #[test]
    fn the_mst_combines_receives_fuse_and_leave_the_arena() {
        let st = Strategy::pure_mst(4);
        let prog = lower(PlanOp::Reduce { root: 0 }, Some(&st), 4, 16, 8).unwrap();
        // The root folds ⌈log₂ 4⌉ = 2 arrivals, each in one step that
        // names its accumulator and no landing; nothing is left in the
        // arena, and the landing is one whole vector.
        let root = &prog.ranks[0];
        let fused =
            |k: &StepKind| matches!(k, StepKind::RecvReduce { acc, .. } if acc.buf == Buf::Arg(0));
        assert_eq!(count(root, fused), 2);
        assert_eq!(count(root, |k| matches!(k, StepKind::Recv { .. })), 0);
        assert_eq!(count(root, |k| matches!(k, StepKind::Reduce { .. })), 0);
        assert_eq!((root.scratch_bytes, root.landing_bytes), (0, 16 * 8));
        // The leaves only send.
        assert_eq!(prog.ranks[3].landing_bytes, 0);
        // No ReduceOp appears anywhere in the IR: the ⊕ binds at
        // execution time.
    }

    #[test]
    fn the_bucket_combines_exchanges_fuse_and_leave_the_arena() {
        // An allreduce of 18 elements over 4 ranks: blocks of 5, 5, 4, 4,
        // three folding hops a rank, then the collect's three plain ones.
        let prog = lower(PlanOp::AllReduce, Some(&Strategy::pure_long(4)), 4, 18, 8).unwrap();
        for rp in &prog.ranks {
            let fused = |k: &StepKind| matches!(k, StepKind::SendRecvReduce { .. });
            assert_eq!(count(rp, fused), 3);
            assert_eq!(count(rp, |k| matches!(k, StepKind::SendRecv { .. })), 3);
            assert_eq!(count(rp, |k| matches!(k, StepKind::Reduce { .. })), 0);
            assert_eq!((rp.scratch_bytes, rp.landing_bytes), (0, 5 * 8));
        }
        // A two-dimensional distributed combine packs its contribution
        // into the arena; only the bucket leaves it.
        let st = Strategy::new(vec![2, 2], intercom_cost::StrategyKind::ScatterCollect);
        let prog = lower(PlanOp::ReduceScatter, Some(&st), 4, 6, 8).unwrap();
        for rp in &prog.ranks {
            assert_eq!((rp.scratch_bytes, rp.landing_bytes), (4 * 6 * 8, 2 * 6 * 8));
        }
    }

    /// Resolves hand-written records over one 64-byte argument at 1000,
    /// temporaries at 5000 and up: the step kinds, scratch and landing.
    fn resolved(ops: &[OpRecord]) -> (Vec<StepKind>, usize, usize) {
        let rp = resolve_rank(ops, &[(0, 1000, 64)], 1, &mut Vec::new()).unwrap();
        let kinds = rp.steps.iter().map(|s| s.kind).collect();
        (kinds, rp.scratch_bytes, rp.landing_bytes)
    }

    fn span(addr: usize, len: usize) -> MemSpan {
        MemSpan { addr, len }
    }

    fn loc(buf: Buf, off: u32, len: u32) -> Loc {
        Loc { buf, off, len }
    }

    #[test]
    fn a_landing_read_before_it_is_overwritten_stays_unfused() {
        let r = span(5000, 8);
        let recv = |dst| OpRecord::Recv {
            from: 1,
            tag: 0,
            dst,
        };
        let fold = |other: MemSpan| OpRecord::Reduce {
            acc: span(1000, other.len),
            other,
        };
        let send = |src| OpRecord::Send { to: 1, tag: 1, src };
        let is_fused = |k: &StepKind| matches!(k, StepKind::RecvReduce { .. });
        // Sent on after the fold: the landing is live.
        let (kinds, scratch, landing) = resolved(&[recv(r), fold(r), send(r)]);
        assert!(!kinds.iter().any(is_fused), "{kinds:?}");
        assert_eq!((kinds.len(), scratch, landing), (3, 8, 0));
        // Overwritten by the next receive first: dead, and both fuse.
        let (kinds, scratch, landing) = resolved(&[recv(r), fold(r), recv(r), fold(r)]);
        assert_eq!(kinds.iter().filter(|k| is_fused(k)).count(), 2, "{kinds:?}");
        assert_eq!((kinds.len(), scratch, landing), (2, 0, 8));
        // Half overwritten, then the other half read: the first landing
        // is live, the second (only the overwritten half) is dead.
        let (lo, hi) = (span(5000, 4), span(5004, 4));
        let ops = [recv(r), fold(r), recv(lo), fold(lo), send(hi)];
        let (kinds, scratch, landing) = resolved(&ops);
        assert!(matches!(kinds[0], StepKind::Recv { .. }), "{kinds:?}");
        assert!(matches!(kinds[2], StepKind::RecvReduce { .. }), "{kinds:?}");
        assert_eq!((kinds.len(), scratch, landing), (4, 8, 4));
    }

    #[test]
    fn an_exchange_folding_into_what_it_sends_stays_unfused() {
        let r = span(5000, 8);
        let exchange = OpRecord::SendRecv {
            to: 1,
            src: span(1000, 8),
            from: 2,
            dst: r,
            tag: 0,
        };
        for (acc, fuses) in [(span(1004, 8), false), (span(1008, 8), true)] {
            let (kinds, _, landing) = resolved(&[exchange, OpRecord::Reduce { acc, other: r }]);
            let fused = matches!(kinds[0], StepKind::SendRecvReduce { .. });
            assert_eq!(
                (fused, landing),
                (fuses, if fuses { 8 } else { 0 }),
                "{kinds:?}"
            );
        }
    }

    #[test]
    fn a_fold_into_an_exchange_landing_fuses_into_one_combine() {
        // `bucket = arrived ⊕ block`: the in-place ring's hop, with the
        // landing in the arena and the block in the argument.
        let (bucket, block) = (span(5000, 8), span(1016, 8));
        let hop = |src| OpRecord::SendRecv {
            to: 1,
            src,
            from: 2,
            dst: bucket,
            tag: 0,
        };
        let fold = |other| OpRecord::Reduce { acc: bucket, other };
        let (kinds, scratch, landing) = resolved(&[hop(span(1000, 8)), fold(block)]);
        let [StepKind::SendRecvCombine {
            dst, other, len, ..
        }] = kinds[..]
        else {
            panic!("one combine, got {kinds:?}");
        };
        assert_eq!(
            (dst.with_len(len), other.with_len(len)),
            (loc(Buf::Scratch, 0, 8), loc(Buf::Arg(0), 16, 8))
        );
        // The landing stays named: it is sent on next.
        assert_eq!((scratch, landing), (8, 0));
        // Sending the landing, or folding unequal lengths, stays two steps.
        for ops in [
            [hop(bucket), fold(block)],
            [hop(span(1000, 4)), fold(block)],
        ] {
            let (kinds, _, _) = resolved(&ops);
            assert_eq!(kinds.len(), 2, "{kinds:?}");
        }
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

    /// The lowering grid the two tests below walk, at `n = 100` 8-byte
    /// elements: every op under pure MST and pure long strategies for
    /// p in {1, 4, 5, 9, 12, 16, 17} (two 2-D hybrids at 12), and the
    /// picked hierarchical strategies on a 4×4 cluster of either
    /// backbone, as `(op, choice, p)`.
    fn lowering_grid(n: usize) -> Vec<(PlanOp, Option<HierChoice>, usize)> {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine, StrategyKind};
        let mut grid = Vec::new();
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
                    grid.push((op, Some(HierChoice::Flat(st.clone())), p));
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
                grid.push((op, None, p));
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
                        grid.push((op, Some(HierChoice::Hier(hs)), shape.ranks()));
                    }
                }
            }
        }
        grid
    }

    #[test]
    fn arenas_take_at_most_half_the_room_fits_steps_leaves() {
        use super::super::ARENA_HEADROOM;
        let n = 100;
        for (op, choice, p) in lowering_grid(n) {
            let prog = lower_choice(op, choice, p, n, 8).unwrap();
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
        }
    }

    /// `steps` with every arena offset set to 0. Where the arena places
    /// its temporaries follows the order of their heap addresses, which
    /// two replays in one process need not share.
    fn unplaced(steps: &[Step]) -> Vec<StepKind> {
        let u = |loc: Loc| match loc.buf {
            Buf::Scratch => Loc { off: 0, ..loc },
            Buf::Arg(_) => loc,
        };
        let unplace = |kind: StepKind| match kind {
            StepKind::Send { to, tag_off, src } => StepKind::Send {
                to,
                tag_off,
                src: u(src),
            },
            StepKind::Recv { from, tag_off, dst } => StepKind::Recv {
                from,
                tag_off,
                dst: u(dst),
            },
            StepKind::SendRecv {
                to,
                src,
                from,
                dst,
                tag_off,
            } => StepKind::SendRecv {
                to,
                src: u(src),
                from,
                dst: u(dst),
                tag_off,
            },
            StepKind::RecvReduce { from, tag_off, acc } => StepKind::RecvReduce {
                from,
                tag_off,
                acc: u(acc),
            },
            StepKind::SendRecvReduce {
                to,
                src,
                from,
                acc,
                tag_off,
            } => StepKind::SendRecvReduce {
                to,
                src: u(src),
                from,
                acc: u(acc),
                tag_off,
            },
            StepKind::Copy { src, dst } => StepKind::Copy {
                src: u(src),
                dst: u(dst),
            },
            StepKind::Reduce { acc, other } => StepKind::Reduce {
                acc: u(acc),
                other: u(other),
            },
            StepKind::Permute {
                region,
                held,
                radices,
            } => StepKind::Permute {
                region: u(region),
                held: u(held),
                radices,
            },
            other => other,
        };
        steps.iter().map(|s| unplace(s.kind)).collect()
    }

    /// Lowering replays without moving a byte; a replay that fills every
    /// landing, copies and folds for real records the same steps, up to
    /// where the arena places its temporaries.
    #[test]
    fn data_free_replays_lower_to_the_programs_of_data_moving_ones() {
        let n = 100;
        for (op, choice, p) in lowering_grid(n) {
            let lowered = lower_choice(op, choice.clone(), p, n, 8).unwrap();
            for (rank, got) in lowered.ranks.iter().enumerate() {
                let rec = RecordingComm::new(rank, p);
                let gc = GroupComm::world(&rec);
                replay_rank::<u64>(&rec, &gc, op, choice.as_ref(), n, &mut Vec::new()).unwrap();
                // The radices index the lowered program's table, which
                // holds every permutation's already.
                let mut radices = lowered.radices.clone();
                let want = resolve_recorded::<u64>(rec, op, p, n, &mut radices).unwrap();
                assert_eq!(
                    (unplaced(&got.steps), got.landing_bytes),
                    (unplaced(&want.steps), want.landing_bytes),
                    "{op} p={p} rank {rank} under {choice:?}"
                );
                assert_eq!(radices, lowered.radices);
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
