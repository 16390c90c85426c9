//! Hierarchical collectives: leader-based compositions over a cluster.
//!
//! A cluster of `m` nodes with `r` ranks each is numbered *node-major*:
//! global rank = `node·r + local`. Under that numbering the two level
//! subgroups fall straight out of [`GroupComm`]'s mesh splitters:
//! [`GroupComm::line`]`(r)` is the **intra-node** group (line rank =
//! local slot) and [`GroupComm::plane`]`(r)` is the **leader plane** —
//! the ranks sharing one local slot across all nodes (plane rank = node
//! id). A hierarchical collective is then an ordinary sequential
//! composition of the unmodified flat algorithms over those subgroups,
//! one stage per entry of the op's
//! [`hier_template`](intercom_cost::hier_template), each stage running
//! the flat [`Strategy`](intercom_cost::Strategy) its [`HierStrategy`]
//! names for it. Gather and scatter stages take none: they run the
//! fixed MST primitives.
//!
//! ## Tag discipline
//!
//! Stage `k` runs at base tag `tag + k ·` [`HIER_STAGE_STRIDE`]. A flat
//! algorithm recursing through a logical mesh consumes tags only a few
//! multiples of [`LEVEL_TAG_STRIDE`](crate::algorithms::LEVEL_TAG_STRIDE)
//! past its base, far below the stride, so stages can never collide —
//! and every step of stage `k` lands in a disjoint band of tag offsets
//! ([`StepKind::tag_off`](crate::ir::StepKind::tag_off)), which is what lets the
//! verifier gate link-conflict predictions per stage.

use crate::algorithms::{
    allreduce, broadcast, bucket_len, collect_slotted, equal_blocks, reduce, reduce_scatter_len,
    reduce_scatter_with, slot_of, walk, Reduce,
};
use crate::cast::Scalar;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::{expect_len, CommError, Result};
use crate::op::{Elem, ReduceOp};
use crate::primitives::{check_root, mst_gather, mst_scatter};
use intercom_cost::{CollectiveOp, HierStrategy};

/// Tag distance between consecutive hierarchical stages. Each stage's
/// flat algorithm uses a handful of
/// [`LEVEL_TAG_STRIDE`](crate::algorithms::LEVEL_TAG_STRIDE)-spaced
/// tags internally, so 1024 keeps stages disjoint with room to spare
/// while staying far below
/// [`CALL_TAG_STRIDE`](crate::communicator::CALL_TAG_STRIDE).
pub const HIER_STAGE_STRIDE: u64 = 1 << 10;

/// Checks that `hs` fills `op`'s template over this group's ranks (a
/// [`HierStrategy`] fits its own template by construction).
fn validate<C: Comm + ?Sized>(
    op: CollectiveOp,
    hs: &HierStrategy,
    gc: &GroupComm<'_, C>,
) -> Result<()> {
    if hs.op() != op {
        return Err(CommError::PlanMismatch {
            what: "hierarchical strategy fills another op's template",
        });
    }
    if hs.shape().ranks() != gc.len() {
        return Err(CommError::StrategyMismatch {
            strategy_nodes: hs.shape().ranks(),
            group_len: gc.len(),
        });
    }
    Ok(())
}

/// Runs the in-place template of `hs` — broadcast, reduce or
/// allreduce, each stage over `buf` — rooted at `root`. A level-0 stage
/// runs on this rank's node ([`GroupComm::line`]) rooted at the root's
/// local slot; a level-1 stage runs on that slot's leader plane only,
/// rooted at the root's node. `rop` folds and `scratch` lends the
/// combining stages' workspace.
fn run_in_place<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    hs: &HierStrategy,
    root: usize,
    buf: &mut [T],
    rop: ReduceOp,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    check_root(gc, root)?;
    let r = hs.shape().ranks_per_node;
    let slot = root % r;
    for (k, (spec, strategy)) in hs.stages().enumerate() {
        let strategy = strategy.expect("an in-place stage takes a strategy");
        let tag = tag + k as u64 * HIER_STAGE_STRIDE;
        let (group, root) = match spec.level {
            0 => (gc.line(r), slot),
            _ if gc.me() % r == slot => (gc.plane(r), root / r),
            _ => continue,
        };
        match spec.op {
            CollectiveOp::Broadcast => broadcast(&group, strategy, root, buf, tag),
            CollectiveOp::CombineToOne => reduce(&group, strategy, root, buf, rop, tag, scratch),
            CollectiveOp::CombineToAll => allreduce(&group, strategy, buf, rop, tag, scratch),
            other => unreachable!("{other:?} is not an in-place stage"),
        }?;
    }
    Ok(())
}

/// Hierarchical broadcast: inter-node broadcast among the leaders at
/// the root's local slot, then intra-node fan-out.
pub fn hier_broadcast<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    hs: &HierStrategy,
    root: usize,
    buf: &mut [T],
    tag: Tag,
) -> Result<()> {
    validate(CollectiveOp::Broadcast, hs, gc)?;
    // A broadcast folds nothing and borrows no workspace.
    run_in_place(gc, hs, root, buf, ReduceOp::Sum, tag, &mut Vec::new())
}

/// Hierarchical combine-to-one: intra-node reduce to the leader at the
/// root's local slot, then inter-node reduce among leaders to the root.
/// Only the root's `buf` holds the result afterwards; other ranks' may
/// be clobbered, as with the flat algorithm.
pub fn hier_reduce<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    hs: &HierStrategy,
    root: usize,
    buf: &mut [T],
    op: ReduceOp,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    validate(CollectiveOp::CombineToOne, hs, gc)?;
    run_in_place(gc, hs, root, buf, op, tag, scratch)
}

/// Hierarchical combine-to-all: intra-node reduce to the node leader,
/// inter-node allreduce among leaders, intra-node broadcast back.
pub fn hier_allreduce<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    hs: &HierStrategy,
    buf: &mut [T],
    op: ReduceOp,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    validate(CollectiveOp::CombineToAll, hs, gc)?;
    run_in_place(gc, hs, 0, buf, op, tag, scratch)
}

/// Hierarchical collect (allgather): gather each node's blocks to its
/// leader, collect node blocks across the leader plane, broadcast the
/// full vector within each node. Node-major rank numbering makes each
/// node's blocks one run of `r` blocks, so the gather lands them
/// straight at the node's slot of `all` under the plane's strategy,
/// where the plane collect expects its members' blocks.
pub fn hier_collect<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    hs: &HierStrategy,
    mine: &[T],
    all: &mut [T],
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    validate(CollectiveOp::Collect, hs, gc)?;
    let b = mine.len();
    expect_len(gc.len() * b, all.len())?;
    let r = hs.shape().ranks_per_node;
    let inter = &hs.strategies()[0];
    let line = gc.line(r);
    let at = slot_of(&inter.dims, gc.me() / r) * r * b;
    let node_blocks = &mut all[at..at + r * b];
    gc.copy(mine, &mut node_blocks[line.me() * b..(line.me() + 1) * b]);
    mst_gather(&line, 0, node_blocks, &equal_blocks(r, b), tag)?;
    if line.me() == 0 {
        let (plane, tag) = (gc.plane(r), tag + HIER_STAGE_STRIDE);
        collect_slotted(&plane, inter, all, r * b, tag, scratch)?;
    }
    let tag = tag + 2 * HIER_STAGE_STRIDE;
    broadcast(&line, &hs.strategies()[1], 0, all, tag)
}

/// Hierarchical distributed combine (reduce-scatter): reduce full
/// vectors to each node leader, reduce-scatter node blocks across the
/// leader plane, scatter each node's block to its ranks. Node-major
/// numbering means plane rank `j`'s reduced block is exactly the
/// concatenation of blocks for global ranks `j·r .. (j+1)·r`. One carve
/// of `scratch` holds the folded copy of `contrib`, the node block and
/// the workspace the two combining stages lend in turn.
pub fn hier_reduce_scatter<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    hs: &HierStrategy,
    contrib: &[T],
    mine: &mut [T],
    op: ReduceOp,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    validate(CollectiveOp::DistributedCombine, hs, gc)?;
    let b = mine.len();
    let p = gc.len();
    expect_len(p * b, contrib.len())?;
    let r = hs.shape().ranks_per_node;
    let (intra, inter) = (&hs.strategies()[0], &hs.strategies()[1]);
    let line = gc.line(r);
    let lent = bucket_len(intra, p * b).max(reduce_scatter_len(inter, r * b));
    let (work, rest) = T::scratch(scratch, p * b + r * b + lent).split_at_mut(p * b);
    let (node_block, lent) = rest.split_at_mut(r * b);
    // The intra reduce folds in place, so it works on a copy of the
    // caller's contribution.
    gc.copy(contrib, work);
    walk::<Reduce, T, C>(&line, &intra.dims, intra.kind, 0, work, op, tag, lent)?;
    if line.me() == 0 {
        let (plane, tag) = (gc.plane(r), tag + HIER_STAGE_STRIDE);
        reduce_scatter_with(&plane, inter, work, node_block, op, tag, lent)?;
    }
    let tag = tag + 2 * HIER_STAGE_STRIDE;
    mst_scatter(&line, 0, node_block, &equal_blocks(r, b), tag)?;
    gc.copy(&node_block[line.me() * b..(line.me() + 1) * b], mine);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OpRecord, RecordingComm};
    use intercom_cost::{select_hier, ClusterShape, HierMachine};

    fn strategy_for(op: CollectiveOp, shape: ClusterShape) -> HierStrategy {
        select_hier(op, shape, 4096, &HierMachine::paragon_cluster()).unwrap()
    }

    /// Replays `f` on every rank of `shape`, returning each rank's
    /// recorded operation stream.
    fn replay<F>(shape: ClusterShape, f: F) -> Vec<Vec<OpRecord>>
    where
        F: Fn(&GroupComm<'_, RecordingComm>) -> Result<()>,
    {
        let p = shape.ranks();
        (0..p)
            .map(|rank| {
                let rec = RecordingComm::new(rank, p);
                {
                    let gc = GroupComm::world(&rec);
                    f(&gc).unwrap();
                }
                rec.into_ops()
            })
            .collect()
    }

    /// Every tag observed in `ops`, for stage-band assertions.
    fn tags(ops: &[OpRecord]) -> Vec<Tag> {
        ops.iter()
            .filter_map(|op| match op {
                OpRecord::Send { tag, .. } | OpRecord::Recv { tag, .. } => Some(*tag),
                OpRecord::SendRecv { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn stage_k_runs_in_tag_band_k() {
        // rpn = 1 leaves the intra stages singleton no-ops: a broadcast
        // then speaks in its stage-0 band only.
        let cases = [
            (
                CollectiveOp::Broadcast,
                ClusterShape::linear(3, 4),
                &[0, 1][..],
            ),
            (CollectiveOp::Broadcast, ClusterShape::linear(4, 1), &[0]),
            (
                CollectiveOp::CombineToOne,
                ClusterShape::linear(2, 3),
                &[0, 1],
            ),
            (
                CollectiveOp::CombineToAll,
                ClusterShape::linear(2, 3),
                &[0, 1, 2],
            ),
        ];
        for (op, shape, want) in cases {
            let hs = strategy_for(op, shape);
            let recs = replay(shape, |gc| {
                let (mut buf, scratch) = (vec![0u64; 8], &mut Vec::new());
                match op {
                    CollectiveOp::Broadcast => hier_broadcast(gc, &hs, 0, &mut buf, 0),
                    CollectiveOp::CombineToOne => {
                        hier_reduce(gc, &hs, 0, &mut buf, ReduceOp::Sum, 0, scratch)
                    }
                    _ => hier_allreduce(gc, &hs, &mut buf, ReduceOp::Sum, 0, scratch),
                }
            });
            let mut bands = std::collections::BTreeSet::new();
            for ops in &recs {
                bands.extend(tags(ops).into_iter().map(|t| t / HIER_STAGE_STRIDE));
            }
            assert_eq!(bands.into_iter().collect::<Vec<_>>(), want, "{hs}");
        }
    }

    #[test]
    fn only_leaders_speak_across_nodes() {
        // In the allreduce middle stage, every cross-node message has a
        // leader (local slot 0) on both ends.
        let shape = ClusterShape::linear(3, 2);
        let r = shape.ranks_per_node;
        let hs = strategy_for(CollectiveOp::CombineToAll, shape);
        let recs = replay(shape, |gc| {
            let mut buf = vec![0u64; 4];
            hier_allreduce(gc, &hs, &mut buf, ReduceOp::Sum, 0, &mut Vec::new())
        });
        for (rank, ops) in recs.iter().enumerate() {
            for op in ops {
                let peer = match op {
                    OpRecord::Send { to, .. } => Some(*to),
                    OpRecord::Recv { from, .. } => Some(*from),
                    OpRecord::SendRecv { to, .. } => Some(*to),
                    _ => None,
                };
                if let Some(peer) = peer {
                    if rank / r != peer / r {
                        assert_eq!(rank % r, 0, "rank {rank} spoke across nodes");
                        assert_eq!(peer % r, 0, "rank {rank} spoke to non-leader {peer}");
                    }
                }
            }
        }
    }

    #[test]
    fn mismatched_calls_are_rejected() {
        let shape = ClusterShape::linear(2, 2);
        let bcast = strategy_for(CollectiveOp::Broadcast, shape);
        let rec = RecordingComm::new(0, shape.ranks());
        let gc = GroupComm::world(&rec);
        let (mut buf, scratch) = (vec![0u64; 4], &mut Vec::new());
        assert!(matches!(
            hier_broadcast(&gc, &bcast, shape.ranks(), &mut buf, 0),
            Err(CommError::InvalidRoot { .. })
        ));
        // A broadcast strategy replayed as an allreduce fills another
        // op's template.
        assert!(matches!(
            hier_allreduce(&gc, &bcast, &mut buf, ReduceOp::Sum, 0, scratch),
            Err(CommError::PlanMismatch { .. })
        ));
        let collect = strategy_for(CollectiveOp::Collect, shape);
        let mut all = vec![0u64; 7]; // not p·b
        assert!(matches!(
            hier_collect(&gc, &collect, &buf, &mut all, 0, scratch),
            Err(CommError::BadBufferSize { .. })
        ));
        let six = RecordingComm::new(0, 6); // 6 ranks ≠ shape's 4
        assert!(matches!(
            hier_broadcast(&GroupComm::world(&six), &bcast, 0, &mut buf, 0),
            Err(CommError::StrategyMismatch { .. })
        ));
    }
}
