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

use crate::algorithms;
use crate::cast::Scalar;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::{CommError, Result};
use crate::op::{Elem, ReduceOp};
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
    if root >= gc.len() {
        return Err(CommError::InvalidRoot {
            root,
            size: gc.len(),
        });
    }
    let r = hs.shape().ranks_per_node;
    let slot = root % r;
    if gc.me() % r == slot {
        let plane = gc.plane(r);
        algorithms::broadcast(&plane, &hs.strategies()[0], root / r, buf, tag)?;
    }
    let line = gc.line(r);
    algorithms::broadcast(
        &line,
        &hs.strategies()[1],
        slot,
        buf,
        tag + HIER_STAGE_STRIDE,
    )
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
    if root >= gc.len() {
        return Err(CommError::InvalidRoot {
            root,
            size: gc.len(),
        });
    }
    let r = hs.shape().ranks_per_node;
    let slot = root % r;
    let line = gc.line(r);
    algorithms::reduce(&line, &hs.strategies()[0], slot, buf, op, tag, scratch)?;
    if gc.me() % r == slot {
        let plane = gc.plane(r);
        algorithms::reduce(
            &plane,
            &hs.strategies()[1],
            root / r,
            buf,
            op,
            tag + HIER_STAGE_STRIDE,
            scratch,
        )?;
    }
    Ok(())
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
    let r = hs.shape().ranks_per_node;
    let line = gc.line(r);
    algorithms::reduce(&line, &hs.strategies()[0], 0, buf, op, tag, scratch)?;
    if gc.me().is_multiple_of(r) {
        let plane = gc.plane(r);
        algorithms::allreduce(
            &plane,
            &hs.strategies()[1],
            buf,
            op,
            tag + HIER_STAGE_STRIDE,
            scratch,
        )?;
    }
    algorithms::broadcast(
        &line,
        &hs.strategies()[2],
        0,
        buf,
        tag + 2 * HIER_STAGE_STRIDE,
    )
}

/// Hierarchical collect (allgather): gather each node's blocks to its
/// leader, collect node blocks across the leader plane, broadcast the
/// full vector within each node. Node-major rank numbering makes each
/// node's gathered block a contiguous run of `all`, in plane order.
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
    if all.len() != gc.len() * b {
        return Err(CommError::BadBufferSize {
            expected: gc.len() * b,
            actual: all.len(),
        });
    }
    let r = hs.shape().ranks_per_node;
    let leader = gc.me().is_multiple_of(r);
    let line = gc.line(r);
    let mut node_block = vec![T::default(); if leader { r * b } else { 0 }];
    algorithms::gather(&line, 0, mine, leader.then_some(&mut node_block[..]), tag)?;
    if leader {
        let plane = gc.plane(r);
        algorithms::collect(
            &plane,
            &hs.strategies()[0],
            &node_block,
            all,
            tag + HIER_STAGE_STRIDE,
            scratch,
        )?;
    }
    algorithms::broadcast(
        &line,
        &hs.strategies()[1],
        0,
        all,
        tag + 2 * HIER_STAGE_STRIDE,
    )
}

/// Hierarchical distributed combine (reduce-scatter): reduce full
/// vectors to each node leader, reduce-scatter node blocks across the
/// leader plane, scatter each node's block to its ranks. Node-major
/// numbering means plane rank `j`'s reduced block is exactly the
/// concatenation of blocks for global ranks `j·r .. (j+1)·r`.
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
    if contrib.len() != p * b {
        return Err(CommError::BadBufferSize {
            expected: p * b,
            actual: contrib.len(),
        });
    }
    let r = hs.shape().ranks_per_node;
    let leader = gc.me().is_multiple_of(r);
    let line = gc.line(r);
    // The intra reduce folds in place, so work on a copy of the
    // caller's contribution.
    let mut work = vec![T::default(); p * b];
    gc.copy(contrib, &mut work);
    let intra = &hs.strategies()[0];
    algorithms::reduce(&line, intra, 0, &mut work, op, tag, scratch)?;
    let mut node_block = vec![T::default(); if leader { r * b } else { 0 }];
    if leader {
        let plane = gc.plane(r);
        algorithms::reduce_scatter(
            &plane,
            &hs.strategies()[1],
            &work,
            &mut node_block,
            op,
            tag + HIER_STAGE_STRIDE,
            scratch,
        )?;
    }
    algorithms::scatter(
        &line,
        0,
        leader.then_some(&node_block[..]),
        mine,
        tag + 2 * HIER_STAGE_STRIDE,
    )
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
    fn broadcast_stages_occupy_disjoint_tag_bands() {
        let shape = ClusterShape::linear(3, 4);
        let hs = strategy_for(CollectiveOp::Broadcast, shape);
        let recs = replay(shape, |gc| {
            let mut buf = vec![0u64; 8];
            hier_broadcast(gc, &hs, 0, &mut buf, 0)
        });
        let mut seen_inter = false;
        let mut seen_intra = false;
        for ops in &recs {
            for t in tags(ops) {
                match t / HIER_STAGE_STRIDE {
                    0 => seen_inter = true,
                    1 => seen_intra = true,
                    other => panic!("tag {t} in unexpected stage band {other}"),
                }
            }
        }
        assert!(seen_inter && seen_intra);
    }

    #[test]
    fn allreduce_uses_three_stage_bands() {
        let shape = ClusterShape::linear(2, 3);
        let hs = strategy_for(CollectiveOp::CombineToAll, shape);
        let recs = replay(shape, |gc| {
            let mut buf = vec![0u32; 6];
            hier_allreduce(gc, &hs, &mut buf, ReduceOp::Sum, 0, &mut Vec::new())
        });
        let mut bands = std::collections::BTreeSet::new();
        for ops in &recs {
            bands.extend(tags(ops).into_iter().map(|t| t / HIER_STAGE_STRIDE));
        }
        assert_eq!(bands.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
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
    fn shape_mismatch_is_rejected() {
        let shape = ClusterShape::linear(2, 2);
        let hs = strategy_for(CollectiveOp::Broadcast, shape);
        let rec = RecordingComm::new(0, 6); // 6 ranks ≠ shape's 4
        let gc = GroupComm::world(&rec);
        let mut buf = vec![0u8; 4];
        assert!(matches!(
            hier_broadcast(&gc, &hs, 0, &mut buf, 0),
            Err(CommError::StrategyMismatch { .. })
        ));
    }

    #[test]
    fn wrong_stage_sequence_is_rejected() {
        let shape = ClusterShape::linear(2, 2);
        // A broadcast strategy replayed as an allreduce fills another
        // op's template.
        let hs = strategy_for(CollectiveOp::Broadcast, shape);
        let rec = RecordingComm::new(0, shape.ranks());
        let gc = GroupComm::world(&rec);
        let mut buf = vec![0u64; 4];
        assert!(matches!(
            hier_allreduce(&gc, &hs, &mut buf, ReduceOp::Sum, 0, &mut Vec::new()),
            Err(CommError::PlanMismatch { .. })
        ));
    }

    #[test]
    fn bad_output_length_is_rejected() {
        let shape = ClusterShape::linear(2, 2);
        let hs = strategy_for(CollectiveOp::Collect, shape);
        let rec = RecordingComm::new(0, shape.ranks());
        let gc = GroupComm::world(&rec);
        let mine = vec![0u32; 4];
        let mut all = vec![0u32; 7]; // not p·b
        assert!(matches!(
            hier_collect(&gc, &hs, &mine, &mut all, 0, &mut Vec::new()),
            Err(CommError::BadBufferSize { .. })
        ));
    }

    #[test]
    fn single_rank_nodes_degenerate_to_inter_only() {
        // rpn = 1: the intra stages are singleton no-ops, every message
        // lives in the stage-0 band for broadcast.
        let shape = ClusterShape::linear(4, 1);
        let hs = strategy_for(CollectiveOp::Broadcast, shape);
        let recs = replay(shape, |gc| {
            let mut buf = vec![0u16; 8];
            hier_broadcast(gc, &hs, 0, &mut buf, 0)
        });
        let mut any = false;
        for ops in &recs {
            for t in tags(ops) {
                assert_eq!(t / HIER_STAGE_STRIDE, 0);
                any = true;
            }
        }
        assert!(any, "4 nodes still exchange messages");
    }
}
