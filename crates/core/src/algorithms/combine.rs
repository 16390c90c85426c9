//! Combine-to-one (reduce) and combine-to-all (allreduce) under any
//! hybrid strategy.
//!
//! Combine-to-one is the exact dual of broadcast: bucket distributed
//! combines up the dimensions (all lines active — every node holds a
//! contribution), the innermost combine in the last dimension, then
//! gathers within the root's lines back down. Combine-to-all replaces
//! the gathers with bucket collects so the result lands everywhere
//! (§5: distributed combine followed by collect).

use crate::algorithms::{check_strategy, LEVEL_TAG_STRIDE};
use crate::block::partition;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::Result;
use crate::op::{Elem, ReduceOp};
use crate::primitives::{
    check_root, mst_bcast, mst_gather, mst_reduce, ring_collect, ring_reduce_scatter,
};
use intercom_cost::{Strategy, StrategyKind};

/// Workspace items a combine of `n` items borrows under `strategy`: the
/// MST combine receives whole vectors, a ring stage its largest block —
/// the first stage's, since every later stage works inside one block.
pub(crate) fn bucket_len(strategy: &Strategy, n: usize) -> usize {
    if strategy.nodes() == 1 {
        0
    } else if strategy.dims.len() == 1 && strategy.kind == StrategyKind::Mst {
        n
    } else {
        n.div_ceil(strategy.dims[0])
    }
}

/// Combine-to-one: every member contributes `buf`; on return, the root's
/// `buf` holds the element-wise ⊕ of all contributions (other members'
/// buffers are workspace). The one receive bucket every recursion level
/// and ring stage shares is a view of `scratch`, which grows on first
/// use and is reused as it is afterwards.
pub fn reduce<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    strategy: &Strategy,
    root: usize,
    buf: &mut [T],
    op: ReduceOp,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    check_strategy(gc, strategy)?;
    check_root(gc, root)?;
    let bucket = T::scratch(scratch, bucket_len(strategy, buf.len()));
    reduce_rec(
        gc,
        &strategy.dims,
        strategy.kind,
        root,
        buf,
        op,
        tag,
        bucket,
    )
}

/// [`reduce`]'s recursion over `dims`, receiving into a lent `bucket`
/// of at least [`bucket_len`] items.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reduce_rec<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    dims: &[usize],
    kind: StrategyKind,
    root: usize,
    buf: &mut [T],
    op: ReduceOp,
    tag: Tag,
    bucket: &mut [T],
) -> Result<()> {
    let p = gc.len();
    if p == 1 {
        return Ok(());
    }
    if dims.len() == 1 {
        return match kind {
            StrategyKind::Mst => mst_reduce(gc, root, buf, op, tag, bucket),
            StrategyKind::ScatterCollect => {
                let blocks = partition(buf.len(), p);
                ring_reduce_scatter(gc, buf, &blocks, op, tag, bucket)?;
                mst_gather(gc, root, buf, &blocks, tag + 1)
            }
        };
    }
    let d0 = dims[0];
    let me = gc.me();
    let my0 = me % d0;
    let blocks = partition(buf.len(), d0);
    // Stage 1: every dim-0 line combines-and-scatters its members'
    // contributions; member j keeps the line-combined block j.
    let line = gc.line(d0);
    ring_reduce_scatter(&line, buf, &blocks, op, tag, bucket)?;
    // Recurse within my plane: the plane member in the root's line
    // (plane rank root / d0) accumulates the fully-combined block `my0`.
    let plane = gc.plane(d0);
    let my_block = blocks[my0].clone();
    reduce_rec(
        &plane,
        &dims[1..],
        kind,
        root / d0,
        &mut buf[my_block],
        op,
        tag + LEVEL_TAG_STRIDE,
        bucket,
    )?;
    // Stage 2: only the root's line gathers the combined blocks to root.
    if me / d0 == root / d0 {
        mst_gather(&line, root % d0, buf, &blocks, tag + 1)?;
    }
    Ok(())
}

/// Combine-to-all: every member contributes `buf`; on return, *every*
/// member's `buf` holds the element-wise ⊕ of all contributions.
/// `scratch` lends the receive bucket, as for [`reduce`].
pub fn allreduce<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    strategy: &Strategy,
    buf: &mut [T],
    op: ReduceOp,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    check_strategy(gc, strategy)?;
    let bucket = T::scratch(scratch, bucket_len(strategy, buf.len()));
    allreduce_rec(gc, &strategy.dims, strategy.kind, buf, op, tag, bucket)
}

fn allreduce_rec<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    dims: &[usize],
    kind: StrategyKind,
    buf: &mut [T],
    op: ReduceOp,
    tag: Tag,
    bucket: &mut [T],
) -> Result<()> {
    let p = gc.len();
    if p == 1 {
        return Ok(());
    }
    if dims.len() == 1 {
        return match kind {
            StrategyKind::Mst => {
                // Short combine-to-all: combine-to-one followed by
                // broadcast (§5.1), both rooted at logical 0.
                mst_reduce(gc, 0, buf, op, tag, bucket)?;
                mst_bcast(gc, 0, buf, tag + 1)
            }
            StrategyKind::ScatterCollect => {
                // Long: distributed combine followed by collect (§5.2).
                let blocks = partition(buf.len(), p);
                ring_reduce_scatter(gc, buf, &blocks, op, tag, bucket)?;
                ring_collect(gc, buf, &blocks, tag + 1)
            }
        };
    }
    let d0 = dims[0];
    let my0 = gc.me() % d0;
    let blocks = partition(buf.len(), d0);
    let line = gc.line(d0);
    ring_reduce_scatter(&line, buf, &blocks, op, tag, bucket)?;
    let plane = gc.plane(d0);
    let my_block = blocks[my0].clone();
    allreduce_rec(
        &plane,
        &dims[1..],
        kind,
        &mut buf[my_block],
        op,
        tag + LEVEL_TAG_STRIDE,
        bucket,
    )?;
    ring_collect(&line, buf, &blocks, tag + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;
    use crate::error::CommError;

    #[test]
    fn single_node_reduce_keeps_contribution() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mut buf = [3.5f64, -1.0];
        let mut scratch = Vec::new();
        for s in [Strategy::pure_mst(1), Strategy::pure_long(1)] {
            reduce(&gc, &s, 0, &mut buf, ReduceOp::Sum, 0, &mut scratch).unwrap();
            allreduce(&gc, &s, &mut buf, ReduceOp::Max, 0, &mut scratch).unwrap();
        }
        assert_eq!(buf, [3.5, -1.0]);
        assert_eq!(scratch.capacity(), 0, "nothing to receive, nothing lent");
    }

    #[test]
    fn reduce_validates_root_and_strategy() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let (one, two) = (Strategy::pure_mst(1), Strategy::pure_mst(2));
        let scratch = &mut Vec::new();
        let mut buf = [1i32];
        assert!(matches!(
            reduce(&gc, &one, 1, &mut buf, ReduceOp::Sum, 0, scratch),
            Err(CommError::InvalidRoot { .. })
        ));
        assert!(matches!(
            allreduce(&gc, &two, &mut buf, ReduceOp::Sum, 0, scratch),
            Err(CommError::StrategyMismatch { .. })
        ));
    }
}
