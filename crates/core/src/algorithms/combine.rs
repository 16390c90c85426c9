//! Combine-to-one (reduce) and combine-to-all (allreduce) under any
//! hybrid strategy: the dual of broadcast, with bucket distributed
//! combines up the dimensions in every line (every node holds a
//! contribution), and gathers within the root's lines (combine-to-one)
//! or bucket collects within all lines (combine-to-all) back down.
//! Every combining stage receives into one lent bucket, [`bucket_len`]
//! items of the caller's `scratch`.

use crate::algorithms::check_strategy;
use crate::algorithms::template::{walk, AllReduce, Reduce};
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::Result;
use crate::op::{Elem, ReduceOp};
use crate::primitives::check_root;
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
    let (dims, kind) = (&strategy.dims, strategy.kind);
    walk::<Reduce, T, C>(gc, dims, kind, root, buf, op, tag, bucket)
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
    let (dims, kind) = (&strategy.dims, strategy.kind);
    walk::<AllReduce, T, C>(gc, dims, kind, 0, buf, op, tag, bucket)
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
