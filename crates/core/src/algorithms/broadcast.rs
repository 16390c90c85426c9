//! Broadcast under any hybrid strategy: scatters up the logical
//! dimensions, only within the root's line at each level (the one line
//! holding data, whose scatter hands one block to each member of the
//! next level's planes), the centre in the last dimension, then bucket
//! collects back down within *all* lines (Fig. 1).

use crate::algorithms::check_strategy;
use crate::algorithms::template::{walk, Bcast};
use crate::cast::Scalar;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::{CommError, Result};
use crate::op::ReduceOp;
use intercom_cost::Strategy;

/// Broadcasts `buf` (any length, any group size) from logical rank
/// `root` to every group member, using `strategy`.
pub fn broadcast<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    strategy: &Strategy,
    root: usize,
    buf: &mut [T],
    tag: Tag,
) -> Result<()> {
    check_strategy(gc, strategy)?;
    if root >= gc.len() {
        return Err(CommError::InvalidRoot {
            root,
            size: gc.len(),
        });
    }
    let (dims, kind) = (&strategy.dims, strategy.kind);
    walk::<Bcast, T, C>(gc, dims, kind, root, buf, ReduceOp::Sum, tag, &mut [])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;

    #[test]
    fn single_node_all_strategies() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mut buf = [42u8, 7];
        for s in [Strategy::pure_mst(1), Strategy::pure_long(1)] {
            broadcast(&gc, &s, 0, &mut buf, 0).unwrap();
            assert_eq!(buf, [42, 7]);
        }
    }

    #[test]
    fn strategy_mismatch_rejected() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mut buf = [0u8; 4];
        let err = broadcast(&gc, &Strategy::pure_mst(4), 0, &mut buf, 0);
        assert!(matches!(err, Err(CommError::StrategyMismatch { .. })));
    }

    #[test]
    fn invalid_root_rejected() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mut buf = [0u8; 4];
        let err = broadcast(&gc, &Strategy::pure_mst(1), 2, &mut buf, 0);
        assert!(matches!(
            err,
            Err(CommError::InvalidRoot { root: 2, size: 1 })
        ));
    }
}
