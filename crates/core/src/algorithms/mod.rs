//! The seven target collectives (Table 1), each executable under any
//! hybrid [`Strategy`] via the recursive template of Fig. 3.
//!
//! Every algorithm here is *one* implementation parameterized by
//! strategy: `Strategy::pure_mst(p)` yields the §5.1 short-vector
//! composed algorithm, `Strategy::pure_long(p)` the §5.2 long-vector
//! composed algorithm, and multi-dimensional strategies the §6 hybrids.
//! Broadcast, combine-to-one, combine-to-all, collect and distributed
//! combine all run one walker (`template.rs`) over their row of
//! [`flat_template`](intercom_cost::flat_template), the table the cost
//! model prices too; their modules keep only what is their own — the
//! checks, and the slot-order staging of collect and distributed
//! combine.
//!
//! Scatter and gather serve as their own short *and* long primitive
//! (§4.2), so they take no strategy.

mod alltoall;
mod broadcast;
mod collect;
mod combine;
mod scatter_gather;
mod template;
mod varying;

pub use alltoall::alltoall;
pub use broadcast::broadcast;
pub use collect::{collect, reduce_scatter};
pub(crate) use collect::{collect_slotted, reduce_scatter_len, reduce_scatter_with, unpermute};
pub(crate) use combine::bucket_len;
pub use combine::{allreduce, reduce};
pub use intercom_obs::LEVEL_TAG_STRIDE;
pub use scatter_gather::{gather, scatter};
pub(crate) use template::{walk, Reduce};
pub use varying::{allgatherv, gatherv, scatterv};

use crate::comm::{Comm, GroupComm};
use crate::error::{CommError, Result};
use intercom_cost::Strategy;
use std::ops::Range;

/// `p` consecutive blocks of `b` items each.
pub(crate) fn equal_blocks(p: usize, b: usize) -> Vec<Range<usize>> {
    (0..p).map(|j| j * b..(j + 1) * b).collect()
}

/// Validates that `strategy` covers exactly this group.
pub(crate) fn check_strategy<C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    strategy: &Strategy,
) -> Result<()> {
    if strategy.nodes() == gc.len() {
        Ok(())
    } else {
        Err(CommError::StrategyMismatch {
            strategy_nodes: strategy.nodes(),
            group_len: gc.len(),
        })
    }
}

/// Slot index of logical rank `r` under `dims` (fastest-varying first):
/// the big-endian mixed-radix position that makes every recursion
/// subtree's slots contiguous. Used by collect / distributed combine to
/// lay blocks out so ring stages always move contiguous memory.
///
/// Horner's rule over the digits, each taken off `r` with a shift and a
/// mask where its radix is a power of two (most are) and one division
/// elsewhere: a collect's un-permutation evaluates this about twice a
/// block, and divisions were most of its cost.
#[inline]
pub(crate) fn slot_of(dims: &[usize], mut r: usize) -> usize {
    let mut slot = 0;
    for &d in dims {
        let (rest, i) = if d.is_power_of_two() {
            (r >> d.trailing_zeros(), r & (d - 1))
        } else {
            (r / d, r % d)
        };
        slot = slot * d + i;
        r = rest;
    }
    slot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_identity_for_one_dim() {
        for r in 0..8 {
            assert_eq!(slot_of(&[8], r), r);
        }
    }

    #[test]
    fn slot_is_permutation() {
        for dims in [vec![2, 3], vec![3, 2, 2], vec![4, 5], vec![2, 2, 2, 2]] {
            let p: usize = dims.iter().product();
            let mut seen = vec![false; p];
            for r in 0..p {
                let s = slot_of(&dims, r);
                assert!(!seen[s], "slot {s} duplicated for dims {dims:?}");
                seen[s] = true;
            }
        }
    }

    #[test]
    fn slot_is_the_big_endian_reading_of_the_digits() {
        // r = i0 + d0·(i1 + d1·i2) reads as slot i0·d1·d2 + i1·d2 + i2.
        for dims in [vec![2, 3, 5, 3, 5], vec![2, 16, 2, 2, 4], vec![4, 1, 6]] {
            let p: usize = dims.iter().product();
            for r in 0..p {
                let (mut rest, mut vol, mut slot) = (r, p, 0);
                for &d in &dims {
                    vol /= d;
                    slot += rest % d * vol;
                    rest /= d;
                }
                assert_eq!(slot_of(&dims, r), slot, "{dims:?} rank {r}");
            }
        }
    }

    #[test]
    fn slot_groups_planes_contiguously() {
        // dims [d0, rest..]: ranks with dim-0 coordinate c occupy slots
        // [c·(p/d0), (c+1)·(p/d0)).
        let dims = [3usize, 4];
        let p = 12;
        for r in 0..p {
            let c = r % 3;
            let s = slot_of(&dims, r);
            assert!(
                s >= c * (p / 3) && s < (c + 1) * (p / 3),
                "rank {r} slot {s}"
            );
        }
    }
}
