//! Long-vector primitives: bucket algorithms on unidirectional rings
//! (paper §4.2).
//!
//! "The bucket collect is a special implementation of the collect, which
//! views the linear array as a ring. Buckets are passed between the nodes
//! that move the subvectors to be collected, leaving the result on all
//! nodes." Thanks to worm-hole routing a linear array *is* a
//! unidirectional ring without conflicts: every node sends to its right
//! logical neighbour while receiving from its left, so each directed
//! physical link carries exactly one message per step.
//!
//! Costs (balanced blocks): bucket collect `(p−1)α + ((p−1)/p)nβ`;
//! bucket distributed combine `(p−1)α + ((p−1)/p)nβ + ((p−1)/p)nγ`.

use crate::block::Blocks;
use crate::cast::Scalar;
use crate::comm::{GroupComm, Tag};
use crate::error::Result;
use crate::op::{Elem, ReduceOp};
use crate::primitives::{debug_check_blocks, disjoint_pair};
use crate::Comm;

/// Bucket collect (ring allgather): on entry, member `j`'s
/// `buf[blocks[j]]` holds block `j`; on return, every member's `buf`
/// holds all blocks. `p − 1` steps of simultaneous send-right /
/// receive-left.
pub fn ring_collect<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    buf: &mut [T],
    blocks: &(impl Blocks + ?Sized),
    tag: Tag,
) -> Result<()> {
    let p = gc.len();
    debug_check_blocks(blocks, p, buf.len());
    if p == 1 {
        return Ok(());
    }
    gc.call_overhead();
    let me = gc.me();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    for t in 0..p - 1 {
        let sb = (me + p - t) % p; // block sent this step
        let rb = (me + p - t - 1) % p; // block received this step
        let (send, recv) = disjoint_pair(buf, blocks.block(sb), blocks.block(rb));
        gc.sendrecv(right, send, left, recv, tag)?;
    }
    Ok(())
}

/// Bucket distributed combine (ring reduce-scatter): on entry every
/// member's `buf` holds a full contribution vector; on return, member
/// `j`'s `buf[blocks[j]]` holds the element-wise ⊕ over all members'
/// block `j` (other regions hold partial combines). The bucket
/// accumulates as it circulates — the collect "executed in reverse,
/// where the buckets are used to accumulate contributions." `bucket`
/// receives each arriving block: at least as long as the largest one,
/// its contents ignored — and left as they were by a backend that lends
/// the arrived bytes ([`crate::Comm::sendrecv_with`]): the fold then
/// reads them where they lie.
pub fn ring_reduce_scatter<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    buf: &mut [T],
    blocks: &(impl Blocks + ?Sized),
    op: ReduceOp,
    tag: Tag,
    bucket: &mut [T],
) -> Result<()> {
    let p = gc.len();
    debug_check_blocks(blocks, p, buf.len());
    if p == 1 {
        return Ok(());
    }
    gc.call_overhead();
    let me = gc.me();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    for t in 0..p - 1 {
        let sb = (me + p - t - 1) % p; // partially-combined block sent on
        let rb = (me + p - t - 2) % p; // bucket arriving from the left
        let recv = &mut bucket[..blocks.block(rb).len()];
        let (send, dst) = disjoint_pair(buf, blocks.block(sb), blocks.block(rb));
        gc.sendrecv_with(right, send, left, recv, tag, |recv, lent| {
            gc.fold(op, dst, lent.unwrap_or(recv))
        })?;
    }
    Ok(())
}

/// The same ring with the contribution read in place, for equal blocks
/// of `mine.len()` items: member `j`'s `mine` ends up holding block `j`
/// of the ⊕ over every member's `contrib`, which is left untouched. The
/// first step sends straight out of `contrib`; after that the buckets
/// themselves carry the partial combines — each arrives in one of two
/// block-sized halves of `buckets`, has the local block folded into it
/// and is sent on from there, and the last one lands in `mine`. Same
/// messages in the same order as [`ring_reduce_scatter`] and, ⊕ being
/// commutative (§3), the same bits. `buckets` holds
/// `min(p − 2, 2)` blocks, its contents ignored.
pub fn ring_reduce_scatter_into<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    contrib: &[T],
    mine: &mut [T],
    op: ReduceOp,
    tag: Tag,
    buckets: &mut [T],
) -> Result<()> {
    let p = gc.len();
    let b = mine.len();
    debug_assert_eq!(contrib.len(), p * b, "one block per member required");
    if p == 1 {
        gc.copy(contrib, mine);
        return Ok(());
    }
    gc.call_overhead();
    let me = gc.me();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    let block = |j: usize| &contrib[j * b..(j + 1) * b];
    let used = b * (p - 2).min(2);
    let (mut arriving, mut leaving) = buckets[..used].split_at_mut(b.min(used));
    for t in 0..p - 1 {
        let sb = (me + p - t - 1) % p;
        let rb = (me + p - t - 2) % p;
        let send = if t == 0 { block(sb) } else { &*leaving };
        let recv = if t == p - 2 {
            &mut *mine
        } else {
            &mut *arriving
        };
        gc.sendrecv_with(right, send, left, recv, tag, |recv, lent| match lent {
            Some(arrived) => gc.fold_arrived(op, recv, arrived, block(rb)),
            None => gc.fold(op, recv, block(rb)),
        })?;
        std::mem::swap(&mut arriving, &mut leaving);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::partition;
    use crate::comm::SelfComm;

    #[test]
    fn single_member_collect_noop() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mut buf = [1.0f64, 2.0];
        ring_collect(&gc, &mut buf, &partition(2, 1)[..], 0).unwrap();
        assert_eq!(buf, [1.0, 2.0]);
    }

    #[test]
    fn single_member_reduce_scatter_noop() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mut buf = [5i32, 6];
        ring_reduce_scatter(
            &gc,
            &mut buf,
            &partition(2, 1)[..],
            ReduceOp::Sum,
            0,
            &mut [],
        )
        .unwrap();
        assert_eq!(buf, [5, 6]);
        let mut mine = [0i32; 2];
        ring_reduce_scatter_into(&gc, &buf, &mut mine, ReduceOp::Sum, 0, &mut []).unwrap();
        assert_eq!(mine, buf);
    }

    #[test]
    fn ring_schedule_covers_all_blocks() {
        // Pure index arithmetic: over p−1 steps, each member receives
        // every block except its own, exactly once.
        for p in 2..12 {
            for me in 0..p {
                let mut got = vec![false; p];
                got[me] = true;
                for t in 0..p - 1 {
                    let rb = (me + p - t - 1) % p;
                    assert!(!got[rb], "block {rb} received twice");
                    got[rb] = true;
                }
                assert!(got.iter().all(|&g| g));
            }
        }
    }

    #[test]
    fn reduce_scatter_schedule_sends_then_owns() {
        // Member me never sends its own block and receives the bucket
        // for every block except (me+p-1)%p... verify final ownership:
        // the last received block is me's own.
        for p in 2..12 {
            for me in 0..p {
                let last_rb = (me + p - (p - 2) - 2) % p;
                assert_eq!(last_rb, me % p);
            }
        }
    }
}
