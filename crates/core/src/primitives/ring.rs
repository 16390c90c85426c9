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
//!
//! The paper's price has no local-copy term, and the in-place form
//! ([`ring_reduce_scatter_into`]) comes close to it: it reads the
//! caller's contribution where it lies, as strided views when its ring
//! blocks are the super-blocks of a multi-dimensional strategy's planes,
//! and copies only the one block a member sends before anything
//! arrives, and that only where the block is not contiguous.

use crate::algorithms::ranks_in_slot_order;
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

/// Blocks of `buckets` that [`ring_reduce_scatter_into`] borrows over
/// `members` ring members whose blocks each gather `plane_blocks`
/// pieces: a block that arrives and one that leaves, fewer where the
/// ring is too short to need both, and one more where the first block
/// sent is packed.
pub(crate) fn into_buckets(members: usize, plane_blocks: usize) -> usize {
    let sent_first = usize::from(plane_blocks > 1);
    (members + sent_first).saturating_sub(2).min(2)
}

/// The same ring with the contribution read in place: member `j`'s
/// `mine` ends up holding ring block `j` of the ⊕ over every member's
/// `contrib`, which is left untouched. Ring block `j` of `contrib`
/// gathers the `b`-item pieces of the ranks `j + d·q` (`d` ring
/// members, `q` every rank of a plane under the radices `plane`), in
/// the plane's slot order (big-endian mixed radix): the dim-0 line of a
/// multi-dimensional distributed combine, whose `mine` is the member's
/// super-block. `plane` is empty in one dimension, where block `j` is
/// `contrib`'s `j`-th. `mine` holds `b · ∏plane` items.
///
/// The first step sends a block of `contrib`: where it lies in one
/// dimension, else packed into a bucket, the only copy the ring makes.
/// After that the buckets themselves carry the partial combines — each
/// arrives in one of two halves of `buckets`, has the local block
/// folded into it piece by piece and is sent on from there, and the
/// last one lands in `mine`. Same messages in the same order as
/// [`ring_reduce_scatter`] over the slot-ordered vector and, ⊕ being
/// commutative (§3), the same bits. `buckets` holds
/// `min(d − 2 + s, 2)` blocks (`s` is 1 where the first block sent is
/// packed, else 0), its contents ignored.
pub fn ring_reduce_scatter_into<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    contrib: &[T],
    plane: &[usize],
    mine: &mut [T],
    op: ReduceOp,
    tag: Tag,
    buckets: &mut [T],
) -> Result<()> {
    let (d, len) = (gc.len(), mine.len());
    let per_block: usize = plane.iter().product();
    let b = len / per_block;
    debug_assert_eq!(b * per_block, len, "whole pieces per block");
    debug_assert_eq!(contrib.len(), d * len, "one block per member required");
    let me = gc.me();
    if d == 1 {
        pieces(contrib, plane, d, b, me, |at, piece| {
            gc.copy(piece, &mut mine[at..at + b]);
        });
        return Ok(());
    }
    gc.call_overhead();
    let right = (me + 1) % d;
    let left = (me + d - 1) % d;
    let packs = per_block > 1;
    let used = len * into_buckets(d, per_block);
    let (mut arriving, mut leaving) = buckets[..used].split_at_mut(len.min(used));
    if packs {
        let sb = (me + d - 1) % d;
        pieces(contrib, plane, d, b, sb, |at, piece| {
            gc.copy(piece, &mut arriving[at..at + b]);
        });
        std::mem::swap(&mut arriving, &mut leaving);
    }
    for t in 0..d - 1 {
        let sb = (me + d - t - 1) % d;
        let rb = (me + d - t - 2) % d;
        let send = if t == 0 && !packs {
            &contrib[sb * len..(sb + 1) * len]
        } else {
            &*leaving
        };
        let recv = if t == d - 2 {
            &mut *mine
        } else {
            &mut *arriving
        };
        gc.sendrecv_with(right, send, left, recv, tag, |recv, lent| {
            pieces(contrib, plane, d, b, rb, |at, piece| {
                let acc = &mut recv[at..at + b];
                match lent {
                    Some(arrived) => gc.fold_arrived(op, acc, &arrived[at..at + b], piece),
                    None => gc.fold(op, acc, piece),
                }
            })
        })?;
        std::mem::swap(&mut arriving, &mut leaving);
    }
    Ok(())
}

/// Calls `f(at, piece)` on every piece of ring block `j` of `contrib`
/// ([`ring_reduce_scatter_into`]'s layout), `at` being the piece's
/// offset within the block.
fn pieces<'c, T>(
    contrib: &'c [T],
    plane: &[usize],
    d: usize,
    b: usize,
    j: usize,
    mut f: impl FnMut(usize, &'c [T]),
) {
    let mut at = 0;
    ranks_in_slot_order(plane, |q| {
        let r = j + d * q;
        f(at, &contrib[r * b..(r + 1) * b]);
        at += b;
    });
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
        ring_reduce_scatter_into(&gc, &buf, &[], &mut mine, ReduceOp::Sum, 0, &mut []).unwrap();
        assert_eq!(mine, buf);
        // A one-member ring over a plane packs its block into slot order.
        let contrib = [0i32, 1, 2, 3, 4, 5];
        let mut own = [0i32; 6];
        ring_reduce_scatter_into(&gc, &contrib, &[2, 3], &mut own, ReduceOp::Sum, 0, &mut [])
            .unwrap();
        assert_eq!(own, [0, 2, 4, 1, 3, 5]);
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
