//! Collect (allgather) and distributed combine (reduce-scatter) under any
//! hybrid strategy.
//!
//! These two collectives identify blocks with ranks globally, so the
//! recursive template is executed over a *slot-permuted* work buffer:
//! rank `r`'s block lives at slot [`slot_of`]`(dims, r)`, which makes the
//! blocks of every recursion subtree contiguous. Slot order costs only
//! the bytes that move. A collect places its own block at its slot and
//! un-permutes the result once on exit, in place, by [`unpermute`] —
//! one call, and one step of a compiled program,
//! [`StepKind::Permute`](crate::ir::StepKind::Permute), however many
//! blocks it moves; under a one-dimensional strategy slot order *is*
//! rank order and there is nothing to un-permute. A distributed combine
//! never lays its contribution out in slot order: its first stage reads
//! `contrib` where it lies, the dim-0 ring
//! ([`ring_reduce_scatter_into`]) through strided views of the planes'
//! super-blocks, packing only the one block it sends before anything
//! arrives, and the one-dimensional short form's MST combine
//! ([`mst_reduce_into`]) by sending it from a leaf and folding it into
//! the first arrival elsewhere. Every staging vector is a view of the
//! caller's `scratch` — as it is everywhere below
//! [`run_direct`](crate::ir::run_direct): no algorithm of the crate,
//! flat or hierarchical, allocates an element buffer of its own.
//!
//! Over slot order each level's blocks are the planes' super-blocks,
//! so the walker's `partition(p·b, d0)` splits the work buffer exactly
//! at plane boundaries: collect (stage 1 void) bucket-collects
//! ever-larger super-blocks back up, and distributed combine (stage 2
//! void) is its dual, the walker running the levels below the first
//! on the member's own super-block.

use crate::algorithms::template::{walk, Collect, ReduceScatter};
use crate::algorithms::{
    check_strategy, equal_blocks, ranks_in_slot_order, slot_of, LEVEL_TAG_STRIDE,
};
use crate::cast::Scalar;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::{expect_len, Result};
use crate::op::{Elem, ReduceOp};
use crate::primitives::{into_buckets, mst_reduce_into, mst_scatter, ring_reduce_scatter_into};
use intercom_cost::{Strategy, StrategyKind};

/// Collect: member `j` contributes the block `mine`; on return, `all`
/// holds every member's block concatenated in logical-rank order
/// (`all.len() == p · mine.len()`). Blocks are equal-length per rank, as
/// in the paper's `nᵢ ≈ n/p` setting. A multi-dimensional strategy
/// holds one block of its slot un-permutation in `scratch`.
pub fn collect<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    strategy: &Strategy,
    mine: &[T],
    all: &mut [T],
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    check_strategy(gc, strategy)?;
    let p = gc.len();
    let b = mine.len();
    expect_len(p * b, all.len())?;
    // Place my block at my slot and run the template over slot order.
    let my_slot = slot_of(&strategy.dims, gc.me());
    gc.copy(mine, &mut all[my_slot * b..(my_slot + 1) * b]);
    collect_slotted(gc, strategy, all, b, tag, scratch)
}

/// [`collect`] once this member's `b`-item block sits at its slot of
/// `all`: the template over slot order, then the un-permutation into
/// rank order (none under a one-dimensional strategy).
pub(crate) fn collect_slotted<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    strategy: &Strategy,
    all: &mut [T],
    b: usize,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    let (dims, kind) = (&strategy.dims, strategy.kind);
    walk::<Collect, T, C>(gc, dims, kind, 0, all, ReduceOp::Sum, tag, &mut [])?;
    if dims.len() > 1 && b > 0 {
        gc.unpermute(all, b, dims, scratch);
    }
    Ok(())
}

/// Blocks whose slots [`unpermute`] tables on its stack (8 KiB): every
/// group a `sim-mesh` row or a table of the paper runs on.
const TABLED: usize = 4096;

/// Moves every rank `q`'s block from slot [`slot_of`]`(radices, q)` of
/// `all` to block `q`, in place, touching no memory but `all` and `held`
/// (one block, whose length is the block length): cycle by cycle of the
/// permutation, the cycle's smallest block is held while every other
/// one moves up (`all[q] ← all[slot_of(q)]`), and the held block lands
/// last. Fixed points move nothing. Up to [`TABLED`] blocks, every
/// block's slot is tabled first, by one count over the slots
/// ([`ranks_in_slot_order`]), and a moved block is marked in the table
/// as a fixed point; past them, see [`unpermute_walking`].
///
/// The direct path ([`GroupComm::unpermute`]) and a compiled program's
/// permutation step both run this; `all.len()` is `held.len()` times
/// the product of `radices`, which both check first.
pub(crate) fn unpermute(radices: &[usize], all: &mut [u8], held: &mut [u8]) {
    let b = held.len();
    if b == 0 {
        return;
    }
    let p = all.len() / b;
    debug_assert_eq!(p, radices.iter().product::<usize>(), "blocks × radices");
    if p > TABLED {
        return unpermute_walking(radices, all, held);
    }
    let block = |q: usize| q * b..(q + 1) * b;
    let mut from = [0u16; TABLED];
    let mut slot = 0;
    ranks_in_slot_order(radices, |q| {
        from[q] = slot;
        slot += 1;
    });
    for first in 0..p {
        let mut src = usize::from(from[first]);
        if src == first {
            continue;
        }
        held.copy_from_slice(&all[block(first)]);
        let mut at = first;
        loop {
            from[at] = at as u16;
            if src == first {
                break;
            }
            all.copy_within(block(src), at * b);
            at = src;
            src = usize::from(from[at]);
        }
        all[block(at)].copy_from_slice(held);
    }
}

/// [`unpermute`] past [`TABLED`] blocks, evaluating [`slot_of`] at each
/// hop: which of the first [`TABLED`] blocks have moved is a bitset on
/// the stack (512 bytes); past them, a cycle is moved from its smallest
/// block, found by walking the cycle until it returns or passes below
/// its start.
fn unpermute_walking(radices: &[usize], all: &mut [u8], held: &mut [u8]) {
    let b = held.len();
    let p = all.len() / b;
    let block = |q: usize| q * b..(q + 1) * b;
    let mut moved = [0u64; TABLED / 64];
    for first in 0..p {
        if first < TABLED && moved[first / 64] >> (first % 64) & 1 == 1 {
            continue;
        }
        let mut at = slot_of(radices, first);
        if at == first {
            continue;
        }
        if first >= TABLED {
            while at > first {
                at = slot_of(radices, at);
            }
            if at < first {
                // Moved already, from the smaller block that leads its
                // cycle.
                continue;
            }
        }
        held.copy_from_slice(&all[block(first)]);
        let mut at = first;
        loop {
            if at < TABLED {
                moved[at / 64] |= 1 << (at % 64);
            }
            let from = slot_of(radices, at);
            if from == first {
                break;
            }
            all.copy_within(block(from), at * b);
            at = from;
        }
        all[block(at)].copy_from_slice(held);
    }
}

/// Distributed combine: every member contributes `contrib`
/// (`p · mine.len()` items); on return, member `j`'s `mine` holds block
/// `j` of the element-wise ⊕ over all contributions. `contrib` is never
/// written; what the combine must overwrite lives in `scratch`.
pub fn reduce_scatter<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    strategy: &Strategy,
    contrib: &[T],
    mine: &mut [T],
    op: ReduceOp,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    check_strategy(gc, strategy)?;
    let p = gc.len();
    let b = mine.len();
    expect_len(p * b, contrib.len())?;
    let workspace = T::scratch(scratch, reduce_scatter_len(strategy, b));
    reduce_scatter_with(gc, strategy, contrib, mine, op, tag, workspace)
}

/// Workspace items a distributed combine of `b`-item blocks borrows
/// under `strategy`. The short form: the vector the MST combine folds
/// into and the bucket its later arrivals land in. Otherwise: the
/// dim-0 ring's buckets ([`into_buckets`]) and, in more than one
/// dimension, the member's super-block the ring lands in, its buckets
/// then lent to the plane's levels (whose bucket is at most one
/// super-block).
pub(crate) fn reduce_scatter_len(strategy: &Strategy, b: usize) -> usize {
    let (p, dims) = (strategy.nodes(), &strategy.dims);
    if is_short_form(strategy) {
        return 2 * p * b;
    }
    let (d0, per_block) = (dims[0], p / dims[0]);
    let super_block = per_block * b;
    if dims.len() == 1 {
        return super_block * into_buckets(d0, per_block);
    }
    let buckets = into_buckets(d0, per_block).max(usize::from(per_block > 1));
    super_block * (1 + buckets)
}

/// Whether `strategy` is the one-dimensional short form of more than
/// one member: an MST combine to member 0 and an MST scatter back, the
/// one form whose first stage is not the dim-0 ring.
fn is_short_form(s: &Strategy) -> bool {
    s.dims.len() == 1 && s.kind == StrategyKind::Mst && s.nodes() > 1
}

/// [`reduce_scatter`] of a checked call, in a lent `workspace` of at
/// least [`reduce_scatter_len`] items. Every form reads `contrib` where
/// it lies: the short form's combine ([`mst_reduce_into`]), and else
/// the template's first stage, the bucket distributed combine over the
/// dim-0 line ([`ring_reduce_scatter_into`]), whose ring blocks are the
/// planes' super-blocks in slot order; the plane's levels then run on
/// the member's own super-block.
pub(crate) fn reduce_scatter_with<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    strategy: &Strategy,
    contrib: &[T],
    mine: &mut [T],
    op: ReduceOp,
    tag: Tag,
    workspace: &mut [T],
) -> Result<()> {
    let (p, b, me, dims) = (gc.len(), mine.len(), gc.me(), &strategy.dims);
    if is_short_form(strategy) {
        let (work, bucket) = workspace.split_at_mut(p * b);
        mst_reduce_into(gc, 0, contrib, work, op, tag, bucket)?;
        mst_scatter(gc, 0, work, &equal_blocks(p, b), tag + 1)?;
        gc.copy(&work[me * b..(me + 1) * b], mine);
        return Ok(());
    }
    let (d0, plane_dims) = (dims[0], &dims[1..]);
    if plane_dims.is_empty() {
        return ring_reduce_scatter_into(gc, contrib, &[], mine, op, tag, workspace);
    }
    let (own, buckets) = workspace.split_at_mut(p / d0 * b);
    ring_reduce_scatter_into(&gc.line(d0), contrib, plane_dims, own, op, tag, buckets)?;
    let plane = gc.plane(d0);
    let (kind, tag) = (strategy.kind, tag + LEVEL_TAG_STRIDE);
    walk::<ReduceScatter, T, C>(&plane, plane_dims, kind, 0, own, op, tag, buckets)?;
    let my_slot = slot_of(plane_dims, plane.me());
    gc.copy(&own[my_slot * b..(my_slot + 1) * b], mine);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;
    use crate::error::CommError;

    #[test]
    fn single_node_collect_copies() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mine = [9u64, 8];
        let mut all = [0u64; 2];
        let long = Strategy::pure_long(1);
        collect(&gc, &long, &mine, &mut all, 0, &mut Vec::new()).unwrap();
        assert_eq!(all, mine);
    }

    #[test]
    fn single_node_reduce_scatter_copies() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let contrib = [1.5f32, 2.5];
        let mut mine = [0.0f32; 2];
        reduce_scatter(
            &gc,
            &Strategy::pure_mst(1),
            &contrib,
            &mut mine,
            ReduceOp::Sum,
            0,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(mine, contrib);
    }

    #[test]
    fn buffer_size_validated() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let short = Strategy::pure_mst(1);
        let mine = [1u8, 2];
        let mut all = [0u8; 3];
        assert!(matches!(
            collect(&gc, &short, &mine, &mut all, 0, &mut Vec::new()),
            Err(CommError::BadBufferSize {
                expected: 2,
                actual: 3
            })
        ));
        let contrib = [0i16; 5];
        let mut m = [0i16; 2];
        assert!(matches!(
            reduce_scatter(
                &gc,
                &Strategy::pure_mst(1),
                &contrib,
                &mut m,
                ReduceOp::Sum,
                0,
                &mut Vec::new()
            ),
            Err(CommError::BadBufferSize {
                expected: 2,
                actual: 5
            })
        ));
    }
}
