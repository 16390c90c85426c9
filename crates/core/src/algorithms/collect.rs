//! Collect (allgather) and distributed combine (reduce-scatter) under any
//! hybrid strategy.
//!
//! These two collectives identify blocks with ranks globally, so the
//! recursive template is executed over a *slot-permuted* work buffer:
//! rank `r`'s block lives at slot [`slot_of`]`(dims, r)`, which makes the
//! blocks of every recursion subtree contiguous. The permutation is a
//! node-local memcpy (free of communication) applied once on entry
//! (distributed combine, block by block) or once on exit (collect, in
//! place, by [`unpermute`] — one call, and one step of a compiled
//! program, [`StepKind::Permute`](crate::ir::StepKind::Permute), however
//! many blocks it moves). Under a one-dimensional strategy slot order
//! *is* rank order: collect skips the un-permute, and the bucket
//! distributed combine reads the caller's contribution in place
//! ([`ring_reduce_scatter_into`]). Every staging vector is a view of the
//! caller's `scratch` — as it is everywhere below
//! [`run_direct`](crate::ir::run_direct): no algorithm of the crate,
//! flat or hierarchical, allocates an element buffer of its own.
//!
//! Per the template (Fig. 3), collect's stage 1 is void — the recursion
//! descends straight to the innermost dimension, whose *short* center is
//! a gather followed by an MST broadcast and whose *long* center is a
//! bucket collect, then bucket-collects ever-larger super-blocks back up.
//! Distributed combine is the exact dual (stage 2 void).

use crate::algorithms::combine::bucket_len;
use crate::algorithms::{check_strategy, equal_blocks, slot_of, LEVEL_TAG_STRIDE};
use crate::cast::Scalar;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::{expect_len, Result};
use crate::op::{Elem, ReduceOp};
use crate::primitives::{
    mst_bcast, mst_gather, mst_reduce, mst_scatter, ring_collect, ring_reduce_scatter,
    ring_reduce_scatter_into,
};
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
    let dims = &strategy.dims;
    collect_rec(gc, dims, strategy.kind, all, b, tag)?;
    if dims.len() > 1 && b > 0 {
        gc.unpermute(all, b, dims, scratch);
    }
    Ok(())
}

/// Blocks whose moves [`unpermute`] marks in a bitset on its stack
/// (512 bytes): every group a `sim-mesh` row or a table of the paper
/// runs on.
const MARKED: usize = 4096;

/// Moves every rank `q`'s block from slot [`slot_of`]`(radices, q)` of
/// `all` to block `q`, in place, touching no memory but `all` and `held`
/// (one block, whose length is the block length): cycle by cycle of the
/// permutation, the cycle's smallest block is held while every other
/// one moves up (`all[q] ← all[slot_of(q)]`), and the held block lands
/// last. Fixed points move nothing. Which of the first [`MARKED`]
/// blocks have moved is a bitset on the stack; past them, a cycle is
/// moved from its smallest block, found by walking the cycle until it
/// returns or passes below its start.
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
    let block = |q: usize| q * b..(q + 1) * b;
    let mut moved = [0u64; MARKED / 64];
    for first in 0..p {
        if first < MARKED && moved[first / 64] >> (first % 64) & 1 == 1 {
            continue;
        }
        let mut at = slot_of(radices, first);
        if at == first {
            continue;
        }
        if first >= MARKED {
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
            if at < MARKED {
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

fn collect_rec<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    dims: &[usize],
    kind: StrategyKind,
    work: &mut [T],
    b: usize,
    tag: Tag,
) -> Result<()> {
    let p = gc.len();
    if p == 1 {
        return Ok(());
    }
    if dims.len() == 1 {
        let blocks = equal_blocks(p, b);
        return match kind {
            StrategyKind::Mst => {
                // Short collect: gather followed by MST broadcast (§5.1).
                mst_gather(gc, 0, work, &blocks, tag)?;
                mst_bcast(gc, 0, work, tag + 1)
            }
            StrategyKind::ScatterCollect => ring_collect(gc, work, &blocks, tag),
        };
    }
    let d0 = dims[0];
    let sub = p / d0;
    let my0 = gc.me() % d0;
    // Stage 1 is void: recurse within my plane over my plane's slot
    // super-block (contiguous by construction of the slot order). The
    // recursion owns the next tag level, keeping `tag / LEVEL_TAG_STRIDE`
    // equal to the recursion depth for every stage of every collective.
    let plane = gc.plane(d0);
    let plane_range = my0 * sub * b..(my0 + 1) * sub * b;
    collect_rec(
        &plane,
        &dims[1..],
        kind,
        &mut work[plane_range],
        b,
        tag + LEVEL_TAG_STRIDE,
    )?;
    // Stage 2: bucket-collect the d0 plane super-blocks within my line.
    let line = gc.line(d0);
    let blocks = equal_blocks(d0, sub * b);
    ring_collect(&line, work, &blocks, tag + 1)
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

/// Whether slot order is rank order and the ring only ever sends a
/// block it received, so that nothing of `contrib` needs a writable
/// copy.
fn reads_in_place(s: &Strategy) -> bool {
    s.nodes() == 1 || (s.dims.len() == 1 && s.kind == StrategyKind::ScatterCollect)
}

/// Workspace items a distributed combine of `b`-item blocks borrows
/// under `strategy`: the in-place ring's two buckets, or the
/// contribution packed into slot order next to the one bucket every
/// stage receives into.
pub(crate) fn reduce_scatter_len(strategy: &Strategy, b: usize) -> usize {
    let p = strategy.nodes();
    if reads_in_place(strategy) {
        b * p.saturating_sub(2).min(2)
    } else {
        p * b + bucket_len(strategy, p * b)
    }
}

/// [`reduce_scatter`] of a checked call, in a lent `workspace` of at
/// least [`reduce_scatter_len`] items.
pub(crate) fn reduce_scatter_with<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    strategy: &Strategy,
    contrib: &[T],
    mine: &mut [T],
    op: ReduceOp,
    tag: Tag,
    workspace: &mut [T],
) -> Result<()> {
    if reads_in_place(strategy) {
        return ring_reduce_scatter_into(gc, contrib, mine, op, tag, workspace);
    }
    let (p, b, dims) = (gc.len(), mine.len(), &strategy.dims);
    // The in-place stages overwrite their vector: pack the contribution
    // into slot order, next to the bucket (whole vectors for the MST
    // combine, else the first ring stage's super-block, the largest).
    let (work, bucket) = workspace.split_at_mut(p * b);
    for q in 0..p {
        let s = slot_of(dims, q);
        gc.copy(&contrib[q * b..(q + 1) * b], &mut work[s * b..(s + 1) * b]);
    }
    rs_rec(gc, dims, strategy.kind, work, b, op, tag, bucket)?;
    let my_slot = slot_of(dims, gc.me());
    gc.copy(&work[my_slot * b..(my_slot + 1) * b], mine);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn rs_rec<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    dims: &[usize],
    kind: StrategyKind,
    work: &mut [T],
    b: usize,
    op: ReduceOp,
    tag: Tag,
    bucket: &mut [T],
) -> Result<()> {
    let p = gc.len();
    if p == 1 {
        return Ok(());
    }
    if dims.len() == 1 {
        let blocks = equal_blocks(p, b);
        return match kind {
            StrategyKind::Mst => {
                // Short distributed combine: combine-to-one followed by
                // scatter (§5.1).
                mst_reduce(gc, 0, work, op, tag, bucket)?;
                mst_scatter(gc, 0, work, &blocks, tag + 1)
            }
            StrategyKind::ScatterCollect => ring_reduce_scatter(gc, work, &blocks, op, tag, bucket),
        };
    }
    let d0 = dims[0];
    let sub = p / d0;
    let my0 = gc.me() % d0;
    // Stage 1: bucket distributed combine of the d0 plane super-blocks
    // within my line; member j keeps super-block j (its own plane's).
    let line = gc.line(d0);
    let blocks = equal_blocks(d0, sub * b);
    ring_reduce_scatter(&line, work, &blocks, op, tag, bucket)?;
    // Stage 2 is void: recurse within my plane on my super-block.
    let plane = gc.plane(d0);
    let plane_range = my0 * sub * b..(my0 + 1) * sub * b;
    rs_rec(
        &plane,
        &dims[1..],
        kind,
        &mut work[plane_range],
        b,
        op,
        tag + LEVEL_TAG_STRIDE,
        bucket,
    )
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
