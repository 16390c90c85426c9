//! Varying-count ("v") collectives — the paper's *known lengths* mode.
//!
//! The NX `gcolx` call and the InterCom collect operate on blocks whose
//! lengths differ per node but are known to every participant (Table 3
//! labels the collect "known lengths"). These entry points take an
//! explicit per-rank count table; the underlying MST and bucket
//! primitives already move arbitrary consecutive block ranges, so the v
//! variants are thin layers that build the block table from the counts.

use super::scatter_gather::{gather_blocks, scatter_blocks};
use crate::cast::Scalar;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::{expect_len, Result};
use crate::primitives::ring_collect;
use std::ops::Range;

/// Builds the block table from per-rank counts; `blocks[j]` spans
/// `counts[j]` items.
fn blocks_from_counts(counts: &[usize]) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(counts.len());
    let mut at = 0;
    for &c in counts {
        out.push(at..at + c);
        at += c;
    }
    out
}

/// The block table of `counts`, once it holds one count per member and
/// this member's count is `mine` items.
fn checked_blocks<C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    counts: &[usize],
    mine: usize,
) -> Result<Vec<Range<usize>>> {
    expect_len(gc.len(), counts.len())?;
    expect_len(counts[gc.me()], mine)?;
    Ok(blocks_from_counts(counts))
}

/// Scatter with per-rank counts: the root's `full` holds
/// `counts[0] + … + counts[p−1]` items; member `j` receives `counts[j]`
/// items into `mine`.
pub fn scatterv<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    root: usize,
    full: Option<&[T]>,
    counts: &[usize],
    mine: &mut [T],
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    let blocks = checked_blocks(gc, counts, mine.len())?;
    scatter_blocks(gc, root, full, &blocks[..], mine, tag, scratch)
}

/// Gather with per-rank counts: member `j` contributes `counts[j]` items;
/// the root receives the concatenation.
pub fn gatherv<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    root: usize,
    mine: &[T],
    counts: &[usize],
    full: Option<&mut [T]>,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    let blocks = checked_blocks(gc, counts, mine.len())?;
    gather_blocks(gc, root, mine, &blocks[..], full, tag, scratch)
}

/// Collect with per-rank counts (`gcolx` semantics): member `j`
/// contributes `counts[j]` items; every member receives the full
/// concatenation via the bucket ring (long-vector regime — the natural
/// choice since uneven lengths are usually data-dependent and large).
pub fn allgatherv<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    mine: &[T],
    counts: &[usize],
    all: &mut [T],
    tag: Tag,
) -> Result<()> {
    let blocks = checked_blocks(gc, counts, mine.len())?;
    let total = blocks.last().map_or(0, |b| b.end);
    expect_len(total, all.len())?;
    all[blocks[gc.me()].clone()].copy_from_slice(mine);
    ring_collect(gc, all, &blocks[..], tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;
    use crate::error::CommError;

    #[test]
    fn single_rank_roundtrip() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let counts = [3usize];
        let full = [1u32, 2, 3];
        let mut mine = [0u32; 3];
        scatterv(&gc, 0, Some(&full), &counts, &mut mine, 0, &mut Vec::new()).unwrap();
        assert_eq!(mine, full);
        let mut back = [0u32; 3];
        gatherv(&gc, 0, &mine, &counts, Some(&mut back), 0, &mut Vec::new()).unwrap();
        assert_eq!(back, full);
        let mut all = [0u32; 3];
        allgatherv(&gc, &mine, &counts, &mut all, 0).unwrap();
        assert_eq!(all, full);
    }

    #[test]
    fn count_table_arity_checked() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mut mine = [0u8; 1];
        assert!(matches!(
            scatterv::<u8, _>(&gc, 0, Some(&[1]), &[1, 1], &mut mine, 0, &mut Vec::new()),
            Err(CommError::BadBufferSize {
                expected: 1,
                actual: 2
            })
        ));
    }

    #[test]
    fn my_count_checked() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mut mine = [0u8; 2];
        assert!(matches!(
            scatterv::<u8, _>(&gc, 0, Some(&[1]), &[1], &mut mine, 0, &mut Vec::new()),
            Err(CommError::BadBufferSize {
                expected: 1,
                actual: 2
            })
        ));
    }

    #[test]
    fn blocks_from_counts_layout() {
        let b = blocks_from_counts(&[2, 0, 3]);
        assert_eq!(b, vec![0..2, 2..2, 2..5]);
    }
}
