//! Scatter and gather — primitives that serve both vector-length regimes
//! (§4.2), exposed with MPI-style separate buffers.

use crate::algorithms::equal_blocks;
use crate::block::Blocks;
use crate::cast::Scalar;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::{CommError, Result};
use crate::primitives::{mst_gather, mst_scatter};

/// The root's whole buffer, which must hold `total` items.
fn sized<B: AsRef<[T]>, T>(full: Option<B>, total: usize) -> Result<B> {
    match full {
        Some(f) if f.as_ref().len() == total => Ok(f),
        f => Err(CommError::BadBufferSize {
            expected: total,
            actual: f.map_or(0, |f| f.as_ref().len()),
        }),
    }
}

/// Scatter: the root's `full` (length `p · mine.len()`) is split into
/// equal blocks; member `j` receives block `j` into `mine`. Non-roots
/// pass `None` for `full`. The tree splits the vector in a view of
/// `scratch`. Cost: `⌈log₂ p⌉α + ((p−1)/p)nβ`.
pub fn scatter<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    root: usize,
    full: Option<&[T]>,
    mine: &mut [T],
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    let blocks = equal_blocks(gc.len(), mine.len());
    scatter_blocks(gc, root, full, &blocks, mine, tag, scratch)
}

/// Gather: member `j` contributes `mine`; the root's `full` (length
/// `p · mine.len()`) receives all blocks concatenated in rank order.
/// Non-roots pass `None` for `full` and relay through a view of
/// `scratch`. Cost: `⌈log₂ p⌉α + ((p−1)/p)nβ`.
pub fn gather<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    root: usize,
    mine: &[T],
    full: Option<&mut [T]>,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    let blocks = equal_blocks(gc.len(), mine.len());
    gather_blocks(gc, root, mine, &blocks, full, tag, scratch)
}

/// Scatter over a block table: the root stages `full` (the blocks'
/// concatenation) in a view of `scratch`, the tree splits it, and
/// member `j` copies block `j` out into `mine`.
pub(super) fn scatter_blocks<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    root: usize,
    full: Option<&[T]>,
    blocks: &(impl Blocks + ?Sized),
    mine: &mut [T],
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    let me = gc.me();
    let work = T::scratch(scratch, blocks.total());
    if me == root {
        gc.copy(sized(full, work.len())?, work);
    }
    mst_scatter(gc, root, work, blocks, tag)?;
    gc.copy(&work[blocks.block(me)], mine);
    Ok(())
}

/// Gather over a block table: member `j` places `mine` as block `j` of
/// the vector the tree joins — the root's `full` itself, elsewhere a
/// view of `scratch`.
pub(super) fn gather_blocks<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    root: usize,
    mine: &[T],
    blocks: &(impl Blocks + ?Sized),
    full: Option<&mut [T]>,
    tag: Tag,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    let me = gc.me();
    let total = blocks.total();
    let work = if me == root {
        sized(full, total)?
    } else {
        T::scratch(scratch, total)
    };
    gc.copy(mine, &mut work[blocks.block(me)]);
    mst_gather(gc, root, work, blocks, tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;

    #[test]
    fn single_node_scatter() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let full = [1u32, 2, 3];
        let mut mine = [0u32; 3];
        scatter(&gc, 0, Some(&full), &mut mine, 0, &mut Vec::new()).unwrap();
        assert_eq!(mine, full);
    }

    #[test]
    fn single_node_gather() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mine = [4i64, 5];
        let mut full = [0i64; 2];
        gather(&gc, 0, &mine, Some(&mut full), 0, &mut Vec::new()).unwrap();
        assert_eq!(full, mine);
    }

    #[test]
    fn root_must_supply_full_buffer() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let mut mine = [0u8; 2];
        assert!(matches!(
            scatter::<u8, _>(&gc, 0, None, &mut mine, 0, &mut Vec::new()),
            Err(CommError::BadBufferSize { .. })
        ));
        let mine2 = [0u8; 2];
        assert!(matches!(
            gather::<u8, _>(&gc, 0, &mine2, None, 0, &mut Vec::new()),
            Err(CommError::BadBufferSize { .. })
        ));
    }

    #[test]
    fn wrong_full_length_rejected() {
        let c = SelfComm;
        let gc = GroupComm::world(&c);
        let full = [1u8; 5];
        let mut mine = [0u8; 2];
        assert!(matches!(
            scatter(&gc, 0, Some(&full), &mut mine, 0, &mut Vec::new()),
            Err(CommError::BadBufferSize {
                expected: 2,
                actual: 5
            })
        ));
    }
}
