//! Short-vector primitives: minimum-spanning-tree recursive halving
//! (paper §4.1).
//!
//! "The broadcast can proceed by dividing the linear array in two
//! (approximately) equal parts and choosing a receiving node in the part
//! that does not contain the root", recursively — `⌈log₂ p⌉` sequential
//! steps, no power-of-two requirement, no network conflicts. The
//! combine-to-one runs the same communications in reverse, interleaving
//! the ⊕ operation; the scatter sends only the data that resides in the
//! other part; the gather is the scatter in reverse.

use crate::block::Blocks;
use crate::cast::Scalar;
use crate::comm::{GroupComm, Tag};
use crate::error::{CommError, Result};
use crate::op::{Elem, ReduceOp};
use crate::primitives::debug_check_blocks;
use crate::Comm;

/// One level of the recursive-halving walk: the current range, its split
/// point and the half-roots.
#[derive(Debug, Clone, Copy)]
struct Level {
    mid: usize,
    /// Root of the current range.
    root: usize,
    /// The half-root on the side *not* containing `root` — the node that
    /// exchanges with `root` at this level.
    other: usize,
}

/// The recorded halving walk: at most `⌈log₂ p⌉ ≤ usize::BITS` levels,
/// held inline so tracing the path costs no heap allocation (the walk
/// runs on every hop of every MST primitive).
#[derive(Debug, Clone, Copy)]
struct LevelPath {
    levels: [Level; usize::BITS as usize],
    len: usize,
}

impl LevelPath {
    fn iter(&self) -> std::slice::Iter<'_, Level> {
        self.levels[..self.len].iter()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }
}

impl<'a> IntoIterator for &'a LevelPath {
    type Item = &'a Level;
    type IntoIter = std::slice::Iter<'a, Level>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Walks the halving recursion from `[0, p)` down to a singleton around
/// `me`, recording each level. `root` is the range root at entry.
fn levels(me: usize, p: usize, mut root: usize) -> LevelPath {
    let mut lo = 0;
    let mut hi = p;
    let mut out = LevelPath {
        levels: [Level {
            mid: 0,
            root: 0,
            other: 0,
        }; usize::BITS as usize],
        len: 0,
    };
    while hi - lo > 1 {
        // Left half [lo, mid) is the larger on odd sizes.
        let mid = lo + (hi - lo).div_ceil(2);
        let other = if root < mid { mid } else { mid - 1 };
        out.levels[out.len] = Level { mid, root, other };
        out.len += 1;
        if me < mid {
            hi = mid;
            root = if root < mid { root } else { mid - 1 };
        } else {
            lo = mid;
            root = if root < mid { mid } else { root };
        }
    }
    out
}

/// `Ok` where `root` is a member of `gc`, else [`CommError::InvalidRoot`].
pub(crate) fn check_root<C: Comm + ?Sized>(gc: &GroupComm<'_, C>, root: usize) -> Result<()> {
    if root < gc.len() {
        Ok(())
    } else {
        Err(CommError::InvalidRoot {
            root,
            size: gc.len(),
        })
    }
}

/// MST broadcast of the full `buf` from logical rank `root` to every
/// member of the group. Cost: `⌈log₂ p⌉(α + nβ)`.
pub fn mst_bcast<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    root: usize,
    buf: &mut [T],
    tag: Tag,
) -> Result<()> {
    check_root(gc, root)?;
    let me = gc.me();
    for lvl in levels(me, gc.len(), root).iter() {
        gc.call_overhead();
        if me == lvl.root {
            gc.send(lvl.other, tag, buf)?;
        } else if me == lvl.other {
            gc.recv(lvl.root, tag, buf)?;
        }
    }
    Ok(())
}

/// MST combine-to-one: every member contributes `buf`; on return the
/// root's `buf` holds the element-wise ⊕ of all contributions. Non-root
/// buffers are used as workspace and hold partial combines on return.
/// `scratch` receives each arriving vector: at least `buf.len()` long,
/// its contents ignored. Cost: `⌈log₂ p⌉(α + nβ + nγ)`.
pub fn mst_reduce<T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    root: usize,
    buf: &mut [T],
    op: ReduceOp,
    tag: Tag,
    scratch: &mut [T],
) -> Result<()> {
    check_root(gc, root)?;
    let me = gc.me();
    let path = levels(me, gc.len(), root);
    // Broadcast communications in reverse order, data flowing inward.
    for lvl in path.iter().rev() {
        gc.call_overhead();
        if me == lvl.other {
            gc.send(lvl.root, tag, buf)?;
        } else if me == lvl.root {
            let arrived = &mut scratch[..buf.len()];
            gc.recv_with(lvl.other, tag, arrived, |arrived, lent| {
                gc.fold(op, buf, lent.unwrap_or(arrived))
            })?;
        }
    }
    Ok(())
}

/// MST scatter: `root`'s `buf` holds all blocks; on return, member `j`'s
/// `buf[blocks[j]]` holds block `j` (other regions of non-root buffers
/// are workspace). Cost: `⌈log₂ p⌉α + ((p−1)/p)nβ` for balanced blocks.
pub fn mst_scatter<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    root: usize,
    buf: &mut [T],
    blocks: &(impl Blocks + ?Sized),
    tag: Tag,
) -> Result<()> {
    check_root(gc, root)?;
    debug_check_blocks(blocks, gc.len(), buf.len());
    let me = gc.me();
    let mut lo = 0;
    let mut hi = gc.len();
    for lvl in levels(me, gc.len(), root).iter() {
        gc.call_overhead();
        // Region held by the half not containing the current root.
        let region = if lvl.root < lvl.mid {
            blocks.block(lvl.mid).start..blocks.block(hi - 1).end
        } else {
            blocks.block(lo).start..blocks.block(lvl.mid - 1).end
        };
        if me == lvl.root {
            gc.send(lvl.other, tag, &buf[region])?;
        } else if me == lvl.other {
            gc.recv(lvl.root, tag, &mut buf[region])?;
        }
        if me < lvl.mid {
            hi = lvl.mid;
        } else {
            lo = lvl.mid;
        }
    }
    Ok(())
}

/// MST gather: member `j` contributes `buf[blocks[j]]`; on return the
/// root's `buf` holds all blocks in order (non-root buffers are
/// workspace). Cost: `⌈log₂ p⌉α + ((p−1)/p)nβ` for balanced blocks.
pub fn mst_gather<T: Scalar, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    root: usize,
    buf: &mut [T],
    blocks: &(impl Blocks + ?Sized),
    tag: Tag,
) -> Result<()> {
    check_root(gc, root)?;
    debug_check_blocks(blocks, gc.len(), buf.len());
    let me = gc.me();
    let path = levels(me, gc.len(), root);
    // Reconstruct the [lo, hi) extents alongside the path so the reversed
    // replay knows each level's region (inline like the path itself — no
    // per-call heap allocation).
    let mut extents = [(0usize, 0usize); usize::BITS as usize];
    {
        let mut lo = 0;
        let mut hi = gc.len();
        for (i, lvl) in path.iter().enumerate() {
            extents[i] = (lo, hi);
            if me < lvl.mid {
                hi = lvl.mid;
            } else {
                lo = lvl.mid;
            }
        }
    }
    for (lvl, &(lo, hi)) in path.iter().zip(extents[..path.len].iter()).rev() {
        gc.call_overhead();
        let region = if lvl.root < lvl.mid {
            blocks.block(lvl.mid).start..blocks.block(hi - 1).end
        } else {
            blocks.block(lo).start..blocks.block(lvl.mid - 1).end
        };
        if me == lvl.other {
            gc.send(lvl.root, tag, &buf[region])?;
        } else if me == lvl.root {
            gc.recv(lvl.other, tag, &mut buf[region])?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_depth_is_ceil_log2() {
        for p in 1..40 {
            let depth = (p as f64).log2().ceil() as usize;
            for me in 0..p {
                for root in [0, p / 2, p - 1] {
                    let l = levels(me, p, root);
                    assert!(
                        l.len() <= depth,
                        "p={p} me={me} root={root}: {} > {depth}",
                        l.len()
                    );
                }
            }
        }
    }

    #[test]
    fn levels_converge_to_me() {
        // After the recorded walk, the final range must be the singleton
        // {me}: verify by replaying the extents.
        for p in 1..25 {
            for me in 0..p {
                for root in 0..p {
                    let mut lo = 0;
                    let mut hi = p;
                    for lvl in levels(me, p, root).iter() {
                        if me < lvl.mid {
                            hi = lvl.mid;
                        } else {
                            lo = lvl.mid;
                        }
                        assert!(lvl.root != lvl.other);
                        assert!((lo..hi).contains(&me));
                    }
                    assert_eq!(hi - lo, 1);
                    assert_eq!(lo, me);
                }
            }
        }
    }

    #[test]
    fn levels_root_stays_in_range() {
        for p in 2..25 {
            for me in 0..p {
                for root in 0..p {
                    let mut lo = 0;
                    let mut hi = p;
                    for lvl in levels(me, p, root).iter() {
                        assert!((lo..hi).contains(&lvl.root), "root escaped range");
                        assert!((lo..hi).contains(&lvl.other));
                        // root and other on opposite sides of mid
                        assert_eq!(lvl.root < lvl.mid, lvl.other >= lvl.mid);
                        if me < lvl.mid {
                            hi = lvl.mid;
                        } else {
                            lo = lvl.mid;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_root_rejected() {
        let c = crate::comm::SelfComm;
        let gc = GroupComm::world(&c);
        let mut b = [0u8; 4];
        assert!(matches!(
            mst_bcast(&gc, 3, &mut b, 0),
            Err(CommError::InvalidRoot { root: 3, size: 1 })
        ));
    }

    #[test]
    fn single_member_is_noop() {
        let c = crate::comm::SelfComm;
        let gc = GroupComm::world(&c);
        let mut b = [7u32, 8];
        mst_bcast(&gc, 0, &mut b, 0).unwrap();
        assert_eq!(b, [7, 8]);
        mst_reduce(&gc, 0, &mut b, ReduceOp::Sum, 0, &mut []).unwrap();
        assert_eq!(b, [7, 8]);
        let blocks: &[_] = &crate::block::partition(2, gc.len());
        mst_scatter(&gc, 0, &mut b, blocks, 0).unwrap();
        mst_gather(&gc, 0, &mut b, blocks, 0).unwrap();
        assert_eq!(b, [7, 8]);
    }
}
