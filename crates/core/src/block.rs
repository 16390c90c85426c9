//! Block partitioning of vectors over group members (paper §3).
//!
//! A vector of `n` items is partitioned into `p` consecutive subvectors
//! `x₀ … x_{p−1}` with `nᵢ ≈ n/p`: the first `n mod p` blocks get one
//! extra item, so no power-of-two or divisibility assumptions are needed
//! anywhere in the library.

use std::ops::Range;

/// Number of items in block `i` of an `n`-item vector split `p` ways.
pub fn block_size(n: usize, p: usize, i: usize) -> usize {
    debug_assert!(i < p, "block index {i} out of {p}");
    n / p + usize::from(i < n % p)
}

/// First item index of block `i`.
pub fn block_start(n: usize, p: usize, i: usize) -> usize {
    debug_assert!(i <= p, "block index {i} out of {p}");
    i * (n / p) + i.min(n % p)
}

/// The item range of block `i`.
pub fn block_range(n: usize, p: usize, i: usize) -> Range<usize> {
    block_start(n, p, i)..block_start(n, p, i + 1)
}

/// All `p` block ranges of an `n`-item vector, in order: each block
/// starts where the last ended, so the table costs one division however
/// many blocks it has (the recursive template builds one per level of
/// every call).
pub fn partition(n: usize, p: usize) -> Vec<Range<usize>> {
    let (q, r) = (n / p, n % p);
    let mut end = 0;
    (0..p)
        .map(|i| {
            let start = end;
            end += q + usize::from(i < r);
            start..end
        })
        .collect()
}

/// A table of consecutive item ranges, one per group member, starting
/// at 0: what the block-moving primitives read. A slice of ranges is
/// one, and so is a [`Split`], which computes each block instead of
/// storing it.
pub trait Blocks {
    /// How many blocks.
    fn count(&self) -> usize;

    /// The item range of block `i`.
    fn block(&self, i: usize) -> Range<usize>;

    /// Items over all blocks: where the last one ends.
    fn total(&self) -> usize {
        self.count()
            .checked_sub(1)
            .map_or(0, |last| self.block(last).end)
    }
}

impl Blocks for [Range<usize>] {
    fn count(&self) -> usize {
        self.len()
    }

    fn block(&self, i: usize) -> Range<usize> {
        self[i].clone()
    }
}

/// [`partition`]'s blocks of an `n`-item vector split `p` ways, each
/// computed when asked for: the recursive template splits its vector at
/// every level of every call, and a table would be a heap vector each
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    q: usize,
    r: usize,
    p: usize,
}

impl Split {
    /// `n` items over `p` blocks.
    pub fn new(n: usize, p: usize) -> Self {
        Split {
            q: n / p,
            r: n % p,
            p,
        }
    }

    fn start(&self, i: usize) -> usize {
        i * self.q + i.min(self.r)
    }
}

impl Blocks for Split {
    fn count(&self) -> usize {
        self.p
    }

    #[inline]
    fn block(&self, i: usize) -> Range<usize> {
        debug_assert!(i < self.p, "block index {i} out of {}", self.p);
        self.start(i)..self.start(i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn a_split_computes_the_partition() {
        for n in [0, 1, 7, 12, 100] {
            for p in [1, 3, 4, 7, 16] {
                let split = Split::new(n, p);
                let computed: Vec<_> = (0..p).map(|i| split.block(i)).collect();
                assert_eq!(computed, partition(n, p), "n={n} p={p}");
                assert_eq!(split.total(), n);
            }
        }
    }

    #[test]
    fn even_split() {
        assert_eq!(partition(12, 4), vec![0..3, 3..6, 6..9, 9..12]);
    }

    #[test]
    fn uneven_split_front_loads_remainder() {
        assert_eq!(partition(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn more_ranks_than_items() {
        let parts = partition(2, 5);
        assert_eq!(parts, vec![0..1, 1..2, 2..2, 2..2, 2..2]);
    }

    #[test]
    fn zero_items() {
        assert!(partition(0, 3).iter().all(|r| r.is_empty()));
    }

    #[test]
    fn single_rank_owns_all() {
        assert_eq!(partition(7, 1), vec![0..7]);
    }

    /// 512 seeded `(n, p)` shapes with `n < 10_000`, `1 <= p < 64`.
    fn seeded_shapes() -> impl Iterator<Item = (usize, usize)> {
        let mut rng = SplitMix64::new(0xb10c);
        (0..512).map(move |_| (rng.below(10_000), 1 + rng.below(63)))
    }

    #[test]
    fn partition_covers_exactly() {
        for (n, p) in seeded_shapes() {
            let parts = partition(n, p);
            assert_eq!(parts.len(), p);
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts[p - 1].end, n, "n={n} p={p}");
            assert!(
                parts.windows(2).all(|w| w[0].end == w[1].start),
                "n={n} p={p}"
            );
            for (i, part) in parts.iter().enumerate() {
                assert_eq!(*part, block_range(n, p, i), "n={n} p={p} i={i}");
            }
        }
    }

    #[test]
    fn block_sizes_are_balanced_and_sum_to_n() {
        for (n, p) in seeded_shapes() {
            for i in 0..p {
                let s = block_size(n, p, i);
                assert!(s == n / p || s == n / p + 1, "n={n} p={p} i={i}");
                assert_eq!(s, block_range(n, p, i).len());
            }
            let total: usize = (0..p).map(|i| block_size(n, p, i)).sum();
            assert_eq!(total, n, "n={n} p={p}");
        }
    }
}
