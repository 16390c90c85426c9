//! Logical mesh views over process groups (paper §6).
//!
//! A hybrid strategy views a linear array of `p` nodes as a logical
//! `d1 × … × dk` mesh. Logical rank `r` corresponds to the mixed-radix
//! index `(i1, …, ik)` with
//!
//! ```text
//! r = i1·(d2·d3·…·dk) + i2·(d3·…·dk) + … + ik
//! ```
//!
//! so dimension `k` (the last) varies fastest and groups nearest
//! neighbours — matching the paper's Fig. 1, where the *first* scatter
//! stage runs within subgroups of adjacent nodes ("while the vectors are
//! long, the hybrid should choose the localized groups in an effort to
//! reduce network conflicts").

use crate::group::ProcGroup;
use std::fmt;

/// A logical `d1 × … × dk` view over a [`ProcGroup`] of exactly
/// `d1·…·dk` members.
#[derive(Debug, Clone)]
pub struct LogicalMesh {
    group: ProcGroup,
    dims: Vec<usize>,
}

/// Error constructing a [`LogicalMesh`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbedError {
    /// The product of the dims did not equal the group size.
    SizeMismatch {
        /// Product of the requested dims.
        dims_product: usize,
        /// Actual group size.
        group_len: usize,
    },
    /// A dimension of zero was supplied.
    ZeroDim,
    /// No dimensions were supplied.
    NoDims,
}

impl fmt::Display for EmbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbedError::SizeMismatch {
                dims_product,
                group_len,
            } => write!(
                f,
                "logical dims multiply to {dims_product} but group has {group_len} members"
            ),
            EmbedError::ZeroDim => write!(f, "logical mesh dimensions must be positive"),
            EmbedError::NoDims => write!(f, "at least one logical dimension required"),
        }
    }
}

impl std::error::Error for EmbedError {}

impl LogicalMesh {
    /// Creates a logical view; `dims` must multiply to `group.len()`.
    pub fn new(group: ProcGroup, dims: Vec<usize>) -> Result<Self, EmbedError> {
        if dims.is_empty() {
            return Err(EmbedError::NoDims);
        }
        if dims.contains(&0) {
            return Err(EmbedError::ZeroDim);
        }
        let prod: usize = dims.iter().product();
        if prod != group.len() {
            return Err(EmbedError::SizeMismatch {
                dims_product: prod,
                group_len: group.len(),
            });
        }
        Ok(LogicalMesh { group, dims })
    }

    /// The underlying group.
    pub fn group(&self) -> &ProcGroup {
        &self.group
    }

    /// The logical dimensions `d1, …, dk`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of logical dimensions `k`.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Stride (in logical ranks) between consecutive indices of dimension
    /// `d` (0-based): the product of all later dimensions.
    pub fn stride(&self, d: usize) -> usize {
        self.dims[d + 1..].iter().product()
    }

    /// Mixed-radix index of logical rank `r`.
    pub fn index_of(&self, mut r: usize) -> Vec<usize> {
        assert!(r < self.group.len(), "rank {r} out of range");
        let mut idx = vec![0; self.dims.len()];
        for d in (0..self.dims.len()).rev() {
            idx[d] = r % self.dims[d];
            r /= self.dims[d];
        }
        idx
    }

    /// Logical rank of a mixed-radix index.
    pub fn rank_of(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.dims.len(), "index arity mismatch");
        let mut r = 0;
        for (d, &i) in idx.iter().enumerate() {
            assert!(i < self.dims[d], "index {i} out of range in dim {d}");
            r = r * self.dims[d] + i;
        }
        r
    }

    /// The 1-D sub-group along dimension `d` that contains logical rank
    /// `r`: all ranks whose indices agree with `r` everywhere except
    /// dimension `d`, ordered by that dimension's index. The returned
    /// group maps *dimension indices* to physical nodes.
    pub fn line_through(&self, r: usize, d: usize) -> ProcGroup {
        let stride = self.stride(d);
        let idx = self.index_of(r);
        let base = r - idx[d] * stride;
        self.group.strided(base, stride, self.dims[d])
    }

    /// Index of rank `r` within its dimension-`d` line (its coordinate in
    /// that dimension).
    pub fn coord_in_dim(&self, r: usize, d: usize) -> usize {
        self.index_of(r)[d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(dims: &[usize]) -> LogicalMesh {
        let p: usize = dims.iter().product();
        LogicalMesh::new(ProcGroup::new((0..p).collect()).unwrap(), dims.to_vec()).unwrap()
    }

    #[test]
    fn size_mismatch_rejected() {
        let g = ProcGroup::new((0..6).collect()).unwrap();
        assert!(matches!(
            LogicalMesh::new(g, vec![2, 2]),
            Err(EmbedError::SizeMismatch {
                dims_product: 4,
                group_len: 6
            })
        ));
    }

    #[test]
    fn zero_dim_rejected() {
        let g = ProcGroup::new(vec![0]).unwrap();
        assert!(matches!(
            LogicalMesh::new(g.clone(), vec![0]),
            Err(EmbedError::ZeroDim)
        ));
        assert!(matches!(
            LogicalMesh::new(g, vec![]),
            Err(EmbedError::NoDims)
        ));
    }

    #[test]
    fn index_roundtrip_2x3x2() {
        let m = mesh(&[2, 3, 2]);
        for r in 0..12 {
            assert_eq!(m.rank_of(&m.index_of(r)), r);
        }
        // Last dimension varies fastest.
        assert_eq!(m.index_of(0), vec![0, 0, 0]);
        assert_eq!(m.index_of(1), vec![0, 0, 1]);
        assert_eq!(m.index_of(2), vec![0, 1, 0]);
        assert_eq!(m.index_of(6), vec![1, 0, 0]);
    }

    #[test]
    fn strides() {
        let m = mesh(&[2, 3, 5]);
        assert_eq!(m.stride(0), 15);
        assert_eq!(m.stride(1), 5);
        assert_eq!(m.stride(2), 1);
    }

    #[test]
    fn line_through_last_dim_is_contiguous() {
        let m = mesh(&[3, 4]);
        let line = m.line_through(5, 1);
        assert_eq!(line.members(), &[4, 5, 6, 7]);
        assert_eq!(m.coord_in_dim(5, 1), 1);
    }

    #[test]
    fn line_through_first_dim_is_strided() {
        let m = mesh(&[3, 4]);
        let line = m.line_through(5, 0);
        assert_eq!(line.members(), &[1, 5, 9]);
        assert_eq!(m.coord_in_dim(5, 0), 1);
    }

    #[test]
    fn fig1_twelve_nodes_as_2x3x2() {
        // Paper Fig. 1: 12 nodes; first scatter within subgroups of two
        // *adjacent* nodes. With dims [2,3,2] reversed convention, stage
        // order in our hybrid runs the LAST dim first; its lines are the
        // adjacent pairs.
        let m = mesh(&[2, 3, 2]);
        let pairs: Vec<_> = (0..12).step_by(2).map(|r| m.line_through(r, 2)).collect();
        assert_eq!(pairs[0].members(), &[0, 1]);
        assert_eq!(pairs[1].members(), &[2, 3]);
        assert_eq!(pairs[5].members(), &[10, 11]);
    }

    /// Every 3-D logical mesh with each dimension in `1..5`.
    fn small_meshes_3d() -> impl Iterator<Item = LogicalMesh> {
        (1..5).flat_map(|d1| (1..5).flat_map(move |d2| (1..5).map(move |d3| mesh(&[d1, d2, d3]))))
    }

    #[test]
    fn rank_index_roundtrip_on_all_small_meshes() {
        for m in small_meshes_3d() {
            for r in 0..m.dims().iter().product() {
                assert_eq!(m.rank_of(&m.index_of(r)), r, "dims {:?}", m.dims());
            }
        }
    }

    #[test]
    fn lines_partition_ranks_on_all_small_meshes() {
        for d1 in 1..5 {
            for d2 in 1..5 {
                let m = mesh(&[d1, d2]);
                let p = d1 * d2;
                for dim in 0..2 {
                    // Lines through a given dimension, collected over
                    // all ranks, cover each rank exactly dims[dim] times.
                    let mut count = vec![0usize; p];
                    for r in 0..p {
                        for &n in m.line_through(r, dim).members() {
                            count[n] += 1;
                        }
                    }
                    assert!(count.iter().all(|&c| c == m.dims()[dim]), "{d1}x{d2}");
                }
            }
        }
    }

    #[test]
    fn line_contains_self_on_all_small_meshes() {
        for m in small_meshes_3d() {
            for r in 0..m.dims().iter().product() {
                for d in 0..3 {
                    let line = m.line_through(r, d);
                    assert_eq!(line.node(m.coord_in_dim(r, d)), r, "dims {:?}", m.dims());
                }
            }
        }
    }
}
