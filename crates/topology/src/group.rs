//! Process groups and physical-structure detection (paper §9).
//!
//! A [`ProcGroup`] is an ordered list of physical node ids; position in the
//! list is the node's *logical rank* within the group. "The ring collect
//! routine would treat those processors as a group of contiguous nodes
//! numbered 0 to r−1, using the group array to provide the
//! logical-to-physical mapping" — this module is that group array, plus
//! the structure analysis the paper uses to keep group collectives fast:
//! a group that forms a rectangular physical submesh gets the row/column
//! staging techniques; anything else is treated as a linear array.

use crate::mesh::{Mesh2D, NodeId};
use std::collections::HashSet;
use std::fmt;

/// What physical shape a group's nodes form on the machine (paper §9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupStructure {
    /// The group covers a full rectangular submesh in row-major order:
    /// rows `row0..row0+rows`, columns `col0..col0+cols`. Whole-mesh
    /// row/column techniques apply directly.
    Submesh {
        /// Top-left corner row.
        row0: usize,
        /// Top-left corner column.
        col0: usize,
        /// Height of the submesh.
        rows: usize,
        /// Width of the submesh.
        cols: usize,
    },
    /// The group is a contiguous run of nodes within one physical row
    /// (west→east) or column (north→south) — a physical linear array with
    /// nearest-neighbour links.
    PhysicalLine,
    /// No physical structure could be ascertained; the group is treated
    /// as though it were a linear array in logical-rank order.
    Unstructured,
}

impl fmt::Display for GroupStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupStructure::Submesh {
                row0,
                col0,
                rows,
                cols,
            } => {
                write!(f, "{rows}x{cols} submesh @({row0},{col0})")
            }
            GroupStructure::PhysicalLine => write!(f, "physical line"),
            GroupStructure::Unstructured => write!(f, "unstructured"),
        }
    }
}

/// An ordered set of physical nodes; index = logical rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcGroup {
    ranks: Vec<NodeId>,
}

/// Error constructing a [`ProcGroup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// The member list was empty.
    Empty,
    /// A node id appeared more than once (the offending id is carried).
    Duplicate(NodeId),
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::Empty => write!(f, "process group must not be empty"),
            GroupError::Duplicate(id) => write!(f, "node {id} appears twice in group"),
        }
    }
}

impl std::error::Error for GroupError {}

impl ProcGroup {
    /// Builds a group from a logical-rank-ordered list of physical nodes.
    pub fn new(ranks: Vec<NodeId>) -> Result<Self, GroupError> {
        if ranks.is_empty() {
            return Err(GroupError::Empty);
        }
        let mut seen = HashSet::with_capacity(ranks.len());
        for &r in &ranks {
            if !seen.insert(r) {
                return Err(GroupError::Duplicate(r));
            }
        }
        Ok(ProcGroup { ranks })
    }

    /// The whole machine as one group, in row-major (node-id) order.
    pub fn whole_mesh(mesh: &Mesh2D) -> Self {
        ProcGroup {
            ranks: mesh.all_nodes(),
        }
    }

    /// Physical row `r` of the mesh as a group (west→east order).
    pub fn mesh_row(mesh: &Mesh2D, r: usize) -> Self {
        ProcGroup {
            ranks: mesh.row_nodes(r),
        }
    }

    /// Physical column `c` of the mesh as a group (north→south order).
    pub fn mesh_col(mesh: &Mesh2D, c: usize) -> Self {
        ProcGroup {
            ranks: mesh.col_nodes(c),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True iff the group has exactly one member. (Groups are never empty.)
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Physical node id of logical rank `i`. Panics if out of range.
    pub fn node(&self, i: usize) -> NodeId {
        self.ranks[i]
    }

    /// All members in logical-rank order.
    pub fn members(&self) -> &[NodeId] {
        &self.ranks
    }

    /// Logical rank of physical node `id`, if a member.
    pub fn rank_of(&self, id: NodeId) -> Option<usize> {
        self.ranks.iter().position(|&r| r == id)
    }

    /// The sub-group of every `stride`-th member starting at `offset` —
    /// how the hybrid template slices a logical `d1 × … × dk` view into
    /// per-dimension groups.
    pub fn strided(&self, offset: usize, stride: usize, count: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        let ranks: Vec<NodeId> = (0..count)
            .map(|i| self.ranks[offset + i * stride])
            .collect();
        ProcGroup { ranks }
    }

    /// Detects the physical structure of the group on `mesh` (paper §9).
    ///
    /// Returns [`GroupStructure::Submesh`] when the members enumerate a
    /// full rectangle in row-major order, [`GroupStructure::PhysicalLine`]
    /// when they walk one row or column in physically-contiguous order,
    /// and [`GroupStructure::Unstructured`] otherwise.
    pub fn structure(&self, mesh: &Mesh2D) -> GroupStructure {
        let coords: Vec<_> = self.ranks.iter().map(|&id| mesh.coord(id)).collect();
        let rmin = coords.iter().map(|c| c.row).min().unwrap();
        let rmax = coords.iter().map(|c| c.row).max().unwrap();
        let cmin = coords.iter().map(|c| c.col).min().unwrap();
        let cmax = coords.iter().map(|c| c.col).max().unwrap();
        let rows = rmax - rmin + 1;
        let cols = cmax - cmin + 1;

        // A full rectangle in row-major order?
        if rows * cols == self.ranks.len() {
            let row_major = coords
                .iter()
                .enumerate()
                .all(|(i, c)| c.row == rmin + i / cols && c.col == cmin + i % cols);
            if row_major && (rows > 1 && cols > 1) {
                return GroupStructure::Submesh {
                    row0: rmin,
                    col0: cmin,
                    rows,
                    cols,
                };
            }
            if row_major && (rows == 1 || cols == 1) {
                // Degenerate rectangle: one physical row or column walked
                // contiguously.
                return GroupStructure::PhysicalLine;
            }
        }

        // A contiguous walk along one row or column in either direction?
        if rows == 1 && cols == self.ranks.len() {
            let fwd = coords.windows(2).all(|w| w[1].col == w[0].col + 1);
            let bwd = coords.windows(2).all(|w| w[1].col + 1 == w[0].col);
            if fwd || bwd {
                return GroupStructure::PhysicalLine;
            }
        }
        if cols == 1 && rows == self.ranks.len() {
            let fwd = coords.windows(2).all(|w| w[1].row == w[0].row + 1);
            let bwd = coords.windows(2).all(|w| w[1].row + 1 == w[0].row);
            if fwd || bwd {
                return GroupStructure::PhysicalLine;
            }
        }
        GroupStructure::Unstructured
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_duplicates() {
        assert_eq!(ProcGroup::new(vec![]), Err(GroupError::Empty));
        assert_eq!(ProcGroup::new(vec![1, 2, 1]), Err(GroupError::Duplicate(1)));
    }

    #[test]
    fn rank_mapping_roundtrip() {
        let g = ProcGroup::new(vec![7, 3, 11, 0]).unwrap();
        for i in 0..g.len() {
            assert_eq!(g.rank_of(g.node(i)), Some(i));
        }
        assert_eq!(g.rank_of(99), None);
    }

    #[test]
    fn whole_mesh_is_submesh() {
        let m = Mesh2D::new(4, 6);
        let g = ProcGroup::whole_mesh(&m);
        assert_eq!(
            g.structure(&m),
            GroupStructure::Submesh {
                row0: 0,
                col0: 0,
                rows: 4,
                cols: 6
            }
        );
    }

    #[test]
    fn row_group_is_line() {
        let m = Mesh2D::new(4, 6);
        assert_eq!(
            ProcGroup::mesh_row(&m, 2).structure(&m),
            GroupStructure::PhysicalLine
        );
        assert_eq!(
            ProcGroup::mesh_col(&m, 5).structure(&m),
            GroupStructure::PhysicalLine
        );
    }

    #[test]
    fn reversed_row_is_line() {
        let m = Mesh2D::new(2, 5);
        let mut nodes = m.row_nodes(1);
        nodes.reverse();
        let g = ProcGroup::new(nodes).unwrap();
        assert_eq!(g.structure(&m), GroupStructure::PhysicalLine);
    }

    #[test]
    fn interior_submesh_detected() {
        let m = Mesh2D::new(6, 8);
        // 2x3 rectangle at (1,2), row-major.
        let ids = vec![
            m.id(crate::coord::Coord::new(1, 2)),
            m.id(crate::coord::Coord::new(1, 3)),
            m.id(crate::coord::Coord::new(1, 4)),
            m.id(crate::coord::Coord::new(2, 2)),
            m.id(crate::coord::Coord::new(2, 3)),
            m.id(crate::coord::Coord::new(2, 4)),
        ];
        let g = ProcGroup::new(ids).unwrap();
        assert_eq!(
            g.structure(&m),
            GroupStructure::Submesh {
                row0: 1,
                col0: 2,
                rows: 2,
                cols: 3
            }
        );
    }

    #[test]
    fn scattered_group_unstructured() {
        let m = Mesh2D::new(4, 4);
        let g = ProcGroup::new(vec![0, 5, 10, 15]).unwrap(); // diagonal
        assert_eq!(g.structure(&m), GroupStructure::Unstructured);
    }

    #[test]
    fn permuted_rectangle_unstructured() {
        let m = Mesh2D::new(4, 4);
        // The nodes of a 2x2 rectangle, but NOT in row-major order.
        let g = ProcGroup::new(vec![0, 4, 1, 5]).unwrap();
        assert_eq!(g.structure(&m), GroupStructure::Unstructured);
    }

    #[test]
    fn singleton_group_is_line() {
        let m = Mesh2D::new(3, 3);
        let g = ProcGroup::new(vec![4]).unwrap();
        assert_eq!(g.structure(&m), GroupStructure::PhysicalLine);
    }

    #[test]
    fn strided_subgroup() {
        let g = ProcGroup::new((0..12).collect()).unwrap();
        let s = g.strided(1, 3, 4);
        assert_eq!(s.members(), &[1, 4, 7, 10]);
    }

    #[test]
    fn rank_of_is_inverse_for_seeded_subsequences() {
        // SplitMix64: seeded, so a failing trial replays.
        let mut state = 0x1994u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for trial in 0..256 {
            // An ordered subset of 0..64: keep each id with a
            // trial-dependent probability, never none.
            let keep = 1 + next() % 31;
            let mut ids: Vec<usize> = (0..64).filter(|_| next() % 64 < keep).collect();
            if ids.is_empty() {
                ids.push((next() % 64) as usize);
            }
            let g = ProcGroup::new(ids.clone()).unwrap();
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(g.rank_of(id), Some(i), "trial {trial}");
            }
        }
    }

    #[test]
    fn every_small_rectangle_is_detected() {
        let m = Mesh2D::new(10, 10);
        for rows in 1..6 {
            for cols in 1..6 {
                for r0 in 0..4 {
                    for c0 in 0..4 {
                        let ids = (r0..r0 + rows)
                            .flat_map(|r| {
                                (c0..c0 + cols).map(move |c| crate::coord::Coord::new(r, c))
                            })
                            .map(|rc| m.id(rc))
                            .collect();
                        let g = ProcGroup::new(ids).unwrap();
                        let expect = if rows == 1 || cols == 1 {
                            GroupStructure::PhysicalLine
                        } else {
                            GroupStructure::Submesh {
                                row0: r0,
                                col0: c0,
                                rows,
                                cols,
                            }
                        };
                        assert_eq!(g.structure(&m), expect, "{rows}x{cols} at ({r0},{c0})");
                    }
                }
            }
        }
    }
}
