//! Cluster-of-meshes topologies: an inter-node mesh of nodes, each
//! holding an intra-node group of ranks.
//!
//! The paper's machine is a flat 2-D mesh with one (α, β) pair. The
//! cluster literature (Task & Chauhan's model for clusters of
//! multi-core machines; Barchet-Estefanel & Mounié's intra-cluster
//! characterization) generalizes this: ranks inside a node talk over
//! cheap near-zero-α shared-memory links, while ranks on different
//! nodes cross an expensive network. A [`Cluster`] captures exactly
//! that structure as *two levels*:
//!
//! * **level 0 (intra)** — the `ranks_per_node` ranks of one node;
//! * **level 1 (inter)** — the nodes themselves, arranged on an
//!   ordinary [`Mesh2D`].
//!
//! Global ranks are numbered node-major: `rank = node · rpn + local`,
//! where `node` is the inter-mesh row-major node id. A rank's node is
//! [`Cluster::node_members`] and the ranks sharing its local slot are
//! [`Cluster::leaders`]; hybrid schedules carve their own lines and
//! planes out of a group (`GroupComm::line` / `plane` in the core crate).
//!
//! The cluster also embeds onto a *physical* mesh so the simulator and
//! the link-conflict analysis run unchanged: node `(r, c)` occupies the
//! column band `rows r·rpn .. (r+1)·rpn` of column `c` on a
//! `(inter_rows · rpn) × inter_cols` mesh. Under XY routing, same-node
//! traffic stays entirely on the node's vertical band (intra links);
//! horizontal links and band-boundary vertical links carry inter-node
//! traffic. [`Cluster::link_level`] classifies every directed link, and
//! [`Cluster::route_levels`] classifies each hop of a route.

use crate::group::ProcGroup;
use crate::mesh::{Direction, LinkId, Mesh2D, NodeId};
use crate::routing::route_xy;
use std::fmt;

/// Which level of the hierarchy a hop (or link) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopLevel {
    /// Inside one node: a cheap intra-node link.
    Intra,
    /// Between nodes: an expensive inter-node link.
    Inter,
}

impl HopLevel {
    /// Dense level index: intra = 0, inter = 1 (matching the per-level
    /// machine-parameter convention).
    pub fn index(&self) -> usize {
        match self {
            HopLevel::Intra => 0,
            HopLevel::Inter => 1,
        }
    }
}

impl fmt::Display for HopLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HopLevel::Intra => write!(f, "intra"),
            HopLevel::Inter => write!(f, "inter"),
        }
    }
}

/// A cluster of meshes: an inter-node [`Mesh2D`] whose every node holds
/// `ranks_per_node` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cluster {
    inter: Mesh2D,
    ranks_per_node: usize,
}

impl Cluster {
    /// A cluster with the given inter-node mesh and per-node rank count.
    /// Panics if `ranks_per_node` is zero.
    pub fn new(inter: Mesh2D, ranks_per_node: usize) -> Self {
        assert!(ranks_per_node > 0, "ranks_per_node must be positive");
        Cluster {
            inter,
            ranks_per_node,
        }
    }

    /// A linear array of `nodes` nodes (a `1 × nodes` inter mesh), each
    /// with `ranks_per_node` ranks — the common small-cluster shape.
    pub fn linear(nodes: usize, ranks_per_node: usize) -> Self {
        Cluster::new(Mesh2D::new(1, nodes), ranks_per_node)
    }

    /// The inter-node mesh.
    pub fn inter(&self) -> Mesh2D {
        self.inter
    }

    /// Ranks per node (the intra-node group size).
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.inter.nodes()
    }

    /// Total ranks, `nodes · ranks_per_node`.
    pub fn ranks(&self) -> usize {
        self.nodes() * self.ranks_per_node
    }

    /// The node holding global rank `r`.
    pub fn node_of(&self, r: usize) -> usize {
        assert!(r < self.ranks(), "rank {r} out of range");
        r / self.ranks_per_node
    }

    /// The local (intra-node) slot of global rank `r`.
    pub fn local_of(&self, r: usize) -> usize {
        assert!(r < self.ranks(), "rank {r} out of range");
        r % self.ranks_per_node
    }

    /// The global rank at (`node`, `local`).
    pub fn rank_of(&self, node: usize, local: usize) -> usize {
        assert!(node < self.nodes(), "node {node} out of range");
        assert!(local < self.ranks_per_node, "local {local} out of range");
        node * self.ranks_per_node + local
    }

    /// Whether two global ranks live on the same node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The whole cluster as a [`ProcGroup`] of *physical* node ids in
    /// global rank order (the group array the collectives run over).
    pub fn group(&self) -> ProcGroup {
        let phys = self.phys_mesh();
        let ids: Vec<NodeId> = (0..self.ranks())
            .map(|r| self.phys_node_at(r, &phys))
            .collect();
        ProcGroup::new(ids).expect("cluster embedding is injective")
    }

    /// Global ranks of one node's intra-node group, local order.
    pub fn node_members(&self, node: usize) -> Vec<usize> {
        assert!(node < self.nodes(), "node {node} out of range");
        let base = node * self.ranks_per_node;
        (base..base + self.ranks_per_node).collect()
    }

    /// Global ranks of the inter-node plane at local slot `local` (one
    /// rank per node, node order) — the leader group for that slot.
    pub fn leaders(&self, local: usize) -> Vec<usize> {
        assert!(local < self.ranks_per_node, "local {local} out of range");
        (0..self.nodes())
            .map(|n| n * self.ranks_per_node + local)
            .collect()
    }

    /// The physical mesh the cluster embeds onto:
    /// `(inter_rows · rpn) × inter_cols`, with node `(r, c)` occupying
    /// the vertical band `rows r·rpn .. (r+1)·rpn` of column `c`.
    pub fn phys_mesh(&self) -> Mesh2D {
        Mesh2D::new(self.inter.rows() * self.ranks_per_node, self.inter.cols())
    }

    /// Physical mesh node of global rank `r`.
    pub fn phys_node(&self, r: usize) -> NodeId {
        self.phys_node_at(r, &self.phys_mesh())
    }

    fn phys_node_at(&self, r: usize, phys: &Mesh2D) -> NodeId {
        let node = self.node_of(r);
        let local = self.local_of(r);
        let nc = self.inter.coord(node);
        phys.id(crate::coord::Coord::new(
            nc.row * self.ranks_per_node + local,
            nc.col,
        ))
    }

    /// Global rank occupying physical mesh node `id` (the inverse of
    /// [`Cluster::phys_node`]).
    pub fn rank_at(&self, id: NodeId) -> usize {
        let phys = self.phys_mesh();
        let c = phys.coord(id);
        let node_row = c.row / self.ranks_per_node;
        let local = c.row % self.ranks_per_node;
        let node = self.inter.id(crate::coord::Coord::new(node_row, c.col));
        self.rank_of(node, local)
    }

    /// Classifies one directed physical link. Horizontal links always
    /// cross node columns (inter); a vertical link is intra iff it stays
    /// inside one node's row band.
    pub fn link_level(&self, l: LinkId) -> HopLevel {
        let phys = self.phys_mesh();
        let row = phys.coord(l.from).row;
        match l.dir {
            Direction::East | Direction::West => HopLevel::Inter,
            Direction::South => {
                if (row + 1).is_multiple_of(self.ranks_per_node) {
                    HopLevel::Inter
                } else {
                    HopLevel::Intra
                }
            }
            Direction::North => {
                if row.is_multiple_of(self.ranks_per_node) {
                    HopLevel::Inter
                } else {
                    HopLevel::Intra
                }
            }
        }
    }

    /// The XY route between two global ranks on the physical embedding,
    /// with each hop classified by level. Same-node routes are entirely
    /// intra; the empty route (`a == b`) touches no links.
    pub fn route_levels(&self, a: usize, b: usize) -> Vec<(LinkId, HopLevel)> {
        let phys = self.phys_mesh();
        route_xy(&phys, self.phys_node(a), self.phys_node(b))
            .map(|l| (l, self.link_level(l)))
            .collect()
    }

    /// Number of inter-node hops on the XY route between two ranks —
    /// zero exactly when the ranks share a node.
    pub fn inter_hops(&self, a: usize, b: usize) -> usize {
        self.route_levels(a, b)
            .iter()
            .filter(|(_, lvl)| *lvl == HopLevel::Inter)
            .count()
    }

    /// The hierarchy descriptor `rows x cols x rpn` the plan cache keys
    /// on (e.g. `"1x4x2"`).
    pub fn descriptor(&self) -> String {
        format!(
            "{}x{}x{}",
            self.inter.rows(),
            self.inter.cols(),
            self.ranks_per_node
        )
    }
}

impl fmt::Display for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} cluster of {} ranks/node",
            self.inter.rows(),
            self.inter.cols(),
            self.ranks_per_node
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_mapping_roundtrip() {
        let c = Cluster::new(Mesh2D::new(2, 3), 4);
        assert_eq!(c.nodes(), 6);
        assert_eq!(c.ranks(), 24);
        for r in 0..c.ranks() {
            assert_eq!(c.rank_of(c.node_of(r), c.local_of(r)), r);
            assert_eq!(c.rank_at(c.phys_node(r)), r);
        }
    }

    #[test]
    fn node_members_and_leaders_partition_ranks() {
        let c = Cluster::linear(3, 4);
        let mut seen = vec![0usize; c.ranks()];
        for n in 0..c.nodes() {
            for r in c.node_members(n) {
                assert_eq!(c.node_of(r), n);
                seen[r] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
        let mut seen = vec![0usize; c.ranks()];
        for l in 0..c.ranks_per_node() {
            for r in c.leaders(l) {
                assert_eq!(c.local_of(r), l);
                seen[r] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn same_node_routes_are_intra_only() {
        let c = Cluster::new(Mesh2D::new(2, 3), 4);
        for n in 0..c.nodes() {
            let members = c.node_members(n);
            for &a in &members {
                for &b in &members {
                    let route = c.route_levels(a, b);
                    assert!(route.iter().all(|(_, lvl)| *lvl == HopLevel::Intra));
                    assert_eq!(c.inter_hops(a, b), 0);
                    assert_eq!(route.len(), c.local_of(a).abs_diff(c.local_of(b)));
                }
            }
        }
    }

    #[test]
    fn linear_cluster_leader_routes_are_inter_only() {
        // On a 1-row inter mesh, leaders sit in one physical row; their
        // XY routes are purely horizontal, i.e. purely inter-level.
        let c = Cluster::linear(4, 3);
        for l in 0..c.ranks_per_node() {
            let leaders = c.leaders(l);
            for &a in &leaders {
                for &b in &leaders {
                    if a == b {
                        continue;
                    }
                    let route = c.route_levels(a, b);
                    assert!(!route.is_empty());
                    assert!(route.iter().all(|(_, lvl)| *lvl == HopLevel::Inter));
                }
            }
        }
    }

    #[test]
    fn cross_node_route_mixes_levels() {
        // Rank (node 0, local 2) -> (node 1, local 0) on a linear
        // cluster: one horizontal inter hop plus two vertical intra hops.
        let c = Cluster::linear(2, 3);
        let a = c.rank_of(0, 2);
        let b = c.rank_of(1, 0);
        assert!(!c.same_node(a, b));
        assert_eq!(c.inter_hops(a, b), 1);
        let route = c.route_levels(a, b);
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn link_census_on_linear_cluster() {
        // phys mesh rpn x nodes: all vertical links intra, all
        // horizontal links inter.
        let c = Cluster::linear(4, 3);
        let phys = c.phys_mesh();
        let (mut intra, mut inter) = (0, 0);
        for l in phys.links() {
            match c.link_level(l) {
                HopLevel::Intra => intra += 1,
                HopLevel::Inter => inter += 1,
            }
        }
        assert_eq!(intra, 2 * 4 * 2); // 2 dirs x 4 cols x (rpn-1) rows
        assert_eq!(inter, 2 * 3 * 3); // 2 dirs x (nodes-1) x rpn rows
    }

    #[test]
    fn band_boundary_vertical_links_are_inter() {
        // 2-row inter mesh: the vertical link crossing from one node
        // band into the next is inter-level.
        let c = Cluster::new(Mesh2D::new(2, 1), 2);
        let phys = c.phys_mesh(); // 4 x 1
        let boundary = LinkId {
            from: phys.id(crate::coord::Coord::new(1, 0)),
            dir: Direction::South,
        };
        assert_eq!(c.link_level(boundary), HopLevel::Inter);
        let inside = LinkId {
            from: phys.id(crate::coord::Coord::new(0, 0)),
            dir: Direction::South,
        };
        assert_eq!(c.link_level(inside), HopLevel::Intra);
    }

    #[test]
    fn descriptor_and_display() {
        let c = Cluster::new(Mesh2D::new(2, 3), 4);
        assert_eq!(c.descriptor(), "2x3x4");
        assert_eq!(format!("{c}"), "2x3 cluster of 4 ranks/node");
        assert_eq!(HopLevel::Intra.index(), 0);
        assert_eq!(HopLevel::Inter.index(), 1);
    }

    #[test]
    fn degenerate_single_node_cluster() {
        let c = Cluster::linear(1, 4);
        assert_eq!(c.ranks(), 4);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(c.inter_hops(a, b), 0);
            }
        }
    }
}
