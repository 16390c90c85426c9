//! Automatic algorithm selection.
//!
//! The paper refines its techniques "to the point where very good hybrids
//! can be obtained as long as good short and long vector primitives are
//! provided as well as an accurate model for their expense as a function
//! of message length and number of interleaving subgroups" (§7.1). The
//! selector does exactly that: given the collective, the group's physical
//! shape, the message length and the machine parameters, it returns the
//! enumerable strategy whose closed-form cost is lowest — looked up in
//! the cost model's lower envelope for that shape
//! ([`intercom_cost::select::Envelope`]), which is built once per process.

use intercom_cost::select::best_mesh_strategy;
use intercom_cost::{
    best_strategy, ClusterShape, CollectiveOp, CostContext, MachineParams, Strategy,
};
use intercom_topology::{GroupStructure, Mesh2D, ProcGroup};

/// The physical shape the selector assumes for a group (paper §9: "in
/// cases where a group comprises a physical rectangular submesh, the same
/// row- and column-based techniques are used as in the whole-mesh
/// operations. When a group is unstructured … it is treated as though it
/// were a linear array").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupShape {
    /// A linear array (physical line or unstructured group) of `p` nodes.
    Linear(usize),
    /// A rectangular physical submesh: stages run within dedicated
    /// physical rows and columns.
    Mesh {
        /// Submesh height.
        rows: usize,
        /// Submesh width.
        cols: usize,
    },
    /// A two-level cluster: an inter-node mesh of nodes, each holding
    /// `ranks_per_node` ranks, numbered node-major. Hierarchical
    /// selection applies when the communicator also carries per-level
    /// machine parameters; flat selection treats the group as a linear
    /// array priced at the network level.
    Cluster {
        /// Rows of the inter-node mesh.
        inter_rows: usize,
        /// Columns of the inter-node mesh.
        inter_cols: usize,
        /// Ranks per node.
        ranks_per_node: usize,
    },
}

impl GroupShape {
    /// Number of ranks covered.
    pub fn nodes(&self) -> usize {
        match *self {
            GroupShape::Linear(p) => p,
            GroupShape::Mesh { rows, cols } => rows * cols,
            GroupShape::Cluster {
                inter_rows,
                inter_cols,
                ranks_per_node,
            } => inter_rows * inter_cols * ranks_per_node,
        }
    }

    /// The cluster variant for a hierarchy descriptor.
    pub fn cluster(shape: ClusterShape) -> GroupShape {
        GroupShape::Cluster {
            inter_rows: shape.inter_rows,
            inter_cols: shape.inter_cols,
            ranks_per_node: shape.ranks_per_node,
        }
    }

    /// The hierarchy descriptor, when this shape is a cluster.
    pub fn cluster_shape(&self) -> Option<ClusterShape> {
        match *self {
            GroupShape::Cluster {
                inter_rows,
                inter_cols,
                ranks_per_node,
            } => Some(ClusterShape {
                inter_rows,
                inter_cols,
                ranks_per_node,
            }),
            _ => None,
        }
    }

    /// Classifies `group` on `mesh` per §9's structure extraction.
    pub fn detect(group: &ProcGroup, mesh: &Mesh2D) -> GroupShape {
        match group.structure(mesh) {
            GroupStructure::Submesh { rows, cols, .. } => GroupShape::Mesh { rows, cols },
            GroupStructure::PhysicalLine | GroupStructure::Unstructured => {
                GroupShape::Linear(group.len())
            }
        }
    }
}

/// Picks the cheapest strategy for `op` over a group of `shape` at
/// message length `n_bytes` on `machine`.
pub fn choose_strategy(
    op: CollectiveOp,
    shape: GroupShape,
    n_bytes: usize,
    machine: &MachineParams,
) -> Strategy {
    match shape {
        GroupShape::Linear(p) => {
            best_strategy(op, p, n_bytes, machine, CostContext::linear_with(machine))
        }
        GroupShape::Mesh { rows, cols } => best_mesh_strategy(op, rows, cols, n_bytes, machine),
        // Flat selection over a cluster: the schedule is level-blind,
        // so the group is a linear array of all ranks priced at the
        // supplied (network-level) parameters. Hierarchical candidates
        // are priced separately by `intercom_cost::choose_hier`.
        GroupShape::Cluster { .. } => best_strategy(
            op,
            shape.nodes(),
            n_bytes,
            machine,
            CostContext::linear_with(machine),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom_cost::StrategyKind;

    #[test]
    fn detect_shapes() {
        let mesh = Mesh2D::new(4, 6);
        assert_eq!(
            GroupShape::detect(&ProcGroup::whole_mesh(&mesh), &mesh),
            GroupShape::Mesh { rows: 4, cols: 6 }
        );
        assert_eq!(
            GroupShape::detect(&ProcGroup::mesh_row(&mesh, 1), &mesh),
            GroupShape::Linear(6)
        );
        let scattered = ProcGroup::new(vec![0, 7, 14, 21]).unwrap();
        assert_eq!(GroupShape::detect(&scattered, &mesh), GroupShape::Linear(4));
    }

    #[test]
    fn short_messages_choose_mst_kind() {
        let s = choose_strategy(
            CollectiveOp::Broadcast,
            GroupShape::Linear(32),
            8,
            &MachineParams::PARAGON,
        );
        assert_eq!(s.kind, StrategyKind::Mst);
    }

    #[test]
    fn long_messages_choose_long_kind() {
        let s = choose_strategy(
            CollectiveOp::Broadcast,
            GroupShape::Linear(32),
            1 << 20,
            &MachineParams::PARAGON,
        );
        assert_eq!(s.kind, StrategyKind::ScatterCollect);
    }

    #[test]
    fn mesh_selection_covers_all_nodes() {
        for n in [8, 1024, 1 << 20] {
            let s = choose_strategy(
                CollectiveOp::CombineToAll,
                GroupShape::Mesh { rows: 16, cols: 32 },
                n,
                &MachineParams::PARAGON,
            );
            assert_eq!(s.nodes(), 512, "n={n}");
        }
    }

    #[test]
    fn cluster_shape_round_trips_and_prices_flat_over_all_ranks() {
        let shape = GroupShape::cluster(ClusterShape::linear(4, 4));
        assert_eq!(shape.nodes(), 16);
        assert_eq!(
            shape.cluster_shape(),
            Some(ClusterShape {
                inter_rows: 1,
                inter_cols: 4,
                ranks_per_node: 4,
            })
        );
        assert_eq!(GroupShape::Linear(16).cluster_shape(), None);
        // Flat selection over a cluster is level-blind: same answer as a
        // 16-rank linear array at the same (network-level) parameters.
        for n in [8usize, 1 << 20] {
            let on_cluster =
                choose_strategy(CollectiveOp::Broadcast, shape, n, &MachineParams::PARAGON);
            let on_line = choose_strategy(
                CollectiveOp::Broadcast,
                GroupShape::Linear(16),
                n,
                &MachineParams::PARAGON,
            );
            assert_eq!(on_cluster, on_line, "n={n}");
        }
    }

    #[test]
    fn singleton_group() {
        let s = choose_strategy(
            CollectiveOp::Collect,
            GroupShape::Linear(1),
            64,
            &MachineParams::PARAGON,
        );
        assert_eq!(s.nodes(), 1);
    }
}
