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
    best_strategy, choose_hier, flat_on_cluster_cost, hier_cost, hybrid_cost, ClusterShape,
    CollectiveOp, CostContext, HierChoice, HierMachine,
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
    /// the same number of ranks, numbered node-major. Hierarchical
    /// hybrids compete with the level-blind strategies of a linear
    /// array of all ranks priced at the network level.
    Cluster(ClusterShape),
}

impl GroupShape {
    /// Number of ranks covered.
    pub fn nodes(&self) -> usize {
        match *self {
            GroupShape::Linear(p) => p,
            GroupShape::Mesh { rows, cols } => rows * cols,
            GroupShape::Cluster(shape) => shape.ranks(),
        }
    }

    /// The hierarchy descriptor, when this shape is a cluster.
    pub fn cluster_shape(&self) -> Option<ClusterShape> {
        match *self {
            GroupShape::Cluster(shape) => Some(shape),
            _ => None,
        }
    }

    /// What a level-blind schedule sees of the group: a cluster is a
    /// linear array of all its ranks, every other shape is itself.
    pub fn level_blind(self) -> GroupShape {
        match self {
            GroupShape::Cluster(shape) => GroupShape::Linear(shape.ranks()),
            flat => flat,
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

/// Picks what runs for `op` over a group of `shape` at message length
/// `n_bytes` on `machine`: the cheapest strategy of a line or a mesh at
/// the machine's network level (all a flat machine has), or on a
/// cluster the cheaper of the best hierarchical hybrid under the
/// per-level parameters and the best level-blind strategy. Everything
/// that selects — [`Algo::Auto`](crate::Algo::Auto), the plans, the
/// tuner's re-selection — selects through here.
pub fn choose(
    op: CollectiveOp,
    shape: GroupShape,
    n_bytes: usize,
    machine: &HierMachine,
) -> HierChoice {
    let net = machine.inter();
    match shape {
        GroupShape::Linear(p) => HierChoice::Flat(best_strategy(
            op,
            p,
            n_bytes,
            net,
            CostContext::linear_with(net),
        )),
        GroupShape::Mesh { rows, cols } => {
            HierChoice::Flat(best_mesh_strategy(op, rows, cols, n_bytes, net))
        }
        GroupShape::Cluster(cluster) => choose_hier(op, cluster, n_bytes, machine),
    }
}

/// Predicted seconds of `choice` for `op` over `shape` at `n_bytes` on
/// `machine`, under the model [`choose`] compared it by.
pub fn price(
    op: CollectiveOp,
    shape: GroupShape,
    choice: &HierChoice,
    n_bytes: usize,
    machine: &HierMachine,
) -> f64 {
    let net = machine.inter();
    match (choice, shape) {
        (HierChoice::Hier(h), _) => hier_cost(op, h, n_bytes, machine),
        (HierChoice::Flat(s), GroupShape::Mesh { .. }) => {
            hybrid_cost(op, s, CostContext::mesh_with(net)).eval(n_bytes, net)
        }
        // A level-blind strategy on a line or a cluster: linear-array
        // conflicts at the network level.
        (HierChoice::Flat(s), _) => flat_on_cluster_cost(op, s, n_bytes, machine),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom_cost::{MachineParams, Strategy, StrategyKind};

    fn flat(op: CollectiveOp, shape: GroupShape, n: usize) -> Strategy {
        match choose(op, shape, n, &HierMachine::flat(MachineParams::PARAGON)) {
            HierChoice::Flat(s) => s,
            HierChoice::Hier(h) => panic!("{shape:?} selected the hybrid {h}"),
        }
    }

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
        let s = flat(CollectiveOp::Broadcast, GroupShape::Linear(32), 8);
        assert_eq!(s.kind, StrategyKind::Mst);
    }

    #[test]
    fn long_messages_choose_long_kind() {
        let s = flat(CollectiveOp::Broadcast, GroupShape::Linear(32), 1 << 20);
        assert_eq!(s.kind, StrategyKind::ScatterCollect);
    }

    #[test]
    fn mesh_selection_covers_all_nodes() {
        for n in [8, 1024, 1 << 20] {
            let shape = GroupShape::Mesh { rows: 16, cols: 32 };
            assert_eq!(flat(CollectiveOp::CombineToAll, shape, n).nodes(), 512);
        }
    }

    #[test]
    fn a_cluster_is_level_blind_as_a_line_of_all_its_ranks() {
        let cluster = ClusterShape::linear(4, 4);
        let shape = GroupShape::Cluster(cluster);
        assert_eq!(shape.nodes(), 16);
        assert_eq!(shape.cluster_shape(), Some(cluster));
        assert_eq!(GroupShape::Linear(16).cluster_shape(), None);
        assert_eq!(shape.level_blind(), GroupShape::Linear(16));
        let mesh = GroupShape::Mesh { rows: 2, cols: 8 };
        assert_eq!(mesh.level_blind(), mesh);
    }

    #[test]
    fn one_function_selects_and_one_prices_for_every_shape() {
        let machine = HierMachine::paragon_cluster();
        let cluster = ClusterShape {
            inter_rows: 2,
            inter_cols: 2,
            ranks_per_node: 4,
        };
        let (op, n) = (CollectiveOp::CombineToAll, 1 << 16);
        // On a cluster the hybrid and the level-blind line compete, and
        // `price` is the number they were compared by.
        let shape = GroupShape::Cluster(cluster);
        let picked = choose(op, shape, n, &machine);
        assert_eq!(picked, choose_hier(op, cluster, n, &machine));
        assert!(matches!(picked, HierChoice::Hier(_)));
        let blind = choose(op, shape.level_blind(), n, &machine);
        assert!(matches!(blind, HierChoice::Flat(_)));
        assert!(price(op, shape, &picked, n, &machine) < price(op, shape, &blind, n, &machine));
        // A flat machine is the one-level ladder of the same call.
        let net = *machine.inter();
        let line = GroupShape::Linear(16);
        assert_eq!(
            choose(op, line, n, &HierMachine::flat(net)),
            HierChoice::Flat(best_strategy(
                op,
                16,
                n,
                &net,
                CostContext::linear_with(&net)
            ))
        );
    }

    #[test]
    fn singleton_group() {
        let s = flat(CollectiveOp::Collect, GroupShape::Linear(1), 64);
        assert_eq!(s.nodes(), 1);
    }
}
