//! Topology dispatch for the simulator: the 2-D mesh of the paper's main
//! target (§2) and the hypercube of its iPSC/860 port (§11).

use intercom_topology::{route_xy, Cluster, Hypercube, Mesh2D};
use std::fmt;

/// Which physical network the simulated machine has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetSpec {
    /// A 2-D wormhole mesh with XY routing.
    Mesh(Mesh2D),
    /// A binary hypercube with e-cube routing.
    Hypercube(Hypercube),
    /// A two-level cluster: world rank = global cluster rank, routed
    /// over the cluster's physical mesh embedding with XY routing. The
    /// engine prices each transfer and each link at its level's
    /// parameters ("cluster mode").
    Cluster(Cluster),
}

impl NetSpec {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        match self {
            NetSpec::Mesh(m) => m.nodes(),
            NetSpec::Hypercube(c) => c.nodes(),
            NetSpec::Cluster(c) => c.ranks(),
        }
    }

    /// Size of the dense directed-link slot space.
    pub fn link_slots(&self) -> usize {
        match self {
            NetSpec::Mesh(m) => m.link_slots(),
            NetSpec::Hypercube(c) => c.links(),
            NetSpec::Cluster(c) => c.phys_mesh().link_slots(),
        }
    }

    /// Appends the constraint slots (offset by `base`) of the
    /// deterministic route from `src` to `dst`, returning the hop count.
    pub fn route_slots(&self, src: usize, dst: usize, base: usize, out: &mut Vec<u32>) -> usize {
        let before = out.len();
        match self {
            NetSpec::Mesh(m) => {
                out.extend(route_xy(m, src, dst).map(|l| (base + m.link_slot(l)) as u32));
            }
            NetSpec::Hypercube(c) => {
                out.extend(c.route(src, dst).map(|l| (base + c.link_slot(l)) as u32));
            }
            NetSpec::Cluster(c) => {
                let phys = c.phys_mesh();
                let route = route_xy(&phys, c.phys_node(src), c.phys_node(dst));
                out.extend(route.map(|l| (base + phys.link_slot(l)) as u32));
            }
        }
        out.len() - before
    }
}

impl fmt::Display for NetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetSpec::Mesh(m) => write!(f, "{m}"),
            NetSpec::Hypercube(c) => write!(f, "{c}"),
            NetSpec::Cluster(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_route_slots() {
        let net = NetSpec::Mesh(Mesh2D::new(2, 3));
        let mut out = Vec::new();
        let hops = net.route_slots(0, 5, 12, &mut out);
        assert_eq!(hops, 3); // 2 east + 1 south
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|&s| s >= 12));
    }

    #[test]
    fn cube_route_slots() {
        let net = NetSpec::Hypercube(Hypercube::new(3));
        let mut out = Vec::new();
        let hops = net.route_slots(0, 0b101, 16, &mut out);
        assert_eq!(hops, 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn self_route_is_empty() {
        for net in [
            NetSpec::Mesh(Mesh2D::new(2, 2)),
            NetSpec::Hypercube(Hypercube::new(2)),
        ] {
            let mut out = Vec::new();
            assert_eq!(net.route_slots(1, 1, 8, &mut out), 0);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn sizes_match_topologies() {
        assert_eq!(NetSpec::Mesh(Mesh2D::new(4, 4)).nodes(), 16);
        assert_eq!(NetSpec::Mesh(Mesh2D::new(4, 4)).link_slots(), 64);
        assert_eq!(NetSpec::Hypercube(Hypercube::new(4)).nodes(), 16);
        assert_eq!(NetSpec::Hypercube(Hypercube::new(4)).link_slots(), 64);
    }
}
