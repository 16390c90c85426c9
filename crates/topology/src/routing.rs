//! XY dimension-ordered wormhole routing.
//!
//! The Paragon and Delta route messages first along the row (X / east-west)
//! to the destination column, then along the column (Y / north-south) to
//! the destination row. Because the full route is claimed link-by-link
//! (cut-through), the simulator models a message as simultaneously
//! occupying every directed link of its route; two messages whose routes
//! share a directed link share that link's bandwidth (§2).

use crate::mesh::{Direction, LinkId, Mesh2D, NodeId};

/// One hop of a route: the directed link traversed.
pub type RouteStep = LinkId;

/// The XY dimension-ordered route from `src` to `dst`: the directed
/// links traversed, in order, produced as they are walked (nothing is
/// allocated). The route for `src == dst` is empty (a node-local
/// transfer touches no links).
pub fn route_xy(mesh: &Mesh2D, src: NodeId, dst: NodeId) -> impl Iterator<Item = RouteStep> + '_ {
    let a = mesh.coord(src);
    let b = mesh.coord(dst);
    // X leg: fix the column first. Y leg: then fix the row.
    let xdir = if b.col > a.col {
        Direction::East
    } else {
        Direction::West
    };
    let ydir = if b.row > a.row {
        Direction::South
    } else {
        Direction::North
    };
    let legs = [(xdir, a.col.abs_diff(b.col)), (ydir, a.row.abs_diff(b.row))];
    let mut cur = src;
    legs.into_iter()
        .flat_map(|(dir, hops)| std::iter::repeat_n(dir, hops))
        .map(move |dir| {
            let step = LinkId { from: cur, dir };
            cur = mesh
                .neighbor(cur, dir)
                .expect("XY route stepped off the mesh");
            step
        })
}

/// Returns the node reached by following `route` from `src`; used in tests
/// and assertions to validate route integrity.
pub fn follow(mesh: &Mesh2D, src: NodeId, route: &[RouteStep]) -> Option<NodeId> {
    let mut cur = src;
    for step in route {
        if step.from != cur {
            return None;
        }
        cur = mesh.neighbor(cur, step.dir)?;
    }
    Some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(mesh: &Mesh2D, src: NodeId, dst: NodeId) -> Vec<RouteStep> {
        route_xy(mesh, src, dst).collect()
    }

    #[test]
    fn self_route_is_empty() {
        let m = Mesh2D::new(4, 4);
        assert!(route(&m, 5, 5).is_empty());
    }

    #[test]
    fn route_length_is_manhattan() {
        let m = Mesh2D::new(7, 9);
        for s in 0..m.nodes() {
            for d in 0..m.nodes() {
                let r = route(&m, s, d);
                assert_eq!(r.len(), m.coord(s).manhattan(&m.coord(d)));
            }
        }
    }

    #[test]
    fn x_before_y() {
        let m = Mesh2D::new(5, 5);
        // (0,0) -> (2,3): expect 3 east hops then 2 south hops.
        let r = route(&m, 0, m.id(crate::coord::Coord::new(2, 3)));
        assert_eq!(
            r.iter().map(|s| s.dir).collect::<Vec<_>>(),
            vec![
                Direction::East,
                Direction::East,
                Direction::East,
                Direction::South,
                Direction::South
            ]
        );
    }

    #[test]
    fn neighbor_routes_single_hop() {
        let m = Mesh2D::new(3, 3);
        let r = route(&m, 4, 5);
        assert_eq!(
            r,
            vec![LinkId {
                from: 4,
                dir: Direction::East
            }]
        );
    }

    #[test]
    fn ring_of_row_neighbors_shares_no_links() {
        // All "send right" messages in a row are pairwise link-disjoint —
        // the property that makes ring primitives conflict-free (§4).
        let m = Mesh2D::new(1, 8);
        let mut seen = std::collections::HashSet::new();
        for i in 0..7 {
            for l in route_xy(&m, i, i + 1) {
                assert!(seen.insert(l), "link {l} reused");
            }
        }
        // The wrap-around message 7 -> 0 travels west over distinct
        // (west-directed) links, so even the wrapped ring is conflict-free.
        for l in route_xy(&m, 7, 0) {
            assert!(seen.insert(l), "wrap link {l} reused");
        }
    }

    #[test]
    fn every_route_on_small_meshes_arrives_minimally_without_repeats() {
        // All source/destination pairs of every mesh up to 11x11.
        for rows in 1..12 {
            for cols in 1..12 {
                let m = Mesh2D::new(rows, cols);
                for src in 0..m.nodes() {
                    for dst in 0..m.nodes() {
                        let r = route(&m, src, dst);
                        assert_eq!(follow(&m, src, &r), Some(dst), "{rows}x{cols} {src}->{dst}");
                        assert_eq!(
                            r.len(),
                            m.coord(src).manhattan(&m.coord(dst)),
                            "{rows}x{cols} {src}->{dst}"
                        );
                        let distinct: std::collections::HashSet<_> = r.iter().collect();
                        assert_eq!(distinct.len(), r.len(), "{rows}x{cols} {src}->{dst}");
                    }
                }
            }
        }
    }
}
