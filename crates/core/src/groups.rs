//! Mesh-aware group construction helpers (paper §9).
//!
//! "Many applications require parallel implementations formulated in
//! terms of computation and communication within node groups (e.g. rows
//! and columns of a logical mesh)." These helpers build the common group
//! communicators — my physical row, my physical column, an arbitrary
//! rectangular submesh — with the physical structure already extracted
//! so the §7.1 row/column techniques apply automatically.

use crate::comm::Comm;
use crate::communicator::Communicator;
use crate::error::Result;
use intercom_cost::MachineParams;
use intercom_topology::{Coord, Mesh2D};

/// Node ids of physical row `r`, west→east — the logical order
/// [`MeshWorld::my_row`] uses. Comm-free so embedding-consumers (the
/// multi-program verifier, workload generators) can build the same
/// rank→node maps a live group communicator would induce.
pub fn row_members(mesh: &Mesh2D, r: usize) -> Vec<usize> {
    mesh.row_nodes(r)
}

/// Node ids of physical column `c`, north→south — the logical order
/// [`MeshWorld::my_col`] uses.
pub fn col_members(mesh: &Mesh2D, c: usize) -> Vec<usize> {
    mesh.col_nodes(c)
}

/// Node ids of the rectangular submesh with corner `(row0, col0)` and
/// extent `rows × cols`, row-major — the logical order
/// [`MeshWorld::submesh`] uses. Panics if the rectangle leaves the mesh.
pub fn submesh_members(
    mesh: &Mesh2D,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
) -> Vec<usize> {
    assert!(
        row0 + rows <= mesh.rows() && col0 + cols <= mesh.cols(),
        "submesh {rows}x{cols} at ({row0},{col0}) leaves the {}x{} mesh",
        mesh.rows(),
        mesh.cols(),
    );
    let mut members = Vec::with_capacity(rows * cols);
    for r in row0..row0 + rows {
        for c in col0..col0 + cols {
            members.push(mesh.id(Coord::new(r, c)));
        }
    }
    members
}

/// A world laid out as a physical 2-D mesh, row-major: node id
/// `= row · cols + col`. Factory for whole-mesh, row, column and submesh
/// communicators.
pub struct MeshWorld<'a, C: Comm + ?Sized> {
    comm: &'a C,
    mesh: Mesh2D,
    machine: MachineParams,
}

impl<'a, C: Comm + ?Sized> MeshWorld<'a, C> {
    /// Binds `comm` to `mesh`; the world size must match.
    pub fn new(comm: &'a C, mesh: Mesh2D, machine: MachineParams) -> Result<Self> {
        if comm.size() != mesh.nodes() {
            return Err(crate::error::CommError::BadBufferSize {
                expected: mesh.nodes(),
                actual: comm.size(),
            });
        }
        Ok(MeshWorld {
            comm,
            mesh,
            machine,
        })
    }

    /// The mesh geometry.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }

    /// My physical coordinates.
    pub fn my_coord(&self) -> Coord {
        self.mesh.coord(self.comm.rank())
    }

    /// Whole-mesh communicator with row/column staging enabled.
    pub fn world(&self) -> Result<Communicator<'a, C>> {
        Communicator::world_on_mesh(self.comm, self.machine, self.mesh)
    }

    /// Communicator over my physical row (west→east logical order).
    pub fn my_row(&self) -> Result<Communicator<'a, C>> {
        let r = self.my_coord().row;
        Communicator::from_group(
            self.comm,
            self.machine,
            self.mesh.row_nodes(r),
            Some(&self.mesh),
        )
    }

    /// Communicator over my physical column (north→south logical order).
    pub fn my_col(&self) -> Result<Communicator<'a, C>> {
        let c = self.my_coord().col;
        Communicator::from_group(
            self.comm,
            self.machine,
            self.mesh.col_nodes(c),
            Some(&self.mesh),
        )
    }

    /// Communicator over the rectangular submesh with corner
    /// `(row0, col0)` and extent `rows × cols`, row-major logical order.
    /// The calling node must be inside the rectangle.
    pub fn submesh(
        &self,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> Result<Communicator<'a, C>> {
        let members = submesh_members(&self.mesh, row0, col0, rows, cols);
        Communicator::from_group(self.comm, self.machine, members, Some(&self.mesh))
    }

    /// Communicator over an arbitrary member list; structure is detected
    /// automatically (§9).
    pub fn group(&self, members: Vec<usize>) -> Result<Communicator<'a, C>> {
        Communicator::from_group(self.comm, self.machine, members, Some(&self.mesh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;
    use crate::GroupShape;

    #[test]
    fn one_node_mesh_world() {
        let c = SelfComm;
        let mw = MeshWorld::new(&c, Mesh2D::new(1, 1), MachineParams::PARAGON).unwrap();
        assert_eq!(mw.my_coord(), Coord::new(0, 0));
        let w = mw.world().unwrap();
        assert_eq!(w.shape(), GroupShape::Mesh { rows: 1, cols: 1 });
        let row = mw.my_row().unwrap();
        assert_eq!(row.size(), 1);
        let col = mw.my_col().unwrap();
        assert_eq!(col.size(), 1);
        let sub = mw.submesh(0, 0, 1, 1).unwrap();
        assert_eq!(sub.size(), 1);
    }

    #[test]
    fn size_mismatch_rejected() {
        let c = SelfComm;
        assert!(MeshWorld::new(&c, Mesh2D::new(2, 3), MachineParams::PARAGON).is_err());
    }

    #[test]
    fn group_requires_membership() {
        let c = SelfComm;
        let mw = MeshWorld::new(&c, Mesh2D::new(1, 1), MachineParams::PARAGON).unwrap();
        assert!(mw.group(vec![0]).is_ok());
    }

    #[test]
    fn row_and_col_members_on_3x3() {
        let m = Mesh2D::new(3, 3);
        assert_eq!(row_members(&m, 0), [0, 1, 2]);
        assert_eq!(row_members(&m, 2), [6, 7, 8]);
        assert_eq!(col_members(&m, 0), [0, 3, 6]);
        assert_eq!(col_members(&m, 2), [2, 5, 8]);
    }

    #[test]
    fn submesh_members_on_4x4() {
        let m = Mesh2D::new(4, 4);
        // Interior 2x2 block at (1,1): row-major logical order.
        assert_eq!(submesh_members(&m, 1, 1, 2, 2), [5, 6, 9, 10]);
        // Full mesh is the identity embedding.
        assert_eq!(submesh_members(&m, 0, 0, 4, 4), (0..16).collect::<Vec<_>>());
        // A row / a column are the row_members / col_members embeddings.
        assert_eq!(submesh_members(&m, 2, 0, 1, 4), row_members(&m, 2));
        assert_eq!(submesh_members(&m, 0, 3, 4, 1), col_members(&m, 3));
    }

    #[test]
    fn degenerate_1xp_submeshes() {
        let m = Mesh2D::new(1, 5);
        assert_eq!(row_members(&m, 0), [0, 1, 2, 3, 4]);
        assert_eq!(col_members(&m, 3), [3]);
        assert_eq!(submesh_members(&m, 0, 1, 1, 3), [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "leaves the")]
    fn submesh_out_of_bounds_panics() {
        submesh_members(&Mesh2D::new(3, 3), 2, 2, 2, 2);
    }
}
