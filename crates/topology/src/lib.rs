//! # intercom-topology
//!
//! Topology substrate for the InterCom reproduction: two-dimensional
//! wormhole-routed meshes, XY dimension-ordered routing, linear-array and
//! ring embeddings, integer factorizations (for logical-mesh hybrid
//! strategies), and process groups with physical-structure detection.
//!
//! The paper's target architecture (§2) is a 2-D physical mesh with
//! bidirectional links and worm-hole (cut-through) routing, on which a
//! linear array of nodes can be treated as a unidirectional ring without
//! link conflicts. This crate provides exactly those abstractions:
//!
//! * [`Mesh2D`] — the physical machine: `rows × cols` nodes, node-id ↔
//!   coordinate mapping, link enumeration.
//! * [`routing`] — XY dimension-ordered wormhole routes as sequences of
//!   directed links, used by the simulator's contention model.
//! * [`factor`] — ordered factorizations `p = d1 × … × dk`, the search
//!   space of logical meshes for hybrid algorithms (§6).
//! * [`ProcGroup`] — a list of physical node ids with a logical rank order;
//!   [`GroupStructure`] detection (§9) distinguishes rectangular submeshes
//!   (row/column techniques apply) from unstructured groups (treated as
//!   linear arrays).
//!
//! A hybrid's logical `d1 × … × dk` view of a group is not built here:
//! the core crate carves its lines and planes (`GroupComm::line` /
//! `plane`) from the factorization.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod coord;
pub mod factor;
pub mod group;
pub mod hypercube;
pub mod mesh;
pub mod routing;

pub use cluster::{Cluster, HopLevel};
pub use coord::Coord;
pub use factor::{divisors, factorizations, prime_factors};
pub use group::{GroupStructure, ProcGroup};
pub use hypercube::{CubeLink, Hypercube};
pub use mesh::{Direction, LinkId, Mesh2D, NodeId};
pub use routing::{route_xy, RouteStep};
