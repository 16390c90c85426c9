//! # intercom-meshsim — discrete-event wormhole-mesh simulator
//!
//! The paper's evaluation platform — a 512-node Intel Paragon — realized
//! as a simulator implementing the §2 machine model: two-dimensional
//! mesh, XY worm-hole routing, per-message cost `α + nβ`, single-port
//! full-duplex nodes, max-min-fair bandwidth sharing on contended
//! directed links (with the §7.1 link-excess refinement), `γ` per
//! combined byte and `δ` per short-vector recursion level.
//!
//! Rank code executes *for real* (direct-execution simulation): each rank
//! is a thread running actual library collectives over a [`SimComm`];
//! every blocking operation rendezvouses with the central [`engine`],
//! which advances virtual clocks. Results are therefore bit-identical to
//! the threaded backend, while elapsed time reflects the Paragon model —
//! the substitution that lets this reproduction regenerate the paper's
//! Table 3 and Fig. 4 without the original hardware.
//!
//! ```
//! use intercom_meshsim::{simulate, SimConfig};
//! use intercom_topology::Mesh2D;
//! use intercom_cost::MachineParams;
//! use intercom::{Comm, Communicator};
//!
//! let cfg = SimConfig::new(Mesh2D::new(2, 4), MachineParams::PARAGON);
//! let report = simulate(&cfg, |comm| {
//!     let cc = Communicator::world(comm, MachineParams::PARAGON);
//!     let mut v = vec![comm.rank() as u8; 64];
//!     if comm.rank() != 0 { v.fill(0); }
//!     cc.bcast(0, &mut v).unwrap();
//!     v[0]
//! });
//! assert!(report.results.iter().all(|&x| x == 0));
//! assert!(report.elapsed > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod comm;
mod engine;
pub mod fluid;
pub mod net;
pub mod sim;
pub mod stats;

pub use comm::SimComm;
pub use net::NetSpec;
pub use sim::{simulate, SimConfig, SimReport};
pub use stats::{LinkConcurrency, LinkLoad};
// The trace schema moved to the unified observability layer; the
// simulator emits `intercom_obs::TraceEvent`s (one per transfer) and
// the old names remain available from here.
pub use intercom_obs::TraceEvent as TransferRecord;
pub use intercom_obs::{Trace, TraceEvent};
