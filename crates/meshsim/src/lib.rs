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
//! runs actual library collectives over a [`SimComm`] on a worker thread
//! — one per rank, owned by the thread that called [`simulate`] and kept
//! parked between its worlds — and every blocking operation rendezvouses
//! with the central engine (`engine.rs`), which advances virtual clocks. Results
//! are therefore bit-identical to the threaded backend, while elapsed
//! time reflects the Paragon model — the substitution that lets this
//! reproduction regenerate the paper's Table 3 and Fig. 4 without the
//! original hardware.
//!
//! A collective call is one hand-off. [`SimComm`] routes its
//! `Communicator` calls through programs (`Comm::runs_programs`) and
//! runs programs its own way (`Comm::run_program`): a call or a
//! persistent plan runs the data steps before its first transfer or
//! clock step and after its last one on the rank's thread and hands the
//! engine the rest of its plain compiled program — the direct path's op
//! stream, step for step — in one request. The engine walks it with a
//! per-rank cursor: copies and folds at once, γ and δ on the rank's
//! clock, transfers through the same matching as a closure's `send` /
//! `recv`, and one reply at the end. Virtual time is the direct path's
//! bit for bit; what the host saves is a rank-thread round trip per
//! message.
//!
//! A payload is never handed to the engine: a blocking call lends it a
//! *borrowed window* onto the caller's own buffer, and the engine copies
//! sender → receiver once, when the transfer completes. The invariant
//! (`window.rs`, docs/SIMULATOR.md): *a window is dereferenced only by
//! the engine, only between match and completion, and a rank's blocking
//! call returns only after the engine has replied or is gone.* A program
//! is lent the same way, and its transfers' windows are derived from it
//! while its rank is blocked. A timeout on the reply wait, or a copy off
//! the engine thread, would break it.
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

// The crate's `unsafe` inventory, kept to two files (`ci.sh` checks the
// list): the window dereferences (payloads and programs), and in
// `sim.rs` the lifetime erasures of `Jobs::erased` and of the helper's
// hand-off (`Helper::join`).
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod comm;
mod engine;
pub mod fluid;
pub mod net;
pub mod sim;
pub mod stats;
#[allow(unsafe_code)]
mod window;

pub use comm::SimComm;
pub use net::NetSpec;
pub use sim::{simulate, SimConfig, SimReport};
pub use stats::LinkConcurrency;
// The simulator emits `intercom_obs::TraceEvent`s, one per transfer.
pub use intercom_obs::{Trace, TraceEvent};
