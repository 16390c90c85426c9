//! # intercom-runtime — threaded message-passing backend
//!
//! A real (non-simulated) backend for the InterCom library: every rank is
//! an OS thread, point-to-point messages travel through one lock-free
//! single-producer/single-consumer mailbox per ordered pair of ranks,
//! a receive polls for a bounded budget before it parks, and matching
//! is FIFO per `(source, tag)` exactly as the [`Comm`] contract
//! requires. This is the backend a downstream user runs
//! collectives on within one shared-memory node; the sibling
//! `intercom-meshsim` crate provides the Paragon-timing simulation
//! backend.
//!
//! ```
//! use intercom_runtime::run_world;
//! use intercom::{Comm, Communicator, ReduceOp};
//! use intercom_cost::MachineParams;
//!
//! let sums = run_world(4, |comm| {
//!     let cc = Communicator::world(comm, MachineParams::PARAGON);
//!     let mut v = vec![(comm.rank() + 1) as f64; 8];
//!     cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
//!     v[0]
//! });
//! assert!(sums.iter().all(|&s| s == 10.0));
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod calibrate;
pub mod chan;
pub mod endpoint;
mod mailbox;
pub mod world;

pub use calibrate::{calibrate, Calibration};
pub use endpoint::{StoreStats, ThreadComm, DEFAULT_RENDEZVOUS_THRESHOLD};
pub use world::{default_wait_timeout, run_world, run_world_with};

// Re-exported so downstream tests can name the trait without an extra
// dependency edge.
pub use intercom::Comm;

/// The test suite's claim on the host's cores: the calibration test and
/// the wait policy's timing test hold it alone, the tests that keep rank
/// threads busy hold it shared.
#[cfg(test)]
static CORES: std::sync::RwLock<()> = std::sync::RwLock::new(());
