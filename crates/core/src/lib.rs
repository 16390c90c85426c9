//! # intercom — the InterCom collective communication library
//!
//! A Rust reproduction of *Barnett, Gupta, Payne, Shuler, van de Geijn,
//! Watts: "Building a High-Performance Collective Communication Library"*
//! (Supercomputing '94). The library implements the paper's seven target
//! collectives (Table 1) — broadcast, scatter, gather, collect
//! (allgather), combine-to-one (reduce), combine-to-all (allreduce) and
//! distributed combine (reduce-scatter) — from conflict-free short- and
//! long-vector building blocks (§4), composes them per §5, and executes
//! arbitrary hybrid strategies via the recursive template of Fig. 3 (§6),
//! with automatic cost-model-driven algorithm selection and group
//! communication (§9).
//!
//! The library is backend-agnostic: all algorithms are written against
//! the blocking point-to-point [`Comm`] trait ("changing only the message
//! send and receive calls to the native point-to-point communication
//! library", §11). Two backends ship in sibling crates:
//! `intercom-runtime` (real threads + channels) and `intercom-meshsim`
//! (a discrete-event wormhole-mesh simulator with the paper's α+nβ
//! timing model).
//!
//! ## Quick start
//!
//! ```
//! use intercom::{Communicator, ReduceOp};
//! use intercom_cost::MachineParams;
//!
//! // Backends provide a `Comm`; here a trivial 1-process world:
//! let comm = intercom::comm::SelfComm::default();
//! let cc = Communicator::world(&comm, MachineParams::PARAGON);
//! let mut v = vec![1.0f64, 2.0, 3.0];
//! cc.bcast(0, &mut v).unwrap();
//! cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
//! assert_eq!(v, [1.0, 2.0, 3.0]);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod algorithms;
pub mod autotune;
pub mod block;
pub mod cast;
pub mod comm;
pub mod communicator;
pub mod error;
pub mod faults;
pub mod groups;
pub mod hier;
pub mod ir;
pub mod nx_compat;
pub mod op;
pub mod plan;
pub mod primitives;
pub mod rng;
pub mod trace;

pub use autotune::{AutoTuner, Reselect, RetuneReport, TrackedShape};
pub use cast::Scalar;
pub use comm::{Comm, DefaultPath, GroupComm, Tag};
pub use communicator::{Algo, Communicator, CALL_TAG_STRIDE};
pub use error::{AbortCause, AbortInfo, CollectiveError, CommError, Result};
pub use faults::{Fault, FaultKind, FaultLayer, FaultPlan, FaultyComm, POISON_TAG};
pub use hier::{
    hier_allreduce, hier_broadcast, hier_collect, hier_reduce, hier_reduce_scatter,
    HIER_STAGE_STRIDE,
};
pub use intercom_cost::select::GroupShape;
pub use op::{Elem, ReduceOp};
pub use rng::SplitMix64;
