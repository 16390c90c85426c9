//! # intercom-verify — static verification of collective schedules
//!
//! The paper's central claim (§2, §4) is that every building block is
//! *conflict-free* under the single-port, full-duplex machine model with
//! XY wormhole routing. The simulator checks this dynamically for a
//! handful of shapes; this crate lifts the properties out of execution
//! entirely. It extracts each algorithm's **symbolic schedule** — the
//! step-list of `{src, dst, bytes, tag}` events every rank would issue —
//! by running the unmodified algorithm code against a recording
//! [`Comm`](intercom::Comm) backend ([`intercom::trace::RecordingComm`]),
//! then statically checks four invariants:
//!
//! 1. **Deadlock-freedom** — every posted send has a matching receive
//!    and the blocking rendezvous wait-for graph never stalls. Matching
//!    is verified under *rendezvous* semantics (a send completes only
//!    when its receive is posted), which is conservative: a schedule
//!    that is deadlock-free here is deadlock-free under any amount of
//!    eager buffering.
//! 2. **Single-port compliance** — no rank sends to (or receives from)
//!    two partners in the same synchronous step (§2's machine model).
//! 3. **Link-conflict-freedom** — every event is routed through the
//!    physical `R×C` mesh with dimension-ordered XY routing
//!    ([`intercom_topology::route_xy`]); each *stage* (tag) of a
//!    strategy collective must keep its same-step per-link sharing
//!    within the cost model's conflict factor for its level
//!    ([`intercom_cost::Strategy::conflict_factor`]), and strategy-free
//!    primitives must be fully conflict-free. Sharing *between* stages
//!    (a scatter tail overlapping a collect head as blocking ranks
//!    drift apart) is transient pipeline skew: reported in the
//!    [`Report`], but not a violation.
//! 4. **Buffer-region safety** — within one step, a rank's read and
//!    write byte-ranges never overlap (and no two writes collide).
//!
//! A call is described once — an [`intercom::ir::PlanOp`], a flat or
//! hierarchical [`intercom_cost::HierChoice`] and a size — and its
//! programs reach the checker from three sources ([`Source`]), each for
//! flat and hierarchical calls alike. [`Source::Ir`] checks the
//! **compiled schedule IR** ([`intercom::ir`]) — the very artifact
//! persistent plans execute — so the proof is about the deployed
//! schedule, not a re-derivation; [`Source::IrOpt`] checks it after the
//! optimizer's pass pipeline, which is what a plan actually runs.
//! [`Source::Trace`] instead replays the direct-path runner
//! ([`intercom::ir::run_direct`], the function `Communicator`
//! dispatches through) against a recording backend and checks the
//! extracted trace; the audit keeps it as an independent cross-check on
//! the lowering. [`verify_schedule_from`] is the entry point for any
//! source; [`verify_schedule_ir`] and [`verify_schedule`] are one-call
//! forms for a flat call on a mesh.
//!
//! Whatever the source, one pipeline ([`verify_programs`]) runs the
//! four invariants. The machine is an [`intercom_topology::Cluster`]: a
//! flat mesh is the cluster with one rank per node, a **hierarchical**
//! call places every global rank on the physical node of the cluster's
//! mesh embedding ([`intercom_topology::Cluster::phys_mesh`]), and link
//! conflicts are gated per tag against the strategy's own profile — per
//! stage tag band for a hybrid. The `schedule-audit` binary sweeps all
//! collectives × every enumerable strategy × a battery of node counts,
//! mesh shapes and cluster shapes, and is wired into `ci.sh` as a hard
//! gate. See `docs/verification.md` for the schedule model and how the
//! invariants map back to the paper.
//!
//! Static proofs assume a reliable fabric; the [`chaos`] module tests
//! what happens when that assumption breaks. It runs a seeded
//! fault-injection matrix (delays, drops, corruption, stalls) for real
//! on both backends, demanding byte-identical recovery or a coordinated
//! abort — never a hang — and its [`chaos::diagnose_hang`] reuses the
//! rendezvous matcher on *residual* programs to turn a watchdog's
//! progress snapshot into a wait-for-cycle or straggler diagnosis. The
//! audit's `--source=chaos` mode gates CI on the full sweep.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod checks;
pub mod concurrent;
pub mod extract;
pub mod ir;
pub mod report;
pub mod schedule;

pub use chaos::{
    chaos_ops, chaos_sweep, diagnose_hang, fault_trace_events, hang_probe, scenario_plan,
    scenarios, stall_probe, Backend, CaseRun, ChaosReport, HangDiagnosis, HangProbe, Scenario,
};
pub use checks::{
    analyze_links, check_buffer_safety, check_permutations, check_program_aliasing,
    check_single_port, LinkAnalysis, Violation,
};
pub use concurrent::{
    tenant_tag_base, verify_concurrent, ConcurrentReport, ConcurrentViolation, CtxId, Tenant,
    Workload, TENANT_TAG_STRIDE,
};
pub use extract::{extract_programs, extract_programs_under};
pub use ir::{ir_programs, programs_of};
pub use report::{
    verify_programs, verify_schedule, verify_schedule_from, verify_schedule_ir, LevelConflict,
    Report, Source,
};
pub use schedule::{match_programs, Event, Schedule};
