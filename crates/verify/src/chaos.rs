//! The chaos harness: a seeded matrix of fault scenarios run for real
//! on both backends, asserting the library's fault-tolerance contract.
//!
//! Every case wraps one collective in a [`FaultyComm`] executing a
//! scripted [`FaultPlan`] and demands one of exactly two outcomes:
//!
//! * **Recoverable** faults (a delay under the deadline, drops within
//!   the retry budget, a corruption the checksum catches) must complete
//!   with results **byte-identical** to the fault-free run of the same
//!   case, with no abort latched.
//! * **Unrecoverable** faults (losses past the budget, persistent
//!   corruption, a stall past the collective deadline) must end in the
//!   **coordinated abort**: every rank returns a structured
//!   [`CollectiveError`] — never a hang — and the shared abort record
//!   names the faulty rank.
//!
//! The harness also houses the watchdog's post-mortem: given the
//! per-rank symbolic programs and a progress snapshot,
//! [`diagnose_hang`] runs the rendezvous matcher over the *residual*
//! programs, distinguishing a true wait-for cycle (the matcher's
//! deadlock report, with the cycle) from a mere straggler (the residual
//! completes, and the rank whose pending send the rest of the world is
//! waiting on is named). [`hang_probe`] and [`stall_probe`] run both
//! paths end-to-end — a deliberately cyclic program under a tight
//! deadline, and a mid-broadcast stall snapshot — so `schedule-audit`
//! can gate on the diagnosis machinery itself.

use crate::checks::Violation;
use crate::extract::extract_programs;
use crate::schedule::match_programs;
use intercom::faults::{FaultEvent, FaultEventKind};
use intercom::ir::{run_filled, PlanOp};
use intercom::trace::OpRecord;
use intercom::{AbortCause, AbortInfo, CollectiveError, CommError, Fault, FaultKind, FaultLayer};
use intercom::{Comm, Tag};
use intercom::{FaultPlan, FaultyComm};
use intercom_cost::{MachineParams, Strategy};
use intercom_meshsim::{simulate, SimConfig};
use intercom_obs::{EventKind, TraceEvent};
use intercom_runtime::{default_wait_timeout, run_world_with};
use intercom_topology::Mesh2D;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// World size of every chaos case (simulated as a 2×3 mesh).
pub const CHAOS_WORLD: usize = 6;

/// Size parameter of every chaos case ([`PlanOp::args`] unit convention);
/// small enough that every message rides the eager path.
pub const CHAOS_N: usize = 48;

/// Tag base of the post-collective confirmation round: one call-tag
/// stride above the collective's base tag 0, so it can never collide
/// with the collective's own tags.
const CONFIRM_TAG: Tag = 1 << 20;

/// Deadline bounding every blocking wait in a threaded stall case —
/// far under [`STALL_MICROS`], so peers diagnose the silent rank.
const STALL_DEADLINE: Duration = Duration::from_millis(250);

/// How long the scripted straggler stays silent (well past
/// [`STALL_DEADLINE`]).
const STALL_MICROS: u64 = 900_000;

/// The backend a chaos case runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The threaded runtime (`intercom-runtime`), wall-clock deadlines.
    Threads,
    /// The mesh simulator (`intercom-meshsim`), virtual time.
    Sim,
}

impl Backend {
    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Sim => "sim",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of the chaos matrix: a named fault script and the outcome
/// the contract demands of it.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable scenario name (used in reports and audit JSON).
    pub name: &'static str,
    /// The fault injected at the faulty rank's first outbound op.
    pub kind: FaultKind,
    /// `true`: must complete byte-identical to the fault-free run.
    /// `false`: must end in the coordinated abort on every rank.
    pub recoverable: bool,
}

/// The scenario matrix. Budgets refer to the default
/// [`FaultPlan::new`] policy (3 retries): three losses are the last
/// recoverable burst, ten are hopeless.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "delay",
            kind: FaultKind::Delay { micros: 2_000 },
            recoverable: true,
        },
        Scenario {
            name: "drop-once",
            kind: FaultKind::Drop { count: 1 },
            recoverable: true,
        },
        Scenario {
            name: "drop-burst",
            kind: FaultKind::Drop { count: 3 },
            recoverable: true,
        },
        Scenario {
            name: "corrupt-once",
            kind: FaultKind::Corrupt { count: 1 },
            recoverable: true,
        },
        Scenario {
            name: "drop-storm",
            kind: FaultKind::Drop { count: 10 },
            recoverable: false,
        },
        Scenario {
            name: "corrupt-storm",
            kind: FaultKind::Corrupt { count: 10 },
            recoverable: false,
        },
        Scenario {
            name: "stall",
            kind: FaultKind::Stall {
                micros: STALL_MICROS,
            },
            recoverable: false,
        },
    ]
}

/// The collectives the sweep exercises (the paper's seven; root 0).
pub fn chaos_ops() -> Vec<PlanOp> {
    vec![
        PlanOp::Broadcast { root: 0 },
        PlanOp::Reduce { root: 0 },
        PlanOp::AllReduce,
        PlanOp::ReduceScatter,
        PlanOp::Collect,
        PlanOp::Scatter { root: 0 },
        PlanOp::Gather { root: 0 },
    ]
}

/// The rank whose first outbound operation the scenario corrupts: for
/// the to-root collectives the root only receives first, so the fault
/// moves to a leaf sender.
pub fn fault_rank(op: &PlanOp) -> usize {
    match op {
        PlanOp::Reduce { .. } | PlanOp::Gather { .. } => 1,
        _ => 0,
    }
}

/// Builds the scripted plan for one `(scenario, op)` cell. The seed is
/// derived from the scenario index so corrupted byte positions are
/// reproducible — and identical across backends.
pub fn scenario_plan(sc: &Scenario, op: &PlanOp, seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_fault(Fault {
        rank: fault_rank(op),
        peer: None,
        nth: 1,
        kind: sc.kind,
    })
}

/// Everything one chaos case produced: per-rank outcomes, the
/// deterministic per-rank fault logs, and the latched abort record.
pub struct CaseRun {
    /// Per-rank result: the collective's output bytes, or the
    /// structured error naming rank, op, plan and step.
    pub results: Vec<Result<Vec<u8>, CollectiveError>>,
    /// Per-rank fault logs (timestamp-free, so comparable across
    /// backends).
    pub events: Vec<Vec<FaultEvent>>,
    /// The world's abort record, if any rank poisoned the collective.
    pub abort: Option<AbortInfo>,
}

/// Runs `op` once under `plan` on `backend` with the chaos world size
/// and returns the full evidence. An empty plan is the fault-free
/// baseline the recoverable cases are compared against.
pub fn run_case(backend: Backend, op: &PlanOp, plan: &FaultPlan) -> CaseRun {
    let p = CHAOS_WORLD;
    let strategy = op.takes_strategy().then(|| Strategy::pure_mst(p));
    let stalls = plan
        .faults
        .iter()
        .any(|f| matches!(f.kind, FaultKind::Stall { .. }));
    match backend {
        Backend::Threads => {
            let layer = FaultLayer::new(plan.clone(), p);
            let deadline = if stalls {
                STALL_DEADLINE
            } else {
                default_wait_timeout()
            };
            let layer_ref = &layer;
            let st = strategy.as_ref();
            let (results, _) = run_world_with(p, deadline, None, move |c| {
                chaos_rank(c, Arc::clone(layer_ref), op, st)
            });
            CaseRun {
                results,
                events: layer.all_events(),
                abort: layer.aborted(),
            }
        }
        Backend::Sim => {
            let layer = FaultLayer::new_virtual(plan.clone(), p);
            let cfg = SimConfig::new(Mesh2D::new(2, 3), MachineParams::PARAGON_MODEL);
            let layer_ref = &layer;
            let st = strategy.as_ref();
            let rep = simulate(&cfg, move |c| chaos_rank(c, Arc::clone(layer_ref), op, st));
            CaseRun {
                results: rep.results,
                events: layer.all_events(),
                abort: layer.aborted(),
            }
        }
    }
}

/// One rank's body: run the collective through the fault layer, then a
/// confirmation round, so a rank that finished early (a leaf whose work
/// preceded the fault) still observes a late abort — the revocation
/// semantics that make "all ranks return an error" a meaningful claim.
fn chaos_rank<C: Comm + ?Sized>(
    comm: &C,
    layer: Arc<FaultLayer>,
    op: &PlanOp,
    strategy: Option<&Strategy>,
) -> Result<Vec<u8>, CollectiveError> {
    let rank = comm.rank();
    let fc = FaultyComm::new(comm, layer);
    // Every buffer the rank bound, in slot order: the bytes the
    // byte-identity check compares against the fault-free baseline.
    run_filled(&fc, *op, strategy, CHAOS_N)
        .and_then(|bufs| {
            confirm(&fc)?;
            Ok(bufs
                .slots
                .into_iter()
                .filter_map(|(_, b)| b)
                .flatten()
                .collect())
        })
        .map_err(|e| {
            let (plan, step) = fc.layer().progress()[rank];
            CollectiveError::new(rank, op.name(), e).at(plan, step)
        })
}

/// The confirmation round: a star barrier through rank 0 on a reserved
/// tag window. A rank that aborted fails it immediately (its `Comm` is
/// poisoned), and a healthy rank waiting here is woken by the poison —
/// so after a fault *no* rank reports success.
fn confirm<C: Comm + ?Sized>(comm: &C) -> intercom::Result<()> {
    let p = comm.size();
    let rank = comm.rank();
    let mut byte = [0u8; 1];
    if rank == 0 {
        for q in 1..p {
            comm.recv(q, CONFIRM_TAG, &mut byte)?;
        }
        for q in 1..p {
            comm.send(q, CONFIRM_TAG, &[1])?;
        }
    } else {
        comm.send(0, CONFIRM_TAG, &[1])?;
        comm.recv(0, CONFIRM_TAG, &mut byte)?;
    }
    Ok(())
}

/// Converts one rank's fault log into trace events on the unified
/// observability schema, mergeable with a recorded run's timeline. The
/// events are synthetic markers (zero-duration, at the epoch); a retry
/// carries its attempt number in `bytes`, and a timeout's `src` names
/// the silent peer.
pub fn fault_trace_events(events: &[FaultEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .map(|e| {
            let kind = match e.kind {
                FaultEventKind::Injected(_) => EventKind::FaultInjected,
                FaultEventKind::Retry { .. } => EventKind::Retry,
                FaultEventKind::Nak => EventKind::Nak,
                FaultEventKind::Timeout => EventKind::Timeout,
                FaultEventKind::Abort { .. } => EventKind::Abort,
            };
            let bytes = match e.kind {
                FaultEventKind::Retry { attempt } => attempt as usize,
                _ => 0,
            };
            TraceEvent {
                kind,
                rank: e.rank,
                src: e.peer.unwrap_or(e.rank),
                dst: e.rank,
                tag: e.tag,
                bytes,
                start: 0.0,
                end: 0.0,
                hops: 0,
                plan: 0,
                step: 0,
            }
        })
        .collect()
}

/// The watchdog's verdict on a timed-out collective.
#[derive(Debug)]
pub enum HangDiagnosis {
    /// The residual programs cannot complete: a structural deadlock,
    /// with the matcher's full report (stuck ranks and the wait-for
    /// cycle when one exists).
    Deadlock(Violation),
    /// The residual programs *can* complete — no structural fault; the
    /// named rank's pending send is what the rest of the world is
    /// waiting on (a straggler/stall), `step` records how far it got.
    Stall {
        /// The slowest rank.
        rank: usize,
        /// Operations of its program already completed.
        step: usize,
    },
    /// Nothing was pending: every rank had already finished.
    Completed,
}

/// Runs the rendezvous matcher over the **residual** programs — each
/// rank's symbolic program minus its first `completed[r]` records — to
/// turn a progress snapshot of a timed-out collective into a diagnosis:
/// a wait-for cycle (true deadlock) or the straggler holding the world
/// up (a stall). This is the bridge from the runtime watchdog's
/// `(plan, step)` stamps to the verifier's structural analysis.
pub fn diagnose_hang(programs: &[Vec<OpRecord>], completed: &[usize]) -> HangDiagnosis {
    assert_eq!(
        programs.len(),
        completed.len(),
        "one progress stamp per rank"
    );
    let residual: Vec<Vec<OpRecord>> = programs
        .iter()
        .zip(completed)
        .map(|(prog, &k)| prog[k.min(prog.len())..].to_vec())
        .collect();
    match match_programs(&residual) {
        Err(v) => HangDiagnosis::Deadlock(v),
        Ok(schedule) => match schedule.events.first() {
            // The first matched transfer's sender is the rank whose
            // pending send unblocks everyone else: the straggler.
            Some(ev) => HangDiagnosis::Stall {
                rank: ev.src,
                step: completed[ev.src],
            },
            None => HangDiagnosis::Completed,
        },
    }
}

/// What [`hang_probe`] observed end-to-end.
pub struct HangProbe {
    /// Per-rank transport error from the live run (`None` = the rank
    /// completed, which would mean the probe's program wasn't hung).
    pub errors: Vec<Option<CommError>>,
    /// The watchdog's diagnosis of the same program.
    pub diagnosis: HangDiagnosis,
}

/// Runs a deliberately cyclic two-rank program (each rank receives
/// before it sends, tags crossed) live on the threaded runtime under a
/// tight deadline — proving the bounded waits turn the hang into
/// [`CommError::Timeout`] on every rank — then feeds the same program
/// to [`diagnose_hang`], which must report the 0↔1 wait-for cycle.
pub fn hang_probe() -> HangProbe {
    let span = |addr: usize| intercom::trace::MemSpan { addr, len: 4 };
    let programs = vec![
        vec![
            OpRecord::Recv {
                from: 1,
                tag: 1,
                dst: span(0),
            },
            OpRecord::Send {
                to: 1,
                tag: 2,
                src: span(64),
            },
        ],
        vec![
            OpRecord::Recv {
                from: 0,
                tag: 2,
                dst: span(0),
            },
            OpRecord::Send {
                to: 0,
                tag: 1,
                src: span(64),
            },
        ],
    ];
    let progs = &programs;
    let (errors, _) = run_world_with(2, Duration::from_millis(150), None, move |c| {
        run_program(c, &progs[c.rank()]).err()
    });
    HangProbe {
        errors,
        diagnosis: diagnose_hang(&programs, &[0, 0]),
    }
}

/// Builds the mid-collective stall snapshot: an MST broadcast on four
/// ranks where rank 2 received its block but stalled before forwarding
/// to rank 3. The residual completes, so [`diagnose_hang`] must name
/// rank 2 as the straggler rather than report a deadlock.
pub fn stall_probe() -> HangDiagnosis {
    let st = Strategy::pure_mst(4);
    let programs = extract_programs(&PlanOp::Broadcast { root: 0 }, Some(&st), 4, 16)
        .expect("broadcast extracts");
    let first_send = |prog: &[OpRecord]| {
        prog.iter()
            .position(|r| matches!(r, OpRecord::Send { .. }))
            .unwrap_or(prog.len())
    };
    let first_comm = |prog: &[OpRecord]| {
        prog.iter()
            .position(|r| {
                matches!(
                    r,
                    OpRecord::Send { .. } | OpRecord::Recv { .. } | OpRecord::SendRecv { .. }
                )
            })
            .unwrap_or(prog.len())
    };
    // Ranks 0 and 1 finished; rank 2 stopped right before its forward
    // send; rank 3 is still blocked in its first receive.
    let completed = vec![
        programs[0].len(),
        programs[1].len(),
        first_send(&programs[2]),
        first_comm(&programs[3]),
    ];
    diagnose_hang(&programs, &completed)
}

/// Literally executes a symbolic program against a live `Comm`
/// (zero-filled payloads sized by each record's span).
fn run_program<C: Comm + ?Sized>(comm: &C, prog: &[OpRecord]) -> intercom::Result<()> {
    for op in prog {
        match *op {
            OpRecord::Send { to, tag, src } => comm.send(to, tag, &vec![0u8; src.len])?,
            OpRecord::Recv { from, tag, dst } => {
                let mut buf = vec![0u8; dst.len];
                comm.recv(from, tag, &mut buf)?;
            }
            OpRecord::SendRecv {
                to,
                src,
                from,
                dst,
                tag,
            } => {
                let mut buf = vec![0u8; dst.len];
                comm.sendrecv(to, &vec![0u8; src.len], from, &mut buf, tag)?;
            }
            OpRecord::Compute { .. }
            | OpRecord::CallOverhead
            | OpRecord::Copy { .. }
            | OpRecord::Reduce { .. }
            | OpRecord::Permute { .. } => {}
        }
    }
    Ok(())
}

/// Aggregated results of one chaos sweep.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Fault cases run (baselines excluded).
    pub cases: usize,
    /// Recoverable cases that completed byte-identical to their
    /// fault-free baseline.
    pub recoveries: usize,
    /// Unrecoverable cases that ended in a coordinated abort on every
    /// rank.
    pub aborts: usize,
    /// Total retransmissions logged across all cases.
    pub retries: usize,
    /// Cases where a rank timed out with *no* abort latched — a wait
    /// that expired without a diagnosis. Must be zero.
    pub hangs: usize,
    /// Human-readable contract violations. Must be empty.
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// Whether the sweep upheld the fault-tolerance contract.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.hangs == 0
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chaos cases: {} recovered byte-identical, {} coordinated aborts, \
             {} retries, {} hangs, {} failures",
            self.cases,
            self.recoveries,
            self.aborts,
            self.retries,
            self.hangs,
            self.failures.len()
        )
    }
}

/// Runs the chaos matrix — scenarios × collectives × both backends —
/// and checks every case against the contract. `smoke` runs a reduced
/// matrix (three scenarios × three collectives) for the default CI
/// path; the full sweep backs the `--source=chaos` audit gate.
pub fn chaos_sweep(smoke: bool) -> ChaosReport {
    let ops = chaos_ops();
    let scs = scenarios();
    let (ops, scs): (Vec<PlanOp>, Vec<Scenario>) = if smoke {
        (
            vec![
                PlanOp::Broadcast { root: 0 },
                PlanOp::AllReduce,
                PlanOp::Gather { root: 0 },
            ],
            scs.into_iter()
                .filter(|s| matches!(s.name, "drop-once" | "corrupt-once" | "drop-storm"))
                .collect(),
        )
    } else {
        (ops, scs)
    };
    let mut report = ChaosReport::default();
    for backend in [Backend::Threads, Backend::Sim] {
        for op in &ops {
            let baseline = run_case(backend, op, &FaultPlan::new(0));
            if let Some(err) = baseline.results.iter().find_map(|r| r.as_ref().err()) {
                report.failures.push(format!(
                    "[{backend}/{op}/baseline] fault-free run failed: {err}"
                ));
                continue;
            }
            for (i, sc) in scs.iter().enumerate() {
                let plan = scenario_plan(sc, op, 0xC4A0_5EED ^ i as u64);
                let run = run_case(backend, op, &plan);
                check_case(&mut report, backend, op, sc, &baseline, &run);
            }
        }
    }
    report
}

/// Checks one case's evidence against the contract and folds it into
/// the report.
fn check_case(
    report: &mut ChaosReport,
    backend: Backend,
    op: &PlanOp,
    sc: &Scenario,
    baseline: &CaseRun,
    run: &CaseRun,
) {
    report.cases += 1;
    let label = format!("[{backend}/{op}/{}]", sc.name);
    let fail = |report: &mut ChaosReport, msg: String| {
        report.failures.push(format!("{label} {msg}"));
    };
    report.retries += run
        .events
        .iter()
        .flatten()
        .filter(|e| matches!(e.kind, FaultEventKind::Retry { .. }))
        .count();
    if sc.recoverable {
        let mut ok = true;
        for (rank, res) in run.results.iter().enumerate() {
            match res {
                Ok(bytes) => {
                    let base = baseline.results[rank].as_ref().expect("baseline checked");
                    if bytes != base {
                        fail(
                            report,
                            format!("rank {rank} result differs from fault-free run"),
                        );
                        ok = false;
                    }
                }
                Err(e) => {
                    fail(report, format!("recoverable fault failed: {e}"));
                    ok = false;
                }
            }
        }
        if run.abort.is_some() {
            fail(report, "recoverable fault latched an abort".to_string());
            ok = false;
        }
        if ok {
            report.recoveries += 1;
        }
        return;
    }
    // Unrecoverable: every rank errors, at least one carries the
    // coordinated abort, and the latched record blames the right rank
    // wherever the diagnosis is deterministic.
    let mut ok = true;
    let mut saw_abort = false;
    let mut saw_bare_timeout = false;
    for (rank, res) in run.results.iter().enumerate() {
        match res {
            Ok(_) => {
                fail(
                    report,
                    format!("rank {rank} reported success under {}", sc.name),
                );
                ok = false;
            }
            Err(e) => match e.cause {
                CommError::Aborted(_) => saw_abort = true,
                CommError::Timeout { .. } => saw_bare_timeout = true,
                _ => {}
            },
        }
    }
    let Some(abort) = run.abort else {
        fail(report, "no abort record latched".to_string());
        report.hangs += usize::from(saw_bare_timeout);
        return;
    };
    if !saw_abort {
        fail(report, "no rank returned the coordinated abort".to_string());
        ok = false;
    }
    let expected: &[AbortCause] = match sc.kind {
        FaultKind::Drop { .. } => &[AbortCause::DropBudget],
        FaultKind::Corrupt { .. } => &[AbortCause::CorruptBudget],
        // Threads: a peer's bounded wait expires first. Sim: virtual
        // time declares the stall directly.
        FaultKind::Stall { .. } => &[AbortCause::Stall, AbortCause::Timeout],
        FaultKind::Delay { .. } => &[],
    };
    if !expected.contains(&abort.cause) {
        fail(
            report,
            format!("abort cause {} not in {expected:?}", abort.cause.name()),
        );
        ok = false;
    }
    // A threaded stall races which waiter's timeout latches first, so
    // the culprit is only deterministic elsewhere.
    let culprit_deterministic =
        !(backend == Backend::Threads && matches!(sc.kind, FaultKind::Stall { .. }));
    if culprit_deterministic && abort.culprit != fault_rank(op) {
        fail(
            report,
            format!(
                "abort blames rank {} (faulty rank is {})",
                abort.culprit,
                fault_rank(op)
            ),
        );
        ok = false;
    }
    if ok {
        report.aborts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom::trace::MemSpan;

    #[test]
    fn cyclic_residual_diagnoses_deadlock_with_cycle() {
        let span = |addr: usize| MemSpan { addr, len: 4 };
        let programs = vec![
            vec![
                OpRecord::Recv {
                    from: 1,
                    tag: 1,
                    dst: span(0),
                },
                OpRecord::Send {
                    to: 1,
                    tag: 2,
                    src: span(64),
                },
            ],
            vec![
                OpRecord::Recv {
                    from: 0,
                    tag: 2,
                    dst: span(0),
                },
                OpRecord::Send {
                    to: 0,
                    tag: 1,
                    src: span(64),
                },
            ],
        ];
        match diagnose_hang(&programs, &[0, 0]) {
            HangDiagnosis::Deadlock(Violation::Deadlock { cycle, .. }) => {
                let mut c = cycle.expect("two-cycle expected");
                c.sort_unstable();
                assert_eq!(c, vec![0, 1]);
            }
            other => panic!("expected deadlock diagnosis, got {other:?}"),
        }
    }

    #[test]
    fn completable_residual_diagnoses_the_straggler() {
        match stall_probe() {
            HangDiagnosis::Stall { rank, step } => {
                assert_eq!(rank, 2, "rank 2 stalled before forwarding");
                assert!(step > 0, "the straggler had completed its receive");
            }
            other => panic!("expected stall diagnosis, got {other:?}"),
        }
    }

    #[test]
    fn finished_world_diagnoses_completed() {
        let programs: Vec<Vec<OpRecord>> = vec![
            vec![OpRecord::Send {
                to: 1,
                tag: 0,
                src: MemSpan { addr: 0, len: 4 },
            }],
            vec![OpRecord::Recv {
                from: 0,
                tag: 0,
                dst: MemSpan { addr: 0, len: 4 },
            }],
        ];
        let completed = vec![1, 1];
        assert!(matches!(
            diagnose_hang(&programs, &completed),
            HangDiagnosis::Completed
        ));
    }

    #[test]
    fn scenario_plans_target_a_sending_rank() {
        for op in chaos_ops() {
            for (i, sc) in scenarios().iter().enumerate() {
                let plan = scenario_plan(sc, &op, i as u64);
                assert_eq!(plan.faults.len(), 1);
                assert_eq!(plan.faults[0].rank, fault_rank(&op));
                assert_eq!(plan.faults[0].nth, 1);
            }
        }
        // To-root collectives fault a leaf (the root receives first).
        assert_eq!(fault_rank(&PlanOp::Reduce { root: 0 }), 1);
        assert_eq!(fault_rank(&PlanOp::Gather { root: 0 }), 1);
    }

    #[test]
    fn fault_logs_convert_to_trace_events() {
        let events = vec![
            FaultEvent {
                kind: FaultEventKind::Injected(FaultKind::Drop { count: 2 }),
                rank: 3,
                peer: Some(1),
                tag: 8,
                op_index: 2,
            },
            FaultEvent {
                kind: FaultEventKind::Retry { attempt: 2 },
                rank: 3,
                peer: Some(1),
                tag: 8,
                op_index: 2,
            },
            FaultEvent {
                kind: FaultEventKind::Timeout,
                rank: 0,
                peer: Some(3),
                tag: 8,
                op_index: 1,
            },
        ];
        let tes = fault_trace_events(&events);
        assert_eq!(tes[0].kind, EventKind::FaultInjected);
        assert_eq!((tes[0].rank, tes[0].src, tes[0].tag), (3, 1, 8));
        assert_eq!(tes[1].kind, EventKind::Retry);
        assert_eq!(tes[1].bytes, 2, "attempt number rides in bytes");
        assert_eq!(tes[2].kind, EventKind::Timeout);
        assert_eq!(tes[2].src, 3, "timeout src names the silent peer");
        assert!(tes.iter().all(|e| !e.kind.is_comm()));
    }
}
