//! End-to-end fault-injection tests: the chaos contract on both
//! backends, per-fault-type recovery, persistent plans under faults,
//! cross-backend determinism of the fault logs, and the watchdog's
//! hang/stall diagnosis.

use intercom::faults::{FaultEvent, FaultEventKind};
use intercom::ir::PlanOp;
use intercom::plan::AllreducePlan;
use intercom::{AbortCause, CollectiveError, Comm, CommError, Communicator, FaultKind};
use intercom::{FaultLayer, FaultPlan, FaultyComm, ReduceOp};
use intercom_cost::MachineParams;
use intercom_meshsim::{simulate, SimConfig};
use intercom_obs::EventKind;
use intercom_runtime::run_world;
use intercom_topology::Mesh2D;
use intercom_verify::chaos::{CHAOS_N, CHAOS_WORLD};
use intercom_verify::{
    chaos_sweep, diagnose_hang, fault_trace_events, hang_probe, scenario_plan, scenarios, Backend,
    HangDiagnosis,
};
use std::sync::Arc;

fn scenario(name: &str) -> intercom_verify::Scenario {
    scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .expect("scenario exists")
}

fn run(backend: Backend, op: &PlanOp, name: &str) -> intercom_verify::CaseRun {
    let sc = scenario(name);
    let plan = scenario_plan(&sc, op, 7);
    intercom_verify::chaos::run_case(backend, op, &plan)
}

fn baseline(backend: Backend, op: &PlanOp) -> Vec<Vec<u8>> {
    intercom_verify::chaos::run_case(backend, op, &intercom::FaultPlan::new(0))
        .results
        .into_iter()
        .map(|r| r.expect("fault-free run succeeds"))
        .collect()
}

#[test]
fn smoke_sweep_upholds_the_contract() {
    let report = chaos_sweep(true);
    assert!(
        report.ok(),
        "chaos smoke sweep failed: {:?}",
        report.failures
    );
    assert!(report.recoveries > 0 && report.aborts > 0);
    assert_eq!(report.hangs, 0);
}

#[test]
fn delay_under_deadline_is_byte_identical() {
    let op = PlanOp::Broadcast { root: 0 };
    for backend in [Backend::Threads, Backend::Sim] {
        let base = baseline(backend, &op);
        let run = run(backend, &op, "delay");
        assert!(run.abort.is_none());
        for (rank, res) in run.results.iter().enumerate() {
            assert_eq!(res.as_ref().unwrap(), &base[rank], "rank {rank} differs");
        }
        let injected: Vec<_> = run.events.iter().flatten().collect();
        assert!(injected
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::Injected(FaultKind::Delay { .. }))));
    }
}

#[test]
fn drop_burst_recovers_and_logs_every_retry() {
    let op = PlanOp::AllReduce;
    let base = baseline(Backend::Threads, &op);
    let run = run(Backend::Threads, &op, "drop-burst");
    assert!(run.abort.is_none());
    for (rank, res) in run.results.iter().enumerate() {
        assert_eq!(res.as_ref().unwrap(), &base[rank]);
    }
    // The faulty rank logs the injection plus one Retry per loss, and
    // the converter exposes them on the unified trace schema.
    let log = &run.events[0];
    assert!(log.iter().any(|e| matches!(
        e.kind,
        FaultEventKind::Injected(FaultKind::Drop { count: 3 })
    )));
    let retries: Vec<u32> = log
        .iter()
        .filter_map(|e| match e.kind {
            FaultEventKind::Retry { attempt } => Some(attempt),
            _ => None,
        })
        .collect();
    assert_eq!(retries, vec![1, 2, 3]);
    let trace = fault_trace_events(log);
    assert!(trace.iter().any(|e| e.kind == EventKind::FaultInjected));
    assert_eq!(
        trace.iter().filter(|e| e.kind == EventKind::Retry).count(),
        3
    );
}

#[test]
fn corruption_is_caught_by_checksum_and_retried() {
    let op = PlanOp::Collect;
    for backend in [Backend::Threads, Backend::Sim] {
        let base = baseline(backend, &op);
        let run = run(backend, &op, "corrupt-once");
        assert!(run.abort.is_none(), "{backend}: corrupt-once must recover");
        for (rank, res) in run.results.iter().enumerate() {
            assert_eq!(res.as_ref().unwrap(), &base[rank], "{backend} rank {rank}");
        }
        let log = &run.events[0];
        assert!(log
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::Injected(FaultKind::Corrupt { .. }))));
        assert!(
            log.iter()
                .any(|e| matches!(e.kind, FaultEventKind::Retry { attempt: 1 })),
            "{backend}: the NAK must force one retransmission"
        );
    }
}

#[test]
fn drops_past_the_budget_abort_every_rank() {
    let op = PlanOp::Gather { root: 0 };
    for backend in [Backend::Threads, Backend::Sim] {
        let run = run(backend, &op, "drop-storm");
        let abort = run.abort.expect("abort record latched");
        assert_eq!(abort.culprit, 1, "{backend}: the faulty leaf is blamed");
        assert_eq!(abort.cause, AbortCause::DropBudget);
        for (rank, res) in run.results.iter().enumerate() {
            let err = res.as_ref().expect_err("no rank may report success");
            assert_eq!(err.rank, rank);
            assert_eq!(err.op, "gather");
        }
        assert!(run.results.iter().any(|r| matches!(
            r.as_ref().unwrap_err().cause,
            CommError::Aborted(info) if info.culprit == 1
        )));
    }
}

/// One rank's persistent allreduce through the fault layer: the sum's
/// bytes, or the error stamped with the `(plan, step)` the layer holds
/// for the rank — and whether that names a transfer step of the plan's
/// program.
fn planned_allreduce<C: Comm + ?Sized>(
    c: &C,
    layer: Arc<FaultLayer>,
) -> (Result<Vec<u8>, CollectiveError>, bool) {
    let rank = c.rank();
    let fc = FaultyComm::new(c, layer);
    let cc = Communicator::world(&fc, MachineParams::PARAGON);
    let plan = AllreducePlan::<f64>::new(&cc, CHAOS_N, ReduceOp::Sum);
    let mut v: Vec<f64> = (0..CHAOS_N).map(|i| (7 * i + rank) as f64 / 3.0).collect();
    let out = plan.execute(&cc, &mut v).map_err(|e| {
        let (plan, step) = fc.layer().progress()[rank];
        CollectiveError::new(rank, "allreduce", e).at(plan, step)
    });
    let prog = plan.program().expect("the plan compiled");
    let steps = &prog.ranks[rank].steps;
    let at_transfer = out.as_ref().is_err_and(|e| {
        let step = steps.get(e.step as usize);
        e.plan == prog.plan_id && step.is_some_and(|s| s.kind.is_transfer())
    });
    let bytes = v.iter().flat_map(|x| x.to_le_bytes()).collect();
    (out.map(|()| bytes), at_transfer)
}

/// [`planned_allreduce`] on every rank of the chaos world under `plan`.
fn run_planned(backend: Backend, plan: FaultPlan) -> Vec<(Result<Vec<u8>, CollectiveError>, bool)> {
    let p = CHAOS_WORLD;
    match backend {
        Backend::Threads => {
            let layer = &FaultLayer::new(plan, p);
            run_world(p, |c| planned_allreduce(c, Arc::clone(layer)))
        }
        Backend::Sim => {
            let layer = &FaultLayer::new_virtual(plan, p);
            let cfg = SimConfig::new(Mesh2D::new(2, 3), MachineParams::PARAGON_MODEL);
            simulate(&cfg, |c| planned_allreduce(c, Arc::clone(layer))).results
        }
    }
}

#[test]
fn plans_recover_byte_identical_or_abort_at_a_stamped_transfer() {
    let op = PlanOp::AllReduce;
    for backend in [Backend::Threads, Backend::Sim] {
        let base: Vec<Vec<u8>> = run_planned(backend, FaultPlan::new(0))
            .into_iter()
            .map(|(res, _)| res.expect("fault-free run succeeds"))
            .collect();
        let once = run_planned(backend, scenario_plan(&scenario("drop-once"), &op, 7));
        for (rank, (res, _)) in once.iter().enumerate() {
            let res = res.as_ref().expect("drop-once recovers");
            assert_eq!(res, &base[rank], "{backend} rank {rank}");
        }
        // A rank whose peer left after the abort may see it disconnect
        // instead; the culprit always reports the abort.
        let storm = run_planned(backend, scenario_plan(&scenario("drop-storm"), &op, 7));
        for (res, at_transfer) in &storm {
            let err = res.as_ref().expect_err("no rank may report success");
            assert!(
                err.plan != 0 && *at_transfer,
                "{backend} {err}: not at a transfer"
            );
        }
        let culprit = storm[0].0.as_ref().unwrap_err();
        assert!(matches!(culprit.cause, CommError::Aborted(info) if info.culprit == 0));
    }
}

#[test]
fn threaded_stall_is_diagnosed_within_the_deadline() {
    // The MST scatter's wait-for graph is a tree, and every blocked
    // rank times out at the same deadline — which waiter's diagnosis
    // latches first is a race, but the cause is always a bounded wait
    // naming a rank on the stalled path, and nobody hangs.
    let op = PlanOp::Scatter { root: 0 };
    let run = run(Backend::Threads, &op, "stall");
    let abort = run.abort.expect("abort record latched");
    assert_eq!(abort.cause, AbortCause::Timeout);
    assert_ne!(
        abort.culprit, abort.origin,
        "a waiter blames its silent peer"
    );
    assert!(
        run.results.iter().all(|r| r.is_err()),
        "no rank hangs or succeeds"
    );
    let timeouts = run
        .events
        .iter()
        .flatten()
        .filter(|e| matches!(e.kind, FaultEventKind::Timeout))
        .count();
    assert!(timeouts >= 1, "a peer's bounded wait expired");
}

#[test]
fn virtual_time_stall_poisons_immediately() {
    let run = run(Backend::Sim, &PlanOp::AllReduce, "stall");
    let abort = run.abort.expect("abort record latched");
    assert_eq!(abort.culprit, 0);
    assert_eq!(abort.cause, AbortCause::Stall);
    assert!(run.results.iter().all(|r| r.is_err()));
}

#[test]
fn same_seed_yields_the_same_event_stream_on_both_backends() {
    for name in ["drop-burst", "corrupt-once", "delay"] {
        let op = PlanOp::AllReduce;
        let threads: Vec<Vec<FaultEvent>> = run(Backend::Threads, &op, name).events;
        let sim: Vec<Vec<FaultEvent>> = run(Backend::Sim, &op, name).events;
        assert_eq!(
            threads, sim,
            "{name}: fault logs must be deterministic across backends"
        );
    }
}

#[test]
fn seeded_hang_probe_times_out_and_names_the_cycle() {
    let probe = hang_probe();
    // Whoever times out first tears its endpoint down, so the second
    // rank may observe the farewell (Disconnected) instead of its own
    // timeout — either way, no rank hangs.
    for (rank, err) in probe.errors.iter().enumerate() {
        match err {
            Some(CommError::Timeout { .. }) | Some(CommError::Disconnected) => {}
            other => panic!("rank {rank}: expected a bounded-wait error, got {other:?}"),
        }
    }
    assert!(
        probe
            .errors
            .iter()
            .any(|e| matches!(e, Some(CommError::Timeout { .. }))),
        "at least one bounded wait expired"
    );
    match probe.diagnosis {
        HangDiagnosis::Deadlock(intercom_verify::Violation::Deadlock { cycle, .. }) => {
            let mut c = cycle.expect("the 0<->1 cycle is explicit");
            c.sort_unstable();
            assert_eq!(c, vec![0, 1]);
        }
        other => panic!("expected a deadlock diagnosis, got {other:?}"),
    }
}

#[test]
fn progress_stamps_feed_the_stall_diagnosis() {
    // A compiled-IR program plus a progress snapshot mid-plan: ranks
    // past their work, one rank wedged before its forward send.
    let st = intercom_cost::Strategy::pure_mst(4);
    let programs =
        intercom_verify::ir_programs(&PlanOp::Broadcast { root: 0 }, Some(&st), 4, 32).unwrap();
    let stalled = 2usize;
    let completed: Vec<usize> = programs
        .iter()
        .enumerate()
        .map(|(r, prog)| {
            if r == stalled {
                prog.iter()
                    .position(|op| matches!(op, intercom::trace::OpRecord::Send { .. }))
                    .unwrap_or(prog.len())
            } else if r == 3 {
                0
            } else {
                prog.len()
            }
        })
        .collect();
    match diagnose_hang(&programs, &completed) {
        HangDiagnosis::Stall { rank, .. } => assert_eq!(rank, stalled),
        other => panic!("expected a stall diagnosis, got {other:?}"),
    }
}
