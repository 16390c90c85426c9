//! Shared observability driver: runs any verifiable collective at base
//! tag 0 ([`run_filled`]) on either backend under a unified recorder,
//! and folds the recording against the cost model.
//!
//! `intercom-cli trace`, the `fig1_trace` example, the CI smoke gate
//! and the counter-vs-verifier byte cross-check all go through these
//! functions, so a trace produced by any of them is event-for-event
//! comparable with the symbolic schedule `intercom-verify` extracts —
//! same buffer shapes, same tags, same stage coordinates.

use intercom::ir::{cost_op, run_filled, PlanOp};
use intercom_cost::{CostContext, MachineParams, Strategy};
use intercom_meshsim::{simulate, SimConfig};
use intercom_obs::{analyze, recorders, ResidualReport, RunRecord};
use intercom_runtime::{default_wait_timeout, run_world_with};
use intercom_topology::Mesh2D;

/// One recorded collective run, backend-agnostic.
pub struct Recorded {
    /// Per-rank events and counters.
    pub run: RunRecord,
    /// Elapsed seconds: virtual clock for the simulator, latest event
    /// end for the threaded backend.
    pub elapsed: f64,
}

/// Records one collective on the threaded runtime (wall-clock
/// timestamps, per-rank ring capacity `capacity`).
pub fn record_threads(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    p: usize,
    n: usize,
    capacity: usize,
) -> Recorded {
    let op = *op;
    let strategy = strategy.cloned();
    let recs = Some(recorders(p, capacity));
    let (_, run) = run_world_with(p, default_wait_timeout(), recs, move |c| {
        run_filled(c, op, strategy.as_ref(), n).expect("collective failed under recording");
    });
    let run = run.expect("recorded");
    let elapsed = run.all_events().map(|e| e.end).fold(0.0f64, f64::max);
    Recorded { run, elapsed }
}

/// Records one collective on the mesh simulator (virtual Paragon-model
/// timestamps; every transfer lands on its source rank's timeline).
pub fn record_sim(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    mesh: Mesh2D,
    n: usize,
    machine: MachineParams,
) -> Recorded {
    let p = mesh.nodes();
    let cfg = SimConfig::new(mesh, machine).with_trace();
    let op = *op;
    let strategy = strategy.cloned();
    let rep = simulate(&cfg, move |c| {
        run_filled(c, op, strategy.as_ref(), n).expect("collective failed under simulation");
    });
    let trace = rep.trace.expect("tracing was enabled");
    Recorded {
        run: RunRecord::from_transfers(trace.records(), p),
        elapsed: rep.elapsed,
    }
}

/// Folds a recorded run against the cost model's per-stage predictions.
/// `None` when the op has no cost-model counterpart ([`cost_op`]).
/// `n` follows the [`PlanOp::args`] convention; the conversion to the
/// cost model's total vector length ([`PlanOp::cost_bytes`]) happens
/// here.
pub fn residual_report(
    rec: &Recorded,
    op: &PlanOp,
    strategy: &Strategy,
    machine: &MachineParams,
    n: usize,
) -> Option<ResidualReport> {
    let cop = cost_op(*op)?;
    let ctx = CostContext::linear_with(machine);
    Some(analyze(
        &rec.run,
        cop,
        strategy,
        ctx,
        machine,
        op.cost_bytes(rec.run.p(), n, 1),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_and_sim_move_the_same_bytes() {
        let p = 4;
        let n = 64;
        let op = PlanOp::Broadcast { root: 0 };
        let st = Strategy::pure_mst(p);
        let threads = record_threads(&op, Some(&st), p, n, 1024);
        let sim = record_sim(
            &op,
            Some(&st),
            Mesh2D::new(1, p),
            n,
            MachineParams::PARAGON_MODEL,
        );
        let a = threads.run.totals();
        let b = sim.run.totals();
        assert_eq!(a.bytes_out, b.bytes_out);
        assert_eq!(a.msgs_sent, b.msgs_sent);
        assert!(threads.elapsed > 0.0 && sim.elapsed > 0.0);
    }

    #[test]
    fn residual_report_covers_sim_stages() {
        let p = 9;
        let n = 900;
        let op = PlanOp::Collect;
        let st = Strategy::pure_long(p);
        let machine = MachineParams::PARAGON_MODEL;
        let rec = record_sim(&op, Some(&st), Mesh2D::new(1, p), n, machine);
        let report = residual_report(&rec, &op, &st, &machine, n).unwrap();
        assert_eq!(report.unattributed_events, 0, "every event maps to a stage");
        assert!(report.stages.iter().any(|s| s.events > 0));
    }
}
