//! Degenerate shapes and sizes through the verifier, and agreement
//! between the static verifier's conflict verdict and the meshsim
//! simulator's *observed* link sharing on the same machine.

use intercom::ir::PlanOp;
use intercom::{Algo, Comm, Communicator};
use intercom_cost::{
    enumerate_mesh_strategies, enumerate_strategies, MachineParams, Strategy, StrategyKind,
};
use intercom_meshsim::{simulate, NetSpec, SimConfig, Trace};
use intercom_topology::Mesh2D;
use intercom_verify::verify_schedule;

fn machine() -> MachineParams {
    MachineParams {
        alpha: 5.0,
        beta: 1.0,
        gamma: 0.0,
        delta: 0.0,
        link_excess: 1.0,
    }
}

fn all_ops(p: usize) -> Vec<(PlanOp, bool)> {
    let root = p - 1;
    vec![
        (PlanOp::Broadcast { root }, true),
        (PlanOp::Reduce { root }, true),
        (PlanOp::AllReduce, true),
        (PlanOp::ReduceScatter, true),
        (PlanOp::Collect, true),
        (PlanOp::Scatter { root }, false),
        (PlanOp::Gather { root }, false),
        (PlanOp::Alltoall, false),
        (PlanOp::PipelinedBcast { root, segments: 3 }, false),
    ]
}

#[test]
fn single_node_everything_verifies_with_no_events() {
    let mesh = Mesh2D::new(1, 1);
    let st = Strategy::pure_mst(1);
    for n in [0, 5] {
        for (op, takes) in all_ops(1) {
            let r = verify_schedule(&op, takes.then_some(&st), &mesh, n).unwrap();
            assert!(r.ok(), "p=1 {op} n={n}: {r}");
            assert_eq!(r.event_count, 0, "p=1 {op} moves no bytes");
            assert!(r.conflict_free);
        }
    }
}

#[test]
fn zero_byte_payloads_verify_on_every_shape_of_six() {
    for (rows, cols) in [(1, 6), (2, 3), (3, 2), (6, 1)] {
        let mesh = Mesh2D::new(rows, cols);
        let strategies = if rows == 1 {
            enumerate_strategies(6, 0)
        } else {
            enumerate_mesh_strategies(rows, cols, 0)
        };
        for st in &strategies {
            for (op, takes) in all_ops(6) {
                let r = verify_schedule(&op, takes.then_some(st), &mesh, 0).unwrap();
                assert!(r.ok(), "{rows}x{cols} {op} n=0 strategy {st}: {r}");
            }
        }
    }
}

#[test]
fn single_row_and_single_column_verify_identically() {
    // A p×1 machine is the 1×p machine with X and Y exchanged; XY
    // routing differs but the conflict verdicts must match.
    for p in [5, 8] {
        let row = Mesh2D::new(1, p);
        let col = Mesh2D::new(p, 1);
        for st in enumerate_strategies(p, 0) {
            for (op, takes) in all_ops(p) {
                let a = verify_schedule(&op, takes.then_some(&st), &row, 8).unwrap();
                let b = verify_schedule(&op, takes.then_some(&st), &col, 8).unwrap();
                assert!(a.ok(), "1x{p} {op} strategy {st}: {a}");
                assert!(b.ok(), "{p}x1 {op} strategy {st}: {b}");
                assert_eq!(
                    a.conflict_free, b.conflict_free,
                    "row/column verdicts diverge for {op} strategy {st}"
                );
            }
        }
    }
}

/// Maximum number of time-overlapping transfers sharing one directed
/// link slot in a simulator trace.
fn sim_max_sharing(trace: &Trace, net: &NetSpec) -> usize {
    let recs = trace.records();
    let routes: Vec<Vec<u32>> = recs
        .iter()
        .map(|r| {
            let mut slots = Vec::new();
            net.route_slots(r.src, r.dst, 0, &mut slots);
            slots
        })
        .collect();
    let mut max = 0;
    for i in 0..recs.len() {
        for slot in &routes[i] {
            // Count transfers overlapping transfer i in time that use
            // this slot (strict interior overlap, as in the §4 tests).
            let a = &recs[i];
            let sharing = (0..recs.len())
                .filter(|&j| {
                    let b = &recs[j];
                    let overlap = j == i || (a.start < b.end - 1e-12 && b.start < a.end - 1e-12);
                    overlap && routes[j].contains(slot)
                })
                .count();
            max = max.max(sharing);
        }
    }
    max
}

#[test]
fn verifier_and_simulator_agree_conflict_free_collect_on_mesh() {
    // §7.1 staged collect on a 3×4 mesh: rows then columns, every stage
    // on dedicated links. The verifier proves it conflict-free; the
    // simulator's observed trace must concur.
    let mesh = Mesh2D::new(3, 4);
    let st = Strategy::on_mesh(vec![4, 3], StrategyKind::ScatterCollect, 1);
    let r = verify_schedule(&PlanOp::Collect, Some(&st), &mesh, 12).unwrap();
    assert!(r.ok(), "{r}");
    assert!(r.conflict_free, "{r}");

    let m = machine();
    let algo = Algo::Hybrid(st);
    let cfg = SimConfig::new(mesh, m).with_trace();
    let rep = simulate(&cfg, move |c| {
        let cc = Communicator::world_on_mesh(c, m, mesh).unwrap();
        let mine = vec![c.rank() as u8; 12];
        let mut all = vec![0u8; 12 * 12];
        cc.allgather_with(&mine, &mut all, &algo).unwrap();
    });
    assert_eq!(sim_max_sharing(&rep.trace.unwrap(), &cfg.net), 1);
}

#[test]
fn verifier_and_simulator_agree_interleaved_broadcast_conflicts() {
    // Control case: a (2×6, SSCC) broadcast on a 1×12 array interleaves
    // two dim-1 groups over shared links (conflict factor 2). The
    // verifier must report sharing within the §6 bound but *not*
    // conflict-free — and the simulator must actually observe sharing.
    let mesh = Mesh2D::new(1, 12);
    let st = Strategy::new(vec![2, 6], StrategyKind::ScatterCollect);
    let r = verify_schedule(&PlanOp::Broadcast { root: 0 }, Some(&st), &mesh, 1200).unwrap();
    assert!(r.ok(), "within cost-model bounds: {r}");
    assert!(!r.conflict_free, "interleaving must be reported: {r}");
    assert!(r.max_link_sharing >= 2);
    let lvl1 = r.levels.iter().find(|l| l.level == 1).expect("level 1");
    assert_eq!(lvl1.predicted, 2, "stride of dim 1 is 2");
    assert!(lvl1.observed <= 2);

    let m = machine();
    let st2 = st.clone();
    let cfg = SimConfig::new(mesh, m).with_trace();
    let rep = simulate(&cfg, move |c| {
        let cc = Communicator::world_on_mesh(c, m, mesh).unwrap();
        let mut buf = vec![c.rank() as u8; 1200];
        cc.bcast_with(0, &mut buf, &Algo::Hybrid(st2.clone()))
            .unwrap();
    });
    assert!(
        sim_max_sharing(&rep.trace.unwrap(), &cfg.net) >= 2,
        "simulator must observe the interleaving the verifier predicts"
    );
}
