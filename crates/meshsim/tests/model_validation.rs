//! Analytic-vs-simulated validation: for conflict-free primitives the
//! simulator must land *exactly* on the paper's closed-form costs, and
//! for conflicted hybrids it must land between the conflict-free and
//! fully-shared predictions.

use intercom::{Algo, Comm, Communicator, ReduceOp};
use intercom_cost::{CollectiveOp, CostContext, MachineParams, Strategy, StrategyKind};
use intercom_meshsim::{simulate, SimConfig};
use intercom_topology::Mesh2D;

fn machine() -> MachineParams {
    // Round numbers make mismatches easy to read.
    MachineParams {
        alpha: 10.0,
        beta: 1.0,
        gamma: 0.5,
        delta: 0.0,
        link_excess: 1.0,
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1.0)
}

#[test]
fn mst_broadcast_matches_formula_on_row() {
    for p in [2usize, 3, 5, 8, 13] {
        for n in [0usize, 64, 1000] {
            let cfg = SimConfig::new(Mesh2D::new(1, p), machine());
            let rep = simulate(&cfg, |c| {
                let cc = Communicator::world(c, machine());
                let mut buf = vec![c.rank() as u8; n];
                cc.bcast_with(0, &mut buf, &Algo::Short).unwrap();
            });
            let predicted = intercom_cost::collective::short_cost(
                CollectiveOp::Broadcast,
                p,
                CostContext::LINEAR,
            )
            .eval(n, &machine());
            assert!(
                close(rep.elapsed, predicted),
                "MST bcast p={p} n={n}: sim {} vs model {predicted}",
                rep.elapsed
            );
        }
    }
}

#[test]
fn bucket_collect_matches_formula_on_row() {
    // (p−1)α + ((p−1)/p)nβ for p | n.
    for p in [2usize, 4, 6, 10] {
        let n = 120 * p; // divisible: all blocks equal
        let b = n / p;
        let cfg = SimConfig::new(Mesh2D::new(1, p), machine());
        let rep = simulate(&cfg, |c| {
            let cc = Communicator::world(c, machine());
            let mine = vec![c.rank() as u8; b];
            let mut all = vec![0u8; n];
            cc.allgather_with(&mine, &mut all, &Algo::Long).unwrap();
        });
        let predicted =
            intercom_cost::collective::long_cost(CollectiveOp::Collect, p, CostContext::LINEAR)
                .eval(n, &machine());
        assert!(
            close(rep.elapsed, predicted),
            "bucket collect p={p}: sim {} vs model {predicted}",
            rep.elapsed
        );
    }
}

#[test]
fn bucket_reduce_scatter_matches_formula_on_row() {
    // (p−1)α + ((p−1)/p)nβ + ((p−1)/p)nγ.
    for p in [2usize, 5, 8] {
        let n = 80 * p;
        let b = n / p;
        let cfg = SimConfig::new(Mesh2D::new(1, p), machine());
        let rep = simulate(&cfg, |c| {
            let cc = Communicator::world(c, machine());
            let contrib = vec![c.rank() as u8; n];
            let mut mine = vec![0u8; b];
            cc.reduce_scatter_with(&contrib, &mut mine, ReduceOp::Sum, &Algo::Long)
                .unwrap();
        });
        let predicted = intercom_cost::collective::long_cost(
            CollectiveOp::DistributedCombine,
            p,
            CostContext::LINEAR,
        )
        .eval(n, &machine());
        assert!(
            close(rep.elapsed, predicted),
            "bucket RS p={p}: sim {} vs model {predicted}",
            rep.elapsed
        );
    }
}

#[test]
fn long_broadcast_matches_formula_on_row() {
    // scatter + collect: (⌈log p⌉ + p − 1)α + 2((p−1)/p)nβ.
    for p in [2usize, 4, 8] {
        let n = 64 * p;
        let cfg = SimConfig::new(Mesh2D::new(1, p), machine());
        let rep = simulate(&cfg, |c| {
            let cc = Communicator::world(c, machine());
            let mut buf = vec![1u8; n];
            cc.bcast_with(0, &mut buf, &Algo::Long).unwrap();
        });
        let predicted =
            intercom_cost::collective::long_cost(CollectiveOp::Broadcast, p, CostContext::LINEAR)
                .eval(n, &machine());
        assert!(
            close(rep.elapsed, predicted),
            "long bcast p={p}: sim {} vs model {predicted}",
            rep.elapsed
        );
    }
}

#[test]
fn long_allreduce_matches_formula_on_row() {
    // 2(p−1)α + 2((p−1)/p)nβ + ((p−1)/p)nγ.
    for p in [2usize, 6] {
        let n = 60 * p;
        let cfg = SimConfig::new(Mesh2D::new(1, p), machine());
        let rep = simulate(&cfg, |c| {
            let cc = Communicator::world(c, machine());
            let mut buf = vec![1u8; n];
            cc.allreduce_with(&mut buf, ReduceOp::Sum, &Algo::Long)
                .unwrap();
        });
        let predicted = intercom_cost::collective::long_cost(
            CollectiveOp::CombineToAll,
            p,
            CostContext::LINEAR,
        )
        .eval(n, &machine());
        assert!(
            close(rep.elapsed, predicted),
            "long allreduce p={p}: sim {} vs model {predicted}",
            rep.elapsed
        );
    }
}

#[test]
fn delta_overhead_shows_up_in_short_primitives() {
    let with_delta = MachineParams {
        delta: 2.0,
        ..machine()
    };
    let p = 8;
    let cfg = SimConfig::new(Mesh2D::new(1, p), with_delta);
    let rep = simulate(&cfg, |c| {
        let cc = Communicator::world(c, with_delta);
        let mut buf = vec![0u8; 8];
        cc.bcast_with(0, &mut buf, &Algo::Short).unwrap();
    });
    let base =
        intercom_cost::collective::short_cost(CollectiveOp::Broadcast, p, CostContext::LINEAR)
            .eval(8, &with_delta);
    // Each rank walks ⌈log p⌉ = 3 levels; total ≥ base (which includes
    // 3δ via the delta coefficient).
    assert!(
        close(rep.elapsed, base),
        "delta accounting: sim {} vs model {base}",
        rep.elapsed
    );
}

#[test]
fn hybrid_on_linear_array_lands_between_bounds() {
    // SMC on 2×15 over a 1×30 row: the conflict-free MESH context is a
    // lower bound, the fully-shared LINEAR context is the paper's §6
    // prediction; the fluid simulation must sit in [mesh, linear] — and
    // for the β-dominant regime, near the LINEAR value.
    let p = 30;
    let n = 30 * 512;
    let s = Strategy::new(vec![2, 15], StrategyKind::Mst);
    let cfg = SimConfig::new(Mesh2D::new(1, p), machine());
    let rep = simulate(&cfg, |c| {
        let cc = Communicator::world(c, machine());
        let mut buf = vec![1u8; n];
        cc.bcast_with(0, &mut buf, &Algo::Hybrid(s.clone()))
            .unwrap();
    });
    let lo = intercom_cost::collective::hybrid_cost(CollectiveOp::Broadcast, &s, CostContext::MESH)
        .eval(n, &machine());
    let hi =
        intercom_cost::collective::hybrid_cost(CollectiveOp::Broadcast, &s, CostContext::LINEAR)
            .eval(n, &machine());
    assert!(
        rep.elapsed >= lo - 1e-6 && rep.elapsed <= hi + 1e-6,
        "hybrid bcast: sim {} outside [{lo}, {hi}]",
        rep.elapsed
    );
}

#[test]
fn mesh_rows_and_columns_are_conflict_free() {
    // Bucket collect staged rows-then-columns on an r×c mesh: latency
    // (r + c − 2)α (§7.1). Use the auto-selected mesh strategy at a long
    // length and verify elapsed matches the MESH-context formula of the
    // chosen strategy exactly.
    let (r, c) = (4, 6);
    let p = r * c;
    let b = 256;
    let n = p * b;
    let m = machine();
    let mesh = Mesh2D::new(r, c);
    let shape = intercom_cost::GroupShape::Mesh { rows: r, cols: c };
    let strategy = intercom_cost::choose_flat(CollectiveOp::Collect, shape, n, &m);
    let cfg = SimConfig::new(mesh, m);
    let s2 = strategy.clone();
    let rep = simulate(&cfg, |comm| {
        let cc = Communicator::world_on_mesh(comm, m, mesh).unwrap();
        let mine = vec![comm.rank() as u8; b];
        let mut all = vec![0u8; n];
        cc.allgather_with(&mine, &mut all, &Algo::Hybrid(s2.clone()))
            .unwrap();
    });
    let predicted =
        intercom_cost::collective::hybrid_cost(CollectiveOp::Collect, &strategy, CostContext::MESH)
            .eval(n, &m);
    assert!(
        close(rep.elapsed, predicted),
        "mesh collect {strategy}: sim {} vs model {predicted}",
        rep.elapsed
    );
}

#[test]
fn simulated_results_match_threaded_backend() {
    // Functional equivalence across backends: identical bytes out.
    let p = 12;
    let n = 100;
    let run_threaded = intercom_runtime::run_world(p, |c| {
        let cc = Communicator::world(c, machine());
        let mut buf: Vec<i64> = (0..n).map(|i| (c.rank() * 31 + i) as i64).collect();
        cc.allreduce(&mut buf, ReduceOp::Sum).unwrap();
        buf
    });
    let cfg = SimConfig::new(Mesh2D::new(3, 4), machine());
    let run_sim = simulate(&cfg, |c| {
        let cc = Communicator::world(c, machine());
        let mut buf: Vec<i64> = (0..n).map(|i| (c.rank() * 31 + i) as i64).collect();
        cc.allreduce(&mut buf, ReduceOp::Sum).unwrap();
        buf
    });
    assert_eq!(run_threaded, run_sim.results);
}

#[test]
fn zeno_livelock_regression() {
    // Regression: an unsegmented MST global combine at this exact size
    // once produced a transfer whose residual flow time rounded to zero
    // at the current clock, stalling the event loop in infinitesimal
    // steps. The fix completes any transfer whose finish time rounds to
    // `now`. (Original trigger: 4×16 mesh, 900 000-byte vector, Paragon
    // parameters — must terminate in well under a second of host time.)
    let m = MachineParams::PARAGON;
    let mesh = Mesh2D::new(4, 16);
    let cfg = intercom_meshsim::SimConfig::new(mesh, m);
    let rep = intercom_meshsim::simulate(&cfg, |c| {
        let mut buf = vec![1.0f64; 900_000 / 8];
        intercom_nx::nx_gdsum(c, &mut buf).unwrap();
        buf[0]
    });
    assert!(rep.results.iter().all(|&x| x == 64.0));
    assert!(rep.elapsed > 0.0);
}
