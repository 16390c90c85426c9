//! Multi-tenant workloads built from the `intercom::groups` embedding
//! machinery, end to end through `verify_concurrent` — and agreement
//! between the static composite contention bound and the link
//! concurrency the meshsim simulator actually observes.

use intercom::groups::{col_members, row_members, submesh_members};
use intercom::ir::PlanOp;
use intercom::{Comm, Communicator};
use intercom_cost::{MachineParams, Strategy};
use intercom_meshsim::{simulate, LinkConcurrency, SimConfig};
use intercom_topology::Mesh2D;
use intercom_verify::{tenant_tag_base, verify_concurrent, ConcurrentViolation, Tenant, Workload};

fn machine() -> MachineParams {
    MachineParams {
        alpha: 5.0,
        beta: 1.0,
        gamma: 0.0,
        delta: 0.0,
        link_excess: 1.0,
    }
}

/// Row tenant `r` of `mesh` running a ring collect.
fn row_tenant(mesh: &Mesh2D, r: usize, idx: usize) -> Tenant {
    let members = row_members(mesh, r);
    let st = Strategy::pure_long(members.len());
    Tenant::lowered(
        format!("row{r}"),
        &PlanOp::Collect,
        Some(&st),
        2 * members.len(),
        members,
        tenant_tag_base(idx),
    )
    .unwrap()
}

/// Column tenant `c` of `mesh` running an MST allreduce.
fn col_tenant(mesh: &Mesh2D, c: usize, idx: usize) -> Tenant {
    let members = col_members(mesh, c);
    let st = Strategy::pure_mst(members.len());
    Tenant::lowered(
        format!("col{c}"),
        &PlanOp::AllReduce,
        Some(&st),
        8,
        members,
        tenant_tag_base(idx),
    )
    .unwrap()
}

#[test]
fn all_rows_and_columns_coexist_on_3x3() {
    // Every row and every column at once: each node hosts one row rank
    // and one column rank. Tags, buffers and schedules must all prove
    // disjoint; row links and column links never meet.
    let mesh = Mesh2D::new(3, 3);
    let mut tenants = Vec::new();
    for r in 0..3 {
        tenants.push(row_tenant(&mesh, r, tenants.len()));
    }
    for c in 0..3 {
        tenants.push(col_tenant(&mesh, c, tenants.len()));
    }
    let report = verify_concurrent(&Workload::new(mesh, tenants));
    assert!(report.ok(), "unexpected violations: {report}");
    assert!(report.steps > 0);
    assert_eq!(report.tenants.len(), 6);
}

#[test]
fn all_rows_and_columns_coexist_on_4x4() {
    let mesh = Mesh2D::new(4, 4);
    let mut tenants = Vec::new();
    for r in 0..4 {
        tenants.push(row_tenant(&mesh, r, tenants.len()));
    }
    for c in 0..4 {
        tenants.push(col_tenant(&mesh, c, tenants.len()));
    }
    let report = verify_concurrent(&Workload::new(mesh, tenants));
    assert!(report.ok(), "unexpected violations: {report}");
    // Row traffic is horizontal, column traffic vertical: the §7.1
    // separation means no shared directed link at all.
    assert!(report.contention.interference_free(), "{report}");
}

#[test]
fn overlapping_submeshes_on_3x3_are_safe_with_distinct_bases() {
    // 2×2 submeshes at (0,0) and (1,1) share node 4. XY routes stay
    // inside each rectangle, so only the node is contested — and tag
    // residues plus per-tenant memory windows keep it safe.
    let mesh = Mesh2D::new(3, 3);
    let st = Strategy::pure_mst(4);
    let mk = |name: &str, r0: usize, c0: usize, idx: usize| {
        Tenant::lowered(
            name,
            &PlanOp::Broadcast { root: 0 },
            Some(&st),
            32,
            submesh_members(&mesh, r0, c0, 2, 2),
            tenant_tag_base(idx),
        )
        .unwrap()
    };
    let report = verify_concurrent(&Workload::new(
        mesh,
        vec![mk("nw", 0, 0, 0), mk("se", 1, 1, 1)],
    ));
    assert!(report.ok(), "unexpected violations: {report}");
}

#[test]
fn degenerate_1xp_row_with_singleton_columns() {
    // On a 1×5 array the "columns" are single nodes: one whole-row
    // tenant plus two singleton tenants must coexist trivially.
    let mesh = Mesh2D::new(1, 5);
    let row = row_tenant(&mesh, 0, 0);
    let lone = |c: usize, idx: usize| {
        Tenant::lowered(
            format!("lone{c}"),
            &PlanOp::Broadcast { root: 0 },
            Some(&Strategy::pure_mst(1)),
            4,
            col_members(&mesh, c),
            tenant_tag_base(idx),
        )
        .unwrap()
    };
    let report = verify_concurrent(&Workload::new(mesh, vec![row, lone(1, 1), lone(3, 2)]));
    assert!(report.ok(), "unexpected violations: {report}");
    assert!(report.contention.interference_free());
}

#[test]
fn disjoint_submeshes_on_1x8_partition_cleanly() {
    let mesh = Mesh2D::new(1, 8);
    let mk = |name: &str, c0: usize, cols: usize, idx: usize| {
        Tenant::lowered(
            name,
            &PlanOp::Collect,
            Some(&Strategy::pure_long(cols)),
            cols * 2,
            submesh_members(&mesh, 0, c0, 1, cols),
            tenant_tag_base(idx),
        )
        .unwrap()
    };
    let report = verify_concurrent(&Workload::new(
        mesh,
        vec![mk("left", 0, 4, 0), mk("right", 4, 4, 1)],
    ));
    assert!(report.ok(), "unexpected violations: {report}");
    assert!(report.contention.interference_free());
}

#[test]
fn colliding_bases_on_shared_submesh_are_rejected_with_attribution() {
    let mesh = Mesh2D::new(3, 3);
    let st = Strategy::pure_mst(4);
    let mk = |name: &str| {
        Tenant::lowered(
            name,
            &PlanOp::Broadcast { root: 0 },
            Some(&st),
            16,
            submesh_members(&mesh, 0, 0, 2, 2),
            tenant_tag_base(0), // same base on the same nodes: collision
        )
        .unwrap()
    };
    let report = verify_concurrent(&Workload::new(mesh, vec![mk("first"), mk("second")]));
    let collision = report
        .violations
        .iter()
        .find_map(|v| match v {
            ConcurrentViolation::TagCollision {
                tenant_a, tenant_b, ..
            } => Some((tenant_a.clone(), tenant_b.clone())),
            _ => None,
        })
        .expect("tag collision must be reported");
    assert_eq!(collision, ("first".into(), "second".into()));
}

#[test]
fn composite_contention_matches_simulator_observation() {
    // Interleaved pair groups {0,2} and {1,3} on a 1×4 array, each
    // broadcasting within its group: both transfers cross directed link
    // n1→E. The static analyzer bounds the composite sharing at 2
    // (solo max 1); the simulator, running both groups concurrently,
    // must observe exactly that peak on exactly that link.
    const N: usize = 64;
    let mesh = Mesh2D::new(1, 4);
    let st = Strategy::pure_mst(2);
    let mk = |name: &str, members: Vec<usize>, idx: usize| {
        Tenant::lowered(
            name,
            &PlanOp::Broadcast { root: 0 },
            Some(&st),
            N,
            members,
            tenant_tag_base(idx),
        )
        .unwrap()
    };
    let report = verify_concurrent(&Workload::new(
        mesh,
        vec![mk("even", vec![0, 2], 0), mk("odd", vec![1, 3], 1)],
    ));
    assert!(report.ok(), "unexpected violations: {report}");
    assert_eq!(report.contention.solo_max, 1);
    assert_eq!(report.contention.composite_max, 2);
    let worst = report.worst_link.clone().expect("a contended link");

    // Now run the same workload for real: each rank joins its group
    // communicator and broadcasts. Group ranks are disjoint node sets,
    // so the direct-execution simulator can co-run them.
    let m = machine();
    let cfg = SimConfig::new(mesh, m).with_trace();
    let rep = simulate(&cfg, move |c| {
        let members = if c.rank() % 2 == 0 {
            vec![0, 2]
        } else {
            vec![1, 3]
        };
        let cc = Communicator::from_group(c, m, members, Some(&mesh)).unwrap();
        let mut buf = vec![c.rank() as u8; N];
        cc.bcast(0, &mut buf).unwrap();
    });
    let conc = LinkConcurrency::from_trace(&rep.trace.unwrap(), &cfg.net);
    let (slot, peak) = conc.max_peak();
    assert_eq!(
        peak, report.contention.composite_max,
        "simulator peak must match the static composite bound"
    );
    // The contended link is the same one the analyzer names: slot of
    // n1→E on a 1×4 mesh.
    let mut slots = Vec::new();
    cfg.net.route_slots(1, 2, 0, &mut slots);
    assert_eq!(slot, slots[0] as usize, "same worst link (static: {worst})");
}
