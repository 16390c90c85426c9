//! Acceptance test for the closed observe→drift→refit→re-select loop
//! (the ROADMAP's "closed-loop autotuning from observed residuals").
//!
//! A simulated machine whose true β is 2× the configured Paragon model
//! runs production collectives; the residual reports stream into an
//! [`AutoTuner`]. The loop must: raise a [`DriftVerdict`] once the
//! confidence gate opens, refit β within 10% of the truth, invalidate
//! the stale cached plans, and re-select a strategy the cost model
//! prices cheaper than the stale choice — with the whole transaction
//! visible in the metrics registry.

use intercom_suite::cost::{
    choose, hybrid_cost, CollectiveOp, CostContext, GroupShape, HierChoice, HierMachine,
    MachineParams, Strategy,
};
use intercom_suite::driver::{record_sim, residual_report};
use intercom_suite::intercom::ir::{global_cache, BoundProgram};
use intercom_suite::intercom::ir::{OptLevel, PlanCache, PlanKey, PlanOp};
use intercom_suite::intercom::{AutoTuner, Communicator, TrackedShape};
use intercom_suite::intercom::{Comm, DefaultPath, Result, Tag, CALL_TAG_STRIDE};
use intercom_suite::meshsim::{simulate, SimConfig};
use intercom_suite::obs::metrics;
use intercom_suite::obs::ResidualReport;
use intercom_suite::runtime::{run_world, ThreadComm};
use intercom_suite::topology::Mesh2D;
use std::cell::Cell;
use std::sync::Mutex;

/// Both tests retune through the process-wide plan cache and publish to
/// the metrics registry, whose counters the first one reads: one at a
/// time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn doubled_beta_closes_the_loop_end_to_end() {
    let _serial = serial();
    metrics::set_enabled(true);
    metrics::global().clear();

    let configured = MachineParams::PARAGON_MODEL;
    let mut true_machine = configured;
    true_machine.beta *= 2.0;

    // The call shape under test sits at the MST/SC crossover: under the
    // configured β the selector picks the minimum-spanning-tree
    // broadcast, under the doubled (degraded-bandwidth) β the
    // scatter-collect hybrid wins.
    let p = 8usize;
    let n = 16384usize;
    let pick = |machine: MachineParams| {
        let shape = GroupShape::Linear(p);
        match choose(
            CollectiveOp::Broadcast,
            shape,
            n,
            &HierMachine::flat(machine),
        ) {
            HierChoice::Flat(s) => s,
            HierChoice::Hier(h) => panic!("a line selected the hybrid {h}"),
        }
    };
    let (stale, fresh_truth) = (pick(configured), pick(true_machine));
    assert_ne!(stale, fresh_truth, "the shape must sit at a crossover");

    let mut tuner = AutoTuner::new(configured);
    tuner.track(TrackedShape {
        op: PlanOp::Broadcast { root: 0 },
        shape: GroupShape::Linear(p),
        n,
        elem_size: 1,
    });
    let cache = PlanCache::new();
    let key = |p: usize, strategy: Strategy| PlanKey {
        op: PlanOp::Broadcast { root: 0 },
        p,
        n,
        elem_size: 1,
        strategy: Some(strategy),
        hier: None,
        opt: OptLevel::Full,
    };
    // A bystander: the same op and length planned for another group
    // size shares the cache and must survive the retune.
    let bystander = key(12, Strategy::pure_mst(12));
    cache
        .warm_up([key(p, stale.clone()), bystander.clone()])
        .expect("stale plan compiles");
    assert_eq!(cache.stats().entries, 2);

    // Production feedback: run the collective on the *true* (degraded)
    // simulated machine, fold against the *configured* parameters. The
    // scatter-collect strategy gives the α̂/β̂ fit two independent
    // stages.
    let op = PlanOp::Broadcast { root: 0 };
    let fit_strategy = Strategy::pure_long(p);
    let mut retune = None;
    let mut reports = Vec::new();
    for fed in 1..=8 {
        let rec = record_sim(&op, Some(&fit_strategy), Mesh2D::new(1, p), n, true_machine);
        let report = residual_report(&rec, &op, &fit_strategy, &configured, n)
            .expect("broadcast has a cost-model counterpart");
        let verdict = tuner.observe_with_cache(&report, &cache);
        reports.push(report);
        if let Some(r) = verdict {
            assert!(fed >= 3, "confidence gate must hold until min_samples");
            retune = Some(r);
            break;
        }
    }
    let retune = retune.expect("2x beta must raise a drift verdict");

    // Refit accuracy: β̂ within 10% of the true machine.
    let beta_err = (retune.new_params.beta - true_machine.beta).abs() / true_machine.beta;
    assert!(
        beta_err <= 0.10,
        "refit β {} vs true {} (err {:.1}%)",
        retune.new_params.beta,
        true_machine.beta,
        beta_err * 100.0
    );
    assert_eq!(retune.version, 2, "first refit bumps the params version");

    // The stale plan was invalidated and the new winner re-warmed.
    assert_eq!(retune.invalidated, 1, "the warmed stale plan is retired");
    assert_eq!(retune.warmed, 1, "the new choice is compiled eagerly");
    assert_eq!(cache.stats().invalidations, 1);
    let before = cache.stats();
    cache
        .get_or_compile(&bystander)
        .expect("bystander compiles");
    assert_eq!(
        cache.stats().delta(&before).hits,
        1,
        "another group size's plan is not this shape's to retire"
    );

    // Re-selection: the new strategy matches what the selector would
    // choose with perfect knowledge, and the cost model prices it
    // strictly cheaper than the stale choice under the refit params.
    let r = retune
        .reselections
        .iter()
        .find(|r| r.shape.op == PlanOp::Broadcast { root: 0 })
        .expect("the tracked broadcast shape re-selects");
    assert_eq!(r.old, HierChoice::Flat(stale.clone()));
    assert_eq!(r.new, HierChoice::Flat(fresh_truth.clone()));
    assert!(
        r.new_cost < r.old_cost,
        "re-selected {} ({:.3e}s) must beat stale {} ({:.3e}s)",
        r.new,
        r.new_cost,
        r.old,
        r.old_cost
    );
    // And under the *true* machine the switch is a real win too.
    let ctx = CostContext::linear_with(&true_machine);
    let price = |s: &Strategy| hybrid_cost(CollectiveOp::Broadcast, s, ctx).eval(n, &true_machine);
    assert!(price(&fresh_truth) < price(&stale));

    // The transaction is visible in the always-on telemetry.
    let snap = metrics::global().snapshot();
    assert_eq!(snap.counter_total("intercom_refits_total"), 1);
    assert!(snap.counter_total("intercom_drift_verdicts_total") >= 1);
    assert_eq!(
        snap.gauge("intercom_machine_params_version", &[]),
        Some(2.0)
    );
    assert!(
        snap.gauge("intercom_plancache_invalidations_total", &[])
            .unwrap_or(0.0)
            >= 1.0
    );
    // The sim runs themselves were metered while the switch was on.
    let sim_hist = snap
        .histogram("intercom_sim_elapsed_seconds", &[("p", "8")])
        .expect("sim elapsed histogram populated");
    assert!(sim_hist.count() >= 3, "one observation per fed report");

    metrics::set_enabled(false);

    // Every rank's communicator, fed the same reports, adopts the refit:
    // its next automatic selection is priced under the new parameters.
    let picks = run_world(p, |c| {
        let mut cc = Communicator::world(c, configured);
        cc.attach_tuner(AutoTuner::new(configured));
        let before = cc.auto_strategy(CollectiveOp::Broadcast, n);
        for report in &reports {
            cc.observe(report);
        }
        (before, cc.auto_strategy(CollectiveOp::Broadcast, n))
    });
    assert!(picks.iter().all(|(a, b)| *a == stale && *b == fresh_truth));
}

/// A threaded endpoint that notes the length of every program its
/// default path runs on it.
struct Programs<'a> {
    comm: &'a ThreadComm,
    last: Cell<usize>,
}

impl Comm for Programs<'_> {
    fn rank(&self) -> usize {
        self.comm.rank()
    }
    fn size(&self) -> usize {
        self.comm.size()
    }
    fn send(&self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.comm.send(to, tag, data)
    }
    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> Result<()> {
        self.comm.recv(from, tag, buf)
    }
    fn sendrecv(&self, to: usize, d: &[u8], from: usize, b: &mut [u8], tag: Tag) -> Result<()> {
        self.comm.sendrecv(to, d, from, b, tag)
    }
    fn default_path(&self) -> DefaultPath {
        self.comm.default_path()
    }
    fn run_program(&self, prog: &mut BoundProgram<'_>) -> Result<()> {
        self.last.set(prog.steps().len());
        self.comm.run_program(prog)
    }
}

/// The crossover shape of the first test — an 8-rank broadcast of
/// 16 KiB: MST under the configured Paragon, scatter-collect once β
/// doubles — with the reports a machine of doubled β feeds back, and
/// the choices under the configured and the true machine.
struct Crossover {
    p: usize,
    n: usize,
    op: PlanOp,
    configured: MachineParams,
    reports: Vec<ResidualReport>,
    stale: HierChoice,
    fresh: HierChoice,
}

fn crossover() -> Crossover {
    let (p, n) = (8usize, 16384usize);
    let configured = MachineParams::PARAGON_MODEL;
    let mut true_machine = configured;
    true_machine.beta *= 2.0;
    let op = PlanOp::Broadcast { root: 0 };
    let fit_strategy = Strategy::pure_long(p);
    let reports: Vec<ResidualReport> = (0..8)
        .map(|_| {
            let rec = record_sim(&op, Some(&fit_strategy), Mesh2D::new(1, p), n, true_machine);
            residual_report(&rec, &op, &fit_strategy, &configured, n).expect("priced")
        })
        .collect();
    let pick = |machine: MachineParams| {
        let shape = GroupShape::Linear(p);
        choose(
            CollectiveOp::Broadcast,
            shape,
            n,
            &HierMachine::flat(machine),
        )
    };
    let (stale, fresh) = (pick(configured), pick(true_machine));
    assert_ne!(stale, fresh, "the shape must sit at a crossover");
    Crossover {
        p,
        n,
        op,
        configured,
        reports,
        stale,
        fresh,
    }
}

#[test]
fn a_threaded_refit_reselects_the_next_auto_call() {
    let _serial = serial();
    let Crossover {
        p,
        n,
        op,
        configured,
        reports,
        stale,
        fresh,
    } = crossover();
    // Each rank's deployed steps under either choice.
    let lengths = |choice: &HierChoice| {
        let key = PlanKey::frozen(op, p, n, 1, Some(choice));
        let prog = global_cache().get_or_compile(&key).unwrap();
        prog.ranks.iter().map(|r| r.steps.len()).collect::<Vec<_>>()
    };
    let (stale_steps, fresh_steps) = (lengths(&stale), lengths(&fresh));
    assert_ne!(stale_steps, fresh_steps);

    let out = run_world(p, |c| {
        let programs = Programs {
            comm: c,
            last: Cell::new(0),
        };
        let mut cc = Communicator::world(&programs, configured);
        cc.attach_tuner(AutoTuner::new(configured));
        let mut buf = vec![c.rank() as u8; n];
        // A shape's first call runs the direct path, its second the
        // program — after the refit as before it.
        cc.bcast(0, &mut buf).unwrap();
        cc.bcast(0, &mut buf).unwrap();
        let before = programs.last.get();
        let refit = reports.iter().find_map(|r| cc.observe(r)).is_some();
        cc.bcast(0, &mut buf).unwrap();
        cc.bcast(0, &mut buf).unwrap();
        (
            refit,
            before,
            programs.last.get(),
            buf.iter().all(|&b| b == 0),
        )
    });
    for (rank, got) in out.iter().enumerate() {
        let want = (true, stale_steps[rank], fresh_steps[rank], true);
        assert_eq!(*got, want, "rank {rank}");
    }
}

#[test]
fn a_simulated_refit_warms_the_program_the_next_auto_call_runs() {
    let _serial = serial();
    let Crossover {
        p,
        n,
        op,
        configured,
        reports,
        fresh,
        ..
    } = crossover();
    let key = PlanKey::frozen(op, p, n, 1, Some(&fresh));
    let cfg = SimConfig::new(Mesh2D::new(1, p), configured).with_trace();
    let report = simulate(&cfg, |c| {
        let mut cc = Communicator::world(c, configured);
        cc.attach_tuner(AutoTuner::new(configured));
        let mut buf = vec![c.rank() as u8; n];
        cc.bcast(0, &mut buf).unwrap();
        let refit = reports.iter().find_map(|r| cc.observe(r)).is_some();
        // Every rank's retune re-warms the shape's program: no rank
        // looks it up before all of them are done.
        cc.barrier().unwrap();
        let missing = global_cache().warm_up([key.clone()]).unwrap();
        cc.bcast(0, &mut buf).unwrap();
        (refit, missing, buf.iter().all(|&b| b == 0))
    });
    assert!(report.results.iter().all(|&r| r == (true, 0, true)));
    // The call after the barrier (the communicator's third) ran the
    // warmed program: every one of its transfers carries its id.
    let warmed = global_cache().get_or_compile(&key).unwrap();
    let trace = report.trace.unwrap();
    let third: Vec<_> = trace
        .records()
        .iter()
        .filter(|e| e.tag / CALL_TAG_STRIDE == 2)
        .collect();
    assert!(!third.is_empty());
    for e in third {
        assert_eq!(e.plan, warmed.plan_id, "{e:?}");
    }
}
