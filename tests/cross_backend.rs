//! Cross-backend equivalence: the threaded backend and the mesh
//! simulator must produce byte-identical results for all seven
//! collectives, across world sizes covering the degenerate (p = 1),
//! odd/prime (p = 5), and composite (p = 12, where hybrid strategies
//! pick multi-dimensional logical meshes) cases, at both a short-vector
//! and a long-vector payload size.
//!
//! Byte-identical is a strong claim for floating point: it holds
//! because both backends run the *same* algorithm code under the same
//! cost-model strategy choice, so every reduction applies its folds in
//! the same order. A divergence means a backend changed semantics —
//! exactly what this test is standing guard against (e.g. the
//! zero-copy rendezvous path reordering or corrupting ring traffic).

use intercom::ir::{global_cache, BoundProgram, PlanKey, PlanOp};
use intercom::plan::AllreducePlan;
use intercom::{Comm, Communicator, DefaultPath, ReduceOp, Result, Tag};
use intercom_cost::{CollectiveOp, MachineParams};
use intercom_meshsim::{simulate, SimConfig};
use intercom_runtime::{run_world, ThreadComm};
use intercom_topology::Mesh2D;
use std::cell::Cell;
use std::collections::BTreeSet;

/// Deterministic, rank- and index-dependent test data with enough
/// structure that block permutation bugs can't cancel out.
fn elem(rank: usize, i: usize) -> f64 {
    (rank * 1_000 + i) as f64 * 0.5 + 1.0
}

/// Everything one rank observes after running all seven collectives.
#[derive(Clone, PartialEq, Debug)]
struct Outcome {
    bcast: Vec<f64>,
    reduce: Vec<f64>,
    allreduce: Vec<f64>,
    collect: Vec<f64>,
    reduce_scatter: Vec<f64>,
    scatter: Vec<f64>,
    gather: Vec<f64>,
}

/// Runs the seven collectives back-to-back on one backend's endpoint.
/// `n` is the per-rank block length; root-sized buffers scale by `p`.
fn run_suite<C: Comm + ?Sized>(c: &C, n: usize) -> Outcome {
    let cc = Communicator::world(c, MachineParams::PARAGON);
    let p = c.size();
    let me = c.rank();
    let root = p / 2;

    let mut bcast = (0..n).map(|i| elem(root, i)).collect::<Vec<_>>();
    if me != root {
        bcast.iter_mut().for_each(|x| *x = 0.0);
    }
    cc.bcast(root, &mut bcast).unwrap();

    let mut reduce = (0..n).map(|i| elem(me, i)).collect::<Vec<_>>();
    cc.reduce(root, &mut reduce, ReduceOp::Sum).unwrap();

    let mut allreduce = (0..n).map(|i| elem(me, i)).collect::<Vec<_>>();
    cc.allreduce(&mut allreduce, ReduceOp::Max).unwrap();

    let mine = (0..n).map(|i| elem(me, i)).collect::<Vec<_>>();
    let mut collect = vec![0.0; n * p];
    cc.allgather(&mine, &mut collect).unwrap();

    let contrib = (0..n * p).map(|i| elem(me, i)).collect::<Vec<_>>();
    let mut reduce_scatter = vec![0.0; n];
    cc.reduce_scatter(&contrib, &mut reduce_scatter, ReduceOp::Sum)
        .unwrap();

    let mut scatter = vec![0.0; n];
    let full = (me == root).then(|| (0..n * p).map(|i| elem(root, i)).collect::<Vec<_>>());
    cc.scatter(root, full.as_deref(), &mut scatter).unwrap();

    let mut gather = vec![0.0; if me == root { n * p } else { 0 }];
    let gather_in = (0..n).map(|i| elem(me, i)).collect::<Vec<_>>();
    cc.gather(root, &gather_in, (me == root).then_some(&mut gather[..]))
        .unwrap();

    Outcome {
        bcast,
        reduce,
        allreduce,
        collect,
        reduce_scatter,
        scatter,
        gather,
    }
}

fn threaded(p: usize, n: usize) -> Vec<Outcome> {
    run_world(p, |c| run_suite(c, n))
}

fn simulated(p: usize, n: usize) -> Vec<Outcome> {
    let cfg = SimConfig::new(Mesh2D::new(1, p), MachineParams::PARAGON);
    simulate(&cfg, move |c| run_suite(c, n)).results
}

#[test]
fn backends_agree_byte_for_byte() {
    for p in [1usize, 5, 12] {
        // 8 elements (64 B): short-vector / MST regime. 4096 elements
        // (32 KiB per block): long-vector / ring regime; on the
        // threaded backend the ring sendrecv blocks cross the
        // rendezvous (zero-copy) threshold for the larger size.
        for n in [8usize, 4096] {
            let t = threaded(p, n);
            let s = simulated(p, n);
            assert_eq!(t.len(), s.len());
            for (rank, (a, b)) in t.iter().zip(&s).enumerate() {
                assert_eq!(a, b, "backend divergence at p={p} n={n} rank={rank}");
            }
        }
    }
}

/// Rank `r` of two exchanges 64 KiB with its peer, first sending under
/// tag `5 + r` and receiving under `6 - r` (tags that pair up across the
/// two ranks, but differ within each exchange), then under one tag.
/// Returns whether the mixed-tag exchange failed and whether the
/// one-tag exchange delivered the peer's bytes.
fn mixed_then_equal<C: Comm + ?Sized>(c: &C) -> (bool, bool) {
    let (me, peer) = (c.rank(), 1 - c.rank());
    let data = vec![me as u8 + 1; 64 * 1024];
    let mut buf = vec![0u8; data.len()];
    let mixed = c.sendrecv_tagged(peer, &data, 5 + me as u64, peer, &mut buf, 6 - me as u64);
    let equal = c.sendrecv_tagged(peer, &data, 7, peer, &mut buf, 7);
    (
        mixed.is_err(),
        equal.is_ok() && buf.iter().all(|&b| b == peer as u8 + 1),
    )
}

/// An exchange is one recursion stage, under one tag: a mixed-tag
/// exchange is refused on both backends rather than run as a send then
/// a receive, which a rendezvousing long exchange would deadlock on.
#[test]
fn mixed_tag_exchanges_are_refused_on_both_backends() {
    let cfg = SimConfig::new(Mesh2D::new(1, 2), MachineParams::PARAGON);
    let outcomes = [
        run_world(2, mixed_then_equal),
        simulate(&cfg, mixed_then_equal).results,
    ];
    for (backend, got) in ["threads", "simulator"].into_iter().zip(outcomes) {
        assert_eq!(got, vec![(true, true); 2], "{backend}");
    }
}

/// A threaded endpoint that notes the id of every program run on it.
struct Programs<'a> {
    comm: &'a ThreadComm,
    ran: Cell<u64>,
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
        self.ran.set(prog.plan_id());
        self.comm.run_program(prog)
    }
}

/// One call shape compiles one program: the simulator's call, a
/// persistent plan of it and a threaded call from its second on run
/// the shape's deployed program, one `plan_id` between them.
#[test]
fn one_shape_runs_one_program_on_every_backend() {
    let (p, n) = (6usize, 40usize);
    let machine = MachineParams::PARAGON;
    let cfg = SimConfig::new(Mesh2D::new(1, p), machine).with_trace();
    let simulated = simulate(&cfg, |c| {
        let cc = Communicator::world(c, machine);
        let mut v = vec![c.rank() as f64; n];
        cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
        cc.auto_choice(CollectiveOp::CombineToAll, n * 8)
    });
    let choice = &simulated.results[0];
    let key = PlanKey::frozen(PlanOp::AllReduce, p, n, 8, Some(choice));
    let id = global_cache().get_or_compile(&key).unwrap().plan_id;
    let stamped: BTreeSet<u64> = simulated
        .trace
        .unwrap()
        .records()
        .iter()
        .map(|e| e.plan)
        .collect();
    assert_eq!(stamped, BTreeSet::from([id]), "the simulated call");
    let threaded = run_world(p, |c| {
        let programs = Programs {
            comm: c,
            ran: Cell::new(0),
        };
        let cc = Communicator::world(&programs, machine);
        let plan = AllreducePlan::<f64>::new(&cc, n, ReduceOp::Sum);
        let mut v = vec![c.rank() as f64; n];
        plan.execute(&cc, &mut v).unwrap();
        let planned = programs.ran.replace(0);
        cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
        let first = programs.ran.replace(0);
        cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
        let compiled = plan.program().unwrap().plan_id;
        (compiled, planned, first, programs.ran.get())
    });
    for (rank, ids) in threaded.iter().enumerate() {
        // The first call runs the direct path: no program.
        assert_eq!(*ids, (id, id, 0, id), "rank {rank}");
    }
}
