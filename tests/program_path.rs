//! The simulator's program path equals its direct path, and the
//! default program walk equals both.
//!
//! A `SimComm` runs programs its own way: every `Communicator` call
//! hands the engine the call's plain compiled program in one request,
//! and the engine walks it. Each call runs twice more through
//! [`Direct`], a wrapper that forwards only the point-to-point calls
//! and the clock hooks: once with its routing bit (`Comm::runs_programs`)
//! set, so the same program runs on `Comm::run_program`'s default walk,
//! one request per step; and once as the reference, with the bit at its
//! default, so the call runs the recursive algorithms, one request per
//! message.
//!
//! Equal means bit for bit: the elapsed virtual time, every rank's
//! clock, every buffer the call bound, and the transfer trace (source,
//! destination, tag, bytes, start, end, hops — everything but the
//! `(plan, step)` stamp, which only the engine's walk sets).

mod common;

use common::{all_ops, strategies, NODE_COUNTS};
use intercom::comm::GroupComm;
use intercom::ir::{
    cost_op, execute, global_cache, run_direct, OwnedArgs, PlanKey, PlanOp, StepKind,
};
use intercom::{Algo, Comm, Communicator, Elem, ReduceOp, Result, Tag, CALL_TAG_STRIDE};
use intercom_cost::{HierChoice, HierMachine, MachineParams, Strategy};
use intercom_meshsim::{simulate, SimComm, SimConfig, SimReport, TraceEvent};
use intercom_topology::{Cluster, Mesh2D};

/// Forwards rank, size, send, recv, sendrecv, compute and
/// call_overhead, and says `walks` to `runs_programs`; everything else
/// is the trait's default. So a call through it runs its program on the
/// default walk where it `walks`, and takes the direct path elsewhere.
struct Direct<'a, C: Comm + ?Sized> {
    comm: &'a C,
    walks: bool,
}

impl<C: Comm + ?Sized> Comm for Direct<'_, C> {
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

    fn sendrecv(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
    ) -> Result<()> {
        self.comm.sendrecv(to, data, from, buf, tag)
    }

    fn compute(&self, bytes: usize) {
        self.comm.compute(bytes);
    }

    fn call_overhead(&self) {
        self.comm.call_overhead();
    }

    fn runs_programs(&self) -> bool {
        self.walks
    }
}

/// A transfer as both paths must produce it: the trace record without
/// its `(plan, step)` stamp, times as bits.
type Transfer = (usize, usize, u64, usize, u64, u64, usize);

/// Everything a simulated world reports that the paths must agree on.
#[derive(Debug, PartialEq)]
struct Outcome<T> {
    elapsed: u64,
    clocks: Vec<u64>,
    results: Vec<T>,
    transfers: Vec<Transfer>,
}

fn outcome<T>(report: SimReport<T>) -> Outcome<T> {
    let mut transfers: Vec<Transfer> = report
        .trace
        .expect("traced world")
        .records()
        .iter()
        .map(|e| {
            let (start, end) = (e.start.to_bits(), e.end.to_bits());
            (e.src, e.dst, e.tag, e.bytes, start, end, e.hops)
        })
        .collect();
    transfers.sort_unstable();
    Outcome {
        elapsed: report.elapsed.to_bits(),
        clocks: report.clocks.iter().map(|c| c.to_bits()).collect(),
        results: report.results,
        transfers,
    }
}

/// Runs `body` on every rank of `cfg` three times — on the `SimComm`
/// itself (the engine's walk), through a [`Direct`] that walks (the
/// default walk) and through one that does not (the direct path) — and
/// asserts the three worlds agree bit for bit. Returns the engine
/// walk's results.
fn assert_paths_agree<T, F>(cfg: &SimConfig, what: &str, body: F) -> Vec<T>
where
    T: Send + PartialEq + std::fmt::Debug,
    F: Fn(&dyn Comm) -> T + Send + Sync,
{
    let cfg = cfg.with_trace();
    let run = |walks: Option<bool>| {
        outcome(simulate(&cfg, |comm: &SimComm| match walks {
            None => body(comm),
            Some(walks) => body(&Direct { comm, walks }),
        }))
    };
    let (engine, walk, direct) = (run(None), run(Some(true)), run(Some(false)));
    assert!(
        !engine.transfers.is_empty() || cfg.net.nodes() == 1,
        "{what}"
    );
    assert_eq!(engine, direct, "{what}: the engine's walk");
    assert_eq!(walk, direct, "{what}: the default walk");
    engine.results
}

/// Values whose sums round, so a fold in another order shows.
fn value(rank: usize, i: usize) -> f64 {
    1.0 / (3 + 7 * rank + i) as f64
}

/// One rank's call of `op` on the default path's terms: where the
/// routing bit is set the plain program through `execute`, elsewhere
/// `run_direct`. Returns the bits of every buffer the call bound.
fn call(c: &dyn Comm, op: PlanOp, choice: Option<&HierChoice>, n: usize) -> Vec<u64> {
    let (p, rank) = (c.size(), c.rank());
    let mut bufs = OwnedArgs::<f64>::new(op, p, n, rank);
    bufs.fill_contribution(op, rank, |i| value(rank, i));
    let gc = GroupComm::world(c);
    let (scratch, tag) = (&mut Vec::new(), 3 * CALL_TAG_STRIDE);
    let rop = ReduceOp::Sum;
    if c.runs_programs() {
        let key = PlanKey::plain(op, p, n, 8, choice);
        let prog = global_cache().get_or_compile(&key).unwrap();
        execute(&prog, &gc, rop, &mut bufs.bind(), scratch, tag).unwrap();
    } else {
        run_direct(op, choice, &gc, rop, &mut bufs.bind(), scratch, tag).unwrap();
    }
    let bound = bufs.slots.iter().filter_map(|(_, b)| b.as_deref());
    bound.flatten().map(|x| x.to_bits()).collect()
}

#[test]
fn every_op_and_strategy_runs_the_same_on_both_paths() {
    for p in NODE_COUNTS {
        let cfg = SimConfig::new(Mesh2D::new(1, p), MachineParams::PARAGON);
        for op in all_ops(p) {
            let choices: Vec<Option<HierChoice>> = match op.takes_strategy() {
                true => strategies(p)
                    .into_iter()
                    .map(HierChoice::Flat)
                    .map(Some)
                    .collect(),
                false => vec![None],
            };
            for choice in &choices {
                for n in [1, 13] {
                    let what = format!("{op} p={p} n={n} {choice:?}");
                    assert_paths_agree(&cfg, &what, |c| call(c, op, choice.as_ref(), n));
                }
            }
        }
    }
}

/// What `rank_body` of the benchmark's `sim-mesh` does, for one row:
/// one default-path call on the world's communicator, its result
/// summed into a checksum.
#[derive(Debug, Clone, Copy)]
enum Row {
    Bcast(usize),
    Allgather(usize),
    Allreduce(usize),
}

fn default_path_call<C: Comm + ?Sized>(cc: &Communicator<'_, C>, row: Row) -> u64 {
    let (p, rank) = (cc.size(), cc.rank());
    let sum = |bytes: &[u8]| bytes.iter().map(|&b| u64::from(b)).sum::<u64>();
    match row {
        Row::Bcast(bytes) => {
            let mut buf: Vec<u8> = (0..bytes).map(|i| (i * 7 + rank) as u8).collect();
            cc.bcast(0, &mut buf).unwrap();
            sum(&buf)
        }
        Row::Allgather(bytes) => {
            let block = (bytes / p).max(1);
            let mine: Vec<u8> = (0..block).map(|i| (i + 3 * rank) as u8).collect();
            let mut all = vec![0u8; block * p];
            cc.allgather(&mine, &mut all).unwrap();
            sum(&all)
        }
        Row::Allreduce(bytes) => {
            let mut buf: Vec<f64> = (0..bytes / 8).map(|i| value(rank, i)).collect();
            cc.allreduce(&mut buf, ReduceOp::Sum).unwrap();
            buf.iter().map(|x| x.to_bits()).fold(0, u64::wrapping_add)
        }
    }
}

/// What a rank's plain program for `row` holds: the arena it readies on
/// the simulator, in bytes — its scratch, in words (the landing a fused
/// receive stands for is never asked for there) — and its step count.
fn program_size<C: Comm + ?Sized>(cc: &Communicator<'_, C>, row: Row) -> (usize, usize) {
    let p = cc.size();
    let (op, n, elem) = match row {
        Row::Bcast(bytes) => (PlanOp::Broadcast { root: 0 }, bytes, 1),
        Row::Allgather(bytes) => (PlanOp::Collect, (bytes / p).max(1), 1),
        Row::Allreduce(bytes) => (PlanOp::AllReduce, bytes / 8, 8),
    };
    let cop = cost_op(op).expect("every row is priced");
    let choice = cc.auto_choice(cop, op.cost_bytes(p, n, elem));
    let key = PlanKey::plain(op, p, n, elem, Some(&choice));
    let prog = global_cache().get_or_compile(&key).unwrap();
    let rp = &prog.ranks[cc.rank()];
    (rp.scratch_bytes.next_multiple_of(8), rp.steps.len())
}

#[test]
fn cluster_calls_run_the_same_on_both_paths_on_either_backbone() {
    let cluster = Cluster::new(Mesh2D::new(2, 2), 4);
    for machine in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
        let cfg = SimConfig::cluster(cluster, &machine);
        for row in [
            Row::Bcast(8 << 10),
            Row::Allreduce(8 << 10),
            Row::Allgather(4 << 10),
        ] {
            assert_paths_agree(&cfg, &format!("{row:?}"), |c| {
                let cc = Communicator::world_on_cluster(c, machine, &cluster).unwrap();
                default_path_call(&cc, row)
            });
        }
    }
}

#[test]
fn a_mesh_row_group_runs_the_same_on_both_paths() {
    // Row 1 of a 3×4 mesh calls collectives as a group; the other rows
    // exchange a byte with their neighbour meanwhile.
    let mesh = Mesh2D::new(3, 4);
    let cfg = SimConfig::new(mesh, MachineParams::PARAGON);
    let members: Vec<usize> = (4..8).collect();
    let results = assert_paths_agree(&cfg, "row group", |c| {
        if !members.contains(&c.rank()) {
            let peer = c.rank() ^ 1;
            let mut got = [0u8];
            c.sendrecv(peer, &[c.rank() as u8], peer, &mut got, 5)
                .unwrap();
            return vec![u64::from(got[0])];
        }
        let cc = Communicator::from_group(c, MachineParams::PARAGON, members.clone(), Some(&mesh))
            .unwrap();
        let mut out = Vec::new();
        for row in [Row::Bcast(3000), Row::Allgather(64), Row::Allreduce(800)] {
            out.push(default_path_call(&cc, row));
        }
        let mut v = vec![cc.rank() as u32 + 1; 6];
        cc.allreduce_with(&mut v, ReduceOp::Prod, &Algo::Long)
            .unwrap();
        out.push(u64::from(v[5]));
        out
    });
    assert_eq!(results[5][3], 24, "1·2·3·4 over the row");
}

/// One rank's default-path allreduce of `bytes` of `T` on `mesh`, its
/// contribution `x(rank, i)`; the result's bytes.
fn allreduce_of<T: Elem>(
    c: &dyn Comm,
    mesh: Mesh2D,
    op: ReduceOp,
    bytes: usize,
    x: fn(usize, usize) -> T,
) -> Vec<u8> {
    let cc = Communicator::world_on_mesh(c, MachineParams::PARAGON, mesh).unwrap();
    let rank = cc.rank();
    let mut v: Vec<T> = (0..bytes / size_of::<T>()).map(|i| x(rank, i)).collect();
    cc.allreduce(&mut v, op).unwrap();
    T::as_bytes(&v).to_vec()
}

/// [`allreduce_of`] under every ⊕, over `f64`, `i32` and `u8`, on the
/// three paths.
fn allreduces_agree(mesh: Mesh2D, bytes: usize) {
    let cfg = SimConfig::new(mesh, MachineParams::PARAGON);
    for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min] {
        assert_paths_agree(&cfg, &format!("f64 {op:?} {bytes} B"), |c| {
            allreduce_of::<f64>(c, mesh, op, bytes, value)
        });
        assert_paths_agree(&cfg, &format!("i32 {op:?} {bytes} B"), |c| {
            allreduce_of::<i32>(c, mesh, op, bytes, |r, i| (i as i32 - 7) * (r as i32 + 1))
        });
        assert_paths_agree(&cfg, &format!("u8 {op:?} {bytes} B"), |c| {
            allreduce_of::<u8>(c, mesh, op, bytes, |r, i| (i * 31 + r) as u8)
        });
    }
}

#[test]
fn allreduces_whose_batches_are_split_run_the_same_on_both_paths() {
    // Every message of a 32-rank allreduce of 256 KiB moves in batches
    // of a MiB and more: the engine splits their copies, and the folds
    // of its fused receives, with its helper.
    allreduces_agree(Mesh2D::new(4, 8), 256 << 10);
}

#[test]
fn fused_folds_of_uneven_and_empty_blocks_run_the_same_on_both_paths() {
    // 1000 elements leave uneven blocks on every stage of a 32-rank
    // hybrid; 8 bytes (one to eight elements) leave most of them empty.
    for bytes in [8000, 8] {
        allreduces_agree(Mesh2D::new(4, 8), bytes);
    }
}

/// The benchmark's 21 `sim-mesh` rows at full size: Table 3's 16×32
/// column, Fig. 4's 15×30 mesh and the 2×2×4 cluster on both
/// backbones. Slow in a debug build; `ci.sh` runs it in release.
#[test]
#[ignore = "full-size rows: run in release (ci.sh)"]
fn the_sim_mesh_rows_run_the_same_on_both_paths() {
    let (kib64, mib) = (64 << 10, 1 << 20);
    let (mut identical, mut arena, mut steps) = (0, 0, 0);
    // Each row's call, and what its program readied and holds, summed
    // over ranks.
    let mut count = |results: Vec<(u64, (usize, usize))>| {
        arena += results.iter().map(|&(_, (bytes, _))| bytes).sum::<usize>();
        steps += results.iter().map(|&(_, (_, n))| n).sum::<usize>();
        identical += 1;
    };
    let mut mesh_rows = |rows: usize, cols: usize, sizes: &[usize], allreduce: bool| {
        let mesh = Mesh2D::new(rows, cols);
        let cfg = SimConfig::new(mesh, MachineParams::PARAGON);
        for &bytes in sizes {
            let mut ops = vec![Row::Bcast(bytes), Row::Allgather(bytes)];
            if allreduce {
                ops.push(Row::Allreduce(bytes));
            }
            for row in ops {
                count(assert_paths_agree(
                    &cfg,
                    &format!("{rows}x{cols} {row:?}"),
                    |c| {
                        let cc =
                            Communicator::world_on_mesh(c, MachineParams::PARAGON, mesh).unwrap();
                        (default_path_call(&cc, row), program_size(&cc, row))
                    },
                ));
            }
        }
    };
    mesh_rows(16, 32, &[8, kib64, mib], true);
    mesh_rows(15, 30, &[8, kib64], false);
    let cluster = Cluster::new(Mesh2D::new(2, 2), 4);
    for machine in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
        let cfg = SimConfig::cluster(cluster, &machine);
        for bytes in [8 << 10, 256 << 10] {
            for row in [Row::Bcast(bytes), Row::Allreduce(bytes)] {
                count(assert_paths_agree(&cfg, &format!("cluster {row:?}"), |c| {
                    let cc = Communicator::world_on_cluster(c, machine, &cluster).unwrap();
                    (default_path_call(&cc, row), program_size(&cc, row))
                }));
            }
        }
    }
    println!("sim-mesh rows: {identical} of 21 bit-identical");
    println!("sim-mesh arena bytes: {arena}");
    println!("sim-mesh program steps: {steps}");
    assert_eq!(identical, 21);
}

#[test]
fn closure_calls_and_program_calls_interleave_on_one_endpoint() {
    // Each rank mixes its own sends and receives with default-path
    // calls on one `SimComm`; the request channel keeps them in order.
    let cfg = SimConfig::new(Mesh2D::new(2, 3), MachineParams::PARAGON);
    let results = assert_paths_agree(&cfg, "interleaved", |c| {
        let (p, me) = (c.size(), c.rank());
        let (right, left) = ((me + 1) % p, (me + p - 1) % p);
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let mut got = [0u8; 3];
        c.sendrecv(right, &[me as u8; 3], left, &mut got, 7)
            .unwrap();
        let mut v = vec![f64::from(got[0]); 40];
        cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
        c.compute(1000);
        if me % 2 == 0 {
            c.send(me + 1, 9, &[me as u8]).unwrap();
        } else {
            c.recv(me - 1, 9, &mut got[..1]).unwrap();
        }
        c.call_overhead();
        let mut all = vec![0u8; p];
        cc.allgather(&[got[0]], &mut all).unwrap();
        (v[39], all)
    });
    assert!(results.iter().all(|(sum, _)| *sum == 15.0), "0 + 1 + … + 5");
    assert_eq!(results[0].1, [5, 0, 1, 2, 3, 4]);
}

#[test]
fn only_program_path_transfers_carry_a_plan_and_step() {
    let cfg = SimConfig::new(Mesh2D::new(1, 4), MachineParams::PARAGON).with_trace();
    let (st, n) = (Strategy::pure_long(4), 64);
    let body = |c: &dyn Comm| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let mut v = vec![1.0f64; n];
        let algo = Algo::Hybrid(st.clone());
        cc.allreduce_with(&mut v, ReduceOp::Sum, &algo).unwrap();
    };
    for walks in [false, true] {
        let trace = simulate(&cfg, |comm| body(&Direct { comm, walks }));
        let unstamped = |e: &TraceEvent| (e.plan, e.step) == (0, 0);
        assert!(trace.trace.unwrap().records().iter().all(unstamped));
    }
    let program = simulate(&cfg, |c| body(c)).trace.unwrap();
    let choice = HierChoice::Flat(st.clone());
    let key = PlanKey::plain(PlanOp::AllReduce, 4, n, 8, Some(&choice));
    let prog = global_cache().get_or_compile(&key).unwrap();
    assert!(!program.records().is_empty());
    for e in program.records() {
        assert_eq!(e.plan, prog.plan_id, "{e:?}");
        // The stamped step is the sender's step that posted the message
        // (the communicator's first call runs at base tag 0).
        match prog.ranks[e.src].steps[e.step as usize].kind {
            StepKind::Send { to, tag_off, .. }
            | StepKind::SendRecv { to, tag_off, .. }
            | StepKind::SendRecvReduce { to, tag_off, .. } => {
                assert_eq!((usize::from(to), u64::from(tag_off)), (e.dst, e.tag))
            }
            other => panic!("{e:?} stamped on {other:?}"),
        }
    }
}
