//! Differential oracle for the schedule optimizer: an optimized
//! program must be indistinguishable — byte for byte — from the
//! unoptimized program it was rewritten from, on every backend.
//!
//! The pass pipeline ([`intercom::ir::optimize`]) elides empty
//! messages, fuses send/recv pairs into full-duplex exchanges,
//! coalesces contiguous regions and kills dead copies. None of that
//! may change a single output byte: this suite executes both programs
//! with identical rank- and position-dependent payloads across every
//! collective × strategy × a node battery spanning primes, powers of
//! two and composites, on the threaded runtime and the mesh
//! simulator, and compares every buffer the call touched (inputs too).
//!
//! It also pins the optimizer's direction: rewrites never *add*
//! messages (`comm_steps` is monotonically non-increasing).

use intercom::comm::GroupComm;
use intercom::ir::{execute, lower, optimize, ArgBuf, CollectiveProgram, PlanOp};
use intercom::{Comm, ReduceOp};
use intercom_cost::{Strategy, StrategyKind};
use intercom_meshsim::{simulate, SimConfig};
use intercom_runtime::run_world;
use intercom_topology::Mesh2D;

/// Primes, powers of two, perfect squares and composites — the same
/// spread the schedule audit sweeps.
const NODE_COUNTS: [usize; 7] = [1, 4, 5, 9, 12, 16, 17];

/// Deterministic, rank- and position-dependent payload.
fn fill(rank: usize, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = ((i.wrapping_mul(7) + rank.wrapping_mul(31) + 3) % 251) as u8;
    }
}

fn all_ops(p: usize) -> Vec<PlanOp> {
    let last = p - 1;
    vec![
        PlanOp::Broadcast { root: 0 },
        PlanOp::Reduce { root: last },
        PlanOp::AllReduce,
        PlanOp::ReduceScatter,
        PlanOp::Collect,
        PlanOp::Scatter { root: 0 },
        PlanOp::Gather { root: last },
        PlanOp::Alltoall,
        PlanOp::PipelinedBcast {
            root: 0,
            segments: 3,
        },
    ]
}

fn strategies(p: usize) -> Vec<Strategy> {
    let mut out = vec![Strategy::pure_mst(p), Strategy::pure_long(p)];
    if p == 12 {
        out.push(Strategy::new(vec![3, 4], StrategyKind::Mst));
        out.push(Strategy::new(vec![4, 3], StrategyKind::ScatterCollect));
    }
    if p == 16 {
        out.push(Strategy::new(vec![4, 4], StrategyKind::ScatterCollect));
    }
    out
}

/// `(op, strategy)` cells for world size `p`: strategy ops under every
/// strategy, strategy-free ops once.
fn cells(p: usize) -> Vec<(PlanOp, Option<Strategy>)> {
    let mut out = Vec::new();
    for op in all_ops(p) {
        if op.takes_strategy() {
            for st in strategies(p) {
                out.push((op, Some(st)));
            }
        } else {
            out.push((op, None));
        }
    }
    out
}

/// Compiles `op`, optionally running the pass pipeline over the
/// compiled program.
fn compile(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    p: usize,
    n: usize,
    opt: bool,
) -> CollectiveProgram {
    let prog = lower(*op, strategy, p, n, 1).unwrap();
    if opt {
        let (o, stats) = optimize(&prog);
        assert!(!stats.reverted, "optimizer must not revert valid programs");
        o
    } else {
        prog
    }
}

/// Interprets `prog` with the differential payloads and returns every
/// buffer the call touched, concatenated.
fn run_prog<C: Comm + ?Sized>(
    comm: &C,
    op: &PlanOp,
    prog: &CollectiveProgram,
    n: usize,
) -> Vec<u8> {
    let gc = GroupComm::world(comm);
    let p = comm.size();
    let rank = comm.rank();
    let mut scratch = Vec::new();
    let mut run = |args: &mut [ArgBuf<'_, u8>]| {
        execute(prog, &gc, ReduceOp::Max, args, &mut scratch, 0).unwrap();
    };
    match *op {
        PlanOp::Broadcast { root } | PlanOp::PipelinedBcast { root, .. } => {
            let mut buf = vec![0u8; n];
            if rank == root {
                fill(rank, &mut buf);
            }
            run(&mut [ArgBuf::Out(&mut buf)]);
            buf
        }
        PlanOp::Reduce { .. } | PlanOp::AllReduce => {
            let mut buf = vec![0u8; n];
            fill(rank, &mut buf);
            run(&mut [ArgBuf::Out(&mut buf)]);
            buf
        }
        PlanOp::ReduceScatter => {
            let mut contrib = vec![0u8; p * n];
            fill(rank, &mut contrib);
            let mut mine = vec![0u8; n];
            run(&mut [ArgBuf::In(&contrib), ArgBuf::Out(&mut mine)]);
            [contrib, mine].concat()
        }
        PlanOp::Collect => {
            let mut mine = vec![0u8; n];
            fill(rank, &mut mine);
            let mut all = vec![0u8; p * n];
            run(&mut [ArgBuf::In(&mine), ArgBuf::Out(&mut all)]);
            [mine, all].concat()
        }
        PlanOp::Scatter { root } => {
            let mut full = vec![0u8; p * n];
            fill(rank, &mut full);
            let mut mine = vec![0u8; n];
            if rank == root {
                run(&mut [ArgBuf::In(&full), ArgBuf::Out(&mut mine)]);
                [full, mine].concat()
            } else {
                run(&mut [ArgBuf::Absent, ArgBuf::Out(&mut mine)]);
                mine
            }
        }
        PlanOp::Gather { root } => {
            let mut mine = vec![0u8; n];
            fill(rank, &mut mine);
            let mut full = vec![0u8; p * n];
            if rank == root {
                run(&mut [ArgBuf::In(&mine), ArgBuf::Out(&mut full)]);
                [mine, full].concat()
            } else {
                run(&mut [ArgBuf::In(&mine), ArgBuf::Absent]);
                mine
            }
        }
        PlanOp::Alltoall => {
            let mut send = vec![0u8; p * n];
            fill(rank, &mut send);
            let mut recv = vec![0u8; p * n];
            run(&mut [ArgBuf::In(&send), ArgBuf::Out(&mut recv)]);
            [send, recv].concat()
        }
    }
}

#[test]
fn optimized_programs_never_add_messages() {
    for p in NODE_COUNTS {
        for (op, st) in cells(p) {
            for n in [0usize, 1, 13] {
                let plain = compile(&op, st.as_ref(), p, n, false);
                let opt = compile(&op, st.as_ref(), p, n, true);
                assert!(
                    opt.comm_steps() <= plain.comm_steps(),
                    "{} p={p} n={n} strategy={st:?}: optimizer added messages ({} -> {})",
                    op.name(),
                    plain.comm_steps(),
                    opt.comm_steps(),
                );
            }
        }
    }
}

#[test]
fn optimized_execution_is_byte_identical_on_threads() {
    let n = 13;
    for p in NODE_COUNTS {
        for (op, st) in cells(p) {
            let (o, s) = (op, st.clone());
            let plain = run_world(p, move |c| {
                let prog = compile(&o, s.as_ref(), c.size(), n, false);
                run_prog(c, &o, &prog, n)
            });
            let (o, s) = (op, st.clone());
            let opt = run_world(p, move |c| {
                let prog = compile(&o, s.as_ref(), c.size(), n, true);
                run_prog(c, &o, &prog, n)
            });
            assert_eq!(plain, opt, "{} p={p} strategy={st:?}", op.name());
        }
    }
}

#[test]
fn optimized_execution_is_byte_identical_on_the_simulator() {
    let machine = intercom_cost::MachineParams::PARAGON;
    for p in NODE_COUNTS {
        let mesh = Mesh2D::new(1, p);
        // n=1 keeps most small-broadcast partition blocks empty, so the
        // elision pass fires hard; n=13 exercises the full data path.
        for n in [1usize, 13] {
            for (op, st) in cells(p) {
                let (o, s) = (op, st.clone());
                let plain = simulate(&SimConfig::new(mesh, machine), move |c| {
                    let prog = compile(&o, s.as_ref(), c.size(), n, false);
                    run_prog(c, &o, &prog, n)
                })
                .results;
                let (o, s) = (op, st.clone());
                let opt = simulate(&SimConfig::new(mesh, machine), move |c| {
                    let prog = compile(&o, s.as_ref(), c.size(), n, true);
                    run_prog(c, &o, &prog, n)
                })
                .results;
                assert_eq!(plain, opt, "{} p={p} n={n} strategy={st:?}", op.name());
            }
        }
    }
}

#[test]
fn optimized_plans_replay_byte_identically() {
    // Plan reuse: one optimized program executed repeatedly in one
    // world (scratch re-zeroed, not re-allocated — the detour scratch
    // must come up clean every round).
    let p = 8;
    let n = 16;
    let st = Strategy::pure_mst(p);
    let run3 = move |opt: bool| {
        let st = st.clone();
        run_world(p, move |c| {
            let gc = GroupComm::world(c);
            let prog = compile(&PlanOp::AllReduce, Some(&st), p, n, opt);
            let mut scratch = Vec::new();
            let mut rounds = Vec::new();
            for round in 0..3u8 {
                let mut buf = vec![0u8; n];
                fill(c.rank() + round as usize, &mut buf);
                let mut args = [ArgBuf::Out(&mut buf)];
                execute(&prog, &gc, ReduceOp::Max, &mut args, &mut scratch, 0).unwrap();
                rounds.push(buf);
            }
            rounds
        })
    };
    assert_eq!(run3(false), run3(true));
}
