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
//! It also pins the optimizer's direction — rewrites never *add*
//! messages (`comm_steps` is monotonically non-increasing) and never
//! cost virtual time on the simulator — and its shape: the optimized
//! program's structure does not depend on the vector length.

mod common;

use common::{all_ops, cells, fill, NODE_COUNTS};
use intercom::comm::GroupComm;
use intercom::ir::{
    execute, lower, optimize, ArgBuf, CollectiveProgram, Loc, OwnedArgs, PlanOp, Step, StepKind,
};
use intercom::{Comm, Elem, ReduceOp};
use intercom_cost::{enumerate_strategies, Strategy};
use intercom_meshsim::{simulate, SimConfig};
use intercom_runtime::run_world;
use intercom_topology::Mesh2D;

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

/// Executes `prog` with the differential payloads and returns every
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

/// `(p, n, op, strategy)` inputs of the simulator oracle: the battery
/// at n=1 (most small-broadcast partition blocks empty, so the elision
/// pass fires hard) and n=13 (the full data path), plus the
/// latency-bound and bandwidth-bound shapes the battery lacks.
fn sim_cells() -> Vec<(usize, usize, PlanOp, Option<Strategy>)> {
    let mut out = Vec::new();
    for p in NODE_COUNTS {
        for n in [1usize, 13] {
            out.extend(cells(p).into_iter().map(|(op, st)| (p, n, op, st)));
        }
    }
    for op in [PlanOp::Broadcast { root: 0 }, PlanOp::AllReduce] {
        out.push((9, 4, op, Some(Strategy::pure_long(9))));
        out.push((9, 4096, op, Some(Strategy::pure_long(9))));
        out.push((8, 1024, op, Some(Strategy::pure_mst(8))));
    }
    out.push((8, 13, PlanOp::Alltoall, None));
    out
}

#[test]
fn optimized_execution_is_byte_identical_on_the_simulator() {
    let machine = intercom_cost::MachineParams::PARAGON;
    for (p, n, op, st) in sim_cells() {
        let cfg = SimConfig::new(Mesh2D::new(1, p), machine);
        let run = |opt: bool| {
            let s = st.clone();
            simulate(&cfg, move |c| {
                let prog = compile(&op, s.as_ref(), c.size(), n, opt);
                run_prog(c, &op, &prog, n)
            })
        };
        let (plain, opt) = (run(false), run(true));
        let cell = format!("{} p={p} n={n} strategy={st:?}", op.name());
        assert_eq!(plain.results, opt.results, "{cell}");
        // Same-stage fusion can move a δ by a few parts in 10⁵ on
        // multi-dimensional broadcasts; nothing may cost more than that,
        // and the ops whose adjacent stages are causally ordered (what
        // comes down depends on what went up) may cost nothing beyond
        // an ulp of clock-sum reassociation.
        let unchanged = matches!(
            op,
            PlanOp::AllReduce | PlanOp::Collect | PlanOp::ReduceScatter
        );
        let bound = plain.elapsed * (1.0 + if unchanged { 1e-12 } else { 1e-4 });
        assert!(
            opt.elapsed <= bound,
            "{cell}: optimized {:.3} us vs plain {:.3} us on the simulator (ratio {:.6})",
            opt.elapsed * 1e6,
            plain.elapsed * 1e6,
            opt.elapsed / plain.elapsed,
        );
    }
}

/// `prog` with every offset, length and byte count zeroed: per rank,
/// the sequence of step kinds, peers, tag offsets, stage ids and buffer
/// kinds.
fn structure(prog: &CollectiveProgram) -> Vec<Vec<Step>> {
    let zero = |l: &mut Loc| (l.off, l.len) = (0, 0);
    let strip = |mut step: Step| {
        match &mut step.kind {
            StepKind::Send { src: l, .. }
            | StepKind::Recv { dst: l, .. }
            | StepKind::RecvReduce { acc: l, .. } => zero(l),
            StepKind::SendRecv { src: a, dst: b, .. }
            | StepKind::SendRecvReduce { src: a, acc: b, .. }
            | StepKind::Copy { src: a, dst: b }
            | StepKind::Reduce { acc: a, other: b }
            | StepKind::Permute {
                region: a, held: b, ..
            } => {
                zero(a);
                zero(b);
            }
            StepKind::Compute { bytes } => *bytes = 0,
            StepKind::CallOverhead => {}
        }
        step
    };
    prog.ranks
        .iter()
        .map(|rp| rp.steps.iter().copied().map(strip).collect())
        .collect()
}

#[test]
fn optimized_structure_does_not_depend_on_the_length() {
    // Once no partition block is empty (n ≥ p in total), the optimized
    // program of an (op, p, strategy) group has one structure at every
    // length: no pass decides anything by n.
    for p in [2usize, 3, 4, 5, 6, 8, 9, 12, 16] {
        for st in enumerate_strategies(p, 3) {
            for op in all_ops(p).into_iter().filter(PlanOp::takes_strategy) {
                // Collect and reduce-scatter take the per-member length.
                let per_member = matches!(op, PlanOp::Collect | PlanOp::ReduceScatter);
                let unit = if per_member { 1 } else { p };
                let lengths = [unit, unit + 1, 2 * unit + 3, 13 * unit, 1024, 4096, 65536];
                let shape = |n| structure(&compile(&op, Some(&st), p, n, true));
                let first = shape(lengths[0]);
                for n in &lengths[1..] {
                    assert!(
                        shape(*n) == first,
                        "{} p={p} strategy={st:?}: the optimized structure at n={n} \
                         differs from the one at n={}",
                        op.name(),
                        lengths[0],
                    );
                }
            }
        }
    }
}

#[test]
fn optimized_plans_replay_byte_identically() {
    // Plan reuse: one optimized program executed repeatedly in one
    // world (scratch re-zeroed, not re-allocated — it must come up
    // clean every round).
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

/// One rank's combining call through `prog` under `rop`, its
/// contribution `x(rank, i)`: the bytes of every buffer it bound.
fn fold_run<T: Elem, C: Comm + ?Sized>(
    comm: &C,
    prog: &CollectiveProgram,
    rop: ReduceOp,
    x: fn(usize, usize) -> T,
) -> Vec<u8> {
    let (p, rank) = (comm.size(), comm.rank());
    let mut bufs = OwnedArgs::<T>::new(prog.op, p, prog.n, rank);
    bufs.fill_contribution(prog.op, rank, |i| x(rank, i));
    let (gc, scratch) = (GroupComm::world(comm), &mut Vec::new());
    execute(prog, &gc, rop, &mut bufs.bind(), scratch, 0).unwrap();
    let bound = bufs.slots.iter().filter_map(|(_, b)| b.as_deref());
    bound.flat_map(|b| T::as_bytes(b).to_vec()).collect()
}

/// The plain and the optimized program of `op` over `T` agree byte for
/// byte on the simulator under every ⊕.
fn fused_folds_agree<T: Elem>(
    op: PlanOp,
    st: &Strategy,
    p: usize,
    n: usize,
    x: fn(usize, usize) -> T,
) {
    let plain = lower(op, Some(st), p, n, T::SIZE).unwrap();
    let (opt, stats) = optimize(&plain);
    assert!(!stats.reverted);
    let cfg = SimConfig::new(Mesh2D::new(1, p), intercom_cost::MachineParams::PARAGON);
    for rop in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min] {
        let run = |prog: &CollectiveProgram| simulate(&cfg, |c| fold_run(c, prog, rop, x)).results;
        let cell = format!(
            "{op} p={p} n={n} {st:?} {rop:?} {}",
            std::any::type_name::<T>()
        );
        assert_eq!(run(&plain), run(&opt), "{cell}");
    }
}

#[test]
fn optimized_fused_folds_are_byte_identical_for_every_op_and_type() {
    // The combining ops fold each arrival in a fused receive. At n = 3
    // most of the bucket blocks are empty (elision drops their fused
    // exchanges, folds and all); at 13 and 1000 they are uneven.
    for p in [5usize, 9] {
        for st in [Strategy::pure_mst(p), Strategy::pure_long(p)] {
            for op in [
                PlanOp::Reduce { root: p - 1 },
                PlanOp::AllReduce,
                PlanOp::ReduceScatter,
            ] {
                for n in [3usize, 13, 1000] {
                    fused_folds_agree::<f64>(op, &st, p, n, |r, i| 1.0 / (3 + 7 * r + i) as f64);
                    fused_folds_agree::<i32>(op, &st, p, n, |r, i| (i as i32 - 7) * (r as i32 + 1));
                    fused_folds_agree::<u8>(op, &st, p, n, |r, i| (i * 31 + r) as u8);
                }
            }
        }
    }
}
