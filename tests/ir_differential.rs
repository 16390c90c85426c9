//! Differential oracle for the schedule IR: the compiled program must be
//! indistinguishable from the direct recursive path it was lowered from.
//!
//! Two layers of comparison, over every collective × strategy × a node
//! battery spanning primes, powers of two and composites:
//!
//! * **Schedules**: the IR's per-rank op sequence (kinds, peers, tags,
//!   region lengths, local copies/folds, γ/δ accounting) equals the
//!   sequence a [`RecordingComm`](intercom::trace::RecordingComm) replay
//!   of the unmodified algorithm code produces — read off the compiled
//!   steps, and recorded from `Comm::run_program`'s default walk over
//!   them.
//! * **Execution**: executing the IR produces byte-identical buffers
//!   to running the recursive code directly — on the threaded runtime
//!   and on the mesh simulator.

mod common;

use common::{cells, fill, NODE_COUNTS};
use intercom::algorithms::LEVEL_TAG_STRIDE;
use intercom::comm::GroupComm;
use intercom::ir::{cost_op, execute, lower, ArgBuf, OwnedArgs, PlanOp, StepKind};
use intercom::primitives::pipelined_ring_bcast;
use intercom::trace::RecordingComm;
use intercom::{algorithms, Comm, ReduceOp, Result, Tag};
use intercom_cost::{
    enumerate_mesh_strategies, enumerate_strategies, stage_predictions, CostContext, Strategy,
};
use intercom_meshsim::{simulate, SimConfig};
use intercom_runtime::run_world;
use intercom_topology::Mesh2D;
use intercom_verify::{extract_programs, ir_programs};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;

/// Runs `op` through the unmodified recursive code at base tag 0 and
/// returns every buffer the call touched, concatenated (inputs too — a
/// schedule that scribbles on a read-only buffer must not match one
/// that doesn't).
fn direct_run<C: Comm + ?Sized>(
    comm: &C,
    op: &PlanOp,
    strategy: Option<&Strategy>,
    n: usize,
) -> Vec<u8> {
    let gc = GroupComm::world(comm);
    let p = comm.size();
    let rank = comm.rank();
    let st = || strategy.expect("strategy op");
    let scratch = &mut Vec::new();
    match *op {
        PlanOp::Broadcast { root } => {
            let mut buf = vec![0u8; n];
            if rank == root {
                fill(rank, &mut buf);
            }
            algorithms::broadcast(&gc, st(), root, &mut buf, 0).unwrap();
            buf
        }
        PlanOp::Reduce { root } => {
            let mut buf = vec![0u8; n];
            fill(rank, &mut buf);
            algorithms::reduce(&gc, st(), root, &mut buf, ReduceOp::Max, 0, scratch).unwrap();
            buf
        }
        PlanOp::AllReduce => {
            let mut buf = vec![0u8; n];
            fill(rank, &mut buf);
            algorithms::allreduce(&gc, st(), &mut buf, ReduceOp::Max, 0, scratch).unwrap();
            buf
        }
        PlanOp::ReduceScatter => {
            let mut contrib = vec![0u8; p * n];
            fill(rank, &mut contrib);
            let mut mine = vec![0u8; n];
            algorithms::reduce_scatter(&gc, st(), &contrib, &mut mine, ReduceOp::Max, 0, scratch)
                .unwrap();
            [contrib, mine].concat()
        }
        PlanOp::Collect => {
            let mut mine = vec![0u8; n];
            fill(rank, &mut mine);
            let mut all = vec![0u8; p * n];
            algorithms::collect(&gc, st(), &mine, &mut all, 0, scratch).unwrap();
            [mine, all].concat()
        }
        PlanOp::Scatter { root } => {
            let mut full = vec![0u8; p * n];
            fill(rank, &mut full);
            let mut mine = vec![0u8; n];
            let src = (rank == root).then_some(&full[..]);
            algorithms::scatter(&gc, root, src, &mut mine, 0, scratch).unwrap();
            if rank == root {
                [full, mine].concat()
            } else {
                mine
            }
        }
        PlanOp::Gather { root } => {
            let mut mine = vec![0u8; n];
            fill(rank, &mut mine);
            let mut full = vec![0u8; p * n];
            let dst = (rank == root).then_some(&mut full[..]);
            algorithms::gather(&gc, root, &mine, dst, 0, scratch).unwrap();
            if rank == root {
                [mine, full].concat()
            } else {
                mine
            }
        }
        PlanOp::Alltoall => {
            let mut send = vec![0u8; p * n];
            fill(rank, &mut send);
            let mut recv = vec![0u8; p * n];
            algorithms::alltoall(&gc, &send, &mut recv, 0).unwrap();
            [send, recv].concat()
        }
        PlanOp::PipelinedBcast { root, segments } => {
            let mut buf = vec![0u8; n];
            if rank == root {
                fill(rank, &mut buf);
            }
            pipelined_ring_bcast(&gc, root, &mut buf, segments, 0).unwrap();
            buf
        }
    }
}

/// Runs `op` by lowering to the IR and executing it at base tag 0,
/// with the same initial buffer contents as [`direct_run`]. Returns the
/// same concatenation.
fn ir_run<C: Comm + ?Sized>(
    comm: &C,
    op: &PlanOp,
    strategy: Option<&Strategy>,
    n: usize,
) -> Vec<u8> {
    let gc = GroupComm::world(comm);
    let p = comm.size();
    let rank = comm.rank();
    let pop = *op;
    let prog = lower(pop, strategy, p, n, 1).unwrap();
    let mut scratch = Vec::new();
    let mut run = |args: &mut [ArgBuf<'_, u8>]| {
        execute(&prog, &gc, ReduceOp::Max, args, &mut scratch, 0).unwrap();
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

/// Renders one symbolic record address-free: everything but the raw
/// span bases (the IR re-bases operands into synthetic windows, so raw
/// addresses legitimately differ; lengths and structure must not).
fn render(r: &intercom::trace::OpRecord) -> String {
    use intercom::trace::OpRecord;
    match *r {
        OpRecord::Send { to, tag, src } => format!("send to={to} tag={tag} len={}", src.len),
        OpRecord::Recv { from, tag, dst } => format!("recv from={from} tag={tag} len={}", dst.len),
        OpRecord::SendRecv {
            to,
            src,
            from,
            dst,
            tag,
        } => format!(
            "xchg to={to} from={from} tag={tag} slen={} rlen={}",
            src.len, dst.len
        ),
        OpRecord::Copy { src, dst } => format!("copy slen={} dlen={}", src.len, dst.len),
        OpRecord::Reduce { acc, other } => {
            format!("reduce alen={} olen={}", acc.len, other.len)
        }
        OpRecord::Permute {
            region,
            held,
            radices,
        } => format!(
            "permute rlen={} hlen={} radices={:?}",
            region.len,
            held.len,
            radices.map(|r| r.to_vec())
        ),
        OpRecord::Compute { bytes } => format!("compute {bytes}"),
        OpRecord::CallOverhead => "calloverhead".into(),
    }
}

#[test]
fn ir_schedules_equal_recorded_replays() {
    for p in NODE_COUNTS {
        for (op, st) in cells(p) {
            for n in [1usize, 13] {
                let ir = ir_programs(&op, st.as_ref(), p, n).unwrap();
                let tr = extract_programs(&op, st.as_ref(), p, n).unwrap();
                assert_eq!(ir.len(), tr.len());
                for (rank, (a, b)) in ir.iter().zip(tr.iter()).enumerate() {
                    let a: Vec<String> = a.iter().map(render).collect();
                    let b: Vec<String> = b.iter().map(render).collect();
                    assert_eq!(
                        a,
                        b,
                        "{} p={p} n={n} strategy={st:?} rank {rank}",
                        op.name()
                    );
                }
            }
        }
    }
}

#[test]
fn every_transfer_runs_in_a_priced_stage() {
    // The walker and `stage_predictions` read one template: the
    // `(level, sub)` of every transfer's tag offset, over all ranks, is
    // exactly the set of stages the cost model prices — none run
    // unpriced, none priced that never run.
    let mut cases = 0;
    for p in [2usize, 3, 4, 5, 6, 8, 9, 12, 16, 17, 24] {
        let mut all = enumerate_strategies(p, 0);
        for rows in (1..=p).filter(|r| p % r == 0) {
            all.extend(enumerate_mesh_strategies(rows, p / rows, 0));
        }
        let root = p / 2;
        let ops = [
            PlanOp::Broadcast { root },
            PlanOp::Reduce { root },
            PlanOp::AllReduce,
            PlanOp::ReduceScatter,
            PlanOp::Collect,
        ];
        for (op, st) in ops.iter().flat_map(|op| all.iter().map(move |st| (op, st))) {
            let prog = lower(*op, Some(st), p, 947, 1).unwrap();
            let steps = prog.ranks.iter().flat_map(|r| &r.steps);
            let ran: BTreeSet<(u64, u64)> = steps
                .filter_map(|s| s.kind.tag_off())
                .map(|t| {
                    (
                        u64::from(t) / LEVEL_TAG_STRIDE,
                        u64::from(t) % LEVEL_TAG_STRIDE,
                    )
                })
                .collect();
            let priced = stage_predictions(cost_op(*op).unwrap(), st, CostContext::LINEAR);
            let priced: BTreeSet<(u64, u64)> =
                priced.iter().map(|s| (s.level as u64, s.sub)).collect();
            assert_eq!(ran, priced, "{} p={p} {st}", op.name());
            cases += 1;
        }
    }
    assert!(cases >= 2380, "{cases} cases");
}

/// A [`RecordingComm`] that also notes every `plan_step` stamp, with the
/// number of calls it had forwarded when the stamp came.
struct Stamped {
    rec: RecordingComm,
    calls: Cell<usize>,
    stamps: RefCell<Vec<(u64, u64, usize)>>,
}

impl Stamped {
    /// Counts one forwarded call; returns the recorder to forward it to.
    fn call(&self) -> &RecordingComm {
        self.calls.set(self.calls.get() + 1);
        &self.rec
    }
}

impl Comm for Stamped {
    fn rank(&self) -> usize {
        self.rec.rank()
    }
    fn size(&self) -> usize {
        self.rec.size()
    }
    fn send(&self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.call().send(to, tag, data)
    }
    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> Result<()> {
        self.call().recv(from, tag, buf)
    }
    fn sendrecv(&self, to: usize, d: &[u8], from: usize, b: &mut [u8], tag: Tag) -> Result<()> {
        self.call().sendrecv(to, d, from, b, tag)
    }
    fn compute(&self, bytes: usize) {
        self.call().compute(bytes)
    }
    fn call_overhead(&self) {
        self.call().call_overhead()
    }
    fn local_copy(&self, src: &[u8], dst: &[u8]) {
        self.call().local_copy(src, dst)
    }
    fn local_permute(&self, region: &[u8], held: &[u8], radices: &[usize]) {
        self.call().local_permute(region, held, radices)
    }
    fn local_reduce(&self, acc: &[u8], other: &[u8]) {
        self.call().local_reduce(acc, other)
    }
    fn plan_step(&self, plan: u64, step: u64) {
        let calls = self.calls.get();
        self.stamps.borrow_mut().push((plan, step, calls));
    }
}

#[test]
fn executed_programs_issue_the_recorded_calls() {
    // The default walk on a recorder: every point-to-point call, clock
    // hook and local copy or fold the direct path issues, in its order,
    // each step stamped just before its call (a fused receive's or
    // combine's two: the receive and the fold) and the stamp cleared at
    // the end.
    for p in NODE_COUNTS {
        for (op, st) in cells(p) {
            for n in [1usize, 13] {
                let prog = lower(op, st.as_ref(), p, n, 1).unwrap();
                let tr = extract_programs(&op, st.as_ref(), p, n).unwrap();
                for (rank, want) in tr.iter().enumerate() {
                    let what = format!("{} p={p} n={n} strategy={st:?} rank {rank}", op.name());
                    let comm = Stamped {
                        rec: RecordingComm::new(rank, p),
                        calls: Cell::new(0),
                        stamps: RefCell::new(Vec::new()),
                    };
                    let mut bufs = OwnedArgs::<u8>::new(op, p, n, rank);
                    let (gc, scratch) = (GroupComm::world(&comm), &mut Vec::new());
                    execute(&prog, &gc, ReduceOp::Sum, &mut bufs.bind(), scratch, 0).unwrap();
                    let mut calls = 0;
                    let mut stamps = Vec::new();
                    for (i, step) in prog.ranks[rank].steps.iter().enumerate() {
                        stamps.push((prog.plan_id, i as u64, calls));
                        let combines = matches!(step.kind, StepKind::SendRecvCombine { .. });
                        calls += 1 + usize::from(step.kind.folds_into().is_some() || combines);
                    }
                    stamps.push((0, 0, calls));
                    assert_eq!(comm.stamps.into_inner(), stamps, "{what}");
                    let got: Vec<String> = comm.rec.into_ops().iter().map(render).collect();
                    let want: Vec<String> = want.iter().map(render).collect();
                    assert_eq!(got, want, "{what}");
                }
            }
        }
    }
}

#[test]
fn ir_execution_is_byte_identical_on_threads() {
    let n = 13;
    for p in [1usize, 4, 5, 9, 12] {
        for (op, st) in cells(p) {
            let (o, s) = (op, st.clone());
            let direct = run_world(p, move |c| direct_run(c, &o, s.as_ref(), n));
            let (o, s) = (op, st.clone());
            let via_ir = run_world(p, move |c| ir_run(c, &o, s.as_ref(), n));
            assert_eq!(direct, via_ir, "{} p={p} strategy={st:?}", op.name());
        }
    }
}

#[test]
fn ir_execution_is_byte_identical_on_the_simulator() {
    let n = 13;
    let machine = intercom_cost::MachineParams::PARAGON;
    for p in [1usize, 5, 9, 16, 17] {
        let mesh = Mesh2D::new(1, p);
        for (op, st) in cells(p) {
            let (o, s) = (op, st.clone());
            let direct = simulate(&SimConfig::new(mesh, machine), move |c| {
                direct_run(c, &o, s.as_ref(), n)
            })
            .results;
            let (o, s) = (op, st.clone());
            let via_ir = simulate(&SimConfig::new(mesh, machine), move |c| {
                ir_run(c, &o, s.as_ref(), n)
            })
            .results;
            assert_eq!(direct, via_ir, "{} p={p} strategy={st:?}", op.name());
        }
    }
}

#[test]
fn one_program_replays_many_times() {
    // Plan reuse: one lowered program executed repeatedly in one world
    // keeps producing the direct path's bytes (scratch is re-zeroed, not
    // re-allocated, between executions).
    let p = 6;
    let n = 17;
    let st = Strategy::pure_long(p);
    let out = run_world(p, move |c| {
        let gc = GroupComm::world(c);
        let prog = lower(PlanOp::AllReduce, Some(&st), p, n, 1).unwrap();
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
    });
    let st = Strategy::pure_long(p);
    let direct = run_world(p, move |c| {
        let gc = GroupComm::world(c);
        let mut rounds = Vec::new();
        for round in 0..3u8 {
            let mut buf = vec![0u8; n];
            fill(c.rank() + round as usize, &mut buf);
            algorithms::allreduce(&gc, &st, &mut buf, ReduceOp::Max, 0, &mut Vec::new()).unwrap();
            rounds.push(buf);
        }
        rounds
    });
    assert_eq!(out, direct);
}

#[test]
fn trace_events_attribute_to_plan_steps_on_both_backends() {
    use intercom::plan::AllreducePlan;
    use intercom::{Communicator, ReduceOp};
    use intercom_cost::MachineParams;
    use intercom_obs::recorders;
    use intercom_runtime::{default_wait_timeout, run_world_with};

    // Threaded backend: a persistent plan's events carry its plan id.
    let p = 4;
    let recs = Some(recorders(p, 1024));
    let (_, run) = run_world_with(p, default_wait_timeout(), recs, move |c| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let plan = AllreducePlan::<f64>::new(&cc, 32, ReduceOp::Sum);
        let mut buf = vec![1.0f64; 32];
        plan.execute(&cc, &mut buf).unwrap();
    });
    let run = run.expect("recorded");
    let attributed = run.all_events().filter(|e| e.plan != 0).count();
    assert!(attributed > 0, "threaded events must carry plan ids");
    let plan_ids: std::collections::HashSet<u64> = run
        .all_events()
        .filter(|e| e.plan != 0)
        .map(|e| e.plan)
        .collect();
    assert_eq!(plan_ids.len(), 1, "one plan executed: one plan id");

    // Simulator: the engine's walk stamps transfers with (plan, step).
    let st = Strategy::pure_long(p);
    let machine = MachineParams::PARAGON;
    let rep = simulate(
        &SimConfig::new(Mesh2D::new(1, p), machine).with_trace(),
        move |c| {
            let gc = GroupComm::world(c);
            let prog = lower(PlanOp::AllReduce, Some(&st), p, 32, 1).unwrap();
            let mut buf = vec![1u8; 32];
            let mut args = [ArgBuf::Out(&mut buf)];
            execute(&prog, &gc, ReduceOp::Max, &mut args, &mut Vec::new(), 0).unwrap();
        },
    );
    let trace = rep.trace.expect("trace enabled");
    assert!(!trace.records().is_empty());
    assert!(
        trace.records().iter().all(|e| e.plan != 0),
        "every simulated transfer of an IR execution is attributed"
    );
}
