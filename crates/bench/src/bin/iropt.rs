//! Schedule-optimizer payoff: optimized vs unoptimized programs, A/B.
//!
//! For a battery of collective shapes, compiles the schedule IR twice —
//! plain [`lower`] and lower + [`optimize`] — and compares:
//!
//! * **messages**: send halves entering the network (each transfer
//!   counts once; a full-duplex exchange counts its send half);
//! * **wire bytes**: payload bytes over all messages;
//! * **predicted cost**: the flat α/β price `msgs·α + bytes·β` under
//!   the Paragon parameters (aggregate, not critical-path — it prices
//!   exactly what elision and coalescing remove);
//! * **measured time**: virtual seconds to execute each program on the
//!   mesh simulator (fluid α + nβ link model, 1×p array) *and* wall
//!   nanoseconds on the threaded runtime (best-of-N, slowest rank).
//!
//! The small-vector rows are where the optimizer earns its keep: a
//! scatter-collect broadcast of 4 bytes across 9 ranks carries mostly
//! *empty* partition blocks, and every elided empty message saves a
//! full α. Bandwidth-bound rows (4 KiB) pin that optimization never
//! costs time where there is nothing to win.
//!
//! Run: `cargo run --release -p intercom-bench --bin iropt`
//! (append `-- --smoke` for the CI smoke mode; the sweep is identical —
//! the simulator is deterministic — the flag only trims the wall-clock
//! repeats).

use intercom::comm::GroupComm;
use intercom::ir::{execute, lower, optimize, ArgBuf, CollectiveProgram, PlanOp, StepKind};
use intercom::{Comm, ReduceOp};
use intercom_bench::report::Table;
use intercom_cost::{MachineParams, Strategy};
use intercom_meshsim::{simulate, SimConfig};
use intercom_runtime::run_world;
use intercom_topology::Mesh2D;
use std::time::Instant;

struct Row {
    label: &'static str,
    op: PlanOp,
    strategy: Option<Strategy>,
    p: usize,
    n: usize,
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            label: "broadcast sc p=9 n=4",
            op: PlanOp::Broadcast { root: 0 },
            strategy: Some(Strategy::pure_long(9)),
            p: 9,
            n: 4,
        },
        Row {
            label: "broadcast sc p=9 n=4096",
            op: PlanOp::Broadcast { root: 0 },
            strategy: Some(Strategy::pure_long(9)),
            p: 9,
            n: 4096,
        },
        Row {
            label: "broadcast mst p=8 n=1024",
            op: PlanOp::Broadcast { root: 0 },
            strategy: Some(Strategy::pure_mst(8)),
            p: 8,
            n: 1024,
        },
        Row {
            label: "allreduce sc p=9 n=4",
            op: PlanOp::AllReduce,
            strategy: Some(Strategy::pure_long(9)),
            p: 9,
            n: 4,
        },
        Row {
            label: "allreduce sc p=9 n=4096",
            op: PlanOp::AllReduce,
            strategy: Some(Strategy::pure_long(9)),
            p: 9,
            n: 4096,
        },
        Row {
            label: "allreduce mst p=8 n=1024",
            op: PlanOp::AllReduce,
            strategy: Some(Strategy::pure_mst(8)),
            p: 8,
            n: 1024,
        },
        Row {
            label: "reduce-scatter sc p=9 n=1",
            op: PlanOp::ReduceScatter,
            strategy: Some(Strategy::pure_long(9)),
            p: 9,
            n: 1,
        },
        Row {
            label: "collect sc p=9 n=1",
            op: PlanOp::Collect,
            strategy: Some(Strategy::pure_long(9)),
            p: 9,
            n: 1,
        },
        Row {
            label: "alltoall p=8 n=13",
            op: PlanOp::Alltoall,
            strategy: None,
            p: 8,
            n: 13,
        },
    ]
}

/// Send halves entering the network and their payload bytes.
fn wire(prog: &CollectiveProgram) -> (usize, usize) {
    let mut msgs = 0;
    let mut bytes = 0;
    for rp in &prog.ranks {
        for step in &rp.steps {
            match step.kind {
                StepKind::Send { src, .. } | StepKind::SendRecv { src, .. } => {
                    msgs += 1;
                    bytes += src.len;
                }
                _ => {}
            }
        }
    }
    (msgs, bytes)
}

/// Executes `prog` on the 1×p simulated array and returns the virtual
/// elapsed seconds.
fn sim_time(prog: &CollectiveProgram, machine: MachineParams) -> f64 {
    let mesh = Mesh2D::new(1, prog.p);
    let n = prog.n;
    let prog = prog.clone();
    simulate(&SimConfig::new(mesh, machine), move |c| {
        run_prog(c, &prog, n)
    })
    .elapsed
}

/// Executes `prog` `iters` times per round on the threaded runtime
/// (one warm-up first) and returns the slowest rank's best-of-`repeats`
/// seconds per iteration.
fn threads_time(prog: &CollectiveProgram, repeats: usize, iters: usize) -> f64 {
    let n = prog.n;
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let prog = prog.clone();
        let out = run_world(prog.p, move |c| {
            run_prog(c, &prog, n); // warm-up: pools, scratch
            let t0 = Instant::now();
            for _ in 0..iters {
                run_prog(c, &prog, n);
            }
            t0.elapsed().as_secs_f64() / iters as f64
        });
        best = best.min(out.into_iter().fold(0.0f64, f64::max));
    }
    best
}

/// Interprets one program with deterministic payloads (buffer layout
/// per [`PlanOp::args`]).
fn run_prog<C: Comm + ?Sized>(comm: &C, prog: &CollectiveProgram, n: usize) {
    let gc = GroupComm::world(comm);
    let p = comm.size();
    let rank = comm.rank();
    let mut scratch = Vec::new();
    let mut run = |args: &mut [ArgBuf<'_, u8>]| {
        execute(prog, &gc, ReduceOp::Max, args, &mut scratch, 0).unwrap();
    };
    let fill = |buf: &mut [u8]| {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((i * 7 + rank * 31 + 3) % 251) as u8;
        }
    };
    match prog.op {
        PlanOp::Broadcast { root } | PlanOp::PipelinedBcast { root, .. } => {
            let mut buf = vec![0u8; n];
            if rank == root {
                fill(&mut buf);
            }
            run(&mut [ArgBuf::Out(&mut buf)]);
        }
        PlanOp::Reduce { .. } | PlanOp::AllReduce => {
            let mut buf = vec![0u8; n];
            fill(&mut buf);
            run(&mut [ArgBuf::Out(&mut buf)]);
        }
        PlanOp::ReduceScatter => {
            let mut contrib = vec![0u8; p * n];
            fill(&mut contrib);
            let mut mine = vec![0u8; n];
            run(&mut [ArgBuf::In(&contrib), ArgBuf::Out(&mut mine)]);
        }
        PlanOp::Collect => {
            let mut mine = vec![0u8; n];
            fill(&mut mine);
            let mut all = vec![0u8; p * n];
            run(&mut [ArgBuf::In(&mine), ArgBuf::Out(&mut all)]);
        }
        PlanOp::Scatter { root } => {
            let mut full = vec![0u8; p * n];
            fill(&mut full);
            let mut mine = vec![0u8; n];
            if rank == root {
                run(&mut [ArgBuf::In(&full), ArgBuf::Out(&mut mine)]);
            } else {
                run(&mut [ArgBuf::Absent, ArgBuf::Out(&mut mine)]);
            }
        }
        PlanOp::Gather { root } => {
            let mut mine = vec![0u8; n];
            fill(&mut mine);
            let mut full = vec![0u8; p * n];
            if rank == root {
                run(&mut [ArgBuf::In(&mine), ArgBuf::Out(&mut full)]);
            } else {
                run(&mut [ArgBuf::In(&mine), ArgBuf::Absent]);
            }
        }
        PlanOp::Alltoall => {
            let mut send = vec![0u8; p * n];
            fill(&mut send);
            let mut recv = vec![0u8; p * n];
            run(&mut [ArgBuf::In(&send), ArgBuf::Out(&mut recv)]);
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke mode trims the wall-clock measurement, not the sweep: the
    // simulator columns are deterministic either way.
    let (repeats, iters) = if smoke { (1, 4) } else { (3, 64) };
    let machine = MachineParams::PARAGON;
    let mut table = Table::new(vec![
        "shape",
        "msgs",
        "opt msgs",
        "pred us",
        "opt pred us",
        "sim us",
        "opt sim us",
        "thr us",
        "opt thr us",
    ]);
    let mut sim_wins = Vec::new();
    let mut thr_wins = Vec::new();
    for row in rows() {
        let plain = lower(row.op, row.strategy.as_ref(), row.p, row.n, 1).expect("shape lowers");
        let (opt, stats) = optimize(&plain);
        assert!(!stats.reverted, "optimizer reverted {}", row.label);
        let (msgs_a, bytes_a) = wire(&plain);
        let (msgs_b, bytes_b) = wire(&opt);
        let pred =
            |msgs: usize, bytes: usize| msgs as f64 * machine.alpha + bytes as f64 * machine.beta;
        let (pred_a, pred_b) = (pred(msgs_a, bytes_a), pred(msgs_b, bytes_b));
        let sim_a = sim_time(&plain, machine);
        let sim_b = sim_time(&opt, machine);
        // Interleave A/B rounds so ambient machine noise hits both arms.
        let (mut thr_a, mut thr_b) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..repeats {
            thr_a = thr_a.min(threads_time(&plain, 1, iters));
            thr_b = thr_b.min(threads_time(&opt, 1, iters));
        }
        if msgs_b < msgs_a && sim_b < sim_a {
            sim_wins.push(row.label);
        }
        if msgs_b < msgs_a && thr_b < thr_a {
            thr_wins.push(row.label);
        }
        table.row(vec![
            row.label.to_string(),
            msgs_a.to_string(),
            msgs_b.to_string(),
            format!("{:.1}", pred_a * 1e6),
            format!("{:.1}", pred_b * 1e6),
            format!("{:.1}", sim_a * 1e6),
            format!("{:.1}", sim_b * 1e6),
            format!("{:.1}", thr_a * 1e6),
            format!("{:.1}", thr_b * 1e6),
        ]);
    }
    println!("schedule optimizer A/B (Paragon params, 1xp simulated array + threaded runtime):");
    print!("{}", table.render());
    let render = |wins: &[&str]| {
        if wins.is_empty() {
            "none".to_string()
        } else {
            wins.join(", ")
        }
    };
    println!(
        "\nfewer messages AND lower simulated time: {}",
        render(&sim_wins)
    );
    println!(
        "fewer messages AND lower threaded wall time: {}",
        render(&thr_wins)
    );
}
