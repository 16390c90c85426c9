//! What a compiled program handed to the simulator does when something
//! goes wrong, end to end through `ir::execute` and `simulate`: the
//! error ends the program with one reply, no later step runs, no window
//! is written after the failure, and nothing panics but the deadlock
//! diagnostic.

use intercom::comm::GroupComm;
use intercom::ir::{
    execute, ArgBuf, Buf, CollectiveProgram, Loc, PlanOp, RankProgram, Step, StepKind,
};
use intercom::{AbortCause, AbortInfo, Comm, CommError, Communicator, ReduceOp, POISON_TAG};
use intercom_cost::MachineParams;
use intercom_meshsim::{simulate, SimConfig};
use intercom_topology::Mesh2D;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn unit() -> MachineParams {
    MachineParams {
        alpha: 1.0,
        beta: 1.0,
        gamma: 0.0,
        delta: 0.0,
        link_excess: 1.0,
    }
}

/// A byte program over one in-out buffer in which rank `r` runs
/// `ranks[r]`.
fn program(ranks: Vec<Vec<StepKind>>) -> CollectiveProgram {
    let rank = |kinds: Vec<StepKind>| RankProgram {
        steps: kinds.into_iter().map(|kind| Step { kind }).collect(),
        scratch_bytes: 0,
        landing_bytes: 0,
    };
    let p = ranks.len();
    CollectiveProgram {
        plan_id: 1 << 40,
        op: PlanOp::AllReduce,
        p,
        n: 12,
        elem_size: 1,
        strategy: None,
        hier: None,
        radices: Vec::new(),
        ranks: ranks.into_iter().map(rank).collect(),
        series: Default::default(),
    }
}

fn at(off: u32, len: u32) -> Loc {
    Loc {
        buf: Buf::Arg(0),
        off,
        len,
    }
}

fn copy(src: Loc, dst: Loc) -> StepKind {
    StepKind::Copy { src, dst }
}

/// Runs `prog` on every rank of a 1 × p row over a 12-byte buffer that
/// starts as `init(rank)`; returns each rank's outcome and buffer.
fn run(
    prog: &CollectiveProgram,
    init: fn(usize) -> [u8; 12],
) -> Vec<(intercom::Result<()>, [u8; 12])> {
    let cfg = SimConfig::new(Mesh2D::new(1, prog.p), unit());
    simulate(&cfg, |c| {
        let mut buf = init(c.rank());
        let gc = GroupComm::world(c);
        let args = &mut [ArgBuf::Out(&mut buf[..])];
        let outcome = execute(prog, &gc, ReduceOp::Sum, args, &mut Vec::new(), 0);
        (outcome, buf)
    })
    .results
}

#[test]
fn the_copies_outside_the_transfers_run_before_and_after_them() {
    // The rank runs the first copy before the engine's part (the swap
    // reads what it wrote) and the last after it (it reads what the
    // engine's last swap wrote); the engine runs the copy between.
    let swap = |src, dst| StepKind::SendRecv {
        to: 0,
        src,
        from: 0,
        dst,
        tag_off: 0,
    };
    let prog = program(vec![vec![
        copy(at(8, 1), at(0, 1)),
        StepKind::CallOverhead,
        swap(at(0, 2), at(2, 2)),
        copy(at(2, 1), at(4, 1)),
        swap(at(4, 1), at(5, 1)),
        copy(at(5, 1), at(6, 1)),
    ]]);
    let out = run(&prog, |_| std::array::from_fn(|i| i as u8));
    assert_eq!(out, [(Ok(()), [8, 1, 8, 1, 8, 8, 8, 7, 8, 9, 10, 11])]);
}

#[test]
fn a_length_mismatch_mid_program_fails_both_ranks_and_stops_them() {
    // Rank 0 sends 4 bytes twice; rank 1 expects 4, then 2. Both end at
    // the second message: the copies between and after the messages —
    // the engine's and the caller's — never run, and the receiver's
    // window keeps its bytes.
    let send = |tag_off, src| StepKind::Send {
        to: 1,
        tag_off,
        src,
    };
    let recv = |tag_off, dst| StepKind::Recv {
        from: 0,
        tag_off,
        dst,
    };
    let prog = program(vec![
        vec![
            copy(at(0, 4), at(8, 4)),
            send(0, at(0, 4)),
            send(1, at(4, 4)),
            copy(at(4, 4), at(8, 4)),
            send(2, at(0, 4)),
            copy(at(0, 4), at(8, 4)),
        ],
        vec![
            recv(0, at(0, 4)),
            recv(1, at(4, 2)),
            copy(at(0, 4), at(8, 4)),
            recv(2, at(0, 4)),
            copy(at(0, 4), at(8, 4)),
        ],
    ]);
    let out = run(&prog, |rank| match rank {
        0 => [1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0],
        _ => [0xEE; 12],
    });
    let mismatch = Err(CommError::LengthMismatch {
        expected: 2,
        actual: 4,
    });
    assert_eq!(
        out[0],
        (mismatch.clone(), [1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4])
    );
    let mut landed = [0xEE; 12];
    landed[..4].copy_from_slice(&[1, 2, 3, 4]);
    assert_eq!(out[1], (mismatch, landed));
}

#[test]
fn poison_under_a_blocked_program_aborts_it_and_copies_nothing() {
    let info = AbortInfo {
        origin: 1,
        culprit: 1,
        plan: 0,
        step: 0,
        cause: AbortCause::External,
    };
    let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
    let rep = simulate(&cfg, |c| {
        let cc = Communicator::world(c, unit());
        let mut buf = [0xEEu8; 64];
        if c.rank() == 1 {
            c.send(0, POISON_TAG, &info.encode()).unwrap();
            return (Ok(()), true);
        }
        // Rank 0 is not the root: its program starts with a receive.
        let outcome = cc.bcast(1, &mut buf);
        (outcome, buf.iter().all(|&b| b == 0xEE))
    });
    assert_eq!(rep.results[0], (Err(CommError::Aborted(info)), true));
}

#[test]
fn a_malformed_step_is_an_error_not_a_panic() {
    // One rank exchanging with itself around a copy that reads past
    // the buffer's end: the engine runs the copy, and refuses it.
    let swap = |tag_off| StepKind::SendRecv {
        to: 0,
        src: at(0, 4),
        from: 0,
        dst: at(4, 4),
        tag_off,
    };
    let prog = program(vec![vec![swap(0), copy(at(10, 4), at(0, 4)), swap(1)]]);
    let out = run(&prog, |_| [9; 12]);
    let oob = CommError::PlanMismatch {
        what: "step operand out of buffer bounds",
    };
    assert_eq!(out, [(Err(oob), [9; 12])]);
}

#[test]
fn a_panicking_peer_ends_in_a_diagnostic_that_names_the_program_step() {
    let (tx, rx) = std::sync::mpsc::channel();
    let watched = std::thread::spawn(move || {
        let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            simulate(&cfg, |c| {
                if c.rank() == 1 {
                    panic!("peer boom");
                }
                let cc = Communicator::world(c, unit());
                cc.bcast(0, &mut [7u8; 16])
            })
        }));
        let _ = tx.send(outcome.map(|report| report.results));
    });
    let panic = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the simulation must not hang")
        .expect_err("the simulation must panic");
    watched.join().expect("the panic was caught");
    let msg = panic.downcast_ref::<String>().expect("a formatted panic");
    assert!(
        msg.contains("simulation deadlock: 1 rank(s) blocked"),
        "{msg}"
    );
    assert!(msg.contains("unmatched send 0→1 tag 0 (plan "), "{msg}");
}

#[test]
fn a_world_of_one_runs_every_collective() {
    let machine = MachineParams {
        delta: 0.5,
        gamma: 0.125,
        ..unit()
    };
    let cfg = SimConfig::new(Mesh2D::new(1, 1), machine);
    let rep = simulate(&cfg, |c| {
        let cc = Communicator::world(c, machine);
        let mut v = vec![1.5f64, 2.5];
        cc.bcast(0, &mut v).unwrap();
        cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
        let mut all = vec![0.0; 2];
        cc.allgather(&v, &mut all).unwrap();
        let mut mine = vec![0.0; 2];
        cc.reduce_scatter(&all, &mut mine, ReduceOp::Max).unwrap();
        cc.scatter(0, Some(&all), &mut mine).unwrap();
        cc.alltoall(&all, &mut v).unwrap();
        v
    });
    assert_eq!(rep.results, [vec![1.5, 2.5]]);
    assert_eq!(rep.elapsed, 0.0, "one rank has nothing to wait for");
}

/// Runs `prog` on a 1 × 2 row over a buffer of `len` bytes per rank
/// that starts as `init(rank, i)`; returns each rank's buffer.
fn run_long(prog: CollectiveProgram, len: usize, init: fn(usize, usize) -> u8) -> Vec<Vec<u8>> {
    let prog = &CollectiveProgram { n: len, ..prog };
    let cfg = SimConfig::new(Mesh2D::new(1, prog.p), unit());
    simulate(&cfg, |c| {
        let mut buf: Vec<u8> = (0..len).map(|i| init(c.rank(), i)).collect();
        let gc = GroupComm::world(c);
        let args = &mut [ArgBuf::Out(&mut buf[..])];
        execute(prog, &gc, ReduceOp::Sum, args, &mut Vec::new(), 0).unwrap();
        buf
    })
    .results
}

#[test]
fn fused_receives_fold_where_they_land_as_the_staged_pair_does() {
    // Two ranks swap `n` bytes and fold what arrives into a second
    // block, then rank 1 sends its folded block back to be folded into
    // rank 0's first. Fused, the engine folds straight out of the
    // sender's bytes (and, at 256 KiB a hop, shares the folds of a
    // batch with its helper where there is one); staged, every arrival
    // lands in a third block and is folded out of it.
    for n in [12u32, 256 << 10] {
        let (send, acc, landing) = (at(0, n), at(n, n), at(2 * n, n));
        let fused = program(vec![
            vec![
                StepKind::SendRecvReduce {
                    to: 1,
                    src: send,
                    from: 1,
                    acc,
                    tag_off: 0,
                },
                StepKind::RecvReduce {
                    from: 1,
                    tag_off: 1,
                    acc: send,
                },
            ],
            vec![
                StepKind::SendRecvReduce {
                    to: 0,
                    src: send,
                    from: 0,
                    acc,
                    tag_off: 0,
                },
                StepKind::Send {
                    to: 0,
                    tag_off: 1,
                    src: acc,
                },
            ],
        ]);
        let fold_landing = |acc| StepKind::Reduce {
            acc,
            other: landing,
        };
        let staged = program(vec![
            vec![
                StepKind::SendRecv {
                    to: 1,
                    src: send,
                    from: 1,
                    dst: landing,
                    tag_off: 0,
                },
                fold_landing(acc),
                StepKind::Recv {
                    from: 1,
                    tag_off: 1,
                    dst: landing,
                },
                fold_landing(send),
            ],
            vec![
                StepKind::SendRecv {
                    to: 0,
                    src: send,
                    from: 0,
                    dst: landing,
                    tag_off: 0,
                },
                fold_landing(acc),
                StepKind::Send {
                    to: 0,
                    tag_off: 1,
                    src: acc,
                },
            ],
        ]);
        let len = 3 * n as usize;
        let init = |rank: usize, i: usize| (i * 31 + rank * 7 + i / 251) as u8;
        let (fused, staged) = (run_long(fused, len, init), run_long(staged, len, init));
        for rank in 0..2 {
            let two = 2 * n as usize;
            assert!(
                fused[rank][..two] == staged[rank][..two],
                "n={n} rank {rank}"
            );
            // The fused program never touched its third block.
            assert!(fused[rank][two..]
                .iter()
                .enumerate()
                .all(|(i, &b)| b == init(rank, two + i)));
        }
    }
}

#[test]
fn a_fused_exchange_folding_into_what_it_sends_is_refused() {
    // The halves of an exchange complete at different times: a fold
    // into the bytes being sent is malformed, and the rank's program
    // ends with the error before anything moves.
    let bad = StepKind::SendRecvReduce {
        to: 0,
        src: at(0, 4),
        from: 0,
        acc: at(2, 4),
        tag_off: 0,
    };
    let out = run(&program(vec![vec![bad]]), |_| [5; 12]);
    let overlap = CommError::PlanMismatch {
        what: "overlapping read/write operands in one step",
    };
    assert_eq!(out, [(Err(overlap), [5; 12])]);
}
