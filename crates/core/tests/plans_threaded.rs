//! Persistent plans on the threaded backend: repeated execution,
//! strategy stability, interleaving with ad-hoc collectives; and what a
//! malformed compiled program does there.

use intercom::comm::{GroupComm, SelfComm};
use intercom::ir::{
    execute, ArgBuf, Buf, CollectiveProgram, Loc, PlanOp, RankProgram, Step, StepKind,
};
use intercom::plan::{AllreducePlan, BcastPlan, CollectPlan, ReducePlan, ReduceScatterPlan};
use intercom::{Comm, CommError, Communicator, ReduceOp};
use intercom_cost::MachineParams;
use intercom_runtime::run_world;

#[test]
fn plans_execute_repeatedly_with_stable_results() {
    // And on a one-rank world, where every plan runs alone.
    for p in [1, 6] {
        plans_run_on(p);
    }
}

fn plans_run_on(p: usize) {
    // Roots 1 and 2, or rank 0 alone.
    let (b_root, r_root) = (1 % p, 2 % p);
    let out = run_world(p, |c| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let me = c.rank();
        let bcast = BcastPlan::<i64>::new(&cc, b_root, 32);
        let ar = AllreducePlan::<i64>::new(&cc, 16, ReduceOp::Sum);
        let gather = CollectPlan::<i64>::new(&cc, 4);
        let reduce = ReducePlan::<i64>::new(&cc, r_root, 24, ReduceOp::Max);
        let scatter = ReduceScatterPlan::<i64>::new(&cc, 5, ReduceOp::Sum);
        let mut sums = Vec::new();
        for iter in 0..10i64 {
            let mut b = if me == b_root {
                (0..32).map(|i| i + iter).collect()
            } else {
                vec![0i64; 32]
            };
            bcast.execute(&cc, &mut b).unwrap();
            assert_eq!(b[31], 31 + iter);

            let mut v = vec![iter; 16];
            ar.execute(&cc, &mut v).unwrap();
            assert!(v.iter().all(|&x| x == iter * p as i64));

            let mine = vec![me as i64 + iter; 4];
            let mut all = vec![0i64; 4 * p];
            gather.execute(&cc, &mine, &mut all).unwrap();
            assert!((0..4 * p).all(|i| all[i] == (i / 4) as i64 + iter));

            // Reduce and reduce-scatter, against the communicator's calls.
            let (me1, p) = (me as i64 + 1, p as i64);
            let row = |len: i64| -> Vec<i64> { (0..len).map(|i| i * me1 - iter).collect() };
            let (mut planned, mut called) = (row(24), row(24));
            reduce.execute(&cc, &mut planned).unwrap();
            cc.reduce(r_root, &mut called, ReduceOp::Max).unwrap();
            assert!(me != r_root || (planned == called && planned[23] == 23 * p - iter));
            let (mut planned, mut called) = ([0i64; 5], [0i64; 5]);
            let contrib = row(5 * p);
            scatter.execute(&cc, &contrib, &mut planned).unwrap();
            cc.reduce_scatter(&contrib, &mut called, ReduceOp::Sum)
                .unwrap();
            let first = 5 * (me1 - 1) * p * (p + 1) / 2 - p * iter;
            assert_eq!((planned, planned[0]), (called, first));

            sums.push(v[0]);
        }
        sums
    });
    for sums in out {
        assert_eq!(sums, (0..10).map(|i| i * p as i64).collect::<Vec<_>>());
    }
}

#[test]
fn plans_interleave_with_adhoc_collectives() {
    let p = 5;
    let out = run_world(p, |c| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let ar = AllreducePlan::<i64>::new(&cc, 8, ReduceOp::Max);
        for _ in 0..5 {
            let mut v = vec![c.rank() as i64; 8];
            ar.execute(&cc, &mut v).unwrap();
            assert!(v.iter().all(|&x| x == (p - 1) as i64));
            // Ad-hoc collective between planned executions.
            let mut w = vec![1i64; 3];
            cc.allreduce(&mut w, ReduceOp::Sum).unwrap();
            assert_eq!(w[0], p as i64);
            cc.barrier().unwrap();
        }
        true
    });
    assert!(out.iter().all(|&ok| ok));
}

#[test]
fn barrier_synchronizes() {
    // Weak but real check: after a barrier, a rank can immediately
    // consume a message sent before its peer's barrier entry.
    let p = 4;
    let out = run_world(p, |c| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let me = c.rank();
        if me == 0 {
            for peer in 1..p {
                c.send(peer, 999, &[42u8]).unwrap();
            }
        }
        cc.barrier().unwrap();
        if me != 0 {
            let mut b = [0u8];
            c.recv(0, 999, &mut b).unwrap();
            b[0]
        } else {
            42
        }
    });
    assert!(out.iter().all(|&x| x == 42));
}

/// A byte program over one 8-byte in-out buffer in which rank `r` runs
/// `ranks[r]`.
fn program(ranks: Vec<Vec<StepKind>>) -> CollectiveProgram {
    let rank = |kinds: Vec<StepKind>| RankProgram {
        steps: kinds.into_iter().map(|kind| Step { kind }).collect(),
        scratch_bytes: 0,
        landing_bytes: 0,
    };
    CollectiveProgram {
        plan_id: 1 << 40,
        op: PlanOp::AllReduce,
        p: ranks.len(),
        n: 8,
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

/// Executes `prog` as `c`'s rank over a buffer of `0..8`.
fn run<C: Comm + ?Sized>(c: &C, prog: &CollectiveProgram) -> intercom::Result<()> {
    let mut buf: Vec<u8> = (0..8).collect();
    let args = &mut [ArgBuf::Out(&mut buf[..])];
    execute(
        prog,
        &GroupComm::world(c),
        ReduceOp::Sum,
        args,
        &mut Vec::new(),
        0,
    )
}

#[test]
fn a_step_whose_operands_differ_in_length_is_an_error_not_a_panic() {
    let mismatch = Err(CommError::PlanMismatch {
        what: "step operands differ in length",
    });
    let copy = StepKind::Copy {
        src: at(0, 4),
        dst: at(4, 2),
    };
    let fold = StepKind::Reduce {
        acc: at(4, 4),
        other: at(0, 2),
    };
    for bad in [copy, fold] {
        assert_eq!(
            run(&SelfComm, &program(vec![vec![bad]])),
            mismatch,
            "{bad:?}"
        );
    }
    // Two ranks, each failing after a message has passed between them.
    let prog = program(vec![
        vec![
            StepKind::Send {
                to: 1,
                tag_off: 0,
                src: at(0, 4),
            },
            copy,
        ],
        vec![
            StepKind::Recv {
                from: 0,
                tag_off: 0,
                dst: at(0, 4),
            },
            fold,
        ],
    ]);
    let prog = &prog;
    assert_eq!(run_world(2, |c| run(c, prog)), [mismatch.clone(), mismatch]);
}
