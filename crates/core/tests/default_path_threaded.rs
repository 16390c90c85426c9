//! The threaded default path runs the deployed program from its
//! communicator's memo: a shape's first call runs the direct path and
//! compiles nothing, a repeated call selects nothing and never asks the
//! process-wide plan cache, and a short call posts only the messages its
//! schedule needs.

use intercom::ir::global_cache;
use intercom::{Algo, Comm, Communicator, ReduceOp};
use intercom_cost::MachineParams;
use intercom_obs::recorders;
use intercom_runtime::{default_wait_timeout, run_world, run_world_with};
use std::sync::Mutex;

/// The cache counters are process-wide: the tests here run one at a
/// time, so one test's compilations never land in another's window.
static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn repeated_default_path_calls_leave_the_plan_cache_alone() {
    let _alone = alone();
    let counts = || {
        let stats = global_cache().stats();
        (stats.hits, stats.misses)
    };
    let out = run_world(2, |c| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let mut v = vec![c.rank() as f64 + 1.0; 24];
        let mut all = vec![0.0f64; 48];
        let mut mine = vec![0.0f64; 24];
        let mut round = |v: &mut Vec<f64>| {
            cc.allreduce(v, ReduceOp::Sum).unwrap();
            cc.bcast(1, v).unwrap();
            cc.allgather(&v[..], &mut all).unwrap();
            cc.reduce_scatter(&all, &mut mine, ReduceOp::Max).unwrap();
            cc.allreduce_with(&mut mine, ReduceOp::Min, &Algo::Long)
                .unwrap();
            cc.barrier().unwrap();
        };
        // A shape's second call compiles its program: both ranks are
        // past that once the barrier after the second round returns.
        round(&mut v);
        round(&mut v);
        cc.barrier().unwrap();
        let before = counts();
        for _ in 0..100 {
            round(&mut v);
        }
        cc.barrier().unwrap();
        (before, counts(), v[0])
    });
    for (rank, (before, after, _)) in out.iter().enumerate() {
        assert_eq!(before, after, "rank {rank}: hits and misses moved");
    }
    assert_eq!(out[0].2, out[1].2);
}

#[test]
fn a_shapes_first_call_compiles_nothing() {
    let _alone = alone();
    let counts = || {
        let stats = global_cache().stats();
        (stats.hits, stats.misses)
    };
    let out = run_world(2, |c| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let before = counts();
        let mut right = true;
        for n in 1..=64 {
            let mut v = vec![c.rank() as f64 + 1.0; n];
            cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
            right &= v.iter().all(|&x| x == 3.0);
        }
        (before, counts(), right)
    });
    for (rank, (before, after, right)) in out.iter().enumerate() {
        assert_eq!(before, after, "rank {rank}: a first call compiled");
        assert!(right, "rank {rank}: wrong sum");
    }
}

#[test]
fn a_one_element_allreduce_posts_two_one_way_messages() {
    let _alone = alone();
    // (2, SC): a reduce-scatter and a collect of one element in blocks
    // of one and none. The direct path — the shape's first call — and
    // the plain program exchange at both stages, one half of every
    // exchange empty; the deployed one — its second call on — sends
    // each element once, one way.
    let traffic = |calls: usize| {
        let (out, run) = run_world_with(2, default_wait_timeout(), Some(recorders(2, 64)), |c| {
            let cc = Communicator::world(c, MachineParams::PARAGON);
            let mut v = [0.0];
            for _ in 0..calls {
                v = [c.rank() as f64 + 0.5];
                cc.allreduce_with(&mut v, ReduceOp::Sum, &Algo::Long)
                    .unwrap();
            }
            v[0]
        });
        assert_eq!(out, [2.0, 2.0]);
        let totals = run.expect("recorded").totals();
        [
            totals.msgs_sent,
            totals.bytes_out,
            totals.msgs_recvd,
            totals.bytes_in,
        ]
    };
    let (first, both) = (traffic(1), traffic(2));
    assert_eq!(first, [4, 16, 4, 16], "the direct path's exchanges");
    let second: Vec<u64> = both.iter().zip(first).map(|(b, f)| b - f).collect();
    assert_eq!(second, [2, 16, 2, 16], "the deployed program's hops");
}
