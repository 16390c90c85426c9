//! Property-based correctness: seeded random group sizes, roots, vector
//! lengths, reduce ops and hybrid strategies, executed on the threaded
//! backend and checked against sequential references. A fixed
//! [`SplitMix64`] seed per property makes every failing trial replay.

use intercom::{Algo, Comm, Communicator, ReduceOp, SplitMix64};
use intercom_cost::{MachineParams, Strategy, StrategyKind};
use intercom_runtime::run_world;

/// Trials per property.
const CASES: usize = 24;

/// A random ordered factorization of some 2 ≤ p ≤ 24 plus a kind — i.e.
/// an arbitrary valid hybrid strategy with its group size.
fn arb_strategy(rng: &mut SplitMix64) -> (usize, Algo) {
    let p = 2 + rng.below(23);
    let fs = intercom_topology::factor::factorizations(p, 0);
    let dims = fs[rng.below(fs.len())].clone();
    let kind = if rng.below(2) == 0 {
        StrategyKind::Mst
    } else {
        StrategyKind::ScatterCollect
    };
    (p, Algo::Hybrid(Strategy::new(dims, kind)))
}

fn contribution(rank: usize, n: usize, salt: u64) -> Vec<i64> {
    (0..n)
        .map(|i| {
            let x = (rank as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(i as u64)
                ^ salt;
            (x % 2003) as i64 - 1001
        })
        .collect()
}

/// The fold of every rank's contribution under `op`.
fn reference(p: usize, n: usize, salt: u64, op: ReduceOp) -> Vec<i64> {
    let mut expect = contribution(0, n, salt);
    for r in 1..p {
        op.fold_into(&mut expect, &contribution(r, n, salt));
    }
    expect
}

#[test]
fn broadcast_delivers_for_any_strategy() {
    let mut rng = SplitMix64::new(1);
    for trial in 0..CASES {
        let (p, algo) = arb_strategy(&mut rng);
        let (root, n, salt) = (rng.below(p), rng.below(200), rng.next_u64());
        let expect = contribution(root, n, salt);
        let out = run_world(p, |c| {
            let cc = Communicator::world(c, MachineParams::PARAGON);
            let mut buf = if c.rank() == root {
                contribution(root, n, salt)
            } else {
                vec![0; n]
            };
            cc.bcast_with(root, &mut buf, &algo).unwrap();
            buf
        });
        for got in out {
            assert_eq!(
                got, expect,
                "trial {trial}: p={p} root={root} n={n} {algo:?}"
            );
        }
    }
}

#[test]
fn allreduce_for_any_strategy_and_op() {
    let mut rng = SplitMix64::new(2);
    for trial in 0..CASES {
        let (p, algo) = arb_strategy(&mut rng);
        let (n, salt) = (rng.below(150), rng.next_u64());
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod][rng.below(4)];
        let expect = reference(p, n, salt, op);
        let out = run_world(p, |c| {
            let cc = Communicator::world(c, MachineParams::PARAGON);
            let mut buf = contribution(c.rank(), n, salt);
            cc.allreduce_with(&mut buf, op, &algo).unwrap();
            buf
        });
        for got in out {
            assert_eq!(got, expect, "trial {trial}: p={p} n={n} {op:?} {algo:?}");
        }
    }
}

#[test]
fn collect_reduce_scatter_duality() {
    // reduce_scatter(contribs) then collect(blocks) == allreduce.
    let mut rng = SplitMix64::new(3);
    for trial in 0..CASES {
        let (p, algo) = arb_strategy(&mut rng);
        let (b, salt) = (rng.below(40), rng.next_u64());
        let out = run_world(p, |c| {
            let cc = Communicator::world(c, MachineParams::PARAGON);
            let contrib = contribution(c.rank(), p * b, salt);
            let mut mine = vec![0i64; b];
            cc.reduce_scatter_with(&contrib, &mut mine, ReduceOp::Sum, &algo)
                .unwrap();
            let mut all = vec![0i64; p * b];
            cc.allgather_with(&mine, &mut all, &algo).unwrap();
            all
        });
        let expect = reference(p, p * b, salt, ReduceOp::Sum);
        for got in out {
            assert_eq!(got, expect, "trial {trial}: p={p} b={b} {algo:?}");
        }
    }
}

#[test]
fn scatter_gather_roundtrip() {
    let mut rng = SplitMix64::new(4);
    for trial in 0..CASES {
        let p = 1 + rng.below(15);
        let (b, root, salt) = (rng.below(32), rng.below(p), rng.next_u64());
        let full = contribution(99, p * b, salt);
        let out = run_world(p, |c| {
            let cc = Communicator::world(c, MachineParams::PARAGON);
            let me = c.rank();
            let mut mine = vec![0i64; b];
            cc.scatter(root, (me == root).then_some(&full[..]), &mut mine)
                .unwrap();
            let mut back = vec![0i64; if me == root { p * b } else { 0 }];
            cc.gather(root, &mine, (me == root).then_some(&mut back[..]))
                .unwrap();
            (mine, back)
        });
        for (r, (mine, _)) in out.iter().enumerate() {
            assert_eq!(
                mine[..],
                full[r * b..(r + 1) * b],
                "trial {trial}: p={p} rank {r}"
            );
        }
        assert_eq!(out[root].1, full, "trial {trial}: p={p} root={root} b={b}");
    }
}

#[test]
fn reduce_matches_allreduce_at_root() {
    let mut rng = SplitMix64::new(5);
    for trial in 0..CASES {
        let (p, algo) = arb_strategy(&mut rng);
        let (n, root, salt) = (1 + rng.below(99), rng.below(p), rng.next_u64());
        let out = run_world(p, |c| {
            let cc = Communicator::world(c, MachineParams::PARAGON);
            let mut red = contribution(c.rank(), n, salt);
            cc.reduce_with(root, &mut red, ReduceOp::Sum, &algo)
                .unwrap();
            let mut ar = contribution(c.rank(), n, salt);
            cc.allreduce_with(&mut ar, ReduceOp::Sum, &algo).unwrap();
            (red, ar)
        });
        let (red_at_root, ar_anywhere) = &out[root];
        assert_eq!(
            red_at_root, ar_anywhere,
            "trial {trial}: p={p} root={root} n={n} {algo:?}"
        );
    }
}

#[test]
fn auto_selection_always_correct() {
    // Whatever the selector picks at any length must be correct.
    let mut rng = SplitMix64::new(6);
    for trial in 0..CASES {
        let p = 1 + rng.below(19);
        let n = (1usize << rng.below(14)) / 8;
        let salt = rng.next_u64();
        let expect = contribution(0, n, salt);
        let out = run_world(p, |c| {
            let cc = Communicator::world(c, MachineParams::PARAGON);
            let mut buf = if c.rank() == 0 {
                contribution(0, n, salt)
            } else {
                vec![0; n]
            };
            cc.bcast(0, &mut buf).unwrap();
            buf
        });
        for got in out {
            assert_eq!(got, expect, "trial {trial}: p={p} n={n}");
        }
    }
}
