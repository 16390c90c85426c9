//! More ranks than cores: a receiver's poll phase must hand its core to
//! the peer it is waiting for (the `yield_now`s between looks)
//! instead of burning its whole budget on every hop — and so must the
//! two ranks of a shared copy, each of which may find the other holding
//! the last piece. `ci.sh` runs this file again pinned to one core.

use intercom::{Comm, Communicator, ReduceOp};
use intercom_cost::MachineParams;
use intercom_runtime::run_world;

#[test]
fn oversubscribed_world_completes_small_allreduces() {
    const ROUNDS: u64 = 1_000;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let p = 4 * cores;
    let sums = run_world(p, |c| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let mut sum = 0u64;
        for round in 0..ROUNDS {
            let mut v = [c.rank() as u64 + round];
            cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
            sum += v[0];
        }
        sum
    });
    // Round r sums rank + r over all ranks: p(p-1)/2 + p*r.
    let p = p as u64;
    let expected = ROUNDS * p * (p - 1) / 2 + p * ROUNDS * (ROUNDS - 1) / 2;
    assert!(
        sums.iter().all(|&s| s == expected),
        "{sums:?} != {expected}"
    );
}

#[test]
fn oversubscribed_world_completes_long_broadcasts_and_allreduces() {
    // 1 MiB: the hops are windows, which a plain receive claims and
    // copies together with its sender and a combining one folds out of.
    const N: usize = (1 << 20) / 8;
    const ROUNDS: u64 = 20;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let p = 4 * cores;
    let ok = run_world(p, |c| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let mut v = vec![0u64; N];
        (0..ROUNDS).all(|round| {
            let root = round as usize % p;
            if c.rank() == root {
                v.iter_mut()
                    .enumerate()
                    .for_each(|(i, x)| *x = i as u64 ^ round);
            }
            cc.bcast(root, &mut v).unwrap();
            let sent = v.iter().enumerate().all(|(i, &x)| x == i as u64 ^ round);
            v.fill(c.rank() as u64 + round);
            cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
            let p = p as u64;
            sent && v.iter().all(|&x| x == p * (p - 1) / 2 + p * round)
        })
    });
    assert!(ok.iter().all(|&ok| ok), "{ok:?}");
}
