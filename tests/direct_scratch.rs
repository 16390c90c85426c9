//! The direct path's workspace is borrowed, never zeroed and never
//! trusted: the distributed combine keeps the bits it produced when it
//! still packed a zeroed work vector, and no collective reads a scratch
//! byte it did not write first.

use intercom::comm::GroupComm;
use intercom::ir::{run_direct, OwnedArgs, PlanOp};
use intercom::{Comm, Elem, ReduceOp};
use intercom_cost::{HierChoice, MachineParams, Strategy, StrategyKind};
use intercom_meshsim::{simulate, SimConfig};
use intercom_runtime::run_world;
use intercom_topology::{factor::factorizations, Mesh2D};

/// Items per block (`n` of [`PlanOp::args`] for the blocked ops).
const N: usize = 24;

/// What `Algo::{Short, Long}` and every `Algo::Hybrid` can name on `p`
/// ranks.
fn strategies(p: usize) -> Vec<Strategy> {
    let mut dims = factorizations(p, 0);
    if p == 1 {
        dims.push(vec![1]);
    }
    let kinds = [StrategyKind::Mst, StrategyKind::ScatterCollect];
    dims.iter()
        .flat_map(|d| kinds.map(|k| Strategy::new(d.clone(), k)))
        .collect()
}

/// One rank's direct-path call of `op` with `value(rank, i)` as its
/// contribution; returns the bytes of every buffer it bound, inputs
/// included.
fn call<T: Elem, C: Comm + ?Sized>(
    c: &C,
    op: PlanOp,
    st: &Strategy,
    rop: ReduceOp,
    value: impl Fn(usize, usize) -> T,
    scratch: &mut Vec<u64>,
) -> Vec<u8> {
    let rank = c.rank();
    let mut bufs = OwnedArgs::<T>::new(op, c.size(), N, rank);
    bufs.fill_contribution(op, rank, |i| value(rank, i));
    let choice = HierChoice::Flat(st.clone());
    let gc = GroupComm::world(c);
    run_direct(op, Some(&choice), &gc, rop, &mut bufs.bind(), scratch, 0).unwrap();
    let bound = bufs.slots.iter().filter_map(|(_, b)| b.as_deref());
    bound.flat_map(T::as_bytes).copied().collect()
}

/// FNV-1a over every rank's bytes of every `reduce_scatter` case, on
/// threads and on the simulator.
fn reduce_scatter_digests<T: Elem>(
    rop: ReduceOp,
    value: impl Fn(usize, usize) -> T + Sync,
) -> [u64; 2] {
    let mut digests = [0xcbf2_9ce4_8422_2325u64; 2];
    for p in [1, 2, 3, 5, 8, 12] {
        for st in strategies(p) {
            let run = |c: &dyn Comm| {
                let out = call(c, PlanOp::ReduceScatter, &st, rop, &value, &mut Vec::new());
                // `contrib` comes back as it went in.
                let sent: Vec<T> = (0..p * N).map(|i| value(c.rank(), i)).collect();
                assert_eq!(out[..p * N * T::SIZE], *T::as_bytes(&sent), "{st} p={p}");
                out
            };
            let sim = SimConfig::new(Mesh2D::new(1, p), MachineParams::PARAGON);
            let outs = [run_world(p, |c| run(c)), simulate(&sim, |c| run(c)).results];
            for (digest, out) in digests.iter_mut().zip(outs) {
                for byte in out.into_iter().flatten() {
                    *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    digests
}

/// The digests are the ones the commit before the bucket form printed
/// for the same cases: values whose sums round, so any change of fold
/// order (or a fold of stale scratch) moves them.
#[test]
fn reduce_scatter_keeps_its_bits_and_its_input() {
    let thirds = |rank: usize, i: usize| 1.0 / (3 + 7 * rank + i) as f64;
    assert_eq!(
        reduce_scatter_digests(ReduceOp::Sum, thirds),
        [3660085622702490217; 2],
        "f64 sum"
    );
    let mixed = |rank: usize, i: usize| ((rank * 31 + i * 17) % 101) as i32 - 50;
    assert_eq!(
        reduce_scatter_digests(ReduceOp::Max, mixed),
        [16914617174020177037; 2],
        "i32 max"
    );
}

/// Every word of the poisoned arena is a NaN as `f64`: one stale read
/// folded or forwarded anywhere would surface in some rank's result.
#[test]
fn poisoned_scratch_changes_no_result() {
    let thirds = |rank: usize, i: usize| 1.0 / (3 + 7 * rank + i) as f64;
    let ops = [
        PlanOp::Broadcast { root: 1 },
        PlanOp::Reduce { root: 1 },
        PlanOp::AllReduce,
        PlanOp::Collect,
        PlanOp::ReduceScatter,
    ];
    for p in [3, 8, 12] {
        for st in strategies(p) {
            for op in ops {
                let run = |poison: bool| {
                    run_world(p, |c| {
                        let mut scratch = vec![u64::MAX; if poison { 4 * p * N } else { 0 }];
                        call(c, op, &st, ReduceOp::Sum, thirds, &mut scratch)
                    })
                };
                assert_eq!(run(true), run(false), "{op} {st} p={p}");
            }
        }
    }
}
