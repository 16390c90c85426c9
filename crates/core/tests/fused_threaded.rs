//! Combines that fold in flight equal combines that stage: every
//! combining collective on the bare threaded endpoint (whose
//! `recv_with` / `sendrecv_with` hand the fold the sender's window)
//! against the same endpoint behind a wrapper that forwards only
//! `send` / `recv` / `sendrecv` (so the trait's defaults stage every
//! arrival in the bucket first), bit for bit.

use intercom::ir::{run_direct, ArgBuf, PlanOp};
use intercom::plan::{AllreducePlan, ReduceScatterPlan};
use intercom::primitives::{mst_reduce, ring_reduce_scatter, ring_reduce_scatter_into};
use intercom::{
    hier_allreduce, Algo, Comm, CommError, Communicator, Elem, GroupComm, ReduceOp, Tag,
};
use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine, MachineParams};
use intercom_obs::recorders;
use intercom_runtime::{
    default_wait_timeout, run_world, run_world_with, ThreadComm, DEFAULT_RENDEZVOUS_THRESHOLD,
};

/// The porting surface and nothing more: what a backend written before
/// the `*_with` methods existed looks like to the library.
struct Staged<'a>(&'a ThreadComm);

impl Comm for Staged<'_> {
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn size(&self) -> usize {
        self.0.size()
    }
    fn send(&self, to: usize, tag: Tag, data: &[u8]) -> intercom::Result<()> {
        self.0.send(to, tag, data)
    }
    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> intercom::Result<()> {
        self.0.recv(from, tag, buf)
    }
    fn sendrecv(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
    ) -> intercom::Result<()> {
        self.0.sendrecv(to, data, from, buf, tag)
    }
}

const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];

/// From where the runtime shares a plain receive's copy with the
/// sender (its private two-piece bound when this was written): only a
/// length worth covering, nothing here depends on the value.
const SHARE_FROM: usize = 128 * 1024;

/// The combining collectives with one hop of `h` elements each, on `c`:
/// reduce to the last rank (the root's vector only), allreduce by MST
/// and by scatter-collect, reduce-scatter, and on four ranks a 2x2
/// hierarchical allreduce.
fn combines<T: Elem, C: Comm + ?Sized>(
    c: &C,
    op: ReduceOp,
    h: usize,
    gen: fn(u64) -> T,
) -> Vec<Vec<T>> {
    let (p, me) = (c.size(), c.rank());
    let vector = |n: usize| -> Vec<T> {
        (0..n)
            .map(|i| gen((me * 7919 + i * 31 + 1) as u64))
            .collect()
    };
    let cc = Communicator::world(c, MachineParams::PARAGON);
    let mut out = Vec::new();

    let mut v = vector(h);
    cc.reduce_with(p - 1, &mut v, op, &Algo::Short).unwrap();
    out.push(if me == p - 1 { v } else { Vec::new() });

    for (algo, n) in [(Algo::Short, h), (Algo::Long, h * p)] {
        let mut v = vector(n);
        cc.allreduce_with(&mut v, op, &algo).unwrap();
        out.push(v);
    }

    let mut mine = vec![T::default(); h];
    cc.reduce_scatter_with(&vector(h * p), &mut mine, op, &Algo::Long)
        .unwrap();
    out.push(mine);

    if p == 4 {
        let shape = ClusterShape {
            inter_rows: 1,
            inter_cols: 2,
            ranks_per_node: 2,
        };
        let machine = HierMachine::paragon_cluster();
        let hs = select_hier(CollectiveOp::CombineToAll, shape, h * T::SIZE, &machine).unwrap();
        let mut v = vector(h);
        hier_allreduce(
            &GroupComm::world(c),
            &hs,
            &mut v,
            op,
            1 << 40,
            &mut Vec::new(),
        )
        .unwrap();
        out.push(v);
    }
    out
}

fn fused_equals_staged<T: Elem + Send>(gen: fn(u64) -> T) {
    let at = |bytes: usize| bytes / T::SIZE;
    let (t, s) = (at(DEFAULT_RENDEZVOUS_THRESHOLD), at(SHARE_FROM));
    for p in [2, 3, 4, 5] {
        for op in OPS {
            for h in [t - 1, t, t + 1, s - 1, s + 1] {
                let recs = Some(recorders(p, 16));
                let (out, run) = run_world_with(p, default_wait_timeout(), recs, |c| {
                    let fused = combines(c, op, h, gen);
                    let staged = combines(&Staged(c), op, h, gen);
                    (fused, staged)
                });
                let run = run.expect("recorded");
                for (rank, (fused, staged)) in out.iter().enumerate() {
                    for (call, (f, s)) in fused.iter().zip(staged).enumerate() {
                        assert!(
                            T::as_bytes(f) == T::as_bytes(s),
                            "p={p} {op:?} hop of {h} elements: call {call} differs on rank {rank}"
                        );
                    }
                }
                // Only the bare endpoint's half of the run can have
                // folded out of a window, and it did exactly when the
                // hop was a rendezvous.
                assert_eq!(
                    run.totals().windows_in_place > 0,
                    h * T::SIZE >= DEFAULT_RENDEZVOUS_THRESHOLD,
                    "p={p} {op:?} hop of {h} elements"
                );
            }
        }
    }
}

#[test]
fn fused_equals_staged_f64() {
    fused_equals_staged::<f64>(|x| (x % 1000) as f64 * 0.37 - 100.0);
}

#[test]
fn fused_equals_staged_i32() {
    fused_equals_staged::<i32>(|x| (x % 2001) as i32 - 1000);
}

#[test]
fn fused_equals_staged_u8() {
    fused_equals_staged::<u8>(|x| x as u8);
}

/// A combining hop at or above the rendezvous threshold writes no byte
/// of its receive bucket on the bare endpoint; behind the staging
/// wrapper every arrival lands there first. Same results either way.
#[test]
fn a_fused_hop_leaves_its_bucket_untouched() {
    const SENTINEL: i64 = 0x5a5a_5a5a_5a5a_5a5a;
    let b = DEFAULT_RENDEZVOUS_THRESHOLD / 8;
    let p = 3;
    let run = |c: &dyn Comm| {
        let gc = GroupComm::world(c);
        let contrib: Vec<i64> = (0..p * b).map(|i| (i * (c.rank() + 2)) as i64).collect();
        let blocks = intercom::block::partition(p * b, p);
        let mut results = Vec::new();
        let mut buckets = Vec::new();

        let mut bucket = vec![SENTINEL; b];
        let mut buf = contrib.clone();
        ring_reduce_scatter(&gc, &mut buf, &blocks[..], ReduceOp::Sum, 0, &mut bucket).unwrap();
        results.push(buf[blocks[c.rank()].clone()].to_vec());
        buckets.push(bucket);

        // p = 3 uses one block-sized bucket for the first arrival; the
        // last one lands in `mine`.
        let mut bucket = vec![SENTINEL; b];
        let mut mine = vec![SENTINEL; b];
        ring_reduce_scatter_into(&gc, &contrib, &mut mine, ReduceOp::Sum, 1, &mut bucket).unwrap();
        results.push(mine);

        let mut bucket = vec![SENTINEL; p * b];
        let mut buf = contrib.clone();
        mst_reduce(&gc, 0, &mut buf, ReduceOp::Max, 2, &mut bucket).unwrap();
        results.push(if c.rank() == 0 { buf } else { Vec::new() });
        buckets.push(bucket);
        (results, buckets)
    };
    let out = run_world(p, |c| (run(c), run(&Staged(c))));
    for (rank, ((fused, untouched), (staged, written))) in out.iter().enumerate() {
        assert_eq!(fused, staged, "rank {rank}");
        assert_eq!(fused[0], fused[1], "both rings reduce-scatter alike");
        assert!(untouched.iter().flatten().all(|&w| w == SENTINEL));
        // Rank 0 receives in every primitive, so its staged buckets
        // hold arrivals.
        if rank == 0 {
            assert!(written.iter().all(|b| b.iter().any(|&w| w != SENTINEL)));
        }
    }
}

/// The window promises no alignment: one posted from an odd address is
/// copied into the typed buffer first and the sink sees `None`.
#[test]
fn a_misaligned_window_takes_the_copy_fallback() {
    let n = DEFAULT_RENDEZVOUS_THRESHOLD / 8;
    let out = run_world(2, |c| {
        let gc = GroupComm::world(c);
        let values: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        if c.rank() == 0 {
            // A word-aligned base, so one byte in is odd for certain.
            let mut words = vec![0u64; n + 1];
            let bytes = <u64 as intercom::Scalar>::as_bytes_mut(&mut words);
            bytes[1..1 + n * 8].copy_from_slice(<f64 as intercom::Scalar>::as_bytes(&values));
            c.send(1, 5, &bytes[1..1 + n * 8]).unwrap();
            // And an aligned one, for contrast.
            gc.send(1, 6, &values).unwrap();
            return None;
        }
        let mut seen = Vec::new();
        for tag in [5, 6] {
            let mut acc = vec![1.0f64; n];
            let mut buf = vec![0.0f64; n];
            gc.recv_with(0, tag, &mut buf, |buf, lent| {
                seen.push(lent.is_some());
                ReduceOp::Sum.fold_into(&mut acc, lent.unwrap_or(buf));
            })
            .unwrap();
            assert!(acc.iter().zip(&values).all(|(a, v)| *a == v + 1.0));
        }
        Some(seen)
    });
    assert_eq!(out[1], Some(vec![false, true]));
}

/// A receive of the wrong length fails before anything is consumed:
/// the sink never runs, the accumulator keeps its bytes, and the
/// sender blocked on the window is released.
#[test]
fn a_length_mismatch_runs_no_sink_and_releases_the_sender() {
    let n = DEFAULT_RENDEZVOUS_THRESHOLD / 4;
    for exchange in [false, true] {
        let out = run_world(2, |c| {
            let gc = GroupComm::world(c);
            let data = vec![3i32; n];
            if c.rank() == 0 && !exchange {
                return (gc.send(1, 0, &data).err(), 0, 0);
            }
            let mut acc = vec![7i32; n];
            let mut buf = vec![0i32; n - c.rank()];
            let mut calls = 0;
            let sink = |buf: &mut [i32], lent: Option<&[i32]>| {
                calls += 1;
                ReduceOp::Sum.fold_into(&mut acc[..buf.len()], lent.unwrap_or(buf));
            };
            let err = match exchange {
                false => gc.recv_with(0, 0, &mut buf, sink).err(),
                true => gc
                    .sendrecv_with(1 - c.rank(), &data, 1 - c.rank(), &mut buf, 0, sink)
                    .err(),
            };
            (err, calls, acc.iter().filter(|&&a| a != 7).count())
        });
        let short = CommError::LengthMismatch {
            expected: (n - 1) * 4,
            actual: n * 4,
        };
        assert_eq!(out[1], (Some(short), 0, 0), "exchange: {exchange}");
        // Rank 0's window was dropped unconsumed (in an exchange its own
        // receive may be what fails, after folding or before).
        assert!(out[0].0 == Some(CommError::Disconnected) || (exchange && out[0].0.is_some()));
    }
}

/// How many receives of `call` on a two-rank world folded out of the
/// sender's window, and each rank's result.
fn windows_of(
    call: impl Fn(&Communicator<'_, ThreadComm>) -> Vec<f64> + Send + Sync,
) -> (u64, Vec<Vec<f64>>) {
    let (out, run) = run_world_with(2, default_wait_timeout(), Some(recorders(2, 64)), |c| {
        call(&Communicator::world(c, MachineParams::PARAGON))
    });
    let run = run.expect("recorded");
    (run.totals().windows_in_place, out)
}

/// Explicit plans run optimized programs through the default walk,
/// which issues `sendrecv_with` / `recv_with` for a fused receive: a
/// 4 MiB allreduce plan folds out of the sender's window as often as
/// the direct call does, to the same bits.
#[test]
fn an_allreduce_plan_folds_out_of_the_window_like_the_direct_call() {
    let n = (4 << 20) / 8;
    let vector = |rank: usize| {
        (0..n)
            .map(|i| (i * 3 + rank) as f64 * 0.25)
            .collect::<Vec<f64>>()
    };
    let direct = windows_of(|cc| {
        let mut v = vector(cc.rank());
        let choice = cc.auto_choice(CollectiveOp::CombineToAll, n * 8);
        let args = &mut [ArgBuf::Out(&mut v[..])];
        let op = PlanOp::AllReduce;
        run_direct(
            op,
            Some(&choice),
            cc.group(),
            ReduceOp::Sum,
            args,
            &mut Vec::new(),
            0,
        )
        .unwrap();
        v
    });
    let plan = windows_of(|cc| {
        let plan = AllreducePlan::<f64>::new(cc, n, ReduceOp::Sum);
        let mut v = vector(cc.rank());
        plan.execute(cc, &mut v).unwrap();
        v
    });
    assert!(direct.0 > 0, "the direct call folds out of windows");
    assert_eq!(plan, direct);
}

/// A 4 MiB reduce-scatter on two ranks is the bucket ring that reads its
/// contribution in place (`ring_reduce_scatter_into`): each arrival
/// lands in a bucket and has the rank's own block folded into it
/// (`bucket = arrived ⊕ block`). Lowering fuses the hop into one
/// three-region step (`StepKind::SendRecvCombine`), which the default
/// walk hands `sendrecv_with`: the plan, the default path (the deployed
/// program on threads) and the direct call each combine out of the
/// sender's window, one a rank, to the same bits.
#[test]
fn a_reduce_scatter_folds_out_of_the_window_on_every_path() {
    let b = (2 << 20) / 8;
    let contrib = |rank: usize| {
        (0..2 * b)
            .map(|i| (i * 5 + rank) as f64 * 0.5)
            .collect::<Vec<f64>>()
    };
    let direct = windows_of(|cc| {
        let mut mine = vec![0.0; b];
        let choice = cc.auto_choice(CollectiveOp::DistributedCombine, 2 * b * 8);
        let args = &mut [ArgBuf::In(&contrib(cc.rank())), ArgBuf::Out(&mut mine)];
        let op = PlanOp::ReduceScatter;
        run_direct(
            op,
            Some(&choice),
            cc.group(),
            ReduceOp::Sum,
            args,
            &mut Vec::new(),
            0,
        )
        .unwrap();
        mine
    });
    // The shape's first call runs the direct path, its second the
    // program.
    let default = windows_of(|cc| {
        let mut mine = vec![0.0; b];
        for _ in 0..2 {
            cc.reduce_scatter(&contrib(cc.rank()), &mut mine, ReduceOp::Sum)
                .unwrap();
        }
        mine
    });
    let plan = windows_of(|cc| {
        let plan = ReduceScatterPlan::<f64>::new(cc, b, ReduceOp::Sum);
        let mut mine = vec![0.0; b];
        plan.execute(cc, &contrib(cc.rank()), &mut mine).unwrap();
        mine
    });
    assert_eq!(direct.0, 2, "one window a rank, direct");
    assert_eq!(default, (2 * direct.0, direct.1.clone()));
    assert_eq!(plan, direct);
}
