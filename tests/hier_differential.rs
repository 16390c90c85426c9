//! Differential tests for hierarchical hybrids: for every collective
//! with a two-level template, executing the selected hierarchical
//! strategy must produce **byte-identical** results to flat execution
//! of the same call — on the threaded runtime and on the mesh
//! simulator, across several cluster shapes (including a true 2-D
//! inter-node mesh, which exercises mesh-aware inter-stage selection).
//!
//! Integer payloads with exact reductions make "byte-identical" a
//! meaningful bar: any leader-plane indexing slip, tag collision
//! between stages, or node-major block permutation bug shows up as a
//! differing word, not a tolerance failure.

use intercom::comm::{GroupComm, Tag};
use intercom::plan::AllreducePlan;
use intercom::{
    algorithms, hier_allreduce, hier_broadcast, hier_collect, hier_reduce, hier_reduce_scatter,
    Comm, Communicator, ReduceOp, CALL_TAG_STRIDE,
};
use intercom_cost::{
    choose_flat, enumerate_hier_strategies, select_hier, ClusterShape, CollectiveOp, GroupShape,
    HierChoice, HierMachine,
};
use intercom_meshsim::{simulate, SimConfig};
use intercom_runtime::run_world;
use intercom_topology::{Cluster, Mesh2D};
use std::cell::Cell;

/// The audit's cluster shapes. The first four are under the selected
/// strategies' test: linear inter-node arrays with fat and thin nodes,
/// plus a 2x3 inter mesh. The rest add one rank a node, a two-node
/// line of fat nodes and two more 2-D inter meshes.
const SHAPES: [ClusterShape; 8] = [
    shape(1, 4, 4),
    shape(2, 2, 4),
    shape(1, 8, 2),
    shape(2, 3, 2),
    shape(1, 6, 1),
    shape(1, 2, 8),
    shape(3, 3, 2),
    shape(1, 3, 3),
];

const fn shape(inter_rows: usize, inter_cols: usize, ranks_per_node: usize) -> ClusterShape {
    ClusterShape {
        inter_rows,
        inter_cols,
        ranks_per_node,
    }
}

/// Broadcast payload word `i`.
fn bcast_word(i: usize) -> u64 {
    (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Rank `r`'s contribution to element `i` of a combining op. Small
/// enough that sums over ≤ 16 ranks never wrap.
fn contrib_word(r: usize, i: usize) -> u64 {
    (r as u64 * 1_000_003 + i as u64 * 7 + 1) % 65_536
}

/// Rank `r`'s contribution to element `i` of the block destined for
/// rank `g` in a reduce-scatter.
fn rs_word(r: usize, g: usize, i: usize) -> u64 {
    (r as u64 * 131 + g as u64 * 17 + i as u64 * 3 + 5) % 4_096
}

/// A collect's result: every rank's `b`-word block, in rank order.
fn collect_expected(p: usize, b: usize) -> Vec<u64> {
    (0..p)
        .flat_map(|r| (0..b).map(move |i| contrib_word(r, i)))
        .collect()
}

/// Rank `rank`'s reduce-scatter result: its block of the summed
/// contributions.
fn rs_expected(p: usize, rank: usize, b: usize) -> Vec<u64> {
    (0..b)
        .map(|i| (0..p).map(|r| rs_word(r, rank, i)).sum())
        .collect()
}

/// Per-call `(label, hier result, flat result)` rows from one rank.
type CallRows = Vec<(&'static str, Vec<u64>, Vec<u64>)>;

/// Runs all five hierarchical collectives twice — the selected hybrid
/// and flat execution — and returns `(label, hier, flat)` per call.
/// Only the root's reduce output is defined, so non-roots report empty
/// vectors there.
fn differential<C: Comm + ?Sized>(c: &C, shape: ClusterShape, n: usize, b: usize) -> CallRows {
    let scratch = &mut Vec::new();
    let machine = HierMachine::paragon_cluster();
    let gc = GroupComm::world(c);
    let p = gc.len();
    let me = gc.me();
    let params = machine.inter();
    let hs = |op: CollectiveOp, bytes: usize| select_hier(op, shape, bytes, &machine).unwrap();
    let flat =
        |op: CollectiveOp, bytes: usize| choose_flat(op, GroupShape::Linear(p), bytes, params);
    let mut out = Vec::new();
    let mut call = 0u64;
    let mut tag = || {
        call += 1;
        (call - 1) * CALL_TAG_STRIDE
    };

    // Broadcast from the last rank.
    let root = p - 1;
    let init: Vec<u64> = if me == root {
        (0..n).map(bcast_word).collect()
    } else {
        vec![0; n]
    };
    let mut h = init.clone();
    hier_broadcast(
        &gc,
        &hs(CollectiveOp::Broadcast, n * 8),
        root,
        &mut h,
        tag(),
    )
    .unwrap();
    let mut f = init;
    algorithms::broadcast(
        &gc,
        &flat(CollectiveOp::Broadcast, n * 8),
        root,
        &mut f,
        tag(),
    )
    .unwrap();
    out.push(("broadcast", h, f));

    // Combine-to-one (sum) at rank 0; only the root's buffer is defined.
    let init: Vec<u64> = (0..n).map(|i| contrib_word(me, i)).collect();
    let mut h = init.clone();
    hier_reduce(
        &gc,
        &hs(CollectiveOp::CombineToOne, n * 8),
        0,
        &mut h,
        ReduceOp::Sum,
        tag(),
        scratch,
    )
    .unwrap();
    let mut f = init;
    algorithms::reduce(
        &gc,
        &flat(CollectiveOp::CombineToOne, n * 8),
        0,
        &mut f,
        ReduceOp::Sum,
        tag(),
        scratch,
    )
    .unwrap();
    if me != 0 {
        h.clear();
        f.clear();
    }
    out.push(("reduce", h, f));

    // Combine-to-all (sum).
    let init: Vec<u64> = (0..n).map(|i| contrib_word(me, i)).collect();
    let mut h = init.clone();
    hier_allreduce(
        &gc,
        &hs(CollectiveOp::CombineToAll, n * 8),
        &mut h,
        ReduceOp::Sum,
        tag(),
        scratch,
    )
    .unwrap();
    let mut f = init;
    algorithms::allreduce(
        &gc,
        &flat(CollectiveOp::CombineToAll, n * 8),
        &mut f,
        ReduceOp::Sum,
        tag(),
        scratch,
    )
    .unwrap();
    out.push(("allreduce", h, f));

    // Collect (allgather) of b-word blocks.
    let mine: Vec<u64> = (0..b).map(|i| contrib_word(me, i)).collect();
    let mut h = vec![0u64; p * b];
    hier_collect(
        &gc,
        &hs(CollectiveOp::Collect, p * b * 8),
        &mine,
        &mut h,
        tag(),
        scratch,
    )
    .unwrap();
    let mut f = vec![0u64; p * b];
    algorithms::collect(
        &gc,
        &flat(CollectiveOp::Collect, p * b * 8),
        &mine,
        &mut f,
        tag(),
        scratch,
    )
    .unwrap();
    out.push(("collect", h, f));

    // Distributed combine (reduce-scatter) of b-word blocks.
    let contrib: Vec<u64> = (0..p * b).map(|k| rs_word(me, k / b, k % b)).collect();
    let mut h = vec![0u64; b];
    hier_reduce_scatter(
        &gc,
        &hs(CollectiveOp::DistributedCombine, p * b * 8),
        &contrib,
        &mut h,
        ReduceOp::Sum,
        tag(),
        scratch,
    )
    .unwrap();
    let mut f = vec![0u64; b];
    algorithms::reduce_scatter(
        &gc,
        &flat(CollectiveOp::DistributedCombine, p * b * 8),
        &contrib,
        &mut f,
        ReduceOp::Sum,
        tag(),
        scratch,
    )
    .unwrap();
    out.push(("reduce-scatter", h, f));

    out
}

/// Checks every rank's hier/flat pair for equality, and spot-checks the
/// values themselves against independently computed expectations, so a
/// bug shared by both paths cannot hide behind agreement.
fn check(out: &[CallRows], shape: ClusterShape, n: usize, b: usize) {
    let p = shape.ranks();
    assert_eq!(out.len(), p);
    let bcast_exp: Vec<u64> = (0..n).map(bcast_word).collect();
    let sum_exp: Vec<u64> = (0..n)
        .map(|i| (0..p).map(|r| contrib_word(r, i)).sum())
        .collect();
    let collect_exp = collect_expected(p, b);
    for (rank, calls) in out.iter().enumerate() {
        for (label, h, f) in calls {
            assert_eq!(
                h, f,
                "{label} hier != flat at rank {rank} on {shape} (n={n}, b={b})"
            );
        }
        assert_eq!(
            out[rank][0].1, bcast_exp,
            "broadcast value at rank {rank} on {shape}"
        );
        if rank == 0 {
            assert_eq!(out[rank][1].1, sum_exp, "reduce value at root on {shape}");
        }
        assert_eq!(
            out[rank][2].1, sum_exp,
            "allreduce value at rank {rank} on {shape}"
        );
        assert_eq!(
            out[rank][3].1, collect_exp,
            "collect value at rank {rank} on {shape}"
        );
        assert_eq!(
            out[rank][4].1,
            rs_expected(p, rank, b),
            "reduce-scatter value at rank {rank} on {shape}"
        );
    }
}

#[test]
fn hier_matches_flat_on_the_threaded_runtime() {
    for &shape in &SHAPES[..4] {
        for (n, b) in [(2usize, 1usize), (1024, 16)] {
            let out = run_world(shape.ranks(), move |c| differential(c, shape, n, b));
            check(&out, shape, n, b);
        }
    }
}

#[test]
fn hier_matches_flat_on_the_mesh_simulator() {
    for &shape in &SHAPES[..4] {
        let machine = HierMachine::paragon_cluster();
        let cluster = Cluster::new(
            Mesh2D::new(shape.inter_rows, shape.inter_cols),
            shape.ranks_per_node,
        );
        for (n, b) in [(2usize, 1usize), (1024, 16)] {
            let cfg = SimConfig::cluster(cluster, &machine);
            let rep = simulate(&cfg, move |c| differential(c, shape, n, b));
            check(&rep.results, shape, n, b);
        }
    }
}

/// Every depth-≤2 candidate of collect and reduce-scatter, not only the
/// selected one, on every audit shape: a multi-dimensional inter
/// strategy places each node's gathered blocks at the node's slot, and
/// the rank-order range would be the wrong place. Each call reuses the
/// last call's scratch, so stale staging shows too.
#[test]
fn every_collect_and_reduce_scatter_candidate_is_right_by_value() {
    for shape in SHAPES {
        let p = shape.ranks();
        let calls: Vec<_> = [CollectiveOp::Collect, CollectiveOp::DistributedCombine]
            .into_iter()
            .flat_map(|op| enumerate_hier_strategies(op, shape, 2))
            .flat_map(|hs| [1, 13].map(|b| (hs.clone(), b)))
            .collect();
        let out = run_world(p, |c| {
            let (gc, scratch) = (GroupComm::world(c), &mut Vec::new());
            let me = gc.me();
            let mut rows = Vec::new();
            for ((hs, b), tag) in calls.iter().zip((0..).map(|k| k * CALL_TAG_STRIDE)) {
                let row = if hs.op() == CollectiveOp::Collect {
                    let mine: Vec<u64> = (0..*b).map(|i| contrib_word(me, i)).collect();
                    let mut all = vec![0u64; p * b];
                    hier_collect(&gc, hs, &mine, &mut all, tag, scratch).map(|()| all)
                } else {
                    let contrib: Vec<u64> = (0..p * b).map(|k| rs_word(me, k / b, k % b)).collect();
                    let (mut mine, sum) = (vec![0u64; *b], ReduceOp::Sum);
                    hier_reduce_scatter(&gc, hs, &contrib, &mut mine, sum, tag, scratch)
                        .map(|()| mine)
                };
                rows.push(row.unwrap());
            }
            rows
        });
        for (rank, rows) in out.iter().enumerate() {
            for ((hs, b), got) in calls.iter().zip(rows) {
                let want = match hs.op() {
                    CollectiveOp::Collect => collect_expected(p, *b),
                    _ => rs_expected(p, rank, *b),
                };
                assert_eq!(got, &want, "{hs} at rank {rank}, b={b}");
            }
        }
    }
}

/// Forwards to a backend and counts the messages this rank sends.
struct CountingComm<'a, C: Comm + ?Sized> {
    inner: &'a C,
    sent: Cell<usize>,
}

impl<C: Comm + ?Sized> Comm for CountingComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, tag: Tag, data: &[u8]) -> intercom::Result<()> {
        self.sent.set(self.sent.get() + 1);
        self.inner.send(to, tag, data)
    }

    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> intercom::Result<()> {
        self.inner.recv(from, tag, buf)
    }

    fn sendrecv(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
    ) -> intercom::Result<()> {
        self.sent.set(self.sent.get() + 1);
        self.inner.sendrecv(to, data, from, buf, tag)
    }
}

/// Length (in `u64` words) at which the two-level model prices the
/// hybrid allreduce under every flat strategy on the delta backbone.
const PLAN_WORDS: usize = 1 << 13;

/// One rank's `(result, messages sent)` for the default-path allreduce
/// and for an [`AllreducePlan`] of the same call, on a cluster
/// communicator where `Algo::Auto` resolves to the hierarchical hybrid.
fn default_vs_plan<C: Comm + ?Sized>(c: &C, cluster: &Cluster) -> [(Vec<u64>, usize); 2] {
    let counting = CountingComm {
        inner: c,
        sent: Cell::new(0),
    };
    let cc =
        Communicator::world_on_cluster(&counting, HierMachine::delta_cluster(), cluster).unwrap();
    assert!(matches!(
        cc.auto_choice(CollectiveOp::CombineToAll, PLAN_WORDS * 8),
        HierChoice::Hier(_)
    ));
    let init: Vec<u64> = (0..PLAN_WORDS)
        .map(|i| contrib_word(cc.rank(), i))
        .collect();

    let mut direct = init.clone();
    cc.allreduce(&mut direct, ReduceOp::Sum).unwrap();
    let direct_msgs = counting.sent.replace(0);

    let plan = AllreducePlan::<u64>::new(&cc, PLAN_WORDS, ReduceOp::Sum);
    assert!(matches!(plan.choice(), HierChoice::Hier(_)));
    assert!(
        plan.program().unwrap().hier.is_some(),
        "the plan must compile the hierarchical schedule Algo::Auto runs"
    );
    let mut planned = init;
    plan.execute(&cc, &mut planned).unwrap();
    [(direct, direct_msgs), (planned, counting.sent.get())]
}

fn check_plan_equals_default(out: &[[(Vec<u64>, usize); 2]]) {
    let sum_exp: Vec<u64> = (0..PLAN_WORDS)
        .map(|i| (0..out.len()).map(|r| contrib_word(r, i)).sum())
        .collect();
    for (rank, [direct, planned]) in out.iter().enumerate() {
        assert_eq!(direct.0, sum_exp, "default-path value at rank {rank}");
        assert_eq!(planned.0, sum_exp, "planned value at rank {rank}");
        assert_eq!(
            planned.1, direct.1,
            "rank {rank}: plan and default path send different message counts"
        );
    }
}

#[test]
fn plans_freeze_the_hierarchical_choice_on_both_backends() {
    let cluster = Cluster::new(Mesh2D::new(2, 2), 4);
    let out = run_world(cluster.ranks(), |c| default_vs_plan(c, &cluster));
    check_plan_equals_default(&out);
    let cfg = SimConfig::cluster(cluster, &HierMachine::delta_cluster());
    let rep = simulate(&cfg, |c| default_vs_plan(c, &cluster));
    check_plan_equals_default(&rep.results);
}

/// Executed, not self-graded: on the delta backbone (inter β exactly
/// 10× intra β) the selected hybrid's virtual time at 256 KiB must be
/// strictly below the model's best flat strategy on at least two of
/// three cluster shapes, for broadcast and for allreduce. Virtual time
/// is deterministic, so there is no tolerance.
#[test]
fn hybrids_beat_the_best_flat_strategy_on_the_delta_backbone() {
    const N: usize = 1 << 18;
    let machine = HierMachine::delta_cluster();
    let inter = machine.inter();
    for op in [CollectiveOp::Broadcast, CollectiveOp::CombineToAll] {
        let mut wins = 0;
        for shape in &SHAPES[..3] {
            let cluster = Cluster::new(
                Mesh2D::new(shape.inter_rows, shape.inter_cols),
                shape.ranks_per_node,
            );
            let hs = select_hier(op, *shape, N, &machine).unwrap();
            let flat = choose_flat(op, GroupShape::Cluster(*shape), N, inter);
            let virt = |hier: bool| {
                let cfg = SimConfig::cluster(cluster, &machine);
                simulate(&cfg, |c| {
                    let gc = GroupComm::world(c);
                    let mut buf = vec![1u8; N];
                    let scratch = &mut Vec::new();
                    match (op, hier) {
                        (CollectiveOp::Broadcast, true) => hier_broadcast(&gc, &hs, 0, &mut buf, 0),
                        (CollectiveOp::Broadcast, false) => {
                            algorithms::broadcast(&gc, &flat, 0, &mut buf, 0)
                        }
                        (_, true) => hier_allreduce(&gc, &hs, &mut buf, ReduceOp::Max, 0, scratch),
                        (_, false) => {
                            algorithms::allreduce(&gc, &flat, &mut buf, ReduceOp::Max, 0, scratch)
                        }
                    }
                    .unwrap();
                })
                .elapsed
            };
            if virt(true) < virt(false) {
                wins += 1;
            }
        }
        assert!(wins >= 2, "{op:?}: hybrid wins on only {wins}/3 shapes");
    }
}
