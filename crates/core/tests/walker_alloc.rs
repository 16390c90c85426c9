//! The recursive template allocates nothing per call: a counting
//! allocator around the direct path at p = 64, where every level of
//! the walker carves a line and a plane out of its group and splits its
//! vector — views and arithmetic, no heap vectors — under the
//! one-dimensional and the hybrid strategies of both kinds; a
//! `Communicator` call on that path borrows its algorithm choice rather
//! than building one. And a persistent plan runs in its communicator's
//! arena, not one of its own.

use intercom::comm::GroupComm;
use intercom::ir::{run_direct, OwnedArgs, PlanOp};
use intercom::plan::AllreducePlan;
use intercom::{Algo, Comm, Communicator, ReduceOp, Result, Tag};
use intercom_cost::{HierChoice, MachineParams, Strategy, StrategyKind};
use intercom_topology::Mesh2D;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

thread_local! {
    /// Counted on this test's thread only: the harness allocates on its
    /// own threads at any time.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to `System` plus a relaxed counter bump
// behind a thread-local flag read; `System` discharges every
// `GlobalAlloc` obligation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc`
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTED.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged from the caller's `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A transport that moves nothing: every call returns at once, receive
/// buffers keep what they held.
struct Null {
    rank: usize,
    size: usize,
}

impl Comm for Null {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    fn send(&self, _: usize, _: Tag, _: &[u8]) -> Result<()> {
        Ok(())
    }
    fn recv(&self, _: usize, _: Tag, _: &mut [u8]) -> Result<()> {
        Ok(())
    }
    fn sendrecv(&self, _: usize, _: &[u8], _: usize, _: &mut [u8], _: Tag) -> Result<()> {
        Ok(())
    }
}

/// Allocations of rank 27's second and third direct-path calls of `op`
/// over `n` `f64`s on 64 ranks under `strategy` (the first grows the
/// scratch).
fn allocations(op: PlanOp, strategy: &Strategy, n: usize) -> u64 {
    let comm = Null { rank: 27, size: 64 };
    let gc = GroupComm::world(&comm);
    let choice = HierChoice::Flat(strategy.clone());
    let mut bufs = OwnedArgs::<f64>::new(op, 64, n, 27);
    let mut args = bufs.bind();
    let mut scratch = Vec::new();
    let mut call = |tag| {
        run_direct(
            op,
            Some(&choice),
            &gc,
            ReduceOp::Sum,
            &mut args,
            &mut scratch,
            tag,
        )
        .unwrap()
    };
    call(0);
    COUNTED.set(true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    call(1 << 20);
    call(2 << 20);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.set(false);
    after - before
}

#[test]
fn the_walker_allocates_nothing_per_call() {
    let shapes: [&[usize]; 4] = [&[64], &[8, 8], &[4, 4, 4], &[2, 2, 2, 2, 2, 2]];
    for dims in shapes {
        for kind in [StrategyKind::Mst, StrategyKind::ScatterCollect] {
            let strategy = Strategy::new(dims.to_vec(), kind);
            for op in [
                PlanOp::AllReduce,
                PlanOp::Collect,
                PlanOp::ReduceScatter,
                PlanOp::Broadcast { root: 5 },
                PlanOp::Reduce { root: 40 },
            ] {
                // Uneven blocks for the whole-vector ops; per-member
                // blocks for collect and reduce-scatter.
                let n = if op.cost_bytes(64, 1, 1) == 1 {
                    1000
                } else {
                    3
                };
                let allocs = allocations(op, &strategy, n);
                assert_eq!(allocs, 0, "{op} under {strategy:?}: {allocs} allocations");
            }
        }
    }
}

/// Allocations of the second and third of three `f()` calls (the
/// first grows the scratch and keeps the picks).
fn steady_allocations(mut f: impl FnMut()) -> u64 {
    f();
    COUNTED.set(true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.set(false);
    after - before
}

/// A `Communicator` call on a backend whose default path is the direct
/// path borrows the strategy it runs — from the communicator's picks,
/// which the selector's envelope is compared against — so rank 27 of a
/// 64-rank null transport, over a line and over an 8×8 mesh, allocates
/// nothing in a repeated cycle of calls: an 8 192-`f64` allreduce under
/// `Short`, `Long` and 8×8 hybrids of both kinds, and under `Auto` an
/// allreduce at lengths spanning 8 B to 256 KiB (the benchmark's sweep
/// range), a 1 KiB broadcast, an allgather of 64 B blocks and a
/// reduce-scatter of 128-`f64` blocks. A communicator that kept fewer
/// picks than one cycle selects would rebuild some every cycle.
#[test]
fn communicator_calls_on_the_direct_path_allocate_nothing() {
    let comm = Null { rank: 27, size: 64 };
    let line = Communicator::world(&comm, MachineParams::PARAGON);
    let mesh = Communicator::world_on_mesh(&comm, MachineParams::PARAGON, Mesh2D::new(8, 8))
        .expect("an 8x8 mesh holds 64 ranks");
    let algos = [
        Algo::Short,
        Algo::Long,
        Algo::Hybrid(Strategy::new(vec![8, 8], StrategyKind::Mst)),
        Algo::Hybrid(Strategy::new(vec![8, 8], StrategyKind::ScatterCollect)),
    ];
    let sweep: Vec<usize> = (1..=(256 << 10) / 8).step_by(127).collect();
    let mut buf = vec![1.0f64; (256 << 10) / 8];
    let (mut bytes, mine, mut all) = (vec![0u8; 1024], [7u8; 64], vec![0u8; 64 * 64]);
    let (contrib, mut block) = (vec![1.0f64; 128 * 64], vec![0.0f64; 128]);
    for (name, cc) in [("line", &line), ("mesh", &mesh)] {
        let allocs = steady_allocations(|| {
            for algo in &algos {
                cc.allreduce_with(&mut buf[..8192], ReduceOp::Sum, algo)
                    .unwrap();
            }
            for &n in &sweep {
                cc.allreduce(&mut buf[..n], ReduceOp::Sum).unwrap();
            }
            cc.bcast(0, &mut bytes).unwrap();
            cc.allgather(&mine, &mut all).unwrap();
            cc.reduce_scatter(&contrib, &mut block, ReduceOp::Sum)
                .unwrap();
        });
        assert_eq!(allocs, 0, "{name}: {allocs} allocations in two cycles");
    }
}

/// Plans borrow the arena of the communicator that executes them: once
/// a plan of a large shape has grown rank 27's arena, the first
/// executions of plans of the smaller allreduce lengths of a 64-rank
/// null-transport round allocate nothing. A plan owning an arena of
/// its own would grow it on its first execution.
#[test]
fn plans_borrow_their_communicators_arena() {
    let comm = Null { rank: 27, size: 64 };
    let cc = Communicator::world(&comm, MachineParams::PARAGON);
    let plan = |n| AllreducePlan::<f64>::new(&cc, n, ReduceOp::Sum);
    plan(1 << 16).execute(&cc, &mut vec![1.0; 1 << 16]).unwrap();
    let smaller = [1, 8, 100, 1000, 8192].map(|n| (plan(n), vec![1.0; n]));
    let arena = |(p, _): &(AllreducePlan<f64>, _)| {
        let rp = &p.program().unwrap().ranks[27];
        rp.scratch_bytes + rp.landing_bytes
    };
    assert!(
        smaller.iter().map(arena).sum::<usize>() > 0,
        "they use an arena"
    );
    COUNTED.set(true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (plan, mut buf) in smaller {
        plan.execute(&cc, &mut buf).unwrap();
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    COUNTED.set(false);
    assert_eq!(allocs, 0, "first executions of smaller plans allocated");
}
