//! Proves the transport's zero-allocation claim with a counting global
//! allocator.
//!
//! Three levels of guarantee, strongest first:
//!
//! 1. Raw eager hops (`send`/`recv`/small `sendrecv`): after one
//!    warm-up exchange allocates the pair's mailbox rings (and, past
//!    1 KiB, the arena of the slots' extensions), repeated hops perform
//!    **exactly zero** heap allocations — up to 1 KiB a hop is copied
//!    through a ring slot's inline area and stores nothing else, above
//!    that through the slot's extension, reused in place.
//! 2. Rendezvous hops (large `sendrecv` and `send`): the zero-copy
//!    path stores nothing and reuses retired completion flags,
//!    so steady-state hops allocate nothing except a rare benign race
//!    (the peer's flag handle not yet dropped when the flag is
//!    reacquired) — a handful of tiny, payload-size-independent
//!    allocations at most.
//!    The primitives the long-vector collectives are made of, called
//!    with their blocks and buckets in hand, allocate **zero bytes**:
//!    a combining hop folds out of the sender's window, a long plain
//!    one is copied by both ranks, and neither needs a buffer.
//! 3. Whole collectives, planned or on the communicator's default
//!    path: the payload-scale buffers (transport hops, plan and
//!    communicator scratch) are all reused; what remains is the
//!    algorithm layer's small per-stage setup (strategies, block range
//!    lists, subgroup member lists), bounded and independent of
//!    payload size. On threads the default path is the deployed program
//!    from the communicator's memo, which sets nothing up: with eager
//!    hops its steady-state rounds allocate **nothing**, metrics on or
//!    off.
//!
//! The counter covers every rank thread of the process, so measured
//! windows are bracketed by barriers (warmed planned allreduce) keeping
//! other ranks quiescent — and the tests themselves are serialized
//! through [`WINDOW`], since the harness otherwise runs them on
//! concurrent threads whose worlds would allocate in each other's
//! windows. Only threads that opt in through [`RANK_THREAD`] are
//! counted: the harness formats and prints a finished test's result on
//! its own threads while the next test's window is already open.

#![deny(unsafe_op_in_unsafe_fn)]

use intercom::block::partition;
use intercom::plan::{AllreducePlan, BcastPlan, CollectPlan};
use intercom::primitives::{
    mst_bcast, mst_reduce, ring_collect, ring_reduce_scatter, ring_reduce_scatter_into,
};
use intercom::{Comm, Communicator, GroupComm, ReduceOp};
use intercom_cost::MachineParams;
use intercom_obs::metrics;
use intercom_runtime::{run_world, DEFAULT_RENDEZVOUS_THRESHOLD};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set by every rank closure; const-initialized and without a
    /// destructor, so reading it inside the allocator never allocates.
    static RANK_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation(bytes: usize) {
    if RANK_THREAD.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: a pure pass-through to `System` plus a relaxed counter bump
// behind a thread-local flag read; every `GlobalAlloc` contract
// obligation is discharged by `System` itself, and the counter has no
// effect on layout or pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        // SAFETY: `layout` is forwarded unchanged from our caller, who
        // guarantees it is non-zero-sized as `GlobalAlloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` via our
        // own `alloc`/`realloc` with this same `layout`, per the caller's
        // `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        // SAFETY: `ptr`/`layout` describe a live block from this
        // allocator and `new_size` is non-zero, forwarded unchanged from
        // the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the measured windows across the three tests; a poisoned
/// lock (an earlier test failed) must not mask this one's result.
static WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn window_guard() -> std::sync::MutexGuard<'static, ()> {
    WINDOW.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts the rank threads' allocations, and rank 0's stores beyond a
/// ring slot's inline area, during `iters` hops of `n` bytes between two ranks
/// (after `warmup` identical hops). A hop is a symmetric `sendrecv`,
/// or with `plain` one `send`/`recv` round trip.
fn allocations_during_hops(n: usize, warmup: usize, iters: usize, plain: bool) -> (u64, u64) {
    let _window = window_guard();
    let out = run_world(2, |c| {
        RANK_THREAD.set(true);
        let peer = 1 - c.rank();
        let mine = vec![c.rank() as u8; n];
        let mut got = vec![0u8; n];
        let hop = |got: &mut [u8]| {
            if !plain {
                c.sendrecv(peer, &mine, peer, got, 1).unwrap();
            } else if c.rank() == 0 {
                c.send(peer, 1, &mine).unwrap();
                c.recv(peer, 1, got).unwrap();
            } else {
                c.recv(peer, 1, got).unwrap();
                c.send(peer, 1, &mine).unwrap();
            }
        };
        for _ in 0..warmup {
            hop(&mut got);
        }
        // Lockstep ping-pong keeps mailbox depth at 1, but a receiver
        // descheduled under load lets the peer's next send queue behind
        // an unconsumed one (depth 2), in a second ring slot and, past
        // 1 KiB, its extension: storage the pair already has. Queue two
        // here behind a tag-2 handshake the peer receives first, so it
        // stashes both: the deepest a mailbox and a stash get, reached
        // before the window rather than by a loaded machine inside it.
        // Only eager sizes need (or survive) this: a rendezvous hop
        // stores nothing, and two rendezvous sends facing each other
        // are a deadlock.
        if n < DEFAULT_RENDEZVOUS_THRESHOLD {
            c.send(peer, 1, &mine).unwrap();
            c.send(peer, 1, &mine).unwrap();
            c.send(peer, 2, &[0]).unwrap();
            c.recv(peer, 2, &mut [0]).unwrap();
            c.recv(peer, 1, &mut got).unwrap();
            c.recv(peer, 1, &mut got).unwrap();
        }
        // One more hop proves the peer has taken both, so the window
        // opens on mailboxes and stashes in their steady state.
        hop(&mut got);
        let acquired = || {
            let pool = c.pool_stats();
            pool.hits + pool.misses
        };
        let (pool_before, before) = (acquired(), ALLOCATIONS.load(Ordering::SeqCst));
        for _ in 0..iters {
            hop(&mut got);
        }
        // Hops double as barriers: when rank 0's last one returns,
        // rank 1 has completed its side of every iteration, so both
        // ranks' hops fall inside the window.
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        // The peer may still be inside its last receive: keep this
        // rank's endpoint teardown out of the peer's window.
        RANK_THREAD.set(false);
        (after - before, acquired() - pool_before)
    });
    out[0]
}

#[test]
fn eager_hops_are_strictly_allocation_free() {
    // 8 B and 1 KiB travel inline in a ring slot, 16 KiB in the slot's
    // extension; as an exchange and as a plain round trip.
    for n in [8, 1024, 16 << 10] {
        for plain in [false, true] {
            let (allocs, acquired) = allocations_during_hops(n, 4, 200, plain);
            assert_eq!(
                allocs, 0,
                "steady-state {n} B hops performed {allocs} heap allocations (plain: {plain})"
            );
            if n <= 1024 {
                assert_eq!(acquired, 0, "an inline {n} B hop stored outside its slot");
            }
        }
    }
}

#[test]
fn rendezvous_hops_allocate_at_most_stray_flags() {
    let iters = 100;
    for plain in [false, true] {
        let (n, acquired) =
            allocations_during_hops(DEFAULT_RENDEZVOUS_THRESHOLD * 2, 4, iters, plain);
        // The only permitted allocation is a fresh completion flag when
        // the retired one is reacquired before the peer drops its
        // handle; no payload is ever stored, let alone allocated for.
        assert!(
            n <= 8,
            "expected near-zero rendezvous allocations, got {n} over {iters} hops (plain: {plain})"
        );
        assert_eq!(acquired, 0, "a rendezvous hop stored its payload");
    }
}

/// Bytes the rank threads allocate over `rounds` steady-state rounds of
/// a bucket allreduce (reduce-scatter, whose hops fold in flight, then
/// collect), an out-of-place reduce-scatter and an MST broadcast (whose
/// hops are plain receives) of `elems` `f64`s on `p` ranks, block
/// tables and buckets built once outside the window.
fn bytes_allocated_during_primitive_rounds(p: usize, elems: usize, rounds: usize) -> u64 {
    let _window = window_guard();
    let out = run_world(p, |c| {
        RANK_THREAD.set(true);
        let gc = GroupComm::world(c);
        let blocks: &[_] = &partition(elems, p);
        let b = elems / p;
        let mut buf = vec![1.0f64; elems];
        let mut bucket = vec![0.0f64; elems.div_ceil(p)];
        let contrib = vec![c.rank() as f64; b * p];
        let mut mine = vec![0.0f64; b];
        let mut buckets = vec![0.0f64; 2 * b];
        let mut one_round = || {
            let sum = ReduceOp::Sum;
            ring_reduce_scatter(&gc, &mut buf, blocks, sum, 0, &mut bucket).unwrap();
            ring_collect(&gc, &mut buf, blocks, 1).unwrap();
            ring_reduce_scatter_into(&gc, &contrib, &mut mine, sum, 2, &mut buckets).unwrap();
            mst_bcast(&gc, 0, &mut buf, 3).unwrap();
        };
        // Eager and inline, so allocation-free once the rings exist.
        let barrier = || {
            let mut token = [0.0f64];
            mst_reduce(&gc, 0, &mut token, ReduceOp::Sum, 4, &mut [0.0]).unwrap();
            mst_bcast(&gc, 0, &mut token, 5).unwrap();
        };
        // How deep a mailbox or a stash queue gets depends on who was
        // descheduled when (see `allocations_during_hops`), so provision
        // them instead of hoping the warm-up rounds do: four messages
        // from every peer, taken out of order behind a fifth.
        let peers = || (0..p).filter(|&r| r != c.rank());
        for peer in peers() {
            for tag in [9, 9, 9, 9, 10] {
                c.send(peer, tag, &[0; 8]).unwrap();
            }
        }
        for tag in [10, 9, 9, 9, 9] {
            for peer in peers() {
                c.recv(peer, tag, &mut [0; 8]).unwrap();
            }
        }
        for _ in 0..4 {
            one_round();
            barrier();
        }
        let before = ALLOCATED_BYTES.load(Ordering::SeqCst);
        for _ in 0..rounds {
            one_round();
        }
        barrier();
        let after = ALLOCATED_BYTES.load(Ordering::SeqCst);
        RANK_THREAD.set(false);
        after - before
    });
    out[0]
}

#[test]
fn fused_and_shared_hops_allocate_nothing() {
    // 64 KiB on 2 ranks: every hop is a 32 KiB window, folded in place
    // or copied under the lock. 1 MiB on 4: 256 KiB blocks, folded in
    // place or claimed and copied by both ranks, and 1 MiB, 512 KiB
    // broadcast levels.
    for (p, bytes) in [(2, 64 << 10), (4, 1 << 20)] {
        let allocated = bytes_allocated_during_primitive_rounds(p, bytes / 8, 20);
        assert_eq!(allocated, 0, "{bytes} B on {p} ranks");
    }
}

/// Runs `rounds` steady-state repetitions of every planned collective
/// (or, with `planned` off, of the five strategy-driven calls of the
/// communicator's default path) on a world of `p` ranks and returns the
/// number of heap allocations the rank threads performed during those
/// repetitions (warm-up excluded), and their bytes.
fn allocations_during_steady_rounds(
    p: usize,
    elems: usize,
    rounds: usize,
    planned: bool,
) -> (u64, u64) {
    let _window = window_guard();
    let out = run_world(p, |c| {
        RANK_THREAD.set(true);
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let bcast = BcastPlan::<f64>::new(&cc, 0, elems);
        let collect = CollectPlan::<f64>::new(&cc, elems);
        let allreduce = AllreducePlan::<f64>::new(&cc, elems, ReduceOp::Sum);
        let barrier = AllreducePlan::<f64>::new(&cc, 1, ReduceOp::Sum);
        let mut buf = vec![1.0f64; elems];
        let mine = vec![c.rank() as f64; elems];
        let mut all = vec![0.0f64; elems * c.size()];
        let mut one_round = || {
            if planned {
                bcast.execute(&cc, &mut buf).unwrap();
                collect.execute(&cc, &mine, &mut all).unwrap();
                allreduce.execute(&cc, &mut buf).unwrap();
            } else {
                cc.bcast(0, &mut buf).unwrap();
                cc.allgather(&mine, &mut all).unwrap();
                cc.allreduce(&mut buf, ReduceOp::Sum).unwrap();
                cc.reduce(0, &mut buf, ReduceOp::Sum).unwrap();
                cc.reduce_scatter(&all, &mut buf, ReduceOp::Sum).unwrap();
            }
        };
        // Warm-up: makes every ring, arena, stash buffer and queue, and
        // the communicator's scratch. Two rounds, in case the first round's
        // out-of-order arrivals differ from the steady pattern.
        one_round();
        one_round();
        // Barrier (itself planned + warmed, so it is allocation-free)
        // so no rank is still allocating warm-up structures when the
        // measured window opens.
        let mut token = [0.0f64];
        barrier.execute(&cc, &mut token).unwrap();
        barrier.execute(&cc, &mut token).unwrap();
        let counters = || {
            (
                ALLOCATIONS.load(Ordering::SeqCst),
                ALLOCATED_BYTES.load(Ordering::SeqCst),
            )
        };
        let before = counters();
        for _ in 0..rounds {
            one_round();
        }
        // Close the window with a barrier *before* reading, so every
        // rank's rounds are inside [before, after] on rank 0.
        barrier.execute(&cc, &mut token).unwrap();
        let after = counters();
        // As above: teardown stays out of a slower rank's window.
        RANK_THREAD.set(false);
        (after.0 - before.0, after.1 - before.1)
    });
    out[0]
}

#[test]
fn planned_collective_rounds_allocate_only_bounded_setup() {
    // Per round across 4 ranks and 3 collectives the algorithm layer
    // builds a few block-range and subgroup-member lists; everything
    // payload-sized is reused. The bound is deliberately tight enough
    // that a single payload buffer regression per round would trip it.
    let (small, _) = allocations_during_steady_rounds(4, 64, 10, true);
    assert!(
        small <= 600,
        "setup allocations ballooned: {small} over 10 rounds"
    );

    // Size-independence: 128× larger payloads must not change the
    // allocation picture materially (same strategies modulo the cost
    // model's choice, zero payload-scale allocations).
    let (large, _) = allocations_during_steady_rounds(4, 8192, 10, true);
    assert!(
        large <= 600,
        "large-payload rounds allocate: {large} over 10 rounds"
    );
}

#[test]
fn default_path_rounds_allocate_only_bounded_setup() {
    // Same picture without plans, up to rendezvous-sized hops: 50 calls
    // on each of 4 ranks select, split and partition, and all of that
    // together stays under one of the largest payload's vectors (the
    // parent allocated and zeroed a work vector, a bucket or both in
    // every combining call).
    for elems in [64, 8192, 65_536] {
        let (n, bytes) = allocations_during_steady_rounds(4, elems, 10, false);
        assert!(n <= 1500, "{n} allocations over 10 rounds of {elems} f64");
        assert!(
            bytes < 65_536,
            "{bytes} bytes over 10 rounds of {elems} f64"
        );
    }
}

/// Allocations the rank threads make over `rounds` steady-state rounds
/// of the five strategy-driven default-path calls of `elems` `f64`s on
/// `p` ranks, with the metrics layer `metered` — every mailbox and stash
/// provisioned to its deepest first, as in
/// [`bytes_allocated_during_primitive_rounds`].
fn allocations_during_default_path_rounds(
    p: usize,
    elems: usize,
    rounds: usize,
    metered: bool,
) -> u64 {
    let _window = window_guard();
    metrics::set_enabled(metered);
    let out = run_world(p, |c| {
        RANK_THREAD.set(true);
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let mut buf = vec![1.0f64; elems];
        let mine = vec![c.rank() as f64; elems];
        let mut all = vec![0.0f64; elems * p];
        let mut one_round = || {
            cc.bcast(0, &mut buf).unwrap();
            cc.allgather(&mine, &mut all).unwrap();
            cc.allreduce(&mut buf, ReduceOp::Sum).unwrap();
            cc.reduce(0, &mut buf, ReduceOp::Sum).unwrap();
            cc.reduce_scatter(&all, &mut buf, ReduceOp::Sum).unwrap();
        };
        let peers = || (0..p).filter(|&r| r != c.rank());
        for peer in peers() {
            for tag in [9, 9, 9, 9, 10] {
                c.send(peer, tag, &[0; 8]).unwrap();
            }
        }
        for tag in [10, 9, 9, 9, 9] {
            for peer in peers() {
                c.recv(peer, tag, &mut [0; 8]).unwrap();
            }
        }
        for _ in 0..4 {
            one_round();
            cc.barrier().unwrap();
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..rounds {
            one_round();
        }
        cc.barrier().unwrap();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        RANK_THREAD.set(false);
        after - before
    });
    metrics::set_enabled(false);
    out[0]
}

#[test]
fn default_path_rounds_allocate_nothing() {
    // Eager hops only (up to 100 × 4 × 8 B gathered): every call is a
    // memo hit running its deployed program over the communicator's
    // scratch, and with metrics on its series are built once per
    // program, in the warm-up.
    for p in [2, 4] {
        for elems in [1, 64, 100] {
            for metered in [false, true] {
                let allocs = allocations_during_default_path_rounds(p, elems, 20, metered);
                assert_eq!(
                    allocs, 0,
                    "{allocs} allocations over 20 rounds of {elems} f64 on {p} ranks (metrics on: {metered})"
                );
            }
        }
    }
}
