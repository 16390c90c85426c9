//! What the simulator's harness costs the host, pinned from outside:
//!
//! 1. Steady-state hops allocate nothing that scales with the payload,
//!    and next to nothing at all (zero bytes when this was written; the
//!    bound leaves room for a channel's waiter list growing under an
//!    unlucky interleaving) — a counting global allocator over the rank
//!    workers *and* the engine thread.
//! 2. A steady-state default-path call — a compiled program the engine
//!    walks — allocates nothing on the engine's side, also when the
//!    engine splits its batches with its helper, and on the rank's side
//!    the same few allocations (the plan-cache lookup's) whatever the
//!    world's size, block size or the program's step count.
//! 3. Rank workers and the engine's helper belong to the thread that
//!    calls `simulate` and outlive a world: the next world on that thread
//!    reuses them, a world whose rank panicked does not spoil them,
//!    nested and concurrent callers each get their own, and the workers
//!    end with their owner.
//! 4. A rank grows its scratch arena for a compiled program before the
//!    hand-off to the engine only when a step the engine runs touches
//!    it, and never when no step does; a 16×32 allreduce, whose receives
//!    all fold where they land, never grows it.
//!
//! Only threads that opt in through [`COUNTED`] are counted, so the
//! other tests of this file (and the harness printing their results)
//! can run beside the measured window.

#![deny(unsafe_op_in_unsafe_fn)]

use intercom::comm::GroupComm;
use intercom::ir::{
    execute, global_cache, ArgBuf, Buf, CollectiveProgram, Loc, PlanKey, PlanOp, RankProgram, Step,
    StepKind,
};
use intercom::{Comm, Communicator, ReduceOp};
use intercom_cost::{CollectiveOp, MachineParams};
use intercom_meshsim::{simulate, SimConfig};
use intercom_topology::Mesh2D;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

struct CountingAlloc;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Const-initialized and without a destructor, so reading it inside
    /// the allocator never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// Every allocation this thread has made, opted in or not.
    static MADE: Cell<u64> = const { Cell::new(0) };
    /// Set on the rank whose arena [`arena_at_hand_off`] watches.
    static WATCHED: Cell<bool> = const { Cell::new(false) };
}

/// The watched rank's arena: larger than anything else it allocates.
const ARENA: usize = 24_680;

/// Whether the watched rank has allocated [`ARENA`] bytes or more.
static ARENA_GROWN: AtomicBool = AtomicBool::new(false);

fn count_allocation(bytes: usize) {
    let _ = MADE.try_with(|made| made.set(made.get() + 1));
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
    if bytes >= ARENA && WATCHED.try_with(Cell::get).unwrap_or(false) {
        ARENA_GROWN.store(true, Ordering::SeqCst);
    }
}

/// Allocations the calling thread has made so far.
fn made_here() -> u64 {
    MADE.with(Cell::get)
}

// SAFETY: a pure pass-through to `System` plus a relaxed counter bump
// behind a thread-local flag read; every `GlobalAlloc` obligation is
// discharged by `System` itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this same `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn unit() -> MachineParams {
    MachineParams {
        alpha: 1.0,
        beta: 1.0,
        gamma: 0.0,
        delta: 0.0,
        link_excess: 1.0,
    }
}

fn world_2x2() -> SimConfig {
    SimConfig::new(Mesh2D::new(2, 2), unit())
}

/// Bytes allocated by the engine thread and the four rank workers over
/// `hops` ring `sendrecv`s of `n` bytes, after a warm-up.
fn bytes_allocated_during_hops(n: usize, hops: usize) -> u64 {
    COUNTED.set(true);
    let report = simulate(&world_2x2(), |c| {
        COUNTED.set(true);
        let (p, me) = (c.size(), c.rank());
        let mine = vec![me as u8; n];
        let mut got = vec![0u8; n];
        let mut hop = || {
            c.sendrecv((me + 1) % p, &mine, (me + p - 1) % p, &mut got, 1)
                .unwrap()
        };
        // Warm-up sizes the engine's vectors and every thread's channel
        // context. A channel sizes its list of waiting threads the first
        // time a thread blocks on it, so each rank in turn dawdles before
        // a hop: the other ranks block on their replies meanwhile, and
        // the engine on its requests. On a ring, a rank that has
        // completed hop k + p knows every rank has completed hop k: p
        // extra hops on each side keep all ranks' measured hops inside
        // rank 0's window.
        for slow in 0..p {
            if me == slow {
                std::thread::sleep(Duration::from_millis(5));
            }
            hop();
        }
        (0..8 + p).for_each(|_| hop());
        let before = ALLOCATED_BYTES.load(Ordering::SeqCst);
        (0..hops + p).for_each(|_| hop());
        let after = ALLOCATED_BYTES.load(Ordering::SeqCst);
        // A rank that is done reports its outcome while slower ranks
        // are still inside the window: the world's teardown stays out.
        COUNTED.set(false);
        assert!(got.iter().all(|&b| b as usize == (me + p - 1) % p));
        after - before
    });
    COUNTED.set(false);
    report.results[0]
}

#[test]
fn steady_state_hops_allocate_nothing_that_grows_with_the_payload() {
    let small = bytes_allocated_during_hops(8, 200);
    let large = bytes_allocated_during_hops(64 << 10, 200);
    assert_eq!(small, large, "allocation depends on the payload size");
    assert!(
        small < 16 << 10,
        "{small} bytes allocated over 200 steady-state hops"
    );
}

/// Over `calls` steady-state `allgather`s of `block` bytes a rank on a
/// `rows × cols` mesh: each rank's own allocations, and the engine
/// thread's over the whole world (set-up and teardown included).
fn program_call_allocations(rows: usize, cols: usize, block: usize, calls: u64) -> (Vec<u64>, u64) {
    let mesh = Mesh2D::new(rows, cols);
    let cfg = SimConfig::new(mesh, MachineParams::PARAGON);
    let before = made_here();
    let report = simulate(&cfg, |c| {
        let cc = Communicator::world_on_mesh(c, MachineParams::PARAGON, mesh).unwrap();
        let mine = vec![c.rank() as u8; block];
        let mut all = vec![0u8; block * c.size()];
        // Warm-up compiles the program and sizes the arena.
        for _ in 0..3 {
            cc.allgather(&mine, &mut all).unwrap();
        }
        let t0 = made_here();
        for _ in 0..calls {
            cc.allgather(&mine, &mut all).unwrap();
        }
        let made = made_here() - t0;
        assert_eq!(all[block * (c.size() - 1)] as usize, c.size() - 1);
        made
    });
    (report.results, made_here() - before)
}

#[test]
fn steady_program_calls_allocate_nothing_in_the_engine_and_a_constant_in_ranks() {
    // Spawn this thread's workers outside the measured worlds.
    program_call_allocations(4, 4, 1, 1);
    // A thread may register on a channel's waiter list for the first
    // time inside the measured window (an allocation or two, on an
    // unlucky interleaving), so the counts are taken over 20 calls: an
    // allocation per call would add 16 on the engine side, and 20 to a
    // rank's count.
    let per_call = |rows, cols, block| {
        let (_, engine_short) = program_call_allocations(rows, cols, block, 4);
        let (ranks, engine_long) = program_call_allocations(rows, cols, block, 20);
        assert!(
            engine_long.abs_diff(engine_short) < 16,
            "{rows}x{cols}: sixteen more calls allocated on the engine thread \
             ({engine_short} → {engine_long})"
        );
        let each = ranks[0] / 20;
        assert!(
            ranks.iter().all(|&made| made / 20 == each),
            "{rows}x{cols}, {block} B: {ranks:?}"
        );
        each
    };
    // 4 and 16 ranks; 1-byte and 64-byte blocks (a 16-rank collect's
    // program holds a step per block, and more than a 4-rank one), and
    // 64 KiB blocks, whose 16-rank batches of 1 MiB and more the engine
    // splits with its helper.
    let counts = [
        per_call(2, 2, 1),
        per_call(2, 2, 64),
        per_call(4, 4, 1),
        per_call(4, 4, 64),
        per_call(4, 4, 64 << 10),
    ];
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    assert!(counts[0] <= 8, "{} allocations per call", counts[0]);
}

/// Runs `steps` as rank 0's program of a two-rank world, over an 8-byte
/// buffer and an arena of [`ARENA`] bytes; rank 1 receives the message
/// rank 0 sends first (tag 0, 4 bytes), then swaps 4 bytes with it
/// (tag 1). Returns whether rank 0 had grown its arena when that first
/// message arrived — it has handed the engine its program by then, and
/// is blocked in it until the swap — and the arena's length at the end.
fn arena_at_hand_off(steps: Vec<StepKind>) -> (bool, usize) {
    let rank = |steps: Vec<StepKind>, scratch_bytes| RankProgram {
        steps: steps.into_iter().map(|kind| Step { kind }).collect(),
        scratch_bytes,
        landing_bytes: 0,
    };
    let prog = CollectiveProgram {
        plan_id: 1 << 40,
        op: PlanOp::AllReduce,
        p: 2,
        n: 8,
        elem_size: 1,
        strategy: None,
        hier: None,
        radices: Vec::new(),
        ranks: vec![rank(steps, ARENA), rank(Vec::new(), 0)],
        series: Default::default(),
    };
    ARENA_GROWN.store(false, Ordering::SeqCst);
    let report = simulate(&SimConfig::new(Mesh2D::new(1, 2), unit()), |c| {
        if c.rank() == 1 {
            let mut got = [0u8; 4];
            c.recv(0, 0, &mut got).unwrap();
            let grown = ARENA_GROWN.load(Ordering::SeqCst);
            c.sendrecv(0, &got, 0, &mut [0; 4], 1).unwrap();
            return (grown, 0);
        }
        let (mut buf, mut arena) = ([7u8; 8], Vec::new());
        let args = &mut [ArgBuf::Out(&mut buf[..])];
        WATCHED.set(true);
        let out = execute(
            &prog,
            &GroupComm::world(c),
            ReduceOp::Sum,
            args,
            &mut arena,
            0,
        );
        WATCHED.set(false);
        out.unwrap();
        (false, arena.len())
    });
    (report.results[1].0, report.results[0].1)
}

#[test]
fn a_rank_readies_its_arena_only_for_the_steps_the_engine_runs() {
    let (a, s) = (Buf::Arg(0), Buf::Scratch);
    let at = |buf, off| Loc { buf, off, len: 4 };
    let send = StepKind::Send {
        to: 1,
        tag_off: 0,
        src: at(a, 0),
    };
    let swap = |src| StepKind::SendRecv {
        to: 1,
        src,
        from: 1,
        dst: at(a, 4),
        tag_off: 1,
    };
    let copy = |src, dst| StepKind::Copy { src, dst };
    let words = ARENA / 8;
    // Touched only after the last transfer: grown after the hand-off.
    let after = vec![
        send,
        swap(at(a, 0)),
        copy(at(a, 4), at(s, 0)),
        copy(at(s, 0), at(a, 0)),
    ];
    assert_eq!(arena_at_hand_off(after), (false, words));
    // Touched between the transfers: grown before it.
    let between = vec![send, copy(at(a, 0), at(s, 0)), swap(at(s, 0))];
    assert_eq!(arena_at_hand_off(between), (true, words));
    // Never touched: never grown.
    assert_eq!(arena_at_hand_off(vec![send, swap(at(a, 0))]), (false, 0));
}

#[test]
fn a_simulated_16x32_allreduce_never_grows_the_arena() {
    // Every receive of the program folds into the caller's vector: no
    // scratch, and a landing that only a walker which asks for it gets
    // (the engine never does). The arena each rank lends stays empty.
    let mesh = Mesh2D::new(16, 32);
    let n = (64 << 10) / 8;
    let report = simulate(&SimConfig::new(mesh, MachineParams::PARAGON), |c| {
        let cc = Communicator::world_on_mesh(c, MachineParams::PARAGON, mesh).unwrap();
        let choice = cc.auto_choice(CollectiveOp::CombineToAll, n * 8);
        let key = PlanKey::frozen(PlanOp::AllReduce, c.size(), n, 8, Some(&choice));
        let prog = global_cache().get_or_compile(&key).unwrap();
        let (mut v, mut arena) = (vec![c.rank() as f64; n], Vec::new());
        let args = &mut [ArgBuf::Out(&mut v[..])];
        execute(&prog, cc.group(), ReduceOp::Sum, args, &mut arena, 0).unwrap();
        let rp = &prog.ranks[c.rank()];
        (
            rp.scratch_bytes,
            rp.landing_bytes,
            arena.capacity(),
            v[n - 1],
        )
    });
    let sum = (0..512).sum::<u32>() as f64;
    for (rank, &(scratch, _, arena, last)) in report.results.iter().enumerate() {
        assert_eq!((scratch, arena, last), (0, 0, sum), "rank {rank}");
    }
    assert!(report.results.iter().all(|&(_, landing, ..)| landing > 0));
}

/// One ring exchange of `n` bytes: what the left neighbour sent, checked.
fn ring_exchange_of(c: &impl Comm, n: usize) {
    let (p, me) = (c.size(), c.rank());
    let mut got = vec![0u8; n];
    c.sendrecv(
        (me + 1) % p,
        &vec![me as u8; n],
        (me + p - 1) % p,
        &mut got,
        0,
    )
    .unwrap();
    assert!(got.iter().all(|&b| b as usize == (me + p - 1) % p));
}

/// One ring exchange of a byte.
fn ring_exchange(c: &impl Comm) {
    ring_exchange_of(c, 1);
}

/// The thread each rank of one 2×2 world ran on, after a ring exchange
/// that proves the world works.
fn rank_threads() -> Vec<ThreadId> {
    let report = simulate(&world_2x2(), |c| {
        ring_exchange(c);
        std::thread::current().id()
    });
    report.results
}

#[test]
fn consecutive_worlds_of_one_caller_run_on_the_same_threads() {
    let first = rank_threads();
    let mut distinct = first.clone();
    distinct.push(std::thread::current().id());
    distinct.sort_by_key(|id| format!("{id:?}"));
    distinct.dedup();
    assert_eq!(distinct.len(), 5, "four workers beside the caller");
    assert_eq!(rank_threads(), first);
    // A smaller world uses a prefix of the same workers.
    let two = simulate(&SimConfig::new(Mesh2D::new(1, 2), unit()), |_| {
        std::thread::current().id()
    });
    assert_eq!(two.results, first[..2]);
}

#[test]
fn a_world_after_a_rank_panic_is_correct_and_keeps_the_workers() {
    let first = rank_threads();
    let panic = std::panic::catch_unwind(|| {
        simulate(&world_2x2(), |c| {
            if c.rank() == 2 {
                panic!("boom");
            }
        })
    })
    .expect_err("the rank's panic is re-raised");
    assert_eq!(
        panic.downcast_ref::<String>().map(String::as_str),
        Some("simulated rank 2 panicked: boom")
    );
    assert_eq!(rank_threads(), first);
}

#[test]
fn a_rank_can_simulate_a_world_of_its_own() {
    let outer = simulate(&SimConfig::new(Mesh2D::new(1, 2), unit()), |c| {
        let inner = rank_threads();
        assert!(!inner.contains(&std::thread::current().id()));
        // The outer world still works around the nested one.
        ring_exchange(c);
        inner
    });
    let (a, b) = (&outer.results[0], &outer.results[1]);
    assert!(a.iter().all(|id| !b.contains(id)), "each rank's own set");
}

#[test]
fn two_callers_simulate_at_the_same_time() {
    // Rank 0 of each world waits for the other world's rank 0: both
    // worlds are provably alive at once. Their 1 MiB exchanges are split
    // by each caller's engine with its own helper.
    let meet = Arc::new(Barrier::new(2));
    let callers: Vec<_> = (0..2)
        .map(|_| {
            let meet = meet.clone();
            std::thread::spawn(move || {
                simulate(&world_2x2(), |c| {
                    if c.rank() == 0 {
                        meet.wait();
                    }
                    ring_exchange_of(c, 256 << 10);
                    std::thread::current().id()
                })
                .results
            })
        })
        .collect();
    let worlds: Vec<_> = callers.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(worlds[0].iter().all(|id| !worlds[1].contains(id)));
}

/// How many armed [`Sentinel`]s have been destroyed, i.e. how many of
/// the threads that armed one have exited.
static GONE: (Mutex<usize>, Condvar) = (Mutex::new(0), Condvar::new());

struct Sentinel(Cell<bool>);

impl Drop for Sentinel {
    fn drop(&mut self) {
        if self.0.get() {
            *GONE.0.lock().unwrap() += 1;
            GONE.1.notify_all();
        }
    }
}

thread_local! {
    static SENTINEL: Sentinel = const { Sentinel(Cell::new(false)) };
}

#[test]
fn workers_end_when_their_owner_does() {
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (leave_tx, leave_rx) = std::sync::mpsc::channel::<()>();
    let owner = std::thread::spawn(move || {
        for _ in 0..2 {
            simulate(&world_2x2(), |_| SENTINEL.with(|s| s.0.set(true)));
        }
        ready_tx.send(()).unwrap();
        let _ = leave_rx.recv();
    });
    ready_rx.recv().unwrap();
    // Two worlds have come and gone: their four workers are parked.
    assert_eq!(*GONE.0.lock().unwrap(), 0);
    drop(leave_tx);
    owner.join().unwrap();
    let (gone, timeout) = GONE
        .1
        .wait_timeout_while(GONE.0.lock().unwrap(), Duration::from_secs(10), |n| *n < 4)
        .unwrap();
    assert!(!timeout.timed_out(), "{} of 4 workers ended", *gone);
    assert_eq!(*gone, 4);
}
