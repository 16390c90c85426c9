//! Simulation orchestration: rank workers + engine loop.

use crate::comm::SimComm;
use crate::engine::Engine;
use crate::net::NetSpec;
use intercom_cost::{HierMachine, MachineParams};
use intercom_obs::Trace;
use intercom_topology::{Cluster, Hypercube, Mesh2D};
use std::cell::{OnceCell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Configuration of one simulated machine.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Physical network; world rank = node id.
    pub net: NetSpec,
    /// The per-level α/β/γ/δ/link-excess parameters. On a
    /// [`NetSpec::Cluster`] each transfer and link is priced at its
    /// level; every other network reads the one level of a flat machine.
    pub machine: HierMachine,
    /// Record per-transfer trace (costs memory on big runs).
    pub record_trace: bool,
    /// Per-transfer timing irregularity: each message's *startup* (α) is
    /// inflated by a deterministic factor in `[1, 1 + jitter]` (§8's
    /// "timing irregularities" — OS interference at message handoff).
    /// 0 = ideal.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl SimConfig {
    /// `net` priced by `machine`, no tracing, no jitter.
    fn on(net: NetSpec, machine: HierMachine) -> Self {
        SimConfig {
            net,
            machine,
            record_trace: false,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }

    /// A mesh with the given machine, no tracing, no jitter.
    pub fn new(mesh: Mesh2D, machine: MachineParams) -> Self {
        Self::on(NetSpec::Mesh(mesh), HierMachine::flat(machine))
    }

    /// A hypercube (the §11 iPSC/860 target) with the given machine.
    pub fn hypercube(cube: Hypercube, machine: MachineParams) -> Self {
        Self::on(NetSpec::Hypercube(cube), HierMachine::flat(machine))
    }

    /// A two-level cluster with per-level parameters: the physical
    /// network is the cluster's mesh embedding, intra-node traffic is
    /// priced at `machine.intra()` and inter-node traffic at
    /// `machine.inter()`. No tracing, no jitter.
    pub fn cluster(cluster: Cluster, machine: &HierMachine) -> Self {
        Self::on(NetSpec::Cluster(cluster), *machine)
    }

    /// Enables transfer tracing.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enables OS-noise-style timing jitter (deterministic per seed).
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        self.jitter = jitter;
        self.jitter_seed = seed;
        self
    }
}

/// Everything a simulation run produces.
#[derive(Debug)]
pub struct SimReport<T> {
    /// Per-rank return values.
    pub results: Vec<T>,
    /// Elapsed virtual time: the maximum final rank clock, in seconds.
    pub elapsed: f64,
    /// Per-rank final virtual clocks (skew shows load imbalance).
    pub clocks: Vec<f64>,
    /// The transfer log, when tracing was enabled.
    pub trace: Option<Trace>,
}

/// One rank's closure, boxed for a worker with its borrows erased.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// The calling thread's rank workers, by rank: parked on their job
    /// channels between worlds, spawned when this thread first
    /// simulates a world that large, gone when the thread is (its
    /// locals' destruction closes the channels).
    static WORKERS: RefCell<Vec<Sender<Job>>> = const { RefCell::new(Vec::new()) };
    /// The calling thread's engine helper, parked beside its rank
    /// workers: spawned with its first world, gone when the thread is.
    /// None on a one-core host, where the engine keeps its byte loops.
    static HELPER: OnceCell<Option<Rc<Helper>>> = const { OnceCell::new() };
}

/// The calling thread's engine helper, if the host has a second core.
fn helper() -> Option<Rc<Helper>> {
    HELPER.with(|helper| {
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let spawn = || (cores() > 1).then(|| Rc::new(Helper::spawn()));
        helper.get_or_init(spawn).clone()
    })
}

/// The helper's half of a split loop, borrowed from the engine's frame
/// with the lifetime of the borrow erased (see [`Helper::join`]).
struct Task(*mut (dyn FnMut() + Send + 'static));

// SAFETY: the closure behind the pointer is `Send`, and `join` hands it
// over whole: the engine neither calls nor touches it until the helper
// has reported that it is done with it.
#[allow(unsafe_code)]
unsafe impl Send for Task {}

/// Where the engine and its helper meet.
enum Slot {
    /// No task waiting to be taken.
    Idle,
    /// A task for the helper to take.
    Posted(Task),
    /// The helper is done with its task: how the task ended.
    Done(std::thread::Result<()>),
    /// The helper's owner is gone: the helper ends.
    Closed,
}

struct Meeting {
    slot: Mutex<Slot>,
    turn: Condvar,
}

impl Meeting {
    /// The slot. No code panics while holding it (a task runs outside
    /// the lock), so a poisoned lock still guards a valid slot.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits while `busy` holds of the slot.
    fn wait_while<'a>(
        &self,
        slot: MutexGuard<'a, Slot>,
        busy: impl FnMut(&mut Slot) -> bool,
    ) -> MutexGuard<'a, Slot> {
        let slot = self.turn.wait_while(slot, busy);
        slot.unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper thread: runs each posted task and reports how it
    /// ended, until its owner closes the slot.
    #[allow(unsafe_code)]
    fn serve(&self) {
        let mut slot = self.lock();
        loop {
            slot = self.wait_while(slot, |s| matches!(s, Slot::Idle | Slot::Done(_)));
            let Slot::Posted(task) = std::mem::replace(&mut *slot, Slot::Idle) else {
                return;
            };
            drop(slot);
            // SAFETY: `join` posted the task and keeps every borrow
            // behind it alive, and leaves it alone, until it sees `Done`.
            let ended = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)() }));
            slot = self.lock();
            *slot = Slot::Done(ended);
            self.turn.notify_all();
        }
    }

    /// Waits for the helper to be done with the posted task; how the
    /// task ended.
    fn done(&self) -> std::thread::Result<()> {
        let slot = self.lock();
        let mut slot = self.wait_while(slot, |s| !matches!(s, Slot::Done(_)));
        let Slot::Done(ended) = std::mem::replace(&mut *slot, Slot::Idle) else {
            unreachable!("waited for the task's end");
        };
        ended
    }
}

/// A thread that takes one part of the engine's byte work while the
/// engine does the other: a large completion batch's wire copies and
/// folds. Virtual time comes from sizes alone, so where a byte moves is
/// free as long as it moves before the lender's reply — and `join`
/// returns only when both parts are done.
pub(crate) struct Helper(Arc<Meeting>);

impl Helper {
    /// Spawns a parked helper; it ends when this handle is dropped.
    pub(crate) fn spawn() -> Self {
        let meeting = Arc::new(Meeting {
            slot: Mutex::new(Slot::Idle),
            turn: Condvar::new(),
        });
        let theirs = meeting.clone();
        // Detached on purpose, like a rank worker: it ends when its
        // owner closes the slot, and a task never unwinds into it.
        std::thread::Builder::new()
            .name("sim-helper".into())
            .stack_size(1024 * 1024)
            .spawn(move || theirs.serve())
            .expect("failed to spawn the simulator's helper");
        Helper(meeting)
    }

    /// Runs `theirs` on the helper while the calling thread runs `mine`,
    /// and returns once both are done; a panic of either is resumed here,
    /// after both are done. The hand-off allocates nothing: the helper
    /// borrows `theirs` where it lies.
    #[allow(unsafe_code)]
    pub(crate) fn join(&self, theirs: &mut (dyn FnMut() + Send + '_), mine: impl FnOnce()) {
        let theirs: *mut (dyn FnMut() + Send + '_) = theirs;
        // SAFETY: only the lifetime bound of the trait object changes.
        // The helper calls the task only between taking it from `Posted`
        // and reporting `Done`, and this call does not end — by return
        // or by unwinding — before it has seen `Done`: a panic of `mine`
        // is held until then.
        let task = Task(unsafe {
            std::mem::transmute::<*mut (dyn FnMut() + Send + '_), *mut (dyn FnMut() + Send)>(theirs)
        });
        *self.0.lock() = Slot::Posted(task);
        self.0.turn.notify_all();
        let mine = catch_unwind(AssertUnwindSafe(mine));
        let theirs = self.0.done();
        if let Err(panic) = mine.and(theirs) {
            resume_unwind(panic);
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        *self.0.lock() = Slot::Closed;
        self.0.turn.notify_all();
    }
}

/// Hands `job` to the calling thread's worker for `rank`.
fn run_on_worker(rank: usize, job: Job) {
    WORKERS.with_borrow_mut(|workers| {
        debug_assert!(rank <= workers.len(), "ranks are handed out in order");
        if rank == workers.len() {
            let (tx, rx) = channel::<Job>();
            // Detached on purpose: the worker ends with its channel,
            // and a job never unwinds into it (`Jobs::erased` catches).
            std::thread::Builder::new()
                .name(format!("sim-rank-{rank}"))
                .stack_size(1024 * 1024)
                .spawn(move || rx.into_iter().for_each(|job| job()))
                .expect("failed to spawn simulated rank");
            workers.push(tx);
        }
        workers[rank]
            .send(job)
            .expect("a rank worker lives as long as its job sender");
    });
}

/// How a rank's job ended: its value, or the payload it panicked with.
type Outcome<T> = (usize, std::thread::Result<T>);

/// The outcomes of one world's jobs, and the proof that the jobs are
/// over: every job holds a sender it drops last, so the receiver
/// disconnects only when no job can touch `simulate`'s frame again.
/// Dropping the guard waits for that.
struct Jobs<T> {
    tx: Option<Sender<Outcome<T>>>,
    rx: Receiver<Outcome<T>>,
}

impl<T: Send> Jobs<T> {
    fn new() -> Self {
        let (tx, rx) = channel();
        Jobs { tx: Some(tx), rx }
    }

    /// Boxes `body` as rank `rank`'s job — run it, catch its panic,
    /// report the outcome — with the lifetime of its borrows erased.
    #[allow(unsafe_code)]
    fn erased<'a>(&self, rank: usize, body: impl FnOnce() -> T + Send + 'a) -> Job
    where
        T: 'a,
    {
        let done = self.tx.clone().expect("jobs are made before the drain");
        let job: Box<dyn FnOnce() + Send + 'a> = Box::new(move || {
            // `body` (and with it everything borrowed from the caller)
            // is consumed by the call; the outcome is moved into the
            // channel; what is left to drop afterwards is `done`, which
            // points into the channel's own heap allocation.
            let out = catch_unwind(AssertUnwindSafe(body));
            let _ = done.send((rank, out));
        });
        // SAFETY: only the lifetime bound of the trait object changes.
        // The job borrows from `simulate`'s frame (the rank closure, and
        // whatever `T` borrows), and that frame cannot end before the
        // job has: `self` is declared there before anything a job can
        // block on, so on every exit — return or unwind — the engine's
        // channel ends are dropped first (releasing each blocked rank
        // with `Disconnected`) and then `Jobs::drop` blocks until the
        // last clone of `done` is gone, i.e. until this job has run to
        // its end or was dropped unrun. `simulate` never forgets or
        // leaks the guard.
        unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(job) }
    }
}

impl<T> Jobs<T> {
    /// Every job's outcome, in order of completion; ends when the last
    /// job has.
    fn drain(&mut self) -> impl Iterator<Item = Outcome<T>> + '_ {
        self.tx = None;
        self.rx.iter()
    }
}

impl<T> Drop for Jobs<T> {
    fn drop(&mut self) {
        self.drain().for_each(drop);
    }
}

/// Runs `f` on every rank of the simulated machine and returns the
/// per-rank results plus the elapsed *virtual* time under the paper's
/// machine model. The closure receives a [`SimComm`] implementing
/// [`intercom::Comm`], so any library collective runs unmodified.
///
/// The ranks run on worker threads owned by the calling thread and kept
/// between calls, beside one helper thread that shares the engine's
/// byte work; a nested `simulate` (from inside `f`) gets workers and a
/// helper of its own.
pub fn simulate<T, F>(cfg: &SimConfig, f: F) -> SimReport<T>
where
    T: Send,
    F: Fn(&SimComm) -> T + Send + Sync,
{
    let p = cfg.net.nodes();
    let mut engine = Engine::new(
        cfg.net,
        cfg.machine,
        cfg.record_trace,
        cfg.jitter,
        cfg.jitter_seed,
        helper(),
    );
    // Declared before the channels below, so dropped after them: see
    // `Jobs::erased`.
    let mut jobs = Jobs::new();
    // Bounded, so steady-state traffic allocates nothing: a rank that
    // finds the queue full waits for the engine, which never waits for
    // anything but this queue while a rank can run. A rank has at most
    // one reply outstanding.
    let (req_tx, req_rx) = sync_channel(4 * p + 64);
    let mut reply_txs = Vec::with_capacity(p);
    for rank in 0..p {
        let (tx, rx) = sync_channel(1);
        reply_txs.push(tx);
        let comm = SimComm::new(rank, p, req_tx.clone(), rx);
        let f = &f;
        // A panicking rank drops `comm` as it unwinds, which tells the
        // engine it is gone.
        let job = jobs.erased(rank, move || {
            let out = f(&comm);
            comm.finish();
            out
        });
        run_on_worker(rank, job);
    }
    drop(req_tx);
    // Engine loop: consume requests while any rank can still run;
    // advance virtual time when everyone is blocked. If it panics (the
    // engine's deadlock diagnostic), unwinding drops the reply senders
    // and the request receiver, every rank blocked on either sees
    // `Disconnected`, and `jobs` can wait the ranks out and let the
    // panic through.
    let mut replies = Vec::new();
    loop {
        engine.drain_replies(&mut replies);
        for (rank, reply) in replies.drain(..) {
            // A rank waits for every reply it is owed: this cannot fail.
            let _ = reply_txs[rank].send(reply);
        }
        if engine.finished_count() == p {
            break;
        }
        if engine.runnable_count() == 0 {
            engine.advance();
            continue;
        }
        match req_rx.recv() {
            Ok((rank, req)) => engine.handle(rank, req),
            Err(_) => break, // all endpoints gone
        }
    }
    let mut outcomes: Vec<Outcome<T>> = jobs.drain().collect();
    outcomes.sort_by_key(|(rank, _)| *rank);
    let results: Vec<T> = outcomes
        .into_iter()
        .map(|(rank, outcome)| {
            outcome.unwrap_or_else(|e| {
                let msg = e
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| e.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                panic!("simulated rank {rank} panicked: {msg}");
            })
        })
        .collect();
    assert_eq!(results.len(), p, "every rank's job reported");
    let report = SimReport {
        results,
        elapsed: engine.elapsed(),
        clocks: engine.clocks().to_vec(),
        trace: engine.take_trace().map(Trace::new),
    };
    // Production telemetry: virtual elapsed time and (when tracing)
    // the transfer-derived counter totals. One branch when disabled.
    if intercom_obs::metrics::enabled() {
        let p_label = p.to_string();
        let l = &[("p", p_label.as_str())][..];
        intercom_obs::metrics::observe("intercom_sim_elapsed_seconds", l, report.elapsed);
        if let Some(trace) = &report.trace {
            intercom_obs::metrics::ingest_run(
                "sim",
                &intercom_obs::RunRecord::from_transfers(trace.records(), p),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom::faults::POISON_TAG;
    use intercom::{Comm, CommError};

    fn unit() -> MachineParams {
        MachineParams {
            alpha: 1.0,
            beta: 1.0,
            gamma: 0.0,
            delta: 0.0,
            link_excess: 1.0,
        }
    }

    #[test]
    fn trivial_world_elapsed_zero() {
        let cfg = SimConfig::new(Mesh2D::new(1, 1), unit());
        let rep = simulate(&cfg, |c| c.rank());
        assert_eq!(rep.results, vec![0]);
        assert_eq!(rep.elapsed, 0.0);
    }

    #[test]
    fn ping_pong_timing() {
        let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 8];
            if c.rank() == 0 {
                c.send(1, 0, &[1u8; 8]).unwrap();
                c.recv(1, 1, &mut buf).unwrap();
            } else {
                c.recv(0, 0, &mut buf).unwrap();
                c.send(0, 1, &buf).unwrap();
            }
            buf[0]
        });
        assert_eq!(rep.results, vec![1, 1]);
        // Two sequential α + 8β steps: 2 × 9 = 18.
        assert!((rep.elapsed - 18.0).abs() < 1e-9, "{}", rep.elapsed);
    }

    #[test]
    fn determinism_across_runs() {
        let cfg = SimConfig::new(Mesh2D::new(2, 3), unit());
        let run = || {
            simulate(&cfg, |c| {
                let p = c.size();
                let me = c.rank();
                let mut buf = [0u8; 16];
                // Shift ring twice.
                for t in 0..2u64 {
                    c.sendrecv((me + 1) % p, &[me as u8; 16], (me + p - 1) % p, &mut buf, t)
                        .unwrap();
                }
                buf[0]
            })
            .elapsed
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_is_captured() {
        let cfg = SimConfig::new(Mesh2D::new(1, 2), unit()).with_trace();
        let rep = simulate(&cfg, |c| {
            let mut b = [0u8; 1];
            if c.rank() == 0 {
                c.send(1, 0, &[9]).unwrap();
            } else {
                c.recv(0, 0, &mut b).unwrap();
            }
        });
        let trace = rep.trace.unwrap();
        assert_eq!(trace.message_count(), 1);
        assert_eq!(trace.records()[0].bytes, 1);
    }

    /// A cluster whose per-level costs are engineered for exact
    /// arithmetic: intra messages cost `1 + n`, inter messages
    /// `10 + 4n`. The inter link-excess is set high enough (8× β) that
    /// only the per-transfer wire ceiling — not the link or port caps —
    /// can produce the inter rate.
    fn toy_cluster_machine() -> HierMachine {
        let intra = MachineParams {
            alpha: 1.0,
            beta: 1.0,
            gamma: 0.0,
            delta: 0.0,
            link_excess: 1.0,
        };
        let inter = MachineParams {
            alpha: 10.0,
            beta: 4.0,
            gamma: 0.0,
            delta: 0.0,
            link_excess: 8.0,
        };
        HierMachine::two_level(intra, inter)
    }

    #[test]
    fn cluster_transfers_price_their_level() {
        let hm = toy_cluster_machine();
        let cl = Cluster::linear(2, 2); // node 0 = {0, 1}, node 1 = {2, 3}
        let cfg = SimConfig::cluster(cl, &hm);
        // Intra-node message: α_intra + n·β_intra = 1 + 10 = 11.
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 10];
            match c.rank() {
                0 => c.send(1, 0, &[7u8; 10]).unwrap(),
                1 => c.recv(0, 0, &mut buf).unwrap(),
                _ => {}
            }
        });
        assert!((rep.elapsed - 11.0).abs() < 1e-9, "{}", rep.elapsed);
        // Inter-node message: α_inter + n·β_inter = 10 + 40 = 50. The
        // ports run at the intra rate (1 B/s) and the inter link at
        // 8/β = 2 B/s, so only the per-transfer wire ceiling (1/4 B/s)
        // yields 50 — this pins the level attribution, not just a cap.
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 10];
            match c.rank() {
                0 => c.send(2, 0, &[7u8; 10]).unwrap(),
                2 => c.recv(0, 0, &mut buf).unwrap(),
                _ => {}
            }
        });
        assert!((rep.elapsed - 50.0).abs() < 1e-9, "{}", rep.elapsed);
    }

    #[test]
    fn cluster_inter_link_contention_shares_inter_capacity() {
        // linear(3, 2): leaders of nodes 0 and 1 both send into node 2's
        // column; under XY routing both routes cross the directed east
        // link between node columns 1 and 2, which carries the *inter*
        // capacity 8/β_inter = 2 B/s. Two transfers capped at 1/β_inter
        // = 0.25 B/s each fit under it, so both flow at their wire rate
        // — inter contention priced at inter, not intra, capacity.
        let hm = toy_cluster_machine();
        let cl = Cluster::linear(3, 2);
        let cfg = SimConfig::cluster(cl, &hm);
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 10];
            match c.rank() {
                0 => c.send(4, 0, &[1u8; 10]).unwrap(), // node 0 → node 2 slot 0
                2 => c.send(5, 1, &[2u8; 10]).unwrap(), // node 1 → node 2 slot 1
                4 => c.recv(0, 0, &mut buf).unwrap(),
                5 => c.recv(2, 1, &mut buf).unwrap(),
                _ => {}
            }
        });
        // Both activate at t = 10 and flow at 0.25 B/s: 10 + 40 = 50.
        assert!((rep.elapsed - 50.0).abs() < 1e-9, "{}", rep.elapsed);
        // Squeeze the inter link instead: excess 1.0 → capacity
        // 1/β_inter, shared max-min at 0.125 B/s each → 10 + 80 = 90.
        let mut squeezed = toy_cluster_machine();
        let inter = MachineParams {
            link_excess: 1.0,
            ..*squeezed.inter()
        };
        squeezed = HierMachine::two_level(*squeezed.intra(), inter);
        let cfg = SimConfig::cluster(cl, &squeezed);
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 10];
            match c.rank() {
                0 => c.send(4, 0, &[1u8; 10]).unwrap(),
                2 => c.send(5, 1, &[2u8; 10]).unwrap(),
                4 => c.recv(0, 0, &mut buf).unwrap(),
                5 => c.recv(2, 1, &mut buf).unwrap(),
                _ => {}
            }
        });
        assert!((rep.elapsed - 90.0).abs() < 1e-9, "{}", rep.elapsed);
    }

    #[test]
    fn cluster_intra_traffic_is_immune_to_inter_slowness() {
        // An intra message inside node 0 runs at full node speed while a
        // slow inter transfer crosses the network concurrently: the two
        // levels do not share constraints.
        let hm = toy_cluster_machine();
        let cl = Cluster::linear(2, 2);
        let cfg = SimConfig::cluster(cl, &hm);
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 10];
            match c.rank() {
                0 => c.send(1, 0, &[7u8; 10]).unwrap(), // intra: done at 11
                1 => c.recv(0, 0, &mut buf).unwrap(),
                2 => c.send(3, 1, &[8u8; 10]).unwrap(), // intra in node 1
                3 => c.recv(2, 1, &mut buf).unwrap(),
                _ => unreachable!(),
            }
            c.rank()
        });
        assert!((rep.elapsed - 11.0).abs() < 1e-9, "{}", rep.elapsed);
        // Now run a full collective over the cluster to exercise mixed
        // levels end-to-end (results must stay bit-identical to the
        // threaded backend — direct execution, only time is virtual).
        let rep = simulate(&cfg, |c| {
            use intercom::{Communicator, ReduceOp};
            let cc = Communicator::world(c, *hm.inter());
            let mut v = vec![(c.rank() + 1) as u64; 16];
            cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
            v[0]
        });
        assert!(rep.results.iter().all(|&x| x == 10));
        assert!(rep.elapsed > 0.0);
    }

    #[test]
    fn deadlock_panics_with_the_engine_diagnostic() {
        // Both ranks receive and nobody sends. The simulation runs on a
        // thread of its own so that a regression — `simulate` hanging
        // on rank threads that wait for replies nobody can send — fails
        // this test instead of stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || {
            let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
            let outcome = std::panic::catch_unwind(|| {
                simulate(&cfg, |c| c.recv(1 - c.rank(), 0, &mut [0u8; 4]).is_err())
            });
            let _ = tx.send(outcome.map(|report| report.results));
        });
        let panic = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a deadlocked simulation must not hang")
            .expect_err("a deadlocked simulation must panic");
        watched.join().expect("the panic was caught");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.contains("simulation deadlock: 2 rank(s) blocked"),
            "{msg}"
        );
        assert!(msg.contains("unmatched recv 0←1 tag 0"), "{msg}");
    }

    /// Runs `world` on a watchdog thread and returns the message it
    /// panicked with: a regression that hangs fails the test instead of
    /// stalling the suite.
    fn panic_message_of(world: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(AssertUnwindSafe(world)));
        });
        let panic = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the simulation must not hang")
            .expect_err("the simulation must panic");
        watched.join().expect("the panic was caught");
        panic.downcast_ref::<String>().expect("formatted").clone()
    }

    #[test]
    fn a_rank_that_panics_under_a_blocked_peer_ends_in_the_deadlock_diagnostic() {
        // Rank 0 lends its buffer to a receive rank 1 will never serve.
        // The engine sees rank 1 gone and rank 0 unmatched: it panics
        // with the diagnostic, rank 0 resumes with `Disconnected`, and
        // nothing was ever copied into the window.
        let seen = std::sync::Arc::new(std::sync::Mutex::new(None));
        let rank0_saw = seen.clone();
        let msg = panic_message_of(move || {
            let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
            simulate(&cfg, |c| {
                if c.rank() == 1 {
                    panic!("sim boom");
                }
                let mut buf = [0xEEu8; 4];
                let outcome = c.recv(1, 0, &mut buf);
                *rank0_saw.lock().unwrap() = Some((outcome, buf));
            });
        });
        assert_eq!(
            seen.lock().unwrap().take(),
            Some((Err(CommError::Disconnected), [0xEEu8; 4]))
        );
        assert!(
            msg.contains("simulation deadlock: 1 rank(s) blocked"),
            "{msg}"
        );
        assert!(msg.contains("unmatched recv 0←1 tag 0"), "{msg}");
    }

    #[test]
    fn length_mismatch_fails_both_ranks_and_leaves_the_buffer_alone() {
        let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
        let rep = simulate(&cfg, |c| {
            let mut buf = [0xEEu8; 3];
            let r = match c.rank() {
                0 => c.send(1, 0, &[1u8; 5]),
                _ => c.recv(0, 0, &mut buf),
            };
            (r, buf)
        });
        let mismatch = Err(CommError::LengthMismatch {
            expected: 3,
            actual: 5,
        });
        assert_eq!(rep.results[0].0, mismatch);
        assert_eq!(rep.results[1], (mismatch, [0xEEu8; 3]));
    }

    #[test]
    fn self_sendrecv_and_empty_messages_deliver() {
        let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
        let rep = simulate(&cfg, |c| {
            let me = c.rank();
            // To and from itself: both windows are this one call's.
            let mut own = [0u8; 5];
            c.sendrecv(me, &[me as u8 + 1; 5], me, &mut own, 0).unwrap();
            // Nothing at all, exchanged with the peer.
            c.sendrecv(1 - me, &[], 1 - me, &mut [], 1).unwrap();
            own
        });
        assert_eq!(rep.results, vec![[1u8; 5], [2u8; 5]]);
        // (α + 5β) + α = 7.
        assert!((rep.elapsed - 7.0).abs() < 1e-9, "{}", rep.elapsed);
    }

    #[test]
    fn poison_under_a_flowing_transfer_aborts_both_ends_and_copies_nothing() {
        // 0→1 moves 1000 bytes (done at t = 1001). Ranks 2 and 3 swap a
        // byte (done at t = 2), which lets virtual time pass, and then
        // rank 2 poisons the world with 0→1 in mid-flight.
        use intercom::{AbortCause, AbortInfo};
        let info = AbortInfo {
            origin: 2,
            culprit: 2,
            plan: 0,
            step: 0,
            cause: AbortCause::External,
        };
        let cfg = SimConfig::new(Mesh2D::new(1, 4), unit());
        let rep = simulate(&cfg, |c| {
            let mut buf = vec![0xEEu8; 1000];
            let outcome = match c.rank() {
                0 => c.send(1, 0, &[7u8; 1000]),
                1 => c.recv(0, 0, &mut buf),
                me => {
                    let peer = 5 - me;
                    c.sendrecv(peer, &[1], peer, &mut buf[..1], 1).unwrap();
                    buf[0] = 0xEE;
                    if me == 2 {
                        c.send(0, POISON_TAG, &info.encode()).unwrap();
                    }
                    Ok(())
                }
            };
            // The lender is back in charge of its buffer: use it.
            let untouched = buf.iter().all(|&b| b == 0xEE);
            buf.fill(0);
            (outcome, untouched)
        });
        let aborted = Err(CommError::Aborted(info));
        assert_eq!(rep.results[0], (aborted.clone(), true));
        assert_eq!(rep.results[1], (aborted, true), "nothing was delivered");
        assert_eq!(rep.results[2], (Ok(()), true));
        // The clocks stopped where the abort found them.
        assert!((rep.elapsed - 2.0).abs() < 1e-9, "{}", rep.elapsed);
    }

    #[test]
    fn a_helper_panic_is_resumed_on_the_joining_thread() {
        let helper = Helper::spawn();
        let mut mine_ran = false;
        let panic = catch_unwind(AssertUnwindSafe(|| {
            helper.join(&mut || panic!("helper boom"), || mine_ran = true)
        }))
        .expect_err("the helper's panic comes through");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"helper boom"));
        assert!(mine_ran, "the joining thread's part ran to its end");
        // The helper serves on.
        let mut theirs = 0;
        helper.join(&mut || theirs = 7, || {});
        assert_eq!(theirs, 7);
    }

    #[test]
    fn a_joining_thread_that_panics_waits_for_the_helper_first() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let helper = Helper::spawn();
        let (go, wait) = channel();
        let done = &AtomicBool::new(false);
        let panic = catch_unwind(AssertUnwindSafe(|| {
            let mut theirs = move || {
                wait.recv().expect("the joining thread says go");
                std::thread::yield_now();
                done.store(true, Ordering::SeqCst);
            };
            helper.join(&mut theirs, || {
                go.send(()).expect("the helper waits");
                panic!("engine boom");
            })
        }));
        assert!(panic.is_err());
        assert!(
            done.load(Ordering::SeqCst),
            "the unwind left `join` only after the helper's part"
        );
    }

    #[test]
    #[should_panic(expected = "simulated rank 1 panicked")]
    fn rank_panic_propagates() {
        let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
        simulate(&cfg, |c| {
            if c.rank() == 1 {
                panic!("sim boom");
            }
            // Rank 0 must not block forever; just finish.
        });
    }
}
