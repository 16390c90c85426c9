//! The discrete-event core: rendezvous matching, transfer lifecycle,
//! fluid time advancement.
//!
//! The engine realizes the paper's §2 machine model exactly:
//!
//! * a message of `n` bytes from a ready sender/receiver pair costs
//!   `α + nβ` in isolation;
//! * a node sends to at most one node and receives from at most one node
//!   at a time (guaranteed structurally: ranks block in `send`/`recv`/
//!   `sendrecv`, so at most one outgoing and one incoming half each);
//! * messages sharing a directed link share its bandwidth (max-min fluid
//!   rates over XY wormhole routes, with the §7.1 link-excess factor);
//! * arithmetic costs `γ` per byte and the library's short-vector
//!   recursion overhead costs `δ` per level — both charged to the local
//!   virtual clock.
//!
//! A rank reaches the engine in one of two ways. A closure's blocking
//! call is one request and one reply. A run of a compiled program's
//! steps ([`Request::Program`]) is one request too: the engine keeps a
//! cursor over them in the rank's slot and runs their copies and folds
//! at once; each clock step or transfer becomes the request a closure
//! would have sent for it, charged or posted by the same `dispatch`; the
//! cursor moves on when a transfer completes, and the rank gets one
//! reply, when the run ends — at its last step, or at the first error.
//!
//! The engine's byte work — the wire copies of the transfers completing
//! at one event, and the folds of the fused receives among them — is
//! split with the caller's helper thread ([`Helper`]) when the event
//! moves enough bytes to pay for the hand-off; every clock, trace record
//! and reply stays the engine's, in the order of the serial loop.

use crate::fluid::FluidScratch;
use crate::net::NetSpec;
use crate::sim::Helper;
use crate::window::{ProgramWindow, RecvWindow, Segment, SendWindow};
use intercom::faults::POISON_TAG;
use intercom::ir::StepAction;
use intercom::rng::splitmix64;
use intercom::{AbortCause, AbortInfo, CommError, Tag};
use intercom_cost::HierMachine;
use intercom_obs::TraceEvent;
use intercom_topology::{Cluster, HopLevel};
use std::ops::Range;
use std::rc::Rc;

/// The wire bytes a completion batch must move (copied or folded) before
/// the engine shares them with its helper; below it, waking the helper
/// costs more than its half saves.
/// Measured on the reference 2-vCPU guest: one copy of cold bytes, by
/// the engine alone or cut in two halves with a parked helper, median
/// of 300 in us, over three runs:
///
/// | batch   | engine alone | split   |
/// |---------|--------------|---------|
/// | 64 KiB  | 8-10         | 25-34   |
/// | 256 KiB | 30-39        | 37-40   |
/// | 512 KiB | 61-65        | 52-55   |
/// | 768 KiB | 92-96        | 68-70   |
/// | 1 MiB   | 123-128      | 85-99   |
/// | 4 MiB   | 446-506      | 252-324 |
///
/// The `sim-mesh` rows hardly test it: their batches are either under
/// 64 KiB or several MiB, with a handful per row in between.
const SPLIT_BYTES: usize = 512 * 1024;

/// What a rank asked the simulator to do. The comm requests lend the
/// engine windows onto the caller's buffers (see [`crate::window`]):
/// the rank stays blocked in the lending call until it is replied to.
#[derive(Debug)]
pub(crate) enum Request {
    /// A send half to a rank, a receive half from one, or both at
    /// once, under one tag.
    Transfer {
        send: Option<(usize, SendWindow)>,
        recv: Option<(usize, RecvWindow)>,
        tag: Tag,
    },
    Compute {
        bytes: usize,
    },
    CallOverhead,
    /// Fire-and-forget: the rank entered step `step` of compiled plan
    /// `plan` (`(0, 0)` = outside plan execution). The request channel
    /// preserves per-rank order, so this lands before the comm request
    /// it attributes.
    PlanStep {
        plan: u64,
        step: u64,
    },
    /// Steps `steps` of a compiled program, run by the engine; the rank
    /// stays blocked until they end.
    Program {
        prog: ProgramWindow,
        steps: Range<usize>,
    },
    Finished,
}

/// The simulator's answer unblocking a rank. A received payload is
/// already in the buffer the rank lent.
pub(crate) type Reply = intercom::Result<()>;

#[derive(Debug)]
enum RankState {
    Running,
    Blocked {
        outstanding: u8,
        err: Option<CommError>,
    },
    Finished,
}

/// A posted send waiting for its receive, in the sender's slot.
struct SendHalf {
    to: usize,
    tag: Tag,
    posted: f64,
    data: SendWindow,
    /// `(plan_id, step)` of the step that posted it (the transfer event
    /// lands on the sender's timeline).
    plan: (u64, u64),
}

/// A posted receive waiting for its send, in the receiver's slot.
struct RecvHalf {
    from: usize,
    tag: Tag,
    posted: f64,
    buf: RecvWindow,
    plan: (u64, u64),
}

/// A program the engine is walking for a rank blocked in it.
struct Running {
    prog: ProgramWindow,
    plan_id: u64,
    /// The next step to run, and one past the last.
    next: usize,
    end: usize,
}

impl Request {
    /// A transfer lending the caller's buffers as windows.
    pub(crate) fn transfer(
        send: Option<(usize, &[u8])>,
        recv: Option<(usize, &mut [u8])>,
        tag: Tag,
    ) -> Self {
        Request::Transfer {
            send: send.map(|(to, data)| (to, SendWindow::lend(data))),
            recv: recv.map(|(from, buf)| (from, RecvWindow::lend(buf))),
            tag,
        }
    }

    /// The request a program step stands for, its byte views lent as
    /// windows (so it outlives the step's borrow); `None` for a copy, a
    /// fold or a permutation, which `step` has already run. A fused receive is a
    /// transfer whose receive window is its accumulator, folded into
    /// (its landing stays unused: it was never readied).
    fn lend(action: StepAction<'_>) -> Option<Self> {
        Some(match action {
            StepAction::Copy { .. } | StepAction::Reduce { .. } | StepAction::Permute { .. } => {
                return None
            }
            StepAction::Compute(bytes) => Request::Compute { bytes },
            StepAction::CallOverhead => Request::CallOverhead,
            StepAction::Send { to, tag, data } => Request::transfer(Some((to, data)), None, tag),
            StepAction::Recv { from, tag, buf } => Request::transfer(None, Some((from, buf)), tag),
            StepAction::SendRecv {
                to,
                data,
                from,
                buf,
                tag,
            } => Request::transfer(Some((to, data)), Some((from, buf)), tag),
            StepAction::RecvReduce {
                from,
                tag,
                acc,
                fold,
                ..
            } => Request::Transfer {
                send: None,
                recv: Some((from, RecvWindow::folding(acc, fold))),
                tag,
            },
            StepAction::SendRecvCombine {
                to,
                data,
                from,
                dst,
                other,
                tag,
                fold,
            } => Request::Transfer {
                send: Some((to, SendWindow::lend(data))),
                recv: Some((from, RecvWindow::combining(dst, other, fold))),
                tag,
            },
            StepAction::SendRecvReduce {
                to,
                data,
                from,
                acc,
                tag,
                fold,
                ..
            } => Request::Transfer {
                send: Some((to, SendWindow::lend(data))),
                recv: Some((from, RecvWindow::folding(acc, fold))),
                tag,
            },
        })
    }
}

struct Transfer {
    src: usize,
    dst: usize,
    tag: Tag,
    /// Both ends' windows, copied `data` → `buf` at completion.
    data: SendWindow,
    buf: RecvWindow,
    /// Physical route length (for the trace).
    hops: usize,
    /// Static constraint indices: `src` injection port, `dst` ejection
    /// port, one per route link — precomputed once at rendezvous.
    constraints: Vec<u32>,
    /// Rendezvous time (both halves posted).
    started: f64,
    /// `started + α`: when bytes begin to flow.
    activation: f64,
    /// Bytes still to move.
    remaining: f64,
    /// Current fluid rate (bytes/s).
    rate: f64,
    /// Per-transfer wire-rate ceiling, `1/β` of the transfer's level
    /// (cluster mode; elsewhere it stays unused at ∞). Enforced as a
    /// real fluid constraint through the sender's wire slot, which this
    /// transfer owns exclusively while in flight.
    wire_cap: f64,
    /// `(plan_id, step)` attribution inherited from the send half.
    plan: (u64, u64),
}

/// What the rate solver reads of an active transfer.
impl AsRef<[u32]> for Transfer {
    fn as_ref(&self) -> &[u32] {
        &self.constraints
    }
}

/// The single-threaded simulation core. The thread harness in
/// [`crate::sim`] feeds it requests and drains replies.
pub(crate) struct Engine {
    /// "Cluster mode" is [`NetSpec::Cluster`]: intra-node transfers
    /// charge `machine`'s intra level, inter-node transfers its inter
    /// level, and every physical link carries its own level's capacity.
    /// Every other network has no levels to tell apart.
    net: NetSpec,
    /// Nodes compute and inject at the innermost level; on a flat
    /// machine that is also the level of every wire.
    machine: HierMachine,
    /// Per-link-slot fluid capacity (`link_excess/β` of the link's
    /// level; uniform outside cluster mode).
    link_caps: Vec<f64>,
    /// Per-sender wire-slot capacity, rebuilt from the active set at
    /// each rate solve (cluster mode only; empty otherwise).
    wire_caps: Vec<f64>,
    clocks: Vec<f64>,
    states: Vec<RankState>,
    /// Unmatched halves, indexed by the rank that posted them: a
    /// blocked rank has at most one send and one receive outstanding.
    pending_sends: Vec<Option<SendHalf>>,
    pending_recvs: Vec<Option<RecvHalf>>,
    /// Transfers awaiting activation (`now < activation`) or flowing.
    waiting: Vec<Transfer>,
    active: Vec<Transfer>,
    now: f64,
    ready_replies: Vec<(usize, Reply)>,
    /// Constraint vectors of finished transfers, reused by later matches.
    spare_constraints: Vec<Vec<u32>>,
    finished: usize,
    blocked: usize,
    trace: Option<Vec<TraceEvent>>,
    /// Per-rank `(plan_id, step)` currently executing (set by
    /// [`Request::PlanStep`]; `(0, 0)` outside plan execution).
    plan_steps: Vec<(u64, u64)>,
    /// Per-rank slot of the program a rank is blocked in, if any.
    programs: Vec<Option<Running>>,
    /// Ranks whose program can move on: a transfer of theirs completed.
    resumable: Vec<usize>,
    /// The caller's helper thread, which shares large completion
    /// batches (`advance`); none on a one-core host.
    helper: Option<Rc<Helper>>,
    /// The transfers completing at the current event and the segments
    /// of their copies and folds: kept, so a batch allocates nothing.
    completing: Vec<Transfer>,
    segments: Vec<Segment>,
    /// Batches whose copies and folds were split with the helper.
    #[cfg(test)]
    split_batches: usize,
    /// Static constraint universe: `node` = injection port of `node`,
    /// `p + node` = ejection port, `2p + slot` = directed link `slot`
    /// (dense per-topology slot numbering).
    fluid: FluidScratch,
    rates_buf: Vec<f64>,
    /// Set when the active-transfer set changes (activation or
    /// completion); the max-min solve is skipped while clear, since the
    /// rates of an unchanged set are already correct.
    rates_dirty: bool,
    /// "Timing irregularities resulting from the more complex operating
    /// systems of current generation machines" (§8): each transfer's
    /// startup and duration are inflated by up to `jitter` (fraction),
    /// drawn deterministically from `jitter_seed`, the sending rank and
    /// that rank's count of sends so far (`sends[src]`): not from the
    /// order transfers are matched in, which depends on which rank
    /// thread reaches the engine first.
    jitter: f64,
    jitter_seed: u64,
    sends: Vec<u64>,
    /// Set once a coordinated-abort poison record arrives on
    /// [`POISON_TAG`]: every blocked rank is released with the abort
    /// diagnosis and every later comm request fails fast with it.
    poisoned: Option<AbortInfo>,
}

impl Engine {
    pub(crate) fn new(
        net: NetSpec,
        machine: HierMachine,
        record_trace: bool,
        jitter: f64,
        jitter_seed: u64,
        helper: Option<Rc<Helper>>,
    ) -> Self {
        assert!(
            machine.intra().beta > 0.0 && machine.inter().beta > 0.0,
            "simulator requires beta > 0 at every level"
        );
        assert!(jitter >= 0.0, "jitter must be non-negative");
        let p = net.nodes();
        let n_links = net.link_slots();
        let link_cap = |level: usize| {
            let m = machine.level(level);
            m.link_excess / m.beta
        };
        // Constraint universe: injection ports, ejection ports, directed
        // links, and (cluster mode) one wire slot per sender carrying
        // the per-transfer level rate ceiling.
        let (universe, link_caps) = match &net {
            NetSpec::Cluster(cl) => {
                let phys = cl.phys_mesh();
                let mut caps = vec![0.0; n_links];
                for l in phys.links() {
                    caps[phys.link_slot(l)] = match cl.link_level(l) {
                        HopLevel::Intra => link_cap(0),
                        HopLevel::Inter => link_cap(1),
                    };
                }
                (3 * p + n_links, caps)
            }
            _ => (2 * p + n_links, vec![link_cap(0); n_links]),
        };
        Engine {
            net,
            machine,
            link_caps,
            wire_caps: Vec::new(),
            clocks: vec![0.0; p],
            states: (0..p).map(|_| RankState::Running).collect(),
            pending_sends: (0..p).map(|_| None).collect(),
            pending_recvs: (0..p).map(|_| None).collect(),
            waiting: Vec::new(),
            active: Vec::new(),
            now: 0.0,
            ready_replies: Vec::new(),
            spare_constraints: Vec::new(),
            finished: 0,
            blocked: 0,
            trace: record_trace.then(Vec::new),
            plan_steps: vec![(0, 0); p],
            programs: (0..p).map(|_| None).collect(),
            resumable: Vec::with_capacity(p),
            helper,
            completing: Vec::new(),
            segments: Vec::new(),
            #[cfg(test)]
            split_batches: 0,
            fluid: FluidScratch::new(universe),
            rates_buf: Vec::new(),
            rates_dirty: false,
            jitter,
            jitter_seed,
            sends: vec![0; p],
            poisoned: None,
        }
    }

    /// The cluster whose levels price transfers, in cluster mode.
    fn cluster(&self) -> Option<&Cluster> {
        match &self.net {
            NetSpec::Cluster(cl) => Some(cl),
            _ => None,
        }
    }

    /// Per-transfer multiplicative slowdown in `[1, 1 + jitter]`,
    /// deterministic in (seed, sender, the sender's send ordinal). A
    /// rank has one send pending at a time, so its sends are matched in
    /// the order it posts them.
    fn next_jitter_factor(&mut self, src: usize) -> f64 {
        if self.jitter == 0.0 {
            return 1.0;
        }
        self.sends[src] += 1;
        let h = splitmix64(splitmix64(self.jitter_seed ^ src as u64) ^ self.sends[src]);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.jitter * u
    }

    pub(crate) fn ranks(&self) -> usize {
        self.clocks.len()
    }

    pub(crate) fn finished_count(&self) -> usize {
        self.finished
    }

    pub(crate) fn runnable_count(&self) -> usize {
        self.ranks() - self.finished - self.blocked
    }

    /// Final elapsed virtual time (valid once all ranks finished).
    pub(crate) fn elapsed(&self) -> f64 {
        self.clocks.iter().cloned().fold(0.0, f64::max)
    }

    /// Per-rank final virtual clocks.
    pub(crate) fn clocks(&self) -> &[f64] {
        &self.clocks
    }

    pub(crate) fn take_trace(&mut self) -> Option<Vec<TraceEvent>> {
        self.trace.take()
    }

    /// Moves the replies due into `out` (empty on entry), keeping its
    /// capacity for the next batch.
    pub(crate) fn drain_replies(&mut self, out: &mut Vec<(usize, Reply)>) {
        debug_assert!(out.is_empty());
        std::mem::swap(&mut self.ready_replies, out);
    }

    pub(crate) fn handle(&mut self, rank: usize, req: Request) {
        debug_assert!(
            matches!(self.states[rank], RankState::Running),
            "rank {rank} issued a request while not running"
        );
        // A poison record never blocks its sender: acknowledge it
        // immediately, then (first record only) release every blocked
        // rank with the abort diagnosis and clear all pending traffic —
        // the coordinated-abort guarantee that no rank hangs.
        if let Request::Transfer {
            send: Some((_, ref data)),
            recv: None,
            tag: POISON_TAG,
        } = req
        {
            let info = AbortInfo::decode(data.bytes()).unwrap_or(AbortInfo {
                origin: rank,
                culprit: rank,
                plan: 0,
                step: 0,
                cause: AbortCause::External,
            });
            self.ready_replies.push((rank, Ok(())));
            if self.poisoned.is_none() {
                self.poison(info);
            }
            return;
        }
        match req {
            Request::PlanStep { plan, step } => {
                self.plan_steps[rank] = (plan, step);
            }
            Request::Program { mut prog, steps } => {
                let plan_id = prog.with(|p| p.plan_id());
                self.programs[rank] = Some(Running {
                    prog,
                    plan_id,
                    next: steps.start,
                    end: steps.end,
                });
                self.walk(rank);
            }
            Request::Finished => {
                self.states[rank] = RankState::Finished;
                self.finished += 1;
            }
            req => self.dispatch(rank, req, self.plan_steps[rank]),
        }
    }

    /// Charges a clock request, or blocks `rank` on a transfer's halves
    /// attributed to `plan` — a closure's call and a program's step
    /// alike. Once poisoned, a transfer fails fast with the diagnosis
    /// (ending the rank's program, if it runs one); clock requests
    /// still apply harmlessly.
    fn dispatch(&mut self, rank: usize, req: Request, plan: (u64, u64)) {
        if let (Request::Transfer { .. }, Some(info)) = (&req, self.poisoned) {
            return self.end_program(rank, Err(CommError::Aborted(info)));
        }
        // Arithmetic and call overhead execute on the node: the intra
        // (node) level's γ and δ.
        match req {
            Request::Compute { bytes } => {
                self.clocks[rank] += bytes as f64 * self.machine.intra().gamma;
            }
            Request::CallOverhead => self.clocks[rank] += self.machine.intra().delta,
            Request::Transfer { send, recv, tag } => {
                self.block(rank, send.is_some() as u8 + recv.is_some() as u8);
                if let Some((to, data)) = send {
                    self.post_send(rank, to, tag, data, plan);
                }
                if let Some((from, buf)) = recv {
                    self.post_recv(from, rank, tag, buf, plan);
                }
            }
            Request::PlanStep { .. } | Request::Program { .. } | Request::Finished => {
                unreachable!("not a step request")
            }
        }
    }

    /// Runs `rank`'s program from its cursor until it blocks on a
    /// transfer or ends. Data steps run and clock steps are charged on
    /// the spot, exactly as the rank's own calls would have; a failed
    /// step, or a transfer once the world is poisoned, ends the program
    /// with that error.
    fn walk(&mut self, rank: usize) {
        while matches!(self.states[rank], RankState::Running) {
            let Some(run) = self.programs[rank].as_mut() else {
                return;
            };
            if run.next == run.end {
                return self.end_program(rank, Ok(()));
            }
            let i = run.next;
            run.next += 1;
            let plan = (run.plan_id, i as u64);
            match run.prog.with(|p| p.step(i).map(Request::lend)) {
                Ok(Some(req)) => self.dispatch(rank, req, plan),
                Ok(None) => {}
                Err(e) => return self.end_program(rank, Err(e)),
            }
        }
    }

    /// Ends `rank`'s program, if it runs one, with its one reply — or
    /// replies to a closure's blocking call.
    fn end_program(&mut self, rank: usize, reply: Reply) {
        self.programs[rank] = None;
        self.ready_replies.push((rank, reply));
    }

    /// Latches the abort, releases every blocked rank with the
    /// diagnosis, and clears all pending/in-flight traffic: after a
    /// poison nothing else can ever complete, and the freed ranks must
    /// observe the abort rather than a dangling rendezvous. Every
    /// window goes with the traffic, unread and unwritten — the replies
    /// pushed here are sent only after this returns.
    fn poison(&mut self, info: AbortInfo) {
        self.poisoned = Some(info);
        for rank in 0..self.states.len() {
            if matches!(self.states[rank], RankState::Blocked { .. }) {
                self.states[rank] = RankState::Running;
                self.blocked -= 1;
                self.end_program(rank, Err(CommError::Aborted(info)));
            }
        }
        self.pending_sends.fill_with(|| None);
        self.pending_recvs.fill_with(|| None);
        self.waiting.clear();
        self.active.clear();
        self.rates_dirty = false;
    }

    fn block(&mut self, rank: usize, outstanding: u8) {
        self.states[rank] = RankState::Blocked {
            outstanding,
            err: None,
        };
        self.blocked += 1;
    }

    fn post_send(&mut self, src: usize, dst: usize, tag: Tag, data: SendWindow, plan: (u64, u64)) {
        if dst >= self.ranks() {
            self.half_error(
                src,
                CommError::InvalidRank {
                    rank: dst,
                    size: self.ranks(),
                },
            );
            return;
        }
        let half = SendHalf {
            to: dst,
            tag,
            posted: self.clocks[src],
            data,
            plan,
        };
        match self.pending_recvs[dst].take_if(|r| r.from == src && r.tag == tag) {
            Some(r) => self.rendezvous(src, dst, half, r),
            None => {
                debug_assert!(self.pending_sends[src].is_none());
                self.pending_sends[src] = Some(half);
            }
        }
    }

    fn post_recv(&mut self, src: usize, dst: usize, tag: Tag, buf: RecvWindow, plan: (u64, u64)) {
        if src >= self.ranks() {
            self.half_error(
                dst,
                CommError::InvalidRank {
                    rank: src,
                    size: self.ranks(),
                },
            );
            return;
        }
        let half = RecvHalf {
            from: src,
            tag,
            posted: self.clocks[dst],
            buf,
            plan,
        };
        match self.pending_sends[src].take_if(|s| s.to == dst && s.tag == tag) {
            Some(s) => self.rendezvous(src, dst, s, half),
            None => {
                debug_assert!(self.pending_recvs[dst].is_none());
                self.pending_recvs[dst] = Some(half);
            }
        }
    }

    /// Both halves of `src → dst` are posted: starts the transfer, or
    /// fails both ranks on a length mismatch (neither window is touched).
    fn rendezvous(&mut self, src: usize, dst: usize, s: SendHalf, r: RecvHalf) {
        let size = s.data.len();
        if size != r.buf.len() {
            let err = CommError::LengthMismatch {
                expected: r.buf.len(),
                actual: size,
            };
            self.half_error(src, err.clone());
            self.half_error(dst, err);
            return;
        }
        let started = s.posted.max(r.posted);
        let p = self.ranks();
        let mut constraints = self
            .spare_constraints
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(8));
        constraints.push(src as u32);
        constraints.push((p + dst) as u32);
        let hops = self.net.route_slots(src, dst, 2 * p, &mut constraints);
        // Per-level pricing (cluster mode): a same-node message is an
        // intra-level transfer, everything else crosses the network.
        // Its startup and wire rate come from that level; elsewhere
        // the one level's α applies with no extra ceiling (the ports
        // already cap at 1/β).
        let (alpha, wire_cap) = match self.cluster() {
            Some(cl) => {
                let same_node = src == dst || cl.same_node(src, dst);
                let m = self.machine.level(if same_node { 0 } else { 1 });
                constraints.push((2 * p + self.net.link_slots() + src) as u32);
                (m.alpha, 1.0 / m.beta)
            }
            None => (self.machine.intra().alpha, f64::INFINITY),
        };
        // Timing irregularities (§8) model OS interference at message
        // handoff: the *startup* is inflated, not the wire bandwidth,
        // so algorithms with longer critical message chains (e.g.
        // pipelined broadcasts) accumulate proportionally more noise.
        let slowdown = self.next_jitter_factor(src);
        self.waiting.push(Transfer {
            src,
            dst,
            tag: s.tag,
            hops,
            constraints,
            remaining: size as f64,
            data: s.data,
            buf: r.buf,
            started,
            activation: started + alpha * slowdown,
            rate: 0.0,
            wire_cap,
            plan: s.plan,
        });
    }

    /// Records an erroneous half-completion on `rank`.
    fn half_error(&mut self, rank: usize, e: CommError) {
        if let RankState::Blocked {
            outstanding, err, ..
        } = &mut self.states[rank]
        {
            *outstanding -= 1;
            err.get_or_insert(e);
            if *outstanding == 0 {
                self.unblock(rank);
            }
        }
    }

    /// Records a successful half-completion on `rank`.
    fn half_done(&mut self, rank: usize) {
        if let RankState::Blocked { outstanding, .. } = &mut self.states[rank] {
            *outstanding -= 1;
            if *outstanding == 0 {
                self.unblock(rank);
            }
        } else {
            unreachable!("half completion on non-blocked rank {rank}");
        }
    }

    /// Releases `rank` from its blocking call: a closure's call gets
    /// its reply; a program moves on (from `advance`, once this batch of
    /// completions is done) or, on an error, ends with it.
    fn unblock(&mut self, rank: usize) {
        let state = std::mem::replace(&mut self.states[rank], RankState::Running);
        if let RankState::Blocked { err, .. } = state {
            self.blocked -= 1;
            match err {
                None if self.programs[rank].is_some() => self.resumable.push(rank),
                err => self.end_program(rank, err.map_or(Ok(()), Err)),
            }
        }
    }

    /// Advances virtual time to the next event batch. Requires every
    /// unfinished rank to be blocked. Panics with a diagnostic on
    /// deadlock (blocked ranks but no transfer can ever complete).
    pub(crate) fn advance(&mut self) {
        assert_eq!(self.runnable_count(), 0, "advance with runnable ranks");
        if self.blocked == 0 {
            return;
        }
        if self.waiting.is_empty() && self.active.is_empty() {
            self.panic_deadlock();
        }
        // Next event time: earliest activation or earliest completion.
        let mut t_next = f64::INFINITY;
        for w in &self.waiting {
            t_next = t_next.min(w.activation);
        }
        for a in &self.active {
            if a.rate > 0.0 {
                t_next = t_next.min(self.now + a.remaining / a.rate);
            } else if a.remaining <= 1e-9 {
                t_next = t_next.min(self.now);
            }
        }
        assert!(
            t_next.is_finite(),
            "no progressing transfer (all rates zero?)"
        );
        let t_next = t_next.max(self.now);
        // Progress all flowing transfers to t_next.
        let dt = t_next - self.now;
        for a in &mut self.active {
            a.remaining = (a.remaining - a.rate * dt).max(0.0);
        }
        self.now = t_next;
        // Activate everything due (batched to one rate recomputation).
        let eps = 1e-15 + 1e-9 * t_next.abs();
        let mut i = 0;
        while i < self.waiting.len() {
            if self.waiting[i].activation <= t_next + eps {
                let t = self.waiting.swap_remove(i);
                self.active.push(t);
                self.rates_dirty = true;
            } else {
                i += 1;
            }
        }
        // Complete everything that has no bytes left — including
        // transfers whose residual flow time rounds to zero at the
        // current clock (`now + remaining/rate == now` in f64): without
        // this, a sub-ulp residue would stall the event loop in
        // infinitesimal steps (Zeno livelock).
        let mut i = 0;
        while i < self.active.len() {
            let a = &self.active[i];
            let done = a.remaining <= 1e-9
                || (a.rate > 0.0 && self.now + a.remaining / a.rate <= self.now);
            if done {
                self.completing.push(self.active.swap_remove(i));
                self.rates_dirty = true;
            } else {
                i += 1;
            }
        }
        self.copy_batch();
        let mut batch = std::mem::take(&mut self.completing);
        batch.drain(..).for_each(|t| self.finish_transfer(t));
        self.completing = batch;
        // Programs whose transfer completed run on to their next one;
        // what they post waits for the next advance, as a closure's
        // next request would.
        while let Some(rank) = self.resumable.pop() {
            self.walk(rank);
        }
        if self.rates_dirty {
            self.recompute_rates();
            self.rates_dirty = false;
        }
    }

    /// Moves the payloads of the transfers completing at this event,
    /// sender → receiver, here and nowhere else, while every rank of the
    /// batch is still `Blocked` in the call that lent its windows (their
    /// replies are pushed after this and sent only after `advance`
    /// returns): copied, or folded into a fused receive's accumulator.
    /// A batch of [`SPLIT_BYTES`] or more is cut at its byte midpoint —
    /// one transfer may be cut in two, a fold at an element boundary —
    /// and the helper runs the second half while the engine runs the
    /// first.
    fn copy_batch(&mut self) {
        let mut bytes = 0;
        for t in &mut self.completing {
            // Not a debug assertion: the copy is sound only under it.
            assert!(
                matches!(self.states[t.src], RankState::Blocked { .. })
                    && matches!(self.states[t.dst], RankState::Blocked { .. }),
                "a transfer outlived a lender's block"
            );
            bytes += t.data.len();
            self.segments.push(Segment::of(&t.data, &mut t.buf));
        }
        let helper = self.helper.as_deref().filter(|_| bytes >= SPLIT_BYTES);
        match helper {
            None => self.segments.iter_mut().for_each(Segment::run),
            Some(helper) => {
                // The first segment that reaches past the midpoint is cut
                // there; its tail joins the helper's half at the end.
                let (mut seen, half) = (0, bytes / 2);
                let k = self
                    .segments
                    .iter()
                    .position(|s| {
                        seen += s.len();
                        seen > half
                    })
                    .expect("the midpoint lies inside the batch");
                let cut = &mut self.segments[k];
                let tail = cut.split_off(half - (seen - cut.len()));
                self.segments.push(tail);
                let (mine, theirs) = self.segments.split_at_mut(k + 1);
                helper.join(&mut || theirs.iter_mut().for_each(Segment::run), || {
                    mine.iter_mut().for_each(Segment::run)
                });
                #[cfg(test)]
                {
                    self.split_batches += 1;
                }
            }
        }
        self.segments.clear();
    }

    /// Completes `t`, whose payload `copy_batch` has moved: both ends'
    /// clocks, the trace record, and the halves it settles.
    fn finish_transfer(&mut self, mut t: Transfer) {
        self.clocks[t.src] = self.clocks[t.src].max(self.now);
        self.clocks[t.dst] = self.clocks[t.dst].max(self.now);
        if let Some(trace) = &mut self.trace {
            trace.push(
                TraceEvent::transfer(
                    t.src,
                    t.dst,
                    t.tag,
                    t.data.len(),
                    t.started,
                    self.now,
                    t.hops,
                )
                .with_plan(t.plan.0, t.plan.1),
            );
        }
        t.constraints.clear();
        self.spare_constraints.push(t.constraints);
        // A self-message is one rank's `sendrecv`: both halves are its.
        self.half_done(t.src);
        self.half_done(t.dst);
    }

    fn recompute_rates(&mut self) {
        if self.active.is_empty() {
            return;
        }
        // Ports inject/eject at node speed: the intra (memory) level.
        // Slower wires are enforced per link and per transfer below.
        let port_cap = 1.0 / self.machine.intra().beta;
        let port_slots = (2 * self.ranks()) as u32;
        let wire_base = port_slots + self.link_caps.len() as u32;
        if self.cluster().is_some() {
            self.wire_caps.clear();
            self.wire_caps.resize(self.ranks(), f64::INFINITY);
            for t in &self.active {
                self.wire_caps[t.src] = t.wire_cap;
            }
        }
        let mut rates = std::mem::take(&mut self.rates_buf);
        let link_caps = &self.link_caps;
        let wire_caps = &self.wire_caps;
        self.fluid.solve_max_min(
            &self.active,
            |c| {
                if c < port_slots {
                    port_cap
                } else if c < wire_base {
                    link_caps[(c - port_slots) as usize]
                } else {
                    wire_caps[(c - wire_base) as usize]
                }
            },
            &mut rates,
        );
        for (t, &r) in self.active.iter_mut().zip(rates.iter()) {
            t.rate = r;
        }
        self.rates_buf = rates;
    }

    fn panic_deadlock(&self) -> ! {
        // A half a program posted names its step.
        let at = |(plan, step): (u64, u64)| match plan {
            0 => String::new(),
            _ => format!(" (plan {plan} step {step})"),
        };
        let mut detail = String::new();
        for (s, half) in self.pending_sends.iter().enumerate() {
            if let Some(h) = half {
                let (to, tag, at) = (h.to, h.tag, at(h.plan));
                detail.push_str(&format!("  unmatched send {s}→{to} tag {tag}{at}\n"));
            }
        }
        for (d, half) in self.pending_recvs.iter().enumerate() {
            if let Some(h) = half {
                let (from, tag, at) = (h.from, h.tag, at(h.plan));
                detail.push_str(&format!("  unmatched recv {d}←{from} tag {tag}{at}\n"));
            }
        }
        panic!(
            "simulation deadlock: {} rank(s) blocked with no transfer in flight\n{detail}",
            self.blocked
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom_cost::MachineParams;
    use intercom_topology::Mesh2D;

    fn mesh_net(r: usize, c: usize) -> NetSpec {
        NetSpec::Mesh(Mesh2D::new(r, c))
    }

    /// A jitter-free engine over a flat machine.
    fn engine(net: NetSpec, machine: MachineParams, record_trace: bool) -> Engine {
        Engine::new(net, HierMachine::flat(machine), record_trace, 0.0, 0, None)
    }

    fn unit_machine() -> MachineParams {
        // α=1, β=1 (1 byte/s), γ=0, δ=0, no link excess.
        MachineParams {
            alpha: 1.0,
            beta: 1.0,
            gamma: 0.0,
            delta: 0.0,
            link_excess: 1.0,
        }
    }

    // The tests play the blocked ranks themselves: a buffer lent to a
    // request below is a local that stays in place, unread, until the
    // engine has produced the posting rank's reply.

    fn send(to: usize, tag: Tag, data: &[u8]) -> Request {
        Request::transfer(Some((to, data)), None, tag)
    }

    fn recv(from: usize, tag: Tag, buf: &mut [u8]) -> Request {
        Request::transfer(None, Some((from, buf)), tag)
    }

    fn sendrecv(to: usize, data: &[u8], from: usize, buf: &mut [u8], tag: Tag) -> Request {
        Request::transfer(Some((to, data)), Some((from, buf)), tag)
    }

    fn replies(e: &mut Engine) -> Vec<(usize, Reply)> {
        let mut out = Vec::new();
        e.drain_replies(&mut out);
        out.sort_by_key(|(rank, _)| *rank);
        out
    }

    fn drive_to_completion(e: &mut Engine) {
        // No runnable ranks assumed; keep advancing until all blocked
        // ranks are released; callers re-post as needed.
        while e.blocked > 0 && e.runnable_count() == 0 {
            e.advance();
        }
    }

    /// A distinct, recognisable payload of `n` bytes.
    fn pattern(n: usize, salt: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect()
    }

    #[test]
    fn ping_costs_alpha_plus_n_beta() {
        let mut e = engine(mesh_net(1, 2), unit_machine(), false);
        let data = pattern(10, 1);
        let mut buf = [0u8; 10];
        e.handle(0, send(1, 0, &data));
        e.handle(1, recv(0, 0, &mut buf));
        drive_to_completion(&mut e);
        let replies = replies(&mut e);
        assert_eq!(replies.len(), 2);
        // α + nβ = 1 + 10 = 11.
        assert!((e.clocks[0] - 11.0).abs() < 1e-9, "{}", e.clocks[0]);
        assert!((e.clocks[1] - 11.0).abs() < 1e-9);
        assert!(replies.iter().all(|(_, r)| r.is_ok()));
        assert_eq!(buf[..], data[..]);
    }

    #[test]
    fn zero_byte_message_costs_alpha() {
        let mut e = engine(mesh_net(1, 2), unit_machine(), false);
        e.handle(0, send(1, 0, &[]));
        e.handle(1, recv(0, 0, &mut []));
        drive_to_completion(&mut e);
        assert!((e.clocks[0] - 1.0).abs() < 1e-9);
        assert!(replies(&mut e).iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn rendezvous_waits_for_late_receiver() {
        // Rank 1 computes 5 bytes' worth before it posts its receive.
        let machine = MachineParams {
            gamma: 1.0,
            ..unit_machine()
        };
        let mut e = engine(mesh_net(1, 2), machine, false);
        let mut buf = [0u8; 4];
        e.handle(1, Request::Compute { bytes: 5 });
        e.handle(1, recv(0, 0, &mut buf));
        e.handle(0, send(1, 0, &[9u8; 4]));
        drive_to_completion(&mut e);
        // Start at max(0, 5) = 5; complete at 5 + 1 + 4 = 10.
        assert!((e.clocks[1] - 10.0).abs() < 1e-9, "{}", e.clocks[1]);
        assert!((e.clocks[0] - 10.0).abs() < 1e-9);
        assert_eq!(buf, [9u8; 4]);
    }

    /// 0→`a` and 1→`b` of 100 bytes each on a 1×4 row, run to the end.
    fn two_sends_on_a_row(machine: MachineParams, a: usize, b: usize) -> Engine {
        let mut e = engine(mesh_net(1, 4), machine, false);
        let (d0, d1) = (pattern(100, 3), pattern(100, 5));
        let (mut b0, mut b1) = (vec![0u8; 100], vec![0u8; 100]);
        e.handle(0, send(a, 0, &d0));
        e.handle(a, recv(0, 0, &mut b0));
        e.handle(1, send(b, 1, &d1));
        e.handle(b, recv(1, 1, &mut b1));
        drive_to_completion(&mut e);
        assert_eq!((&b0, &b1), (&d0, &d1), "each got its own sender's bytes");
        e
    }

    #[test]
    fn contending_messages_share_link_bandwidth() {
        // 0→3 (links 0E, 1E, 2E) and 1→2 (link 1E) share link 1E:
        // 0.5 B/s each. Both activate at t = 1 and drain at 1 + 200.
        let e = two_sends_on_a_row(unit_machine(), 3, 2);
        assert!((e.clocks[2] - 201.0).abs() < 1e-6, "{}", e.clocks[2]);
        assert!((e.clocks[3] - 201.0).abs() < 1e-6, "{}", e.clocks[3]);
    }

    #[test]
    fn link_excess_removes_sharing_penalty() {
        let machine = MachineParams {
            link_excess: 2.0,
            ..unit_machine()
        };
        let e = two_sends_on_a_row(machine, 3, 2);
        // Link capacity 2 B/s but ports 1 B/s: both flow at port rate:
        // done at 1 + 100 = 101.
        assert!((e.clocks[3] - 101.0).abs() < 1e-6, "{}", e.clocks[3]);
    }

    #[test]
    fn disjoint_routes_do_not_interact() {
        let mut e = engine(mesh_net(1, 4), unit_machine(), false);
        let (d0, d2) = (pattern(50, 7), pattern(50, 9));
        let (mut b1, mut b3) = ([0u8; 50], [0u8; 50]);
        e.handle(0, send(1, 0, &d0));
        e.handle(1, recv(0, 0, &mut b1));
        e.handle(2, send(3, 0, &d2));
        e.handle(3, recv(2, 0, &mut b3));
        drive_to_completion(&mut e);
        for r in 0..4 {
            assert!(
                (e.clocks[r] - 51.0).abs() < 1e-9,
                "rank {r}: {}",
                e.clocks[r]
            );
        }
        assert_eq!((&b1[..], &b3[..]), (&d0[..], &d2[..]));
    }

    #[test]
    fn sendrecv_ring_is_one_step() {
        // 3 ranks in a row exchange ring-style via sendrecv: 0→1 (E),
        // 1→2 (E), 2→0 (W,W) are link-disjoint, so all complete in one
        // α + nβ step.
        let mut e = engine(mesh_net(1, 3), unit_machine(), false);
        let data: Vec<Vec<u8>> = (0..3).map(|me| pattern(20, me as u8)).collect();
        let mut bufs = vec![vec![0u8; 20]; 3];
        for (me, buf) in bufs.iter_mut().enumerate() {
            let (right, left) = ((me + 1) % 3, (me + 2) % 3);
            e.handle(me, sendrecv(right, &data[me], left, buf, 0));
        }
        drive_to_completion(&mut e);
        for r in 0..3 {
            assert!(
                (e.clocks[r] - 21.0).abs() < 1e-9,
                "rank {r}: {}",
                e.clocks[r]
            );
            assert_eq!(
                bufs[r],
                data[(r + 2) % 3],
                "rank {r} got its left neighbour's"
            );
        }
        assert_eq!(replies(&mut e).len(), 3);
    }

    #[test]
    fn self_sendrecv_delivers_to_the_same_rank() {
        let mut e = engine(mesh_net(1, 2), unit_machine(), false);
        let data = pattern(6, 11);
        let mut buf = [0u8; 6];
        e.handle(0, sendrecv(0, &data, 0, &mut buf, 3));
        e.handle(1, Request::Finished);
        drive_to_completion(&mut e);
        let replies = replies(&mut e);
        assert_eq!(replies.len(), 1, "one reply for the two halves");
        assert!(replies[0].1.is_ok());
        assert_eq!(buf[..], data[..]);
        assert!((e.clocks[0] - 7.0).abs() < 1e-9, "{}", e.clocks[0]);
    }

    #[test]
    fn length_mismatch_errors_both_sides_and_writes_nothing() {
        let mut e = engine(mesh_net(1, 2), unit_machine(), false);
        let mut buf = [0xEEu8; 3];
        e.handle(0, send(1, 0, &[1u8; 5]));
        e.handle(1, recv(0, 0, &mut buf));
        let replies = replies(&mut e);
        assert_eq!(replies.len(), 2);
        for (_, r) in replies {
            assert!(matches!(
                r,
                Err(CommError::LengthMismatch {
                    expected: 3,
                    actual: 5
                })
            ));
        }
        assert!(e.waiting.is_empty(), "no transfer was started");
        assert_eq!(buf, [0xEEu8; 3], "the receiver's buffer is untouched");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn unmatched_recv_deadlocks_with_diagnostic() {
        let mut e = engine(mesh_net(1, 2), unit_machine(), false);
        e.handle(0, recv(1, 0, &mut [0u8; 1]));
        e.handle(1, Request::Finished);
        e.advance();
    }

    #[test]
    fn deadlock_diagnostic_lists_sends_then_receives_in_rank_order() {
        // Three ranks that wait on each other, posted in an order that
        // is neither rank order nor sends-first.
        let mut e = engine(mesh_net(1, 3), unit_machine(), false);
        let byte = [0u8; 1];
        let (mut b1, mut b2) = ([0u8; 1], [0u8; 1]);
        e.handle(2, sendrecv(0, &byte, 0, &mut b2, 7));
        e.handle(1, recv(2, 9, &mut b1));
        e.handle(0, send(1, 5, &byte));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.advance()))
            .expect_err("nothing can complete");
        assert_eq!(
            panic.downcast_ref::<String>().expect("a formatted panic"),
            "simulation deadlock: 3 rank(s) blocked with no transfer in flight\n\
             \x20 unmatched send 0→1 tag 5\n\
             \x20 unmatched send 2→0 tag 7\n\
             \x20 unmatched recv 1←2 tag 9\n\
             \x20 unmatched recv 2←0 tag 7\n"
        );
    }

    fn abort_info() -> AbortInfo {
        AbortInfo {
            origin: 0,
            culprit: 0,
            plan: 9,
            step: 2,
            cause: AbortCause::DropBudget,
        }
    }

    #[test]
    fn poison_releases_blocked_ranks_with_diagnosis() {
        let mut e = engine(mesh_net(1, 3), unit_machine(), false);
        // Ranks 1 and 2 block on receives that will never match.
        let (mut b1, mut b2) = ([0u8; 8], [0u8; 8]);
        e.handle(1, recv(0, 4, &mut b1));
        e.handle(2, recv(0, 5, &mut b2));
        assert!(replies(&mut e).is_empty());
        // Rank 0 poisons instead of sending data.
        let info = abort_info();
        let record = info.encode();
        e.handle(0, send(1, POISON_TAG, &record));
        let released = replies(&mut e);
        assert_eq!(released.len(), 3);
        // The poisoner is acknowledged without blocking...
        assert!(released[0].1.is_ok());
        // ...and both blocked ranks wake with the same diagnosis.
        for (rank, reply) in &released[1..] {
            assert!(
                matches!(reply, Err(CommError::Aborted(i)) if *i == info),
                "rank {rank}: {reply:?}"
            );
        }
        // Later comm requests fail fast; a duplicate poison still acks.
        e.handle(1, recv(2, 6, &mut b1[..1]));
        e.handle(0, send(2, POISON_TAG, &record));
        let later = replies(&mut e);
        assert_eq!(later.len(), 2);
        assert!(later[0].1.is_ok());
        assert!(matches!(later[1].1, Err(CommError::Aborted(_))));
        // All ranks can still finish cleanly.
        for r in 0..3 {
            e.handle(r, Request::Finished);
        }
        assert_eq!(e.finished_count(), 3);
    }

    #[test]
    fn poison_drops_matched_transfers_without_touching_their_windows() {
        // Two matched pairs on a 1×5 row: 0→1 is long and flowing when
        // the poison arrives, 2→3 is still inside its startup.
        let machine = MachineParams {
            gamma: 1.0,
            ..unit_machine()
        };
        let mut e = engine(mesh_net(1, 5), machine, false);
        let (long, short) = (pattern(100, 13), pattern(4, 17));
        let (mut b1, mut b3) = ([0xEEu8; 100], [0xEEu8; 4]);
        e.handle(0, send(1, 0, &long));
        e.handle(1, recv(0, 0, &mut b1));
        e.handle(2, Request::Compute { bytes: 2 });
        e.handle(2, send(3, 0, &short));
        e.handle(3, recv(2, 0, &mut b3));
        // Rank 4 exchanges a byte with itself so that virtual time can
        // pass (0→1 activates at t = 1; 4's message completes at t = 2,
        // the instant 2→3 rendezvouses) and then poisons.
        let mut own = [0u8; 1];
        e.handle(4, sendrecv(4, &[1], 4, &mut own, 0));
        while replies(&mut e).is_empty() {
            e.advance();
        }
        assert_eq!((e.active.len(), e.waiting.len()), (1, 1));
        let info = abort_info();
        e.handle(4, send(0, POISON_TAG, &info.encode()));
        let released = replies(&mut e);
        assert_eq!(released.len(), 5, "the ack and four releases");
        assert!(released[4].1.is_ok());
        for (rank, reply) in &released[..4] {
            assert!(
                matches!(reply, Err(CommError::Aborted(i)) if *i == info),
                "rank {rank}: {reply:?}"
            );
        }
        // Nothing is left that could be copied later.
        assert!(e.active.is_empty() && e.waiting.is_empty());
        for r in 0..5 {
            e.handle(r, Request::Finished);
        }
        assert_eq!(e.finished_count(), 5);
        assert_eq!(b1, [0xEEu8; 100], "the flowing transfer wrote nothing");
        assert_eq!(b3, [0xEEu8; 4], "the waiting transfer wrote nothing");
    }

    #[test]
    fn gamma_and_delta_advance_clocks() {
        let machine = MachineParams {
            alpha: 1.0,
            beta: 1.0,
            gamma: 2.0,
            delta: 0.25,
            link_excess: 1.0,
        };
        let mut e = engine(mesh_net(1, 1), machine, false);
        e.handle(0, Request::Compute { bytes: 3 });
        e.handle(0, Request::CallOverhead);
        e.handle(0, Request::Finished);
        assert!((e.clocks[0] - 6.25).abs() < 1e-12);
        assert_eq!(e.finished_count(), 1);
    }

    #[test]
    fn trace_records_transfers() {
        let mut e = engine(mesh_net(1, 2), unit_machine(), true);
        e.handle(0, send(1, 7, &[0u8; 4]));
        e.handle(1, recv(0, 7, &mut [0u8; 4]));
        drive_to_completion(&mut e);
        let trace = e.take_trace().unwrap();
        assert_eq!(trace.len(), 1);
        let rec = &trace[0];
        assert_eq!(
            (rec.src, rec.dst, rec.tag, rec.bytes, rec.hops),
            (0, 1, 7, 4, 1)
        );
        assert!((rec.end - rec.start - 5.0).abs() < 1e-9);
        assert_eq!((rec.plan, rec.step), (0, 0), "untraced by default");
    }

    #[test]
    fn plan_step_attribution_reaches_the_trace() {
        let mut e = engine(mesh_net(1, 2), unit_machine(), true);
        e.handle(0, Request::PlanStep { plan: 42, step: 6 });
        e.handle(0, send(1, 0, &[0u8; 4]));
        e.handle(1, recv(0, 0, &mut [0u8; 4]));
        drive_to_completion(&mut e);
        let trace = e.take_trace().unwrap();
        assert_eq!((trace[0].plan, trace[0].step), (42, 6));
    }

    #[test]
    fn xy_routes_make_columns_independent_of_rows() {
        // Two column transfers in different columns of a 2x2 mesh run at
        // full rate concurrently.
        let mut e = engine(mesh_net(2, 2), unit_machine(), false);
        let (d0, d1) = (pattern(30, 19), pattern(30, 23));
        let (mut b2, mut b3) = ([0u8; 30], [0u8; 30]);
        e.handle(0, send(2, 0, &d0));
        e.handle(2, recv(0, 0, &mut b2));
        e.handle(1, send(3, 0, &d1));
        e.handle(3, recv(1, 0, &mut b3));
        drive_to_completion(&mut e);
        for r in 0..4 {
            assert!((e.clocks[r] - 31.0).abs() < 1e-9, "rank {r}");
        }
        assert_eq!((&b2[..], &b3[..]), (&d0[..], &d1[..]));
    }

    #[test]
    fn finished_transfers_hand_their_constraint_vectors_on() {
        let mut e = engine(mesh_net(1, 2), unit_machine(), false);
        let mut buf = [0u8; 2];
        for round in 0..3 {
            e.handle(0, send(1, round, &[round as u8; 2]));
            e.handle(1, recv(0, round, &mut buf));
            drive_to_completion(&mut e);
            assert_eq!(replies(&mut e).len(), 2);
            assert_eq!(buf, [round as u8; 2]);
            assert_eq!(e.spare_constraints.len(), 1, "one vector, reused");
        }
    }

    /// `n` bytes that differ from any other stamp's, at every offset.
    fn stamp(n: usize, salt: u64) -> Vec<u8> {
        (0..n as u64)
            .map(|i| splitmix64(i << 8 | salt) as u8)
            .collect()
    }

    #[test]
    fn one_event_splits_a_batch_of_disjoint_copies_with_the_helper() {
        // Four sends on a 1×9 row, each on a link of its own, and a
        // self-`sendrecv` on rank 8. Every sender computes for as many
        // bytes (γ = 1) as its message is shorter than the longest, so
        // all five drain at one event, 1 + (1 MiB + 7).
        let machine = MachineParams {
            gamma: 1.0,
            ..unit_machine()
        };
        let helper = Some(Rc::new(Helper::spawn()));
        let mut e = Engine::new(
            mesh_net(1, 9),
            HierMachine::flat(machine),
            false,
            0.0,
            0,
            helper,
        );
        let sizes = [1, (256 << 10) - 1, (256 << 10) + 1, (1 << 20) + 7, 3];
        let longest = (1 << 20) + 7;
        let data: Vec<Vec<u8>> = (0..5).map(|k| stamp(sizes[k], k as u64)).collect();
        let mut bufs: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![0xEE; n]).collect();
        let (pairs, own) = bufs.split_at_mut(4);
        for (k, buf) in pairs.iter_mut().enumerate() {
            let (src, dst) = (2 * k, 2 * k + 1);
            e.handle(
                src,
                Request::Compute {
                    bytes: longest - sizes[k],
                },
            );
            e.handle(src, send(dst, 0, &data[k]));
            e.handle(dst, recv(src, 0, buf));
        }
        e.handle(8, Request::Compute { bytes: longest - 3 });
        e.handle(8, sendrecv(8, &data[4], 8, &mut own[0], 0));
        while replies(&mut e).is_empty() {
            assert_eq!(e.split_batches, 0, "no copy before the last event");
            e.advance();
        }
        assert_eq!(e.blocked, 0, "every transfer completed at that event");
        assert_eq!(e.split_batches, 1, "its batch was split with the helper");
        assert!(e.clocks.iter().all(|&c| c == (longest + 1) as f64));
        for (k, (got, sent)) in bufs.iter().zip(&data).enumerate() {
            assert!(got == sent, "transfer {k} ({} bytes)", sizes[k]);
        }
    }

    // Programs. The tests bind hand-made programs as `execute` would and
    // lend them to the engine themselves, whole (a `SimComm` lends the
    // steps from its first transfer or clock step to its last,
    // `comm::handed`); a bound program stays in place, untouched, until
    // its rank's reply.

    use crate::comm::handed;
    use intercom::ir::{
        ArgBuf, BoundProgram, Buf, CollectiveProgram, Loc, PlanOp, RankProgram, Step, StepKind,
    };
    use intercom::ReduceOp;

    const PLAN: u64 = 77;

    /// A program of `elem`-byte elements in which rank `r` runs
    /// `ranks[r]`, with a 16-byte arena.
    fn program(elem: usize, ranks: Vec<Vec<StepKind>>) -> CollectiveProgram {
        let rank = |kinds: Vec<StepKind>| RankProgram {
            steps: kinds.into_iter().map(|kind| Step { kind }).collect(),
            scratch_bytes: 16,
            landing_bytes: 0,
        };
        CollectiveProgram {
            plan_id: PLAN,
            op: PlanOp::Alltoall,
            p: ranks.len(),
            n: 0,
            elem_size: elem,
            strategy: None,
            hier: None,
            radices: Vec::new(),
            ranks: ranks.into_iter().map(rank).collect(),
            series: Default::default(),
        }
    }

    fn arg(slot: u8, off: u32, len: u32) -> Loc {
        Loc {
            buf: Buf::Arg(slot),
            off,
            len,
        }
    }

    fn to(peer: u16, tag_off: u32, src: Loc) -> StepKind {
        StepKind::Send {
            to: peer,
            tag_off,
            src,
        }
    }

    fn from(peer: u16, tag_off: u32, dst: Loc) -> StepKind {
        StepKind::Recv {
            from: peer,
            tag_off,
            dst,
        }
    }

    fn swap(peer: u16, tag_off: u32, src: Loc, dst: Loc) -> StepKind {
        StepKind::SendRecv {
            to: peer,
            src,
            from: peer,
            dst,
            tag_off,
        }
    }

    fn copy(src: Loc, dst: Loc) -> StepKind {
        StepKind::Copy { src, dst }
    }

    /// Lends `steps` of `bound` to the engine as rank `rank`'s program.
    fn lend_steps(e: &mut Engine, rank: usize, bound: &mut BoundProgram<'_>, steps: Range<usize>) {
        let prog = ProgramWindow::lend(bound);
        e.handle(rank, Request::Program { prog, steps });
    }

    /// Lends all of `bound` to the engine as rank `rank`'s program.
    fn lend(e: &mut Engine, rank: usize, bound: &mut BoundProgram<'_>) {
        let steps = 0..bound.steps().len();
        lend_steps(e, rank, bound, steps);
    }

    #[test]
    fn a_program_is_one_request_and_one_reply() {
        // Two ranks swap 4-byte blocks five times and keep what arrived:
        // ten transfers, nine copies between them, two replies. The copy
        // after the last swap is the caller's (`handed`), so the engine
        // leaves it.
        let ranks = (0..2u16)
            .map(|me| {
                let keep = |k: u32| copy(arg(0, 4, 4), arg(0, 8 + 4 * k, 4));
                (0..5)
                    .flat_map(|k| [swap(1 - me, k, arg(0, 0, 4), arg(0, 4, 4)), keep(k)])
                    .collect()
            })
            .collect();
        let prog = program(1, ranks);
        let members = [0, 1];
        let mut e = engine(mesh_net(1, 2), unit_machine(), false);
        let mut bufs = [[1u8; 28], [2u8; 28]];
        bufs.iter_mut().for_each(|b| b[4..].fill(0));
        let [b0, b1] = &mut bufs;
        let (mut a0, mut a1) = ([ArgBuf::Out(&mut b0[..])], [ArgBuf::Out(&mut b1[..])]);
        let (mut arena0, mut arena1) = (Vec::new(), Vec::new());
        let sum = ReduceOp::Sum;
        let mut p0 = BoundProgram::new(&prog, 0, &members, &mut a0, &mut arena0, sum, 0).unwrap();
        let mut p1 = BoundProgram::new(&prog, 1, &members, &mut a1, &mut arena1, sum, 0).unwrap();
        for (rank, p) in [(0, &mut p0), (1, &mut p1)] {
            let steps = handed(p.steps());
            assert_eq!(steps, 0..9, "rank {rank}: the first swap to the last");
            lend_steps(&mut e, rank, p, steps);
        }
        let mut got = Vec::new();
        while e.blocked > 0 {
            assert!(replies(&mut e).is_empty(), "no reply before the end");
            e.advance();
            got.extend(replies(&mut e));
        }
        assert_eq!(got.len(), 2, "one reply per program");
        assert!(got.iter().all(|(_, r)| r.is_ok()));
        // Five exchanges of α + 4β each.
        assert_eq!(e.clocks, [25.0, 25.0]);
        for (me, b) in bufs.iter().enumerate() {
            let theirs = 2 - me as u8;
            assert!(b[8..24].iter().all(|&x| x == theirs), "rank {me}: {b:?}");
            assert_eq!(b[24..], [0; 4], "rank {me}: the caller's copy");
        }
    }

    #[test]
    fn a_length_mismatch_ends_both_programs_and_runs_no_later_step() {
        let prog = program(
            1,
            vec![
                vec![
                    to(1, 0, arg(0, 0, 4)),
                    to(1, 1, arg(0, 4, 4)),
                    copy(arg(0, 0, 4), arg(0, 8, 4)),
                    to(1, 2, arg(0, 0, 4)),
                ],
                vec![
                    from(0, 0, arg(0, 0, 4)),
                    from(0, 1, arg(0, 4, 2)),
                    copy(arg(0, 0, 4), arg(0, 8, 4)),
                    from(0, 2, arg(0, 0, 4)),
                ],
            ],
        );
        let members = [0, 1];
        let mut e = engine(mesh_net(1, 2), unit_machine(), false);
        let (mut b0, mut b1) = (pattern(12, 29), [0xEEu8; 12]);
        let sent = b0.clone();
        let (mut a0, mut a1) = ([ArgBuf::Out(&mut b0[..])], [ArgBuf::Out(&mut b1[..])]);
        let (mut arena0, mut arena1) = (Vec::new(), Vec::new());
        let sum = ReduceOp::Sum;
        let mut p0 = BoundProgram::new(&prog, 0, &members, &mut a0, &mut arena0, sum, 0).unwrap();
        let mut p1 = BoundProgram::new(&prog, 1, &members, &mut a1, &mut arena1, sum, 0).unwrap();
        lend(&mut e, 0, &mut p0);
        lend(&mut e, 1, &mut p1);
        drive_to_completion(&mut e);
        let mismatch = Err(CommError::LengthMismatch {
            expected: 2,
            actual: 4,
        });
        assert_eq!(replies(&mut e), [(0, mismatch.clone()), (1, mismatch)]);
        assert!(e.programs.iter().all(Option::is_none));
        assert!(e.waiting.is_empty() && e.active.is_empty());
        assert_eq!(b0, sent, "the sender's copy never ran");
        assert_eq!(b1[..4], sent[..4], "the first message arrived");
        assert_eq!(b1[4..], [0xEE; 8], "nothing after it was written");
    }

    #[test]
    fn poison_ends_a_blocked_program_and_copies_nothing() {
        let prog = program(
            1,
            vec![
                vec![
                    StepKind::CallOverhead,
                    from(1, 4, arg(0, 0, 8)),
                    copy(arg(0, 0, 4), arg(0, 4, 4)),
                    from(1, 5, arg(0, 0, 8)),
                ],
                vec![],
            ],
        );
        let members = [0, 1];
        let mut e = engine(mesh_net(1, 2), unit_machine(), false);
        let mut b0 = [0xEEu8; 8];
        let mut a0 = [ArgBuf::Out(&mut b0[..])];
        let mut arena = Vec::new();
        let sum = ReduceOp::Sum;
        let mut p0 = BoundProgram::new(&prog, 0, &members, &mut a0, &mut arena, sum, 0).unwrap();
        lend(&mut e, 0, &mut p0);
        assert!(replies(&mut e).is_empty(), "blocked on its receive");
        let info = abort_info();
        e.handle(1, send(0, POISON_TAG, &info.encode()));
        assert_eq!(
            replies(&mut e),
            [(0, Err(CommError::Aborted(info))), (1, Ok(()))]
        );
        assert!(e.programs[0].is_none());
        // A program that starts after the poison fails at its first
        // transfer, its clock steps charged as a closure's would be.
        let mut p0 = BoundProgram::new(&prog, 0, &members, &mut a0, &mut arena, sum, 0).unwrap();
        lend(&mut e, 0, &mut p0);
        assert_eq!(replies(&mut e), [(0, Err(CommError::Aborted(info)))]);
        assert_eq!(b0, [0xEE; 8]);
    }

    #[test]
    fn malformed_operands_reply_plan_mismatch() {
        // One rank exchanging with itself around the bad step, so that
        // the step is the engine's to run.
        let ok = |tag| swap(0, tag, arg(1, 0, 4), arg(1, 4, 4));
        let what = |what| Err(CommError::PlanMismatch { what });
        let oob = what("step operand out of buffer bounds");
        let scratch = Loc {
            buf: Buf::Scratch,
            off: 8,
            len: 16,
        };
        let cases = [
            (copy(arg(1, 6, 4), arg(1, 0, 4)), true, oob.clone()),
            (copy(arg(5, 0, 1), arg(1, 0, 1)), true, oob.clone()),
            (copy(scratch, arg(1, 0, 8)), true, oob),
            (
                copy(arg(1, 0, 4), arg(0, 0, 4)),
                true,
                what("step writes a read-only buffer"),
            ),
            (
                copy(arg(0, 0, 4), arg(1, 0, 4)),
                false,
                what("step reads an absent buffer"),
            ),
            (
                copy(arg(1, 0, 4), arg(1, 2, 4)),
                true,
                what("overlapping read/write operands in one step"),
            ),
            (
                copy(arg(1, 0, 2), arg(1, 4, 4)),
                true,
                what("step operands differ in length"),
            ),
            (
                to(3, 0, arg(1, 0, 4)),
                true,
                Err(CommError::InvalidRank { rank: 3, size: 1 }),
            ),
        ];
        for (bad, bound, reply) in cases {
            let prog = program(1, vec![vec![ok(0), bad, ok(1)]]);
            let mut e = engine(mesh_net(1, 1), unit_machine(), false);
            let (input, mut out) = ([7u8; 8], [0u8; 8]);
            let first = if bound {
                ArgBuf::In(&input[..])
            } else {
                ArgBuf::Absent
            };
            let mut args = [first, ArgBuf::Out(&mut out[..])];
            let mut arena = Vec::new();
            let sum = ReduceOp::Sum;
            let mut p = BoundProgram::new(&prog, 0, &[0], &mut args, &mut arena, sum, 0).unwrap();
            lend(&mut e, 0, &mut p);
            drive_to_completion(&mut e);
            assert_eq!(replies(&mut e), [(0, reply)], "{bad:?}");
            assert!(e.programs[0].is_none() && e.blocked == 0, "{bad:?}");
        }
        // Offsets are checked against the element size too.
        let prog = program(
            8,
            vec![vec![ok(0), copy(arg(1, 3, 8), arg(1, 16, 8)), ok(1)]],
        );
        let mut e = engine(mesh_net(1, 1), unit_machine(), false);
        let mut out = [0u64; 4];
        let mut args = [ArgBuf::In(&[1u64][..]), ArgBuf::Out(&mut out[..])];
        let mut arena = Vec::new();
        let sum = ReduceOp::Sum;
        let mut p = BoundProgram::new(&prog, 0, &[0], &mut args, &mut arena, sum, 0).unwrap();
        lend(&mut e, 0, &mut p);
        assert_eq!(
            replies(&mut e),
            [(0, what("step operand not aligned to the element size"))]
        );
    }

    #[test]
    fn a_program_without_transfers_replies_at_once() {
        let machine = MachineParams {
            gamma: 2.0,
            delta: 0.25,
            ..unit_machine()
        };
        let mut e = engine(mesh_net(1, 1), machine, false);
        let steps = vec![StepKind::CallOverhead, StepKind::Compute { bytes: 3 }];
        let prog = program(1, vec![steps]);
        let (mut args, mut arena) = ([ArgBuf::<u8>::Absent], Vec::new());
        let sum = ReduceOp::Sum;
        let mut p = BoundProgram::new(&prog, 0, &[0], &mut args, &mut arena, sum, 0).unwrap();
        lend(&mut e, 0, &mut p);
        assert_eq!(replies(&mut e), [(0, Ok(()))]);
        assert_eq!(e.clocks, [6.25]);
    }

    #[test]
    fn program_transfers_carry_their_plan_and_step() {
        let prog = program(
            1,
            vec![
                vec![StepKind::CallOverhead, to(1, 3, arg(0, 0, 4))],
                vec![from(0, 3, arg(0, 0, 4))],
            ],
        );
        let members = [0, 1];
        let mut e = engine(mesh_net(1, 2), unit_machine(), true);
        let (mut b0, mut b1) = ([1u8; 4], [0u8; 4]);
        let (mut a0, mut a1) = ([ArgBuf::Out(&mut b0[..])], [ArgBuf::Out(&mut b1[..])]);
        let (mut arena0, mut arena1) = (Vec::new(), Vec::new());
        let sum = ReduceOp::Sum;
        let base = 1 << 20;
        let mut p0 =
            BoundProgram::new(&prog, 0, &members, &mut a0, &mut arena0, sum, base).unwrap();
        let mut p1 =
            BoundProgram::new(&prog, 1, &members, &mut a1, &mut arena1, sum, base).unwrap();
        lend(&mut e, 0, &mut p0);
        lend(&mut e, 1, &mut p1);
        drive_to_completion(&mut e);
        let trace = e.take_trace().unwrap();
        let t = &trace[0];
        assert_eq!((t.tag, t.plan, t.step), (base + 3, PLAN, 1));
    }

    #[test]
    fn the_deadlock_diagnostic_names_a_programs_pending_half() {
        let prog = program(1, vec![vec![from(1, 9, arg(0, 0, 1))], vec![]]);
        let mut e = engine(mesh_net(1, 2), unit_machine(), false);
        let mut b0 = [0u8; 1];
        let mut a0 = [ArgBuf::Out(&mut b0[..])];
        let mut arena = Vec::new();
        let sum = ReduceOp::Sum;
        let mut p0 = BoundProgram::new(&prog, 0, &[0, 1], &mut a0, &mut arena, sum, 0).unwrap();
        lend(&mut e, 0, &mut p0);
        e.handle(1, Request::Finished);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.advance()))
            .expect_err("nothing can complete");
        assert_eq!(
            panic.downcast_ref::<String>().expect("a formatted panic"),
            "simulation deadlock: 1 rank(s) blocked with no transfer in flight\n\
             \x20 unmatched recv 0←1 tag 9 (plan 77 step 0)\n"
        );
    }

    #[test]
    fn a_fold_cut_mid_batch_splits_at_an_element_boundary_and_equals_the_serial_fold() {
        // Ranks 0 and 2 send 40 001 and 40 000 eight-byte elements that
        // ranks 1 and 3 fold into their vectors (fused receives); rank 2
        // computes for the 8 bytes it sends fewer, so both complete at
        // one event. The batch is 640 008 bytes: its midpoint, 4 bytes
        // into an element of the first fold, is where the helper's half
        // would start.
        let (long, short) = (40_001u32, 40_000u32);
        let all = |len: u32| arg(0, 0, 8 * len);
        let fold = |from, len| StepKind::RecvReduce {
            from,
            tag_off: 0,
            acc: all(len),
        };
        let prog = program(
            8,
            vec![
                vec![to(1, 0, all(long))],
                vec![fold(0, long)],
                vec![StepKind::Compute { bytes: 8 }, to(3, 0, all(short))],
                vec![fold(2, short)],
            ],
        );
        let members = [0, 1, 2, 3];
        let machine = MachineParams {
            gamma: 1.0,
            ..unit_machine()
        };
        let value =
            |r: usize, i: usize| (splitmix64((r * 1_000_003 + i) as u64) >> 11) as f64 / 1e3;
        let vectors = || -> Vec<Vec<f64>> {
            [long, long, short, short]
                .iter()
                .enumerate()
                .map(|(r, &len)| (0..len as usize).map(|i| value(r, i)).collect())
                .collect()
        };
        let run = |helper: Option<Rc<Helper>>| {
            let net = mesh_net(1, 4);
            let mut e = Engine::new(net, HierMachine::flat(machine), false, 0.0, 0, helper);
            let mut bufs = vectors();
            let mut args: Vec<[ArgBuf<'_, f64>; 1]> =
                bufs.iter_mut().map(|b| [ArgBuf::Out(&mut b[..])]).collect();
            let mut arenas = vec![Vec::new(); 4];
            let mut bound: Vec<BoundProgram<'_>> = args
                .iter_mut()
                .zip(&mut arenas)
                .enumerate()
                .map(|(r, (a, arena))| {
                    BoundProgram::new(&prog, r, &members, a, arena, ReduceOp::Sum, 0).unwrap()
                })
                .collect();
            for (r, p) in bound.iter_mut().enumerate() {
                lend(&mut e, r, p);
            }
            drive_to_completion(&mut e);
            assert!(replies(&mut e).iter().all(|(_, r)| r.is_ok()));
            let split = e.split_batches;
            drop(bound);
            drop(args);
            assert!(arenas.iter().all(Vec::is_empty), "no landing was readied");
            (split, bufs)
        };
        let want = vectors();
        let serial: Vec<Vec<f64>> = [(1, 0), (3, 2)]
            .iter()
            .map(|&(acc, sent)| {
                let mut v = want[acc].clone();
                ReduceOp::Sum.fold_into(&mut v, &want[sent]);
                v
            })
            .collect();
        for helper in [None, Some(Rc::new(Helper::spawn()))] {
            let shared = helper.is_some();
            let (split, got) = run(helper);
            assert_eq!(
                split,
                usize::from(shared),
                "the batch was split iff a helper shared it"
            );
            for (k, r) in [1, 3].into_iter().enumerate() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&got[r]) == bits(&serial[k]),
                    "rank {r} (helper: {shared})"
                );
            }
            assert!(
                got[0] == want[0] && got[2] == want[2],
                "the senders kept theirs"
            );
        }
    }
}
