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

use crate::fluid::FluidScratch;
use crate::net::NetSpec;
use intercom::faults::POISON_TAG;
use intercom::rng::splitmix64;
use intercom::{AbortCause, AbortInfo, CommError, Tag};
use intercom_cost::HierMachine;
use intercom_obs::TraceEvent;
use intercom_topology::{Cluster, HopLevel};
use std::collections::{HashMap, VecDeque};

/// What a rank asked the simulator to do.
#[derive(Debug)]
pub(crate) enum Request {
    Send {
        to: usize,
        tag: Tag,
        data: Vec<u8>,
    },
    Recv {
        from: usize,
        tag: Tag,
        len: usize,
    },
    SendRecv {
        to: usize,
        data: Vec<u8>,
        from: usize,
        /// Tag of the send half.
        tag: Tag,
        /// Tag of the receive half (differs from `tag` only under
        /// `Comm::sendrecv_tagged`; no library schedule mixes tags).
        rtag: Tag,
        rlen: usize,
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
    Finished,
}

/// The simulator's answer unblocking a rank.
#[derive(Debug)]
pub(crate) struct Reply {
    pub data: Option<Vec<u8>>,
    pub err: Option<CommError>,
}

#[derive(Debug)]
enum RankState {
    Running,
    Blocked {
        outstanding: u8,
        recv_data: Option<Vec<u8>>,
        err: Option<CommError>,
    },
    Finished,
}

struct SendHalf {
    posted: f64,
    data: Vec<u8>,
    /// `(plan_id, step)` attribution captured from the sender at post
    /// time (the transfer event lands on the sender's timeline).
    plan: (u64, u64),
}

struct RecvHalf {
    posted: f64,
    len: usize,
}

struct Transfer {
    src: usize,
    dst: usize,
    tag: Tag,
    data: Vec<u8>,
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
    pending_sends: HashMap<(usize, usize, Tag), VecDeque<SendHalf>>,
    pending_recvs: HashMap<(usize, usize, Tag), VecDeque<RecvHalf>>,
    /// Transfers awaiting activation (`now < activation`) or flowing.
    waiting: Vec<Transfer>,
    active: Vec<Transfer>,
    now: f64,
    ready_replies: Vec<(usize, Reply)>,
    finished: usize,
    blocked: usize,
    trace: Option<Vec<TraceEvent>>,
    /// Per-rank `(plan_id, step)` currently executing (set by
    /// [`Request::PlanStep`]; `(0, 0)` outside plan execution).
    plan_steps: Vec<(u64, u64)>,
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
    /// drawn deterministically from `jitter_seed` and a message counter.
    jitter: f64,
    jitter_seed: u64,
    jitter_counter: u64,
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
            pending_sends: HashMap::new(),
            pending_recvs: HashMap::new(),
            waiting: Vec::new(),
            active: Vec::new(),
            now: 0.0,
            ready_replies: Vec::new(),
            finished: 0,
            blocked: 0,
            trace: record_trace.then(Vec::new),
            plan_steps: vec![(0, 0); p],
            fluid: FluidScratch::new(universe),
            rates_buf: Vec::new(),
            rates_dirty: false,
            jitter,
            jitter_seed,
            jitter_counter: 0,
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
    /// deterministic in (seed, message order).
    fn next_jitter_factor(&mut self) -> f64 {
        if self.jitter == 0.0 {
            return 1.0;
        }
        self.jitter_counter += 1;
        let h = splitmix64(self.jitter_seed ^ self.jitter_counter);
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

    pub(crate) fn drain_replies(&mut self) -> Vec<(usize, Reply)> {
        std::mem::take(&mut self.ready_replies)
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
        if let Request::Send {
            tag: POISON_TAG,
            ref data,
            ..
        } = req
        {
            let info = AbortInfo::decode(data).unwrap_or(AbortInfo {
                origin: rank,
                culprit: rank,
                plan: 0,
                step: 0,
                cause: AbortCause::External,
            });
            self.ready_replies.push((
                rank,
                Reply {
                    data: None,
                    err: None,
                },
            ));
            if self.poisoned.is_none() {
                self.poison(info);
            }
            return;
        }
        // Once poisoned, every further comm request fails fast with the
        // same diagnosis; accounting requests still apply harmlessly.
        if let Some(info) = self.poisoned {
            if matches!(
                req,
                Request::Send { .. } | Request::Recv { .. } | Request::SendRecv { .. }
            ) {
                self.ready_replies.push((
                    rank,
                    Reply {
                        data: None,
                        err: Some(CommError::Aborted(info)),
                    },
                ));
                return;
            }
        }
        match req {
            // Arithmetic and call overhead execute on the node: the
            // intra (node) level's γ and δ.
            Request::Compute { bytes } => {
                self.clocks[rank] += bytes as f64 * self.machine.intra().gamma;
            }
            Request::CallOverhead => {
                self.clocks[rank] += self.machine.intra().delta;
            }
            Request::PlanStep { plan, step } => {
                self.plan_steps[rank] = (plan, step);
            }
            Request::Finished => {
                self.states[rank] = RankState::Finished;
                self.finished += 1;
            }
            Request::Send { to, tag, data } => {
                self.block(rank, 1);
                self.post_send(rank, to, tag, data);
            }
            Request::Recv { from, tag, len } => {
                self.block(rank, 1);
                self.post_recv(from, rank, tag, len);
            }
            Request::SendRecv {
                to,
                data,
                from,
                tag,
                rtag,
                rlen,
            } => {
                self.block(rank, 2);
                self.post_send(rank, to, tag, data);
                self.post_recv(from, rank, rtag, rlen);
            }
        }
    }

    /// Latches the abort, releases every blocked rank with the
    /// diagnosis, and clears all pending/in-flight traffic: after a
    /// poison nothing else can ever complete, and the freed ranks must
    /// observe the abort rather than a dangling rendezvous.
    fn poison(&mut self, info: AbortInfo) {
        self.poisoned = Some(info);
        for rank in 0..self.states.len() {
            if matches!(self.states[rank], RankState::Blocked { .. }) {
                self.states[rank] = RankState::Running;
                self.blocked -= 1;
                self.ready_replies.push((
                    rank,
                    Reply {
                        data: None,
                        err: Some(CommError::Aborted(info)),
                    },
                ));
            }
        }
        self.pending_sends.clear();
        self.pending_recvs.clear();
        self.waiting.clear();
        self.active.clear();
        self.rates_dirty = false;
    }

    fn block(&mut self, rank: usize, outstanding: u8) {
        self.states[rank] = RankState::Blocked {
            outstanding,
            recv_data: None,
            err: None,
        };
        self.blocked += 1;
    }

    fn post_send(&mut self, src: usize, dst: usize, tag: Tag, data: Vec<u8>) {
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
            posted: self.clocks[src],
            data,
            plan: self.plan_steps[src],
        };
        self.pending_sends
            .entry((src, dst, tag))
            .or_default()
            .push_back(half);
        self.try_match(src, dst, tag);
    }

    fn post_recv(&mut self, src: usize, dst: usize, tag: Tag, len: usize) {
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
            posted: self.clocks[dst],
            len,
        };
        self.pending_recvs
            .entry((src, dst, tag))
            .or_default()
            .push_back(half);
        self.try_match(src, dst, tag);
    }

    fn try_match(&mut self, src: usize, dst: usize, tag: Tag) {
        let key = (src, dst, tag);
        loop {
            let (s_empty, r_empty) = (
                self.pending_sends.get(&key).is_none_or(|q| q.is_empty()),
                self.pending_recvs.get(&key).is_none_or(|q| q.is_empty()),
            );
            if s_empty || r_empty {
                return;
            }
            let s = self
                .pending_sends
                .get_mut(&key)
                .unwrap()
                .pop_front()
                .unwrap();
            let r = self
                .pending_recvs
                .get_mut(&key)
                .unwrap()
                .pop_front()
                .unwrap();
            if s.data.len() != r.len {
                let err = CommError::LengthMismatch {
                    expected: r.len,
                    actual: s.data.len(),
                };
                self.half_error(src, err.clone());
                self.half_error(dst, err);
                continue;
            }
            let started = s.posted.max(r.posted);
            let size = s.data.len();
            let p = self.ranks();
            let mut constraints = Vec::with_capacity(8);
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
            let slowdown = self.next_jitter_factor();
            let t = Transfer {
                src,
                dst,
                tag,
                hops,
                constraints,
                remaining: size as f64,
                data: s.data,
                started,
                activation: started + alpha * slowdown,
                rate: 0.0,
                wire_cap,
                plan: s.plan,
            };
            self.waiting.push(t);
        }
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
    fn half_done(&mut self, rank: usize, data: Option<Vec<u8>>) {
        if let RankState::Blocked {
            outstanding,
            recv_data,
            ..
        } = &mut self.states[rank]
        {
            *outstanding -= 1;
            if data.is_some() {
                *recv_data = data;
            }
            if *outstanding == 0 {
                self.unblock(rank);
            }
        } else {
            unreachable!("half completion on non-blocked rank {rank}");
        }
    }

    fn unblock(&mut self, rank: usize) {
        let state = std::mem::replace(&mut self.states[rank], RankState::Running);
        if let RankState::Blocked { recv_data, err, .. } = state {
            self.blocked -= 1;
            self.ready_replies.push((
                rank,
                Reply {
                    data: recv_data,
                    err: err.clone(),
                },
            ));
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
                let t = self.active.swap_remove(i);
                self.finish_transfer(t);
                self.rates_dirty = true;
            } else {
                i += 1;
            }
        }
        if self.rates_dirty {
            self.recompute_rates();
            self.rates_dirty = false;
        }
    }

    fn finish_transfer(&mut self, t: Transfer) {
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
        if t.src == t.dst {
            // Self-message: one rank, both halves.
            let data = t.data;
            if let RankState::Blocked { outstanding, .. } = &self.states[t.src] {
                debug_assert!(*outstanding >= 1);
            }
            self.half_done(t.src, None);
            // The rank may already be unblocked if it was a plain
            // send+later recv; self-traffic within one blocking call is
            // only possible via sendrecv (outstanding 2), handled above.
            if let RankState::Blocked { .. } = self.states[t.dst] {
                self.half_done(t.dst, Some(data));
            }
        } else {
            self.half_done(t.src, None);
            self.half_done(t.dst, Some(t.data));
        }
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
        let users: Vec<&[u32]> = self
            .active
            .iter()
            .map(|t| t.constraints.as_slice())
            .collect();
        let mut rates = std::mem::take(&mut self.rates_buf);
        let link_caps = &self.link_caps;
        let wire_caps = &self.wire_caps;
        self.fluid.solve_max_min(
            &users,
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
        drop(users);
        for (t, &r) in self.active.iter_mut().zip(rates.iter()) {
            t.rate = r;
        }
        self.rates_buf = rates;
    }

    fn panic_deadlock(&self) -> ! {
        let mut detail = String::new();
        for (&(s, d, tag), q) in &self.pending_sends {
            if !q.is_empty() {
                detail.push_str(&format!(
                    "  unmatched send {s}→{d} tag {tag} ×{}\n",
                    q.len()
                ));
            }
        }
        for (&(s, d, tag), q) in &self.pending_recvs {
            if !q.is_empty() {
                detail.push_str(&format!(
                    "  unmatched recv {d}←{s} tag {tag} ×{}\n",
                    q.len()
                ));
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
        Engine::new(net, HierMachine::flat(machine), record_trace, 0.0, 0)
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

    fn drive_to_completion(e: &mut Engine) {
        // No runnable ranks assumed; keep advancing until all blocked
        // ranks are released; callers re-post as needed.
        while e.blocked > 0 && e.runnable_count() == 0 {
            e.advance();
        }
    }

    #[test]
    fn ping_costs_alpha_plus_n_beta() {
        let mesh = mesh_net(1, 2);
        let mut e = engine(mesh, unit_machine(), false);
        e.handle(
            0,
            Request::Send {
                to: 1,
                tag: 0,
                data: vec![0u8; 10],
            },
        );
        e.handle(
            1,
            Request::Recv {
                from: 0,
                tag: 0,
                len: 10,
            },
        );
        drive_to_completion(&mut e);
        let replies = e.drain_replies();
        assert_eq!(replies.len(), 2);
        // α + nβ = 1 + 10 = 11.
        assert!((e.clocks[0] - 11.0).abs() < 1e-9, "{}", e.clocks[0]);
        assert!((e.clocks[1] - 11.0).abs() < 1e-9);
        for (_, r) in replies {
            assert!(r.err.is_none());
        }
    }

    #[test]
    fn zero_byte_message_costs_alpha() {
        let mesh = mesh_net(1, 2);
        let mut e = engine(mesh, unit_machine(), false);
        e.handle(
            0,
            Request::Send {
                to: 1,
                tag: 0,
                data: vec![],
            },
        );
        e.handle(
            1,
            Request::Recv {
                from: 0,
                tag: 0,
                len: 0,
            },
        );
        drive_to_completion(&mut e);
        assert!((e.clocks[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rendezvous_waits_for_late_receiver() {
        let mesh = mesh_net(1, 2);
        let e = engine(mesh, unit_machine(), false);
        // Rank 1 computes 5 bytes' worth (γ=0 here, use alpha via
        // overhead): give rank 1 a head-start clock via Compute with a
        // gamma machine instead.
        let machine = MachineParams {
            gamma: 1.0,
            ..unit_machine()
        };
        let mut e2 = engine(mesh, machine, false);
        e2.handle(1, Request::Compute { bytes: 5 });
        e2.handle(
            1,
            Request::Recv {
                from: 0,
                tag: 0,
                len: 4,
            },
        );
        e2.handle(
            0,
            Request::Send {
                to: 1,
                tag: 0,
                data: vec![9u8; 4],
            },
        );
        drive_to_completion(&mut e2);
        // Start at max(0, 5) = 5; complete at 5 + 1 + 4 = 10.
        assert!((e2.clocks[1] - 10.0).abs() < 1e-9, "{}", e2.clocks[1]);
        assert!((e2.clocks[0] - 10.0).abs() < 1e-9);
        let _ = e;
    }

    #[test]
    fn contending_messages_share_link_bandwidth() {
        // 1x4 row: 0→3 and 1→2 share links 1→2 (and 2→3 only the first).
        // Transfers: A: 0→3 (links 0E,1E,2E), B: 1→2 (link 1E).
        // Fluid: both constrained by link 1E → 0.5 each until B done.
        let mesh = mesh_net(1, 4);
        let mut e = engine(mesh, unit_machine(), false);
        e.handle(
            0,
            Request::Send {
                to: 3,
                tag: 0,
                data: vec![0; 100],
            },
        );
        e.handle(
            3,
            Request::Recv {
                from: 0,
                tag: 0,
                len: 100,
            },
        );
        e.handle(
            1,
            Request::Send {
                to: 2,
                tag: 1,
                data: vec![0; 100],
            },
        );
        e.handle(
            2,
            Request::Recv {
                from: 1,
                tag: 1,
                len: 100,
            },
        );
        drive_to_completion(&mut e);
        // Both activate at t=1. Shared until B finishes at 1+200=201;
        // A then has 0 left? A also got 0.5 → A remaining 0 at 201 too.
        assert!((e.clocks[2] - 201.0).abs() < 1e-6, "{}", e.clocks[2]);
        assert!((e.clocks[3] - 201.0).abs() < 1e-6, "{}", e.clocks[3]);
    }

    #[test]
    fn link_excess_removes_sharing_penalty() {
        let mesh = mesh_net(1, 4);
        let machine = MachineParams {
            link_excess: 2.0,
            ..unit_machine()
        };
        let mut e = engine(mesh, machine, false);
        e.handle(
            0,
            Request::Send {
                to: 3,
                tag: 0,
                data: vec![0; 100],
            },
        );
        e.handle(
            3,
            Request::Recv {
                from: 0,
                tag: 0,
                len: 100,
            },
        );
        e.handle(
            1,
            Request::Send {
                to: 2,
                tag: 1,
                data: vec![0; 100],
            },
        );
        e.handle(
            2,
            Request::Recv {
                from: 1,
                tag: 1,
                len: 100,
            },
        );
        drive_to_completion(&mut e);
        // Link capacity 2 B/s but ports 1 B/s: both flow at port rate:
        // done at 1 + 100 = 101.
        assert!((e.clocks[3] - 101.0).abs() < 1e-6, "{}", e.clocks[3]);
    }

    #[test]
    fn disjoint_routes_do_not_interact() {
        let mesh = mesh_net(1, 4);
        let mut e = engine(mesh, unit_machine(), false);
        e.handle(
            0,
            Request::Send {
                to: 1,
                tag: 0,
                data: vec![0; 50],
            },
        );
        e.handle(
            1,
            Request::Recv {
                from: 0,
                tag: 0,
                len: 50,
            },
        );
        e.handle(
            2,
            Request::Send {
                to: 3,
                tag: 0,
                data: vec![0; 50],
            },
        );
        e.handle(
            3,
            Request::Recv {
                from: 2,
                tag: 0,
                len: 50,
            },
        );
        drive_to_completion(&mut e);
        for r in 0..4 {
            assert!(
                (e.clocks[r] - 51.0).abs() < 1e-9,
                "rank {r}: {}",
                e.clocks[r]
            );
        }
    }

    #[test]
    fn sendrecv_ring_is_one_step() {
        // 3 ranks in a row exchange ring-style via sendrecv: all complete
        // in one α + nβ step except for the wrap path sharing... with a
        // 1x3 row, 0→1 (E), 1→2 (E), 2→0 (W,W): all link-disjoint.
        let mesh = mesh_net(1, 3);
        let mut e = engine(mesh, unit_machine(), false);
        for me in 0..3usize {
            let right = (me + 1) % 3;
            let left = (me + 2) % 3;
            e.handle(
                me,
                Request::SendRecv {
                    to: right,
                    data: vec![0; 20],
                    from: left,
                    tag: 0,
                    rtag: 0,
                    rlen: 20,
                },
            );
        }
        drive_to_completion(&mut e);
        for r in 0..3 {
            assert!(
                (e.clocks[r] - 21.0).abs() < 1e-9,
                "rank {r}: {}",
                e.clocks[r]
            );
        }
        assert_eq!(e.drain_replies().len(), 3);
    }

    #[test]
    fn length_mismatch_errors_both_sides() {
        let mesh = mesh_net(1, 2);
        let mut e = engine(mesh, unit_machine(), false);
        e.handle(
            0,
            Request::Send {
                to: 1,
                tag: 0,
                data: vec![0; 5],
            },
        );
        e.handle(
            1,
            Request::Recv {
                from: 0,
                tag: 0,
                len: 3,
            },
        );
        let replies = e.drain_replies();
        assert_eq!(replies.len(), 2);
        for (_, r) in replies {
            assert!(matches!(
                r.err,
                Some(CommError::LengthMismatch {
                    expected: 3,
                    actual: 5
                })
            ));
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn unmatched_recv_deadlocks_with_diagnostic() {
        let mesh = mesh_net(1, 2);
        let mut e = engine(mesh, unit_machine(), false);
        e.handle(
            0,
            Request::Recv {
                from: 1,
                tag: 0,
                len: 1,
            },
        );
        e.handle(1, Request::Finished);
        e.advance();
    }

    #[test]
    fn poison_releases_blocked_ranks_with_diagnosis() {
        let mesh = mesh_net(1, 3);
        let mut e = engine(mesh, unit_machine(), false);
        // Ranks 1 and 2 block on receives that will never match.
        e.handle(
            1,
            Request::Recv {
                from: 0,
                tag: 4,
                len: 8,
            },
        );
        e.handle(
            2,
            Request::Recv {
                from: 0,
                tag: 5,
                len: 8,
            },
        );
        assert!(e.drain_replies().is_empty());
        // Rank 0 poisons instead of sending data.
        let info = AbortInfo {
            origin: 0,
            culprit: 0,
            plan: 9,
            step: 2,
            cause: AbortCause::DropBudget,
        };
        e.handle(
            0,
            Request::Send {
                to: 1,
                tag: POISON_TAG,
                data: info.encode().to_vec(),
            },
        );
        let mut replies = e.drain_replies();
        replies.sort_by_key(|(r, _)| *r);
        assert_eq!(replies.len(), 3);
        // The poisoner is acknowledged without blocking...
        assert!(replies[0].1.err.is_none());
        // ...and both blocked ranks wake with the same diagnosis.
        for (rank, reply) in &replies[1..] {
            assert!(
                matches!(reply.err, Some(CommError::Aborted(i)) if i == info),
                "rank {rank}: {:?}",
                reply.err
            );
        }
        // Later comm requests fail fast; a duplicate poison still acks.
        e.handle(
            1,
            Request::Recv {
                from: 2,
                tag: 6,
                len: 1,
            },
        );
        e.handle(
            0,
            Request::Send {
                to: 2,
                tag: POISON_TAG,
                data: info.encode().to_vec(),
            },
        );
        let replies = e.drain_replies();
        assert_eq!(replies.len(), 2);
        assert!(matches!(replies[0].1.err, Some(CommError::Aborted(_))));
        assert!(replies[1].1.err.is_none());
        // All ranks can still finish cleanly.
        for r in 0..3 {
            e.handle(r, Request::Finished);
        }
        assert_eq!(e.finished_count(), 3);
    }

    #[test]
    fn gamma_and_delta_advance_clocks() {
        let mesh = mesh_net(1, 1);
        let machine = MachineParams {
            alpha: 1.0,
            beta: 1.0,
            gamma: 2.0,
            delta: 0.25,
            link_excess: 1.0,
        };
        let mut e = engine(mesh, machine, false);
        e.handle(0, Request::Compute { bytes: 3 });
        e.handle(0, Request::CallOverhead);
        e.handle(0, Request::Finished);
        assert!((e.clocks[0] - 6.25).abs() < 1e-12);
        assert_eq!(e.finished_count(), 1);
    }

    #[test]
    fn trace_records_transfers() {
        let mesh = mesh_net(1, 2);
        let mut e = engine(mesh, unit_machine(), true);
        e.handle(
            0,
            Request::Send {
                to: 1,
                tag: 7,
                data: vec![0; 4],
            },
        );
        e.handle(
            1,
            Request::Recv {
                from: 0,
                tag: 7,
                len: 4,
            },
        );
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
        let mesh = mesh_net(1, 2);
        let mut e = engine(mesh, unit_machine(), true);
        e.handle(0, Request::PlanStep { plan: 42, step: 6 });
        e.handle(
            0,
            Request::Send {
                to: 1,
                tag: 0,
                data: vec![0; 4],
            },
        );
        e.handle(
            1,
            Request::Recv {
                from: 0,
                tag: 0,
                len: 4,
            },
        );
        drive_to_completion(&mut e);
        let trace = e.take_trace().unwrap();
        assert_eq!((trace[0].plan, trace[0].step), (42, 6));
    }

    #[test]
    fn xy_routes_make_columns_independent_of_rows() {
        // Two column transfers in different columns of a 2x2 mesh run at
        // full rate concurrently.
        let mesh = mesh_net(2, 2);
        let mut e = engine(mesh, unit_machine(), false);
        e.handle(
            0,
            Request::Send {
                to: 2,
                tag: 0,
                data: vec![0; 30],
            },
        );
        e.handle(
            2,
            Request::Recv {
                from: 0,
                tag: 0,
                len: 30,
            },
        );
        e.handle(
            1,
            Request::Send {
                to: 3,
                tag: 0,
                data: vec![0; 30],
            },
        );
        e.handle(
            3,
            Request::Recv {
                from: 1,
                tag: 0,
                len: 30,
            },
        );
        drive_to_completion(&mut e);
        for r in 0..4 {
            assert!((e.clocks[r] - 31.0).abs() < 1e-9, "rank {r}");
        }
    }
}
