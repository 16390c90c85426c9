//! Deterministic, seeded fault injection at the [`Comm`] boundary.
//!
//! The paper's library assumes a perfectly reliable fabric; real
//! clusters drop, corrupt and delay messages. This module makes those
//! failures *scriptable*: a [`FaultPlan`] lists exactly which outbound
//! operation of which rank misbehaves and how, and [`FaultyComm`] wraps
//! any backend's `Comm` so the collective algorithms run unmodified
//! while the transport underneath them injects the scripted faults and
//! runs the recovery machinery:
//!
//! * **Delay / stall** — the sending rank sleeps before transmitting.
//!   A delay under the collective deadline is recoverable (the result
//!   must be byte-identical to the fault-free run); a stall past the
//!   deadline trips a peer's bounded wait, which diagnoses the silent
//!   rank and initiates the coordinated abort.
//! * **Drop** — the injection layer models a lossy link with
//!   retransmission: each scripted loss consumes one retry (with
//!   exponential backoff) from the plan's budget before the message is
//!   actually handed to the backend. Losses beyond the budget are
//!   unrecoverable and poison the collective.
//! * **Corrupt** — when any corruption fault is scripted, every data
//!   message is framed with an 8-byte SplitMix64 checksum header and
//!   acknowledged on a reserved control tag; a receiver that detects a
//!   flipped byte NAKs, the sender retries with backoff, and a
//!   corruption that outlives the budget poisons the collective.
//!
//! Unrecoverable faults never hang: the failing rank broadcasts a
//! fixed-size [`AbortInfo`] record on [`POISON_TAG`] (a reserved tag
//! both backends intercept), so every rank returns
//! [`CommError::Aborted`] naming the culprit, op, plan and step.
//!
//! Everything is deterministic given the plan's seed: fault sites are
//! indexed by per-rank operation counters (not wall-clock), corrupted
//! byte positions derive from `splitmix64(seed, op, attempt)`, and the
//! per-rank [`FaultEvent`] logs carry no timestamps — so the same plan
//! yields the same event stream on the threaded runtime and the mesh
//! simulator.
//!
//! The layer is strictly opt-in: production paths never construct a
//! `FaultyComm`, so disabled fault hooks cost nothing.

use crate::comm::{Comm, Tag};
use crate::error::{AbortCause, AbortInfo, CommError, Result};
use crate::rng::splitmix64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Reserved tag carrying coordinated-abort poison records. Sits just
/// under the runtime's farewell tag (`Tag::MAX`), far above every
/// tenant tag window, so it can never collide with data traffic.
pub const POISON_TAG: Tag = Tag::MAX - 1;

/// Tag bit marking checksum-verdict control messages. Data tags never
/// set it (plan tags use bit 62, tenant windows sit far below), so the
/// acknowledgement channel of a framed message is disjoint from all
/// data traffic.
pub const CTRL_TAG_BIT: Tag = 1 << 63;

/// The control tag acknowledging the framed data message sent on `tag`.
pub fn ack_tag(tag: Tag) -> Tag {
    tag | CTRL_TAG_BIT
}

/// The 8-byte SplitMix64 chain checksum framing prepends to payloads.
pub fn checksum(data: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (data.len() as u64);
    for chunk in data.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(w));
    }
    h
}

/// Bytes of the checksum header a framed message carries.
pub const FRAME_HEADER: usize = 8;

/// One scripted misbehaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep `micros` before transmitting (recoverable slowdown).
    Delay {
        /// Microseconds of injected latency.
        micros: u64,
    },
    /// The link loses the first `count` transmissions of the message;
    /// each loss consumes one retry from the plan's budget.
    Drop {
        /// Transmissions lost before one gets through.
        count: u32,
    },
    /// The link flips a byte in the first `count` transmissions; the
    /// receiver's checksum catches it and NAKs.
    Corrupt {
        /// Transmissions corrupted before a clean one gets through.
        count: u32,
    },
    /// The rank goes silent for `micros` before proceeding — scripted
    /// past the collective deadline, this is the unrecoverable
    /// straggler that peers must diagnose and abort on.
    Stall {
        /// Microseconds of silence.
        micros: u64,
    },
}

impl FaultKind {
    /// Stable lower-case name (used by traces and audit JSON).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Delay { .. } => "delay",
            FaultKind::Drop { .. } => "drop",
            FaultKind::Corrupt { .. } => "corrupt",
            FaultKind::Stall { .. } => "stall",
        }
    }
}

/// One fault site: fires when `rank`'s outbound-operation counter
/// reaches `nth` (1-based; sends and the send half of exchanges count)
/// and the destination matches `peer` (or `peer` is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The rank whose outbound operation misbehaves.
    pub rank: usize,
    /// Restrict to messages headed for this destination.
    pub peer: Option<usize>,
    /// The 1-based outbound-operation index the fault fires on.
    pub nth: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic, seeded script of faults plus the recovery policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for corrupted-byte positions (and anything else that needs
    /// reproducible randomness).
    pub seed: u64,
    /// The scripted fault sites.
    pub faults: Vec<Fault>,
    /// Retransmissions allowed per message before the sender declares
    /// the fault unrecoverable and poisons the collective.
    pub retry_budget: u32,
    /// First backoff sleep; attempt `k` sleeps `base << (k-1)`, capped.
    pub backoff_base_micros: u64,
}

impl FaultPlan {
    /// An empty plan (no faults) with the default recovery policy.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
            retry_budget: 3,
            backoff_base_micros: 50,
        }
    }

    /// Adds a fault site.
    pub fn with_fault(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Whether this plan requires checksum framing: any scripted
    /// corruption frames *every* data message (both sides of every
    /// link must agree on wire lengths statically).
    pub fn framed(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Corrupt { .. }))
    }
}

/// What a [`FaultEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A scripted fault fired.
    Injected(FaultKind),
    /// The sender retransmitted (attempt number, 1-based).
    Retry {
        /// The 1-based retransmission attempt.
        attempt: u32,
    },
    /// This rank's checksum verdict rejected an incoming frame (the
    /// receiver-side NAK that triggers the peer's retransmission).
    Nak,
    /// A bounded wait expired on this rank.
    Timeout,
    /// This rank initiated (or observed) the coordinated abort.
    Abort {
        /// Why the abort was declared.
        cause: AbortCause,
    },
}

impl FaultEventKind {
    /// Stable lower-case name (used by traces and audit JSON).
    pub fn name(&self) -> &'static str {
        match self {
            FaultEventKind::Injected(k) => k.name(),
            FaultEventKind::Retry { .. } => "retry",
            FaultEventKind::Nak => "nak",
            FaultEventKind::Timeout => "timeout",
            FaultEventKind::Abort { .. } => "abort",
        }
    }
}

/// One entry of a rank's fault log. Deliberately timestamp-free so the
/// same seed yields the same stream on both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What happened.
    pub kind: FaultEventKind,
    /// The rank logging the event.
    pub rank: usize,
    /// The peer involved, when the event concerns one message.
    pub peer: Option<usize>,
    /// The data tag involved.
    pub tag: Tag,
    /// The rank's outbound-operation index the event belongs to.
    pub op_index: u64,
}

/// Per-rank `(plan, step)` progress stamp (0 plan = outside a compiled
/// plan), mirrored from [`Comm::plan_step`] so the watchdog can
/// snapshot how far each rank got; once the collective has aborted, a
/// rank's stamp stays on the step its walk failed at.
struct Progress {
    plan: AtomicU64,
    step: AtomicU64,
}

/// The shared state of one fault-injected world: the plan, the abort
/// latch, per-rank operation counters, event logs and progress stamps.
/// One `Arc<FaultLayer>` is shared by every rank's [`FaultyComm`].
pub struct FaultLayer {
    plan: FaultPlan,
    framed: bool,
    /// Virtual-time backends (the mesh simulator) cannot let peers
    /// diagnose a wall-clock stall, so a scripted stall poisons
    /// immediately instead of sleeping.
    virtual_time: bool,
    aborted: AtomicBool,
    abort_info: Mutex<Option<AbortInfo>>,
    op_counters: Vec<AtomicU64>,
    logs: Vec<Mutex<Vec<FaultEvent>>>,
    progress: Vec<Progress>,
}

impl FaultLayer {
    /// A fresh layer for a world of `p` ranks running `plan`.
    pub fn new(plan: FaultPlan, p: usize) -> Arc<FaultLayer> {
        Self::build(plan, p, false)
    }

    /// Like [`FaultLayer::new`] but for virtual-time backends (the mesh
    /// simulator), where a scripted stall poisons immediately rather
    /// than sleeping wall-clock time no peer deadline can observe.
    pub fn new_virtual(plan: FaultPlan, p: usize) -> Arc<FaultLayer> {
        Self::build(plan, p, true)
    }

    fn build(plan: FaultPlan, p: usize, virtual_time: bool) -> Arc<FaultLayer> {
        let framed = plan.framed();
        Arc::new(FaultLayer {
            plan,
            framed,
            virtual_time,
            aborted: AtomicBool::new(false),
            abort_info: Mutex::new(None),
            op_counters: (0..p).map(|_| AtomicU64::new(0)).collect(),
            logs: (0..p).map(|_| Mutex::new(Vec::new())).collect(),
            progress: (0..p)
                .map(|_| Progress {
                    plan: AtomicU64::new(0),
                    step: AtomicU64::new(0),
                })
                .collect(),
        })
    }

    /// The plan this layer executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether data messages carry the checksum frame.
    pub fn framed(&self) -> bool {
        self.framed
    }

    /// The abort record, once any rank has poisoned the collective.
    pub fn aborted(&self) -> Option<AbortInfo> {
        if self.aborted.load(Ordering::Acquire) {
            *self.abort_info.lock().unwrap_or_else(|p| p.into_inner())
        } else {
            None
        }
    }

    /// One rank's fault log (in that rank's program order).
    pub fn events(&self, rank: usize) -> Vec<FaultEvent> {
        self.logs[rank]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Every rank's fault log.
    pub fn all_events(&self) -> Vec<Vec<FaultEvent>> {
        (0..self.logs.len()).map(|r| self.events(r)).collect()
    }

    /// Per-rank `(plan, step)` progress snapshot (plan 0 = the rank was
    /// outside any compiled plan when last observed; after an abort, a
    /// rank that failed inside a plan keeps the step it failed at).
    pub fn progress(&self) -> Vec<(u64, u64)> {
        self.progress
            .iter()
            .map(|p| {
                (
                    p.plan.load(Ordering::Acquire),
                    p.step.load(Ordering::Acquire),
                )
            })
            .collect()
    }

    fn next_op(&self, rank: usize) -> u64 {
        self.op_counters[rank].fetch_add(1, Ordering::AcqRel) + 1
    }

    fn fault_for(&self, rank: usize, op: u64, peer: usize) -> Option<FaultKind> {
        self.plan
            .faults
            .iter()
            .find(|f| f.rank == rank && f.nth == op && f.peer.map(|q| q == peer).unwrap_or(true))
            .map(|f| f.kind)
    }

    fn log_event(&self, ev: FaultEvent) {
        // The metrics layer sees every fault-path event as it happens
        // (one branch when disabled), so recovered runs are visible in
        // aggregate stats even when no tracer is attached.
        let metric = match ev.kind {
            FaultEventKind::Injected(_) => "intercom_fault_injected_total",
            FaultEventKind::Retry { .. } => "intercom_fault_retries_total",
            FaultEventKind::Nak => "intercom_fault_naks_total",
            FaultEventKind::Timeout => "intercom_fault_timeouts_total",
            FaultEventKind::Abort { .. } => "intercom_fault_aborts_total",
        };
        intercom_obs::metrics::counter_add(metric, &[("kind", ev.kind.name())], 1);
        self.logs[ev.rank]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(ev);
    }

    /// Latches the abort record (first writer wins) and returns the
    /// stored record, so every rank reports the same diagnosis.
    fn store_abort(&self, info: AbortInfo) -> AbortInfo {
        let mut slot = self.abort_info.lock().unwrap_or_else(|p| p.into_inner());
        let stored = *slot.get_or_insert(info);
        self.aborted.store(true, Ordering::Release);
        stored
    }

    fn set_progress(&self, rank: usize, plan: u64, step: u64) {
        self.progress[rank].plan.store(plan, Ordering::Release);
        self.progress[rank].step.store(step, Ordering::Release);
    }
}

/// A fault-injecting wrapper around any backend's [`Comm`]. Collective
/// algorithms run against it unmodified; the wrapper injects the
/// scripted faults, frames/verifies checksums, retries with backoff,
/// and turns unrecoverable faults into the coordinated abort.
pub struct FaultyComm<'a, C: Comm + ?Sized> {
    inner: &'a C,
    layer: Arc<FaultLayer>,
    rank: usize,
}

impl<'a, C: Comm + ?Sized> FaultyComm<'a, C> {
    /// Wraps `inner`, sharing the world's fault layer.
    pub fn new(inner: &'a C, layer: Arc<FaultLayer>) -> FaultyComm<'a, C> {
        let rank = inner.rank();
        FaultyComm { inner, layer, rank }
    }

    /// The shared layer (for reading logs/abort state after a run).
    pub fn layer(&self) -> &Arc<FaultLayer> {
        &self.layer
    }

    fn log(&self, kind: FaultEventKind, peer: usize, tag: Tag, op: u64) {
        self.layer.log_event(FaultEvent {
            kind,
            rank: self.rank,
            peer: Some(peer),
            tag,
            op_index: op,
        });
    }

    fn check_abort(&self) -> Result<()> {
        match self.layer.aborted() {
            Some(info) => Err(CommError::Aborted(info)),
            None => Ok(()),
        }
    }

    /// Maps an inner-transport failure: a bounded-wait timeout names
    /// the silent peer and initiates the abort; an abort observed from
    /// the backend is latched into the layer.
    fn after(&self, r: Result<()>, tag: Tag, op: u64) -> Result<()> {
        match r {
            Err(CommError::Timeout {
                from,
                tag: wtag,
                waited_ms,
            }) => {
                self.log(FaultEventKind::Timeout, from, tag, op);
                self.poison(from, AbortCause::Timeout, tag, op);
                Err(CommError::Timeout {
                    from,
                    tag: wtag,
                    waited_ms,
                })
            }
            Err(CommError::Aborted(info)) => {
                let stored = self.layer.store_abort(info);
                Err(CommError::Aborted(stored))
            }
            other => other,
        }
    }

    /// Declares the collective unrecoverable: latches the abort record,
    /// logs it, and broadcasts the poison so no peer hangs. Returns the
    /// error the caller should propagate.
    fn poison(&self, culprit: usize, cause: AbortCause, tag: Tag, op: u64) -> CommError {
        let (plan, step) = {
            let snap = self.layer.progress();
            snap[self.rank]
        };
        let info = self.layer.store_abort(AbortInfo {
            origin: self.rank,
            culprit,
            plan,
            step,
            cause,
        });
        self.layer.log_event(FaultEvent {
            kind: FaultEventKind::Abort { cause: info.cause },
            rank: self.rank,
            peer: None,
            tag,
            op_index: op,
        });
        let wire = info.encode();
        for r in 0..self.inner.size() {
            if r != self.rank {
                // Best-effort: a peer that already aborted (or a
                // backend already poisoned) rejects the send, which is
                // fine — the poison has landed.
                let _ = self.inner.send(r, POISON_TAG, &wire);
            }
        }
        CommError::Aborted(info)
    }

    fn backoff(&self, attempt: u32) {
        let base = self.layer.plan.backoff_base_micros;
        let micros = base.saturating_mul(1 << (attempt - 1).min(8)).min(10_000);
        if micros > 0 {
            std::thread::sleep(Duration::from_micros(micros));
        }
    }

    /// The byte position a corrupted transmission flips, derived from
    /// the plan seed so both the test and the wire agree.
    fn corrupt_pos(&self, op: u64, attempt: u32, len: usize) -> usize {
        let h = splitmix64(self.layer.plan.seed ^ (op << 8) ^ attempt as u64);
        (h % len as u64) as usize
    }

    /// Applies the send-side fault script for outbound op `op`, then
    /// performs the real (framed) transmission via `transmit`, which
    /// receives the number of corrupted transmissions to inject.
    fn faulted_op(
        &self,
        fault: Option<FaultKind>,
        to: usize,
        tag: Tag,
        op: u64,
        transmit: impl FnOnce(u32) -> Result<()>,
    ) -> Result<()> {
        let mut corrupt = 0u32;
        if let Some(kind) = fault {
            self.log(FaultEventKind::Injected(kind), to, tag, op);
            match kind {
                FaultKind::Delay { micros } => {
                    if !self.layer.virtual_time {
                        std::thread::sleep(Duration::from_micros(micros));
                    }
                }
                FaultKind::Stall { micros } => {
                    if self.layer.virtual_time {
                        // No peer deadline can observe a wall-clock
                        // stall in virtual time: declare it directly.
                        return Err(self.poison(self.rank, AbortCause::Stall, tag, op));
                    }
                    std::thread::sleep(Duration::from_micros(micros));
                    // Peers' bounded waits may have diagnosed us while
                    // we were silent.
                    self.check_abort()?;
                }
                FaultKind::Drop { count } => {
                    let budget = self.layer.plan.retry_budget;
                    let retries = count.min(budget);
                    for attempt in 1..=retries {
                        self.log(FaultEventKind::Retry { attempt }, to, tag, op);
                        self.backoff(attempt);
                    }
                    if count > budget {
                        // Every allowed retransmission was lost too.
                        return Err(self.poison(self.rank, AbortCause::DropBudget, tag, op));
                    }
                }
                FaultKind::Corrupt { count } => corrupt = count,
            }
        }
        transmit(corrupt)
    }

    /// One transfer, framed when the plan scripts corruption: a send
    /// half to `to` and/or a receive half from `from`, under one tag.
    /// A framed data round sends `[checksum | payload]` (its first
    /// `corrupt` attempts with a flipped byte) and checks what arrives;
    /// the verdict round runs *reversed* (my verdict about the incoming
    /// half goes to `from`, the peer's about my outgoing half comes from
    /// `to`), so its waits pair up exactly like the data waits and
    /// inherit their deadlock-freedom. A NAK'd send retries with backoff
    /// against the budget; a receiver NAKs without bound — the sender's
    /// budget decides when to give up, and its poison wakes the receiver.
    fn framed(
        &self,
        send: Option<(usize, &[u8])>,
        recv: Option<(usize, &mut [u8])>,
        tag: Tag,
        op: u64,
        corrupt: u32,
    ) -> Result<()> {
        if !self.layer.framed {
            debug_assert_eq!(corrupt, 0, "corruption faults require framing");
            return self.after(self.transfer(send, recv, tag), tag, op);
        }
        let mut need_send = send.is_some();
        let mut need_recv = recv.is_some();
        let (to, data) = send.unwrap_or((0, &[]));
        let mut swire = frame(data);
        let (from, buf) = recv.unwrap_or((0, &mut []));
        let mut rwire = vec![0u8; buf.len() + FRAME_HEADER];
        let budget = self.layer.plan.retry_budget;
        let mut attempt = 0u32;
        loop {
            let flip = (need_send && attempt < corrupt).then(|| {
                let pos = FRAME_HEADER + self.corrupt_pos(op, attempt, data.len().max(1));
                pos.min(swire.len() - 1)
            });
            if let Some(pos) = flip {
                swire[pos] ^= 0xA5;
            }
            let data_round = self.transfer(
                need_send.then_some((to, &swire[..])),
                need_recv.then_some((from, &mut rwire[..])),
                tag,
            );
            self.after(data_round, tag, op)?;
            if let Some(pos) = flip {
                swire[pos] ^= 0xA5;
            }
            let my_verdict = !need_recv || verify(&rwire);
            let mut peer_verdict = [1u8; 1];
            let verdict_round = self.transfer(
                need_recv.then_some((from, &[my_verdict as u8][..])),
                need_send.then_some((to, &mut peer_verdict[..])),
                ack_tag(tag),
            );
            self.after(verdict_round, tag, op)?;
            if need_recv {
                if my_verdict {
                    buf.copy_from_slice(&rwire[FRAME_HEADER..]);
                    need_recv = false;
                } else {
                    self.log(FaultEventKind::Nak, from, tag, op);
                }
            }
            if need_send && peer_verdict[0] == 1 {
                need_send = false;
            }
            if !need_send && !need_recv {
                return Ok(());
            }
            if need_send {
                attempt += 1;
                if attempt > budget {
                    return Err(self.poison(self.rank, AbortCause::CorruptBudget, tag, op));
                }
                self.log(FaultEventKind::Retry { attempt }, to, tag, op);
                self.backoff(attempt);
            }
        }
    }

    /// The inner backend's call for the halves present.
    fn transfer(
        &self,
        send: Option<(usize, &[u8])>,
        recv: Option<(usize, &mut [u8])>,
        tag: Tag,
    ) -> Result<()> {
        match (send, recv) {
            (Some((to, data)), Some((from, buf))) => self.inner.sendrecv(to, data, from, buf, tag),
            (Some((to, data)), None) => self.inner.send(to, tag, data),
            (None, Some((from, buf))) => self.inner.recv(from, tag, buf),
            (None, None) => Ok(()),
        }
    }
}

/// `[checksum | payload]` wire form of a framed message.
fn frame(data: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(data.len() + FRAME_HEADER);
    wire.extend_from_slice(&checksum(data).to_le_bytes());
    wire.extend_from_slice(data);
    wire
}

/// Whether a framed wire message's checksum matches its payload.
fn verify(wire: &[u8]) -> bool {
    if wire.len() < FRAME_HEADER {
        return false;
    }
    let header = u64::from_le_bytes(wire[..FRAME_HEADER].try_into().unwrap());
    header == checksum(&wire[FRAME_HEADER..])
}

impl<C: Comm + ?Sized> Comm for FaultyComm<'_, C> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.check_abort()?;
        let op = self.layer.next_op(self.rank);
        let fault = self.layer.fault_for(self.rank, op, to);
        self.faulted_op(fault, to, tag, op, |corrupt| {
            self.framed(Some((to, data)), None, tag, op, corrupt)
        })
    }

    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> Result<()> {
        self.check_abort()?;
        let op = self.layer.op_counters[self.rank].load(Ordering::Acquire);
        self.framed(None, Some((from, buf)), tag, op, 0)
    }

    fn sendrecv(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
    ) -> Result<()> {
        self.check_abort()?;
        let op = self.layer.next_op(self.rank);
        let fault = self.layer.fault_for(self.rank, op, to);
        self.faulted_op(fault, to, tag, op, |corrupt| {
            self.framed(Some((to, data)), Some((from, buf)), tag, op, corrupt)
        })
    }

    fn compute(&self, bytes: usize) {
        self.inner.compute(bytes);
    }

    fn call_overhead(&self) {
        self.inner.call_overhead();
    }

    fn local_copy(&self, src: &[u8], dst: &[u8]) {
        self.inner.local_copy(src, dst);
    }

    fn local_permute(&self, region: &[u8], held: &[u8], radices: &[usize]) {
        self.inner.local_permute(region, held, radices);
    }

    fn local_reduce(&self, acc: &[u8], other: &[u8]) {
        self.inner.local_reduce(acc, other);
    }

    fn plan_step(&self, plan: u64, step: u64) {
        // A walk that ends under an abort keeps the step it failed at:
        // its closing `(0, 0)` would erase what the rank's
        // `CollectiveError` reports.
        if plan != 0 || !self.layer.aborted.load(Ordering::Acquire) {
            self.layer.set_progress(self.rank, plan, step);
        }
        self.inner.plan_step(plan, step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_catches_single_byte_flips() {
        let data = vec![7u8; 97];
        let mut wire = frame(&data);
        assert!(verify(&wire));
        for pos in [FRAME_HEADER, FRAME_HEADER + 50, wire.len() - 1, 0, 7] {
            wire[pos] ^= 0xA5;
            assert!(!verify(&wire), "flip at {pos} went undetected");
            wire[pos] ^= 0xA5;
        }
        assert!(verify(&wire));
    }

    #[test]
    fn empty_payload_frames_and_verifies() {
        let wire = frame(&[]);
        assert_eq!(wire.len(), FRAME_HEADER);
        assert!(verify(&wire));
        assert!(!verify(&wire[..4]));
    }

    #[test]
    fn fault_sites_match_rank_op_and_peer() {
        let plan = FaultPlan::new(1)
            .with_fault(Fault {
                rank: 2,
                peer: None,
                nth: 3,
                kind: FaultKind::Drop { count: 1 },
            })
            .with_fault(Fault {
                rank: 0,
                peer: Some(1),
                nth: 1,
                kind: FaultKind::Delay { micros: 5 },
            });
        let layer = FaultLayer::new(plan, 4);
        assert_eq!(layer.fault_for(2, 3, 0), Some(FaultKind::Drop { count: 1 }));
        assert_eq!(layer.fault_for(2, 2, 0), None);
        assert_eq!(layer.fault_for(1, 3, 0), None);
        assert_eq!(
            layer.fault_for(0, 1, 1),
            Some(FaultKind::Delay { micros: 5 })
        );
        assert_eq!(layer.fault_for(0, 1, 2), None, "peer filter must hold");
    }

    #[test]
    fn corruption_anywhere_forces_framing() {
        let plain = FaultPlan::new(0).with_fault(Fault {
            rank: 0,
            peer: None,
            nth: 1,
            kind: FaultKind::Drop { count: 2 },
        });
        assert!(!plain.framed());
        let corrupt = plain.with_fault(Fault {
            rank: 1,
            peer: None,
            nth: 4,
            kind: FaultKind::Corrupt { count: 1 },
        });
        assert!(corrupt.framed());
    }

    #[test]
    fn abort_latch_is_first_writer_wins() {
        let layer = FaultLayer::new(FaultPlan::new(0), 2);
        assert_eq!(layer.aborted(), None);
        let a = AbortInfo {
            origin: 0,
            culprit: 0,
            plan: 1,
            step: 2,
            cause: AbortCause::DropBudget,
        };
        let b = AbortInfo {
            origin: 1,
            culprit: 1,
            plan: 3,
            step: 4,
            cause: AbortCause::Stall,
        };
        assert_eq!(layer.store_abort(a), a);
        assert_eq!(layer.store_abort(b), a, "second abort must not overwrite");
        assert_eq!(layer.aborted(), Some(a));
    }

    #[test]
    fn control_tags_stay_clear_of_data_and_reserved_tags() {
        let data_tag: Tag = (1 << 62) | 0xFFFF; // plan-tag bit + offset
        assert_ne!(ack_tag(data_tag), data_tag);
        assert_ne!(ack_tag(data_tag), POISON_TAG);
        assert_ne!(ack_tag(data_tag), Tag::MAX); // FAREWELL
        assert_eq!(ack_tag(data_tag) & !CTRL_TAG_BIT, data_tag);
    }
}
