//! The unified trace-event schema shared by the threaded runtime and
//! the mesh simulator.
//!
//! One [`TraceEvent`] describes one timed occurrence on one rank's
//! timeline: an eager or rendezvous message (send / recv / combined
//! sendrecv) or a reduction step. The simulator emits one `Send` event
//! per completed *transfer* (on the source rank's timeline, with the
//! physical hop count filled in); the threaded runtime emits one event
//! per *endpoint operation* (a message appears once on the sender's and
//! once on the receiver's timeline).
//!
//! Timestamps are fractional seconds relative to the run's epoch —
//! monotonic wall clock for the runtime, virtual time for the simulator
//! — so both backends export to the same timeline formats and fold
//! against the same cost model.

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An outgoing message (or a completed simulator transfer).
    Send,
    /// An incoming message.
    Recv,
    /// One half of a simultaneous send-receive (§2: "a processor can
    /// both send and receive at the same time"). The send half has
    /// `src == rank`, the receive half `dst == rank`.
    SendRecv,
    /// A local reduction step (the γ term): `bytes` folded element-wise.
    Reduce,
    /// A scripted fault fired on this rank (fault-injection runs only).
    FaultInjected,
    /// The fault layer retransmitted a message (attempt count rides in
    /// `bytes`).
    Retry,
    /// A checksum verdict rejected an incoming frame (receiver-side
    /// NAK; `src` names the sender being refused).
    Nak,
    /// A bounded wait expired; `src` names the silent peer.
    Timeout,
    /// The coordinated abort reached this rank.
    Abort,
}

impl EventKind {
    /// Short lowercase name, e.g. `"send"`.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::SendRecv => "sendrecv",
            EventKind::Reduce => "reduce",
            EventKind::FaultInjected => "fault",
            EventKind::Retry => "retry",
            EventKind::Nak => "nak",
            EventKind::Timeout => "timeout",
            EventKind::Abort => "abort",
        }
    }

    /// Whether the event moves bytes across the network (fault and
    /// reduction markers do not; the residual analyzer folds only
    /// communication events against the cost model).
    pub fn is_comm(&self) -> bool {
        matches!(
            self,
            EventKind::Send | EventKind::Recv | EventKind::SendRecv
        )
    }
}

/// One timed event on one rank's timeline (see the module docs for the
/// backend-specific conventions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: EventKind,
    /// World rank whose timeline the event belongs to.
    pub rank: usize,
    /// Sending world rank (`== rank` for sends; the peer for receives).
    pub src: usize,
    /// Receiving world rank (`== rank` for receives; the peer for sends).
    pub dst: usize,
    /// Message tag (encodes the recursion level and stage, see
    /// [`stage_of`]). 0 for reduction steps.
    pub tag: u64,
    /// Payload size in bytes (bytes folded, for reduction steps).
    pub bytes: usize,
    /// Start time in seconds since the run's epoch.
    pub start: f64,
    /// End time in seconds since the run's epoch.
    pub end: f64,
    /// Physical route length in links (simulator only; 0 on the
    /// threaded runtime, which has no physical topology).
    pub hops: usize,
    /// The compiled plan (`intercom::ir` plan id) whose program walk
    /// issued this event, or 0 for ad-hoc (uncompiled) calls.
    pub plan: u64,
    /// Zero-based step index within the issuing plan's per-rank step
    /// list. Meaningful only when `plan != 0`.
    pub step: u64,
}

impl TraceEvent {
    /// A completed simulator transfer: a `Send` on `src`'s timeline.
    pub fn transfer(
        src: usize,
        dst: usize,
        tag: u64,
        bytes: usize,
        start: f64,
        end: f64,
        hops: usize,
    ) -> Self {
        TraceEvent {
            kind: EventKind::Send,
            rank: src,
            src,
            dst,
            tag,
            bytes,
            start,
            end,
            hops,
            plan: 0,
            step: 0,
        }
    }

    /// Attributes the event to a compiled plan's step (builder style, for
    /// backends that learn the attribution after construction).
    pub fn with_plan(mut self, plan: u64, step: u64) -> Self {
        self.plan = plan;
        self.step = step;
        self
    }

    /// Event duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The pipeline stage this event belongs to, derived from its tag.
    pub fn stage(&self) -> Stage {
        stage_of(self.tag)
    }
}

/// Tag stride reserved per recursion level of one collective call;
/// stages within one level use offsets `0..LEVEL_TAG_STRIDE`. With a
/// base tag of 0, every event's recursion level is therefore
/// `tag / LEVEL_TAG_STRIDE` — the invariant the `intercom-verify`
/// schedule checker uses to attribute link traffic to §6 stages.
/// Defined here, the lowest crate that decodes tags; `intercom`
/// re-exports it as `intercom::algorithms::LEVEL_TAG_STRIDE`.
pub const LEVEL_TAG_STRIDE: u64 = 8;

/// Tag stride between successive collective calls on one communicator,
/// comfortably larger than any recursion's internal stage offsets.
///
/// This is also the granularity of the multi-tenant tag-space contract:
/// a communicator's `k`-th call uses absolute tags
/// `base + k·CALL_TAG_STRIDE + off` with every stage offset
/// `off < CALL_TAG_STRIDE`, so two communicators sharing one physical
/// fabric are isolated for *any* number of calls iff their tag bases
/// (and stage offsets) are disjoint **mod `CALL_TAG_STRIDE`** — the
/// residue arithmetic `intercom_verify::concurrent` checks statically.
/// `intercom` re-exports it as `intercom::CALL_TAG_STRIDE`.
pub const CALL_TAG_STRIDE: u64 = 1 << 20;

/// A pipeline stage of one collective call: the recursion `level`
/// (logical dimension index, fastest first) and the `sub`-stage slot
/// within it (0 = scatter / reduce-scatter / innermost primary,
/// 1 = collect / gather / innermost secondary).
///
/// Matches `intercom-cost`'s `StagePrediction { level, sub, .. }`
/// coordinates, so measured stages fold directly onto predicted ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stage {
    /// Recursion level (logical dimension index).
    pub level: u64,
    /// Stage slot within the level.
    pub sub: u64,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}.{}", self.level, self.sub)
    }
}

/// Derives the pipeline stage from a message tag. Works for bare tags
/// (base 0, as the verifier extracts), communicator call tags (any
/// multiple of [`CALL_TAG_STRIDE`] as base) and plan tags (bit 62 set):
/// the in-call offset is `tag % CALL_TAG_STRIDE` because every base is a
/// multiple of the stride.
pub fn stage_of(tag: u64) -> Stage {
    let offset = tag % CALL_TAG_STRIDE;
    Stage {
        level: offset / LEVEL_TAG_STRIDE,
        sub: offset % LEVEL_TAG_STRIDE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_of_strips_call_and_plan_bases() {
        assert_eq!(stage_of(0), Stage { level: 0, sub: 0 });
        assert_eq!(stage_of(17), Stage { level: 2, sub: 1 });
        let call_base = 5 * CALL_TAG_STRIDE;
        assert_eq!(stage_of(call_base + 9), Stage { level: 1, sub: 1 });
        let plan_base = (1u64 << 62) | (3 * CALL_TAG_STRIDE);
        assert_eq!(stage_of(plan_base + 8), Stage { level: 1, sub: 0 });
    }

    #[test]
    fn transfer_constructor_is_a_send_on_src() {
        let e = TraceEvent::transfer(2, 5, 9, 128, 1.0, 2.5, 3);
        assert_eq!(e.kind, EventKind::Send);
        assert_eq!(e.rank, 2);
        assert_eq!((e.src, e.dst, e.hops), (2, 5, 3));
        assert!((e.duration() - 1.5).abs() < 1e-12);
        assert_eq!(e.stage(), Stage { level: 1, sub: 1 });
    }
}
