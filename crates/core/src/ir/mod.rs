//! The shared schedule IR: collectives compiled to explicit per-rank
//! step programs.
//!
//! Every collective in this library branches only on
//! `(rank, size, n, strategy, root)` — never on received *values* — so a
//! single symbolic replay per rank (against
//! [`RecordingComm`](crate::trace::RecordingComm)) captures the complete
//! schedule a call would execute. This module lowers that replay into a
//! [`CollectiveProgram`]: one artifact consumed by every layer of the
//! stack instead of four independent re-derivations of the same
//! schedule —
//!
//! * the threaded runtime and the mesh simulator *execute* it: [`execute`]
//!   binds it to the call's buffers as a [`BoundProgram`] and hands it to
//!   `Comm::run_program`, whose default walks it step by step through
//!   any backend's calls, and which the simulator overrides to have its
//!   engine walk the program in one request,
//! * `intercom-verify` checks its static safety properties directly
//!   (deadlock-freedom, single-port, link conflicts, buffer safety), and
//! * `intercom-obs` attributes trace events to `(plan, step)` via the
//!   [`Comm::plan_step`](crate::comm::Comm::plan_step) hook, or the
//!   stamp a program-running backend puts on each transfer.
//!
//! Programs are cached in a process-wide [`PlanCache`] keyed by
//! `(op, p, n, element size, strategy)` — the same observation behind the
//! paper's tables: the chosen schedule depends only on the operation,
//! the group shape and the message length, so iterative applications
//! (§9's mesh row/column workloads) compile once and replay every
//! iteration.
//!
//! # Buffer model
//!
//! A step addresses memory through [`Loc`]: a byte range within either a
//! caller-visible argument buffer ([`Buf::Arg`], indexed per
//! [`PlanOp::args`]) or the rank's private scratch arena
//! ([`Buf::Scratch`]), sized by [`RankProgram::scratch_bytes`]. Lowering
//! resolves the raw addresses observed during replay: spans inside a
//! registered argument become `Arg` offsets, and the remaining
//! temporaries are clustered by overlap and packed into the arena — so
//! an executing rank needs exactly its arguments plus one reusable
//! scratch allocation, and repeated executions allocate nothing.
//!
//! A temporary that only lands a message for the fold right after it
//! is not in the arena at all: lowering fuses the receive and the fold
//! into one [`StepKind::RecvReduce`] / [`StepKind::SendRecvReduce`],
//! which a backend folds straight out of the sender's bytes where it
//! can, and otherwise lands in the arena's tail
//! ([`RankProgram::landing_bytes`]).

mod bound;
mod cache;
mod direct;
mod exec;
mod lower;
mod opt;

pub use bound::{BoundProgram, Fold, StepAction};
pub use cache::{global_cache, CacheStats, PlanCache, PlanKey, DEFAULT_CACHE_CAPACITY};
pub use direct::{run_direct, run_filled, OwnedArgs};
pub use exec::{execute, ArgBuf};
pub use lower::{lower, lower_hier};
pub use opt::{optimize, OptLevel, OptStats};

use intercom_cost::{CollectiveOp, HierStrategy, Strategy};
use intercom_obs::MetricKey;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Which collective a program implements, together with the call
/// parameters that shape the schedule (root, segment count). The size
/// parameter `n` lives on [`CollectiveProgram`]; its unit follows each
/// collective's natural convention (see [`PlanOp::args`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanOp {
    /// Broadcast of `n` elements from `root` (§5 composed algorithm).
    Broadcast {
        /// Logical root rank.
        root: usize,
    },
    /// Combine-to-one of `n` elements to `root`.
    Reduce {
        /// Logical root rank.
        root: usize,
    },
    /// Combine-to-all of `n` elements.
    AllReduce,
    /// Distributed combine: `p·n` contributed, `n` kept per member.
    ReduceScatter,
    /// Collect (allgather): `n` contributed, `p·n` gathered per member.
    Collect,
    /// Scatter of `n`-element blocks from `root` (strategy-free, §4.2).
    Scatter {
        /// Logical root rank.
        root: usize,
    },
    /// Gather of `n`-element blocks to `root` (strategy-free, §4.2).
    Gather {
        /// Logical root rank.
        root: usize,
    },
    /// Total exchange of `n`-element blocks (extension).
    Alltoall,
    /// Pipelined ring broadcast of `n` elements in `segments` segments
    /// (§8).
    PipelinedBcast {
        /// Logical root rank.
        root: usize,
        /// Segment count (`m ≥ 1`).
        segments: usize,
    },
}

/// The cost-model operation a [`PlanOp`] corresponds to, if the model
/// covers it (total exchange and the pipelined broadcast are extensions
/// outside the paper's Table 1 stage formulas).
pub fn cost_op(op: PlanOp) -> Option<CollectiveOp> {
    match op {
        PlanOp::Broadcast { .. } => Some(CollectiveOp::Broadcast),
        PlanOp::Reduce { .. } => Some(CollectiveOp::CombineToOne),
        PlanOp::AllReduce => Some(CollectiveOp::CombineToAll),
        PlanOp::ReduceScatter => Some(CollectiveOp::DistributedCombine),
        PlanOp::Collect => Some(CollectiveOp::Collect),
        PlanOp::Scatter { .. } => Some(CollectiveOp::Scatter),
        PlanOp::Gather { .. } => Some(CollectiveOp::Gather),
        PlanOp::Alltoall | PlanOp::PipelinedBcast { .. } => None,
    }
}

/// How a program touches one argument buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgDir {
    /// Read only (contributions).
    In,
    /// Written; may also be read as workspace (results, inout vectors).
    Out,
}

/// Shape of one argument buffer slot of a [`PlanOp`].
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// Buffer name as used throughout the docs (`"buf"`, `"all"`, …).
    pub name: &'static str,
    /// Element count for a program over `(p, n)`.
    pub elems: usize,
    /// `Some(rank)` if only that rank binds this buffer (scatter/gather
    /// root buffers); everyone else passes [`ArgBuf::Absent`].
    pub only_rank: Option<usize>,
    /// Data direction.
    pub dir: ArgDir,
}

impl PlanOp {
    /// Short collective name, e.g. `"broadcast"`.
    pub fn name(&self) -> &'static str {
        match self {
            PlanOp::Broadcast { .. } => "broadcast",
            PlanOp::Reduce { .. } => "reduce",
            PlanOp::AllReduce => "allreduce",
            PlanOp::ReduceScatter => "reduce_scatter",
            PlanOp::Collect => "collect",
            PlanOp::Scatter { .. } => "scatter",
            PlanOp::Gather { .. } => "gather",
            PlanOp::Alltoall => "alltoall",
            PlanOp::PipelinedBcast { .. } => "pipelined_bcast",
        }
    }

    /// Whether this collective lowers under a hybrid [`Strategy`].
    pub fn takes_strategy(&self) -> bool {
        matches!(
            self,
            PlanOp::Broadcast { .. }
                | PlanOp::Reduce { .. }
                | PlanOp::AllReduce
                | PlanOp::ReduceScatter
                | PlanOp::Collect
        )
    }

    /// Whether executing this collective needs a [`crate::ReduceOp`]
    /// (the program itself is operator-agnostic: the ⊕ is supplied at
    /// execution time).
    pub fn combines(&self) -> bool {
        matches!(
            self,
            PlanOp::Reduce { .. } | PlanOp::AllReduce | PlanOp::ReduceScatter
        )
    }

    /// The argument buffer slots of a program over `p` ranks with size
    /// parameter `n`, in binding order. `n` is the *total vector length*
    /// for broadcast, combine-to-one, combine-to-all and the pipelined
    /// broadcast, and the *per-member block length* for the rest.
    pub fn args(&self, p: usize, n: usize) -> Vec<ArgSpec> {
        let (slots, count) = self.slots(p, n);
        slots[..count].to_vec()
    }

    /// [`PlanOp::args`] without the vector, for a check on every
    /// execution: the slots (the first `count` of them) and `count`.
    pub(crate) fn slots(&self, p: usize, n: usize) -> ([ArgSpec; 2], usize) {
        let spec = |name, elems, only_rank, dir| ArgSpec {
            name,
            elems,
            only_rank,
            dir,
        };
        let pair = |a, b| ([a, b], 2);
        match *self {
            PlanOp::Broadcast { .. }
            | PlanOp::PipelinedBcast { .. }
            | PlanOp::Reduce { .. }
            | PlanOp::AllReduce => {
                let buf = spec("buf", n, None, ArgDir::Out);
                ([buf, buf], 1)
            }
            PlanOp::ReduceScatter => pair(
                spec("contrib", p * n, None, ArgDir::In),
                spec("mine", n, None, ArgDir::Out),
            ),
            PlanOp::Collect => pair(
                spec("mine", n, None, ArgDir::In),
                spec("all", p * n, None, ArgDir::Out),
            ),
            PlanOp::Scatter { root } => pair(
                spec("full", p * n, Some(root), ArgDir::In),
                spec("mine", n, None, ArgDir::Out),
            ),
            PlanOp::Gather { root } => pair(
                spec("mine", n, None, ArgDir::In),
                spec("full", p * n, Some(root), ArgDir::Out),
            ),
            PlanOp::Alltoall => pair(
                spec("send", p * n, None, ArgDir::In),
                spec("recv", p * n, None, ArgDir::Out),
            ),
        }
    }

    /// The byte length the cost model prices for a call over `p` ranks
    /// with size parameter `n` (unit per [`PlanOp::args`]): always the
    /// collective's *total* vector, so `p · n` elements for the
    /// block-wise ops.
    pub fn cost_bytes(&self, p: usize, n: usize, elem_size: usize) -> usize {
        let elems = match self {
            PlanOp::Broadcast { .. }
            | PlanOp::Reduce { .. }
            | PlanOp::AllReduce
            | PlanOp::PipelinedBcast { .. } => n,
            PlanOp::ReduceScatter
            | PlanOp::Collect
            | PlanOp::Scatter { .. }
            | PlanOp::Gather { .. }
            | PlanOp::Alltoall => p * n,
        };
        elems * elem_size
    }
}

impl std::fmt::Display for PlanOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PlanOp::Broadcast { root }
            | PlanOp::Reduce { root }
            | PlanOp::Scatter { root }
            | PlanOp::Gather { root } => write!(f, "{}(root={root})", self.name()),
            PlanOp::PipelinedBcast { root, segments } => {
                write!(f, "{}(root={root}, m={segments})", self.name())
            }
            _ => f.write_str(self.name()),
        }
    }
}

/// Which buffer a [`Loc`] addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buf {
    /// Caller argument slot `i` of [`PlanOp::args`].
    Arg(u8),
    /// The rank's private scratch arena.
    Scratch,
}

/// A byte range within one buffer: the IR's explicit buffer-region
/// operand. Offsets and lengths are in bytes and always multiples of the
/// program's element size.
///
/// Ten bytes, at 2-byte alignment: the two exchange steps
/// ([`StepKind::SendRecv`], [`StepKind::SendRecvReduce`]) hold two each
/// and still leave their enum a byte for its tag within 32. (Read the
/// fields by value; a reference to one would be unaligned.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(2))]
pub struct Loc {
    /// Addressed buffer.
    pub buf: Buf,
    /// Byte offset within the buffer.
    pub off: u32,
    /// Byte length.
    pub len: u32,
}

impl Loc {
    /// The addressed bytes as a range of the buffer.
    pub fn bytes(&self) -> Range<usize> {
        let off = self.off as usize;
        off..off + self.len as usize
    }
}

/// Where a region of a [`StepKind::SendRecvCombine`] starts: a [`Loc`]
/// without its length, which the step's three regions share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(2))]
pub struct At {
    /// Addressed buffer.
    pub buf: Buf,
    /// Byte offset within the buffer.
    pub off: u32,
}

impl At {
    /// The region `len` bytes long from here.
    pub fn with_len(self, len: u32) -> Loc {
        Loc {
            buf: self.buf,
            off: self.off,
            len,
        }
    }
}

impl From<Loc> for At {
    fn from(loc: Loc) -> Self {
        At {
            buf: loc.buf,
            off: loc.off,
        }
    }
}

/// One schedule action of one rank. Peers are logical ranks of the
/// program's group; tag offsets are added to the execution's base tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Blocking send of `src` to logical rank `to`.
    Send {
        /// Destination logical rank.
        to: u16,
        /// Tag offset from the execution's base tag.
        tag_off: u32,
        /// Bytes read.
        src: Loc,
    },
    /// Blocking receive into `dst` from logical rank `from`.
    Recv {
        /// Source logical rank.
        from: u16,
        /// Tag offset from the execution's base tag.
        tag_off: u32,
        /// Bytes written.
        dst: Loc,
    },
    /// Concurrent send-to / receive-from (possibly different peers).
    SendRecv {
        /// Destination logical rank of the send half.
        to: u16,
        /// Bytes read by the send half.
        src: Loc,
        /// Source logical rank of the receive half.
        from: u16,
        /// Bytes written by the receive half.
        dst: Loc,
        /// Tag offset of both halves: tags encode stages, and an
        /// exchange's halves always belong to one stage.
        tag_off: u32,
    },
    /// Blocking receive from logical rank `from` whose message is only
    /// folded into `acc` (`acc ⊕= message`) and is dead after: a
    /// [`StepKind::Recv`] into a temporary and the [`StepKind::Reduce`]
    /// out of it, fused. It names no landing: a backend that cannot fold
    /// out of the sender's bytes lands them in the arena's tail,
    /// [`RankProgram::landing_bytes`] long.
    RecvReduce {
        /// Source logical rank.
        from: u16,
        /// Tag offset from the execution's base tag.
        tag_off: u32,
        /// Accumulator bytes (read and written), as long as the message.
        acc: Loc,
    },
    /// A [`StepKind::SendRecv`] whose receive half is a
    /// [`StepKind::RecvReduce`]. `acc` is disjoint from `src`: the two
    /// halves may complete at different times, and a fold into bytes
    /// the send half has yet to ship would ship the fold.
    SendRecvReduce {
        /// Destination logical rank of the send half.
        to: u16,
        /// Bytes read by the send half.
        src: Loc,
        /// Source logical rank of the receive half.
        from: u16,
        /// Accumulator of the receive half (read and written).
        acc: Loc,
        /// Tag offset of both halves.
        tag_off: u32,
    },
    /// A [`StepKind::SendRecv`] whose arrival is combined with a third
    /// region on its way in: `dst = message ⊕ other`, `dst`'s contents
    /// ignored — the receive and the fold out of it that the in-place
    /// ring distributed combine makes of every hop, fused. The three
    /// regions are `len` bytes each (a [`Loc`] apiece would not fit 32
    /// bytes); `dst` shares no byte with `src` or `other`. A backend
    /// that lends the sender's bytes combines out of them in one pass;
    /// one that cannot lands the message in `dst` and folds `other`
    /// into it.
    SendRecvCombine {
        /// Destination logical rank of the send half.
        to: u16,
        /// Source logical rank of the receive half.
        from: u16,
        /// Bytes read by the send half.
        src: At,
        /// Bytes written with the combined message.
        dst: At,
        /// Bytes combined with the message (read).
        other: At,
        /// The length of each region.
        len: u32,
        /// Tag offset of both halves.
        tag_off: u32,
    },
    /// Local copy of `src` into `dst` (block permutes, root staging,
    /// own-block moves).
    Copy {
        /// Bytes read.
        src: Loc,
        /// Bytes written.
        dst: Loc,
    },
    /// A collect's block un-permutation, in place: block `q` of
    /// `region` moves from slot `slot_of(radices, q)` to position `q`,
    /// one block at a time held in `held` — one block of the arena,
    /// disjoint from `region`. The step reads and writes `region` and
    /// clobbers `held`; `region` is `held.len` times the product of the
    /// radices.
    Permute {
        /// Bytes permuted (read and written).
        region: Loc,
        /// The held block (written, then read back).
        held: Loc,
        /// Index of the radices in [`CollectiveProgram::radices`].
        radices: u16,
    },
    /// Local fold of `other` into `acc` under the execution's ⊕.
    Reduce {
        /// Accumulator bytes (read and written).
        acc: Loc,
        /// Contribution bytes (read).
        other: Loc,
    },
    /// γ-accounting: local combine work over `bytes` bytes.
    Compute {
        /// Combined byte count.
        bytes: u32,
    },
    /// δ-accounting: one level of short-vector recursion overhead.
    CallOverhead,
}

impl StepKind {
    /// The tag offset of a send, receive or exchange; `None` for a
    /// local step. It names the transfer's stage: recursion level
    /// `tag_off / LEVEL_TAG_STRIDE`, stage `tag_off % LEVEL_TAG_STRIDE`
    /// within it.
    pub fn tag_off(&self) -> Option<u32> {
        match *self {
            StepKind::Send { tag_off, .. }
            | StepKind::Recv { tag_off, .. }
            | StepKind::SendRecv { tag_off, .. }
            | StepKind::RecvReduce { tag_off, .. }
            | StepKind::SendRecvReduce { tag_off, .. }
            | StepKind::SendRecvCombine { tag_off, .. } => Some(tag_off),
            _ => None,
        }
    }

    /// A send, receive or exchange: a step that waits on a peer.
    pub fn is_transfer(&self) -> bool {
        self.tag_off().is_some()
    }

    /// The accumulator of a fused receive ([`StepKind::RecvReduce`],
    /// [`StepKind::SendRecvReduce`]); `None` for every other step.
    pub fn folds_into(&self) -> Option<Loc> {
        match *self {
            StepKind::RecvReduce { acc, .. } | StepKind::SendRecvReduce { acc, .. } => Some(acc),
            _ => None,
        }
    }
}

/// The landing a rank's fused receives need: their longest accumulator.
pub(crate) fn landing_of(steps: &[Step]) -> usize {
    let fused = steps.iter().filter_map(|s| s.kind.folds_into());
    fused.map(|acc| acc.len as usize).max().unwrap_or(0)
}

/// One step of a rank's program.
///
/// Compact, because programs are kept: the plan cache holds every
/// shape a process has called. Offsets, lengths and tags are `u32`,
/// peers `u16` and argument slots `u8`, and the stage is not stored (a
/// transfer's tag offset names it, [`StepKind::tag_off`]); lowering
/// errs with [`PlanMismatch`](crate::CommError::PlanMismatch) where a
/// value does not fit, and [`fits_steps`] tells a caller beforehand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The action.
    pub kind: StepKind,
}

const _: () = assert!(std::mem::size_of::<Step>() <= 32);

/// How many times a call's largest argument [`fits_steps`] leaves room
/// for in the scratch arena: twice the largest ratio lowering produces
/// over the schedule audit's battery (3.25, a hierarchical
/// reduce-scatter; pinned in `lower`'s tests).
pub(crate) const ARENA_HEADROOM: usize = 8;

/// Whether a call of `op` over `p` ranks with size parameter `n` lowers
/// into [`Step`]s: every peer fits a `u16`, and the call's largest
/// argument, and an arena `ARENA_HEADROOM` (8) times its size, fit `u32`
/// offsets. A caller that can run the call either way takes the direct
/// path where this says no, rather than have lowering refuse the call
/// (and replay every rank at that size first).
pub fn fits_steps(op: PlanOp, p: usize, n: usize, elem_size: usize) -> bool {
    let largest = op.cost_bytes(p, n, elem_size);
    p <= 1 << 16
        && largest
            .checked_mul(ARENA_HEADROOM)
            .is_some_and(|bytes| bytes <= u32::MAX as usize)
}

/// One rank's compiled schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankProgram {
    /// Steps in issue order.
    pub steps: Vec<Step>,
    /// Bytes of private scratch the rank needs to execute.
    pub scratch_bytes: usize,
    /// The longest message a fused receive folds: the landing a backend
    /// that cannot fold out of the sender's bytes receives it into, past
    /// the scratch in the same arena, readied only when it asks
    /// ([`BoundProgram::ready_landing`]).
    pub landing_bytes: usize,
}

/// A compiled collective: per-rank step programs plus the call geometry
/// they were lowered for. The single schedule artifact shared by the
/// runtime, the simulator, the verifier, the cost model and the tracing
/// layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveProgram {
    /// Process-unique plan id (1-based; 0 means "no plan" in traces).
    pub plan_id: u64,
    /// The collective and its shape parameters.
    pub op: PlanOp,
    /// Group size the program was lowered for.
    pub p: usize,
    /// Size parameter in elements (unit per [`PlanOp::args`]).
    pub n: usize,
    /// Element size in bytes the program was lowered at. Any scalar type
    /// of this size executes the program: lowering never branches on
    /// values, only on element geometry.
    pub elem_size: usize,
    /// The hybrid strategy, for strategy-taking ops lowered flat.
    pub strategy: Option<Strategy>,
    /// The hierarchical strategy, for programs lowered by
    /// [`lower_hier`]; `None` for flat programs.
    pub hier: Option<HierStrategy>,
    /// Per-rank programs, indexed by logical rank.
    pub ranks: Vec<RankProgram>,
    /// The radices the program's permutations
    /// ([`StepKind::Permute`]) index, each once: a collect stage's
    /// strategy dims, fastest-varying first, 1s left out.
    pub radices: Vec<Vec<usize>>,
    /// The metric series its executions record into, built once.
    pub series: Series,
}

/// The metric series an execution of a program records into with
/// metrics on ([`execute`]): their label strings formatted the first
/// time, once per program rather than once per execution. Not part of
/// what a program is: any two compare equal.
#[derive(Debug, Clone, Default)]
pub struct Series(OnceLock<[MetricKey; 2]>);

impl PartialEq for Series {
    fn eq(&self, _: &Series) -> bool {
        true
    }
}

impl Eq for Series {}

impl CollectiveProgram {
    /// The keys of `intercom_plan_exec_seconds{op, strategy, p, n}` and
    /// `intercom_plan_steps_total{op}` for this program.
    pub(crate) fn series(&self) -> &[MetricKey; 2] {
        self.series.0.get_or_init(|| {
            let strategy = self.strategy.as_ref();
            let strategy = strategy.map_or_else(|| "-".into(), |s| s.to_string());
            let (p, n, op) = (self.p.to_string(), self.n.to_string(), self.op.name());
            let exec = [("op", op), ("strategy", &strategy), ("p", &p), ("n", &n)];
            [
                MetricKey::new("intercom_plan_exec_seconds", &exec),
                MetricKey::new("intercom_plan_steps_total", &[("op", op)]),
            ]
        })
    }

    /// Total communication steps (sends + receives + exchanges) across
    /// all ranks.
    pub fn comm_steps(&self) -> usize {
        self.ranks
            .iter()
            .flat_map(|r| r.steps.iter())
            .filter(|s| s.kind.is_transfer())
            .count()
    }
}

static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(1);

/// Draws a fresh process-unique plan id.
pub(crate) fn fresh_plan_id() -> u64 {
    NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_ids_are_unique_and_nonzero() {
        let a = fresh_plan_id();
        let b = fresh_plan_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn arg_specs_match_conventions() {
        let args = PlanOp::Scatter { root: 2 }.args(4, 8);
        assert_eq!(args[0].elems, 32);
        assert_eq!(args[0].only_rank, Some(2));
        assert_eq!(args[1].elems, 8);
        assert_eq!(args[1].only_rank, None);

        let args = PlanOp::AllReduce.args(4, 8);
        assert_eq!(args.len(), 1);
        assert_eq!(args[0].elems, 8);
        assert!(PlanOp::AllReduce.combines());
        assert!(!PlanOp::Collect.combines());
        assert!(PlanOp::Collect.takes_strategy());
        assert!(!PlanOp::Alltoall.takes_strategy());
    }

    #[test]
    fn display_names_the_call_parameters() {
        // Audit failure lines and the verifier's `Report` embed this.
        let shown = |op: PlanOp| op.to_string();
        assert_eq!(shown(PlanOp::Broadcast { root: 2 }), "broadcast(root=2)");
        assert_eq!(shown(PlanOp::Reduce { root: 0 }), "reduce(root=0)");
        assert_eq!(shown(PlanOp::Scatter { root: 1 }), "scatter(root=1)");
        assert_eq!(shown(PlanOp::Gather { root: 3 }), "gather(root=3)");
        let piped = PlanOp::PipelinedBcast {
            root: 0,
            segments: 4,
        };
        assert_eq!(shown(piped), "pipelined_bcast(root=0, m=4)");
        for op in [
            PlanOp::AllReduce,
            PlanOp::ReduceScatter,
            PlanOp::Collect,
            PlanOp::Alltoall,
        ] {
            assert_eq!(shown(op), op.name());
        }
    }

    #[test]
    fn cost_bytes_prices_the_total_vector() {
        assert_eq!(PlanOp::AllReduce.cost_bytes(4, 10, 8), 80);
        assert_eq!(PlanOp::Broadcast { root: 0 }.cost_bytes(4, 10, 1), 10);
        assert_eq!(PlanOp::Collect.cost_bytes(4, 10, 8), 320);
        assert_eq!(PlanOp::ReduceScatter.cost_bytes(4, 10, 2), 80);
        assert_eq!(PlanOp::Gather { root: 1 }.cost_bytes(3, 5, 4), 60);
    }

    #[test]
    fn calls_beyond_the_compact_layout_do_not_fit() {
        let gib = 1 << 30;
        assert!(fits_steps(PlanOp::AllReduce, 512, 1 << 17, 8));
        // 512 MiB: an arena of eight times that passes 4 GiB.
        assert!(!fits_steps(PlanOp::AllReduce, 512, gib / 16, 8));
        // A 4-rank allgather of 1 GiB blocks, by its 4 GiB result.
        assert!(!fits_steps(PlanOp::Collect, 4, gib, 1));
        assert!(fits_steps(PlanOp::Collect, 4, 1 << 20, 1));
        // Peers are `u16`.
        assert!(fits_steps(PlanOp::Broadcast { root: 0 }, 1 << 16, 8, 1));
        assert!(!fits_steps(PlanOp::Broadcast { root: 0 }, 70_000, 8, 1));
    }

    #[test]
    fn extensions_are_not_priced() {
        assert_eq!(cost_op(PlanOp::AllReduce), Some(CollectiveOp::CombineToAll));
        assert!(cost_op(PlanOp::Alltoall).is_none());
        let piped = PlanOp::PipelinedBcast {
            root: 0,
            segments: 4,
        };
        assert!(cost_op(piped).is_none());
    }
}
