//! The schedule optimizer: verified rewriting passes over compiled
//! programs.
//!
//! PR 4's IR is a verbatim transcript of the paper's recursive
//! algorithms — it pays for every message the recursion *shape* forces,
//! not just the messages the schedule *needs*. This module closes that
//! gap with a pipeline of pure `Program -> Program` rewrites, in the
//! spirit of the paper's own §6 analysis (combine send and receive into
//! full-duplex exchanges, keep every port busy):
//!
//! 1. **Empty-message elision** — uneven partitions (`n < p` blocks)
//!    leave zero-length blocks whose sends and receives still cost a
//!    full α each; matched zero-length halves are dropped from both
//!    endpoints. Gated on `n > 0` so degenerate programs keep their
//!    barrier semantics (an `n = 0` collective still synchronizes).
//! 2. **Sendrecv fusion** — an adjacent send/recv pair in the same
//!    stage (only local steps between) becomes one full-duplex
//!    [`StepKind::SendRecv`]. Pairs from different stages stay apart:
//!    their halves are causally ordered (what comes down depends on
//!    what went up), so co-posting them buys no wire time and only
//!    moves the next stage's δ behind the wait.
//! 3. **Message/copy coalescing** — adjacent contiguous messages on
//!    one channel merge into one (both endpoints rewritten in concert),
//!    and adjacent contiguous local copies merge, eliminating per-block
//!    α and per-call overheads. Over the schedule audit's sweep it
//!    merges 12 messages and no copies: the distributed combine reads
//!    its contribution in place, and a collect's un-permutation is one
//!    [`StepKind::Permute`] and merges with nothing.
//! 4. **Dead-copy elimination** — identity round-trips (a block staged
//!    to scratch and copied back to where it came from, neither side
//!    written between) and scratch stores no later step reads are
//!    dropped. (The collect's in-place un-permutation skips fixed
//!    points: it makes no round trips.)
//!
//! Every pass is a structural rewrite: none reads a price or a machine
//! model, so what the pipeline does to a program depends on the
//! program alone.
//!
//! # Proof obligations
//!
//! Every rewrite preserves two properties:
//!
//! * **Byte-identity.** Argument buffers hold exactly the bytes the
//!   unoptimized program produces, proven mechanically by the
//!   `ir_opt_differential` oracle on both backends.
//! * **Deadlock-monotonicity.** A fusion only co-posts halves that were
//!   already adjacent (separated by local steps alone): every half is
//!   posted no later than before, no new completion obligations are
//!   introduced beyond those the rank already met at the same program
//!   point, and per-channel FIFO order is untouched. Elision removes
//!   matched pairs symmetrically, which only removes wait-for edges.
//!   Coalescing merges the k-th and (k+1)-th messages of one channel
//!   only where they are adjacent on *both* endpoints, so each side
//!   loses one wait; dead-copy elimination touches local steps alone.
//!   As a backstop, the optimized program is re-proven by an internal
//!   rendezvous matcher before it replaces the original (falling back
//!   to the unoptimized program on any failure), and the full
//!   `schedule-audit --source=ir-opt` sweep re-checks deadlock-freedom,
//!   single-port, buffer safety and link conflicts over the whole
//!   strategy space.

use super::{At, CollectiveProgram, Loc, Step, StepKind};
use std::collections::{BTreeMap, BTreeSet};

/// How much optimization a compiled plan gets — the plan cache's
/// opt-level key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Lowering only: the program is the verbatim transcript of the
    /// recursion.
    None,
    /// The full pass pipeline.
    #[default]
    Full,
}

/// Per-pass rewrite counters of one [`optimize`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Zero-length message halves elided (pass 1).
    pub elided: usize,
    /// Same-stage send/recv pairs fused into exchanges (pass 2).
    pub fused: usize,
    /// Messages and local copies merged (pass 3).
    pub coalesced: usize,
    /// Dead or identity copies removed (pass 4).
    pub dead_copies: usize,
    /// The rewritten program failed the internal rendezvous re-proof
    /// and the unoptimized original was kept (never expected; the
    /// passes are deadlock-monotone by construction).
    pub reverted: bool,
}

impl OptStats {
    /// Total rewrites applied.
    pub fn total(&self) -> usize {
        self.elided + self.fused + self.coalesced + self.dead_copies
    }
}

/// Runs the full pass pipeline over `prog`, returning the optimized
/// program (with a fresh plan id) and per-pass rewrite counts.
///
/// The result executes byte-identically to `prog` and satisfies the
/// same static safety invariants; if the internal rendezvous re-proof
/// fails, the original program is returned unchanged (with
/// [`OptStats::reverted`] set).
pub fn optimize(prog: &CollectiveProgram) -> (CollectiveProgram, OptStats) {
    let mut stats = OptStats::default();
    let mut out = prog.clone();
    out.plan_id = super::fresh_plan_id();
    stats.elided = elide_empty(&mut out);
    stats.fused = fuse_adjacent(&mut out);
    stats.coalesced = coalesce_messages(&mut out) + coalesce_copies(&mut out);
    stats.dead_copies = dead_copy_elim(&mut out);
    for rp in &mut out.ranks {
        rp.landing_bytes = super::landing_of(&rp.steps);
    }
    if !rendezvous_ok(&out) {
        let mut orig = prog.clone();
        orig.plan_id = out.plan_id;
        return (
            orig,
            OptStats {
                reverted: true,
                ..OptStats::default()
            },
        );
    }
    (out, stats)
}

/// Pass 1: drop matched zero-length message halves from both endpoints.
/// A valid program's k-th send and k-th receive on one `(src, dst, tag)`
/// channel have equal lengths, so dropping every zero-length half keeps
/// the two sides' FIFO indices aligned. Gated on `n > 0`: a zero-size
/// collective is a barrier and must keep synchronizing.
fn elide_empty(prog: &mut CollectiveProgram) -> usize {
    if prog.n == 0 {
        return 0;
    }
    let mut removed = 0;
    for rp in &mut prog.ranks {
        rp.steps.retain_mut(|step| {
            if let StepKind::Send { src, .. } = step.kind {
                removed += usize::from(src.len == 0);
                return src.len > 0;
            }
            let Some(mut half) = RecvHalf::of(&step.kind) else {
                return true;
            };
            if half.send.is_some_and(|(_, src)| src.len == 0) {
                removed += 1;
                half.send = None;
            }
            if half.dst.len > 0 {
                step.kind = half.kind();
                return true;
            }
            removed += 1;
            let Some((to, src)) = half.send else {
                return false;
            };
            let tag_off = half.tag_off;
            step.kind = StepKind::Send { to, tag_off, src };
            true
        });
    }
    removed
}

/// The receive half of a step — a receive, an exchange, either one
/// fused with its fold, or a fused combine — taken apart so the passes
/// treat all five alike.
#[derive(Clone, Copy)]
struct RecvHalf {
    from: u16,
    tag_off: u32,
    /// The bytes it writes: the landing, or the accumulator it folds
    /// into.
    dst: Loc,
    folds: bool,
    /// The region a fused combine's message is combined with (read).
    other: Option<At>,
    /// The send half of an exchange: destination and bytes read.
    send: Option<(u16, Loc)>,
}

impl RecvHalf {
    fn of(kind: &StepKind) -> Option<RecvHalf> {
        let half = |from, tag_off, dst, folds, send| RecvHalf {
            from,
            tag_off,
            dst,
            folds,
            other: None,
            send,
        };
        Some(match *kind {
            StepKind::Recv { from, tag_off, dst } => half(from, tag_off, dst, false, None),
            StepKind::RecvReduce { from, tag_off, acc } => half(from, tag_off, acc, true, None),
            StepKind::SendRecv {
                to,
                src,
                from,
                dst,
                tag_off,
            } => half(from, tag_off, dst, false, Some((to, src))),
            StepKind::SendRecvReduce {
                to,
                src,
                from,
                acc,
                tag_off,
            } => half(from, tag_off, acc, true, Some((to, src))),
            StepKind::SendRecvCombine {
                to,
                from,
                src,
                dst,
                other,
                len,
                tag_off,
            } => RecvHalf {
                other: Some(other),
                ..half(
                    from,
                    tag_off,
                    dst.with_len(len),
                    false,
                    Some((to, src.with_len(len))),
                )
            },
            _ => return None,
        })
    }

    /// The step this half (with its send half, if any) is.
    fn kind(self) -> StepKind {
        let (from, tag_off) = (self.from, self.tag_off);
        // A combine's three regions are equally long and not empty, so
        // no pass changes one or drops its send half.
        if let (Some(other), Some((to, src))) = (self.other, self.send) {
            return StepKind::SendRecvCombine {
                to,
                from,
                src: src.into(),
                dst: self.dst.into(),
                other,
                len: self.dst.len,
                tag_off,
            };
        }
        match (self.send, self.folds) {
            (None, false) => StepKind::Recv {
                from,
                tag_off,
                dst: self.dst,
            },
            (None, true) => StepKind::RecvReduce {
                from,
                tag_off,
                acc: self.dst,
            },
            (Some((to, src)), false) => StepKind::SendRecv {
                to,
                src,
                from,
                dst: self.dst,
                tag_off,
            },
            (Some((to, src)), true) => StepKind::SendRecvReduce {
                to,
                src,
                from,
                acc: self.dst,
                tag_off,
            },
        }
    }
}

fn locs_overlap(a: &Loc, b: &Loc) -> bool {
    let (ra, rb) = (a.bytes(), b.bytes());
    a.len > 0 && b.len > 0 && a.buf == b.buf && ra.start < rb.end && rb.start < ra.end
}

/// Read/write footprint of a local step, `None` for communication.
fn local_footprint(kind: &StepKind) -> Option<(Vec<Loc>, Vec<Loc>)> {
    match *kind {
        StepKind::Copy { src, dst } => Some((vec![src], vec![dst])),
        StepKind::Reduce { acc, other } => Some((vec![acc, other], vec![acc])),
        StepKind::Permute { region, held, .. } => Some((vec![region], vec![region, held])),
        StepKind::Compute { .. } | StepKind::CallOverhead => Some((vec![], vec![])),
        _ => None,
    }
}

/// Pass 2: fuse adjacent same-stage send/recv pairs (only local steps
/// between) into full-duplex exchanges. Both orders are handled; a pair
/// is refused when either half would touch bytes the other half (or an
/// intervening local step) produces or reads — fusion never reorders
/// dependent work, it only co-posts halves the rank was already
/// committed to.
fn fuse_adjacent(prog: &mut CollectiveProgram) -> usize {
    let mut count = 0;
    for rp in &mut prog.ranks {
        let steps = &rp.steps;
        let mut out: Vec<Step> = Vec::with_capacity(steps.len());
        let mut i = 0;
        'scan: while i < steps.len() {
            let first = steps[i];
            let want_pair =
                matches!(first.kind, StepKind::Send { .. }) || lone_recv(&first.kind).is_some();
            if want_pair {
                let mut j = i + 1;
                let mut mid_reads: Vec<Loc> = Vec::new();
                let mut mid_writes: Vec<Loc> = Vec::new();
                while j < steps.len() {
                    if let Some((r, w)) = local_footprint(&steps[j].kind) {
                        mid_reads.extend(r);
                        mid_writes.extend(w);
                        j += 1;
                        continue;
                    }
                    break;
                }
                if j < steps.len() {
                    if let Some(fused) = try_fuse(&first, &steps[j], &mid_reads, &mid_writes) {
                        out.push(fused);
                        out.extend_from_slice(&steps[i + 1..j]);
                        count += 1;
                        i = j + 1;
                        continue 'scan;
                    }
                }
            }
            out.push(first);
            i += 1;
        }
        rp.steps = out;
    }
    count
}

/// Attempts to fuse the pair `(first, second)` separated by local steps
/// with the given read/write footprint into one exchange.
fn try_fuse(first: &Step, second: &Step, mid_reads: &[Loc], mid_writes: &[Loc]) -> Option<Step> {
    // Tags encode stages, so same stage means same tag: an exchange
    // carries one. Halves of different stages are causally ordered and
    // stay apart.
    if first.kind.tag_off() != second.kind.tag_off() {
        return None;
    }
    let (to, src, recv) = match (first.kind, second.kind) {
        // send … recv: the receive half (and a fused one's fold) moves
        // earlier; refuse if it would land on bytes the send ships or an
        // intervening step touches.
        (StepKind::Send { to, src, .. }, kind) => {
            let recv = lone_recv(&kind)?;
            let mid_touches_dst = mid_reads
                .iter()
                .chain(mid_writes)
                .any(|l| locs_overlap(l, &recv.dst));
            if mid_touches_dst {
                return None;
            }
            (to, src, recv)
        }
        // recv … send: the send half moves earlier; refuse if the send
        // ships bytes the receive or an intervening step produces.
        (kind, StepKind::Send { to, src, .. }) => {
            let recv = lone_recv(&kind)?;
            if mid_writes.iter().any(|l| locs_overlap(l, &src)) {
                return None;
            }
            (to, src, recv)
        }
        _ => return None,
    };
    let dst = recv.dst;
    // Zero-length halves are synchronization tokens: they carry no
    // bytes (nothing to win by full-duplexing) but their blocking
    // order *is* the schedule's serialization — e.g. an MST rank
    // forwards to its child only after hearing from its parent. The
    // data-dependence gates above are vacuous at length zero, so
    // without this guard fusion would co-post the forward before the
    // receive and break the per-stage link-conflict bounds the §6
    // cost model proves. Empty messages are pass 1's (elision's) job.
    if src.len == 0 || dst.len == 0 {
        return None;
    }
    // Also what makes a fused exchange sound: a fold into bytes the send
    // half ships.
    if locs_overlap(&src, &dst) {
        return None;
    }
    let send = Some((to, src));
    Some(Step {
        kind: RecvHalf { send, ..recv }.kind(),
    })
}

/// The receive half of a receive that is not an exchange.
fn lone_recv(kind: &StepKind) -> Option<RecvHalf> {
    RecvHalf::of(kind).filter(|h| h.send.is_none())
}

/// Pass 3a: merge adjacent contiguous messages on one channel, both
/// endpoints rewritten in concert. Conservative: only send/receive
/// pairs (a receive that folds merges only with one that folds) on
/// channels no exchange half touches, and only when the k-th and
/// (k+1)-th messages are program-adjacent on *both* sides.
fn coalesce_messages(prog: &mut CollectiveProgram) -> usize {
    let mut merged = 0;
    loop {
        let mut chan_send: BTreeMap<(usize, usize, u32), Vec<usize>> = BTreeMap::new();
        let mut chan_recv: BTreeMap<(usize, usize, u32), Vec<usize>> = BTreeMap::new();
        let mut tainted: BTreeSet<(usize, usize, u32)> = BTreeSet::new();
        for (r, rp) in prog.ranks.iter().enumerate() {
            for (idx, step) in rp.steps.iter().enumerate() {
                if let StepKind::Send { to, tag_off, .. } = step.kind {
                    chan_send
                        .entry((r, to.into(), tag_off))
                        .or_default()
                        .push(idx);
                }
                let Some(h) = RecvHalf::of(&step.kind) else {
                    continue;
                };
                let chan = (h.from.into(), r, h.tag_off);
                match h.send {
                    None => chan_recv.entry(chan).or_default().push(idx),
                    Some((to, _)) => {
                        tainted.insert((r, to.into(), h.tag_off));
                        tainted.insert(chan);
                    }
                }
            }
        }
        let mut found: Option<((usize, usize), (usize, usize))> = None;
        'outer: for (key, sends) in &chan_send {
            let (s, d, _) = *key;
            if tainted.contains(key) || s == d {
                continue;
            }
            let Some(recvs) = chan_recv.get(key) else {
                continue;
            };
            if sends.len() != recvs.len() {
                continue;
            }
            for k in 0..sends.len().saturating_sub(1) {
                if sends[k + 1] != sends[k] + 1 || recvs[k + 1] != recvs[k] + 1 {
                    continue;
                }
                let (sa, sb) = (send_src(prog, s, sends[k]), send_src(prog, s, sends[k] + 1));
                let (ra, rb) = (
                    recv_half(prog, d, recvs[k]),
                    recv_half(prog, d, recvs[k] + 1),
                );
                let alike = ra.folds == rb.folds;
                if contiguous(&sa, &sb) && contiguous(&ra.dst, &rb.dst) && alike {
                    found = Some(((s, sends[k]), (d, recvs[k])));
                    break 'outer;
                }
            }
        }
        let Some(((s, si), (d, di))) = found else {
            return merged;
        };
        let grow = send_src(prog, s, si + 1).len;
        if let StepKind::Send { src, .. } = &mut prog.ranks[s].steps[si].kind {
            src.len += grow;
        }
        prog.ranks[s].steps.remove(si + 1);
        let mut recv = recv_half(prog, d, di);
        recv.dst.len += grow;
        prog.ranks[d].steps[di].kind = recv.kind();
        prog.ranks[d].steps.remove(di + 1);
        merged += 1;
    }
}

fn send_src(prog: &CollectiveProgram, rank: usize, idx: usize) -> Loc {
    match prog.ranks[rank].steps[idx].kind {
        StepKind::Send { src, .. } => src,
        ref other => unreachable!("expected send at ({rank}, {idx}), found {other:?}"),
    }
}

fn recv_half(prog: &CollectiveProgram, rank: usize, idx: usize) -> RecvHalf {
    let kind = &prog.ranks[rank].steps[idx].kind;
    lone_recv(kind)
        .unwrap_or_else(|| unreachable!("expected recv at ({rank}, {idx}), found {kind:?}"))
}

/// `b` starts exactly where `a` ends, in the same buffer.
fn contiguous(a: &Loc, b: &Loc) -> bool {
    a.buf == b.buf && b.off == a.off + a.len && a.len > 0 && b.len > 0
}

/// Pass 3b: merge adjacent local copies whose sources and destinations
/// are both contiguous.
fn coalesce_copies(prog: &mut CollectiveProgram) -> usize {
    let mut merged = 0;
    for rp in &mut prog.ranks {
        let mut out: Vec<Step> = Vec::with_capacity(rp.steps.len());
        for step in &rp.steps {
            if let (
                Some(Step {
                    kind:
                        StepKind::Copy {
                            src: psrc,
                            dst: pdst,
                        },
                    ..
                }),
                StepKind::Copy { src, dst },
            ) = (out.last_mut(), &step.kind)
            {
                if contiguous(psrc, src) && contiguous(pdst, dst) {
                    psrc.len += src.len;
                    pdst.len += dst.len;
                    merged += 1;
                    continue;
                }
            }
            out.push(*step);
        }
        rp.steps = out;
    }
    merged
}

/// Pass 4: remove copies that move no information — zero-length copies,
/// identity round-trips (scratch bytes copied back to the argument
/// region they were staged from, with no intervening write to either
/// side), and stores to scratch no later step reads (scratch dies at
/// program end and is re-zeroed per run).
fn dead_copy_elim(prog: &mut CollectiveProgram) -> usize {
    let mut removed = 0;
    for rp in &mut prog.ranks {
        rp.steps.retain(|s| {
            if let StepKind::Copy { src, .. } = s.kind {
                if src.len == 0 {
                    removed += 1;
                    return false;
                }
            }
            true
        });
        removed += remove_identity_copies(&mut rp.steps);
        removed += remove_unread_scratch_stores(&mut rp.steps);
    }
    removed
}

/// Provenance scan: `records` tracks scratch ranges known to hold an
/// exact copy of an argument range. A copy from scratch back to the
/// very argument range it was staged from is an identity and is
/// dropped.
fn remove_identity_copies(steps: &mut Vec<Step>) -> usize {
    // (scratch_off, len, arg_slot, arg_off)
    let mut records: Vec<(u32, u32, u8, u32)> = Vec::new();
    let mut dead: Vec<usize> = Vec::new();
    let scratch = |l: &Loc| l.buf == super::Buf::Scratch;
    for (idx, step) in steps.iter().enumerate() {
        // Identity check first (reads see pre-step state).
        if let StepKind::Copy { src, dst } = step.kind {
            if scratch(&src) && !scratch(&dst) {
                if let super::Buf::Arg(slot) = dst.buf {
                    let identity = records.iter().any(|&(so, sl, rslot, ao)| {
                        rslot == slot
                            && src.off >= so
                            && src.off + src.len <= so + sl
                            && ao + (src.off - so) == dst.off
                            && src.len == dst.len
                    });
                    if identity {
                        dead.push(idx);
                        continue; // removed: writes nothing, invalidates nothing
                    }
                }
            }
        }
        // Invalidate records overlapping any byte this step writes.
        let writes: Vec<Loc> = match step.kind {
            StepKind::Copy { dst, .. } => vec![dst],
            StepKind::Reduce { acc, .. } => vec![acc],
            StepKind::Permute { region, held, .. } => vec![region, held],
            ref kind => RecvHalf::of(kind).map(|h| h.dst).into_iter().collect(),
        };
        for w in &writes {
            records.retain(|&(so, sl, rslot, ao)| {
                let scratch_hit = scratch(w) && w.off < so + sl && so < w.off + w.len;
                let arg_hit = matches!(w.buf, super::Buf::Arg(s) if s == rslot)
                    && w.off < ao + sl
                    && ao < w.off + w.len;
                !(scratch_hit || arg_hit) || w.len == 0
            });
        }
        // A fresh argument→scratch copy establishes provenance.
        if let StepKind::Copy { src, dst } = step.kind {
            if let (super::Buf::Arg(slot), true) = (src.buf, scratch(&dst)) {
                if dst.len > 0 {
                    records.push((dst.off, dst.len, slot, src.off));
                }
            }
        }
    }
    for &idx in dead.iter().rev() {
        steps.remove(idx);
    }
    dead.len()
}

/// Liveness scan: a copy into scratch whose destination no later step
/// reads is dead (scratch is private, re-zeroed per run, and invisible
/// after the program ends).
fn remove_unread_scratch_stores(steps: &mut Vec<Step>) -> usize {
    let mut dead: Vec<usize> = Vec::new();
    for idx in 0..steps.len() {
        let StepKind::Copy { dst, .. } = steps[idx].kind else {
            continue;
        };
        if dst.buf != super::Buf::Scratch || dst.len == 0 {
            continue;
        }
        let read_later = steps[idx + 1..].iter().any(|s| {
            let reads: Vec<Loc> = match s.kind {
                StepKind::Send { src, .. } => vec![src],
                StepKind::SendRecv { src, .. } => vec![src],
                StepKind::SendRecvReduce { src, acc, .. } => vec![src, acc],
                StepKind::SendRecvCombine {
                    src, other, len, ..
                } => vec![src.with_len(len), other.with_len(len)],
                StepKind::RecvReduce { acc, .. } => vec![acc],
                StepKind::Copy { src, .. } => vec![src],
                StepKind::Reduce { acc, other } => vec![acc, other],
                // The held block is written before it is read.
                StepKind::Permute { region, .. } => vec![region],
                _ => vec![],
            };
            reads.iter().any(|r| locs_overlap(r, &dst))
        });
        if !read_later {
            dead.push(idx);
        }
    }
    for &idx in dead.iter().rev() {
        steps.remove(idx);
    }
    dead.len()
}

/// The internal rendezvous re-proof: simulates synchronous matching of
/// the whole program (each rank blocks at its current communication
/// step until every half is matched; halves match FIFO per
/// `(src, dst, tag)` channel, at most one send and one receive half per
/// rank at a time). Returns false on deadlock or length mismatch —
/// the same model `intercom-verify`'s matcher proves programs against,
/// under which deadlock-freedom transfers to any eager backend.
fn rendezvous_ok(prog: &CollectiveProgram) -> bool {
    #[derive(Clone, Copy)]
    struct Half {
        peer: usize,
        tag: u32,
        len: u32,
        done: bool,
    }
    #[derive(Clone, Copy, Default)]
    struct Cur {
        send: Option<Half>,
        recv: Option<Half>,
    }
    let p = prog.p;
    let load = |rank: usize, next: &mut usize| -> Option<Cur> {
        let half = |peer: u16, tag, len| Half {
            peer: peer.into(),
            tag,
            len,
            done: false,
        };
        let steps = &prog.ranks[rank].steps;
        while *next < steps.len() {
            let kind = &steps[*next].kind;
            if let StepKind::Send { to, tag_off, src } = *kind {
                let send = Some(half(to, tag_off, src.len));
                return Some(Cur { send, recv: None });
            }
            if let Some(h) = RecvHalf::of(kind) {
                return Some(Cur {
                    send: h.send.map(|(to, src)| half(to, h.tag_off, src.len)),
                    recv: Some(half(h.from, h.tag_off, h.dst.len)),
                });
            }
            *next += 1;
        }
        None
    };
    let mut next = vec![0usize; p];
    let mut cur: Vec<Option<Cur>> = (0..p).map(|r| load(r, &mut next[r])).collect();
    loop {
        if cur.iter().all(Option::is_none) {
            return true;
        }
        let snapshot = cur.clone();
        let mut progressed = false;
        for a in 0..p {
            let Some(ca) = snapshot[a] else { continue };
            let Some(s) = ca.send else { continue };
            if s.done || s.peer >= p {
                if s.peer >= p {
                    return false;
                }
                continue;
            }
            let b = s.peer;
            let Some(cb) = snapshot[b] else { continue };
            let Some(r) = cb.recv else { continue };
            if r.done || r.peer != a || r.tag != s.tag {
                continue;
            }
            if r.len != s.len {
                return false;
            }
            cur[a].as_mut().unwrap().send.as_mut().unwrap().done = true;
            cur[b].as_mut().unwrap().recv.as_mut().unwrap().done = true;
            progressed = true;
        }
        for r in 0..p {
            let all_done = cur[r]
                .is_some_and(|c| c.send.is_none_or(|h| h.done) && c.recv.is_none_or(|h| h.done));
            if all_done {
                next[r] += 1;
                cur[r] = load(r, &mut next[r]);
                progressed = true;
            }
        }
        if !progressed {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lower, Buf, PlanOp, RankProgram};
    use super::*;

    fn loc(buf: Buf, off: u32, len: u32) -> Loc {
        Loc { buf, off, len }
    }

    fn step(kind: StepKind) -> Step {
        Step { kind }
    }

    /// A hand-built two-rank program shell (op/strategy irrelevant to
    /// the passes).
    fn mini(p: usize, n: usize, ranks: Vec<Vec<Step>>, scratch: usize) -> CollectiveProgram {
        CollectiveProgram {
            plan_id: 0,
            op: PlanOp::Alltoall,
            p,
            n,
            elem_size: 1,
            strategy: None,
            hier: None,
            radices: Vec::new(),
            ranks: ranks
                .into_iter()
                .map(|steps| RankProgram {
                    steps,
                    scratch_bytes: scratch,
                    landing_bytes: 0,
                })
                .collect(),
            series: Default::default(),
        }
    }

    #[test]
    fn same_stage_fusion_applies() {
        // Rank 0: send(1, t0) then recv(1, t0), disjoint regions.
        // Rank 1: the mirror in the opposite order.
        let a = loc(Buf::Arg(0), 0, 4);
        let b = loc(Buf::Arg(0), 4, 4);
        let prog = mini(
            2,
            8,
            vec![
                vec![
                    step(StepKind::Send {
                        to: 1,
                        tag_off: 0,
                        src: a,
                    }),
                    step(StepKind::Recv {
                        from: 1,
                        tag_off: 0,
                        dst: b,
                    }),
                ],
                vec![
                    step(StepKind::Recv {
                        from: 0,
                        tag_off: 0,
                        dst: b,
                    }),
                    step(StepKind::Send {
                        to: 0,
                        tag_off: 0,
                        src: a,
                    }),
                ],
            ],
            0,
        );
        let (opt, stats) = optimize(&prog);
        assert_eq!(stats.fused, 2);
        assert!(!stats.reverted);
        for rp in &opt.ranks {
            assert_eq!(rp.steps.len(), 1);
            assert!(matches!(rp.steps[0].kind, StepKind::SendRecv { .. }));
        }
    }

    #[test]
    fn fusion_refuses_dependent_forwarding() {
        // Ring-style forwarding: recv into a region, then send that
        // same region. Co-posting would ship stale bytes — refused.
        let r = loc(Buf::Arg(0), 0, 4);
        let prog = mini(
            2,
            4,
            vec![
                vec![
                    step(StepKind::Recv {
                        from: 1,
                        tag_off: 0,
                        dst: r,
                    }),
                    step(StepKind::Send {
                        to: 1,
                        tag_off: 1,
                        src: r,
                    }),
                ],
                vec![
                    step(StepKind::Send {
                        to: 0,
                        tag_off: 0,
                        src: r,
                    }),
                    step(StepKind::Recv {
                        from: 0,
                        tag_off: 1,
                        dst: r,
                    }),
                ],
            ],
            0,
        );
        let (opt, stats) = optimize(&prog);
        assert_eq!(stats.fused, 0);
        assert_eq!(opt.ranks, prog.ranks, "dependent pairs kept apart");
    }

    #[test]
    fn coalescing_merges_contiguous_and_respects_gaps() {
        let s1 = loc(Buf::Arg(0), 0, 4);
        let s2 = loc(Buf::Arg(0), 4, 4);
        let gap = loc(Buf::Arg(0), 12, 4); // not contiguous with s2
        let d1 = loc(Buf::Arg(1), 0, 4);
        let d2 = loc(Buf::Arg(1), 4, 4);
        let d3 = loc(Buf::Arg(1), 8, 4);
        let prog = mini(
            2,
            4,
            vec![
                vec![
                    step(StepKind::Send {
                        to: 1,
                        tag_off: 0,
                        src: s1,
                    }),
                    step(StepKind::Send {
                        to: 1,
                        tag_off: 0,
                        src: s2,
                    }),
                    step(StepKind::Send {
                        to: 1,
                        tag_off: 0,
                        src: gap,
                    }),
                ],
                vec![
                    step(StepKind::Recv {
                        from: 0,
                        tag_off: 0,
                        dst: d1,
                    }),
                    step(StepKind::Recv {
                        from: 0,
                        tag_off: 0,
                        dst: d2,
                    }),
                    step(StepKind::Recv {
                        from: 0,
                        tag_off: 0,
                        dst: d3,
                    }),
                ],
            ],
            0,
        );
        let (opt, stats) = optimize(&prog);
        assert_eq!(
            stats.coalesced, 1,
            "first two merge; the gapped third stays"
        );
        assert_eq!(opt.ranks[0].steps.len(), 2);
        assert!(matches!(
            opt.ranks[0].steps[0].kind,
            StepKind::Send { src, .. } if src.len == 8
        ));
        assert!(matches!(
            opt.ranks[1].steps[0].kind,
            StepKind::Recv { dst, .. } if dst.len == 8
        ));
    }

    #[test]
    fn identity_round_trip_copies_die() {
        // Stage a block to scratch, copy it straight back: the
        // copy-back is an identity; the stage store then has no reader.
        let a = loc(Buf::Arg(0), 8, 4);
        let s = loc(Buf::Scratch, 0, 4);
        let prog = mini(
            1,
            4,
            vec![vec![
                step(StepKind::Copy { src: a, dst: s }),
                step(StepKind::Copy { src: s, dst: a }),
            ]],
            16,
        );
        let (opt, stats) = optimize(&prog);
        assert_eq!(stats.dead_copies, 2);
        assert!(opt.ranks[0].steps.is_empty());
    }

    #[test]
    fn a_permutation_writes_its_region_and_clobbers_its_held_block() {
        let (a, staged, held) = (
            loc(Buf::Arg(0), 0, 4),
            loc(Buf::Scratch, 0, 4),
            loc(Buf::Scratch, 4, 4),
        );
        let permute = step(StepKind::Permute {
            region: loc(Buf::Arg(0), 0, 8),
            held,
            radices: 0,
        });
        // Copied back over a block the permutation rewrote: no identity.
        let round_trip = vec![
            step(StepKind::Copy {
                src: a,
                dst: staged,
            }),
            permute,
            step(StepKind::Copy {
                src: staged,
                dst: a,
            }),
        ];
        let (opt, stats) = optimize(&mini(1, 8, vec![round_trip.clone()], 8));
        assert_eq!((stats.dead_copies, &opt.ranks[0].steps), (0, &round_trip));
        // A store only the permutation's stash overwrites is dead.
        let clobbered = vec![step(StepKind::Copy { src: a, dst: held }), permute];
        let (opt, stats) = optimize(&mini(1, 8, vec![clobbered], 8));
        assert_eq!(
            (stats.dead_copies, &opt.ranks[0].steps),
            (1, &vec![permute])
        );
    }

    #[test]
    fn empty_elision_is_gated_on_n() {
        let empty = loc(Buf::Scratch, 0, 0);
        let mk = |n: usize| {
            mini(
                2,
                n,
                vec![
                    vec![step(StepKind::Send {
                        to: 1,
                        tag_off: 0,
                        src: empty,
                    })],
                    vec![step(StepKind::Recv {
                        from: 0,
                        tag_off: 0,
                        dst: empty,
                    })],
                ],
                0,
            )
        };
        let (opt, stats) = optimize(&mk(4));
        assert_eq!(stats.elided, 2);
        assert_eq!(opt.comm_steps(), 0);
        let (opt0, stats0) = optimize(&mk(0));
        assert_eq!(stats0.elided, 0, "n = 0 keeps its barrier messages");
        assert_eq!(opt0.comm_steps(), 2);
    }

    #[test]
    fn broken_programs_revert_to_the_original() {
        // An unmatched send can never rendezvous: the re-proof fails
        // and the original program survives untouched.
        let a = loc(Buf::Arg(0), 0, 4);
        let prog = mini(
            2,
            4,
            vec![
                vec![step(StepKind::Send {
                    to: 1,
                    tag_off: 0,
                    src: a,
                })],
                vec![],
            ],
            0,
        );
        let (opt, stats) = optimize(&prog);
        assert!(stats.reverted);
        assert_eq!(stats.total(), 0);
        assert_eq!(opt.ranks, prog.ranks);
    }

    #[test]
    fn cross_stage_pairs_stay_apart() {
        // An MST allreduce's send-up is followed by the broadcast's
        // recv-down on every non-root rank, but what comes down depends
        // on what went up: the two stages are never fused.
        let st = intercom_cost::Strategy::pure_mst(8);
        let prog = lower(PlanOp::AllReduce, Some(&st), 8, 16, 4).unwrap();
        let (opt, stats) = optimize(&prog);
        assert_eq!(stats.total(), 0, "{stats:?}");
        assert_eq!(opt.ranks, prog.ranks);
    }

    #[test]
    fn small_broadcast_sheds_empty_messages() {
        // Scatter-collect broadcast of 1 element over 9 ranks: 8 of the
        // 9 partition blocks are empty, and every one of their sends
        // and receives disappears.
        let st = intercom_cost::Strategy::new(vec![9], intercom_cost::StrategyKind::ScatterCollect);
        let prog = lower(PlanOp::Broadcast { root: 0 }, Some(&st), 9, 1, 8).unwrap();
        let (opt, stats) = optimize(&prog);
        assert!(!stats.reverted);
        assert!(stats.elided > 0);
        assert!(
            opt.comm_steps() < prog.comm_steps(),
            "{} !< {}",
            opt.comm_steps(),
            prog.comm_steps()
        );
    }

    #[test]
    fn optimized_ring_allreduce_is_already_alpha_optimal() {
        // The paper's ring algorithms emit fused exchanges of exactly
        // the occupied blocks: nothing for the optimizer to find.
        let st = intercom_cost::Strategy::pure_long(4);
        let prog = lower(PlanOp::AllReduce, Some(&st), 4, 8, 8).unwrap();
        let (opt, stats) = optimize(&prog);
        assert_eq!(stats.total(), 0, "{stats:?}");
        assert_eq!(opt.comm_steps(), prog.comm_steps());
    }
}
