//! Multi-program non-interference: statically prove that K collectives
//! running **concurrently** on one physical mesh cannot interfere.
//!
//! The paper's §9 group communicators exist so many collectives can run
//! at once — rows, columns, submeshes of one machine. Each single
//! program is already proven deadlock-free, single-port-compliant,
//! buffer-safe and conflict-bounded by [`crate::report`]; this module
//! lifts the guarantees to **sets** of programs sharing the fabric. A
//! [`Workload`] names K tenants — each a lowered program, a
//! rank→node embedding (built with `intercom::groups::{row_members,
//! col_members, submesh_members}`), a tag base, and a memory window —
//! and [`verify_concurrent`] checks four things:
//!
//! 1. **Tag-space disjointness.** A receive posted by tenant A must
//!    never be matchable by a send of tenant B, under *any* interleaving
//!    and any number of successive calls. Successive calls advance a
//!    communicator's tag base by [`CALL_TAG_STRIDE`]
//!    (`intercom::CALL_TAG_STRIDE`), preserving tags **mod the
//!    stride** — so the check is on residues: the sets of
//!    `(src node, dst node, tag mod CALL_TAG_STRIDE)` match-candidates
//!    must be pairwise disjoint across tenants. Disjoint residues prove
//!    isolation for unbounded call histories, not just call zero.
//! 2. **Cross-program deadlock-freedom.** The rendezvous matcher of
//!    [`crate::schedule`] generalizes to a *product construction*: every
//!    (tenant, rank) pair is a context on its physical node, and a
//!    receive is matchable by any same-node-pair send with the same tag
//!    residue — **preferring a wrong-tenant candidate when one exists**
//!    (adversarial semantics: if a cross-tenant steal is possible, some
//!    interleaving realizes it, so the matcher takes it and also
//!    reports the induced downstream damage). A stall is reported with
//!    every stuck context and a tenant-attributed wait-for cycle.
//! 3. **Buffer non-interference.** Per physical node, the union of
//!    byte regions each resident tenant touches (arg windows + scratch
//!    arena, re-based into the tenant's memory window) must be pairwise
//!    disjoint. Distinct live communicators own distinct allocations,
//!    which the default per-tenant windows model; a workload that
//!    declares shared windows is checked for real overlap.
//! 4. **Composite link contention.** Each tenant alone respects its §6
//!    conflict factors. Across tenants the §6 analysis says nothing —
//!    so the analyzer XY-routes every tenant's schedule, takes each
//!    tenant's per-link peak over its own steps, and sums peaks per
//!    link: the worst case over all interleavings consistent with each
//!    program's internal order (programs advance independently, so any
//!    alignment of their steps is reachable). The result feeds
//!    [`intercom_cost::CompositeContention`], the surface the cost
//!    model prices admission decisions with. Contention is *reported*,
//!    never a violation: sharing a link is legal, mispricing it is not.
//!
//! What is **not** proven: timing (the matcher is untimed; the
//! simulator owns clocks), fairness between tenants on a contended
//! link, and anything about programs that branch on received values
//! (the library's collectives never do). See
//! `docs/verification.md` for the full model.

use crate::schedule::{load, match_programs, Current, Event};
use intercom::trace::{MemSpan, OpRecord};
use intercom::{Tag, CALL_TAG_STRIDE};
use intercom_cost::{CompositeContention, Strategy, TenantLoad};
use intercom_topology::{route_xy, LinkId, Mesh2D};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Tag-base spacing the [`tenant_tag_base`] allocator hands out:
/// adjacent tenants are `2^12` apart, far above any program's internal
/// stage offsets yet dividing [`CALL_TAG_STRIDE`] (`2^20`), so up to
/// 256 tenants keep distinct residues for every successive call.
pub const TENANT_TAG_STRIDE: u64 = 1 << 12;

/// The `i`-th tenant's default tag base. Residues stay pairwise
/// disjoint for `i < CALL_TAG_STRIDE / TENANT_TAG_STRIDE` (= 256)
/// provided each program's internal tags stay below
/// [`TENANT_TAG_STRIDE`] (checked: [`ConcurrentViolation::TagSpanOverflow`]).
pub fn tenant_tag_base(i: usize) -> u64 {
    i as u64 * TENANT_TAG_STRIDE
}

/// One concurrently-running collective: a lowered program plus its
/// placement on the shared fabric.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Attribution name carried into every diagnostic.
    pub name: String,
    /// Per-logical-rank symbolic programs, tags relative to the
    /// tenant's call base (as [`crate::ir::ir_programs`] produces).
    pub programs: Vec<Vec<OpRecord>>,
    /// Logical rank `r` runs on physical node `embedding[r]` — a
    /// member list from `intercom::groups::{row_members, col_members,
    /// submesh_members}` or any custom placement.
    pub embedding: Vec<usize>,
    /// Absolute tag base of the tenant's communicator; the program's
    /// relative tags are offsets from it.
    pub base_tag: u64,
    /// Base of the tenant's synthetic memory window. `None` (the
    /// default) models each live communicator owning distinct
    /// allocations: tenant `i` gets the disjoint window `i << 56`.
    /// Declaring the same base for two tenants models shared memory
    /// and subjects them to the real overlap check.
    pub mem_base: Option<usize>,
}

impl Tenant {
    /// Lowers `op` through the schedule IR for a group of
    /// `embedding.len()` ranks and places it on the mesh. `base_tag`
    /// is typically [`tenant_tag_base`]`(i)`.
    pub fn lowered(
        name: impl Into<String>,
        op: &intercom::ir::PlanOp,
        strategy: Option<&Strategy>,
        n: usize,
        embedding: Vec<usize>,
        base_tag: u64,
    ) -> intercom::Result<Tenant> {
        let programs = crate::ir::ir_programs(op, strategy, embedding.len(), n)?;
        Ok(Tenant {
            name: name.into(),
            programs,
            embedding,
            base_tag,
            mem_base: None,
        })
    }

    /// Wraps pre-built symbolic programs (mutation probes, custom
    /// workloads).
    pub fn from_programs(
        name: impl Into<String>,
        programs: Vec<Vec<OpRecord>>,
        embedding: Vec<usize>,
        base_tag: u64,
    ) -> Tenant {
        Tenant {
            name: name.into(),
            programs,
            embedding,
            base_tag,
            mem_base: None,
        }
    }
}

/// K tenants embedded on one physical mesh — the unit of admission the
/// future multi-tenant executor must have verified before running.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The shared physical fabric.
    pub mesh: Mesh2D,
    /// The co-resident tenants.
    pub tenants: Vec<Tenant>,
}

impl Workload {
    /// A workload of `tenants` sharing `mesh`.
    pub fn new(mesh: Mesh2D, tenants: Vec<Tenant>) -> Workload {
        Workload { mesh, tenants }
    }

    /// Tenant `i`'s effective memory-window base.
    fn mem_base(&self, i: usize) -> usize {
        self.tenants[i].mem_base.unwrap_or(i << 56)
    }
}

/// A context in a diagnostic: which tenant, which of its logical
/// ranks, and the physical node that rank runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtxId {
    /// Tenant name.
    pub tenant: String,
    /// Logical rank within the tenant.
    pub rank: usize,
    /// Physical node the rank is embedded on.
    pub node: usize,
}

impl fmt::Display for CtxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}@n{}", self.tenant, self.rank, self.node)
    }
}

/// One violated cross-tenant invariant, with tenant attribution.
#[derive(Debug, Clone, PartialEq)]
pub enum ConcurrentViolation {
    /// A tenant's embedding is unusable: wrong length, node outside
    /// the mesh, or a node claimed twice within the tenant.
    BadEmbedding {
        /// Offending tenant.
        tenant: String,
        /// What is wrong with the embedding.
        detail: String,
    },
    /// Two tenants share a `(src node, dst node, tag residue)`
    /// match-candidate: some interleaving of some pair of their calls
    /// lets one tenant's send complete the other's receive.
    TagCollision {
        /// First tenant (workload order).
        tenant_a: String,
        /// Second tenant.
        tenant_b: String,
        /// Sending physical node of the shared candidate.
        src: usize,
        /// Receiving physical node.
        dst: usize,
        /// The shared tag residue (`tag mod CALL_TAG_STRIDE`).
        residue: u64,
    },
    /// A program's internal tag offsets spill past
    /// [`TENANT_TAG_STRIDE`], voiding the [`tenant_tag_base`]
    /// allocator's disjointness guarantee for adjacent tenants.
    TagSpanOverflow {
        /// Offending tenant.
        tenant: String,
        /// The out-of-range relative tag.
        rel_tag: u64,
    },
    /// The adversarial product matcher completed a transfer *across*
    /// tenants — concrete proof the tag spaces leak.
    CrossTenantMatch {
        /// Product-matcher step of the stolen transfer.
        step: usize,
        /// Sending context.
        src: CtxId,
        /// Receiving context (different tenant).
        dst: CtxId,
        /// The matching tag residue.
        residue: u64,
    },
    /// The product matcher stalled: no interleaving lets the workload
    /// make progress from this state.
    CrossDeadlock {
        /// Step at which the stall occurred.
        step: usize,
        /// Every stalled context's posted operation, human-readable.
        stuck: Vec<String>,
        /// A wait-for cycle with tenant attribution, when one exists.
        cycle: Option<Vec<CtxId>>,
    },
    /// A cross-tenant match-candidate disagrees on length.
    CrossLengthMismatch {
        /// Step of the attempted match.
        step: usize,
        /// Sending context.
        src: CtxId,
        /// Receiving context.
        dst: CtxId,
        /// Bytes posted by the sender.
        sent: usize,
        /// Bytes expected by the receiver.
        expected: usize,
    },
    /// Two tenants resident on one node touch overlapping bytes.
    BufferOverlap {
        /// The shared physical node.
        node: usize,
        /// First tenant.
        tenant_a: String,
        /// Second tenant.
        tenant_b: String,
        /// Overlapping span of `tenant_a` (window-rebased).
        a: MemSpan,
        /// Overlapping span of `tenant_b`.
        b: MemSpan,
    },
}

impl fmt::Display for ConcurrentViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcurrentViolation::BadEmbedding { tenant, detail } => {
                write!(f, "bad embedding for tenant {tenant}: {detail}")
            }
            ConcurrentViolation::TagCollision {
                tenant_a,
                tenant_b,
                src,
                dst,
                residue,
            } => write!(
                f,
                "tag collision between tenants {tenant_a} and {tenant_b}: both can match (n{src} -> n{dst}, tag ≡ {residue} mod {CALL_TAG_STRIDE})"
            ),
            ConcurrentViolation::TagSpanOverflow { tenant, rel_tag } => write!(
                f,
                "tenant {tenant} uses relative tag {rel_tag} ≥ TENANT_TAG_STRIDE ({TENANT_TAG_STRIDE}); default tag bases no longer isolate it"
            ),
            ConcurrentViolation::CrossTenantMatch {
                step,
                src,
                dst,
                residue,
            } => write!(
                f,
                "cross-tenant match at step {step}: {src} send completed {dst} recv (tag ≡ {residue})"
            ),
            ConcurrentViolation::CrossDeadlock { step, stuck, cycle } => {
                write!(f, "cross-program deadlock at step {step}: {}", stuck.join("; "))?;
                if let Some(c) = cycle {
                    let c: Vec<String> = c.iter().map(|x| x.to_string()).collect();
                    write!(f, " [wait cycle {}]", c.join(" -> "))?;
                }
                Ok(())
            }
            ConcurrentViolation::CrossLengthMismatch {
                step,
                src,
                dst,
                sent,
                expected,
            } => write!(
                f,
                "length mismatch at step {step}: {src} sent {sent}B, {dst} expected {expected}B"
            ),
            ConcurrentViolation::BufferOverlap {
                node,
                tenant_a,
                tenant_b,
                a,
                b,
            } => write!(
                f,
                "buffer overlap on node {node}: tenant {tenant_a} [{:#x}+{}] vs tenant {tenant_b} [{:#x}+{}]",
                a.addr, a.len, b.addr, b.len
            ),
        }
    }
}

/// The result of verifying one multi-tenant workload.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Physical mesh shape `(rows, cols)`.
    pub mesh: (usize, usize),
    /// Tenant names, workload order.
    pub tenants: Vec<String>,
    /// Synchronous steps of the product schedule (0 when matching
    /// failed or was skipped).
    pub steps: usize,
    /// Matched transfers across all tenants.
    pub event_count: usize,
    /// Composite link-contention bound for the cost model.
    pub contention: CompositeContention,
    /// The directed link achieving `contention.composite_max`.
    pub worst_link: Option<String>,
    /// Every violated invariant; empty means the workload is proven
    /// non-interfering.
    pub violations: Vec<ConcurrentViolation>,
}

impl ConcurrentReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ConcurrentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workload [{}] on {}x{} mesh: {} steps, {} events, composite link sharing {} (solo max {}, factor {:.2})",
            self.tenants.join(", "),
            self.mesh.0,
            self.mesh.1,
            self.steps,
            self.event_count,
            self.contention.composite_max,
            self.contention.solo_max,
            self.contention.contention_factor(),
        )?;
        if let Some(l) = &self.worst_link {
            write!(f, " on link {l}")?;
        }
        if self.violations.is_empty() {
            write!(f, " — OK")
        } else {
            for v in &self.violations {
                write!(f, "\n  VIOLATION: {v}")?;
            }
            Ok(())
        }
    }
}

/// A tag reduced to its residue class mod [`CALL_TAG_STRIDE`]: the
/// invariant of a communicator's tag under successive calls.
fn residue(base: u64, rel: Tag) -> u64 {
    (base.wrapping_add(rel)) % CALL_TAG_STRIDE
}

fn rebase(span: MemSpan, base: usize) -> MemSpan {
    MemSpan {
        addr: base + span.addr,
        len: span.len,
    }
}

/// Every `(src node, dst node, residue)` a tenant's sends or receives
/// can take part in, plus its largest relative tag.
fn match_candidates(t: &Tenant) -> (BTreeSet<(usize, usize, u64)>, u64) {
    let mut keys = BTreeSet::new();
    let mut max_rel = 0u64;
    for (rank, prog) in t.programs.iter().enumerate() {
        let me = t.embedding[rank];
        for op in prog {
            match *op {
                OpRecord::Send { to, tag, .. } => {
                    max_rel = max_rel.max(tag);
                    keys.insert((me, t.embedding[to], residue(t.base_tag, tag)));
                }
                OpRecord::Recv { from, tag, .. } => {
                    max_rel = max_rel.max(tag);
                    keys.insert((t.embedding[from], me, residue(t.base_tag, tag)));
                }
                OpRecord::SendRecv { to, from, tag, .. } => {
                    max_rel = max_rel.max(tag);
                    keys.insert((me, t.embedding[to], residue(t.base_tag, tag)));
                    keys.insert((t.embedding[from], me, residue(t.base_tag, tag)));
                }
                _ => {}
            }
        }
    }
    (keys, max_rel)
}

/// Embedding sanity for one tenant; pushes [`ConcurrentViolation::BadEmbedding`].
fn check_embedding(t: &Tenant, mesh: &Mesh2D, out: &mut Vec<ConcurrentViolation>) -> bool {
    let mut ok = true;
    if t.embedding.len() != t.programs.len() {
        out.push(ConcurrentViolation::BadEmbedding {
            tenant: t.name.clone(),
            detail: format!(
                "{} ranks but {} embedded nodes",
                t.programs.len(),
                t.embedding.len()
            ),
        });
        ok = false;
    }
    let mut seen = BTreeSet::new();
    for (r, &n) in t.embedding.iter().enumerate() {
        if n >= mesh.nodes() {
            out.push(ConcurrentViolation::BadEmbedding {
                tenant: t.name.clone(),
                detail: format!(
                    "rank {r} embedded on node {n} outside the {} mesh",
                    mesh.nodes()
                ),
            });
            ok = false;
        }
        if !seen.insert(n) {
            out.push(ConcurrentViolation::BadEmbedding {
                tenant: t.name.clone(),
                detail: format!("node {n} claimed by two ranks"),
            });
            ok = false;
        }
    }
    ok
}

/// One (tenant, rank) execution context of the product matcher.
struct Ctx {
    tenant: usize,
    rank: usize,
    node: usize,
    pc: usize,
    cur: Current,
}

impl Ctx {
    fn id(&self, w: &Workload) -> CtxId {
        CtxId {
            tenant: w.tenants[self.tenant].name.clone(),
            rank: self.rank,
            node: self.node,
        }
    }
}

/// The product construction: all tenants' contexts advance under one
/// rendezvous matcher on physical nodes, with cross-tenant candidates
/// *preferred* (adversarial interleaving). Returns the composite
/// schedule dimensions and appends any violations found.
fn product_match(w: &Workload, violations: &mut Vec<ConcurrentViolation>) -> (usize, Vec<Event>) {
    let mut ctxs: Vec<Ctx> = Vec::new();
    for (ti, t) in w.tenants.iter().enumerate() {
        for (rank, prog) in t.programs.iter().enumerate() {
            let mut pc = 0;
            let cur = load(prog, &mut pc);
            ctxs.push(Ctx {
                tenant: ti,
                rank,
                node: t.embedding[rank],
                pc,
                cur,
            });
        }
    }
    let mut events = Vec::new();
    let mut step = 0usize;
    loop {
        if ctxs.iter().all(|c| c.cur.done()) {
            break;
        }
        // Matches are decided against the round-start state (nothing is
        // mutated until all pairs are chosen); each posted receive is
        // claimed at most once per round.
        let mut claimed = vec![false; ctxs.len()];
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for i in 0..ctxs.len() {
            let Some(sh) = ctxs[i].cur.send else { continue };
            let st = &w.tenants[ctxs[i].tenant];
            let dst_node = st.embedding[sh.peer];
            let stag = residue(st.base_tag, sh.tag);
            // Adversarial choice: a cross-tenant candidate wins over the
            // tenant's own partner, because some interleaving realizes
            // the steal — and the induced downstream damage must be
            // explored, not assumed away.
            let mut best: Option<(usize, bool)> = None;
            for (j, c) in ctxs.iter().enumerate() {
                if claimed[j] || c.node != dst_node {
                    continue;
                }
                let Some(rh) = c.cur.recv else { continue };
                let rt = &w.tenants[c.tenant];
                if rt.embedding[rh.peer] != ctxs[i].node || residue(rt.base_tag, rh.tag) != stag {
                    continue;
                }
                let cross = c.tenant != ctxs[i].tenant;
                match best {
                    Some((_, true)) => {}
                    Some((_, false)) if cross => best = Some((j, true)),
                    Some(_) => {}
                    None => best = Some((j, cross)),
                }
            }
            let Some((j, cross)) = best else { continue };
            let rh = ctxs[j].cur.recv.expect("candidate recv present");
            if cross {
                violations.push(ConcurrentViolation::CrossTenantMatch {
                    step,
                    src: ctxs[i].id(w),
                    dst: ctxs[j].id(w),
                    residue: stag,
                });
            }
            if sh.span.len != rh.span.len {
                violations.push(ConcurrentViolation::CrossLengthMismatch {
                    step,
                    src: ctxs[i].id(w),
                    dst: ctxs[j].id(w),
                    sent: sh.span.len,
                    expected: rh.span.len,
                });
                return (step, events);
            }
            claimed[j] = true;
            pairs.push((i, j));
        }
        if pairs.is_empty() {
            violations.push(cross_deadlock(w, step, &ctxs));
            return (step, events);
        }
        for &(i, j) in &pairs {
            let sh = ctxs[i].cur.send.take().expect("matched send half");
            let rh = ctxs[j].cur.recv.take().expect("matched recv half");
            let (src, dst) = (ctxs[i].node, ctxs[j].node);
            events.push(Event {
                step,
                src,
                dst,
                tag: residue(w.tenants[ctxs[i].tenant].base_tag, sh.tag),
                bytes: sh.span.len,
                read: rebase(sh.span, w.mem_base(ctxs[i].tenant)),
                write: rebase(rh.span, w.mem_base(ctxs[j].tenant)),
            });
        }
        for c in &mut ctxs {
            if c.cur.done() {
                c.cur = load(&w.tenants[c.tenant].programs[c.rank], &mut c.pc);
            }
        }
        step += 1;
    }
    (step, events)
}

/// Builds the cross-program deadlock report: every stalled context's
/// posted operation plus a tenant-attributed wait-for cycle. Wait edges
/// follow each context's first pending half to a context on the peer
/// node, preferring a *complementary* half (a recv for our send, a
/// send for our recv, tags ignored — the peer occupies the port we
/// need) and, among those, a *cross-tenant* one: when a foreign tenant
/// is what the context is actually stuck behind, the cycle should say
/// so.
fn cross_deadlock(w: &Workload, step: usize, ctxs: &[Ctx]) -> ConcurrentViolation {
    let mut stuck = Vec::new();
    let mut waits: Vec<Option<usize>> = vec![None; ctxs.len()];
    for (i, c) in ctxs.iter().enumerate() {
        if c.cur.done() {
            continue;
        }
        let t = &w.tenants[c.tenant];
        let mut desc = format!("{}:", c.id(w));
        if let Some(h) = c.cur.send {
            desc.push_str(&format!(
                " send(to=n{}, tag={}, {}B)",
                t.embedding[h.peer],
                residue(t.base_tag, h.tag),
                h.span.len
            ));
        }
        if let Some(h) = c.cur.recv {
            desc.push_str(&format!(
                " recv(from=n{}, tag={}, {}B)",
                t.embedding[h.peer],
                residue(t.base_tag, h.tag),
                h.span.len
            ));
        }
        stuck.push(desc);
        // First pending half decides the wait target.
        let (peer_node, want_recv) = if let Some(h) = c.cur.send {
            (t.embedding[h.peer], true)
        } else if let Some(h) = c.cur.recv {
            (t.embedding[h.peer], false)
        } else {
            unreachable!("not done")
        };
        let mut best: Option<(usize, bool, bool)> = None; // (ctx, complementary, cross)
        for (j, o) in ctxs.iter().enumerate() {
            if j == i || o.node != peer_node || o.cur.done() {
                continue;
            }
            let ot = &w.tenants[o.tenant];
            let complementary = if want_recv {
                o.cur.recv.is_some_and(|rh| ot.embedding[rh.peer] == c.node)
            } else {
                o.cur.send.is_some_and(|sh| ot.embedding[sh.peer] == c.node)
            };
            let cross = o.tenant != c.tenant;
            let better = match best {
                None => true,
                Some((_, bc, bx)) => (complementary, cross) > (bc, bx),
            };
            if better {
                best = Some((j, complementary, cross));
            }
        }
        waits[i] = best.map(|(j, _, _)| j);
    }
    // Walk wait edges from the lowest stuck context; a repeat closes a
    // cycle.
    let mut cycle = None;
    if let Some(start) = waits.iter().position(Option::is_some) {
        let mut order = vec![usize::MAX; ctxs.len()];
        let mut path: Vec<usize> = Vec::new();
        let mut at = start;
        while let Some(next) = waits[at] {
            if order[at] != usize::MAX {
                cycle = Some(path[order[at]..].iter().map(|&k| ctxs[k].id(w)).collect());
                break;
            }
            order[at] = path.len();
            path.push(at);
            at = next;
        }
    }
    ConcurrentViolation::CrossDeadlock { step, stuck, cycle }
}

/// One tenant's merged, window-rebased byte intervals on one node.
type TenantIntervals = (usize, Vec<(usize, usize)>);

/// Per-(tenant, node) merged byte intervals (window-rebased), then
/// pairwise cross-tenant intersection per node.
fn check_buffers(w: &Workload, violations: &mut Vec<ConcurrentViolation>) {
    // For each node, the list of (tenant, merged intervals).
    let mut per_node: HashMap<usize, Vec<TenantIntervals>> = HashMap::new();
    for (ti, t) in w.tenants.iter().enumerate() {
        let base = w.mem_base(ti);
        for (rank, prog) in t.programs.iter().enumerate() {
            let mut spans: Vec<(usize, usize)> = Vec::new();
            let mut push = |s: MemSpan| {
                if s.len > 0 {
                    spans.push((base + s.addr, base + s.addr + s.len));
                }
            };
            for op in prog {
                match *op {
                    OpRecord::Send { src, .. } => push(src),
                    OpRecord::Recv { dst, .. } => push(dst),
                    OpRecord::SendRecv { src, dst, .. } => {
                        push(src);
                        push(dst);
                    }
                    OpRecord::Copy { src, dst } => {
                        push(src);
                        push(dst);
                    }
                    OpRecord::Reduce { acc, other } => {
                        push(acc);
                        push(other);
                    }
                    OpRecord::Permute { region, held, .. } => {
                        push(region);
                        push(held);
                    }
                    _ => {}
                }
            }
            if spans.is_empty() {
                continue;
            }
            spans.sort_unstable();
            let mut merged: Vec<(usize, usize)> = Vec::new();
            for (s, e) in spans {
                match merged.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            per_node
                .entry(t.embedding[rank])
                .or_default()
                .push((ti, merged));
        }
    }
    let mut nodes: Vec<_> = per_node.into_iter().collect();
    nodes.sort_unstable_by_key(|(n, _)| *n);
    for (node, residents) in nodes {
        for (i, (ta, ia)) in residents.iter().enumerate() {
            for (tb, ib) in &residents[i + 1..] {
                if ta == tb {
                    continue;
                }
                if let Some((a, b)) = first_intersection(ia, ib) {
                    violations.push(ConcurrentViolation::BufferOverlap {
                        node,
                        tenant_a: w.tenants[*ta].name.clone(),
                        tenant_b: w.tenants[*tb].name.clone(),
                        a,
                        b,
                    });
                }
            }
        }
    }
}

/// First overlapping pair between two sorted disjoint interval lists.
fn first_intersection(a: &[(usize, usize)], b: &[(usize, usize)]) -> Option<(MemSpan, MemSpan)> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (as_, ae) = a[i];
        let (bs, be) = b[j];
        if as_ < be && bs < ae {
            return Some((
                MemSpan {
                    addr: as_,
                    len: ae - as_,
                },
                MemSpan {
                    addr: bs,
                    len: be - bs,
                },
            ));
        }
        if ae <= bs {
            i += 1;
        } else {
            j += 1;
        }
    }
    None
}

/// Composite link contention: each tenant's solo schedule is XY-routed
/// on the shared mesh; a link's worst case over all interleavings is
/// the **sum of the tenants' own peaks** on it, since every tenant
/// advances through its steps independently of the others.
fn composite_contention(w: &Workload) -> (CompositeContention, Option<String>) {
    let mut loads = Vec::new();
    let mut composite: HashMap<LinkId, usize> = HashMap::new();
    for t in &w.tenants {
        let mut solo_peak = 0usize;
        let mut tenant_peaks: HashMap<LinkId, usize> = HashMap::new();
        // A tenant whose solo match fails contributes no contention;
        // the product matcher reports the stall itself.
        if let Ok(s) = match_programs(&t.programs) {
            let mut step_counts: HashMap<(usize, LinkId), usize> = HashMap::new();
            for e in &s.events {
                let (src, dst) = (t.embedding[e.src], t.embedding[e.dst]);
                for l in route_xy(&w.mesh, src, dst) {
                    *step_counts.entry((e.step, l)).or_insert(0) += 1;
                }
            }
            for ((_, l), c) in step_counts {
                let p = tenant_peaks.entry(l).or_insert(0);
                *p = (*p).max(c);
            }
            solo_peak = tenant_peaks.values().copied().max().unwrap_or(0);
            for (l, p) in tenant_peaks {
                *composite.entry(l).or_insert(0) += p;
            }
        }
        loads.push(TenantLoad {
            name: t.name.clone(),
            solo_peak,
        });
    }
    let worst = composite
        .iter()
        .max_by(|a, b| {
            a.1.cmp(b.1)
                .then_with(|| b.0.to_string().cmp(&a.0.to_string()))
        })
        .map(|(l, &c)| (l.to_string(), c));
    let composite_max = worst.as_ref().map_or(0, |(_, c)| *c);
    (
        CompositeContention::new(loads, composite_max),
        worst.map(|(l, _)| l),
    )
}

/// Statically verifies a multi-tenant [`Workload`]: tag-space
/// disjointness, cross-program deadlock-freedom under adversarial
/// interleaving, per-node buffer non-interference, and the composite
/// link-contention bound. The future multi-tenant executor must call
/// this (and see [`ConcurrentReport::ok`]) before admitting a plan set
/// to the fabric.
pub fn verify_concurrent(workload: &Workload) -> ConcurrentReport {
    let w = workload;
    let mut violations = Vec::new();
    let mut embeddings_ok = true;
    for t in &w.tenants {
        embeddings_ok &= check_embedding(t, &w.mesh, &mut violations);
    }
    if !embeddings_ok {
        // Nothing else is meaningful on a broken placement.
        return ConcurrentReport {
            mesh: (w.mesh.rows(), w.mesh.cols()),
            tenants: w.tenants.iter().map(|t| t.name.clone()).collect(),
            steps: 0,
            event_count: 0,
            contention: CompositeContention::new(Vec::new(), 0),
            worst_link: None,
            violations,
        };
    }

    // (1) Tag-space disjointness on residues mod CALL_TAG_STRIDE.
    let candidates: Vec<_> = w.tenants.iter().map(match_candidates).collect();
    for (t, (_, max_rel)) in w.tenants.iter().zip(&candidates) {
        if *max_rel >= TENANT_TAG_STRIDE {
            violations.push(ConcurrentViolation::TagSpanOverflow {
                tenant: t.name.clone(),
                rel_tag: *max_rel,
            });
        }
    }
    for i in 0..w.tenants.len() {
        for j in i + 1..w.tenants.len() {
            if let Some(&(src, dst, residue)) =
                candidates[i].0.intersection(&candidates[j].0).next()
            {
                violations.push(ConcurrentViolation::TagCollision {
                    tenant_a: w.tenants[i].name.clone(),
                    tenant_b: w.tenants[j].name.clone(),
                    src,
                    dst,
                    residue,
                });
            }
        }
    }

    // (3) Buffer non-interference per node.
    check_buffers(w, &mut violations);

    // (4) Composite link contention (reported, never a violation).
    let (contention, worst_link) = composite_contention(w);

    // (2) Cross-program deadlock-freedom, adversarial product matcher.
    let (steps, events) = product_match(w, &mut violations);

    ConcurrentReport {
        mesh: (w.mesh.rows(), w.mesh.cols()),
        tenants: w.tenants.iter().map(|t| t.name.clone()).collect(),
        steps,
        event_count: events.len(),
        contention,
        worst_link,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom::ir::PlanOp;

    fn span(addr: usize, len: usize) -> MemSpan {
        MemSpan { addr, len }
    }

    fn send(to: usize, tag: u64, addr: usize) -> OpRecord {
        OpRecord::Send {
            to,
            tag,
            src: span(addr, 8),
        }
    }

    fn recv(from: usize, tag: u64, addr: usize) -> OpRecord {
        OpRecord::Recv {
            from,
            tag,
            dst: span(addr, 8),
        }
    }

    #[test]
    fn disjoint_rows_verify_clean() {
        let mesh = Mesh2D::new(3, 3);
        let st = Strategy::pure_long(3);
        let tenants: Vec<Tenant> = (0..3)
            .map(|r| {
                Tenant::lowered(
                    format!("row{r}"),
                    &PlanOp::Collect,
                    Some(&st),
                    6,
                    intercom::groups::row_members(&mesh, r),
                    tenant_tag_base(r),
                )
                .unwrap()
            })
            .collect();
        let report = verify_concurrent(&Workload::new(mesh, tenants));
        assert!(report.ok(), "unexpected violations: {report}");
        assert!(report.contention.interference_free());
        assert!(report.steps > 0);
    }

    #[test]
    fn same_base_full_overlap_collides() {
        let mesh = Mesh2D::new(2, 2);
        let st = Strategy::pure_mst(4);
        let mk = |name: &str| {
            Tenant::lowered(
                name,
                &PlanOp::Broadcast { root: 0 },
                Some(&st),
                4,
                vec![0, 1, 2, 3],
                0, // identical base: residues collide
            )
            .unwrap()
        };
        let report = verify_concurrent(&Workload::new(mesh, vec![mk("a"), mk("b")]));
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, ConcurrentViolation::TagCollision { .. })),
            "expected tag collision: {report}"
        );
        // The adversarial matcher must realize at least one steal.
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, ConcurrentViolation::CrossTenantMatch { .. })));
    }

    #[test]
    fn distinct_bases_full_overlap_verify_clean() {
        let mesh = Mesh2D::new(2, 2);
        let st = Strategy::pure_mst(4);
        let mk = |i: usize| {
            Tenant::lowered(
                format!("t{i}"),
                &PlanOp::Broadcast { root: 0 },
                Some(&st),
                4,
                vec![0, 1, 2, 3],
                tenant_tag_base(i),
            )
            .unwrap()
        };
        let report = verify_concurrent(&Workload::new(mesh, vec![mk(0), mk(1)]));
        assert!(report.ok(), "unexpected violations: {report}");
        // Fully-overlapping tenants share links; contention must say so.
        assert!(report.contention.composite_max >= 2);
        assert!(!report.contention.interference_free());
    }

    #[test]
    fn shared_mem_base_is_a_buffer_overlap() {
        let mesh = Mesh2D::new(2, 2);
        let st = Strategy::pure_mst(4);
        let mk = |i: usize| {
            let mut t = Tenant::lowered(
                format!("t{i}"),
                &PlanOp::Broadcast { root: 0 },
                Some(&st),
                4,
                vec![0, 1, 2, 3],
                tenant_tag_base(i),
            )
            .unwrap();
            t.mem_base = Some(0); // both tenants claim the same window
            t
        };
        let report = verify_concurrent(&Workload::new(mesh, vec![mk(0), mk(1)]));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, ConcurrentViolation::BufferOverlap { .. })));
    }

    #[test]
    fn cross_tenant_wait_cycle_is_attributed() {
        // Tenant a (nodes 0,1): rank 0 receives, rank 1's send tag is
        // broken. Tenant b (embedded the other way around): rank 0's
        // send tag is broken, rank 1 receives. Nothing can match; the
        // cycle must span both tenants.
        let a = Tenant::from_programs(
            "a",
            vec![vec![recv(1, 1, 0)], vec![send(0, 3, 0)]],
            vec![0, 1],
            tenant_tag_base(0),
        );
        let b = Tenant::from_programs(
            "b",
            vec![vec![send(1, 7, 0)], vec![recv(0, 2, 0)]],
            vec![1, 0],
            tenant_tag_base(1),
        );
        let report = verify_concurrent(&Workload::new(Mesh2D::new(1, 2), vec![a, b]));
        let dead = report
            .violations
            .iter()
            .find_map(|v| match v {
                ConcurrentViolation::CrossDeadlock { stuck, cycle, .. } => {
                    Some((stuck.clone(), cycle.clone()))
                }
                _ => None,
            })
            .expect("deadlock expected");
        assert_eq!(dead.0.len(), 4, "all four contexts stall");
        let cycle = dead.1.expect("wait cycle expected");
        let tenants: BTreeSet<&str> = cycle.iter().map(|c| c.tenant.as_str()).collect();
        assert!(tenants.len() >= 2, "cycle must span tenants: {cycle:?}");
    }

    #[test]
    fn duplicate_node_embedding_rejected() {
        let t = Tenant::from_programs(
            "dup",
            vec![vec![send(1, 0, 0)], vec![recv(0, 0, 0)]],
            vec![0, 0],
            0,
        );
        let report = verify_concurrent(&Workload::new(Mesh2D::new(1, 2), vec![t]));
        assert!(matches!(
            report.violations.first(),
            Some(ConcurrentViolation::BadEmbedding { .. })
        ));
    }

    #[test]
    fn interleaved_groups_share_a_link_without_violation() {
        // Groups {0,2} and {1,3} on a 1x4 array: each a single hop-2
        // send, both crossing link n1→E. Legal (disjoint tags, disjoint
        // buffers) but contended: composite 2, solo 1.
        let a = Tenant::from_programs(
            "even",
            vec![vec![send(1, 0, 0)], vec![recv(0, 0, 0)]],
            vec![0, 2],
            tenant_tag_base(0),
        );
        let b = Tenant::from_programs(
            "odd",
            vec![vec![send(1, 0, 0)], vec![recv(0, 0, 0)]],
            vec![1, 3],
            tenant_tag_base(1),
        );
        let report = verify_concurrent(&Workload::new(Mesh2D::new(1, 4), vec![a, b]));
        assert!(report.ok(), "unexpected violations: {report}");
        assert_eq!(report.contention.solo_max, 1);
        assert_eq!(report.contention.composite_max, 2);
        assert_eq!(report.contention.contention_factor(), 2.0);
    }

    #[test]
    fn residue_check_covers_successive_calls() {
        // Bases CALL_TAG_STRIDE apart are *equal mod the stride*: call
        // k of one tenant aliases call k+1 of the other. The residue
        // check must flag this even though the absolute tags differ.
        let a = Tenant::from_programs(
            "calls0",
            vec![vec![send(1, 0, 0)], vec![recv(0, 0, 0)]],
            vec![0, 1],
            0,
        );
        let b = Tenant::from_programs(
            "calls1",
            vec![vec![send(1, 0, 0)], vec![recv(0, 0, 0)]],
            vec![0, 1],
            CALL_TAG_STRIDE,
        );
        let report = verify_concurrent(&Workload::new(Mesh2D::new(1, 2), vec![a, b]));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, ConcurrentViolation::TagCollision { .. })));
    }
}
