//! The verification driver: produce programs → match → check → verdict.

use crate::checks::{
    analyze_links, check_buffer_safety, check_permutations, check_program_aliasing,
    check_single_port, Violation,
};
use crate::extract::extract_programs_under;
use crate::ir::programs_of;
use crate::schedule::match_programs;
use intercom::algorithms::LEVEL_TAG_STRIDE;
use intercom::hier::HIER_STAGE_STRIDE;
use intercom::ir::{lower, lower_hier, optimize, OptStats, PlanOp};
use intercom::trace::OpRecord;
use intercom::{CommError, Result, Tag};
use intercom_cost::{ConflictModel, HierChoice, HierStrategy, Strategy};
use intercom_topology::{Cluster, Mesh2D};
use std::fmt;

/// Where the verified per-rank programs came from. Every source applies
/// to flat and hierarchical calls alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The compiled schedule IR ([`intercom::ir::lower`] /
    /// [`intercom::ir::lower_hier`]): the audit proves properties of
    /// the artifact the runtime actually executes.
    Ir,
    /// The *optimized* schedule IR: the same compiled artifact after
    /// the [`intercom::ir::optimize`] pass pipeline — what an
    /// [`OptLevel::Full`](intercom::ir::OptLevel) plan runs. Every
    /// rewrite the optimizer performs is re-proven against the same
    /// four invariants as the unoptimized program.
    IrOpt,
    /// Trace extraction against a recording backend
    /// ([`crate::extract::extract_programs_under`]): an independent
    /// cross-check on the lowering.
    Trace,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Source::Ir => "ir",
            Source::IrOpt => "ir-opt",
            Source::Trace => "trace",
        })
    }
}

/// Observed vs. cost-model-predicted link sharing for one recursion
/// level of a hybrid strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConflict {
    /// Recursion level (`tag / LEVEL_TAG_STRIDE` = logical dim index).
    pub level: u64,
    /// Maximum same-step per-link sharing within any single stage (tag)
    /// of this level.
    pub observed: usize,
    /// `⌈conflict_factor⌉` for the level's dimension (§6).
    pub predicted: usize,
}

/// The result of verifying one collective call on one machine shape.
#[derive(Debug, Clone)]
pub struct Report {
    /// Display form of the verified collective.
    pub op: String,
    /// The hybrid strategy, for strategy collectives.
    pub strategy: Option<Strategy>,
    /// The hierarchical strategy, for cluster collectives.
    pub hier: Option<HierStrategy>,
    /// Physical mesh shape `(rows, cols)`.
    pub mesh: (usize, usize),
    /// Size parameter passed to the collective (see
    /// [`PlanOp::args`] for its unit).
    pub n: usize,
    /// Where the verified programs came from.
    pub source: Source,
    /// Synchronous steps in the matched schedule (0 when matching failed).
    pub steps: usize,
    /// Matched transfers in the schedule.
    pub event_count: usize,
    /// Maximum same-step sharing of any directed link.
    pub max_link_sharing: usize,
    /// Per-level observed vs. predicted sharing (strategy collectives).
    pub levels: Vec<LevelConflict>,
    /// Whether no two same-step messages ever shared a directed link
    /// (the §4 sense of "conflict-free"). Hybrids with a cost-model
    /// conflict factor above 1 may be valid without being conflict-free.
    pub conflict_free: bool,
    /// Every violated invariant; empty means the schedule is proven.
    pub violations: Vec<Violation>,
}

impl Report {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}x{} mesh, n={} [{}]",
            self.op, self.mesh.0, self.mesh.1, self.n, self.source
        )?;
        if let Some(st) = &self.strategy {
            write!(f, ", strategy {st}")?;
        }
        if let Some(hs) = &self.hier {
            write!(f, ", hier {hs}")?;
        }
        write!(
            f,
            ": {} steps, {} events, max link sharing {}{}",
            self.steps,
            self.event_count,
            self.max_link_sharing,
            if self.conflict_free {
                " (conflict-free)"
            } else {
                ""
            }
        )?;
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

/// Verifies one flat collective call statically from its **compiled
/// schedule IR** on `mesh`, world rank `r` on mesh node `r`: the
/// audit's default path. See [`verify_schedule_from`].
pub fn verify_schedule_ir(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    mesh: &Mesh2D,
    n: usize,
) -> Result<Report> {
    verify_flat(op, strategy, mesh, n, Source::Ir)
}

/// Verifies one flat collective call statically from a **trace
/// extraction** on `mesh`, world rank `r` on mesh node `r` (matching
/// `Communicator::world_on_mesh`). See [`verify_schedule_from`].
pub fn verify_schedule(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    mesh: &Mesh2D,
    n: usize,
) -> Result<Report> {
    verify_flat(op, strategy, mesh, n, Source::Trace)
}

fn verify_flat(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    mesh: &Mesh2D,
    n: usize,
    source: Source,
) -> Result<Report> {
    let choice = strategy.map(|s| HierChoice::Flat(s.clone()));
    let machine = Cluster::new(*mesh, 1);
    verify_schedule_from(op, choice.as_ref(), &machine, n, source).map(|(r, _)| r)
}

/// Verifies one collective call statically: produces every rank's
/// symbolic program from `source` — lowering the call to a
/// [`CollectiveProgram`](intercom::ir::CollectiveProgram) (the very
/// artifact persistent plans execute), optionally running the
/// [`optimize`] pass pipeline over it, or replaying the unmodified
/// algorithm code against a recording backend — and runs
/// [`verify_programs`] on the result. The optimizer's per-pass rewrite
/// counts come back alongside the report (all zero unless `source` is
/// [`Source::IrOpt`]).
///
/// `machine` is where the call runs: a flat mesh is a cluster with one
/// rank per node, and a hierarchical `choice` must be for the
/// cluster's own shape.
///
/// `Err` is returned only when producing the programs fails (the
/// algorithm rejected its arguments, the op has no hierarchical
/// template, or the strategy failed validation); invariant failures
/// land in [`Report::violations`].
pub fn verify_schedule_from(
    op: &PlanOp,
    choice: Option<&HierChoice>,
    machine: &Cluster,
    n: usize,
    source: Source,
) -> Result<(Report, OptStats)> {
    let p = machine.ranks();
    if let Some(HierChoice::Hier(hs)) = choice {
        let (inter, s) = (machine.inter(), hs.shape());
        if (s.inter_rows, s.inter_cols, s.ranks_per_node)
            != (inter.rows(), inter.cols(), machine.ranks_per_node())
        {
            return Err(CommError::StrategyMismatch {
                strategy_nodes: s.ranks(),
                group_len: p,
            });
        }
    }
    let mut stats = OptStats::default();
    let programs = if source == Source::Trace {
        extract_programs_under(op, choice, p, n)?
    } else {
        let mut prog = match choice {
            Some(HierChoice::Hier(hs)) => lower_hier(*op, hs, n, 1)?,
            Some(HierChoice::Flat(st)) => lower(*op, Some(st), p, n, 1)?,
            None => lower(*op, None, p, n, 1)?,
        };
        if source == Source::IrOpt {
            (prog, stats) = optimize(&prog);
        }
        programs_of(&prog)
    };
    let report = verify_programs(op, choice, machine, n, &programs, source);
    Ok((report, stats))
}

/// The same-step sharing the §6 cost model predicts among the messages
/// of one tag, or `None` for a strategy-free call.
///
/// Flat strategies recurse one logical dimension per
/// [`LEVEL_TAG_STRIDE`] of tag, so the level's entry of the strategy's
/// conflict profile applies. Hierarchical stages each occupy their own
/// tag band (`tag = stage · HIER_STAGE_STRIDE + inner`), gated by *that
/// stage's* flat strategy; the strategy-free laminar gather/scatter
/// legs must be conflict-free. Stage subgroups embed with their
/// structure intact — an intra-node column segment and a linear-inter
/// leader plane are physical lines, a 2-D inter mesh keeps its
/// rows/columns — so each stage is profiled exactly as a flat strategy
/// would be. `link_excess = 1`: one message per link per direction, the
/// Delta/Paragon assumption of §2.
fn predicted_sharing(op: &PlanOp, choice: Option<&HierChoice>) -> Option<impl Fn(Tag) -> usize> {
    // Mesh-mapped strategies use the rows/columns model (§7.1);
    // linear-array strategies the generic stride model.
    let profile = |st: &Strategy| {
        let model = if st.mesh_split.is_some() {
            ConflictModel::MeshRowsCols
        } else {
            ConflictModel::LinearArray
        };
        st.conflict_profile(model, 1.0)
    };
    let (stride, stages): (Tag, Vec<Option<Vec<f64>>>) = match choice {
        Some(HierChoice::Hier(hs)) => (
            HIER_STAGE_STRIDE,
            hs.stages().map(|(_, st)| st.map(profile)).collect(),
        ),
        // A flat call is one stage spanning the whole tag space.
        Some(HierChoice::Flat(st)) if op.takes_strategy() => (Tag::MAX, vec![Some(profile(st))]),
        _ => return None,
    };
    Some(move |tag: Tag| {
        let inner = ((tag % stride) / LEVEL_TAG_STRIDE) as usize;
        match stages.get((tag / stride) as usize) {
            Some(Some(profile)) => profile.get(inner).copied().unwrap_or(1.0).ceil() as usize,
            _ => 1,
        }
    })
}

/// The shared checking pipeline: match per-rank symbolic programs into
/// a synchronous schedule and run every invariant, whether the programs
/// came from the compiled IR or a trace, and whether the call is flat
/// or hierarchical. Two inputs carry that difference: the placement —
/// rank `r` sits on `machine.phys_node(r)` of `machine.phys_mesh()`,
/// which for a mesh (one rank per node) is node `r` of the mesh itself
/// — and the per-tag predicted sharing ([`predicted_sharing`]).
///
/// Link conflicts are gated per *stage* (per tag): the §6 formulas
/// account each stage's β term separately, so its conflict factor
/// bounds the sharing among that stage's own messages. Sharing
/// *between* stages — a scatter tail overlapping a collect head when
/// blocking ranks drift apart (e.g. `(9, SC)` broadcast on a 3×3 mesh)
/// — is transient pipeline skew inherent to blocking execution,
/// reported via `max_link_sharing`/`conflict_free` but not a violation.
pub fn verify_programs(
    op: &PlanOp,
    choice: Option<&HierChoice>,
    machine: &Cluster,
    n: usize,
    programs: &[Vec<OpRecord>],
    source: Source,
) -> Report {
    let mesh = machine.phys_mesh();
    let (strategy, hier) = match choice {
        Some(HierChoice::Flat(s)) => (Some(s.clone()), None),
        Some(HierChoice::Hier(h)) => (None, Some(h.clone())),
        None => (None, None),
    };
    let mut report = Report {
        op: op.to_string(),
        strategy,
        hier,
        mesh: (mesh.rows(), mesh.cols()),
        n,
        source,
        steps: 0,
        event_count: 0,
        max_link_sharing: 0,
        levels: Vec::new(),
        conflict_free: false,
        violations: [
            check_program_aliasing(programs),
            check_permutations(programs),
        ]
        .concat(),
    };
    let mut schedule = match match_programs(programs) {
        Ok(s) => s,
        Err(v) => {
            report.violations.push(v);
            return report;
        }
    };
    report.steps = schedule.steps;
    report.event_count = schedule.events.len();
    report.violations.extend(check_single_port(&schedule));
    report.violations.extend(check_buffer_safety(&schedule));

    for e in &mut schedule.events {
        e.src = machine.phys_node(e.src);
        e.dst = machine.phys_node(e.dst);
    }
    let la = analyze_links(&schedule, &mesh);
    report.max_link_sharing = la.max_sharing;
    report.conflict_free = la.max_sharing <= 1;

    if let Some(predicted) = predicted_sharing(op, choice) {
        let mut by_level: std::collections::BTreeMap<u64, LevelConflict> =
            std::collections::BTreeMap::new();
        for (&tag, &observed) in &la.per_tag_max {
            let level = tag / LEVEL_TAG_STRIDE;
            let predicted = predicted(tag);
            let lc = by_level.entry(level).or_insert(LevelConflict {
                level,
                observed: 0,
                predicted,
            });
            lc.observed = lc.observed.max(observed);
            if observed > predicted {
                report.violations.push(Violation::ConflictFactorExceeded {
                    level,
                    observed,
                    predicted,
                });
            }
        }
        report.levels.extend(by_level.into_values());
    } else {
        // Strategy-free collectives: scatter/gather (laminar MST) and
        // the pipelined ring broadcast are conflict-free primitives
        // (§4); the total exchange is an extension with inherent
        // sharing, bounded by p-1 messages crossing one link.
        let bound = match op {
            PlanOp::Alltoall => machine.ranks().saturating_sub(1).max(1),
            _ => 1,
        };
        if la.max_sharing > bound {
            let (step, link, sharing) = la.worst.expect("sharing > 1 implies a worst link");
            report.violations.push(Violation::LinkConflict {
                step,
                link,
                sharing,
                bound,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom_cost::StrategyKind;

    fn verify_hier(op: &PlanOp, hs: &HierStrategy, n: usize, source: Source) -> Result<Report> {
        let shape = hs.shape();
        let inter = Mesh2D::new(shape.inter_rows, shape.inter_cols);
        let machine = Cluster::new(inter, shape.ranks_per_node);
        let choice = HierChoice::Hier(hs.clone());
        verify_schedule_from(op, Some(&choice), &machine, n, source).map(|(r, _)| r)
    }

    #[test]
    fn mst_broadcast_on_row_verifies_conflict_free() {
        let mesh = Mesh2D::new(1, 8);
        let st = Strategy::pure_mst(8);
        let r = verify_schedule(&PlanOp::Broadcast { root: 0 }, Some(&st), &mesh, 64).unwrap();
        assert!(r.ok(), "unexpected violations: {r}");
        assert!(r.conflict_free);
    }

    #[test]
    fn ring_collect_on_mesh_verifies_conflict_free() {
        let mesh = Mesh2D::new(3, 4);
        let st = Strategy::pure_long(12);
        let r = verify_schedule(&PlanOp::Collect, Some(&st), &mesh, 8).unwrap();
        assert!(r.ok(), "unexpected violations: {r}");
        assert!(r.conflict_free);
    }

    #[test]
    fn hybrid_allreduce_verifies() {
        let mesh = Mesh2D::new(1, 12);
        let st = Strategy::new(vec![3, 4], StrategyKind::Mst);
        let r = verify_schedule(&PlanOp::AllReduce, Some(&st), &mesh, 24).unwrap();
        assert!(r.ok(), "unexpected violations: {r}");
    }

    #[test]
    fn alltoall_verifies_within_bound() {
        let mesh = Mesh2D::new(2, 3);
        let r = verify_schedule(&PlanOp::Alltoall, None, &mesh, 4).unwrap();
        assert!(r.ok(), "unexpected violations: {r}");
    }

    #[test]
    fn sc_broadcast_phase_skew_is_not_a_violation() {
        // (9, SC) broadcast from the far corner of a 3×3 mesh: ranks
        // whose MST-scatter interval collapses early enter the ring
        // collect while others still scatter, and the two stages briefly
        // share link 1→W. Every stage stays within its own conflict
        // bound (observed == predicted == 1 per stage), so the schedule
        // verifies — but it is honestly reported as not conflict-free.
        let mesh = Mesh2D::new(3, 3);
        let st = Strategy::pure_long(9);
        let r = verify_schedule(&PlanOp::Broadcast { root: 8 }, Some(&st), &mesh, 947).unwrap();
        assert!(r.ok(), "cross-stage skew must not be a violation: {r}");
        assert!(!r.conflict_free, "skew sharing must still be reported");
        assert_eq!(r.max_link_sharing, 2);
        assert!(r.levels.iter().all(|l| l.observed <= l.predicted));
    }

    #[test]
    fn ir_source_verifies_and_matches_trace_verdict() {
        // The same call checked from both sources must agree on every
        // verdict-relevant quantity — including the subtle 3×3 skew
        // case where the schedule is valid but not conflict-free.
        let mesh = Mesh2D::new(3, 3);
        let st = Strategy::pure_long(9);
        let op = PlanOp::Broadcast { root: 8 };
        let ir = verify_schedule_ir(&op, Some(&st), &mesh, 947).unwrap();
        let tr = verify_schedule(&op, Some(&st), &mesh, 947).unwrap();
        assert_eq!(ir.source, Source::Ir);
        assert_eq!(tr.source, Source::Trace);
        assert!(ir.ok(), "unexpected violations: {ir}");
        assert_eq!(ir.steps, tr.steps);
        assert_eq!(ir.event_count, tr.event_count);
        assert_eq!(ir.max_link_sharing, tr.max_link_sharing);
        assert_eq!(ir.conflict_free, tr.conflict_free);
        assert_eq!(ir.levels, tr.levels);
    }

    #[test]
    fn ir_source_verifies_strategy_free_ops() {
        let mesh = Mesh2D::new(2, 3);
        for op in [
            PlanOp::Scatter { root: 0 },
            PlanOp::Gather { root: 5 },
            PlanOp::Alltoall,
            PlanOp::PipelinedBcast {
                root: 0,
                segments: 4,
            },
        ] {
            let r = verify_schedule_ir(&op, None, &mesh, 13).unwrap();
            assert!(r.ok(), "unexpected violations: {r}");
        }
    }

    #[test]
    fn hier_collectives_verify_over_cluster_shapes() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let m = HierMachine::paragon_cluster();
        for shape in [
            ClusterShape::linear(4, 4),
            ClusterShape {
                inter_rows: 2,
                inter_cols: 2,
                ranks_per_node: 4,
            },
            ClusterShape::linear(8, 2),
        ] {
            for (op, cost_op) in [
                (
                    PlanOp::Broadcast {
                        root: shape.ranks() - 1,
                    },
                    CollectiveOp::Broadcast,
                ),
                (PlanOp::AllReduce, CollectiveOp::CombineToAll),
                (PlanOp::Collect, CollectiveOp::Collect),
            ] {
                let hs = select_hier(cost_op, shape, 4096, &m).unwrap();
                for source in [Source::Ir, Source::IrOpt, Source::Trace] {
                    let r = verify_hier(&op, &hs, 64, source).unwrap();
                    assert_eq!(r.source, source);
                    assert!(r.ok(), "unexpected violations: {r}");
                    assert!(r.event_count > 0);
                    // Every stage band's sharing stayed within its own bound.
                    assert!(r.levels.iter().all(|l| l.observed <= l.predicted));
                }
            }
        }
    }

    #[test]
    fn hier_report_names_the_hierarchy() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let shape = ClusterShape::linear(2, 3);
        let hs = select_hier(
            CollectiveOp::CombineToAll,
            shape,
            1024,
            &HierMachine::delta_cluster(),
        )
        .unwrap();
        let r = verify_hier(&PlanOp::AllReduce, &hs, 16, Source::Ir).unwrap();
        assert!(r.ok(), "unexpected violations: {r}");
        let s = r.to_string();
        assert!(s.contains("[ir], hier"), "{s}");
        assert!(s.contains("@1x2x3"), "{s}");
        // The cluster's physical embedding is a (rpn·rows)×cols mesh.
        assert_eq!(r.mesh, (3, 2));
    }

    #[test]
    fn hier_rejects_an_invalid_strategy_at_lowering() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let hs = select_hier(
            CollectiveOp::Broadcast,
            ClusterShape::linear(2, 2),
            64,
            &HierMachine::paragon_cluster(),
        )
        .unwrap();
        // A broadcast strategy replayed as an allreduce disagrees with
        // the op's template: the error surfaces as Err, not a violation.
        for source in [Source::Ir, Source::Trace] {
            assert!(verify_hier(&PlanOp::AllReduce, &hs, 16, source).is_err());
        }
        // So does a strategy for another cluster shape.
        let other = Cluster::linear(4, 2);
        let choice = HierChoice::Hier(hs);
        let op = PlanOp::Broadcast { root: 0 };
        assert!(verify_schedule_from(&op, Some(&choice), &other, 16, Source::Ir).is_err());
    }

    #[test]
    fn extraction_error_propagates() {
        // A strategy for the wrong node count is an argument error, not a
        // schedule violation.
        let mesh = Mesh2D::new(1, 6);
        let st = Strategy::pure_mst(5);
        assert!(verify_schedule(&PlanOp::AllReduce, Some(&st), &mesh, 8).is_err());
    }
}
