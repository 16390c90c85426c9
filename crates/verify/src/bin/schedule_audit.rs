//! `schedule-audit` — the CI gate that statically verifies every
//! collective schedule the library can produce.
//!
//! Sweeps all seven collectives (plus the total-exchange and pipelined
//! extensions) × every enumerable strategy × a battery of node counts
//! (`1..=17`, `24`, `31`, `32`) × every mesh factorization of each
//! count, at degenerate, tiny and awkward (prime) message sizes. Every
//! combination must verify with zero violations: deadlock-free,
//! single-port compliant, buffer-safe, and link-conflict-free within
//! the §6 cost-model bounds.
//!
//! By default the sweep checks the **compiled schedule IR** — the very
//! step lists persistent plans execute (`--source=ir`) — *and* repeats
//! the full sweep on the **optimized IR** (`ir-opt`), proving that
//! every rewrite the [`intercom::ir::optimize`] pass pipeline performs
//! preserves all four invariants. Pass `--source=ir-opt` or
//! `--source=trace` to run a single sweep from that source instead.
//! When auditing the IR, a trace-sourced sweep over a subset of node
//! counts runs as an independent cross-check on the lowering.
//!
//! The default run also sweeps **hierarchical cluster schedules**
//! (`--source=hier` runs the full shape battery): every hierarchical
//! collective × candidate per-level strategy × size over a battery of
//! cluster shapes, each verified over the cluster's physical mesh
//! embedding with per-stage conflict gating — from all three sources,
//! so the optimized hybrid a plan on a cluster communicator executes is
//! proven too.
//!
//! Flat and hierarchical schedules go through one sweep: a worklist of
//! [`Unit`]s (a machine plus its strategy menu) sharded across worker
//! threads, every call verified by
//! [`intercom_verify::verify_schedule_from`].
//!
//! The default run also sweeps a **multi-tenant scenario matrix**
//! through the concurrent analyzer (`--source=concurrent` runs only
//! it): disjoint rows/columns, rows *and* columns together,
//! overlapping submeshes, fully-overlapping distinct-tag-space
//! tenants, and interleaved groups sharing physical links — every
//! legitimate workload must prove non-interfering, and the composite
//! per-link contention is reported for the cost model. And it runs the
//! reduced **chaos** matrix (`--source=chaos` runs the full one).
//!
//! Every family of checks is a [`Section`]; each brings its *mutation
//! probes* — deliberately broken schedules and workloads (including
//! a malformed block permutation, colliding tag bases, shared memory
//! windows, a cross-tenant wait cycle and a duplicate-node embedding) —
//! and the audit fails unless each probe is caught, guarding the
//! checkers themselves against silent rot.

use intercom::groups::{col_members, row_members, submesh_members};
use intercom::ir::{lower_hier, optimize, CollectiveProgram, OptStats, PlanOp};
use intercom::trace::{MemSpan, OpRecord};
use intercom::CommError;
use intercom_cost::{
    enumerate_hier_strategies, enumerate_mesh_strategies, enumerate_strategies, select_hier,
    ClusterShape, CollectiveOp, HierChoice, HierMachine, HierStrategy, Strategy,
};
use intercom_obs::escape_json;
use intercom_topology::{Cluster, Mesh2D};
use intercom_verify::{
    analyze_links, chaos_sweep, check_buffer_safety, check_permutations, check_single_port,
    hang_probe, match_programs, mutation, programs_of, stall_probe, tenant_tag_base,
    verify_concurrent, verify_schedule_from, ConcurrentViolation, HangDiagnosis, Source, Tenant,
    Violation, Workload,
};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Node counts: every size through 17 (covers all small parities and
/// primes), a composite with many factorizations, a large prime, and a
/// power of two.
const NODE_COUNTS: [usize; 20] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 31, 32,
];

/// Sizes for total-vector collectives: empty, single byte, and a prime
/// that divides into nothing evenly.
const VECTOR_SIZES: [usize; 3] = [0, 1, 947];

/// Sizes for per-block collectives (already multiplied by `p` inside).
const BLOCK_SIZES: [usize; 3] = [0, 1, 13];

/// Node counts of the trace-sourced cross-check sweep when the main
/// audit runs on the IR: composite sizes with hybrid-rich strategy
/// menus plus a prime, kept small so CI stays fast.
const CROSSCHECK_NODE_COUNTS: [usize; 3] = [8, 9, 12];

/// The five collectives that run under a strategy, flat or hierarchical.
const STRATEGY_OPS: [CollectiveOp; 5] = [
    CollectiveOp::Broadcast,
    CollectiveOp::CombineToOne,
    CollectiveOp::CombineToAll,
    CollectiveOp::Collect,
    CollectiveOp::DistributedCombine,
];

/// Bumped whenever the shape of the `--json` document changes, so CI
/// consumers can fail fast on a format drift instead of misreading it.
/// v2: added `source` and the `crosscheck` object. v3: added
/// `threads`, the `optsweep` object (the full optimized-IR sweep with
/// its per-pass `rewrites` counts) and, for `--source=ir-opt`, a
/// top-level `rewrites` object. v4: added the `concurrent` object (the
/// multi-tenant scenario sweep with its composite contention bounds),
/// the four concurrent entries in `mutation_probes`, and the
/// `--source=concurrent` mode that emits a concurrent-only document.
/// v5: added the `chaos` object (the fault-injection sweep: cases,
/// byte-identical recoveries, coordinated aborts, retransmissions and
/// the hang count, which must be zero), the two watchdog-diagnosis
/// entries in `mutation_probes`, and the `--source=chaos` mode that
/// runs the full scenario matrix on both backends. v6: added the
/// `hier` object (the hierarchical sweep: cluster shapes, candidate
/// strategies and per-stage-gated checks over each cluster's physical
/// mesh embedding), the three hier entries in `mutation_probes`, and
/// the `--source=hier` mode that runs the full cluster-shape sweep.
/// v7: the `hier` object counts every source (`checks` on the lowered
/// IR, `opt_checks` with their `rewrites` on the optimized IR,
/// `trace_checks` on the trace extraction) and a fourth hier probe
/// mutates the optimized program; a member whose sweep did not run is
/// absent rather than `null`. v8: every `rewrites` object loses the
/// count of the deleted cross-stage overlap pass. v9: a fifth flat
/// entry in `mutation_probes`, a malformed block permutation.
const JSON_SCHEMA_VERSION: u32 = 9;

/// Summed [`OptStats`] across every `ir-opt` verification of a sweep:
/// how much work each optimizer pass actually did over the full
/// schedule space. `reverts` counts programs whose rewrite failed the
/// internal re-proof and fell back to the original (expected zero).
#[derive(Debug, Clone, Copy, Default)]
struct OptTotals {
    elided: usize,
    fused: usize,
    coalesced: usize,
    dead_copies: usize,
    reverts: usize,
}

impl OptTotals {
    fn add(&mut self, s: &OptStats) {
        self.merge(&OptTotals {
            elided: s.elided,
            fused: s.fused,
            coalesced: s.coalesced,
            dead_copies: s.dead_copies,
            reverts: usize::from(s.reverted),
        });
    }

    fn merge(&mut self, o: &OptTotals) {
        self.elided += o.elided;
        self.fused += o.fused;
        self.coalesced += o.coalesced;
        self.dead_copies += o.dead_copies;
        self.reverts += o.reverts;
    }

    fn total(&self) -> usize {
        self.elided + self.fused + self.coalesced + self.dead_copies
    }

    fn json(&self) -> String {
        format!(
            "{{\"elided\":{},\"fused\":{},\"coalesced\":{},\"dead_copies\":{},\
             \"reverts\":{},\"total\":{}}}",
            self.elided,
            self.fused,
            self.coalesced,
            self.dead_copies,
            self.reverts,
            self.total(),
        )
    }
}

impl std::fmt::Display for OptTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (elided {}, fused {}, coalesced {}, dead copies {}), {} reverts",
            self.total(),
            self.elided,
            self.fused,
            self.coalesced,
            self.dead_copies,
            self.reverts,
        )
    }
}

/// One collective call to verify on a [`Unit`]'s machine.
struct Call {
    op: PlanOp,
    choice: Option<HierChoice>,
    n: usize,
}

/// One machine of the sweep with the strategies to audit on it — the
/// unit of work the sharded sweep distributes across threads. A flat
/// mesh is a cluster with one rank per node.
struct Unit {
    machine: Cluster,
    /// Candidate hierarchical strategies per op. `None` on a flat mesh:
    /// its menu is every enumerable flat strategy, listed by the worker.
    menu: Option<Vec<(CollectiveOp, Vec<HierStrategy>)>>,
    vector_sizes: &'static [usize],
    block_sizes: &'static [usize],
}

fn roots(p: usize) -> Vec<usize> {
    if p == 1 {
        vec![0]
    } else {
        vec![0, p - 1]
    }
}

impl Unit {
    fn mesh(rows: usize, cols: usize) -> Unit {
        Unit {
            machine: Cluster::new(Mesh2D::new(rows, cols), 1),
            menu: None,
            vector_sizes: &VECTOR_SIZES,
            block_sizes: &BLOCK_SIZES,
        }
    }

    /// Every collective × strategy × size audited on this machine.
    fn calls(&self) -> Vec<Call> {
        let p = self.machine.ranks();
        let mut out = Vec::new();
        let mut under = |cop: CollectiveOp, choice: &HierChoice| {
            let (ops, sizes): (Vec<PlanOp>, _) = match cop {
                CollectiveOp::Broadcast => (
                    roots(p)
                        .iter()
                        .map(|&root| PlanOp::Broadcast { root })
                        .collect(),
                    self.vector_sizes,
                ),
                CollectiveOp::CombineToOne => (
                    roots(p)
                        .iter()
                        .map(|&root| PlanOp::Reduce { root })
                        .collect(),
                    self.vector_sizes,
                ),
                CollectiveOp::CombineToAll => (vec![PlanOp::AllReduce], self.vector_sizes),
                CollectiveOp::Collect => (vec![PlanOp::Collect], self.block_sizes),
                CollectiveOp::DistributedCombine => (vec![PlanOp::ReduceScatter], self.block_sizes),
                _ => unreachable!("only the five strategy ops are swept under a strategy"),
            };
            for &n in sizes {
                for &op in &ops {
                    out.push(Call {
                        op,
                        choice: Some(choice.clone()),
                        n,
                    });
                }
            }
        };
        if let Some(menu) = &self.menu {
            for (cop, candidates) in menu {
                for hs in candidates {
                    under(*cop, &HierChoice::Hier(hs.clone()));
                }
            }
            return out;
        }
        // A 1×c machine is a linear array: every ordered factorization
        // is a valid logical mesh. A true 2-D machine uses the §7.1
        // mesh-aware strategies (plus the row-major linear fallbacks
        // they include).
        let (r, c) = (self.machine.inter().rows(), self.machine.inter().cols());
        let strategies = if r == 1 {
            enumerate_strategies(p, 0)
        } else {
            enumerate_mesh_strategies(r, c, 0)
        };
        for st in strategies {
            let choice = HierChoice::Flat(st);
            for cop in STRATEGY_OPS {
                under(cop, &choice);
            }
        }
        let mut free = |op: PlanOp, n: usize| {
            out.push(Call {
                op,
                choice: None,
                n,
            })
        };
        for &n in self.block_sizes {
            for root in roots(p) {
                free(PlanOp::Scatter { root }, n);
                free(PlanOp::Gather { root }, n);
            }
            free(PlanOp::Alltoall, n);
        }
        for &n in self.vector_sizes {
            for root in roots(p) {
                for segments in [1, 4] {
                    free(PlanOp::PipelinedBcast { root, segments }, n);
                }
            }
        }
        out
    }
}

/// What one sweep of a worklist from one source found.
#[derive(Default)]
struct Sweep {
    /// Schedules verified per unit, in worklist order.
    checks: Vec<usize>,
    failures: Vec<String>,
    /// Per-pass rewrite totals; all-zero unless the source is `IrOpt`.
    opt: OptTotals,
    /// Worker threads the sweep was sharded over.
    threads: usize,
}

impl Sweep {
    fn total(&self) -> usize {
        self.checks.iter().sum()
    }

    /// Failures plus, since a revert breaks the pipeline's
    /// deadlock-monotonicity contract even though the program that ran
    /// is the proven original, one more for any reverted rewrite.
    fn into_failures(self) -> Vec<String> {
        let mut failures = self.failures;
        if self.opt.reverts > 0 {
            failures.push(format!(
                "{} optimizer REVERTS (deadlock-monotonicity broken)",
                self.opt.reverts
            ));
        }
        failures
    }
}

/// Verifies every call of every unit from `source`. Workers claim the
/// next unit from a shared cursor, so a thread finishing a cheap shape
/// immediately picks up more work (no static partitioning skew); the
/// per-unit fragments merge in worklist order, so counts and failure
/// order are deterministic regardless of claim order.
fn sweep(units: &[Unit], source: Source) -> Sweep {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(units.len().max(1));
    let cursor = AtomicUsize::new(0);
    let fragments: Vec<Mutex<Sweep>> = units.iter().map(|_| Mutex::default()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(unit) = units.get(i) else {
                    break;
                };
                let mut local = Sweep::default();
                let calls = unit.calls();
                local.checks.push(calls.len());
                for Call { op, choice, n } in &calls {
                    match verify_schedule_from(op, choice.as_ref(), &unit.machine, *n, source) {
                        Ok((rep, stats)) => {
                            local.opt.add(&stats);
                            if !rep.ok() {
                                local.failures.push(rep.to_string());
                            }
                        }
                        Err(e) => {
                            let mesh = unit.machine.phys_mesh();
                            let under = match choice {
                                Some(HierChoice::Flat(s)) => format!(" strategy {s}"),
                                Some(HierChoice::Hier(h)) => format!(" hier {h}"),
                                None => String::new(),
                            };
                            local.failures.push(format!(
                                "{op} on {}x{} n={n}{under} [{source}]: lowering error: {e}",
                                mesh.rows(),
                                mesh.cols(),
                            ));
                        }
                    }
                }
                *fragments[i].lock().expect("no worker panicked") = local;
            });
        }
    });
    let mut out = Sweep {
        threads,
        ..Sweep::default()
    };
    for fragment in fragments {
        let fragment = fragment.into_inner().expect("no worker panicked");
        out.checks.extend(fragment.checks);
        out.failures.extend(fragment.failures);
        out.opt.merge(&fragment.opt);
    }
    out
}

/// One family of checks in the audit's two output forms, with the
/// mutation probes that guard its checkers.
struct Section {
    /// Summary lines of the text report.
    summary: String,
    /// The `"key": value` members this section adds to the `--json`
    /// document.
    json: String,
    failures: Vec<String>,
    probes: Vec<(&'static str, bool)>,
}

fn shapes(p: usize) -> Vec<(usize, usize)> {
    (1..=p)
        .filter(|&r| p.is_multiple_of(r))
        .map(|r| (r, p / r))
        .collect()
}

fn mesh_units(node_counts: &[usize]) -> Vec<Unit> {
    node_counts
        .iter()
        .flat_map(|&p| shapes(p))
        .map(|(r, c)| Unit::mesh(r, c))
        .collect()
}

/// The flat sweep a run is named after (`--source=ir|ir-opt|trace`),
/// with the five schedule-level probes.
fn flat_section(source: Source) -> Section {
    let units = mesh_units(&NODE_COUNTS);
    let found = sweep(&units, source);
    let mut per_p: Vec<(usize, usize)> = Vec::new();
    for (unit, &checks) in units.iter().zip(&found.checks) {
        let p = unit.machine.ranks();
        match per_p.last_mut() {
            Some((last, sum)) if *last == p => *sum += checks,
            _ => per_p.push((p, checks)),
        }
    }
    let mut summary: String = per_p
        .iter()
        .map(|(p, checks)| format!("p={p} [{source}]: {checks} schedules verified\n"))
        .collect();
    summary += &format!(
        "schedule-audit: {} schedules verified from source {source} ({} threads)",
        found.total(),
        found.threads
    );
    let per_p: Vec<String> = per_p
        .iter()
        .map(|(p, checks)| format!("{{\"p\":{p},\"checks\":{checks}}}"))
        .collect();
    let mut json = format!(
        "\"threads\": {},\n  \"checks\": {},\n  \"per_p\": [{}]",
        found.threads,
        found.total(),
        per_p.join(",")
    );
    if source == Source::IrOpt {
        summary += &format!("\nschedule-audit: rewrites applied: {}", found.opt);
        json += &format!(",\n  \"rewrites\": {}", found.opt.json());
    }
    Section {
        summary,
        json,
        failures: found.into_failures(),
        probes: vec![
            ("step-move -> single-port", probe_step_move()),
            ("tag-bump -> deadlock", probe_tag_bump()),
            ("span-overlap -> buffer-safety", probe_buffer_overlap()),
            ("link-share -> conflict", probe_link_conflict()),
            ("bad-permute -> permutation", probe_bad_permutation()),
        ],
    }
}

/// The default run's repeat of the *full* flat sweep on the optimized
/// IR: every pass-pipeline rewrite re-proven across the whole schedule
/// space.
fn optsweep_section() -> Section {
    let found = sweep(&mesh_units(&NODE_COUNTS), Source::IrOpt);
    let (checks, opt) = (found.total(), found.opt);
    let failures = found.into_failures();
    Section {
        summary: format!("schedule-audit: {checks} optimized-IR checks, rewrites re-proven: {opt}"),
        json: format!(
            "\"optsweep\": {{\"source\":\"ir-opt\",\"checks\":{checks},\
             \"failure_count\":{},\"rewrites\":{}}}",
            failures.len(),
            opt.json()
        ),
        failures,
        probes: Vec::new(),
    }
}

/// The default run's trace-sourced subset: the lowering itself
/// cross-checked against the unmodified algorithm code.
fn crosscheck_section() -> Section {
    let found = sweep(&mesh_units(&CROSSCHECK_NODE_COUNTS), Source::Trace);
    let checks = found.total();
    Section {
        summary: format!(
            "schedule-audit: {checks} trace-sourced cross-checks (p in {CROSSCHECK_NODE_COUNTS:?})"
        ),
        json: format!(
            "\"crosscheck\": {{\"source\":\"trace\",\"checks\":{checks},\"failure_count\":{}}}",
            found.failures.len()
        ),
        failures: found.failures,
        probes: Vec::new(),
    }
}

/// Probe 1: moving a send one step earlier must trip the single-port
/// check (the MST root would talk to two children at once).
fn probe_step_move() -> bool {
    let (clean, moved) = mutation::step_move();
    let multi_port = |v: &Violation| matches!(v, Violation::MultiPort { rank: 0, .. });
    check_single_port(&clean).is_empty() && check_single_port(&moved).iter().any(multi_port)
}

/// Probe 2: bumping one rank's first tag must deadlock the matcher
/// (its partner waits on the original tag forever).
fn probe_tag_bump() -> bool {
    let (clean, bumped) = mutation::tag_bump();
    match_programs(&clean).is_ok()
        && matches!(match_programs(&bumped), Err(Violation::Deadlock { .. }))
}

/// Probe 3: a receive landing inside a concurrently-sent span must trip
/// the buffer-safety check.
fn probe_buffer_overlap() -> bool {
    let (clean, broken) = mutation::buffer_overlap();
    let overlap = |v: &Violation| matches!(v, Violation::BufferOverlap { rank: 0, .. });
    check_buffer_safety(&clean).is_empty() && check_buffer_safety(&broken).iter().any(overlap)
}

/// Probe 4: two same-step messages crossing the same east link must be
/// observed by the link analysis.
fn probe_link_conflict() -> bool {
    let (mesh, clean, shared) = mutation::link_share();
    analyze_links(&clean, &mesh).max_sharing == 1 && analyze_links(&shared, &mesh).max_sharing == 2
}

/// Probe 5: a 2×3 collect's block permutation whose held block is
/// moved into its region, or whose radices entry names more blocks than
/// its region holds, must trip the permutation check — and the
/// program as lowered must not.
fn probe_bad_permutation() -> bool {
    let [clean, overlapping, miscounted] = mutation::bad_permutations();
    let caught = |prog: &CollectiveProgram| {
        let found = check_permutations(&programs_of(prog));
        found
            .iter()
            .any(|v| matches!(v, Violation::BadPermutation { .. }))
    };
    !caught(&clean) && caught(&overlapping) && caught(&miscounted)
}

/// One row/column/submesh tenant for the concurrent scenario matrix.
fn row_tenant(mesh: &Mesh2D, r: usize, idx: usize) -> Tenant {
    let members = row_members(mesh, r);
    let st = Strategy::pure_long(members.len());
    Tenant::lowered(
        format!("row{r}"),
        &PlanOp::Collect,
        Some(&st),
        2 * members.len(),
        members,
        tenant_tag_base(idx),
    )
    .expect("row tenant lowers")
}

fn col_tenant(mesh: &Mesh2D, c: usize, idx: usize) -> Tenant {
    let members = col_members(mesh, c);
    let st = Strategy::pure_mst(members.len());
    Tenant::lowered(
        format!("col{c}"),
        &PlanOp::AllReduce,
        Some(&st),
        8,
        members,
        tenant_tag_base(idx),
    )
    .expect("col tenant lowers")
}

fn submesh_tenant(
    mesh: &Mesh2D,
    name: &str,
    (r0, c0, rows, cols): (usize, usize, usize, usize),
    idx: usize,
) -> Tenant {
    let members = submesh_members(mesh, r0, c0, rows, cols);
    let st = Strategy::pure_mst(members.len());
    Tenant::lowered(
        name,
        &PlanOp::Broadcast { root: 0 },
        Some(&st),
        32,
        members,
        tenant_tag_base(idx),
    )
    .expect("submesh tenant lowers")
}

/// The multi-tenant scenario matrix: every legitimate workload here
/// must verify with zero violations.
fn concurrent_scenarios() -> Vec<(String, Workload)> {
    let mut out = Vec::new();
    for (rows, cols) in [(3, 3), (4, 4), (2, 6)] {
        let mesh = Mesh2D::new(rows, cols);
        let row_set: Vec<Tenant> = (0..rows).map(|r| row_tenant(&mesh, r, r)).collect();
        out.push((
            format!("{rows}x{cols} disjoint rows"),
            Workload::new(Mesh2D::new(rows, cols), row_set.clone()),
        ));
        let col_set: Vec<Tenant> = (0..cols).map(|c| col_tenant(&mesh, c, c)).collect();
        out.push((
            format!("{rows}x{cols} disjoint columns"),
            Workload::new(Mesh2D::new(rows, cols), col_set),
        ));
        // Rows and columns at once: every node hosts two tenants.
        let mut both = row_set;
        for c in 0..cols {
            both.push(col_tenant(&mesh, c, rows + c));
        }
        out.push((
            format!("{rows}x{cols} rows + columns"),
            Workload::new(Mesh2D::new(rows, cols), both),
        ));
    }
    // Overlapping 2x2 submeshes sharing the center of a 3x3.
    let mesh = Mesh2D::new(3, 3);
    out.push((
        "3x3 overlapping submeshes".into(),
        Workload::new(
            Mesh2D::new(3, 3),
            vec![
                submesh_tenant(&mesh, "nw", (0, 0, 2, 2), 0),
                submesh_tenant(&mesh, "se", (1, 1, 2, 2), 1),
            ],
        ),
    ));
    // Two whole-mesh tenants, fully overlapping, isolated only by tag
    // bases and memory windows.
    let mesh = Mesh2D::new(4, 4);
    out.push((
        "4x4 full overlap, distinct tag spaces".into(),
        Workload::new(
            Mesh2D::new(4, 4),
            vec![
                submesh_tenant(&mesh, "whole0", (0, 0, 4, 4), 0),
                submesh_tenant(&mesh, "whole1", (0, 0, 4, 4), 1),
            ],
        ),
    ));
    // Interleaved pair groups on linear arrays: disjoint nodes, shared
    // links — contention is reported, not a violation.
    for cols in [4usize, 8] {
        let pairs = cols / 2;
        let tenants: Vec<Tenant> = (0..pairs)
            .map(|g| {
                Tenant::lowered(
                    format!("pair{g}"),
                    &PlanOp::Broadcast { root: 0 },
                    Some(&Strategy::pure_mst(2)),
                    16,
                    vec![g, g + pairs],
                    tenant_tag_base(g),
                )
                .expect("pair tenant lowers")
            })
            .collect();
        out.push((
            format!("1x{cols} interleaved pair groups"),
            Workload::new(Mesh2D::new(1, cols), tenants),
        ));
    }
    out
}

/// The multi-tenant scenario sweep with the four concurrent probes.
fn concurrent_section(verbose: bool) -> Section {
    let mut summary = String::new();
    let mut failures = Vec::new();
    let (mut scenarios, mut tenants, mut solo_max, mut composite_max) = (0, 0, 0, 0);
    for (name, workload) in concurrent_scenarios() {
        scenarios += 1;
        tenants += workload.tenants.len();
        let report = verify_concurrent(&workload);
        // Worst single-tenant per-link peak and worst composite
        // per-link sharing across all scenarios.
        solo_max = solo_max.max(report.contention.solo_max);
        composite_max = composite_max.max(report.contention.composite_max);
        if !report.ok() {
            failures.push(format!("{name}: {report}"));
        } else if verbose {
            summary += &format!("concurrent [{name}]: {report}\n");
        }
    }
    summary += &format!(
        "schedule-audit: {scenarios} concurrent scenarios ({tenants} tenants) verified \
         non-interfering; composite link sharing {composite_max} (solo max {solo_max})"
    );
    Section {
        summary,
        json: format!(
            "\"concurrent\": {{\"scenarios\":{scenarios},\"tenants_checked\":{tenants},\
             \"failure_count\":{},\"composite\":{{\"solo_max\":{solo_max},\
             \"composite_max\":{composite_max}}}}}",
            failures.len()
        ),
        failures,
        probes: vec![
            (
                "tenant tag-base collision -> residue + cross-tenant match",
                probe_concurrent_tag_collision(),
            ),
            (
                "shared memory window -> buffer overlap",
                probe_concurrent_buffer_overlap(),
            ),
            (
                "cross-tenant wait cycle -> attributed deadlock",
                probe_concurrent_cross_deadlock(),
            ),
            (
                "duplicate-node embedding -> rejected",
                probe_concurrent_bad_embedding(),
            ),
        ],
    }
}

/// Concurrent probe 1: two tenants on the same nodes with the same tag
/// base must be rejected as a tag collision (and the adversarial
/// matcher must realize an actual cross-tenant steal).
fn probe_concurrent_tag_collision() -> bool {
    let st = Strategy::pure_mst(4);
    let mk = |name: &str| {
        Tenant::lowered(
            name,
            &PlanOp::Broadcast { root: 0 },
            Some(&st),
            16,
            vec![0, 1, 2, 3],
            0,
        )
        .expect("probe tenant lowers")
    };
    let rep = verify_concurrent(&Workload::new(Mesh2D::new(2, 2), vec![mk("a"), mk("b")]));
    rep.violations.iter().any(|v| {
        matches!(v, ConcurrentViolation::TagCollision { tenant_a, tenant_b, .. }
            if tenant_a == "a" && tenant_b == "b")
    }) && rep
        .violations
        .iter()
        .any(|v| matches!(v, ConcurrentViolation::CrossTenantMatch { .. }))
}

/// Concurrent probe 2: two co-resident tenants declaring the same
/// memory window must be rejected for buffer overlap.
fn probe_concurrent_buffer_overlap() -> bool {
    let st = Strategy::pure_mst(4);
    let mk = |i: usize| {
        let mut t = Tenant::lowered(
            format!("t{i}"),
            &PlanOp::Broadcast { root: 0 },
            Some(&st),
            16,
            vec![0, 1, 2, 3],
            tenant_tag_base(i),
        )
        .expect("probe tenant lowers");
        t.mem_base = Some(0);
        t
    };
    let rep = verify_concurrent(&Workload::new(Mesh2D::new(2, 2), vec![mk(0), mk(1)]));
    rep.violations
        .iter()
        .any(|v| matches!(v, ConcurrentViolation::BufferOverlap { node: 0, .. }))
}

/// Concurrent probe 3: two tenants embedded head-to-tail with broken
/// send tags must deadlock with a wait cycle that *names both
/// tenants*.
fn probe_concurrent_cross_deadlock() -> bool {
    let span = |addr: usize| MemSpan { addr, len: 8 };
    let a = Tenant::from_programs(
        "a",
        vec![
            vec![OpRecord::Recv {
                from: 1,
                tag: 1,
                dst: span(0),
            }],
            vec![OpRecord::Send {
                to: 0,
                tag: 3,
                src: span(0),
            }],
        ],
        vec![0, 1],
        tenant_tag_base(0),
    );
    let b = Tenant::from_programs(
        "b",
        vec![
            vec![OpRecord::Send {
                to: 1,
                tag: 7,
                src: span(0),
            }],
            vec![OpRecord::Recv {
                from: 0,
                tag: 2,
                dst: span(0),
            }],
        ],
        vec![1, 0],
        tenant_tag_base(1),
    );
    let rep = verify_concurrent(&Workload::new(Mesh2D::new(1, 2), vec![a, b]));
    rep.violations.iter().any(|v| match v {
        ConcurrentViolation::CrossDeadlock { cycle: Some(c), .. } => {
            let mut tenants: Vec<&str> = c.iter().map(|x| x.tenant.as_str()).collect();
            tenants.sort_unstable();
            tenants.dedup();
            tenants.len() >= 2
        }
        _ => false,
    })
}

/// Concurrent probe 4: an embedding claiming one node twice must be
/// rejected before any analysis runs.
fn probe_concurrent_bad_embedding() -> bool {
    let t = Tenant::lowered(
        "dup",
        &PlanOp::Broadcast { root: 0 },
        Some(&Strategy::pure_mst(2)),
        8,
        vec![0, 0],
        0,
    )
    .expect("probe tenant lowers");
    let rep = verify_concurrent(&Workload::new(Mesh2D::new(1, 2), vec![t]));
    rep.violations
        .iter()
        .any(|v| matches!(v, ConcurrentViolation::BadEmbedding { .. }))
}

/// Chaos probe 1: a deliberately cyclic two-rank program run live under
/// a tight deadline must end in bounded-wait errors on every rank (no
/// hang), and the watchdog's residual-matcher diagnosis must name the
/// 0↔1 wait-for cycle.
fn probe_chaos_hang() -> bool {
    let probe = hang_probe();
    let bounded = probe.errors.iter().all(|e| {
        matches!(
            e,
            Some(CommError::Timeout { .. }) | Some(CommError::Disconnected)
        )
    });
    let diagnosed = match probe.diagnosis {
        HangDiagnosis::Deadlock(Violation::Deadlock {
            cycle: Some(ref c), ..
        }) => {
            let mut c = c.clone();
            c.sort_unstable();
            c == vec![0, 1]
        }
        _ => false,
    };
    bounded && diagnosed
}

/// Chaos probe 2: a mid-broadcast progress snapshot whose residual *can*
/// complete must be diagnosed as a straggler (rank 2, the rank that
/// stopped before forwarding) — not misreported as a deadlock.
fn probe_chaos_stall() -> bool {
    matches!(stall_probe(), HangDiagnosis::Stall { rank: 2, .. })
}

/// The fault-injection sweep with the two watchdog-diagnosis probes:
/// the reduced matrix (`smoke`) in the default run, every scenario ×
/// collective × backend under `--source=chaos`.
fn chaos_section(smoke: bool) -> Section {
    let report = chaos_sweep(smoke);
    let summary = if smoke {
        format!("schedule-audit: chaos smoke: {report}")
    } else {
        format!("schedule-audit: {report}")
    };
    let json = format!(
        "\"chaos\": {{\"cases\":{},\"recoveries\":{},\"aborts\":{},\"retries\":{},\
         \"hangs\":{},\"failure_count\":{}}}",
        report.cases,
        report.recoveries,
        report.aborts,
        report.retries,
        report.hangs,
        report.failures.len(),
    );
    let mut failures = report.failures;
    if report.hangs > 0 {
        failures.push(format!(
            "chaos: {} hangs (wait expired undiagnosed)",
            report.hangs
        ));
    }
    Section {
        summary,
        json,
        failures,
        probes: vec![
            (
                "seeded hang -> bounded waits + wait-for cycle diagnosis",
                probe_chaos_hang(),
            ),
            (
                "mid-broadcast stall -> straggler diagnosis",
                probe_chaos_stall(),
            ),
        ],
    }
}

/// Cluster shapes for the hierarchical sweep: linear and 2-D inter-node
/// meshes, fat and thin nodes, and the rpn=1 degenerate case. The
/// reduced set (default run) keeps the three shapes the differential
/// tests and the bench pin; `--source=hier` sweeps all of them.
fn hier_shapes(full: bool) -> Vec<ClusterShape> {
    let shape = |inter_rows, inter_cols, ranks_per_node| ClusterShape {
        inter_rows,
        inter_cols,
        ranks_per_node,
    };
    let mut out = vec![shape(1, 4, 4), shape(2, 2, 4), shape(1, 8, 2)];
    if full {
        out.extend([
            shape(1, 6, 1),
            shape(1, 2, 8),
            shape(2, 3, 2),
            shape(3, 3, 2),
            shape(1, 3, 3),
        ]);
    }
    out
}

/// The hierarchical strategies audited for one op × shape: every
/// two-level-model selection (both machine presets, short through long
/// vectors) plus the full single-dim-per-stage enumeration when the
/// cross product stays small.
fn hier_candidates(op: CollectiveOp, shape: ClusterShape) -> Vec<HierStrategy> {
    let mut out: Vec<HierStrategy> = Vec::new();
    let mut push = |h: HierStrategy| {
        if !out.contains(&h) {
            out.push(h);
        }
    };
    for machine in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
        for n in [1usize, 4096, 1 << 18] {
            if let Some(h) = select_hier(op, shape, n, &machine) {
                push(h);
            }
        }
    }
    let all = enumerate_hier_strategies(op, shape, 1);
    if all.len() <= 64 {
        for h in all {
            push(h);
        }
    }
    out
}

/// The hierarchical sweep — every hierarchical collective × candidate
/// strategy × size over the cluster shapes, from the lowered IR, the
/// optimized IR and the trace extraction — with the four hier probes.
/// `full` (`--source=hier`) takes the whole shape battery and the
/// degenerate sizes.
fn hier_section(full: bool) -> Section {
    let (vector_sizes, block_sizes): (&[usize], &[usize]) = if full {
        (&VECTOR_SIZES, &BLOCK_SIZES)
    } else {
        (&VECTOR_SIZES[1..], &BLOCK_SIZES[1..])
    };
    let shapes = hier_shapes(full);
    let units: Vec<Unit> = shapes
        .iter()
        .map(|&shape| Unit {
            machine: Cluster::new(
                Mesh2D::new(shape.inter_rows, shape.inter_cols),
                shape.ranks_per_node,
            ),
            menu: Some(
                STRATEGY_OPS
                    .iter()
                    .map(|&cop| (cop, hier_candidates(cop, shape)))
                    .collect(),
            ),
            vector_sizes,
            block_sizes,
        })
        .collect();
    let strategies: usize = units
        .iter()
        .flat_map(|u| u.menu.iter().flatten())
        .map(|(_, candidates)| candidates.len())
        .sum();
    let lowered = sweep(&units, Source::Ir);
    let optimized = sweep(&units, Source::IrOpt);
    let traced = sweep(&units, Source::Trace);

    let mut summary = String::new();
    if full {
        for (shape, checks) in shapes.iter().zip(&lowered.checks) {
            summary += &format!("hier {shape} [ir]: {checks} schedules verified\n");
        }
    }
    summary += &format!(
        "schedule-audit: {} hierarchical schedules verified ({strategies} strategies over {} \
         cluster shapes), {} optimized (rewrites {}), {} trace cross-checks",
        lowered.total(),
        units.len(),
        optimized.total(),
        optimized.opt,
        traced.total(),
    );
    let mut json = format!(
        "\"hier\": {{\"shapes\":{},\"strategies\":{strategies},\"checks\":{},\
         \"opt_checks\":{},\"trace_checks\":{},\"rewrites\":{}",
        units.len(),
        lowered.total(),
        optimized.total(),
        traced.total(),
        optimized.opt.json(),
    );
    let mut failures = lowered.into_failures();
    failures.extend(optimized.into_failures());
    failures.extend(traced.into_failures());
    json += &format!(",\"failure_count\":{}}}", failures.len());
    Section {
        summary,
        json,
        failures,
        probes: vec![
            ("hier tag-bump -> deadlock", probe_hier_tag_bump(false)),
            (
                "optimized hier tag-bump -> deadlock",
                probe_hier_tag_bump(true),
            ),
            ("hier step-move -> single-port", probe_hier_step_move()),
            (
                "mismatched hier template -> rejected",
                probe_hier_bad_strategy(),
            ),
        ],
    }
}

/// Hier probes 1 and 2: bumping one rank's first tag must deadlock the
/// matcher — hierarchical programs go through the same rendezvous
/// matching as flat ones, and their stage-band tags are load-bearing,
/// in the lowered program and in the `optimized` one a plan executes.
fn probe_hier_tag_bump(optimized: bool) -> bool {
    let shape = ClusterShape::linear(2, 2);
    let hs = select_hier(
        CollectiveOp::CombineToAll,
        shape,
        4096,
        &HierMachine::paragon_cluster(),
    )
    .expect("allreduce has a hierarchy");
    let mut prog = lower_hier(PlanOp::AllReduce, &hs, 32, 1).expect("hier lowers");
    if optimized {
        prog = optimize(&prog).0;
    }
    let mut programs = programs_of(&prog);
    mutation::bump_first_tag(&mut programs, 1);
    matches!(match_programs(&programs), Err(Violation::Deadlock { .. }))
}

/// Hier probe 3: pulling the root's intra fan-out send up into its
/// inter-stage step must trip the single-port check (the root would
/// talk to a leader peer and a node-local child at once).
fn probe_hier_step_move() -> bool {
    let shape = ClusterShape::linear(2, 4);
    let hs = select_hier(
        CollectiveOp::Broadcast,
        shape,
        4096,
        &HierMachine::paragon_cluster(),
    )
    .expect("broadcast has a hierarchy");
    let prog = lower_hier(PlanOp::Broadcast { root: 0 }, &hs, 64, 1).expect("hier lowers");
    let mut sched = match_programs(&programs_of(&prog)).expect("valid schedule");
    let sends: Vec<usize> = sched
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.src == 0)
        .map(|(i, _)| i)
        .collect();
    assert!(sends.len() >= 2, "root sends in both stages");
    let first_step = sched.events[sends[0]].step;
    sched.events[*sends.last().unwrap()].step = first_step;
    sched.events.sort_by_key(|e| e.step);
    check_single_port(&sched)
        .iter()
        .any(|v| matches!(v, Violation::MultiPort { rank: 0, .. }))
}

/// Hier probe 4: a strategy that fills another op's template must be
/// rejected at lowering, before any check runs.
fn probe_hier_bad_strategy() -> bool {
    let hs = select_hier(
        CollectiveOp::Broadcast,
        ClusterShape::linear(2, 2),
        64,
        &HierMachine::paragon_cluster(),
    )
    .expect("broadcast has a hierarchy");
    let choice = HierChoice::Hier(hs);
    let machine = Cluster::linear(2, 2);
    verify_schedule_from(&PlanOp::AllReduce, Some(&choice), &machine, 16, Source::Ir).is_err()
}

/// The reporting tail every mode shares: the sections' summaries or
/// JSON members, then the pooled failures and mutation probes, then the
/// verdict.
fn report(json: bool, source: &str, sections: Vec<Section>) -> ExitCode {
    let failures: Vec<&String> = sections.iter().flat_map(|s| &s.failures).collect();
    let probes: Vec<(&str, bool)> = sections.iter().flat_map(|s| s.probes.clone()).collect();
    let ok = failures.is_empty() && probes.iter().all(|(_, caught)| *caught);
    if json {
        let members: Vec<&str> = sections.iter().map(|s| s.json.as_str()).collect();
        let failures: Vec<String> = failures
            .iter()
            .map(|f| format!("\"{}\"", escape_json(f)))
            .collect();
        let probes: Vec<String> = probes
            .iter()
            .map(|(name, caught)| {
                format!("{{\"name\":\"{}\",\"caught\":{caught}}}", escape_json(name))
            })
            .collect();
        println!(
            "{{\n  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"source\": \"{source}\",\n  \
             {},\n  \"failure_count\": {},\n  \"failures\": [{}],\n  \
             \"mutation_probes\": [{}],\n  \"pass\": {ok}\n}}",
            members.join(",\n  "),
            failures.len(),
            failures.join(","),
            probes.join(","),
        );
    } else {
        for section in &sections {
            println!("{}", section.summary);
        }
        if !failures.is_empty() {
            println!("{} FAILURES:", failures.len());
            for (i, f) in failures.iter().enumerate().take(50) {
                println!("[{i}] {f}");
            }
            if failures.len() > 50 {
                println!("... and {} more", failures.len() - 50);
            }
        }
        for (name, caught) in probes {
            if caught {
                println!("mutation probe caught: {name}");
            } else {
                println!("MUTATION PROBE MISSED: {name}");
            }
        }
        if ok {
            println!("schedule-audit: PASS");
        } else {
            println!("schedule-audit: FAIL");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let json = std::env::args().any(|a| a == "--json");
    let arg = std::env::args().find(|a| a.starts_with("--source="));
    let source = arg.as_deref().map_or("ir", |a| &a["--source=".len()..]);
    let sections = match source {
        // Auditing the compiled IR proves the deployed artifact; the
        // default run backs it with every other family of checks, the
        // chaos and hierarchical ones at reduced size.
        "ir" => vec![
            flat_section(Source::Ir),
            optsweep_section(),
            crosscheck_section(),
            concurrent_section(false),
            chaos_section(true),
            hier_section(false),
        ],
        "ir-opt" => vec![flat_section(Source::IrOpt)],
        "trace" => vec![flat_section(Source::Trace)],
        "concurrent" => vec![concurrent_section(!json)],
        "chaos" => vec![chaos_section(false)],
        "hier" => vec![hier_section(true)],
        other => {
            eprintln!(
                "schedule-audit: unknown option --source={other} \
                 (expected ir, ir-opt, trace, concurrent, chaos or hier)"
            );
            return ExitCode::FAILURE;
        }
    };
    report(json, source, sections)
}
