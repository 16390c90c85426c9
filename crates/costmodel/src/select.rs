//! The one selector: a group's [`GroupShape`], [`choose`] and [`price`].
//!
//! The paper favours "effective heuristics" over theoretically optimal
//! methods (§6): with the closed-form costs available, the heuristic is
//! to price every enumerated strategy at the actual message length and
//! machine parameters and take the cheapest — the approach the library
//! uses at run time once "good short and long vector primitives are
//! provided as well as an accurate model for their expense" (§7.1).
//!
//! Every candidate's cost is a line in `n`, so the cheapest-at-`n`
//! function is their lower envelope — the paper's Fig. 2: a few hybrids,
//! each winning one interval of message length. An [`Envelope`] is that
//! list of intervals, built once per selection space and kept in one
//! process-wide table every rank shares; [`choose`] is a binary search
//! over it (on a cluster, one per strategy-taking stage and one for the
//! level-blind line), and [`rank_strategies`] stays the per-call full
//! ranking it must agree with.
//!
//! A rank is a thread, and a thread asks for the same few envelopes
//! call after call, so each thread keeps the ones it used last in a
//! short list in front of the table: a repeated selection compares keys
//! there and never reaches the table's lock, hash or reference counts,
//! which all ranks would otherwise share a cache line for. The list is
//! keyed like the table, by everything an envelope depends on, the
//! machine's parameters bit for bit: a refit machine is a different key,
//! so it misses and cannot be answered from an envelope priced before
//! the refit, and nothing has to be invalidated.

use crate::collective::{hybrid_cost, CollectiveOp, CostContext};
use crate::crossover::crossover_length;
use crate::enumerate::{enumerate_mesh_strategies, enumerate_strategies};
use crate::expr::CostExpr;
use crate::hier::{hier_cost, select_priced, ClusterShape, HierChoice, HierMachine};
use crate::machine::MachineParams;
use crate::strategy::{ConflictModel, Strategy};
use intercom_topology::{GroupStructure, Mesh2D, ProcGroup};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, LazyLock, PoisonError, RwLock};

/// A strategy with its cost expression and evaluated time.
#[derive(Debug, Clone)]
pub struct RankedStrategy {
    /// The hybrid strategy.
    pub strategy: Strategy,
    /// Its symbolic cost.
    pub cost: CostExpr,
    /// Its predicted time in seconds at the query's `n`.
    pub time: f64,
}

/// Ranks every strategy for `op` on `p` linear-array nodes at message
/// length `n` bytes, cheapest first. `max_dims = 0` means unlimited.
pub fn rank_strategies(
    op: CollectiveOp,
    p: usize,
    n: usize,
    machine: &MachineParams,
    ctx: CostContext,
    max_dims: usize,
) -> Vec<RankedStrategy> {
    let mut ranked: Vec<RankedStrategy> = enumerate_strategies(p, max_dims)
        .into_iter()
        .map(|s| {
            let cost = hybrid_cost(op, &s, ctx);
            let time = cost.eval(n, machine);
            RankedStrategy {
                strategy: s,
                cost,
                time,
            }
        })
        .collect();
    ranked.sort_by(|a, b| a.time.total_cmp(&b.time));
    ranked
}

/// The physical shape a group is selected over (paper §9: "in cases
/// where a group comprises a physical rectangular submesh, the same
/// row- and column-based techniques are used as in the whole-mesh
/// operations. When a group is unstructured … it is treated as though it
/// were a linear array").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupShape {
    /// A linear array (physical line or unstructured group) of `p` nodes.
    Linear(usize),
    /// A rectangular physical submesh: stages run within dedicated
    /// physical rows and columns.
    Mesh {
        /// Submesh height.
        rows: usize,
        /// Submesh width.
        cols: usize,
    },
    /// A two-level cluster: an inter-node mesh of nodes, each holding
    /// the same number of ranks, numbered node-major. Hierarchical
    /// hybrids compete with the level-blind strategies of a linear
    /// array of all ranks priced at the network level.
    Cluster(ClusterShape),
}

impl GroupShape {
    /// Number of ranks covered.
    pub fn nodes(&self) -> usize {
        match *self {
            GroupShape::Linear(p) => p,
            GroupShape::Mesh { rows, cols } => rows * cols,
            GroupShape::Cluster(shape) => shape.ranks(),
        }
    }

    /// The hierarchy descriptor, when this shape is a cluster.
    pub fn cluster_shape(&self) -> Option<ClusterShape> {
        match *self {
            GroupShape::Cluster(shape) => Some(shape),
            _ => None,
        }
    }

    /// What a level-blind schedule sees of the group: a cluster is a
    /// linear array of all its ranks, every other shape is itself.
    pub fn level_blind(self) -> GroupShape {
        match self {
            GroupShape::Cluster(shape) => GroupShape::Linear(shape.ranks()),
            flat => flat,
        }
    }

    /// Classifies `group` on `mesh` per §9's structure extraction.
    pub fn detect(group: &ProcGroup, mesh: &Mesh2D) -> GroupShape {
        match group.structure(mesh) {
            GroupStructure::Submesh { rows, cols, .. } => GroupShape::Mesh { rows, cols },
            GroupStructure::PhysicalLine | GroupStructure::Unstructured => {
                GroupShape::Linear(group.len())
            }
        }
    }

    /// The conflict model a level-blind strategy over this shape is
    /// priced under at a level priced by `params`: interleaved groups
    /// share links on a line (a cluster's level-blind line included)
    /// and have dedicated ones along physical mesh rows and columns
    /// (§7.1).
    pub fn context(self, params: &MachineParams) -> CostContext {
        match self {
            GroupShape::Mesh { .. } => CostContext::mesh_with(params),
            _ => CostContext::linear_with(params),
        }
    }
}

/// The level-blind candidates over `shape` with at most `max_dims`
/// logical dimensions (`0` = unlimited), in enumeration order: the
/// §7.1 mesh strategies on a mesh, the linear-array ones otherwise.
pub(crate) fn candidates(shape: GroupShape, max_dims: usize) -> Vec<Strategy> {
    match shape {
        GroupShape::Mesh { rows, cols } => enumerate_mesh_strategies(rows, cols, max_dims),
        line => enumerate_strategies(line.nodes(), max_dims),
    }
}

/// The lower envelope of one selection space: for every message length,
/// the strategy the full ranking would put first.
///
/// Hybrids that differ only in the order of their dims are often one
/// line priced through different float sums (`beta_c` 3.1 against
/// 3.0999999999999996), and the ranking's pick between them follows the
/// rounding of [`CostExpr::eval`] at each `n`. So an interval keeps
/// every such *co-winner* of its winner, in enumeration order, and a
/// lookup prices just those with the same `eval` and first-minimum rule.
#[derive(Debug)]
pub struct Envelope {
    machine: MachineParams,
    /// `(first_n, strategy, cost)` sorted by `first_n`; the entries of
    /// one interval share its `first_n`.
    entries: Vec<(usize, Strategy, CostExpr)>,
}

/// Index of the first strict minimum of the costs at `n` bytes — the
/// tie rule of the full ranking (a stable sort) and of the mesh scan.
fn first_min(costs: impl IntoIterator<Item = CostExpr>, n: usize, m: &MachineParams) -> usize {
    let mut best = (0, f64::INFINITY);
    for (i, c) in costs.into_iter().enumerate() {
        let t = c.eval(n, m);
        if t < best.1 {
            best = (i, t);
        }
    }
    best.0
}

/// Whether two intercepts or slopes are equal up to float-sum rounding.
fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
}

impl Envelope {
    fn build(
        op: CollectiveOp,
        space: GroupShape,
        machine: MachineParams,
        ctx: CostContext,
    ) -> Self {
        let strategies = candidates(space, 0);
        let costs: Vec<CostExpr> = strategies.iter().map(|s| hybrid_cost(op, s, ctx)).collect();
        let lines: Vec<(f64, f64)> = costs.iter().map(|c| c.line(&machine)).collect();
        let winner = |n: usize| first_min(costs.iter().copied(), n, &machine);
        let mut entries = Vec::new();
        let mut start = 0;
        'walk: loop {
            let w = winner(start);
            let (intercept, slope) = lines[w];
            // `w` itself belongs even if its line is not finite.
            let co_wins =
                |i: usize| i == w || close(lines[i].0, intercept) && close(lines[i].1, slope);
            let group = (0..costs.len()).filter(|&i| co_wins(i));
            entries.extend(group.map(|i| (start, strategies[i].clone(), costs[i])));
            let in_group = |n: usize| co_wins(winner(n));
            // The closed form says where the next line takes over; the
            // exact integer is where the full argmin leaves the group,
            // searched outward from that hint (`lo` in the group, `hi`
            // not). Lines parallel to the winner's up to rounding are
            // left out: their "crossing" lies past 10^15 bytes, where
            // the ranking flips with the noise of `eval`.
            let hint = (0..costs.len())
                .filter(|&i| !close(lines[i].1, slope))
                .filter_map(|i| crossover_length(&costs[w], &costs[i], &machine))
                .map(|n| n.max(start.saturating_add(1)))
                .min();
            let Some(mut hi) = hint else { break };
            let (mut lo, mut step) = (start, 1usize);
            while in_group(hi) {
                if hi == usize::MAX {
                    break 'walk; // the group wins to the end
                }
                (lo, hi, step) = (hi, hi.saturating_add(step), step.saturating_mul(2));
            }
            if lo == start && in_group(hi - 1) {
                lo = hi - 1; // the usual case: the hint is exact
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if in_group(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            start = hi;
        }
        Envelope { machine, entries }
    }

    /// The winning strategy at `n` bytes and its symbolic cost.
    pub fn at(&self, n: usize) -> (&Strategy, &CostExpr) {
        let end = self.entries.partition_point(|e| e.0 <= n);
        let first_n = self.entries[end - 1].0;
        let begin = self.entries[..end].partition_point(|e| e.0 < first_n);
        let co_winners = &self.entries[begin..end];
        let e = &co_winners[first_min(co_winners.iter().map(|e| e.2), n, &self.machine)];
        (&e.1, &e.2)
    }

    /// Every `(first_n, strategy, cost)` in order: an entry wins from
    /// `first_n` bytes to the next larger one; equal `first_n`s co-win.
    pub fn intervals(&self) -> impl Iterator<Item = (usize, &Strategy, &CostExpr)> {
        self.entries.iter().map(|(n, s, c)| (*n, s, c))
    }
}

/// Table 2's notation, one line per interval with its co-winners
/// appended: `n ≥ 20462: (5x6, SSCC) 15α + (98/30)nβ = (6x5, SSCC)`.
impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut prev = None;
        for (n, s, c) in self.intervals() {
            if prev == Some(n) {
                write!(f, " = {s}")?;
            } else {
                let nl = if prev.is_some() { "\n" } else { "" };
                write!(f, "{nl}n ≥ {n}: {s} {}", c.display_over(s.nodes()))?;
            }
            prev = Some(n);
        }
        Ok(())
    }
}

/// What an envelope depends on: the op, a level-blind shape, the conflict
/// model and the floats (`ctx.link_excess`, then the machine's five) as
/// their bits, so a refit is simply a new key.
type Key = (CollectiveOp, GroupShape, ConflictModel, u64, [u64; 5]);

fn key(op: CollectiveOp, space: GroupShape, m: &MachineParams, ctx: CostContext) -> Key {
    let bits = [m.alpha, m.beta, m.gamma, m.delta, m.link_excess].map(f64::to_bits);
    (op, space, ctx.model, ctx.link_excess.to_bits(), bits)
}

/// Refit loops mint a new key per refit; past this many envelopes the
/// table starts over rather than grow without limit.
const MAX_ENVELOPES: usize = 1024;

static TABLE: LazyLock<RwLock<HashMap<Key, Arc<Envelope>>>> = LazyLock::new(Default::default);

/// The envelope of `op` over `shape`'s level-blind form priced under
/// `ctx` on `machine`: built by the first caller, shared with every
/// later one.
pub fn envelope(
    op: CollectiveOp,
    shape: GroupShape,
    machine: &MachineParams,
    ctx: CostContext,
) -> Arc<Envelope> {
    from_table(key(op, shape.level_blind(), machine, ctx), machine, ctx)
}

fn from_table(key: Key, machine: &MachineParams, ctx: CostContext) -> Arc<Envelope> {
    // A poisoned lock is recovered: inserts and clears leave the map valid.
    if let Some(e) = TABLE
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return e.clone();
    }
    let (op, space, ..) = key;
    let built = Arc::new(Envelope::build(op, space, *machine, ctx));
    let mut table = TABLE.write().unwrap_or_else(PoisonError::into_inner);
    if table.len() >= MAX_ENVELOPES {
        table.clear();
    }
    // Racing builders of one key all leave with the first insertion.
    table.entry(key).or_insert(built).clone()
}

/// How many envelopes a thread keeps in front of the table: the ops an
/// application cycles through on a couple of communicators (a cluster
/// call asks for one per stage and one flat). A longer cycle evicts
/// before it returns and pays the table's price plus a scan of the list.
const FRONT_LEN: usize = 16;

/// One remembered envelope of a thread's front.
type Slot = Option<(Key, Arc<Envelope>)>;

thread_local! {
    /// This thread's most recently used envelopes, newest first, empty
    /// slots last. An inline array: a rank thread's first selection
    /// comes after the application allocated its buffers, and a heap
    /// list growing between them cost `thr-large` a 2 MiB block of
    /// malloc-arena fragmentation in half its runs.
    static FRONT: RefCell<[Slot; FRONT_LEN]> = const { RefCell::new([const { None }; FRONT_LEN]) };
}

/// Runs `f` on the envelope a flat strategy over `shape` is selected
/// from at a level priced by `params` ([`GroupShape::context`]), as
/// [`envelope`] would return it. A thread that
/// asked for the same key before finds it in its own [`FRONT`] by
/// comparing keys: no lock taken, nothing hashed, no reference count
/// touched. The whole key is compared, machine bits included, so a
/// refit misses and goes to the table like any first call. `f` must not
/// select in turn: the front is borrowed while it runs.
pub(crate) fn with_envelope<R>(
    op: CollectiveOp,
    shape: GroupShape,
    params: &MachineParams,
    f: impl FnOnce(&Envelope) -> R,
) -> R {
    let ctx = shape.context(params);
    let key = key(op, shape.level_blind(), params, ctx);
    FRONT.with_borrow_mut(|front| {
        let hit = front
            .iter()
            .position(|slot| matches!(slot, Some((k, _)) if *k == key));
        match hit {
            Some(at) => front[..=at].rotate_right(1),
            None => {
                // The last slot, empty or least recently used, comes
                // first and is overwritten.
                front.rotate_right(1);
                front[0] = Some((key, from_table(key, params, ctx)));
            }
        }
        let (_, env) = front[0].as_ref().expect("a hit, or the slot just filled");
        f(env)
    })
}

/// Picks what runs for `op` over a group of `shape` at message length
/// `n` bytes on `machine`: the cheapest strategy of a line or a mesh at
/// the machine's network level (all a flat machine has), or on a
/// cluster the cheaper of the best hierarchical hybrid under the
/// per-level parameters and the best level-blind strategy, compared by
/// [`price`]. `Algo::Auto`, the plans and the tuner's re-selection all
/// select through here.
///
/// Every side is an envelope lookup, but a cluster's comparison
/// happens per call: a stage volume is `⌊n·num/den⌋`, so the hybrid's
/// price is not a line in `n` and a precomputed arbiter would move
/// picks near the crossover.
pub fn choose(op: CollectiveOp, shape: GroupShape, n: usize, machine: &HierMachine) -> HierChoice {
    let inter = machine.inter();
    let Some(cluster) = shape.cluster_shape() else {
        return HierChoice::Flat(choose_flat(op, shape, n, inter));
    };
    let flat_seconds = with_envelope(op, shape, inter, |env| env.at(n).1.eval(n, inter));
    match select_priced(op, cluster, n, machine) {
        Some((h, seconds)) if seconds < flat_seconds => HierChoice::Hier(h),
        // A second lookup, so that a call the hybrid wins clones no
        // flat strategy (the stages' lookups sit between the two).
        _ => HierChoice::Flat(choose_flat(op, shape, n, inter)),
    }
}

/// The cheapest level-blind strategy for `op` over `shape` at `n` bytes
/// on a level priced by `params`: one envelope lookup, the flat half
/// of [`choose`].
pub fn choose_flat(
    op: CollectiveOp,
    shape: GroupShape,
    n: usize,
    params: &MachineParams,
) -> Strategy {
    with_flat_choice(op, shape, n, params, Strategy::clone)
}

/// Runs `f` on [`choose_flat`]'s pick where its envelope keeps it: a
/// caller that already holds an equal strategy clones nothing. `f` must
/// not select in turn: the thread's envelopes are borrowed while it
/// runs.
pub fn with_flat_choice<R>(
    op: CollectiveOp,
    shape: GroupShape,
    n: usize,
    params: &MachineParams,
    f: impl FnOnce(&Strategy) -> R,
) -> R {
    with_envelope(op, shape, params, |env| f(env.at(n).0))
}

/// Predicted seconds of `choice` for `op` over `shape` at `n` bytes on
/// `machine`: the number [`choose`] compared it by.
pub fn price(
    op: CollectiveOp,
    shape: GroupShape,
    choice: &HierChoice,
    n: usize,
    machine: &HierMachine,
) -> f64 {
    match choice {
        HierChoice::Hier(h) => hier_cost(op, h, n, machine),
        HierChoice::Flat(s) => flat_price(op, shape, s, n, machine.inter()),
    }
}

/// Predicted seconds of the flat strategy `s` for `op` over `shape` at
/// `n` bytes on a level priced by `params`.
pub(crate) fn flat_price(
    op: CollectiveOp,
    shape: GroupShape,
    s: &Strategy,
    n: usize,
    params: &MachineParams,
) -> f64 {
    hybrid_cost(op, s, shape.context(params)).eval(n, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;

    #[test]
    fn tiny_messages_pick_mst() {
        let m = MachineParams::PARAGON_MODEL;
        let s = choose_flat(CollectiveOp::Broadcast, GroupShape::Linear(30), 8, &m);
        // ⌈log 30⌉ = 5 startups is latency-optimal; nothing beats it at 8 B.
        assert_eq!(s.kind, StrategyKind::Mst);
        assert_eq!(s.dims, vec![30]);
    }

    #[test]
    fn huge_messages_pick_low_beta() {
        let ranked = rank_strategies(
            CollectiveOp::Broadcast,
            30,
            1 << 20,
            &MachineParams::PARAGON_MODEL,
            CostContext::LINEAR,
            0,
        );
        let best = &ranked[0];
        // At 1 MB the β term dominates; the winner must be within a hair
        // of the minimum achievable β coefficient, 2(p−1)/p < 2.
        assert!(best.cost.beta_c < 2.0, "β coeff {}", best.cost.beta_c);
        assert_eq!(best.strategy.kind, StrategyKind::ScatterCollect);
    }

    #[test]
    fn ranking_is_sorted() {
        let ranked = rank_strategies(
            CollectiveOp::CombineToAll,
            24,
            4096,
            &MachineParams::PARAGON,
            CostContext::LINEAR,
            0,
        );
        assert!(ranked.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(!ranked.is_empty());
    }

    #[test]
    fn short_and_long_messages_pick_different_kinds() {
        let m = MachineParams::PARAGON_MODEL;
        let pick = |n| choose_flat(CollectiveOp::Broadcast, GroupShape::Linear(36), n, &m);
        assert_ne!(pick(8).kind, pick(1 << 22).kind);
        // Under the Paragon's link excess, the context a communicator
        // selects under: MST at 8 B, scatter/collect at 1 MiB.
        let m = MachineParams::PARAGON;
        let pick = |n| choose_flat(CollectiveOp::Broadcast, GroupShape::Linear(32), n, &m);
        assert_eq!(pick(8).kind, StrategyKind::Mst);
        assert_eq!(pick(1 << 20).kind, StrategyKind::ScatterCollect);
    }

    /// Selection by enumeration: the full ranking's first entry, which
    /// on a mesh is the first strict minimum over the mesh's candidates.
    fn pick(op: CollectiveOp, space: GroupShape, n: usize, m: &MachineParams) -> Strategy {
        let ctx = space.context(m);
        if let GroupShape::Linear(p) = space {
            return rank_strategies(op, p, n, m, ctx, 0).swap_remove(0).strategy;
        }
        let mut all = candidates(space, 0);
        let costs = all.iter().map(|s| hybrid_cost(op, s, ctx));
        all.swap_remove(first_min(costs, n, m))
    }

    /// The lengths one below, at and one above every breakpoint.
    fn around_breakpoints(op: CollectiveOp, space: GroupShape, m: &MachineParams) -> Vec<usize> {
        let env = envelope(op, space, m, space.context(m));
        let mut ns: Vec<usize> = env
            .intervals()
            .flat_map(|(n, ..)| [n.saturating_sub(1), n, n + 1])
            .collect();
        ns.dedup();
        ns
    }

    fn front_keys() -> Vec<Key> {
        FRONT.with_borrow(|front| front.iter().flatten().map(|(k, _)| *k).collect())
    }

    fn key_of(op: CollectiveOp, space: GroupShape, m: &MachineParams) -> Key {
        key(op, space, m, space.context(m))
    }

    #[test]
    fn front_equals_the_ranking_and_a_refit_never_hits_stale() {
        let old = MachineParams::PARAGON;
        let new = old.refit(old.alpha, 2.0 * old.beta);
        let mut moved = 0;
        for space in [
            GroupShape::Linear(30),
            GroupShape::Mesh { rows: 8, cols: 8 },
        ] {
            for op in CollectiveOp::ALL {
                let ns = around_breakpoints(op, space, &old);
                // This thread's first question about the key misses its
                // front, the rest hit the entry that miss left first.
                let k = key_of(op, space, &old);
                assert!(!front_keys().contains(&k));
                for &n in &ns {
                    assert_eq!(choose_flat(op, space, n, &old), pick(op, space, n, &old));
                    assert_eq!(front_keys()[0], k);
                }
                // Same thread, same space, `beta` doubled: the old
                // entry is still in the front and must not answer.
                for &n in &ns {
                    let want = pick(op, space, n, &new);
                    let got = choose_flat(op, space, n, &new);
                    assert_eq!(got, want, "{op:?} {space:?} n={n}");
                    moved += usize::from(want != pick(op, space, n, &old));
                }
                assert!(front_keys().contains(&k));
            }
        }
        assert!(moved > 0, "no pick depends on beta: a stale hit would pass");
    }

    #[test]
    fn front_evicts_the_least_recently_used_and_keeps_answering() {
        let (op, space) = (CollectiveOp::Broadcast, GroupShape::Linear(12));
        let machines: Vec<MachineParams> = (0..2 * FRONT_LEN + 3)
            .map(|i| MachineParams::PARAGON.refit(1e-6 * (1 + i) as f64, 1e-9))
            .collect();
        for _pass in 0..2 {
            for m in &machines {
                for n in [8, 4096, 1 << 20] {
                    assert_eq!(choose_flat(op, space, n, m), pick(op, space, n, m));
                }
            }
        }
        let recent = machines.iter().rev().take(FRONT_LEN);
        let want: Vec<Key> = recent.map(|m| key_of(op, space, m)).collect();
        assert_eq!(front_keys(), want);
    }

    #[test]
    fn detect_shapes() {
        let mesh = Mesh2D::new(4, 6);
        assert_eq!(
            GroupShape::detect(&ProcGroup::whole_mesh(&mesh), &mesh),
            GroupShape::Mesh { rows: 4, cols: 6 }
        );
        assert_eq!(
            GroupShape::detect(&ProcGroup::mesh_row(&mesh, 1), &mesh),
            GroupShape::Linear(6)
        );
        let scattered = ProcGroup::new(vec![0, 7, 14, 21]).unwrap();
        assert_eq!(GroupShape::detect(&scattered, &mesh), GroupShape::Linear(4));
    }

    #[test]
    fn a_cluster_is_level_blind_as_a_line_of_all_its_ranks() {
        let cluster = ClusterShape::linear(4, 4);
        let shape = GroupShape::Cluster(cluster);
        assert_eq!(shape.nodes(), 16);
        assert_eq!(shape.cluster_shape(), Some(cluster));
        assert_eq!(GroupShape::Linear(16).cluster_shape(), None);
        assert_eq!(shape.level_blind(), GroupShape::Linear(16));
        let mesh = GroupShape::Mesh { rows: 2, cols: 8 };
        assert_eq!(mesh.level_blind(), mesh);
        // A cluster's level-blind line, priced at the level it is asked at.
        let m = MachineParams::PARAGON;
        assert_eq!(shape.context(&m), CostContext::linear_with(&m));
        assert_eq!(mesh.context(&m), CostContext::mesh_with(&m));
    }

    #[test]
    fn one_function_selects_and_one_prices_for_every_shape() {
        let machine = HierMachine::paragon_cluster();
        let cluster = ClusterShape {
            inter_rows: 2,
            inter_cols: 2,
            ranks_per_node: 4,
        };
        let (op, n) = (CollectiveOp::CombineToAll, 1 << 16);
        // On a cluster the hybrid and the level-blind line compete, and
        // `price` is the number they were compared by.
        let shape = GroupShape::Cluster(cluster);
        let picked = choose(op, shape, n, &machine);
        assert!(matches!(picked, HierChoice::Hier(_)));
        let blind = choose(op, shape.level_blind(), n, &machine);
        assert!(matches!(blind, HierChoice::Flat(_)));
        assert!(price(op, shape, &picked, n, &machine) < price(op, shape, &blind, n, &machine));
        // A flat machine is the one-level ladder of the same call.
        let net = *machine.inter();
        let line = GroupShape::Linear(16);
        assert_eq!(
            choose(op, line, n, &HierMachine::flat(net)),
            HierChoice::Flat(choose_flat(op, line, n, &net))
        );
        for n in [8, 1024, 1 << 20] {
            let mesh = GroupShape::Mesh { rows: 16, cols: 32 };
            assert_eq!(choose_flat(op, mesh, n, &net).nodes(), 512);
            assert_eq!(choose_flat(op, GroupShape::Linear(1), n, &net).nodes(), 1);
        }
    }
}
