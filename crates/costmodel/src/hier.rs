//! The machine model and hierarchical strategy selection.
//!
//! A cluster of multi-core nodes has *per-level* wire parameters: cheap
//! near-zero-α shared-memory links inside a node, an expensive network
//! between nodes (Task & Chauhan's cluster model; Barchet-Estefanel &
//! Mounié's intra-cluster characterization). [`HierMachine`] is the one
//! description of a machine everything below the public constructors
//! reads: a short ladder of per-level [`MachineParams`], of which a flat
//! machine is the one-level case ([`HierMachine::flat`]). [`TunedHier`]
//! versions it: every per-level refit bumps one monotonic version that
//! caches and persisted tables key on.
//!
//! A hierarchical strategy ([`HierStrategy`]) fills an op's two-level
//! template ([`hier_template`], the one statement of which collective
//! runs at which level): e.g. combine-to-all on a cluster is "reduce
//! intra-node, then allreduce inter-node among node leaders, then
//! broadcast intra-node", and the strategy names the ordinary flat
//! [`Strategy`] each stage runs over its level subgroup — every stage
//! but a gather or scatter, which runs the fixed MST primitive. Because
//! the stages execute sequentially and each stage's cost depends only
//! on its own strategy, per-level selection ([`select_hier`]) — best
//! flat strategy per stage under that level's parameters at that
//! stage's message volume — is globally optimal over the full cross
//! product ([`enumerate_hier_strategies`]).
//!
//! Flat strategies are priced on a cluster by [`flat_on_cluster_cost`]
//! with the *inter-node* parameters: a level-blind schedule's critical
//! path crosses inter-node links in every stage (any group spanning
//! more than one node does), so its wire terms pay the expensive level.
//! [`choose`](crate::select::choose) prices the best hierarchical hybrid
//! against the best flat strategy under that model and returns
//! whichever wins.

use crate::collective::{hybrid_cost, short_cost, CollectiveOp, CostContext};
use crate::machine::MachineParams;
use crate::select::{candidates, flat_price, with_envelope, GroupShape};
use crate::strategy::Strategy;
use std::fmt;

/// Per-level machine parameters: level 0 is the innermost (intra-node)
/// level, the last level the outermost (inter-node) network. At most
/// two levels, stored inline, so a machine is `Copy` and describing one
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierMachine {
    /// Level 0. On a flat machine the same parameters as `inter`.
    intra: MachineParams,
    /// The outermost level.
    inter: MachineParams,
    levels: u8,
}

impl HierMachine {
    /// A flat machine: the one-level ladder. Every level query returns
    /// `params`, so per-level code runs unchanged on it.
    pub fn flat(params: MachineParams) -> Self {
        HierMachine {
            intra: params,
            inter: params,
            levels: 1,
        }
    }

    /// The common cluster case: cheap intra-node level 0, expensive
    /// inter-node level 1.
    pub fn two_level(intra: MachineParams, inter: MachineParams) -> Self {
        HierMachine {
            intra,
            inter,
            levels: 2,
        }
    }

    /// A Paragon-backbone cluster: shared-memory multi-core nodes
    /// (≈400 MB/s links, ≈5 µs startup, fast combine) joined by a
    /// Paragon-like network (β ratio 15×, α ratio ≈27×). γ is the node
    /// CPU's combine rate, so it is the same at both levels; δ is zero —
    /// the per-recursion software overhead of the 1994 library is not a
    /// property of the cluster model.
    pub fn paragon_cluster() -> Self {
        HierMachine::two_level(
            MachineParams {
                alpha: 5e-6,
                beta: 2.5e-9,
                gamma: 2e-9,
                delta: 0.0,
                link_excess: 2.0,
            },
            MachineParams {
                gamma: 2e-9,
                delta: 0.0,
                ..MachineParams::PARAGON
            },
        )
    }

    /// A Delta-backbone cluster (β ratio exactly 10×, same node CPUs at
    /// both levels).
    pub fn delta_cluster() -> Self {
        HierMachine::two_level(
            MachineParams {
                alpha: 10e-6,
                beta: 12.5e-9,
                gamma: 2e-9,
                delta: 0.0,
                link_excess: 1.0,
            },
            MachineParams {
                gamma: 2e-9,
                delta: 0.0,
                ..MachineParams::DELTA
            },
        )
    }

    /// Number of levels (1 for a flat machine).
    pub fn levels(&self) -> usize {
        self.levels as usize
    }

    /// True for the one-level ladder.
    pub fn is_flat(&self) -> bool {
        self.levels == 1
    }

    /// The parameters of level `i`, clamping past the last level — so a
    /// flat machine answers every level query with its only parameter
    /// set, and two-level code runs unchanged on it.
    pub fn level(&self, i: usize) -> &MachineParams {
        if i == 0 {
            &self.intra
        } else {
            &self.inter
        }
    }

    /// The innermost (intra-node) level.
    pub fn intra(&self) -> &MachineParams {
        &self.intra
    }

    /// The outermost (inter-node) level.
    pub fn inter(&self) -> &MachineParams {
        &self.inter
    }

    /// Returns a copy with level `i`'s wire terms replaced by measured
    /// estimates (per [`MachineParams::refit`] — γ, δ, `link_excess`
    /// untouched, non-positive estimates ignored). Panics if the level
    /// does not exist: a refit names the level it measured.
    pub fn refit_level(mut self, i: usize, alpha_hat: f64, beta_hat: f64) -> Self {
        assert!(i < self.levels(), "level {i} out of range");
        let refit = self.level(i).refit(alpha_hat, beta_hat);
        // The only level of a flat machine is both its ends.
        if i == 0 {
            self.intra = refit;
        }
        if i + 1 == self.levels() {
            self.inter = refit;
        }
        self
    }
}

/// A versioned [`HierMachine`]: version 1 is the as-configured state
/// and every per-level refit bumps the shared version, so one monotonic
/// counter keys cache invalidation, persisted-table staleness and the
/// `intercom_machine_params_version` gauge no matter which level
/// drifted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedHier {
    /// The per-level parameters currently pricing selections.
    pub current: HierMachine,
    /// Monotonic version, starting at 1.
    pub version: u64,
}

impl TunedHier {
    /// Wraps freshly configured per-level parameters at version 1.
    pub fn new(machine: HierMachine) -> Self {
        TunedHier {
            current: machine,
            version: 1,
        }
    }

    /// Installs measured α̂/β̂ for one level and bumps the version.
    /// Returns the new version.
    pub fn refit_level(&mut self, level: usize, alpha_hat: f64, beta_hat: f64) -> u64 {
        self.current = self.current.refit_level(level, alpha_hat, beta_hat);
        self.version += 1;
        self.version
    }
}

/// The shape of a cluster: an `inter_rows × inter_cols` inter-node mesh
/// with `ranks_per_node` ranks in every node — the hierarchy descriptor
/// selection and the plan cache key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterShape {
    /// Rows of the inter-node mesh.
    pub inter_rows: usize,
    /// Columns of the inter-node mesh.
    pub inter_cols: usize,
    /// Ranks per node (intra-node group size).
    pub ranks_per_node: usize,
}

impl ClusterShape {
    /// A linear array of `nodes` nodes with `ranks_per_node` each.
    pub fn linear(nodes: usize, ranks_per_node: usize) -> Self {
        ClusterShape {
            inter_rows: 1,
            inter_cols: nodes,
            ranks_per_node,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.inter_rows * self.inter_cols
    }

    /// Total ranks.
    pub fn ranks(&self) -> usize {
        self.nodes() * self.ranks_per_node
    }
}

impl fmt::Display for ClusterShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}",
            self.inter_rows, self.inter_cols, self.ranks_per_node
        )
    }
}

/// One stage of a hierarchical template: the level, the collective it
/// runs over its level subgroup, the subgroup size, and the stage's
/// message volume as a fraction `num/den` of the op's `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// Hierarchy level (0 = intra-node, 1 = inter-node).
    pub level: u8,
    /// The collective the stage runs, priced by its cost formula.
    pub op: CollectiveOp,
    /// Size of the level subgroup the stage spans.
    pub group: usize,
    /// Numerator of the stage volume as a fraction of `n`.
    pub frac_num: usize,
    /// Denominator of the stage volume as a fraction of `n`.
    pub frac_den: usize,
}

impl StageSpec {
    /// The stage's message volume in bytes for an op-level volume `n`.
    pub fn bytes(&self, n: usize) -> usize {
        n * self.frac_num / self.frac_den
    }

    /// Whether the stage runs a flat strategy of its own. A gather or
    /// scatter stage runs the fixed MST primitive (§4.2), which serves
    /// both regimes, so a strategy would change nothing it does.
    pub fn takes_strategy(&self) -> bool {
        !matches!(self.op, CollectiveOp::Gather | CollectiveOp::Scatter)
    }

    /// The shape of the stage's subgroup, which says the candidates the
    /// stage draws its flat strategy from and the conflict model it is
    /// priced under ([`GroupShape::context`]). An inter stage on a true 2-D
    /// inter mesh picks among the §7.1 mesh-aware strategies: the
    /// leader plane keeps the inter mesh's row/column structure. On a
    /// linear inter mesh (1×C or R×1) the leader plane embeds as a
    /// physical line, where the linear-array strategies are exact — as
    /// they are inside a node.
    fn shape(&self, cluster: ClusterShape) -> GroupShape {
        if self.level == 1 && cluster.inter_rows > 1 && cluster.inter_cols > 1 {
            GroupShape::Mesh {
                rows: cluster.inter_rows,
                cols: cluster.inter_cols,
            }
        } else {
            GroupShape::Linear(self.group)
        }
    }

    /// What the stage is selected and priced under at op-level volume
    /// `n` on `machine`, on `cluster`: its level's parameters, its
    /// shape, the conflict context of that shape at that level
    /// ([`GroupShape::context`]), and its volume in bytes.
    fn inputs<'m>(
        &self,
        cluster: ClusterShape,
        n: usize,
        machine: &'m HierMachine,
    ) -> (&'m MachineParams, GroupShape, CostContext, usize) {
        let params = machine.level(self.level as usize);
        let shape = self.shape(cluster);
        (params, shape, shape.context(params), self.bytes(n))
    }

    /// The stage's name in the strategy-string grammar.
    fn name(&self) -> &'static str {
        match self.op {
            CollectiveOp::Broadcast => "bcast",
            CollectiveOp::CombineToOne => "reduce",
            CollectiveOp::CombineToAll => "allreduce",
            CollectiveOp::Gather => "gather",
            CollectiveOp::Collect => "collect",
            CollectiveOp::Scatter => "scatter",
            CollectiveOp::DistributedCombine => "reduce-scatter",
        }
    }
}

/// A hierarchical strategy: one flat [`Strategy`] for each stage of
/// `op`'s [`hier_template`] on `shape` that takes one, in stage order.
/// The template alone says which collective runs at which level. Its
/// strategy string tags each stage with both, e.g. combine-to-all as
/// `[L0:reduce(4, M) ; L1:allreduce(2x2, SMC) ; L0:bcast(4, M)] @2x2x4`
/// and collect's strategy-free gather as `L0:gather`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HierStrategy {
    op: CollectiveOp,
    shape: ClusterShape,
    strategies: Vec<Strategy>,
}

impl HierStrategy {
    /// The strategy running `strategies`, in order, in the stages of
    /// `op`'s template on `shape` that take one. `None` when `op` has no
    /// template, or the strategies are not one per such stage, each
    /// spanning its stage's subgroup.
    pub fn new(op: CollectiveOp, shape: ClusterShape, strategies: Vec<Strategy>) -> Option<Self> {
        let specs = hier_template(op, shape)?;
        let groups = specs.iter().filter(|s| s.takes_strategy()).map(|s| s.group);
        let fits = groups.eq(strategies.iter().map(Strategy::nodes));
        fits.then_some(HierStrategy {
            op,
            shape,
            strategies,
        })
    }

    /// The collective whose template the strategy fills.
    pub fn op(&self) -> CollectiveOp {
        self.op
    }

    /// The cluster shape the strategy runs over.
    pub fn shape(&self) -> ClusterShape {
        self.shape
    }

    /// The flat strategies of the strategy-taking stages, in order.
    pub fn strategies(&self) -> &[Strategy] {
        &self.strategies
    }

    /// The template's stages in execution order, each with the flat
    /// strategy it runs (`None` for a gather or scatter stage).
    pub fn stages(&self) -> impl Iterator<Item = (StageSpec, Option<&Strategy>)> {
        let mut strategies = self.strategies.iter();
        hier_template(self.op, self.shape)
            .expect("a hierarchical strategy is built from a template")
            .into_iter()
            .map(move |spec| {
                (
                    spec,
                    spec.takes_strategy().then(|| strategies.next()).flatten(),
                )
            })
    }
}

impl fmt::Display for HierStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (spec, strategy)) in self.stages().enumerate() {
            if i > 0 {
                write!(f, " ; ")?;
            }
            write!(f, "L{}:{}", spec.level, spec.name())?;
            if let Some(s) = strategy {
                write!(f, "{s}")?;
            }
        }
        write!(f, "] @{}", self.shape)
    }
}

/// The hierarchical decomposition template for `op` on `shape`: which
/// collective runs at which level, in order, with each stage's subgroup
/// size and message volume. `n` conventions match the flat cost model:
/// the whole vector for broadcast/combine ops, the full concatenated
/// vector for collect and distributed combine.
///
/// Returns `None` for ops without a hierarchical decomposition here
/// (scatter and gather stay flat: they are root-personalized and gain
/// nothing from a leader stage on two levels).
pub fn hier_template(op: CollectiveOp, shape: ClusterShape) -> Option<Vec<StageSpec>> {
    let m = shape.nodes();
    let r = shape.ranks_per_node;
    let spec = |level: u8, op: CollectiveOp, group: usize, num: usize, den: usize| StageSpec {
        level,
        op,
        group,
        frac_num: num,
        frac_den: den,
    };
    let stages = match op {
        // Inter-node broadcast among leaders, then fan out in-node.
        CollectiveOp::Broadcast => vec![
            spec(1, CollectiveOp::Broadcast, m, 1, 1),
            spec(0, CollectiveOp::Broadcast, r, 1, 1),
        ],
        // Combine in-node to leaders, then across leaders to the root.
        CollectiveOp::CombineToOne => vec![
            spec(0, CollectiveOp::CombineToOne, r, 1, 1),
            spec(1, CollectiveOp::CombineToOne, m, 1, 1),
        ],
        // Reduce in-node, allreduce across leaders, broadcast in-node.
        CollectiveOp::CombineToAll => vec![
            spec(0, CollectiveOp::CombineToOne, r, 1, 1),
            spec(1, CollectiveOp::CombineToAll, m, 1, 1),
            spec(0, CollectiveOp::Broadcast, r, 1, 1),
        ],
        // Gather node blocks to leaders (n/m each), collect across
        // leaders, broadcast the full vector in-node.
        CollectiveOp::Collect => vec![
            spec(0, CollectiveOp::Gather, r, 1, m),
            spec(1, CollectiveOp::Collect, m, 1, 1),
            spec(0, CollectiveOp::Broadcast, r, 1, 1),
        ],
        // Reduce full vectors in-node, reduce-scatter node blocks
        // across leaders, scatter the node block (n/m) in-node.
        CollectiveOp::DistributedCombine => vec![
            spec(0, CollectiveOp::CombineToOne, r, 1, 1),
            spec(1, CollectiveOp::DistributedCombine, m, 1, 1),
            spec(0, CollectiveOp::Scatter, r, 1, m),
        ],
        CollectiveOp::Scatter | CollectiveOp::Gather => return None,
    };
    Some(stages)
}

/// Every hierarchical strategy for `op` on `shape`: every combination
/// of flat strategies for the template's strategy-taking stages
/// (`max_dims` bounds each stage's logical-mesh depth; 0 = unlimited),
/// each from its stage's candidate space. Empty when the op has no
/// hierarchical template.
pub fn enumerate_hier_strategies(
    op: CollectiveOp,
    shape: ClusterShape,
    max_dims: usize,
) -> Vec<HierStrategy> {
    let Some(specs) = hier_template(op, shape) else {
        return Vec::new();
    };
    let mut out = vec![Vec::new()];
    for spec in specs.iter().filter(|s| s.takes_strategy()) {
        let cands = candidates(spec.shape(shape), max_dims);
        out = out
            .iter()
            .flat_map(|prefix| {
                cands.iter().map(|c| {
                    let mut strategies: Vec<Strategy> = prefix.clone();
                    strategies.push(c.clone());
                    strategies
                })
            })
            .collect();
    }
    out.into_iter()
        .map(|strategies| HierStrategy {
            op,
            shape,
            strategies,
        })
        .collect()
}

/// Predicted seconds for one hierarchical strategy at op-level volume
/// `n` bytes: the sum of its stages, each priced by the flat hybrid
/// cost of its strategy (the MST primitive's where it takes none) under
/// its *level's* parameters at its stage volume. Stages execute
/// sequentially (each level hands off to the next), so the sum is the
/// critical path.
pub fn hier_cost(op: CollectiveOp, hs: &HierStrategy, n: usize, machine: &HierMachine) -> f64 {
    assert_eq!(op, hs.op, "the strategy fills the op's template");
    hs.stages()
        .map(|(spec, strategy)| {
            let (params, _, ctx, bytes) = spec.inputs(hs.shape, n, machine);
            let cost = match strategy {
                Some(s) => hybrid_cost(spec.op, s, ctx),
                None => short_cost(spec.op, spec.group, ctx),
            };
            cost.eval(bytes, params)
        })
        .sum()
}

/// Prices a *flat* (level-blind) strategy on a cluster: every stage of
/// a flat schedule spans multiple nodes, so its critical path pays the
/// inter-node wire parameters — the worst-hop model. This is what
/// hierarchical hybrids are compared against.
pub fn flat_on_cluster_cost(
    op: CollectiveOp,
    s: &Strategy,
    n: usize,
    machine: &HierMachine,
) -> f64 {
    flat_price(op, GroupShape::Linear(s.nodes()), s, n, machine.inter())
}

/// Per-level selection with its price: each strategy-taking stage
/// looks up its level's envelope at its stage volume, a gather or
/// scatter stage prices the MST primitive, and those costs at that
/// volume sum to what [`hier_cost`] would say of the result.
pub(crate) fn select_priced(
    op: CollectiveOp,
    shape: ClusterShape,
    n: usize,
    machine: &HierMachine,
) -> Option<(HierStrategy, f64)> {
    let mut seconds = 0.0;
    let mut strategies = Vec::new();
    for spec in hier_template(op, shape)? {
        let (params, space, ctx, bytes) = spec.inputs(shape, n, machine);
        seconds += if spec.takes_strategy() {
            with_envelope(spec.op, space, params, |env| {
                let (strategy, cost) = env.at(bytes);
                strategies.push(strategy.clone());
                cost.eval(bytes, params)
            })
        } else {
            short_cost(spec.op, spec.group, ctx).eval(bytes, params)
        };
    }
    let hs = HierStrategy {
        op,
        shape,
        strategies,
    };
    Some((hs, seconds))
}

/// Per-level selection: the cheapest hierarchical strategy for `op` on
/// `shape` at `n` bytes. Each stage independently picks the best flat
/// strategy under its level's parameters at its stage volume — globally
/// optimal because stage costs are separable. `None` when the op has no
/// hierarchical template.
pub fn select_hier(
    op: CollectiveOp,
    shape: ClusterShape,
    n: usize,
    machine: &HierMachine,
) -> Option<HierStrategy> {
    select_priced(op, shape, n, machine).map(|(h, _)| h)
}

/// What [`choose`](crate::select::choose) decided: run flat, or run
/// the hierarchical hybrid.
#[derive(Debug, Clone, PartialEq)]
pub enum HierChoice {
    /// The best flat strategy wins (or the op has no hierarchy).
    Flat(Strategy),
    /// The hierarchical hybrid wins.
    Hier(HierStrategy),
}

impl fmt::Display for HierChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierChoice::Flat(s) => s.fmt(f),
            HierChoice::Hier(h) => h.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_machine() -> HierMachine {
        HierMachine::paragon_cluster()
    }

    #[test]
    fn flat_machine_is_the_one_level_ladder() {
        fn is_copy<T: Copy>(_: &T) {}
        let params = MachineParams::PARAGON;
        let m = HierMachine::flat(params);
        is_copy(&m);
        is_copy(&TunedHier::new(m));
        assert!(m.is_flat());
        assert_eq!(m.levels(), 1);
        // Level queries clamp: intra == inter == level 7 == the machine.
        for level in [m.intra(), m.inter(), m.level(7)] {
            assert_eq!(level, &params);
        }
        // A refit of the only level is seen through every query, and a
        // ladder equals another by its levels alone.
        let refit = m.refit_level(0, 1e-6, 1e-9);
        assert_eq!(refit.inter().beta, 1e-9);
        assert_eq!(refit, HierMachine::flat(params.refit(1e-6, 1e-9)));
        assert_ne!(m, HierMachine::two_level(params, params));
    }

    #[test]
    fn every_refit_bumps_the_one_version() {
        let mut t = TunedHier::new(cluster_machine());
        assert_eq!(t.version, 1);
        let before_inter = *t.current.inter();
        assert_eq!(t.refit_level(0, 2e-6, 1e-9), 2);
        assert_eq!(t.refit_level(1, 200e-6, 50e-9), 3);
        // Level 0 refit left level 1 untouched until its own refit.
        assert_ne!(*t.current.inter(), before_inter);
        assert_eq!(t.current.intra().alpha, 2e-6);
        // γ/δ/link_excess survive refits (unobservable by the fit).
        assert_eq!(t.current.intra().gamma, 2e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn refit_of_missing_level_panics() {
        cluster_machine().refit_level(2, 1e-6, 1e-9);
    }

    #[test]
    fn templates_cover_the_five_hierarchical_ops() {
        let shape = ClusterShape::linear(4, 3);
        for op in [
            CollectiveOp::Broadcast,
            CollectiveOp::CombineToOne,
            CollectiveOp::CombineToAll,
            CollectiveOp::Collect,
            CollectiveOp::DistributedCombine,
        ] {
            let t = hier_template(op, shape).unwrap();
            assert!(!t.is_empty());
            // Every inter stage spans the nodes, every intra stage one node.
            for s in &t {
                match s.level {
                    0 => assert_eq!(s.group, 3),
                    1 => assert_eq!(s.group, 4),
                    _ => panic!("unexpected level"),
                }
            }
        }
        assert!(hier_template(CollectiveOp::Scatter, shape).is_none());
        assert!(hier_template(CollectiveOp::Gather, shape).is_none());
    }

    #[test]
    fn per_level_selection_matches_exhaustive_enumeration() {
        // Separable stage costs: per-stage argmin == argmin over the
        // full cross product.
        let shape = ClusterShape::linear(3, 4);
        let m = cluster_machine();
        for op in [CollectiveOp::Broadcast, CollectiveOp::CombineToAll] {
            for n in [8usize, 4096, 1 << 18] {
                let selected = select_hier(op, shape, n, &m).unwrap();
                let sel_cost = hier_cost(op, &selected, n, &m);
                let min_cost = enumerate_hier_strategies(op, shape, 2)
                    .iter()
                    .map(|h| hier_cost(op, h, n, &m))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    sel_cost <= min_cost + 1e-15,
                    "{op:?} n={n}: selected {sel_cost} vs enumerated min {min_cost}"
                );
            }
        }
    }

    #[test]
    fn enumeration_fills_only_the_strategy_taking_stages() {
        // The cross product is the product of per-stage candidate
        // counts; collect's gather and reduce-scatter's scatter take none.
        let shape = ClusterShape::linear(2, 2);
        let per = crate::enumerate_strategies(2, 0).len();
        for (op, slots) in [
            (CollectiveOp::CombineToAll, 3),
            (CollectiveOp::Collect, 2),
            (CollectiveOp::DistributedCombine, 2),
        ] {
            let all = enumerate_hier_strategies(op, shape, 0);
            assert_eq!(all.len(), per.pow(slots as u32));
            assert!(all.iter().all(|h| h.strategies().len() == slots));
        }
    }

    #[test]
    fn a_strategy_fits_its_template_or_is_not_built() {
        let shape = ClusterShape::linear(4, 2);
        let (intra, inter) = (Strategy::pure_mst(2), Strategy::pure_long(4));
        let collect = |s: Vec<Strategy>| HierStrategy::new(CollectiveOp::Collect, shape, s);
        let h = collect(vec![inter.clone(), intra.clone()]).unwrap();
        assert_eq!(
            h.to_string(),
            "[L0:gather ; L1:collect(4, SC) ; L0:bcast(2, M)] @1x4x2"
        );
        // A strategy for the gather stage, a missing one, or one for
        // the wrong subgroup: no value.
        assert!(collect(vec![intra.clone(), inter.clone(), intra.clone()]).is_none());
        assert!(collect(vec![inter.clone()]).is_none());
        assert!(collect(vec![intra.clone(), inter.clone()]).is_none());
        assert!(HierStrategy::new(CollectiveOp::Gather, shape, Vec::new()).is_none());
    }

    #[test]
    fn hybrid_beats_flat_when_inter_links_are_expensive() {
        // The acceptance-criterion regime: inter β ≥ 10× intra β. The
        // hierarchical hybrid must win broadcast and combine-to-all at
        // multiple shapes, short and long vectors.
        let m = cluster_machine();
        assert!(m.inter().beta >= 10.0 * m.intra().beta);
        for shape in [ClusterShape::linear(4, 4), ClusterShape::linear(8, 4)] {
            for op in [CollectiveOp::Broadcast, CollectiveOp::CombineToAll] {
                for n in [8usize, 1 << 16] {
                    let cluster = GroupShape::Cluster(shape);
                    match crate::select::choose(op, cluster, n, &m) {
                        HierChoice::Hier(h) => {
                            let flat = crate::select::choose_flat(op, cluster, n, m.inter());
                            assert!(
                                hier_cost(op, &h, n, &m) < flat_on_cluster_cost(op, &flat, n, &m),
                                "{op:?} {shape} n={n}"
                            );
                        }
                        HierChoice::Flat(s) => {
                            panic!("flat {s} won {op:?} on {shape} at n={n}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn strategy_string_grammar() {
        let shape = ClusterShape::linear(4, 4);
        let h = select_hier(CollectiveOp::CombineToAll, shape, 8, &cluster_machine()).unwrap();
        let s = format!("{h}");
        assert!(s.starts_with("[L0:reduce("), "{s}");
        assert!(s.contains(" ; L1:allreduce("), "{s}");
        assert!(s.contains(" ; L0:bcast("), "{s}");
        assert!(s.ends_with("] @1x4x4"), "{s}");
    }

    #[test]
    fn degenerate_single_rank_nodes_still_select() {
        // rpn = 1: intra stages are trivial singleton collectives.
        let shape = ClusterShape::linear(6, 1);
        let m = cluster_machine();
        let h = select_hier(CollectiveOp::Broadcast, shape, 1024, &m).unwrap();
        assert_eq!(h.strategies()[1].nodes(), 1);
        let c = hier_cost(CollectiveOp::Broadcast, &h, 1024, &m);
        assert!(c.is_finite() && c > 0.0);
    }

    #[test]
    fn collect_stage_volumes_scale_with_node_count() {
        let shape = ClusterShape::linear(4, 2);
        let t = hier_template(CollectiveOp::Collect, shape).unwrap();
        // Intra gather moves n/m; inter collect and intra bcast move n.
        assert_eq!(t[0].bytes(4096), 1024);
        assert_eq!(t[1].bytes(4096), 4096);
        assert_eq!(t[2].bytes(4096), 4096);
    }
}
