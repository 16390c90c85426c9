//! Closed-form costs for every collective (paper §4–§6).
//!
//! Each of the paper's seven target collectives (Table 1) has a hybrid
//! cost parameterized by a [`Strategy`]; the pure short-vector composed
//! algorithm of §5.1 is the `(1×p, M)` strategy and the pure long-vector
//! composed algorithm of §5.2 is the `(1×p, SC)` strategy, so one formula
//! per collective covers the whole §4–§6 design space.
//!
//! ## Stage cost derivation
//!
//! With dims `d1 … dk` (fastest first), stride `sᵢ = d1·…·dᵢ₋₁`, message
//! volume per dimension-`i` line `Lᵢ = n/sᵢ`, and conflict factor `cᵢ`
//! ([`Strategy::conflict_factor`]), the stages cost:
//!
//! | stage | α | n·β (×cᵢ) | n·γ |
//! |---|---|---|---|
//! | MST broadcast (d)      | ⌈log d⌉ | ⌈log d⌉·Lᵢ/n      | — |
//! | MST combine (d)        | ⌈log d⌉ | ⌈log d⌉·Lᵢ/n      | ⌈log d⌉·Lᵢ/n |
//! | MST scatter / gather   | ⌈log d⌉ | ((d−1)/d)·Lᵢ/n    | — |
//! | bucket collect         | d−1     | ((d−1)/d)·Lᵢ/n    | — |
//! | bucket dist. combine   | d−1     | ((d−1)/d)·Lᵢ/n    | ((d−1)/d)·Lᵢ/n |
//!
//! Conflict factors multiply only the β term (network sharing does not
//! slow arithmetic). On a linear array `cᵢ = sᵢ`, which cancels the
//! `1/sᵢ` in `Lᵢ` — exactly the paper's Table 2 expressions.

use crate::expr::CostExpr;
use crate::machine::MachineParams;
use crate::strategy::{ConflictModel, Strategy, StrategyKind};

/// The seven target collective communication operations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveOp {
    /// One node's vector `x` ends up at every node.
    Broadcast,
    /// Root's `x` is split into blocks; node `j` receives `xⱼ`.
    Scatter,
    /// Inverse of scatter: blocks `xⱼ` end up concatenated at the root.
    Gather,
    /// Every node's block ends up at every node (allgather).
    Collect,
    /// Element-wise combine of all `y⁽ʲ⁾`, result at the root (reduce).
    CombineToOne,
    /// Element-wise combine, result at every node (allreduce).
    CombineToAll,
    /// Element-wise combine, block `j` of the result at node `j`
    /// (reduce-scatter).
    DistributedCombine,
}

impl CollectiveOp {
    /// All seven operations.
    pub const ALL: [CollectiveOp; 7] = [
        CollectiveOp::Broadcast,
        CollectiveOp::Scatter,
        CollectiveOp::Gather,
        CollectiveOp::Collect,
        CollectiveOp::CombineToOne,
        CollectiveOp::CombineToAll,
        CollectiveOp::DistributedCombine,
    ];

    /// Whether the operation performs arithmetic (has a γ term).
    pub fn combines(&self) -> bool {
        matches!(
            self,
            CollectiveOp::CombineToOne
                | CollectiveOp::CombineToAll
                | CollectiveOp::DistributedCombine
        )
    }

    /// Human-readable name matching the paper's Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveOp::Broadcast => "broadcast",
            CollectiveOp::Scatter => "scatter",
            CollectiveOp::Gather => "gather",
            CollectiveOp::Collect => "collect",
            CollectiveOp::CombineToOne => "combine-to-one",
            CollectiveOp::CombineToAll => "combine-to-all",
            CollectiveOp::DistributedCombine => "distributed combine",
        }
    }
}

/// Where the strategy executes — determines the conflict factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostContext {
    /// Physical layout assumption.
    pub model: ConflictModel,
    /// Machine link-excess factor (discounts linear-array conflicts).
    pub link_excess: f64,
}

impl CostContext {
    /// The pure §2/§6 linear-array model (used for Table 2 and Fig. 2).
    pub const LINEAR: CostContext = CostContext {
        model: ConflictModel::LinearArray,
        link_excess: 1.0,
    };

    /// Stages mapped to physical mesh rows/columns (§7.1): conflict-free.
    pub const MESH: CostContext = CostContext {
        model: ConflictModel::MeshRowsCols,
        link_excess: 1.0,
    };

    /// Linear-array conflicts discounted by a machine's link excess.
    pub fn linear_with(machine: &MachineParams) -> Self {
        CostContext {
            model: ConflictModel::LinearArray,
            link_excess: machine.link_excess,
        }
    }

    /// Mesh rows/columns staging with a machine's link excess.
    pub fn mesh_with(machine: &MachineParams) -> Self {
        CostContext {
            model: ConflictModel::MeshRowsCols,
            link_excess: machine.link_excess,
        }
    }
}

fn ceil_log2(d: usize) -> f64 {
    if d <= 1 {
        0.0
    } else {
        (usize::BITS - (d - 1).leading_zeros()) as f64
    }
}

/// The algorithmic building block a pipeline stage runs (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// MST (minimum spanning tree) broadcast.
    MstBcast,
    /// MST combine (reduce) with per-level arithmetic.
    MstCombine,
    /// MST scatter.
    MstScatter,
    /// MST gather.
    MstGather,
    /// Bucket (ring) collect.
    BucketCollect,
    /// Bucket (ring) distributed combine.
    BucketReduceScatter,
}

impl StageKind {
    /// Short display name, e.g. `"mst-scatter"`.
    pub fn name(&self) -> &'static str {
        match self {
            StageKind::MstBcast => "mst-bcast",
            StageKind::MstCombine => "mst-combine",
            StageKind::MstScatter => "mst-scatter",
            StageKind::MstGather => "mst-gather",
            StageKind::BucketCollect => "ring-collect",
            StageKind::BucketReduceScatter => "ring-reduce-scatter",
        }
    }
}

/// One pipeline stage of a hybrid collective with its predicted cost.
///
/// `level` is the recursion level (= logical dimension index, fastest
/// first) and `sub` the stage's slot within the level, chosen to match
/// the tag layout of `intercom`'s recursive template: a stage recorded
/// at tag offset `level · LEVEL_TAG_STRIDE + sub` by the algorithms is
/// predicted by the `StagePrediction` with the same `(level, sub)`.
/// Evaluating [`StagePrediction::cost`] with the collective's *total*
/// vector length `n` yields the stage's predicted wall time — the
/// per-stage message-length reduction is already folded into the
/// coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePrediction {
    /// Recursion level (logical dimension index, fastest first).
    pub level: usize,
    /// Tag slot within the level (0 = first stage, 1 = second).
    pub sub: u64,
    /// Which §4 building block runs in this stage.
    pub kind: StageKind,
    /// The dimension's extent `dᵢ` (group size the stage runs over).
    pub dim: usize,
    /// Predicted cost of the stage in terms of the total vector length.
    pub cost: CostExpr,
}

struct StageFormulas {
    ctx: CostContext,
}

impl StageFormulas {
    /// β multiplier for a stage in dim `i`: `cᵢ · Lᵢ / n = cᵢ / sᵢ`.
    fn beta_scale(&self, s: &Strategy, i: usize) -> f64 {
        s.conflict_factor(i, self.ctx.model, self.ctx.link_excess) / s.stride(i) as f64
    }

    /// γ multiplier: `Lᵢ / n = 1 / sᵢ` (no conflict factor).
    fn gamma_scale(&self, s: &Strategy, i: usize) -> f64 {
        1.0 / s.stride(i) as f64
    }

    fn mst_bcast(&self, s: &Strategy, i: usize) -> CostExpr {
        let d = s.dims[i];
        let l = ceil_log2(d);
        CostExpr::new(l, l * self.beta_scale(s, i), 0.0, l)
    }

    fn mst_combine(&self, s: &Strategy, i: usize) -> CostExpr {
        let d = s.dims[i];
        let l = ceil_log2(d);
        CostExpr::new(l, l * self.beta_scale(s, i), l * self.gamma_scale(s, i), l)
    }

    fn mst_scatter(&self, s: &Strategy, i: usize) -> CostExpr {
        let d = s.dims[i];
        let frac = (d as f64 - 1.0) / d as f64;
        CostExpr::new(
            ceil_log2(d),
            frac * self.beta_scale(s, i),
            0.0,
            ceil_log2(d),
        )
    }

    fn mst_gather(&self, s: &Strategy, i: usize) -> CostExpr {
        self.mst_scatter(s, i)
    }

    fn bucket_collect(&self, s: &Strategy, i: usize) -> CostExpr {
        let d = s.dims[i];
        let frac = (d as f64 - 1.0) / d as f64;
        CostExpr::new((d - 1) as f64, frac * self.beta_scale(s, i), 0.0, 1.0)
    }

    fn bucket_reduce_scatter(&self, s: &Strategy, i: usize) -> CostExpr {
        let d = s.dims[i];
        let frac = (d as f64 - 1.0) / d as f64;
        CostExpr::new(
            (d - 1) as f64,
            frac * self.beta_scale(s, i),
            frac * self.gamma_scale(s, i),
            1.0,
        )
    }
}

/// Per-stage cost predictions for `op` executed with hybrid `strategy`
/// in `ctx`, in pipeline order.
///
/// This is the stage-resolved form of [`hybrid_cost`] (which is exactly
/// the sum of the returned costs): each entry carries the `(level, sub)`
/// coordinates matching the tag layout of the executing algorithms, so a
/// recorded trace can be folded stage-by-stage against the model — the
/// residual analyzer in `intercom-obs` consumes this.
pub fn stage_predictions(
    op: CollectiveOp,
    strategy: &Strategy,
    ctx: CostContext,
) -> Vec<StagePrediction> {
    let sc = StageFormulas { ctx };
    let s = strategy;
    let last = s.ndims() - 1;
    let mut stages = Vec::new();
    let mut push = |level: usize, sub: u64, kind: StageKind, cost: CostExpr| {
        stages.push(StagePrediction {
            level,
            sub,
            kind,
            dim: s.dims[level],
            cost,
        });
    };
    match op {
        CollectiveOp::Broadcast => {
            // S(0) … S(k−2), [M | S C](k−1), C(k−2) … C(0)
            for i in 0..last {
                push(i, 0, StageKind::MstScatter, sc.mst_scatter(s, i));
            }
            match s.kind {
                StrategyKind::Mst => push(last, 0, StageKind::MstBcast, sc.mst_bcast(s, last)),
                StrategyKind::ScatterCollect => {
                    push(last, 0, StageKind::MstScatter, sc.mst_scatter(s, last));
                    push(
                        last,
                        1,
                        StageKind::BucketCollect,
                        sc.bucket_collect(s, last),
                    );
                }
            }
            for i in (0..last).rev() {
                push(i, 1, StageKind::BucketCollect, sc.bucket_collect(s, i));
            }
        }
        CollectiveOp::CombineToOne => {
            // Dual of broadcast: RS(0) … RS(k−2), [Mreduce | RS G](k−1),
            // G(k−2) … G(0).
            for i in 0..last {
                push(
                    i,
                    0,
                    StageKind::BucketReduceScatter,
                    sc.bucket_reduce_scatter(s, i),
                );
            }
            match s.kind {
                StrategyKind::Mst => push(last, 0, StageKind::MstCombine, sc.mst_combine(s, last)),
                StrategyKind::ScatterCollect => {
                    push(
                        last,
                        0,
                        StageKind::BucketReduceScatter,
                        sc.bucket_reduce_scatter(s, last),
                    );
                    push(last, 1, StageKind::MstGather, sc.mst_gather(s, last));
                }
            }
            for i in (0..last).rev() {
                push(i, 1, StageKind::MstGather, sc.mst_gather(s, i));
            }
        }
        CollectiveOp::CombineToAll => {
            // RS(0) … RS(k−2), [Mreduce+Mbcast | RS C](k−1), C(k−2) … C(0).
            for i in 0..last {
                push(
                    i,
                    0,
                    StageKind::BucketReduceScatter,
                    sc.bucket_reduce_scatter(s, i),
                );
            }
            match s.kind {
                StrategyKind::Mst => {
                    push(last, 0, StageKind::MstCombine, sc.mst_combine(s, last));
                    push(last, 1, StageKind::MstBcast, sc.mst_bcast(s, last));
                }
                StrategyKind::ScatterCollect => {
                    push(
                        last,
                        0,
                        StageKind::BucketReduceScatter,
                        sc.bucket_reduce_scatter(s, last),
                    );
                    push(
                        last,
                        1,
                        StageKind::BucketCollect,
                        sc.bucket_collect(s, last),
                    );
                }
            }
            for i in (0..last).rev() {
                push(i, 1, StageKind::BucketCollect, sc.bucket_collect(s, i));
            }
        }
        CollectiveOp::Collect => {
            // Stage 1 is void (§6): [G+Mbcast | C](k−1), C(k−2) … C(0).
            match s.kind {
                StrategyKind::Mst => {
                    push(last, 0, StageKind::MstGather, sc.mst_gather(s, last));
                    push(last, 1, StageKind::MstBcast, sc.mst_bcast(s, last));
                }
                StrategyKind::ScatterCollect => {
                    push(
                        last,
                        0,
                        StageKind::BucketCollect,
                        sc.bucket_collect(s, last),
                    );
                }
            }
            for i in (0..last).rev() {
                push(i, 1, StageKind::BucketCollect, sc.bucket_collect(s, i));
            }
        }
        CollectiveOp::DistributedCombine => {
            // Dual of collect: RS(0) … RS(k−2), [Mreduce+S | RS](k−1).
            for i in 0..last {
                push(
                    i,
                    0,
                    StageKind::BucketReduceScatter,
                    sc.bucket_reduce_scatter(s, i),
                );
            }
            match s.kind {
                StrategyKind::Mst => {
                    push(last, 0, StageKind::MstCombine, sc.mst_combine(s, last));
                    push(last, 1, StageKind::MstScatter, sc.mst_scatter(s, last));
                }
                StrategyKind::ScatterCollect => {
                    push(
                        last,
                        0,
                        StageKind::BucketReduceScatter,
                        sc.bucket_reduce_scatter(s, last),
                    );
                }
            }
        }
        CollectiveOp::Scatter | CollectiveOp::Gather => {
            // The MST scatter/gather primitives serve both regimes (§4.2);
            // hybrids do not apply. Cost is computed on the flat group.
            let flat = Strategy::pure_mst(s.nodes());
            let kind = if op == CollectiveOp::Scatter {
                StageKind::MstScatter
            } else {
                StageKind::MstGather
            };
            stages.push(StagePrediction {
                level: 0,
                sub: 0,
                kind,
                dim: flat.dims[0],
                cost: sc.mst_scatter(&flat, 0),
            });
        }
    }
    stages
}

/// Predicted cost of `op` executed with hybrid `strategy` in `ctx`: the
/// sum over [`stage_predictions`].
///
/// `Strategy::pure_mst(p)` yields the §5.1 short-vector composed
/// algorithm; `Strategy::pure_long(p)` yields the §5.2 long-vector
/// composed algorithm; anything else is a §6 hybrid.
pub fn hybrid_cost(op: CollectiveOp, strategy: &Strategy, ctx: CostContext) -> CostExpr {
    let mut total = CostExpr::ZERO;
    for st in stage_predictions(op, strategy, ctx) {
        total += st.cost;
    }
    total
}

/// The §5.1 short-vector composed algorithm cost for `op` on `p` nodes.
pub fn short_cost(op: CollectiveOp, p: usize, ctx: CostContext) -> CostExpr {
    hybrid_cost(op, &Strategy::pure_mst(p), ctx)
}

/// The §5.2 long-vector composed algorithm cost for `op` on `p` nodes.
pub fn long_cost(op: CollectiveOp, p: usize, ctx: CostContext) -> CostExpr {
    hybrid_cost(op, &Strategy::pure_long(p), ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = 30;

    fn bcast(dims: Vec<usize>, kind: StrategyKind) -> CostExpr {
        hybrid_cost(
            CollectiveOp::Broadcast,
            &Strategy::new(dims, kind),
            CostContext::LINEAR,
        )
    }

    // ---- Table 2 reproduction (paper page 110) ----

    #[test]
    fn table2_pure_mst() {
        let c = bcast(vec![30], StrategyKind::Mst);
        assert_eq!(c.alpha_c, 5.0);
        assert!((c.beta_c - 150.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn table2_2x15_smc() {
        let c = bcast(vec![2, 15], StrategyKind::Mst);
        assert_eq!(c.alpha_c, 6.0);
        assert!((c.beta_c - 150.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn table2_2x3x5_ssmcc() {
        let c = bcast(vec![2, 3, 5], StrategyKind::Mst);
        assert_eq!(c.alpha_c, 9.0);
        assert!((c.beta_c - 160.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn table2_5x6_sscc() {
        let c = bcast(vec![5, 6], StrategyKind::ScatterCollect);
        assert_eq!(c.alpha_c, 15.0);
        assert!((c.beta_c - 98.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn table2_6x5_sscc() {
        let c = bcast(vec![6, 5], StrategyKind::ScatterCollect);
        assert_eq!(c.alpha_c, 15.0);
        assert!((c.beta_c - 98.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn table2_3x10_sscc() {
        let c = bcast(vec![3, 10], StrategyKind::ScatterCollect);
        assert_eq!(c.alpha_c, 17.0);
        assert!((c.beta_c - 94.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn table2_10x3_sscc() {
        let c = bcast(vec![10, 3], StrategyKind::ScatterCollect);
        assert_eq!(c.alpha_c, 17.0);
        assert!((c.beta_c - 94.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn table2_2x15_sscc() {
        let c = bcast(vec![2, 15], StrategyKind::ScatterCollect);
        assert_eq!(c.alpha_c, 20.0);
        assert!((c.beta_c - 86.0 / 30.0).abs() < 1e-12);
    }

    // ---- §5 composed algorithm costs ----

    #[test]
    fn short_broadcast_is_mst() {
        let c = short_cost(CollectiveOp::Broadcast, P, CostContext::LINEAR);
        assert_eq!(c.alpha_c, 5.0);
        assert_eq!(c.beta_c, 5.0);
    }

    #[test]
    fn long_broadcast_matches_paper() {
        // (⌈log p⌉ + p − 1)α + 2((p−1)/p)nβ
        let c = long_cost(CollectiveOp::Broadcast, P, CostContext::LINEAR);
        assert_eq!(c.alpha_c, 5.0 + 29.0);
        assert!((c.beta_c - 2.0 * 29.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn short_combine_to_all_matches_paper() {
        // 2⌈log p⌉α + 2⌈log p⌉nβ + ⌈log p⌉nγ
        let c = short_cost(CollectiveOp::CombineToAll, P, CostContext::LINEAR);
        assert_eq!(c.alpha_c, 10.0);
        assert_eq!(c.beta_c, 10.0);
        assert_eq!(c.gamma_c, 5.0);
    }

    #[test]
    fn long_combine_to_all_matches_paper() {
        // 2(p−1)α + 2((p−1)/p)nβ + ((p−1)/p)nγ
        let c = long_cost(CollectiveOp::CombineToAll, P, CostContext::LINEAR);
        assert_eq!(c.alpha_c, 2.0 * 29.0);
        assert!((c.beta_c - 2.0 * 29.0 / 30.0).abs() < 1e-12);
        assert!((c.gamma_c - 29.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn short_collect_matches_paper() {
        // gather + MST bcast: 2⌈log p⌉α + (⌈log p⌉ + (p−1)/p)nβ
        let c = short_cost(CollectiveOp::Collect, P, CostContext::LINEAR);
        assert_eq!(c.alpha_c, 10.0);
        assert!((c.beta_c - (5.0 + 29.0 / 30.0)).abs() < 1e-12);
    }

    #[test]
    fn long_collect_is_bucket() {
        // (p−1)α + ((p−1)/p)nβ
        let c = long_cost(CollectiveOp::Collect, P, CostContext::LINEAR);
        assert_eq!(c.alpha_c, 29.0);
        assert!((c.beta_c - 29.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn long_distributed_combine_is_bucket() {
        // (p−1)α + ((p−1)/p)nβ + ((p−1)/p)nγ
        let c = long_cost(CollectiveOp::DistributedCombine, P, CostContext::LINEAR);
        assert_eq!(c.alpha_c, 29.0);
        assert!((c.beta_c - 29.0 / 30.0).abs() < 1e-12);
        assert!((c.gamma_c - 29.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn short_distributed_combine_matches_paper() {
        // combine-to-one + scatter: 2⌈log p⌉α + (⌈log p⌉+(p−1)/p)nβ + ⌈log p⌉nγ
        let c = short_cost(CollectiveOp::DistributedCombine, P, CostContext::LINEAR);
        assert_eq!(c.alpha_c, 10.0);
        assert!((c.beta_c - (5.0 + 29.0 / 30.0)).abs() < 1e-12);
        assert_eq!(c.gamma_c, 5.0);
    }

    #[test]
    fn short_combine_to_one_interleaves_gamma() {
        // ⌈log p⌉(α + nβ + nγ)
        let c = short_cost(CollectiveOp::CombineToOne, P, CostContext::LINEAR);
        assert_eq!(c.alpha_c, 5.0);
        assert_eq!(c.beta_c, 5.0);
        assert_eq!(c.gamma_c, 5.0);
    }

    #[test]
    fn scatter_gather_single_formula() {
        // ⌈log p⌉α + ((p−1)/p)nβ for both, regardless of strategy.
        for op in [CollectiveOp::Scatter, CollectiveOp::Gather] {
            let c = hybrid_cost(
                op,
                &Strategy::new(vec![5, 6], StrategyKind::Mst),
                CostContext::LINEAR,
            );
            assert_eq!(c.alpha_c, 5.0);
            assert!((c.beta_c - 29.0 / 30.0).abs() < 1e-12);
        }
    }

    // ---- structural properties ----

    #[test]
    fn mesh_context_removes_conflicts() {
        // On physical rows/columns the SSCC β term keeps the 1/sᵢ message
        // reduction: 5×6 SSCC β = 2(4/5·1 + 5/6·(1/5)) = 8/5+1/3.
        let c = hybrid_cost(
            CollectiveOp::Broadcast,
            &Strategy::new(vec![5, 6], StrategyKind::ScatterCollect),
            CostContext::MESH,
        );
        assert!((c.beta_c - (2.0 * (4.0 / 5.0) + 2.0 * (5.0 / 6.0) / 5.0)).abs() < 1e-12);
    }

    #[test]
    fn single_node_costs_nothing() {
        for op in CollectiveOp::ALL {
            let c = hybrid_cost(op, &Strategy::pure_mst(1), CostContext::LINEAR);
            assert_eq!(c.alpha_c, 0.0, "{op:?}");
            assert_eq!(c.beta_c, 0.0, "{op:?}");
            assert_eq!(c.gamma_c, 0.0, "{op:?}");
        }
    }

    #[test]
    fn gamma_only_for_combining_ops() {
        for op in CollectiveOp::ALL {
            let c = short_cost(op, 16, CostContext::LINEAR);
            assert_eq!(c.gamma_c > 0.0, op.combines(), "{op:?}");
        }
    }

    #[test]
    fn footnote_hybrids_worse_than_mst() {
        // The paper's footnote: (3×10,SMC)-class entries can be *worse*
        // than pure MST in β. Verify 2×3×5 SSMCC has β > MST's 5nβ... it
        // is 160/30 ≈ 5.33 > 5.
        let mst = bcast(vec![30], StrategyKind::Mst);
        let ssmcc = bcast(vec![2, 3, 5], StrategyKind::Mst);
        assert!(ssmcc.beta_c > mst.beta_c);
    }

    #[test]
    fn stage_predictions_sum_to_hybrid_cost() {
        for op in CollectiveOp::ALL {
            for s in [
                Strategy::pure_mst(12),
                Strategy::pure_long(12),
                Strategy::new(vec![2, 2, 3], StrategyKind::Mst),
                Strategy::new(vec![3, 4], StrategyKind::ScatterCollect),
            ] {
                let mut sum = CostExpr::ZERO;
                for st in stage_predictions(op, &s, CostContext::LINEAR) {
                    sum += st.cost;
                }
                let total = hybrid_cost(op, &s, CostContext::LINEAR);
                assert_eq!(sum, total, "{op:?} {s}");
            }
        }
    }

    #[test]
    fn stage_coordinates_match_tag_layout() {
        // (2×2×3, SSMCC) broadcast: scatters up levels 0 and 1 (sub 0),
        // MST broadcast at level 2 (sub 0), collects back down levels
        // 1 and 0 (sub 1) — the tag offsets the recursive template uses.
        let s = Strategy::new(vec![2, 2, 3], StrategyKind::Mst);
        let st = stage_predictions(CollectiveOp::Broadcast, &s, CostContext::LINEAR);
        let coords: Vec<(usize, u64, StageKind)> =
            st.iter().map(|p| (p.level, p.sub, p.kind)).collect();
        assert_eq!(
            coords,
            vec![
                (0, 0, StageKind::MstScatter),
                (1, 0, StageKind::MstScatter),
                (2, 0, StageKind::MstBcast),
                (1, 1, StageKind::BucketCollect),
                (0, 1, StageKind::BucketCollect),
            ]
        );

        // (9, SC) broadcast: MST scatter then ring collect in one level —
        // the two stages whose pipeline skew the verifier reports.
        let s = Strategy::pure_long(9);
        let st = stage_predictions(CollectiveOp::Broadcast, &s, CostContext::LINEAR);
        let coords: Vec<(usize, u64, StageKind)> =
            st.iter().map(|p| (p.level, p.sub, p.kind)).collect();
        assert_eq!(
            coords,
            vec![
                (0, 0, StageKind::MstScatter),
                (0, 1, StageKind::BucketCollect),
            ]
        );

        // Collect's innermost SC stage records at sub 0 (it is the whole
        // level), while the outer unwinding collects record at sub 1.
        let s = Strategy::new(vec![3, 4], StrategyKind::ScatterCollect);
        let st = stage_predictions(CollectiveOp::Collect, &s, CostContext::LINEAR);
        let coords: Vec<(usize, u64, StageKind)> =
            st.iter().map(|p| (p.level, p.sub, p.kind)).collect();
        assert_eq!(
            coords,
            vec![
                (1, 0, StageKind::BucketCollect),
                (0, 1, StageKind::BucketCollect),
            ]
        );
    }

    #[test]
    fn link_excess_discounts_linear_conflicts() {
        let s = Strategy::new(vec![2, 15], StrategyKind::Mst);
        let full = hybrid_cost(CollectiveOp::Broadcast, &s, CostContext::LINEAR);
        let disc = hybrid_cost(
            CollectiveOp::Broadcast,
            &s,
            CostContext {
                model: ConflictModel::LinearArray,
                link_excess: 2.0,
            },
        );
        assert!(disc.beta_c < full.beta_c);
    }
}
