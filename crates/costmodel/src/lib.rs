//! # intercom-cost
//!
//! The paper's performance model (§2, §4–§6): machine parameters
//! `α` (message latency), `β` (per-byte transfer time), `γ` (per-byte
//! combine time) and `δ` (per-recursion-level software overhead of the
//! library's short-vector primitives, §7.2), symbolic cost expressions,
//! closed-form costs for every primitive and composed algorithm, the
//! hybrid-strategy cost formulas of §6 (including the bold-face network
//! conflict factors), strategy enumeration, and best-strategy selection.
//!
//! ## The hybrid cost model, validated against Table 2
//!
//! A hybrid views `p` nodes as a logical `d1 × … × dk` mesh with the
//! *first* dimension varying fastest (adjacent nodes — the paper's Fig. 1
//! runs its first scatter within subgroups of two adjacent nodes). A
//! broadcast hybrid runs ring scatters up the dimensions, an MST broadcast
//! (or a final scatter+collect) in the last dimension, then ring collects
//! back down. On a linear array, the stage in dimension `i` interleaves
//! `sᵢ = d1·…·dᵢ₋₁` groups over the same physical links, so its β term is
//! multiplied by `sᵢ` — which exactly cancels the `1/sᵢ` message-length
//! reduction. The resulting closed forms reproduce the paper's Table 2:
//!
//! | logical mesh | hybrid | paper | this crate |
//! |---|---|---|---|
//! | 1×30  | M     | 5α + (150/30)nβ  | ✓ |
//! | 2×15  | SMC   | 6α + (150/30)nβ  | ✓ |
//! | 2×3×5 | SSMCC | 9α + (160/30)nβ  | ✓ |
//! | 5×6   | SSCC  | 15α + (98/30)nβ  | ✓ |
//! | 3×10  | SSCC  | 17α + (94/30)nβ  | ✓ |
//! | 2×15  | SSCC  | 20α + (86/30)nβ  | ✓ |

#![forbid(unsafe_code)]

pub mod collective;
pub mod composed;
pub mod contention;
pub mod crossover;
pub mod enumerate;
pub mod expr;
pub mod hier;
pub mod machine;
pub mod select;
pub mod strategy;
pub mod table2;

pub use collective::{
    flat_template, hybrid_cost, stage_predictions, CollectiveOp, CostContext, FlatTemplate,
    StageKind, StagePrediction,
};
pub use contention::{CompositeContention, TenantLoad};
pub use crossover::crossover_length;
pub use enumerate::{enumerate_mesh_strategies, enumerate_strategies};
pub use expr::CostExpr;
pub use hier::{
    choose_hier, enumerate_hier_strategies, flat_on_cluster_cost, hier_cost, hier_template,
    select_hier, ClusterShape, HierChoice, HierMachine, HierStrategy, StageSpec, TunedHier,
};
pub use machine::MachineParams;
pub use select::{best_mesh_strategy, best_strategy, rank_strategies};
pub use strategy::{ConflictModel, Strategy, StrategyKind};
