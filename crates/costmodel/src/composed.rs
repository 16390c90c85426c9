//! The §5 composed-algorithm catalog: every target collective's short-
//! and long-vector closed forms as data, renderable as the paper's
//! inline cost table and usable programmatically.

use crate::collective::{
    flat_template, long_cost, short_cost, CollectiveOp, CostContext, StageKind,
};
use crate::expr::CostExpr;
use crate::strategy::StrategyKind;

/// One catalog entry: a collective with its §5.1 short-vector and §5.2
/// long-vector composed costs for a given `p`.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The collective operation.
    pub op: CollectiveOp,
    /// How §5.1 composes it from short-vector primitives.
    pub short_recipe: String,
    /// Its short-vector cost.
    pub short: CostExpr,
    /// How §5.2 composes it from long-vector primitives.
    pub long_recipe: String,
    /// Its long-vector cost.
    pub long: CostExpr,
}

/// Builds the complete §5 catalog for `p` nodes on a linear array. A
/// recipe names the stages of the op's [`flat_template`] centre: the
/// `M` centre is the short-vector algorithm, the `SC` centre the
/// long-vector one.
pub fn catalog(p: usize) -> Vec<CatalogEntry> {
    let ctx = CostContext::LINEAR;
    let recipe = |stages: [Option<StageKind>; 2]| {
        let names: Vec<&str> = stages.iter().flatten().map(StageKind::name).collect();
        names.join(" + ")
    };
    CollectiveOp::ALL
        .into_iter()
        .map(|op| {
            let (short_recipe, long_recipe) = match flat_template(op) {
                Some(t) => (
                    recipe(t.centre(StrategyKind::Mst)),
                    recipe(t.centre(StrategyKind::ScatterCollect)),
                ),
                // Scatter and gather: one MST primitive serves both (§4.2).
                None => {
                    let mst = format!("mst-{}", op.name());
                    (mst.clone(), format!("{mst} (serves both regimes)"))
                }
            };
            CatalogEntry {
                op,
                short_recipe,
                short: short_cost(op, p, ctx),
                long_recipe,
                long: long_cost(op, p, ctx),
            }
        })
        .collect()
}

/// Renders the catalog as an aligned text table (the `section5` binary's
/// output), with coefficients shown over denominator `p`.
pub fn render_catalog(p: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} | {:<62} | {}\n",
        "operation", "short-vector algorithm", "long-vector algorithm"
    ));
    out.push_str(&format!("{}\n", "-".repeat(150)));
    for e in catalog(p) {
        let short = format!("{}: {}", e.short_recipe, e.short.display_over(p));
        out.push_str(&format!(
            "{:<20} | {short:<62} | {}: {}\n",
            e.op.name(),
            e.long_recipe,
            e.long.display_over(p),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_seven_collectives() {
        let c = catalog(30);
        assert_eq!(c.len(), 7);
        for op in CollectiveOp::ALL {
            assert!(c.iter().any(|e| e.op == op), "{op:?} missing");
        }
    }

    #[test]
    fn long_never_has_higher_beta_than_short() {
        // The long algorithms exist to reduce the β term; the catalog
        // must reflect that for every collective at every p.
        for p in [2usize, 5, 16, 30, 100] {
            for e in catalog(p) {
                assert!(
                    e.long.beta_c <= e.short.beta_c + 1e-12,
                    "{} p={p}: long β {} > short β {}",
                    e.op.name(),
                    e.long.beta_c,
                    e.short.beta_c
                );
            }
        }
    }

    #[test]
    fn short_has_lower_alpha_once_p_outgrows_two_log_p() {
        // 2⌈log p⌉ < p−1 holds from p ≥ 12; below that the bucket
        // algorithms can even win on startups (tiny rings), which is
        // fine — the selector just picks them.
        for p in [16usize, 30, 100, 512] {
            for e in catalog(p) {
                assert!(
                    e.short.alpha_c <= e.long.alpha_c + 1e-12,
                    "{} p={p}: short α {} vs long α {}",
                    e.op.name(),
                    e.short.alpha_c,
                    e.long.alpha_c
                );
            }
        }
    }

    #[test]
    fn render_mentions_every_operation() {
        let s = render_catalog(30);
        for op in CollectiveOp::ALL {
            assert!(s.contains(op.name()), "{s}");
        }
        assert!(s.contains("nβ"));
    }
}
