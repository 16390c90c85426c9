//! The paper's §5 optimality claims, checked as properties of the cost
//! model over a sweep of group sizes.

use intercom_cost::collective::{hybrid_cost, long_cost, short_cost};
use intercom_cost::{enumerate_strategies, CollectiveOp, CostContext, MachineParams, Strategy};

fn log2c(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        ((p - 1).ilog2() + 1) as f64
    }
}

#[test]
fn short_algorithms_within_factor_two_of_optimal_startup() {
    // "For all these implementations, the startup cost is within a
    // factor two of optimal." Optimal = ⌈log p⌉ α for one-to-all /
    // all-to-one data dependence.
    for p in 2..200 {
        let lower = log2c(p);
        for op in [
            CollectiveOp::Collect,
            CollectiveOp::DistributedCombine,
            CollectiveOp::CombineToAll,
        ] {
            let c = short_cost(op, p, CostContext::LINEAR);
            assert!(
                c.alpha_c <= 2.0 * lower + 1e-9,
                "{op:?} p={p}: α coeff {} > 2⌈log p⌉ = {}",
                c.alpha_c,
                2.0 * lower
            );
            assert!(c.alpha_c >= lower, "{op:?} p={p}: below the lower bound?");
        }
        // The four primitives are startup-optimal outright.
        for op in [
            CollectiveOp::Broadcast,
            CollectiveOp::CombineToOne,
            CollectiveOp::Scatter,
            CollectiveOp::Gather,
        ] {
            let c = short_cost(op, p, CostContext::LINEAR);
            assert_eq!(c.alpha_c, lower, "{op:?} p={p}");
        }
    }
}

#[test]
fn long_broadcast_beta_within_factor_two_of_optimal() {
    // "For the broadcast and combine-to-one, it can be argued that the
    // β term is asymptotically within a factor two of optimal" — the
    // bandwidth lower bound is ((p−1)/p)·nβ ≥ ~1·nβ.
    for p in 2..200 {
        let frac = (p as f64 - 1.0) / p as f64;
        for op in [CollectiveOp::Broadcast, CollectiveOp::CombineToOne] {
            let c = long_cost(op, p, CostContext::LINEAR);
            assert!(
                c.beta_c <= 2.0 * frac + 1e-9,
                "{op:?} p={p}: β {} > 2(p−1)/p",
                c.beta_c
            );
        }
    }
}

#[test]
fn long_combine_to_all_beta_asymptotically_optimal() {
    // "for the combine-to-all it can be argued that the β term is
    // asymptotically optimal": lower bound for allreduce is 2((p−1)/p)nβ.
    for p in 2..200 {
        let c = long_cost(CollectiveOp::CombineToAll, p, CostContext::LINEAR);
        let bound = 2.0 * (p as f64 - 1.0) / p as f64;
        assert!((c.beta_c - bound).abs() < 1e-9, "p={p}: {}", c.beta_c);
    }
}

#[test]
fn collect_and_reduce_scatter_long_are_bandwidth_optimal() {
    for p in 2..200 {
        let bound = (p as f64 - 1.0) / p as f64;
        let c = long_cost(CollectiveOp::Collect, p, CostContext::LINEAR);
        assert!((c.beta_c - bound).abs() < 1e-9);
        let r = long_cost(CollectiveOp::DistributedCombine, p, CostContext::LINEAR);
        assert!((r.beta_c - bound).abs() < 1e-9);
        assert!((r.gamma_c - bound).abs() < 1e-9);
    }
}

#[test]
fn no_hybrid_beats_both_pure_extremes_at_both_ends() {
    // Structural sanity of the design space: pure MST minimizes α among
    // all strategies; pure SC minimizes β (for broadcast on a linear
    // array).
    for p in [12usize, 30, 60, 64] {
        let strategies = enumerate_strategies(p, 0);
        let mst = hybrid_cost(
            CollectiveOp::Broadcast,
            &Strategy::pure_mst(p),
            CostContext::LINEAR,
        );
        let sc = hybrid_cost(
            CollectiveOp::Broadcast,
            &Strategy::pure_long(p),
            CostContext::LINEAR,
        );
        for s in strategies {
            let c = hybrid_cost(CollectiveOp::Broadcast, &s, CostContext::LINEAR);
            assert!(c.alpha_c >= mst.alpha_c - 1e-9, "{s} has α below MST");
            assert!(c.beta_c >= sc.beta_c - 1e-9, "{s} has β below pure SC");
        }
    }
}

#[test]
fn selection_agrees_with_brute_force() {
    // The selection must equal the argmin over the full enumeration
    // (`PARAGON_MODEL`'s link excess is 1: its context is `LINEAR`).
    let machine = MachineParams::PARAGON_MODEL;
    for p in [8usize, 30, 36] {
        for n in [8usize, 1024, 65536, 1 << 20] {
            let best = intercom_cost::choose_flat(
                CollectiveOp::Broadcast,
                intercom_cost::GroupShape::Linear(p),
                n,
                &machine,
            );
            let best_t =
                hybrid_cost(CollectiveOp::Broadcast, &best, CostContext::LINEAR).eval(n, &machine);
            for s in enumerate_strategies(p, 0) {
                let t =
                    hybrid_cost(CollectiveOp::Broadcast, &s, CostContext::LINEAR).eval(n, &machine);
                assert!(
                    best_t <= t + 1e-15,
                    "p={p} n={n}: {best} ({best_t}) beaten by {s} ({t})"
                );
            }
        }
    }
}

#[test]
fn hybrid_costs_scale_with_conflict_discount() {
    // Raising link excess never increases any strategy's cost, and
    // strictly helps at least one interleaved hybrid.
    let base = CostContext::LINEAR;
    let relaxed = CostContext {
        link_excess: 4.0,
        ..CostContext::LINEAR
    };
    let mut strictly_helped = false;
    for s in enumerate_strategies(24, 0) {
        let c0 = hybrid_cost(CollectiveOp::Broadcast, &s, base);
        let c1 = hybrid_cost(CollectiveOp::Broadcast, &s, relaxed);
        assert!(c1.beta_c <= c0.beta_c + 1e-12, "{s}");
        if c1.beta_c < c0.beta_c - 1e-12 {
            strictly_helped = true;
        }
    }
    assert!(strictly_helped);
}
