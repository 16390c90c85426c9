//! Crossover-length analysis between two cost expressions.
//!
//! The library's central scheduling question — "at what message length
//! does algorithm B start beating algorithm A?" — has a closed form for
//! the affine costs of this model: the crossover of
//! `a₁α + b₁nβ + g₁nγ` and `a₂α + b₂nβ + g₂nγ` is the `n` where the two
//! lines intersect.

use crate::expr::CostExpr;
use crate::machine::MachineParams;

/// The message length (bytes) above which `b` is cheaper than `a`, if the
/// two lines cross at a positive length. Returns:
///
/// * `Some(0)` when `b` is cheaper everywhere,
/// * `Some(n)` for a genuine crossover at `n` bytes,
/// * `None` when `a` is cheaper (or equal) everywhere.
pub fn crossover_length(a: &CostExpr, b: &CostExpr, m: &MachineParams) -> Option<usize> {
    // time_a(n) = A1 + S1·n, time_b(n) = A2 + S2·n
    let (a1, s1) = a.line(m);
    let (a2, s2) = b.line(m);
    if a2 <= a1 && s2 <= s1 {
        return Some(0); // b dominates
    }
    if a2 >= a1 && s2 >= s1 {
        return None; // a dominates
    }
    // Lines cross exactly once; b wins for large n iff s2 < s1.
    if s2 < s1 {
        let n = (a2 - a1) / (s1 - s2);
        Some(n.ceil().max(0.0) as usize)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{long_cost, short_cost, CollectiveOp, CostContext};

    #[test]
    fn long_broadcast_beats_short_past_crossover() {
        let m = MachineParams::PARAGON_MODEL;
        let s = short_cost(CollectiveOp::Broadcast, 64, CostContext::LINEAR);
        let l = long_cost(CollectiveOp::Broadcast, 64, CostContext::LINEAR);
        let n = crossover_length(&s, &l, &m).expect("long must win eventually");
        assert!(n > 0);
        assert!(l.eval(n + 1, &m) < s.eval(n + 1, &m));
        assert!(l.eval(n.saturating_sub(1), &m) >= s.eval(n.saturating_sub(1), &m) - 1e-12);
    }

    #[test]
    fn dominated_returns_none() {
        let a = CostExpr::new(1.0, 1.0, 0.0, 0.0);
        let b = CostExpr::new(2.0, 2.0, 0.0, 0.0);
        assert_eq!(crossover_length(&a, &b, &MachineParams::UNIT), None);
    }

    #[test]
    fn dominating_returns_zero() {
        let a = CostExpr::new(2.0, 2.0, 0.0, 0.0);
        let b = CostExpr::new(1.0, 1.0, 0.0, 0.0);
        assert_eq!(crossover_length(&a, &b, &MachineParams::UNIT), Some(0));
    }

    #[test]
    fn crossover_on_unit_machine() {
        // a: 10 + n, b: 20 + 0.5n → cross at n = 20.
        let a = CostExpr::new(10.0, 1.0, 0.0, 0.0);
        let b = CostExpr::new(20.0, 0.5, 0.0, 0.0);
        assert_eq!(crossover_length(&a, &b, &MachineParams::UNIT), Some(20));
    }
}
