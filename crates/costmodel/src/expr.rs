//! Symbolic cost expressions `c₁·α + c₂·nβ + c₃·nγ + c₄·δ`.
//!
//! The paper reports algorithm costs symbolically (e.g. Table 2's
//! `9α + (160/30)nβ`); [`CostExpr`] carries the four coefficients so the
//! same object can be displayed like the paper's tables *and* evaluated
//! numerically for a concrete message length and machine.

use crate::machine::MachineParams;
use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// A linear cost form in the machine parameters: the total predicted time
/// is `alpha_c·α + beta_c·n·β + gamma_c·n·γ + delta_c·δ` for a vector of
/// `n` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostExpr {
    /// Coefficient of α (number of sequential message startups).
    pub alpha_c: f64,
    /// Coefficient of `n·β` (effective full-vector transmissions).
    pub beta_c: f64,
    /// Coefficient of `n·γ` (effective full-vector combines).
    pub gamma_c: f64,
    /// Coefficient of δ (recursion levels of short-vector primitives).
    pub delta_c: f64,
}

impl CostExpr {
    /// The zero cost.
    pub const ZERO: CostExpr = CostExpr {
        alpha_c: 0.0,
        beta_c: 0.0,
        gamma_c: 0.0,
        delta_c: 0.0,
    };

    /// A pure latency term `c·α`.
    pub fn alpha(c: f64) -> Self {
        CostExpr {
            alpha_c: c,
            ..Self::ZERO
        }
    }

    /// A pure bandwidth term `c·nβ`.
    pub fn beta(c: f64) -> Self {
        CostExpr {
            beta_c: c,
            ..Self::ZERO
        }
    }

    /// A pure compute term `c·nγ`.
    pub fn gamma(c: f64) -> Self {
        CostExpr {
            gamma_c: c,
            ..Self::ZERO
        }
    }

    /// A pure software-overhead term `c·δ`.
    pub fn delta(c: f64) -> Self {
        CostExpr {
            delta_c: c,
            ..Self::ZERO
        }
    }

    /// Builds a cost from all four coefficients.
    pub fn new(alpha_c: f64, beta_c: f64, gamma_c: f64, delta_c: f64) -> Self {
        CostExpr {
            alpha_c,
            beta_c,
            gamma_c,
            delta_c,
        }
    }

    /// Predicted time in seconds for an `n`-byte vector on machine `m`.
    pub fn eval(&self, n: usize, m: &MachineParams) -> f64 {
        self.alpha_c * m.alpha
            + self.beta_c * n as f64 * m.beta
            + self.gamma_c * n as f64 * m.gamma
            + self.delta_c * m.delta
    }

    /// The expression as a line in `n` on machine `m`: `(intercept, slope)`.
    pub fn line(&self, m: &MachineParams) -> (f64, f64) {
        (
            self.alpha_c * m.alpha + self.delta_c * m.delta,
            self.beta_c * m.beta + self.gamma_c * m.gamma,
        )
    }

    /// Renders the expression the way the paper's Table 2 does, with the
    /// β/γ coefficients shown as `(x/p)` fractions over the given
    /// denominator, e.g. `"9α + (160/30)nβ"` for `p = 30`.
    pub fn display_over(&self, p: usize) -> String {
        let mut parts = Vec::new();
        if self.alpha_c != 0.0 {
            parts.push(format!("{}α", trim(self.alpha_c)));
        }
        if self.beta_c != 0.0 {
            parts.push(format!("({}/{})nβ", trim(self.beta_c * p as f64), p));
        }
        if self.gamma_c != 0.0 {
            parts.push(format!("({}/{})nγ", trim(self.gamma_c * p as f64), p));
        }
        if self.delta_c != 0.0 {
            parts.push(format!("{}δ", trim(self.delta_c)));
        }
        if parts.is_empty() {
            "0".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

/// Formats an f64 without a trailing `.0` when it is integral, rounding
/// near-integers produced by floating-point accumulation.
fn trim(x: f64) -> String {
    let r = x.round();
    if (x - r).abs() < 1e-9 {
        format!("{}", r as i64)
    } else {
        format!("{x:.3}")
    }
}

impl Add for CostExpr {
    type Output = CostExpr;
    fn add(self, o: CostExpr) -> CostExpr {
        CostExpr {
            alpha_c: self.alpha_c + o.alpha_c,
            beta_c: self.beta_c + o.beta_c,
            gamma_c: self.gamma_c + o.gamma_c,
            delta_c: self.delta_c + o.delta_c,
        }
    }
}

impl AddAssign for CostExpr {
    fn add_assign(&mut self, o: CostExpr) {
        *self = *self + o;
    }
}

impl Mul<f64> for CostExpr {
    type Output = CostExpr;
    fn mul(self, k: f64) -> CostExpr {
        CostExpr {
            alpha_c: self.alpha_c * k,
            beta_c: self.beta_c * k,
            gamma_c: self.gamma_c * k,
            delta_c: self.delta_c * k,
        }
    }
}

impl fmt::Display for CostExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.alpha_c != 0.0 {
            parts.push(format!("{}α", trim(self.alpha_c)));
        }
        if self.beta_c != 0.0 {
            parts.push(format!("{}nβ", trim(self.beta_c)));
        }
        if self.gamma_c != 0.0 {
            parts.push(format!("{}nγ", trim(self.gamma_c)));
        }
        if self.delta_c != 0.0 {
            parts.push(format!("{}δ", trim(self.delta_c)));
        }
        if parts.is_empty() {
            write!(f, "0")
        } else {
            write!(f, "{}", parts.join(" + "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_unit_machine() {
        let c = CostExpr::new(2.0, 3.0, 1.0, 4.0);
        // 2 + 3n + 1n + 0 on UNIT (δ coefficient priced at δ=0).
        assert_eq!(c.eval(10, &MachineParams::UNIT), 2.0 + 30.0 + 10.0);
    }

    #[test]
    fn display_like_table2() {
        let c = CostExpr::alpha(9.0) + CostExpr::beta(160.0 / 30.0);
        assert_eq!(c.display_over(30), "9α + (160/30)nβ");
    }

    #[test]
    fn display_zero() {
        assert_eq!(CostExpr::ZERO.display_over(4), "0");
        assert_eq!(CostExpr::ZERO.to_string(), "0");
    }

    #[test]
    fn add_and_scale() {
        let a = CostExpr::alpha(1.0) + CostExpr::beta(2.0);
        let b = a * 3.0;
        assert_eq!(b.alpha_c, 3.0);
        assert_eq!(b.beta_c, 6.0);
    }

    /// SplitMix64: seeded, so a failing trial replays.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi)`.
        fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    #[test]
    fn eval_is_linear_in_addition() {
        let mut rng = Rng(1);
        let m = MachineParams::PARAGON;
        for trial in 0..1000 {
            let x = CostExpr::new(rng.f64_in(0.0, 10.0), rng.f64_in(0.0, 10.0), 0.0, 0.0);
            let y = CostExpr::new(rng.f64_in(0.0, 10.0), rng.f64_in(0.0, 10.0), 0.0, 0.0);
            let n = (rng.next_u64() % 1_000_000) as usize;
            let lhs = (x + y).eval(n, &m);
            let rhs = x.eval(n, &m) + y.eval(n, &m);
            assert!(
                (lhs - rhs).abs() <= 1e-12 * lhs.abs().max(1.0),
                "trial {trial}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn eval_is_strictly_monotone_in_n() {
        let mut rng = Rng(2);
        let m = MachineParams::UNIT;
        for trial in 0..1000 {
            let c = CostExpr::new(rng.f64_in(0.0, 5.0), rng.f64_in(0.001, 5.0), 0.0, 0.0);
            let n = (rng.next_u64() % 100_000) as usize;
            assert!(c.eval(n + 1, &m) > c.eval(n, &m), "trial {trial}: n={n}");
        }
    }
}
