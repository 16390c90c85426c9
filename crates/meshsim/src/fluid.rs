//! Max-min fair bandwidth allocation.
//!
//! The paper's machine model (§2): "When two messages traverse the same
//! physical link on the communication interconnect, we assume they share
//! the bandwidth of that link." The simulator realizes this as a fluid
//! model: every in-flight transfer is constrained by its source's
//! injection port, its destination's ejection port, and every directed
//! link on its route; rates are assigned max-min fairly by progressive
//! filling. The §7.1 refinement — links carry more bandwidth than a node
//! can inject — enters through larger link capacities.

/// Reusable workspace for [`solve_max_min`]: sized once for a fixed
/// constraint universe, reset per call in O(touched) rather than
/// O(universe).
#[derive(Debug, Default)]
pub struct FluidScratch {
    cap_left: Vec<f64>,
    /// Initial capacity of each touched constraint, cached at
    /// registration so the saturation test in the filling loop never
    /// re-queries `cap_of` (which runs once per user per round).
    cap_init: Vec<f64>,
    active_users: Vec<u32>,
    touched: Vec<u32>,
    frozen: Vec<bool>,
}

impl FluidScratch {
    /// Creates a workspace for `universe` constraint slots.
    pub fn new(universe: usize) -> Self {
        FluidScratch {
            cap_left: vec![0.0; universe],
            cap_init: vec![0.0; universe],
            active_users: vec![0; universe],
            touched: Vec::new(),
            frozen: Vec::new(),
        }
    }

    /// Max-min fair rates over a *static* constraint universe.
    ///
    /// `users[t]` yields transfer `t`'s constraint indices (dense, within
    /// the universe); `cap_of(c)` yields constraint `c`'s capacity.
    /// Writes one rate per transfer into `rates` (resized as needed).
    /// Only constraints actually referenced are touched, so the per-call
    /// cost is O(Σ|users|·rounds), independent of universe size.
    pub fn solve_max_min<U: AsRef<[u32]>>(
        &mut self,
        users: &[U],
        mut cap_of: impl FnMut(u32) -> f64,
        rates: &mut Vec<f64>,
    ) {
        let n = users.len();
        rates.clear();
        rates.resize(n, 0.0);
        if n == 0 {
            return;
        }
        // Reset only previously-touched slots, then register this call's.
        for &c in &self.touched {
            self.active_users[c as usize] = 0;
        }
        self.touched.clear();
        for u in users {
            for &c in u.as_ref() {
                if self.active_users[c as usize] == 0 {
                    self.touched.push(c);
                    let cap = cap_of(c);
                    self.cap_left[c as usize] = cap;
                    self.cap_init[c as usize] = cap;
                }
                self.active_users[c as usize] += 1;
            }
        }
        self.frozen.clear();
        self.frozen.resize(n, false);
        let mut remaining = n;
        for (t, u) in users.iter().enumerate() {
            if u.as_ref().is_empty() {
                rates[t] = f64::INFINITY;
                self.frozen[t] = true;
                remaining -= 1;
            }
        }
        while remaining > 0 {
            let mut lambda = f64::INFINITY;
            for &c in &self.touched {
                let au = self.active_users[c as usize];
                if au > 0 {
                    lambda = lambda.min(self.cap_left[c as usize] / au as f64);
                }
            }
            debug_assert!(
                lambda.is_finite(),
                "active transfer with no live constraint"
            );
            for &c in &self.touched {
                let au = self.active_users[c as usize];
                if au > 0 {
                    self.cap_left[c as usize] -= lambda * au as f64;
                }
            }
            let mut progressed = false;
            for (t, u) in users.iter().enumerate() {
                if !self.frozen[t] {
                    rates[t] += lambda;
                    let saturated = u.as_ref().iter().any(|&c| {
                        self.cap_left[c as usize] <= 1e-12 * self.cap_init[c as usize].max(1.0)
                    });
                    if saturated {
                        self.frozen[t] = true;
                        remaining -= 1;
                        progressed = true;
                        for &c in u.as_ref() {
                            self.active_users[c as usize] -= 1;
                        }
                    }
                }
            }
            debug_assert!(progressed, "progressive filling stalled");
        }
    }
}

/// Computes max-min fair rates (allocation-per-call convenience wrapper
/// over [`FluidScratch::solve_max_min`], which the engine uses directly
/// — one algorithm, two entry points).
///
/// `users[t]` lists the constraint indices transfer `t` consumes;
/// `caps[c]` is constraint `c`'s capacity (same rate units as the
/// result). A transfer with an empty constraint list is unconstrained
/// and gets `f64::INFINITY`.
pub fn max_min_rates(users: &[Vec<usize>], caps: &[f64]) -> Vec<f64> {
    let users_u32: Vec<Vec<u32>> = users
        .iter()
        .map(|u| u.iter().map(|&c| c as u32).collect())
        .collect();
    let mut scratch = FluidScratch::new(caps.len());
    let mut rates = Vec::new();
    scratch.solve_max_min(&users_u32, |c| caps[c as usize], &mut rates);
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn single_transfer_gets_bottleneck() {
        // One transfer through constraints of caps 4 and 2 → rate 2.
        let rates = max_min_rates(&[vec![0, 1]], &[4.0, 2.0]);
        assert!(close(rates[0], 2.0));
    }

    #[test]
    fn two_transfers_share_a_link_equally() {
        // Both through constraint 0 (cap 2) → 1 each.
        let rates = max_min_rates(&[vec![0], vec![0]], &[2.0]);
        assert!(close(rates[0], 1.0));
        assert!(close(rates[1], 1.0));
    }

    #[test]
    fn max_min_redistributes_slack() {
        // t0 bottlenecked at 1 by its private constraint; t1 shares a
        // cap-3 link with t0 and takes the slack: t0 = 1, t1 = 2.
        let rates = max_min_rates(&[vec![0, 1], vec![1]], &[1.0, 3.0]);
        assert!(close(rates[0], 1.0), "{rates:?}");
        assert!(close(rates[1], 2.0), "{rates:?}");
    }

    #[test]
    fn disjoint_transfers_full_rate() {
        let rates = max_min_rates(&[vec![0], vec![1]], &[5.0, 7.0]);
        assert!(close(rates[0], 5.0));
        assert!(close(rates[1], 7.0));
    }

    #[test]
    fn unconstrained_transfer_infinite() {
        let rates = max_min_rates(&[vec![]], &[]);
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn empty_input() {
        assert!(max_min_rates(&[], &[1.0]).is_empty());
    }

    #[test]
    fn rates_respect_all_capacities() {
        // Random-ish topology; verify feasibility.
        let users = vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![2]];
        let caps = vec![1.5, 2.0, 1.0];
        let rates = max_min_rates(&users, &caps);
        let mut load = vec![0.0; caps.len()];
        for (t, u) in users.iter().enumerate() {
            for &c in u {
                load[c] += rates[t];
            }
        }
        for (c, (&l, &cap)) in load.iter().zip(&caps).enumerate() {
            assert!(l <= cap + 1e-9, "constraint {c} overloaded: {l} > {cap}");
        }
        // Max-min: every transfer is blocked by at least one saturated
        // constraint.
        for (t, u) in users.iter().enumerate() {
            let blocked = u.iter().any(|&c| load[c] >= caps[c] - 1e-9);
            assert!(blocked, "transfer {t} could still grow: {rates:?}");
        }
    }

    #[test]
    fn n_transfers_through_one_link_get_equal_split() {
        for n in 1..20 {
            let users: Vec<Vec<usize>> = (0..n).map(|_| vec![0]).collect();
            let rates = max_min_rates(&users, &[10.0]);
            for r in rates {
                assert!(close(r, 10.0 / n as f64));
            }
        }
    }
}
