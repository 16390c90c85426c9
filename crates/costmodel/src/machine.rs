//! Machine parameters (paper §2 and §11).
//!
//! "To port the library between platforms or tune it for new operating
//! system releases, it suffices to enter a few parameters that describe
//! the latency, bandwidth and computation characteristics of the system."
//! This struct is that parameter set.

/// The α/β/γ machine model of §2, plus two refinements the paper uses:
/// `δ`, the software overhead per recursive call in the library's
/// short-vector primitives (§7.2 explains iCC's slight short-vector loss
/// to NX by exactly this), and `link_excess`, the §7.1 observation that
/// each mesh link has more bandwidth than a node can inject, so a link
/// accommodates several messages before contention costs anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Message startup latency α, in seconds.
    pub alpha: f64,
    /// Per-byte transfer time β, in seconds/byte (inverse node bandwidth).
    pub beta: f64,
    /// Per-byte combine (arithmetic) time γ, in seconds/byte.
    pub gamma: f64,
    /// Per-recursion-level software overhead δ of the library's
    /// short-vector primitives, in seconds. Zero for vendor baselines.
    pub delta: f64,
    /// How many node-injection-rate messages one directed link carries
    /// before bandwidth sharing begins (≥ 1). `1.0` is the pure model of
    /// §2 (used for Table 2 / Fig. 2); the Paragon preset uses a larger
    /// value per §7.1.
    pub link_excess: f64,
}

impl MachineParams {
    /// Intel Paragon under OSF R1.1, calibrated so the simulated iCC times
    /// land near the paper's Table 3 (α ≈ 133 µs startup, ≈ 27 MB/s
    /// effective node bandwidth, memory-bound i860 combine rate, ≈ 11 µs
    /// recursion overhead).
    pub const PARAGON: MachineParams = MachineParams {
        alpha: 133e-6,
        beta: 37.5e-9,
        gamma: 80e-9,
        delta: 11e-6,
        link_excess: 2.0,
    };

    /// The pure §2 model with Paragon-like α/β and no refinements — the
    /// parameter set behind the *predicted* curves of Fig. 2 and the
    /// Table 2 expressions.
    pub const PARAGON_MODEL: MachineParams = MachineParams {
        alpha: 133e-6,
        beta: 37.5e-9,
        gamma: 80e-9,
        delta: 0.0,
        link_excess: 1.0,
    };

    /// Intel Touchstone Delta (the library's original target): higher
    /// latency, lower bandwidth than the Paragon.
    pub const DELTA: MachineParams = MachineParams {
        alpha: 150e-6,
        beta: 125e-9,
        gamma: 100e-9,
        delta: 11e-6,
        link_excess: 1.0,
    };

    /// Intel iPSC/860 (the §11 hypercube port): slower network than the
    /// Paragon, similar i860 compute node.
    pub const IPSC860: MachineParams = MachineParams {
        alpha: 90e-6,
        beta: 350e-9,
        gamma: 80e-9,
        delta: 11e-6,
        link_excess: 1.0,
    };

    /// A unit-parameter machine (α = β = γ = 1, δ = 0): handy in tests,
    /// where cost coefficients can be read off directly.
    pub const UNIT: MachineParams = MachineParams {
        alpha: 1.0,
        beta: 1.0,
        gamma: 1.0,
        delta: 0.0,
        link_excess: 1.0,
    };

    /// Time to send one `n`-byte message point-to-point with no conflicts:
    /// `α + nβ` (§2).
    pub fn ptp(&self, n: usize) -> f64 {
        self.alpha + n as f64 * self.beta
    }

    /// Returns a copy with the wire terms replaced by measured
    /// estimates. γ, δ and `link_excess` are carried over unchanged:
    /// the obs residual fit only identifies α and β (the compute and
    /// call-overhead terms are subtracted before the least-squares
    /// solve), so a refit must not disturb what it cannot observe.
    /// Non-finite or non-positive estimates leave that term alone.
    pub fn refit(mut self, alpha_hat: f64, beta_hat: f64) -> Self {
        if alpha_hat.is_finite() && alpha_hat > 0.0 {
            self.alpha = alpha_hat;
        }
        if beta_hat.is_finite() && beta_hat > 0.0 {
            self.beta = beta_hat;
        }
        self
    }
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams::PARAGON
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptp_is_affine() {
        let m = MachineParams::UNIT;
        assert_eq!(m.ptp(0), 1.0);
        assert_eq!(m.ptp(10), 11.0);
    }

    #[test]
    fn paragon_bandwidth_order_of_magnitude() {
        // ~27 MB/s effective under OSF R1.1.
        let mbps = 1.0 / MachineParams::PARAGON.beta / 1e6;
        assert!((20.0..40.0).contains(&mbps), "got {mbps}");
    }
}
