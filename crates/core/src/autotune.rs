//! The acting half of the closed autotuning loop: turn a
//! [`DriftVerdict`] into a refit of the machine's network level,
//! plan-cache invalidation and strategy re-selection.
//!
//! The obs side (`obs::drift`) *senses* — it folds streaming residual
//! reports into an online α̂/β̂ estimate and raises a verdict when the
//! estimate departs from the configured machine. This module *acts* on
//! the verdict, which only the core crate can do, because it owns the
//! plan cache:
//!
//! 1. install the refit via [`TunedHier::refit_level`] (bumping the
//!    params version, exported as the `intercom_machine_params_version`
//!    gauge);
//! 2. for every call shape the tuner has seen, re-run the selector
//!    ([`choose`] — what the tracked call itself ran) under the new
//!    parameters;
//! 3. where the choice changed, [`PlanCache::invalidate_matching`] the
//!    stale entries and [`PlanCache::warm_up`] the new winner, so the
//!    next collective call compiles nothing and prices correctly;
//! 4. report everything in a [`RetuneReport`] with both choices
//!    priced under the *new* parameters, making the win auditable.
//!
//! This is ROADMAP's "closed-loop autotuning from observed residuals"
//! ("Fast Tuning of Intra-Cluster Collective Communications" rebuilt on
//! verified schedules), end to end.

use crate::ir::{cost_op, global_cache, PlanCache, PlanKey, PlanOp};
use intercom_cost::select::{choose, price, GroupShape};
use intercom_cost::{HierChoice, HierMachine, MachineParams, TunedHier};
use intercom_obs::drift::{DriftConfig, DriftMonitor, DriftVerdict};
use intercom_obs::residual::ResidualReport;
use std::collections::HashSet;

/// One call shape the tuner re-selects for after a refit. What the
/// cache is keyed on and what the selector prices
/// ([`cost_op`], [`PlanOp::cost_bytes`]) both follow from it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TrackedShape {
    /// The collective (with root/segment parameters) as cached.
    pub op: PlanOp,
    /// The group shape selection runs over.
    pub shape: GroupShape,
    /// Size parameter in elements (the plan key's `n`).
    pub n: usize,
    /// Element width in bytes.
    pub elem_size: usize,
}

/// One re-selection performed by a retune: the shape, the stale and
/// fresh choices, and both priced under the *new* parameters.
#[derive(Debug, Clone)]
pub struct Reselect {
    /// The call shape that flipped.
    pub shape: TrackedShape,
    /// What the call ran under the stale parameters.
    pub old: HierChoice,
    /// What it runs under the refit parameters.
    pub new: HierChoice,
    /// `old`'s predicted seconds under the refit parameters.
    pub old_cost: f64,
    /// `new`'s predicted seconds under the refit parameters.
    pub new_cost: f64,
    /// Cache entries invalidated for this shape.
    pub invalidated: usize,
}

/// What one [`DriftVerdict`] caused.
#[derive(Debug, Clone)]
pub struct RetuneReport {
    /// The verdict that triggered the retune.
    pub verdict: DriftVerdict,
    /// The refit (network) level's parameters before the refit.
    pub old_params: MachineParams,
    /// That level's parameters now active.
    pub new_params: MachineParams,
    /// The bumped params version.
    pub version: u64,
    /// Shapes whose best strategy changed (stale entries invalidated,
    /// new winner warmed).
    pub reselections: Vec<Reselect>,
    /// Total cache entries invalidated.
    pub invalidated: usize,
    /// Programs freshly compiled by re-warming.
    pub warmed: usize,
}

/// The closed-loop tuner: wraps a [`DriftMonitor`] and a versioned
/// parameter set, and acts on verdicts against the plan cache.
#[derive(Debug)]
pub struct AutoTuner {
    monitor: DriftMonitor,
    tuned: TunedHier,
    shapes: Vec<TrackedShape>,
    /// `shapes` by hash: `track` runs on every `Algo::Auto` call.
    seen: HashSet<TrackedShape>,
}

impl AutoTuner {
    /// A tuner for a machine configured as `params`, with default drift
    /// knobs.
    pub fn new(params: MachineParams) -> Self {
        Self::with_config(params, DriftConfig::default())
    }

    /// A tuner with explicit drift knobs.
    pub fn with_config(params: MachineParams, cfg: DriftConfig) -> Self {
        AutoTuner {
            monitor: DriftMonitor::with_config(params, cfg),
            tuned: TunedHier::new(HierMachine::flat(params)),
            shapes: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// The network-level parameters currently pricing selections.
    pub fn params(&self) -> &MachineParams {
        self.tuned.current.inter()
    }

    /// The current params version (1 = as configured; each refit bumps).
    pub fn version(&self) -> u64 {
        self.tuned.version
    }

    /// The versioned machine the tuner refits and re-selects under.
    pub fn tuned(&self) -> &TunedHier {
        &self.tuned
    }

    /// Re-selects under `tuned` from now on: a communicator hands its
    /// own ladder and version over when the tuner is attached, so a
    /// cluster's retune sees both levels and the two never disagree.
    /// The monitor keeps watching the network level it was built for.
    pub(crate) fn adopt(&mut self, tuned: TunedHier) {
        self.tuned = tuned;
    }

    /// Read access to the wrapped monitor (estimate, sample count).
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// Registers a call shape for post-refit re-selection. Duplicate
    /// registrations are ignored.
    pub fn track(&mut self, shape: TrackedShape) {
        if self.seen.insert(shape.clone()) {
            self.shapes.push(shape);
        }
    }

    /// The shapes the tuner will re-select after a refit.
    pub fn tracked(&self) -> &[TrackedShape] {
        &self.shapes
    }

    /// Feeds one residual report; on a drift verdict, retunes against
    /// the process-wide [`global_cache`].
    pub fn observe(&mut self, report: &ResidualReport) -> Option<RetuneReport> {
        self.observe_with_cache(report, global_cache())
    }

    /// Feeds one residual report; on a drift verdict, refits the
    /// network level (the drift monitor watches end-to-end residuals,
    /// which the expensive level dominates), re-selects every tracked
    /// shape and invalidates/re-warms `cache`. Publishes the params
    /// version and retune counters to the metrics registry.
    pub fn observe_with_cache(
        &mut self,
        report: &ResidualReport,
        cache: &PlanCache,
    ) -> Option<RetuneReport> {
        let verdict = self.monitor.observe(report)?;
        let old_machine = self.tuned.current;
        let net = old_machine.levels() - 1;
        let version = self
            .tuned
            .refit_level(net, verdict.refit.alpha, verdict.refit.beta);
        let new_machine = self.tuned.current;
        self.monitor.rebase(*new_machine.inter());

        let mut reselections = Vec::new();
        let mut invalidated = 0usize;
        let mut warmed = 0usize;
        for shape in &self.shapes {
            // Only ops the selector prices have a choice to revisit.
            let Some(cop) = cost_op(shape.op) else {
                continue;
            };
            let p = shape.shape.nodes();
            let bytes = shape.op.cost_bytes(p, shape.n, shape.elem_size);
            let old = choose(cop, shape.shape, bytes, &old_machine);
            let new = choose(cop, shape.shape, bytes, &new_machine);
            if old == new {
                continue;
            }
            // Retire every cached plan of this shape (any strategy,
            // any opt level): each was compiled for a choice priced
            // under the stale parameters. Plans of other group sizes
            // share the process-wide cache and are not this shape's.
            let dropped = cache.invalidate_matching(|k| {
                k.op == shape.op && k.p == p && k.n == shape.n && k.elem_size == shape.elem_size
            });
            invalidated += dropped;
            let key = PlanKey::frozen(shape.op, p, shape.n, shape.elem_size, Some(&new));
            warmed += cache.warm_up([key]).unwrap_or(0);
            let cost = |c: &HierChoice| price(cop, shape.shape, c, bytes, &new_machine);
            reselections.push(Reselect {
                shape: shape.clone(),
                old_cost: cost(&old),
                new_cost: cost(&new),
                old,
                new,
                invalidated: dropped,
            });
        }

        intercom_obs::metrics::counter_add(
            "intercom_drift_verdicts_total",
            &[("param", verdict.param.name())],
            1,
        );
        intercom_obs::metrics::counter_add("intercom_refits_total", &[], 1);
        intercom_obs::metrics::gauge_set("intercom_machine_params_version", &[], version as f64);
        publish_cache_stats(cache);

        Some(RetuneReport {
            verdict,
            old_params: *old_machine.inter(),
            new_params: *new_machine.inter(),
            version,
            reselections,
            invalidated,
            warmed,
        })
    }
}

/// Publishes a plan cache's counters and occupancy to the metrics
/// registry (no-op when the metrics layer is disabled).
pub fn publish_cache_stats(cache: &PlanCache) {
    if !intercom_obs::metrics::enabled() {
        return;
    }
    let s = cache.stats();
    let reg = intercom_obs::metrics::global();
    reg.gauge_set("intercom_plancache_hits_total", &[], s.hits as f64);
    reg.gauge_set("intercom_plancache_misses_total", &[], s.misses as f64);
    reg.gauge_set(
        "intercom_plancache_evictions_total",
        &[],
        s.evictions as f64,
    );
    reg.gauge_set(
        "intercom_plancache_invalidations_total",
        &[],
        s.invalidations as f64,
    );
    reg.gauge_set("intercom_plancache_entries", &[], s.entries as f64);
    if let Some(rate) = s.hit_rate() {
        reg.gauge_set("intercom_plancache_hit_rate", &[], rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_shapes_deduplicate() {
        let mut tuner = AutoTuner::new(MachineParams::PARAGON_MODEL);
        let shape = TrackedShape {
            op: PlanOp::Broadcast { root: 0 },
            shape: GroupShape::Linear(8),
            n: 1024,
            elem_size: 8,
        };
        tuner.track(shape.clone());
        tuner.track(shape);
        assert_eq!(tuner.tracked().len(), 1);
        assert_eq!(tuner.version(), 1);
    }
}
