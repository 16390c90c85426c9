//! The residual analyzer: folds a recorded run against the cost model's
//! per-stage predictions.
//!
//! For every pipeline stage of the executed hybrid (as enumerated by
//! `intercom_cost::stage_predictions`) the analyzer computes the
//! measured wall interval from the recorded timestamps, the predicted
//! time from the `α + nβ [+ nγ] [+ δ]` closed form, the residual and
//! their ratio; fits effective `α̂`/`β̂` across stages by least squares
//! (the Barchet-Estefanel & Mounié feedback loop that makes measured
//! strategy selection possible); detects *cross-stage pipeline skew* —
//! two stages of one collective overlapping in time because blocking
//! ranks drift apart, the effect PR 2's verifier could only bound
//! statically — and reports the slowest rank's critical path.

use crate::event::{Stage, TraceEvent};
use crate::record::RunRecord;
use intercom_cost::{
    stage_predictions, CollectiveOp, CostContext, MachineParams, StageKind, Strategy,
};
use std::fmt;

/// Measured-vs-predicted numbers for one pipeline stage.
#[derive(Debug, Clone)]
pub struct StageResidual {
    /// Stage coordinates (recursion level, sub-stage slot).
    pub stage: Stage,
    /// The §4 building block the model predicts for this stage.
    pub kind: StageKind,
    /// Group size the stage runs over.
    pub dim: usize,
    /// Recorded events attributed to the stage (all ranks).
    pub events: usize,
    /// Bytes moved in the stage (each message counted once).
    pub bytes: usize,
    /// Earliest recorded start across ranks (seconds since epoch).
    pub start: f64,
    /// Latest recorded end across ranks.
    pub end: f64,
    /// Measured wall time: `end - start` (0 when nothing was recorded).
    pub measured_secs: f64,
    /// Model prediction for the stage.
    pub predicted_secs: f64,
    /// Spread of per-rank stage entry times.
    pub start_skew_secs: f64,
    /// Spread of per-rank stage exit times.
    pub end_skew_secs: f64,
}

impl StageResidual {
    /// `measured / predicted` (`NaN` when the prediction is 0).
    pub fn ratio(&self) -> f64 {
        self.measured_secs / self.predicted_secs
    }
}

/// Two stages of one collective overlapping in time: cross-stage
/// pipeline skew (e.g. a scatter tail running under a collect head).
#[derive(Debug, Clone, Copy)]
pub struct StageOverlap {
    /// The earlier stage (pipeline order).
    pub a: Stage,
    /// The later stage.
    pub b: Stage,
    /// Length of the overlapping interval in seconds.
    pub secs: f64,
}

/// One rank's aggregate timing.
#[derive(Debug, Clone, Copy)]
pub struct RankPath {
    /// World rank.
    pub rank: usize,
    /// First event start.
    pub start: f64,
    /// Last event end — the rank's contribution to the critical path.
    pub end: f64,
    /// Sum of event durations (time inside communication calls).
    pub busy_secs: f64,
}

/// The folded measured-vs-predicted report for one recorded collective.
#[derive(Debug, Clone)]
pub struct ResidualReport {
    /// The analyzed collective.
    pub op: CollectiveOp,
    /// The hybrid strategy the run executed.
    pub strategy: Strategy,
    /// World size.
    pub p: usize,
    /// Total vector length in bytes (the model's `n`).
    pub n: usize,
    /// The machine whose parameters priced the predictions.
    pub machine: MachineParams,
    /// Per-stage residuals, in pipeline order.
    pub stages: Vec<StageResidual>,
    /// Cross-stage overlaps (empty for a perfectly phased run).
    pub overlaps: Vec<StageOverlap>,
    /// Least-squares effective `α̂` over the stages (needs ≥ 2
    /// independent stages).
    pub fitted_alpha: Option<f64>,
    /// Least-squares effective `β̂` over the stages.
    pub fitted_beta: Option<f64>,
    /// Per-rank critical-path summary, indexed by rank.
    pub ranks: Vec<RankPath>,
    /// The rank whose last event ends latest.
    pub slowest_rank: usize,
    /// Whole-run measured wall time (first start to last end).
    pub measured_total_secs: f64,
    /// Whole-run predicted time (sum of stage predictions).
    pub predicted_total_secs: f64,
    /// Events whose tag matched no predicted stage.
    pub unattributed_events: usize,
}

impl ResidualReport {
    /// True when any two stages overlap in time — the measured
    /// counterpart of the verifier's "not conflict-free" pipeline-skew
    /// verdict.
    pub fn has_cross_stage_skew(&self) -> bool {
        !self.overlaps.is_empty()
    }
}

/// Communication events only (stage folding ignores local reductions
/// and fault-layer markers: reduction time shows up inside the
/// enclosing stage interval, and fault events carry no wire traffic).
fn is_comm(ev: &TraceEvent) -> bool {
    ev.kind.is_comm()
}

/// Folds a recorded run against the cost model.
///
/// `n` is the collective's *total* vector length in bytes — the unit
/// `hybrid_cost` prices (for collect / distributed combine that is
/// `p · block`). Timestamps may be wall-clock (threaded runtime) or
/// virtual (simulator); only differences are used.
pub fn analyze(
    run: &RunRecord,
    op: CollectiveOp,
    strategy: &Strategy,
    ctx: CostContext,
    machine: &MachineParams,
    n: usize,
) -> ResidualReport {
    let p = run.p();
    let predictions = stage_predictions(op, strategy, ctx);

    // --- Per-stage measurement ----------------------------------------
    let mut stages = Vec::with_capacity(predictions.len());
    let mut matched_stages: Vec<Stage> = Vec::new();
    for pred in &predictions {
        let stage = Stage {
            level: pred.level as u64,
            sub: pred.sub,
        };
        matched_stages.push(stage);
        let mut events = 0usize;
        let mut bytes = 0usize;
        let mut start = f64::INFINITY;
        let mut end = f64::NEG_INFINITY;
        let mut rank_starts = Vec::new();
        let mut rank_ends = Vec::new();
        for rank_events in &run.events {
            let mut r_start = f64::INFINITY;
            let mut r_end = f64::NEG_INFINITY;
            for ev in rank_events.iter().filter(|e| is_comm(e)) {
                if ev.stage() != stage {
                    continue;
                }
                events += 1;
                if ev.src == ev.rank {
                    bytes += ev.bytes;
                }
                r_start = r_start.min(ev.start);
                r_end = r_end.max(ev.end);
            }
            if r_start.is_finite() {
                rank_starts.push(r_start);
                rank_ends.push(r_end);
                start = start.min(r_start);
                end = end.max(r_end);
            }
        }
        let spread = |v: &[f64]| -> f64 {
            match (
                v.iter().copied().reduce(f64::min),
                v.iter().copied().reduce(f64::max),
            ) {
                (Some(lo), Some(hi)) => hi - lo,
                _ => 0.0,
            }
        };
        let measured = if start.is_finite() { end - start } else { 0.0 };
        stages.push(StageResidual {
            stage,
            kind: pred.kind,
            dim: pred.dim,
            events,
            bytes,
            start: if start.is_finite() { start } else { 0.0 },
            end: if end.is_finite() { end } else { 0.0 },
            measured_secs: measured,
            predicted_secs: pred.cost.eval(n, machine),
            start_skew_secs: spread(&rank_starts),
            end_skew_secs: spread(&rank_ends),
        });
    }

    let unattributed_events = run
        .all_events()
        .filter(|e| is_comm(e) && !matched_stages.contains(&e.stage()))
        .count();

    // --- Cross-stage overlap ------------------------------------------
    // Ordered pairs in pipeline order; an overlap needs both stages to
    // have recorded events. A tolerance of zero would flag shared
    // endpoints, so require a strictly positive overlap.
    let mut overlaps = Vec::new();
    for i in 0..stages.len() {
        for j in (i + 1)..stages.len() {
            let (a, b) = (&stages[i], &stages[j]);
            if a.events == 0 || b.events == 0 {
                continue;
            }
            let secs = a.end.min(b.end) - a.start.max(b.start);
            if secs > 1e-12 {
                overlaps.push(StageOverlap {
                    a: a.stage,
                    b: b.stage,
                    secs,
                });
            }
        }
    }

    // --- Effective α̂/β̂ least-squares fit ------------------------------
    // measured_i − γ/δ terms ≈ α̂·alpha_c_i + β̂·(beta_c_i·n): solve the
    // 2×2 normal equations over stages that recorded events.
    let (mut s11, mut s12, mut s22, mut sy1, mut sy2) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    let mut fit_points = 0usize;
    for (st, pred) in stages.iter().zip(&predictions) {
        if st.events == 0 {
            continue;
        }
        let x1 = pred.cost.alpha_c;
        let x2 = pred.cost.beta_c * n as f64;
        let y = st.measured_secs
            - pred.cost.gamma_c * n as f64 * machine.gamma
            - pred.cost.delta_c * machine.delta;
        s11 += x1 * x1;
        s12 += x1 * x2;
        s22 += x2 * x2;
        sy1 += x1 * y;
        sy2 += x2 * y;
        fit_points += 1;
    }
    let det = s11 * s22 - s12 * s12;
    let (fitted_alpha, fitted_beta) = if fit_points >= 2 && det.abs() > 1e-30 {
        (
            Some((sy1 * s22 - sy2 * s12) / det),
            Some((s11 * sy2 - s12 * sy1) / det),
        )
    } else {
        (None, None)
    };

    // --- Per-rank critical path ---------------------------------------
    let mut ranks = Vec::with_capacity(p);
    for (rank, rank_events) in run.events.iter().enumerate() {
        let mut path = RankPath {
            rank,
            start: f64::INFINITY,
            end: f64::NEG_INFINITY,
            busy_secs: 0.0,
        };
        for ev in rank_events.iter().filter(|e| is_comm(e)) {
            path.start = path.start.min(ev.start);
            path.end = path.end.max(ev.end);
            path.busy_secs += ev.duration().max(0.0);
        }
        if !path.start.is_finite() {
            path.start = 0.0;
            path.end = 0.0;
        }
        ranks.push(path);
    }
    let slowest_rank = ranks
        .iter()
        .max_by(|a, b| a.end.total_cmp(&b.end))
        .map(|r| r.rank)
        .unwrap_or(0);
    let run_start = ranks.iter().map(|r| r.start).fold(f64::INFINITY, f64::min);
    let run_end = ranks.iter().map(|r| r.end).fold(0.0f64, f64::max);
    let measured_total_secs = if run_start.is_finite() && run_end > run_start {
        run_end - run_start
    } else {
        0.0
    };
    let predicted_total_secs = stages.iter().map(|s| s.predicted_secs).sum();

    ResidualReport {
        op,
        strategy: strategy.clone(),
        p,
        n,
        machine: *machine,
        stages,
        overlaps,
        fitted_alpha,
        fitted_beta,
        ranks,
        slowest_rank,
        measured_total_secs,
        predicted_total_secs,
        unattributed_events,
    }
}

fn secs(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1.0 {
        format!("{x:.3} s")
    } else if x.abs() >= 1e-3 {
        format!("{:.3} ms", x * 1e3)
    } else {
        format!("{:.3} µs", x * 1e6)
    }
}

impl fmt::Display for ResidualReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "residual report: {} with strategy {} on p={}, n={} B",
            self.op.name(),
            self.strategy,
            self.p,
            self.n
        )?;
        writeln!(
            f,
            "  total: measured {} vs predicted {} (ratio {:.3})",
            secs(self.measured_total_secs),
            secs(self.predicted_total_secs),
            self.measured_total_secs / self.predicted_total_secs
        )?;
        writeln!(
            f,
            "  {:<8} {:<20} {:>5} {:>7} {:>10} {:>12} {:>12} {:>9} {:>12}",
            "stage", "kind", "dim", "events", "bytes", "measured", "predicted", "ratio", "end-skew"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "  {:<8} {:<20} {:>5} {:>7} {:>10} {:>12} {:>12} {:>9.3} {:>12}",
                s.stage.to_string(),
                s.kind.name(),
                s.dim,
                s.events,
                s.bytes,
                secs(s.measured_secs),
                secs(s.predicted_secs),
                s.ratio(),
                secs(s.end_skew_secs),
            )?;
        }
        match (self.fitted_alpha, self.fitted_beta) {
            (Some(a), Some(b)) => {
                writeln!(
                    f,
                    "  fitted α̂ = {} (model α = {}, residual {:+.1}%)",
                    secs(a),
                    secs(self.machine.alpha),
                    (a / self.machine.alpha - 1.0) * 100.0
                )?;
                writeln!(
                    f,
                    "  fitted β̂ = {:.3e} s/B (model β = {:.3e}, residual {:+.1}%)",
                    b,
                    self.machine.beta,
                    (b / self.machine.beta - 1.0) * 100.0
                )?;
            }
            _ => writeln!(f, "  fitted α̂/β̂: not identifiable (fewer than 2 stages)")?,
        }
        if self.overlaps.is_empty() {
            writeln!(f, "  cross-stage skew: none (stages are fully phased)")?;
        } else {
            for o in &self.overlaps {
                writeln!(
                    f,
                    "  CROSS-STAGE SKEW: {} overlaps {} for {} — blocking ranks drifted across stage boundaries",
                    o.a,
                    o.b,
                    secs(o.secs)
                )?;
            }
        }
        let slow = &self.ranks[self.slowest_rank];
        writeln!(
            f,
            "  critical path: rank {} finishes last at t={} (busy {} of span {})",
            slow.rank,
            secs(slow.end),
            secs(slow.busy_secs),
            secs(slow.end - slow.start),
        )?;
        if self.unattributed_events > 0 {
            writeln!(
                f,
                "  note: {} events matched no predicted stage",
                self.unattributed_events
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom_cost::StrategyKind;

    /// Synthesizes a run whose stages execute exactly as predicted.
    fn phased_run() -> (RunRecord, Strategy) {
        // (4, SC) broadcast: L0.0 mst-scatter then L0.1 ring-collect.
        let st = Strategy::pure_long(4);
        let transfers = vec![
            // scatter stage: tags at offset 0
            TraceEvent::transfer(0, 1, 0, 100, 0.0, 1.0, 1),
            TraceEvent::transfer(0, 2, 0, 100, 1.0, 2.0, 1),
            // collect stage: tags at offset 1
            TraceEvent::transfer(1, 2, 1, 100, 2.5, 3.0, 1),
            TraceEvent::transfer(2, 3, 1, 100, 3.0, 3.5, 1),
        ];
        (RunRecord::from_transfers(&transfers, 4), st)
    }

    #[test]
    fn stages_fold_onto_predictions() {
        let (run, st) = phased_run();
        let rep = analyze(
            &run,
            CollectiveOp::Broadcast,
            &st,
            CostContext::LINEAR,
            &MachineParams::UNIT,
            400,
        );
        assert_eq!(rep.stages.len(), 2);
        assert_eq!(rep.stages[0].events, 2);
        assert_eq!(rep.stages[0].bytes, 200);
        assert!((rep.stages[0].measured_secs - 2.0).abs() < 1e-12);
        assert_eq!(rep.stages[1].events, 2);
        assert!((rep.stages[1].measured_secs - 1.0).abs() < 1e-12);
        assert!(rep.overlaps.is_empty(), "phased run has no skew");
        assert!(!rep.has_cross_stage_skew());
        assert_eq!(rep.slowest_rank, 2);
        assert_eq!(rep.unattributed_events, 0);
        assert!((rep.measured_total_secs - 3.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_stages_are_flagged() {
        let st = Strategy::pure_long(4);
        let transfers = vec![
            TraceEvent::transfer(0, 1, 0, 100, 0.0, 2.0, 1),
            // collect starts while the scatter is still in flight
            TraceEvent::transfer(1, 2, 1, 100, 1.0, 3.0, 1),
        ];
        let run = RunRecord::from_transfers(&transfers, 4);
        let rep = analyze(
            &run,
            CollectiveOp::Broadcast,
            &st,
            CostContext::LINEAR,
            &MachineParams::UNIT,
            400,
        );
        assert!(rep.has_cross_stage_skew());
        assert_eq!(rep.overlaps.len(), 1);
        assert!((rep.overlaps[0].secs - 1.0).abs() < 1e-12);
        let text = rep.to_string();
        assert!(text.contains("CROSS-STAGE SKEW"), "{text}");
    }

    #[test]
    fn alpha_beta_fit_recovers_exact_model() {
        // Build measured times exactly from the model on a 3-level
        // hybrid, then check the fit returns the machine parameters.
        let st = Strategy::new(vec![2, 2, 3], StrategyKind::Mst);
        let machine = MachineParams::UNIT;
        let n = 1200usize;
        let preds = stage_predictions(CollectiveOp::Broadcast, &st, CostContext::LINEAR);
        let mut transfers = Vec::new();
        let mut t = 0.0;
        for p in &preds {
            let dur = p.cost.eval(n, &machine);
            let tag = p.level as u64 * crate::event::LEVEL_TAG_STRIDE + p.sub;
            transfers.push(TraceEvent::transfer(0, 1, tag, n, t, t + dur, 1));
            t += dur;
        }
        let run = RunRecord::from_transfers(&transfers, 12);
        let rep = analyze(
            &run,
            CollectiveOp::Broadcast,
            &st,
            CostContext::LINEAR,
            &machine,
            n,
        );
        let a = rep.fitted_alpha.expect("identifiable");
        let b = rep.fitted_beta.expect("identifiable");
        assert!((a - machine.alpha).abs() < 1e-9, "α̂ = {a}");
        assert!((b - machine.beta).abs() < 1e-12, "β̂ = {b}");
    }

    #[test]
    fn unattributed_events_are_counted() {
        let st = Strategy::pure_mst(4);
        let transfers = vec![TraceEvent::transfer(0, 1, 7, 10, 0.0, 1.0, 1)];
        let run = RunRecord::from_transfers(&transfers, 4);
        let rep = analyze(
            &run,
            CollectiveOp::Broadcast,
            &st,
            CostContext::LINEAR,
            &MachineParams::UNIT,
            10,
        );
        assert_eq!(rep.unattributed_events, 1);
        assert_eq!(rep.stages[0].events, 0);
    }
}
