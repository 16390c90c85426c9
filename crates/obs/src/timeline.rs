//! Timeline views over a recorded event log.
//!
//! [`Trace`] offers summaries and a step-diagram renderer used to
//! reproduce the paper's Fig. 1 (the 12-node hybrid broadcast walk-
//! through). It consumes the unified [`TraceEvent`] schema, so the same
//! renderers serve the simulator's transfer log and the threaded
//! runtime's endpoint log.

use crate::event::TraceEvent;
use std::fmt::Write as _;

/// A completed run's event log, ordered by start time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<TraceEvent>,
}

impl Trace {
    /// Builds a trace, sorting events by `(start, src, dst)`.
    pub fn new(mut records: Vec<TraceEvent>) -> Self {
        records.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
        Trace { records }
    }

    /// All records, ordered by start time.
    pub fn records(&self) -> &[TraceEvent] {
        &self.records
    }

    /// Total number of point-to-point messages.
    pub fn message_count(&self) -> usize {
        self.records.len()
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> usize {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Total byte·hops (a proxy for network load).
    pub fn byte_hops(&self) -> usize {
        self.records.iter().map(|r| r.bytes * r.hops).sum()
    }

    /// Groups records into synchronous "steps": transfers whose start
    /// times coincide (within `tol`) form one step, ordered by time.
    /// Matches the paper's step-by-step figures for lock-step
    /// algorithms.
    pub fn steps(&self, tol: f64) -> Vec<Vec<&TraceEvent>> {
        let mut steps: Vec<(f64, Vec<&TraceEvent>)> = Vec::new();
        for r in &self.records {
            match steps.last_mut() {
                Some((t, v)) if (r.start - *t).abs() <= tol => v.push(r),
                _ => steps.push((r.start, vec![r])),
            }
        }
        steps.into_iter().map(|(_, v)| v).collect()
    }

    /// Renders a Fig.-1-style step diagram: one line per step listing the
    /// simultaneous transfers.
    pub fn render_steps(&self, tol: f64) -> String {
        let mut out = String::new();
        for (i, step) in self.steps(tol).iter().enumerate() {
            let _ = write!(out, "step {:>2} @ t={:<12.6}", i + 1, step[0].start);
            let moves: Vec<String> = step
                .iter()
                .map(|r| format!("{}→{} ({} B)", r.src, r.dst, r.bytes))
                .collect();
            let _ = writeln!(out, " {}", moves.join("  "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(src: usize, dst: usize, start: f64, bytes: usize) -> TraceEvent {
        TraceEvent::transfer(src, dst, 0, bytes, start, start + 1.0, 1)
    }

    #[test]
    fn records_sorted_by_start() {
        let t = Trace::new(vec![rec(0, 1, 2.0, 4), rec(1, 2, 1.0, 4)]);
        assert_eq!(t.records()[0].start, 1.0);
    }

    #[test]
    fn steps_group_simultaneous_transfers() {
        let t = Trace::new(vec![
            rec(0, 1, 0.0, 8),
            rec(2, 3, 0.0, 8),
            rec(0, 2, 5.0, 8),
        ]);
        let steps = t.steps(1e-9);
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].len(), 2);
        assert_eq!(steps[1].len(), 1);
    }

    #[test]
    fn aggregates() {
        let t = Trace::new(vec![rec(0, 1, 0.0, 10), rec(1, 2, 1.0, 20)]);
        assert_eq!(t.message_count(), 2);
        assert_eq!(t.total_bytes(), 30);
        assert_eq!(t.byte_hops(), 30);
    }

    #[test]
    fn render_contains_moves() {
        let t = Trace::new(vec![rec(3, 5, 0.0, 16)]);
        let s = t.render_steps(1e-9);
        assert!(s.contains("3→5 (16 B)"), "{s}");
    }
}
