//! Derived network statistics over a completed trace: the peak number
//! of transfers in flight on each link, the dynamic check on the
//! concurrent verifier's static contention bound.

use crate::net::NetSpec;
use intercom_obs::Trace;
use std::collections::HashMap;

/// Per-directed-link **peak concurrency** for a trace: the maximum
/// number of transfers simultaneously in flight on each link, from the
/// records' `[start, end)` timestamp intervals. This is the dynamic
/// twin of the static composite contention bound the concurrent
/// verifier computes — on an overlapping-tenant workload the observed
/// peak on the worst shared link must not exceed (and, when the
/// tenants actually align, matches) the static factor.
#[derive(Debug, Clone)]
pub struct LinkConcurrency {
    /// Peak simultaneous transfers per directed-link slot (sparse).
    peaks: HashMap<usize, usize>,
}

impl LinkConcurrency {
    /// Routes each record on `net` and sweeps its `[start, end)`
    /// interval over every link of the route. Zero-length intervals
    /// (degenerate zero-byte transfers) still count at their instant.
    pub fn from_trace(trace: &Trace, net: &NetSpec) -> Self {
        let mut intervals: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
        for r in trace.records() {
            let mut slots = Vec::new();
            net.route_slots(r.src, r.dst, 0, &mut slots);
            for s in slots {
                intervals
                    .entry(s as usize)
                    .or_default()
                    .push((r.start, r.end.max(r.start)));
            }
        }
        let peaks = intervals
            .into_iter()
            .map(|(slot, iv)| (slot, peak_overlap(&iv)))
            .collect();
        LinkConcurrency { peaks }
    }

    /// Peak simultaneous transfers on directed-link `slot` (0 if unused).
    pub fn peak(&self, slot: usize) -> usize {
        self.peaks.get(&slot).copied().unwrap_or(0)
    }

    /// The worst per-link peak across the whole network, with its slot
    /// (lowest slot wins ties); `(0, 0)` for an empty trace.
    pub fn max_peak(&self) -> (usize, usize) {
        self.peaks
            .iter()
            .map(|(&s, &p)| (s, p))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap_or((0, 0))
    }
}

/// Maximum overlap of half-open intervals; touching endpoints
/// (`end == start`) do not overlap, except that a zero-length interval
/// still counts as occupying its instant.
fn peak_overlap(intervals: &[(f64, f64)]) -> usize {
    let mut points: Vec<(f64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e) in intervals {
        // A zero-length transfer still occupies its instant: give it
        // epsilon width so it overlaps anything covering `s` (and other
        // zero-length transfers at the same instant).
        let e = if e > s { e } else { s.next_up() };
        points.push((s, 1));
        points.push((e, -1));
    }
    // Ends sort before starts at equal times (half-open semantics).
    points.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut cur: i32 = 0;
    let mut peak: i32 = 0;
    for (_, d) in points {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom_obs::TraceEvent;
    use intercom_topology::Mesh2D;

    fn timed(src: usize, dst: usize, start: f64, end: f64) -> TraceEvent {
        TraceEvent::transfer(src, dst, 0, 8, start, end, 0)
    }

    #[test]
    fn concurrency_counts_true_overlap_only() {
        let net = NetSpec::Mesh(Mesh2D::new(1, 4));
        // 0→2 and 1→3 share link 1→E while [1,3)∩[2,4) overlap; the
        // back-to-back 0→1 transfers touch at t=5 but never overlap.
        let trace = Trace::new(vec![
            timed(0, 2, 1.0, 3.0),
            timed(1, 3, 2.0, 4.0),
            timed(0, 1, 4.0, 5.0),
            timed(0, 1, 5.0, 6.0),
        ]);
        let conc = LinkConcurrency::from_trace(&trace, &net);
        let mut slots = Vec::new();
        net.route_slots(1, 2, 0, &mut slots);
        let shared = slots[0] as usize;
        assert_eq!(conc.peak(shared), 2);
        slots.clear();
        net.route_slots(0, 1, 0, &mut slots);
        assert_eq!(conc.peak(slots[0] as usize), 1, "touching ≠ overlapping");
        assert_eq!(conc.max_peak(), (shared, 2));
    }

    #[test]
    fn concurrency_of_empty_trace() {
        let net = NetSpec::Mesh(Mesh2D::new(2, 2));
        let conc = LinkConcurrency::from_trace(&Trace::default(), &net);
        assert_eq!(conc.max_peak(), (0, 0));
        assert_eq!(conc.peak(3), 0);
    }

    #[test]
    fn zero_length_transfers_occupy_their_instant() {
        let net = NetSpec::Mesh(Mesh2D::new(1, 2));
        let trace = Trace::new(vec![timed(0, 1, 2.0, 2.0), timed(0, 1, 1.0, 3.0)]);
        let conc = LinkConcurrency::from_trace(&trace, &net);
        assert_eq!(conc.max_peak().1, 2);
    }
}
