//! The flight recorder: a bounded ring of the last K plan executions.
//!
//! Unlike the [`crate::record`] tracer — which is attached explicitly,
//! per run, and drained by the caller — the flight recorder is a
//! process-wide black box. Every compiled-plan execution [`begin`]s an
//! entry, [`mark_step`]s its progress (first/last step indices, not one
//! mark per step, so a million-step plan costs the same as a ten-step
//! one), and either [`finish`]es or [`fail`]s it. The ring keeps the
//! last [`DEFAULT_FLIGHT_CAPACITY`] entries in a fixed-capacity
//! [`VecDeque`]; on failure the whole ring is rendered to text — the
//! timeline of what the process was doing *leading up to* the error —
//! stored for [`FlightRecorder::last_dump`], and, when `INTERCOM_FLIGHT_DUMP` names a
//! path, appended to that file. The watchdog's abort path calls
//! [`FlightRecorder::dump_now`] for the same effect without an error entry.
//!
//! Concurrent ranks of one collective share a plan id; the recorder
//! refcounts [`begin`]s per plan id so a p-rank execution makes one
//! entry, not p.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How many completed plan executions the ring retains.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 32;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the flight recorder records anything (one relaxed load on
/// the disabled path, same discipline as `metrics::enabled`).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the flight recorder on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// How one recorded execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightOutcome {
    /// Still executing (only the newest entries can be in flight).
    InFlight,
    /// Completed cleanly.
    Ok,
    /// Failed; the stringified error rides along.
    Err(String),
}

/// One plan execution in the ring.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// The compiled plan id (`CollectiveProgram::plan_id`).
    pub plan: u64,
    /// Operation name (`PlanOp::name()`).
    pub op: String,
    /// World size.
    pub p: usize,
    /// Element count.
    pub n: usize,
    /// Strategy string, when the op takes one.
    pub strategy: Option<String>,
    /// Seconds since the recorder's epoch at `begin`.
    pub started: f64,
    /// Seconds since the epoch at `finish`/`fail` (0 while in flight).
    pub ended: f64,
    /// Highest step index any rank reported.
    pub last_step: u64,
    /// How many ranks are still inside this execution.
    pub active_ranks: usize,
    /// Fault-layer notes attached while the entry was in flight
    /// (bounded; see [`note_fault`]).
    pub faults: Vec<String>,
    /// How the execution ended.
    pub outcome: FlightOutcome,
}

/// Per-entry bound on attached fault notes: enough for a realistic
/// retry storm, small enough that a pathological one cannot grow the
/// black box.
const MAX_FAULT_NOTES: usize = 64;

#[derive(Debug)]
struct Inner {
    entries: VecDeque<FlightEntry>,
    capacity: usize,
    last_dump: Option<String>,
    dumps: u64,
}

/// The process-wide flight recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    fn new(capacity: usize) -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                entries: VecDeque::with_capacity(capacity),
                capacity,
                last_dump: None,
                dumps: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens (or joins) the entry for `plan`. Ranks of one collective
    /// call this concurrently; the first opens the entry, the rest
    /// bump its refcount.
    pub fn begin(&self, plan: u64, op: &str, p: usize, n: usize, strategy: Option<&str>) {
        let now = self.now();
        let mut inner = self.lock();
        if let Some(e) = inner
            .entries
            .iter_mut()
            .rev()
            .find(|e| e.plan == plan && e.outcome == FlightOutcome::InFlight)
        {
            e.active_ranks += 1;
            return;
        }
        if inner.entries.len() == inner.capacity {
            inner.entries.pop_front();
        }
        inner.entries.push_back(FlightEntry {
            plan,
            op: op.to_string(),
            p,
            n,
            strategy: strategy.map(str::to_string),
            started: now,
            ended: 0.0,
            last_step: 0,
            active_ranks: 1,
            faults: Vec::new(),
            outcome: FlightOutcome::InFlight,
        });
    }

    /// Advances the in-flight entry's progress watermark.
    pub fn mark_step(&self, plan: u64, step: u64) {
        let mut inner = self.lock();
        if let Some(e) = inner
            .entries
            .iter_mut()
            .rev()
            .find(|e| e.plan == plan && e.outcome == FlightOutcome::InFlight)
        {
            e.last_step = e.last_step.max(step);
        }
    }

    /// Attaches a fault note (retry, NAK, timeout…) to the in-flight
    /// entry for `plan`, bounded per entry.
    pub fn note_fault(&self, plan: u64, note: &str) {
        let mut inner = self.lock();
        if let Some(e) = inner
            .entries
            .iter_mut()
            .rev()
            .find(|e| e.plan == plan && e.outcome == FlightOutcome::InFlight)
        {
            if e.faults.len() < MAX_FAULT_NOTES {
                e.faults.push(note.to_string());
            }
        }
    }

    /// One rank finished cleanly; the entry closes when the last rank
    /// leaves.
    pub fn finish(&self, plan: u64) {
        let now = self.now();
        let mut inner = self.lock();
        if let Some(e) = inner
            .entries
            .iter_mut()
            .rev()
            .find(|e| e.plan == plan && e.outcome == FlightOutcome::InFlight)
        {
            e.active_ranks = e.active_ranks.saturating_sub(1);
            e.ended = now;
            if e.active_ranks == 0 {
                e.outcome = FlightOutcome::Ok;
            }
        }
    }

    /// One rank failed: closes the entry with the error and dumps the
    /// whole ring (an `Err` from any rank fails the collective, so the
    /// first failing rank writes the black box).
    pub fn fail(&self, plan: u64, error: &str) {
        let now = self.now();
        let mut inner = self.lock();
        if let Some(e) = inner.entries.iter_mut().rev().find(|e| e.plan == plan) {
            if e.outcome == FlightOutcome::InFlight || e.outcome == FlightOutcome::Ok {
                e.ended = now;
                e.active_ranks = 0;
                e.outcome = FlightOutcome::Err(error.to_string());
            }
        }
        Self::dump_locked(&mut inner, &format!("plan {plan} failed: {error}"));
    }

    /// Renders and stores a dump without an error entry (watchdog
    /// trigger, operator request).
    pub fn dump_now(&self, reason: &str) -> String {
        let mut inner = self.lock();
        Self::dump_locked(&mut inner, reason);
        inner.last_dump.clone().unwrap_or_default()
    }

    fn dump_locked(inner: &mut Inner, reason: &str) {
        let mut out = format!(
            "=== intercom flight recorder dump ({reason}; {} of last {} executions) ===\n",
            inner.entries.len(),
            inner.capacity
        );
        for e in &inner.entries {
            let outcome = match &e.outcome {
                FlightOutcome::InFlight => "IN-FLIGHT".to_string(),
                FlightOutcome::Ok => "ok".to_string(),
                FlightOutcome::Err(err) => format!("ERROR: {err}"),
            };
            out.push_str(&format!(
                "plan={} op={} p={} n={} strategy={} t=[{:.6}, {:.6}] last_step={} {}\n",
                e.plan,
                e.op,
                e.p,
                e.n,
                e.strategy.as_deref().unwrap_or("-"),
                e.started,
                e.ended,
                e.last_step,
                outcome
            ));
            for f in &e.faults {
                out.push_str(&format!("  fault: {f}\n"));
            }
        }
        if let Ok(path) = std::env::var("INTERCOM_FLIGHT_DUMP") {
            if !path.is_empty() {
                use std::io::Write as _;
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                {
                    let _ = f.write_all(out.as_bytes());
                }
            }
        }
        inner.last_dump = Some(out);
        inner.dumps += 1;
    }

    /// The most recent dump, if any execution has failed (or
    /// [`dump_now`](Self::dump_now) ran).
    pub fn last_dump(&self) -> Option<String> {
        self.lock().last_dump.clone()
    }

    /// How many dumps have been written.
    pub fn dump_count(&self) -> u64 {
        self.lock().dumps
    }

    /// A copy of the current ring, oldest first.
    pub fn entries(&self) -> Vec<FlightEntry> {
        self.lock().entries.iter().cloned().collect()
    }

    /// Clears the ring and the stored dump (tests).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.last_dump = None;
    }
}

/// The process-wide flight recorder behind the module-level helpers.
pub fn global() -> &'static FlightRecorder {
    static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();
    FLIGHT.get_or_init(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY))
}

/// [`FlightRecorder::begin`] on the global recorder when [`enabled`].
#[inline]
pub fn begin(plan: u64, op: &str, p: usize, n: usize, strategy: Option<&str>) {
    if enabled() {
        global().begin(plan, op, p, n, strategy);
    }
}

/// [`FlightRecorder::mark_step`] on the global recorder when [`enabled`].
#[inline]
pub fn mark_step(plan: u64, step: u64) {
    if enabled() {
        global().mark_step(plan, step);
    }
}

/// [`FlightRecorder::note_fault`] on the global recorder when [`enabled`].
#[inline]
pub fn note_fault(plan: u64, note: &str) {
    if enabled() {
        global().note_fault(plan, note);
    }
}

/// [`FlightRecorder::finish`] on the global recorder when [`enabled`].
#[inline]
pub fn finish(plan: u64) {
    if enabled() {
        global().finish(plan);
    }
}

/// [`FlightRecorder::fail`] on the global recorder when [`enabled`].
#[inline]
pub fn fail(plan: u64, error: &str) {
    if enabled() {
        global().fail(plan, error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_refcounted() {
        let fr = FlightRecorder::new(3);
        for plan in 1..=5u64 {
            // 4 ranks join the same execution.
            for _ in 0..4 {
                fr.begin(plan, "broadcast", 4, 1024, Some("[4:mst]"));
            }
            fr.mark_step(plan, 7);
            for _ in 0..4 {
                fr.finish(plan);
            }
        }
        let entries = fr.entries();
        assert_eq!(entries.len(), 3, "capacity bounds the ring");
        assert_eq!(entries[0].plan, 3, "oldest survivors");
        assert!(entries.iter().all(|e| e.outcome == FlightOutcome::Ok));
        assert!(entries.iter().all(|e| e.last_step == 7));
    }

    #[test]
    fn fail_dumps_the_ring() {
        let fr = FlightRecorder::new(8);
        fr.begin(10, "allreduce", 8, 4096, None);
        fr.note_fault(10, "retry attempt=1 peer=3");
        fr.fail(10, "Aborted(DropBudget)");
        let dump = fr.last_dump().expect("dump stored");
        assert!(dump.contains("plan=10"));
        assert!(dump.contains("ERROR: Aborted(DropBudget)"));
        assert!(dump.contains("retry attempt=1 peer=3"));
        assert_eq!(fr.dump_count(), 1);
    }

    #[test]
    fn fault_notes_are_bounded() {
        let fr = FlightRecorder::new(2);
        fr.begin(1, "reduce", 2, 16, None);
        for i in 0..1000 {
            fr.note_fault(1, &format!("retry {i}"));
        }
        assert_eq!(fr.entries()[0].faults.len(), MAX_FAULT_NOTES);
    }

    #[test]
    fn disabled_helpers_are_noops() {
        assert!(!enabled());
        begin(999_999, "broadcast", 2, 2, None);
        assert!(
            !global().entries().iter().any(|e| e.plan == 999_999),
            "disabled begin records nothing"
        );
    }
}
