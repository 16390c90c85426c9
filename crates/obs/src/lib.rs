//! # intercom-obs
//!
//! The unified tracing & metrics layer shared by the threaded runtime
//! (`intercom-runtime`) and the mesh simulator (`intercom-meshsim`).
//!
//! The paper's argument rests on closed-form `α + nβ [+ nγ]` cost
//! predictions per collective (§3–§6); this crate provides the
//! measurement side of that argument:
//!
//! - one [`TraceEvent`] schema for both backends (wall-clock or virtual
//!   timestamps, per-rank timelines, tags that encode the recursion
//!   stage);
//! - per-rank fixed-capacity [`RingBuffer`]s behind a [`Recorder`]
//!   handle — no locks, no allocation on the hot path, one writer per
//!   rank, drained after the collective; a disabled recorder costs one
//!   branch (the CI gate holds instrumentation overhead under 3%);
//! - per-rank [`Counters`] (bytes in/out, message counts, pool
//!   hit/miss, eager vs rendezvous, wait vs transfer time);
//! - two exporters: Chrome-trace/Perfetto JSON ([`chrome_trace`]) for
//!   timeline inspection, and the [`residual`] analyzer, which folds a
//!   recorded run against `intercom-cost`'s per-stage predictions to
//!   report measured-vs-predicted α/β residuals, per-stage skew and
//!   the slowest-rank critical path;
//! - the [`Trace`] timeline view (step diagrams and summaries) that
//!   previously lived inside the simulator;
//! - the always-on production telemetry layer: the [`metrics`]
//!   registry (counters / gauges / log-bucketed histograms, Prometheus
//!   and JSON exposition), the [`flight`] recorder (black box of the
//!   last K plan executions, dumped on failure), and the [`drift`]
//!   monitor (online α̂/β̂ estimate over streaming residual reports,
//!   raising a [`DriftVerdict`] when reality departs from the
//!   configured `MachineParams` — the sensing half of the closed
//!   autotuning loop).
//!
//! See `docs/OBSERVABILITY.md` for the schema reference and a guided
//! tour of the residual report.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod drift;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod record;
pub mod residual;
pub mod timeline;

pub use chrome::{chrome_trace, escape_json};
pub use drift::{DriftConfig, DriftMonitor, DriftParam, DriftVerdict};
pub use event::{stage_of, EventKind, Stage, TraceEvent, CALL_TAG_STRIDE, LEVEL_TAG_STRIDE};
pub use flight::{FlightEntry, FlightOutcome, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{Histogram, MetricKey, MetricValue, Registry, Shard, Snapshot};
pub use record::{
    disabled_recorders, recorders, Counters, RankRecord, Recorder, RingBuffer, RunRecord,
    DEFAULT_RING_CAPACITY,
};
pub use residual::{analyze, RankPath, ResidualReport, StageOverlap, StageResidual};
pub use timeline::Trace;
