//! The always-on metrics registry: monotonic counters, gauges and
//! log-bucketed histograms, keyed by name + label set.
//!
//! Production telemetry, as opposed to the per-run [`crate::record`]
//! tracing layer: metrics accumulate across collective calls for the
//! lifetime of the process and are exported on demand as Prometheus
//! text format or strict JSON. The layer is **off by default** — every
//! hook starts with one relaxed atomic load ([`enabled`]), which is
//! what keeps the disabled path inside the CI overhead gate — and
//! flipped on process-wide with [`set_enabled`].
//!
//! Three writer paths exist:
//!
//! - direct global updates ([`counter_add`], [`gauge_set`],
//!   [`gauge_add`], [`observe`]) for call-site instrumentation at plan
//!   granularity (one registry lock per collective, not per message);
//! - per-rank [`Shard`]s, written lock-free by one rank and
//!   [absorbed](Registry::absorb) into the registry after the
//!   collective — the same drain discipline as the trace recorders;
//! - bulk ingest of already-aggregated structures
//!   ([`ingest_counters`], [`ingest_run`]).
//!
//! Histogram buckets are powers of two over `(2⁻⁴⁰, 2²³]` — fine enough
//! to separate a 100 µs broadcast from a 130 µs one, wide enough to
//! cover nanoseconds to days — and every bucket edge prints exactly in
//! shortest-f64 form, which is what makes the Prometheus export →
//! [`parse_prometheus`] → export round trip byte-idempotent (the
//! `intercom-cli metrics --check` CI gate).

use crate::record::{Counters, RunRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

// --------------------------------------------------------------------
// Enable switch
// --------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the metrics layer records anything. One relaxed load — the
/// entire cost of the disabled path at every hook site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the metrics layer on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// --------------------------------------------------------------------
// Histogram
// --------------------------------------------------------------------

/// Smallest bucket exponent: bucket 0 covers `[0, 2^MIN_EXP]`.
const MIN_EXP: i32 = -40;
/// Number of finite buckets; bucket `i` has upper edge `2^(MIN_EXP+i)`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Upper edge of finite bucket `i`.
fn bucket_edge(i: usize) -> f64 {
    f64::from(MIN_EXP + i as i32).exp2()
}

/// A log₂-bucketed histogram of non-negative samples.
///
/// Each sample lands in the unique bucket whose range contains it
/// (`(edge[i-1], edge[i]]`, with bucket 0 closed at zero and an
/// overflow bucket above the last edge), so any quantile estimate read
/// off the bucket edges *bounds* the true sample quantile — the
/// property `obs/tests/metrics_props.rs` checks on adversarial
/// streams. Merging two histograms adds counts elementwise, which is
/// associative and commutative, so per-rank shards fold in any order.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; HISTOGRAM_BUCKETS],
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index for `v` (clamped non-negative; NaN is dropped
    /// by [`observe`](Histogram::observe) before reaching here).
    fn bucket_of(v: f64) -> usize {
        if v <= bucket_edge(0) {
            return 0;
        }
        let mut idx =
            (v.log2().ceil() as i32 - MIN_EXP).clamp(0, HISTOGRAM_BUCKETS as i32 - 1) as usize;
        // log2 rounding can miss by one ulp in either direction; fix up
        // so the invariant edge[idx-1] < v <= edge[idx] really holds.
        while idx + 1 < HISTOGRAM_BUCKETS && v > bucket_edge(idx) {
            idx += 1;
        }
        while idx > 0 && v <= bucket_edge(idx - 1) {
            idx -= 1;
        }
        idx
    }

    /// Records one sample. Negative values clamp to 0; NaN is ignored.
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let v = v.max(0.0);
        if v > bucket_edge(HISTOGRAM_BUCKETS - 1) {
            self.overflow += 1;
        } else {
            self.counts[Self::bucket_of(v)] += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// `[lower, upper]` bounds on the `q`-quantile (`0 < q <= 1`) of
    /// the recorded samples, or `None` when empty. The true quantile is
    /// guaranteed to lie within the returned interval: the bounds are
    /// the edges of the bucket holding the quantile's rank, tightened
    /// by the exact running min/max.
    pub fn quantile_bounds(&self, q: f64) -> Option<(f64, f64)> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = if i == 0 { 0.0 } else { bucket_edge(i - 1) };
                return Some((lo.max(self.min), bucket_edge(i).min(self.max)));
            }
        }
        // The rank lands in the overflow bucket.
        Some((bucket_edge(HISTOGRAM_BUCKETS - 1).max(self.min), self.max))
    }

    /// Conservative point estimate of the `q`-quantile: the upper bound
    /// of [`quantile_bounds`](Histogram::quantile_bounds).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantile_bounds(q).map(|(_, hi)| hi)
    }

    /// Adds `other`'s samples into `self` (elementwise bucket sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `(upper_edge, cumulative_count)` pairs for every non-empty
    /// bucket, plus the overflow count — the Prometheus exposition
    /// shape.
    fn cumulative(&self) -> (Vec<(f64, u64)>, u64) {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_edge(i), cum));
            }
        }
        (out, cum + self.overflow)
    }
}

// --------------------------------------------------------------------
// Keys, values, shards, registry
// --------------------------------------------------------------------

/// A metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: `snake_case`, unit suffix).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    fn label_block(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", crate::chrome::escape_json(v));
        }
        out.push('}');
        out
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter.
    Counter(u64),
    /// A point-in-time (or accumulated-float) value.
    Gauge(f64),
    /// A log-bucketed sample distribution.
    Histogram(Histogram),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    /// Merges `other` into `self`: counters add, gauges take the newer
    /// value, histograms fold buckets. Mismatched kinds keep `self`.
    fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            _ => {}
        }
    }
}

/// A lock-free per-rank metrics shard: the same map as the registry,
/// written by one rank, merged in after the collective. Shard merge is
/// associative (counters and histogram buckets add), so any fold order
/// over ranks yields the same registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Shard {
    metrics: BTreeMap<MetricKey, MetricValue>,
}

impl Shard {
    /// An empty shard.
    pub fn new() -> Self {
        Shard::default()
    }

    /// Adds `v` to the counter `name{labels}`.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.counter_add_at(&MetricKey::new(name, labels), v);
    }

    /// [`Shard::counter_add`] at a key built once: allocates only to
    /// insert a series the shard does not have yet.
    pub fn counter_add_at(&mut self, key: &MetricKey, v: u64) {
        match self.metrics.get_mut(key) {
            Some(MetricValue::Counter(c)) => *c += v,
            Some(_) => {}
            None => {
                self.metrics.insert(key.clone(), MetricValue::Counter(v));
            }
        }
    }

    /// Sets the gauge `name{labels}`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.metrics
            .insert(MetricKey::new(name, labels), MetricValue::Gauge(v));
    }

    /// Records a histogram sample into `name{labels}`.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.observe_at(&MetricKey::new(name, labels), v);
    }

    /// [`Shard::observe`] at a key built once: allocates only to insert
    /// a series the shard does not have yet.
    pub fn observe_at(&mut self, key: &MetricKey, v: f64) {
        match self.metrics.get_mut(key) {
            Some(MetricValue::Histogram(h)) => h.observe(v),
            Some(_) => {}
            None => {
                let mut h = Histogram::new();
                h.observe(v);
                self.metrics.insert(key.clone(), MetricValue::Histogram(h));
            }
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Shard) {
        for (k, v) in &other.metrics {
            match self.metrics.get_mut(k) {
                Some(mine) => mine.merge(v),
                None => {
                    self.metrics.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// The shard's contents as a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            metrics: self.metrics.clone(),
        }
    }
}

/// The process-wide metrics store: a locked name→value map. All hot
/// paths check [`enabled`] before touching it, so a disabled registry
/// costs one branch per hook.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Shard>,
}

impl Registry {
    /// An empty registry (tests; production uses [`global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Shard> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Adds `v` to a counter.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.lock().counter_add(name, labels, v);
    }

    /// Adds `v` to the counter at a key built once.
    pub fn counter_add_at(&self, key: &MetricKey, v: u64) {
        self.lock().counter_add_at(key, v);
    }

    /// Records a histogram sample at a key built once.
    pub fn observe_at(&self, key: &MetricKey, v: f64) {
        self.lock().observe_at(key, v);
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.lock().gauge_set(name, labels, v);
    }

    /// Adds `v` to a gauge (accumulated-float totals, e.g. seconds).
    pub fn gauge_add(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let mut shard = self.lock();
        let key = MetricKey::new(name, labels);
        match shard.metrics.get_mut(&key) {
            Some(MetricValue::Gauge(g)) => *g += v,
            Some(_) => {}
            None => {
                shard.metrics.insert(key, MetricValue::Gauge(v));
            }
        }
    }

    /// Records a histogram sample.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.lock().observe(name, labels, v);
    }

    /// Merges a drained per-rank shard into the registry.
    pub fn absorb(&self, shard: &Shard) {
        self.lock().merge(shard);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        self.lock().snapshot()
    }

    /// Drops every metric (tests and the `--watch` reset).
    pub fn clear(&self) {
        self.lock().metrics.clear();
    }
}

/// The process-wide registry behind the module-level helpers.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Adds to a global counter when the layer is [`enabled`].
#[inline]
pub fn counter_add(name: &str, labels: &[(&str, &str)], v: u64) {
    if enabled() {
        global().counter_add(name, labels, v);
    }
}

/// [`counter_add`] at a key built once — by a caller that adds to one
/// series per call and formats its labels once, not per call — when
/// the layer is [`enabled`].
#[inline]
pub fn counter_add_at(key: &MetricKey, v: u64) {
    if enabled() {
        global().counter_add_at(key, v);
    }
}

/// [`observe`] at a key built once, when the layer is [`enabled`].
#[inline]
pub fn observe_at(key: &MetricKey, v: f64) {
    if enabled() {
        global().observe_at(key, v);
    }
}

/// Sets a global gauge when the layer is [`enabled`].
#[inline]
pub fn gauge_set(name: &str, labels: &[(&str, &str)], v: f64) {
    if enabled() {
        global().gauge_set(name, labels, v);
    }
}

/// Adds to a global gauge when the layer is [`enabled`].
#[inline]
pub fn gauge_add(name: &str, labels: &[(&str, &str)], v: f64) {
    if enabled() {
        global().gauge_add(name, labels, v);
    }
}

/// Records a global histogram sample when the layer is [`enabled`].
#[inline]
pub fn observe(name: &str, labels: &[(&str, &str)], v: f64) {
    if enabled() {
        global().observe(name, labels, v);
    }
}

// --------------------------------------------------------------------
// Bulk ingest from the tracing layer
// --------------------------------------------------------------------

/// Folds one rank's drained [`Counters`] into the global registry
/// (no-op when disabled). Called by the backends at world teardown.
pub fn ingest_counters(backend: &str, c: &Counters) {
    if !enabled() {
        return;
    }
    let reg = global();
    let l = &[("backend", backend)][..];
    reg.counter_add("intercom_msgs_sent_total", l, c.msgs_sent);
    reg.counter_add("intercom_msgs_recvd_total", l, c.msgs_recvd);
    reg.counter_add("intercom_bytes_out_total", l, c.bytes_out);
    reg.counter_add("intercom_bytes_in_total", l, c.bytes_in);
    reg.counter_add("intercom_eager_msgs_total", l, c.eager_msgs);
    reg.counter_add("intercom_rendezvous_msgs_total", l, c.rendezvous_msgs);
    reg.counter_add("intercom_reduce_steps_total", l, c.reduce_steps);
    reg.counter_add("intercom_pool_hits_total", l, c.pool_hits);
    reg.counter_add("intercom_pool_misses_total", l, c.pool_misses);
    reg.counter_add("intercom_windows_in_place_total", l, c.windows_in_place);
    reg.counter_add(
        "intercom_sender_copied_chunks_total",
        l,
        c.sender_copied_chunks,
    );
    for (kind, n) in [("polled", c.polled_waits), ("parked", c.parked_waits)] {
        let l = &[("backend", backend), ("kind", kind)][..];
        reg.counter_add("intercom_waits_total", l, n);
    }
    // Fault-path events (intercom_fault_*_total) are deliberately NOT
    // re-exported here: the fault layer counts them firsthand as they
    // happen, and folding the trace-derived copies in again would
    // double-count recovered runs.
    reg.gauge_add("intercom_wait_seconds_total", l, c.wait_secs);
    reg.gauge_add("intercom_transfer_seconds_total", l, c.transfer_secs);
}

/// Folds a whole recorded run's counter totals and ring losses into
/// the global registry (no-op when disabled).
pub fn ingest_run(backend: &str, run: &RunRecord) {
    if !enabled() {
        return;
    }
    ingest_counters(backend, &run.totals());
    let lost: u64 = run.dropped.iter().sum();
    if lost > 0 {
        global().counter_add(
            "intercom_trace_dropped_events_total",
            &[("backend", backend)],
            lost,
        );
    }
}

// --------------------------------------------------------------------
// Snapshot, exposition and parsing
// --------------------------------------------------------------------

/// A point-in-time copy of a registry, the unit the exporters and the
/// `--watch` differ operate on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every metric, keyed by name + labels.
    pub metrics: BTreeMap<MetricKey, MetricValue>,
}

/// Shortest-round-trip decimal form of a float (Rust's `{}` for `f64`
/// re-parses to the identical bits, which the idempotence gate needs).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        "+Inf".into()
    } else if v < 0.0 {
        "-Inf".into()
    } else {
        "NaN".into()
    }
}

impl Snapshot {
    /// Counter value, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Histogram, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sum of every counter series named `name`, over all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// The counter-wise difference `self − prev` (merge-consistent with
    /// the plan cache's `delta` helper): counters subtract saturating,
    /// gauges and histograms keep `self`'s value. The `--watch` view
    /// prints rates from this.
    pub fn delta(&self, prev: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (k, v) in &mut out.metrics {
            if let (MetricValue::Counter(c), Some(MetricValue::Counter(p))) =
                (&mut *v, prev.metrics.get(k))
            {
                *c = c.saturating_sub(*p);
            }
        }
        out
    }

    /// Renders the snapshot in Prometheus text exposition format.
    /// Deterministic: metrics sort by name then labels, `# TYPE`
    /// comments announce each metric family once.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (key, value) in &self.metrics {
            if key.name != last_family {
                let _ = writeln!(out, "# TYPE {} {}", key.name, value.type_name());
            }
            last_family = &key.name;
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{}{} {c}", key.name, key.label_block());
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", key.name, key.label_block(), fmt_f64(*g));
                }
                MetricValue::Histogram(h) => {
                    let (buckets, total) = h.cumulative();
                    for (le, cum) in &buckets {
                        let mut labels: Vec<(&str, &str)> = key
                            .labels
                            .iter()
                            .map(|(k, v)| (k.as_str(), v.as_str()))
                            .collect();
                        let le = fmt_f64(*le);
                        labels.push(("le", &le));
                        let bkey = MetricKey::new(&format!("{}_bucket", key.name), &labels);
                        let _ = writeln!(out, "{}{} {cum}", bkey.name, bkey.label_block());
                    }
                    let inf = MetricKey::new(
                        &format!("{}_bucket", key.name),
                        &key.labels
                            .iter()
                            .map(|(k, v)| (k.as_str(), v.as_str()))
                            .chain([("le", "+Inf")])
                            .collect::<Vec<_>>(),
                    );
                    let _ = writeln!(out, "{}{} {total}", inf.name, inf.label_block());
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        key.name,
                        key.label_block(),
                        fmt_f64(h.sum())
                    );
                    let _ = writeln!(out, "{}_count{} {total}", key.name, key.label_block());
                }
            }
        }
        out
    }

    /// Renders the snapshot as a strict JSON document (round-trips
    /// through [`crate::json::parse`]).
    pub fn to_json(&self) -> String {
        use crate::chrome::escape_json;
        let mut out = String::from("{\n  \"metrics\": [\n");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "    {{\"name\":\"{}\",\"type\":\"{}\",\"labels\":{{",
                escape_json(&key.name),
                value.type_name()
            );
            for (j, (k, v)) in key.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
            }
            out.push_str("},");
            match value {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "\"value\":{c}}}");
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(
                        out,
                        "\"value\":{}}}",
                        if g.is_finite() {
                            fmt_f64(*g)
                        } else {
                            "null".into()
                        }
                    );
                }
                MetricValue::Histogram(h) => {
                    let (buckets, total) = h.cumulative();
                    let _ = write!(out, "\"count\":{total},\"sum\":{},\"buckets\":[", h.sum());
                    for (j, (le, cum)) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{{\"le\":{},\"cum\":{cum}}}", fmt_f64(*le));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Parses a Prometheus text document produced by
/// [`Snapshot::prometheus`] back into a [`Snapshot`]. Supports the
/// subset this module emits (counter / gauge / histogram families with
/// `# TYPE` comments); re-exporting the parsed snapshot reproduces the
/// input byte for byte, which `intercom-cli metrics --check` gates.
pub fn parse_prometheus(text: &str) -> Result<Snapshot, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut snap = Snapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        let fail = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| fail("missing name"))?;
            let kind = it.next().ok_or_else(|| fail("missing type"))?;
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| fail("missing sample value"))?;
        let (name, labels) = parse_series(series).map_err(|e| fail(&e))?;
        // Resolve the family: histogram samples carry suffixes.
        let (family, role) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf)
                    .filter(|fam| types.get(*fam).map(String::as_str) == Some("histogram"))
                    .map(|fam| (fam.to_string(), *suf))
            })
            .unwrap_or((name.clone(), ""));
        match types.get(&family).map(String::as_str) {
            Some("counter") => {
                let v: u64 = value.parse().map_err(|_| fail("bad counter value"))?;
                snap.metrics.insert(
                    MetricKey {
                        name: family,
                        labels,
                    },
                    MetricValue::Counter(v),
                );
            }
            Some("gauge") => {
                let v: f64 = value.parse().map_err(|_| fail("bad gauge value"))?;
                snap.metrics.insert(
                    MetricKey {
                        name: family,
                        labels,
                    },
                    MetricValue::Gauge(v),
                );
            }
            Some("histogram") => {
                let mut labels = labels;
                let le = match role {
                    "_bucket" => {
                        let pos = labels
                            .iter()
                            .position(|(k, _)| k == "le")
                            .ok_or_else(|| fail("bucket without le label"))?;
                        Some(labels.remove(pos).1)
                    }
                    _ => None,
                };
                let key = MetricKey {
                    name: family,
                    labels,
                };
                let entry = match snap
                    .metrics
                    .entry(key)
                    .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
                {
                    MetricValue::Histogram(h) => h,
                    _ => return Err(fail("histogram sample collides with a scalar")),
                };
                match role {
                    "_bucket" => {
                        let le = le.unwrap();
                        if le == "+Inf" {
                            // Redundant with _count; overflow is set there.
                            continue;
                        }
                        let edge: f64 = le.parse().map_err(|_| fail("bad le"))?;
                        let cum: u64 = value.parse().map_err(|_| fail("bad bucket count"))?;
                        let idx = Histogram::bucket_of(edge);
                        let below: u64 = entry.counts[..idx].iter().sum();
                        entry.counts[idx] = cum.saturating_sub(below);
                    }
                    "_sum" => {
                        entry.sum = value.parse().map_err(|_| fail("bad sum"))?;
                        // min/max are not part of the exposition; widen
                        // them so re-derived quantile bounds stay valid.
                        entry.min = 0.0;
                        entry.max = f64::INFINITY;
                    }
                    "_count" => {
                        let total: u64 = value.parse().map_err(|_| fail("bad count"))?;
                        let in_buckets: u64 = entry.counts.iter().sum();
                        entry.count = total;
                        entry.overflow = total.saturating_sub(in_buckets);
                    }
                    _ => unreachable!("role is one of the three suffixes"),
                }
            }
            _ => return Err(fail("sample before its # TYPE declaration")),
        }
    }
    Ok(snap)
}

/// Splits `name{l1="v1",l2="v2"}` into name and sorted label pairs.
fn parse_series(series: &str) -> Result<(String, Vec<(String, String)>), String> {
    let Some(open) = series.find('{') else {
        return Ok((series.trim().to_string(), Vec::new()));
    };
    if !series.ends_with('}') {
        return Err("unterminated label block".into());
    }
    let name = series[..open].trim().to_string();
    let body = &series[open + 1..series.len() - 1];
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find("=\"").ok_or("label without =\"")?;
        let key = rest[..eq].trim_start_matches(',').trim().to_string();
        let mut val = String::new();
        let bytes = &rest.as_bytes()[eq + 2..];
        let mut i = 0;
        let mut escaped = false;
        loop {
            if i >= bytes.len() {
                return Err("unterminated label value".into());
            }
            let c = bytes[i] as char;
            if escaped {
                val.push(match c {
                    'n' => '\n',
                    't' => '\t',
                    c => c,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                break;
            } else {
                val.push(c);
            }
            i += 1;
        }
        labels.push((key, val));
        rest = &rest[eq + 2 + i + 1..];
    }
    labels.sort();
    Ok((name, labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_bound_samples() {
        let mut h = Histogram::new();
        for v in [0.0, 1e-12, 3.5e-5, 0.25, 1.0, 7.0, 1e9] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        // Every recorded sample lies within its quantile bounds.
        let (lo, hi) = h.quantile_bounds(0.5).unwrap();
        assert!(lo <= 0.25 && 0.25 <= hi, "median bounds [{lo}, {hi}]");
        let (_, hi) = h.quantile_bounds(1.0).unwrap();
        assert_eq!(hi, 1e9, "max tightens the overflow bucket");
    }

    #[test]
    fn histogram_bucket_of_respects_edges() {
        for i in 0..HISTOGRAM_BUCKETS {
            let edge = bucket_edge(i);
            assert_eq!(Histogram::bucket_of(edge), i, "edge {edge} is inclusive");
            if i + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(
                    Histogram::bucket_of(edge * 1.0000000001),
                    i + 1,
                    "just above {edge}"
                );
            }
        }
    }

    #[test]
    fn shard_merge_is_associative() {
        let mk = |seed: u64| {
            let mut s = Shard::new();
            s.counter_add("c", &[("r", &seed.to_string())], seed);
            s.counter_add("c", &[], seed * 3);
            s.observe("h", &[], seed as f64 * 0.5);
            s
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn registry_roundtrip_prometheus_idempotent() {
        let reg = Registry::new();
        reg.counter_add("intercom_test_total", &[("op", "broadcast"), ("p", "8")], 5);
        reg.gauge_set("intercom_test_ratio", &[], 0.325);
        reg.observe("intercom_test_seconds", &[("op", "reduce")], 1.25e-4);
        reg.observe("intercom_test_seconds", &[("op", "reduce")], 3.0);
        let snap = reg.snapshot();
        let text = snap.prometheus();
        let parsed = parse_prometheus(&text).expect("parses");
        assert_eq!(parsed.prometheus(), text, "export is idempotent");
        assert_eq!(
            parsed.counter("intercom_test_total", &[("op", "broadcast"), ("p", "8")]),
            Some(5)
        );
        let h = parsed
            .histogram("intercom_test_seconds", &[("op", "reduce")])
            .unwrap();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn snapshot_delta_subtracts_counters() {
        let reg = Registry::new();
        reg.counter_add("c", &[], 10);
        let prev = reg.snapshot();
        reg.counter_add("c", &[], 7);
        let d = reg.snapshot().delta(&prev);
        assert_eq!(d.counter("c", &[]), Some(7));
    }

    #[test]
    fn disabled_global_helpers_are_noops() {
        assert!(!enabled());
        counter_add("intercom_never_total", &[], 1);
        assert_eq!(
            global().snapshot().counter("intercom_never_total", &[]),
            None
        );
    }

    #[test]
    fn json_export_is_strict_json() {
        let reg = Registry::new();
        reg.counter_add("a_total", &[("k", "v\"q")], 1);
        reg.observe("b_seconds", &[], 0.5);
        let doc = reg.snapshot().to_json();
        let v = crate::json::parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("metrics")
                .and_then(crate::json::Value::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }
}
