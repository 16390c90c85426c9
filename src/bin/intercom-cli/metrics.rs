//! `intercom-cli metrics` — run a representative collective workload
//! with the production telemetry enabled and export the metrics
//! registry (Prometheus text, or `--json`; to stdout, or `--out`).
//!
//! The metrics registry is process-local (there is no wire scrape
//! endpoint in a library reproduction), so this subcommand *generates*
//! the telemetry it exports: it flips the global enable switches, runs
//! every requested collective on the requested backends — including a
//! plan-compiled broadcast + allreduce so the plan-latency histograms
//! and the plan-cache gauges populate — and renders the registry.
//! `--watch <ITERS>` re-runs the workload and prints per-iteration
//! counter deltas instead; `--check` is the CI idempotence gate over
//! exactly that full registry: the Prometheus export must re-parse and
//! re-export byte-identically, the JSON export must parse, and the
//! flight recorder must hold the planned executions.

use crate::args::{parse_strategy, Options};
use intercom::ir::PlanOp;
use intercom::plan::{AllreducePlan, BcastPlan};
use intercom::{autotune, ir::global_cache, Comm, Communicator, ReduceOp};
use intercom_cost::{MachineParams, Strategy};
use intercom_obs::metrics::Snapshot;
use intercom_obs::{flight, json, metrics};
use intercom_runtime::run_world;
use intercom_suite::driver::{record_sim, record_threads};
use intercom_topology::Mesh2D;

/// Runs the plan-compiled leg of the workload: a persistent broadcast
/// and allreduce on the threaded runtime, so `intercom_plan_exec_seconds`
/// observes real executions and the plan cache has traffic to report.
fn plan_phase(p: usize, n_bytes: usize) {
    let len = (n_bytes / std::mem::size_of::<f64>()).max(1);
    run_world(p, |c| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let bcast = BcastPlan::<f64>::new(&cc, 0, len);
        let mut v = vec![0.0f64; len];
        if c.rank() == 0 {
            for (i, x) in v.iter_mut().enumerate() {
                *x = i as f64;
            }
        }
        bcast.execute(&cc, &mut v).expect("planned broadcast");
        let allreduce = AllreducePlan::<f64>::new(&cc, len, ReduceOp::Sum);
        allreduce.execute(&cc, &mut v).expect("planned allreduce");
    });
    autotune::publish_cache_stats(global_cache());
}

/// Runs one full pass of the workload matrix: every requested op on
/// every requested backend (the recorded drains feed the registry via
/// `ingest_run`), then the plan phase.
fn workload(ops: &[PlanOp], backends: &[&str], strategy: &Strategy, p: usize, n: usize) {
    let mesh = Mesh2D::new(1, p);
    for op in ops {
        for &backend in backends {
            if backend == "threads" {
                record_threads(op, Some(strategy), p, n, 1 << 16);
            } else {
                record_sim(op, Some(strategy), mesh, n, MachineParams::PARAGON_MODEL);
            }
        }
    }
    if backends.contains(&"threads") {
        plan_phase(p, n);
    }
}

/// Total observation count across every histogram series named `name`
/// (the `--watch` view's "plan execs this iteration" source; counter
/// deltas come from [`Snapshot::delta`] directly).
fn histogram_count_total(snap: &Snapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|(k, _)| k.name == name)
        .filter_map(|(_, v)| match v {
            metrics::MetricValue::Histogram(h) => Some(h.count()),
            _ => None,
        })
        .sum()
}

/// The `--check` gate: export → parse → re-export must be
/// byte-identical, the JSON exposition must be valid JSON, and the
/// flight recorder must have seen the planned executions.
fn check(snap: &Snapshot, planned: bool) -> Result<(), String> {
    let text = snap.prometheus();
    let parsed = metrics::parse_prometheus(&text)
        .map_err(|e| format!("exported Prometheus text does not re-parse: {e}"))?;
    let round = parsed.prometheus();
    if round != text {
        // Show the first diverging line; the full documents are too big
        // for a useful error.
        let diff = text
            .lines()
            .zip(round.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("first diff:\n  exported: {a}\n  re-export: {b}"))
            .unwrap_or_else(|| format!("lengths differ: {} vs {} bytes", text.len(), round.len()));
        return Err(format!("Prometheus round-trip is not idempotent; {diff}"));
    }
    json::parse(&snap.to_json()).map_err(|e| format!("JSON exposition is not valid JSON: {e}"))?;
    if planned {
        if flight::global().entries().is_empty() {
            return Err("flight recorder saw no plan executions".into());
        }
        let dump = flight::global().dump_now("intercom-cli metrics --check");
        if !dump.contains("flight recorder dump") {
            return Err("flight recorder dump is malformed".into());
        }
    }
    println!(
        "check: {} series round-trip byte-identically, JSON parses, flight ring holds {} entries — OK",
        snap.metrics.len(),
        flight::global().entries().len()
    );
    Ok(())
}

pub fn run(o: &Options) -> Result<(), String> {
    let p = o.p.unwrap_or(8);
    let strategy = parse_strategy(&o.strategy, p)?;
    let ops = o.ops(p)?;
    let backends = o.backends()?;

    // This process *is* the instrumented application: turn the
    // telemetry on before generating any.
    metrics::set_enabled(true);
    flight::set_enabled(true);

    if o.watch > 0 {
        let mut prev = metrics::global().snapshot();
        for iter in 1..=o.watch {
            workload(&ops, &backends, &strategy, p, o.n);
            let snap = metrics::global().snapshot();
            let d = snap.delta(&prev);
            let execs = histogram_count_total(&snap, "intercom_plan_exec_seconds")
                - histogram_count_total(&prev, "intercom_plan_exec_seconds");
            let hit_rate = snap
                .gauge("intercom_plancache_hit_rate", &[])
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "-".into());
            println!(
                "iter {iter}: +{} msgs, +{} B out, +{} plan execs, +{} plan steps, plancache hit rate {}",
                d.counter_total("intercom_msgs_sent_total"),
                d.counter_total("intercom_bytes_out_total"),
                execs,
                d.counter_total("intercom_plan_steps_total"),
                hit_rate,
            );
            prev = snap;
        }
        return Ok(());
    }

    workload(&ops, &backends, &strategy, p, o.n);
    let snap = metrics::global().snapshot();
    if o.check {
        return check(&snap, backends.contains(&"threads"));
    }
    let doc = if o.json {
        snap.to_json()
    } else {
        snap.prometheus()
    };
    match &o.out {
        Some(path) => {
            std::fs::write(path, &doc).map_err(|e| format!("write {path:?}: {e}"))?;
            println!(
                "metrics: {} series ({} bytes) written to {path:?}",
                snap.metrics.len(),
                doc.len()
            );
        }
        None => print!("{doc}"),
    }
    Ok(())
}
