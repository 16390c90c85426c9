//! `intercom-metrics` — run a representative collective workload with
//! the production telemetry enabled and export the metrics registry.
//!
//! ```text
//! Usage: intercom-metrics [OPTIONS]
//!   --op <name|all>       broadcast | reduce | allreduce | reduce_scatter |
//!                         collect | scatter | gather | all   (default: all)
//!   --p <N>               world size (default: 8)
//!   --n <BYTES>           vector / block size (default: 4096)
//!   --strategy <SPEC>     mst | sc | d1xd2x...:mst|sc (default: mst)
//!   --backend <B>         threads | sim | both (default: both)
//!   --root <R>            root rank for rooted collectives (default: 0)
//!   --json                emit the strict-JSON exposition instead of
//!                         Prometheus text
//!   --out <FILE>          write the exposition to FILE instead of stdout
//!   --watch <ITERS>       re-run the workload ITERS times, printing a
//!                         per-iteration counter delta instead of one
//!                         final snapshot
//!   --check               round-trip gate: the Prometheus export must
//!                         re-parse and re-export byte-identically, the
//!                         JSON export must parse, and the flight
//!                         recorder must hold the planned executions
//! ```
//!
//! The metrics registry is process-local (there is no wire scrape
//! endpoint in a library reproduction), so this binary *generates* the
//! telemetry it exports: it flips the global enable switches, runs every
//! requested collective on the requested backends — including a
//! plan-compiled broadcast + allreduce so the plan-latency histograms
//! and the plan-cache gauges populate — and renders the registry.
//! `--check` is the CI idempotence gate over exactly that full registry.

use intercom_suite::cost::{MachineParams, Strategy, StrategyKind};
use intercom_suite::driver::{record_sim, record_threads};
use intercom_suite::intercom::ir::PlanOp;
use intercom_suite::intercom::plan::{AllreducePlan, BcastPlan};
use intercom_suite::intercom::{autotune, ir::global_cache, Comm, Communicator, ReduceOp};
use intercom_suite::obs::metrics::Snapshot;
use intercom_suite::obs::{flight, json, metrics};
use intercom_suite::runtime::run_world;
use intercom_suite::topology::Mesh2D;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    op: String,
    p: usize,
    n: usize,
    strategy: String,
    backend: String,
    root: usize,
    json: bool,
    out: Option<PathBuf>,
    watch: usize,
    check: bool,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut o = Options {
            op: "all".into(),
            p: 8,
            n: 4096,
            strategy: "mst".into(),
            backend: "both".into(),
            root: 0,
            json: false,
            out: None,
            watch: 0,
            check: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut need = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
            match a.as_str() {
                "--op" => o.op = need("--op")?,
                "--p" => o.p = need("--p")?.parse().map_err(|e| format!("--p: {e}"))?,
                "--n" => o.n = need("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
                "--strategy" => o.strategy = need("--strategy")?,
                "--backend" => o.backend = need("--backend")?,
                "--root" => {
                    o.root = need("--root")?
                        .parse()
                        .map_err(|e| format!("--root: {e}"))?
                }
                "--json" => o.json = true,
                "--out" => o.out = Some(PathBuf::from(need("--out")?)),
                "--watch" => {
                    o.watch = need("--watch")?
                        .parse()
                        .map_err(|e| format!("--watch: {e}"))?
                }
                "--check" => o.check = true,
                "--help" | "-h" => {
                    return Err("see the module docs: cargo doc --bin intercom-metrics".into())
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(o)
    }
}

fn parse_strategy(spec: &str, p: usize) -> Result<Strategy, String> {
    match spec {
        "mst" => Ok(Strategy::pure_mst(p)),
        "sc" | "long" => Ok(Strategy::pure_long(p)),
        _ => {
            let (dims, kind) = spec
                .split_once(':')
                .ok_or_else(|| format!("strategy {spec}: want mst, sc or d1xd2x...:mst|sc"))?;
            let dims: Vec<usize> = dims
                .split(['x', 'X'])
                .map(|d| d.parse().map_err(|e| format!("strategy dim: {e}")))
                .collect::<Result<_, _>>()?;
            let kind = match kind {
                "mst" => StrategyKind::Mst,
                "sc" | "long" => StrategyKind::ScatterCollect,
                k => return Err(format!("strategy kind {k}: want mst or sc")),
            };
            let s = Strategy::new(dims, kind);
            if s.nodes() != p {
                return Err(format!(
                    "strategy {s} covers {} nodes, world has {p}",
                    s.nodes()
                ));
            }
            Ok(s)
        }
    }
}

fn make_op(name: &str, root: usize) -> Result<PlanOp, String> {
    Ok(match name {
        "broadcast" => PlanOp::Broadcast { root },
        "reduce" => PlanOp::Reduce { root },
        "allreduce" => PlanOp::AllReduce,
        "reduce_scatter" => PlanOp::ReduceScatter,
        "collect" => PlanOp::Collect,
        "scatter" => PlanOp::Scatter { root },
        "gather" => PlanOp::Gather { root },
        other => return Err(format!("unknown collective {other}")),
    })
}

const ALL_OPS: [&str; 7] = [
    "broadcast",
    "reduce",
    "allreduce",
    "reduce_scatter",
    "collect",
    "scatter",
    "gather",
];

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
fn workload(ops: &[PlanOp], backends: &[&str], strategy: &Strategy, o: &Options, mesh: Mesh2D) {
    for op in ops {
        for backend in backends {
            match *backend {
                "threads" => {
                    record_threads(op, Some(strategy), o.p, o.n, 1 << 16);
                }
                "sim" => {
                    record_sim(op, Some(strategy), mesh, o.n, MachineParams::PARAGON_MODEL);
                }
                _ => unreachable!("backends validated in run()"),
            }
        }
    }
    if backends.contains(&"threads") {
        plan_phase(o.p, o.n);
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
        let dump = flight::global().dump_now("intercom-metrics --check");
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

fn run() -> Result<(), String> {
    let o = Options::parse()?;
    let strategy = parse_strategy(&o.strategy, o.p)?;
    let ops: Vec<PlanOp> = if o.op == "all" {
        ALL_OPS
            .iter()
            .map(|name| make_op(name, o.root))
            .collect::<Result<_, _>>()?
    } else {
        vec![make_op(&o.op, o.root)?]
    };
    let backends: Vec<&str> = match o.backend.as_str() {
        "both" => vec!["threads", "sim"],
        "threads" => vec!["threads"],
        "sim" => vec!["sim"],
        other => return Err(format!("unknown backend {other}")),
    };
    let mesh = Mesh2D::new(1, o.p);

    // This process *is* the instrumented application: turn the
    // telemetry on before generating any.
    metrics::set_enabled(true);
    flight::set_enabled(true);

    if o.watch > 0 {
        let mut prev = metrics::global().snapshot();
        for iter in 1..=o.watch {
            workload(&ops, &backends, &strategy, &o, mesh);
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

    workload(&ops, &backends, &strategy, &o, mesh);
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
                "intercom-metrics: {} series ({} bytes) written to {path:?}",
                snap.metrics.len(),
                doc.len()
            );
        }
        None => print!("{doc}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("intercom-metrics: {e}");
            ExitCode::FAILURE
        }
    }
}
