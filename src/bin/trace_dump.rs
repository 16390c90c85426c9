//! `trace-dump` — record any collective on either backend and dump the
//! timeline plus the cost-model residual report.
//!
//! ```text
//! Usage: trace-dump [OPTIONS]
//!   --op <name|all>       broadcast | reduce | allreduce | reduce_scatter |
//!                         collect | scatter | gather | all   (default: all)
//!   --p <N>               world size (default: 12)
//!   --n <BYTES>           vector / block size (default: 4096)
//!   --strategy <SPEC>     mst | sc | d1xd2x...:mst|sc (default: mst)
//!   --backend <B>         threads | sim | both (default: both)
//!   --root <R>            root rank for rooted collectives (default: 0)
//!   --mesh <RxC>          simulated mesh shape (default: 1xP)
//!   --out <DIR>           output directory (default: target/traces)
//!   --check               re-parse every emitted JSON document and verify
//!                         the known (9, SC) 3x3 cross-stage skew case
//! ```
//!
//! Per run it writes `<op>_<backend>_p<P>.trace.json` (Chrome-trace /
//! Perfetto format — load via https://ui.perfetto.dev) and
//! `<op>_<backend>_p<P>.residual.txt` (measured-vs-predicted folding),
//! and prints a one-line summary. Threaded-backend residuals are fitted
//! against unit machine parameters (wall clock has no Paragon α/β);
//! simulator residuals use the Paragon model the run was priced with.

use intercom_suite::cost::{MachineParams, Strategy, StrategyKind};
use intercom_suite::driver::{record_sim, record_threads, residual_report, Recorded};
use intercom_suite::intercom::ir::PlanOp;
use intercom_suite::obs::{chrome_trace, json};
use intercom_suite::topology::Mesh2D;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    op: String,
    p: usize,
    n: usize,
    strategy: String,
    backend: String,
    root: usize,
    mesh: Option<(usize, usize)>,
    out: PathBuf,
    check: bool,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut o = Options {
            op: "all".into(),
            p: 12,
            n: 4096,
            strategy: "mst".into(),
            backend: "both".into(),
            root: 0,
            mesh: None,
            out: PathBuf::from("target/traces"),
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
                "--mesh" => {
                    let spec = need("--mesh")?;
                    let (r, c) = spec
                        .split_once(['x', 'X'])
                        .ok_or_else(|| format!("--mesh wants RxC, got {spec}"))?;
                    o.mesh = Some((
                        r.parse().map_err(|e| format!("--mesh rows: {e}"))?,
                        c.parse().map_err(|e| format!("--mesh cols: {e}"))?,
                    ));
                }
                "--out" => o.out = PathBuf::from(need("--out")?),
                "--check" => o.check = true,
                "--help" | "-h" => {
                    return Err("see the module docs: cargo doc --bin trace-dump".into())
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

/// Records one (op, backend) cell, writes its two artifacts, returns
/// the paths written.
#[allow(clippy::too_many_arguments)]
fn dump_one(
    op: &PlanOp,
    strategy: &Strategy,
    backend: &str,
    p: usize,
    n: usize,
    mesh: Mesh2D,
    out: &Path,
    check: bool,
) -> Result<Vec<PathBuf>, String> {
    let machine = match backend {
        "threads" => MachineParams::UNIT,
        _ => MachineParams::PARAGON_MODEL,
    };
    let rec: Recorded = match backend {
        "threads" => record_threads(op, Some(strategy), p, n, 1 << 16),
        "sim" => record_sim(op, Some(strategy), mesh, n, machine),
        other => return Err(format!("unknown backend {other}")),
    };
    let base = format!("{}_{}_p{}", op.name(), backend, p);

    // Ring overflow silently truncates timelines; say so per rank, so
    // an exported trace is never mistaken for a complete record.
    let lost: u64 = rec.run.dropped.iter().sum();
    if lost > 0 {
        let per_rank: Vec<String> = rec
            .run
            .dropped
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0)
            .map(|(r, d)| format!("rank {r}: {d}"))
            .collect();
        eprintln!(
            "{base}: WARNING: {lost} events dropped to ring overflow ({}) — the exported trace is incomplete; raise the ring capacity",
            per_rank.join(", ")
        );
    }

    let doc = chrome_trace(&rec.run);
    if check {
        json::parse(&doc).map_err(|e| format!("{base}: exported trace is not valid JSON: {e}"))?;
    }
    let trace_path = out.join(format!("{base}.trace.json"));
    std::fs::write(&trace_path, &doc).map_err(|e| format!("write {trace_path:?}: {e}"))?;
    let mut written = vec![trace_path];

    let totals = rec.run.totals();
    match residual_report(&rec, op, strategy, &machine, n) {
        Some(report) => {
            let residual_path = out.join(format!("{base}.residual.txt"));
            std::fs::write(&residual_path, format!("{report}"))
                .map_err(|e| format!("write {residual_path:?}: {e}"))?;
            println!(
                "{base}: {} msgs, {} B out, elapsed {:.3e} s, predicted {:.3e} s{}",
                totals.msgs_sent,
                totals.bytes_out,
                rec.elapsed,
                report.predicted_total_secs,
                if report.has_cross_stage_skew() {
                    " [cross-stage skew]"
                } else {
                    ""
                },
            );
            written.push(residual_path);
        }
        None => println!(
            "{base}: {} msgs, {} B out, elapsed {:.3e} s (no cost-model counterpart)",
            totals.msgs_sent, totals.bytes_out, rec.elapsed,
        ),
    }
    Ok(written)
}

/// The verifier-known (9, SC) case on a 3×3 mesh: broadcast from rank 8
/// with n = 947 shares row/column links between the scatter and collect
/// stages. The measured timestamps must show the stages overlapping.
fn check_known_skew() -> Result<(), String> {
    let p = 9;
    let n = 947;
    let op = PlanOp::Broadcast { root: 8 };
    let strategy = Strategy::pure_long(p);
    let machine = MachineParams::PARAGON_MODEL;
    let rec = record_sim(&op, Some(&strategy), Mesh2D::new(3, 3), n, machine);
    let report = residual_report(&rec, &op, &strategy, &machine, n)
        .ok_or("broadcast must have a cost-model counterpart")?;
    if !report.has_cross_stage_skew() {
        return Err(format!(
            "(9, SC) 3x3 broadcast from rank 8 must show cross-stage skew; report:\n{report}"
        ));
    }
    println!(
        "check: (9, SC) 3x3 root-8 broadcast shows {} overlapping stage pair(s) — OK",
        report.overlaps.len()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let o = Options::parse()?;
    std::fs::create_dir_all(&o.out).map_err(|e| format!("create {:?}: {e}", o.out))?;
    let strategy = parse_strategy(&o.strategy, o.p)?;
    let mesh = match o.mesh {
        Some((r, c)) => {
            let m = Mesh2D::new(r, c);
            if m.nodes() != o.p {
                return Err(format!(
                    "mesh {r}x{c} has {} nodes, --p is {}",
                    m.nodes(),
                    o.p
                ));
            }
            m
        }
        None => Mesh2D::new(1, o.p),
    };
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
    let mut written = 0usize;
    for op in &ops {
        for backend in &backends {
            written += dump_one(op, &strategy, backend, o.p, o.n, mesh, &o.out, o.check)?.len();
        }
    }
    println!("trace-dump: {written} files under {:?}", o.out);
    if o.check {
        check_known_skew()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace-dump: {e}");
            ExitCode::FAILURE
        }
    }
}
