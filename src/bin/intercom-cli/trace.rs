//! `intercom-cli trace` — record any collective on either backend and
//! dump the timeline plus the cost-model residual report.
//!
//! Per run it writes `<op>_<backend>_p<P>.trace.json` (Chrome-trace /
//! Perfetto format — load via https://ui.perfetto.dev) and
//! `<op>_<backend>_p<P>.residual.txt` (measured-vs-predicted folding)
//! under `--out` (default `target/traces`), and prints a one-line
//! summary. Threaded-backend residuals are fitted against unit machine
//! parameters (wall clock has no Paragon α/β); simulator residuals use
//! the Paragon model the run was priced with. `--check` re-parses every
//! emitted JSON document and verifies the known (9, SC) 3x3 cross-stage
//! skew.

use crate::args::{parse_strategy, Options};
use intercom::ir::PlanOp;
use intercom_cost::{MachineParams, Strategy};
use intercom_obs::{chrome_trace, json};
use intercom_suite::driver::{record_sim, record_threads, residual_report};
use intercom_topology::Mesh2D;
use std::path::{Path, PathBuf};

/// Records one (op, backend) cell of `mesh.nodes()` ranks, writes its
/// two artifacts under `out`, returns how many files it wrote.
fn dump_one(
    o: &Options,
    op: &PlanOp,
    strategy: &Strategy,
    backend: &str,
    mesh: Mesh2D,
    out: &Path,
) -> Result<usize, String> {
    let (p, n) = (mesh.nodes(), o.n);
    let (machine, rec) = match backend {
        "threads" => (
            MachineParams::UNIT,
            record_threads(op, Some(strategy), p, n, 1 << 16),
        ),
        _ => {
            let machine = MachineParams::PARAGON_MODEL;
            (machine, record_sim(op, Some(strategy), mesh, n, machine))
        }
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
    if o.check {
        json::parse(&doc).map_err(|e| format!("{base}: exported trace is not valid JSON: {e}"))?;
    }
    let trace_path = out.join(format!("{base}.trace.json"));
    std::fs::write(&trace_path, &doc).map_err(|e| format!("write {trace_path:?}: {e}"))?;

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
            Ok(2)
        }
        None => {
            println!(
                "{base}: {} msgs, {} B out, elapsed {:.3e} s (no cost-model counterpart)",
                totals.msgs_sent, totals.bytes_out, rec.elapsed,
            );
            Ok(1)
        }
    }
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

pub fn run(o: &Options) -> Result<(), String> {
    let p = o.p.unwrap_or(12);
    let ops = o.ops(p)?;
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/traces"));
    std::fs::create_dir_all(&out).map_err(|e| format!("create {out:?}: {e}"))?;
    let strategy = parse_strategy(&o.strategy, p)?;
    let mesh = match o.mesh {
        Some((r, c)) => {
            let m = Mesh2D::new(r, c);
            if m.nodes() != p {
                return Err(format!("mesh {r}x{c} has {} nodes, --p is {p}", m.nodes()));
            }
            m
        }
        None => Mesh2D::new(1, p),
    };
    let backends = o.backends()?;
    let mut written = 0usize;
    for op in &ops {
        for backend in &backends {
            written += dump_one(o, op, &strategy, backend, mesh, &out)?;
        }
    }
    println!("trace: {written} files under {out:?}");
    if o.check {
        check_known_skew()?;
    }
    Ok(())
}
