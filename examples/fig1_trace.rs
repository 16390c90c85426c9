//! Reproduces the paper's **Fig. 1**: the step-by-step walk-through of a
//! broadcast hybrid on a linear array of 12 nodes — scatters within
//! subgroups of two nodes, separate MST broadcasts within subgroups of
//! three, and simultaneous collects within subgroups of two.
//!
//! The strategy is `(2×2×3, SSMCC)` in this library's dims-fastest-first
//! convention; the trace below is generated by actually running the
//! hybrid on the simulator through the unified observability recorder
//! (`intercom-obs`), grouping simultaneous transfers into steps exactly
//! like the figure, then folding the recording against the cost model's
//! per-stage predictions. The same code path powers `intercom-cli
//! trace` — see `docs/OBSERVABILITY.md`.
//!
//! Run: `cargo run --example fig1_trace`

use intercom::ir::PlanOp;
use intercom_cost::{MachineParams, Strategy, StrategyKind};
use intercom_obs::Trace;
use intercom_suite::driver::{record_sim, residual_report};
use intercom_topology::Mesh2D;

fn main() {
    let p = 12;
    let n = 1200usize; // 12 nodes → pieces of 100 bytes at the center
    let strategy = Strategy::new(vec![2, 2, 3], StrategyKind::Mst);
    let machine = MachineParams::PARAGON_MODEL;
    let op = PlanOp::Broadcast { root: 0 };

    println!("Fig. 1 — broadcast hybrid on a linear array of 12 nodes, root 0");
    println!("strategy {strategy}: scatter in pairs, scatter in pairs-of-pairs,");
    println!("MST broadcast in groups of three, then simultaneous collects.\n");

    let rec = record_sim(&op, Some(&strategy), Mesh2D::new(1, p), n, machine);
    let trace = Trace::new(rec.run.all_events().copied().collect());
    println!("{}", trace.render_steps(1e-9));
    println!(
        "total: {} messages, {} byte·hops, elapsed {:.6} s (model: Paragon-like)",
        trace.message_count(),
        trace.byte_hops(),
        rec.elapsed
    );

    let report = residual_report(&rec, &op, &strategy, &machine, n)
        .expect("broadcast has a cost-model counterpart");
    println!("\n{report}");

    println!(
        "Compare with the paper: steps 1–2 scatter within subgroups of two,\n\
         steps 3–4 are the MST broadcasts within subgroups of three, and the\n\
         final steps are the simultaneous collects within subgroups of two\n\
         (\"except for Step 1 and 6, limited network conflicts occur\")."
    );
}
