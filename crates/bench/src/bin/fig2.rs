//! Regenerates the paper's **Fig. 2**: predicted performance of the
//! Table 2 broadcast hybrids on a linear array of 30 nodes, using
//! machine parameters similar to those of the Paragon, for message
//! lengths 8 B – 1 MB (log–log in the paper).
//!
//! Emits a CSV block (one column per hybrid) plus the lower envelope of
//! the full strategy space with its exact crossover lengths.
//!
//! Run: `cargo run -p intercom-bench --bin fig2`

use intercom_bench::report::csv;
use intercom_bench::sizes::pow2_sweep;
use intercom_cost::collective::hybrid_cost;
use intercom_cost::select::{envelope, Space};
use intercom_cost::{CollectiveOp, CostContext, MachineParams, Strategy, StrategyKind};

fn main() {
    let machine = MachineParams::PARAGON_MODEL;
    let curves: Vec<Strategy> = vec![
        Strategy::new(vec![30], StrategyKind::Mst),
        Strategy::new(vec![2, 15], StrategyKind::Mst),
        Strategy::new(vec![2, 3, 5], StrategyKind::Mst),
        Strategy::new(vec![5, 6], StrategyKind::ScatterCollect),
        Strategy::new(vec![2, 15], StrategyKind::ScatterCollect),
        Strategy::new(vec![30], StrategyKind::ScatterCollect),
    ];

    println!("Fig. 2 — predicted broadcast time on a 30-node linear array");
    println!(
        "machine: alpha={:.0}us beta={:.1}ns/B (Paragon-like), model of §6\n",
        machine.alpha * 1e6,
        machine.beta * 1e9
    );

    let mut header: Vec<String> = vec!["bytes".into()];
    header.extend(curves.iter().map(|s| s.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for n in pow2_sweep(8, 1 << 20, 1) {
        let mut row = vec![n.to_string()];
        for s in &curves {
            let t = hybrid_cost(CollectiveOp::Broadcast, s, CostContext::LINEAR).eval(n, &machine);
            row.push(format!("{t:.6e}"));
        }
        rows.push(row);
    }
    println!("{}", csv(&header_refs, &rows));

    // The winner at each length over the FULL strategy space — the
    // lower envelope the library's selector looks its choice up in.
    println!("selector's choice (full enumeration), from the first length it wins at:");
    let op = CollectiveOp::Broadcast;
    let env = envelope(op, Space::Linear(30), &machine, CostContext::LINEAR);
    println!("{env}");
}
