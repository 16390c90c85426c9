//! Hybrid strategy explorer: enumerate the §6 design space for a node
//! count and message length, print each strategy's symbolic cost and
//! predicted time, and show where the crossovers fall.
//!
//! Run: `cargo run --example hybrid_explorer -- [p] [bytes]`
//! (defaults: p = 30, bytes = 4096 — the paper's Table 2 setting)

use intercom_cost::collective::hybrid_cost;
use intercom_cost::select::{envelope, GroupShape};
use intercom_cost::{crossover_length, rank_strategies, CollectiveOp, CostContext, MachineParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let p: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(30);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4096);
    let machine = MachineParams::PARAGON_MODEL;

    println!("Hybrid broadcast strategies for a {p}-node linear array at n = {n} bytes");
    println!(
        "machine: alpha={:.0}us, beta={:.1}ns/B (1/beta = {:.1} MB/s)\n",
        machine.alpha * 1e6,
        machine.beta * 1e9,
        1.0 / machine.beta / 1e6
    );

    let ranked = rank_strategies(
        CollectiveOp::Broadcast,
        p,
        n,
        &machine,
        CostContext::LINEAR,
        0,
    );
    println!(
        "{:<16} {:<8} {:>14}   cost",
        "logical mesh", "hybrid", "time (s)"
    );
    for r in ranked.iter().take(12) {
        println!(
            "{:<16} {:<8} {:>14.6e}   {}",
            r.strategy.mesh_name(),
            r.strategy.letters(),
            r.time,
            r.cost.display_over(p)
        );
    }
    if ranked.len() > 12 {
        println!("... ({} more)", ranked.len() - 12);
    }

    // Crossover between the two pure families.
    let short = hybrid_cost(
        CollectiveOp::Broadcast,
        &intercom_cost::Strategy::pure_mst(p),
        CostContext::LINEAR,
    );
    let long = hybrid_cost(
        CollectiveOp::Broadcast,
        &intercom_cost::Strategy::pure_long(p),
        CostContext::LINEAR,
    );
    match crossover_length(&short, &long, &machine) {
        Some(x) => println!(
            "\npure-MST vs pure-scatter/collect crossover: {x} bytes\n\
             (below: minimize startups; above: minimize per-byte cost)"
        ),
        None => println!("\npure MST dominates at every length for p = {p}"),
    }

    // Where the selector's choice changes: its lower envelope.
    println!("\nselector's pick, from the first length it wins at:");
    let op = CollectiveOp::Broadcast;
    let env = envelope(op, GroupShape::Linear(p), &machine, CostContext::LINEAR);
    println!("{env}");
}
