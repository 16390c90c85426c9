//! The selector's phase diagram: which algorithm family wins at each
//! `(p, n)` point — the two-dimensional generalization of Fig. 2's lower
//! envelope, rendered as an ASCII map.
//!
//! Legend: `M` pure MST, `S` pure scatter/collect, `h` a 2-dim hybrid,
//! `H` a ≥3-dim hybrid.
//!
//! Run: `cargo run -p intercom-bench --bin crossover_map`

use intercom_cost::select::{envelope, Space};
use intercom_cost::{CollectiveOp, CostContext, MachineParams, StrategyKind};

/// One map row: the class of the winner at each `n = 2^e`, read off the
/// row's envelope.
fn row(p: usize, n_exps: &[u32], machine: &MachineParams) -> String {
    let op = CollectiveOp::Broadcast;
    let env = envelope(op, Space::Linear(p), machine, CostContext::LINEAR);
    let class = |e: &u32| {
        let s = env.at(1usize << e).0;
        match (s.ndims(), s.kind) {
            (1, StrategyKind::Mst) => 'M',
            (1, StrategyKind::ScatterCollect) => 'S',
            (2, _) => 'h',
            _ => 'H',
        }
    };
    n_exps.iter().map(class).collect()
}

fn main() {
    let machine = MachineParams::PARAGON_MODEL;
    println!("best broadcast algorithm by (p, n) — Paragon model, linear array");
    println!("legend: M = MST, S = scatter/collect, h = 2-dim hybrid, H = deeper hybrid\n");

    let ps: Vec<usize> = (2..=128).filter(|p| p % 2 == 0 || *p < 16).collect();
    print!("{:>5} |", "p\\n");
    let n_exps: Vec<u32> = (3..=20).collect();
    for e in &n_exps {
        print!(
            "{}",
            if e % 2 == 0 {
                ((e / 10) as u8 + b'0') as char
            } else {
                ' '
            }
        );
    }
    println!();
    print!("{:>5} |", "");
    for e in &n_exps {
        print!("{}", ((e % 10) as u8 + b'0') as char);
    }
    println!("   (n = 2^e bytes)");
    println!("{}", "-".repeat(7 + n_exps.len()));
    for &p in &ps {
        if p > 16 && p % 8 != 0 {
            continue;
        }
        println!("{p:>5} |{}", row(p, &n_exps, &machine));
    }

    println!("\ncrossover reading: below the M→hybrid boundary startups dominate;");
    println!("prime p rows show the §6 caveat (no factorization → no hybrids:");
    println!("the selector jumps straight from M to S).");
    for p in [13usize, 31, 127] {
        println!("{p:>5} |{}   (prime)", row(p, &n_exps, &machine));
    }
}
