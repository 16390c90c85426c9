//! Port the library to *this machine* the §11 way — but measured, not
//! typed in: calibrate α/β/γ of the threaded backend, then show how the
//! cost-model selector's decisions shift between the 1994 Paragon and
//! your host.
//!
//! Run: `cargo run --release --example tune_host`

use intercom_cost::select::{envelope, Space};
use intercom_cost::{best_strategy, CollectiveOp, CostContext, MachineParams};
use intercom_runtime::calibrate;

fn main() {
    println!(
        "calibrating the threaded backend (warmed-up 8 B ping-pong and 1 MiB exchange, median of 5 batches, + stream)...\n"
    );
    let cal = calibrate();
    let host = cal.machine();
    println!(
        "measured:  alpha = {:>10.3} us   (steady-state hop, received by polling back to back; Paragon: {:.0} us)",
        host.alpha * 1e6,
        MachineParams::PARAGON.alpha * 1e6
    );
    println!(
        "           beta  = {:>10.3} ns/B ({:.1} MB/s per rank, both ranks of a 1 MiB exchange copying; Paragon: {:.1} MB/s)",
        host.beta * 1e9,
        1.0 / host.beta / 1e6,
        1.0 / MachineParams::PARAGON.beta / 1e6
    );
    println!(
        "           gamma = {:>10.3} ns/B (Paragon: {:.0} ns/B)\n",
        host.gamma * 1e9,
        MachineParams::PARAGON.gamma * 1e9
    );

    println!("selector decisions, broadcast on a 32-node group:");
    println!(
        "{:>10}  {:<22} {:<22}",
        "bytes", "Paragon pick", "this-host pick"
    );
    for exp in [3u32, 8, 12, 16, 20] {
        let n = 1usize << exp;
        let paragon = best_strategy(
            CollectiveOp::Broadcast,
            32,
            n,
            &MachineParams::PARAGON,
            CostContext::LINEAR,
        );
        let here = best_strategy(CollectiveOp::Broadcast, 32, n, &host, CostContext::LINEAR);
        println!(
            "{n:>10}  {:<22} {:<22}",
            paragon.to_string(),
            here.to_string()
        );
    }
    // Where the short-vector algorithm stops winning: the envelope's
    // first breakpoint.
    let crossover = |m: &MachineParams| {
        let env = envelope(
            CollectiveOp::Broadcast,
            Space::Linear(32),
            m,
            CostContext::LINEAR,
        );
        let mut first = env.intervals().map(|(n, ..)| n).filter(|&n| n > 0);
        first
            .next()
            .map_or("never".to_string(), |n| format!("{n} B"))
    };
    println!(
        "\nshort→long crossover: Paragon {}, this host {} (α/β = {:.0} B, β an exchange hop's:\n\
         a one-way long hop, which its blocked sender helps copy, runs at about twice that rate)",
        crossover(&MachineParams::PARAGON),
        crossover(&host),
        host.alpha / host.beta
    );
    println!(
        "\nhigher α/β ratios push the short→long crossover to larger\n\
         messages — the same library, retuned with three numbers (§11)."
    );
}
