//! Port the library to *this machine* the §11 way — but measured, not
//! typed in: calibrate α/β/γ of the threaded backend, print what one
//! hop of the threaded transport costs across its size range, then show
//! how the cost-model selector's decisions shift between the 1994
//! Paragon and your host.
//!
//! Run: `cargo run --release --example tune_host`

use intercom_cost::select::{envelope, Envelope, GroupShape};
use intercom_cost::{CollectiveOp, CostContext, MachineParams};
use intercom_runtime::{calibrate, run_world, Comm};
use std::time::Instant;

/// Sizes the hop probe prints: both sides of the inline limit (1 KiB)
/// and of the rendezvous threshold (32 KiB), and the tiers' middles.
const PROBE_SIZES: [usize; 9] = [
    8,
    1024,
    1100,
    2048,
    16 << 10,
    30_000,
    32_767,
    40_000,
    64 << 10,
];

/// Median round trip of a two-rank ping-pong at each size, over
/// `rounds` rounds after a warm-up. Rank 0 writes new bytes into its
/// buffer before every round (untimed), and rank 1 echoes the bytes its
/// receive has just written: no hop reads lines its receiver already
/// holds. With a constant buffer a rendezvous hop would read a copy the
/// receiver's cache kept from the round before, and flatter that tier.
fn round_trips(rounds: usize) -> [f64; PROBE_SIZES.len()] {
    const WARMUP: usize = 200;
    let out = run_world(2, |c| {
        PROBE_SIZES.map(|n| {
            let (mut mine, mut got) = (vec![0u8; n], vec![0u8; n]);
            let mut times = Vec::with_capacity(rounds);
            for round in 0..WARMUP + rounds {
                if c.rank() == 1 {
                    c.recv(0, 1, &mut got).unwrap();
                    c.send(0, 1, &got).unwrap();
                    continue;
                }
                mine.fill(round as u8);
                let start = Instant::now();
                c.send(1, 1, &mine).unwrap();
                c.recv(1, 1, &mut got).unwrap();
                if round >= WARMUP {
                    times.push(start.elapsed().as_secs_f64());
                }
            }
            // Rank 1, which times nothing, reports 0.
            times.sort_by(f64::total_cmp);
            times.get(rounds / 2).copied().unwrap_or_default()
        })
    });
    out[0]
}

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

    const ROUNDS: usize = 4000;
    println!(
        "round trips, 2 ranks, the sender rewriting its buffer every round (median of {ROUNDS}):"
    );
    println!("{:>10}  {:>10}", "bytes", "us");
    for (n, t) in PROBE_SIZES.iter().zip(round_trips(ROUNDS)) {
        println!("{n:>10}  {:>10.2}", t * 1e6);
    }
    println!();

    println!("selector decisions, broadcast on a 32-node group:");
    println!(
        "{:>10}  {:<22} {:<22}",
        "bytes", "Paragon pick", "this-host pick"
    );
    // A broadcast's picks on 32 nodes of the §2 linear array.
    let bcast32 = |m: &MachineParams| {
        let line = GroupShape::Linear(32);
        envelope(CollectiveOp::Broadcast, line, m, CostContext::LINEAR)
    };
    let (paragon, here) = (bcast32(&MachineParams::PARAGON), bcast32(&host));
    for exp in [3u32, 8, 12, 16, 20] {
        let n = 1usize << exp;
        println!(
            "{n:>10}  {:<22} {:<22}",
            paragon.at(n).0.to_string(),
            here.at(n).0.to_string()
        );
    }
    // Where the short-vector algorithm stops winning: the envelope's
    // first breakpoint.
    let crossover = |env: &Envelope| {
        let mut first = env.intervals().map(|(n, ..)| n).filter(|&n| n > 0);
        first
            .next()
            .map_or("never".to_string(), |n| format!("{n} B"))
    };
    println!(
        "\nshort→long crossover: Paragon {}, this host {} (α/β = {:.0} B, β an exchange hop's:\n\
         a one-way long hop, which its blocked sender helps copy, runs at about twice that rate)",
        crossover(&paragon),
        crossover(&here),
        host.alpha / host.beta
    );
    println!(
        "\nhigher α/β ratios push the short→long crossover to larger\n\
         messages — the same library, retuned with three numbers (§11)."
    );
}
