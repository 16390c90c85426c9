//! Simulate a Paragon collective and inspect what the network did:
//! elapsed virtual time, message counts, byte·hops, and the winning
//! strategy — the observability surface over the meshsim substrate.
//!
//! Run: `cargo run --release --example paragon -- [rows] [cols] [bytes]`
//! (defaults: 8 × 16 mesh, 64 KiB broadcast)

use intercom::{Algo, Communicator};
use intercom_cost::{choose, price, CollectiveOp, GroupShape, HierMachine, MachineParams};
use intercom_meshsim::{simulate, SimConfig};
use intercom_topology::Mesh2D;

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let cols: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let n: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(64 * 1024);

    let mesh = Mesh2D::new(rows, cols);
    let machine = MachineParams::PARAGON;
    println!("simulated Paragon: {mesh}, broadcast of {n} bytes from node 0\n");

    for (label, algo) in [
        ("short (MST)", Algo::Short),
        ("long (scatter/collect)", Algo::Long),
        ("auto (hybrid)", Algo::Auto),
    ] {
        let cfg = SimConfig::new(mesh, machine).with_trace();
        let algo2 = algo.clone();
        let rep = simulate(&cfg, move |c| {
            let cc = Communicator::world_on_mesh(c, machine, mesh).unwrap();
            let mut buf = vec![0u8; n];
            cc.bcast_with(0, &mut buf, &algo2).unwrap();
        });
        let trace = rep.trace.unwrap();
        println!(
            "{label:<24} elapsed {:>10.6} s   {:>6} msgs   {:>12} byte-hops",
            rep.elapsed,
            trace.message_count(),
            trace.byte_hops()
        );
    }

    // What did the selector pick, and what did the model predict?
    let (op, shape) = (CollectiveOp::Broadcast, GroupShape::Mesh { rows, cols });
    let flat = HierMachine::flat(machine);
    let chosen = choose(op, shape, n, &flat);
    let predicted = price(op, shape, &chosen, n, &flat);
    println!("\nauto-selected strategy: {chosen}   (model predicts {predicted:.6} s)");
}
