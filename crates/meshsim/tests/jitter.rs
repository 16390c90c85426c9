//! The deterministic timing-jitter model (§8 "timing irregularities").

use intercom::comm::GroupComm;
use intercom::primitives::{optimal_segments, pipelined_ring_bcast};
use intercom::Comm;
use intercom_cost::MachineParams;
use intercom_meshsim::{simulate, SimConfig};
use intercom_topology::Mesh2D;

fn unit() -> MachineParams {
    MachineParams {
        alpha: 1.0,
        beta: 1.0,
        gamma: 0.0,
        delta: 0.0,
        link_excess: 1.0,
    }
}

fn ping(cfg: &SimConfig) -> f64 {
    simulate(cfg, |c| {
        let mut buf = [0u8; 100];
        if c.rank() == 0 {
            c.send(1, 0, &[7u8; 100]).unwrap();
        } else {
            c.recv(0, 0, &mut buf).unwrap();
        }
    })
    .elapsed
}

#[test]
fn zero_jitter_is_exact() {
    let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
    assert_eq!(ping(&cfg), 101.0);
}

#[test]
fn jitter_bounds_respected() {
    // With startup jitter j, a single transfer costs α·f + nβ with
    // f ∈ [1, 1+j]: here between 101 and 101.5.
    for seed in 0..20 {
        let cfg = SimConfig::new(Mesh2D::new(1, 2), unit()).with_jitter(0.5, seed);
        let t = ping(&cfg);
        assert!((101.0..=101.5).contains(&t), "seed {seed}: {t}");
    }
}

#[test]
fn jitter_deterministic_per_seed() {
    let cfg = SimConfig::new(Mesh2D::new(1, 2), unit()).with_jitter(1.0, 42);
    assert_eq!(ping(&cfg), ping(&cfg));
}

#[test]
fn jittered_collective_repeats_bit_for_bit() {
    // 64 rank threads race to hand the engine their requests, so the
    // order transfers are matched in varies run to run; a draw keyed on
    // the sender and its own send count does not.
    let p = 64;
    let n = 64 * 1024;
    let machine = MachineParams::PARAGON;
    let segments = optimal_segments(p, n, &machine);
    let cfg = SimConfig::new(Mesh2D::new(1, p), machine).with_jitter(1.0, 1);
    let run = || {
        simulate(&cfg, |c| {
            let gc = GroupComm::world(c);
            let mut buf = vec![0u8; n];
            pipelined_ring_bcast(&gc, 0, &mut buf, segments, 0).unwrap();
        })
        .elapsed
    };
    let first = run();
    for _ in 0..5 {
        assert_eq!(run().to_bits(), first.to_bits());
    }
}

#[test]
fn different_seeds_differ_somewhere() {
    let times: Vec<f64> = (0..8)
        .map(|s| ping(&SimConfig::new(Mesh2D::new(1, 2), unit()).with_jitter(1.0, s)))
        .collect();
    let first = times[0];
    assert!(times.iter().any(|&t| (t - first).abs() > 1e-9), "{times:?}");
}

#[test]
fn jitter_slows_chained_transfers_on_average() {
    // A 16-step relay chain accumulates startup jitter; with jitter 1.0
    // and α = 1, the expected surcharge is ~16·0.5 over the ideal.
    let ideal = {
        let cfg = SimConfig::new(Mesh2D::new(1, 17), unit());
        simulate(&cfg, |c| {
            let me = c.rank();
            let mut buf = [0u8; 10];
            if me == 0 {
                c.send(1, 0, &[1u8; 10]).unwrap();
            } else {
                c.recv(me - 1, 0, &mut buf).unwrap();
                if me < 16 {
                    c.send(me + 1, 0, &buf).unwrap();
                }
            }
        })
        .elapsed
    };
    let mut total = 0.0;
    let seeds = 6;
    for s in 0..seeds {
        let cfg = SimConfig::new(Mesh2D::new(1, 17), unit()).with_jitter(1.0, s);
        total += simulate(&cfg, |c| {
            let me = c.rank();
            let mut buf = [0u8; 10];
            if me == 0 {
                c.send(1, 0, &[1u8; 10]).unwrap();
            } else {
                c.recv(me - 1, 0, &mut buf).unwrap();
                if me < 16 {
                    c.send(me + 1, 0, &buf).unwrap();
                }
            }
        })
        .elapsed;
    }
    let avg = total / seeds as f64;
    // 16 chained messages, each startup inflated by U[0,1]·α (α = 1):
    // surcharge ∈ (0, 16), expectation ≈ 8.
    assert!(avg > ideal + 2.0, "avg jittered {avg} vs ideal {ideal}");
    assert!(avg < ideal + 16.0 + 1e-9);
}
