//! Simulation orchestration: rank threads + engine loop.

use crate::comm::SimComm;
use crate::engine::Engine;
use crate::net::NetSpec;
use intercom::BufferPool;
use intercom_cost::{HierMachine, MachineParams};
use intercom_obs::Trace;
use intercom_topology::{Cluster, Hypercube, Mesh2D};
use std::sync::mpsc::channel;
use std::sync::Arc;

/// Configuration of one simulated machine.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Physical network; world rank = node id.
    pub net: NetSpec,
    /// The per-level α/β/γ/δ/link-excess parameters. On a
    /// [`NetSpec::Cluster`] each transfer and link is priced at its
    /// level; every other network reads the one level of a flat machine.
    pub machine: HierMachine,
    /// Record per-transfer trace (costs memory on big runs).
    pub record_trace: bool,
    /// Per-transfer timing irregularity: each message's *startup* (α) is
    /// inflated by a deterministic factor in `[1, 1 + jitter]` (§8's
    /// "timing irregularities" — OS interference at message handoff).
    /// 0 = ideal.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl SimConfig {
    /// `net` priced by `machine`, no tracing, no jitter.
    fn on(net: NetSpec, machine: HierMachine) -> Self {
        SimConfig {
            net,
            machine,
            record_trace: false,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }

    /// A mesh with the given machine, no tracing, no jitter.
    pub fn new(mesh: Mesh2D, machine: MachineParams) -> Self {
        Self::on(NetSpec::Mesh(mesh), HierMachine::flat(machine))
    }

    /// A hypercube (the §11 iPSC/860 target) with the given machine.
    pub fn hypercube(cube: Hypercube, machine: MachineParams) -> Self {
        Self::on(NetSpec::Hypercube(cube), HierMachine::flat(machine))
    }

    /// A two-level cluster with per-level parameters: the physical
    /// network is the cluster's mesh embedding, intra-node traffic is
    /// priced at `machine.intra()` and inter-node traffic at
    /// `machine.inter()`. No tracing, no jitter.
    pub fn cluster(cluster: Cluster, machine: &HierMachine) -> Self {
        Self::on(NetSpec::Cluster(cluster), *machine)
    }

    /// Enables transfer tracing.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enables OS-noise-style timing jitter (deterministic per seed).
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        self.jitter = jitter;
        self.jitter_seed = seed;
        self
    }
}

/// Everything a simulation run produces.
#[derive(Debug)]
pub struct SimReport<T> {
    /// Per-rank return values.
    pub results: Vec<T>,
    /// Elapsed virtual time: the maximum final rank clock, in seconds.
    pub elapsed: f64,
    /// Per-rank final virtual clocks (skew shows load imbalance).
    pub clocks: Vec<f64>,
    /// The transfer log, when tracing was enabled.
    pub trace: Option<Trace>,
}

impl<T> SimReport<T> {
    /// Clock skew: latest minus earliest finisher.
    pub fn clock_skew(&self) -> f64 {
        let min = self.clocks.iter().cloned().fold(f64::INFINITY, f64::min);
        (self.elapsed - min).max(0.0)
    }
}

/// Runs `f` on every rank of the simulated machine and returns the
/// per-rank results plus the elapsed *virtual* time under the paper's
/// machine model. The closure receives a [`SimComm`] implementing
/// [`intercom::Comm`], so any library collective runs unmodified.
pub fn simulate<T, F>(cfg: &SimConfig, f: F) -> SimReport<T>
where
    T: Send,
    F: Fn(&SimComm) -> T + Send + Sync,
{
    let p = cfg.net.nodes();
    let mut engine = Engine::new(
        cfg.net,
        cfg.machine,
        cfg.record_trace,
        cfg.jitter,
        cfg.jitter_seed,
    );
    let (req_tx, req_rx) = channel();
    let pool = Arc::new(BufferPool::new());
    let mut reply_txs = Vec::with_capacity(p);
    let mut endpoints = Vec::with_capacity(p);
    for rank in 0..p {
        let (tx, rx) = channel();
        reply_txs.push(tx);
        endpoints.push(SimComm::new(rank, p, req_tx.clone(), rx, pool.clone()));
    }
    drop(req_tx);
    let f = &f;
    std::thread::scope(|scope| {
        // The loop below owns the reply senders: if it panics (the
        // engine's deadlock diagnostic), unwinding drops them, every
        // rank blocked on a reply sees `Disconnected`, and the scope can
        // join the rank threads and let the panic through.
        let reply_txs = reply_txs;
        let mut handles = Vec::with_capacity(p);
        for (rank, comm) in endpoints.into_iter().enumerate() {
            let builder = std::thread::Builder::new()
                .name(format!("sim-rank-{rank}"))
                .stack_size(1024 * 1024);
            handles.push(
                builder
                    .spawn_scoped(scope, move || {
                        let out = f(&comm);
                        comm.finish();
                        out
                    })
                    .expect("failed to spawn simulated rank"),
            );
        }
        // Engine loop: consume requests while any rank can still run;
        // advance virtual time when everyone is blocked.
        loop {
            for (rank, reply) in engine.drain_replies() {
                // A send failure means the rank thread died; its requests
                // simply stop arriving and the join below reports it.
                let _ = reply_txs[rank].send(reply);
            }
            if engine.finished_count() == p {
                break;
            }
            if engine.runnable_count() == 0 {
                engine.advance();
                continue;
            }
            match req_rx.recv() {
                Ok((rank, req)) => engine.handle(rank, req),
                Err(_) => break, // all rank threads gone
            }
        }
        let results: Vec<T> = handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(v) => v,
                Err(e) => {
                    let msg = e
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| e.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic>");
                    panic!("simulated rank {rank} panicked: {msg}");
                }
            })
            .collect();
        let report = SimReport {
            results,
            elapsed: engine.elapsed(),
            clocks: engine.clocks().to_vec(),
            trace: engine.take_trace().map(Trace::new),
        };
        // Production telemetry: virtual elapsed time and (when tracing)
        // the transfer-derived counter totals. One branch when disabled.
        if intercom_obs::metrics::enabled() {
            let p_label = p.to_string();
            let l = &[("p", p_label.as_str())][..];
            intercom_obs::metrics::observe("intercom_sim_elapsed_seconds", l, report.elapsed);
            if let Some(trace) = &report.trace {
                intercom_obs::metrics::ingest_run(
                    "sim",
                    &intercom_obs::RunRecord::from_transfers(trace.records(), p),
                );
            }
        }
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom::Comm;

    fn unit() -> MachineParams {
        MachineParams {
            alpha: 1.0,
            beta: 1.0,
            gamma: 0.0,
            delta: 0.0,
            link_excess: 1.0,
        }
    }

    #[test]
    fn trivial_world_elapsed_zero() {
        let cfg = SimConfig::new(Mesh2D::new(1, 1), unit());
        let rep = simulate(&cfg, |c| c.rank());
        assert_eq!(rep.results, vec![0]);
        assert_eq!(rep.elapsed, 0.0);
    }

    #[test]
    fn ping_pong_timing() {
        let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 8];
            if c.rank() == 0 {
                c.send(1, 0, &[1u8; 8]).unwrap();
                c.recv(1, 1, &mut buf).unwrap();
            } else {
                c.recv(0, 0, &mut buf).unwrap();
                c.send(0, 1, &buf).unwrap();
            }
            buf[0]
        });
        assert_eq!(rep.results, vec![1, 1]);
        // Two sequential α + 8β steps: 2 × 9 = 18.
        assert!((rep.elapsed - 18.0).abs() < 1e-9, "{}", rep.elapsed);
    }

    #[test]
    fn determinism_across_runs() {
        let cfg = SimConfig::new(Mesh2D::new(2, 3), unit());
        let run = || {
            simulate(&cfg, |c| {
                let p = c.size();
                let me = c.rank();
                let mut buf = [0u8; 16];
                // Shift ring twice.
                for t in 0..2u64 {
                    c.sendrecv((me + 1) % p, &[me as u8; 16], (me + p - 1) % p, &mut buf, t)
                        .unwrap();
                }
                buf[0]
            })
            .elapsed
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_is_captured() {
        let cfg = SimConfig::new(Mesh2D::new(1, 2), unit()).with_trace();
        let rep = simulate(&cfg, |c| {
            let mut b = [0u8; 1];
            if c.rank() == 0 {
                c.send(1, 0, &[9]).unwrap();
            } else {
                c.recv(0, 0, &mut b).unwrap();
            }
        });
        let trace = rep.trace.unwrap();
        assert_eq!(trace.message_count(), 1);
        assert_eq!(trace.records()[0].bytes, 1);
    }

    /// A cluster whose per-level costs are engineered for exact
    /// arithmetic: intra messages cost `1 + n`, inter messages
    /// `10 + 4n`. The inter link-excess is set high enough (8× β) that
    /// only the per-transfer wire ceiling — not the link or port caps —
    /// can produce the inter rate.
    fn toy_cluster_machine() -> HierMachine {
        let intra = MachineParams {
            alpha: 1.0,
            beta: 1.0,
            gamma: 0.0,
            delta: 0.0,
            link_excess: 1.0,
        };
        let inter = MachineParams {
            alpha: 10.0,
            beta: 4.0,
            gamma: 0.0,
            delta: 0.0,
            link_excess: 8.0,
        };
        HierMachine::two_level(intra, inter)
    }

    #[test]
    fn cluster_transfers_price_their_level() {
        let hm = toy_cluster_machine();
        let cl = Cluster::linear(2, 2); // node 0 = {0, 1}, node 1 = {2, 3}
        let cfg = SimConfig::cluster(cl, &hm);
        // Intra-node message: α_intra + n·β_intra = 1 + 10 = 11.
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 10];
            match c.rank() {
                0 => c.send(1, 0, &[7u8; 10]).unwrap(),
                1 => c.recv(0, 0, &mut buf).unwrap(),
                _ => {}
            }
        });
        assert!((rep.elapsed - 11.0).abs() < 1e-9, "{}", rep.elapsed);
        // Inter-node message: α_inter + n·β_inter = 10 + 40 = 50. The
        // ports run at the intra rate (1 B/s) and the inter link at
        // 8/β = 2 B/s, so only the per-transfer wire ceiling (1/4 B/s)
        // yields 50 — this pins the level attribution, not just a cap.
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 10];
            match c.rank() {
                0 => c.send(2, 0, &[7u8; 10]).unwrap(),
                2 => c.recv(0, 0, &mut buf).unwrap(),
                _ => {}
            }
        });
        assert!((rep.elapsed - 50.0).abs() < 1e-9, "{}", rep.elapsed);
    }

    #[test]
    fn cluster_inter_link_contention_shares_inter_capacity() {
        // linear(3, 2): leaders of nodes 0 and 1 both send into node 2's
        // column; under XY routing both routes cross the directed east
        // link between node columns 1 and 2, which carries the *inter*
        // capacity 8/β_inter = 2 B/s. Two transfers capped at 1/β_inter
        // = 0.25 B/s each fit under it, so both flow at their wire rate
        // — inter contention priced at inter, not intra, capacity.
        let hm = toy_cluster_machine();
        let cl = Cluster::linear(3, 2);
        let cfg = SimConfig::cluster(cl, &hm);
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 10];
            match c.rank() {
                0 => c.send(4, 0, &[1u8; 10]).unwrap(), // node 0 → node 2 slot 0
                2 => c.send(5, 1, &[2u8; 10]).unwrap(), // node 1 → node 2 slot 1
                4 => c.recv(0, 0, &mut buf).unwrap(),
                5 => c.recv(2, 1, &mut buf).unwrap(),
                _ => {}
            }
        });
        // Both activate at t = 10 and flow at 0.25 B/s: 10 + 40 = 50.
        assert!((rep.elapsed - 50.0).abs() < 1e-9, "{}", rep.elapsed);
        // Squeeze the inter link instead: excess 1.0 → capacity
        // 1/β_inter, shared max-min at 0.125 B/s each → 10 + 80 = 90.
        let mut squeezed = toy_cluster_machine();
        let inter = MachineParams {
            link_excess: 1.0,
            ..*squeezed.inter()
        };
        squeezed = HierMachine::two_level(*squeezed.intra(), inter);
        let cfg = SimConfig::cluster(cl, &squeezed);
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 10];
            match c.rank() {
                0 => c.send(4, 0, &[1u8; 10]).unwrap(),
                2 => c.send(5, 1, &[2u8; 10]).unwrap(),
                4 => c.recv(0, 0, &mut buf).unwrap(),
                5 => c.recv(2, 1, &mut buf).unwrap(),
                _ => {}
            }
        });
        assert!((rep.elapsed - 90.0).abs() < 1e-9, "{}", rep.elapsed);
    }

    #[test]
    fn cluster_intra_traffic_is_immune_to_inter_slowness() {
        // An intra message inside node 0 runs at full node speed while a
        // slow inter transfer crosses the network concurrently: the two
        // levels do not share constraints.
        let hm = toy_cluster_machine();
        let cl = Cluster::linear(2, 2);
        let cfg = SimConfig::cluster(cl, &hm);
        let rep = simulate(&cfg, |c| {
            let mut buf = [0u8; 10];
            match c.rank() {
                0 => c.send(1, 0, &[7u8; 10]).unwrap(), // intra: done at 11
                1 => c.recv(0, 0, &mut buf).unwrap(),
                2 => c.send(3, 1, &[8u8; 10]).unwrap(), // intra in node 1
                3 => c.recv(2, 1, &mut buf).unwrap(),
                _ => unreachable!(),
            }
            c.rank()
        });
        assert!((rep.elapsed - 11.0).abs() < 1e-9, "{}", rep.elapsed);
        // Now run a full collective over the cluster to exercise mixed
        // levels end-to-end (results must stay bit-identical to the
        // threaded backend — direct execution, only time is virtual).
        let rep = simulate(&cfg, |c| {
            use intercom::{Communicator, ReduceOp};
            let cc = Communicator::world(c, *hm.inter());
            let mut v = vec![(c.rank() + 1) as u64; 16];
            cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
            v[0]
        });
        assert!(rep.results.iter().all(|&x| x == 10));
        assert!(rep.elapsed > 0.0);
    }

    #[test]
    fn deadlock_panics_with_the_engine_diagnostic() {
        // Both ranks receive and nobody sends. The simulation runs on a
        // thread of its own so that a regression — `simulate` hanging
        // on rank threads that wait for replies nobody can send — fails
        // this test instead of stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || {
            let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
            let outcome = std::panic::catch_unwind(|| {
                simulate(&cfg, |c| c.recv(1 - c.rank(), 0, &mut [0u8; 4]).is_err())
            });
            let _ = tx.send(outcome.map(|report| report.results));
        });
        let panic = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a deadlocked simulation must not hang")
            .expect_err("a deadlocked simulation must panic");
        watched.join().expect("the panic was caught");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.contains("simulation deadlock: 2 rank(s) blocked"),
            "{msg}"
        );
        assert!(msg.contains("unmatched recv 0←1 tag 0"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "simulated rank 1 panicked")]
    fn rank_panic_propagates() {
        let cfg = SimConfig::new(Mesh2D::new(1, 2), unit());
        simulate(&cfg, |c| {
            if c.rank() == 1 {
                panic!("sim boom");
            }
            // Rank 0 must not block forever; just finish.
        });
    }
}
