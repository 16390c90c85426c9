//! Single-layer probes: each times or counts one module through its
//! public functions, from this file.
//!
//! All probes run on one thread except the `runtime` ones, which need a
//! peer and run a two-rank world, and the simulator ones, whose rank
//! threads are the simulator's own.

use crate::api::{
    flat_on_cluster_cost, global_cache, hier_cost, hybrid_cost, lower, max_min_rates, nx_bcast,
    nx_gdsum, optimize, rank_strategies, run_world, select_hier, simulate, Algo, AllreducePlan,
    ClusterShape, CollectiveOp, Comm, Communicator, CostContext, HierChoice, MachineParams,
    OptLevel, PlanKey, PlanOp, ReduceOp,
};
use crate::comm::NullComm;
use crate::env;
use crate::report::Layers;
use crate::sim::{self, Backbone, Depth, Op, Row, World};
use crate::stats::median;
use crate::validate::{Pattern, Rng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const PARAGON: MachineParams = MachineParams::PARAGON;
const BATCHES: u32 = 11;
/// Message lengths a selection probe cycles through.
const SIZES: [usize; 4] = [8, 1 << 10, 64 << 10, 1 << 20];

/// Median nanoseconds per call of `f`, over batches that together fill
/// about `budget`.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_nanos().max(1);
    let per_batch = (budget.as_nanos() / u128::from(BATCHES) / one).clamp(1, 1_000_000) as u32;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(per_batch)
        })
        .collect();
    median(&samples)
}

fn cost_op(op: Op) -> CollectiveOp {
    match op {
        Op::Bcast => CollectiveOp::Broadcast,
        Op::Allgather => CollectiveOp::Collect,
        Op::Allreduce => CollectiveOp::CombineToAll,
    }
}

fn cluster_shape() -> ClusterShape {
    ClusterShape {
        inter_rows: 2,
        inter_cols: 2,
        ranks_per_node: 4,
    }
}

/// What the `sim-mesh` passes of a traced run established per row.
pub struct SimFacts {
    pub rows: Vec<Row>,
    /// Simulated seconds: exact.
    pub virt_s: Vec<f64>,
    /// Host nanoseconds of the untraced pass.
    pub host_ns: Vec<u64>,
    /// Messages sent over all ranks: exact.
    pub sends: Vec<u64>,
}

impl SimFacts {
    fn virt_of(&self, name: &str) -> f64 {
        let i = self
            .rows
            .iter()
            .position(|r| r.name() == name)
            .unwrap_or_else(|| panic!("no sim-mesh row named {name}"));
        self.virt_s[i]
    }

    /// Messages per host second over the rows `keep` selects.
    pub fn msgs_per_s(&self, keep: impl Fn(&Row) -> bool) -> f64 {
        let (mut msgs, mut ns) = (0u64, 0u64);
        for (i, row) in self.rows.iter().enumerate() {
            if keep(row) {
                msgs += self.sends[i];
                ns += self.host_ns[i];
            }
        }
        msgs as f64 * 1e9 / ns.max(1) as f64
    }
}

/// `core.selector` and `costmodel`: what a selection costs.
fn selection_cost(out: &mut Layers, budget: Duration) {
    for (label, world) in [
        ("lin30", World::Line(30)),
        ("mesh8x8", World::Mesh(8, 8)),
        ("mesh16x32", World::Mesh(16, 32)),
    ] {
        let null = NullComm::new(0, world.ranks());
        let cc = sim::communicator(world, &null);
        let ns = time_ns(budget, || {
            for n in SIZES {
                black_box(cc.auto_strategy(CollectiveOp::CombineToAll, black_box(n)));
            }
        });
        out.set(
            format!("core.selector.choose_ns.{label}"),
            ns / SIZES.len() as f64,
        );
    }
    let world = World::Cluster(Backbone::Paragon);
    let null = NullComm::new(0, world.ranks());
    let cc = sim::communicator(world, &null);
    let ns = time_ns(budget, || {
        for n in SIZES {
            black_box(cc.auto_choice(CollectiveOp::CombineToAll, black_box(n)));
        }
    });
    out.set("costmodel.choose_hier_ns.2x2x4", ns / SIZES.len() as f64);
}

/// `costmodel.model_rel_err`: how far the price of the strategy the
/// selector picked is from the simulator's time for it.
fn model_error(out: &mut Layers, facts: &SimFacts) {
    let (mut mesh, mut clus) = (Vec::new(), Vec::new());
    for (row, &virt) in facts.rows.iter().zip(&facts.virt_s) {
        let null = NullComm::new(0, row.world.ranks());
        let cc = sim::communicator(row.world, &null);
        let (op, n) = (cost_op(row.op), row.payload());
        let predicted = match (row.world, cc.auto_choice(op, n)) {
            (World::Cluster(b), HierChoice::Flat(s)) => {
                flat_on_cluster_cost(op, &s, n, &b.machine())
            }
            (World::Cluster(b), HierChoice::Hier(h)) => hier_cost(op, &h, n, &b.machine()),
            (_, HierChoice::Hier(_)) => unreachable!("a flat world selects flat strategies"),
            (_, HierChoice::Flat(s)) => {
                let ctx = if s.mesh_split.is_some() {
                    CostContext::mesh_with(&PARAGON)
                } else {
                    CostContext::linear_with(&PARAGON)
                };
                hybrid_cost(op, &s, ctx).eval(n, &PARAGON)
            }
        };
        let err = (predicted - virt).abs() / virt;
        match row.world {
            World::Cluster(_) => clus.push(err),
            _ => mesh.push(err),
        }
    }
    out.set("costmodel.model_rel_err.mesh", median(&mesh));
    out.set("costmodel.model_rel_err.cluster", median(&clus));
}

/// `costmodel.select_regret`: simulated time of the automatic pick over
/// the best simulated time among the candidates. 1 means the selector
/// found the best; the worst case over the lengths is reported.
fn selection_regret(out: &mut Layers, facts: &SimFacts, pat: &Pattern, ok: &mut bool) {
    let mut virt = |row: Row, algo: Option<&Algo>| -> f64 {
        let r = sim::run_row((row, 0), pat, Depth::Edges, algo, None);
        *ok &= r.ok;
        r.virt_s
    };

    let mut worst = 0f64;
    for bytes in [8, 4 << 10, 32 << 10, 256 << 10, 1 << 20] {
        let row = Row {
            world: World::Line(30),
            op: Op::Bcast,
            bytes,
        };
        let auto = virt(row, None);
        let best = rank_strategies(
            CollectiveOp::Broadcast,
            30,
            bytes,
            &PARAGON,
            CostContext::linear_with(&PARAGON),
            0,
        )
        .into_iter()
        .map(|c| virt(row, Some(&Algo::Hybrid(c.strategy))))
        .fold(f64::INFINITY, f64::min);
        worst = worst.max(auto / best);
    }
    out.set("costmodel.select_regret.lin30", worst);

    let mut worst = 0f64;
    for (row, &auto) in facts.rows.iter().zip(&facts.virt_s) {
        let World::Cluster(backbone) = row.world else {
            continue;
        };
        let null = NullComm::new(0, row.world.ranks());
        let cc = sim::communicator(row.world, &null);
        let (op, n) = (cost_op(row.op), row.payload());
        let flat = virt(*row, Some(&Algo::Hybrid(cc.auto_strategy(op, n))));
        let hier = select_hier(op, cluster_shape(), n, &backbone.machine())
            .map_or(f64::INFINITY, |h| virt(*row, Some(&Algo::HierHybrid(h))));
        worst = worst.max(auto / flat.min(hier));
    }
    out.set("costmodel.select_regret.cluster", worst);
}

/// `core.ir`: lowering, the pass pipeline, the cache and the interpreter.
fn schedule_ir(out: &mut Layers, budget: Duration) {
    // A fixed key set: four collectives on three group sizes, each
    // under the strategy selected for a short and for a long vector,
    // lowered for vectors shorter than the group (where the optimizer
    // has empty messages to elide) and longer.
    let mut keys = Vec::new();
    for p in [9, 30, 64] {
        let null = NullComm::new(0, p);
        let cc = Communicator::world(&null, PARAGON);
        for (plan_op, op) in [
            (PlanOp::Broadcast { root: 0 }, CollectiveOp::Broadcast),
            (PlanOp::AllReduce, CollectiveOp::CombineToAll),
            (PlanOp::Collect, CollectiveOp::Collect),
            (PlanOp::ReduceScatter, CollectiveOp::DistributedCombine),
        ] {
            for select_at in [8, 1 << 20] {
                for elems in [4, 256] {
                    keys.push((plan_op, cc.auto_strategy(op, select_at), p, elems));
                }
            }
        }
    }
    let lower_all = || -> Vec<_> {
        keys.iter()
            .map(|(op, s, p, n)| lower(*op, Some(s), *p, *n, 8).expect("the key set lowers"))
            .collect()
    };
    let programs = lower_all();
    let ns = time_ns(budget, || {
        black_box(lower_all());
    });
    out.set("core.ir.lower_us", ns / 1e3 / keys.len() as f64);
    let ns = time_ns(budget, || {
        for prog in &programs {
            black_box(optimize(prog));
        }
    });
    out.set("core.ir.opt_us", ns / 1e3 / keys.len() as f64);
    let before: usize = programs.iter().map(|p| p.comm_steps()).sum();
    let after: usize = programs.iter().map(|p| optimize(p).0.comm_steps()).sum();
    out.set("core.ir.opt_msgs_ratio", after as f64 / before as f64);

    // The cache, on a 64-rank allreduce.
    let (op, strategy, p, _) = keys
        .iter()
        .find(|(op, _, p, _)| *op == PlanOp::AllReduce && *p == 64)
        .expect("the key set holds a 64-rank allreduce")
        .clone();
    let key = |n| PlanKey {
        op,
        p,
        n,
        elem_size: 8,
        strategy: Some(strategy.clone()),
        hier: None,
        opt: OptLevel::Full,
    };
    let cache = global_cache();
    let hit = key(256);
    cache.get_or_compile(&hit).expect("the key compiles");
    let ns = time_ns(budget, || {
        black_box(cache.get_or_compile(&hit).is_ok());
    });
    out.set("core.ir.cache_hit_ns", ns);
    // Each lookup of a length never seen before is a miss that compiles.
    let misses: Vec<f64> = (0..15)
        .map(|i| {
            let fresh = key(1009 + i);
            let t = Instant::now();
            black_box(cache.get_or_compile(&fresh).is_ok());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.set("core.ir.cache_miss_us", median(&misses));

    // The interpreter on the shortest program there is: a planned
    // one-element allreduce at an interior rank of the 8×8 mesh.
    let world = World::Mesh(8, 8);
    let null = NullComm::new(27, world.ranks());
    let cc = sim::communicator(world, &null);
    let plan = AllreducePlan::<f64>::new(&cc, 1, ReduceOp::Sum);
    let steps = plan.program().expect("the plan compiled").ranks[27]
        .steps
        .len();
    let mut v = [1.0];
    let ns = time_ns(budget, || {
        v[0] = 1.0;
        black_box(plan.execute(&cc, &mut v).is_ok());
    });
    out.set("core.ir.exec_ns_per_step", ns / steps.max(1) as f64);
}

/// `core.communicator.construct_us` and the fold and copy kernels.
fn construction_and_kernels(out: &mut Layers, budget: Duration) {
    for (label, world) in [
        ("mesh16x32", World::Mesh(16, 32)),
        ("cluster2x2x4", World::Cluster(Backbone::Paragon)),
    ] {
        let null = NullComm::new(0, world.ranks());
        let ns = time_ns(budget, || {
            black_box(sim::communicator(world, &null).size());
        });
        out.set(format!("core.communicator.construct_us.{label}"), ns / 1e3);
    }

    const N: usize = 4 << 20;
    let mut acc = vec![1.0f64; N / 8];
    let other = vec![1.0f64; N / 8];
    let ns = time_ns(budget, || {
        ReduceOp::Sum.fold_into(&mut acc, black_box(&other));
    });
    // bytes per nanosecond × 1000 = MB/s
    out.set("core.op.fold_MBps", N as f64 / ns * 1e3);
    let src = vec![7u8; N];
    let mut dst = vec![0u8; N];
    let ns = time_ns(budget, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    out.set("bench.memcpy_MBps", N as f64 / ns * 1e3);
}

/// `runtime`: the raw transport between two threads, no `Communicator`.
fn runtime_transport(out: &mut Layers, budget: Duration) {
    let spawn: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            run_world(2, |c| c.rank());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.set("runtime.world_spawn_us", median(&spawn));

    // Both ranks run the same number of iterations: rank 0 decides it
    // from the budget and tells rank 1 before each loop.
    let iterations = |c: &dyn Comm, tag: u64, one: &mut dyn FnMut()| -> (u32, f64) {
        let peer = 1 - c.rank();
        let mut word = [0u8; 4];
        if c.rank() == 0 {
            let t0 = Instant::now();
            one();
            let each = t0.elapsed().as_nanos().max(1);
            let n = (budget.as_nanos() / each).clamp(8, 200_000) as u32;
            c.send(peer, tag, &n.to_le_bytes()).expect("send count");
            let t = Instant::now();
            for _ in 0..n {
                one();
            }
            (n, t.elapsed().as_nanos() as f64 / f64::from(n))
        } else {
            one();
            c.recv(peer, tag, &mut word).expect("recv count");
            let n = u32::from_le_bytes(word);
            for _ in 0..n {
                one();
            }
            (n, 0.0)
        }
    };
    let results = run_world(2, |c| {
        let (rank, peer) = (c.rank(), 1 - c.rank());
        let small = [0u8; 8];
        let mut small_in = [0u8; 8];
        let big = vec![1u8; 4 << 20];
        let mut big_in = vec![0u8; 4 << 20];

        let (_, pingpong) = iterations(c, 100, &mut || {
            if rank == 0 {
                c.send(peer, 1, &small).expect("ping");
                c.recv(peer, 1, &mut small_in).expect("pong");
            } else {
                c.recv(peer, 1, &mut small_in).expect("ping");
                c.send(peer, 1, &small).expect("pong");
            }
        });
        let (_, exchange8) = iterations(c, 101, &mut || {
            c.sendrecv(peer, &small, peer, &mut small_in, 2)
                .expect("exchange")
        });
        let (_, exchange16k) = iterations(c, 102, &mut || {
            c.sendrecv(peer, &big[..16 << 10], peer, &mut big_in[..16 << 10], 3)
                .expect("exchange")
        });
        let (_, exchange4m) = iterations(c, 103, &mut || {
            c.sendrecv(peer, &big, peer, &mut big_in, 4)
                .expect("exchange")
        });
        // One way, eager; a one-byte answer closes the loop so sends
        // cannot run ahead of the receiver.
        let (_, oneway4m) = iterations(c, 104, &mut || {
            if rank == 0 {
                c.send(peer, 5, &big).expect("send");
                c.recv(peer, 6, &mut small_in[..1]).expect("answer");
            } else {
                c.recv(peer, 5, &mut big_in).expect("recv");
                c.send(peer, 6, &small[..1]).expect("answer");
            }
        });
        [pingpong, exchange8, exchange16k, exchange4m, oneway4m]
    });
    let [pingpong, exchange8, exchange16k, exchange4m, oneway4m] = results[0];
    out.set("runtime.pingpong_rtt_us.8B", pingpong / 1e3);
    out.set("runtime.sendrecv_us.8B", exchange8 / 1e3);
    out.set(
        "runtime.sendrecv_MBps.16K",
        (16 << 10) as f64 / exchange16k * 1e3,
    );
    out.set(
        "runtime.sendrecv_MBps.4M",
        (4 << 20) as f64 / exchange4m * 1e3,
    );
    out.set("runtime.send_MBps.4M", (4 << 20) as f64 / oneway4m * 1e3);
}

/// `meshsim`: spawning a 512-rank world, and the fluid rate solver on a
/// seeded set of XY routes.
fn simulator_parts(out: &mut Layers, seed: u64, budget: Duration) {
    let cfg = sim::sim_config(World::Mesh(16, 32));
    let spawn: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            simulate(&cfg, |c| c.rank());
            t.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    out.set("meshsim.spawn_ms.p512", median(&spawn));

    // Directed links of a 16×32 mesh, numbered by (node, direction).
    let (rows, cols) = (16usize, 32usize);
    let link = |r: usize, c: usize, dir: usize| (r * cols + c) * 4 + dir;
    let mut rng = Rng::new(seed ^ 0xF1D);
    let flows: Vec<Vec<usize>> = (0..256)
        .map(|_| {
            let (mut r, mut c) = (
                rng.below(rows as u64) as usize,
                rng.below(cols as u64) as usize,
            );
            let (tr, tc) = (
                rng.below(rows as u64) as usize,
                rng.below(cols as u64) as usize,
            );
            let mut route = Vec::new();
            while c != tc {
                route.push(link(r, c, if tc > c { 0 } else { 1 }));
                c = if tc > c { c + 1 } else { c - 1 };
            }
            while r != tr {
                route.push(link(r, c, if tr > r { 2 } else { 3 }));
                r = if tr > r { r + 1 } else { r - 1 };
            }
            route
        })
        .collect();
    let caps = vec![1.0; rows * cols * 4];
    let ns = time_ns(budget, || {
        black_box(max_min_rates(black_box(&flows), &caps));
    });
    out.set("meshsim.fluid.solve_us.256flows", ns / 1e3);
}

/// `nx`: the NX baseline's simulated time over the library's, on 16×32
/// at 1 MiB. The paper reports 12.5× and 16×.
fn nx_baseline(out: &mut Layers, facts: &SimFacts, pat: &Pattern, ok: &mut bool) {
    let cfg = sim::sim_config(World::Mesh(16, 32));
    let p = 512;
    let n = 1 << 20;
    let report = simulate(&cfg, |c| {
        let mut buf = vec![0u8; n];
        if c.rank() == 0 {
            pat.fill_bcast(0, &mut buf);
        }
        nx_bcast(c, 0, &mut buf).is_ok() && pat.check_bcast(0, &buf)
    });
    *ok &= report.results.iter().all(|&r| r);
    out.set(
        "nx.virt_ratio.bcast_1M",
        report.elapsed / facts.virt_of("p512.bcast.1M"),
    );
    let report = simulate(&cfg, |c| {
        let mut buf = vec![0f64; n / 8];
        pat.fill_sum(c.rank(), 0, 0, &mut buf);
        nx_gdsum(c, &mut buf).is_ok() && pat.check_sum(p, 0, 0, &buf)
    });
    *ok &= report.results.iter().all(|&r| r);
    out.set(
        "nx.virt_ratio.gsum_1M",
        report.elapsed / facts.virt_of("p512.allreduce.1M"),
    );
}

/// Runs every probe. Returns whether every result a probe checked was
/// right.
pub fn run_all(out: &mut Layers, facts: &SimFacts, pat: &Pattern, seed: u64, quick: bool) -> bool {
    let budget = Duration::from_millis(if quick { 10 } else { 120 });
    let mut ok = true;
    selection_cost(out, budget);
    model_error(out, facts);
    selection_regret(out, facts, pat, &mut ok);
    schedule_ir(out, budget);
    construction_and_kernels(out, budget);
    runtime_transport(out, budget);
    simulator_parts(out, seed, budget);
    if !quick {
        nx_baseline(out, facts, pat, &mut ok);
    } else {
        // The quick row set has no 1 MiB rows to compare with.
        out.set("nx.virt_ratio.bcast_1M", 0.0);
        out.set("nx.virt_ratio.gsum_1M", 0.0);
    }
    out.set("repo.loc_rust", env::loc_rust() as f64);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_scales_with_the_work() {
        let spin = |n: u64| {
            let mut x = 0u64;
            for i in 0..n {
                x = black_box(x.wrapping_add(i));
            }
            x
        };
        let budget = Duration::from_millis(20);
        let short = time_ns(budget, || {
            black_box(spin(1_000));
        });
        let long = time_ns(budget, || {
            black_box(spin(10_000));
        });
        assert!(long > 4.0 * short, "{short} ns vs {long} ns");
    }

    #[test]
    fn facts_rate_counts_only_the_selected_rows() {
        let rows = sim::rows(true);
        let n = rows.len();
        let facts = SimFacts {
            rows,
            virt_s: vec![1e-3; n],
            host_ns: vec![1_000_000; n],
            sends: vec![500; n],
        };
        assert_eq!(facts.msgs_per_s(|_| true), 500_000.0);
        assert_eq!(
            facts.msgs_per_s(|r| matches!(r.world, World::Cluster(_))),
            500_000.0
        );
        assert_eq!(facts.msgs_per_s(|_| false), 0.0);
    }
}
