//! The paper's evaluation, regenerated: one function per table, figure
//! or section claim (EXPERIMENTS.md records what each prints).

use crate::args::Options;
use crate::measure::{bcast_time, collect_time, gsum_time, Series};
use crate::report::{csv, fmt_bytes, fmt_secs, pow2_sweep, Table, TABLE3_LENGTHS};
use intercom::comm::GroupComm;
use intercom::primitives::{optimal_segments, pipelined_ring_bcast};
use intercom::{Algo, Comm, Communicator, ReduceOp};
use intercom_cost::collective::hybrid_cost;
use intercom_cost::composed::render_catalog;
use intercom_cost::select::{envelope, GroupShape};
use intercom_cost::table2::paper_table2;
use intercom_cost::{
    enumerate_strategies, CollectiveOp, CostContext, CostExpr, MachineParams, Strategy,
    StrategyKind,
};
use intercom_meshsim::{simulate, SimConfig};
use intercom_topology::{Coord, Hypercube, Mesh2D, ProcGroup};

/// **Table 2**: "Some choices of hybrids and their expense when
/// broadcasting on a linear array with 30 nodes", listed in increasing
/// order of the β term.
pub fn table2(_: &Options) -> Result<(), String> {
    println!("Table 2 — broadcast hybrids on a linear array of 30 nodes");
    println!("(paper page 110; cost model of §6 with conflict factors)\n");

    // The strategies the paper lists (`intercom_cost::table2`'s fixture).
    let mut rows: Vec<(Strategy, f64)> = paper_table2()
        .into_iter()
        .map(|row| {
            let c = hybrid_cost(CollectiveOp::Broadcast, &row.strategy, CostContext::LINEAR);
            (row.strategy, c.beta_c)
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut t = Table::new(vec!["logical mesh", "hybrid", "time"]);
    for (s, _) in &rows {
        // The paper's table shows the α and β terms; drop the library's
        // δ bookkeeping for fidelity (it is reported by `fig2`/`table3`).
        let mut c = hybrid_cost(CollectiveOp::Broadcast, s, CostContext::LINEAR);
        c.delta_c = 0.0;
        t.row(vec![s.mesh_name(), s.letters(), c.display_over(30)]);
    }
    println!("{}", t.render());

    println!(
        "note: the MST broadcast costs 5α + 5nβ; hybrids above it in the\n\
         table are included to illustrate the mechanism (paper footnote 1).\n"
    );

    // Beyond the paper: the full enumeration and the frontier.
    let all = enumerate_strategies(30, 0);
    println!("full §6 design space for p = 30: {} strategies", all.len());
    let mut best_alpha = f64::INFINITY;
    let mut frontier = Vec::new();
    let mut by_beta: Vec<_> = all
        .iter()
        .map(|s| {
            let c = hybrid_cost(CollectiveOp::Broadcast, s, CostContext::LINEAR);
            (s, c)
        })
        .collect();
    by_beta.sort_by(|a, b| {
        a.1.beta_c
            .total_cmp(&b.1.beta_c)
            .then(a.1.alpha_c.total_cmp(&b.1.alpha_c))
    });
    for (s, c) in by_beta {
        if c.alpha_c < best_alpha {
            best_alpha = c.alpha_c;
            frontier.push((s, c));
        }
    }
    frontier.reverse();
    println!("Pareto frontier (α vs β), latency-optimal first:");
    let mut ft = Table::new(vec!["logical mesh", "hybrid", "time"]);
    for (s, c) in frontier {
        let shown = CostExpr { delta_c: 0.0, ..c };
        ft.row(vec![s.mesh_name(), s.letters(), shown.display_over(30)]);
    }
    println!("{}", ft.render());
    Ok(())
}

/// **Fig. 2**: predicted performance of the Table 2 broadcast hybrids
/// on a linear array of 30 nodes, with machine parameters similar to
/// those of the Paragon, for message lengths 8 B – 1 MB (log–log in the
/// paper). A CSV block (one column per hybrid), then the lower envelope
/// of the full strategy space with its exact crossover lengths.
pub fn fig2(_: &Options) -> Result<(), String> {
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
    let env = envelope(op, GroupShape::Linear(30), &machine, CostContext::LINEAR);
    println!("{env}");
    Ok(())
}

/// **Table 3**: times for representative collective communications on
/// a 16 × 32 mesh of nodes — NX baseline vs the InterCom library at
/// 8 B, 64 KB and 1 MB — on the simulated Paragon (`--quick`: an 8×16
/// mesh).
pub fn table3(o: &Options) -> Result<(), String> {
    let mesh = if o.quick {
        Mesh2D::new(8, 16)
    } else {
        Mesh2D::new(16, 32)
    };
    let machine = MachineParams::PARAGON;

    println!(
        "Table 3 — time (in sec.) for the representative collective\n\
         communications; all results for a {} of nodes (simulated\n\
         Paragon, alpha={:.0}us beta={:.1}ns/B gamma={:.0}ns/B delta={:.0}us).\n",
        mesh,
        machine.alpha * 1e6,
        machine.beta * 1e9,
        machine.gamma * 1e9,
        machine.delta * 1e6
    );

    // Paper's measured values for the 16x32 mesh, for side-by-side
    // comparison (NX, iCC) per (operation, length).
    let paper: &[(&str, [(f64, f64); 3])] = &[
        (
            "Broadcast",
            [(0.0012, 0.0013), (0.031, 0.012), (0.94, 0.075)],
        ),
        ("Collect", [(0.27, 0.0035), (0.32, 0.013), (0.51, 0.10)]),
        (
            "Global Sum",
            [(0.0036, 0.0041), (0.17, 0.024), (2.72, 0.17)],
        ),
    ];

    let mut t = Table::new(vec![
        "Operation",
        "length",
        "NX",
        "Intercom",
        "ratio",
        "paper NX",
        "paper iCC",
        "paper ratio",
    ]);

    for (op_idx, op) in ["Broadcast", "Collect", "Global Sum"].iter().enumerate() {
        for (len_idx, &n) in TABLE3_LENGTHS.iter().enumerate() {
            let run = |series: Series| -> f64 {
                let t0 = std::time::Instant::now();
                let sim = match op_idx {
                    0 => bcast_time(mesh, machine, n, series),
                    1 => collect_time(mesh, machine, n, series),
                    _ => gsum_time(mesh, machine, n, series),
                };
                eprintln!(
                    "[progress] {op} n={n} {}: sim={sim:.6}s (host {:.1?})",
                    series.label(),
                    t0.elapsed()
                );
                sim
            };
            let nx = run(Series::Nx);
            let icc = run(Series::IccAuto);
            let (pnx, picc) = paper[op_idx].1[len_idx];
            t.row(vec![
                op.to_string(),
                fmt_bytes(n),
                fmt_secs(nx),
                fmt_secs(icc),
                format!("{:.2}", nx / icc),
                fmt_secs(pnx),
                fmt_secs(picc),
                format!("{:.2}", pnx / picc),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "shape checks: NX competitive at 8 B (ratio < ~1.5); order-of-\n\
         magnitude iCC wins for 64 K/1 M collect & global sum; collect's\n\
         NX column nearly flat in n (sequential spanning trees)."
    );
    Ok(())
}

const FIG4_SERIES: [Series; 4] = [
    Series::IccAuto,
    Series::IccShort,
    Series::IccLong,
    Series::Nx,
];

fn fig4_panel(
    title: &str,
    mesh: Mesh2D,
    machine: MachineParams,
    sweep: &[usize],
    f: impl Fn(Mesh2D, MachineParams, usize, Series) -> f64,
) {
    println!("## {title} ({mesh})");
    let mut header: Vec<&str> = vec!["bytes"];
    header.extend(FIG4_SERIES.iter().map(|s| s.label()));
    let mut rows = Vec::new();
    for &n in sweep {
        let mut row = vec![n.to_string()];
        for s in FIG4_SERIES {
            row.push(format!("{:.6e}", f(mesh, machine, n, s)));
        }
        rows.push(row);
    }
    println!("{}", csv(&header, &rows));
}

/// **Fig. 4**: representative hybrid collectives on the simulated
/// Paragon. Left: collect on a 16 × 32 physical mesh. Right: broadcast
/// on a 15 × 30 physical mesh (far from a power of two). One CSV block
/// per panel with iCC (auto), iCC-short, iCC-long and NX over 8 B – 1 MB
/// (`--quick`: smaller meshes, a sparser sweep).
pub fn fig4(o: &Options) -> Result<(), String> {
    let machine = MachineParams::PARAGON;
    let (collect_mesh, bcast_mesh, step) = if o.quick {
        (Mesh2D::new(8, 16), Mesh2D::new(5, 10), 3)
    } else {
        (Mesh2D::new(16, 32), Mesh2D::new(15, 30), 2)
    };
    let sweep = pow2_sweep(8, 1 << 20, step);

    println!("Fig. 4 — simulated Paragon, machine = PARAGON preset\n");
    fig4_panel("Collect", collect_mesh, machine, &sweep, collect_time);
    fig4_panel("Broadcast", bcast_mesh, machine, &sweep, bcast_time);
    println!(
        "shape checks: iCC tracks min(short, long) with the crossover\n\
         visible mid-range; NX parallels iCC-short for broadcast but is\n\
         offset ~flat for collect; the 15x30 panel shows non-power-of-two\n\
         grids cost no cliff (the paper's headline claim)."
    );
    Ok(())
}

/// The §5 composed-algorithm cost catalog: the paper's inline cost
/// formulas for all seven collectives, regenerated from the model, on a
/// `--p`-node linear array (default 30).
pub fn section5(o: &Options) -> Result<(), String> {
    let p = o.p.unwrap_or(30);
    println!("§5 composed algorithms on a {p}-node linear array\n");
    println!("{}", render_catalog(p));
    println!("(α coefficients: ⌈log p⌉ = startup-optimal; 2⌈log p⌉ = within the");
    println!(" paper's factor-2 claim; p−1-class terms are the bucket algorithms)");
    Ok(())
}

/// One crossover-map row: the class of the winner at each `n = 2^e`,
/// read off the row's envelope.
fn crossover_row(p: usize, n_exps: &[u32], machine: &MachineParams) -> String {
    let op = CollectiveOp::Broadcast;
    let env = envelope(op, GroupShape::Linear(p), machine, CostContext::LINEAR);
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

/// The selector's phase diagram: which algorithm family wins at each
/// `(p, n)` point — the two-dimensional generalization of Fig. 2's lower
/// envelope, as an ASCII map (`M` pure MST, `S` pure scatter/collect,
/// `h` a 2-dim hybrid, `H` a ≥3-dim hybrid).
pub fn crossover_map(_: &Options) -> Result<(), String> {
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
        println!("{p:>5} |{}", crossover_row(p, &n_exps, &machine));
    }

    println!("\ncrossover reading: below the M→hybrid boundary startups dominate;");
    println!("prime p rows show the §6 caveat (no factorization → no hybrids:");
    println!("the selector jumps straight from M to S).");
    for p in [13usize, 31, 127] {
        println!("{p:>5} |{}   (prime)", crossover_row(p, &n_exps, &machine));
    }
    Ok(())
}

fn group_collect_time(mesh: Mesh2D, machine: MachineParams, members: Vec<usize>, n: usize) -> f64 {
    let b = (n / members.len()).max(1);
    let cfg = SimConfig::new(mesh, machine);
    let members2 = members.clone();
    simulate(&cfg, move |c| {
        let Ok(cc) = Communicator::from_group(c, machine, members2.clone(), Some(&mesh)) else {
            return; // not a member: idle
        };
        let mine = vec![c.rank() as u8; b];
        let mut all = vec![0u8; b * cc.size()];
        cc.allgather(&mine, &mut all).unwrap();
    })
    .elapsed
}

/// §9 group communication: the same collect over 64-node groups of
/// different physical shape on the simulated 16×32 Paragon.
///
/// "Performance for group operations is maintained by extracting
/// information about the physical layout of a user-specified group. In
/// cases where a group comprises a physical rectangular submesh, the
/// same row- and column-based techniques are used as in the whole-mesh
/// operations. When a group is unstructured or its structure cannot be
/// ascertained, it is treated as though it were a linear array."
pub fn groups(_: &Options) -> Result<(), String> {
    let mesh = Mesh2D::new(16, 32);
    let machine = MachineParams::PARAGON;
    println!("§9 — collect within 64-node groups of a 16x32 mesh\n");

    // (a) An 8×8 rectangular submesh: row/column staging applies.
    let mut submesh = Vec::new();
    for r in 4..12 {
        for c in 8..16 {
            submesh.push(mesh.id(Coord::new(r, c)));
        }
    }
    // (b) Two physical rows (contiguous ids, detected as unstructured
    //     rectangle 2×32 → submesh with long rows).
    let mut rows2: Vec<usize> = mesh.row_nodes(0);
    rows2.extend(mesh.row_nodes(1));
    // (c) A scattered group: a deterministically shuffled sample — ring
    //     neighbours land far apart, so bucket traffic crisscrosses the
    //     mesh with heavy link sharing (the true §9 fallback case).
    let mut scattered: Vec<usize> = (0..mesh.nodes()).step_by(8).collect();
    let mut state = 0xDEADBEEFu64;
    for i in (1..scattered.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        scattered.swap(i, j);
    }

    let mut t = Table::new(vec!["group", "structure", "bytes", "collect time (s)"]);
    for (name, members) in [
        ("8x8 submesh", submesh),
        ("2 full rows", rows2),
        ("scattered (stride 8)", scattered),
    ] {
        let g = ProcGroup::new(members.clone()).unwrap();
        let structure = format!("{}", g.structure(&mesh));
        for n in [512usize, 65536, 1 << 20] {
            let time = group_collect_time(mesh, machine, members.clone(), n);
            t.row(vec![
                name.to_string(),
                structure.clone(),
                fmt_bytes(n),
                format!("{time:.6}"),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "expected shape: the structured groups benefit from dedicated\n\
         row/column links; the scattered group pays linear-array conflict\n\
         factors (§9's fallback) — several × slower at 1 MB."
    );
    Ok(())
}

const RING: usize = 64;

fn ring_pipelined(machine: MachineParams, n: usize, jitter: f64, seed: u64) -> f64 {
    let cfg = SimConfig::new(Mesh2D::new(1, RING), machine).with_jitter(jitter, seed);
    let m = optimal_segments(RING, n, &machine);
    simulate(&cfg, move |c| {
        let gc = GroupComm::world(c);
        let mut buf = vec![0u8; n];
        pipelined_ring_bcast(&gc, 0, &mut buf, m, 0).unwrap();
    })
    .elapsed
}

fn ring_scatter_collect(machine: MachineParams, n: usize, jitter: f64, seed: u64) -> f64 {
    let cfg = SimConfig::new(Mesh2D::new(1, RING), machine).with_jitter(jitter, seed);
    simulate(&cfg, move |c| {
        let cc = Communicator::world(c, machine);
        let mut buf = vec![0u8; n];
        cc.bcast_with(0, &mut buf, &Algo::Long).unwrap();
    })
    .elapsed
}

/// The §8 experiment the paper *describes but does not plot*: pipelined
/// long-vector broadcasts are theoretically superior (β → 1·nβ vs the
/// scatter/collect broadcast's 2·nβ) yet "more succeptible to timing
/// irregulaties resulting from the more complex operating systems of
/// current generation machines … often outperformed by simpler
/// algorithms when implemented on real systems."
///
/// Both claims on the simulator: on an ideal ring the pipelined
/// broadcast wins for long vectors; with per-message timing jitter
/// (deterministic, seeded) its lock-step segment chain degrades much
/// faster than the scatter/collect broadcast, and the simpler algorithm
/// wins again — the reason InterCom shipped without it.
pub fn pipelined(_: &Options) -> Result<(), String> {
    let machine = MachineParams::PARAGON;
    println!("§8 — pipelined vs scatter/collect broadcast, {RING}-node ring\n");

    for jitter in [0.0f64, 1.0] {
        println!("== per-message jitter: {}% ==", (jitter * 100.0) as u32);
        let mut t = Table::new(vec![
            "bytes",
            "segments m*",
            "pipelined (s)",
            "scatter/collect (s)",
            "pipe/sc",
        ]);
        for n in [4096usize, 65536, 1 << 20] {
            // Average over a few seeds when jittered.
            let seeds: &[u64] = if jitter == 0.0 { &[0] } else { &[1, 2, 3, 4] };
            let pipe: f64 = seeds
                .iter()
                .map(|&s| ring_pipelined(machine, n, jitter, s))
                .sum::<f64>()
                / seeds.len() as f64;
            let sc: f64 = seeds
                .iter()
                .map(|&s| ring_scatter_collect(machine, n, jitter, s))
                .sum::<f64>()
                / seeds.len() as f64;
            t.row(vec![
                fmt_bytes(n),
                optimal_segments(RING, n, &machine).to_string(),
                format!("{pipe:.6}"),
                format!("{sc:.6}"),
                format!("{:.2}", pipe / sc),
            ]);
        }
        println!("{}", t.render());
    }
    println!(
        "expected shape: pipelined < scatter/collect at 1 MB without jitter;\n\
         the ratio degrades (or flips) under jitter — the paper's reason for\n\
         shipping the simpler algorithm."
    );
    Ok(())
}

/// A 64-node cube, an iPSC/860-era size.
const CUBE_DIM: u32 = 6;

fn cube_bcast(cube: Hypercube, m: MachineParams, n: usize, algo: Algo, jitter: f64) -> f64 {
    let cfg = SimConfig::hypercube(cube, m).with_jitter(jitter, 7);
    simulate(&cfg, move |c| {
        let cc = Communicator::world_on_hypercube(c, m, cube).unwrap();
        let mut buf = vec![0u8; n];
        cc.bcast_with(0, &mut buf, &algo).unwrap();
    })
    .elapsed
}

fn cube_bcast_pipelined(cube: Hypercube, m: MachineParams, n: usize, jitter: f64) -> f64 {
    let cfg = SimConfig::hypercube(cube, m).with_jitter(jitter, 7);
    let p = cube.nodes();
    let segs = optimal_segments(p, n, &m);
    simulate(&cfg, move |c| {
        // Pipeline along the Gray-code Hamiltonian ring.
        let gc = GroupComm::new(c, cube.gray_ring()).unwrap();
        let mut buf = vec![0u8; n];
        pipelined_ring_bcast(&gc, 0, &mut buf, segs, 0).unwrap();
    })
    .elapsed
}

fn cube_gsum(cube: Hypercube, m: MachineParams, n: usize) -> f64 {
    let cfg = SimConfig::hypercube(cube, m);
    simulate(&cfg, move |c| {
        let cc = Communicator::world_on_hypercube(c, m, cube).unwrap();
        let mut buf = vec![1.0f64; (n / 8).max(1)];
        cc.allreduce(&mut buf, ReduceOp::Sum).unwrap();
    })
    .elapsed
}

/// The §11 iPSC/860 port: the library on a simulated hypercube with
/// Gray-code ring embedding and hypercube-tuned machine constants,
/// reproducing the §8 observation on that machine class too — the
/// theoretically superior pipelined broadcast beats scatter/collect on
/// an ideal cube but degrades under timing irregularities.
pub fn hypercube(_: &Options) -> Result<(), String> {
    let cube = Hypercube::new(CUBE_DIM);
    let machine = MachineParams::IPSC860;
    println!("iPSC/860 port: {cube}, Gray-code ring embedding\n");

    println!("broadcast, simulated seconds:");
    let mut t = Table::new(vec![
        "bytes",
        "short (MST)",
        "long (SC)",
        "auto",
        "pipelined",
    ]);
    for n in [8usize, 4096, 65536, 1 << 20] {
        t.row(vec![
            fmt_bytes(n),
            format!("{:.6}", cube_bcast(cube, machine, n, Algo::Short, 0.0)),
            format!("{:.6}", cube_bcast(cube, machine, n, Algo::Long, 0.0)),
            format!("{:.6}", cube_bcast(cube, machine, n, Algo::Auto, 0.0)),
            format!("{:.6}", cube_bcast_pipelined(cube, machine, n, 0.0)),
        ]);
    }
    println!("{}", t.render());

    println!("§8 on the cube — 1 MB broadcast under timing jitter:");
    let mut t = Table::new(vec!["jitter", "scatter/collect", "pipelined", "pipe/sc"]);
    for jitter in [0.0f64, 0.5, 1.0] {
        let sc = cube_bcast(cube, machine, 1 << 20, Algo::Long, jitter);
        let pipe = cube_bcast_pipelined(cube, machine, 1 << 20, jitter);
        t.row(vec![
            format!("{}%", (jitter * 100.0) as u32),
            format!("{sc:.6}"),
            format!("{pipe:.6}"),
            format!("{:.2}", pipe / sc),
        ]);
    }
    println!("{}", t.render());

    println!("global sum, simulated seconds:");
    let mut t = Table::new(vec!["bytes", "iCC auto"]);
    for n in [8usize, 65536, 1 << 20] {
        t.row(vec![
            fmt_bytes(n),
            format!("{:.6}", cube_gsum(cube, machine, n)),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}
