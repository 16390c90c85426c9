//! The selector picks what per-call enumeration picks, at every message
//! length, and prices its pick as the enumeration does: `choose` on a
//! line against `rank_strategies`, on a mesh against the first strict
//! minimum over the mesh enumeration, on a cluster against both per
//! stage plus arbitration; an envelope priced under another context
//! (the §2 model, `CostContext::LINEAR`) against the ranking under it.

use intercom_cost::select::envelope;
use intercom_cost::*;

fn machines() -> Vec<MachineParams> {
    let mut all = vec![
        MachineParams::PARAGON,
        MachineParams::PARAGON_MODEL,
        MachineParams::DELTA,
        MachineParams::IPSC860,
        MachineParams::UNIT,
    ];
    for cluster in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
        all.extend([*cluster.intra(), *cluster.inter()]);
    }
    all
}

/// Dense to `dense`, then geometric (×`num/den`) to 32 MiB.
fn lengths(dense: usize, num: usize, den: usize) -> Vec<usize> {
    let mut ns: Vec<usize> = (0..=dense).collect();
    while *ns.last().unwrap() < 32 << 20 {
        ns.push(ns.last().unwrap() * num / den + 1);
    }
    ns
}

/// One selection space: collective, a line or a mesh, machine, cost
/// context.
type Sel<'a> = (CollectiveOp, GroupShape, &'a MachineParams, CostContext);

/// Selection by enumeration: the first strict minimum of the price at
/// `n` — the full ranking's tie rule (its sort is stable).
fn pick((op, space, m, ctx): Sel, n: usize) -> Strategy {
    let (rows, cols) = match space {
        GroupShape::Mesh { rows, cols } => (rows, cols),
        line => {
            return rank_strategies(op, line.nodes(), n, m, ctx, 0)
                .swap_remove(0)
                .strategy
        }
    };
    let priced = enumerate_mesh_strategies(rows, cols, 0)
        .into_iter()
        .map(|s| (hybrid_cost(op, &s, ctx).eval(n, m), s));
    // `min_by` keeps the first of equal minima.
    let best = priced.min_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    best.unwrap().1
}

/// Compares lookup and enumeration over one space at `ns` and around
/// every breakpoint, and every breakpoint against the closed form. In
/// the space's own context (the machine's link excess) the lookup is
/// [`choose`], whose [`price`] must be the enumeration's price of its
/// pick bit for bit. Returns the number of lengths compared.
fn check_space(sel: Sel, ns: &[usize]) -> usize {
    let (op, space, m, ctx) = sel;
    let env = envelope(op, space, m, ctx);
    let entries: Vec<_> = env.intervals().collect();
    let mut points = ns.to_vec();
    for w in entries.windows(2) {
        let ((a, _, prev), (b, _, next)) = (w[0], w[1]);
        if a == b {
            continue; // co-winners of one interval
        }
        points.extend(b.saturating_sub(2)..=b + 2);
        // Lines tied at 0 cross "at 0" in the closed form; the argmin
        // moves at 1.
        let closed = crossover_length(prev, next, m).expect("the next line wins eventually");
        assert!(closed.max(1).abs_diff(b) <= 1, "{sel:?}: {closed} vs {b}");
    }
    let machine = HierMachine::flat(*m);
    let own = ctx == space.context(m);
    for &n in &points {
        let want = pick(sel, n);
        if !own {
            assert_eq!(env.at(n).0, &want, "{sel:?} n={n}");
            continue;
        }
        let want_price = hybrid_cost(op, &want, ctx).eval(n, m);
        let want = HierChoice::Flat(want);
        let got = choose(op, space, n, &machine);
        assert_eq!(got, want, "{sel:?} n={n}");
        let got_price = price(op, space, &got, n, &machine);
        assert_eq!(got_price.to_bits(), want_price.to_bits(), "{sel:?} n={n}");
    }
    points.len()
}

fn sweep(lines: &[usize], meshes: &[(usize, usize)], ns: &[usize]) -> usize {
    let mut points = 0;
    for op in CollectiveOp::ALL {
        for m in machines() {
            for &p in lines {
                for ctx in [CostContext::LINEAR, CostContext::linear_with(&m)] {
                    points += check_space((op, GroupShape::Linear(p), &m, ctx), ns);
                }
            }
            for &(rows, cols) in meshes {
                let ctx = CostContext::mesh_with(&m);
                points += check_space((op, GroupShape::Mesh { rows, cols }, &m, ctx), ns);
            }
        }
    }
    points
}

#[test]
fn lookup_equals_enumeration_on_a_reduced_grid() {
    let lines = [1, 6, 8, 13, 16, 20, 30, 36];
    sweep(&lines, &[(1, 6), (4, 6), (8, 8)], &lengths(48, 2, 1));
    // The benchmark's largest spaces, around every breakpoint.
    sweep(&[512], &[(16, 32)], &[0, 8, 1 << 20]);
}

/// The whole audit grid; `ci.sh` runs it in release and pins the count.
#[test]
#[ignore = "minutes in a debug build"]
fn lookup_equals_enumeration_on_the_audit_grid() {
    let audit: Vec<usize> = (1..=17).chain([24, 31, 32]).collect();
    let mut lines = audit.clone();
    lines.extend([30, 64, 512]);
    let mut meshes = vec![(8, 8), (15, 30), (16, 32)];
    for p in audit {
        meshes.extend((1..=p).filter(|r| p % r == 0).map(|r| (r, p / r)));
    }
    let points = sweep(&lines, &meshes, &lengths(600, 5, 4));
    println!("identity sweep: {points} points, 0 mismatches");
}

#[test]
fn rounding_ties_between_permuted_dims_follow_the_enumeration() {
    // Equal lines priced through different float sums: a one-winner
    // envelope returns (5x4, SSCC) and (9x5x10, SSSCCC) here.
    let (op, ctx) = (CollectiveOp::Broadcast, CostContext::LINEAR);
    let m = MachineParams::PARAGON;
    for (p, n, want) in [
        (20, 22_232, "(4x5, SSCC)"),
        (450, 27_586, "(5x9x10, SSSCCC)"),
    ] {
        let line = GroupShape::Linear(p);
        let got = envelope(op, line, &m, ctx).at(n).0.clone();
        assert_eq!(got.to_string(), want);
        assert_eq!(got, pick((op, line, &m, ctx), n));
    }
}

#[test]
fn degenerate_spaces_build_and_answer() {
    // One node, a prime count (no hybrids), δ = 0, γ = 0, and lengths
    // at both ends of `usize`.
    let mut m = MachineParams::UNIT;
    for gamma in [1.0, 0.0] {
        m.gamma = gamma;
        for op in CollectiveOp::ALL {
            for (p, n) in [(1, 0), (1, usize::MAX / 2), (13, 0), (13, usize::MAX / 2)] {
                let line = GroupShape::Linear(p);
                let mesh = GroupShape::Mesh { rows: 1, cols: p };
                assert_eq!(choose_flat(op, line, n, &m).nodes(), p);
                assert_eq!(choose_flat(op, mesh, n, &m).nodes(), p);
            }
        }
    }
}

/// [`choose`] on a cluster by enumeration: [`pick`] per strategy-taking
/// template stage and for the flat side, then the `<` arbitration on
/// the public price functions. Returns the pick and its price.
fn choose_by_enumeration(
    op: CollectiveOp,
    shape: ClusterShape,
    n: usize,
    m: &HierMachine,
) -> (HierChoice, f64) {
    let ctx = CostContext::linear_with(m.inter());
    let flat = pick((op, GroupShape::Linear(shape.ranks()), m.inter(), ctx), n);
    let (rows, cols) = (shape.inter_rows, shape.inter_cols);
    let stage = |spec: &StageSpec| {
        let params = m.level(spec.level as usize);
        let (space, ctx) = if spec.level == 1 && rows > 1 && cols > 1 {
            (
                GroupShape::Mesh { rows, cols },
                CostContext::mesh_with(params),
            )
        } else {
            (
                GroupShape::Linear(spec.group),
                CostContext::linear_with(params),
            )
        };
        pick((spec.op, space, params, ctx), spec.bytes(n))
    };
    let hier = hier_template(op, shape).map(|specs| {
        let strategies = specs.iter().filter(|s| s.takes_strategy()).map(stage);
        HierStrategy::new(op, shape, strategies.collect()).expect("one per strategy stage")
    });
    let flat_seconds = flat_on_cluster_cost(op, &flat, n, m);
    match hier.map(|h| (hier_cost(op, &h, n, m), h)) {
        Some((seconds, h)) if seconds < flat_seconds => (HierChoice::Hier(h), seconds),
        _ => (HierChoice::Flat(flat), flat_seconds),
    }
}

#[test]
fn choose_on_a_cluster_equals_selection_by_enumeration() {
    // The dense lengths cover every remainder of n modulo the node
    // count: stage volumes are floored.
    let ns = lengths(600, 5, 4);
    for (inter_rows, inter_cols, ranks_per_node) in [(1, 4, 4), (2, 2, 4), (1, 8, 2), (4, 4, 2)] {
        let cluster = ClusterShape {
            inter_rows,
            inter_cols,
            ranks_per_node,
        };
        let shape = GroupShape::Cluster(cluster);
        for m in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
            for op in CollectiveOp::ALL {
                for &n in &ns {
                    let (want, want_price) = choose_by_enumeration(op, cluster, n, &m);
                    let chosen = choose(op, shape, n, &m);
                    assert_eq!(chosen, want, "{op:?} {cluster} n={n}");
                    let priced = price(op, shape, &chosen, n, &m);
                    assert_eq!(
                        priced.to_bits(),
                        want_price.to_bits(),
                        "{op:?} {cluster} n={n}"
                    );
                }
            }
        }
    }
}
