//! The strategy enumerators list each schedule once: no two candidates
//! of one enumeration lower to the same program. Two candidates that do
//! are one schedule priced, cached and audited twice. And lowering is a
//! function of its key: one hierarchical call lowered again and again
//! gives one program.

use intercom::ir::{lower, lower_hier, CollectiveProgram, PlanOp, RankProgram};
use intercom_cost::{
    enumerate_hier_strategies, enumerate_mesh_strategies, select_hier, ClusterShape, CollectiveOp,
    HierMachine,
};

/// The five collectives that run under a strategy, each with the
/// audit's awkward size: a prime vector length or block length.
const OPS: [(CollectiveOp, PlanOp, usize); 5] = [
    (CollectiveOp::Broadcast, PlanOp::Broadcast { root: 0 }, 947),
    (CollectiveOp::CombineToOne, PlanOp::Reduce { root: 0 }, 947),
    (CollectiveOp::CombineToAll, PlanOp::AllReduce, 947),
    (CollectiveOp::Collect, PlanOp::Collect, 13),
    (CollectiveOp::DistributedCombine, PlanOp::ReduceScatter, 13),
];

/// The audit's node counts: every size through 17, then 24, 31 and 32.
const NODE_COUNTS: [usize; 20] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 31, 32,
];

/// The audit's cluster shapes: linear and 2-D inter-node meshes, fat
/// and thin nodes, and one rank a node.
const SHAPES: [ClusterShape; 8] = [
    shape(1, 4, 4),
    shape(2, 2, 4),
    shape(1, 8, 2),
    shape(1, 6, 1),
    shape(1, 2, 8),
    shape(2, 3, 2),
    shape(3, 3, 2),
    shape(1, 3, 3),
];

const fn shape(inter_rows: usize, inter_cols: usize, ranks_per_node: usize) -> ClusterShape {
    ClusterShape {
        inter_rows,
        inter_cols,
        ranks_per_node,
    }
}

/// A program as its schedule: every rank's steps, scratch and landing
/// sizes, and the radices its permutations index.
type Schedule = (Vec<RankProgram>, Vec<Vec<usize>>);

fn schedule(prog: CollectiveProgram) -> Schedule {
    (prog.ranks, prog.radices)
}

/// Lowers every candidate and names each pair that lowers to one
/// schedule.
fn duplicates<S: std::fmt::Display>(
    what: &str,
    candidates: &[S],
    lower: impl Fn(&S) -> CollectiveProgram,
) -> Vec<String> {
    let mut seen: Vec<(Schedule, &S)> = Vec::new();
    let mut out = Vec::new();
    for c in candidates {
        let s = schedule(lower(c));
        match seen.iter().find(|(other, _)| *other == s) {
            Some((_, first)) => out.push(format!("{what}: {first} and {c}")),
            None => seen.push((s, c)),
        }
    }
    out
}

#[test]
fn no_two_hierarchical_candidates_are_one_schedule() {
    let mut dups = Vec::new();
    for shape in SHAPES {
        for (cop, op, n) in OPS {
            let all = enumerate_hier_strategies(cop, shape, 0);
            dups.extend(duplicates(&format!("{op} on {shape}"), &all, |hs| {
                lower_hier(op, hs, n, 1).expect("an enumerated strategy lowers")
            }));
        }
    }
    assert!(
        dups.is_empty(),
        "{} duplicates:\n{}",
        dups.len(),
        dups.join("\n")
    );
}

#[test]
fn no_two_mesh_candidates_are_one_schedule() {
    let mut dups = Vec::new();
    for p in NODE_COUNTS {
        for rows in (1..=p).filter(|r| p % r == 0) {
            let cols = p / rows;
            let all = enumerate_mesh_strategies(rows, cols, 0);
            for (_, op, n) in OPS {
                dups.extend(duplicates(&format!("{op} on {rows}x{cols}"), &all, |s| {
                    lower(op, Some(s), p, n, 1).expect("an enumerated strategy lowers")
                }));
            }
        }
    }
    assert!(
        dups.is_empty(),
        "{} duplicates:\n{}",
        dups.len(),
        dups.join("\n")
    );
}

#[test]
fn a_hierarchical_call_lowers_to_one_program() {
    let mut varying = Vec::new();
    for machine in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
        for shape in SHAPES {
            for (cop, op, _) in OPS {
                for n in [1, 13, 947] {
                    for elem_size in [1, 8] {
                        // The op's whole vector: a block a rank for
                        // collect and reduce-scatter.
                        let blocks = match op {
                            PlanOp::Collect | PlanOp::ReduceScatter => shape.ranks(),
                            _ => 1,
                        };
                        let bytes = blocks * n * elem_size;
                        let hs = select_hier(cop, shape, bytes, &machine).expect("a pick");
                        let lowered = || schedule(lower_hier(op, &hs, n, elem_size).unwrap());
                        let first = lowered();
                        if (1..20).any(|_| lowered() != first) {
                            varying.push(format!("{op} {hs} n={n} elem_size={elem_size}"));
                        }
                    }
                }
            }
        }
    }
    assert!(
        varying.is_empty(),
        "{} calls lower to more than one program:\n{}",
        varying.len(),
        varying.join("\n")
    );
}
