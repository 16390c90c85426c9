//! The strategy enumerators list each schedule once: no two candidates
//! of one enumeration lower to the same program. Two candidates that do
//! are one schedule priced, cached and audited twice.
//!
//! Programs are compared by their steps and radices, with scratch
//! offsets erased: two lowerings of one hierarchical collect or
//! reduce-scatter can lay out their scratch differently.

use intercom::ir::{lower, lower_hier, Buf, CollectiveProgram, Loc, PlanOp, StepKind};
use intercom_cost::{
    enumerate_hier_strategies, enumerate_mesh_strategies, ClusterShape, CollectiveOp,
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

/// A program as its schedule: every rank's steps with scratch offsets
/// erased, and the radices its permutations index.
type Schedule = (Vec<Vec<StepKind>>, Vec<Vec<usize>>);

fn erase(loc: Loc) -> Loc {
    let buf = loc.buf;
    match buf {
        Buf::Scratch => Loc { off: 0, ..loc },
        Buf::Arg(_) => loc,
    }
}

fn schedule(prog: &CollectiveProgram) -> Schedule {
    let e = erase;
    let steps = prog.ranks.iter().map(|rank| {
        let erased = rank.steps.iter().map(|step| match step.kind {
            StepKind::Send { to, tag_off, src } => StepKind::Send {
                to,
                tag_off,
                src: e(src),
            },
            StepKind::Recv { from, tag_off, dst } => StepKind::Recv {
                from,
                tag_off,
                dst: e(dst),
            },
            StepKind::SendRecv {
                to,
                src,
                from,
                dst,
                tag_off,
            } => StepKind::SendRecv {
                to,
                src: e(src),
                from,
                dst: e(dst),
                tag_off,
            },
            StepKind::RecvReduce { from, tag_off, acc } => StepKind::RecvReduce {
                from,
                tag_off,
                acc: e(acc),
            },
            StepKind::SendRecvReduce {
                to,
                src,
                from,
                acc,
                tag_off,
            } => StepKind::SendRecvReduce {
                to,
                src: e(src),
                from,
                acc: e(acc),
                tag_off,
            },
            StepKind::Copy { src, dst } => StepKind::Copy {
                src: e(src),
                dst: e(dst),
            },
            StepKind::Permute {
                region,
                held,
                radices,
            } => StepKind::Permute {
                region: e(region),
                held: e(held),
                radices,
            },
            StepKind::Reduce { acc, other } => StepKind::Reduce {
                acc: e(acc),
                other: e(other),
            },
            kind @ (StepKind::Compute { .. } | StepKind::CallOverhead) => kind,
        });
        erased.collect()
    });
    (steps.collect(), prog.radices.clone())
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
        let s = schedule(&lower(c));
        match seen.iter().find(|(other, _)| *other == s) {
            Some((_, first)) => out.push(format!("{what}: {first} and {c}")),
            None => seen.push((s, c)),
        }
    }
    out
}

#[test]
fn no_two_hierarchical_candidates_are_one_schedule() {
    let shape = |inter_rows, inter_cols, ranks_per_node| ClusterShape {
        inter_rows,
        inter_cols,
        ranks_per_node,
    };
    let shapes = [
        shape(1, 4, 4),
        shape(2, 2, 4),
        shape(1, 8, 2),
        shape(1, 6, 1),
        shape(1, 2, 8),
        shape(2, 3, 2),
        shape(3, 3, 2),
        shape(1, 3, 3),
    ];
    let mut dups = Vec::new();
    for shape in shapes {
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
