//! The differential battery the IR suites share: a node battery, the
//! collectives and strategies run on it, and a deterministic payload.
#![allow(dead_code)] // each suite uses its own part

use intercom::ir::PlanOp;
use intercom_cost::{Strategy, StrategyKind};

/// Primes, powers of two, perfect squares and composites — the same
/// spread the schedule audit sweeps.
pub const NODE_COUNTS: [usize; 7] = [1, 4, 5, 9, 12, 16, 17];

/// Deterministic, rank- and position-dependent payload.
pub fn fill(rank: usize, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = ((i.wrapping_mul(7) + rank.wrapping_mul(31) + 3) % 251) as u8;
    }
}

/// Every collective the IR compiles, rooted at the first or last rank.
pub fn all_ops(p: usize) -> Vec<PlanOp> {
    let last = p - 1;
    vec![
        PlanOp::Broadcast { root: 0 },
        PlanOp::Reduce { root: last },
        PlanOp::AllReduce,
        PlanOp::ReduceScatter,
        PlanOp::Collect,
        PlanOp::Scatter { root: 0 },
        PlanOp::Gather { root: last },
        PlanOp::Alltoall,
        PlanOp::PipelinedBcast {
            root: 0,
            segments: 3,
        },
    ]
}

/// The pure short and long strategies, and a few hybrids at 12 and 16.
pub fn strategies(p: usize) -> Vec<Strategy> {
    let mut out = vec![Strategy::pure_mst(p), Strategy::pure_long(p)];
    if p == 12 {
        out.push(Strategy::new(vec![3, 4], StrategyKind::Mst));
        out.push(Strategy::new(vec![4, 3], StrategyKind::ScatterCollect));
    }
    if p == 16 {
        out.push(Strategy::new(vec![4, 4], StrategyKind::ScatterCollect));
    }
    out
}

/// `(op, strategy)` cells for world size `p`: strategy ops under every
/// strategy, strategy-free ops once.
pub fn cells(p: usize) -> Vec<(PlanOp, Option<Strategy>)> {
    let mut out = Vec::new();
    for op in all_ops(p) {
        if op.takes_strategy() {
            for st in strategies(p) {
                out.push((op, Some(st)));
            }
        } else {
            out.push((op, None));
        }
    }
    out
}
