//! Per-rank symbolic program extraction.
//!
//! Every collective in `intercom` branches only on
//! `(rank, size, n, strategy, root)` — never on received *values* — so
//! replaying one rank's call through the direct-path runner
//! ([`intercom::ir::run_direct`]) against a
//! [`RecordingComm`] yields exactly the
//! operation sequence that rank would issue against a real backend.
//! Running the same call once per rank produces the full symbolic
//! schedule for the matcher in [`crate::schedule`]. The size parameter
//! `n` follows [`PlanOp::args`], in bytes: the extraction uses `u8`
//! elements.

use intercom::comm::GroupComm;
use intercom::ir::{run_direct, OwnedArgs, PlanOp};
use intercom::trace::{OpRecord, RecordingComm};
use intercom::{ReduceOp, Result};
use intercom_cost::{HierChoice, Strategy};

/// Extracts every rank's symbolic program for one collective call on a
/// world of `p` ranks with size parameter `n`, under a flat or
/// hierarchical `choice`. The base tag is 0, so recorded tags encode the
/// recursion level directly (`tag / LEVEL_TAG_STRIDE`).
///
/// # Panics
///
/// Panics if `choice` is `None` for an op where
/// [`PlanOp::takes_strategy`] is true.
pub fn extract_programs_under(
    op: &PlanOp,
    choice: Option<&HierChoice>,
    p: usize,
    n: usize,
) -> Result<Vec<Vec<OpRecord>>> {
    (0..p)
        .map(|rank| {
            let rec = RecordingComm::new(rank, p);
            let mut bufs = OwnedArgs::<u8>::new(*op, p, n, rank);
            let gc = GroupComm::world(&rec);
            let (args, scratch) = (&mut bufs.bind(), &mut Vec::new());
            run_direct(*op, choice, &gc, ReduceOp::Sum, args, scratch, 0)?;
            Ok(rec.into_ops())
        })
        .collect()
}

/// Extracts all `p` ranks' programs for one flat collective call.
pub fn extract_programs(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    p: usize,
    n: usize,
) -> Result<Vec<Vec<OpRecord>>> {
    let choice = strategy.map(|s| HierChoice::Flat(s.clone()));
    extract_programs_under(op, choice.as_ref(), p, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_programs_do_not_communicate() {
        let st = Strategy::pure_mst(1);
        for op in [
            PlanOp::Broadcast { root: 0 },
            PlanOp::AllReduce,
            PlanOp::Collect,
        ] {
            let progs = extract_programs(&op, Some(&st), 1, 16).unwrap();
            assert!(progs[0].iter().all(|r| matches!(
                r,
                OpRecord::Compute { .. }
                    | OpRecord::CallOverhead
                    | OpRecord::Copy { .. }
                    | OpRecord::Reduce { .. }
                    | OpRecord::Permute { .. }
            )));
        }
        // Alltoall on a world of one is a single local own-block copy.
        let progs = extract_programs(&PlanOp::Alltoall, None, 1, 16).unwrap();
        assert!(progs[0].iter().all(|r| matches!(r, OpRecord::Copy { .. })));
    }

    #[test]
    fn mst_bcast_root_sends_log_times() {
        let st = Strategy::pure_mst(8);
        let progs = extract_programs(&PlanOp::Broadcast { root: 0 }, Some(&st), 8, 64).unwrap();
        let prog = &progs[0];
        let sends = prog
            .iter()
            .filter(|r| matches!(r, OpRecord::Send { .. }))
            .count();
        assert_eq!(sends, 3, "MST root sends once per halving level");
    }

    #[test]
    fn ring_collect_exchanges_p_minus_1_times() {
        let st = Strategy::pure_long(6);
        let progs = extract_programs(&PlanOp::Collect, Some(&st), 6, 12).unwrap();
        let prog = &progs[2];
        let xchg = prog
            .iter()
            .filter(|r| matches!(r, OpRecord::SendRecv { .. }))
            .count();
        assert_eq!(xchg, 5);
    }

    #[test]
    #[should_panic(expected = "requires a strategy")]
    fn missing_strategy_panics() {
        let _ = extract_programs(&PlanOp::AllReduce, None, 4, 8);
    }
}
