//! Adapter from compiled [`CollectiveProgram`]s to the verifier's
//! symbolic-program form.
//!
//! The schedule IR is position-independent: step operands name
//! `(buffer, offset, length)` regions instead of raw addresses. The
//! rendezvous matcher and the invariant checks, however, reason about
//! byte spans, so this module re-bases every operand into a synthetic
//! per-rank address space — one disjoint window per argument slot plus
//! one for the scratch arena. Distinct regions map to distinct spans and
//! overlapping regions stay overlapping, so the four §2/§4 invariants
//! hold of the synthetic spans iff they hold of the compiled program.
//!
//! This makes the *compiled artifact itself* the verified object: the
//! audit proves properties of the very step lists the runtime and the
//! simulator execute, while trace extraction ([`crate::extract`])
//! remains as an independent cross-check on the lowering.

use intercom::ir::{lower, Buf, CollectiveProgram, Loc, PlanOp, StepKind};
use intercom::trace::{MemSpan, OpRecord, Radices};
use intercom::Result;
use intercom_cost::Strategy;

/// Synthetic base address of argument slot `i` (disjoint `2^40`-byte
/// windows, far larger than any real buffer).
fn arg_base(i: usize) -> usize {
    (i + 1) << 40
}

/// Synthetic base address of the scratch arena.
const SCRATCH_BASE: usize = 1 << 48;

/// Synthetic base address of the landing a fused receive stands for,
/// disjoint from the arguments and the arena.
const LANDING_BASE: usize = 1 << 47;

fn span(loc: Loc) -> MemSpan {
    let base = match loc.buf {
        Buf::Arg(i) => arg_base(i.into()),
        Buf::Scratch => SCRATCH_BASE,
    };
    let bytes = loc.bytes();
    MemSpan {
        addr: base + bytes.start,
        len: bytes.len(),
    }
}

/// Converts one compiled program into per-rank symbolic programs in the
/// verifier's span form (base tag 0, so tags encode recursion levels
/// exactly as trace extraction produces them). A fused receive becomes
/// the receive into a landing and the fold out of it that it stands for
/// — the ops it was lowered from, a synthetic landing window in place of
/// the temporary — so the checks see what they saw before fusion. A
/// permutation carries the radices its index names in the program's
/// table (none where the index is outside it), for the checks to hold
/// against its region.
pub fn programs_of(prog: &CollectiveProgram) -> Vec<Vec<OpRecord>> {
    prog.ranks
        .iter()
        .map(|rp| {
            let ops = rp
                .steps
                .iter()
                .map(|step| records(step.kind, &prog.radices));
            ops.flat_map(|(op, fold)| std::iter::once(op).chain(fold))
                .collect()
        })
        .collect()
}

/// The ops one step stands for: one, or a fused receive's two.
fn records(kind: StepKind, radices: &[Vec<usize>]) -> (OpRecord, Option<OpRecord>) {
    let fold = |acc: Loc| {
        let landing = MemSpan {
            addr: LANDING_BASE,
            len: acc.bytes().len(),
        };
        let reduce = OpRecord::Reduce {
            acc: span(acc),
            other: landing,
        };
        (landing, Some(reduce))
    };
    let op = match kind {
        StepKind::Send { to, tag_off, src } => OpRecord::Send {
            to: to.into(),
            tag: tag_off.into(),
            src: span(src),
        },
        StepKind::Recv { from, tag_off, dst } => OpRecord::Recv {
            from: from.into(),
            tag: tag_off.into(),
            dst: span(dst),
        },
        StepKind::SendRecv {
            to,
            src,
            from,
            dst,
            tag_off,
        } => OpRecord::SendRecv {
            to: to.into(),
            src: span(src),
            from: from.into(),
            dst: span(dst),
            tag: tag_off.into(),
        },
        StepKind::RecvReduce { from, tag_off, acc } => {
            let (dst, reduce) = fold(acc);
            let recv = OpRecord::Recv {
                from: from.into(),
                tag: tag_off.into(),
                dst,
            };
            return (recv, reduce);
        }
        StepKind::SendRecvReduce {
            to,
            src,
            from,
            acc,
            tag_off,
        } => {
            let (dst, reduce) = fold(acc);
            let exchange = OpRecord::SendRecv {
                to: to.into(),
                src: span(src),
                from: from.into(),
                dst,
                tag: tag_off.into(),
            };
            return (exchange, reduce);
        }
        // Exactly the exchange and the fold it was fused from.
        StepKind::SendRecvCombine {
            to,
            from,
            src,
            dst,
            other,
            len,
            tag_off,
        } => {
            let dst = span(dst.with_len(len));
            let exchange = OpRecord::SendRecv {
                to: to.into(),
                src: span(src.with_len(len)),
                from: from.into(),
                dst,
                tag: tag_off.into(),
            };
            let reduce = OpRecord::Reduce {
                acc: dst,
                other: span(other.with_len(len)),
            };
            return (exchange, Some(reduce));
        }
        StepKind::Copy { src, dst } => OpRecord::Copy {
            src: span(src),
            dst: span(dst),
        },
        StepKind::Reduce { acc, other } => OpRecord::Reduce {
            acc: span(acc),
            other: span(other),
        },
        StepKind::Permute {
            region,
            held,
            radices: index,
        } => OpRecord::Permute {
            region: span(region),
            held: span(held),
            radices: radices
                .get(usize::from(index))
                .and_then(|r| Radices::new(r)),
        },
        StepKind::Compute { bytes } => OpRecord::Compute {
            bytes: bytes as usize,
        },
        StepKind::CallOverhead => OpRecord::CallOverhead,
    };
    (op, None)
}

/// Lowers one flat collective call to the schedule IR (byte elements,
/// the same size convention as [`crate::extract::extract_programs`])
/// and returns its per-rank symbolic programs.
///
/// # Panics
///
/// Panics if `strategy` is `None` for an op where
/// [`PlanOp::takes_strategy`] is true.
pub fn ir_programs(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    p: usize,
    n: usize,
) -> Result<Vec<Vec<OpRecord>>> {
    Ok(programs_of(&lower(*op, strategy, p, n, 1)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_programs, extract_programs_under};
    use intercom::ir::lower_hier;
    use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierChoice, HierMachine};

    /// The communication signature — everything the matcher and the
    /// checks see except raw addresses.
    fn signature(progs: &[Vec<OpRecord>]) -> Vec<Vec<String>> {
        progs
            .iter()
            .map(|p| {
                p.iter()
                    .filter_map(|r| match *r {
                        OpRecord::Send { to, tag, src } => Some(format!("s{to}/{tag}/{}", src.len)),
                        OpRecord::Recv { from, tag, dst } => {
                            Some(format!("r{from}/{tag}/{}", dst.len))
                        }
                        OpRecord::SendRecv {
                            to,
                            src,
                            from,
                            dst,
                            tag,
                        } => Some(format!("x{to}/{from}/{tag}/{}/{}", src.len, dst.len)),
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn ir_and_trace_programs_share_a_signature() {
        let st = Strategy::pure_long(6);
        let op = PlanOp::AllReduce;
        let ir = ir_programs(&op, Some(&st), 6, 23).unwrap();
        let tr = extract_programs(&op, Some(&st), 6, 23).unwrap();
        assert_eq!(signature(&ir), signature(&tr));
    }

    #[test]
    fn hier_ir_and_trace_programs_share_a_signature() {
        let shapes = [
            ClusterShape {
                inter_rows: 2,
                inter_cols: 2,
                ranks_per_node: 4,
            },
            ClusterShape::linear(8, 2),
        ];
        for shape in shapes {
            let p = shape.ranks();
            for (op, cop, n) in [
                (
                    PlanOp::Broadcast { root: p - 1 },
                    CollectiveOp::Broadcast,
                    947,
                ),
                (PlanOp::Reduce { root: 0 }, CollectiveOp::CombineToOne, 947),
                (PlanOp::AllReduce, CollectiveOp::CombineToAll, 947),
                (PlanOp::Collect, CollectiveOp::Collect, 13),
                (PlanOp::ReduceScatter, CollectiveOp::DistributedCombine, 13),
            ] {
                let hs = select_hier(cop, shape, 4096, &HierMachine::delta_cluster()).unwrap();
                let ir = programs_of(&lower_hier(op, &hs, n, 1).unwrap());
                let choice = HierChoice::Hier(hs);
                let tr = extract_programs_under(&op, Some(&choice), p, n).unwrap();
                assert_eq!(signature(&ir), signature(&tr), "{op} on {shape}");
                assert!(signature(&ir).iter().any(|s| !s.is_empty()));
            }
        }
    }

    #[test]
    fn synthetic_spans_separate_args_and_scratch() {
        let st = Strategy::pure_mst(4);
        let progs = ir_programs(&PlanOp::Collect, Some(&st), 4, 8).unwrap();
        let spans: Vec<MemSpan> = progs
            .iter()
            .flatten()
            .filter_map(|r| match *r {
                OpRecord::Send { src, .. } => Some(src),
                OpRecord::Recv { dst, .. } => Some(dst),
                _ => None,
            })
            .collect();
        assert!(!spans.is_empty());
        for s in &spans {
            assert!(s.addr >= arg_base(0), "operands live in synthetic windows");
        }
    }
}
