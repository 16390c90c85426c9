//! Seeded defects: a valid schedule, or its programs, next to the same
//! artifact with one known defect. The `schedule-audit` binary's flat
//! mutation probes and the crate's mutation tests both build their
//! defects here, so a check's teeth are exercised on one artifact: the
//! check must pass the clean one and catch the broken one.

use crate::{extract_programs, match_programs, Event, Schedule};
use intercom::ir::{lower, CollectiveProgram, Loc, PlanOp, StepKind};
use intercom::trace::{MemSpan, OpRecord};
use intercom_cost::{Strategy, StrategyKind};
use intercom_topology::Mesh2D;

/// Moves the first communication of `rank`'s program to the next tag:
/// its partner then waits on the original tag forever.
pub fn bump_first_tag(programs: &mut [Vec<OpRecord>], rank: usize) {
    let bumped = programs[rank].iter_mut().find_map(|op| match op {
        OpRecord::Send { tag, .. }
        | OpRecord::Recv { tag, .. }
        | OpRecord::SendRecv { tag, .. } => {
            *tag += 1;
            Some(())
        }
        _ => None,
    });
    bumped.expect("the rank communicates");
}

/// An 8-rank MST broadcast's schedule, and the same with the root's
/// step-1 send moved to step 0: the root then talks to two children at
/// once, which the single-port check must catch.
pub fn step_move() -> (Schedule, Schedule) {
    let st = Strategy::pure_mst(8);
    let programs =
        extract_programs(&PlanOp::Broadcast { root: 0 }, Some(&st), 8, 64).expect("extract");
    let clean = match_programs(&programs).expect("valid schedule");
    let mut moved = clean.clone();
    let idx = moved
        .events
        .iter()
        .position(|e| e.src == 0 && e.step == 1)
        .expect("root sends at step 1");
    moved.events[idx].step = 0;
    moved.events.sort_by_key(|e| e.step);
    (clean, moved)
}

/// A 4-rank MST broadcast's programs, and the same with rank 1's first
/// tag bumped: the matcher must report a deadlock.
pub fn tag_bump() -> (Vec<Vec<OpRecord>>, Vec<Vec<OpRecord>>) {
    let st = Strategy::pure_mst(4);
    let clean =
        extract_programs(&PlanOp::Broadcast { root: 0 }, Some(&st), 4, 32).expect("extract");
    let mut bumped = clean.clone();
    bump_first_tag(&mut bumped, 1);
    (clean, bumped)
}

/// Two ranks swapping 8 bytes in one step, and the same with rank 0's
/// receive landing in the middle of the span it is still sending from:
/// the buffer-safety check must catch it.
pub fn buffer_overlap() -> (Schedule, Schedule) {
    let span = |addr: usize| MemSpan { addr, len: 8 };
    let ev = |src: usize, dst: usize, read: usize, write: usize| Event {
        step: 0,
        src,
        dst,
        tag: 0,
        bytes: 8,
        read: span(read),
        write: span(write),
    };
    let clean = Schedule {
        p: 2,
        steps: 1,
        events: vec![ev(0, 1, 100, 500), ev(1, 0, 700, 300)],
    };
    let mut broken = clean.clone();
    broken.events[1].write.addr = 104;
    (clean, broken)
}

/// A 1×4 mesh with two messages, 0→2 and 1→3, in steps of their own,
/// and the same two in one step, where both cross rank 1's east link:
/// the link analysis must see that link shared twice.
pub fn link_share() -> (Mesh2D, Schedule, Schedule) {
    let ev = |step: usize, src: usize, dst: usize| Event {
        step,
        src,
        dst,
        tag: 0,
        bytes: 4,
        read: MemSpan { addr: 0, len: 4 },
        write: MemSpan { addr: 64, len: 4 },
    };
    let clean = Schedule {
        p: 4,
        steps: 2,
        events: vec![ev(0, 0, 2), ev(1, 1, 3)],
    };
    let shared = Schedule {
        p: 4,
        steps: 1,
        events: vec![ev(0, 0, 2), ev(0, 1, 3)],
    };
    (Mesh2D::new(1, 4), clean, shared)
}

/// A 2×3 collect's program as lowered, the same with every rank's held
/// block moved into the region it permutes, and the same with a
/// radices entry naming more blocks than the region holds: the
/// permutation check must pass the first and catch the other two on
/// every rank.
pub fn bad_permutations() -> [CollectiveProgram; 3] {
    let st = Strategy::new(vec![2, 3], StrategyKind::ScatterCollect);
    let clean = lower(PlanOp::Collect, Some(&st), 6, 4, 1).expect("a 2×3 collect lowers");
    let mut overlapping = clean.clone();
    for step in overlapping.ranks.iter_mut().flat_map(|rp| &mut rp.steps) {
        if let StepKind::Permute { region, held, .. } = &mut step.kind {
            *held = Loc {
                len: held.len,
                ..*region
            };
        }
    }
    let mut miscounted = clean.clone();
    miscounted.radices[0] = vec![2, 4];
    [clean, overlapping, miscounted]
}
