//! Mutation tests: seed a known defect into a valid schedule (or its
//! programs) and assert the corresponding check catches it. These mirror
//! the `schedule-audit` binary's probes so the checker's teeth are also
//! exercised under `cargo test`.

use intercom::ir::{lower, Loc, PlanOp, StepKind};
use intercom::trace::{MemSpan, OpRecord};
use intercom_cost::{Strategy, StrategyKind};
use intercom_topology::Mesh2D;
use intercom_verify::{
    analyze_links, check_buffer_safety, check_permutations, check_single_port, extract_programs,
    match_programs, programs_of, Event, Schedule, Violation,
};

/// Moving one MST send a step earlier makes the root talk to two
/// children at once — the single-port check must fire.
#[test]
fn moved_send_breaks_single_port() {
    let st = Strategy::pure_mst(8);
    let programs = extract_programs(&PlanOp::Broadcast { root: 0 }, Some(&st), 8, 64).unwrap();
    let mut sched = match_programs(&programs).unwrap();
    assert!(check_single_port(&sched).is_empty(), "baseline is clean");
    let idx = sched
        .events
        .iter()
        .position(|e| e.src == 0 && e.step == 1)
        .expect("root sends at step 1");
    sched.events[idx].step = 0;
    sched.events.sort_by_key(|e| e.step);
    let v = check_single_port(&sched);
    assert!(
        v.iter().any(|v| matches!(
            v,
            Violation::MultiPort {
                rank: 0,
                role: "send",
                ..
            }
        )),
        "expected a MultiPort violation, got {v:?}"
    );
}

/// Bumping one rank's tag orphans its partner's receive: the matcher
/// must report a deadlock naming the stalled ranks.
#[test]
fn bumped_tag_deadlocks() {
    let st = Strategy::pure_mst(4);
    let mut programs = extract_programs(&PlanOp::Broadcast { root: 0 }, Some(&st), 4, 32).unwrap();
    assert!(match_programs(&programs).is_ok(), "baseline matches");
    programs[1]
        .iter_mut()
        .find_map(|op| match op {
            OpRecord::Send { tag, .. }
            | OpRecord::Recv { tag, .. }
            | OpRecord::SendRecv { tag, .. } => {
                *tag += 1;
                Some(())
            }
            _ => None,
        })
        .expect("rank 1 communicates");
    match match_programs(&programs) {
        Err(Violation::Deadlock { stuck, .. }) => {
            assert!(!stuck.is_empty());
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// Swapping a receive's landing area into a concurrently-sent span must
/// trip the buffer-safety check.
#[test]
fn overlapping_spans_break_buffer_safety() {
    let ev = |src: usize, dst: usize, read: MemSpan, write: MemSpan| Event {
        step: 0,
        src,
        dst,
        tag: 0,
        bytes: read.len,
        read,
        write,
    };
    let clean = Schedule {
        p: 2,
        steps: 1,
        events: vec![
            ev(
                0,
                1,
                MemSpan { addr: 100, len: 8 },
                MemSpan { addr: 500, len: 8 },
            ),
            ev(
                1,
                0,
                MemSpan { addr: 700, len: 8 },
                MemSpan { addr: 300, len: 8 },
            ),
        ],
    };
    assert!(check_buffer_safety(&clean).is_empty());
    let mut broken = clean.clone();
    // Receive into the middle of the span rank 0 is still sending from.
    broken.events[1].write = MemSpan { addr: 104, len: 8 };
    let v = check_buffer_safety(&broken);
    assert!(
        v.iter().any(|v| matches!(
            v,
            Violation::BufferOverlap {
                rank: 0,
                kind: "read/write",
                ..
            }
        )),
        "expected a BufferOverlap violation, got {v:?}"
    );
}

/// Forcing two same-step, same-tag messages over one east link must be
/// visible to the link analysis.
#[test]
fn forced_link_sharing_is_observed() {
    let mesh = Mesh2D::new(1, 4);
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
    assert_eq!(analyze_links(&clean, &mesh).max_sharing, 1);
    let broken = Schedule {
        p: 4,
        steps: 1,
        events: vec![ev(0, 0, 2), ev(0, 1, 3)],
    };
    let la = analyze_links(&broken, &mesh);
    assert_eq!(la.max_sharing, 2, "0→2 and 1→3 share link 1→E");
    assert_eq!(la.per_tag_max.get(&0), Some(&2));
}

/// A collect's block permutation with its held block moved into the
/// region it permutes, or with radices naming more blocks than the
/// region holds, must trip the permutation check; as lowered, it passes.
#[test]
fn malformed_permutations_are_caught() {
    let st = Strategy::new(vec![2, 3], StrategyKind::ScatterCollect);
    let prog = lower(PlanOp::Collect, Some(&st), 6, 4, 1).unwrap();
    let whats = |prog| -> Vec<&'static str> {
        let found = check_permutations(&programs_of(prog));
        found
            .into_iter()
            .map(|v| match v {
                Violation::BadPermutation { what, .. } => what,
                other => panic!("{other}"),
            })
            .collect()
    };
    assert!(whats(&prog).is_empty());
    let mut overlapping = prog.clone();
    for step in overlapping.ranks.iter_mut().flat_map(|rp| &mut rp.steps) {
        if let StepKind::Permute { region, held, .. } = &mut step.kind {
            *held = Loc {
                len: held.len,
                ..*region
            };
        }
    }
    let found = whats(&overlapping);
    assert_eq!(found.len(), 6, "one permutation a rank: {found:?}");
    assert!(found.iter().all(|w| w.contains("overlaps")), "{found:?}");
    let mut miscounted = prog.clone();
    miscounted.radices[0] = vec![2, 4];
    let found = whats(&miscounted);
    assert_eq!(found.len(), 6, "{found:?}");
    assert!(found.iter().all(|w| w.contains("block count")), "{found:?}");
}
