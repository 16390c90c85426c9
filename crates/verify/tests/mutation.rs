//! Mutation tests: seed a known defect into a valid schedule (or its
//! programs) and assert the corresponding check catches it. The defects
//! are [`intercom_verify::mutation`]'s, the ones the `schedule-audit`
//! binary's probes seed, so the checker's teeth are also exercised
//! under `cargo test`.

use intercom_verify::{
    analyze_links, check_buffer_safety, check_permutations, check_single_port, match_programs,
    mutation, programs_of, Violation,
};

/// Moving one MST send a step earlier makes the root talk to two
/// children at once — the single-port check must fire.
#[test]
fn moved_send_breaks_single_port() {
    let (clean, moved) = mutation::step_move();
    assert!(check_single_port(&clean).is_empty(), "baseline is clean");
    let v = check_single_port(&moved);
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
    let (clean, bumped) = mutation::tag_bump();
    assert!(match_programs(&clean).is_ok(), "baseline matches");
    match match_programs(&bumped) {
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
    let (clean, broken) = mutation::buffer_overlap();
    assert!(check_buffer_safety(&clean).is_empty());
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
    let (mesh, clean, shared) = mutation::link_share();
    assert_eq!(analyze_links(&clean, &mesh).max_sharing, 1);
    let la = analyze_links(&shared, &mesh);
    assert_eq!(la.max_sharing, 2, "0→2 and 1→3 share link 1→E");
    assert_eq!(la.per_tag_max.get(&0), Some(&2));
}

/// A collect's block permutation with its held block moved into the
/// region it permutes, or with radices naming more blocks than the
/// region holds, must trip the permutation check; as lowered, it passes.
#[test]
fn malformed_permutations_are_caught() {
    let [clean, overlapping, miscounted] = mutation::bad_permutations();
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
    assert!(whats(&clean).is_empty());
    let found = whats(&overlapping);
    assert_eq!(found.len(), 6, "one permutation a rank: {found:?}");
    assert!(found.iter().all(|w| w.contains("overlaps")), "{found:?}");
    let found = whats(&miscounted);
    assert_eq!(found.len(), 6, "{found:?}");
    assert!(found.iter().all(|w| w.contains("block count")), "{found:?}");
}
