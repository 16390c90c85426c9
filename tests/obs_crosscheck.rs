//! Cross-checks the observability layer against the static verifier:
//! the bytes the recorder *measures* on a real backend must equal the
//! bytes the symbolic schedule *proves*, rank for rank, byte for byte.
//!
//! Runs all seven collectives at p ∈ {4, 9, 12} under both pure
//! strategies on the threaded backend, and compares per-rank
//! `bytes_out` / `bytes_in` / message counts from `intercom-obs`
//! counters with the matched `intercom-verify` schedule. Any
//! instrumentation drift (an uncounted path, a double-counted
//! `sendrecv`, a tag-layout change) breaks the equality.

use intercom::ir::{run_filled, PlanOp};
use intercom_cost::Strategy;
use intercom_suite::driver::record_threads;
use intercom_suite::obs::{stage_of, EventKind, RunRecord};
use intercom_verify::{extract_programs, match_programs, Schedule};

/// Per-rank (bytes_out, bytes_in, msgs_sent, msgs_recvd) of a symbolic
/// schedule: every matched event is one message src → dst.
fn schedule_traffic(sched: &Schedule) -> Vec<(u64, u64, u64, u64)> {
    let mut t = vec![(0u64, 0u64, 0u64, 0u64); sched.p];
    for e in &sched.events {
        t[e.src].0 += e.bytes as u64;
        t[e.src].2 += 1;
        t[e.dst].1 += e.bytes as u64;
        t[e.dst].3 += 1;
    }
    t
}

fn recorded_traffic(run: &RunRecord) -> Vec<(u64, u64, u64, u64)> {
    run.counters
        .iter()
        .map(|c| (c.bytes_out, c.bytes_in, c.msgs_sent, c.msgs_recvd))
        .collect()
}

fn crosscheck(op: PlanOp, strategy: Option<&Strategy>, p: usize, n: usize) {
    let programs = extract_programs(&op, strategy, p, n).expect("extraction");
    let sched = match_programs(&programs).expect("schedule matches");
    let rec = record_threads(&op, strategy, p, n, 8192);
    let want = schedule_traffic(&sched);
    let got = recorded_traffic(&rec.run);
    let label = match strategy {
        Some(s) => format!("{op} p={p} n={n} strategy {s}"),
        None => format!("{op} p={p} n={n}"),
    };
    assert_eq!(
        want, got,
        "{label}: verifier schedule traffic (left) != recorded counters (right)"
    );
    // One trace event per message endpoint (the sender's Send/SendRecv
    // and the receiver's Recv); Reduce events track local compute only.
    let comm_events = rec
        .run
        .all_events()
        .filter(|e| e.kind != EventKind::Reduce)
        .count() as u64;
    assert_eq!(
        comm_events,
        rec.run.totals().msgs_sent + rec.run.totals().msgs_recvd,
        "{label}: one trace event per message endpoint"
    );
}

#[test]
fn recorded_bytes_match_verifier_schedules_exactly() {
    for p in [4usize, 9, 12] {
        // The seven collectives; vector ops at a prime length, block
        // ops at an awkward block size, roots at both ends.
        let root = p - 1;
        let strategied: [(PlanOp, usize); 5] = [
            (PlanOp::Broadcast { root }, 947),
            (PlanOp::Reduce { root: 0 }, 947),
            (PlanOp::AllReduce, 947),
            (PlanOp::ReduceScatter, 13),
            (PlanOp::Collect, 13),
        ];
        for st in [Strategy::pure_mst(p), Strategy::pure_long(p)] {
            for (op, n) in &strategied {
                crosscheck(*op, Some(&st), p, *n);
            }
        }
        for (op, n) in [
            (PlanOp::Scatter { root }, 13usize),
            (PlanOp::Gather { root: 0 }, 13),
        ] {
            crosscheck(op, None, p, n);
        }
    }
}

/// The obs crate mirrors the tag-layout constants rather than depending
/// on `intercom` (it must stay a leaf below both backends). This pins
/// the mirrored values to the real ones.
#[test]
fn obs_tag_constants_match_core_layout() {
    assert_eq!(
        intercom_suite::obs::LEVEL_TAG_STRIDE,
        intercom::algorithms::LEVEL_TAG_STRIDE,
        "obs mirrors core's per-level tag stride"
    );
    // CALL_TAG_STRIDE is private to the core communicator; observe it
    // through recorded tags of two back-to-back collective calls.
    use intercom::{Comm, Communicator};
    use intercom_cost::MachineParams;
    use intercom_runtime::{default_wait_timeout, run_world_with};
    let recs = Some(intercom_obs::recorders(2, 64));
    let (_, run) = run_world_with(2, default_wait_timeout(), recs, |c| {
        let cc = Communicator::world(c, MachineParams::PARAGON);
        let mut buf = vec![c.rank() as u8; 16];
        cc.bcast(0, &mut buf).unwrap();
        cc.bcast(0, &mut buf).unwrap();
    });
    let run = run.expect("recorded");
    let tags: Vec<u64> = run.events[0]
        .iter()
        .filter(|e| e.src == 0 && e.rank == 0)
        .map(|e| e.tag)
        .collect();
    assert_eq!(tags.len(), 2, "root sends once per broadcast");
    assert_eq!(
        tags[1] - tags[0],
        intercom_suite::obs::CALL_TAG_STRIDE,
        "successive collective calls advance by CALL_TAG_STRIDE"
    );
    // Identical in-call stage coordinates regardless of the call index.
    assert_eq!(stage_of(tags[0]), stage_of(tags[1]));
}

/// The driver and the verifier must agree on buffer shapes — a quick
/// end-to-end sanity check that the driver's `run_filled` actually runs
/// (the byte equality above would vacuously pass on an op that errored
/// out and moved nothing only if the verifier also produced zero
/// traffic).
#[test]
fn driver_moves_real_data() {
    let p = 4;
    let st = Strategy::pure_mst(p);
    let out = intercom_runtime::run_world(p, |c| {
        let bufs = run_filled(c, PlanOp::Broadcast { root: 0 }, Some(&st), 64).unwrap();
        bufs.slots[0]
            .1
            .clone()
            .expect("every rank binds the vector")
    });
    let root_pattern: Vec<u8> = (0..64).collect();
    assert!(out.iter().all(|buf| *buf == root_pattern));
}
