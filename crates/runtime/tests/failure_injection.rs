//! Failure injection: ranks that die mid-collective must surface
//! [`CommError::Disconnected`] to their peers, never hang them.

use intercom::faults::POISON_TAG;
use intercom::{AbortCause, AbortInfo, Comm, CommError};
use intercom_runtime::{run_world, run_world_with};
use std::panic::AssertUnwindSafe;
use std::time::Duration;

/// Runs a world where rank `victim` exits immediately; surviving ranks
/// attempt `f` and report the error they saw.
fn world_with_early_exit<F>(p: usize, victim: usize, f: F) -> Vec<Option<CommError>>
where
    F: Fn(&intercom_runtime::ThreadComm) -> Result<(), CommError> + Send + Sync,
{
    run_world(p, |c| {
        if c.rank() == victim {
            // Dies without participating; its endpoint drops.
            return None;
        }
        Some(f(c).unwrap_err())
    })
    .into_iter()
    .collect()
}

#[test]
fn recv_from_dead_rank_disconnects() {
    let out = world_with_early_exit(3, 0, |c| {
        let mut buf = [0u8; 4];
        c.recv(0, 7, &mut buf)
    });
    assert_eq!(out[0], None);
    for r in [1, 2] {
        assert_eq!(out[r], Some(CommError::Disconnected), "rank {r}");
    }
}

#[test]
fn sendrecv_with_dead_partner_disconnects() {
    let out = world_with_early_exit(2, 1, |c| {
        let mut buf = [0u8; 1];
        // The send into the dead rank's closed mailbox fails (or the recv
        // does); either way the caller sees Disconnected rather than a
        // hang.
        c.sendrecv(1, &[9], 1, &mut buf, 0)
    });
    assert_eq!(out[1], None);
    assert_eq!(out[0], Some(CommError::Disconnected));
}

#[test]
fn collective_with_dead_member_errors_not_hangs() {
    // A broadcast that includes a dead rank must propagate an error to
    // at least the ranks that depend on it. We assert no rank panics and
    // the world terminates (the run_world call returning at all is the
    // real assertion; a hang would time the suite out).
    let out = run_world(4, |c| {
        if c.rank() == 2 {
            return Err(CommError::Disconnected); // simulated early death
        }
        let cc = intercom::Communicator::world(c, intercom_cost::MachineParams::PARAGON);
        let mut buf = vec![0u8; 64];
        // Rank 2 never participates: its tree children/parents see
        // Disconnected once their endpoints drop.
        cc.bcast(0, &mut buf)
    });
    // Rank 0 (root, sends to someone) may succeed or disconnect depending
    // on tree shape; ranks below 2 in the tree must error. At minimum:
    // nobody panicked (we got here), and at least one rank observed the
    // failure.
    assert!(out
        .iter()
        .any(|r| matches!(r, Err(CommError::Disconnected))));
    let _ = AssertUnwindSafe(());
}

#[test]
fn recv_from_silent_peer_times_out_not_hangs() {
    // Rank 1 is alive but silent past the deadline: the bounded wait
    // must expire with a Timeout naming the silent peer and the tag the
    // waiter was matching against, instead of blocking forever (or
    // reporting Disconnected — rank 1's endpoint is still up).
    let (out, _) = run_world_with(2, Duration::from_millis(100), None, |c| {
        if c.rank() == 1 {
            // Outlive rank 0's deadline without ever sending.
            std::thread::sleep(Duration::from_millis(400));
            return None;
        }
        let mut buf = [0u8; 4];
        Some(c.recv(1, 99, &mut buf).unwrap_err())
    });
    assert_eq!(out[1], None);
    match out[0] {
        Some(CommError::Timeout {
            from,
            tag,
            waited_ms,
        }) => {
            assert_eq!(from, 1);
            assert_eq!(tag, 99);
            assert!(waited_ms >= 100, "waited only {waited_ms}ms");
        }
        ref other => panic!("expected a bounded-wait timeout, got {other:?}"),
    }
}

#[test]
fn poison_record_wakes_a_blocked_receiver() {
    // A rank blocked on an unrelated tag must be woken the moment a
    // coordinated-abort poison record arrives, and must surface the
    // decoded diagnosis rather than its own timeout.
    let info = AbortInfo {
        origin: 1,
        culprit: 1,
        plan: 7,
        step: 3,
        cause: AbortCause::Stall,
    };
    let (out, _) = run_world_with(2, Duration::from_secs(5), None, |c| {
        if c.rank() == 1 {
            std::thread::sleep(Duration::from_millis(50));
            c.send(0, POISON_TAG, &info.encode()).unwrap();
            return None;
        }
        // Blocked waiting for a data message that will never come.
        let mut buf = [0u8; 4];
        Some(c.recv(1, 12, &mut buf).unwrap_err())
    });
    assert_eq!(out[0], Some(CommError::Aborted(info)));
}

#[test]
fn zero_length_messages_are_legal() {
    let out = run_world(2, |c| {
        let mut buf = [0u8; 0];
        if c.rank() == 0 {
            c.send(1, 3, &[])?;
        } else {
            c.recv(0, 3, &mut buf)?;
        }
        Ok::<_, CommError>(())
    });
    assert!(out.iter().all(|r| r.is_ok()));
}

#[test]
fn many_small_messages_preserve_order() {
    // Stress the (src, tag) FIFO under load: 500 messages per pair.
    let out = run_world(3, |c| {
        let me = c.rank();
        let next = (me + 1) % 3;
        let prev = (me + 2) % 3;
        for i in 0..500u32 {
            c.send(next, 42, &i.to_le_bytes()).unwrap();
        }
        let mut got = Vec::new();
        let mut buf = [0u8; 4];
        for _ in 0..500 {
            c.recv(prev, 42, &mut buf).unwrap();
            got.push(u32::from_le_bytes(buf));
        }
        got
    });
    for (r, seq) in out.iter().enumerate() {
        assert_eq!(seq, &(0..500).collect::<Vec<u32>>(), "rank {r}");
    }
}
