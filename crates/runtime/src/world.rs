//! World construction: one thread per rank, a mailbox per ordered pair.

use crate::endpoint::ThreadComm;
use crate::mailbox::Fabric;
use intercom_obs::{RankRecord, Recorder, RunRecord};
use std::sync::Arc;
use std::time::Duration;

/// The default bound on every blocking wait inside the threaded
/// runtime, generous enough that no healthy collective ever trips it.
/// [`run_world_with`] is the way to set another (the chaos harness
/// shrinks it to diagnose scripted stalls in milliseconds).
pub fn default_wait_timeout() -> Duration {
    Duration::from_secs(30)
}

/// Runs `f` on `p` ranks, each on its own OS thread with a connected
/// [`ThreadComm`] endpoint, and returns the per-rank results in rank
/// order. Panics (propagating the first rank panic) if any rank panics.
///
/// The closure is shared by reference across threads, so it must be
/// `Sync`; per-rank state belongs inside the closure body.
pub fn run_world<T, F>(p: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&ThreadComm) -> T + Send + Sync,
{
    run_world_with(p, default_wait_timeout(), None, f).0
}

/// [`run_world`] with an explicit bound on every blocking wait and,
/// optionally, per-rank observability.
///
/// A receive or rendezvous completion that exceeds `deadline` fails
/// with [`intercom::CommError::Timeout`] naming the silent peer,
/// instead of hanging (the fault-injection harness runs its stall
/// scenarios under a tight deadline).
///
/// With `recorders` (`recorders[i]` belongs to rank `i`), every
/// `send`/`recv`/`sendrecv`/`compute` is timestamped into the rank's
/// [`Recorder`] and the drained [`RunRecord`] is returned alongside the
/// results: [`intercom_obs::recorders`] builds enabled ones,
/// [`intercom_obs::disabled_recorders`] ones that price the hooks alone.
pub fn run_world_with<T, F>(
    p: usize,
    deadline: Duration,
    recorders: Option<Vec<Recorder>>,
    f: F,
) -> (Vec<T>, Option<RunRecord>)
where
    T: Send,
    F: Fn(&ThreadComm) -> T + Send + Sync,
{
    assert!(p > 0, "world must have at least one rank");
    let recording = recorders.is_some();
    let mut recs: Vec<Option<Recorder>> = match recorders {
        Some(v) => {
            assert_eq!(v.len(), p, "one recorder per rank");
            v.into_iter().map(Some).collect()
        }
        None => (0..p).map(|_| None).collect(),
    };
    // A pair's ring is allocated by its first post: a world of p ranks
    // starts with p² empty mailboxes, not p² rings.
    let fabric = Arc::new(Fabric::new(p));
    let f = &f;
    let fabric = &fabric;
    let joined: Vec<(T, Option<RankRecord>)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, recorder) in recs.iter_mut().enumerate() {
            let recorder = recorder.take();
            let builder = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(2 * 1024 * 1024);
            let handle = builder
                .spawn_scoped(scope, move || {
                    let mut comm = ThreadComm::new(rank, fabric.clone(), deadline);
                    if let Some(r) = recorder {
                        comm.attach_recorder(r);
                    }
                    let out = f(&comm);
                    let record = comm.take_recorder().map(|r| {
                        // Eager stores are counted by the endpoint;
                        // fold them into the drained counters.
                        let stats = comm.pool_stats();
                        r.with_counters(|c| {
                            c.pool_hits = stats.hits;
                            c.pool_misses = stats.misses;
                        });
                        r.finish()
                    });
                    (out, record)
                })
                .expect("failed to spawn rank thread");
            handles.push(handle);
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(v) => v,
                Err(e) => {
                    let msg = e
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| e.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic>");
                    panic!("rank {rank} panicked: {msg}");
                }
            })
            .collect()
    });
    let mut out = Vec::with_capacity(p);
    let mut ranks = Vec::with_capacity(if recording { p } else { 0 });
    for (v, record) in joined {
        out.push(v);
        if let Some(r) = record {
            ranks.push(r);
        }
    }
    let run = recording.then(|| RunRecord::from_ranks(ranks));
    if let Some(run) = &run {
        // Production telemetry: fold the drained counter totals into
        // the global metrics registry (one branch when disabled).
        intercom_obs::metrics::ingest_run("threads", run);
    }
    (out, run)
}

/// A recorded world at the default deadline: the unit tests' shorthand.
#[cfg(test)]
pub(crate) fn recorded<T, F>(p: usize, capacity: usize, f: F) -> (Vec<T>, RunRecord)
where
    T: Send,
    F: Fn(&ThreadComm) -> T + Send + Sync,
{
    let recorders = Some(intercom_obs::recorders(p, capacity));
    let (out, run) = run_world_with(p, default_wait_timeout(), recorders, f);
    (out, run.expect("recorders were given"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_RENDEZVOUS_THRESHOLD;
    use intercom::Comm;

    #[test]
    fn ranks_are_distinct_and_sized() {
        let out = run_world(5, |c| (c.rank(), c.size()));
        for (i, &(r, s)) in out.iter().enumerate() {
            assert_eq!(r, i);
            assert_eq!(s, 5);
        }
    }

    #[test]
    fn ring_pass() {
        // Each rank forwards a token around the ring; rank 0 injects.
        let out = run_world(6, |c| {
            let p = c.size();
            let me = c.rank();
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            let mut token = [0u8];
            if me == 0 {
                c.send(right, 1, &[42]).unwrap();
                c.recv(left, 1, &mut token).unwrap();
            } else {
                c.recv(left, 1, &mut token).unwrap();
                c.send(right, 1, &token).unwrap();
            }
            token[0]
        });
        assert!(out.iter().all(|&t| t == 42));
    }

    #[test]
    fn simultaneous_exchange_via_sendrecv() {
        let out = run_world(4, |c| {
            let p = c.size();
            let me = c.rank();
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            let mut got = [0u8];
            c.sendrecv(right, &[me as u8], left, &mut got, 9).unwrap();
            got[0] as usize
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked")]
    fn rank_panic_propagates() {
        run_world(3, |c| {
            if c.rank() == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_world_rejected() {
        run_world(0, |_| ());
    }

    #[test]
    fn world_of_one() {
        let out = run_world(1, |c| c.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn recorded_ring_pass_counts_and_times_every_hop() {
        let (out, run) = recorded(4, 64, |c| {
            let p = c.size();
            let me = c.rank();
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            let mut got = [0u8; 8];
            c.sendrecv(right, &[me as u8; 8], left, &mut got, 3)
                .unwrap();
            got[0] as usize
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
        assert_eq!(run.p(), 4);
        for rank in 0..4 {
            let c = &run.counters[rank];
            assert_eq!(c.msgs_sent, 1);
            assert_eq!(c.msgs_recvd, 1);
            assert_eq!(c.bytes_out, 8);
            assert_eq!(c.bytes_in, 8);
            assert_eq!(c.eager_msgs, 1, "8 B rides the eager path");
            assert_eq!(c.rendezvous_msgs, 0);
            // One Send + one Recv event, consistently stamped.
            assert_eq!(run.events[rank].len(), 2);
            for ev in &run.events[rank] {
                assert_eq!(ev.rank, rank);
                assert!(ev.end >= ev.start);
            }
            assert_eq!(run.dropped[rank], 0);
        }
    }

    #[test]
    fn recorded_rendezvous_exchange_marks_zero_copy() {
        let n = DEFAULT_RENDEZVOUS_THRESHOLD;
        let (_, run) = recorded(2, 64, |c| {
            let peer = 1 - c.rank();
            let mine = vec![1u8; n];
            let mut got = vec![0u8; n];
            c.sendrecv(peer, &mine, peer, &mut got, 5).unwrap();
        });
        for c in &run.counters {
            assert_eq!(c.rendezvous_msgs, 1);
            assert_eq!(c.eager_msgs, 0);
            assert_eq!(c.pool_hits + c.pool_misses, 0, "zero-copy stores nothing");
        }
        // Each rank logs the SendRecv offer and the matching Recv.
        use intercom_obs::EventKind;
        for evs in &run.events {
            assert!(evs.iter().any(|e| e.kind == EventKind::SendRecv));
            assert!(evs.iter().any(|e| e.kind == EventKind::Recv));
        }
    }

    #[test]
    fn recorded_waits_say_whether_they_parked() {
        let (_, run) = recorded(2, 64, |c| {
            let mut buf = [0u8; 1];
            if c.rank() == 0 {
                // Far longer than the poll budget: rank 1 must park.
                std::thread::sleep(std::time::Duration::from_millis(20));
                c.send(1, 1, &[7]).unwrap();
                // Queued before the receive is posted: not a wait.
                c.send(0, 2, &[8]).unwrap();
                c.recv(0, 2, &mut buf).unwrap();
            } else {
                c.recv(0, 1, &mut buf).unwrap();
            }
        });
        let c = &run.counters;
        assert_eq!((c[1].polled_waits, c[1].parked_waits), (0, 1));
        assert_eq!((c[0].polled_waits, c[0].parked_waits), (0, 0));
    }

    #[test]
    fn observed_with_disabled_recorders_records_nothing() {
        let recorders = Some(intercom_obs::disabled_recorders(3));
        let (out, run) = run_world_with(3, default_wait_timeout(), recorders, |c| {
            c.send(c.rank(), 1, &[1, 2]).unwrap();
            let mut buf = [0u8; 2];
            c.recv(c.rank(), 1, &mut buf).unwrap();
            buf[1]
        });
        let run = run.expect("recorders were given");
        assert_eq!(out, vec![2, 2, 2]);
        assert_eq!(run.p(), 3);
        assert!(run.all_events().count() == 0);
        assert_eq!(run.totals().msgs_sent, 0);
    }
}
