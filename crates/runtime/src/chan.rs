//! The wait policy of every blocking wait in this crate: *poll before
//! parking*.
//!
//! A wait whose condition does not hold yet looks at a lock-free hint
//! back to back, giving its core away with `yield_now` between looks,
//! for at most `POLL_BUDGET`, and only then sleeps. A hop that has to
//! wait therefore costs what the host charges (a `sched_yield` and the
//! hint's cache line moving between two cores), not a constant of this
//! file. The hint is never trusted: the caller re-checks what it waits
//! for before it acts and before it sleeps, under the protocol that
//! makes its wake-up safe. Two waits use `poll`:
//!
//! * a receive ([`crate::endpoint`]) polls the next slot's `seq` of the
//!   one mailbox it waits on, plus its rank's poison alert, then parks
//!   on its rank's waker: it sets `parked`, fences, re-checks the ring,
//!   the overflow and the alert, and sleeps; a sender publishes,
//!   fences, and wakes only a receiver it finds parked
//!   (`mailbox.rs`);
//! * a rendezvous sender polls its window's completion hint, then parks
//!   on the completion's condvar.

use std::time::{Duration, Instant};

/// How long a wait polls before it parks. A parked hand-off costs the
/// sender a futex wake and the receiver a reschedule: about 21 us one
/// way on the reference 2-vCPU guest, 47 us for the round trip
/// (`runtime.sendrecv_us.8B` 21.2, `runtime.pingpong_rtt_us.8B` 46.6
/// with this budget set to zero, so that every wait parks at once).
/// Re-measured over the per-pair mailboxes with the budget at zero (a
/// 2-thread 8 B probe, median of 7 batches, three runs): 7.0-7.6 us an
/// exchange and 13.2-14.9 us a round trip, where the mutex inbox read
/// 7.7-8.2 and 14.5-16.3 us on the same guest that day.
/// Polling for about that long bounds the CPU a wait can waste at what
/// parking straight away would have cost in wake-up latency (the
/// ski-rental bound), while a peer that answers within the budget is
/// seen at the next look instead of after two context switches.
const POLL_BUDGET: Duration = Duration::from_micros(40);

/// How a blocking wait ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Waited {
    /// What it waited for was there already, or arrived while it polled.
    Polled,
    /// It slept at least once.
    Parked,
}

/// The poll phase of every wait in this crate: looks at `ready` back to
/// back, yielding between looks, until it holds, [`POLL_BUDGET`] is spent
/// or `deadline` passes. `ready` reads a lock-free hint; the caller
/// re-checks afterwards and parks if it must, so nothing depends on what
/// a look saw. The clock is first read after one fruitless look, so a
/// wait that is already over costs none.
pub(crate) fn poll(mut ready: impl FnMut() -> bool, deadline: Option<Instant>) {
    if ready() {
        return;
    }
    let start = Instant::now();
    let give_up = deadline.map_or(start + POLL_BUDGET, |d| d.min(start + POLL_BUDGET));
    let mut now = start;
    while now < give_up {
        // Whoever shares this core (the peer we are waiting for, in an
        // oversubscribed world) gets it now, not after our budget:
        // `oversubscribed.rs` runs pinned to one core in `ci.sh`.
        std::thread::yield_now();
        if ready() {
            return;
        }
        now = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fruitless_poll_looks_back_to_back_for_the_budget() {
        // No trial may give up early, and one that was not preempted
        // must show the policy: a preempted trial, or one whose yields
        // handed the core to the threads of the tests beside it, says
        // nothing about it. Looks on a 4 us grid could number no more
        // than 11 in a 40 us budget.
        let trials: Vec<(Duration, u32)> = (0..200)
            .map(|_| {
                let mut looks = 0u32;
                let start = Instant::now();
                poll(
                    || {
                        looks += 1;
                        false
                    },
                    None,
                );
                (start.elapsed(), looks)
            })
            .collect();
        let (shortest, _) = trials.iter().min().unwrap();
        assert!(*shortest >= POLL_BUDGET, "gave up early: {shortest:?}");
        let best = trials
            .iter()
            .filter(|(took, _)| *took < POLL_BUDGET * 4)
            .map(|&(_, looks)| looks)
            .max();
        assert!(best.is_some(), "polled for {shortest:?} at best");
        assert!(best > Some(11), "{best:?} looks at best");
    }

    #[test]
    fn poll_past_its_deadline_looks_once() {
        let past = Instant::now();
        let mut looks = 0;
        poll(
            || {
                looks += 1;
                false
            },
            Some(past),
        );
        assert_eq!(looks, 1);
    }

    #[test]
    fn poll_shorter_than_the_budget_is_not_rounded_up_to_it() {
        let timeout = Duration::from_micros(5);
        assert!(timeout * 4 < POLL_BUDGET);
        let best = (0..200)
            .map(|_| {
                let start = Instant::now();
                poll(|| false, Some(start + timeout));
                start.elapsed()
            })
            .min()
            .unwrap();
        assert!(best >= timeout, "returned early: {best:?}");
        assert!(
            best < timeout * 4,
            "waited {best:?} for a {timeout:?} deadline"
        );
    }
}
