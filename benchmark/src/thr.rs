//! The threaded workloads: `thr-small` and `thr-large`.
//!
//! Both run `threads_p` ranks on `run_world` with a
//! `Communicator::world` on the default path. A segment is one fresh
//! world: spawn, construct, warm up, then a fixed number of timed
//! rounds. Every rank does the same preparation and checking between
//! calls, so no rank enters a call late because it was busy checking.

use crate::api::{
    run_world, AllreducePlan, BcastPlan, CollectPlan, Comm, Communicator, MachineParams, ReduceOp,
};
use crate::comm::{Meter, Plain, RankLog, TracedComm};
use crate::env;
use crate::validate::{failed_union, Pattern, Tally};
use std::time::Instant;

/// Comm spans kept per rank in a traced segment; calls and rounds are
/// always kept.
const COMM_SPAN_CAP: usize = 200_000;

/// One rank's buffers and the fixed sequence of calls that make a round.
pub trait Round: Sized {
    const NAME: &'static str;
    /// Call names, indexed by the `op` passed to [`Meter::call`].
    const OPS: &'static [&'static str];
    const ROUNDS: u32;
    const WARMUP: u32;
    /// Results are checked on every `CHECK_EVERY`-th round.
    const CHECK_EVERY: u32;

    fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, pat: &Pattern) -> Self;

    /// Payload bytes of one round on `p` ranks.
    fn payload_bytes(p: usize) -> u64;

    /// Runs round `round`; returns the summed call time in nanoseconds.
    fn run<C: Comm + ?Sized, M: Meter>(
        &mut self,
        cc: &Communicator<'_, C>,
        m: &M,
        pat: &Pattern,
        round: u32,
        check: bool,
        tally: &mut Tally,
    ) -> u64;
}

/// `thr-small`: every message is eager, so a round is wake-up latency
/// plus per-call selection and dispatch.
pub type Small = SmallRound<false>;

/// The `thr-small` round through persistent plans: the floor the
/// default path should reach.
pub type SmallPlanned = SmallRound<true>;

pub struct SmallRound<const PLANNED: bool> {
    a: [f64; 1],
    b: Vec<u8>,
    mine: [u8; 8],
    all: Vec<u8>,
    /// Present when `PLANNED`.
    plans: Option<(AllreducePlan<f64>, BcastPlan<u8>, CollectPlan<u8>)>,
}

impl<const PLANNED: bool> Round for SmallRound<PLANNED> {
    const NAME: &'static str = if PLANNED {
        "thr-small-planned"
    } else {
        "thr-small"
    };
    const OPS: &'static [&'static str] = &["allreduce8", "bcast1k", "allgather8"];
    const ROUNDS: u32 = 10_000;
    const WARMUP: u32 = 500;
    const CHECK_EVERY: u32 = 1;

    fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, _pat: &Pattern) -> Self {
        SmallRound {
            a: [0.0],
            b: vec![0; 1024],
            mine: [0; 8],
            all: vec![0; 8 * cc.size()],
            plans: PLANNED.then(|| {
                (
                    AllreducePlan::new(cc, 1, ReduceOp::Sum),
                    BcastPlan::new(cc, 0, 1024),
                    CollectPlan::new(cc, 8),
                )
            }),
        }
    }

    fn payload_bytes(p: usize) -> u64 {
        (8 + 1024 + 8 * p) as u64
    }

    fn run<C: Comm + ?Sized, M: Meter>(
        &mut self,
        cc: &Communicator<'_, C>,
        m: &M,
        pat: &Pattern,
        round: u32,
        check: bool,
        tally: &mut Tally,
    ) -> u64 {
        let (p, rank) = (cc.size(), cc.rank());
        let mut ns = 0;

        pat.fill_sum(rank, round, 0, &mut self.a);
        let (r, t) = m.call(0, 8, || match &self.plans {
            None => cc.allreduce(&mut self.a, ReduceOp::Sum),
            Some((plan, _, _)) => plan.execute(cc, &mut self.a),
        });
        tally.call(&r, !check || pat.check_sum(p, round, 0, &self.a));
        ns += t;

        if rank == 0 {
            pat.fill_bcast(round, &mut self.b);
        }
        let (r, t) = m.call(1, self.b.len(), || match &self.plans {
            None => cc.bcast(0, &mut self.b),
            Some((_, plan, _)) => plan.execute(cc, &mut self.b),
        });
        tally.call(&r, !check || pat.check_bcast(round, &self.b));
        ns += t;

        pat.fill_gather(rank, round, &mut self.mine);
        let (r, t) = m.call(2, self.all.len(), || match &self.plans {
            None => cc.allgather(&self.mine, &mut self.all),
            Some((_, _, plan)) => plan.execute(cc, &self.mine, &mut self.all),
        });
        tally.call(&r, !check || pat.check_gather(round, p, &self.all));
        ns + t
    }
}

const LARGE: usize = 4 << 20;
const MEDIUM: usize = 256 << 10;

/// `thr-large`: every hop is above the 32 KiB rendezvous threshold, so
/// a round is memcpy, the fold kernel and the pool. It drives the same
/// `runtime` layer the opposite way from `thr-small`: a latency win
/// bought with spinning or extra copies shows here as a loss.
pub struct Large {
    b: Vec<u8>,
    a: Vec<f64>,
    mine: Vec<u8>,
    all: Vec<u8>,
    contrib: Vec<f64>,
    block: Vec<f64>,
    s: Vec<f64>,
}

impl Round for Large {
    const NAME: &'static str = "thr-large";
    const OPS: &'static [&'static str] = &[
        "bcast4m",
        "allreduce4m",
        "allgather4m",
        "reduce_scatter4m",
        "allreduce256k",
    ];
    // About a second per segment: interference from other tenants comes
    // in spells, and a run of short segments finds the gaps between them.
    const ROUNDS: u32 = 250;
    const WARMUP: u32 = 20;
    const CHECK_EVERY: u32 = 50;

    fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, pat: &Pattern) -> Self {
        let (p, rank) = (cc.size(), cc.rank());
        let block = LARGE / 8 / p;
        let mut contrib = vec![0.0; block * p];
        // Read-only input: filled once, checked against round 0.
        pat.fill_sum(rank, 0, 0, &mut contrib);
        let mut b = vec![0; LARGE];
        pat.fill_bcast(0, &mut b);
        let mut mine = vec![0; LARGE / p];
        pat.fill_gather(rank, 0, &mut mine);
        Large {
            b,
            a: vec![0.0; LARGE / 8],
            mine,
            all: vec![0; LARGE / p * p],
            contrib,
            block: vec![0.0; block],
            s: vec![0.0; MEDIUM / 8],
        }
    }

    fn payload_bytes(p: usize) -> u64 {
        (LARGE + LARGE + LARGE / p * p + LARGE / 8 / p * p * 8 + MEDIUM) as u64
    }

    fn run<C: Comm + ?Sized, M: Meter>(
        &mut self,
        cc: &Communicator<'_, C>,
        m: &M,
        pat: &Pattern,
        round: u32,
        check: bool,
        tally: &mut Tally,
    ) -> u64 {
        let (p, rank) = (cc.size(), cc.rank());
        let mut ns = 0;

        // Unchecked rounds reuse the payload every rank already holds;
        // a checked round sends a fresh one into cleared buffers. Root
        // and non-root do the same amount of preparation.
        if check {
            if rank == 0 {
                pat.fill_bcast(round, &mut self.b);
            } else {
                self.b.fill(0);
            }
        }
        let (r, t) = m.call(0, LARGE, || cc.bcast(0, &mut self.b));
        tally.call(&r, !check || pat.check_bcast(round, &self.b));
        ns += t;

        // In-place combines consume their input: refill every round.
        pat.fill_sum(rank, round, 0, &mut self.a);
        let (r, t) = m.call(1, LARGE, || cc.allreduce(&mut self.a, ReduceOp::Sum));
        tally.call(&r, !check || pat.check_sum(p, round, 0, &self.a));
        ns += t;

        if check {
            pat.fill_gather(rank, round, &mut self.mine);
            self.all.fill(0);
        }
        let (r, t) = m.call(2, self.all.len(), || {
            cc.allgather(&self.mine, &mut self.all)
        });
        tally.call(&r, !check || pat.check_gather(round, p, &self.all));
        ns += t;

        if check {
            self.block.fill(0.0);
        }
        let (r, t) = m.call(3, self.contrib.len() * 8, || {
            cc.reduce_scatter(&self.contrib, &mut self.block, ReduceOp::Sum)
        });
        let offset = rank * self.block.len();
        tally.call(&r, !check || pat.check_sum(p, 0, offset, &self.block));
        ns += t;

        pat.fill_sum(rank, round, 0, &mut self.s);
        let (r, t) = m.call(4, MEDIUM, || cc.allreduce(&mut self.s, ReduceOp::Sum));
        tally.call(&r, !check || pat.check_sum(p, round, 0, &self.s));
        ns + t
    }
}

/// How long a segment runs and whether it is traced.
#[derive(Clone, Copy)]
pub struct SegmentPlan {
    pub rounds: u32,
    pub warmup: u32,
    pub traced: Option<Instant>,
}

impl SegmentPlan {
    /// The segment the end-to-end run uses, shortened for `--quick`.
    pub fn of<R: Round>(quick: bool) -> Self {
        let div = if quick { 50 } else { 1 };
        SegmentPlan {
            rounds: (R::ROUNDS / div).max(4),
            warmup: (R::WARMUP / div).max(2),
            traced: None,
        }
    }

    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds.max(4);
        self
    }

    pub fn traced(mut self, epoch: Instant) -> Self {
        self.traced = Some(epoch);
        self
    }
}

/// What one rank brings back from a segment.
struct RankOut {
    setup_s: f64,
    /// Summed call time of each timed round on this rank.
    round_ns: Vec<u64>,
    failed_rounds: Vec<u32>,
    /// Voluntary context switches over the timed rounds.
    switches: f64,
    /// This rank's CPU seconds over the timed rounds.
    cpu_s: f64,
    log: Option<RankLog>,
}

/// One segment of a threaded workload, merged over ranks.
pub struct Segment {
    pub setup_s: f64,
    /// Round latency: the slowest rank's summed call time; `u64::MAX`
    /// for a failed round.
    pub round_ns: Vec<u64>,
    pub failed: usize,
    pub cpu_s: f64,
    pub switches_per_round: f64,
    /// Pool hits and misses over the whole segment, all ranks.
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub logs: Vec<RankLog>,
    pub warmup: u32,
}

fn rank_segment<R: Round, C: Comm + ?Sized, M: Meter>(
    c: &C,
    m: &M,
    pat: &Pattern,
    plan: SegmentPlan,
    started: Instant,
) -> RankOut {
    let cc = Communicator::world(c, MachineParams::PARAGON);
    let mut state = R::new(&cc, pat);
    let mut tally = Tally::default();
    for round in 0..plan.warmup {
        m.begin_round(round);
        state.run(&cc, m, pat, round, round == 0, &mut tally);
        m.end_round();
        tally.end_round(round);
    }
    // A failed warm-up round means the world is broken: count it
    // against the first timed round so it cannot pass unnoticed.
    let warmup_failed = !tally.failed_rounds.is_empty();
    tally.failed_rounds.clear();

    // Line the ranks up so the timed region starts together.
    let aligned = cc.barrier();
    let setup_s = started.elapsed().as_secs_f64();
    let (cpu0, sw0) = (env::thread_cpu_seconds(), env::thread_voluntary_switches());
    let mut round_ns = Vec::with_capacity(plan.rounds as usize);
    for i in 0..plan.rounds {
        let round = plan.warmup + i;
        m.begin_round(round);
        let check = i % R::CHECK_EVERY == 0;
        if i == 0 {
            tally.call(&aligned, !warmup_failed);
        }
        round_ns.push(state.run(&cc, m, pat, round, check, &mut tally));
        m.end_round();
        tally.end_round(i);
    }
    let switches = env::thread_voluntary_switches() - sw0;
    let cpu_s = env::thread_cpu_seconds() - cpu0;
    RankOut {
        setup_s,
        round_ns,
        failed_rounds: tally.failed_rounds,
        switches,
        cpu_s,
        log: None,
    }
}

/// Runs one fresh world for one segment.
pub fn run_segment<R: Round>(pat: &Pattern, plan: SegmentPlan) -> Segment {
    let p = env::threads_p();
    let started = Instant::now();
    let outs = run_world(p, |c| {
        let pool0 = c.pool_stats();
        let out = match plan.traced {
            None => rank_segment::<R, _, _>(c, &Plain, pat, plan, started),
            Some(epoch) => {
                let tc = TracedComm::new(c, epoch, COMM_SPAN_CAP);
                let mut out = rank_segment::<R, _, _>(&tc, &tc, pat, plan, started);
                out.log = Some(tc.into_log());
                out
            }
        };
        let pool = c.pool_stats();
        (out, pool.hits - pool0.hits, pool.misses - pool0.misses)
    });

    let failed = failed_union(outs.iter().map(|(o, _, _)| o.failed_rounds.as_slice()));
    let mut round_ns: Vec<u64> = (0..plan.rounds as usize)
        .map(|i| {
            outs.iter()
                .map(|(o, _, _)| o.round_ns[i])
                .max()
                .unwrap_or(0)
        })
        .collect();
    for &i in &failed {
        round_ns[i as usize] = u64::MAX;
    }
    let rounds = f64::from(plan.rounds);
    Segment {
        setup_s: outs.iter().map(|(o, _, _)| o.setup_s).fold(0.0, f64::max),
        round_ns,
        failed: failed.len(),
        cpu_s: outs.iter().map(|(o, _, _)| o.cpu_s).sum(),
        switches_per_round: outs.iter().map(|(o, _, _)| o.switches).sum::<f64>() / rounds,
        pool_hits: outs.iter().map(|(_, h, _)| h).sum(),
        pool_misses: outs.iter().map(|(_, _, m)| m).sum(),
        logs: outs.into_iter().filter_map(|(o, _, _)| o.log).collect(),
        warmup: plan.warmup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny<R: Round>() -> SegmentPlan {
        SegmentPlan::of::<R>(true).with_rounds(6)
    }

    #[test]
    fn every_round_body_passes_its_own_checks() {
        let pat = Pattern::new(5, 4096);
        for seg in [
            run_segment::<Small>(&pat, tiny::<Small>()),
            run_segment::<SmallPlanned>(&pat, tiny::<SmallPlanned>()),
            run_segment::<Large>(&pat, tiny::<Large>()),
        ] {
            assert_eq!(seg.failed, 0);
            assert_eq!(seg.round_ns.len(), 6);
            assert!(seg.round_ns.iter().all(|&ns| ns > 0 && ns < u64::MAX));
            assert!(seg.setup_s > 0.0);
        }
    }

    #[test]
    fn traced_segment_records_every_rank_and_call() {
        let pat = Pattern::new(5, 4096);
        let plan = tiny::<Small>().traced(Instant::now());
        let seg = run_segment::<Small>(&pat, plan);
        assert_eq!(seg.failed, 0);
        assert_eq!(seg.logs.len(), env::threads_p());
        for log in &seg.logs {
            let calls = log
                .spans
                .iter()
                .filter(|s| s.kind == crate::comm::SpanKind::Call)
                .count();
            assert_eq!(calls, 3 * (plan.rounds + plan.warmup) as usize);
        }
    }

    #[test]
    fn payload_is_16_25_mib_on_a_power_of_two_world() {
        assert_eq!(Large::payload_bytes(2), (16 << 20) + (256 << 10));
        assert_eq!(Small::payload_bytes(2), 8 + 1024 + 16);
    }
}
