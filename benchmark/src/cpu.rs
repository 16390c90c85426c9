//! `cpu-p64`: the library's own CPU cost at rank counts this box
//! cannot run as threads.
//!
//! One thread presents ranks {0, 27, 63} of a 64-rank 8×8 mesh world
//! and ranks {0, 13, 29} of a 30-rank linear world (Table 2's array)
//! over [`NullComm`]. With no transport and no threads, a round is only
//! selection, dispatch, the recursion and the local copy and fold work.
//! Transport and simulator changes must not move it.
//!
//! `NullComm` delivers no data, so results cannot be checked by value
//! here. What is checked on every call is that the rank posted exactly
//! the messages and bytes it posts in a real world: the expected counts
//! come from one `simulate` of the same calls on the same world, traced
//! through [`TracedComm`], where the results are also checked by value.

use crate::api::{
    simulate, AllreducePlan, BcastPlan, CollectPlan, Comm, CommError, Communicator, MachineParams,
    Mesh2D, ReduceOp, ReduceScatterPlan, SimConfig,
};
use crate::comm::{Counts, Meter, NullComm, Plain, RankLog, SpanKind, TracedComm};
use crate::env;
use crate::thr::SegmentPlan;
use crate::validate::{Pattern, Rng, Tally};
use std::time::Instant;

pub const NAME: &str = "cpu-p64";
pub const OPS: &[&str] = &[
    "allreduce8",
    "allreduce64k",
    "bcast1k",
    "allgather64",
    "reduce_scatter1k",
    "sweep",
];
const FIXED_OPS: usize = 5;
/// Eight full cycles of the sweep, so every segment sees the same
/// multiset of lengths.
pub const ROUNDS: u32 = 2048;
/// One full cycle: every sweep length has been selected for once.
pub const WARMUP: u32 = SWEEP as u32;
/// Distinct sweep lengths; with two worlds that is 512 plan keys, below
/// the 1 024-entry plan-cache capacity.
const SWEEP: usize = 256;
const SWEEP_MAX_ELEMS: usize = (256 << 10) / 8;
const COMM_SPAN_CAP: usize = 20_000;

/// `(world, rank)`: world 0 is the 8×8 mesh, world 1 the 30-rank line.
pub const PAIRS: [(usize, usize); 6] = [(0, 0), (0, 27), (0, 63), (1, 0), (1, 13), (1, 29)];
const WORLD_SIZE: [usize; 2] = [64, 30];

fn world_mesh(world: usize) -> Mesh2D {
    match world {
        0 => Mesh2D::new(8, 8),
        _ => Mesh2D::new(1, 30),
    }
}

fn communicator<C: Comm + ?Sized>(world: usize, c: &C) -> Communicator<'_, C> {
    match world {
        0 => Communicator::world_on_mesh(c, MachineParams::PARAGON, world_mesh(0))
            .expect("an 8x8 mesh holds 64 ranks"),
        _ => Communicator::world(c, MachineParams::PARAGON),
    }
}

/// The sweep lengths in `f64` elements: one per stratum of
/// `[8 B, 256 KiB]`, so every seed gives nearly the same distribution,
/// in a seeded order.
pub fn sweep_lengths(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5EE9);
    let stratum = SWEEP_MAX_ELEMS / SWEEP;
    let mut lengths: Vec<usize> = (0..SWEEP)
        .map(|i| i * stratum + 1 + rng.below(stratum as u64) as usize)
        .collect();
    for i in (1..lengths.len()).rev() {
        lengths.swap(i, rng.below(i as u64 + 1) as usize);
    }
    lengths
}

/// Mean payload bytes of one round (all six pairs).
pub fn payload_bytes(lengths: &[usize]) -> f64 {
    let sweep = lengths.iter().sum::<usize>() as f64 * 8.0 / lengths.len() as f64;
    PAIRS
        .iter()
        .map(|&(w, _)| {
            let p = WORLD_SIZE[w];
            (8 + 65_536 + 1024 + 64 * p + 1024 * p) as f64 + sweep
        })
        .sum()
}

/// What a checker is told after each call.
trait Check {
    /// `data_ok` compares the result with its reference; a checker on a
    /// transport that delivers no data does not evaluate it.
    fn after(
        &mut self,
        op: usize,
        sweep_index: usize,
        result: &Result<(), CommError>,
        data_ok: impl FnOnce() -> bool,
    );
}

/// One presented rank's buffers.
struct PairState {
    a8: [f64; 1],
    a64k: Vec<f64>,
    b1k: Vec<u8>,
    mine: [u8; 64],
    all: Vec<u8>,
    contrib: Vec<f64>,
    block: Vec<f64>,
    sweep: Vec<f64>,
}

impl PairState {
    fn new(p: usize, rank: usize, pat: &Pattern) -> Self {
        let mut contrib = vec![0.0; 128 * p];
        // Read-only input: filled once, checked against round 0.
        pat.fill_sum(rank, 0, 0, &mut contrib);
        PairState {
            a8: [0.0],
            a64k: vec![0.0; 8192],
            b1k: vec![0; 1024],
            mine: [0; 64],
            all: vec![0; 64 * p],
            contrib,
            block: vec![0.0; 128],
            sweep: vec![0.0; SWEEP_MAX_ELEMS],
        }
    }
}

/// The five fixed calls of one presented rank. Returns summed call ns.
fn fixed_calls<C: Comm + ?Sized, M: Meter>(
    cc: &Communicator<'_, C>,
    m: &M,
    st: &mut PairState,
    pat: &Pattern,
    round: u32,
    chk: &mut impl Check,
) -> u64 {
    let (p, rank) = (cc.size(), cc.rank());
    let mut ns = 0;

    pat.fill_sum(rank, round, 0, &mut st.a8);
    let (r, t) = m.call(0, 8, || cc.allreduce(&mut st.a8, ReduceOp::Sum));
    chk.after(0, 0, &r, || pat.check_sum(p, round, 0, &st.a8));
    ns += t;

    pat.fill_sum(rank, round, 0, &mut st.a64k);
    let (r, t) = m.call(1, 65_536, || cc.allreduce(&mut st.a64k, ReduceOp::Sum));
    chk.after(1, 0, &r, || pat.check_sum(p, round, 0, &st.a64k));
    ns += t;

    if rank == 0 {
        pat.fill_bcast(round, &mut st.b1k);
    }
    let (r, t) = m.call(2, 1024, || cc.bcast(0, &mut st.b1k));
    chk.after(2, 0, &r, || pat.check_bcast(round, &st.b1k));
    ns += t;

    pat.fill_gather(rank, round, &mut st.mine);
    let (r, t) = m.call(3, st.all.len(), || cc.allgather(&st.mine, &mut st.all));
    chk.after(3, 0, &r, || pat.check_gather(round, p, &st.all));
    ns += t;

    let (r, t) = m.call(4, st.contrib.len() * 8, || {
        cc.reduce_scatter(&st.contrib, &mut st.block, ReduceOp::Sum)
    });
    chk.after(4, 0, &r, || pat.check_sum(p, 0, rank * 128, &st.block));
    ns + t
}

/// The sweep call: an `allreduce` whose length changes every round.
fn sweep_call<C: Comm + ?Sized, M: Meter>(
    cc: &Communicator<'_, C>,
    m: &M,
    st: &mut PairState,
    pat: &Pattern,
    round: u32,
    (index, elems): (usize, usize),
    chk: &mut impl Check,
) -> u64 {
    let (p, rank) = (cc.size(), cc.rank());
    let buf = &mut st.sweep[..elems];
    pat.fill_sum(rank, round, 0, buf);
    let (r, t) = m.call(5, elems * 8, || cc.allreduce(buf, ReduceOp::Sum));
    chk.after(5, index, &r, || pat.check_sum(p, round, 0, buf));
    t
}

/// Per-call counts one presented rank must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    fixed: [Counts; FIXED_OPS],
    /// By index into the sweep lengths.
    sweep: Vec<Counts>,
}

/// Checks results by value; used where data really moves.
struct DataCheck {
    ok: bool,
}

impl Check for DataCheck {
    fn after(
        &mut self,
        _op: usize,
        _sweep_index: usize,
        result: &Result<(), CommError>,
        data_ok: impl FnOnce() -> bool,
    ) {
        self.ok &= result.is_ok() && data_ok();
    }
}

/// Runs every call of the round once, for every sweep length, on a real
/// simulated world, and returns the per-call counts of the presented
/// ranks together with whether every result on every rank was right.
pub fn cross_check_reference(pat: &Pattern, lengths: &[usize]) -> (Vec<Expected>, bool) {
    let epoch = Instant::now();
    let mut expected = Vec::with_capacity(PAIRS.len());
    let mut all_ok = true;
    for world in 0..WORLD_SIZE.len() {
        let cfg = SimConfig::new(world_mesh(world), MachineParams::PARAGON);
        let report = simulate(&cfg, |c| {
            // Comm spans are not needed: the counts live on the calls.
            let tc = TracedComm::new(c, epoch, 0);
            let cc = communicator(world, &tc);
            let mut st = PairState::new(cc.size(), cc.rank(), pat);
            let mut chk = DataCheck { ok: true };
            fixed_calls(&cc, &tc, &mut st, pat, 0, &mut chk);
            for (i, &elems) in lengths.iter().enumerate() {
                sweep_call(&cc, &tc, &mut st, pat, i as u32, (i, elems), &mut chk);
            }
            drop(cc);
            let presented = PAIRS.contains(&(world, c.rank()));
            (chk.ok, presented.then(|| tc.into_log()))
        });
        all_ok &= report.results.iter().all(|(ok, _)| *ok);
        for &(w, rank) in PAIRS.iter().filter(|&&(w, _)| w == world) {
            let log = report.results[rank].1.as_ref().expect("presented rank");
            let calls: Vec<Counts> = log
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Call)
                .map(|s| s.counts)
                .collect();
            assert_eq!(calls.len(), FIXED_OPS + lengths.len(), "world {w}");
            expected.push(Expected {
                fixed: calls[..FIXED_OPS].try_into().expect("five fixed calls"),
                sweep: calls[FIXED_OPS..].to_vec(),
            });
        }
    }
    (expected, all_ok)
}

/// Checks what a `NullComm` rank posted against the reference counts.
struct CountCheck<'a> {
    null: &'a NullComm,
    expected: &'a Expected,
    mark: Counts,
    tally: &'a mut Tally,
}

impl Check for CountCheck<'_> {
    fn after(
        &mut self,
        op: usize,
        sweep_index: usize,
        result: &Result<(), CommError>,
        _data_ok: impl FnOnce() -> bool,
    ) {
        let now = self.null.counts();
        let got = now.since(&self.mark);
        self.mark = now;
        let want = if op < FIXED_OPS {
            &self.expected.fixed[op]
        } else {
            &self.expected.sweep[sweep_index]
        };
        self.tally.call(result, got == *want);
    }
}

/// One segment: fresh endpoints and communicators, warm-up, timed rounds.
pub struct Segment {
    pub setup_s: f64,
    pub round_ns: Vec<u64>,
    pub failed: usize,
    pub cpu_s: f64,
    pub logs: Vec<RankLog>,
    pub warmup: u32,
}

#[allow(clippy::too_many_arguments)]
fn segment_on<C: Comm, M: Meter>(
    nulls: &[NullComm],
    comms: &[C],
    meters: &[M],
    pat: &Pattern,
    lengths: &[usize],
    expected: &[Expected],
    plan: SegmentPlan,
    started: Instant,
) -> Segment {
    let ccs: Vec<Communicator<'_, C>> = PAIRS
        .iter()
        .zip(comms)
        .map(|(&(w, _), c)| communicator(w, c))
        .collect();
    let mut states: Vec<PairState> = PAIRS
        .iter()
        .map(|&(w, rank)| PairState::new(WORLD_SIZE[w], rank, pat))
        .collect();
    let mut tally = Tally::default();
    let mut one_round = |round: u32, tally: &mut Tally| -> u64 {
        let index = round as usize % lengths.len();
        let mut ns = 0;
        for k in 0..PAIRS.len() {
            let mut chk = CountCheck {
                null: &nulls[k],
                expected: &expected[k],
                mark: nulls[k].counts(),
                tally: &mut *tally,
            };
            let (cc, m, st) = (&ccs[k], &meters[k], &mut states[k]);
            m.begin_round(round);
            ns += fixed_calls(cc, m, st, pat, round, &mut chk);
            ns += sweep_call(cc, m, st, pat, round, (index, lengths[index]), &mut chk);
            m.end_round();
        }
        ns
    };

    for round in 0..plan.warmup {
        one_round(round, &mut tally);
        tally.end_round(round);
    }
    let warmup_failed = !tally.failed_rounds.is_empty();
    tally.failed_rounds.clear();

    let setup_s = started.elapsed().as_secs_f64();
    let cpu0 = env::thread_cpu_seconds();
    let mut round_ns = Vec::with_capacity(plan.rounds as usize);
    for i in 0..plan.rounds {
        if i == 0 {
            tally.call(&Ok::<(), ()>(()), !warmup_failed);
        }
        let ns = one_round(plan.warmup + i, &mut tally);
        round_ns.push(if tally.end_round(i) { u64::MAX } else { ns });
    }
    Segment {
        setup_s,
        round_ns,
        failed: tally.failed_rounds.len(),
        cpu_s: env::thread_cpu_seconds() - cpu0,
        logs: Vec::new(),
        warmup: plan.warmup,
    }
}

pub fn segment_plan(quick: bool) -> SegmentPlan {
    let div = if quick { 16 } else { 1 };
    SegmentPlan {
        rounds: ROUNDS / div,
        warmup: WARMUP / div,
        traced: None,
    }
}

pub fn run_segment(
    pat: &Pattern,
    lengths: &[usize],
    expected: &[Expected],
    plan: SegmentPlan,
) -> Segment {
    let started = Instant::now();
    let nulls: Vec<NullComm> = PAIRS
        .iter()
        .map(|&(w, rank)| NullComm::new(rank, WORLD_SIZE[w]))
        .collect();
    match plan.traced {
        None => {
            let meters = [const { Plain }; PAIRS.len()];
            segment_on(
                &nulls, &nulls, &meters, pat, lengths, expected, plan, started,
            )
        }
        Some(epoch) => {
            let tcs: Vec<TracedComm<'_, NullComm>> = nulls
                .iter()
                .map(|n| TracedComm::new(n, epoch, COMM_SPAN_CAP))
                .collect();
            let mut seg = segment_on(&nulls, &tcs, &tcs, pat, lengths, expected, plan, started);
            // Ranks repeat across the two worlds; number the logs by pair.
            seg.logs = tcs
                .into_iter()
                .enumerate()
                .map(|(k, tc)| RankLog {
                    stream: k,
                    ..tc.into_log()
                })
                .collect();
            seg
        }
    }
}

/// The same round through persistent plans, untimed set-up aside:
/// median round latency in microseconds over `rounds` rounds after one
/// warm-up cycle. Plans do not depend on the rank, so one set per world.
pub fn planned_round_us(pat: &Pattern, lengths: &[usize], rounds: u32) -> f64 {
    struct WorldPlans {
        a8: AllreducePlan<f64>,
        a64k: AllreducePlan<f64>,
        b1k: BcastPlan<u8>,
        gather: CollectPlan<u8>,
        scatter: ReduceScatterPlan<f64>,
        sweep: Vec<AllreducePlan<f64>>,
    }
    let nulls: Vec<NullComm> = PAIRS
        .iter()
        .map(|&(w, rank)| NullComm::new(rank, WORLD_SIZE[w]))
        .collect();
    let ccs: Vec<Communicator<'_, NullComm>> = PAIRS
        .iter()
        .zip(&nulls)
        .map(|(&(w, _), c)| communicator(w, c))
        .collect();
    // Pairs 0 and 3 are the first of each world.
    let plans: Vec<WorldPlans> = [&ccs[0], &ccs[3]]
        .into_iter()
        .map(|cc| WorldPlans {
            a8: AllreducePlan::new(cc, 1, ReduceOp::Sum),
            a64k: AllreducePlan::new(cc, 8192, ReduceOp::Sum),
            b1k: BcastPlan::new(cc, 0, 1024),
            gather: CollectPlan::new(cc, 64),
            scatter: ReduceScatterPlan::new(cc, 128, ReduceOp::Sum),
            sweep: lengths
                .iter()
                .map(|&n| AllreducePlan::new(cc, n, ReduceOp::Sum))
                .collect(),
        })
        .collect();
    let mut states: Vec<PairState> = PAIRS
        .iter()
        .map(|&(w, rank)| PairState::new(WORLD_SIZE[w], rank, pat))
        .collect();

    let mut round_us = Vec::with_capacity(rounds as usize);
    for round in 0..lengths.len() as u32 + rounds {
        let index = round as usize % lengths.len();
        let mut ns = 0;
        for (k, &(w, rank)) in PAIRS.iter().enumerate() {
            let (cc, pl, st) = (&ccs[k], &plans[w], &mut states[k]);
            let mut timed = |f: &mut dyn FnMut() -> Result<(), CommError>| {
                let (r, t) = Plain.call(0, 0, f);
                r.expect("planned call on NullComm");
                ns += t;
            };
            pat.fill_sum(rank, round, 0, &mut st.a8);
            timed(&mut || pl.a8.execute(cc, &mut st.a8));
            pat.fill_sum(rank, round, 0, &mut st.a64k);
            timed(&mut || pl.a64k.execute(cc, &mut st.a64k));
            timed(&mut || pl.b1k.execute(cc, &mut st.b1k));
            timed(&mut || pl.gather.execute(cc, &st.mine, &mut st.all));
            timed(&mut || pl.scatter.execute(cc, &st.contrib, &mut st.block));
            let buf = &mut st.sweep[..lengths[index]];
            pat.fill_sum(rank, round, 0, buf);
            timed(&mut || pl.sweep[index].execute(cc, buf));
        }
        if round as usize >= lengths.len() {
            round_us.push(ns as f64 / 1e3);
        }
    }
    crate::stats::median(&round_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_lengths_are_distinct_seeded_and_in_range() {
        let a = sweep_lengths(1994);
        assert_eq!(a, sweep_lengths(1994));
        assert_ne!(a, sweep_lengths(1995));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), SWEEP);
        assert!(sorted[0] >= 1 && *sorted.last().unwrap() <= SWEEP_MAX_ELEMS);
        // One length per stratum: seeds barely move the distribution.
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
        let (m1, m2) = (mean(&a), mean(&sweep_lengths(7)));
        assert!((m1 - m2).abs() / m1 < 0.01, "{m1} vs {m2}");
    }

    #[test]
    fn null_comm_posts_what_a_real_world_posts() {
        let pat = Pattern::new(11, 4096);
        // A short sweep keeps the simulated reference quick.
        let lengths: Vec<usize> = sweep_lengths(11).into_iter().take(6).collect();
        let (expected, data_ok) = cross_check_reference(&pat, &lengths);
        assert!(data_ok, "results on the simulated worlds");
        assert_eq!(expected.len(), PAIRS.len());
        assert!(expected.iter().all(|e| e.sweep.len() == lengths.len()));
        // Interior ranks of a 64-rank allreduce both send and receive.
        assert!(expected[1].fixed[0].sends > 0 && expected[1].fixed[0].recvs > 0);

        let plan = SegmentPlan {
            rounds: 12,
            warmup: 6,
            traced: None,
        };
        let seg = run_segment(&pat, &lengths, &expected, plan);
        assert_eq!(seg.failed, 0, "every call matched the reference counts");

        // A wrong reference makes every round fail.
        let mut wrong = expected.clone();
        wrong[2].fixed[1].bytes_out += 1;
        let seg = run_segment(&pat, &lengths, &wrong, plan);
        assert_eq!(seg.failed, 12);
        assert!(seg.round_ns.iter().all(|&ns| ns == u64::MAX));
    }

    #[test]
    fn traced_and_planned_rounds_run() {
        let pat = Pattern::new(11, 4096);
        let lengths: Vec<usize> = sweep_lengths(11).into_iter().take(4).collect();
        let (expected, _) = cross_check_reference(&pat, &lengths);
        let plan = SegmentPlan {
            rounds: 4,
            warmup: 4,
            traced: Some(Instant::now()),
        };
        let seg = run_segment(&pat, &lengths, &expected, plan);
        assert_eq!(seg.failed, 0);
        assert_eq!(seg.logs.len(), PAIRS.len());
        assert!(planned_round_us(&pat, &lengths, 4) > 0.0);
    }
}
