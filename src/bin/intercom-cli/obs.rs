//! `intercom-cli obs` — the cost of the `intercom-obs` layer on the
//! transport hot path, measured and gated.
//!
//! Four configurations of the 64 KiB planned broadcast hot loop on the
//! threaded backend:
//!
//! * **baseline** — no recorder attached, metrics switch off. This is
//!   the all-disabled production path (the per-execute metrics/flight
//!   hooks are always compiled in, guarded by one relaxed atomic load
//!   each).
//! * **disabled** — a recorder is attached but off
//!   ([`disabled_recorders`]). This is the cost every user pays for the
//!   instrumentation hooks, and the CI gate: the subcommand fails
//!   unless it stays within 3 % of baseline;
//! * **metrics-on** — metrics registry + flight recorder globally
//!   enabled (no event recorder): per-execute latency histogram,
//!   per-step flight marks. Reported for information (not gated);
//! * **enabled** — full event + counter recording, reported for
//!   information (not gated).
//!
//! Each repeat runs all four once, in reverse order on every other
//! repeat, and divides each by that repeat's baseline; a mode's
//! overhead is the median of its ratios. A drift of the host then moves
//! both sides of a ratio, where a best-of time rewards whichever mode
//! hit one of the host's fast stretches. `--smoke` is the shorter run
//! `ci.sh` gates on: baseline and disabled alone, 151 pairs.

use crate::args::Options;
use intercom::plan::BcastPlan;
use intercom::{Comm, Communicator};
use intercom_cost::MachineParams;
use intercom_obs::{disabled_recorders, flight, metrics, recorders, DEFAULT_RING_CAPACITY};
use intercom_runtime::{default_wait_timeout, run_world, run_world_with, ThreadComm};
use std::time::Instant;

const RANKS: usize = 8;
const BYTES: usize = 64 * 1024;

/// Hard ceiling on disabled-recorder overhead.
const GATE_MAX_RATIO: f64 = 1.03;

/// One world: warm-up, then `iters` timed planned broadcasts. Returns
/// this rank's timed seconds; the slowest rank bounds the collective.
fn bcast_loop(c: &ThreadComm, iters: usize) -> f64 {
    let cc = Communicator::world(c, MachineParams::PARAGON);
    let plan = BcastPlan::<u8>::new(&cc, 0, BYTES);
    let mut buf = vec![c.rank() as u8; BYTES];
    plan.execute(&cc, &mut buf).unwrap(); // warm-up: rings, stashes
    let t0 = Instant::now();
    for _ in 0..iters {
        plan.execute(&cc, &mut buf).unwrap();
    }
    t0.elapsed().as_secs_f64()
}

#[derive(Clone, Copy)]
enum Mode {
    Baseline,
    Disabled,
    MetricsOn,
    Enabled,
}

const MODES: [Mode; 4] = [
    Mode::Baseline,
    Mode::Disabled,
    Mode::MetricsOn,
    Mode::Enabled,
];

fn run_once(mode: Mode, iters: usize) -> f64 {
    let observed = |recs| {
        run_world_with(RANKS, default_wait_timeout(), Some(recs), |c| {
            bcast_loop(c, iters)
        })
        .0
    };
    let secs = match mode {
        Mode::Baseline => run_world(RANKS, |c| bcast_loop(c, iters)),
        Mode::Disabled => observed(disabled_recorders(RANKS)),
        Mode::MetricsOn => {
            metrics::set_enabled(true);
            flight::set_enabled(true);
            let secs = run_world(RANKS, |c| bcast_loop(c, iters));
            metrics::set_enabled(false);
            flight::set_enabled(false);
            secs
        }
        Mode::Enabled => observed(recorders(RANKS, DEFAULT_RING_CAPACITY)),
    };
    secs.into_iter().fold(0.0f64, f64::max)
}

/// The middle value of an odd-sized sample (every repeat count is odd).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

pub fn run(o: &Options) -> Result<(), String> {
    // The smoke run measures the gated pair alone, more often.
    let (modes, repeats, iters) = if o.smoke {
        (&MODES[..2], 151, 400)
    } else {
        (&MODES[..], 41, 1500)
    };

    let mut secs = vec![Vec::with_capacity(repeats); modes.len()];
    for r in 0..repeats {
        let mut order: Vec<usize> = (0..modes.len()).collect();
        if r % 2 == 1 {
            order.reverse();
        }
        for slot in order {
            secs[slot].push(run_once(modes[slot], iters));
        }
    }
    let ratio = |slot: usize| {
        let pairs = secs[slot].iter().zip(&secs[0]);
        median(pairs.map(|(s, base)| s / base).collect())
    };
    let disabled = ratio(1);

    let mbs = (BYTES * iters) as f64 / median(secs[0].clone()) / (1 << 20) as f64;
    let pct = |r: f64| (r - 1.0) * 100.0;
    println!(
        "observability overhead, {RANKS} ranks, 64 KiB planned broadcast, \
         median of {repeats} paired runs of {iters}:"
    );
    println!("  baseline (all off):       {mbs:>8.1} MB/s");
    println!(
        "  disabled recorder:        {:+.2}% vs baseline (gate <= +{:.0}%)",
        pct(disabled),
        pct(GATE_MAX_RATIO)
    );
    if modes.len() == MODES.len() {
        println!(
            "  metrics + flight on:      {:+.2}% vs baseline (informational)",
            pct(ratio(2))
        );
        println!(
            "  enabled recorder:         {:+.2}% vs baseline (informational)",
            pct(ratio(3))
        );
    }
    if disabled > GATE_MAX_RATIO {
        return Err(format!(
            "gate FAILED: disabled-recorder {:+.2}% (limit +{:.0}%)",
            pct(disabled),
            pct(GATE_MAX_RATIO)
        ));
    }
    Ok(())
}
