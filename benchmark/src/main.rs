//! The repo's benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how to read the output.
//!
//! ```text
//! intercom-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! intercom-benchmark [--quick] [--repeat <n>] [--seed <n>] [--seconds <s>]   # all workloads
//! intercom-benchmark --trace [--quick]                                  # traced run, probes
//! intercom-benchmark compare A.json B.json
//! intercom-benchmark describe                                          # BENCHMARK.json
//! ```

mod api;
mod comm;
mod compare;
mod cpu;
mod env;
mod json;
mod probes;
mod report;
mod sim;
mod stats;
mod thr;
mod trace;
mod validate;

use api::{global_cache, set_metrics_enabled};
use comm::RankLog;
use json::Value;
use report::{
    end_to_end, rounds_of, Layers, Measured, RunResult, SegmentTimes, ROUND_P99, WORKLOADS,
};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use thr::{Round, SegmentPlan};
use validate::Pattern;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 1994;
/// Default `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u32 = 30;
/// Bytes of the seeded template payloads are cut from (they wrap).
const TEMPLATE_BYTES: usize = 64 << 10;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Runs of each workload when running them all; seeds count up.
    repeat: u32,
}

enum Cmd {
    Run(Options),
    Compare(PathBuf, PathBuf),
    Describe,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: run.sh [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--quick]\n\
         \x20             [--repeat <n>]   (all workloads only: n runs each, seeds counting up)\n\
         \x20      run.sh compare A.json B.json\n\
         \x20      run.sh describe",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            return match args {
                [_, a, b] => Ok(Cmd::Compare(a.into(), b.into())),
                _ => Err("compare takes two result files".into()),
            }
        }
        Some("describe") => return Ok(Cmd::Describe),
        _ => {}
    }
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(DEFAULT_SECONDS),
        trace: false,
        quick: false,
        repeat: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|(n, _)| *n == w) {
                    return Err(format!("unknown workload {w}"));
                }
                o.workload = Some(w);
            }
            "--seed" => {
                o.seed = value("a whole number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                o.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            // `--trace` alone means 1, so people can type it bare.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    o.trace = false;
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--quick" => o.quick = true,
            "--repeat" => {
                o.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--repeat needs a count of at least 1")?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.quick {
        o.seconds = o.seconds.min(2.0);
    }
    Ok(Cmd::Run(o))
}

/// Runs `segment` until another one would not fit in `budget` (counted
/// from `start`), at least once.
fn fill<T>(start: Instant, budget: Duration, mut segment: impl FnMut() -> T) -> Vec<T> {
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(segment());
        if start.elapsed() + t.elapsed() > budget {
            return out;
        }
    }
}

fn budget_of(o: &Options) -> Duration {
    Duration::from_secs_f64(o.seconds)
}

fn result_of(
    o: &Options,
    workload: &str,
    start: Instant,
    rounds: (u64, u64),
    other_failure: Option<String>,
    measured: Measured,
) -> RunResult {
    RunResult {
        workload: workload.into(),
        traced: o.trace,
        seconds: o.seconds,
        wall_s: start.elapsed().as_secs_f64(),
        attempted: rounds.0,
        failed: rounds.1,
        other_failure,
        other_regime_segments: measured.other_regime_segments,
        metrics: measured.metrics,
        ungated: measured.ungated,
        env: env::stamp(o.seed),
    }
}

fn run_threaded<R: Round>(o: &Options) -> RunResult {
    let start = Instant::now();
    let pat = Pattern::new(o.seed, TEMPLATE_BYTES);
    let plan = SegmentPlan::of::<R>(o.quick);
    let segs = fill(start, budget_of(o), || {
        let s = thr::run_segment::<R>(&pat, plan);
        SegmentTimes::of(s.setup_s, &s.round_ns, s.failed, s.cpu_s)
    });
    let payload = R::payload_bytes(env::threads_p()) as f64;
    let metrics = end_to_end(&segs, payload, env::peak_rss_mb());
    result_of(o, R::NAME, start, rounds_of(&segs), None, metrics)
}

fn run_cpu(o: &Options) -> RunResult {
    let start = Instant::now();
    let pat = Pattern::new(o.seed, TEMPLATE_BYTES);
    let lengths = cpu::sweep_lengths(o.seed);
    let (expected, data_ok) = cpu::cross_check_reference(&pat, &lengths);
    let plan = cpu::segment_plan(o.quick);
    let segs = fill(start, budget_of(o), || {
        let s = cpu::run_segment(&pat, &lengths, &expected, plan);
        SegmentTimes::of(s.setup_s, &s.round_ns, s.failed, s.cpu_s)
    });
    let metrics = end_to_end(&segs, cpu::payload_bytes(&lengths), env::peak_rss_mb());
    let other =
        (!data_ok).then(|| "a result on the cross-check's simulated worlds was wrong".into());
    result_of(o, cpu::NAME, start, rounds_of(&segs), other, metrics)
}

fn run_sim(o: &Options) -> RunResult {
    let start = Instant::now();
    let pat = Pattern::new(o.seed, TEMPLATE_BYTES);
    let rows = sim::rows(o.quick);
    // The first pass is the set-up: it pays every first-use cost of the
    // process and compares every element of every result.
    let first = sim::run_pass(&rows, &pat, sim::Depth::Full, None);
    let setup_s = start.elapsed().as_secs_f64();
    // Every later pass is a segment of one round: each row is a fresh
    // world. A pass fails on a wrong result or a virtual time that moved.
    let mut segs = fill(start, budget_of(o), || {
        let cpu0 = env::cpu_seconds();
        let pass = sim::run_pass(&rows, &pat, sim::Depth::Edges, None);
        let cpu_s = env::cpu_seconds() - cpu0;
        let good = pass.ok() && pass.virt_s() == first.virt_s();
        let round_ns = if good { pass.host_ns() } else { u64::MAX };
        SegmentTimes::of(setup_s, &[round_ns], usize::from(!good), cpu_s)
    });
    let payload: usize = rows.iter().map(sim::Row::payload).sum();
    let metrics = end_to_end(&segs, payload as f64, env::peak_rss_mb());
    // The first pass counts as a round too: it is the fully checked one.
    segs[0].rounds += 1;
    segs[0].failed += usize::from(!first.ok());
    result_of(o, sim::NAME, start, rounds_of(&segs), None, metrics)
}

fn write_trace(workload: &str, env: &Value, logs: &[RankLog], ops: &[String]) {
    let path = env::out_dir().join(format!("trace-{workload}.json"));
    if let Err(e) = trace::write_file(&path, workload, env, logs, ops) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn p50_us(round_ns: &[u64]) -> f64 {
    stats::latency_of(round_ns).p50_us
}

/// The traced slice of one threaded workload: an untraced reference
/// segment, one with the metrics layer on, and the traced one.
fn trace_threaded<R: Round>(
    out: &mut Layers,
    pat: &Pattern,
    plan: SegmentPlan,
    epoch: Instant,
    stamp: &Value,
) -> (u64, u64) {
    let name = R::NAME;
    let plain = thr::run_segment::<R>(pat, plan);
    set_metrics_enabled(true);
    let metrics_on = thr::run_segment::<R>(pat, plan);
    set_metrics_enabled(false);
    let traced = thr::run_segment::<R>(pat, plan.traced(epoch));

    let stats = trace::call_stats(&traced.logs, traced.warmup, R::OPS.len());
    for (op, st) in R::OPS.iter().zip(&stats) {
        out.set(
            format!("core.communicator.{op}_us.{name}"),
            st.median_ns / 1e3,
        );
    }
    let all = stats[R::OPS.len()];
    let rounds = f64::from(plan.rounds);
    out.set(
        format!("core.communicator.msgs_per_round.{name}"),
        all.sends as f64 / rounds,
    );
    out.set(
        format!("core.communicator.bytes_per_round.{name}"),
        all.bytes_out as f64 / rounds,
    );
    out.set(format!("runtime.op_time_share.{name}"), all.comm_share());
    let lookups = plain.pool_hits + plain.pool_misses;
    out.set(
        format!("runtime.pool_hit_rate.{name}"),
        plain.pool_hits as f64 / lookups.max(1) as f64,
    );
    let base = p50_us(&plain.round_ns);
    out.set(
        format!("{ROUND_P99}.{name}"),
        stats::latency_of(&plain.round_ns).p99_us,
    );
    out.set(
        format!("obs.metrics_on_ratio.{name}"),
        p50_us(&metrics_on.round_ns) / base,
    );
    out.set(
        format!("obs.trace_overhead_ratio.{name}"),
        p50_us(&traced.round_ns) / base,
    );
    if name == thr::Small::NAME {
        out.set(
            "runtime.ctx_switches_per_round.thr-small",
            plain.switches_per_round,
        );
    }
    let ops: Vec<String> = R::OPS.iter().map(|s| s.to_string()).collect();
    write_trace(name, stamp, &traced.logs, &ops);
    (
        3 * u64::from(plan.rounds),
        (plain.failed + metrics_on.failed + traced.failed) as u64,
    )
}

fn trace_cpu(
    out: &mut Layers,
    pat: &Pattern,
    o: &Options,
    scale: f64,
    epoch: Instant,
    stamp: &Value,
) -> (u64, u64, bool) {
    let lengths = cpu::sweep_lengths(o.seed);
    let (expected, data_ok) = cpu::cross_check_reference(pat, &lengths);
    let mut plan = cpu::segment_plan(o.quick);
    if !o.quick {
        plan.rounds = ((512.0 * scale) as u32).max(lengths.len() as u32);
    }
    let cache0 = global_cache().stats();
    let plain = cpu::run_segment(pat, &lengths, &expected, plan);
    let traced = cpu::run_segment(pat, &lengths, &expected, plan.traced(epoch));
    // The default path never touches the plan cache today, so there is
    // nothing to divide: no lookups reads as a hit rate of 0.
    let cache = global_cache().stats().delta(&cache0);
    out.set(
        "core.ir.cache_hit_rate.cpu-p64",
        cache.hit_rate().unwrap_or(0.0),
    );

    let stats = trace::call_stats(&traced.logs, traced.warmup, cpu::OPS.len());
    out.set(
        "core.communicator.allreduce8_ns.cpu-p64",
        stats[0].median_ns,
    );
    out.set(
        "core.communicator.allreduce64k_us.cpu-p64",
        stats[1].median_ns / 1e3,
    );
    out.set(
        "core.communicator.sweep_call_us.cpu-p64",
        stats[5].median_ns / 1e3,
    );
    let all = stats[cpu::OPS.len()];
    let rounds = f64::from(plan.rounds);
    out.set(
        "core.communicator.msgs_per_round.cpu-p64",
        all.sends as f64 / rounds,
    );
    out.set(
        "core.communicator.bytes_per_round.cpu-p64",
        all.bytes_out as f64 / rounds,
    );
    out.set(
        format!("{ROUND_P99}.{}", cpu::NAME),
        stats::latency_of(&plain.round_ns).p99_us,
    );
    out.set(
        "obs.trace_overhead_ratio.cpu-p64",
        p50_us(&traced.round_ns) / p50_us(&plain.round_ns),
    );
    let planned_rounds = if o.quick { 16 } else { 256 };
    out.set(
        "core.plan.planned_round_us.cpu-p64",
        cpu::planned_round_us(pat, &lengths, planned_rounds),
    );
    let ops: Vec<String> = cpu::OPS.iter().map(|s| s.to_string()).collect();
    write_trace(cpu::NAME, stamp, &traced.logs, &ops);
    (
        2 * u64::from(plan.rounds),
        (plain.failed + traced.failed) as u64,
        data_ok,
    )
}

fn trace_sim(
    out: &mut Layers,
    pat: &Pattern,
    o: &Options,
    epoch: Instant,
    stamp: &Value,
) -> (u64, u64, probes::SimFacts) {
    let rows = sim::rows(o.quick);
    // Warm the process on the cheap rows, checking them in full.
    let small: Vec<sim::Row> = rows
        .iter()
        .copied()
        .filter(|r| r.bytes <= 8 << 10)
        .collect();
    let warm = sim::run_pass(&small, pat, sim::Depth::Full, None);
    let plain = sim::run_pass(&rows, pat, sim::Depth::Edges, None);
    let mut traced = sim::run_pass(&rows, pat, sim::Depth::Edges, Some(epoch));

    let stats: Vec<_> = traced
        .rows
        .iter()
        .map(|r| trace::call_stats(&r.logs, 0, 0)[0])
        .collect();
    let facts = probes::SimFacts {
        rows: rows.clone(),
        virt_s: plain.virt_s(),
        host_ns: plain.rows.iter().map(|r| r.host_ns).collect(),
        sends: stats.iter().map(|s| s.sends).collect(),
    };
    for (row, virt) in rows.iter().zip(&facts.virt_s) {
        out.set(format!("meshsim.virt_us.{}", row.name()), virt * 1e6);
    }
    if o.quick {
        // The quick row set leaves rows out; keep the registry whole.
        for name in report::sim_row_names() {
            if !rows.iter().any(|r| r.name() == name) {
                out.set(format!("meshsim.virt_us.{name}"), 0.0);
            }
        }
    }
    let virt_us: Vec<f64> = facts.virt_s.iter().map(|v| v * 1e6).collect();
    out.set("meshsim.virt_us_per_round", stats::geomean(&virt_us));
    let p512 = |r: &sim::Row| r.world == sim::World::Mesh(16, 32);
    out.set(
        "meshsim.msgs_per_s.p512_8B",
        facts.msgs_per_s(|r| p512(r) && r.bytes == 8),
    );
    out.set(
        "meshsim.msgs_per_s.p512_1M",
        facts.msgs_per_s(|r| p512(r) && r.bytes == 1 << 20),
    );
    out.set(
        "meshsim.msgs_per_s.cluster16",
        facts.msgs_per_s(|r| matches!(r.world, sim::World::Cluster(_))),
    );
    out.set("meshsim.msgs_per_s.sim-mesh", facts.msgs_per_s(|_| true));
    out.set(
        "core.communicator.msgs_per_round.sim-mesh",
        facts.sends.iter().sum::<u64>() as f64,
    );
    out.set(
        "core.communicator.bytes_per_round.sim-mesh",
        stats.iter().map(|s| s.bytes_out).sum::<u64>() as f64,
    );
    let p512_logs: Vec<&[RankLog]> = traced
        .rows
        .iter()
        .zip(&rows)
        .filter(|(_, row)| p512(row))
        .map(|(r, _)| r.logs.as_slice())
        .collect();
    out.set(
        "meshsim.req_rtt_us.p512",
        trace::ns_per_comm_op(p512_logs.iter().copied().flatten()) / 1e3,
    );
    out.set(
        "obs.trace_overhead_ratio.sim-mesh",
        traced.host_ns() as f64 / plain.host_ns() as f64,
    );

    // One file for the pass: number the logs by row and rank.
    let mut logs = Vec::new();
    for (i, r) in traced.rows.iter_mut().enumerate() {
        for mut log in r.logs.drain(..) {
            log.stream = i * 1024 + log.rank;
            logs.push(log);
        }
    }
    let ops: Vec<String> = rows.iter().map(sim::Row::name).collect();
    write_trace(sim::NAME, stamp, &logs, &ops);

    let same = traced.virt_s() == plain.virt_s();
    let failed = [warm.ok(), plain.ok(), traced.ok() && same]
        .iter()
        .filter(|ok| !**ok)
        .count() as u64;
    (3, failed, facts)
}

/// The traced run: a slice of every workload with `TracedComm`
/// interposed, then the probes. The contract wants every per-layer
/// metric from every traced run, so this covers all four workloads
/// whatever `--workload` says; the name only labels the result.
fn run_traced(o: &Options) -> RunResult {
    let start = Instant::now();
    let epoch = start;
    let pat = Pattern::new(o.seed, TEMPLATE_BYTES);
    let stamp = env::stamp(o.seed);
    // Slice lengths follow `--seconds`; 30 s is the reference.
    let scale = (o.seconds / f64::from(DEFAULT_SECONDS)).clamp(0.05, 2.0);
    let slice = |base: f64| (base * scale) as u32;
    let mut out = Layers::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut add = |(a, f): (u64, u64)| {
        attempted += a;
        failed += f;
    };

    let small = SegmentPlan::of::<thr::Small>(o.quick);
    let small = if o.quick {
        small
    } else {
        small.with_rounds(slice(4000.0))
    };
    add(trace_threaded::<thr::Small>(
        &mut out, &pat, small, epoch, &stamp,
    ));
    let planned = thr::run_segment::<thr::SmallPlanned>(&pat, small);
    out.set(
        "core.plan.planned_round_us.thr-small",
        p50_us(&planned.round_ns),
    );
    add((u64::from(small.rounds), planned.failed as u64));

    let large = SegmentPlan::of::<thr::Large>(o.quick);
    let large = if o.quick {
        large
    } else {
        large.with_rounds(slice(150.0))
    };
    add(trace_threaded::<thr::Large>(
        &mut out, &pat, large, epoch, &stamp,
    ));

    let (a, f, data_ok) = trace_cpu(&mut out, &pat, o, scale, epoch, &stamp);
    add((a, f));
    let (a, f, facts) = trace_sim(&mut out, &pat, o, epoch, &stamp);
    add((a, f));
    let probes_ok = probes::run_all(&mut out, &facts, &pat, o.seed, o.quick);

    let other = if !data_ok {
        Some("a result on the cross-check's simulated worlds was wrong".to_string())
    } else if !probes_ok {
        Some("a result inside a probe was wrong".to_string())
    } else {
        None
    };
    let label = o.workload.as_deref().unwrap_or("all");
    let layers = Measured {
        metrics: out.into_metrics(),
        ungated: Vec::new(),
        other_regime_segments: 0,
    };
    result_of(o, label, start, (attempted, failed), other, layers)
}

fn result_path(o: &Options, workload: &str) -> PathBuf {
    let kind = if o.trace { "trace-result" } else { "result" };
    env::out_dir().join(format!("{kind}-{workload}.json"))
}

fn write_json(path: &Path, v: &Value) {
    if let Err(e) = std::fs::write(path, v.to_json_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// One workload (or the traced run) in this process.
fn run_one(o: &Options) -> ExitCode {
    std::fs::create_dir_all(env::out_dir()).expect("create benchmark/out");
    let result = if o.trace {
        run_traced(o)
    } else {
        match o.workload.as_deref() {
            Some(thr::Small::NAME) => run_threaded::<thr::Small>(o),
            Some(thr::Large::NAME) => run_threaded::<thr::Large>(o),
            Some(cpu::NAME) => run_cpu(o),
            Some(sim::NAME) => run_sim(o),
            other => unreachable!("workload {other:?} passed argument checking"),
        }
    };
    write_json(&result_path(o, &result.workload), &result.to_value());
    print!("{}", result.table());
    println!("{}", result.final_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in its own process, and one file for all.
fn run_all(o: &Options) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this program");
    let mut runs = Vec::new();
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        for seed in (o.seed..).take(o.repeat as usize) {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()]);
            if o.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().expect("start a workload process");
            all_ok &= status.success();
            let text = std::fs::read_to_string(result_path(o, workload)).unwrap_or_default();
            match json::parse(&text) {
                Ok(v) => runs.push(v),
                Err(e) => {
                    eprintln!("{workload}: no result ({e})");
                    all_ok = false;
                }
            }
        }
    }
    let path = env::out_dir().join("results.json");
    write_json(&path, &Value::obj([("runs", Value::Arr(runs))]));
    println!("wrote {}", path.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::from(2)
        }
        Ok(Cmd::Describe) => {
            print!(
                "{}",
                report::benchmark_json(DEFAULT_SECONDS).to_json_pretty()
            );
            ExitCode::SUCCESS
        }
        Ok(Cmd::Compare(a, b)) => compare::run(&a, &b),
        Ok(Cmd::Run(o)) if o.trace || o.workload.is_some() => run_one(&o),
        Ok(Cmd::Run(o)) => run_all(&o),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let Ok(Cmd::Run(o)) =
            parse_args(&args("--workload sim-mesh --seed 7 --seconds 12 --trace 0"))
        else {
            panic!("should parse");
        };
        assert_eq!(o.workload.as_deref(), Some("sim-mesh"));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, 12.0, false, false)
        );
        let Ok(Cmd::Run(o)) = parse_args(&args("--trace 1 --workload thr-small")) else {
            panic!("should parse");
        };
        assert!(o.trace && o.workload.is_some());
    }

    #[test]
    fn bare_trace_and_defaults() {
        let Ok(Cmd::Run(o)) = parse_args(&args("--trace --quick")) else {
            panic!("should parse");
        };
        assert!(o.trace && o.quick);
        assert_eq!(o.seed, DEFAULT_SEED);
        assert!(o.seconds <= 2.0);
        assert!(matches!(parse_args(&[]), Ok(Cmd::Run(_))));
        assert!(matches!(
            parse_args(&args("compare a.json b.json")),
            Ok(Cmd::Compare(..))
        ));
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--seconds",
            "--frobnicate",
            "compare one.json",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn fill_runs_at_least_once_and_stops_in_time() {
        let start = Instant::now();
        let n = fill(start, Duration::ZERO, || ()).len();
        assert_eq!(n, 1);
        let start = Instant::now();
        let runs = fill(start, Duration::from_millis(60), || {
            std::thread::sleep(Duration::from_millis(10))
        });
        assert!(runs.len() >= 2 && runs.len() <= 6, "{}", runs.len());
        assert!(start.elapsed() < Duration::from_millis(120));
    }
}
