//! `compare A.json B.json`: did B get worse than A?
//!
//! Each file is what a run wrote under `benchmark/out/`: one result, or
//! a `results.json` holding a set of runs (`run.sh --repeat 10`). A
//! side's value is the median over its runs of a workload. For every
//! (workload, metric) found in either file it prints one verdict:
//!
//! * exact metrics (simulated times, counts, the optimizer's message
//!   ratio) must be bit-equal, or they are `regressed`;
//! * end-to-end metrics use their bound: worse by more than the bound
//!   is `regressed`, better by more is `improved`; within the bound
//!   they are `unchanged`, unless either side's run-to-run spread (the
//!   distance between the quartiles of its runs, over their median)
//!   exceeds the bound, which makes the comparison `unresolved`;
//! * other per-layer metrics have no bound and are listed with their
//!   change only;
//! * a metric present on one side only is `unresolved`.
//!
//! The exit code is 1 if anything regressed, 0 otherwise.

use crate::json::{self, Value};
use crate::report::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
    /// A per-layer metric without a bound: shown, not judged.
    Listed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Listed => "-",
        }
    }
}

/// One side's reading of a metric: the median over its runs and their
/// quartile distance as a share of it (0 for a single run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

impl Reading {
    fn over(runs: &[f64]) -> Reading {
        let value = median(runs);
        let (q1, q3) = quartiles(runs);
        let spread = if runs.len() > 1 && value != 0.0 {
            (q3 - q1).abs() / value.abs()
        } else {
            0.0
        };
        Reading { value, spread }
    }
}

fn is_exact(name: &str, unit: &str) -> bool {
    unit == "count" || name.starts_with("meshsim.virt_") || name == "core.ir.opt_msgs_ratio"
}

pub fn judge(name: &str, unit: &str, a: Option<Reading>, b: Option<Reading>) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Unresolved;
    };
    if is_exact(name, unit) {
        return if a.value.to_bits() == b.value.to_bits() {
            Verdict::Unchanged
        } else {
            Verdict::Regressed
        };
    }
    let Some(def) = END_TO_END.iter().find(|d| d.name == name) else {
        return Verdict::Listed;
    };
    // Positive means B is worse, as a share of A.
    let worse = match def.better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    if worse > def.bound {
        Verdict::Regressed
    } else if worse < -def.bound {
        Verdict::Improved
    } else if a.spread.max(b.spread) > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One (workload, metric) of a result file with its value in each of
/// the file's runs of that workload.
struct Entry {
    workload: String,
    metric: String,
    unit: String,
    values: Vec<f64>,
}

/// Every (workload, metric) of a result file, in file order. A traced
/// run covers all workloads, so its label is `traced` whatever workload
/// named it.
fn entries_of(v: &Value) -> Result<Vec<Entry>, String> {
    let runs: Vec<&Value> = match v.get("runs") {
        Some(Value::Arr(runs)) => runs.iter().collect(),
        _ => vec![v],
    };
    let mut entries: Vec<Entry> = Vec::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a run without a workload")?;
        let traced = matches!(run.get("traced"), Some(Value::Bool(true)));
        let label = if traced { "traced" } else { workload };
        let sections = ["metrics", "ungated"].map(|k| run.get(k).and_then(Value::as_obj));
        if sections[0].is_none() {
            return Err("a run without metrics".into());
        }
        for (name, m) in sections.into_iter().flatten().flatten() {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("{name} has no value"))?;
            match entries
                .iter_mut()
                .find(|e| e.workload == label && e.metric == *name)
            {
                Some(e) => e.values.push(value),
                None => entries.push(Entry {
                    workload: label.into(),
                    metric: name.clone(),
                    unit: m.get("unit").and_then(Value::as_str).unwrap_or("").into(),
                    values: vec![value],
                }),
            }
        }
    }
    Ok(entries)
}

fn load(path: &Path) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    entries_of(&json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The verdict on one (workload, metric) and both sides' readings.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub a: Option<Reading>,
    pub b: Option<Reading>,
}

/// Every verdict for two sets of runs: A's entries in order, then what
/// only B has.
fn compare_entries(a: &[Entry], b: &[Entry]) -> Vec<Row> {
    let same = |x: &Entry, y: &Entry| x.workload == y.workload && x.metric == y.metric;
    let only_b = b.iter().filter(|y| !a.iter().any(|x| same(x, y)));
    a.iter()
        .chain(only_b)
        .map(|e| {
            let read = |side: &[Entry]| {
                side.iter()
                    .find(|x| same(x, e))
                    .map(|x| Reading::over(&x.values))
            };
            let (ra, rb) = (read(a), read(b));
            Row {
                workload: e.workload.clone(),
                metric: e.metric.clone(),
                verdict: judge(&e.metric, &e.unit, ra, rb),
                a: ra,
                b: rb,
            }
        })
        .collect()
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (ea, eb) = match (load(a), load(b)) {
        (Ok(ea), Ok(eb)) => (ea, eb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = [0usize; 5];
    for row in compare_entries(&ea, &eb) {
        let show = |r: Option<Reading>| r.map_or("missing".to_string(), |r| r.value.to_string());
        let change = match (row.a, row.b) {
            (Some(x), Some(y)) if x.value != 0.0 => {
                format!("{:+.2}%", (y.value - x.value) / x.value * 100.0)
            }
            _ => String::new(),
        };
        println!(
            "{:<10} {:<12} {:<52} {:>18} -> {:<18} {}",
            row.verdict.name(),
            row.workload,
            row.metric,
            show(row.a),
            show(row.b),
            change
        );
        tally[row.verdict as usize] += 1;
    }
    println!(
        "improved {}  unchanged {}  regressed {}  unresolved {}  listed without a bound {}",
        tally[Verdict::Improved as usize],
        tally[Verdict::Unchanged as usize],
        tally[Verdict::Regressed as usize],
        tally[Verdict::Unresolved as usize],
        tally[Verdict::Listed as usize],
    );
    if tally[Verdict::Regressed as usize] > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(value: f64) -> Option<Reading> {
        Some(Reading { value, spread: 0.0 })
    }

    fn noisy(value: f64, spread: f64) -> Option<Reading> {
        Some(Reading { value, spread })
    }

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        // round_p50_us: lower is better, bound 20 %.
        assert_eq!(
            judge("round_p50_us", "us", at(100.0), at(121.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge("round_p50_us", "us", at(100.0), at(119.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge("round_p50_us", "us", at(100.0), at(75.0)),
            Verdict::Improved
        );
        // rounds_per_s: higher is better.
        assert_eq!(
            judge("rounds_per_s", "1/s", at(100.0), at(75.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge("rounds_per_s", "1/s", at(100.0), at(125.0)),
            Verdict::Improved
        );
        // setup_s has the widest bound.
        assert_eq!(judge("setup_s", "s", at(1.0), at(1.2)), Verdict::Unchanged);
        assert_eq!(judge("setup_s", "s", at(1.0), at(1.3)), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(
            judge("round_p50_us", "us", noisy(100.0, 0.3), at(104.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge("round_p50_us", "us", noisy(100.0, 0.05), noisy(104.0, 0.05)),
            Verdict::Unchanged
        );
        // Beyond the bound it is a regression whatever the spread.
        assert_eq!(
            judge("round_p50_us", "us", noisy(100.0, 0.3), at(150.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_metrics_demand_bit_equality() {
        let v = 556.529;
        assert_eq!(
            judge("meshsim.virt_us.p512.bcast.8B", "us", at(v), at(v)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge("meshsim.virt_us.p512.bcast.8B", "us", at(v), at(v + 1e-9)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                "core.communicator.msgs_per_round.thr-small",
                "count",
                at(6.0),
                at(7.0)
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge("core.ir.opt_msgs_ratio", "ratio", at(0.5), at(0.5)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn missing_and_unbounded_metrics() {
        assert_eq!(
            judge("round_p50_us", "us", at(1.0), None),
            Verdict::Unresolved
        );
        assert_eq!(
            judge("runtime.pingpong_rtt_us.8B", "us", at(30.0), at(90.0)),
            Verdict::Listed
        );
    }

    fn run(workload: &str, p50: f64) -> Value {
        Value::obj([
            ("workload", Value::str(workload)),
            ("traced", Value::Bool(false)),
            (
                "metrics",
                Value::obj([(
                    "round_p50_us",
                    Value::obj([("value", Value::Num(p50)), ("unit", Value::str("us"))]),
                )]),
            ),
        ])
    }

    #[test]
    fn files_with_one_run_or_many_are_matched_by_workload() {
        let many = Value::obj([(
            "runs",
            Value::Arr(vec![run("thr-small", 80.0), run("cpu-p64", 500.0)]),
        )]);
        let a = entries_of(&many).unwrap();
        let b = entries_of(&run("thr-small", 100.0)).unwrap();
        let rows = compare_entries(&a, &b);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].verdict),
            ("thr-small", Verdict::Regressed)
        );
        assert_eq!(
            (rows[1].workload.as_str(), rows[1].verdict),
            ("cpu-p64", Verdict::Unresolved)
        );
        // What only B has comes last.
        let rows = compare_entries(&b, &a);
        assert_eq!(rows[1].workload, "cpu-p64");
        assert!(rows[1].a.is_none() && rows[1].b.is_some());
    }

    #[test]
    fn a_set_of_runs_reads_as_its_median_and_quartile_distance() {
        let set = |values: &[f64]| {
            let runs = values.iter().map(|&v| run("thr-small", v)).collect();
            entries_of(&Value::obj([("runs", Value::Arr(runs))])).unwrap()
        };
        let steady = set(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let reading = Reading::over(&steady[0].values);
        assert_eq!(reading.value, 100.0);
        assert!(reading.spread > 0.0 && reading.spread < 0.02);
        let shaky = set(&[100.0, 130.0, 80.0, 120.0, 85.0]);
        assert!(Reading::over(&shaky[0].values).spread > 0.3);
        // Same median: steady against steady is unchanged, against
        // shaky it cannot be told.
        assert_eq!(
            compare_entries(&steady, &steady)[0].verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            compare_entries(&steady, &shaky)[0].verdict,
            Verdict::Unresolved
        );
    }
}
