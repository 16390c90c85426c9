//! Reading the span logs: per-call statistics and the trace file.
//!
//! A trace is `round → call(op, n) → comm(send|recv|sendrecv, peer,
//! bytes)`. A span's self time is its duration minus the time its
//! children cover: for a call that is the library's own work
//! (selection, dispatch, copies, folds), the rest is time inside the
//! transport.

use crate::comm::{RankLog, Span, SpanKind};
use crate::json::Value;
use crate::stats::median;
use std::collections::HashSet;
use std::io::Write as _;
use std::path::Path;

/// Spans written to a trace file at most; the head of the run is kept.
const FILE_SPAN_CAP: usize = 60_000;

/// The call spans of timed rounds: those whose round index is at least
/// `warmup`, and calls outside any round (one call per simulated rank).
pub fn timed_calls(log: &RankLog, warmup: u32) -> impl Iterator<Item = &Span> {
    let warm: HashSet<u32> = log
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Round && s.arg < warmup)
        .map(|s| s.id)
        .collect();
    log.spans
        .iter()
        .filter(move |s| s.kind == SpanKind::Call && !warm.contains(&s.parent))
}

/// Per-call statistics of one call name over a set of logs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    pub calls: u64,
    pub median_ns: f64,
    /// Time inside `Comm` operations, summed.
    pub comm_ns: u64,
    /// Call durations, summed.
    pub total_ns: u64,
    pub sends: u64,
    pub bytes_out: u64,
}

impl CallStats {
    /// Share of call time spent inside the transport; the rest is the
    /// library's self time.
    pub fn comm_share(&self) -> f64 {
        self.comm_ns as f64 / self.total_ns.max(1) as f64
    }
}

/// Statistics of the timed calls, for each call name index below `ops`
/// and, last, over all calls.
pub fn call_stats(logs: &[RankLog], warmup: u32, ops: usize) -> Vec<CallStats> {
    let mut durs: Vec<Vec<f64>> = vec![Vec::new(); ops + 1];
    let mut out = vec![CallStats::default(); ops + 1];
    for log in logs {
        for s in timed_calls(log, warmup) {
            // Its own name's slot, when it has one, and the total.
            let own = Some(s.arg as usize).filter(|&slot| slot < ops);
            for slot in own.into_iter().chain([ops]) {
                durs[slot].push(s.dur() as f64);
                let st = &mut out[slot];
                st.calls += 1;
                st.comm_ns += s.child_ns;
                st.total_ns += s.dur();
                st.sends += s.counts.sends;
                st.bytes_out += s.counts.bytes_out;
            }
        }
    }
    for (st, d) in out.iter_mut().zip(&durs) {
        if !d.is_empty() {
            st.median_ns = median(d);
        }
    }
    out
}

/// Mean host nanoseconds per `Comm` operation as the traced ranks saw it.
pub fn ns_per_comm_op<'a>(logs: impl IntoIterator<Item = &'a RankLog>) -> f64 {
    let (mut ns, mut ops) = (0u64, 0u64);
    for log in logs {
        for s in log.spans.iter().filter(|s| s.kind == SpanKind::Call) {
            ns += s.child_ns;
            ops += s.comm_ops;
        }
    }
    ns as f64 / ops.max(1) as f64
}

fn span_value(log: &RankLog, s: &Span, ops: &[String]) -> Value {
    // Ids are unique within a log; the file makes them unique overall.
    let global = |id: u32| ((log.stream as u64) << 32 | u64::from(id)) as f64;
    let rank = log.rank;
    let mut pairs = vec![
        ("id", Value::Num(global(s.id))),
        (
            "parent",
            if s.parent == 0 {
                Value::Null
            } else {
                Value::Num(global(s.parent))
            },
        ),
        ("rank", Value::Num(rank as f64)),
        ("kind", Value::str(s.kind.name())),
    ];
    match s.kind {
        SpanKind::Round => pairs.push(("round", Value::Num(f64::from(s.arg)))),
        SpanKind::Call => {
            let name = ops.get(s.arg as usize).map_or("?", String::as_str);
            pairs.push(("op", Value::str(name)));
            pairs.push(("n", Value::Num(s.bytes as f64)));
            pairs.push(("self_ns", Value::Num((s.dur() - s.child_ns) as f64)));
            pairs.push(("msgs", Value::Num(s.counts.sends as f64)));
        }
        _ => {
            pairs.push(("peer", Value::Num(f64::from(s.arg))));
            pairs.push(("bytes", Value::Num(s.bytes as f64)));
        }
    }
    pairs.push(("t0_ns", Value::Num(s.t0 as f64)));
    pairs.push(("t1_ns", Value::Num(s.t1 as f64)));
    Value::obj(pairs)
}

/// Writes `trace-<workload>.json`: the environment stamp and the spans,
/// one per line, rank by rank in time order.
pub fn write_file(
    path: &Path,
    workload: &str,
    env: &Value,
    logs: &[RankLog],
    ops: &[String],
) -> std::io::Result<()> {
    let total: usize = logs.iter().map(|l| l.spans.len()).sum();
    let dropped: u64 = logs.iter().map(|l| l.dropped).sum();
    // Keep the same share of every rank so all of them show.
    let per_rank = FILE_SPAN_CAP.div_ceil(logs.len().max(1));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    writeln!(f, "\"workload\": {},", Value::str(workload).to_json())?;
    writeln!(f, "\"env\": {},", env.to_json())?;
    writeln!(f, "\"time_unit\": \"ns since the run's epoch\",")?;
    writeln!(f, "\"spans_recorded\": {total},")?;
    writeln!(f, "\"comm_spans_not_kept\": {dropped},")?;
    writeln!(f, "\"spans\": [")?;
    let mut first = true;
    for log in logs {
        for s in log.spans.iter().take(per_rank) {
            if !first {
                writeln!(f, ",")?;
            }
            first = false;
            write!(f, "{}", span_value(log, s, ops).to_json())?;
        }
    }
    writeln!(f, "\n]\n}}")?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Comm;
    use crate::comm::{Meter, NullComm, TracedComm};
    use std::time::Instant;

    fn sample_log() -> RankLog {
        let null = NullComm::new(1, 4);
        let tc = TracedComm::new(&null, Instant::now(), 100);
        for round in 0..3 {
            tc.begin_round(round);
            tc.call(0, 8, || tc.send(0, 0, &[0; 8]).unwrap());
            tc.call(1, 16, || {
                let mut b = [0u8; 16];
                tc.sendrecv(2, &[0; 16], 0, &mut b, 0).unwrap();
            });
            tc.end_round();
        }
        tc.into_log()
    }

    #[test]
    fn warm_up_rounds_are_left_out() {
        let log = sample_log();
        assert_eq!(timed_calls(&log, 0).count(), 6);
        assert_eq!(timed_calls(&log, 1).count(), 4);
        let stats = call_stats(std::slice::from_ref(&log), 1, 2);
        assert_eq!(stats[0].calls, 2);
        assert_eq!(stats[0].bytes_out, 16);
        assert_eq!(stats[1].sends, 2);
        assert_eq!(stats[2].calls, 4, "the last slot covers every call");
        // With no named slots every call lands in the total once.
        assert_eq!(call_stats(std::slice::from_ref(&log), 1, 0)[0].calls, 4);
        assert!(stats[2].comm_share() > 0.0 && stats[2].comm_share() <= 1.0);
        assert!(stats[1].median_ns > 0.0);
    }

    #[test]
    fn trace_file_is_json_with_parents_and_self_time() {
        let log = sample_log();
        let dir = crate::env::out_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-test.json");
        let ops = vec!["a".to_string(), "b".to_string()];
        write_file(
            &path,
            "test",
            &Value::obj([("seed", Value::Num(1.0))]),
            &[log],
            &ops,
        )
        .unwrap();
        let v = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let Some(Value::Arr(spans)) = v.get("spans") else {
            panic!("spans array");
        };
        // 3 rounds × (round + 2 calls + 2 comm ops).
        assert_eq!(spans.len(), 15);
        let call = spans
            .iter()
            .find(|s| s.get("kind").and_then(Value::as_str) == Some("call"))
            .unwrap();
        assert_eq!(call.get("op").and_then(Value::as_str), Some("a"));
        assert!(call.get("self_ns").is_some() && call.get("parent").is_some());
        let comm = spans
            .iter()
            .find(|s| s.get("kind").and_then(Value::as_str) == Some("send"))
            .unwrap();
        assert_eq!(comm.get("parent"), call.get("id"));
    }
}
