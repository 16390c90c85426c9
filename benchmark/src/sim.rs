//! `sim-mesh`: the paper's tables on the discrete-event simulator.
//!
//! One fresh simulated world per row and one default-path collective
//! per world. A round is one pass over all rows. Virtual time is the
//! paper's headline number: it moves only with selection and schedule
//! quality and repeats exactly. Host time is the event engine, the
//! fluid rate solver and the rank-thread hand-off; the threaded
//! transport is bypassed entirely.
//!
//! The simulator runs one thread per simulated rank, up to 512 here.
//! Those threads are the program under test, not load generators.

use crate::api::{
    simulate, Algo, Cluster, Comm, Communicator, HierMachine, MachineParams, Mesh2D, ReduceOp,
    SimConfig,
};
use crate::comm::{Meter, Plain, RankLog, TracedComm};
use crate::validate::Pattern;
use std::time::Instant;

pub const NAME: &str = "sim-mesh";
/// Comm spans kept per simulated rank and row; the per-call counts and
/// times are complete regardless.
const COMM_SPAN_CAP: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Bcast,
    Allgather,
    Allreduce,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Bcast => "bcast",
            Op::Allgather => "allgather",
            Op::Allreduce => "allreduce",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backbone {
    Paragon,
    Delta,
}

impl Backbone {
    pub fn machine(self) -> HierMachine {
        match self {
            Backbone::Paragon => HierMachine::paragon_cluster(),
            Backbone::Delta => HierMachine::delta_cluster(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// A flat mesh with the Paragon parameters.
    Mesh(usize, usize),
    /// A linear array (Table 2's), which selection treats as unstructured.
    Line(usize),
    /// The 2×2×4 cluster of meshes on the given backbone.
    Cluster(Backbone),
}

impl World {
    pub fn ranks(self) -> usize {
        match self {
            World::Mesh(r, c) => r * c,
            World::Line(p) => p,
            World::Cluster(_) => cluster().ranks(),
        }
    }
}

pub fn cluster() -> Cluster {
    Cluster::new(Mesh2D::new(2, 2), 4)
}

/// One table row: a world, a collective and its length in bytes. For
/// `Allgather` the length is the gathered result, as in Table 3.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub world: World,
    pub op: Op,
    pub bytes: usize,
}

fn size_label(bytes: usize) -> String {
    match bytes {
        b if b >= 1 << 20 => format!("{}M", b >> 20),
        b if b >= 1 << 10 => format!("{}K", b >> 10),
        b => format!("{b}B"),
    }
}

impl Row {
    /// A stable name such as `p512.bcast.64K` or `cl16.delta.allreduce.8K`.
    pub fn name(&self) -> String {
        let world = match self.world {
            World::Mesh(r, c) => format!("p{}", r * c),
            World::Line(p) => format!("lin{p}"),
            World::Cluster(Backbone::Paragon) => "cl16.paragon".into(),
            World::Cluster(Backbone::Delta) => "cl16.delta".into(),
        };
        format!("{world}.{}.{}", self.op.name(), size_label(self.bytes))
    }

    /// Per-rank block of an allgather whose result is `bytes` long.
    fn block(&self) -> usize {
        (self.bytes / self.world.ranks()).max(1)
    }

    /// Payload bytes the collective delivers to each rank.
    pub fn payload(&self) -> usize {
        match self.op {
            Op::Allgather => self.block() * self.world.ranks(),
            _ => self.bytes,
        }
    }
}

/// The 21 rows: Table 3's iCC column on 16×32, Fig. 4's
/// non-power-of-two 15×30 mesh, and both cluster backbones.
pub fn rows(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let (kib64, mib) = (64 << 10, 1 << 20);
    for bytes in [8, kib64, mib] {
        for op in [Op::Bcast, Op::Allgather, Op::Allreduce] {
            rows.push(Row {
                world: World::Mesh(16, 32),
                op,
                bytes,
            });
        }
    }
    for bytes in [8, kib64] {
        for op in [Op::Bcast, Op::Allgather] {
            rows.push(Row {
                world: World::Mesh(15, 30),
                op,
                bytes,
            });
        }
    }
    for backbone in [Backbone::Paragon, Backbone::Delta] {
        for op in [Op::Bcast, Op::Allreduce] {
            for bytes in [8 << 10, 256 << 10] {
                rows.push(Row {
                    world: World::Cluster(backbone),
                    op,
                    bytes,
                });
            }
        }
    }
    if quick {
        rows.retain(|r| r.bytes <= 8 << 10);
    }
    rows
}

pub fn sim_config(world: World) -> SimConfig {
    match world {
        World::Mesh(r, c) => SimConfig::new(Mesh2D::new(r, c), MachineParams::PARAGON),
        World::Line(p) => SimConfig::new(Mesh2D::new(1, p), MachineParams::PARAGON),
        World::Cluster(b) => SimConfig::cluster(cluster(), &b.machine()),
    }
}

pub fn communicator<C: Comm + ?Sized>(world: World, c: &C) -> Communicator<'_, C> {
    match world {
        World::Mesh(r, cols) => {
            Communicator::world_on_mesh(c, MachineParams::PARAGON, Mesh2D::new(r, cols))
                .expect("the mesh holds the world")
        }
        World::Line(_) => Communicator::world(c, MachineParams::PARAGON),
        World::Cluster(b) => Communicator::world_on_cluster(c, b.machine(), &cluster())
            .expect("the cluster holds the world"),
    }
}

/// Elements compared at each end of a result on timed passes.
const EDGE: usize = 16;

/// How much of a result a rank compares with its reference. Timed
/// passes look at both ends only (a few nanoseconds inside a
/// `simulate` call of a millisecond or more); the untimed first pass
/// compares every element.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    Full,
    Edges,
}

/// One rank's part of a row: construct the communicator, make the one
/// call, check the result. `algo` of `None` is the library's default
/// path; the selection probes pass an explicit algorithm.
pub fn rank_body<C: Comm + ?Sized, M: Meter>(
    c: &C,
    m: &M,
    (row, index): (Row, u16),
    pat: &Pattern,
    depth: Depth,
    algo: Option<&Algo>,
) -> bool {
    let cc = communicator(row.world, c);
    let (p, rank) = (cc.size(), cc.rank());
    let round = u32::from(index);
    match row.op {
        Op::Bcast => {
            let mut buf = vec![0u8; row.bytes];
            if rank == 0 {
                pat.fill_bcast(round, &mut buf);
            }
            let (r, _) = m.call(index, row.bytes, || match algo {
                None => cc.bcast(0, &mut buf),
                Some(a) => cc.bcast_with(0, &mut buf, a),
            });
            let e = EDGE.min(buf.len());
            let tail = buf.len() - e;
            r.is_ok()
                && match depth {
                    Depth::Full => pat.check_bcast(round, &buf),
                    Depth::Edges => {
                        pat.check_bcast(round, &buf[..e])
                            && pat.check_bcast_at(round, tail, &buf[tail..])
                    }
                }
        }
        Op::Allgather => {
            let block = row.block();
            let mut mine = vec![0u8; block];
            pat.fill_gather(rank, round, &mut mine);
            let mut all = vec![0u8; block * p];
            let (r, _) = m.call(index, all.len(), || match algo {
                None => cc.allgather(&mine, &mut all),
                Some(a) => cc.allgather_with(&mine, &mut all, a),
            });
            let e = EDGE.min(block);
            let tail = all.len() - e;
            r.is_ok()
                && match depth {
                    Depth::Full => pat.check_gather(round, p, &all),
                    Depth::Edges => {
                        pat.check_gather_block(0, round, 0, &all[..e])
                            && pat.check_gather_block(p - 1, round, block - e, &all[tail..])
                    }
                }
        }
        Op::Allreduce => {
            let mut buf = vec![0f64; row.bytes / 8];
            pat.fill_sum(rank, round, 0, &mut buf);
            let (r, _) = m.call(index, row.bytes, || match algo {
                None => cc.allreduce(&mut buf, ReduceOp::Sum),
                Some(a) => cc.allreduce_with(&mut buf, ReduceOp::Sum, a),
            });
            let e = EDGE.min(buf.len());
            let tail = buf.len() - e;
            r.is_ok()
                && match depth {
                    Depth::Full => pat.check_sum(p, round, 0, &buf),
                    Depth::Edges => {
                        pat.check_sum(p, round, 0, &buf[..e])
                            && pat.check_sum(p, round, tail, &buf[tail..])
                    }
                }
        }
    }
}

/// What one simulated row produced.
pub struct RowOut {
    pub host_ns: u64,
    /// Simulated seconds: the paper's number for this row.
    pub virt_s: f64,
    pub ok: bool,
    pub logs: Vec<RankLog>,
}

/// Simulates one row: a fresh world, one collective per rank.
pub fn run_row(
    (row, index): (Row, u16),
    pat: &Pattern,
    depth: Depth,
    algo: Option<&Algo>,
    traced: Option<Instant>,
) -> RowOut {
    let cfg = sim_config(row.world);
    let t0 = Instant::now();
    let report = simulate(&cfg, |c| match traced {
        None => (rank_body(c, &Plain, (row, index), pat, depth, algo), None),
        Some(epoch) => {
            let tc = TracedComm::new(c, epoch, COMM_SPAN_CAP);
            let ok = rank_body(&tc, &tc, (row, index), pat, depth, algo);
            (ok, Some(tc.into_log()))
        }
    });
    let host_ns = t0.elapsed().as_nanos() as u64;
    RowOut {
        host_ns,
        virt_s: report.elapsed,
        ok: report.results.iter().all(|(ok, _)| *ok),
        logs: report.results.into_iter().filter_map(|(_, l)| l).collect(),
    }
}

/// One pass over all rows: the round of this workload.
pub struct Pass {
    pub rows: Vec<RowOut>,
}

impl Pass {
    /// Round latency: the summed host time of the rows' `simulate` calls.
    pub fn host_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.host_ns).sum()
    }

    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }

    pub fn virt_s(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.virt_s).collect()
    }
}

pub fn run_pass(rows: &[Row], pat: &Pattern, depth: Depth, traced: Option<Instant>) -> Pass {
    Pass {
        rows: rows
            .iter()
            .enumerate()
            .map(|(i, &row)| run_row((row, i as u16), pat, depth, None, traced))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SpanKind;

    #[test]
    fn there_are_21_uniquely_named_rows() {
        let rows = rows(false);
        assert_eq!(rows.len(), 21);
        let mut names: Vec<String> = rows.iter().map(Row::name).collect();
        assert!(names.contains(&"p512.bcast.64K".to_string()));
        assert!(names.contains(&"p450.allgather.8B".to_string()));
        assert!(names.contains(&"cl16.delta.allreduce.256K".to_string()));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 21);
        assert!(names.iter().all(|n| n.len() <= 40));
    }

    #[test]
    fn small_rows_simulate_correctly_and_repeat_exactly() {
        let pat = Pattern::new(3, 4096);
        let rows = rows(true);
        assert!(!rows.is_empty());
        let full = run_pass(&rows, &pat, Depth::Full, None);
        let edges = run_pass(&rows, &pat, Depth::Edges, None);
        assert!(full.ok() && edges.ok());
        assert_eq!(full.virt_s(), edges.virt_s(), "virtual time is exact");
        assert!(full.virt_s().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn traced_row_has_one_call_per_rank() {
        let pat = Pattern::new(3, 4096);
        let row = Row {
            world: World::Cluster(Backbone::Delta),
            op: Op::Allreduce,
            bytes: 8 << 10,
        };
        let out = run_row((row, 7), &pat, Depth::Full, None, Some(Instant::now()));
        assert!(out.ok);
        assert_eq!(out.logs.len(), 16);
        for log in &out.logs {
            let calls: Vec<_> = log
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Call)
                .collect();
            assert_eq!(calls.len(), 1);
            assert_eq!(calls[0].arg, 7);
            assert!(calls[0].counts.sends > 0);
        }
    }

    #[test]
    fn a_wrong_result_fails_the_row() {
        // A rank that checks against the wrong round sees stale data.
        let pat = Pattern::new(3, 4096);
        let row = Row {
            world: World::Cluster(Backbone::Paragon),
            op: Op::Bcast,
            bytes: 8 << 10,
        };
        let cfg = sim_config(row.world);
        let report = simulate(&cfg, |c| {
            let cc = communicator(row.world, c);
            let mut buf = vec![0u8; row.bytes];
            if cc.rank() == 0 {
                pat.fill_bcast(1, &mut buf);
            }
            cc.bcast(0, &mut buf).unwrap();
            (pat.check_bcast(1, &buf), pat.check_bcast(2, &buf))
        });
        assert!(report.results.iter().all(|&(right, stale)| right && !stale));
    }
}
