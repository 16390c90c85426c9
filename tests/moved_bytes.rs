//! What one rank's calls move, counted rather than timed: the
//! benchmark's `cpu-p64` round (a one-element and an 8 192-element
//! `f64` allreduce, a 1 KiB broadcast, an allgather of 64 B blocks, a
//! reduce-scatter of 128-`f64` blocks, and one allreduce of the sweep)
//! on rank 27 of an 8×8 mesh and rank 13 of a 30-rank line, over a
//! transport that moves nothing and counts. It counts the messages a
//! rank posts and what the recording hooks report: the bytes of its
//! local copies and folds, and its block un-permutations. The calls
//! run on the direct path and through compiled plans.
//!
//! A copy that comes back, or a message that goes missing, changes a
//! count on any machine, however noisy its clock. The test prints its
//! table (`--nocapture`), so a change that moves a count can quote it.

use intercom::plan::{AllreducePlan, BcastPlan, CollectPlan, ReduceScatterPlan};
use intercom::{Comm, Communicator, ReduceOp, Result, Tag};
use intercom_cost::MachineParams;
use intercom_topology::Mesh2D;
use std::cell::Cell;

/// What one call moved on the counting rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Moved {
    /// Messages posted: a send, a receive, or one of each for an
    /// exchange.
    msgs: u64,
    /// The bytes of those messages, both ways.
    msg_bytes: u64,
    /// Bytes written by local copies.
    copy_bytes: u64,
    /// Bytes of the accumulators of local folds.
    fold_bytes: u64,
    /// Block un-permutations, and the bytes of the regions they permute.
    permutes: u64,
    permute_bytes: u64,
}

impl Moved {
    fn since(self, before: Moved) -> Moved {
        Moved {
            msgs: self.msgs - before.msgs,
            msg_bytes: self.msg_bytes - before.msg_bytes,
            copy_bytes: self.copy_bytes - before.copy_bytes,
            fold_bytes: self.fold_bytes - before.fold_bytes,
            permutes: self.permutes - before.permutes,
            permute_bytes: self.permute_bytes - before.permute_bytes,
        }
    }
}

/// A transport that moves nothing: every call returns at once, receive
/// buffers keep what they held, and every message and hook is counted.
struct Counting {
    rank: usize,
    size: usize,
    moved: Cell<Moved>,
}

impl Counting {
    fn new(rank: usize, size: usize) -> Self {
        Counting {
            rank,
            size,
            moved: Cell::new(Moved::default()),
        }
    }

    fn count(&self, f: impl FnOnce(&mut Moved)) {
        let mut m = self.moved.get();
        f(&mut m);
        self.moved.set(m);
    }

    fn message(&self, bytes: usize) {
        self.count(|m| {
            m.msgs += 1;
            m.msg_bytes += bytes as u64;
        });
    }

    /// What `f` moved.
    fn moved_by(&self, f: impl FnOnce() -> Result<()>) -> Moved {
        let before = self.moved.get();
        f().unwrap();
        self.moved.get().since(before)
    }
}

impl Comm for Counting {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    fn send(&self, _: usize, _: Tag, data: &[u8]) -> Result<()> {
        self.message(data.len());
        Ok(())
    }
    fn recv(&self, _: usize, _: Tag, buf: &mut [u8]) -> Result<()> {
        self.message(buf.len());
        Ok(())
    }
    fn sendrecv(&self, _: usize, data: &[u8], _: usize, buf: &mut [u8], _: Tag) -> Result<()> {
        self.message(data.len());
        self.message(buf.len());
        Ok(())
    }
    fn local_copy(&self, _: &[u8], dst: &[u8]) {
        self.count(|m| m.copy_bytes += dst.len() as u64);
    }
    fn local_reduce(&self, acc: &[u8], _: &[u8]) {
        self.count(|m| m.fold_bytes += acc.len() as u64);
    }
    fn local_permute(&self, region: &[u8], _: &[u8], _: &[usize]) {
        self.count(|m| {
            m.permutes += 1;
            m.permute_bytes += region.len() as u64;
        });
    }
}

/// The calls, in round order.
const CALLS: [&str; 6] = [
    "allreduce 8 B",
    "allreduce 64 KiB",
    "bcast 1 KiB",
    "allgather 64 B",
    "reduce_scatter 1 KiB",
    "sweep allreduce",
];

/// The sweep length, in `f64`s: one of the benchmark's lengths between
/// 8 B and 256 KiB, with uneven blocks on both worlds.
const SWEEP: usize = 12_345;

/// What each call moves on `comm`'s rank: `[direct, planned]`.
fn round(comm: &Counting, mesh: Option<Mesh2D>) -> [[Moved; 2]; 6] {
    let params = MachineParams::PARAGON;
    let cc = match mesh {
        Some(mesh) => Communicator::world_on_mesh(comm, params, mesh).unwrap(),
        None => Communicator::world(comm, params),
    };
    let (p, sum) = (cc.size(), ReduceOp::Sum);
    let (mut a8, mut a64k, mut sweep) = ([1.0f64], vec![1.0f64; 8192], vec![1.0f64; SWEEP]);
    let mut b1k = vec![0u8; 1024];
    let (mine, mut all) = ([7u8; 64], vec![0u8; 64 * p]);
    let (contrib, mut block) = (vec![1.0f64; 128 * p], vec![0.0f64; 128]);
    let direct = [
        comm.moved_by(|| cc.allreduce(&mut a8, sum)),
        comm.moved_by(|| cc.allreduce(&mut a64k, sum)),
        comm.moved_by(|| cc.bcast(0, &mut b1k)),
        comm.moved_by(|| cc.allgather(&mine, &mut all)),
        comm.moved_by(|| cc.reduce_scatter(&contrib, &mut block, sum)),
        comm.moved_by(|| cc.allreduce(&mut sweep, sum)),
    ];
    let planned = [
        comm.moved_by(|| AllreducePlan::new(&cc, 1, sum).execute(&cc, &mut a8)),
        comm.moved_by(|| AllreducePlan::new(&cc, 8192, sum).execute(&cc, &mut a64k)),
        comm.moved_by(|| BcastPlan::new(&cc, 0, 1024).execute(&cc, &mut b1k)),
        comm.moved_by(|| CollectPlan::new(&cc, 64).execute(&cc, &mine, &mut all)),
        comm.moved_by(|| ReduceScatterPlan::new(&cc, 128, sum).execute(&cc, &contrib, &mut block)),
        comm.moved_by(|| AllreducePlan::new(&cc, SWEEP, sum).execute(&cc, &mut sweep)),
    ];
    std::array::from_fn(|i| [direct[i], planned[i]])
}

/// `[msgs, msg_bytes, copy_bytes, fold_bytes, permutes, permute_bytes]`.
fn row(m: &Moved) -> [u64; 6] {
    [
        m.msgs,
        m.msg_bytes,
        m.copy_bytes,
        m.fold_bytes,
        m.permutes,
        m.permute_bytes,
    ]
}

fn print(world: &str, got: &[[Moved; 2]; 6]) {
    println!("{world}: msgs, msg B, copy B, fold B, permutes, permute B");
    for (call, moved) in CALLS.iter().zip(got) {
        for (path, m) in ["direct", "planned"].iter().zip(moved) {
            println!("  {call:<22} {path:<8} {:?}", row(m));
        }
    }
}

/// Rank 27 of the 8×8 mesh, `[direct, planned]` per call. The
/// reduce-scatter copied 66 560 bytes while it packed its whole
/// contribution into slot order.
const MESH: [[[u64; 6]; 2]; 6] = [
    [[24, 16, 0, 0, 0, 0], [2, 16, 0, 0, 0, 0]],
    [[28, 258_048, 0, 64_512, 0, 0]; 2],
    [[1, 1024, 0, 0, 0, 0]; 2],
    [[12, 8064, 64, 0, 1, 4096]; 2],
    [[14, 129_024, 33_792, 64_512, 0, 0]; 2],
    [[28, 388_832, 0, 97_200, 0, 0]; 2],
];

/// Rank 13 of the 30-rank line, `[direct, planned]` per call. The
/// reduce-scatter copied 31 744 bytes while it packed its whole
/// contribution into slot order.
const LINE: [[[u64; 6]; 2]; 6] = [
    [[8, 16, 0, 0, 0, 0], [2, 16, 0, 0, 0, 0]],
    [[28, 253_424, 0, 63_360, 0, 0]; 2],
    [[1, 1024, 0, 0, 0, 0]; 2],
    [[14, 3712, 64, 0, 1, 1920]; 2],
    [[14, 59_392, 16_384, 29_696, 0, 0]; 2],
    [[28, 381_864, 0, 95_464, 0, 0]; 2],
];

#[test]
fn a_cpu_p64_round_moves_what_it_moved() {
    let worlds = [
        (
            "8x8 mesh, rank 27",
            Counting::new(27, 64),
            Some(Mesh2D::new(8, 8)),
            MESH,
        ),
        ("30-rank line, rank 13", Counting::new(13, 30), None, LINE),
    ];
    let rounds = worlds.map(|(world, comm, mesh, want)| (world, round(&comm, mesh), want));
    for (world, got, _) in &rounds {
        print(world, got);
    }
    for (world, got, want) in rounds {
        for (i, call) in CALLS.iter().enumerate() {
            for (path, j) in [("direct", 0), ("planned", 1)] {
                assert_eq!(row(&got[i][j]), want[i][j], "{world}: {call}, {path}");
            }
        }
    }
}
