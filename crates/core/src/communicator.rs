//! The high-level, MPI-like collective interface (paper §9–§10).
//!
//! A [`Communicator`] binds a point-to-point endpoint, a group (whole
//! world or arbitrary member list), the machine's versioned cost
//! parameters (a flat machine is the one-level [`HierMachine`]), and
//! the group's detected physical shape. Every collective picks its
//! algorithm automatically from the cost model ([`Algo::Auto`]), or runs
//! a caller-specified short / long / explicit-hybrid algorithm.

use crate::algorithms;
use crate::autotune::{AutoTuner, RetuneReport, TrackedShape};
use crate::cast::Scalar;
use crate::comm::{Comm, DefaultPath, GroupComm, Tag};
use crate::error::{CommError, Result};
use crate::ir::{self, ArgBuf, CollectiveProgram, PlanKey, PlanOp};
use crate::op::{Elem, ReduceOp};
use intercom_cost::select::{choose, choose_flat, with_flat_choice, GroupShape};
use intercom_cost::{
    ClusterShape, CollectiveOp, HierChoice, HierMachine, HierStrategy, MachineParams, Strategy,
    StrategyKind, TunedHier,
};
use intercom_obs::residual::ResidualReport;
use intercom_topology::{Cluster, Hypercube, Mesh2D, ProcGroup};
use std::cell::{Cell, Ref, RefCell};
use std::sync::Arc;

pub use intercom_obs::CALL_TAG_STRIDE;

/// Algorithm choice for one collective call.
#[derive(Debug, Clone, PartialEq)]
pub enum Algo {
    /// The §5.1 short-vector composed algorithm (MST-based).
    Short,
    /// The §5.2 long-vector composed algorithm (bucket-based).
    Long,
    /// An explicit §6 hybrid strategy.
    Hybrid(Strategy),
    /// An explicit hierarchical hybrid: level-tagged stages over a
    /// cluster (requires the communicator's group to match the
    /// strategy's cluster shape).
    HierHybrid(HierStrategy),
    /// Cost-model-driven selection (the library default). On a cluster
    /// communicator this prices hierarchical hybrids against the best
    /// flat strategy under the two-level model.
    Auto,
}

/// An MPI-like communicator over a group of nodes.
pub struct Communicator<'a, C: Comm + ?Sized> {
    gc: GroupComm<'a, C>,
    /// The versioned per-level parameters every selection reads; one
    /// level on everything but a cluster communicator.
    tuned: TunedHier,
    shape: GroupShape,
    /// Drift tuner fed automatically by every selector-driven collective
    /// (see [`Communicator::attach_tuner`]).
    tuner: RefCell<Option<AutoTuner>>,
    next_tag: Cell<Tag>,
    /// The workspace every call and every plan it executes borrows,
    /// whatever its element type: empty until a call needs some, grown
    /// to the largest need seen.
    /// The direct path never re-zeroes it; a compiled program zeroes
    /// the part it uses before its first step that touches it.
    scratch: RefCell<Vec<u64>>,
    /// The call shapes this communicator ran and their programs, for a
    /// backend whose default path runs programs ([`Comm::default_path`]):
    /// a repeated call selects nothing, takes no plan-cache lock and
    /// clones no `Arc`. Emptied when the machine it was selected under
    /// changes ([`Communicator::attach_tuner`], a refit through
    /// [`Communicator::observe`]).
    memo: RefCell<Vec<Memo>>,
    /// Every algorithm choice this communicator ran, each once: a call
    /// borrows its pick from here instead of cloning it, so a pick that
    /// ran before costs the direct path no allocation.
    picks: RefCell<Vec<HierChoice>>,
}

/// Picks a communicator keeps; past it, the oldest is forgotten, and a
/// rotation of more picks than this rebuilds one on every call. Each of
/// the benchmark's communicators holds at most 4 (`cpu-p64`'s, over a
/// whole sweep cycle; `thr-*`'s 2, `sim-mesh`'s 1); `walker_alloc`'s
/// 64-rank line holds 8.
const PICKS_CAPACITY: usize = 16;

/// One remembered call shape and the program it runs.
struct Memo {
    op: PlanOp,
    n: usize,
    elem_size: usize,
    algo: Algo,
    /// `None` while the shape has run once, on the direct path.
    prog: Option<Arc<CollectiveProgram>>,
}

/// Call shapes a communicator remembers, the oldest forgotten first.
/// The examples and the benchmark's threaded workloads run at most 6
/// shapes a communicator; a rotation longer than this runs every call
/// as its first, on the direct path.
const MEMO_CAPACITY: usize = 16;

impl<'a, C: Comm + ?Sized> Communicator<'a, C> {
    fn with_shape(gc: GroupComm<'a, C>, machine: HierMachine, shape: GroupShape) -> Self {
        Communicator {
            tuned: TunedHier::new(machine),
            shape,
            tuner: RefCell::new(None),
            next_tag: Cell::new(0),
            scratch: RefCell::new(Vec::new()),
            memo: RefCell::new(Vec::new()),
            picks: RefCell::new(Vec::new()),
            gc,
        }
    }

    /// `Err` unless the machine description covers exactly the world.
    fn check_world(comm: &C, nodes: usize) -> Result<()> {
        if nodes == comm.size() {
            Ok(())
        } else {
            Err(CommError::BadBufferSize {
                expected: comm.size(),
                actual: nodes,
            })
        }
    }

    /// The whole world as one group, treated as a linear array.
    pub fn world(comm: &'a C, machine: MachineParams) -> Self {
        let gc = GroupComm::world(comm);
        let shape = GroupShape::Linear(gc.len());
        Self::with_shape(gc, HierMachine::flat(machine), shape)
    }

    /// The whole world as a two-level cluster (node-major rank order:
    /// global rank = node · ranks_per_node + local slot). Automatic
    /// selection prices hierarchical hybrids under the per-level
    /// `machine` against the best flat strategy at the network level.
    pub fn world_on_cluster(comm: &'a C, machine: HierMachine, cluster: &Cluster) -> Result<Self> {
        Self::check_world(comm, cluster.ranks())?;
        let shape = GroupShape::Cluster(ClusterShape {
            inter_rows: cluster.inter().rows(),
            inter_cols: cluster.inter().cols(),
            ranks_per_node: cluster.ranks_per_node(),
        });
        Ok(Self::with_shape(GroupComm::world(comm), machine, shape))
    }

    /// The whole world as a physical `mesh` (row-major rank order):
    /// enables the §7.1 row/column techniques.
    pub fn world_on_mesh(comm: &'a C, machine: MachineParams, mesh: Mesh2D) -> Result<Self> {
        Self::check_world(comm, mesh.nodes())?;
        let shape = GroupShape::Mesh {
            rows: mesh.rows(),
            cols: mesh.cols(),
        };
        let machine = HierMachine::flat(machine);
        Ok(Self::with_shape(GroupComm::world(comm), machine, shape))
    }

    /// The whole world as a physical hypercube (§11's iPSC/860 port):
    /// logical ranks follow the binary-reflected Gray code, so the bucket
    /// primitives' rings are single-hop and conflict-free, and hybrid
    /// logical meshes (naturally `2 × 2 × …`) nest subcubes.
    pub fn world_on_hypercube(
        comm: &'a C,
        machine: MachineParams,
        cube: Hypercube,
    ) -> Result<Self> {
        Self::check_world(comm, cube.nodes())?;
        let gc = GroupComm::new(comm, cube.gray_ring())?;
        let shape = GroupShape::Linear(gc.len());
        Ok(Self::with_shape(gc, HierMachine::flat(machine), shape))
    }

    /// A group communicator from an explicit member list (§9). When the
    /// physical `mesh` is known, the group's structure is extracted and
    /// rectangular submeshes get the whole-mesh row/column treatment;
    /// otherwise the group is treated as a linear array.
    pub fn from_group(
        comm: &'a C,
        machine: MachineParams,
        members: Vec<usize>,
        mesh: Option<&Mesh2D>,
    ) -> Result<Self> {
        let shape = match (mesh, ProcGroup::new(members.clone())) {
            (Some(m), Ok(g)) => GroupShape::detect(&g, m),
            _ => GroupShape::Linear(members.len()),
        };
        let gc = GroupComm::new(comm, members)?;
        Ok(Self::with_shape(gc, HierMachine::flat(machine), shape))
    }

    /// My logical rank within the group.
    pub fn rank(&self) -> usize {
        self.gc.me()
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.gc.len()
    }

    /// The underlying group view.
    pub fn group(&self) -> &GroupComm<'a, C> {
        &self.gc
    }

    /// The network-level (on a flat machine: the only) parameters
    /// driving automatic selection.
    pub fn machine(&self) -> &MachineParams {
        self.tuned.current.inter()
    }

    /// The detected physical shape driving automatic selection.
    pub fn shape(&self) -> GroupShape {
        self.shape
    }

    /// The versioned per-level parameters (one level unless this
    /// communicator runs on a cluster).
    pub fn tuned(&self) -> &TunedHier {
        &self.tuned
    }

    /// The *flat* strategy [`Algo::Auto`] would pick for `op` at
    /// `n_bytes` (on a cluster: the best level-blind strategy, priced
    /// at the network level).
    pub fn auto_strategy(&self, op: CollectiveOp, n_bytes: usize) -> Strategy {
        choose_flat(op, self.shape, n_bytes, self.machine())
    }

    /// What [`Algo::Auto`] would run for `op` at `n_bytes`: on a
    /// cluster communicator, the cheaper of the best hierarchical
    /// hybrid and the best flat strategy under the two-level model;
    /// elsewhere, the flat selection.
    pub fn auto_choice(&self, op: CollectiveOp, n_bytes: usize) -> HierChoice {
        choose(op, self.shape, n_bytes, &self.tuned.current)
    }

    /// Attaches a drift tuner, which adopts this communicator's
    /// versioned machine. From now on every selector-driven collective
    /// call registers its shape with the tuner — no explicit
    /// [`AutoTuner::track`] plumbing — so a drift verdict re-selects
    /// exactly the shapes this communicator actually ran, the way it
    /// ran them.
    pub fn attach_tuner(&mut self, mut tuner: AutoTuner) {
        tuner.adopt(self.tuned);
        *self.tuner.get_mut() = Some(tuner);
        self.memo.get_mut().clear();
    }

    /// Removes and returns the attached tuner, if any.
    pub fn detach_tuner(&mut self) -> Option<AutoTuner> {
        self.tuner.get_mut().take()
    }

    /// Read access to the attached tuner (estimate, tracked shapes).
    pub fn tuner(&self) -> Ref<'_, Option<AutoTuner>> {
        self.tuner.borrow()
    }

    /// Feeds one residual report to the attached tuner. On a drift
    /// verdict the tuner refits the *network* level, re-selects every
    /// tracked shape against the process-wide plan cache, and this
    /// communicator takes over the tuner's refit machine — parameters
    /// and version as one value — for subsequent selections.
    pub fn observe(&mut self, report: &ResidualReport) -> Option<RetuneReport> {
        let tuner = self.tuner.get_mut().as_mut()?;
        let rep = tuner.observe(report)?;
        self.tuned = *tuner.tuned();
        self.memo.get_mut().clear();
        Some(rep)
    }

    fn fresh_tag(&self) -> Tag {
        let t = self.next_tag.get();
        self.next_tag.set(t.wrapping_add(CALL_TAG_STRIDE));
        t
    }

    /// Resolves `algo` for a call of `op` over `n` elements of
    /// `elem_size` bytes to where [`Communicator::picks`] keeps it. An
    /// [`Algo::Auto`] call also registers its shape with the attached
    /// tuner: those are the calls whose strategy a refit can change.
    fn choose(&self, op: PlanOp, n: usize, elem_size: usize, algo: &Algo) -> usize {
        let flat = |s: &Strategy| {
            let same = |c: &HierChoice| matches!(c, HierChoice::Flat(f) if f == s);
            self.pick(same, || HierChoice::Flat(s.clone()))
        };
        // `Strategy::new(vec![p], kind)`, matched without building it.
        let pure = |kind: StrategyKind| {
            let p = self.size();
            let same = |c: &HierChoice| {
                matches!(c, HierChoice::Flat(f)
                    if f.kind == kind && f.dims == [p] && f.mesh_split.is_none())
            };
            self.pick(same, || HierChoice::Flat(Strategy::new(vec![p], kind)))
        };
        match algo {
            Algo::Short => pure(StrategyKind::Mst),
            Algo::Long => pure(StrategyKind::ScatterCollect),
            Algo::Hybrid(s) => flat(s),
            Algo::HierHybrid(h) => {
                let same = |c: &HierChoice| matches!(c, HierChoice::Hier(g) if g == h);
                self.pick(same, || HierChoice::Hier(h.clone()))
            }
            Algo::Auto => {
                self.track(op, n, elem_size);
                let cop = ir::cost_op(op).expect("selector-driven ops are priced");
                let bytes = op.cost_bytes(self.size(), n, elem_size);
                if self.shape.cluster_shape().is_none() {
                    return with_flat_choice(cop, self.shape, bytes, self.machine(), flat);
                }
                let choice = self.auto_choice(cop, bytes);
                self.pick(|c| *c == choice, || choice.clone())
            }
        }
    }

    /// Where in [`Communicator::picks`] the choice `same` accepts is,
    /// added as `make` builds it if it is not there.
    fn pick(&self, same: impl Fn(&HierChoice) -> bool, make: impl FnOnce() -> HierChoice) -> usize {
        let mut picks = self.picks.borrow_mut();
        if let Some(at) = picks.iter().position(same) {
            return at;
        }
        if picks.len() == PICKS_CAPACITY {
            picks.remove(0);
        }
        picks.push(make());
        picks.len() - 1
    }

    /// Registers a selector-driven call's shape with the attached tuner.
    fn track(&self, op: PlanOp, n: usize, elem_size: usize) {
        if let Some(t) = self.tuner.borrow_mut().as_mut() {
            t.track(TrackedShape {
                op,
                shape: self.shape,
                n,
                elem_size,
            });
        }
    }

    /// Where in the memo the program of a call of `op` over `n` elements
    /// of `elem_size` bytes under `algo` is — an [`Algo::Auto`] hit
    /// still registering its shape with the tuner — or `None`: the call
    /// runs the direct path.
    ///
    /// A shape's deployed program is selected and looked up in the
    /// process-wide plan cache on the call `path` names
    /// ([`DefaultPath`]); a first call before that only remembers the
    /// shape.
    fn memoized(
        &self,
        op: PlanOp,
        n: usize,
        elem_size: usize,
        algo: &Algo,
        path: DefaultPath,
    ) -> Result<Option<usize>> {
        let same = |m: &Memo| m.op == op && m.n == n && m.elem_size == elem_size && m.algo == *algo;
        let found = self.memo.borrow().iter().position(same);
        if let Some(i) = found {
            if self.memo.borrow()[i].prog.is_some() {
                if *algo == Algo::Auto {
                    self.track(op, n, elem_size);
                }
                return Ok(Some(i));
            }
        }
        let prog = match found.is_some() || path == DefaultPath::Program {
            true => {
                let at = op
                    .takes_strategy()
                    .then(|| self.choose(op, n, elem_size, algo));
                let picks = self.picks.borrow();
                Some(self.compile(op, n, elem_size, at.map(|i| &picks[i]))?)
            }
            false => None,
        };
        let mut memo = self.memo.borrow_mut();
        if let Some(i) = found {
            memo[i].prog = prog;
            return Ok(Some(i));
        }
        if memo.len() == MEMO_CAPACITY {
            memo.remove(0);
        }
        let compiled = prog.is_some();
        memo.push(Memo {
            op,
            n,
            elem_size,
            algo: algo.clone(),
            prog,
        });
        Ok(compiled.then(|| memo.len() - 1))
    }

    /// The deployed program ([`PlanKey::frozen`]) of a call shape under
    /// `choice`: what a memo hit and a persistent plan run.
    pub(crate) fn compile(
        &self,
        op: PlanOp,
        n: usize,
        elem_size: usize,
        choice: Option<&HierChoice>,
    ) -> Result<Arc<CollectiveProgram>> {
        let key = PlanKey::frozen(op, self.size(), n, elem_size, choice);
        ir::global_cache().get_or_compile(&key)
    }

    /// Runs a compiled program in this communicator's scratch, on its
    /// next tag OR-ed with `band` (programs are lowered at base tag 0;
    /// persistent plans run in a band of their own).
    pub(crate) fn run_compiled<T: Scalar>(
        &self,
        prog: &CollectiveProgram,
        rop: ReduceOp,
        args: &mut [ArgBuf<'_, T>],
        band: Tag,
    ) -> Result<()> {
        let (scratch, tag) = (&mut self.scratch.borrow_mut(), band | self.fresh_tag());
        ir::execute(prog, &self.gc, rop, args, scratch, tag)
    }

    /// One call: selector-driven where the op takes a strategy. `rop`
    /// is the ⊕ of a combining op; the others never apply it.
    ///
    /// Where the backend's default path runs programs
    /// ([`Comm::default_path`]) the call is its shape's deployed
    /// program, from the memo ([`Communicator::memoized`]), handed to
    /// [`Comm::run_program`]; everywhere else — a shape's first call on
    /// threads, a call too large for compact steps ([`ir::fits_steps`])
    /// — it is the direct path. The program was lowered from the direct
    /// path and optimized: empty halves elided, halves of one stage
    /// co-posted and dead copies dropped, to the same bits.
    fn run<T: Scalar>(
        &self,
        op: PlanOp,
        n: usize,
        rop: ReduceOp,
        algo: &Algo,
        args: &mut [ArgBuf<'_, T>],
    ) -> Result<()> {
        let memoized = match self.gc.comm().default_path() {
            DefaultPath::Direct => None,
            _ if !ir::fits_steps(op, self.size(), n, T::SIZE) => None,
            path => self.memoized(op, n, T::SIZE, algo, path)?,
        };
        if let Some(i) = memoized {
            let memo = self.memo.borrow();
            let prog = memo[i]
                .prog
                .as_deref()
                .expect("a found entry holds its program");
            return self.run_compiled(prog, rop, args, 0);
        }
        let at = op
            .takes_strategy()
            .then(|| self.choose(op, n, T::SIZE, algo));
        let picks = self.picks.borrow();
        let (scratch, tag) = (&mut self.scratch.borrow_mut(), self.fresh_tag());
        ir::run_direct(op, at.map(|i| &picks[i]), &self.gc, rop, args, scratch, tag)
    }

    /// Broadcast `buf` from `root` to all members (auto-selected
    /// algorithm).
    ///
    /// ```
    /// # use intercom::{Communicator, Comm};
    /// # use intercom_cost::MachineParams;
    /// let out = intercom_runtime::run_world(5, |c| {
    ///     let cc = Communicator::world(c, MachineParams::PARAGON);
    ///     let mut v = if c.rank() == 2 { vec![7u8; 10] } else { vec![0; 10] };
    ///     cc.bcast(2, &mut v).unwrap();
    ///     v[9]
    /// });
    /// assert!(out.iter().all(|&x| x == 7));
    /// ```
    pub fn bcast<T: Scalar>(&self, root: usize, buf: &mut [T]) -> Result<()> {
        self.bcast_with(root, buf, &Algo::Auto)
    }

    /// Broadcast with an explicit algorithm choice.
    pub fn bcast_with<T: Scalar>(&self, root: usize, buf: &mut [T], algo: &Algo) -> Result<()> {
        let (op, n) = (PlanOp::Broadcast { root }, buf.len());
        self.run(op, n, ReduceOp::Sum, algo, &mut [ArgBuf::Out(buf)])
    }

    /// Combine-to-one: ⊕-combine everyone's `buf` onto the root.
    pub fn reduce<T: Elem>(&self, root: usize, buf: &mut [T], op: ReduceOp) -> Result<()> {
        self.reduce_with(root, buf, op, &Algo::Auto)
    }

    /// Combine-to-one with an explicit algorithm choice.
    pub fn reduce_with<T: Elem>(
        &self,
        root: usize,
        buf: &mut [T],
        op: ReduceOp,
        algo: &Algo,
    ) -> Result<()> {
        let n = buf.len();
        self.run(
            PlanOp::Reduce { root },
            n,
            op,
            algo,
            &mut [ArgBuf::Out(buf)],
        )
    }

    /// Combine-to-all: ⊕-combine everyone's `buf` onto every member.
    ///
    /// ```
    /// # use intercom::{Communicator, ReduceOp, Comm};
    /// # use intercom_cost::MachineParams;
    /// let out = intercom_runtime::run_world(4, |c| {
    ///     let cc = Communicator::world(c, MachineParams::PARAGON);
    ///     let mut v = vec![(c.rank() + 1) as i64; 3];
    ///     cc.allreduce(&mut v, ReduceOp::Prod).unwrap();
    ///     v[0]
    /// });
    /// assert!(out.iter().all(|&x| x == 24)); // 1·2·3·4
    /// ```
    pub fn allreduce<T: Elem>(&self, buf: &mut [T], op: ReduceOp) -> Result<()> {
        self.allreduce_with(buf, op, &Algo::Auto)
    }

    /// Combine-to-all with an explicit algorithm choice.
    pub fn allreduce_with<T: Elem>(&self, buf: &mut [T], op: ReduceOp, algo: &Algo) -> Result<()> {
        let n = buf.len();
        self.run(PlanOp::AllReduce, n, op, algo, &mut [ArgBuf::Out(buf)])
    }

    /// Collect (allgather): concatenate every member's `mine` into `all`
    /// in rank order.
    ///
    /// ```
    /// # use intercom::{Communicator, Comm};
    /// # use intercom_cost::MachineParams;
    /// let out = intercom_runtime::run_world(3, |c| {
    ///     let cc = Communicator::world(c, MachineParams::PARAGON);
    ///     let mine = [c.rank() as u16; 2];
    ///     let mut all = [0u16; 6];
    ///     cc.allgather(&mine, &mut all).unwrap();
    ///     all
    /// });
    /// assert!(out.iter().all(|a| a == &[0, 0, 1, 1, 2, 2]));
    /// ```
    pub fn allgather<T: Scalar>(&self, mine: &[T], all: &mut [T]) -> Result<()> {
        self.allgather_with(mine, all, &Algo::Auto)
    }

    /// Collect with an explicit algorithm choice.
    pub fn allgather_with<T: Scalar>(&self, mine: &[T], all: &mut [T], algo: &Algo) -> Result<()> {
        let args = &mut [ArgBuf::In(mine), ArgBuf::Out(all)];
        self.run(PlanOp::Collect, mine.len(), ReduceOp::Sum, algo, args)
    }

    /// Distributed combine (reduce-scatter): ⊕-combine everyone's
    /// `contrib`; member `j` receives block `j` into `mine`.
    pub fn reduce_scatter<T: Elem>(
        &self,
        contrib: &[T],
        mine: &mut [T],
        op: ReduceOp,
    ) -> Result<()> {
        self.reduce_scatter_with(contrib, mine, op, &Algo::Auto)
    }

    /// Distributed combine with an explicit algorithm choice.
    pub fn reduce_scatter_with<T: Elem>(
        &self,
        contrib: &[T],
        mine: &mut [T],
        op: ReduceOp,
        algo: &Algo,
    ) -> Result<()> {
        let n = mine.len();
        let args = &mut [ArgBuf::In(contrib), ArgBuf::Out(mine)];
        self.run(PlanOp::ReduceScatter, n, op, algo, args)
    }

    /// Scatter the root's `full` into per-member blocks.
    pub fn scatter<T: Scalar>(
        &self,
        root: usize,
        full: Option<&[T]>,
        mine: &mut [T],
    ) -> Result<()> {
        let (op, n) = (PlanOp::Scatter { root }, mine.len());
        let args = &mut [full.map_or(ArgBuf::Absent, ArgBuf::In), ArgBuf::Out(mine)];
        self.run(op, n, ReduceOp::Sum, &Algo::Auto, args)
    }

    /// Gather every member's `mine` into the root's `full`.
    pub fn gather<T: Scalar>(&self, root: usize, mine: &[T], full: Option<&mut [T]>) -> Result<()> {
        let (op, n) = (PlanOp::Gather { root }, mine.len());
        let args = &mut [ArgBuf::In(mine), full.map_or(ArgBuf::Absent, ArgBuf::Out)];
        self.run(op, n, ReduceOp::Sum, &Algo::Auto, args)
    }

    /// Scatter with per-rank counts (known-lengths mode).
    pub fn scatterv<T: Scalar>(
        &self,
        root: usize,
        full: Option<&[T]>,
        counts: &[usize],
        mine: &mut [T],
    ) -> Result<()> {
        let (scratch, tag) = (&mut self.scratch.borrow_mut(), self.fresh_tag());
        algorithms::scatterv(&self.gc, root, full, counts, mine, tag, scratch)
    }

    /// Gather with per-rank counts (known-lengths mode).
    pub fn gatherv<T: Scalar>(
        &self,
        root: usize,
        mine: &[T],
        counts: &[usize],
        full: Option<&mut [T]>,
    ) -> Result<()> {
        let (scratch, tag) = (&mut self.scratch.borrow_mut(), self.fresh_tag());
        algorithms::gatherv(&self.gc, root, mine, counts, full, tag, scratch)
    }

    /// Collect with per-rank counts (`gcolx` known-lengths semantics).
    pub fn allgatherv<T: Scalar>(&self, mine: &[T], counts: &[usize], all: &mut [T]) -> Result<()> {
        algorithms::allgatherv(&self.gc, mine, counts, all, self.fresh_tag())
    }

    /// Total exchange (alltoall, extension): `send` holds one block per
    /// member in rank order; `recv` receives one block from each member.
    pub fn alltoall<T: Scalar>(&self, send: &[T], recv: &mut [T]) -> Result<()> {
        let n = send.len() / self.size();
        let args = &mut [ArgBuf::In(send), ArgBuf::Out(recv)];
        self.run(PlanOp::Alltoall, n, ReduceOp::Sum, &Algo::Auto, args)
    }

    /// Barrier: returns only after every member has entered. Implemented
    /// as a zero-byte combine-to-all (the α-only degenerate case of the
    /// §5 short algorithm: `2⌈log p⌉α`).
    pub fn barrier(&self) -> Result<()> {
        let mut token = [0u8; 0];
        self.allreduce_with(&mut token, ReduceOp::Sum, &Algo::Short)?;
        Ok(())
    }

    /// Splits the communicator by `color`, MPI-`Comm_split` style: every
    /// member calls this collectively; members sharing a color form a new
    /// group, ordered by `(key, old logical rank)`. One collect over the
    /// `(color, key)` pairs is the only communication. When the physical
    /// `mesh` is supplied, each new group's structure is re-extracted
    /// (§9) so rectangular sub-groups keep the fast row/column paths.
    pub fn split(
        &self,
        color: usize,
        key: usize,
        mesh: Option<&Mesh2D>,
    ) -> Result<Communicator<'a, C>> {
        let mine = [color as u64, key as u64];
        let mut table = vec![0u64; 2 * self.size()];
        self.allgather(&mine, &mut table)?;
        let mut members: Vec<(usize, usize)> = (0..self.size())
            .filter(|&r| table[2 * r] as usize == color)
            .map(|r| (table[2 * r + 1] as usize, r))
            .collect();
        members.sort_unstable();
        let world_members: Vec<usize> = members
            .into_iter()
            .map(|(_, r)| self.gc.world_rank(r))
            .collect();
        Communicator::from_group(self.gc.comm(), *self.machine(), world_members, mesh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;

    #[test]
    fn world_of_one_runs_everything() {
        let c = SelfComm;
        let cc = Communicator::world(&c, MachineParams::PARAGON);
        assert_eq!(cc.rank(), 0);
        assert_eq!(cc.size(), 1);
        let mut v = vec![1.0f64, 2.0];
        cc.bcast(0, &mut v).unwrap();
        cc.reduce(0, &mut v, ReduceOp::Sum).unwrap();
        cc.allreduce(&mut v, ReduceOp::Min).unwrap();
        let mine = v.clone();
        let mut all = vec![0.0; 2];
        cc.allgather(&mine, &mut all).unwrap();
        assert_eq!(all, v);
        let mut m = vec![0.0; 2];
        cc.reduce_scatter(&mine, &mut m, ReduceOp::Sum).unwrap();
        assert_eq!(m, v);
        cc.scatter(0, Some(&mine), &mut m).unwrap();
        let mut full = vec![0.0; 2];
        cc.gather(0, &m, Some(&mut full)).unwrap();
        assert_eq!(full, mine);
    }

    #[test]
    fn each_communicator_owns_its_scratch_and_a_failed_call_returns_it() {
        // A recording endpoint receives nothing, so every rank's
        // (zeroed) split table puts all four ranks in colour 0.
        let c = crate::trace::RecordingComm::new(1, 4);
        let cc = Communicator::world(&c, MachineParams::PARAGON);
        assert_eq!(cc.scratch.borrow().capacity(), 0, "lazy until needed");
        let sub = cc.split(0, 0, None).unwrap();
        let mut v = vec![1.0f64; 64];
        for comm in [&cc, &sub] {
            assert!(comm.reduce(9, &mut v, ReduceOp::Sum).is_err());
            comm.allreduce_with(&mut v, ReduceOp::Sum, &Algo::Long)
                .unwrap();
        }
        let (mine, theirs) = (cc.scratch.borrow(), sub.scratch.borrow());
        assert!(mine.len() >= 16 && theirs.len() >= 16);
        assert_ne!(mine.as_ptr(), theirs.as_ptr());
    }

    #[test]
    fn a_call_too_large_for_compact_steps_runs_the_direct_path() {
        use crate::ir::BoundProgram;
        use crate::trace::{OpRecord, RecordingComm};
        /// A recorder that runs programs by counting them.
        struct Programs(RecordingComm, Cell<usize>);
        impl Comm for Programs {
            fn rank(&self) -> usize {
                self.0.rank()
            }
            fn size(&self) -> usize {
                self.0.size()
            }
            fn send(&self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
                self.0.send(to, tag, data)
            }
            fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> Result<()> {
                self.0.recv(from, tag, buf)
            }
            fn sendrecv(
                &self,
                to: usize,
                d: &[u8],
                from: usize,
                b: &mut [u8],
                t: Tag,
            ) -> Result<()> {
                self.0.sendrecv(to, d, from, b, t)
            }
            fn default_path(&self) -> DefaultPath {
                DefaultPath::Program
            }
            fn run_program(&self, _: &mut BoundProgram<'_>) -> Result<()> {
                self.1.set(self.1.get() + 1);
                Ok(())
            }
        }
        let bcast = |p| {
            let c = Programs(RecordingComm::new(0, p), Cell::new(0));
            let cc = Communicator::world(&c, MachineParams::PARAGON);
            cc.bcast_with(0, &mut [7u8; 8], &Algo::Short).unwrap();
            drop(cc);
            let handed = c.1.get();
            let ops = c.0.into_ops();
            let sends = ops.iter().filter(|op| matches!(op, OpRecord::Send { .. }));
            (handed, sends.count())
        };
        // Peers past `u16`: the root of an MST broadcast over 70 000
        // ranks sends ⌈log₂ 70 000⌉ = 17 times itself, on the direct
        // path, where a program would not compile.
        assert_eq!(bcast(70_000), (0, 17));
        // A call that fits is handed over whole.
        assert_eq!(bcast(4), (1, 0));
    }

    #[test]
    fn tags_advance_between_calls() {
        let c = SelfComm;
        let cc = Communicator::world(&c, MachineParams::PARAGON);
        let t1 = cc.fresh_tag();
        let t2 = cc.fresh_tag();
        assert_ne!(t1, t2);
        assert_eq!(t2 - t1, CALL_TAG_STRIDE);
    }

    #[test]
    fn mesh_world_requires_matching_size() {
        let c = SelfComm;
        assert!(
            Communicator::world_on_mesh(&c, MachineParams::PARAGON, Mesh2D::new(2, 2)).is_err()
        );
        let cc =
            Communicator::world_on_mesh(&c, MachineParams::PARAGON, Mesh2D::new(1, 1)).unwrap();
        assert_eq!(cc.shape(), GroupShape::Mesh { rows: 1, cols: 1 });
    }

    #[test]
    fn auto_strategy_depends_on_length() {
        let c = SelfComm;
        let cc = Communicator::world(&c, MachineParams::PARAGON);
        // Degenerate world; just verify the call path works.
        let s = cc.auto_strategy(CollectiveOp::Broadcast, 1024);
        assert_eq!(s.nodes(), 1);
    }

    #[test]
    fn cluster_world_requires_matching_size() {
        let c = SelfComm;
        assert!(Communicator::world_on_cluster(
            &c,
            HierMachine::paragon_cluster(),
            &Cluster::linear(2, 2)
        )
        .is_err());
        let cc = Communicator::world_on_cluster(
            &c,
            HierMachine::paragon_cluster(),
            &Cluster::linear(1, 1),
        )
        .unwrap();
        assert_eq!(cc.tuned().current, HierMachine::paragon_cluster());
        assert_eq!(cc.shape().cluster_shape().unwrap().ranks(), 1);
        // Flat pricing reads the network level.
        assert_eq!(cc.machine(), HierMachine::paragon_cluster().inter());
        // Every other constructor wraps its machine as the one-level ladder.
        let flat = Communicator::world(&c, MachineParams::DELTA);
        assert_eq!(
            flat.tuned().current,
            HierMachine::flat(MachineParams::DELTA)
        );
        assert_eq!(flat.machine(), &MachineParams::DELTA);
        let sub = cc.split(0, 0, None).unwrap();
        assert_eq!(sub.tuned().current, HierMachine::flat(*cc.machine()));
    }

    #[test]
    fn auto_calls_feed_the_attached_tuner() {
        let c = SelfComm;
        let mut cc = Communicator::world(&c, MachineParams::PARAGON);
        assert!(cc.detach_tuner().is_none());
        cc.attach_tuner(AutoTuner::new(MachineParams::PARAGON));
        let mut v = vec![1u8; 4];
        cc.bcast(0, &mut v).unwrap(); // Auto: tracked
        cc.bcast_with(0, &mut v, &Algo::Short).unwrap(); // explicit: skipped
        cc.allreduce(&mut v, ReduceOp::Sum).unwrap(); // Auto: tracked
        cc.allreduce(&mut v, ReduceOp::Sum).unwrap(); // duplicate: deduped
        let tuner = cc.detach_tuner().unwrap();
        let ops: Vec<PlanOp> = tuner.tracked().iter().map(|s| s.op).collect();
        assert_eq!(ops, [PlanOp::Broadcast { root: 0 }, PlanOp::AllReduce]);
    }

    fn doubled_beta_report(configured: MachineParams) -> ResidualReport {
        ResidualReport {
            op: CollectiveOp::Broadcast,
            strategy: Strategy::pure_mst(1),
            p: 1,
            n: 1024,
            machine: configured,
            stages: vec![],
            overlaps: vec![],
            fitted_alpha: Some(configured.alpha),
            fitted_beta: Some(configured.beta * 2.0),
            ranks: vec![],
            slowest_rank: 0,
            measured_total_secs: 0.0,
            predicted_total_secs: 0.0,
            unattributed_events: 0,
        }
    }

    #[test]
    fn observe_refits_the_network_level_under_one_version() {
        // Rank 0's view of a 2×2×4 cluster, so that selection has
        // something to decide (a recording endpoint needs no peers).
        let c = crate::trace::RecordingComm::new(0, 16);
        let machine = HierMachine::paragon_cluster();
        let configured = *machine.inter();
        let cluster = Cluster::new(Mesh2D::new(2, 2), 4);
        let mut cc = Communicator::world_on_cluster(&c, machine, &cluster).unwrap();
        cc.attach_tuner(AutoTuner::new(configured));
        assert_eq!(cc.tuned().version, 1);
        // What this thread selects before the refit, and so keeps in
        // front of the envelope table.
        let op = CollectiveOp::Broadcast;
        let picks = |cc: &Communicator<_>| -> Vec<Strategy> {
            (3..24).map(|e| cc.auto_strategy(op, 1 << e)).collect()
        };
        let before = picks(&cc);
        let report = doubled_beta_report(configured);
        let retune = (0..8)
            .find_map(|_| cc.observe(&report))
            .expect("a sustained 2x beta residual must trip the drift gate");
        // The network level adopts the refit β, the intra-node level is
        // untouched, and the communicator and its tuner hold one value.
        let th = *cc.tuned();
        assert_eq!((th.version, retune.version), (2, 2));
        assert_eq!(cc.machine().beta, retune.new_params.beta);
        assert_eq!(th.current.inter().beta, retune.new_params.beta);
        assert_eq!(th.current.intra(), machine.intra());
        // The same thread's next selections are the refit network's
        // full ranking, not what it kept from before.
        let net = th.current.inter();
        let ranked: Vec<Strategy> = (3..24)
            .map(|e| {
                let ctx = intercom_cost::CostContext::linear_with(net);
                let all = intercom_cost::rank_strategies(op, 16, 1 << e, net, ctx, 0);
                all.into_iter().next().unwrap().strategy
            })
            .collect();
        assert_eq!(picks(&cc), ranked);
        assert_ne!(ranked, before);
        let tuner = cc.detach_tuner().unwrap();
        assert_eq!(tuner.version(), th.version);
        assert_eq!(*tuner.tuned(), th);
    }

    #[test]
    fn a_cluster_retune_reselects_and_warms_what_the_call_runs() {
        // Rank 0's view of a 2×2×4 cluster; a recording endpoint lets
        // the tracked allreduce run without peers. The network is
        // configured at half the Paragon's β, where a level-blind
        // strategy still wins 2 MiB; at the β the residuals report, the
        // two-level hybrid does.
        let c = crate::trace::RecordingComm::new(0, 16);
        let paragon = HierMachine::paragon_cluster();
        let mut net = *paragon.inter();
        net.beta /= 2.0;
        let machine = HierMachine::two_level(*paragon.intra(), net);
        let cluster = Cluster::new(Mesh2D::new(2, 2), 4);
        let mut cc = Communicator::world_on_cluster(&c, machine, &cluster).unwrap();
        cc.attach_tuner(AutoTuner::new(net));
        let (op, n) = (CollectiveOp::CombineToAll, 1usize << 18);
        let ran = cc.auto_choice(op, n * 8);
        assert!(matches!(ran, HierChoice::Flat(_)), "{ran}");
        let mut v = vec![1.0f64; n];
        cc.allreduce(&mut v, ReduceOp::Sum).unwrap();
        let report = doubled_beta_report(net);
        let retune = (0..8)
            .find_map(|_| cc.observe(&report))
            .expect("a sustained 2x beta residual must trip the drift gate");
        let [r] = &retune.reselections[..] else {
            panic!("one tracked shape, got {:?}", retune.reselections);
        };
        assert_eq!(r.old, ran);
        assert_eq!(r.new, cc.auto_choice(op, n * 8));
        assert!(r.new_cost < r.old_cost);
        let HierChoice::Hier(h) = &r.new else {
            panic!("the hybrid wins under the refit, got {}", r.new);
        };
        // The warmed program is the one a plan, a simulated call and a
        // threaded call from its second on now run: a hit.
        let key = ir::PlanKey::frozen(PlanOp::AllReduce, 16, n, 8, Some(&r.new));
        assert_eq!((key.hier.as_ref(), &key.strategy), (Some(h), &None));
        // (Asked per key: the process-wide counters also move under
        // whatever the tests running beside this one compile.)
        assert_eq!(ir::global_cache().warm_up([key]).unwrap(), 0);
    }
}
