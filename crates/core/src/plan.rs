//! Persistent collective plans, compiled through the schedule IR.
//!
//! Iterative applications (the paper's motivating workloads — §9's
//! "rows and columns of a logical mesh" computations) issue the *same*
//! collective with the same geometry every iteration. A plan runs the
//! cost-model selection once, compiles the chosen strategy to a
//! [`CollectiveProgram`] via the
//! process-wide [plan cache](crate::ir::global_cache), and then executes
//! the compiled step list with no per-call selection or lowering
//! overhead — the moral equivalent of MPI's persistent requests, and the
//! natural home for the paper's observation that the hybrid choice
//! depends only on `(operation, group shape, message length, machine)`.
//!
//! Every plan is the same thin object: a handle on the cached program
//! plus a reusable scratch arena, so two plans for the same call shape
//! share one compiled schedule and repeated executions allocate nothing.
//!
//! ```
//! use intercom::{Communicator, plan::AllreducePlan, ReduceOp};
//! use intercom_cost::MachineParams;
//!
//! let comm = intercom::comm::SelfComm::default();
//! let cc = Communicator::world(&comm, MachineParams::PARAGON);
//! let plan = AllreducePlan::<f64>::new(&cc, 4, ReduceOp::Sum);
//! let mut v = vec![2.0; 4];
//! plan.execute(&cc, &mut v).unwrap();
//! assert_eq!(v, [2.0; 4]);
//! ```

use crate::cast::Scalar;
use crate::comm::Comm;
use crate::communicator::Communicator;
use crate::error::Result;
use crate::ir::{self, ArgBuf, CollectiveProgram, PlanKey, PlanOp};
use crate::op::{Elem, ReduceOp};
use intercom_cost::HierChoice;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;

/// The shared compiled-program handle every plan wraps: the frozen
/// selection, the cached program (or the lowering error, stashed here
/// and surfaced on the first execute) plus the private scratch arena
/// each run re-zeroes — never re-allocates — when it binds the program.
struct PlanCore<T: Scalar> {
    choice: HierChoice,
    program: Result<Arc<CollectiveProgram>>,
    scratch: RefCell<Vec<u64>>,
    /// The element width the program was compiled for.
    elem: PhantomData<T>,
}

impl<T: Scalar> PlanCore<T> {
    /// Freezes what [`Algo::Auto`](crate::Algo::Auto) would run for
    /// `op` over `n` elements — flat or, on a cluster communicator,
    /// the two-level hybrid — and compiles it.
    fn compile<C: Comm + ?Sized>(cc: &Communicator<'_, C>, op: PlanOp, n: usize) -> Self {
        let cop = ir::cost_op(op).expect("every planned op takes a strategy");
        let n_bytes = op.cost_bytes(cc.size(), n, T::SIZE);
        let choice = cc.auto_choice(cop, n_bytes);
        let key = PlanKey::frozen(op, cc.size(), n, T::SIZE, Some(&choice));
        PlanCore {
            choice,
            program: ir::global_cache().get_or_compile(&key),
            scratch: RefCell::new(Vec::new()),
            elem: PhantomData,
        }
    }

    fn program(&self) -> Result<&CollectiveProgram> {
        match &self.program {
            Ok(p) => Ok(p),
            Err(e) => Err(e.clone()),
        }
    }

    /// Runs the compiled program over `args` under `op` (which a
    /// program without reduce steps never applies), on a tag drawn from
    /// the communicator's sequence: a dedicated high bit keeps plans
    /// disjoint from ad-hoc calls that might interleave, and programs
    /// are lowered at base tag 0, so the drawn tag offsets every
    /// compiled step uniformly.
    fn execute<C: Comm + ?Sized>(
        &self,
        cc: &Communicator<'_, C>,
        op: ReduceOp,
        args: &mut [ArgBuf<'_, T>],
    ) -> Result<()> {
        let prog = self.program()?;
        let scratch = &mut self.scratch.borrow_mut();
        let tag = (1 << 62) | cc.take_plan_tag();
        ir::execute(prog, cc.group(), op, args, scratch, tag)
    }
}

/// A frozen broadcast: strategy selected and compiled once for a fixed
/// element count.
pub struct BcastPlan<T: Scalar> {
    core: PlanCore<T>,
}

impl<T: Scalar> BcastPlan<T> {
    /// Plans a broadcast of `len` elements from `root`.
    pub fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, root: usize, len: usize) -> Self {
        let core = PlanCore::compile(cc, PlanOp::Broadcast { root }, len);
        BcastPlan { core }
    }

    /// The frozen selection: flat, or hierarchical on a cluster
    /// communicator where the two-level hybrid prices lower.
    pub fn choice(&self) -> &HierChoice {
        &self.core.choice
    }

    /// The compiled schedule this plan executes.
    pub fn program(&self) -> Result<&CollectiveProgram> {
        self.core.program()
    }

    /// Executes the planned broadcast; `buf.len()` must equal the
    /// planned length.
    pub fn execute<C: Comm + ?Sized>(&self, cc: &Communicator<'_, C>, buf: &mut [T]) -> Result<()> {
        self.core
            .execute(cc, ReduceOp::Sum, &mut [ArgBuf::Out(buf)])
    }
}

/// A frozen combine-to-one (reduce): the result lands on the root, and
/// every rank's buffer doubles as workspace exactly as in the direct
/// recursive path.
pub struct ReducePlan<T: Elem> {
    core: PlanCore<T>,
    op: ReduceOp,
}

impl<T: Elem> ReducePlan<T> {
    /// Plans a reduce of `len` elements onto `root` under `op`.
    pub fn new<C: Comm + ?Sized>(
        cc: &Communicator<'_, C>,
        root: usize,
        len: usize,
        op: ReduceOp,
    ) -> Self {
        let core = PlanCore::compile(cc, PlanOp::Reduce { root }, len);
        ReducePlan { core, op }
    }

    /// The frozen selection: flat, or hierarchical on a cluster
    /// communicator where the two-level hybrid prices lower.
    pub fn choice(&self) -> &HierChoice {
        &self.core.choice
    }

    /// The compiled schedule this plan executes.
    pub fn program(&self) -> Result<&CollectiveProgram> {
        self.core.program()
    }

    /// Executes the planned reduce.
    pub fn execute<C: Comm + ?Sized>(&self, cc: &Communicator<'_, C>, buf: &mut [T]) -> Result<()> {
        self.core.execute(cc, self.op, &mut [ArgBuf::Out(buf)])
    }
}

/// A frozen combine-to-all (allreduce).
pub struct AllreducePlan<T: Elem> {
    core: PlanCore<T>,
    op: ReduceOp,
}

impl<T: Elem> AllreducePlan<T> {
    /// Plans an allreduce of `len` elements under `op`.
    pub fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, len: usize, op: ReduceOp) -> Self {
        let core = PlanCore::compile(cc, PlanOp::AllReduce, len);
        AllreducePlan { core, op }
    }

    /// The frozen selection: flat, or hierarchical on a cluster
    /// communicator where the two-level hybrid prices lower.
    pub fn choice(&self) -> &HierChoice {
        &self.core.choice
    }

    /// The compiled schedule this plan executes.
    pub fn program(&self) -> Result<&CollectiveProgram> {
        self.core.program()
    }

    /// Executes the planned allreduce.
    pub fn execute<C: Comm + ?Sized>(&self, cc: &Communicator<'_, C>, buf: &mut [T]) -> Result<()> {
        self.core.execute(cc, self.op, &mut [ArgBuf::Out(buf)])
    }
}

/// A frozen distributed combine (reduce-scatter) with equal per-rank
/// blocks.
pub struct ReduceScatterPlan<T: Elem> {
    core: PlanCore<T>,
    op: ReduceOp,
}

impl<T: Elem> ReduceScatterPlan<T> {
    /// Plans a reduce-scatter leaving `block` elements per member.
    pub fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, block: usize, op: ReduceOp) -> Self {
        let core = PlanCore::compile(cc, PlanOp::ReduceScatter, block);
        ReduceScatterPlan { core, op }
    }

    /// The frozen selection: flat, or hierarchical on a cluster
    /// communicator where the two-level hybrid prices lower.
    pub fn choice(&self) -> &HierChoice {
        &self.core.choice
    }

    /// The compiled schedule this plan executes.
    pub fn program(&self) -> Result<&CollectiveProgram> {
        self.core.program()
    }

    /// Executes the planned reduce-scatter: `contrib` is this rank's
    /// `p × block` contribution vector, `mine` receives this rank's
    /// combined block.
    pub fn execute<C: Comm + ?Sized>(
        &self,
        cc: &Communicator<'_, C>,
        contrib: &[T],
        mine: &mut [T],
    ) -> Result<()> {
        let args = &mut [ArgBuf::In(contrib), ArgBuf::Out(mine)];
        self.core.execute(cc, self.op, args)
    }
}

/// A frozen collect (allgather) with equal per-rank blocks.
pub struct CollectPlan<T: Scalar> {
    core: PlanCore<T>,
}

impl<T: Scalar> CollectPlan<T> {
    /// Plans a collect of `block` elements per member.
    pub fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, block: usize) -> Self {
        let core = PlanCore::compile(cc, PlanOp::Collect, block);
        CollectPlan { core }
    }

    /// The frozen selection: flat, or hierarchical on a cluster
    /// communicator where the two-level hybrid prices lower.
    pub fn choice(&self) -> &HierChoice {
        &self.core.choice
    }

    /// The compiled schedule this plan executes.
    pub fn program(&self) -> Result<&CollectiveProgram> {
        self.core.program()
    }

    /// Executes the planned collect.
    pub fn execute<C: Comm + ?Sized>(
        &self,
        cc: &Communicator<'_, C>,
        mine: &[T],
        all: &mut [T],
    ) -> Result<()> {
        let args = &mut [ArgBuf::In(mine), ArgBuf::Out(all)];
        self.core.execute(cc, ReduceOp::Sum, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;
    use crate::error::CommError;
    use intercom_cost::{CollectiveOp, MachineParams};

    #[test]
    fn plans_run_on_world_of_one() {
        let c = SelfComm;
        let cc = Communicator::world(&c, MachineParams::PARAGON);
        let bp = BcastPlan::<u32>::new(&cc, 0, 3);
        let mut v = vec![1u32, 2, 3];
        bp.execute(&cc, &mut v).unwrap();
        assert_eq!(v, [1, 2, 3]);

        let ap = AllreducePlan::<f64>::new(&cc, 2, ReduceOp::Sum);
        let mut w = vec![5.0, 6.0];
        ap.execute(&cc, &mut w).unwrap();
        assert_eq!(w, [5.0, 6.0]);

        let rp = ReducePlan::<i32>::new(&cc, 0, 2, ReduceOp::Max);
        let mut r = vec![-3i32, 9];
        rp.execute(&cc, &mut r).unwrap();
        assert_eq!(r, [-3, 9]);

        let cp = CollectPlan::<i64>::new(&cc, 2);
        let mine = [7i64, 8];
        let mut all = [0i64; 2];
        cp.execute(&cc, &mine, &mut all).unwrap();
        assert_eq!(all, mine);

        let rsp = ReduceScatterPlan::<u64>::new(&cc, 2, ReduceOp::Sum);
        let contrib = [3u64, 4];
        let mut block = [0u64; 2];
        rsp.execute(&cc, &contrib, &mut block).unwrap();
        assert_eq!(block, contrib);
    }

    #[test]
    fn plan_rejects_wrong_lengths() {
        let c = SelfComm;
        let cc = Communicator::world(&c, MachineParams::PARAGON);
        let bp = BcastPlan::<u8>::new(&cc, 0, 4);
        let mut v = vec![0u8; 3];
        assert!(matches!(
            bp.execute(&cc, &mut v),
            Err(CommError::BadBufferSize {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn lowering_errors_surface_at_execute() {
        let c = SelfComm;
        let cc = Communicator::world(&c, MachineParams::PARAGON);
        // Root outside the group: compilation fails, the plan stashes
        // the error, and execute reports it.
        let bp = BcastPlan::<u8>::new(&cc, 3, 4);
        let mut v = vec![0u8; 4];
        assert!(matches!(
            bp.execute(&cc, &mut v),
            Err(CommError::InvalidRoot { root: 3, size: 1 })
        ));
    }

    #[test]
    fn frozen_choice_matches_auto() {
        let c = SelfComm;
        let cc = Communicator::world(&c, MachineParams::PARAGON);
        let bp = BcastPlan::<u8>::new(&cc, 0, 4096);
        assert_eq!(
            *bp.choice(),
            HierChoice::Flat(cc.auto_strategy(CollectiveOp::Broadcast, 4096))
        );
    }

    #[test]
    fn identical_plans_share_one_compiled_program() {
        let c = SelfComm;
        let cc = Communicator::world(&c, MachineParams::PARAGON);
        let a = CollectPlan::<u16>::new(&cc, 5);
        let b = CollectPlan::<u16>::new(&cc, 5);
        assert_eq!(
            a.program().unwrap().plan_id,
            b.program().unwrap().plan_id,
            "same call shape must hit the plan cache"
        );
    }
}
