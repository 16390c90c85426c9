//! Persistent collective plans: a call shape frozen once.
//!
//! Iterative applications (§9's "rows and columns of a logical mesh"
//! computations) issue the *same* collective every iteration. A plan
//! runs the cost-model selection once, takes the shape's deployed
//! [`CollectiveProgram`] from the process-wide
//! [plan cache](crate::ir::global_cache), and executes it with no
//! per-call selection or lowering — MPI's persistent requests. It is
//! what a repeated [`Communicator`] call on threads runs from its memo,
//! held by the caller: the same compile and the same run, in the scratch
//! arena of the communicator that executes it. Every plan type is one
//! [`Plan`] handle named by a [`kind`] marker; plans of one call shape
//! share one compiled schedule, and executions allocate nothing.
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
use crate::comm::{Comm, Tag};
use crate::communicator::Communicator;
use crate::error::Result;
use crate::ir::{self, ArgBuf, CollectiveProgram, PlanOp};
use crate::op::{Elem, ReduceOp};
use intercom_cost::HierChoice;
use std::marker::PhantomData;
use std::sync::Arc;

/// The tag band every plan execution runs in: a plan's tags stay
/// disjoint from ad-hoc calls even where ranks interleave the two in
/// different orders.
const PLAN_TAG_BAND: Tag = 1 << 62;

/// The operation a [`Plan`] runs, as a type: zero-sized markers.
pub mod kind {
    /// Broadcast ([`BcastPlan`](super::BcastPlan)).
    pub enum Broadcast {}
    /// Combine-to-one ([`ReducePlan`](super::ReducePlan)).
    pub enum Reduce {}
    /// Combine-to-all ([`AllreducePlan`](super::AllreducePlan)).
    pub enum AllReduce {}
    /// Distributed combine
    /// ([`ReduceScatterPlan`](super::ReduceScatterPlan)).
    pub enum ReduceScatter {}
    /// Collect ([`CollectPlan`](super::CollectPlan)).
    pub enum Collect {}

    /// The kinds whose plans run over one in-place buffer.
    pub trait InPlace {}
    impl InPlace for Broadcast {}
    impl InPlace for Reduce {}
    impl InPlace for AllReduce {}
}

/// A frozen collective of kind `K` over elements of type `T`: the
/// selection, the deployed program (or the lowering error, surfaced on
/// the first execute) and the ⊕ it combines under.
pub struct Plan<T, K> {
    choice: HierChoice,
    program: Result<Arc<CollectiveProgram>>,
    op: ReduceOp,
    kind: PhantomData<(T, K)>,
}

/// A frozen broadcast.
pub type BcastPlan<T> = Plan<T, kind::Broadcast>;
/// A frozen combine-to-one (reduce): the result lands on the root, and
/// every rank's buffer doubles as workspace as on the direct path.
pub type ReducePlan<T> = Plan<T, kind::Reduce>;
/// A frozen combine-to-all (allreduce).
pub type AllreducePlan<T> = Plan<T, kind::AllReduce>;
/// A frozen distributed combine (reduce-scatter) with equal per-rank
/// blocks.
pub type ReduceScatterPlan<T> = Plan<T, kind::ReduceScatter>;
/// A frozen collect (allgather) with equal per-rank blocks.
pub type CollectPlan<T> = Plan<T, kind::Collect>;

impl<T: Scalar, K> Plan<T, K> {
    /// Freezes what [`Algo::Auto`](crate::Algo::Auto) would run for
    /// `op` over `n` elements — flat or, on a cluster communicator, the
    /// two-level hybrid — and takes its program. A plan registers
    /// nothing with the communicator's tuner.
    fn freeze<C: Comm + ?Sized>(
        cc: &Communicator<'_, C>,
        op: PlanOp,
        n: usize,
        rop: ReduceOp,
    ) -> Self {
        let cop = ir::cost_op(op).expect("every planned op takes a strategy");
        let choice = cc.auto_choice(cop, op.cost_bytes(cc.size(), n, T::SIZE));
        Plan {
            program: cc.compile(op, n, T::SIZE, Some(&choice)),
            choice,
            op: rop,
            kind: PhantomData,
        }
    }

    /// The frozen selection: flat, or hierarchical on a cluster
    /// communicator where the two-level hybrid prices lower.
    pub fn choice(&self) -> &HierChoice {
        &self.choice
    }

    /// The compiled schedule this plan executes.
    pub fn program(&self) -> Result<&CollectiveProgram> {
        self.program.as_deref().map_err(Clone::clone)
    }

    fn run<C: Comm + ?Sized>(
        &self,
        cc: &Communicator<'_, C>,
        args: &mut [ArgBuf<'_, T>],
    ) -> Result<()> {
        cc.run_compiled(self.program()?, self.op, args, PLAN_TAG_BAND)
    }
}

impl<T: Scalar, K: kind::InPlace> Plan<T, K> {
    /// Executes the planned broadcast, reduce or allreduce over `buf`,
    /// whose length must equal the planned one.
    pub fn execute<C: Comm + ?Sized>(&self, cc: &Communicator<'_, C>, buf: &mut [T]) -> Result<()> {
        self.run(cc, &mut [ArgBuf::Out(buf)])
    }
}

impl<T: Scalar> BcastPlan<T> {
    /// Plans a broadcast of `len` elements from `root`.
    pub fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, root: usize, len: usize) -> Self {
        Plan::freeze(cc, PlanOp::Broadcast { root }, len, ReduceOp::Sum)
    }
}

impl<T: Elem> ReducePlan<T> {
    /// Plans a reduce of `len` elements onto `root` under `op`.
    pub fn new<C: Comm + ?Sized>(
        cc: &Communicator<'_, C>,
        root: usize,
        len: usize,
        op: ReduceOp,
    ) -> Self {
        Plan::freeze(cc, PlanOp::Reduce { root }, len, op)
    }
}

impl<T: Elem> AllreducePlan<T> {
    /// Plans an allreduce of `len` elements under `op`.
    pub fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, len: usize, op: ReduceOp) -> Self {
        Plan::freeze(cc, PlanOp::AllReduce, len, op)
    }
}

impl<T: Elem> ReduceScatterPlan<T> {
    /// Plans a reduce-scatter leaving `block` elements per member.
    pub fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, block: usize, op: ReduceOp) -> Self {
        Plan::freeze(cc, PlanOp::ReduceScatter, block, op)
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
        self.run(cc, &mut [ArgBuf::In(contrib), ArgBuf::Out(mine)])
    }
}

impl<T: Scalar> CollectPlan<T> {
    /// Plans a collect of `block` elements per member.
    pub fn new<C: Comm + ?Sized>(cc: &Communicator<'_, C>, block: usize) -> Self {
        Plan::freeze(cc, PlanOp::Collect, block, ReduceOp::Sum)
    }

    /// Executes the planned collect.
    pub fn execute<C: Comm + ?Sized>(
        &self,
        cc: &Communicator<'_, C>,
        mine: &[T],
        all: &mut [T],
    ) -> Result<()> {
        self.run(cc, &mut [ArgBuf::In(mine), ArgBuf::Out(all)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;
    use crate::error::CommError;
    use intercom_cost::{CollectiveOp, MachineParams};

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
