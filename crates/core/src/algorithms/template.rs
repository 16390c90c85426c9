//! The recursive template of Fig. 3, run once for every flat hybrid.
//!
//! [`walk`] executes the collective's
//! [`flat_template`](intercom_cost::flat_template), peeling the
//! fastest-varying logical dimension per level:
//!
//! ```text
//! if p = 1:                 nothing to do
//! if innermost dimension:   the centre — M: the short-vector algorithm,
//!                           SC: stage 1 then stage 2 — its stages at
//!                           tag, tag + 1
//! else:
//!     stage 1 within my dim-0 line                 at tag
//!     recurse within my plane on my block of
//!         partition(len, d0)                       at tag + LEVEL_TAG_STRIDE
//!     stage 2 within my dim-0 line                 at tag + 1
//! ```
//!
//! so `tag / LEVEL_TAG_STRIDE` is the recursion level and
//! `tag % LEVEL_TAG_STRIDE` the stage within it — the `(level, sub)`
//! coordinates [`stage_predictions`](intercom_cost::stage_predictions)
//! prices the same table at. An MST stage runs only on the root's line
//! (only it holds the data, or wants it); a bucket stage on every line.
//! Within my plane, the member of the root's line, plane rank
//! `root / d0`, is the root. The rootless ops run rooted at 0.

use crate::algorithms::LEVEL_TAG_STRIDE;
use crate::block::partition;
use crate::comm::{Comm, GroupComm, Tag};
use crate::error::Result;
use crate::op::{Elem, ReduceOp};
use crate::primitives::{
    mst_bcast, mst_gather, mst_reduce, mst_scatter, ring_collect, ring_reduce_scatter,
};
use intercom_cost::{flat_template, CollectiveOp, FlatTemplate, StageKind, StrategyKind};
use std::ops::Range;

/// A collective whose template is a compile-time constant: [`walk`] is
/// instantiated once per op, so which stages a level runs is decided at
/// compile time, not read from the table on every call.
pub(crate) trait Template {
    /// The collective.
    const OP: CollectiveOp;
    /// Its template.
    const TEMPLATE: FlatTemplate = flat_template(Self::OP).expect("a hybrid collective");
}

macro_rules! templates {
    ($($name:ident = $op:ident),*) => {$(
        pub(crate) struct $name;
        impl Template for $name {
            const OP: CollectiveOp = CollectiveOp::$op;
        }
    )*};
}

templates!(
    Bcast = Broadcast,
    Reduce = CombineToOne,
    AllReduce = CombineToAll,
    Collect = Collect,
    ReduceScatter = DistributedCombine
);

/// Runs `O`'s template over `dims` and `kind` on `buf` (the vector, or
/// the slot-ordered blocks of a collect or distributed combine), rooted
/// at `root`. A combining stage folds with `op` and receives into
/// `bucket`, at least [`bucket_len`](super::bucket_len) items; the
/// others use neither.
#[allow(clippy::too_many_arguments)]
pub(crate) fn walk<O: Template, T: Elem, C: Comm + ?Sized>(
    gc: &GroupComm<'_, C>,
    dims: &[usize],
    kind: StrategyKind,
    root: usize,
    buf: &mut [T],
    op: ReduceOp,
    tag: Tag,
    bucket: &mut [T],
) -> Result<()> {
    let p = gc.len();
    if p == 1 {
        return Ok(());
    }
    let template = O::TEMPLATE;
    if dims.len() == 1 {
        let centre = template.centre(kind);
        // A whole-vector centre (an MST broadcast or combine) needs no
        // block table.
        let blocks = if centre.iter().flatten().all(|&k| whole_vector(k)) {
            Vec::new()
        } else {
            partition(buf.len(), p)
        };
        for (sub, stage) in centre.into_iter().flatten().enumerate() {
            run(stage, gc, root, buf, &blocks, op, tag + sub as Tag, bucket)?;
        }
        return Ok(());
    }
    let (d0, me) = (dims[0], gc.me());
    let on_root_line = me / d0 == root / d0;
    let blocks = partition(buf.len(), d0);
    let line = gc.line(d0);
    let runs_here = |stage: StageKind| is_bucket(stage) || on_root_line;
    if let Some(stage) = template.stage1.filter(|&k| runs_here(k)) {
        run(stage, &line, root % d0, buf, &blocks, op, tag, bucket)?;
    }
    walk::<O, T, C>(
        &gc.plane(d0),
        &dims[1..],
        kind,
        root / d0,
        &mut buf[blocks[me % d0].clone()],
        op,
        tag + LEVEL_TAG_STRIDE,
        bucket,
    )?;
    if let Some(stage) = template.stage2.filter(|&k| runs_here(k)) {
        run(stage, &line, root % d0, buf, &blocks, op, tag + 1, bucket)?;
    }
    Ok(())
}

/// A bucket (ring) stage: every member holds data going in.
fn is_bucket(stage: StageKind) -> bool {
    matches!(
        stage,
        StageKind::BucketCollect | StageKind::BucketReduceScatter
    )
}

/// A stage that moves the whole vector rather than blocks of it.
fn whole_vector(stage: StageKind) -> bool {
    matches!(stage, StageKind::MstBcast | StageKind::MstCombine)
}

/// Runs one stage's primitive over `gc`, inlined into each instance of
/// [`walk`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run<T: Elem, C: Comm + ?Sized>(
    stage: StageKind,
    gc: &GroupComm<'_, C>,
    root: usize,
    buf: &mut [T],
    blocks: &[Range<usize>],
    op: ReduceOp,
    tag: Tag,
    bucket: &mut [T],
) -> Result<()> {
    match stage {
        StageKind::MstBcast => mst_bcast(gc, root, buf, tag),
        StageKind::MstCombine => mst_reduce(gc, root, buf, op, tag, bucket),
        StageKind::MstScatter => mst_scatter(gc, root, buf, blocks, tag),
        StageKind::MstGather => mst_gather(gc, root, buf, blocks, tag),
        StageKind::BucketCollect => ring_collect(gc, buf, blocks, tag),
        StageKind::BucketReduceScatter => ring_reduce_scatter(gc, buf, blocks, op, tag, bucket),
    }
}
