//! The paper's building blocks (§4).
//!
//! All primitives operate within a [`GroupComm`](crate::comm::GroupComm)
//! in logical ranks, are simple to implement, require no power-of-two
//! sizes, and incur no network conflicts on a linear array (§4's three
//! defining properties):
//!
//! * short-vector primitives ([`mst`]): minimum-spanning-tree broadcast,
//!   combine-to-one, scatter and gather — latency-optimal recursive
//!   halving;
//! * long-vector primitives ([`ring`]): bucket collect and bucket
//!   distributed combine — bandwidth-optimal unidirectional rings (plus
//!   the same scatter/gather, which serve both regimes).
//!
//! Vector layout convention: every participant passes the *full-extent*
//! buffer for the vector being operated on plus a block table
//! (`&[Range<usize>]`, one consecutive item range per logical rank, as
//! produced by [`crate::block::partition`]); primitives move and combine
//! the block contents in place. Public MPI-style wrappers with separate
//! send/receive buffers live in [`crate::algorithms`]. The combining
//! primitives receive into a caller-lent bucket and allocate nothing.

pub mod mst;
pub mod pipeline;
pub mod ring;

pub(crate) use mst::check_root;
pub use mst::{mst_bcast, mst_gather, mst_reduce, mst_scatter};
pub use pipeline::{optimal_segments, pipelined_ring_bcast};
pub use ring::{ring_collect, ring_reduce_scatter, ring_reduce_scatter_into};

use crate::block::Blocks;
use std::ops::Range;

/// Debug-validates that `blocks` is an in-order partition of
/// `0..total_len` with one block per group member.
pub(crate) fn debug_check_blocks<B: Blocks + ?Sized>(blocks: &B, members: usize, total_len: usize) {
    if cfg!(debug_assertions) {
        let n = blocks.count();
        assert_eq!(n, members, "one block per member required");
        assert!(n == 0 || blocks.block(0).start == 0, "blocks start at 0");
        assert_eq!(blocks.total(), total_len);
        assert!(
            (1..n).all(|i| blocks.block(i - 1).end == blocks.block(i).start),
            "blocks must be consecutive"
        );
    }
}

/// Splits `buf` into a shared view of `send` and a mutable view of
/// `recv`, which must be disjoint ranges (guaranteed by the block tables
/// used by the ring primitives).
pub(crate) fn disjoint_pair<T>(
    buf: &mut [T],
    send: Range<usize>,
    recv: Range<usize>,
) -> (&[T], &mut [T]) {
    // Empty ranges carry no data and can sit at any position (zero-length
    // blocks from uneven counts), so handle them before asserting
    // disjointness of the ordering split.
    if recv.is_empty() {
        return (&buf[send], &mut []);
    }
    if send.is_empty() {
        return (&[], &mut buf[recv]);
    }
    debug_assert!(
        send.end <= recv.start || recv.end <= send.start,
        "send {send:?} and recv {recv:?} ranges overlap"
    );
    if send.start < recv.start {
        let (a, b) = buf.split_at_mut(recv.start);
        (&a[send.clone()], &mut b[..recv.len()])
    } else {
        let (a, b) = buf.split_at_mut(send.start);
        let recv_slice = &mut a[recv.start..recv.end];
        (&b[..send.len()], recv_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_pair_send_before_recv() {
        let mut v = [1, 2, 3, 4, 5, 6];
        let (s, r) = disjoint_pair(&mut v, 0..2, 4..6);
        assert_eq!(s, &[1, 2]);
        assert_eq!(r, &mut [5, 6]);
    }

    #[test]
    fn disjoint_pair_recv_before_send() {
        let mut v = [1, 2, 3, 4, 5, 6];
        let (s, r) = disjoint_pair(&mut v, 3..6, 0..2);
        assert_eq!(s, &[4, 5, 6]);
        assert_eq!(r, &mut [1, 2]);
    }

    #[test]
    fn disjoint_pair_empty_ranges() {
        let mut v = [1, 2, 3];
        let (s, r) = disjoint_pair(&mut v, 1..1, 2..3);
        assert!(s.is_empty());
        assert_eq!(r, &mut [3]);
    }

    #[test]
    fn disjoint_pair_empty_recv_at_send_boundary() {
        // Regression: a zero-length recv block whose start equals the
        // send range's start (uneven counts place empty blocks at shared
        // boundaries) must not index out of bounds.
        let mut v = [1, 2, 3, 4, 5, 6, 7];
        let (s, r) = disjoint_pair(&mut v, 4..7, 4..4);
        assert_eq!(s, &[5, 6, 7]);
        assert!(r.is_empty());
        let (s, r) = disjoint_pair(&mut v, 0..7, 3..3);
        assert_eq!(s.len(), 7);
        assert!(r.is_empty());
    }

    #[test]
    fn disjoint_pair_empty_send_inside_recv_span() {
        let mut v = [1, 2, 3, 4];
        let (s, r) = disjoint_pair(&mut v, 2..2, 0..4);
        assert!(s.is_empty());
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn debug_check_accepts_partition() {
        debug_check_blocks(&crate::block::partition(10, 3)[..], 3, 10);
    }
}
