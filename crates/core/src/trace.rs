//! Schedule extraction: a recording [`Comm`] backend that captures a
//! rank's symbolic communication program without moving a byte.
//!
//! The library's collectives branch only on `(rank, size, n, strategy)` —
//! never on received *values* — so running one rank's algorithm against a
//! [`RecordingComm`] (whose `recv` zero-fills and returns immediately)
//! yields exactly the sequence of point-to-point operations that rank
//! would issue on a real backend. Re-running the same call for every
//! rank produces the full symbolic schedule, which the `intercom-verify`
//! crate matches into synchronous steps and checks statically for
//! deadlock-freedom, single-port compliance, link-conflict-freedom and
//! buffer-region safety — turning the paper's "conflict-free" claim into
//! a machine-checked property over the whole strategy space.
//!
//! Buffer identity is captured as raw address spans ([`MemSpan`]): the
//! borrows passed to `send`/`recv`/`sendrecv` are live simultaneously
//! within one call, so span overlap within one operation is meaningful
//! (and is exactly what the buffer-safety invariant checks). Callers may
//! [`RecordingComm::register`] named regions (the user-visible buffers)
//! so reports can translate spans back to logical byte offsets.

use crate::comm::{Comm, Tag};
use crate::error::{CommError, Result};
use std::cell::{Cell, RefCell};

/// A raw memory span observed during recording: the address and byte
/// length of a slice passed to a point-to-point call. Never dereferenced
/// after recording — used only for identity, overlap and offset queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSpan {
    /// Starting address of the slice, as an integer.
    pub addr: usize,
    /// Length in bytes.
    pub len: usize,
}

impl MemSpan {
    fn of(bytes: &[u8]) -> Self {
        MemSpan {
            addr: bytes.as_ptr() as usize,
            len: bytes.len(),
        }
    }

    /// Whether two spans overlap in at least one byte (empty spans never
    /// overlap anything).
    pub fn overlaps(&self, other: &MemSpan) -> bool {
        self.len > 0
            && other.len > 0
            && self.addr < other.addr + other.len
            && other.addr < self.addr + self.len
    }
}

/// A caller-registered named buffer region (e.g. the collective's user
/// buffer), used to resolve recorded spans to logical offsets.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// Human-readable buffer name (e.g. `"buf"`, `"all"`).
    pub name: &'static str,
    /// Starting address.
    pub addr: usize,
    /// Length in bytes.
    pub len: usize,
}

/// One recorded point-to-point (or accounting) operation of a single
/// rank's program, in issue order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpRecord {
    /// Blocking send of `src.len` bytes to `to`.
    Send {
        /// Destination world rank.
        to: usize,
        /// Message tag.
        tag: Tag,
        /// Bytes read.
        src: MemSpan,
    },
    /// Blocking receive of `dst.len` bytes from `from`.
    Recv {
        /// Source world rank.
        from: usize,
        /// Message tag.
        tag: Tag,
        /// Bytes written.
        dst: MemSpan,
    },
    /// Concurrent send-to / receive-from (possibly different peers),
    /// both halves under one tag: an exchange is one recursion stage.
    SendRecv {
        /// Destination world rank of the send half.
        to: usize,
        /// Bytes read by the send half.
        src: MemSpan,
        /// Source world rank of the receive half.
        from: usize,
        /// Bytes written by the receive half.
        dst: MemSpan,
        /// Message tag of both halves.
        tag: Tag,
    },
    /// Local combine work over `bytes` bytes (the γ term).
    Compute {
        /// Combined byte count.
        bytes: usize,
    },
    /// One level of short-vector recursion overhead (the δ term).
    CallOverhead,
    /// Local copy: `src` bytes were copied into `dst` without touching
    /// the network (block permutes, root staging, own-block moves).
    Copy {
        /// Bytes read.
        src: MemSpan,
        /// Bytes written.
        dst: MemSpan,
    },
    /// Local reduction: `other` was folded element-wise into `acc`.
    Reduce {
        /// Accumulator bytes (read and written).
        acc: MemSpan,
        /// Contribution bytes (read).
        other: MemSpan,
    },
    /// Local in-place block un-permutation of `region` (a collect's):
    /// block `q` moved from slot `slot_of(radices, q)` to position `q`,
    /// one block at a time held in `held`, which is one block long and
    /// disjoint from `region`.
    Permute {
        /// Bytes read and written: `held.len` times the product of the
        /// radices.
        region: MemSpan,
        /// The block clobbered as the moves' stash.
        held: MemSpan,
        /// The permutation's radices; `None` where they do not fit
        /// [`Radices`] (a group of more than 2¹⁶ ranks).
        radices: Option<Radices>,
    },
}

/// The radices of a recorded permutation, held inline so a record stays
/// `Copy`: fastest-varying first, radices of 1 (which move nothing)
/// left out. Up to 16, each below 2¹⁶ — every factorization of a group
/// of up to 2¹⁶ ranks, the groups a compiled program addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Radices {
    len: u8,
    digits: [u16; 16],
}

impl Radices {
    /// `radices` without its 1s, if that fits.
    pub fn new(radices: &[usize]) -> Option<Radices> {
        let mut out = Radices {
            len: 0,
            digits: [0; 16],
        };
        for &r in radices.iter().filter(|&&r| r != 1) {
            *out.digits.get_mut(usize::from(out.len))? = u16::try_from(r).ok()?;
            out.len += 1;
        }
        Some(out)
    }

    /// The radices, fastest-varying first.
    pub fn to_vec(&self) -> Vec<usize> {
        let digits = &self.digits[..usize::from(self.len)];
        digits.iter().map(|&d| usize::from(d)).collect()
    }

    /// The number of blocks the permutation moves: the radices' product
    /// (saturated at `usize::MAX`).
    pub fn blocks(&self) -> usize {
        let digits = &self.digits[..usize::from(self.len)];
        digits
            .iter()
            .fold(1, |n: usize, &d| n.saturating_mul(usize::from(d)))
    }
}

/// A non-communicating [`Comm`] backend that records one rank's symbolic
/// program. `recv` zero-fills its buffer and returns immediately; `send`
/// records and returns. Peer ranks are validated exactly like a real
/// backend would.
#[derive(Debug)]
pub struct RecordingComm {
    rank: usize,
    size: usize,
    ops: RefCell<Vec<OpRecord>>,
    regions: RefCell<Vec<Region>>,
    /// Whether a receive zero-fills its buffer; cleared by
    /// [`GroupComm::recording`](crate::comm::GroupComm), whose replay
    /// moves no data and so has nothing to keep deterministic.
    pub(crate) fills: Cell<bool>,
}

impl RecordingComm {
    /// A recorder for world rank `rank` of `size`.
    pub fn new(rank: usize, size: usize) -> Self {
        assert!(rank < size, "rank {rank} out of range for size {size}");
        RecordingComm {
            rank,
            size,
            ops: RefCell::new(Vec::new()),
            regions: RefCell::new(Vec::new()),
            fills: Cell::new(true),
        }
    }

    fn fill(&self, buf: &mut [u8]) {
        if self.fills.get() {
            buf.fill(0);
        }
    }

    /// Registers a named user buffer so recorded spans can be resolved
    /// to logical byte offsets within it.
    pub fn register<T: crate::cast::Scalar>(&self, name: &'static str, buf: &[T]) {
        let bytes = T::as_bytes(buf);
        self.regions.borrow_mut().push(Region {
            name,
            addr: bytes.as_ptr() as usize,
            len: bytes.len(),
        });
    }

    /// The registered regions, in registration order.
    pub fn regions(&self) -> Vec<Region> {
        self.regions.borrow().clone()
    }

    /// Resolves a span to `(region name, byte offset)` if it lies wholly
    /// within a registered region.
    pub fn locate(&self, span: &MemSpan) -> Option<(&'static str, usize)> {
        self.regions
            .borrow()
            .iter()
            .find(|r| span.addr >= r.addr && span.addr + span.len <= r.addr + r.len)
            .map(|r| (r.name, span.addr - r.addr))
    }

    /// Consumes the recorder, returning the rank's program in issue order.
    pub fn into_ops(self) -> Vec<OpRecord> {
        self.ops.into_inner()
    }

    fn check_peer(&self, peer: usize) -> Result<()> {
        if peer < self.size {
            Ok(())
        } else {
            Err(CommError::InvalidRank {
                rank: peer,
                size: self.size,
            })
        }
    }
}

impl Comm for RecordingComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.check_peer(to)?;
        self.ops.borrow_mut().push(OpRecord::Send {
            to,
            tag,
            src: MemSpan::of(data),
        });
        Ok(())
    }

    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> Result<()> {
        self.check_peer(from)?;
        // Deterministic fill: downstream combine folds see zeros, so the
        // recorded program is reproducible and overflow-free.
        self.fill(buf);
        self.ops.borrow_mut().push(OpRecord::Recv {
            from,
            tag,
            dst: MemSpan::of(buf),
        });
        Ok(())
    }

    fn sendrecv(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
    ) -> Result<()> {
        self.check_peer(to)?;
        self.check_peer(from)?;
        self.fill(buf);
        let src = MemSpan::of(data);
        let dst = MemSpan::of(buf);
        self.ops.borrow_mut().push(OpRecord::SendRecv {
            to,
            src,
            from,
            dst,
            tag,
        });
        Ok(())
    }

    fn compute(&self, bytes: usize) {
        self.ops.borrow_mut().push(OpRecord::Compute { bytes });
    }

    fn call_overhead(&self) {
        self.ops.borrow_mut().push(OpRecord::CallOverhead);
    }

    fn local_copy(&self, src: &[u8], dst: &[u8]) {
        self.ops.borrow_mut().push(OpRecord::Copy {
            src: MemSpan::of(src),
            dst: MemSpan::of(dst),
        });
    }

    fn local_permute(&self, region: &[u8], held: &[u8], radices: &[usize]) {
        self.ops.borrow_mut().push(OpRecord::Permute {
            region: MemSpan::of(region),
            held: MemSpan::of(held),
            radices: Radices::new(radices),
        });
    }

    fn local_reduce(&self, acc: &[u8], other: &[u8]) {
        self.ops.borrow_mut().push(OpRecord::Reduce {
            acc: MemSpan::of(acc),
            other: MemSpan::of(other),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::GroupComm;

    #[test]
    fn records_in_issue_order() {
        let rec = RecordingComm::new(1, 3);
        let gc = GroupComm::world(&rec);
        let data = [1u8, 2];
        let mut buf = [0u8; 2];
        gc.send(0, 7, &data).unwrap();
        gc.recv(2, 9, &mut buf).unwrap();
        let ops = rec.into_ops();
        assert!(matches!(ops[0], OpRecord::Send { to: 0, tag: 7, .. }));
        assert!(matches!(
            ops[1],
            OpRecord::Recv {
                from: 2,
                tag: 9,
                ..
            }
        ));
    }

    #[test]
    fn recv_zero_fills() {
        let rec = RecordingComm::new(0, 2);
        let mut buf = [0xffu8; 4];
        rec.recv(1, 0, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn invalid_peer_rejected() {
        let rec = RecordingComm::new(0, 2);
        assert!(matches!(
            rec.send(2, 0, &[0u8]),
            Err(CommError::InvalidRank { rank: 2, size: 2 })
        ));
    }

    #[test]
    fn region_resolution() {
        let rec = RecordingComm::new(0, 1);
        let buf = [0u32; 8];
        rec.register("buf", &buf);
        let bytes = <u32 as crate::cast::Scalar>::as_bytes(&buf);
        let span = MemSpan {
            addr: bytes.as_ptr() as usize + 4,
            len: 8,
        };
        assert_eq!(rec.locate(&span), Some(("buf", 4)));
        let outside = MemSpan {
            addr: bytes.as_ptr() as usize + 28,
            len: 8,
        };
        assert_eq!(rec.locate(&outside), None);
    }

    #[test]
    fn span_overlap_rules() {
        let a = MemSpan { addr: 100, len: 10 };
        let b = MemSpan { addr: 109, len: 4 };
        let c = MemSpan { addr: 110, len: 4 };
        let empty = MemSpan { addr: 105, len: 0 };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&empty));
    }

    #[test]
    fn sendrecv_records_both_spans() {
        let rec = RecordingComm::new(0, 2);
        let data = [1u8; 3];
        let mut buf = [0u8; 3];
        rec.sendrecv(1, &data, 1, &mut buf, 5).unwrap();
        let ops = rec.into_ops();
        match ops[0] {
            OpRecord::SendRecv {
                to, from, src, dst, ..
            } => {
                assert_eq!((to, from), (1, 1));
                assert_eq!(src.len, 3);
                assert_eq!(dst.len, 3);
                assert!(!src.overlaps(&dst));
            }
            ref other => panic!("unexpected record {other:?}"),
        }
    }
}
