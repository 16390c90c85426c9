//! The benchmark's own `Comm` endpoints and its span recorder.
//!
//! [`NullComm`] is a transport that does nothing: `send`/`recv` return
//! at once and only count. It lets one thread present any rank of a
//! world this box cannot run as threads, so `cpu-p64` times selection,
//! dispatch, the recursion and the local copy/fold work and nothing
//! else. The algorithms never branch on received values, so the
//! point-to-point calls a rank issues over `NullComm` are exactly the
//! ones it issues in a real world; the cross-check in `cpu.rs` proves
//! that per call against the simulator.
//!
//! [`TracedComm`] wraps any `Comm` and records
//! `round → call(op, n) → comm(send|recv|sendrecv, peer, bytes)` spans
//! in memory. The workloads drive it through [`Meter`], which the
//! untraced runs implement with a bare clock ([`Plain`]), so both kinds
//! of run execute the same workload code.

use crate::api::{Comm, CommError};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Point-to-point operations one rank posted and the bytes they moved.
/// A `sendrecv` counts as one send and one receive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub sends: u64,
    pub recvs: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl Counts {
    fn add_send(&mut self, bytes: usize) {
        self.sends += 1;
        self.bytes_out += bytes as u64;
    }

    fn add_recv(&mut self, bytes: usize) {
        self.recvs += 1;
        self.bytes_in += bytes as u64;
    }

    /// Counter-wise `self − earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            sends: self.sends - earlier.sends,
            recvs: self.recvs - earlier.recvs,
            bytes_out: self.bytes_out - earlier.bytes_out,
            bytes_in: self.bytes_in - earlier.bytes_in,
        }
    }
}

/// A transport that moves nothing: every operation succeeds at once and
/// is counted. Receive buffers keep whatever they held.
pub struct NullComm {
    rank: usize,
    size: usize,
    counts: Cell<Counts>,
}

impl NullComm {
    pub fn new(rank: usize, size: usize) -> Self {
        assert!(rank < size, "rank {rank} outside a world of {size}");
        NullComm {
            rank,
            size,
            counts: Cell::new(Counts::default()),
        }
    }

    /// Everything posted since construction.
    pub fn counts(&self) -> Counts {
        self.counts.get()
    }

    fn bump(&self, f: impl FnOnce(&mut Counts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }
}

impl Comm for NullComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, _to: usize, _tag: u64, data: &[u8]) -> Result<(), CommError> {
        self.bump(|c| c.add_send(data.len()));
        Ok(())
    }

    fn recv(&self, _from: usize, _tag: u64, buf: &mut [u8]) -> Result<(), CommError> {
        self.bump(|c| c.add_recv(buf.len()));
        Ok(())
    }

    fn sendrecv(
        &self,
        _to: usize,
        data: &[u8],
        _from: usize,
        buf: &mut [u8],
        _tag: u64,
    ) -> Result<(), CommError> {
        self.bump(|c| {
            c.add_send(data.len());
            c.add_recv(buf.len());
        });
        Ok(())
    }
}

/// How a workload marks rounds and times library calls.
pub trait Meter {
    fn begin_round(&self, index: u32);
    fn end_round(&self);
    /// Runs one library call as a timed span; returns its result and
    /// its duration in nanoseconds. `op` indexes the workload's table
    /// of call names and `bytes` is the call's payload.
    fn call<R>(&self, op: u16, bytes: usize, f: impl FnOnce() -> R) -> (R, u64);
}

/// The untraced meter: a clock around the call and nothing else.
pub struct Plain;

impl Meter for Plain {
    fn begin_round(&self, _index: u32) {}

    fn end_round(&self) {}

    #[inline]
    fn call<R>(&self, _op: u16, _bytes: usize, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = Instant::now();
        let r = f();
        (r, t0.elapsed().as_nanos() as u64)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Round,
    Call,
    Send,
    Recv,
    SendRecv,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Round => "round",
            SpanKind::Call => "call",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
            SpanKind::SendRecv => "sendrecv",
        }
    }
}

/// One recorded interval. Ids are unique within a rank, from 1; a
/// parent of 0 means none. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub kind: SpanKind,
    /// Round index, call-name index, or peer rank, by kind.
    pub arg: u32,
    /// Payload bytes of a call, or bytes moved by a comm operation.
    pub bytes: u64,
    pub t0: u64,
    pub t1: u64,
    /// For a call: what its comm children posted. Kept on the call so
    /// the aggregates survive when comm spans are dropped.
    pub counts: Counts,
    /// For a call: time its comm children cover. Self time is
    /// `t1 − t0 − child_ns`.
    pub child_ns: u64,
    /// For a call: how many `Comm` operations it made.
    pub comm_ops: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.t1 - self.t0
    }
}

/// Everything one rank recorded.
pub struct RankLog {
    /// Unique among the logs of one trace file: the rank, or a pair or
    /// row-and-rank number where one rank appears in several worlds.
    pub stream: usize,
    pub rank: usize,
    pub spans: Vec<Span>,
    /// Comm spans not kept because the rank's cap was reached. Their
    /// counts and time are still on the parent call spans.
    pub dropped: u64,
}

struct Log {
    spans: Vec<Span>,
    comm_kept: usize,
    dropped: u64,
    next_id: u32,
    /// Index into `spans` of the open round and call, if any.
    open_round: Option<usize>,
    open_call: Option<usize>,
}

impl Log {
    /// Appends a span with a fresh id and returns its index.
    fn push(
        &mut self,
        parent: u32,
        kind: SpanKind,
        arg: u32,
        bytes: usize,
        t: (u64, u64),
    ) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            kind,
            arg,
            bytes: bytes as u64,
            t0: t.0,
            t1: t.1,
            counts: Counts::default(),
            child_ns: 0,
            comm_ops: 0,
        });
        self.spans.len() - 1
    }
}

/// A `Comm` that records a span for every operation passing through it.
pub struct TracedComm<'a, C: Comm + ?Sized> {
    inner: &'a C,
    epoch: Instant,
    comm_cap: usize,
    log: RefCell<Log>,
}

impl<'a, C: Comm + ?Sized> TracedComm<'a, C> {
    /// Wraps `inner`. `epoch` is shared by all ranks of a run so their
    /// timestamps line up; at most `comm_cap` comm spans are kept.
    pub fn new(inner: &'a C, epoch: Instant, comm_cap: usize) -> Self {
        TracedComm {
            inner,
            epoch,
            comm_cap,
            log: RefCell::new(Log {
                spans: Vec::new(),
                comm_kept: 0,
                dropped: 0,
                next_id: 1,
                open_round: None,
                open_call: None,
            }),
        }
    }

    pub fn into_log(self) -> RankLog {
        let log = self.log.into_inner();
        RankLog {
            stream: self.inner.rank(),
            rank: self.inner.rank(),
            spans: log.spans,
            dropped: log.dropped,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn comm_op<R>(
        &self,
        kind: SpanKind,
        peer: usize,
        out: usize,
        inn: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        let mut log = self.log.borrow_mut();
        let parent = match log.open_call {
            Some(i) => {
                let call = &mut log.spans[i];
                call.child_ns += t1 - t0;
                call.comm_ops += 1;
                if kind != SpanKind::Recv {
                    call.counts.add_send(out);
                }
                if kind != SpanKind::Send {
                    call.counts.add_recv(inn);
                }
                call.id
            }
            None => 0,
        };
        if log.comm_kept < self.comm_cap {
            log.comm_kept += 1;
            log.push(parent, kind, peer as u32, out + inn, (t0, t1));
        } else {
            log.dropped += 1;
        }
        r
    }
}

impl<C: Comm + ?Sized> Meter for TracedComm<'_, C> {
    fn begin_round(&self, index: u32) {
        let t0 = self.now();
        let mut log = self.log.borrow_mut();
        log.open_round = Some(log.push(0, SpanKind::Round, index, 0, (t0, t0)));
    }

    fn end_round(&self) {
        let t1 = self.now();
        let mut log = self.log.borrow_mut();
        if let Some(i) = log.open_round.take() {
            log.spans[i].t1 = t1;
        }
    }

    fn call<R>(&self, op: u16, bytes: usize, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = self.now();
        {
            let mut log = self.log.borrow_mut();
            let parent = log.open_round.map_or(0, |i| log.spans[i].id);
            log.open_call = Some(log.push(parent, SpanKind::Call, op as u32, bytes, (t0, t0)));
        }
        let r = f();
        let t1 = self.now();
        let mut log = self.log.borrow_mut();
        if let Some(i) = log.open_call.take() {
            log.spans[i].t1 = t1;
        }
        (r, t1 - t0)
    }
}

impl<C: Comm + ?Sized> Comm for TracedComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, tag: u64, data: &[u8]) -> Result<(), CommError> {
        self.comm_op(SpanKind::Send, to, data.len(), 0, || {
            self.inner.send(to, tag, data)
        })
    }

    fn recv(&self, from: usize, tag: u64, buf: &mut [u8]) -> Result<(), CommError> {
        let n = buf.len();
        self.comm_op(SpanKind::Recv, from, 0, n, || {
            self.inner.recv(from, tag, buf)
        })
    }

    fn sendrecv(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: u64,
    ) -> Result<(), CommError> {
        let n = buf.len();
        self.comm_op(SpanKind::SendRecv, to, data.len(), n, || {
            self.inner.sendrecv(to, data, from, buf, tag)
        })
    }

    fn sendrecv_tagged(
        &self,
        to: usize,
        data: &[u8],
        stag: u64,
        from: usize,
        buf: &mut [u8],
        rtag: u64,
    ) -> Result<(), CommError> {
        let n = buf.len();
        self.comm_op(SpanKind::SendRecv, to, data.len(), n, || {
            self.inner.sendrecv_tagged(to, data, stag, from, buf, rtag)
        })
    }

    fn compute(&self, bytes: usize) {
        self.inner.compute(bytes);
    }

    fn call_overhead(&self) {
        self.inner.call_overhead();
    }

    fn local_copy(&self, src: &[u8], dst: &[u8]) {
        self.inner.local_copy(src, dst);
    }

    fn local_reduce(&self, acc: &[u8], other: &[u8]) {
        self.inner.local_reduce(acc, other);
    }

    fn plan_step(&self, plan: u64, step: u64) {
        self.inner.plan_step(plan, step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comm_counts_and_moves_nothing() {
        let c = NullComm::new(3, 8);
        let mut buf = [7u8; 4];
        c.send(0, 1, &[1, 2, 3]).unwrap();
        c.recv(1, 1, &mut buf).unwrap();
        c.sendrecv(2, &[9; 5], 4, &mut buf, 2).unwrap();
        assert_eq!(buf, [7; 4], "receives leave the buffer alone");
        assert_eq!(
            c.counts(),
            Counts {
                sends: 2,
                recvs: 2,
                bytes_out: 8,
                bytes_in: 8
            }
        );
    }

    #[test]
    fn traced_comm_nests_round_call_comm() {
        let null = NullComm::new(0, 2);
        let tc = TracedComm::new(&null, Instant::now(), 16);
        tc.begin_round(5);
        let ((), ns) = tc.call(2, 64, || {
            tc.send(1, 0, &[0; 64]).unwrap();
            let mut b = [0u8; 32];
            tc.sendrecv(1, &[0; 8], 1, &mut b, 0).unwrap();
        });
        tc.end_round();
        let log = tc.into_log();
        assert_eq!(log.dropped, 0);
        let kinds: Vec<_> = log.spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                SpanKind::Round,
                SpanKind::Call,
                SpanKind::Send,
                SpanKind::SendRecv
            ]
        );
        let (round, call) = (&log.spans[0], &log.spans[1]);
        assert_eq!(round.arg, 5);
        assert_eq!(call.parent, round.id);
        assert_eq!((call.arg, call.bytes), (2, 64));
        assert_eq!(call.dur(), ns);
        assert!(log.spans[2..].iter().all(|s| s.parent == call.id));
        assert_eq!(
            call.counts,
            Counts {
                sends: 2,
                recvs: 1,
                bytes_out: 72,
                bytes_in: 32
            }
        );
        assert_eq!(call.child_ns, log.spans[2].dur() + log.spans[3].dur());
        assert!(round.t0 <= call.t0 && call.t1 <= round.t1);
        // What NullComm counted is what the trace saw.
        assert_eq!(null.counts(), call.counts);
    }

    #[test]
    fn comm_spans_beyond_the_cap_keep_their_aggregates() {
        let null = NullComm::new(0, 2);
        let tc = TracedComm::new(&null, Instant::now(), 1);
        tc.call(0, 0, || {
            for _ in 0..3 {
                tc.send(1, 0, &[0; 10]).unwrap();
            }
        });
        let log = tc.into_log();
        assert_eq!(log.dropped, 2);
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[0].counts.sends, 3);
        assert_eq!(log.spans[0].counts.bytes_out, 30);
    }
}
