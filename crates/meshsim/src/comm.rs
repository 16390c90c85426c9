//! The per-rank simulated endpoint.

use crate::engine::{Reply, Request};
use crate::window::{ProgramWindow, RecvWindow, SendWindow};
use intercom::ir::BoundProgram;
use intercom::{Comm, CommError, Result, Tag};
use std::sync::mpsc::{Receiver, SyncSender};

/// A rank's endpoint inside a simulated world. Blocking operations
/// round-trip through the central engine, which advances virtual time;
/// `compute`/`call_overhead` are fire-and-forget clock advances (the
/// request channel preserves per-rank order, so accounting lands in
/// program order).
///
/// Payloads are never handed over: `send` / `recv` / `sendrecv` lend
/// the engine windows onto the caller's own buffers and block until it
/// replies; the engine — or its helper, which it joins before replying —
/// copies sender → receiver once, at the transfer's completion (see
/// `window.rs` for why that is sound).
///
/// A `SimComm` runs programs: a `Communicator` call or a persistent plan
/// hands the engine its whole compiled program in one request
/// ([`Comm::run_program`]), and the rank blocks until the engine has
/// walked it to the end — one reply per call, whatever its step count.
pub struct SimComm {
    rank: usize,
    size: usize,
    to_engine: SyncSender<(usize, Request)>,
    from_engine: Receiver<Reply>,
    finished: std::cell::Cell<bool>,
}

impl SimComm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        to_engine: SyncSender<(usize, Request)>,
        from_engine: Receiver<Reply>,
    ) -> Self {
        SimComm {
            rank,
            size,
            to_engine,
            from_engine,
            finished: std::cell::Cell::new(false),
        }
    }

    /// Posts `req` and blocks until the engine answers it. The wait has
    /// no timeout, and must not grow one: windows lent in `req` stay
    /// borrowed by the caller's frame, which resumes only once the
    /// engine has replied (it is done with them) or has dropped this
    /// rank's reply sender (it has stopped for good).
    fn roundtrip(&self, req: Request) -> Result<()> {
        self.to_engine
            .send((self.rank, req))
            .map_err(|_| CommError::Disconnected)?;
        self.from_engine
            .recv()
            .map_err(|_| CommError::Disconnected)?
    }

    pub(crate) fn finish(&self) {
        if !self.finished.replace(true) {
            let _ = self.to_engine.send((self.rank, Request::Finished));
        }
    }
}

impl Drop for SimComm {
    fn drop(&mut self) {
        // A panicking rank still tells the engine it is gone, so the
        // simulation surfaces a deadlock diagnostic (or completes) rather
        // than waiting forever for requests that will never come.
        self.finish();
    }
}

impl Comm for SimComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.roundtrip(Request::Send {
            to,
            tag,
            data: SendWindow::lend(data),
        })
    }

    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> Result<()> {
        self.roundtrip(Request::Recv {
            from,
            tag,
            buf: RecvWindow::lend(buf),
        })
    }

    fn sendrecv(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
    ) -> Result<()> {
        self.sendrecv_tagged(to, data, tag, from, buf, tag)
    }

    fn sendrecv_tagged(
        &self,
        to: usize,
        data: &[u8],
        stag: Tag,
        from: usize,
        buf: &mut [u8],
        rtag: Tag,
    ) -> Result<()> {
        self.roundtrip(Request::SendRecv {
            to,
            data: SendWindow::lend(data),
            from,
            tag: stag,
            rtag,
            buf: RecvWindow::lend(buf),
        })
    }

    fn compute(&self, bytes: usize) {
        let _ = self.to_engine.send((self.rank, Request::Compute { bytes }));
    }

    fn call_overhead(&self) {
        let _ = self.to_engine.send((self.rank, Request::CallOverhead));
    }

    fn plan_step(&self, plan: u64, step: u64) {
        // Fire-and-forget like `compute`: the per-rank request channel
        // is FIFO, so the attribution precedes the comm op it covers.
        let _ = self
            .to_engine
            .send((self.rank, Request::PlanStep { plan, step }));
    }

    fn runs_programs(&self) -> bool {
        true
    }

    fn run_program(&self, prog: &mut BoundProgram<'_>) -> Result<()> {
        self.roundtrip(Request::Program(ProgramWindow::lend(prog)))
    }
}
