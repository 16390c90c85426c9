//! The per-rank simulated endpoint.

use crate::engine::{Reply, Request};
use crate::window::ProgramWindow;
use intercom::ir::{BoundProgram, Step, StepKind};
use intercom::{Comm, CommError, DefaultPath, Result, Tag};
use std::ops::Range;
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
/// A `SimComm` runs programs its own way ([`Comm::run_program`]): a
/// `Communicator` call or a persistent plan hands the engine its
/// compiled program — all but the copies, folds and permutations at
/// either end — in one request, and the rank blocks until the engine
/// has walked it — one reply per call, whatever its step count.
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
        self.roundtrip(Request::transfer(Some((to, data)), None, tag))
    }

    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> Result<()> {
        self.roundtrip(Request::transfer(None, Some((from, buf)), tag))
    }

    fn sendrecv(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
    ) -> Result<()> {
        self.roundtrip(Request::transfer(Some((to, data)), Some((from, buf)), tag))
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

    fn default_path(&self) -> DefaultPath {
        DefaultPath::Program
    }

    fn run_program(&self, prog: &mut BoundProgram<'_>) -> Result<()> {
        let (steps, len) = (handed(prog.steps()), prog.steps().len());
        let after = steps.end..len;
        for i in 0..steps.start {
            prog.step(i)?;
        }
        if !steps.is_empty() {
            prog.ready_scratch(steps.clone());
            let prog = ProgramWindow::lend(prog);
            self.roundtrip(Request::Program { prog, steps })?;
        }
        for i in after {
            prog.step(i)?;
        }
        Ok(())
    }
}

/// The steps of a program the engine runs: its first transfer or clock
/// step to its last (none if it has neither). The copies, folds and
/// permutations around them run on the rank's own thread, beside the
/// other ranks' — a collect's block un-permutation, one step after its
/// last transfer, moves most of its bytes.
pub(crate) fn handed(steps: &[Step]) -> Range<usize> {
    let local = |s: &Step| {
        matches!(
            s.kind,
            StepKind::Copy { .. } | StepKind::Reduce { .. } | StepKind::Permute { .. }
        )
    };
    let first = steps.iter().position(|s| !local(s)).unwrap_or(steps.len());
    let last = steps
        .iter()
        .rposition(|s| !local(s))
        .map_or(first, |i| i + 1);
    first..last
}

#[cfg(test)]
mod tests {
    use super::handed;
    use intercom::ir::{Buf, Loc, Step, StepKind};

    fn steps(kinds: &[StepKind]) -> Vec<Step> {
        kinds.iter().map(|&kind| Step { kind }).collect()
    }

    #[test]
    fn the_engine_gets_the_first_transfer_or_clock_step_to_the_last() {
        let at = |off| Loc {
            buf: Buf::Arg(0),
            off,
            len: 1,
        };
        let copy = StepKind::Copy {
            src: at(0),
            dst: at(1),
        };
        let swap = StepKind::SendRecv {
            to: 0,
            src: at(0),
            from: 0,
            dst: at(1),
            tag_off: 0,
        };
        let permute = StepKind::Permute {
            region: at(0),
            held: at(1),
            radices: 0,
        };
        let (overhead, compute) = (StepKind::CallOverhead, StepKind::Compute { bytes: 1 });
        let cases: [(&[StepKind], _); 7] = [
            (&[copy, overhead, swap, copy, swap, copy], 1..5),
            (&[copy, swap, overhead, copy, permute], 1..3),
            (&[overhead, copy, swap], 0..3),
            (&[swap, copy, compute], 0..3),
            (&[copy, swap, copy], 1..2),
            (&[copy, copy], 2..2),
            (&[], 0..0),
        ];
        for (kinds, want) in cases {
            assert_eq!(handed(&steps(kinds)), want, "{kinds:?}");
        }
    }
}
