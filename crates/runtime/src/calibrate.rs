//! Backend self-calibration — automating the paper's §11 porting recipe.
//!
//! "To port the library between platforms or tune it for new operating
//! system releases, it suffices to enter a few parameters that describe
//! the latency, bandwidth and computation characteristics of the
//! system." This module *measures* those parameters on the threaded
//! backend with classic ping-pong and streaming kernels, producing a
//! [`MachineParams`] that makes the cost-model selector reflect the host
//! it actually runs on rather than a 1994 Paragon.

use crate::endpoint::ThreadComm;
use crate::world::run_world;
use intercom::{Comm, ReduceOp};
use intercom_cost::MachineParams;
use std::sync::Mutex;
use std::time::Instant;

/// Measured point-to-point characteristics of the threaded backend.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Measured per-message latency (α), seconds.
    pub alpha: f64,
    /// Measured per-byte time (β), seconds/byte.
    pub beta: f64,
    /// Measured per-byte combine time (γ) for `f64` summation.
    pub gamma: f64,
}

impl Calibration {
    /// Converts to [`MachineParams`] (δ negligible on a native backend;
    /// channels have no shared physical links, so `link_excess` is left
    /// high enough to disable conflict modeling).
    pub fn machine(&self) -> MachineParams {
        MachineParams {
            alpha: self.alpha,
            beta: self.beta,
            gamma: self.gamma,
            delta: 0.0,
            link_excess: 1e9,
        }
    }
}

/// Time per hop of `iters` hops of `payload` into `buf` under tags
/// `first_tag..`: the two one-way hops of a ping-pong, or with
/// `exchange` one `sendrecv` in which both ranks send and receive.
fn hops(
    a: &ThreadComm,
    peer: usize,
    (payload, buf): (&[u8], &mut [u8]),
    exchange: bool,
    first_tag: u64,
    iters: usize,
) -> f64 {
    let start = Instant::now();
    for tag in first_tag..first_tag + iters as u64 {
        if exchange {
            a.sendrecv(peer, payload, peer, buf, tag).unwrap();
        } else if a.rank() == 0 {
            a.send(peer, tag, payload).unwrap();
            a.recv(peer, tag, buf).unwrap();
        } else {
            a.recv(0, tag, buf).unwrap();
            a.send(0, tag, payload).unwrap();
        }
    }
    let per_iter = if exchange { 1.0 } else { 2.0 };
    start.elapsed().as_secs_f64() / (per_iter * iters as f64)
}

/// The long hop β is taken from.
const BIG: usize = 1 << 20;

/// Median over [`BATCHES`] timed batches of `iters` [`hops`] of `bytes`,
/// after one untimed batch, all over the same two buffers. The warm-up
/// absorbs thread-start skew, the buffers' first page faults, the
/// pair's ring allocations and the first parked wake-ups (tens of
/// microseconds each, against a steady-state hop of about one); the
/// median drops a batch the scheduler preempted. The payload is
/// written: a zeroed one may be fresh pages that all map the kernel's
/// one zero page, which every hop would then read out of cache.
fn steady_hops(a: &ThreadComm, peer: usize, bytes: usize, exchange: bool, iters: usize) -> f64 {
    const BATCHES: usize = 5;
    let (payload, mut buf) = (vec![1u8; bytes], vec![0u8; bytes]);
    let mut times = [0.0; BATCHES + 1];
    for (batch, t) in times.iter_mut().enumerate() {
        let bufs = (&payload[..], &mut buf[..]);
        *t = hops(a, peer, bufs, exchange, (batch * iters) as u64, iters);
    }
    let timed = &mut times[1..];
    timed.sort_by(f64::total_cmp);
    timed[BATCHES / 2]
}

/// Measures α (small-message ping-pong), β (large-message slope) and γ
/// (the time per byte of an `f64` [`ReduceOp::Sum`] fold, the
/// collectives' own kernel) on this host. The small message
/// is an eager copy through a ring slot, received by polling, and the
/// receiver looks back to back, so α is what a waiting hop costs on
/// this host (a yield and the inbox's cache lines crossing cores:
/// ≈0.8 µs on the reference 2-vCPU guest). The 1 MiB point is an
/// *exchange*, because that is what the long-vector stages β prices are
/// made of: every ring step is a `sendrecv` in which each rank consumes
/// its neighbour's window — one pass over the bytes, straight out of
/// the sender's buffer — with its own core, while its peer's core is
/// busy doing the same. A one-way 1 MiB hop is about twice as fast (the
/// blocked sender copies half of its own window) and would make every
/// ring look cheaper than it runs; what that leaves unpriced is the MST
/// stages' one-way long hops (ROADMAP item 3). Takes a fraction of a
/// second; results are indicative, not statistically rigorous — exactly
/// the "few parameters" the paper's port needs.
pub fn calibrate() -> Calibration {
    const SMALL: usize = 8;
    // One at a time: an exchange keeps both of its ranks busy, so two
    // calibrations at once would measure each other, not the host.
    static CALIBRATING: Mutex<()> = Mutex::new(());
    let _one_at_a_time = CALIBRATING.lock().unwrap_or_else(|p| p.into_inner());
    // With a single core there is no second one to keep busy: an
    // exchange is then two copies in a row, which says nothing about
    // either, and the one-way hop is the one copy it always was.
    let exchange = std::thread::available_parallelism().map_or(1, usize::from) > 1;
    let times = run_world(2, |c| {
        let t_small = steady_hops(c, 1 - c.rank(), SMALL, false, 256);
        let t_big = steady_hops(c, 1 - c.rank(), BIG, exchange, 8);
        (t_small, t_big)
    });
    let (t_small, t_big) = times[0];
    let alpha = t_small.max(1e-9);
    let beta = ((t_big - t_small) / (BIG - SMALL) as f64).max(1e-12);

    // γ: one `f64` sum fold of two large buffers, by the kernel every
    // combining collective folds with.
    let n = 1 << 20;
    let a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let start = Instant::now();
    ReduceOp::Sum.fold_into(&mut b, std::hint::black_box(&a));
    std::hint::black_box(&b);
    let gamma = (start.elapsed().as_secs_f64() / (n * 8) as f64).max(1e-13);

    Calibration { alpha, beta, gamma }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    #[test]
    fn calibration_produces_plausible_parameters() {
        let _cores = crate::CORES.write().unwrap_or_else(PoisonError::into_inner);
        let c = calibrate();
        // Latency: sub-second, super-nanosecond (an eager copy through
        // a ring slot; steady state is seen by polling, not a wake-up).
        assert!(c.alpha > 1e-9 && c.alpha < 0.1, "alpha {}", c.alpha);
        // Bandwidth: between 1 MB/s and 1 TB/s.
        let bw = 1.0 / c.beta;
        assert!(bw > 1e6 && bw < 1e12, "bw {bw}");
        // Combine: faster than 1 s/MB.
        assert!(c.gamma < 1e-6, "gamma {}", c.gamma);
        let m = c.machine();
        assert_eq!(m.delta, 0.0);
        // The exchanges β is taken from travel as windows, each copied
        // once (the piece count of a shared copy is checked in
        // `endpoint`), counted rather than timed: a ratio of two clocks
        // fails on a loaded host. A hop staged through an eager slot
        // would be copied twice and post no window.
        let (_, run) =
            crate::world::recorded(2, 16, |c| steady_hops(c, 1 - c.rank(), BIG, true, 8));
        let t = run.totals();
        assert!(t.rendezvous_msgs > 0);
        assert_eq!(t.bytes_out, t.rendezvous_msgs * BIG as u64);
    }

    #[test]
    fn calibrated_machine_drives_selection() {
        // The calibrated parameters must be usable by the selector
        // end-to-end.
        let _cores = crate::CORES.read().unwrap_or_else(PoisonError::into_inner);
        let m = calibrate().machine();
        let s = intercom_cost::choose_flat(
            intercom_cost::CollectiveOp::Broadcast,
            intercom_cost::GroupShape::Linear(8),
            1 << 16,
            &m,
        );
        assert_eq!(s.nodes(), 8);
    }
}
