//! Power iteration with persistent collective plans — an iterative
//! application in the style the paper's §9 motivates: the same group
//! collectives fire every iteration, so the hybrid strategy is selected
//! once and frozen in a plan.
//!
//! Computes the dominant eigenvalue of a symmetric matrix distributed by
//! block rows over 6 ranks: each iteration is a local mat-vec, an
//! allgather of the new vector pieces (collect plan), and an allreduce
//! for the norm (allreduce plan).
//!
//! Run: `cargo run --example power_iteration`

use intercom::plan::{AllreducePlan, CollectPlan};
use intercom::{Comm, Communicator, ReduceOp};
use intercom_cost::MachineParams;
use intercom_runtime::run_world;

const P: usize = 6;
const NB: usize = 8; // rows per rank; matrix is N×N, N = P·NB
const N: usize = P * NB;
const ITERS: usize = 40;

fn a(i: usize, j: usize) -> f64 {
    // Symmetric positive-definite-ish: diagonally dominant.
    if i == j {
        N as f64 + 1.0
    } else {
        1.0 / (1.0 + (i as f64 - j as f64).abs())
    }
}

fn main() {
    let lambdas = run_world(P, |comm| {
        let cc = Communicator::world(comm, MachineParams::PARAGON);
        let me = comm.rank();

        // Plans: frozen strategy, reused every iteration.
        let gather_plan = CollectPlan::<f64>::new(&cc, NB);
        let norm_plan = AllreducePlan::<f64>::new(&cc, 1, ReduceOp::Sum);

        let mut x = vec![1.0f64; N];
        let mut lambda = 0.0;
        for _ in 0..ITERS {
            // Local block rows of y = A·x.
            let mut y_mine = vec![0.0f64; NB];
            for (bi, y) in y_mine.iter_mut().enumerate() {
                let gi = me * NB + bi;
                *y = (0..N).map(|j| a(gi, j) * x[j]).sum();
            }
            // Collect the new vector (plan), then normalize via a
            // planned allreduce of the local square-norm contribution.
            gather_plan.execute(&cc, &y_mine, &mut x).unwrap();
            let mut norm2 = vec![y_mine.iter().map(|v| v * v).sum::<f64>()];
            norm_plan.execute(&cc, &mut norm2).unwrap();
            let norm = norm2[0].sqrt();
            for v in x.iter_mut() {
                *v /= norm;
            }
            lambda = norm; // Rayleigh-ish estimate for symmetric A
        }
        (lambda, gather_plan.choice().to_string())
    });

    let (lambda, strategy) = &lambdas[0];
    println!("dominant eigenvalue ≈ {lambda:.6} (plan strategy: {strategy})");
    for (r, (l, _)) in lambdas.iter().enumerate() {
        assert!(
            (l - lambda).abs() < 1e-9,
            "rank {r} disagrees: {l} vs {lambda}"
        );
    }
    // Sanity: dominant eigenvalue of a diagonally-dominant matrix with
    // diagonal N+1 and small off-diagonals is a bit above N+1.
    assert!(*lambda > N as f64 && *lambda < N as f64 + 16.0, "{lambda}");
    println!("all {P} ranks agree; power iteration converged.");
}
