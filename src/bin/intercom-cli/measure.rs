//! Simulated time measurement of whole collectives — the harness behind
//! Table 3 and Fig. 4.
//!
//! Each function runs the *actual* library (or the NX baseline) over the
//! wormhole-mesh simulator and returns the elapsed virtual time in
//! seconds under the given machine parameters.

use intercom::{Algo, Comm, Communicator, ReduceOp};
use intercom_cost::MachineParams;
use intercom_meshsim::{simulate, SimComm, SimConfig};
use intercom_topology::Mesh2D;

/// Which implementation/algorithm family to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// InterCom with cost-model-driven automatic selection (the library
    /// default — what the paper's "Intercom" columns report).
    IccAuto,
    /// InterCom pinned to the §5.1 short-vector composed algorithm.
    IccShort,
    /// InterCom pinned to the §5.2 long-vector composed algorithm.
    IccLong,
    /// The NX-style baseline (paper's "NX" columns).
    Nx,
}

impl Series {
    /// Display label used in generated tables.
    pub fn label(&self) -> &'static str {
        match self {
            Series::IccAuto => "iCC",
            Series::IccShort => "iCC-short",
            Series::IccLong => "iCC-long",
            Series::Nx => "NX",
        }
    }

    fn algo(&self) -> Option<Algo> {
        match self {
            Series::IccAuto => Some(Algo::Auto),
            Series::IccShort => Some(Algo::Short),
            Series::IccLong => Some(Algo::Long),
            Series::Nx => None,
        }
    }
}

/// Elapsed simulated seconds of `body` on every node of `mesh`; an
/// InterCom series hands it a world communicator and the series'
/// algorithm, the NX series `None`.
fn sim_time(
    mesh: Mesh2D,
    machine: MachineParams,
    series: Series,
    body: impl Fn(&SimComm, Option<(Communicator<'_, SimComm>, Algo)>) + Send + Sync,
) -> f64 {
    let cfg = SimConfig::new(mesh, machine);
    simulate(&cfg, |c| {
        let icc = series.algo().map(|algo| {
            let cc = Communicator::world_on_mesh(c, machine, mesh).expect("mesh matches world");
            (cc, algo)
        });
        body(c, icc)
    })
    .elapsed
}

/// Elapsed simulated seconds for a broadcast of `n` bytes from node 0
/// over `mesh`.
pub fn bcast_time(mesh: Mesh2D, machine: MachineParams, n: usize, series: Series) -> f64 {
    sim_time(mesh, machine, series, |c, icc| {
        let mut buf = vec![0u8; n];
        match icc {
            Some((cc, algo)) => cc.bcast_with(0, &mut buf, &algo).unwrap(),
            None => intercom_nx::nx_bcast(c, 0, &mut buf).unwrap(),
        }
    })
}

/// Elapsed simulated seconds for a collect whose *result* is `n` bytes
/// (per-node blocks of `max(1, n/p)` bytes — the paper's `nᵢ ≈ n/p`).
pub fn collect_time(mesh: Mesh2D, machine: MachineParams, n: usize, series: Series) -> f64 {
    let p = mesh.nodes();
    let b = (n / p).max(1);
    sim_time(mesh, machine, series, |c, icc| {
        let mine = vec![c.rank() as u8; b];
        let mut all = vec![0u8; p * b];
        match icc {
            Some((cc, algo)) => cc.allgather_with(&mine, &mut all, &algo).unwrap(),
            None => intercom_nx::nx_gcolx(c, &mine, &mut all).unwrap(),
        }
    })
}

/// Elapsed simulated seconds for a global sum of an `n`-byte vector of
/// doubles (`n/8` elements, minimum 1), result on every node.
pub fn gsum_time(mesh: Mesh2D, machine: MachineParams, n: usize, series: Series) -> f64 {
    let elems = (n / 8).max(1);
    sim_time(mesh, machine, series, |c, icc| {
        let mut buf = vec![1.0f64; elems];
        match icc {
            Some((cc, algo)) => cc.allreduce_with(&mut buf, ReduceOp::Sum, &algo).unwrap(),
            None => intercom_nx::nx_gdsum(c, &mut buf).unwrap(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Mesh2D, MachineParams) {
        (Mesh2D::new(2, 4), MachineParams::PARAGON)
    }

    #[test]
    fn all_series_produce_positive_times() {
        let (mesh, m) = small();
        for s in [
            Series::IccAuto,
            Series::IccShort,
            Series::IccLong,
            Series::Nx,
        ] {
            assert!(bcast_time(mesh, m, 256, s) > 0.0, "{s:?}");
            assert!(collect_time(mesh, m, 256, s) > 0.0, "{s:?}");
            assert!(gsum_time(mesh, m, 256, s) > 0.0, "{s:?}");
        }
    }

    #[test]
    fn auto_never_loses_to_both_pinned_variants() {
        // Auto picks by cost model, so it should be within a whisker of
        // min(short, long) at any length (modulo model-vs-fluid gaps).
        let (mesh, m) = small();
        for n in [8usize, 4096, 1 << 17] {
            let auto = bcast_time(mesh, m, n, Series::IccAuto);
            let s = bcast_time(mesh, m, n, Series::IccShort);
            let l = bcast_time(mesh, m, n, Series::IccLong);
            assert!(
                auto <= s.min(l) * 1.25 + 1e-9,
                "n={n}: auto {auto} vs short {s} / long {l}"
            );
        }
    }

    #[test]
    fn icc_beats_nx_for_long_vectors() {
        let (mesh, m) = small();
        let n = 1 << 18;
        assert!(bcast_time(mesh, m, n, Series::IccAuto) < bcast_time(mesh, m, n, Series::Nx));
        assert!(gsum_time(mesh, m, n, Series::IccAuto) < gsum_time(mesh, m, n, Series::Nx));
        assert!(collect_time(mesh, m, n, Series::IccAuto) < collect_time(mesh, m, n, Series::Nx));
    }

    #[test]
    fn nx_competitive_for_8_bytes() {
        // Table 3: NX slightly wins at 8 B thanks to iCC's δ overhead.
        let (mesh, m) = small();
        let icc = bcast_time(mesh, m, 8, Series::IccAuto);
        let nx = bcast_time(mesh, m, 8, Series::Nx);
        assert!(nx <= icc, "nx {nx} vs icc {icc}");
    }
}
