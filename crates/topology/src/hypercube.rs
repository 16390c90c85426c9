//! Hypercube topology (paper §11: "a version tuned for the iPSC/860 that
//! has the same functionality, but uses algorithms more appropriate for
//! hypercubes").
//!
//! A `d`-cube has `2^d` nodes; node ids are bit strings and dimension-`j`
//! links connect ids differing in bit `j`. Deterministic *e-cube* routing
//! fixes bits lowest-dimension-first, which is deadlock-free and gives
//! every (src, dst) pair a unique path — the hypercube analogue of the
//! mesh's XY routing. A Hamiltonian ring for the bucket primitives comes
//! from the binary-reflected Gray code: consecutive Gray codes differ in
//! one bit, so the ring's steps are single links and, as on the mesh,
//! ring traffic is conflict-free.

use std::fmt;

/// A binary `d`-dimensional hypercube of `2^d` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    dims: u32,
}

/// A directed hypercube link: the edge leaving `from` along `dim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CubeLink {
    /// Node the link departs from.
    pub from: usize,
    /// Dimension (bit position) it flips.
    pub dim: u32,
}

impl Hypercube {
    /// Creates a `d`-cube. Panics for `d > 20` (guard against absurd
    /// sizes) — `d = 0` (a single node) is allowed.
    pub fn new(dims: u32) -> Self {
        assert!(dims <= 20, "hypercube dimension too large");
        Hypercube { dims }
    }

    /// Number of dimensions `d`.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Number of nodes `2^d`.
    pub fn nodes(&self) -> usize {
        1 << self.dims
    }

    /// Number of directed links `d · 2^d`.
    pub fn links(&self) -> usize {
        self.dims as usize * self.nodes()
    }

    /// Whether `id` is a valid node.
    pub fn contains(&self, id: usize) -> bool {
        id < self.nodes()
    }

    /// The neighbour across dimension `dim`.
    pub fn neighbor(&self, id: usize, dim: u32) -> usize {
        debug_assert!(self.contains(id) && dim < self.dims);
        id ^ (1 << dim)
    }

    /// Dense slot of a directed link, `from · d + dim` — the simulator's
    /// constraint index space.
    pub fn link_slot(&self, l: CubeLink) -> usize {
        l.from * self.dims as usize + l.dim as usize
    }

    /// E-cube (dimension-ordered) route: fix differing bits from lowest
    /// to highest dimension. Unique, minimal, deadlock-free; produced as
    /// it is walked (nothing is allocated).
    pub fn route(&self, src: usize, dst: usize) -> impl Iterator<Item = CubeLink> {
        debug_assert!(self.contains(src) && self.contains(dst));
        // Below the bit being fixed the walk is already at `dst`, at
        // and above it still at `src`.
        (0..self.dims)
            .filter(move |dim| (src ^ dst) & (1 << dim) != 0)
            .map(move |dim| {
                let fixed = (1usize << dim) - 1;
                CubeLink {
                    from: (dst & fixed) | (src & !fixed),
                    dim,
                }
            })
    }

    /// The binary-reflected Gray code sequence: a Hamiltonian ring in
    /// which consecutive nodes (and the wrap-around pair) are neighbours.
    pub fn gray_ring(&self) -> Vec<usize> {
        (0..self.nodes()).map(|i| i ^ (i >> 1)).collect()
    }
}

impl fmt::Display for Hypercube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-cube ({} nodes)", self.dims, self.nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        let c = Hypercube::new(4);
        assert_eq!(c.nodes(), 16);
        assert_eq!(c.links(), 64);
        assert_eq!(Hypercube::new(0).nodes(), 1);
        assert_eq!(Hypercube::new(0).links(), 0);
    }

    #[test]
    fn neighbors_differ_in_one_bit() {
        let c = Hypercube::new(3);
        for id in 0..c.nodes() {
            for dim in 0..3 {
                let n = c.neighbor(id, dim);
                assert_eq!((id ^ n).count_ones(), 1);
                assert_eq!(c.neighbor(n, dim), id);
            }
        }
    }

    #[test]
    fn route_is_minimal_and_correct() {
        let c = Hypercube::new(4);
        for src in 0..c.nodes() {
            for dst in 0..c.nodes() {
                let r: Vec<_> = c.route(src, dst).collect();
                assert_eq!(r.len(), (src ^ dst).count_ones() as usize);
                let mut cur = src;
                for l in &r {
                    assert_eq!(l.from, cur);
                    cur ^= 1 << l.dim;
                }
                assert_eq!(cur, dst);
            }
        }
    }

    #[test]
    fn route_dimension_ordered() {
        let c = Hypercube::new(5);
        let dims: Vec<u32> = c.route(0, 0b10110).map(|l| l.dim).collect();
        assert_eq!(dims, vec![1, 2, 4]);
    }

    #[test]
    fn gray_ring_is_hamiltonian() {
        for d in 0..6 {
            let c = Hypercube::new(d);
            let ring = c.gray_ring();
            assert_eq!(ring.len(), c.nodes());
            let mut seen = vec![false; c.nodes()];
            for &v in &ring {
                assert!(!seen[v]);
                seen[v] = true;
            }
            if d >= 1 {
                for w in ring.windows(2) {
                    assert_eq!((w[0] ^ w[1]).count_ones(), 1, "{w:?}");
                }
                let wrap = ring[0] ^ ring[c.nodes() - 1];
                assert_eq!(wrap.count_ones(), 1);
            }
        }
    }

    #[test]
    fn gray_ring_traffic_is_link_disjoint() {
        // Every ring member sending to its successor uses a distinct
        // directed link — the §4 conflict-freedom property on cubes.
        for d in 1..6u32 {
            let c = Hypercube::new(d);
            let ring = c.gray_ring();
            let n = c.nodes();
            let mut used = std::collections::HashSet::new();
            for i in 0..n {
                let (src, dst) = (ring[i], ring[(i + 1) % n]);
                let r: Vec<_> = c.route(src, dst).collect();
                assert_eq!(r.len(), 1, "ring step must be one hop");
                assert!(used.insert(c.link_slot(r[0])), "link reused in d={d}");
            }
        }
    }

    #[test]
    fn link_slots_are_dense_and_unique() {
        let c = Hypercube::new(3);
        let mut seen = std::collections::HashSet::new();
        for from in 0..c.nodes() {
            for dim in 0..3 {
                let s = c.link_slot(CubeLink { from, dim });
                assert!(s < c.links());
                assert!(seen.insert(s));
            }
        }
        assert_eq!(seen.len(), c.links());
    }

    #[test]
    fn every_route_stays_within_link_slots() {
        for d in 1..7 {
            let c = Hypercube::new(d);
            for src in 0..c.nodes() {
                for dst in 0..c.nodes() {
                    for l in c.route(src, dst) {
                        assert!(c.link_slot(l) < c.links(), "d={d} {src}->{dst}");
                    }
                }
            }
        }
    }
}
