//! Hybrid strategy enumeration (paper §6).
//!
//! "Given a linear array of p nodes which is logically viewed as a
//! d1 × … × dk mesh, there are a large number of choices for the
//! broadcast. (Notice that k must also be chosen.)" — this module
//! enumerates that space: every ordered factorization of `p` crossed with
//! both innermost-algorithm kinds.

use crate::strategy::{Strategy, StrategyKind};
use intercom_topology::factor::factorizations;

/// Enumerates every hybrid strategy for `p` nodes with at most `max_dims`
/// logical dimensions (`0` = unlimited). Includes the pure short-vector
/// strategy `(1×p, M)` and pure long-vector strategy `(1×p, SC)`.
///
/// For `p = 1` the single trivial strategy is returned (every collective
/// degenerates to a no-op).
pub fn enumerate_strategies(p: usize, max_dims: usize) -> Vec<Strategy> {
    if p <= 1 {
        return vec![Strategy::pure_mst(1)];
    }
    let mut out = Vec::new();
    for dims in factorizations(p, max_dims) {
        out.push(Strategy::new(dims.clone(), StrategyKind::Mst));
        out.push(Strategy::new(dims, StrategyKind::ScatterCollect));
    }
    out
}

/// Enumerates mesh-aware strategies for an `r × c` physical mesh: logical
/// dims are a factorization of `c` (stages within physical rows) followed
/// by a factorization of `r` (stages within physical columns), so every
/// stage runs along dedicated row/column links (§7.1). Row-major node
/// numbering makes the row part the fastest-varying dims.
pub fn enumerate_mesh_strategies(rows: usize, cols: usize, max_dims: usize) -> Vec<Strategy> {
    let p = rows * cols;
    if p <= 1 {
        return vec![Strategy::pure_mst(1)];
    }
    let row_parts: Vec<Vec<usize>> = if cols == 1 {
        vec![vec![]]
    } else {
        factorizations(cols, max_dims)
    };
    let col_parts: Vec<Vec<usize>> = if rows == 1 {
        vec![vec![]]
    } else {
        factorizations(rows, max_dims)
    };
    let mut out = Vec::new();
    // The whole mesh as one row-major linear array is always available:
    // the MST tree at short lengths and the snake ring at long lengths
    // (consecutive row-major ids are link-disjoint on a mesh).
    out.push(Strategy::pure_mst(p));
    out.push(Strategy::pure_long(p));
    for rp in &row_parts {
        for cp in &col_parts {
            let mut dims = rp.clone();
            dims.extend_from_slice(cp);
            // One dim is the whole mesh as one line (a 1×c or r×1
            // mesh), listed above.
            if dims.len() < 2 || max_dims != 0 && dims.len() > max_dims {
                continue;
            }
            out.push(Strategy::on_mesh(dims.clone(), StrategyKind::Mst, rp.len()));
            out.push(Strategy::on_mesh(
                dims,
                StrategyKind::ScatterCollect,
                rp.len(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;

    #[test]
    fn thirty_nodes_contains_table2_strategies() {
        let all = enumerate_strategies(30, 0);
        let has = |dims: &[usize], kind: StrategyKind| {
            all.iter().any(|s| s.dims == dims && s.kind == kind)
        };
        assert!(has(&[30], StrategyKind::Mst));
        assert!(has(&[30], StrategyKind::ScatterCollect));
        assert!(has(&[2, 15], StrategyKind::Mst));
        assert!(has(&[2, 3, 5], StrategyKind::Mst));
        assert!(has(&[5, 6], StrategyKind::ScatterCollect));
        assert!(has(&[3, 10], StrategyKind::ScatterCollect));
    }

    #[test]
    fn all_strategies_cover_p() {
        for s in enumerate_strategies(24, 0) {
            assert_eq!(s.nodes(), 24);
        }
    }

    #[test]
    fn prime_p_has_only_flat_strategies() {
        // "if one or both of these dimensions are prime … the hybrid
        // algorithms may not be as effective" (§6).
        let all = enumerate_strategies(13, 0);
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|s| s.dims == [13]));
    }

    #[test]
    fn single_node() {
        let all = enumerate_strategies(1, 0);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].nodes(), 1);
    }

    #[test]
    fn mesh_strategies_split_rows_then_cols() {
        let all = enumerate_mesh_strategies(4, 6, 0);
        // Coarsest: [6, 4].
        assert!(all.iter().any(|s| s.dims == [6, 4]));
        // Refined rows: [2, 3, 4], [3, 2, 4]; refined cols: [6, 2, 2].
        assert!(all.iter().any(|s| s.dims == [2, 3, 4]));
        assert!(all.iter().any(|s| s.dims == [6, 2, 2]));
        for s in &all {
            assert_eq!(s.nodes(), 24);
        }
    }

    #[test]
    fn mesh_strategies_handle_degenerate_dims() {
        // A one-row or one-column mesh lists its whole line once per
        // kind, as the linear strategy.
        for (rows, cols) in [(1, 8), (8, 1)] {
            let all = enumerate_mesh_strategies(rows, cols, 0);
            let line: Vec<&Strategy> = all.iter().filter(|s| s.dims == [8]).collect();
            assert_eq!(line, [&Strategy::pure_mst(8), &Strategy::pure_long(8)]);
            assert!(all.iter().all(|s| s.nodes() == 8));
        }
    }

    #[test]
    fn max_dims_bounds_enumeration() {
        for s in enumerate_strategies(64, 3) {
            assert!(s.ndims() <= 3);
        }
        for s in enumerate_mesh_strategies(16, 32, 4) {
            assert!(s.ndims() <= 4);
        }
    }
}
