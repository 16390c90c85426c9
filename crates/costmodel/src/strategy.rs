//! Hybrid strategies (paper §6).
//!
//! A strategy is a logical mesh `d1 × … × dk` plus a choice of what to run
//! in the innermost (last) dimension: a minimum-spanning-tree algorithm
//! (`M` — the short-vector algorithm) or a scatter…collect pair (`SC` —
//! staying in the long-vector regime all the way down). The paper names
//! strategies by their stage letters: `(3×10, SMC)`, `(2×3×5, SSMCC)`,
//! `(5×6, SSCC)`, and so on.
//!
//! **Dimension order convention.** `dims[0]` varies *fastest*: its groups
//! are runs of adjacent logical ranks. This matches the paper's Fig. 1,
//! whose first scatter stage runs within subgroups of two *adjacent*
//! nodes, and its rationale: "while the vectors are long, the hybrid
//! should choose the localized groups in an effort to reduce network
//! conflicts."

use std::fmt;

/// What runs in the innermost dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// `…SMC…`: the short-vector (MST) algorithm in the last dimension.
    Mst,
    /// `…SSCC…`: stage-1 and stage-2 long-vector primitives back-to-back
    /// in the last dimension (pure long-vector execution).
    ScatterCollect,
}

/// How concurrent stage groups interact on the physical network — the
/// source of the bold-face conflict factors in the paper's §6 formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictModel {
    /// The group occupies a linear array (or is unstructured, §9): the
    /// stage in dimension `i` interleaves `sᵢ = d1·…·dᵢ₋₁` groups over
    /// shared links, so its β term is scaled by `sᵢ` (divided by the
    /// machine's `link_excess`, floored at 1).
    LinearArray,
    /// Stages map onto physical mesh rows/columns (§7.1): different rows
    /// (and different columns) have dedicated links, so interleaving only
    /// costs *within* a physical row or column. The strategy's
    /// [`Strategy::mesh_split`] records which logical dims live in the
    /// row direction; conflict strides reset at the row/column boundary.
    MeshRowsCols,
}

/// A hybrid strategy: logical dims (fastest-varying first) + innermost
/// algorithm choice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Strategy {
    /// Logical mesh extents `d1, …, dk`, `dims[0]` fastest.
    pub dims: Vec<usize>,
    /// What runs in the last dimension.
    pub kind: StrategyKind,
    /// For mesh-mapped strategies: the first `mesh_split` dims factor the
    /// physical row (column count), the rest factor the physical column
    /// (row count). `None` for linear-array strategies.
    pub mesh_split: Option<usize>,
}

impl Strategy {
    /// Pure short-vector algorithm on all `p` nodes: `(1×p, M)`.
    pub fn pure_mst(p: usize) -> Self {
        Strategy {
            dims: vec![p],
            kind: StrategyKind::Mst,
            mesh_split: None,
        }
    }

    /// Pure long-vector algorithm on all `p` nodes: `(1×p, SC)`.
    pub fn pure_long(p: usize) -> Self {
        Strategy {
            dims: vec![p],
            kind: StrategyKind::ScatterCollect,
            mesh_split: None,
        }
    }

    /// Builds a linear-array strategy, validating the dims.
    pub fn new(dims: Vec<usize>, kind: StrategyKind) -> Self {
        assert!(!dims.is_empty(), "strategy needs at least one dimension");
        assert!(dims.iter().all(|&d| d >= 1), "dims must be positive");
        Strategy {
            dims,
            kind,
            mesh_split: None,
        }
    }

    /// Builds a mesh-mapped strategy whose first `row_dims` dims factor
    /// the physical row direction (§7.1 staging).
    pub fn on_mesh(dims: Vec<usize>, kind: StrategyKind, row_dims: usize) -> Self {
        assert!(row_dims <= dims.len(), "row split beyond dims");
        let mut s = Strategy::new(dims, kind);
        s.mesh_split = Some(row_dims);
        s
    }

    /// Total number of nodes `p = ∏ dᵢ`.
    pub fn nodes(&self) -> usize {
        self.dims.iter().product()
    }

    /// Number of logical dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Stride of dimension `i` (0-based): `sᵢ = d1·…·dᵢ₋₁`, the number of
    /// interleaved groups that stage contends with on a linear array.
    pub fn stride(&self, i: usize) -> usize {
        self.dims[..i].iter().product()
    }

    /// The effective β-conflict multiplier for a stage in dimension `i`
    /// under `model`, given the machine's link-excess factor.
    pub fn conflict_factor(&self, i: usize, model: ConflictModel, link_excess: f64) -> f64 {
        let interleave = match model {
            ConflictModel::LinearArray => self.stride(i),
            ConflictModel::MeshRowsCols => match self.mesh_split {
                // Interleaving resets at the physical row/column
                // boundary: only dims in the *same* physical direction
                // contend for links.
                Some(k) if i < k => self.dims[..i].iter().product(),
                Some(k) => self.dims[k..i].iter().product(),
                // 1:1 dim-to-physical-direction mapping: conflict-free.
                None => 1,
            },
        };
        (interleave as f64 / link_excess).max(1.0)
    }

    /// The conflict factors of every dimension in order — the per-level
    /// bounds a mesh verifier or simulator can check observed link
    /// sharing against.
    pub fn conflict_profile(&self, model: ConflictModel, link_excess: f64) -> Vec<f64> {
        (0..self.ndims())
            .map(|i| self.conflict_factor(i, model, link_excess))
            .collect()
    }

    /// The paper's stage-letter name: scatters up the dims, `M` or `SC`
    /// innermost, collects back down — e.g. `"SSMCC"` for a 3-D MST
    /// strategy, `"SSCC"` for a 2-D scatter/collect strategy, `"M"` for
    /// pure MST.
    pub fn letters(&self) -> String {
        let k = self.dims.len();
        let outer = k - 1;
        let mut s = String::new();
        for _ in 0..outer {
            s.push('S');
        }
        match self.kind {
            StrategyKind::Mst => s.push('M'),
            StrategyKind::ScatterCollect => s.push_str("SC"),
        }
        for _ in 0..outer {
            s.push('C');
        }
        s
    }

    /// The paper's logical-mesh name, e.g. `"2x3x5"`.
    pub fn mesh_name(&self) -> String {
        self.dims
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x")
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.mesh_name(), self.letters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_match_paper_names() {
        assert_eq!(Strategy::new(vec![30], StrategyKind::Mst).letters(), "M");
        assert_eq!(
            Strategy::new(vec![2, 15], StrategyKind::Mst).letters(),
            "SMC"
        );
        assert_eq!(
            Strategy::new(vec![2, 3, 5], StrategyKind::Mst).letters(),
            "SSMCC"
        );
        assert_eq!(
            Strategy::new(vec![5, 6], StrategyKind::ScatterCollect).letters(),
            "SSCC"
        );
        assert_eq!(
            Strategy::new(vec![30], StrategyKind::ScatterCollect).letters(),
            "SC"
        );
    }

    #[test]
    fn strides() {
        let s = Strategy::new(vec![2, 3, 5], StrategyKind::Mst);
        assert_eq!(s.stride(0), 1);
        assert_eq!(s.stride(1), 2);
        assert_eq!(s.stride(2), 6);
        assert_eq!(s.nodes(), 30);
    }

    #[test]
    fn conflict_factors() {
        let s = Strategy::new(vec![2, 3, 5], StrategyKind::Mst);
        assert_eq!(s.conflict_factor(2, ConflictModel::LinearArray, 1.0), 6.0);
        assert_eq!(s.conflict_factor(2, ConflictModel::LinearArray, 2.0), 3.0);
        assert_eq!(s.conflict_factor(2, ConflictModel::LinearArray, 8.0), 1.0);
        assert_eq!(s.conflict_factor(2, ConflictModel::MeshRowsCols, 1.0), 1.0);
    }

    #[test]
    fn conflict_profile_matches_per_dim_factors() {
        let s = Strategy::new(vec![2, 3, 5], StrategyKind::Mst);
        assert_eq!(
            s.conflict_profile(ConflictModel::LinearArray, 1.0),
            vec![1.0, 2.0, 6.0]
        );
        let m = Strategy::on_mesh(vec![4, 3], StrategyKind::ScatterCollect, 1);
        assert_eq!(
            m.conflict_profile(ConflictModel::MeshRowsCols, 1.0),
            vec![1.0, 1.0]
        );
    }

    #[test]
    fn display() {
        let s = Strategy::new(vec![3, 10], StrategyKind::Mst);
        assert_eq!(s.to_string(), "(3x10, SMC)");
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_dims_rejected() {
        Strategy::new(vec![], StrategyKind::Mst);
    }
}
