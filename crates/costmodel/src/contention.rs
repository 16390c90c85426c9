//! Composite link contention across co-resident tenants.
//!
//! The §6 conflict factors price the link sharing *one* strategy
//! collective induces on its own mesh. When several group collectives
//! run concurrently on one shared fabric (paper §9; ROADMAP
//! multi-tenant item), their messages can meet on physical links that
//! no single program's factor accounts for — Barchet-Estefanel &
//! Mounié's intra-cluster measurements identify exactly this
//! cross-communication contention as the dominant unmodeled cost.
//!
//! `intercom-verify`'s concurrent analyzer computes, per tenant, the
//! worst per-link sharing of the tenant running alone, and the
//! worst-case per-link sharing of the *composite* workload over all
//! interleavings consistent with each program's own stage order. This
//! module is the cost-model surface those numbers flow into: a
//! [`CompositeContention`] summary whose [`contention_factor`] scales a
//! bandwidth term the same way the §6 bold-face factors do, so a
//! multi-tenant admission decision can price the slowdown honestly
//! before executing anything.
//!
//! [`contention_factor`]: CompositeContention::contention_factor

/// One tenant's contribution to the composite bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantLoad {
    /// Tenant name (for attribution in reports).
    pub name: String,
    /// Worst same-step sharing of any directed physical link when this
    /// tenant runs alone on the mesh (≥1 whenever it sends at all).
    pub solo_peak: usize,
}

/// Worst-case composite per-link sharing for a set of tenants embedded
/// on one physical mesh, as computed by the concurrent verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositeContention {
    /// Per-tenant solo peaks.
    pub tenants: Vec<TenantLoad>,
    /// `max` over tenants of `solo_peak` — the §6-style single-program
    /// bound the machine was priced for.
    pub solo_max: usize,
    /// Worst per-link sharing any interleaving of the tenants can
    /// produce (sum of the co-resident tenants' peaks on the worst
    /// shared link).
    pub composite_max: usize,
}

impl CompositeContention {
    /// Summarizes tenant loads whose worst shared link carries
    /// `composite_max` concurrent transfers.
    pub fn new(tenants: Vec<TenantLoad>, composite_max: usize) -> Self {
        let solo_max = tenants.iter().map(|t| t.solo_peak).max().unwrap_or(0);
        CompositeContention {
            tenants,
            solo_max,
            composite_max,
        }
    }

    /// How much worse the composite worst link is than the worst tenant
    /// alone — the factor by which co-residency inflates the effective
    /// per-byte cost on the contended link. `1.0` means the workload is
    /// interference-free (disjoint links), matching the single-program
    /// model; an empty or transfer-free workload is also `1.0`.
    pub fn contention_factor(&self) -> f64 {
        if self.solo_max == 0 || self.composite_max <= self.solo_max {
            1.0
        } else {
            self.composite_max as f64 / self.solo_max as f64
        }
    }

    /// True when no interleaving shares a link beyond what the worst
    /// single tenant already does — co-residency costs nothing extra.
    pub fn interference_free(&self) -> bool {
        self.composite_max <= self.solo_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(name: &str, solo_peak: usize) -> TenantLoad {
        TenantLoad {
            name: name.into(),
            solo_peak,
        }
    }

    #[test]
    fn disjoint_tenants_are_interference_free() {
        let c = CompositeContention::new(vec![load("rows", 1), load("cols", 1)], 1);
        assert!(c.interference_free());
        assert_eq!(c.contention_factor(), 1.0);
    }

    #[test]
    fn overlapping_tenants_inflate_the_factor() {
        let c = CompositeContention::new(vec![load("a", 1), load("b", 1)], 2);
        assert!(!c.interference_free());
        assert_eq!(c.solo_max, 1);
        assert_eq!(c.contention_factor(), 2.0);
    }

    #[test]
    fn empty_workload_is_neutral() {
        let c = CompositeContention::new(vec![], 0);
        assert_eq!(c.solo_max, 0);
        assert_eq!(c.contention_factor(), 1.0);
        assert!(c.interference_free());
    }
}
