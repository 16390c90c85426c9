//! The process-wide plan cache.
//!
//! A compiled schedule depends only on
//! `(op, group size, size parameter, element size, strategy, opt level)`
//! — the same fact the paper exploits to tabulate algorithm choices per
//! machine. The cache memoizes [`lower`](super::lower) (plus the
//! [`optimize`](super::optimize) pass pipeline when the key asks for
//! it) under exactly that key, so iterative applications compile each
//! distinct call shape once and every later plan construction is a
//! hash lookup.
//!
//! Its lowerings replay every rank over argument buffers that are views
//! of one pool the cache keeps: never written, so never resident.
//!
//! The cache is **bounded**: when occupancy would exceed the capacity,
//! the least-recently-used program is evicted (and counted). Evicting
//! never invalidates running plans — they hold their program by `Arc`,
//! so an evicted program dies only when its last plan does. Long-lived
//! applications with a known working set can [`warm_up`] the cache
//! ahead of the compute loop so the loop itself sees only hits.
//!
//! [`warm_up`]: PlanCache::warm_up

use super::lower::lower_in;
use super::{optimize, CollectiveProgram, OptLevel, PlanOp};
use crate::error::Result;
use intercom_cost::{HierChoice, HierStrategy, Strategy};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything a compiled schedule depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The collective (with root / segment parameters).
    pub op: PlanOp,
    /// Group size.
    pub p: usize,
    /// Size parameter in elements (unit per [`PlanOp::args`]).
    pub n: usize,
    /// Element width in bytes.
    pub elem_size: usize,
    /// Hybrid strategy for strategy-taking ops lowered flat.
    pub strategy: Option<Strategy>,
    /// Hierarchy descriptor and per-level strategies when the program
    /// is lowered hierarchically ([`lower_hier`](super::lower_hier));
    /// `None` for flat programs. Part of the key: a flat and a
    /// hierarchical program of the same `(op, p, n)` coexist.
    pub hier: Option<HierStrategy>,
    /// Optimization level the cached program was compiled at. Programs
    /// at different levels are distinct cache entries: an unoptimized
    /// plan and an optimized plan of the same shape coexist.
    pub opt: OptLevel,
}

impl PlanKey {
    /// The key of the deployed program for a selection: `choice` (of a
    /// strategy-taking op; `None` for scatter, gather and alltoall)
    /// frozen at full optimization — flat in `strategy`, hierarchical
    /// in `hier`. The pass pipeline's rewrites are re-proven by the
    /// schedule audit and pinned byte-identical by the differential
    /// suites, so the optimized program is the deployed artifact: what
    /// persistent plans and every program-running
    /// [`Communicator`](crate::Communicator) call run.
    pub fn frozen(
        op: PlanOp,
        p: usize,
        n: usize,
        elem_size: usize,
        choice: Option<&HierChoice>,
    ) -> Self {
        let (strategy, hier) = match choice {
            Some(HierChoice::Flat(s)) => (Some(s.clone()), None),
            Some(HierChoice::Hier(h)) => (None, Some(h.clone())),
            None => (None, None),
        };
        PlanKey {
            op,
            p,
            n,
            elem_size,
            strategy,
            hier,
            opt: OptLevel::Full,
        }
    }
}

/// Cache occupancy and lifecycle counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that lowered a fresh program.
    pub misses: u64,
    /// Distinct programs currently cached.
    pub entries: usize,
    /// Programs evicted to keep occupancy within the capacity.
    pub evictions: u64,
    /// Programs dropped by [`PlanCache::invalidate_matching`] (stale
    /// after a `MachineParams` refit).
    pub invalidations: u64,
    /// Maximum entries the cache retains.
    pub capacity: usize,
}

impl CacheStats {
    /// The counter-wise difference `self − prev` — what happened
    /// *between* two snapshots. Occupancy and capacity keep `self`'s
    /// values (they are gauges, not counters). Merge-consistent: the
    /// delta of accumulated totals equals the total of interval deltas.
    pub fn delta(&self, prev: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(prev.hits),
            misses: self.misses.saturating_sub(prev.misses),
            entries: self.entries,
            evictions: self.evictions.saturating_sub(prev.evictions),
            invalidations: self.invalidations.saturating_sub(prev.invalidations),
            capacity: self.capacity,
        }
    }

    /// Hit fraction of the lookups between construction (or the last
    /// reset) and this snapshot, or `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// One cached program plus its recency stamp for LRU eviction.
struct Entry {
    prog: Arc<CollectiveProgram>,
    last_used: u64,
}

/// The locked cache state: the program map plus an exact recency index.
/// `recency` maps each entry's `last_used` stamp back to its key; the
/// clock is strictly monotone under the lock, so stamps are unique and
/// the index's first entry *is* the LRU — eviction pops it in O(log n)
/// instead of scanning every entry.
struct Store {
    plans: HashMap<PlanKey, Entry>,
    recency: BTreeMap<u64, PlanKey>,
    /// What the lowering replays' argument buffers are views of: kept
    /// from one compilation to the next and never written, so never
    /// resident (up to [`POOL_WORDS`]).
    pool: Vec<u64>,
}

/// The largest replay pool the cache keeps (64 MiB): a bigger one is
/// freed after its compilation.
const POOL_WORDS: usize = 1 << 23;

impl Store {
    /// Stamps `key` as used `now`, keeping `recency` in sync. Returns
    /// the cached program, or `None` if the key is absent.
    fn touch(&mut self, key: &PlanKey, now: u64) -> Option<Arc<CollectiveProgram>> {
        let entry = self.plans.get_mut(key)?;
        self.recency.remove(&entry.last_used);
        entry.last_used = now;
        self.recency.insert(now, key.clone());
        Some(entry.prog.clone())
    }

    /// Inserts a freshly compiled program stamped `now`.
    fn insert(&mut self, key: PlanKey, prog: Arc<CollectiveProgram>, now: u64) {
        self.recency.insert(now, key.clone());
        self.plans.insert(
            key,
            Entry {
                prog,
                last_used: now,
            },
        );
    }
}

/// A memoizing store of compiled programs, shareable across threads
/// (every rank of a threaded world hits one cache).
pub struct PlanCache {
    store: Mutex<Store>,
    capacity: usize,
    /// Logical clock stamping each access; strictly monotone under the
    /// cache lock, so LRU order is exact.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

/// Default capacity: generous for real applications (a working set is
/// a handful of shapes per collective) yet small enough that a shape
/// sweep — a benchmark scanning thousands of sizes — cannot grow the
/// cache without bound.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

impl PlanCache {
    /// An empty cache with the [default capacity](DEFAULT_CACHE_CAPACITY).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty cache retaining at most `capacity` programs (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            store: Mutex::new(Store {
                plans: HashMap::new(),
                recency: BTreeMap::new(),
                pool: Vec::new(),
            }),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Compiles `key`: lowers, its replays over `pool`, then runs the
    /// optimizer pass pipeline if the key's [`OptLevel`] asks for it.
    fn compile(key: &PlanKey, pool: &mut Vec<u64>) -> Result<Arc<CollectiveProgram>> {
        let (choice, p) = match &key.hier {
            Some(hs) => (Some(HierChoice::Hier(hs.clone())), hs.shape().ranks()),
            None => (key.strategy.clone().map(HierChoice::Flat), key.p),
        };
        let prog = lower_in(key.op, choice, p, key.n, key.elem_size, pool);
        if pool.len() > POOL_WORDS {
            *pool = Vec::new();
        }
        let prog = prog?;
        Ok(Arc::new(match key.opt {
            OptLevel::None => prog,
            OptLevel::Full => {
                let (opt, stats) = optimize(&prog);
                debug_assert!(!stats.reverted, "optimize reverted {key:?}");
                opt
            }
        }))
    }

    /// Evicts least-recently-used entries until occupancy fits the
    /// capacity. Called with the lock held, after an insert. The recency
    /// index makes each eviction an O(log n) pop of its first stamp.
    fn enforce_capacity(&self, store: &mut Store) {
        while store.plans.len() > self.capacity {
            let (_, lru) = store.recency.pop_first().expect("non-empty above capacity");
            store.plans.remove(&lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Returns the cached program for `key`, compiling and inserting it
    /// on first use. Compilation happens under the cache lock, so
    /// concurrent ranks requesting the same key compile it exactly once
    /// and the rest observe hits.
    pub fn get_or_compile(&self, key: &PlanKey) -> Result<Arc<CollectiveProgram>> {
        let mut store = self.store.lock().unwrap();
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        if let Some(prog) = store.touch(key, now) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(prog);
        }
        let prog = Self::compile(key, &mut store.pool)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        store.insert(key.clone(), prog.clone(), now);
        self.enforce_capacity(&mut store);
        Ok(prog)
    }

    /// Pre-compiles every key that is not already cached, returning how
    /// many programs were freshly compiled. Warm-up does **not** count
    /// toward the hit/miss counters — those measure the compute loop's
    /// locality, which pre-population would skew — but evictions forced
    /// by warming past the capacity are counted normally.
    ///
    /// Errors abort the warm-up at the first failing key; earlier keys
    /// stay cached.
    pub fn warm_up<I>(&self, keys: I) -> Result<usize>
    where
        I: IntoIterator<Item = PlanKey>,
    {
        let mut compiled = 0;
        for key in keys {
            let mut store = self.store.lock().unwrap();
            let now = self.clock.fetch_add(1, Ordering::Relaxed);
            if store.touch(&key, now).is_some() {
                continue;
            }
            let prog = Self::compile(&key, &mut store.pool)?;
            compiled += 1;
            store.insert(key, prog, now);
            self.enforce_capacity(&mut store);
        }
        Ok(compiled)
    }

    /// Drops every cached program whose key satisfies `pred`, counting
    /// each drop as an invalidation. Running plans are unaffected (they
    /// hold their program by `Arc`); the next lookup of a dropped key
    /// recompiles. This is how a `MachineParams` refit retires plans
    /// whose frozen strategy was priced under stale parameters.
    pub fn invalidate_matching(&self, pred: impl Fn(&PlanKey) -> bool) -> usize {
        let mut store = self.store.lock().unwrap();
        let stale: Vec<PlanKey> = store.plans.keys().filter(|k| pred(k)).cloned().collect();
        for key in &stale {
            if let Some(entry) = store.plans.remove(key) {
                store.recency.remove(&entry.last_used);
            }
        }
        self.invalidations
            .fetch_add(stale.len() as u64, Ordering::Relaxed);
        stale.len()
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.store.lock().unwrap().plans.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            capacity: self.capacity,
        }
    }

    /// Drops every cached program and resets the counters.
    pub fn clear(&self) {
        let mut store = self.store.lock().unwrap();
        store.plans.clear();
        store.recency.clear();
        drop(store);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

/// The process-wide cache used by [`crate::plan`]'s persistent plans.
pub fn global_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(PlanCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize) -> PlanKey {
        PlanKey {
            op: PlanOp::AllReduce,
            p: 4,
            n,
            elem_size: 8,
            strategy: Some(Strategy::pure_mst(4)),
            hier: None,
            opt: OptLevel::None,
        }
    }

    #[test]
    fn second_lookup_hits_and_shares_the_program() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile(&key(16)).unwrap();
        let b = cache.get_or_compile(&key(16)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn distinct_shapes_get_distinct_programs() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile(&key(16)).unwrap();
        let b = cache.get_or_compile(&key(32)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn hierarchy_descriptor_is_part_of_the_key() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let shape = ClusterShape::linear(2, 2);
        let hs = select_hier(
            CollectiveOp::CombineToAll,
            shape,
            16 * 8,
            &HierMachine::paragon_cluster(),
        )
        .unwrap();
        let hier_key = PlanKey {
            hier: Some(hs),
            strategy: None,
            ..key(16)
        };
        let cache = PlanCache::new();
        let flat = cache.get_or_compile(&key(16)).unwrap();
        let hier = cache.get_or_compile(&hier_key).unwrap();
        // Same op/p/n/width, different hierarchy descriptor: distinct
        // entries, and the hier entry lowers through lower_hier.
        assert!(!Arc::ptr_eq(&flat, &hier));
        assert_eq!(cache.stats().entries, 2);
        assert!(flat.hier.is_none());
        assert!(hier.hier.is_some());
        assert!(Arc::ptr_eq(
            &hier,
            &cache.get_or_compile(&hier_key).unwrap()
        ));
    }

    #[test]
    fn opt_levels_are_distinct_entries() {
        let cache = PlanCache::new();
        let plain = cache.get_or_compile(&key(16)).unwrap();
        let opt = cache
            .get_or_compile(&PlanKey {
                opt: OptLevel::Full,
                ..key(16)
            })
            .unwrap();
        assert!(!Arc::ptr_eq(&plain, &opt));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(2);
        let a = cache.get_or_compile(&key(1)).unwrap();
        cache.get_or_compile(&key(2)).unwrap();
        // Touch key(1) so key(2) is the LRU when key(3) overflows.
        cache.get_or_compile(&key(1)).unwrap();
        cache.get_or_compile(&key(3)).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        // key(1) survived (still shared), key(2) was evicted (fresh
        // compile = a new allocation).
        let a2 = cache.get_or_compile(&key(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        let before = cache.stats().misses;
        cache.get_or_compile(&key(2)).unwrap();
        assert_eq!(cache.stats().misses, before + 1, "key(2) was evicted");
    }

    #[test]
    fn recency_index_survives_touch_and_eviction_churn() {
        // Re-touching entries must reorder the recency index, not grow
        // it; sustained overflow then evicts in exact LRU order.
        let cache = PlanCache::with_capacity(3);
        for n in 1..=3 {
            cache.get_or_compile(&key(n)).unwrap();
        }
        for _ in 0..5 {
            cache.get_or_compile(&key(2)).unwrap(); // LRU order: 1, 3, 2
        }
        cache.get_or_compile(&key(4)).unwrap(); // evicts 1
        cache.get_or_compile(&key(5)).unwrap(); // evicts 3
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (3, 2));
        let before = cache.stats().misses;
        cache.get_or_compile(&key(2)).unwrap(); // survived all along
        assert_eq!(cache.stats().misses, before, "key(2) was never evicted");
        cache.get_or_compile(&key(1)).unwrap();
        cache.get_or_compile(&key(3)).unwrap();
        assert_eq!(cache.stats().misses, before + 2, "1 and 3 were evicted");
    }

    #[test]
    fn warm_up_populates_without_skewing_hit_rate() {
        let cache = PlanCache::new();
        let compiled = cache.warm_up([key(16), key(32), key(16)]).unwrap();
        assert_eq!(compiled, 2, "duplicate keys warm once");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 2));
        // The compute loop then sees pure hits.
        cache.get_or_compile(&key(16)).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn invalidate_matching_drops_only_matches() {
        let cache = PlanCache::new();
        let old = cache.get_or_compile(&key(16)).unwrap();
        cache.get_or_compile(&key(32)).unwrap();
        let dropped = cache.invalidate_matching(|k| k.n == 16);
        assert_eq!(dropped, 1);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.invalidations), (1, 1));
        // The dropped key recompiles (a fresh allocation), the survivor
        // still hits.
        let fresh = cache.get_or_compile(&key(16)).unwrap();
        assert!(!Arc::ptr_eq(&old, &fresh), "stale program was retired");
        let before = cache.stats().hits;
        cache.get_or_compile(&key(32)).unwrap();
        assert_eq!(cache.stats().hits, before + 1);
    }

    #[test]
    fn invalidation_keeps_recency_index_consistent() {
        let cache = PlanCache::with_capacity(2);
        cache.get_or_compile(&key(1)).unwrap();
        cache.get_or_compile(&key(2)).unwrap();
        assert_eq!(cache.invalidate_matching(|_| true), 2);
        // Eviction bookkeeping still works after a full purge.
        for n in 3..=6 {
            cache.get_or_compile(&key(n)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 2));
    }

    #[test]
    fn stats_delta_subtracts_counters_keeps_gauges() {
        let cache = PlanCache::new();
        cache.get_or_compile(&key(16)).unwrap();
        let prev = cache.stats();
        cache.get_or_compile(&key(16)).unwrap();
        cache.get_or_compile(&key(32)).unwrap();
        let d = cache.stats().delta(&prev);
        assert_eq!((d.hits, d.misses), (1, 1));
        assert_eq!(d.entries, 2, "occupancy is a gauge");
        assert_eq!(d.hit_rate(), Some(0.5));
    }

    #[test]
    fn warm_up_surfaces_lowering_errors() {
        let cache = PlanCache::new();
        let bad = PlanKey {
            strategy: Some(Strategy::pure_mst(5)), // wrong p
            ..key(8)
        };
        assert!(cache.warm_up([key(16), bad]).is_err());
        assert_eq!(cache.stats().entries, 1, "earlier keys stay cached");
    }
}
