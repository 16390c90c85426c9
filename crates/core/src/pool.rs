//! Recycling buffer pool for transport payloads.
//!
//! The paper's model charges every message `α + nβ`; a heap allocation
//! per hop inflates the *effective* α of any real backend. Both shipped
//! backends therefore carry payloads in pooled `Vec<u8>`s: a sender
//! acquires a buffer from its pool, the receiver copies the bytes out
//! and returns the buffer to the originating pool, and after a warm-up
//! round every hop runs allocation-free.
//!
//! Buffers are kept in size-classed free lists (power-of-two capacity
//! classes), so a pool serving mixed message sizes never hands out a
//! buffer with insufficient capacity and never shrinks one. The pool is
//! `Sync` (a single `Mutex` around the free lists — the critical section
//! is a pointer push/pop) and its hit/miss counters let tests and
//! benches assert steady-state behaviour.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of power-of-two size classes: class `c` holds buffers of
/// capacity at least `1 << c`, covering payloads up to 1 GiB.
const NUM_CLASSES: usize = 31;

/// Bound on buffers retained per size class; extras are freed on
/// release rather than hoarded.
const MAX_PER_CLASS: usize = 64;

/// Cumulative acquire/release counters of a [`BufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Acquires served from a free list (no heap allocation).
    pub hits: u64,
    /// Acquires that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to a free list.
    pub recycled: u64,
    /// Buffers dropped on release because their class was full.
    pub discarded: u64,
}

impl PoolStats {
    /// Fraction of acquires served without allocating, in `[0, 1]` —
    /// or `None` for a pool that was never asked (every transfer
    /// took the zero-copy rendezvous path). A bypassed pool
    /// has no hit rate; reporting `1.0` for it would flatter exactly
    /// the shapes that skip pooling.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total != 0).then(|| self.hits as f64 / total as f64)
    }

    /// Accumulates `other` into `self` (for cross-rank aggregates — a
    /// single rank's pool understates misses on asymmetric schedules
    /// where peers release into the sender's free lists).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled += other.recycled;
        self.discarded += other.discarded;
    }

    /// The counter-wise difference `self − prev`: what the pool did
    /// *between* two snapshots, so live views and bench A/Bs read
    /// interval rates directly instead of re-deriving them from raw
    /// totals. Merge-consistent with [`merge`](PoolStats::merge):
    /// `merge(a, b).delta(&merge(a0, b0)) == merge(a.delta(&a0), b.delta(&b0))`.
    pub fn delta(&self, prev: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(prev.hits),
            misses: self.misses.saturating_sub(prev.misses),
            recycled: self.recycled.saturating_sub(prev.recycled),
            discarded: self.discarded.saturating_sub(prev.discarded),
        }
    }
}

/// A size-classed recycling pool of `Vec<u8>` payload buffers.
pub struct BufferPool {
    classes: Mutex<Vec<Vec<Vec<u8>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Size class that can serve a request of `len` bytes: the smallest `c`
/// with `1 << c >= len`.
fn class_for_len(len: usize) -> usize {
    (len.max(1).next_power_of_two().trailing_zeros() as usize).min(NUM_CLASSES - 1)
}

/// Size class a buffer of `capacity` belongs in on release: the largest
/// `c` with `1 << c <= capacity`, so every buffer in class `c` can serve
/// any request routed there.
fn class_for_capacity(capacity: usize) -> usize {
    debug_assert!(capacity > 0);
    ((usize::BITS - 1 - capacity.leading_zeros()) as usize).min(NUM_CLASSES - 1)
}

impl BufferPool {
    /// An empty pool retaining at most 64 buffers per size class.
    pub fn new() -> Self {
        BufferPool {
            classes: Mutex::new((0..NUM_CLASSES).map(|_| Vec::new()).collect()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// Acquires an empty buffer with capacity for at least `len` bytes.
    /// Served from the free list when possible (a *hit*); otherwise a
    /// fresh rounded-up allocation (a *miss*). Zero-length requests are
    /// allocation-free by construction and count as hits.
    pub fn acquire(&self, len: usize) -> Vec<u8> {
        if len == 0 {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Vec::new();
        }
        let class = class_for_len(len);
        let recycled = {
            let mut classes = self.classes.lock().unwrap();
            classes[class].pop()
        };
        match recycled {
            Some(mut buf) => {
                debug_assert!(buf.capacity() >= len);
                buf.clear();
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(1 << class)
            }
        }
    }

    /// Returns a buffer to its size class for reuse. Buffers with no
    /// backing allocation, and overflow beyond the per-class bound, are
    /// simply dropped.
    pub fn release(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let class = class_for_capacity(buf.capacity());
        let mut classes = self.classes.lock().unwrap();
        if classes[class].len() < MAX_PER_CLASS {
            classes[class].push(buf);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            drop(classes);
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    /// Buffers currently parked across all free lists.
    pub fn free_buffers(&self) -> usize {
        self.classes.lock().unwrap().iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle_hits() {
        let pool = BufferPool::new();
        let b = pool.acquire(100);
        assert!(b.capacity() >= 100);
        assert!(b.is_empty());
        pool.release(b);
        let b2 = pool.acquire(100);
        assert!(b2.capacity() >= 100);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.recycled), (1, 1, 1));
    }

    #[test]
    fn smaller_request_reuses_larger_buffer_class_only_if_compatible() {
        let pool = BufferPool::new();
        // A 1024-capacity buffer lands in class 10 and must not serve a
        // class-4 request (different list), but must serve class 10.
        pool.release(Vec::with_capacity(1024));
        let small = pool.acquire(16);
        assert_eq!(pool.stats().misses, 1, "class-4 request missed");
        let big = pool.acquire(1000);
        assert!(big.capacity() >= 1000);
        assert_eq!(pool.stats().hits, 1, "class-10 request hit");
        pool.release(small);
        pool.release(big);
    }

    #[test]
    fn zero_length_never_allocates() {
        let pool = BufferPool::new();
        let b = pool.acquire(0);
        assert_eq!(b.capacity(), 0);
        assert_eq!(pool.stats().misses, 0);
        pool.release(b); // dropped silently
        assert_eq!(pool.stats().recycled, 0);
    }

    #[test]
    fn retention_bound_discards_overflow() {
        let pool = BufferPool::new();
        for _ in 0..MAX_PER_CLASS + 2 {
            pool.release(Vec::with_capacity(64));
        }
        let s = pool.stats();
        assert_eq!(s.recycled, MAX_PER_CLASS as u64);
        assert_eq!(s.discarded, 2);
        assert_eq!(pool.free_buffers(), MAX_PER_CLASS);
    }

    #[test]
    fn class_arithmetic() {
        assert_eq!(class_for_len(1), 0);
        assert_eq!(class_for_len(2), 1);
        assert_eq!(class_for_len(3), 2);
        assert_eq!(class_for_len(1024), 10);
        assert_eq!(class_for_len(1025), 11);
        assert_eq!(class_for_capacity(1024), 10);
        assert_eq!(class_for_capacity(1536), 10);
        assert_eq!(class_for_capacity(2048), 11);
        // Round trip: a miss-allocated buffer returns to the class it
        // serves.
        for len in [1usize, 2, 3, 7, 100, 4096, 1 << 20] {
            let c = class_for_len(len);
            assert_eq!(class_for_capacity(1 << c), c);
        }
    }

    #[test]
    fn hit_rate_of_untouched_pool_is_not_applicable() {
        // A pool nothing ever acquired from (pure rendezvous traffic)
        // has no hit rate — `Some(1.0)` here would report perfect
        // pooling for shapes that bypass the pool.
        assert_eq!(BufferPool::new().stats().hit_rate(), None);
    }

    #[test]
    fn hit_rate_counts_misses_honestly() {
        let pool = BufferPool::new();
        let b = pool.acquire(64); // miss: fresh pool allocates
        pool.release(b);
        let b = pool.acquire(64); // hit: served from the free list
        pool.release(b);
        assert_eq!(pool.stats().hit_rate(), Some(0.5));
    }

    #[test]
    fn stats_merge_sums_all_counters() {
        let a = PoolStats {
            hits: 3,
            misses: 1,
            recycled: 4,
            discarded: 0,
        };
        let mut b = PoolStats {
            hits: 1,
            misses: 0,
            recycled: 1,
            discarded: 2,
        };
        b.merge(&a);
        assert_eq!(
            b,
            PoolStats {
                hits: 4,
                misses: 1,
                recycled: 5,
                discarded: 2,
            }
        );
        assert_eq!(b.hit_rate(), Some(0.8));
    }

    #[test]
    fn pool_is_sync_and_usable_across_threads() {
        let pool = std::sync::Arc::new(BufferPool::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = pool.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        let b = p.acquire(i * 17 % 300 + 1);
                        p.release(b);
                    }
                });
            }
        });
        let st = pool.stats();
        assert_eq!(st.hits + st.misses, 400);
    }
}
