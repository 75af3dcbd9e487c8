ctxpref_faults::counters! {
    /// The live statistics of a [`crate::ContextQueryTree`], atomic so
    /// the hit path can update them under the read lock.
    pub(crate) struct AtomicStats;
    /// Hit/miss statistics of a [`crate::ContextQueryTree`].
    #[derive(Copy)]
    pub struct CacheStats {
        /// Lookups answered from the cache.
        hits,
        /// Lookups that found no cached result.
        misses,
        /// Results inserted.
        insertions,
        /// Cached states evicted to respect the capacity bound.
        evictions,
        /// Wholesale invalidations (profile changes).
        invalidations,
        /// Trie cells examined across all lookups (comparable to the
        /// profile tree's cell-access metric).
        cells_accessed,
    }
}

impl CacheStats {
    /// Fraction of lookups answered from the cache, `0.0` when none
    /// have been made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert_eq!(s.hit_ratio(), 0.75);
    }
}
